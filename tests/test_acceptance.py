"""Top-level acceptance checks, one test per shipped guarantee.

Each test prints a single pass/fail line (bypassing capture) so the
suite output doubles as an acceptance report. Criterion 6 needs MNIST
IDX files on disk and skips with a message when they are absent.
"""

import itertools
import os
import struct
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import condensery.tensor as T
from condensery import bilevel
from condensery.bilevel import AccQueue, CondenseConfig, run_condense
from condensery.coreset import forgetting_events, materialize, select_forgetting, \
    select_herding, select_kcenter, select_random
from condensery.data import load_idx, load_synthetic, make_blob_split, make_dataset, \
    new_synthetic, save_synthetic
from condensery.errors import ParseError
from condensery.evaluate import EvalConfig, evaluate_protocol, train_on_synthetic
from condensery.evaluate import test_accuracy as accuracy_on  # avoid pytest collection
from condensery.gradcheck import run_suite
from condensery.losses import cwfa, discrimination_loss, feature_alignment_loss, total_loss
from condensery.models import ConvNetSpec, FeaturePyramid, MLPSpec
from condensery.tensor import Tensor
from idx_files import save_idx


_TERM = None


@pytest.fixture(scope="session", autouse=True)
def _reporter(request):
    global _TERM
    _TERM = request.config.pluginmanager.get_plugin("terminalreporter")


def report(n, ok, msg):
    verdict = {True: "PASS", False: "FAIL", None: "SKIP"}[ok]
    line = f"criterion {n}: {verdict} - {msg}"
    if _TERM is not None:
        _TERM.write_line("\n" + line)
    else:
        print(line, file=sys.__stdout__, flush=True)


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    results = run_suite(seed=0)
    elapsed = time.monotonic() - t0
    worst = max(r.worst_rel for r in results)
    ok = all(r.passed for r in results) and worst <= 1e-3 and elapsed <= 30.0
    report(1, ok, f"gradient suite worst rel. error {worst:.2e} in {elapsed:.1f}s")
    assert ok, [r.detail for r in results if not r.passed] or f"{elapsed=}"


def test_criterion_2_loss_oracles():
    rng = np.random.default_rng(0)
    K, L = 3, 2
    real = [rng.standard_normal((K * 4, 5)) for _ in range(L)]
    synth = [rng.standard_normal((K, 5)) for _ in range(L)]
    yr = np.repeat(np.arange(K), 4)
    ys = np.arange(K)
    pr = FeaturePyramid([Tensor(f) for f in real], Tensor(np.zeros((K * 4, 1))))
    ps = FeaturePyramid([Tensor(f) for f in synth], Tensor(np.zeros((K, 1))))
    lf = feature_alignment_loss(cwfa(ps, ys, K), cwfa(pr, yr, K)).item()
    lf_oracle = sum(float(((synth[l][ys == k].mean(0) - real[l][yr == k].mean(0)) ** 2).sum())
                    for l in range(L) for k in range(K))
    align_ok = abs(lf - lf_oracle) < 1e-12

    logits = rng.standard_normal((6, K))
    labels = rng.integers(0, K, 6)
    ld = discrimination_loss(Tensor(logits), labels).item()
    ld_oracle = np.mean([np.log(np.exp(r).sum()) - r[y] for r, y in zip(logits, labels)])
    disc_ok = abs(ld - ld_oracle) < 1e-9

    a, b, beta = rng.random(), rng.random(), 0.7
    total = total_loss(Tensor(np.array(a)), Tensor(np.array(b)), beta)
    total_ok = total.item() == a + beta * b

    ok = align_ok and disc_ok and total_ok
    report(2, ok, f"alignment gap {abs(lf - lf_oracle):.1e}, "
                  f"discrimination gap {abs(ld - ld_oracle):.1e}, total bit-exact {total_ok}")
    assert ok


def test_criterion_3_closed_form_optimum():
    rng = np.random.default_rng(1)
    K, D = 3, 6
    real = rng.standard_normal((K * 5, D))
    labels = np.repeat(np.arange(K), 5)
    target = np.stack([real[labels == k].mean(0) for k in range(K)])
    synth = Tensor(rng.standard_normal((K, D)))
    mr = cwfa(FeaturePyramid([Tensor(real)], Tensor(np.zeros((K * 5, 1)))), labels, K)
    for _ in range(200):
        ms = cwfa(FeaturePyramid([synth], Tensor(np.zeros((K, 1)))), np.arange(K), K)
        T.backward(feature_alignment_loss(ms, mr))
        T.sgd_step([synth], 0.5)
    gap = np.linalg.norm(synth.values - target)
    ok = gap <= 1e-2
    report(3, ok, f"identity-extractor optimum gap {gap:.2e} after 200 steps")
    assert ok


def test_criterion_4_loop_behavior(monkeypatch):
    arch = ConvNetSpec(blocks=1, channels=4, input_shape=(1, 4, 4), num_classes=3)
    train, _ = make_blob_split(3, 20, 5, (1, 4, 4), spread=0.2, seed=0)
    lengths = []

    class RecordingQueue(AccQueue):
        def push(self, acc):
            super().push(acc)
            lengths.append(len(self))

    monkeypatch.setattr(bilevel, "AccQueue", RecordingQueue)
    ok = True
    for lam1, lam2, gamma in itertools.product((1e-9, 0.05, 1e9), (1e-9, 0.05, 1e9),
                                               (2, 5, 10)):
        cfg = CondenseConfig(ipc=1, n_per_class=8, lambda1=lam1, lambda2=lam2,
                             gamma=gamma, l_out=3, l_in=3, max_outer_iters=4,
                             query_size=12, seed=0)
        rows, lengths[:] = [], []
        run_condense(train, arch, cfg, hook=rows.append)
        ok &= rows[-1]["iter"] == 4
        ok &= rows[-1]["inner_steps"] <= 4 * 3
        ok &= max(lengths) <= gamma

    rng = np.random.default_rng(2)
    for _ in range(1000):
        vals = rng.random(rng.integers(1, 12))
        q = AccQueue(16)
        for v in vals:
            q.push(v)
        s = np.sort(vals)
        ok &= q.div() == s[-1] - s[0]
    report(4, ok, "27 break-parameter combinations terminate within the counted "
                  "bound; div matches the sort oracle on 1000 queues")
    assert ok


def test_criterion_5_blobs_end_to_end():
    t0 = time.monotonic()
    train, test = make_blob_split(3, 40, 40, (1, 8, 8), spread=0.15, seed=0)
    arch = ConvNetSpec(blocks=2, channels=4, input_shape=(1, 8, 8), num_classes=3)
    cfg = CondenseConfig(ipc=1, n_per_class=16, gamma=5, l_out=5, l_in=10,
                         max_outer_iters=30, query_size=30, seed=0)
    synth = run_condense(train, arch, cfg)
    ecfg = EvalConfig(epochs=60, lr=0.05, n_experiments=1, n_nets_per=2, seed=0)
    rep = evaluate_protocol(synth, arch, test, ecfg)
    # brute-force oracle: the same training recipe on the full real set
    full = materialize(train, select_random(train, 40, seed=0))
    oracle = accuracy_on(train_on_synthetic(full, arch, EvalConfig(epochs=60, lr=0.05), seed=1),
                         test)
    elapsed = time.monotonic() - t0
    ok = rep.mean >= 0.95 and oracle >= 0.99 and elapsed < 60.0
    report(5, ok, f"condensed {100 * rep.mean:.1f}% vs full-data oracle "
                  f"{100 * oracle:.1f}% in {elapsed:.1f}s")
    assert ok, (rep.mean, oracle, elapsed)


def _find_mnist():
    root = os.environ.get("CONDENSERY_MNIST_DIR", "data/mnist")
    names = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
    paths = [Path(root) / n for n in names]
    return paths if all(p.exists() for p in paths) else None


def test_criterion_6_mnist_directional():
    paths = _find_mnist()
    if paths is None:
        report(6, None, "MNIST IDX files not found (set CONDENSERY_MNIST_DIR or "
                        "place them under data/mnist/); directional check skipped")
        pytest.skip("MNIST data not available in this environment")
    t0 = time.monotonic()
    train = load_idx(paths[0], paths[1], num_classes=10)
    test = load_idx(paths[2], paths[3], num_classes=10, stats=train.norm_stats)
    arch = ConvNetSpec(blocks=2, channels=32, input_shape=train.image_shape, num_classes=10)
    cfg = CondenseConfig(ipc=1, n_per_class=64, max_outer_iters=500, seed=0)
    synth = run_condense(train, arch, cfg)
    ecfg = EvalConfig(epochs=100, lr=0.01, n_experiments=3, n_nets_per=5, seed=0)
    condensed = evaluate_protocol(synth, arch, test, ecfg)
    baseline = evaluate_protocol(materialize(train, select_random(train, 1, seed=0)),
                                 arch, test, ecfg)
    gap = condensed.mean - baseline.mean
    elapsed = time.monotonic() - t0
    ok = gap >= 0.10 and elapsed <= 1800.0
    report(6, ok, f"condensed {100 * condensed.mean:.1f}% vs random "
                  f"{100 * baseline.mean:.1f}% (gap {100 * gap:.1f} pts) in {elapsed:.0f}s")
    assert ok, (condensed.mean, baseline.mean, elapsed)


def test_criterion_7_coreset_oracles():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((12, 2))
    ds = make_dataset(feats.reshape(12, 1, 1, 2), [0] * 12, 1)
    ds.images = feats.reshape(12, 1, 1, 2)
    ipc = 3
    mu = feats.mean(0)

    herd = select_herding(ds, ipc)
    herd_gap = np.linalg.norm(mu - feats[herd.indices].mean(0))
    best_gap = min(np.linalg.norm(mu - feats[list(sub)].mean(0))
                   for sub in itertools.combinations(range(12), ipc))
    herd_ok = best_gap - 1e-12 <= herd_gap <= 5 * best_gap + 0.5

    def radius(centers):
        d = np.linalg.norm(feats[:, None, :] - feats[None, centers, :], axis=2)
        return d.min(axis=1).max()

    kc = select_kcenter(ds, ipc)
    best_r = min(radius(list(sub)) for sub in itertools.combinations(range(12), ipc))
    kc_ok = radius(list(kc.indices)) <= 2 * best_r + 1e-12

    trace = rng.integers(0, 2, size=(8, 12))
    counts = forgetting_events(trace)
    recount = [sum(1 for e in range(1, 8) if trace[e - 1, i] == 1 and trace[e, i] == 0)
               for i in range(12)]
    forget_ok = np.array_equal(counts, recount)
    sel = select_forgetting(ds, ipc, trace)
    forget_ok &= list(sel.indices) == sorted(range(12), key=lambda i: (-counts[i], i))[:ipc]

    ok = herd_ok and kc_ok and forget_ok
    report(7, ok, f"herding within [1, 5x] of the exhaustive optimum, k-center "
                  f"within the 2-approximation bound, forgetting recount exact")
    assert ok, (herd_ok, kc_ok, forget_ok)


def test_criterion_8_persistence(tmp_path):
    rng = np.random.default_rng(4)
    synth = new_synthetic(4, 2, (1, 4, 4), rng)
    p1, p2 = tmp_path / "a.cnd", tmp_path / "b.cnd"
    save_synthetic(synth, p1)
    back = load_synthetic(p1)
    save_synthetic(back, p2)
    cnd_ok = (np.array_equal(back.images.values, synth.images.values)
              and p1.read_bytes() == p2.read_bytes())

    pixels = rng.integers(0, 256, size=(3, 1, 4, 4)).astype(np.uint8)
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    save_idx(pixels, [0, 1, 2], ip, lp)
    ds = load_idx(ip, lp, num_classes=3)
    from condensery.data import denormalize
    raw = denormalize(ds.images, ds.norm_stats) * 255.0
    idx_ok = np.allclose(raw, pixels.astype(float), atol=1e-9)

    located_ok = True
    bad = bytearray(p1.read_bytes())
    bad[0] = 0x58
    p1.write_bytes(bytes(bad))
    try:
        load_synthetic(p1)
        located_ok = False
    except ParseError as e:
        located_ok &= e.offset == 0
    data = bytearray(ip.read_bytes())
    data[3] = 0x99
    ip.write_bytes(bytes(data))
    try:
        load_idx(ip, lp)
        located_ok = False
    except ParseError as e:
        located_ok &= e.offset == 0

    ok = cnd_ok and idx_ok and located_ok
    report(8, ok, "container round trip bitwise, IDX fixture exact, corrupted "
                  "inputs rejected with byte offsets")
    assert ok, (cnd_ok, idx_ok, located_ok)


def test_criterion_9_cross_architecture():
    train, test = make_blob_split(3, 40, 40, (1, 8, 8), spread=0.15, seed=1)
    conv = ConvNetSpec(blocks=3, channels=32, input_shape=(1, 8, 8), num_classes=3)
    cfg = CondenseConfig(ipc=1, n_per_class=16, gamma=5, l_out=5, l_in=10,
                         max_outer_iters=20, query_size=30, seed=1)
    synth = run_condense(train, conv, cfg)
    mlp = MLPSpec(input_shape=(1, 8, 8), hidden=(64,), num_classes=3)
    ecfg = EvalConfig(epochs=100, lr=0.05, n_experiments=1, n_nets_per=2, seed=2)
    rep = evaluate_protocol(synth, mlp, test, ecfg)
    ok = rep.mean >= 1 / 3 + 0.20
    report(9, ok, f"ConvNet-condensed set trains an MLP to {100 * rep.mean:.1f}% "
                  f"(threshold {100 * (1 / 3 + 0.20):.1f}%)")
    assert ok, rep.mean
