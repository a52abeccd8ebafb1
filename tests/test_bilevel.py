"""Dynamic bi-level loop: queues, break conditions, schedules, termination."""

import gc

import numpy as np
import pytest

import condensery.tensor as T
from condensery import bilevel, evaluate
from condensery.bilevel import AccQueue, CondenseConfig, init_state, inner_step, \
    outer_lr_at, outer_step, query_accuracy, run_condense, sample_class_balanced
from condensery.data import make_blobs
from condensery.errors import ConfigError, DivergenceError, UsageError
from condensery.losses import cwfa, discrimination_logits, discrimination_loss, \
    feature_alignment_loss, total_loss
from condensery.models import ConvNetSpec, forward, init_params
from condensery.tensor import Tensor

TINY_ARCH = ConvNetSpec(blocks=1, channels=4, input_shape=(1, 4, 4), num_classes=3)


def tiny_cfg(**kw):
    defaults = dict(ipc=1, n_per_class=8, gamma=2, l_out=3, l_in=3, max_outer_iters=6,
                    query_size=12, seed=0, outer_lr_milestones=(1200, 1400, 1800))
    defaults.update(kw)
    return CondenseConfig(**defaults)


def tiny_data(seed=0):
    return make_blobs(3, 20, (1, 4, 4), spread=0.2, separation=5.0, seed=seed)


def test_config_validation():
    with pytest.raises(ConfigError):
        CondenseConfig(ipc=1, lambda1=0.0)
    with pytest.raises(ConfigError):
        CondenseConfig(ipc=1, gamma=1)
    with pytest.raises(ConfigError):
        CondenseConfig(ipc=0)


def test_config_defaults_match_reported_values():
    cfg = CondenseConfig(ipc=1)
    assert cfg.n_per_class == 256
    assert cfg.lambda1 == 0.05 and cfg.lambda2 == 0.05
    assert cfg.gamma == 10
    assert cfg.outer_lr == 0.1
    assert cfg.outer_lr_milestones == (1200, 1400, 1800)
    assert cfg.max_outer_iters == 2000
    assert cfg.inner_lr == 0.01
    assert cfg.beta == 1.0


def test_div_examples():
    q = AccQueue(5)
    for v in (0.50, 0.52, 0.49):
        q.push(v)
    assert q.div() == pytest.approx(0.03)
    single = AccQueue(3)
    single.push(0.7)
    assert single.div() == 0.0
    with pytest.raises(UsageError):
        AccQueue(3).div()


def test_div_matches_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        vals = rng.random(rng.integers(1, 12))
        q = AccQueue(16)
        for v in vals:
            q.push(v)
        s = np.sort(vals)
        assert q.div() == s[-1] - s[0]


def test_queue_capacity_enforced():
    q = AccQueue(2)
    for v in (0.1, 0.2, 0.3):
        q.push(v)
    # a push on a full queue drops the oldest entry
    assert list(q) == [0.2, 0.3]
    assert q.full


def test_outer_lr_schedule():
    cfg = CondenseConfig(ipc=1)
    assert outer_lr_at(cfg, 1199) == pytest.approx(0.1)
    assert outer_lr_at(cfg, 1200) == pytest.approx(0.05)
    assert outer_lr_at(cfg, 1400) == pytest.approx(0.025)
    assert outer_lr_at(cfg, 1800) == pytest.approx(0.0125)


def test_outer_step_zero_alignment_when_synthetic_equals_real():
    # synthetic == whole real set and matching batch sizes: L_f contributes 0
    ds = tiny_data()
    cfg = tiny_cfg(ipc=20, n_per_class=20)
    state = init_state(ds, TINY_ARCH, cfg)
    order = np.argsort(ds.labels, kind="stable")
    state.synthetic.images = Tensor(ds.images[order].copy())
    bd = outer_step(state, ds, cfg)
    assert bd.l_f.item() == pytest.approx(0.0, abs=1e-18)


def test_outer_steps_reduce_alignment_on_blobs():
    # identity-extractor surrogate: pixel-space loop must be mostly monotone
    ds = tiny_data(1)
    cfg = tiny_cfg(max_outer_iters=50, l_out=50, lambda1=1e-9, n_per_class=16)
    state = init_state(ds, TINY_ARCH, cfg)
    losses = []
    for _ in range(50):
        losses.append(outer_step(state, ds, cfg).l_f.item())
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
    assert drops >= 0.9 * (len(losses) - 1)


def test_outer_step_equals_a_reference_with_a_taped_real_branch(monkeypatch):
    # outer_step forwards the real batch from constants; its losses and its
    # pixel update equal the same step's with the real branch on the tape
    ds = tiny_data(2)
    cfg = tiny_cfg(ipc=2, n_per_class=8)   # the synthetic batch is the whole set
    state = init_state(ds, TINY_ARCH, cfg)
    ref = init_state(ds, TINY_ARCH, cfg)   # the same draws, pixels and weights
    pyramids = []
    real_forward = bilevel.forward

    def recording(params, x):
        pyramids.append(real_forward(params, x))
        return pyramids[-1]
    monkeypatch.setattr(bilevel, "forward", recording)
    breakdown = outer_step(state, ds, cfg)
    assert pyramids[0].logits._op == "const" and pyramids[1].logits._backward is not None

    real_idx = sample_class_balanced(ds, cfg.n_per_class, ref.rng)
    real_labels = ds.labels[real_idx]
    real_pyr = real_forward(ref.theta, Tensor(ds.images[real_idx]))
    synth_pyr = real_forward(ref.theta, ref.synthetic.images)
    assert real_pyr.logits._backward is not None
    real_means = cwfa(real_pyr, real_labels, ds.num_classes)
    synth_means = cwfa(synth_pyr, ref.synthetic.labels, ds.num_classes)
    l_f = feature_alignment_loss(synth_means, real_means)
    l_d = discrimination_loss(discrimination_logits(real_pyr.per_layer[-1],
                                                    synth_means.per_layer[-1]), real_labels)
    expected = total_loss(l_f, l_d, cfg.beta)
    T.backward(expected.total)
    assert breakdown.as_floats() == expected.as_floats()
    np.testing.assert_array_equal(
        state.synthetic.images.values,
        ref.synthetic.images.values - outer_lr_at(cfg, 0) * ref.synthetic.images.grad)


def test_inner_step_zero_lr_keeps_theta():
    ds = tiny_data()
    cfg = tiny_cfg(inner_lr=0.0)
    state = init_state(ds, TINY_ARCH, cfg)
    before = [t.values.copy() for t in state.theta.tensors]
    inner_step(state, cfg)
    for a, b in zip(before, state.theta.tensors):
        assert np.array_equal(a, b.values)


def test_steps_leave_what_they_do_not_train_untouched():
    # the outer step trains only the pixels and the inner step only the
    # weights: whatever a step reads without training it keeps its bits and
    # gets no gradient, which a forward through a non-constant would leave
    ds = tiny_data()
    cfg = tiny_cfg()
    state = init_state(ds, TINY_ARCH, cfg)
    weights = [t.values.copy() for t in state.theta.tensors]
    outer_step(state, ds, cfg)
    for before, t in zip(weights, state.theta.tensors):
        np.testing.assert_array_equal(t.values, before)
        assert t.grad is None
    pixels = state.synthetic.images.values.copy()
    inner_step(state, cfg)
    np.testing.assert_array_equal(state.synthetic.images.values, pixels)
    assert state.synthetic.images.grad is None


def test_inner_steps_fit_separable_synthetic():
    ds = tiny_data()
    cfg = tiny_cfg(inner_lr=0.05)
    state = init_state(ds, TINY_ARCH, cfg)
    # plant well-separated synthetic images
    state.synthetic.images.values[:] = 0.0
    for k in range(3):
        state.synthetic.images.values[k, 0, k, k] = 5.0
    loss = np.inf
    for _ in range(400):
        loss = inner_step(state, cfg)
        if loss < 0.1:
            break
    assert loss < 0.1


def test_inner_step_loss_is_plain_cross_entropy():
    ds = tiny_data()
    cfg = tiny_cfg(inner_lr=0.0)
    state = init_state(ds, TINY_ARCH, cfg)
    pyr = forward(state.theta, state.synthetic.images)
    expected = T.softmax_cross_entropy_mean(pyr.logits, state.synthetic.labels).item()
    assert inner_step(state, cfg) == pytest.approx(expected)


def test_steps_leave_no_cyclic_garbage():
    # Tapes hold no reference cycles, so refcounting frees each step's graph
    # and the cyclic collector finds nothing once the steps are done.
    ds = tiny_data()
    cfg = tiny_cfg()
    state = init_state(ds, TINY_ARCH, cfg)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            outer_step(state, ds, cfg)
            inner_step(state, cfg)
            query_accuracy(state.theta, ds, cfg, state.rng)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_query_accuracy_random_theta_near_chance():
    ds = make_blobs(4, 300, (1, 4, 4), spread=0.2, seed=2)
    cfg = tiny_cfg(query_size=1200)
    arch = ConvNetSpec(blocks=1, channels=4, input_shape=(1, 4, 4), num_classes=4)
    accs = [query_accuracy(init_params(arch, seed=s), ds, cfg, np.random.default_rng(s))
            for s in range(8)]
    mean = np.mean(accs)
    # 3 sigma of a binomial around 1/K over 8*1200 draws, plus model correlation slack
    assert abs(mean - 0.25) < 0.15


def test_query_accuracy_memorizer_and_determinism():
    ds = tiny_data(3)
    cfg = tiny_cfg(query_size=30)
    state = init_state(ds, TINY_ARCH, cfg)
    a1 = query_accuracy(state.theta, ds, cfg, np.random.default_rng(5))
    a2 = query_accuracy(state.theta, ds, cfg, np.random.default_rng(5))
    assert a1 == a2


def test_query_accuracy_reads_in_bounded_batches(monkeypatch):
    ds = make_blobs(3, 200, (1, 4, 4), spread=0.2, seed=4)
    theta = init_params(TINY_ARCH, seed=4)
    cfg = tiny_cfg(query_size=600)
    sizes = []
    real_forward = evaluate.forward

    def recording(params, x):
        sizes.append(x.shape[0])
        return real_forward(params, x)
    monkeypatch.setattr(evaluate, "forward", recording)
    acc = query_accuracy(theta, ds, cfg, np.random.default_rng(6))
    assert sum(sizes) == 600 and max(sizes) <= 256
    # the same query drawn again, read in one whole-batch forward
    idx = sample_class_balanced(ds, 200, np.random.default_rng(6))
    whole = np.argmax(forward(theta, Tensor(ds.images[idx])).logits.values, axis=1)
    assert acc == np.mean(whole == ds.labels[idx])


def test_run_condense_huge_lambda1_breaks_at_first_full_queue():
    ds = tiny_data()
    steps = []
    cfg = tiny_cfg(lambda1=1e9, lambda2=1e-12, gamma=2, l_out=10, max_outer_iters=8)
    run_condense(ds, TINY_ARCH, cfg, hook=lambda st, bd, acc: steps.append(st.lc_out))
    # queue fills at the 2nd outer step of each restart, div < 1e9 always
    assert max(steps) == 2


def test_run_condense_huge_lambda2_runs_inner_to_cap():
    ds = tiny_data()
    cfg = tiny_cfg(lambda1=1e9, lambda2=1e9, gamma=2, l_in=4, max_outer_iters=4)
    counts = []

    def hook(state, bd, acc):
        counts.append(state.total_inner_steps)

    run_condense(ds, TINY_ARCH, cfg, hook=hook)
    # inner loop runs after every non-breaking outer step, always to l_in
    deltas = np.diff([0] + counts)
    inner_runs = deltas[deltas > 0]
    assert len(inner_runs) > 0
    assert all(d == 4 for d in inner_runs)


def test_run_condense_counting_bound():
    ds = tiny_data()
    cfg = tiny_cfg(l_out=5, l_in=5, max_outer_iters=20, lambda1=1e-9, lambda2=1e9)
    final = {}

    def hook(state, bd, acc):
        final["state"] = state

    run_condense(ds, TINY_ARCH, cfg, hook=hook)
    st = final["state"]
    assert st.total_outer_steps == 20
    assert st.total_outer_steps + st.total_inner_steps <= 20 * (1 + 5)


def test_run_condense_terminates_for_all_lambda_gamma_combinations():
    ds = tiny_data()
    for lam1 in (1e-9, 0.05, 1e9):
        for lam2 in (1e-9, 0.05, 1e9):
            for gamma in (2, 5, 10):
                cfg = tiny_cfg(lambda1=lam1, lambda2=lam2, gamma=gamma,
                               max_outer_iters=5, l_out=3, l_in=3)
                final = {}
                run_condense(ds, TINY_ARCH, cfg,
                             hook=lambda st, bd, acc: final.update(state=st))
                st = final["state"]
                assert st.total_outer_steps == 5
                assert st.total_inner_steps <= 5 * 3
                assert st.max_queue_len <= gamma


def test_synthetic_labels_invariant():
    ds = tiny_data()
    cfg = tiny_cfg(max_outer_iters=4)
    synth = run_condense(ds, TINY_ARCH, cfg)
    np.testing.assert_array_equal(synth.labels, np.repeat(np.arange(3), 1))


def test_run_condense_deterministic_per_seed():
    ds = tiny_data()
    cfg = tiny_cfg(max_outer_iters=4, seed=42)
    s1 = run_condense(ds, TINY_ARCH, cfg)
    s2 = run_condense(ds, TINY_ARCH, tiny_cfg(max_outer_iters=4, seed=42))
    assert np.array_equal(s1.images.values, s2.images.values)
    s3 = run_condense(ds, TINY_ARCH, tiny_cfg(max_outer_iters=4, seed=43))
    assert not np.array_equal(s1.images.values, s3.images.values)


def test_run_condense_stops_when_an_outer_step_leaves_nan_pixels(monkeypatch):
    real_outer_step = bilevel.outer_step

    def nan_outer_step(state, real, cfg):
        breakdown = real_outer_step(state, real, cfg)
        if state.total_outer_steps == 2:
            state.synthetic.images.values[0, 0, 0, 0] = np.nan   # injected divergence
        return breakdown

    monkeypatch.setattr(bilevel, "outer_step", nan_outer_step)
    steps = []
    with pytest.raises(DivergenceError, match=r"^outer step 2: pixels is non-finite$"):
        run_condense(tiny_data(), TINY_ARCH, tiny_cfg(),
                     hook=lambda state, breakdown, acc: steps.append(state.total_outer_steps))
    assert steps == [1]


def test_metrics_csv_stream(tmp_path):
    ds = tiny_data()
    cfg = tiny_cfg(max_outer_iters=3)
    path = tmp_path / "metrics.csv"
    run_condense(ds, TINY_ARCH, cfg, metrics_path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,l_f,l_d,total,query_acc,lc_out,lc_in,lr"
    assert len(lines) == 4   # header + one row per outer iteration
