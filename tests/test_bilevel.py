"""Dynamic bi-level loop: queues, break conditions, schedules, termination."""

import gc
import tracemalloc

import numpy as np
import pytest

import condensery.tensor as T
from condensery import bilevel, evaluate
from condensery.bilevel import AccQueue, CondenseConfig, init_state, inner_step, \
    outer_lr_at, outer_step, query_accuracy, run_condense, sample_class_balanced
from condensery.data import make_blob_split
from condensery.errors import ConfigError, DivergenceError, UsageError
from condensery.losses import ClassMeans, class_average, discrimination_logits, \
    discrimination_loss, feature_alignment_loss, total_loss
from condensery.models import ConvNetSpec, forward, init_params
from condensery.tensor import Tensor

TINY_ARCH = ConvNetSpec(blocks=1, channels=4, input_shape=(1, 4, 4), num_classes=3)


def tiny_cfg(**kw):
    defaults = dict(ipc=1, n_per_class=8, gamma=2, l_out=3, l_in=3, max_outer_iters=6,
                    query_size=12, seed=0, outer_lr_milestones=(1200, 1400, 1800))
    defaults.update(kw)
    return CondenseConfig(**defaults)


def tiny_data(seed=0):
    return make_blob_split(3, 20, 1, (1, 4, 4), spread=0.2, separation=5.0, seed=seed)[0]


def test_config_validation():
    with pytest.raises(ConfigError):
        CondenseConfig(ipc=1, lambda1=0.0)
    with pytest.raises(ConfigError):
        CondenseConfig(ipc=1, gamma=1)
    with pytest.raises(ConfigError):
        CondenseConfig(ipc=0)
    with pytest.raises(ConfigError, match="^beta must be positive$"):
        CondenseConfig(beta=float("nan"))


@pytest.mark.parametrize("name, least, below", [
    ("n_per_class", 1, 0), ("query_size", 1, 0), ("l_out", 1, 0), ("l_in", 1, 0),
    ("max_outer_iters", 0, -1), ("outer_lr", 0, -0.5), ("inner_lr", 0, -1.0),
    ("inner_lr", 0, float("nan")), ("seed", 0, -1)])
def test_config_rejects_a_value_below_its_minimum(name, least, below):
    # the library holds the ranges the CLI reports: n_per_class=0 would
    # fail in the first outer step, a negative inner_lr would run gradient
    # ascent to the end, and a negative seed raised numpy's bare ValueError
    CondenseConfig(**{name: least})
    with pytest.raises(ConfigError, match=f"^{name} must be >= {least}, got {below}$"):
        CondenseConfig(**{name: below})


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
    assert outer_step(state, ds, cfg)[0] == pytest.approx(0.0, abs=1e-18)


def test_outer_steps_reduce_alignment_on_blobs():
    # identity-extractor surrogate: pixel-space loop must be mostly monotone
    ds = tiny_data(1)
    cfg = tiny_cfg(max_outer_iters=50, l_out=50, lambda1=1e-9, n_per_class=16)
    state = init_state(ds, TINY_ARCH, cfg)
    losses = []
    for _ in range(50):
        losses.append(outer_step(state, ds, cfg)[0])
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
    assert drops >= 0.9 * (len(losses) - 1)


def class_means(pyramid, labels, num_classes):
    """Each layer's class means as one taped matmul over the whole batch."""
    avg = Tensor.constant(class_average(labels, num_classes))
    return ClassMeans([T.matmul(avg, f) for f in pyramid.per_layer])


def step_and_reference(monkeypatch, ds, arch, cfg):
    """One outer step and the same step with the whole real batch and the
    whole synthetic set each forwarded once, on the tape, each as (losses,
    stepped pixels); and the logits of the step's forwards: {"read": one
    per tape-free slice, the real batch's then the synthetic set's,
    "taped": one per synthetic slice forwarded on the tape}."""
    state = init_state(ds, arch, cfg)
    ref = init_state(ds, arch, cfg)   # the same draws, pixels and weights
    seen = {"read": [], "taped": []}

    def recording(kind):
        def run(params, x):
            pyramid = forward(params, x)
            seen[kind].append(pyramid.logits)
            return pyramid
        return run
    monkeypatch.setattr(evaluate, "forward", recording("read"))
    monkeypatch.setattr(bilevel, "forward", recording("taped"))
    losses = outer_step(state, ds, cfg)
    monkeypatch.undo()

    real_idx = sample_class_balanced(ds, cfg.n_per_class, ref.rng)
    real_labels = ds.labels[real_idx]
    real_pyr = forward(ref.theta, Tensor(ds.images[real_idx]))
    synth_pyr = forward(ref.theta, ref.synthetic.images)
    assert real_pyr.logits._backward is not None
    real_means = class_means(real_pyr, real_labels, ds.num_classes)
    synth_means = class_means(synth_pyr, ref.synthetic.labels, ds.num_classes)
    l_f = feature_alignment_loss(synth_means, real_means)
    l_d = discrimination_loss(discrimination_logits(real_pyr.per_layer[-1],
                                                    synth_means.per_layer[-1]), real_labels)
    total = total_loss(l_f, l_d, cfg.beta)
    T.backward(total)
    ref_pixels = ref.synthetic.images.values - outer_lr_at(cfg, 0) * ref.synthetic.images.grad
    return ((losses, state.synthetic.images.values),
            ((l_f.item(), l_d.item(), total.item()), ref_pixels), seen)


def test_outer_step_equals_a_reference_with_a_taped_real_branch(monkeypatch):
    # outer_step reads both sets through evaluate.read_slices, from
    # constants, and forwards the synthetic set again on the tape under its
    # class means' gradients; its losses and its pixel update equal the
    # same step's with both sets on the tape. Its 24 real and 6 synthetic
    # images are one slice each
    cfg = tiny_cfg(ipc=2, n_per_class=8)
    step, ref, seen = step_and_reference(monkeypatch, tiny_data(2), TINY_ARCH, cfg)
    assert [(t.shape[0], t._op) for t in seen["read"]] == [(24, "const"), (6, "const")]
    assert [(t.shape[0], t._backward is not None) for t in seen["taped"]] == [(6, True)]
    assert step[0] == ref[0]
    np.testing.assert_array_equal(step[1], ref[1])


@pytest.mark.parametrize("K, n_per_class, slices", [(3, 32, [64, 32, 6]), (8, 16, [64, 64, 16])])
def test_outer_step_over_slices_that_split_no_class_is_exact(monkeypatch, K, n_per_class,
                                                             slices):
    # each class's rows fall inside one slice, so every other slice adds an
    # exact zero to its class sums, and the step equals the taped reference
    # bit for bit
    ds = make_blob_split(K, 40, 1, (1, 4, 4), spread=0.2, separation=5.0, seed=5)[0]
    arch = ConvNetSpec(blocks=1, channels=4, input_shape=(1, 4, 4), num_classes=K)
    step, ref, seen = step_and_reference(monkeypatch, ds, arch,
                                         tiny_cfg(ipc=2, n_per_class=n_per_class))
    assert [t.shape[0] for t in seen["read"]] == slices
    assert step[0] == ref[0]
    np.testing.assert_array_equal(step[1], ref[1])


def test_outer_step_over_a_class_split_by_a_slice_seam_is_within_rounding(monkeypatch):
    # rows 40..79 are class 1 and the seam is at row 64, so class 1's sum is
    # two partial sums added: the step moves by rounding only
    step, ref, seen = step_and_reference(monkeypatch, tiny_data(2), TINY_ARCH,
                                         tiny_cfg(ipc=2, n_per_class=40))
    assert [t.shape[0] for t in seen["read"]] == [64, 56, 6]
    np.testing.assert_allclose(step[0], ref[0], rtol=1e-14, atol=0)
    np.testing.assert_allclose(step[1], ref[1], rtol=0, atol=1e-14 * np.abs(ref[1]).max())


# two blocks, so the root of each synthetic slice sums over two layers and
# the first block's gradient meets the second's
TWO_BLOCKS = ConvNetSpec(blocks=2, channels=4, input_shape=(1, 8, 8), num_classes=4)


def two_block_data():
    return make_blob_split(4, 16, 1, (1, 8, 8), spread=0.2, separation=5.0, seed=7)[0]


@pytest.mark.parametrize("ipc, taped", [(1, [4]), (16, [64]), (32, [64, 64])])
def test_synthetic_slices_that_split_no_class_step_exactly(monkeypatch, ipc, taped):
    # the synthetic set is read and forwarded on the tape a slice at a
    # time; no class's rows cross a seam, so its class means, the losses
    # and every pixel's gradient have the bits of one taped batch
    step, ref, seen = step_and_reference(monkeypatch, two_block_data(), TWO_BLOCKS,
                                         tiny_cfg(ipc=ipc, n_per_class=16))
    assert [t.shape[0] for t in seen["read"]] == [64] + taped
    assert [t.shape[0] for t in seen["taped"]] == taped
    assert all(t._backward is not None for t in seen["taped"])
    assert step[0] == ref[0]
    np.testing.assert_array_equal(step[1], ref[1])


def test_a_synthetic_class_split_by_a_slice_seam_steps_within_rounding(monkeypatch):
    # 4 classes of 20 images: rows 60..79 are class 3 and the seam is at
    # row 64, so its means are two partial sums added and the losses, hence
    # every G_l, move by rounding only
    step, ref, seen = step_and_reference(monkeypatch, two_block_data(), TWO_BLOCKS,
                                         tiny_cfg(ipc=20, n_per_class=16))
    assert [t.shape[0] for t in seen["taped"]] == [64, 16]
    np.testing.assert_allclose(step[0], ref[0], rtol=1e-14, atol=0)
    np.testing.assert_allclose(step[1], ref[1], rtol=0, atol=1e-14 * np.abs(ref[1]).max())


def test_outer_step_peak_memory_barely_grows_with_the_real_batch():
    # the real batch is read READ_BATCH images at a time, and each slice's
    # activations are freed once its class sums and last tap are taken. So
    # going from 1 slice to 8 adds at most twice each added image's pixels
    # and last tap (the taps of the slices and their concatenation); a
    # whole-batch forward added about 13 times that here
    arch = ConvNetSpec(blocks=2, channels=32, input_shape=(1, 16, 16), num_classes=4)
    ds = make_blob_split(4, 128, 1, (1, 16, 16), spread=0.2, seed=0)[0]
    peaks = []
    for n_per_class in (16, 128):
        cfg = tiny_cfg(n_per_class=n_per_class)
        state = init_state(ds, arch, cfg)
        outer_step(state, ds, cfg)
        tracemalloc.start()
        try:
            outer_step(state, ds, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    added = 4 * (128 - 16)
    per_image = 8 * (16 * 16 + arch.embed_dim)
    assert peaks[1] - peaks[0] < 2 * added * per_image, (peaks[1] - peaks[0]) / (added * per_image)


def test_outer_step_peak_memory_barely_grows_with_ipc():
    # the synthetic set is read, and forwarded on the tape, READ_BATCH
    # images at a time, so going from ipc 5 to 50 adds only its pixel
    # gradient and a larger taped slice. The step peaks in its taped slice
    # loop, 20.25 -> 27.21 MB (tracemalloc), 2.5 times the added pixels: a
    # 64-image slice against a 50-image one (+4.1 MB) and the 2.8 MB pixel
    # gradient buffer. The synthetic set's last taps, freed before that
    # loop, leave the peak as it is. One taped batch of the whole set added
    # 108 MB here, 38 times the added pixels
    arch = ConvNetSpec(blocks=2, channels=16, input_shape=(1, 28, 28), num_classes=10)
    ds = make_blob_split(10, 4, 1, (1, 28, 28), spread=0.2, seed=0)[0]
    peaks = []
    for ipc in (5, 50):
        cfg = tiny_cfg(ipc=ipc, n_per_class=4)
        state = init_state(ds, arch, cfg)
        outer_step(state, ds, cfg)
        tracemalloc.start()
        try:
            outer_step(state, ds, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    added = 10 * (50 - 5) * 28 * 28 * 8
    assert peaks[1] - peaks[0] < 4 * added, (peaks[1] - peaks[0]) / added


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


def test_outer_tape_is_freed_before_the_query(monkeypatch):
    # outer_step hands out floats, so no node of its tape is alive while the
    # query after it runs, nor while any inner-loop query runs
    real_query = bilevel.query_accuracy
    live = []

    def counting(*args):
        live.append(sum(1 for o in gc.get_objects()
                        if isinstance(o, Tensor) and o._backward is not None))
        return real_query(*args)

    monkeypatch.setattr(bilevel, "query_accuracy", counting)
    gc.collect()
    run_condense(tiny_data(), TINY_ARCH, tiny_cfg(max_outer_iters=4))
    assert live == [0] * 10   # 4 outer and 6 inner queries


def test_query_accuracy_random_theta_near_chance():
    ds = make_blob_split(4, 300, 1, (1, 4, 4), spread=0.2, seed=2)[0]
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
    ds = make_blob_split(3, 200, 1, (1, 4, 4), spread=0.2, seed=4)[0]
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
    run_condense(ds, TINY_ARCH, cfg, hook=lambda row: steps.append(row["lc_out"]))
    # queue fills at the 2nd outer step of each restart, div < 1e9 always
    assert max(steps) == 2


def test_run_condense_huge_lambda2_runs_inner_to_cap():
    ds = tiny_data()
    cfg = tiny_cfg(lambda1=1e9, lambda2=1e9, gamma=2, l_in=4, max_outer_iters=4)
    counts = []
    run_condense(ds, TINY_ARCH, cfg, hook=lambda row: counts.append(row["inner_steps"]))
    # inner loop runs after every non-breaking outer step, always to l_in
    deltas = np.diff([0] + counts)
    inner_runs = deltas[deltas > 0]
    assert len(inner_runs) > 0
    assert all(d == 4 for d in inner_runs)


def test_run_condense_counting_bound():
    ds = tiny_data()
    cfg = tiny_cfg(l_out=5, l_in=5, max_outer_iters=20, lambda1=1e-9, lambda2=1e9)
    rows = []
    run_condense(ds, TINY_ARCH, cfg, hook=rows.append)
    assert rows[-1]["iter"] == 20
    assert rows[-1]["iter"] + rows[-1]["inner_steps"] <= 20 * (1 + 5)


def test_run_condense_terminates_for_all_lambda_gamma_combinations(monkeypatch):
    ds = tiny_data()
    lengths = []

    class RecordingQueue(AccQueue):
        def push(self, acc):
            super().push(acc)
            lengths.append(len(self))

    monkeypatch.setattr(bilevel, "AccQueue", RecordingQueue)
    for lam1 in (1e-9, 0.05, 1e9):
        for lam2 in (1e-9, 0.05, 1e9):
            for gamma in (2, 5, 10):
                cfg = tiny_cfg(lambda1=lam1, lambda2=lam2, gamma=gamma,
                               max_outer_iters=5, l_out=3, l_in=3)
                rows, lengths[:] = [], []
                run_condense(ds, TINY_ARCH, cfg, hook=rows.append)
                assert rows[-1]["iter"] == 5
                assert rows[-1]["inner_steps"] <= 5 * 3
                assert max(lengths) <= gamma


def test_no_inner_loop_follows_the_last_outer_step(monkeypatch):
    # gamma 10 leaves every queue short of full, so no lambda break ends a
    # loop: outer steps 1 and 2 each run 3 inner steps, step 3 is l_out's
    # cap, and step 4, after the restart, is the last, so none follow it
    calls = []
    real_inner_step = bilevel.inner_step

    def counting(*args):
        calls.append(1)
        return real_inner_step(*args)

    monkeypatch.setattr(bilevel, "inner_step", counting)
    rows = []
    run_condense(tiny_data(), TINY_ARCH, tiny_cfg(gamma=10, l_out=3, l_in=3, max_outer_iters=4),
                 hook=rows.append)
    assert [row["iter"] for row in rows] == [1, 2, 3, 4]
    assert len(calls) == rows[-1]["inner_steps"] == 6


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
        losses = real_outer_step(state, real, cfg)
        if state.outer_iter == 2:
            state.synthetic.images.values[0, 0, 0, 0] = np.nan   # injected divergence
        return losses

    monkeypatch.setattr(bilevel, "outer_step", nan_outer_step)
    steps = []
    with pytest.raises(DivergenceError, match=r"^outer step 2: pixels is non-finite$"):
        run_condense(tiny_data(), TINY_ARCH, tiny_cfg(),
                     hook=lambda row: steps.append(row["iter"]))
    assert steps == [1]
