"""Train-on-synthetic evaluation protocol."""

import tracemalloc

import numpy as np
import pytest

from condensery import evaluate
from condensery.coreset import materialize, select_random
from condensery.data import make_blob_split
from condensery.errors import ConfigError
from condensery.evaluate import EvalConfig, evaluate_protocol, \
    record_training_trace, train_on_synthetic
from condensery.evaluate import test_accuracy as accuracy_on  # avoid pytest collection
from condensery.models import ConvNetSpec, MLPSpec, forward, init_params
from condensery.tensor import Tensor

ARCH = ConvNetSpec(blocks=2, channels=4, input_shape=(1, 8, 8), num_classes=3)


@pytest.fixture(scope="module")
def blob_sets():
    train, test = make_blob_split(3, 40, 40, (1, 8, 8), spread=0.15, seed=0)
    synth = materialize(train, select_random(train, 2, seed=1))
    return train, test, synth


def test_zero_epochs_returns_initialization(blob_sets):
    _, _, synth = blob_sets
    trained = train_on_synthetic(synth, ARCH, EvalConfig(epochs=0, lr=0.05), seed=3)
    reference = init_params(ARCH, seed=3)
    for a, b in zip(trained.tensors, reference.tensors):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("name, value, least", [
    ("epochs", -3, 0), ("lr", -1.0, 0), ("lr", float("nan"), 0), ("batch_size", 0, 1),
    ("batch_size", -4, 1), ("n_experiments", 0, 1), ("n_nets_per", 0, 1),
    ("seed", -1, 0)])
def test_eval_config_refuses_a_value_outside_its_range(name, value, least):
    # a negative epoch count or batch size trained nothing and reported the
    # untrained accuracy, a zero batch size raised from range(), a
    # negative rate ran gradient ascent, and a negative seed raised numpy's
    # bare ValueError from default_rng
    with pytest.raises(ConfigError, match=f"^{name} must be >= {least}, got {value!r}$"):
        EvalConfig(**{name: value})


def test_eval_config_takes_the_least_value_of_each_range():
    cfg = EvalConfig(epochs=0, lr=0.0, batch_size=1, n_experiments=1, n_nets_per=1)
    assert (cfg.epochs, cfg.lr, cfg.batch_size, cfg.n_experiments, cfg.n_nets_per) == \
        (0, 0.0, 1, 1, 1)


def test_training_fits_separable_set(blob_sets):
    train, _, synth = blob_sets
    params = train_on_synthetic(synth, ARCH, EvalConfig(epochs=150, lr=0.05), seed=4)
    synth_ds_acc = accuracy_on(params, train)
    assert synth_ds_acc > 0.9


def test_training_deterministic(blob_sets):
    _, _, synth = blob_sets
    a = train_on_synthetic(synth, ARCH, EvalConfig(epochs=5, lr=0.05), seed=5)
    b = train_on_synthetic(synth, ARCH, EvalConfig(epochs=5, lr=0.05), seed=5)
    for ta, tb in zip(a.tensors, b.tensors):
        assert np.array_equal(ta.values, tb.values)


def test_accuracy_constant_logits_tie_rule(blob_sets):
    _, test, _ = blob_sets
    params = init_params(ARCH, seed=6)
    for t in params.tensors:
        t.values[:] = 0.0
    # all logits equal -> every argmax tie resolves to class 0
    acc = accuracy_on(params, test)
    assert acc == pytest.approx(np.mean(test.labels == 0))


def test_accuracy_matches_recount_oracle(blob_sets):
    _, test, synth = blob_sets
    params = train_on_synthetic(synth, ARCH, EvalConfig(epochs=30, lr=0.05), seed=7)
    acc = accuracy_on(params, test)
    correct = 0
    for i in range(len(test)):
        logits = forward(params, Tensor(test.images[i:i + 1])).logits.values[0]
        if int(np.argmax(logits)) == test.labels[i]:
            correct += 1
    assert acc == correct / len(test)


def test_protocol_single_run_zero_std(blob_sets):
    _, test, synth = blob_sets
    cfg = EvalConfig(epochs=5, lr=0.05, n_experiments=1, n_nets_per=1, seed=8)
    rep = evaluate_protocol(synth, ARCH, test, cfg)
    assert rep.std == 0.0
    assert len(rep.accuracies) == 1


def test_protocol_mean_std_recomputable(blob_sets):
    _, test, synth = blob_sets
    cfg = EvalConfig(epochs=5, lr=0.05, n_experiments=2, n_nets_per=2, seed=9)
    rep = evaluate_protocol(synth, ARCH, test, cfg)
    arr = np.asarray(rep.accuracies)
    # spreadsheet-style oracle
    mean = arr.sum() / arr.size
    std = np.sqrt(((arr - mean) ** 2).sum() / arr.size)
    assert abs(rep.mean - mean) < 1e-12
    assert abs(rep.std - std) < 1e-12


def test_protocol_does_not_mutate_synthetic(blob_sets):
    _, test, synth = blob_sets
    before = synth.images.values.copy()
    cfg = EvalConfig(epochs=5, lr=0.05, n_experiments=1, n_nets_per=2, seed=10)
    evaluate_protocol(synth, ARCH, test, cfg)
    assert np.array_equal(synth.images.values, before)


def test_protocol_seed_determinism(blob_sets):
    _, test, synth = blob_sets
    cfg = EvalConfig(epochs=5, lr=0.05, n_experiments=1, n_nets_per=2, seed=11)
    r1 = evaluate_protocol(synth, ARCH, test, cfg)
    r2 = evaluate_protocol(synth, ARCH, test, cfg)
    assert r1.accuracies == r2.accuracies


def test_protocol_counts_are_bounded_so_no_two_networks_share_a_seed(blob_sets, monkeypatch):
    # seeds are seed * 1_000_000 + e * 1000 + j: with either count above
    # 1000, network (e=0, j=1000) would be network (e=1, j=0)
    _, test, synth = blob_sets
    seeds = []
    monkeypatch.setattr(evaluate, "train_on_synthetic", lambda *args: seeds.append(args[3]))
    monkeypatch.setattr(evaluate, "test_accuracy", lambda params, ds: 0.5)
    evaluate_protocol(synth, ARCH, test,
                      EvalConfig(epochs=1, lr=0.05, n_experiments=2, n_nets_per=1000, seed=2))
    assert sorted(seeds) == [2_000_000 + e * 1000 + j for e in range(2) for j in range(1000)]
    for name in ("n_experiments", "n_nets_per"):
        with pytest.raises(ConfigError, match=f"^{name} must be <= 1000, got 1001$"):
            EvalConfig(**{name: 1001})


def test_record_training_trace_shape(blob_sets):
    train, _, _ = blob_sets
    trace = record_training_trace(train, ARCH, EvalConfig(epochs=3, lr=0.05), seed=13)
    assert trace.shape == (3, len(train))
    assert set(np.unique(trace)).issubset({0, 1})


@pytest.mark.parametrize("field, epochs, lr", [("epochs", -3, 0.05), ("lr", 3, -1.0)])
def test_record_training_trace_refuses_a_value_outside_its_range(blob_sets, field, epochs, lr):
    # the trace takes its ranges from EvalConfig, which refuses them before
    # any array is made or any step is taken
    train, _, _ = blob_sets
    with pytest.raises(ConfigError, match=f"^{field} must be >= 0"):
        record_training_trace(train, ARCH, EvalConfig(epochs=epochs, lr=lr), seed=13)


def test_accuracy_reads_in_bounded_batches(monkeypatch):
    _, test = make_blob_split(3, 10, 200, (1, 8, 8), spread=0.15, seed=1)
    params = train_on_synthetic(materialize(test, select_random(test, 2, seed=1)), ARCH,
                                EvalConfig(epochs=10, lr=0.05), seed=14)
    sizes = []
    real_forward = evaluate.forward

    def recording(params, x):
        sizes.append(x.shape[0])
        return real_forward(params, x)
    monkeypatch.setattr(evaluate, "forward", recording)
    acc = accuracy_on(params, test)
    assert sum(sizes) == 600 and max(sizes) <= 256
    monkeypatch.undo()
    whole = np.argmax(forward(params, Tensor(test.images)).logits.values, axis=1)
    assert np.array_equal(evaluate.predict(params, test.images), whole)
    assert acc == np.mean(whole == test.labels)


@pytest.mark.parametrize("arch", [ARCH, MLPSpec(input_shape=(1, 8, 8), hidden=(6, 5), num_classes=3)])
def test_predict_forwards_constants_equal_to_a_taped_forward(monkeypatch, arch):
    # predict's forwards record no tape, and their logits equal a taped
    # forward's bit for bit
    images = np.random.default_rng(15).standard_normal((600, 1, 8, 8))
    params = init_params(arch, seed=15)
    seen = []
    real_forward = evaluate.forward

    def recording(p, x):
        pyramid = real_forward(p, x)
        seen.append(pyramid.logits)
        return pyramid
    monkeypatch.setattr(evaluate, "forward", recording)
    predicted = evaluate.predict(params, images)
    monkeypatch.undo()
    assert all((t._op, t._parents, t._backward) == ("const", (), None) for t in seen)
    taped = [forward(params, Tensor(images[s:s + evaluate.READ_BATCH])).logits
             for s in range(0, len(images), evaluate.READ_BATCH)]
    assert all(t._backward is not None for t in taped)
    taped = np.concatenate([t.values for t in taped])
    np.testing.assert_array_equal(np.concatenate([t.values for t in seen]), taped)
    np.testing.assert_array_equal(predicted, np.argmax(taped, axis=1))


def test_predict_peak_memory_does_not_grow_with_the_number_of_images():
    # read_slices frees each slice's pyramid before it forwards the next, so
    # 8 slices peak as 1 does; a reader that still held the previous slice
    # while forwarding the next would read about 1.2 here
    params = init_params(ConvNetSpec(blocks=2, channels=32, input_shape=(1, 16, 16),
                                     num_classes=3), seed=0)
    images = np.random.default_rng(0).standard_normal((8 * evaluate.READ_BATCH, 1, 16, 16))
    peaks = []
    for n in (evaluate.READ_BATCH, len(images)):
        evaluate.predict(params, images[:n])
        tracemalloc.start()
        try:
            evaluate.predict(params, images[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks[1] / peaks[0]


def test_training_step_tape_holds_no_full_size_conv_output():
    # one batch-256 step of a 2-block, 16-channel ConvNet on 1x28x28 images:
    # each block keeps its normalized conv output and its pooled output,
    # not the conv output as well. Block 0's alone would lift the peak by
    # one more conv-sized array, from about 2.1 of them to 3.1
    params = init_params(ConvNetSpec(blocks=2, channels=16, input_shape=(1, 28, 28),
                                     num_classes=10), seed=0)
    rng = np.random.default_rng(0)
    batch, labels = rng.standard_normal((256, 1, 28, 28)), rng.integers(0, 10, 256)
    evaluate.train_step(params, batch, labels, 0.01)
    conv_bytes = 256 * 16 * 28 * 28 * 8
    tracemalloc.start()
    try:
        evaluate.train_step(params, batch, labels, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * conv_bytes, peak / conv_bytes
