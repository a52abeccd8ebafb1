"""Train-on-synthetic evaluation protocol."""

import numpy as np
import pytest

from condensery import evaluate
from condensery.coreset import materialize, select_random
from condensery.data import make_blob_split
from condensery.evaluate import EvalConfig, evaluate_protocol, \
    record_training_trace, train_on_synthetic
from condensery.evaluate import test_accuracy as accuracy_on  # avoid pytest collection
from condensery.models import ConvNetSpec, forward, init_params
from condensery.tensor import Tensor

ARCH = ConvNetSpec(blocks=2, channels=4, input_shape=(1, 8, 8), num_classes=3)


@pytest.fixture(scope="module")
def blob_sets():
    train, test = make_blob_split(3, 40, 40, (1, 8, 8), spread=0.15, seed=0)
    synth = materialize(train, select_random(train, 2, seed=1))
    return train, test, synth


def test_zero_epochs_returns_initialization(blob_sets):
    _, _, synth = blob_sets
    trained = train_on_synthetic(synth, ARCH, epochs=0, lr=0.05, seed=3)
    reference = init_params(ARCH, seed=3)
    for a, b in zip(trained.tensors, reference.tensors):
        assert np.array_equal(a.values, b.values)


def test_training_fits_separable_set(blob_sets):
    train, _, synth = blob_sets
    params = train_on_synthetic(synth, ARCH, epochs=150, lr=0.05, seed=4)
    synth_ds_acc = accuracy_on(params, train)
    assert synth_ds_acc > 0.9


def test_training_deterministic(blob_sets):
    _, _, synth = blob_sets
    a = train_on_synthetic(synth, ARCH, epochs=5, lr=0.05, seed=5)
    b = train_on_synthetic(synth, ARCH, epochs=5, lr=0.05, seed=5)
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
    params = train_on_synthetic(synth, ARCH, epochs=30, lr=0.05, seed=7)
    acc = accuracy_on(params, test)
    correct = 0
    for i in range(len(test)):
        logits = forward(params, Tensor(test.images[i:i + 1])).logits.values[0]
        if int(np.argmax(logits)) == test.labels[i]:
            correct += 1
    assert acc == correct / len(test)


def test_protocol_single_run_zero_std(blob_sets):
    _, test, synth = blob_sets
    rep = evaluate_protocol(synth, ARCH, test, 1, 1, EvalConfig(epochs=5, lr=0.05, seed=8))
    assert rep.std == 0.0
    assert len(rep.accuracies) == 1


def test_protocol_mean_std_recomputable(blob_sets):
    _, test, synth = blob_sets
    rep = evaluate_protocol(synth, ARCH, test, 2, 2, EvalConfig(epochs=5, lr=0.05, seed=9))
    arr = np.asarray(rep.accuracies)
    # spreadsheet-style oracle
    mean = arr.sum() / arr.size
    std = np.sqrt(((arr - mean) ** 2).sum() / arr.size)
    assert abs(rep.mean - mean) < 1e-12
    assert abs(rep.std - std) < 1e-12


def test_protocol_does_not_mutate_synthetic(blob_sets):
    _, test, synth = blob_sets
    before = synth.images.values.copy()
    evaluate_protocol(synth, ARCH, test, 1, 2, EvalConfig(epochs=5, lr=0.05, seed=10))
    assert np.array_equal(synth.images.values, before)


def test_protocol_seed_determinism(blob_sets):
    _, test, synth = blob_sets
    cfg = EvalConfig(epochs=5, lr=0.05, seed=11)
    r1 = evaluate_protocol(synth, ARCH, test, 1, 2, cfg)
    r2 = evaluate_protocol(synth, ARCH, test, 1, 2, cfg)
    assert r1.accuracies == r2.accuracies


def test_record_training_trace_shape(blob_sets):
    train, _, _ = blob_sets
    trace = record_training_trace(train, ARCH, epochs=3, lr=0.05, seed=13)
    assert trace.shape == (3, len(train))
    assert set(np.unique(trace)).issubset({0, 1})


def test_accuracy_reads_in_bounded_batches(monkeypatch):
    _, test = make_blob_split(3, 10, 200, (1, 8, 8), spread=0.15, seed=1)
    params = train_on_synthetic(materialize(test, select_random(test, 2, seed=1)), ARCH,
                                epochs=10, lr=0.05, seed=14)
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
