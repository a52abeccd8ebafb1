"""Train-on-synthetic / test-on-real evaluation protocol, plus the SGD step
and the accuracy read the whole library shares.

``train_step`` is every SGD step on cross-entropy (the bi-level inner
step, evaluation training, the forgetting trace). ``predict`` is every
accuracy read (bi-level queries, the test split); it forwards constants
(``Tensor.constant``), so a read records no tape, and READ_BATCH images at
a time, so conv2d's window copies stay bounded whatever the number of
images.

Each evaluation run trains a freshly initialized network on the synthetic
images and reports held-out accuracy. The protocol repeats over
experiments x networks with derived seeds and aggregates mean and
standard deviation; independent runs may execute on worker threads
(capped by CONDENSERY_THREADS).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .data import LabeledDataset, SyntheticSet
from .errors import ConfigError, DivergenceError
from .models import ArchSpec, ModelParams, forward, init_params
from .tensor import Tensor

DESK_PROTOCOL = {"n_experiments": 3, "n_nets_per": 5, "epochs": 100}
PAPER_PROTOCOL = {"n_experiments": 5, "n_nets_per": 20, "epochs": 300}
# Images per forward in predict. At 128 or 256, conv2d's im2col copy raised
# peak RSS (condense 148 -> 165 MB, eval 144 -> 193 or 361 MB) and cpu_s did
# not fall.
READ_BATCH = 64


@dataclass
class EvalConfig:
    epochs: int = 100
    lr: float = 0.01
    batch_size: int = 256
    seed: int = 0


@dataclass
class EvalReport:
    accuracies: list
    mean: float
    std: float

    @staticmethod
    def from_runs(accs: list) -> "EvalReport":
        arr = np.asarray(accs, dtype=np.float64)
        return EvalReport(list(map(float, accs)), float(arr.mean()), float(arr.std()))


def _worker_count() -> int:
    env = os.environ.get("CONDENSERY_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(f"CONDENSERY_THREADS must be an integer, got {env!r}") from None
        if n < 1:
            raise ConfigError(f"CONDENSERY_THREADS must be >= 1, got {env!r}")
        return n
    return min(4, os.cpu_count() or 1)


def _require_finite(loop: str, step: int, **quantities) -> None:
    """Raise DivergenceError naming the first quantity that holds a NaN or
    Inf; each value is a float, an array or a list of arrays."""
    for name, value in quantities.items():
        if not all(np.isfinite(a).all() for a in (value if isinstance(value, list) else [value])):
            raise DivergenceError(f"{loop} step {step}: {name} is non-finite")


def train_step(params: ModelParams, images: np.ndarray, labels: np.ndarray,
               lr: float) -> tuple[float, np.ndarray]:
    """One SGD step on the mean cross-entropy of ``images``, which enter as
    a constant; returns the loss and the logits, both computed before the
    update. Only values leave, so the step's tape is freed on return,
    before the caller's next step."""
    logits = forward(params, Tensor.constant(images)).logits
    loss = T.softmax_cross_entropy_mean(logits, labels)
    T.backward(loss)
    T.sgd_step(params.tensors, lr)
    return loss.item(), logits.values


def predict(params: ModelParams, images: np.ndarray) -> np.ndarray:
    """Argmax class of each image, READ_BATCH images per forward; ties go to
    the lowest class. The weights and images enter as constants, so the
    forwards record no tape."""
    consts = params.constants()
    return np.concatenate([
        np.argmax(forward(consts, Tensor.constant(images[s:s + READ_BATCH])).logits.values, axis=1)
        for s in range(0, len(images), READ_BATCH)])


def _sgd_fit(arch_spec: ArchSpec, images: np.ndarray, labels: np.ndarray, epochs: int,
             lr: float, seed: int, batch_size: int,
             trace: Optional[np.ndarray] = None) -> ModelParams:
    """Minibatch SGD on cross-entropy from a fresh init; batches are shuffled
    each epoch only when there is more than one. ``trace[e, i]`` records
    whether sample i was classified correctly in epoch e, before its step.
    Raises DivergenceError at the first step whose loss or weights hold a
    NaN or Inf."""
    params = init_params(arch_spec, seed)
    n = len(labels)
    rng = np.random.default_rng(seed + 1)
    step = 0
    for e in range(epochs):
        order = rng.permutation(n) if n > batch_size else np.arange(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, logits = train_step(params, images[idx], labels[idx], lr)
            step += 1
            _require_finite("training", step, loss=loss,
                            weights=[p.values for p in params.tensors])
            if trace is not None:
                trace[e, idx] = np.argmax(logits, axis=1) == labels[idx]
    return params


def train_on_synthetic(synth: SyntheticSet, arch_spec: ArchSpec, epochs: int,
                       lr: float, seed: int, batch_size: int = 256) -> ModelParams:
    """SGD on cross-entropy over the synthetic images; fresh init per seed."""
    return _sgd_fit(arch_spec, synth.images.values, synth.labels, epochs, lr, seed,
                    batch_size)


def test_accuracy(params: ModelParams, test_ds: LabeledDataset) -> float:
    """Argmax accuracy on the held-out split; ties go to the lowest class."""
    return float(np.mean(predict(params, test_ds.images) == test_ds.labels))


def evaluate_protocol(synth: SyntheticSet, arch_spec: ArchSpec, test_ds: LabeledDataset,
                      n_experiments: int, n_nets_per: int, cfg: EvalConfig) -> EvalReport:
    """Train n_experiments x n_nets_per fresh networks, aggregate mean/std."""
    seeds = [cfg.seed * 1_000_000 + e * 1000 + j
             for e in range(n_experiments) for j in range(n_nets_per)]

    def one(seed: int) -> float:
        params = train_on_synthetic(synth, arch_spec, cfg.epochs, cfg.lr, seed,
                                    cfg.batch_size)
        return test_accuracy(params, test_ds)

    # the pool starts a thread only when a task finds none idle, so one
    # seed or CONDENSERY_THREADS=1 runs on a single worker
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        accs = list(pool.map(one, seeds))
    return EvalReport.from_runs(accs)


def record_training_trace(ds: LabeledDataset, arch_spec: ArchSpec, epochs: int,
                          lr: float, seed: int) -> np.ndarray:
    """Per-sample correctness over one real-data training run ([epochs, n])
    in batches of 256.

    Feeds the forgetting-events selector.
    """
    trace = np.zeros((epochs, len(ds)), dtype=np.uint8)
    _sgd_fit(arch_spec, ds.images, ds.labels, epochs, lr, seed, 256, trace)
    return trace
