"""Train-on-synthetic / test-on-real evaluation protocol, plus the SGD step
and the constant read the whole library shares.

``train_step`` is every SGD step on cross-entropy (the bi-level inner
step, evaluation training, the forgetting trace). ``read_slices`` is every
tape-free read: ``predict``'s (bi-level queries, the test split) and the
outer step's, of its real batch and of the synthetic set. It forwards
constants READ_BATCH images at a time, so a read's activations stay
bounded whatever the number of images.

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
from typing import Callable, Optional

import numpy as np

from . import tensor as T
from .data import LabeledDataset, SyntheticSet
from .errors import ConfigError, DivergenceError
from .models import ArchSpec, ModelParams, forward, init_params
from .tensor import Tensor

# Images per forward in read_slices, and per taped forward of the outer
# step's synthetic slices; it bounds the activations a read or a slice
# holds (conv_block bounds its window copies). A multiple of tensor.CHUNK,
# so slices split no chunk.
READ_BATCH = 64


@dataclass
class EvalConfig:
    epochs: int = 100
    lr: float = 0.01
    batch_size: int = 256
    n_experiments: int = 3
    n_nets_per: int = 5             # networks per experiment
    seed: int = 0

    def __post_init__(self):
        # each message starts with the field's name; cli.load_config
        # prefixes it with "eval." or, for the forgetting trace's epochs and
        # lr, "coreset.trace_". Each rule is a range, so a NaN is refused
        for name, least in (("epochs", 0), ("lr", 0), ("batch_size", 1), ("n_experiments", 1),
                            ("n_nets_per", 1), ("seed", 0)):
            if not getattr(self, name) >= least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)!r}")
        # network seeds are seed * 1_000_000 + e * 1000 + j, so with a count
        # above 1000 network (e=0, j=1000) would be network (e=1, j=0)
        for name in ("n_experiments", "n_nets_per"):
            if getattr(self, name) > 1000:
                raise ConfigError(f"{name} must be <= 1000, got {getattr(self, name)}")


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


def read_slices(params: ModelParams, images: np.ndarray, take: Callable) -> list:
    """``[take(s, forward(images[s:s + READ_BATCH])) for s ...]``, through
    the weights' constants, so no tape is recorded; each slice's pyramid is
    freed when its ``take`` returns, before the next slice is forwarded."""
    consts = params.constants()
    return [take(s, forward(consts, Tensor.constant(images[s:s + READ_BATCH])))
            for s in range(0, len(images), READ_BATCH)]


def predict(params: ModelParams, images: np.ndarray) -> np.ndarray:
    """Argmax class of each image; ties go to the lowest class."""
    return np.concatenate(read_slices(params, images,
                                      lambda s, pyr: np.argmax(pyr.logits.values, axis=1)))


def _sgd_fit(arch_spec: ArchSpec, images: np.ndarray, labels: np.ndarray, cfg: EvalConfig,
             seed: int, record: bool = False) -> tuple[ModelParams, Optional[np.ndarray]]:
    """Minibatch SGD on cross-entropy from a fresh init, for ``cfg``'s
    epochs at its lr in batches of its batch_size; batches are shuffled
    each epoch only when there is more than one. With ``record``, the trace
    returned beside the weights holds at ``[e, i]`` whether sample i was
    classified correctly in epoch e, before its step. Raises
    DivergenceError at the first step whose loss or weights hold a NaN or
    Inf."""
    params = init_params(arch_spec, seed)
    n = len(labels)
    trace = np.zeros((cfg.epochs, n), dtype=np.uint8) if record else None
    rng = np.random.default_rng(seed + 1)
    step = 0
    for e in range(cfg.epochs):
        order = rng.permutation(n) if n > cfg.batch_size else np.arange(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, logits = train_step(params, images[idx], labels[idx], cfg.lr)
            step += 1
            _require_finite("training", step, loss=loss,
                            weights=[p.values for p in params.tensors])
            if trace is not None:
                trace[e, idx] = np.argmax(logits, axis=1) == labels[idx]
    return params, trace


def train_on_synthetic(synth: SyntheticSet, arch_spec: ArchSpec, cfg: EvalConfig,
                       seed: int) -> ModelParams:
    """SGD on cross-entropy over the synthetic images; fresh init per seed."""
    return _sgd_fit(arch_spec, synth.images.values, synth.labels, cfg, seed)[0]


def test_accuracy(params: ModelParams, test_ds: LabeledDataset) -> float:
    """Argmax accuracy on the held-out split; ties go to the lowest class."""
    return float(np.mean(predict(params, test_ds.images) == test_ds.labels))


def evaluate_protocol(synth: SyntheticSet, arch_spec: ArchSpec, test_ds: LabeledDataset,
                      cfg: EvalConfig) -> EvalReport:
    """Train cfg.n_experiments x cfg.n_nets_per fresh networks, aggregate
    mean/std."""
    seeds = [cfg.seed * 1_000_000 + e * 1000 + j
             for e in range(cfg.n_experiments) for j in range(cfg.n_nets_per)]

    def one(seed: int) -> float:
        return test_accuracy(train_on_synthetic(synth, arch_spec, cfg, seed), test_ds)

    # the pool starts a thread only when a task finds none idle, so one
    # seed or CONDENSERY_THREADS=1 runs on a single worker
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        accs = list(pool.map(one, seeds))
    return EvalReport.from_runs(accs)


def record_training_trace(ds: LabeledDataset, arch_spec: ArchSpec, cfg: EvalConfig,
                          seed: int) -> np.ndarray:
    """Per-sample correctness over one real-data training run
    ([cfg.epochs, n]). Feeds the forgetting-events selector."""
    return _sgd_fit(arch_spec, ds.images, ds.labels, cfg, seed, record=True)[1]
