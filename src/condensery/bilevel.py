"""Dynamic bi-level optimization of the synthetic set.

Outer steps update synthetic pixels against the alignment + discrimination
objective; inner steps fit the network to the current synthetic set with
cross-entropy. Bounded accuracy queues over a real query set decide when
to break each loop: the outer loop breaks once accuracy has stopped moving
(spread below lambda1), the inner loop once it has moved enough (spread
above lambda2). Unconditional loop caps guarantee termination.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import tensor as T
from . import evaluate
from .data import LabeledDataset, SyntheticSet, new_synthetic
from .errors import ConfigError, InputError, UsageError
from .losses import ClassMeans, class_average, cwfa, discrimination_logits, discrimination_loss, \
    feature_alignment_loss, total_loss
from .models import ArchSpec, ModelParams, forward, init_params
from .tensor import Tensor


@dataclass
class CondenseConfig:
    ipc: int = 1
    n_per_class: int = 256          # real batch size per class
    beta: float = 1.0
    lambda1: float = 0.05
    lambda2: float = 0.05
    gamma: int = 10                 # queue capacity
    l_out: int = 10                 # outer loop cap
    l_in: int = 50                  # inner loop cap
    outer_lr: float = 0.1
    outer_lr_milestones: tuple = (1200, 1400, 1800)
    max_outer_iters: int = 2000
    inner_lr: float = 0.01
    query_size: int = 1024
    seed: int = 0

    def __post_init__(self):
        # each message starts with the field's name; cli.load_config
        # prefixes it with "condense.". Each rule names the range a value
        # must be in, so a NaN, which fails every comparison, is refused
        for name in ("lambda1", "lambda2", "beta"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        for name, least in (("ipc", 1), ("n_per_class", 1), ("query_size", 1), ("gamma", 2),
                            ("l_out", 1), ("l_in", 1), ("max_outer_iters", 0),
                            ("outer_lr", 0), ("inner_lr", 0), ("seed", 0)):
            if not getattr(self, name) >= least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)!r}")


class AccQueue(deque):
    """Bounded FIFO of query-set accuracies; a push on a full queue drops the
    oldest entry."""

    def __init__(self, capacity: int):
        super().__init__(maxlen=capacity)

    @property
    def full(self) -> bool:
        return len(self) == self.maxlen

    def push(self, acc: float) -> None:
        self.append(float(acc))

    def div(self) -> float:
        if not self:
            raise UsageError("div() on empty queue")
        return max(self) - min(self)


@dataclass
class CondenseState:
    synthetic: SyntheticSet
    theta: ModelParams
    outer_iter: int
    rng: np.random.Generator


def outer_lr_at(cfg: CondenseConfig, outer_iter: int) -> float:
    """Learning rate halves at each milestone iteration (global count)."""
    halvings = sum(1 for m in cfg.outer_lr_milestones if m <= outer_iter)
    return cfg.outer_lr * (0.5 ** halvings)


def sample_class_balanced(ds: LabeledDataset, per_class: int, rng: np.random.Generator) -> np.ndarray:
    """per_class indices from each class, without replacement when possible."""
    return np.concatenate([rng.choice(idx, size=per_class, replace=idx.size < per_class)
                           for idx in ds.class_indices()])


def init_state(real: LabeledDataset, arch: ArchSpec, cfg: CondenseConfig) -> CondenseState:
    rng = np.random.default_rng(cfg.seed)
    synth = new_synthetic(real.num_classes, cfg.ipc, real.image_shape, rng, real.norm_stats)
    theta = init_params(arch, seed=int(rng.integers(2 ** 31)))
    return CondenseState(synth, theta, 0, rng)


def outer_step(state: CondenseState, real: LabeledDataset,
               cfg: CondenseConfig) -> tuple[float, float, float]:
    """One synthetic-pixel update at the scheduled learning rate; returns
    l_f, l_d and the total, computed before the update. Only values leave,
    so the step's tape is freed on return, before the caller's query."""
    K = real.num_classes
    real_idx = sample_class_balanced(real, cfg.n_per_class, state.rng)
    real_labels = real.labels[real_idx]
    synth = state.synthetic
    # only the pixels are trained; read_slices reads the real batch without a
    # tape, and each slice adds A[:, s:s+b] @ F to sums and leaves its last tap
    avg, sums = class_average(real_labels, K), []

    def take(s, pyr):
        parts = [avg[:, s:s + len(f.values)] @ f.values for f in pyr.per_layer]
        sums[:] = [a + b for a, b in zip(sums, parts)] if sums else parts
        return pyr.per_layer[-1].values
    real_last = np.concatenate(evaluate.read_slices(state.theta, real.images[real_idx], take))
    synth_means = cwfa(forward(state.theta.constants(), synth.images), synth.labels, K)
    l_f = feature_alignment_loss(synth_means, ClassMeans(list(map(Tensor.constant, sums))))
    logits = discrimination_logits(Tensor.constant(real_last), synth_means.per_layer[-1])
    l_d = discrimination_loss(logits, real_labels)
    total = total_loss(l_f, l_d, cfg.beta)

    T.backward(total)
    T.sgd_step([synth.images], outer_lr_at(cfg, state.outer_iter))

    state.outer_iter += 1
    return l_f.item(), l_d.item(), total.item()


def inner_step(state: CondenseState, cfg: CondenseConfig) -> float:
    """One SGD step fitting the network to the whole synthetic set
    (``evaluate.train_step`` at ``inner_lr``); returns the loss before the
    step."""
    synth = state.synthetic
    if len(synth.labels) == 0:
        raise InputError("synthetic set is empty")
    return evaluate.train_step(state.theta, synth.images.values, synth.labels, cfg.inner_lr)[0]


def query_accuracy(theta: ModelParams, real: LabeledDataset, cfg: CondenseConfig,
                   rng: np.random.Generator) -> float:
    """Accuracy on a class-balanced random query set, read in batches by
    ``evaluate.predict``; argmax ties go to the lowest class index."""
    idx = sample_class_balanced(real, max(1, cfg.query_size // real.num_classes), rng)
    return float(np.mean(evaluate.predict(theta, real.images[idx]) == real.labels[idx]))


def run_condense(real: LabeledDataset, arch: ArchSpec, cfg: CondenseConfig,
                 hook: Optional[Callable] = None) -> SyntheticSet:
    """Full dynamic bi-level loop; returns the learned synthetic set.

    ``hook(row)``, if given, gets one dict per outer iteration, after its
    query: ``iter``, ``l_f``, ``l_d``, ``total``, ``query_acc``, ``lc_out``
    (steps since the restart), ``lr`` and ``inner_steps`` (run so far). No
    inner loop follows the last outer step. Raises DivergenceError at the
    first outer step whose losses or pixels, or inner step whose loss or
    weights, hold a NaN or Inf.
    """
    state = init_state(real, arch, cfg)
    inner_steps = 0
    while state.outer_iter < cfg.max_outer_iters:
        # restart: fresh network, empty outer queue and count
        state.theta = init_params(arch, seed=int(state.rng.integers(2 ** 31)))
        q_out = AccQueue(cfg.gamma)
        for lc_out in range(1, cfg.l_out + 1):
            lr = outer_lr_at(cfg, state.outer_iter)
            l_f, l_d, total = outer_step(state, real, cfg)
            evaluate._require_finite("outer", state.outer_iter, l_f=l_f, l_d=l_d, total=total,
                                     pixels=state.synthetic.images.values)
            acc = query_accuracy(state.theta, real, cfg, state.rng)
            q_out.push(acc)
            if hook is not None:
                hook({"iter": state.outer_iter, "l_f": l_f, "l_d": l_d, "total": total,
                      "query_acc": acc, "lc_out": lc_out, "lr": lr, "inner_steps": inner_steps})
            if (q_out.full and q_out.div() < cfg.lambda1) or lc_out == cfg.l_out \
                    or state.outer_iter == cfg.max_outer_iters:
                break
            # inner loop: fit the network until its accuracy moves, at
            # most l_in steps
            q_in = AccQueue(cfg.gamma)
            for _ in range(cfg.l_in):
                loss = inner_step(state, cfg)
                inner_steps += 1
                evaluate._require_finite("inner", inner_steps, loss=loss,
                                         theta=[p.values for p in state.theta.tensors])
                q_in.push(query_accuracy(state.theta, real, cfg, state.rng))
                if q_in.full and q_in.div() > cfg.lambda2:
                    break
    return state.synthetic
