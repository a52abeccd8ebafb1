"""Dynamic bi-level optimization of the synthetic set.

Outer steps update synthetic pixels against the alignment + discrimination
objective; inner steps fit the network to the current synthetic set with
cross-entropy. Bounded accuracy queues over a real query set decide when
to break each loop: the outer loop breaks once accuracy has stopped moving
(spread below lambda1), the inner loop once it has moved enough (spread
above lambda2). Unconditional loop caps guarantee termination.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import tensor as T
from . import evaluate
from .data import LabeledDataset, SyntheticSet, new_synthetic
from .errors import ConfigError, InputError, UsageError
from .losses import LossBreakdown, cwfa, discrimination_logits, discrimination_loss, \
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
        # prefixes it with "condense."
        for name in ("lambda1", "lambda2", "beta"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.gamma < 2:
            raise ConfigError("gamma must be >= 2")
        if self.ipc < 1:
            raise ConfigError("ipc must be >= 1")


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
    q_out: AccQueue
    q_in: AccQueue
    lc_out: int
    lc_in: int
    outer_iter: int
    rng: np.random.Generator
    # instrumentation for the counting harness
    total_outer_steps: int = 0
    total_inner_steps: int = 0
    max_queue_len: int = 0
    outer_lr: float = 0.0   # learning rate of the latest outer step


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
    return CondenseState(synth, theta, AccQueue(cfg.gamma), AccQueue(cfg.gamma),
                         0, 0, 0, rng)


def outer_step(state: CondenseState, real: LabeledDataset, cfg: CondenseConfig) -> LossBreakdown:
    """One synthetic-pixel update at the scheduled learning rate."""
    K = real.num_classes
    real_idx = sample_class_balanced(real, cfg.n_per_class, state.rng)
    # only the pixels are trained: the weights enter both branches as
    # constants, so the real branch records no tape at all
    theta = state.theta.constants()
    real_labels = real.labels[real_idx]
    synth = state.synthetic

    real_pyr = forward(theta, Tensor.constant(real.images[real_idx]))
    synth_pyr = forward(theta, synth.images)
    real_means = cwfa(real_pyr, real_labels, K)
    synth_means = cwfa(synth_pyr, synth.labels, K)
    l_f = feature_alignment_loss(synth_means, real_means)
    logits = discrimination_logits(real_pyr.per_layer[-1], synth_means.per_layer[-1])
    l_d = discrimination_loss(logits, real_labels)
    breakdown = total_loss(l_f, l_d, cfg.beta)

    T.backward(breakdown.total)
    state.outer_lr = outer_lr_at(cfg, state.outer_iter)
    T.sgd_step([synth.images], state.outer_lr)

    state.lc_out += 1
    state.outer_iter += 1
    state.total_outer_steps += 1
    return breakdown


def inner_step(state: CondenseState, cfg: CondenseConfig) -> float:
    """One SGD step fitting the network to the whole synthetic set
    (``evaluate.train_step`` at ``inner_lr``); returns the loss before the
    step."""
    synth = state.synthetic
    if len(synth.labels) == 0:
        raise InputError("synthetic set is empty")
    loss, _ = evaluate.train_step(state.theta, synth.images.values, synth.labels, cfg.inner_lr)
    state.lc_in += 1
    state.total_inner_steps += 1
    return loss


def query_accuracy(theta: ModelParams, real: LabeledDataset, cfg: CondenseConfig,
                   rng: np.random.Generator) -> float:
    """Accuracy on a class-balanced random query set, read in batches by
    ``evaluate.predict``; argmax ties go to the lowest class index."""
    idx = sample_class_balanced(real, max(1, cfg.query_size // real.num_classes), rng)
    return float(np.mean(evaluate.predict(theta, real.images[idx]) == real.labels[idx]))


MetricsHook = Callable[[CondenseState, LossBreakdown, float], None]


def run_condense(real: LabeledDataset, arch: ArchSpec, cfg: CondenseConfig,
                 metrics_path=None, hook: Optional[MetricsHook] = None) -> SyntheticSet:
    """Full dynamic bi-level loop; returns the learned synthetic set.

    The metrics CSV stream gets one row per outer iteration:
    iter, l_f, l_d, total, query_acc, lc_out, lc_in, lr. Raises
    DivergenceError at the first outer step whose losses or pixels, or inner
    step whose loss or weights, hold a NaN or Inf.
    """
    state = init_state(real, arch, cfg)
    writer = None
    fh = None
    if metrics_path is not None:
        fh = open(metrics_path, "w", newline="", encoding="utf-8")
        writer = csv.writer(fh)
        writer.writerow(["iter", "l_f", "l_d", "total", "query_acc", "lc_out", "lc_in", "lr"])
    try:
        while state.outer_iter < cfg.max_outer_iters:
            # restart: fresh network, empty queues, zeroed counters
            state.theta = init_params(arch, seed=int(state.rng.integers(2 ** 31)))
            state.q_out.clear()
            state.q_in.clear()
            state.lc_out = 0
            state.lc_in = 0
            while state.outer_iter < cfg.max_outer_iters:
                breakdown = outer_step(state, real, cfg)
                lf, ld, tot = breakdown.as_floats()
                evaluate._require_finite("outer", state.total_outer_steps, l_f=lf, l_d=ld,
                                         total=tot, pixels=state.synthetic.images.values)
                acc = query_accuracy(state.theta, real, cfg, state.rng)
                state.q_out.push(acc)
                state.max_queue_len = max(state.max_queue_len, len(state.q_out))
                if writer is not None:
                    writer.writerow([state.outer_iter, repr(lf), repr(ld), repr(tot),
                                     repr(acc), state.lc_out, state.lc_in,
                                     repr(state.outer_lr)])
                if hook is not None:
                    hook(state, breakdown, acc)
                del breakdown   # frees the step's tape before the inner loop runs
                if (state.q_out.full and state.q_out.div() < cfg.lambda1) \
                        or state.lc_out >= cfg.l_out:
                    break   # the next restart resets lc_out and q_out
                # inner loop: fit the network until its accuracy moves
                while True:
                    loss = inner_step(state, cfg)
                    evaluate._require_finite("inner", state.total_inner_steps, loss=loss,
                                             theta=[p.values for p in state.theta.tensors])
                    acc_in = query_accuracy(state.theta, real, cfg, state.rng)
                    state.q_in.push(acc_in)
                    state.max_queue_len = max(state.max_queue_len, len(state.q_in))
                    if (state.q_in.full and state.q_in.div() > cfg.lambda2) \
                            or state.lc_in >= cfg.l_in:
                        state.lc_in = 0
                        state.q_in.clear()
                        break
    finally:
        if fh is not None:
            fh.close()
    return state.synthetic
