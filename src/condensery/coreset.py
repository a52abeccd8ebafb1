"""Coreset selection baselines: random, herding, k-center, forgetting.

All selectors return exactly ipc indices per class, unique, with ties
broken deterministically by lowest dataset index. One per-class driver
refuses a class smaller than ipc and runs a selector's pick on each class
in class order, so a selector holds only its pick. Herding and k-center
measure distances between flattened pixel vectors through the expansion
||a - b||**2 = ||a||**2 - 2 a . b + ||b||**2: each row's squared norm is
taken once per class, and each greedy pick is one matvec of the class
matrix instead of a norm over it. Each row is summed by one loop in one
order, so equal rows score equal bits and tie, and the lowest index wins.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import LabeledDataset, SyntheticSet, _class_major
from .errors import InputError
from .tensor import Tensor


@dataclass
class SelectionResult:
    indices: np.ndarray      # class-major, ipc per class
    ipc: int
    num_classes: int

    def per_class(self, k: int) -> np.ndarray:
        return self.indices[k * self.ipc:(k + 1) * self.ipc]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["class", "rank", "dataset_index"])
            for k in range(self.num_classes):
                for rank, di in enumerate(self.per_class(k)):
                    w.writerow([k, rank, int(di)])


def _per_class(ds: LabeledDataset, ipc: int,
               pick: Callable[[np.ndarray], np.ndarray]) -> SelectionResult:
    """Refuse a class with fewer than ipc samples, then ``pick(idx)`` ipc of
    each class's dataset indices ``idx``, class by class in class order."""
    groups = ds.class_indices()
    for k, idx in enumerate(groups):
        if idx.size < ipc:
            raise InputError(f"class {k} has {idx.size} samples, fewer than ipc={ipc}")
    return SelectionResult(np.concatenate([pick(idx) for idx in groups]), ipc, ds.num_classes)


def select_random(ds: LabeledDataset, ipc: int, seed: int) -> SelectionResult:
    rng = np.random.default_rng(seed)
    return _per_class(ds, ipc, lambda idx: np.sort(rng.choice(idx, size=ipc, replace=False)))


def _row_dots(feats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """feats @ v, each row summed by the same loop as ``_sq_norms``: equal
    rows give equal bits, so their scores tie exactly, and a row's product
    with itself is its squared norm. BLAS's matvec sums a row in an order
    that depends on its position, and gives neither."""
    return np.einsum("ij,j->i", feats, v)


def _sq_norms(feats: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", feats, feats)


def select_herding(ds: LabeledDataset, ipc: int) -> SelectionResult:
    """Greedy herding: grow the subset whose mean best tracks the class mean.

    Pick t minimises ||mu - (running + x) / t|| over the unpicked rows x.
    Times t it is ||w - x|| with w = t * mu - running, and
    ||w - x||**2 = ||w||**2 - 2 x . w + ||x||**2, so the pick is the
    argmin of sq - 2 feats @ w with sq the rows' squared norms: one
    matvec per pick.
    """
    def pick(idx):
        feats = ds.images[idx].reshape(len(idx), -1)
        sq = _sq_norms(feats)
        mu = feats.mean(axis=0)
        chosen: list[int] = []
        running = np.zeros_like(mu)
        for t in range(1, ipc + 1):
            score = sq - 2.0 * _row_dots(feats, t * mu - running)
            score[chosen] = np.inf
            best = int(np.argmin(score))   # argmin takes the lowest index on ties
            chosen.append(best)
            running += feats[best]
        return idx[np.array(chosen)]
    return _per_class(ds, ipc, pick)


def select_kcenter(ds: LabeledDataset, ipc: int) -> SelectionResult:
    """Greedy k-center: start nearest the class mean, then farthest-point.

    Distances are squared, which keeps their order: the distance from row
    x to centre c is sq[x] + sq[c] - 2 x . c, one matvec per pick, and a
    running minimum over the centres. A row equal to a centre is exactly
    0 away from it.
    """
    def pick(idx):
        feats = ds.images[idx].reshape(len(idx), -1)
        sq = _sq_norms(feats)
        first = int(np.argmin(sq - 2.0 * _row_dots(feats, feats.mean(axis=0))))
        chosen = [first]
        mind = sq + sq[first] - 2.0 * _row_dots(feats, feats[first])
        for _ in range(1, ipc):
            mind[chosen[-1]] = -np.inf
            nxt = int(np.argmax(mind))   # argmax takes the lowest index on ties
            chosen.append(nxt)
            np.minimum(mind, sq + sq[nxt] - 2.0 * _row_dots(feats, feats[nxt]), out=mind)
        return idx[np.array(chosen)]
    return _per_class(ds, ipc, pick)


def forgetting_events(trace: np.ndarray) -> np.ndarray:
    """Count correct -> incorrect transitions per sample.

    ``trace`` is [epochs, n] of 0/1 correctness over one training run.
    """
    trace = np.asarray(trace)
    if trace.ndim != 2 or trace.shape[0] < 2:
        raise InputError("training trace needs at least 2 epochs")
    prev = trace[:-1].astype(bool)
    curr = trace[1:].astype(bool)
    return (prev & ~curr).sum(axis=0)


def select_forgetting(ds: LabeledDataset, ipc: int, training_trace: np.ndarray) -> SelectionResult:
    """Most-forgotten samples per class; ties go to the lower index."""
    events = forgetting_events(training_trace)
    if events.size != len(ds):
        raise InputError(f"trace covers {events.size} samples, dataset has {len(ds)}")
    # stable sort on negated counts keeps lowest-index-first among ties
    return _per_class(ds, ipc, lambda idx: idx[np.argsort(-events[idx], kind="stable")[:ipc]])


def materialize(ds: LabeledDataset, sel: SelectionResult) -> SyntheticSet:
    """Freeze selected real images into a synthetic-set container, class-major."""
    # fancy indexing already copies the selected rows
    return SyntheticSet(Tensor(ds.images[sel.indices]), _class_major(sel.num_classes, sel.ipc),
                        sel.ipc, sel.num_classes, ds.norm_stats)
