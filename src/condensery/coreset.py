"""Coreset selection baselines: random, herding, k-center, forgetting.

All selectors return exactly ipc indices per class, unique, with ties
broken deterministically by lowest dataset index. Herding and k-center
work in an embedding space; the default embedding is the raw flattened
pixels.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .data import LabeledDataset, SyntheticSet
from .errors import InputError
from .tensor import Tensor

Embed = Callable[[np.ndarray], np.ndarray]


@dataclass
class SelectionResult:
    indices: np.ndarray      # class-major, ipc per class
    method: str
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


def _flatten_embed(images: np.ndarray) -> np.ndarray:
    return images.reshape(images.shape[0], -1)


def _check_class_sizes(ds: LabeledDataset, ipc: int) -> list:
    groups = ds.class_indices()
    for k, idx in enumerate(groups):
        if idx.size < ipc:
            raise InputError(f"class {k} has {idx.size} samples, fewer than ipc={ipc}")
    return groups


def select_random(ds: LabeledDataset, ipc: int, seed: int) -> SelectionResult:
    rng = np.random.default_rng(seed)
    groups = _check_class_sizes(ds, ipc)
    picks = [np.sort(rng.choice(idx, size=ipc, replace=False)) for idx in groups]
    return SelectionResult(np.concatenate(picks), "random", ipc, ds.num_classes)


def select_herding(ds: LabeledDataset, ipc: int, embed: Optional[Embed] = None) -> SelectionResult:
    """Greedy herding: grow the subset whose mean best tracks the class mean."""
    embed = embed or _flatten_embed
    groups = _check_class_sizes(ds, ipc)
    picks = []
    for idx in groups:
        feats = embed(ds.images[idx])
        mu = feats.mean(axis=0)
        chosen: list[int] = []
        running = np.zeros_like(mu)
        avail = np.ones(len(idx), dtype=bool)
        for t in range(1, ipc + 1):
            # candidate subset mean if x joins: (running + x) / t
            gaps = np.linalg.norm(mu[None, :] - (running[None, :] + feats) / t, axis=1)
            gaps[~avail] = np.inf
            best = int(np.argmin(gaps))   # argmin takes the lowest index on ties
            chosen.append(best)
            avail[best] = False
            running += feats[best]
        picks.append(idx[np.array(chosen)])
    return SelectionResult(np.concatenate(picks), "herding", ipc, ds.num_classes)


def select_kcenter(ds: LabeledDataset, ipc: int, embed: Optional[Embed] = None) -> SelectionResult:
    """Greedy k-center: start nearest the class mean, then farthest-point."""
    embed = embed or _flatten_embed
    groups = _check_class_sizes(ds, ipc)
    picks = []
    for idx in groups:
        feats = embed(ds.images[idx])
        mu = feats.mean(axis=0)
        first = int(np.argmin(np.linalg.norm(feats - mu, axis=1)))
        chosen = [first]
        mind = np.linalg.norm(feats - feats[first], axis=1)
        for _ in range(1, ipc):
            mind[chosen] = -np.inf
            nxt = int(np.argmax(mind))
            chosen.append(nxt)
            mind = np.minimum(mind, np.linalg.norm(feats - feats[nxt], axis=1))
        picks.append(idx[np.array(chosen)])
    return SelectionResult(np.concatenate(picks), "kcenter", ipc, ds.num_classes)


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
    groups = _check_class_sizes(ds, ipc)
    picks = []
    for idx in groups:
        # stable sort on negated counts keeps lowest-index-first among ties
        order = np.argsort(-events[idx], kind="stable")[:ipc]
        picks.append(idx[order])
    return SelectionResult(np.concatenate(picks), "forgetting", ipc, ds.num_classes)


def materialize(ds: LabeledDataset, sel: SelectionResult) -> SyntheticSet:
    """Freeze selected real images into a synthetic-set container, class-major."""
    images = ds.images[sel.indices]
    labels = np.repeat(np.arange(sel.num_classes), sel.ipc)
    return SyntheticSet(Tensor(images.copy()), labels, sel.ipc, sel.num_classes, ds.norm_stats)
