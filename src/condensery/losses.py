"""Condensation objective: class-wise feature averaging, layer-wise
alignment, discrimination through synthetic class centers, and the
weighted total.

Every term is a few matrix ops per layer. With the constant
class-averaging matrix A[K, B] (A[k, i] = 1/n_k when sample i has label
k, else 0), the class means at layer l are S_l = A @ F_l, one [K, C'_l]
matrix. The alignment term is sum_l ||S_l - R_l||_F^2 between synthetic
and real means: squared L2 gaps summed over classes and layers, not
averaged. The last layer's synthetic mean matrix is the center matrix the
discrimination term uses to classify individual real samples by inner
product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError, InputError
from .models import FeaturePyramid
from .tensor import Tensor


@dataclass
class ClassMeans:
    """per_layer[l] is the [K, C'_l] class-mean matrix; row k is class k."""
    per_layer: list

    @property
    def num_layers(self) -> int:
        return len(self.per_layer)


def class_average(labels, num_classes: int) -> np.ndarray:
    """The [K, B] class-averaging matrix A; every class must be present."""
    onehot = np.asarray(labels, dtype=np.intp)[None, :] == np.arange(num_classes)[:, None]
    counts = onehot.sum(axis=1)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise InputError(f"class {missing[0]} has no samples in the batch")
    return onehot / counts[:, None]


def cwfa(pyramid: FeaturePyramid, labels, num_classes: int) -> ClassMeans:
    """Per-layer, per-class arithmetic mean of flattened features. A is a
    constant, so the means are on the tape exactly when the features are."""
    avg = Tensor.constant(class_average(labels, num_classes))
    return ClassMeans([T.matmul(avg, feats) for feats in pyramid.per_layer])


def feature_alignment_loss(synth: ClassMeans, real: ClassMeans) -> Tensor:
    """Sum over layers of ||S_l - R_l||_F^2, i.e. over classes and layers of
    squared L2 gaps between mean rows."""
    if synth.num_layers != real.num_layers:
        raise DimensionError(f"class means disagree: L {synth.num_layers} vs {real.num_layers}")
    acc = None
    for l, (s, r) in enumerate(zip(synth.per_layer, real.per_layer)):
        if s.shape != r.shape:
            raise DimensionError(f"layer {l} class means disagree: {s.shape} vs {r.shape}")
        d = T.sub(s, r)
        term = T.sum_all(T.mul(d, d))
        acc = term if acc is None else T.add(acc, term)
    return acc


def discrimination_logits(real_last: Tensor, synth_centers: Tensor) -> Tensor:
    """O = real_last @ synth_centers.T; gradients flow to both operands."""
    if real_last.shape[1] != synth_centers.shape[1]:
        raise DimensionError(
            f"feature width mismatch: real {real_last.shape} vs centers {synth_centers.shape}")
    return T.matmul(real_last, T.transpose2d(synth_centers))


def discrimination_loss(logits: Tensor, labels) -> Tensor:
    return T.softmax_cross_entropy_mean(logits, labels)


def total_loss(l_f: Tensor, l_d: Tensor, beta: float) -> Tensor:
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    return T.add(l_f, T.scale(l_d, beta))
