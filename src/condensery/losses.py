"""Condensation objective: the class-averaging matrix, layer-wise
alignment, discrimination through synthetic class centers, and the
weighted total.

Every term is a few matrix ops per layer. With the constant
class-averaging matrix A[K, B] (A[k, i] = 1/n_k when sample i has label
k, else 0), the class means at layer l are S_l = A @ F_l, one [K, C'_l]
matrix; ``bilevel.outer_step`` reads them a slice of samples at a
time. The alignment term is sum_l ||S_l - R_l||_F^2 between synthetic
and real means: squared L2 gaps summed over classes and layers, not
averaged. The last layer's synthetic mean matrix is the center matrix the
discrimination term uses to classify individual real samples by inner
product.

CondenseConfig owns beta's range and the tape ops own the operands'
shapes: ``T.sub`` and ``T.matmul`` raise DimensionError naming both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import tensor as T
from .errors import DimensionError, InputError
from .tensor import Tensor


@dataclass
class ClassMeans:
    """per_layer[l] is the [K, C'_l] class-mean matrix; row k is class k."""
    per_layer: list


def class_average(labels, num_classes: int) -> np.ndarray:
    """The [K, B] class-averaging matrix A; every class must be present."""
    onehot = np.asarray(labels, dtype=np.intp)[None, :] == np.arange(num_classes)[:, None]
    counts = onehot.sum(axis=1)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise InputError(f"class {missing[0]} has no samples in the batch")
    return onehot / counts[:, None]


def feature_alignment_loss(synth: ClassMeans, real: ClassMeans) -> Tensor:
    """Sum over layers of ||S_l - R_l||_F^2, i.e. over classes and layers of
    squared L2 gaps between mean rows. The layer counts must agree, as map
    would drop the longer side's layers; ``T.sub`` checks each layer's shape."""
    if len(synth.per_layer) != len(real.per_layer):
        raise DimensionError(
            f"class means disagree: L {len(synth.per_layer)} vs {len(real.per_layer)}")
    return reduce(T.add, [T.sum_all(T.mul(d, d))
                          for d in map(T.sub, synth.per_layer, real.per_layer)])


def discrimination_logits(real_last: Tensor, synth_centers: Tensor) -> Tensor:
    """O = real_last @ synth_centers.T; gradients flow to both operands."""
    return T.matmul(real_last, T.transpose2d(synth_centers))


def discrimination_loss(logits: Tensor, labels) -> Tensor:
    return T.softmax_cross_entropy_mean(logits, labels)


def total_loss(l_f: Tensor, l_d: Tensor, beta: float) -> Tensor:
    """l_f + beta * l_d. CondenseConfig holds beta > 0; this does not check it."""
    return T.add(l_f, T.scale(l_d, beta))
