"""Reverse-mode autodiff on dense float64 numpy arrays.

Every operation records its inputs (``_parents``) and a backward closure
``_bw(g, need)``: given the output's gradient ``g`` and one bool per
parent, it returns a tuple with one entry per parent, the gradient where
``need`` is true and possibly ``None`` elsewhere (as PyTorch's
``needs_input_grad``). A closure never writes a ``grad`` and never
references its own output, so a tape holds no reference cycle and
refcounting frees it as soon as its last tensor goes out of scope.
``backward(root, wrt)`` walks, in reverse topological order, only the
nodes that depend on a leaf in ``wrt``, asks each for the gradients of
its parents that do too, keeps each intermediate gradient until its node
is walked, and assigns ``grad`` on the tensors in ``wrt`` alone. Only the
primitives needed by the condensation networks and losses are provided,
in the forms those use: ``conv2d`` moves its kernel one pixel at a time,
``avg_pool2d`` pools non-overlapping windows, and there is no
broadcasting beyond what they need.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, InputError, UsageError


class Tensor:
    """Dense float64 array plus the gradient ``backward`` last assigned.

    Tensors produced by ops carry references to their parents and a
    backward closure ``_bw(g, need)`` that maps this tensor's gradient to a
    tuple of the parents' gradients, computing only those ``need`` marks;
    leaf tensors (parameters, inputs) carry neither.
    """

    __slots__ = ("values", "grad", "_parents", "_backward", "_op")

    def __init__(self, values, _parents: tuple = (),
                 _backward: Optional[Callable[[np.ndarray, tuple], tuple]] = None, _op: str = ""):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._backward = _backward
        self._op = _op

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise UsageError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op!r})"


def _topo_order(root: Tensor) -> list:
    order: list = []
    seen: set = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order


def backward(root: Tensor, wrt: Sequence[Tensor]) -> None:
    """Assign ``t.grad`` = d root / d t for each leaf ``t`` in ``wrt``;
    ``None`` where the scalar root does not depend on ``t``. Gradients are
    read-only: ``add`` hands one array to both of its parents."""
    if root.values.size != 1:
        raise UsageError(f"backward root must be scalar, got shape {root.shape}")
    for t in wrt:
        if t._parents:
            raise UsageError(f"backward wrt must hold leaf tensors, got a {t._op!r} output")
    order = _topo_order(root)
    live = {id(t) for t in wrt}
    for node in order:
        if any(id(p) in live for p in node._parents):
            live.add(id(node))
    grads = {id(root): np.ones_like(root.values)}
    for node in reversed(order):
        if node._backward is None or id(node) not in live:
            continue
        need = tuple(id(p) in live for p in node._parents)
        for p, wanted, gp in zip(node._parents, need, node._backward(grads.pop(id(node)), need)):
            if wanted:
                prev = grads.get(id(p))
                grads[id(p)] = gp if prev is None else prev + gp
    for t in wrt:
        t.grad = grads.get(id(t))


def sgd_step(params: Sequence[Tensor], lr: float) -> None:
    """In-place SGD update ``values -= lr * grad``; grads are zeroed after."""
    for p in params:
        if p.grad is None:
            raise UsageError("sgd_step on tensor without gradient")
    for p in params:
        p.values -= lr * p.grad
        p.grad = None


# ---------------------------------------------------------------------------
# elementwise / reduction primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: {a.shape} vs {b.shape}")

    def _bw(g, need):
        return g, g

    return Tensor(a.values + b.values, (a, b), _bw, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub: {a.shape} vs {b.shape}")

    def _bw(g, need):
        return g, -g if need[1] else None

    return Tensor(a.values - b.values, (a, b), _bw, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: {a.shape} vs {b.shape}")

    def _bw(g, need):
        return g * b.values if need[0] else None, g * a.values if need[1] else None

    return Tensor(a.values * b.values, (a, b), _bw, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def _bw(g, need):
        return (g * c,)

    return Tensor(a.values * c, (a,), _bw, "scale")


def sum_all(a: Tensor) -> Tensor:

    def _bw(g, need):
        return (np.full_like(a.values, g),)

    return Tensor(a.values.sum(), (a,), _bw, "sum_all")


def reshape(a: Tensor, shape: tuple) -> Tensor:

    def _bw(g, need):
        return (g.reshape(a.values.shape),)

    return Tensor(a.values.reshape(shape), (a,), _bw, "reshape")


def take_rows(a: Tensor, idx) -> Tensor:
    """Select rows along axis 0 by integer index array."""
    idx = np.asarray(idx, dtype=np.intp)

    def _bw(g, need):
        ga = np.zeros_like(a.values)
        np.add.at(ga, idx, g)
        return (ga,)

    return Tensor(a.values[idx], (a,), _bw, "take_rows")


def transpose2d(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise DimensionError(f"transpose2d needs a matrix, got {a.shape}")

    def _bw(g, need):
        return (g.T,)

    return Tensor(a.values.T.copy(), (a,), _bw, "transpose2d")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: {a.shape} @ {b.shape}")

    def _bw(g, need):
        return g @ b.values.T if need[0] else None, a.values.T @ g if need[1] else None

    return Tensor(a.values @ b.values, (a, b), _bw, "matmul")


# ---------------------------------------------------------------------------
# network primitives


def relu(a: Tensor) -> Tensor:

    def _bw(g, need):
        return (g * (a.values > 0.0),)

    return Tensor(np.maximum(a.values, 0.0), (a,), _bw, "relu")


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x[B,D] @ weight[D,K] + bias[K]."""
    if x.values.ndim != 2 or weight.values.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise DimensionError(f"linear: input {x.shape}, weight {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise DimensionError(f"linear: bias {bias.shape} vs K={weight.shape[1]}")

    def _bw(g, need):
        return (g @ weight.values.T if need[0] else None,
                x.values.T @ g if need[1] else None,
                g.sum(axis=0) if need[2] else None)

    return Tensor(x.values @ weight.values + bias.values, (x, weight, bias), _bw, "linear")


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, *, pad: int = 0) -> Tensor:
    """2-D cross-correlation with zero padding; the kernel moves one pixel
    at a time.

    x[B,C,H,W], kernel[O,C,kh,kw], bias[O] -> [B,O,H',W'] with
    H' = H + 2*pad - kh + 1.
    """
    if x.values.ndim != 4 or kernel.values.ndim != 4:
        raise DimensionError(f"conv2d: input {x.shape}, kernel {kernel.shape}")
    B, C, H, W = x.shape
    O, Ck, kh, kw = kernel.shape
    if Ck != C:
        raise DimensionError(f"conv2d: kernel expects {Ck} channels, input has {C}")
    if bias.shape != (O,):
        raise DimensionError(f"conv2d: bias {bias.shape} vs {O} output channels")
    if H + 2 * pad < kh or W + 2 * pad < kw:
        raise DimensionError(f"conv2d: kernel {kh}x{kw} larger than padded input {H + 2 * pad}x{W + 2 * pad}")

    xp = np.pad(x.values, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.values
    kv = kernel.values
    # windows[b, c, h, w, i, j] = xp[b, c, h + i, w + j]: a strided view, so
    # each direction is one GEMM over the (c, i, j) or (b, h, w) axes
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    out_v = np.add(np.tensordot(kv, windows, axes=((1, 2, 3), (1, 4, 5))).transpose(1, 0, 2, 3),
                   bias.values[:, None, None], order="C")

    def _bw(g, need):
        gx = gk = None
        if need[0]:
            # full correlation of g with the flipped kernel, cropped to the
            # unpadded input: pad g by k-1, then skip the first `pad` rows
            # and columns; unlike padding by k-1-pad, this holds for pad >= k
            gp = np.pad(g, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
            gwin = sliding_window_view(gp[:, :, pad:pad + H + kh - 1, pad:pad + W + kw - 1],
                                       (kh, kw), axis=(2, 3))
            gx = np.ascontiguousarray(np.tensordot(
                kv[:, :, ::-1, ::-1], gwin, axes=((0, 2, 3), (1, 4, 5))).transpose(1, 0, 2, 3))
        if need[1]:
            gk = np.tensordot(g, windows, axes=((0, 2, 3), (0, 2, 3)))
        return gx, gk, g.sum(axis=(0, 2, 3)) if need[2] else None

    return Tensor(out_v, (x, kernel, bias), _bw, "conv2d")


def instance_norm2d(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-(sample, channel) normalization over the spatial plane.

    Population variance, no learned affine parameters.
    """
    if x.values.ndim != 4:
        raise DimensionError(f"instance_norm2d: expected [B,C,H,W], got {x.shape}")
    mu = x.values.mean(axis=(2, 3), keepdims=True)
    var = x.values.var(axis=(2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.values - mu) * inv

    def _bw(g, need):
        gm = g.mean(axis=(2, 3), keepdims=True)
        gym = (g * y).mean(axis=(2, 3), keepdims=True)
        return ((g - gm - y * gym) * inv,)

    return Tensor(y, (x,), _bw, "instance_norm2d")


def avg_pool2d(x: Tensor, k: int) -> Tensor:
    """Mean over non-overlapping k x k windows; ragged pooling is rejected."""
    if x.values.ndim != 4:
        raise DimensionError(f"avg_pool2d: expected [B,C,H,W], got {x.shape}")
    B, C, H, W = x.shape
    if k < 1 or H < k or W < k or H % k or W % k:
        raise DimensionError(f"avg_pool2d: window {k} does not tile {H}x{W}")
    Ho, Wo = H // k, W // k
    # k*k strided adds: a mean over the strided window axes runs 5x slower
    v = np.zeros((B, C, Ho, Wo))
    for i in range(k):
        for j in range(k):
            v += x.values[:, :, i::k, j::k]
    v *= 1.0 / (k * k)

    def _bw(g, need):
        gw = np.broadcast_to((g / (k * k))[:, :, :, None, :, None], (B, C, Ho, k, Wo, k))
        return (gw.reshape(B, C, H, W),)

    return Tensor(v, (x,), _bw, "avg_pool2d")


def softmax_cross_entropy_mean(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true class.

    Stabilized by per-row max subtraction.
    """
    if logits.values.ndim != 2:
        raise DimensionError(f"softmax_cross_entropy_mean: expected [B,K], got {logits.shape}")
    labels = np.asarray(labels, dtype=np.intp)
    B, K = logits.shape
    if labels.shape != (B,):
        raise InputError(f"labels length {labels.shape} vs batch {B}")
    if labels.size and (labels.min() < 0 or labels.max() >= K):
        raise InputError(f"label out of range [0, {K})")
    z = logits.values - logits.values.max(axis=1, keepdims=True)
    ez = np.exp(z)
    lse = np.log(ez.sum(axis=1, keepdims=True))
    logp = z - lse
    loss = -logp[np.arange(B), labels].mean()

    def _bw(g, need):
        p = ez / ez.sum(axis=1, keepdims=True)
        p[np.arange(B), labels] -= 1.0
        return (p * (float(g) / B),)

    return Tensor(loss, (logits,), _bw, "softmax_cross_entropy_mean")
