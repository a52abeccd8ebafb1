"""Reverse-mode autodiff on dense float64 numpy arrays.

Every operation records its inputs (``_parents``) and a backward closure
that maps the output's gradient to a tuple with one gradient per parent.
A closure never writes a ``grad`` and never references its own output, so
a tape holds no reference cycle and refcounting frees it as soon as its
last tensor goes out of scope. ``backward(root, wrt)`` walks, in reverse
topological order, only the nodes that depend on a leaf in ``wrt``, keeps
each intermediate gradient until its node is walked, and assigns ``grad``
on the tensors in ``wrt`` alone. Only the primitives needed by the
condensation networks and losses are provided, in the forms those use:
``conv2d`` moves its kernel one pixel at a time, ``avg_pool2d`` pools
non-overlapping windows, and there is no broadcasting beyond what they
need.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionError, InputError, UsageError


class Tensor:
    """Dense float64 array plus the gradient ``backward`` last assigned.

    Tensors produced by ops carry references to their parents and a
    backward closure that maps this tensor's gradient to a tuple of the
    parents' gradients; leaf tensors (parameters, inputs) carry neither.
    """

    __slots__ = ("values", "grad", "_parents", "_backward", "_op")

    def __init__(self, values, _parents: tuple = (), _backward: Optional[Callable[[np.ndarray], tuple]] = None, _op: str = ""):
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
        for p, gp in zip(node._parents, node._backward(grads.pop(id(node)))):
            if id(p) in live:
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

    def _bw(g):
        return g, g

    return Tensor(a.values + b.values, (a, b), _bw, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub: {a.shape} vs {b.shape}")

    def _bw(g):
        return g, -g

    return Tensor(a.values - b.values, (a, b), _bw, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: {a.shape} vs {b.shape}")

    def _bw(g):
        return g * b.values, g * a.values

    return Tensor(a.values * b.values, (a, b), _bw, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def _bw(g):
        return (g * c,)

    return Tensor(a.values * c, (a,), _bw, "scale")


def sum_all(a: Tensor) -> Tensor:

    def _bw(g):
        return (np.full_like(a.values, g),)

    return Tensor(a.values.sum(), (a,), _bw, "sum_all")


def reshape(a: Tensor, shape: tuple) -> Tensor:

    def _bw(g):
        return (g.reshape(a.values.shape),)

    return Tensor(a.values.reshape(shape), (a,), _bw, "reshape")


def take_rows(a: Tensor, idx) -> Tensor:
    """Select rows along axis 0 by integer index array."""
    idx = np.asarray(idx, dtype=np.intp)

    def _bw(g):
        ga = np.zeros_like(a.values)
        np.add.at(ga, idx, g)
        return (ga,)

    return Tensor(a.values[idx], (a,), _bw, "take_rows")


def transpose2d(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise DimensionError(f"transpose2d needs a matrix, got {a.shape}")

    def _bw(g):
        return (g.T,)

    return Tensor(a.values.T.copy(), (a,), _bw, "transpose2d")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: {a.shape} @ {b.shape}")

    def _bw(g):
        return g @ b.values.T, a.values.T @ g

    return Tensor(a.values @ b.values, (a, b), _bw, "matmul")


# ---------------------------------------------------------------------------
# network primitives


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0.0

    def _bw(g):
        return (g * mask,)

    return Tensor(np.where(mask, a.values, 0.0), (a,), _bw, "relu")


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x[B,D] @ weight[D,K] + bias[K]."""
    if x.values.ndim != 2 or weight.values.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise DimensionError(f"linear: input {x.shape}, weight {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise DimensionError(f"linear: bias {bias.shape} vs K={weight.shape[1]}")

    def _bw(g):
        return g @ weight.values.T, x.values.T @ g, g.sum(axis=0)

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

    Ho = H + 2 * pad - kh + 1
    Wo = W + 2 * pad - kw + 1
    xp = np.pad(x.values, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.values
    kv = kernel.values

    out_v = np.empty((B, O, Ho, Wo))
    out_v[:] = bias.values[None, :, None, None]
    # One GEMM per kernel offset keeps memory flat (no full im2col buffer).
    for i in range(kh):
        for j in range(kw):
            sl = xp[:, :, i:i + Ho, j:j + Wo]
            out_v += np.einsum("bchw,oc->bohw", sl, kv[:, :, i, j], optimize=True)

    def _bw(g):
        gxp = np.zeros_like(xp)
        gk = np.zeros_like(kv)
        for i in range(kh):
            for j in range(kw):
                sl = xp[:, :, i:i + Ho, j:j + Wo]
                gk[:, :, i, j] += np.einsum("bohw,bchw->oc", g, sl, optimize=True)
                gxp[:, :, i:i + Ho, j:j + Wo] += np.einsum(
                    "bohw,oc->bchw", g, kv[:, :, i, j], optimize=True)
        return gxp[:, :, pad:pad + H, pad:pad + W] if pad else gxp, gk, g.sum(axis=(0, 2, 3))

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

    def _bw(g):
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
    v = x.values.reshape(B, C, Ho, k, Wo, k).mean(axis=(3, 5))

    def _bw(g):
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

    def _bw(g):
        p = ez / ez.sum(axis=1, keepdims=True)
        p[np.arange(B), labels] -= 1.0
        return (p * (float(g) / B),)

    return Tensor(loss, (logits,), _bw, "softmax_cross_entropy_mean")
