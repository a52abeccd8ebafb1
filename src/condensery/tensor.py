"""Reverse-mode autodiff on dense float64 numpy arrays.

Every operation records its inputs and a backward closure on the produced
tensor; ``backward()`` on a scalar root walks the graph in reverse
topological order, hands each node's closure that node's accumulated
gradient, and accumulates gradients additively into the parents, so
fan-out is handled correctly. A closure receives the upstream gradient as
its argument and never references the tensor it belongs to, so a tape
holds no reference cycle and is freed by refcounting as soon as its last
tensor goes out of scope. Only the primitives needed by the condensation
networks and losses are provided; there is no broadcasting beyond what
they need.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionError, InputError, UsageError


class Tensor:
    """Dense float64 array plus an optional gradient accumulator.

    Tensors produced by ops carry references to their parents and a
    backward closure that maps this tensor's gradient into the parents'
    ``grad``; leaf tensors (parameters, inputs) carry neither.
    """

    __slots__ = ("values", "grad", "_parents", "_backward", "_op")

    def __init__(self, values, _parents: tuple = (), _backward: Optional[Callable[[np.ndarray], None]] = None, _op: str = ""):
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

    def zero_grad(self) -> None:
        self.grad = None

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        self.grad += g

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


def backward(root: Tensor) -> None:
    """Populate ``grad`` for every tensor reachable from a scalar root."""
    if root.values.size != 1:
        raise UsageError(f"backward root must be scalar, got shape {root.shape}")
    order = _topo_order(root)
    root.grad = np.ones_like(root.values)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


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
        a._accum(g)
        b._accum(g)

    return Tensor(a.values + b.values, (a, b), _bw, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub: {a.shape} vs {b.shape}")

    def _bw(g):
        a._accum(g)
        b._accum(-g)

    return Tensor(a.values - b.values, (a, b), _bw, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: {a.shape} vs {b.shape}")

    def _bw(g):
        a._accum(g * b.values)
        b._accum(g * a.values)

    return Tensor(a.values * b.values, (a, b), _bw, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def _bw(g):
        a._accum(g * c)

    return Tensor(a.values * c, (a,), _bw, "scale")


def sum_all(a: Tensor) -> Tensor:

    def _bw(g):
        a._accum(np.full_like(a.values, g))

    return Tensor(a.values.sum(), (a,), _bw, "sum_all")


def reshape(a: Tensor, shape: tuple) -> Tensor:

    def _bw(g):
        a._accum(g.reshape(a.values.shape))

    return Tensor(a.values.reshape(shape), (a,), _bw, "reshape")


def take_rows(a: Tensor, idx) -> Tensor:
    """Select rows along axis 0 by integer index array."""
    idx = np.asarray(idx, dtype=np.intp)

    def _bw(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.values)
        np.add.at(a.grad, idx, g)

    return Tensor(a.values[idx], (a,), _bw, "take_rows")


def transpose2d(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise DimensionError(f"transpose2d needs a matrix, got {a.shape}")

    def _bw(g):
        a._accum(g.T)

    return Tensor(a.values.T.copy(), (a,), _bw, "transpose2d")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: {a.shape} @ {b.shape}")

    def _bw(g):
        a._accum(g @ b.values.T)
        b._accum(a.values.T @ g)

    return Tensor(a.values @ b.values, (a, b), _bw, "matmul")


# ---------------------------------------------------------------------------
# network primitives


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0.0

    def _bw(g):
        a._accum(g * mask)

    return Tensor(np.where(mask, a.values, 0.0), (a,), _bw, "relu")


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x[B,D] @ weight[D,K] + bias[K]."""
    if x.values.ndim != 2 or weight.values.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise DimensionError(f"linear: input {x.shape}, weight {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise DimensionError(f"linear: bias {bias.shape} vs K={weight.shape[1]}")

    def _bw(g):
        x._accum(g @ weight.values.T)
        weight._accum(x.values.T @ g)
        bias._accum(g.sum(axis=0))

    return Tensor(x.values @ weight.values + bias.values, (x, weight, bias), _bw, "linear")


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation with zero padding.

    x[B,C,H,W], kernel[O,C,kh,kw], bias[O] -> [B,O,H',W'] with
    H' = (H + 2*pad - kh)//stride + 1.
    """
    if x.values.ndim != 4 or kernel.values.ndim != 4:
        raise DimensionError(f"conv2d: input {x.shape}, kernel {kernel.shape}")
    B, C, H, W = x.shape
    O, Ck, kh, kw = kernel.shape
    if Ck != C:
        raise DimensionError(f"conv2d: kernel expects {Ck} channels, input has {C}")
    if bias.shape != (O,):
        raise DimensionError(f"conv2d: bias {bias.shape} vs {O} output channels")
    if stride < 1:
        raise DimensionError(f"conv2d: stride must be >= 1, got {stride}")
    if H + 2 * pad < kh or W + 2 * pad < kw:
        raise DimensionError(f"conv2d: kernel {kh}x{kw} larger than padded input {H + 2 * pad}x{W + 2 * pad}")

    Ho = (H + 2 * pad - kh) // stride + 1
    Wo = (W + 2 * pad - kw) // stride + 1
    xp = np.pad(x.values, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.values
    kv = kernel.values

    out_v = np.empty((B, O, Ho, Wo))
    out_v[:] = bias.values[None, :, None, None]
    # One GEMM per kernel offset keeps memory flat (no full im2col buffer).
    for i in range(kh):
        for j in range(kw):
            sl = xp[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride]
            out_v += np.einsum("bchw,oc->bohw", sl, kv[:, :, i, j], optimize=True)

    def _bw(g):
        bias._accum(g.sum(axis=(0, 2, 3)))
        gxp = np.zeros_like(xp)
        if kernel.grad is None:
            kernel.grad = np.zeros_like(kv)
        for i in range(kh):
            for j in range(kw):
                sl = xp[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride]
                kernel.grad[:, :, i, j] += np.einsum("bohw,bchw->oc", g, sl, optimize=True)
                gxp[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride] += np.einsum(
                    "bohw,oc->bchw", g, kv[:, :, i, j], optimize=True)
        x._accum(gxp[:, :, pad:pad + H, pad:pad + W] if pad else gxp)

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
        x._accum((g - gm - y * gym) * inv)

    return Tensor(y, (x,), _bw, "instance_norm2d")


def avg_pool2d(x: Tensor, k: int, stride: Optional[int] = None) -> Tensor:
    """Mean over k x k windows; ragged pooling is rejected."""
    if x.values.ndim != 4:
        raise DimensionError(f"avg_pool2d: expected [B,C,H,W], got {x.shape}")
    if stride is None:
        stride = k
    B, C, H, W = x.shape
    if H < k or W < k or (H - k) % stride or (W - k) % stride:
        raise DimensionError(f"avg_pool2d: window {k}/stride {stride} does not tile {H}x{W}")
    Ho = (H - k) // stride + 1
    Wo = (W - k) // stride + 1
    if k == stride:
        v = x.values.reshape(B, C, Ho, k, Wo, k).mean(axis=(3, 5))
    else:
        v = np.zeros((B, C, Ho, Wo))
        for i in range(k):
            for j in range(k):
                v += x.values[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride]
        v /= k * k

    def _bw(g):
        g = g / (k * k)
        if x.grad is None:
            x.grad = np.zeros_like(x.values)
        for i in range(k):
            for j in range(k):
                x.grad[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride] += g

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
        logits._accum(p * (float(g) / B))

    return Tensor(loss, (logits,), _bw, "softmax_cross_entropy_mean")
