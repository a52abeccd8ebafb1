"""Reverse-mode autodiff on dense float64 numpy arrays.

Every operation records its inputs (``_parents``) and a backward closure
``_bw(g, need)``: given the output's gradient ``g`` and one bool per
parent, it returns a tuple with one entry per parent, the gradient where
``need`` is true and possibly ``None`` elsewhere (as PyTorch's
``needs_input_grad``). A closure never writes a ``grad`` and never
references its own output, so a tape holds no reference cycle and
refcounting frees it as soon as its last tensor goes out of scope.

One rule says which leaves get a gradient: every leaf but a constant
(``Tensor.constant``), such as an image batch or weights that are only
read. ``backward(root)`` walks the tape in reverse topological order,
asks each node for the gradients of its non-constant parents, keeps each
intermediate gradient until its node is walked, and assigns ``grad`` on
every non-constant leaf the root reaches. Every op returns through
``_node``: when all its parents are constants, the output is a constant
too, with no parents and no closure, so a forward from constants records
no tape and frees each intermediate as soon as the next op has read it.
A leaf made with ``Tensor(values)`` is not a constant.

Only the primitives needed by the condensation networks and losses are
provided, in the forms those use: ``conv2d`` moves its kernel one pixel at
a time, ``norm_relu_pool`` is a ConvNet block's norm, ReLU and 2x2 pool as
one node, and there is no broadcasting beyond what they need. Those two
ConvNet kernels fill their full-size outputs ``CHUNK`` samples at a time,
forward and backward, so each pass over a chunk stays in cache; a batch
of at most ``CHUNK`` samples is one chunk, and any batch gives the bits
one pass over it would, save the kernel gradient of a conv2d with one
input and one output channel.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, InputError, UsageError

# Samples per pass inside conv2d and norm_relu_pool: at the ConvNet's
# 16-channel width a chunk's activations and im2col copy stay near a 2 MiB
# L2 cache, and a synthetic set of up to 16 images is one chunk. 32 ran
# slower on batch-256 training; 8 ran faster there, but split the 10-image
# training batches of an ipc-1 evaluation in two, which cost it 12%.
CHUNK = 16


class Tensor:
    """Dense float64 array plus the gradient ``backward`` last assigned.

    Tensors produced by ops carry references to their parents and a
    backward closure ``_bw(g, need)`` that maps this tensor's gradient to a
    tuple of the parents' gradients, computing only those ``need`` marks;
    leaf tensors (parameters, inputs) carry neither. ``Tensor.constant``
    marks a tensor ``_op == "const"``: ops on constants alone return
    constants, and ``backward`` gives a constant no gradient.
    """

    __slots__ = ("values", "grad", "_parents", "_backward", "_op")

    def __init__(self, values, _parents: tuple = (),
                 _backward: Optional[Callable[[np.ndarray, tuple], tuple]] = None, _op: str = ""):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._backward = _backward
        self._op = _op

    @classmethod
    def constant(cls, values) -> "Tensor":
        """A tensor that never needs a gradient; shares ``values`` when they
        are already a float64 array, so ops must not write into it."""
        return cls(values, _op="const")

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


def backward(root: Tensor) -> None:
    """Assign ``t.grad`` = d root / d t on every non-constant leaf ``t``
    the scalar root reaches; other tensors keep their ``grad``. Gradients
    are read-only: ``add`` hands one array to both of its parents."""
    if root.values.size != 1:
        raise UsageError(f"backward root must be scalar, got shape {root.shape}")
    grads = {id(root): np.ones_like(root.values)}
    for node in reversed(_topo_order(root)):
        if node._op == "const":
            continue
        if not node._parents:
            node.grad = grads.pop(id(node))
            continue
        need = tuple(p._op != "const" for p in node._parents)
        # no local holds the popped gradient, so it is freed as soon as
        # the closure returns, before the parents' gradients are summed
        for p, wanted, gp in zip(node._parents, need, node._backward(grads.pop(id(node)), need)):
            if wanted:
                prev = grads.get(id(p))
                grads[id(p)] = gp if prev is None else prev + gp


def sgd_step(params: Sequence[Tensor], lr: float) -> None:
    """In-place SGD update ``values -= lr * grad``; grads are zeroed after."""
    for p in params:
        if p.grad is None:
            raise UsageError("sgd_step on tensor without gradient")
    for p in params:
        p.values -= lr * p.grad
        p.grad = None


def _node(values, parents: tuple, bw: Callable[[np.ndarray, tuple], tuple], op: str) -> Tensor:
    """An op's output: a constant when every parent is one, and the closure
    ``bw`` is dropped with whatever it holds; otherwise a tape node."""
    if all(p._op == "const" for p in parents):
        return Tensor.constant(values)
    return Tensor(values, parents, bw, op)


# ---------------------------------------------------------------------------
# elementwise / reduction primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: {a.shape} vs {b.shape}")

    def _bw(g, need):
        return g, g

    return _node(a.values + b.values, (a, b), _bw, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub: {a.shape} vs {b.shape}")

    def _bw(g, need):
        return g, -g if need[1] else None

    return _node(a.values - b.values, (a, b), _bw, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: {a.shape} vs {b.shape}")

    def _bw(g, need):
        return g * b.values if need[0] else None, g * a.values if need[1] else None

    return _node(a.values * b.values, (a, b), _bw, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def _bw(g, need):
        return (g * c,)

    return _node(a.values * c, (a,), _bw, "scale")


def sum_all(a: Tensor) -> Tensor:

    def _bw(g, need):
        return (np.full_like(a.values, g),)

    return _node(a.values.sum(), (a,), _bw, "sum_all")


def reshape(a: Tensor, shape: tuple) -> Tensor:

    def _bw(g, need):
        return (g.reshape(a.values.shape),)

    return _node(a.values.reshape(shape), (a,), _bw, "reshape")


def transpose2d(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise DimensionError(f"transpose2d needs a matrix, got {a.shape}")

    def _bw(g, need):
        return (g.T,)

    return _node(a.values.T.copy(), (a,), _bw, "transpose2d")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: {a.shape} @ {b.shape}")

    def _bw(g, need):
        return g @ b.values.T if need[0] else None, a.values.T @ g if need[1] else None

    return _node(a.values @ b.values, (a, b), _bw, "matmul")


# ---------------------------------------------------------------------------
# network primitives


def relu(a: Tensor) -> Tensor:

    def _bw(g, need):
        return (g * (a.values > 0.0),)

    return _node(np.maximum(a.values, 0.0), (a,), _bw, "relu")


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

    return _node(x.values @ weight.values + bias.values, (x, weight, bias), _bw, "linear")


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
    if not isinstance(pad, (int, np.integer)) or pad < 0:
        raise DimensionError(f"conv2d: pad must be a non-negative integer, got {pad!r}")
    if H + 2 * pad < kh or W + 2 * pad < kw:
        raise DimensionError(f"conv2d: kernel {kh}x{kw} larger than padded input {H + 2 * pad}x{W + 2 * pad}")

    xp = np.pad(x.values, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.values
    kv = kernel.values
    # windows[b, c, h, w, i, j] = xp[b, c, h + i, w + j], a strided view.
    # The forward copies a chunk of it into cols[b, (c, i, j), (h, w)], and
    # one GEMM per sample leaves the output in [B, O, H', W'] order with no
    # transposing copy
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    Ho, Wo = windows.shape[2:4]
    out_v = np.empty((B, O, Ho * Wo))
    for s in range(0, B, CHUNK):
        cols = windows[s:s + CHUNK].transpose(0, 1, 4, 5, 2, 3).reshape(-1, C * kh * kw, Ho * Wo)
        np.matmul(kv.reshape(O, -1), cols, out=out_v[s:s + CHUNK])
        out_v[s:s + CHUNK] += bias.values[:, None]
    out_v = out_v.reshape(B, O, Ho, Wo)
    Hp, Wp = xp.shape[2:]

    def _bw(g, need):
        # The backward keeps xp, not the window view, and makes no window
        # copy: in the flattened padded plane, output pixel (h, w) reads
        # xp at h*Wp + w + off for tap (i, j), with off = i*Wp + j. So g,
        # laid out on Wp columns (the last Wp - Wo of them zero) and cut to
        # its first n positions, meets each tap's slice of xp in one GEMM;
        # the last tap's slice ends at Hp*Wp exactly
        n = (Ho - 1) * Wp + Wo
        xf = xp.reshape(B, C, Hp * Wp)
        # kt[i, j] is the contiguous [C, O] slice that BLAS takes
        kt = np.ascontiguousarray(kv.transpose(2, 3, 1, 0))
        gx = np.empty((B, C, H, W)) if need[0] else None
        gk = np.zeros((O, C, kh, kw)) if need[1] else None
        for s in range(0, B, CHUNK):
            c = min(CHUNK, B - s)
            gw = np.zeros((c, O, Ho, Wp))
            gw[:, :, :, :Wo] = g[s:s + c]
            gw = gw.reshape(c, O, Ho * Wp)[:, :, :n]
            if need[0]:
                gxf = np.zeros((c, C, Hp * Wp))
                tap = np.empty((c, C, n))
                for i in range(kh):
                    for j in range(kw):
                        off = i * Wp + j
                        gxf[:, :, off:off + n] += np.matmul(kt[i, j], gw, out=tap)
                gx[s:s + c] = gxf.reshape(c, C, Hp, Wp)[:, :, pad:pad + H, pad:pad + W]
            if need[1]:
                for i in range(kh):
                    for j in range(kw):
                        off = i * Wp + j
                        part = np.matmul(gw, xf[s:s + c, :, off:off + n].transpose(0, 2, 1))
                        # the running sum enters as the chunk's first row, so
                        # the sum over samples keeps numpy's axis-0 order; a
                        # kernel with one input and one output channel is
                        # the exception: numpy sums its lone axis pairwise
                        if s:
                            part[0] += gk[:, :, i, j]
                        gk[:, :, i, j] = part.sum(0)
        return gx, gk, g.sum(axis=(0, 2, 3)) if need[2] else None

    return _node(out_v, (x, kernel, bias), _bw, "conv2d")


def norm_relu_pool(x: Tensor) -> Tensor:
    """A ConvNet block after its conv: instance norm over each (sample,
    channel) plane (population variance, eps 1e-5, no affine), ReLU, then
    the mean over non-overlapping 2x2 windows. The pool floors, as
    PyTorch's ``AvgPool2d``: an odd last row or column is normalized with
    its plane but pooled into nothing.
    """
    if x.values.ndim != 4:
        raise DimensionError(f"norm_relu_pool: expected [B,C,H,W], got {x.shape}")
    B, C, H, W = x.shape
    if H < 2 or W < 2:
        raise DimensionError(f"norm_relu_pool: plane {H}x{W} is smaller than the 2x2 window")
    Ho, Wo = H // 2, W // 2
    # offset (i, j) of every window as a strided view: four strided adds,
    # as a mean over the strided window axes runs 5x slower
    windows = [np.s_[:, :, i:2 * Ho:2, j:2 * Wo:2] for i in (0, 1) for j in (0, 1)]
    y = np.empty((B, C, H, W))
    inv = np.empty((B, C, 1, 1))
    v = np.zeros((B, C, Ho, Wo))
    for s in range(0, B, CHUNK):
        # one mean, one centred copy, its sum of squares, then the copy
        # scaled in place: np.var would take the mean and centre again
        xs, ys, vs = x.values[s:s + CHUNK], y[s:s + CHUNK], v[s:s + CHUNK]
        np.subtract(xs, xs.mean(axis=(2, 3), keepdims=True), out=ys)
        ss = np.einsum("bchw,bchw->bc", ys, ys)
        inv[s:s + CHUNK] = (1.0 / np.sqrt(ss / (H * W) + 1e-5))[:, :, None, None]
        ys *= inv[s:s + CHUNK]
        for w in windows:
            vs += np.maximum(ys[w], 0.0)
        vs *= 0.25

    def _bw(g, need):
        # g / 4 onto each window position where y > 0, then the norm's
        # (gy - mean(gy) - y * mean(gy * y)) * inv: einsum sums gy * y
        # without a full-size product, and the terms land in place
        gx = np.empty((B, C, H, W))
        for s in range(0, B, CHUNK):
            ys, gxs, invs = y[s:s + CHUNK], gx[s:s + CHUNK], inv[s:s + CHUNK]
            gy = np.zeros(ys.shape)
            g4 = g[s:s + CHUNK] * 0.25
            for w in windows:
                np.multiply(g4, ys[w] > 0.0, out=gy[w])
            gm = (gy.sum(axis=(2, 3)) / (H * W))[:, :, None, None]
            gym = (np.einsum("bchw,bchw->bc", gy, ys) / (H * W))[:, :, None, None]
            np.multiply(ys, -gym, out=gxs)
            gxs += gy
            gxs -= gm
            gxs *= invs
        return (gx,)

    return _node(v, (x,), _bw, "norm_relu_pool")


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

    return _node(loss, (logits,), _bw, "softmax_cross_entropy_mean")
