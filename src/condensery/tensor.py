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
provided, in the forms those use: ``conv_block`` is a whole ConvNet block
(3x3 conv with padding 1 and no bias, instance norm, ReLU and 2x2 pool) as
one node, and there is no broadcasting beyond what they need. The block
works through a batch ``CHUNK`` samples at a time, forward and backward,
so each pass over a chunk stays in cache. It centres its conv output in
place and scales only the pooled output by the norm's inverse deviation.
A taped block keeps its ReLU mask as bools, one byte a pixel, and only a
block whose input is taped also keeps its float64 centred planes, for the
norm's backward. Any other block, a read from constants included, reuses
one chunk's conv buffer. The output and the input gradient
of any batch have the bits one pass over it would; so has the kernel
gradient of a taped input, save on a block with one input and one output
channel. A constant input, such as the images under the first block of
every training step, takes its kernel gradient from moments of each
sample's centred im2col columns instead: no norm gradient plane and no
per-tap GEMM. It is the same sum in another order, within 1e-13 of the
largest entry of the taps' kernel gradient.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, InputError, UsageError

# Samples per pass inside conv_block: at the ConvNet's 16-channel width a
# chunk's activations and im2col copy stay near a 2 MiB L2 cache, and a
# synthetic set of up to 16 images is one chunk. 32 ran slower on
# batch-256 training; 8 ran faster there, but split the 10-image training
# batches of an ipc-1 evaluation in two, which cost it 12%.
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
    """In-place SGD update ``values -= lr * grad``; each grad is then set to None."""
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


def conv_block(x: Tensor, kernel: Tensor) -> Tensor:
    """One ConvNet block as one node: a 3x3 cross-correlation with stride
    1, zero padding 1 and no bias (the norm would cancel one), then
    instance norm over each (sample, channel) plane (population variance,
    eps 1e-5, no affine), ReLU, and the mean over non-overlapping 2x2
    windows. The norm's scale is positive, so it is applied after both.

    x[B,C,H,W], kernel[O,C,3,3] -> [B,O,H//2,W//2]. The pool floors, as
    PyTorch's ``AvgPool2d``: an odd last row or column is normalized with
    its plane but pooled into nothing.

    A taped block keeps its ReLU mask, a bool [B,O,H,W], and the backward
    spreads the output gradient onto it. With the input taped, the block
    also keeps its centred conv output; the backward runs the norm's
    backward over each plane and meets it with the kernel's and the input's
    nine taps. With the input a constant the block keeps no conv output.
    Only the kernel gradient is asked for, and it comes from per-sample
    products of the masked gradient and of the kernel with the centred
    im2col columns; the forward and the input gradient keep their bits.
    """
    if x.values.ndim != 4:
        raise DimensionError(f"conv_block: expected [B,C,H,W], got {x.shape}")
    B, C, H, W = x.shape
    if kernel.values.ndim != 4 or kernel.shape[1:] != (C, 3, 3):
        raise DimensionError(f"conv_block: kernel {kernel.shape} is not [O,{C},3,3] for input {x.shape}")
    if H < 2 or W < 2:
        raise DimensionError(f"conv_block: plane {H}x{W} is smaller than the 2x2 pool window")
    O = kernel.shape[0]
    Hp, Wp, Ho, Wo, m = H + 2, W + 2, H // 2, W // 2, min(B, CHUNK)
    kv = kernel.values
    taped = x._op != "const"
    read = not taped and kernel._op == "const"   # _node's test: the output is a constant
    # offset (i, j) of every pool window as a strided view: four strided
    # adds, as a mean over the strided window axes runs 5x slower
    w0, w1, w2, w3 = [np.s_[:, :, i:2 * Ho:2, j:2 * Wo:2] for i in (0, 1) for j in (0, 1)]
    # one chunk of x, zero-padded by a pixel; its border is never written.
    # cols[b, (c, i, j), (h, w)] = xp[b, c, h + i, w + j]: one GEMM per
    # sample leaves the conv in [B, O, H, W] order, straight in y
    xp = np.zeros((m, C, Hp, Wp))
    cols = sliding_window_view(xp, (3, 3), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)
    # a block on a taped input keeps each plane's centred conv for the
    # norm's backward and takes ReLU into a chunk scratch; any other block
    # reuses one chunk's conv and takes ReLU in place. Every taped block
    # keeps its ReLU mask, one byte a pixel
    y = np.empty((B if taped else m, O, H, W))
    r = np.empty((m, O, H, W)) if taped else y
    mask = None if read else np.empty((B, O, H, W), dtype=bool)
    inv = np.empty((B, O, 1, 1))
    v = np.empty((B, O, Ho, Wo))
    for s in range(0, B, CHUNK):
        c = min(CHUNK, B - s)
        ys, vs, invs = y[s:s + c] if taped else y[:c], v[s:s + c], inv[s:s + c]
        xp[:c, :, 1:-1, 1:-1] = x.values[s:s + c]
        yf = ys.reshape(c, O, H * W)
        np.matmul(kv.reshape(O, -1), cols[:c].reshape(c, C * 9, H * W), out=yf)
        # one mean, the centring in place and its sum of squares: np.var
        # would take the mean and centre again
        yf -= np.add.reduce(yf, axis=2, keepdims=True) / (H * W)
        invs[...] = (1.0 / np.sqrt(np.einsum("bchw,bchw->bc", ys, ys) / (H * W) + 1e-5))[:, :, None, None]
        if mask is not None:
            np.greater(ys, 0.0, out=mask[s:s + c])
        rs = np.maximum(ys, 0.0, out=r[:c])
        np.add(rs[w0], rs[w1], out=vs)
        vs += rs[w2]
        vs += rs[w3]
        vs *= invs * 0.25
    if not taped:
        y = None    # the backward of a constant input reads the mask and x

    def _bw(g, need):
        gy = np.zeros((m, O, H, W))

        def spread(s, c):
            # the chunk's g * inv / 4 onto each window position of gy,
            # times the kept ReLU mask; a floored row or column stays 0
            gys, invs = gy[:c], inv[s:s + c]
            g4 = g[s:s + c] * (invs * 0.25)
            for w in (w0, w1, w2, w3):
                gys[w] = g4
            gys *= mask[s:s + c]
            return gys, invs

        if not need[0]:
            # a constant input: gk from moments of each sample's centred
            # im2col columns xc, which give y = K xc. The norm's gradient
            # gy - mean(gy) - y * inv**2 * mean(gy * y) sums to 0 on each
            # plane and xc is centred, so its product with the columns is
            # M - inv**2 * mean(gy * y) * K xc xc^T with M = gy xc^T, and
            # mean(gy * y) = <M, K> / (H*W) per plane: no full-size pass
            # but the mask's, and no tap GEMM
            kf = kv.reshape(O, C * 9)
            xc = np.empty((m, C * 9, H * W))
            gk = np.zeros((O, C * 9))
            for s in range(0, B, CHUNK):
                c = min(CHUNK, B - s)
                gys, invs = spread(s, c)
                xcs = xc[:c]
                xp[:c, :, 1:-1, 1:-1] = x.values[s:s + c]
                xcs.reshape(c, C, 3, 3, H, W)[...] = cols[:c]
                xcs -= np.add.reduce(xcs, axis=2, keepdims=True) / (H * W)
                mo = np.matmul(gys.reshape(c, O, H * W), xcs.transpose(0, 2, 1))
                kg = np.matmul(kf, np.matmul(xcs, xcs.transpose(0, 2, 1)))
                gym = np.einsum("bok,ok->bo", mo, kf)[:, :, None] / (H * W)
                mo -= (invs[:, :, :, 0] * invs[:, :, :, 0] * gym) * kg
                gk += mo.sum(0)
            return None, gk.reshape(O, C, 3, 3)

        # a taped input: the norm's backward goes straight into gw, laid
        # out on Wp columns (the last two zero) and cut to its first n
        # positions: in the flattened padded plane, output pixel (h, w)
        # reads xp at h*Wp + w + off for tap (i, j), with off = i*Wp + j,
        # so gw meets each tap's slice of xp in one GEMM, and the last
        # tap's slice ends at Hp*Wp exactly
        n = (H - 1) * Wp + W
        # kt[i, j] is the contiguous [C, O] slice that BLAS takes
        kt = np.ascontiguousarray(kv.transpose(2, 3, 1, 0))
        gx = np.empty((B, C, H, W))
        gk = np.zeros((O, C, 3, 3)) if need[1] else None
        gw = np.zeros((m, O, H, Wp))
        for s in range(0, B, CHUNK):
            c = min(CHUNK, B - s)
            ys = y[s:s + c]
            gys, invs = spread(s, c)
            gcs = gw[:c, :, :, :W]
            gm = (gys.sum(axis=(2, 3)) / (H * W))[:, :, None, None]
            gym = (np.einsum("bchw,bchw->bc", gys, ys) / (H * W))[:, :, None, None]
            np.multiply(ys, -(invs * invs * gym), out=gcs)
            gcs += gys
            gcs -= gm
            gwn = gw[:c].reshape(c, O, H * Wp)[:, :, :n]
            gxf = np.zeros((c, C, Hp * Wp))
            tap = np.empty((c, C, n))
            for i in range(3):
                for j in range(3):
                    off = i * Wp + j
                    gxf[:, :, off:off + n] += np.matmul(kt[i, j], gwn, out=tap)
            gx[s:s + c] = gxf.reshape(c, C, Hp, Wp)[:, :, 1:-1, 1:-1]
            if need[1]:
                # each running sum over samples enters as the chunk's first
                # row, so it keeps the order of one sum over the batch; the
                # last bits differ only where numpy sums the batch
                # pairwise: a block with one input and one output channel
                xp[:c, :, 1:-1, 1:-1] = x.values[s:s + c]
                xf = xp[:c].reshape(c, C, Hp * Wp)
                for i in range(3):
                    for j in range(3):
                        off = i * Wp + j
                        part = np.matmul(gwn, xf[:, :, off:off + n].transpose(0, 2, 1))
                        if s:
                            part[0] += gk[:, :, i, j]
                        gk[:, :, i, j] = part.sum(0)
        return gx, gk

    return _node(v, (x, kernel), _bw, "conv_block")


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
