"""Central finite-difference verification of the autodiff primitives.

Shared by the test suite and the ``gradcheck`` CLI subcommand. Each check
builds a scalar ``sum(op(...) * W)`` graph, with W a fixed standard normal
array of the output's shape, so every op sees a non-uniform upstream
gradient. It runs backward and compares every analytic gradient entry
against a central difference with step h = 1e-5, relatively (tolerance
1e-3). An entry whose analytic and numeric values are both below
``ZERO_CUT`` (1e-8) in magnitude is not compared, and a leaf with no other
entry fails, as its check would pass whatever the gradient. So does a
leaf left with no gradient, and one whose graph, backward or finite
differences raise; its detail names the exception. The suite checks
every public op of ``tensor``, away from ReLU's kink; the ConvNet block
also on an odd plane, a 1-channel input and a batch that spans two of
its sample chunks; and a one-block ConvNet built by ``models.forward``
on a constant input, whose block takes its kernel gradient from moments,
also on an odd 1-channel plane across two chunks; each on every
coordinate of every leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as T
from .models import ConvNetSpec, ModelParams, forward

H_STEP = 1e-5
REL_TOL = 1e-3
ZERO_CUT = 1e-8


@dataclass
class CheckResult:
    name: str
    worst_rel: float      # worst relative error among non-tiny entries; inf if unchecked
    passed: bool
    detail: str = ""      # the worst offender's coordinates, or the exception, on failure


def numeric_grad(f: Callable[[], float], x: np.ndarray, h: float = H_STEP) -> np.ndarray:
    """Central finite differences of scalar-valued ``f`` w.r.t. array ``x``.

    ``f`` must recompute from the current contents of ``x``.
    """
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def compare(analytic: Optional[np.ndarray], numeric: np.ndarray, name: str) -> CheckResult:
    """Every compared entry not within REL_TOL fails, so a NaN or Inf fails;
    so do a check that compares no entry and a leaf that backward left with
    no gradient."""
    if analytic is None:
        return CheckResult(name, float("inf"), False, "backward left no gradient")
    a, n = analytic.reshape(-1), numeric.reshape(-1)
    scale = np.maximum(np.abs(a), np.abs(n))
    tiny = scale < ZERO_CUT
    if tiny.all():
        return CheckResult(name, 0.0, False, f"no entry compared: all {a.size} are below {ZERO_CUT:g}")
    with np.errstate(invalid="ignore"):     # inf - inf and inf / inf are NaN
        err = np.abs(a - n) / np.where(tiny, 1.0, scale)
    bad = np.flatnonzero(~(err <= REL_TOL) & ~tiny)
    i = bad[0] if bad.size else None
    detail = "" if i is None else (f"flat index {i}: analytic {a[i]:.6e} vs numeric {n[i]:.6e} "
                                   f"(rel {err[i]:.2e})")
    return CheckResult(name, float(err[~tiny].max()), i is None, detail)


def check_op(name: str, build: Callable[[Sequence[T.Tensor]], T.Tensor],
             leaves: Sequence[np.ndarray]) -> list[CheckResult]:
    """Check d sum(build(leaves) * W) / d leaf for every leaf array.

    ``build`` receives freshly wrapped leaf tensors and returns the graph
    output of any shape. W is drawn from its own generator, so the
    caller's draws do not depend on the output shapes. An exception fails
    each leaf it keeps from being compared, with its type and message as
    detail.
    """
    ts = [T.Tensor(x.copy()) for x in leaves]
    results: list[CheckResult] = []
    try:
        out = build(ts)
        weights = T.Tensor.constant(np.random.default_rng(0).standard_normal(out.shape))
        T.backward(T.sum_all(T.mul(out, weights)))
        arrs = [l.values for l in ts]

        def f():
            return T.sum_all(T.mul(build([T.Tensor(x) for x in arrs]), weights)).item()
        for i, leaf in enumerate(ts):
            results.append(compare(leaf.grad, numeric_grad(f, leaf.values), f"{name}[arg{i}]"))
    except Exception as e:
        # fails the leaf under check and every leaf after it
        results += [CheckResult(f"{name}[arg{i}]", float("inf"), False,
                                f"raised {type(e).__name__}: {e}")
                    for i in range(len(results), len(ts))]
    return results


def run_suite(seed: int = 0) -> list[CheckResult]:
    """The full primitive + composed-network gradient suite."""
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []

    # the ConvNet block on an even plane, on an odd one that the pool
    # floors, on the 1-channel first layer and on CHUNK + 1 samples, so the
    # oracle crosses the seam between two of its sample chunks
    for name, x_shape, O in (("conv_block", (2, 3, 4, 4), 4), ("conv_block_5x5", (2, 2, 5, 5), 3),
                             ("conv_block_c1", (2, 1, 4, 4), 4),
                             ("conv_block_chunked", (T.CHUNK + 1, 2, 4, 4), 3)):
        out += check_op(name, lambda t: T.conv_block(t[0], t[1]), _block_leaves(rng, x_shape, O))

    out += check_op("relu", lambda t: T.relu(t[0]), [_off_kink(rng, (3, 6))])

    # linear 3x4 @ 4x2
    xl = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 2))
    bl = rng.standard_normal(2)
    out += check_op("linear", lambda t: T.linear(t[0], t[1], t[2]), [xl, w, bl])

    # softmax cross-entropy
    lg = rng.standard_normal((4, 3))
    lab = rng.integers(0, 3, size=4)
    out += check_op("softmax_cross_entropy_mean",
                    lambda t: T.softmax_cross_entropy_mean(t[0], lab), [lg])

    # one ConvNet block and its linear head under mean cross-entropy, built
    # by models.forward: the oracle checks the model's own code. Its input
    # is a constant, so the block's kernel gradient comes from moments;
    # the second case puts that on an odd 1-channel plane across two chunks
    out += _check_composed(rng, "composed_convnet", (2, 2, 4, 4), 3)
    out += _check_composed(rng, "composed_convnet_c1_chunked", (T.CHUNK + 1, 1, 5, 7), 3)

    # the tape's plumbing ops
    p, q = rng.standard_normal((2, 3, 4))
    out += check_op("add", lambda t: T.add(t[0], t[1]), [p, q])
    out += check_op("sub", lambda t: T.sub(t[0], t[1]), [p, q])
    out += check_op("mul", lambda t: T.mul(t[0], t[1]), [p, q])
    out += check_op("scale", lambda t: T.scale(t[0], -1.5), [p])
    out += check_op("sum_all", lambda t: T.sum_all(t[0]), [p])
    out += check_op("reshape", lambda t: T.reshape(t[0], (2, 6)), [p])
    out += check_op("transpose2d", lambda t: T.transpose2d(t[0]), [p])
    out += check_op("matmul", lambda t: T.matmul(t[0], t[1]), [p, rng.standard_normal((4, 2))])
    return out


def _off_kink(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """A draw with no entry within 1e-3 of ReLU's kink, where a central
    difference measures neither side's slope."""
    while True:
        x = rng.standard_normal(shape)
        if np.all(np.abs(x) > 1e-3):
            return x


def _block_leaves(rng: np.random.Generator, x_shape: tuple, out_channels: int) -> list:
    """An input and kernel for ``conv_block`` whose conv output, normalized
    over each plane, has no entry within 1e-3 of ReLU's kink."""
    while True:
        x = rng.standard_normal(x_shape)
        k = rng.standard_normal((out_channels, x_shape[1], 3, 3)) * 0.5
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        c = np.einsum("bchwij,ocij->bohw", sliding_window_view(xp, (3, 3), axis=(2, 3)), k)
        c -= c.mean(axis=(2, 3), keepdims=True)
        if np.all(np.abs(c) > 1e-3 * c.std(axis=(2, 3), keepdims=True)):
            return [x, k]


def _check_composed(rng: np.random.Generator, name: str, x_shape: tuple,
                    out_channels: int) -> list[CheckResult]:
    B, C, Hh, Ww = x_shape
    K = 2
    spec = ConvNetSpec(blocks=1, channels=out_channels, input_shape=(C, Hh, Ww), num_classes=K)
    x, kern = _block_leaves(rng, x_shape, out_channels)
    x = T.Tensor.constant(x)
    w = rng.standard_normal((spec.embed_dim, K)) * 0.5
    wb = rng.standard_normal(K) * 0.1
    labels = rng.integers(0, K, size=B)

    def build(t):
        logits = forward(ModelParams(spec, list(t)), x).logits
        return T.softmax_cross_entropy_mean(logits, labels)

    return check_op(name, build, [kern, w, wb])
