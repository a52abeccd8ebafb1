"""Central finite-difference verification of the autodiff primitives.

Shared by the test suite and the ``gradcheck`` CLI subcommand. Each check
builds a scalar ``sum(op(...) * W)`` graph, with W a fixed standard normal
array of the output's shape, so every op sees a non-uniform upstream
gradient. It runs backward and compares every analytic gradient entry
against a central difference with step h = 1e-5.
Entries whose analytic value is below 1e-8 in magnitude are compared
absolutely (tolerance 1e-6), the rest relatively (tolerance 1e-3). The
suite checks every public op of ``tensor``, away from ReLU's kink, and a
one-block ConvNet built by ``models.forward``, each on every coordinate of
every leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .models import ConvNetSpec, ModelParams, forward

H_STEP = 1e-5
REL_TOL = 1e-3
ABS_TOL = 1e-6
ZERO_CUT = 1e-8


@dataclass
class CheckResult:
    name: str
    worst_rel: float      # worst relative error among non-tiny entries
    passed: bool
    detail: str = ""      # coordinates of the worst offender on failure


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


def compare(analytic: np.ndarray, numeric: np.ndarray, name: str) -> CheckResult:
    a = analytic.reshape(-1)
    n = numeric.reshape(-1)
    worst_rel = 0.0
    detail = ""
    passed = True
    for i in range(a.size):
        if abs(a[i]) < ZERO_CUT and abs(n[i]) < ZERO_CUT:
            err = abs(a[i] - n[i])
            if err > ABS_TOL:
                passed = False
                detail = detail or f"flat index {i}: analytic {a[i]:.3e} vs numeric {n[i]:.3e} (abs)"
        else:
            err = abs(a[i] - n[i]) / max(abs(a[i]), abs(n[i]))
            worst_rel = max(worst_rel, err)
            if err > REL_TOL:
                passed = False
                detail = detail or f"flat index {i}: analytic {a[i]:.6e} vs numeric {n[i]:.6e} (rel {err:.2e})"
    return CheckResult(name, worst_rel, passed, detail)


def check_op(name: str, build: Callable[[Sequence[T.Tensor]], T.Tensor],
             leaves: Sequence[np.ndarray]) -> list[CheckResult]:
    """Check d sum(build(leaves) * W) / d leaf for every leaf array.

    ``build`` receives freshly wrapped leaf tensors and returns the graph
    output of any shape. W is drawn from its own generator, so the
    caller's draws do not depend on the output shapes.
    """
    ts = [T.Tensor(x.copy()) for x in leaves]
    out = build(ts)
    weights = T.Tensor.constant(np.random.default_rng(0).standard_normal(out.shape))
    T.backward(T.sum_all(T.mul(out, weights)))
    results = []
    arrs = [l.values for l in ts]
    for i, leaf in enumerate(ts):
        def f():
            return T.sum_all(T.mul(build([T.Tensor(x) for x in arrs]), weights)).item()
        num = numeric_grad(f, leaf.values)
        results.append(compare(leaf.grad, num, f"{name}[arg{i}]"))
    return results


def run_suite(seed: int = 0) -> list[CheckResult]:
    """The full primitive + composed-network gradient suite."""
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []

    # conv2d: random 2x3x5x5 input, 4x3x3x3 kernel
    x = rng.standard_normal((2, 3, 5, 5))
    k = rng.standard_normal((4, 3, 3, 3)) * 0.5
    b = rng.standard_normal(4)
    out += check_op("conv2d", lambda t: T.conv2d(t[0], t[1], t[2], pad=1), [x, k, b])

    out += check_op("relu", lambda t: T.relu(t[0]), [_off_kink(rng, (3, 6), planes=False)])

    # the block op on an even plane and on an odd one, which the pool floors
    for name, shape in (("norm_relu_pool", (2, 3, 4, 4)), ("norm_relu_pool_5x5", (2, 2, 5, 5))):
        out += check_op(name, lambda t: T.norm_relu_pool(t[0]), [_off_kink(rng, shape)])

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
    # by models.forward: the oracle checks the model's own code
    out += _check_composed(rng)

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

    # conv2d shapes drawn last so the draws above do not depend on them:
    # a non-square kernel without padding, a 1x1 kernel padded by as much
    # as its size, and the ConvNet's 1-channel first layer
    for name, x_shape, k_shape, pad in (("conv2d_2x3_pad0", (2, 2, 4, 5), (3, 2, 2, 3), 0),
                                        ("conv2d_1x1_pad1", (2, 2, 3, 3), (3, 2, 1, 1), 1),
                                        ("conv2d_c1_pad1", (2, 1, 5, 5), (4, 1, 3, 3), 1)):
        leaves = [rng.standard_normal(x_shape), rng.standard_normal(k_shape),
                  rng.standard_normal(k_shape[0])]
        out += check_op(name, lambda t, pad=pad: T.conv2d(t[0], t[1], t[2], pad=pad), leaves)
    return out


def _off_kink(rng: np.random.Generator, shape: tuple, planes: bool = True) -> np.ndarray:
    """A draw with no entry within 1e-3 of ReLU's kink, where a central
    difference measures neither side's slope: each entry as drawn, or with
    ``planes`` as normalized over its [H,W] plane, as the block op does."""
    while True:
        x = rng.standard_normal(shape)
        c = x - x.mean(axis=(2, 3), keepdims=True) if planes else x
        unit = c.std(axis=(2, 3), keepdims=True) if planes else 1.0
        if np.all(np.abs(c) > 1e-3 * unit):
            return x


def _check_composed(rng: np.random.Generator) -> list[CheckResult]:
    B, C, Hh, Ww, O, K = 2, 2, 4, 4, 3, 2
    spec = ConvNetSpec(blocks=1, channels=O, input_shape=(C, Hh, Ww), num_classes=K)
    x = T.Tensor.constant(rng.standard_normal((B, C, Hh, Ww)))
    kern = rng.standard_normal((O, C, 3, 3)) * 0.5
    kb = rng.standard_normal(O) * 0.1
    w = rng.standard_normal((spec.embed_dim, K)) * 0.5
    wb = rng.standard_normal(K) * 0.1
    labels = rng.integers(0, K, size=B)

    def build(t):
        logits = forward(ModelParams(spec, list(t)), x).logits
        return T.softmax_cross_entropy_mean(logits, labels)

    return check_op("composed_convnet", build, [kern, kb, w, wb])
