"""Autodiff core: forward values, trivial cases, finite-difference checks."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condensery.tensor as T
from condensery.errors import DimensionError, InputError, UsageError
from condensery.gradcheck import check_op, numeric_grad, run_suite
from condensery.tensor import Tensor


def test_conv2d_identity_kernel():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    k = Tensor(np.ones((1, 1, 1, 1)))
    b = Tensor(np.zeros(1))
    out = T.conv2d(x, k, b, pad=0)
    np.testing.assert_array_equal(out.values, x.values)


def test_conv2d_bias_only():
    x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 4, 4)))
    k = Tensor(np.zeros((2, 3, 3, 3)))
    b = Tensor(np.array([5.0, 5.0]))
    out = T.conv2d(x, k, b, pad=1)
    np.testing.assert_array_equal(out.values, np.full((2, 2, 4, 4), 5.0))


def test_conv2d_channel_mismatch():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    k = Tensor(np.zeros((1, 3, 3, 3)))
    with pytest.raises(DimensionError):
        T.conv2d(x, k, Tensor(np.zeros(1)), pad=1)


def test_conv2d_pad_is_keyword_only():
    x = Tensor(np.zeros((1, 1, 4, 4)))
    with pytest.raises(TypeError):
        T.conv2d(x, Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros(1)), 1, 1)


def test_conv2d_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 5, 5))
    k = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    for r in check_op("conv2d", lambda t: T.conv2d(t[0], t[1], t[2], pad=0), [x, k, b]):
        assert r.passed, r.detail
        assert r.worst_rel <= 1e-3


def _conv2d_loop_oracle(x, k, b, pad, g):
    """conv2d's output and its input and kernel gradients under upstream
    gradient g, by explicit loops over every output pixel."""
    B, C, H, W = x.shape
    O, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    Ho, Wo = H + 2 * pad - kh + 1, W + 2 * pad - kw + 1
    out = np.zeros((B, O, Ho, Wo))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    for n in range(B):
        for o in range(O):
            for h in range(Ho):
                for w in range(Wo):
                    patch = xp[n, :, h:h + kh, w:w + kw]
                    out[n, o, h, w] = (patch * k[o]).sum() + b[o]
                    gk[o] += g[n, o, h, w] * patch
                    gxp[n, :, h:h + kh, w:w + kw] += g[n, o, h, w] * k[o]
    return out, gxp[:, :, pad:pad + H, pad:pad + W], gk


@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("kshape", [(1, 1), (3, 3), (2, 3)])
def test_conv2d_matches_loop_oracle(pad, kshape):
    # pad=2 with a 1x1 or 2x3 kernel pads by at least the kernel height
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((2, 2, 4, 5)))
    k = Tensor(rng.standard_normal((3, 2) + kshape))
    b = Tensor(rng.standard_normal(3))
    out = T.conv2d(x, k, b, pad=pad)
    g = rng.standard_normal(out.shape)
    T.backward(T.sum_all(T.mul(out, Tensor(g))), [x, k, b])
    ref_out, ref_gx, ref_gk = _conv2d_loop_oracle(x.values, k.values, b.values, pad, g)
    # the kernels sum in another order than the loops: float64 round-off only
    for got, ref in ((out.values, ref_out), (x.grad, ref_gx), (k.grad, ref_gk),
                     (b.grad, g.sum(axis=(0, 2, 3)))):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


NEED_CASES = {
    "conv2d": (lambda t: T.conv2d(t[0], t[1], t[2], pad=1), [(2, 2, 4, 4), (3, 2, 3, 3), (3,)]),
    "linear": (lambda t: T.linear(t[0], t[1], t[2]), [(3, 4), (4, 2), (2,)]),
    "matmul": (lambda t: T.matmul(t[0], t[1]), [(3, 4), (4, 2)]),
    "mul": (lambda t: T.mul(t[0], t[1]), [(3, 4), (3, 4)]),
}


@pytest.mark.parametrize("op", sorted(NEED_CASES))
def test_gradient_asked_alone_matches_full_gradient(op):
    # backward tells the closure which parents it needs; one parent asked
    # for alone gets the same bits as with all parents asked for, and the
    # closure returns None for every parent it was not asked for
    build, shapes = NEED_CASES[op]
    rng = np.random.default_rng(12)
    arrays = [rng.standard_normal(s) for s in shapes]
    weights = Tensor(rng.standard_normal(build([Tensor(a) for a in arrays]).shape))

    def grads(asked):
        leaves = [Tensor(a) for a in arrays]
        out = build(leaves)
        calls = []
        orig_bw = out._backward

        def spy(g, need):
            result = orig_bw(g, need)
            calls.append((need, [r is not None for r in result]))
            return result
        out._backward = spy
        T.backward(T.sum_all(T.mul(out, weights)), [leaves[i] for i in asked])
        return [leaves[i].grad for i in asked], calls

    n = len(arrays)
    full, calls = grads(range(n))
    assert calls == [((True,) * n, [True] * n)]
    for i in range(n):
        (alone,), calls = grads([i])
        need = tuple(j == i for j in range(n))
        assert calls == [(need, list(need))]
        np.testing.assert_array_equal(alone, full[i])


def test_instance_norm_constant_plane_is_zero():
    x = Tensor(np.full((1, 1, 3, 3), 3.0))
    out = T.instance_norm2d(x, eps=1e-5)
    assert np.all(np.abs(out.values) < 1e-6)


def test_instance_norm_unit_variance_preserved():
    x = Tensor(np.array([[[[-1.0, 1.0]]]]))
    out = T.instance_norm2d(x, eps=0.0)
    np.testing.assert_allclose(out.values, [[[[-1.0, 1.0]]]], atol=1e-12)


def test_instance_norm_backward():
    x = np.random.default_rng(2).standard_normal((2, 2, 4, 4))
    for r in check_op("instnorm", lambda t: T.instance_norm2d(t[0]), [x]):
        assert r.passed, r.detail


def test_relu_values():
    out = T.relu(Tensor(np.array([-1.0, 2.0])))
    np.testing.assert_array_equal(out.values, [0.0, 2.0])


def test_relu_all_negative_zero_gradient():
    x = Tensor(np.array([-1.0, -2.0, -0.5]))
    out = T.sum_all(T.relu(x))
    T.backward(out, [x])
    np.testing.assert_array_equal(x.grad, np.zeros(3))


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_relu_elementwise_max(vals):
    out = T.relu(Tensor(np.array(vals)))
    np.testing.assert_array_equal(out.values, np.maximum(0.0, np.array(vals)))


def test_relu_backward_away_from_kink():
    x = np.random.default_rng(3).standard_normal((4, 4))
    for r in check_op("relu", lambda t: T.relu(t[0]), [x],
                      mask_fns=[lambda a: np.abs(a) > 1e-3]):
        assert r.passed, r.detail


def test_avg_pool_mean():
    out = T.avg_pool2d(Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])), 2)
    np.testing.assert_array_equal(out.values, [[[[2.5]]]])


def test_avg_pool_constant_preserved():
    out = T.avg_pool2d(Tensor(np.full((1, 2, 4, 4), 7.0)), 2)
    np.testing.assert_array_equal(out.values, np.full((1, 2, 2, 2), 7.0))


def test_avg_pool_rejects_ragged():
    with pytest.raises(DimensionError):
        T.avg_pool2d(Tensor(np.zeros((1, 1, 5, 5))), 2)


def test_avg_pool_backward():
    x = np.random.default_rng(4).standard_normal((2, 3, 4, 4))
    for r in check_op("pool", lambda t: T.avg_pool2d(t[0], 2), [x]):
        assert r.passed, r.detail


@pytest.mark.parametrize("k", [2, 3])
def test_avg_pool_backward_matches_window_loop(k):
    # a weighted sum gives every window its own upstream gradient; the
    # reference adds g / k^2 into each window position one offset at a time
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((2, 3, 2 * k, 3 * k)))
    w = rng.standard_normal((2, 3, 2, 3))
    T.backward(T.sum_all(T.mul(T.avg_pool2d(x, k), Tensor(w))), [x])
    ref = np.zeros_like(x.values)
    for i in range(k):
        for j in range(k):
            ref[:, :, i::k, j::k] += w / (k * k)
    np.testing.assert_array_equal(x.grad, ref)


def test_linear_identity():
    x = np.random.default_rng(5).standard_normal((3, 4))
    out = T.linear(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
    np.testing.assert_array_equal(out.values, x)


def test_linear_zero_weight_gives_bias_rows():
    b = np.array([1.0, -2.0])
    out = T.linear(Tensor(np.ones((3, 4))), Tensor(np.zeros((4, 2))), Tensor(b))
    np.testing.assert_array_equal(out.values, np.tile(b, (3, 1)))


def test_linear_shape_mismatch():
    with pytest.raises(DimensionError):
        T.linear(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))), Tensor(np.zeros(2)))


def test_linear_backward():
    rng = np.random.default_rng(6)
    for r in check_op("linear", lambda t: T.linear(t[0], t[1], t[2]),
                      [rng.standard_normal((3, 4)), rng.standard_normal((4, 2)),
                       rng.standard_normal(2)]):
        assert r.passed, r.detail


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((4, 10)))
    loss = T.softmax_cross_entropy_mean(logits, [0, 3, 5, 9])
    assert abs(loss.item() - np.log(10)) < 1e-12


def test_cross_entropy_saturates_with_margin():
    losses = []
    for margin in (5.0, 10.0):
        logits = np.zeros((2, 3))
        logits[0, 1] = margin
        logits[1, 2] = margin
        losses.append(T.softmax_cross_entropy_mean(Tensor(logits), [1, 2]).item())
    assert losses[1] < losses[0]


def test_cross_entropy_matches_logsumexp_oracle():
    logits = np.array([[1.0, 2.0], [3.0, 0.0]])
    labels = [0, 1]
    # independent oracle: direct log-sum-exp formula
    expected = 0.0
    for row, lab in zip(logits, labels):
        expected += np.log(np.exp(row).sum()) - row[lab]
    expected /= len(labels)
    got = T.softmax_cross_entropy_mean(Tensor(logits), labels).item()
    assert abs(got - expected) < 1e-9


def test_cross_entropy_label_out_of_range():
    with pytest.raises(InputError):
        T.softmax_cross_entropy_mean(Tensor(np.zeros((2, 3))), [0, 3])


def test_cross_entropy_backward():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 3, size=5)
    for r in check_op("ce", lambda t: T.softmax_cross_entropy_mean(t[0], labels),
                      [rng.standard_normal((5, 3))]):
        assert r.passed, r.detail


def test_backward_identity_chain():
    x = Tensor(np.array(2.0))
    y = T.scale(x, 1.0)
    T.backward(y, [x])
    np.testing.assert_array_equal(x.grad, 1.0)


def test_backward_product_rule():
    rng = np.random.default_rng(8)
    a = Tensor(rng.standard_normal(5))
    b = Tensor(rng.standard_normal(5))
    T.backward(T.sum_all(T.mul(a, b)), [a, b])
    np.testing.assert_array_equal(a.grad, b.values)
    np.testing.assert_array_equal(b.grad, a.values)


def test_backward_rejects_nonscalar_root():
    x = Tensor(np.zeros(3))
    with pytest.raises(UsageError):
        T.backward(x, [x])
    y = T.scale(x, 2.0)
    with pytest.raises(UsageError):
        T.backward(T.sum_all(y), [y])


def test_backward_accumulates_over_fanout():
    # y = f(x) + g(x) must accumulate both branch gradients
    x = Tensor(np.array([1.0, 2.0]))
    f = T.sum_all(T.mul(x, x))          # grad 2x
    g = T.sum_all(T.scale(x, 3.0))      # grad 3
    T.backward(T.add(f, g), [x])
    np.testing.assert_allclose(x.grad, 2 * x.values + 3.0)


def test_backward_walks_and_fills_only_what_wrt_needs():
    # root = sum(x @ w) + sum(p * p): asking for p alone must not walk the
    # x @ w branch, fill w, or leave a gradient on any interior tensor.
    rng = np.random.default_rng(10)
    w = Tensor(rng.standard_normal((3, 2)))
    p = Tensor(rng.standard_normal(4))
    unused = Tensor(rng.standard_normal(2))
    xw = T.matmul(Tensor(rng.standard_normal((5, 3))), w)
    calls = []
    orig_bw = xw._backward

    def spy(g, need):
        calls.append(g)
        return orig_bw(g, need)
    xw._backward = spy
    pp = T.mul(p, p)
    left, right = T.sum_all(xw), T.sum_all(pp)
    root = T.add(left, right)
    T.backward(root, [p, unused])
    assert calls == []
    assert w.grad is None and unused.grad is None
    assert all(t.grad is None for t in (xw, pp, left, right, root))
    np.testing.assert_array_equal(p.grad, 2 * p.values)


def test_sgd_step_basic():
    p = Tensor(np.array(1.0))
    p.grad = np.array(2.0)
    T.sgd_step([p], 0.1)
    assert p.values == pytest.approx(0.8)
    assert p.grad is None


def test_sgd_zero_grad_no_change():
    p = Tensor(np.array(5.0))
    p.grad = np.array(0.0)
    T.sgd_step([p], 0.1)
    assert p.values == 5.0


def test_sgd_linearity_in_lr():
    g = np.array(1.5)
    p1 = Tensor(np.array(1.0))
    for _ in range(2):
        p1.grad = g.copy()
        T.sgd_step([p1], 0.1)
    p2 = Tensor(np.array(1.0))
    p2.grad = g.copy()
    T.sgd_step([p2], 0.2)
    assert p1.values == pytest.approx(p2.values)


def test_sgd_missing_grad_raises():
    with pytest.raises(UsageError):
        T.sgd_step([Tensor(np.array(1.0))], 0.1)


def test_ops_deterministic():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 3, 4, 4))
    k = rng.standard_normal((2, 3, 3, 3))
    b = rng.standard_normal(2)
    o1 = T.conv2d(Tensor(x), Tensor(k), Tensor(b), pad=1).values
    o2 = T.conv2d(Tensor(x), Tensor(k), Tensor(b), pad=1).values
    assert np.array_equal(o1, o2)


def test_numeric_grad_on_quadratic():
    # sanity-check the checker itself against a closed form
    x = np.array([1.0, -2.0, 0.5])
    g = numeric_grad(lambda: float((x ** 2).sum()), x)
    np.testing.assert_allclose(g, 2 * x, atol=1e-6)


def test_gradcheck_suite_covers_every_public_op():
    ops = {name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__
           and not name.startswith("_") and name not in ("backward", "sgd_step")}
    checked = {r.name.split("[")[0] for r in run_suite(seed=0)}
    assert ops <= checked, sorted(ops - checked)
