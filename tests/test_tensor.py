"""Autodiff core: forward values, trivial cases, finite-difference checks."""

import inspect
import tracemalloc

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


@pytest.mark.parametrize("pad", [-1, 1.5, "1", None], ids=["negative", "float", "str", "None"])
def test_conv2d_rejects_a_pad_that_is_not_a_nonnegative_integer(pad):
    x = Tensor(np.zeros((1, 1, 4, 4)))
    with pytest.raises(DimensionError, match="pad"):
        T.conv2d(x, Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros(1)), pad=pad)


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


# (input shape or maker, output channels, kernel shape, pad), keyed by test id
ORACLE_CASES = {f"kshape{i}-{pad}": ((2, 2, 4, 5), 3, kshape, pad)
                for i, kshape in enumerate([(1, 1), (3, 3), (2, 3)]) for pad in (0, 1, 2)}
ORACLE_CASES["first_layer-1"] = ((2, 1, 6, 7), 4, (3, 3), 1)
# a non-contiguous [2, 2, 5, 6] view: every other channel, all but one column
ORACLE_CASES["view-0"] = (lambda rng: rng.standard_normal((2, 4, 5, 7))[:, ::2, :, 1:], 3, (3, 3), 0)


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_conv2d_matches_loop_oracle(case):
    # pad=2 with a 1x1 or 2x3 kernel pads by at least the kernel height;
    # first_layer is the ConvNet's 1-channel input layer, view an input
    # that is a strided view
    x_shape, O, kshape, pad = ORACLE_CASES[case]
    rng = np.random.default_rng(11)
    x = Tensor(x_shape(rng) if callable(x_shape) else rng.standard_normal(x_shape))
    k = Tensor(rng.standard_normal((O, x.shape[1]) + kshape))
    b = Tensor(rng.standard_normal(O))
    out = T.conv2d(x, k, b, pad=pad)
    g = rng.standard_normal(out.shape)
    T.backward(T.sum_all(T.mul(out, Tensor(g))))
    ref_out, ref_gx, ref_gk = _conv2d_loop_oracle(x.values, k.values, b.values, pad, g)
    # the kernels sum in another order than the loops: float64 round-off only
    for got, ref in ((out.values, ref_out), (x.grad, ref_gx), (k.grad, ref_gk),
                     (b.grad, g.sum(axis=(0, 2, 3)))):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_conv2d_backward_peak_memory_is_a_few_inputs():
    # both gradients of a ConvNet-sized layer allocate less than 6 times
    # the input's bytes at their peak: no window-sized copy is made
    rng = np.random.default_rng(15)
    x = Tensor(rng.standard_normal((32, 16, 14, 14)))
    out = T.conv2d(x, Tensor(rng.standard_normal((16, 16, 3, 3))), Tensor(np.zeros(16)), pad=1)
    g = rng.standard_normal(out.shape)
    tracemalloc.start()
    try:
        gx, gk, _ = out._backward(g, (True, True, False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gx.shape == x.shape and gk.shape == (16, 16, 3, 3)
    assert peak < 6 * x.values.nbytes, peak / x.values.nbytes


NEED_CASES = {
    "conv2d": (lambda t: T.conv2d(t[0], t[1], t[2], pad=1), [(2, 2, 4, 4), (3, 2, 3, 3), (3,)]),
    "linear": (lambda t: T.linear(t[0], t[1], t[2]), [(3, 4), (4, 2), (2,)]),
    "matmul": (lambda t: T.matmul(t[0], t[1]), [(3, 4), (4, 2)]),
    "mul": (lambda t: T.mul(t[0], t[1]), [(3, 4), (3, 4)]),
}


@pytest.mark.parametrize("op", sorted(NEED_CASES))
def test_gradient_asked_alone_matches_full_gradient(op):
    # backward tells the closure which parents it needs: those that are not
    # constants. One parent asked for alone gets the same bits as with all
    # parents asked for, and the closure returns None for every constant
    build, shapes = NEED_CASES[op]
    rng = np.random.default_rng(12)
    arrays = [rng.standard_normal(s) for s in shapes]
    weights = Tensor.constant(rng.standard_normal(build([Tensor(a) for a in arrays]).shape))

    def grads(asked):
        leaves = [Tensor(a) if i in asked else Tensor.constant(a) for i, a in enumerate(arrays)]
        out = build(leaves)
        calls = []
        orig_bw = out._backward

        def spy(g, need):
            result = orig_bw(g, need)
            calls.append((need, [r is not None for r in result]))
            return result
        out._backward = spy
        T.backward(T.sum_all(T.mul(out, weights)))
        return [leaves[i].grad for i in asked], calls

    n = len(arrays)
    full, calls = grads(range(n))
    assert calls == [((True,) * n, [True] * n)]
    for i in range(n):
        (alone,), calls = grads([i])
        need = tuple(j == i for j in range(n))
        assert calls == [(need, list(need))]
        np.testing.assert_array_equal(alone, full[i])


def _one_pass_norm(x):
    """instance_norm2d's forward as the three-op chain computed it: (y, inv)."""
    H, W = x.shape[2:]
    y = x - x.mean(axis=(2, 3), keepdims=True)
    inv = (1.0 / np.sqrt(np.einsum("bchw,bchw->bc", y, y) / (H * W) + 1e-5))[:, :, None, None]
    y *= inv
    return y, inv


def _one_pass_norm_backward(y, inv, gy):
    """instance_norm2d's one-pass backward of the three-op chain."""
    H, W = y.shape[2:]
    gm = (gy.sum(axis=(2, 3)) / (H * W))[:, :, None, None]
    gym = (np.einsum("bchw,bchw->bc", gy, y) / (H * W))[:, :, None, None]
    gx = y * -gym
    gx += gy
    gx -= gm
    gx *= inv
    return gx


def _window_loop_pool(r):
    """2x2 mean pool that floors, one window at a time."""
    B, C, H, W = r.shape
    out = np.empty((B, C, H // 2, W // 2))
    for h in range(H // 2):
        for w in range(W // 2):
            out[:, :, h, w] = r[:, :, 2 * h:2 * h + 2, 2 * w:2 * w + 2].mean(axis=(2, 3))
    return out


def _window_loop_spread(g, shape):
    """The pool's backward: g / 4 added into each window position one
    offset at a time; a dropped last row or column stays 0."""
    Ho, Wo = g.shape[2:]
    gy = np.zeros(shape)
    for i in range(2):
        for j in range(2):
            gy[:, :, i:2 * Ho:2, j:2 * Wo:2] += g / 4
    return gy


def test_instance_norm_constant_plane_is_zero():
    x = Tensor(np.full((1, 1, 3, 3), 3.0))
    out = T.norm_relu_pool(x)
    assert out.shape == (1, 1, 1, 1)
    assert np.all(np.abs(out.values) < 1e-6)


def test_instance_norm_unit_variance_preserved():
    # a mean-0, variance-1 plane comes out of the norm scaled only by eps,
    # so its two positive entries pool to 2 / sqrt(1 + eps) / 4
    x = Tensor(np.array([[[[-1.0, 1.0], [1.0, -1.0]]]]))
    out = T.norm_relu_pool(x)
    np.testing.assert_allclose(out.values, [[[[0.5 / np.sqrt(1.0 + 1e-5)]]]], atol=1e-12)


NORM_SHAPES = [(1, 1, 2, 2), (2, 3, 4, 4), (3, 2, 5, 7), (2, 16, 28, 28), (2, 3, 7, 4)]


@pytest.mark.parametrize("shape", NORM_SHAPES)
def test_instance_norm_matches_two_pass_reference(shape):
    # the op's norm sums the squares of one centred copy; np.var centres
    # again. Composed here with ReLU and the window-loop pool
    x = np.random.default_rng(14).standard_normal(shape) * 7.0 + 3.0
    y = (x - x.mean(axis=(2, 3), keepdims=True)) / np.sqrt(x.var(axis=(2, 3), keepdims=True) + 1e-5)
    ref = _window_loop_pool(np.maximum(y, 0.0))
    np.testing.assert_allclose(T.norm_relu_pool(Tensor(x)).values, ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize("shape", NORM_SHAPES)
def test_instance_norm_backward_matches_reference(shape):
    # the closure's one reduction pass against the five-pass norm formula,
    # fed the window-loop spread of g masked by ReLU
    rng = np.random.default_rng(16)
    x = rng.standard_normal(shape) * 7.0 + 3.0
    out = T.norm_relu_pool(Tensor(x))
    g = rng.standard_normal(out.shape)
    inv = 1.0 / np.sqrt(x.var(axis=(2, 3), keepdims=True) + 1e-5)
    y = (x - x.mean(axis=(2, 3), keepdims=True)) * inv
    gy = _window_loop_spread(g, shape) * (y > 0.0)
    ref = (gy - gy.mean(axis=(2, 3), keepdims=True)
           - y * (gy * y).mean(axis=(2, 3), keepdims=True)) * inv
    (gx,) = out._backward(g, (True,))
    np.testing.assert_allclose(gx, ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize("shape", [(1, 1, 2, 2), (2, 3, 4, 4), (3, 2, 6, 10), (2, 16, 28, 28)])
def test_norm_relu_pool_is_the_three_op_chain_bit_for_bit(shape):
    # on even planes the block op does the arithmetic of instance_norm2d,
    # relu and avg_pool2d in the same order: forward and input gradient
    rng = np.random.default_rng(18)
    x = rng.standard_normal(shape) * 7.0 + 3.0
    B, C, H, W = shape
    y, inv = _one_pass_norm(x)
    r = np.maximum(y, 0.0)
    v = np.zeros((B, C, H // 2, W // 2))
    for i in range(2):
        for j in range(2):
            v += r[:, :, i::2, j::2]
    v *= 1.0 / 4
    out = T.norm_relu_pool(Tensor(x))
    np.testing.assert_array_equal(out.values, v)
    g = rng.standard_normal(v.shape)
    gp = np.broadcast_to((g / 4)[:, :, :, None, :, None], (B, C, H // 2, 2, W // 2, 2))
    gr = gp.reshape(shape) * (y > 0.0)
    (gx,) = out._backward(g, (True,))
    np.testing.assert_array_equal(gx, _one_pass_norm_backward(y, inv, gr))


def test_instance_norm_backward():
    x = np.random.default_rng(2).standard_normal((2, 2, 4, 4))
    y, _ = _one_pass_norm(x)
    assert np.abs(y).min() > 1e-3   # away from ReLU's kink
    for r in check_op("instnorm", lambda t: T.norm_relu_pool(t[0]), [x]):
        assert r.passed, r.detail


def test_relu_values():
    out = T.relu(Tensor(np.array([-1.0, 2.0])))
    np.testing.assert_array_equal(out.values, [0.0, 2.0])


def test_relu_all_negative_zero_gradient():
    x = Tensor(np.array([-1.0, -2.0, -0.5]))
    out = T.sum_all(T.relu(x))
    T.backward(out)
    np.testing.assert_array_equal(x.grad, np.zeros(3))


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_relu_elementwise_max(vals):
    out = T.relu(Tensor(np.array(vals)))
    np.testing.assert_array_equal(out.values, np.maximum(0.0, np.array(vals)))


def test_relu_backward_away_from_kink():
    x = np.random.default_rng(3).standard_normal((4, 4))
    assert np.abs(x).min() > 1e-3   # where a central difference measures one side
    for r in check_op("relu", lambda t: T.relu(t[0]), [x]):
        assert r.passed, r.detail


def test_avg_pool_mean():
    # plane mean 2.5 and variance 1.25; ReLU keeps the bottom row, whose
    # normalized values 0.5 and 1.5 (over sqrt(1.25 + eps)) the pool averages
    out = T.norm_relu_pool(Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])))
    np.testing.assert_allclose(out.values, [[[[0.5 / np.sqrt(1.25 + 1e-5)]]]], rtol=0, atol=1e-15)


def test_avg_pool_constant_preserved():
    # a plane tiled by one window has that window's mean and variance, so
    # every window pools to the value of the window alone, bit for bit
    window = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = T.norm_relu_pool(Tensor(np.tile(window, (1, 2, 2, 2))))
    alone = T.norm_relu_pool(Tensor(window[None, None])).values.item()
    np.testing.assert_array_equal(out.values, np.full((1, 2, 2, 2), alone))


def test_norm_relu_pool_floors_an_odd_plane():
    # the last row and column are normalized with the plane but pooled into
    # nothing: they move the output, and get gradient, only through the norm
    rng = np.random.default_rng(19)
    x = rng.standard_normal((2, 3, 5, 7))
    y, _ = _one_pass_norm(x)
    out = T.norm_relu_pool(Tensor(x))
    assert out.shape == (2, 3, 2, 3)
    np.testing.assert_allclose(out.values, _window_loop_pool(np.maximum(y, 0.0)), rtol=0, atol=1e-15)
    assert np.abs(y).min() > 1e-3   # away from ReLU's kink
    for r in check_op("pool_odd", lambda t: T.norm_relu_pool(t[0]), [x]):
        assert r.passed, r.detail
    xt = Tensor(x)
    T.backward(T.sum_all(T.norm_relu_pool(xt)))
    assert np.all(xt.grad[:, :, 4, :] != 0.0) and np.all(xt.grad[:, :, :, 6] != 0.0)


@pytest.mark.parametrize("shape", [(1, 1, 1, 4), (1, 1, 4, 1), (2, 4, 4)])
def test_norm_relu_pool_rejects_a_plane_below_its_window(shape):
    with pytest.raises(DimensionError, match="norm_relu_pool"):
        T.norm_relu_pool(Tensor(np.zeros(shape)))


def test_avg_pool_backward():
    x = np.random.default_rng(4).standard_normal((2, 3, 4, 4))
    y, _ = _one_pass_norm(x)
    assert np.abs(y).min() > 1e-3   # away from ReLU's kink
    for r in check_op("pool", lambda t: T.norm_relu_pool(t[0]), [x]):
        assert r.passed, r.detail


@pytest.mark.parametrize("k", [2, 3])
def test_avg_pool_backward_matches_window_loop(k):
    # k windows down and 3k/2 across an odd plane, bit for bit: the
    # reference adds g / 4 into each window position one offset at a time,
    # masks it by ReLU and runs the one-pass norm backward
    rng = np.random.default_rng(7)
    shape = (2, 3, 2 * k + 1, 3 * k + 1)
    x = Tensor(rng.standard_normal(shape))
    out = T.norm_relu_pool(x)
    g = rng.standard_normal(out.shape)
    y, inv = _one_pass_norm(x.values)
    ref = _one_pass_norm_backward(y, inv, _window_loop_spread(g, shape) * (y > 0.0))
    (gx,) = out._backward(g, (True,))
    np.testing.assert_array_equal(gx, ref)


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
    T.backward(y)
    np.testing.assert_array_equal(x.grad, 1.0)


def test_backward_product_rule():
    rng = np.random.default_rng(8)
    a = Tensor(rng.standard_normal(5))
    b = Tensor(rng.standard_normal(5))
    T.backward(T.sum_all(T.mul(a, b)))
    np.testing.assert_array_equal(a.grad, b.values)
    np.testing.assert_array_equal(b.grad, a.values)


def test_backward_rejects_nonscalar_root():
    x = Tensor(np.zeros(3))
    with pytest.raises(UsageError):
        T.backward(x)


def test_backward_accumulates_over_fanout():
    # y = f(x) + g(x) must accumulate both branch gradients
    x = Tensor(np.array([1.0, 2.0]))
    f = T.sum_all(T.mul(x, x))          # grad 2x
    g = T.sum_all(T.scale(x, 3.0))      # grad 3
    T.backward(T.add(f, g))
    np.testing.assert_allclose(x.grad, 2 * x.values + 3.0)


# One build per public op of condensery.tensor, with the shapes of its
# tensor operands in order.
OP_CASES = {
    "add": (lambda t: T.add(t[0], t[1]), [(3, 4), (3, 4)]),
    "sub": (lambda t: T.sub(t[0], t[1]), [(3, 4), (3, 4)]),
    "mul": (lambda t: T.mul(t[0], t[1]), [(3, 4), (3, 4)]),
    "scale": (lambda t: T.scale(t[0], -1.5), [(3, 4)]),
    "sum_all": (lambda t: T.sum_all(t[0]), [(3, 4)]),
    "reshape": (lambda t: T.reshape(t[0], (2, 6)), [(3, 4)]),
    "transpose2d": (lambda t: T.transpose2d(t[0]), [(3, 4)]),
    "matmul": (lambda t: T.matmul(t[0], t[1]), [(3, 4), (4, 2)]),
    "relu": (lambda t: T.relu(t[0]), [(3, 4)]),
    "linear": (lambda t: T.linear(t[0], t[1], t[2]), [(3, 4), (4, 2), (2,)]),
    "conv2d": (lambda t: T.conv2d(t[0], t[1], t[2], pad=1), [(2, 2, 4, 4), (3, 2, 3, 3), (3,)]),
    "norm_relu_pool": (lambda t: T.norm_relu_pool(t[0]), [(2, 2, 5, 4)]),
    "softmax_cross_entropy_mean": (lambda t: T.softmax_cross_entropy_mean(t[0], [0, 2, 1, 2]),
                                   [(4, 3)]),
}


def test_constant_cases_cover_every_public_op():
    ops = {name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__
           and not name.startswith("_") and name not in ("backward", "sgd_step")}
    assert set(OP_CASES) == ops


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_constant_parents_give_a_constant(op):
    # all-constant parents: a constant with no parents and no closure, with
    # the taped output's values; one non-constant parent: a tape node whose
    # backward gives that parent the taped gradient bit for bit
    build, shapes = OP_CASES[op]
    rng = np.random.default_rng(13)
    arrays = [rng.standard_normal(s) for s in shapes]
    taped = build([Tensor(a) for a in arrays])
    weights = Tensor.constant(rng.standard_normal(taped.shape))
    const = build([Tensor.constant(a) for a in arrays])
    assert (const._op, const._parents, const._backward) == ("const", (), None)
    np.testing.assert_array_equal(const.values, taped.values)
    for i in range(len(arrays)):
        leaves = [Tensor(a) for a in arrays]
        T.backward(T.sum_all(T.mul(build(leaves), weights)))
        mixed = [Tensor(a) if j == i else Tensor.constant(a) for j, a in enumerate(arrays)]
        out = build(mixed)
        assert out._op == op and out._backward is not None
        assert all(p is q for p, q in zip(out._parents, mixed))
        T.backward(T.sum_all(T.mul(out, weights)))
        np.testing.assert_array_equal(mixed[i].grad, leaves[i].grad)


def test_backward_walks_and_fills_only_what_wrt_needs():
    # root = sum(x @ w) + sum(p * p) with x and w constants: backward must
    # not walk the x @ w branch, fill w or a leaf the root does not reach,
    # or leave a gradient on any interior tensor.
    rng = np.random.default_rng(10)
    w = Tensor.constant(rng.standard_normal((3, 2)))
    p = Tensor(rng.standard_normal(4))
    unused = Tensor(rng.standard_normal(2))
    xw = T.matmul(Tensor.constant(rng.standard_normal((5, 3))), w)
    calls = []
    orig_bw = xw._backward

    def spy(g, need):
        calls.append(g)
        return orig_bw(g, need)
    xw._backward = spy
    pp = T.mul(p, p)
    left, right = T.sum_all(xw), T.sum_all(pp)
    root = T.add(left, right)
    T.backward(root)
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
