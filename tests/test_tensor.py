"""Autodiff core: forward values, trivial cases, finite-difference checks."""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import condensery.tensor as T
from condensery.errors import DimensionError, InputError, UsageError
from condensery.gradcheck import REL_TOL, _block_leaves, check_op, compare, numeric_grad, \
    run_suite
from condensery.tensor import Tensor


def _identity(C):
    """A centre-tap identity kernel: the block's conv then copies its input
    bit for bit, which leaves the norm, ReLU and pool."""
    k = np.zeros((C, C, 3, 3))
    k[range(C), range(C), 1, 1] = 1.0
    return Tensor.constant(k)


def _norm_relu_pool(x):
    """conv_block through the identity kernel: the norm, ReLU and pool of x."""
    return T.conv_block(x, _identity(x.shape[1]))


def test_conv2d_identity_kernel():
    # a kernel whose one 1 sits at tap (i, j) reads the plane moved by
    # (1 - i, 1 - j) with zeros shifted in, bit for bit: the conv pads by one
    # pixel and moves one pixel at a time
    x = np.random.default_rng(0).standard_normal((2, 3, 5, 6))
    for i in range(3):
        for j in range(3):
            k = np.zeros((3, 3, 3, 3))
            k[range(3), range(3), i, j] = 1.0
            moved = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))[:, :, i:i + 5, j:j + 6]
            out = T.conv_block(Tensor(x), Tensor(k))
            np.testing.assert_array_equal(out.values, _norm_relu_pool(Tensor(moved)).values)


def test_conv2d_channel_mismatch():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    k = Tensor(np.zeros((1, 3, 3, 3)))
    with pytest.raises(DimensionError):
        T.conv_block(x, k)


@pytest.mark.parametrize("kshape", [(1, 1, 1, 1), (1, 1, 2, 3), (1, 1, 3), (1, 1, 5, 5)])
def test_conv_block_rejects_a_kernel_that_is_not_3x3(kshape):
    with pytest.raises(DimensionError, match="conv_block: kernel"):
        T.conv_block(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros(kshape)))


def test_conv2d_gradients_match_finite_differences():
    leaves = _block_leaves(np.random.default_rng(1), (2, 3, 5, 5), 4)
    for r in check_op("conv_block", lambda t: T.conv_block(t[0], t[1]), leaves):
        assert r.passed, r.detail
        assert r.worst_rel <= 1e-3


def _block_loop_oracle(x, k, g):
    """conv_block's output and its input and kernel gradients under
    upstream gradient g: a 3x3, pad-1 conv by explicit loops over every
    output pixel, a two-pass norm, ReLU and the window mean, then the
    window spread of g masked by ReLU, the five-pass norm backward and the
    conv's loops again."""
    B, C, H, W = x.shape
    O = k.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    conv = np.zeros((B, O, H, W))
    for n in range(B):
        for o in range(O):
            for h in range(H):
                for w in range(W):
                    conv[n, o, h, w] = (xp[n, :, h:h + 3, w:w + 3] * k[o]).sum()
    inv = 1.0 / np.sqrt(conv.var(axis=(2, 3), keepdims=True) + 1e-5)
    y = (conv - conv.mean(axis=(2, 3), keepdims=True)) * inv
    gy = _window_loop_spread(g, y.shape) * (y > 0.0)
    gc = (gy - gy.mean(axis=(2, 3), keepdims=True)
          - y * (gy * y).mean(axis=(2, 3), keepdims=True)) * inv
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    for n in range(B):
        for o in range(O):
            for h in range(H):
                for w in range(W):
                    gk[o] += gc[n, o, h, w] * xp[n, :, h:h + 3, w:w + 3]
                    gxp[n, :, h:h + 3, w:w + 3] += gc[n, o, h, w] * k[o]
    return _window_loop_pool(np.maximum(y, 0.0)), gxp[:, :, 1:-1, 1:-1], gk


# (input shape, output channels), keyed by test id: batches of 1, CHUNK - 1
# and CHUNK samples, one beyond a chunk and two chunks and three beyond;
# first_layer is the ConvNet's 1-channel input layer
ORACLE_CASES = {
    "one_sample-1": ((1, 2, 4, 5), 3),
    "chunk_less_one-1": ((T.CHUNK - 1, 2, 4, 4), 3),
    "one_chunk-1": ((T.CHUNK, 2, 5, 7), 3),
    "chunks-1": ((T.CHUNK + 1, 2, 4, 5), 3),
    "chunks_1to1-1": ((2 * T.CHUNK + 3, 1, 4, 5), 1),
    "first_layer-1": ((2, 1, 6, 7), 4),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_conv2d_matches_loop_oracle(case):
    x_shape, O = ORACLE_CASES[case]
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal(x_shape))
    k = Tensor(rng.standard_normal((O, x.shape[1], 3, 3)))
    out = T.conv_block(x, k)
    g = rng.standard_normal(out.shape)
    T.backward(T.sum_all(T.mul(out, Tensor(g))))
    ref = _block_loop_oracle(x.values, k.values, g)
    # the block sums in another order than the loops: float64 round-off only
    for got, want in zip((out.values, x.grad, k.grad), ref):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv2d_backward_peak_memory_is_a_few_inputs():
    # all three gradients of a ConvNet-sized block allocate less than 6
    # times the input's bytes at their peak: the im2col copy of the padded
    # gradient is made IM2COL_BYTES at a time, never for a whole chunk
    rng = np.random.default_rng(15)
    x = Tensor(rng.standard_normal((32, 16, 14, 14)))
    out = T.conv_block(x, Tensor(rng.standard_normal((16, 16, 3, 3))))
    g = rng.standard_normal(out.shape)
    tracemalloc.start()
    try:
        gx, gk = out._backward(g, (True, True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gx.shape == x.shape and gk.shape == (16, 16, 3, 3)
    assert peak < 6 * x.values.nbytes, peak / x.values.nbytes


def test_first_layer_taped_backward_copies_one_sample_of_columns():
    # the first block of condense's outer step, on the synthetic images:
    # 1 input channel, so the padded gradient's im2col is 144 times an
    # input sample and one sample's 0.90 MB is already past IM2COL_BYTES.
    # Measured 4.46 MB: the masked gradient and the padded norm gradient
    # (1.61 + 1.84 MB), one sample's columns and the 0.10 MB input
    # gradient. The bound leaves 12%; a chunk's columns (14.5 MB) fail it
    rng = np.random.default_rng(28)
    x = Tensor(rng.standard_normal((T.CHUNK, 1, 28, 28)))
    out = T.conv_block(x, Tensor(rng.standard_normal((16, 1, 3, 3))))
    g = rng.standard_normal(out.shape)
    tracemalloc.start()
    try:
        gx, gk = out._backward(g, (True, True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gx.shape == x.shape and gk.shape == (16, 1, 3, 3)
    assert peak < 5.0e6, peak


def test_constant_input_backward_copies_im2col_in_pieces():
    # the first block of a training step on 3x32x32 images: its kernel
    # gradient reads the input's im2col moments IM2COL_BYTES at a time.
    # Measured 3.58 MB: the masked gradient (2.10 MB), a piece of four
    # samples' columns (0.88 MB) and the moments. A chunk's columns
    # (3.54 MB) took it to 6.23 MB
    rng = np.random.default_rng(29)
    x = Tensor.constant(rng.standard_normal((T.CHUNK, 3, 32, 32)))
    out = T.conv_block(x, Tensor(rng.standard_normal((16, 3, 3, 3))))
    g = rng.standard_normal(out.shape)
    tracemalloc.start()
    try:
        gx, gk = out._backward(g, (False, True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gx is None and gk.shape == (16, 3, 3, 3)
    assert peak < 4.5e6, peak


def test_conv2d_forward_peak_memory_is_a_few_inputs():
    # the forward pads and copies one chunk's windows at a time, not the
    # batch's: the block keeps its centred conv output and its output
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal((256, 16, 14, 14)))
    k = Tensor(rng.standard_normal((16, 16, 3, 3)))
    tracemalloc.start()
    try:
        out = T.conv_block(x, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (256, 16, 7, 7)
    assert peak <= 5 * x.values.nbytes, peak / x.values.nbytes


def _block_whole_batch(x, k, g):
    """conv_block's output and its input and kernel gradients under
    upstream gradient g, each formula run once over the whole batch."""
    B, C, H, W = x.shape
    O = k.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = sliding_window_view(xp, (3, 3), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)
    conv = np.matmul(k.reshape(O, -1), cols.reshape(B, C * 9, H * W))
    y, inv = _one_pass_norm(conv.reshape(B, O, H, W))
    Ho, Wo = H // 2, W // 2
    windows = [np.s_[:, :, i:2 * Ho:2, j:2 * Wo:2] for i in (0, 1) for j in (0, 1)]
    r = np.maximum(y, 0.0)
    v = np.zeros((B, O, Ho, Wo))
    for w in windows:
        v += r[w]
    v *= inv * 0.25
    gy = np.zeros((B, O, H, W))
    for w in windows:
        np.multiply(g * 0.25, y[w] > 0.0, out=gy[w])
    gc = _one_pass_norm_backward(y, inv, gy)
    # both gradients read the padded norm gradient's im2col columns: the
    # input gradient with the kernel flipped and its channel axes swapped,
    # the kernel gradient, flipped, with the input, summed over samples
    gp = np.pad(gc, ((0, 0), (0, 0), (1, 1), (1, 1)))
    gcols = sliding_window_view(gp, (3, 3), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3).reshape(B, O * 9, H * W)
    kf = np.ascontiguousarray(k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(C, O * 9)
    gx = np.matmul(kf, gcols).reshape(B, C, H, W)
    acc = np.matmul(gcols, x.reshape(B, C, H * W).transpose(0, 2, 1)).sum(0)
    gk = acc.reshape(O, 3, 3, C)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
    return v, gx, gk


@pytest.mark.parametrize("B", [1, T.CHUNK - 1, T.CHUNK, T.CHUNK + 1, 2 * T.CHUNK + 3])
def test_chunked_kernels_match_the_whole_batch_bit_for_bit(B):
    # every result the block computes chunk by chunk is per sample, and
    # the kernel gradient carries its running sum across the seams in the
    # order of one sum over the batch: no bit may move, also on a block
    # with one input and one output channel. The input is a strided view,
    # and its 5x7 plane is pooled with a floor
    rng = np.random.default_rng(20)
    for C, O in ((3, 4), (1, 1)):
        x = rng.standard_normal((B, 2 * C, 5, 8))[:, ::2, :, 1:]
        k = rng.standard_normal((O, C, 3, 3))
        out = T.conv_block(Tensor(x), Tensor(k))
        g = rng.standard_normal(out.shape)
        ref = _block_whole_batch(x, k, g)
        for got, want in zip((out.values,) + out._backward(g, (True, True)), ref):
            np.testing.assert_array_equal(got, want)


def test_im2col_pieces_move_no_bit(monkeypatch):
    # each sample is one GEMM whatever piece its columns are copied in, and
    # a constant input's kernel gradient carries the chunk's running sum
    # into each piece as its first row: one sample per piece, five (so a
    # piece ends inside a chunk) and one piece per chunk give the same
    # output, input gradient and kernel gradients, taped, as a read and on
    # a constant input, 16-channel and 3-channel
    rng = np.random.default_rng(27)
    B = 2 * T.CHUNK + 3
    for C, H in ((16, 14), (3, 16)):
        x = rng.standard_normal((B, C, H, H))
        k = rng.standard_normal((16, C, 3, 3))
        g = rng.standard_normal((B, 16, H // 2, H // 2))
        sample = C * 9 * H * H * 8
        runs = []
        for budget in (1, 5 * sample, 2 * T.CHUNK * sample):
            monkeypatch.setattr(T, "IM2COL_BYTES", budget)
            out = T.conv_block(Tensor(x), Tensor(k))
            read = T.conv_block(Tensor.constant(x), Tensor.constant(k))
            first = T.conv_block(Tensor.constant(x), Tensor(k))
            runs.append((out.values, read.values, first.values)
                        + out._backward(g, (True, True)) + first._backward(g, (False, True))[1:])
        for one, *others in zip(*runs):
            for other in others:
                np.testing.assert_array_equal(one, other)


@pytest.mark.parametrize("B", [1, T.CHUNK - 1, T.CHUNK + 1, 2 * T.CHUNK + 3])
def test_a_read_gives_the_taped_output_bit_for_bit(B):
    # a block of constants reuses one chunk's conv buffer and takes ReLU in
    # place; a taped one keeps every chunk's centred conv. Same bits, also
    # on a 5x7 plane that the pool floors
    rng = np.random.default_rng(21)
    x, k = rng.standard_normal((B, 2, 5, 7)), rng.standard_normal((3, 2, 3, 3))
    taped = T.conv_block(Tensor(x), Tensor(k))
    read = T.conv_block(Tensor.constant(x), Tensor.constant(k))
    assert taped._op == "conv_block" and read._op == "const"
    np.testing.assert_array_equal(read.values, taped.values)


def test_a_read_holds_no_batch_sized_conv_output():
    # a read from constants keeps one chunk's conv output, so on 4 chunks
    # its peak stays below one [B, O, H, W] array; a taped block keeps the
    # whole batch's for its backward and goes above it
    B, O, H, W = 4 * T.CHUNK, 16, 28, 28
    rng = np.random.default_rng(22)
    x, k = rng.standard_normal((B, 1, H, W)), rng.standard_normal((O, 1, 3, 3))
    peaks = []
    for wrap in (Tensor.constant, Tensor):
        tracemalloc.start()
        try:
            out = T.conv_block(wrap(x), wrap(k))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del out
    full = B * O * H * W * 8
    assert peaks[0] < full < peaks[1], (peaks, full)


def test_a_block_on_a_constant_input_keeps_its_mask_and_no_conv():
    # the first block of a training step: its backward reads only the
    # ReLU mask, one byte a pixel, so it keeps no float64 conv output. Its
    # peak stays below one [B, O, H, W] float64 array, and its closure holds
    # neither that nor its one chunk's conv buffer
    B, O, H, W = 4 * T.CHUNK, 16, 28, 28
    rng = np.random.default_rng(25)
    x, k = rng.standard_normal((B, 1, H, W)), Tensor(rng.standard_normal((O, 1, 3, 3)))
    tracemalloc.start()
    try:
        out = T.conv_block(Tensor.constant(x), k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full = B * O * H * W * 8
    assert peak < full, peak / full
    held = [cell.cell_contents for cell in out._backward.__closure__]
    planes = [a for a in held if isinstance(a, np.ndarray) and a.shape[1:] == (O, H, W)]
    assert [a.dtype for a in planes] == [np.bool_], [(a.dtype, a.shape) for a in planes]


@pytest.mark.parametrize("B", [1, T.CHUNK + 1, 2 * T.CHUNK + 3])
def test_kernel_gradient_through_a_constant_input_matches_the_taped_block(B):
    # backward through a block on a constant input gives the kernel the
    # bits that the same block on a taped input gives when asked for the
    # kernel alone: the kept mask and the reused chunk buffer lose nothing
    rng = np.random.default_rng(26)
    x, k = rng.standard_normal((B, 3, 5, 7)), rng.standard_normal((4, 3, 3, 3))
    kernel = Tensor(k)
    out = T.conv_block(Tensor.constant(x), kernel)
    g = rng.standard_normal(out.shape)
    T.backward(T.sum_all(T.mul(out, Tensor.constant(g))))
    taped = T.conv_block(Tensor(x), Tensor(k))
    np.testing.assert_array_equal(kernel.grad, taped._backward(g, (False, True))[1])


@pytest.mark.parametrize("C, O", [(1, 16), (3, 8), (16, 16)])
@pytest.mark.parametrize("H, W", [(28, 28), (5, 7)])
@pytest.mark.parametrize("B", [1, T.CHUNK - 1, T.CHUNK + 1, 2 * T.CHUNK + 3])
def test_constant_input_kernel_gradient_from_moments_matches_the_taps(B, H, W, C, O):
    # with the input a constant the block asks for the kernel gradient
    # alone and takes it from im2col moments; the taped block's GEMM of the
    # norm gradient's columns with the input gives the same numbers, to
    # float64 round-off
    rng = np.random.default_rng(23)
    out = T.conv_block(Tensor(rng.standard_normal((B, C, H, W))),
                       Tensor(rng.standard_normal((O, C, 3, 3))))
    g = rng.standard_normal(out.shape)
    _, taps = out._backward(g, (True, True))
    gx, moments = out._backward(g, (False, True))
    assert gx is None and moments.shape == (O, C, 3, 3)
    np.testing.assert_allclose(moments, taps, rtol=0, atol=1e-13 * np.abs(taps).max())


def test_constant_input_kernel_gradient_makes_no_padded_gradient_buffer():
    # the moment branch holds the masked window gradient gy and one chunk's
    # im2col columns, never gy and the zero-padded buffer the taped branch
    # writes the norm gradient into: its peak stays below gy plus an
    # [m, O, H, W + 2] buffer, a little less than that padded one
    B, C, O, H, W = 4 * T.CHUNK, 1, 32, 28, 28
    rng = np.random.default_rng(24)
    out = T.conv_block(Tensor(rng.standard_normal((B, C, H, W))),
                       Tensor(rng.standard_normal((O, C, 3, 3))))
    g = rng.standard_normal(out.shape)
    tracemalloc.start()
    try:
        out._backward(g, (False, True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gy, gw = T.CHUNK * O * H * W * 8, T.CHUNK * O * H * (W + 2) * 8
    assert peak < gy + gw, (peak, gy + gw)


NEED_CASES = {
    "conv_block": (lambda t: T.conv_block(t[0], t[1]), [(2, 2, 4, 4), (3, 2, 3, 3)]),
    "linear": (lambda t: T.linear(t[0], t[1], t[2]), [(3, 4), (4, 2), (2,)]),
    "matmul": (lambda t: T.matmul(t[0], t[1]), [(3, 4), (4, 2)]),
    "mul": (lambda t: T.mul(t[0], t[1]), [(3, 4), (3, 4)]),
}


def _assert_same_gradient(op, i, got, want):
    """Bit for bit, save conv_block's kernel gradient under a constant
    input: that one comes from moments, the same sum in another order,
    within 1e-13 of its largest entry."""
    if (op, i) == ("conv_block", 1):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("op", sorted(NEED_CASES))
def test_gradient_asked_alone_matches_full_gradient(op):
    # backward tells the closure which parents it needs: those that are not
    # constants. One parent asked for alone gets the same gradient as with
    # all parents asked for, and the closure returns None for every constant
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
        _assert_same_gradient(op, i, alone, full[i])


def _one_pass_norm(x):
    """The block's norm in one pass: the centred planes y and their inverse
    deviation inv. The block never forms y * inv; it scales its pooled
    output by inv."""
    H, W = x.shape[2:]
    y = x - x.mean(axis=(2, 3), keepdims=True)
    inv = (1.0 / np.sqrt(np.einsum("bchw,bchw->bc", y, y) / (H * W) + 1e-5))[:, :, None, None]
    return y, inv


def _one_pass_norm_backward(y, inv, gy):
    """The norm's one-pass backward from the centred planes y, given gy,
    the gradient of y * inv: inv folded into gy first, then
    gy - mean(gy) - y * inv**2 * mean(gy * y)."""
    H, W = y.shape[2:]
    gy = gy * inv
    gm = (gy.sum(axis=(2, 3)) / (H * W))[:, :, None, None]
    gym = (np.einsum("bchw,bchw->bc", gy, y) / (H * W))[:, :, None, None]
    gx = y * -(inv * inv * gym)
    gx += gy
    gx -= gm
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


def _input_grad(out, g):
    """The input gradient of a block built by _norm_relu_pool."""
    return out._backward(g, (True, False))[0]


def test_instance_norm_constant_plane_is_zero():
    x = Tensor(np.full((1, 1, 3, 3), 3.0))
    out = _norm_relu_pool(x)
    assert out.shape == (1, 1, 1, 1)
    assert np.all(np.abs(out.values) < 1e-6)


def test_instance_norm_unit_variance_preserved():
    # a mean-0, variance-1 plane comes out of the norm scaled only by eps,
    # so its two positive entries pool to 2 / sqrt(1 + eps) / 4
    x = Tensor(np.array([[[[-1.0, 1.0], [1.0, -1.0]]]]))
    out = _norm_relu_pool(x)
    np.testing.assert_allclose(out.values, [[[[0.5 / np.sqrt(1.0 + 1e-5)]]]], atol=1e-12)


NORM_SHAPES = [(1, 1, 2, 2), (2, 3, 4, 4), (3, 2, 5, 7), (2, 16, 28, 28), (2, 3, 7, 4)]


@pytest.mark.parametrize("shape", NORM_SHAPES)
def test_instance_norm_matches_two_pass_reference(shape):
    # the block's norm sums the squares of one centred copy; np.var
    # centres again. Composed here with ReLU and the window-loop pool
    x = np.random.default_rng(14).standard_normal(shape) * 7.0 + 3.0
    y = (x - x.mean(axis=(2, 3), keepdims=True)) / np.sqrt(x.var(axis=(2, 3), keepdims=True) + 1e-5)
    ref = _window_loop_pool(np.maximum(y, 0.0))
    np.testing.assert_allclose(_norm_relu_pool(Tensor(x)).values, ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize("shape", NORM_SHAPES)
def test_instance_norm_backward_matches_reference(shape):
    # the closure's one reduction pass against the five-pass norm formula,
    # fed the window-loop spread of g masked by ReLU
    rng = np.random.default_rng(16)
    x = rng.standard_normal(shape) * 7.0 + 3.0
    out = _norm_relu_pool(Tensor(x))
    g = rng.standard_normal(out.shape)
    inv = 1.0 / np.sqrt(x.var(axis=(2, 3), keepdims=True) + 1e-5)
    y = (x - x.mean(axis=(2, 3), keepdims=True)) * inv
    gy = _window_loop_spread(g, shape) * (y > 0.0)
    ref = (gy - gy.mean(axis=(2, 3), keepdims=True)
           - y * (gy * y).mean(axis=(2, 3), keepdims=True)) * inv
    np.testing.assert_allclose(_input_grad(out, g), ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize("shape", [(1, 1, 2, 2), (2, 3, 4, 4), (3, 2, 6, 10), (2, 16, 28, 28)])
def test_norm_relu_pool_scales_after_the_pool_bit_for_bit(shape):
    # on even planes the block centres each plane, takes ReLU, sums each
    # window and only then scales by inv / 4, in that order: forward and
    # input gradient. inv > 0 commutes with ReLU and the mean, so this is
    # the norm, ReLU and pool in exact arithmetic
    rng = np.random.default_rng(18)
    x = rng.standard_normal(shape) * 7.0 + 3.0
    B, C, H, W = shape
    y, inv = _one_pass_norm(x)
    r = np.maximum(y, 0.0)
    v = np.zeros((B, C, H // 2, W // 2))
    for i in range(2):
        for j in range(2):
            v += r[:, :, i::2, j::2]
    v *= inv * 0.25
    out = _norm_relu_pool(Tensor(x))
    np.testing.assert_array_equal(out.values, v)
    g = rng.standard_normal(v.shape)
    gp = np.broadcast_to((g / 4)[:, :, :, None, :, None], (B, C, H // 2, 2, W // 2, 2))
    gr = gp.reshape(shape) * (y > 0.0)
    np.testing.assert_array_equal(_input_grad(out, g), _one_pass_norm_backward(y, inv, gr))


def test_instance_norm_backward():
    x = np.random.default_rng(2).standard_normal((2, 2, 4, 4))
    y, inv = _one_pass_norm(x)
    assert np.abs(y * inv).min() > 1e-3   # away from ReLU's kink
    for r in check_op("instnorm", lambda t: _norm_relu_pool(t[0]), [x]):
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
    out = _norm_relu_pool(Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])))
    np.testing.assert_allclose(out.values, [[[[0.5 / np.sqrt(1.25 + 1e-5)]]]], rtol=0, atol=1e-15)


def test_avg_pool_constant_preserved():
    # a plane tiled by one window has that window's mean and variance, so
    # every window pools to the value of the window alone, bit for bit
    window = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = _norm_relu_pool(Tensor(np.tile(window, (1, 2, 2, 2))))
    alone = _norm_relu_pool(Tensor(window[None, None])).values.item()
    np.testing.assert_array_equal(out.values, np.full((1, 2, 2, 2), alone))


def test_norm_relu_pool_floors_an_odd_plane():
    # the last row and column are normalized with the plane but pooled into
    # nothing: they move the output, and get gradient, only through the norm
    rng = np.random.default_rng(19)
    x = rng.standard_normal((2, 3, 5, 7))
    y, inv = _one_pass_norm(x)
    out = _norm_relu_pool(Tensor(x))
    assert out.shape == (2, 3, 2, 3)
    np.testing.assert_allclose(out.values, _window_loop_pool(np.maximum(y * inv, 0.0)),
                               rtol=0, atol=1e-15)
    assert np.abs(y * inv).min() > 1e-3   # away from ReLU's kink
    for r in check_op("pool_odd", lambda t: _norm_relu_pool(t[0]), [x]):
        assert r.passed, r.detail
    xt = Tensor(x)
    T.backward(T.sum_all(_norm_relu_pool(xt)))
    assert np.all(xt.grad[:, :, 4, :] != 0.0) and np.all(xt.grad[:, :, :, 6] != 0.0)


@pytest.mark.parametrize("shape", [(1, 1, 1, 4), (1, 1, 4, 1), (2, 4, 4)])
def test_norm_relu_pool_rejects_a_plane_below_its_window(shape):
    with pytest.raises(DimensionError, match="conv_block"):
        _norm_relu_pool(Tensor(np.zeros(shape)))


def test_avg_pool_backward():
    x = np.random.default_rng(4).standard_normal((2, 3, 4, 4))
    y, inv = _one_pass_norm(x)
    assert np.abs(y * inv).min() > 1e-3   # away from ReLU's kink
    for r in check_op("pool", lambda t: _norm_relu_pool(t[0]), [x]):
        assert r.passed, r.detail


@pytest.mark.parametrize("k", [2, 3])
def test_avg_pool_backward_matches_window_loop(k):
    # k windows down and 3k/2 across an odd plane, bit for bit: the
    # reference adds g / 4 into each window position one offset at a time,
    # masks it by ReLU and runs the one-pass norm backward
    rng = np.random.default_rng(7)
    shape = (2, 3, 2 * k + 1, 3 * k + 1)
    x = Tensor(rng.standard_normal(shape))
    out = _norm_relu_pool(x)
    g = rng.standard_normal(out.shape)
    y, inv = _one_pass_norm(x.values)
    ref = _one_pass_norm_backward(y, inv, _window_loop_spread(g, shape) * (y > 0.0))
    np.testing.assert_array_equal(_input_grad(out, g), ref)


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
    "conv_block": (lambda t: T.conv_block(t[0], t[1]), [(2, 2, 5, 4), (3, 2, 3, 3)]),
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
    # backward gives that parent the taped gradient
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
        _assert_same_gradient(op, i, mixed[i].grad, leaves[i].grad)


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
    o1 = T.conv_block(Tensor(x), Tensor(k)).values
    o2 = T.conv_block(Tensor(x), Tensor(k)).values
    assert np.array_equal(o1, o2)


def test_numeric_grad_on_quadratic():
    # sanity-check the checker itself against a closed form
    x = np.array([1.0, -2.0, 0.5])
    g = numeric_grad(lambda: float((x ** 2).sum()), x)
    np.testing.assert_allclose(g, 2 * x, atol=1e-6)


def test_compare_passes_within_and_fails_beyond_each_tolerance():
    # entries below ZERO_CUT on both sides are not compared, the rest are
    # compared relatively, and the worst relative error is reported
    r = compare(np.array([0.0, 1e-9, 1.0]), np.array([5e-9, 0.0, 1.0005]), "x")
    assert r.passed and r.worst_rel == pytest.approx(0.0005 / 1.0005)
    r = compare(np.array([0.0, 1.0]), np.array([2e-9, 1.1]), "x")
    assert not r.passed and r.detail.startswith("flat index 1:") and "(rel" in r.detail
    r = compare(np.array([1.0, -5e-9]), np.array([1.0, 5e-9]), "x")   # gap 1e-8, not compared
    assert r.passed and r.worst_rel == 0.0


def test_compare_fails_a_check_that_compares_no_entry():
    # a leaf whose entries all lie below ZERO_CUT would pass whatever its
    # gradient, so its check fails as vacuous, even on equal values
    for analytic, numeric in (([0.0, 1e-9], [5e-9, -2e-9]), ([0.0, 0.0], [0.0, 0.0])):
        r = compare(np.array(analytic), np.array(numeric), "x")
        assert not r.passed and r.detail.startswith("no entry compared")


@pytest.mark.parametrize("analytic, numeric", [
    ([np.nan, 1.0], [0.5, 1.0]),
    ([np.inf, 1.0], [0.5, 1.0]),
    ([0.5, 1.0], [np.nan, 1.0]),
    ([0.5, 1.0], [-np.inf, 1.0]),
    ([np.inf, 1.0], [np.inf, 1.0]),
], ids=["nan-analytic", "inf-analytic", "nan-numeric", "inf-numeric", "inf-both"])
def test_compare_fails_a_non_finite_gradient(analytic, numeric):
    # a NaN fails every comparison, so an entry passes only if its error is
    # within tolerance, never merely because it is not beyond it
    r = compare(np.array(analytic), np.array(numeric), "x")
    assert not r.passed and r.detail.startswith("flat index 0:")
    assert not r.worst_rel <= REL_TOL


def test_gradcheck_suite_covers_every_public_op():
    ops = {name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__
           and not name.startswith("_") and name not in ("backward", "sgd_step")}
    checked = {r.name.split("[")[0] for r in run_suite(seed=0)}
    assert ops <= checked, sorted(ops - checked)
