"""Model forward passes, taps, and initialization."""

import numpy as np
import pytest

import condensery.tensor as T
from condensery.errors import ConfigError, DimensionError
from condensery.gradcheck import compare, numeric_grad
from condensery.models import ConvNetSpec, MLPSpec, convnet_forward, forward, \
    init_params, mlp_forward
from condensery.tensor import Tensor


def test_convnet_tap_shapes():
    for c in (4, 16):
        spec = ConvNetSpec(blocks=3, channels=c, input_shape=(3, 32, 32), num_classes=10)
        params = init_params(spec, seed=0)
        batch = Tensor(np.zeros((2, 3, 32, 32)))
        pyr = convnet_forward(params, batch)
        assert [t.shape[1] for t in pyr.per_layer] == [c * 16 * 16, c * 8 * 8, c * 4 * 4]
        assert pyr.logits.shape == (2, 10)


def test_convnet_zero_params_logits_are_bias():
    spec = ConvNetSpec(blocks=2, channels=3, input_shape=(1, 8, 8), num_classes=4)
    params = init_params(spec, seed=0)
    for t in params.tensors:
        t.values[:] = 0.0
    params.tensors[-1].values[:] = np.array([1.0, 2.0, 3.0, 4.0])
    pyr = convnet_forward(params, Tensor(np.random.default_rng(0).standard_normal((3, 1, 8, 8))))
    for tap in pyr.per_layer:
        assert np.all(tap.values == 0.0)
    np.testing.assert_array_equal(pyr.logits.values, np.tile([1.0, 2.0, 3.0, 4.0], (3, 1)))


def test_convnet_forward_deterministic():
    spec = ConvNetSpec(blocks=2, channels=4, input_shape=(1, 8, 8), num_classes=3)
    params = init_params(spec, seed=11)
    batch = Tensor(np.random.default_rng(1).standard_normal((2, 1, 8, 8)))
    p1 = convnet_forward(params, batch)
    p2 = convnet_forward(params, batch)
    assert np.array_equal(p1.logits.values, p2.logits.values)
    for a, b in zip(p1.per_layer, p2.per_layer):
        assert np.array_equal(a.values, b.values)


def test_convnet_last_tap_feeds_classifier():
    spec = ConvNetSpec(blocks=2, channels=4, input_shape=(1, 8, 8), num_classes=3)
    params = init_params(spec, seed=2)
    pyr = convnet_forward(params, Tensor(np.random.default_rng(2).standard_normal((2, 1, 8, 8))))
    w, b = params.tensors[-2], params.tensors[-1]
    np.testing.assert_allclose(pyr.logits.values,
                               pyr.per_layer[-1].values @ w.values + b.values)


def test_convnet_shape_mismatch():
    spec = ConvNetSpec(blocks=2, channels=4, input_shape=(1, 8, 8), num_classes=3)
    params = init_params(spec, seed=0)
    with pytest.raises(DimensionError):
        convnet_forward(params, Tensor(np.zeros((2, 3, 8, 8))))


@pytest.mark.parametrize("shape", [(1, 4, 4), (1, 28, 7)])
def test_convnet_spec_rejects_too_small_input(shape):
    # 3 blocks pool 3 times: each side needs at least 2**3
    with pytest.raises(ConfigError, match="each side >= 8"):
        ConvNetSpec(blocks=3, channels=4, input_shape=shape, num_classes=10)


def test_convnet_default_spec_forwards_28x28_with_floor_pooling():
    # the ConvNet of Zhao et al. on MNIST: 28 -> 14 -> 7 -> 3
    spec = ConvNetSpec()
    pyr = convnet_forward(init_params(spec, seed=0),
                          Tensor.constant(np.random.default_rng(0).standard_normal((2, 1, 28, 28))))
    assert [t.shape for t in pyr.per_layer] == [(2, 128 * 14 * 14), (2, 128 * 7 * 7), (2, 1152)]
    assert spec.embed_dim == 1152
    assert pyr.logits.shape == (2, 10)


@pytest.mark.parametrize("hidden", [(), (0,), (16, -1)])
def test_mlp_spec_rejects_empty_or_nonpositive_hidden(hidden):
    with pytest.raises(ConfigError, match="hidden"):
        MLPSpec(input_shape=(1, 8, 8), hidden=hidden, num_classes=3)


def test_mlp_tap_shapes():
    spec = MLPSpec(input_shape=(1, 4, 4), hidden=(128, 128), num_classes=5)
    params = init_params(spec, seed=0)
    pyr = mlp_forward(params, Tensor(np.zeros((3, 1, 4, 4))))
    assert [t.shape[1] for t in pyr.per_layer] == [128, 128]
    assert pyr.logits.shape == (3, 5)


def test_mlp_identity_first_layer():
    spec = MLPSpec(input_shape=(16,), hidden=(16, 16), num_classes=2)
    params = init_params(spec, seed=0)
    params.tensors[0].values[:] = np.eye(16)
    params.tensors[1].values[:] = 0.0
    x = np.random.default_rng(3).standard_normal((4, 16))
    pyr = mlp_forward(params, Tensor(x))
    np.testing.assert_allclose(pyr.per_layer[0].values, np.maximum(0.0, x))


def test_mlp_gradcheck():
    spec = MLPSpec(input_shape=(6,), hidden=(5, 4), num_classes=3)
    params = init_params(spec, seed=4)
    x = np.random.default_rng(4).standard_normal((3, 6))
    labels = np.array([0, 2, 1])

    def loss_value():
        pyr = mlp_forward(params, Tensor(x))
        return T.softmax_cross_entropy_mean(pyr.logits, labels).item()

    pyr = mlp_forward(params, Tensor(x))
    T.backward(T.softmax_cross_entropy_mean(pyr.logits, labels))
    for i, t in enumerate(params.tensors):
        num = numeric_grad(loss_value, t.values)
        r = compare(t.grad, num, f"mlp_param{i}")
        assert r.passed, r.detail


def test_init_params_deterministic_per_seed():
    spec = ConvNetSpec(blocks=2, channels=4, input_shape=(1, 8, 8), num_classes=3)
    a = init_params(spec, seed=5)
    b = init_params(spec, seed=5)
    c = init_params(spec, seed=6)
    for ta, tb in zip(a.tensors, b.tensors):
        assert np.array_equal(ta.values, tb.values)
    assert any(not np.array_equal(ta.values, tc.values)
               for ta, tc in zip(a.tensors, c.tensors))


def test_init_kernel_variance_matches_he_scaling():
    # fan_in = 16 channels * 9 taps; expect var ~ 2/fan_in on ~10k draws
    spec = ConvNetSpec(blocks=1, channels=72, input_shape=(16, 2, 2), num_classes=2)
    params = init_params(spec, seed=7)
    k = params.tensors[0].values   # 72*16*3*3 = 10368 samples
    fan_in = 16 * 9
    assert k.size > 10_000
    assert abs(k.var() - 2.0 / fan_in) < 0.2 * (2.0 / fan_in)


def test_forward_dispatch():
    spec = MLPSpec(input_shape=(4,), hidden=(3,), num_classes=2)
    params = init_params(spec, seed=0)
    pyr = forward(params, Tensor(np.zeros((2, 4))))
    assert pyr.logits.shape == (2, 2)
