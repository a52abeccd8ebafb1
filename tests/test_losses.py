"""Alignment and discrimination losses against independent oracles."""

import numpy as np
import pytest

import condensery.tensor as T
from condensery.errors import ConfigError, DimensionError, InputError
from condensery.gradcheck import compare, numeric_grad
from condensery.losses import cwfa, discrimination_logits, discrimination_loss, \
    feature_alignment_loss, total_loss
from condensery.models import ConvNetSpec, FeaturePyramid, convnet_forward, init_params
from condensery.tensor import Tensor


def pyramid_from(feats):
    """Single-layer pyramid over a raw [B, D] feature matrix."""
    t = Tensor(np.asarray(feats, dtype=float))
    return FeaturePyramid([t], Tensor(np.zeros((t.shape[0], 1))))


def test_cwfa_two_sample_mean():
    pyr = pyramid_from([[1.0, 3.0], [3.0, 5.0]])
    means = cwfa(pyr, [0, 0], 1)
    np.testing.assert_array_equal(means.per_layer[0].values, [[2.0, 4.0]])


def test_cwfa_singleton_classes_identity():
    feats = np.random.default_rng(0).standard_normal((3, 4))
    means = cwfa(pyramid_from(feats), [0, 1, 2], 3)
    np.testing.assert_array_equal(means.per_layer[0].values, feats)


def test_cwfa_missing_class_raises():
    with pytest.raises(InputError):
        cwfa(pyramid_from(np.zeros((2, 3))), [0, 0], 2)


def test_cwfa_permutation_invariance():
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((12, 5))
    perm = rng.permutation(12)
    equal = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2])
    unequal = np.array([0, 1, 2, 0, 1, 2, 1, 2, 2, 1, 0, 2])   # class sizes 3/4/5
    for labels in (equal, unequal):
        base = cwfa(pyramid_from(feats), labels, 3)
        permuted = cwfa(pyramid_from(feats[perm]), labels[perm], 3)
        # oracle: sorted-order summation per class
        for k in range(3):
            oracle = feats[labels == k].mean(axis=0)
            np.testing.assert_allclose(base.per_layer[0].values[k], oracle, rtol=1e-12)
            np.testing.assert_allclose(permuted.per_layer[0].values[k], oracle, rtol=1e-12)


def test_alignment_zero_for_identical_means():
    feats = np.random.default_rng(2).standard_normal((4, 6))
    a = cwfa(pyramid_from(feats), [0, 0, 1, 1], 2)
    b = cwfa(pyramid_from(feats.copy()), [0, 0, 1, 1], 2)
    assert feature_alignment_loss(a, b).item() == 0.0


def test_alignment_squared_norm():
    a = cwfa(pyramid_from([[0.0, 0.0]]), [0], 1)
    b = cwfa(pyramid_from([[3.0, 4.0]]), [0], 1)
    assert feature_alignment_loss(a, b).item() == pytest.approx(25.0)


def test_alignment_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    K, L = 3, 2
    real_feats = [rng.standard_normal((K * 2, 4)) for _ in range(L)]
    synth_feats = [rng.standard_normal((K, 4)) for _ in range(L)]
    labels_r = np.repeat(np.arange(K), 2)
    labels_s = np.arange(K)
    pr = FeaturePyramid([Tensor(f) for f in real_feats], Tensor(np.zeros((K * 2, 1))))
    ps = FeaturePyramid([Tensor(f) for f in synth_feats], Tensor(np.zeros((K, 1))))
    got = feature_alignment_loss(cwfa(ps, labels_s, K), cwfa(pr, labels_r, K)).item()
    # independent double-loop sum oracle
    expected = 0.0
    for l in range(L):
        for k in range(K):
            diff = synth_feats[l][labels_s == k].mean(0) - real_feats[l][labels_r == k].mean(0)
            expected += float((diff ** 2).sum())
    assert abs(got - expected) < 1e-12


def test_alignment_symmetry():
    rng = np.random.default_rng(4)
    a = cwfa(pyramid_from(rng.standard_normal((2, 3))), [0, 1], 2)
    b = cwfa(pyramid_from(rng.standard_normal((2, 3))), [0, 1], 2)
    assert feature_alignment_loss(a, b).item() == pytest.approx(
        feature_alignment_loss(b, a).item(), rel=1e-15)


def test_alignment_shape_mismatch():
    a = cwfa(pyramid_from(np.zeros((2, 3))), [0, 1], 2)
    b = cwfa(pyramid_from(np.zeros((2, 4))), [0, 1], 2)
    with pytest.raises(DimensionError):
        feature_alignment_loss(a, b)


def test_discrimination_logits_orthonormal_centers():
    centers = np.eye(3) * 2.0   # ||center||^2 = 4
    logits = discrimination_logits(Tensor(centers[1:2]), Tensor(centers))
    np.testing.assert_allclose(logits.values, [[0.0, 4.0, 0.0]])


def test_discrimination_logits_zero_rows():
    logits = discrimination_logits(Tensor(np.zeros((2, 3))),
                                   Tensor(np.random.default_rng(5).standard_normal((4, 3))))
    np.testing.assert_array_equal(logits.values, np.zeros((2, 4)))


def test_discrimination_logits_hand_product():
    real = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, -1.0]])
    centers = np.array([[1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    logits = discrimination_logits(Tensor(real), Tensor(centers))
    np.testing.assert_array_equal(logits.values, real @ centers.T)


def test_discrimination_logits_width_mismatch():
    with pytest.raises(DimensionError):
        discrimination_logits(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def test_discrimination_loss_uniform():
    loss = discrimination_loss(Tensor(np.zeros((3, 10))), [0, 5, 9])
    assert loss.item() == pytest.approx(np.log(10))


def test_discrimination_loss_saturated():
    logits = np.zeros((2, 3))
    logits[0, 0] = 20.0
    logits[1, 2] = 20.0
    assert discrimination_loss(Tensor(logits), [0, 2]).item() < 1e-8


def test_discrimination_loss_matches_oracle():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((4, 3))
    labels = rng.integers(0, 3, 4)
    expected = np.mean([np.log(np.exp(r).sum()) - r[l] for r, l in zip(logits, labels)])
    assert discrimination_loss(Tensor(logits), labels).item() == pytest.approx(expected, abs=1e-9)


def test_total_loss_weighted_sum():
    bd = total_loss(Tensor(np.array(2.0)), Tensor(np.array(3.0)), 1.0)
    assert bd.total.item() == 5.0
    bd = total_loss(Tensor(np.array(0.0)), Tensor(np.array(10.0)), 0.1)
    assert bd.total.item() == pytest.approx(1.0)


def test_total_loss_rejects_nonpositive_beta():
    with pytest.raises(ConfigError):
        total_loss(Tensor(np.array(1.0)), Tensor(np.array(1.0)), 0.0)


def test_default_beta_is_one():
    from condensery.bilevel import CondenseConfig
    assert CondenseConfig(ipc=1).beta == 1.0


def test_total_loss_identity_bitexact():
    rng = np.random.default_rng(7)
    lf, ld, beta = rng.random(), rng.random(), 0.7
    bd = total_loss(Tensor(np.array(lf)), Tensor(np.array(ld)), beta)
    # same arithmetic path as the implementation: l_f + beta * l_d
    assert bd.total.item() == lf + beta * ld


def test_total_loss_gradient_through_tiny_model():
    # gradient of the full objective w.r.t. synthetic pixels on a
    # 1-block, 4-channel, 8x8 model, vs finite differences
    rng = np.random.default_rng(8)
    spec = ConvNetSpec(blocks=1, channels=4, input_shape=(1, 8, 8), num_classes=2)
    params = init_params(spec, seed=1)
    real = rng.standard_normal((4, 1, 8, 8))
    real_labels = np.array([0, 0, 1, 1])
    synth = rng.standard_normal((2, 1, 8, 8))
    synth_labels = np.array([0, 1])

    def objective(s_tensor):
        pr = convnet_forward(params, Tensor(real))
        ps = convnet_forward(params, s_tensor)
        mr = cwfa(pr, real_labels, 2)
        ms = cwfa(ps, synth_labels, 2)
        lf = feature_alignment_loss(ms, mr)
        logits = discrimination_logits(pr.per_layer[-1], ms.per_layer[-1])
        ld = discrimination_loss(logits, real_labels)
        return total_loss(lf, ld, 1.0).total

    s = Tensor(synth.copy())
    T.backward(objective(s))
    num = numeric_grad(lambda: objective(Tensor(synth)).item(), synth)
    r = compare(s.grad, num, "total_loss_pixels")
    assert r.passed, r.detail
    assert r.worst_rel <= 1e-3


def test_lf_minimizer_is_real_class_pixel_mean():
    # identity extractor, L=1, M=1: L_f's optimum is the class pixel mean;
    # 200 SGD steps at lr 0.5 must land within 1e-2.
    rng = np.random.default_rng(9)
    K, D = 3, 6
    real = rng.standard_normal((K * 5, D))
    labels = np.repeat(np.arange(K), 5)
    target = np.stack([real[labels == k].mean(0) for k in range(K)])
    synth = Tensor(rng.standard_normal((K, D)))
    for _ in range(200):
        ms = cwfa(FeaturePyramid([synth], Tensor(np.zeros((K, 1)))), np.arange(K), K)
        mr = cwfa(FeaturePyramid([Tensor(real)], Tensor(np.zeros((K * 5, 1)))), labels, K)
        T.backward(feature_alignment_loss(ms, mr))
        T.sgd_step([synth], 0.5)
    assert np.linalg.norm(synth.values - target) <= 1e-2
