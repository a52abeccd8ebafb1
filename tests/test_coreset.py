"""Selection baselines against exhaustive and recount oracles."""

import itertools

import numpy as np
import pytest

from condensery.coreset import forgetting_events, materialize, select_forgetting, \
    select_herding, select_kcenter, select_random
from condensery.data import make_blob_split, make_dataset
from condensery.errors import InputError


def dataset_from_features(feats, labels, num_classes):
    """1-D feature vectors wrapped as [n, 1, 1, D] images, unnormalized."""
    feats = np.asarray(feats, dtype=float)
    raw = feats.reshape(len(feats), 1, 1, -1)
    ds = make_dataset(raw, labels, num_classes)
    # identity space: keep raw values so hand oracles stay exact
    ds.images = raw
    return ds


def check_invariants(sel, ds):
    assert len(sel.indices) == sel.ipc * ds.num_classes
    assert len(set(sel.indices.tolist())) == len(sel.indices)
    for k in range(ds.num_classes):
        assert all(ds.labels[i] == k for i in sel.per_class(k))


def test_random_full_class():
    ds = make_blob_split(2, 5, 1, (1, 2, 2), seed=0)[0]
    sel = select_random(ds, 5, seed=1)
    check_invariants(sel, ds)
    np.testing.assert_array_equal(np.sort(sel.per_class(0)), np.nonzero(ds.labels == 0)[0])


def test_random_deterministic_per_seed():
    ds = make_blob_split(3, 10, 1, (1, 2, 2), seed=0)[0]
    a = select_random(ds, 2, seed=5)
    b = select_random(ds, 2, seed=5)
    np.testing.assert_array_equal(a.indices, b.indices)


def test_random_histogram_uniform():
    ds = make_blob_split(2, 6, 1, (1, 1, 1), seed=0)[0]
    counts = np.zeros(len(ds))
    draws = 10_000
    for s in range(draws):
        counts[select_random(ds, 1, seed=s).indices] += 1
    # each of 6 per-class samples expected draws/6 times; 3 sigma binomial
    p = 1 / 6
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) < 3.5 * sigma)


def test_random_class_too_small():
    # every selector goes through the one per-class driver, which refuses
    # a class smaller than ipc before any pick
    ds = make_blob_split(2, 3, 1, (1, 1, 1), seed=0)[0]
    selectors = (lambda: select_random(ds, 4, seed=0), lambda: select_herding(ds, 4),
                 lambda: select_kcenter(ds, 4),
                 lambda: select_forgetting(ds, 4, np.zeros((2, len(ds)))))
    for select in selectors:
        with pytest.raises(InputError, match="^class 0 has 3 samples, fewer than ipc=4$"):
            select()


def test_herding_picks_point_near_mean():
    ds = dataset_from_features([[0.0], [10.0], [0.0], [1.0]], [0, 0, 1, 1], 2)
    sel = select_herding(ds, 1)
    # class 0 mean is 5; both points are 5 away; tie -> lower index
    assert sel.per_class(0)[0] == 0


def test_herding_full_class_reproduces_mean():
    rng = np.random.default_rng(0)
    ds = dataset_from_features(rng.standard_normal((8, 3)), [0] * 4 + [1] * 4, 2)
    sel = select_herding(ds, 4)
    check_invariants(sel, ds)
    for k in range(2):
        idx = sel.per_class(k)
        cls = np.nonzero(ds.labels == k)[0]
        gap = np.linalg.norm(ds.images[cls].reshape(4, -1).mean(0)
                             - ds.images[idx].reshape(4, -1).mean(0))
        assert gap < 1e-12


def test_herding_vs_exhaustive_subset_oracle():
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((12, 2))
    ds = dataset_from_features(feats, [0] * 12, 1)
    ipc = 3
    sel = select_herding(ds, ipc)
    mu = feats.mean(0)
    greedy_gap = np.linalg.norm(mu - feats[sel.indices].mean(0))
    best_gap = min(np.linalg.norm(mu - feats[list(sub)].mean(0))
                   for sub in itertools.combinations(range(12), ipc))
    # greedy is not always optimal but must be close and never better than optimum
    assert greedy_gap >= best_gap - 1e-12
    assert greedy_gap <= 5 * best_gap + 0.5


def test_kcenter_covers_separated_clusters():
    feats = [[0.0], [0.2], [10.0], [10.2]]
    ds = dataset_from_features(feats, [0] * 4, 1)
    sel = select_kcenter(ds, 2)
    picked = np.sort(np.asarray(feats)[sel.indices].ravel())
    assert picked[0] < 1.0 and picked[1] > 9.0


def test_kcenter_ipc1_is_medoid_to_mean():
    feats = [[0.0], [4.0], [10.0]]
    ds = dataset_from_features(feats, [0] * 3, 1)
    sel = select_kcenter(ds, 1)
    assert sel.indices[0] == 1   # mean 14/3 ~ 4.67, closest point is 4.0


def test_kcenter_two_approximation():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((10, 2))
    ds = dataset_from_features(feats, [0] * 10, 1)
    ipc = 3
    sel = select_kcenter(ds, ipc)

    def radius(centers):
        d = np.linalg.norm(feats[:, None, :] - feats[None, centers, :], axis=2)
        return d.min(axis=1).max()

    greedy_r = radius(list(sel.indices))
    best_r = min(radius(list(sub)) for sub in itertools.combinations(range(10), ipc))
    assert greedy_r <= 2 * best_r + 1e-12


def _herding_norm_loop(ds, ipc):
    """Herding as a norm over the whole class matrix per pick."""
    picks = []
    for idx in ds.class_indices():
        feats = ds.images[idx].reshape(len(idx), -1)
        mu = feats.mean(axis=0)
        chosen, running = [], np.zeros_like(mu)
        avail = np.ones(len(idx), dtype=bool)
        for t in range(1, ipc + 1):
            gaps = np.linalg.norm(mu[None, :] - (running[None, :] + feats) / t, axis=1)
            gaps[~avail] = np.inf
            best = int(np.argmin(gaps))
            chosen.append(best)
            avail[best] = False
            running += feats[best]
        picks.append(idx[np.array(chosen)])
    return np.concatenate(picks)


def _kcenter_norm_loop(ds, ipc):
    """K-center as a norm over the whole class matrix per pick."""
    picks = []
    for idx in ds.class_indices():
        feats = ds.images[idx].reshape(len(idx), -1)
        first = int(np.argmin(np.linalg.norm(feats - feats.mean(axis=0), axis=1)))
        chosen = [first]
        mind = np.linalg.norm(feats - feats[first], axis=1)
        for _ in range(1, ipc):
            mind[chosen] = -np.inf
            nxt = int(np.argmax(mind))
            chosen.append(nxt)
            mind = np.minimum(mind, np.linalg.norm(feats - feats[nxt], axis=1))
        picks.append(idx[np.array(chosen)])
    return np.concatenate(picks)


@pytest.mark.parametrize("seed", range(5))
def test_selectors_match_the_norm_loops(seed):
    # one matvec per pick on the squared-distance expansion picks what a
    # norm over the class matrix picks
    ds = make_blob_split(3, 40, 1, (1, 8, 8), seed=seed)[0]
    for ipc in (1, 7, 40):
        np.testing.assert_array_equal(select_herding(ds, ipc).indices, _herding_norm_loop(ds, ipc))
        np.testing.assert_array_equal(select_kcenter(ds, ipc).indices, _kcenter_norm_loop(ds, ipc))


def test_selectors_give_equal_rows_to_the_lowest_index():
    # five distinct rows, each repeated: equal rows tie exactly, so herding
    # takes the lowest of them, and once every row left equals a centre,
    # all are 0 away and k-center takes the lowest
    rng = np.random.default_rng(7)
    base = rng.standard_normal((5, 9))
    ds = dataset_from_features(base[rng.integers(0, 5, size=30)], [0, 1] * 15, 2)
    for ipc in (1, 4, 9, 15):
        np.testing.assert_array_equal(select_herding(ds, ipc).indices, _herding_norm_loop(ds, ipc))
        np.testing.assert_array_equal(select_kcenter(ds, ipc).indices, _kcenter_norm_loop(ds, ipc))


def test_forgetting_event_counts():
    assert forgetting_events(np.array([[1], [1], [1]]))[0] == 0
    assert forgetting_events(np.array([[1], [0], [1], [0]]))[0] == 2


def test_forgetting_needs_two_epochs():
    with pytest.raises(InputError):
        forgetting_events(np.ones((1, 4)))


def test_forgetting_selection_matches_recount_oracle():
    rng = np.random.default_rng(3)
    n, epochs = 20, 8
    ds = dataset_from_features(rng.standard_normal((n, 2)), [0] * 10 + [1] * 10, 2)
    trace = rng.integers(0, 2, size=(epochs, n))
    sel = select_forgetting(ds, 3, trace)
    check_invariants(sel, ds)
    # independent recount: explicit python loop over transitions
    counts = []
    for i in range(n):
        c = 0
        for e in range(1, epochs):
            if trace[e - 1, i] == 1 and trace[e, i] == 0:
                c += 1
        counts.append(c)
    for k in range(2):
        cls = [i for i in range(n) if ds.labels[i] == k]
        expect = sorted(cls, key=lambda i: (-counts[i], i))[:3]
        np.testing.assert_array_equal(sel.per_class(k), expect)


def test_materialize_is_class_major():
    ds = make_blob_split(3, 5, 1, (1, 2, 2), seed=4)[0]
    sel = select_random(ds, 2, seed=0)
    synth = materialize(ds, sel)
    np.testing.assert_array_equal(synth.labels, [0, 0, 1, 1, 2, 2])
    np.testing.assert_array_equal(synth.images.values, ds.images[sel.indices])


def test_selection_csv(tmp_path):
    ds = make_blob_split(2, 4, 1, (1, 2, 2), seed=5)[0]
    sel = select_random(ds, 2, seed=0)
    path = tmp_path / "sel.csv"
    sel.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "class,rank,dataset_index"
    assert len(lines) == 1 + 4
