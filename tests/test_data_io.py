"""Dataset loading, normalization, container round trips, projection export."""

import csv
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condensery.bilevel import sample_class_balanced
from condensery.data import STATS_BLOCK, NormStats, denormalize, export_projection_csv, load_idx, \
    load_synthetic, make_blob_split, make_dataset, new_synthetic, \
    save_synthetic, pca_fit, SyntheticSet
from condensery.errors import InputError, ParseError
from condensery.tensor import Tensor
from idx_files import save_idx


def write_idx_fixture(tmp_path, images, labels):
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labs.idx"
    save_idx(images, labels, ip, lp)
    return ip, lp


def test_idx_round_trip_exact():
    pixels = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 1, 4, 4)
    import tempfile, pathlib
    with tempfile.TemporaryDirectory() as d:
        ip, lp = write_idx_fixture(pathlib.Path(d), pixels, [3, 7])
        ds = load_idx(ip, lp, num_classes=10)
    raw = denormalize(ds.images, ds.norm_stats)
    np.testing.assert_allclose(raw * 255.0, pixels.astype(float), atol=1e-9)
    np.testing.assert_array_equal(ds.labels, [3, 7])
    assert ds.num_classes == 10


def test_idx_bad_magic(tmp_path):
    ip, lp = write_idx_fixture(tmp_path, np.zeros((1, 1, 2, 2), np.uint8), [0])
    data = bytearray(ip.read_bytes())
    data[3] = 0x99
    ip.write_bytes(bytes(data))
    with pytest.raises(ParseError) as e:
        load_idx(ip, lp)
    assert e.value.offset == 0


def test_idx_truncated_payload(tmp_path):
    ip, lp = write_idx_fixture(tmp_path, np.zeros((2, 1, 2, 2), np.uint8), [0, 1])
    ip.write_bytes(ip.read_bytes()[:-3])
    with pytest.raises(ParseError):
        load_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    ip, lp = write_idx_fixture(tmp_path, np.zeros((2, 1, 2, 2), np.uint8), [0, 1])
    # drop the final label record and patch the header count
    raw = bytearray(lp.read_bytes())
    raw[4:8] = struct.pack(">I", 1)
    lp.write_bytes(bytes(raw[:-1]))
    with pytest.raises(ParseError):
        load_idx(ip, lp)


@pytest.mark.parametrize("shape, num_classes", [
    ((0, 1, 2, 2), None),   # labels.max() has nothing to reduce
    ((0, 1, 2, 2), 10),     # an empty split that eval's accuracy divides by
    ((2, 1, 0, 2), 10),
    ((2, 1, 2, 0), None),
])
def test_idx_empty_pair_rejected(tmp_path, shape, num_classes):
    ip, lp = write_idx_fixture(tmp_path, np.zeros(shape, np.uint8), [0] * shape[0])
    with pytest.raises(ParseError):
        load_idx(ip, lp, num_classes=num_classes)


@pytest.mark.parametrize("which, cut, edit, match, offset", [
    (0, None, (3, 0x99), "bad IDX image magic 0x00000899 in ", 0),
    (1, None, (3, 0x99), "bad IDX label magic 0x00000899 in ", 0),
    (0, 2, None, "truncated image magic: wanted 4 bytes, got 2", 0),
    (0, 10, None, "truncated image header: wanted 12 bytes, got 6", 4),
    (1, 6, None, "truncated label header: wanted 4 bytes, got 2", 4),
    (0, -1, None, r"image payload length 7 != 2\*2\*2", 16),
    (1, -1, None, r"label payload length 1 != 2", 8),
    (0, None, (11, 0), "IDX images hold 2 records of 0x2", 4),
    (1, 8, (7, 0), "IDX labels hold 0 records", 4),   # refused before the count check
])
def test_idx_image_and_label_files_share_one_reader(tmp_path, which, cut, edit, match, offset):
    # both files take the same magic, header and payload checks, each with
    # its own magic, dimension count and wording
    paths = write_idx_fixture(tmp_path, np.zeros((2, 1, 2, 2), np.uint8), [0, 1])
    raw = bytearray(paths[which].read_bytes())
    if edit:
        raw[edit[0]] = edit[1]
    paths[which].write_bytes(bytes(raw[:cut]))
    with pytest.raises(ParseError, match=match) as e:
        load_idx(*paths)
    assert e.value.offset == offset


@pytest.fixture(scope="module")
def valid_idx_pair(tmp_path_factory):
    d = tmp_path_factory.mktemp("idxfuzz")
    ip, lp = write_idx_fixture(d, np.arange(3 * 2 * 2, dtype=np.uint8).reshape(3, 1, 2, 2),
                               [0, 2, 1])
    return ip, lp, ip.read_bytes(), lp.read_bytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_load_idx_mutated_bytes_load_or_raise(valid_idx_pair, data):
    ip, lp, *valid = valid_idx_pair
    which = data.draw(st.integers(0, 1), label="file")
    raw = bytearray(valid[which])
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        edits = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255))
        for i, b in data.draw(st.lists(edits, min_size=1, max_size=8), label="edits"):
            raw[i] = b
    ip.write_bytes(bytes(raw) if which == 0 else valid[0])
    lp.write_bytes(bytes(raw) if which == 1 else valid[1])
    num_classes = data.draw(st.sampled_from([None, 3]), label="num_classes")
    try:
        load_idx(ip, lp, num_classes=num_classes)
    except ParseError:
        pass
    except InputError:
        assert num_classes is not None   # a label >= num_classes


def test_normalize_constant_channel():
    raw = np.full((5, 1, 2, 2), 0.7)
    ds = make_dataset(raw, [0] * 5, 1)
    np.testing.assert_allclose(ds.images, 0.0, atol=1e-6)
    assert ds.norm_stats.std[0] >= 1e-8


def test_normalize_round_trip():
    rng = np.random.default_rng(0)
    raw = rng.random((6, 3, 4, 4))
    kept = raw.copy()
    ds = make_dataset(raw, [0] * 6, 1)
    np.testing.assert_allclose(denormalize(ds.images, ds.norm_stats), raw, atol=1e-12)
    np.testing.assert_array_equal(raw, kept)


def test_normalize_matches_two_pass_oracle():
    rng = np.random.default_rng(1)
    raw = rng.random((10, 2, 3, 3))
    stats = make_dataset(raw, [0] * 10, 1).norm_stats
    for c in range(2):
        vals = raw[:, c].ravel()
        mean = vals.sum() / vals.size
        var = ((vals - mean) ** 2).sum() / vals.size
        assert abs(stats.mean[c] - mean) < 1e-12
        assert abs(stats.std[c] - np.sqrt(var)) < 1e-12


def test_load_idx_normalizes_in_place_with_the_bits_of_two_passes(tmp_path):
    # the uint8 pixels become the one float64 array the dataset keeps, which
    # is scaled and normalized in place while the statistics are read a block
    # at a time, so loading peaks near one image array's bytes plus the
    # payload's, not two arrays'; the bits are those of scaling, then
    # subtracting, then dividing
    rng = np.random.default_rng(7)
    pixels = rng.integers(0, 256, size=(2000, 1, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=2000)
    ip, lp = write_idx_fixture(tmp_path, pixels, labels)
    tracemalloc.start()
    try:
        ds = load_idx(ip, lp, num_classes=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ds.images.nbytes, peak / ds.images.nbytes
    raw = pixels.astype(np.float64) / 255.0
    kept = raw.copy()
    stats = NormStats.from_raw(raw)
    mean, std = stats.mean[None, :, None, None], stats.std[None, :, None, None]
    np.testing.assert_array_equal(ds.images, (raw - mean) / std)
    np.testing.assert_array_equal(make_dataset(raw, labels, 10).images, ds.images)
    np.testing.assert_array_equal(raw, kept)


def test_norm_stats_by_blocks_match_numpy():
    # two blocks and a partial third; a uint8 payload read with peak 255 has
    # the bits of its float64 copy scaled to [0, 1]
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, size=(2 * STATS_BLOCK + 37, 1, 28, 28), dtype=np.uint8)
    raw = pixels / 255.0
    stats = NormStats.from_raw(raw)
    np.testing.assert_allclose(stats.mean, raw.mean(axis=(0, 2, 3)), rtol=1e-15, atol=0)
    np.testing.assert_allclose(stats.std, raw.std(axis=(0, 2, 3)), rtol=1e-15, atol=0)
    from_pixels = NormStats.from_raw(pixels, peak=255.0)
    np.testing.assert_array_equal(from_pixels.mean, stats.mean)
    np.testing.assert_array_equal(from_pixels.std, stats.std)


def test_norm_stats_by_blocks_match_exact_sums_per_channel():
    # numpy's own sum over axes (0, 2, 3) of a multi-channel array is off
    # by up to about 1.4e-15 here, so the oracle is math.fsum
    rng = np.random.default_rng(3)
    raw = rng.random((2 * STATS_BLOCK + 37, 3, 5, 4))
    stats = NormStats.from_raw(raw)
    vals = [raw[:, c].ravel() for c in range(3)]
    mean = [math.fsum(v) / v.size for v in vals]
    std = [math.sqrt(math.fsum((v - m) ** 2) / v.size) for v, m in zip(vals, mean)]
    np.testing.assert_allclose(stats.mean, mean, rtol=1e-15, atol=0)
    np.testing.assert_allclose(stats.std, std, rtol=1e-15, atol=0)


def test_a_failed_class_check_is_not_cached():
    # a split that lacks class 1 is refused by every call, and the sampler
    # after a caught first refusal meets the same InputError, not numpy's
    ds = make_dataset(np.zeros((4, 1, 1, 1)), [0, 0, 2, 2], 3)
    for _ in range(2):
        with pytest.raises(InputError, match="no samples of class 1"):
            ds.class_indices()
    with pytest.raises(InputError, match="no samples of class 1"):
        sample_class_balanced(ds, 1, np.random.default_rng(0))


def test_dataset_normalized_space():
    ds = make_blob_split(3, 50, 1, (2, 2, 2), seed=0)[0]
    assert np.allclose(ds.images.mean(axis=(0, 2, 3)), 0.0, atol=1e-9)
    assert np.allclose(ds.images.std(axis=(0, 2, 3)), 1.0, atol=1e-6)


def test_make_blobs_nearest_mean_classifies():
    ds = make_blob_split(3, 400, 1, (1, 2, 2), spread=0.1, separation=5.0, seed=0)[0]
    feats = ds.images.reshape(len(ds), -1)
    means = np.stack([feats[ds.labels == k].mean(0) for k in range(3)])
    pred = np.argmin(np.linalg.norm(feats[:, None] - means[None], axis=2), axis=1)
    assert np.mean(pred == ds.labels) == 1.0


def test_make_blobs_deterministic():
    a = make_blob_split(3, 10, 1, (1, 2, 2), seed=3)[0]
    b = make_blob_split(3, 10, 1, (1, 2, 2), seed=3)[0]
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)


def test_make_blobs_class_mean_concentration():
    # two disjoint halves of a class estimate the same cluster center;
    # their means must agree within 3 sigma of the half-sample error
    spread, n = 0.5, 2000
    ds = make_blob_split(2, n, 1, (1, 1, 4), spread=spread, separation=5.0, seed=4)[0]
    raw = denormalize(ds.images, ds.norm_stats).reshape(2 * n, -1)
    half_sigma = spread * np.sqrt(2.0 / (n / 2))
    for k in range(2):
        cls = raw[ds.labels == k]
        gap = np.abs(cls[: n // 2].mean(0) - cls[n // 2:].mean(0))
        assert np.all(gap < 3 * half_sigma)


def test_make_blobs_rejects_single_class():
    with pytest.raises(InputError):
        make_blob_split(1, 10, 1, (1, 2, 2))


def test_blob_split_shares_stats():
    train, test = make_blob_split(3, 50, 20, (1, 2, 2), seed=5)
    assert np.array_equal(train.norm_stats.mean, test.norm_stats.mean)
    assert len(train) == 150 and len(test) == 60


def test_synthetic_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(6)
    synth = new_synthetic(10, 1, (1, 8, 8), rng, NormStats(np.array([0.5]), np.array([0.2])))
    path = tmp_path / "s.cnd"
    save_synthetic(synth, path)
    back = load_synthetic(path)
    assert np.array_equal(back.images.values, synth.images.values)
    np.testing.assert_array_equal(back.labels, synth.labels)
    assert back.ipc == 1 and back.num_classes == 10
    assert np.array_equal(back.norm_stats.mean, synth.norm_stats.mean)
    # double round trip is byte-identical
    path2 = tmp_path / "s2.cnd"
    save_synthetic(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_synthetic_save_and_load_hold_one_copy_of_the_images(tmp_path):
    # save writes the images' own buffer and load keeps its one read of the
    # file, so neither holds a second copy of the images at its peak
    stats = NormStats(np.array([0.5]), np.array([0.2]))
    synth = new_synthetic(10, 50, (1, 28, 28), np.random.default_rng(16), stats)
    path = tmp_path / "s.cnd"
    peaks = []
    for step in (lambda: save_synthetic(synth, path), lambda: load_synthetic(path)):
        tracemalloc.start()
        try:
            back = step()
            peaks.append(tracemalloc.get_traced_memory()[1] / synth.images.values.nbytes)
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.1, peaks
    assert np.array_equal(back.images.values, synth.images.values)
    assert back.images.values.flags.writeable


def test_container_bad_magic(tmp_path):
    path = tmp_path / "bad.cnd"
    path.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(ParseError) as e:
        load_synthetic(path)
    assert e.value.offset == 0
    assert "offset 0" in str(e.value)


def test_container_version_rejected(tmp_path):
    rng = np.random.default_rng(7)
    synth = new_synthetic(2, 1, (1, 2, 2), rng)
    path = tmp_path / "v.cnd"
    save_synthetic(synth, path)
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError, match="version"):
        load_synthetic(path)


def test_container_truncation(tmp_path):
    rng = np.random.default_rng(8)
    synth = new_synthetic(2, 2, (1, 2, 2), rng)
    path = tmp_path / "t.cnd"
    save_synthetic(synth, path)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(ParseError):
        load_synthetic(path)


def cnd_bytes(sections, num_classes=2, ipc=1, shape=(1, 2, 2)):
    """A CND v1 container built from the documented layout, not the writer."""
    out = b"CND1" + struct.pack("<7I", 1, num_classes, ipc, *shape, len(sections))
    for tag, payload in sections:
        out += tag.ljust(8) + struct.pack("<Q", len(payload)) + payload
    return out


def synthetic_container(labels, num_classes=3):
    images = np.zeros((len(labels), 1, 2, 2)).astype("<f8").tobytes()
    return cnd_bytes([(b"images", images), (b"labels", np.asarray(labels, "<u4").tobytes())],
                     num_classes=num_classes, ipc=len(labels) // num_classes)


def test_container_non_ascii_section_tag(tmp_path):
    path = tmp_path / "tag.cnd"
    path.write_bytes(cnd_bytes([(b"imag\xe9s", b"")]))
    with pytest.raises(ParseError, match="ASCII") as e:
        load_synthetic(path)
    assert e.value.offset == 32


@pytest.mark.parametrize("labels", [[0, 1, 99], [2, 1, 0]])
def test_container_labels_must_be_class_major(tmp_path, labels):
    path = tmp_path / "labels.cnd"
    path.write_bytes(synthetic_container(labels))
    with pytest.raises(ParseError, match="class-major"):
        load_synthetic(path)
    path.write_bytes(synthetic_container([0, 1, 2]))
    np.testing.assert_array_equal(load_synthetic(path).labels, [0, 1, 2])


def test_save_synthetic_refuses_non_class_major_labels(tmp_path):
    synth = SyntheticSet(Tensor(np.zeros((3, 1, 2, 2))), np.array([2, 1, 0]), 1, 3)
    with pytest.raises(InputError, match="class-major"):
        save_synthetic(synth, tmp_path / "s.cnd")
    assert not (tmp_path / "s.cnd").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_save_synthetic_refuses_non_finite_pixels(tmp_path, value):
    synth = new_synthetic(3, 1, (1, 2, 2), np.random.default_rng(15))
    synth.images.values[2, 0, 1, 1] = value
    with pytest.raises(InputError, match="1 non-finite"):
        save_synthetic(synth, tmp_path / "s.cnd")
    assert not (tmp_path / "s.cnd").exists()


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_load_synthetic_refuses_non_finite_pixels(tmp_path, value):
    images = np.zeros((3, 1, 2, 2))
    images[2, 0, 1, 1] = value
    path = tmp_path / "nan.cnd"
    path.write_bytes(cnd_bytes([(b"images", images.astype("<f8").tobytes()),
                                (b"labels", np.arange(3, dtype="<u4").tobytes())],
                               num_classes=3))
    with pytest.raises(ParseError, match="1 non-finite"):
        load_synthetic(path)


@pytest.mark.parametrize("shape", [(0, 2, 2), (1, 0, 2), (1, 2, 0)])
def test_load_synthetic_refuses_zero_sized_images(tmp_path, shape):
    path = tmp_path / "empty.cnd"
    path.write_bytes(cnd_bytes([(b"images", b""),
                                (b"labels", np.arange(3, dtype="<u4").tobytes())],
                               num_classes=3, shape=shape))
    with pytest.raises(ParseError, match="shape") as e:
        load_synthetic(path)
    assert e.value.offset == 16


@pytest.fixture(scope="module")
def valid_container(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "fuzzed.cnd"
    stats = NormStats(np.array([0.5]), np.array([0.2]))
    save_synthetic(new_synthetic(3, 2, (1, 2, 2), np.random.default_rng(14), stats), path)
    return path, path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_load_synthetic_mutated_bytes_load_or_raise_parse_error(valid_container, data):
    path, valid = valid_container
    raw = bytearray(valid)
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        edits = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255))
        for i, b in data.draw(st.lists(edits, min_size=1, max_size=8), label="edits"):
            raw[i] = b
    path.write_bytes(bytes(raw))
    try:
        load_synthetic(path)
    except ParseError:
        pass


def test_projection_recovers_axis_aligned_2d(tmp_path):
    rng = np.random.default_rng(10)
    real = np.zeros((50, 2))
    real[:, 0] = rng.standard_normal(50) * 3.0
    real[:, 1] = rng.standard_normal(50) * 0.5
    synth = np.array([[1.0, 0.0], [0.0, 1.0]])
    path = tmp_path / "proj.csv"
    export_projection_csv(real, synth, np.zeros(50, int), [0, 1], path)
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 52
    # first axis dominates variance -> pc1 of synthetic [1,0] bigger than of [0,1]
    s_rows = [r for r in rows if r["set"] == "synthetic"]
    mean = real.mean(0)
    assert abs(float(s_rows[0]["pc1"]) - abs(1.0 - mean[0])) < 1.0


def test_projection_matches_svd_oracle():
    rng = np.random.default_rng(11)
    feats = rng.standard_normal((40, 6))
    mean, comps = pca_fit(feats, 2)
    centered = feats - mean
    # oracle: reconstruction error from a direct SVD
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    best = centered @ vt[:2].T @ vt[:2]
    ours = centered @ comps.T @ comps
    assert abs(np.linalg.norm(centered - ours) - np.linalg.norm(centered - best)) < 1e-8


def test_projection_needs_two_samples():
    with pytest.raises(InputError):
        pca_fit(np.zeros((1, 3)))


def test_projection_row_count(tmp_path):
    rng = np.random.default_rng(12)
    path = tmp_path / "p.csv"
    export_projection_csv(rng.standard_normal((7, 3)), rng.standard_normal((4, 3)),
                          np.zeros(7, int), np.zeros(4, int), path)
    assert len(path.read_text().strip().splitlines()) == 1 + 7 + 4
