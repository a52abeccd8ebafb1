"""Dataset ingestion, normalization, the CND binary container, and the
2-D PCA projection export.

IDX files (big-endian headers) cover MNIST/FashionMNIST; Gaussian blob
datasets provide a desk-scale oracle. All loaded datasets live in
normalized space with per-channel mean 0 / std 1 computed on the training
split. Every split is one float64 array that it owns (an IDX split's
scaled payload, a blob split's draw, ``make_dataset``'s copy of its
input), normalized in place with statistics read ``STATS_BLOCK`` samples
at a time, so building holds no other array the size of the split.
``idx_stats`` reads a split's class count and statistics from its uint8
pixels, with the bits ``load_idx`` gives them, without building the split.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionError, InputError, ParseError
from .tensor import Tensor

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

CND_MAGIC = b"CND1"
CND_VERSION = 1

# samples per block of NormStats.from_raw
STATS_BLOCK = 256
# floor of NormStats.std, so a constant channel is divided by it, not by 0
STD_EPS = 1e-8


@dataclass
class NormStats:
    mean: np.ndarray   # per channel
    std: np.ndarray    # per channel, at least STD_EPS

    @staticmethod
    def from_raw(images: np.ndarray, peak: float = 1.0) -> "NormStats":
        """Per-channel mean and std of ``images / peak`` over [n, C, H, W], in
        two passes of ``STATS_BLOCK`` samples, so no temporary is the size of
        the dataset. A uint8 payload read with ``peak`` 255 gives the bits of
        its float64 copy scaled to [0, 1]."""
        n, c, h, w = images.shape
        blocks = [images[a:a + STATS_BLOCK] for a in range(0, n, STATS_BLOCK)]
        total, squares = np.zeros(c), np.zeros(c)
        for b in blocks:
            total += np.divide(b, peak).sum(axis=(0, 2, 3))
        mean = total / (n * h * w)
        for b in blocks:
            x = np.divide(b, peak)
            x -= mean[:, None, None]
            x *= x
            squares += x.sum(axis=(0, 2, 3))
        return NormStats(mean, np.maximum(np.sqrt(squares / (n * h * w)), STD_EPS))


@dataclass
class LabeledDataset:
    images: np.ndarray            # [n, C, H, W], normalized space
    labels: np.ndarray            # [n] int
    num_classes: int
    norm_stats: NormStats
    _class_idx: Optional[list] = field(default=None, init=False, repr=False)

    @property
    def image_shape(self) -> tuple:
        return tuple(self.images.shape[1:])

    def __len__(self) -> int:
        return self.images.shape[0]

    def class_indices(self) -> list:
        if self._class_idx is None:
            groups = [np.nonzero(self.labels == k)[0] for k in range(self.num_classes)]
            for k, idx in enumerate(groups):
                if idx.size == 0:
                    raise InputError(f"dataset has no samples of class {k}")
            self._class_idx = groups
        return self._class_idx


@dataclass
class SyntheticSet:
    """Learnable images with fixed class-major labels, ipc per class."""
    images: Tensor                # [K*ipc, C, H, W]
    labels: np.ndarray
    ipc: int
    num_classes: int
    norm_stats: Optional[NormStats] = None

    @property
    def image_shape(self) -> tuple:
        return tuple(self.images.shape[1:])


def _class_major(num_classes: int, ipc: int) -> np.ndarray:
    return np.repeat(np.arange(num_classes), ipc)


def new_synthetic(num_classes: int, ipc: int, image_shape: tuple, rng: np.random.Generator,
                  norm_stats: Optional[NormStats] = None) -> SyntheticSet:
    """Synthetic set initialized from standard Gaussian noise."""
    images = Tensor(rng.standard_normal((num_classes * ipc, *image_shape)))
    return SyntheticSet(images, _class_major(num_classes, ipc), ipc, num_classes, norm_stats)


# ---------------------------------------------------------------------------
# normalization and split construction


def denormalize(img: np.ndarray, stats: NormStats) -> np.ndarray:
    return img * stats.std[:, None, None] + stats.mean[:, None, None]


def _class_labels(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise InputError(f"label out of range [0, {num_classes})")
    return labels


def _split(images: np.ndarray, labels: np.ndarray, num_classes: int,
           stats: Optional[NormStats]) -> LabeledDataset:
    """A split that owns ``images``, float64, normalized in place per channel
    as (x - mean) / std; stats are computed if not given; ``labels`` come checked."""
    if stats is None:
        stats = NormStats.from_raw(images)
    images -= stats.mean[None, :, None, None]
    images /= stats.std[None, :, None, None]
    return LabeledDataset(images, labels, num_classes, stats)


def make_dataset(raw: np.ndarray, labels: np.ndarray, num_classes: int,
                 stats: Optional[NormStats] = None) -> LabeledDataset:
    """A split normalized in a float64 copy of ``raw``, never in ``raw``."""
    labels = _class_labels(labels, num_classes)
    return _split(np.array(raw, dtype=np.float64), labels, num_classes, stats)


# ---------------------------------------------------------------------------
# IDX parsing


def _read_idx_file(path, magic: int, what: str, ndim: int) -> tuple:
    """An IDX file's dimensions and payload: ``magic`` as a big-endian u32,
    then ``ndim`` big-endian u32 dimensions, each at least 1, then exactly
    their product of bytes."""
    with open(path, "rb") as f:
        data = memoryview(f.read())
    if len(data) < 4:
        raise ParseError(f"truncated {what} magic: wanted 4 bytes, got {len(data)}", 0)
    if (found := struct.unpack(">I", data[:4])[0]) != magic:
        raise ParseError(f"bad IDX {what} magic 0x{found:08x} in {path}", 0)
    end = 4 + 4 * ndim
    if len(data) < end:
        raise ParseError(
            f"truncated {what} header: wanted {end - 4} bytes, got {len(data) - 4}", 4)
    dims = struct.unpack(f">{ndim}I", data[4:end])
    if not all(dims):
        of = "x".join(map(str, dims[1:]))
        raise ParseError(f"IDX {what}s hold {dims[0]} records" + (f" of {of}" if of else ""), 4)
    payload = data[end:]
    if len(payload) != math.prod(dims):
        raise ParseError(
            f"{what} payload length {len(payload)} != {'*'.join(map(str, dims))}", end)
    return dims, np.frombuffer(payload, dtype=np.uint8)


def _read_idx(images_path, labels_path, num_classes: Optional[int]) -> tuple:
    """An IDX image/label file pair's uint8 pixels [n, 1, rows, cols], its
    labels and its class count: the labels' count unless given."""
    (n, rows, cols), pixels = _read_idx_file(images_path, IDX_IMAGES_MAGIC, "image", 3)
    (n_lab,), labels = _read_idx_file(labels_path, IDX_LABELS_MAGIC, "label", 1)
    if n != n_lab:
        raise ParseError(f"image count {n} != label count {n_lab}")
    k = num_classes if num_classes is not None else int(labels.max()) + 1
    return pixels.reshape(n, 1, rows, cols), _class_labels(labels, k), k


def load_idx(images_path, labels_path, num_classes: Optional[int] = None,
             stats: Optional[NormStats] = None) -> LabeledDataset:
    """Parse an IDX image/label file pair into a normalized dataset.

    Pixels are scaled to [0, 1] before per-channel normalization. Pass
    the training split's ``stats`` when loading a test split. The uint8
    payload becomes the one float64 array the dataset keeps, scaled and
    normalized in place.
    """
    pixels, labels, k = _read_idx(images_path, labels_path, num_classes)
    images = pixels.astype(np.float64)
    del pixels      # the payload goes once its float64 copy exists
    images /= 255.0
    return _split(images, labels, k, stats)


def idx_stats(images_path, labels_path, num_classes: Optional[int] = None) -> tuple:
    """The class count and ``NormStats`` that ``load_idx`` gives this pair,
    bit for bit, read from its uint8 pixels without building the dataset."""
    pixels, _, k = _read_idx(images_path, labels_path, num_classes)
    return k, NormStats.from_raw(pixels, peak=255.0)


# ---------------------------------------------------------------------------
# Gaussian blob oracle datasets


def make_blob_split(num_classes: int, n_train: int, n_test: int, shape: tuple,
                    spread: float = 0.1, separation: float = 5.0,
                    seed: int = 0) -> tuple[LabeledDataset, LabeledDataset]:
    """Isotropic Gaussian clusters around well-separated random class
    means: a train and a test split per class, drawn in that order, the
    test split normalized with the train split's stats."""
    if num_classes < 2:
        raise InputError(f"need at least 2 classes, got {num_classes}")
    rng = np.random.default_rng(seed)
    dim = int(np.prod(shape))
    means = rng.standard_normal((num_classes, dim))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)

    def draw(n_per: int, stats: Optional[NormStats]) -> LabeledDataset:
        raw = np.repeat(means, n_per, axis=0) + spread * rng.standard_normal(
            (num_classes * n_per, dim))
        labels = _class_major(num_classes, n_per)
        return _split(raw.reshape(-1, *shape), labels, num_classes, stats)

    train = draw(n_train, None)
    return train, draw(n_test, train.norm_stats)


# ---------------------------------------------------------------------------
# CND container


def _non_finite(a: np.ndarray) -> int:
    """How many entries of ``a`` are NaN or infinite. Its min and max are
    finite exactly when all are, so a finite array is read with no mask."""
    if np.isfinite(a.min(initial=0.0)) and np.isfinite(a.max(initial=0.0)):
        return 0
    return int(np.count_nonzero(~np.isfinite(a)))


def _read_container(path) -> tuple[dict, dict]:
    """The header and each section as a view of one writable buffer that
    holds the whole file; a tag that appears twice is refused."""
    with open(path, "rb") as f:
        data = memoryview(bytearray(os.fstat(f.fileno()).st_size))
        data = data[:f.readinto(data)]
    if data[:4] != CND_MAGIC:
        raise ParseError(f"bad container magic {bytes(data[:4])!r}, expected {CND_MAGIC!r}", 0)
    if len(data) < 32:
        raise ParseError("truncated container header", 4)
    version, K, ipc, C, H, W, nsec = struct.unpack("<7I", data[4:32])
    if version != CND_VERSION:
        raise ParseError(f"unsupported container version {version}, expected {CND_VERSION}", 4)
    header = {"num_classes": K, "ipc": ipc, "shape": (C, H, W)}
    sections = {}
    off = 32
    for _ in range(nsec):
        if off + 16 > len(data):
            raise ParseError("truncated section header", off)
        try:
            tag = bytes(data[off:off + 8]).decode("ascii").strip()
        except UnicodeDecodeError:
            raise ParseError("section tag is not ASCII", off) from None
        if tag in sections:
            raise ParseError(f"section {tag!r} appears twice", off)
        length = struct.unpack("<Q", data[off + 8:off + 16])[0]
        off += 16
        if off + length > len(data):
            raise ParseError(f"truncated section {tag!r}: declared {length} bytes", off)
        sections[tag] = data[off:off + length]
        off += length
    return header, sections


def _section_array(sections: dict, tag: str, dtype: str, count: int) -> np.ndarray:
    buf = sections[tag]
    if len(buf) != count * np.dtype(dtype).itemsize:
        raise ParseError(f"{tag} section holds {len(buf)} bytes, expected {count} {dtype} values")
    return np.frombuffer(buf, dtype=dtype)


def save_synthetic(synth: SyntheticSet, path) -> None:
    """Write a CND container: magic, a header of seven little-endian u32
    (version, classes, ipc, C, H, W, section count), then sections of an
    8-byte ASCII tag, a u64 length and the payload."""
    if not np.array_equal(synth.labels, _class_major(synth.num_classes, synth.ipc)):
        raise InputError(f"labels must be class-major: {synth.ipc} of each class "
                         f"0..{synth.num_classes - 1}")
    # each payload is written from its array's own little-endian buffer,
    # which is the images' values themselves on a little-endian host
    images = np.ascontiguousarray(synth.images.values, dtype="<f8")
    if bad := _non_finite(images):
        raise InputError(f"synthetic images hold {bad} non-finite values")
    sections = [(b"images", images), (b"labels", synth.labels.astype("<u4"))]
    if (stats := synth.norm_stats) is not None:
        sections.append((b"normstat", np.concatenate([stats.mean, stats.std]).astype("<f8")))
    C, H, W = synth.image_shape
    with open(path, "wb") as f:
        f.write(CND_MAGIC + struct.pack("<7I", CND_VERSION, synth.num_classes, synth.ipc,
                                        C, H, W, len(sections)))
        for tag, payload in sections:
            f.write(tag.ljust(8) + struct.pack("<Q", payload.nbytes))
            f.write(payload.reshape(-1).view(np.uint8))


def load_synthetic(path) -> SyntheticSet:
    header, sections = _read_container(path)
    K, ipc = header["num_classes"], header["ipc"]
    C, H, W = header["shape"]
    if K < 1 or ipc < 1:
        raise ParseError(f"container declares {K} classes of {ipc} images", 8)
    if not (C and H and W):
        raise ParseError(f"container declares images of shape {C}x{H}x{W}", 16)
    n = K * ipc
    if "images" not in sections or "labels" not in sections:
        raise ParseError("container missing images/labels sections")
    img = _section_array(sections, "images", "<f8", n * C * H * W)
    if bad := _non_finite(img):
        raise ParseError(f"images section holds {bad} non-finite values")
    labels = _section_array(sections, "labels", "<u4", n).astype(np.int64)
    if not np.array_equal(labels, _class_major(K, ipc)):
        raise ParseError(f"labels are not class-major: {ipc} of each class 0..{K - 1}")
    stats = None
    if "normstat" in sections:
        arr = _section_array(sections, "normstat", "<f8", 2 * C)
        stats = NormStats(arr[:C].copy(), arr[C:].copy())
    # the images keep the file's buffer, a copy only if their section does
    # not start on an 8-byte boundary
    images = Tensor(np.require(img.reshape(n, C, H, W), requirements="A"))
    return SyntheticSet(images, labels, ipc, K, stats)


# ---------------------------------------------------------------------------
# PCA projection export


def pca_fit(feats: np.ndarray, k: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Top-k principal axes of ``feats`` via SVD; returns (mean, components)."""
    if feats.shape[0] < 2:
        raise InputError("need at least 2 samples to fit a projection")
    mean = feats.mean(axis=0)
    _, _, vt = np.linalg.svd(feats - mean, full_matrices=False)
    return mean, vt[:k]


def export_projection_csv(real_feats: np.ndarray, synth_feats: np.ndarray,
                          real_labels, synth_labels, path) -> None:
    """Fit 2-D PCA on real features, project both sets, write a CSV."""
    if real_feats.shape[1] != synth_feats.shape[1]:
        raise DimensionError(
            f"feature widths differ: {real_feats.shape[1]} vs {synth_feats.shape[1]}")
    mean, comps = pca_fit(real_feats, 2)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["set", "class", "pc1", "pc2"])
        for tag, feats, labels in (("real", real_feats, real_labels),
                                   ("synthetic", synth_feats, synth_labels)):
            proj = (feats - mean) @ comps.T
            for row, lab in zip(proj, np.asarray(labels)):
                w.writerow([tag, int(lab), repr(float(row[0])), repr(float(row[1]))])
