"""Writes IDX files for the tests; the library only reads them."""

import struct

import numpy as np

from condensery.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC


def save_idx(images: np.ndarray, labels, images_path, labels_path) -> None:
    """Write raw [0,255] uint8 images and labels as an IDX pair."""
    n, _, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())
