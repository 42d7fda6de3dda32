"""Synthetic image dataset and IDX-style binary I/O."""

from __future__ import annotations

import os
import struct

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803  # unsigned byte, 3 dims
IDX_LABELS_MAGIC = 0x00000801  # unsigned byte, 1 dim


def synthetic_dataset(num_samples: int, seed: int):
    """Seeded 10-class generator: Gaussian class prototypes plus pixel noise.

    Returns (images uint8 [N, 16, 16], labels int64 [N]) with balanced classes.
    """
    if num_samples < 0:  # numpy's own message names no argument
        raise ValueError(f"num_samples must be >= 0, got {num_samples}")
    num_classes, image_size, noise = 10, 16, 0.9
    rng = np.random.default_rng(seed)
    protos = rng.normal(0.0, 1.0, size=(num_classes, image_size, image_size))
    labels = rng.permutation(np.arange(num_samples) % num_classes)
    imgs = protos[labels] + noise * rng.normal(0.0, 1.0, size=(num_samples, image_size, image_size))
    imgs = np.clip(128.0 + 40.0 * imgs, 0, 255).astype(np.uint8)
    return imgs, labels.astype(np.int64)


def images_to_patches(images) -> np.ndarray:
    """uint8 [N, H, W] -> float [N, num_patches, 16] in [0, 1], one row per
    4x4 patch."""
    patch_size = 4
    images = np.asarray(images)
    n, h, w = images.shape
    if h % patch_size or w % patch_size:
        raise ValueError(f"image size {h}x{w} not divisible by patch size {patch_size}")
    gh, gw = h // patch_size, w // patch_size
    x = images.reshape(n, gh, patch_size, gw, patch_size)
    x = x.transpose(0, 1, 3, 2, 4).reshape(n, gh * gw, patch_size * patch_size)
    return x.astype(np.float64) / 255.0


def save_idx_images(path: str, images) -> None:
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        f.write(images.tobytes(order="C"))


def _read_header(f, path, fmt):
    size = struct.calcsize(fmt)
    blob = f.read(size)
    if len(blob) != size:
        raise ValueError(f"{path}: truncated IDX header")
    return struct.unpack(fmt, blob)


def _read_payload(f, path, size, what):
    # compare with the file length first: a corrupt header can claim more
    # bytes than a read can allocate
    if os.fstat(f.fileno()).st_size - f.tell() < size:
        raise ValueError(f"{path}: truncated IDX {what} payload")
    return np.frombuffer(f.read(size), dtype=np.uint8)


def load_idx_images(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        magic, n, h, w = _read_header(f, path, ">IIII")
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError(f"{path}: bad IDX image magic {magic:#010x}")
        # with a zero dimension the payload is empty, yet numpy still
        # refuses a shape whose other dimensions overflow its index type
        if max(n, 1) * max(h, 1) * max(w, 1) > np.iinfo(np.intp).max:
            raise ValueError(f"{path}: IDX image shape {(n, h, w)} is too large")
        return _read_payload(f, path, n * h * w, "image").reshape(n, h, w)


def save_idx_labels(path: str, labels) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.size))
        f.write(labels.tobytes())


def load_idx_labels(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        magic, n = _read_header(f, path, ">II")
        if magic != IDX_LABELS_MAGIC:
            raise ValueError(f"{path}: bad IDX label magic {magic:#010x}")
        return _read_payload(f, path, n, "label").astype(np.int64)
