"""Synthetic image dataset and IDX-style binary I/O."""

from __future__ import annotations

import struct

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803  # unsigned byte, 3 dims
IDX_LABELS_MAGIC = 0x00000801  # unsigned byte, 1 dim


def synthetic_dataset(num_samples: int, seed: int, num_classes: int = 10,
                      image_size: int = 16, noise: float = 0.9):
    """Seeded 10-class generator: Gaussian class prototypes plus pixel noise.

    Returns (images uint8 [N, S, S], labels int64 [N]) with balanced classes.
    """
    rng = np.random.default_rng(seed)
    protos = rng.normal(0.0, 1.0, size=(num_classes, image_size, image_size))
    labels = rng.permutation(np.arange(num_samples) % num_classes)
    imgs = protos[labels] + noise * rng.normal(0.0, 1.0, size=(num_samples, image_size, image_size))
    imgs = np.clip(128.0 + 40.0 * imgs, 0, 255).astype(np.uint8)
    return imgs, labels.astype(np.int64)


def images_to_patches(images, patch_size: int = 4) -> np.ndarray:
    """uint8 [N, H, W] -> float [N, num_patches, patch_size**2] in [0, 1]."""
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


def load_idx_images(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        magic, n, h, w = _read_header(f, path, ">IIII")
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError(f"{path}: bad IDX image magic {magic:#010x}")
        data = np.frombuffer(f.read(n * h * w), dtype=np.uint8)
    if data.size != n * h * w:
        raise ValueError(f"{path}: truncated IDX image payload")
    return data.reshape(n, h, w)


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
        data = np.frombuffer(f.read(n), dtype=np.uint8)
    if data.size != n:
        raise ValueError(f"{path}: truncated IDX label payload")
    return data.astype(np.int64)
