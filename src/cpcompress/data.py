"""Built-in synthetic image classification task.

Ten classes of procedurally generated 3x16x16 images: oriented sinusoid
gratings with class-specific orientation, frequency and channel mixing,
randomized per sample in phase, amplitude and additive noise.  Everything
is derived from one seed, so the task is fully reproducible and needs no
downloads.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "make_synthetic_dataset"]


@dataclass(frozen=True)
class Dataset:
    train_x: np.ndarray  # (N, C, W, H) float64
    train_y: np.ndarray  # (N,) int64
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def n_classes(self) -> int:
        return int(self.train_y.max()) + 1


def _class_params(k: int, n_classes: int):
    orientation = np.pi * (k % 5) / 5.0
    frequency = 2.0 if k < n_classes // 2 else 3.5
    mix = np.array([
        0.6 + 0.4 * np.cos(2 * np.pi * k / n_classes),
        0.6 + 0.4 * np.cos(2 * np.pi * k / n_classes + 2.1),
        0.6 + 0.4 * np.cos(2 * np.pi * k / n_classes + 4.2),
    ])
    return orientation, frequency, mix / np.linalg.norm(mix)


# Samples per block of additive noise.  Drawing it block by block gives the
# same normal stream as one whole-split draw, without a whole-split temporary.
_NOISE_BLOCK = 64


def _render(labels, size, n_classes, noise, rng):
    n = labels.size
    grid = np.arange(size) / size
    yy, xx = np.meshgrid(grid, grid, indexing="ij")
    images = np.empty((n, 3, size, size))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    amplitudes = rng.uniform(0.75, 1.25, size=n)
    for i, label in enumerate(labels):
        orientation, frequency, mix = _class_params(int(label), n_classes)
        axis = xx * np.cos(orientation) + yy * np.sin(orientation)
        grating = np.sin(2.0 * np.pi * frequency * axis + phases[i])
        images[i] = amplitudes[i] * mix[:, None, None] * grating
    for start in range(0, n, _NOISE_BLOCK):
        block = images[start : start + _NOISE_BLOCK]
        block += noise * rng.standard_normal(block.shape)
    return images


def make_synthetic_dataset(
    n_train: int = 2000,
    n_test: int = 500,
    size: int = 16,
    n_classes: int = 10,
    noise: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Balanced, shuffled, seeded train/test splits of the grating task."""
    rng = np.random.default_rng(seed)

    def split(count):
        labels = np.arange(count) % n_classes
        labels = rng.permutation(labels)
        return _render(labels, size, n_classes, noise, rng), labels.astype(np.int64)

    train_x, train_y = split(n_train)
    test_x, test_y = split(n_test)
    return Dataset(train_x, train_y, test_x, test_y)
