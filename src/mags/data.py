"""Datasets: IDX binary loading, spatial patch partitioning, splits, and a
synthetic patch-classifiable dataset for desk-scale runs.

Pixels are scaled by 1/255 into [0, 1] with no mean-centering, so 0 stays the
"no signal" value that zero imputation of faulted features relies on.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IdxFormatError
from .rng import stream

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

SYNTH_SIDE = 28  # synthetic images are SYNTH_SIDE pixels square
# Synthetic class means sit at 0.5 +/- this amplitude (per-pixel sign pattern).
SYNTH_AMPLITUDE = 0.12
# Rows per synthetic noise block: block j draws its noise from its own
# stream, keyed by j, and a build clips one block at a time. It is part of
# the data contract: changing it changes every noisy image.
SYNTH_CHUNK_ROWS = 1024


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64 in [0, 1]
    labels: np.ndarray    # (n,) int64
    class_count: int

    def __len__(self):
        return self.features.shape[0]

    @property
    def feature_count(self):
        return self.features.shape[1]


@dataclass
class PartitionSpec:
    """Disjoint per-client feature index sets covering all d features.

    Client c (1-based, row-major over the patch grid) owns the columns in
    ``client_columns[c-1]``: the (side/g) x (side/g) pixel block flattened
    row-major within the block.
    """

    grid_side: int
    feature_count: int
    client_columns: list

    @property
    def client_count(self):
        return self.grid_side * self.grid_side

    def patch_dims(self):
        return [len(cols) for cols in self.client_columns]


@dataclass
class ClientSplit:
    """One split as its clients hold it: ``views`` is the client-major (C,
    n, d) stack that ``client_views`` builds over ``partition``, and
    ``labels`` the (n,) int64 labels of its rows."""

    views: np.ndarray
    labels: np.ndarray
    class_count: int
    partition: PartitionSpec

    def __len__(self):
        return self.labels.shape[0]


def read_idx(images_path, labels_path, class_count=None):
    """Parse big-endian IDX image/label files, each read once: the (n, d)
    uint8 pixels (a view of the image file's bytes), the (n,) int64 labels
    and the class count. Every label must lie below ``class_count`` when it
    is given; a file with no image, or with no pixel per image, is
    malformed too."""
    with open(images_path, "rb") as f:
        buf = f.read()
    if len(buf) < 16:
        raise IdxFormatError(f"{images_path}: truncated header ({len(buf)} bytes)")
    magic, n, rows, cols = struct.unpack(">iiii", buf[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(f"{images_path}: bad image magic 0x{magic:08x}")
    if n < 1:
        raise IdxFormatError(f"{images_path}: holds {n} images, needs at least 1")
    if rows < 1 or cols < 1:
        raise IdxFormatError(f"{images_path}: images of {rows} x {cols} pixels, "
                             f"need at least 1 x 1")
    expected = 16 + n * rows * cols
    if len(buf) != expected:
        raise IdxFormatError(f"{images_path}: expected {expected} bytes, found {len(buf)}")
    pixels = np.frombuffer(buf, dtype=np.uint8, offset=16).reshape(n, rows * cols)

    with open(labels_path, "rb") as f:
        lbuf = f.read()
    if len(lbuf) < 8:
        raise IdxFormatError(f"{labels_path}: truncated header ({len(lbuf)} bytes)")
    lmagic, ln = struct.unpack(">ii", lbuf[:8])
    if lmagic != IDX_LABEL_MAGIC:
        raise IdxFormatError(f"{labels_path}: bad label magic 0x{lmagic:08x}")
    if len(lbuf) != 8 + ln:
        raise IdxFormatError(f"{labels_path}: expected {8 + ln} bytes, found {len(lbuf)}")
    if ln != n:
        raise IdxFormatError(f"label count {ln} does not match image count {n}")
    labels = np.frombuffer(lbuf, dtype=np.uint8, offset=8).astype(np.int64)

    if class_count is None:
        class_count = int(labels.max()) + 1
    elif labels.max() >= class_count:
        raise IdxFormatError(f"{labels_path}: label {labels.max()} is not below the class count "
                             f"{class_count}")
    return pixels, labels, class_count


def scale_pixels(pixels: np.ndarray) -> np.ndarray:
    """uint8 pixels as float64 features in [0, 1]."""
    return pixels.astype(np.float64) / 255.0


def split_patches(feature_count: int, g: int) -> PartitionSpec:
    """Partition a side x side image into g x g square patches, one per client."""
    side = math.isqrt(feature_count)
    if side * side != feature_count:
        raise ConfigError(f"feature count {feature_count} is not a square image")
    if g < 1 or side % g != 0:
        raise ConfigError(f"image side {side} is not divisible by grid side {g}")
    block = side // g
    # pixel (patch row, row in patch, patch column, column in patch), patch-major
    cols = np.arange(feature_count, dtype=np.int64).reshape(g, block, g, block)
    return PartitionSpec(g, feature_count, list(cols.transpose(0, 2, 1, 3).reshape(g * g, -1)))


def client_views(features: np.ndarray, spec: PartitionSpec, out=None) -> np.ndarray:
    """Every client's feature matrix, stacked client-major into one (C, n, d)
    array: row c-1 is client c's patches, and ``views[:, idx]`` is a (C, B,
    d) batch. It is written into ``out`` when given, e.g. ``views[:, a:b]``
    of a split's views, which ``config.build_dataset`` fills one block of
    rows at a time, and is else a fresh C-contiguous array."""
    if features.shape[1] != spec.feature_count:
        raise ConfigError(f"features have {features.shape[1]} columns, partition expects {spec.feature_count}")
    cols = spec.client_columns
    views = np.empty((len(cols), features.shape[0], len(cols[0]))) if out is None else out
    # the columns are in range: mode="clip" only skips take's buffered copy of ``out``
    for c, idx in enumerate(cols):
        np.take(features, idx, axis=1, out=views[c], mode="clip")
    return views


def make_splits(n: int, seed: int):
    """Seeded 80/20 train/validation split of ``n`` rows (60000 ->
    48000/12000), as two row-index arrays: a split is gathered by row from
    the pool, e.g. from its client views, never copied out of it.

    The permutation comes from numpy's PCG64 generator, which is stable
    across platforms for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = (4 * n) // 5
    return order[:n_train], order[n_train:]


def one_hot(labels: np.ndarray, class_count: int) -> np.ndarray:
    y = np.zeros((labels.shape[0], class_count), dtype=np.float64)
    y[np.arange(labels.shape[0]), labels] = 1.0
    return y


def synth_dataset(n: int, classes: int, g: int, seed: int, noise: float,
                  rows=None) -> Dataset:
    """Synthetic 28x28 dataset: one fixed mean image per class (a seeded
    per-pixel sign pattern around 0.5, so every patch carries class signal),
    plus Gaussian noise clipped to [0, 1].

    At noise 0 a nearest-mean classifier is exact; at noise 0.3 the class
    means are separated widely enough that a full-feature linear probe
    exceeds 95% accuracy.

    The patterns and all n labels come from ``default_rng(seed)``; the
    noise of pool rows [jB, (j+1)B), B = SYNTH_CHUNK_ROWS, comes from
    ``stream(seed, "noise", j)``. ``rows = (lo, hi)`` builds only rows
    [lo, hi) of the n-image pool, bit for bit the pool's slice: it draws
    only the noise blocks that hold those rows, dropping the rows of the
    first block before ``lo``. Rows are built in place, one block at a time.
    """
    if classes < 2:
        raise ConfigError("synthetic dataset needs at least 2 classes")
    if g < 1 or SYNTH_SIDE % g != 0:
        raise ConfigError(f"grid side {g} does not divide image side {SYNTH_SIDE}")
    if not math.isfinite(noise):
        raise ConfigError(f"synthetic noise {noise} must be finite")
    lo, hi = (0, n) if rows is None else rows
    if not 0 <= lo <= hi <= n:
        raise ConfigError(f"rows [{lo}, {hi}) are not within the {n}-image pool")
    d = SYNTH_SIDE * SYNTH_SIDE
    rng = np.random.default_rng(seed)
    patterns = rng.choice(np.array([-1.0, 1.0]), size=(classes, d))
    means = 0.5 + SYNTH_AMPLITUDE * patterns
    labels = rng.integers(0, classes, size=n, dtype=np.int64)
    features = np.empty((hi - lo, d))
    scratch = np.empty((min(SYNTH_CHUNK_ROWS, max(lo % SYNTH_CHUNK_ROWS, hi - lo)), d))
    # the labels are in range: take's mode="clip" only skips the buffered
    # copy of ``out`` that its default mode makes
    for j in range(lo // SYNTH_CHUNK_ROWS, -(-hi // SYNTH_CHUNK_ROWS)):
        start = max(j * SYNTH_CHUNK_ROWS, lo)
        stop = min((j + 1) * SYNTH_CHUNK_ROWS, hi)
        block = features[start - lo:stop - lo]
        if noise > 0:
            rng_noise = stream(seed, "noise", j)
            # the noise of the block's rows before ``lo``, drawn and dropped
            rng_noise.standard_normal(out=scratch[:start - j * SYNTH_CHUNK_ROWS])
            rng_noise.standard_normal(out=block)
            block *= noise
            block += np.take(means, labels[start:stop], axis=0, out=scratch[:stop - start],
                             mode="clip")
        else:
            np.take(means, labels[start:stop], axis=0, out=block, mode="clip")
        np.clip(block, 0.0, 1.0, out=block)
    return Dataset(features, labels[lo:hi], classes)
