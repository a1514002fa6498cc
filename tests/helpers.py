"""Test-only reference code: a single-MLP cross-entropy oracle that the split
pipeline's gradients are checked against, and an IDX writer for the loader's
fixtures. No pipeline of the library calls either."""

import math
import struct

import numpy as np

from mags.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, Dataset
from mags.errors import ConfigError, InputError
from mags.nn import Mlp, log_softmax, mlp_backward, mlp_forward


def check_one_hot(y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise InputError(f"targets must be a 2-d one-hot matrix, got shape {y.shape}")
    if not (np.all((y == 0.0) | (y == 1.0)) and np.all(y.sum(axis=1) == 1.0)):
        raise InputError("target rows must be valid one-hot vectors")
    return y


def loss_and_grad(mlp: Mlp, x: np.ndarray, y_onehot: np.ndarray):
    """Mean cross-entropy of log-softmax outputs vs one-hot targets, with
    exact gradients shaped like the parameters."""
    y = check_one_hot(y_onehot)
    out, tape = mlp_forward(mlp, x)
    if out.shape != y.shape:
        raise InputError(f"output {out.shape} does not match targets {y.shape}")
    n = max(out.shape[0], 1)
    lp = log_softmax(out)
    loss = float(-(y * lp).sum() / n)
    dlogits = (np.exp(lp) - y) / n
    grads, _ = mlp_backward(mlp, tape, dlogits, input_grad=False)
    return loss, grads


def save_idx(ds: Dataset, images_path, labels_path):
    """Export a dataset to the IDX layout (features quantized to uint8)."""
    n, d = ds.features.shape
    side = math.isqrt(d)
    if side * side != d:
        raise ConfigError(f"feature count {d} is not a square image")
    pixels = np.clip(np.round(ds.features * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, n, side, side))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABEL_MAGIC, n))
        f.write(ds.labels.astype(np.uint8).tobytes())
