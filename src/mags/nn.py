"""Minimal dense neural-network engine.

Float64 multilayer perceptrons (ReLU between layers, no activation after the
last) with exact reverse-mode gradients, numerically stable log-softmax, and
bias-corrected Adam.

The MLP functions take leading stack axes: a stack of S same-shaped MLPs
has (S, n, m) weights and (S, m) biases, and runs on (S, B, n) inputs, row
s through MLP s, with the same operations as S separate 2-d calls; a stack
of stacks, (P, S, n, m) say, runs on (P, S, B, n) the same way.
``stacked_mlp`` lays a stack out as views into one flat parameter vector,
or into each row of a stack of such vectors, and ``adam_update`` steps a
vector in place; it is the one function here that mutates its arguments.
Everything else is a pure function: identical inputs produce bit-identical
outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError


@dataclass
class Mlp:
    """Ordered (weight, bias) pairs; weight is (n, m), bias is (m,), or
    (..., S, n, m) and (..., S, m) for a stack of S MLPs."""

    layers: list

    def take(self, rows) -> "Mlp":
        """Rows of the last stack axis: an int drops that axis, a slice
        gives a stack of views, an index array a stack of copies."""
        return Mlp([(w[..., rows, :, :], b[..., rows, :]) for w, b in self.layers])


def mlp_size(dims) -> int:
    """Parameter count of one MLP with these layer widths."""
    return sum(n * m + m for n, m in zip(dims[:-1], dims[1:]))


def stacked_mlp(flat: np.ndarray, count: int, dims) -> Mlp:
    """A stack of ``count`` MLPs whose layers are views into ``flat``, which
    holds their parameters one MLP after another, each layer's weight
    (row-major) before its bias. Writing into a layer writes into ``flat``.
    A (..., N) ``flat`` gives a (..., count) stack, one per vector."""
    lead = flat.shape[:-1]
    rows = flat.reshape(*lead, count, mlp_size(dims))
    layers, at = [], 0
    for n, m in zip(dims[:-1], dims[1:]):
        layers.append((rows[..., at:at + n * m].reshape(*lead, count, n, m),
                       rows[..., at + n * m:at + n * m + m]))
        at += n * m + m
    return Mlp(layers)


def init_mlp(dims, rng) -> Mlp:
    """Fan-in uniform init: weights and bias of each layer in [-1/sqrt(n), 1/sqrt(n)]."""
    if len(dims) < 2:
        raise ConfigError("an MLP needs at least one layer")
    layers = []
    for n, m in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(n)
        w = rng.uniform(-bound, bound, size=(n, m))
        b = rng.uniform(-bound, bound, size=m)
        layers.append((w, b))
    return Mlp(layers)


def relu(x):
    return np.maximum(x, 0.0)


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, with b broadcast across the batch dimension; with leading
    stack axes, the same on all three, each row uses its own weight and
    bias. The bias is added in place into the fresh product: the same
    operations as the textbook expression, without its second temporary."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or w.ndim != x.ndim:
        raise ConfigError(f"linear_forward expects arrays of 2 or more dims with the same "
                          f"stack axes, got x{x.shape} w{w.shape}")
    if (x.shape[:-2] != w.shape[:-2] or x.shape[-1] != w.shape[-2]
            or b.shape != w.shape[:-2] + w.shape[-1:]):
        raise ConfigError(f"shape mismatch: x{x.shape} w{w.shape} b{b.shape}")
    z = x @ w
    z += b[..., None, :]
    return z


def mlp_forward(mlp: Mlp, x: np.ndarray):
    """Forward pass. Returns (output, tape).

    The tape records each layer's input and is sufficient for an exact
    backward pass (ReLU masks are recovered from the rectified values). A
    hidden layer is rectified in place in its own fresh output, so no tape
    entry is written after it is recorded.
    """
    h = np.asarray(x, dtype=np.float64)
    tape = []
    last = len(mlp.layers) - 1
    for i, (w, b) in enumerate(mlp.layers):
        tape.append(h)
        h = linear_forward(h, w, b)
        if i < last:
            np.maximum(h, 0.0, out=h)
    return h, tape


def mlp_backward(mlp: Mlp, tape, grad_out, input_grad=True):
    """Backward pass from d(loss)/d(output). Returns (per-layer grads, dx),
    stacked like the layers; dx is None when ``input_grad`` is False, which
    skips the first layer's input product for a caller that discards it."""
    grads = [None] * len(mlp.layers)
    d = np.asarray(grad_out, dtype=np.float64)
    for i in reversed(range(len(mlp.layers))):
        w, _ = mlp.layers[i]
        x_i = tape[i]
        grads[i] = (x_i.swapaxes(-1, -2) @ d, d.sum(axis=-2))
        if i == 0 and not input_grad:
            return grads, None
        d = d @ w.swapaxes(-1, -2)
        if i > 0:
            # layer input equals the previous rectified output, so its sign
            # pattern is exactly the ReLU gradient mask
            d = d * (x_i > 0)
    return grads, d


def log_softmax(z):
    """log(softmax(z)) over the last axis, stabilized by max subtraction; exp
    of the result sums to 1.

    The row max is a running ``np.maximum`` over the class columns, which
    is faster than a reduce over a short last axis. Max is exact, so it is
    the reduce's value, up to the sign of a zero max, which only the sign
    of an intermediate zero can show and ``exp`` and the final subtraction
    erase. The normalizer keeps ``np.sum``, whose pairwise order sets its
    bits."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise InputError("log_softmax requires finite inputs")
    m = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(m, z[..., j:j + 1], out=m)
    s = z - m
    return s - np.log(np.sum(np.exp(s), axis=-1, keepdims=True))


@dataclass
class AdamState:
    """First/second moment accumulators shaped like the flat parameter
    vector, and two scratch vectors of that shape that every step writes
    its temporaries into; ``adam_update`` advances them in place."""

    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float
    beta1: float
    beta2: float
    eps: float
    scratch: tuple


def adam_init(params: np.ndarray, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8) -> AdamState:
    return AdamState(np.zeros_like(params), np.zeros_like(params), 0, lr, beta1, beta2, eps,
                     (np.empty_like(params), np.empty_like(params)))


def adam_update(params: np.ndarray, grad: np.ndarray, state: AdamState):
    """One bias-corrected Adam step on a flat parameter vector, in place:
    ``params``, ``state.m``, ``state.v`` and ``state.t`` advance together.
    Every temporary lives in ``state.scratch``; the operations and their
    order are those of the textbook expressions, so the bits are too."""
    if grad.shape != params.shape or state.m.shape != params.shape:
        raise ConfigError(f"gradient shape {grad.shape} does not match parameters {params.shape}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    m, v = state.m, state.v
    step, denom = state.scratch
    m *= b1
    np.multiply(grad, 1.0 - b1, out=step)
    m += step
    v *= b2
    np.multiply(grad, 1.0 - b2, out=step)
    step *= grad
    v += step
    np.divide(m, 1.0 - b1 ** state.t, out=step)
    step *= state.lr
    np.divide(v, 1.0 - b2 ** state.t, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.eps
    step /= denom
    params -= step
