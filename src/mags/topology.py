"""Communication topologies.

A :class:`DeviceGraph` holds the base graph over device indices 1..C plus the
external collection entity at index 0. Device-device adjacency is symmetric
and every device carries a self-loop; the entity has no self-loop and links
only to the aggregator devices. Devices are laid out on a ceil(sqrt(C)) lattice
in row-major order, which defines the grid, torus and random-geometric kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError

GRAPH_KINDS = ("complete", "ring", "grid", "rgg", "torus")
_LATTICE_KINDS = ("grid", "rgg", "torus")


@dataclass
class DeviceGraph:
    device_count: int
    kind: str
    aggregators: tuple
    adj: np.ndarray  # (C+1, C+1) bool, index 0 is the entity
    rgg_radius: float | None = None


def build_graph(kind, device_count, aggregator_count, seed=0, *,
                rgg_radius=None, random_aggregators=False) -> DeviceGraph:
    """Construct a base graph with self-loops and entity links to aggregators.

    Aggregators default to the lowest ``aggregator_count`` device indices;
    ``random_aggregators`` draws them uniformly at random with the given seed.
    """
    if kind not in GRAPH_KINDS:
        raise ConfigError(f"unknown graph kind {kind!r}")
    c = int(device_count)
    k = int(aggregator_count)
    if c < 1:
        raise ConfigError("device_count must be >= 1")
    if not 1 <= k <= c:
        raise ConfigError(f"aggregator count {k} out of range 1..{c}")
    side = math.isqrt(c)
    if kind in _LATTICE_KINDS and side * side != c:
        raise ConfigError(f"{kind} graphs need a perfect-square device count, got {c}")
    if kind == "rgg" and (rgg_radius is None or not rgg_radius > 0):  # NaN is not > 0
        raise ConfigError("rgg graphs need a positive radius")

    # the device block: which pairs link, read off each pair's index or lattice offset
    ids = np.arange(c)
    if kind == "complete":
        block = np.ones((c, c), dtype=bool)
    elif kind == "ring":
        gap = np.abs(ids[:, None] - ids)
        block = (gap == 1) | (gap == c - 1)  # the last device links to the first
    else:
        rows, cols = np.divmod(ids, side)  # row-major lattice positions
        offset = np.abs(np.stack([rows[:, None] - rows, cols[:, None] - cols]))
        if kind == "torus":
            offset = np.minimum(offset, side - offset)
        if kind == "rgg":
            block = (offset ** 2).sum(axis=0) <= float(rgg_radius) ** 2  # closed ball
        else:
            block = offset.sum(axis=0) == 1
    np.fill_diagonal(block, True)  # self-loops
    adj = np.zeros((c + 1, c + 1), dtype=bool)
    adj[1:, 1:] = block

    if random_aggregators:
        rng = np.random.default_rng(seed)
        aggs = tuple(sorted(int(a) + 1 for a in rng.choice(c, size=k, replace=False)))
    else:
        aggs = tuple(range(1, k + 1))
    for a in aggs:
        adj[0, a] = True
        adj[a, 0] = True

    return DeviceGraph(c, kind, aggs, adj, float(rgg_radius) if kind == "rgg" else None)


def consensus_matrix(graph: DeviceGraph) -> np.ndarray:
    """Row-stochastic V = D^-1 A over device indices, self-loops included."""
    a = graph.adj[1:, 1:].astype(np.float64)
    deg = a.sum(axis=1)
    if np.any(deg == 0):
        raise ConfigError("isolated device without self-loop")
    return a / deg[:, None]


def spectral_radius(v: np.ndarray) -> float:
    """Largest |eigenvalue| of V - (1/C)*ones, by power iteration from a
    fixed seeded start, to a 1e-10 gap between successive estimates.

    The all-ones consensus direction is annihilated by the shift, so the
    result measures the per-round contraction of disagreement. Raises
    ConvergenceError (carrying the last iterate gap) if the eigenvalue
    estimate has not stabilized within 10000 steps.
    """
    v = np.asarray(v, dtype=np.float64)
    c = v.shape[0]
    if v.shape != (c, c):
        raise ConfigError("consensus matrix must be square")
    m = v - 1.0 / c
    rng = np.random.default_rng(0)
    x = rng.standard_normal(c)
    x /= np.linalg.norm(x)
    prev = np.inf
    lam = 0.0
    for _ in range(10000):
        y = m @ x
        lam = float(np.linalg.norm(y))
        if lam < 1e-10:
            return 0.0
        x = y / lam
        if abs(lam - prev) < 1e-10:
            return lam
        prev = lam
    raise ConvergenceError("power iteration did not converge", abs(lam - prev))
