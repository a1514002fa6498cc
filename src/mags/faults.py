"""Stochastic fault processes over a base topology.

Three models: i.i.d. device faults (a device leaves the network with
probability r, taking all its edges), i.i.d. communication faults (each
directed non-self edge, entity links included, drops independently with
probability r), and a temporal Markov chain over link states. Self-loops
never fault. The entity (index 0) is treated as the measurement apparatus:
it never dies itself, but under communication faults its links can drop.

Samplers take an explicit numpy Generator, so independent runs use
independent seeded streams and can execute in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .topology import DeviceGraph

FAULT_KINDS = ("none", "device", "communication", "markov_comm")
FAULT_KIND_IDS = {k: i for i, k in enumerate(FAULT_KINDS)}


@dataclass
class FaultModel:
    kind: str = "none"
    rate: float = 0.0
    stay_alive: float = 0.9  # Markov probability of an alive link staying alive

    def validate(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"fault rate {self.rate} outside [0, 1]")
        if self.kind == "markov_comm" and self.rate > 0.0:
            q = self.recovery_prob()
            if not 0.0 <= q <= 1.0:
                raise ConfigError(
                    f"markov recovery probability {q:.4f} outside [0, 1] "
                    f"(rate {self.rate}, stay_alive {self.stay_alive})"
                )
        return self

    def recovery_prob(self) -> float:
        """Probability q of a faulted link recovering, chosen so the chain's
        stationary faulted fraction equals the fault rate."""
        if self.rate == 0.0:
            return 1.0
        return (1.0 - self.stay_alive) * (1.0 - self.rate) / self.rate


@dataclass
class RealizedGraph:
    """One time-step realization: alive devices and alive directed edges.

    ``alive[0]`` (the entity) is always True; ``edge_alive`` is a subset of the
    base adjacency and self-loops of alive devices are always present.
    """

    alive: np.ndarray       # (C+1,) bool
    edge_alive: np.ndarray  # (C+1, C+1) bool


def realize_base(graph: DeviceGraph) -> RealizedGraph:
    alive = np.ones(graph.device_count + 1, dtype=bool)
    return RealizedGraph(alive, graph.adj.copy())


def sample_device_faults(graph: DeviceGraph, rate: float, rng) -> RealizedGraph:
    """Each device independently alive with probability 1-r; an edge survives
    only when both endpoints are alive. The entity link to aggregator k is
    alive iff k is."""
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"fault rate {rate} outside [0, 1]")
    c = graph.device_count
    alive = np.empty(c + 1, dtype=bool)
    alive[0] = True
    alive[1:] = rng.random(c) < (1.0 - rate)
    edge_alive = graph.adj & alive[:, None] & alive[None, :]
    return RealizedGraph(alive, edge_alive)


def sample_comm_faults(graph: DeviceGraph, rate: float, rng) -> RealizedGraph:
    """All devices alive; each non-self directed edge (entity links included)
    independently alive with probability 1-r. The two directions of a pair
    are sampled independently."""
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"fault rate {rate} outside [0, 1]")
    c = graph.device_count
    keep = rng.random((c + 1, c + 1)) < (1.0 - rate)
    np.fill_diagonal(keep, True)  # self-loops never fault
    alive = np.ones(c + 1, dtype=bool)
    return RealizedGraph(alive, graph.adj & keep)


def sample_realization(graph: DeviceGraph, model: FaultModel, rng) -> RealizedGraph:
    """Dispatch for the memoryless fault kinds (the Markov chain is stateful
    and is advanced by the caller via markov_step)."""
    model.validate()
    if model.kind == "none":
        return realize_base(graph)
    if model.kind == "device":
        return sample_device_faults(graph, model.rate, rng)
    if model.kind == "communication":
        return sample_comm_faults(graph, model.rate, rng)
    raise ConfigError(f"sample_realization cannot handle kind {model.kind!r}")


def markov_init(graph: DeviceGraph) -> np.ndarray:
    """Per-link alive state, (C+1, C+1) bool over the base non-self edges
    with the diagonal kept True; it evolves only through markov_step."""
    state = graph.adj.copy()
    np.fill_diagonal(state, True)
    return state


def markov_step(state: np.ndarray, model: FaultModel, graph: DeviceGraph, rng) -> np.ndarray:
    """One transition: alive links stay alive w.p. p, faulted links recover
    w.p. q = (1-p)(1-r)/r. Rate 0 keeps every link alive forever."""
    if model.kind != "markov_comm":
        raise ConfigError(f"markov_step needs a markov_comm model, got {model.kind!r}")
    model.validate()
    if model.rate == 0.0:
        return state.copy()
    q = model.recovery_prob()
    n = graph.device_count + 1
    u = rng.random((n, n))
    nxt = np.where(state, u < model.stay_alive, u < q)
    nxt &= graph.adj
    np.fill_diagonal(nxt, np.diag(graph.adj))
    return nxt


def markov_realize(graph: DeviceGraph, state: np.ndarray) -> RealizedGraph:
    alive = np.ones(graph.device_count + 1, dtype=bool)
    return RealizedGraph(alive, graph.adj & state)


def active_set(realized: RealizedGraph, aggregators) -> set:
    """Aggregators that are alive and whose entity link is alive at this step."""
    return {int(k) for k in aggregators
            if realized.alive[k] and realized.edge_alive[0, k]}
