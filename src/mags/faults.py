"""Stochastic fault processes over a base topology.

Three models: i.i.d. device faults (a device leaves the network with
probability r, taking all its edges), i.i.d. communication faults (each
directed non-self edge, entity links included, drops independently with
probability r), and a temporal Markov chain over link states (the
Gilbert-Elliott channel) whose stationary faulted fraction is r. Self-loops
never fault. The entity (index 0) is treated as the measurement apparatus:
it never dies itself, but under communication faults its links can drop.

``sample_realization`` is the one sampler of all kinds: one call draws the
realizations of every batch of an evaluation cell, stacked, for a
``FaultModel`` that checked its kind and rate when it was built. A
fault-free model (the kind ``none``, or a rate of 0) gives the base graph
of every batch without drawing. Samplers take an explicit numpy Generator,
so independent runs use independent seeded streams and can execute in
parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .topology import DeviceGraph

FAULT_KINDS = ("none", "device", "communication", "markov_comm")
FAULT_KIND_IDS = {k: i for i, k in enumerate(FAULT_KINDS)}
MARKOV_STAY_ALIVE = 0.9  # Markov probability of an alive link staying alive


@dataclass(frozen=True)
class FaultModel:
    """A fault kind and rate, checked once, when built: a known kind, a rate
    in [0, 1] and, for ``markov_comm``, a recovery probability in [0, 1]."""

    kind: str = "none"
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"fault rate {self.rate} outside [0, 1]")
        if self.kind == "markov_comm" and self.rate > 0.0:
            q = self.recovery_prob()
            if not 0.0 <= q <= 1.0:
                raise ConfigError(
                    f"markov recovery probability {q:.4f} outside [0, 1] "
                    f"(rate {self.rate}, stay_alive {MARKOV_STAY_ALIVE})"
                )

    @property
    def fault_free(self) -> bool:
        """Whether this model never drops anything: the kind ``none`` or a
        rate of 0. Its realizations are the base graph's, drawn from no
        stream."""
        return self.kind == "none" or self.rate == 0.0

    def recovery_prob(self) -> float:
        """Probability q of a faulted link recovering, chosen so the chain's
        stationary faulted fraction equals the (nonzero) fault rate."""
        return (1.0 - MARKOV_STAY_ALIVE) * (1.0 - self.rate) / self.rate


@dataclass
class RealizedGraph:
    """Fault realizations stacked over batches: ``alive[i]`` marks the
    devices alive in batch i and ``edge_alive[i, t]`` the directed edges
    alive in its communication round t. R is 1 when one draw is held for
    every round. ``realized[i]`` is batch i's realization, with the batch
    axis dropped.

    ``alive[..., 0]`` (the entity) is always True; every ``edge_alive`` is a
    subset of the base adjacency and keeps the self-loops of alive devices.
    """

    alive: np.ndarray       # (nb, C+1) bool
    edge_alive: np.ndarray  # (nb, R, C+1, C+1) bool

    def __getitem__(self, i) -> "RealizedGraph":
        return RealizedGraph(self.alive[i], self.edge_alive[i])


def base_realization(graph: DeviceGraph, batches: int) -> RealizedGraph:
    """The fault-free realization of ``batches`` batches, held (R = 1)."""
    n = graph.device_count + 1
    return RealizedGraph(np.ones((batches, n), dtype=bool),
                         np.broadcast_to(graph.adj, (batches, 1, n, n)))


def sample_device_faults(graph: DeviceGraph, rate: float, batches: int, rng) -> RealizedGraph:
    """Each device independently alive with probability 1-r, per batch; an
    edge survives only when both endpoints are alive. The entity link to
    aggregator k is alive iff k is."""
    c = graph.device_count
    alive = np.ones((batches, c + 1), dtype=bool)
    alive[:, 1:] = rng.random((batches, c)) < (1.0 - rate)
    edge_alive = graph.adj & alive[:, :, None] & alive[:, None, :]
    return RealizedGraph(alive, edge_alive[:, None])


def sample_comm_faults(graph: DeviceGraph, rate: float, batches: int, rng) -> RealizedGraph:
    """All devices alive; each non-self directed edge (entity links included)
    independently alive with probability 1-r, per batch. The two directions
    of a pair are sampled independently."""
    n = graph.device_count + 1
    keep = rng.random((batches, n, n)) < (1.0 - rate)
    keep[:, np.arange(n), np.arange(n)] = True  # self-loops never fault
    return RealizedGraph(np.ones((batches, n), dtype=bool), (graph.adj & keep)[:, None])


def sample_realization(graph: DeviceGraph, model: FaultModel, batches: int, rounds: int,
                       rng) -> RealizedGraph:
    """The realizations of ``batches`` batches of ``rounds`` communication
    rounds each (G + 1 for G gossip rounds), drawn in one call.

    A ``fault_free`` model, of any kind, gives ``base_realization`` and
    draws nothing from ``rng``. The memoryless kinds draw one realization
    per batch and hold it for every round (R = 1); their draws consume
    ``rng`` batch by batch, as one call per batch would. The Markov kind
    (R = ``rounds``) starts every batch's chain from its stationary law,
    which is the communication-fault law at rate r, then takes ``rounds`` -
    1 ``markov_step``s, each on uniforms drawn for all batches at once. The
    stream is used up round by round, so a draw of R rounds is the first R
    rounds of any longer draw from the same stream.
    """
    if model.fault_free:
        return base_realization(graph, batches)
    if model.kind == "device":
        return sample_device_faults(graph, model.rate, batches, rng)
    if model.kind == "communication":
        return sample_comm_faults(graph, model.rate, batches, rng)
    first = sample_comm_faults(graph, model.rate, batches, rng)
    n = graph.device_count + 1
    edge_alive = np.empty((batches, rounds, n, n), dtype=bool)
    state = edge_alive[:, 0] = first.edge_alive[:, 0]
    for t in range(1, rounds):
        state = edge_alive[:, t] = markov_step(state, model, graph, rng.random(state.shape))
    return RealizedGraph(first.alive, edge_alive)


def markov_step(state: np.ndarray, model: FaultModel, graph: DeviceGraph, u) -> np.ndarray:
    """One markov_comm transition of every chain in ``state`` (..., C+1,
    C+1), given uniforms ``u`` of the same shape: alive links stay alive
    w.p. p, faulted links recover w.p. q = (1-p)(1-r)/r. Only base links are
    ever alive and self-loops are kept."""
    n = graph.device_count + 1
    nxt = np.where(state, u < MARKOV_STAY_ALIVE, u < model.recovery_prob())
    nxt &= graph.adj
    nxt[..., np.arange(n), np.arange(n)] = np.diag(graph.adj)
    return nxt


def active_mask(realized: RealizedGraph, aggregators) -> np.ndarray:
    """Bool mask over ``aggregators``, (..., K) like ``delivery``'s alive
    mask: entry j says whether ``aggregators[j]`` is alive and its entity
    link is alive at the final round."""
    aggs = np.asarray(aggregators, dtype=np.intp)
    return realized.alive[..., aggs] & realized.edge_alive[..., -1, 0, aggs]
