"""Decentralized split-model inference.

Every client encodes its own feature patch; each aggregator concatenates the
representations it can reach (zero-imputing the rest, its own slot always
present via the self-loop), runs a prediction head, and then G synchronous
gossip rounds average log-probabilities over alive aggregator neighbors.
Averaging in log space makes the ensemble a normalized geometric mean of the
member probabilities, so gossip can only tighten the ensemble loss.

Client representations are rectified before transmission (the encoder stack
ends in a ReLU), which keeps zero as the natural "no signal" imputation
value.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .faults import (FaultModel, RealizedGraph, active_set, markov_init,
                     markov_realize, markov_step, sample_realization)
from .nn import Mlp, init_mlp, log_softmax, mlp_forward, relu
from .topology import DeviceGraph

# Encoder stacks matched to the standard patch sizes (hidden, representation).
ENCODER_DIMS = {49: (16, 4), 196: (64, 16), 16: (4, 2)}


def encoder_dims(patch_dim: int):
    if patch_dim in ENCODER_DIMS:
        hidden, rep = ENCODER_DIMS[patch_dim]
    else:
        hidden = max(4, patch_dim // 3)
        rep = max(2, hidden // 4)
    return (patch_dim, hidden, rep)


@dataclass
class SplitModel:
    """Per-client encoders plus per-aggregator heads.

    Encoder c maps its patch to a rep_dim representation; head k maps the
    C * rep_dim concatenation to class log-odds. Clients are ordered by
    device index, which fixes the concatenation layout.
    """

    encoders: list            # index c-1 holds client c's encoder
    heads: dict               # aggregator id -> head Mlp
    rep_dim: int
    class_count: int

    @property
    def client_count(self):
        return len(self.encoders)

    def copy(self) -> "SplitModel":
        return SplitModel([e.copy() for e in self.encoders],
                          {k: h.copy() for k, h in self.heads.items()},
                          self.rep_dim, self.class_count)

    def slot(self, c: int) -> slice:
        return slice((c - 1) * self.rep_dim, c * self.rep_dim)


def init_split_model(graph: DeviceGraph, patch_dims, class_count: int, rng) -> SplitModel:
    """Initialize encoders (clients ascending) then heads (aggregators
    ascending); the draw order is part of the determinism contract."""
    if len(patch_dims) != graph.device_count:
        raise ConfigError(f"{len(patch_dims)} patches for {graph.device_count} devices")
    dims = [encoder_dims(p) for p in patch_dims]
    reps = {d[-1] for d in dims}
    if len(reps) != 1:
        raise ConfigError(f"encoder output dims must be uniform, got {sorted(reps)}")
    rep = reps.pop()
    encoders = [init_mlp(d, rng) for d in dims]
    width = graph.device_count * rep
    heads = {k: init_mlp((width, width, class_count), rng)
             for k in graph.aggregators}
    return SplitModel(encoders, heads, rep, class_count)


def client_encode(model: SplitModel, client_features):
    """Rectified representation of every client, keyed by client index."""
    reps = {}
    for c in range(1, model.client_count + 1):
        out, _ = mlp_forward(model.encoders[c - 1], client_features[c - 1])
        reps[c] = relu(out)
    return reps


def aggregate(reps, realized: RealizedGraph, k: int, client_count: int, rep_dim: int) -> np.ndarray:
    """Fixed client-ordered concatenation for aggregator k, zero-imputing the
    slots of unreachable clients. Slot k is always present (self-loop)."""
    if not realized.alive[k]:
        raise InputError(f"aggregator {k} is not alive in this realization")
    batch = None
    for r in reps.values():
        batch = r.shape[0]
        break
    if batch is None:
        raise InputError("no client representations available")
    out = np.zeros((batch, client_count * rep_dim), dtype=np.float64)
    for c in range(1, client_count + 1):
        if realized.edge_alive[k, c] and c in reps:
            out[:, (c - 1) * rep_dim:c * rep_dim] = reps[c]
    return out


def aggregator_head(model: SplitModel, k: int, agg_input: np.ndarray) -> np.ndarray:
    """Head forward pass followed by log-softmax normalization."""
    out, _ = mlp_forward(model.heads[k], agg_input)
    return log_softmax(out)


@dataclass
class PredictionState:
    """Per-aggregator log-probability vectors; dead aggregators hold no value."""

    values: dict  # aggregator id -> (batch, classes) log-probabilities

    def copy(self):
        return PredictionState({k: v.copy() for k, v in self.values.items()})


def gossip_round(state: PredictionState, realized: RealizedGraph, aggregators) -> PredictionState:
    """One synchronous round: each alive aggregator replaces its vector with
    the arithmetic mean over alive aggregator neighbors, itself included.
    Absent (dead) aggregators simply drop out of their neighbors' averages."""
    holders = [k for k in aggregators if k in state.values and realized.alive[k]]
    new_values = {}
    for k in holders:
        contrib = [state.values[kp] for kp in holders
                   if kp == k or realized.edge_alive[k, kp]]
        new_values[k] = sum(contrib) / len(contrib)
    return PredictionState(new_values)


@dataclass
class InferenceResult:
    log_probs: dict       # aggregator id -> (batch, classes) normalized log-probs
    probs: dict           # aggregator id -> (batch, classes) probabilities
    active: set           # aggregators able to reach the entity at the final round
    realizations: list    # RealizedGraph per communication round (t = 1 .. G+1)
    states: list          # PredictionState history when recording was requested


def mags_infer(model: SplitModel, reps, graph: DeviceGraph,
               fault_model: FaultModel, gossip_rounds: int, rng,
               record_states: bool = False) -> InferenceResult:
    """Distributed inference from every client's representation (as returned
    by ``client_encode``): aggregate + head, then G gossip rounds; returns
    normalized per-aggregator probabilities.

    Memoryless fault kinds draw one realization that is held fixed for the
    whole inference; the Markov kind advances the link chain one step per
    communication round. A client that is dead in the first realization
    sends nothing, so its entry in ``reps`` is never read. Encoding does not
    depend on the fault draw, so callers may encode once and reuse ``reps``
    across fault models and draws.
    """
    if gossip_rounds < 0:
        raise ConfigError("gossip_rounds must be >= 0")
    fault_model.validate()

    markov_state = None
    if fault_model.kind == "markov_comm":
        markov_state = markov_init(graph)

    def round_realization(t):
        nonlocal markov_state
        if markov_state is not None:
            markov_state = markov_step(markov_state, fault_model, graph, rng)
            return markov_realize(graph, markov_state, t)
        return None

    if markov_state is None:
        constant = sample_realization(graph, fault_model, rng, t=1)
        realizations = [constant for _ in range(gossip_rounds + 1)]
    else:
        realizations = [round_realization(t) for t in range(1, gossip_rounds + 2)]

    r1 = realizations[0]
    reps = {c: r for c, r in reps.items() if r1.alive[c]}  # dead clients send nothing
    values = {}
    for k in graph.aggregators:
        if r1.alive[k]:
            z = aggregate(reps, r1, k, model.client_count, model.rep_dim)
            values[k] = aggregator_head(model, k, z)
    state = PredictionState(values)
    states = [state.copy()] if record_states else []

    for g in range(gossip_rounds):
        state = gossip_round(state, realizations[g + 1], graph.aggregators)
        if record_states:
            states.append(state.copy())

    log_probs = {k: log_softmax(v) for k, v in state.values.items()}
    probs = {k: np.exp(v) for k, v in log_probs.items()}
    act = active_set(realizations[-1], graph.aggregators)
    act &= set(log_probs)  # an aggregator with no value cannot report one
    return InferenceResult(log_probs, probs, act, realizations, states)


def write_inference_trace(path, states):
    """CSV dump of per-round aggregator log-probability vectors (batch row 0)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "aggregator", "log_probs"])
        for t, state in enumerate(states, start=1):
            for k in sorted(state.values):
                vec = " ".join(f"{x:.9g}" for x in state.values[k][0])
                w.writerow([t, k, vec])
