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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .faults import FaultModel, RealizedGraph, sample_realization
from .nn import init_mlp, log_softmax, mlp_forward, mlp_size, relu, stacked_mlp
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
    """Per-client encoders plus per-aggregator heads, every parameter in one
    flat float64 vector in checkpoint order: clients ascending, then
    aggregators ascending, each layer's weight (row-major) before its bias.

    ``encoder`` is one stacked Mlp of views into ``params`` whose row c-1 is
    client c's encoder (patch -> rep_dim); ``head`` is the stack of heads
    (C * rep_dim concatenation -> class log-odds), row j belonging to
    aggregator ``aggregators[j]``. Clients are ordered by device index, which
    fixes the concatenation layout.

    ``params`` may also be a (P, N) stack of P parameter vectors: the
    stacks then carry a leading set axis, and ``training.split_forward``
    runs all P models in one pass.
    """

    params: np.ndarray
    client_count: int
    encoder_dims: tuple
    aggregators: tuple
    head_dims: tuple

    def __post_init__(self):
        self.encoder, self.head = self.unflatten(self.params)

    @property
    def rep_dim(self):
        return self.encoder_dims[-1]

    @property
    def class_count(self):
        return self.head_dims[-1]

    def unflatten(self, flat: np.ndarray):
        """(encoder, head) stacks of views into ``flat``, a vector laid out
        like ``params`` (a gradient, say), or a stack of such vectors."""
        cut = self.client_count * mlp_size(self.encoder_dims)
        return (stacked_mlp(flat[..., :cut], self.client_count, self.encoder_dims),
                stacked_mlp(flat[..., cut:], len(self.aggregators), self.head_dims))

    def head_rows(self, aggs):
        """Head rows of the aggregators ``aggs``: a slice, so views, when
        they are all of them."""
        if tuple(aggs) == self.aggregators:
            return slice(None)
        return np.array([self.aggregators.index(k) for k in aggs], dtype=np.intp)

    def copy(self) -> "SplitModel":
        return SplitModel(self.params.copy(), self.client_count, self.encoder_dims,
                          self.aggregators, self.head_dims)


def init_split_model(graph: DeviceGraph, patch_dims, class_count: int, rng) -> SplitModel:
    """Initialize encoders (clients ascending) then heads (aggregators
    ascending); the draw order is part of the determinism contract."""
    if len(patch_dims) != graph.device_count:
        raise ConfigError(f"{len(patch_dims)} patches for {graph.device_count} devices")
    dims = {encoder_dims(p) for p in patch_dims}
    if len(dims) != 1:
        raise ConfigError(f"encoder dims must be uniform, got {sorted(dims)}")
    enc_dims = dims.pop()
    width = graph.device_count * enc_dims[-1]
    head_dims = (width, width, class_count)
    mlps = ([init_mlp(enc_dims, rng) for _ in patch_dims]
            + [init_mlp(head_dims, rng) for _ in graph.aggregators])
    params = np.concatenate([a.ravel() for mlp in mlps for layer in mlp.layers for a in layer])
    return SplitModel(params, graph.device_count, enc_dims, tuple(graph.aggregators), head_dims)


def client_encode(model: SplitModel, client_features) -> np.ndarray:
    """Rectified representations of every client, stacked (C, B, r); row
    c-1 holds client c. ``client_features`` is client-major, (C, B, d) or a
    sequence of per-client (B, d) patches; each client runs its own row of
    the encoder stack on its own patch."""
    return np.stack([relu(mlp_forward(model.encoder.take(c), x)[0])
                     for c, x in enumerate(client_features)])


def delivery(realized: RealizedGraph, aggregators):
    """The aggregators alive in one batch's ``realized`` and their (K', C)
    delivery mask over its first round: ``keep[j, c-1]`` says whether client
    c's representation reaches ``aggs[j]``. Every sampler drops the edges of
    a dead device, so a dead client is never kept."""
    aggs = [k for k in aggregators if realized.alive[k]]
    return aggs, realized.edge_alive[0][aggs, 1:]


def fault_free_delivery(graph: DeviceGraph):
    """The base graph's delivery, as ``delivery`` returns it: every
    aggregator and its (K, C) mask."""
    return delivery(sample_realization(graph, FaultModel(), 1, 1, None)[0], graph.aggregators)


def sample_major(reps: np.ndarray) -> np.ndarray:
    """The (..., C, B, r) stack ``reps`` laid out by sample, (..., B, C * r):
    row i is sample i's client-ordered concatenation of representations."""
    *lead, c, b, r = reps.shape
    return reps.swapaxes(-3, -2).reshape(*lead, b, c * r)


def aggregate(reps: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Zero-imputed, client-ordered head inputs, shape (..., K', B, C * r).

    ``reps`` is the (C, B, r) stack from ``client_encode``, or its
    ``sample_major`` (B, C * r) layout: a caller that aggregates many slices
    of one stack lays it out once and passes views of its rows. A stack of
    P models' representations, (P, C, B, r), gives (P, K', B, C * r).
    ``keep[j, c-1]`` says whether client c's representation reaches
    aggregator row j. An unreached slot is an exact zero whatever ``reps``
    holds there (NaN included, and a -0.0 too), so a dead client's rows are
    never read. One ``np.where`` over the flat layout masks the
    concatenation, each client's flag repeated over its r slots. When every
    row of ``keep`` is the same (every delivery kept, or device faults on a
    complete graph), so is every input: the result is then a read-only
    broadcast of one (B, C * r) array, masked only when a delivery is
    dropped.
    """
    row = sample_major(reps) if reps.ndim > 2 else reps
    r = row.shape[-1] // keep.shape[1]
    first = keep[:1]
    if not (keep == first).all():
        return np.where(np.repeat(keep, r, axis=1)[:, None, :], row[..., None, :, :], 0.0)
    if not first.all():
        row = np.where(np.repeat(first, r, axis=1), row, 0.0)
    return np.broadcast_to(row[..., None, :, :], (*row.shape[:-2], keep.shape[0], *row.shape[-2:]))


def aggregator_head(model: SplitModel, aggs, agg_inputs: np.ndarray):
    """One stacked forward pass of the heads of ``aggs`` on their (K', B,
    C * r) inputs, followed by log-softmax normalization. Returns the log-probs
    and what ``mlp_backward`` reads to differentiate them: the head stack
    taken for ``aggs`` (a copy when they are not all of them) and its tape."""
    head = model.head.take(model.head_rows(aggs))
    out, tape = mlp_forward(head, agg_inputs)
    return log_softmax(out), (head, tape)


def gossip_links(edge_alive: np.ndarray, aggregators) -> np.ndarray:
    """(K', K') gossip link mask over ``aggregators``: row i marks the
    aggregators whose values aggregator i averages, itself included."""
    idx = list(aggregators)
    links = edge_alive[idx][:, idx]
    np.fill_diagonal(links, True)
    return links


def gossip_round(z: np.ndarray, links: np.ndarray) -> np.ndarray:
    """One synchronous round on stacked (..., K', B, M) values: row i
    becomes the arithmetic mean of the rows that ``links[i]`` marks,
    computed as the neighbor sum (one ``np.matmul`` over the flattened
    rows, per leading index) followed by one division by the degree.
    ``links`` may be bool or its float64 copy: the product casts a bool mask
    to the same 0/1 values."""
    flat = z.reshape(*z.shape[:-2], math.prod(z.shape[-2:]))  # -1 cannot size zero rows
    return (np.matmul(links, flat) / links.sum(axis=1)[:, None]).reshape(z.shape)


def mags_infer(values: np.ndarray, aggs, realized: RealizedGraph,
               gossip_rounds: int) -> np.ndarray:
    """The gossip stage of distributed inference on one batch: G >= 0 rounds
    (``evaluate_policies`` checks the counts once, not here per batch) on
    the stacked (K', B, M) head log-probs ``values`` of the alive aggregators
    ``aggs`` (as ``delivery`` lists them for ``realized``), round t over
    ``realized.edge_alive[t]`` (or its one held round).

    Returns the stacked (K', B, M) values after the last round, ``values``
    itself for G = 0. They are not renormalized, on purpose: a normalized
    member is ``log_softmax`` of its row, a per-row shift, and scoring reads
    only the argmax. In float arithmetic the two argmaxes agree except
    where subtracting the shift would round two neighbouring values to one
    number, a tie that the shifted argmax breaks to the lower class. The
    head pass reads only the first round, so every gossip count of one
    realization can share it.
    """
    held = realized.edge_alive.shape[0] == 1  # a held draw's links are built once
    for t in range(1, gossip_rounds + 1):
        if t == 1 or not held:
            links = gossip_links(realized.edge_alive[0 if held else t], aggs).astype(np.float64)
        values = gossip_round(values, links)
    return values
