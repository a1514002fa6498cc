"""Decentralized split-model inference.

Every client encodes its own feature patch; each aggregator concatenates the
representations it can reach (zero-imputing the rest, its own slot always
present via the self-loop), runs a prediction head, and then G synchronous
gossip rounds average log-probabilities over alive aggregator neighbors by
the degree rule ``D^-1 A``. Its rounds are row-stochastic, so they tend to a
degree-weighted mix of the members (an arbitrary one under one-way link
drops), uniform only where every round is doubly stochastic: on a regular
graph without faults, or on the complete graph under device faults.

Client representations are rectified before transmission (the encoder stack
ends in a ReLU), which keeps zero as the natural "no signal" imputation
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .faults import RealizedGraph
from .nn import Mlp, init_mlp, log_softmax, mlp_forward, mlp_size, relu, stacked_mlp
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
    flat vector in checkpoint order: clients ascending, then aggregators
    ascending, each layer's weight (row-major) before its bias. The model
    computes in the vector's dtype: float32 when ``fit`` trains it or
    ``load_checkpoint`` reads it, float64 as ``init_split_model`` draws it
    (the gradient certificate's precision).

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
    """The alive mask of ``aggregators`` in ``realized`` and their delivery
    mask over its first round, (..., K) and (..., K, C) over the realization's
    leading batch axes: ``keep[..., j, c-1]`` says whether client c's
    representation reaches ``aggregators[j]``. Every sampler drops the edges
    of a dead device, so a dead client is never kept and a dead aggregator's
    row is all False. ``alive`` is a mask of its own: under PD dropout an
    alive aggregator's own slot can drop."""
    aggs = np.asarray(aggregators, dtype=np.intp)
    return realized.alive[..., aggs], realized.edge_alive[..., 0, aggs, 1:]


def sample_major(reps: np.ndarray) -> np.ndarray:
    """The (..., C, B, r) stack ``reps`` laid out by sample, (..., B, C * r):
    row i is sample i's client-ordered concatenation of representations."""
    *lead, c, b, r = reps.shape
    return reps.swapaxes(-3, -2).reshape(*lead, b, c * r)


def aggregate(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Zero-imputed, client-ordered head inputs, shape (..., K, B, C * r).

    ``rows`` is sample-major, (..., B, C * r), as ``sample_major`` lays out
    a (..., C, B, r) stack from ``client_encode``. ``keep[..., j, c-1]``
    says whether client c's representation reaches aggregator row j; its
    leading axes broadcast against those of ``rows``, so P models' rows
    under one (K, C) mask, or J batches' rows under their (J, K, C)
    masks, give each slice its own call's result. An unreached slot is an
    exact +0.0 whatever ``rows`` holds there (NaN included, and a -0.0 too),
    so a dead client's rows are never read: the rows are copied, then the
    unreached slots zeroed, each client's flag repeated over its r slots.
    When every row of ``keep`` matches its first (every delivery kept, or
    device faults on a complete graph that kill no aggregator), so does
    every input: the result is then a read-only broadcast, copied and
    masked only when a delivery is dropped.
    """
    r = rows.shape[-1] // keep.shape[-1]
    # kept on measurement: without it, a 15-epoch PD-MACL desk train took 2-8% longer
    same = (keep == keep[..., :1, :]).all()
    mask = np.repeat(keep[..., :1, :] if same else keep, r, axis=-1)[..., None, :]
    out = rows[..., None, :, :]
    if not mask.all():
        out = np.empty(np.broadcast_shapes(out.shape, mask.shape), rows.dtype)
        out[...] = rows[..., None, :, :]
        np.copyto(out, 0.0, where=~mask)
    lead = np.broadcast_shapes(out.shape[:-3], keep.shape[:-2])
    return np.broadcast_to(out, (*lead, keep.shape[-2], *out.shape[-2:])) if same else out


def aggregator_head(model: SplitModel, agg_inputs: np.ndarray):
    """One stacked forward pass of every head on its (K, B, C * r) inputs,
    followed by log-softmax normalization. Returns the log-probs and what
    ``mlp_backward`` reads to differentiate them: the head stack and its
    tape. A stack of J batches' (J, K, B, C * r) inputs runs through the
    heads broadcast over J, each slice bit-identical to its own call. A dead
    aggregator's head runs too, on the zeros its all-False delivery row
    gives; its caller discards that row."""
    head = model.head
    extra = agg_inputs.shape[:agg_inputs.ndim - head.layers[0][0].ndim]
    if extra:
        head = Mlp([(np.broadcast_to(w, extra + w.shape), np.broadcast_to(b, extra + b.shape))
                    for w, b in head.layers])
    out, tape = mlp_forward(head, agg_inputs)
    return log_softmax(out), (head, tape)


def gossip_mix(edge_alive: np.ndarray, members, dtype):
    """The degree rule's mixing pair (N, d) over the m devices ``members``,
    one per (C+1, C+1) ``edge_alive``: N is the (..., m, m) link mask with its
    self-loops set, in the values' ``dtype``, and d its (..., m, 1) row sums.
    A dead member's row keeps only its self-loop, and no other row links to
    it, since a fault drops every edge of a dead device."""
    idx = np.asarray(members, dtype=np.intp)
    n = edge_alive[..., idx[:, None], idx].astype(dtype)
    n[..., np.arange(idx.size), np.arange(idx.size)] = 1
    return n, n.sum(axis=-1, keepdims=True)


def gossip_round(z: np.ndarray, mix) -> np.ndarray:
    """One synchronous round on stacked (..., m, B, M) values, ``(N @ z) / d``
    for the ``gossip_mix`` pair ``mix``: one ``np.matmul`` over the flattened
    rows per leading index (a (J, m, m) pair gives each of J batches its own)."""
    n, d = mix
    flat = z.reshape(*z.shape[:-2], math.prod(z.shape[-2:]))  # -1 cannot size zero rows
    return (np.matmul(n, flat) / d).reshape(z.shape)


def gossip_adjoint(dz: np.ndarray, mix) -> np.ndarray:
    """The transpose of ``gossip_round``, ``N^T @ (dz / d)``: the gradient of
    a round's input from the gradient ``dz`` of its output."""
    n, d = mix
    flat = dz.reshape(*dz.shape[:-2], math.prod(dz.shape[-2:]))
    return np.matmul(np.swapaxes(n, -1, -2), flat / d).reshape(dz.shape)


def mags_infer(values: np.ndarray, aggs, realized: RealizedGraph,
               gossip_rounds: int) -> np.ndarray:
    """The gossip stage of distributed inference, and of a gossiping
    training loss: G >= 0 rounds (checked once by ``evaluate_policies`` or
    ``TrainConfig``) on the stacked (K, B, M) head log-probs ``values`` of
    the aggregators ``aggs``, dead ones included; round t mixes over the
    ``gossip_mix`` pair of ``realized.edge_alive[t]``, or of its one held
    round. A dead aggregator's row mixes only with itself and no alive row
    reads it, so the alive rows mix as they would alone. J batches run as
    one on (J, K, B, M) values and a ``realized`` stacked over them, each
    slice bit-identical to its own call.

    Returns the values after the last round, ``values`` itself for G = 0,
    not renormalized, on purpose: a normalized member is ``log_softmax`` of
    its row, a per-row shift, and scoring reads only the argmax. In float
    arithmetic the two argmaxes agree except where subtracting the shift
    would round two neighbouring values to one number, a tie that the
    shifted argmax breaks to the lower class. The head pass reads only the
    first round, so every gossip count of one realization can share it.
    """
    held = realized.edge_alive.shape[-3] == 1  # a held draw's pair is built once
    for t in range(1, gossip_rounds + 1):
        if t == 1 or not held:
            mix = gossip_mix(realized.edge_alive[..., 0 if held else t, :, :], aggs, values.dtype)
        values = gossip_round(values, mix)
    return values
