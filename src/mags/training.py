"""Decentralized training.

The objective is the sum over aggregator heads of mean cross-entropy (labels
are available at every device), backpropagated exactly through the
concatenation into every client encoder, one Adam step on the flat parameter
vector per batch. Faults are simulated with party-wise (PD) or
communication-wise (CD) dropout: dropped slots are zero-imputed with no
inverse-rate rescaling, because the point is to match the test-time fault
distribution, not to regularize. One dropout/fault realization is drawn per batch and held fixed
for that batch. Gossip stays out of training unless explicitly enabled.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .data import PartitionSpec, one_hot
from .errors import ConfigError, InputError
from .faults import FaultModel, sample_realization
from .inference import (SplitModel, aggregate, aggregator_head, client_encode, delivery,
                        fault_free_delivery, gossip_links, gossip_round, init_split_model)
from .nn import (AdamState, adam_init, adam_update, log_softmax, mlp_backward, mlp_forward,
                 mlp_size, relu)
from .rng import stream
from .topology import DeviceGraph

DROPOUT_KINDS = ("none", "pd", "cd")
# Train faults are memoryless: one realization is drawn per batch.
TRAIN_FAULT_KINDS = ("none", "device", "communication")


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters, checked once, when built."""

    epochs: int = 100
    batch_size: int = 64
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    dropout: str = "none"        # none | pd | cd
    dropout_rate: float = 0.3
    train_fault: FaultModel = field(default_factory=FaultModel)
    gossip_rounds: int = 0       # rounds folded into the training loss; 0 = off
    seed: int = 1

    def __post_init__(self):
        if self.dropout not in DROPOUT_KINDS:
            raise ConfigError(f"unknown dropout kind {self.dropout!r}")
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ConfigError(f"dropout rate {self.dropout_rate} outside [0, 1]")
        for name, value, low in (("batch size", self.batch_size, 1), ("epochs", self.epochs, 0),
                                 ("gossip rounds", self.gossip_rounds, 0), ("seed", self.seed, 0)):
            if value < low:
                raise ConfigError(f"{name} {value} must be >= {low}")
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"learning rate {self.lr} must be finite and > 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"Adam betas {self.beta1}, {self.beta2} must lie in [0, 1)")
        kind = self.train_fault.kind
        if kind not in TRAIN_FAULT_KINDS:
            raise ConfigError(f"train fault kind {kind!r} is not one of "
                              f"{', '.join(TRAIN_FAULT_KINDS)}")
        # a batch under a train fault takes its deliveries from the fault
        # draw, so the dropout would never apply
        if kind != "none" and self.dropout != "none":
            d = self.dropout.upper()
            raise ConfigError(f"a {d}- method uses {d} dropout, which cannot be "
                              f"combined with train fault kind {kind!r}")


def apply_pd_mask(client_count: int, rate: float, rng) -> np.ndarray:
    """Party-wise dropout keep flags: a dropped client's representation
    disappears for every aggregator at once, its own head included."""
    return rng.random(client_count) >= rate


def apply_cd_mask(client_count: int, aggregators, rate: float, rng) -> np.ndarray:
    """Communication-wise dropout keep flags, shape (K, C), row j for
    ``aggregators[j]``: each non-self client->aggregator delivery drops
    independently; self slots never drop."""
    aggs = np.asarray(aggregators, dtype=np.intp)
    keep = rng.random((aggs.size, client_count)) >= rate
    keep[np.arange(aggs.size), aggs - 1] = True
    return keep


def batch_delivery(graph: DeviceGraph, cfg: TrainConfig, rng_dropout, rng_fault):
    """One per-batch delivery mask: which client representations reach which
    aggregator. Returns (keep (K', C), alive aggregators, gossip links
    (K', K'), or None when the loss does not gossip); row j of keep and links
    is ``alive_aggs[j]``. The batch draws its train-fault realization as
    inference draws one (the kind ``none`` draws nothing from ``rng_fault``
    and gives the base graph), then its dropout mask."""
    realized = sample_realization(graph, cfg.train_fault, 1, 1, rng_fault)[0]
    aggs, keep = delivery(realized, graph.aggregators)
    links = gossip_links(realized.edge_alive[0], aggs) if cfg.gossip_rounds else None
    c = graph.device_count
    if cfg.dropout == "pd":
        keep = keep & apply_pd_mask(c, cfg.dropout_rate, rng_dropout)[None, :]
    elif cfg.dropout == "cd":
        keep = keep & apply_cd_mask(c, aggs, cfg.dropout_rate, rng_dropout)
    return keep, aggs, links


def split_forward(model: SplitModel, views, y, keep, alive_aggs, links=None, gossip_rounds=0):
    """The forward half of ``split_loss_and_grads``: the loss summed over
    the heads of ``alive_aggs`` (mean over the batch), and what the backward
    half reads, (reps, encoder tape, head log-probs, final log-probs, head
    stack, head tape). Takes that function's arguments.

    ``model`` may hold a (P, N) stack of parameter vectors: the batch then
    runs through all P models in one pass, and the loss is a (P,) array,
    entry s bit-identical to the loss of parameter vector s run alone. The
    heads' losses are added left to right, as Python's ``sum`` adds them
    (``np.add.reduce`` over 8 or more heads would pair them up). For a
    single vector the loss is a numpy scalar."""
    lead = model.params.shape[:-1]
    out, enc_tape = mlp_forward(model.encoder, np.broadcast_to(views, lead + np.shape(views)))
    reps = relu(out)
    log_ps, (head, head_tape) = aggregator_head(model, alive_aggs, aggregate(reps, keep))
    finals = log_ps
    if gossip_rounds:
        for _ in range(gossip_rounds):
            finals = gossip_round(finals, links)
        finals = log_softmax(finals)
    head_losses = -(y * finals).sum(axis=(-2, -1)) / max(y.shape[0], 1)
    loss = sum(np.moveaxis(head_losses, -1, 0), np.zeros(lead))
    return loss, (reps, enc_tape, log_ps, finals, head, head_tape)


def split_loss_and_grads(model: SplitModel, views, y, keep, alive_aggs,
                         links=None, gossip_rounds=0, out=None):
    """Loss summed over aggregator heads (mean over the batch) and its exact
    gradient, a flat vector laid out like ``model.params``: ``out`` when
    given (``train_epoch`` holds one for all its batches), which is
    overwritten whole, else a fresh vector.

    ``views`` is the client-major (C, B, d) batch and ``y`` its (B, classes)
    one-hot targets, built with ``one_hot`` and not checked again here, on
    every batch. ``split_forward`` runs every client's encoder in one
    stacked pass, then ``aggregate`` and ``aggregator_head`` run the heads of
    ``alive_aggs`` as inference does; the rows of dead aggregators get zero
    gradient.
    ``keep[j, c-1]`` says whether client c's representation reaches
    ``alive_aggs[j]``; unreachable slots are zero-imputed and receive no
    gradient, so a dead client, which reaches no aggregator, gets a zero
    gradient too. With ``gossip_rounds`` > 0, the
    per-head log-probabilities are mixed for that many rounds over the
    (K', K') ``links`` mask and renormalized before the loss.
    """
    n = max(y.shape[0], 1)
    grad = np.empty_like(model.params) if out is None else out
    if not alive_aggs:
        grad[...] = 0.0
        return 0.0, grad
    k_count, b = len(alive_aggs), y.shape[0]
    c_count, rep = model.client_count, model.rep_dim

    loss, (reps, enc_tape, log_ps, finals, head, head_tape) = split_forward(
        model, views, y, keep, alive_aggs, links, gossip_rounds)
    dlogits = (np.exp(finals) - y) / n
    if gossip_rounds:
        deg = links.sum(axis=1)[:, None, None]
        for _ in range(gossip_rounds):
            dlogits = np.tensordot(links.T, dlogits / deg, axes=1)
        dlogits = dlogits - np.exp(log_ps) * dlogits.sum(axis=2, keepdims=True)

    head_grads, du = mlp_backward(head, head_tape, dlogits)
    if not keep.all():
        du = np.where(np.repeat(keep, rep, axis=1)[:, None, :], du, 0.0)
    d_rep = du.reshape(k_count, b, c_count, rep).sum(axis=0)  # (B, C, r)
    dh = d_rep.swapaxes(0, 1) * (reps > 0)
    enc_grads, _ = mlp_backward(model.encoder, enc_tape, dh, input_grad=False)

    g_enc, g_head = model.unflatten(grad)
    if k_count < len(model.aggregators):  # the dead aggregators' rows stay zero
        for w, bias in g_head.layers:
            w[...] = 0.0
            bias[...] = 0.0
    heads = model.head_rows(alive_aggs)
    for rows, stack, grads in ((slice(None), g_enc, enc_grads), (heads, g_head, head_grads)):
        for (gw, gb), (w, bias) in zip(grads, stack.layers):
            w[rows] = gw
            bias[rows] = gb
    return float(loss), grad


def init_optimizer(model: SplitModel, cfg: TrainConfig) -> AdamState:
    return adam_init(model.params, cfg.lr, cfg.beta1, cfg.beta2)


def optimizer_step(model: SplitModel, opt: AdamState, grad):
    """One in-place Adam step over every parameter of the model; rows
    without a gradient this batch step with zeros, as one monolithic
    optimizer would."""
    adam_update(model.params, grad, opt)


def train_epoch(model, opt, views, rows, y_onehot, graph, cfg, rng_data, rng_dropout, rng_fault):
    """One pass over the training rows ``rows`` of the client-major
    ``views``, updating ``model`` and ``opt`` in place; ``y_onehot[i]`` is
    the target of row ``rows[i]``. Every batch writes its gradient into one
    buffer held for the pass. Returns the mean train loss."""
    grad = np.empty_like(model.params)
    n = len(rows)
    order = rng_data.permutation(n)
    total, seen = 0.0, 0
    for start in range(0, n, cfg.batch_size):
        idx = order[start:start + cfg.batch_size]
        keep, alive_aggs, links = batch_delivery(graph, cfg, rng_dropout, rng_fault)
        loss, _ = split_loss_and_grads(
            model, views[:, rows[idx]], y_onehot[idx], keep, alive_aggs, links,
            cfg.gossip_rounds, out=grad)
        optimizer_step(model, opt, grad)
        total += loss * len(idx)
        seen += len(idx)
    return total / max(seen, 1)


def evaluate_split(model: SplitModel, views, labels, graph: DeviceGraph, rows):
    """Fault-free validation: summed head cross-entropy (mean over samples)
    and accuracy averaged over aggregators.

    The samples are the rows ``rows`` of the client-major pool ``views`` and
    of its ``labels``; each chunk of them is gathered by row, so the
    split's views are never copied out whole."""
    aggs, keep = fault_free_delivery(graph)
    n = len(rows)
    loss_sum, hit_sum = 0.0, 0.0
    # samples per encoder pass and heads per head pass, fixed: the chunk
    # sets the order of the loss sum (so the checkpointed best loss to the
    # last bit); both set the pass's peak memory, and all K' heads of a
    # chunk at once measurably raised the train driver's peak RSS
    chunk, group = 512, 4
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        lab = labels[rows[sl]]
        y = one_hot(lab, model.class_count)
        reps = client_encode(model, views[:, rows[sl]])
        for g in range(0, len(aggs), group):
            lps, _ = aggregator_head(model, aggs[g:g + group],
                                     aggregate(reps, keep[g:g + group]))
            for lp in lps:
                loss_sum += float(-(y * lp).sum())
                hit_sum += float((lp.argmax(axis=1) == lab).sum())
    return loss_sum / n, hit_sum / (n * len(aggs))


@dataclass
class Checkpoint:
    model: SplitModel
    config: dict
    best_val_loss: float
    best_epoch: int


def config_echo(cfg: TrainConfig, graph: DeviceGraph, partition: PartitionSpec, class_count: int) -> dict:
    echo = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
            if f.name != "train_fault"}
    return {**echo, "train_fault_kind": cfg.train_fault.kind,
            "train_fault_rate": cfg.train_fault.rate, "graph_kind": graph.kind,
            "device_count": graph.device_count, "rgg_radius": graph.rgg_radius,
            "aggregators": list(graph.aggregators), "grid_side": partition.grid_side,
            "class_count": class_count}


def fit(cfg: TrainConfig, views, labels, class_count: int, split, partition: PartitionSpec,
        graph: DeviceGraph, curve_path=None) -> Checkpoint:
    """Train for cfg.epochs and keep the parameters with the lowest fault-free
    validation loss. Fully deterministic for a fixed seed.

    ``views`` is the client-major (C, n, d) stack of a whole training pool,
    ``labels`` its (n,) labels, and ``split`` the (train rows, validation
    rows) pair from ``make_splits``. Training batches and validation chunks
    are gathered from ``views`` by row: no split is copied out whole."""
    train_rows, val_rows = split
    if len(val_rows) == 0:
        raise InputError("validation split must be nonempty")

    y = one_hot(labels[train_rows], class_count)

    model = init_split_model(graph, partition.patch_dims(), class_count,
                             stream(cfg.seed, "init"))
    opt = init_optimizer(model, cfg)
    rng_data = stream(cfg.seed, "data")
    rng_dropout = stream(cfg.seed, "dropout")
    rng_fault = stream(cfg.seed, "fault")

    best_loss, _ = evaluate_split(model, views, labels, graph, val_rows)
    best_model = model.copy()
    best_epoch = 0

    curves = []
    for epoch in range(1, cfg.epochs + 1):
        tr_loss = train_epoch(model, opt, views, train_rows, y, graph, cfg,
                              rng_data, rng_dropout, rng_fault)
        val_loss, val_acc = evaluate_split(model, views, labels, graph, val_rows)
        curves.append((epoch, tr_loss, val_loss, val_acc))
        if val_loss < best_loss:
            best_loss = val_loss
            best_model = model.copy()
            best_epoch = epoch

    if curve_path is not None:
        with open(curve_path, "a") as f:
            if f.tell() == 0:
                f.write("epoch,train_loss,val_loss,val_accuracy\n")
            for row in curves:
                f.write(f"{row[0]},{row[1]:.9g},{row[2]:.9g},{row[3]:.9g}\n")

    echo = config_echo(cfg, graph, partition, class_count)
    return Checkpoint(best_model, echo, best_loss, best_epoch)


# Checkpoint file layout: a text manifest (layer shapes, config echo and its
# hash) terminated by a DATA line, then raw little-endian float32 values,
# row-major per layer, clients ascending then aggregators ascending, weight
# before bias: the order of ``SplitModel.params``, which computes in float64
# and serializes as float32 in one piece.

_CKPT_MAGIC = "MAGS-CKPT v1"


def _config_line(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def save_checkpoint(ckpt: Checkpoint, path):
    model = ckpt.model
    cfg_line = _config_line(ckpt.config)
    cfg_hash = hashlib.sha256(cfg_line.encode()).hexdigest()
    head = io.StringIO()
    head.write(_CKPT_MAGIC + "\n")
    head.write(f"config {cfg_line}\n")
    head.write(f"config_hash {cfg_hash}\n")
    head.write(f"best_epoch {ckpt.best_epoch}\n")
    head.write(f"best_val_loss {ckpt.best_val_loss!r}\n")
    head.write(f"clients {model.client_count}\n")
    head.write(f"classes {model.class_count}\n")
    head.write(f"rep_dim {model.rep_dim}\n")
    head.write("aggregators " + " ".join(str(k) for k in model.aggregators) + "\n")
    enc_dims = " ".join(str(d) for d in model.encoder_dims)
    for c in range(1, model.client_count + 1):
        head.write(f"encoder {c} {enc_dims}\n")
    head_dims = " ".join(str(d) for d in model.head_dims)
    for k in model.aggregators:
        head.write(f"head {k} {head_dims}\n")
    head.write("DATA\n")

    with open(path, "wb") as f:
        f.write(head.getvalue().encode())
        f.write(model.params.astype("<f4").tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        raw = f.read()
    marker = b"\nDATA\n"
    cut = raw.find(marker)
    if cut < 0 or not raw.startswith(_CKPT_MAGIC.encode()):
        raise ConfigError(f"{path}: not a checkpoint file")
    body = memoryview(raw[cut + len(marker):])

    # a damaged header (a missing line, a bad number, non-UTF-8 bytes, broken
    # JSON) is a bad input, not a crash; the hash is checked before the JSON
    fields = {}
    enc_dims, head_dims = {}, {}
    try:
        for line in raw[:cut].decode().splitlines()[1:]:
            key, _, rest = line.partition(" ")
            if key == "encoder":
                c, *dims = rest.split()
                enc_dims[int(c)] = [int(d) for d in dims]
            elif key == "head":
                k, *dims = rest.split()
                head_dims[int(k)] = [int(d) for d in dims]
            else:
                fields[key] = rest
        if hashlib.sha256(fields["config"].encode()).hexdigest() != fields["config_hash"]:
            raise ConfigError("config hash mismatch")
        config = json.loads(fields["config"])
        best_val_loss, best_epoch = float(fields["best_val_loss"]), int(fields["best_epoch"])
    except KeyError as e:
        raise ConfigError(f"{path}: damaged header: no {e.args[0]} line") from None
    except ValueError as e:  # ConfigError, UnicodeDecodeError and JSONDecodeError included
        raise ConfigError(f"{path}: damaged header: {e}") from None

    enc_shapes = {tuple(d) for d in enc_dims.values()}
    head_shapes = {tuple(d) for d in head_dims.values()}
    if len(enc_shapes) != 1 or len(head_shapes) != 1:
        raise ConfigError(f"{path}: encoder and head shapes must each be uniform")
    (enc_shape,), (head_shape,) = enc_shapes, head_shapes
    size = len(enc_dims) * mlp_size(enc_shape) + len(head_dims) * mlp_size(head_shape)
    if len(body) != 4 * size:
        raise ConfigError(f"{path}: payload has {len(body)} bytes, the manifest needs {4 * size}")
    params = np.frombuffer(body, dtype="<f4").astype(np.float64)
    model = SplitModel(params, len(enc_dims), enc_shape, tuple(sorted(head_dims)), head_shape)
    return Checkpoint(model, config, best_val_loss, best_epoch)
