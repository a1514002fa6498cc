"""Decentralized training.

The objective is the sum over aggregator heads of mean cross-entropy (labels
are available at every device), backpropagated exactly through the
concatenation into every client encoder, one Adam step on the flat parameter
vector per batch. Faults are simulated with party-wise (PD) or
communication-wise (CD) dropout: dropped slots are zero-imputed with no
inverse-rate rescaling, because the point is to match the test-time fault
distribution, not to regularize. Each batch holds its own dropout/fault
realization of one round, all of an epoch's drawn in one call. Gossip stays
out of training unless enabled; it then mixes over that round's links
through ``mags_infer``, the loop inference runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .data import COMPUTE_DTYPE, PartitionSpec, one_hot
from .errors import ConfigError, InputError
from .faults import FaultModel, RealizedGraph, base_realization, sample_realization
from .inference import (SplitModel, aggregate, aggregator_head, delivery, gossip_adjoint,
                        gossip_mix, init_split_model, mags_infer, sample_major)
from .nn import (AdamState, adam_init, adam_update, log_softmax, mlp_backward, mlp_forward,
                 mlp_size, relu)
from .rng import stream
from .topology import DeviceGraph

DROPOUT_KINDS = ("none", "pd", "cd")
# Memoryless kinds: one ``sample_realization`` call draws an epoch's realizations, one per batch.
TRAIN_FAULT_KINDS = ("none", "device", "communication")


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters, checked once, when built: a config's
    ``[train]`` section, with each job's dropout and run seed replaced."""

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
        # a rate with no kind would train fault-free and echo the rate
        if kind == "none" and self.train_fault.rate != 0.0:
            raise ConfigError(f"train fault rate {self.train_fault.rate} needs a fault_kind "
                              "other than none")
        # a batch under a train fault takes its deliveries from the fault
        # draw, so the dropout would never apply
        if kind != "none" and self.dropout != "none":
            d = self.dropout.upper()
            raise ConfigError(f"a {d}- method uses {d} dropout, which cannot be "
                              f"combined with train fault kind {kind!r}")


def apply_pd_mask(batches: int, client_count: int, rate: float, rng) -> np.ndarray:
    """Party-wise dropout keep flags, (batches, C): a dropped client's
    representation disappears for every aggregator at once, its own head
    included."""
    return rng.random((batches, client_count)) >= rate


def apply_cd_mask(batches: int, client_count: int, aggregators, rate: float, rng) -> np.ndarray:
    """Communication-wise dropout keep flags, (batches, K, C), row j for
    ``aggregators[j]``: each non-self client->aggregator delivery drops
    independently; self slots never drop."""
    aggs = np.asarray(aggregators, dtype=np.intp)
    keep = rng.random((batches, aggs.size, client_count)) >= rate
    keep[:, np.arange(aggs.size), aggs - 1] = True
    return keep


def batch_delivery(graph: DeviceGraph, cfg: TrainConfig, batches: int, rng_dropout, rng_fault):
    """Which client representations reach which aggregator in each of an
    epoch's ``batches`` batches, drawn in one call as ``evaluate_policies``
    draws a cell's: (keep (nb, K, C), the realization stacked over the
    batches). Entry i is batch i's, keep row j ``graph.aggregators[j]``, a
    dead one's all False; ``realized[i]`` holds one round, which gives the
    batch's alive heads and, when the loss gossips, its links. One
    ``sample_realization`` (a fault-free model draws nothing and gives the
    base graph), then one dropout mask draw: numpy fills a (nb, ...) draw in
    C order, so each stream is used up as one call per batch would use it.
    The draw is held whole, as a cell's is: 0.23 MB of uniforms for 100
    batches of communication faults on 16 devices."""
    realized = sample_realization(graph, cfg.train_fault, batches, 1, rng_fault)
    keep = delivery(realized, graph.aggregators)[1]
    c = graph.device_count
    if cfg.dropout == "pd":
        keep &= apply_pd_mask(batches, c, cfg.dropout_rate, rng_dropout)[:, None, :]
    elif cfg.dropout == "cd":
        keep &= apply_cd_mask(batches, c, graph.aggregators, cfg.dropout_rate, rng_dropout)
    return keep, realized


def split_forward(model: SplitModel, views, y, keep, realized: RealizedGraph, gossip_rounds=0):
    """The forward half of ``split_loss_and_grads``: the loss summed over
    the alive heads (mean over the batch), and what the backward half
    reads, (reps, encoder tape, head log-probs, final log-probs, head
    stack, head tape). Takes that function's arguments. Every head runs,
    and the loss of each dead one is set to zero. The final log-probs are
    the heads' own, or ``log_softmax`` of ``mags_infer``'s rounds over
    ``realized`` when the loss gossips.

    ``model`` may hold a (P, N) stack of parameter vectors: the batch then
    runs through all P models in one pass, and the loss is a (P,) array,
    entry s bit-identical to the loss of parameter vector s run alone. The
    heads' losses are added left to right in float64, as Python's ``sum``
    from a float64 zero adds them (``np.add.reduce`` over 8 or more heads
    would pair them up). For a single vector the loss is a numpy scalar;
    with no alive head it is 0."""
    lead = model.params.shape[:-1]
    out, enc_tape = mlp_forward(model.encoder, np.broadcast_to(views, lead + np.shape(views)))
    reps = relu(out)
    inputs = aggregate(sample_major(reps), keep)
    log_ps, (head, head_tape) = aggregator_head(model, inputs)
    finals = (log_softmax(mags_infer(log_ps, model.aggregators, realized, gossip_rounds))
              if gossip_rounds else log_ps)
    head_losses = -(y * finals).sum(axis=(-2, -1)) / max(y.shape[0], 1)
    head_losses[..., ~delivery(realized, model.aggregators)[0]] = 0.0
    loss = np.cumsum(head_losses, axis=-1, dtype=np.float64)[..., -1]
    return loss, (reps, enc_tape, log_ps, finals, head, head_tape)


def split_loss_and_grads(model: SplitModel, views, y, keep, realized: RealizedGraph,
                         gossip_rounds=0, out=None):
    """Loss summed over aggregator heads (mean over the batch) and its exact
    gradient, a flat vector laid out like ``model.params``. ``out``, when
    given, is a SplitModel like ``model`` whose ``params`` receive the
    gradient, overwritten whole: ``train_epoch`` holds one for all its
    batches, so its layer views are built once per pass. Without it the
    gradient is a fresh vector.

    ``views`` is the client-major (C, B, d) batch and ``y`` its (B, classes)
    one-hot targets, built with ``one_hot`` and not checked again here, on
    every batch. ``split_forward`` runs every client's encoder in one
    stacked pass, then ``aggregate`` and ``aggregator_head`` run every head
    as inference does. ``realized``, the batch's one-round realization,
    gives the alive heads: a dead head's output gradient is set to zero by
    one boolean-mask write, so its gradient rows are +0.0, and every head
    row is written through the layer views of ``out``.
    ``keep[j, c-1]`` says whether client c's representation reaches
    ``model.aggregators[j]``; unreachable slots are zero-imputed and receive
    no gradient, so a dead client, which reaches no aggregator, gets a zero
    gradient too. With ``gossip_rounds`` > 0, the per-head log-probabilities
    are mixed for that many rounds over the links of ``realized`` and
    renormalized before the loss; ``gossip_adjoint`` undoes the rounds over
    the ``gossip_mix`` pair of its one round.
    """
    n = max(y.shape[0], 1)
    grad = dataclasses.replace(model, params=np.empty_like(model.params)) if out is None else out

    loss, (reps, enc_tape, log_ps, finals, head, head_tape) = split_forward(
        model, views, y, keep, realized, gossip_rounds)
    dlogits = np.exp(finals)
    dlogits -= y
    dlogits /= n
    if gossip_rounds:
        mix = gossip_mix(realized.edge_alive[0], model.aggregators, dlogits.dtype)
        for _ in range(gossip_rounds):
            dlogits = gossip_adjoint(dlogits, mix)
        dlogits -= np.exp(log_ps) * dlogits.sum(axis=2, keepdims=True)
    dlogits[~delivery(realized, model.aggregators)[0]] = 0.0

    _, du = mlp_backward(head, head_tape, dlogits, out=grad.head)
    if not keep.all():
        np.copyto(du, 0.0, where=~np.repeat(keep, model.rep_dim, axis=1)[:, None, :])
    d_rep = du.reshape(*du.shape[:2], model.client_count, model.rep_dim).sum(axis=0)  # (B, C, r)
    dh = d_rep.swapaxes(0, 1) * (reps > 0)
    mlp_backward(model.encoder, enc_tape, dh, input_grad=False, out=grad.encoder)
    return float(loss), grad.params


def optimizer_step(model: SplitModel, opt: AdamState, grad):
    """One in-place Adam step over every parameter of the model; rows
    without a gradient this batch step with zeros, as one monolithic
    optimizer would."""
    adam_update(model.params, grad, opt)


def train_epoch(model, opt, views, rows, y_onehot, graph, cfg, rng_data, rng_dropout, rng_fault):
    """One pass over the training rows ``rows`` of the client-major
    ``views``, updating ``model`` and ``opt`` in place; ``y_onehot[i]`` is
    the target of row ``rows[i]``. One ``batch_delivery`` draws every batch's
    delivery first. Each batch is gathered by row, cast to the parameters'
    dtype, and writes its gradient into one buffer held for the pass,
    through layer views built once. Then every Adam moment below the dtype's
    smallest normal is zeroed. Returns the mean train loss."""
    grad = dataclasses.replace(model, params=np.empty_like(model.params))
    n = len(rows)
    order = rng_data.permutation(n)
    starts = range(0, n, cfg.batch_size)
    keep, realized = batch_delivery(graph, cfg, len(starts), rng_dropout, rng_fault)
    total = 0.0
    for i, start in enumerate(starts):
        idx = order[start:start + cfg.batch_size]
        batch = np.take(views, rows[idx], axis=1).astype(model.params.dtype, copy=False)
        loss, _ = split_loss_and_grads(model, batch, y_onehot[idx], keep[i], realized[i],
                                       cfg.gossip_rounds, out=grad)
        optimizer_step(model, opt, grad.params)
        total += loss * len(idx)
    # A moment with zero gradients stops in the subnormals (float32 rounds
    # 0.9 * k * 2**-149 to k for k <= 4), which slow every later step. Its
    # step, below about lr * 1e-30, moves no parameter above lr * 1e-22.
    for moment in (opt.m, opt.v):
        moment[np.abs(moment) < np.finfo(moment.dtype).tiny] = 0.0
    return total / max(n, 1)


def evaluate_split(model: SplitModel, views, labels, graph: DeviceGraph, rows, gossip_rounds=0):
    """Fault-free validation: ``split_forward``'s loss, the one training
    minimizes, on the base graph's realization with ``gossip_rounds``
    rounds over its links, and the accuracy of its final log-probs averaged
    over aggregators. The samples are the rows ``rows`` of the client-major
    pool ``views`` and of its ``labels``, gathered and cast to the
    parameters' dtype a chunk at a time, so the split's views are never
    copied out whole; each chunk's mean loss is weighted by its rows."""
    realized = base_realization(graph, 1)[0]
    keep = delivery(realized, graph.aggregators)[1]
    loss_sum, hit_sum = 0.0, 0.0
    # samples per encoder pass, fixed: the chunk sets the order of the loss
    # sum (so the checkpointed best loss to the last bit) and, with the head
    # count, the pass's peak memory. Every head runs in one pass: in
    # float32, on the desk validation split (1600 rows, 16 clients, 16
    # heads, 10 classes), the traced peak was 7.2 MiB, against 4.8 MiB in
    # passes of 8 heads, in about the same time
    chunk = 512
    for start in range(0, len(rows), chunk):
        idx = rows[start:start + chunk]
        lab = labels[idx]
        x = np.take(views, idx, axis=1).astype(model.params.dtype, copy=False)
        loss, (*_, finals, _, _) = split_forward(model, x, one_hot(lab, model.class_count),
                                                  keep, realized, gossip_rounds)
        loss_sum += float(loss) * len(lab)
        hit_sum += float((finals.argmax(axis=-1) == lab).sum())
    return loss_sum / len(rows), hit_sum / (len(rows) * len(keep))


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
    """Train for cfg.epochs and keep the parameters whose fault-free
    validation loss, the trained one after its gossip rounds, is lowest.
    Fully deterministic for a fixed seed.

    ``views`` is the client-major (C, n, d) stack of a whole training pool,
    ``labels`` its (n,) labels, and ``split`` the (train rows, validation
    rows) pair from ``make_splits``. Training batches and validation chunks
    are gathered from ``views`` by row: no split is copied out whole.

    The model trains and validates in COMPUTE_DTYPE (float32): a copy of
    the float64 ``init_split_model`` draw, rounded to it."""
    train_rows, val_rows = split
    if len(val_rows) == 0:
        raise InputError("validation split must be nonempty")

    y = one_hot(labels[train_rows], class_count)

    model = init_split_model(graph, partition.patch_dims(), class_count,
                             stream(cfg.seed, "init"))
    model = dataclasses.replace(model, params=model.params.astype(COMPUTE_DTYPE))
    opt = adam_init(model.params, cfg.lr, cfg.beta1, cfg.beta2)
    rng_data, rng_dropout, rng_fault = (stream(cfg.seed, k) for k in ("data", "dropout", "fault"))

    best_loss, _ = evaluate_split(model, views, labels, graph, val_rows, cfg.gossip_rounds)
    best_model = model.copy()
    best_epoch = 0

    curves = []
    for epoch in range(1, cfg.epochs + 1):
        tr_loss = train_epoch(model, opt, views, train_rows, y, graph, cfg,
                              rng_data, rng_dropout, rng_fault)
        val_loss, val_acc = evaluate_split(model, views, labels, graph, val_rows,
                                           cfg.gossip_rounds)
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
# before bias: the order of ``SplitModel.params``, which ``fit`` trains in
# float32, so the payload is the model itself, written and read in one piece.

_CKPT_MAGIC = "MAGS-CKPT v1"


def _config_line(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _layer_lines(clients: int, enc_dims, aggregators, head_dims) -> list:
    """The manifest's encoder and head lines: one per client, then one per
    aggregator, each with its id and layer widths."""
    enc, head = (" ".join(str(d) for d in dims) for dims in (enc_dims, head_dims))
    return ([f"encoder {c} {enc}" for c in range(1, clients + 1)]
            + [f"head {k} {head}" for k in aggregators])


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
    for line in _layer_lines(model.client_count, model.encoder_dims, model.aggregators,
                             model.head_dims):
        head.write(line + "\n")
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
    fields, layers = {}, []
    try:
        for line in raw[:cut].decode().splitlines()[1:]:
            key, _, rest = line.partition(" ")
            if key in ("encoder", "head"):
                layers.append(line)
                rest = [int(v) for v in rest.split()][1:]  # its widths; ids are checked below
            fields[key] = rest
        if hashlib.sha256(fields["config"].encode()).hexdigest() != fields["config_hash"]:
            raise ConfigError("config hash mismatch")
        config = json.loads(fields["config"])
        best_val_loss, best_epoch = float(fields["best_val_loss"]), int(fields["best_epoch"])
        clients, classes, rep_dim = (int(fields[k]) for k in ("clients", "classes", "rep_dim"))
        aggregators = tuple(int(k) for k in fields["aggregators"].split())
        enc_dims, head_dims = tuple(fields["encoder"]), tuple(fields["head"])
    except KeyError as e:
        raise ConfigError(f"{path}: damaged header: no {e.args[0]} line") from None
    except ValueError as e:  # ConfigError, UnicodeDecodeError and JSONDecodeError included
        raise ConfigError(f"{path}: damaged header: {e}") from None

    # the layer lines must be the ones the manifest's own counts and widths give
    if layers != _layer_lines(clients, enc_dims, aggregators, head_dims):
        raise ConfigError(f"{path}: the layer lines are not encoders 1..{clients} and heads "
                          f"{' '.join(map(str, aggregators))}, each kind of one shape")
    if enc_dims[-1:] + head_dims[:1] + head_dims[-1:] != (rep_dim, clients * rep_dim, classes):
        raise ConfigError(f"{path}: encoder {enc_dims} and head {head_dims} widths do not "
                          f"fit {clients} clients, rep_dim {rep_dim} and {classes} classes")
    # the hash covers the config line alone: the counts it echoes must agree
    counts = {"device_count": clients, "class_count": classes, "aggregators": list(aggregators)}
    if not isinstance(config, dict) or any(config.get(k) != v for k, v in counts.items()):
        raise ConfigError(f"{path}: clients {clients}, classes {classes} and aggregators "
                          f"{list(aggregators)} contradict the config line")
    size = clients * mlp_size(enc_dims) + len(aggregators) * mlp_size(head_dims)
    if len(body) != 4 * size:
        raise ConfigError(f"{path}: payload has {len(body)} bytes, the manifest needs {4 * size}")
    params = np.frombuffer(body, dtype="<f4").astype(np.float32)
    model = SplitModel(params, clients, enc_dims, aggregators, head_dims)
    return Checkpoint(model, config, best_val_loss, best_epoch)
