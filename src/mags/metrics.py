"""Selection policies and their shared-draw evaluation, communication
counting, and the ensemble-loss decomposition.

Selection policies map per-aggregator predictions to one system output:

* ``active_rand``  uniform pick among active aggregators
* ``active_best``  correct iff any active prediction is correct (oracle)
* ``active_worst`` incorrect iff any active prediction is incorrect (oracle)
* ``any_rand``     uniform pick over all devices, active or not

When no aggregator can reach the entity (or an uninformed device is picked),
the output is a uniformly random class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .faults import FAULT_KIND_IDS, FaultModel, RealizedGraph, active_mask, sample_realization
from .inference import SplitModel, mags_infer
from .nn import log_softmax
from .rng import stream
from .topology import DeviceGraph

POLICIES = ("active_rand", "active_best", "active_worst", "any_rand")


def fault_rate_key(rate: float) -> int:
    """Stream subkey of an evaluation fault rate: the rate in thousandths.

    Rates off the 1e-3 grid are rejected, because two of them closer than
    1e-3 would share one key and so draw identical fault and selection
    streams.
    """
    key = int(round(rate * 1000))
    if not math.isclose(rate * 1000, key, rel_tol=0.0, abs_tol=1e-6):
        raise ConfigError(f"fault rate {rate!r} is not a multiple of 0.001")
    return key


def count_comm(realized: RealizedGraph, aggregators, gossip_rounds: int) -> np.ndarray:
    """Messages into aggregators per inference of each batch, final entity
    hop excluded: alive directed non-self device edges into each alive
    aggregator, once per communication round (G + 1 of them). A realization
    held for every round is counted once and multiplied. Gossip rounds count
    deliveries from all base neighbors (the accounting convention), even
    though the averaging itself only consumes aggregator values."""
    aggs = np.asarray(aggregators, dtype=np.intp)
    edges = realized.edge_alive[:, :, aggs]                        # (nb, R, K, C+1)
    into = edges[..., 1:].sum(axis=-1) - edges[..., np.arange(aggs.size), aggs]
    per_round = (into * realized.alive[:, None, aggs]).sum(axis=-1)  # (nb, R)
    if per_round.shape[1] == 1:
        return per_round[:, 0] * (gossip_rounds + 1)
    return per_round.sum(axis=1)


def ensemble_decomposition(member_log_probs, y_onehot):
    """Normalized geometric-mean ensemble of probability members.

    Members are normalized log-probability vectors, shape (K, M). Returns
    (ensemble loss, mean member loss, diversity) where diversity is the mean
    KL divergence from the ensemble to each member; the three satisfy
    ensemble = mean - diversity, checked here to 1e-9.
    """
    lps = np.asarray(member_log_probs, dtype=np.float64)
    if lps.ndim != 2 or lps.shape[0] < 1:
        raise InputError("need at least one member log-probability vector")
    y = np.asarray(y_onehot, dtype=np.float64).reshape(-1)
    if y.shape[0] != lps.shape[1]:
        raise InputError("target length does not match class count")

    ens_lp = log_softmax(lps.mean(axis=0))
    p_ens = np.exp(ens_lp)

    ens_loss = float(-(y * ens_lp).sum())
    mean_member_loss = float(-(y[None, :] * lps).sum(axis=1).mean())
    diversity = float((p_ens * (ens_lp - lps)).sum(axis=1).mean())
    residual = abs(ens_loss - (mean_member_loss - diversity))
    if residual > 1e-9:
        raise ArithmeticError(f"ensemble decomposition identity violated by {residual:.3e}")
    return ens_loss, mean_member_loss, diversity


@dataclass
class EvalResult:
    accuracy: dict       # policy -> accuracy in [0, 1]
    comm_mean: float     # mean messages per inference
    sample_count: int


def evaluate_policies(model: SplitModel, reps, labels, graph: DeviceGraph,
                      fault_model: FaultModel, policies, gossip_rounds: int,
                      seed: int, batch_size: int = 64, trials: int = 1) -> EvalResult:
    """Score several selection policies against shared fault realizations and
    shared selection draws (common random numbers).

    ``reps`` is the (C, n, r) stack of every client's representation of all
    samples, as returned by ``client_encode``; each batch scores its slice.

    The coupling preserves each policy's marginal distribution while making
    the oracle orderings (best >= rand >= worst) hold per sample: the
    any-device pick doubles as the active pick whenever it lands in the
    active set, and every uniform-guess fallback within a sample shares one
    draw. The cell's realizations, one per batch, come from one
    ``sample_realization`` call, and the active sets from one mask over them.
    """
    for p in policies:
        if p not in POLICIES:
            raise ConfigError(f"unknown policy {p!r}")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if batch_size < 1:
        raise ConfigError(f"batch size {batch_size} must be >= 1")
    if labels.shape[0] == 0:
        raise InputError("evaluation needs at least one sample")
    kind_id = FAULT_KIND_IDS[fault_model.kind]
    rate_key = fault_rate_key(fault_model.rate)
    rng_fault = stream(seed, "fault", kind_id, rate_key)
    rng_sel = stream(seed, "select", kind_id, rate_key)

    n = labels.shape[0]
    c_count = graph.device_count
    m = model.class_count
    starts = list(range(0, n, batch_size)) * trials
    sizes = np.array([min(batch_size, n - start) for start in starts])
    realized = sample_realization(graph, fault_model, len(starts), gossip_rounds + 1, rng_fault)
    comm_total = int(count_comm(realized, graph.aggregators, gossip_rounds) @ sizes)
    active = active_mask(realized, graph.aggregators)
    # row of each device among the sorted active aggregators of its batch
    active_row = np.cumsum(active, axis=1) - 1

    hits = {p: 0.0 for p in policies}
    for i, (start, b) in enumerate(zip(starts, sizes)):
        log_probs = mags_infer(model, reps[:, start:start + b], graph, realized[i],
                               gossip_rounds)
        lab = labels[start:start + b]
        act = np.flatnonzero(active[i])

        guess = rng_sel.integers(m, size=b)
        upick = rng_sel.integers(1, c_count + 1, size=b)
        vpick = rng_sel.integers(max(act.size, 1), size=b)

        guess_ok = guess == lab
        if not act.size:
            for p in policies:
                hits[p] += float(guess_ok.sum())
            continue

        argmax = np.stack([log_probs[k].argmax(axis=1) for k in act])  # (|A|, b)
        correct = argmax == lab[None, :]
        u_in_act = active[i, upick]
        u_row = active_row[i, upick]
        rand_rows = np.where(u_in_act, u_row, vpick)
        cols = np.arange(b)

        outcomes = {
            "active_rand": correct[rand_rows, cols],
            "active_best": correct.any(axis=0),
            "active_worst": correct.all(axis=0),
            "any_rand": np.where(u_in_act, correct[np.maximum(u_row, 0), cols], guess_ok),
        }
        for p in policies:
            hits[p] += float(outcomes[p].sum())

    total = n * trials
    return EvalResult({p: hits[p] / total for p in policies},
                      comm_total / total, total)
