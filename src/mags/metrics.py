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
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError
from .faults import FAULT_KIND_IDS, RealizedGraph, active_mask, sample_realization
from .inference import (SplitModel, aggregate, aggregator_head, delivery, fault_free_delivery,
                        mags_infer, sample_major)
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

    Members are normalized log-probability vectors, shape (..., K, M), one
    set of K members per leading index, with targets of shape (..., M).
    Returns (ensemble loss, mean member loss, diversity), each of the
    leading shape, where diversity is the mean KL divergence from the
    ensemble to each member; the three satisfy ensemble = mean - diversity,
    checked here to 1e-9 for every set. Each set's values equal those of a
    call with that set alone, and a single (K, M) set returns three
    ``np.float64`` scalars.
    """
    lps = np.asarray(member_log_probs, dtype=np.float64)
    if lps.ndim < 2 or lps.shape[-2] < 1:
        raise InputError("need at least one member log-probability vector per set, "
                         f"got shape {lps.shape}")
    y = np.asarray(y_onehot, dtype=np.float64)
    if y.shape != lps.shape[:-2] + lps.shape[-1:]:
        raise InputError(f"targets of shape {y.shape} do not match members of shape "
                         f"{lps.shape}: need {lps.shape[:-2] + lps.shape[-1:]}")

    ens_lp = log_softmax(lps.mean(axis=-2))
    p_ens = np.exp(ens_lp)

    ens_loss = -(y * ens_lp).sum(axis=-1)
    mean_member_loss = -(y[..., None, :] * lps).sum(axis=-1).mean(axis=-1)
    diversity = (p_ens[..., None, :] * (ens_lp[..., None, :] - lps)).sum(axis=-1).mean(axis=-1)
    residual = np.abs(ens_loss - (mean_member_loss - diversity)).max(initial=0.0)
    if residual > 1e-9:
        raise ArithmeticError(f"ensemble decomposition identity violated by {residual:.3e}")
    return ens_loss[()], mean_member_loss[()], diversity[()]


@dataclass
class EvalResult:
    accuracy: dict       # policy -> accuracy in [0, 1]
    comm_mean: float     # mean messages per inference
    sample_count: int
    seconds: float = field(compare=False)  # scoring time, not part of the result


def score_policies(correct, active, labels, guess, upick, vpick) -> dict:
    """Every policy's per-sample outcome over a cell's batches, in one pass.

    ``correct`` is (nb, C+1, B): ``correct[i, d, j]`` says whether
    aggregator device d's final prediction of sample j of batch i is right,
    and is False for a device without one. ``active`` is the (nb, C+1)
    active mask. ``labels``, ``guess``, ``upick`` and ``vpick`` are (nb, B):
    the labels, the uniform-guess classes, the any-device picks in 1..C and
    the picks among the active devices, ``vpick[i] < max(|A_i|, 1)``. A
    short batch is padded with label -1, which no prediction or guess
    matches, so its padding is a miss under every policy.

    ``active_rand`` scores the ``upick`` device when it is active, else the
    ``vpick``-th active device in device order; ``active_best`` and
    ``active_worst`` are ``any`` and ``all`` over the active devices;
    ``any_rand`` falls back to the guess when its pick is inactive; and a
    batch with no active device scores the guess under every policy.
    Returns policy -> (nb, B) bool outcomes.
    """
    rows, cols = np.ogrid[:correct.shape[0], :correct.shape[2]]
    guess_ok = guess == labels
    u_active = active[rows, upick]
    # a stable sort of the inactive flags lists the active devices first, in order
    v_dev = np.argsort(~active, axis=1, kind="stable")[rows, vpick]
    act = active[:, :, None]
    outcomes = {
        "active_rand": correct[rows, np.where(u_active, upick, v_dev), cols],
        "active_best": (correct & act).any(axis=1),
        "active_worst": ~(act & ~correct).any(axis=1),
        "any_rand": np.where(u_active, correct[rows, upick, cols], guess_ok),
    }
    empty = ~active.any(axis=1, keepdims=True)
    return {p: np.where(empty, guess_ok, o) for p, o in outcomes.items()}


def evaluate_policies(model: SplitModel, reps, labels, graph: DeviceGraph, fault_models,
                      policies, gossip_rounds, seed: int, batch_size: int = 64,
                      trials: int = 1) -> list:
    """Score several selection policies for every fault model in
    ``fault_models`` and every gossip count in ``gossip_rounds``, against
    shared fault realizations and shared selection draws (common random
    numbers). Returns one list per fault model, in the order given, holding
    one ``EvalResult`` per count, in the order given; each equals the result
    of a call with that fault model and count alone. Its ``seconds`` is the
    fault model's scoring time split evenly over the counts.

    ``reps`` is the (C, n, r) stack of every client's representation of all
    samples, as returned by ``client_encode``; it is laid out by sample
    once, and each batch aggregates a view of its rows.

    The coupling preserves each policy's marginal distribution while making
    the oracle orderings (best >= rand >= worst) hold per sample: the
    any-device pick doubles as the active pick whenever it lands in the
    active set, and every uniform-guess fallback within a sample shares one
    draw.

    Each fault model keys its own fault and selection streams by its kind
    and rate. Each count draws its (G+1)-round realizations from its own
    copy of that fault stream, whose key has no gossip count, and
    ``sample_realization`` draws every batch's first round before any chain
    step, so every count sees the same first round of every batch, and the
    head pass reads only that round. One walk over the batches therefore
    serves every count. It keeps only the work that must be done batch by
    batch: one ``delivery``, ``aggregate`` and ``aggregator_head``, then per
    count that batch's gossip stage (``mags_infer``), whose argmax is
    recorded in the count's (batches, C+1, batch) correctness array, row by
    aggregator device. The head outputs of a batch that sees the base graph
    are computed once per call and batch slice, so every rate-0 cell, and
    every device-fault batch in which no device died, shares them.

    After the walk, each count scores the whole cell in one
    ``score_policies`` pass. Its selection draws come from its own copy of
    the cell's selection stream in three calls over the cell's samples,
    batch-major: the guess classes, the any-device picks, then the active
    picks, each sample's bound its batch's ``max(|A_i|, 1)``. Hits are
    integer counts, so each accuracy is one exact division.
    """
    for p in policies:
        if p not in POLICIES:
            raise ConfigError(f"unknown policy {p!r}")
    counts = list(gossip_rounds)
    if not counts or min(counts) < 0:
        raise ConfigError(f"gossip round counts {counts} must be a nonempty list of "
                          "integers >= 0")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if batch_size < 1:
        raise ConfigError(f"batch size {batch_size} must be >= 1")
    if labels.shape[0] == 0:
        raise InputError("evaluation needs at least one sample")
    keys = [(FAULT_KIND_IDS[f.kind], fault_rate_key(f.rate)) for f in fault_models]

    n = labels.shape[0]
    c_count = graph.device_count
    m = model.class_count
    width = min(batch_size, n)
    starts = list(range(0, n, width)) * trials
    sizes = [min(width, n - start) for start in starts]
    valid = np.arange(width) < np.array(sizes)[:, None]  # (nb, width): the slots holding a sample
    lab = np.full((len(starts), width), -1, dtype=np.int64)  # a short batch padded with -1
    lab[valid] = np.tile(labels, trials)
    total = n * trials
    rows = sample_major(reps)
    base_aggs, base_keep = fault_free_delivery(graph)
    base_values = {}  # head outputs of the batches that see the base graph, by slice
    grid = []
    for fault_model, key in zip(fault_models, keys):
        clock = time.perf_counter()
        realized = [sample_realization(graph, fault_model, len(starts), g + 1,
                                       stream(seed, "fault", *key)) for g in counts]
        correct = np.zeros((len(counts), len(starts), c_count + 1, width), dtype=bool)
        for i, (start, b) in enumerate(zip(starts, sizes)):
            # every count's first rounds are the same: the head pass reads them
            aggs, keep = delivery(realized[0][i], graph.aggregators)
            clean = aggs == base_aggs and np.array_equal(keep, base_keep)
            values = base_values.get((start, b)) if clean else None
            if values is None:
                values, _ = aggregator_head(model, aggs, aggregate(rows[start:start + b], keep))
                if clean:
                    base_values[start, b] = values
            for s, g in enumerate(counts):
                final = mags_infer(values, aggs, realized[s][i], g)
                correct[s, i, aggs, :b] = final.argmax(axis=2) == lab[i, :b]

        results = []
        for s, g in enumerate(counts):
            active = active_mask(realized[s], graph.aggregators)
            rng_sel = stream(seed, "select", *key)
            bounds = np.repeat(np.maximum(active.sum(axis=1), 1), sizes)
            draws = np.zeros((3, len(starts), width), dtype=np.int64)
            draws[:, valid] = (rng_sel.integers(m, size=total),
                               rng_sel.integers(1, c_count + 1, size=total),
                               rng_sel.integers(bounds))
            outcomes = score_policies(correct[s], active, lab, *draws)
            comm = int(count_comm(realized[s], graph.aggregators, g) @ sizes)
            results.append(({p: int(outcomes[p].sum()) / total for p in policies},
                            comm / total))
        seconds = (time.perf_counter() - clock) / len(counts)
        grid.append([EvalResult(acc, comm_mean, total, seconds) for acc, comm_mean in results])
    return grid
