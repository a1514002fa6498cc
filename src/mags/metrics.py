"""Selection policies and their shared-draw evaluation, communication
counting, and the ensemble-loss decomposition.

Selection policies map per-aggregator predictions to one system output:

* ``active_rand``  uniform pick among active aggregators
* ``active_best``  correct iff any active prediction is correct (oracle)
* ``active_worst`` incorrect iff any active prediction is incorrect (oracle)
* ``any_rand``     uniform pick over all devices, active or not

When no aggregator can reach the entity (or an uninformed device is picked),
the output is a uniformly random class. Each policy is scored by its
expected outcome given the fault draw, its pick averaged out exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError
from .faults import FAULT_KIND_IDS, RealizedGraph, active_mask, sample_realization
from .inference import (SplitModel, aggregate, aggregator_head, delivery, mags_infer,
                        sample_major)
from .nn import log_softmax
from .rng import stream
from .topology import DeviceGraph

POLICIES = ("active_rand", "active_best", "active_worst", "any_rand")


def fault_rate_key(rate: float) -> int:
    """Stream subkey of an evaluation fault rate: the rate in thousandths.

    Rates off the 1e-3 grid are rejected, because two of them closer than
    1e-3 would share one key and so draw identical fault streams.
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
    # scoring time, not part of the result; a fault-free cell that reuses
    # the first fault-free cell's results reports that cell's time
    seconds: float = field(compare=False)


def score_policies(correct, active, valid, classes: int) -> dict:
    """Every policy's expected per-sample outcome over a cell's batches,
    given the fault draw: each uniform pick is averaged out exactly
    (conditional Monte Carlo), so nothing is drawn.

    ``correct`` is (nb, C+1, B): ``correct[i, d, j]`` says whether
    aggregator device d's final prediction of sample j of batch i is right;
    only an active device's entries are read, so a dead aggregator's row,
    its head's output on no input, and a non-aggregator's are ignored.
    ``active`` is the (nb, C+1) active mask and ``valid`` the (nb, B) mask
    of the slots holding a sample. With n a batch's active aggregators, s
    those of them right on a sample and M = ``classes``, ``active_rand``
    scores s/n, ``active_best`` [s > 0], ``active_worst`` [s = n] and ``any_rand``
    (s·M + C − n) / (C·M): a pick among the C devices is right w.p. s/C,
    and after one of the C − n inactive ones the guess is right w.p. 1/M.
    One division makes it the same float as s/n at n = C, and at most s/n
    exactly where s/n ≥ 1/M or n ∈ {0, C}. A batch with no active
    aggregator scores 1/M under every policy, and a padded slot 0.
    Returns policy -> (nb, B) float64 values.
    """
    c = correct.shape[1] - 1
    n = active.sum(axis=1)[:, None]
    s = (correct & active[:, :, None]).sum(axis=1)
    outcomes = {
        "active_rand": s / np.maximum(n, 1),
        "active_best": s > 0,
        "active_worst": s == n,
        "any_rand": (s * classes + c - n) / (c * classes),
    }
    return {p: np.where(valid, np.where(n == 0, 1.0 / classes, o), 0.0)
            for p, o in outcomes.items()}


def evaluate_policies(model: SplitModel, reps, labels, graph: DeviceGraph, fault_models,
                      policies, gossip_rounds, seed: int, batch_size: int = 64,
                      trials: int = 1) -> list:
    """Score several selection policies for every fault model in
    ``fault_models`` and every gossip count in ``gossip_rounds``, against
    shared fault realizations (common random numbers). Returns one list per
    fault model, in the order given, holding one ``EvalResult`` per count,
    in the order given; each equals the result of a call with that fault
    model and count alone. Its ``seconds`` is the fault model's scoring
    time split evenly over the counts. Every ``fault_free`` model scores
    the base graph alike, so only the first one is scored: each later one
    is handed that same list, its ``seconds`` the first one's.

    ``reps`` is the (C, n, r) stack of every client's representation of all
    samples, as returned by ``client_encode``; it is laid out by sample
    once, and each pass gathers its batches' rows.

    Each fault model keys its own fault stream by its kind and rate. Each
    count draws its (G+1)-round realizations from its own copy of that
    stream, whose key has no gossip count, and ``sample_realization`` draws
    every batch's first round before any chain step, so every count sees
    the same first round of every batch, and the head pass reads only that
    round. One walk over the batches therefore serves every count. The walk
    takes a cell's batches a chunk at a time, each batch at full width: a
    trial's short last batch is filled from the split's first samples,
    slots that no score reads. Each chunk makes one stacked ``aggregate``
    and ``aggregator_head`` pass, every head running, a dead aggregator's on
    the zeros of its all-False delivery row; then per count one stacked
    gossip stage (``mags_infer``), whose argmax is recorded in the count's
    (batches, C+1, batch) correctness array, row by aggregator device.

    After the walk, each count scores the whole cell in one
    ``score_policies`` pass. Each accuracy is one sum of the policy's
    (batches, batch) per-sample expectations, padding included as 0, over
    the sample count, so neither the chunking nor the worker count changes
    its order.
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
    m = model.class_count
    width = min(batch_size, n)
    starts = np.tile(np.arange(0, n, width), trials)
    nb = len(starts)
    sizes = np.minimum(width, n - starts)
    samples = (starts[:, None] + np.arange(width)) % n  # (nb, width), a short batch padded
    valid = np.arange(width) < sizes[:, None]  # the slots holding a sample
    lab = np.where(valid, labels[samples], -1)
    total = n * trials
    rows = sample_major(reps)
    aggs = np.asarray(graph.aggregators, dtype=np.intp)
    # batches per stacked pass, fixed: it sets a pass's peak memory, not its
    # bits. One mags eval on eval-sweep's inputs (16 heads, batches of 64,
    # float32) took a median 0.547, 0.524 and 0.548 s of CPU time at 4, 8
    # and 16 batches, and 0.601 s batch by batch
    chunk = 8

    grid, base_results = [], None
    for fault_model, key in zip(fault_models, keys):
        if fault_model.fault_free and base_results is not None:
            grid.append(base_results)
            continue
        clock = time.perf_counter()
        realized = [sample_realization(graph, fault_model, nb, g + 1,
                                       stream(seed, "fault", *key)) for g in counts]
        # every count's first rounds are the same: the head pass reads them
        keep = delivery(realized[0], aggs)[1]
        correct = np.zeros((len(counts), nb, graph.device_count + 1, width), dtype=bool)
        for i in range(0, nb, chunk):
            j = slice(i, i + chunk)
            values = aggregator_head(model, aggregate(rows[samples[j]], keep[j]))[0]
            for s, g in enumerate(counts):
                final = mags_infer(values, aggs, realized[s][j], g)
                correct[s][j, aggs] = final.argmax(axis=-1) == lab[j, None]

        results = []
        for s, g in enumerate(counts):
            values = score_policies(correct[s], active_mask(realized[s], graph.aggregators),
                                    valid, m)
            comm = int(count_comm(realized[s], graph.aggregators, g) @ sizes)
            results.append(({p: float(values[p].sum()) / total for p in policies},
                            comm / total))
        seconds = (time.perf_counter() - clock) / len(counts)
        grid.append([EvalResult(acc, comm_mean, total, seconds) for acc, comm_mean in results])
        if fault_model.fault_free:
            base_results = grid[-1]
    return grid
