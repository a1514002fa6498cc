"""Test-only reference code: a single-MLP cross-entropy oracle that the split
pipeline's gradients are checked against, an IDX writer for the loader's
fixtures, a one-shot version of the Monte Carlo certificate that the
blocked one is checked against, the gradient check's
coordinate-by-coordinate finite differences that its stacked ones are
checked against, pair-by-pair constructions of the graph adjacency and
the patch columns that the array ones are checked against, the textbook
forms of the head-path kernels, the sampled selection scorer that
``metrics.score_policies``' expectations are checked against, the
per-batch policy scoring loop that ``metrics.evaluate_policies``' one
scoring pass is checked against, and the per-client encoder loop that
``training.evaluate_split``'s pass through ``training.split_forward`` is
checked against. No pipeline of the library calls them."""

import math
import struct
import time

import numpy as np

from mags.certs import CertResult
from mags.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, Dataset, one_hot
from mags.errors import ConfigError, InputError
from mags.faults import FAULT_KIND_IDS, active_mask, base_realization, sample_realization
from mags.inference import aggregate, client_encode, mags_infer, sample_major
from mags.metrics import EvalResult, count_comm, fault_rate_key
from mags.nn import Mlp, log_softmax, mlp_backward, mlp_forward
from mags.rng import stream
from mags.training import split_loss_and_grads


def check_one_hot(y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise InputError(f"targets must be a 2-d one-hot matrix, got shape {y.shape}")
    if not (np.all((y == 0.0) | (y == 1.0)) and np.all(y.sum(axis=1) == 1.0)):
        raise InputError("target rows must be valid one-hot vectors")
    return y


def loss_and_grad(mlp: Mlp, x: np.ndarray, y_onehot: np.ndarray):
    """Mean cross-entropy of log-softmax outputs vs one-hot targets, with
    exact gradients shaped like the parameters."""
    y = check_one_hot(y_onehot)
    out, tape = mlp_forward(mlp, x)
    if out.shape != y.shape:
        raise InputError(f"output {out.shape} does not match targets {y.shape}")
    n = max(out.shape[0], 1)
    lp = log_softmax(out)
    loss = float(-(y * lp).sum() / n)
    dlogits = (np.exp(lp) - y) / n
    grads, _ = mlp_backward(mlp, tape, dlogits, input_grad=False)
    return loss, grads


def save_idx(ds: Dataset, images_path, labels_path):
    """Export a dataset to the IDX layout (features quantized to uint8)."""
    n, d = ds.features.shape
    side = math.isqrt(d)
    if side * side != d:
        raise ConfigError(f"feature count {d} is not a square image")
    pixels = np.clip(np.round(ds.features * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, n, side, side))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABEL_MAGIC, n))
        f.write(ds.labels.astype(np.uint8).tobytes())


def one_shot_catastrophic_probability(seed, draws, rates, ks) -> CertResult:
    """``certs.cert_catastrophic_probability`` drawing each cell's
    ``(draws, K)`` uniforms in one call and reducing them with ``all``."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    details = []
    for r in rates:
        for k in ks:
            dead = rng.random((draws, k)) >= (1.0 - r)
            empirical = float(dead.all(axis=1).mean())
            expected = r ** k
            sigma = math.sqrt(expected * (1.0 - expected) / draws)
            worst = max(worst, abs(empirical - expected) / max(sigma, 1e-15))
            details.append(f"r={r} K={k}: {empirical:.6f} vs {expected:.6f}")
    return CertResult("catastrophic-probability", worst <= 3.0,
                      f"max |z| {worst:.2f} over {len(details)} cells, {draws} draws each")


def per_coordinate_max_grad_error(model, views, y, keep, graph, tol):
    """``certs._max_grad_error`` moving one coordinate of ``model.params``
    at a time, in place, with one ``split_loss_and_grads`` call per moved
    coordinate and per step."""
    step = 1e-5
    args = (views, y, keep, base_realization(graph, 1)[0])
    base, grad = split_loss_and_grads(model, *args)
    params = model.params

    def loss_at(i, offset):
        orig = params[i]
        params[i] = orig + offset
        loss, _ = split_loss_and_grads(model, *args)
        params[i] = orig
        return loss

    def relative_error(estimate, g):
        return abs(estimate - g) / max(abs(estimate), abs(g), 1e-3)

    worst = 0.0
    for i in range(params.size):
        up, down = loss_at(i, step), loss_at(i, -step)
        error = relative_error((up - down) / (2.0 * step), grad[i])
        if error >= tol:
            up2, down2 = loss_at(i, 2.0 * step), loss_at(i, -2.0 * step)
            forward = (-3.0 * base + 4.0 * up - up2) / (2.0 * step)
            backward = (3.0 * base - 4.0 * down + down2) / (2.0 * step)
            if relative_error(forward, backward) >= tol:
                smooth_forward = abs(base - 2.0 * up + up2) <= abs(base - 2.0 * down + down2)
                error = relative_error(forward if smooth_forward else backward, grad[i])
        worst = max(worst, error)
    return float(worst)


def pairwise_graph(kind, device_count, aggregator_count, seed, rgg_radius, random_aggregators):
    """``topology.build_graph``'s (adj, aggregators), built by testing every
    device pair in a Python loop, on a ceil(sqrt(C)) row-major lattice."""
    c, k = device_count, aggregator_count
    side = math.isqrt(c)
    if side * side < c:
        side += 1
    ids = np.arange(c)
    pos = np.stack([ids // side, ids % side], axis=1)
    adj = np.zeros((c + 1, c + 1), dtype=bool)

    def connect(u, v):
        adj[u, v] = True
        adj[v, u] = True

    if kind == "complete":
        for u in range(1, c + 1):
            for v in range(u + 1, c + 1):
                connect(u, v)
    elif kind == "ring":
        for u in range(1, c):
            connect(u, u + 1)
        if c > 1:
            connect(c, 1)
    elif kind == "grid":
        for u in range(1, c + 1):
            for v in range(u + 1, c + 1):
                if np.abs(pos[u - 1] - pos[v - 1]).sum() == 1:
                    connect(u, v)
    elif kind == "rgg":
        r2 = float(rgg_radius) ** 2
        for u in range(1, c + 1):
            for v in range(u + 1, c + 1):
                if ((pos[u - 1] - pos[v - 1]) ** 2).sum() <= r2:
                    connect(u, v)
    elif kind == "torus":
        for u in range(1, c + 1):
            for v in range(u + 1, c + 1):
                dr = abs(int(pos[u - 1][0]) - int(pos[v - 1][0]))
                dc = abs(int(pos[u - 1][1]) - int(pos[v - 1][1]))
                if min(dr, side - dr) + min(dc, side - dc) == 1:
                    connect(u, v)
    for u in range(1, c + 1):
        adj[u, u] = True
    if random_aggregators:
        rng = np.random.default_rng(seed)
        aggs = tuple(sorted(int(a) + 1 for a in rng.choice(c, size=k, replace=False)))
    else:
        aggs = tuple(range(1, k + 1))
    for a in aggs:
        adj[0, a] = True
        adj[a, 0] = True
    return adj, aggs


def pairwise_patch_columns(feature_count, g):
    """``data.split_patches``' client columns, built pixel by pixel."""
    side = math.isqrt(feature_count)
    block = side // g
    columns = []
    for idx in range(g * g):
        r0 = (idx // g) * block
        c0 = (idx % g) * block
        columns.append(np.array([(r0 + i) * side + (c0 + j)
                                 for i in range(block) for j in range(block)], dtype=np.int64))
    return columns


def textbook_linear_forward(x, w, b):
    """``nn.linear_forward`` as one expression: a product and a sum."""
    return np.asarray(x, dtype=np.float64) @ w + b[..., None, :]


def textbook_log_softmax(z):
    """``nn.log_softmax`` with its row max taken by a reduce."""
    z = np.asarray(z, dtype=np.float64)
    s = z - z.max(axis=-1, keepdims=True)
    return s - np.log(np.sum(np.exp(s), axis=-1, keepdims=True))


def textbook_gossip_round(z, links):
    """``inference.gossip_round`` as a ``tensordot`` of the bool links, the
    degree summed in the values' dtype."""
    return np.tensordot(links, z, axes=1) / links.sum(axis=1, dtype=z.dtype)[:, None, None]


def textbook_gossip_adjoint(dz, links):
    """``inference.gossip_adjoint`` as a ``tensordot`` of the transposed
    bool links, the degree summed in the values' dtype."""
    deg = links.sum(axis=1, dtype=dz.dtype)[:, None, None]
    return np.tensordot(links.T, dz / deg, axes=1)


def textbook_aggregate(reps, keep):
    """``inference.aggregate`` masking every row, each with its own flags."""
    c, b, r = reps.shape
    row = reps.transpose(1, 0, 2).reshape(b, c * r)
    return np.where(np.repeat(keep, r, axis=1)[:, None, :], row, 0.0)


def sampled_score_policies(correct, active, labels, guess, upick, vpick) -> dict:
    """The sampled scorer that ``metrics.score_policies`` averages exactly:
    every policy's outcome under one set of selection draws, on its (nb, K,
    B) hits and (nb, K) active mask. ``labels``, ``guess``, ``upick`` and
    ``vpick`` are (nb, B): the labels (-1 on a padded slot), the
    uniform-guess classes, the any-device picks in 0..C-1, a pick j < K
    being aggregator row j and any other a device that aggregates nothing,
    and the picks among the active rows, ``vpick[i] < max(|A_i|, 1)``.

    ``active_rand`` scores the ``upick`` row when it is active, else the
    ``vpick``-th active row in order; ``active_best`` and ``active_worst``
    are ``any`` and ``all`` over the active rows; ``any_rand`` falls back
    to the guess when its pick is inactive; and a batch with no active row
    scores the guess under every policy. Returns policy -> (nb, B) bool
    outcomes."""
    rows, cols = np.ogrid[:correct.shape[0], :correct.shape[2]]
    guess_ok = guess == labels
    u_row = np.minimum(upick, correct.shape[1] - 1)
    u_active = (upick == u_row) & active[rows, u_row]
    # a stable sort of the inactive flags lists the active rows first, in order
    v_row = np.argsort(~active, axis=1, kind="stable")[rows, vpick]
    act = active[:, :, None]
    outcomes = {
        "active_rand": correct[rows, np.where(u_active, u_row, v_row), cols],
        "active_best": (correct & act).any(axis=1),
        "active_worst": ~(act & ~correct).any(axis=1),
        "any_rand": np.where(u_active, correct[rows, u_row, cols], guess_ok),
    }
    empty = ~active.any(axis=1, keepdims=True)
    return {p: np.where(empty, guess_ok, o) for p, o in outcomes.items()}


def per_batch_evaluate_policies(model, reps, labels, graph, fault_models, policies,
                                gossip_rounds, seed, batch_size=64, trials=1):
    """``metrics.evaluate_policies`` scoring each (batch, gossip count) as
    it comes: per count, each policy's expected outcome on each of the
    batch's samples, from the count of its active aggregators and of those
    right on the sample, written into the cell's (batches, batch) array and
    summed once per cell, as the one scoring pass sums. Each batch runs the
    heads of its alive aggregators alone, taken from the head stack by row,
    and gossips over them alone: the subset path that the scored mask path,
    where every head runs, must match. Takes checked arguments."""
    counts = list(gossip_rounds)
    n = labels.shape[0]
    c, m = graph.device_count, model.class_count
    starts = list(range(0, n, batch_size)) * trials
    width = min(batch_size, n)
    sizes = np.array([min(batch_size, n - start) for start in starts])
    total = n * trials
    head_row = np.zeros(len(graph.aggregators), dtype=np.intp)  # a live head's row in ``values``
    grid = []
    for fault_model in fault_models:
        key = (FAULT_KIND_IDS[fault_model.kind], fault_rate_key(fault_model.rate))
        clock = time.perf_counter()
        scores = []
        for g in counts:
            realized = sample_realization(graph, fault_model, len(starts), g + 1,
                                          stream(seed, "fault", *key))
            scores.append(dict(
                g=g, realized=realized, active=active_mask(realized, graph.aggregators),
                comm=int(count_comm(realized, graph.aggregators, g) @ sizes),
                values={p: np.zeros((len(starts), width)) for p in policies}))
        for i, (start, b) in enumerate(zip(starts, sizes)):
            realized = scores[0]["realized"][i]
            rows = [j for j, k in enumerate(graph.aggregators) if realized.alive[k]]
            aggs = [graph.aggregators[j] for j in rows]
            keep = realized.edge_alive[0][aggs, 1:]
            out, _ = mlp_forward(model.head.take(np.array(rows, dtype=np.intp)),
                                 aggregate(sample_major(reps[:, start:start + b]), keep))
            values = log_softmax(out)
            head_row[rows] = np.arange(len(rows))
            lab = labels[start:start + b]
            for s in scores:
                final = mags_infer(values, aggs, s["realized"][i], s["g"])
                act = np.flatnonzero(s["active"][i])
                k = act.size
                right = (final.argmax(axis=2)[head_row[act]] == lab[None, :]).sum(axis=0)
                outcomes = {
                    "active_rand": right / k,
                    "active_best": right > 0,
                    "active_worst": right == k,
                    "any_rand": (right * m + c - k) / (c * m),
                } if k else dict.fromkeys(policies, np.full(b, 1.0 / m))
                for p in policies:
                    s["values"][p][i, :b] = outcomes[p]
        seconds = (time.perf_counter() - clock) / len(counts)
        grid.append([EvalResult({p: float(s["values"][p].sum()) / total for p in policies},
                                s["comm"] / total, seconds) for s in scores])
    return grid


def per_client_evaluate_split(model, views, labels, graph, rows):
    """``training.evaluate_split`` at no gossip, encoding each 512-row chunk
    with ``client_encode``, one ``mlp_forward`` call per client, and running
    its heads four at a time, each group's rows taken from the head stack.
    A chunk's loss is the sum of its heads' mean losses, weighted by its
    rows. The base graph's delivery is read off its adjacency."""
    keep = graph.adj[np.asarray(graph.aggregators), 1:]
    k = len(keep)
    n = len(rows)
    loss_sum, hit_sum = 0.0, 0.0
    for start in range(0, n, 512):
        sl = slice(start, min(start + 512, n))
        lab = labels[rows[sl]]
        y = one_hot(lab, model.class_count)
        reps = client_encode(model, views[:, rows[sl]])
        chunk_loss = 0.0
        for g in range(0, k, 4):
            out, _ = mlp_forward(model.head.take(slice(g, g + 4)),
                                 aggregate(sample_major(reps), keep[g:g + 4]))
            for lp in log_softmax(out):
                chunk_loss += float(-(y * lp).sum() / len(lab))
                hit_sum += float((lp.argmax(axis=1) == lab).sum())
        loss_sum += chunk_loss * len(lab)
    return loss_sum / n, hit_sum / (n * k)
