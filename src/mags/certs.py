"""Self-contained numerical certificates for the theoretical guarantees.

Each certificate builds randomized instances from a seed, checks the claimed
property through the production code paths, and reports pass/fail with a
short detail string. Reports are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .data import one_hot
from .faults import FaultModel, base_realization, sample_realization
from .inference import gossip_mix, gossip_round, init_split_model
from .metrics import count_comm, ensemble_decomposition, score_policies
from .nn import log_softmax
from .rng import stream
from .topology import build_graph, spectral_radius
from .training import split_forward, split_loss_and_grads

RING16_RADIUS = (1.0 + 2.0 * math.cos(math.pi / 8.0)) / 3.0  # circulant eigenvalue

# Rows per block of the Monte Carlo certificate: 2**16 rows of four
# float64 uniforms take 2 MiB, where one draw of all 10**6 rows took 32 MB
MC_BLOCK_ROWS = 2 ** 16
# (devices C, classes M) of the selection certificate's batches: VFL's lone
# device, and up to 6 x 6 pairs of an any-device and an active pick
SELECTION_SHAPES = ((1, 2), (2, 10), (4, 4), (6, 3))
# ensemble-identity sets per ensemble_decomposition call: 1000 sets of
# 16 members x 10 classes take 1.3 MB per temporary
ENSEMBLE_BLOCK_SETS = 1000


def _blocks(total, size):
    """(start, stop) of consecutive row blocks of at most ``size`` rows
    covering ``range(total)``. Drawing block by block consumes a generator's
    stream exactly as one draw of all ``total`` rows does."""
    for lo in range(0, total, size):
        yield lo, min(lo + size, total)


@dataclass
class CertResult:
    name: str
    passed: bool
    detail: str

    def line(self):
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def cert_ensemble_identity(seed=0, sets=10000, ks=(2, 4, 16), classes=10) -> CertResult:
    """Ensemble loss equals mean member loss minus a non-negative diversity
    term, per sample, for geometric-mean combining of random members.

    Each K's sets are checked in blocks of ``ENSEMBLE_BLOCK_SETS``, one
    batched ``ensemble_decomposition`` call per block. A block's members
    and its labels are one draw each, from two generators spawned from
    ``seed``, so a seed's report does not depend on the blocking; after a
    block fails, that K's later blocks are still drawn, so the other K see
    the same sets."""
    member_rng, label_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    max_residual = 0.0
    min_diversity = np.inf
    violations = []
    for k in ks:
        members = np.empty((min(sets, ENSEMBLE_BLOCK_SETS), k, classes))
        failed = False
        for lo, hi in _blocks(sets, ENSEMBLE_BLOCK_SETS):
            rows = hi - lo
            member_rng.standard_normal(out=members[:rows])
            labels = label_rng.integers(classes, size=rows)
            if failed:
                continue
            try:
                ens_loss, mean_loss, diversity = ensemble_decomposition(
                    log_softmax(2.0 * members[:rows]), one_hot(labels, classes))
            except ArithmeticError as err:
                violations.append(f"K={k}: {err}")
                failed = True
                continue
            max_residual = max(max_residual,
                               float(np.abs(ens_loss - (mean_loss - diversity)).max(initial=0.0)))
            min_diversity = min(min_diversity, float(diversity.min(initial=np.inf)))
    passed = not violations and max_residual < 1e-9 and min_diversity >= -1e-12
    stats = "; ".join(violations) if violations else (
        f"max residual {max_residual:.3e}, min diversity {min_diversity:.3e}")
    return CertResult("ensemble-identity", passed,
                      f"{stats}, K in {tuple(ks)}, {sets} sets each")


def cert_gossip_contraction(seed=0, inits=100, max_rounds=10) -> CertResult:
    """Per-device disagreement after G gossip rounds is bounded by
    lambda^G * sqrt(C) * (max initial pairwise distance) on regular graphs,
    where lambda is the spectral radius of the shifted consensus matrix N / d.

    Also pins the 16-device ring spectral radius to its closed form.
    """
    c, dim = 16, 10
    rng = np.random.default_rng(seed)
    slack = {}  # graph kind -> its minimum slack over inits, rounds and devices
    checks = 0
    ring_err = None
    for kind in ("ring", "complete", "torus"):
        mix = gossip_mix(build_graph(kind, c, c).adj, range(1, c + 1), np.float64)  # every device
        lam = spectral_radius(mix[0] / mix[1])
        if kind == "ring":
            ring_err = abs(lam - RING16_RADIUS)
        y0 = rng.standard_normal((inits, c, dim))  # the inits' draws, in order
        y_bar = y0.mean(axis=1)
        max_pair = np.linalg.norm(y0[:, :, None] - y0[:, None], axis=-1).max(axis=(1, 2))
        z = y0.transpose(1, 0, 2)  # devices first, the inits as gossip's batch axis
        slack[kind] = np.inf
        for g in range(1, max_rounds + 1):
            z = gossip_round(z, mix)
            bound = (lam ** g) * math.sqrt(c) * max_pair + 1e-9  # (inits,)
            dev = np.linalg.norm(y_bar - z, axis=-1)  # (C, inits)
            slack[kind] = min(slack[kind], float((bound - dev).min()))
            checks += dev.size
    passed = min(slack.values()) >= 0.0 and ring_err is not None and ring_err < 1e-6
    slacks = ", ".join(f"{kind} {value:.3e}" for kind, value in slack.items())
    return CertResult(
        "gossip-contraction", passed,
        f"{checks} bound checks, min slack {slacks}, ring-16 radius error {ring_err:.3e}",
    )


def cert_catastrophic_probability(seed=0, draws=10 ** 6,
                                  rates=(0.3, 0.5), ks=(1, 2, 4)) -> CertResult:
    """Empirical probability that every aggregator dies matches r^K within a
    3-sigma Monte Carlo band under i.i.d. device faults.

    Each cell's ``(draws, K)`` uniforms are drawn ``MC_BLOCK_ROWS`` rows at
    a time, which consumes the stream as one call would, and the all-dead
    rows are counted column by column."""
    rng = np.random.default_rng(seed)
    worst = 0.0  # worst |deviation| / sigma
    details = []
    for r in rates:
        for k in ks:
            hits = 0
            for lo, hi in _blocks(draws, MC_BLOCK_ROWS):
                dead = rng.random((hi - lo, k)) >= (1.0 - r)
                hits += int(np.count_nonzero(reduce(np.logical_and, dead.T)))
            empirical = hits / draws
            expected = r ** k
            sigma = math.sqrt(expected * (1.0 - expected) / draws)
            z = abs(empirical - expected) / max(sigma, 1e-15)
            worst = max(worst, z)
            details.append(f"r={r} K={k}: {empirical:.6f} vs {expected:.6f}")
    passed = worst <= 3.0
    return CertResult("catastrophic-probability", passed,
                      f"max |z| {worst:.2f} over {len(details)} cells, {draws} draws each")


def cert_selection_uniformity(seed=0) -> CertResult:
    """``score_policies`` is each policy's exact expectation under uniform
    selection: on random batches of each (devices C, classes M) shape in
    ``SELECTION_SHAPES``, with active sets of every size and short batches,
    it matches to 1e-12 the sampled rule averaged over every pick, the
    guess g uniform in [0, M), the any-device pick u in 1..C and the active
    pick v in [0, max(n, 1)). The rule: ``active_rand`` scores device u
    when it is active, else the v-th active device in device order;
    ``any_rand`` scores device u when it is active, else the guess;
    ``active_best`` and ``active_worst`` are any and all over the active
    devices; a batch with no active device scores the guess under every
    policy, and a padded slot scores 0."""
    rng = np.random.default_rng(seed)
    batches, width = 400, 5
    worst, samples = 0.0, 0
    for c, m in SELECTION_SHAPES:
        correct = rng.random((batches, c + 1, width)) < 0.5
        active = rng.random((batches, c + 1)) < rng.random((batches, 1))  # a rate per batch
        active[:, 0] = False  # the entity
        valid = np.arange(width) < rng.integers(1, width + 1, size=(batches, 1))
        labels = rng.integers(m, size=(batches, width))
        # outcomes on axes (batch, g, (u, v) pair, sample), False on padding
        ok, act = correct & valid[:, None], active[:, :, None]
        guess_ok = ((labels[:, None] == np.arange(m)[:, None]) & valid[:, None])[:, :, None]
        u, v = np.repeat(np.arange(1, c + 1), c), np.tile(np.arange(c), c)
        vth = act & (np.cumsum(act, axis=1) - 1 == np.arange(c))  # (batch, device, v)
        v_ok = (ok[:, :, None] & vth[..., None]).any(axis=1)[:, None, v]
        u_on, u_ok = active[:, None, u, None], ok[:, None, u]
        sampled = {"active_rand": np.where(u_on, u_ok, v_ok),
                   "active_best": (ok & act).any(axis=1)[:, None, None],
                   "active_worst": ~(act & ~ok).any(axis=1)[:, None, None],
                   "any_rand": np.where(u_on, u_ok, guess_ok)}
        n = active.sum(axis=1)[:, None, None, None]
        law = (v[:, None] < np.maximum(n, 1)) / (m * c * np.maximum(n, 1))  # P(g, u, v)
        expected = score_policies(correct[:, 1:], active[:, 1:], valid, m, c)
        for p, o in sampled.items():
            mean = (law * np.where(n == 0, guess_ok, o)).sum(axis=(1, 2))
            worst = max(worst, float(np.abs(expected[p] - mean).max()))
        samples += int(valid.sum())
    return CertResult("selection-uniformity", worst <= 1e-12,
                      f"max |error| {worst:.1e} against the mean over every pick, "
                      f"{samples} samples, (C, M) in {SELECTION_SHAPES}")


COMM_COUNT_CASES = (
    # (name, aggregator count, gossip rounds, expected mean, tolerance)
    ("VFL", 1, 0, 10.5, 0.4),
    ("4-MACL", 4, 0, 42.0, 1.0),
    ("4-MACL-G2", 4, 2, 126.0, 2.0),
    ("MACL", 16, 0, 168.0, 3.0),
    ("MACL-G4", 16, 4, 840.0, 10.0),
)


# realizations drawn per call: a chunk's uniforms take under 6 MB
COMM_COUNT_CHUNK = 2500


def cert_comm_counts(seed=0, realizations=10 ** 4, rate=0.3) -> CertResult:
    """Mean per-inference message counts on the 16-device complete graph
    under communication faults match the accounting convention."""
    rng = np.random.default_rng(seed)
    fault = FaultModel("communication", rate)
    rows = []
    passed = True
    for name, k, g, expected, tol in COMM_COUNT_CASES:
        graph = build_graph("complete", 16, k)
        total = 0
        for lo, hi in _blocks(realizations, COMM_COUNT_CHUNK):
            realized = sample_realization(graph, fault, hi - lo, g + 1, rng)
            total += int(count_comm(realized, graph.aggregators, g).sum())
        mean = total / realizations
        ok = abs(mean - expected) <= tol
        passed = passed and ok
        rows.append(f"{name} {mean:.1f}/{expected:g}")
    return CertResult("comm-counts", passed, ", ".join(rows))


def cert_gradient_check(seed=0, tol=1e-6) -> CertResult:
    """Analytic gradients through the split pipeline (encoders, zero-imputed
    concatenation, heads) match finite differences on a two-client,
    two-aggregator toy, with and without a dropped delivery."""
    graph = build_graph("complete", 2, 2)
    rng = stream(seed, "init")
    model = init_split_model(graph, [4, 4], 3, rng)
    data_rng = np.random.default_rng(seed + 1)
    views = data_rng.random((2, 5, 4))  # client-major: two clients, five samples
    y = one_hot(data_rng.integers(0, 3, size=5), 3)

    full = np.ones((2, 2), dtype=bool)
    dropped = full.copy()
    dropped[0, 1] = False  # aggregator 1 loses client 2
    worst = 0.0
    for keep in (full, dropped):
        worst = max(worst, _max_grad_error(model, views, y, keep, graph, tol))
    return CertResult("gradient-check", worst < tol,
                      f"max relative error {worst:.3e} (tolerance {tol:g})")


def _relative_error(estimate, grad):
    return np.abs(estimate - grad) / np.maximum(np.maximum(np.abs(estimate), np.abs(grad)), 1e-3)


def _max_grad_error(model, views, y, keep, graph, tol):
    """Worst relative error of the analytic gradient against central
    differences, over every coordinate of the flat parameter vector.

    A central difference that crosses a ReLU kink misses the tolerance on
    correct code. So a coordinate that misses it is estimated again from
    the second-order one-sided differences on each side; where those two
    disagree (a kink), the gradient is compared with the side whose second
    difference is smaller, the smooth one.

    Each difference's losses come from one stacked ``split_forward`` pass,
    one parameter set per coordinate moved, bit-identical to moving the
    coordinates one at a time."""
    step = 1e-5
    args = (views, y, keep, base_realization(graph, 1)[0])
    base, grad = split_loss_and_grads(model, *args)
    params = model.params

    def losses_at(coords, offset):
        """The loss with ``params[i]`` moved by ``offset``, for each i in ``coords``."""
        sets = np.repeat(params[None], coords.size, axis=0)
        sets[np.arange(coords.size), coords] = params[coords] + offset
        return split_forward(replace(model, params=sets), *args)[0]

    every = np.arange(params.size)
    up, down = losses_at(every, step), losses_at(every, -step)
    error = _relative_error((up - down) / (2.0 * step), grad)
    missed = np.flatnonzero(error >= tol)
    if missed.size:
        up, down, g = up[missed], down[missed], grad[missed]
        up2, down2 = losses_at(missed, 2.0 * step), losses_at(missed, -2.0 * step)
        forward = (-3.0 * base + 4.0 * up - up2) / (2.0 * step)
        backward = (3.0 * base - 4.0 * down + down2) / (2.0 * step)
        smooth_forward = np.abs(base - 2.0 * up + up2) <= np.abs(base - 2.0 * down + down2)
        one_sided = _relative_error(np.where(smooth_forward, forward, backward), g)
        kink = _relative_error(forward, backward) >= tol
        error[missed] = np.where(kink, one_sided, error[missed])
    return float(error.max())


def run_all(seed=0):
    return [
        cert_ensemble_identity(seed),
        cert_gossip_contraction(seed),
        cert_catastrophic_probability(seed),
        cert_selection_uniformity(seed),
        cert_comm_counts(seed),
        cert_gradient_check(seed),
    ]


def format_report(results):
    lines = [r.line() for r in results]
    lines.append("all certificates passed" if all(r.passed for r in results)
                 else "CERTIFICATE FAILURES PRESENT")
    return "\n".join(lines)
