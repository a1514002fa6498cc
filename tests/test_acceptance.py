"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.

Criteria 1-5 are self-contained randomized certificates. Criteria 6-8 share
a desk-scale pipeline: a synthetic 10-class dataset (8000 train / 2000 test,
noise 0.3), 16 devices on a complete graph, 20 epochs, 4 seeds. That run is
a scaled substitute for the full-size benchmark sweeps, which need 100
epochs and 16 seeds per cell. Its 12 fits run in two spawned worker
processes.
"""

import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from mags.certs import (RING16_RADIUS, cert_catastrophic_probability,
                        cert_comm_counts, cert_ensemble_identity,
                        cert_gossip_contraction, cert_gradient_check,
                        cert_selection_uniformity)
from mags.data import client_views, make_splits, split_patches, synth_dataset
from mags.faults import FaultModel
from mags.inference import SplitModel, client_encode
from mags.metrics import evaluate_policies
from mags.topology import build_graph, consensus_matrix, spectral_radius
from mags.training import TrainConfig, fit

SEEDS = (1, 2, 3, 4)
POLICY_SET = ("active_rand", "active_best", "active_worst", "any_rand")
# The fits run in DESK_WORKERS processes with one BLAS thread each: two
# processes of two BLAS threads on a 2-core machine took 61 s, not 45 s
DESK_WORKERS = 2
ONE_BLAS_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def desk_dataset():
    """The desk's 10000 samples (the first 8000 are the training pool, the
    rest the test set) and their partition into 16 patches."""
    full = synth_dataset(10000, 10, 4, seed=7, noise=0.3)
    return full, split_patches(full.feature_count, 4)


def desk_fits(jobs):
    """Fit each (aggregator count, dropout, seed) job on the desk training
    pool, in a worker process. Returns the fields of each job's best model,
    its float64 parameters first, which rebuild it as a ``SplitModel``. A
    RuntimeWarning is an error here, as it is under pytest."""
    warnings.simplefilter("error", RuntimeWarning)
    full, part = desk_dataset()
    pool_views = client_views(full.features[:8000], part)
    models = []
    for k, dropout, seed in jobs:
        cfg = TrainConfig(epochs=20, batch_size=64, seed=seed, dropout=dropout, dropout_rate=0.3)
        m = fit(cfg, pool_views, full.labels[:8000], 10, make_splits(8000, seed), part,
                build_graph("complete", 16, k)).model
        models.append((m.params, m.client_count, m.encoder_dims, m.aggregators, m.head_dims))
    return models


def report(criterion, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")
    return passed


def test_criterion_1_ensemble_identity():
    start = time.perf_counter()
    result = cert_ensemble_identity(seed=0, sets=10000, ks=(2, 4, 16), classes=10)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 5.0
    assert report(1, ok, f"{result.detail}; {elapsed:.1f}s (< 5s)")


def test_criterion_2_gossip_contraction():
    start = time.perf_counter()
    result = cert_gossip_contraction(seed=0, inits=100, max_rounds=10)
    lam = spectral_radius(consensus_matrix(build_graph("ring", 16, 16)))
    elapsed = time.perf_counter() - start
    radius_ok = abs(lam - 0.949253) < 1e-6
    assert abs(RING16_RADIUS - 0.949253) < 1e-6  # the closed form itself
    ok = result.passed and radius_ok and elapsed < 10.0
    assert report(2, ok, f"{result.detail}; ring radius {lam:.6f}; {elapsed:.1f}s (< 10s)")


def test_criterion_3_catastrophic_probability_and_selection():
    start = time.perf_counter()
    cat = cert_catastrophic_probability(seed=0, draws=10 ** 6,
                                        rates=(0.3, 0.5), ks=(1, 2, 4))
    sel = cert_selection_uniformity(seed=0, draws=10 ** 6)
    elapsed = time.perf_counter() - start
    ok = cat.passed and sel.passed and elapsed < 30.0
    assert report(3, ok, f"{cat.detail}; {sel.detail}; {elapsed:.1f}s (< 30s)")


def test_criterion_4_communication_counts():
    start = time.perf_counter()
    result = cert_comm_counts(seed=0, realizations=10 ** 4, rate=0.3)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 30.0
    assert report(4, ok, f"{result.detail}; {elapsed:.1f}s (< 30s)")


def test_criterion_5_split_pipeline_gradients():
    start = time.perf_counter()
    result = cert_gradient_check(seed=0, tol=1e-6)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 10.0
    assert report(5, ok, f"{result.detail}; {elapsed:.1f}s (< 10s)")


@dataclass
class DeskRuns:
    records: dict   # (method, fault kind, rate, seed) -> policy accuracies
    train_seconds: float

    def mean(self, method, kind, rate, policy):
        return float(np.mean([self.records[(method, kind, rate, s)][policy]
                              for s in SEEDS]))


@pytest.fixture(scope="module")
def desk():
    start = time.perf_counter()
    variants = (("VFL", 1, "none"), ("MACL", 16, "none"), ("CD-MACL", 16, "cd"))
    jobs = [(name, k, dropout, seed) for name, k, dropout in variants for seed in SEEDS]
    # dealt round-robin, so each worker fits every variant; spawn, not
    # fork: the parent may hold BLAS threads
    with pytest.MonkeyPatch.context() as env:
        for name in ONE_BLAS_THREAD:  # read by each worker's BLAS when it loads
            env.setenv(name, "1")
        with ProcessPoolExecutor(DESK_WORKERS,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            shares = [pool.submit(desk_fits, [job[1:] for job in jobs[i::DESK_WORKERS]])
                      for i in range(DESK_WORKERS)]
            full, part = desk_dataset()
            test_views = client_views(full.features[8000:], part)
            fitted = [None] * len(jobs)
            for i, share in enumerate(shares):
                fitted[i::DESK_WORKERS] = share.result()
    models = {}
    for (name, k, _, seed), fields in zip(jobs, fitted):
        model = SplitModel(*fields)
        models[(name, seed)] = (model, build_graph("complete", 16, k),
                                client_encode(model, test_views))

    # methods scored from one checkpoint, and their gossip rounds; one
    # call per checkpoint scores every cell of CD-MACL and CD-MACL-G4 together
    evals = {"VFL": (("VFL", 0),), "MACL": (("MACL", 0),),
             "CD-MACL": (("CD-MACL", 0), ("CD-MACL-G4", 4))}
    cells = [(kind, rate) for kind in ("communication", "device") for rate in (0.0, 0.3, 0.5)]
    records = {}
    for trained_as, methods in evals.items():
        for seed in SEEDS:
            model, graph, reps = models[(trained_as, seed)]
            grid = evaluate_policies(model, reps, full.labels[8000:], graph,
                                     [FaultModel(kind, rate) for kind, rate in cells],
                                     list(POLICY_SET), [g for _, g in methods], seed)
            for (kind, rate), results in zip(cells, grid):
                for (name, _), res in zip(methods, results):
                    records[(name, kind, rate, seed)] = res.accuracy
    return DeskRuns(records, time.perf_counter() - start)


def test_criterion_6_desk_scale_robustness_ordering(desk):
    cd = desk.mean("CD-MACL-G4", "communication", 0.5, "active_rand")
    macl = desk.mean("MACL", "communication", 0.5, "active_rand")
    vfl = desk.mean("VFL", "communication", 0.5, "active_rand")
    gap = cd - vfl
    ok = (cd > macl > vfl) and gap >= 0.20 and desk.train_seconds <= 1200.0
    assert report(6, ok,
                  f"comm fault 0.5 Active Rand: CD-MACL-G4 {cd:.3f} > MACL {macl:.3f} "
                  f"> VFL {vfl:.3f}, gap {gap:.3f} (>= 0.20); "
                  f"pipeline {desk.train_seconds:.0f}s (<= 1200s)")


def test_criterion_7_oracle_ordering(desk):
    violations = []
    for (method, kind, rate, seed), acc in desk.records.items():
        if method == "VFL":  # oracle metrics are undefined for one aggregator
            continue
        if not (acc["active_best"] >= acc["active_rand"] >= acc["active_worst"]):
            violations.append((method, kind, rate, seed, "best/rand/worst"))
        if acc["any_rand"] > acc["active_rand"]:
            violations.append((method, kind, rate, seed, "any/rand"))
    cells = sum(1 for key in desk.records if key[0] != "VFL")
    ok = not violations
    assert report(7, ok, f"ordering held in {cells - len(violations)}/{cells} "
                         f"fault cells with K>1" +
                         (f"; first violation {violations[0]}" if violations else ""))


def test_criterion_8_gossip_never_hurts_per_seed(desk):
    worst = np.inf
    for rate in (0.3, 0.5):
        for seed in SEEDS:
            g4 = desk.records[("CD-MACL-G4", "communication", rate, seed)]["active_rand"]
            g0 = desk.records[("CD-MACL", "communication", rate, seed)]["active_rand"]
            worst = min(worst, g4 - g0)
    ok = worst >= 0.0
    assert report(8, ok, f"CD-MACL Active Rand gain from 4 gossip rounds: "
                         f"min over seeds/rates {worst:+.4f} (>= 0)")
