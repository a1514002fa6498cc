"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.

Criteria 1-5 are self-contained randomized certificates. Criteria 6-8 read
the ``runs.csv`` of ``mags train`` and ``mags eval`` on ``docs/example.ini``:
a synthetic 10-class dataset (8000 train / 2000 test, noise 0.3), 16
devices on a complete graph, 20 epochs, 4 seeds. That run is a scaled
substitute for the full-size benchmark sweeps, which need 100 epochs and 16
seeds per cell.
"""

import collections
import time
from pathlib import Path

import numpy as np
import pytest

from mags.certs import (RING16_RADIUS, cert_catastrophic_probability,
                        cert_comm_counts, cert_ensemble_identity,
                        cert_gossip_contraction, cert_gradient_check,
                        cert_selection_uniformity)
from mags.cli import main, read_runs_csv
from mags.inference import gossip_mix
from mags.topology import build_graph, spectral_radius

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "docs" / "example.ini"


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
    n, d = gossip_mix(build_graph("ring", 16, 16).adj, range(1, 17), np.float64)
    lam = spectral_radius(n / d)
    elapsed = time.perf_counter() - start
    radius_ok = abs(lam - 0.949253) < 1e-6
    assert abs(RING16_RADIUS - 0.949253) < 1e-6  # the closed form itself
    ok = result.passed and radius_ok and elapsed < 10.0
    assert report(2, ok, f"{result.detail}; ring radius {lam:.6f}; {elapsed:.1f}s (< 10s)")


def test_criterion_3_catastrophic_probability_and_selection():
    start = time.perf_counter()
    cat = cert_catastrophic_probability(seed=0, draws=10 ** 6,
                                        rates=(0.3, 0.5), ks=(1, 2, 4))
    sel = cert_selection_uniformity(seed=0)
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


# records: (method, fault kind, rate, seed) -> policy accuracies
DeskRuns = collections.namedtuple("DeskRuns", "records pipeline_seconds")


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk")
    start = time.perf_counter()
    for command in ("train", "eval"):
        assert main([command, "--config", str(EXAMPLE_CONFIG), "--out", str(out)]) == 0
    seconds = time.perf_counter() - start
    records = {}
    for method, _, kind, rate, policy, seed, acc, *_ in read_runs_csv(out / "runs.csv"):
        records.setdefault((method, kind, float(rate), int(seed)), {})[policy] = float(acc)
    return DeskRuns(records, seconds)


def test_criterion_6_desk_scale_robustness_ordering(desk):
    cd, macl, vfl = (np.mean([acc["active_rand"] for key, acc in desk.records.items()
                              if key[:3] == (method, "communication", 0.5)])
                     for method in ("CD-MACL-G4", "MACL", "VFL"))
    gap = cd - vfl
    ok = (cd > macl > vfl) and gap >= 0.20 and desk.pipeline_seconds <= 1200.0
    assert report(6, ok,
                  f"comm fault 0.5 Active Rand: CD-MACL-G4 {cd:.3f} > MACL {macl:.3f} "
                  f"> VFL {vfl:.3f}, gap {gap:.3f} (>= 0.20); "
                  f"pipeline {desk.pipeline_seconds:.0f}s (<= 1200s)")


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
    for (method, kind, rate, seed), acc in desk.records.items():
        if method == "CD-MACL-G4" and kind == "communication" and rate in (0.3, 0.5):
            g0 = desk.records[("CD-MACL", kind, rate, seed)]["active_rand"]
            worst = min(worst, acc["active_rand"] - g0)
    ok = worst >= 0.0
    assert report(8, ok, f"CD-MACL Active Rand gain from 4 gossip rounds: "
                         f"min over seeds/rates {worst:+.4f} (>= 0)")
