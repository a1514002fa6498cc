"""Certificate reports: pinned output, per-graph detail, failure on a
broken implementation, blocked draws equal to one-shot draws, stacked finite
differences equal to coordinate-by-coordinate ones, an exact selection
check, and bounded memory."""

import re
import tracemalloc

import numpy as np
import pytest

from helpers import one_shot_catastrophic_probability, per_coordinate_max_grad_error
from mags import certs, metrics
from mags.certs import (cert_catastrophic_probability, cert_comm_counts,
                        cert_ensemble_identity, cert_gossip_contraction,
                        cert_gradient_check, cert_selection_uniformity)


def assert_fails_once_per_k(result):
    assert not result.passed
    assert result.line().startswith("FAIL ensemble-identity: K=2: ")
    residuals = re.findall(r"K=(\d+): ensemble decomposition identity violated by ([^;,]+)",
                           result.detail)
    assert [int(k) for k, _ in residuals] == [2, 4, 16]
    assert all(float(r) > 1e-9 for _, r in residuals)


class TestEnsembleIdentity:
    def test_report_is_pinned_at_seed_0(self):
        # the members' and the labels' generators, both spawned from the
        # seed and each drawn block by block, fix these digits
        assert cert_ensemble_identity(seed=0).detail == (
            "max residual 2.220e-15, min diversity 1.190e-02, "
            "K in (2, 4, 16), 10000 sets each")

    def test_unnormalized_ensemble_fails_with_its_residual(self, monkeypatch):
        # mutation check: an ensemble "log-softmax" that does not normalize
        # breaks the identity, and the report names by how much
        monkeypatch.setattr(metrics, "log_softmax", lambda z: 2 * z)
        assert_fails_once_per_k(cert_ensemble_identity(seed=0, sets=200))

    def test_unnormalized_ensemble_fails_once_per_k_across_blocks(self, monkeypatch):
        # three blocks of sets per K: each K is still named once
        monkeypatch.setattr(metrics, "log_softmax", lambda z: 2 * z)
        assert 2500 > 2 * certs.ENSEMBLE_BLOCK_SETS
        assert_fails_once_per_k(cert_ensemble_identity(seed=0, sets=2500))

    def test_report_does_not_depend_on_the_block(self, monkeypatch):
        monkeypatch.setattr(certs, "ENSEMBLE_BLOCK_SETS", 10 ** 6)
        whole = cert_ensemble_identity(seed=1, sets=2003)
        for block in (7, 1000):
            monkeypatch.setattr(certs, "ENSEMBLE_BLOCK_SETS", block)
            assert cert_ensemble_identity(seed=1, sets=2003) == whole


class TestGossipContraction:
    def test_reports_each_graphs_slack(self):
        result = cert_gossip_contraction(seed=0)
        assert result.passed
        slack = dict(re.findall(r"(ring|complete|torus) (\d\.\d{3}e[+-]\d+)", result.detail))
        assert set(slack) == {"ring", "complete", "torus"}
        # one round on the complete graph is exact consensus, so its slack
        # is the 1e-9 tolerance alone; ring and torus keep a real margin
        assert float(slack["complete"]) <= 1e-9
        assert float(slack["ring"]) > 1e-9 and float(slack["torus"]) > 1e-9


class TestMonteCarloBlocks:
    """Blocked draws consume the stream as one draw of all rows does, so
    every report equals the one-shot oracle's."""

    @pytest.mark.parametrize("seed", range(5))
    def test_equal_to_one_shot_draws(self, seed):
        assert cert_catastrophic_probability(seed) == one_shot_catastrophic_probability(
            seed, 10 ** 6, (0.3, 0.5), (1, 2, 4))

    @pytest.mark.parametrize("ks", [(1, 2, 4), (3,)])
    def test_partial_last_block(self, ks):
        draws = 100_003  # not a multiple of MC_BLOCK_ROWS
        assert draws % certs.MC_BLOCK_ROWS
        assert cert_catastrophic_probability(
            seed=2, draws=draws, rates=(0.3, 0.5), ks=ks) == \
            one_shot_catastrophic_probability(2, draws, (0.3, 0.5), ks)

    @pytest.mark.parametrize("block, draws", [(7, 2_003), (1000, 100_003)])
    def test_block_size_does_not_change_the_report(self, monkeypatch, block, draws):
        catastrophic = one_shot_catastrophic_probability(3, draws, (0.3, 0.5), (1, 2, 4))
        comm = cert_comm_counts(seed=3, realizations=2_003)
        monkeypatch.setattr(certs, "MC_BLOCK_ROWS", block)
        monkeypatch.setattr(certs, "COMM_COUNT_CHUNK", block)
        assert cert_catastrophic_probability(
            seed=3, draws=draws, rates=(0.3, 0.5), ks=(1, 2, 4)) == catastrophic
        assert cert_comm_counts(seed=3, realizations=2_003) == comm

    def test_uniforms_on_the_threshold_follow_one_shot_draws(self, monkeypatch):
        # uniforms on a grid of quarters: at rate 0.5 many are exactly the
        # 1 - r threshold, where a device dies
        default_rng = np.random.default_rng

        class QuarterGrid:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def random(self, shape):
                return np.floor(self._rng.random(shape) * 4.0) / 4.0

        monkeypatch.setattr(np.random, "default_rng", QuarterGrid)
        assert cert_catastrophic_probability(
            seed=4, draws=100_003, rates=(0.3, 0.5), ks=(1, 2, 4)) == \
            one_shot_catastrophic_probability(4, 100_003, (0.3, 0.5), (1, 2, 4))


class TestSelectionUniformity:
    """The selection certificate checks ``score_policies`` against the
    sampled rule averaged over every pick: no draw, so no false alarm."""

    @pytest.mark.parametrize("seed", range(5))
    def test_production_scorer_is_the_exact_mean(self, seed):
        result = cert_selection_uniformity(seed)
        assert result.passed, result.line()
        assert float(re.search(r"max \|error\| (\S+)", result.detail)[1]) < 1e-14

    @pytest.mark.parametrize("policy", metrics.POLICIES)
    def test_each_policy_off_by_more_than_the_tolerance_fails(self, monkeypatch, policy):
        # mutation check: one policy's values moved by 1e-11
        real = certs.score_policies

        def broken(*args):
            values = real(*args)
            values[policy] = values[policy] + 1e-11
            return values

        monkeypatch.setattr(certs, "score_policies", broken)
        assert not cert_selection_uniformity(0).passed


@pytest.mark.parametrize("cert", [cert_catastrophic_probability, cert_selection_uniformity,
                                  cert_ensemble_identity, cert_gradient_check])
def test_peak_memory_is_bounded(cert):
    # one-shot draws peaked at 36.9, 73.1 and 51.6 MiB
    tracemalloc.start()
    try:
        cert(0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def one_sided_coordinates(monkeypatch, seed):
    """Parameter coordinates that ``cert_gradient_check(seed)`` estimates
    again from one-sided differences: those that a parameter set of a
    stacked forward pass moves by two steps from the parameters whose
    analytic gradient it checks."""
    real_grads, real_forward = certs.split_loss_and_grads, certs.split_forward
    base, moved = [], set()

    def grads_spy(model, *args):
        base.append(model.params.copy())
        return real_grads(model, *args)

    def forward_spy(model, *args):
        far = np.abs(model.params - base[-1]) > 1.5e-5  # one row per parameter set
        moved.update(np.flatnonzero(far.any(axis=0)).tolist())
        return real_forward(model, *args)

    monkeypatch.setattr(certs, "split_loss_and_grads", grads_spy)
    monkeypatch.setattr(certs, "split_forward", forward_spy)
    result = cert_gradient_check(seed)
    monkeypatch.setattr(certs, "split_loss_and_grads", real_grads)
    monkeypatch.setattr(certs, "split_forward", real_forward)
    return result, moved


class TestGradientCheck:
    @pytest.mark.parametrize("seed, kinks", [
        (0, set()), (360, {16}), (481, {76}), (905, {32, 36, 40, 44, 48, 55, 59})])
    def test_passes_where_central_differences_cross_a_kink(self, monkeypatch, seed, kinks):
        result, moved = one_sided_coordinates(monkeypatch, seed)
        assert result.passed, result.line()
        assert moved == kinks

    @pytest.mark.parametrize("seed", [0, 360, 481, 905])
    def test_equal_to_coordinate_by_coordinate_differences(self, monkeypatch, seed):
        # per delivery mask, the stacked differences give the loop's worst
        # error to the bit, so the same report
        real = certs._max_grad_error
        checked = []

        def both(*args):
            worst = real(*args)
            assert worst == per_coordinate_max_grad_error(*args)
            checked.append(worst)
            return worst

        monkeypatch.setattr(certs, "_max_grad_error", both)
        stacked = cert_gradient_check(seed)
        assert len(checked) == 2
        monkeypatch.setattr(certs, "_max_grad_error", per_coordinate_max_grad_error)
        assert cert_gradient_check(seed) == stacked

    def test_one_analytic_gradient_per_delivery_mask(self, monkeypatch):
        # the finite differences run through the stacked forward pass: per
        # mask one +h and one -h pass, and none for +-2h without a kink
        calls = {"grads": 0, "forward": 0}
        for name, key in (("split_loss_and_grads", "grads"), ("split_forward", "forward")):
            real = getattr(certs, name)

            def counted(*args, real=real, key=key):
                calls[key] += 1
                return real(*args)

            monkeypatch.setattr(certs, name, counted)
        assert cert_gradient_check(0).passed
        assert calls == {"grads": 2, "forward": 4}

    @pytest.mark.parametrize("seed, coord", [(0, 5), (905, 0), (905, 32)])
    def test_wrong_gradient_fails(self, monkeypatch, seed, coord):
        # mutation check at a smooth coordinate and at a kink coordinate
        # (905, 32): an additive error, because a relative one leaves a
        # zero gradient as it is
        real = certs.split_loss_and_grads

        def broken(*args):
            loss, grad = real(*args)
            grad[coord] += 1e-3 * max(abs(grad[coord]), 1e-3)
            return loss, grad

        monkeypatch.setattr(certs, "split_loss_and_grads", broken)
        assert not cert_gradient_check(seed).passed
