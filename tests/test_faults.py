import numpy as np
import pytest

from mags.errors import ConfigError
from mags.faults import (FaultModel, active_set, markov_init, markov_realize,
                         markov_step, realize_base, sample_comm_faults,
                         sample_device_faults, sample_realization)
from mags.rng import stream
from mags.topology import build_graph


def mc_band(p, n, sigmas=3.0):
    return sigmas * np.sqrt(max(p * (1 - p), 1e-12) / n)


class TestDeviceFaults:
    def test_rate_zero_equals_base(self):
        g = build_graph("grid", 16, 4)
        r = sample_device_faults(g, 0.0, stream(1, "fault"))
        assert np.array_equal(r.edge_alive, g.adj)
        assert r.alive.all()

    def test_rate_one_kills_everything(self):
        g = build_graph("complete", 16, 4)
        r = sample_device_faults(g, 1.0, stream(1, "fault"))
        assert not r.alive[1:].any()
        assert not r.edge_alive.any()
        assert active_set(r, g.aggregators) == set()

    def test_mean_alive_count_matches_binomial(self):
        # E[alive] = 16 * 0.7 = 11.2
        g = build_graph("complete", 16, 4)
        rng = stream(2, "fault")
        draws = 20000
        total = sum(int(sample_device_faults(g, 0.3, rng).alive[1:].sum())
                    for _ in range(draws))
        mean = total / draws
        band = 3 * np.sqrt(16 * 0.3 * 0.7 / draws)
        assert abs(mean - 11.2) <= band

    def test_no_edge_with_dead_endpoint(self):
        g = build_graph("grid", 16, 4)
        rng = stream(3, "fault")
        for _ in range(200):
            r = sample_device_faults(g, 0.5, rng)
            u, v = np.nonzero(r.edge_alive)
            for a, b in zip(u, v):
                assert r.alive[a] and r.alive[b]

    def test_entity_is_immune_but_links_follow_device(self):
        g = build_graph("complete", 4, 2)
        rng = stream(4, "fault")
        for _ in range(100):
            r = sample_device_faults(g, 0.5, rng)
            assert r.alive[0]
            for k in g.aggregators:
                assert r.edge_alive[0, k] == r.alive[k]


class TestCommFaults:
    def test_rate_zero_equals_base(self):
        g = build_graph("ring", 16, 2)
        r = sample_comm_faults(g, 0.0, stream(1, "fault"))
        assert np.array_equal(r.edge_alive, g.adj)

    def test_rate_one_leaves_only_self_loops(self):
        g = build_graph("complete", 16, 16)
        r = sample_comm_faults(g, 1.0, stream(1, "fault"))
        offdiag = r.edge_alive.copy()
        np.fill_diagonal(offdiag, False)
        assert not offdiag.any()
        assert all(r.edge_alive[c, c] for c in range(1, 17))

    def test_directed_edge_count_expectation(self):
        # complete-16 has 240 directed device edges; E[alive] = 168 at rate 0.3
        g = build_graph("complete", 16, 16)
        rng = stream(5, "fault")
        draws = 20000
        total = 0
        for _ in range(draws):
            r = sample_comm_faults(g, 0.3, rng)
            dev = r.edge_alive[1:, 1:].copy()
            np.fill_diagonal(dev, False)
            total += int(dev.sum())
        mean = total / draws
        band = 3 * np.sqrt(240 * 0.3 * 0.7 / draws)
        assert abs(mean - 168.0) <= band

    def test_directions_sampled_independently(self):
        g = build_graph("complete", 8, 1)
        rng = stream(6, "fault")
        asym = 0
        for _ in range(200):
            r = sample_comm_faults(g, 0.5, rng)
            if bool(r.edge_alive[1, 2]) != bool(r.edge_alive[2, 1]):
                asym += 1
        assert asym > 0

    def test_devices_stay_alive(self):
        g = build_graph("complete", 8, 1)
        r = sample_comm_faults(g, 0.9, stream(7, "fault"))
        assert r.alive.all()


class TestMarkovChain:
    def test_rate_zero_is_frozen(self):
        g = build_graph("complete", 8, 2)
        model = FaultModel("markov_comm", 0.0)
        state = markov_init(g)
        rng = stream(8, "fault")
        for _ in range(50):
            state = markov_step(state, model, g, rng)
        assert np.array_equal(markov_realize(g, state).edge_alive, g.adj)

    def test_recovery_probability_formula(self):
        assert FaultModel("markov_comm", 0.5).recovery_prob() == pytest.approx(0.1)
        assert FaultModel("markov_comm", 0.3).recovery_prob() == pytest.approx(0.1 * 0.7 / 0.3)

    def test_invalid_recovery_probability_rejected(self):
        # small rates push q above 1
        with pytest.raises(ConfigError):
            FaultModel("markov_comm", 0.05).validate()

    @pytest.mark.parametrize("rate", [0.3, 0.5])
    def test_stationary_faulted_fraction(self, rate):
        g = build_graph("complete", 16, 16)
        model = FaultModel("markov_comm", rate).validate()
        rng = stream(9, "fault")
        state = markov_init(g)
        for _ in range(1000):  # burn-in
            state = markov_step(state, model, g, rng)
        alive = 0
        total = 0
        dev_mask = g.adj.copy()
        np.fill_diagonal(dev_mask, False)
        horizon = 2000
        for _ in range(horizon):
            state = markov_step(state, model, g, rng)
            alive += int((state & dev_mask).sum())
            total += int(dev_mask.sum())
        frac = alive / total
        # successive steps are correlated; the 3-sigma band uses the
        # effective sample size of the two-state chain
        p, q = model.stay_alive, model.recovery_prob()
        rho = p - q
        ess = total * (1 - rho) / (1 + rho)
        assert abs(frac - (1 - rate)) <= mc_band(1 - rate, ess)

    def test_self_loops_never_fault(self):
        g = build_graph("grid", 16, 4)
        model = FaultModel("markov_comm", 0.5)
        state = markov_init(g)
        rng = stream(10, "fault")
        for _ in range(20):
            state = markov_step(state, model, g, rng)
            r = markov_realize(g, state)
            assert all(r.edge_alive[c, c] for c in range(1, 17))

    def test_requires_markov_model(self):
        g = build_graph("complete", 4, 1)
        with pytest.raises(ConfigError):
            markov_step(markov_init(g), FaultModel("device", 0.3), g, stream(0, "fault"))


class TestActiveSet:
    def test_no_faults_gives_all_aggregators(self):
        g = build_graph("complete", 16, 4)
        assert active_set(realize_base(g), g.aggregators) == {1, 2, 3, 4}

    def test_dead_aggregators_give_empty_set(self):
        g = build_graph("complete", 4, 2)
        rng = stream(11, "fault")
        seen_empty = False
        for _ in range(200):
            r = sample_device_faults(g, 0.7, rng)
            a = active_set(r, g.aggregators)
            if not r.alive[1] and not r.alive[2]:
                assert a == set()
                seen_empty = True
        assert seen_empty

    @pytest.mark.parametrize("rate,k", [(0.3, 1), (0.3, 4), (0.5, 2), (0.5, 4)])
    def test_catastrophic_probability_through_sampler(self, rate, k):
        # Pr(active set empty) = rate^K under device faults
        g = build_graph("complete", 16, k)
        rng = stream(12, "fault")
        draws = 20000
        empties = sum(not active_set(sample_device_faults(g, rate, rng), g.aggregators)
                      for _ in range(draws))
        expected = rate ** k
        assert abs(empties / draws - expected) <= mc_band(expected, draws)

    @pytest.mark.parametrize("rate", [0.3, 0.5])
    def test_catastrophic_probability_sixteen_aggregators(self, rate):
        # rate^16 is tiny, so the normal band is the wrong tool for rate 0.3;
        # a Poisson tail bound on the event count replaces it
        rng = stream(14, "fault")
        draws = 10 ** 6
        dead = rng.random((draws, 16)) >= (1.0 - rate)
        count = int(dead.all(axis=1).sum())
        expected = draws * rate ** 16
        if rate == 0.5:
            assert abs(count / draws - rate ** 16) <= mc_band(rate ** 16, draws)
        else:
            assert count <= 2  # P(X > 2 | mean 0.043) < 2e-5


class TestDeterminismAndTrace:
    def test_equal_seeds_give_identical_sequences(self):
        g = build_graph("grid", 16, 4)
        a = [sample_device_faults(g, 0.4, stream(42, "fault", i)) for i in range(5)]
        b = [sample_device_faults(g, 0.4, stream(42, "fault", i)) for i in range(5)]
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.alive, rb.alive)
            assert np.array_equal(ra.edge_alive, rb.edge_alive)

    def test_dispatcher_covers_memoryless_kinds(self):
        g = build_graph("complete", 4, 1)
        assert sample_realization(g, FaultModel("none"), stream(0, "fault")).alive.all()
        sample_realization(g, FaultModel("device", 0.2), stream(0, "fault"))
        sample_realization(g, FaultModel("communication", 0.2), stream(0, "fault"))
        with pytest.raises(ConfigError):
            sample_realization(g, FaultModel("markov_comm", 0.5), stream(0, "fault"))
