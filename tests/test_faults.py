import numpy as np
import pytest

from mags.errors import ConfigError
from mags.faults import (MARKOV_STAY_ALIVE, FaultModel, active_mask, markov_step,
                         sample_comm_faults, sample_device_faults, sample_realization)
from mags.rng import stream
from mags.topology import build_graph


def mc_band(p, n, sigmas=3.0):
    return sigmas * np.sqrt(max(p * (1 - p), 1e-12) / n)


def draw(sampler, graph, rate, rng):
    """One batch's realization from a memoryless sampler: the alive devices
    and the alive edges of its one held round."""
    r = sampler(graph, rate, 1, rng)[0]
    return r.alive, r.edge_alive[0]


def active_ids(realized, aggregators):
    return set(np.flatnonzero(active_mask(realized, aggregators)).tolist())


class TestDeviceFaults:
    def test_rate_zero_equals_base(self):
        g = build_graph("grid", 16, 4)
        alive, edges = draw(sample_device_faults, g, 0.0, stream(1, "fault"))
        assert np.array_equal(edges, g.adj)
        assert alive.all()

    def test_rate_one_kills_everything(self):
        g = build_graph("complete", 16, 4)
        r = sample_device_faults(g, 1.0, 1, stream(1, "fault"))
        assert not r.alive[:, 1:].any()
        assert not r.edge_alive.any()
        assert not active_mask(r, g.aggregators).any()

    def test_mean_alive_count_matches_binomial(self):
        # E[alive] = 16 * 0.7 = 11.2
        g = build_graph("complete", 16, 4)
        rng = stream(2, "fault")
        draws = 20000
        mean = sample_device_faults(g, 0.3, draws, rng).alive[:, 1:].sum() / draws
        band = 3 * np.sqrt(16 * 0.3 * 0.7 / draws)
        assert abs(mean - 11.2) <= band

    def test_no_edge_with_dead_endpoint(self):
        g = build_graph("grid", 16, 4)
        rng = stream(3, "fault")
        for _ in range(200):
            alive, edges = draw(sample_device_faults, g, 0.5, rng)
            u, v = np.nonzero(edges)
            for a, b in zip(u, v):
                assert alive[a] and alive[b]

    def test_entity_is_immune_but_links_follow_device(self):
        g = build_graph("complete", 4, 2)
        rng = stream(4, "fault")
        for _ in range(100):
            alive, edges = draw(sample_device_faults, g, 0.5, rng)
            assert alive[0]
            for k in g.aggregators:
                assert edges[0, k] == alive[k]


class TestCommFaults:
    def test_rate_zero_equals_base(self):
        g = build_graph("ring", 16, 2)
        _, edges = draw(sample_comm_faults, g, 0.0, stream(1, "fault"))
        assert np.array_equal(edges, g.adj)

    def test_rate_one_leaves_only_self_loops(self):
        g = build_graph("complete", 16, 16)
        _, edges = draw(sample_comm_faults, g, 1.0, stream(1, "fault"))
        offdiag = edges.copy()
        np.fill_diagonal(offdiag, False)
        assert not offdiag.any()
        assert all(edges[c, c] for c in range(1, 17))

    def test_directed_edge_count_expectation(self):
        # complete-16 has 240 directed device edges; E[alive] = 168 at rate 0.3
        g = build_graph("complete", 16, 16)
        rng = stream(5, "fault")
        draws = 20000
        dev = sample_comm_faults(g, 0.3, draws, rng).edge_alive[:, 0, 1:, 1:]
        mean = (dev.sum() - dev.diagonal(axis1=1, axis2=2).sum()) / draws
        band = 3 * np.sqrt(240 * 0.3 * 0.7 / draws)
        assert abs(mean - 168.0) <= band

    def test_directions_sampled_independently(self):
        g = build_graph("complete", 8, 1)
        rng = stream(6, "fault")
        asym = 0
        for _ in range(200):
            _, edges = draw(sample_comm_faults, g, 0.5, rng)
            if bool(edges[1, 2]) != bool(edges[2, 1]):
                asym += 1
        assert asym > 0

    def test_devices_stay_alive(self):
        g = build_graph("complete", 8, 1)
        assert sample_comm_faults(g, 0.9, 5, stream(7, "fault")).alive.all()


def markov_edges(g, rate, batches, rounds, seed):
    return sample_realization(g, FaultModel("markov_comm", rate), batches, rounds,
                              stream(seed, "fault")).edge_alive


class TestMarkovChain:
    def test_rate_zero_is_frozen(self):
        g = build_graph("complete", 8, 2)
        model = FaultModel("markov_comm", 0.0)
        state = g.adj.copy()
        rng = stream(8, "fault")
        for _ in range(50):
            state = markov_step(state, model, g, rng.random(state.shape))
        assert np.array_equal(state, g.adj)
        assert (markov_edges(g, 0.0, 3, 5, 8) == g.adj).all()

    def test_recovery_probability_formula(self):
        assert FaultModel("markov_comm", 0.5).recovery_prob() == pytest.approx(0.1)
        assert FaultModel("markov_comm", 0.3).recovery_prob() == pytest.approx(0.1 * 0.7 / 0.3)

    def test_invalid_recovery_probability_rejected(self):
        # small rates push q above 1
        with pytest.raises(ConfigError):
            FaultModel("markov_comm", 0.05)

    @pytest.mark.parametrize("rate", [0.3, 0.5])
    def test_stationary_faulted_fraction(self, rate):
        # one chain of 3000 rounds; the first 1000 are the burn-in
        g = build_graph("complete", 16, 16)
        model = FaultModel("markov_comm", rate)
        chains, burn_in, horizon = 1, 1000, 2000
        edges = markov_edges(g, rate, chains, burn_in + horizon, 9)[:, burn_in:]
        dev_mask = g.adj.copy()
        np.fill_diagonal(dev_mask, False)
        frac = (edges & dev_mask).sum() / (dev_mask.sum() * chains * horizon)
        # successive steps are correlated; the 3-sigma band uses the
        # effective sample size of the two-state chain
        p, q = MARKOV_STAY_ALIVE, model.recovery_prob()
        rho = p - q
        ess = dev_mask.sum() * chains * horizon * (1 - rho) / (1 + rho)
        assert abs(frac - (1 - rate)) <= mc_band(1 - rate, ess)

    def test_self_loops_never_fault(self):
        g = build_graph("grid", 16, 4)
        edges = markov_edges(g, 0.5, 3, 20, 10)
        assert edges[..., range(1, 17), range(1, 17)].all()
        assert not (edges & ~g.adj).any()

    def test_stacked_steps_equal_per_batch_stepping(self):
        # every batch's chain, stepped on its own from the same round-1 block
        # with the uniforms the stacked call drew, gives the same rounds
        g = build_graph("ring", 9, 3)
        model = FaultModel("markov_comm", 0.3)
        batches, rounds, n = 6, 5, 10
        edges = markov_edges(g, 0.3, batches, rounds, 11)
        rng = stream(11, "fault")
        first = sample_comm_faults(g, 0.3, batches, rng).edge_alive[:, 0]
        u = rng.random((batches, rounds - 1, n, n))
        for b in range(batches):
            state = first[b]
            assert np.array_equal(edges[b, 0], state)
            for t in range(1, rounds):
                state = markov_step(state, model, g, u[b, t - 1])
                assert np.array_equal(edges[b, t], state)

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    def test_realizes_labelled_rate(self, rate):
        # round 1 comes from the stationary law and every step keeps it, so
        # the faulted fraction is r at round 1, at round G+1 and over all
        # rounds. The links of one round are independent; successive rounds
        # are not, so the mean over rounds uses the chain's effective
        # sample size, as test_stationary_faulted_fraction does.
        g = build_graph("complete", 16, 16)
        model = FaultModel("markov_comm", rate)
        batches, rounds = 200, 5
        links = g.adj & ~np.eye(17, dtype=bool)
        edges = markov_edges(g, rate, batches, rounds, 13)
        alive = (edges & links).sum(axis=(0, 2, 3)) / (batches * links.sum())
        n = batches * links.sum()
        assert abs(alive[0] - (1 - rate)) <= mc_band(1 - rate, n)
        assert abs(alive[-1] - (1 - rate)) <= mc_band(1 - rate, n)
        rho = MARKOV_STAY_ALIVE - model.recovery_prob()
        ess = n * rounds * (1 - rho) / (1 + rho)
        assert abs(alive.mean() - (1 - rate)) <= mc_band(1 - rate, ess)

    @pytest.mark.parametrize("rate", [0.3, 0.5])
    def test_round_one_does_not_depend_on_gossip_rounds(self, rate):
        # G0 and G4 cells draw identical round-1 blocks from one stream
        g = build_graph("grid", 16, 4)
        g0 = markov_edges(g, rate, 32, 1, 14)
        g4 = markov_edges(g, rate, 32, 5, 14)
        assert np.array_equal(g0[:, 0], g4[:, 0])


class TestStackedDraws:
    @pytest.mark.parametrize("kind", ["complete", "ring", "grid"])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.3, 0.5])
    def test_stacked_draw_equals_per_batch_loop(self, kind, rate):
        # the per-batch samplers the stacked call replaces, written out: one
        # draw per batch from the same stream
        g = build_graph(kind, 16, 4)
        n, batches = 17, 32
        loop = stream(12, "fault")
        dev_alive, dev_edges, comm_edges = [], [], []
        for _ in range(batches):
            alive = np.ones(n, dtype=bool)
            alive[1:] = loop.random(16) < 1.0 - rate
            dev_alive.append(alive)
            dev_edges.append(g.adj & alive[:, None] & alive[None, :])
        for _ in range(batches):
            keep = loop.random((n, n)) < 1.0 - rate
            np.fill_diagonal(keep, True)
            comm_edges.append(g.adj & keep)

        rng = stream(12, "fault")
        for model in (FaultModel("device", rate), FaultModel("communication", rate)):
            r = sample_realization(g, model, batches, 5, rng)
            assert r.alive.shape == (batches, n) and r.edge_alive.shape == (batches, 1, n, n)
            if model.kind == "device":
                assert np.array_equal(r.alive, np.stack(dev_alive))
                assert np.array_equal(r.edge_alive[:, 0], np.stack(dev_edges))
            else:
                assert r.alive.all()
                assert np.array_equal(r.edge_alive[:, 0], np.stack(comm_edges))
        assert rng.random() == loop.random()  # both streams end in the same state

    def test_shapes_per_kind(self):
        g = build_graph("complete", 4, 2)
        for kind, rounds in (("none", 1), ("device", 1), ("communication", 1),
                             ("markov_comm", 3)):
            r = sample_realization(g, FaultModel(kind, 0.5), 7, 3, stream(0, "fault"))
            assert r.alive.shape == (7, 5)
            assert r.edge_alive.shape == (7, rounds, 5, 5)
            assert r[2].alive.shape == (5,) and r[2].edge_alive.shape == (rounds, 5, 5)


class TestActiveSet:
    def test_no_faults_gives_all_aggregators(self):
        g = build_graph("complete", 16, 4)
        r = sample_realization(g, FaultModel(), 1, 1, None)
        assert active_ids(r[0], g.aggregators) == {1, 2, 3, 4}

    def test_dead_aggregators_give_empty_set(self):
        g = build_graph("complete", 4, 2)
        r = sample_device_faults(g, 0.7, 200, stream(11, "fault"))
        both_dead = ~r.alive[:, 1] & ~r.alive[:, 2]
        assert both_dead.any()
        assert not active_mask(r, g.aggregators)[both_dead].any()

    def test_final_round_decides(self):
        # an aggregator whose entity link is down only at the final round is
        # not active
        g = build_graph("complete", 4, 2)
        edges = np.broadcast_to(g.adj, (1, 3, 5, 5)).copy()
        edges[0, 2, 0, 1] = False
        r = sample_realization(g, FaultModel(), 1, 1, None)
        r.edge_alive = edges
        assert active_ids(r[0], g.aggregators) == {2}
        edges[0, 2, 0, 1] = True
        edges[0, 0, 0, 2] = False
        assert active_ids(r[0], g.aggregators) == {1, 2}

    @pytest.mark.parametrize("rate,k", [(0.3, 1), (0.3, 4), (0.5, 2), (0.5, 4)])
    def test_catastrophic_probability_through_sampler(self, rate, k):
        # Pr(active set empty) = rate^K under device faults
        g = build_graph("complete", 16, k)
        draws = 20000
        r = sample_realization(g, FaultModel("device", rate), draws, 1, stream(12, "fault"))
        empties = int((~active_mask(r, g.aggregators).any(axis=1)).sum())
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
        if rate == 0.5:
            assert abs(count / draws - rate ** 16) <= mc_band(rate ** 16, draws)
        else:
            assert count <= 2  # P(X > 2 | mean 0.043) < 2e-5


class TestDeterminismAndTrace:
    def test_equal_seeds_give_identical_sequences(self):
        g = build_graph("grid", 16, 4)
        for i in range(5):
            a = sample_device_faults(g, 0.4, 3, stream(42, "fault", i))
            b = sample_device_faults(g, 0.4, 3, stream(42, "fault", i))
            assert np.array_equal(a.alive, b.alive)
            assert np.array_equal(a.edge_alive, b.edge_alive)

    def test_dispatcher_covers_memoryless_kinds(self):
        g = build_graph("complete", 4, 1)
        assert sample_realization(g, FaultModel("none"), 2, 3, None).alive.all()
        for kind in ("device", "communication", "markov_comm"):
            sample_realization(g, FaultModel(kind, 0.5), 2, 3, stream(0, "fault"))
        with pytest.raises(ConfigError):
            sample_realization(g, FaultModel("bursty", 0.5), 2, 3, stream(0, "fault"))
