import math

import numpy as np
import pytest

from helpers import pairwise_graph
from mags.errors import ConfigError
from mags.inference import gossip_mix
from mags.topology import build_graph, spectral_radius


def dense_radius(v):
    """Oracle: full eigensolve of the shifted consensus matrix."""
    c = v.shape[0]
    return float(np.abs(np.linalg.eigvals(v - np.ones((c, c)) / c)).max())


def consensus_matrix(g):
    """V = D^-1 A over every device, ``N / d`` of the gossip pair."""
    n, d = gossip_mix(g.adj, range(1, g.device_count + 1), np.float64)
    return n / d


def device_edge_count(g):
    """Undirected device-device edges, self-loops and entity links excluded."""
    return int(np.triu(g.adj[1:, 1:], k=1).sum())


class TestBuildGraph:
    def test_grid16_edge_count(self):
        g = build_graph("grid", 16, 4)
        assert device_edge_count(g) == 24  # 2*3*4 lattice edges
        assert all(g.adj[c, c] for c in range(1, 17))
        assert not g.adj[0, 0]

    def test_complete4(self):
        g = build_graph("complete", 4, 2)
        assert device_edge_count(g) == 6

    def test_ring_wraps_last_to_first(self):
        g = build_graph("ring", 5, 1)
        assert g.adj[5, 1] and g.adj[1, 5]
        assert device_edge_count(g) == 5

    @pytest.mark.parametrize("c", [4, 16, 49])
    def test_rgg_radius_one_equals_grid(self, c):
        grid = build_graph("grid", c, 1)
        rgg = build_graph("rgg", c, 1, rgg_radius=1.0)
        assert np.array_equal(grid.adj, rgg.adj)

    def test_rgg_radius_ladder_is_monotone(self):
        sizes = [device_edge_count(build_graph("rgg", 16, 1, rgg_radius=r))
                 for r in (1.0, 1.5, 2.0, 2.5)]
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]

    def test_torus_is_regular(self):
        g = build_graph("torus", 16, 16)
        degrees = g.adj[1:, 1:].sum(axis=1) - 1  # self-loop excluded
        assert degrees.tolist() == [4] * 16

    def test_entity_connects_to_aggregators_only(self):
        g = build_graph("complete", 9, 3)
        assert g.aggregators == (1, 2, 3)
        linked = [c for c in range(1, 10) if g.adj[0, c]]
        assert linked == [1, 2, 3]

    def test_random_aggregator_choice_is_seeded(self):
        a = build_graph("complete", 16, 4, seed=5, random_aggregators=True)
        b = build_graph("complete", 16, 4, seed=5, random_aggregators=True)
        c = build_graph("complete", 16, 4, seed=6, random_aggregators=True)
        assert a.aggregators == b.aggregators
        assert len(a.aggregators) == 4
        assert a.aggregators != (1, 2, 3, 4) or c.aggregators != a.aggregators

    def test_determinism(self):
        a = build_graph("rgg", 16, 4, rgg_radius=1.5)
        b = build_graph("rgg", 16, 4, rgg_radius=1.5)
        assert np.array_equal(a.adj, b.adj) and a.aggregators == b.aggregators

    def test_errors(self):
        with pytest.raises(ConfigError):
            build_graph("grid", 12, 1)  # not a perfect square
        with pytest.raises(ConfigError):
            build_graph("complete", 4, 5)  # too many aggregators
        with pytest.raises(ConfigError):
            build_graph("complete", 4, 0)
        with pytest.raises(ConfigError):
            build_graph("rgg", 16, 1)  # missing radius
        with pytest.raises(ConfigError):
            build_graph("rgg", 16, 1, rgg_radius=float("nan"))
        with pytest.raises(ConfigError):
            build_graph("mesh", 16, 1)


class TestConsensusMatrix:
    def test_complete16_uniform(self):
        v = consensus_matrix(build_graph("complete", 16, 1))
        assert np.allclose(v, 1.0 / 16.0, atol=0)

    def test_ring4_rows(self):
        v = consensus_matrix(build_graph("ring", 4, 1))
        assert v[0, 0] == pytest.approx(1 / 3)
        assert v[0, 1] == pytest.approx(1 / 3)
        assert v[0, 3] == pytest.approx(1 / 3)
        assert v[0, 2] == 0.0

    def test_grid16_corner_and_interior(self):
        v = consensus_matrix(build_graph("grid", 16, 1))
        # device 1 sits in a corner (self + 2 neighbors), device 6 is interior
        assert v[0, 0] == pytest.approx(1 / 3)
        assert v[5, 5] == pytest.approx(1 / 5)

    @pytest.mark.parametrize("c", [4, 16, 49])
    @pytest.mark.parametrize("kind", ["complete", "ring", "grid", "torus"])
    def test_rows_sum_to_one(self, c, kind):
        v = consensus_matrix(build_graph(kind, c, 1))
        assert np.all(np.abs(v.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(v >= 0.0)

    def test_support_matches_edges_plus_self(self):
        g = build_graph("grid", 16, 1)
        v = consensus_matrix(g)
        for i in range(16):
            for j in range(16):
                assert (v[i, j] > 0) == bool(g.adj[i + 1, j + 1])


class TestSpectralRadius:
    def test_complete_is_zero(self):
        assert spectral_radius(consensus_matrix(build_graph("complete", 16, 1))) == 0.0

    def test_ring4_exact(self):
        # circulant eigenvalues {1, 1/3, -1/3, 1/3}: radius 1/3 after dropping
        # the consensus eigenvalue
        lam = spectral_radius(consensus_matrix(build_graph("ring", 4, 1)))
        assert lam == pytest.approx(1 / 3, abs=1e-12)

    def test_ring16_matches_circulant_formula(self):
        lam = spectral_radius(consensus_matrix(build_graph("ring", 16, 1)))
        assert lam == pytest.approx((1 + 2 * np.cos(np.pi / 8)) / 3, abs=1e-12)

    def test_torus16_exact(self):
        # every device has 4 neighbours and a self-loop, and the 4x4 torus
        # adjacency has eigenvalues {4, 2, 0, -2, -4}, so V's are (1 + a) / 5:
        # radius 3/5 after dropping the consensus eigenvalue
        lam = spectral_radius(consensus_matrix(build_graph("torus", 16, 1)))
        assert lam == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("kind,kw", [("complete", {}), ("ring", {}), ("grid", {}),
                                         ("torus", {}), ("rgg", {"rgg_radius": 1.5})])
    def test_matches_dense_eigensolver(self, kind, kw):
        v = consensus_matrix(build_graph(kind, 16, 1, **kw))
        assert spectral_radius(v) == pytest.approx(dense_radius(v), abs=1e-8)

    @pytest.mark.parametrize("c", [4, 16, 49])
    @pytest.mark.parametrize("kind", ["complete", "ring", "grid", "torus"])
    def test_connected_graphs_contract(self, c, kind):
        lam = spectral_radius(consensus_matrix(build_graph(kind, c, 1)))
        assert lam < 1.0

    def test_disconnected_subgraph_has_radius_one(self):
        # removing two opposite ring devices splits the rest into two arcs
        g = build_graph("ring", 16, 1)
        keep = [c for c in range(1, 17) if c not in (1, 9)]
        sub = g.adj[np.ix_(keep, keep)].astype(float)
        v = sub / sub.sum(axis=1, keepdims=True)
        assert spectral_radius(v) == pytest.approx(1.0, abs=1e-8)


def oracle_cases():
    """(kind, C, K) over C = 1..49 (lattice kinds on squares), K in {1, C/2, C}."""
    for c in range(1, 50):
        for kind in ("complete", "ring", "grid", "torus", "rgg"):
            if kind in ("grid", "torus", "rgg") and math.isqrt(c) ** 2 != c:
                continue
            for k in sorted({1, max(c // 2, 1), c}):
                yield kind, c, k


@pytest.mark.parametrize("random_aggregators", [False, True])
def test_matches_the_pairwise_construction(random_aggregators):
    for kind, c, k in oracle_cases():
        for radius in ((0.5, 1, 1.5, 2, 3) if kind == "rgg" else (None,)):
            g = build_graph(kind, c, k, seed=c + k, rgg_radius=radius,
                            random_aggregators=random_aggregators)
            adj, aggs = pairwise_graph(kind, c, k, c + k, radius, random_aggregators)
            assert np.array_equal(g.adj, adj), (kind, c, k, radius)
            assert g.aggregators == aggs, (kind, c, k, radius)
            assert g.rgg_radius == (float(radius) if kind == "rgg" else None)
