import dataclasses

import numpy as np
import pytest

from mags.faults import (FaultModel, RealizedGraph, active_mask, sample_comm_faults,
                         sample_device_faults, sample_realization)
from mags.inference import (SplitModel, aggregate, aggregator_head, client_encode, delivery,
                            encoder_dims, gossip_adjoint, gossip_mix, gossip_round,
                            init_split_model, mags_infer, sample_major)
from mags.nn import Mlp, init_mlp, log_softmax, mlp_forward
from mags.rng import stream
from mags.topology import build_graph

from helpers import textbook_aggregate, textbook_gossip_adjoint, textbook_gossip_round


def toy_model(graph, patch_dim, classes, seed=0):
    return init_split_model(graph, [patch_dim] * graph.device_count, classes,
                            stream(seed, "init"))


def zero_heads(model):
    for w, b in model.head.layers:
        w[...] = 0.0
        b[...] = 0.0
    return model


def base(graph):
    """The fault-free realization of one batch."""
    return sample_realization(graph, FaultModel(), 1, 1, None)[0]


def infer(model, reps, graph, realized, gossip_rounds):
    """One batch's distributed inference, stage by stage: delivery,
    aggregation and one head pass, then the gossip stage. Returns each alive
    aggregator's normalized log-probs, keyed by aggregator id."""
    alive, keep = delivery(realized, graph.aggregators)
    values, _ = aggregator_head(model, aggregate(sample_major(reps), keep))
    final = log_softmax(mags_infer(values, graph.aggregators, realized, gossip_rounds))
    return {k: lp for k, lp, up in zip(graph.aggregators, final, alive) if up}


def keep_mask(realized, aggregators, client_count):
    """Keep mask of the given aggregators, built directly from one batch's
    realization."""
    keep = [[bool(realized.edge_alive[0, k, c] and realized.alive[c])
             for c in range(1, client_count + 1)] for k in aggregators]
    return np.array(keep, dtype=bool).reshape(len(aggregators), client_count)


class TestEncoderDims:
    def test_standard_patch_sizes(self):
        assert encoder_dims(49) == (49, 16, 4)
        assert encoder_dims(196) == (196, 64, 16)
        assert encoder_dims(16) == (16, 4, 2)


class TestClientEncode:
    def test_identity_like_encoder_is_affine_on_nonnegative_patch(self):
        # one client with a one-layer encoder, written into the stacked view
        params = np.zeros(4 * 2 + 2 + 2 * 3 + 3)
        model = SplitModel(params, 1, (4, 2), (1,), (2, 3))
        model.encoder.layers[0][0][0] = np.eye(4)[:, :2]
        x = np.array([[0.1, 0.9, 0.0, 0.3]])
        reps = client_encode(model, [x])
        assert np.allclose(reps[0], [[0.1, 0.9]])

    def test_sixteen_clients_rep_dim_four(self):
        graph = build_graph("complete", 16, 16)
        model = toy_model(graph, 49, 10)
        assert model.rep_dim == 4
        reps = client_encode(model, [np.random.default_rng(0).random((3, 49))] * 16)
        assert reps.shape == (16, 3, 4)

    def test_representations_are_rectified(self):
        graph = build_graph("complete", 4, 1)
        model = toy_model(graph, 16, 10)
        reps = client_encode(model, [np.random.default_rng(1).random((8, 16))] * 4)
        assert (reps >= 0).all()


class TestAggregate:
    def test_no_faults_fills_every_slot(self):
        graph = build_graph("complete", 16, 16)
        model = toy_model(graph, 49, 10)
        views = [np.random.default_rng(2).random((2, 49)) for _ in range(16)]
        reps = client_encode(model, views)
        out = aggregate(sample_major(reps), keep_mask(base(graph), graph.aggregators, 16))
        assert out.shape == (16, 2, 64)  # head input width for 16 clients x rep 4
        assert (np.abs(out).sum(axis=2) > 0).all()

    def test_all_cross_edges_faulted_leaves_only_self_slots(self):
        graph = build_graph("complete", 4, 4)
        model = toy_model(graph, 16, 3)
        views = [np.abs(np.random.default_rng(3).random((2, 16))) + 0.1 for _ in range(4)]
        reps = client_encode(model, views)
        r = sample_comm_faults(graph, 1.0, 1, stream(0, "fault"))[0]
        out = aggregate(sample_major(reps), keep_mask(r, graph.aggregators, 4))
        for k in range(1, 5):
            for c in range(1, 5):
                sl = out[k - 1, :, (c - 1) * model.rep_dim:c * model.rep_dim]
                if c == k:
                    assert np.array_equal(sl, reps[c - 1])
                else:
                    assert not sl.any()

    def test_matches_independent_mask_oracle(self):
        graph = build_graph("grid", 16, 4)
        model = toy_model(graph, 49, 10)
        rng = np.random.default_rng(4)
        views = [rng.random((3, 49)) for _ in range(16)]
        reps = client_encode(model, views)
        fr = stream(1, "fault")
        for sample in (sample_device_faults, sample_comm_faults) * 10:
            r = sample(graph, 0.4, 1, fr)[0]
            alive, keep = delivery(r, graph.aggregators)
            assert alive.tolist() == [bool(r.alive[k]) for k in graph.aggregators]
            out = aggregate(sample_major(reps), keep)
            for j, k in enumerate(graph.aggregators):
                # oracle: rebuild the concatenation directly from the realization
                expected = np.concatenate(
                    [reps[c - 1] if (r.edge_alive[0, k, c] and r.alive[c])
                     else np.zeros((3, model.rep_dim)) for c in range(1, 17)], axis=1)
                assert np.array_equal(out[j], expected)

    def test_unreached_nan_and_negative_zero_come_out_as_positive_zero(self):
        reps = np.ones((3, 2, 2))
        reps[1, 0, 0], reps[1, 1, 1] = np.nan, -0.0  # client 2, unreached by row 0
        reps[2, 0, 1] = -0.0  # client 3, reached by every row
        keep = np.array([[True, False, True], [True, True, True]])
        out = aggregate(sample_major(reps), keep)
        assert out.shape == (2, 2, 6)
        unreached = out[0, :, 2:4]
        assert np.array_equal(unreached, np.zeros((2, 2))) and not np.signbit(unreached).any()
        assert np.isnan(out[1, 0, 2]) and np.signbit(out[1, 1, 3])
        assert np.signbit(out[:, 0, 5]).all()  # a kept -0.0 is kept as it is

    def test_all_kept_is_a_read_only_broadcast_of_the_zero_filled_result(self):
        graph = build_graph("complete", 16, 16)
        model = toy_model(graph, 49, 10)
        reps = client_encode(model, [np.random.default_rng(5).random((3, 49))
                                     for _ in range(16)])
        keep = np.ones((5, 16), dtype=bool)
        out = aggregate(sample_major(reps), keep)
        # oracle: every kept slot copied into zeros
        filled = np.zeros((5, 3, 16, model.rep_dim))
        np.copyto(filled, reps.transpose(1, 0, 2)[None], where=keep[:, None, :, None])
        assert out.shape == (5, 3, 16 * model.rep_dim)
        assert np.array_equal(out, filled.reshape(5, 3, -1))
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0, 0] = 1.0

    @pytest.mark.parametrize("keep", [
        pytest.param(np.random.default_rng(6).random((4, 5)) < 0.6, id="random"),
        pytest.param(np.ones((4, 5), dtype=bool), id="all-kept"),
        pytest.param(np.tile([True, False, True, True, False], (4, 1)), id="equal-rows"),
        pytest.param(np.array([[False, True, True, False, True]]), id="one-row"),
        pytest.param(np.zeros((0, 5), dtype=bool), id="no-rows"),
    ])
    def test_matches_the_textbook_form(self, keep):
        reps = np.random.default_rng(7).standard_normal((5, 3, 2))
        reps[1, 0, 1] = np.nan
        reps[2, 1, 0] = -0.0
        out = aggregate(sample_major(reps), keep)
        assert out.shape == (keep.shape[0], 3, 10)
        assert out.tobytes() == textbook_aggregate(reps, keep).tobytes()
        # one input row serves every aggregator whenever their deliveries agree
        assert out.flags.writeable == (not (keep == keep[:1]).all())
        # a row slice of a wider stack's sample-major layout gives the same bytes
        wide = np.random.default_rng(8).standard_normal((5, 7, 2))
        wide[:, 2:5] = reps
        assert aggregate(sample_major(wide)[2:5], keep).tobytes() == out.tobytes()
        # a stack of three models' rows under one mask aggregates each alike
        sets = np.random.default_rng(9).standard_normal((3, 5, 3, 2))
        sets[1] = reps
        stacked = aggregate(sample_major(sets), keep)
        assert stacked.shape == (3, keep.shape[0], 3, 10)
        for s, one in enumerate(sets):
            assert stacked[s].tobytes() == aggregate(sample_major(one), keep).tobytes()


class TestAggregatorHead:
    def test_zero_weight_head_is_uniform(self):
        graph = build_graph("complete", 4, 2)
        model = zero_heads(toy_model(graph, 16, 5))
        out, _ = aggregator_head(model, np.random.default_rng(5).random((2, 4, 8)))
        assert np.allclose(out, -np.log(5.0), atol=1e-12)

    def test_output_exponentiates_to_one(self):
        graph = build_graph("complete", 4, 1)
        model = toy_model(graph, 16, 7)
        out, _ = aggregator_head(model, np.random.default_rng(6).random((1, 5, 8)))
        assert np.all(np.abs(np.exp(out).sum(axis=-1) - 1.0) <= 1e-12)

    def test_matches_composition_oracle(self):
        graph = build_graph("complete", 4, 3)
        model = toy_model(graph, 16, 7)
        x = np.random.default_rng(7).random((3, 5, 8))
        out, _ = aggregator_head(model, x)  # every row of the head stack
        for j in range(3):
            expected = log_softmax(mlp_forward(model.head.take(j), x[j])[0])
            assert np.array_equal(out[j], expected)


def random_links(rng, lead, k):
    """A random (*lead, k+1, k+1) ``edge_alive`` with one-way links, and its
    bool (*lead, k, k) link masks over devices 1..k, self-loops set."""
    edge_alive = rng.random((*lead, k + 1, k + 1)) < 0.5
    links = edge_alive[..., 1:, 1:].copy()
    links[..., np.arange(k), np.arange(k)] = True
    return edge_alive, links


class TestGossipRound:
    def test_identical_values_are_a_fixed_point(self):
        graph = build_graph("ring", 8, 8)
        vec = np.array([[0.3, -1.2, 0.0]])
        z = np.stack([vec] * 8)
        out = gossip_round(z, gossip_mix(graph.adj, graph.aggregators, z.dtype))
        assert np.allclose(out, z, atol=1e-15)

    def test_two_aggregators_average(self):
        graph = build_graph("complete", 2, 2)
        z = np.array([[[0.0, -1.0]], [[-1.0, 0.0]]])
        out = gossip_round(z, gossip_mix(graph.adj, graph.aggregators, z.dtype))
        assert np.allclose(out, [[[-0.5, -0.5]], [[-0.5, -0.5]]])

    def test_ring4_matches_consensus_matrix_product(self):
        graph = build_graph("ring", 4, 4)
        rng = np.random.default_rng(8)
        z = rng.standard_normal((4, 1, 3))
        out = gossip_round(z, gossip_mix(graph.adj, graph.aggregators, z.dtype))
        # each ring device averages itself and its two neighbours
        v = np.array([[1, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1]]) / 3.0
        assert np.allclose(out[:, 0], v @ z[:, 0], atol=1e-12)

    def test_mix_is_the_link_mask_and_its_degrees(self):
        graph = build_graph("ring", 4, 4)
        n, d = gossip_mix(graph.adj, [1, 2, 4], np.float32)
        assert n.dtype == d.dtype == np.float32
        assert n.tolist() == [[1, 1, 1], [1, 1, 0], [1, 0, 1]]
        assert d.tolist() == [[3], [2], [2]]

    def test_dead_neighbor_drops_out_of_average(self):
        graph = build_graph("complete", 3, 3)
        edge_alive = graph.adj.copy()
        edge_alive[2, :] = False  # device 2 is dead
        edge_alive[:, 2] = False
        mix = gossip_mix(edge_alive, [1, 3], np.float64)  # the alive aggregators
        out = gossip_round(np.array([[[1.0]], [[3.0]]]), mix)
        assert out[0, 0, 0] == pytest.approx(2.0)
        assert out.shape == (2, 1, 1)

    def test_isolated_aggregator_keeps_its_value(self):
        graph = build_graph("complete", 2, 2)
        edge_alive = sample_comm_faults(graph, 1.0, 1, stream(0, "fault")).edge_alive[0, 0]
        out = gossip_round(np.array([[[1.0]], [[5.0]]]),
                           gossip_mix(edge_alive, [1, 2], np.float64))
        assert out[0, 0, 0] == pytest.approx(1.0)
        assert out[1, 0, 0] == pytest.approx(5.0)

    def test_averages_over_incoming_links_of_an_asymmetric_realization(self):
        # row i averages the aggregators i hears from (edge_alive[i, j])
        graph = build_graph("complete", 3, 3)
        edge_alive = graph.adj.copy()
        edge_alive[1, 2] = edge_alive[1, 3] = False  # 1 hears nobody
        edge_alive[3, 1] = False                     # 3 hears only 2
        out = gossip_round(np.array([[[1.0]], [[2.0]], [[6.0]]]),
                           gossip_mix(edge_alive, [1, 2, 3], np.float64))
        assert out[:, 0, 0] == pytest.approx([1.0, 3.0, 4.0])

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_matches_the_textbook_form_for_bool_and_float_links(self, k):
        # the pair's float links against the textbook's bool ones
        rng = np.random.default_rng(8)
        edge_alive, links = random_links(rng, (), k)
        for dtype in (np.float32, np.float64):
            z = rng.standard_normal((k, 7, 3)).astype(dtype)
            out = gossip_round(z, gossip_mix(edge_alive, range(1, k + 1), dtype))
            assert out.tobytes() == textbook_gossip_round(z, links).tobytes()

    @pytest.mark.parametrize("k", [2, 3, 5, 16])
    def test_leading_axes_give_each_slice_its_own_round(self, k):
        # one pair shared by every leading index, or a stack of J batches
        # each with its own pair
        rng = np.random.default_rng(k)
        z = rng.standard_normal((4, k, 7, 3))
        edge_alive, _ = random_links(rng, (4,), k)
        for mix in (gossip_mix(edge_alive[0], range(1, k + 1), z.dtype),
                    gossip_mix(edge_alive, range(1, k + 1), z.dtype)):
            out = gossip_round(z, mix)
            assert out.shape == z.shape
            for s in range(4):
                one = mix if mix[0].ndim == 2 else (mix[0][s], mix[1][s])
                assert out[s].tobytes() == gossip_round(z[s], one).tobytes()

    def test_no_aggregator_gives_an_empty_stack(self):
        graph = build_graph("ring", 4, 4)
        out = gossip_round(np.zeros((0, 7, 3)), gossip_mix(graph.adj, [], np.float64))
        assert out.shape == (0, 7, 3)
        # every aggregator dead: G > 0 rounds over no rows, and over every
        # dead row, each of which keeps only itself
        realized = sample_device_faults(graph, 1.0, 1, stream(1, "fault"))[0]
        alive, keep = delivery(realized, graph.aggregators)
        assert not alive.any() and not keep.any()
        assert mags_infer(np.zeros((0, 7, 3)), [], realized, 3).shape == (0, 7, 3)
        z = np.random.default_rng(3).standard_normal((4, 7, 3))
        assert mags_infer(z, graph.aggregators, realized, 3).tobytes() == z.tobytes()


class TestGossipAdjoint:
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 16])
    def test_is_the_transpose_of_the_round(self, k, stacked):
        # <round(z), w> == <z, adjoint(w)> over random one-way links; K' = 0
        # is an empty aggregator set
        rng = np.random.default_rng(30 + k)
        lead = (3,) if stacked else ()
        edge_alive, _ = random_links(rng, lead, k)
        mix = gossip_mix(edge_alive, range(1, k + 1), np.float64)
        assert mix[0].shape == (*lead, k, k) and mix[1].shape == (*lead, k, 1)
        z, w = rng.standard_normal((2, *lead, k, 6, 4))
        lhs = float((gossip_round(z, mix) * w).sum())
        rhs = float((z * gossip_adjoint(w, mix)).sum())
        assert abs(lhs - rhs) <= 1e-12

    def test_float32_values_stay_float32(self):
        rng = np.random.default_rng(31)
        edge_alive, _ = random_links(rng, (), 5)
        mix = gossip_mix(edge_alive, range(1, 6), np.float32)
        z = rng.standard_normal((5, 6, 4)).astype(np.float32)
        assert gossip_round(z, mix).dtype == np.float32
        assert gossip_adjoint(z, mix).dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    def test_matches_the_textbook_form(self, k, dtype):
        # a training batch's shape: 64 samples of 10 classes per aggregator
        rng = np.random.default_rng(32 + k)
        dz = rng.standard_normal((k, 64, 10)).astype(dtype)
        edge_alive, links = random_links(rng, (), k)
        out = gossip_adjoint(dz, gossip_mix(edge_alive, range(1, k + 1), dtype))
        assert out.tobytes() == textbook_gossip_adjoint(dz, links).tobytes()


class TestMagsInfer:
    def test_degenerate_network_equals_plain_mlp(self):
        # C=1, K=1, G=0, no faults: the pipeline composes into one MLP
        graph = build_graph("complete", 1, 1)
        rng = stream(0, "init")
        model = init_split_model(graph, [16], 3, rng)
        oracle_rng = stream(0, "init")
        enc = init_mlp((16, 4, 2), oracle_rng)
        head = init_mlp((2, 2, 3), oracle_rng)
        mono = Mlp(enc.layers + head.layers)
        x = np.random.default_rng(9).random((6, 16))
        res = infer(model, client_encode(model, [x]), graph, base(graph), 0)
        expected = log_softmax(mlp_forward(mono, x)[0])
        assert np.allclose(res[1], expected, atol=1e-12)

    def test_vanilla_single_aggregator_case(self):
        # K=1, G=0, no faults reproduces encode-concat-head exactly
        graph = build_graph("complete", 4, 1)
        model = toy_model(graph, 16, 5)
        views = [np.random.default_rng(10).random((3, 16)) for _ in range(4)]
        reps = client_encode(model, views)
        res = infer(model, reps, graph, base(graph), 0)
        z = aggregate(sample_major(reps), np.ones((1, 4), dtype=bool))
        assert np.allclose(res[1], aggregator_head(model, z)[0][0], atol=1e-12)
        assert list(res) == [1]

    def test_consensus_limit_on_regular_graph(self):
        # torus-16 radius is 0.6, so 60 rounds contract below 1e-8
        graph = build_graph("torus", 16, 16)
        model = toy_model(graph, 49, 10)
        views = [np.random.default_rng(11).random((2, 49)) for _ in range(16)]
        reps = client_encode(model, views)
        res0 = infer(model, reps, graph, base(graph), 0)
        res = infer(model, reps, graph, base(graph), 60)
        outs = [res[k] for k in graph.aggregators]
        for o in outs[1:]:
            assert np.max(np.abs(o - outs[0])) < 1e-8
        # oracle: uniform average of round-1 vectors, renormalized
        mean0 = np.mean([res0[k] for k in graph.aggregators], axis=0)
        assert np.max(np.abs(outs[0] - log_softmax(mean0))) < 1e-8

    def test_consensus_limit_weights_by_degree_on_irregular_graph(self):
        # row-stochastic averaging converges to the degree-weighted mean
        graph = build_graph("grid", 16, 16)
        model = toy_model(graph, 49, 10)
        views = [np.random.default_rng(12).random((1, 49)) for _ in range(16)]
        reps = client_encode(model, views)
        res0 = infer(model, reps, graph, base(graph), 0)
        res = infer(model, reps, graph, base(graph), 200)
        degrees = graph.adj[1:, 1:].sum(axis=1).astype(float)  # self-loop included
        pi = degrees / degrees.sum()
        stack = np.stack([res0[k][0] for k in graph.aggregators])
        limit = log_softmax(pi @ stack)
        for k in graph.aggregators:
            assert np.max(np.abs(res[k][0] - limit)) < 1e-8

    def test_outputs_absent_for_dead_aggregators(self):
        graph = build_graph("complete", 8, 8)
        model = toy_model(graph, 49, 10)
        views = [np.random.default_rng(13).random((2, 49)) for _ in range(8)]
        rng = stream(4, "fault")
        reps = client_encode(model, views)
        for _ in range(20):
            r = sample_device_faults(graph, 0.5, 1, rng)[0]
            res = infer(model, reps, graph, r, 1)
            assert list(res) == [k for k in graph.aggregators if r.alive[k]]
            active = np.flatnonzero(active_mask(r, graph.aggregators))
            assert {graph.aggregators[j] for j in active} <= set(res)
            for lp in res.values():
                assert np.all(np.abs(np.exp(lp).sum(axis=1) - 1.0) <= 1e-12)

    def test_zero_weight_heads_stay_uniform_under_any_faults(self):
        graph = build_graph("grid", 16, 4)
        model = zero_heads(toy_model(graph, 49, 10))
        views = [np.random.default_rng(14).random((3, 49)) for _ in range(16)]
        rng = stream(5, "fault")
        reps = client_encode(model, views)
        for rate in (0.2, 0.7):
            res = infer(model, reps, graph, sample_comm_faults(graph, rate, 1, rng)[0], 2)
            for lp in res.values():
                assert np.allclose(np.exp(lp), 0.1, atol=1e-12)

    def test_permutation_consistency(self):
        # relabeling clients and permuting model slots leaves outputs unchanged
        graph = build_graph("complete", 4, 4)
        model = toy_model(graph, 16, 5, seed=3)
        rng = np.random.default_rng(15)
        views = [rng.random((3, 16)) for _ in range(4)]
        perm = [3, 1, 4, 2]  # new client c takes old client perm[c-1]
        r = model.rep_dim

        # permute encoder and head rows, and the head's input blocks, by
        # writing into model2's stacked views
        rows = [p - 1 for p in perm]
        model2 = model.copy()
        for (w2, b2), (w, b) in zip(model2.encoder.layers + model2.head.layers,
                                    model.encoder.layers + model.head.layers):
            w2[...] = w[rows]
            b2[...] = b[rows]
        w1 = model2.head.layers[0][0]
        blocks = w1.reshape(4, 4, r, -1)  # (head, client block, r, width)
        blocks[...] = blocks[:, rows]
        views2 = [views[p - 1] for p in perm]

        res = infer(model, client_encode(model, views), graph, base(graph), 2)
        res2 = infer(model2, client_encode(model2, views2), graph, base(graph), 2)
        for new_k, old_k in enumerate(perm, start=1):
            assert np.allclose(res2[new_k], res[old_k], atol=1e-12)

    def test_dead_client_representations_are_never_read(self):
        # reps are encoded once for all fault draws; device faults mask them
        graph = build_graph("complete", 8, 8)
        model = toy_model(graph, 49, 10)
        views = [np.random.default_rng(19).random((4, 49)) for _ in range(8)]
        reps = client_encode(model, views)
        dead_seen = 0
        for seed in range(10):
            r = sample_device_faults(graph, 0.4, 1, stream(seed, "fault"))[0]
            res = infer(model, reps, graph, r, 2)
            dead = [c for c in range(1, 9) if not r.alive[c]]
            dead_seen += len(dead)
            garbage = reps.copy()
            for c in dead:
                garbage[c - 1] = np.nan
            res2 = infer(model, garbage, graph, r, 2)
            assert res2.keys() == res.keys()
            for k, lp in res.items():
                assert np.array_equal(res2[k], lp)
        assert dead_seen > 0

    def test_markov_mode_advances_per_round(self):
        # round 0 delivers, gossip round t averages over round t's links
        graph = build_graph("complete", 8, 8)
        model = toy_model(graph, 49, 10)
        views = [np.random.default_rng(16).random((2, 49)) for _ in range(8)]
        reps = client_encode(model, views)
        r = sample_realization(graph, FaultModel("markov_comm", 0.5), 1, 4,
                               stream(7, "fault"))[0]
        assert r.edge_alive.shape == (4, 9, 9)
        assert len({e.tobytes() for e in r.edge_alive}) > 1  # the chain actually moved
        res = infer(model, reps, graph, r, 3)
        values, _ = aggregator_head(model, aggregate(sample_major(reps),
                                                     delivery(r, graph.aggregators)[1]))
        for t in (1, 2, 3):
            values = gossip_round(values, gossip_mix(r.edge_alive[t], graph.aggregators,
                                                     values.dtype))
        for j, k in enumerate(graph.aggregators):
            assert np.array_equal(res[k], log_softmax(values)[j])

    def test_constant_realization_reused_across_rounds(self):
        # a realization held for every round equals the same draw written
        # out once per round
        graph = build_graph("complete", 8, 8)
        model = toy_model(graph, 49, 10)
        views = [np.random.default_rng(17).random((2, 49)) for _ in range(8)]
        reps = client_encode(model, views)
        r = sample_comm_faults(graph, 0.3, 1, stream(8, "fault"))[0]
        assert r.edge_alive.shape == (1, 9, 9)
        spelled = RealizedGraph(r.alive, np.repeat(r.edge_alive, 4, axis=0))
        held, res = infer(model, reps, graph, r, 3), infer(model, reps, graph, spelled, 3)
        assert held.keys() == res.keys()
        for k in held:
            assert np.array_equal(held[k], res[k])


class TestBatchAxis:
    """A stack of J batches runs as one call of ``aggregate``,
    ``aggregator_head`` and ``mags_infer`` (``gossip_round``'s stacked pairs:
    ``TestGossipRound``), each slice bit for bit its own one-batch call."""

    @staticmethod
    def float32_model(graph, patch_dim, classes):
        model = toy_model(graph, patch_dim, classes)
        return dataclasses.replace(model, params=model.params.astype(np.float32))

    @pytest.mark.parametrize("case", ["random", "equal-rows", "all-kept", "no-rows"])
    def test_aggregate_slices_equal_their_calls(self, case):
        rng = np.random.default_rng(20)
        reps = rng.standard_normal((4, 5, 3, 2)).astype(np.float32)  # 4 batches of (C, B, r)
        keep = {"random": rng.random((4, 6, 5)) < 0.5,
                "equal-rows": np.repeat(rng.random((4, 1, 5)) < 0.5, 6, axis=1),
                "all-kept": np.ones((4, 6, 5), dtype=bool),
                "no-rows": np.zeros((4, 0, 5), dtype=bool)}[case]
        keep[..., 1] = False  # client 2 is unreached in every batch
        reps[:, 1, 0, 0], reps[:, 1, 1, 1] = np.nan, -0.0
        out = aggregate(sample_major(reps), keep)
        assert out.shape == (4, keep.shape[1], 3, 10)
        for j in range(4):
            one = aggregate(sample_major(reps[j]), keep[j])
            assert out[j].tobytes() == one.tobytes()
            assert out[j].tobytes() == textbook_aggregate(reps[j], keep[j]).tobytes()
        unreached = out[..., 2:4]
        assert not unreached.any() and not np.signbit(unreached).any()

    @pytest.mark.parametrize("g", [0, 1, 4])
    @pytest.mark.parametrize("kind", ["communication", "markov_comm"])  # held and Markov draws
    @pytest.mark.parametrize("b", [16, 5])  # a full batch and a short last one
    def test_head_and_gossip_slices_equal_their_calls(self, b, kind, g):
        graph = build_graph("grid", 9, 4)
        model = self.float32_model(graph, 16, 5)
        rng = np.random.default_rng(22)
        reps = client_encode(model, rng.random((9, 4 * b, 16)).astype(np.float32))
        rows = sample_major(reps).reshape(4, b, -1)  # 4 batches of b samples
        realized = sample_realization(graph, FaultModel(kind, 0.4), 4, g + 1,
                                      stream(23, "fault"))
        aggs = graph.aggregators
        alive, keep = delivery(realized, aggs)
        assert alive.shape == (4, 4) and alive.all()  # link faults kill no aggregator
        inputs = aggregate(rows, keep)
        values, _ = aggregator_head(model, inputs)
        final = mags_infer(values, aggs, realized, g)
        assert final.shape == (4, len(aggs), b, 5) and final.dtype == np.float32
        for j in range(4):
            one_alive, one_keep = delivery(realized[j], aggs)
            assert np.array_equal(one_alive, alive[j]) and np.array_equal(one_keep, keep[j])
            one_inputs = aggregate(rows[j], one_keep)
            one_values, _ = aggregator_head(model, one_inputs)
            assert inputs[j].tobytes() == one_inputs.tobytes()
            assert values[j].tobytes() == one_values.tobytes()
            assert final[j].tobytes() == mags_infer(one_values, aggs, realized[j], g).tobytes()

    @pytest.mark.parametrize("kind", ["complete", "ring"])
    def test_a_stack_of_subset_heads_and_no_heads(self, kind):
        # device faults: every head runs, a dead one on zeros; each slice is
        # its own call, and the alive rows are the bits of the alive heads
        # and their gossip alone, the path that ran before every head did
        graph = build_graph(kind, 4, 4)
        model = self.float32_model(graph, 16, 3)
        rows = sample_major(client_encode(
            model, np.random.default_rng(24).random((4, 18, 16)).astype(np.float32)))
        rows = rows.reshape(3, 6, -1)
        for aggs in ([1, 2, 4], [2, 4], []):
            up = np.isin(np.arange(5), [0] + aggs)[None].repeat(3, axis=0)
            edges = graph.adj & up[:, :, None] & up[:, None, :]
            realized = RealizedGraph(up, edges[:, None])
            alive, keep = delivery(realized, graph.aggregators)
            assert np.array_equal(alive, up[:, 1:]) and not keep[~alive].any()
            values, _ = aggregator_head(model, aggregate(rows, keep))
            final = mags_infer(values, graph.aggregators, realized, 2)
            assert final.shape == (3, 4, 6, 3)
            heads = np.array(aggs, dtype=np.intp) - 1  # the alive rows
            for j in range(3):
                one, _ = aggregator_head(model, aggregate(rows[j], keep[j]))
                assert values[j].tobytes() == one.tobytes()
                assert final[j].tobytes() == mags_infer(one, graph.aggregators, realized[j],
                                                        2).tobytes()
                out, _ = mlp_forward(model.head.take(heads), aggregate(rows[j], keep[j, heads]))
                subset = mags_infer(log_softmax(out), aggs, realized[j], 2)
                assert final[j, heads].tobytes() == subset.tobytes()
