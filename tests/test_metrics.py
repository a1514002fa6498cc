import numpy as np
import pytest

from mags.certs import cert_ensemble_identity
from mags.data import client_views, make_splits, split_patches, synth_dataset
from mags.errors import ConfigError, InputError
from mags.faults import (FaultModel, RealizedGraph, sample_comm_faults, sample_device_faults,
                         sample_realization)
from mags.inference import (aggregate, aggregator_head, client_encode, delivery,
                            init_split_model, mags_infer)
from mags.metrics import (POLICIES, count_comm, ensemble_decomposition, evaluate_policies,
                          score_policies)
from mags.nn import log_softmax
from mags.rng import stream
from mags.topology import build_graph
from mags.training import TrainConfig, fit

from helpers import per_batch_evaluate_policies


def uniform_model(graph, patch_dim, classes, seed=0):
    model = init_split_model(graph, [patch_dim] * graph.device_count, classes,
                             stream(seed, "init"))
    for w, b in model.head.layers:
        w[...] = 0.0
        b[...] = 0.0
    return model


def fixed_model(graph, classes, predict=None):
    """Heads that ignore their input: aggregator k always predicts class
    ``predict[k]``, by default k-1."""
    model = uniform_model(graph, 4, classes)
    last_bias = model.head.layers[-1][1]
    for j, k in enumerate(model.aggregators):
        last_bias[j, (predict or {}).get(k, k - 1)] = 10.0
    return model


def accuracy(model, graph, label, n, fault=FaultModel("none"), batch_size=None, seed=0):
    """Every policy's accuracy on n samples of one label. The heads ignore
    their input, so the representations are zeros."""
    reps = np.zeros((graph.device_count, n, model.rep_dim))
    return evaluate_policies(model, reps, np.full(n, label), graph, [fault], list(POLICIES),
                             [0], seed, batch_size=batch_size or n)[0][0].accuracy


class TestSelect:
    """Selection policy semantics, scored through evaluate_policies."""

    def test_all_correct_makes_every_policy_correct(self):
        graph = build_graph("complete", 3, 3)
        model = fixed_model(graph, 4, {1: 2, 2: 2, 3: 2})
        assert accuracy(model, graph, 2, 64) == {p: 1.0 for p in POLICIES}

    def test_one_right_one_wrong_oracles(self):
        graph = build_graph("complete", 2, 2)
        acc = accuracy(fixed_model(graph, 4, {1: 2, 2: 0}), graph, 2, 64)
        assert acc["active_best"] == 1.0 and acc["active_worst"] == 0.0

    def test_active_rand_is_a_fair_coin_here(self):
        graph = build_graph("complete", 2, 2)
        draws = 100000
        acc = accuracy(fixed_model(graph, 4, {1: 2, 2: 0}), graph, 2, draws, batch_size=10000)
        band = 3 * np.sqrt(0.25 / draws)
        assert abs(acc["active_rand"] - 0.5) <= band

    def test_single_aggregator_oracles_coincide_with_rand(self):
        graph = build_graph("complete", 4, 1)
        model = fixed_model(graph, 4, {1: 3})
        oracles = ("active_rand", "active_best", "active_worst")
        assert all(accuracy(model, graph, 3, 64)[p] == 1.0 for p in oracles)
        assert all(accuracy(model, graph, 0, 64)[p] == 0.0 for p in oracles)
        # faulted: the uniform-guess fallback shares one draw across policies
        acc = accuracy(model, graph, 3, 640, FaultModel("device", 0.5), batch_size=8)
        assert 0.0 < acc["active_rand"] < 1.0
        assert acc["active_best"] == acc["active_rand"] == acc["active_worst"]

    def test_empty_active_set_is_uniform_guess(self):
        graph = build_graph("complete", 4, 4)
        draws = 40000
        acc = accuracy(fixed_model(graph, 4), graph, 1, draws, FaultModel("device", 1.0),
                       batch_size=4000)
        band = 3 * np.sqrt(0.25 * 0.75 / draws)
        assert abs(acc["active_rand"] - 0.25) <= band

    def test_any_rand_falls_back_on_inactive_pick(self):
        # only device 1 is an active aggregator among 8 devices
        graph = build_graph("complete", 8, 1)
        draws = 40000
        acc = accuracy(fixed_model(graph, 4, {1: 2}), graph, 2, draws, batch_size=4000)
        # correct w.p. 1/8 (informed) + 7/8 * 1/4 (guess)
        expected = 1 / 8 + (7 / 8) * (1 / 4)
        band = 3 * np.sqrt(expected * (1 - expected) / draws)
        assert abs(acc["any_rand"] - expected) <= band

    def test_conditional_selection_frequency_through_samplers(self):
        # given a nonempty active set, each aggregator is picked w.p. 1/K.
        # Aggregator k predicts class k-1, so the active_rand accuracy on
        # label k-1 is the frequency of picking k; the fault and selection
        # streams do not depend on the labels, so every label sees the same
        # draws. One realization per sample (batch size 1).
        graph = build_graph("complete", 4, 4)
        model = fixed_model(graph, 4)
        draws, rate = 3000, 0.3
        freq = np.array([accuracy(model, graph, k - 1, draws, FaultModel("device", rate),
                                  batch_size=1, seed=6)["active_rand"] for k in range(1, 5)])
        # with K = M = 4 the empty-set guess also lands on each class w.p. 1/4
        assert freq.sum() == pytest.approx(1.0)
        band = 3 * np.sqrt(0.25 * 0.75 / draws)
        assert np.all(np.abs(freq - 0.25) <= band)

    def test_active_picks_are_uniform_below_each_batch_bound(self, monkeypatch):
        # a cell draws every active pick in one call, each sample bounded by
        # its batch's max(|A_i|, 1): under device faults on 8 aggregators the
        # bounds vary from batch to batch, and below each bound every pick
        # is drawn w.p. 1/bound
        from mags import metrics
        seen = []

        def spy(correct, active, labels, guess, upick, vpick):
            seen.append((active.sum(axis=1), labels >= 0, vpick))
            return score_policies(correct, active, labels, guess, upick, vpick)

        monkeypatch.setattr(metrics, "score_policies", spy)
        graph = build_graph("complete", 8, 8)
        accuracy(fixed_model(graph, 8), graph, 0, 30000, FaultModel("device", 0.5),
                 batch_size=30, seed=5)
        [(sizes, valid, vpick)] = seen
        bounds = np.broadcast_to(np.maximum(sizes, 1)[:, None], vpick.shape)[valid]
        picks = vpick[valid]
        assert np.all((0 <= picks) & (picks < bounds))
        tested = []
        for k in range(2, 9):
            at_k = picks[bounds == k]
            if at_k.size < 2000:
                continue
            tested.append(k)
            freq = np.bincount(at_k, minlength=k) / at_k.size
            band = 3 * np.sqrt((1 / k) * (1 - 1 / k) / at_k.size)
            assert np.all(np.abs(freq - 1 / k) <= band), (k, freq)
        assert len(tested) >= 4, tested


def base(graph, batches=1):
    return sample_realization(graph, FaultModel(), batches, 1, None)


class TestCountComm:
    def test_single_aggregator_complete_no_faults(self):
        graph = build_graph("complete", 16, 1)
        assert count_comm(base(graph), graph.aggregators, 0).tolist() == [15]

    def test_all_aggregators_with_gossip_rounds(self):
        # 240 messages in each of three rounds, counted once and multiplied
        # when the realization is held, round by round when it is not
        graph = build_graph("complete", 16, 16)
        held = base(graph, 2)
        assert count_comm(held, graph.aggregators, 2).tolist() == [720, 720]
        spelled = RealizedGraph(held.alive, np.repeat(held.edge_alive, 3, axis=1))
        assert count_comm(spelled, graph.aggregators, 2).tolist() == [720, 720]

    def test_dead_aggregator_receives_nothing(self):
        graph = build_graph("complete", 4, 4)
        alive = np.ones((1, 5), dtype=bool)
        alive[0, 2] = False
        edge_alive = graph.adj & alive[0, :, None] & alive[0, None, :]
        count = count_comm(RealizedGraph(alive, edge_alive[None, None]), graph.aggregators, 0)
        # three alive aggregators with two alive in-neighbors each
        assert count.tolist() == [6]

    def test_breakdown_sums_to_total(self):
        # a per-round realization counts each round once: the batch total is
        # the sum of its rounds counted one by one
        graph = build_graph("grid", 16, 4)
        r = sample_realization(graph, FaultModel("markov_comm", 0.3), 5, 3, stream(7, "fault"))
        rounds = [count_comm(RealizedGraph(r.alive, r.edge_alive[:, t:t + 1]),
                             graph.aggregators, 0) for t in range(3)]
        assert np.array_equal(count_comm(r, graph.aggregators, 2), sum(rounds))
        assert len({c.tobytes() for c in rounds}) > 1

    @pytest.mark.parametrize("kind", ["complete", "ring", "grid"])
    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_matches_per_aggregator_loop(self, kind, k):
        def reference(alive, edge_alive, aggregators):
            # the per-aggregator double loop that count_comm vectorizes
            total = 0
            for a in aggregators:
                if alive[a]:
                    total += int(edge_alive[a, 1:].sum()) - int(edge_alive[a, a])
            return total

        graph = build_graph(kind, 16, k)
        rng = stream(8, "fault")
        for r in (sample_device_faults(graph, 0.4, 100, rng),
                  sample_comm_faults(graph, 0.4, 100, rng)):
            for g in (0, 2):
                counts = count_comm(r, graph.aggregators, g)
                assert counts.tolist() == [
                    (g + 1) * reference(a, e[0], graph.aggregators)
                    for a, e in zip(r.alive, r.edge_alive)]
        r = sample_realization(graph, FaultModel("markov_comm", 0.4), 100, 3, rng)
        assert count_comm(r, graph.aggregators, 2).tolist() == [
            sum(reference(a, e, graph.aggregators) for e in es)
            for a, es in zip(r.alive, r.edge_alive)]


class TestEnsembleDecomposition:
    def test_hand_computed_two_member_case(self):
        members = np.log(np.array([[0.8, 0.2], [0.2, 0.8]]))
        y = np.array([1.0, 0.0])
        ens_loss, mean_loss, diversity = ensemble_decomposition(members, y)
        assert ens_loss == pytest.approx(0.69315, abs=1e-5)      # ln 2
        assert mean_loss == pytest.approx(0.91629, abs=1e-5)
        assert diversity == pytest.approx(0.22314, abs=1e-5)     # -ln 0.8
        assert abs(ens_loss - (mean_loss - diversity)) < 1e-12

    def test_identical_members_have_zero_diversity(self):
        from mags.nn import log_softmax
        lp = log_softmax(np.array([0.3, -1.0, 0.5]))
        ens_loss, mean_loss, diversity = ensemble_decomposition(
            np.stack([lp, lp, lp]), np.array([0.0, 1.0, 0.0]))
        assert diversity == pytest.approx(0.0, abs=1e-15)
        assert ens_loss == pytest.approx(mean_loss, abs=1e-12)

    def test_identity_and_nonnegativity_over_random_members(self):
        from mags.nn import log_softmax
        rng = np.random.default_rng(10)
        for _ in range(500):
            k = rng.choice([2, 4, 16])
            lps = log_softmax(2 * rng.standard_normal((k, 10)))
            y = np.zeros(10)
            y[rng.integers(10)] = 1.0
            ens_loss, mean_loss, diversity = ensemble_decomposition(lps, y)
            assert diversity >= -1e-12
            assert abs(ens_loss - (mean_loss - diversity)) < 1e-9

    @pytest.mark.parametrize("k", [1, 2, 16])
    def test_stacked_sets_equal_per_set_calls(self, k):
        rng = np.random.default_rng(k)
        lps = log_softmax(2.0 * rng.standard_normal((50, k, 10)))
        y = np.eye(10)[rng.integers(10, size=50)]
        stacked = ensemble_decomposition(lps, y)
        per_set = np.array([ensemble_decomposition(lp, t) for lp, t in zip(lps, y)]).T
        for got, want in zip(stacked, per_set):
            assert got.shape == (50,)
            assert np.array_equal(got, want)
        # leading axes beyond one flatten to the same sets
        nested = ensemble_decomposition(lps.reshape(5, 10, k, 10), y.reshape(5, 10, 10))
        for got, want in zip(nested, stacked):
            assert np.array_equal(got.reshape(-1), want)

    def test_single_set_returns_float_scalars(self):
        lps = log_softmax(np.array([[0.3, -1.0, 0.5], [1.0, 0.0, -0.5]]))
        result = ensemble_decomposition(lps, np.array([0.0, 1.0, 0.0]))
        assert all(isinstance(v, float) and np.ndim(v) == 0 for v in result)

    @pytest.mark.parametrize("members, target", [
        ((2, 5), (5, 1)),       # right length, wrong shape
        ((2, 5), (1, 5)),
        ((3, 2, 5), (5,)),      # one target for three sets
        ((3, 2, 5), (3, 2, 5)),
        ((3, 2, 5), (2, 5)),
    ])
    def test_rejects_targets_not_shaped_like_the_sets(self, members, target):
        lps = log_softmax(np.zeros(members))
        with pytest.raises(InputError, match="targets of shape"):
            ensemble_decomposition(lps, np.zeros(target))

    @pytest.mark.parametrize("shape", [(5,), (0, 5), (3, 0, 5)])
    def test_rejects_sets_without_members(self, shape):
        with pytest.raises(InputError, match="at least one member"):
            ensemble_decomposition(np.zeros(shape), np.zeros(5))

    def test_broken_arithmetic_combiner_fails_certificate(self):
        # mutation check: averaging probabilities instead of log-probabilities
        # must violate the decomposition identity that the geometric
        # ensemble satisfies
        from mags.nn import log_softmax
        assert cert_ensemble_identity(seed=0, sets=200).passed
        rng = np.random.default_rng(0)
        broken = 0
        for _ in range(200):
            lps = log_softmax(2.0 * rng.standard_normal((4, 10)))
            y = np.zeros(10)
            y[rng.integers(10)] = 1.0
            ens_loss, mean_loss, diversity = ensemble_decomposition(lps, y)
            assert abs(ens_loss - (mean_loss - diversity)) < 1e-9
            arithmetic_loss = -np.log(np.exp(lps).mean(axis=0) @ y)
            broken += abs(arithmetic_loss - (mean_loss - diversity)) > 1e-9
        assert broken == 200


@pytest.fixture(scope="module")
def trained_small():
    ds = synth_dataset(1200, 4, 2, seed=5, noise=0.2)
    part = split_patches(ds.feature_count, 2)
    graph = build_graph("complete", 4, 4)
    ckpt = fit(TrainConfig(epochs=4, seed=1, dropout="cd", dropout_rate=0.3),
               client_views(ds.features, part), ds.labels, ds.class_count,
               make_splits(len(ds), 1), part, graph)
    return ckpt.model, ds, part, graph


class TestEvaluatePolicies:
    def test_uniform_heads_score_one_over_classes(self):
        graph = build_graph("complete", 4, 4)
        model = uniform_model(graph, 196, 10)
        ds = synth_dataset(800, 10, 2, seed=6, noise=0.3)
        part = split_patches(784, 2)
        res = evaluate_policies(model, client_encode(model, client_views(ds.features, part)),
                                ds.labels, graph, [FaultModel("communication", 0.3)],
                                ["active_rand", "active_best", "active_worst", "any_rand"],
                                [0], seed=1)[0][0]
        band = 3 * np.sqrt(0.1 * 0.9 / 800)
        for policy, acc in res.accuracy.items():
            assert abs(acc - 0.1) <= band, policy

    def test_trained_model_is_perfect_without_faults(self, trained_small):
        model, ds, part, graph = trained_small
        reps = client_encode(model, client_views(ds.features[-300:], part))
        res = evaluate_policies(model, reps, ds.labels[-300:], graph, [FaultModel("none")],
                                ["active_rand"], [0], seed=2)[0][0]
        assert res.accuracy["active_rand"] == pytest.approx(1.0, abs=0.02)

    def test_oracle_ordering_holds_per_cell(self, trained_small):
        model, ds, part, graph = trained_small
        reps = client_encode(model, client_views(ds.features[-400:], part))
        grid = evaluate_policies(
            model, reps, ds.labels[-400:], graph,
            [FaultModel(kind, rate) for kind in ("communication", "device") for rate in (0.3, 0.6)],
            ["active_rand", "active_best", "active_worst", "any_rand"], [0, 4], seed=3)
        for results in grid:
            for res in results:
                a = res.accuracy
                assert a["active_best"] >= a["active_rand"] >= a["active_worst"]
                assert a["any_rand"] <= a["active_rand"]

    @pytest.mark.parametrize("kind", ["communication", "device"])
    def test_gossip_reuses_fault_draws(self, trained_small, kind):
        # the fault stream must not depend on the number of gossip rounds
        model, ds, part, graph = trained_small
        fault = FaultModel(kind, 0.4)
        kwargs = dict(graph=graph, fault_models=[fault], policies=["active_rand"], seed=4)
        reps = client_encode(model, client_views(ds.features[-200:], part))
        [(r0, r4)] = evaluate_policies(model, reps, ds.labels[-200:], gossip_rounds=[0, 4],
                                       **kwargs)
        assert r0.comm_mean == pytest.approx(r4.comm_mean / 5.0)

        g0 = sample_realization(graph, fault, 10, 1, stream(4, "fault"))
        g4 = sample_realization(graph, fault, 10, 5, stream(4, "fault"))
        assert np.array_equal(g0.alive, g4.alive)
        assert np.array_equal(g0.edge_alive, g4.edge_alive[:, :1])

    @pytest.mark.parametrize("counts", [(0, 4), (0, 2, 4)])
    @pytest.mark.parametrize("kind", ["none", "device", "communication", "markov_comm"])
    def test_grouped_counts_equal_separate_calls(self, kind, counts):
        # one head pass per batch serves every count, each count gossips
        # over its own chain, and the base graph's head outputs are shared
        # across cells: none of it may change a bit of any cell's result.
        # The grid starts at ``kind``, so a different cell fills the shared
        # head outputs in each case.
        graph = build_graph("grid", 9, 9)
        model = init_split_model(graph, [16] * 9, 5, stream(3, "init"))
        rng = np.random.default_rng(8)
        n = 70  # batches of 16: the last one is short
        reps = client_encode(model, rng.random((9, n, 16)))
        labels = rng.integers(5, size=n)
        kinds = ["none", "device", "communication", "markov_comm"]
        kinds = kinds[kinds.index(kind):] + kinds[:kinds.index(kind)]
        faults = [FaultModel(k, rate) for k in kinds for rate in (0.0, 0.3)]
        kwargs = dict(graph=graph, policies=list(POLICIES), seed=11, batch_size=16, trials=2)
        grouped = evaluate_policies(model, reps, labels, fault_models=faults,
                                    gossip_rounds=counts, **kwargs)
        separate = [[evaluate_policies(model, reps, labels, fault_models=[fault],
                                       gossip_rounds=[g], **kwargs)[0][0] for g in counts]
                    for fault in faults]
        assert grouped == separate

    @pytest.mark.parametrize("trials", [1, 2])
    @pytest.mark.parametrize("counts", [(0,), (0, 2, 4)])
    @pytest.mark.parametrize("batch_size", [1, 16, 20])  # 48 samples: 20 leaves a short batch
    @pytest.mark.parametrize("kind,k", [("complete", 1), ("complete", 4), ("ring", 1),
                                        ("ring", 4)])
    def test_matches_the_per_batch_loop(self, kind, k, batch_size, counts, trials):
        # the one scoring pass per (cell, count) against the loop that scored
        # each batch as it came; device faults at rate 1 leave every batch
        # without an alive aggregator, communication faults at 1 without an
        # active one
        graph = build_graph(kind, 4, k)
        model = init_split_model(graph, [16] * 4, 3, stream(5, "init"))
        rng = np.random.default_rng(13)
        n = 48
        reps = client_encode(model, rng.random((4, n, 16)))
        labels = rng.integers(3, size=n)
        faults = [FaultModel(f, rate) for f in ("none", "device", "communication", "markov_comm")
                  for rate in (0.0, 0.3, 1.0)]
        args = (model, reps, labels, graph, faults, list(POLICIES), counts, 7)
        kwargs = dict(batch_size=batch_size, trials=trials)
        assert evaluate_policies(*args, **kwargs) == per_batch_evaluate_policies(*args, **kwargs)

    def test_rate_zero_cells_share_one_head_pass_per_batch_slice(self, monkeypatch):
        from mags import metrics
        graph = build_graph("grid", 9, 9)
        model = init_split_model(graph, [16] * 9, 5, stream(3, "init"))
        rng = np.random.default_rng(9)
        n = 70
        reps = client_encode(model, rng.random((9, n, 16)))
        slices = []

        def counted_head(model, aggs, agg_inputs):
            slices.append(agg_inputs.shape[1])
            return aggregator_head(model, aggs, agg_inputs)

        monkeypatch.setattr(metrics, "aggregator_head", counted_head)
        faults = [FaultModel(kind, 0.0) for kind in ("none", "device", "communication",
                                                     "markov_comm")]
        grid = evaluate_policies(model, reps, rng.integers(5, size=n), graph, faults,
                                 list(POLICIES), [0, 4], seed=12, batch_size=16, trials=3)
        # 3 trials of 4 cells and 2 counts walk 5 slices 12 times: 5 head passes
        assert slices == [16, 16, 16, 16, 6]
        assert len(grid) == 4 and all(len(results) == 2 for results in grid)

    def test_rejects_bad_gossip_counts(self, trained_small):
        model, ds, part, graph = trained_small
        reps = client_encode(model, client_views(ds.features[:10], part))
        for counts in ([], [0, -1]):
            with pytest.raises(ConfigError, match="gossip round counts"):
                evaluate_policies(model, reps, ds.labels[:10], graph, [FaultModel("none")],
                                  ["active_rand"], counts, seed=0)

    def test_comm_mean_matches_expectation(self, trained_small):
        model, ds, part, graph = trained_small
        reps = client_encode(model, client_views(ds.features[-600:], part))
        res = evaluate_policies(model, reps, ds.labels[-600:], graph,
                                [FaultModel("communication", 0.3)], ["active_rand"], [0],
                                seed=5)[0][0]
        # 12 directed non-self edges alive w.p. 0.7
        assert abs(res.comm_mean - 12 * 0.7) < 1.5

    def test_rejects_bad_arguments(self, trained_small):
        model, ds, part, graph = trained_small
        reps = client_encode(model, client_views(ds.features, part))
        with pytest.raises(ConfigError):
            evaluate_policies(model, reps, ds.labels, graph,
                              [FaultModel("none")], ["oracle"], [0], seed=0)
        with pytest.raises(ConfigError):
            evaluate_policies(model, reps, ds.labels, graph,
                              [FaultModel("none")], ["active_rand"], [0], seed=0, trials=0)
        with pytest.raises(ConfigError, match="0.1004"):
            evaluate_policies(model, reps, ds.labels, graph,
                              [FaultModel("device", 0.1004)], ["active_rand"], [0], seed=0)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_rejects_batch_size_below_one(self, trained_small, batch_size):
        # 0 used to raise a bare ValueError, a negative size to score 0.0
        model, ds, part, graph = trained_small
        reps = client_encode(model, client_views(ds.features, part))
        with pytest.raises(ConfigError, match="batch size"):
            evaluate_policies(model, reps, ds.labels, graph, [FaultModel("none")],
                              ["active_rand"], [0], seed=0, batch_size=batch_size)

    def test_rejects_empty_labels(self, trained_small):
        # used to divide by zero
        model, ds, part, graph = trained_small
        reps = client_encode(model, client_views(ds.features[:0], part))
        with pytest.raises(InputError):
            evaluate_policies(model, reps, ds.labels[:0], graph, [FaultModel("none")],
                              ["active_rand"], [0], seed=0)


class TestEnsembleBenefit:
    def test_post_gossip_log_loss_never_exceeds_mean_member_loss(self, trained_small):
        # on a faultless complete graph one round reaches the exact geometric
        # mean, so the decomposition makes the inequality hold per sample
        model, ds, part, graph = trained_small
        from mags.data import one_hot
        reps = client_encode(model, [v[-300:] for v in client_views(ds.features, part)])
        labels = ds.labels[-300:]
        y = one_hot(labels, ds.class_count)
        realized = base(graph)[0]
        aggs, keep = delivery(realized, graph.aggregators)
        members, _ = aggregator_head(model, aggs, aggregate(reps, keep))
        assert mags_infer(members, aggs, realized, 0) is members
        ensemble = log_softmax(mags_infer(members, aggs, realized, 1))
        member_nll = (-(y * members).sum(axis=2)).mean(axis=0)
        ens_nll = -(y * ensemble).sum(axis=2)
        assert np.all(ens_nll <= member_nll + 1e-12)


class TestRiskBoundReport:
    def test_moderate_rate_respects_bound(self, trained_small):
        # all K aggregators die together under device faults w.p. r^K, and the
        # output is then a uniform guess, so the faulted 0-1 risk cannot drop
        # below (1 - r^K) * clean risk + r^K * (1 - 1/M). The 3-sigma margin
        # combines batch-level variance (one realization per batch, 7 batches
        # of up to 64) with sample-level variance.
        model, ds, part, graph = trained_small
        reps = client_encode(model, client_views(ds.features[-400:], part))

        def risk(fault):
            res = evaluate_policies(model, reps, ds.labels[-400:], graph, [fault],
                                    ["active_rand"], [0], seed=2)[0][0]
            return 1.0 - res.accuracy["active_rand"]

        rate, k, m = 0.3, len(graph.aggregators), model.class_count
        clean, faulted = risk(FaultModel("none")), risk(FaultModel("device", rate))
        catastrophic = rate ** k
        bound = (1.0 - catastrophic) * clean + catastrophic * (1.0 - 1.0 / m)
        sigma = np.sqrt(catastrophic * (1.0 - catastrophic) / 7
                        + max(faulted * (1.0 - faulted), 1e-12) / 400)
        assert k == 4
        assert faulted >= bound - 3.0 * sigma
