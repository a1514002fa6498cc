import dataclasses
import tracemalloc

import numpy as np
import pytest

from mags.certs import cert_ensemble_identity
from mags.data import client_views, make_splits, split_patches, synth_dataset
from mags.errors import ConfigError, InputError
from mags.faults import (FAULT_KIND_IDS, FaultModel, RealizedGraph, active_mask,
                         sample_comm_faults, sample_device_faults, sample_realization)
from mags.inference import (aggregate, aggregator_head, client_encode, delivery,
                            init_split_model, mags_infer, sample_major)
from mags.metrics import (POLICIES, count_comm, ensemble_decomposition, evaluate_policies,
                          score_policies)
from mags.nn import log_softmax
from mags.rng import stream
from mags.topology import build_graph
from mags.training import TrainConfig, fit

from helpers import per_batch_evaluate_policies, sampled_score_policies


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
    """Selection policy semantics, scored through evaluate_policies: each
    policy's exact expectation given the fault draw."""

    def test_all_correct_makes_every_policy_correct(self):
        graph = build_graph("complete", 3, 3)
        model = fixed_model(graph, 4, {1: 2, 2: 2, 3: 2})
        assert accuracy(model, graph, 2, 64) == {p: 1.0 for p in POLICIES}

    def test_one_right_one_wrong_is_a_fair_coin(self):
        # n = C = 2 active aggregators, one right: any_rand equals active_rand
        graph = build_graph("complete", 2, 2)
        acc = accuracy(fixed_model(graph, 4, {1: 2, 2: 0}), graph, 2, 64)
        assert acc == {"active_rand": 0.5, "active_best": 1.0, "active_worst": 0.0,
                       "any_rand": 0.5}

    def test_single_aggregator_oracles_coincide_with_rand(self):
        graph = build_graph("complete", 4, 1)
        model = fixed_model(graph, 4, {1: 3})
        oracles = ("active_rand", "active_best", "active_worst")
        assert all(accuracy(model, graph, 3, 64)[p] == 1.0 for p in oracles)
        assert all(accuracy(model, graph, 0, 64)[p] == 0.0 for p in oracles)
        # faulted: a batch that lost its aggregator scores 1/M under every policy
        acc = accuracy(model, graph, 3, 640, FaultModel("device", 0.5), batch_size=8)
        assert 0.0 < acc["active_rand"] < 1.0
        assert acc["active_best"] == acc["active_rand"] == acc["active_worst"]

    @pytest.mark.parametrize("n, batch_size", [(400, 40), (10, 4)])  # 10 of 4: a short batch
    def test_empty_active_set_is_uniform_guess(self, n, batch_size):
        graph = build_graph("complete", 4, 4)
        acc = accuracy(fixed_model(graph, 4), graph, 1, n, FaultModel("device", 1.0),
                       batch_size=batch_size)
        assert acc == {p: 0.25 for p in POLICIES}

    @pytest.mark.parametrize("n, batch_size", [(64, 64), (10, 4)])
    def test_any_rand_falls_back_on_inactive_pick(self, n, batch_size):
        # only device 1 is an active aggregator among 8 devices: correct
        # w.p. 1/8 (informed) + 7/8 * 1/4 (guess)
        graph = build_graph("complete", 8, 1)
        acc = accuracy(fixed_model(graph, 4, {1: 2}), graph, 2, n, batch_size=batch_size)
        assert acc["any_rand"] == 1 / 8 + (7 / 8) * (1 / 4)

    def test_conditional_selection_frequency_through_samplers(self):
        # given a nonempty active set A, each aggregator is picked w.p.
        # 1/|A|. Aggregator k predicts class k-1, so the active_rand
        # accuracy on label k-1 is the frequency of picking k; the fault
        # stream does not depend on the labels, so every label sees the
        # same draws. One realization per sample (batch size 1).
        graph = build_graph("complete", 4, 4)
        model = fixed_model(graph, 4)
        draws, fault = 3000, FaultModel("device", 0.3)
        freq = np.array([accuracy(model, graph, k - 1, draws, fault,
                                  batch_size=1, seed=6)["active_rand"] for k in range(1, 5)])
        realized = sample_realization(graph, fault, draws, 1,
                                      stream(6, "fault", FAULT_KIND_IDS["device"], 300))
        active = active_mask(realized, graph.aggregators)[:, 1:]
        # with K = M = 4 the empty-set guess also lands on each class w.p. 1/4
        law = np.where(active.any(axis=1, keepdims=True),
                       active / np.maximum(active.sum(axis=1, keepdims=True), 1), 0.25)
        assert freq == pytest.approx(law.mean(axis=0), abs=1e-12)
        assert freq.sum() == pytest.approx(1.0)


class TestScorePolicies:
    """``score_policies`` on hand-built batches: C devices, M classes."""

    @pytest.mark.parametrize("c, m, active, right, expected", [
        # (active devices, those right on the sample) -> rand, best, worst, any
        (4, 5, (), (), (0.2, 0.2, 0.2, 0.2)),                   # n = 0
        (4, 5, (1,), (1,), (1.0, 1.0, 1.0, (5 + 3) / 20)),      # n = 1: VFL
        (4, 5, (1,), (), (0.0, 0.0, 0.0, 3 / 20)),
        (4, 5, (1, 3), (3,), (0.5, 1.0, 0.0, (5 + 2) / 20)),
        (4, 5, (1, 2, 3, 4), (2, 4), (0.5, 1.0, 0.0, 0.5)),     # n = C
        (4, 5, (1, 2, 3, 4), (1, 2, 3, 4), (1.0,) * 4),
        (1, 2, (), (), (0.5,) * 4),                              # one device, dead
    ])
    def test_exact_values(self, c, m, active, right, expected):
        # one batch of three slots: the sample, a copy of it, and padding
        act = np.zeros((1, c + 1), dtype=bool)
        act[0, list(active)] = True
        correct = np.zeros((1, c + 1, 3), dtype=bool)
        correct[0, list(right), :] = True  # the padding's flags must not count
        valid = np.array([[True, True, False]])
        values = score_policies(correct, act, valid, m)
        for p, want in zip(("active_rand", "active_best", "active_worst", "any_rand"), expected):
            assert values[p].tolist() == [[want, want, 0.0]], p

    def test_orderings_per_sample(self):
        # best >= rand >= worst always; any_rand <= active_rand exactly
        # where s/n >= 1/M or n in {0, C}
        rng = np.random.default_rng(3)
        for c, m in ((1, 2), (3, 2), (4, 10), (16, 10)):
            correct = rng.random((500, c + 1, 6)) < rng.random((500, 1, 1))
            active = rng.random((500, c + 1)) < rng.random((500, 1))
            active[:, 0] = False
            v = score_policies(correct, active, np.ones((500, 6), dtype=bool), m)
            n = active.sum(axis=1)[:, None]
            s = (correct & active[:, :, None]).sum(axis=1)
            assert np.all(v["active_best"] >= v["active_rand"])
            assert np.all(v["active_rand"] >= v["active_worst"])
            beats_chance = (s * m >= n) | (n == 0) | (n == c)
            assert np.array_equal(v["any_rand"] <= v["active_rand"], beats_chance)
            assert np.array_equal(v["any_rand"] == v["active_rand"],
                                  (s * m == n) | (n == 0) | (n == c))

    def test_any_rand_above_active_rand_below_chance(self):
        # C = 4, M = 2: two active aggregators, both wrong. A pick of an
        # inactive device guesses right w.p. 1/2, one of the active is wrong
        correct = np.zeros((1, 5, 1), dtype=bool)
        active = np.array([[False, True, True, False, False]])
        values = score_policies(correct, active, np.ones((1, 1), dtype=bool), 2)
        assert values["active_rand"].item() == 0.0
        assert values["any_rand"].item() == 0.25

    def test_sampled_scorer_averages_to_the_expectation(self, trained_small, monkeypatch):
        # the sampled scorer over 300 selection seeds: its mean per cell
        # lies within 4 sigma of the expectation, sigma from the samples'
        # independent Bernoulli outcomes
        from mags import metrics
        model, ds, part, graph = trained_small
        labels = ds.labels[-300:]
        reps = client_encode(model, client_views(ds.features[-300:], part))
        cells = []

        def spy(correct, active, valid, classes):
            cells.append((correct, active, valid))
            return score_policies(correct, active, valid, classes)

        monkeypatch.setattr(metrics, "score_policies", spy)
        faults = [FaultModel(kind, rate) for kind in ("communication", "device")
                  for rate in (0.3, 0.7)]
        evaluate_policies(model, reps, labels, graph, faults, list(POLICIES), [0], seed=9,
                          batch_size=32, trials=2)
        m, c, seeds = model.class_count, graph.device_count, 300
        for correct, active, valid in cells:
            total = int(valid.sum())
            lab = np.full(valid.shape, -1)
            lab[valid] = np.tile(labels, 2)
            bounds = np.broadcast_to(np.maximum(active.sum(axis=1), 1)[:, None], valid.shape)
            expected = score_policies(correct, active, valid, m)
            sampled = dict.fromkeys(POLICIES, 0.0)
            for s in range(seeds):
                rng = np.random.default_rng(s)
                draws = np.zeros((3,) + valid.shape, dtype=np.int64)
                draws[:, valid] = (rng.integers(m, size=total), rng.integers(1, c + 1, size=total),
                                   rng.integers(bounds[valid]))
                for p, o in sampled_score_policies(correct, active, lab, *draws).items():
                    sampled[p] += o.sum() / total / seeds
            for p, e in expected.items():
                sigma = np.sqrt((e * (1.0 - e)).sum() / seeds) / total
                assert abs(sampled[p] - e.sum() / total) <= 4 * sigma + 1e-12, p


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
        # over its own chain, and the fault-free cells after the first are
        # handed its results: none of it may change a bit of any cell's
        # result. The grid starts at ``kind``, so a different cell is the
        # first fault-free one in each case.
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("trials", [1, 2])
    @pytest.mark.parametrize("counts", [(0,), (0, 2, 4)])
    @pytest.mark.parametrize("batch_size", [1, 16, 20])  # 48 samples: 20 leaves a short batch
    @pytest.mark.parametrize("kind,k", [("complete", 1), ("complete", 4), ("ring", 1),
                                        ("ring", 4), ("grid", 9)])
    def test_matches_the_per_batch_loop(self, kind, k, batch_size, counts, trials, dtype):
        # the stacked walk and the one scoring pass per (cell, count) against
        # the loop that scored each batch as it came, at its own size,
        # running only its alive heads; device faults at rate 1 leave every
        # batch without an alive aggregator, communication faults at 1
        # without an active one, and at 0.3 on the grid's 9 aggregators
        # batches that lost different aggregators stack in one head pass.
        # float32 is the dtype of a trained checkpoint, and a padded short
        # batch changes the row count of its matrix products
        c = 9 if kind == "grid" else 4
        graph = build_graph(kind, c, k)
        model = init_split_model(graph, [16] * c, 3, stream(5, "init"))
        model = dataclasses.replace(model, params=model.params.astype(dtype))
        rng = np.random.default_rng(13)
        n = 48
        reps = client_encode(model, rng.random((c, n, 16)).astype(dtype))
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

        def counted_head(model, agg_inputs):
            slices.append(agg_inputs.shape[::2])  # (batches, samples per batch)
            return aggregator_head(model, agg_inputs)

        monkeypatch.setattr(metrics, "aggregator_head", counted_head)
        faults = [FaultModel(kind, 0.0) for kind in ("none", "device", "communication",
                                                     "markov_comm")]
        grid = evaluate_policies(model, reps, rng.integers(5, size=n), graph, faults,
                                 list(POLICIES), [0, 4], seed=12, batch_size=16, trials=3)
        # the 4 fault-free cells make one walk over the 15 batches of 3
        # trials, each batch at full width (the short ones padded), and the
        # 3 later cells are handed the first one's results
        assert slices == [(8, 16), (7, 16)]
        assert len(grid) == 4 and all(results is grid[0] for results in grid)
        assert len(grid[0]) == 2

    def test_dead_aggregators_take_one_head_pass_per_chunk_of_batches(self, monkeypatch):
        # every head runs on every batch, so batches that lost different
        # aggregators stack: a device-fault cell makes one head pass per 8
        # batches, whichever devices died in them
        from mags import metrics
        graph = build_graph("complete", 4, 4)
        model = init_split_model(graph, [16] * 4, 3, stream(4, "init"))
        rng = np.random.default_rng(4)
        n, width = 120, 4  # 30 full batches
        reps = client_encode(model, rng.random((4, n, 16)))
        passes = []

        def counted_head(model, agg_inputs):
            passes.append(agg_inputs.shape[0])
            return aggregator_head(model, agg_inputs)

        monkeypatch.setattr(metrics, "aggregator_head", counted_head)
        fault = FaultModel("device", 0.3)
        evaluate_policies(model, reps, rng.integers(3, size=n), graph, [fault], list(POLICIES),
                          [0, 2], seed=6, batch_size=width)
        realized = sample_realization(graph, fault, n // width, 1,
                                      stream(6, "fault", FAULT_KIND_IDS["device"], 300))
        lost = ~realized.alive[:, 1:].all(axis=1)
        faulty = int(lost.sum())
        assert faulty > 8 and len({tuple(row) for row in realized.alive[lost]}) > 4
        assert not lost.all()
        assert passes == [8, 8, 8, 6]

    @pytest.mark.parametrize("kind", ["none", "device", "communication"])
    def test_peak_memory_grows_with_trials_only_by_the_scoring_arrays(self, kind):
        # each chunk of batches is scored and dropped before the next: from
        # 2 to 8 trials the peak grows by the per-sample scoring arrays
        # (labels, per-sample expectations), under 3 times what the
        # correctness array grows by (measured: 0.4, 2.2 and 1.9 times),
        # where keeping every batch's head inputs would add 128 KiB per batch
        graph = build_graph("complete", 16, 16)
        model = init_split_model(graph, [16] * 16, 10, stream(1, "init"))
        model = dataclasses.replace(model, params=model.params.astype(np.float32))
        rng = np.random.default_rng(2)
        n, width, counts = 256, 32, [0, 2, 4]
        reps = client_encode(model, rng.random((16, n, 16)).astype(np.float32))
        labels = rng.integers(10, size=n)
        fault = FaultModel(kind, 0.0 if kind == "none" else 0.3)
        peaks = []
        for trials in (2, 8):
            tracemalloc.start()
            evaluate_policies(model, reps, labels, graph, [fault], list(POLICIES), counts, seed=3,
                              batch_size=width, trials=trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        correct_growth = len(counts) * (8 - 2) * n * 17  # bool, (counts, batches, C+1, width)
        assert peaks[1] - peaks[0] < 3 * correct_growth

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
        alive, keep = delivery(realized, graph.aggregators)
        assert alive.all()
        members, _ = aggregator_head(model, aggregate(sample_major(reps), keep))
        assert mags_infer(members, graph.aggregators, realized, 0) is members
        ensemble = log_softmax(mags_infer(members, graph.aggregators, realized, 1))
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
