import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from mags.data import Dataset, client_views, make_splits, one_hot, split_patches, synth_dataset
from mags.errors import ConfigError
from mags.faults import FaultModel, sample_realization
from mags.inference import (SplitModel, aggregate, client_encode, delivery, fault_free_delivery,
                            gossip_mix, init_split_model, sample_major)
from mags.nn import (Mlp, adam_init, adam_update, init_mlp, log_softmax, mlp_forward, mlp_size,
                     stacked_mlp)
from mags.rng import stream
from mags.topology import build_graph
from mags.training import (TrainConfig, apply_cd_mask, apply_pd_mask, batch_delivery,
                           config_echo, evaluate_split, fit, load_checkpoint, save_checkpoint,
                           split_forward, split_loss_and_grads, train_epoch, optimizer_step)

from helpers import loss_and_grad, per_client_evaluate_split


def zero_heads(model):
    for w, b in model.head.layers:
        w[...] = 0.0
        b[...] = 0.0
    return model


def positions(model):
    """(encoder, head) stacks holding each parameter's index in ``params``."""
    return model.unflatten(np.arange(model.params.size))


def small_problem(n=120, g=2, classes=4, noise=0.2, seed=5):
    ds = synth_dataset(n, classes, g, seed=seed, noise=noise)
    part = split_patches(ds.feature_count, g)
    graph = build_graph("complete", g * g, g * g)
    return ds, part, graph


def fit_pool(cfg, ds, part, graph, split_seed, curve_path=None):
    """``fit`` with all of ``ds`` as the training pool, split by ``split_seed``."""
    return fit(cfg, client_views(ds.features, part), ds.labels, ds.class_count,
               make_splits(len(ds), split_seed), part, graph, curve_path=curve_path)


def per_batch_delivery(graph, cfg, batches, rng_dropout, rng_fault, dtype):
    """``batch_delivery``'s reference: one realization, one dropout mask and
    one gossip pair drawn per batch, then stacked over the batches."""
    keeps, alives, mixes = [], [], []
    for _ in range(batches):
        realized = sample_realization(graph, cfg.train_fault, 1, 1, rng_fault)[0]
        alive, keep = delivery(realized, graph.aggregators)
        if cfg.dropout == "pd":
            keep = keep & (rng_dropout.random(graph.device_count) >= cfg.dropout_rate)
        elif cfg.dropout == "cd":
            keep = keep & apply_cd_mask(1, graph.device_count, graph.aggregators,
                                        cfg.dropout_rate, rng_dropout)[0]
        keeps.append(keep)
        alives.append(alive)
        mixes.append(gossip_mix(realized.edge_alive[0], graph.aggregators, dtype))
    mix = tuple(np.stack(m) for m in zip(*mixes)) if cfg.gossip_rounds else None
    return np.stack(keeps), np.stack(alives), mix


class TestDropoutMasks:
    def test_pd_rate_zero_keeps_all(self):
        assert apply_pd_mask(3, 16, 0.0, stream(0, "dropout")).all()

    def test_pd_rate_one_drops_all(self):
        assert not apply_pd_mask(3, 16, 1.0, stream(0, "dropout")).any()

    def test_pd_binomial_mean(self):
        rng = stream(1, "dropout")
        draws = 20000
        total = int(apply_pd_mask(draws, 16, 0.3, rng).sum())
        band = 3 * np.sqrt(16 * 0.3 * 0.7 / draws)
        assert abs(total / draws - 11.2) <= band

    def test_cd_rate_zero_is_identity(self):
        aggs = tuple(range(1, 17))
        assert apply_cd_mask(3, 16, aggs, 0.0, stream(2, "dropout")).all()

    def test_cd_self_slot_never_dropped_at_rate_one(self):
        aggs = tuple(range(1, 17))
        keep = apply_cd_mask(3, 16, aggs, 1.0, stream(3, "dropout"))
        assert keep.shape == (3, 16, 16)
        for j, k in enumerate(aggs):
            assert keep[:, j, k - 1].all()
            assert (keep[:, j].sum(axis=1) == 1).all()

    def test_cd_expected_dropped_slots(self):
        # 240 non-self slots at rate 0.3 drop 72 in expectation
        aggs = tuple(range(1, 17))
        rng = stream(4, "dropout")
        draws = 20000
        dropped = 0
        for _ in range(draws):
            keep = apply_cd_mask(1, 16, aggs, 0.3, rng)
            dropped += 240 - (int(keep.sum()) - 16)
        band = 3 * np.sqrt(240 * 0.3 * 0.7 / draws)
        assert abs(dropped / draws - 72.0) <= band

    def test_pd_zeroes_own_head_slot_too(self):
        graph = build_graph("complete", 4, 4)
        cfg = TrainConfig(dropout="pd", dropout_rate=1.0)
        keep, alive, _ = batch_delivery(graph, cfg, 3, stream(5, "dropout"), stream(5, "fault"),
                                        np.float64)
        assert keep.shape == (3, 4, 4) and not keep.any()
        assert alive.shape == (3, 4) and alive.all()

    def test_base_adjacency_limits_delivery(self):
        # on a ring, an aggregator only ever receives from its two neighbors
        graph = build_graph("ring", 8, 8)
        cfg = TrainConfig(dropout="none", gossip_rounds=1)
        keep, _, (n, d) = batch_delivery(graph, cfg, 2, stream(6, "dropout"), stream(6, "fault"),
                                         np.float64)
        assert keep.sum() == 2 * 8 * 3
        assert n.sum() == 2 * 8 * 3 and (d == 3).all()

    def test_device_train_faults_keep_rows_follow_alive_aggregators(self):
        # row j of each batch's keep, alive mask and gossip pair belongs to
        # aggregator j+1, dead ones included; every device aggregates, so an
        # alive row keeps exactly the alive clients and links to the alive
        # aggregators, and a dead row keeps nothing and links only to itself
        graph = build_graph("complete", 4, 4)
        cfg = TrainConfig(train_fault=FaultModel("device", 0.5), gossip_rounds=1)
        keep, alive, (n, d) = batch_delivery(graph, cfg, 20, stream(7, "dropout"),
                                             stream(7, "fault"), np.float32)
        assert keep.shape == n.shape == (20, 4, 4) and alive.shape == (20, 4)
        assert n.dtype == d.dtype == np.float32  # the dtype asked for, the model's
        for keep_i, alive_i, n_i in zip(keep, alive, n):
            links = np.where(alive_i[:, None], alive_i[None, :] & alive_i[:, None],
                             np.eye(4, dtype=bool))
            assert np.array_equal(n_i, links)
            assert np.array_equal(keep_i, alive_i[:, None] & alive_i[None, :])
        assert ((0 < alive.sum(axis=1)) & (alive.sum(axis=1) < 4)).any()

    def test_train_fault_gossip_uses_realized_links(self):
        # at communication rate 1.0 no aggregator hears another, so gossip
        # must leave every head's loss as it is
        ds, part, graph = small_problem()
        model = init_split_model(graph, part.patch_dims(), ds.class_count, stream(9, "init"))
        views = client_views(ds.features[:16], part)
        y = one_hot(ds.labels[:16], ds.class_count)
        cfg = TrainConfig(train_fault=FaultModel("communication", 1.0), gossip_rounds=2)
        keep, alive, (n, d) = batch_delivery(graph, cfg, 1, stream(9, "dropout"),
                                             stream(9, "fault"), np.float64)
        assert np.array_equal(n[0], np.eye(4))
        loss0, _ = split_loss_and_grads(model, views, y, keep[0], alive[0], (n[0], d[0]), 0)
        loss2, _ = split_loss_and_grads(model, views, y, keep[0], alive[0], (n[0], d[0]), 2)
        assert loss2 == pytest.approx(loss0, rel=1e-12)

    @pytest.mark.parametrize("dropout", ["none", "pd", "cd"])
    def test_fault_free_base_gives_the_drawn_delivery(self, dropout):
        # without a train fault every batch gets the base graph's delivery
        # under its own dropout mask, no gossip pair unless the loss gossips, and
        # the fault stream stays untouched
        graph = build_graph("ring", 8, 5)
        cfg = TrainConfig(dropout=dropout, dropout_rate=0.4)
        base_alive, base_keep = fault_free_delivery(graph)
        assert base_alive.all()
        rd, rd_ref, rf = stream(10, "dropout"), stream(10, "dropout"), stream(10, "fault")
        keep, alive, mix = batch_delivery(graph, cfg, 5, rd, rf, np.float64)
        if dropout == "pd":
            mask = apply_pd_mask(5, 8, 0.4, rd_ref)[:, None, :]
        elif dropout == "cd":
            mask = apply_cd_mask(5, 8, graph.aggregators, 0.4, rd_ref)
        else:
            mask = True
        assert np.array_equal(alive, np.broadcast_to(base_alive, (5, 5)))
        assert keep.shape == (5, 5, 8)
        assert np.array_equal(keep, np.broadcast_to(base_keep & mask, keep.shape))
        assert mix is None
        gossiping = TrainConfig(dropout=dropout, dropout_rate=0.4, gossip_rounds=2)
        n, d = batch_delivery(graph, gossiping, 5, rd, rf, np.float64)[2]
        n_base, d_base = gossip_mix(graph.adj, graph.aggregators, np.float64)
        assert np.array_equal(n, np.broadcast_to(n_base, (5, 5, 5)))
        assert np.array_equal(d, np.broadcast_to(d_base, (5, 5, 1)))
        assert rf.random() == stream(10, "fault").random()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout,fault", [
        ("none", "none"), ("pd", "none"), ("cd", "none"),
        ("none", "device"), ("none", "communication"),
    ], ids=["none", "pd", "cd", "device", "communication"])
    def test_epoch_draw_is_one_draw_per_batch_bit_for_bit(self, dropout, fault, dtype):
        # each stream is used up batch by batch, so the epoch's draw holds
        # the bits of one draw per batch: keep, alive and the gossip pair
        graph = build_graph("ring", 8, 5)
        cfg = TrainConfig(dropout=dropout, dropout_rate=0.4, train_fault=FaultModel(fault, 0.4),
                          gossip_rounds=2)
        got = batch_delivery(graph, cfg, 7, stream(11, "dropout"), stream(11, "fault"), dtype)
        ref = per_batch_delivery(graph, cfg, 7, stream(11, "dropout"), stream(11, "fault"), dtype)
        assert got[2][0].dtype == got[2][1].dtype == dtype
        for a, b in zip((got[0], got[1], *got[2]), (ref[0], ref[1], *ref[2])):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dropout", ["cd", "pd"])
@pytest.mark.parametrize("kind", ["device", "communication"])
def test_dropout_with_train_fault_rejected(dropout, kind):
    # under a train fault the delivery comes from the fault draw, so the
    # dropout mask would never apply
    with pytest.raises(ConfigError, match=f"{dropout.upper()}- method.*{kind}"):
        TrainConfig(dropout=dropout, train_fault=FaultModel(kind, 0.3))


@pytest.mark.parametrize("lr", [0.0, -1e-3, float("inf"), float("nan")])
def test_learning_rate_must_be_finite_and_positive(lr):
    # an infinite rate used to pass, then make the second batch's logits NaN
    with pytest.raises(ConfigError, match="learning rate"):
        TrainConfig(lr=lr)


def test_markov_train_fault_rejected():
    # training draws one memoryless realization per batch; the Markov chain
    # has no such draw and used to fail only at the first batch
    with pytest.raises(ConfigError, match="markov_comm"):
        TrainConfig(train_fault=FaultModel("markov_comm", 0.3))


class TestSplitLossAndGrads:
    def test_zero_init_heads_loss_is_k_log_classes(self):
        ds, part, graph = small_problem()
        model = zero_heads(init_split_model(graph, part.patch_dims(), ds.class_count,
                                            stream(0, "init")))
        views = client_views(ds.features[:32], part)
        y = one_hot(ds.labels[:32], ds.class_count)
        keep = np.ones((4, 4), dtype=bool)
        loss, _ = split_loss_and_grads(model, views, y, keep, np.ones(4, dtype=bool))
        assert loss == pytest.approx(4 * np.log(ds.class_count), abs=1e-12)

    def test_full_cd_dropout_trains_heads_on_own_client_only(self):
        ds, part, graph = small_problem()
        model = init_split_model(graph, part.patch_dims(), ds.class_count, stream(1, "init"))
        views = client_views(ds.features[:8], part)
        y = one_hot(ds.labels[:8], ds.class_count)
        keep = apply_cd_mask(1, 4, graph.aggregators, 1.0, stream(7, "dropout"))[0]
        _, grad = split_loss_and_grads(model, views, y, keep, np.ones(4, dtype=bool))
        enc_grads, _ = model.unflatten(grad)
        # every encoder still learns (through its own head)
        for c in range(4):
            assert any(np.abs(gw[c]).sum() > 0 for gw, _ in enc_grads.layers)

    def test_dropped_slot_gets_no_gradient_path(self):
        ds, part, graph = small_problem()
        model = init_split_model(graph, part.patch_dims(), ds.class_count, stream(2, "init"))
        views = client_views(ds.features[:8], part)
        y = one_hot(ds.labels[:8], ds.class_count)
        keep = np.ones((4, 4), dtype=bool)
        keep[:, 2] = False  # client 3 unreachable everywhere
        _, grad = split_loss_and_grads(model, views, y, keep, np.ones(4, dtype=bool))
        enc_grads, _ = model.unflatten(grad)
        assert all(not gw[2].any() and not gb[2].any() for gw, gb in enc_grads.layers)
        assert all(gw[1].any() for gw, _ in enc_grads.layers)

    @pytest.mark.parametrize("alive_aggs", [[1, 2, 3, 4], [2, 4], []])
    def test_held_buffer_is_overwritten_whole(self, alive_aggs):
        # an epoch hands every batch one gradient buffer; whatever the last
        # batch left there, dead heads included, must not leak into this one
        ds, part, graph = small_problem()
        model = init_split_model(graph, part.patch_dims(), ds.class_count, stream(4, "init"))
        views = client_views(ds.features[:8], part)
        y = one_hot(ds.labels[:8], ds.class_count)
        alive = np.isin(graph.aggregators, alive_aggs)
        keep = np.repeat(alive[:, None], 4, axis=1)  # a dead aggregator's row keeps nothing
        fresh_loss, fresh = split_loss_and_grads(model, views, y, keep, alive)
        held = np.full_like(model.params, np.nan)
        loss, grad = split_loss_and_grads(model, views, y, keep, alive,
                                          out=dataclasses.replace(model, params=held))
        assert grad is held and loss == fresh_loss
        assert np.array_equal(held, fresh)
        _, heads = model.unflatten(held)
        assert all(not w[~alive].any() and not b[~alive].any() for w, b in heads.layers)

    @pytest.mark.parametrize("case", ["all-kept", "cd-dropped", "pd-dropped",
                                      "dead-aggregator", "gossip-2"])
    def test_held_gradient_views_give_a_fresh_calls_bits(self, case):
        # train_epoch's held gradient, as a SplitModel of views into one
        # NaN-filled buffer: every coordinate must be written, dead rows
        # with zeros, and with the bits of a fresh call
        ds, part, graph = small_problem()
        init = init_split_model(graph, part.patch_dims(), ds.class_count, stream(8, "init"))
        model = dataclasses.replace(init, params=init.params.astype(np.float32))
        views = client_views(ds.features[:16], part)
        y = one_hot(ds.labels[:16], ds.class_count)
        # device 2 dies in the dead-aggregator case, with every edge it had
        alive = np.array([True, case != "dead-aggregator", True, True])
        keep = alive[:, None] & alive[None, :]
        edge_alive = graph.adj & np.insert(alive, 0, True)[:, None] & np.insert(alive, 0, True)
        edge_alive[1, 3] = False
        if case == "cd-dropped":
            keep &= apply_cd_mask(1, 4, graph.aggregators, 0.5, stream(8, "dropout"))[0]
        elif case == "pd-dropped":
            keep &= apply_pd_mask(1, 4, 0.5, stream(8, "dropout"))
        assert keep.all() == (case in ("all-kept", "gossip-2"))
        mix = gossip_mix(edge_alive, graph.aggregators, model.params.dtype)
        args = (model, views, y, keep, alive, mix, 2 if case == "gossip-2" else 0)
        fresh_loss, fresh = split_loss_and_grads(*args)
        held = dataclasses.replace(model, params=np.full_like(model.params, np.nan))
        loss, grad = split_loss_and_grads(*args, out=held)
        assert grad is held.params and loss == fresh_loss
        assert not np.isnan(grad).any() and grad.tobytes() == fresh.tobytes()
        assert all(not w[~alive].any() and not b[~alive].any() for w, b in held.head.layers)

    @pytest.mark.parametrize("gossip_rounds", [0, 2])
    def test_dead_heads_get_positive_zero_rows_and_the_subset_bits(self, gossip_rounds):
        # every head runs and a dead one's output gradient is zeroed: against
        # a model that holds the alive heads alone, run on their rows and
        # gossip pair alone, the loss and every alive row match bit for bit
        graph = build_graph("ring", 9, 6)
        init = init_split_model(graph, [16] * 9, 5, stream(11, "init"))
        model = dataclasses.replace(init, params=init.params.astype(np.float32))
        rng = np.random.default_rng(11)
        views = rng.random((9, 12, 16)).astype(np.float32)
        y = one_hot(rng.integers(0, 5, 12), 5)
        realized = sample_realization(graph, FaultModel("device", 0.4), 1, 1,
                                      stream(11, "fault"))[0]
        alive, keep = delivery(realized, graph.aggregators)
        assert 0 < alive.sum() < 6
        mix = gossip_mix(realized.edge_alive[0], graph.aggregators, np.float32)
        loss, grad = split_loss_and_grads(model, views, y, keep, alive, mix, gossip_rounds)

        cut = 9 * mlp_size(model.encoder_dims)
        rows = np.flatnonzero(alive)
        aggs = tuple(graph.aggregators[j] for j in rows)
        heads = grad[cut:].reshape(6, -1)
        sub = SplitModel(np.concatenate([model.params[:cut],
                                         model.params[cut:].reshape(6, -1)[rows].ravel()]),
                         9, model.encoder_dims, aggs, model.head_dims)
        sub_loss, sub_grad = split_loss_and_grads(
            sub, views, y, keep[rows], np.ones(rows.size, dtype=bool),
            gossip_mix(realized.edge_alive[0], aggs, np.float32), gossip_rounds)
        assert np.float64(loss).tobytes() == np.float64(sub_loss).tobytes()
        assert grad[:cut].tobytes() == sub_grad[:cut].tobytes()
        assert heads[rows].tobytes() == sub_grad[cut:].tobytes()
        dead = heads[~alive]
        assert not dead.any() and not np.signbit(dead).any()

    @pytest.mark.parametrize("alive_aggs,dropped,gossip_rounds", [
        (list(range(1, 11)), False, 0),
        # nine of ten heads alive, with dropped deliveries, and gossip
        (list(range(1, 10)), True, 0),
        (list(range(1, 10)), True, 2),
    ], ids=["all-kept", "dropped-subset", "dropped-subset-gossip-2"])
    def test_stacked_forward_gives_each_sets_loss_bits(self, alive_aggs, dropped,
                                                       gossip_rounds):
        graph = build_graph("complete", 10, 10)
        model = init_split_model(graph, [4] * 10, 3, stream(5, "init"))
        rng = np.random.default_rng(5)
        views = rng.random((10, 6, 4))
        y = one_hot(rng.integers(0, 3, 6), 3)
        alive = np.isin(graph.aggregators, alive_aggs)
        keep = alive[:, None] & alive[None, :]  # a dead device reaches no head
        if dropped:
            keep[0, 3] = keep[4, 0] = keep[8, 7] = False
        edge_alive = graph.adj & np.insert(alive, 0, True)[:, None] & np.insert(alive, 0, True)
        edge_alive[alive_aggs[2], alive_aggs[5]] = edge_alive[alive_aggs[5], alive_aggs[1]] = False
        mix = gossip_mix(edge_alive, graph.aggregators, model.params.dtype)
        sets = model.params + 0.05 * rng.standard_normal((5, model.params.size))
        sets[0] = model.params
        args = (views, y, keep, alive, mix, gossip_rounds)
        losses, _ = split_forward(dataclasses.replace(model, params=sets), *args)
        assert losses.shape == (5,)
        for s, params in enumerate(sets):
            loss, _ = split_loss_and_grads(dataclasses.replace(model, params=params), *args)
            assert type(loss) is float and losses[s] == loss
            assert np.float64(loss).tobytes() == losses[s].tobytes()
        if not gossip_rounds:
            # the heads' losses add up left to right, as Python's sum adds
            # them: over nine heads or more, a pairwise sum would show
            heads = [split_loss_and_grads(model, views, y, keep, np.arange(10) == j)[0]
                     for j in np.flatnonzero(alive)]
            assert losses[0] == sum(heads)

    def test_gradients_match_finite_differences_with_mask(self):
        graph = build_graph("complete", 2, 2)
        model = init_split_model(graph, [4, 4], 3, stream(3, "init"))
        rng = np.random.default_rng(0)
        views = [rng.random((5, 4)), rng.random((5, 4))]
        y = one_hot(rng.integers(0, 3, 5), 3)
        keep = np.array([[True, False], [True, True]])

        def loss_of():
            val, _ = split_loss_and_grads(model, views, y, keep, np.ones(2, dtype=bool))
            return val

        _, grad = split_loss_and_grads(model, views, y, keep, np.ones(2, dtype=bool))
        worst = 0.0
        h = 1e-5
        params = model.params
        for i in range(params.size):  # every encoder and head coordinate
            orig = params[i]
            params[i] = orig + h
            up = loss_of()
            params[i] = orig - h
            down = loss_of()
            params[i] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-3))
        assert worst < 1e-6

    @pytest.mark.parametrize("kind,devices,aggregators,fault", [
        ("complete", 2, 2, FaultModel()),
        # links 1-2-3 form a path with degrees 2, 3, 2: an asymmetric averaging
        # matrix, so a transposed backward pass would fail here
        ("ring", 4, 3, FaultModel()),
        # a one-way link: the link mask itself is asymmetric, so a backward
        # pass that used N for its transpose would fail here
        ("complete", 3, 3, FaultModel("communication", 0.3)),
    ], ids=["complete-2-2", "ring-4-3", "complete-3-3-one-way-link"])
    def test_gossip_in_training_gradients_match_finite_differences(self, kind, devices,
                                                                   aggregators, fault):
        graph = build_graph(kind, devices, aggregators)
        model = init_split_model(graph, [4] * devices, 3, stream(4, "init"))
        rng = np.random.default_rng(1)
        views = [rng.random((4, 4)) for _ in range(devices)]
        y = one_hot(rng.integers(0, 3, 4), 3)
        cfg = TrainConfig(gossip_rounds=2, train_fault=fault)
        keep, alive, (n, d) = batch_delivery(graph, cfg, 1, stream(4, "dropout"),
                                             stream(4, "fault"), np.float64)
        keep, alive, mix = keep[0], alive[0], (n[0], d[0])
        n, d = mix
        if fault.kind == "none":
            assert d.ravel().tolist() == ([2, 2] if kind == "complete" else [2, 3, 2])
        else:
            assert alive.all() and not np.array_equal(n, n.T)

        def loss_of():
            val, _ = split_loss_and_grads(model, views, y, keep, alive, mix, 2)
            return val

        _, grad = split_loss_and_grads(model, views, y, keep, alive, mix, 2)
        # the weights of client 1's encoder and aggregator 2's head
        enc_pos, head_pos = positions(model)
        coords = np.concatenate([w[0].ravel() for w, _ in enc_pos.layers]
                                + [w[1].ravel() for w, _ in head_pos.layers])
        h = 1e-5
        worst = 0.0
        params = model.params
        for i in coords:
            orig = params[i]
            params[i] = orig + h
            up = loss_of()
            params[i] = orig - h
            down = loss_of()
            params[i] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-3))
        assert worst < 1e-6


class TestTrainEpoch:
    def test_single_client_matches_monolithic_oracle(self):
        # C=1, K=1, no dropout: the split step must track plain Adam training
        # of the composed MLP batch for batch
        graph = build_graph("complete", 1, 1)
        rng = np.random.default_rng(2)
        n = 64
        x = rng.random((n, 16))
        labels = rng.integers(0, 3, n).astype(np.int64)
        y = one_hot(labels, 3)

        model = init_split_model(graph, [16], 3, stream(7, "init"))
        cfg = TrainConfig(epochs=1, batch_size=16, seed=7)
        opt = adam_init(model.params, cfg.lr, cfg.beta1, cfg.beta2)

        oracle_rng = stream(7, "init")
        layers = init_mlp((16, 4, 2), oracle_rng).layers + init_mlp((2, 2, 3), oracle_rng).layers
        mono_params = np.concatenate([a.ravel() for layer in layers for a in layer])
        mono = stacked_mlp(mono_params, 1, (16, 4, 2, 2, 3)).take(0)  # views, one group
        mono_state = adam_init(mono_params, cfg.lr, cfg.beta1, cfg.beta2)

        order = stream(7, "data").permutation(n)
        keep = np.ones((1, 1), dtype=bool)
        for start in range(0, n, 16):
            idx = order[start:start + 16]
            split_loss, grad = split_loss_and_grads(
                model, [x[idx]], y[idx], keep, np.ones(1, dtype=bool))
            mono_loss, mono_grads = loss_and_grad(mono, x[idx], y[idx])
            assert split_loss == pytest.approx(mono_loss, abs=1e-12)
            optimizer_step(model, opt, grad)
            adam_update(mono_params,
                        np.concatenate([a.ravel() for layer in mono_grads for a in layer]),
                        mono_state)
        # encoder layers then head layers: the composed MLP's parameter order
        composed = [(w[0], b[0]) for w, b in model.encoder.layers + model.head.layers]
        for (w, b), (w2, b2) in zip(composed, mono.layers):
            assert np.allclose(w, w2, atol=1e-12)
            assert np.allclose(b, b2, atol=1e-12)

    def test_mean_loss_is_sample_weighted(self):
        ds, part, graph = small_problem(n=50)
        model = init_split_model(graph, part.patch_dims(), ds.class_count, stream(8, "init"))
        cfg = TrainConfig(epochs=1, batch_size=32, seed=8)
        opt = adam_init(model.params, cfg.lr, cfg.beta1, cfg.beta2)
        views = client_views(ds.features, part)
        y = one_hot(ds.labels, ds.class_count)
        loss = train_epoch(model, opt, views, np.arange(len(ds)), y, graph, cfg,
                           stream(8, "data"), stream(8, "dropout"), stream(8, "fault"))
        assert np.isfinite(loss) and loss > 0


class TestFit:
    @pytest.mark.parametrize("dropout,gossip,fault", [
        ("none", 0, "none"), ("cd", 2, "none"), ("pd", 2, "none"),
        ("none", 2, "device"), ("none", 2, "communication"),
    ], ids=["none", "cd-gossip", "pd-gossip", "device-gossip", "communication-gossip"])
    def test_epoch_draw_trains_as_one_draw_per_batch(self, tmp_path, monkeypatch,
                                                     dropout, gossip, fault):
        # one sample_realization per epoch, batch i trains on entry i, and
        # the checkpoint and curve are those of drawing every batch's
        # delivery on its own; the training split ends in a short batch
        from mags import training
        ds, part, _ = small_problem(n=100)
        assert len(make_splits(len(ds), 4)[0]) % 24 != 0
        graph = build_graph("ring", 4, 3)
        cfg = TrainConfig(epochs=2, batch_size=24, seed=4, dropout=dropout,
                          gossip_rounds=gossip, train_fault=FaultModel(fault, 0.3))
        real_sample, real_loss = training.sample_realization, training.split_loss_and_grads
        draws, trained = [], []

        def counted(*args):
            draws.append(args[2])
            return real_sample(*args)

        def recorded(model, views, y, keep, alive, mix, *args, **kwargs):
            trained.append((keep, alive, mix))
            return real_loss(model, views, y, keep, alive, mix, *args, **kwargs)

        monkeypatch.setattr(training, "sample_realization", counted)
        monkeypatch.setattr(training, "split_loss_and_grads", recorded)
        epoch = fit_pool(cfg, ds, part, graph, 4, curve_path=tmp_path / "epoch.csv")
        assert len(draws) == cfg.epochs and len(set(draws)) == 1 and draws[0] > 1
        assert len(trained) == sum(draws)
        keep, alive, mix = per_batch_delivery(graph, cfg, len(trained), stream(4, "dropout"),
                                              stream(4, "fault"), np.float32)
        for i, got in enumerate(trained):
            want = (keep[i], alive[i]) + ((mix[0][i], mix[1][i]) if mix else ())
            got = got[:2] + (got[2] or ())
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        monkeypatch.setattr(training, "split_loss_and_grads", real_loss)

        monkeypatch.setattr(training, "batch_delivery", per_batch_delivery)
        per_batch = fit_pool(cfg, ds, part, graph, 4, curve_path=tmp_path / "per-batch.csv")
        assert epoch.model.params.tobytes() == per_batch.model.params.tobytes()
        assert (epoch.best_val_loss, epoch.best_epoch) == (per_batch.best_val_loss,
                                                           per_batch.best_epoch)
        assert (tmp_path / "epoch.csv").read_bytes() == (tmp_path / "per-batch.csv").read_bytes()

    def test_zero_epochs_returns_initial_params(self):
        # fit trains the float32 rounding of the float64 init draw
        ds, part, graph = small_problem()
        cfg = TrainConfig(epochs=0, seed=3)
        ckpt = fit_pool(cfg, ds, part, graph, 1)
        fresh = init_split_model(graph, part.patch_dims(), ds.class_count, stream(3, "init"))
        assert fresh.params.dtype == np.float64 and ckpt.model.params.dtype == np.float32
        assert np.array_equal(ckpt.model.params, fresh.params.astype(np.float32))
        assert ckpt.best_epoch == 0

    def test_separable_data_reaches_high_accuracy(self):
        ds, part, graph = small_problem(n=1000, noise=0.0)
        ckpt = fit_pool(TrainConfig(epochs=5, seed=2, batch_size=32), ds, part, graph, 2)
        _, va = make_splits(len(ds), 2)
        _, acc = evaluate_split(ckpt.model, client_views(ds.features, part), ds.labels, graph, va)
        assert acc > 0.99

    def test_smoothed_loss_non_increasing_on_separable_data(self, tmp_path):
        ds, part, graph = small_problem(n=400, noise=0.0)
        curve = tmp_path / "curve.csv"
        fit_pool(TrainConfig(epochs=8, seed=4), ds, part, graph, 4, curve_path=curve)
        rows = curve.read_text().splitlines()[1:]
        losses = [float(r.split(",")[1]) for r in rows]
        smooth = np.convolve(losses, np.ones(3) / 3, mode="valid")
        assert all(b <= a + 1e-6 for a, b in zip(smooth[2:], smooth[3:]))

    def test_same_seed_gives_byte_identical_checkpoints(self, tmp_path):
        ds, part, graph = small_problem(n=150)
        cfg = TrainConfig(epochs=2, seed=5, dropout="cd", dropout_rate=0.3)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(fit_pool(cfg, ds, part, graph, 5), p1)
        save_checkpoint(fit_pool(TrainConfig(epochs=2, seed=5, dropout="cd", dropout_rate=0.3),
                                 ds, part, graph, 5), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("cfg", [
        TrainConfig(epochs=2, seed=12, batch_size=16, dropout="cd", dropout_rate=0.3),
        TrainConfig(epochs=2, seed=13, batch_size=16, dropout="pd", gossip_rounds=2),
        TrainConfig(epochs=2, seed=14, batch_size=16, gossip_rounds=1,
                    train_fault=FaultModel("device", 0.3)),
    ], ids=["cd", "pd-gossip", "device-fault-gossip"])
    def test_row_index_fit_matches_a_copied_split(self, tmp_path, cfg):
        # reference: copy the split out of the pool and rebuild its views,
        # train rows first; its rows are then 0..n_train-1 and the rest
        ds, part, _ = small_problem(n=150)
        graph = build_graph("ring", 4, 3)
        tr, va = make_splits(len(ds), 3)
        copied = np.concatenate([ds.features[tr], ds.features[va]])
        ref_split = np.arange(len(tr)), np.arange(len(tr), len(ds))
        ref = fit(cfg, client_views(copied, part), np.concatenate([ds.labels[tr], ds.labels[va]]),
                  ds.class_count, ref_split, part, graph, curve_path=tmp_path / "ref.csv")
        got = fit_pool(cfg, ds, part, graph, 3, curve_path=tmp_path / "got.csv")
        save_checkpoint(ref, tmp_path / "ref.ckpt")
        save_checkpoint(got, tmp_path / "got.ckpt")
        assert (tmp_path / "ref.ckpt").read_bytes() == (tmp_path / "got.ckpt").read_bytes()
        assert (tmp_path / "ref.csv").read_bytes() == (tmp_path / "got.csv").read_bytes()
        assert np.array_equal(ref.model.params, got.model.params)

    def test_training_ignores_fault_stream_when_faultless(self):
        # a rate-0 device fault model consumes the fault stream but must not
        # change the learned parameters
        ds, part, graph = small_problem(n=150)
        a = fit_pool(TrainConfig(epochs=2, seed=6), ds, part, graph, 6)
        b = fit_pool(TrainConfig(epochs=2, seed=6, train_fault=FaultModel("device", 0.0)),
                     ds, part, graph, 6)
        assert np.array_equal(a.model.params, b.model.params)

    def test_best_checkpoint_not_worse_than_final_epoch(self):
        ds, part, graph = small_problem(n=200, noise=0.4)
        ckpt = fit_pool(TrainConfig(epochs=6, seed=7), ds, part, graph, 7)
        tr, va = make_splits(len(ds), 7)
        final_loss, _ = None, None
        # retrain to recover the final-epoch model
        model = init_split_model(graph, part.patch_dims(), ds.class_count, stream(7, "init"))
        cfg = TrainConfig(epochs=6, seed=7)
        opt = adam_init(model.params, cfg.lr, cfg.beta1, cfg.beta2)
        y = one_hot(ds.labels[tr], ds.class_count)
        pool_views = client_views(ds.features, part)
        rd, rdo, rf = stream(7, "data"), stream(7, "dropout"), stream(7, "fault")
        for _ in range(6):
            train_epoch(model, opt, pool_views, tr, y, graph, cfg, rd, rdo, rf)
        final_loss, _ = evaluate_split(model, pool_views, ds.labels, graph, va)
        assert ckpt.best_val_loss <= final_loss + 1e-12

    def test_real_train_faults_run(self):
        ds, part, graph = small_problem(n=100)
        cfg = TrainConfig(epochs=1, seed=8, train_fault=FaultModel("device", 0.5))
        ckpt = fit_pool(cfg, ds, part, graph, 8)
        assert np.isfinite(ckpt.best_val_loss)

    def test_gossip_in_training_flag(self):
        ds, part, graph = small_problem(n=100)
        a = fit_pool(TrainConfig(epochs=1, seed=9), ds, part, graph, 9)
        b = fit_pool(TrainConfig(epochs=1, seed=9, gossip_rounds=2), ds, part, graph, 9)
        assert not np.array_equal(a.model.head.layers[0][0][0], b.model.head.layers[0][0][0])

    def test_empty_validation_rejected(self):
        ds, part, graph = small_problem(n=40)
        split = np.arange(len(ds)), np.zeros(0, dtype=np.intp)
        with pytest.raises(Exception):
            fit(TrainConfig(epochs=1), client_views(ds.features, part), ds.labels,
                ds.class_count, split, part, graph)


class TestEvaluateSplit:
    @pytest.mark.parametrize("kind,devices,aggregators", [
        ("complete", 16, 16), ("complete", 16, 1), ("ring", 4, 3)])
    def test_one_head_pass_gives_the_per_aggregator_loss_bits(self, kind, devices,
                                                              aggregators):
        # reference: one head at a time, loss and hits summed per (chunk,
        # aggregator) in the same order
        graph = build_graph(kind, devices, aggregators)
        g = int(np.sqrt(devices))
        ds = synth_dataset(1100, 5, g, seed=2, noise=0.3)
        part = split_patches(ds.feature_count, g)
        model = init_split_model(graph, part.patch_dims(), 5, stream(6, "init"))
        views = client_views(ds.features, part)
        keep = fault_free_delivery(graph)[1]
        y = one_hot(ds.labels, 5)
        loss_sum, hit_sum = 0.0, 0.0
        for start in range(0, len(ds), 512):
            sl = slice(start, min(start + 512, len(ds)))
            reps = client_encode(model, views[:, sl])
            for j in range(aggregators):
                out, _ = mlp_forward(model.head.take(slice(j, j + 1)),
                                     aggregate(sample_major(reps), keep[j:j + 1]))
                (lp,) = log_softmax(out)
                loss_sum += float(-(y[sl] * lp).sum())
                hit_sum += float((lp.argmax(axis=1) == ds.labels[sl]).sum())
        loss, acc = evaluate_split(model, views, ds.labels, graph, np.arange(len(ds)))
        assert loss == loss_sum / len(ds)
        assert acc == hit_sum / (len(ds) * aggregators)

    @pytest.mark.parametrize("g", [2, 4])
    def test_stacked_encoders_give_the_per_client_loss_bits(self, g):
        # 1100 rows: two whole 512-row chunks and a partial one
        graph = build_graph("complete", g * g, g * g)
        ds = synth_dataset(1100, 5, g, seed=3, noise=0.3)
        part = split_patches(ds.feature_count, g)
        init = init_split_model(graph, part.patch_dims(), 5, stream(9, "init"))
        model = dataclasses.replace(init, params=init.params.astype(np.float32))
        views = client_views(ds.features, part)
        rows = np.random.default_rng(g).permutation(len(ds))
        loss, acc = evaluate_split(model, views, ds.labels, graph, rows)
        ref_loss, ref_acc = per_client_evaluate_split(model, views, ds.labels, graph, rows)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert acc == ref_acc

    def test_rows_of_the_pool_score_like_their_gathered_views(self):
        # 600 validation rows: a whole 512-row chunk and a partial one
        ds, part, graph = small_problem(n=3000)
        model = init_split_model(graph, part.patch_dims(), ds.class_count, stream(4, "init"))
        views = client_views(ds.features, part)
        _, va = make_splits(len(ds), 4)
        assert len(va) == 600
        assert (evaluate_split(model, views, ds.labels, graph, va)
                == evaluate_split(model, views[:, va], ds.labels[va], graph, np.arange(len(va))))

    def test_fit_holds_no_copy_of_the_validation_views(self):
        # fit used to copy views[:, val_rows], a (C, n_val, d) array, once
        # per fit; validation now gathers one 512-row chunk at a time
        n, g = 10000, 4
        rng = np.random.default_rng(0)
        views = rng.random((g * g, n, 49))
        labels = rng.integers(0, 10, n)
        part = split_patches(784, g)
        graph = build_graph("complete", g * g, 1)
        split = make_splits(n, 1)
        copy_bytes = views.shape[0] * len(split[1]) * views.shape[2] * views.itemsize
        tracemalloc.start()
        try:
            fit(TrainConfig(epochs=1, seed=1), views, labels, 10, split, part, graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < copy_bytes, (peak, copy_bytes)


def arrays_in(obj):
    """Every array in an argument: an array, an Mlp's layers or a tape."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, Mlp):
        yield from arrays_in(obj.layers)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from arrays_in(item)


@pytest.fixture
def engine_dtypes(monkeypatch):
    """Wrap each module's ``mlp_forward``, ``mlp_backward`` and
    ``log_softmax``; the returned dict maps each name to the set of dtypes
    of the arrays passed to it."""
    from mags import certs, inference, metrics, nn, training
    seen = {}
    for name in ("mlp_forward", "mlp_backward", "log_softmax"):
        real = getattr(nn, name)

        def wrapper(*args, _real=real, _name=name, **kwargs):
            seen.setdefault(_name, set()).update(a.dtype for a in arrays_in(args))
            return _real(*args, **kwargs)

        for module in (certs, inference, metrics, training):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    return seen


class TestPrecision:
    """Training and inference run in float32 from end to end; the gradient
    certificate stays float64."""

    def test_fit_under_cd_dropout_and_training_gossip_stays_float32(self, engine_dtypes):
        ds, part, graph = small_problem(n=80)
        cfg = TrainConfig(epochs=1, batch_size=16, seed=3, dropout="cd", gossip_rounds=2)
        ckpt = fit_pool(cfg, ds, part, graph, 3)
        assert ckpt.model.params.dtype == np.float32
        assert engine_dtypes == {name: {np.dtype(np.float32)}
                                 for name in ("mlp_forward", "mlp_backward", "log_softmax")}

    def test_fit_on_float64_views_trains_on_their_float32_rounding(self, engine_dtypes,
                                                                   tmp_path):
        # float64 views hold the raw features; each batch and validation
        # chunk is rounded to the float32 parameters as it is gathered
        ds, part, graph = small_problem(n=80)
        wide = client_views(ds.features, part,
                            out=np.empty((4, len(ds), ds.feature_count // 4)))
        narrow = wide.astype(np.float32)
        assert wide.dtype == np.float64 and not np.array_equal(wide, narrow)
        cfg = TrainConfig(epochs=2, batch_size=16, seed=3, dropout="cd")
        split = make_splits(len(ds), 3)
        paths = []
        for views in (wide, narrow):
            ckpt = fit(cfg, views, ds.labels, ds.class_count, split, part, graph,
                       curve_path=tmp_path / f"{views.dtype}-curve.csv")
            if views is wide:
                assert engine_dtypes == {name: {np.dtype(np.float32)} for name in
                                         ("mlp_forward", "mlp_backward", "log_softmax")}
            paths.append(tmp_path / f"{views.dtype}.ckpt")
            save_checkpoint(ckpt, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert ((tmp_path / "float64-curve.csv").read_bytes()
                == (tmp_path / "float32-curve.csv").read_bytes())

    def test_gossip_eval_cell_under_markov_faults_stays_float32(self, engine_dtypes,
                                                                monkeypatch):
        from mags import metrics
        ds, part, graph = small_problem(n=100)
        init = init_split_model(graph, part.patch_dims(), ds.class_count, stream(2, "init"))
        model = dataclasses.replace(init, params=init.params.astype(np.float32))
        reps = client_encode(model, client_views(ds.features, part))
        finals = set()
        real_infer = metrics.mags_infer

        def infer(*args, **kwargs):
            out = real_infer(*args, **kwargs)
            finals.add(out.dtype)
            return out

        monkeypatch.setattr(metrics, "mags_infer", infer)
        metrics.evaluate_policies(model, reps, ds.labels, graph, [FaultModel("markov_comm", 0.3)],
                                  metrics.POLICIES, [4], seed=1, batch_size=16)
        assert reps.dtype == np.float32 and finals == {np.dtype(np.float32)}
        assert engine_dtypes == {name: {np.dtype(np.float32)}
                                 for name in ("mlp_forward", "log_softmax")}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_desk_batch_gradient_matches_its_float64_recomputation(self, seed):
        # one desk-sized batch: 16 clients, 10 classes, 64 samples, CD
        # dropout at 0.3; measured, the float32 gradient's norm-wise
        # relative error is 1.4e-7 to 1.8e-7, of the order of float32's
        # epsilon (1.2e-7); the bound leaves a factor of about 60
        ds = synth_dataset(64, 10, 4, seed=7 + seed, noise=0.3)
        part = split_patches(ds.feature_count, 4)
        graph = build_graph("complete", 16, 16)
        init = init_split_model(graph, part.patch_dims(), 10, stream(seed, "init"))
        model = dataclasses.replace(init, params=init.params.astype(np.float32))
        views, y = client_views(ds.features, part), one_hot(ds.labels, 10)
        keep = apply_cd_mask(1, 16, graph.aggregators, 0.3, stream(seed, "dropout"))[0]
        alive = np.ones(16, dtype=bool)
        loss, grad = split_loss_and_grads(model, views, y, keep, alive)
        wide = dataclasses.replace(model, params=model.params.astype(np.float64))
        loss64, grad64 = split_loss_and_grads(wide, views.astype(np.float64), y, keep, alive)
        assert grad.dtype == np.float32 and grad64.dtype == np.float64
        assert abs(loss - loss64) <= 1e-6 * abs(loss64)
        assert np.linalg.norm(grad - grad64) <= 1e-5 * np.linalg.norm(grad64)
        assert np.abs(grad - grad64).max() <= 1e-5 * np.abs(grad64).max()

    def test_gradient_certificate_runs_in_float64(self, monkeypatch):
        from mags import certs
        seen = set()

        def spy(real):
            def wrapper(model, views, *args, **kwargs):
                seen.update((model.params.dtype, views.dtype))
                return real(model, views, *args, **kwargs)
            return wrapper

        for name in ("split_forward", "split_loss_and_grads"):
            monkeypatch.setattr(certs, name, spy(getattr(certs, name)))
        assert certs.cert_gradient_check(seed=0, tol=1e-6).passed
        assert seen == {np.dtype(np.float64)}


class CheckedBiasSums:
    """numpy as ``nn`` sees it, except that each ``einsum`` bias sum is
    checked against ``np.sum(d, axis=-2)`` bit for bit; ``layouts`` holds
    each summed array's shape, strides and dtype, and the strides of the
    view it was written into (None for a fresh result)."""

    def __init__(self):
        self.layouts = set()

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, subscripts, d, out=None):
        result = np.einsum(subscripts, d, out=out)
        assert result.tobytes() == np.sum(d, axis=-2).tobytes(), (d.shape, d.strides, d.dtype)
        self.layouts.add((d.shape, d.strides, d.dtype.str,
                          None if out is None else out.strides))
        return result


class TestSummationOrder:
    """The backward pass's bias sums and the forward pass's head-loss sum
    add in a fixed order: a numpy whose einsum or cumsum adds otherwise
    changes every checkpoint, and fails here first."""

    @pytest.fixture
    def bias_sums(self, monkeypatch):
        from mags import nn
        checked = CheckedBiasSums()
        monkeypatch.setattr(nn, "np", checked)
        return checked.layouts

    @pytest.mark.parametrize("aggregators, dropout, train_fault, gossip", [
        (1, "none", "none", 0),   # VFL
        (16, "none", "none", 0),  # MACL
        (16, "cd", "none", 0),    # CD-MACL
        (16, "none", "device", 2),  # dead heads: their zero rows written like the others
    ], ids=["VFL", "MACL", "CD-MACL", "device-faults-gossip"])
    def test_desk_batches_sum_their_bias_gradients_in_row_order(self, bias_sums, aggregators,
                                                               dropout, train_fault, gossip):
        # desk shapes: 16 clients of 49 pixels, 10 classes, batches of 64,
        # then a short batch of 32
        ds = synth_dataset(120, 10, 4, seed=7, noise=0.3)
        part = split_patches(ds.feature_count, 4)
        graph = build_graph("complete", 16, aggregators)
        fault = FaultModel(train_fault, 0.0 if train_fault == "none" else 0.4)
        cfg = TrainConfig(epochs=1, batch_size=64, seed=2, dropout=dropout, train_fault=fault,
                          gossip_rounds=gossip)
        fit_pool(cfg, ds, part, graph, 3)
        # the encoders' layers are 16 and 4 wide, the heads' 64 and 10
        assert {shape[-1] for shape, *_ in bias_sums} == {16, 4, 64, 10}
        assert {shape[-2] for shape, *_ in bias_sums} == {64, 32}
        assert {dtype for _, _, dtype, _ in bias_sums} == {"<f4"}
        # written into the held gradient's strided views, dead heads too
        assert {out is None for *_, out in bias_sums} == {False}

    def test_gradient_certificate_sums_its_float64_bias_gradients_in_row_order(self,
                                                                              bias_sums):
        from mags import certs
        assert certs.cert_gradient_check(seed=0, tol=1e-6).passed
        assert {dtype for _, _, dtype, _ in bias_sums} == {"<f8"}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(6))
    def test_head_losses_add_left_to_right_in_float64(self, dtype, seed):
        # 0 to 16 alive heads, one parameter vector or a stack of three
        rng = np.random.default_rng(seed)
        graph = build_graph("complete", 16, 16)
        model = init_split_model(graph, [4] * 16, 5, stream(seed, "init"))
        alive = np.isin(np.arange(16), rng.choice(16, size=[0, 16, 9, 3, 1, 12][seed],
                                                 replace=False))
        views = rng.random((16, 9, 4)).astype(dtype)
        y = one_hot(rng.integers(0, 5, 9), 5)
        keep = (rng.random((16, 16)) < 0.8) & alive[:, None]
        sets = (model.params + 0.1 * rng.standard_normal((3, model.params.size))).astype(dtype)
        for params in (sets[0], sets):
            loss, forward = split_forward(dataclasses.replace(model, params=params), views, y,
                                          keep, alive)
            heads = -(y * forward[3]).sum(axis=(-2, -1)) / y.shape[0]
            expected = np.zeros(params.shape[:-1])
            for j in np.flatnonzero(alive):  # the alive heads alone
                expected = expected + heads[..., j]
            assert loss.dtype == np.float64 and loss.shape == params.shape[:-1]
            assert loss.tobytes() == np.asarray(expected).tobytes()


def json_cut_and_rehashed(raw):
    """Checkpoint bytes ``raw`` with the config JSON's last character cut and
    the hash line rewritten to match, so only the JSON itself is broken."""
    lines = raw.split(b"\n")
    cfg = lines[1][:-1]
    lines[2] = b"config_hash " + hashlib.sha256(cfg[len(b"config "):]).hexdigest().encode()
    return b"\n".join([lines[0], cfg, *lines[2:]])


class TestCheckpointFormat:
    def make_ckpt(self, tmp_path, seed=11):
        ds, part, graph = small_problem(n=80)
        ckpt = fit_pool(TrainConfig(epochs=1, seed=seed), ds, part, graph, seed)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        _, va = make_splits(len(ds), seed)
        return ckpt, path, part, graph, Dataset(ds.features[va], ds.labels[va], ds.class_count)

    def test_round_trip_is_byte_stable(self, tmp_path):
        ckpt, path, *_ = self.make_ckpt(tmp_path)
        loaded = load_checkpoint(path)
        path2 = tmp_path / "m2.ckpt"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_reload_reproduces_inference(self, tmp_path):
        ckpt, path, part, graph, va = self.make_ckpt(tmp_path)
        a = load_checkpoint(path)
        b = load_checkpoint(path)
        va_views = client_views(va.features, part)
        rows = np.arange(len(va))
        la, _ = evaluate_split(a.model, va_views, va.labels, graph, rows)
        lb, _ = evaluate_split(b.model, va_views, va.labels, graph, rows)
        assert la == lb

    def test_header_fields(self, tmp_path):
        ckpt, path, *_ = self.make_ckpt(tmp_path)
        text = path.read_bytes().split(b"\nDATA\n")[0].decode()
        assert text.startswith("MAGS-CKPT v1")
        assert "config_hash " in text and "best_epoch " in text
        loaded = load_checkpoint(path)
        assert loaded.best_epoch == ckpt.best_epoch
        assert loaded.best_val_loss == ckpt.best_val_loss
        assert loaded.config == ckpt.config

    def test_config_echo_holds_every_setting_under_its_manifest_name(self):
        # the echo is the checkpoint's config line and hash: a renamed or a
        # dropped entry changes every checkpoint's bytes
        cfg = TrainConfig(epochs=3, batch_size=32, lr=0.01, beta1=0.8, beta2=0.99,
                          dropout_rate=0.2, train_fault=FaultModel("device", 0.25),
                          gossip_rounds=2, seed=9)
        graph = build_graph("rgg", 4, 2, rgg_radius=1.5)
        assert config_echo(cfg, graph, split_patches(784, 2), 10) == {
            "epochs": 3, "batch_size": 32, "lr": 0.01, "beta1": 0.8, "beta2": 0.99,
            "dropout": "none", "dropout_rate": 0.2, "train_fault_kind": "device",
            "train_fault_rate": 0.25, "gossip_rounds": 2, "seed": 9, "graph_kind": "rgg",
            "device_count": 4, "rgg_radius": 1.5, "aggregators": [1, 2], "grid_side": 2,
            "class_count": 10}

    def test_corrupted_hash_rejected(self, tmp_path):
        _, path, *_ = self.make_ckpt(tmp_path)
        raw = path.read_bytes()
        bad = raw.replace(b"config_hash ", b"config_hash 0", 1)
        p2 = tmp_path / "bad.ckpt"
        p2.write_bytes(bad)
        with pytest.raises(ConfigError):
            load_checkpoint(p2)

    @pytest.mark.parametrize("damage,message", [
        (lambda raw: re.sub(rb"\nbest_epoch [^\n]*", b"", raw), "no best_epoch line"),
        (lambda raw: raw.replace(b"\nencoder 1 ", b"\nencoder x ", 1), "invalid literal"),
        (lambda raw: raw.replace(b"\nclasses ", b"\nclasses \xff", 1), "can't decode byte 0xff"),
        (lambda raw: raw.replace(b"}\nconfig_hash", b"\nconfig_hash", 1), "config hash mismatch"),
        (json_cut_and_rehashed, "Expecting"),
    ], ids=["no-best-epoch", "encoder-x", "byte-0xff", "broken-json", "broken-json-rehashed"])
    def test_damaged_header_rejected(self, tmp_path, damage, message):
        # each damage used to escape as a KeyError, ValueError,
        # UnicodeDecodeError or JSONDecodeError traceback
        _, path, *_ = self.make_ckpt(tmp_path)
        raw = path.read_bytes()
        bad = damage(raw)
        assert bad != raw
        p2 = tmp_path / "bad.ckpt"
        p2.write_bytes(bad)
        with pytest.raises(ConfigError) as info:
            load_checkpoint(p2)
        assert str(info.value).startswith(f"{p2}: damaged header: ")
        assert message in str(info.value)

    @pytest.mark.parametrize("old,new,message", [
        (b"\nencoder 2 ", b"\nencoder 77 ", "not encoders 1..4 and heads 1 2 3 4,"),
        (b"\nhead 1 ", b"\nhead 0 ", "not encoders 1..4 and heads 1 2 3 4,"),
        (b"\nhead 2 ", b"\nhead 9 ", "not encoders 1..4 and heads 1 2 3 4,"),
        (b"\nhead 1 64 ", b"\nhead 1 64 64 64 4\nhead 1 64 ", "each kind of one shape"),
        (b"\nclients 4\n", b"\nclients 5\n", "not encoders 1..5 and heads"),
        (b"\nclasses 4\n", b"\nclasses 5\n", "widths do not fit 4 clients, rep_dim 16 and 5"),
        (b"\nrep_dim 16\n", b"\nrep_dim 8\n", "widths do not fit 4 clients, rep_dim 8"),
        (b" 64 64 4\n", b" 60 64 4\n", "head (60, 64, 4) widths do not fit 4 clients"),
    ], ids=["encoder-77", "head-0", "head-9", "head-twice", "clients", "classes", "rep-dim",
            "head-width"])
    def test_self_contradicting_manifest_rejected(self, tmp_path, old, new, message):
        # the clients, classes, rep_dim and aggregators lines must agree
        # with the layer lines; each of these edits used to load
        _, path, *_ = self.make_ckpt(tmp_path)
        raw = path.read_bytes()
        assert old in raw.split(b"\nDATA\n")[0] + b"\n"
        p2 = tmp_path / "bad.ckpt"
        p2.write_bytes(raw.replace(old, new))
        with pytest.raises(ConfigError, match=re.escape(message)) as info:
            load_checkpoint(p2)
        assert str(info.value).startswith(f"{p2}: ")

    def test_aggregator_subset_reloads_bit_for_bit(self, tmp_path):
        # heads for aggregators 2 and 3 of 4 devices: the head rows keep
        # their aggregators
        ds, part, _ = small_problem(n=80)
        graph = build_graph("complete", 4, 2, seed=1, random_aggregators=True)
        assert graph.aggregators != (1, 2)
        ckpt = fit_pool(TrainConfig(epochs=1, seed=3), ds, part, graph, 3)
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.model.aggregators == graph.aggregators
        assert loaded.model.params.tobytes() == ckpt.model.params.tobytes()

    def test_serializes_as_float32(self, tmp_path):
        # fit trains in float32, and the payload is read back as it is
        ckpt, path, *_ = self.make_ckpt(tmp_path)
        loaded = load_checkpoint(path)
        w = ckpt.model.encoder.layers[0][0][0]
        w32 = loaded.model.encoder.layers[0][0][0]
        assert w.dtype == w32.dtype == np.float32  # not widened
        assert np.array_equal(w32, w)

    @pytest.mark.parametrize("gossip_rounds", [0, 2])
    def test_reload_is_fits_model_bit_for_bit(self, tmp_path, gossip_rounds):
        ds, part, graph = small_problem(n=80)
        cfg = TrainConfig(epochs=2, seed=5, dropout="cd", gossip_rounds=gossip_rounds)
        ckpt = fit_pool(cfg, ds, part, graph, 5)
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.model.params.dtype == np.float32
        assert loaded.model.params.tobytes() == ckpt.model.params.tobytes()
        assert loaded.best_val_loss == ckpt.best_val_loss

    def test_payload_is_the_documented_per_layer_layout(self, tmp_path):
        # clients ascending, then aggregators ascending; per MLP each layer's
        # weight (row-major) before its bias; little-endian float32
        ckpt, path, *_ = self.make_ckpt(tmp_path)
        model = ckpt.model
        blobs = []
        for c in range(model.client_count):
            for w, b in model.encoder.layers:
                blobs += [w[c].astype("<f4").tobytes(), b[c].astype("<f4").tobytes()]
        for j in range(len(model.aggregators)):
            for w, b in model.head.layers:
                blobs += [w[j].astype("<f4").tobytes(), b[j].astype("<f4").tobytes()]
        header, payload = path.read_bytes().split(b"\nDATA\n")
        assert payload == b"".join(blobs)
        lines = header.decode().splitlines()
        assert "aggregators 1 2 3 4" in lines
        assert [ln for ln in lines if ln.startswith(("encoder ", "head "))] == (
            [f"encoder {c} 196 64 16" for c in range(1, 5)]
            + [f"head {k} 64 64 4" for k in range(1, 5)])

    def test_short_or_long_payload_rejected(self, tmp_path):
        _, path, *_ = self.make_ckpt(tmp_path)
        raw = path.read_bytes()
        for bad in (raw[:-4], raw + b"\0\0\0\0"):
            p2 = tmp_path / "bad.ckpt"
            p2.write_bytes(bad)
            with pytest.raises(ConfigError, match="payload"):
                load_checkpoint(p2)
