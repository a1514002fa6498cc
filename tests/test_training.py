import numpy as np
import pytest

from mags.data import Dataset, client_views, make_splits, one_hot, split_patches, synth_dataset
from mags.errors import ConfigError
from mags.faults import FaultModel
from mags.inference import (aggregate, aggregator_head, client_encode, fault_free_delivery,
                            gossip_links, init_split_model)
from mags.nn import adam_init, adam_update, init_mlp, stacked_mlp
from mags.rng import stream
from mags.topology import build_graph
from mags.training import (TrainConfig, apply_cd_mask, apply_pd_mask,
                           batch_delivery, config_echo, evaluate_split, fit,
                           init_optimizer, load_checkpoint,
                           save_checkpoint, split_loss_and_grads, train_epoch,
                           optimizer_step)

from helpers import loss_and_grad


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


class TestDropoutMasks:
    def test_pd_rate_zero_keeps_all(self):
        assert apply_pd_mask(16, 0.0, stream(0, "dropout")).all()

    def test_pd_rate_one_drops_all(self):
        assert not apply_pd_mask(16, 1.0, stream(0, "dropout")).any()

    def test_pd_binomial_mean(self):
        rng = stream(1, "dropout")
        draws = 20000
        total = sum(int(apply_pd_mask(16, 0.3, rng).sum()) for _ in range(draws))
        band = 3 * np.sqrt(16 * 0.3 * 0.7 / draws)
        assert abs(total / draws - 11.2) <= band

    def test_cd_rate_zero_is_identity(self):
        aggs = tuple(range(1, 17))
        assert apply_cd_mask(16, aggs, 0.0, stream(2, "dropout")).all()

    def test_cd_self_slot_never_dropped_at_rate_one(self):
        aggs = tuple(range(1, 17))
        keep = apply_cd_mask(16, aggs, 1.0, stream(3, "dropout"))
        for j, k in enumerate(aggs):
            assert keep[j, k - 1]
            assert keep[j].sum() == 1

    def test_cd_expected_dropped_slots(self):
        # 240 non-self slots at rate 0.3 drop 72 in expectation
        aggs = tuple(range(1, 17))
        rng = stream(4, "dropout")
        draws = 20000
        dropped = 0
        for _ in range(draws):
            keep = apply_cd_mask(16, aggs, 0.3, rng)
            dropped += 240 - (int(keep.sum()) - 16)
        band = 3 * np.sqrt(240 * 0.3 * 0.7 / draws)
        assert abs(dropped / draws - 72.0) <= band

    def test_pd_zeroes_own_head_slot_too(self):
        graph = build_graph("complete", 4, 4)
        cfg = TrainConfig(dropout="pd", dropout_rate=1.0)
        keep, alive_aggs, _ = batch_delivery(graph, cfg, stream(5, "dropout"), stream(5, "fault"))
        assert not keep.any()
        assert alive_aggs == [1, 2, 3, 4]

    def test_base_adjacency_limits_delivery(self):
        # on a ring, an aggregator only ever receives from its two neighbors
        graph = build_graph("ring", 8, 8)
        cfg = TrainConfig(dropout="none", gossip_rounds=1)
        keep, _, links = batch_delivery(graph, cfg, stream(6, "dropout"), stream(6, "fault"))
        assert keep.sum() == 8 * 3
        assert links.sum() == 8 * 3

    def test_device_train_faults_keep_rows_follow_alive_aggregators(self):
        # row j of keep and links belongs to alive_aggs[j], dead ones dropped;
        # every device aggregates, so a row keeps exactly the alive clients
        graph = build_graph("complete", 4, 4)
        cfg = TrainConfig(train_fault=FaultModel("device", 0.5), gossip_rounds=1)
        rng_fault = stream(7, "fault")
        partial = 0
        for _ in range(20):
            keep, alive_aggs, links = batch_delivery(graph, cfg, stream(7, "dropout"), rng_fault)
            partial += 0 < len(alive_aggs) < 4
            assert keep.shape == (len(alive_aggs), 4)
            assert links.shape == (len(alive_aggs),) * 2 and links.all()
            for row in keep:
                assert np.array_equal(row, np.isin([1, 2, 3, 4], alive_aggs))
        assert partial > 0

    def test_train_fault_gossip_uses_realized_links(self):
        # at communication rate 1.0 no aggregator hears another, so gossip
        # must leave every head's loss as it is
        ds, part, graph = small_problem()
        model = init_split_model(graph, part.patch_dims(), ds.class_count, stream(9, "init"))
        views = client_views(ds.features[:16], part)
        y = one_hot(ds.labels[:16], ds.class_count)
        cfg = TrainConfig(train_fault=FaultModel("communication", 1.0), gossip_rounds=2)
        delivery = batch_delivery(graph, cfg, stream(9, "dropout"), stream(9, "fault"))
        assert np.array_equal(delivery[2], np.eye(4, dtype=bool))
        loss0, _ = split_loss_and_grads(model, views, y, *delivery, 0)
        loss2, _ = split_loss_and_grads(model, views, y, *delivery, 2)
        assert loss2 == pytest.approx(loss0, rel=1e-12)

    @pytest.mark.parametrize("dropout", ["none", "pd", "cd"])
    def test_fault_free_base_gives_the_drawn_delivery(self, dropout):
        # without a train fault every batch gets the base graph's delivery
        # under its own dropout mask, no links unless the loss gossips, and
        # the fault stream stays untouched
        graph = build_graph("ring", 8, 5)
        cfg = TrainConfig(dropout=dropout, dropout_rate=0.4)
        base_aggs, base_keep = fault_free_delivery(graph)
        rd, rd_ref, rf = stream(10, "dropout"), stream(10, "dropout"), stream(10, "fault")
        for _ in range(5):
            keep, aggs, links = batch_delivery(graph, cfg, rd, rf)
            if dropout == "pd":
                mask = apply_pd_mask(8, 0.4, rd_ref)[None, :]
            elif dropout == "cd":
                mask = apply_cd_mask(8, aggs, 0.4, rd_ref)
            else:
                mask = True
            assert aggs == base_aggs and np.array_equal(keep, base_keep & mask)
            assert links is None
        gossiping = TrainConfig(dropout=dropout, dropout_rate=0.4, gossip_rounds=2)
        links = batch_delivery(graph, gossiping, rd, rf)[2]
        assert np.array_equal(links, gossip_links(graph.adj, base_aggs))
        assert rf.random() == stream(10, "fault").random()


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
        loss, _ = split_loss_and_grads(model, views, y, keep, list(graph.aggregators))
        assert loss == pytest.approx(4 * np.log(ds.class_count), abs=1e-12)

    def test_full_cd_dropout_trains_heads_on_own_client_only(self):
        ds, part, graph = small_problem()
        model = init_split_model(graph, part.patch_dims(), ds.class_count, stream(1, "init"))
        views = client_views(ds.features[:8], part)
        y = one_hot(ds.labels[:8], ds.class_count)
        keep = apply_cd_mask(4, graph.aggregators, 1.0, stream(7, "dropout"))
        _, grad = split_loss_and_grads(model, views, y, keep, list(graph.aggregators))
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
        _, grad = split_loss_and_grads(model, views, y, keep, list(graph.aggregators))
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
        keep = np.ones((len(alive_aggs), 4), dtype=bool)
        fresh_loss, fresh = split_loss_and_grads(model, views, y, keep, alive_aggs)
        held = np.full_like(model.params, np.nan)
        loss, grad = split_loss_and_grads(model, views, y, keep, alive_aggs, out=held)
        assert grad is held and loss == fresh_loss
        assert np.array_equal(held, fresh)
        _, heads = model.unflatten(held)
        dead = [j for j, k in enumerate(model.aggregators) if k not in alive_aggs]
        assert all(not w[dead].any() and not b[dead].any() for w, b in heads.layers)

    def test_gradients_match_finite_differences_with_mask(self):
        graph = build_graph("complete", 2, 2)
        model = init_split_model(graph, [4, 4], 3, stream(3, "init"))
        rng = np.random.default_rng(0)
        views = [rng.random((5, 4)), rng.random((5, 4))]
        y = one_hot(rng.integers(0, 3, 5), 3)
        keep = np.array([[True, False], [True, True]])

        def loss_of():
            val, _ = split_loss_and_grads(model, views, y, keep, [1, 2])
            return val

        _, grad = split_loss_and_grads(model, views, y, keep, [1, 2])
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

    @pytest.mark.parametrize("kind,devices,aggregators", [
        ("complete", 2, 2),
        # links 1-2-3 form a path with degrees 2, 3, 2: an asymmetric averaging
        # matrix, so a transposed backward pass would fail here
        ("ring", 4, 3),
    ])
    def test_gossip_in_training_gradients_match_finite_differences(self, kind, devices,
                                                                   aggregators):
        graph = build_graph(kind, devices, aggregators)
        model = init_split_model(graph, [4] * devices, 3, stream(4, "init"))
        rng = np.random.default_rng(1)
        views = [rng.random((4, 4)) for _ in range(devices)]
        y = one_hot(rng.integers(0, 3, 4), 3)
        keep, aggs, links = batch_delivery(
            graph, TrainConfig(gossip_rounds=2), stream(4, "dropout"), stream(4, "fault"))
        assert links.sum(axis=1).tolist() == ([2, 2] if kind == "complete" else [2, 3, 2])

        def loss_of():
            val, _ = split_loss_and_grads(model, views, y, keep, aggs, links, 2)
            return val

        _, grad = split_loss_and_grads(model, views, y, keep, aggs, links, 2)
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
        opt = init_optimizer(model, cfg)

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
                model, [x[idx]], y[idx], keep, [1])
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
        opt = init_optimizer(model, cfg)
        views = client_views(ds.features, part)
        y = one_hot(ds.labels, ds.class_count)
        loss = train_epoch(model, opt, views, np.arange(len(ds)), y, graph, cfg,
                           stream(8, "data"), stream(8, "dropout"), stream(8, "fault"))
        assert np.isfinite(loss) and loss > 0


class TestFit:
    def test_zero_epochs_returns_initial_params(self):
        ds, part, graph = small_problem()
        cfg = TrainConfig(epochs=0, seed=3)
        ckpt = fit_pool(cfg, ds, part, graph, 1)
        fresh = init_split_model(graph, part.patch_dims(), ds.class_count, stream(3, "init"))
        assert np.array_equal(ckpt.model.params, fresh.params)
        assert ckpt.best_epoch == 0

    def test_separable_data_reaches_high_accuracy(self):
        ds, part, graph = small_problem(n=1000, noise=0.0)
        ckpt = fit_pool(TrainConfig(epochs=5, seed=2, batch_size=32), ds, part, graph, 2)
        _, va = make_splits(len(ds), 2)
        _, acc = evaluate_split(ckpt.model, client_views(ds.features[va], part), ds.labels[va],
                                graph)
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
        views = client_views(ds.features[va], part)
        final_loss, _ = None, None
        # retrain to recover the final-epoch model
        model = init_split_model(graph, part.patch_dims(), ds.class_count, stream(7, "init"))
        cfg = TrainConfig(epochs=6, seed=7)
        opt = init_optimizer(model, cfg)
        y = one_hot(ds.labels[tr], ds.class_count)
        pool_views = client_views(ds.features, part)
        rd, rdo, rf = stream(7, "data"), stream(7, "dropout"), stream(7, "fault")
        for _ in range(6):
            train_epoch(model, opt, pool_views, tr, y, graph, cfg, rd, rdo, rf)
        final_loss, _ = evaluate_split(model, views, ds.labels[va], graph)
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
    def test_grouped_heads_give_the_per_aggregator_loss_bits(self, kind, devices,
                                                             aggregators):
        # reference: one head at a time, loss and hits summed per (chunk,
        # aggregator) in the same order
        graph = build_graph(kind, devices, aggregators)
        g = int(np.sqrt(devices))
        ds = synth_dataset(1100, 5, g, seed=2, noise=0.3)
        part = split_patches(ds.feature_count, g)
        model = init_split_model(graph, part.patch_dims(), 5, stream(6, "init"))
        views = client_views(ds.features, part)
        aggs, keep = fault_free_delivery(graph)
        y = one_hot(ds.labels, 5)
        loss_sum, hit_sum = 0.0, 0.0
        for start in range(0, len(ds), 512):
            sl = slice(start, min(start + 512, len(ds)))
            reps = client_encode(model, views[:, sl])
            for j, k in enumerate(aggs):
                lp = aggregator_head(model, [k], aggregate(reps, keep[j:j + 1]))[0]
                loss_sum += float(-(y[sl] * lp).sum())
                hit_sum += float((lp.argmax(axis=1) == ds.labels[sl]).sum())
        loss, acc = evaluate_split(model, views, ds.labels, graph)
        assert loss == loss_sum / len(ds)
        assert acc == hit_sum / (len(ds) * len(aggs))


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
        la, _ = evaluate_split(a.model, va_views, va.labels, graph)
        lb, _ = evaluate_split(b.model, va_views, va.labels, graph)
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

    def test_serializes_as_float32(self, tmp_path):
        ckpt, path, *_ = self.make_ckpt(tmp_path)
        loaded = load_checkpoint(path)
        w64 = ckpt.model.encoder.layers[0][0][0]
        w32 = loaded.model.encoder.layers[0][0][0]
        assert w32.dtype == np.float64  # widened back for compute
        assert np.allclose(w64, w32, atol=1e-7)
        assert np.array_equal(w32, w64.astype("<f4").astype(np.float64))

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
