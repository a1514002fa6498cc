import numpy as np
import pytest

from mags.errors import ConfigError, InputError
from mags.nn import (Mlp, adam_init, adam_update, init_mlp, linear_forward,
                     log_softmax, mlp_backward, mlp_forward, mlp_size, stacked_mlp)
from mags.rng import stream

from helpers import loss_and_grad, textbook_linear_forward, textbook_log_softmax


def fd_gradients(mlp, x, y, h=1e-5):
    """Central finite differences over every parameter coordinate."""
    out = []
    for li in range(len(mlp.layers)):
        pair = []
        for wi in range(2):
            arr = mlp.layers[li][wi]
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, _ = loss_and_grad(mlp, x, y)
                arr[idx] = orig - h
                down, _ = loss_and_grad(mlp, x, y)
                arr[idx] = orig
                g[idx] = (up - down) / (2 * h)
            pair.append(g)
        out.append(tuple(pair))
    return out


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-3)


class TestLinearForward:
    def test_identity_weights(self):
        out = linear_forward(np.array([[1.0, 2.0]]), np.eye(2), np.zeros(2))
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_hand_product(self):
        # [1,1] @ diag(2,3) + [1,1] = [3,4]
        out = linear_forward(np.array([[1.0, 1.0]]),
                             np.array([[2.0, 0.0], [0.0, 3.0]]),
                             np.array([1.0, 1.0]))
        assert np.array_equal(out, [[3.0, 4.0]])

    def test_empty_batch(self):
        out = linear_forward(np.zeros((0, 3)), np.zeros((3, 5)), np.zeros(5))
        assert out.shape == (0, 5)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            linear_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))
        with pytest.raises(ConfigError):
            linear_forward(np.zeros((2, 3)), np.zeros((3, 5)), np.zeros(4))
        # x and w carry the same stack axes: a broadcast is the caller's
        with pytest.raises(ConfigError):
            linear_forward(np.zeros((4, 2, 3)), np.zeros((6, 4, 3, 5)), np.zeros((6, 4, 5)))

    def test_two_stack_axes_give_each_slice_its_own_product(self):
        rng = np.random.default_rng(3)
        x = np.broadcast_to(rng.standard_normal((4, 7, 3)), (6, 4, 7, 3))
        w, b = rng.standard_normal((6, 4, 3, 5)), rng.standard_normal((6, 4, 5))
        out = linear_forward(x, w, b)
        assert out.shape == (6, 4, 7, 5)
        for p in range(6):
            assert out[p].tobytes() == linear_forward(x[p], w[p], b[p]).tobytes()


class TestMlpForward:
    def test_single_identity_layer(self):
        mlp = Mlp([(np.eye(3), np.zeros(3))])
        x = np.array([[0.5, -1.0, 2.0]])
        out, _ = mlp_forward(mlp, x)
        assert np.array_equal(out, x)

    def test_relu_clamps_negative_preactivation(self):
        # two layers so the first output passes through ReLU
        mlp = Mlp([(np.eye(2), np.array([-10.0, 0.0])), (np.eye(2), np.zeros(2))])
        out, _ = mlp_forward(mlp, np.array([[1.0, 1.0]]))
        assert np.array_equal(out, [[0.0, 1.0]])

    def test_matches_straight_line_reevaluation(self):
        rng = stream(3, "init")
        mlp = init_mlp((6, 8, 4), rng)
        x = rng.standard_normal((5, 6))
        out, _ = mlp_forward(mlp, x)
        # independent re-evaluation without the tape machinery
        (w1, b1), (w2, b2) = mlp.layers
        expected = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
        assert np.allclose(out, expected, atol=0, rtol=0)

    def test_determinism(self):
        rng = stream(4, "init")
        mlp = init_mlp((5, 5, 3), rng)
        x = rng.standard_normal((7, 5))
        a, _ = mlp_forward(mlp, x)
        b, _ = mlp_forward(mlp, x)
        assert a.tobytes() == b.tobytes()


class TestLogSoftmax:
    def test_symmetry(self):
        out = log_softmax(np.array([0.0, 0.0]))
        assert np.allclose(out, [-np.log(2), -np.log(2)], atol=1e-15)

    def test_large_values_do_not_overflow(self):
        out = log_softmax(np.array([1000.0, 0.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(-1000.0, abs=1e-9)

    def test_matches_high_precision_oracle(self):
        import mpmath
        mpmath.mp.dps = 50
        vals = [1.0, 2.0, 3.0]
        denom = sum(mpmath.exp(v) for v in vals)
        expected = [float(mpmath.log(mpmath.exp(v) / denom)) for v in vals]
        out = log_softmax(np.array(vals))
        assert np.allclose(out, expected, atol=1e-14)

    def test_exponentiates_to_probability_vector(self):
        rng = stream(5, "init")
        for _ in range(50):
            z = rng.standard_normal(9) * rng.uniform(0.1, 30)
            p = np.exp(log_softmax(z))
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p >= 0.0) and np.all(p <= 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            log_softmax(np.array([np.inf, 0.0]))


class TestTextbookForms:
    """The trimmed kernels give the bits of their textbook expressions."""

    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_linear_forward(self, stack):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(stack + (5, 7))
        w = rng.standard_normal(stack + (7, 4))
        b = rng.standard_normal(stack + (4,))
        out = linear_forward(x, w, b)
        assert out.tobytes() == textbook_linear_forward(x, w, b).tobytes()

    @pytest.mark.parametrize("stacked", [False, True])
    def test_mlp_forward_keeps_every_tape_entry(self, stacked):
        rng = np.random.default_rng(2)
        dims = (6, 8, 5, 3)
        if stacked:
            mlp = stacked_mlp(rng.standard_normal(3 * mlp_size(dims)), 3, dims)
            x = rng.standard_normal((3, 9, 6))
        else:
            mlp = init_mlp(dims, rng)
            x = rng.standard_normal((9, 6))
        out, tape = mlp_forward(mlp, x)
        h = x
        for i, (w, b) in enumerate(mlp.layers):
            # each entry still holds its layer's input once every later layer ran
            assert tape[i].tobytes() == h.tobytes()
            z = textbook_linear_forward(h, w, b)
            h = z if i == len(mlp.layers) - 1 else np.maximum(z, 0.0)
        assert out.tobytes() == h.tobytes()
        kept = tape[1:] + [out]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(kept) for b in kept[i + 1:])

    @pytest.mark.parametrize("rows", [
        pytest.param(np.random.default_rng(3).standard_normal((4, 6, 10)) * 5, id="random"),
        pytest.param(np.array([[-0.0, -1.0, -2.0], [0.0, -3.0, -0.0], [-0.0, 0.0, -1.0],
                               [0.0, 0.0, 0.0], [-0.0, -0.0, -5.0], [-0.0, -1000.0, -2000.0],
                               [0.0, -0.0, -1000.0], [-1000.0, -0.0, 0.0]]), id="zero-max"),
        pytest.param(np.array([[2.0, 2.0, 1.0], [5.0, 5.0, 5.0], [-1.0, 3.0, 3.0]]), id="ties"),
        pytest.param(np.random.default_rng(4).standard_normal((5, 1)), id="one-class"),
        pytest.param(np.random.default_rng(5).standard_normal((5, 2)), id="two-classes"),
        pytest.param(np.array([[0.0], [-0.0]]), id="one-zero-class"),
        pytest.param(np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]]), id="two-zero-classes"),
    ])
    def test_log_softmax(self, rows):
        assert log_softmax(rows).tobytes() == textbook_log_softmax(rows).tobytes()


class TestLossAndGrad:
    def test_certain_correct_prediction_gives_zero_loss_and_grad(self):
        # a huge logit margin puts (float) mass 1 on the true class
        mlp = Mlp([(np.zeros((3, 4)), np.array([1000.0, 0.0, 0.0, 0.0]))])
        y = np.array([[1.0, 0.0, 0.0, 0.0]])
        loss, grads = loss_and_grad(mlp, np.ones((1, 3)), y)
        assert loss == 0.0
        assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads)

    def test_uniform_prediction_loss_is_log_class_count(self):
        mlp = Mlp([(np.zeros((4, 10)), np.zeros(10))])
        y = np.zeros((6, 10))
        y[:, 3] = 1.0
        loss, _ = loss_and_grad(mlp, np.ones((6, 4)), y)
        assert loss == pytest.approx(np.log(10.0), abs=1e-14)

    def test_rejects_non_one_hot_targets(self):
        mlp = Mlp([(np.zeros((2, 3)), np.zeros(3))])
        with pytest.raises(InputError):
            loss_and_grad(mlp, np.ones((1, 2)), np.array([[0.5, 0.5, 0.0]]))
        with pytest.raises(InputError):
            loss_and_grad(mlp, np.ones((1, 2)), np.array([[1.0, 1.0, 0.0]]))

    def test_gradients_match_finite_differences(self):
        rng = stream(11, "init")
        mlp = init_mlp((4, 6, 3), rng)
        x = rng.standard_normal((3, 4))
        labels = rng.integers(0, 3, size=3)
        y = np.zeros((3, 3))
        y[np.arange(3), labels] = 1.0
        _, grads = loss_and_grad(mlp, x, y)
        fd = fd_gradients(mlp, x, y)
        worst = max(rel_err(grads[li][wi][idx], fd[li][wi][idx])
                    for li in range(len(mlp.layers)) for wi in range(2)
                    for idx in np.ndindex(grads[li][wi].shape))
        assert worst < 1e-6

    def test_gradient_property_over_many_seeds(self):
        # nets stay under 1e3 parameters; one FD spot-check per seed keeps
        # the sweep fast while covering 100 draws
        worst = 0.0
        for seed in range(100):
            rng = stream(seed, "init")
            mlp = init_mlp((5, 7, 4), rng)
            x = rng.standard_normal((2, 5))
            y = np.zeros((2, 4))
            y[np.arange(2), rng.integers(0, 4, size=2)] = 1.0
            _, grads = loss_and_grad(mlp, x, y)
            li, wi = rng.integers(2), rng.integers(2)
            arr = mlp.layers[li][wi]
            idx = tuple(rng.integers(s) for s in arr.shape)
            h = 1e-5
            orig = arr[idx]
            arr[idx] = orig + h
            up, _ = loss_and_grad(mlp, x, y)
            arr[idx] = orig - h
            down, _ = loss_and_grad(mlp, x, y)
            arr[idx] = orig
            worst = max(worst, rel_err(grads[li][wi][idx], (up - down) / (2 * h)))
        assert worst < 1e-6


def random_stack(seed, count, dims):
    """A stack of ``count`` MLPs as views into one flat vector, plus that vector."""
    flat = stream(seed, "init").uniform(-0.5, 0.5, size=count * mlp_size(dims))
    return stacked_mlp(flat, count, dims), flat


class TestStackedMlp:
    def test_layers_are_views_into_the_flat_vector(self):
        dims = (3, 4, 2)
        stack, flat = random_stack(0, 5, dims)
        assert [w.shape for w, _ in stack.layers] == [(5, 3, 4), (5, 4, 2)]
        assert [b.shape for _, b in stack.layers] == [(5, 4), (5, 2)]
        assert all(np.shares_memory(a, flat) for layer in stack.layers for a in layer)
        # MLP s occupies its own block, each layer's weight (row-major) before its bias
        per = mlp_size(dims)
        expected = np.concatenate([a[2].ravel() for layer in stack.layers for a in layer])
        assert np.array_equal(flat[2 * per:3 * per], expected)
        stack.layers[1][1][4, 0] = 7.0
        assert flat[5 * per - 2] == 7.0

    def test_forward_and_backward_equal_rowwise_2d_calls(self):
        dims = (6, 5, 3)
        stack, _ = random_stack(1, 4, dims)
        rng = stream(1, "data")
        x = rng.standard_normal((4, 7, 6))
        grad_out = rng.standard_normal((4, 7, 3))
        out, tape = mlp_forward(stack, x)
        grads, dx = mlp_backward(stack, tape, grad_out)
        for s in range(4):
            row = stack.take(s)
            out_s, tape_s = mlp_forward(row, x[s])
            grads_s, dx_s = mlp_backward(row, tape_s, grad_out[s])
            assert np.array_equal(out[s], out_s)
            assert np.array_equal(dx[s], dx_s)
            for (gw, gb), (gw_s, gb_s) in zip(grads, grads_s):
                assert np.array_equal(gw[s], gw_s)
                assert np.array_equal(gb[s], gb_s)

    def test_backward_without_input_gradient_gives_the_same_parameter_gradients(self):
        dims = (6, 5, 4, 3)
        stack, _ = random_stack(5, 4, dims)
        rng = stream(5, "data")
        x = rng.standard_normal((4, 7, 6))
        grad_out = rng.standard_normal((4, 7, 3))
        _, tape = mlp_forward(stack, x)
        grads, dx = mlp_backward(stack, tape, grad_out)
        skipped, none = mlp_backward(stack, tape, grad_out, input_grad=False)
        assert dx.shape == x.shape and none is None
        for (gw, gb), (sw, sb) in zip(grads, skipped):
            assert np.array_equal(gw, sw)
            assert np.array_equal(gb, sb)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("input_grad", [True, False])
    @pytest.mark.parametrize("lead", [(), (4,), (3, 4)], ids=["2-d", "stack", "stack-of-stacks"])
    def test_backward_into_views_gives_the_fresh_gradients_bits(self, lead, input_grad, dtype):
        # ``out`` is views into a NaN-filled flat gradient, as a training
        # pass holds one: every layer's weight and bias must be written
        dims = (12, 8, 5, 3)
        count = lead[-1] if lead else 1
        rng = stream(7, "data")
        sets = rng.uniform(-0.5, 0.5, (*lead[:-1], count * mlp_size(dims))).astype(dtype)
        held = np.full_like(sets, np.nan)
        mlp, out = stacked_mlp(sets, count, dims), stacked_mlp(held, count, dims)
        if not lead:
            mlp, out = mlp.take(0), out.take(0)
        x = rng.standard_normal((*lead, 9, 12)).astype(dtype)
        grad_out = rng.standard_normal((*lead, 9, 3)).astype(dtype)
        _, tape = mlp_forward(mlp, x)
        fresh, dx = mlp_backward(mlp, tape, grad_out, input_grad=input_grad)
        written, dx_out = mlp_backward(mlp, tape, grad_out, input_grad=input_grad, out=out)
        assert written is out.layers and not np.isnan(held).any()
        for (gw, gb), (ow, ob) in zip(fresh, out.layers):
            assert gw.dtype == ow.dtype == dtype
            assert gw.tobytes() == ow.tobytes() and gb.tobytes() == ob.tobytes()
        if input_grad:
            assert dx.tobytes() == dx_out.tobytes()
        else:
            assert dx is None and dx_out is None

    def test_stacked_backward_matches_finite_differences(self):
        dims = (3, 4, 2)
        stack, flat = random_stack(2, 3, dims)
        rng = stream(2, "data")
        x = rng.standard_normal((3, 5, 3))
        probe = rng.standard_normal((3, 5, 2))  # loss = sum(probe * out)

        def loss():
            return float((probe * mlp_forward(stack, x)[0]).sum())

        grads, _ = mlp_backward(stack, mlp_forward(stack, x)[1], probe)
        analytic = np.concatenate([a[s].ravel() for s in range(3)
                                   for layer in grads for a in layer])
        h, worst = 1e-6, 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            down = loss()
            flat[i] = orig
            worst = max(worst, rel_err(analytic[i], (up - down) / (2 * h)))
        assert worst < 1e-6

    def test_a_stack_of_parameter_vectors_runs_each_vector_alike(self):
        dims = (3, 4, 2)
        _, flat = random_stack(6, 5, dims)
        sets = np.stack([flat, flat + 0.25, flat[::-1].copy()])
        stacks = stacked_mlp(sets, 5, dims)
        assert [w.shape for w, _ in stacks.layers] == [(3, 5, 3, 4), (3, 5, 4, 2)]
        assert all(np.shares_memory(a, sets) for layer in stacks.layers for a in layer)
        # take indexes the last stack axis, the MLPs, in every set
        assert stacks.take(1).layers[0][0].shape == (3, 3, 4)
        x = np.random.default_rng(6).standard_normal((5, 7, 3))
        out, _ = mlp_forward(stacks, np.broadcast_to(x, (3, 5, 7, 3)))
        for p in range(3):
            one, _ = mlp_forward(stacked_mlp(sets[p], 5, dims), x)
            assert out[p].tobytes() == one.tobytes()
            assert np.array_equal(stacks.take(1).layers[0][0][p],
                                  stacked_mlp(sets[p], 5, dims).take(1).layers[0][0])

    def test_take_selects_rows(self):
        stack, _ = random_stack(3, 4, (3, 2))
        assert stack.take(1).layers[0][0].shape == (3, 2)
        assert np.shares_memory(stack.take(slice(None)).layers[0][0], stack.layers[0][0])
        picked = stack.take(np.array([3, 0]))
        assert np.array_equal(picked.layers[0][1], stack.layers[0][1][[3, 0]])

    def test_stack_shape_mismatch_rejected(self):
        stack, _ = random_stack(4, 3, (3, 2))
        with pytest.raises(ConfigError):
            mlp_forward(stack, np.zeros((2, 5, 3)))
        with pytest.raises(ConfigError):
            mlp_forward(stack, np.zeros((5, 3)))


def per_group_adam(groups, grads, ms, vs, t, lr, b1, b2, eps):
    """Reference: one Adam step applied to each parameter group separately,
    returning new (params, m, v) lists."""
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    out, ms2, vs2 = [], [], []
    for w, g, m, v in zip(groups, grads, ms, vs):
        m2 = b1 * m + (1.0 - b1) * g
        v2 = b2 * v + (1.0 - b2) * g * g
        out.append(w - lr * (m2 / c1) / (np.sqrt(v2 / c2) + eps))
        ms2.append(m2)
        vs2.append(v2)
    return out, ms2, vs2


class TestAdam:
    def test_first_step_bias_correction(self):
        params = np.zeros(6)
        state = adam_init(params, lr=0.001)
        adam_update(params, np.ones(6), state)
        # m_hat = v_hat = 1 after bias correction, so the step is -lr/(1+eps)
        assert np.allclose(params, -0.001, atol=1e-9)
        assert state.t == 1

    def test_zero_gradient_with_zero_state_is_identity(self):
        params = stream(9, "init").uniform(-1, 1, size=12)
        before = params.copy()
        adam_update(params, np.zeros(12), adam_init(params))
        assert np.array_equal(params, before)

    def test_two_steps_match_hand_recurrence(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g = 0.5
        w = 0.2
        params = np.array([w, w])
        state = adam_init(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        # hand-unrolled recurrence
        m = v = 0.0
        expect = w
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            expect -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            adam_update(params, np.array([g, g]), state)
        assert params[0] == pytest.approx(expect, abs=1e-15)
        assert state.t == 2

    def test_flat_step_is_bit_equal_to_per_group_steps(self):
        # three groups stepped as one flat vector, one of them with an
        # all-zero gradient, against the per-group formula slice by slice
        lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
        rng = stream(10, "init")
        sizes = (7, 5, 9)
        cuts = np.cumsum(sizes)[:-1]
        params = rng.uniform(-1, 1, size=sum(sizes))
        groups = np.split(params.copy(), cuts)
        ms = [np.zeros(n) for n in sizes]
        vs = [np.zeros(n) for n in sizes]
        state = adam_init(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        for t in (1, 2, 3):
            grad = rng.standard_normal(sum(sizes))
            grad[cuts[0]:cuts[1]] = 0.0
            adam_update(params, grad, state)
            groups, ms, vs = per_group_adam(groups, np.split(grad, cuts), ms, vs,
                                            t, lr, b1, b2, eps)
            assert np.array_equal(params, np.concatenate(groups))
            assert np.array_equal(state.m, np.concatenate(ms))
            assert np.array_equal(state.v, np.concatenate(vs))
        assert state.t == 3

    def test_steps_write_only_into_the_state_scratch(self):
        params = stream(11, "init").uniform(-1, 1, size=8)
        state = adam_init(params)
        scratch = state.scratch
        assert len(scratch) == 2 and all(s.shape == params.shape for s in scratch)
        adam_update(params, np.ones(8), state)
        assert state.scratch is scratch

    def test_shape_mismatch(self):
        params = np.zeros(6)
        state = adam_init(params)
        with pytest.raises(ConfigError):
            adam_update(params, np.zeros(5), state)

    def test_zero_gradient_float32_moments_stop_in_the_subnormals(self):
        # float32 rounds 0.9 * k * 2**-149 back to k * 2**-149 for k <= 4, so
        # a moment whose gradient stays zero never reaches 0 (train_epoch
        # flushes it) and its parameter never moves
        unit = np.float32(2.0 ** -149)
        params = stream(12, "init").uniform(-1, 1, size=64).astype(np.float32)
        before = params.copy()
        state = adam_init(params)
        state.m[:] = np.arange(1, 65, dtype=np.float32) * unit
        for _ in range(1000):
            adam_update(params, np.zeros_like(params), state)
        assert state.m[3] == 4 * unit
        assert ((state.m > 0) & (state.m <= 4 * unit)).all()
        assert np.array_equal(params, before)


def test_init_is_fan_in_bounded():
    rng = stream(2, "init")
    mlp = init_mlp((16, 8, 4), rng)
    for (w, b), n in zip(mlp.layers, (16, 8)):
        bound = 1 / np.sqrt(n)
        assert np.all(np.abs(w) <= bound)
        assert np.all(np.abs(b) <= bound)
