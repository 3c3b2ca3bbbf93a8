"""Tests for the autodiff engine, MLP, optimizer, EMA, and serialization."""

import base64

import numpy as np
import pytest

from flowrl.diffcore import (
    AdamState,
    MlpSpec,
    Tensor,
    adam_step,
    backward,
    clone_params,
    concat,
    ema_update,
    init_mlp,
    input_derivative,
    mlp_forward,
    mlp_value,
    mlp_value_and_input_jvp,
    load_params,
    params_from_obj,
    params_to_obj,
    save_params,
)
from flowrl.errors import ConfigError, ContractError, TrainingError

from helpers import finite_diff_param_grads, grad_match_fraction, ref_mlp, random_params_like


def small_spec(layer_norm=True):
    return MlpSpec(in_dim=3, hidden=(5, 4), out_dim=1, layer_norm=layer_norm)


class TestTensorBasics:
    def test_identity_gradient(self):
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        y = x * 1.0
        y.backward(np.ones((1, 1)))
        assert x.grad[0, 0] == 1.0

    def test_square_gradient(self):
        w = Tensor(np.array([[3.0]]), requires_grad=True)
        (w**2).backward(np.ones((1, 1)))
        assert w.grad[0, 0] == pytest.approx(6.0)

    def test_broadcast_add_unbroadcasts(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (x + b).sum().backward()
        assert np.array_equal(b.grad, np.full(3, 4.0))
        assert np.array_equal(x.grad, np.ones((4, 3)))

    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        y.backward(np.ones(1))
        assert x.grad[0] == pytest.approx(5.0)

    def test_min_elem_routes_gradient(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        a.min_elem(b).sum().backward()
        assert np.array_equal(a.grad, np.array([1.0, 0.0]))
        assert np.array_equal(b.grad, np.array([0.0, 1.0]))


class TestMlpForward:
    def test_identity_one_layer(self):
        spec = MlpSpec(in_dim=1, hidden=(), out_dim=1, layer_norm=False)
        params = {"w0": np.array([[1.0]]), "b0": np.zeros(1)}
        out = mlp_value(params, np.array([[1.0]]), spec)
        assert out[0, 0] == 1.0

    def test_zero_weights_outputs_bias(self):
        spec = MlpSpec(in_dim=2, hidden=(), out_dim=3, layer_norm=False)
        params = {"w0": np.zeros((2, 3)), "b0": np.array([0.5, -1.0, 2.0])}
        out = mlp_value(params, np.array([[7.0, -4.0]]), spec)
        assert np.array_equal(out[0], params["b0"])

    def test_matches_reference_forward(self):
        # seed-fixed 2-layer net vs the independent straight-line oracle
        spec = MlpSpec(in_dim=2, hidden=(6, 6), out_dim=1, layer_norm=True)
        params = init_mlp(spec, np.random.default_rng(7))
        x = np.array([[0.5, -0.5]])
        got = mlp_value(params, x, spec)
        want = ref_mlp(params, x, spec)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        tape = mlp_forward(params, x, spec)
        np.testing.assert_allclose(tape.output.data, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("layer_norm", [False, True])
    def test_value_jvp_and_tape_outputs_bit_identical(self, layer_norm):
        rng = np.random.default_rng(12)
        spec = small_spec(layer_norm)
        params = random_params_like(init_mlp(spec, rng), rng)
        x = rng.normal(size=(7, 3))
        value = mlp_value(params, x, spec)
        assert np.array_equal(mlp_value_and_input_jvp(params, x, spec, np.ones_like(x))[0], value)
        assert np.array_equal(mlp_forward(params, x, spec).output.data, value)

    def test_shape_mismatch_raises(self):
        spec = small_spec()
        params = init_mlp(spec, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            mlp_value(params, np.zeros((2, 4)), spec)
        with pytest.raises(ConfigError):
            mlp_value(params, np.zeros(3), spec)
        bad = dict(params)
        bad["w1"] = np.zeros((2, 2))
        with pytest.raises(ConfigError):
            mlp_value(bad, np.zeros((2, 3)), spec)


class TestBackward:
    @pytest.mark.parametrize("layer_norm", [False, True])
    def test_gradients_match_finite_differences(self, layer_norm):
        rng = np.random.default_rng(11)
        spec = small_spec(layer_norm)
        params = random_params_like(init_mlp(spec, rng), rng)
        x = rng.normal(size=(4, 3))

        def loss(ps):
            return float((mlp_value(ps, x, spec) ** 2).mean())

        tape = mlp_forward(params, x, spec)
        scalar = (tape.output**2).mean()
        scalar.backward()
        analytic = {n: leaf.grad for n, leaf in tape.params.items()}
        numeric = finite_diff_param_grads(loss, clone_params(params))
        assert grad_match_fraction(analytic, numeric) >= 0.95

    def test_graph_tensor_input_gets_gradients(self):
        rng = np.random.default_rng(13)
        spec = small_spec()
        params = random_params_like(init_mlp(spec, rng), rng)
        const = rng.normal(size=(4, 1))
        x_leaf = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        tape = mlp_forward(params, concat([const, x_leaf], axis=1), spec)
        (tape.output**2).mean().backward()

        def loss(ps, x2):
            x = np.concatenate([const, x2], axis=1)
            return float((mlp_value(ps, x, spec) ** 2).mean())

        analytic = {n: leaf.grad for n, leaf in tape.params.items()}
        numeric = finite_diff_param_grads(lambda ps: loss(ps, x_leaf.data), clone_params(params))
        assert grad_match_fraction(analytic, numeric) >= 0.95
        numeric_x = finite_diff_param_grads(lambda xs: loss(params, xs["x"]),
                                            {"x": x_leaf.data.copy()})
        assert grad_match_fraction({"x": x_leaf.grad}, numeric_x) >= 0.95

    def test_untouched_params_get_zero_gradient(self):
        spec = MlpSpec(in_dim=1, hidden=(), out_dim=1, layer_norm=False)
        params = {"w0": np.array([[2.0]]), "b0": np.zeros(1)}
        tape = mlp_forward(params, np.array([[1.0]]), spec)
        grads = backward(tape, np.zeros((1, 1)))
        assert set(grads) == {"w0", "b0"}
        assert np.array_equal(grads["w0"], np.zeros((1, 1)))


class TestInputDerivative:
    def test_linear_net(self):
        # y = 2 z + s -> dy/dz = 2
        spec = MlpSpec(in_dim=2, hidden=(), out_dim=1, layer_norm=False)
        params = {"w0": np.array([[2.0], [1.0]]), "b0": np.zeros(1)}
        assert input_derivative(params, np.array([[0.3, 0.7]]), spec, 0) == pytest.approx(2.0)

    def test_constant_net(self):
        spec = MlpSpec(in_dim=2, hidden=(), out_dim=1, layer_norm=False)
        params = {"w0": np.zeros((2, 1)), "b0": np.array([5.0])}
        assert input_derivative(params, np.array([[1.0, 2.0]]), spec, 0) == 0.0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(3)
        spec = small_spec()
        params = random_params_like(init_mlp(spec, rng), rng)
        x = rng.normal(size=(1, 3))
        h = 1e-4
        for comp in range(3):
            xp, xm = x.copy(), x.copy()
            xp[0, comp] += h
            xm[0, comp] -= h
            fd = (mlp_value(params, xp, spec) - mlp_value(params, xm, spec))[0, 0] / (2 * h)
            assert input_derivative(params, x, spec, comp) == pytest.approx(fd, abs=1e-4)

    def test_jvp_agrees_with_reverse_mode(self):
        rng = np.random.default_rng(5)
        spec = small_spec()
        params = random_params_like(init_mlp(spec, rng), rng)
        x = rng.normal(size=(6, 3))
        tangent = np.zeros_like(x)
        tangent[:, 1] = 1.0
        value, jvp = mlp_value_and_input_jvp(params, x, spec, tangent)
        np.testing.assert_allclose(value, mlp_value(params, x, spec), atol=1e-14)
        x_t = Tensor(x, requires_grad=True)
        mlp_forward(params, x_t, spec, params_need_grad=False).output.backward(np.ones((6, 1)))
        for row in range(x.shape[0]):
            assert jvp[row, 0] == pytest.approx(x_t.grad[row, 1], rel=1e-10, abs=1e-12)

    def test_non_scalar_output_rejected(self):
        spec = MlpSpec(in_dim=2, hidden=(), out_dim=2, layer_norm=False)
        params = init_mlp(spec, np.random.default_rng(0))
        with pytest.raises(ContractError):
            input_derivative(params, np.zeros((1, 2)), spec, 0)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.for_params(params)
        new, new_state = adam_step(params, {"w": np.zeros(2)}, state, lr=1e-3)
        assert np.array_equal(new["w"], params["w"])
        assert new_state.step == 1

    def test_first_step_is_signed_lr(self):
        # closed form: m_hat = g, v_hat = g^2 -> update = lr * sign(g) / (1 + eps')
        params = {"w": np.zeros(3)}
        g = np.array([0.2, -0.01, 5.0])
        new, _ = adam_step(params, {"w": g}, AdamState.for_params(params), lr=3e-4)
        np.testing.assert_allclose(new["w"], -3e-4 * np.sign(g), rtol=1e-4)

    def test_two_steps_match_scalar_recurrence(self):
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        g = 0.7
        params = {"w": np.array([0.5])}
        state = AdamState.for_params(params)
        for _ in range(2):
            params, state = adam_step(params, {"w": np.array([g])}, state, lr, b1, b2, eps)
        # independent scalar recurrence
        w, m, v = 0.5, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert params["w"][0] == pytest.approx(w, rel=1e-12)
        assert state.step == 2

    def test_non_finite_gradient_raises(self):
        params = {"w": np.zeros(1)}
        with pytest.raises(TrainingError):
            adam_step(params, {"w": np.array([np.nan])}, AdamState.for_params(params), 1e-3)


class TestEma:
    def test_rho_one_copies_online(self):
        tgt = {"w": np.zeros(2)}
        on = {"w": np.array([1.0, 2.0])}
        assert np.array_equal(ema_update(tgt, on, 1.0)["w"], on["w"])

    def test_table_coefficient_value(self):
        out = ema_update({"w": np.zeros(1)}, {"w": np.ones(1)}, 5e-3)
        assert out["w"][0] == pytest.approx(0.005)

    def test_idempotent_when_equal(self):
        p = {"w": np.array([0.3])}
        assert ema_update(p, p, 0.1)["w"][0] == pytest.approx(0.3)

    def test_geometric_convergence(self):
        tgt = {"w": np.zeros(1)}
        on = {"w": np.ones(1)}
        gaps = []
        for _ in range(5):
            tgt = ema_update(tgt, on, 0.25)
            gaps.append(abs(1.0 - tgt["w"][0]))
        ratios = [b / a for a, b in zip(gaps, gaps[1:])]
        assert all(r == pytest.approx(0.75, rel=1e-9) for r in ratios)

    def test_name_mismatch_raises(self):
        with pytest.raises(ConfigError):
            ema_update({"a": np.zeros(1)}, {"b": np.zeros(1)}, 0.5)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        spec = MlpSpec(in_dim=4, hidden=(8,), out_dim=2)
        params = init_mlp(spec, rng)
        params["w0"][0, 0] = np.pi  # make sure non-trivial bits survive
        path = tmp_path / "params.json"
        save_params(params, path)
        loaded = load_params(path)
        assert set(loaded) == set(params)
        for name in params:
            assert loaded[name].dtype == np.float64
            assert np.array_equal(loaded[name], params[name])

    @pytest.mark.parametrize("shape,data", [([2, 2], None), ([2, 3], b"\0" * 47)])
    def test_data_length_must_match_shape(self, shape, data):
        obj = params_to_obj({"w0": np.arange(6.0).reshape(2, 3)})
        obj["params"]["w0"]["shape"] = shape
        if data is not None:
            obj["params"]["w0"]["data"] = base64.b64encode(data).decode("ascii")
        with pytest.raises(ConfigError):
            params_from_obj(obj)


class TestDeterminism:
    def test_identical_seeds_bitwise_identical_training(self):
        def run():
            rng = np.random.default_rng(123)
            spec = small_spec()
            params = init_mlp(spec, rng)
            state = AdamState.for_params(params)
            for _ in range(5):
                x = rng.normal(size=(8, 3))
                tape = mlp_forward(params, x, spec)
                (tape.output**2).mean().backward()
                grads = {n: leaf.grad for n, leaf in tape.params.items()}
                params, state = adam_step(params, grads, state, lr=1e-3)
            return params

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name])
