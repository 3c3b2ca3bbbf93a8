"""Tests for the MLP and its closed-form reverse pass, optimizer, EMA, and serialization."""

import copy
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowrl.diffcore import (
    AdamState,
    MlpSpec,
    adam_step,
    backward,
    clone_params,
    ema_update,
    init_mlp,
    mlp_forward,
    mlp_value,
    mlp_value_and_input_jvp,
    load_params,
    save_params,
)
from flowrl.diffcore import nn
from flowrl.errors import ConfigError, ContractError, TrainingError

from helpers import exact_gelu, exact_gelu_slope, finite_diff_param_grads, fresh_vjp, fresh_walk, \
    grad_match_fraction, ref_gelu, ref_mlp, random_params_like


def small_spec():
    return MlpSpec(in_dim=3, hidden=(5, 4), out_dim=1)


def mean_square_grad(out: np.ndarray) -> np.ndarray:
    """d/d(out) of mean(out ** 2)."""
    return 2.0 * out / out.size


class TestMlpForward:
    def test_identity_one_layer(self):
        spec = MlpSpec(in_dim=1, hidden=(), out_dim=1)
        params = {"w0": np.array([[1.0]]), "b0": np.zeros(1)}
        out = mlp_value(params, np.array([[1.0]]), spec)
        assert out[0, 0] == 1.0

    def test_zero_weights_outputs_bias(self):
        spec = MlpSpec(in_dim=2, hidden=(), out_dim=3)
        params = {"w0": np.zeros((2, 3)), "b0": np.array([0.5, -1.0, 2.0])}
        out = mlp_value(params, np.array([[7.0, -4.0]]), spec)
        assert np.array_equal(out[0], params["b0"])

    def test_matches_reference_forward(self):
        # seed-fixed 2-layer net vs the independent straight-line oracle
        spec = MlpSpec(in_dim=2, hidden=(6, 6), out_dim=1)
        params = init_mlp(spec, np.random.default_rng(7))
        x = np.array([[0.5, -0.5]])
        got = mlp_value(params, x, spec)
        want = ref_mlp(params, x, spec)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        tape = mlp_forward(params, x, spec)
        np.testing.assert_allclose(tape.output, want, rtol=0, atol=1e-14)

    def test_value_jvp_and_tape_outputs_bit_identical(self):
        rng = np.random.default_rng(12)
        spec = small_spec()
        params = random_params_like(init_mlp(spec, rng), rng)
        x = rng.normal(size=(7, 3))
        value = mlp_value(params, x, spec)
        assert np.array_equal(mlp_value_and_input_jvp(params, x, spec, np.ones_like(x))[0], value)
        assert np.array_equal(mlp_forward(params, x, spec).output, value)

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


class TestWalkMatchesReference:
    """The centred-weight walk against the straight-line LayerNorm MLP of ``ref_mlp``.

    Value and tape outputs agree to rounding; the input JVP agrees with a
    central difference of the reference, so the walk's JVP differentiates
    the LayerNorm net, not only its own arithmetic. The difference is the
    five-point stencil: a width-2 LayerNorm row whose two pre-activations
    nearly agree bends on the scale sqrt(eps), and there the two-point
    difference at a step of 1e-6 was off by up to 1.8e-4 over 1500 random
    nets of this test's family.
    """

    @staticmethod
    def check(spec: MlpSpec, seed: int, rows: int) -> None:
        rng = np.random.default_rng(seed)
        params = random_params_like(init_mlp(spec, rng), rng)
        x = rng.normal(size=(rows, spec.in_dim))
        ref = ref_mlp(params, x, spec)
        tol = 1e-12 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(mlp_value(params, x, spec) - ref) <= tol)
        assert np.all(np.abs(mlp_forward(params, x, spec).output - ref) <= tol)
        tangent = rng.normal(size=x.shape)
        step = 3e-6

        def along(k: float) -> np.ndarray:
            return ref_mlp(params, x + k * step * tangent, spec)

        numeric = (8.0 * (along(1) - along(-1)) - (along(2) - along(-2))) / (12.0 * step)
        assert np.abs(mlp_value_and_input_jvp(params, x, spec, tangent)[1] - numeric).max() <= 1e-6

    @settings(max_examples=50, deadline=None)
    @given(rows=st.integers(1, 300), hidden=st.lists(st.integers(1, 70), min_size=1, max_size=3),
           in_dim=st.integers(1, 20), out_dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_random_nets(self, rows, hidden, in_dim, out_dim, seed):
        self.check(MlpSpec(in_dim=in_dim, hidden=tuple(hidden), out_dim=out_dim), seed, rows)

    def test_fit_tree_shape_at_2000_rows(self):
        self.check(MlpSpec(in_dim=18, hidden=(64, 64), out_dim=1), 31, 2000)


def gelu_and_slope(h: np.ndarray, width: int = 128) -> tuple[np.ndarray, np.ndarray]:
    """The layer walk's GELU and its slope at the points ``h``, ``width`` points per pass.

    A one-hidden-layer net whose LayerNorm scale is 0 and offset holds the
    points feeds exactly them to the activation; an identity output layer
    returns their GELU, and the kept cache holds twice the slope (the walk
    carries the GELU's 1/2 on the next layer's weights), which is halved
    here, exactly.
    """
    values, slopes = [], []
    for start in range(0, h.size, width):
        offset = np.array(h[start:start + width], dtype=np.float64)
        n = offset.size
        spec = MlpSpec(in_dim=1, hidden=(n,), out_dim=n)
        params = {"w0": np.ones((1, n)), "b0": np.zeros(n), "ln0_scale": np.zeros(n),
                  "ln0_offset": offset, "w1": np.eye(n), "b1": np.zeros(n)}
        out, _, cache = nn._walk(params, np.zeros((1, 1)), spec, keep=True)
        values.append(out[0])
        slopes.append(cache[0][3][0] * 0.5)
    return np.concatenate(values), np.concatenate(slopes)


class TestGelu:
    """The activation is the tanh-form GELU; the erf form is only its reference here."""

    GRID = np.concatenate([np.linspace(-8.0, 8.0, 641), [0.0, -2.7, 2.7]])

    def test_value_matches_the_straight_line_tanh_form(self):
        value, _ = gelu_and_slope(self.GRID)
        np.testing.assert_allclose(value, ref_gelu(self.GRID), rtol=1e-15, atol=1e-15)
        assert value[self.GRID == 0.0].tolist() == [0.0, 0.0]

    def test_slope_matches_central_differences_into_the_saturated_tails(self):
        step = 1e-5
        _, slope = gelu_and_slope(self.GRID)
        numeric = (gelu_and_slope(self.GRID + step)[0]
                   - gelu_and_slope(self.GRID - step)[0]) / (2.0 * step)
        np.testing.assert_allclose(slope, numeric, rtol=0, atol=1e-9)
        assert slope[self.GRID == 0.0].tolist() == [0.5, 0.5]
        assert abs(slope[0]) < 1e-12 and abs(slope[640] - 1.0) < 1e-12   # h = -8 and 8

    def test_gap_to_the_erf_form_is_bounded(self):
        h = np.linspace(-10.0, 10.0, 8001)
        value, slope = gelu_and_slope(h)
        assert np.abs(value - exact_gelu(h)).max() <= 4.8e-4
        assert np.abs(slope - exact_gelu_slope(h)).max() <= 8.7e-4


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        spec = small_spec()
        params = random_params_like(init_mlp(spec, rng), rng)
        x = rng.normal(size=(4, 3))

        def loss(ps):
            return float((mlp_value(ps, x, spec) ** 2).mean())

        tape = mlp_forward(params, x, spec)
        grads = backward(tape, mean_square_grad(tape.output))
        assert all(grads[n] is leaf.grad for n, leaf in tape.params.items())
        numeric = finite_diff_param_grads(loss, clone_params(params))
        assert grad_match_fraction(grads, numeric) >= 0.95

    def test_graph_tensor_input_gets_gradients(self):
        # the input JVP differentiates part of the input (here its last two columns)
        rng = np.random.default_rng(13)
        spec = small_spec()
        params = random_params_like(init_mlp(spec, rng), rng)
        const = rng.normal(size=(4, 1))
        x2 = rng.normal(size=(4, 2))
        x = np.concatenate([const, x2], axis=1)
        tape = mlp_forward(params, x, spec)
        seed = mean_square_grad(tape.output)
        gx = seed * np.stack([unit_tangent_jvp(params, x, spec, c) for c in (1, 2)], axis=1)
        analytic = backward(tape, seed)

        def loss(ps, x2):
            x = np.concatenate([const, x2], axis=1)
            return float((mlp_value(ps, x, spec) ** 2).mean())

        numeric = finite_diff_param_grads(lambda ps: loss(ps, x2), clone_params(params))
        assert grad_match_fraction(analytic, numeric) >= 0.95
        numeric_x = finite_diff_param_grads(lambda xs: loss(params, xs["x"]), {"x": x2.copy()})
        assert grad_match_fraction({"x": gx}, numeric_x) >= 0.95

    def test_output_grad_of_the_wrong_shape_is_rejected(self):
        spec = small_spec()
        tape = mlp_forward(init_mlp(spec, np.random.default_rng(0)), np.zeros((4, 3)), spec)
        for bad in (np.ones((4, 2)), np.ones((3, 1))):
            with pytest.raises(ContractError):
                backward(tape, bad)

    def test_untouched_params_get_zero_gradient(self):
        spec = MlpSpec(in_dim=1, hidden=(), out_dim=1)
        params = {"w0": np.array([[2.0]]), "b0": np.zeros(1)}
        tape = mlp_forward(params, np.array([[1.0]]), spec)
        grads = backward(tape, np.zeros((1, 1)))
        assert set(grads) == {"w0", "b0"}
        assert np.array_equal(grads["w0"], np.zeros((1, 1)))


def _bit_equal(got: dict, want: dict) -> bool:
    return set(got) == set(want) and all(np.array_equal(got[k], want[k]) for k in want)


class TestWorkspace:
    """The reused layer buffers change no bit of any output or gradient."""

    ROWS = (1, 32, 255, 256, 257, 2000)

    @staticmethod
    def nets():
        rng = np.random.default_rng(21)
        out = []
        for spec in (MlpSpec(in_dim=18, hidden=(64, 64), out_dim=1),
                     MlpSpec(in_dim=5, hidden=(32, 48), out_dim=3),
                     MlpSpec(in_dim=4, hidden=(48,), out_dim=2)):
            out.append((spec, random_params_like(init_mlp(spec, rng), rng)))
        return out

    def test_every_pass_matches_fresh_arithmetic_bit_for_bit(self):
        rng = np.random.default_rng(22)
        nets = self.nets()
        # the same nets with every GELU input 30 times larger, most in the tails where tanh
        # rounds to +-1: a LayerNorm's scale and offset set the GELU's inputs, while scaling
        # the network's input would move none of them, as the normalization takes it out
        nets += [(spec, nn.ParamSet({k: v * 30.0 if k.startswith("ln") else v
                                     for k, v in params.items()})) for spec, params in nets]
        # ascending then descending row counts, the specs interleaved at each
        for rows in self.ROWS + self.ROWS[::-1]:
            for spec, params in nets:
                x = rng.normal(size=(rows, spec.in_dim))
                tangent = rng.normal(size=x.shape)
                seed = rng.normal(size=(rows, spec.out_dim))
                want_value, want_jvp, cache = fresh_walk(params, x, spec, tangent, keep=True)
                want_grads, want_gx = fresh_vjp(params, cache, seed)

                assert np.array_equal(mlp_value(params, x, spec), want_value)
                value, jvp = mlp_value_and_input_jvp(params, x, spec, tangent)
                assert np.array_equal(value, want_value) and np.array_equal(jvp, want_jvp)
                assert _bit_equal(backward(mlp_forward(params, x, spec), seed), want_grads)
                # the input case: the JVP is the adjoint of the reverse-mode input gradient,
                # <seed, J tangent> = <J^T seed, tangent>, up to rounding in either sum
                assert abs(np.vdot(seed, jvp) - np.vdot(want_gx, tangent)) <= 1e-12 * (
                    np.abs(seed * jvp).sum())

    def test_returned_arrays_are_not_overwritten_by_later_calls(self):
        rng = np.random.default_rng(23)
        (spec, params), (other_spec, other_params) = self.nets()[:2]
        x = rng.normal(size=(256, spec.in_dim))
        tangent = np.ones_like(x)
        seed = np.ones((256, 1))
        held = [mlp_value(params, x, spec), *mlp_value_and_input_jvp(params, x, spec, tangent),
                *backward(mlp_forward(params, x, spec), seed).values()]
        copies = [a.copy() for a in held]
        y = rng.normal(size=x.shape)
        mlp_value(params, y, spec)
        mlp_value_and_input_jvp(params, y, spec, tangent)
        backward(mlp_forward(params, y, spec), seed)
        mlp_value_and_input_jvp(other_params, rng.normal(size=(256, other_spec.in_dim)),
                                other_spec, np.ones((256, other_spec.in_dim)))
        assert all(np.array_equal(a, c) for a, c in zip(held, copies))

    def test_two_live_tapes_of_one_shape_backprop_correctly(self):
        # two nets of one spec on one input, both tapes live while a JVP pass reuses the
        # workspace, then each backward seeded on the rows where its net is the minimum
        rng = np.random.default_rng(24)
        spec = MlpSpec(in_dim=6, hidden=(64, 64), out_dim=1)
        params = [random_params_like(init_mlp(spec, rng), rng) for _ in range(2)]
        x = rng.normal(size=(300, 6))
        tapes = [mlp_forward(p, x, spec) for p in params]
        mlp_value_and_input_jvp(params[0], rng.normal(size=x.shape), spec, np.ones_like(x))
        first = (tapes[0].output <= tapes[1].output)[:, 0]
        masks = (first, ~first)
        for p, tape, mask in zip(params, tapes, masks):
            want, _ = fresh_vjp(p, fresh_walk(p, x, spec, keep=True)[2], mask[:, None] * 1.0)
            assert _bit_equal(backward(tape, mask[:, None] * 1.0), want)

    def test_workspace_reuses_within_capacity_and_never_pools_past_its_bound(self):
        ws = nn._Workspace()
        big = ws.take(0, 300, 64)
        small = ws.take(0, 40, 64)
        assert small.base is big.base and small.flags.c_contiguous
        assert ws.take(1, 300, 64).base is not big.base   # another slot, another array
        rows = nn._POOLED_MAX // 64 + 1
        assert ws.take(0, rows, 64).shape == (rows, 64)
        assert ws.arrays[(0, 64)].shape == (300, 64)

    @pytest.mark.parametrize("with_jvp", [False, True])
    def test_steady_state_pass_allocates_less_than_one_hidden_array(self, with_jvp):
        spec, params = self.nets()[0]
        x = np.random.default_rng(25).normal(size=(2000, spec.in_dim))
        tangent = np.ones_like(x)

        def run():
            if with_jvp:
                return mlp_value_and_input_jvp(params, x, spec, tangent)
            return mlp_value(params, x, spec)

        run()  # warm-up: the workspace grows to 2000 rows here
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.shape[0] * spec.hidden[0] * 8


def unit_tangent_jvp(params, x, spec, component):
    """d(output)/d(input component) per row: the input JVP along a unit tangent."""
    tangent = np.zeros_like(x)
    tangent[:, component] = 1.0
    return mlp_value_and_input_jvp(params, x, spec, tangent)[1][:, 0]


class TestInputDerivative:
    def test_linear_net(self):
        # y = 2 z + s -> dy/dz = 2
        spec = MlpSpec(in_dim=2, hidden=(), out_dim=1)
        params = {"w0": np.array([[2.0], [1.0]]), "b0": np.zeros(1)}
        assert unit_tangent_jvp(params, np.array([[0.3, 0.7]]), spec, 0)[0] == pytest.approx(2.0)

    def test_constant_net(self):
        spec = MlpSpec(in_dim=2, hidden=(), out_dim=1)
        params = {"w0": np.zeros((2, 1)), "b0": np.array([5.0])}
        assert unit_tangent_jvp(params, np.array([[1.0, 2.0]]), spec, 0)[0] == 0.0

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
            assert unit_tangent_jvp(params, x, spec, comp)[0] == pytest.approx(fd, abs=1e-4)

    def test_jvp_agrees_with_reverse_mode(self):
        rng = np.random.default_rng(5)
        spec = small_spec()
        params = random_params_like(init_mlp(spec, rng), rng)
        x = rng.normal(size=(6, 3))
        tangent = np.zeros_like(x)
        tangent[:, 1] = 1.0
        value, jvp = mlp_value_and_input_jvp(params, x, spec, tangent)
        np.testing.assert_allclose(value, mlp_value(params, x, spec), atol=1e-14)
        _, gx = fresh_vjp(params, fresh_walk(params, x, spec, keep=True)[2], np.ones((6, 1)))
        for row in range(x.shape[0]):
            assert jvp[row, 0] == pytest.approx(gx[row, 1], rel=1e-10, abs=1e-12)


class TestParamSet:
    @staticmethod
    def net():
        spec = small_spec()
        return spec, init_mlp(spec, np.random.default_rng(31))

    def test_one_flat_vector_under_named_read_only_views(self):
        spec, params = self.net()
        assert list(params) == ["w0", "b0", "ln0_scale", "ln0_offset", "w1", "b1", "ln1_scale",
                                "ln1_offset", "w2", "b2"]
        assert np.array_equal(np.concatenate([v.ravel() for v in params.values()]), params.flat)
        assert all(np.shares_memory(v, params.flat) for v in params.values())
        centred_w, centred_b = params.layers(spec)[0][:2]
        for target in (params.flat, params["w1"], params["ln0_scale"], centred_w, centred_b):
            with pytest.raises(ValueError, match="read-only"):
                target[0] = 1.0
        with pytest.raises(TypeError):
            params["w0"] = np.zeros((3, 5))
        pickled = pickle.loads(pickle.dumps(params))
        for copied in (copy.copy(params), copy.deepcopy(params), pickled):
            assert list(copied) == list(params) and copied.flat.tobytes() == params.flat.tobytes()
            assert not copied.flat.flags.writeable and np.shares_memory(copied["w1"], copied.flat)

    def test_a_mapping_is_copied_once_and_a_set_passes_through(self):
        spec, params = self.net()
        arrays = {k: v.copy() for k, v in params.items()}
        copied = nn.ParamSet.of(arrays)
        assert nn.ParamSet.of(copied) is copied and nn.ParamSet.of(params) is params
        arrays["w0"][0, 0] = 5.0
        assert copied["w0"][0, 0] == params["w0"][0, 0]

    def test_every_writer_builds_a_new_set(self):
        spec, params = self.net()
        before = params.flat.copy()
        tape = mlp_forward(params, np.ones((4, 3)), spec)
        grads = backward(tape, mean_square_grad(tape.output))
        new, _ = adam_step(params, grads, AdamState.for_params(params), 1e-2)
        others = [clone_params(params), new, ema_update(params, new, 0.5), grads]
        assert all(isinstance(p, nn.ParamSet) and p is not params for p in others)
        assert len({id(p.flat) for p in others + [params]}) == 5
        assert np.array_equal(params.flat, before)

    def test_walks_centre_once_per_set_and_again_after_each_write(self, monkeypatch):
        calls = []

        def counting_centred(w, b):
            calls.append(w.shape)
            return centred(w, b)

        centred = nn._centred
        monkeypatch.setattr(nn, "_centred", counting_centred)
        spec, params = self.net()
        x = np.random.default_rng(33).normal(size=(6, 3))
        hidden = len(spec.hidden)
        for _ in range(10):
            mlp_value(params, x, spec)
        assert len(calls) == hidden
        state = AdamState.for_params(params)
        for _ in range(3):
            calls.clear()
            new, state = adam_step(params, {k: np.ones_like(v) for k, v in params.items()},
                                   state, 1e-2)
            for _ in range(10):
                mlp_value(new, x, spec)
            assert len(calls) == hidden
            calls.clear()
            params = ema_update(params, new, 0.5)
            for _ in range(10):
                mlp_value_and_input_jvp(params, x, spec, np.ones_like(x))
            assert len(calls) == hidden

    def test_a_plan_is_made_for_its_spec_and_checked_against_it(self):
        spec, params = self.net()
        x = np.zeros((2, 3))
        mlp_value(params, x, spec)
        with pytest.raises(ConfigError):
            mlp_value(params, x, MlpSpec(in_dim=3, hidden=(5, 5), out_dim=1))
        extra = dict(params, extra=np.zeros(2))
        with pytest.raises(ConfigError):
            mlp_value(extra, x, spec)


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
            params, state = adam_step(params, {"w": np.array([g])}, state, lr)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_names_its_parameter(self, bad):
        spec = small_spec()
        params = init_mlp(spec, np.random.default_rng(3))
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        grads["ln1_scale"][2] = bad
        with pytest.raises(TrainingError, match="ln1_scale"):
            adam_step(params, grads, AdamState.for_params(params), 1e-3)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -1.0, 0.0])
    def test_step_size_that_is_not_finite_and_positive_raises_config_error(self, lr):
        # nan and inf once gave non-finite parameters and -1.0 climbed the loss, all silently
        params = init_mlp(small_spec(), np.random.default_rng(3))
        grads = {k: np.ones_like(v) for k, v in params.items()}
        with pytest.raises(ConfigError, match="lr"):
            adam_step(params, grads, AdamState.for_params(params), lr)

    @pytest.mark.parametrize("damage", ["missing", "extra", "shape"])
    def test_gradient_name_or_shape_mismatch_raises_config_error(self, damage):
        params = {"w": np.zeros((2, 3)), "b": np.zeros(3)}
        grads = {"w": np.zeros((2, 3)), "b": np.zeros(3)}
        if damage == "missing":
            del grads["b"]
        elif damage == "extra":
            grads["c"] = np.zeros(1)
        else:
            grads["w"] = np.zeros((3, 2))
        with pytest.raises(ConfigError):
            adam_step(params, grads, AdamState.for_params(params), 1e-3)

    def test_flat_update_matches_the_per_array_update_bit_for_bit(self):
        rng = np.random.default_rng(8)
        spec = small_spec()
        params = random_params_like(init_mlp(spec, rng), rng)
        state = AdamState.for_params(params)
        want, m, v = {k: a.copy() for k, a in params.items()}, {}, {}
        for t in (1, 2, 3):
            grads = {k: rng.normal(size=a.shape) for k, a in params.items()}
            params, state = adam_step(params, grads, state, 1e-2)
            for k, g in grads.items():
                m[k] = 0.9 * m.get(k, 0.0) + (1.0 - 0.9) * g
                v[k] = 0.999 * v.get(k, 0.0) + (1.0 - 0.999) * g * g
                want[k] = want[k] - 1e-2 * (m[k] / (1.0 - 0.9**t)) / (
                    np.sqrt(v[k] / (1.0 - 0.999**t)) + 1e-8)
        assert _bit_equal(params, want)


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
        flat = params.flat.copy()
        flat[0] = np.pi  # w0[0, 0]: make sure non-trivial bits survive
        params = params.with_flat(flat)
        path = tmp_path / "params.json"
        save_params(params, path)
        loaded = load_params(path)
        assert set(loaded) == set(params)
        for name in params:
            assert loaded[name].dtype == np.float64
            assert np.array_equal(loaded[name], params[name])

    def test_a_file_of_the_dict_format_loads_bit_for_bit(self, tmp_path):
        # written before parameter sets were flat: init_mlp then three Adam steps, replayed here
        path = Path(__file__).parent / "data" / "params_v1.json"
        spec = MlpSpec(in_dim=4, hidden=(8, 8), out_dim=2)
        rng = np.random.default_rng(2016)
        params = init_mlp(spec, rng)
        state = AdamState.for_params(params)
        for _ in range(3):
            tape = mlp_forward(params, rng.normal(size=(16, 4)), spec)
            grads = backward(tape, tape.output * (2.0 / tape.output.size))
            params, state = adam_step(params, grads, state, lr=0.05)
        loaded = load_params(path)
        assert list(loaded) == list(params)
        assert loaded.flat.tobytes() == params.flat.tobytes()
        save_params(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == path.read_text()


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
                grads = backward(tape, mean_square_grad(tape.output))
                params, state = adam_step(params, grads, state, lr=1e-3)
            return params

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name])
