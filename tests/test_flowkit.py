"""Tests for Euler integration, derivative co-integration, and the CFM loss."""

import numpy as np
import pytest

from flowrl.diffcore import AdamState, MlpSpec, Tensor, adam_step, init_mlp, mlp_forward, mlp_value
from flowrl.errors import ConfigError, ContractError, IntegrationError
from flowrl.flowkit import (
    FuncField,
    IntegrationConfig,
    cfm_loss,
    euler_integrate,
    euler_integrate_to_times,
    euler_integrate_with_derivative,
    euler_trajectory,
    sample_times,
)

# frozen from the closed-form Euler recurrence (1 + 1/T)^T at T=10
EULER_EXP_T10 = 2.5937424601


class TestEulerIntegrate:
    @pytest.mark.parametrize("steps", [1, 3, 10])
    def test_zero_field_returns_noise(self, steps):
        field = FuncField(lambda x, t: np.zeros_like(x))
        noise = np.array([0.3, -1.2, 4.0])
        out = euler_integrate(field, noise, IntegrationConfig(steps))
        assert np.array_equal(out, noise)

    @pytest.mark.parametrize("steps", [1, 7, 25])
    def test_constant_field_exact(self, steps):
        c = 2.5
        field = FuncField(lambda x, t: np.full_like(x, c))
        out = euler_integrate(field, np.array([1.0]), IntegrationConfig(steps))
        assert out[0] == pytest.approx(1.0 + c, abs=1e-12)

    def test_linear_field_matches_compound_growth(self):
        field = FuncField(lambda x, t: x)
        out = euler_integrate(field, np.array([1.0]), IntegrationConfig(10))
        assert out[0] == pytest.approx(EULER_EXP_T10, abs=1e-9)

    def test_error_halves_when_steps_double(self):
        field = FuncField(lambda x, t: x)
        errors = []
        for steps in (5, 10, 20, 40):
            out = euler_integrate(field, np.array([1.0]), IntegrationConfig(steps))
            errors.append(abs(np.e - out[0]))
        for prev, nxt in zip(errors, errors[1:]):
            assert 0.4 <= nxt / prev <= 0.6

    def test_non_finite_field_raises_with_step_index(self):
        def fn(x, t):
            return np.full_like(x, np.inf) if t > 0.4 else np.zeros_like(x)

        with pytest.raises(IntegrationError) as excinfo:
            euler_integrate(FuncField(fn), np.zeros(1), IntegrationConfig(10))
        assert excinfo.value.step_index == 5

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            IntegrationConfig(0)
        with pytest.raises(ConfigError):
            IntegrationConfig(5, t_init=0.8, t_final=0.2)


class TestEulerWithDerivative:
    def test_x_independent_field_keeps_unit_derivative(self):
        field = FuncField(lambda x, t: np.cos(t) * np.ones_like(x),
                          lambda x, t: np.zeros_like(x))
        _, jac = euler_integrate_with_derivative(field, np.array([0.7]), IntegrationConfig(10))
        assert jac[0] == 1.0

    def test_linear_field_derivative_compounds(self):
        field = FuncField(lambda x, t: x, lambda x, t: np.ones_like(x))
        sample, jac = euler_integrate_with_derivative(field, np.array([1.0]), IntegrationConfig(10))
        assert jac[0] == pytest.approx(EULER_EXP_T10, abs=1e-9)
        assert sample[0] == pytest.approx(EULER_EXP_T10, abs=1e-9)

    def test_sample_component_bitwise_equals_plain_integration(self):
        rng = np.random.default_rng(0)
        field = FuncField(lambda x, t: np.sin(x) + np.asarray(t) * 0.3,
                          lambda x, t: np.cos(x))
        noise = rng.normal(size=8)
        cfg = IntegrationConfig(13, 0.0, 1.0)
        plain = euler_integrate(field, noise, cfg)
        co, _ = euler_integrate_with_derivative(field, noise, cfg)
        assert np.array_equal(plain, co)

    def test_derivative_matches_finite_difference_through_solver(self):
        field = FuncField(lambda x, t: np.tanh(x) - 0.5 * np.asarray(t) * x,
                          lambda x, t: 1.0 / np.cosh(x) ** 2 - 0.5 * np.asarray(t))
        cfg = IntegrationConfig(10)
        rng = np.random.default_rng(1)
        eps = rng.normal(size=20)
        h = 1e-4
        _, jac = euler_integrate_with_derivative(field, eps, cfg)
        hi = euler_integrate(field, eps + h, cfg)
        lo = euler_integrate(field, eps - h, cfg)
        np.testing.assert_allclose(jac, (hi - lo) / (2 * h), atol=1e-3)


class TestPartialTimes:
    def test_matches_scalar_config_on_shared_time(self):
        field = FuncField(lambda x, t: x * 0.5 + 1.0)
        noise = np.array([0.2, -0.4])
        t = 0.35
        a = euler_integrate(field, noise, IntegrationConfig(10, 0.0, t))
        b = euler_integrate_to_times(field, noise, np.full(2, t), 10)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_per_row_times(self):
        # constant field: x(t) = eps + c * t exactly, per row
        c = 3.0
        field = FuncField(lambda x, t: np.full_like(x, c))
        times = np.array([0.1, 0.5, 1.0])
        out = euler_integrate_to_times(field, np.zeros(3), times, 7)
        np.testing.assert_allclose(out, c * times, atol=1e-12)


def _sine_field():
    return FuncField(lambda x, t: np.sin(x) + np.asarray(t) * 0.3, lambda x, t: np.cos(x))


class TestEulerTrajectory:
    """Per-row times read off the nodes of one Euler solve on [0, 1]."""

    @pytest.mark.parametrize("steps", [1, 7, 10])
    def test_end_point_and_derivative_are_the_integrators(self, steps):
        noise = np.random.default_rng(3).normal(size=9)
        cfg = IntegrationConfig(steps)
        traj = euler_trajectory(_sine_field(), noise, cfg)
        x, jac = euler_integrate_with_derivative(_sine_field(), noise, cfg)
        assert np.array_equal(traj.x, x) and np.array_equal(traj.jac, jac)
        assert np.array_equal(traj.x, euler_integrate(_sine_field(), noise, cfg))
        assert np.array_equal(traj.nodes[0], noise)
        assert traj.nodes.shape == traj.velocities.shape == (steps, 9)

    @pytest.mark.parametrize("steps", [1, 7, 10])
    def test_time_one_reads_the_end_point_bit_for_bit(self, steps):
        noise = np.random.default_rng(4).normal(size=6)
        traj = euler_trajectory(_sine_field(), noise, IntegrationConfig(steps))
        assert np.array_equal(traj.at(np.ones(6)), traj.x)

    def test_grid_times_read_the_nodes(self):
        noise = np.random.default_rng(5).normal(size=10)
        # steps = 8: every k / 8 is exact, so each row lands on its node exactly
        traj = euler_trajectory(_sine_field(), noise[:8], IntegrationConfig(8))
        k = np.arange(8)
        assert np.array_equal(traj.at(k / 8.0), traj.nodes[k, k])
        # steps = 10: k / 10 is inexact and may fall just short of node k
        traj = euler_trajectory(_sine_field(), noise, IntegrationConfig(10))
        k = np.arange(10)
        np.testing.assert_allclose(traj.at(k / 10.0), traj.nodes[k, k], rtol=0, atol=1e-12)

    def test_between_nodes_it_is_the_straight_line(self):
        rng = np.random.default_rng(6)
        steps, n = 10, 200
        noise = rng.normal(size=n)
        times = rng.random(n)
        traj = euler_trajectory(_sine_field(), noise, IntegrationConfig(steps))
        ends = np.vstack([traj.nodes, traj.x[None, :]])
        k = np.minimum((times * steps).astype(int), steps - 1)
        rows = np.arange(n)
        frac = times * steps - k
        line = ends[k, rows] + frac * (ends[k + 1, rows] - ends[k, rows])
        np.testing.assert_allclose(traj.at(times), line, rtol=0, atol=1e-12)

    def test_constant_field_is_exact_at_every_time(self):
        c = 3.0
        field = FuncField(lambda x, t: np.full_like(x, c), lambda x, t: np.zeros_like(x))
        rng = np.random.default_rng(7)
        noise, times = rng.normal(size=50), sample_times(rng, 50)
        traj = euler_trajectory(field, noise, IntegrationConfig(7))
        np.testing.assert_allclose(traj.at(times), noise + c * times, rtol=0, atol=1e-12)

    def test_rejects_times_off_the_grid_or_misaligned(self):
        traj = euler_trajectory(_sine_field(), np.zeros(3), IntegrationConfig(5))
        for times in (np.array([0.5, 1.5, 0.5]), np.array([-0.1, 0.5, 0.5]),
                      np.array([0.5, np.nan, 0.5]), np.full(2, 0.5)):
            with pytest.raises(ContractError):
                traj.at(times)

    def test_non_finite_field_raises_with_step_index(self):
        def fn(x, t):
            return np.full_like(x, np.nan) if t > 0.4 else np.zeros_like(x)

        field = FuncField(fn, lambda x, t: np.zeros_like(x))
        with pytest.raises(IntegrationError) as excinfo:
            euler_trajectory(field, np.zeros(2), IntegrationConfig(10))
        assert excinfo.value.step_index == 5


class TestSampleTimes:
    def test_open_closed_interval(self):
        rng = np.random.default_rng(2)
        t = sample_times(rng, 10_000)
        assert t.min() > 0.0
        assert t.max() <= 1.0


class _MlpField:
    """Unconditional scalar field v(x | t) backed by a tiny MLP, for tests."""

    def __init__(self, rng, hidden=(32, 32)):
        self.spec = MlpSpec(in_dim=2, hidden=hidden, out_dim=1, layer_norm=True)
        self.params = init_mlp(self.spec, rng)

    def _inputs(self, x, t):
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        t = np.broadcast_to(np.asarray(t, dtype=np.float64), x.shape)
        return np.stack([x, t], axis=1)

    def velocity(self, x, t):
        return mlp_value(self.params, self._inputs(x, t), self.spec)[:, 0]

    def velocity_tensor(self, x, t):
        x2 = np.asarray(x, dtype=np.float64)
        tape = mlp_forward(self.params, self._inputs(x2[:, 0], t), self.spec)
        self._tape = tape
        return tape.output


class TestCfmLoss:
    def test_perfect_field_gives_zero(self):
        x = np.array([[2.0]])
        eps = np.array([[0.5]])
        field = FuncField(lambda xt, t: np.full_like(xt, 1.5))  # x - eps
        loss = cfm_loss(field, x, eps, np.array([0.3]))
        assert loss.data == pytest.approx(0.0, abs=1e-15)

    def test_zero_field_unit_loss(self):
        field = FuncField(lambda xt, t: np.zeros_like(xt))
        loss = cfm_loss(field, np.array([[1.0]]), np.array([[0.0]]), np.array([0.7]))
        assert loss.data == pytest.approx(1.0)

    def test_empty_batch_rejected(self):
        field = FuncField(lambda xt, t: np.zeros_like(xt))
        with pytest.raises(ContractError):
            cfm_loss(field, np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0))

    def test_value_matches_straight_line_recomputation(self):
        rng = np.random.default_rng(9)
        field = _MlpField(rng)
        data = rng.normal(size=(16, 1))
        noise = rng.normal(size=(16, 1))
        times = sample_times(rng, 16)
        loss = cfm_loss(field, data, noise, times)
        # independent straight-line recomputation
        x_t = times[:, None] * data + (1 - times[:, None]) * noise
        v = mlp_value(field.params, np.stack([x_t[:, 0], times], axis=1), field.spec)
        expected = float(((v - (data - noise)) ** 2).sum(axis=1).mean())
        assert loss.data == pytest.approx(expected, rel=1e-12)


@pytest.mark.slow
def test_trained_flow_fits_gaussian_mixture():
    """CFM-trained field pushes noise onto a bimodal target with small W1."""
    rng = np.random.default_rng(7)
    field = _MlpField(rng)
    state = AdamState.for_params(field.params)

    def draw_mixture(n):
        comp = rng.random(n) < 0.5
        return np.where(comp, rng.normal(-1.0, 0.15, n), rng.normal(1.0, 0.2, n))

    for _ in range(1500):
        data = draw_mixture(256)[:, None]
        noise = rng.normal(size=(256, 1))
        times = sample_times(rng, 256)
        loss = cfm_loss(field, data, noise, times)
        loss.backward()
        grads = {n: leaf.grad for n, leaf in field._tape.params.items()}
        field.params, state = adam_step(field.params, grads, state, lr=1e-3)

    n = 4000
    samples = euler_integrate(field, rng.normal(size=n), IntegrationConfig(10))
    target = draw_mixture(n)
    w1 = np.abs(np.sort(samples) - np.sort(target)).mean()
    assert w1 < 0.05
