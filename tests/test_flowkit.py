"""Tests for Euler integration, derivative co-integration, and flow training."""

import numpy as np
import pytest

from flowrl.critic import ReturnField
from flowrl.diffcore import AdamState, adam_step, mlp_value, mlp_value_and_input_jvp
from flowrl.errors import ConfigError, ContractError, IntegrationError
from flowrl.flowkit import (
    IntegrationConfig,
    euler_integrate,
    euler_integrate_with_derivative,
    euler_trajectory,
    sample_times,
)
from flowrl.policies import BcFlowPolicy, bc_flow_loss

from helpers import FuncField

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

    def test_fractional_step_count_rejected(self):
        with pytest.raises(ConfigError):
            IntegrationConfig(2.5)


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
        cfg = IntegrationConfig(13)
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

    @pytest.mark.parametrize("n", [-1, 2.5, True, "3", None])
    def test_bad_count_is_a_contract_error(self, n):
        with pytest.raises(ContractError, match="n must be"):
            sample_times(np.random.default_rng(0), n)

    def test_zero_count_gives_no_times(self):
        assert sample_times(np.random.default_rng(0), np.int64(0)).shape == (0,)


class _RowCountingField(ReturnField):
    """ReturnField that counts how often its (z, t, s, a) rows are built."""

    builds = 0

    def _inputs(self, z, t, s, a):
        self.builds += 1
        return super()._inputs(z, t, s, a)


class _RowCountingPolicy(BcFlowPolicy):
    """BcFlowPolicy that counts how often its (a, t, s) rows are built."""

    builds = 0

    def _inputs(self, a_t, t, s):
        self.builds += 1
        return super()._inputs(a_t, t, s)


class TestConditionedField:
    """A view builds its rows once per solve and gives the net's own values bit for bit."""

    @staticmethod
    def field() -> _RowCountingField:
        base = ReturnField.create(2, 1, np.random.default_rng(4), hidden=(16, 16))
        return _RowCountingField(2, 1, base.params, base.spec)

    @pytest.mark.parametrize("one_state", [False, True])
    def test_one_row_build_per_solve_and_the_field_values_at_every_step(self, one_state):
        field = self.field()
        rng = np.random.default_rng(5)
        s = rng.normal(size=(1 if one_state else 7, 2))
        a = rng.uniform(-1, 1, size=(7, 1))
        view = field.conditioned(s, a)
        x = rng.normal(size=7)
        for k in range(5):
            t = k / 5
            v, dv = view.velocity_and_derivative(x, t)
            assert np.array_equal(view.velocity(x, t), v)
            rows = ReturnField._inputs(field, x, t, s, a)
            tangent = np.zeros_like(rows)
            tangent[:, 0] = 1.0
            want_v, want_dv = mlp_value_and_input_jvp(field.params, rows, field.spec, tangent)
            assert np.array_equal(v, want_v[:, 0]) and np.array_equal(dv, want_dv[:, 0])
            x = x + v * 0.2
        assert field.builds == 1

    def test_another_row_count_or_a_per_row_time_rebuilds_the_rows(self):
        field = self.field()
        rng = np.random.default_rng(6)
        view = field.conditioned(rng.normal(size=2), rng.uniform(-1, 1, size=1))
        euler_integrate(view, rng.normal(size=5), IntegrationConfig(10))
        assert field.builds == 1
        z = rng.normal(size=3)
        t = np.array([0.1, 0.5, 0.9])
        got = view.velocity(z, t)
        assert field.builds == 2
        rows = ReturnField._inputs(field, z, t, *view.context)
        assert np.array_equal(got, mlp_value(field.params, rows, field.spec)[:, 0])
        euler_integrate(view, rng.normal(size=5), IntegrationConfig(10))
        assert field.builds == 3

    @staticmethod
    def policy() -> _RowCountingPolicy:
        base = BcFlowPolicy.create(2, 2, np.random.default_rng(8), hidden=(8, 8))
        return _RowCountingPolicy(2, 2, base.params, base.spec)

    def test_action_rows_are_written_in_place_and_give_the_net_values(self):
        policy = self.policy()
        rng = np.random.default_rng(9)
        s = rng.normal(size=(6, 2))
        view = policy.velocity_given(s)
        x = rng.normal(size=(6, 2))
        for k in range(4):
            got = view.velocity(x.tolist() if k == 2 else x, k / 4)   # a list x is taken too
            rows = BcFlowPolicy._inputs(policy, x, k / 4, s)
            assert np.array_equal(got, mlp_value(policy.params, rows, policy.spec))
            x = x + got * 0.25
        assert policy.builds == 2   # the first call and the list

    def test_one_action_row_over_many_states_is_written_over_every_row(self):
        policy = self.policy()
        rng = np.random.default_rng(10)
        s = rng.normal(size=(5, 2))
        view = policy.velocity_given(s)
        for k in range(3):
            x = rng.normal(size=(1, 2))
            rows = BcFlowPolicy._inputs(policy, x, 0.5, s)
            assert np.array_equal(view.velocity(x, 0.5), mlp_value(policy.params, rows,
                                                                   policy.spec))
        assert policy.builds == 1

    def test_a_bad_flow_variable_is_rejected_after_the_rows_are_built(self):
        view = BcFlowPolicy.create(2, 2, np.random.default_rng(7), hidden=(8,)).velocity_given(
            np.zeros(2))
        view.velocity(np.zeros((4, 2)), 0.0)
        with pytest.raises(ContractError):
            view.velocity(np.zeros((4, 3)), 0.1)

    def test_a_flat_x_is_rejected_for_a_field_of_several_velocity_columns(self):
        view = self.policy().velocity_given(np.random.default_rng(11).normal(size=(5, 2)))
        with pytest.raises(ContractError, match="flat x"):
            view.velocity(np.zeros(2), 0.0)     # it would keep only the first velocity column
        assert view.velocity(np.zeros((1, 2)), 0.0).shape == (5, 2)

    def test_the_derivative_takes_a_flat_x_only(self):
        view = self.field().conditioned(np.zeros(2), np.zeros(1))
        with pytest.raises(ContractError, match="flat x"):    # not (4, 4) after one Euler step
            euler_trajectory(view, np.zeros((4, 1)), IntegrationConfig(1))
        assert euler_trajectory(view, np.zeros(4), IntegrationConfig(1)).x.shape == (4,)


@pytest.mark.slow
def test_trained_flow_fits_gaussian_mixture():
    """A flow trained by bc_flow_loss (no state) pushes noise onto a bimodal target."""
    rng = np.random.default_rng(7)
    flow = BcFlowPolicy.create(0, 1, rng, hidden=(32, 32))
    state = AdamState.for_params(flow.params)

    def draw_mixture(n):
        comp = rng.random(n) < 0.5
        return np.where(comp, rng.normal(-1.0, 0.15, n), rng.normal(1.0, 0.2, n))

    for _ in range(1500):
        loss, tape = bc_flow_loss(flow, np.zeros((256, 0)), draw_mixture(256)[:, None], rng)
        loss.backward()
        grads = {n: leaf.grad for n, leaf in tape.params.items()}
        flow.params, state = adam_step(flow.params, grads, state, lr=1e-3)

    n = 4000
    samples = euler_integrate(flow.velocity_given(np.zeros((n, 0))), rng.normal(size=(n, 1)),
                              IntegrationConfig(10))[:, 0]
    target = draw_mixture(n)
    w1 = np.abs(np.sort(samples) - np.sort(target)).mean()
    assert w1 < 0.05
