"""Tests for the return critic: estimators, confidence weight, and losses."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import flowrl.critic as critic_module
from flowrl.critic import (
    CriticBatch,
    CriticConfig,
    ReturnField,
    antithetic_noises,
    ensemble_q,
    ensemble_q_and_action_grad,
    sample_return,
    value_flow_loss,
    variance_estimate,
    _bcfm_rows,
    _dcfm_rows,
    _draw_loss_quantities,
    _q_rows,
    _weight_from_jac,
)
from flowrl.diffcore import MlpSpec, MlpTape, backward, mlp_forward, mlp_value_and_input_jvp
from flowrl.envs import BranchingTree
from flowrl.errors import ConfigError, ContractError
from flowrl.flowkit import IntegrationConfig, euler_integrate_with_derivative, euler_trajectory
from scipy.stats import norm

from helpers import FuncField, critic_ensemble_q, loss_grad_match, q_estimate, random_params_like, \
    ref_mlp, reverse_action_grad

DS, DA = 2, 1
STATE = np.array([0.3, -0.7])
ACTION = np.array([0.5])


def linear_field(w_z=0.0, w_t=0.0, bias=0.0, ds=DS, da=DA) -> ReturnField:
    spec = MlpSpec(in_dim=2 + ds + da, hidden=(), out_dim=1)
    w = np.zeros((2 + ds + da, 1))
    w[0, 0] = w_z
    w[1, 0] = w_t
    params = {"w0": w, "b0": np.array([float(bias)])}
    return ReturnField(ds, da, params, spec)


def random_field(seed, ds=DS, da=DA, hidden=(8, 8)) -> ReturnField:
    return ReturnField.create(ds, da, np.random.default_rng(seed), hidden=hidden)


def wide_config(**over) -> CriticConfig:
    defaults = dict(gamma=0.9, z_lo=-100.0, z_hi=100.0)
    defaults.update(over)
    return CriticConfig(**defaults)


def uniform_action_sampler(s_next, rng):
    n = np.atleast_2d(s_next).shape[0]
    return rng.choice([-1.0, 1.0], size=(n, DA))


def make_batch(n=8, terminal=False, seed=0) -> CriticBatch:
    """``terminal`` is one flag for every row or a per-row mask."""
    rng = np.random.default_rng(seed)
    return CriticBatch(
        s=rng.normal(size=(n, DS)),
        a=rng.uniform(-1, 1, size=(n, DA)),
        r=rng.uniform(-1, 1, size=n),
        s_next=rng.normal(size=(n, DS)),
        terminal=np.broadcast_to(np.asarray(terminal, dtype=bool), (n,)).copy(),
    )


def flow_weight(field, eps, tau, flow_steps=10) -> np.ndarray:
    """The confidence weight as ``value_flow_loss`` forms it: from the t = 1 flow derivative."""
    cond = field.conditioned(STATE, ACTION)
    _, jac = euler_integrate_with_derivative(cond, eps, IntegrationConfig(flow_steps))
    return _weight_from_jac(jac, tau)


# tau limits that pin every confidence weight: -tau/|J| rounds to 0 (w = 1) or to -inf (w = 1/2)
TAU_UNIT_WEIGHTS, TAU_HALF_WEIGHTS = 1e-300, 1e300


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            CriticConfig(gamma=1.0, z_lo=0, z_hi=1)
        with pytest.raises(ConfigError):
            CriticConfig(gamma=0.9, z_lo=0, z_hi=1, tau=0.0)
        with pytest.raises(ConfigError):
            CriticConfig(gamma=0.9, z_lo=2, z_hi=1)

    @pytest.mark.parametrize("field,value", [("lam", np.nan), ("tau", np.nan), ("z_lo", np.nan),
                                             ("z_hi", np.nan), ("flow_steps", 2.5)])
    def test_rejects_nan_and_fractional_steps(self, field, value):
        with pytest.raises(ConfigError):
            CriticConfig(**{"gamma": 0.9, "z_lo": 0.0, "z_hi": 1.0, field: value})

    def test_for_env_uses_reward_bounds(self):
        env = BranchingTree()
        cfg = CriticConfig.for_env(env)
        assert cfg.z_lo == pytest.approx(-2.0)
        assert cfg.z_hi == pytest.approx(2.0)
        assert cfg.gamma == env.gamma


class TestSampleReturn:
    def test_zero_field_returns_noise(self):
        field = linear_field()
        eps = np.array([0.4, -1.1])
        z = sample_return(field, STATE, ACTION, eps, wide_config())
        np.testing.assert_allclose(z, eps, atol=1e-12)

    def test_constant_field_shifts_noise(self):
        field = linear_field(bias=2.5)
        z = sample_return(field, STATE, ACTION, np.array([0.1]), wide_config())
        assert z[0] == pytest.approx(2.6, abs=1e-12)

    def test_clipping(self):
        field = linear_field(bias=50.0)
        cfg = wide_config(z_lo=-1.0, z_hi=1.0)
        z = sample_return(field, STATE, ACTION, np.array([0.0]), cfg)
        assert z[0] == 1.0

    def test_non_finite_noise_is_a_contract_error(self):
        with pytest.raises(ContractError, match="non-finite"):
            sample_return(random_field(0), STATE, ACTION, np.array([0.2, np.nan]), wide_config())


class TestQEstimate:
    def test_point_mass_field_with_antithetic_pair(self):
        z_star = 3.2
        field = linear_field(w_z=-1.0, bias=z_star)  # v(eps | 0) = z* - eps
        q = ensemble_q([field], STATE, ACTION, np.array([0.8, -0.8]))
        assert q.shape == (1,) and q[0] == pytest.approx(z_star)

    def test_constant_field(self):
        field = linear_field(bias=-1.7)
        assert ensemble_q([field], STATE, ACTION, np.array([0.3]))[0] == pytest.approx(-1.7)

    def test_antithetic_noises_are_symmetric(self):
        eps = antithetic_noises(np.random.default_rng(0), 64)
        assert eps.size == 64
        assert eps.sum() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [True, 2.5, 0])
    def test_antithetic_noise_count_must_be_a_positive_integer(self, n):
        with pytest.raises(ContractError):
            antithetic_noises(np.random.default_rng(0), n)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("q_pass", [ensemble_q, ensemble_q_and_action_grad])
    def test_non_finite_noise_rejected(self, q_pass, bad):
        with pytest.raises(ContractError, match="non-finite"):
            q_pass([linear_field(bias=-1.7)], STATE[None], ACTION[None], np.array([0.3, bad]))


class _AffineTransportField:
    """Exact field for the straight-line coupling eps -> mu + sigma * eps."""

    def __init__(self, mu, sigma):
        self.mu, self.sigma = mu, sigma

    def conditioned(self, s, a):
        mu, sigma = self.mu, self.sigma

        class _Cond:
            def velocity_and_derivative(self, x, t):
                slope = (sigma - 1.0) / (1.0 + np.asarray(t) * (sigma - 1.0))
                return mu + slope * (x - np.asarray(t) * mu), np.broadcast_to(slope, np.shape(x)).astype(float)

        return _Cond()


class _MixtureMarginalField:
    """Exact marginal velocity of a Gaussian-mixture return law, independent coupling.

    Under x_t = t * z + (1 - t) * eps with z ~ sum_i w_i N(mu_i, sd_i^2), component i
    has x_t ~ N(t * mu_i, s_i^2), s_i^2 = t^2 sd_i^2 + (1 - t)^2, and the velocity
    E[z - eps | x_t = x, i] = mu_i + c_i * (x - t * mu_i), c_i = (t sd_i^2 - (1 - t)) / s_i^2.
    The marginal velocity mixes these by the posterior of i given x_t = x, and its
    x-derivative is the posterior mean of c_i plus the posterior covariance of the
    component score -(x - t * mu_i) / s_i^2 with the component velocity.
    """

    def __init__(self, weights, means, sds):
        self.log_w = np.log(np.asarray(weights, dtype=np.float64))
        self.means = np.asarray(means, dtype=np.float64)
        self.var = np.asarray(sds, dtype=np.float64) ** 2

    @property
    def variance(self) -> float:
        w = np.exp(self.log_w)
        return float(w @ (self.var + self.means**2) - (w @ self.means) ** 2)

    def velocity_and_derivative(self, x, t):
        d = np.asarray(x)[..., None] - t * self.means
        s2 = t * t * self.var + (1.0 - t) ** 2
        c = (t * self.var - (1.0 - t)) / s2
        v_i = self.means + c * d
        log_post = self.log_w - 0.5 * np.log(s2) - 0.5 * d * d / s2
        post = np.exp(log_post - log_post.max(axis=-1, keepdims=True))
        post /= post.sum(axis=-1, keepdims=True)
        score = -d / s2
        v = (post * v_i).sum(-1)
        dv = (post * c).sum(-1) + (post * score * v_i).sum(-1) - (post * score).sum(-1) * v
        return v, dv

    def conditioned(self, s, a):
        return FuncField(lambda x, t: self.velocity_and_derivative(x, t)[0],
                         lambda x, t: self.velocity_and_derivative(x, t)[1])


# 2000 standard-normal quantiles: a low-discrepancy noise set, so sample moments
# over it carry the Euler error and almost no sampling error
QUANTILE_NOISES = norm.ppf((np.arange(2000) + 0.5) / 2000)


class TestVarianceEstimateAnalytic:
    def test_field_derivative_matches_central_differences(self):
        field = _MixtureMarginalField([0.3, 0.7], [-1.5, 1.5], [0.5, 0.5])
        x, h = np.linspace(-3.0, 3.0, 13), 1e-6
        for t in (0.0, 0.5, 0.9):
            _, dv = field.velocity_and_derivative(x, t)
            fd = (field.velocity_and_derivative(x + h, t)[0]
                  - field.velocity_and_derivative(x - h, t)[0]) / (2 * h)
            np.testing.assert_allclose(dv, fd, rtol=0.0, atol=1e-7)

    def test_gaussian_target_gives_sigma_squared_to_first_order(self):
        # The exact map is eps -> mu + sigma * eps, so E[J^2] = sigma^2; the forward
        # Euler error is first order: it halves when the step count doubles.
        field = _MixtureMarginalField([1.0], [1.0], [0.7])
        errors = [variance_estimate(field, STATE, ACTION, QUANTILE_NOISES, flow_steps=k) - 0.49
                  for k in (100, 200)]
        assert abs(errors[0]) < 0.03 * 0.49
        assert 0.4 < errors[1] / errors[0] < 0.6

    def test_mixture_sample_variance_matches_and_ej2_bounds_it(self):
        field = _MixtureMarginalField([0.3, 0.7], [-1.5, 1.5], [0.5, 0.5])
        traj = euler_trajectory(field.conditioned(STATE, ACTION), QUANTILE_NOISES,
                                IntegrationConfig(100))
        assert traj.x.var() == pytest.approx(field.variance, rel=0.03)
        # Gaussian Poincare inequality: Var f(eps) <= E[f'(eps)^2] for the transport map f
        ej2 = variance_estimate(field, STATE, ACTION, QUANTILE_NOISES, flow_steps=100)
        assert ej2 == pytest.approx(float((traj.jac**2).mean()), rel=1e-12)
        assert ej2 >= field.variance


class TestVarianceEstimate:
    def test_z_independent_field_gives_prior_variance(self):
        field = linear_field(w_t=0.7, bias=0.2)  # ignores z entirely
        est = variance_estimate(field, STATE, ACTION, np.array([0.5, -0.2]), flow_steps=10)
        assert est == pytest.approx(1.0)

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_affine_transport_recovers_sigma_squared(self, sigma):
        field = _AffineTransportField(mu=1.0, sigma=sigma)
        est = variance_estimate(field, STATE, ACTION, np.array([0.3, -0.9, 1.4]),
                                flow_steps=200)
        assert est == pytest.approx(sigma**2, rel=2e-2)

    def test_nonnegative_on_random_fields(self):
        for seed in range(5):
            field = random_field(seed)
            eps = np.random.default_rng(seed).standard_normal(8)
            assert variance_estimate(field, STATE, ACTION, eps, flow_steps=10) >= 0.0

    def test_non_finite_noise_is_a_contract_error(self):
        with pytest.raises(ContractError, match="non-finite"):
            variance_estimate(random_field(0), STATE, ACTION, np.array([0.5, np.inf]),
                              flow_steps=10)


class TestConfidenceWeight:
    def test_constant_field_value_frozen(self):
        # J = 1, tau = 1 -> sigmoid(-1) + 0.5 = 0.768941...
        field = linear_field(bias=4.0)
        w = flow_weight(field, np.array([0.2]), tau=1.0)
        assert w[0] == pytest.approx(0.7689414213699951, abs=1e-6)

    def test_huge_derivative_limit_is_one(self):
        field = linear_field(w_z=30.0)  # J = (1 + 3)^10, enormous
        w = flow_weight(field, np.array([0.0]), tau=1.0)
        assert w[0] == pytest.approx(1.0, abs=1e-2)

    def test_zero_derivative_limit_is_half(self):
        field = linear_field(w_z=-10.0)  # first Euler factor (1 - 10/10) kills J
        w = flow_weight(field, np.array([0.3]), tau=1.0)
        assert w[0] == 0.5

    def test_bounds_and_monotonicity(self):
        jac = np.concatenate([np.linspace(0, 5, 200), [1e12]])
        for tau in (0.1, 1.0, 3.0):
            w = _weight_from_jac(jac, tau)
            assert np.all(w >= 0.5) and np.all(w <= 1.0)
            assert np.all(np.diff(w) >= 0)  # non-decreasing everywhere
            # strictly increasing wherever sigmoid(-tau/|J|) is representable
            rep = np.linspace(tau / 30.0, 5.0, 100)
            assert np.all(np.diff(_weight_from_jac(rep, tau)) > 0)
        w_small_tau = _weight_from_jac(np.array([1.0]), 0.5)
        w_big_tau = _weight_from_jac(np.array([1.0]), 2.0)
        assert w_small_tau > w_big_tau  # decreasing in tau

    @pytest.mark.filterwarnings("error")
    def test_vanishing_derivative_takes_half_limit_without_warning(self):
        w = _weight_from_jac(np.array([1e-300, -1e-300, 0.0]), 1.0)
        assert np.all(w == 0.5)

    def test_rejects_nonpositive_tau(self):
        # the weight's tau reaches value_flow_loss only through the config
        for tau in (0.0, -1.0):
            with pytest.raises(ConfigError):
                wide_config(tau=tau)


class TestDcfmLoss:
    def test_constant_fields_zero_loss(self):
        online = linear_field(bias=1.3)
        target = linear_field(bias=1.3)
        batch = make_batch()
        loss, _, diag = value_flow_loss(online, target, uniform_action_sampler, batch,
                                        wide_config(lam=0.0), np.random.default_rng(0))
        assert loss.data == pytest.approx(0.0, abs=1e-20)
        assert diag["dcfm"] == pytest.approx(0.0, abs=1e-20)

    def test_half_weights_halve_loss(self):
        online, target = random_field(1), random_field(2)
        batch = make_batch()
        full, _, full_diag = value_flow_loss(online, target, uniform_action_sampler, batch,
                                             wide_config(lam=0.0, tau=TAU_UNIT_WEIGHTS),
                                             np.random.default_rng(3))
        half, _, half_diag = value_flow_loss(online, target, uniform_action_sampler, batch,
                                             wide_config(lam=0.0, tau=TAU_HALF_WEIGHTS),
                                             np.random.default_rng(3))
        assert (full_diag["mean_weight"], half_diag["mean_weight"]) == (1.0, 0.5)
        assert half.data == pytest.approx(0.5 * full.data, rel=1e-12)

    def test_fixed_seed_value_matches_recomputation(self):
        online, target = random_field(4), random_field(5)
        batch = make_batch(n=6, seed=7)
        cfg = wide_config(lam=0.0, tau=2.0)
        loss, _, _ = value_flow_loss(online, target, uniform_action_sampler, batch, cfg,
                                     np.random.default_rng(9))
        # independent straight-line recomputation with replayed randomness
        d = _draw_loss_quantities(target, uniform_action_sampler, batch, cfg,
                                  np.random.default_rng(9))
        weights = _weight_from_jac(d.jac1, cfg.tau)
        z_in = batch.r + cfg.gamma * d.z_t
        x = np.concatenate([z_in[:, None], d.t[:, None], batch.s, batch.a], axis=1)
        v = ref_mlp(online.params, x, online.spec)[:, 0]
        expected = float(np.mean(weights * (v - d.vbar_t) ** 2))
        assert loss.data == pytest.approx(expected, rel=1e-12)

    def test_terminal_rows_ignore_target_field(self):
        online = random_field(6)
        batch = make_batch(n=5, terminal=True)
        cfg = wide_config()
        losses = []
        for target_seed in (100, 200):
            d = _draw_loss_quantities(random_field(target_seed), uniform_action_sampler, batch,
                                      cfg, np.random.default_rng(1))
            z_in, tgt = _dcfm_rows(batch, d, cfg)
            x = np.concatenate([z_in[:, None], d.t[:, None], batch.s, batch.a], axis=1)
            v = ref_mlp(online.params, x, online.spec)[:, 0]
            losses.append(float(np.mean((v - tgt) ** 2)))
        assert losses[0] == pytest.approx(losses[1], rel=1e-15)

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            CriticBatch(np.zeros((0, DS)), np.zeros((0, DA)), np.zeros(0),
                        np.zeros((0, DS)), np.zeros(0, dtype=bool))

    @pytest.mark.parametrize("field", ["s", "a", "s_next", "terminal"])
    def test_misaligned_rows_rejected(self, field):
        arrays = dict(s=np.zeros((4, DS)), a=np.zeros((4, DA)), r=np.zeros(4),
                      s_next=np.zeros((4, DS)), terminal=np.zeros(4, dtype=bool))
        arrays[field] = arrays[field][:3]
        with pytest.raises(ContractError):
            CriticBatch(**arrays)


class _AnalyticTerminalField(ReturnField):
    """Field that exactly reproduces the straight-line velocity toward r."""

    def __init__(self, r):
        spec = MlpSpec(in_dim=2 + DS + DA, hidden=(), out_dim=1)
        super().__init__(DS, DA, {"w0": np.zeros((2 + DS + DA, 1)), "b0": np.zeros(1)}, spec)
        self._r = r

    def forward_tape(self, x):
        z, t = x[:, 0], x[:, 1]
        eps = (z - t * self._r) / (1.0 - t)
        return MlpTape(output=(self._r - eps)[:, None], params={}, cache=[])


class TestBcfmLoss:
    def test_exact_field_gives_zero_on_terminal_construction(self):
        r = 0.8
        batch = make_batch(n=6, terminal=True)
        batch.r[:] = r
        online = _AnalyticTerminalField(r)
        loss, _, diag = value_flow_loss(online, linear_field(), uniform_action_sampler, batch,
                                        wide_config(lam=1.0), np.random.default_rng(2))
        assert diag["bcfm"] == pytest.approx(0.0, abs=1e-20)
        assert loss.data == pytest.approx(0.0, abs=1e-20)

    def test_unit_weights_reduce_to_unweighted(self):
        online, target = random_field(8), random_field(9)
        batch = make_batch(n=6)
        cfg = wide_config(tau=TAU_UNIT_WEIGHTS)
        _, _, diag = value_flow_loss(online, target, uniform_action_sampler, batch, cfg,
                                     np.random.default_rng(5))
        d = _draw_loss_quantities(target, uniform_action_sampler, batch, cfg,
                                  np.random.default_rng(5))
        z1_td = batch.r + cfg.gamma * d.z1
        z_in = d.t * z1_td + (1.0 - d.t) * d.eps
        x = np.concatenate([z_in[:, None], d.t[:, None], batch.s, batch.a], axis=1)
        v = ref_mlp(online.params, x, online.spec)[:, 0]
        expected = float(np.mean((v - (z1_td - d.eps)) ** 2))
        assert diag["mean_weight"] == 1.0
        assert diag["bcfm"] == pytest.approx(expected, rel=1e-12)


class TestValueFlowLoss:
    def test_lambda_zero_equals_weighted_dcfm(self):
        online, target = random_field(10), random_field(11)
        batch = make_batch(n=7)
        batch.terminal[::3] = True
        cfg = wide_config(lam=0.0, tau=2.0)
        loss, _, diag = value_flow_loss(online, target, uniform_action_sampler, batch,
                                        cfg, np.random.default_rng(21))
        d = _draw_loss_quantities(target, uniform_action_sampler, batch, cfg,
                                  np.random.default_rng(21))
        weights = _weight_from_jac(d.jac1, cfg.tau)
        z_in, tgt = _dcfm_rows(batch, d, cfg)
        x = np.concatenate([z_in[:, None], d.t[:, None], batch.s, batch.a], axis=1)
        v = ref_mlp(online.params, x, online.spec)[:, 0]
        dcfm = float(np.mean(weights * (v - tgt) ** 2))
        assert loss.data == pytest.approx(dcfm, rel=1e-12)
        assert diag["dcfm"] == pytest.approx(dcfm, rel=1e-12)

    def test_lambda_one_sums_both_terms(self):
        online, target = random_field(12), random_field(13)
        batch = make_batch(n=5)
        cfg = wide_config(lam=1.0, tau=3.0)  # matching a domain row: lam=1, tau=3
        loss, _, diag = value_flow_loss(online, target, uniform_action_sampler, batch,
                                        cfg, np.random.default_rng(31))
        assert loss.data == pytest.approx(diag["dcfm"] + diag["bcfm"], rel=1e-12)
        assert 0.5 <= diag["mean_weight"] <= 1.0

    @pytest.mark.parametrize("tau,flat_weight,share", [(TAU_HALF_WEIGHTS, 0.5, 0.0),
                                                        (TAU_UNIT_WEIGHTS, 1.0, 1.0)])
    def test_weight_spread_of_a_flat_weight(self, tau, flat_weight, share):
        _, _, diag = value_flow_loss(random_field(12), random_field(13), uniform_action_sampler,
                                     make_batch(n=9), wide_config(tau=tau),
                                     np.random.default_rng(32))
        assert diag["mean_weight"] == flat_weight
        assert (diag["weight_p10"], diag["weight_p50"], diag["weight_p90"]) == (flat_weight,) * 3
        assert diag["weight_share_above_0.55"] == share

    def test_weight_spread_matches_recomputed_weights(self):
        target, batch, cfg = random_field(13), make_batch(n=40, seed=5), wide_config(tau=3.0)
        _, _, diag = value_flow_loss(random_field(12), target, uniform_action_sampler, batch,
                                     cfg, np.random.default_rng(33))
        d = _draw_loss_quantities(target, uniform_action_sampler, batch, cfg,
                                  np.random.default_rng(33))
        w = _weight_from_jac(d.jac1, cfg.tau)
        assert [diag[f"weight_p{q}"] for q in (10, 50, 90)] == list(np.percentile(w, [10, 50, 90]))
        assert diag["weight_share_above_0.55"] == np.count_nonzero(w > 0.55) / w.size
        assert 0.0 < diag["weight_share_above_0.55"] < 1.0

    def test_gradients_flow_only_through_online(self):
        online, target = random_field(14), random_field(15)
        batch = make_batch(n=4)
        loss, tape, _ = value_flow_loss(online, target, uniform_action_sampler, batch,
                                        wide_config(), np.random.default_rng(41))
        loss.backward()
        assert any(leaf.grad is not None and np.any(leaf.grad != 0)
                   for leaf in tape.params.values())

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        online = random_field(16, hidden=(4, 4))
        online = online.with_params(random_params_like(online.params, rng))
        target = random_field(17, hidden=(4, 4))
        batch = make_batch(n=5)
        batch.terminal[::2] = True
        cfg = wide_config(lam=0.7, tau=2.0)
        assert loss_grad_match(online, lambda ps: value_flow_loss(
            online.with_params(ps), target, uniform_action_sampler, batch, cfg,
            np.random.default_rng(43))) >= 0.95

    @pytest.mark.parametrize("terminal", [True, False], ids=["all-terminal", "none-terminal"])
    def test_gradients_match_finite_differences_on_uniform_batches(self, terminal):
        rng = np.random.default_rng(18)
        online = random_field(16, hidden=(4, 4))
        online = online.with_params(random_params_like(online.params, rng))
        target = random_field(17, hidden=(4, 4))
        batch = make_batch(n=5, terminal=terminal)
        cfg = wide_config(lam=0.7, tau=2.0)
        assert loss_grad_match(online, lambda ps: value_flow_loss(
            online.with_params(ps), target, uniform_action_sampler, batch, cfg,
            np.random.default_rng(44))) >= 0.95


def _unmerged_loss(online: ReturnField, batch: CriticBatch, d, cfg: CriticConfig):
    """The loss over 2n rows, every DCFM row then every BCFM row, and its gradients."""
    n = len(batch)
    w = _weight_from_jac(d.jac1, cfg.tau)
    z_dc, tgt_dc = _dcfm_rows(batch, d, cfg)
    z_bc, tgt_bc = _bcfm_rows(batch, d, cfg)
    x = np.concatenate([np.concatenate([z_dc, z_bc])[:, None], np.tile(d.t, 2)[:, None],
                        np.tile(batch.s, (2, 1)), np.tile(batch.a, (2, 1))], axis=1)
    tape = mlp_forward(online.params, x, online.spec)
    c = np.concatenate([w / n, cfg.lam * w / n])[:, None]
    res = tape.output - np.concatenate([tgt_dc, tgt_bc])[:, None]
    return float((c * res ** 2).sum()), backward(tape, 2.0 * c * res)


class TestTerminalRows:
    """A terminal row runs no target flow and shares one online row between its two terms."""

    @staticmethod
    def mixed_batch(n=7):
        return make_batch(n=n, terminal=np.arange(n) % 3 != 1, seed=2)

    def test_terminal_weights_are_exactly_one_half(self):
        batch, cfg = self.mixed_batch(), wide_config(tau=TAU_UNIT_WEIGHTS)
        d = _draw_loss_quantities(random_field(60), uniform_action_sampler, batch, cfg,
                                  np.random.default_rng(61))
        w = _weight_from_jac(d.jac1, cfg.tau)
        assert np.all(w[batch.terminal] == 0.5) and np.all(w[~batch.terminal] == 1.0)
        _, _, diag = value_flow_loss(random_field(62), random_field(60), uniform_action_sampler,
                                     make_batch(n=6, terminal=True), cfg,
                                     np.random.default_rng(61))
        assert (diag["mean_weight"], diag["weight_p10"], diag["weight_p90"]) == (0.5, 0.5, 0.5)

    def test_draws_cover_every_row_in_the_same_order_for_any_mask(self):
        cfg, draws = wide_config(), []
        for terminal in (False, True, np.arange(7) % 2 == 0):
            draws.append(_draw_loss_quantities(random_field(60), uniform_action_sampler,
                                               make_batch(n=7, terminal=terminal), cfg,
                                               np.random.default_rng(63)))
        for d in draws[1:]:
            for name in ("eps", "t", "a_next"):
                assert np.array_equal(getattr(d, name), getattr(draws[0], name))

    def test_terminal_dcfm_and_bcfm_rows_are_bitwise_equal(self):
        batch, cfg = self.mixed_batch(), wide_config(lam=0.5)
        d = _draw_loss_quantities(random_field(64), uniform_action_sampler, batch, cfg,
                                  np.random.default_rng(65))
        term = batch.terminal
        for dc, bc in zip(_dcfm_rows(batch, d, cfg), _bcfm_rows(batch, d, cfg)):
            assert np.array_equal(dc[term], bc[term])
            assert not np.any(dc[~term] == bc[~term])

    @pytest.mark.parametrize("terminal", [True, False, np.arange(9) % 4 == 0],
                             ids=["all-terminal", "none-terminal", "mixed"])
    def test_online_tape_holds_n_plus_the_nonterminal_rows(self, terminal):
        batch = make_batch(n=9, terminal=terminal)
        _, tape, _ = value_flow_loss(random_field(66), random_field(67), uniform_action_sampler,
                                     batch, wide_config(), np.random.default_rng(68))
        assert tape.output.shape == (9 + np.count_nonzero(~batch.terminal), 1)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=9), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.6, 1.0]))
    @example([True] * 5, 7, 1.0)
    @example([False] * 5, 7, 1.0)
    def test_loss_and_gradients_equal_the_unmerged_layout(self, terminal, seed, lam):
        batch = make_batch(n=len(terminal), terminal=terminal, seed=seed % 1000)
        online, target, cfg = random_field(69), random_field(70), wide_config(lam=lam, tau=2.0)
        loss, _, diag = value_flow_loss(online, target, uniform_action_sampler, batch, cfg,
                                        np.random.default_rng(seed))
        d = _draw_loss_quantities(target, uniform_action_sampler, batch, cfg,
                                  np.random.default_rng(seed))
        ref_value, ref_grads = _unmerged_loss(online, batch, d, cfg)
        assert float(loss.data) == pytest.approx(ref_value, rel=1e-12)
        assert diag["dcfm"] + lam * diag["bcfm"] == pytest.approx(ref_value, rel=1e-12)
        grads = loss.backward()
        np.testing.assert_allclose(grads.flat, ref_grads.flat, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref_grads.flat).max())

    def test_flow_derivative_diagnostic_covers_the_rows_that_ran_the_target(self):
        batch, cfg = self.mixed_batch(), wide_config()
        _, _, diag = value_flow_loss(random_field(71), random_field(72), uniform_action_sampler,
                                     batch, cfg, np.random.default_rng(73))
        d = _draw_loss_quantities(random_field(72), uniform_action_sampler, batch, cfg,
                                  np.random.default_rng(73))
        assert diag["mean_abs_flow_derivative"] == np.abs(d.jac1[~batch.terminal]).mean() > 0.0
        _, _, diag = value_flow_loss(random_field(71), random_field(72), uniform_action_sampler,
                                     make_batch(n=5, terminal=True), cfg,
                                     np.random.default_rng(73))
        assert diag["mean_abs_flow_derivative"] == 0.0


class _CountingField(ReturnField):
    """ReturnField that counts its value passes, its views, and their value and JVP passes.

    An Euler solve evaluates the field through a ``conditioned`` view, so the
    view's methods are where its per-step passes are counted.
    """

    def __init__(self, base: ReturnField):
        super().__init__(base.state_dim, base.action_dim, base.params, base.spec)
        self.calls = {"velocity": 0, "conditioned": 0, "view.velocity": 0,
                      "view.velocity_and_derivative": 0}
        self.rows = []      # the row count of each value or JVP pass, in call order

    def velocity(self, z, t, s, a):
        self.calls["velocity"] += 1
        self.rows.append(np.size(z))
        return super().velocity(z, t, s, a)

    def conditioned(self, s, a):
        self.calls["conditioned"] += 1
        view = super().conditioned(s, a)
        for name in ("velocity", "velocity_and_derivative"):
            view.__dict__[name] = self._counted(f"view.{name}", getattr(view, name))
        return view

    def _counted(self, key, method):
        def counted(x, t):
            self.calls[key] += 1
            self.rows.append(np.size(x))
            return method(x, t)
        return counted


class TestTargetTrajectory:
    @pytest.mark.parametrize("flow_steps", [1, 4, 10])
    def test_one_target_trajectory_per_loss(self, flow_steps):
        target = _CountingField(random_field(18))
        batch = make_batch(n=6)
        batch.terminal[::2] = True
        value_flow_loss(random_field(19), target, uniform_action_sampler, batch,
                        wide_config(flow_steps=flow_steps), np.random.default_rng(51))
        assert target.calls == {"velocity": 1, "conditioned": 1, "view.velocity": 0,
                                "view.velocity_and_derivative": flow_steps}

    @pytest.mark.parametrize("terminal", [np.arange(6) % 2 == 0, np.arange(6) < 5, True],
                             ids=["half", "one-nonterminal", "all-terminal"])
    def test_target_sees_only_the_nonterminal_rows(self, terminal):
        target = _CountingField(random_field(18))
        batch = make_batch(n=6, terminal=terminal)
        value_flow_loss(random_field(19), target, uniform_action_sampler, batch,
                        wide_config(flow_steps=4), np.random.default_rng(51))
        m = np.count_nonzero(~batch.terminal)
        assert target.rows == ([m] * 5 if m else [])
        if not m:
            assert set(target.calls.values()) == {0}

    def test_z_t_is_the_euler_path_cut_short_at_t(self):
        target = random_field(22)
        batch = make_batch(n=9, seed=3)
        cfg = wide_config(flow_steps=5)
        d = _draw_loss_quantities(target, uniform_action_sampler, batch, cfg,
                                  np.random.default_rng(52))
        dt = 1.0 / cfg.flow_steps
        for i in range(len(batch)):
            s, a = batch.s_next[i], d.a_next[i]
            k = min(int(d.t[i] * cfg.flow_steps), cfg.flow_steps - 1)
            z = d.eps[i:i + 1]
            for j in range(k):
                z = z + target.velocity(z, j * dt, s, a) * dt
            z_t = z + (d.t[i] - k * dt) * target.velocity(z, k * dt, s, a)
            assert d.z_t[i] == pytest.approx(z_t[0], abs=1e-12)
            assert d.vbar_t[i] == pytest.approx(
                target.velocity(d.z_t[i:i + 1], d.t[i], s, a)[0], abs=1e-12)

    def test_z1_and_jac1_are_the_t1_integration(self):
        target = random_field(23)
        batch = make_batch(n=7, seed=4)
        cfg = wide_config()
        d = _draw_loss_quantities(target, uniform_action_sampler, batch, cfg,
                                  np.random.default_rng(53))
        z1, jac1 = euler_integrate_with_derivative(target.conditioned(batch.s_next, d.a_next),
                                                   d.eps, IntegrationConfig(cfg.flow_steps))
        assert np.array_equal(d.z1, z1) and np.array_equal(d.jac1, jac1)


class TestEnsemble:
    def test_single_field_identity(self):
        f = linear_field(bias=0.7)
        noises = np.array([0.1, -0.1])
        assert ensemble_q([f], STATE, ACTION, noises)[0] == pytest.approx(
            q_estimate(f, STATE, ACTION, noises))

    def test_min_of_two(self):
        fields = [linear_field(bias=1.0), linear_field(bias=2.0)]
        assert ensemble_q(fields, STATE, ACTION, np.array([0.0]))[0] == pytest.approx(1.0)

    def test_identical_fields_equal_single(self):
        f = linear_field(bias=-0.4)
        noises = np.array([0.5, -0.5])
        assert ensemble_q([f, f], STATE, ACTION, noises)[0] == pytest.approx(
            q_estimate(f, STATE, ACTION, noises))

    @staticmethod
    def batch(n, seed, da=DA):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, DS)), rng.uniform(-1, 1, size=(n, da))

    @pytest.mark.parametrize("state_rows", [1, 5])
    def test_noise_major_rows_are_the_rows_inputs_builds(self, state_rows):
        field = random_field(30)
        s, a = self.batch(5, 2)
        s = s[:state_rows]
        noises = np.array([0.4, -0.4, 1.1])
        s_rows = s if state_rows == 1 else np.tile(s, (3, 1))
        want = field._inputs(np.repeat(noises, 5), 0.0, s_rows, np.tile(a, (3, 1)))
        x, m = _q_rows([field], s, a, noises)
        assert m == 3 and x.tobytes() == want.tobytes()
        assert _q_rows([field], s[0], a, noises)[0].tobytes() == _q_rows(
            [field], np.tile(s[0], (5, 1)), a, noises)[0].tobytes()

    @pytest.mark.parametrize("s_shape,a_shape", [((3, DS), (5, DA)), ((5, DS + 1), (5, DA)),
                                                 ((1, DS), (5, DA + 1)), ((2, 5, DS), (5, DA))])
    @pytest.mark.parametrize("q_pass", [ensemble_q, ensemble_q_and_action_grad])
    def test_states_or_actions_of_the_wrong_shape_are_a_contract_error(self, q_pass, s_shape,
                                                                       a_shape):
        with pytest.raises(ContractError, match="Q rows need"):
            q_pass([random_field(31)], np.zeros(s_shape), np.zeros(a_shape), np.array([0.5]))

    @pytest.mark.parametrize("da", [1, 2])
    def test_q_matches_critic_ensemble_q_and_dq_da_central_differences(self, da):
        fields = [random_field(20, da=da), random_field(21, da=da), random_field(26, da=da)]
        s, a = self.batch(4, 0, da)
        noises = np.array([0.4, -0.4, 1.1])
        q, dq_da = ensemble_q_and_action_grad(fields, s, a, noises)
        assert q.shape == (4, 1) and dq_da.shape == a.shape
        h = 1e-5
        for i in range(4):
            assert q[i, 0] == pytest.approx(critic_ensemble_q(fields, s[i], a[i], noises),
                                            rel=1e-12)
            for col, step in enumerate(np.eye(da) * h):
                fd = (critic_ensemble_q(fields, s[i], a[i] + step, noises)
                      - critic_ensemble_q(fields, s[i], a[i] - step, noises)) / (2 * h)
                assert dq_da[i, col] == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("da", [1, 2, 3])
    def test_forward_mode_dq_da_agrees_with_reverse_mode(self, da):
        fields = [random_field(seed, da=da, hidden=(64, 64)) for seed in (34, 35)]
        s, a = self.batch(64, 8, da)
        noises = np.random.default_rng(9).standard_normal(4)
        q, dq_da = ensemble_q_and_action_grad(fields, s, a, noises)
        want_q, want = reverse_action_grad(fields, s, a, noises)
        np.testing.assert_allclose(q, want_q, rtol=1e-14, atol=0)
        # relative to the largest |dq/da|: single entries near 0 lose their relative digits
        assert np.abs(dq_da - want).max() <= 1e-14 * np.abs(want).max()

    @staticmethod
    def action_slope_field(slope) -> ReturnField:
        """v = slope * a: at a = 0 every such field gives q = 0, with dq/da = slope."""
        spec = MlpSpec(in_dim=2 + DS + DA, hidden=(), out_dim=1)
        w = np.zeros((2 + DS + DA, 1))
        w[-1, 0] = slope
        return ReturnField(DS, DA, {"w0": w, "b0": np.zeros(1)}, spec)

    @pytest.mark.parametrize("slopes", [(1.0, -1.0), (-1.0, 1.0), (2.0, 3.0, -5.0)])
    def test_a_tie_routes_the_gradient_to_the_first_field(self, slopes):
        fields = [self.action_slope_field(k) for k in slopes]
        s, a = self.batch(3, 1)
        q, dq_da = ensemble_q_and_action_grad(fields, s, np.zeros_like(a), np.array([0.5, -0.5]))
        assert np.array_equal(q, np.zeros((3, 1)))
        assert np.array_equal(dq_da, np.full((3, DA), slopes[0]))

    def test_runs_one_pass_per_field(self, monkeypatch):
        forward, passes = [], []

        def counting_forward(params, x, spec):
            forward.append(x.shape[0])
            return mlp_forward(params, x, spec)

        def counting_jvp(params, x, spec, tangent):
            passes.append((x.shape[0], tangent))
            return mlp_value_and_input_jvp(params, x, spec, tangent)

        monkeypatch.setattr(critic_module, "mlp_forward", counting_forward)
        monkeypatch.setattr(critic_module, "mlp_value_and_input_jvp", counting_jvp)
        fields = [random_field(24, da=2), random_field(25, da=2)]
        s, a = self.batch(5, 2, da=2)
        noises = np.array([0.9, -0.3, 0.1])
        q, _ = ensemble_q_and_action_grad(fields, s, a, noises)
        assert forward == []    # no tape is kept
        # 3 noises x 5 rows, once per field and action column
        assert [rows for rows, _ in passes] == [15, 15, 15, 15]
        tangents = [tangent for _, tangent in passes]
        assert tangents[0] is tangents[2] and tangents[1] is tangents[3]   # built once, shared
        in_dim = fields[0].spec.in_dim
        for col, tangent in zip((in_dim - 2, in_dim - 1), tangents):
            want = np.zeros((15, in_dim))
            want[:, col] = 1.0
            assert np.array_equal(tangent, want)
        for i in range(5):
            assert q[i, 0] == pytest.approx(critic_ensemble_q(fields, s[i], a[i], noises),
                                            rel=1e-12)

    def test_steady_state_call_allocates_less_than_one_hidden_array(self):
        fields = [random_field(seed, hidden=(64, 64)) for seed in (36, 37)]
        s, a = self.batch(256, 10)
        noises = np.random.default_rng(11).standard_normal(4)
        ensemble_q_and_action_grad(fields, s, a, noises)   # warm-up: the workspace grows here
        tracemalloc.start()
        try:
            ensemble_q_and_action_grad(fields, s, a, noises)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < noises.size * a.shape[0] * 64 * 8

    def test_actions_given_as_a_list_score_as_the_array(self):
        fields = [random_field(38), random_field(39)]
        s, a = self.batch(3, 12)
        noises = np.array([0.6, -0.6])
        for got, want in zip(ensemble_q_and_action_grad(fields, s, a.tolist(), noises),
                             ensemble_q_and_action_grad(fields, s, a, noises)):
            assert got.tobytes() == want.tobytes()
        q, dq_da = ensemble_q_and_action_grad(fields, s[0], [[0.1]], noises)
        assert q.shape == (1, 1) and dq_da.shape == (1, DA)

    @pytest.mark.parametrize("q_pass", [ensemble_q, ensemble_q_and_action_grad])
    def test_a_list_of_actions_of_the_wrong_width_is_a_contract_error(self, q_pass):
        with pytest.raises(ContractError, match="Q rows need"):
            q_pass([random_field(31)], STATE, [[0.1, 0.2]], np.array([0.5]))

    @pytest.mark.parametrize("fields,noises", [([], [0.1]), ([0], []), ([0], [[0.1, 0.2]])])
    @pytest.mark.parametrize("q_pass", [ensemble_q, ensemble_q_and_action_grad])
    def test_rejects_no_field_and_no_noise(self, q_pass, fields, noises):
        s, a = self.batch(2, 3)
        with pytest.raises(ContractError):
            q_pass([random_field(27) for _ in fields], s, a, np.array(noises))

    def test_ensemble_q_is_the_gradient_pass_q_and_broadcasts_one_state(self):
        fields = [random_field(28), random_field(29)]
        s, a = self.batch(6, 4)
        noises = np.array([0.7, -0.7, 0.2])
        q, _ = ensemble_q_and_action_grad(fields, s, a, noises)
        np.testing.assert_array_equal(ensemble_q(fields, s, a, noises), q[:, 0])
        one = ensemble_q(fields, s[0], a, noises)
        np.testing.assert_array_equal(one, ensemble_q(fields, np.tile(s[0], (6, 1)), a, noises))
        for i in range(6):
            assert one[i] == pytest.approx(critic_ensemble_q(fields, s[0], a[i], noises),
                                           rel=1e-12)
