"""Tests for the return critic: estimators, confidence weight, and losses."""

import numpy as np
import pytest

from flowrl.critic import (
    CriticBatch,
    CriticConfig,
    ReturnField,
    antithetic_noises,
    bcfm_loss,
    confidence_weight,
    critic_ensemble_q,
    dcfm_loss,
    q_estimate,
    q_values_tensor,
    sample_return,
    value_flow_loss,
    variance_estimate,
    _draw_loss_quantities,
    _weight_from_jac,
)
from flowrl.diffcore import MlpSpec, Tensor, init_mlp
from flowrl.diffcore.nn import MlpTape
from flowrl.envs import BranchingTree
from flowrl.errors import ConfigError, ContractError

from helpers import ref_mlp

DS, DA = 2, 1
STATE = np.array([0.3, -0.7])
ACTION = np.array([0.5])


def linear_field(w_z=0.0, w_t=0.0, bias=0.0, ds=DS, da=DA) -> ReturnField:
    spec = MlpSpec(in_dim=2 + ds + da, hidden=(), out_dim=1, layer_norm=False)
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
    rng = np.random.default_rng(seed)
    return CriticBatch(
        s=rng.normal(size=(n, DS)),
        a=rng.uniform(-1, 1, size=(n, DA)),
        r=rng.uniform(-1, 1, size=n),
        s_next=rng.normal(size=(n, DS)),
        terminal=np.full(n, terminal, dtype=bool),
    )


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            CriticConfig(gamma=1.0, z_lo=0, z_hi=1)
        with pytest.raises(ConfigError):
            CriticConfig(gamma=0.9, z_lo=0, z_hi=1, tau=0.0)
        with pytest.raises(ConfigError):
            CriticConfig(gamma=0.9, z_lo=2, z_hi=1)

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


class TestQEstimate:
    def test_point_mass_field_with_antithetic_pair(self):
        z_star = 3.2
        field = linear_field(w_z=-1.0, bias=z_star)  # v(eps | 0) = z* - eps
        assert q_estimate(field, STATE, ACTION, np.array([0.8, -0.8])) == pytest.approx(z_star)

    def test_constant_field(self):
        field = linear_field(bias=-1.7)
        assert q_estimate(field, STATE, ACTION, np.array([0.3])) == pytest.approx(-1.7)

    def test_antithetic_noises_are_symmetric(self):
        eps = antithetic_noises(np.random.default_rng(0), 64)
        assert eps.size == 64
        assert eps.sum() == pytest.approx(0.0, abs=1e-12)


class _AffineTransportField:
    """Exact field for the straight-line coupling eps -> mu + sigma * eps."""

    def __init__(self, mu, sigma):
        self.mu, self.sigma = mu, sigma

    def conditioned(self, s, a, n=None):
        mu, sigma = self.mu, self.sigma

        class _Cond:
            def velocity_and_derivative(self, x, t):
                slope = (sigma - 1.0) / (1.0 + np.asarray(t) * (sigma - 1.0))
                return mu + slope * (x - np.asarray(t) * mu), np.broadcast_to(slope, np.shape(x)).astype(float)

        return _Cond()


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


class TestConfidenceWeight:
    def test_constant_field_value_frozen(self):
        # J = 1, tau = 1 -> sigmoid(-1) + 0.5 = 0.768941...
        field = linear_field(bias=4.0)
        w = confidence_weight(field, STATE, ACTION, np.array([0.2]), tau=1.0, flow_steps=10)
        assert w[0] == pytest.approx(0.7689414213699951, abs=1e-6)

    def test_huge_derivative_limit_is_one(self):
        field = linear_field(w_z=30.0)  # J = (1 + 3)^10, enormous
        w = confidence_weight(field, STATE, ACTION, np.array([0.0]), tau=1.0, flow_steps=10)
        assert w[0] == pytest.approx(1.0, abs=1e-2)

    def test_zero_derivative_limit_is_half(self):
        field = linear_field(w_z=-10.0)  # first Euler factor (1 - 10/10) kills J
        w = confidence_weight(field, STATE, ACTION, np.array([0.3]), tau=1.0, flow_steps=10)
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
        with pytest.raises(ContractError):
            confidence_weight(linear_field(), STATE, ACTION, np.array([0.0]), 0.0, 10)


class TestDcfmLoss:
    def test_constant_fields_zero_loss(self):
        online = linear_field(bias=1.3)
        target = linear_field(bias=1.3)
        batch = make_batch()
        loss, _ = dcfm_loss(online, target, uniform_action_sampler, batch,
                            np.ones(len(batch)), np.random.default_rng(0), wide_config())
        assert loss.data == pytest.approx(0.0, abs=1e-20)

    def test_half_weights_halve_loss(self):
        online, target = random_field(1), random_field(2)
        batch = make_batch()
        cfg = wide_config()
        full, _ = dcfm_loss(online, target, uniform_action_sampler, batch,
                            np.ones(len(batch)), np.random.default_rng(3), cfg)
        half, _ = dcfm_loss(online, target, uniform_action_sampler, batch,
                            np.full(len(batch), 0.5), np.random.default_rng(3), cfg)
        assert half.data == pytest.approx(0.5 * full.data, rel=1e-12)

    def test_fixed_seed_value_matches_recomputation(self):
        online, target = random_field(4), random_field(5)
        batch = make_batch(n=6, seed=7)
        cfg = wide_config()
        weights = np.linspace(0.5, 1.0, 6)
        loss, _ = dcfm_loss(online, target, uniform_action_sampler, batch, weights,
                            np.random.default_rng(9), cfg)
        # independent straight-line recomputation with replayed randomness
        d = _draw_loss_quantities(target, uniform_action_sampler, batch, cfg,
                                  np.random.default_rng(9))
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
            loss, _ = dcfm_loss(online, random_field(target_seed), uniform_action_sampler,
                                batch, np.ones(5), np.random.default_rng(1), cfg)
            losses.append(loss.data)
        assert losses[0] == pytest.approx(losses[1], rel=1e-15)

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            CriticBatch(np.zeros((0, DS)), np.zeros((0, DA)), np.zeros(0),
                        np.zeros((0, DS)), np.zeros(0, dtype=bool))


class _AnalyticTerminalField(ReturnField):
    """Field that exactly reproduces the straight-line velocity toward r."""

    def __init__(self, r):
        spec = MlpSpec(in_dim=2 + DS + DA, hidden=(), out_dim=1, layer_norm=False)
        super().__init__(DS, DA, {"w0": np.zeros((2 + DS + DA, 1)), "b0": np.zeros(1)}, spec)
        self._r = r

    def forward_tape(self, x):
        z, t = x[:, 0], x[:, 1]
        eps = (z - t * self._r) / (1.0 - t)
        return MlpTape(output=Tensor((self._r - eps)[:, None]), inputs=None, params={})


class TestBcfmLoss:
    def test_exact_field_gives_zero_on_terminal_construction(self):
        r = 0.8
        batch = make_batch(n=6, terminal=True)
        batch.r[:] = r
        online = _AnalyticTerminalField(r)
        loss, _ = bcfm_loss(online, linear_field(), uniform_action_sampler, batch,
                            np.ones(6), np.random.default_rng(2), wide_config())
        assert loss.data == pytest.approx(0.0, abs=1e-20)

    def test_unit_weights_reduce_to_unweighted(self):
        online, target = random_field(8), random_field(9)
        batch = make_batch(n=6)
        cfg = wide_config()
        loss, _ = bcfm_loss(online, target, uniform_action_sampler, batch, np.ones(6),
                            np.random.default_rng(5), cfg)
        d = _draw_loss_quantities(target, uniform_action_sampler, batch, cfg,
                                  np.random.default_rng(5))
        z1_td = batch.r + cfg.gamma * d.z1
        z_in = d.t * z1_td + (1.0 - d.t) * d.eps
        x = np.concatenate([z_in[:, None], d.t[:, None], batch.s, batch.a], axis=1)
        v = ref_mlp(online.params, x, online.spec)[:, 0]
        expected = float(np.mean((v - (z1_td - d.eps)) ** 2))
        assert loss.data == pytest.approx(expected, rel=1e-12)


class TestValueFlowLoss:
    def test_lambda_zero_equals_weighted_dcfm(self):
        online, target = random_field(10), random_field(11)
        batch = make_batch(n=7)
        cfg = wide_config(lam=0.0, tau=2.0)
        loss, _, diag = value_flow_loss(online, target, uniform_action_sampler, batch,
                                        cfg, np.random.default_rng(21))
        d = _draw_loss_quantities(target, uniform_action_sampler, batch, cfg,
                                  np.random.default_rng(21))
        weights = _weight_from_jac(d.jac1, cfg.tau)
        dc, _ = dcfm_loss(online, target, uniform_action_sampler, batch, weights,
                          np.random.default_rng(21), cfg)
        assert loss.data == pytest.approx(dc.data, rel=1e-12)
        assert diag["dcfm"] == pytest.approx(dc.data, rel=1e-12)

    def test_lambda_one_sums_both_terms(self):
        online, target = random_field(12), random_field(13)
        batch = make_batch(n=5)
        cfg = wide_config(lam=1.0, tau=3.0)  # matching a domain row: lam=1, tau=3
        loss, _, diag = value_flow_loss(online, target, uniform_action_sampler, batch,
                                        cfg, np.random.default_rng(31))
        assert loss.data == pytest.approx(diag["dcfm"] + diag["bcfm"], rel=1e-12)
        assert 0.5 <= diag["mean_weight"] <= 1.0

    def test_gradients_flow_only_through_online(self):
        online, target = random_field(14), random_field(15)
        batch = make_batch(n=4)
        loss, tape, _ = value_flow_loss(online, target, uniform_action_sampler, batch,
                                        wide_config(), np.random.default_rng(41))
        loss.backward()
        assert any(leaf.grad is not None and np.any(leaf.grad != 0)
                   for leaf in tape.params.values())


class TestEnsemble:
    def test_single_field_identity(self):
        f = linear_field(bias=0.7)
        noises = np.array([0.1, -0.1])
        assert critic_ensemble_q([f], STATE, ACTION, noises) == pytest.approx(
            q_estimate(f, STATE, ACTION, noises))

    def test_min_of_two(self):
        fields = [linear_field(bias=1.0), linear_field(bias=2.0)]
        assert critic_ensemble_q(fields, STATE, ACTION, np.array([0.0])) == pytest.approx(1.0)

    def test_identical_fields_equal_single(self):
        f = linear_field(bias=-0.4)
        noises = np.array([0.5, -0.5])
        assert critic_ensemble_q([f, f], STATE, ACTION, noises) == pytest.approx(
            q_estimate(f, STATE, ACTION, noises))

    def test_q_values_tensor_matches_and_differentiates(self):
        fields = [random_field(20), random_field(21)]
        s = np.random.default_rng(0).normal(size=(3, DS))
        a = np.random.default_rng(1).uniform(-1, 1, size=(3, DA))
        noises = np.array([0.4, -0.4])
        a_tensor = Tensor(a, requires_grad=True)
        q = q_values_tensor(fields, s, a_tensor, noises)
        for i in range(3):
            direct = critic_ensemble_q(fields, s[i], a[i], noises)
            assert q.data[i, 0] == pytest.approx(direct, rel=1e-12)
        q.sum().backward()
        h = 1e-5
        a_hi, a_lo = a.copy(), a.copy()
        a_hi[0, 0] += h
        a_lo[0, 0] -= h
        fd = (critic_ensemble_q(fields, s[0], a_hi[0], noises)
              - critic_ensemble_q(fields, s[0], a_lo[0], noises)) / (2 * h)
        assert a_tensor.grad[0, 0] == pytest.approx(fd, abs=1e-6)
