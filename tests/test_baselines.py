"""Tests for the C51 and IQN baselines and the shared critic histogram."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowrl.baselines import (
    CategoricalCritic,
    QuantileCritic,
    c51_project,
    c51_project_and_loss,
    critic_histogram,
    quantile_huber_loss,
)
from flowrl.critic import CriticBatch, CriticConfig, ReturnField, value_flow_loss
from flowrl.errors import ConfigError, ContractError

from helpers import c51_scatter, loss_grad_match, random_params_like

DS, DA = 2, 1
Z_LO, Z_HI = -2.0, 2.0


def sampler(s_next, rng):
    return rng.choice([-1.0, 1.0], size=(np.atleast_2d(s_next).shape[0], DA))


def make_batch(rng, n=4) -> CriticBatch:
    return CriticBatch(s=rng.normal(size=(n, DS)), a=rng.uniform(-1, 1, size=(n, DA)),
                       r=rng.uniform(-1, 1, size=n), s_next=rng.normal(size=(n, DS)),
                       terminal=np.arange(n) % 3 == 0)


class TestC51Project:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 8))
    def test_conserves_mass_and_keeps_the_clipped_mean(self, seed, n_atoms, n_values):
        rng = np.random.default_rng(seed)
        support = rng.uniform(-3.0, 3.0) + np.linspace(0.0, rng.uniform(0.5, 4.0), n_atoms)
        values = rng.uniform(support[0] - 2.0, support[-1] + 2.0, size=(3, n_values))
        masses = rng.dirichlet(np.ones(n_values), size=3)
        out = c51_project(values, masses, support)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        mean = out @ support
        assert np.all((mean >= support[0] - 1e-12) & (mean <= support[-1] + 1e-12))
        # inside the support the linear split preserves the mean exactly
        clipped = np.clip(values, support[0], support[-1])
        np.testing.assert_allclose(mean, (masses * clipped).sum(axis=1), rtol=0, atol=1e-12)

    def test_one_bincount_equals_two_add_at_scatters_bit_for_bit(self):
        # values on atoms, outside the support and inside cells, shares summing on one atom
        rng = np.random.default_rng(41)
        for case in range(300):
            n_atoms = int(rng.integers(2, 52))
            support = rng.uniform(-3.0, 3.0) + np.linspace(0.0, rng.uniform(0.5, 20.0), n_atoms)
            rows, n_values = int(rng.integers(1, 40)), int(rng.integers(1, 60))
            values = rng.uniform(support[0] - 2.0, support[-1] + 2.0, size=(rows, n_values))
            on_atom = rng.random(values.shape) < 0.3
            values[on_atom] = rng.choice(support, size=int(on_atom.sum()))
            masses = rng.dirichlet(np.ones(n_values), size=rows)
            if case % 3 == 0:       # C51's own target shape: r + gamma z on one grid per row
                values = rng.uniform(-1, 1, size=(rows, 1)) + 0.9 * support[None, :]
                masses = rng.dirichlet(np.ones(n_atoms), size=rows)
            got = c51_project(values, masses, support)
            assert got.tobytes() == c51_scatter(values, masses, support).tobytes(), case

    @pytest.mark.parametrize("shape", [(3, 3, 4), (2, 3, 4)])
    def test_values_of_more_than_two_dimensions_are_a_contract_error(self, shape):
        # a (rows, k, M) array once spread its rows over its middle axis without an error
        with pytest.raises(ContractError, match="values must be"):
            c51_project(np.zeros(shape), np.full(shape, 0.25), np.linspace(-1.0, 1.0, 5))

    @pytest.mark.parametrize("values_shape, masses_shape",
                             [((3, 5), (2, 5)), ((3, 5), (3, 4)), ((5,), (2, 5))])
    def test_masses_that_do_not_broadcast_to_the_values_are_a_contract_error(
            self, values_shape, masses_shape):
        # these once raised numpy's own broadcasting ValueError
        with pytest.raises(ContractError, match="do not broadcast"):
            c51_project(np.zeros(values_shape), np.full(masses_shape, 0.2),
                        np.linspace(-1.0, 1.0, 5))


class TestC51Support:
    @staticmethod
    def critic(support):
        made = CategoricalCritic.create(DS, DA, len(support), Z_LO, Z_HI,
                                        np.random.default_rng(4), hidden=(4,))
        return CategoricalCritic(DS, DA, made.params, made.spec, support)

    @pytest.mark.parametrize("support", [[0.0, 0.1, 1.0], [0.0, 1.0, 2.0, 3.5],
                                         [0.0, np.nan, 1.0]], ids=["three", "four", "nan"])
    def test_unevenly_spaced_support_is_a_config_error(self, support):
        # c51_project's one gap once put a unit mass at 0.55 on [0, 0.1, 1] as [0, 0.9, 0.1]
        with pytest.raises(ConfigError, match="support"):
            self.critic(support)

    def test_linspace_and_arange_rounding_passes(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 102))
            lo = rng.uniform(-1e6, 1e6)
            support = np.linspace(lo, lo + rng.uniform(1e-3, 1e3), n)
            assert np.array_equal(self.critic(support).support, support)
        self.critic(np.arange(-10.0, 10.01, 0.4))


class TestLossGradients:
    def test_c51_loss_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        online = CategoricalCritic.create(DS, DA, 5, Z_LO, Z_HI, rng, hidden=(4, 4))
        online = online.with_params(random_params_like(online.params, rng))
        target = CategoricalCritic.create(DS, DA, 5, Z_LO, Z_HI, rng, hidden=(4,))
        batch = make_batch(rng)
        assert loss_grad_match(online, lambda ps: c51_project_and_loss(
            online.with_params(ps), target, sampler, batch, np.random.default_rng(1),
            gamma=0.9)) >= 0.95

    def test_quantile_huber_loss_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        online = QuantileCritic.create(DS, DA, rng, hidden=(4, 4))
        online = online.with_params(random_params_like(online.params, rng))
        target = QuantileCritic.create(DS, DA, rng, hidden=(4,))
        batch = make_batch(rng)
        assert loss_grad_match(online, lambda ps: quantile_huber_loss(
            online.with_params(ps), target, sampler, batch, np.random.default_rng(3),
            gamma=0.9, kappa=1.0, n_quantiles=6)) >= 0.95


class TestLossInputChecks:
    @staticmethod
    def losses(next_sampler=sampler):
        rng = np.random.default_rng(10)
        c51 = CategoricalCritic.create(DS, DA, 5, Z_LO, Z_HI, rng, hidden=(4,))
        iqn = QuantileCritic.create(DS, DA, rng, hidden=(4,))
        flow = ReturnField.create(DS, DA, rng, hidden=(4,))
        batch = make_batch(rng)
        return {
            "c51": lambda gamma: c51_project_and_loss(c51, c51, next_sampler, batch,
                                                      np.random.default_rng(11), gamma=gamma),
            "iqn": lambda gamma: quantile_huber_loss(iqn, iqn, next_sampler, batch,
                                                     np.random.default_rng(11), gamma=gamma,
                                                     kappa=1.0, n_quantiles=4),
            "flow": lambda gamma: value_flow_loss(flow, flow, next_sampler, batch,
                                                  CriticConfig(gamma, Z_LO, Z_HI),
                                                  np.random.default_rng(11)),
        }

    @pytest.mark.parametrize("kind", ["flow", "c51", "iqn"])
    @pytest.mark.parametrize("row", [[0.25], [[0.25]]], ids=["1-d", "2-d"])
    def test_one_next_action_row_is_broadcast_to_every_transition(self, kind, row):
        one = self.losses(lambda s_next, rng: np.array(row))[kind](0.9)[0]
        every = self.losses(lambda s_next, rng: np.full((len(s_next), DA), 0.25))[kind](0.9)[0]
        assert one.data == every.data
        assert np.array_equal(one.backward().flat, every.backward().flat)

    @pytest.mark.parametrize("kind", ["flow", "c51", "iqn"])
    @pytest.mark.parametrize("shape", [(0, DA), (2, DA), (5, DA), (4, DA, 1)])
    def test_next_actions_of_another_row_count_are_a_contract_error(self, kind, shape):
        loss = self.losses(lambda s_next, rng: np.zeros(shape))[kind]
        with pytest.raises(ContractError):
            loss(0.9)

    @pytest.mark.parametrize("kind", ["c51", "iqn"])
    @pytest.mark.parametrize("gamma", [1.5, 1.0, -0.1])
    def test_gamma_outside_the_unit_interval_rejected(self, kind, gamma):
        loss = self.losses()[kind]
        assert np.isfinite(float(loss(0.9)[0].data))
        with pytest.raises(ConfigError):
            loss(gamma)

    @pytest.mark.parametrize("kappa", [0.0, np.nan])
    def test_iqn_needs_a_positive_kappa(self, kappa):
        rng = np.random.default_rng(13)
        iqn = QuantileCritic.create(DS, DA, rng, hidden=(4,))
        with pytest.raises(ContractError):
            quantile_huber_loss(iqn, iqn, sampler, make_batch(rng), rng, gamma=0.9, kappa=kappa)

    @pytest.mark.parametrize("n_quantiles", [0, -1, 2.5, True])
    def test_iqn_quantile_count_must_be_a_positive_integer(self, n_quantiles):
        rng = np.random.default_rng(12)
        iqn = QuantileCritic.create(DS, DA, rng, hidden=(4,))
        with pytest.raises(ContractError):
            quantile_huber_loss(iqn, iqn, sampler, make_batch(rng), rng, gamma=0.9, kappa=1.0,
                                n_quantiles=n_quantiles)

    @pytest.mark.parametrize("n_atoms", [1, 2.5, True])
    def test_c51_atom_count_must_be_an_integer_of_at_least_two(self, n_atoms):
        with pytest.raises(ContractError):
            CategoricalCritic.create(DS, DA, n_atoms, Z_LO, Z_HI, np.random.default_rng(0))


class TestCriticHistogram:
    @staticmethod
    def critics():
        rng = np.random.default_rng(4)
        return [ReturnField.create(DS, DA, rng, hidden=(8,)),
                CategoricalCritic.create(DS, DA, 11, Z_LO, Z_HI, rng, hidden=(8,)),
                QuantileCritic.create(DS, DA, rng, hidden=(8,))]

    @pytest.mark.parametrize("kind", [0, 1, 2], ids=["flow", "c51", "iqn"])
    def test_single_row_state_and_action_match_vectors(self, kind):
        critic = self.critics()[kind]
        cfg = CriticConfig(gamma=0.9, z_lo=Z_LO, z_hi=Z_HI)
        s, a = np.array([0.3, -0.2]), np.array([0.5])
        hists = [critic_histogram(critic, s_in, a_in, 64, 8, (Z_LO, Z_HI),
                                  np.random.default_rng(5), cfg)
                 for s_in, a_in in ((s, a), (s[None, :], a[None, :]))]
        assert np.array_equal(hists[0].masses, hists[1].masses)
        assert hists[0].masses.sum() == pytest.approx(1.0)

    def test_flow_critic_rejects_a_row_count_that_disagrees(self):
        field = self.critics()[0]
        cfg = CriticConfig(gamma=0.9, z_lo=Z_LO, z_hi=Z_HI)
        with pytest.raises(ContractError):
            critic_histogram(field, np.zeros((3, DS)), np.zeros((1, DA)), 64, 8, (Z_LO, Z_HI),
                             np.random.default_rng(6), cfg)

    @pytest.mark.parametrize("kind", [0, 1, 2], ids=["flow", "c51", "iqn"])
    @pytest.mark.parametrize("s_rows,a_rows", [(3, 3), (3, 1), (1, 2)])
    def test_rejects_more_than_one_state_action_pair(self, kind, s_rows, a_rows):
        critic = self.critics()[kind]
        cfg = CriticConfig(gamma=0.9, z_lo=Z_LO, z_hi=Z_HI)
        rng = np.random.default_rng(7)
        s, a = rng.normal(size=(s_rows, DS)), rng.uniform(-1, 1, size=(a_rows, DA))
        with pytest.raises(ContractError):
            critic_histogram(critic, s, a, 64, 8, (Z_LO, Z_HI), np.random.default_rng(8), cfg)

    @pytest.mark.parametrize("kind", [0, 1, 2], ids=["flow", "c51", "iqn"])
    @pytest.mark.parametrize("n_samples,n_bins", [(True, 8), (64.0, 8), (0, 8), (64, True),
                                                  (64, 2.5)])
    def test_sample_and_bin_counts_must_be_positive_integers(self, kind, n_samples, n_bins):
        critic = self.critics()[kind]
        cfg = CriticConfig(gamma=0.9, z_lo=Z_LO, z_hi=Z_HI)
        with pytest.raises(ContractError):
            critic_histogram(critic, np.zeros(DS), np.zeros(DA), n_samples, n_bins, (Z_LO, Z_HI),
                             np.random.default_rng(9), cfg)
