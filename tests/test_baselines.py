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
from flowrl.critic import CriticBatch, CriticConfig, ReturnField
from flowrl.errors import ContractError

from helpers import loss_grad_match, random_params_like

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
