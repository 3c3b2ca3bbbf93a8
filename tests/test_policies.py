"""Tests for the BC flow policy, rejection sampling, and one-step distillation."""

import numpy as np
import pytest

from flowrl.critic import ReturnField, ensemble_q_and_action_grad
from flowrl.diffcore import AdamState, MlpSpec, Net, adam_step
from flowrl.errors import ContractError
from flowrl.policies import (
    BcFlowPolicy,
    OneStepPolicy,
    bc_flow_loss,
    one_step_policy_loss,
    rejection_sample_action,
    sample_bc_action,
    snap_to_atoms,
)

from helpers import critic_ensemble_q, digest, loss_grad_match, random_params_like, ref_mlp

DS, DA = 2, 2
STATE = np.array([0.1, -0.4])


class _StubRng:
    """Deterministic stand-in: zero noise, fixed flow time."""

    def __init__(self, t=0.5):
        self._t = t

    def standard_normal(self, shape):
        return np.zeros(shape)

    def random(self, n):
        return np.full(n, 1.0 - self._t)


def linear_policy(action_weight=0.0, bias=None, ds=DS, da=DA) -> BcFlowPolicy:
    spec = MlpSpec(in_dim=da + 1 + ds, hidden=(), out_dim=da)
    w = np.zeros((da + 1 + ds, da))
    w[:da, :da] = action_weight * np.eye(da)
    params = {"w0": w, "b0": np.zeros(da) if bias is None else np.asarray(bias, dtype=float)}
    return BcFlowPolicy(ds, da, params, spec)


def q_field_on_action(weights, ds=DS, da=DA, bias=0.0) -> ReturnField:
    """Critic whose Q value is a fixed linear function of the action."""
    spec = MlpSpec(in_dim=2 + ds + da, hidden=(), out_dim=1)
    w = np.zeros((2 + ds + da, 1))
    w[2 + ds:, 0] = np.asarray(weights, dtype=float)
    return ReturnField(ds, da, {"w0": w, "b0": np.array([float(bias)])}, spec)


class TestBcFlowLoss:
    def test_exact_field_zero_loss(self):
        # with eps = 0 and t = 0.5 the interpolant is a/2, so v = 2 * a^t hits a - eps
        policy = linear_policy(action_weight=2.0)
        s = np.zeros((4, DS))
        a = np.random.default_rng(0).uniform(-1, 1, size=(4, DA))
        loss, _ = bc_flow_loss(policy, s, a, _StubRng(t=0.5))
        assert loss.data == pytest.approx(0.0, abs=1e-24)

    def test_zero_field_loss_equals_action_dim(self):
        policy = linear_policy()
        s = np.zeros((3, DS))
        a = np.ones((3, DA))
        loss, _ = bc_flow_loss(policy, s, a, _StubRng())
        assert loss.data == pytest.approx(DA)

    def test_fixed_seed_matches_recomputation(self):
        policy = BcFlowPolicy.create(DS, DA, np.random.default_rng(3), hidden=(8,))
        rng = np.random.default_rng(11)
        s = rng.normal(size=(6, DS))
        a = rng.uniform(-1, 1, size=(6, DA))
        loss, _ = bc_flow_loss(policy, s, a, np.random.default_rng(5))
        replay = np.random.default_rng(5)
        eps = replay.standard_normal(a.shape)
        t = 1.0 - replay.random(6)
        a_t = t[:, None] * a + (1 - t[:, None]) * eps
        x = np.concatenate([a_t, t[:, None], s], axis=1)
        v = ref_mlp(policy.params, x, policy.spec)
        expected = float((((v - (a - eps)) ** 2).sum(axis=1)).mean())
        assert loss.data == pytest.approx(expected, rel=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            bc_flow_loss(linear_policy(), np.zeros((0, DS)), np.zeros((0, DA)),
                         np.random.default_rng(0))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        policy = BcFlowPolicy.create(DS, DA, rng, hidden=(4, 4))
        policy = policy.with_params(random_params_like(policy.params, rng))
        s = rng.normal(size=(5, DS))
        a = rng.uniform(-1, 1, size=(5, DA))
        assert loss_grad_match(policy, lambda ps: bc_flow_loss(
            policy.with_params(ps), s, a, np.random.default_rng(15))) >= 0.95


class TestSampleBcAction:
    def test_zero_field_clips_noise(self):
        policy = linear_policy()
        eps = np.array([[0.4, -3.0]])
        out = sample_bc_action(policy, STATE, eps, flow_steps=10)
        np.testing.assert_allclose(out, [[0.4, -1.0]])

    def test_constant_field_shifts(self):
        policy = linear_policy(bias=[0.3, -0.2])
        out = sample_bc_action(policy, STATE, np.zeros((1, DA)), flow_steps=7)
        np.testing.assert_allclose(out, [[0.3, -0.2]], atol=1e-12)

    def test_non_finite_noise_is_a_contract_error(self):
        policy = BcFlowPolicy.create(DS, DA, np.random.default_rng(3))
        with pytest.raises(ContractError, match="non-finite"):
            sample_bc_action(policy, STATE, np.array([[0.1, np.nan]]), flow_steps=10)


class TestRejectionSampling:
    def test_choices_over_20_seeds_are_pinned(self):
        # recorded before parameter sets were flat and Euler solves reused their rows: both
        # must leave every choice of these 64-wide random nets unchanged
        rng = np.random.default_rng(77)
        fields = []
        for _ in range(2):
            field = ReturnField.create(DS, DA, rng)
            fields.append(field.with_params(random_params_like(field.params, rng, 0.3)))
        bc = BcFlowPolicy.create(DS, DA, rng)
        bc = bc.with_params(random_params_like(bc.params, rng, 0.3))
        choices = []
        for seed in range(20):
            r = np.random.default_rng(seed)
            s = r.uniform(-1, 1, size=DS)
            choices.append(rejection_sample_action(fields, bc, s, 32, r.standard_normal(8), r))
        assert digest(np.stack(choices)) == "a3d34fda5141112c"

    def test_single_candidate_unconditional(self):
        policy = linear_policy(bias=[0.9, 0.9])
        got = rejection_sample_action([q_field_on_action([1.0, 0.0])], policy, STATE,
                                      1, np.array([0.0]), np.random.default_rng(0))
        eps = np.random.default_rng(0).standard_normal((1, DA))
        expected = sample_bc_action(policy, STATE, eps, 10)[0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_argmax_and_shift_invariance(self):
        rng_seed = 7
        policy = BcFlowPolicy.create(DS, DA, np.random.default_rng(1))
        base = q_field_on_action([1.0, -0.5])
        shifted = q_field_on_action([1.0, -0.5], bias=100.0)
        a1 = rejection_sample_action([base], policy, STATE, 16, np.array([0.2, -0.2]),
                                     np.random.default_rng(rng_seed))
        a2 = rejection_sample_action([shifted], policy, STATE, 16, np.array([0.2, -0.2]),
                                     np.random.default_rng(rng_seed))
        np.testing.assert_array_equal(a1, a2)

    def test_selected_q_dominates_candidates(self):
        policy = BcFlowPolicy.create(DS, DA, np.random.default_rng(2))
        fields = [ReturnField.create(DS, DA, np.random.default_rng(s), hidden=(8,))
                  for s in (3, 4)]
        noises = np.array([0.5, -0.5, 1.1, -1.1])
        rng = np.random.default_rng(9)
        eps = rng.standard_normal((8, DA))
        candidates = sample_bc_action(policy, STATE, eps, 10)
        chosen = rejection_sample_action(fields, policy, STATE, 8, noises,
                                         np.random.default_rng(9))
        assert any(np.array_equal(chosen, c) for c in candidates)
        q_chosen = critic_ensemble_q(fields, STATE, chosen, noises)
        for cand in candidates:
            assert q_chosen >= critic_ensemble_q(fields, STATE, cand, noises) - 1e-12

    def test_scores_equal_per_field_velocity_and_rows_are_built_once(self, monkeypatch):
        policy = BcFlowPolicy.create(DS, DA, np.random.default_rng(5))
        fields = [ReturnField.create(DS, DA, np.random.default_rng(s)) for s in (6, 7)]
        noises = np.array([0.3, -0.3, 1.2])
        n = 32
        candidates = sample_bc_action(policy, STATE, np.random.default_rng(8).standard_normal(
            (n, DA)), 10)
        z = np.tile(noises, n)
        s_rows = np.broadcast_to(STATE, (n * noises.size, DS))
        a_rows = np.repeat(candidates, noises.size, axis=0)
        q = np.minimum(*(f.velocity(z, 0.0, s_rows, a_rows).reshape(n, -1).mean(axis=1)
                         for f in fields))
        calls = []

        def counted(*blocks):
            calls.append(blocks)
            return Net._rows(*blocks)

        monkeypatch.setattr(ReturnField, "_rows", staticmethod(counted))
        chosen = rejection_sample_action(fields, policy, STATE, n, noises,
                                         np.random.default_rng(8))
        np.testing.assert_array_equal(chosen, candidates[int(np.argmax(q))])
        assert len(calls) == 1

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ContractError):
            rejection_sample_action([], linear_policy(), STATE, 4, np.array([0.0]),
                                    np.random.default_rng(0))

    def test_empty_noise_set_rejected_when_candidates_are_scored(self):
        field, policy = q_field_on_action([1.0, 0.0]), linear_policy(bias=[0.9, 0.9])
        with pytest.raises(ContractError):
            rejection_sample_action([field], policy, STATE, 4, np.array([]),
                                    np.random.default_rng(0))
        # one candidate is never scored, so it needs no noise
        got = rejection_sample_action([field], policy, STATE, 1, np.array([]),
                                      np.random.default_rng(0))
        assert got.shape == (DA,)

    @pytest.mark.parametrize("n_candidates", [True, 2.5, 0])
    def test_candidate_count_must_be_a_positive_integer(self, n_candidates):
        with pytest.raises(ContractError):
            rejection_sample_action([q_field_on_action([1.0, 0.0])], linear_policy(), STATE,
                                    n_candidates, np.array([0.0]), np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_q_noise_rejected(self, bad):
        with pytest.raises(ContractError):
            rejection_sample_action([q_field_on_action([1.0, 0.0])], linear_policy(), STATE, 4,
                                    np.array([0.2, bad]), np.random.default_rng(0))

    def test_snap_to_atoms(self):
        atoms = [np.array([-1.0, 0.0]), np.array([1.0, 0.0])]
        snapped = snap_to_atoms(np.array([[0.2, 0.7], [-0.9, 0.1]]), atoms)
        np.testing.assert_array_equal(snapped, [[1.0, 0.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("actions, atoms", [
        (np.zeros((3, 2)), [np.array([-1.0]), np.array([1.0])]),
        (np.zeros((3, 1)), [np.array([-1.0, 0.0]), np.array([1.0, 0.0])]),
        (np.zeros(2), [np.array([-1.0, 0.0]), np.array([1.0, 0.0])]),
    ], ids=["wide-actions", "narrow-actions", "1-d-actions"])
    def test_snap_to_atoms_rejects_actions_of_another_shape(self, actions, atoms):
        # (3, 2) actions against 1-wide atoms once broadcast to a (3, 1) answer
        with pytest.raises(ContractError):
            snap_to_atoms(actions, atoms)


class TestOneStepPolicy:
    def test_alpha_zero_loss_is_negative_mean_q(self):
        one_step = OneStepPolicy.create(DS, DA, np.random.default_rng(0), hidden=(8,))
        bc = linear_policy()
        field = q_field_on_action([1.0, 1.0])
        s = np.random.default_rng(1).normal(size=(5, DS))
        loss, _, diag = one_step_policy_loss(one_step, bc, [field], s, alpha=0.0,
                                             rng=np.random.default_rng(2))
        assert loss.data == pytest.approx(-diag["q_term"], rel=1e-12)

    def test_huge_alpha_step_moves_toward_bc(self):
        rng = np.random.default_rng(3)
        one_step = OneStepPolicy.create(DS, DA, rng, hidden=(8,))
        bc = linear_policy(bias=[0.5, -0.5])
        field = q_field_on_action([0.0, 0.0])
        s = rng.normal(size=(16, DS))

        def mean_gap(policy):
            eps = np.random.default_rng(7).standard_normal((16, DA))
            return float(((policy.act(s, eps, clip=False)
                           - sample_bc_action(bc, s, eps, 10)) ** 2).sum(axis=1).mean())

        before = mean_gap(one_step)
        state = AdamState.for_params(one_step.params)
        loss, tape, _ = one_step_policy_loss(one_step, bc, [field], s, alpha=1e4,
                                             rng=np.random.default_rng(7))
        loss.backward()
        grads = {n: leaf.grad for n, leaf in tape.params.items()}
        new_params, _ = adam_step(one_step.params, grads, state, lr=1e-2)
        after = mean_gap(one_step.with_params(new_params))
        assert after < before

    @pytest.mark.slow
    def test_distillation_convergence(self):
        # fixed batch: the same (state, noise) pairs every step
        rng = np.random.default_rng(4)
        one_step = OneStepPolicy.create(DS, DA, rng, hidden=(32, 32))
        bc = BcFlowPolicy.create(DS, DA, np.random.default_rng(5), hidden=(16, 16))
        field = q_field_on_action([0.0, 0.0])
        s = rng.normal(size=(64, DS))
        state = AdamState.for_params(one_step.params)
        for _ in range(800):
            loss, tape, _ = one_step_policy_loss(one_step, bc, [field], s, alpha=100.0,
                                                 rng=np.random.default_rng(7))
            loss.backward()
            grads = {n: leaf.grad for n, leaf in tape.params.items()}
            one_step.params, state = adam_step(one_step.params, grads, state, lr=3e-3)
        eps = np.random.default_rng(7).standard_normal((64, DA))
        gap = ((one_step.act(s, eps, clip=False)
                - sample_bc_action(bc, s, eps, 10)) ** 2).sum(axis=1).mean()
        assert gap < 1e-3

    def test_fixed_seed_matches_recomputation(self):
        one_step = OneStepPolicy.create(DS, DA, np.random.default_rng(8), hidden=(8,))
        bc = BcFlowPolicy.create(DS, DA, np.random.default_rng(9), hidden=(8,))
        fields = [ReturnField.create(DS, DA, np.random.default_rng(s), hidden=(8,))
                  for s in (10, 11)]
        s = np.random.default_rng(12).normal(size=(4, DS))
        alpha = 2.0
        loss, _, _ = one_step_policy_loss(one_step, bc, fields, s, alpha,
                                          np.random.default_rng(13), q_noises=3)
        replay = np.random.default_rng(13)
        eps_d = replay.standard_normal((4, DA))
        actions = ref_mlp(one_step.params, np.concatenate([eps_d, s], axis=1), one_step.spec)
        q_eps = replay.standard_normal(3)
        qs = []
        for field in fields:
            vals = []
            for e in q_eps:
                x = np.concatenate([np.full((4, 1), e), np.zeros((4, 1)), s, actions], axis=1)
                vals.append(ref_mlp(field.params, x, field.spec))
            qs.append(np.mean(vals, axis=0))
        q = np.minimum(qs[0], qs[1])
        bc_a = sample_bc_action(bc, s, eps_d, 10)
        expected = float((-q + alpha * ((actions - bc_a) ** 2).sum(axis=1, keepdims=True)).mean())
        assert loss.data == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [-1.0, np.nan])
    def test_rejects_a_negative_or_nan_alpha(self, alpha):
        one_step = OneStepPolicy.create(DS, DA, np.random.default_rng(0), hidden=(8,))
        with pytest.raises(ContractError):
            one_step_policy_loss(one_step, linear_policy(), [q_field_on_action([1.0, 1.0])],
                                 np.zeros((3, DS)), alpha, np.random.default_rng(1))

    @pytest.mark.parametrize("q_noises", [0, -1, 2.5, True])
    def test_rejects_a_q_noise_count_that_is_not_a_positive_integer(self, q_noises):
        one_step = OneStepPolicy.create(DS, DA, np.random.default_rng(0), hidden=(8,))
        with pytest.raises(ContractError):
            one_step_policy_loss(one_step, linear_policy(), [q_field_on_action([1.0, 1.0])],
                                 np.zeros((3, DS)), 1.0, np.random.default_rng(1),
                                 q_noises=q_noises)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        one_step = OneStepPolicy.create(DS, DA, rng, hidden=(4, 4))
        one_step = one_step.with_params(random_params_like(one_step.params, rng))
        bc = BcFlowPolicy.create(DS, DA, rng, hidden=(4,))
        fields = [ReturnField.create(DS, DA, rng, hidden=(4,)) for _ in range(2)]
        s = rng.normal(size=(5, DS))
        assert loss_grad_match(one_step, lambda ps: one_step_policy_loss(
            one_step.with_params(ps), bc, fields, s, 0.5, np.random.default_rng(17),
            q_noises=2)) >= 0.95


def _q_path_cases():
    """Seeded outputs of the two ensemble-Q paths, at the benchmark's candidate and noise counts."""
    fields = [ReturnField.create(DS, DA, np.random.default_rng(s)) for s in (101, 102)]
    policy = BcFlowPolicy.create(DS, DA, np.random.default_rng(100))

    def choices():
        out = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            s, noises = rng.normal(size=DS), rng.standard_normal(8)
            out.append(rejection_sample_action(fields, policy, s, 32, noises, rng))
        return [np.stack(out)]

    def gradient():
        rng = np.random.default_rng(200)
        s, a = rng.normal(size=(64, DS)), rng.uniform(-1.0, 1.0, size=(64, DA))
        return ensemble_q_and_action_grad(fields, s, a, rng.standard_normal(4))

    return {"rejection-choices": choices, "ensemble-q-and-grad": gradient}


Q_PATH_DIGESTS = {   # a changed digest is a changed action choice or Q gradient
    "ensemble-q-and-grad": "047a91fba320d816",
    "rejection-choices": "da4ed9c5510cc4aa",
}


@pytest.mark.parametrize("name", sorted(Q_PATH_DIGESTS))
def test_seeded_q_paths_are_pinned(name):
    assert digest(*_q_path_cases()[name]()) == Q_PATH_DIGESTS[name]
