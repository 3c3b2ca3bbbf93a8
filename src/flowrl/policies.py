"""Action policies: BC flow, rejection-sampling extraction, one-step distillation.

The BC flow policy is a conditional flow over actions trained by plain flow
matching on the dataset. Offline action selection samples N candidates from it
and takes the ensemble-Q argmax. Online fine-tuning trains a one-step policy
to maximize Q while staying close to the BC flow via an L2 distillation term.
Both policies are ``diffcore.Net`` subclasses that add only their input
layout and their own methods; a state of one row broadcasts over a batch.
"""

from __future__ import annotations

import numpy as np

from flowrl.critic import ReturnField, ensemble_q, ensemble_q_and_action_grad
from flowrl.diffcore import Loss, MlpTape, Net, mlp_forward, mlp_value
from flowrl.errors import ContractError, check_int
from flowrl.flowkit import ConditionedField, IntegrationConfig, euler_integrate, sample_times


class BcFlowPolicy(Net):
    """Flow field over actions: inputs concat(a^t, t, s) -> d-dim velocity; t is flat per row."""

    @staticmethod
    def widths(state_dim: int, action_dim: int) -> tuple[int, int]:
        return action_dim + 1 + state_dim, action_dim

    def _inputs(self, a_t, t, s) -> np.ndarray:
        return self._rows((a_t, self.action_dim), (np.reshape(t, (-1, 1)), 1), (s, self.state_dim))

    def velocity_given(self, s: np.ndarray) -> ConditionedField:
        """The field over actions at fixed states ``s``: one row, or one per action row."""
        return ConditionedField(self, s)


def bc_flow_loss(policy: BcFlowPolicy, s: np.ndarray, a: np.ndarray,
                 rng: np.random.Generator) -> tuple[Loss, MlpTape]:
    """Conditional flow matching over dataset actions given states.

    Interpolates a^t = t * a + (1 - t) * eps and regresses v(a^t | t, s) onto
    a - eps: per-row squared L2 over action dims, mean over the batch.
    """
    s = np.atleast_2d(np.asarray(s, dtype=np.float64))
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if a.shape[0] == 0:
        raise ContractError("bc_flow_loss needs a nonempty batch")
    if s.shape[0] != a.shape[0]:
        raise ContractError("state/action batches must be aligned")
    n = a.shape[0]
    eps = rng.standard_normal(a.shape)
    t = sample_times(rng, n)
    a_t = t[:, None] * a + (1.0 - t[:, None]) * eps
    tape = mlp_forward(policy.params, policy._inputs(a_t, t, s), policy.spec)
    residual = tape.output - (a - eps)
    value = (residual**2).sum(axis=1).sum() * (1.0 / n)
    return Loss(value, tape, residual * (2.0 / n)), tape


def sample_bc_action(policy: BcFlowPolicy, s: np.ndarray, eps_d: np.ndarray,
                     flow_steps: int) -> np.ndarray:
    """Integrate the action flow from noise and clip into the action box.

    ``eps_d`` may be a single (d,) noise or a stack (n, d); ``s`` broadcasts.
    """
    eps_d = np.atleast_2d(np.asarray(eps_d, dtype=np.float64))
    cond = policy.velocity_given(s)
    actions = euler_integrate(cond, eps_d, IntegrationConfig(flow_steps))
    return np.clip(actions, -1.0, 1.0)


def snap_to_atoms(actions: np.ndarray, atoms: list[np.ndarray]) -> np.ndarray:
    """Map each action to the nearest embedded discrete action."""
    grid = np.stack(atoms)
    d2 = ((actions[:, None, :] - grid[None, :, :]) ** 2).sum(axis=2)
    return grid[np.argmin(d2, axis=1)]


def rejection_sample_action(critic_fields: list[ReturnField], bc_policy: BcFlowPolicy,
                            s: np.ndarray, n_candidates: int, noise_set: np.ndarray,
                            rng: np.random.Generator, flow_steps: int = 10,
                            action_atoms: list[np.ndarray] | None = None) -> np.ndarray:
    """Sample N candidate actions from the BC flow and act with the Q argmax.

    Candidates are scored by :func:`~flowrl.critic.ensemble_q`, which checks
    the fields and noises; a single candidate is returned unscored. Ties
    break toward the lowest candidate index; the same Q-noise set scores
    every candidate, so adding a constant to all Q values cannot change the
    selection. For discrete-action envs the candidates are snapped to the
    nearest legal embedded action before scoring.
    """
    n_candidates = check_int("n_candidates", n_candidates)
    eps = rng.standard_normal((n_candidates, bc_policy.action_dim))
    candidates = sample_bc_action(bc_policy, s, eps, flow_steps)
    if action_atoms is not None:
        candidates = snap_to_atoms(candidates, action_atoms)
    if n_candidates == 1:
        return candidates[0]
    return candidates[int(np.argmax(ensemble_q(critic_fields, s, candidates, noise_set)))]


class OneStepPolicy(Net):
    """Single-forward-pass stochastic policy: inputs concat(eps_d, s) -> action."""

    @staticmethod
    def widths(state_dim: int, action_dim: int) -> tuple[int, int]:
        return action_dim + state_dim, action_dim

    def _inputs(self, eps_d, s) -> np.ndarray:
        return self._rows((eps_d, self.action_dim), (s, self.state_dim))

    def act(self, s: np.ndarray, eps_d: np.ndarray, clip: bool = True) -> np.ndarray:
        """(n, d) actions for one noise row per action; one row of s or eps_d broadcasts."""
        a = mlp_value(self.params, self._inputs(eps_d, s), self.spec)
        return np.clip(a, -1.0, 1.0) if clip else a


def one_step_policy_loss(one_step: OneStepPolicy, bc_policy: BcFlowPolicy,
                         critic_fields: list[ReturnField], s: np.ndarray, alpha: float,
                         rng: np.random.Generator, flow_steps: int = 10,
                         q_noises: int = 4) -> tuple[Loss, MlpTape, dict]:
    """DDPG-style objective: maximize ensemble Q, distill toward the BC flow.

    The loss is mean(-q + alpha * |a - a_bc|^2). The same eps_d feeds both
    policies; gradients flow only into the one-step network (the critics and
    the BC policy are constants), whose output gradient is
    -dq/da / n + 2 * alpha * (a - a_bc) / n. q and dq/da come from
    :func:`~flowrl.critic.ensemble_q_and_action_grad`, in forward mode: one
    input-JVP pass per critic and action column, and no critic tape. Only
    the one-step network's pass is kept for its backward.
    """
    if not alpha >= 0.0:
        raise ContractError(f"alpha must be >= 0, got {alpha}")
    q_noises = check_int("q_noises", q_noises)
    s = np.atleast_2d(np.asarray(s, dtype=np.float64))
    if s.shape[0] == 0:
        raise ContractError("one_step_policy_loss needs a nonempty batch")
    n = s.shape[0]
    eps_d = rng.standard_normal((n, one_step.action_dim))
    tape = mlp_forward(one_step.params, one_step._inputs(eps_d, s), one_step.spec)
    actions = tape.output

    q_eps = rng.standard_normal(q_noises)
    q, dq_da = ensemble_q_and_action_grad(critic_fields, s, actions, q_eps)
    gap = actions - sample_bc_action(bc_policy, s, eps_d, flow_steps)
    distill = (gap**2).sum(axis=1, keepdims=True)
    value = (-q + distill * alpha).sum() * (1.0 / n)
    output_grad = dq_da * -(1.0 / n) + (1.0 / n) * alpha * 2.0 * gap
    diagnostics = {
        "q_term": float(q.mean()),
        "distill_term": float(distill.mean()),
    }
    return Loss(value, tape, output_grad), tape, diagnostics
