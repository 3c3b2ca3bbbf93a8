"""Action policies: BC flow, rejection-sampling extraction, one-step distillation.

The BC flow policy is a conditional flow over actions trained by plain flow
matching on the dataset. Offline action selection samples N candidates from it
and takes the ensemble-Q argmax. Online fine-tuning trains a one-step policy
to maximize Q while staying close to the BC flow via an L2 distillation term.
"""

from __future__ import annotations

import numpy as np

from flowrl.critic import ReturnField, q_values_tensor
from flowrl.diffcore import MlpSpec, ParamSet, Tensor, init_mlp, mlp_forward, mlp_value
from flowrl.diffcore.nn import MlpTape
from flowrl.errors import ConfigError, ContractError
from flowrl.flowkit import IntegrationConfig, euler_integrate, sample_times


class BcFlowPolicy:
    """Flow field over actions: inputs concat(a^t, t, s) -> d-dim velocity."""

    def __init__(self, state_dim: int, action_dim: int, params: ParamSet, spec: MlpSpec):
        if spec.in_dim != action_dim + 1 + state_dim or spec.out_dim != action_dim:
            raise ConfigError("BcFlowPolicy spec must map (a^t, t, s) to an action velocity")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.params = params
        self.spec = spec

    @classmethod
    def create(cls, state_dim: int, action_dim: int, rng: np.random.Generator,
               hidden: tuple[int, ...] = (64, 64), layer_norm: bool = True) -> "BcFlowPolicy":
        spec = MlpSpec(in_dim=action_dim + 1 + state_dim, hidden=hidden,
                       out_dim=action_dim, layer_norm=layer_norm)
        return cls(state_dim, action_dim, init_mlp(spec, rng), spec)

    def with_params(self, params: ParamSet) -> "BcFlowPolicy":
        return BcFlowPolicy(self.state_dim, self.action_dim, params, self.spec)

    def _inputs(self, a_t: np.ndarray, t, s: np.ndarray) -> np.ndarray:
        n = a_t.shape[0]
        t = np.broadcast_to(np.asarray(t, dtype=np.float64), (n,))
        s = np.broadcast_to(np.asarray(s, dtype=np.float64), (n, self.state_dim))
        return np.concatenate([a_t, t[:, None], s], axis=1)

    def velocity_given(self, s: np.ndarray):
        """flowkit-compatible conditioned field over the action space."""
        policy = self

        class _Cond:
            def velocity(self, x, t):
                return mlp_value(policy.params, policy._inputs(x, t, s), policy.spec)

        return _Cond()


def bc_flow_loss(policy: BcFlowPolicy, s: np.ndarray, a: np.ndarray,
                 rng: np.random.Generator) -> tuple[Tensor, MlpTape]:
    """Conditional flow matching over dataset actions given states."""
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
    residual = tape.output - Tensor(a - eps)
    loss = (residual**2).sum(axis=1).mean()
    return loss, tape


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

    Ties break toward the lowest candidate index; the same Q-noise set scores
    every candidate, so adding a constant to all Q values cannot change the
    selection. For discrete-action envs the candidates are snapped to the
    nearest legal embedded action before scoring.
    """
    if n_candidates < 1:
        raise ContractError("need at least one candidate")
    if not critic_fields:
        raise ContractError("need at least one critic field")
    eps = rng.standard_normal((n_candidates, bc_policy.action_dim))
    candidates = sample_bc_action(bc_policy, s, eps, flow_steps)
    if action_atoms is not None:
        candidates = snap_to_atoms(candidates, action_atoms)
    if n_candidates == 1:
        return candidates[0]
    noise_set = np.atleast_1d(np.asarray(noise_set, dtype=np.float64))
    k = noise_set.size
    s_flat = np.asarray(s, dtype=np.float64).reshape(-1)
    s_rows = np.broadcast_to(s_flat, (n_candidates * k, s_flat.size))
    # the (z, t=0, s, a) rows are the same for every ensemble member: build them once
    x = critic_fields[0]._inputs(np.tile(noise_set, n_candidates), 0.0, s_rows,
                                 np.repeat(candidates, k, axis=0))
    q = None
    for field in critic_fields:
        v = mlp_value(field.params, x, field.spec)[:, 0].reshape(n_candidates, k).mean(axis=1)
        q = v if q is None else np.minimum(q, v)
    best = int(np.argmax(q))  # argmax takes the first maximizer
    return candidates[best]


class OneStepPolicy:
    """Single-forward-pass stochastic policy: (s, eps_d) -> action."""

    def __init__(self, state_dim: int, action_dim: int, params: ParamSet, spec: MlpSpec):
        if spec.in_dim != action_dim + state_dim or spec.out_dim != action_dim:
            raise ConfigError("OneStepPolicy spec must map (eps_d, s) to an action")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.params = params
        self.spec = spec

    @classmethod
    def create(cls, state_dim: int, action_dim: int, rng: np.random.Generator,
               hidden: tuple[int, ...] = (64, 64), layer_norm: bool = True) -> "OneStepPolicy":
        spec = MlpSpec(in_dim=action_dim + state_dim, hidden=hidden,
                       out_dim=action_dim, layer_norm=layer_norm)
        return cls(state_dim, action_dim, init_mlp(spec, rng), spec)

    def with_params(self, params: ParamSet) -> "OneStepPolicy":
        return OneStepPolicy(self.state_dim, self.action_dim, params, self.spec)

    def _inputs(self, eps_d: np.ndarray, s: np.ndarray) -> np.ndarray:
        n = eps_d.shape[0]
        s = np.broadcast_to(np.asarray(s, dtype=np.float64), (n, self.state_dim))
        return np.concatenate([eps_d, s], axis=1)

    def act(self, s: np.ndarray, eps_d: np.ndarray, clip: bool = True) -> np.ndarray:
        eps_d = np.atleast_2d(np.asarray(eps_d, dtype=np.float64))
        a = mlp_value(self.params, self._inputs(eps_d, s), self.spec)
        return np.clip(a, -1.0, 1.0) if clip else a

    def act_tape(self, s: np.ndarray, eps_d: np.ndarray) -> MlpTape:
        return mlp_forward(self.params, self._inputs(eps_d, s), self.spec)


def one_step_policy_loss(one_step: OneStepPolicy, bc_policy: BcFlowPolicy,
                         critic_fields: list[ReturnField], s: np.ndarray, alpha: float,
                         rng: np.random.Generator, flow_steps: int = 10,
                         q_noises: int = 4) -> tuple[Tensor, MlpTape, dict]:
    """DDPG-style objective: maximize ensemble Q, distill toward the BC flow.

    The same eps_d feeds both policies; gradients flow only through the
    one-step network (the critic and BC policy are frozen inside the graph).
    """
    if alpha < 0.0:
        raise ContractError(f"alpha must be >= 0, got {alpha}")
    s = np.atleast_2d(np.asarray(s, dtype=np.float64))
    if s.shape[0] == 0:
        raise ContractError("one_step_policy_loss needs a nonempty batch")
    n = s.shape[0]
    eps_d = rng.standard_normal((n, one_step.action_dim))
    tape = one_step.act_tape(s, eps_d)
    actions = tape.output

    q_eps = rng.standard_normal(q_noises)
    q = q_values_tensor(critic_fields, s, actions, q_eps)
    bc_actions = sample_bc_action(bc_policy, s, eps_d, flow_steps)
    distill = ((actions - Tensor(bc_actions)) ** 2).sum(axis=1, keepdims=True)
    loss = (-q + alpha * distill).mean()
    diagnostics = {
        "q_term": float(q.data.mean()),
        "distill_term": float(distill.data.mean()),
    }
    return loss, tape, diagnostics
