"""Flow-matching return critic.

A scalar vector field v(z | t, s, a) models the conditional return
distribution: Euler-integrating it from Gaussian noise produces return
samples, its value at t = 0 estimates the return expectation, and the
co-integrated noise sensitivity estimates the return variance. Training
regresses the online field onto a target-network field through the
distributional TD construction, optionally weighted by a per-transition
confidence weight that grows with return uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flowrl.diffcore import MlpSpec, ParamSet, Tensor, concat, init_mlp, mlp_forward, mlp_value, \
    mlp_value_and_input_jvp
from flowrl.diffcore.nn import MlpTape
from flowrl.errors import ConfigError, ContractError
from flowrl.flowkit import IntegrationConfig, euler_integrate, euler_integrate_with_derivative, \
    euler_trajectory, sample_times


@dataclass(frozen=True)
class CriticConfig:
    """Critic hyperparameters; return bounds come from the env's reward range."""

    gamma: float
    z_lo: float
    z_hi: float
    lam: float = 1.0
    tau: float = 1.0
    flow_steps: int = 10
    ensemble_size: int = 2
    clip_returns: bool = True

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.lam < 0.0 or self.tau <= 0.0 or self.flow_steps < 1:
            raise ConfigError(f"invalid critic config: {self}")
        if self.z_lo > self.z_hi:
            raise ConfigError(f"z_lo {self.z_lo} > z_hi {self.z_hi}")

    @classmethod
    def for_env(cls, env, **overrides) -> "CriticConfig":
        z_lo, z_hi = env.z_bounds
        return cls(gamma=env.gamma, z_lo=z_lo, z_hi=z_hi, **overrides)


def _rows(x, n: int, dim: int) -> np.ndarray:
    """Coerce one row, as (dim,) or (1, dim), or an (n, dim) batch to (n, dim) floats."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim or x.shape[0] not in (1, n):
        raise ContractError(f"expected 1 or {n} rows of width {dim}, got shape {x.shape}")
    return np.ascontiguousarray(np.broadcast_to(x, (n, dim)))


class ReturnField:
    """Scalar vector field over inputs concat(z, t, s, a)."""

    def __init__(self, state_dim: int, action_dim: int, params: ParamSet, spec: MlpSpec):
        if spec.in_dim != 2 + state_dim + action_dim or spec.out_dim != 1:
            raise ConfigError("ReturnField spec must map (z, t, s, a) to a scalar")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.params = params
        self.spec = spec

    @classmethod
    def create(cls, state_dim: int, action_dim: int, rng: np.random.Generator,
               hidden: tuple[int, ...] = (64, 64), layer_norm: bool = True) -> "ReturnField":
        spec = MlpSpec(in_dim=2 + state_dim + action_dim, hidden=hidden, out_dim=1,
                       layer_norm=layer_norm)
        return cls(state_dim, action_dim, init_mlp(spec, rng), spec)

    def with_params(self, params: ParamSet) -> "ReturnField":
        return ReturnField(self.state_dim, self.action_dim, params, self.spec)

    def _inputs(self, z, t, s, a) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64).reshape(-1)
        n = z.size
        t = np.broadcast_to(np.asarray(t, dtype=np.float64), (n,))
        return np.concatenate([z[:, None], t[:, None],
                               _rows(s, n, self.state_dim),
                               _rows(a, n, self.action_dim)], axis=1)

    def velocity(self, z, t, s, a) -> np.ndarray:
        return mlp_value(self.params, self._inputs(z, t, s, a), self.spec)[:, 0]

    def velocity_and_dz(self, z, t, s, a) -> tuple[np.ndarray, np.ndarray]:
        x = self._inputs(z, t, s, a)
        tangent = np.zeros_like(x)
        tangent[:, 0] = 1.0
        value, jvp = mlp_value_and_input_jvp(self.params, x, self.spec, tangent)
        return value[:, 0], jvp[:, 0]

    def forward_tape(self, x) -> MlpTape:
        return mlp_forward(self.params, x, self.spec)

    def conditioned(self, s, a) -> "ConditionedReturnField":
        return ConditionedReturnField(self, s, a)


class ConditionedReturnField:
    """flowkit-facing view of a ReturnField with (s, a) context baked in."""

    def __init__(self, field: ReturnField, s, a):
        self.field = field
        self._s = s
        self._a = a

    def velocity(self, x, t):
        return self.field.velocity(x, t, self._s, self._a)

    def velocity_and_derivative(self, x, t):
        return self.field.velocity_and_dz(x, t, self._s, self._a)


# -- estimators ---------------------------------------------------------------

def antithetic_noises(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard normal draws in symmetric +/- pairs (plus 0 when n is odd)."""
    half = rng.standard_normal(n // 2)
    parts = [half, -half] + ([np.zeros(1)] if n % 2 else [])
    return np.concatenate(parts)


def sample_return(field: ReturnField, s, a, eps, cfg: CriticConfig) -> np.ndarray:
    """Transport noise to return samples through the flow ODE; clips to bounds."""
    cond = field.conditioned(s, a)
    z = euler_integrate(cond, np.atleast_1d(np.asarray(eps, dtype=np.float64)),
                        IntegrationConfig(cfg.flow_steps))
    if cfg.clip_returns:
        z = np.clip(z, cfg.z_lo, cfg.z_hi)
    return z


def q_estimate(field: ReturnField, s, a, noise_set: np.ndarray) -> float:
    """Return-expectation estimate: mean of v(eps | 0, s, a) over the noises."""
    noise_set = np.atleast_1d(np.asarray(noise_set, dtype=np.float64))
    if noise_set.size < 1:
        raise ContractError("q_estimate needs at least one noise")
    return float(field.velocity(noise_set, 0.0, s, a).mean())


def variance_estimate(field: ReturnField, s, a, noise_set: np.ndarray,
                      flow_steps: int) -> float:
    """Return-variance estimate: mean squared flow derivative at t = 1."""
    noise_set = np.atleast_1d(np.asarray(noise_set, dtype=np.float64))
    if noise_set.size < 1:
        raise ContractError("variance_estimate needs at least one noise")
    cond = field.conditioned(s, a)
    _, jac = euler_integrate_with_derivative(cond, noise_set, IntegrationConfig(flow_steps))
    return float((jac**2).mean())


def critic_ensemble_q(fields: list[ReturnField], s, a, noise_set: np.ndarray) -> float:
    """Pessimistic ensemble aggregation: min of per-field q estimates."""
    if not fields:
        raise ContractError("need at least one field")
    return min(q_estimate(f, s, a, noise_set) for f in fields)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _weight_from_jac(jac: np.ndarray, tau: float) -> np.ndarray:
    """Per-sample loss weight in [0.5, 1], increasing in the flow derivative.

    w = sigmoid(-tau / |dphi/deps|) + 0.5, with the zero-derivative limit
    pinned to 0.5. ``value_flow_loss`` applies it to the target flow's
    derivative at t = 1, outside the gradient graph.
    """
    absj = np.abs(jac)
    # |J| -> 0 sends -tau/|J| to -inf; exp overflows and the weight takes its 0.5 limit
    with np.errstate(divide="ignore", over="ignore"):
        w = np.where(absj > 0.0, _sigmoid(-tau / np.where(absj > 0.0, absj, 1.0)) + 0.5, 0.5)
    return w


# -- losses ---------------------------------------------------------------------

@dataclass
class CriticBatch:
    """Aligned transition arrays used by the critic losses."""

    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s_next: np.ndarray
    terminal: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=np.float64).reshape(-1)
        n = self.r.size
        if n == 0:
            raise ContractError("critic loss needs a nonempty batch")
        self.terminal = np.asarray(self.terminal, dtype=bool).reshape(-1)
        for name in ("s", "a", "s_next", "terminal"):
            shape = np.shape(getattr(self, name))
            if shape[:1] != (n,):
                raise ContractError(f"{name} has shape {shape}; r has {n} rows")

    def __len__(self):
        return self.r.size

    @classmethod
    def from_arrays(cls, arrays: dict) -> "CriticBatch":
        return cls(arrays["s"], arrays["a"], arrays["r"], arrays["s_next"],
                   arrays["terminal"])


@dataclass
class _LossDraws:
    """Every random quantity a loss term needs, drawn once per batch."""

    eps: np.ndarray
    t: np.ndarray
    a_next: np.ndarray
    z_t: np.ndarray        # target flow read off the t = 1 trajectory at per-row time t
    vbar_t: np.ndarray     # target velocity at (z_t, t, s', a')
    z1: np.ndarray         # target flow at t = 1 (same eps)
    jac1: np.ndarray       # flow derivative at t = 1


def _draw_loss_quantities(target: ReturnField, sampler, batch: CriticBatch,
                          cfg: CriticConfig, rng: np.random.Generator) -> _LossDraws:
    n = len(batch)
    a_next = np.atleast_2d(np.asarray(sampler(batch.s_next, rng), dtype=np.float64))
    eps = rng.standard_normal(n)
    t = sample_times(rng, n)
    # one target trajectory: its end gives z1 and jac1, its nodes give z_t
    traj = euler_trajectory(target.conditioned(batch.s_next, a_next), eps,
                            IntegrationConfig(cfg.flow_steps))
    z1, jac1, z_t = traj.x, traj.jac, traj.at(t)
    if cfg.clip_returns:
        z1 = np.clip(z1, cfg.z_lo, cfg.z_hi)
        z_t = np.clip(z_t, cfg.z_lo, cfg.z_hi)
    vbar_t = target.velocity(z_t, t, batch.s_next, a_next)
    return _LossDraws(eps=eps, t=t, a_next=a_next, z_t=z_t, vbar_t=vbar_t,
                      z1=z1, jac1=jac1)


def _dcfm_rows(batch: CriticBatch, d: _LossDraws, cfg: CriticConfig):
    """Prediction z-inputs and regression targets for the TD flow-matching term.

    Nonterminal rows predict at r + gamma * z^t and regress onto the target
    field's velocity; terminal rows reduce to plain flow matching toward the
    point mass at r (gamma masked to 0).
    """
    term = batch.terminal
    z_in = np.where(term,
                    d.t * batch.r + (1.0 - d.t) * d.eps,
                    batch.r + cfg.gamma * d.z_t)
    target = np.where(term, batch.r - d.eps, d.vbar_t)
    return z_in, target


def _bcfm_rows(batch: CriticBatch, d: _LossDraws, cfg: CriticConfig):
    """Bootstrapped rows: plain flow matching toward z1_td = r + gamma * z1.

    The same eps that produced z1 interpolates z^t_td and forms the target
    velocity z1_td - eps. Terminal rows mask gamma to 0.
    """
    gamma_eff = cfg.gamma * (~batch.terminal)
    z1_td = batch.r + gamma_eff * d.z1
    z_in = d.t * z1_td + (1.0 - d.t) * d.eps
    target = z1_td - d.eps
    return z_in, target


def _weighted_regression(online: ReturnField, z_in, t, s, a, target, coeffs
                         ) -> tuple[Tensor, MlpTape]:
    tape = online.forward_tape(online._inputs(z_in, t, s, a))
    residual = tape.output - Tensor(target[:, None])
    loss = (residual**2 * Tensor(coeffs[:, None])).sum()
    return loss, tape


def value_flow_loss(online: ReturnField, target: ReturnField, next_action_sampler,
                    batch: CriticBatch, cfg: CriticConfig, rng: np.random.Generator
                    ) -> tuple[Tensor, MlpTape, dict]:
    """Combined critic loss: weighted DCFM + lam * weighted BCFM.

    Draws one noise per transition, reused for the confidence weight, the
    target-flow integration, and both loss terms; runs a single stacked online
    forward pass. Returns (loss, tape, diagnostics).
    """
    d = _draw_loss_quantities(target, next_action_sampler, batch, cfg, rng)
    weights = _weight_from_jac(d.jac1, cfg.tau)
    n = len(batch)

    z_dc, tgt_dc = _dcfm_rows(batch, d, cfg)
    z_bc, tgt_bc = _bcfm_rows(batch, d, cfg)
    z_in = np.concatenate([z_dc, z_bc])
    t_in = np.concatenate([d.t, d.t])
    s_in = np.concatenate([_rows(batch.s, n, online.state_dim)] * 2)
    a_in = np.concatenate([_rows(batch.a, n, online.action_dim)] * 2)
    targets = np.concatenate([tgt_dc, tgt_bc])
    coeffs = np.concatenate([weights / n, cfg.lam * weights / n])

    loss, tape = _weighted_regression(online, z_in, t_in, s_in, a_in, targets, coeffs)

    res = tape.output.data[:, 0] - targets
    dcfm_val = float(np.mean(weights * res[:n] ** 2))
    bcfm_val = float(np.mean(weights * res[n:] ** 2))
    diagnostics = {
        "dcfm": dcfm_val,
        "bcfm": bcfm_val,
        "mean_weight": float(weights.mean()),
        "mean_abs_flow_derivative": float(np.abs(d.jac1).mean()),
        "q_mean": float(online.velocity(d.eps, 0.0, batch.s, batch.a).mean()),
    }
    return loss, tape, diagnostics


def q_values_tensor(fields: list[ReturnField], s: np.ndarray, a_tensor: Tensor,
                    noises: np.ndarray) -> Tensor:
    """Differentiable ensemble-min Q estimate with gradients into the actions.

    Field parameters stay constant. Each field runs one forward pass over the
    m noises stacked on n rows, inputs (eps, t=0, s, action graph); the m
    outputs per row are averaged.
    """
    if not fields:
        raise ContractError("need at least one field")
    noises = np.atleast_1d(np.asarray(noises, dtype=np.float64))
    n, m = s.shape[0], noises.size
    x = concat([np.repeat(noises, n)[:, None], np.zeros((m * n, 1)), np.tile(s, (m, 1)),
                concat([a_tensor] * m, axis=0)], axis=1)
    per_field = [mlp_forward(field.params, x, field.spec, params_need_grad=False)
                 .output.reshape(m, n, 1).mean(axis=0) for field in fields]
    q = per_field[0]
    for other in per_field[1:]:
        q = q.min_elem(other)
    return q
