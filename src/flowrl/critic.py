"""Flow-matching return critic.

A scalar vector field v(z | t, s, a) models the conditional return
distribution: Euler-integrating it from Gaussian noise produces return
samples, its value at t = 0 estimates the return expectation, and the
co-integrated noise sensitivity estimates the return variance. Training
regresses the online field onto a target-network field through the
distributional TD construction, optionally weighted by a per-transition
confidence weight that grows with return uncertainty.

Only rows that bootstrap pay for the target flow. A terminal row's TD
target is the point mass at r: its noise sensitivity is 0, so its weight is
the 0.5 limit of the confidence weight, and it reads nothing off the target
field. :func:`value_flow_loss` integrates the target over the nonterminal
rows alone, and calls no target on an all-terminal batch. On a terminal row
the DCFM and BCFM rows are also one row, bit for bit (z = t * r + (1 - t) *
eps, regressed onto r - eps), so the stacked online pass holds the DCFM rows
of all n transitions and then the BCFM rows of the nonterminal ones, and a
terminal row carries both terms' coefficients, (1 + lam) * w / n.

``ReturnField`` is a ``diffcore.Net``: it adds only its (z, t, s, a) input
layout and the field's methods. ``Net._rows`` writes every (z, t, s, a) row
in that column order: for ``_inputs``, for the stacked DCFM and BCFM rows of
:func:`value_flow_loss` and for the noise-major rows of :func:`_q_rows`,
which every ensemble Q pass shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flowrl.diffcore import Loss, MlpTape, Net, mlp_forward, mlp_value, mlp_value_and_input_jvp
from flowrl.errors import ConfigError, ContractError, check_int
from flowrl.flowkit import ConditionedField, IntegrationConfig, euler_integrate, \
    euler_integrate_with_derivative, euler_trajectory, sample_times


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma < 1.0:
        raise ConfigError(f"gamma must be in [0, 1), got {gamma}")


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
        _check_gamma(self.gamma)
        if not (self.lam >= 0.0 and self.tau > 0.0):
            raise ConfigError(f"need lam >= 0 and tau > 0, got {self}")
        if not self.z_lo <= self.z_hi:
            raise ConfigError(f"need z_lo <= z_hi, got {self.z_lo}, {self.z_hi}")
        IntegrationConfig(self.flow_steps)   # rejects a step count that is not an int >= 1

    @classmethod
    def for_env(cls, env, **overrides) -> "CriticConfig":
        z_lo, z_hi = env.z_bounds
        return cls(gamma=env.gamma, z_lo=z_lo, z_hi=z_hi, **overrides)


class ReturnField(Net):
    """Scalar vector field over inputs concat(z, t, s, a); z and t are flat per-row values."""

    @staticmethod
    def widths(state_dim: int, action_dim: int) -> tuple[int, int]:
        return 2 + state_dim + action_dim, 1

    def _inputs(self, z, t, s, a) -> np.ndarray:
        return self._rows((np.reshape(z, (-1, 1)), 1), (np.reshape(t, (-1, 1)), 1),
                          (s, self.state_dim), (a, self.action_dim))

    def velocity(self, z, t, s, a) -> np.ndarray:
        return mlp_value(self.params, self._inputs(z, t, s, a), self.spec)[:, 0]

    def forward_tape(self, x) -> MlpTape:
        return mlp_forward(self.params, x, self.spec)

    def conditioned(self, s, a) -> ConditionedField:
        """The field over z at fixed (s, a): one row of each, or one per noise."""
        return ConditionedField(self, s, a)


# -- estimators ---------------------------------------------------------------

def antithetic_noises(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard normal draws in symmetric +/- pairs (plus 0 when n is odd)."""
    n = check_int("n", n)
    half = rng.standard_normal(n // 2)
    parts = [half, -half] + ([np.zeros(1)] if n % 2 else [])
    return np.concatenate(parts)


def sample_return(field: ReturnField, s, a, eps, cfg: CriticConfig) -> np.ndarray:
    """Transport noise to return samples through the flow ODE; clips to bounds.

    ``eps`` is a scalar or a 1-d array of noises; any other shape raises
    ContractError.
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=np.float64))
    if eps.ndim != 1:
        raise ContractError(f"noise must be a scalar or 1-d, got shape {eps.shape}")
    cond = field.conditioned(s, a)
    z = euler_integrate(cond, eps, IntegrationConfig(cfg.flow_steps))
    if cfg.clip_returns:
        z = np.clip(z, cfg.z_lo, cfg.z_hi)
    return z


def variance_estimate(field: ReturnField, s, a, noise_set: np.ndarray,
                      flow_steps: int) -> float:
    """Mean squared flow derivative at t = 1, E[J^2]: an upper bound on the return variance.

    For a standard normal noise eps and a flow map phi, the Gaussian Poincare
    inequality gives Var[phi(eps)] <= E[phi'(eps)^2], with equality when phi
    is affine. So this returns the return variance itself only for a flow
    that transports the noise affinely, and bounds it from above otherwise.
    """
    noise_set = np.atleast_1d(np.asarray(noise_set, dtype=np.float64))
    if noise_set.size < 1:
        raise ContractError("variance_estimate needs at least one noise")
    cond = field.conditioned(s, a)
    _, jac = euler_integrate_with_derivative(cond, noise_set, IntegrationConfig(flow_steps))
    return float((jac**2).mean())


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _weight_from_jac(jac: np.ndarray, tau: float) -> np.ndarray:
    """Per-sample loss weight in [0.5, 1], increasing in the flow derivative.

    w = sigmoid(-tau / |dphi/deps|) + 0.5, with the zero-derivative limit
    pinned to 0.5. ``value_flow_loss`` applies it to the target flow's
    derivative at t = 1, outside the gradient graph. A terminal row's
    derivative is 0, the point mass's, so its weight is exactly 0.5.
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

    def next_actions(self, sampler, rng: np.random.Generator) -> np.ndarray:
        """The actions ``sampler`` draws at ``s_next`` from ``rng``, one float row per transition.

        A sampler may return one row for all of s', which is broadcast to
        every transition; any other row count, or an array that is not 2-d
        (after a 1-d row is read as one row), raises ContractError.
        """
        a = np.atleast_2d(np.asarray(sampler(self.s_next, rng), dtype=np.float64))
        n = len(self)
        if a.ndim != 2 or a.shape[0] not in (1, n):
            raise ContractError(f"next actions need 1 or {n} rows, got shape {a.shape}")
        return np.broadcast_to(a, (n, a.shape[1]))

    def discounts(self, gamma: float) -> np.ndarray:
        """gamma on nonterminal rows, 0 on terminal ones; ConfigError unless 0 <= gamma < 1."""
        _check_gamma(gamma)
        return gamma * (~self.terminal)


@dataclass
class _LossDraws:
    """Every random quantity a loss term needs, drawn once per batch.

    ``eps``, ``t`` and ``a_next`` hold every row, drawn in that order.
    The target-flow quantities come from one trajectory over the bootstrap
    rows ``boot`` alone; a terminal row reads none of them, and holds 0 in
    each, so its ``jac1`` gives the weight's 0.5 limit.
    """

    eps: np.ndarray
    t: np.ndarray
    a_next: np.ndarray
    boot: np.ndarray       # ascending indices of the nonterminal rows
    z_t: np.ndarray        # target flow read off the t = 1 trajectory at per-row time t
    vbar_t: np.ndarray     # target velocity at (z_t, t, s', a')
    z1: np.ndarray         # target flow at t = 1 (same eps)
    jac1: np.ndarray       # flow derivative at t = 1


def _draw_loss_quantities(target: ReturnField, sampler, batch: CriticBatch,
                          cfg: CriticConfig, rng: np.random.Generator) -> _LossDraws:
    n = len(batch)
    a_next = batch.next_actions(sampler, rng)
    eps = rng.standard_normal(n)
    t = sample_times(rng, n)
    boot = np.flatnonzero(~batch.terminal)
    z_t, vbar_t, z1, jac1 = np.zeros((4, n))
    if boot.size:
        # one target trajectory: its end gives z1 and jac1, its nodes give z_t
        s_next, a_boot, t_boot = batch.s_next[boot], a_next[boot], t[boot]
        traj = euler_trajectory(target.conditioned(s_next, a_boot), eps[boot],
                                IntegrationConfig(cfg.flow_steps))
        z1_boot, z_t_boot = traj.x, traj.at(t_boot)
        if cfg.clip_returns:
            z1_boot = np.clip(z1_boot, cfg.z_lo, cfg.z_hi)
            z_t_boot = np.clip(z_t_boot, cfg.z_lo, cfg.z_hi)
        z1[boot], jac1[boot], z_t[boot] = z1_boot, traj.jac, z_t_boot
        vbar_t[boot] = target.velocity(z_t_boot, t_boot, s_next, a_boot)
    return _LossDraws(eps=eps, t=t, a_next=a_next, boot=boot, z_t=z_t, vbar_t=vbar_t,
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
    velocity z1_td - eps. Terminal rows mask gamma to 0, which makes each
    one its DCFM row, bit for bit.
    """
    z1_td = batch.r + batch.discounts(cfg.gamma) * d.z1
    z_in = d.t * z1_td + (1.0 - d.t) * d.eps
    target = z1_td - d.eps
    return z_in, target


def _weighted_regression(online: ReturnField, x, target, coeffs) -> Loss:
    """sum(coeffs * (v - target)^2) over rows x; its output gradient is 2 * coeffs * residual."""
    tape = online.forward_tape(x)
    c = coeffs[:, None]
    residual = tape.output - target[:, None]
    return Loss((residual**2 * c).sum(), tape, 2.0 * c * residual)


def value_flow_loss(online: ReturnField, target: ReturnField, next_action_sampler,
                    batch: CriticBatch, cfg: CriticConfig, rng: np.random.Generator
                    ) -> tuple[Loss, MlpTape, dict]:
    """Combined critic loss: weighted DCFM + lam * weighted BCFM.

    Draws one noise per transition, reused for the confidence weight, the
    target-flow integration, and both loss terms. The target flow runs over
    the nonterminal rows only; a terminal row's weight is 0.5. A single
    stacked online forward pass holds the DCFM rows of all n transitions,
    then the BCFM rows of the nonterminal ones: a terminal row's two rows are
    the same row, so it appears once, with coefficient (1 + lam) * w / n.
    Returns (loss, tape, diagnostics). Besides the two terms (a terminal
    row's BCFM residual is its shared row's), the diagnostics show how the
    confidence weight spreads over the batch: its mean, its 10/50/90th
    percentiles and the share of rows above 0.55, which is near 0 when the
    weight is flat at its 0.5 floor. ``mean_abs_flow_derivative`` averages
    |J| over the rows that ran the target flow, and is 0 when none did.
    """
    d = _draw_loss_quantities(target, next_action_sampler, batch, cfg, rng)
    weights = _weight_from_jac(d.jac1, cfg.tau)
    n, boot = len(batch), d.boot

    z_dc, tgt_dc = _dcfm_rows(batch, d, cfg)
    z_bc, tgt_bc = _bcfm_rows(batch, d, cfg)
    rows = np.concatenate([np.arange(n), boot])
    x = online._rows((np.concatenate([z_dc, z_bc[boot]])[:, None], 1), (d.t[rows, None], 1),
                     (batch.s[rows], online.state_dim), (batch.a[rows], online.action_dim))
    targets = np.concatenate([tgt_dc, tgt_bc[boot]])
    w_n = weights / n
    coeffs = np.concatenate([np.where(batch.terminal, (1.0 + cfg.lam) * w_n, w_n),
                             cfg.lam * w_n[boot]])

    loss = _weighted_regression(online, x, targets, coeffs)

    res = loss.tape.output[:, 0] - targets
    res_dc = res[:n]
    res_bc = res_dc.copy()
    res_bc[boot] = res[n:]
    p10, p50, p90 = np.percentile(weights, [10, 50, 90])
    diagnostics = {
        "dcfm": float(np.mean(weights * res_dc ** 2)),
        "bcfm": float(np.mean(weights * res_bc ** 2)),
        "mean_weight": float(weights.mean()),
        "weight_p10": float(p10),
        "weight_p50": float(p50),
        "weight_p90": float(p90),
        "weight_share_above_0.55": float((weights > 0.55).mean()),
        "mean_abs_flow_derivative": float(np.abs(d.jac1[boot]).mean()) if boot.size else 0.0,
    }
    return loss, loss.tape, diagnostics


def _q_rows(fields: list[ReturnField], s, actions, noises) -> tuple[np.ndarray, int]:
    """The (eps, t = 0, s, a) rows of an ensemble Q pass, and the noise count m.

    Rows are noise-major: row j * n + i pairs noise j with action row i and
    with state row i (or the one state row). Every field reads these rows.
    ``actions`` is (n, action_dim), as an array or a nested list; ``s`` of
    another row count or width, or ``actions`` of another width, raises
    ContractError.
    """
    if not fields:
        raise ContractError("need at least one field")
    noises = np.atleast_1d(np.asarray(noises, dtype=np.float64))
    if noises.ndim != 1 or noises.size < 1 or not np.isfinite(noises).all():
        raise ContractError(f"need a 1-d set of at least one Q noise, all finite; got shape "
                            f"{noises.shape} with {np.count_nonzero(~np.isfinite(noises))} "
                            f"non-finite")
    field = fields[0]
    s = np.atleast_2d(np.asarray(s, dtype=np.float64))
    actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
    n, sd, ad = actions.shape[0], field.state_dim, field.action_dim
    if (s.ndim != 2 or s.shape[0] not in (1, n) or s.shape[1] != sd or actions.ndim != 2
            or actions.shape[1] != ad):
        raise ContractError(f"Q rows need (1 or n, {sd}) states and (n, {ad}) "
                            f"actions, got shapes {s.shape} and {actions.shape}")
    x = field._rows((noises[:, None, None], 1), (np.zeros((1, 1, 1)), 1), (s[None], sd),
                    (actions[None], ad))
    return x, noises.size


def _noise_mean(out: np.ndarray, m: int) -> np.ndarray:
    """Per action row, the mean of a field's outputs over the m noises of :func:`_q_rows`."""
    return out.reshape(m, -1).sum(axis=0) * (1.0 / m)


def ensemble_q(fields: list[ReturnField], s, actions, noises) -> np.ndarray:
    """Ensemble-min Q estimate per action row, shape (n,).

    Each field's Q is the mean of v(eps | t = 0, s, a) over the noises; the
    estimate is the minimum over fields. ``s`` has one row per action or one
    row for all of them.
    """
    x, m = _q_rows(fields, s, actions, noises)
    q = _noise_mean(mlp_value(fields[0].params, x, fields[0].spec), m)
    for f in fields[1:]:
        np.minimum(q, _noise_mean(mlp_value(f.params, x, f.spec), m), out=q)
    return q


def ensemble_q_and_action_grad(fields: list[ReturnField], s, actions,
                               noises) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble-min Q estimate per row and its gradient with respect to the actions.

    Forward mode: over the rows of :func:`_q_rows`, each field runs one
    ``mlp_value_and_input_jvp`` pass per action column, along the unit
    tangent on that column, and keeps no tape. A pass's value, averaged over
    the m noises, is the field's Q, bit for bit the one :func:`ensemble_q`
    computes; its JVP, averaged the same way, is the field's dq/da on that
    column. q is the minimum over fields, ties going to the earlier field as
    in :func:`ensemble_q`, and each row takes the dq/da of the field that
    holds its minimum. Field parameters are constants.

    The cost is ``action_dim`` JVP passes per field, so forward mode is the
    cheaper mode only for few action columns. At 256 states x 4 noises with
    two (64, 64) critics (timeit minimum, one thread, 2-core Xeon), one call
    took 4.4-4.8 ms at one column, against 7.7-10.5 ms for a kept tape and
    an input reverse pass per field; at two columns 8.6-9.8 ms against
    8.0-8.3 ms, and at three 12.9-13.4 ms against 7.2-9.2 ms. Every action
    space that trains a one-step policy in this package has one column, and
    no caller outside the tests passes more.
    Returns q as (n, 1) and dq/da as (n, action_dim).
    """
    x, m = _q_rows(fields, s, actions, noises)
    in_dim, ad = x.shape[1], fields[0].action_dim
    tangents = []
    for col in range(in_dim - ad, in_dim):
        tangent = np.zeros_like(x)
        tangent[:, col] = 1.0
        tangents.append(tangent)
    per_field, grads = [], []
    for field in fields:
        values, jvps = zip(*(mlp_value_and_input_jvp(field.params, x, field.spec, t)
                             for t in tangents))
        per_field.append(_noise_mean(values[0], m))
        grads.append(np.stack([_noise_mean(jvp, m) for jvp in jvps], axis=1))
    per_field = np.stack(per_field)
    owner = np.argmin(per_field, axis=0)    # the first field on ties
    rows = np.arange(owner.size)
    return per_field[owner, rows][:, None], np.stack(grads)[owner, rows]
