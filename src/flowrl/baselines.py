"""Categorical and quantile return critics, plus the shared histogram view.

Desk-scale re-implementations of the two classic distributional critics,
C51 (arXiv 1707.06887) and IQN (arXiv 1806.06923). Both are ``diffcore.Net``
subclasses, like the flow critic: the same MLP trunk, optimizer and batch
pipeline, so that distribution-quality comparisons isolate the
representation. Each class adds only its input layout and its own methods;
C51 also keeps its atom support.
"""

from __future__ import annotations

import numpy as np

from flowrl.critic import CriticConfig, ReturnField, sample_return
from flowrl.diffcore import Loss, MlpSpec, MlpTape, Net, ParamSet, init_mlp, mlp_forward, \
    mlp_value
from flowrl.errors import ConfigError, ContractError, check_int
from flowrl.metrics import ReturnHistogram, histogram_edges, histogram_from_atoms, \
    histogram_from_samples


class CategoricalCritic(Net):
    """Fixed-support categorical return model: (s, a) -> one logit per atom of ``support``."""

    def __init__(self, state_dim: int, action_dim: int, params: ParamSet, spec: MlpSpec,
                 support: np.ndarray):
        support = np.asarray(support, dtype=np.float64)
        if support.ndim != 1 or support.size < 2 or np.any(np.diff(support) <= 0):
            raise ConfigError("support must be >= 2 ascending atoms")
        # c51_project splits mass by one atom gap; the tolerance lets linspace rounding through
        gap = (support[-1] - support[0]) / (support.size - 1)
        even = np.linspace(support[0], support[-1], support.size)
        if not np.abs(support - even).max() <= 1e-6 * gap:   # NaN fails too
            raise ConfigError(f"support must be evenly spaced, got {support}")
        self.support = support
        super().__init__(state_dim, action_dim, params, spec)

    def widths(self, state_dim: int, action_dim: int) -> tuple[int, int]:
        return state_dim + action_dim, self.support.size

    @classmethod
    def create(cls, state_dim: int, action_dim: int, n_atoms: int, z_lo: float, z_hi: float,
               rng: np.random.Generator, hidden: tuple[int, ...] = (64, 64)
               ) -> "CategoricalCritic":
        n_atoms = check_int("n_atoms", n_atoms, least=2)
        spec = MlpSpec(in_dim=state_dim + action_dim, hidden=hidden, out_dim=n_atoms)
        support = np.linspace(z_lo, z_hi, n_atoms)
        return cls(state_dim, action_dim, init_mlp(spec, rng), spec, support)

    def _inputs(self, s, a) -> np.ndarray:
        return self._rows((s, self.state_dim), (a, self.action_dim))

    def probs(self, s, a) -> np.ndarray:
        logits = mlp_value(self.params, self._inputs(s, a), self.spec)
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)


def c51_project(values: np.ndarray, masses: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Project mass at arbitrary return values onto the fixed atom grid.

    ``support`` must be evenly spaced, as ``CategoricalCritic`` checks: a
    value's atom position is (v - lo) / delta with the one gap delta.
    Out-of-range values clamp to the boundary atoms; interior values split
    their mass between the two neighboring atoms proportionally to distance.
    Shapes: values (M,) or (rows, M), and masses of a shape that broadcasts
    to theirs, -> output (1 or rows, N); values of more dimensions raise
    ContractError. Mass is conserved.
    One ``np.bincount`` over the flat indices row * N + atom adds every lower
    share, in row-major order, and then every upper share: each atom gets
    its shares in the order of two ``np.add.at`` scatters, bit for bit, at
    1.3 to 2 times their speed on a 256 x 51 call.
    """
    support = np.asarray(support, dtype=np.float64)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    masses = np.atleast_2d(np.asarray(masses, dtype=np.float64))
    if values.ndim != 2:
        raise ContractError(f"values must be (M,) or (rows, M), got shape {values.shape}")
    n = support.size
    delta = (support[-1] - support[0]) / (n - 1)
    b = (np.clip(values, support[0], support[-1]) - support[0]) / delta
    lower = np.floor(b).astype(int)
    upper = np.minimum(lower + 1, n - 1)
    frac = b - lower
    rows = values.shape[0]
    base = np.arange(0, rows * n, n)[:, None]
    index = np.concatenate([(base + lower).ravel(), (base + upper).ravel()])
    shares = np.concatenate([np.broadcast_to(masses * (1.0 - frac), lower.shape).ravel(),
                             np.broadcast_to(masses * frac, upper.shape).ravel()])
    return np.bincount(index, shares, minlength=rows * n).reshape(rows, n)


def c51_project_and_loss(online: CategoricalCritic, target: CategoricalCritic,
                         next_action_sampler, batch, rng: np.random.Generator,
                         gamma: float) -> tuple[Loss, MlpTape]:
    """Cross-entropy between the projected TD target distribution and the
    online categorical distribution. Terminal rows project a point mass at r.

    With p the projected target and G = -p / n, the logits' gradient is
    G - softmax * rowsum(G), the log-softmax reverse pass.
    """
    discounts = batch.discounts(gamma)
    if not np.array_equal(online.support, target.support):
        raise ConfigError("online and target critics must share one support")
    n = len(batch)
    a_next = batch.next_actions(next_action_sampler, rng)
    next_probs = target.probs(batch.s_next, a_next)
    shifted = batch.r[:, None] + discounts[:, None] * online.support[None, :]
    projected = c51_project(shifted, next_probs, online.support)
    tape = mlp_forward(online.params, online._inputs(batch.s, batch.a), online.spec)
    logits = tape.output - tape.output.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    value = -((log_probs * projected).sum(axis=1).sum() * (1.0 / n))
    g = -(1.0 / n) * projected
    return Loss(value, tape, g - np.exp(log_probs) * g.sum(axis=1, keepdims=True)), tape


class QuantileCritic(Net):
    """Implicit quantile model: (s, a, fraction u) -> quantile value."""

    @staticmethod
    def widths(state_dim: int, action_dim: int) -> tuple[int, int]:
        return state_dim + action_dim + 1, 1

    def _inputs(self, s, a, u) -> np.ndarray:
        """Row i * k + j is (s_i, a_i, u[i, j]), u (batch, k); one row of s, a or u broadcasts."""
        return self._rows((np.atleast_2d(s)[:, None], self.state_dim),
                          (np.atleast_2d(a)[:, None], self.action_dim),
                          (np.atleast_2d(u)[:, :, None], 1))

    def quantiles(self, s, a, u) -> np.ndarray:
        """(batch, k) quantile values at the fractions u of shape (batch, k)."""
        u = np.atleast_2d(np.asarray(u, dtype=np.float64))
        vals = mlp_value(self.params, self._inputs(s, a, u), self.spec)
        return vals.reshape(-1, u.shape[1])


def quantile_huber_loss(online: QuantileCritic, target: QuantileCritic,
                        next_action_sampler, batch, rng: np.random.Generator,
                        gamma: float, kappa: float, n_quantiles: int = 32
                        ) -> tuple[Loss, MlpTape]:
    """Asymmetric Huber quantile regression against TD target samples.

    Online quantiles at fresh uniform fractions regress pairwise onto target
    samples r + gamma * z', where z' are target-critic quantiles at independent
    fractions. The asymmetry weight |u - 1{delta < 0}| treats the sign of the
    TD residual as constant, so each online quantile's gradient is minus the
    weighted Huber slope summed over the target samples, over the pair count.
    """
    discounts = batch.discounts(gamma)
    if not kappa > 0.0:
        raise ContractError(f"kappa must be positive, got {kappa}")
    n_quantiles = check_int("n_quantiles", n_quantiles)
    n = len(batch)
    a_next = batch.next_actions(next_action_sampler, rng)
    u_online = rng.random((n, n_quantiles))
    u_target = rng.random((n, n_quantiles))
    z_next = target.quantiles(batch.s_next, a_next, u_target)
    y = batch.r[:, None] + discounts[:, None] * z_next  # (n, k) target samples

    tape = mlp_forward(online.params, online._inputs(batch.s, batch.a, u_online), online.spec)
    delta = y[:, None, :] - tape.output.reshape(n, n_quantiles, 1)  # (n, k_online, k_target)
    weight = np.abs(u_online[:, :, None] - (delta < 0.0))
    abs_delta = np.abs(delta)
    small = abs_delta <= kappa
    huber = np.where(small, 0.5 * delta * delta, kappa * (abs_delta - 0.5 * kappa))
    inv_pairs = 1.0 / delta.size
    value = (huber * weight).sum() * inv_pairs
    slope = inv_pairs * weight * np.where(small, delta, kappa * np.sign(delta))
    return Loss(value, tape, -slope.sum(axis=2).reshape(-1, 1)), tape


def critic_histogram(critic, s, a, n_samples: int, n_bins: int,
                     support: tuple[float, float], rng: np.random.Generator,
                     critic_cfg: CriticConfig | None = None) -> ReturnHistogram:
    """Binned return distribution at one (s, a) pair for any of the three critic kinds.

    ``s`` and ``a`` are one row each, as ``(dim,)`` or ``(1, dim)``. Flow
    critics draw ``n_samples`` returns through the ODE; categorical critics
    bin their atom masses; quantile critics evaluate the inverse CDF at
    sorted uniform mid-fractions (yielding a valid distribution even without
    monotonicity).
    """
    if not isinstance(critic, (ReturnField, CategoricalCritic, QuantileCritic)):
        raise ContractError(f"unsupported critic type: {type(critic).__name__}")
    n_samples = check_int("n_samples", n_samples)
    rows = critic._rows((s, critic.state_dim), (a, critic.action_dim)).shape[0]
    if rows != 1:
        raise ContractError(f"critic_histogram takes one (s, a) pair, got {rows} rows")
    edges = histogram_edges(support, n_bins)
    if isinstance(critic, ReturnField):
        if critic_cfg is None:
            raise ContractError("flow critics need a CriticConfig for sampling")
        eps = rng.standard_normal(n_samples)
        samples = sample_return(critic, s, a, eps, critic_cfg)
        hist, _ = histogram_from_samples(samples, edges)
        return hist
    if isinstance(critic, CategoricalCritic):
        probs = critic.probs(s, a)[0]
        return histogram_from_atoms(critic.support, probs, edges)
    u = ((np.arange(n_samples) + 0.5) / n_samples)[None, :]     # ascending already
    samples = critic.quantiles(s, a, u)[0]
    hist, _ = histogram_from_samples(samples, edges)
    return hist
