"""Categorical and quantile return critics, plus the shared histogram view.

Desk-scale re-implementations of the two classic distributional critics,
built on the same MLP trunk, optimizer, and batch pipeline as the flow
critic so that distribution-quality comparisons isolate the representation.
"""

from __future__ import annotations

import numpy as np

from flowrl.critic import CriticConfig, ReturnField, _rows, sample_return
from flowrl.diffcore import MlpSpec, ParamSet, Tensor, init_mlp, mlp_forward, mlp_value
from flowrl.diffcore.nn import MlpTape
from flowrl.errors import ConfigError, ContractError
from flowrl.metrics import ReturnHistogram, histogram_edges, histogram_from_atoms, \
    histogram_from_samples


class CategoricalCritic:
    """Fixed-support categorical return model: (s, a) -> atom logits."""

    def __init__(self, state_dim: int, action_dim: int, params: ParamSet, spec: MlpSpec,
                 support: np.ndarray):
        support = np.asarray(support, dtype=np.float64)
        if support.ndim != 1 or support.size < 2 or np.any(np.diff(support) <= 0):
            raise ConfigError("support must be >= 2 ascending atoms")
        if spec.out_dim != support.size:
            raise ConfigError("logit head size must equal the atom count")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.params = params
        self.spec = spec
        self.support = support

    @classmethod
    def create(cls, state_dim: int, action_dim: int, n_atoms: int, z_lo: float, z_hi: float,
               rng: np.random.Generator, hidden: tuple[int, ...] = (64, 64),
               layer_norm: bool = True) -> "CategoricalCritic":
        spec = MlpSpec(in_dim=state_dim + action_dim, hidden=hidden, out_dim=n_atoms,
                       layer_norm=layer_norm)
        support = np.linspace(z_lo, z_hi, n_atoms)
        return cls(state_dim, action_dim, init_mlp(spec, rng), spec, support)

    def with_params(self, params: ParamSet) -> "CategoricalCritic":
        return CategoricalCritic(self.state_dim, self.action_dim, params, self.spec,
                                 self.support)

    def _inputs(self, s, a) -> np.ndarray:
        s = np.atleast_2d(np.asarray(s, dtype=np.float64))
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        return np.concatenate([s, a], axis=1)

    def logits_tape(self, s, a) -> MlpTape:
        return mlp_forward(self.params, self._inputs(s, a), self.spec)

    def probs(self, s, a) -> np.ndarray:
        logits = mlp_value(self.params, self._inputs(s, a), self.spec)
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)

    def q_values(self, s, a) -> np.ndarray:
        return self.probs(s, a) @ self.support


def c51_project(values: np.ndarray, masses: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Project mass at arbitrary return values onto the fixed atom grid.

    Out-of-range values clamp to the boundary atoms; interior values split
    their mass between the two neighboring atoms proportionally to distance.
    Shapes: values/masses (..., M) -> output (..., N). Mass is conserved.
    """
    support = np.asarray(support, dtype=np.float64)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    masses = np.atleast_2d(np.asarray(masses, dtype=np.float64))
    n = support.size
    delta = (support[-1] - support[0]) / (n - 1)
    b = (np.clip(values, support[0], support[-1]) - support[0]) / delta
    lower = np.floor(b).astype(int)
    upper = np.minimum(lower + 1, n - 1)
    frac = b - lower
    out = np.zeros((values.shape[0], n))
    rows = np.arange(values.shape[0])[:, None]
    np.add.at(out, (np.broadcast_to(rows, lower.shape), lower), masses * (1.0 - frac))
    np.add.at(out, (np.broadcast_to(rows, upper.shape), upper), masses * frac)
    return out


def c51_project_and_loss(online: CategoricalCritic, target: CategoricalCritic,
                         next_action_sampler, batch, rng: np.random.Generator,
                         gamma: float) -> tuple[Tensor, MlpTape]:
    """Cross-entropy between the projected TD target distribution and the
    online categorical distribution. Terminal rows project a point mass at r."""
    if not np.array_equal(online.support, target.support):
        raise ConfigError("online and target critics must share one support")
    n = len(batch)
    a_next = np.atleast_2d(np.asarray(next_action_sampler(batch.s_next, rng),
                                      dtype=np.float64))
    next_probs = target.probs(batch.s_next, a_next)
    gamma_eff = gamma * (~batch.terminal)
    shifted = batch.r[:, None] + gamma_eff[:, None] * online.support[None, :]
    projected = c51_project(shifted, next_probs, online.support)
    tape = online.logits_tape(batch.s, batch.a)
    log_probs = tape.output.log_softmax(axis=1)
    loss = -(log_probs * Tensor(projected)).sum(axis=1).mean()
    return loss, tape


class QuantileCritic:
    """Implicit quantile model: (s, a, fraction u) -> quantile value."""

    def __init__(self, state_dim: int, action_dim: int, params: ParamSet, spec: MlpSpec):
        if spec.in_dim != state_dim + action_dim + 1 or spec.out_dim != 1:
            raise ConfigError("QuantileCritic spec must map (s, a, u) to a scalar")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.params = params
        self.spec = spec

    @classmethod
    def create(cls, state_dim: int, action_dim: int, rng: np.random.Generator,
               hidden: tuple[int, ...] = (64, 64), layer_norm: bool = True) -> "QuantileCritic":
        spec = MlpSpec(in_dim=state_dim + action_dim + 1, hidden=hidden, out_dim=1,
                       layer_norm=layer_norm)
        return cls(state_dim, action_dim, init_mlp(spec, rng), spec)

    def with_params(self, params: ParamSet) -> "QuantileCritic":
        return QuantileCritic(self.state_dim, self.action_dim, params, self.spec)

    def _inputs(self, s, a, u: np.ndarray) -> np.ndarray:
        """Rows = batch x fractions; u has shape (batch, k)."""
        s = np.atleast_2d(np.asarray(s, dtype=np.float64))
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        b, k = u.shape
        s_rep = np.repeat(s, k, axis=0)
        a_rep = np.repeat(a, k, axis=0)
        return np.concatenate([s_rep, a_rep, u.reshape(-1, 1)], axis=1)

    def quantiles(self, s, a, u: np.ndarray) -> np.ndarray:
        u = np.atleast_2d(np.asarray(u, dtype=np.float64))
        vals = mlp_value(self.params, self._inputs(s, a, u), self.spec)
        return vals.reshape(u.shape)

    def quantiles_tape(self, s, a, u: np.ndarray) -> MlpTape:
        return mlp_forward(self.params, self._inputs(s, a, u), self.spec)

    def q_values(self, s, a, n_fractions: int = 32) -> np.ndarray:
        s2 = np.atleast_2d(np.asarray(s, dtype=np.float64))
        u = np.broadcast_to((np.arange(n_fractions) + 0.5) / n_fractions,
                            (s2.shape[0], n_fractions))
        return self.quantiles(s2, a, u).mean(axis=1)


def quantile_huber_loss(online: QuantileCritic, target: QuantileCritic,
                        next_action_sampler, batch, rng: np.random.Generator,
                        gamma: float, kappa: float, n_quantiles: int = 32
                        ) -> tuple[Tensor, MlpTape]:
    """Asymmetric Huber quantile regression against TD target samples.

    Online quantiles at fresh uniform fractions regress pairwise onto target
    samples r + gamma * z', where z' are target-critic quantiles at independent
    fractions. The asymmetry weight |u - 1{delta < 0}| treats the sign of the
    TD residual as constant.
    """
    if kappa <= 0.0:
        raise ContractError(f"kappa must be positive, got {kappa}")
    n = len(batch)
    a_next = np.atleast_2d(np.asarray(next_action_sampler(batch.s_next, rng),
                                      dtype=np.float64))
    u_online = rng.random((n, n_quantiles))
    u_target = rng.random((n, n_quantiles))
    z_next = target.quantiles(batch.s_next, a_next, u_target)
    gamma_eff = gamma * (~batch.terminal)
    y = batch.r[:, None] + gamma_eff[:, None] * z_next  # (n, k) target samples

    tape = online.quantiles_tape(batch.s, batch.a, u_online)
    q = tape.output.reshape(n, n_quantiles, 1)
    delta = Tensor(y[:, None, :]) - q  # (n, k_online, k_target)
    weight = np.abs(u_online[:, :, None] - (delta.data < 0.0))
    loss = (delta.huber(kappa) * Tensor(weight)).mean()
    return loss, tape


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
    if n_samples < 1:
        raise ContractError("n_samples must be >= 1")
    s, a = _rows(s, 1, critic.state_dim), _rows(a, 1, critic.action_dim)
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
    u = np.sort((np.arange(n_samples) + 0.5) / n_samples)[None, :]
    samples = critic.quantiles(s, a, u)[0]
    hist, _ = histogram_from_samples(samples, edges)
    return hist
