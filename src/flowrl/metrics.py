"""Evaluation metrics: 1-Wasserstein distances, return histograms, rollouts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from flowrl.envs.base import ToyMdp, _episode_returns
from flowrl.errors import ContractError, check_edges, check_int


def wasserstein1_samples(x: np.ndarray, y: np.ndarray) -> float:
    """Exact W1 between equal-size empirical distributions.

    Mean absolute difference of order statistics; inputs need not be pre-sorted.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.size != y.size or x.size == 0:
        raise ContractError("wasserstein1_samples needs equal nonempty sample sets; "
                            "use the histogram variant for unequal sizes")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ContractError("wasserstein1_samples needs finite samples")
    return float(np.abs(np.sort(x) - np.sort(y)).mean())


def wasserstein1_discrete(values_p: np.ndarray, masses_p: np.ndarray,
                          values_q: np.ndarray, masses_q: np.ndarray) -> float:
    """Exact W1 between two finite discrete distributions (CDF integral).

    Samples are a special case (masses 1/n); atom sets from the enumeration
    oracle plug in directly. Each side is a 1-d array of finite values and one
    finite, nonnegative mass per value, summing to 1 within 1e-9.
    """
    vp, mp = _atoms(values_p, masses_p)
    vq, mq = _atoms(values_q, masses_q)
    op, oq = np.argsort(vp), np.argsort(vq)
    vp, mp = vp[op], np.cumsum(mp[op])
    vq, mq = vq[oq], np.cumsum(mq[oq])
    grid = np.sort(np.concatenate([vp, vq]))
    cdf_p = mp[np.clip(np.searchsorted(vp, grid, side="right") - 1, 0, vp.size - 1)]
    cdf_p[grid < vp[0]] = 0.0
    cdf_q = mq[np.clip(np.searchsorted(vq, grid, side="right") - 1, 0, vq.size - 1)]
    cdf_q[grid < vq[0]] = 0.0
    return float(np.sum(np.abs(cdf_p[:-1] - cdf_q[:-1]) * np.diff(grid)))


def _atoms(values, masses) -> tuple[np.ndarray, np.ndarray]:
    values = np.asarray(values, dtype=np.float64)
    masses = np.asarray(masses, dtype=np.float64)
    if values.ndim != 1 or values.size == 0 or masses.shape != values.shape:
        raise ContractError(f"a distribution needs one mass per value and at least one atom, "
                            f"got values {values.shape} and masses {masses.shape}")
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(masses))
            and np.all(masses >= 0.0) and abs(masses.sum() - 1.0) <= 1e-9):
        raise ContractError(f"atom values and masses must be finite, the masses nonnegative "
                            f"and summing to 1; got mass sum {masses.sum()}")
    return values, masses


@dataclass
class ReturnHistogram:
    """Binned return distribution: ``edges`` (n+1 ascending), ``masses`` (n)."""

    edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.edges = check_edges(self.edges)
        self.masses = np.asarray(self.masses, dtype=np.float64)
        if self.masses.shape != (self.edges.size - 1,):
            raise ContractError("masses length must be len(edges) - 1")
        if not (np.all(self.masses >= -1e-12) and abs(self.masses.sum() - 1.0) <= 1e-9):
            raise ContractError(f"masses must be finite, nonnegative and sum to 1, "
                                f"got sum {self.masses.sum()}")


def histogram_edges(support: tuple[float, float], n_bins: int) -> np.ndarray:
    """``n_bins + 1`` evenly spaced edges over ``support``, checked by ``check_edges``.

    ContractError unless ``support`` is two finite numbers ``lo < hi`` whose
    span ``hi - lo`` is finite too.
    """
    n_bins = check_int("n_bins", n_bins)
    try:
        lo, hi = np.asarray(support, dtype=np.float64).reshape(2).tolist()
    except (TypeError, ValueError):
        raise ContractError(f"histogram support must be two numbers, got {support!r}") from None
    if not (lo < hi and math.isfinite(hi - lo)):   # a NaN, an infinite end or span fails
        raise ContractError(f"histogram support must be finite with lo < hi, got {support!r}")
    return check_edges(np.linspace(lo, hi, n_bins + 1))


def histogram_from_samples(samples: np.ndarray, edges: np.ndarray) -> tuple[ReturnHistogram, int]:
    """Bin finite samples (clipped into the support); also returns the clip count."""
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    edges = check_edges(edges)
    if samples.size == 0 or not np.all(np.isfinite(samples)):
        raise ContractError(f"need at least one sample, all finite; got {samples.size} "
                            f"with {np.count_nonzero(~np.isfinite(samples))} non-finite")
    clipped = np.clip(samples, edges[0], edges[-1])
    n_clipped = int((samples < edges[0]).sum() + (samples > edges[-1]).sum())
    counts, _ = np.histogram(clipped, bins=edges)
    return ReturnHistogram(edges, counts / counts.sum()), n_clipped


def histogram_from_atoms(values: np.ndarray, masses: np.ndarray,
                         edges: np.ndarray) -> ReturnHistogram:
    """Bin an exact atom set (e.g. an enumeration oracle) of finite values onto a grid.

    The atoms are checked as ``wasserstein1_discrete`` checks them (ContractError
    unless the masses are finite, nonnegative and sum to 1 within 1e-9); the
    binned masses are renormalised to take out that rounding.
    """
    edges = check_edges(edges)
    values, masses = _atoms(values, masses)
    values = np.clip(values, edges[0], edges[-1])
    idx = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, edges.size - 2)
    out = np.zeros(edges.size - 1)
    np.add.at(out, idx, masses)
    return ReturnHistogram(edges, out / out.sum())


def wasserstein1_histograms(p: ReturnHistogram, q: ReturnHistogram) -> float:
    """W1 via the CDF-difference integral; requires identical bin edges."""
    if p.edges.shape != q.edges.shape or not np.array_equal(p.edges, q.edges):
        raise ContractError("histograms must share identical bin edges")
    widths = np.diff(p.edges)
    return float(np.sum(np.abs(np.cumsum(p.masses) - np.cumsum(q.masses)) * widths))


@dataclass
class PolicyEvalResult:
    env_id: str
    episodes: int
    mean_return: float
    std_return: float
    seed: int


def evaluate_policy(env: ToyMdp, action_selector, episodes: int, horizon: int,
                    seed: int) -> PolicyEvalResult:
    """Mean/std of discounted returns over seeded rollouts from ``initial_state``.

    The returns come from the rollout loops of :mod:`flowrl.envs.base`, which
    pick the path by the input alone, as ``generate_dataset`` and
    ``monte_carlo_returns`` do. When the env has action atoms and
    ``action_selector.support(s)`` puts all its mass on them
    (:func:`~flowrl.envs.base._atom_probs`), every episode runs
    in lockstep from one ``default_rng(seed)`` stream, drawing its actions
    from ``support``; the selector is never called. Any other selector (the
    bandit's, box policies, plain callables) is called as
    ``action_selector(state, rng) -> action`` and the env stepped one
    transition at a time, with one ``default_rng((seed, ep))`` stream per
    episode. Only on that per-step path is an episode's return independent
    of how many episodes run and in what order.
    """
    episodes, horizon = check_int("episodes", episodes), check_int("horizon", horizon)
    seed = check_int("seed", seed, least=0)
    returns = _episode_returns(env, action_selector, episodes, horizon, seed)
    return PolicyEvalResult(env.env_id, episodes, float(returns.mean()),
                            float(returns.std()), seed)
