"""Evaluation metrics: 1-Wasserstein distances, return histograms, rollouts."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flowrl.envs.base import ToyMdp, step
from flowrl.envs.oracle import lockstep_episode_returns
from flowrl.errors import ContractError, check_int


def wasserstein1_samples(x: np.ndarray, y: np.ndarray) -> float:
    """Exact W1 between equal-size empirical distributions.

    Mean absolute difference of order statistics; inputs need not be pre-sorted.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.size != y.size or x.size == 0:
        raise ContractError("wasserstein1_samples needs equal nonempty sample sets; "
                            "use the histogram variant for unequal sizes")
    return float(np.abs(np.sort(x) - np.sort(y)).mean())


def wasserstein1_discrete(values_p: np.ndarray, masses_p: np.ndarray,
                          values_q: np.ndarray, masses_q: np.ndarray) -> float:
    """Exact W1 between two finite discrete distributions (CDF integral).

    Samples are a special case (masses 1/n); atom sets from the enumeration
    oracle plug in directly.
    """
    vp, mp = np.asarray(values_p, dtype=np.float64), np.asarray(masses_p, dtype=np.float64)
    vq, mq = np.asarray(values_q, dtype=np.float64), np.asarray(masses_q, dtype=np.float64)
    if vp.size == 0 or vq.size == 0:
        raise ContractError("both distributions need at least one atom")
    op, oq = np.argsort(vp), np.argsort(vq)
    vp, mp = vp[op], np.cumsum(mp[op])
    vq, mq = vq[oq], np.cumsum(mq[oq])
    grid = np.sort(np.concatenate([vp, vq]))
    cdf_p = mp[np.clip(np.searchsorted(vp, grid, side="right") - 1, 0, vp.size - 1)]
    cdf_p[grid < vp[0]] = 0.0
    cdf_q = mq[np.clip(np.searchsorted(vq, grid, side="right") - 1, 0, vq.size - 1)]
    cdf_q[grid < vq[0]] = 0.0
    return float(np.sum(np.abs(cdf_p[:-1] - cdf_q[:-1]) * np.diff(grid)))


@dataclass
class ReturnHistogram:
    """Binned return distribution: ``edges`` (n+1 ascending), ``masses`` (n)."""

    edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.edges = _checked_edges(self.edges)
        self.masses = np.asarray(self.masses, dtype=np.float64)
        if self.masses.shape != (self.edges.size - 1,):
            raise ContractError("masses length must be len(edges) - 1")
        if not (np.all(self.masses >= -1e-12) and abs(self.masses.sum() - 1.0) <= 1e-9):
            raise ContractError(f"masses must be finite, nonnegative and sum to 1, "
                                f"got sum {self.masses.sum()}")

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def _checked_edges(edges) -> np.ndarray:
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or not np.all(np.isfinite(edges)) or np.any(np.diff(edges) <= 0):
        raise ContractError(f"histogram edges must be finite and strictly ascending: {edges}")
    return edges


def histogram_edges(support: tuple[float, float], n_bins: int) -> np.ndarray:
    lo, hi = support
    if n_bins < 1 or not lo < hi:
        raise ContractError(f"bad histogram support {support} / bins {n_bins}")
    return np.linspace(lo, hi, n_bins + 1)


def histogram_from_samples(samples: np.ndarray, edges: np.ndarray) -> tuple[ReturnHistogram, int]:
    """Bin finite samples (clipped into the support); also returns the clip count."""
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    edges = _checked_edges(edges)
    if samples.size == 0 or not np.all(np.isfinite(samples)):
        raise ContractError(f"need at least one sample, all finite; got {samples.size} "
                            f"with {np.count_nonzero(~np.isfinite(samples))} non-finite")
    clipped = np.clip(samples, edges[0], edges[-1])
    n_clipped = int((samples < edges[0]).sum() + (samples > edges[-1]).sum())
    counts, _ = np.histogram(clipped, bins=edges)
    return ReturnHistogram(edges, counts / counts.sum()), n_clipped


def histogram_from_atoms(values: np.ndarray, masses: np.ndarray,
                         edges: np.ndarray) -> ReturnHistogram:
    """Bin an exact atom set (e.g. an enumeration oracle) of finite values onto a grid."""
    values, edges = np.asarray(values, dtype=np.float64), _checked_edges(edges)
    if not np.all(np.isfinite(values)):
        raise ContractError("atom values must be finite")
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


def export_histogram(samples: np.ndarray, n_bins: int, support: tuple[float, float],
                     path: str | Path) -> tuple[ReturnHistogram, int]:
    """Write a ``bin_left,bin_right,mass`` CSV; returns (histogram, clip count)."""
    hist, n_clipped = histogram_from_samples(samples, histogram_edges(support, n_bins))
    lines = ["bin_left,bin_right,mass"]
    for left, right, mass in zip(hist.edges[:-1], hist.edges[1:], hist.masses):
        lines.append(f"{float(left)!r},{float(right)!r},{float(mass)!r}")
    Path(path).write_text("\n".join(lines) + "\n")
    return hist, n_clipped


def load_histogram_csv(path: str | Path) -> ReturnHistogram:
    lines = Path(path).read_text().strip().split("\n")
    if lines[0] != "bin_left,bin_right,mass":
        raise ContractError(f"unexpected histogram CSV header: {lines[0]!r}")
    if len(lines) < 2:
        raise ContractError("histogram CSV has no bins")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        try:
            row = [float(x) for x in line.split(",")]
        except ValueError:
            row = []
        if len(row) != 3 or not np.all(np.isfinite(row)):
            raise ContractError(f"malformed histogram CSV line {n}: {line!r}; "
                                f"expected three finite numbers")
        if rows and row[0] != rows[-1][1]:
            raise ContractError(f"histogram CSV line {n}: bin starts at {row[0]!r}, "
                                f"previous bin ends at {rows[-1][1]!r}")
        rows.append(row)
    edges = [r[0] for r in rows] + [rows[-1][1]]
    masses = [r[2] for r in rows]
    return ReturnHistogram(np.array(edges), np.array(masses))


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

    The path is chosen by the input alone, by the rule of
    ``monte_carlo_returns`` and ``generate_dataset``. When the env has action
    atoms and ``action_selector.support(s)`` puts all its mass on them
    (:meth:`~flowrl.envs.base.DenseBranches.action_cdf`), every episode runs
    in lockstep off the env's branch table from one ``default_rng(seed)``
    stream, drawing its actions from ``support``; the selector is never
    called. Any other selector (the bandit's, box policies, plain callables)
    is called as ``action_selector(state, rng) -> action`` and the env
    stepped one transition at a time, with one ``default_rng((seed, ep))``
    stream per episode. Only on that per-step path is an episode's return
    independent of how many episodes run and in what order.
    """
    episodes, horizon = check_int("episodes", episodes), check_int("horizon", horizon)
    seed = check_int("seed", seed, least=0)
    returns = lockstep_episode_returns(env, action_selector, episodes, horizon,
                                       np.random.default_rng(seed))
    if returns is None:
        returns = np.empty(episodes)
        for ep in range(episodes):
            rng = np.random.default_rng((seed, ep))
            s = env.initial_state(rng)
            ret, disc = 0.0, 1.0
            for _ in range(horizon):
                a = action_selector(s, rng)
                s_next, r, terminal = step(env, s, a, rng)
                ret += disc * r
                disc *= env.gamma
                if terminal:
                    break
                s = s_next
            returns[ep] = ret
    return PolicyEvalResult(env.env_id, episodes, float(returns.mean()),
                            float(returns.std()), seed)
