"""Shared test oracles: finite differences and straight-line re-implementations.

Everything here is deliberately independent of the package's layer walk and
loss heads: plain numpy forward passes and central differences, used to
cross-check the closed-form reverse pass and each head's hand-written
d(loss)/d(output) (``loss_grad_match`` runs a loss's own backward only to
compare it with them). ``FuncField`` turns plain callables into flow fields.
``q_estimate`` and ``critic_ensemble_q`` score one (s, a) pair at a time
through a field's ``velocity`` and referee the batched ensemble Q passes;
``reverse_action_grad`` referees the forward-mode dq/da in reverse mode.
The env oracles at the end read every branch from ``outcomes()`` directly,
never from an env's branch table, and referee the table-driven sampling,
enumeration and Bellman backup.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable

import numpy as np
from scipy.special import erf

from flowrl.diffcore import MlpSpec, ParamSet
from flowrl.envs import ReturnAtomSet, ToyMdp, reachable_state_actions, table_key
from flowrl.errors import ContractError


class FuncField:
    """Flow field from plain callables: ``fn(x, t)`` and, optionally, ``dfn(x, t)`` = dv/dx."""

    def __init__(self, fn: Callable[[np.ndarray, np.ndarray | float], np.ndarray],
                 dfn: Callable[[np.ndarray, np.ndarray | float], np.ndarray] | None = None):
        self._fn = fn
        self._dfn = dfn

    def velocity(self, x, t):
        return np.asarray(self._fn(x, t), dtype=np.float64)

    def velocity_and_derivative(self, x, t):
        if self._dfn is None:
            raise ContractError("FuncField built without a derivative rule")
        return self.velocity(x, t), np.asarray(self._dfn(x, t), dtype=np.float64)


def ref_gelu(x: np.ndarray) -> np.ndarray:
    """The package's GELU, the tanh form (arXiv 1606.08415), written straight from its formula."""
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def exact_gelu(x: np.ndarray) -> np.ndarray:
    """The erf-form GELU x Phi(x) that the tanh form approximates."""
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def exact_gelu_slope(x: np.ndarray) -> np.ndarray:
    """Phi(x) + x phi(x), the slope of ``exact_gelu``."""
    return (0.5 * (1.0 + erf(x / math.sqrt(2.0)))
            + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))


def ref_layer_norm(x: np.ndarray, scale: np.ndarray, offset: np.ndarray,
                   eps: float = 1e-6) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    c = x - mu
    var = (c * c).mean(axis=1, keepdims=True)
    return c / np.sqrt(var + eps) * scale + offset


def ref_mlp(params: ParamSet, x: np.ndarray, spec: MlpSpec) -> np.ndarray:
    """Straight-line numpy re-implementation of the MLP forward pass."""
    h = np.asarray(x, dtype=np.float64)
    last = len(spec.layer_dims) - 1
    for i in range(len(spec.layer_dims)):
        h = h @ params[f"w{i}"] + params[f"b{i}"]
        if i < last:
            h = ref_gelu(ref_layer_norm(h, params[f"ln{i}_scale"], params[f"ln{i}_offset"]))
    return h


def _centred(w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = np.full(w.shape[1], 1.0 / w.shape[1])
    return w - w.dot(m)[:, None], b - b.dot(m)


def _row_mean_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)[:, None] / a.shape[1]


def fresh_walk(params: ParamSet, x: np.ndarray, spec: MlpSpec, tangent=None, keep=False):
    """The layer walk with a fresh array for every temporary: (output, JVP, cache).

    A hidden layer multiplies by centred weights and RMS-normalizes
    (``ref_mlp`` is the plain LayerNorm), and its GELU takes its factor 1/2
    in the activation. ``flowrl.diffcore.nn._walk`` works in place and
    carries that 1/2 on the next layer's weights instead, so its cache
    differs from this one by exact factors of two; its outputs and JVPs, and
    the gradients of ``_vjp`` over its cache, must equal these and those of
    ``fresh_vjp`` bit for bit.
    """
    h = np.asarray(x, dtype=np.float64)
    dh = None if tangent is None else np.asarray(tangent, dtype=np.float64)
    cache = [] if keep else None
    last = len(spec.layer_dims) - 1
    for i in range(last + 1):
        w, b = params[f"w{i}"], params[f"b{i}"]
        layer_in = h
        if i < last:
            w, b = _centred(w, b)
        h = h @ w
        h += b
        if dh is not None:
            dh = dh @ w
        xhat = inv_std = slope = None
        if i < last:
            inv_std = 1.0 / np.sqrt(_row_mean_dot(h, h) + 1e-6)
            h = h * inv_std
            scale = params[f"ln{i}_scale"]
            if dh is not None:
                dh = dh - h * _row_mean_dot(h, dh)
                dh = dh * inv_std
                dh = dh * scale
            xhat = h
            h = h * scale
            h = h + params[f"ln{i}_offset"]
            k = math.sqrt(2.0 / math.pi)
            h2 = h * h
            q = h2 * (1.5 * 0.044715 * k)
            q = q + 0.5 * k
            q = q * h
            y = h2 * (0.044715 * k)
            y = y + k
            y = y * h
            tanh = np.tanh(y)
            slope = tanh * tanh
            slope = 1.0 - slope
            slope = slope * q
            cdf = tanh + 1.0
            cdf = cdf * 0.5
            slope = slope + cdf
            if dh is not None:
                dh = dh * slope
            h = h * cdf
        if keep:
            cache.append((layer_in, xhat, inv_std, slope, w))
    return h, dh, cache


def fresh_vjp(params: ParamSet, cache: list, out_grad: np.ndarray) -> tuple[dict, np.ndarray]:
    """Reverse pass over a ``fresh_walk`` cache: (parameter grads, input grad)."""
    grads = {}
    g = out_grad
    for i in range(len(cache) - 1, -1, -1):
        layer_in, xhat, inv_std, slope, w = cache[i]
        if slope is not None:
            g = g * slope
            grads[f"ln{i}_scale"] = (g * xhat).sum(axis=0)
            grads[f"ln{i}_offset"] = g.sum(axis=0)
            g = g * params[f"ln{i}_scale"]
            g = g - xhat * _row_mean_dot(g, xhat)
            g = g * inv_std
        gw, gb = layer_in.T @ g, g.sum(axis=0)
        if slope is not None:
            gw, gb = _centred(gw, gb)
        grads[f"w{i}"], grads[f"b{i}"] = gw, gb
        g = g @ w.T
    return grads, g


def reverse_action_grad(fields: list, s: np.ndarray, a: np.ndarray,
                        noises: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble-min Q and dq/da in reverse mode: (q as (n, 1), dq/da as (n, action_dim)).

    The rows are laid out noise-major with ``np.repeat``/``np.tile``. Each
    field keeps a ``fresh_walk`` tape over all of them, and ``fresh_vjp``
    seeds it 1/m on the rows where that field holds the minimum (the first
    field on ties) and 0 elsewhere; the input gradients' action columns,
    summed over the m noises, are dq/da. Referee of the forward-mode
    ``flowrl.critic.ensemble_q_and_action_grad``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    n, m = a.shape[0], noises.size
    s = np.broadcast_to(np.atleast_2d(np.asarray(s, dtype=np.float64)), (n, np.shape(s)[-1]))
    x = np.concatenate([np.repeat(noises, n)[:, None], np.zeros((m * n, 1)), np.tile(s, (m, 1)),
                        np.tile(a, (m, 1))], axis=1)
    walks = [fresh_walk(f.params, x, f.spec, keep=True) for f in fields]
    per_field = np.stack([out[:, 0].reshape(m, n).mean(axis=0) for out, _, _ in walks])
    owner = np.argmin(per_field, axis=0)
    dq_da = np.zeros_like(a)
    for j, (field, (_, _, cache)) in enumerate(zip(fields, walks)):
        seed = np.tile(np.where(owner == j, 1.0 / m, 0.0), m)[:, None]
        gx = fresh_vjp(field.params, cache, seed)[1]
        dq_da += gx[:, -a.shape[1]:].reshape(m, n, -1).sum(axis=0)
    return per_field.min(axis=0)[:, None], dq_da


def c51_scatter(values: np.ndarray, masses: np.ndarray, support: np.ndarray) -> np.ndarray:
    """The C51 projection scattered by two ``np.add.at`` calls, lower shares then upper.

    Referee of ``flowrl.baselines.c51_project``'s single ``np.bincount``, which
    must add each atom's shares in this order and so equal it bit for bit.
    """
    support = np.asarray(support, dtype=np.float64)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    masses = np.atleast_2d(np.asarray(masses, dtype=np.float64))
    n = support.size
    b = (np.clip(values, support[0], support[-1]) - support[0]) / ((support[-1] - support[0])
                                                                    / (n - 1))
    lower = np.floor(b).astype(int)
    upper = np.minimum(lower + 1, n - 1)
    frac = b - lower
    out = np.zeros((values.shape[0], n))
    rows = np.broadcast_to(np.arange(values.shape[0])[:, None], lower.shape)
    np.add.at(out, (rows, lower), masses * (1.0 - frac))
    np.add.at(out, (rows, upper), masses * frac)
    return out


def finite_diff_param_grads(loss_fn, params, step: float = 1e-4) -> ParamSet:
    """Central-difference gradient of ``loss_fn(params)`` w.r.t. every entry.

    A set is never written, so each +/- probe is a new set with one entry moved.
    """
    params = ParamSet.of(params)
    base = params.flat
    grad = np.zeros_like(base)
    for j in range(base.size):
        probe = base.copy()
        probe[j] = base[j] + step
        hi = loss_fn(params.with_flat(probe))
        probe[j] = base[j] - step
        lo = loss_fn(params.with_flat(probe))
        grad[j] = (hi - lo) / (2.0 * step)
    return params.with_flat(grad)


def grad_match_fraction(analytic: ParamSet, numeric: ParamSet,
                        rel_tol: float = 1e-3, abs_tol: float = 1e-6) -> float:
    """Fraction of components where analytic and numeric gradients agree."""
    ok = 0
    total = 0
    for name in numeric:
        a = analytic[name].reshape(-1)
        n = numeric[name].reshape(-1)
        denom = np.maximum(np.abs(a), np.abs(n))
        close = (np.abs(a - n) <= rel_tol * denom) | (np.abs(a - n) <= abs_tol)
        ok += int(close.sum())
        total += a.size
    return ok / total


def loss_grad_match(net, loss_of) -> float:
    """``grad_match_fraction`` of a loss's tape gradients against central differences.

    ``loss_of(params)`` returns ``(loss, tape, ...)`` for ``net`` with ``params``
    and must replay the same randomness on every call.
    """
    loss, tape = loss_of(net.params)[:2]
    loss.backward()
    analytic = {name: leaf.grad for name, leaf in tape.params.items()}
    numeric = finite_diff_param_grads(lambda ps: float(loss_of(ps)[0].data), net.params)
    return grad_match_fraction(analytic, numeric)


def random_params_like(params: ParamSet, rng: np.random.Generator,
                       scale: float = 0.4) -> ParamSet:
    """Re-randomize every parameter (including norms/biases) for gradient checks."""
    return ParamSet({k: rng.normal(0.0, scale, size=v.shape) for k, v in params.items()})


def q_estimate(field, s, a, noises: np.ndarray) -> float:
    """One field's Q at one (s, a): the mean of v(eps | 0, s, a) over the noises."""
    return float(field.velocity(np.asarray(noises, dtype=np.float64), 0.0, s, a).mean())


def critic_ensemble_q(fields: list, s, a, noises: np.ndarray) -> float:
    """The ensemble-min Q at one (s, a), one ``q_estimate`` per field."""
    return min(q_estimate(f, s, a, noises) for f in fields)


def digest(*arrays) -> str:
    """Digest of arrays' shapes and values, for pinning seeded results.

    Reals are rounded to 10 decimals: a last-bit difference in libm between
    machines leaves the digest alone, while a change of random stream does not.
    """
    h = hashlib.sha256()
    for x in arrays:
        x = np.asarray(x)
        h.update(str(x.shape).encode())
        h.update((np.round(x, 10) + 0.0 if x.dtype.kind == "f" else x).tobytes())
    return h.hexdigest()[:16]


def ref_edges_ok(edges, least: int = 1) -> bool:
    """Whether ``check_edges`` should accept ``edges``: the whole-array finiteness and
    ``diff`` test it replaced (a ``diff`` that overflows to inf counts as rising)."""
    edges = np.asarray(edges, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(edges.ndim == 1 and edges.size > least and np.all(np.isfinite(edges))
                    and not np.any(np.diff(edges) <= 0))


# -- env oracles that bypass the branch table ------------------------------------------

def sample_from_outcomes(mdp: ToyMdp, s: np.ndarray, a: np.ndarray,
                         rng: np.random.Generator) -> tuple[np.ndarray, float, bool]:
    """Draw one branch of ``outcomes`` by inverse CDF, one uniform draw per call."""
    u = rng.random()
    acc = 0.0
    branches = mdp.outcomes(s, a)
    for prob, s_next, r, terminal in branches:
        acc += prob
        if u < acc:
            return s_next, r, terminal
    _, s_next, r, terminal = branches[-1]
    return s_next, r, terminal


def enumerate_by_paths(mdp: ToyMdp, policy, s: np.ndarray, a: np.ndarray,
                       horizon: int) -> ReturnAtomSet:
    """Walk every (branch x policy action) path to ``horizon``; no merging.

    Atoms are keyed like the package's enumeration (partial return rounded to
    10 decimals); the mass and truncation checks are left to the caller.
    """
    gamma = mdp.gamma
    atoms: dict[float, float] = {}
    truncated_mass = 0.0
    # stack entries: (state, action, probability, partial return, depth)
    stack = [(np.asarray(s, dtype=np.float64), np.asarray(a, dtype=np.float64), 1.0, 0.0, 0)]
    while stack:
        cur_s, cur_a, prob, ret, depth = stack.pop()
        for p_out, s_next, r, terminal in mdp.outcomes(cur_s, cur_a):
            new_ret = ret + gamma**depth * r
            new_prob = prob * p_out
            if terminal:
                key = round(new_ret, 10)
                atoms[key] = atoms.get(key, 0.0) + new_prob
            elif depth + 1 >= horizon:
                key = round(new_ret, 10)
                atoms[key] = atoms.get(key, 0.0) + new_prob
                truncated_mass += new_prob
            else:
                for p_a, a_next in policy.support(s_next):
                    if p_a > 0.0:
                        stack.append((s_next, a_next, new_prob * p_a, new_ret, depth + 1))
    values = np.array(sorted(atoms))
    masses = np.array([atoms[v] for v in values])
    value_tol = gamma**horizon * max(abs(mdp.r_min), abs(mdp.r_max)) / (1.0 - gamma)
    return ReturnAtomSet(values, masses, horizon, truncated_mass, value_tol)


def project_masses(values: np.ndarray, masses: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Spread mass at arbitrary values onto fixed bin centers (linear split)."""
    v = np.clip(values, centers[0], centers[-1])
    idx = np.clip(np.searchsorted(centers, v, side="right") - 1, 0, len(centers) - 2)
    frac = np.clip((v - centers[idx]) / (centers[idx + 1] - centers[idx]), 0.0, 1.0)
    out = np.zeros(len(centers))
    np.add.at(out, idx, masses * (1.0 - frac))
    np.add.at(out, idx + 1, masses * frac)
    return out


def bellman_by_pairs(mdp: ToyMdp, policy, table: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The histogram Bellman backup, one ``project_masses`` call per branch and action.

    Row i of ``table`` and of the result is the i-th pair of ``reachable_state_actions``.
    """
    centers = 0.5 * (edges[:-1] + edges[1:])
    new_table = []
    for s, a in reachable_state_actions(mdp):
        masses = np.zeros(len(centers))
        for p_out, s_next, r, terminal in mdp.outcomes(s, a):
            if terminal:
                masses += p_out * project_masses(np.array([r]), np.array([1.0]), centers)
                continue
            for p_a, a_next in policy.support(s_next):
                src = table[table_key(mdp, s_next, a_next)]
                shifted = r + mdp.gamma * centers
                masses += p_out * p_a * project_masses(shifted, src, centers)
        new_table.append(masses)
    return np.array(new_table)
