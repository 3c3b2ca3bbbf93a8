"""Shared test oracles: finite differences and straight-line re-implementations.

Everything here is deliberately independent of the package's tensor engine:
plain numpy forward passes and central differences, used to cross-check the
analytic gradients and derivatives (``loss_grad_match`` runs a loss's own
backward only to compare it with them). The env oracles at the end read every
branch from ``outcomes()`` directly, never from an env's branch table, and
referee the table-driven sampling, enumeration and Bellman backup.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from flowrl.diffcore import MlpSpec, ParamSet
from flowrl.envs import ReturnAtomSet, ToyMdp, project_masses, reachable_state_actions, table_key


def ref_gelu(x: np.ndarray) -> np.ndarray:
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


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
            if spec.layer_norm:
                h = ref_layer_norm(h, params[f"ln{i}_scale"], params[f"ln{i}_offset"])
            h = ref_gelu(h)
    return h


def fresh_walk(params: ParamSet, x: np.ndarray, spec: MlpSpec, tangent=None, keep=False):
    """The layer walk with a fresh array for every temporary: (output, JVP, cache).

    The same operations in the same order as ``flowrl.diffcore.nn._walk``,
    whose outputs, JVPs and cache must equal these bit for bit; only where
    each intermediate is stored differs.
    """
    h = np.asarray(x, dtype=np.float64)
    dh = None if tangent is None else np.asarray(tangent, dtype=np.float64)
    cache = [] if keep else None
    last = len(spec.layer_dims) - 1
    for i in range(last + 1):
        w = params[f"w{i}"]
        layer_in = h
        h = h @ w
        h += params[f"b{i}"]
        if dh is not None:
            dh = dh @ w
        xhat = inv_std = slope = None
        if i < last:
            if spec.layer_norm:
                h = h - h.mean(axis=1, keepdims=True)
                inv_std = 1.0 / np.sqrt((h * h).mean(axis=1, keepdims=True) + 1e-6)
                h = h * inv_std
                scale = params[f"ln{i}_scale"]
                if dh is not None:
                    dh = dh - dh.mean(axis=1, keepdims=True)
                    dh = dh - h * (h * dh).mean(axis=1, keepdims=True)
                    dh = dh * inv_std
                    dh = dh * scale
                xhat = h
                h = h * scale
                h = h + params[f"ln{i}_offset"]
            cdf = (erf(h / math.sqrt(2.0)) + 1.0) * 0.5
            slope = np.exp((h * h) * -0.5) * (1.0 / math.sqrt(2.0 * math.pi)) * h + cdf
            if dh is not None:
                dh = dh * slope
            h = h * cdf
        if keep:
            cache.append((layer_in, xhat, inv_std, slope))
    return h, dh, cache


def fresh_vjp(params: ParamSet, cache: list, out_grad: np.ndarray) -> tuple[ParamSet, np.ndarray]:
    """Reverse pass over a ``fresh_walk`` cache: (parameter grads, input grad)."""
    grads: ParamSet = {}
    g = out_grad
    for i in range(len(cache) - 1, -1, -1):
        layer_in, xhat, inv_std, slope = cache[i]
        if slope is not None:
            g = g * slope
            if xhat is not None:
                grads[f"ln{i}_scale"] = (g * xhat).sum(axis=0)
                grads[f"ln{i}_offset"] = g.sum(axis=0)
                g = g * params[f"ln{i}_scale"]
                g = g - (g.mean(axis=1, keepdims=True) + xhat * (g * xhat).mean(axis=1, keepdims=True))
                g = g * inv_std
        grads[f"w{i}"] = layer_in.T @ g
        grads[f"b{i}"] = g.sum(axis=0)
        g = g @ params[f"w{i}"].T
    return grads, g


def finite_diff_param_grads(loss_fn, params: ParamSet, step: float = 1e-4) -> ParamSet:
    """Central-difference gradient of ``loss_fn(params)`` w.r.t. every entry."""
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = loss_fn(params)
            flat[j] = orig - step
            lo = loss_fn(params)
            flat[j] = orig
            gflat[j] = (hi - lo) / (2.0 * step)
        grads[name] = g
    return grads


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
    numeric = finite_diff_param_grads(lambda ps: float(loss_of(ps)[0].data),
                                      {k: v.copy() for k, v in net.params.items()})
    return grad_match_fraction(analytic, numeric)


def random_params_like(params: ParamSet, rng: np.random.Generator,
                       scale: float = 0.4) -> ParamSet:
    """Re-randomize every parameter (including norms/biases) for gradient checks."""
    return {k: rng.normal(0.0, scale, size=v.shape) for k, v in params.items()}


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


def bellman_by_pairs(mdp: ToyMdp, policy, table: dict, edges: np.ndarray) -> dict:
    """The histogram Bellman backup, one ``project_masses`` call per branch and action."""
    centers = 0.5 * (edges[:-1] + edges[1:])
    new_table = {}
    for s, a in reachable_state_actions(mdp, policy):
        masses = np.zeros(len(centers))
        for p_out, s_next, r, terminal in mdp.outcomes(s, a):
            if terminal:
                masses += p_out * project_masses(np.array([r]), np.array([1.0]), centers)
                continue
            for p_a, a_next in policy.support(s_next):
                src = table[table_key(mdp, s_next, a_next)]
                shifted = r + mdp.gamma * centers
                masses += p_out * p_a * project_masses(shifted, src, centers)
        new_table[table_key(mdp, s, a)] = masses
    return new_table
