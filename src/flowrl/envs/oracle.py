"""Exact return-distribution oracles for finite toy MDPs.

The oracles below read an env's branches through its
:class:`~flowrl.envs.base.BranchTable`, which calls ``outcomes`` once per
(state, action atom) pair.

``enumerate_return_distribution`` returns the exact atoms of the discounted
return truncated at a horizon. It is a dynamic program over depth: the
frontier maps (state, action, exact partial return) to its probability, so
paths that meet again are expanded once, and ``PATH_GUARD`` bounds the
frontier size. ``monte_carlo_returns`` is the sampling cross-check, a path
apart from the enumeration: it draws episodes branch by branch. When the env
has action atoms and the policy's ``support`` lies on them, all episodes
advance together, one numpy step per time step, off the table's dense arrays
(:meth:`~flowrl.envs.base.BranchTable.dense`); any other policy is called
and the env stepped with ``step`` one transition at a time. That per-step
loop is the referee of the lockstep path in the tests. The two paths draw
different random streams, so a seed gives different samples on each.
``lockstep_episode_returns`` runs the same lockstep loop from the initial
state; it is how ``flowrl.metrics.evaluate_policy`` rolls out such a policy.

The histogram-level Bellman operator discretizes the density backup for
contraction and fixed-point harnesses, as one matrix step over all reachable
pairs. Its policy-free part (the reachable pairs and their keys, the
next-state index, the per-reward branch matrices and the terminal branches)
is built once and kept on the env's branch table, because reachability from
the start state depends only on the dynamics; each application builds only
the policy mix and the products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flowrl.envs.base import DenseBranches, ToyMdp, UniformDiscretePolicy, _Lockstep, \
    branch_table, check_reward, step
from flowrl.errors import ContractError, OracleError, check_int

PATH_GUARD = 1_000_000    # frontier entries per depth of the enumeration DP


@dataclass
class ReturnAtomSet:
    """Atoms of a truncated return distribution plus truncation accounting."""

    values: np.ndarray
    masses: np.ndarray
    horizon: int
    truncated_mass: float
    value_tol: float

    def mean(self) -> float:
        return float(np.dot(self.values, self.masses))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot((self.values - mu) ** 2, self.masses))

    def sorted(self) -> "ReturnAtomSet":
        order = np.argsort(self.values)
        return ReturnAtomSet(self.values[order], self.masses[order], self.horizon,
                             self.truncated_mass, self.value_tol)


def _policy_support(policy, s):
    support = getattr(policy, "support", None)
    if support is None:
        raise ContractError("enumeration needs a policy with finite support(s)")
    return support(s)


def enumerate_return_distribution(mdp: ToyMdp, policy, s: np.ndarray, a: np.ndarray,
                                  horizon: int, mass_tol: float = 1e-6) -> ReturnAtomSet:
    """Exact atoms of the discounted return from (s, a), truncated at ``horizon``.

    Works depth by depth: the frontier maps (state, action, partial return)
    to the probability of reaching it, so paths that meet again with the same
    partial return are expanded once. Every path still does the same float
    operations as a path-by-path walk (``ret + gamma**depth * r``), so atom
    values are exact; masses differ from such a walk only in summation order.
    Branches come from the env's branch table.

    Paths still alive at the horizon contribute atoms at their partial return;
    their total probability is reported as ``truncated_mass`` and the value
    truncation bound as ``value_tol``. Raises :class:`OracleError` when a
    frontier would hold more than ``PATH_GUARD`` entries.
    """
    if horizon < 1:
        raise ContractError("horizon must be >= 1")
    gamma = mdp.gamma
    table = branch_table(mdp)
    a = np.asarray(a, dtype=np.float64)
    actions = {a.tobytes(): a}
    supports: dict[int, list] = {}

    def support(sid):
        # policy support of a state, with each action's frontier key
        out = supports.get(sid)
        if out is None:
            out = supports[sid] = []
            for p_a, a_next in _policy_support(policy, table.states[sid]):
                if p_a > 0.0:
                    a_next = np.asarray(a_next, dtype=np.float64)
                    key = a_next.tobytes()
                    actions.setdefault(key, a_next)
                    out.append((p_a, key))
        return out

    atoms: dict[float, float] = {}
    truncated_mass = 0.0
    frontier = {(table.state_id(s), a.tobytes(), 0.0): 1.0}
    for depth in range(horizon):
        last = depth + 1 >= horizon
        nxt: dict[tuple, float] = {}
        for (sid, akey, ret), prob in frontier.items():
            for p_out, _, r, terminal, nid in table.branches(sid, actions[akey]):
                new_ret = ret + gamma**depth * r
                new_prob = prob * p_out
                if terminal or last:
                    key = round(new_ret, 10)
                    atoms[key] = atoms.get(key, 0.0) + new_prob
                    if not terminal:
                        truncated_mass += new_prob
                    continue
                for p_a, a_key in support(nid):
                    node = (nid, a_key, new_ret)
                    nxt[node] = nxt.get(node, 0.0) + new_prob * p_a
            if len(nxt) > PATH_GUARD:
                raise OracleError(f"more than {PATH_GUARD} frontier entries at depth "
                                  f"{depth + 1}; lower the horizon")
        frontier = nxt
    values = np.array(sorted(atoms))
    masses = np.array([atoms[v] for v in values])
    value_tol = gamma**horizon * max(abs(mdp.r_min), abs(mdp.r_max)) / (1.0 - gamma)
    if not np.isclose(masses.sum(), 1.0, atol=1e-9):
        raise OracleError(f"atom masses sum to {masses.sum()}, expected 1")
    if truncated_mass > mass_tol + 1e-12:
        raise OracleError(f"truncated mass {truncated_mass:.3g} exceeds mass_tol "
                          f"{mass_tol:.3g}; raise the horizon")
    return ReturnAtomSet(values, masses, horizon, truncated_mass, value_tol)


def monte_carlo_returns(mdp: ToyMdp, policy, s: np.ndarray, a: np.ndarray,
                        n: int, horizon: int, seed: int = 0) -> np.ndarray:
    """n independent truncated discounted-return samples from (s, a).

    When the env has action atoms and ``policy.support(s)`` puts all its mass
    on them, the n episodes run in lockstep off the env's branch table (see
    :func:`_lockstep_returns`); any other policy is called as
    ``policy(s, rng)`` and the env stepped one transition at a time. The two
    paths draw different random streams from one seed.
    """
    n, horizon = check_int("n", n), check_int("horizon", horizon)
    rng = np.random.default_rng(check_int("seed", seed, least=0))
    out = _lockstep_returns(mdp, policy, s, a, n, horizon, rng)
    if out is not None:
        return out
    out = np.empty(n)
    for i in range(n):
        cur_s, cur_a = s, a
        ret, disc = 0.0, 1.0
        for _ in range(horizon):
            s_next, r, terminal = step(mdp, cur_s, cur_a, rng)
            ret += disc * r
            disc *= mdp.gamma
            if terminal:
                break
            cur_s, cur_a = s_next, policy(s_next, rng)
        out[i] = ret
    return out


def _lockstep_returns(mdp: ToyMdp, policy, s: np.ndarray, a: np.ndarray, n: int,
                      horizon: int, rng: np.random.Generator) -> np.ndarray | None:
    """``monte_carlo_returns`` with every live episode stepped at once, or None.

    Returns None, having drawn nothing from ``rng``, unless the env has
    action atoms and the policy's support lies on them. The first step draws
    one uniform per episode for its branch from (s, a); the start action may
    be any action in the box, and its branches are read once, from the table
    or from ``outcomes``. :meth:`_Lockstep.returns` runs the remaining
    ``horizon - 1`` steps.
    """
    lock = _Lockstep.of(mdp, policy, s)
    if lock is None:
        return None
    a = mdp.validate_action(a)
    table = lock.table
    sid = table.state_id(s)
    if mdp.is_terminal(table.states[sid]):   # ``step`` returns reward 0 and ends the episode
        return np.zeros(n)
    aid = table.atom_id(a)
    first = None if aid is not None else table.branches(sid, a)
    if not lock.refresh():   # the start action's branches reached new states
        return None
    view = lock.view
    u = rng.random(n)
    if first is None:
        nid, r, terminal = view.sample(np.full(n, sid * len(view.atoms) + aid), u)
    else:
        for branch in first:
            check_reward(mdp, branch[2])
        start = DenseBranches.from_rows(view.states, view.atoms, [first])
        nid, r, terminal = start.sample(np.zeros(n, dtype=np.intp), u)
    ret = np.zeros(n)
    ret += r
    return lock.returns(nid, terminal, ret, mdp.gamma, horizon - 1, rng)


def lockstep_episode_returns(mdp: ToyMdp, policy, episodes: int, horizon: int,
                             rng: np.random.Generator) -> np.ndarray | None:
    """Returns of ``episodes`` rollouts from the initial state, all stepped at once, or None.

    Returns None, having drawn nothing from ``rng``, unless the env has
    action atoms and the policy's support lies on them. Each episode starts
    at ``initial_state(rng)`` and draws every action, the first included,
    from ``policy.support``; :meth:`_Lockstep.returns` runs up to
    ``horizon`` steps.
    """
    lock = _Lockstep.of(mdp, policy)
    if lock is None:
        return None
    cur = lock.starts(episodes, rng)
    return lock.returns(cur, np.zeros(episodes, dtype=bool), np.zeros(episodes), 1.0,
                        horizon, rng)


# -- discretized density-level Bellman operator --------------------------------

HistTable = dict[tuple, np.ndarray]


def _reachable_states(mdp: ToyMdp) -> list[int]:
    """Branch-table ids of the nonterminal states reachable from the start."""
    table = branch_table(mdp)
    if not table.atoms:
        raise ContractError("reachability scan needs a finite action set")
    start = table.state_id(mdp.initial_state(np.random.default_rng(0)))
    seen = {start: None}
    frontier = [start]
    while frontier:
        sid = frontier.pop()
        for aid in range(len(table.atoms)):
            for _, _, _, terminal, nid in table.row(sid, aid):
                if not terminal and nid not in seen:
                    seen[nid] = None
                    frontier.append(nid)
    return list(seen)


@dataclass(frozen=True, eq=False)
class _Backup:
    """The policy-free part of the histogram Bellman backup of a finite env.

    Pairs are the reachable nonterminal states (``sids``, in reachability
    scan order) times the action atoms, state-major. Column k of every
    ``B_r`` is the nonterminal successor state ``next_ids[k]``, numbered in
    the order the pairs' branches first reach it. Reachability from the
    start state depends only on the dynamics, so :func:`_backup` builds this
    once per branch table.
    """

    sids: list[int]
    keys: list[tuple]              # table_key of each pair
    atom_keys: list[tuple]         # _action_key of each atom
    next_ids: list[int]
    next_keys: list[tuple]         # state_key of each next state
    b_r: list[tuple[float, np.ndarray]]   # (r, B_r): (pairs, next states) branch probabilities
    term_rows: np.ndarray          # pair, reward and probability of each terminal branch
    term_r: np.ndarray
    term_p: np.ndarray

    @classmethod
    def build(cls, mdp: ToyMdp) -> "_Backup":
        branches = branch_table(mdp)
        sids = _reachable_states(mdp)
        n_atoms = len(branches.atoms)
        state_keys = {sid: mdp.state_key(branches.states[sid]) for sid in sids}
        atom_keys = [_action_key(a) for a in branches.atoms]
        next_states: dict[int, int] = {}
        by_reward: dict[float, list] = {}
        term_rows, term_r, term_p = [], [], []
        for i, (sid, aid) in enumerate((sid, aid) for sid in sids for aid in range(n_atoms)):
            for p_out, _, r, terminal, nid in branches.row(sid, aid):
                if terminal:
                    term_rows.append(i)
                    term_r.append(r)
                    term_p.append(p_out)
                else:
                    k = next_states.setdefault(nid, len(next_states))
                    by_reward.setdefault(r, []).append((i, k, p_out))
        n_pairs = len(sids) * n_atoms
        b_r = []
        for r, entries in by_reward.items():
            rows, cols, vals = zip(*entries)
            b = np.zeros((n_pairs, len(next_states)))
            np.add.at(b, (rows, cols), vals)
            b_r.append((r, b))
        return cls(sids, [(state_keys[sid], key) for sid in sids for key in atom_keys],
                   atom_keys, list(next_states), [state_keys[nid] for nid in next_states], b_r,
                   np.array(term_rows, dtype=np.intp), np.array(term_r), np.array(term_p))


def _backup(mdp: ToyMdp) -> _Backup:
    """The env's :class:`_Backup`, built on first use and kept on its branch table."""
    branches = branch_table(mdp)
    backup = branches.__dict__.get("_backup")
    if backup is None:
        backup = branches.__dict__["_backup"] = _Backup.build(mdp)
    return backup


def reachable_state_actions(mdp: ToyMdp, policy) -> list[tuple[np.ndarray, np.ndarray]]:
    """All nonterminal (s, a) pairs reachable from the initial state.

    The arrays are the env's branch-table entries and are read-only.
    """
    table = branch_table(mdp)
    return [(table.states[sid], a) for sid in _backup(mdp).sids for a in table.atoms]


def _action_key(a: np.ndarray) -> tuple:
    return tuple(np.round(np.asarray(a, dtype=np.float64), 12))


def table_key(mdp: ToyMdp, s: np.ndarray, a: np.ndarray) -> tuple:
    return (mdp.state_key(s), _action_key(a))


def _linear_split(values: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left bin index and the fraction of mass that goes to the bin right of it."""
    v = np.clip(values, centers[0], centers[-1])
    idx = np.clip(np.searchsorted(centers, v, side="right") - 1, 0, len(centers) - 2)
    left = centers[idx]
    width = centers[idx + 1] - left
    return idx, np.clip((v - left) / width, 0.0, 1.0)


def project_masses(values: np.ndarray, masses: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Spread mass at arbitrary values onto fixed bin centers (linear split)."""
    out = np.zeros(len(centers))
    idx, frac = _linear_split(values, centers)
    np.add.at(out, idx, masses * (1.0 - frac))
    np.add.at(out, idx + 1, masses * frac)
    return out


def _projection_matrix(r: float, gamma: float, centers: np.ndarray) -> np.ndarray:
    """Row k is ``project_masses`` of a unit mass at ``r + gamma * centers[k]``."""
    n = len(centers)
    idx, frac = _linear_split(r + gamma * centers, centers)
    m = np.zeros((n, n))
    rows = np.arange(n)
    m[rows, idx] = 1.0 - frac
    m[rows, idx + 1] = frac
    return m


def bellman_histogram_operator(mdp: ToyMdp, policy, table: HistTable,
                               edges: np.ndarray) -> HistTable:
    """One application of the density-level distributional Bellman backup.

    Each (s, a) histogram becomes the mixture over outcomes of the next-pair
    histogram pushed through z -> r + gamma * z and re-projected onto the
    shared bin grid; terminal branches contribute a point mass at r.

    Computed as one matrix step over the reachable pairs,
    ``const + sum_r W_r @ T @ M_r`` with ``W_r = B_r @ P``: ``T`` stacks the
    histograms of the successor pairs, ``P`` mixes them by the policy into
    one histogram per next state, ``B_r`` holds the probabilities of the
    nonterminal branches with reward r, ``M_r`` projects
    ``r + gamma * centers`` onto the bins and ``const`` holds the terminal
    point masses. The pairs, their keys, ``B_r`` and the terminal branches
    are read from the env's :class:`_Backup`; each call builds ``P``,
    ``M_r``, ``const`` and the products.
    """
    centers = 0.5 * (edges[:-1] + edges[1:])
    branches = branch_table(mdp)
    backup = _backup(mdp)
    new = np.zeros((len(backup.keys), len(centers)))
    if backup.term_rows.size:
        idx, frac = _linear_split(backup.term_r, centers)
        p = backup.term_p
        np.add.at(new, (backup.term_rows, idx), p * (1.0 - frac))
        np.add.at(new, (backup.term_rows, idx + 1), p * frac)
    cols: dict[tuple, int] = {}
    mix = []
    for k, (nid, state_key) in enumerate(zip(backup.next_ids, backup.next_keys)):
        for p_a, a_next in _policy_support(policy, branches.states[nid]):
            aid = branches.atom_id(a_next)
            key = (state_key, _action_key(a_next) if aid is None else backup.atom_keys[aid])
            mix.append((k, cols.setdefault(key, len(cols)), p_a))
    if mix:
        rows, cols_p, vals = zip(*mix)
        p_mix = np.zeros((len(backup.next_ids), len(cols)))
        np.add.at(p_mix, (rows, cols_p), vals)
        per_state = p_mix @ np.array([table[key] for key in cols])
        for r, b_r in backup.b_r:
            new += (b_r @ per_state) @ _projection_matrix(r, mdp.gamma, centers)
    return dict(zip(backup.keys, new))


def uniform_table(mdp: ToyMdp, policy, edges: np.ndarray) -> HistTable:
    n = len(edges) - 1
    return {key: np.full(n, 1.0 / n) for key in _backup(mdp).keys}


def uniform_discrete_policy(mdp: ToyMdp) -> UniformDiscretePolicy:
    atoms = mdp.action_atoms()
    if atoms is None:
        raise ContractError(f"{mdp.env_id} has no discrete action set")
    return UniformDiscretePolicy(tuple(tuple(a) for a in atoms))
