"""Exact return-distribution oracles for finite toy MDPs.

The oracles below read an env's branches through its
:class:`~flowrl.envs.base.BranchTable`, which calls ``outcomes`` once per
(state, action atom) pair. They sample nothing: the sampled rollouts they
are checked against (``monte_carlo_returns``, datasets and policy
evaluation) live in :mod:`flowrl.envs.base`.

``enumerate_return_distribution`` returns the exact atoms of the discounted
return truncated at a horizon. It is a dynamic program over depth: the
frontier maps (state, action, exact partial return) to its probability, so
paths that meet again are expanded once, and ``PATH_GUARD`` bounds the
frontier size.

The histogram-level Bellman operator discretizes the density backup for
contraction and fixed-point harnesses, as one matrix step over all reachable
pairs, on return tables: float64 (pairs, bins) arrays whose row
``table_key(mdp, s, a)`` is the histogram of (s, a). Its policy-free part
(the pairs, the next states, the per-reward branch matrices and the terminal
branches) is built once and kept on the env's branch table, because
reachability from the start state depends only on the dynamics; its
projections onto the last bin grid seen are kept beside it. The policy
mix comes from :func:`~flowrl.envs.base._atom_probs`, the reader lockstep
rollouts draw their actions from, which keeps the uniform behavior policy's
row on the branch table, so each application builds only the mixed
histograms and the products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flowrl.envs.base import ToyMdp, _atom_probs, branch_table, check_start, checked_support
from flowrl.errors import ContractError, OracleError, check_edges, check_int

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


def enumerate_return_distribution(mdp: ToyMdp, policy, s: np.ndarray, a: np.ndarray,
                                  horizon: int, mass_tol: float = 1e-6) -> ReturnAtomSet:
    """Exact atoms of the discounted return from (s, a), truncated at ``horizon``.

    Works depth by depth: the frontier maps (state, action, partial return)
    to the probability of reaching it, so paths that meet again with the same
    partial return are expanded once. Every path still does the same float
    operations as a path-by-path walk (``ret + gamma**depth * r``), so atom
    values are exact; masses differ from such a walk only in summation order.
    Branches come from the env's branch table; ``s`` and ``a`` are checked
    by :func:`~flowrl.envs.base.check_start` before it sees them.

    Paths still alive at the horizon contribute atoms at their partial return;
    their total probability is reported as ``truncated_mass`` and the value
    truncation bound as ``value_tol``. Raises :class:`OracleError` when a
    frontier would hold more than ``PATH_GUARD`` entries. ``policy.support``
    may put mass on actions that are not atoms; at every state it reaches it
    must pass :func:`~flowrl.envs.base.checked_support`, else ContractError.
    """
    horizon = check_int("horizon", horizon)
    if not 0.0 <= mass_tol < np.inf:
        raise ContractError(f"mass_tol must be a finite number >= 0, got {mass_tol!r}")
    policy_support = getattr(policy, "support", None)
    if policy_support is None:
        raise ContractError("enumeration needs a policy with finite support(s)")
    s, a = check_start(mdp, s, a)
    gamma = mdp.gamma
    table = branch_table(mdp)
    actions = {a.tobytes(): a}
    supports: dict[int, list] = {}

    def support(sid):
        # policy support of a state, with each action's frontier key
        out = supports.get(sid)
        if out is None:
            out = supports[sid] = []
            for p_a, a_next in checked_support(policy_support, table.states[sid]):
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


# -- discretized density-level Bellman operator --------------------------------


def _reachable_states(mdp: ToyMdp) -> dict[int, int]:
    """Branch-table id -> scan position of each nonterminal state reachable from the start."""
    table = branch_table(mdp)
    if not table.atoms:
        raise ContractError("reachability scan needs a finite action set")
    start = table.start_id()
    seen = {start: 0}
    frontier = [start]
    while frontier:
        sid = frontier.pop()
        for aid in range(len(table.atoms)):
            for _, _, _, terminal, nid in table.row(sid, aid):
                if not terminal and nid not in seen:
                    seen[nid] = len(seen)
                    frontier.append(nid)
    return seen


@dataclass(frozen=True, eq=False)
class _Backup:
    """The policy-free part of the histogram Bellman backup of a finite env.

    Pairs (the rows of a return table) are the reachable nonterminal states
    ``sids`` times the action atoms, state-major. Column k of every ``B_r`` is
    the nonterminal successor ``next_ids[k]`` (``sids`` position ``next_pos[k]``),
    in the order the pairs' branches first reach it. Reachability depends only
    on the dynamics, so :func:`_backup` builds this once per branch table.
    :meth:`on_grid` keeps the projections of one bin grid, the last it saw.
    """

    sids: dict[int, int]           # branch-table id -> scan position
    n_pairs: int
    next_ids: list[int]
    next_pos: np.ndarray
    b_r: list[tuple[float, np.ndarray]]   # (r, B_r): (pairs, next states) branch probabilities
    term_rows: np.ndarray          # pair, reward and probability of each terminal branch
    term_r: np.ndarray
    term_p: np.ndarray

    @classmethod
    def build(cls, mdp: ToyMdp) -> "_Backup":
        branches = branch_table(mdp)
        sids = _reachable_states(mdp)
        n_atoms = len(branches.atoms)
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
        return cls(sids, n_pairs, list(next_states), np.array([sids[k] for k in next_states]), b_r,
                   np.array(term_rows, dtype=np.intp), np.array(term_r), np.array(term_p))

    def on_grid(self, gamma: float, centers: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The backup's projections onto the bin grid ``centers``: ``(const, M)``.

        ``const`` (read-only, (pairs, bins)) holds the terminal branches'
        point masses; ``M[i]`` is the ``M_r`` of ``b_r[i]``. Kept for the last
        (gamma, centers) asked for and rebuilt when they change, so one grid's
        projections are held at a time.
        """
        key = (gamma, centers.tobytes())
        kept = self.__dict__.get("_grid")
        if kept is None or kept[0] != key:
            const = np.zeros((self.n_pairs, len(centers)))
            if self.term_rows.size:
                idx, frac = _linear_split(self.term_r, centers)
                np.add.at(const, (self.term_rows, idx), self.term_p * (1.0 - frac))
                np.add.at(const, (self.term_rows, idx + 1), self.term_p * frac)
            const.flags.writeable = False
            kept = self.__dict__["_grid"] = (
                key, const, [_projection_matrix(r, gamma, centers) for r, _ in self.b_r])
        return kept[1], kept[2]


def _backup(mdp: ToyMdp) -> _Backup:
    """The env's :class:`_Backup`, built on first use and kept on its branch table."""
    branches = branch_table(mdp)
    backup = branches.__dict__.get("_backup")
    if backup is None:
        backup = branches.__dict__["_backup"] = _Backup.build(mdp)
    return backup


def reachable_state_actions(mdp: ToyMdp) -> list[tuple[np.ndarray, np.ndarray]]:
    """All nonterminal (s, a) pairs reachable from the initial state; pair i is row i of
    a return table. The arrays are the env's branch-table entries and are read-only.
    """
    table = branch_table(mdp)
    return [(table.states[sid], a) for sid in _backup(mdp).sids for a in table.atoms]


def table_key(mdp: ToyMdp, s: np.ndarray, a: np.ndarray) -> int:
    """The row of (s, a) in a return table; ``s`` is found by its exact bytes, never added.

    Raises ContractError unless ``s`` is a reachable nonterminal state and ``a`` an atom.
    """
    backup, table = _backup(mdp), branch_table(mdp)
    pos, aid = backup.sids.get(table.find(s)), table.atom_id(a)
    if pos is None or aid is None:
        raise ContractError(f"no return-table row for ({s}, {a}): not a reachable state and atom")
    return pos * len(table.atoms) + aid


def _linear_split(values: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left bin index and the fraction of mass that goes to the bin right of it."""
    v = np.clip(values, centers[0], centers[-1])
    idx = np.clip(np.searchsorted(centers, v, side="right") - 1, 0, len(centers) - 2)
    left = centers[idx]
    width = centers[idx + 1] - left
    return idx, np.clip((v - left) / width, 0.0, 1.0)


def _projection_matrix(r: float, gamma: float, centers: np.ndarray) -> np.ndarray:
    """Row k is a unit mass at ``r + gamma * centers[k]``, split onto its two nearest bins."""
    n = len(centers)
    idx, frac = _linear_split(r + gamma * centers, centers)
    m = np.zeros((n, n))
    rows = np.arange(n)
    m[rows, idx] = 1.0 - frac
    m[rows, idx + 1] = frac
    return m


def bellman_histogram_operator(mdp: ToyMdp, policy, table: np.ndarray,
                               edges: np.ndarray) -> np.ndarray:
    """One application of the density-level distributional Bellman backup.

    Maps a return table over ``edges`` (at least 2 bins) to a new one: each
    (s, a) histogram becomes the mixture over outcomes of the next-pair
    histogram pushed through z -> r + gamma * z and re-projected onto the
    shared bin grid; terminal branches contribute a point mass at r.

    Computed as one matrix step over the reachable pairs,
    ``const + sum_r B_r @ H @ M_r``: ``H`` holds one histogram per next
    state, the histograms of its (state, atom) pairs mixed by ``P``, the
    policy's atom probabilities there; ``B_r`` holds the probabilities of
    the nonterminal branches with reward r, ``M_r`` projects
    ``r + gamma * centers`` onto the bins and ``const`` holds the terminal
    point masses. The pairs, the next states, ``B_r`` and the terminal
    branches are read from the env's :class:`_Backup`, ``M_r`` and ``const``
    from the projections it keeps for the last bin grid (built again when
    the edges change), and ``P`` from :func:`~flowrl.envs.base._atom_probs`
    at the states of the branch table's dense view, whose build checks every
    reward (ConfigError); each call builds only ``H`` and the products.
    Raises ContractError for bad edges, a table that is not a finite float64
    array of shape (pairs, bins), and when ``policy`` has no ``support`` or
    it puts mass off the action atoms or fails
    :func:`~flowrl.envs.base.checked_support`.
    """
    edges = check_edges(edges, least=2)
    centers = 0.5 * (edges[:-1] + edges[1:])
    backup = _backup(mdp)
    shape = (backup.n_pairs, len(centers))
    if not (isinstance(table, np.ndarray) and table.dtype == np.float64
            and table.shape == shape and np.isfinite(table).all()):
        raise ContractError(f"a return table is a finite float64 array of shape {shape}, got "
                            f"{type(table).__name__} {getattr(table, 'dtype', '')}")
    branches = branch_table(mdp)
    probs, _ = _atom_probs(policy, branches, len(branches.dense().states))
    if probs is None:
        raise ContractError("the Bellman backup needs a policy whose support lies on the "
                            "action atoms")
    const, m = backup.on_grid(mdp.gamma, centers)
    new = const.copy()
    if backup.next_ids:
        pairs = table.reshape(len(backup.sids), -1, len(centers))[backup.next_pos]
        per_state = np.einsum("ka,kab->kb", probs[backup.next_ids], pairs)
        for (_, b_r), m_r in zip(backup.b_r, m):
            new += (b_r @ per_state) @ m_r
    return new


def uniform_table(mdp: ToyMdp, policy, edges: np.ndarray) -> np.ndarray:
    """The return table of uniform histograms over ``edges`` (at least 2 bins).

    ``policy`` is unused; it stays only because the benchmark's oracle loop passes it.
    """
    n = len(check_edges(edges, least=2)) - 1
    return np.full((_backup(mdp).n_pairs, n), 1.0 / n)
