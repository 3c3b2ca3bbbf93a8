"""Toy MDP interface, branch tables, behavior policies, and dataset plumbing.

States are encoded as float vectors (discrete states one-hot); actions live in
the box [-1, 1]^d, with discrete action sets embedded as points of that box so
every network sees continuous inputs. Terminal states absorb: stepping from
one returns (same state, reward 0, terminal).

Every rollout lives in this module and takes one of two paths, chosen by the
input alone. An env with action atoms and a policy whose ``support(s)`` lies
on them run all episodes in lockstep off the branch table's dense arrays
(:meth:`_Lockstep.walk`); every other input (the bandit, box policies,
selectors without ``support``) calls the policy and ``step`` one transition
at a time (:func:`_stepwise`). Each path is one loop that yields its steps:
:func:`generate_dataset` records them, and :func:`monte_carlo_returns` and
``flowrl.metrics.evaluate_policy`` (through :func:`_episode_returns`) sum
them with :func:`_returns`. One reader, :func:`_atom_probs`, gives the
probabilities of ``policy.support`` over the action atoms for both the
lockstep walk and the histogram Bellman backup (``flowrl.envs.oracle``),
whose policy-free structure the branch table also keeps, built on first use.
It reads ``support`` at every state on every call, except for a
:class:`UniformDiscretePolicy` (the one :func:`behavior_policy_for` gives
finite envs): its support is the same at every state, so its row is read
once and kept on the branch table.

A lockstep rollout pays for its start once per call, not once per episode:
an ``initial_state`` that draws nothing from its generator is read once for
all episodes (:meth:`_Lockstep.starts`), the default start's id is kept on
the branch table (:meth:`BranchTable.start_id`), and Monte Carlo from an
action atom samples the start pair's row of the dense view.

A :class:`Dataset` is saved in the package's one file format,
``flowrl.serialize``: :func:`save_dataset` and :func:`load_dataset` wrap it,
with the five columns as float64 arrays and the provenance beside them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from flowrl.errors import ConfigError, ContractError, check_int
from flowrl.serialize import load_arrays, save_arrays


_COLUMNS = (("s", 2), ("a", 2), ("r", 1), ("s_next", 2), ("terminal", 1))   # name, ndim
_DATASET_TAG = "flowrl-dataset-v1"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Transition columns plus provenance (env, behavior policy, seed).

    Row i of ``s``, ``a``, ``r``, ``s_next`` and ``terminal`` is one
    transition; rows run episode by episode, in step order. The constructor
    copies each column to float64 (``terminal`` to bool), checks that the
    shapes agree, every real is finite and a ``terminal`` that is not
    boolean holds only 0 and 1, and makes the copies read-only, so
    ``arrays()`` hands out the columns themselves. ``env_id`` and
    ``behavior_id`` must be strings and ``seed`` an integer >= 0 (a bool is
    not one), stored as an int, so every dataset can be saved and read back.
    :func:`generate_dataset` fills them by lockstep rollouts or one step at a
    time, by the rule in its docstring.
    """

    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s_next: np.ndarray
    terminal: np.ndarray
    env_id: str
    behavior_id: str
    seed: int

    def __post_init__(self):
        if not (isinstance(self.env_id, str) and isinstance(self.behavior_id, str)):
            raise ContractError(f"env_id and behavior_id must be strings, got "
                                f"{self.env_id!r:.80} and {self.behavior_id!r:.80}")
        object.__setattr__(self, "seed", check_int("seed", self.seed, least=0))
        n = None
        for name, ndim in _COLUMNS:
            if name == "terminal":
                col = np.array(self.terminal)   # a bool column, as set-up gives, needs no check
                if col.dtype != np.bool_ and not ((col == 0) | (col == 1)).all():
                    raise ContractError("dataset column terminal holds a value other than 0 "
                                        "and 1")
                col = col.astype(np.bool_, copy=False)
            else:
                col = np.array(getattr(self, name), dtype=np.float64)
                if not np.isfinite(col).all():
                    raise ContractError(f"dataset column {name} holds a non-finite value")
            if col.ndim != ndim:
                raise ContractError(f"dataset column {name} has shape {col.shape}, "
                                    f"expected {ndim} dims")
            if n is None:
                n = len(col)
            if len(col) != n:
                raise ContractError(f"dataset column {name} has {len(col)} rows, expected {n}")
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if n == 0:
            raise ContractError("dataset is empty")
        if self.s_next.shape != self.s.shape:
            raise ContractError(f"s_next shape {self.s_next.shape} != s shape {self.s.shape}")

    def __len__(self) -> int:
        return len(self.r)

    def arrays(self) -> dict[str, np.ndarray]:
        """The read-only columns by name, as training code reads them."""
        return {name: getattr(self, name) for name, _ in _COLUMNS}


class ToyMdp:
    """Base class for the shipped toy environments.

    Subclasses define ``env_id``, dims, reward bounds, gamma, and the dynamics.
    Finite-state envs additionally expose ``outcomes`` (the enumerable branch
    structure), which their ``step`` samples from.
    """

    env_id: str = "toy"
    state_dim: int = 1
    action_dim: int = 1
    gamma: float = 0.9
    r_min: float = -1.0
    r_max: float = 1.0
    episode_cap: int = 100

    @property
    def z_bounds(self) -> tuple[float, float]:
        return self.r_min / (1.0 - self.gamma), self.r_max / (1.0 - self.gamma)

    def initial_state(self, rng: np.random.Generator) -> np.ndarray:
        """A start state, a function of the draws it takes from ``rng`` alone.

        Lockstep rollouts rely on this: a call that draws nothing gives every
        episode the same start, so they read it once per call
        (:meth:`_Lockstep.starts`).
        """
        raise NotImplementedError

    def action_atoms(self) -> list[np.ndarray] | None:
        """Embedded discrete action set, or None for continuous-action envs."""
        return None

    def validate_action(self, a: np.ndarray) -> np.ndarray:
        if type(a) is not np.ndarray or a.dtype != np.float64 or a.ndim != 1:
            a = np.asarray(a, dtype=np.float64).reshape(-1)
        if a.shape != (self.action_dim,):
            raise ContractError(f"action shape {a.shape} != ({self.action_dim},)")
        # plain comparisons: NaN fails both, and this runs once per env step
        for x in a.tolist():
            if not -1.0 - 1e-9 <= x <= 1.0 + 1e-9:
                raise ContractError(f"action {a} is not finite or lies outside the [-1, 1] box")
        return a

    def is_terminal(self, s: np.ndarray) -> bool:
        raise NotImplementedError

    def _step_inner(self, s: np.ndarray, a: np.ndarray,
                    rng: np.random.Generator) -> tuple[np.ndarray, float, bool]:
        return self._sample_outcome(s, a, rng)

    # finite-state hooks -----------------------------------------------------

    def outcomes(self, s: np.ndarray, a: np.ndarray) -> list[tuple[float, np.ndarray, float, bool]]:
        """Enumerable branches (prob, s_next, r, terminal) for oracle use."""
        raise ContractError(f"{self.env_id} has no enumerable dynamics")

    def _sample_outcome(self, s: np.ndarray, a: np.ndarray,
                        rng: np.random.Generator) -> tuple[np.ndarray, float, bool]:
        """Draw one branch of ``outcomes`` by inverse CDF (one uniform draw).

        Branches of action atoms are read from the env's :class:`BranchTable`;
        other actions call ``outcomes`` directly.
        """
        u = rng.random()
        table = branch_table(self)
        aid = table.atom_id(a)
        branches = self.outcomes(s, a) if aid is None else table.row(table.state_id(s), aid)
        acc = 0.0
        for branch in branches:
            acc += branch[0]
            if u < acc:
                break
        return branch[1].copy(), branch[2], branch[3]


def _frozen(x: np.ndarray) -> np.ndarray:
    x = np.array(x, dtype=np.float64)
    x.flags.writeable = False
    return x


class BranchTable:
    """The branches of a finite env, read from ``outcomes`` once per pair.

    States get integer ids in the order they are first seen, keyed by their
    exact float64 bytes; action atoms are numbered as ``action_atoms`` lists
    them. ``row(sid, aid)`` calls ``outcomes`` the first time the pair is
    asked for and keeps the result. A row holds, in ``outcomes`` order,
    ``(prob, s_next, r, terminal, next_id)`` with ``s_next`` the read-only
    array ``states[next_id]``. Actions that are not atoms (``atom_id`` is
    None) are never stored: ``branches`` reads them from ``outcomes`` on every
    call. ``dense()`` lays the rows out as arrays for lockstep rollouts.
    ``start_id()`` is the id of ``initial_state(default_rng(0))``, the default
    start of rollouts and oracles, read once and kept. ``_uniform`` keeps the
    atom rows of uniform policies (:func:`_atom_probs`). The table assumes an
    env's dynamics do not change after first use.
    """

    def __init__(self, mdp: ToyMdp):
        self._mdp = mdp
        self.atoms = [_frozen(a) for a in mdp.action_atoms() or []]
        self._atom_ids = {a.tobytes(): i for i, a in enumerate(self.atoms)}
        self.states: list[np.ndarray] = []
        self._state_ids: dict[bytes, int] = {}
        self._rows: dict[tuple[int, int], list] = {}
        self._start: int | None = None
        self._uniform: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def atom_id(self, a: np.ndarray) -> int | None:
        return self._atom_ids.get(np.asarray(a, dtype=np.float64).tobytes())

    def find(self, s: np.ndarray) -> int | None:
        """The id of a state the table holds, else None; unlike ``state_id`` it adds none."""
        return self._state_ids.get(np.asarray(s, dtype=np.float64).tobytes())

    def state_id(self, s: np.ndarray) -> int:
        s = np.asarray(s, dtype=np.float64)
        key = s.tobytes()
        sid = self._state_ids.get(key)
        if sid is None:
            sid = self._state_ids[key] = len(self.states)
            self.states.append(_frozen(s))
        return sid

    def start_id(self) -> int:
        """Id of the env's default start, ``initial_state(default_rng(0))``, read on first use."""
        if self._start is None:
            self._start = self.state_id(self._mdp.initial_state(np.random.default_rng(0)))
        return self._start

    def _read(self, sid: int, a: np.ndarray) -> list:
        row = []
        for prob, s_next, r, terminal in self._mdp.outcomes(self.states[sid], a):
            nid = self.state_id(s_next)
            row.append((prob, self.states[nid], r, terminal, nid))
        return row

    def row(self, sid: int, aid: int) -> list:
        row = self._rows.get((sid, aid))
        if row is None:
            row = self._rows[(sid, aid)] = self._read(sid, self.atoms[aid])
        return row

    def branches(self, sid: int, a: np.ndarray) -> list:
        """Rows for any action: the stored row of an atom, else ``outcomes``."""
        aid = self.atom_id(a)
        return self._read(sid, a) if aid is None else self.row(sid, aid)

    def dense(self) -> "DenseBranches":
        """Every known state's rows as padded arrays, rebuilt only when states were added.

        Reads the row of each (state, atom) pair, closing over the states the
        rows reach (from the env's initial state if no state is known yet), so
        every ``next_id`` of the view is a row of the view. Terminal states get
        the row ``step`` gives them: back to the same state with reward 0 and
        the terminal flag set.
        """
        view = self.__dict__.get("_dense")
        if view is not None and len(view.states) == len(self.states):
            return view
        mdp = self._mdp
        if not self.states:
            self.start_id()
        rows = []
        sid = 0
        while sid < len(self.states):   # reading a row can append states
            done = mdp.is_terminal(self.states[sid])
            for aid in range(len(self.atoms)):
                row = [(1.0, None, 0.0, True, sid)] if done else self.row(sid, aid)
                for branch in row:
                    check_reward(mdp, branch[2])
                rows.append(row)
            sid += 1
        view = self.__dict__["_dense"] = DenseBranches.from_rows(
            np.stack(self.states), np.stack(self.atoms), rows)
        return view


def _inverse_cdf_table(probs: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Running sums of each row's probabilities, +inf from entry ``count - 1`` on.

    The first entry a uniform u lies below is where the sequential rule
    ``acc += p; if u < acc: break`` stops, falling through to entry
    ``count - 1``.
    """
    cdf = np.cumsum(probs, axis=1)
    cdf[np.arange(cdf.shape[1]) >= (count - 1)[:, None]] = np.inf
    return cdf


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row of an :func:`_inverse_cdf_table`, the first entry ``u`` lies below."""
    return (u[:, None] < cdf).argmax(axis=1)


def checked_support(support, s: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """The entries of ``support(s)`` with positive mass, as (float, float64 vector) pairs.

    Raises ContractError unless every probability is finite and >= 0 and
    they sum to 1 within 1e-9. Entries of zero mass are dropped, whatever
    their action.
    """
    entries = [(float(p), a) for p, a in support(s)]
    if not (all(0.0 <= p < math.inf for p, _ in entries)   # NaN fails the range
            and abs(sum(p for p, _ in entries) - 1.0) <= 1e-9):
        raise ContractError("policy support must hold finite non-negative probabilities "
                            "summing to 1")
    return [(p, np.asarray(a, dtype=np.float64)) for p, a in entries if p > 0.0]


def _atom_probs(policy, table: BranchTable,
                n: int) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
    """(state, atom) probabilities of ``policy.support`` at table states 0..n-1, and their CDFs.

    The CDFs are the :func:`_inverse_cdf_table` of the probabilities.
    ``support`` is read at every state, in id order, on every call, and
    each read must pass :func:`checked_support`. ``(None, None)`` when
    ``policy`` has no ``support`` or it puts mass on an action that is not
    an atom; the states after the first such state are not read. A policy
    whose type is exactly :class:`UniformDiscretePolicy` has one support at
    every state: it is read at state 0, and the row is kept on the table by
    the atoms' float64 bytes and ``n`` and served read-only to all n rows.
    """
    support = getattr(policy, "support", None)
    if support is None:
        return None, None
    key = None
    if type(policy) is UniformDiscretePolicy:
        try:
            atoms = np.array(policy.atoms, dtype=np.float64)
            key = (atoms.shape, atoms.tobytes(), n)
        except (TypeError, ValueError):   # ragged or not numbers: read as any policy is
            pass
        kept = table._uniform.get(key)
        if kept is not None:
            return kept
    rows = []
    for s in table.states[:1 if key else n]:
        row = np.zeros(len(table.atoms))
        for p, a in checked_support(support, s):
            aid = table._atom_ids.get(a.tobytes())
            if aid is None:
                return None, None
            row[aid] += p
        rows.append(row)
    probs = np.array(rows)
    # fall through to the last atom with mass, never to a trailing zero
    last = probs.shape[1] - np.argmax(probs[:, ::-1] > 0.0, axis=1)
    out = probs, _inverse_cdf_table(probs, last)
    if key is not None:
        out = table._uniform[key] = tuple(np.broadcast_to(x, (n, x.shape[1])) for x in out)
    return out


@dataclass(frozen=True, eq=False)
class DenseBranches:
    """A branch table as arrays over pairs ``sid * n_atoms + aid``.

    Each pair's branches sit in ``outcomes`` order in the first ``count``
    columns of ``prob``, ``next_id``, ``reward`` and ``terminal``; shorter
    rows are padded with probability 0. ``cdf`` is the
    :func:`_inverse_cdf_table` of ``prob``, so ``_draw`` picks the branch
    ``ToyMdp._sample_outcome`` picks for the same uniform. The view holds
    dynamics only: a policy's atom probabilities come from :func:`_atom_probs`.
    """

    states: np.ndarray   # (n_states, state_dim)
    atoms: np.ndarray    # (n_atoms, action_dim)
    count: np.ndarray    # (n_pairs,)
    prob: np.ndarray     # (n_pairs, width)
    cdf: np.ndarray
    next_id: np.ndarray
    reward: np.ndarray
    terminal: np.ndarray

    @classmethod
    def from_rows(cls, states, atoms, rows) -> "DenseBranches":
        width = max(len(row) for row in rows)
        shape = (len(rows), width)
        prob, reward = np.zeros(shape), np.zeros(shape)
        next_id, terminal = np.zeros(shape, dtype=np.intp), np.zeros(shape, dtype=bool)
        count = np.array([len(row) for row in rows])
        for i, row in enumerate(rows):
            for j, (p, _, r, done, nid) in enumerate(row):
                prob[i, j], reward[i, j], terminal[i, j], next_id[i, j] = p, r, done, nid
        view = cls(states, atoms, count, prob,
                   _inverse_cdf_table(prob, count), next_id, reward, terminal)
        for x in (states, atoms, count, prob, view.cdf, next_id, reward, terminal):
            x.flags.writeable = False
        return view

    def sample(self, pair: np.ndarray, u: np.ndarray):
        """One branch per pair for uniforms ``u``: ``(next_id, reward, terminal)``."""
        flat = pair * self.cdf.shape[1] + _draw(self.cdf[pair], u)
        return self.next_id.take(flat), self.reward.take(flat), self.terminal.take(flat)


class _Lockstep:
    """A policy whose ``support`` lies on an env's action atoms, rolled out in lockstep.

    Holds the env's branch table, its dense view and the inverse-CDF table of
    ``policy.support`` over the view's states (``act_cdf``, read by
    :func:`_atom_probs`). :meth:`walk` is the time loop of every lockstep
    rollout: datasets, Monte Carlo and policy evaluation.
    """

    def __init__(self, mdp: ToyMdp, policy, table: BranchTable):
        self.mdp, self.policy, self.table = mdp, policy, table
        self.view: DenseBranches | None = None
        self.act_cdf: np.ndarray | None = None

    @classmethod
    def of(cls, mdp: ToyMdp, policy, start: np.ndarray | None = None) -> "_Lockstep | None":
        """The lockstep form of ``policy`` on ``mdp``, or None for any other input.

        None unless the env has action atoms and ``policy.support`` lies on
        them. ``start`` (by default the env's initial state) is added to the
        table first, so the view closes over the states it reaches.
        """
        table = branch_table(mdp)
        if not table.atoms or getattr(policy, "support", None) is None:
            return None
        if start is None:
            table.start_id()
        else:
            table.state_id(start)
        lock = cls(mdp, policy, table)
        return lock if lock.refresh() else None

    def refresh(self) -> bool:
        """Rebuild the view and ``act_cdf`` if the table has gained states.

        False when the support puts mass off the atoms at some state.
        """
        view = self.table.dense()
        if view is not self.view:
            _, cdf = _atom_probs(self.policy, self.table, len(view.states))
            self.view, self.act_cdf = view, cdf
        return self.act_cdf is not None

    def starts(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """Ids of ``m`` start states, one ``initial_state(rng)`` each; the view covers them.

        A first call that leaves ``rng``'s state unchanged drew nothing, so
        its state is every episode's start (:meth:`ToyMdp.initial_state`);
        otherwise ``initial_state`` runs ``m - 1`` more times.
        """
        before = rng.bit_generator.state
        sid = self.table.state_id(self.mdp.initial_state(rng))
        if rng.bit_generator.state == before:
            cur = np.full(m, sid)
        else:
            cur = np.array([sid] + [self.table.state_id(self.mdp.initial_state(rng))
                                    for _ in range(m - 1)])
        if not self.refresh():
            raise ContractError("policy support leaves the action atoms at a new start state")
        return cur

    def walk(self, cur: np.ndarray, steps: int, rng: np.random.Generator,
             first: tuple[DenseBranches, int] | None = None):
        """Run episodes from the states ``cur`` in lockstep, yielding each time step.

        Each of up to ``steps`` time steps draws two uniforms per live episode
        in one ``rng.random`` call: the first half picks its action (by
        inverse CDF over ``policy.support``), the second half its branch (by
        the inverse-CDF rule of ``step``). That is the stream of one call per
        half, since the generator fills doubles in sequence. Each step yields
        ``t`` and ``(episode, state, atom, reward, next_state, terminal)`` as
        arrays over the live episodes: episodes by their place in ``cur``,
        states and atoms by their ids in the view. An episode ends at its
        first terminal branch.
        ``first``, a view and one of its pairs, holds the branches of a start
        action that every episode takes: the first step then draws only the
        branch uniforms and yields ``atom`` None.
        """
        view, n_atoms = self.view, len(self.view.atoms)
        ep = np.arange(cur.size)
        for t in range(steps):
            k = ep.size
            if first is None:
                u = rng.random(2 * k)
                aid = _draw(self.act_cdf[cur], u[:k])
                nid, r, terminal = view.sample(cur * n_atoms + aid, u[k:])
            else:
                aid = None
                nid, r, terminal = first[0].sample(np.full(k, first[1]), rng.random(k))
                first = None
            yield t, ep, cur, aid, r, nid, terminal
            cur = nid
            if terminal.any():
                live = ~terminal
                ep, cur = ep[live], cur[live]
                if not ep.size:
                    return


def branch_table(mdp: ToyMdp) -> BranchTable:
    """The env's branch table, created on first use and kept on the instance."""
    table = mdp.__dict__.get("_branch_table")
    if table is None:
        table = mdp.__dict__["_branch_table"] = BranchTable(mdp)
    return table


def step(mdp: ToyMdp, s: np.ndarray, a: np.ndarray,
         rng: np.random.Generator) -> tuple[np.ndarray, float, bool]:
    """Sample one transition; terminal states self-loop with reward 0."""
    a = mdp.validate_action(a)
    if mdp.is_terminal(s):
        return np.asarray(s, dtype=np.float64).copy(), 0.0, True
    s_next, r, terminal = mdp._step_inner(np.asarray(s, dtype=np.float64), a, rng)
    check_reward(mdp, r)
    return s_next, float(r), bool(terminal)


def check_reward(mdp: ToyMdp, r: float) -> None:
    """Raise ConfigError for a reward outside the env's declared bounds."""
    if not mdp.r_min - 1e-9 <= r <= mdp.r_max + 1e-9:
        raise ConfigError(f"{mdp.env_id} emitted reward {r} outside "
                          f"[{mdp.r_min}, {mdp.r_max}]")


def check_start(mdp: ToyMdp, s, a) -> tuple[np.ndarray, np.ndarray]:
    """A caller's start pair as float64 vectors, or ContractError.

    ``s`` must be finite with shape ``(state_dim,)``; ``a`` must pass
    ``validate_action``. Checked before the branch table sees either, since a
    state the table keeps is part of every later rollout on the env.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (mdp.state_dim,) or not np.isfinite(s).all():
        raise ContractError(f"start state must be finite with shape ({mdp.state_dim},), "
                            f"got shape {s.shape}")
    return s, mdp.validate_action(a)


# -- behavior policies --------------------------------------------------------

Policy = Callable[[np.ndarray, np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class UniformDiscretePolicy:
    """Uniform over an embedded discrete action set."""

    atoms: tuple

    behavior_id: str = "uniform-discrete"

    def __call__(self, s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.array(self.atoms[rng.integers(len(self.atoms))], dtype=np.float64)

    def support(self, s: np.ndarray) -> list[tuple[float, np.ndarray]]:
        p = 1.0 / len(self.atoms)
        return [(p, np.asarray(a, dtype=np.float64)) for a in self.atoms]


@dataclass(frozen=True)
class UniformBoxPolicy:
    """Uniform over the continuous action box."""

    dim: int
    behavior_id: str = "uniform-box"

    def __call__(self, s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, size=self.dim)


def behavior_policy_for(mdp: ToyMdp) -> Policy:
    """The uniform behavior policy: over the action atoms, or over the action box
    for an env without atoms. :func:`_atom_probs` keeps the former's row on the
    env's branch table, so rollouts and the Bellman backup read its support once
    per table size."""
    atoms = mdp.action_atoms()
    if atoms is None:
        return UniformBoxPolicy(mdp.action_dim)
    return UniformDiscretePolicy(tuple(tuple(a) for a in atoms))


# -- rollouts -------------------------------------------------------------------

def _stepwise(mdp: ToyMdp, policy: Policy, rngs, horizon: int, start: tuple | None = None):
    """Run episodes one transition at a time, yielding ``(t, episode, s, a, r, s_next, terminal)``.

    Episode i draws from the i-th stream of ``rngs``: one stream repeated, or
    one stream per episode. It starts from ``start``'s (state, action), else
    from ``initial_state(rng)`` with the action ``policy(s, rng)``; each later
    step calls ``policy`` on the state reached, and no call follows an
    episode's last step. An episode ends on a terminal step or after
    ``horizon`` steps; ``t`` counts its steps from 0. Each action is copied
    to a float64 vector, which ``step`` validates, so ``a`` is the action
    ``step`` took whatever buffer or shape the policy returned. Raises
    ContractError before the first step unless ``policy`` is callable.
    """
    if not callable(policy):
        raise ContractError("a policy whose support(s) does not lie on the action atoms "
                            "must be callable as policy(s, rng)")
    for ep, rng in enumerate(rngs):
        s, a = (mdp.initial_state(rng), None) if start is None else start
        for t in range(horizon):
            a = np.asarray(policy(s, rng) if a is None else a, dtype=np.float64).flatten()
            s_next, r, terminal = step(mdp, s, a, rng)
            yield t, ep, s, a, r, s_next, terminal
            if terminal:
                break
            s, a = s_next, None


def _returns(walk, n: int, gamma: float) -> np.ndarray:
    """Discounted returns of ``n`` episodes from the steps of either rollout loop.

    Summed in step order, ``ret += disc * r`` with step t's ``disc`` the
    product ``1.0 * gamma * ...`` of t factors, as a single rollout sums them.
    """
    ret, discs = np.zeros(n), [1.0]
    for t, ep, _, _, r, _, _ in walk:
        if t == len(discs):
            discs.append(discs[-1] * gamma)
        ret[ep] += discs[t] * r
    return ret


def monte_carlo_returns(mdp: ToyMdp, policy, s: np.ndarray, a: np.ndarray,
                        n: int, horizon: int, seed: int = 0) -> np.ndarray:
    """n independent truncated discounted-return samples from (s, a).

    ``s`` and ``a`` are checked by :func:`check_start`. When the env has
    action atoms and ``policy.support(s)`` puts all its mass on them, the n
    episodes run in lockstep (:meth:`_Lockstep.walk`); the start action may
    be any action in the box. An atom's branches are sampled from its row of
    the dense view, any other action's are read once from ``outcomes``. Any
    other policy is called as ``policy(s, rng)`` before each step after the
    first, and the env is stepped one transition at a time
    (:func:`_stepwise`). Both paths draw from one ``default_rng(seed)``
    stream, each in its own order, so a seed gives different samples on each.
    """
    n, horizon = check_int("n", n), check_int("horizon", horizon)
    rng = np.random.default_rng(check_int("seed", seed, least=0))
    s, a = check_start(mdp, s, a)
    if mdp.is_terminal(s):   # ``step`` returns reward 0 and ends the episode
        return np.zeros(n)
    lock = _Lockstep.of(mdp, policy, s)
    if lock is not None:
        table = lock.table
        sid, aid = table.state_id(s), table.atom_id(a)
        first = None
        if aid is not None:   # the view holds the start pair's row, its rewards checked
            first = (lock.view, sid * len(table.atoms) + aid)
        else:
            row = table.branches(sid, a)
            if lock.refresh():   # else the start action's branches led off the support
                for branch in row:
                    check_reward(mdp, branch[2])
                first = (DenseBranches.from_rows(lock.view.states, lock.view.atoms, [row]), 0)
        if first is not None:
            return _returns(lock.walk(np.full(n, sid), horizon, rng, first), n, mdp.gamma)
    steps = _stepwise(mdp, policy, itertools.repeat(rng, n), horizon, (s, a))
    return _returns(steps, n, mdp.gamma)


def _episode_returns(mdp: ToyMdp, policy, episodes: int, horizon: int,
                     seed: int) -> np.ndarray:
    """Returns of ``episodes`` seeded rollouts of up to ``horizon`` steps from ``initial_state``.

    The rollouts of ``flowrl.metrics.evaluate_policy``, which checks the
    arguments. In lockstep, every episode draws from one ``default_rng(seed)``
    stream and takes its actions from ``policy.support``; the policy is
    never called. On the per-step path episode ``ep`` draws from its own
    ``default_rng((seed, ep))`` stream, so its return does not depend on how
    many episodes run.
    """
    lock = _Lockstep.of(mdp, policy)
    if lock is not None:
        rng = np.random.default_rng(seed)
        steps = lock.walk(lock.starts(episodes, rng), horizon, rng)
    else:
        rngs = (np.random.default_rng((seed, ep)) for ep in range(episodes))
        steps = _stepwise(mdp, policy, rngs, horizon)
    return _returns(steps, episodes, mdp.gamma)


# -- dataset generation and serialization -------------------------------------

def generate_dataset(mdp: ToyMdp, behavior: Policy, n_transitions: int, seed: int) -> Dataset:
    """Seeded rollouts under ``behavior``; episodes truncated at the env cap
    with terminal=False on truncation.

    When the env has action atoms and ``behavior.support(s)`` puts all its
    mass on them (:func:`_atom_probs`), the episodes run in
    lockstep off the env's branch table, drawing actions from ``support``;
    otherwise ``behavior(s, rng)`` and ``step`` run one transition at a
    time. Nothing else selects the path. The two paths draw different
    random streams from one seed: a finite env's dataset under
    ``behavior_policy_for`` differs from the one the per-step loop gives
    for the same seed, while the bandit's is the per-step loop's.

    Lockstep episodes run in rounds that all start together. A round holds
    as many episodes as the transitions still wanted at the mean episode
    length seen so far (the cap before the first round); the rows past
    ``n_transitions`` of the last round are dropped.
    """
    n_transitions = check_int("n_transitions", n_transitions)
    seed = check_int("seed", seed, least=0)
    rng = np.random.default_rng(seed)
    behavior_id = getattr(behavior, "behavior_id", "custom")
    lock = _Lockstep.of(mdp, behavior)
    if lock is None:
        rows = []
        for _, _, s, a, r, s_next, terminal in _stepwise(mdp, behavior, itertools.repeat(rng),
                                                         mdp.episode_cap):
            rows.append((s.copy(), a, r, s_next.copy(), terminal))
            if len(rows) == n_transitions:
                break
        return Dataset(*zip(*rows), mdp.env_id, behavior_id, seed)
    parts: list[list] = []
    total = episodes = 0
    per_episode = float(mdp.episode_cap)
    while total < n_transitions:
        m = max(1, int(np.ceil((n_transitions - total) / per_episode)))
        steps = lock.walk(lock.starts(m, rng), mdp.episode_cap, rng)
        cols = [np.concatenate(col) for col in list(zip(*steps))[1:]]
        order = np.argsort(cols[0], kind="stable")   # episode by episode, steps in order
        parts.append([col[order] for col in cols[1:]])
        total += len(order)
        episodes += m
        per_episode = total / episodes
    sid, aid, r, nid, terminal = (np.concatenate(col)[:n_transitions] for col in zip(*parts))
    view = lock.view
    return Dataset(view.states[sid], view.atoms[aid], r, view.states[nid], terminal,
                   mdp.env_id, behavior_id, seed)


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write ``dataset`` bit for bit as a ``flowrl-dataset-v1`` file (``flowrl.serialize``).

    The five columns are float64 arrays under ``columns``, ``terminal`` as
    0.0/1.0, beside the ``env_id``, ``behavior_id`` and ``seed`` provenance.
    """
    save_arrays(path, _DATASET_TAG, "columns", dataset.arrays(), env_id=dataset.env_id,
                behavior_id=dataset.behavior_id, seed=dataset.seed)


def load_dataset(path: str | Path) -> Dataset:
    """The dataset a :func:`save_dataset` file holds.

    A malformed file raises ConfigError; well-formed columns that break the
    :class:`Dataset` contract raise its ContractError.
    """
    columns, provenance = load_arrays(path, _DATASET_TAG, "columns",
                                      env_id=str, behavior_id=str, seed=int)
    names = [name for name, _ in _COLUMNS]
    if sorted(columns) != sorted(names):
        raise ConfigError(f"dataset columns {list(columns)} are not {names}")
    return Dataset(**columns, **provenance)
