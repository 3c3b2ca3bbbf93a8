"""Toy MDP interface, branch tables, behavior policies, and dataset plumbing.

States are encoded as float vectors (discrete states one-hot); actions live in
the box [-1, 1]^d, with discrete action sets embedded as points of that box so
every network sees continuous inputs. Terminal states absorb: stepping from
one returns (same state, reward 0, terminal).

Rollouts take one of two paths, chosen by the input alone. An env with action
atoms and a policy whose ``support(s)`` lies on them run all episodes in
lockstep off the branch table's dense arrays; every other input (the bandit,
box policies, selectors without ``support``) calls the policy and ``step``
one transition at a time. Dataset generation, Monte Carlo returns and policy
evaluation (``flowrl.metrics.evaluate_policy``) all take the lockstep path
through :class:`_Lockstep`, and the last two share its time loop. The branch
table also keeps the policy-free structure of the histogram Bellman backup
(``flowrl.envs.oracle``), built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from flowrl.errors import ConfigError, ContractError, check_int


_COLUMNS = (("s", np.float64, 2), ("a", np.float64, 2), ("r", np.float64, 1),
            ("s_next", np.float64, 2), ("terminal", np.bool_, 1))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Transition columns plus provenance (env, behavior policy, seed).

    Row i of ``s``, ``a``, ``r``, ``s_next`` and ``terminal`` is one
    transition; rows run episode by episode, in step order. The constructor
    copies each column to float64 (``terminal`` to bool), checks that the
    shapes agree and every real is finite, and makes the copies read-only,
    so ``arrays()`` hands out the columns themselves. :func:`generate_dataset`
    fills them by lockstep rollouts or one step at a time, by the rule in
    its docstring.
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
        n = None
        for name, dtype, ndim in _COLUMNS:
            col = np.array(getattr(self, name), dtype=dtype)
            if col.ndim != ndim:
                raise ContractError(f"dataset column {name} has shape {col.shape}, "
                                    f"expected {ndim} dims")
            if n is None:
                n = len(col)
            if len(col) != n:
                raise ContractError(f"dataset column {name} has {len(col)} rows, expected {n}")
            if dtype is np.float64 and not np.isfinite(col).all():
                raise ContractError(f"dataset column {name} holds a non-finite value")
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
        return {name: getattr(self, name) for name, _, _ in _COLUMNS}


class ToyMdp:
    """Base class for the shipped toy environments.

    Subclasses define ``env_id``, dims, reward bounds, gamma, and the dynamics.
    Finite-state envs additionally expose ``outcomes`` (the enumerable branch
    structure) and ``state_key`` for tabular oracles.
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
        raise NotImplementedError

    def action_atoms(self) -> list[np.ndarray] | None:
        """Embedded discrete action set, or None for continuous-action envs."""
        return None

    def validate_action(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64).reshape(-1)
        if a.shape != (self.action_dim,):
            raise ContractError(f"action shape {a.shape} != ({self.action_dim},)")
        # plain comparisons: NaN fails both, and this runs once per env step
        if not all(-1.0 - 1e-9 <= x <= 1.0 + 1e-9 for x in a.tolist()):
            raise ContractError(f"action {a} is not finite or lies outside the [-1, 1] box")
        return a

    def is_terminal(self, s: np.ndarray) -> bool:
        raise NotImplementedError

    def _step_inner(self, s: np.ndarray, a: np.ndarray,
                    rng: np.random.Generator) -> tuple[np.ndarray, float, bool]:
        raise NotImplementedError

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

    def state_key(self, s: np.ndarray):
        return tuple(np.round(np.asarray(s, dtype=np.float64), 12))


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
    call. ``dense()`` lays the rows out as arrays for lockstep rollouts. The
    table assumes an env's dynamics do not change after first use.
    """

    def __init__(self, mdp: ToyMdp):
        self._mdp = mdp
        self.atoms = [_frozen(a) for a in mdp.action_atoms() or []]
        self._atom_ids = {a.tobytes(): i for i, a in enumerate(self.atoms)}
        self.states: list[np.ndarray] = []
        self._state_ids: dict[bytes, int] = {}
        self._rows: dict[tuple[int, int], list] = {}

    def atom_id(self, a: np.ndarray) -> int | None:
        return self._atom_ids.get(np.asarray(a, dtype=np.float64).tobytes())

    def state_id(self, s: np.ndarray) -> int:
        s = np.asarray(s, dtype=np.float64)
        key = s.tobytes()
        sid = self._state_ids.get(key)
        if sid is None:
            sid = self._state_ids[key] = len(self.states)
            self.states.append(_frozen(s))
        return sid

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
            self.state_id(mdp.initial_state(np.random.default_rng(0)))
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


@dataclass(frozen=True, eq=False)
class DenseBranches:
    """A branch table as arrays over pairs ``sid * n_atoms + aid``.

    Each pair's branches sit in ``outcomes`` order in the first ``count``
    columns of ``prob``, ``next_id``, ``reward`` and ``terminal``; shorter
    rows are padded with probability 0. ``cdf`` is the
    :func:`_inverse_cdf_table` of ``prob``, so ``_draw`` picks the branch
    ``ToyMdp._sample_outcome`` picks for the same uniform.
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
        for x in vars(view).values():
            x.flags.writeable = False
        return view

    def sample(self, pair: np.ndarray, u: np.ndarray):
        """One branch per pair for uniforms ``u``: ``(next_id, reward, terminal)``."""
        flat = pair * self.cdf.shape[1] + _draw(self.cdf[pair], u)
        return self.next_id.take(flat), self.reward.take(flat), self.terminal.take(flat)

    def action_cdf(self, policy) -> np.ndarray | None:
        """Inverse-CDF table of ``policy.support`` over the atoms at every state.

        None when the support puts mass on an action that is not an atom: such
        a policy is rolled out step by step.
        """
        ids = {a.tobytes(): i for i, a in enumerate(self.atoms)}
        probs = np.zeros((len(self.states), len(self.atoms)))
        for sid, s in enumerate(self.states):
            for p, a in policy.support(s):
                aid = ids.get(np.asarray(a, dtype=np.float64).tobytes())
                if aid is None:
                    if p > 0.0:
                        return None
                    continue
                probs[sid, aid] += p
        if not (np.isfinite(probs).all() and (probs >= 0.0).all()
                and np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)):
            raise ContractError("policy support must hold non-negative probabilities "
                                "summing to 1")
        # fall through to the last atom with mass, never to a trailing zero
        last = len(self.atoms) - np.argmax(probs[:, ::-1] > 0.0, axis=1)
        return _inverse_cdf_table(probs, last)


class _Lockstep:
    """A policy whose ``support`` lies on an env's action atoms, rolled out in lockstep.

    Holds the env's branch table, its dense view and the inverse-CDF table of
    ``policy.support`` over the view's states (``act_cdf``). Dataset
    generation, Monte Carlo and policy evaluation all start from here;
    :meth:`returns` is the time loop that Monte Carlo and evaluation share.
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
        table.state_id(mdp.initial_state(np.random.default_rng(0)) if start is None else start)
        lock = cls(mdp, policy, table)
        return lock if lock.refresh() else None

    def refresh(self) -> bool:
        """Rebuild the view and ``act_cdf`` if the table has gained states.

        False when the support puts mass off the atoms at some state.
        """
        view = self.table.dense()
        if view is not self.view:
            self.view, self.act_cdf = view, view.action_cdf(self.policy)
        return self.act_cdf is not None

    def starts(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """Ids of ``m`` start states, one ``initial_state(rng)`` each; the view covers them."""
        cur = np.array([self.table.state_id(self.mdp.initial_state(rng)) for _ in range(m)])
        if not self.refresh():
            raise ContractError("policy support leaves the action atoms at a new start state")
        return cur

    def returns(self, cur: np.ndarray, terminal: np.ndarray, acc: np.ndarray, disc: float,
                steps: int, rng: np.random.Generator) -> np.ndarray:
        """Finish episodes in lockstep and return their discounted returns.

        Episode i is at state ``cur[i]``, has ended if ``terminal[i]``, has
        collected ``acc[i]`` so far, and its next reward is discounted by
        ``disc``. Each of up to ``steps`` time steps retires the ended
        episodes, then draws one uniform per live episode for its action (by
        inverse CDF over ``policy.support``) and one for its branch (by the
        inverse-CDF rule of ``step``). Returns are summed in step order,
        ``ret += disc * r; disc *= gamma``, as a single rollout sums them.
        """
        view, n_atoms = self.view, len(self.view.atoms)
        ret = np.zeros(cur.size)
        idx = np.arange(cur.size)   # the live episodes
        for _ in range(steps):
            if terminal.any():
                ret[idx[terminal]] = acc[terminal]
                live = ~terminal
                idx, cur, acc = idx[live], cur[live], acc[live]
                if not idx.size:
                    return ret
            k = idx.size
            aid = _draw(self.act_cdf[cur], rng.random(k))
            cur, r, terminal = view.sample(cur * n_atoms + aid, rng.random(k))
            acc = acc + disc * r
            disc *= self.mdp.gamma
        ret[idx] = acc
        return ret


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
    atoms = mdp.action_atoms()
    if atoms is None:
        return UniformBoxPolicy(mdp.action_dim)
    return UniformDiscretePolicy(tuple(tuple(a) for a in atoms))


# -- dataset generation and serialization -------------------------------------

def generate_dataset(mdp: ToyMdp, behavior: Policy, n_transitions: int, seed: int) -> Dataset:
    """Seeded rollouts under ``behavior``; episodes truncated at the env cap
    with terminal=False on truncation.

    When the env has action atoms and ``behavior.support(s)`` puts all its
    mass on them (:meth:`DenseBranches.action_cdf`), the episodes run in
    lockstep off the env's branch table, drawing actions from ``support``;
    otherwise ``behavior(s, rng)`` and ``step`` run one transition at a
    time. Nothing else selects the path. The two paths draw different
    random streams from one seed: a finite env's dataset under
    ``behavior_policy_for`` differs from the one the per-step loop gives
    for the same seed, while the bandit's is the per-step loop's.
    """
    n_transitions = check_int("n_transitions", n_transitions)
    rng = np.random.default_rng(check_int("seed", seed, least=0))
    behavior_id = getattr(behavior, "behavior_id", "custom")
    columns = _lockstep_dataset(mdp, behavior, n_transitions, rng)
    if columns is None:
        columns = _stepwise_dataset(mdp, behavior, n_transitions, rng)
    return Dataset(*columns, mdp.env_id, behavior_id, seed)


def _stepwise_dataset(mdp: ToyMdp, behavior: Policy, n_transitions: int,
                      rng: np.random.Generator) -> tuple:
    rows: list[tuple] = []
    while len(rows) < n_transitions:
        s = mdp.initial_state(rng)
        for _ in range(mdp.episode_cap):
            a = behavior(s, rng)
            s_next, r, terminal = step(mdp, s, a, rng)
            rows.append((s.copy(), np.asarray(a, dtype=np.float64), r, s_next.copy(), terminal))
            if terminal or len(rows) >= n_transitions:
                break
            s = s_next
    return tuple(np.array(col) for col in zip(*rows))


def _lockstep_dataset(mdp: ToyMdp, behavior, n_transitions: int,
                      rng: np.random.Generator) -> tuple | None:
    """The columns of ``generate_dataset`` by lockstep rollouts, or None for other inputs.

    Runs rounds of episodes that all start together; each time step draws
    one uniform per live episode for its action and one for its branch. A
    round holds as many episodes as the transitions still wanted at the mean
    episode length seen so far (the cap before the first round); the rows
    past ``n_transitions`` of the last round are dropped.
    """
    lock = _Lockstep.of(mdp, behavior)
    if lock is None:
        return None
    n_atoms = len(lock.view.atoms)
    parts: list[tuple] = []
    total = episodes = 0
    per_episode = float(mdp.episode_cap)
    while total < n_transitions:
        m = max(1, int(np.ceil((n_transitions - total) / per_episode)))
        cur = lock.starts(m, rng)
        view, act_cdf = lock.view, lock.act_cdf
        ep = np.arange(episodes, episodes + m)
        steps = []
        for _ in range(mdp.episode_cap):
            aid = _draw(act_cdf[cur], rng.random(cur.size))
            nid, r, terminal = view.sample(cur * n_atoms + aid, rng.random(cur.size))
            steps.append((ep, cur, aid, r, nid, terminal))
            live = ~terminal
            ep, cur = ep[live], nid[live]
            if not cur.size:
                break
        cols = [np.concatenate(col) for col in zip(*steps)]
        order = np.argsort(cols[0], kind="stable")   # episode by episode, steps in order
        parts.append(tuple(col[order] for col in cols[1:]))
        total += len(order)
        episodes += m
        per_episode = total / episodes
    sid, aid, r, nid, terminal = (np.concatenate(col)[:n_transitions] for col in zip(*parts))
    return view.states[sid], view.atoms[aid], r, view.states[nid], terminal


def _fmt_vec(v: np.ndarray) -> str:
    return ",".join(map(repr, v.tolist()))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """One transition per line: ``s|a|r|s_next|terminal`` after a header line.

    The header is ``env_id|behavior_id|seed|count|state_dim|action_dim``.
    Reals are written with repr so the round trip is bit-exact.
    """
    lines = ["|".join([dataset.env_id, dataset.behavior_id, str(dataset.seed),
                       str(len(dataset)), str(dataset.s.shape[1]), str(dataset.a.shape[1])])]
    for s, a, r, s_next, terminal in zip(dataset.s, dataset.a, dataset.r.tolist(),
                                         dataset.s_next, dataset.terminal.tolist()):
        lines.append("|".join([_fmt_vec(s), _fmt_vec(a), repr(r), _fmt_vec(s_next),
                               "1" if terminal else "0"]))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_reals(field: str, width: int, what: str, lineno: int) -> list[float]:
    parts = field.split(",")
    if len(parts) != width:
        raise ContractError(f"dataset line {lineno}: {what} has {len(parts)} values, "
                            f"expected {width}")
    try:
        values = [float(x) for x in parts]
    except ValueError:
        raise ContractError(f"dataset line {lineno}: {what} {field!r} is not numeric") from None
    if not all(map(math.isfinite, values)):
        raise ContractError(f"dataset line {lineno}: {what} {field!r} is not finite")
    return values


def load_dataset(path: str | Path) -> Dataset:
    """Read a :func:`save_dataset` file; malformed input raises ContractError."""
    text = Path(path).read_text().strip().split("\n")
    header = text[0].split("|")
    if len(header) != 6:
        raise ContractError(f"malformed dataset header: {text[0]!r}")
    env_id, behavior_id = header[:2]
    try:
        seed, count, sdim, adim = (int(x) for x in header[2:])
    except ValueError:
        raise ContractError(f"malformed dataset header: {text[0]!r}") from None
    if sdim < 1 or adim < 1:
        raise ContractError(f"dataset header dims must be >= 1: {text[0]!r}")
    columns: tuple[list, ...] = ([], [], [], [], [])
    for lineno, line in enumerate(text[1:], start=2):
        fields = line.split("|")
        if len(fields) != 5:
            raise ContractError(f"dataset line {lineno} has {len(fields)} fields, expected 5")
        s, a, r, s_next, terminal = fields
        if terminal not in ("0", "1"):
            raise ContractError(f"dataset line {lineno}: terminal flag {terminal!r} "
                                "is not 0 or 1")
        row = (_parse_reals(s, sdim, "s", lineno), _parse_reals(a, adim, "a", lineno),
               _parse_reals(r, 1, "r", lineno)[0], _parse_reals(s_next, sdim, "s_next", lineno),
               terminal == "1")
        for col, value in zip(columns, row):
            col.append(value)
    if len(columns[2]) != count:
        raise ContractError(f"dataset header count {count} != {len(columns[2])} lines")
    return Dataset(*columns, env_id, behavior_id, seed)
