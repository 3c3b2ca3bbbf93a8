"""Toy MDP interface, transitions, behavior policies, and dataset plumbing.

States are encoded as float vectors (discrete states one-hot); actions live in
the box [-1, 1]^d, with discrete action sets embedded as points of that box so
every network sees continuous inputs. Terminal states absorb: stepping from
one returns (same state, reward 0, terminal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from flowrl.errors import ConfigError, ContractError


@dataclass(frozen=True)
class Transition:
    s: np.ndarray
    a: np.ndarray
    r: float
    s_next: np.ndarray
    terminal: bool


@dataclass
class Dataset:
    """Ordered transitions plus provenance (env, behavior policy, seed)."""

    transitions: list[Transition]
    env_id: str
    behavior_id: str
    seed: int

    def __len__(self) -> int:
        return len(self.transitions)

    def arrays(self) -> dict[str, np.ndarray]:
        """Column-major view used by training code."""
        if not self.transitions:
            raise ContractError("dataset is empty")
        return {
            "s": np.stack([t.s for t in self.transitions]),
            "a": np.stack([t.a for t in self.transitions]),
            "r": np.array([t.r for t in self.transitions]),
            "s_next": np.stack([t.s_next for t in self.transitions]),
            "terminal": np.array([t.terminal for t in self.transitions], dtype=bool),
        }


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
    call. The table assumes an env's dynamics do not change after first use.
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
    if not mdp.r_min - 1e-9 <= r <= mdp.r_max + 1e-9:
        raise ConfigError(f"{mdp.env_id} emitted reward {r} outside "
                          f"[{mdp.r_min}, {mdp.r_max}]")
    return s_next, float(r), bool(terminal)


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
    with terminal=False on truncation."""
    if n_transitions < 1:
        raise ContractError("n_transitions must be >= 1")
    rng = np.random.default_rng(seed)
    transitions: list[Transition] = []
    while len(transitions) < n_transitions:
        s = mdp.initial_state(rng)
        for _ in range(mdp.episode_cap):
            a = behavior(s, rng)
            s_next, r, terminal = step(mdp, s, a, rng)
            transitions.append(Transition(s.copy(), np.asarray(a, dtype=np.float64),
                                          r, s_next.copy(), terminal))
            if terminal or len(transitions) >= n_transitions:
                break
            s = s_next
    behavior_id = getattr(behavior, "behavior_id", "custom")
    return Dataset(transitions[:n_transitions], mdp.env_id, behavior_id, seed)


def _fmt_vec(v: np.ndarray) -> str:
    return ",".join(repr(float(x)) for x in v)


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """One transition per line: ``s|a|r|s_next|terminal`` after a header line.

    Reals are written with repr so the round trip is bit-exact.
    """
    arrays = dataset.arrays()
    lines = ["|".join([dataset.env_id, dataset.behavior_id, str(dataset.seed),
                       str(len(dataset)), str(arrays["s"].shape[1]),
                       str(arrays["a"].shape[1])])]
    for t in dataset.transitions:
        lines.append("|".join([_fmt_vec(t.s), _fmt_vec(t.a), repr(float(t.r)),
                               _fmt_vec(t.s_next), "1" if t.terminal else "0"]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_dataset(path: str | Path) -> Dataset:
    text = Path(path).read_text().strip().split("\n")
    header = text[0].split("|")
    if len(header) != 6:
        raise ContractError(f"malformed dataset header: {text[0]!r}")
    env_id, behavior_id, seed, count, sdim, adim = header
    transitions = []
    for line in text[1:]:
        s, a, r, s_next, terminal = line.split("|")
        transitions.append(Transition(
            np.array([float(x) for x in s.split(",")]),
            np.array([float(x) for x in a.split(",")]),
            float(r),
            np.array([float(x) for x in s_next.split(",")]),
            terminal == "1",
        ))
    if len(transitions) != int(count):
        raise ContractError(f"dataset header count {count} != {len(transitions)} lines")
    ds = Dataset(transitions, env_id, behavior_id, int(seed))
    arr = ds.arrays()
    if arr["s"].shape[1] != int(sdim) or arr["a"].shape[1] != int(adim):
        raise ContractError("dataset dims do not match header")
    return ds
