"""The four shipped toy environments.

* StochasticChain: deterministic line walk, stochastic terminal reward.
* BranchingTree: random binary descent with signed edge rewards (bimodal returns).
* WindyGrid: 5x5 grid with slip, continuous 2-d actions thresholded to moves.
* ContinuousBandit1D: one-step bandit with a bimodal reward curve plus noise.
"""

from __future__ import annotations

import math

import numpy as np

from flowrl.envs.base import ToyMdp, check_reward
from flowrl.errors import ConfigError, ContractError


def _one_hot(i: int, n: int) -> np.ndarray:
    v = np.zeros(n)
    v[i] = 1.0
    return v


class StochasticChain(ToyMdp):
    """Walk right along a chain; the final hop pays a random terminal reward.

    Actions (1-d, embedded as {-1, +1}): +1 moves forward for ``step_reward``,
    -1 stays in place for 0. Entering the absorbing end state pays +1 with
    probability ``p_win`` and -1 otherwise.
    """

    def __init__(self, length: int = 4, step_reward: float = 0.1, p_win: float = 0.7,
                 gamma: float = 0.9):
        if length < 1:
            raise ConfigError("chain length must be >= 1")
        self.length = length
        self.step_reward = step_reward
        self.p_win = p_win
        self.gamma = gamma
        self.env_id = f"stochastic-chain-{length}"
        self.state_dim = length + 1  # positions 0..length-1 plus absorbing slot
        self.action_dim = 1
        self.r_min, self.r_max = -1.0, 1.0
        self.episode_cap = 8 * length

    def initial_state(self, rng):
        return _one_hot(0, self.state_dim)

    def action_atoms(self):
        return [np.array([-1.0]), np.array([1.0])]

    def _pos(self, s) -> int:
        return int(np.asarray(s).argmax())

    def is_terminal(self, s):
        return self._pos(s) == self.length

    def outcomes(self, s, a):
        pos = self._pos(s)
        if a[0] < 0.0:  # stay
            return [(1.0, _one_hot(pos, self.state_dim), 0.0, False)]
        if pos == self.length - 1:
            end = _one_hot(self.length, self.state_dim)
            return [(self.p_win, end, 1.0, True), (1.0 - self.p_win, end, -1.0, True)]
        return [(1.0, _one_hot(pos + 1, self.state_dim), self.step_reward, False)]


class BranchingTree(ToyMdp):
    """Descend a binary tree of depth D; edges carry signed rewards.

    The first edge pays +/-1 and deeper edges +/-``twig_reward``, so returns
    from the root form two well-separated clusters. Actions (1-d, {-1, +1})
    shift the left-branch probability by ``action_bias``. Leaves absorb.
    """

    def __init__(self, depth: int = 3, twig_reward: float = 0.15,
                 action_bias: float = 0.05, gamma: float = 0.5):
        if depth < 1:
            raise ConfigError("tree depth must be >= 1")
        self.depth = depth
        self.twig_reward = twig_reward
        self.action_bias = action_bias
        self.gamma = gamma
        self.env_id = f"branching-tree-{depth}"
        self.n_nodes = 2 ** (depth + 1) - 1  # heap layout: children of i are 2i+1, 2i+2
        self.state_dim = self.n_nodes
        self.action_dim = 1
        self.r_min, self.r_max = -1.0, 1.0
        self.episode_cap = depth + 1

    def initial_state(self, rng):
        return _one_hot(0, self.state_dim)

    def action_atoms(self):
        return [np.array([-1.0]), np.array([1.0])]

    def _node(self, s) -> int:
        return int(np.asarray(s).argmax())

    def _level(self, node: int) -> int:
        return int(np.floor(np.log2(node + 1)))

    def is_terminal(self, s):
        return self._level(self._node(s)) >= self.depth

    def _edge_reward(self, level: int, left: bool) -> float:
        magnitude = 1.0 if level == 0 else self.twig_reward
        return magnitude if left else -magnitude

    def outcomes(self, s, a):
        node = self._node(s)
        level = self._level(node)
        p_left = float(min(max(0.5 + self.action_bias * a[0], 0.0), 1.0))
        terminal = level + 1 >= self.depth
        out = []
        for left, prob in ((True, p_left), (False, 1.0 - p_left)):
            if prob <= 0.0:
                continue
            child = 2 * node + (1 if left else 2)
            out.append((prob, _one_hot(child, self.state_dim),
                        self._edge_reward(level, left), terminal))
        return out


def coin_flip_env(gamma: float = 0.9) -> BranchingTree:
    """One-step env paying +/-1 with probability 1/2 each, any action."""
    env = BranchingTree(depth=1, action_bias=0.0, gamma=gamma)
    env.env_id = "coin-flip"
    return env


class WindyGrid(ToyMdp):
    """5x5 grid world with slip; reach the far corner for +1.

    The continuous 2-d action is thresholded to a compass move along its
    dominant axis. With probability ``slip`` the move veers to one of the two
    perpendicular directions (half each). Each move costs 0.05; entering the
    goal pays +1 and ends the episode.
    """

    MOVES = {"right": (0, 1), "left": (0, -1), "up": (1, 0), "down": (-1, 0)}
    PERP = {"right": ("up", "down"), "left": ("up", "down"),
            "up": ("left", "right"), "down": ("left", "right")}

    def __init__(self, size: int = 5, slip: float = 0.2, gamma: float = 0.9):
        if size < 2:
            raise ConfigError("grid size must be >= 2")
        self.size = size
        self.slip = slip
        self.gamma = gamma
        self.env_id = f"windy-grid-{size}"
        self.state_dim = size * size
        self.action_dim = 2
        self.goal = (size - 1, size - 1)
        self.r_min, self.r_max = -0.05, 1.0
        self.episode_cap = 40

    def initial_state(self, rng):
        return _one_hot(0, self.state_dim)

    def action_atoms(self):
        return [np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                np.array([0.0, 1.0]), np.array([0.0, -1.0])]

    def _cell(self, s) -> tuple[int, int]:
        idx = int(np.asarray(s).argmax())
        return divmod(idx, self.size)

    def _encode(self, row: int, col: int) -> np.ndarray:
        return _one_hot(row * self.size + col, self.state_dim)

    def is_terminal(self, s):
        return self._cell(s) == self.goal

    @staticmethod
    def threshold_action(a: np.ndarray) -> str:
        ax, ay = float(a[0]), float(a[1])
        if abs(ax) >= abs(ay):
            return "right" if ax > 0 else "left"
        return "up" if ay > 0 else "down"

    def _apply_move(self, row: int, col: int, move: str) -> tuple[int, int]:
        dr, dc = self.MOVES[move]
        return min(max(row + dr, 0), self.size - 1), min(max(col + dc, 0), self.size - 1)

    def outcomes(self, s, a):
        row, col = self._cell(s)
        intended = self.threshold_action(a)
        branches = [(intended, 1.0 - self.slip)]
        branches += [(m, self.slip / 2.0) for m in self.PERP[intended]]
        out = []
        for move, prob in branches:
            nr, nc = self._apply_move(row, col, move)
            reached_goal = (nr, nc) == self.goal
            r = 1.0 if reached_goal else -0.05
            out.append((prob, self._encode(nr, nc), r, reached_goal))
        return out


class ContinuousBandit1D(ToyMdp):
    """One-step bandit: reward is a bimodal curve of the action plus noise.

    The curve has a small bump near a = -0.5 and the global optimum near
    a = +0.5; rewards are clipped to the declared bounds. Episodes last one
    step. Exercises continuous-action policy extraction.
    """

    def __init__(self, noise_sigma: float = 0.15, gamma: float = 0.9):
        self.noise_sigma = noise_sigma
        self.gamma = gamma
        self.env_id = "continuous-bandit-1d"
        self.state_dim = 1
        self.action_dim = 1
        self.r_min, self.r_max = -0.2, 1.4
        self.episode_cap = 1

    def initial_state(self, rng):
        return np.array([0.0])

    def is_terminal(self, s):
        return s[0] != 0.0

    def reward_curve(self, a: np.ndarray | float) -> np.ndarray | float:
        """The mean reward at ``a``: an array for an array, a numpy scalar for a scalar.

        A scalar is worked on as a numpy scalar from the start, not as a 0-d
        array, whose operations cost several times more and return numpy
        scalars anyway. The operations are unchanged: ``** 2`` on a scalar
        is ``pow``, which differs in the last bit from ``x * x`` (the square
        it is on an array) for a few inputs in ten thousand.
        """
        a = np.asarray(a, dtype=np.float64)
        if a.ndim == 0:
            a = a[()]
        return (0.4 * np.exp(-(((a + 0.5) / 0.25) ** 2))
                + 1.0 * np.exp(-(((a - 0.5) / 0.2) ** 2)))

    def mean_reward(self, a: np.ndarray | float) -> float:
        """Exact expectation of the clipped noisy reward at action ``a``."""
        mu = float(np.asarray(self.reward_curve(a)).reshape(()))
        sig = self.noise_sigma
        lo, hi = self.r_min, self.r_max
        alpha, beta = (lo - mu) / sig, (hi - mu) / sig
        return (lo * _normal_cdf(alpha) + hi * _normal_cdf(-beta)
                + mu * (_normal_cdf(beta) - _normal_cdf(alpha))
                - sig * (_normal_pdf(beta) - _normal_pdf(alpha)))

    def _step_inner(self, s, a, rng):
        raw = float(self.reward_curve(a[0])) + rng.normal(0.0, self.noise_sigma)
        r = min(max(raw, self.r_min), self.r_max)
        return np.array([1.0]), r, True

    def step_many(self, states, actions, rng):
        """``step`` on every row at once, with every check it makes.

        The actions must be a finite (k, 1) array in the [-1, 1] box (within
        1e-9), else ContractError, as ``validate_action`` raises. Terminal rows
        loop back to themselves with reward 0 and draw nothing; the live rows
        draw their reward noises in one ``rng.normal(0, sigma, k_live)`` call,
        and their clipped rewards are checked as ``check_reward`` checks them.
        """
        states = np.asarray(states, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.float64)
        if states.ndim != 2 or actions.shape != (len(states), self.action_dim):
            raise ContractError(f"actions of shape {actions.shape} for states of shape "
                                f"{states.shape}; expected (k, {self.action_dim}) for k states")
        if not (np.abs(actions) <= 1.0 + 1e-9).all():   # NaN fails the comparison
            raise ContractError("an action is not finite or lies outside the [-1, 1] box")
        live = states[:, 0] == 0.0   # not is_terminal
        s_next, r = states.copy(), np.zeros(len(states))
        if live.any():
            raw = (self.reward_curve(actions[live, 0])
                   + rng.normal(0.0, self.noise_sigma, int(live.sum())))
            drawn = np.minimum(np.maximum(raw, self.r_min), self.r_max)
            check_reward(self, drawn.min())   # the extremes of every reward
            check_reward(self, drawn.max())
            s_next[live], r[live] = 1.0, drawn
        return s_next, r, np.ones(len(states), dtype=bool)


def _normal_cdf(x: float) -> float:
    """Phi(x) through erfc, accurate in both tails (Phi(-x) is the survival function)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


ENV_REGISTRY = {
    "stochastic-chain": StochasticChain,
    "branching-tree": BranchingTree,
    "windy-grid": WindyGrid,
    "continuous-bandit-1d": ContinuousBandit1D,
    "coin-flip": coin_flip_env,
}

# The constructor argument an id's size suffix sets, e.g. "windy-grid-7" -> size=7.
_SIZE_ARGS = {"stochastic-chain": "length", "branching-tree": "depth", "windy-grid": "size"}


def make_env(env_id: str, **kwargs) -> ToyMdp:
    """Build an env from its id: a bare registry key, or a key plus ``-<size>``.

    The size suffix becomes the constructor's size argument, so
    ``make_env(env.env_id)`` rebuilds an env of the same size. An id that is
    not a string raises ConfigError.
    """
    if not isinstance(env_id, str):
        raise ConfigError(f"env id must be a string, got {env_id!r:.80}")
    if env_id in ENV_REGISTRY:
        return ENV_REGISTRY[env_id](**kwargs)
    family, _, suffix = env_id.rpartition("-")
    size_arg = _SIZE_ARGS.get(family)
    if size_arg is None or not suffix.isdigit() or str(int(suffix)) != suffix:
        raise ConfigError(f"unknown env id {env_id!r}; known: {sorted(ENV_REGISTRY)}, "
                          f"or one of {sorted(_SIZE_ARGS)} followed by -<size>")
    if size_arg in kwargs:
        raise ConfigError(f"env id {env_id!r} already sets {size_arg}")
    return ENV_REGISTRY[family](**{size_arg: int(suffix)}, **kwargs)
