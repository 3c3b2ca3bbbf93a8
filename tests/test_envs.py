"""Tests for the toy envs, datasets, and exact return-distribution oracles."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowrl.envs import (
    BranchingTree,
    ContinuousBandit1D,
    Dataset,
    StochasticChain,
    ToyMdp,
    UniformBoxPolicy,
    UniformDiscretePolicy,
    WindyGrid,
    behavior_policy_for,
    bellman_histogram_operator,
    coin_flip_env,
    enumerate_return_distribution,
    generate_dataset,
    load_dataset,
    monte_carlo_returns,
    make_env,
    reachable_state_actions,
    save_dataset,
    step,
    table_key,
    uniform_table,
)
import flowrl.envs.base as envs_base
import flowrl.envs.oracle as envs_oracle
import flowrl.metrics as metrics_module
from flowrl.envs.base import branch_table
from flowrl.errors import ConfigError, ContractError, OracleError
from flowrl.metrics import (
    ReturnHistogram,
    evaluate_policy,
    histogram_edges,
    histogram_from_atoms,
    wasserstein1_discrete,
    wasserstein1_histograms,
)
from flowrl.serialize import save_arrays
from scipy.stats import norm

from helpers import bellman_by_pairs, digest, enumerate_by_paths, sample_from_outcomes


class UnitRewardLoop(ToyMdp):
    """Single nonterminal state paying reward 1 forever (test-only env)."""

    env_id = "unit-reward-loop"
    state_dim = 1
    action_dim = 1
    gamma = 0.9
    r_min, r_max = 0.0, 1.0

    def initial_state(self, rng):
        return np.array([1.0])

    def action_atoms(self):
        return [np.array([1.0])]

    def is_terminal(self, s):
        return False

    def outcomes(self, s, a):
        return [(1.0, np.array([1.0]), 1.0, False)]

    def _step_inner(self, s, a, rng):
        return np.array([1.0]), 1.0, False


class SkewedPolicy:
    """State-dependent, non-uniform weights over the action atoms (test-only)."""

    def __init__(self, env):
        self.atoms = env.action_atoms()

    def support(self, s):
        w = np.arange(1.0, len(self.atoms) + 1.0) + np.argmax(s)
        return [(p, a) for p, a in zip(w / w.sum(), self.atoms)]


class RandomStartChain(StochasticChain):
    """A chain starting at position 0 or 1 by one ``rng.random()`` draw (test-only env)."""

    def initial_state(self, rng):
        s = np.zeros(self.state_dim)
        s[int(rng.random() < 0.5)] = 1.0
        return s


FINITE_ENVS = [StochasticChain, BranchingTree, WindyGrid]
REFEREE_ENVS = [StochasticChain(), BranchingTree(), WindyGrid(), UnitRewardLoop()]


class TestStep:
    def test_chain_forward_moves(self):
        env = StochasticChain()
        rng = np.random.default_rng(0)
        s = env.initial_state(rng)
        s_next, r, terminal = step(env, s, np.array([1.0]), rng)
        assert np.argmax(s_next) == 1
        assert r == pytest.approx(env.step_reward)
        assert not terminal

    def test_absorbing_terminal_self_loops(self):
        env = coin_flip_env()
        rng = np.random.default_rng(0)
        s = env.initial_state(rng)
        s_term, _, terminal = step(env, s, np.array([1.0]), rng)
        assert terminal
        s_again, r, terminal2 = step(env, s_term, np.array([1.0]), rng)
        assert terminal2 and r == 0.0
        assert np.array_equal(s_again, s_term)

    def test_action_outside_box_rejected(self):
        env = StochasticChain()
        with pytest.raises(ContractError):
            step(env, env.initial_state(np.random.default_rng(0)), np.array([2.0]),
                 np.random.default_rng(0))

    @pytest.mark.parametrize("make", [StochasticChain, BranchingTree, WindyGrid,
                                      ContinuousBandit1D])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_action_rejected(self, make, bad):
        env = make()
        a = np.zeros(env.action_dim)
        a[-1] = bad
        rng = np.random.default_rng(0)
        with pytest.raises(ContractError):
            step(env, env.initial_state(rng), a, rng)

    def test_scalar_clamps_match_np_clip_at_and_past_every_bound(self):
        grid = WindyGrid()
        top = grid.size - 1
        for row in range(grid.size):
            for col in range(grid.size):
                for move, (dr, dc) in grid.MOVES.items():
                    want = (int(np.clip(row + dr, 0, top)), int(np.clip(col + dc, 0, top)))
                    got = grid._apply_move(row, col, move)
                    assert got == want and all(type(v) is int for v in got)

        tree = BranchingTree(action_bias=0.7)   # 0.5 + 0.7 a spans [-0.2, 1.2] over the box
        s = tree.initial_state(np.random.default_rng(0))
        for a in np.linspace(-1.0, 1.0, 81):
            p_left = float(np.clip(0.5 + 0.7 * a, 0.0, 1.0))
            want = [p for p in (p_left, 1.0 - p_left) if p > 0.0]
            assert [prob for prob, *_ in tree.outcomes(s, np.array([a]))] == want

        bandit = ContinuousBandit1D(noise_sigma=3.0)
        s = bandit.initial_state(np.random.default_rng(0))
        rng, replay = np.random.default_rng(5), np.random.default_rng(5)
        raws, rewards = [], []
        for a in np.linspace(-1.0, 1.0, 41):
            raws.append(float(bandit.reward_curve(a)) + replay.normal(0.0, bandit.noise_sigma))
            rewards.append(step(bandit, s, np.array([a]), rng)[1])
        assert min(raws) < bandit.r_min and max(raws) > bandit.r_max
        assert rewards == [float(np.clip(r, bandit.r_min, bandit.r_max)) for r in raws]

    def test_branch_frequency_three_sigma(self):
        # action bias 0.2 with a = -1 makes the left branch probability 0.3
        env = BranchingTree(depth=2, action_bias=0.2)
        rng = np.random.default_rng(42)
        s = env.initial_state(rng)
        n = 100_000
        lefts = 0
        for _ in range(n):
            s_next, _, _ = step(env, s, np.array([-1.0]), rng)
            lefts += int(np.argmax(s_next) == 1)
        p_hat = lefts / n
        sigma = np.sqrt(0.3 * 0.7 / n)
        assert abs(p_hat - 0.3) < 3 * sigma


class TestEnumerate:
    def test_unit_reward_loop_single_atom_at_ten(self):
        env = UnitRewardLoop()
        policy = behavior_policy_for(env)
        atoms = enumerate_return_distribution(env, policy, env.initial_state(None),
                                              np.array([1.0]), horizon=200, mass_tol=1.0)
        assert atoms.values.size == 1
        assert atoms.values[0] == pytest.approx(10.0, abs=1e-6)
        assert atoms.truncated_mass == pytest.approx(1.0)

    def test_coin_env_two_atoms(self):
        env = coin_flip_env()
        policy = behavior_policy_for(env)
        atoms = enumerate_return_distribution(env, policy, env.initial_state(None),
                                              np.array([1.0]), horizon=3)
        np.testing.assert_allclose(atoms.values, [-1.0, 1.0])
        np.testing.assert_allclose(atoms.masses, [0.5, 0.5])
        assert atoms.truncated_mass == 0.0

    def test_depth3_tree_eight_atoms_match_monte_carlo(self):
        env = BranchingTree()
        policy = behavior_policy_for(env)
        s, a = env.initial_state(None), np.array([1.0])
        atoms = enumerate_return_distribution(env, policy, s, a, horizon=3)
        assert atoms.values.size == 8
        samples = monte_carlo_returns(env, policy, s, a, n=100_000, horizon=3, seed=5)
        w1 = wasserstein1_discrete(atoms.values, atoms.masses,
                                   samples, np.full(samples.size, 1.0 / samples.size))
        assert w1 < 0.01

    def test_mass_tol_guard(self):
        env = UnitRewardLoop()
        policy = behavior_policy_for(env)
        with pytest.raises(OracleError):
            enumerate_return_distribution(env, policy, env.initial_state(None),
                                          np.array([1.0]), horizon=10, mass_tol=1e-6)


    @pytest.mark.parametrize("horizon,mass_tol", [
        (2.5, 1e-6), (True, 1e-6), (0, 1e-6), (2, np.nan), (2, -1e-3), (2, np.inf)])
    def test_bad_horizon_or_mass_tol_is_a_contract_error(self, horizon, mass_tol):
        # at horizon 2 every branching-tree path is cut, so a NaN mass_tol would hide it
        env = BranchingTree()
        with pytest.raises(ContractError):
            enumerate_return_distribution(env, behavior_policy_for(env), env.initial_state(None),
                                          np.array([1.0]), horizon, mass_tol=mass_tol)

class TestMonteCarlo:
    def test_deterministic_env_constant_samples(self):
        env = UnitRewardLoop()
        policy = behavior_policy_for(env)
        samples = monte_carlo_returns(env, policy, env.initial_state(None),
                                      np.array([1.0]), n=16, horizon=30, seed=0)
        assert np.allclose(samples, samples[0])

    def test_coin_env_clt_bound(self):
        env = coin_flip_env()
        policy = behavior_policy_for(env)
        n = 40_000
        samples = monte_carlo_returns(env, policy, env.initial_state(None),
                                      np.array([1.0]), n=n, horizon=2, seed=3)
        assert abs(samples.mean()) < 4.0 / np.sqrt(n)


@pytest.mark.parametrize("env,horizon,mass_tol", [
    (StochasticChain(), 16, 0.05),
    (BranchingTree(), 3, 1e-9),
    (WindyGrid(), 5, 1.0),
])
def test_oracle_vs_monte_carlo_every_finite_env(env, horizon, mass_tol):
    policy = behavior_policy_for(env)
    s = env.initial_state(np.random.default_rng(0))
    a = env.action_atoms()[0]
    atoms = enumerate_return_distribution(env, policy, s, a, horizon, mass_tol=mass_tol)
    n = 100_000
    samples = monte_carlo_returns(env, policy, s, a, n=n, horizon=horizon, seed=11)
    w1 = wasserstein1_discrete(atoms.values, atoms.masses,
                               samples, np.full(n, 1.0 / n))
    z_lo, z_hi = env.z_bounds
    assert w1 < 0.02 * (z_hi - z_lo)


@pytest.mark.slow
def test_bandit_matches_clipped_normal_law():
    env = ContinuousBandit1D()
    policy = behavior_policy_for(env)
    s, a = env.initial_state(np.random.default_rng(0)), np.array([0.5])
    n = 100_000
    samples = monte_carlo_returns(env, policy, s, a, n=n, horizon=1, seed=7)
    mu = float(env.reward_curve(0.5))
    u = (np.arange(n) + 0.5) / n
    exact_q = np.clip(mu + env.noise_sigma * norm.ppf(u), env.r_min, env.r_max)
    w1 = np.abs(np.sort(samples) - exact_q).mean()
    z_lo, z_hi = env.z_bounds
    assert w1 < 0.02 * (z_hi - z_lo)


@pytest.mark.parametrize("noise_sigma", [0.15, 0.02, 3.0])
def test_bandit_mean_reward_matches_the_clipped_normal_formula(noise_sigma):
    env = ContinuousBandit1D(noise_sigma=noise_sigma)
    lo, hi = env.r_min, env.r_max
    for a in np.linspace(-1.0, 1.0, 41):
        mu = float(env.reward_curve(a))
        alpha, beta = (lo - mu) / noise_sigma, (hi - mu) / noise_sigma
        want = (lo * norm.cdf(alpha) + hi * norm.sf(beta)
                + mu * (norm.cdf(beta) - norm.cdf(alpha))
                - noise_sigma * (norm.pdf(beta) - norm.pdf(alpha)))
        got = env.mean_reward(a)
        assert type(got) is float and abs(got - want) <= 1e-12


def test_importing_every_flowrl_module_loads_no_scipy():
    import flowrl
    src = Path(flowrl.__file__).resolve().parent.parent
    code = ("import pkgutil, importlib, sys, flowrl\n"
            "names = [m.name for m in pkgutil.walk_packages(flowrl.__path__, 'flowrl.')]\n"
            "for name in names: importlib.import_module(name)\n"
            "print(len(names), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout.split(maxsplit=1)
    assert int(out[0]) >= 12 and out[1].strip() == "[]"


class TestDatasets:
    def test_single_transition(self):
        env = StochasticChain()
        ds = generate_dataset(env, behavior_policy_for(env), 1, seed=0)
        assert len(ds) == 1
        assert ds.s.shape == ds.s_next.shape == (1, env.state_dim)
        assert ds.a.shape == (1, env.action_dim) and ds.r.shape == ds.terminal.shape == (1,)

    def test_same_seed_identical(self):
        env = BranchingTree()
        pol = behavior_policy_for(env)
        a = generate_dataset(env, pol, 200, seed=9).arrays()
        b = generate_dataset(env, pol, 200, seed=9).arrays()
        for key in a:
            assert a[key].dtype == b[key].dtype and a[key].tobytes() == b[key].tobytes()

    def test_uniform_action_frequencies(self):
        env = StochasticChain()
        ds = generate_dataset(env, behavior_policy_for(env), 20_000, seed=1)
        arr = ds.arrays()
        p_hat = (arr["a"][:, 0] > 0).mean()
        sigma = np.sqrt(0.25 / len(ds))
        assert abs(p_hat - 0.5) < 3 * sigma

    def test_round_trip_bit_exact(self, tmp_path):
        env = WindyGrid()
        ds = generate_dataset(env, behavior_policy_for(env), 150, seed=4)
        path = tmp_path / "data.json"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert (back.env_id, back.behavior_id, back.seed) == (ds.env_id, ds.behavior_id, ds.seed)
        a, b = ds.arrays(), back.arrays()
        for key in a:
            assert a[key].dtype == b[key].dtype and a[key].shape == b[key].shape
            assert a[key].tobytes() == b[key].tobytes()

    def test_make_env_registry(self):
        assert make_env("branching-tree").env_id == "branching-tree-3"
        for env_id in ("no-such-env", 5, None, b"windy-grid-5"):
            with pytest.raises(ConfigError):
                make_env(env_id)

    def test_stepwise_rows_hold_copies_of_the_actions_taken(self):
        env = ContinuousBandit1D()
        buffer = np.zeros(1)

        def fresh(s, rng):
            return np.array([rng.uniform(-1.0, 1.0)])

        def reused(s, rng):   # one action buffer, overwritten on every call
            buffer[0] = rng.uniform(-1.0, 1.0)
            return buffer

        def row_shaped(s, rng):   # (1, action_dim), which ``step`` accepts
            return fresh(s, rng)[None]

        want = generate_dataset(env, fresh, 5, seed=0)
        assert len(np.unique(want.a)) == 5
        for behavior in (reused, row_shaped):
            got = generate_dataset(env, behavior, 5, seed=0)
            assert got.a.shape == (5, 1) and got.a.tobytes() == want.a.tobytes()

    def test_arrays_are_the_read_only_columns(self):
        env = WindyGrid()
        ds = generate_dataset(env, behavior_policy_for(env), 300, seed=2)
        arr = ds.arrays()
        assert list(arr) == ["s", "a", "r", "s_next", "terminal"]
        for key, col in arr.items():
            assert col is getattr(ds, key) and not col.flags.writeable
        assert arr["terminal"].dtype == bool and arr["r"].dtype == np.float64
        with pytest.raises(ValueError):
            arr["r"][0] = 1.0

    def test_constructor_copies_and_checks_columns(self):
        s = np.zeros((2, 3))
        ds = Dataset(s, np.zeros((2, 1)), np.zeros(2), np.ones((2, 3)), [True, False], "e", "b", 0)
        s[0, 0] = 5.0
        assert ds.s[0, 0] == 0.0 and s.flags.writeable
        with pytest.raises(ContractError):   # rows disagree
            Dataset(s, np.zeros((3, 1)), np.zeros(2), s, [True, False], "e", "b", 0)
        with pytest.raises(ContractError):   # s_next width differs from s
            Dataset(s, np.zeros((2, 1)), np.zeros(2), np.zeros((2, 2)), [True, False], "e", "b", 0)
        with pytest.raises(ContractError):
            Dataset(np.zeros((0, 3)), np.zeros((0, 1)), np.zeros(0), np.zeros((0, 3)), [],
                    "e", "b", 0)

    @pytest.mark.parametrize("provenance", [(3, "b", 0), ("e", None, 0), ("e", "b", 1.5),
                                            ("e", "b", True), ("e", "b", -1), ("e", "b", "0")])
    def test_provenance_of_the_wrong_type_is_a_contract_error(self, provenance):
        columns = (np.zeros((2, 3)), np.zeros((2, 1)), np.zeros(2), np.ones((2, 3)), [1, 0])
        with pytest.raises(ContractError):
            Dataset(*columns, *provenance)

    def test_a_numpy_integer_seed_is_stored_as_an_int_and_round_trips(self, tmp_path):
        env = BranchingTree()
        made = generate_dataset(env, behavior_policy_for(env), 20, seed=np.int64(5))
        built = Dataset(*made.arrays().values(), "e", "b", np.uint8(5))
        for ds in (made, built):
            assert type(ds.seed) is int and ds.seed == 5
            save_dataset(ds, tmp_path / "data.json")
            back = load_dataset(tmp_path / "data.json")
            assert (back.env_id, back.behavior_id, back.seed) == (ds.env_id, ds.behavior_id, 5)

    @pytest.mark.parametrize("terminal", [[0.5, np.nan], [1.0, 2.0], [-1, 0]])
    def test_terminal_that_is_not_0_or_1_is_a_contract_error(self, terminal):
        columns = (np.zeros((2, 3)), np.zeros((2, 1)), np.zeros(2), np.ones((2, 3)))
        with pytest.raises(ContractError, match="terminal"):
            Dataset(*columns, terminal, "e", "b", 0)
        ds = Dataset(*columns, np.array([1.0, 0.0]), "e", "b", 0)
        assert ds.terminal.dtype == bool and ds.terminal.tolist() == [True, False]

    def test_episodes_are_contiguous_and_rows_are_branches(self):
        for env in (StochasticChain(), WindyGrid()):
            _assert_episodes_are_contiguous_branches(
                env, generate_dataset(env, behavior_policy_for(env), 2000, seed=6))

    def test_time_major_episodes_are_contiguous_and_rows_are_branches(self):
        for env in (StochasticChain(), WindyGrid()):
            sampler = support_sampler(behavior_policy_for(env))
            _assert_episodes_are_contiguous_branches(
                env, generate_dataset(env, sampler, 2000, seed=6))


def _assert_episodes_are_contiguous_branches(env, ds):
    """Rows run episode by episode: each row is a branch of outcomes(s, a), and the
    next row continues from s_next unless the episode ended or hit the cap."""
    start = env.initial_state(None)
    length = 0
    for i in range(len(ds)):
        s, a = ds.s[i], ds.a[i]
        if length == 0:
            assert np.array_equal(s, start)
        else:
            assert np.array_equal(s, ds.s_next[i - 1])
        assert any(np.array_equal(ds.s_next[i], s_next) and ds.r[i] == r
                   and ds.terminal[i] == terminal
                   for _, s_next, r, terminal in env.outcomes(s, a))
        length += 1
        if ds.terminal[i] or length == env.episode_cap:
            length = 0


class _Fixed:
    """A behaviour policy that takes one fixed action, on one state or on a batch."""

    def __init__(self, action):
        self.action = np.asarray(action, dtype=np.float64)

    def __call__(self, s, rng):
        raise AssertionError("a policy with act_many is not called once per row")

    def act_many(self, states, rng):
        return np.tile(self.action, (len(states), 1))


class TestTimeMajor:
    """Batched env steps and the time-major dataset path, refereed by ``step``."""

    @pytest.mark.parametrize("actions", [np.zeros((2, 2)), np.zeros((3, 1)), np.zeros(2),
                                         np.array([[0.1], [np.nan]]),
                                         np.array([[-np.inf], [0.0]]),
                                         np.array([[0.2], [1.0 + 1e-8]])],
                             ids=["width", "rows", "1d", "nan", "inf", "box"])
    def test_bandit_step_many_rejects_what_step_rejects(self, actions):
        env, states = ContinuousBandit1D(), np.zeros((2, 1))
        rng = np.random.default_rng(0)
        if actions.ndim == 2 and actions.shape[0] == 2:
            with pytest.raises(ContractError):
                for a in actions:
                    step(env, states[0], a, rng)
        with pytest.raises(ContractError):
            env.step_many(states, actions, rng)

    def test_bandit_step_many_accepts_the_box_edges_as_step_does(self):
        env = ContinuousBandit1D()
        edges = np.array([[-1.0 - 1e-9], [1.0 + 1e-9], [-1.0], [1.0]])
        s_next, r, terminal = env.step_many(np.zeros((4, 1)), edges,
                                            np.random.default_rng(0))
        assert (s_next == 1.0).all() and terminal.all() and np.isfinite(r).all()

    def test_bandit_step_many_terminal_rows_draw_nothing(self):
        env = ContinuousBandit1D()
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        states = np.array([[1.0], [-2.0]])
        s_next, r, terminal = env.step_many(states, np.array([[0.5], [-0.5]]), rng)
        assert rng.bit_generator.state == before
        assert s_next.tobytes() == states.tobytes() and (r == 0.0).all() and terminal.all()
        # mixed rows: one normal per live row, in row order
        states, actions = np.array([[0.0], [1.0], [0.0]]), np.array([[0.5], [0.9], [-0.5]])
        replay = np.random.default_rng(3)
        noise = replay.normal(0.0, env.noise_sigma, 2)
        s_next, r, terminal = env.step_many(states, actions, rng)
        want = np.clip(env.reward_curve(actions[[0, 2], 0]) + noise, env.r_min, env.r_max)
        assert r[[0, 2]].tobytes() == want.tobytes() and r[1] == 0.0
        assert s_next.tolist() == [[1.0], [1.0], [1.0]] and terminal.all()
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_bandit_step_many_rewards_lie_within_bounds(self):
        env = ContinuousBandit1D(noise_sigma=3.0)   # most raw rewards fall outside the bounds
        actions = np.linspace(-1.0, 1.0, 2001)[:, None]
        _, r, _ = env.step_many(np.zeros((len(actions), 1)), actions, np.random.default_rng(1))
        assert ((env.r_min <= r) & (r <= env.r_max)).all()
        assert (r == env.r_min).any() and (r == env.r_max).any()

    def test_a_reward_outside_the_bounds_is_refused_by_both_steps(self):
        class Broken(ContinuousBandit1D):
            def reward_curve(self, a):
                return np.full(np.shape(a), np.nan)

        env = Broken()
        with pytest.raises(ConfigError):
            step(env, np.zeros(1), np.array([0.5]), np.random.default_rng(0))
        with pytest.raises(ConfigError):
            env.step_many(np.zeros((3, 1)), np.zeros((3, 1)), np.random.default_rng(0))

    @pytest.mark.parametrize("make", FINITE_ENVS + [UnitRewardLoop])
    def test_base_step_many_equals_per_row_step(self, make):
        env = make()
        states = branch_table(env).dense().states   # terminal states included
        pick = np.random.default_rng(4)
        states = states[pick.integers(len(states), size=300)]
        actions = pick.uniform(-1.0, 1.0, (300, env.action_dim))
        atoms = np.stack(env.action_atoms())
        actions[::2] = atoms[pick.integers(len(atoms), size=150)]
        rng, replay = np.random.default_rng(9), np.random.default_rng(9)
        s_next, r, terminal = env.step_many(states, actions, rng)
        rows = [step(env, s, a, replay) for s, a in zip(states, actions)]
        assert s_next.tobytes() == np.array([row[0] for row in rows]).tobytes()
        assert r.tobytes() == np.array([row[1] for row in rows]).tobytes()
        assert terminal.tolist() == [row[2] for row in rows]
        assert rng.bit_generator.state == replay.bit_generator.state
        with pytest.raises(ContractError):
            env.step_many(states, actions[:-1], rng)

    def test_bandit_dataset_follows_the_reward_law(self):
        env = ContinuousBandit1D()
        ds = generate_dataset(env, behavior_policy_for(env), 20_000, seed=23)
        assert (ds.s == 0.0).all() and (ds.s_next == 1.0).all() and ds.terminal.all()
        assert ds.a.min() >= -1.0 and ds.a.max() <= 1.0
        d = ds.r - np.array([env.mean_reward(a) for a in ds.a[:, 0]])
        assert abs(d.mean()) <= 5 * d.std() / np.sqrt(len(d))

    def test_bandit_dataset_makes_one_batched_call_each(self, monkeypatch):
        calls = {"act_many": [], "step_many": [], "step": []}
        act_many, step_many = UniformBoxPolicy.act_many, ContinuousBandit1D.step_many

        def counted_act(policy, states, rng):
            calls["act_many"].append(states.shape)
            return act_many(policy, states, rng)

        def counted_step_many(env, states, actions, rng):
            calls["step_many"].append(actions.shape)
            return step_many(env, states, actions, rng)

        monkeypatch.setattr(UniformBoxPolicy, "act_many", counted_act)
        monkeypatch.setattr(ContinuousBandit1D, "step_many", counted_step_many)
        monkeypatch.setattr(envs_base, "step", lambda *args: calls["step"].append(1))
        env = ContinuousBandit1D()
        ds = generate_dataset(env, behavior_policy_for(env), 4096, seed=7)
        assert len(ds) == 4096
        assert calls == {"act_many": [(4096, 1)], "step_many": [(4096, 1)], "step": []}

    def test_a_policy_with_act_many_acts_on_the_batch(self):
        env = ContinuousBandit1D()
        ds = generate_dataset(env, _Fixed([0.5]), 50, seed=0)
        assert ds.behavior_id == "custom" and (ds.a == 0.5).all()
        grid = WindyGrid()
        ds = generate_dataset(grid, _Fixed([1.0, 0.0]), 100, seed=0)
        assert len(ds) == 100 and (ds.a == [1.0, 0.0]).all()

    @pytest.mark.parametrize("env_id", ["continuous-bandit-1d", "windy-grid-5"])
    def test_a_wrong_action_is_a_contract_error_on_either_protocol(self, env_id):
        env = make_env(env_id)
        wide = np.zeros(env.action_dim + 1)
        for behavior in (lambda s, rng: wide, lambda s, rng: np.full(env.action_dim, 2.0),
                         _Fixed(wide), _Fixed(np.full(env.action_dim, np.nan))):
            with pytest.raises(ContractError):
                generate_dataset(env, behavior, 20, seed=0)


# the columns saved in the windy-grid-3 and continuous-bandit-1d dataset files of tests/data
GRID_COLUMNS = {
    "s": np.eye(9)[[0, 0, 3, 0]],
    "a": np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, -1.0]]),
    "r": np.full(4, -0.05),
    "s_next": np.eye(9)[[0, 3, 0, 0]],
    "terminal": np.zeros(4, dtype=bool),
}
BANDIT_COLUMNS = {
    "s": np.zeros((3, 1)),
    "a": np.frombuffer(bytes.fromhex("54ca945b7e83debfec7bda47461ce43fe0ba552530a0c93f"))
           .reshape(3, 1),
    "r": np.frombuffer(bytes.fromhex("f2f1e67f945cd43f6402ce5001eed23f54cdbe948bc2d13f")),
    "s_next": np.ones((3, 1)),
    "terminal": np.ones(3, dtype=bool),
}
DATA = Path(__file__).parent / "data"


class TestLoadDataset:
    @pytest.mark.parametrize("name,columns,provenance", [
        ("dataset_grid_v1.json", GRID_COLUMNS, ("windy-grid-3", "uniform-discrete", 1)),
        ("dataset_bandit_v1.json", BANDIT_COLUMNS, ("continuous-bandit-1d", "uniform-box", 2)),
    ], ids=["windy-grid-3", "bandit"])
    def test_file_loads_to_saved_columns_bit_for_bit(self, tmp_path, name, columns, provenance):
        ds = load_dataset(DATA / name)
        assert (ds.env_id, ds.behavior_id, ds.seed) == provenance
        for key, want in columns.items():
            got = ds.arrays()[key]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        save_dataset(ds, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == (DATA / name).read_text()

    @pytest.mark.parametrize("column,value", [
        ("s", np.where(np.eye(9)[[0, 0, 3, 0]] == 1.0, np.nan, 0.0)),
        ("r", np.array([-0.05, np.inf, -0.05, -0.05])),
        ("terminal", np.array([0.0, 0.5, 0.0, 0.0])),
        ("terminal", np.array([0.0, 7.0, 0.0, 0.0])),
        ("r", np.full(5, -0.05)),
        ("a", np.zeros(4)),
    ], ids=["nan-state", "inf-reward", "half-terminal", "terminal-7", "row-count", "action-dims"])
    def test_columns_that_break_the_dataset_contract_raise_contract_error(
            self, tmp_path, column, value):
        # a well-formed file: the file format carries any float64 arrays, the Dataset refuses
        path = tmp_path / "data.json"
        save_arrays(path, "flowrl-dataset-v1", "columns", {**GRID_COLUMNS, column: value},
                    env_id="windy-grid-3", behavior_id="uniform-discrete", seed=1)
        with pytest.raises(ContractError):
            load_dataset(path)


FIXED_POINT_DIGESTS = {   # 41 applications from uniform_table, 60 bins; recorded from the
    # dict tables that preceded the arrays, rows in reachable_state_actions order
    "branching-tree-3": "78c3c19c16e7b957",
    "stochastic-chain-4": "76d932ff5f0625a0",
    "windy-grid-5": "b183a2693f0c34ae",
}


class TestBellmanOperator:
    @staticmethod
    def random_table(env, rng):
        """A return table of random 60-bin histograms."""
        m = rng.random((len(reachable_state_actions(env)), 60)) ** 3
        return m / m.sum(axis=1, keepdims=True)

    @pytest.mark.parametrize("env", [BranchingTree(), StochasticChain()])
    def test_gamma_contraction(self, env):
        policy = behavior_policy_for(env)
        edges = histogram_edges(env.z_bounds, 60)
        width = edges[1] - edges[0]
        rng = np.random.default_rng(0)

        def w1_max(p, q):
            return max(wasserstein1_histograms(ReturnHistogram(edges, hp),
                                               ReturnHistogram(edges, hq)) for hp, hq in zip(p, q))

        for _ in range(20):
            p, q = self.random_table(env, rng), self.random_table(env, rng)
            tp = bellman_histogram_operator(env, policy, p, edges)
            tq = bellman_histogram_operator(env, policy, q, edges)
            assert w1_max(tp, tq) <= env.gamma * w1_max(p, q) + 2 * width

    @staticmethod
    def fixed_point(env, policy, edges):
        """Enough applications for the gamma-contraction to shrink z_bounds to one bin."""
        width = edges[1] - edges[0]
        z_lo, z_hi = env.z_bounds
        n_iters = int(np.ceil(np.log(width / (z_hi - z_lo)) / np.log(env.gamma))) + 2
        table = uniform_table(env, policy, edges)
        for _ in range(n_iters):
            table = bellman_histogram_operator(env, policy, table, edges)
        return table

    def test_fixed_point_matches_enumeration(self):
        env = BranchingTree()
        policy = behavior_policy_for(env)
        edges = histogram_edges(env.z_bounds, 60)
        width = edges[1] - edges[0]
        table = self.fixed_point(env, policy, edges)
        s = env.initial_state(np.random.default_rng(0))
        for a in env.action_atoms():
            atoms = enumerate_return_distribution(env, policy, s, a, horizon=3)
            oracle_hist = histogram_from_atoms(atoms.values, atoms.masses, edges)
            got = ReturnHistogram(edges, table[table_key(env, s, a)])
            assert wasserstein1_histograms(got, oracle_hist) < 3 * width

    def test_windy_grid_fixed_point_matches_long_enumeration(self):
        # At horizon 400 less than 2 % of the mass is still walking, so the
        # truncation check is on; the walk itself would need ~12^400 paths.
        env = WindyGrid()
        policy = behavior_policy_for(env)
        edges = histogram_edges(env.z_bounds, 60)
        width = edges[1] - edges[0]
        table = self.fixed_point(env, policy, edges)
        s, a = env.initial_state(None), env.action_atoms()[0]
        atoms = enumerate_return_distribution(env, policy, s, a, horizon=400, mass_tol=0.02)
        oracle_hist = histogram_from_atoms(atoms.values, atoms.masses, edges)
        got = ReturnHistogram(edges, table[table_key(env, s, a)])
        assert wasserstein1_histograms(got, oracle_hist) < 3 * width

    @pytest.mark.parametrize("make", FINITE_ENVS)
    @pytest.mark.parametrize("skewed", [False, True])
    def test_matrix_step_matches_per_pair_loop(self, make, skewed):
        env = make()
        policy = SkewedPolicy(env) if skewed else behavior_policy_for(env)
        edges = histogram_edges(env.z_bounds, 60)
        table = self.random_table(env, np.random.default_rng(1))
        for _ in range(3):
            got = bellman_histogram_operator(env, policy, table, edges)
            ref = bellman_by_pairs(env, policy, table, edges)
            assert got.shape == ref.shape == table.shape
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
            table = ref

    @staticmethod
    def backup_of(env, support):
        """One Bellman application under a policy whose support is ``support(s)``."""
        policy = type("Policy", (), {"support": staticmethod(support)})()
        edges = histogram_edges(env.z_bounds, 60)
        return bellman_histogram_operator(env, policy, uniform_table(env, policy, edges), edges)

    def test_support_off_the_atoms_is_a_contract_error(self):
        env = BranchingTree()
        with pytest.raises(ContractError, match="atoms"):
            self.backup_of(env, lambda s: [(1.0, np.array([0.3]))])

    def test_support_that_does_not_sum_to_one_is_a_contract_error(self):
        env = BranchingTree()
        uniform = behavior_policy_for(env)
        with pytest.raises(ContractError, match="summing to 1"):
            self.backup_of(env, lambda s: [(1.4 * p, a) for p, a in uniform.support(s)])

    @pytest.mark.parametrize("policy", [lambda s, rng: s, None, object()],
                             ids=["callable", "none", "object"])
    def test_policy_without_support_is_a_contract_error(self, policy):
        env = make_env("windy-grid-5")
        edges = histogram_edges(env.z_bounds, 60)
        with pytest.raises(ContractError, match="support lies on the action atoms"):
            bellman_histogram_operator(env, policy, uniform_table(env, policy, edges), edges)

    def test_reward_outside_the_bounds_is_a_config_error(self):
        # the operator reads the dense view, whose build checks every reward
        env = make_env("windy-grid-5")
        env.r_max = 0.5
        policy = behavior_policy_for(env)
        edges = histogram_edges(env.z_bounds, 60)
        with pytest.raises(ConfigError, match="emitted reward 1.0 outside"):
            bellman_histogram_operator(env, policy, uniform_table(env, policy, edges), edges)

    @pytest.mark.parametrize("make", FINITE_ENVS)
    def test_structure_is_read_once_per_branch_table(self, make, monkeypatch):
        env = make()
        policy = behavior_policy_for(env)
        edges = histogram_edges(env.z_bounds, 60)
        table = uniform_table(make(), policy, edges)   # rows from a second instance
        calls = {"outcomes": 0, "reachable": 0}
        outcomes, reachable = env.outcomes, envs_oracle._reachable_states

        def counted_outcomes(s, a):
            calls["outcomes"] += 1
            return outcomes(s, a)

        def counted_reachable(mdp):
            calls["reachable"] += 1
            return reachable(mdp)

        env.outcomes = counted_outcomes
        monkeypatch.setattr(envs_oracle, "_reachable_states", counted_reachable)
        seen = []
        for _ in range(3):
            table = bellman_histogram_operator(env, policy, table, edges)
            seen.append(dict(calls))
        assert seen[0]["outcomes"] > 0 and seen[0]["reachable"] == 1
        assert seen[1] == seen[2] == seen[0]
        assert uniform_table(env, policy, edges).shape == table.shape
        assert len(reachable_state_actions(env)) == len(table)
        assert calls == seen[0]

    def test_matches_per_pair_loop_after_the_table_gains_states(self):
        # c * s0 with c != 1 has the root's branches but is not a state the start
        # reaches: the table gains one such state before the first application
        # and one after each
        env, fresh = BranchingTree(), BranchingTree()
        policy = behavior_policy_for(env)
        s0 = env.initial_state(None)
        edges = histogram_edges(env.z_bounds, 60)
        monte_carlo_returns(env, policy, 0.5 * s0, np.array([0.3]), 10, 3, seed=0)
        table = self.random_table(fresh, np.random.default_rng(2))
        for i in range(3):
            got = bellman_histogram_operator(env, policy, table, edges)
            ref = bellman_by_pairs(env, policy, table, edges)
            assert got.shape == ref.shape == table.shape
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
            monte_carlo_returns(env, policy, (0.25 + i) * s0, np.array([0.3]), 10, 3, seed=i)
            table = ref
        assert len(branch_table(env).states) == len(branch_table(fresh).states) + 4
        assert ([(s.tobytes(), a.tobytes()) for s, a in reachable_state_actions(env)]
                == [(s.tobytes(), a.tobytes()) for s, a in reachable_state_actions(fresh)])

    @pytest.mark.parametrize("env_id", sorted(FIXED_POINT_DIGESTS))
    def test_fixed_point_is_pinned(self, env_id):
        env = make_env(env_id)
        policy = behavior_policy_for(env)
        edges = histogram_edges(env.z_bounds, 60)
        table = uniform_table(env, policy, edges)
        for _ in range(41):
            table = bellman_histogram_operator(env, policy, table, edges)
        assert digest(table) == FIXED_POINT_DIGESTS[env_id]


class TestReturnTable:
    @pytest.mark.parametrize("make", FINITE_ENVS)
    def test_rows_follow_reachable_state_actions(self, make):
        env = make()
        pairs = reachable_state_actions(env)
        n_states = len(branch_table(env).states)
        # copies: a state is found by its bytes, and a found state is not added again
        assert [table_key(env, s.copy(), a.copy()) for s, a in pairs] == list(range(len(pairs)))
        assert len(branch_table(env).states) == n_states
        table = uniform_table(env, behavior_policy_for(env), histogram_edges(env.z_bounds, 60))
        assert table.shape == (len(pairs), 60) and np.all(table == 1.0 / 60)

    @pytest.mark.parametrize("make", FINITE_ENVS)
    @pytest.mark.parametrize("case", ["unreachable", "unreachable-but-held", "terminal",
                                      "not-an-atom"])
    def test_table_key_refuses_a_pair_without_a_row(self, make, case):
        env = make()
        table = branch_table(env)
        s0, a0 = env.initial_state(None), env.action_atoms()[0]
        n_pairs = len(reachable_state_actions(env))
        s, a = {
            "unreachable": (0.5 * s0, a0),
            "unreachable-but-held": (table.states[table.state_id(0.5 * s0)], a0),
            "terminal": (next(s for s in table.states if env.is_terminal(s)), a0),
            "not-an-atom": (s0, np.full(env.action_dim, 0.3)),
        }[case]
        n_states = len(table.states)
        with pytest.raises(ContractError, match="row"):
            table_key(env, s, a)
        assert len(table.states) == n_states
        assert len(reachable_state_actions(env)) == n_pairs

    @pytest.mark.parametrize("bad", ["dict", "list", "bins", "pairs", "float32", "nan", "inf"])
    def test_operator_refuses_a_table_that_is_not_a_return_table(self, bad):
        env = BranchingTree()
        policy = behavior_policy_for(env)
        edges = histogram_edges(env.z_bounds, 60)
        table = uniform_table(env, policy, edges)
        nan_at = table.copy()
        nan_at[3, 7] = np.nan
        inf_at = table.copy()
        inf_at[0, 0] = np.inf
        table = {
            "dict": dict(enumerate(table)),
            "list": table.tolist(),
            "bins": table[:, 1:],
            "pairs": table[1:],
            "float32": table.astype(np.float32),
            "nan": nan_at,
            "inf": inf_at,
        }[bad]
        with pytest.raises(ContractError, match="return table"):
            bellman_histogram_operator(env, policy, table, edges)

    @pytest.mark.parametrize("bad", ["one-bin", "descending", "nan"])
    def test_bad_edges_are_a_contract_error(self, bad):
        env = BranchingTree()
        policy = behavior_policy_for(env)
        edges = {
            "one-bin": np.array(env.z_bounds),
            "descending": histogram_edges(env.z_bounds, 60)[::-1],
            "nan": np.where(np.arange(61) == 5, np.nan, histogram_edges(env.z_bounds, 60)),
        }[bad]
        n_bins = len(edges) - 1
        table = np.full((len(reachable_state_actions(env)), n_bins), 1.0 / n_bins)
        with pytest.raises(ContractError, match="edges"):
            uniform_table(env, policy, edges)
        with pytest.raises(ContractError, match="edges"):
            bellman_histogram_operator(env, policy, table, edges)


class TestBranchTable:
    @pytest.mark.parametrize("make", FINITE_ENVS + [UnitRewardLoop])
    def test_rows_equal_outcomes_in_order(self, make):
        env = make()
        table = branch_table(env)
        pairs = reachable_state_actions(env)
        assert pairs
        for s, a in pairs:
            row = table.row(table.state_id(s), table.atom_id(a))
            expected = env.outcomes(s, a)
            assert len(row) == len(expected)
            for (p, s_next, r, terminal, nid), (p0, s0, r0, t0) in zip(row, expected):
                assert p == p0 and r == r0 and terminal == t0
                assert np.array_equal(s_next, s0) and s_next is table.states[nid]
        assert table.atom_id(np.full(env.action_dim, 0.5)) is None

    @pytest.mark.parametrize("make", FINITE_ENVS)
    def test_sampling_bit_identical_to_outcomes(self, make):
        # Selectors without ``support`` take the step-by-step path, which samples
        # through ``_sample_outcome``; ``ref`` reads outcomes() instead.
        env, ref = make(), make()
        ref._sample_outcome = functools.partial(sample_from_outcomes, ref)
        policy = behavior_policy_for(env)

        def uniform(s, rng):
            return policy(s, rng)

        def box(s, rng):  # actions off the atoms read outcomes() directly
            return rng.uniform(-1.0, 1.0, size=env.action_dim)

        got, want = generate_dataset(env, uniform, 500, seed=3), generate_dataset(ref, uniform, 500, 3)
        got_arr, want_arr = got.arrays(), want.arrays()
        for key in want_arr:
            assert got_arr[key].tobytes() == want_arr[key].tobytes()
        s, a = env.initial_state(None), env.action_atoms()[0]
        assert (monte_carlo_returns(env, uniform, s, a, 200, env.episode_cap, seed=4).tobytes()
                == monte_carlo_returns(ref, uniform, s, a, 200, env.episode_cap, seed=4).tobytes())
        for selector in (uniform, box):
            assert (evaluate_policy(env, selector, 50, env.episode_cap, seed=5)
                    == evaluate_policy(ref, selector, 50, env.episode_cap, seed=5))
        assert branch_table(env).states and not branch_table(ref).states


def support_sampler(policy):
    """A selector drawing from ``policy.support`` with no ``support`` of its own."""
    def select(s, rng):
        probs, actions = zip(*policy.support(s))
        return np.asarray(actions[rng.choice(len(actions), p=probs)], dtype=np.float64)
    return select


class TestLockstepRollouts:
    """The lockstep path of Monte Carlo and dataset generation, refereed by ``step``."""

    @pytest.mark.parametrize("make", FINITE_ENVS + [UnitRewardLoop])
    def test_dense_rows_equal_outcomes(self, make):
        env = make()
        view = branch_table(env).dense()
        n_atoms = len(view.atoms)
        assert view.states.shape[1] == env.state_dim and len(view.atoms) == len(env.action_atoms())
        for sid, s in enumerate(view.states):
            for aid, a in enumerate(view.atoms):
                pair = sid * n_atoms + aid
                expected = ([(1.0, s, 0.0, True)] if env.is_terminal(s)
                            else env.outcomes(s, a))
                count = view.count[pair]
                assert count == len(expected)
                assert np.isinf(view.cdf[pair, count - 1:]).all()
                np.testing.assert_array_equal(view.cdf[pair, :count - 1],
                                              np.cumsum([p for p, *_ in expected])[:count - 1])
                for j, (p, s_next, r, terminal) in enumerate(expected):
                    assert view.prob[pair, j] == p and view.reward[pair, j] == r
                    assert view.terminal[pair, j] == terminal
                    assert np.array_equal(view.states[view.next_id[pair, j]], s_next)

    @pytest.mark.parametrize("make,horizon", [(StochasticChain, 16), (BranchingTree, 3),
                                              (WindyGrid, 12)])
    @pytest.mark.parametrize("skewed", [False, True])
    def test_monte_carlo_matches_step_by_step(self, make, horizon, skewed):
        env = make()
        policy = SkewedPolicy(env) if skewed else behavior_policy_for(env)
        s, a = env.initial_state(None), env.action_atoms()[0]
        batched = monte_carlo_returns(env, policy, s, a, 20_000, horizon, seed=21)
        stepwise = monte_carlo_returns(env, support_sampler(policy), s, a, 2000, horizon, seed=22)
        z_lo, z_hi = env.z_bounds
        assert wasserstein1_discrete(batched, np.full(batched.size, 1.0 / batched.size),
                                     stepwise, np.full(stepwise.size, 1.0 / stepwise.size)) \
            < 0.02 * (z_hi - z_lo)
        atoms = enumerate_return_distribution(env, policy, s, a, horizon, mass_tol=1.0)
        w1 = wasserstein1_discrete(atoms.values, atoms.masses, batched,
                                   np.full(batched.size, 1.0 / batched.size))
        assert w1 < 0.02 * (z_hi - z_lo)

    def test_terminal_start_state_returns_zero(self):
        env = BranchingTree()
        leaf = np.eye(env.state_dim)[env.n_nodes - 1]
        for policy in (behavior_policy_for(env), behavior_policy_for(env).__call__):
            out = monte_carlo_returns(env, policy, leaf, np.array([1.0]), 50, 5, seed=0)
            assert out.tobytes() == np.zeros(50).tobytes()

    def test_off_atom_start_action(self):
        # action 0.3 makes the first (+1 or -1) edge go left with probability 0.515
        env = BranchingTree()
        policy = behavior_policy_for(env)
        s, a = env.initial_state(None), np.array([0.3])
        n = 100_000
        samples = monte_carlo_returns(env, policy, s, a, n, 3, seed=8)
        p_left = (samples > 0.0).mean()
        assert abs(p_left - 0.515) < 4 * np.sqrt(0.515 * 0.485 / n)
        atoms = enumerate_return_distribution(env, policy, s, a, 3)
        assert wasserstein1_discrete(atoms.values, atoms.masses,
                                     samples, np.full(n, 1.0 / n)) < 0.01
        with pytest.raises(ContractError):
            monte_carlo_returns(env, policy, s, np.array([1.5]), 10, 3)

    def test_unit_reward_loop_constant_as_step_by_step(self):
        env = UnitRewardLoop()
        policy = behavior_policy_for(env)
        s, a = env.initial_state(None), np.array([1.0])
        batched = monte_carlo_returns(env, policy, s, a, 64, 30, seed=0)
        stepwise = monte_carlo_returns(env, support_sampler(policy), s, a, 4, 30, seed=0)
        assert batched.tobytes() == np.full(64, stepwise[0]).tobytes()
        assert stepwise.tobytes() == np.full(4, stepwise[0]).tobytes()

    def test_support_off_the_atoms_steps_one_transition_at_a_time(self):
        env = BranchingTree()

        class Tilted:   # support on a non-atom action: sampled through __call__
            def support(self, s):
                return [(1.0, np.array([0.3]))]

            def __call__(self, s, rng):
                return np.array([0.3])

        s, a = env.initial_state(None), np.array([1.0])
        policy = Tilted()
        got = monte_carlo_returns(env, policy, s, a, 300, 3, seed=1)
        want = monte_carlo_returns(env, policy.__call__, s, a, 300, 3, seed=1)
        assert got.tobytes() == want.tobytes()
        ds = generate_dataset(env, policy, 30, seed=1)
        assert (ds.a == 0.3).all()
        assert (evaluate_policy(env, policy, 300, 3, seed=1)
                == evaluate_policy(env, policy.__call__, 300, 3, seed=1))

    @pytest.mark.parametrize("make", FINITE_ENVS)
    def test_dataset_matches_step_by_step(self, make):
        # per-row frequencies of actions, terminal flags and rewards agree
        env = make()
        policy = SkewedPolicy(env)
        policy.behavior_id = "skewed"
        batched = generate_dataset(env, policy, 20_000, seed=5)
        stepwise = generate_dataset(env, support_sampler(policy), 4000, seed=5)
        assert batched.behavior_id == "skewed" and stepwise.behavior_id == "custom"
        for key in ("a", "r", "terminal", "s_next"):
            x = batched.arrays()[key].reshape(len(batched), -1).astype(float)
            y = stepwise.arrays()[key].reshape(len(stepwise), -1).astype(float)
            spread = np.sqrt(x.var(axis=0) / len(x) + y.var(axis=0) / len(y))
            assert (np.abs(x.mean(axis=0) - y.mean(axis=0)) <= 5 * spread + 1e-12).all(), key

    @pytest.mark.parametrize("make,horizon", [(StochasticChain, 16), (BranchingTree, 3),
                                              (WindyGrid, 12)])
    @pytest.mark.parametrize("skewed", [False, True])
    def test_evaluation_matches_step_by_step(self, make, horizon, skewed):
        env = make()
        policy = SkewedPolicy(env) if skewed else behavior_policy_for(env)
        batched = evaluate_policy(env, policy, 20_000, horizon, seed=31)
        stepwise = evaluate_policy(env, support_sampler(policy), 2000, horizon, seed=32)
        spread = np.sqrt(batched.std_return ** 2 / batched.episodes
                         + stepwise.std_return ** 2 / stepwise.episodes)
        assert abs(batched.mean_return - stepwise.mean_return) <= 5 * spread

    @pytest.mark.parametrize("skewed", [False, True])
    def test_evaluation_mean_matches_enumeration(self, skewed):
        env = BranchingTree()
        policy = SkewedPolicy(env) if skewed else behavior_policy_for(env)
        s = env.initial_state(None)
        exact = sum(p * enumerate_return_distribution(env, policy, s, a, env.depth).mean()
                    for p, a in policy.support(s))
        got = evaluate_policy(env, policy, 50_000, env.episode_cap, seed=33)
        assert abs(got.mean_return - exact) <= 5 * got.std_return / np.sqrt(got.episodes)

    def test_lockstep_paths_never_call_step(self, monkeypatch):
        calls = []

        def counted_step(mdp, s, a, rng):
            calls.append(1)
            return step(mdp, s, a, rng)

        monkeypatch.setattr(envs_base, "step", counted_step)   # every rollout looks it up there
        for module in (envs_oracle, metrics_module):
            assert not hasattr(module, "step") and not hasattr(module, "_Lockstep")
        env = WindyGrid()
        policy = behavior_policy_for(env)
        s, a = env.initial_state(None), env.action_atoms()[0]
        rollouts = (lambda sel: monte_carlo_returns(env, sel, s, a, 20, 10, seed=0),
                    lambda sel: generate_dataset(env, sel, 50, seed=0),
                    lambda sel: evaluate_policy(env, sel, 20, 10, seed=0))
        for rollout in rollouts:
            rollout(policy)
            assert not calls
            rollout(support_sampler(policy))   # the counter sees the per-step path
            assert calls
            calls.clear()

    @pytest.mark.parametrize("make,horizon,steps", [(WindyGrid, 5, 5), (BranchingTree, 10, 3)])
    def test_stepwise_monte_carlo_calls_the_policy_between_steps_only(self, make, horizon, steps):
        # the grid's goal is 8 moves away and every tree episode ends at depth 3
        env = make()
        sampler, calls = support_sampler(behavior_policy_for(env)), []

        def counted(s, rng):
            calls.append(1)
            return sampler(s, rng)

        s, a = env.initial_state(None), env.action_atoms()[0]
        monte_carlo_returns(env, counted, s, a, 30, horizon, seed=0)
        assert len(calls) == 30 * (steps - 1)

    @pytest.mark.parametrize("bad_s,bad_a", [
        (np.zeros(3), None), (np.full(25, np.nan), None), (np.eye(25)[:1], None),
        (None, np.zeros(3)), (None, np.zeros((2, 2))), (None, np.array([np.nan, 0.0]))])
    def test_bad_start_pair_leaves_the_branch_table_alone(self, bad_s, bad_a):
        env, fresh = WindyGrid(), WindyGrid()
        policy = behavior_policy_for(env)
        s = env.initial_state(None) if bad_s is None else bad_s
        a = env.action_atoms()[0] if bad_a is None else bad_a
        with pytest.raises(ContractError):
            monte_carlo_returns(env, policy, s, a, 10, 5, seed=0)
        with pytest.raises(ContractError):
            enumerate_return_distribution(env, policy, s, a, 3)
        assert not branch_table(env).states
        for rollout in ROLLOUTS:
            got, want = _rollout(rollout, env, policy), _rollout(rollout, fresh, policy)
            assert _case_digest(got) == _case_digest(want)

    def test_horizon_below_one_rejected(self):
        env = WindyGrid()
        policy = behavior_policy_for(env)
        s, a = env.initial_state(None), env.action_atoms()[0]
        for selector in (policy, support_sampler(policy)):
            with pytest.raises(ContractError):
                monte_carlo_returns(env, selector, s, a, 3, horizon=0)
            with pytest.raises(ContractError):
                evaluate_policy(env, selector, 3, horizon=0, seed=0)


def _rollout(name, env, policy, n=10, horizon=5, seed=0):
    """One call of a rollout entry point; ``generate_dataset`` takes no horizon."""
    if name == "evaluate_policy":
        return evaluate_policy(env, policy, n, horizon, seed)
    if name == "monte_carlo_returns":
        s, a = env.initial_state(None), (env.action_atoms() or [np.zeros(env.action_dim)])[0]
        return monte_carlo_returns(env, policy, s, a, n, horizon, seed)
    return generate_dataset(env, policy, n, seed)


def _stream_cases():
    """Seeded rollouts of every path, each as the arrays it returns."""
    cases = {}
    for env_id in ("windy-grid-5", "branching-tree-3", "stochastic-chain-4"):
        env = make_env(env_id)
        s, atom = env.initial_state(None), env.action_atoms()[-1]
        off_atom = np.linspace(0.3, -0.6, env.action_dim)
        skewed = SkewedPolicy(env)
        cases[f"{env_id}/dataset"] = functools.partial(
            generate_dataset, env, behavior_policy_for(env), 300, 11)
        cases[f"{env_id}/mc"] = functools.partial(
            monte_carlo_returns, env, behavior_policy_for(env), s, atom, 200,
            env.episode_cap, 12)
        cases[f"{env_id}/mc-off-atom"] = functools.partial(
            monte_carlo_returns, env, skewed, s, off_atom, 200, env.episode_cap, 13)
        cases[f"{env_id}/eval"] = functools.partial(
            evaluate_policy, env, skewed, 200, env.episode_cap, 14)
    bandit, box = ContinuousBandit1D(), UniformBoxPolicy(1)
    cases["bandit/dataset"] = functools.partial(
        generate_dataset, bandit, behavior_policy_for(bandit), 200, 15)
    cases["bandit/mc"] = functools.partial(
        monte_carlo_returns, bandit, box, np.array([0.0]), np.array([0.25]), 100, 3, 16)
    cases["bandit/eval"] = functools.partial(evaluate_policy, bandit, box, 100, 3, 17)
    grid, tree = WindyGrid(), BranchingTree()
    cases["callable/grid-dataset"] = functools.partial(
        generate_dataset, grid, support_sampler(SkewedPolicy(grid)), 300, 18)
    cases["callable/grid-eval"] = functools.partial(
        evaluate_policy, grid, support_sampler(SkewedPolicy(grid)), 100, 12, 19)
    # every episode ends on a terminal branch at step 3, before the horizon
    cases["callable/tree-mc"] = functools.partial(
        monte_carlo_returns, tree, support_sampler(SkewedPolicy(tree)),
        tree.initial_state(None), np.array([1.0]), 200, 3, 20)
    return cases


def _case_digest(out) -> str:
    if isinstance(out, Dataset):
        return digest(*out.arrays().values())
    if hasattr(out, "mean_return"):
        return digest([out.mean_return, out.std_return])
    return digest(out)


STREAM_DIGESTS = {   # a changed digest is a changed seeded result
    "bandit/dataset": "f51d0c0e09089055",   # drawn time-major since the batched env step
    "bandit/eval": "d5e582ba76705fdc",
    "bandit/mc": "6a02434036e95cb4",
    "branching-tree-3/dataset": "b558f9be8a26036c",
    "branching-tree-3/eval": "ea22a50482d67455",
    "branching-tree-3/mc": "6fb7af6f72f61451",
    "branching-tree-3/mc-off-atom": "cc6821c808724651",
    "callable/grid-dataset": "3df32405c8b90041",   # likewise
    "callable/grid-eval": "7cd374ca898d1b8f",
    "callable/tree-mc": "ee1d671c204756ee",
    "stochastic-chain-4/dataset": "6cf78924d18bf26d",
    "stochastic-chain-4/eval": "00ecccca6287f7a2",
    "stochastic-chain-4/mc": "ab92937c8a4b7645",
    "stochastic-chain-4/mc-off-atom": "5592b34b075693b9",
    "windy-grid-5/dataset": "50b89c02bf907ad2",
    "windy-grid-5/eval": "fe6c16f5eaade48c",
    "windy-grid-5/mc": "f97662118559a2fc",
    "windy-grid-5/mc-off-atom": "41962aae2a57c6cd",
}


@pytest.mark.parametrize("name", sorted(_stream_cases()))
def test_seeded_streams_are_pinned(name):
    assert _case_digest(_stream_cases()[name]()) == STREAM_DIGESTS[name]


def test_random_start_streams_are_pinned():
    # an initial_state that draws from rng reads one start per episode
    env = RandomStartChain()
    policy = behavior_policy_for(env)
    assert _case_digest(generate_dataset(env, policy, 300, 41)) == "ce746317d75db288"
    assert _case_digest(evaluate_policy(env, policy, 200, env.episode_cap, 42)) == "c0fde397e93b1a4a"


def _counted_initial_state(env):
    """Count ``env.initial_state`` calls in the list it returns."""
    calls, read = [], env.initial_state

    def counted(rng):
        calls.append(1)
        return read(rng)

    env.initial_state = counted
    return calls


def _one_row_monte_carlo(env, policy, s, a, n, horizon, seed):
    """Lockstep Monte Carlo whose first step samples a one-row view of the start pair."""
    lock = envs_base._Lockstep.of(env, policy, s)
    sid = lock.table.state_id(s)
    row = envs_base.DenseBranches.from_rows(lock.view.states, lock.view.atoms,
                                            [lock.table.branches(sid, a)])
    steps = lock.walk(np.full(n, sid), horizon, np.random.default_rng(seed), (row, 0))
    return envs_base._returns(steps, n, env.gamma)


class TestStartCosts:
    """Lockstep rollouts read a fixed start and a start action's row once per call."""

    @pytest.mark.parametrize("make,per_round", [(WindyGrid, lambda m: 1),
                                                (RandomStartChain, lambda m: m)])
    def test_initial_state_read_once_per_call_unless_it_draws(self, make, per_round,
                                                              monkeypatch):
        env = make()
        policy = behavior_policy_for(env)
        evaluate_policy(env, policy, 5, 3, seed=0)   # the table keeps the default start
        calls, rounds, starts = _counted_initial_state(env), [], envs_base._Lockstep.starts

        def counted_starts(lock, m, rng):
            rounds.append(m)
            return starts(lock, m, rng)

        monkeypatch.setattr(envs_base._Lockstep, "starts", counted_starts)
        evaluate_policy(env, policy, 100, 5, seed=1)
        assert rounds == [100] and len(calls) == per_round(100)
        calls.clear(), rounds.clear()
        generate_dataset(env, policy, 3000, seed=2)
        assert len(rounds) > 1 and len(calls) == sum(map(per_round, rounds))

    def test_repeated_rollouts_build_only_their_seeded_generators(self, monkeypatch):
        seeds, default_rng = [], np.random.default_rng

        def counted(*args):
            if sys._getframe(1).f_globals["__name__"] == envs_base.__name__:
                seeds.append(args)
            return default_rng(*args)

        monkeypatch.setattr(np.random, "default_rng", counted)
        env = WindyGrid()
        policy = behavior_policy_for(env)
        for _ in range(3):
            evaluate_policy(env, policy, 10, 5, seed=7)
            generate_dataset(env, policy, 50, seed=8)
        assert seeds == [(0,)] + [(7,), (8,)] * 3   # (0,): the default start, read once

    def test_each_lockstep_step_draws_its_uniforms_in_one_call(self):
        class Counted:   # forwards to a generator, counting ``random`` calls
            def __init__(self, seed):
                self.rng, self.sizes = np.random.default_rng(seed), []

            def random(self, size):
                self.sizes.append(size)
                return self.rng.random(size)

        env = WindyGrid()
        lock = envs_base._Lockstep.of(env, behavior_policy_for(env))
        rng = Counted(0)
        steps = [ep.size for _, ep, *_ in lock.walk(np.zeros(30, dtype=np.intp), 20, rng)]
        assert rng.sizes == [2 * k for k in steps] and steps[0] == 30

    @pytest.mark.parametrize("env_id", ["windy-grid-5", "branching-tree-3", "stochastic-chain-4"])
    def test_atom_start_monte_carlo_samples_the_view(self, env_id, monkeypatch):
        env = make_env(env_id)
        policy = behavior_policy_for(env)
        view = branch_table(env).dense()
        want = {(sid, aid): _one_row_monte_carlo(env, policy, s, a, 40, 8, seed=sid)
                for sid, s in enumerate(view.states) if not env.is_terminal(s)
                for aid, a in enumerate(view.atoms)}
        built, from_rows = [], envs_base.DenseBranches.from_rows.__func__

        def counted(cls, *args, **kwargs):
            built.append(len(args[2]))
            return from_rows(cls, *args, **kwargs)

        monkeypatch.setattr(envs_base.DenseBranches, "from_rows", classmethod(counted))
        for (sid, aid), returns in want.items():
            got = monte_carlo_returns(env, policy, view.states[sid], view.atoms[aid], 40, 8,
                                      seed=sid)
            assert got.tobytes() == returns.tobytes()
        assert want and not built
        s, off_atom = env.initial_state(None), np.linspace(0.3, -0.6, env.action_dim)
        got = monte_carlo_returns(env, policy, s, off_atom, 40, 8, seed=1)
        assert built == [1]
        assert got.tobytes() == _one_row_monte_carlo(env, policy, s, off_atom, 40, 8, 1).tobytes()


ROLLOUTS = ["evaluate_policy", "monte_carlo_returns", "generate_dataset"]
BAD_ARGS = [("n", 2.5), ("n", True), ("horizon", 2.5), ("horizon", True), ("seed", -1),
            ("seed", 1.0)]


class TestCountsAndSeeds:
    @pytest.mark.parametrize("name,arg,bad", [
        (name, arg, bad) for name in ROLLOUTS for arg, bad in BAD_ARGS
        if not (name == "generate_dataset" and arg == "horizon")])
    def test_rejected_before_any_rollout(self, name, arg, bad):
        env = StochasticChain()
        with pytest.raises(ContractError):
            _rollout(name, env, behavior_policy_for(env), **{arg: bad})
        assert not branch_table(env).states

    @pytest.mark.parametrize("name", ROLLOUTS)
    @pytest.mark.parametrize("env_id", ["windy-grid-5", "continuous-bandit-1d"])
    @pytest.mark.parametrize("policy", [None, object()], ids=["none", "object"])
    def test_a_selector_that_can_neither_act_nor_be_read_is_rejected(self, name, env_id,
                                                                     policy):
        env = make_env(env_id)
        with pytest.raises(ContractError, match="callable"):
            _rollout(name, env, policy)
        assert not branch_table(env).states

    @pytest.mark.parametrize("name", ROLLOUTS)
    def test_numpy_integers_accepted(self, name):
        env = StochasticChain()
        policy = behavior_policy_for(env)
        got = _rollout(name, env, policy, np.int64(7), np.int64(4), np.int64(3))
        want = _rollout(name, env, policy, 7, 4, 3)
        if name == "generate_dataset":
            got, want = got.arrays(), want.arrays()
            assert all(got[k].tobytes() == want[k].tobytes() for k in want)
        else:
            assert np.array_equal(getattr(got, "mean_return", got),
                                  getattr(want, "mean_return", want))


def _oracle_sequence(env, policy):
    """Every result of a fixed run of the support readers on ``env``, as arrays.

    41 Bellman applications; Monte Carlo from the start state with an atom
    and with an off-atom action, then from a start state off the reachable
    set, which grows the branch table; evaluations, a dataset, and one more
    application over the grown table.
    """
    edges = histogram_edges(env.z_bounds, 60)
    s0, atom = env.initial_state(None), env.action_atoms()[-1]
    off_atom = np.linspace(0.3, -0.6, env.action_dim)
    out = []
    table = uniform_table(env, policy, edges)
    for _ in range(41):
        table = bellman_histogram_operator(env, policy, table, edges)
        out.append(table)
    out.append(monte_carlo_returns(env, policy, s0, atom, 50, env.episode_cap, 1))
    out.append(monte_carlo_returns(env, policy, s0, off_atom, 50, env.episode_cap, 2))
    n_states = len(branch_table(env).states)
    out.append(monte_carlo_returns(env, policy, 0.5 * s0, atom, 50, env.episode_cap, 3))
    assert len(branch_table(env).states) > n_states
    out.append(monte_carlo_returns(env, policy, s0, atom, 400, 5, 4))
    for seed in range(3):
        result = evaluate_policy(env, policy, 100, 5, seed)
        out.append(np.array([result.mean_return, result.std_return]))
    out.extend(generate_dataset(env, policy, 300, 5).arrays().values())
    out.append(bellman_histogram_operator(env, policy, table, edges))
    return out


def _assert_bytes_equal(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class PlainSupport:
    """Delegates ``support`` and ``__call__`` to a policy; no UniformDiscretePolicy (test-only)."""

    def __init__(self, policy):
        self.policy = policy

    def support(self, s):
        return self.policy.support(s)

    def __call__(self, s, rng):
        return self.policy(s, rng)


class UniformSubclass(UniformDiscretePolicy):
    """A subclass may change ``support``, so its rows are read like any policy's (test-only)."""


class TestSupportReader:
    """The one reader of ``support`` for lockstep rollouts and the Bellman backup."""

    @pytest.mark.parametrize("env_id", ["windy-grid-5", "branching-tree-3", "stochastic-chain-4"])
    def test_behavior_policy_matches_a_plain_support_policy(self, env_id):
        env, ref = make_env(env_id), make_env(env_id)
        policy = behavior_policy_for(env)
        assert type(policy) is UniformDiscretePolicy and policy.behavior_id == "uniform-discrete"
        _assert_bytes_equal(_oracle_sequence(env, policy),
                            _oracle_sequence(ref, PlainSupport(policy)))

    @pytest.mark.parametrize("variant", ["array-atoms", "reordered", "subset", "subclass"])
    def test_uniform_variants_match_a_plain_support_policy(self, variant):
        env, ref = WindyGrid(), WindyGrid()
        atoms = [tuple(a) for a in env.action_atoms()]
        policy = {"array-atoms": UniformDiscretePolicy(tuple(env.action_atoms())),
                  "reordered": UniformDiscretePolicy(tuple(atoms[::-1])),
                  "subset": UniformDiscretePolicy(tuple(atoms[1:3])),
                  "subclass": UniformSubclass(tuple(atoms))}[variant]
        behavior = behavior_policy_for(env)
        # the behavior policy's row is kept first: a variant must not be served it
        for e, p in ((env, behavior), (ref, PlainSupport(behavior))):
            evaluate_policy(e, p, 10, 5, 0)
        _assert_bytes_equal(_oracle_sequence(env, policy),
                            _oracle_sequence(ref, PlainSupport(policy)))

    def test_uniform_rows_are_kept_by_the_atoms_bytes(self):
        # -0.0 == 0.0, but an atom of -0.0 is not the env's atom of 0.0
        env = WindyGrid()
        behavior = behavior_policy_for(env)
        signed = UniformDiscretePolicy(tuple(tuple(-x if x == 0.0 else x for x in a)
                                             for a in behavior.atoms))
        assert signed.atoms == behavior.atoms
        edges = histogram_edges(env.z_bounds, 60)
        table = uniform_table(env, behavior, edges)
        bellman_histogram_operator(env, behavior, table, edges)
        with pytest.raises(ContractError, match="atoms"):
            bellman_histogram_operator(env, signed, table, edges)
        assert (evaluate_policy(env, signed, 50, 5, 0)
                == evaluate_policy(env, signed.__call__, 50, 5, 0))

    def test_ragged_uniform_atoms_are_read_like_any_policy(self):
        env = BranchingTree()
        ragged = UniformDiscretePolicy(((1.0,), (1.0, 0.0)))
        edges = histogram_edges(env.z_bounds, 60)
        with pytest.raises(ContractError, match="atoms"):
            bellman_histogram_operator(env, ragged, uniform_table(env, ragged, edges), edges)

    def test_uniform_atoms_changed_in_place_get_fresh_rows(self):
        env, ref = BranchingTree(), BranchingTree()
        atoms = tuple(np.array(a) for a in env.action_atoms())
        policy = UniformDiscretePolicy(atoms)
        s0 = env.initial_state(None)
        evaluate_policy(env, policy, 50, 5, 0)
        atoms[0][:] = atoms[1]
        got = [monte_carlo_returns(env, policy, s0, atoms[0], 50, 5, 1),
               np.array([evaluate_policy(env, policy, 50, 5, 2).mean_return])]
        same = PlainSupport(UniformDiscretePolicy((atoms[1], atoms[1])))
        evaluate_policy(ref, same, 50, 5, 0)
        want = [monte_carlo_returns(ref, same, s0, atoms[0], 50, 5, 1),
                np.array([evaluate_policy(ref, same, 50, 5, 2).mean_return])]
        _assert_bytes_equal(got, want)

    def test_uniform_support_is_read_once_per_table_size(self, monkeypatch):
        env = make_env("windy-grid-5")
        policy = behavior_policy_for(env)
        states = branch_table(env).states
        reads = []
        support = UniformDiscretePolicy.support

        def counted(self, s):
            reads.append(len(states))
            return support(self, s)

        monkeypatch.setattr(UniformDiscretePolicy, "support", counted)
        edges = histogram_edges(env.z_bounds, 60)
        s0, a0 = env.initial_state(None), env.action_atoms()[0]
        generate_dataset(env, policy, 3000, 0)
        table = uniform_table(env, policy, edges)
        for _ in range(41):
            table = bellman_histogram_operator(env, policy, table, edges)
        for seed in range(8):
            monte_carlo_returns(env, policy, s0, a0, 50, env.episode_cap, seed)
        monte_carlo_returns(env, policy, s0, a0, 400, 5, 8)
        for seed in range(16):
            evaluate_policy(env, policy, 100, 5, seed)
        assert reads == [len(states)]
        # a new start state grows the table: one more read
        n_states = len(states)
        monte_carlo_returns(env, policy, 0.5 * s0, a0, 50, 5, 9)
        evaluate_policy(env, policy, 100, 5, 10)
        assert len(states) > n_states
        assert reads == [n_states, len(states)]

    def test_projections_are_built_once_per_bin_grid(self, monkeypatch):
        env = make_env("windy-grid-5")
        policy = behavior_policy_for(env)
        built = []
        project = envs_oracle._projection_matrix

        def counted(r, gamma, centers):
            built.append(len(centers))
            return project(r, gamma, centers)

        monkeypatch.setattr(envs_oracle, "_projection_matrix", counted)
        n_rewards = len(envs_oracle._backup(env).b_r)
        for n_bins in (60, 50, 60):
            edges = histogram_edges(env.z_bounds, n_bins)
            table = uniform_table(env, policy, edges)
            for _ in range(41):
                table = bellman_histogram_operator(env, policy, table, edges)
        assert built == [60] * n_rewards + [50] * n_rewards + [60] * n_rewards

    def test_a_changed_support_gets_fresh_rows(self):
        # a policy that is not exactly a UniformDiscretePolicy is read on every call,
        # so a change shows at once
        env = BranchingTree()

        class Weighted:
            def __init__(self, w):
                self.w = np.asarray(w, dtype=np.float64)

            def support(self, s):
                return list(zip(self.w / self.w.sum(), env.action_atoms()))

        policy = Weighted([1.0, 1.0])
        edges = histogram_edges(env.z_bounds, 60)
        table = TestBellmanOperator.random_table(env, np.random.default_rng(0))
        s0, a0 = env.initial_state(None), env.action_atoms()[0]

        def results(p):
            return [bellman_histogram_operator(env, p, table, edges),
                    monte_carlo_returns(env, p, s0, a0, 200, 3, 0),
                    np.array([evaluate_policy(env, p, 200, 3, 0).mean_return])]

        first = results(policy)
        policy.w = np.array([1.0, 3.0])
        changed, fresh = results(policy), results(Weighted([1.0, 3.0]))
        _assert_bytes_equal(changed, fresh)
        assert all(x.tobytes() != y.tobytes() for x, y in zip(changed, first))


def _support_of(fn):
    return type("Policy", (), {"support": staticmethod(fn),
                               "__call__": lambda self, s, rng: fn(s)[0][1]})()


SUPPORT_READERS = ["evaluate_policy", "monte_carlo_returns", "generate_dataset", "bellman",
                   "enumerate"]


def _read_support(name, env, policy):
    if name == "bellman":
        edges = histogram_edges(env.z_bounds, 60)
        return bellman_histogram_operator(env, policy, uniform_table(env, policy, edges), edges)
    if name == "enumerate":
        s, a = env.initial_state(None), env.action_atoms()[0]
        return enumerate_return_distribution(env, policy, s, a, 3, mass_tol=1.0)
    return _rollout(name, env, policy)


class TestSupportCheck:
    @pytest.mark.parametrize("name", SUPPORT_READERS)
    @pytest.mark.parametrize("case", ["nan-off-atom", "negative-off-atom", "nan-on-atom",
                                      "negative-on-atom", "inf-on-atom", "sum-above-one"])
    @pytest.mark.parametrize("kept", [False, True])
    def test_bad_probabilities_are_a_contract_error(self, name, case, kept):
        env = WindyGrid()
        if kept:
            # the behavior policy's row is kept at this table size: it must not be served
            _read_support(name, env, behavior_policy_for(env))
        a0, a1 = env.action_atoms()[:2]
        off = np.array([0.3, 0.3])
        support = {
            "nan-off-atom": [(1.0, a0), (np.nan, off)],
            "negative-off-atom": [(1.0, a0), (-0.5, off)],
            "nan-on-atom": [(1.0, a0), (np.nan, a1)],
            "negative-on-atom": [(1.5, a0), (-0.5, a1)],
            "inf-on-atom": [(np.inf, a0)],
            "sum-above-one": [(1.0, a0), (1e-8, a1)],
        }[case]
        policy = _support_of(lambda s: support)
        with pytest.raises(ContractError, match="summing to 1"):
            _read_support(name, env, policy)

    @pytest.mark.parametrize("name", SUPPORT_READERS)
    def test_zero_mass_entries_are_skipped(self, name):
        env, ref = WindyGrid(), WindyGrid()
        a0, a1 = env.action_atoms()[:2]
        padded = _support_of(lambda s: [(0.0, np.array([0.3, 0.3])), (0.25, a0), (0.0, a1),
                                        (0.75, a1)])
        plain = _support_of(lambda s: [(0.25, a0), (0.75, a1)])
        got, want = _read_support(name, env, padded), _read_support(name, ref, plain)
        if name == "enumerate":
            got, want = [got.values, got.masses], [want.values, want.masses]
        assert _case_digest(got) == _case_digest(want)


@settings(max_examples=40, deadline=None)
@example(env_index=2, horizon=4, pair_index=0, skewed=True)   # WindyGrid: 12^4 paths
@example(env_index=0, horizon=4, pair_index=5, skewed=False)
@given(env_index=st.integers(0, len(REFEREE_ENVS) - 1), horizon=st.integers(1, 4),
       pair_index=st.integers(0, 1000), skewed=st.booleans())
def test_enumeration_dp_matches_path_walk(env_index, horizon, pair_index, skewed):
    env = REFEREE_ENVS[env_index]
    policy = SkewedPolicy(env) if skewed else behavior_policy_for(env)
    pairs = reachable_state_actions(env)
    s, a = pairs[pair_index % len(pairs)]
    got = enumerate_return_distribution(env, policy, s, a, horizon, mass_tol=1.0)
    want = enumerate_by_paths(env, policy, s, a, horizon)
    assert got.values.tobytes() == want.values.tobytes()
    np.testing.assert_allclose(got.masses, want.masses, rtol=0.0, atol=1e-12)
    assert abs(got.truncated_mass - want.truncated_mass) <= 1e-12


def test_enumeration_dp_matches_path_walk_from_a_non_atom_action():
    env = BranchingTree()
    policy = behavior_policy_for(env)
    s, a = env.initial_state(None), np.array([0.3])
    got = enumerate_return_distribution(env, policy, s, a, 3)
    want = enumerate_by_paths(env, policy, s, a, 3)
    assert got.values.tobytes() == want.values.tobytes()
    np.testing.assert_allclose(got.masses, want.masses, rtol=0.0, atol=1e-12)


class TestMakeEnv:
    @pytest.mark.parametrize("env_id,cls,attr,size", [
        ("stochastic-chain-7", StochasticChain, "length", 7),
        ("branching-tree-5", BranchingTree, "depth", 5),
        ("windy-grid-3", WindyGrid, "size", 3),
    ])
    def test_size_suffix_sets_the_size(self, env_id, cls, attr, size):
        env = make_env(env_id)
        assert type(env) is cls and getattr(env, attr) == size and env.env_id == env_id

    @pytest.mark.parametrize("env", [StochasticChain(2), BranchingTree(1), WindyGrid(7),
                                     ContinuousBandit1D(), coin_flip_env()])
    def test_env_id_round_trips(self, env):
        rebuilt = make_env(env.env_id)
        assert (rebuilt.env_id, rebuilt.gamma) == (env.env_id, env.gamma)
        if env.action_atoms() is None:   # no branch table: compare the reward model
            actions = np.linspace(-1.0, 1.0, 9)
            assert list(map(rebuilt.mean_reward, actions)) == list(map(env.mean_reward, actions))
            return

        def branch_rows(mdp):
            table = branch_table(mdp)
            return [(p, s_next.tobytes(), r, terminal)
                    for s, a in reachable_state_actions(mdp)
                    for p, s_next, r, terminal, _ in table.branches(table.state_id(s), a)]

        assert branch_rows(rebuilt) == branch_rows(env)

    def test_bare_keys_keep_defaults(self):
        assert make_env("stochastic-chain").env_id == "stochastic-chain-4"
        assert make_env("windy-grid").env_id == "windy-grid-5"
        assert make_env("continuous-bandit-1d").env_id == "continuous-bandit-1d"

    @pytest.mark.parametrize("env_id", [
        "stochastic-chainsaw", "stochastic-chain-07", "stochastic-chain-0", "branching-tree-x",
        "branching-tree--3", "windy-grid-", "windy-grid-1", "continuous-bandit-1d-2",
        "continuous-bandit", "coin-flip-2",
    ])
    def test_unknown_ids_rejected(self, env_id):
        with pytest.raises(ConfigError):
            make_env(env_id)

    def test_size_given_twice_rejected(self):
        with pytest.raises(ConfigError):
            make_env("windy-grid-3", size=4)
