"""Tests for the toy envs, datasets, and exact return-distribution oracles."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowrl.envs import (
    BranchingTree,
    ContinuousBandit1D,
    StochasticChain,
    ToyMdp,
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
    uniform_discrete_policy,
    uniform_table,
)
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
from scipy.stats import norm

from helpers import bellman_by_pairs, enumerate_by_paths, sample_from_outcomes


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
        policy = uniform_discrete_policy(env)
        atoms = enumerate_return_distribution(env, policy, env.initial_state(None),
                                              np.array([1.0]), horizon=200, mass_tol=1.0)
        assert atoms.values.size == 1
        assert atoms.values[0] == pytest.approx(10.0, abs=1e-6)
        assert atoms.truncated_mass == pytest.approx(1.0)

    def test_coin_env_two_atoms(self):
        env = coin_flip_env()
        policy = uniform_discrete_policy(env)
        atoms = enumerate_return_distribution(env, policy, env.initial_state(None),
                                              np.array([1.0]), horizon=3)
        np.testing.assert_allclose(atoms.values, [-1.0, 1.0])
        np.testing.assert_allclose(atoms.masses, [0.5, 0.5])
        assert atoms.truncated_mass == 0.0

    def test_depth3_tree_eight_atoms_match_monte_carlo(self):
        env = BranchingTree()
        policy = uniform_discrete_policy(env)
        s, a = env.initial_state(None), np.array([1.0])
        atoms = enumerate_return_distribution(env, policy, s, a, horizon=3)
        assert atoms.values.size == 8
        samples = monte_carlo_returns(env, policy, s, a, n=100_000, horizon=3, seed=5)
        w1 = wasserstein1_discrete(atoms.values, atoms.masses,
                                   samples, np.full(samples.size, 1.0 / samples.size))
        assert w1 < 0.01

    def test_mass_tol_guard(self):
        env = UnitRewardLoop()
        policy = uniform_discrete_policy(env)
        with pytest.raises(OracleError):
            enumerate_return_distribution(env, policy, env.initial_state(None),
                                          np.array([1.0]), horizon=10, mass_tol=1e-6)


class TestMonteCarlo:
    def test_deterministic_env_constant_samples(self):
        env = UnitRewardLoop()
        policy = uniform_discrete_policy(env)
        samples = monte_carlo_returns(env, policy, env.initial_state(None),
                                      np.array([1.0]), n=16, horizon=30, seed=0)
        assert np.allclose(samples, samples[0])

    def test_coin_env_clt_bound(self):
        env = coin_flip_env()
        policy = uniform_discrete_policy(env)
        n = 40_000
        samples = monte_carlo_returns(env, policy, env.initial_state(None),
                                      np.array([1.0]), n=n, horizon=2, seed=3)
        assert abs(samples.mean()) < 4.0 / np.sqrt(n)


@pytest.mark.slow
@pytest.mark.parametrize("env,horizon,mass_tol", [
    (StochasticChain(), 16, 0.05),
    (BranchingTree(), 3, 1e-9),
    (WindyGrid(), 5, 1.0),
])
def test_oracle_vs_monte_carlo_every_finite_env(env, horizon, mass_tol):
    policy = uniform_discrete_policy(env)
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


class TestDatasets:
    def test_single_transition(self):
        env = StochasticChain()
        ds = generate_dataset(env, behavior_policy_for(env), 1, seed=0)
        assert len(ds) == 1
        t = ds.transitions[0]
        assert t.s.shape == (env.state_dim,) and t.a.shape == (env.action_dim,)

    def test_same_seed_identical(self):
        env = BranchingTree()
        pol = behavior_policy_for(env)
        a = generate_dataset(env, pol, 200, seed=9)
        b = generate_dataset(env, pol, 200, seed=9)
        for ta, tb in zip(a.transitions, b.transitions):
            assert np.array_equal(ta.s, tb.s) and np.array_equal(ta.a, tb.a)
            assert ta.r == tb.r and ta.terminal == tb.terminal

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
        path = tmp_path / "data.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.env_id == ds.env_id and back.seed == ds.seed
        assert len(back) == len(ds)
        a, b = ds.arrays(), back.arrays()
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_make_env_registry(self):
        assert make_env("branching-tree").env_id == "branching-tree-3"
        with pytest.raises(Exception):
            make_env("no-such-env")


class TestBellmanOperator:
    @pytest.mark.parametrize("env", [BranchingTree(), StochasticChain()])
    def test_gamma_contraction(self, env):
        policy = uniform_discrete_policy(env)
        edges = histogram_edges(env.z_bounds, 60)
        width = edges[1] - edges[0]
        rng = np.random.default_rng(0)
        keys = [table_key(env, s, a) for s, a in reachable_state_actions(env, policy)]

        def random_table():
            table = {}
            for key in keys:
                m = rng.random(60) ** 3
                table[key] = m / m.sum()
            return table

        for _ in range(20):
            p, q = random_table(), random_table()
            tp = bellman_histogram_operator(env, policy, p, edges)
            tq = bellman_histogram_operator(env, policy, q, edges)
            before = max(wasserstein1_histograms(ReturnHistogram(edges, p[k]),
                                                 ReturnHistogram(edges, q[k])) for k in keys)
            after = max(wasserstein1_histograms(ReturnHistogram(edges, tp[k]),
                                                ReturnHistogram(edges, tq[k])) for k in keys)
            assert after <= env.gamma * before + 2 * width

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
        policy = uniform_discrete_policy(env)
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
        policy = uniform_discrete_policy(env)
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
        policy = SkewedPolicy(env) if skewed else uniform_discrete_policy(env)
        edges = histogram_edges(env.z_bounds, 60)
        rng = np.random.default_rng(1)
        table = {}
        for s, a in reachable_state_actions(env, policy):
            m = rng.random(60) ** 3
            table[table_key(env, s, a)] = m / m.sum()
        for _ in range(3):
            got = bellman_histogram_operator(env, policy, table, edges)
            ref = bellman_by_pairs(env, policy, table, edges)
            assert list(got) == list(ref)
            for key in ref:
                np.testing.assert_allclose(got[key], ref[key], rtol=0.0, atol=1e-12)
            table = ref


class TestBranchTable:
    @pytest.mark.parametrize("make", FINITE_ENVS + [UnitRewardLoop])
    def test_rows_equal_outcomes_in_order(self, make):
        env = make()
        table = branch_table(env)
        pairs = reachable_state_actions(env, uniform_discrete_policy(env))
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
        env, ref = make(), make()
        ref._sample_outcome = functools.partial(sample_from_outcomes, ref)
        policy = behavior_policy_for(env)
        got, want = generate_dataset(env, policy, 500, seed=3), generate_dataset(ref, policy, 500, 3)
        got_arr, want_arr = got.arrays(), want.arrays()
        for key in want_arr:
            assert got_arr[key].tobytes() == want_arr[key].tobytes()
        s, a = env.initial_state(None), env.action_atoms()[0]
        assert (monte_carlo_returns(env, policy, s, a, 200, env.episode_cap, seed=4).tobytes()
                == monte_carlo_returns(ref, policy, s, a, 200, env.episode_cap, seed=4).tobytes())

        def box(s, rng):  # actions off the atoms read outcomes() directly
            return rng.uniform(-1.0, 1.0, size=env.action_dim)

        for selector in (policy, box):
            assert (evaluate_policy(env, selector, 50, env.episode_cap, seed=5)
                    == evaluate_policy(ref, selector, 50, env.episode_cap, seed=5))
        assert branch_table(env).states and not branch_table(ref).states


@settings(max_examples=40, deadline=None)
@example(env_index=2, horizon=4, pair_index=0, skewed=True)   # WindyGrid: 12^4 paths
@example(env_index=0, horizon=4, pair_index=5, skewed=False)
@given(env_index=st.integers(0, len(REFEREE_ENVS) - 1), horizon=st.integers(1, 4),
       pair_index=st.integers(0, 1000), skewed=st.booleans())
def test_enumeration_dp_matches_path_walk(env_index, horizon, pair_index, skewed):
    env = REFEREE_ENVS[env_index]
    policy = SkewedPolicy(env) if skewed else uniform_discrete_policy(env)
    pairs = reachable_state_actions(env, policy)
    s, a = pairs[pair_index % len(pairs)]
    got = enumerate_return_distribution(env, policy, s, a, horizon, mass_tol=1.0)
    want = enumerate_by_paths(env, policy, s, a, horizon)
    assert got.values.tobytes() == want.values.tobytes()
    np.testing.assert_allclose(got.masses, want.masses, rtol=0.0, atol=1e-12)
    assert abs(got.truncated_mass - want.truncated_mass) <= 1e-12


def test_enumeration_dp_matches_path_walk_from_a_non_atom_action():
    env = BranchingTree()
    policy = uniform_discrete_policy(env)
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
                    for s, a in reachable_state_actions(mdp, uniform_discrete_policy(mdp))
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
