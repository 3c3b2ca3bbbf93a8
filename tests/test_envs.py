"""Tests for the toy envs, datasets, and exact return-distribution oracles."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowrl.envs import (
    BranchingTree,
    ContinuousBandit1D,
    Dataset,
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

    def test_episodes_are_contiguous_and_rows_are_branches(self):
        # rows run episode by episode: each row is a branch of outcomes(s, a), and the
        # next row continues from s_next unless the episode ended or hit the cap
        for env in (StochasticChain(), WindyGrid()):
            ds = generate_dataset(env, behavior_policy_for(env), 2000, seed=6)
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


# windy-grid-3 and continuous-bandit-1d datasets in the file format, each with
# the bytes of the columns that were saved
GRID_FILE = """windy-grid-3|uniform-discrete|1|4|9|2
1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0|-1.0,0.0|-0.05|1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0|0
1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0|0.0,1.0|-0.05|0.0,0.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0|0
0.0,0.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0|0.0,-1.0|-0.05|1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0|0
1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0|0.0,-1.0|-0.05|1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0|0
"""
GRID_COLUMNS = {
    "s": np.eye(9)[[0, 0, 3, 0]],
    "a": np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, -1.0]]),
    "r": np.full(4, -0.05),
    "s_next": np.eye(9)[[0, 3, 0, 0]],
    "terminal": np.zeros(4, dtype=bool),
}
BANDIT_FILE = """continuous-bandit-1d|uniform-box|2|3|1|1
0.0|-0.4767757315013672|0.3181506394428474|1.0|1
0.0|0.6284514811885606|0.2957766808613427|1.0|1
0.0|0.200201051931308|0.27749909902487|1.0|1
"""
BANDIT_COLUMNS = {
    "s": np.zeros((3, 1)),
    "a": np.frombuffer(bytes.fromhex("54ca945b7e83debfec7bda47461ce43fe0ba552530a0c93f"))
           .reshape(3, 1),
    "r": np.frombuffer(bytes.fromhex("f2f1e67f945cd43f6402ce5001eed23f54cdbe948bc2d13f")),
    "s_next": np.ones((3, 1)),
    "terminal": np.ones(3, dtype=bool),
}


class TestLoadDataset:
    @pytest.mark.parametrize("text,columns,provenance", [
        (GRID_FILE, GRID_COLUMNS, ("windy-grid-3", "uniform-discrete", 1)),
        (BANDIT_FILE, BANDIT_COLUMNS, ("continuous-bandit-1d", "uniform-box", 2)),
    ])
    def test_file_loads_to_saved_columns_bit_for_bit(self, tmp_path, text, columns, provenance):
        path = tmp_path / "data.txt"
        path.write_text(text)
        ds = load_dataset(path)
        assert (ds.env_id, ds.behavior_id, ds.seed) == provenance
        for key, want in columns.items():
            got = ds.arrays()[key]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        save_dataset(ds, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_text() == text

    @pytest.mark.parametrize("old,new", [
        ("|-1.0,0.0|-0.05|", "|-1.0,0.0|"),                        # four fields
        ("|-1.0,0.0|-0.05|", "|-1.0,0.0|abc|"),                    # non-numeric real
        ("1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0|-1.0", "1.0,0.0|-1.0"),   # state of width 2
        ("|1|4|9|2", "|one|4|9|2"),                                 # header seed not an int
        ("|1|4|9|2", "|1|4|9|x"),                                   # header dim not an int
        ("|1|4|9|2", "|1|5|9|2"),                                   # count != lines
        ("0.0,0.0,0.0,0.0|-1.0,0.0|-0.05|1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0|0",
         "0.0,0.0,0.0,0.0|-1.0,0.0|-0.05|1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0|7"),   # flag 7
        ("1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0|-1.0", "nan,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0|-1.0"),
        ("|-1.0,0.0|-0.05|", "|-1.0,0.0|inf|"),                    # infinite reward
    ], ids=["field-count", "non-numeric", "vector-width", "header-seed", "header-dim",
            "count", "terminal-flag", "nan-state", "inf-reward"])
    def test_malformed_file_raises_contract_error(self, tmp_path, old, new):
        assert old in GRID_FILE
        path = tmp_path / "data.txt"
        path.write_text(GRID_FILE.replace(old, new, 1))
        with pytest.raises(ContractError):
            load_dataset(path)


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

    @pytest.mark.parametrize("make", FINITE_ENVS)
    def test_structure_is_read_once_per_branch_table(self, make, monkeypatch):
        env = make()
        policy = uniform_discrete_policy(env)
        edges = histogram_edges(env.z_bounds, 60)
        table = uniform_table(make(), policy, edges)   # keys from a second instance
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
        assert list(uniform_table(env, policy, edges)) == list(table)
        assert len(reachable_state_actions(env, policy)) == len(table)
        assert calls == seen[0]

    def test_matches_per_pair_loop_after_the_table_gains_states(self):
        # c * s0 with c != 1 has the root's branches but is not a state the start
        # reaches: the table gains one such state before the first application
        # and one after each
        env, fresh = BranchingTree(), BranchingTree()
        policy = uniform_discrete_policy(env)
        s0 = env.initial_state(None)
        edges = histogram_edges(env.z_bounds, 60)
        monte_carlo_returns(env, policy, 0.5 * s0, np.array([0.3]), 10, 3, seed=0)
        keys = list(uniform_table(fresh, policy, edges))
        rng = np.random.default_rng(2)
        table = {}
        for key in keys:
            m = rng.random(60) ** 3
            table[key] = m / m.sum()
        for i in range(3):
            got = bellman_histogram_operator(env, policy, table, edges)
            ref = bellman_by_pairs(env, policy, table, edges)
            assert list(got) == list(ref) == keys
            for key in ref:
                np.testing.assert_allclose(got[key], ref[key], rtol=0.0, atol=1e-12)
            monte_carlo_returns(env, policy, (0.25 + i) * s0, np.array([0.3]), 10, 3, seed=i)
            table = ref
        assert len(branch_table(env).states) == len(branch_table(fresh).states) + 4


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
        policy = SkewedPolicy(env) if skewed else uniform_discrete_policy(env)
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
        for policy in (uniform_discrete_policy(env), behavior_policy_for(env).__call__):
            out = monte_carlo_returns(env, policy, leaf, np.array([1.0]), 50, 5, seed=0)
            assert out.tobytes() == np.zeros(50).tobytes()

    def test_off_atom_start_action(self):
        # action 0.3 makes the first (+1 or -1) edge go left with probability 0.515
        env = BranchingTree()
        policy = uniform_discrete_policy(env)
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
        policy = uniform_discrete_policy(env)
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
        got = monte_carlo_returns(env, Tilted(), s, a, 300, 3, seed=1)
        want = monte_carlo_returns(env, Tilted().__call__, s, a, 300, 3, seed=1)
        assert got.tobytes() == want.tobytes()
        ds = generate_dataset(env, Tilted(), 30, seed=1)
        assert (ds.a == 0.3).all()
        assert (evaluate_policy(env, Tilted(), 300, 3, seed=1)
                == evaluate_policy(env, Tilted().__call__, 300, 3, seed=1))

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
        policy = SkewedPolicy(env) if skewed else uniform_discrete_policy(env)
        batched = evaluate_policy(env, policy, 20_000, horizon, seed=31)
        stepwise = evaluate_policy(env, support_sampler(policy), 2000, horizon, seed=32)
        spread = np.sqrt(batched.std_return ** 2 / batched.episodes
                         + stepwise.std_return ** 2 / stepwise.episodes)
        assert abs(batched.mean_return - stepwise.mean_return) <= 5 * spread

    @pytest.mark.parametrize("skewed", [False, True])
    def test_evaluation_mean_matches_enumeration(self, skewed):
        env = BranchingTree()
        policy = SkewedPolicy(env) if skewed else uniform_discrete_policy(env)
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

        for module in (envs_base, envs_oracle, metrics_module):
            monkeypatch.setattr(module, "step", counted_step)
        env = WindyGrid()
        policy = uniform_discrete_policy(env)
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

    def test_horizon_below_one_rejected(self):
        env = WindyGrid()
        policy = uniform_discrete_policy(env)
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
        s, a = env.initial_state(None), env.action_atoms()[0]
        return monte_carlo_returns(env, policy, s, a, n, horizon, seed)
    return generate_dataset(env, policy, n, seed)


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
            _rollout(name, env, uniform_discrete_policy(env), **{arg: bad})
        assert not branch_table(env).states

    @pytest.mark.parametrize("name", ROLLOUTS)
    def test_numpy_integers_accepted(self, name):
        env = StochasticChain()
        policy = uniform_discrete_policy(env)
        got = _rollout(name, env, policy, np.int64(7), np.int64(4), np.int64(3))
        want = _rollout(name, env, policy, 7, 4, 3)
        if name == "generate_dataset":
            got, want = got.arrays(), want.arrays()
            assert all(got[k].tobytes() == want[k].tobytes() for k in want)
        else:
            assert np.array_equal(getattr(got, "mean_return", got),
                                  getattr(want, "mean_return", want))


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
