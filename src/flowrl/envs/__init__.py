"""Toy MDPs, datasets, and exact return-distribution oracles."""

from flowrl.envs.base import (
    Dataset,
    ToyMdp,
    UniformBoxPolicy,
    UniformDiscretePolicy,
    behavior_policy_for,
    generate_dataset,
    load_dataset,
    save_dataset,
    step,
)
from flowrl.envs.oracle import (
    ReturnAtomSet,
    bellman_histogram_operator,
    enumerate_return_distribution,
    monte_carlo_returns,
    project_masses,
    reachable_state_actions,
    table_key,
    uniform_discrete_policy,
    uniform_table,
)
from flowrl.envs.toys import (
    ENV_REGISTRY,
    BranchingTree,
    ContinuousBandit1D,
    StochasticChain,
    WindyGrid,
    coin_flip_env,
    make_env,
)

__all__ = [
    "Dataset", "ToyMdp", "UniformBoxPolicy", "UniformDiscretePolicy",
    "behavior_policy_for", "generate_dataset", "load_dataset", "save_dataset", "step",
    "ReturnAtomSet", "bellman_histogram_operator", "enumerate_return_distribution",
    "monte_carlo_returns", "project_masses", "reachable_state_actions", "table_key",
    "uniform_discrete_policy", "uniform_table",
    "ENV_REGISTRY", "BranchingTree", "ContinuousBandit1D", "StochasticChain",
    "WindyGrid", "coin_flip_env", "make_env",
]
