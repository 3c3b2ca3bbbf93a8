"""Which workloads each metric covers, and which spans the per-layer metrics read.

The names, units and directions of the gated end-to-end metrics and of the
per-layer metrics are in ``BENCHMARK.json``; every workload reports every
gated metric. ``REPORT`` lists the end-to-end metrics that are printed but
not gated, with their units and the workloads they belong to. ``LAYER_ON``
gives the workloads each per-layer metric of ``BENCHMARK.json`` covers;
outside them a per-layer metric reads 0 with a sample count of 0.
"""

TREE, BANDIT, GRID = "fit-tree", "extract-bandit", "oracle-grid"
ALL = (TREE, BANDIT, GRID)
TRAIN = (TREE, BANDIT)

# name: (unit, workloads)
REPORT = {
    "import_s": ("s", ALL),
    "loop_ms": ("ms", ALL),
    "eval_ms": ("ms", ALL),
    "ref_ms": ("ms", ALL),
    "train_steps_per_s": ("1/s", TRAIN),
    "act_ms": ("ms", (BANDIT,)),
    "dataset_transitions_per_s": ("1/s", (GRID,)),
    "mc_episodes_per_s": ("1/s", (GRID,)),
    "oracle_s": ("s", (GRID,)),
    "w1_flow": ("return", TRAIN),
    "w1_c51": ("return", (TREE,)),
    "w1_iqn": ("return", (TREE,)),
    "eval_return": ("return", (BANDIT,)),
    "eval_return_onestep": ("return", (BANDIT,)),
    "error_rate": ("ratio", ALL),
}

MODULES = ("diffcore", "flowkit", "critic", "baselines", "policies", "envs", "metrics")

LAYER_ON = {
    "diffcore.mlp_value_ms": TRAIN,
    "diffcore.mlp_jvp_ms": (TREE,),
    "diffcore.mlp_fwd_bwd_ms": TRAIN,
    "diffcore.backward_ms": TRAIN,
    "diffcore.adam_ms": TRAIN,
    "diffcore.ema_ms": TRAIN,
    "flowkit.euler_jvp_ms": (TREE,),
    "flowkit.euler_to_times_ms": (TREE,),
    "flowkit.euler_ms": (BANDIT,),
    "critic.value_flow_loss_ms": TRAIN,
    "critic.bootstrap_row_frac": TRAIN,
    "critic.clip_frac": TRAIN,
    "critic.dcfm": TRAIN,
    "critic.bcfm": TRAIN,
    "critic.mean_weight": TRAIN,
    "baselines.c51_loss_ms": (TREE,),
    "baselines.iqn_loss_ms": (TREE,),
    "baselines.critic_histogram_ms": (TREE,),
    "policies.bc_flow_loss_ms": (BANDIT,),
    "policies.one_step_loss_ms": (BANDIT,),
    "policies.rejection_sample_ms": (BANDIT,),
    "policies.one_step_act_ms": (BANDIT,),
    "envs.step_us": (GRID,),
    "envs.dataset_arrays_ms": ALL,
    "envs.enumerate_ms": (GRID,),
    "envs.enumerate_atoms": (GRID,),
    "envs.bellman_op_ms": (GRID,),
    "envs.bellman_iters": (GRID,),
    "envs.mc_episode_us": (GRID,),
    "metrics.eval_episode_us": (BANDIT, GRID),
    "metrics.w1_ms": ALL,
    **{f"{m}.self_share": ALL for m in MODULES},
    "bench.driver_share": ALL,
    "trace.overhead_frac": ALL,
}

# Per-layer metrics read from span self times: name -> (span names, scale).
SPAN_LAYER = {
    "diffcore.backward_ms": (("diffcore.Tensor.backward",), 1e3),
    "diffcore.adam_ms": (("diffcore.adam_step",), 1e3),
    "diffcore.ema_ms": (("diffcore.ema_update",), 1e3),
    "critic.value_flow_loss_ms": (("critic.value_flow_loss",), 1e3),
    "baselines.c51_loss_ms": (("baselines.c51_project_and_loss",), 1e3),
    "baselines.iqn_loss_ms": (("baselines.quantile_huber_loss",), 1e3),
    "baselines.critic_histogram_ms": (("baselines.critic_histogram",), 1e3),
    "policies.bc_flow_loss_ms": (("policies.bc_flow_loss",), 1e3),
    "policies.one_step_loss_ms": (("policies.one_step_policy_loss",), 1e3),
    "policies.rejection_sample_ms": (("policies.rejection_sample_action",), 1e3),
    "policies.one_step_act_ms": (("policies.OneStepPolicy.act",), 1e3),
    "envs.dataset_arrays_ms": (("envs.Dataset.arrays",), 1e3),
    "envs.enumerate_ms": (("envs.enumerate_return_distribution",), 1e3),
    "envs.bellman_op_ms": (("envs.bellman_histogram_operator",), 1e3),
    "metrics.w1_ms": (("metrics.wasserstein1_samples", "metrics.wasserstein1_discrete",
                       "metrics.wasserstein1_histograms"), 1e3),
}
