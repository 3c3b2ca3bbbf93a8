"""The three benchmark workloads: fit-tree, extract-bandit and oracle-grid.

Each workload is a closed loop in one process and one thread: the next
operation starts when the previous one has finished. The loop repeats a fixed
cycle of operations; every cycle holds an evaluation operation, so the acting
and evaluation paths are timed inside the loop as well as training. Quality
figures (W1 to an exact reference, evaluation returns, loss diagnostics) come
from the first ``QUALITY_ITERS`` training iterations, so they depend on the
seed alone; the loop then keeps running until the time budget is spent, and
only its rate depends on the clock.

Every call into a public ``flowrl`` function goes through ``Run.call`` with
the span name ``<module>.<function>``. Nothing in ``flowrl`` is patched.
"""

from __future__ import annotations

import dataclasses
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy.special import erf
from scipy.stats import norm

from flowrl.baselines import CategoricalCritic, QuantileCritic, c51_project_and_loss, \
    critic_histogram, quantile_huber_loss
from flowrl.critic import CriticBatch, CriticConfig, ReturnField, antithetic_noises, \
    sample_return, value_flow_loss
from flowrl.diffcore import AdamState, adam_step, backward, clone_params, ema_update, \
    load_params, mlp_forward, mlp_value, mlp_value_and_input_jvp, save_params
from flowrl.envs import bellman_histogram_operator, behavior_policy_for, \
    enumerate_return_distribution, generate_dataset, load_dataset, make_env, \
    monte_carlo_returns, save_dataset, table_key, uniform_table
from flowrl import flowkit
from flowrl.errors import IntegrationError, OracleError, TrainingError
from flowrl.flowkit import IntegrationConfig, euler_integrate, euler_integrate_with_derivative, \
    sample_times
from flowrl.metrics import evaluate_policy, histogram_edges, histogram_from_atoms, \
    histogram_from_samples, wasserstein1_discrete, wasserstein1_histograms, \
    wasserstein1_samples
from flowrl.policies import BcFlowPolicy, OneStepPolicy, bc_flow_loss, \
    one_step_policy_loss, rejection_sample_action

from tracing import Tracer

# Shared by both network-training workloads.
HIDDEN = (64, 64)
BATCH = 256
FLOW_STEPS = 10
ENSEMBLE = 2
LR = 5e-3
EMA_RHO = 0.05
DATASET_SIZE = 4096
QUALITY_ITERS = 100     # training iterations behind the quality figures
TRAIN_PER_CYCLE = 4     # training iterations per loop cycle, then one evaluation operation
DIAG_WINDOW = 10        # iterations averaged for the loss diagnostics
SETUP_REPEATS = 7
REF_SPAN = 2            # kernel runs on either side of an operation that set its unit
PROBE_REPEATS = 30
FLOW_ERRORS = (IntegrationError, TrainingError, OracleError)


class Run:
    """Settings, counters and results of one benchmark run."""

    def __init__(self, seed: int, seconds: float, tracer: Tracer, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: dict[str, dict] = {}
        self.metrics: dict[str, dict] = {}
        self.layer: dict[str, dict] = {}
        self.eval_episodes: list[int] = []   # episodes of each traced evaluate_policy call
        self.iter_times: list[tuple[float, bool, str]] = []   # (seconds, traced, kind)
        self.ref_times: list[float] = []    # reference kernel between loop operations

    def put_loop_time(self, stem: str, seconds: float, cal: float, n: int) -> None:
        """A loop time as ``<stem>_ms`` and, in units of the reference kernel, ``<stem>_cal``."""
        self.put(f"{stem}_ms", 1e3 * seconds, "ms", n)
        self.put(f"{stem}_cal", cal, "cal", n)

    def call(self, name, fn, *args, **kwargs):
        return self.tracer.call(name, fn, *args, **kwargs)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def attempt(self, name, fn, *args, **kwargs):
        """One counted operation; a flowrl runtime error marks it failed (returns None)."""
        self.attempted += 1
        try:
            return self.call(name, fn, *args, **kwargs)
        except FLOW_ERRORS as exc:
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def evaluate(self, env, selector, episodes: int, horizon: int, seed: int):
        """A counted ``evaluate_policy`` call; traced calls record their episode count."""
        if self.tracer.active:
            self.eval_episodes.append(episodes)
        return self.attempt("metrics.evaluate_policy", evaluate_policy, env, selector,
                            episodes, horizon, seed)

    def check(self, name: str, ok: bool, value=None) -> None:
        """One output check; a failed check counts as a failed operation."""
        self.attempted += 1
        self.checks[name] = {"ok": bool(ok), "value": value}
        if not ok:
            self.fail(f"check {name}: {value}")

    def put(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit, "n": int(n)}

    def put_layer(self, name: str, value: float, n: int) -> None:
        self.layer[name] = {"value": float(value), "n": int(n)}

    def timed_setup(self, build) -> dict:
        """Run ``build()`` SETUP_REPEATS times; put the median as ``setup_s``, return the last."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = build()
            times.append(time.perf_counter() - t0)
        self.put("setup_s", statistics.median(times), "s", len(times))
        return state

    def timed_loop(self, cycle: list[str], body, quality_ops: int, on_quality=lambda: None
                   ) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
        """Run ``body(i, kind)`` until ``quality_ops`` operations are done and the budget is spent.

        Operation ``i`` is of kind ``cycle[i % len(cycle)]``. ``on_quality``
        runs once, right after operation ``quality_ops``. The reference kernel
        is timed after every operation. In a traced run the tracer is on for
        the odd-numbered occurrences of each kind only, so traced and untraced
        runs of the same operation can be compared, and every kind is traced
        at least once. Returns each kind's operation times in seconds, and in
        units of the median kernel time over the REF_SPAN operations on either
        side, which follows the host's speed over the same second.
        """
        tr = self.tracer
        seen: dict[str, int] = {}
        start = time.perf_counter()
        i = 0
        while i < quality_ops or time.perf_counter() - start < self.seconds:
            kind = cycle[i % len(cycle)]
            seen[kind] = seen.get(kind, 0) + 1
            traced = tr.enabled and seen[kind] % 2 == 1
            tr.set_active(traced)
            t0 = time.perf_counter()
            body(i, kind)
            self.iter_times.append((time.perf_counter() - t0, traced, kind))
            tr.set_active(False)
            t0 = time.perf_counter()
            reference_kernel()
            self.ref_times.append(time.perf_counter() - t0)
            i += 1
            if i == quality_ops:
                on_quality()
        tr.set_active(True)
        ref = self.ref_times
        self.put("ref_ms", 1e3 * statistics.median(ref), "ms", len(ref))
        times: dict[str, list[float]] = {kind: [] for kind in cycle}
        cals: dict[str, list[float]] = {kind: [] for kind in cycle}
        for i, (seconds, _, kind) in enumerate(self.iter_times):
            times[kind].append(seconds)
            around = ref[max(0, i - REF_SPAN):i + REF_SPAN + 1]
            cals[kind].append(seconds / statistics.median(around))
        return times, cals


_REF_X = np.random.default_rng(0).normal(0.0, 1.0, (256, 64))
_REF_W = np.random.default_rng(1).normal(0.0, 0.125, (64, 64))


def reference_kernel() -> float:
    """Fixed work that uses no flowrl code: 256x64 matmuls and erf, then a
    Python loop over small numpy calls, the two kinds of work flowrl does.

    Its duration, measured between the loop's operations, is the unit the
    gated timings are expressed in, so they follow the host's speed at the
    time of the run. The matmul part takes about 70 % of the time because
    that mix followed the workloads' speed best (see NOTES.md).
    """
    h = _REF_X
    for _ in range(16):
        h = erf(h @ _REF_W)
    v = np.zeros(25)
    acc = 0.0
    for i in range(1100):
        v[i % 25] = i
        acc += float(np.argmax(v))
    return acc + float(h[0, 0])


def derived_seed(*parts: int) -> int:
    """A plain int seed from several ints, for APIs that store their seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# -- training helpers -------------------------------------------------------------

@dataclasses.dataclass
class Learner:
    net: object
    target: object | None
    adam: AdamState


def new_learner(net, with_target: bool) -> Learner:
    target = net.with_params(clone_params(net.params)) if with_target else None
    return Learner(net, target, AdamState.for_params(net.params))


def update(run: Run, learner: Learner, result) -> None:
    """loss.backward -> adam_step -> ema_update; ``result`` is (loss, tape, ...) or None."""
    if result is None:
        return
    loss, tape = result[0], result[1]
    value = float(loss.data)
    if not np.isfinite(value):
        run.fail(f"non-finite loss {value}")
        return
    run.call("diffcore.Tensor.backward", loss.backward)
    grads = {k: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
             for k, leaf in tape.params.items()}
    try:   # adam_step raises TrainingError on a non-finite gradient
        learner.net.params, learner.adam = run.call(
            "diffcore.adam_step", adam_step, learner.net.params, grads, learner.adam, LR)
    except TrainingError as exc:
        run.fail(f"diffcore.adam_step: {exc}")
        return
    if learner.target is not None:
        learner.target.params = run.call("diffcore.ema_update", ema_update,
                                         learner.target.params, learner.net.params, EMA_RHO)


def next_action_sampler(env):
    """Behaviour-policy next actions for a whole batch, one RNG call per batch."""
    atoms = env.action_atoms()
    if atoms is None:
        dim = env.action_dim
        return lambda s_next, rng: rng.uniform(-1.0, 1.0, size=(len(s_next), dim))
    grid = np.stack(atoms)
    return lambda s_next, rng: grid[rng.integers(len(grid), size=len(s_next))]


def batch_from(arrays: dict, rng: np.random.Generator) -> CriticBatch:
    idx = rng.integers(len(arrays["r"]), size=BATCH)
    return CriticBatch(arrays["s"][idx], arrays["a"][idx], arrays["r"][idx],
                       arrays["s_next"][idx], arrays["terminal"][idx])


def build_training(run: Run, env_id: str, make_extra) -> dict:
    """Env, dataset, ``arrays()`` (once) and the flow-critic ensemble."""
    env = check_env_id(run, env_id)
    dataset = run.call("envs.generate_dataset", generate_dataset, env,
                       behavior_policy_for(env), DATASET_SIZE, run.seed)
    arrays = run.call("envs.Dataset.arrays", dataset.arrays)
    init = np.random.default_rng((run.seed, 1))
    sd, ad = env.state_dim, env.action_dim
    learners = {f"flow{k}": new_learner(run.call("critic.ReturnField.create", ReturnField.create,
                                                 sd, ad, init, HIDDEN), True)
                for k in range(ENSEMBLE)}
    learners.update(make_extra(env, sd, ad, init))
    cfg = CriticConfig.for_env(env, flow_steps=FLOW_STEPS, ensemble_size=ENSEMBLE)
    return dict(env=env, dataset=dataset, arrays=arrays, learners=learners, cfg=cfg)


class Trainer:
    """Shared closed loop of the two training workloads."""

    def __init__(self, run: Run, state: dict):
        self.run = run
        self.env, self.cfg = state["env"], state["cfg"]
        self.arrays, self.learners = state["arrays"], state["learners"]
        self.flows = [self.learners[f"flow{k}"] for k in range(ENSEMBLE)]
        self.sampler = next_action_sampler(self.env)
        self.rng = np.random.default_rng((run.seed, 2))
        self.diags: list[dict] = []
        self.boot: list[float] = []
        self.snap: dict = {}

    def next_batch(self) -> CriticBatch:
        batch = batch_from(self.arrays, self.rng)
        self.boot.append(float((~batch.terminal).mean()))
        return batch

    def update_flows(self, batch: CriticBatch) -> None:
        for learner in self.flows:
            result = self.run.attempt("critic.value_flow_loss", value_flow_loss, learner.net,
                                      learner.target, self.sampler, batch, self.cfg, self.rng)
            if result is not None:
                self.diags.append(result[2])
            update(self.run, learner, result)

    def _snapshot(self) -> None:
        self.snap.update({k: l.net.with_params(clone_params(l.net.params))
                          for k, l in self.learners.items()})
        window = self.diags[-DIAG_WINDOW * ENSEMBLE:]
        self.snap["diag"] = {k: float(np.mean([d[k] for d in window]))
                             for k in ("dcfm", "bcfm", "mean_weight")}
        self.snap["diag_n"] = len(window)

    def train(self, body, evaluate) -> None:
        """Cycles of TRAIN_PER_CYCLE ``body()`` iterations and one ``evaluate(cycle)``."""
        cycle = ["train"] * TRAIN_PER_CYCLE + ["eval"]

        def op(i, kind):
            if kind == "train":
                body()
            else:
                evaluate(i // len(cycle))

        quality_ops = QUALITY_ITERS // TRAIN_PER_CYCLE * len(cycle)
        times, cals = self.run.timed_loop(cycle, op, quality_ops, self._snapshot)
        train, evals = times["train"], times["eval"]
        self.run.put("train_steps_per_s", len(train) / sum(train), "1/s", len(train))
        self.run.put_loop_time("loop", statistics.median(train), statistics.median(cals["train"]),
                               len(train))
        self.run.put_loop_time("eval", statistics.median(evals), statistics.median(cals["eval"]),
                               len(evals))

    def report_diagnostics(self) -> None:
        for key, value in self.snap["diag"].items():
            self.run.put_layer(f"critic.{key}", value, self.snap["diag_n"])
        self.run.put_layer("critic.bootstrap_row_frac", np.mean(self.boot), len(self.boot))

    def finish(self, pairs, n_samples: int, with_jvp: bool, with_flowkit: bool) -> None:
        """Round-trip checks, then (traced runs only) the probes on the live nets."""
        run = self.run
        check_params_round_trip(run, {k: self.snap[k].params for k in self.learners})
        self.report_diagnostics()
        if not run.tracer.enabled:
            return
        run.tracer.set_active(False)
        probe_rng = np.random.default_rng((run.seed, 9))
        flow = self.flows[0]
        flow_probes(run, flow.net, flow.target, batch_from(self.arrays, probe_rng),
                    self.sampler, probe_rng, with_jvp, with_flowkit)
        clip_fraction(run, [self.snap[f"flow{k}"] for k in range(ENSEMBLE)], pairs, self.cfg,
                      n_samples, (run.seed, 10))


# -- checks --------------------------------------------------------------------------

def check_env_id(run: Run, env_id: str):
    """``make_env`` ignores size suffixes, so a different env counts as a failure."""
    env = run.call("envs.make_env", make_env, env_id)
    run.check("make_env_round_trip", env.env_id == env_id, [env_id, env.env_id])
    return env


def check_params_round_trip(run: Run, nets: dict[str, dict]) -> None:
    for name, params in nets.items():
        path = run.workdir / f"{name}.params.json"
        run.call("diffcore.save_params", save_params, params, path)
        back = run.call("diffcore.load_params", load_params, path)
        same = set(back) == set(params) and all(
            back[k].dtype == params[k].dtype and back[k].shape == params[k].shape
            and back[k].tobytes() == params[k].tobytes() for k in params)
        run.check(f"params_round_trip.{name}", same)


def check_dataset_round_trip(run: Run, dataset) -> None:
    path = run.workdir / "dataset.txt"
    run.call("envs.save_dataset", save_dataset, dataset, path)
    back = run.call("envs.load_dataset", load_dataset, path)
    a = run.call("envs.Dataset.arrays", dataset.arrays)
    b = run.call("envs.Dataset.arrays", back.arrays)
    same = (back.env_id == dataset.env_id and back.seed == dataset.seed
            and all(a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
                    and a[k].tobytes() == b[k].tobytes() for k in a))
    run.check("dataset_round_trip", same)


def quantile_samples(values: np.ndarray, masses: np.ndarray, n: int) -> np.ndarray:
    """n equally weighted samples at the mid-fraction quantiles of an atom set."""
    order = np.argsort(values)
    cdf = np.cumsum(np.asarray(masses)[order])
    u = (np.arange(n) + 0.5) / n
    return np.asarray(values)[order][np.minimum(np.searchsorted(cdf, u), len(cdf) - 1)]


def check_w1_agreement(run: Run, x: np.ndarray, y: np.ndarray, edges: np.ndarray) -> None:
    """The three W1 functions agree on one pair of equal-size samples on bin centres."""
    centers = 0.5 * (edges[:-1] + edges[1:])

    def snap(v):
        return centers[np.clip(np.searchsorted(edges, v, side="right") - 1, 0, centers.size - 1)]

    x, y = snap(x), snap(y)
    n = x.size
    w_s = run.call("metrics.wasserstein1_samples", wasserstein1_samples, x, y)
    w_d = run.call("metrics.wasserstein1_discrete", wasserstein1_discrete,
                   x, np.full(n, 1.0 / n), y, np.full(n, 1.0 / n))
    hx, _ = run.call("metrics.histogram_from_samples", histogram_from_samples, x, edges)
    hy, _ = run.call("metrics.histogram_from_samples", histogram_from_samples, y, edges)
    w_h = run.call("metrics.wasserstein1_histograms", wasserstein1_histograms, hx, hy)
    spread = max(w_s, w_d, w_h) - min(w_s, w_d, w_h)
    run.check("w1_functions_agree", spread <= 1e-9 * (1.0 + w_s), [w_s, w_d, w_h])


# -- probes (traced runs only) ----------------------------------------------------

def median_ms(fn, repeats: int = PROBE_REPEATS) -> tuple[float, int]:
    """Median wall time of ``fn()`` in ms after one warm-up call."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times), repeats


def flow_probes(run: Run, field: ReturnField, target: ReturnField, batch: CriticBatch,
                sampler, rng: np.random.Generator, with_jvp: bool, with_flowkit: bool) -> None:
    """Timed direct calls into the MLP and integrator layers on a real batch."""
    n = len(batch)
    t = sample_times(rng, n)
    eps = rng.standard_normal(n)
    x = np.concatenate([eps[:, None], t[:, None], batch.s, batch.a], axis=1)   # (z, t, s, a)
    run.put_layer("diffcore.mlp_value_ms",
                  *median_ms(lambda: mlp_value(field.params, x, field.spec)))
    stacked = np.concatenate([x, x])
    seed = np.ones((2 * n, 1))
    run.put_layer("diffcore.mlp_fwd_bwd_ms", *median_ms(
        lambda: backward(mlp_forward(field.params, stacked, field.spec), seed)))
    if with_jvp:
        tangent = np.zeros_like(x)
        tangent[:, 0] = 1.0
        run.put_layer("diffcore.mlp_jvp_ms", *median_ms(
            lambda: mlp_value_and_input_jvp(field.params, x, field.spec, tangent)))
    if with_flowkit:
        cond = target.conditioned(batch.s_next, sampler(batch.s_next, rng))
        grid = IntegrationConfig(FLOW_STEPS)
        run.put_layer("flowkit.euler_jvp_ms", *median_ms(
            lambda: euler_integrate_with_derivative(cond, eps, grid)))
        # ROADMAP direction 4 deletes this integrator; the probe then reads 0 with n=0.
        to_times = getattr(flowkit, "euler_integrate_to_times", None)
        if to_times is not None:
            run.put_layer("flowkit.euler_to_times_ms", *median_ms(
                lambda: to_times(cond, eps, t, FLOW_STEPS)))


def clip_fraction(run: Run, fields: list[ReturnField], pairs, cfg: CriticConfig,
                  n_samples: int, seed) -> None:
    """Share of return draws outside [z_lo, z_hi], from unclipped sample_return calls."""
    loose = dataclasses.replace(cfg, clip_returns=False)
    rng = np.random.default_rng(seed)
    outside = total = 0
    for field in fields:
        for s, a in pairs:
            z = sample_return(field, s, a, rng.standard_normal(n_samples), loose)
            outside += int(((z < cfg.z_lo) | (z > cfg.z_hi)).sum())
            total += z.size
    run.put_layer("critic.clip_frac", outside / total, total)


# -- fit-tree -------------------------------------------------------------------------

TREE_ID = "branching-tree-3"
TREE_BINS = 80
TREE_SAMPLES = 2000
C51_ATOMS = 51
IQN_QUANTILES = 8       # 32 would make the pairwise Huber term dominate the workload
IQN_KAPPA = 1.0


def fit_tree(run: Run) -> None:
    def extra(env, sd, ad, init):
        z_lo, z_hi = env.z_bounds
        c51 = run.call("baselines.CategoricalCritic.create", CategoricalCritic.create,
                       sd, ad, C51_ATOMS, z_lo, z_hi, init, HIDDEN)
        iqn = run.call("baselines.QuantileCritic.create", QuantileCritic.create,
                       sd, ad, init, HIDDEN)
        return {"c51": new_learner(c51, True), "iqn": new_learner(iqn, True)}

    state = run.timed_setup(lambda: build_training(run, TREE_ID, extra))
    tr = Trainer(run, state)
    env, cfg = tr.env, tr.cfg
    c51, iqn = tr.learners["c51"], tr.learners["iqn"]

    # The exact return law at both start pairs, the reference of every W1 below.
    policy = behavior_policy_for(env)
    s0 = env.initial_state(None)
    pairs = [(s0, a) for a in env.action_atoms()]
    edges = histogram_edges(env.z_bounds, TREE_BINS)
    refs = []
    for s, a in pairs:
        atoms = run.call("envs.enumerate_return_distribution", enumerate_return_distribution,
                         env, policy, s, a, env.depth)
        refs.append((atoms, run.call("metrics.histogram_from_atoms", histogram_from_atoms,
                                     atoms.values, atoms.masses, edges)))
    names = [f"flow{k}" for k in range(ENSEMBLE)] + ["c51", "iqn"]

    def w1_at(nets: dict, k: int, rng) -> dict[str, float]:
        """W1 of every critic's histogram at start pair ``k`` to the exact law."""
        (s, a), (_, ref) = pairs[k], refs[k]
        out = {}
        for name in names:
            hist = run.call("baselines.critic_histogram", critic_histogram, nets[name], s, a,
                            TREE_SAMPLES, TREE_BINS, env.z_bounds, rng, cfg)
            out[name] = run.call("metrics.wasserstein1_histograms", wasserstein1_histograms,
                                 hist, ref)
        return out

    def body():
        batch = tr.next_batch()
        tr.update_flows(batch)
        update(run, c51, run.attempt("baselines.c51_project_and_loss", c51_project_and_loss,
                                     c51.net, c51.target, tr.sampler, batch, tr.rng, cfg.gamma))
        update(run, iqn, run.attempt("baselines.quantile_huber_loss", quantile_huber_loss,
                                     iqn.net, iqn.target, tr.sampler, batch, tr.rng, cfg.gamma,
                                     IQN_KAPPA, IQN_QUANTILES))

    def evaluate(c):
        live = {name: tr.learners[name].net for name in names}
        w1 = w1_at(live, c % len(pairs), np.random.default_rng((run.seed, 5, c)))
        run.check("eval_w1_finite", all(np.isfinite(v) for v in w1.values()))

    tr.train(body, evaluate)

    # Quality: the same histograms of the snapshot nets, at both start pairs.
    rng = np.random.default_rng((run.seed, 3))
    w1 = {"flow": [], "c51": [], "iqn": []}
    for k in range(len(pairs)):
        for name, value in w1_at(tr.snap, k, rng).items():
            w1["flow" if name.startswith("flow") else name].append(value)

    x = run.call("critic.sample_return", sample_return, tr.snap["flow0"], *pairs[0],
                 rng.standard_normal(TREE_SAMPLES), cfg)
    atoms = refs[0][0]
    check_w1_agreement(run, x, quantile_samples(atoms.values, atoms.masses, TREE_SAMPLES), edges)
    check_dataset_round_trip(run, state["dataset"])

    run.put("w1_flow", np.mean(w1["flow"]), "return", len(w1["flow"]))
    run.put("w1_c51", np.mean(w1["c51"]), "return", len(w1["c51"]))
    run.put("w1_iqn", np.mean(w1["iqn"]), "return", len(w1["iqn"]))
    tr.finish(pairs, TREE_SAMPLES, with_jvp=True, with_flowkit=True)


# -- extract-bandit -------------------------------------------------------------------

BANDIT_ID = "continuous-bandit-1d"
BANDIT_ACTIONS = (-0.5, 0.0, 0.5)   # evaluation pairs: both reward modes and the dip
BANDIT_BINS = 64
BANDIT_SAMPLES = 4000
N_CANDIDATES = 32
ACT_Q_NOISES = 8
LOSS_Q_NOISES = 4
ALPHA = 1.0
EVAL_EPISODES = 256
LOOP_ACT_EPISODES = 32      # episodes (one step each) per evaluation operation in the loop


def clipped_normal_histogram(mu: float, sigma: float, edges: np.ndarray):
    """Exact binned law of clip(N(mu, sigma), edges[0], edges[-1])."""
    cdf = norm.cdf((edges - mu) / sigma)
    masses = np.diff(cdf)
    masses[0] += cdf[0]
    masses[-1] += 1.0 - cdf[-1]
    return histogram_from_atoms(0.5 * (edges[:-1] + edges[1:]), masses, edges)


def extract_bandit(run: Run) -> None:
    def extra(env, sd, ad, init):
        bc = run.call("policies.BcFlowPolicy.create", BcFlowPolicy.create, sd, ad, init, HIDDEN)
        one = run.call("policies.OneStepPolicy.create", OneStepPolicy.create,
                       sd, ad, init, HIDDEN)
        return {"bc": new_learner(bc, False), "one_step": new_learner(one, False)}

    state = run.timed_setup(lambda: build_training(run, BANDIT_ID, extra))
    tr = Trainer(run, state)
    env, cfg = tr.env, tr.cfg
    bc, one = tr.learners["bc"], tr.learners["one_step"]
    q_noises = antithetic_noises(np.random.default_rng((run.seed, 3)), ACT_Q_NOISES)
    act_times: list[float] = []

    def act_rejection(fields, bc_net, times=None):
        """Action selector: rejection sampling over the BC flow, optionally timed."""
        def select(s, rng):
            t0 = time.perf_counter()
            a = run.call("policies.rejection_sample_action", rejection_sample_action, fields,
                         bc_net, s, N_CANDIDATES, q_noises, rng, FLOW_STEPS)
            if times is not None:
                times.append(time.perf_counter() - t0)
            return a
        return select

    def body():
        batch = tr.next_batch()
        tr.update_flows(batch)
        update(run, bc, run.attempt("policies.bc_flow_loss", bc_flow_loss,
                                    bc.net, batch.s, batch.a, tr.rng))
        update(run, one, run.attempt("policies.one_step_policy_loss", one_step_policy_loss,
                                     one.net, bc.net, [l.net for l in tr.flows], batch.s, ALPHA,
                                     tr.rng, FLOW_STEPS, LOSS_Q_NOISES))

    def evaluate(c):
        result = run.evaluate(env, act_rejection([l.net for l in tr.flows], bc.net),
                              LOOP_ACT_EPISODES, env.episode_cap, derived_seed(run.seed, 5, c))
        if result is not None:
            run.check("eval_return_finite", np.isfinite(result.mean_return), result.mean_return)

    tr.train(body, evaluate)

    fields = [tr.snap[f"flow{k}"] for k in range(ENSEMBLE)]
    one_snap = tr.snap["one_step"]

    def act_one_step(s, rng):
        return run.call("policies.OneStepPolicy.act", one_snap.act, s,
                        rng.standard_normal(env.action_dim))[0]

    results = [run.evaluate(env, selector, EVAL_EPISODES, env.episode_cap, run.seed)
               for selector in (act_rejection(fields, tr.snap["bc"], act_times), act_one_step)]

    # Quality: W1 of each ensemble member to the exact clipped-normal reward law.
    s0 = env.initial_state(None)
    pairs = [(s0, np.array([a])) for a in BANDIT_ACTIONS]
    edges = histogram_edges((env.r_min, env.r_max), BANDIT_BINS)
    rng = np.random.default_rng((run.seed, 4))
    w1 = []
    for field in fields:
        for s, a in pairs:
            ref = clipped_normal_histogram(float(env.reward_curve(a[0])), env.noise_sigma, edges)
            z = run.call("critic.sample_return", sample_return, field, s, a,
                         rng.standard_normal(BANDIT_SAMPLES), cfg)
            hist, _ = run.call("metrics.histogram_from_samples", histogram_from_samples, z, edges)
            w1.append(run.call("metrics.wasserstein1_histograms", wasserstein1_histograms,
                               hist, ref))
    s, a = pairs[0]
    x = run.call("critic.sample_return", sample_return, fields[0], s, a,
                 rng.standard_normal(BANDIT_SAMPLES), cfg)
    u = (np.arange(BANDIT_SAMPLES) + 0.5) / BANDIT_SAMPLES
    exact = np.clip(env.reward_curve(a[0]) + env.noise_sigma * norm.ppf(u), env.r_min, env.r_max)
    check_w1_agreement(run, x, exact, edges)
    check_dataset_round_trip(run, state["dataset"])
    run.check("eval_returns_finite", all(r is not None and np.isfinite(r.mean_return)
                                         for r in results))

    run.put("act_ms", 1e3 * statistics.median(act_times), "ms", len(act_times))
    run.put("w1_flow", np.mean(w1), "return", len(w1))
    if all(r is not None for r in results):
        run.put("eval_return", results[0].mean_return, "return", results[0].episodes)
        run.put("eval_return_onestep", results[1].mean_return, "return", results[1].episodes)
    tr.finish(pairs, BANDIT_SAMPLES, with_jvp=False, with_flowkit=False)
    if run.tracer.enabled:
        eps = np.random.default_rng((run.seed, 11)).standard_normal((N_CANDIDATES, env.action_dim))
        cond = bc.net.velocity_given(s0)
        run.put_layer("flowkit.euler_ms", *median_ms(
            lambda: euler_integrate(cond, eps, IntegrationConfig(FLOW_STEPS))))


# -- oracle-grid ----------------------------------------------------------------------

GRID_ID = "windy-grid-5"
GRID_DATASET = 3000
GRID_ENUM_HORIZON = 5       # tier-1's horizon for this env
GRID_BINS = 60
MC_CHUNKS = 8               # Monte Carlo calls per cycle, MC_CHUNK episodes each
MC_CHUNK = 50
EVAL_CHUNKS = 16            # evaluate_policy calls per cycle, EVAL_CHUNK episodes each
EVAL_CHUNK = 100            # at horizon GRID_ENUM_HORIZON: the goal is 8 moves away, so
                            # every episode runs all its steps and each call does fixed work


def oracle_grid(run: Run) -> None:
    def build():
        env = check_env_id(run, GRID_ID)
        policy = behavior_policy_for(env)
        # A behaviour dataset and its arrays, as the training workloads set up;
        # it goes through the save/load round trip after the loop.
        dataset = run.call("envs.generate_dataset", generate_dataset, env, policy,
                           GRID_DATASET, run.seed)
        run.call("envs.Dataset.arrays", dataset.arrays)
        return dict(env=env, policy=policy, dataset=dataset)

    state = run.timed_setup(build)
    env, policy = state["env"], state["policy"]
    s0 = env.initial_state(None)
    a0 = env.action_atoms()[0]
    z_lo, z_hi = env.z_bounds
    bound = 0.02 * (z_hi - z_lo)            # tier-1's oracle-vs-Monte-Carlo bound
    edges = histogram_edges(env.z_bounds, GRID_BINS)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    # Enough applications of the gamma-contraction to shrink the z-range to one bin.
    bellman_iters = int(np.ceil(np.log(width / (z_hi - z_lo)) / np.log(env.gamma))) + 2
    start_key = table_key(env, s0, a0)

    # One cycle is this fixed sequence of operations, one loop operation each,
    # so the time budget ends between short operations, not whole cycles.
    ops = (["dataset", "enumerate"] + ["bellman"] * bellman_iters + ["mc"] * MC_CHUNKS
           + ["mc5"] + ["eval"] * EVAL_CHUNKS)
    cur: dict = {}
    first: dict = {}

    def body(i, op):
        c = i // len(ops)
        if op == "dataset":
            cur.clear()
            cur["mc"], cur["eval"] = [], []
            run.attempt("envs.generate_dataset", generate_dataset, env, policy, GRID_DATASET,
                        derived_seed(run.seed, c, 0))
        elif op == "enumerate":
            cur["atoms"] = run.attempt("envs.enumerate_return_distribution",
                                       enumerate_return_distribution, env, policy, s0, a0,
                                       GRID_ENUM_HORIZON, mass_tol=1.0)
            cur["table"] = run.call("envs.uniform_table", uniform_table, env, policy, edges)
        elif op == "bellman":
            cur["table"] = run.call("envs.bellman_histogram_operator",
                                    bellman_histogram_operator, env, policy, cur["table"], edges)
        elif op == "mc":
            cur["mc"].append(run.attempt("envs.monte_carlo_returns", monte_carlo_returns, env,
                                         policy, s0, a0, MC_CHUNK, env.episode_cap,
                                         derived_seed(run.seed, c, 1, len(cur["mc"]))))
        elif op == "mc5":
            cur["mc5"] = run.attempt("envs.monte_carlo_returns", monte_carlo_returns, env,
                                     policy, s0, a0, MC_CHUNK * MC_CHUNKS, GRID_ENUM_HORIZON,
                                     derived_seed(run.seed, c, 2))
        else:
            cur["eval"].append(run.evaluate(env, policy, EVAL_CHUNK, GRID_ENUM_HORIZON,
                                            derived_seed(run.seed, c, 3, len(cur["eval"]))))
            if len(cur["eval"]) == EVAL_CHUNKS:
                check_cycle(c)

    def check_cycle(c):
        atoms, mc5, evals = cur["atoms"], cur["mc5"], cur["eval"]
        if atoms is None or mc5 is None or any(m is None for m in cur["mc"] + evals):
            return
        mc = np.concatenate(cur["mc"])
        w1_enum = run.call("metrics.wasserstein1_discrete", wasserstein1_discrete,
                           atoms.values, atoms.masses, mc5, np.full(mc5.size, 1.0 / mc5.size))
        fixed_point = cur["table"][start_key]
        w1_fp = run.call("metrics.wasserstein1_discrete", wasserstein1_discrete,
                         centers, fixed_point, mc, np.full(mc.size, 1.0 / mc.size))
        run.check("mc_vs_enumeration", w1_enum < bound, w1_enum)
        run.check("mc_vs_bellman_fixed_point", w1_fp < bound, w1_fp)
        returns = [r.mean_return for r in evals]
        run.check("eval_return_finite", np.isfinite(returns).all(), returns)
        if c == 0:
            first.update(mc=mc, fixed_point=fixed_point, atoms=atoms)

    # Cycle 0 carries the quality checks and always completes.
    times, cals = run.timed_loop(ops, body, len(ops))

    if first:
        check_w1_agreement(run, first["mc"], quantile_samples(centers, first["fixed_point"],
                                                              first["mc"].size), edges)
        run.put_layer("envs.enumerate_atoms", first["atoms"].values.size, 1)
    check_dataset_round_trip(run, state["dataset"])
    med = {op: statistics.median(t) for op, t in times.items()}
    med_cal = {op: statistics.median(c) for op, c in cals.items()}
    oracle_s = med["enumerate"] + bellman_iters * med["bellman"]
    n_ds, n_mc = len(times["dataset"]), len(times["mc"])
    run.put("dataset_transitions_per_s", GRID_DATASET * n_ds / sum(times["dataset"]), "1/s",
            GRID_DATASET * n_ds)
    run.put("mc_episodes_per_s", MC_CHUNK * n_mc / sum(times["mc"]), "1/s", MC_CHUNK * n_mc)
    run.put("oracle_s", oracle_s, "s", len(times["bellman"]))
    run.put_loop_time("loop", sum(med[op] for op in ops), sum(med_cal[op] for op in ops),
                      len(run.iter_times))
    run.put_loop_time("eval", med["eval"], med_cal["eval"], len(times["eval"]))
    run.put_layer("envs.step_us", 1e6 * med["dataset"] / GRID_DATASET, n_ds)
    run.put_layer("envs.mc_episode_us", 1e6 * med["mc"] / MC_CHUNK, n_mc)
    run.put_layer("envs.bellman_iters", bellman_iters, len(times["bellman"]))


WORKLOADS = {"fit-tree": fit_tree, "extract-bandit": extract_bandit, "oracle-grid": oracle_grid}


def run_workload(name: str, run: Run) -> None:
    """Run one workload with a temporary directory under ``run.workdir`` for file checks."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.workdir) as tmp:
        run.workdir = Path(tmp)
        WORKLOADS[name](run)
