"""Benchmark of the flowrl package: one workload per run, one process, one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-tree --seed 1 --seconds 30 --trace 0

Workloads: fit-tree, extract-bandit, oracle-grid (see perfbench/NOTES.md).
The report goes to standard output, one metric a line, then a JSON line with
the whole report (machine, checks, every metric with its sample count). The
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the
per-layer metrics with ``--trace 1``; their names and units are read from
BENCHMARK.json. A traced run also writes its spans and report under
``.perfbench-out/``. The exit code is 2, with nothing printed on
standard output, when the checkout's ``src/flowrl`` cannot be imported.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# Pin BLAS threads before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["fit-tree", "extract-bandit", "oracle-grid"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_flowrl():
    """Import flowrl from this checkout's src/ only; None if it is not there."""
    if not (SRC / "flowrl" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import flowrl
    if Path(flowrl.__file__).resolve().parent != SRC / "flowrl":
        return None
    return flowrl


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(seed: int, load_before, load_after) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "git_commit": git_commit(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def layer_metrics(run, workload: str, units: dict) -> dict:
    """Every per-layer metric: from spans, probes and counters, 0 with n=0 where out of scope.

    An untraced run has no spans and no probes; it reports only the counters
    it measured (the loss diagnostics and the bootstrap row share).
    """
    from catalog import LAYER_ON, MODULES, SPAN_LAYER

    tracer = run.tracer
    if not tracer.enabled:
        return {k: dict(v, unit=units[k]) for k, v in run.layer.items()
                if workload in LAYER_ON[k]}
    self_times = tracer.self_times()
    found = dict(run.layer)
    for name, (spans, scale) in SPAN_LAYER.items():
        times = [t for span in spans for t in self_times.get(span, [])]
        if times:
            found[name] = {"value": scale * statistics.median(times), "n": len(times)}
    evals = self_times.get("metrics.evaluate_policy", [])
    if evals:
        per_episode = [t / n for t, n in zip(evals, run.eval_episodes, strict=True)]
        found["metrics.eval_episode_us"] = {
            "value": 1e6 * statistics.median(per_episode), "n": len(evals)}
    n_spans = len(tracer.spans)
    shares = tracer.module_shares()
    for module in MODULES:
        found[f"{module}.self_share"] = {"value": shares[module], "n": n_spans}
    found["bench.driver_share"] = {"value": shares["bench"], "n": n_spans}
    # Traced against untraced iterations of the most frequent kind of operation.
    kinds = [kind for _, _, kind in run.iter_times]
    kind = max(set(kinds), key=kinds.count)
    traced = [t for t, on, k in run.iter_times if on and k == kind]
    untraced = [t for t, on, k in run.iter_times if not on and k == kind]
    if traced and untraced:
        found["trace.overhead_frac"] = {
            "value": statistics.median(traced) / statistics.median(untraced) - 1.0,
            "n": len(traced)}

    out = {}
    for name, unit in units.items():
        got = found.get(name) if workload in LAYER_ON[name] else None
        out[name] = {"value": got["value"] if got else 0.0, "unit": unit,
                     "n": got["n"] if got else 0}
    return out


def iteration_stats(iter_times) -> dict:
    """p10 / median / p90 of the timed loop's iterations, in ms, by kind of operation."""
    out = {}
    for kind in sorted({k for _, _, k in iter_times}):
        t = [1e3 * d for d, _, k in iter_times if k == kind]
        q = statistics.quantiles(t, n=10, method="inclusive") if len(t) > 1 else [t[0]] * 9
        out[kind] = {"p10": q[0], "p50": statistics.median(t), "p90": q[8], "n": len(t)}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    load_before = os.getloadavg()
    if import_flowrl() is None:
        print(f"perfbench: cannot import flowrl from {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from catalog import REPORT
    from tracing import Tracer
    from workloads import Run, run_workload   # imports the flowrl modules the workloads use

    import_s = time.perf_counter() - T0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [m["name"] for m in spec["end_to_end"]]
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    run = Run(args.seed, args.seconds, Tracer(args.trace == 1), ROOT)
    run.tracer.set_active(True)
    run_workload(args.workload, run)
    run.tracer.set_active(False)

    # Imports happen once per process and are kept out of setup_s; see NOTES.md.
    run.put("import_s", import_s, "s")
    run.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    run.put("error_rate", run.failed / max(run.attempted, 1), "ratio", run.attempted)
    layer = layer_metrics(run, args.workload, layer_units)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "checks": run.checks, "failures": run.failures}
    run.put("total_s", time.perf_counter() - T0, "s")
    report["end_to_end"] = run.metrics
    report["iterations_ms"] = iteration_stats(run.iter_times)
    report["per_layer"] = layer
    report["machine"] = machine(args.seed, load_before, os.getloadavg())

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    order = gated + list(REPORT)
    shown = [k for k in order if k in run.metrics] + [k for k in run.metrics if k not in order]
    for name in shown:
        m = run.metrics[name]
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<7} n={m['n']}")
    for name, m in layer.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<7} n={m['n']}")
    for name, c in run.checks.items():
        if not c["ok"]:
            print(f"  CHECK FAILED {name}: {c['value']}")
    print(json.dumps({"report": report}))

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        base = f"{args.workload}-seed{args.seed}"
        run.tracer.dump(OUT_DIR / f"{base}-spans.json")
        (OUT_DIR / f"{base}-report.json").write_text(json.dumps(report))
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": run.metrics[k]["value"], "unit": run.metrics[k]["unit"]}
                   for k in gated}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
