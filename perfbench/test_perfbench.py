"""Tests of the benchmark itself, on a tiny budget.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs once untraced and once traced with the same seed, for a
one-second window. The training workloads still run their 100 quality
iterations and oracle-grid one whole cycle, so the tests take about two
minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalog import ALL, LAYER_ON, MODULES, REPORT  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SEED = 7
SHARES = {f"{m}.self_share" for m in MODULES} | {"bench.driver_share", "trace.overhead_frac"}
QUALITY = ("w1_flow", "w1_c51", "w1_iqn", "eval_return", "eval_return_onestep")
DIAGNOSTICS = ("critic.dcfm", "critic.bcfm", "critic.mean_weight")


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in ALL:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            report = next(json.loads(line)["report"] for line in lines
                          if line.startswith('{"report"'))
            out[workload, trace] = (json.loads(lines[-1]), report)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ALL)
def test_last_line_follows_the_contract(results, workload, trace):
    last, _ = results[workload, trace]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = GATED if trace == 0 else LAYER
    assert {k: m["unit"] for k, m in last["metrics"].items()} == expected
    for name, m in last["metrics"].items():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"]), name
        if trace == 0:
            assert m["value"] != 0.0, name


@pytest.mark.parametrize("workload", ALL)
def test_end_to_end_metrics_on_exactly_their_workloads(results, workload):
    _, report = results[workload, 0]
    got = report["end_to_end"]
    for name, (unit, workloads) in REPORT.items():
        assert (name in got) == (workload in workloads), name
        if name in got:
            assert got[name]["unit"] == unit and got[name]["n"] >= 1, name
    assert got["error_rate"]["value"] == 0.0
    assert all(c["ok"] for c in report["checks"].values()), report["checks"]


@pytest.mark.parametrize("workload", ALL)
def test_layer_metrics_on_exactly_their_workloads(results, workload):
    _, report = results[workload, 1]
    got = report["per_layer"]
    assert set(got) == set(LAYER)
    for name, unit in LAYER.items():
        assert got[name]["unit"] == unit, name
        measured = got[name]["n"] > 0
        assert measured == (workload in LAYER_ON[name] or name in SHARES), name


@pytest.mark.parametrize("workload", ALL)
def test_same_seed_gives_bit_identical_quality(results, workload):
    (_, plain), (_, traced) = results[workload, 0], results[workload, 1]
    for name in QUALITY:
        if name in plain["end_to_end"]:
            assert plain["end_to_end"][name]["value"] == traced["end_to_end"][name]["value"], name
    for name in DIAGNOSTICS:
        if plain["per_layer"].get(name, {}).get("n"):
            assert plain["per_layer"][name]["value"] == traced["per_layer"][name]["value"], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("fit-tree", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
