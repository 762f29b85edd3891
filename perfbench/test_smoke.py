"""Smoke test of the benchmark at tiny sizes.

    python -m pytest perfbench/test_smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced with
``--tiny`` and checks that each named metric prints with its unit, that
every output check passes, and that within each traced iteration the
per-layer self times sum to no more than the iteration's wall time.
"""

import csv
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run_bench(workload, trace, cwd=ROOT, runner=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], [ln for ln in lines if ln.startswith("FAILED")]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


def assert_named(lines, result, spec_metrics):
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    table = {ln.split()[0]: ln.split()[1:] for ln in lines if ln.split()}
    for name, unit in expected.items():
        value, shown_unit, samples = table[name]
        assert float(value) == pytest.approx(
            result["metrics"][name]["value"], rel=1e-5, abs=1e-9)
        assert shown_unit == unit and int(samples) >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = parse(run_bench(workload, 0))
    assert_named(lines, result, SPEC["end_to_end"])
    assert any(ln.startswith("env {") for ln in lines)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics_within_wall(workload):
    lines, result = parse(run_bench(workload, 1))
    assert_named(lines, result, SPEC["per_layer"])

    path = os.path.join(ROOT, ".perfbench_run",
                        f"spans-{workload}-seed{SEED}.csv")
    with open(path, newline="") as handle:
        spans = list(csv.DictReader(handle))
    duration = {s["id"]: float(s["end"]) - float(s["start"]) for s in spans}
    covered = defaultdict(float)
    for s in spans:
        covered[s["parent"]] += duration[s["id"]]
    walls, self_sums = {}, defaultdict(float)
    for s in spans:
        if not s["scope"].isdigit():
            continue
        if s["name"] == "iteration":
            walls[s["scope"]] = duration[s["id"]]
        else:
            self_sums[s["scope"]] += duration[s["id"]] - covered[s["id"]]
    assert len(walls) >= 2
    for scope, wall in walls.items():
        assert 0 < self_sums[scope] <= wall, scope


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("montecarlo", 0, cwd=tmp_path,
                     runner=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
