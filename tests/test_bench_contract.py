"""The benchmark under ``perfbench/`` rebinds library names to trace them.

A renamed or removed entry point, or a removed attribute that a span
reads off a call, would only show in the slow benchmark smoke test. So
this checks every ``(module, attribute)`` target of the tracer's
``PATCHES`` table against the package directly, and feeds each attribute
reader of the table one real call.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from agcdiag.design import _certificate_lp
from agcdiag.simulate import Scenario, simulate, write_trace_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_patches():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def patched(owner, attr):
    modname, _, cls = owner.partition(".")
    target = importlib.import_module(f"agcdiag.{modname}")
    if cls:
        target = getattr(target, cls)
    return getattr(target, attr, None)


@pytest.mark.parametrize("owner, attr", [(p[0], p[1]) for p in load_patches()])
def test_tracer_target_exists(owner, attr):
    assert callable(patched(owner, attr)), f"agcdiag.{owner}.{attr}"


@pytest.fixture
def call_args(chain, tmp_path):
    """Arguments of one real call of each traced function, by its name."""
    scenario = Scenario(horizon_s=5.0, t_s=0.5, seed=3,
                        load_std={"area1.load": 0.03})
    trace = simulate(chain.discrete, scenario)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    # the default design's winning relaxation LP (1, +1), as the design
    # builds it
    problem = _certificate_lp(chain.basis.block(1) @ chain.ffb, chain.basis,
                              chain.space.a, chain.space.b)
    return {"solve_lp": (problem,), "left_null_basis": (chain.hbar,),
            "simulate": (chain.discrete, scenario),
            "write_trace_csv": (trace, path), "read_trace_csv": (path,)}


@pytest.mark.parametrize("owner, attr, reader", [
    (p[0], p[1], p[3]) for p in load_patches() if p[3] is not None])
def test_tracer_attrs_read_a_real_call(owner, attr, reader, call_args):
    args = call_args[attr]
    attrs = reader(args, {}, patched(owner, attr)(*args))
    assert attrs and all(isinstance(v, int) for v in attrs.values()), attrs
    json.dumps(attrs)


# per-layer counts of one traced ``--tiny`` reproduce pass: one design of
# four relaxation LPs and one worst-case LP, and three short simulations
TRACED_REPRODUCE_COUNTS = {
    "cli.design_solves": 1, "lp.solves": 5, "lp.pivots": 387,
    "design.relaxation_lps": 4, "linalg.null_dim": 72, "simulate.steps": 63}


def test_traced_reproduce_counts_repeat():
    """A traced reproduce run fails an operation when a per-layer count
    (design solves, LP pivots, null-space dimension, ...) differs between
    its traced iterations, as it would if the CLI shared a stage that a
    traced solve must rebuild. The counts themselves are those of one
    pass."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "reproduce", "--seed", "1", "--seconds", "0",
         "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["failed"] == 0, [
        line for line in lines if line.startswith("FAILED")]
    assert {name: result["metrics"][name]["value"]
            for name in TRACED_REPRODUCE_COUNTS} == TRACED_REPRODUCE_COUNTS
