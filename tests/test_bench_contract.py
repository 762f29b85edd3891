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

import pytest

from agcdiag.lp import LpProblem
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
    problem = LpProblem("max", [1.0, 1.0], a_ge=[[1.0, -1.0]], b_ge=[0.5],
                        lower=[0.0, 0.0], upper=[2.0, 1.0])
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
