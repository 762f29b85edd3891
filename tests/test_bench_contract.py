"""The benchmark under ``perfbench/`` rebinds library names to trace them.

A renamed or removed entry point would only show in the slow benchmark
smoke test, so this checks every ``(module, attribute)`` target of the
tracer's ``PATCHES`` table against the package directly.
"""

import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_patches():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("owner, attr", [(p[0], p[1]) for p in load_patches()])
def test_tracer_target_exists(owner, attr):
    modname, _, cls = owner.partition(".")
    target = importlib.import_module(f"agcdiag.{modname}")
    if cls:
        target = getattr(target, cls)
    assert callable(getattr(target, attr, None)), f"agcdiag.{owner}.{attr}"
