#!/usr/bin/env python3
"""agcdiag benchmark: time one workload end to end, check every output.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 35 --trace 0

Workloads: ``reproduce``, ``design-d6``, ``montecarlo`` (see workloads.py).
The library is imported from ``src/`` of the checkout this file sits in;
the run exits non-zero without a result when it is missing.

With ``--trace 0`` the run prints the end-to-end metrics: ``setup_s``
(median over set-up repeats of a fresh package import plus the model
chain), ``wall_s`` (median seconds per iteration), ``peak_rss_mb`` and
``pass_ratio`` (operations passed over attempted). ``--trace 1`` wraps
the library's public functions (tracer.py), alternates traced and
untraced iterations, prints the per-layer metrics and writes the spans to
``.perfbench_run/spans-<workload>-seed<seed>.csv``. The last line of
stdout is always one JSON object: correct, attempted, failed, metrics.

BLAS runs on one thread: the thread variables are set to 1 before numpy
loads, and a run where they are set otherwise is flagged in its
environment block.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
import types
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("agc", "attacks", "cli", "config", "dae", "design", "discretize",
           "linalg", "lp", "residual", "simulate")
# set-up repeats per run: at least this many and this many seconds of them
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0


def pin_blas_threads() -> list[str]:
    """Pin BLAS to one thread unless already set; return what is unpinned."""
    flags = []
    if "numpy" in sys.modules:
        flags.append("numpy was loaded before the thread pins were set")
    for var in PIN_VARS:
        os.environ.setdefault(var, "1")
        if os.environ[var] != "1":
            flags.append(f"{var}={os.environ[var]} (not pinned to 1)")
    return flags


def blas_runtime_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(FileNotFoundError):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "agcdiag", "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()[:16]


def environment(flags: list[str]) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_runtime_threads()
    if threads not in (None, 1):
        flags.append(f"BLAS reports {threads} threads")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pins": {var: os.environ.get(var) for var in PIN_VARS},
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "flags": flags,
    }


def import_agcdiag():
    """Import the package afresh from src/, dropping any earlier import."""
    for name in [m for m in sys.modules
                 if m == "agcdiag" or m.startswith("agcdiag.")]:
        del sys.modules[name]
    for name in MODULES:
        importlib.import_module(f"agcdiag.{name}")
    mods = types.SimpleNamespace(
        **{name: sys.modules[f"agcdiag.{name}"] for name in MODULES})
    origin = os.path.dirname(os.path.abspath(mods.cli.__file__))
    if origin != os.path.join(SRC, "agcdiag"):
        raise ImportError(f"agcdiag imported from {origin}, not {SRC}")
    return mods


def measure(args, workload, tracer):
    """Iterate for ``args.seconds`` with set-up repeats spread over the run.

    Each set-up imports the package afresh and rebuilds the workload
    state, which the iterations after it use. Spacing the repeats through
    the run lets their median see the same machine as the iterations do.
    """
    from workloads import Ops
    ops = Ops()
    setup_s = []

    def set_up():
        t0 = perf_counter()
        mods = import_agcdiag()
        if tracer is not None:
            tracer.scope = f"setup{len(setup_s)}"
            tracer.install(mods)
        try:
            with tracer.span("setup") if tracer else contextlib.nullcontext():
                state = workload.setup(mods)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s.append(perf_counter() - t0)
        return mods, state

    def set_ups_due(start):
        if args.tiny:
            return False
        elapsed = perf_counter() - start
        share = min(1.0, elapsed / args.seconds) if args.seconds > 0 else 1.0
        return (len(setup_s) < SETUP_REPEATS * share
                or sum(setup_s) < SETUP_SECONDS * share)

    mods, state = set_up()
    walls = {False: [], True: []}
    rates = []
    first_digest = None
    min_iters = 4 if tracer is not None else 2
    start = perf_counter()
    i = 0
    while i < min_iters or perf_counter() - start < args.seconds:
        traced = tracer is not None and i % 2 == 0
        out = None
        t0 = perf_counter()
        if traced:
            tracer.scope = i
            tracer.install(mods)
        try:
            with tracer.span("iteration") if traced else contextlib.nullcontext():
                out = workload.run(mods, state, ops)
        except Exception:  # the program failed: count it and keep timing
            traceback.print_exc(file=sys.stderr)
            ops.check(f"iteration {i}", False, "raised")
        finally:
            wall = perf_counter() - t0
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        if out is not None:
            if not traced and hasattr(workload, "steps_per_s"):
                rates.append(workload.steps_per_s(out))
            try:
                digest = workload.check(mods, state, out, ops)
            except Exception:  # an output is missing or malformed
                traceback.print_exc(file=sys.stderr)
                ops.check(f"iteration {i} outputs", False, "unreadable")
            else:
                first_digest = first_digest or digest
                if i > 0:
                    ops.check("same-seed outputs identical",
                              digest == first_digest,
                              f"iteration {i} outputs differ from iteration 0")
        i += 1
        while set_ups_due(start):
            mods, state = set_up()
    return ops, setup_s, walls, rates


def report(rows):
    print(f"{'metric':<32}{'value':>16}  {'unit':<7}{'n':>6}")
    for name, value, unit, n in rows:
        print(f"{name:<32}{value:>16.6g}  {unit:<7}{n:>6}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="reproduce, design-d6 or montecarlo")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, one set-up (smoke test)")
    args = parser.parse_args(argv)

    flags = pin_blas_threads()
    sys.path.insert(0, SRC)
    import tracer as tracemod
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    env = environment(flags)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}{' tiny' if args.tiny else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    for flag in flags:
        print(f"FLAG {flag}")

    work = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tracer = tracemod.Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, work)
        try:
            ops, setup_s, walls, rates = measure(args, workload, tracer)
        except ImportError as exc:
            print(f"error: cannot import agcdiag from {SRC}: {exc}",
                  file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        wall = walls[False]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
            "wall_s": (statistics.median(wall), "s", len(wall)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB", 1),
            "pass_ratio": (1.0 - len(ops.failures) / ops.attempted, "ratio",
                           ops.attempted),
        }
        rows = [(k, *v) for k, v in metrics.items()]
        if len(wall) >= 100:  # at least ten samples beyond the tail
            rows.append(("wall_s_p90", statistics.quantiles(wall, n=10)[-1],
                         "s", len(wall)))
        if rates:
            rows.append(("sim_steps_per_s", statistics.median(rates), "1/s",
                         len(rates)))
        rows.append(("fail_ratio", len(ops.failures) / ops.attempted, "ratio",
                     ops.attempted))
    else:
        metrics, mismatches = tracemod.layer_metrics(tracer.spans)
        for mismatch in mismatches:
            ops.check("count repeats", False, mismatch)
        traced = statistics.median(walls[True])
        metrics["trace.wall_s"] = (traced, "s", len(walls[True]))
        metrics["trace.overhead_s"] = (traced - statistics.median(walls[False]),
                                       "s", len(walls[False]))
        rows = [(k, *v) for k, v in metrics.items()]
        os.makedirs(RUN_DIR, exist_ok=True)
        spans = os.path.join(RUN_DIR,
                             f"spans-{args.workload}-seed{args.seed}.csv")
        tracer.write_csv(spans)
        print(f"spans {len(tracer.spans)} written to {spans}")

    report(rows)
    wall = walls[tracer is not None]
    if len(wall) >= 2:
        print("iteration wall_s min/q1/median/q3/max: " + " ".join(
            f"{v:.4g}" for v in (min(wall), *statistics.quantiles(
                wall, n=4, method="inclusive"), max(wall))))
    for failure in ops.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
