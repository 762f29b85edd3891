"""In-memory span tracer that wraps agcdiag's public functions from outside.

Each wrapper is installed by rebinding a name where the package looks it
up (``agcdiag.lp.solve_lp``, ``agcdiag.cli.design_robust``,
``RealizedFilter.step``, ...), so nothing in the library changes and
``uninstall`` restores the originals. A span is the list
``[id, scope, name, start, end, parent, attrs]``: ``scope`` is the
iteration (an int) or set-up repeat (``"setup<r>"``) it belongs to,
``parent`` the id of the enclosing span or -1. Spans stay in memory until
``write_csv`` at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np


def _lp_attrs(args, kwargs, sol):
    problem = args[0] if args else kwargs["problem"]
    rows = sum(0 if a is None else a.shape[0]
               for a in (problem.a_eq, problem.a_ge))
    # a variable bounded on both sides adds one explicit row to the tableau
    rows += int(np.sum(np.isfinite(problem.lower) & np.isfinite(problem.upper)))
    return {"pivots": sol.iterations, "rows": rows,
            "optimal": bool(sol.is_optimal)}


def _null_attrs(args, kwargs, z):
    return {"null_dim": int(z.shape[0])}


def _sim_attrs(args, kwargs, trace):
    return {"steps": int(trace.n_records)}


def _write_attrs(args, kwargs, _):
    return {"rows": int(args[0].n_records), "bytes": os.path.getsize(args[1])}


def _read_attrs(args, kwargs, cols):
    return {"rows": int(next(iter(cols.values())).size)}


# (module or "module.Class", attribute, span name, attrs from the call)
PATCHES = (
    ("cli", "main", "cli.main", None),
    ("config", "assemble_system", "agc.build", None),
    ("config", "zoh_discretize", "discretize.zoh", None),
    ("dae", "stack_hbar", "dae.stack_hbar", None),
    ("design", "left_null_basis", "linalg.null_basis", _null_attrs),
    ("design", "design_robust", "design.robust", None),
    ("cli", "design_robust", "design.robust", None),
    ("design", "solve_lp_i", "design.relaxation_lp", None),
    ("design", "worst_case_alpha", "design.worst_case", None),
    ("cli", "worst_case_alpha", "design.worst_case", None),
    ("lp", "solve_lp", "lp.solve", _lp_attrs),
    ("simulate", "simulate", "simulate.run", _sim_attrs),
    ("cli", "simulate", "simulate.run", _sim_attrs),
    ("residual.RealizedFilter", "step", "residual.step", None),
    ("simulate", "write_trace_csv", "simulate.csv_write", _write_attrs),
    ("cli", "write_trace_csv", "simulate.csv_write", _write_attrs),
    ("simulate", "read_trace_csv", "simulate.csv_read", _read_attrs),
    ("cli", "read_trace_csv", "simulate.csv_read", _read_attrs),
)


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.scope: int | str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name):
        rec = [len(self.spans), self.scope, name, 0.0, 0.0,
               self._stack[-1] if self._stack else -1, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = perf_counter()
        return rec

    def _close(self, rec):
        rec[4] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around the caller's own block, e.g. one whole iteration."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec[6] = attrs(args, kwargs, result)
            return result
        return traced

    def install(self, mods) -> None:
        """Wrap every entry of PATCHES on the imported modules ``mods``."""
        for owner, attr, name, attrs in PATCHES:
            modname, _, cls = owner.partition(".")
            target = getattr(mods, modname)
            if cls:
                target = getattr(target, cls)
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original, attrs))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def write_csv(self, path) -> None:
        lines = ["id,scope,name,start,end,parent,attrs"]
        for sid, scope, name, start, end, parent, attrs in self.spans:
            lines.append(f"{sid},{scope},{name},{start!r},{end!r},{parent},"
                         + json.dumps(attrs, separators=(";", ":")))
        with open(path, "w", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for rec in spans:
        if rec[5] >= 0:
            covered[rec[5]] += rec[4] - rec[3]
    return {rec[0]: rec[4] - rec[3] - covered[rec[0]] for rec in spans}


def _named(scope, name):
    return [rec for rec in scope.spans if rec[2] == name]


def _attr_sum(scope, name, key):
    return sum(rec[6][key] for rec in _named(scope, name))


def _self_sum(scope, name):
    return sum(scope.self_time[rec[0]] for rec in _named(scope, name))


def _dur_sum(scope, name):
    return sum(rec[4] - rec[3] for rec in _named(scope, name))


def _per(num, den, scale=1.0):
    return scale * num / den if den else 0.0


class _Scope:
    def __init__(self, spans, self_time, by_id):
        self.spans = spans
        self.self_time = self_time
        self.by_id = by_id


# Per-layer metrics: name -> (unit, kind, fn). For "count" and "scope"
# metrics fn maps one scope's spans to a value and the median over scopes
# is reported; counts must repeat exactly. For "per_call" metrics fn names
# a span, and the median duration of all its calls in the run is reported.
LAYER_METRICS = {
    "cli.design_solves": ("count", "count", lambda s: sum(
        1 for r in _named(s, "design.robust")
        if r[5] >= 0 and s.by_id[r[5]][2] == "cli.main")),
    "lp.solves": ("count", "count", lambda s: len(_named(s, "lp.solve"))),
    "lp.pivots": ("count", "count",
                  lambda s: _attr_sum(s, "lp.solve", "pivots")),
    "lp.self_s": ("s", "scope", lambda s: _self_sum(s, "lp.solve")),
    "lp.us_per_pivot": ("us", "scope", lambda s: _per(
        _self_sum(s, "lp.solve"), _attr_sum(s, "lp.solve", "pivots"), 1e6)),
    "lp.rows_max": ("count", "count", lambda s: max(
        (r[6]["rows"] for r in _named(s, "lp.solve")), default=0)),
    "lp.optimal_ratio": ("ratio", "scope", lambda s: _per(
        _attr_sum(s, "lp.solve", "optimal"), len(_named(s, "lp.solve")))),
    "design.robust_s": ("s", "per_call", "design.robust"),
    "design.relaxation_lps": ("count", "count",
                              lambda s: len(_named(s, "design.relaxation_lp"))),
    "design.worst_case_s": ("s", "per_call", "design.worst_case"),
    "linalg.null_basis_s": ("s", "per_call", "linalg.null_basis"),
    "linalg.null_dim": ("count", "count", lambda s: max(
        (r[6]["null_dim"] for r in _named(s, "linalg.null_basis")), default=0)),
    "agc.build_s": ("s", "per_call", "agc.build"),
    "discretize.zoh_s": ("s", "per_call", "discretize.zoh"),
    "dae.stack_hbar_s": ("s", "per_call", "dae.stack_hbar"),
    "simulate.steps": ("count", "count",
                       lambda s: _attr_sum(s, "simulate.run", "steps")),
    "simulate.self_us_per_step": ("us", "scope", lambda s: _per(
        _self_sum(s, "simulate.run"), _attr_sum(s, "simulate.run", "steps"),
        1e6)),
    "residual.filter_steps": ("count", "count",
                              lambda s: len(_named(s, "residual.step"))),
    "residual.step_us": ("us", "scope", lambda s: _per(
        _dur_sum(s, "residual.step"), len(_named(s, "residual.step")), 1e6)),
    "simulate.csv_write_us_per_row": ("us", "scope", lambda s: _per(
        _dur_sum(s, "simulate.csv_write"),
        _attr_sum(s, "simulate.csv_write", "rows"), 1e6)),
    "simulate.csv_read_us_per_row": ("us", "scope", lambda s: _per(
        _dur_sum(s, "simulate.csv_read"),
        _attr_sum(s, "simulate.csv_read", "rows"), 1e6)),
    "simulate.csv_bytes": ("B", "count",
                           lambda s: _attr_sum(s, "simulate.csv_write",
                                               "bytes")),
}

# which span names make a layer "active" in a scope, for the scope choice
_LAYER_SPANS = {
    "cli": "cli.main", "lp": "lp.solve", "design": "design.robust",
    "linalg": "linalg.null_basis", "simulate": "simulate.run",
    "residual": "residual.step",
}


def layer_metrics(spans):
    """Per-layer metrics and count mismatches from a traced run.

    A layer's scope-level metrics are taken per traced iteration when the
    iteration does that layer's work, else per set-up repeat (so the
    ``montecarlo`` design solve shows under set-up). Returns
    ``(metrics, mismatches)``: metrics map name -> (value, unit, samples)
    with the median over scopes; mismatches list the counts that differed.
    """
    by_id = {rec[0]: rec for rec in spans}
    self_time = self_times(spans)
    grouped: dict[object, list] = defaultdict(list)
    for rec in spans:
        grouped[rec[1]].append(rec)
    iters = [_Scope(v, self_time, by_id) for k, v in grouped.items()
             if isinstance(k, int)]
    setups = [_Scope(v, self_time, by_id) for k, v in grouped.items()
              if not isinstance(k, int)]

    def scopes_for(metric):
        layer = metric.split(".")[0]
        marker = _LAYER_SPANS.get(layer)
        if marker and not any(_named(s, marker) for s in iters):
            return setups
        return iters

    metrics, mismatches = {}, []
    for name, (unit, kind, fn) in LAYER_METRICS.items():
        if kind == "per_call":
            durs = [r[4] - r[3] for r in spans if r[2] == fn]
            metrics[name] = (statistics.median(durs) if durs else 0.0,
                             unit, len(durs))
            continue
        chosen = scopes_for(name)
        values = [fn(s) for s in chosen]
        if kind == "count" and len(set(values)) > 1:
            mismatches.append(f"{name} differs between scopes: {values}")
        elif kind == "count":
            metrics[name] = (values[0] if values else 0, unit, len(values))
            continue
        metrics[name] = (statistics.median(values) if values else 0,
                         unit, len(values))
    return metrics, mismatches
