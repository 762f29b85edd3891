"""Command-line pipeline: build -> discretize -> design -> attack ->
simulate -> report, driven by one JSON config.

Commands
--------
design      solve the filter design, write design_report.txt + filter.json
attack      compute the attacker's best reply, write attack.json
simulate    run the configured scenario, write trace.csv
report      split a trace into per-panel plot-data CSVs
sweep-pole  repeat simulate over a list of filter poles

Commands run in one process share their design: the last design solved
is kept, keyed by a sha256 of everything it reads (the DAE arrays, the
attack space and the design parameters, not the config text) and by the
solver function that produced it, and a later command whose design inputs
and solver repeat exactly reuses it without solving again. Replacing
``design_robust`` or ``design_steady_state`` in this module (a test's
patch, a profiler's wrapper) therefore solves afresh. The attacker's best
reply is still solved once per command.

Exit codes: 0 success, 2 bad config or command line (field named on
stderr, ``argv`` for the command line), 3 infeasible design, 1 anything
else. Errors print one machine-readable line:
``error: code=<kind> field=<path> msg="..."``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from collections.abc import Callable
from functools import cached_property

import numpy as np

from . import config as cfgmod
from . import dae as daemod
from .attacks import synthesize_attack
from .design import (FilterDesign, design_robust, design_steady_state,
                     feasible_basis, worst_case_alpha)
from .errors import (AgcDiagError, ConfigError, InfeasibleDesignError,
                     NumericError)
from .residual import realize_filter
from .simulate import (read_trace_csv, simulate, write_csv_table,
                       write_trace_csv)

DEFAULT_POLE_SWEEP = (0.1, 0.2, 0.4, 0.6, 0.98)

# (key, solver, design) of the last design this process solved; see
# Pipeline.design
_last_design: tuple[str, Callable, FilterDesign] | None = None


def _error_line(code: str, msg: str, field: str = "-") -> None:
    print(f'error: code={code} field={field} msg="{msg}"', file=sys.stderr)


class Pipeline:
    """Lazy single-config pipeline shared by all commands."""

    def __init__(self, cfg: dict, overrides: list[str]):
        self.cfg = cfg
        self.overrides = overrides

    @cached_property
    def model(self):
        return cfgmod.build_model(self.cfg)

    @cached_property
    def discrete(self):
        return cfgmod.build_discrete(self.cfg, self.model)

    @cached_property
    def dae(self):
        return daemod.build_dae(self.discrete)

    @cached_property
    def space(self):
        return cfgmod.build_attack_space(self.cfg, self.model)

    @cached_property
    def params(self) -> dict:
        return cfgmod.design_params(self.cfg)

    @cached_property
    def basis(self):
        p = self.params
        hbar = daemod.stack_hbar(self.dae, p["d_n"])
        return feasible_basis(hbar, p["eta"], p["d_n"], p["rank_tol"])

    @cached_property
    def ffb(self):
        return daemod.attack_gain(self.dae, self.space.basis)

    def _design_key(self) -> str:
        """sha256 over every input the design reads: the design parameters,
        the attack space and the DAE arrays, never the config text."""
        p, space, dae = self.params, self.space, self.dae
        digest = hashlib.sha256(repr((p["kind"], p["d_n"], p["eta"],
                                      p["pole"], p["rank_tol"])).encode())
        for arr in (dae.h0, dae.h1, dae.f, space.basis, space.a, space.b):
            digest.update(repr((arr.shape, arr.dtype.str)).encode())
            digest.update(arr.tobytes())    # C order whatever the layout
        return digest.hexdigest()

    @cached_property
    def design(self) -> FilterDesign:
        """The solved design. The last one solved in this process is kept
        and returned again, unsolved, while its inputs and its solver (the
        module attribute looked up at call time) repeat exactly."""
        global _last_design
        p = self.params
        steady = p["kind"] == "steady-state"
        solve = design_steady_state if steady else design_robust
        key = self._design_key()
        if (_last_design is not None and _last_design[0] == key
                and _last_design[1] is solve):
            return _last_design[2]
        a_pol, b_pol = self.space.a, self.space.b
        gain = (daemod.build_fbar(self.dae, self.space.basis, p["d_n"])
                if steady else self.ffb)
        design = solve(self.basis, gain, a_pol, b_pol, p["pole"])
        # a reused design must not carry an earlier caller's writes
        for arr in (design.nbar, design.multiplier):
            if arr is not None:
                arr.flags.writeable = False
        _last_design = (key, solve, design)
        return design

    @cached_property
    def worst_case(self):
        """The attacker's best reply ``(alpha, payoff)`` to the design.

        A robust design's gamma lower-bounds the payoff of every admissible
        attack, so a payoff below gamma (beyond rounding) is a numeric
        failure. A steady-state design's mu bounds the summed gain, not
        this payoff, and is not compared.
        """
        design = self.design
        alpha, payoff = worst_case_alpha(design.nbar, self.ffb, design.d_n,
                                         self.space.a, self.space.b)
        floor = design.gamma - 1e-9 * max(1.0, abs(design.gamma))
        if design.kind == "robust" and payoff < floor:
            raise NumericError(
                f"worst-case payoff {payoff!r} is below the certified "
                f"gamma = {design.gamma!r}")
        return alpha, payoff

    def attack_vector(self):
        """Resolve the injected f per the attack section; may need a design."""
        atk = self.cfg["attack"]
        mode = atk["mode"]
        if mode == "none":
            return None
        if mode == "raw":
            raw = atk["raw_f"]
            if raw is None:
                raise ConfigError("attack.raw_f", "mode 'raw' needs raw_f")
            return cfgmod.float_vector(raw, self.model.n_attacks,
                                       "attack.raw_f")
        if mode == "alpha":
            alpha = cfgmod.float_vector(atk["alpha"], self.space.dim,
                                        "attack.alpha")
            return synthesize_attack(self.space, alpha)
        if mode == "worst-case":
            return synthesize_attack(self.space, self.worst_case[0])
        raise ConfigError("attack.mode",
                          f"unknown mode {mode!r} (none|raw|alpha|worst-case)")

    def out_dir(self) -> str:
        configured = cfgmod.output_params(self.cfg)["dir"]
        path = configured or os.environ.get("AGCDIAG_OUTDIR") or "out"
        os.makedirs(path, exist_ok=True)
        return path


def format_design_report(design: FilterDesign, overrides: list[str]) -> str:
    lines = ["diagnosis filter design report", ""]
    lines.append(f"kind: {design.kind}")
    lines.append(f"degree d_N: {design.d_n}")
    lines.append(f"pole: {design.pole}")
    lines.append(f"gamma: {design.gamma:.12g}")
    if design.index is not None:
        lines.append(f"winning index: block {design.index[0]}, "
                     f"sign {design.index[1]:+d}")
    if design.diagnostic:
        lines.append(f"diagnostic: {design.diagnostic}")
    if overrides:
        lines.append("overrides: " + " ".join(overrides))
    lines.append("")
    lines.append("per-index LP results:")
    lines.append("  block  sign  status      gamma_i        pivots  wall_s")
    for row in design.table:
        block = f"{row.block:5d}" if row.block >= 0 else "   ss"
        sign = f"{row.sign:+4d}" if row.block >= 0 else "    "
        wall = "mirrored" if row.mirrored else f"{row.wall_time:.4f}"
        lines.append(f"  {block}  {sign}  {row.status:<10s}"
                     f"  {row.gamma:<13.6g}  {row.pivots:6d}  {wall}")
    if design.multiplier is not None:
        mult = " ".join(format(v, ".12g") for v in np.atleast_1d(design.multiplier))
        lines.append("")
        lines.append(f"multiplier: {mult}")
    lines.append("")
    lines.append("stacked coefficients N_0..N_dN (row-major):")
    blocks = design.blocks()
    for j, block in enumerate(blocks):
        body = " ".join(format(v, ".12g") for v in block)
        lines.append(f"  N_{j}: {body}")
    return "\n".join(lines) + "\n"


def _write_json(path: str, payload) -> None:
    with open(path, "w", newline="\n") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def _write_filter(design: FilterDesign, eta: float, path: str) -> None:
    payload = {
        "kind": design.kind,
        "d_n": design.d_n,
        "pole": design.pole,
        "gamma": design.gamma,
        "eta": eta,
        "index": list(design.index) if design.index else None,
        "multiplier": (None if design.multiplier is None
                       else list(np.atleast_1d(design.multiplier))),
        "nbar": list(design.nbar),
        "diagnostic": design.diagnostic,
    }
    _write_json(path, payload)


def cmd_design(pipe: Pipeline) -> int:
    design = pipe.design
    out = pipe.out_dir()
    report = format_design_report(design, pipe.overrides)
    with open(os.path.join(out, "design_report.txt"), "w", newline="\n") as fh:
        fh.write(report)
    _write_filter(design, pipe.params["eta"], os.path.join(out, "filter.json"))
    sys.stdout.write(report)
    if design.gamma <= 0.0:
        raise InfeasibleDesignError(
            design.diagnostic or "design certificate is zero")
    return 0


def cmd_attack(pipe: Pipeline) -> int:
    design = pipe.design
    if design.gamma <= 0.0:
        raise InfeasibleDesignError(
            design.diagnostic or "design certificate is zero")
    alpha, payoff = pipe.worst_case
    f_vec = synthesize_attack(pipe.space, alpha)
    out = pipe.out_dir()
    payload = {"alpha_star": list(alpha), "payoff": payoff, "f": list(f_vec),
               "gamma": design.gamma}
    _write_json(os.path.join(out, "attack.json"), payload)
    print(f"worst-case alpha: {alpha}  payoff: {payoff:.12g}")
    return 0


def _run_simulation(pipe: Pipeline, pole: float | None = None):
    f_vec = pipe.attack_vector()
    scenario = cfgmod.build_scenario(pipe.cfg, pipe.discrete, f_vec)
    design = pipe.design
    if pole is not None:
        design = dataclasses.replace(design, pole=pole)
    filt = realize_filter(design, pipe.dae.l)
    trace = simulate(pipe.discrete, scenario, filt)
    trace.metadata["overrides"] = list(pipe.overrides)
    trace.metadata["pole"] = design.pole
    return trace


def cmd_simulate(pipe: Pipeline) -> int:
    trace = _run_simulation(pipe)
    out = pipe.out_dir()
    opts = cfgmod.output_params(pipe.cfg)
    path = os.path.join(out, "trace.csv")
    write_trace_csv(trace, path, include_states=opts["include_states"],
                    include_measurements=opts["include_measurements"])
    _write_json(os.path.join(out, "trace_meta.json"), trace.metadata)
    print(f"wrote {path} ({trace.n_records} records)")
    return 0


def cmd_report(pipe: Pipeline, trace_path: str | None) -> int:
    out = pipe.out_dir()
    path = trace_path or os.path.join(out, "trace.csv")
    cols = read_trace_csv(path)

    def write_panel(name, fields):
        panel = os.path.join(out, name)
        header = ["t"] + fields
        write_csv_table(panel, header, [cols[f] for f in header])
        return panel

    d_fields = sorted((k for k in cols if k.startswith("d_")),
                      key=lambda s: int(s.split("_")[1]))
    f_fields = sorted((k for k in cols if k.startswith("f_")),
                      key=lambda s: int(s.split("_")[1]))
    wrote = [
        write_panel("panel_load_attack.csv", d_fields + f_fields),
        write_panel("panel_static_residual.csv", ["rS_inf"]),
        write_panel("panel_dynamic_residual.csv", ["r_D"]),
    ]
    for p in wrote:
        print(f"wrote {p}")
    return 0


def cmd_sweep_pole(pipe: Pipeline, poles: list[float]) -> int:
    out = pipe.out_dir()
    for pole in poles:
        trace = _run_simulation(pipe, pole=pole)
        name = f"trace_p{pole:g}.csv"
        write_trace_csv(trace, os.path.join(out, name))
        print(f"wrote {os.path.join(out, name)}")
    return 0


def _parse_poles(text: str) -> list[float]:
    try:
        poles = [float(p) for p in text.split(",") if p]
    except ValueError:
        raise ConfigError("--poles",
                          f"expected comma-separated numbers, got {text!r}"
                          ) from None
    if not poles:
        raise ConfigError("--poles", f"no pole given in {text!r}")
    for pole in poles:
        if not 0.0 < pole < 1.0:    # also false for nan
            raise ConfigError("--poles",
                              f"pole must be a number in (0, 1), got {pole!r}")
    return poles


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ConfigError``, so a
    bad command line ends in the one-line error format, not argparse's
    usage text. Subcommand parsers inherit the class."""

    def error(self, message):
        raise ConfigError("argv", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="agcdiag",
        description="Design and evaluate dynamic diagnosis filters for "
                    "stealthy attacks on multi-area AGC systems.")
    parser.add_argument("--config", help="JSON run configuration "
                        "(built-in defaults when omitted)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SEC.KEY=VAL",
                        help="override a config entry (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("design", help="solve the filter design")
    sub.add_parser("attack", help="compute the worst-case attack coefficients")
    sub.add_parser("simulate", help="run the configured scenario")
    rep = sub.add_parser("report", help="emit per-panel plot CSVs from a trace")
    rep.add_argument("--trace", help="trace CSV (default <out>/trace.csv)")
    swp = sub.add_parser("sweep-pole", help="simulate over a list of poles")
    swp.add_argument("--poles", default=",".join(str(p) for p in DEFAULT_POLE_SWEEP),
                     help="comma-separated pole list")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = (cfgmod.load_config(args.config) if args.config
               else cfgmod.default_config())
        overrides = cfgmod.apply_overrides(cfg, args.overrides)
        pipe = Pipeline(cfg, overrides)
        if args.command == "design":
            return cmd_design(pipe)
        if args.command == "attack":
            return cmd_attack(pipe)
        if args.command == "simulate":
            return cmd_simulate(pipe)
        if args.command == "report":
            return cmd_report(pipe, args.trace)
        if args.command == "sweep-pole":
            return cmd_sweep_pole(pipe, _parse_poles(args.poles))
        raise AgcDiagError(f"unknown command {args.command}")
    except ConfigError as exc:
        _error_line("config", str(exc), exc.field)
        return 2
    except InfeasibleDesignError as exc:
        _error_line("infeasible", str(exc))
        return 3
    except AgcDiagError as exc:
        _error_line("runtime", str(exc))
        return 1
    except Exception as exc:  # last resort: one error line, no traceback
        _error_line("runtime", f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
