"""Command-line pipeline: build -> discretize -> design -> attack ->
simulate -> report, driven by one JSON config.

Commands
--------
design      solve the filter design, write design_report.txt + filter.json
attack      compute the attacker's best reply, write attack.json
simulate    run the configured scenario, write trace.csv
report      split a trace into per-panel plot-data CSVs
sweep-pole  simulate once and filter the run with each of a list of poles

Commands run in one process share the model chain, the design and the
attacker's best reply: one process-level record keeps the stages built
last, keyed by the config entries they read and the solvers they call,
and a later command with the same key adopts them. See ``Pipeline``.

The sweep runs the closed loop once: the diagnosis filter reads the
measurements and never feeds back into the loop, so the pole changes r_D
alone. The design is realized once, and each pole's filter is built from
that one numerator ``blocks @ L`` and applied to that one run's
measurements, as ``simulate`` applies a filter after its state loop, so
every ``trace_p*.csv`` has the bytes of a full simulation with that pole.
The columns other than ``r_D`` are formatted once for the whole sweep
(``trace_csv_template``) and each pole fills in its own ``r_D``. The
output flags ``include_states`` and ``include_measurements`` add their
columns to every sweep trace, as they do to ``simulate``'s.

``main`` builds the argument parser on its first call and every later
call in the process parses with that one parser (``build_parser``).

Exit codes: 0 success, 2 bad config or command line (field named on
stderr, ``argv`` for the command line), 3 infeasible design (a zero
certificate), 1 anything else, an empty attack polytope included. Errors
print one machine-readable line:
``error: code=<kind> field=<path> msg="..."``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, cached_property

import numpy as np

from . import config as cfgmod
from . import dae as daemod
from .attacks import synthesize_attack
from .design import (FilterDesign, design_robust, design_steady_state,
                     feasible_basis, worst_case_alpha)
from .errors import (AgcDiagError, ConfigError, InfeasibleDesignError,
                     NumericError, ValidationError)
from .residual import RealizedFilter, realize_filter
from .simulate import (fill_trace_csv, read_trace_csv, simulate, write_text,
                       trace_csv_template, write_csv_table, write_trace_csv)

DEFAULT_POLE_SWEEP = (0.1, 0.2, 0.4, 0.6, 0.98)

_record: dict = {}   # the last Pipeline's key and stages; see Pipeline


def _error_line(code: str, msg: str, field: str = "-") -> None:
    print(f'error: code={code} field={field} msg="{msg}"', file=sys.stderr)


def _freeze(value) -> None:
    """Make read-only every array in ``value``: an array, or a tuple, list,
    dict or ``__slots__`` record holding them, at any depth."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list, dict)):
        for item in (value.values() if isinstance(value, dict) else value):
            _freeze(item)
    else:
        for name in getattr(value, "__slots__", ()):
            _freeze(getattr(value, name))


class Pipeline:
    """Lazy single-config pipeline shared by all commands.

    The stages ``model``, ``discrete``, ``dae``, ``space``, ``params``,
    ``ffb``, ``design`` and ``worst_case`` read only the config entries
    ``model``, ``scenario.t_s``, ``attack.basis`` and ``design``, and call
    only the solvers ``design_robust``, ``design_steady_state`` and
    ``worst_case_alpha`` of this module. ``key`` holds all seven: the
    canonical JSON of the four entries (``sort_keys``; ``true``, ``1`` and
    ``1.0`` differ) and the three solvers as bound when the pipeline is
    made. Each stage built is recorded under its name and ``key`` in
    ``_record``, its arrays made read-only; a stage that raised is not,
    and one built under another key first empties the record. A new
    pipeline with the same key adopts the record on construction, so a
    replaced solver (a test's patch, a profiler's wrapper) rebuilds every
    stage. The record holds no pipeline, config or scenario.
    """

    def __init__(self, cfg: dict, overrides: list[str]):
        self.cfg = cfg
        self.overrides = overrides
        self.key = (json.dumps([cfg["model"], cfg["scenario"]["t_s"],
                                cfg["attack"]["basis"], cfg["design"]],
                               sort_keys=True),
                    design_robust, design_steady_state, worst_case_alpha)
        if _record.get("key") == self.key:
            self.__dict__.update(_record)

    def _keep(self, name: str, value):
        """Record ``value`` as stage ``name`` under this pipeline's key, its
        arrays made read-only, and return it."""
        if _record.get("key") != self.key:
            _record.clear()
            _record["key"] = self.key
        _freeze(value)
        _record[name] = value
        return value

    @cached_property
    def model(self):
        return self._keep("model", cfgmod.build_model(self.cfg))

    @cached_property
    def discrete(self):
        return self._keep("discrete",
                          cfgmod.build_discrete(self.cfg, self.model))

    @cached_property
    def dae(self):
        return self._keep("dae", daemod.build_dae(self.discrete))

    @cached_property
    def space(self):
        return self._keep("space",
                          cfgmod.build_attack_space(self.cfg, self.model))

    @cached_property
    def params(self) -> dict:
        return self._keep("params", cfgmod.design_params(self.cfg))

    @cached_property
    def ffb(self):
        return self._keep("ffb",
                          daemod.attack_gain(self.dae, self.space.basis))

    @cached_property
    def design(self) -> FilterDesign:
        p = self.params
        solve = (design_steady_state if p["kind"] == "steady-state"
                 else design_robust)
        basis = feasible_basis(daemod.stack_hbar(self.dae, p["d_n"]),
                               p["eta"], p["d_n"], p["rank_tol"])
        return self._keep("design", solve(basis, self.ffb, self.space.a,
                                          self.space.b, p["pole"]))

    @cached_property
    def worst_case(self):
        """The attacker's best reply ``(alpha, payoff)`` to the design.

        A robust design's gamma lower-bounds the payoff of every admissible
        attack, so a payoff below gamma (beyond rounding) is a numeric
        failure, checked on every solve. A steady-state design's mu bounds
        the summed gain, not this payoff, and is not compared. A zero
        certificate raises ``InfeasibleDesignError`` before the LP.
        """
        design = self.design
        if design.gamma <= 0.0:
            raise InfeasibleDesignError(
                design.diagnostic or "design certificate is zero")
        alpha, payoff = worst_case_alpha(design.nbar, self.ffb, design.d_n,
                                         self.space.a, self.space.b)
        floor = design.gamma - 1e-9 * max(1.0, abs(design.gamma))
        if design.kind == "robust" and payoff < floor:
            raise NumericError(
                f"worst-case payoff {payoff!r} is below the certified "
                f"gamma = {design.gamma!r}")
        return self._keep("worst_case", (alpha, payoff))

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
        if not os.path.isdir(path):     # a file there still raises
            os.makedirs(path, exist_ok=True)
        return path


def format_design_report(design: FilterDesign, overrides: list[str]) -> str:
    lines = ["diagnosis filter design report", "", f"kind: {design.kind}",
             f"degree d_N: {design.d_n}", f"pole: {design.pole}",
             f"gamma: {design.gamma:.12g}"]
    if design.index is not None:
        lines.append(f"winning index: block {design.index[0]}, "
                     f"sign {design.index[1]:+d}")
    if design.diagnostic:
        lines.append(f"diagnostic: {design.diagnostic}")
    if overrides:
        lines.append("overrides: " + " ".join(overrides))
    lines += ["", "per-index LP results:",
              "  block  sign  status      gamma_i        pivots  wall_s"]
    for row in design.table:
        block = f"{row.block:5d}" if row.block >= 0 else "   ss"
        sign = f"{row.sign:+4d}" if row.block >= 0 else "    "
        wall = "mirrored" if row.mirrored else f"{row.wall_time:.4f}"
        lines.append(f"  {block}  {sign}  {row.status:<10s}"
                     f"  {row.gamma:<13.6g}  {row.pivots:6d}  {wall}")
    mult = " ".join(format(v, ".12g") for v in design.multiplier)
    lines += ["", f"multiplier: {mult}"]
    lines += ["", "stacked coefficients N_0..N_dN (row-major):"]
    for j, block in enumerate(design.blocks()):
        body = " ".join(format(v, ".12g") for v in block)
        lines.append(f"  N_{j}: {body}")
    return "\n".join(lines) + "\n"


def _write_json(path: str, payload) -> None:
    write_text(path, json.dumps(payload, indent=1) + "\n")


def cmd_design(pipe: Pipeline, args) -> int:
    design = pipe.design
    out = pipe.out_dir()
    report = format_design_report(design, pipe.overrides)
    write_text(os.path.join(out, "design_report.txt"), report)
    _write_json(os.path.join(out, "filter.json"), {
        "kind": design.kind,
        "d_n": design.d_n,
        "pole": design.pole,
        "gamma": design.gamma,
        "eta": pipe.params["eta"],
        "index": list(design.index) if design.index else None,
        "multiplier": list(design.multiplier),
        "nbar": list(design.nbar),
        "diagnostic": design.diagnostic,
    })
    sys.stdout.write(report)
    if design.gamma <= 0.0:
        raise InfeasibleDesignError(
            design.diagnostic or "design certificate is zero")
    return 0


def cmd_attack(pipe: Pipeline, args) -> int:
    design = pipe.design
    alpha, payoff = pipe.worst_case
    f_vec = synthesize_attack(pipe.space, alpha)
    _write_json(os.path.join(pipe.out_dir(), "attack.json"), {
        "alpha_star": list(alpha), "payoff": payoff, "f": list(f_vec),
        "gamma": design.gamma})
    print(f"worst-case alpha: {alpha}  payoff: {payoff:.12g}")
    return 0


def _scenario(pipe: Pipeline):
    return cfgmod.build_scenario(pipe.cfg, pipe.discrete, pipe.attack_vector())


def cmd_simulate(pipe: Pipeline, args) -> int:
    scenario = _scenario(pipe)
    trace = simulate(pipe.discrete, scenario,
                     realize_filter(pipe.design, pipe.dae.l))
    # the trace's metadata, its seed first, with the scenario's fingerprint
    # second: trace_meta.json is the one file that records the fingerprint
    meta = {"seed": scenario.seed, "scenario": scenario.fingerprint(),
            **trace.metadata, "overrides": list(pipe.overrides),
            "pole": pipe.design.pole}
    out = pipe.out_dir()
    opts = cfgmod.output_params(pipe.cfg)
    path = os.path.join(out, "trace.csv")
    write_trace_csv(trace, path, include_states=opts["include_states"],
                    include_measurements=opts["include_measurements"])
    _write_json(os.path.join(out, "trace_meta.json"), meta)
    print(f"wrote {path} ({trace.n_records} records)")
    return 0


def cmd_report(pipe: Pipeline, args) -> int:
    out = pipe.out_dir()
    path = args.trace or os.path.join(out, "trace.csv")
    if not os.path.isfile(path):
        raise ConfigError("--trace", f"no trace file at {path}")
    cols = read_trace_csv(path)
    for name in ("t", "rS_inf", "r_D"):
        if name not in cols:
            raise ValidationError(
                f"malformed trace CSV {path}: no column {name!r}")

    def index(name):
        if not name[2:].isdecimal():    # int() also takes "1_0" and " 1"
            raise ValidationError(f"malformed trace CSV {path}: column "
                                  f"{name!r} has no integer index")
        return int(name[2:])

    load_attack = [name for prefix in ("d_", "f_") for name in sorted(
        (k for k in cols if k.startswith(prefix)), key=index)]
    panels = (("panel_load_attack.csv", ["t"] + load_attack),
              ("panel_static_residual.csv", ["t", "rS_inf"]),
              ("panel_dynamic_residual.csv", ["t", "r_D"]))
    for name, header in panels:
        write_csv_table(os.path.join(out, name), header,
                        [cols[f] for f in header])
    for name, _ in panels:
        print(f"wrote {os.path.join(out, name)}")
    return 0


def cmd_sweep_pole(pipe: Pipeline, args) -> int:
    """One closed-loop run, filtered with each pole in turn; see the module
    docstring."""
    poles = _parse_poles(args.poles)
    opts = cfgmod.output_params(pipe.cfg)
    scenario = _scenario(pipe)
    design = pipe.design
    plant = simulate(pipe.discrete, scenario)
    # every r_D before the directory and any file, so a refused scenario or
    # a non-finite r_D leaves nothing behind
    numerator = realize_filter(design, pipe.dae.l).numerator
    r_ds = [RealizedFilter(numerator, pole).apply(plant.y)
            for pole in poles]
    template = trace_csv_template(
        plant, include_states=opts["include_states"],
        include_measurements=opts["include_measurements"])
    out = pipe.out_dir()
    for pole, r_d in zip(poles, r_ds):
        path = os.path.join(out, _pole_trace_name(pole))
        fill_trace_csv(template, r_d, path)
        print(f"wrote {path}")
    return 0


def _pole_trace_name(pole: float) -> str:
    return f"trace_p{pole:g}.csv"


def _parse_poles(text: str) -> list[float]:
    try:
        poles = [float(p) for p in text.split(",") if p]
    except ValueError:
        raise ConfigError("--poles",
                          f"expected comma-separated numbers, got {text!r}"
                          ) from None
    if not poles:
        raise ConfigError("--poles", f"no pole given in {text!r}")
    first = {}
    for pole in poles:
        if not 0.0 < pole < 1.0:    # also false for nan
            raise ConfigError("--poles",
                              f"pole must be a number in (0, 1), got {pole!r}")
        name = _pole_trace_name(pole)
        if name in first:
            raise ConfigError("--poles", f"poles {first[name]!r} and {pole!r} "
                                         f"share the trace file {name}")
        first[name] = pole
    return poles


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ConfigError``, so a
    bad command line ends in the one-line error format, not argparse's
    usage text. Subcommand parsers inherit the class."""

    def error(self, message):
        raise ConfigError("argv", message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later call in the process. Parsing leaves it as it was: each parse
    fills a new namespace, and ``--set`` appends to a copy of its default
    list, so no call sees another's arguments."""
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
    # (name, handler(pipeline, args) for main, help, {flag: keywords})
    for name, run, text, options in (
            ("design", cmd_design, "solve the filter design", {}),
            ("attack", cmd_attack,
             "compute the worst-case attack coefficients", {}),
            ("simulate", cmd_simulate, "run the configured scenario", {}),
            ("report", cmd_report, "emit per-panel plot CSVs from a trace",
             {"--trace": {"help": "trace CSV (default <out>/trace.csv)"}}),
            ("sweep-pole", cmd_sweep_pole, "simulate over a list of poles",
             {"--poles": {"default": ",".join(map(str, DEFAULT_POLE_SWEEP)),
                          "help": "comma-separated pole list"}})):
        cmd = sub.add_parser(name, help=text)
        cmd.set_defaults(run=run)
        for flag, keywords in options.items():
            cmd.add_argument(flag, **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = (cfgmod.load_config(args.config) if args.config
               else cfgmod.default_config())
        overrides = cfgmod.apply_overrides(cfg, args.overrides)
        return args.run(Pipeline(cfg, overrides), args)
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
