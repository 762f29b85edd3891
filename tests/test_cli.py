import copy
import json
import math
import os
import runpy
import subprocess
import sys

import numpy as np
import pytest
from agcdiag import cli, lp
from agcdiag import config as cfgmod
from agcdiag.cli import main
from agcdiag.errors import NumericError
from agcdiag.residual import realize_filter
from agcdiag.simulate import read_trace_csv, simulate, write_trace_csv

from test_golden import GOLDEN, output_hashes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPRODUCE = os.path.join(ROOT, "scripts", "reproduce_experiments.py")


def areas_override(edit):
    """A ``model.areas=...`` override: the default areas after ``edit``."""
    areas = cfgmod.default_config()["model"]["areas"]
    edit(areas)
    return "model.areas=" + json.dumps(areas)


def run_cli(args, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AGCDIAG_OUTDIR", str(tmp_path))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDesignCommand:
    def test_default_design_report(self, tmp_path, monkeypatch, capsys):
        code, out, err = run_cli(["design"], tmp_path, monkeypatch, capsys)
        assert code == 0
        report = (tmp_path / "design_report.txt").read_text()
        assert "gamma:" in report
        # 8 LP rows for d_N = 3
        lp_rows = [ln for ln in report.splitlines()
                   if ln.strip().startswith(("0", "1", "2", "3"))
                   and "optimal" in ln]
        assert len(lp_rows) == 8
        # the -1 row of each block mirrors the solved +1 row
        assert [ln.split()[-1] == "mirrored" for ln in lp_rows] == \
            [False, True] * 4
        assert [int(ln.split()[4]) for ln in lp_rows] == \
            [36, 0, 226, 0, 47, 0, 57, 0]
        payload = json.loads((tmp_path / "filter.json").read_text())
        assert payload["gamma"] > 0
        assert len(payload["nbar"]) == 4 * (19 + 25)

    def test_infeasible_design_exits_3(self, tmp_path, monkeypatch, capsys):
        code, out, err = run_cli(
            ["--set", "design.polytope_b=[-1.0]", "design"],
            tmp_path, monkeypatch, capsys)
        assert code == 3
        assert "error: code=infeasible" in err

    @pytest.mark.parametrize("command", ["design", "attack"])
    def test_empty_polytope_exits_1(self, command, tmp_path, monkeypatch,
                                    capsys):
        # used to exit 3, as if every attack could null the filter family
        code, out, err = run_cli(
            ["--set", "design.polytope_a=[[1,0,0],[-1,0,0]]",
             "--set", "design.polytope_b=[1,1]", command],
            tmp_path, monkeypatch, capsys)
        assert code == 1 and out == ""
        assert err == ('error: code=runtime field=- msg="empty attack set: '
                       '{A a >= b} has no points"\n')
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("tol", ["0.01", "0.1", "0.5"])
    def test_rank_cut_inside_the_spectrum_exits_1(self, tol, tmp_path,
                                                  monkeypatch, capsys):
        # used to certify gamma 3 for a filter with ||Nbar Hbar|| = 10.2
        code, out, err = run_cli(["--set", f"design.rank_tol={tol}",
                                  "design"], tmp_path, monkeypatch, capsys)
        assert code == 1 and out == ""
        assert err.startswith('error: code=runtime field=- '
                              f'msg="rank tolerance {tol} cuts inside ')
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("tol", ["0", "1e-20", "1e-16", "1e-3"])
    def test_rank_cut_in_the_gap_keeps_the_filter(self, tol, tmp_path,
                                                  monkeypatch, capsys):
        # 0 and 1e-20 used to count Hbar's rounding-level singular values
        # as rank and exit 1 on a tableau blow-up
        code, _, _ = run_cli(["design"], tmp_path / "default", monkeypatch,
                             capsys)
        assert code == 0
        code, _, _ = run_cli(["--set", f"design.rank_tol={tol}", "design"],
                             tmp_path / "cut", monkeypatch, capsys)
        assert code == 0
        assert (tmp_path / "cut" / "filter.json").read_bytes() == \
            (tmp_path / "default" / "filter.json").read_bytes()

    def test_pivot_cap_names_its_lp(self, tmp_path, monkeypatch, capsys):
        # the cap used to raise past the design's LP name
        monkeypatch.setattr(lp, "MAX_ITER", 5)
        code, out, err = run_cli(["design"], tmp_path, monkeypatch, capsys)
        assert code == 1 and out == ""
        assert err == ('error: code=runtime field=- msg="relaxation LP '
                       '(0, +1): simplex exceeded 5 pivots"\n')
        assert not list(tmp_path.iterdir())

    def test_steady_state_kind_selected(self, tmp_path, monkeypatch, capsys):
        # structurally mu = 0 on the AGC default: exit 3 with the diagnostic
        code, out, err = run_cli(
            ["--set", "design.kind=steady-state", "design"],
            tmp_path, monkeypatch, capsys)
        assert code == 3
        payload = json.loads((tmp_path / "filter.json").read_text())
        assert payload["kind"] == "steady-state"
        assert payload["gamma"] == 0.0


class TestSimulateCommand:
    def test_byte_identical_reruns(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run_cli(["simulate"], tmp_path, monkeypatch, capsys)
        assert code == 0
        first = (tmp_path / "trace.csv").read_bytes()
        code, _, _ = run_cli(["simulate"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert (tmp_path / "trace.csv").read_bytes() == first

    def test_trace_is_reparseable(self, tmp_path, monkeypatch, capsys):
        run_cli(["simulate"], tmp_path, monkeypatch, capsys)
        cols = read_trace_csv(tmp_path / "trace.csv")
        assert cols["k"].size == 121
        assert "rS_inf" in cols and "r_D" in cols

    def test_override_changes_seed_and_is_echoed(self, tmp_path, monkeypatch,
                                                 capsys):
        run_cli(["--set", "scenario.seed=9", "simulate"], tmp_path,
                monkeypatch, capsys)
        meta = json.loads((tmp_path / "trace_meta.json").read_text())
        assert meta["seed"] == 9
        assert "scenario.seed=9" in meta["overrides"]

    def test_worst_case_attack_mode(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run_cli(
            ["--set", "attack.mode=worst-case",
             "--set", "scenario.horizon_s=20.0",
             "--set", "scenario.onset_s=10.0", "simulate"],
            tmp_path, monkeypatch, capsys)
        assert code == 0
        cols = read_trace_csv(tmp_path / "trace.csv")
        assert np.abs(cols["f_1"]).max() > 0


    def test_no_attack_mode_injects_nothing(self, tmp_path, monkeypatch,
                                            capsys):
        code, _, _ = run_cli(["--set", "attack.mode=none", "simulate"],
                             tmp_path, monkeypatch, capsys)
        assert code == 0
        cols = read_trace_csv(tmp_path / "trace.csv")
        f_cols = [k for k in cols if k.startswith("f_")]
        assert len(f_cols) == 5
        assert all(np.all(cols[k] == 0.0) for k in f_cols)

    def test_gamma_bounds_a_block_gain_not_the_r_d_peak(
            self, chain, tmp_path, monkeypatch, capsys):
        """gamma bounds the largest block gain max_j |N_j F F_b' alpha| over
        the polytope, not the r_D excursion (ROADMAP item 18). This alpha
        meets the certificate with block gains (-1.21, 3.00, -2.44, 0.65),
        yet at the shipped pole its noise-free r_D peaks below 0.01 after
        the onset."""
        alpha = [4.798, -0.194, -3.104]
        gains = chain.design.blocks() @ chain.ffb @ np.array(alpha)
        assert np.abs(gains).max() >= chain.design.gamma * (1 - 1e-9)
        code, _, _ = run_cli(
            ["--set", "attack.mode=alpha",
             "--set", f"attack.alpha={json.dumps(alpha)}",
             "--set", "scenario.process_noise=null",
             "--set", "scenario.measurement_noise=null",
             "--set", "scenario.load_std={}", "simulate"],
            tmp_path, monkeypatch, capsys)
        assert code == 0
        cols = read_trace_csv(tmp_path / "trace.csv")
        onset = cfgmod.default_config()["scenario"]["onset_s"]
        peak = np.abs(cols["r_D"][cols["t"] > onset]).max()
        assert 0 < peak < 0.01


class TestAttackCommand:
    def test_writes_alpha_and_f(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(["attack"], tmp_path, monkeypatch, capsys)
        assert code == 0
        payload = json.loads((tmp_path / "attack.json").read_text())
        assert len(payload["alpha_star"]) == 3
        assert len(payload["f"]) == 5
        assert payload["payoff"] >= payload["gamma"] - 1e-8
        assert sum(payload["alpha_star"]) >= 1.5 - 1e-8


    @pytest.mark.parametrize("args", [
        ["--set", "design.polytope_b=[-1.0]", "attack"],
        ["--set", "design.d_n=0", "attack"],
        ["--set", "design.d_n=0", "--set", "attack.mode=worst-case",
         "simulate"],
        ["--set", "design.d_n=0", "--set", "attack.mode=worst-case",
         "sweep-pole"],
        ["--set", "design.kind=steady-state", "--set",
         "attack.mode=worst-case", "simulate"],
    ], ids=["attack-polytope", "attack-d0", "simulate-d0", "sweep-pole-d0",
            "simulate-steady-state"])
    def test_zero_certificate_exits_3(self, args, tmp_path, monkeypatch,
                                      capsys):
        # no reply is solved against a filter that certifies nothing, and
        # no run injects one
        code, out, err = run_cli(args, tmp_path, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: code=infeasible field=- ")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    def test_payoff_below_gamma_exits_1(self, tmp_path, monkeypatch, capsys):
        solve = cli.worst_case_alpha

        def low(*args, **kwargs):
            alpha, payoff = solve(*args, **kwargs)
            return alpha, payoff - 0.5

        monkeypatch.setattr(cli, "worst_case_alpha", low)
        code, _, err = run_cli(["attack"], tmp_path, monkeypatch, capsys)
        assert code == 1
        assert err.startswith("error: code=runtime field=- ")
        assert "below the certified gamma" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "attack.json").exists()


class TestReportCommand:
    @pytest.mark.parametrize("text, missing", [
        ("k,t,d_1\n0,0,0.5\n1,0.1,0.5\n", "rS_inf"),
        ("k,t,d_1,rS_inf\n0,0,0.5,0\n", "r_D"),
        ("k,d_1,rS_inf,r_D\n0,0.5,0,0\n", "t"),
    ], ids=["no-rS_inf", "no-r_D", "no-t"])
    def test_missing_column_exits_1_without_panels(self, text, missing,
                                                   tmp_path, monkeypatch,
                                                   capsys):
        trace = tmp_path / "short.csv"
        trace.write_text(text)
        code, out, err = run_cli(["report", "--trace", str(trace)],
                                 tmp_path, monkeypatch, capsys)
        assert code == 1
        assert err.startswith("error: code=runtime field=- ")
        assert f"no column {missing!r}" in err
        assert len(err.splitlines()) == 1 and out == ""
        assert not list(tmp_path.glob("panel_*.csv"))

    @pytest.mark.parametrize("column", ["d_a", "f_1_2"])
    def test_non_integer_column_suffix_exits_1_without_panels(
            self, column, tmp_path, monkeypatch, capsys):
        # d_a used to end in main's last-resort handler as a bare
        # ValueError, and f_1_2 was read as f_1
        trace = tmp_path / "odd.csv"
        trace.write_text(f"k,t,{column},rS_inf,r_D\n0,0,0.5,0,0\n")
        code, out, err = run_cli(["report", "--trace", str(trace)],
                                 tmp_path, monkeypatch, capsys)
        assert code == 1 and out == ""
        assert err == (f'error: code=runtime field=- msg="malformed trace '
                       f"CSV {trace}: column {column!r} has no integer "
                       f'index"\n')
        assert not list(tmp_path.glob("panel_*.csv"))

    def test_panels_written(self, tmp_path, monkeypatch, capsys):
        run_cli(["simulate"], tmp_path, monkeypatch, capsys)
        code, _, _ = run_cli(["report"], tmp_path, monkeypatch, capsys)
        assert code == 0
        for name in ("panel_load_attack.csv", "panel_static_residual.csv",
                     "panel_dynamic_residual.csv"):
            panel = tmp_path / name
            assert panel.exists()
            cols = read_trace_csv(panel)   # panels reparse with the same reader
            assert "t" in cols and cols["t"].size == 121
        dyn = (tmp_path / "panel_dynamic_residual.csv").read_text()
        assert dyn.splitlines()[0] == "t,r_D"


@pytest.mark.parametrize("command", ["simulate", "sweep-pole"])
def test_refused_run_makes_no_output_directory(command, tmp_path,
                                               monkeypatch, capsys):
    """A run refused before its first file (here a zero certificate) leaves
    no output directory behind."""
    out = tmp_path / "o"
    code, _, err = run_cli(["--set", "design.d_n=0", "--set",
                            "attack.mode=worst-case", command],
                           out, monkeypatch, capsys)
    assert code == 3 and err.startswith("error: code=infeasible ")
    assert not out.exists()


def test_attack_checks_the_design_section_once(tmp_path, monkeypatch,
                                               capsys):
    calls = []
    check = cfgmod.design_params

    def counted(cfg):
        calls.append(1)
        return check(cfg)

    monkeypatch.setattr(cfgmod, "design_params", counted)
    code, _, _ = run_cli(["attack"], tmp_path, monkeypatch, capsys)
    assert code == 0 and len(calls) == 1


def test_simulate_checks_each_label_map_once(label_value_calls, tmp_path,
                                             monkeypatch, capsys):
    """``config.build_scenario`` checks the maps; ``simulate`` finds them
    resolved."""
    code, _, _ = run_cli(["simulate"], tmp_path, monkeypatch, capsys)
    assert code == 0
    assert label_value_calls == ["load_std", "process_noise",
                                 "measurement_noise"]


def test_trace_meta_records_the_scenario_fingerprint(tmp_path, monkeypatch,
                                                     capsys):
    """``cmd_simulate`` writes the fingerprint, second after the seed."""
    code, _, _ = run_cli(["simulate"], tmp_path, monkeypatch, capsys)
    assert code == 0
    meta = json.loads((tmp_path / "trace_meta.json").read_text())
    assert list(meta)[:3] == ["seed", "scenario", "t_s"]
    assert list(meta)[-2:] == ["overrides", "pole"]
    cfg = cfgmod.default_config()
    pipe = cli.Pipeline(cfg, [])
    scenario = cfgmod.build_scenario(cfg, pipe.discrete,
                                     pipe.attack_vector())
    assert meta["scenario"] == scenario.fingerprint()


class TestSweepPole:
    def test_default_pole_list(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run_cli(
            ["--set", "scenario.horizon_s=10.0",
             "--set", "scenario.onset_s=5.0", "sweep-pole"],
            tmp_path, monkeypatch, capsys)
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("trace_p*.csv"))
        assert names == ["trace_p0.1.csv", "trace_p0.2.csv", "trace_p0.4.csv",
                         "trace_p0.6.csv", "trace_p0.98.csv"]

    def test_worst_case_solved_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        solve = cli.worst_case_alpha

        def count(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "worst_case_alpha", count)
        code, _, _ = run_cli(
            ["--set", "attack.mode=worst-case",
             "--set", "scenario.horizon_s=10.0",
             "--set", "scenario.onset_s=5.0", "sweep-pole"],
            tmp_path, monkeypatch, capsys)
        assert code == 0
        assert len(list(tmp_path.glob("trace_p*.csv"))) == 5
        assert len(calls) == 1

    @pytest.mark.parametrize("overrides", [
        ["attack.mode=worst-case"],
        ["attack.mode=raw", "attack.raw_f=[0.38,0.0,0.53,-0.23,-0.23]",
         "scenario.process_noise=null", "scenario.measurement_noise=null"],
        ["attack.mode=worst-case", "output.include_states=true",
         "output.include_measurements=true"],
    ], ids=["noisy-worst-case", "noise-free-raw", "every-column"])
    def test_each_trace_matches_a_full_simulation(self, overrides, tmp_path,
                                                  monkeypatch, capsys):
        overrides = [*overrides, "scenario.horizon_s=20.0",
                     "scenario.onset_s=10.0", "scenario.seed=3"]
        args = [a for o in overrides for a in ("--set", o)]
        code, _, _ = run_cli([*args, "sweep-pole"], tmp_path, monkeypatch,
                             capsys)
        assert code == 0
        cfg = cfgmod.default_config()
        cfgmod.apply_overrides(cfg, overrides)
        pipe = cli.Pipeline(cfg, overrides)
        scenario = cfgmod.build_scenario(cfg, pipe.discrete,
                                         pipe.attack_vector())
        opts = cfgmod.output_params(cfg)
        for pole in cli.DEFAULT_POLE_SWEEP:
            design = copy.copy(pipe.design)
            design.pole = pole
            trace = simulate(pipe.discrete, scenario,
                             realize_filter(design, pipe.dae.l))
            assert np.abs(trace.r_d).max() > 0.0
            expected = tmp_path / "expected.csv"
            write_trace_csv(trace, expected,
                            include_states=opts["include_states"],
                            include_measurements=opts["include_measurements"])
            got = tmp_path / f"trace_p{pole:g}.csv"
            assert got.read_bytes() == expected.read_bytes(), pole

    @pytest.mark.parametrize("args, n_traces", [
        (["--set", "design.d_n=10", "--set", "attack.mode=worst-case",
          "--set", "scenario.horizon_s=300", "sweep-pole"], 5),
        (["sweep-pole", "--poles", "0.6,0.999999"], 2),
    ], ids=["degree-10", "pole-0.999999"])
    def test_high_degree_or_pole_near_one_writes_finite_traces(
            self, args, n_traces, tmp_path, monkeypatch, capsys):
        # the first-order sections realize any pole in (0, 1) at any degree
        code, _, _ = run_cli(args, tmp_path, monkeypatch, capsys)
        assert code == 0
        names = sorted(tmp_path.glob("trace_p*.csv"))
        assert len(names) == n_traces
        for name in names:
            r_d = read_trace_csv(name)["r_D"]
            assert np.isfinite(r_d).all() and np.abs(r_d).max() > 0.0

    @pytest.mark.parametrize("flag, prefix, other", [
        ("include_states", "X_", "Y_"),
        ("include_measurements", "Y_", "X_"),
    ])
    def test_output_flags_add_columns(self, flag, prefix, other, tmp_path,
                                      monkeypatch, capsys):
        code, _, _ = run_cli(
            ["--set", "scenario.horizon_s=10.0",
             "--set", "scenario.onset_s=5.0",
             "--set", f"output.{flag}=true", "sweep-pole", "--poles", "0.5,0.8"],
            tmp_path, monkeypatch, capsys)
        assert code == 0
        for name in ("trace_p0.5.csv", "trace_p0.8.csv"):
            header = (tmp_path / name).read_text().splitlines()[0].split(",")
            assert any(col.startswith(prefix) for col in header), name
            assert not any(col.startswith(other) for col in header), name


def test_reproduce_pass_work_counts(tmp_path, monkeypatch, capsys):
    """One pass of the reproduce script in this process simulates three
    closed loops: the two scenarios and one for the five-pole sweep."""
    runs = []
    run = cli.simulate

    def counted_simulate(*args, **kwargs):
        runs.append(1)
        return run(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate", counted_simulate)
    monkeypatch.setenv("AGCDIAG_OUTDIR", str(tmp_path))
    monkeypatch.setattr(sys, "argv", [REPRODUCE, "--out", str(tmp_path)])
    runpy.run_path(REPRODUCE, run_name="__main__")
    capsys.readouterr()
    assert len(list((tmp_path / "pole_sweep").glob("trace_p*.csv"))) == 5
    assert len(runs) == 3


def test_reproduce_pass_solves_the_reply_once(tmp_path, monkeypatch,
                                              capsys):
    """One pass of the reproduce script in this process solves the
    attacker's best reply once: ``attack``, scenario 2 and the sweep share
    one design, so they share its reply."""
    replies = []
    solve = cli.worst_case_alpha

    def counted(*args, **kwargs):
        replies.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "worst_case_alpha", counted)
    monkeypatch.setenv("AGCDIAG_OUTDIR", str(tmp_path))
    monkeypatch.setattr(sys, "argv", [REPRODUCE, "--out", str(tmp_path)])
    runpy.run_path(REPRODUCE, run_name="__main__")
    capsys.readouterr()
    assert len(replies) == 1


def test_reproduce_pass_builds_the_model_chain_once(tmp_path, monkeypatch,
                                                   capsys, chain_builds):
    """One pass of the reproduce script in this process assembles and
    samples the model once: its commands repeat the config entries the
    model chain reads. A second pass in the same process builds neither."""
    monkeypatch.setenv("AGCDIAG_OUTDIR", str(tmp_path))
    monkeypatch.setattr(sys, "argv", [REPRODUCE, "--out", str(tmp_path)])
    runpy.run_path(REPRODUCE, run_name="__main__")
    assert chain_builds == {"assemble_system": 1, "zoh_discretize": 1}
    runpy.run_path(REPRODUCE, run_name="__main__")
    capsys.readouterr()
    assert chain_builds == {"assemble_system": 1, "zoh_discretize": 1}


def test_second_reproduce_pass_writes_the_golden_outputs(tmp_path,
                                                         monkeypatch, capsys):
    """A second pass of the reproduce script in this process adopts the
    model chain, the design and the reply of the first, and writes the
    same bytes as a pass in a fresh process."""
    for out in (tmp_path / "first", tmp_path / "second"):
        monkeypatch.setenv("AGCDIAG_OUTDIR", str(out))
        monkeypatch.setattr(sys, "argv", [REPRODUCE, "--out", str(out)])
        runpy.run_path(REPRODUCE, run_name="__main__")
    capsys.readouterr()
    assert output_hashes(tmp_path / "second") == GOLDEN


def test_reproduce_pass_builds_the_parser_once(tmp_path, monkeypatch,
                                               capsys):
    """One pass of the reproduce script in this process builds the
    argument parser once and parses all seven commands with it."""
    cli.build_parser.cache_clear()
    monkeypatch.setenv("AGCDIAG_OUTDIR", str(tmp_path))
    monkeypatch.setattr(sys, "argv", [REPRODUCE, "--out", str(tmp_path)])
    runpy.run_path(REPRODUCE, run_name="__main__")
    capsys.readouterr()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 6)


def test_shared_parser_carries_nothing_into_the_next_call(tmp_path,
                                                         monkeypatch, capsys):
    """After calls with ``--set``, ``report --trace`` and ``sweep-pole
    --poles``, calls without them see the defaults."""
    short = ["--set", "scenario.horizon_s=10.0",
             "--set", "scenario.onset_s=5.0"]
    first, second = tmp_path / "first", tmp_path / "second"
    monkeypatch.setenv("AGCDIAG_OUTDIR", str(first))
    assert main([*short, "simulate"]) == 0
    assert main(["report", "--trace", str(first / "trace.csv")]) == 0
    assert main([*short, "sweep-pole", "--poles", "0.5"]) == 0
    monkeypatch.setenv("AGCDIAG_OUTDIR", str(second))
    assert main(["simulate"]) == 0
    assert main(["report"]) == 0
    assert main(["sweep-pole"]) == 0
    capsys.readouterr()
    meta = json.loads((second / "trace_meta.json").read_text())
    assert meta["overrides"] == []
    rows = len(read_trace_csv(str(second / "trace.csv"))["t"])
    assert rows > len(read_trace_csv(str(first / "trace.csv"))["t"])
    panel = read_trace_csv(str(second / "panel_dynamic_residual.csv"))
    assert len(panel["t"]) == rows
    assert sorted(p.name for p in second.glob("trace_p*.csv")) == [
        f"trace_p{pole:g}.csv" for pole in cli.DEFAULT_POLE_SWEEP]
    assert cli.build_parser().get_default("overrides") == []


@pytest.mark.parametrize("bad", [
    ["nope"], ["design", "--bogus"],
    ["--set", "design.d_n=2", "sweep-pole", "--poles", "0.5", "--bogus"],
])
def test_argv_error_between_calls_changes_nothing(bad, tmp_path, monkeypatch,
                                                  capsys):
    before, after = tmp_path / "before", tmp_path / "after"
    monkeypatch.setenv("AGCDIAG_OUTDIR", str(before))
    assert main(["design"]) == 0
    out = capsys.readouterr().out
    assert main(bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: code=config field=argv ")
    assert len(err.splitlines()) == 1
    monkeypatch.setenv("AGCDIAG_OUTDIR", str(after))
    assert main(["design"]) == 0
    assert capsys.readouterr().out == out
    for name in ("design_report.txt", "filter.json"):
        assert (after / name).read_bytes() == (before / name).read_bytes()


def test_reproduce_pass_projector_counts(tmp_path, monkeypatch, capsys,
                                         projectors_computed,
                                         label_value_calls):
    """The first pass of the reproduce script in this process computes two
    static-residual projectors: C alone, and C weighted by the shipped
    noise table. A second pass finds both, with their label maps, in the
    resolved entries: it computes no projector and checks no map."""
    monkeypatch.setenv("AGCDIAG_OUTDIR", str(tmp_path))
    monkeypatch.setattr(sys, "argv", [REPRODUCE, "--out", str(tmp_path)])
    runpy.run_path(REPRODUCE, run_name="__main__")
    assert len(projectors_computed) == 2
    assert label_value_calls
    projectors_computed.clear()
    label_value_calls.clear()
    runpy.run_path(REPRODUCE, run_name="__main__")
    capsys.readouterr()
    assert projectors_computed == []
    assert label_value_calls == []


@pytest.fixture
def solves(monkeypatch):
    """Records every design the CLI solves, robust or steady-state."""
    calls = []

    def counted(solve):
        def wrapper(*args, **kwargs):
            calls.append(solve.__name__)
            return solve(*args, **kwargs)
        return wrapper

    for name in ("design_robust", "design_steady_state"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    return calls


@pytest.fixture
def chain_builds(monkeypatch):
    """Counts the models ``agcdiag.config`` assembles and samples."""
    calls = {"assemble_system": 0, "zoh_discretize": 0}

    def counted(name, build):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cfgmod, name, counted(name, getattr(cfgmod, name)))
    return calls


def leaves(value, path):
    """``(path, value)`` for every array and scalar inside a pipeline
    stage, at any depth; the LP wall times, which differ per solve, are
    left out."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (tuple, list)):
        items = enumerate(value)
    elif hasattr(value, "__slots__"):   # a record; arrays have no __slots__
        items = ((name, getattr(value, name)) for name in value.__slots__
                 if name != "wall_time")
    else:
        return [(path, value)]
    return [leaf for key, item in items
            for leaf in leaves(item, f"{path}.{key}")]


STAGES = ("model", "discrete", "dae", "space", "params", "ffb", "design",
          "worst_case")


def test_every_stage_is_recorded_under_its_name():
    pipe = cli.Pipeline(cfgmod.default_config(), [])
    built = {name: getattr(pipe, name) for name in STAGES}
    assert set(cli._record) == {"key", *STAGES}
    assert cli._record["key"] == pipe.key
    for name in STAGES:
        assert cli._record[name] is built[name], name


def test_the_key_holds_every_solver_the_stages_call(monkeypatch):
    default = cli.Pipeline(cfgmod.default_config(), []).key
    for name in ("design_robust", "design_steady_state", "worst_case_alpha"):
        with monkeypatch.context() as patch:
            solve = getattr(cli, name)
            patch.setattr(cli, name, lambda *args, solve=solve: solve(*args))
            assert cli.Pipeline(cfgmod.default_config(), []).key != default
        assert cli.Pipeline(cfgmod.default_config(), []).key == default


class TestDesignMemo:
    SHORT = ["--set", "scenario.horizon_s=10.0",
             "--set", "scenario.onset_s=5.0"]

    def test_commands_of_one_process_solve_once(self, solves, tmp_path,
                                                monkeypatch, capsys):
        for args in (["design"], ["attack"], [*self.SHORT, "sweep-pole"]):
            code, _, _ = run_cli(args, tmp_path, monkeypatch, capsys)
            assert code == 0
        assert solves == ["design_robust"]

    @pytest.mark.parametrize("override", [
        "design.d_n=2", "design.eta=5.0", "design.pole=0.5",
        "design.polytope_b=[2.0]", "design.kind=steady-state",
        "design.rank_tol=1e-08", "scenario.t_s=0.25",
        areas_override(lambda a: a[0].update(inertia=4.1)),
        "attack.basis=" + json.dumps(
            [[0.2, 0.0, 0.2, 0.0, 0.0], [0.1, 0.15, 0.25, 0.0, 0.0],
             [0.0, 0.0, 0.0, 0.1, 0.1]]),
        "model.attacked_measurements=" + json.dumps(
            ["area1.tie_area2", "area1.tie_area3", "area1.tie_total",
             "area3.tie_area2", "area3.tie_total"]),
    ], ids=["d_n", "eta", "pole", "polytope_b", "kind", "rank_tol", "t_s",
            "areas", "basis", "attacked_measurements"])
    def test_each_design_input_solves_again(self, override, solves, tmp_path,
                                            monkeypatch, capsys, chain_builds):
        assert run_cli(["design"], tmp_path, monkeypatch, capsys)[0] == 0
        code, _, _ = run_cli(["--set", override, "design"], tmp_path,
                             monkeypatch, capsys)
        assert code in (0, 3)   # the steady-state design certifies mu = 0
        assert len(solves) == 2
        # one record holds the stages of one key: the model chain too
        assert chain_builds == {"assemble_system": 2, "zoh_discretize": 2}

    def test_report_leaves_the_record(self, solves, chain_builds, tmp_path,
                                      monkeypatch, capsys):
        # report builds no stage, so its other key empties nothing
        for args in ([*self.SHORT, "simulate"],
                     ["--set", "design.d_n=2", "report"], ["design"]):
            assert run_cli(args, tmp_path, monkeypatch, capsys)[0] == 0
        assert solves == ["design_robust"]
        assert chain_builds == {"assemble_system": 1, "zoh_discretize": 1}

    def test_bool_entry_is_not_its_integer(self, solves, tmp_path,
                                           monkeypatch, capsys):
        # true == 1 in Python: a key built on == would reuse the d_n = 1
        # design and exit 0
        assert run_cli(["--set", "design.d_n=1", "design"], tmp_path,
                       monkeypatch, capsys)[0] == 0
        code, out, err = run_cli(["--set", "design.d_n=true", "design"],
                                 tmp_path, monkeypatch, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: code=config field=design.d_n ")
        assert solves == ["design_robust"]

    def test_shared_stages_are_read_only(self, chain_builds):
        pipe = cli.Pipeline(cfgmod.default_config(), [])
        pipe.ffb    # builds and records the model chain
        again = cli.Pipeline(cfgmod.default_config(), [])
        assert again.discrete is pipe.discrete
        for arr in (again.discrete.a_cl, again.model.c, again.dae.h0,
                    again.space.basis, again.space.a, again.ffb):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.0
        assert chain_builds == {"assemble_system": 1, "zoh_discretize": 1}

    def test_the_key_holds_every_entry_the_stages_read(self, monkeypatch):
        """Stages built from a config of only the keyed entries equal the
        stages of the full default: a stage that reads another entry fails
        here instead of being adopted under a key that misses it."""
        full = cfgmod.default_config()
        keyed = {"model": full["model"],
                 "scenario": {"t_s": full["scenario"]["t_s"]},
                 "attack": {"basis": full["attack"]["basis"]},
                 "design": full["design"]}
        pipe = cli.Pipeline(copy.deepcopy(keyed), [])
        built = {name: getattr(pipe, name) for name in STAGES}
        monkeypatch.setattr(cli, "_record", {})
        ref = cli.Pipeline(full, [])
        assert ref.key == pipe.key
        for name in STAGES:
            got, want = leaves(built[name], name), leaves(getattr(ref, name),
                                                          name)
            assert [p for p, _ in got] == [p for p, _ in want]
            for (path, a), (_, b) in zip(got, want):
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and a.shape == b.shape, path
                    assert np.array_equal(a, b), path
                else:
                    assert a == b, path

    @pytest.mark.parametrize("override", ["scenario.seed=5",
                                          "scenario.horizon_s=20.0"])
    def test_scenario_inputs_reuse_the_design(self, override, solves,
                                              tmp_path, monkeypatch, capsys):
        assert run_cli(["design"], tmp_path, monkeypatch, capsys)[0] == 0
        code, _, _ = run_cli(["--set", override, "design"], tmp_path,
                             monkeypatch, capsys)
        assert code == 0
        assert solves == ["design_robust"]

    def test_only_the_last_design_is_kept(self, solves, tmp_path, monkeypatch,
                                          capsys):
        for args in (["design"], ["--set", "design.d_n=2", "design"],
                     ["design"]):
            assert run_cli(args, tmp_path, monkeypatch, capsys)[0] == 0
        assert len(solves) == 3

    def test_replaced_solver_solves_again(self, solves, tmp_path,
                                          monkeypatch, capsys):
        assert run_cli(["design"], tmp_path, monkeypatch, capsys)[0] == 0
        solve = cli.design_robust
        monkeypatch.setattr(cli, "design_robust",
                            lambda *args: solve(*args))
        assert run_cli(["design"], tmp_path, monkeypatch, capsys)[0] == 0
        assert solves == ["design_robust", "design_robust"]

    def test_reused_design_writes_the_same_filter(self, solves, tmp_path,
                                                  monkeypatch, capsys):
        written = []
        for name in ("miss", "hit"):
            out = tmp_path / name
            assert run_cli(["design"], out, monkeypatch, capsys)[0] == 0
            written.append((out / "filter.json").read_bytes())
        assert solves == ["design_robust"]
        assert written[0] == written[1]

    def test_failed_solve_is_not_kept(self, solves, tmp_path, monkeypatch,
                                      capsys):
        solve = cli.design_robust

        def fails_once(*args, **kwargs):
            design = solve(*args, **kwargs)
            if len(solves) == 1:
                raise NumericError("relaxation LP (0, +1): injected")
            return design

        monkeypatch.setattr(cli, "design_robust", fails_once)
        code, _, err = run_cli(["design"], tmp_path, monkeypatch, capsys)
        assert code == 1 and "injected" in err
        code, _, _ = run_cli(["design"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert solves == ["design_robust", "design_robust"]

    def test_kept_design_is_read_only(self, solves):
        design = cli.Pipeline(cfgmod.default_config(), []).design
        for arr in (design.nbar, design.multiplier):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        again = cli.Pipeline(cfgmod.default_config(), []).design
        assert again is design and solves == ["design_robust"]


@pytest.fixture
def replies(monkeypatch):
    """Records every best reply the CLI solves."""
    calls = []
    solve = cli.worst_case_alpha

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "worst_case_alpha", counted)
    return calls


class TestReplyMemo:
    @pytest.mark.parametrize("override", [
        "design.polytope_b=[2.0]", "design.eta=5.0", "design.d_n=4"])
    def test_each_reply_input_solves_again(self, override, replies, tmp_path,
                                           monkeypatch, capsys):
        payloads = []
        for args in (["attack"], ["--set", override, "attack"],
                     ["--set", override, "attack"]):
            assert run_cli(args, tmp_path, monkeypatch, capsys)[0] == 0
            payloads.append(json.loads((tmp_path / "attack.json").read_text()))
        assert len(replies) == 2
        assert payloads[1] == payloads[2]
        assert payloads[0]["payoff"] != payloads[1]["payoff"]

    def test_replaced_solver_runs(self, replies, tmp_path, monkeypatch,
                                  capsys):
        assert run_cli(["attack"], tmp_path, monkeypatch, capsys)[0] == 0
        again = []
        solve = cli.worst_case_alpha

        def counted(*args, **kwargs):
            again.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "worst_case_alpha", counted)
        for _ in range(2):
            assert run_cli(["attack"], tmp_path, monkeypatch, capsys)[0] == 0
        assert again == [1] and replies == [1, 1]

    def test_failed_check_is_not_kept(self, replies, tmp_path, monkeypatch,
                                      capsys):
        solve = cli.worst_case_alpha

        def low_once(*args, **kwargs):
            alpha, payoff = solve(*args, **kwargs)
            return alpha, payoff - (0.5 if len(replies) == 1 else 0.0)

        monkeypatch.setattr(cli, "worst_case_alpha", low_once)
        code, _, err = run_cli(["attack"], tmp_path, monkeypatch, capsys)
        assert code == 1 and "below the certified gamma" in err
        assert run_cli(["attack"], tmp_path, monkeypatch, capsys)[0] == 0
        assert replies == [1, 1]

    def test_kept_alpha_is_read_only(self, replies):
        alpha, payoff = cli.Pipeline(cfgmod.default_config(), []).worst_case
        with pytest.raises(ValueError, match="read-only"):
            alpha[0] = 0.0
        again = cli.Pipeline(cfgmod.default_config(), []).worst_case
        assert again[0] is alpha and again[1] == payoff and replies == [1]


def typo_in_areas(key, value, generator=False):
    """A config payload: the default areas with ``key`` added to the first
    area, or to its first generator."""
    areas = cfgmod.default_config()["model"]["areas"]
    (areas[0]["generators"][0] if generator else areas[0])[key] = value
    return {"model": {"areas": areas}}


class TestErrors:
    def test_missing_config_file_exits_2(self, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(["--config", str(tmp_path / "nope.json"),
                                "design"], tmp_path, monkeypatch, capsys)
        assert code == 2
        assert "error: code=config" in err

    @pytest.mark.parametrize("make", ["directory", "non-utf8"])
    def test_unreadable_config_file_exits_2(self, make, tmp_path, monkeypatch,
                                            capsys):
        path = tmp_path / "cfg.json"
        if make == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"design": {"eta": "\xff"}}')
        code, out, err = run_cli(["--config", str(path), "design"],
                                 tmp_path, monkeypatch, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: code=config field={path} ")
        assert "config file not readable" in err
        assert len(err.splitlines()) == 1

    def test_non_utf8_trace_exits_1(self, tmp_path, monkeypatch, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_bytes(b"t,rS_inf,r_D\n0,0,\xff\n")
        code, out, err = run_cli(["report", "--trace", str(trace)],
                                 tmp_path, monkeypatch, capsys)
        assert code == 1 and out == ""
        assert err.startswith('error: code=runtime field=- '
                              f'msg="malformed trace CSV {trace}: ')
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.glob("panel_*.csv"))

    @pytest.mark.parametrize("text, field", [
        ("{", "{path}"),
        ("[1]", "{path}"),
        ('{"design": 1}', "design"),
    ], ids=["not-json", "top-level", "section"])
    def test_malformed_config_file_exits_2(self, text, field, tmp_path,
                                           monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, out, err = run_cli(["--config", str(path), "design"],
                                 tmp_path, monkeypatch, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: code=config field="
                              f"{field.format(path=path)} ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("item, field", [
        ("design.eta", "design.eta"),
        ("eta=1", "eta"),
    ], ids=["no-equals", "no-section"])
    def test_malformed_override_exits_2(self, item, field, tmp_path,
                                        monkeypatch, capsys):
        code, out, err = run_cli(["--set", item, "design"], tmp_path,
                                 monkeypatch, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: code=config field={field} ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["design", "simulate"])
    def test_overflowing_sample_time_exits_1(self, command, tmp_path,
                                             monkeypatch, capsys):
        # A t_s overflows to inf; the expm check refuses it, and numpy's
        # overflow warning (an error under this suite) is not raised
        code, out, err = run_cli(["--set", "scenario.t_s=1e308", command],
                                 tmp_path, monkeypatch, capsys)
        assert code == 1 and out == ""
        assert err == ('error: code=runtime field=- msg="expm input '
                       'contains non-finite entries"\n')

    def test_overflowing_sample_time_in_a_fresh_process(self, tmp_path):
        # numpy prints an overflow warning once per process, so only a
        # fresh process shows that stderr holds the error line alone
        env = dict(os.environ, AGCDIAG_OUTDIR=str(tmp_path),
                   OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))
            if p)
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "agcdiag.cli",
             "--set", "scenario.t_s=1e308", "design"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ('error: code=runtime field=- msg="expm input '
                               'contains non-finite entries"\n')

    def test_overflowing_attack_vector_exits_1(self, tmp_path, monkeypatch,
                                               capsys):
        # a stealthy basis ten times the default's and a finite alpha whose
        # F_b' alpha overflows: refused where it is made, with no numpy
        # overflow warning (an error under this suite)
        basis = [[1, 0, 1, 0, 0], [1, 1.5, 2.5, 0, 0], [0, 0, 0, 1, 1]]
        code, out, err = run_cli(
            ["--set", "attack.basis=" + json.dumps(basis),
             "--set", "attack.mode=alpha",
             "--set", "attack.alpha=[1e308,1e308,1e308]", "simulate"],
            tmp_path, monkeypatch, capsys)
        assert code == 1 and out == ""
        assert err.startswith('error: code=runtime field=- msg="attack '
                              "vector F_b' alpha is not finite: ")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    def test_large_polytope_offset_is_no_empty_attack_set(
            self, tmp_path, monkeypatch, capsys):
        # 1'a >= 1e6 has points; phase 1 of the worst-case LP ends with an
        # artificial sum of 3.6e-8, rounding at this rhs, not a sign that
        # the attack set is empty
        code, out, err = run_cli(["--set", "design.polytope_b=[1e6]",
                                  "attack"], tmp_path, monkeypatch, capsys)
        assert code == 1 and out == ""
        assert err.startswith('error: code=runtime field=- '
                              'msg="worst-case LP: ')
        assert "empty attack set" not in err
        assert len(err.splitlines()) == 1

    def test_overflowing_objective_exits_1(self, tmp_path, monkeypatch,
                                           capsys):
        # the optimum of LP (1, +1) overflows; nans in its objective row
        # hide every improving column, so the point is not optimal
        code, out, err = run_cli(["--set", "design.polytope_b=[1e308]",
                                  "design"], tmp_path, monkeypatch, capsys)
        assert code == 1 and out == ""
        assert err == ('error: code=runtime field=- msg="relaxation LP '
                       '(1, +1): the objective row is not finite after 220 '
                       'pivots"\n')
        assert not list(tmp_path.iterdir())

    def test_missing_trace_file_exits_2(self, tmp_path, monkeypatch, capsys):
        code, out, err = run_cli(["report", "--trace",
                                  str(tmp_path / "nope.csv")],
                                 tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("error: code=config field=--trace ")
        assert len(err.splitlines()) == 1 and out == ""
        assert not list(tmp_path.glob("panel_*.csv"))

    @pytest.mark.parametrize("command", ["simulate", "sweep-pole"])
    def test_overflowing_raw_attack_exits_1(self, command, tmp_path,
                                            monkeypatch, capsys):
        # the last channel (area2.tie_total) reaches no state, so only the
        # residual check can stop the run
        code, out, err = run_cli(
            ["--set", "attack.mode=raw",
             "--set", "attack.raw_f=[1,2,3,4,1e308]", command],
            tmp_path, monkeypatch, capsys)
        assert code == 1
        assert err.startswith('error: code=runtime field=- msg="r_D is ')
        assert len(err.splitlines()) == 1 and out == ""
        assert not list(tmp_path.glob("*.csv"))

    def test_bad_field_names_path(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"design": {"d_n": "three"}}))
        code, _, err = run_cli(["--config", str(bad), "design"],
                               tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("error: code=config field=design.d_n ")
        assert len(err.splitlines()) == 1

    def test_unknown_override_path_exits_2(self, tmp_path, monkeypatch,
                                           capsys):
        code, _, err = run_cli(["--set", "design.nope=1", "design"],
                               tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err == \
            'error: code=config field=design.nope ' \
            'msg="design.nope: no such config entry"\n'

    @pytest.mark.parametrize("payload, field", [
        ({"mystery": {}}, "mystery"),
        ({"design": {"etaa": 1.0}}, "design.etaa"),
        ({"scenario": {"sed": 3}}, "scenario.sed"),
        (typo_in_areas("inertiaa", 9.0), "model.areas[0].inertiaa"),
        (typo_in_areas("droopp", 0.5, generator=True),
         "model.areas[0].generators[0].droopp"),
    ], ids=["section", "design-key", "scenario-key", "area-key",
            "generator-key"])
    def test_unknown_section_rejected(self, payload, field, tmp_path,
                                      monkeypatch, capsys):
        # the same line as an unknown --set path
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps(payload))
        code, _, err = run_cli(["--config", str(bad), "design"],
                               tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err == \
            f'error: code=config field={field} ' \
            f'msg="{field}: no such config entry"\n'

    def test_string_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(["--set", 'scenario.seed="abc"', "simulate"],
                               tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("error: code=config field=scenario.seed ")
        assert len(err.splitlines()) == 1

    def test_string_rank_tol_exits_2(self, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(["--set", 'design.rank_tol="x"', "design"],
                               tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("error: code=config field=design.rank_tol ")
        assert len(err.splitlines()) == 1

    def test_bool_degree_exits_2(self, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(["--set", "design.d_n=true", "design"],
                               tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("error: code=config field=design.d_n ")

    def test_bool_eta_exits_2(self, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(["--set", "design.eta=true", "design"],
                               tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("error: code=config field=design.eta ")

    def test_bad_pole_list_exits_2(self, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(["sweep-pole", "--poles", "0.5,abc"],
                               tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("error: code=config field=--poles ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("poles", ["0.5,1.5", "nan", ","])
    def test_pole_outside_unit_interval_exits_2(self, poles, tmp_path,
                                                monkeypatch, capsys):
        # checked before the first simulation, so nothing is written
        code, _, err = run_cli(["sweep-pole", "--poles", poles],
                               tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("error: code=config field=--poles ")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("poles", ["0.1,0.1000001", "0.5,0.8,0.5"])
    def test_poles_sharing_a_trace_name_exit_2(self, poles, tmp_path,
                                               monkeypatch, capsys):
        # trace_p{pole:g}.csv would be written twice: nothing is written
        code, _, err = run_cli(["sweep-pole", "--poles", poles],
                               tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("error: code=config field=--poles ")
        assert "share the trace file" in err
        assert list(tmp_path.iterdir()) == []

    def test_output_dir_is_a_file_exits_1(self, tmp_path, monkeypatch,
                                          capsys):
        # os.makedirs raises FileExistsError: a non-package exception
        occupied = tmp_path / "occupied"
        occupied.write_text("")
        monkeypatch.setenv("AGCDIAG_OUTDIR", str(occupied))
        code = main(["design"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: code=runtime field=- msg=\"FileExistsError")
        assert len(err.splitlines()) == 1

    def test_existing_output_dir_is_not_made_again(self, tmp_path,
                                                   monkeypatch, capsys):
        # makedirs(exist_ok=True) still calls mkdir, which fails with EEXIST
        made = []
        makedirs = os.makedirs

        def counted(path, *args, **kwargs):
            made.append(str(path))
            return makedirs(path, *args, **kwargs)

        monkeypatch.setattr(os, "makedirs", counted)
        out = tmp_path / "out"
        for _ in range(2):
            assert run_cli(["design"], out, monkeypatch, capsys)[0] == 0
        assert made == [str(out)]

    @pytest.mark.parametrize("args", [["nope"], ["design", "--bogus"]])
    def test_bad_command_line_exits_2(self, args, tmp_path, monkeypatch,
                                      capsys):
        code, _, err = run_cli(args, tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("error: code=config field=argv ")
        assert len(err.splitlines()) == 1

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: agcdiag")

    @pytest.mark.parametrize("overrides, field", [
        (["design.polytope_b=[1.5,2]"], "design.polytope_a"),
        (['design.polytope_a="x"'], "design.polytope_a"),
        (["design.polytope_a=[[1,1]]"], "design.polytope_a"),
        (["attack.mode=raw", "attack.raw_f=[1,2]"], "attack.raw_f"),
        (["attack.alpha=[1,2]"], "attack.alpha"),
        (['output.include_states="no"'], "output.include_states"),
        (["output.include_measurements=1"], "output.include_measurements"),
        (["output.dir=5"], "output.dir"),
        (['model.attacked_measurements="area1.tie_area2"'],
         "model.attacked_measurements"),
        (["design.eta=0"], "design.eta"),
        (["scenario.t_s=0"], "scenario.t_s"),
        (["scenario.horizon_s=0"], "scenario.horizon_s"),
        (["scenario.onset_s=100"], "scenario.onset_s"),
        (["scenario.onset_s=-1"], "scenario.onset_s"),
        (["scenario.noise_base=-1"], "scenario.noise_base"),
        (['scenario.load_std={"area1.load":-0.03}'],
         "scenario.load_std.area1.load"),
        (['model.attacked_measurements=["area1.nope"]'],
         "model.attacked_measurements"),
        ([areas_override(lambda a: a[0].update(inertia=-1.0))],
         "model.areas[0]"),
        ([areas_override(lambda a: a[1]["neighbors"].pop("area3"))],
         "model.areas"),
        ([areas_override(lambda a: a[1]["generators"][0].update(
            participation=0.6))], "model.areas[1]"),
        ([areas_override(lambda a: a[2]["generators"][1].update(t_ch=0.0))],
         "model.areas[2].generators[1]"),
        ([areas_override(lambda a: a[0]["generators"][2].update(droop=-0.05))],
         "model.areas[0].generators[2]"),
        (['scenario.measurement_noise={"area1.typo":1.0}'],
         "scenario.measurement_noise"),
        (['scenario.load_std={"areaX.load":0.1}'], "scenario.load_std"),
        (['scenario.process_noise={"zz.*":1.0}'], "scenario.process_noise"),
        (['scenario.measurement_noise={"area1.*":-1.0}'],
         "scenario.measurement_noise.area1.*"),
        (["scenario.horizon_s=Infinity"], "scenario.horizon_s"),
        (["scenario.onset_s=Infinity"], "scenario.onset_s"),
        (["design.eta=Infinity"], "design.eta"),
        (["design.rank_tol=Infinity"], "design.rank_tol"),
        (['scenario.measurement_noise={"area1.*":Infinity}'],
         "scenario.measurement_noise.area1.*"),
        (['scenario.load_std={"area1.load":Infinity}'],
         "scenario.load_std.area1.load"),
        ([areas_override(lambda a: a[0].update(inertia=float("inf")))],
         "model.areas[0].inertia"),
        ([areas_override(lambda a: a[1]["neighbors"].update(area3=1e400))],
         "model.areas[1].neighbors.area3"),
        ([areas_override(lambda a: a[2]["generators"][0].update(
            droop=float("inf")))], "model.areas[2].generators[0].droop"),
        (["design.eta=1" + "0" * 400], "design.eta"),
        (["design.polytope_b=[Infinity]"], "design.polytope_b"),
        (["design.polytope_a=[[1,1,1e400]]"], "design.polytope_a"),
        (["attack.basis=" + json.dumps(
            [[0.1, 0.0, 0.1, 0.0, float("nan")], [0.1, 0.15, 0.25, 0.0, 0.0],
             [0.0, 0.0, 0.0, 0.1, 0.1]])], "attack.basis"),
        (['scenario.measurement_noise={"area1.*":1e-310,"area2.*":1e-310,'
          '"area3.*":1e-310}'], "scenario.measurement_noise"),
        (["scenario.horizon_s=1e308"], "scenario.horizon_s"),
        (["scenario.t_s=1e-320"], "scenario.horizon_s"),
        (["design.polytope_b=-1"], "design.polytope_b"),
        (["design.polytope_b=[]"], "design.polytope_b"),
        (["design.d_n=-1"], "design.d_n"),
        (["attack.mode=raw"], "attack.raw_f"),
        (["model.attacked_measurements=[1]"], "model.attacked_measurements"),
        (["model.areas=[1]"], "model.areas[0]"),
        ([areas_override(lambda a: a[0].pop("inertia"))],
         "model.areas[0].inertia"),
        (["attack.basis=[[1,0,0,0,0]]", "design.polytope_a=[[1]]"],
         "attack.basis"),
        (["attack.basis=[[0.1,0,0.1,0,0],[0.2,0,0.2,0,0]]",
          "design.polytope_a=[[1,1]]"], "attack.basis"),
    ])
    def test_bad_attack_data_exits_2(self, overrides, field, tmp_path,
                                     monkeypatch, capsys):
        args = [a for o in overrides for a in ("--set", o)] + ["simulate"]
        code, _, err = run_cli(args, tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith(f"error: code=config field={field} ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "trace.csv").exists()

    def test_infinite_area_number_in_config_file_exits_2(self, tmp_path,
                                                         monkeypatch, capsys):
        areas = cfgmod.default_config()["model"]["areas"]
        areas[0]["inertia"] = float("inf")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"model": {"areas": areas}}))
        code, _, err = run_cli(["--config", str(cfg_file), "design"],
                               tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("error: code=config field=model.areas[0].inertia ")

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        sub = tmp_path / "elsewhere"
        monkeypatch.setenv("AGCDIAG_OUTDIR", str(sub))
        code = main(["--set", "scenario.horizon_s=5.0",
                     "--set", "scenario.onset_s=2.0", "simulate"])
        capsys.readouterr()
        assert code == 0
        assert (sub / "trace.csv").exists()


def first_number_true(value):
    """A copy of the list or object ``value`` with its first number, depth
    first, replaced by ``true``; None when it holds no number."""
    value = copy.deepcopy(value)

    def replace(node) -> bool:
        keys = (node if isinstance(node, dict)
                else range(len(node)) if isinstance(node, list) else ())
        for key in keys:
            item = node[key]
            if isinstance(item, (int, float)) and not isinstance(item, bool):
                node[key] = True
                return True
            if replace(item):
                return True
        return False

    return value if replace(value) else None


def wrong_values(default) -> list:
    """Values of the wrong kind for a config entry whose default is
    ``default``: a string and a bool, nan and inf for a number, an object
    for a list, a list for an object, and the default with its first
    number replaced by ``true``. A null entry (``output.dir`` takes a
    string) gets a bool and an object."""
    if default is None:
        return [True, {}]
    wrong = ["bogus", 1 if isinstance(default, bool) else True]
    if isinstance(default, (int, float)) and not isinstance(default, bool):
        wrong += [math.nan, math.inf]
    elif isinstance(default, list):
        wrong.append({})
    elif isinstance(default, dict):
        wrong.append([])
    if isinstance(default, (list, dict)) \
            and first_number_true(default) is not None:
        wrong.append(first_number_true(default))
    return wrong


LEAF_CASES = [
    pytest.param(f"{section}.{key}", value, id=f"{section}.{key}-{i}")
    for section, entries in cfgmod.default_config().items()
    for key, default in entries.items()
    for i, value in enumerate(wrong_values(default))]


@pytest.mark.parametrize("leaf, value", LEAF_CASES)
def test_wrong_value_names_its_entry(leaf, value, tmp_path, monkeypatch,
                                     capsys):
    # every entry of default.json, so a new entry is covered as it lands;
    # raw_f is read only under mode "raw"
    mode = ["attack.mode=raw"] if leaf == "attack.raw_f" else []
    overrides = ["scenario.horizon_s=2", "scenario.onset_s=1", *mode,
                 f"{leaf}={json.dumps(value)}"]
    args = [a for o in overrides for a in ("--set", o)] + ["simulate"]
    code, out, err = run_cli(args, tmp_path, monkeypatch, capsys)
    assert code == 2 and out == "", err
    assert len(err.splitlines()) == 1
    field = err.split()[2].removeprefix("field=")
    assert field == leaf or field.startswith((leaf + ".", leaf + "[")), err
    assert not (tmp_path / "trace.csv").exists()


class TestPrecedence:
    def test_cli_override_beats_config_file(self, tmp_path, monkeypatch,
                                            capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"scenario": {"seed": 3}}))
        code, _, _ = run_cli(
            ["--config", str(cfg_file), "--set", "scenario.seed=9",
             "simulate"], tmp_path, monkeypatch, capsys)
        assert code == 0
        meta = json.loads((tmp_path / "trace_meta.json").read_text())
        assert meta["seed"] == 9
