import json
import numpy as np
import pytest
from agcdiag import cli
from agcdiag import config as cfgmod
from agcdiag.cli import main
from agcdiag.errors import NumericError
from agcdiag.simulate import read_trace_csv


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


class TestAttackCommand:
    def test_writes_alpha_and_f(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(["attack"], tmp_path, monkeypatch, capsys)
        assert code == 0
        payload = json.loads((tmp_path / "attack.json").read_text())
        assert len(payload["alpha_star"]) == 3
        assert len(payload["f"]) == 5
        assert payload["payoff"] >= payload["gamma"] - 1e-8
        assert sum(payload["alpha_star"]) >= 1.5 - 1e-8


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
    ], ids=["d_n", "eta", "pole", "polytope_b", "kind", "rank_tol", "t_s",
            "areas", "basis"])
    def test_each_design_input_solves_again(self, override, solves, tmp_path,
                                            monkeypatch, capsys):
        assert run_cli(["design"], tmp_path, monkeypatch, capsys)[0] == 0
        code, _, _ = run_cli(["--set", override, "design"], tmp_path,
                             monkeypatch, capsys)
        assert code in (0, 3)   # the steady-state design certifies mu = 0
        assert len(solves) == 2

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
    ])
    def test_bad_attack_data_exits_2(self, overrides, field, tmp_path,
                                     monkeypatch, capsys):
        args = [a for o in overrides for a in ("--set", o)] + ["simulate"]
        code, _, err = run_cli(args, tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith(f"error: code=config field={field} ")
        assert len(err.splitlines()) == 1

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        sub = tmp_path / "elsewhere"
        monkeypatch.setenv("AGCDIAG_OUTDIR", str(sub))
        code = main(["--set", "scenario.horizon_s=5.0",
                     "--set", "scenario.onset_s=2.0", "simulate"])
        capsys.readouterr()
        assert code == 0
        assert (sub / "trace.csv").exists()


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
