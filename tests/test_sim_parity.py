"""``simulate`` and ``write_trace_csv`` against the per-sample loop in
``reference_sim``: same bits in the signals, same bytes in the CSVs, same
divergence step."""

import json

import numpy as np
import pytest

from agcdiag import config as cfgmod
from agcdiag.attacks import synthesize_attack
from agcdiag.cli import DEFAULT_POLE_SWEEP, Pipeline
from agcdiag.design import FilterDesign
from agcdiag.discretize import LtiModel
from agcdiag.errors import DivergenceError
from agcdiag.residual import RealizedFilter, realize_filter
from agcdiag.simulate import Scenario, simulate, write_trace_csv

from reference_sim import simulate_reference, write_trace_csv_reference

NOISE = {"area1.*": 1e-5, "area2.*": 1e-5, "area3.*": 1e-5}


def assert_parity(got, ref):
    for name in ("t", "d", "f"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    for name in ("x", "y", "rs_inf", "r_d"):
        a, b = getattr(got, name), getattr(ref, name)
        scale = max(np.abs(b).max(initial=0.0), np.finfo(float).tiny)
        assert np.abs(a - b).max(initial=0.0) <= 1e-12 * scale, name


def run_both(model, scenario, filt=None):
    return (simulate(model, scenario, filt),
            simulate_reference(model, scenario, filt))


def scenario(**kw):
    base = dict(horizon_s=30.0, t_s=0.5, onset_s=15.0, seed=1,
                load_std={"area1.load": 0.03})
    base.update(kw)
    return Scenario(**base)


class TestSignalParity:
    def test_default_config_scenario(self, chain):
        cfg = cfgmod.default_config()
        f = synthesize_attack(chain.space, cfg["attack"]["alpha"])
        sc = cfgmod.build_scenario(cfg, chain.discrete, f)
        filt = realize_filter(chain.design, chain.dae.l)
        assert_parity(*run_both(chain.discrete, sc, filt))

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_noise_free_stealthy(self, chain, seed):
        f = synthesize_attack(chain.space, [2.8, 1.0, -2.3])
        filt = realize_filter(chain.design, chain.dae.l)
        assert_parity(*run_both(chain.discrete,
                                scenario(attack_f=f, seed=seed), filt))

    def test_raw_attack_with_noise(self, chain):
        f = np.array([0.38, 0.0, 0.53, -0.23, -0.23])
        filt = realize_filter(chain.design, chain.dae.l)
        sc = scenario(attack_f=f, process_noise={"area2.*": 1e-5},
                      measurement_noise=NOISE, seed=4)
        assert_parity(*run_both(chain.discrete, sc, filt))

    def test_stochastic_loads_in_every_area(self, chain):
        filt = realize_filter(chain.design, chain.dae.l)
        sc = scenario(load_std={"area1.load": 0.03, "area2.*": 0.05,
                                "area3.load": 0.02}, seed=6)
        got, ref = run_both(chain.discrete, sc, filt)
        assert_parity(got, ref)
        assert np.all(np.abs(got.d).max(axis=0) > 0)

    def test_no_filter(self, chain):
        sc = scenario(measurement_noise=NOISE, seed=8)
        got, ref = run_both(chain.discrete, sc)
        assert_parity(got, ref)
        assert np.abs(got.r_d).max() == 0.0

    @pytest.mark.parametrize("d_n", [1, 3, 6])
    @pytest.mark.parametrize("pole", [0.2, 0.8, 0.98])
    def test_filter_degrees_and_poles(self, chain, d_n, pole):
        rng = np.random.default_rng(100 * d_n + int(100 * pole))
        rows = rng.standard_normal((d_n + 1, chain.discrete.n_measurements))
        filt = RealizedFilter(rows, pole, d_n)
        f = synthesize_attack(chain.space, [2.8, 1.0, -2.3])
        sc = scenario(attack_f=f, measurement_noise=NOISE, seed=d_n)
        assert_parity(*run_both(chain.discrete, sc, filt))

    def test_divergence_names_same_step_and_magnitude(self):
        model = LtiModel(
            a_cl=np.array([[1.05, 0.2], [0.0, 0.9]]), b_d=np.ones((2, 1)),
            b_f=np.zeros((2, 0)), c=np.eye(2), d_f=np.zeros((2, 0)),
            t_s=1.0, state_labels=("u.x1", "u.x2"),
            measurement_labels=("u.y1", "u.y2"), attack_labels=(),
            disturbance_labels=("u.load",))
        sc = Scenario(horizon_s=600.0, t_s=1.0, load_std={"u.load": 1.0},
                      seed=2)
        with pytest.raises(DivergenceError) as got:
            simulate(model, sc)
        with pytest.raises(DivergenceError) as ref:
            simulate_reference(model, sc)
        assert got.value.step == ref.value.step
        assert got.value.magnitude == ref.value.magnitude


def _reproduce_pipeline(overrides):
    """The pipeline and scenario of one reproduce-script run."""
    cfg = cfgmod.default_config()
    cfgmod.apply_overrides(cfg, overrides)
    pipe = Pipeline(cfg, overrides)
    f_vec = pipe.attack_vector()
    return pipe, cfgmod.build_scenario(cfg, pipe.discrete, f_vec)


def _assert_same_csv(model, sc, filt, tmp_path):
    write_trace_csv(simulate(model, sc, filt), tmp_path / "new.csv")
    write_trace_csv_reference(simulate_reference(model, sc, filt),
                              tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


class TestReproduceTraceBytes:
    COMMON = ["scenario.horizon_s=60.0", "scenario.onset_s=30.0",
              "scenario.seed=1"]

    @pytest.fixture(scope="class")
    def stealthy(self):
        return _reproduce_pipeline(["attack.mode=worst-case", *self.COMMON])

    def test_scenario1_basic(self, stealthy, tmp_path):
        pipe, _ = stealthy
        # the reproduce script zeroes the second channel of attack.json's f
        basic_f = [float(v) for v in pipe.attack_vector()]
        basic_f[1] = 0.0
        pipe1, sc = _reproduce_pipeline(
            ["attack.mode=raw", f"attack.raw_f={json.dumps(basic_f)}",
             "scenario.process_noise=null",
             "scenario.measurement_noise=null", *self.COMMON])
        filt = realize_filter(pipe1.design, pipe1.dae.l)
        _assert_same_csv(pipe1.discrete, sc, filt, tmp_path)

    def test_scenario2_stealthy(self, stealthy, tmp_path):
        pipe, sc = stealthy
        filt = realize_filter(pipe.design, pipe.dae.l)
        _assert_same_csv(pipe.discrete, sc, filt, tmp_path)

    @pytest.mark.parametrize("pole", DEFAULT_POLE_SWEEP)
    def test_pole_sweep(self, stealthy, pole, tmp_path):
        pipe, sc = stealthy
        d = pipe.design
        design = FilterDesign(d.nbar, d.d_n, pole, d.gamma, d.kind, d.index,
                              d.multiplier, d.table, d.diagnostic)
        filt = realize_filter(design, pipe.dae.l)
        _assert_same_csv(pipe.discrete, sc, filt, tmp_path)

    def test_states_and_measurements_columns(self, stealthy, tmp_path):
        pipe, sc = stealthy
        filt = realize_filter(pipe.design, pipe.dae.l)
        write_trace_csv(simulate(pipe.discrete, sc, filt), tmp_path / "n.csv",
                        include_states=True, include_measurements=True)
        write_trace_csv_reference(simulate_reference(pipe.discrete, sc, filt),
                                  tmp_path / "r.csv", include_states=True,
                                  include_measurements=True)
        assert (tmp_path / "n.csv").read_bytes() == \
            (tmp_path / "r.csv").read_bytes()
