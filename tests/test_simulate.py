import numpy as np
import pytest

from agcdiag.attacks import synthesize_attack
from agcdiag.discretize import LtiModel, zoh_discretize
from agcdiag.errors import ConfigError, DivergenceError, ValidationError
from agcdiag.residual import realize_filter
from agcdiag.simulate import (Scenario, gen_disturbance, label_values,
                              read_trace_csv, simulate, write_trace_csv)


def quiet_scenario(**kw):
    defaults = dict(horizon_s=20.0, t_s=0.5, onset_s=10.0, seed=1,
                    load_std={"area1.load": 0.03})
    defaults.update(kw)
    return Scenario(**defaults)


class TestScenario:
    def test_record_count(self, chain):
        sc = quiet_scenario(horizon_s=60.0)
        trace = simulate(chain.discrete, sc)
        assert trace.n_records == int(60.0 / 0.5) + 1

    def test_bad_onset_rejected(self):
        with pytest.raises(ValidationError):
            Scenario(horizon_s=10.0, t_s=0.5, onset_s=11.0)

    @pytest.mark.parametrize("horizon_s, t_s", [
        (10.0, np.nan), (np.nan, 0.5), (10.0, 0.0), (-1.0, 0.5)])
    def test_bad_horizon_or_period_rejected(self, horizon_s, t_s):
        with pytest.raises(ValidationError, match="sampling period"):
            Scenario(horizon_s=horizon_s, t_s=t_s)

    def test_negative_covariance_rejected(self, chain):
        # the label maps are checked by simulate, against the model's labels
        sc = Scenario(horizon_s=10.0, t_s=0.5,
                      process_noise={"area1.freq": -1.0})
        with pytest.raises(ValidationError, match="process_noise.area1.freq"):
            simulate(chain.discrete, sc)


class TestLabelVariances:
    def test_pattern_precedence(self):
        table = {"a.*": 2.0, "a.freq": 0.5}
        out = label_values(table, ("a.freq", "a.tie_b", "b.freq"), "test")
        assert np.allclose(out, [0.5, 2.0, 0.0])

    def test_unknown_exact_label_rejected(self):
        with pytest.raises(ValidationError, match="unknown label"):
            label_values({"a.typo": 1.0}, ("a.freq",), "test")

    @pytest.mark.parametrize("name", ["load_std", "process_noise",
                                      "measurement_noise"])
    @pytest.mark.parametrize("key, value, field", [
        ("area1.*", np.nan, "{name}.area1.*"),
        ("area2.*", -0.03, "{name}.area2.*"),
        ("area1.typo", 0.03, "{name}"),
        ("areaX.*", 0.03, "{name}"),
    ])
    def test_simulate_rejects_bad_map(self, chain, name, key, value, field):
        sc = quiet_scenario(**{name: {key: value}})
        with pytest.raises(ConfigError) as err:
            simulate(chain.discrete, sc)
        assert err.value.field == field.format(name=name)
        assert isinstance(err.value, ValidationError)


class TestSimulate:
    def test_all_zero_equilibrium(self, chain):
        sc = Scenario(horizon_s=10.0, t_s=0.5, seed=0)
        trace = simulate(chain.discrete, sc)
        for arr in (trace.d, trace.f, trace.x, trace.y, trace.rs_inf,
                    trace.r_d):
            assert np.abs(arr).max() == 0.0

    def test_determinism(self, chain):
        sc = quiet_scenario(process_noise={"area1.*": 1e-4},
                            measurement_noise={"area1.*": 1e-4})
        a = simulate(chain.discrete, sc)
        b = simulate(chain.discrete, sc)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.rs_inf, b.rs_inf)
        assert np.array_equal(a.r_d, b.r_d)

    def test_superposition_noise_free(self, chain):
        f = synthesize_attack(chain.space, [2.8, 1.0, -2.3])
        both = simulate(chain.discrete, quiet_scenario(attack_f=f))
        load_only = simulate(chain.discrete, quiet_scenario())
        attack_only = simulate(chain.discrete,
                               quiet_scenario(attack_f=f, load_std={}))
        assert np.abs(both.x - load_only.x - attack_only.x).max() <= 1e-10
        assert np.abs(both.y - load_only.y - attack_only.y).max() <= 1e-10

    def test_stealth_invariance_of_static_residual(self, chain):
        f = synthesize_attack(chain.space, [2.8, 1.0, -2.3])
        attacked = simulate(chain.discrete, quiet_scenario(attack_f=f))
        clean = simulate(chain.discrete, quiet_scenario())
        assert np.abs(attacked.rs_inf - clean.rs_inf).max() <= 1e-8

    def test_attack_applies_strictly_after_onset(self, chain):
        f = synthesize_attack(chain.space, [1.0, 0.0, 0.0])
        trace = simulate(chain.discrete,
                         quiet_scenario(attack_f=f, load_std={}))
        onset_idx = int(10.0 / 0.5)
        assert np.abs(trace.f[:onset_idx + 1]).max() == 0.0
        assert np.allclose(trace.f[onset_idx + 1:], f)

    def test_onset_by_integer_sample_index(self, chain):
        # 3 * 0.1 > 0.3 in floats; sample 3 sits at the onset, not after it
        f = synthesize_attack(chain.space, [1.0, 0.0, 0.0])
        sc = Scenario(horizon_s=1.0, t_s=0.1, onset_s=0.3, attack_f=f)
        assert sc.onset_index == 3
        trace = simulate(zoh_discretize(chain.model, 0.1), sc)
        attacked = np.flatnonzero(np.abs(trace.f).max(axis=1) > 0)
        assert attacked[0] == 4
        assert np.array_equal(attacked, np.arange(4, trace.n_records))

    def test_sampling_period_mismatch_rejected(self, chain):
        # the default model is sampled at 0.5 s
        sc = Scenario(horizon_s=60.0, t_s=1.0)
        with pytest.raises(ValidationError, match="t_s"):
            simulate(chain.discrete, sc)
        with pytest.raises(ValidationError, match="t_s"):
            simulate(chain.model, quiet_scenario())

    def test_nan_state_is_divergence(self):
        model = LtiModel(
            a_cl=np.array([[np.nan]]), b_d=np.ones((1, 1)),
            b_f=np.zeros((1, 0)), c=np.eye(1), d_f=np.zeros((1, 0)),
            t_s=1.0, state_labels=("u.x",), measurement_labels=("u.y",),
            attack_labels=(), disturbance_labels=("u.load",))
        with pytest.raises(DivergenceError) as err:
            simulate(model, Scenario(horizon_s=10.0, t_s=1.0))
        assert err.value.step == 1

    def test_divergence_guard_names_step(self):
        model = LtiModel(
            a_cl=np.array([[2.0]]), b_d=np.ones((1, 1)),
            b_f=np.zeros((1, 0)), c=np.eye(1), d_f=np.zeros((1, 0)),
            t_s=1.0, state_labels=("u.x",), measurement_labels=("u.y",),
            attack_labels=(), disturbance_labels=("u.load",))
        sc = Scenario(horizon_s=60.0, t_s=1.0,
                      load_std={"u.load": 1.0}, seed=2)
        with pytest.raises(DivergenceError) as err:
            simulate(model, sc)
        assert err.value.step > 0

    def test_decoupling_from_loads_in_closed_loop(self, chain):
        # the designed filter ignores load disturbances entirely
        filt = realize_filter(chain.design, chain.dae.l)
        sc = quiet_scenario(horizon_s=60.0, load_std={"area1.load": 0.05,
                                                      "area2.load": 0.02,
                                                      "area3.load": 0.04})
        trace = simulate(chain.discrete, sc, filt)
        assert np.abs(trace.r_d[filt.warmup:]).max() <= 1e-6

    def test_constant_stealthy_attack_settles_at_dc_gain(self, toy_ss_model):
        # noise-free run converges to -N(1) F F_b' alpha (here nonzero)
        from agcdiag.attacks import compute_basis
        from agcdiag.dae import attack_gain, build_dae, build_fbar, stack_hbar
        from agcdiag.design import design_steady_state, feasible_basis
        from oracles import steady_state_gain
        dae = build_dae(toy_ss_model)
        fb = compute_basis(toy_ss_model.c, toy_ss_model.d_f)
        basis = feasible_basis(stack_hbar(dae, 1), 1.0, 1)
        design = design_steady_state(basis, build_fbar(dae, fb, 1),
                                     np.array([[1.0]]), np.array([1.0]))
        assert design.gamma > 0
        alpha = np.array([1.3])
        f = fb.T @ alpha
        filt = realize_filter(design, dae.l)
        sc = Scenario(horizon_s=80.0, t_s=0.5, onset_s=10.0, attack_f=f,
                      seed=3)
        trace = simulate(toy_ss_model, sc, filt)
        target = steady_state_gain(design, attack_gain(dae, fb), alpha)
        assert np.abs(trace.r_d[-10:] - target).max() <= 1e-6


class TestDisturbance:
    def test_zero_std_means_zero(self, chain):
        sc = Scenario(horizon_s=10.0, t_s=0.5, seed=5)
        rng = np.random.default_rng(5)
        d = gen_disturbance(sc, rng, chain.discrete.disturbance_labels)
        assert np.abs(d).max() == 0.0

    def test_seeded_reproducibility(self, chain):
        sc = quiet_scenario()
        a = gen_disturbance(sc, np.random.default_rng(7),
                            chain.discrete.disturbance_labels)
        b = gen_disturbance(sc, np.random.default_rng(7),
                            chain.discrete.disturbance_labels)
        assert np.array_equal(a, b)

    def test_sample_mean_statistics(self):
        sc = Scenario(horizon_s=50_000.0, t_s=0.5, seed=11,
                      load_std={"a.load": 0.03})
        draws = gen_disturbance(sc, np.random.default_rng(11), ("a.load",))
        n = draws.shape[0]
        se = 0.03 / np.sqrt(n)
        assert abs(draws[:, 0].mean()) <= 4 * se


class TestTraceCsv:
    def test_round_trip_zero_drift(self, chain, tmp_path):
        f = synthesize_attack(chain.space, [2.8, 1.0, -2.3])
        filt = realize_filter(chain.design, chain.dae.l)
        sc = quiet_scenario(attack_f=f,
                            process_noise={"area1.*": 1e-5},
                            measurement_noise={"area1.*": 1e-5,
                                               "area2.*": 1e-5,
                                               "area3.*": 1e-5})
        trace = simulate(chain.discrete, sc, filt)
        first = tmp_path / "trace.csv"
        write_trace_csv(trace, first, include_states=True,
                        include_measurements=True)
        cols = read_trace_csv(first)
        assert cols["k"].size == trace.n_records
        # rewrite what was parsed: byte-identical file
        second = tmp_path / "again.csv"
        reread = read_trace_csv(first)
        header = first.read_text().splitlines()[0]
        lines = [header]
        names = header.split(",")
        for i in range(trace.n_records):
            row = [str(int(reread["k"][i]))]
            row += [format(reread[name][i], ".12g") for name in names[1:]]
            lines.append(",".join(row))
        second.write_text("\n".join(lines) + "\n")
        assert first.read_bytes() == second.read_bytes()

    def test_header_layout(self, chain, tmp_path):
        trace = simulate(chain.discrete, quiet_scenario())
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:2] == ["k", "t"]
        assert header[2:5] == ["d_1", "d_2", "d_3"]
        assert header[5:10] == ["f_1", "f_2", "f_3", "f_4", "f_5"]
        assert header[10:] == ["rS_inf", "r_D"]


def test_unknown_pattern_area_rejected():
    with pytest.raises(ValidationError, match="pattern"):
        label_values({"areaX.*": 1.0}, ("a.freq",), "test")


def test_malformed_trace_csv_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("k,t,r_D\n0,0.0\n1,0.5,0.1\n")
    with pytest.raises(ValidationError, match="malformed"):
        read_trace_csv(bad)


def test_non_numeric_trace_csv_rejected(tmp_path):
    bad = tmp_path / "bad2.csv"
    bad.write_text("k,t,r_D\n0,zero,0.1\n")
    with pytest.raises(ValidationError, match="malformed"):
        read_trace_csv(bad)


@pytest.mark.parametrize("text", ["", "\n", "k,t,r_D\n",
                                  "k,t\n0,0.0,0.1\n", "# k,t\n# 0,0.5\n"])
def test_empty_or_misshapen_trace_csv_rejected(tmp_path, text):
    bad = tmp_path / "bad3.csv"
    bad.write_text(text)
    with pytest.raises(ValidationError, match="malformed"):
        read_trace_csv(bad)
