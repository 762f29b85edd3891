import re

import numpy as np
import pytest

from agcdiag import simulate as simmod
from agcdiag.attacks import synthesize_attack
from agcdiag.discretize import LtiModel, zoh_discretize
from agcdiag.errors import (ConfigError, DivergenceError, NumericError,
                            ValidationError)
from agcdiag.linalg import weighted_range_projector
from agcdiag.residual import realize_filter
from agcdiag.simulate import (LABEL_MAP_CACHE_SIZE, Scenario,
                              SimulationTrace, fill_trace_csv, label_values,
                              read_trace_csv, resolve_label_maps, simulate,
                              trace_csv_template, write_trace_csv)

from reference_sim import simulate_reference, write_trace_csv_reference


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
        field = "t_s" if horizon_s > 0 else "horizon_s"
        with pytest.raises(ValidationError,
                           match=rf"^{field}: must be > 0, got ") as err:
            Scenario(horizon_s=horizon_s, t_s=t_s)
        assert err.value.field == field

    @pytest.mark.parametrize("horizon_s, t_s", [
        (np.inf, 0.5), (1e308, 1e-300),
        (np.float64(1e308), np.float64(1e-300)),
    ], ids=["inf", "overflow", "numpy-overflow"])
    def test_non_finite_sample_count_rejected(self, horizon_s, t_s):
        with pytest.raises(ValidationError,
                           match=r"^horizon_s: horizon_s / t_s is not a "
                                 r"finite sample count at t_s = "
                                 rf"{re.escape(repr(t_s))}, "):
            Scenario(horizon_s=horizon_s, t_s=t_s)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match=r"^seed: must be an "
                                                  r"integer >= 0, got "):
            Scenario(horizon_s=10.0, t_s=0.5, seed=seed)

    def test_numpy_seed_is_kept_as_int(self, chain):
        sc = quiet_scenario(seed=np.int64(3))
        assert type(sc.seed) is int
        assert sc.fingerprint() == quiet_scenario(seed=3).fingerprint()
        trace = simulate(chain.discrete, sc)
        assert np.array_equal(trace.x, simulate(chain.discrete,
                                                quiet_scenario(seed=3)).x)

    @pytest.mark.parametrize("attack_f", [
        np.zeros((1, 5)), [0.1, np.nan, 0.0, 0.0, 0.0], [np.inf] * 5],
        ids=["2-D", "nan", "inf"])
    def test_bad_attack_vector_rejected(self, attack_f):
        with pytest.raises(ValidationError,
                           match=r"^attack vector must be 1-D and finite$"):
            Scenario(horizon_s=10.0, t_s=0.5, attack_f=attack_f)

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
        ("area3.*", np.inf, "{name}.area3.*"),
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

    def test_attack_length_mismatch_rejected(self, chain):
        sc = quiet_scenario(attack_f=np.ones(4))
        with pytest.raises(ValidationError, match=r"^attack vector has "
                           r"length 4, model has 5 attack channels$"):
            simulate(chain.discrete, sc)

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

    def test_overflowing_measurement_attack_raises(self, chain):
        # area2.tie_total has no B_f column, so no state sees this attack
        # and the divergence guard cannot trip. r_D is near the float limit
        # at the first attacked sample, 21, and overflows at the next.
        filt = realize_filter(chain.design, chain.dae.l)
        sc = quiet_scenario(attack_f=[1.0, 2.0, 3.0, 4.0, 1e308])
        with pytest.raises(NumericError,
                           match=r"^r_D is -?inf at sample 22$"):
            simulate(chain.discrete, sc, filt)

    def test_overflowing_static_residual_raises(self):
        # y_1 = f_1 + f_2 overflows while the state stays at 0
        model = LtiModel(
            a_cl=np.array([[0.5]]), b_d=np.ones((1, 1)),
            b_f=np.zeros((1, 2)), c=np.ones((2, 1)),
            d_f=np.array([[1.0, 1.0], [0.0, 0.0]]), t_s=1.0,
            state_labels=("u.x",), measurement_labels=("u.y1", "u.y2"),
            attack_labels=("u.y1", "u.y2"), disturbance_labels=("u.load",))
        sc = Scenario(horizon_s=10.0, t_s=1.0, onset_s=3.0,
                      attack_f=[1.7e308, 1.7e308])
        with pytest.raises(NumericError,
                           match=r"^rS_inf is (inf|nan) at sample 4$"):
            simulate(model, sc)

    def test_decoupling_from_loads_in_closed_loop(self, chain):
        # the designed filter ignores load disturbances entirely
        filt = realize_filter(chain.design, chain.dae.l)
        sc = quiet_scenario(horizon_s=60.0, load_std={"area1.load": 0.05,
                                                      "area2.load": 0.02,
                                                      "area3.load": 0.04})
        trace = simulate(chain.discrete, sc, filt)
        assert np.abs(trace.r_d[filt.d_n:]).max() <= 1e-6

    def test_constant_stealthy_attack_settles_at_dc_gain(self, toy_ss_model):
        # noise-free run converges to -N(1) F F_b' alpha (here nonzero)
        from agcdiag.attacks import compute_basis
        from agcdiag.dae import attack_gain, build_dae, stack_hbar
        from agcdiag.design import design_steady_state, feasible_basis
        from oracles import steady_state_gain
        dae = build_dae(toy_ss_model)
        fb = compute_basis(toy_ss_model.c, toy_ss_model.d_f)
        basis = feasible_basis(stack_hbar(dae, 1), 1.0, 1)
        design = design_steady_state(basis, attack_gain(dae, fb),
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
    """The load steps of a trace: i.i.d. Gaussian with the stds of
    ``load_std``, the run's first draw."""

    def test_zero_std_means_zero(self, chain):
        trace = simulate(chain.discrete, Scenario(horizon_s=10.0, t_s=0.5,
                                                  seed=5))
        assert np.abs(trace.d).max() == 0.0

    def test_seeded_reproducibility(self, chain):
        sc = quiet_scenario()
        a = simulate(chain.discrete, sc)
        b = simulate(chain.discrete, quiet_scenario())
        assert np.array_equal(a.d, b.d)
        labels = chain.discrete.disturbance_labels
        draw = np.random.default_rng(sc.seed).standard_normal(
            (sc.n_steps + 1, len(labels)))
        stds = np.array([sc.load_std.get(lab, 0.0) for lab in labels])
        assert np.array_equal(a.d, draw * stds)

    def test_sample_mean_statistics(self, chain):
        sc = Scenario(horizon_s=50_000.0, t_s=0.5, seed=11,
                      load_std={"area1.load": 0.03})
        trace = simulate(chain.discrete, sc)
        draws = trace.d[:, chain.discrete.disturbance_labels.index(
            "area1.load")]
        se = 0.03 / np.sqrt(draws.size)
        assert abs(draws.mean()) <= 4 * se


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

    def test_template_fill_formats_every_cell_like_format(self, tmp_path):
        """A filled template has the bytes of ``format(v, ".12g")`` in every
        cell, ``r_D`` included, for signed zeros, 1e-300 and values that
        need all 12 digits; a ``%`` in a label stays one ``%``."""
        vals = np.array([-0.0, 0.0, 1e-300, -1e-300, 0.123456789012,
                         -98765.4321098765, 123456789012.0, 1.0 / 3.0])
        trace = SimulationTrace(
            t=vals, d=np.column_stack([vals, -vals]), f=vals[::-1, None],
            x=-vals[:, None], y=vals[::-1, None], rs_inf=vals[::-1],
            r_d=vals, metadata={"state_labels": ["a%d.x"],
                                "measurement_labels": ["a.y%%"]})
        columns = [trace.t, trace.d[:, 0], trace.d[:, 1], trace.f[:, 0],
                   trace.rs_inf, trace.r_d, trace.x[:, 0], trace.y[:, 0]]
        lines = ["k,t,d_1,d_2,f_1,rS_inf,r_D,X_a%d.x,Y_a.y%%"]
        lines += [",".join([str(k)] + [format(col[k], ".12g")
                                        for col in columns])
                  for k in range(vals.size)]
        expected = ("\n".join(lines) + "\n").encode()
        filled = tmp_path / "filled.csv"
        fill_trace_csv(trace_csv_template(trace, True, True), trace.r_d,
                       filled)
        written = tmp_path / "written.csv"
        write_trace_csv(trace, written, True, True)
        assert filled.read_bytes() == expected
        assert written.read_bytes() == expected
        assert b"-0," in expected and b"1e-300" in expected


def test_unknown_pattern_area_rejected():
    with pytest.raises(ValidationError, match="pattern"):
        label_values({"areaX.*": 1.0}, ("a.freq",), "test")


def test_malformed_trace_csv_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("k,t,r_D\n0,0.0\n1,0.5,0.1\n")
    with pytest.raises(ValidationError, match="malformed"):
        read_trace_csv(bad)


def test_repeated_trace_csv_column_rejected(tmp_path):
    bad = tmp_path / "repeated.csv"
    bad.write_text("t,t\n1,2\n3,4\n")
    with pytest.raises(ValidationError, match="column 't' repeats"):
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


def test_batch_on_one_noise_table_computes_one_projector(
        chain, projectors_computed):
    noise = {"area1.*": 1e-4, "area2.*": 2e-4, "area3.*": 1e-4}
    for seed in range(16):
        simulate(chain.discrete, quiet_scenario(
            horizon_s=5.0, onset_s=2.0, seed=seed, measurement_noise=noise))
    assert projectors_computed == [1]


def test_too_small_variance_is_a_config_error(chain):
    sc = quiet_scenario(measurement_noise={
        "area1.*": 1e-310, "area2.*": 1e-310, "area3.*": 1e-310})
    with np.errstate(all="raise"):
        with pytest.raises(ConfigError, match="too small") as exc:
            simulate(chain.discrete, sc)
    assert exc.value.field == "measurement_noise"


class TestResolvedLabelMaps:
    """A scenario's label maps are checked and turned into vectors once per
    distinct map set, keyed by content: a batch of seeds shares one entry,
    and a map changed in place is checked again."""

    NOISE = {"area1.*": 1e-4, "area2.*": 2e-4, "area3.freq": 1e-5}

    def batch_scenario(self, seed):
        # fresh dicts of equal content, as config.build_scenario makes them
        return quiet_scenario(seed=seed, horizon_s=5.0, onset_s=2.0,
                              process_noise=dict(self.NOISE),
                              measurement_noise=dict(self.NOISE))

    def test_a_batch_checks_its_maps_once(self, chain, label_value_calls):
        for seed in range(16):
            simulate(chain.discrete, self.batch_scenario(seed))
        assert label_value_calls == ["load_std", "process_noise",
                                     "measurement_noise"]

    def test_a_map_changed_in_place_is_checked_again(self, chain):
        sc = self.batch_scenario(1)
        simulate(chain.discrete, sc)
        sc.process_noise["area1.typo"] = 1e-4
        with pytest.raises(ConfigError, match="unknown label") as err:
            simulate(chain.discrete, sc)
        assert err.value.field == "process_noise"
        del sc.process_noise["area1.typo"]
        sc.measurement_noise["area2.*"] = -1e-4
        with pytest.raises(ConfigError) as err:
            simulate(chain.discrete, sc)
        assert err.value.field == "measurement_noise.area2.*"

    def test_a_failed_map_set_stores_nothing(self, chain, label_value_calls):
        sc = quiet_scenario(process_noise={"area1.*": np.nan})
        for _ in range(2):
            with pytest.raises(ConfigError):
                simulate(chain.discrete, sc)
        assert simmod._label_maps == {}
        assert label_value_calls.count("process_noise") == 2

    def test_a_value_that_is_no_number_meets_the_one_check(self, chain):
        """A map the cache cannot key is still checked by ``label_values``,
        key by key, so its unknown key is named first."""
        sc = quiet_scenario(process_noise={"area1.typo": 1e-4,
                                           "area1.*": "1e-4"})
        with pytest.raises(ConfigError, match="unknown label") as err:
            simulate(chain.discrete, sc)
        assert err.value.field == "process_noise"
        assert simmod._label_maps == {}

    def test_signed_zeros_are_different_entries(self, chain):
        """``-0.0`` and ``0.0`` compare equal but draw differently signed
        zeros, so each map set keeps its own vectors."""
        plus, minus = (quiet_scenario(load_std={"area1.load": zero})
                       for zero in (0.0, -0.0))
        runs = [simulate(chain.discrete, sc) for sc in (plus, minus)]
        assert len(simmod._label_maps) == 2
        assert runs[0].d.tobytes() != runs[1].d.tobytes()
        for sc, run in zip((plus, minus), runs):
            ref = simulate_reference(chain.discrete, sc)
            assert run.d.tobytes() == ref.d.tobytes()

    def test_vectors_are_read_only_and_shared(self, chain,
                                              projectors_computed):
        """Two scenarios with equal maps share one entry: its vectors and
        its read-only projector, bit-equal to a fresh one, weighted when
        every measurement is noisy (``NOISE`` leaves area3's clean)."""
        noisy = {"area1.*": 1e-4, "area2.*": 2e-4, "area3.*": 1e-5}
        for noise, weighted in ((self.NOISE, False), (noisy, True)):
            first, second = (
                resolve_label_maps(chain.discrete, quiet_scenario(
                    seed=seed, measurement_noise=dict(noise)))
                for seed in (1, 2))
            assert all(a is b for a, b in zip(first, second))
            assert first[4] is weighted
            for vec in first[:4]:
                assert not vec.flags.writeable
            with pytest.raises(ValueError):
                first[3][0, 0] = 1.0
            weights = (1.0 / label_values(
                noise, chain.discrete.measurement_labels, "noise")
                if weighted else None)
            fresh = weighted_range_projector(chain.discrete.c, weights)
            assert first[3].tobytes() == fresh.tobytes()
        assert projectors_computed == [1, 1]

    @pytest.mark.parametrize("which, index, change", [
        ("c", (0, 1), np.negative),                  # 0.0 -> -0.0
        ("c", (0, 0), lambda v: np.nextafter(v, 2.0)),
        ("noise", "area1.*", lambda v: np.nextafter(v, 1.0)),
    ], ids=["c-signed-zero", "c-ulp", "noise-ulp"])
    def test_one_differing_entry_gets_its_own_projector(
            self, chain, projectors_computed, which, index, change):
        """A C or a noise variance that differs from the first in one
        entry, by the sign of a zero or by one ulp, gets its own entry."""
        noise = {"area1.*": 1e-4, "area2.*": 2e-4, "area3.*": 1e-5}
        base = resolve_label_maps(chain.discrete, quiet_scenario(
            measurement_noise=dict(noise)))
        model = chain.discrete
        table = model.c.copy() if which == "c" else noise
        old = np.float64(table[index])
        table[index] = float(change(old))
        assert np.float64(table[index]).tobytes() != old.tobytes()
        if which == "c":
            model = LtiModel(model.a_cl, model.b_d, model.b_f, table,
                             model.d_f, model.state_labels,
                             model.measurement_labels, model.attack_labels,
                             model.disturbance_labels, model.t_s)
        other = resolve_label_maps(model, quiet_scenario(
            measurement_noise=dict(noise)))
        assert other[3] is not base[3]
        assert projectors_computed == [1, 1]
        assert len(simmod._label_maps) == 2

    def test_rank_deficient_c_raises_on_every_run(self, projectors_computed):
        """A projector that raises stores no entry, so every run on the
        model computes it again and raises again."""
        model = LtiModel(
            a_cl=np.array([[0.5, 0.0], [0.0, 0.25]]), b_d=np.ones((2, 1)),
            b_f=np.zeros((2, 0)),
            c=np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]),
            d_f=np.zeros((3, 0)), t_s=1.0, state_labels=("u.x1", "u.x2"),
            measurement_labels=("u.y1", "u.y2", "u.y3"), attack_labels=(),
            disturbance_labels=("u.load",))
        for _ in range(3):
            with pytest.raises(ValidationError,
                               match="deficient by 1 column"):
                simulate(model, Scenario(horizon_s=5.0, t_s=1.0))
        assert projectors_computed == [1, 1, 1]
        assert simmod._label_maps == {}

    def test_the_cache_is_bounded(self, chain, label_value_calls):
        def scenario(i):
            return quiet_scenario(load_std={"area1.load": 0.01 * (i + 1)})

        for i in range(LABEL_MAP_CACHE_SIZE + 1):
            resolve_label_maps(chain.discrete, scenario(i))
        assert len(simmod._label_maps) == LABEL_MAP_CACHE_SIZE
        checked = len(label_value_calls)
        resolve_label_maps(chain.discrete, scenario(LABEL_MAP_CACHE_SIZE))
        assert len(label_value_calls) == checked
        resolve_label_maps(chain.discrete, scenario(0))   # dropped first
        assert len(label_value_calls) == checked + 3

    def test_trace_metadata_holds_no_fingerprint(self, chain):
        trace = simulate(chain.discrete, quiet_scenario())
        assert "scenario" not in trace.metadata


class TestAttackRunsInTheCsv:
    """The template formats each run of equal attack rows once; its bytes
    are those of a writer that formats every cell with ``format``."""

    def assert_reference_bytes(self, trace, tmp_path):
        for flags in ((False, False), (True, True)):
            write_trace_csv(trace, tmp_path / "new.csv", *flags)
            write_trace_csv_reference(trace, tmp_path / "ref.csv", *flags)
            assert (tmp_path / "new.csv").read_bytes() == \
                (tmp_path / "ref.csv").read_bytes()

    def test_many_runs_and_signed_zeros(self, chain, tmp_path):
        base = simulate(chain.discrete, quiet_scenario(
            measurement_noise={"area1.*": 1e-4}))
        n = base.n_records
        rows = np.array([[0.1, 0.0, -0.0, 1e-300, 1.0 / 3.0],
                         [0.1, -0.0, -0.0, 1e-300, 1.0 / 3.0],
                         [-2.5, 0.0, 7.0, 0.0, 123456789012.0]])
        # runs of 3, 1, 5, 1, 2 rows and the rest, with back-to-back repeats
        pick = np.zeros(n, dtype=int)
        pick[3:4] = 1
        pick[4:9] = 2
        pick[9:10] = 1
        pick[10:12] = 0
        pick[12:] = 2
        trace = SimulationTrace(base.t, base.d, rows[pick], base.x, base.y,
                                base.rs_inf, base.r_d, base.metadata)
        self.assert_reference_bytes(trace, tmp_path)
        text = (tmp_path / "new.csv").read_text().splitlines()
        assert text[1].split(",")[6] == "0" and text[4].split(",")[6] == "-0"

    def test_trace_with_no_attack(self, chain, tmp_path):
        trace = simulate(chain.discrete, quiet_scenario())
        assert np.abs(trace.f).max() == 0.0
        self.assert_reference_bytes(trace, tmp_path)

    def test_model_with_no_attack_channel(self, tmp_path):
        model = LtiModel(
            a_cl=np.array([[0.5, 0.2], [0.0, 0.9]]), b_d=np.ones((2, 1)),
            b_f=np.zeros((2, 0)), c=np.eye(2), d_f=np.zeros((2, 0)),
            t_s=1.0, state_labels=("u.x1", "u.x2"),
            measurement_labels=("u.y1", "u.y2"), attack_labels=(),
            disturbance_labels=("u.load",))
        trace = simulate(model, Scenario(horizon_s=40.0, t_s=1.0, seed=3,
                                         load_std={"u.load": 1.0}))
        self.assert_reference_bytes(trace, tmp_path)
