import json
from importlib import resources

import pytest

from agcdiag import config as cfgmod
from agcdiag.agc import assemble_system
from agcdiag.discretize import zoh_discretize
from agcdiag.errors import ConfigError, NumericError, ValidationError
from agcdiag.simulate import Scenario, resolve_label_maps


class TestDefaults:
    def test_loading_shipped_file_round_trips(self):
        path = resources.files("agcdiag") / "default.json"
        assert cfgmod.load_config(path) == cfgmod.default_config()
        # every call parses afresh, so callers may mutate what they get
        cfgmod.default_config()["design"]["eta"] = 0.0
        assert cfgmod.default_config()["design"]["eta"] == 10.0

    def test_partial_file_merges_over_defaults(self, tmp_path):
        p = tmp_path / "partial.json"
        p.write_text(json.dumps({
            "design": {"eta": 4.0},
            "scenario": {"load_std": {"area2.load": 0.01}}}))
        cfg = cfgmod.load_config(p)
        assert cfg["design"]["eta"] == 4.0
        assert cfg["design"]["d_n"] == 3
        assert cfg["model"] == cfgmod.default_config()["model"]
        # a map is replaced whole, not merged key by key
        assert cfg["scenario"]["load_std"] == {"area2.load": 0.01}


class TestValidation:
    def test_design_params_happy_path(self):
        p = cfgmod.design_params(cfgmod.default_config())
        assert p["d_n"] == 3 and p["eta"] == 10.0 and p["kind"] == "robust"
        assert set(p) == {"d_n", "eta", "pole", "kind", "rank_tol"}

    def test_bad_degree_type(self):
        cfg = cfgmod.default_config()
        cfg["design"]["d_n"] = "three"
        with pytest.raises(ConfigError) as err:
            cfgmod.design_params(cfg)
        assert err.value.field == "design.d_n"

    def test_bad_pole(self):
        cfg = cfgmod.default_config()
        cfg["design"]["pole"] = 1.7
        with pytest.raises(ConfigError) as err:
            cfgmod.design_params(cfg)
        assert err.value.field == "design.pole"

    def test_bad_kind(self):
        cfg = cfgmod.default_config()
        cfg["design"]["kind"] = "optimal-ish"
        with pytest.raises(ConfigError):
            cfgmod.design_params(cfg)

    def test_polytope_shape_mismatch(self, chain):
        # the polytope is read by build_attack_space alone
        cfg = cfgmod.default_config()
        cfg["design"]["polytope_b"] = [1.5, 2.0]
        cfgmod.design_params(cfg)
        with pytest.raises(ConfigError) as err:
            cfgmod.build_attack_space(cfg, chain.model)
        assert err.value.field == "design.polytope_a"

    @pytest.mark.parametrize("section, key, value", [
        ("design", "rank_tol", -1e-9),
        ("scenario", "seed", -1),
        ("scenario", "seed", 2.5),
        ("scenario", "noise_base", False),
        ("scenario", "onset_s", "soon"),
    ])
    def test_bad_scalars_name_their_field(self, chain, section, key, value):
        cfg = cfgmod.default_config()
        cfg[section][key] = value
        with pytest.raises(ConfigError) as err:
            if section == "design":
                cfgmod.design_params(cfg)
            else:
                cfgmod.build_scenario(cfg, chain.discrete, None)
        assert err.value.field == f"{section}.{key}"

    def test_unknown_basis_width_rejected(self, chain):
        cfg = cfgmod.default_config()
        cfg["attack"]["basis"] = [[0.1, 0.0]]
        with pytest.raises(ConfigError):
            cfgmod.build_attack_space(cfg, chain.model)

    def test_auto_basis_matches_dimension(self, chain):
        cfg = cfgmod.default_config()
        cfg["attack"]["basis"] = "auto"
        space = cfgmod.build_attack_space(cfg, chain.model)
        assert space.dim == 3

    def test_noise_pattern_scales_frequency_entries(self, chain):
        table = cfgmod.noise_pattern(chain.model.measurement_labels, 0.03)
        assert table["area1.freq"] == pytest.approx(0.0009)
        assert table["area1.tie_area2"] == pytest.approx(0.03)


def asymmetric_areas():
    """The default areas with area2's tie to area3 left out."""
    areas = cfgmod.default_config()["model"]["areas"]
    areas[1]["neighbors"].pop("area3")
    return areas


def scenario_call(cfg, chain):
    sc = cfg["scenario"]
    return Scenario(**{key: sc[key]
                       for key in ("horizon_s", "t_s", "onset_s", "seed")})


def label_map_call(name):
    def call(cfg, chain):
        return resolve_label_maps(chain.discrete, Scenario(
            horizon_s=60.0, t_s=0.5, **{name: cfg["scenario"][name]}))
    return call


def areas_call(cfg, chain):
    return assemble_system(cfgmod.build_areas(cfg),
                           tuple(cfg["model"]["attacked_measurements"]))


def zoh_call(cfg, chain):
    return zoh_discretize(chain.model, cfg["scenario"]["t_s"])


def build_scenario(cfg, chain):
    return cfgmod.build_scenario(cfg, chain.discrete, None)


def build_model(cfg, chain):
    return cfgmod.build_model(cfg)


def build_discrete(cfg, chain):
    return cfgmod.build_discrete(cfg, chain.model)


TINY_VARIANCES = {"area1.*": 1e-310, "area2.*": 1e-310, "area3.*": 1e-310}


@pytest.mark.parametrize("path, value, call, build, field", [
    ("scenario.horizon_s", 0.0, scenario_call, build_scenario, "horizon_s"),
    ("scenario.t_s", 1e-320, scenario_call, build_scenario, "horizon_s"),
    ("scenario.t_s", 0.0, scenario_call, build_scenario, "t_s"),
    ("scenario.onset_s", 100.0, scenario_call, build_scenario, "onset_s"),
    ("scenario.seed", -1, scenario_call, build_scenario, "seed"),
    ("model.areas", asymmetric_areas(), areas_call, build_model, "areas"),
    ("model.attacked_measurements", ["area1.nope"], areas_call, build_model,
     "attacked_measurements"),
    ("scenario.t_s", -0.5, zoh_call, build_discrete, "t_s"),
    ("scenario.load_std", {"areaX.load": 0.1}, label_map_call("load_std"),
     build_scenario, "load_std"),
    ("scenario.process_noise", {"area1.freq": -1.0},
     label_map_call("process_noise"), build_scenario,
     "process_noise.area1.freq"),
    ("scenario.measurement_noise", TINY_VARIANCES,
     label_map_call("measurement_noise"), build_scenario,
     "measurement_noise"),
], ids=["horizon_s", "sample-count", "t_s", "onset_s", "seed", "areas",
        "attacked_measurements", "zoh-t_s", "load_std", "process_noise-key",
        "measurement_noise"])
def test_a_library_refusal_names_its_argument(chain, path, value, call, build,
                                              field):
    """The library names the bad argument; the config builder adds the
    section and keeps the message."""
    cfg = cfgmod.default_config()
    section, key = path.split(".")
    cfg[section][key] = value
    with pytest.raises(ConfigError) as lib:
        call(cfg, chain)
    assert isinstance(lib.value, ValidationError)
    assert lib.value.field == field
    assert str(lib.value) == f"{field}: {lib.value.message}"
    with pytest.raises(ConfigError) as built:
        build(cfg, chain)
    assert built.value.field == f"{section}.{field}"
    assert built.value.message == lib.value.message


class TestBuilt:
    def test_a_named_argument_gets_the_section(self):
        def refuse(seed):
            raise ConfigError("seed", f"bad seed {seed}")

        with pytest.raises(ConfigError) as err:
            cfgmod._built(refuse, "scenario", seed=-1)
        assert err.value.field == "scenario.seed"
        assert err.value.message == "bad seed -1"
        assert str(err.value) == "scenario.seed: bad seed -1"

    def test_any_other_refusal_is_reported_at_the_path(self):
        def refuse(t_ch):
            raise ValidationError(f"t_ch {t_ch} is bad")

        with pytest.raises(ConfigError) as err:
            cfgmod._built(refuse, "model.areas[0].generators[1]", t_ch=0.0)
        assert err.value.field == "model.areas[0].generators[1]"
        assert err.value.message == "t_ch 0.0 is bad"

    def test_the_made_value_and_other_errors_pass_through(self):
        assert cfgmod._built(dict, "design", a=1) == {"a": 1}

        def overflow():
            raise NumericError("expm input contains non-finite entries")

        with pytest.raises(NumericError):
            cfgmod._built(overflow, "scenario")
