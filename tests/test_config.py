import json
from importlib import resources

import pytest

from agcdiag import config as cfgmod
from agcdiag.errors import ConfigError


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
        assert p["a_pol"].shape == (1, 3)

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

    def test_polytope_shape_mismatch(self):
        cfg = cfgmod.default_config()
        cfg["design"]["polytope_b"] = [1.5, 2.0]
        with pytest.raises(ConfigError):
            cfgmod.design_params(cfg)

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
