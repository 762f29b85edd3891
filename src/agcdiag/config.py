"""Run configuration: one JSON file drives the whole pipeline.

Sections: ``model`` (areas, topology, attacked measurement labels),
``design`` (filter degree, bound, pole, attack polytope, design kind),
``attack`` (stealthy basis or "auto", plus how to pick the injected
vector), ``scenario`` (horizon, sampling, onset, load/noise models, seed),
``output`` (paths and column toggles). ``--set section.key=value``
overrides are applied to the raw dict before validation.

Noise tables map measurement/state labels to variances; ``<area>.*``
patterns fill whole areas with exact labels taking precedence. The shipped
default describes the bundled three-area experiment: the system with
seven AGC generators, the five vulnerable tie-line measurements, the
three-vector stealthy basis, polytope 1'a >= 1.5, eta = 10, degree 3,
pole 0.8, 60 s horizon at 0.5 s sampling with the attack at 30 s.
"""

from __future__ import annotations

import copy
import json

import numpy as np

from .agc import AreaParams, ContinuousModel, GeneratorParams, assemble_system
from .attacks import AttackSpace, compute_basis, validate_attack_space
from .discretize import DiscreteLtiModel, zoh_discretize
from .errors import ConfigError
from .simulate import Scenario

THIRD = 1.0 / 3.0

#: Default per-unit noise variance. The default experiment's covariance
#: pattern (frequency entries scaled by 0.03) is kept, but the base level is
#: sized for sensor-grade errors; see README for reproducing heavier noise.
NOISE_BASE = 1e-6
FREQ_NOISE_FACTOR = 0.03

DEFAULT_CONFIG = {
    "model": {
        "areas": [
            {
                "name": "area1", "inertia": 4.0, "damping": 1.5,
                "bias": 22.0, "agc_gain": 0.5,
                "neighbors": {"area2": 0.20, "area3": 0.25},
                "generators": [
                    {"t_ch": 0.35, "droop": 0.05, "participation": THIRD},
                    {"t_ch": 0.35, "droop": 0.05, "participation": THIRD},
                    {"t_ch": 0.35, "droop": 0.05, "participation": THIRD},
                ],
            },
            {
                "name": "area2", "inertia": 3.5, "damping": 1.2,
                "bias": 21.0, "agc_gain": 0.5,
                "neighbors": {"area1": 0.20, "area3": 0.15},
                "generators": [
                    {"t_ch": 0.40, "droop": 0.05, "participation": 0.5},
                    {"t_ch": 0.40, "droop": 0.05, "participation": 0.5},
                ],
            },
            {
                "name": "area3", "inertia": 4.5, "damping": 1.8,
                "bias": 23.0, "agc_gain": 0.5,
                "neighbors": {"area1": 0.25, "area2": 0.15},
                "generators": [
                    {"t_ch": 0.45, "droop": 0.05, "participation": 0.5},
                    {"t_ch": 0.45, "droop": 0.05, "participation": 0.5},
                ],
            },
        ],
        "attacked_measurements": [
            "area1.tie_area2", "area1.tie_area3", "area1.tie_total",
            "area2.tie_area3", "area2.tie_total",
        ],
    },
    "design": {
        "d_n": 3,
        "eta": 10.0,
        "pole": 0.8,
        "kind": "robust",
        "polytope_a": [[1.0, 1.0, 1.0]],
        "polytope_b": [1.5],
        "rank_tol": 1e-9,
    },
    "attack": {
        "basis": [
            [0.1, 0.0, 0.1, 0.0, 0.0],
            [0.1, 0.15, 0.25, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.1, 0.1],
        ],
        "mode": "alpha",
        "alpha": [2.8, 1.0, -2.3],
        "raw_f": None,
    },
    "scenario": {
        "horizon_s": 60.0,
        "t_s": 0.5,
        "onset_s": 30.0,
        "load_std": {"area1.load": 0.03},
        "process_noise": "freq-scaled",
        "measurement_noise": "freq-scaled",
        "noise_base": NOISE_BASE,
        "seed": 1,
    },
    "output": {
        "dir": None,
        "include_states": False,
        "include_measurements": False,
    },
}


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def load_config(path) -> dict:
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found")
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(str(path), "top level must be an object")
    merged = default_config()
    for section, value in cfg.items():
        if section not in merged:
            raise ConfigError(section, "unknown section")
        if not isinstance(value, dict):
            raise ConfigError(section, "section must be an object")
        merged[section].update(value)
    return merged


def apply_overrides(cfg: dict, assignments: list[str]) -> list[str]:
    """Apply ``section.key=value`` overrides in place; returns echo strings."""
    applied = []
    for item in assignments:
        if "=" not in item:
            raise ConfigError(item, "override must look like section.key=value")
        path, raw = item.split("=", 1)
        keys = path.split(".")
        if len(keys) < 2:
            raise ConfigError(path, "override path needs section.key")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        for key in keys[:-1]:
            if not isinstance(node, dict) or key not in node:
                raise ConfigError(path, "no such config entry")
            node = node[key]
        if not isinstance(node, dict) or keys[-1] not in node:
            raise ConfigError(path, "no such config entry")
        node[keys[-1]] = value
        applied.append(f"{path}={raw}")
    return applied


def _typed(value, kind, path: str):
    """``value`` checked against ``kind``; ints pass as floats, bools are
    always rejected."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(path,
                          f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _require(section: dict, field: str, kind, path: str):
    if field not in section:
        raise ConfigError(f"{path}.{field}", "missing required field")
    return _typed(section[field], kind, f"{path}.{field}")


def _optional(section: dict, field: str, kind, default, path: str):
    return _typed(section.get(field, default), kind, f"{path}.{field}")


def _float_map(value, path: str) -> dict[str, float]:
    """A label -> number table, every entry checked."""
    value = _typed(value, dict, path)
    return {k: _typed(v, float, f"{path}.{k}") for k, v in value.items()}


def _float_array(value, path: str) -> np.ndarray:
    """``value`` as a float array; anything non-numeric is a config error."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, f"expected numbers: {exc}") from None


def float_vector(value, size: int, path: str) -> np.ndarray:
    """``value`` as a vector of exactly ``size`` finite floats."""
    vec = np.atleast_1d(_float_array(value, path))
    if vec.ndim != 1 or vec.size != size or not np.all(np.isfinite(vec)):
        raise ConfigError(path, f"expected a list of {size} finite numbers")
    return vec


def design_params(cfg: dict) -> dict:
    """Validated design section: degree, bound, pole, kind, polytope."""
    d = cfg.get("design", {})
    d_n = _require(d, "d_n", int, "design")
    if d_n < 0:
        raise ConfigError("design.d_n", "filter degree must be >= 0")
    eta = _require(d, "eta", float, "design")
    pole = _optional(d, "pole", float, 0.8, "design")
    if not 0.0 < pole < 1.0:
        raise ConfigError("design.pole", "pole must be a number in (0, 1)")
    kind = d.get("kind", "robust")
    if kind not in ("robust", "steady-state"):
        raise ConfigError("design.kind",
                          f"expected 'robust' or 'steady-state', got {kind!r}")
    # a missing entry reads as a 0-d nan and fails the shape check
    a_pol = _float_array(d.get("polytope_a"), "design.polytope_a")
    b_pol = _float_array(d.get("polytope_b"), "design.polytope_b")
    if a_pol.ndim != 2 or b_pol.ndim != 1 or a_pol.shape[0] != b_pol.size:
        raise ConfigError("design.polytope_a",
                          "A must be 2-D with one row per entry of b")
    rank_tol = _optional(d, "rank_tol", float, 1e-9, "design")
    if rank_tol < 0:
        raise ConfigError("design.rank_tol", "rank tolerance must be >= 0")
    return {"d_n": d_n, "eta": eta, "pole": pole, "kind": kind,
            "a_pol": a_pol, "b_pol": b_pol, "rank_tol": rank_tol}


def build_areas(cfg: dict) -> list[AreaParams]:
    areas_raw = _require(cfg["model"], "areas", list, "model")
    areas = []
    for i, raw in enumerate(areas_raw):
        path = f"model.areas[{i}]"
        if not isinstance(raw, dict):
            raise ConfigError(path, "area entry must be an object")
        gens = []
        for j, graw in enumerate(raw.get("generators", [])):
            gens.append(GeneratorParams(
                t_ch=_require(graw, "t_ch", float, f"{path}.generators[{j}]"),
                droop=_require(graw, "droop", float, f"{path}.generators[{j}]"),
                participation=_require(graw, "participation", float,
                                       f"{path}.generators[{j}]"),
            ))
        areas.append(AreaParams(
            name=_require(raw, "name", str, path),
            inertia=_require(raw, "inertia", float, path),
            damping=_require(raw, "damping", float, path),
            bias=_require(raw, "bias", float, path),
            agc_gain=_require(raw, "agc_gain", float, path),
            neighbors=_float_map(raw.get("neighbors", {}),
                                 f"{path}.neighbors"),
            generators=tuple(gens),
        ))
    return areas


def build_model(cfg: dict) -> ContinuousModel:
    areas = build_areas(cfg)
    attacked = tuple(cfg["model"].get("attacked_measurements", []))
    return assemble_system(areas, attacked)


def build_discrete(cfg: dict, model: ContinuousModel | None = None) -> DiscreteLtiModel:
    model = model if model is not None else build_model(cfg)
    t_s = _require(cfg["scenario"], "t_s", float, "scenario")
    return zoh_discretize(model, t_s)


def build_attack_space(cfg: dict, model: ContinuousModel | DiscreteLtiModel) -> AttackSpace:
    """The stealthy basis of the attack section with the polytope of the
    design section (read by ``design_params``)."""
    basis_raw = cfg["attack"].get("basis", "auto")
    if basis_raw == "auto":
        basis = compute_basis(model.c, model.d_f)
    else:
        basis = _float_array(basis_raw, "attack.basis")
        if basis.ndim != 2 or basis.shape[1] != model.n_attacks:
            raise ConfigError("attack.basis",
                              f"rows must have length {model.n_attacks}")
    p = design_params(cfg)
    if p["a_pol"].shape[1] != basis.shape[0]:
        raise ConfigError("design.polytope_a",
                          f"A needs one column per basis vector "
                          f"({basis.shape[0]})")
    space = AttackSpace(basis=basis, a=p["a_pol"], b=p["b_pol"],
                        labels=model.attack_labels)
    validate_attack_space(space, model.c, model.d_f)
    return space


def noise_pattern(labels: tuple[str, ...], base: float,
                  freq_factor: float = FREQ_NOISE_FACTOR) -> dict[str, float]:
    """Label->variance table: ``base`` everywhere, frequency entries scaled.

    Mirrors the default covariance shape base * diag(1, ..., f, ..., 1)
    with the smaller entry on each area's frequency channel.
    """
    table: dict[str, float] = {}
    for lab in labels:
        table[lab] = base * freq_factor if lab.endswith(".freq") else base
    return table


def _noise_table(value, base: float, labels: tuple[str, ...],
                 path: str) -> dict[str, float]:
    if value is None:
        return {}
    if value == "freq-scaled":
        return noise_pattern(labels, base)
    if isinstance(value, dict):
        return _float_map(value, path)
    raise ConfigError(path, "expected null, 'freq-scaled', or a label map")


def build_scenario(cfg: dict, model: DiscreteLtiModel,
                   attack_f: np.ndarray | None) -> Scenario:
    sc = cfg["scenario"]
    base = _optional(sc, "noise_base", float, NOISE_BASE, "scenario")
    load_std = _float_map(sc.get("load_std", {}), "scenario.load_std")
    seed = _optional(sc, "seed", int, 0, "scenario")
    if seed < 0:
        raise ConfigError("scenario.seed", "seed must be >= 0")
    return Scenario(
        horizon_s=_require(sc, "horizon_s", float, "scenario"),
        t_s=_require(sc, "t_s", float, "scenario"),
        onset_s=_optional(sc, "onset_s", float, 0.0, "scenario"),
        attack_f=attack_f,
        load_std=load_std,
        process_noise=_noise_table(sc.get("process_noise"), base,
                                   model.state_labels,
                                   "scenario.process_noise"),
        measurement_noise=_noise_table(sc.get("measurement_noise"), base,
                                       model.measurement_labels,
                                       "scenario.measurement_noise"),
        seed=seed,
    )
