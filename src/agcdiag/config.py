"""Run configuration: one JSON file drives the whole pipeline.

Sections: ``model`` (areas, topology, attacked measurement labels),
``design`` (filter degree, bound, pole, attack polytope, design kind),
``attack`` (stealthy basis or "auto", plus how to pick the injected
vector), ``scenario`` (horizon, sampling, onset, load/noise models, seed),
``output`` (paths and column toggles).

``default.json`` beside this module is the only default, and its key tree
is the schema: a ``--config`` file, which replaces whole values of the
entries it names, and the ``--set section.key=value`` overrides after it
both go through one assignment that rejects any path the default lacks.
This module checks each entry's type; the library checks its range, and
``_built`` reports the library's refusal at the entry it came from.

Noise tables map measurement/state labels to variances; ``<area>.*``
patterns fill whole areas with exact labels taking precedence. The default
describes the bundled three-area experiment: the system with seven AGC
generators, the five vulnerable tie-line measurements, the three-vector
stealthy basis, polytope 1'a >= 1.5, eta = 10, degree 3, pole 0.8, 60 s
horizon at 0.5 s sampling with the attack at 30 s.
"""

from __future__ import annotations

import json
import math
from functools import cache
from importlib import resources

import numpy as np

from .agc import AreaParams, GeneratorParams, assemble_system
from .attacks import AttackSpace, compute_basis, validate_attack_space
from .dae import check_degree
from .discretize import LtiModel, zoh_discretize
from .errors import ConfigError, ValidationError
from .simulate import Scenario, resolve_label_maps

#: Frequency entries of the "freq-scaled" noise tables are scaled by this.
FREQ_NOISE_FACTOR = 0.03


@cache
def _default_text() -> str:
    return resources.files(__package__).joinpath("default.json").read_text()


def default_config() -> dict:
    """A fresh copy of the shipped ``default.json``."""
    return json.loads(_default_text())


def _assign(cfg: dict, keys: list[str], value) -> None:
    """Set the entry at path ``keys``, which the config must already have."""
    node = cfg
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(".".join(keys), "no such config entry")
        parent, node = node, node[key]
    parent[keys[-1]] = value


def load_config(path) -> dict:
    """The default with the sections of the JSON file at ``path`` merged in."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"config file not readable: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "top level must be an object")
    merged = default_config()
    for section, entries in raw.items():
        if section not in merged:
            raise ConfigError(section, "no such config entry")
        if not isinstance(entries, dict):
            raise ConfigError(section, "section must be an object")
        for key, value in entries.items():
            _assign(merged, [section, key], value)
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
        _assign(cfg, keys, value)
        applied.append(f"{path}={raw}")
    return applied


def _typed(value, kind, path: str):
    """``value`` checked against ``kind``; ints pass as floats, bools are
    always rejected, and a float must be finite (``json.loads`` parses
    ``Infinity``, ``NaN``, ``1e400`` and integers past the float range)."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(path,
                          f"expected {kind.__name__}, got {type(value).__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(path, f"must be finite, got {value!r}")
    return value


def _require(section: dict, field: str, kind, path: str):
    """A field of a free-form area or generator entry, type-checked."""
    if field not in section:
        raise ConfigError(f"{path}.{field}", "missing required field")
    return _typed(section[field], kind, f"{path}.{field}")


def _entry(cfg: dict, path: str, kind):
    """The entry at ``"section.key"``, type-checked."""
    section, key = path.split(".")
    return _typed(cfg[section][key], kind, path)


def _number(cfg: dict, path: str, zero_ok: bool = False) -> float:
    """The finite float at ``"section.key"``, which must be > 0 (>= 0 with
    ``zero_ok``)."""
    value = _entry(cfg, path, float)
    if not (value >= 0.0 if zero_ok else value > 0.0):
        raise ConfigError(path, f"must be {'>=' if zero_ok else '>'} 0, "
                                f"got {value!r}")
    return value


def _check_keys(entry, template: dict, path: str) -> None:
    """A free-form area or generator entry must be an object whose keys all
    appear in the matching entry of the default."""
    if not isinstance(entry, dict):
        raise ConfigError(path, "entry must be an object")
    for key in entry:
        if key not in template:
            raise ConfigError(f"{path}.{key}", "no such config entry")


def _float_map(value, path: str) -> dict[str, float]:
    """A label -> number table, every entry checked."""
    value = _typed(value, dict, path)
    return {k: _typed(v, float, f"{path}.{k}") for k, v in value.items()}


def _has_bool(value) -> bool:
    return isinstance(value, bool) or (
        isinstance(value, list) and any(_has_bool(v) for v in value))


def _float_array(value, path: str) -> np.ndarray:
    """``value`` as an array of finite floats; anything else, a bool
    entry included, is a config error."""
    if _has_bool(value):
        raise ConfigError(path, "expected numbers, got a bool")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(path, f"expected numbers: {exc}") from None
    if not np.all(np.isfinite(arr)):
        raise ConfigError(path, "expected finite numbers")
    return arr


def float_vector(value, size: int, path: str) -> np.ndarray:
    """``value`` as a vector of exactly ``size`` finite floats."""
    vec = np.atleast_1d(_float_array(value, path))
    if vec.ndim != 1 or vec.size != size:
        raise ConfigError(path, f"expected a list of {size} finite numbers")
    return vec


def design_params(cfg: dict) -> dict:
    """Validated design section: degree, bound, pole, kind, rank tolerance."""
    d = cfg["design"]
    _built(check_degree, "design.d_n", d_n=d["d_n"])
    eta = _number(cfg, "design.eta")
    pole = _entry(cfg, "design.pole", float)
    if not 0.0 < pole < 1.0:
        raise ConfigError("design.pole", "pole must be a number in (0, 1)")
    kind = d["kind"]
    if kind not in ("robust", "steady-state"):
        raise ConfigError("design.kind",
                          f"expected 'robust' or 'steady-state', got {kind!r}")
    rank_tol = _number(cfg, "design.rank_tol", zero_ok=True)
    return {"d_n": d["d_n"], "eta": eta, "pole": pole, "kind": kind,
            "rank_tol": rank_tol}


def output_params(cfg: dict) -> dict:
    """Validated output section: ``dir`` (null or a path) and the trace
    column toggles."""
    out = cfg["output"]
    if out["dir"] is not None and not isinstance(out["dir"], str):
        raise ConfigError("output.dir", "expected null or a string")
    for key in ("include_states", "include_measurements"):
        if not isinstance(out[key], bool):
            raise ConfigError(f"output.{key}", "expected true or false")
    return out


def _built(make, path: str, **fields):
    """``make(**fields)``; the one place that adds the section: a refusal
    ``ConfigError(<argument>, ...)`` is reported at ``<path>.<argument>``,
    any other ``ValidationError`` at ``path``."""
    try:
        return make(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc.field}", exc.message) from None
    except ValidationError as exc:
        raise ConfigError(path, str(exc)) from None


def build_areas(cfg: dict) -> list[AreaParams]:
    """The ``model.areas`` entries. An area or generator may carry only the
    keys of the default's first area or its first generator; ``neighbors``
    and ``generators`` may be left out."""
    area_keys = default_config()["model"]["areas"][0]
    gen_keys = area_keys["generators"][0]
    areas = []
    for i, raw in enumerate(_entry(cfg, "model.areas", list)):
        path = f"model.areas[{i}]"
        _check_keys(raw, area_keys, path)
        gens = []
        for j, graw in enumerate(_typed(raw.get("generators", []), list,
                                        f"{path}.generators")):
            gpath = f"{path}.generators[{j}]"
            _check_keys(graw, gen_keys, gpath)
            gens.append(_built(
                GeneratorParams, gpath,
                **{key: _require(graw, key, float, gpath)
                   for key in ("t_ch", "droop", "participation")}))
        areas.append(_built(
            AreaParams, path, name=_require(raw, "name", str, path),
            **{key: _require(raw, key, float, path)
               for key in ("inertia", "damping", "bias", "agc_gain")},
            neighbors=_float_map(raw.get("neighbors", {}),
                                 f"{path}.neighbors"),
            generators=tuple(gens)))
    return areas


def build_model(cfg: dict) -> LtiModel:
    areas = build_areas(cfg)
    attacked = _entry(cfg, "model.attacked_measurements", list)
    if not all(isinstance(label, str) for label in attacked):
        raise ConfigError("model.attacked_measurements",
                          "expected a list of strings")
    return _built(assemble_system, "model", areas=areas,
                  attacked_measurements=tuple(attacked))


def build_discrete(cfg: dict, model: LtiModel) -> LtiModel:
    return _built(zoh_discretize, "scenario", model=model,
                  t_s=_entry(cfg, "scenario.t_s", float))


def build_attack_space(cfg: dict, model: LtiModel) -> AttackSpace:
    """The stealthy basis of the attack section with the polytope of the
    design section, its one reader."""
    basis_raw = cfg["attack"]["basis"]
    if basis_raw == "auto":
        basis = compute_basis(model.c, model.d_f)
    else:
        basis = _float_array(basis_raw, "attack.basis")
        if basis.ndim != 2 or basis.shape[1] != model.n_attacks:
            raise ConfigError("attack.basis",
                              f"rows must have length {model.n_attacks}")
    d = cfg["design"]
    a_pol = _float_array(d["polytope_a"], "design.polytope_a")
    b_pol = _float_array(d["polytope_b"], "design.polytope_b")
    if b_pol.ndim != 1 or b_pol.size == 0:
        raise ConfigError("design.polytope_b",
                          "b must be a non-empty list of numbers")
    if a_pol.ndim != 2 or a_pol.shape[0] != b_pol.size:
        raise ConfigError("design.polytope_a",
                          "A must be 2-D with one row per entry of b")
    space = _built(AttackSpace, "design.polytope_a", basis=basis,
                   a=a_pol, b=b_pol)
    _built(validate_attack_space, "attack.basis", space=space, c=model.c,
           d_f=model.d_f)
    return space


def noise_pattern(labels: tuple[str, ...], base: float) -> dict[str, float]:
    """Label->variance table: ``base`` everywhere, frequency entries scaled.

    Mirrors the default covariance shape base * diag(1, ..., f, ..., 1)
    with the smaller entry f = ``FREQ_NOISE_FACTOR`` on each area's
    frequency channel.
    """
    table: dict[str, float] = {}
    for lab in labels:
        table[lab] = (base * FREQ_NOISE_FACTOR if lab.endswith(".freq")
                      else base)
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


def build_scenario(cfg: dict, model: LtiModel,
                   attack_f: np.ndarray | None) -> Scenario:
    sc = cfg["scenario"]
    base = _number(cfg, "scenario.noise_base", zero_ok=True)
    fields = {key: _entry(cfg, f"scenario.{key}", kind) for key, kind in (
        ("horizon_s", float), ("t_s", float), ("onset_s", float),
        ("seed", int))}
    fields["load_std"] = _float_map(sc["load_std"], "scenario.load_std")
    for name, labels in (("process_noise", model.state_labels),
                         ("measurement_noise", model.measurement_labels)):
        fields[name] = _noise_table(sc[name], base, labels, f"scenario.{name}")
    scenario = _built(Scenario, "scenario", attack_f=attack_f, **fields)
    # the label maps, checked by the rules simulate applies; simulate finds
    # them resolved, with their projector, and does not check them again
    _built(resolve_label_maps, "scenario", model=model, scenario=scenario)
    return scenario
