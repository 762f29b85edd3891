"""Closed-loop simulation of the attacked sampled system with stochastic
loads and optional process/measurement noise.

Reproducibility contract: all randomness comes from one numpy PCG64
generator seeded from the scenario, drawn in a fixed order (loads, then
process noise, then measurement noise, each for the whole horizon), so a
(model, scenario, seed) triple maps to a bit-identical trace. Attacks never
consume random draws.

Only the state recursion x[k+1] = A_cl x[k] + u[k] and the dynamic
filter's scalar denominator run sample by sample. The input terms, the
measurements, the static residual and the filter numerator are stacked
matrix-vector products over the whole series; each row uses the kernel of
a one-sample product ``M @ v``, so a trace has the same bits as a loop
over samples (kept as the test reference in ``tests/reference_sim.py``).
The divergence guard names the first state past it (a nan state counts as
past it), as a check after every step would. Trace CSVs are formatted a
row at a time from one format string.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .discretize import LtiModel
from .errors import (ConfigError, DimensionError, DivergenceError,
                     ValidationError)
from .linalg import weighted_range_projector
from .residual import RealizedFilter

DIVERGENCE_GUARD = 1e6


def _sample_index(seconds: float, t_s: float) -> int:
    """Index of the last sample at or before ``seconds``, tolerant of the
    rounding in ``seconds / t_s`` (0.3 / 0.1 gives sample 3, not 2)."""
    return int(np.floor(seconds / t_s + 1e-9))


@dataclass(frozen=True)
class Scenario:
    """One simulation experiment.

    ``load_std`` maps a disturbance label (``<area>.load``) to the standard
    deviation of its i.i.d. zero-mean Gaussian steps; unlisted channels stay
    zero. Noise covariances are diagonal, label-keyed variances. The three
    label maps are checked against the model by ``simulate`` (see
    ``label_values``). ``attack_f`` is the constant injection applied
    strictly after ``onset_s`` seconds, that is at the samples
    k > ``onset_index``.
    """

    horizon_s: float
    t_s: float
    onset_s: float = 0.0
    attack_f: np.ndarray | None = None
    load_std: dict[str, float] = field(default_factory=dict)
    process_noise: dict[str, float] = field(default_factory=dict)
    measurement_noise: dict[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if not (self.horizon_s > 0 and self.t_s > 0):
            raise ValidationError("horizon and sampling period must be > 0")
        if not 0 <= self.onset_s <= self.horizon_s:
            raise ValidationError(
                f"attack onset {self.onset_s} outside [0, {self.horizon_s}]")
        if self.attack_f is not None:
            object.__setattr__(
                self, "attack_f",
                np.atleast_1d(np.asarray(self.attack_f, dtype=float)))

    @property
    def n_steps(self) -> int:
        return _sample_index(self.horizon_s, self.t_s)

    @property
    def onset_index(self) -> int:
        """Last clean sample: the attack acts on samples k > onset_index."""
        return _sample_index(self.onset_s, self.t_s)

    def fingerprint(self) -> str:
        """Stable hash of the scenario content for trace metadata."""
        payload = {
            "horizon_s": self.horizon_s, "t_s": self.t_s,
            "onset_s": self.onset_s,
            "attack_f": None if self.attack_f is None else list(self.attack_f),
            "load_std": dict(sorted(self.load_std.items())),
            # a field removed since; kept so trace_meta.json keeps its hash
            "load_series": None,
            "process_noise": dict(sorted(self.process_noise.items())),
            "measurement_noise": dict(sorted(self.measurement_noise.items())),
            "seed": self.seed,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class SimulationTrace:
    """Time-indexed record of one run; row k holds the signals at sample k."""

    t: np.ndarray
    d: np.ndarray
    f: np.ndarray
    x: np.ndarray
    y: np.ndarray
    rs_inf: np.ndarray
    r_d: np.ndarray
    metadata: dict

    @property
    def n_records(self) -> int:
        return self.t.size


def label_values(table: dict[str, float], labels: tuple[str, ...],
                 path: str) -> np.ndarray:
    """The vector over ``labels`` of a label->value map (a std or a
    variance); unlisted labels get 0.

    Keys may be exact labels or ``<area>.*`` patterns; the most specific
    (exact) entry wins. This is the one check of a scenario's label maps:
    a key that names no label, or a pattern that matches no area, raises
    ``ConfigError(path, ...)`` so typos do not silently drop noise, and a
    value that is not >= 0 (nan included) raises
    ``ConfigError(f"{path}.{key}", ...)``.
    """
    out = np.zeros(len(labels))
    known = set(labels)
    areas = {lab.split(".", 1)[0] for lab in labels}
    for key, value in table.items():
        if key.endswith(".*"):
            if key[:-2] not in areas:
                raise ConfigError(path, f"pattern {key!r} matches no area")
        elif key not in known:
            raise ConfigError(path, f"unknown label {key!r}")
        if not value >= 0.0:
            raise ConfigError(f"{path}.{key}", f"must be >= 0, got {value!r}")
    for i, lab in enumerate(labels):
        area = lab.split(".", 1)[0]
        if lab in table:
            out[i] = table[lab]
        elif f"{area}.*" in table:
            out[i] = table[f"{area}.*"]
    return out


def gen_disturbance(scenario: Scenario, rng: np.random.Generator,
                    labels: tuple[str, ...]) -> np.ndarray:
    """Per-step disturbance matrix, (n_steps+1, n_d): i.i.d. Gaussian steps
    with the stds of ``scenario.load_std``."""
    stds = label_values(scenario.load_std, labels, "load_std")
    return rng.standard_normal((scenario.n_steps + 1, len(labels))) * stds


def _rowwise(mat: np.ndarray, series: np.ndarray) -> np.ndarray:
    """``mat @ series[k]`` for every row k, as one stacked product.

    Each row takes the same matrix-vector kernel as a one-sample product,
    so the result is bit-identical to a per-sample loop.
    """
    return np.matmul(mat, series[:, :, None])[:, :, 0]


def simulate(model: LtiModel, scenario: Scenario,
             dynamic_filter: RealizedFilter | None = None) -> SimulationTrace:
    """Run the closed loop from the origin and record both residuals.

    The static residual is noise-weighted (covariance from the scenario)
    whenever every measurement has a positive noise variance. The dynamic
    filter, if given, is reset and then filters the whole measurement
    series once the state recursion has run. The scenario must sample at
    the model's ``t_s``, and its label maps must pass ``label_values``
    against the model's labels.
    """
    if scenario.t_s != model.t_s:
        raise ValidationError(f"scenario samples at t_s = {scenario.t_s}, "
                              f"the model at t_s = {model.t_s}")
    n_x, n_y = model.n_states, model.n_measurements
    n_f = model.n_attacks
    if scenario.attack_f is not None and scenario.attack_f.size != n_f:
        raise DimensionError(
            f"attack vector has length {scenario.attack_f.size}, "
            f"model has {n_f} attack channels")

    steps = scenario.n_steps
    rng = np.random.default_rng(scenario.seed)
    d_log = gen_disturbance(scenario, rng, model.disturbance_labels)
    proc_var = label_values(scenario.process_noise, model.state_labels,
                            "process_noise")
    meas_var = label_values(scenario.measurement_noise,
                            model.measurement_labels, "measurement_noise")
    w_series = rng.standard_normal((steps + 1, n_x)) * np.sqrt(proc_var)
    v_series = rng.standard_normal((steps + 1, n_y)) * np.sqrt(meas_var)

    weighted = bool(np.all(meas_var > 0))
    proj = weighted_range_projector(model.c,
                                    1.0 / meas_var if weighted else None)

    t = np.arange(steps + 1) * scenario.t_s
    f_log = np.zeros((steps + 1, n_f))
    if scenario.attack_f is not None:
        f_log[scenario.onset_index + 1:] = scenario.attack_f

    # A_cl x + B_d d + B_f f + w is added left to right: summing the input
    # terms ahead of the loop would round differently. Row k + 1 holds
    # x[k + 1]; the last row is only checked by the guard.
    x_all = np.zeros((steps + 2, n_x))
    x = x_all[0]
    inputs = zip(_rowwise(model.b_d, d_log), _rowwise(model.b_f, f_log),
                 w_series)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (bd_d, bf_f, w) in enumerate(inputs):
            x = model.a_cl @ x + bd_d + bf_f + w
            x_all[k + 1] = x
    # the guard names the first state past it, as a check after each step
    # would; the states after that one, which may have overflowed, are
    # discarded with the run. A nan state is past the guard too.
    mags = np.abs(x_all[1:]).max(axis=1, initial=0.0)
    over = np.flatnonzero(~(mags <= DIVERGENCE_GUARD))
    if over.size:
        raise DivergenceError(int(over[0]) + 1, mags[over[0]])
    x_log = x_all[:-1]

    y_log = _rowwise(model.c, x_log) + _rowwise(model.d_f, f_log) + v_series
    rs_log = np.abs(y_log - _rowwise(proj, y_log)).max(axis=1, initial=0.0)
    if dynamic_filter is None:
        rd_log = np.zeros(steps + 1)
    else:
        dynamic_filter.reset()
        rd_log = dynamic_filter.apply(y_log)

    metadata = {
        "seed": scenario.seed,
        "scenario": scenario.fingerprint(),
        "t_s": scenario.t_s,
        "onset_s": scenario.onset_s,
        "warmup_samples": 0 if dynamic_filter is None else dynamic_filter.warmup,
        "weighted_static": weighted,
        "state_labels": list(model.state_labels),
        "measurement_labels": list(model.measurement_labels),
        "attack_labels": list(model.attack_labels),
        "disturbance_labels": list(model.disturbance_labels),
    }
    return SimulationTrace(t, d_log, f_log, x_log, y_log, rs_log, rd_log,
                           metadata)


# --------------------------------------------------------------------------
# trace CSV round-trip
# --------------------------------------------------------------------------

def write_csv_table(path, header: list[str], columns: list[np.ndarray],
                    index_column: bool = False) -> None:
    """Write equal-length columns as a CSV table: one header line, then
    each value at 12 significant digits (``%.12g``, the bytes of
    ``format(v, ".12g")``), LF endings. With ``index_column`` the first
    column is printed as an integer."""
    data = np.column_stack(columns)
    cells = ["%.12g"] * data.shape[1]
    if index_column:
        cells[0] = "%d"
    row = ",".join(cells)
    body = "".join(row % values + "\n"
                   for values in map(tuple, data.tolist()))
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(header) + "\n" + body)


def write_trace_csv(trace: SimulationTrace, path,
                    include_states: bool = False,
                    include_measurements: bool = False) -> None:
    """Write the canonical trace CSV (12 significant digits, LF endings)."""
    n_d = trace.d.shape[1]
    n_f = trace.f.shape[1]
    header = ["k", "t"]
    header += [f"d_{i + 1}" for i in range(n_d)]
    header += [f"f_{i + 1}" for i in range(n_f)]
    header += ["rS_inf", "r_D"]
    columns = [np.arange(trace.n_records), trace.t, trace.d, trace.f,
               trace.rs_inf, trace.r_d]
    if include_states:
        header += [f"X_{lab}" for lab in trace.metadata["state_labels"]]
        columns.append(trace.x)
    if include_measurements:
        header += [f"Y_{lab}" for lab in trace.metadata["measurement_labels"]]
        columns.append(trace.y)
    write_csv_table(path, header, columns, index_column=True)


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Parse a trace CSV back into column arrays keyed by header name."""
    with open(path, newline="\n") as handle:
        lines = [ln for ln in handle if ln.strip()]
    if len(lines) < 2:
        raise ValidationError(f"malformed trace CSV: {path}")
    header = lines[0].rstrip("\n").split(",")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"malformed trace CSV {path}: {exc}") from exc
    if data.shape[1] != len(header):
        raise ValidationError(f"malformed trace CSV: {path}")
    return {name: data[:, i] for i, name in enumerate(header)}
