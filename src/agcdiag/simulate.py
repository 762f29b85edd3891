"""Closed-loop simulation of the attacked sampled system with stochastic
loads and optional process/measurement noise.

Reproducibility contract: all randomness comes from one numpy PCG64
generator seeded from the scenario, drawn in a fixed order (loads, then
process noise, then measurement noise, each for the whole horizon), so a
(model, scenario, seed) triple maps to a bit-identical trace. Attacks never
consume random draws.

Only the state recursion x[k+1] = A_cl x[k] + u[k] and the dynamic
filter's d_N first-order denominator sections run sample by sample; the recursion writes
each step in place into its row of the state log, with no temporaries.
The input terms, the measurements, the static residual and the filter
numerator are stacked matrix-vector products over the whole series; each
row uses the kernel of a one-sample product ``M @ v``, so a trace has the
same bits as a loop over samples (kept as the test reference in
``tests/reference_sim.py``). The scenario's three label maps are turned
into per-label vectors, and the static-residual projector is built, once
per distinct map set and measurement map C (``resolve_label_maps``, shared
with ``config.build_scenario``), so a batch of seeds checks its maps and
builds its projector once, and each run draws and steps only.
The divergence guard names the first state past it (a nan state counts as
past it), as a check after every step would, and so does the check of
the residuals rS_inf and r_D, which an attack on measurements alone can
overflow with every state inside the guard. A trace CSV's body is
formatted a block of rows at a time, from one row format repeated for
every row of the block; the attack columns, constant between their
changes, are written as literal text into the row format of each run of
equal attack rows. The ``r_D`` column is filled in a second step
(``trace_csv_template``, then ``fill_trace_csv``), so runs that differ
only in ``r_D``, such as the filters of a pole sweep, format the other
columns once.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from array import array

import numpy as np

from .discretize import LtiModel
from .errors import ConfigError, DivergenceError, ValidationError
from .linalg import weighted_range_projector
from .residual import RealizedFilter, check_finite

DIVERGENCE_GUARD = 1e6
CSV_BLOCK_ROWS = 4     # rows formatted by one ``%`` in _csv_body
#: Most resolved label-map sets kept at once; the oldest is dropped first.
LABEL_MAP_CACHE_SIZE = 16
# (label tuples, C bytes, map keys, map value bits) -> resolved entry,
# oldest first
_label_maps: dict[tuple, tuple] = {}


def _sample_index(seconds: float, t_s: float) -> int:
    """Index of the last sample at or before ``seconds``, tolerant of the
    rounding in ``seconds / t_s`` (0.3 / 0.1 gives sample 3, not 2)."""
    return int(np.floor(seconds / t_s + 1e-9))


class Scenario:
    """One simulation experiment.

    ``load_std`` maps a disturbance label (``<area>.load``) to the standard
    deviation of its i.i.d. zero-mean Gaussian steps; unlisted channels stay
    zero. Noise covariances are diagonal, label-keyed variances. The three
    label maps are checked against the model once per distinct content, by
    ``resolve_label_maps`` from ``config.build_scenario`` or ``simulate``,
    whichever comes first. ``attack_f`` is the constant injection applied
    strictly after ``onset_s`` seconds, that is at the samples
    k > ``onset_index``. ``fingerprint`` hashes the content for
    ``trace_meta.json``; ``simulate`` does not read it. A bad ``horizon_s``,
    ``t_s``, ``onset_s`` or ``seed`` raises ``ConfigError(<its name>, ...)``.
    """

    __slots__ = ("horizon_s", "t_s", "onset_s", "attack_f", "load_std",
                 "process_noise", "measurement_noise", "seed")

    def __init__(self, horizon_s: float, t_s: float, onset_s: float = 0.0,
                 attack_f: np.ndarray | None = None,
                 load_std: dict[str, float] | None = None,
                 process_noise: dict[str, float] | None = None,
                 measurement_noise: dict[str, float] | None = None,
                 seed: int = 0):
        for name, value in (("horizon_s", horizon_s), ("t_s", t_s)):
            if not value > 0:
                raise ConfigError(name, f"must be > 0, got {value!r}")
        if not math.isfinite(float(horizon_s) / float(t_s)):
            raise ConfigError("horizon_s",
                              f"horizon_s / t_s is not a finite sample count "
                              f"at t_s = {t_s!r}, got {horizon_s!r}")
        if not 0 <= onset_s <= horizon_s:
            raise ConfigError("onset_s", f"must be in [0, horizon_s = "
                                         f"{horizon_s!r}], got {onset_s!r}")
        if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
                or seed < 0):
            raise ConfigError("seed", f"must be an integer >= 0, got {seed!r}")
        if attack_f is not None:
            attack_f = np.atleast_1d(np.asarray(attack_f, dtype=float))
            if attack_f.ndim != 1 or not np.isfinite(attack_f).all():
                raise ValidationError("attack vector must be 1-D and finite")
        self.horizon_s = horizon_s
        self.t_s = t_s
        self.onset_s = onset_s
        self.attack_f = attack_f
        self.load_std = {} if load_std is None else load_std
        self.process_noise = {} if process_noise is None else process_noise
        self.measurement_noise = ({} if measurement_noise is None
                                  else measurement_noise)
        self.seed = int(seed)

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


class SimulationTrace:
    """Time-indexed record of one run; row k holds the signals at sample k."""

    __slots__ = ("t", "d", "f", "x", "y", "rs_inf", "r_d", "metadata")

    def __init__(self, t: np.ndarray, d: np.ndarray, f: np.ndarray,
                 x: np.ndarray, y: np.ndarray, rs_inf: np.ndarray,
                 r_d: np.ndarray, metadata: dict):
        self.t = t
        self.d = d
        self.f = f
        self.x = x
        self.y = y
        self.rs_inf = rs_inf
        self.r_d = r_d
        self.metadata = metadata

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
    value that is not finite and >= 0 (nan and inf included) raises
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
        if not (math.isfinite(value) and value >= 0.0):
            raise ConfigError(f"{path}.{key}",
                              f"must be finite and >= 0, got {value!r}")
    for i, lab in enumerate(labels):
        area = lab.split(".", 1)[0]
        if lab in table:
            out[i] = table[lab]
        elif f"{area}.*" in table:
            out[i] = table[f"{area}.*"]
    return out


def resolve_label_maps(model: LtiModel, scenario: Scenario) -> tuple:
    """``scenario``'s label maps as vectors over ``model``'s labels, with
    the static-residual projector they fix: ``(load stds, sqrt of the
    process variances, sqrt of the measurement variances, projector,
    weighted)``, every array read-only.

    The projector is ``weighted_range_projector(model.c, 1 / measurement
    variances)`` when every measurement variance is positive (``weighted``
    is True), else unweighted. On a miss, ``label_values`` checks the
    maps, its errors naming ``<map>`` or ``<map>.<key>``; a variance so
    small that its reciprocal overflows (1e-310) raises
    ``ConfigError("measurement_noise", ...)``. Entries are kept
    per process, keyed by the three label tuples, the bytes of C, the
    maps' keys and the bits of their values (so ``0.0`` and ``-0.0``
    differ, and a map changed in place is looked up afresh). A map set or
    a projector that fails stores nothing.
    """
    maps = (scenario.load_std, scenario.process_noise,
            scenario.measurement_noise)
    labels = (model.disturbance_labels, model.state_labels,
              model.measurement_labels)
    try:
        key = (labels, model.c.tobytes(), *map(tuple, maps),
               *(array("d", table.values()).tobytes() for table in maps))
        entry = _label_maps.get(key)
    except (TypeError, OverflowError):
        # a value that is no real number (label_values refuses it) or a
        # label that cannot be hashed: resolved without the cache
        key = entry = None
    if entry is None:
        stds, proc_var, meas_var = (
            label_values(table, labs, name)
            for table, labs, name in zip(maps, labels, (
                "load_std", "process_noise", "measurement_noise")))
        weights = None
        if np.all(meas_var > 0):
            with np.errstate(over="ignore"):
                weights = 1.0 / meas_var
            if not np.all(np.isfinite(weights)):
                raise ConfigError("measurement_noise",
                                  "a variance is too small to invert: "
                                  f"min {float(meas_var.min())!r}")
        entry = (stds, np.sqrt(proc_var), np.sqrt(meas_var),
                 weighted_range_projector(model.c, weights),
                 weights is not None)
        for vec in entry[:4]:
            vec.flags.writeable = False
        if key is not None:
            if len(_label_maps) >= LABEL_MAP_CACHE_SIZE:
                del _label_maps[next(iter(_label_maps))]
            _label_maps[key] = entry
    return entry


def _rowwise(mat: np.ndarray, series: np.ndarray) -> np.ndarray:
    """``mat @ series[k]`` for every row k, as one stacked product.

    Each row takes the same matrix-vector kernel as a one-sample product,
    so the result is bit-identical to a per-sample loop.
    """
    return np.matmul(mat, series[:, :, None])[:, :, 0]


@np.errstate(over="ignore", invalid="ignore")   # the guard, check_finite
def simulate(model: LtiModel, scenario: Scenario,
             dynamic_filter: RealizedFilter | None = None) -> SimulationTrace:
    """Run the closed loop from the origin and record both residuals.

    The static residual is noise-weighted (covariance from the scenario)
    whenever every measurement has a positive noise variance; a variance
    so small that its reciprocal overflows raises
    ``ConfigError("measurement_noise", ...)``. The dynamic
    filter, if given, filters the whole measurement series once the state
    recursion has run; its first d_n outputs, the warm-up, see zero delay
    lines. A non-finite residual raises
    ``NumericError`` naming its first sample. The scenario must sample at
    the model's ``t_s``, and its label maps must pass ``label_values``
    against the model's labels. Both the map check and the projector come
    from ``resolve_label_maps``, once per distinct map set and C. The
    trace's metadata holds no scenario fingerprint;
    ``Scenario.fingerprint`` makes one for the file that records it.
    """
    if scenario.t_s != model.t_s:
        raise ValidationError(f"scenario samples at t_s = {scenario.t_s}, "
                              f"the model at t_s = {model.t_s}")
    n_x, n_y = model.n_states, model.n_measurements
    n_f = model.n_attacks
    if scenario.attack_f is not None and scenario.attack_f.size != n_f:
        raise ValidationError(
            f"attack vector has length {scenario.attack_f.size}, "
            f"model has {n_f} attack channels")

    steps = scenario.n_steps
    load_std, proc_std, meas_std, proj, weighted = resolve_label_maps(
        model, scenario)
    rng = np.random.default_rng(scenario.seed)
    d_log = rng.standard_normal((steps + 1, load_std.size)) * load_std
    w_series = rng.standard_normal((steps + 1, n_x)) * proc_std
    v_series = rng.standard_normal((steps + 1, n_y)) * meas_std

    t = np.arange(steps + 1) * scenario.t_s
    f_log = np.zeros((steps + 1, n_f))
    if scenario.attack_f is not None:
        f_log[scenario.onset_index + 1:] = scenario.attack_f

    # A_cl x + B_d d + B_f f + w is added left to right, straight into
    # row k + 1: summing the input terms ahead of the loop would round
    # differently. Row k + 1 holds x[k + 1]; the last row is only checked
    # by the guard. The row views are made once, not indexed per step.
    x_all = np.zeros((steps + 2, n_x))
    rows = list(x_all)
    a_cl, matmul, add = model.a_cl, np.matmul, np.add
    steps_in = zip(rows, rows[1:], _rowwise(model.b_d, d_log),
                   _rowwise(model.b_f, f_log), w_series)
    for x, x_next, bd_d, bf_f, w in steps_in:
        matmul(a_cl, x, x_next)     # the third argument is ``out``
        add(x_next, bd_d, x_next)
        add(x_next, bf_f, x_next)
        add(x_next, w, x_next)
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
    check_finite("rS_inf", rs_log)    # also false for a non-finite y
    rd_log = (np.zeros(steps + 1) if dynamic_filter is None
              else dynamic_filter.apply(y_log))

    metadata = {
        "seed": scenario.seed,
        "t_s": scenario.t_s,
        "onset_s": scenario.onset_s,
        "warmup_samples": 0 if dynamic_filter is None else dynamic_filter.d_n,
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

def _csv_body(data: np.ndarray, cells: list[str]) -> str:
    """The rows of ``data`` formatted by the cells of one row format; a
    cell without a conversion (``%%``) consumes no value."""
    row = ",".join(cells) + "\n"
    # one ``%`` per block of rows: a call per row costs more, and larger
    # blocks fragment the C heap. Over 2 000 passes of perfbench's
    # reproduce loop in one process, 16-row blocks of the trace template
    # grew the heap from 6.9 to 11.3 MB (mallinfo2 arena) and 4-row
    # blocks kept it at 7.0 MB, formatting as fast; one call per table
    # left peak RSS about 9 MB higher
    n_cols = data.shape[1]
    step = CSV_BLOCK_ROWS * n_cols
    flat = data.ravel().tolist()
    return "".join((row * (len(block) // n_cols)) % tuple(block)
                   for block in (flat[i:i + step]
                                 for i in range(0, len(flat), step)))


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` with LF line endings on every platform;
    every output file of the package is written here."""
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def write_csv_table(path, header: list[str],
                    columns: list[np.ndarray]) -> None:
    """Write equal-length columns as a CSV table: one header line, then
    each value at 12 significant digits (``%.12g``, the bytes of
    ``format(v, ".12g")``), LF endings."""
    data = np.column_stack(columns)
    cells = ["%.12g"] * data.shape[1]
    write_text(path, ",".join(header) + "\n" + _csv_body(data, cells))


def trace_csv_template(trace: SimulationTrace, include_states: bool = False,
                       include_measurements: bool = False) -> str:
    """The trace CSV's text with every ``r_D`` cell left as a literal
    ``%.12g`` (and any ``%`` of the header doubled), so that
    ``fill_trace_csv`` writes the bytes of ``write_trace_csv`` for any
    ``r_D`` series of the trace's length. Every other column is formatted
    here, once: the attack cells once per run of equal attack rows (rows
    compared bit for bit, so ``-0.0`` and ``0.0`` differ), as literal text
    in that run's row format."""
    n_d = trace.d.shape[1]
    f = np.asarray(trace.f, dtype=float)
    header = ["k", "t"]
    header += [f"d_{i + 1}" for i in range(n_d)]
    header += [f"f_{i + 1}" for i in range(f.shape[1])]
    header += ["rS_inf", "r_D"]
    columns = [np.arange(trace.n_records), trace.t, trace.d, trace.rs_inf]
    if include_states:
        header += [f"X_{lab}" for lab in trace.metadata["state_labels"]]
        columns.append(trace.x)
    if include_measurements:
        header += [f"Y_{lab}" for lab in trace.metadata["measurement_labels"]]
        columns.append(trace.y)
    data = np.column_stack(columns)
    lead = ["%d"] + ["%.12g"] * (1 + n_d)
    trail = ["%.12g", "%%.12g"] + ["%.12g"] * (data.shape[1] - len(lead) - 1)
    bits = f.view(np.uint64)
    starts = np.ones(trace.n_records, dtype=bool)
    starts[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    bounds = [*np.flatnonzero(starts).tolist(), trace.n_records]
    body = "".join(
        _csv_body(data[a:b],
                  lead + ["%.12g" % v for v in f[a].tolist()] + trail)
        for a, b in zip(bounds, bounds[1:]))
    return ",".join(header).replace("%", "%%") + "\n" + body


def fill_trace_csv(template: str, r_d: np.ndarray, path) -> None:
    """Write a ``trace_csv_template`` with ``r_d`` in its ``r_D`` cells,
    formatted ``%.12g`` by one ``%``."""
    write_text(path, template % tuple(r_d.tolist()))


def write_trace_csv(trace: SimulationTrace, path,
                    include_states: bool = False,
                    include_measurements: bool = False) -> None:
    """Write the canonical trace CSV (12 significant digits, LF endings)."""
    fill_trace_csv(trace_csv_template(trace, include_states,
                                      include_measurements),
                   trace.r_d, path)


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Parse a trace CSV back into column arrays keyed by header name."""
    try:
        with open(path, newline="\n") as handle:
            lines = [ln for ln in handle if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ValidationError(f"malformed trace CSV {path}: {exc}") from exc
    if len(lines) < 2:
        raise ValidationError(f"malformed trace CSV: {path}")
    header = lines[0].rstrip("\n").split(",")
    if len(set(header)) < len(header):
        name = next(n for n in header if header.count(n) > 1)
        raise ValidationError(
            f"malformed trace CSV {path}: column {name!r} repeats")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"malformed trace CSV {path}: {exc}") from exc
    if data.shape[1] != len(header):
        raise ValidationError(f"malformed trace CSV: {path}")
    return {name: data[:, i] for i, name in enumerate(header)}
