"""Per-sample loop reference for ``agcdiag.simulate``.

The straightforward closed-loop simulator, written one sample at a time:
each step computes the measurement, the static residual, one streaming
filter update and the next state, and checks the state against the
divergence guard. ``simulate`` keeps only the state recursion (and the
filter's scalar denominator) sequential and does the rest over the whole
series; on the same BLAS it must return the same bits. The trace writer
below formats one value at a time, and ``write_trace_csv`` must write the
same bytes.

The loop attacks the samples with ``t[k] > onset_s``, a float comparison.
``simulate`` uses the integer onset index instead; the two agree whenever
``onset_s / t_s`` is exact, which parity cases must respect.
"""

from __future__ import annotations

import numpy as np

from agcdiag.errors import DimensionError, DivergenceError
from agcdiag.linalg import weighted_range_projector
from agcdiag.residual import denominator_coefficients
from agcdiag.simulate import (DIVERGENCE_GUARD, SimulationTrace,
                              gen_disturbance, label_values)


class StreamingFilter:
    """Streaming realization of r_D[k] = a(q)^-1 N(q) L y[k], one sample
    per ``step``, with zero-filled delay lines at the start."""

    def __init__(self, numerator_rows, pole: float, d_n: int):
        self.numerator = np.atleast_2d(np.asarray(numerator_rows, dtype=float))
        self.d_n = int(d_n)
        self.denominator = denominator_coefficients(pole, d_n)
        self.reset()

    def reset(self) -> None:
        n_y = self.numerator.shape[1]
        self._y_hist = [np.zeros(n_y) for _ in range(self.d_n + 1)]
        self._r_hist = [0.0] * self.d_n

    def step(self, y) -> float:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.size != self.numerator.shape[1]:
            raise DimensionError(
                f"measurement vector has length {y.size}, expected "
                f"{self.numerator.shape[1]}")
        self._y_hist = self._y_hist[1:] + [y]
        a = self.denominator
        num = sum(self.numerator[i] @ self._y_hist[i]
                  for i in range(self.d_n + 1))
        fb = sum(a[j] * self._r_hist[j] for j in range(self.d_n))
        r = (num - fb) / a[self.d_n]
        self._r_hist = self._r_hist[1:] + [r]
        return float(r)


def simulate_reference(model, scenario,
                       dynamic_filter=None) -> SimulationTrace:
    """Run the closed loop one sample at a time; ``dynamic_filter`` is a
    ``RealizedFilter`` whose coefficients drive a ``StreamingFilter``."""
    n_x, n_y = model.n_states, model.n_measurements
    n_d, n_f = model.n_disturbances, model.n_attacks
    if scenario.attack_f is not None and scenario.attack_f.size != n_f:
        raise DimensionError("attack vector length does not match the model")

    steps = scenario.n_steps
    rng = np.random.default_rng(scenario.seed)
    d_series = gen_disturbance(scenario, rng, model.disturbance_labels)
    proc_var = label_values(scenario.process_noise, model.state_labels,
                            "process_noise")
    meas_var = label_values(scenario.measurement_noise,
                            model.measurement_labels, "measurement_noise")
    w_series = rng.standard_normal((steps + 1, n_x)) * np.sqrt(proc_var)
    v_series = rng.standard_normal((steps + 1, n_y)) * np.sqrt(meas_var)

    r_y = meas_var if np.all(meas_var > 0) else None
    static_weights = None if r_y is None else 1.0 / r_y
    proj = weighted_range_projector(model.c, static_weights)
    stream = None
    if dynamic_filter is not None:
        stream = StreamingFilter(dynamic_filter.numerator, dynamic_filter.pole,
                                 dynamic_filter.d_n)

    f_active = (scenario.attack_f if scenario.attack_f is not None
                else np.zeros(n_f))
    f_zero = np.zeros(n_f)

    t = np.arange(steps + 1) * scenario.t_s
    d_log = np.zeros((steps + 1, n_d))
    f_log = np.zeros((steps + 1, n_f))
    x_log = np.zeros((steps + 1, n_x))
    y_log = np.zeros((steps + 1, n_y))
    rs_log = np.zeros(steps + 1)
    rd_log = np.zeros(steps + 1)

    x = np.zeros(n_x)
    for k in range(steps + 1):
        f_k = f_active if t[k] > scenario.onset_s else f_zero
        y = model.c @ x + model.d_f @ f_k + v_series[k]
        rs = y - proj @ y
        d_log[k] = d_series[k]
        f_log[k] = f_k
        x_log[k] = x
        y_log[k] = y
        rs_log[k] = np.abs(rs).max(initial=0.0)
        if stream is not None:
            rd_log[k] = stream.step(y)
        x = (model.a_cl @ x + model.b_d @ d_series[k]
             + model.b_f @ f_k + w_series[k])
        mag = np.abs(x).max(initial=0.0)
        if not mag <= DIVERGENCE_GUARD:
            raise DivergenceError(k + 1, mag)

    metadata = {
        "state_labels": list(model.state_labels),
        "measurement_labels": list(model.measurement_labels),
    }
    return SimulationTrace(t, d_log, f_log, x_log, y_log, rs_log, rd_log,
                           metadata)


def write_trace_csv_reference(trace: SimulationTrace, path,
                              include_states: bool = False,
                              include_measurements: bool = False) -> None:
    """The trace CSV written one ``format(v, ".12g")`` call per value."""
    def fmt(value):
        return format(value, ".12g")

    n_d = trace.d.shape[1]
    n_f = trace.f.shape[1]
    header = ["k", "t"]
    header += [f"d_{i + 1}" for i in range(n_d)]
    header += [f"f_{i + 1}" for i in range(n_f)]
    header += ["rS_inf", "r_D"]
    if include_states:
        header += [f"X_{lab}" for lab in trace.metadata["state_labels"]]
    if include_measurements:
        header += [f"Y_{lab}" for lab in trace.metadata["measurement_labels"]]
    lines = [",".join(header)]
    for k in range(trace.n_records):
        row = [str(k), fmt(trace.t[k])]
        row += [fmt(v) for v in trace.d[k]]
        row += [fmt(v) for v in trace.f[k]]
        row += [fmt(trace.rs_inf[k]), fmt(trace.r_d[k])]
        if include_states:
            row += [fmt(v) for v in trace.x[k]]
        if include_measurements:
            row += [fmt(v) for v in trace.y[k]]
        lines.append(",".join(row))
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
