"""The realized dynamic diagnosis filter.

The dynamic filter r_D = a(q)^-1 N(q) L y has the denominator
a(q) = ((q - p) / (1 - p))^d_N, one d_N-fold pole p with a(1) = 1, so a
constant input y passes with the DC gain N(1) L y. It runs over a whole
measurement series: the numerator N(q) L y is d_N + 1 shifted products,
so its d_N + 1 rows fix the degree, and a(q)^-1 is d_N first-order
sections s[k] = p s[k-1] + (1 - p) u[k], each stable for any p in (0, 1)
with DC gain 1. The sections keep the pole where a rounded expansion of
(q - p)^d_N would scatter it.
"""

from __future__ import annotations

import numpy as np

from .design import FilterDesign
from .errors import NumericError, ValidationError


def check_finite(name: str, series: np.ndarray) -> None:
    """Raise ``NumericError`` naming the first inf or nan of ``series``."""
    bad = np.flatnonzero(~np.isfinite(series))
    if bad.size:
        raise NumericError(f"{name} is {series[bad[0]]} at sample {bad[0]}")


class RealizedFilter:
    """Realization of r_D[k] = a(q)^-1 N(q) L y[k] over measurement series.

    ``apply`` filters a whole (n_samples, n_y) series: the numerator is
    d_N + 1 shifted products, and the d_N first-order sections of the
    denominator run sample by sample, the numerator feeding the first and
    each section the next. Every call starts from zero delay lines (no
    earlier measurement or section output), so the first d_N outputs of a
    series are its warm-up and the filter keeps no state between calls. A
    non-finite output raises ``NumericError`` naming its first sample in
    the series. ``numerator_rows`` holds N_0 L .. N_dN L: d_N + 1 rows.
    """

    def __init__(self, numerator_rows: np.ndarray, pole: float):
        rows = np.atleast_2d(np.asarray(numerator_rows, dtype=float))
        if rows.shape[0] == 0:
            raise ValidationError("filter numerator has no rows")
        if not 0.0 < pole < 1.0:
            raise ValidationError(f"filter pole must lie in (0, 1), got {pole}")
        self.numerator = rows
        self.pole = float(pole)
        self.d_n = rows.shape[0] - 1

    @np.errstate(over="ignore", invalid="ignore")   # see check_finite
    def apply(self, y_series) -> np.ndarray:
        """Filter the rows of ``y_series`` in order; returns r_D per row."""
        y = np.asarray(y_series, dtype=float)
        n_y = self.numerator.shape[1]
        if y.ndim != 2 or y.shape[1] != n_y:
            raise ValidationError(
                f"measurement series has shape {y.shape}, expected "
                f"(n_samples, {n_y})")
        n, d_n = y.shape[0], self.d_n
        # y[k - d_N + i] is ext[k + i], zero before the series; the
        # products are stacked one-row dot products, row @ y[k] for each k
        ext = np.concatenate([np.zeros((d_n, n_y)), y])
        num = np.zeros(n)
        for i, row in enumerate(self.numerator):
            num = num + np.matmul(ext[i:i + n, None, :], row[:, None])[:, 0, 0]
        r = num.tolist()
        p, gain = self.pole, 1.0 - self.pole
        for _ in range(d_n):
            s = 0.0
            for k, u in enumerate(r):   # s[k] = p s[k-1] + (1 - p) u[k]
                s = r[k] = p * s + gain * u
        out = np.array(r)
        check_finite("r_D", out)
        return out

    def step(self, y) -> float:
        """Filter one measurement vector; ``apply`` on a one-row series."""
        return float(self.apply(np.reshape(y, (1, -1)))[0])


def realize_filter(design: FilterDesign, l: np.ndarray) -> RealizedFilter:
    """Wire a designed coefficient row to the constant measurement map L."""
    blocks = design.blocks()
    if blocks.shape[1] != l.shape[0]:
        raise ValidationError(
            f"coefficient blocks of length {blocks.shape[1]} do not match "
            f"L with {l.shape[0]} rows")
    return RealizedFilter(blocks @ l, design.pole)
