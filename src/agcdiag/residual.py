"""The realized dynamic diagnosis filter.

The dynamic filter r_D = a(q)^-1 N(q) L y is realized as a causal IIR
recursion with denominator a(q) = (q - p)^d_N / (1 - p)^d_N, whose only
root is the pole p and whose value at q = 1 is exactly 1, so a constant
input y passes with the DC gain N(1) L y. The filter runs over a whole
measurement series: the numerator N(q) L y is d_N + 1 shifted products,
and only the scalar denominator recursion steps through the samples.
"""

from __future__ import annotations

from math import comb
from operator import mul

import numpy as np

from .design import FilterDesign
from .errors import NumericError, ValidationError


def check_finite(name: str, series: np.ndarray) -> None:
    """Raise ``NumericError`` naming the first inf or nan of ``series``."""
    bad = np.flatnonzero(~np.isfinite(series))
    if bad.size:
        raise NumericError(f"{name} is {series[bad[0]]} at sample {bad[0]}")


def denominator_coefficients(pole: float, d_n: int) -> np.ndarray:
    """Coefficients a_0..a_dN of (q - p)^d_N / (1 - p)^d_N in powers of q.

    The expansion is rounded, so at a high degree and a pole near 1 its
    roots scatter about p: (0.98, 10) puts one at about 1.02. A
    denominator with a root of magnitude >= 1, or whose a(1) rounds to
    zero or below, would realize an unstable filter and raises
    ``NumericError``.
    """
    if not 0.0 < pole < 1.0:
        raise ValidationError(f"filter pole must lie in (0, 1), got {pole}")
    raw = np.array([comb(d_n, j) * (-pole) ** (d_n - j)
                    for j in range(d_n + 1)])
    if d_n > 0:
        radius = float(np.abs(np.roots(raw[::-1])).max())
        if radius >= 1.0:
            raise NumericError(
                f"filter pole {pole} at degree d_N = {d_n} realizes a "
                f"denominator root of magnitude {radius:.6g} >= 1")
    # raw.sum() equals (1 - pole)**d_n by the binomial theorem; dividing by
    # the computed sum keeps a(1) = 1 at machine precision for any degree
    total = float(raw.sum())
    if not total > 0.0:
        raise NumericError(f"filter pole {pole} at degree d_N = {d_n}: "
                           f"(1 - p)^d_N rounds to {total!r}")
    return raw / total


class RealizedFilter:
    """Realization of r_D[k] = a(q)^-1 N(q) L y[k] over measurement series.

    ``apply`` filters a whole (n_samples, n_y) series: the numerator is
    d_N + 1 shifted products, and only the scalar denominator recursion
    runs sample by sample. Every call starts from zero delay lines (no
    earlier measurement or output), so the first d_N outputs of a series
    are its warm-up and the filter keeps no state between calls. A
    non-finite output raises ``NumericError`` naming its first sample in
    the series.
    """

    def __init__(self, numerator_rows: np.ndarray, pole: float, d_n: int):
        rows = np.atleast_2d(np.asarray(numerator_rows, dtype=float))
        if rows.shape[0] != d_n + 1:
            raise ValidationError(
                f"need {d_n + 1} numerator rows, got {rows.shape[0]}")
        self.numerator = rows
        self.pole = float(pole)
        self.d_n = int(d_n)
        self.denominator = denominator_coefficients(pole, d_n)

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
        a = self.denominator.tolist()
        a_head, a_last = a[:d_n], a[d_n]
        r = [0.0] * (d_n + n)
        for k, v in enumerate(num.tolist()):
            r[k + d_n] = (v - sum(map(mul, a_head, r[k:k + d_n]))) / a_last
        out = np.array(r[d_n:])
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
    return RealizedFilter(blocks @ l, design.pole, design.d_n)
