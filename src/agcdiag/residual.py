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
from .errors import DimensionError, StabilityError


def denominator_coefficients(pole: float, d_n: int) -> np.ndarray:
    """Coefficients a_0..a_dN of (q - p)^d_N / (1 - p)^d_N in powers of q."""
    if not 0.0 < pole < 1.0:
        raise StabilityError(f"filter pole must lie in (0, 1), got {pole}")
    raw = np.array([comb(d_n, j) * (-pole) ** (d_n - j)
                    for j in range(d_n + 1)])
    # raw.sum() equals (1 - pole)**d_n by the binomial theorem; dividing by
    # the computed sum keeps a(1) = 1 at machine precision for any degree
    return raw / raw.sum()


class RealizedFilter:
    """Realization of r_D[k] = a(q)^-1 N(q) L y[k] over measurement series.

    ``apply`` filters a whole (n_samples, n_y) series: the numerator is
    d_N + 1 shifted products, and only the scalar denominator recursion
    runs sample by sample. The delay lines (the last d_N measurements and
    outputs) carry over from one call to the next until ``reset``; the
    first `warmup` outputs after a reset see zero-filled delay lines.
    """

    def __init__(self, numerator_rows: np.ndarray, pole: float, d_n: int):
        rows = np.atleast_2d(np.asarray(numerator_rows, dtype=float))
        if rows.shape[0] != d_n + 1:
            raise DimensionError(
                f"need {d_n + 1} numerator rows, got {rows.shape[0]}")
        self.numerator = rows
        self.pole = float(pole)
        self.d_n = int(d_n)
        self.denominator = denominator_coefficients(pole, d_n)
        self.warmup = d_n
        self.reset()

    def reset(self) -> None:
        self._y_hist = np.zeros((self.d_n, self.numerator.shape[1]))
        self._r_hist = [0.0] * self.d_n

    def apply(self, y_series) -> np.ndarray:
        """Filter the rows of ``y_series`` in order; returns r_D per row."""
        y = np.asarray(y_series, dtype=float)
        n_y = self.numerator.shape[1]
        if y.ndim != 2 or y.shape[1] != n_y:
            raise DimensionError(
                f"measurement series has shape {y.shape}, expected "
                f"(n_samples, {n_y})")
        n, d_n = y.shape[0], self.d_n
        # y[k - d_N + i] is ext[k + i]; the products are stacked one-row
        # dot products, row @ y[k] for each k, so the output does not depend
        # on how a series is split between calls
        ext = np.concatenate([self._y_hist, y])
        num = np.zeros(n)
        for i, row in enumerate(self.numerator):
            num = num + np.matmul(ext[i:i + n, None, :], row[:, None])[:, 0, 0]
        a = self.denominator.tolist()
        a_head, a_last = a[:d_n], a[d_n]
        r = self._r_hist + [0.0] * n
        for k, v in enumerate(num.tolist()):
            r[k + d_n] = (v - sum(map(mul, a_head, r[k:k + d_n]))) / a_last
        self._y_hist = ext[n:]
        self._r_hist = r[n:]
        return np.array(r[d_n:])

    def step(self, y) -> float:
        """Filter one measurement vector; ``apply`` on a one-row series."""
        return float(self.apply(np.reshape(y, (1, -1)))[0])


def realize_filter(design: FilterDesign, l: np.ndarray) -> RealizedFilter:
    """Wire a designed coefficient row to the constant measurement map L."""
    blocks = design.blocks()
    if blocks.shape[1] != l.shape[0]:
        raise DimensionError(
            f"coefficient blocks of length {blocks.shape[1]} do not match "
            f"L with {l.shape[0]} rows")
    return RealizedFilter(blocks @ l, design.pole, design.d_n)
