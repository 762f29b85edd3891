"""Self-contained dense linear-programming solver.

Two-phase primal simplex on a dense tableau with Bland's rule. Every step
of a pivot is an array operation; only the pivot sequence itself is a
Python loop:

* every inequality is normalised to a nonnegative right-hand side, so rows
  that become ``<=`` get a slack that doubles as the starting basis and only
  the remaining rows need artificial variables in phase 1;
* the variable transform to ``x' >= 0`` is one column map, so all rows are
  expanded by a single matrix product;
* Bland's smallest-index rule picks both variables, which rules out
  cycling: the entering column is the first one with a negative reduced
  cost, and the leaving row is, among the rows within ``PIVOT_TOL`` of the
  minimum ratio, the one whose basic variable has the smallest index;
* the tableau is stored column-major and a pivot rewrites only the columns
  where the scaled pivot row is nonzero (about a quarter of them on the
  design LPs); the untouched columns would only have had zero subtracted,
  so the result matches a full rank-one update;
* a hard pivot cap converts a hypothetical stall into an error instead of
  an infinite loop.

Free variables are split into positive/negative parts internally; the
public model keeps explicit (possibly infinite) bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, IterationLimitError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

FEAS_TOL = 1e-8
PIVOT_TOL = 1e-10
MAX_ITER = 10 ** 6

# row kinds; a row flipped to a nonnegative rhs swaps >= and <=
_EQ, _GE, _LE = 0, 1, 2
_SWAP = np.array([_EQ, _LE, _GE])


@dataclass(frozen=True)
class LpProblem:
    """max/min c'x subject to A_eq x = b_eq, A_ge x >= b_ge, lo <= x <= up."""

    sense: str
    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ge: np.ndarray | None = None
    b_ge: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if not np.all(np.isfinite(c)):
            raise ValueError("cost vector contains non-finite entries")
        object.__setattr__(self, "c", c)
        n = c.size
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {self.sense!r}")

        def norm_rows(a, b, what):
            if a is None and b is None:
                return None, None
            a = np.atleast_2d(np.asarray(a, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            if a.shape != (b.size, n):
                raise DimensionError(
                    f"{what}: matrix {a.shape} incompatible with "
                    f"{n} variables / {b.size} rhs entries")
            if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
                raise ValueError(f"{what}: non-finite constraint data")
            return a, b

        a_eq, b_eq = norm_rows(self.a_eq, self.b_eq, "equality block")
        a_ge, b_ge = norm_rows(self.a_ge, self.b_ge, "inequality block")
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "a_ge", a_ge)
        object.__setattr__(self, "b_ge", b_ge)

        lower = (np.full(n, -np.inf) if self.lower is None
                 else np.atleast_1d(np.asarray(self.lower, dtype=float)))
        upper = (np.full(n, np.inf) if self.upper is None
                 else np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if lower.size != n or upper.size != n:
            raise DimensionError("bound vectors must match the variable count")
        if np.any(lower > upper):
            bad = int(np.argmax(lower > upper))
            raise ValueError(f"lower bound exceeds upper bound at variable {bad}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: float | None
    x: np.ndarray | None
    iterations: int

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def _pivot(tab: np.ndarray, row: int, col: int) -> np.ndarray:
    """Gauss-Jordan pivot on ``tab[row, col]``, in place; returns the new
    pivot row.

    Only the columns where the scaled pivot row is nonzero change: every
    other column would get ``tab[i, k] - factor_i * 0``. In a column-major
    tableau each of those columns is contiguous, so gathering them is cheap.
    """
    prow = tab[row] / tab[row, col]
    tab[row] = prow
    factors = tab[:, col].copy()
    factors[row] = 0.0
    cols = prow.nonzero()[0]
    block = tab[:, cols]
    # the same products as np.outer, written about twice as fast
    block -= np.einsum("i,j->ij", factors, prow[cols], order="F")
    tab[:, cols] = block
    return prow


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve an ``LpProblem``, returning status, optimum, and primal point."""
    n = problem.n_vars
    minimize_c = problem.c if problem.sense == "min" else -problem.c
    lower, upper = problem.lower, problem.upper

    # --- variable transform to x' >= 0 ------------------------------------
    # Each original variable becomes one or two nonnegative columns plus a
    # constant offset:  x_j = offset_j + flip_j * col_pos - col_neg, where
    # flip_j = -1 substitutes x = u - x' for variables bounded above only
    # and free variables get the second (negative-part) column.
    lo_fin, up_fin = np.isfinite(lower), np.isfinite(upper)
    free = ~(lo_fin | up_fin)
    width = np.where(free, 2, 1)
    pos = np.cumsum(width) - width
    ncols = int(width.sum())
    flip = np.where(~lo_fin & up_fin, -1.0, 1.0)
    offsets = np.where(lo_fin, lower, np.where(up_fin, upper, 0.0))
    colmap = np.zeros((n, ncols))     # row @ colmap expands a row over x'
    colmap[np.arange(n), pos] = flip
    colmap[np.flatnonzero(free), pos[free] + 1] = -1.0

    # Rows: equalities, >= rows, then x_j - lo_j <= up_j - lo_j for every
    # two-sided bound (already shifted, so its expanded column is +1).
    two_sided = np.flatnonzero(lo_fin & up_fin)
    a_rows, rhs, kinds = [], [], []
    for a, b, kind in ((problem.a_eq, problem.b_eq, _EQ),
                       (problem.a_ge, problem.b_ge, _GE)):
        if a is not None:
            a_rows.append(a)
            rhs.append(b - a @ offsets)
            kinds.append(np.full(b.size, kind))
    a_rows.append(np.eye(n)[two_sided])
    rhs.append((upper - lower)[two_sided])
    kinds.append(np.full(two_sided.size, _LE))
    coeff = np.vstack(a_rows) @ colmap
    rhs = np.concatenate(rhs)
    kinds = np.concatenate(kinds)
    cost = minimize_c @ colmap

    # Normalise to nonnegative rhs; >= rows with positive rhs need surplus +
    # artificial, everything that lands as <= gets a basis-ready slack.
    neg = rhs < 0
    coeff[neg] = -coeff[neg]
    rhs[neg] = -rhs[neg]
    kinds[neg] = _SWAP[kinds[neg]]

    m = rhs.size
    slack_rows = np.flatnonzero(kinds != _EQ)
    art_rows = np.flatnonzero(kinds != _LE)
    n_slack, n_art = slack_rows.size, art_rows.size
    total = ncols + n_slack + n_art
    slack_cols = ncols + np.arange(n_slack)
    art_cols = ncols + n_slack + np.arange(n_art)
    tab = np.zeros((m, total + 1), order="F")
    tab[:, :ncols] = coeff
    tab[:, -1] = rhs
    tab[slack_rows, slack_cols] = np.where(kinds[slack_rows] == _LE, 1.0, -1.0)
    tab[art_rows, art_cols] = 1.0
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols
    rhs_col = tab[:, -1]

    iterations = 0

    def run_simplex(obj_row):
        """Bland-rule simplex on (tab, basis); returns 'optimal'/'unbounded'."""
        nonlocal iterations
        reduced = obj_row[:total]
        while True:
            if iterations >= MAX_ITER:
                raise IterationLimitError(
                    f"simplex exceeded {MAX_ITER} pivots")
            # entering: the smallest index with a negative reduced cost
            improving = (reduced < -PIVOT_TOL).nonzero()[0]
            if improving.size == 0:
                return "optimal"
            entering = improving[0]
            col = tab[:, entering]
            # leaving: among the rows within PIVOT_TOL of the minimum ratio,
            # the one whose basic variable has the smallest index
            rows = (col > PIVOT_TOL).nonzero()[0]
            if rows.size == 0:
                return "unbounded"
            ratios = rhs_col[rows] / col[rows]
            ties = rows[ratios <= ratios.min() + PIVOT_TOL]
            leave = ties[basis[ties].argmin()]
            prow = _pivot(tab, leave, entering)
            obj_row -= obj_row[entering] * prow
            basis[leave] = entering
            iterations += 1

    # --- phase 1 -----------------------------------------------------------
    if n_art:
        obj = np.zeros(total + 1)
        obj[art_cols] = 1.0
        for i in art_rows:
            obj -= tab[i]
        status = run_simplex(obj)
        if status != "optimal" or -obj[-1] > FEAS_TOL:
            return LpSolution(INFEASIBLE, None, None, iterations)
        # Drive leftover artificials out of the basis; a row with no usable
        # pivot is redundant and can stay (its rhs is ~0).
        for i in np.flatnonzero(basis >= ncols + n_slack):
            usable = np.flatnonzero(
                np.abs(tab[i, :ncols + n_slack]) > PIVOT_TOL)
            if usable.size:
                _pivot(tab, i, usable[0])
                basis[i] = usable[0]
        tab[:, art_cols] = 0.0

    # --- phase 2 -----------------------------------------------------------
    # Basic columns are exact unit vectors, so pricing out one basic cost
    # leaves the others untouched and the rows can be picked up front.
    obj = np.zeros(total + 1)
    obj[:ncols] = cost
    for i in np.flatnonzero(obj[basis] != 0.0):
        obj -= obj[basis[i]] * tab[i]
    status = run_simplex(obj)
    if status == "unbounded":
        return LpSolution(UNBOUNDED, None, None, iterations)

    xprime = np.zeros(total)
    xprime[basis] = rhs_col
    x = offsets + flip * xprime[pos]
    x[free] -= xprime[pos[free] + 1]
    value = float(minimize_c @ x)
    if problem.sense == "max":
        value = -value
    return LpSolution(OPTIMAL, value, x, iterations)
