"""Self-contained dense linear-programming solver.

Two-phase primal simplex with Bland's rule on a condensed (dictionary)
tableau (Chvatal, *Linear Programming*, ch. 2-3). Every step of a pivot is
an array operation; only the pivot sequence itself is a Python loop:

* every inequality is normalised to a nonnegative right-hand side, so rows
  that become ``<=`` get a slack that doubles as the starting basis and only
  the remaining rows need artificial variables in phase 1;
* the tableau is C-ordered and holds the constraint rows and the objective
  row over the nonbasic columns and the rhs; basic columns are unit vectors
  and are not stored. A pivot writes the leaving variable's column into the
  entering column's slot, ``0 - f * (1.0 / piv)`` off the pivot row and
  ``1.0 / piv`` in it. Artificial columns are dropped after phase 1;
* a free variable is split into a positive and a negative part, but the
  pair is one stored column: the negative part's column and reduced cost
  are the exact negation of the positive part's, so the negative part
  enters with the negated column, and the partner of a basic part is not
  stored at all;
* Bland's smallest-index rule picks both variables, which rules out
  cycling: the entering variable is the first one with a negative reduced
  cost (index q of a stored pair when its cost is below ``-PIVOT_TOL``,
  q + 1 when it is above ``PIVOT_TOL``), and the leaving row is, among the
  rows within ``PIVOT_TOL`` of the minimum ratio, the one whose basic
  variable has the smallest index;
* a hard pivot cap converts a hypothetical stall into an error instead of
  an infinite loop;
* every optimal point is checked against the rows and bounds of the
  problem as given before it is returned (``_check_point``); the check
  only reads the point, so it changes no pivot and no bit of the result.

The solver follows the pivots of the full tableau, which stores every
column (``tests/reference_lp.py`` keeps it as the test reference), and
returns its bits. Each stored entry is computed by the same operations,
``x - f * p`` with ``p = row / piv``, as the full tableau's entry. The
columns left out cannot change a decision: a basic column is a unit vector
with a zero reduced cost, and IEEE negation is exact and commutes with
``x - f * p``, so a negative part's column stays the exact negation of its
partner's. Entries may differ from the full tableau's only in the sign of a
zero, which no comparison sees, and the bound offsets added to the solution
turn such a zero into +0.0.

The public model keeps explicit (possibly infinite) bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, IterationLimitError, NumericError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

FEAS_TOL = 1e-8
CHECK_TOL = 1e-9
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


class _Tableau:
    """Condensed simplex tableau and its basis bookkeeping.

    ``tab`` is C-ordered, ``(m + 1, k + 1)``: the m constraint rows and the
    objective row over the k stored nonbasic columns and the rhs. Variables
    keep the full tableau's numbering, which Bland's rule orders by:
    ``basis[i]`` is the variable basic in row i and ``ids[s]`` the one
    stored in column s. ``paired[v]`` marks the positive part of a free
    pair, whose column also stands for the negative part ``v + 1`` (its
    exact negation). ``unit[v]`` is the entry variable v's column holds in
    its own row while it is basic, as seen from the column that takes its
    slot when it leaves: 1, -1 for a negative part (stored as its positive
    partner), 0 for an artificial once phase 1 is over (its column is
    dropped, as if zeroed).
    """

    def __init__(self, tab, basis, ids, paired, unit):
        self.tab = tab
        self.basis = basis
        self.ids = ids
        self.paired = paired
        self.unit = unit
        self.iterations = 0

    def pivot(self, row: int, slot: int, entering: int) -> None:
        """Gauss-Jordan pivot bringing ``entering`` (stored in column
        ``slot``, negated for a negative part) into the basis at ``row``.

        The leaving variable's column, ``unit`` times the unit vector of
        ``row``, takes the slot: ``0 - f * (unit / piv)`` below and above the
        pivot, ``unit / piv`` in the pivot row, the full tableau's bits.
        """
        tab = self.tab
        leaving = self.basis[row]
        col = tab[:, slot] * (1.0 if entering == self.ids[slot] else -1.0)
        piv = col[row]
        prow = tab[row] / piv
        prow[slot] = self.unit[leaving] / piv
        col[row] = 0.0
        tab[:, slot] = 0.0
        # the same products as np.outer, written about twice as fast
        tab -= np.einsum("i,j->ij", col, prow)
        tab[row] = prow
        self.basis[row] = entering
        self.ids[slot] = leaving - (self.unit[leaving] < 0)

    def run(self) -> str:
        """Bland-rule simplex on the objective row; 'optimal'/'unbounded'."""
        tab, basis = self.tab, self.basis
        while True:
            if self.iterations >= MAX_ITER:
                raise IterationLimitError(
                    f"simplex exceeded {MAX_ITER} pivots")
            # entering: the smallest index with a negative reduced cost; the
            # negative part of a free pair (index + 1) has the negated cost
            reduced = tab[-1, :-1]
            negated = self.paired[self.ids] & (reduced > PIVOT_TOL)
            improving = (reduced < -PIVOT_TOL) | negated
            if not improving.any():
                return "optimal"
            # (the variable count lies past every index)
            index = np.where(improving, self.ids + negated, self.paired.size)
            slot = int(index.argmin())
            col = tab[:-1, slot] * (-1.0 if negated[slot] else 1.0)
            # leaving: among the rows within PIVOT_TOL of the minimum ratio,
            # the one whose basic variable has the smallest index
            rows = (col > PIVOT_TOL).nonzero()[0]
            if rows.size == 0:
                return "unbounded"
            ratios = tab[rows, -1] / col[rows]
            ties = rows[ratios <= ratios.min() + PIVOT_TOL]
            self.pivot(ties[basis[ties].argmin()], slot, int(index[slot]))
            self.iterations += 1


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve an ``LpProblem``, returning status, optimum, and primal point."""
    n = problem.n_vars
    minimize_c = problem.c if problem.sense == "min" else -problem.c
    lower, upper = problem.lower, problem.upper

    # --- variable transform to x' >= 0 ------------------------------------
    # Each original variable becomes one or two nonnegative variables plus a
    # constant offset:  x_j = offset_j + flip_j * x'_pos - x'_neg, where
    # flip_j = -1 substitutes x = u - x' for variables bounded above only
    # and free variables get the negative part pos_j + 1, whose column is
    # never stored (it is the negated positive column).
    lo_fin, up_fin = np.isfinite(lower), np.isfinite(upper)
    free = ~(lo_fin | up_fin)
    width = np.where(free, 2, 1)
    pos = np.cumsum(width) - width
    ncols = int(width.sum())
    flip = np.where(~lo_fin & up_fin, -1.0, 1.0)
    offsets = np.where(lo_fin, lower, np.where(up_fin, upper, 0.0))

    # Rows: equalities, >= rows, then x_j - lo_j <= up_j - lo_j for every
    # two-sided bound (already shifted, so its column is +1).
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
    coeff = np.vstack(a_rows) * flip
    rhs = np.concatenate(rhs)
    kinds = np.concatenate(kinds)

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
    n_real = ncols + n_slack             # variables that are not artificial
    total = n_real + n_art
    slack_ids = ncols + np.arange(n_slack)
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = slack_ids
    basis[art_rows] = n_real + np.arange(n_art)
    cost = np.zeros(total)
    cost[pos] = minimize_c * flip
    cost[pos[free] + 1] = -minimize_c[free]
    paired = np.zeros(total, dtype=bool)
    paired[pos[free]] = True
    unit = np.ones(total)
    unit[pos[free] + 1] = -1.0

    # Stored at the start: every structural column (one per free pair) and
    # the surplus columns of >= rows; slacks of <= rows and the artificials
    # are basic.
    is_ge = kinds[slack_rows] == _GE
    surplus = slack_rows[is_ge]
    ids = np.concatenate([pos, slack_ids[is_ge]])
    tab = np.zeros((m + 1, ids.size + 1))
    tab[:m, :n] = coeff
    tab[surplus, n + np.arange(surplus.size)] = -1.0
    tab[:m, -1] = rhs
    simplex = _Tableau(tab, basis, ids, paired, unit)

    # --- phase 1 -----------------------------------------------------------
    if n_art:
        for i in art_rows:
            tab[m] -= tab[i]
        status = simplex.run()
        if status != "optimal" or -simplex.tab[m, -1] > FEAS_TOL:
            return LpSolution(INFEASIBLE, None, None, simplex.iterations)
        # Drive leftover artificials out of the basis; a row with no usable
        # pivot is redundant and can stay (its rhs is ~0).
        for i in np.flatnonzero(basis >= n_real):
            usable = np.where((simplex.ids < n_real)
                              & (np.abs(simplex.tab[i, :-1]) > PIVOT_TOL),
                              simplex.ids, total)
            slot = int(usable.argmin())
            if usable[slot] < total:
                simplex.pivot(i, slot, int(usable[slot]))
        keep = simplex.ids < n_real
        simplex.tab = np.ascontiguousarray(
            simplex.tab[:, np.append(keep, True)])
        simplex.ids = simplex.ids[keep]
        unit[n_real:] = 0.0

    # --- phase 2 -----------------------------------------------------------
    # Basic columns are exact unit vectors, so pricing out one basic cost
    # leaves the others untouched and the rows can be picked up front.
    tab = simplex.tab
    obj = tab[m]
    obj[:-1] = cost[simplex.ids]
    obj[-1] = 0.0
    for i in np.flatnonzero(cost[basis] != 0.0):
        obj -= cost[basis[i]] * tab[i]
    status = simplex.run()
    if status == "unbounded":
        return LpSolution(UNBOUNDED, None, None, simplex.iterations)

    xprime = np.zeros(total)
    xprime[basis] = simplex.tab[:m, -1]
    x = offsets + flip * xprime[pos]
    x[free] -= xprime[pos[free] + 1]
    _check_point(problem, x)
    value = float(minimize_c @ x)
    if problem.sense == "max":
        value = -value
    return LpSolution(OPTIMAL, value, x, simplex.iterations)


def _check_point(problem: LpProblem, x: np.ndarray) -> None:
    """Raise ``NumericError`` when ``x`` misses a row or bound of
    ``problem`` by more than ``CHECK_TOL * max(1, |rhs|)``, or by nan."""
    checks = []
    if problem.a_eq is not None:
        checks.append(("equality rows", np.abs(problem.a_eq @ x - problem.b_eq),
                       problem.b_eq))
    if problem.a_ge is not None:
        checks.append(("inequality rows", problem.b_ge - problem.a_ge @ x,
                       problem.b_ge))
    checks += [("lower bounds", problem.lower - x, problem.lower),
               ("upper bounds", x - problem.upper, problem.upper)]
    for kind, miss, rhs in checks:
        if not np.all(miss <= CHECK_TOL * np.maximum(1.0, np.abs(rhs))):
            raise NumericError(f"LP point breaks its {kind} by {miss.max():.2g}")
