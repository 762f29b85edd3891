"""Self-contained dense linear-programming solver over free and nonnegative
variables, the two kinds every LP of the package uses (any other bound is
written as a row). A row block left out of an ``LpProblem`` is an empty
``(0, n)`` block, and ``upper`` is a read-only +inf property.

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
* the same holds for rows: two ``<=`` rows whose coefficients are exact
  negations are one stored row while both slacks are basic, and the
  second row is read as its negation. The rhs is kept per row, since the
  two rows' rhs may differ. A pivot on either row gives that row a stored
  row of its own, and its mirror keeps the shared one. The solver pairs
  rows by their layout, its input convention: the i-th ``<=`` row of the
  first half with the i-th of the second half, as the design LPs write
  their ``||theta Z||_inf <= eta`` rows (``[Z'; -Z']``). Rows laid out
  otherwise solve to the same bits, each in a stored row of its own;
* a pivot row or rhs entry above ``GROWTH_LIMIT`` in magnitude, or nan,
  raises ``NumericError``: a tiny pivot has blown the tableau up;
* Bland's smallest-index rule picks both variables, which rules out
  cycling: the entering variable is the first one with a negative reduced
  cost (index q of a stored pair when its cost is below ``-PIVOT_TOL``,
  q + 1 when it is above ``PIVOT_TOL``), and the leaving row is, among the
  rows within ``PIVOT_TOL`` of the minimum ratio, the one whose basic
  variable has the smallest index;
* a hard pivot cap turns a hypothetical stall into ``NumericError``
  instead of an infinite loop;
* ``_Tableau.price`` prices the objective row: a cost of 1 on each
  artificial in phase 1, the problem's cost in phase 2;
* a phase-1 sum of artificials above ``FEAS_TOL * max(1, max |b|)`` means
  infeasible; one that ends unbounded or below minus that, both
  impossible in exact arithmetic, raises ``NumericError``;
* so does an objective row or value that is not finite at the end of
  either phase: its nans would hide every improving column;
* every optimal point is checked against the rows and bounds of the
  problem as given before it is returned (``_check_point``); the check
  only reads the point, so it changes no pivot and no bit of the result.

The solver follows the pivots of the full tableau, which stores every
column and every row (``tests/reference_lp.py`` keeps it as the test
reference), and returns its bits. Each stored entry is computed by the same
operations, ``x - f * p`` with ``p = row / piv``, as the full tableau's
entry. The columns and rows left out cannot change a decision: a basic
column is a unit vector with a zero reduced cost, and IEEE negation is
exact and commutes with ``x - f * p`` (round-to-nearest is symmetric, so
``(-x) - (-f) * p == -(x - f * p)``). So a negative part's column stays the
exact negation of its partner's, and the mirror row of a pair, whose basic
slack column is left out, stays the exact negation of its stored row. The
ratio test and the rhs update read each row's entry as ``sign * col[stored
row]``, the full tableau's entry. Pairs are kept by ``==``, which does
not see a zero's sign. So entries may differ from the full tableau's only
in the sign of a zero, which no comparison sees, and the ``0.0 +`` that
reads the solution off the tableau turns such a zero into +0.0.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

FEAS_TOL = 1e-8
CHECK_TOL = 1e-9
PIVOT_TOL = 1e-10
GROWTH_LIMIT = 1e12
MAX_ITER = 10 ** 6

# row kinds; a row negated to a nonnegative rhs swaps >= and <=
_EQ, _GE, _LE = 0, 1, 2
_SWAP = np.array([_EQ, _LE, _GE])


class LpProblem:
    """max/min c'x subject to A_eq x = b_eq, A_ge x >= b_ge, each variable
    free (``lower`` -inf, the default) or nonnegative (``lower`` 0). A block
    left out is an empty ``(0, n)`` block; ``upper`` is a +inf property."""

    __slots__ = ("sense", "c", "a_eq", "b_eq", "a_ge", "b_ge", "lower")

    def __init__(self, sense: str, c: np.ndarray,
                 a_eq: np.ndarray | None = None,
                 b_eq: np.ndarray | None = None,
                 a_ge: np.ndarray | None = None,
                 b_ge: np.ndarray | None = None,
                 lower: np.ndarray | None = None):
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if not np.all(np.isfinite(c)):
            raise ValidationError("cost vector contains non-finite entries")
        n = c.size
        if sense not in ("max", "min"):
            raise ValidationError(
                f"sense must be 'max' or 'min', got {sense!r}")

        def norm_rows(a, b, what):
            if a is None and b is None:
                return np.zeros((0, n)), np.zeros(0)
            a = np.atleast_2d(np.asarray(a, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            if a.shape != (b.size, n):
                raise ValidationError(
                    f"{what}: matrix {a.shape} incompatible with "
                    f"{n} variables / {b.size} rhs entries")
            if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
                raise ValidationError(f"{what}: non-finite constraint data")
            return a, b

        a_eq, b_eq = norm_rows(a_eq, b_eq, "equality block")
        a_ge, b_ge = norm_rows(a_ge, b_ge, "inequality block")
        lower = (np.full(n, -np.inf) if lower is None
                 else np.atleast_1d(np.asarray(lower, dtype=float)))
        if lower.size != n:
            raise ValidationError("lower must match the variable count")
        bad = ~((lower == 0.0) | (lower == -np.inf))
        if bad.any():
            raise ValidationError(f"variable {int(np.argmax(bad))} is neither "
                                  "free nor nonnegative (lower -inf or 0)")
        self.sense = sense
        self.c = c
        self.a_eq = a_eq
        self.b_eq = b_eq
        self.a_ge = a_ge
        self.b_ge = b_ge
        self.lower = lower

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def upper(self) -> np.ndarray:
        return np.full(self.n_vars, np.inf)


class LpSolution:
    __slots__ = ("status", "value", "x", "iterations")

    def __init__(self, status: str, value: float | None,
                 x: np.ndarray | None, iterations: int):
        self.status = status
        self.value = value
        self.x = x
        self.iterations = iterations

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


class _Tableau:
    """Condensed simplex tableau and its basis bookkeeping.

    The m constraint rows and the objective row are the logical rows
    0 .. m, the objective last. ``tab`` holds their stored rows over the k
    stored nonbasic columns: logical row i is ``rsign[i] * tab[srow[i]]``.
    Row 0 of ``tab`` is the objective row, rows ``1 .. used - 1`` are
    constraint rows, and the rest are free for the splits of mirrored
    pairs. ``shared[s]`` marks a stored row that stands for two logical
    rows, ``+tab[s]`` and ``-tab[s]``. ``rhs`` holds every logical row's
    right-hand side, so ``-rhs[m]`` is the objective's value.

    Variables keep the full tableau's numbering, which Bland's rule orders
    by: ``basis[i]`` is the variable basic in row i and ``ids[c]`` the one
    stored in column c. ``paired[v]`` marks the positive part of a free
    pair, whose column also stands for the negative part ``v + 1`` (its
    exact negation). ``unit[v]`` is the entry variable v's column holds in
    its own row while it is basic, as seen from the column that takes its
    slot when it leaves: 1, -1 for a negative part (stored as its positive
    partner), 0 for an artificial once phase 1 is over (its column is
    dropped, as if zeroed).
    """

    def __init__(self, tab, used, srow, rsign, shared, rhs, basis, ids,
                 paired, unit):
        self.tab = tab
        self.used = used
        self.srow = srow
        self.rsign = rsign
        self.shared = shared
        self.rhs = rhs
        self.basis = basis
        self.ids = ids
        self.paired = paired
        self.unit = unit
        self.iterations = 0

    def column(self, slot: int, sign: float):
        """Column ``slot`` times ``sign``: its stored entries, one per
        stored row in use, and its logical entries, one per logical row."""
        col = self.tab[:self.used, slot] * sign
        return col, col[self.srow] * self.rsign

    def pivot(self, row: int, slot: int, entering: int, col, lcol) -> None:
        """Gauss-Jordan pivot bringing ``entering`` into the basis at
        logical ``row``; ``col`` and ``lcol`` are its column (``column``).

        The leaving variable's column, ``unit`` times the unit vector of
        ``row``, takes the slot: ``0 - f * (unit / piv)`` below and above the
        pivot, ``unit / piv`` in the pivot row, the full tableau's bits. A
        pivot row that shares its stored row moves to a row of its own, and
        its mirror keeps the stored row. A pivot row or rhs entry beyond
        ``GROWTH_LIMIT`` raises ``NumericError`` before the tableau changes.
        """
        tab = self.tab
        leaving = self.basis[row]
        stored = self.srow[row]
        piv = lcol[row]
        # col[stored] is rsign * piv, and x / (rsign * piv) has the bits of
        # the logical row over piv, (rsign * x) / piv
        prow = tab[stored] / col[stored]
        prow[slot] = self.unit[leaving] / piv
        rhs = self.rhs
        value = rhs[row] / piv
        peak = np.abs(prow).max()
        if not (peak <= GROWTH_LIMIT and abs(value) <= GROWTH_LIMIT):
            raise NumericError(
                f"pivot {self.iterations + 1} grows the tableau to "
                f"{np.maximum(peak, abs(value)):.2g} (limit {GROWTH_LIMIT:.0e})")
        tab[:col.size, slot] = 0.0
        # the same products as np.outer, written about twice as fast
        tab[:col.size] -= np.einsum("i,j->ij", col, prow)
        if self.shared[stored]:
            self.shared[stored] = False
            stored = self.srow[row] = self.used
            self.used += 1
        tab[stored] = prow
        self.rsign[row] = 1.0
        rhs -= lcol * value
        rhs[row] = value
        self.basis[row] = entering
        self.ids[slot] = leaving - (self.unit[leaving] < 0)

    def price(self, cost: np.ndarray) -> None:
        """Row 0 := the reduced costs of ``cost`` (one per variable): the
        stored columns' costs less ``cost[basis[i]]`` times row i for each
        costed basic, i ascending. Such a row is stored as itself: an
        artificial's row is never paired, a costed basic came in by pivot."""
        obj, rhs = self.tab[0], self.rhs
        obj[:] = cost[self.ids]
        rhs[-1] = 0.0
        for i in np.flatnonzero(cost[self.basis] != 0.0):
            obj -= cost[self.basis[i]] * self.tab[self.srow[i]]
            rhs[-1] -= cost[self.basis[i]] * rhs[i]

    def run(self) -> str:
        """Bland-rule simplex on the objective row; 'optimal'/'unbounded'
        (or ``NumericError`` if the objective row ends not finite)."""
        basis = self.basis
        while True:
            if self.iterations >= MAX_ITER:
                raise NumericError(f"simplex exceeded {MAX_ITER} pivots")
            # entering: the smallest index with a negative reduced cost; the
            # negative part of a free pair (index + 1) has the negated cost
            reduced = self.tab[0]
            negated = self.paired[self.ids] & (reduced > PIVOT_TOL)
            improving = (reduced < -PIVOT_TOL) | negated
            if not improving.any():
                status = "optimal"
                break
            # (the variable count lies past every index)
            index = np.where(improving, self.ids + negated, self.paired.size)
            slot = int(index.argmin())
            col, lcol = self.column(slot, -1.0 if negated[slot] else 1.0)
            # leaving: among the rows within PIVOT_TOL of the minimum ratio,
            # the one whose basic variable has the smallest index
            rows = (lcol[:-1] > PIVOT_TOL).nonzero()[0]
            if rows.size == 0:
                status = "unbounded"
                break
            ratios = self.rhs[rows] / lcol[rows]
            ties = rows[ratios <= ratios.min() + PIVOT_TOL]
            self.pivot(ties[basis[ties].argmin()], slot, int(index[slot]),
                       col, lcol)
            self.iterations += 1
        if not (np.isfinite(self.tab[0]).all() and np.isfinite(self.rhs[-1])):
            raise NumericError(f"the objective row is not finite after "
                               f"{self.iterations} pivots")
        return status


def _mirrored_pairs(coeff: np.ndarray, rows: np.ndarray):
    """Pairs ``(i, j)`` of ``rows`` laid out as two halves: the i-th row of
    the first half with the i-th of the second (the middle row of an odd
    count stays unpaired), kept when ``coeff[j] == -coeff[i]``."""
    half = rows.size // 2
    first, second = rows[:half], rows[rows.size - half:]
    exact = (coeff[first] == -coeff[second]).all(axis=1)
    return first[exact], second[exact]


@np.errstate(over="ignore", invalid="ignore")   # see _Tableau.run
def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve an ``LpProblem``, returning status, optimum, and primal point."""
    n = problem.n_vars
    minimize_c = problem.c if problem.sense == "min" else -problem.c

    # --- variables x' >= 0 -------------------------------------------------
    # A free x_j is x'_pos - x'_neg; the negative part, pos_j + 1, has a
    # column that is never stored (the negated positive column).
    free = problem.lower == -np.inf
    width = np.where(free, 2, 1)
    pos = np.cumsum(width) - width
    ncols = int(width.sum())

    # Rows: equalities, then >= rows (either block may be empty).
    coeff = np.vstack([problem.a_eq, problem.a_ge])
    rhs = np.concatenate([problem.b_eq, problem.b_ge])
    kinds = np.repeat([_EQ, _GE], [problem.b_eq.size, problem.b_ge.size])

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
    cost[pos] = minimize_c
    cost[pos[free] + 1] = -minimize_c[free]
    paired = np.zeros(total, dtype=bool)
    paired[pos[free]] = True
    unit = np.ones(total)
    unit[pos[free] + 1] = -1.0

    # Mirrored <= rows of the two halves share one stored row, the second
    # as its negation, until either leaves its slack.
    first, second = _mirrored_pairs(coeff, np.flatnonzero(kinds == _LE))
    own = np.ones(m, dtype=bool)
    own[second] = False
    own_rows = np.flatnonzero(own)
    used = 1 + own_rows.size
    srow = np.zeros(m + 1, dtype=int)
    srow[own_rows] = np.arange(1, used)
    srow[second] = srow[first]
    rsign = np.ones(m + 1)
    rsign[second] = -1.0
    shared = np.zeros(m + 1, dtype=bool)
    shared[srow[first]] = True

    # Stored at the start: every structural column (one per free pair) and
    # the surplus columns of >= rows; slacks of <= rows and the artificials
    # are basic.
    is_ge = kinds[slack_rows] == _GE
    surplus = slack_rows[is_ge]
    ids = np.concatenate([pos, slack_ids[is_ge]])
    tab = np.zeros((m + 1, ids.size))
    tab[1:used, :n] = coeff[own_rows]
    tab[srow[surplus], n + np.arange(surplus.size)] = -1.0
    del coeff                             # freed before the pivots
    rhs = np.append(rhs, 0.0)             # the objective's rhs last
    simplex = _Tableau(tab, used, srow, rsign, shared, rhs, basis, ids,
                       paired, unit)

    # --- phase 1: minimize the sum of the artificials ---------------------
    if n_art:
        # the rhs as given sets the scale of the sum's rounding
        tol = FEAS_TOL * max(1.0, rhs.max())
        simplex.price(np.where(np.arange(total) < n_real, 0.0, 1.0))
        status = simplex.run()
        infeasibility = -rhs[m]   # the artificials' sum
        if status != "optimal" or infeasibility < -tol:
            raise NumericError(f"phase 1 ended {status} with artificial sum "
                               f"{infeasibility:.2g}")
        if infeasibility > tol:
            return LpSolution(INFEASIBLE, None, None, simplex.iterations)
        # Drive leftover artificials out of the basis; a row with no usable
        # pivot is redundant and can stay (its rhs is ~0). Such a row never
        # shares its stored row.
        for i in np.flatnonzero(basis >= n_real):
            usable = np.where((simplex.ids < n_real)
                              & (np.abs(simplex.tab[srow[i]]) > PIVOT_TOL),
                              simplex.ids, total)
            slot = int(usable.argmin())
            if usable[slot] < total:
                simplex.pivot(i, slot, int(usable[slot]),
                              *simplex.column(slot, 1.0))
        keep = simplex.ids < n_real
        simplex.tab = np.ascontiguousarray(simplex.tab[:, keep])
        simplex.ids = simplex.ids[keep]
        unit[n_real:] = 0.0

    # --- phase 2 -----------------------------------------------------------
    simplex.price(cost)
    status = simplex.run()
    if status == "unbounded":
        return LpSolution(UNBOUNDED, None, None, simplex.iterations)

    xprime = np.zeros(total)
    xprime[basis] = rhs[:m]
    x = 0.0 + xprime[pos]     # a -0.0 becomes +0.0 (module docstring)
    x[free] -= xprime[pos[free] + 1]
    _check_point(problem, x)
    return LpSolution(OPTIMAL, float(problem.c @ x), x, simplex.iterations)


def _check_point(problem: LpProblem, x: np.ndarray) -> None:
    """Raise ``NumericError`` when ``x`` misses a row or a lower bound of
    ``problem`` by more than ``CHECK_TOL * max(1, |rhs|)``, or by nan."""
    p = problem
    for kind, miss, rhs in (
            ("equality rows", np.abs(p.a_eq @ x - p.b_eq), p.b_eq),
            ("inequality rows", p.b_ge - p.a_ge @ x, p.b_ge),
            ("lower bounds", p.lower - x, p.lower)):
        if not np.all(miss <= CHECK_TOL * np.maximum(1.0, np.abs(rhs))):
            raise NumericError(f"LP point breaks its {kind} by {miss.max():.2g}")
