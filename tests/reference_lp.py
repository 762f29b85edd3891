"""Scalar-loop reference for ``agcdiag.lp.solve_lp``.

The straightforward two-phase Bland simplex on the full tableau, written
one row and one column at a time: rows are expanded one by one, the
entering and leaving variables are found by scalar scans, and every pivot
updates every column, basic ones and both parts of each free variable
included.

``solve_lp`` stores a condensed tableau instead: only the nonbasic columns,
one column per free pair (the negative part's column is its exact
negation), no artificial columns after phase 1, and one row per pair of
``<=`` rows that are exact negations, the i-th of the first half of the
``<=`` rows with the i-th of the second, while both their slacks are basic
(the second row is read as the negation of the first, with its own rhs).
Each entry it keeps is computed by the same operations as the entry here,
and the columns and rows it leaves out are unit vectors or exact
negations, which cannot change a pivot choice. So it must follow the same
pivots and return the same bits. Here every row is stored and updated on
its own, mirrored or not.
"""

from __future__ import annotations

import numpy as np

from agcdiag.errors import NumericError
from agcdiag.lp import (FEAS_TOL, INFEASIBLE, MAX_ITER, OPTIMAL, PIVOT_TOL,
                        UNBOUNDED, LpProblem, LpSolution)


def solve_lp_reference(problem: LpProblem) -> LpSolution:
    """Solve an ``LpProblem``, returning status, optimum, and primal point."""
    n = problem.n_vars
    minimize_c = problem.c if problem.sense == "min" else -problem.c

    # --- variables x' >= 0 ------------------------------------------------
    # A nonnegative variable is one column, a free one two:
    # x_j = col_pos - col_neg.
    col_of = []           # per variable: (pos_col, neg_col or None)
    ncols = 0
    for j in range(n):
        if np.isfinite(problem.lower[j]):
            col_of.append((ncols, None))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2

    def expand(row):
        out = np.zeros(ncols)
        for j in range(n):
            pos, neg = col_of[j]
            out[pos] += row[j]
            if neg is not None:
                out[neg] -= row[j]
        return out

    cost = expand(minimize_c)

    rows = []   # (coeffs over x', rhs, kind) with kind in {"eq", "ge", "le"}
    for a_row, b_val in zip(problem.a_eq, problem.b_eq):
        rows.append((expand(a_row), b_val, "eq"))
    for a_row, b_val in zip(problem.a_ge, problem.b_ge):
        rows.append((expand(a_row), b_val, "ge"))

    # Normalise to nonnegative rhs; >= rows with positive rhs need surplus +
    # artificial, everything that lands as <= gets a basis-ready slack.
    m = len(rows)
    coeff = np.zeros((m, ncols))
    rhs = np.zeros(m)
    kinds = []
    for i, (a_row, b_val, kind) in enumerate(rows):
        if b_val < 0:
            a_row, b_val = -a_row, -b_val
            kind = {"ge": "le", "le": "ge", "eq": "eq"}[kind]
        coeff[i] = a_row
        rhs[i] = b_val
        kinds.append(kind)

    n_slack = sum(k != "eq" for k in kinds)
    n_art = sum(k != "le" for k in kinds)
    total = ncols + n_slack + n_art
    tab = np.zeros((m, total + 1))
    tab[:, :ncols] = coeff
    tab[:, -1] = rhs
    basis = np.empty(m, dtype=int)
    s_at, a_at = ncols, ncols + n_slack
    art_cols = []
    for i, kind in enumerate(kinds):
        if kind == "le":
            tab[i, s_at] = 1.0
            basis[i] = s_at
            s_at += 1
        elif kind == "ge":
            tab[i, s_at] = -1.0
            s_at += 1
            tab[i, a_at] = 1.0
            basis[i] = a_at
            art_cols.append(a_at)
            a_at += 1
        else:
            tab[i, a_at] = 1.0
            basis[i] = a_at
            art_cols.append(a_at)
            a_at += 1

    iterations = 0

    def run_simplex(obj_row):
        """Bland-rule simplex on (tab, basis); returns 'optimal'/'unbounded'."""
        nonlocal iterations
        while True:
            if iterations >= MAX_ITER:
                raise NumericError(
                    f"simplex exceeded {MAX_ITER} pivots")
            entering = -1
            for j in range(total):
                if obj_row[j] < -PIVOT_TOL:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            col = tab[:, entering]
            ratio_best = np.inf
            leave = -1
            for i in range(m):
                if col[i] > PIVOT_TOL:
                    r = tab[i, -1] / col[i]
                    if (r < ratio_best - PIVOT_TOL
                            or (abs(r - ratio_best) <= PIVOT_TOL
                                and (leave < 0 or basis[i] < basis[leave]))):
                        ratio_best = r
                        leave = i
            if leave < 0:
                return "unbounded"
            piv = tab[leave, entering]
            tab[leave] /= piv
            factors = tab[:, entering].copy()
            factors[leave] = 0.0
            tab[:, :] -= np.outer(factors, tab[leave])
            obj_row -= obj_row[entering] * tab[leave]
            basis[leave] = entering
            iterations += 1

    # --- phase 1 -----------------------------------------------------------
    if art_cols:
        obj = np.zeros(total + 1)
        for col in art_cols:
            obj[col] = 1.0
        for i in range(m):
            if basis[i] in art_cols:
                obj -= tab[i]
        status = run_simplex(obj)
        # the sum's threshold scales with the rhs, as in solve_lp
        if (status != "optimal"
                or -obj[-1] > FEAS_TOL * max(1.0, np.abs(rhs).max(initial=0))):
            return LpSolution(INFEASIBLE, None, None, iterations)
        # Drive leftover artificials out of the basis; a row with no usable
        # pivot is redundant and can stay (its rhs is ~0).
        art_set = set(art_cols)
        for i in range(m):
            if basis[i] in art_set:
                for j in range(ncols + n_slack):
                    if abs(tab[i, j]) > PIVOT_TOL:
                        piv = tab[i, j]
                        tab[i] /= piv
                        factors = tab[:, j].copy()
                        factors[i] = 0.0
                        tab -= np.outer(factors, tab[i])
                        basis[i] = j
                        break
        for col in art_cols:
            tab[:, col] = 0.0

    # --- phase 2 -----------------------------------------------------------
    obj = np.zeros(total + 1)
    obj[:ncols] = cost
    for i in range(m):
        if obj[basis[i]] != 0.0:
            obj -= obj[basis[i]] * tab[i]
    status = run_simplex(obj)
    if status == "unbounded":
        return LpSolution(UNBOUNDED, None, None, iterations)

    xprime = np.zeros(total)
    for i in range(m):
        xprime[basis[i]] = tab[i, -1]
    x = np.zeros(n)
    for j in range(n):
        pos, neg = col_of[j]
        x[j] += xprime[pos]
        if neg is not None:
            x[j] -= xprime[neg]
    return LpSolution(OPTIMAL, float(problem.c @ x), x, iterations)
