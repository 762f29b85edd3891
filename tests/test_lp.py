import numpy as np
import pytest

from agcdiag import lp
from agcdiag.design import solve_lp_i
from agcdiag.errors import NumericError, ValidationError

from reference_lp import solve_lp_reference


def solve(sense, c, **kw):
    return lp.solve_lp(lp.LpProblem(sense, np.asarray(c, dtype=float), **kw))


def break_phase_1(monkeypatch, status, artificial_sum=0.0):
    """Make the first simplex run, phase 1 of an LP with artificials, end
    with ``status`` and the artificials' sum ``artificial_sum``."""
    run = lp._Tableau.run
    calls = []

    def spy(self):
        result = run(self)
        calls.append(result)
        if len(calls) > 1:
            return result
        self.rhs[-1] = -artificial_sum
        return status

    monkeypatch.setattr(lp._Tableau, "run", spy)


class TestBasics:
    def test_box_maximum(self):
        # max x s.t. x <= 1, x >= 0
        sol = solve("max", [1.0], a_ge=[[-1.0]], b_ge=[-1.0], lower=[0.0])
        assert sol.status == lp.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_conflicting_bounds_infeasible(self):
        # x >= 2 and x <= 1, x free
        sol = solve("max", [1.0], a_ge=[[1.0], [-1.0]], b_ge=[2.0, -1.0],
                    lower=[-np.inf])
        assert sol.status == lp.INFEASIBLE

    def test_degenerate_duplicate_constraint(self):
        # max x1+x2 s.t. x1+x2 <= 3 stated twice, x >= 0
        sol = solve("max", [1.0, 1.0],
                    a_ge=[[-1.0, -1.0], [-1.0, -1.0]], b_ge=[-3.0, -3.0],
                    lower=[0.0, 0.0])
        assert sol.status == lp.OPTIMAL
        assert sol.value == pytest.approx(3.0, abs=1e-9)

    def test_unbounded_detected(self):
        sol = solve("max", [1.0], lower=[0.0])
        assert sol.status == lp.UNBOUNDED

    def test_free_variables(self):
        # min x + y s.t. x + y >= -3, both free
        sol = solve("min", [1.0, 1.0], a_ge=[[1.0, 1.0]], b_ge=[-3.0])
        assert sol.status == lp.OPTIMAL
        assert sol.value == pytest.approx(-3.0, abs=1e-9)

    def test_equality_with_redundant_row(self):
        sol = solve("min", [1.0, 2.0],
                    a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0],
                    lower=[0.0, 0.0])
        assert sol.status == lp.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-9)

    def test_free_variable_bounded_above(self):
        # max x with x <= 4 only, x free
        sol = solve("max", [1.0], a_ge=[[-1.0]], b_ge=[-4.0])
        assert sol.status == lp.OPTIMAL
        assert sol.value == pytest.approx(4.0, abs=1e-9)

    def test_dimension_mismatch_raises_before_solving(self):
        with pytest.raises(ValidationError, match=r"^inequality block: "
                           r"matrix \(1, 3\) incompatible with 2 variables"):
            lp.LpProblem("max", np.ones(2), a_ge=np.ones((1, 3)),
                         b_ge=np.ones(1))

    def test_bad_bounds_rejected(self):
        # a variable is free or nonnegative; any other bound is a row
        for lower in ([0.0, 2.0], [0.0, np.nan]):
            with pytest.raises(ValidationError,
                               match="^variable 1 is neither"):
                lp.LpProblem("max", np.ones(2), lower=lower)
        # the upper bound is +inf, not an argument
        for bounds in ({"lower": [0.0, -np.inf], "upper": [np.inf, 1.0]},
                       {"upper": [np.inf, -np.inf]}):
            with pytest.raises(TypeError, match="'upper'"):
                lp.LpProblem("max", np.ones(2), **bounds)

    def test_bad_sense_or_lower_length_rejected(self):
        with pytest.raises(ValidationError, match=r"^sense must be 'max' or "
                           r"'min', got 'maximize'$"):
            lp.LpProblem("maximize", [1.0])
        with pytest.raises(ValidationError,
                           match=r"^lower must match the variable count$"):
            lp.LpProblem("max", [1.0, 1.0], lower=[0.0])

    def test_left_out_block_is_empty(self):
        problem = lp.LpProblem("max", np.ones(3), a_ge=np.ones((2, 3)),
                               b_ge=np.ones(2))
        assert problem.a_eq.shape == (0, 3)
        assert problem.b_eq.shape == (0,)
        assert problem.a_ge.shape == (2, 3)
        assert np.array_equal(problem.upper, np.full(3, np.inf))
        with pytest.raises(AttributeError):
            problem.upper = np.zeros(3)

    def test_feasibility_of_optimal_point(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 4))
        x0 = rng.uniform(0.5, 1.5, size=4)
        b = a @ x0 - rng.uniform(0.1, 1.0, size=6)
        c = rng.uniform(0.1, 1.0, size=4)
        sol = solve("min", c, a_ge=a, b_ge=b, lower=np.zeros(4))
        assert sol.status == lp.OPTIMAL
        assert np.all(a @ sol.x >= b - 1e-8)
        assert np.all(sol.x >= -1e-8)


class TestDuality:
    def test_primal_equals_dual_on_random_instances(self):
        # min c'x s.t. Ax >= b, x >= 0  <->  max b'y s.t. A'y <= c, y >= 0
        rng = np.random.default_rng(42)
        for trial in range(25):
            m, n = rng.integers(2, 7, size=2)
            a = rng.standard_normal((m, n))
            x0 = rng.uniform(0.0, 2.0, size=n)
            b = a @ x0 - rng.uniform(0.0, 1.0, size=m)
            c = rng.uniform(0.1, 2.0, size=n)
            primal = solve("min", c, a_ge=a, b_ge=b, lower=np.zeros(n))
            dual = solve("max", b, a_ge=-a.T, b_ge=-c, lower=np.zeros(m))
            assert primal.status == lp.OPTIMAL
            assert dual.status == lp.OPTIMAL
            assert primal.value == pytest.approx(dual.value, abs=1e-6)

    def test_against_scipy_linprog(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(7)
        for trial in range(15):
            m, n = rng.integers(2, 6, size=2)
            a = rng.standard_normal((m, n))
            x0 = rng.uniform(0.0, 2.0, size=n)
            b = a @ x0 - rng.uniform(0.0, 1.0, size=m)
            c = rng.uniform(-1.0, 2.0, size=n)
            # x <= 10 as the rows -x >= -10
            ours = solve("min", c, a_ge=np.vstack([a, -np.eye(n)]),
                         b_ge=np.concatenate([b, np.full(n, -10.0)]),
                         lower=np.zeros(n))
            ref = linprog(c, A_ub=-a, b_ub=-b, bounds=[(0, 10)] * n,
                          method="highs")
            assert ours.status == lp.OPTIMAL
            assert ref.status == 0
            assert ours.value == pytest.approx(ref.fun, abs=1e-7)

    def test_iteration_count_reported(self):
        sol = solve("max", [1.0, 1.0],
                    a_ge=[[-1.0, 0.0], [0.0, -1.0]], b_ge=[-1.0, -1.0],
                    lower=[0.0, 0.0])
        assert sol.status == lp.OPTIMAL
        assert sol.iterations >= 1


class TestBlandRule:
    def test_ratio_tie_leaves_smallest_basis_index(self, monkeypatch):
        # max x1 + x2 s.t. x2 <= 1 (row 0), x1 + 0.5 x2 <= 0.5 (row 1).
        # x1 enters first and leaves row 1 holding column 0, while row 0
        # keeps its slack (column 2). x2 then ties on ratio 1 in both rows;
        # Bland's rule must pick row 1, whose basic index is smaller.
        pivots = []
        pivot = lp._Tableau.pivot

        def spy(self, row, slot, entering, col, lcol):
            pivots.append((int(row), int(entering)))
            return pivot(self, row, slot, entering, col, lcol)

        monkeypatch.setattr(lp._Tableau, "pivot", spy)
        sol = solve("max", [1.0, 1.0],
                    a_ge=[[0.0, -1.0], [-1.0, -0.5]], b_ge=[-1.0, -0.5],
                    lower=[0.0, 0.0])
        assert pivots[:2] == [(1, 0), (1, 1)]
        assert sol.status == lp.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        assert sol.x == pytest.approx([0.0, 1.0], abs=1e-12)


def random_lp(rng, bound_rows=False, free_share=0.5):
    """Small mixed LP. About ``free_share`` of the variables are free and
    the rest nonnegative; with ``bound_rows`` every variable is free, and
    each gets ``x_j >= x0_j - 1`` and ``x_j <= x0_j + 1`` as ``>=`` rows,
    each with probability 1/2."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 8))
    a = rng.standard_normal((m, n))
    x0 = rng.uniform(-1.0, 2.0, size=n)
    b = a @ x0 - rng.uniform(-0.5, 1.0, size=m)
    k = int(rng.integers(0, m + 1))
    if bound_rows:
        lower = np.full(n, -np.inf)
        eye = np.eye(n)
        below, above = rng.random(n) < 0.5, rng.random(n) < 0.5
        a = np.vstack([a, eye[below], -eye[above]])
        b = np.concatenate([b, (x0 - 1.0)[below], -(x0 + 1.0)[above]])
        m = b.size
    else:
        lower = np.where(rng.random(n) < 1.0 - free_share, 0.0, -np.inf)
    return lp.LpProblem(
        "min" if rng.random() < 0.5 else "max", rng.standard_normal(n),
        a_eq=a[:k] if k else None, b_eq=b[:k] if k else None,
        a_ge=a[k:] if k < m else None, b_ge=b[k:] if k < m else None,
        lower=lower)


class TestLoopReference:
    def test_bit_identical_with_zero_offsets(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            problem = random_lp(rng)
            ours, ref = lp.solve_lp(problem), solve_lp_reference(problem)
            assert (ours.status, ours.iterations, ours.value) == \
                (ref.status, ref.iterations, ref.value)
            if ref.x is not None:
                assert ours.x.tobytes() == ref.x.tobytes()

    def test_bit_identical_with_free_variables(self, monkeypatch):
        # A free pair is one stored column. A negative part enters through
        # its negated column, and a basic part that leaves folds the pair
        # back into one column; both must happen here, with the bits of the
        # full tableau, which stores both parts.
        seen = {"negative_entered": 0, "free_left": 0}
        pivot = lp._Tableau.pivot

        def spy(self, row, slot, entering, col, lcol):
            leaving = self.basis[row]
            seen["negative_entered"] += int(entering != self.ids[slot])
            seen["free_left"] += int(self.paired[leaving]
                                     or self.unit[leaving] < 0)
            return pivot(self, row, slot, entering, col, lcol)

        monkeypatch.setattr(lp._Tableau, "pivot", spy)
        rng = np.random.default_rng(13)
        for _ in range(150):
            problem = random_lp(rng, free_share=0.85)
            ours, ref = lp.solve_lp(problem), solve_lp_reference(problem)
            assert (ours.status, ours.iterations, ours.value) == \
                (ref.status, ref.iterations, ref.value)
            if ref.x is not None:
                assert ours.x.tobytes() == ref.x.tobytes()
        assert seen["negative_entered"] > 0
        assert seen["free_left"] > 0

    def test_bit_identical_with_bound_rows(self):
        # finite bounds other than x >= 0 are written as rows, which the
        # solver keeps as given: the bits of the full tableau
        rng = np.random.default_rng(12)
        statuses = set()
        for _ in range(150):
            problem = random_lp(rng, bound_rows=True)
            ours, ref = lp.solve_lp(problem), solve_lp_reference(problem)
            assert (ours.status, ours.iterations, ours.value) == \
                (ref.status, ref.iterations, ref.value)
            if ref.x is not None:
                assert ours.x.tobytes() == ref.x.tobytes()
            statuses.add(ours.status)
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


def ball_lp(rng, mirror=None):
    """max/min c'x over ``-eta_1 <= z x``, ``z x <= eta_2`` with x free or
    nonnegative: the design LP's mirrored ``<=`` rows, each pair with two
    different rhs. Some entries of z are zero, and ``mirror`` (default
    ``-z``) gives the second row block, so a caller can pick its zero signs.
    """
    n = int(rng.integers(2, 6))
    z = rng.standard_normal((int(rng.integers(n + 1, 2 * n + 3)), n))
    z[rng.random(z.shape) < 0.2] = 0.0
    z[~z.any(axis=1), 0] = 1.0          # every row bounds x
    eta = rng.uniform(0.5, 2.0, size=(2, z.shape[0]))
    return lp.LpProblem(
        "min" if rng.random() < 0.5 else "max", rng.standard_normal(n),
        a_ge=np.vstack([z, -z if mirror is None else mirror(z)]),
        b_ge=-eta.ravel(),
        lower=np.where(rng.random(n) < 0.5, 0.0, -np.inf))


class TestMirroredRows:
    """Two ``<=`` rows whose coefficients are exact negations, the i-th of
    the first half of the ``<=`` rows and the i-th of the second, share one
    stored row until either leaves its slack; the bits must stay those of
    the full tableau, which stores both."""

    @pytest.fixture
    def seen(self, monkeypatch):
        seen = {"pairs": [], "splits": 0}
        pairs = lp._mirrored_pairs
        pivot = lp._Tableau.pivot

        def pairs_spy(coeff, rows):
            first, second = pairs(coeff, rows)
            seen["pairs"].append(sorted(zip(first.tolist(), second.tolist())))
            return first, second

        def pivot_spy(self, row, slot, entering, col, lcol):
            seen["splits"] += int(self.shared[self.srow[row]])
            return pivot(self, row, slot, entering, col, lcol)

        monkeypatch.setattr(lp, "_mirrored_pairs", pairs_spy)
        monkeypatch.setattr(lp._Tableau, "pivot", pivot_spy)
        return seen

    @staticmethod
    def assert_reference_bits(problem):
        ours, ref = lp.solve_lp(problem), solve_lp_reference(problem)
        assert (ours.status, ours.iterations, ours.value) == \
            (ref.status, ref.iterations, ref.value)
        if ref.x is not None:
            assert ours.x.tobytes() == ref.x.tobytes()
        return ours

    @pytest.mark.parametrize("mirror, paired", [
        (None, True),                           # [z, 0.0] against [-z, -0.0]
        (lambda z: -z + 0.0, True),             # [z, 0.0] against [-z, 0.0]
        # every mirror one row off its place in the second half
        (lambda z: -np.roll(z, 1, axis=0), False),
    ], ids=["negated-zeros", "positive-zeros", "shuffled"])
    def test_ball_pairs_keep_the_bits(self, seen, mirror, paired):
        rng = np.random.default_rng(17)
        for _ in range(80):
            problem = ball_lp(rng, mirror)
            half = problem.a_ge.shape[0] // 2
            assert self.assert_reference_bits(problem).is_optimal
            assert seen["pairs"][-1] == (
                [(i, i + half) for i in range(half)] if paired else [])
        assert (seen["splits"] > 0) == paired

    def test_pairs_with_equality_rows(self, seen):
        # the design LP's shape: equality rows first, with artificials
        rng = np.random.default_rng(19)
        for _ in range(40):
            ball = ball_lp(rng)
            n = ball.n_vars
            a_eq = rng.standard_normal((1, n))
            problem = lp.LpProblem(ball.sense, ball.c, a_eq=a_eq,
                                   b_eq=[0.0], a_ge=ball.a_ge,
                                   b_ge=ball.b_ge, lower=ball.lower)
            self.assert_reference_bits(problem)
            half = ball.a_ge.shape[0] // 2
            assert seen["pairs"][-1] == [(1 + i, 1 + i + half)
                                         for i in range(half)]
        assert seen["splits"] > 0

    def test_design_lp_stores_each_ball_pair_once(self, seen, chain):
        _, _, _, sol = solve_lp_i(1, 1, chain.basis, chain.ffb,
                                  chain.space.a, chain.space.b)
        assert sol.is_optimal
        # rows: 3 equality rows, then the ball ``[z.T; -z.T]``
        half = chain.basis.z.shape[1]
        assert seen["pairs"] == [[(3 + i, 3 + half + i) for i in range(half)]]
        assert seen["splits"] > 0

    def test_only_negated_le_rows_pair(self, seen):
        # mirrored <= rows outside the halves layout share no stored row
        g = np.array([1.0, 2.0, -0.5])
        h = np.array([0.5, -1.0, 1.0])
        problem = lp.LpProblem(
            "max", [1.0, 1.0, 1.0],
            a_eq=[g, -g], b_eq=[0.0, 0.0],   # rows 0, 1: = rows, negated
            a_ge=[h,        # row 2: h >= 0.25, a >= row with a positive rhs
                  -h, h,    # rows 3, 4: h <= 4 and -h <= 6, side by side
                  -g, g,    # rows 5, 6: g <= 3 and -g <= 7, side by side
                  -g],      # row 7: g <= 3 again, the mirror of row 6
            b_ge=[0.25, -4.0, -6.0, -3.0, -7.0, -3.0],
            lower=[0.0, 0.0, 0.0])
        assert self.assert_reference_bits(problem).is_optimal
        # the <= rows 3..7 pair as (3, 6) and (4, 7), with row 5 in the
        # middle; neither pair is a negation
        assert seen["pairs"] == [[]]
        assert seen["splits"] == 0


class TestGuards:
    # min x + y s.t. x + y >= 1, x, y >= 0: the >= row needs an artificial
    @pytest.mark.parametrize("status, artificial_sum", [
        ("unbounded", 0.0), ("optimal", -1e-3)])
    def test_impossible_phase_1_raises(self, monkeypatch, status,
                                       artificial_sum):
        break_phase_1(monkeypatch, status, artificial_sum)
        with pytest.raises(NumericError, match=f"^phase 1 ended {status}"):
            solve("min", [1.0, 1.0], a_ge=[[1.0, 1.0]], b_ge=[1.0],
                  lower=[0.0, 0.0])

    def test_overflowing_objective_raises(self):
        # the objective value overflows to inf; a nan would hide every
        # improving column and let Bland's rule call the point optimal
        with pytest.raises(NumericError,
                           match=r"^the objective row is not finite after "
                                 r"1 pivots$"):
            solve("max", [1e308, 1e308], a_ge=[[-1.0, -1.0]], b_ge=[-2.0],
                  lower=[0.0, 0.0])

    @pytest.mark.parametrize("rhs, status", [(1e6, lp.OPTIMAL),
                                             (1.0, lp.INFEASIBLE)])
    def test_phase_1_threshold_scales_with_the_rhs(self, monkeypatch, rhs,
                                                   status):
        # an artificial sum of 1e-3 is rounding on a row with rhs 1e6, but
        # an empty feasible set on a row with rhs 1
        break_phase_1(monkeypatch, "optimal", 1e-3)
        assert solve("min", [1.0, 1.0], a_ge=[[1.0, 1.0]], b_ge=[rhs],
                     lower=[0.0, 0.0]).status == status

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(lp, "MAX_ITER", 1)
        with pytest.raises(NumericError, match=r"^simplex exceeded 1 pivots$"):
            solve("max", [1.0, 1.0],
                  a_ge=[[-1.0, -2.0], [-3.0, -1.0]], b_ge=[-4.0, -6.0],
                  lower=[0.0, 0.0])

    @pytest.mark.parametrize("spoil", ["tiny-pivot", "nan-rhs"])
    def test_tableau_blow_up_fails_fast(self, monkeypatch, spoil):
        # the first pivot divides rows of ~1e3 by an element just above
        # PIVOT_TOL (or meets a nan rhs); the guard stops the solve there
        # instead of letting the simplex run on
        pivots = []
        pivot = lp._Tableau.pivot

        def spy(self, row, slot, entering, col, lcol):
            pivots.append(row)
            if len(pivots) == 1 and spoil == "tiny-pivot":
                col = col.copy()
                col[self.srow[row]] = self.rsign[row] * 1.5 * lp.PIVOT_TOL
                lcol = col[self.srow] * self.rsign
            elif len(pivots) == 1:
                self.rhs[row] = np.nan
            return pivot(self, row, slot, entering, col, lcol)

        monkeypatch.setattr(lp._Tableau, "pivot", spy)
        a = 1e3 * np.random.default_rng(23).uniform(0.5, 1.5, size=(5, 5))
        with pytest.raises(NumericError, match=r"^pivot 1 grows the tableau"):
            solve("max", np.ones(5), a_ge=-a, b_ge=-np.ones(5),
                  lower=np.zeros(5))
        assert len(pivots) == 1

    def test_non_finite_data_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            lp.LpProblem("min", [np.nan])
        with pytest.raises(ValidationError, match="non-finite"):
            lp.LpProblem("min", [1.0], a_ge=[[np.inf]], b_ge=[0.0])
