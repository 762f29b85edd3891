import numpy as np
import pytest

from agcdiag import lp
from agcdiag.errors import DimensionError, NumericError

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
        self.tab[-1, -1] = -artificial_sum
        return status

    monkeypatch.setattr(lp._Tableau, "run", spy)


class TestBasics:
    def test_box_maximum(self):
        sol = solve("max", [1.0], lower=[0.0], upper=[1.0])
        assert sol.status == lp.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_conflicting_bounds_infeasible(self):
        # x >= 2 via constraint, x <= 1 via bound
        sol = solve("max", [1.0], a_ge=[[1.0]], b_ge=[2.0],
                    lower=[-np.inf], upper=[1.0])
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

    def test_flipped_variable(self):
        # max x with x <= 4 only (lower = -inf)
        sol = solve("max", [1.0], upper=[4.0])
        assert sol.status == lp.OPTIMAL
        assert sol.value == pytest.approx(4.0, abs=1e-9)

    def test_dimension_mismatch_raises_before_solving(self):
        with pytest.raises(DimensionError):
            lp.LpProblem("max", np.ones(2), a_ge=np.ones((1, 3)),
                         b_ge=np.ones(1))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            lp.LpProblem("max", np.ones(1), lower=[2.0], upper=[1.0])

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
            ours = solve("min", c, a_ge=a, b_ge=b,
                         lower=np.zeros(n), upper=np.full(n, 10.0))
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

        def spy(self, row, slot, entering):
            pivots.append((int(row), int(entering)))
            return pivot(self, row, slot, entering)

        monkeypatch.setattr(lp._Tableau, "pivot", spy)
        sol = solve("max", [1.0, 1.0],
                    a_ge=[[0.0, -1.0], [-1.0, -0.5]], b_ge=[-1.0, -0.5],
                    lower=[0.0, 0.0])
        assert pivots[:2] == [(1, 0), (1, 1)]
        assert sol.status == lp.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        assert sol.x == pytest.approx([0.0, 1.0], abs=1e-12)


def random_lp(rng, zero_offsets, free_share=0.5):
    """Small mixed LP; with ``zero_offsets`` every finite bound is 0 and
    about ``free_share`` of the variables are free."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 8))
    a = rng.standard_normal((m, n))
    x0 = rng.uniform(-1.0, 2.0, size=n)
    b = a @ x0 - rng.uniform(-0.5, 1.0, size=m)
    k = int(rng.integers(0, m + 1))
    if zero_offsets:
        lower = np.where(rng.random(n) < 1.0 - free_share, 0.0, -np.inf)
        upper = np.full(n, np.inf)
    else:
        lower = np.where(rng.random(n) < 0.5, -np.inf, x0 - 1.0)
        upper = np.where(rng.random(n) < 0.5, np.inf, x0 + 1.0)
    return lp.LpProblem(
        "min" if rng.random() < 0.5 else "max", rng.standard_normal(n),
        a_eq=a[:k] if k else None, b_eq=b[:k] if k else None,
        a_ge=a[k:] if k < m else None, b_ge=b[k:] if k < m else None,
        lower=lower, upper=upper)


class TestLoopReference:
    def test_bit_identical_with_zero_offsets(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            problem = random_lp(rng, zero_offsets=True)
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

        def spy(self, row, slot, entering):
            leaving = self.basis[row]
            seen["negative_entered"] += int(entering != self.ids[slot])
            seen["free_left"] += int(self.paired[leaving]
                                     or self.unit[leaving] < 0)
            return pivot(self, row, slot, entering)

        monkeypatch.setattr(lp._Tableau, "pivot", spy)
        rng = np.random.default_rng(13)
        for _ in range(150):
            problem = random_lp(rng, zero_offsets=True, free_share=0.85)
            ours, ref = lp.solve_lp(problem), solve_lp_reference(problem)
            assert (ours.status, ours.iterations, ours.value) == \
                (ref.status, ref.iterations, ref.value)
            if ref.x is not None:
                assert ours.x.tobytes() == ref.x.tobytes()
        assert seen["negative_entered"] > 0
        assert seen["free_left"] > 0

    def test_same_pivots_with_shifted_bounds(self):
        # the bound shift of the rhs is one matvec here and one dot per
        # row in the reference, so x may differ in the last bits
        rng = np.random.default_rng(12)
        for _ in range(150):
            problem = random_lp(rng, zero_offsets=False)
            ours, ref = lp.solve_lp(problem), solve_lp_reference(problem)
            assert (ours.status, ours.iterations) == \
                (ref.status, ref.iterations)
            if ref.x is not None:
                assert ours.x == pytest.approx(ref.x, rel=1e-12, abs=1e-12)


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

    def test_iteration_cap_raises(self, monkeypatch):
        from agcdiag.errors import IterationLimitError
        monkeypatch.setattr(lp, "MAX_ITER", 1)
        with pytest.raises(IterationLimitError):
            solve("max", [1.0, 1.0],
                  a_ge=[[-1.0, -2.0], [-3.0, -1.0]], b_ge=[-4.0, -6.0],
                  lower=[0.0, 0.0])

    def test_non_finite_data_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            lp.LpProblem("min", [np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            lp.LpProblem("min", [1.0], a_ge=[[np.inf]], b_ge=[0.0])
