"""Randomized cross-checks of the simplex against an independent solver.

Every certificate in the package rests on solve_lp, so this module hammers
it across problem archetypes (equalities + inequalities + mixed bound rows,
free variables, infeasible and unbounded families) and replays the actual
design LPs through scipy's HiGHS for value agreement.
"""

import numpy as np
import pytest

from agcdiag import lp
from agcdiag.agc import assemble_system
from agcdiag.attacks import compute_basis
from agcdiag.dae import attack_gain, build_dae, stack_hbar
from agcdiag.design import (design_robust, feasible_basis, solve_lp_i,
                            worst_case_alpha)
from agcdiag.discretize import zoh_discretize
from agcdiag.errors import NumericError

from helpers import ring_areas, ring_attacked

scipy_opt = pytest.importorskip("scipy.optimize")


def random_problem(rng):
    """Feasible-by-construction instance with every feature mixed in: the
    bounds of a variable (two-sided, lower only, upper only or none) are
    ``>=`` rows on a free variable."""
    n = int(rng.integers(2, 8))
    m_eq = int(rng.integers(0, 3))
    m_ge = int(rng.integers(1, 6))
    x0 = rng.uniform(-1.0, 2.0, size=n)

    bound_rows, bound_rhs = [], []
    for j in range(n):
        kind = rng.integers(0, 4)
        if kind in (0, 1):     # two-sided or lower only: x_j >= lo
            bound_rows.append(np.eye(n)[j])
            bound_rhs.append(x0[j] - rng.uniform(0.5, 2.0))
        if kind in (0, 2):     # two-sided or upper only: -x_j >= -up
            bound_rows.append(-np.eye(n)[j])
            bound_rhs.append(-(x0[j] + rng.uniform(0.5, 2.0)))
        # kind == 3: free

    a_eq = rng.standard_normal((m_eq, n)) if m_eq else None
    b_eq = a_eq @ x0 if m_eq else None
    a_ge = rng.standard_normal((m_ge, n))
    b_ge = a_ge @ x0 - rng.uniform(0.0, 1.5, size=m_ge)
    c = rng.standard_normal(n)
    problem = lp.LpProblem("min", c, a_eq=a_eq, b_eq=b_eq,
                           a_ge=np.vstack([a_ge] + bound_rows),
                           b_ge=np.concatenate([b_ge, bound_rhs]))
    return problem


def scipy_solve(problem):
    bounds = [(0.0 if lo == 0.0 else None, None) for lo in problem.lower]
    return scipy_opt.linprog(
        problem.c if problem.sense == "min" else -problem.c,
        A_ub=-problem.a_ge, b_ub=-problem.b_ge, A_eq=problem.a_eq,
        b_eq=problem.b_eq, bounds=bounds, method="highs")


class TestRandomizedAgreement:
    def test_mixed_feature_instances(self):
        rng = np.random.default_rng(2718)
        statuses = {"optimal": 0, "unbounded": 0}
        for _ in range(60):
            problem = random_problem(rng)
            ours = lp.solve_lp(problem)
            ref = scipy_solve(problem)
            if ref.status == 3:          # unbounded
                assert ours.status == lp.UNBOUNDED
                statuses["unbounded"] += 1
            else:
                assert ref.status == 0
                assert ours.status == lp.OPTIMAL
                assert ours.value == pytest.approx(ref.fun, abs=1e-7,
                                                   rel=1e-7)
                statuses["optimal"] += 1
        # the generator must actually exercise both outcomes
        assert statuses["optimal"] >= 30
        assert statuses["unbounded"] >= 3

    def test_infeasible_family(self):
        rng = np.random.default_rng(161)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            direction = rng.standard_normal(n)
            # d'x >= 1 and d'x <= -1 simultaneously
            a_ge = np.vstack([direction, -direction])
            b_ge = np.array([1.0, 1.0])
            problem = lp.LpProblem("min", rng.standard_normal(n),
                                   a_ge=a_ge, b_ge=b_ge)
            assert lp.solve_lp(problem).status == lp.INFEASIBLE

    def test_equality_only_square_systems(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            x0 = rng.standard_normal(n)
            problem = lp.LpProblem("min", rng.standard_normal(n),
                                   a_eq=a, b_eq=a @ x0)
            sol = lp.solve_lp(problem)
            assert sol.status == lp.OPTIMAL
            assert np.abs(sol.x - x0).max() <= 1e-7


def highs_gamma(basis, ffb, a_pol, b_pol, j, s):
    """LP_i through HiGHS: max b'lam over (theta, lam >= 0) with
    s N_j ffb = lam' A and |theta Z|_inf <= eta."""
    z = basis.z
    n_z, big = z.shape
    n_b = b_pol.size
    ball = np.vstack([np.hstack([z.T, np.zeros((big, n_b))]),
                      np.hstack([-z.T, np.zeros((big, n_b))])])
    a_eq = np.hstack([s * (basis.block(j) @ ffb).T, -a_pol.T])
    ref = scipy_opt.linprog(
        np.concatenate([np.zeros(n_z), -b_pol]),
        A_ub=ball, b_ub=basis.eta * np.ones(2 * big),
        A_eq=a_eq, b_eq=np.zeros(a_pol.shape[1]),
        bounds=[(None, None)] * n_z + [(0, None)] * n_b, method="highs")
    assert ref.status == 0
    return -ref.fun


def ring_instance(n_areas, d_n=3):
    """The d_n = 3 design inputs of a ring model (``helpers.ring_areas``):
    the automatic stealthy basis, polytope a_1 + a_2 >= 1.5, eta = 10."""
    model = assemble_system(ring_areas(n_areas), ring_attacked(n_areas))
    dae = build_dae(zoh_discretize(model, 0.5))
    basis = feasible_basis(stack_hbar(dae, d_n), 10.0, d_n)
    ffb = attack_gain(dae, compute_basis(model.c, model.d_f))
    return basis, ffb, np.array([[1.0, 1.0]]), np.array([1.5])


class TestDesignLpAgreement:
    def test_all_eight_relaxations_match_highs(self, chain):
        for j in range(4):
            for s in (1, -1):
                gamma, _, _, sol = solve_lp_i(j, s, chain.basis, chain.ffb,
                                              chain.space.a, chain.space.b)
                assert sol.is_optimal
                assert gamma == pytest.approx(
                    highs_gamma(chain.basis, chain.ffb, chain.space.a,
                                chain.space.b, j, s), abs=1e-7)

    @pytest.mark.parametrize("n_areas", [3, 4, 8])
    def test_ring_relaxations_match_highs(self, n_areas):
        instance = ring_instance(n_areas)
        for j in range(4):
            gamma, _, _, sol = solve_lp_i(j, 1, *instance)
            assert sol.is_optimal
            assert gamma == pytest.approx(highs_gamma(*instance, j, 1),
                                          abs=1e-9)

    def test_six_area_ring_fails_its_post_solve_check(self):
        # a tiny pivot of LP (2, +1) blows its tableau up (HiGHS gives
        # gamma = 3); the growth guard, or else the post-solve check, must
        # refuse it, not print it
        with pytest.raises(NumericError, match=r"^relaxation LP \(2, \+1\)"):
            design_robust(*ring_instance(6))

    def test_worst_case_value_matches_highs(self, chain):
        nbar = chain.design.nbar
        gains = nbar.reshape(4, chain.basis.n_rows) @ chain.ffb
        rows, rhs = [], []
        for g in gains:
            rows.append(np.concatenate([g, [-1.0]]))
            rhs.append(0.0)
            rows.append(np.concatenate([-g, [-1.0]]))
            rhs.append(0.0)
        rows.append(np.concatenate([-chain.space.a[0], [0.0]]))
        rhs.append(-1.5)
        ref = scipy_opt.linprog(
            np.array([0.0, 0, 0, 1.0]), A_ub=np.array(rows),
            b_ub=np.array(rhs), bounds=[(None, None)] * 3 + [(0, None)],
            method="highs")
        alpha, payoff = worst_case_alpha(nbar, chain.ffb, 3,
                                         chain.space.a, chain.space.b)
        assert ref.status == 0
        assert payoff == pytest.approx(ref.fun, abs=1e-7)
