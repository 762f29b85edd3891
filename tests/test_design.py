import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agcdiag import lp
from agcdiag.dae import attack_gain, build_dae, stack_hbar
from agcdiag.design import (FeasibleSetBasis, design_robust,
                            design_steady_state, feasible_basis, solve_lp_i,
                            worst_case_alpha)
from agcdiag.errors import EmptyAttackSetError, NumericError, ValidationError

from oracles import (beta_for_index, brute_force_gamma, build_fbar,
                     check_reformulation_feasible, evaluate_payoff,
                     polytope_vertices)
from reference_lp import solve_lp_reference
from test_dae import toy_model
from test_lp import break_phase_1


def tiny_instance(seed):
    """Random instance with <= 3 free parameters and a bounded box polytope."""
    rng = np.random.default_rng(seed)
    d_n = int(rng.integers(0, 2))
    n_r = int(rng.integers(2, 4))
    big = (d_n + 1) * n_r
    n_z = int(rng.integers(1, min(3, big) + 1))
    q, _ = np.linalg.qr(rng.standard_normal((big, n_z)))
    z = q[:, :n_z].T
    eta = float(rng.uniform(0.5, 2.0))
    d = int(rng.integers(1, 4))
    ffb = rng.standard_normal((n_r, d))
    lo = rng.uniform(-2.0, 0.5, size=d)
    hi = lo + rng.uniform(0.5, 2.0, size=d)
    a_pol = np.vstack([np.eye(d), -np.eye(d)])
    b_pol = np.concatenate([lo, -hi])
    return FeasibleSetBasis(z=z, eta=eta, d_n=d_n), ffb, a_pol, b_pol


def separable_instance(eta=1.5):
    """J(theta, alpha) = |theta * alpha| over alpha in [1, 2], |theta| <= eta."""
    basis = FeasibleSetBasis(z=np.array([[1.0]]), eta=eta, d_n=0)
    ffb = np.array([[1.0]])
    a_pol = np.array([[1.0], [-1.0]])
    b_pol = np.array([1.0, -2.0])
    return basis, ffb, a_pol, b_pol


class TestFeasibleBasis:
    def test_full_row_rank_gives_empty_basis(self):
        hbar = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        basis = feasible_basis(hbar, 1.0, 0)
        assert basis.n_free == 0

    def test_zero_hbar_gives_full_basis(self):
        basis = feasible_basis(np.zeros((4, 6)), 1.0, 1)
        assert basis.n_free == 4
        assert np.allclose(basis.z @ basis.z.T, np.eye(4), atol=1e-12)

    def test_toy_system_rank_count(self):
        dae = build_dae(toy_model())
        hbar = stack_hbar(dae, 1)
        basis = feasible_basis(hbar, 1.0, 1)
        rank = np.linalg.matrix_rank(hbar)
        assert basis.n_free == hbar.shape[0] - rank
        assert basis.n_free == 0    # the 4x6 toy stack has full row rank

    def test_rows_annihilate_hbar(self, chain):
        prod = chain.basis.z @ chain.hbar
        assert np.abs(prod).max() <= 1e-8


class TestSolveLpI:
    def test_empty_basis_gives_zero_certificate(self):
        basis = FeasibleSetBasis(z=np.zeros((0, 2)), eta=1.0, d_n=0)
        gamma, nbar, lam, sol = solve_lp_i(
            0, 1, basis, np.ones((2, 3)), np.ones((1, 3)), np.array([1.5]))
        assert sol.is_optimal
        assert gamma == pytest.approx(0.0, abs=1e-12)
        assert np.abs(lam).max() == pytest.approx(0.0, abs=1e-12)

    def test_agc_default_positive_indices_exist(self, chain):
        values = [row.gamma for row in chain.design.table]
        assert max(values) > 0

    def test_eta_homogeneity(self):
        basis, ffb, a_pol, b_pol = tiny_instance(3)
        g1, _, _, _ = solve_lp_i(0, 1, basis, ffb, a_pol, b_pol)
        double = FeasibleSetBasis(z=basis.z, eta=2 * basis.eta, d_n=basis.d_n)
        g2, _, _, _ = solve_lp_i(0, 1, double, ffb, a_pol, b_pol)
        assert g2 == pytest.approx(2 * g1, rel=1e-8, abs=1e-10)


class TestDesignRobust:
    def test_agc_default_certificate(self, chain):
        design = chain.design
        assert design.gamma > 0
        assert np.abs(design.nbar @ chain.hbar).max() <= 1e-8
        assert np.abs(design.nbar).max() <= 10.0 + 1e-10
        assert len(design.table) == 8    # 2 (d_N + 1) indices at d_N = 3

    def test_polytope_containing_origin_kills_certificate(self, chain):
        design = design_robust(chain.basis, chain.ffb,
                               np.ones((1, 3)), np.array([-0.5]))
        assert design.gamma == 0.0
        assert design.diagnostic != ""

    def test_degree_zero_enumerates_two_lps(self):
        basis, ffb, a_pol, b_pol = separable_instance()
        design = design_robust(basis, ffb, a_pol, b_pol)
        assert len(design.table) == 2
        assert design.gamma == pytest.approx(1.5, abs=1e-8)

    def test_certificate_holds_on_samples(self, chain):
        design = chain.design
        rng = np.random.default_rng(123)
        for _ in range(200):
            alpha = rng.standard_normal(3)
            slack = abs(rng.standard_normal()) * (rng.random() > 0.5)
            alpha += (1.5 + slack - alpha.sum()) / 3.0
            payoff = evaluate_payoff(design.nbar, chain.ffb, alpha, 3)
            assert payoff >= design.gamma - 1e-8

    @given(st.integers(0, 30))
    def test_sign_symmetry_of_payoff(self, seed):
        rng = np.random.default_rng(seed)
        nbar = rng.standard_normal(8)
        ffb = rng.standard_normal((4, 2))
        alpha = rng.standard_normal(2)
        assert evaluate_payoff(nbar, ffb, alpha, 1) == \
            evaluate_payoff(-nbar, ffb, alpha, 1)


class TestPivotPath:
    # per-LP pivot counts of the default d_N = 3 relaxations, in
    # (block, sign) order; they pin Bland's pivot sequence
    SEED_PIVOTS = [36, 36, 226, 195, 47, 47, 57, 57]

    def test_default_pivot_counts(self, chain):
        counts = []
        for j in range(4):
            for s in (1, -1):
                _, _, _, sol = solve_lp_i(j, s, chain.basis, chain.ffb,
                                          chain.space.a, chain.space.b)
                counts.append(sol.iterations)
        assert counts == self.SEED_PIVOTS

    def test_table_carries_pivots_and_mirror_flags(self, chain):
        table = chain.design.table
        assert [(row.block, row.sign) for row in table] == \
            [(j, s) for j in range(4) for s in (1, -1)]
        assert [row.pivots for row in table] == \
            [p if s > 0 else 0
             for p, s in zip(self.SEED_PIVOTS, (1, -1) * 4)]
        assert [row.mirrored for row in table] == [False, True] * 4
        for solved, mirrored in zip(table[0::2], table[1::2]):
            assert mirrored.gamma == solved.gamma
            assert mirrored.status == solved.status
            assert mirrored.wall_time == 0.0

    def test_relaxations_match_loop_reference(self, chain, monkeypatch):
        problems = []
        solve = lp.solve_lp

        def record(problem):
            problems.append(problem)
            return solve(problem)

        monkeypatch.setattr(lp, "solve_lp", record)
        for j in range(4):
            for s in (1, -1):
                solve_lp_i(j, s, chain.basis, chain.ffb, chain.space.a,
                           chain.space.b)
        for problem in problems:
            ours, ref = solve(problem), solve_lp_reference(problem)
            assert (ours.status, ours.iterations, ours.value) == \
                (ref.status, ref.iterations, ref.value)
            assert ours.x.tobytes() == ref.x.tobytes()

    def test_d6_golden(self, chain):
        # the largest tableau the benchmark solves (619 rows): its pivot
        # path and the bits of the winning filter and multiplier
        basis = feasible_basis(stack_hbar(chain.dae, 6), 10.0, 6)
        design = design_robust(basis, chain.ffb, chain.space.a, chain.space.b)
        assert [row.pivots for row in design.table if not row.mirrored] == \
            [29, 146, 672, 125, 101, 235, 170]
        assert design.gamma == 3.0000000000000195
        assert design.index == (1, 1)
        assert hashlib.sha256(design.nbar.tobytes()).hexdigest().startswith(
            "27fca0ed7d8e4b4c")
        assert hashlib.sha256(
            design.multiplier.tobytes()).hexdigest().startswith(
                "4546a3db26a4491a")

    @pytest.mark.parametrize("d_n", [1, 3])
    def test_mirrored_rows_match_direct_solves(self, chain, d_n):
        basis = feasible_basis(stack_hbar(chain.dae, d_n), 10.0, d_n)
        design = design_robust(basis, chain.ffb, chain.space.a, chain.space.b)
        mirrored = [row for row in design.table if row.mirrored]
        assert [row.block for row in mirrored] == list(range(d_n + 1))
        for row in mirrored:
            gamma, _, _, sol = solve_lp_i(row.block, -1, basis, chain.ffb,
                                          chain.space.a, chain.space.b)
            assert sol.is_optimal
            assert gamma == pytest.approx(row.gamma, rel=1e-9, abs=1e-9)


def corrupt_final_point(monkeypatch, change, which=None):
    """Apply ``change`` in place to the basic values of the final tableau of
    every solved LP (only the ``which``-th, counting from 0, when given),
    after the last pivot and before ``solve_lp`` reads its point."""
    run = lp._Tableau.run
    solved = []

    def spy(self):
        status = run(self)
        # phase 2 is the run after the artificials' unit entries are zeroed
        if status == "optimal" and not self.unit.all():
            if which is None or which == len(solved):
                change(self.rhs[:-1])
            solved.append(status)
        return status

    monkeypatch.setattr(lp._Tableau, "run", spy)


class TestCertificateCheck:
    # the default d_N = 3 design solves LP (0, +1) first, then the winning
    # LP (1, +1); its eta ball holds ||theta Z||_inf = eta with tight rows
    def test_corrupted_solution_raises(self, chain, monkeypatch):
        def shift(values):
            values += 1e-3

        corrupt_final_point(monkeypatch, shift, which=1)
        with pytest.raises(NumericError,
                           match=r"^relaxation LP \(1, \+1\): .*equality rows"):
            design_robust(chain.basis, chain.ffb, chain.space.a,
                          chain.space.b)

    def test_bound_violation_raises(self, chain, monkeypatch):
        def scale(values):
            values *= 1.5

        corrupt_final_point(monkeypatch, scale, which=1)
        with pytest.raises(NumericError,
                           match=r"^relaxation LP \(1, \+1\): .*inequality rows"):
            design_robust(chain.basis, chain.ffb, chain.space.a,
                          chain.space.b)

    def test_corrupted_losing_row_raises(self, chain, monkeypatch):
        # a small shift that keeps LP (0, +1) below the winner's gamma
        def shift(values):
            values += 1e-6

        corrupt_final_point(monkeypatch, shift, which=0)
        with pytest.raises(NumericError, match=r"^relaxation LP \(0, \+1\)"):
            design_robust(chain.basis, chain.ffb, chain.space.a,
                          chain.space.b)

    def test_corrupted_worst_case_raises(self, chain, monkeypatch):
        # halving (alpha, t) takes 1'alpha below the polytope's 1.5
        def scale(values):
            values *= 0.5

        corrupt_final_point(monkeypatch, scale)
        with pytest.raises(NumericError,
                           match=r"^worst-case LP: .*inequality rows"):
            worst_case_alpha(chain.design.nbar, chain.ffb, 3, chain.space.a,
                             chain.space.b)

    def test_unbounded_phase_1_names_the_lp(self, chain, monkeypatch):
        # used to read as an empty attack set
        break_phase_1(monkeypatch, "unbounded")
        with pytest.raises(NumericError,
                           match=r"^worst-case LP: phase 1 ended unbounded"):
            worst_case_alpha(chain.design.nbar, chain.ffb, 3, chain.space.a,
                             chain.space.b)

    def test_corrupted_steady_state_raises(self, toy_ss_model, monkeypatch):
        # the toy loop's steady-state LP has mu > 0, so its point is nonzero
        from agcdiag.attacks import compute_basis
        dae = build_dae(toy_ss_model)
        fb = compute_basis(toy_ss_model.c, toy_ss_model.d_f)
        basis = feasible_basis(stack_hbar(dae, 1), 1.0, 1)

        def shift(values):
            values += 1e-3

        corrupt_final_point(monkeypatch, shift)
        with pytest.raises(NumericError, match=r"^steady-state LP: "):
            design_steady_state(basis, attack_gain(dae, fb), np.array([[1.0]]),
                                np.array([1.0]))


class TestCertificateOutcome:
    # a certificate LP ends optimal or raises: (theta, lam) = 0 is feasible,
    # and with theta bounded the LP is unbounded only on an empty polytope
    EMPTY = (np.array([[1.0, 0, 0], [-1.0, 0, 0]]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("solve", [design_robust, design_steady_state])
    def test_empty_polytope_raises(self, chain, solve):
        # used to read as a zero certificate (exit 3 in the CLI)
        with pytest.raises(EmptyAttackSetError, match=r"^empty attack set: "
                           r"\{A a >= b\} has no points$"):
            solve(chain.basis, chain.ffb, *self.EMPTY)

    @pytest.mark.parametrize("solve, name", [
        (design_robust, r"relaxation LP \(0, \+1\)"),
        (design_steady_state, "steady-state LP"),
    ])
    def test_infeasible_verdict_raises(self, chain, monkeypatch, solve, name):
        # used to be counted as a zero certificate with the zero filter
        monkeypatch.setattr(lp, "solve_lp", lambda problem: lp.LpSolution(
            lp.INFEASIBLE, None, None, 0))
        with pytest.raises(NumericError, match=rf"^{name} ended infeasible$"):
            solve(chain.basis, chain.ffb, chain.space.a, chain.space.b)


class TestWorstCase:
    def test_singleton_polytope(self, chain):
        alpha0 = np.array([0.4, -1.2, 2.0])
        a_pol = np.vstack([np.eye(3), -np.eye(3)])
        b_pol = np.concatenate([alpha0, -alpha0])
        alpha, payoff = worst_case_alpha(chain.design.nbar, chain.ffb, 3,
                                         a_pol, b_pol)
        assert np.allclose(alpha, alpha0, atol=1e-8)
        assert payoff == pytest.approx(
            evaluate_payoff(chain.design.nbar, chain.ffb, alpha0, 3), abs=1e-8)

    def test_agc_worst_case_is_a_minimizer(self, chain):
        design = chain.design
        alpha, payoff = worst_case_alpha(design.nbar, chain.ffb, 3,
                                         chain.space.a, chain.space.b)
        assert alpha.sum() >= 1.5 - 1e-8
        assert payoff == pytest.approx(
            evaluate_payoff(design.nbar, chain.ffb, alpha, 3), abs=1e-7)
        rng = np.random.default_rng(5)
        for _ in range(300):
            cand = rng.standard_normal(3)
            cand += (1.5 + abs(rng.standard_normal()) - cand.sum()) / 3.0
            assert evaluate_payoff(design.nbar, chain.ffb, cand, 3) \
                >= payoff - 1e-7

    def test_zero_filter_has_zero_payoff(self, chain):
        alpha, payoff = worst_case_alpha(np.zeros_like(chain.design.nbar),
                                         chain.ffb, 3, chain.space.a,
                                         chain.space.b)
        assert payoff == pytest.approx(0.0, abs=1e-10)

    def test_empty_polytope_raises(self, chain):
        with pytest.raises(EmptyAttackSetError):
            worst_case_alpha(chain.design.nbar, chain.ffb, 3,
                             np.array([[1.0, 0, 0], [-1.0, 0, 0]]),
                             np.array([2.0, -1.0]))


class TestEvaluatePayoff:
    def test_zero_cases(self):
        assert evaluate_payoff(np.zeros(4), np.ones((2, 2)), np.ones(2), 1) == 0
        assert evaluate_payoff(np.ones(4), np.ones((2, 2)), np.zeros(2), 1) == 0

    def test_hand_example(self):
        # N_0 FF_b = (1, -2), N_1 FF_b = (0, 3), alpha = (1, 1) -> max(1, 3)
        ffb = np.array([[1.0, -2.0], [0.0, 3.0]])
        nbar = np.array([1.0, 0.0, 0.0, 1.0])
        assert evaluate_payoff(nbar, ffb, np.ones(2), 1) == pytest.approx(3.0)


class TestSteadyState:
    def test_empty_basis_zero_mu(self):
        basis = FeasibleSetBasis(z=np.zeros((0, 4)), eta=1.0, d_n=1)
        design = design_steady_state(basis, np.ones((2, 2)),
                                     np.ones((1, 2)), np.array([1.0]))
        assert design.gamma == 0.0

    def test_agc_default_mu_is_structurally_zero(self, chain):
        # decoupling forces a zero steady-state gain on every stealthy-basis
        # attack for this model: the filter alert is transient-only
        assert np.abs(chain.basis.z @ chain.fbar).max() <= 1e-10
        design = design_steady_state(chain.basis, chain.ffb,
                                     chain.space.a, chain.space.b)
        assert design.gamma == 0.0
        assert "transient-only" in design.diagnostic

    def test_agc_default_lp_value_is_positive_zero(self, chain, monkeypatch):
        # the max LP ends at x = 0 with the value +0.0, not its negation
        values = []
        solve_lp = lp.solve_lp

        def spy(problem):
            sol = solve_lp(problem)
            values.append(sol.value)
            return sol

        monkeypatch.setattr(lp, "solve_lp", spy)
        design = design_steady_state(chain.basis, chain.ffb,
                                     chain.space.a, chain.space.b)
        assert values == [0.0]
        assert np.copysign(1.0, values[0]) == 1.0
        assert np.copysign(1.0, design.table[0].gamma) == 1.0

    def test_toy_has_positive_mu_with_certificate(self, toy_ss_model):
        from agcdiag.attacks import compute_basis
        dae = build_dae(toy_ss_model)
        fb = compute_basis(toy_ss_model.c, toy_ss_model.d_f)
        basis = feasible_basis(stack_hbar(dae, 1), 1.0, 1)
        fbar = build_fbar(dae, fb, 1)
        a_pol, b_pol = np.array([[1.0]]), np.array([1.0])
        design = design_steady_state(basis, attack_gain(dae, fb), a_pol, b_pol)
        assert design.gamma > 1e-3
        rng = np.random.default_rng(9)
        gain_row = design.nbar @ fbar
        for _ in range(100):
            alpha = 1.0 + abs(rng.standard_normal())
            assert abs(gain_row @ [alpha]) >= design.gamma - 1e-8

    def test_eta_homogeneity(self, toy_ss_model):
        from agcdiag.attacks import compute_basis
        dae = build_dae(toy_ss_model)
        fb = compute_basis(toy_ss_model.c, toy_ss_model.d_f)
        ffb = attack_gain(dae, fb)
        hbar = stack_hbar(dae, 1)
        one = design_steady_state(feasible_basis(hbar, 1.0, 1), ffb,
                                  np.array([[1.0]]), np.array([1.0]))
        two = design_steady_state(feasible_basis(hbar, 2.0, 1), ffb,
                                  np.array([[1.0]]), np.array([1.0]))
        assert two.gamma == pytest.approx(2 * one.gamma, rel=1e-8)


class TestReformulationCheck:
    def test_reconstruction_from_lp_solutions(self, chain):
        for j in range(4):
            for s in (1, -1):
                gamma, nbar, lam, sol = solve_lp_i(
                    j, s, chain.basis, chain.ffb, chain.space.a, chain.space.b)
                assert sol.is_optimal
                beta = beta_for_index(j, s, 3)
                assert check_reformulation_feasible(nbar, beta, lam, chain.ffb,
                                              chain.space.a)

    def test_uniform_beta_zero_point(self):
        beta = np.full(4, 0.25)
        assert check_reformulation_feasible(np.zeros(6), beta, np.zeros(1),
                                      np.ones((3, 2)), np.ones((1, 2)))

    def test_beta_not_on_simplex_rejected(self):
        beta = np.full(4, 0.5)
        assert not check_reformulation_feasible(np.zeros(6), beta, np.zeros(1),
                                          np.ones((3, 2)), np.ones((1, 2)))

    def test_negative_multiplier_rejected(self):
        beta = beta_for_index(0, 1, 1)
        assert not check_reformulation_feasible(np.zeros(4), beta, np.array([-1.0]),
                                          np.zeros((2, 1)), np.zeros((1, 1)))


class TestBruteForce:
    def test_zero_feasible_set(self):
        basis = FeasibleSetBasis(z=np.zeros((0, 2)), eta=1.0, d_n=0)
        gamma, tol = brute_force_gamma(basis, np.ones((2, 1)),
                                       np.array([[1.0], [-1.0]]),
                                       np.array([0.0, -1.0]))
        assert gamma == 0.0

    def test_separable_hand_solution(self):
        basis, ffb, a_pol, b_pol = separable_instance(eta=1.5)
        gamma, tol = brute_force_gamma(basis, ffb, a_pol, b_pol)
        assert gamma == pytest.approx(1.5, abs=tol + 1e-9)

    def test_unbounded_polytope_rejected(self):
        basis, ffb, _, _ = separable_instance()
        with pytest.raises(ValidationError, match="unbounded"):
            brute_force_gamma(basis, ffb, np.array([[1.0]]), np.array([1.0]))

    def test_vertices_of_box(self):
        a_pol = np.vstack([np.eye(2), -np.eye(2)])
        b_pol = np.array([0.0, 0.0, -1.0, -2.0])
        verts = polytope_vertices(a_pol, b_pol)
        assert verts.shape == (4, 2)
        expected = {(0, 0), (0, 2), (1, 0), (1, 2)}
        got = {tuple(np.round(v, 9)) for v in verts}
        assert got == expected

    def test_lp_relaxation_lower_bounds_oracle(self):
        # Corollary-style relation on random tiny instances:
        # max_i gamma'_i <= gamma_exact <= gamma_bf + tolerance
        for seed in range(10):
            basis, ffb, a_pol, b_pol = tiny_instance(seed)
            best = 0.0
            for j in range(basis.d_n + 1):
                for s in (1, -1):
                    g, _, _, sol = solve_lp_i(j, s, basis, ffb, a_pol, b_pol)
                    if sol.is_optimal:
                        best = max(best, g)
            gamma_bf, tol = brute_force_gamma(basis, ffb, a_pol, b_pol)
            assert best <= gamma_bf + tol + 1e-9


class TestCertificateChain:
    def test_intermediate_equalities_hold(self, chain):
        # J >= |s N_j ffb alpha| = |lam' A alpha| >= b'lam = gamma,
        # checked link by link rather than end to end
        design = chain.design
        j, s = design.index
        lam = np.atleast_1d(design.multiplier)
        gain_j = design.blocks()[j] @ chain.ffb
        # the LP equality: s N_j ffb = lam' A, componentwise
        assert np.abs(s * gain_j - lam @ chain.space.a).max() <= 1e-8
        rng = np.random.default_rng(2024)
        for _ in range(300):
            alpha = rng.standard_normal(3)
            alpha += (1.5 + abs(rng.standard_normal()) - alpha.sum()) / 3.0
            lhs = abs(s * gain_j @ alpha)
            mid = abs(lam @ chain.space.a @ alpha)
            payoff = evaluate_payoff(design.nbar, chain.ffb, alpha, 3)
            assert payoff >= lhs - 1e-9
            assert lhs == pytest.approx(mid, abs=1e-7)
            assert mid >= float(chain.space.b @ lam) - 1e-8

    def test_golden_default_design(self, chain):
        # regression anchors for the shipped parameter file: certificate
        # value and deterministic winning index
        assert chain.design.gamma == pytest.approx(3.0, abs=1e-9)
        assert chain.design.index == (1, 1)
        assert np.atleast_1d(chain.design.multiplier)[0] == \
            pytest.approx(2.0, abs=1e-9)
