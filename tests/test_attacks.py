import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agcdiag.attacks import (AttackSpace, compute_basis, synthesize_attack,
                             validate_attack_space)
from agcdiag.errors import NumericError, ValidationError

from oracles import in_polytope, stealth_residual

REFERENCE_BASIS = np.array([
    [0.1, 0.0, 0.1, 0.0, 0.0],
    [0.1, 0.15, 0.25, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.1, 0.1],
])


class TestStealthResidual:
    def test_zero_attack(self, chain):
        m = chain.model
        assert stealth_residual(np.zeros(5), m.c, m.d_f) == 0.0

    def test_reference_basis_vectors_are_stealthy(self, chain):
        m = chain.model
        for row in REFERENCE_BASIS:
            assert stealth_residual(row, m.c, m.d_f) <= 1e-8

    def test_inconsistent_injection_is_visible(self, chain):
        # component changed but the tie total left alone: violates the
        # redundancy row, footprint computed independently with numpy
        m = chain.model
        f = np.array([0.1, 0.0, 0.0, 0.0, 0.0])
        got = stealth_residual(f, m.c, m.d_f)
        proj = m.c @ np.linalg.solve(m.c.T @ m.c, m.c.T)
        expected = np.abs((np.eye(m.n_measurements) - proj) @ m.d_f @ f).max()
        assert got == pytest.approx(expected, abs=1e-12)
        assert got > 1e-3


class TestComputeBasis:
    def test_attacks_through_c_are_all_stealthy(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal((5, 3))
        basis = compute_basis(c, c)   # D_f = C: d = n_f
        assert basis.shape == (3, 3)

    def test_default_model_has_three_directions(self, chain):
        basis = compute_basis(chain.model.c, chain.model.d_f)
        assert basis.shape[0] == 3

    def test_orthogonal_direction_excluded(self):
        c = np.array([[1.0], [0.0]])
        d_f = np.array([[0.0], [1.0]])
        basis = compute_basis(c, d_f)
        assert basis.shape[0] == 0

    def test_computed_rows_pass_stealth_and_normalization(self, chain):
        m = chain.model
        basis = compute_basis(m.c, m.d_f)
        for row in basis:
            assert stealth_residual(row, m.c, m.d_f) <= 1e-8
            lead = row[np.nonzero(np.abs(row) > 1e-12)[0][0]]
            assert lead == pytest.approx(0.1)


class TestSynthesize:
    def space(self):
        return AttackSpace(basis=REFERENCE_BASIS, a=np.ones((1, 3)), b=[1.5])

    def test_zero_alpha(self):
        assert np.abs(synthesize_attack(self.space(), np.zeros(3))).max() == 0.0

    def test_reference_alpha_vector(self):
        f = synthesize_attack(self.space(), [2.8, 1.0, -2.3])
        assert np.allclose(f, [0.38, 0.15, 0.53, -0.23, -0.23], atol=1e-14)

    def test_unit_alpha_selects_basis_vector(self):
        f = synthesize_attack(self.space(), [1.0, 0.0, 0.0])
        assert np.allclose(f, REFERENCE_BASIS[0])

    @given(st.integers(0, 50))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        s = self.space()
        a1, a2 = rng.standard_normal((2, 3))
        lhs = synthesize_attack(s, a1 + a2)
        rhs = synthesize_attack(s, a1) + synthesize_attack(s, a2)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError,
                           match=r"^alpha has length 2, expected 3$"):
            synthesize_attack(self.space(), np.zeros(2))

    def test_overflow_raises_numeric_error(self):
        # finite alpha, non-finite F_b' alpha; no overflow warning either
        with pytest.raises(NumericError,
                           match=r"^attack vector F_b' alpha is not finite"):
            synthesize_attack(AttackSpace(basis=[[10.0, 0.0]], a=[[1.0]],
                                          b=[1.0]), [1e308])


class TestPolytope:
    def test_reference_alpha_on_boundary(self):
        s = AttackSpace(basis=REFERENCE_BASIS, a=np.ones((1, 3)), b=[1.5])
        assert in_polytope(s, [2.8, 1.0, -2.3], tol=1e-12)

    def test_origin_excluded(self):
        s = AttackSpace(basis=REFERENCE_BASIS, a=np.ones((1, 3)), b=[1.5])
        assert not in_polytope(s, np.zeros(3))

    def test_nonnegativity_polytope(self):
        s = AttackSpace(basis=REFERENCE_BASIS, a=np.eye(3), b=np.zeros(3))
        assert in_polytope(s, [0.5, 0.0, 1.0])


class TestSpanStealth:
    def test_random_combinations_stay_stealthy(self, chain):
        m = chain.model
        rng = np.random.default_rng(77)
        space = AttackSpace(basis=REFERENCE_BASIS, a=np.ones((1, 3)), b=[1.5])
        for _ in range(100):
            alpha = rng.uniform(-3, 3, size=3)
            f = synthesize_attack(space, alpha)
            assert stealth_residual(f, m.c, m.d_f) <= 1e-8

    def test_validation_accepts_reference_basis(self, chain):
        space = AttackSpace(basis=REFERENCE_BASIS, a=np.ones((1, 3)), b=[1.5])
        validate_attack_space(space, chain.model.c, chain.model.d_f)

    def test_validation_rejects_visible_row(self, chain):
        bad = REFERENCE_BASIS.copy()
        bad[0, 2] = 0.0   # break the total-consistency of the first row
        space = AttackSpace(basis=bad, a=np.ones((1, 3)), b=[1.5])
        with pytest.raises(ValidationError, match="stealth"):
            validate_attack_space(space, chain.model.c, chain.model.d_f)

    def test_validation_rejects_wrong_length(self, chain):
        space = AttackSpace(basis=REFERENCE_BASIS[:, :-1], a=np.ones((1, 3)),
                            b=[1.5])
        with pytest.raises(ValidationError,
                           match=r"^attack vector has length 4, expected 5$"):
            validate_attack_space(space, chain.model.c, chain.model.d_f)

    def test_polytope_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match=r"^polytope A \(2, 3\) "
                           r"incompatible with 3 basis vectors / 1 offsets$"):
            AttackSpace(basis=REFERENCE_BASIS, a=np.ones((2, 3)), b=[1.5])

    def test_validation_rejects_dependent_rows(self, chain):
        dep = np.vstack([REFERENCE_BASIS, 2 * REFERENCE_BASIS[0]])
        space = AttackSpace(basis=dep, a=np.ones((1, 4)), b=[1.5])
        with pytest.raises(ValidationError, match="dependent"):
            validate_attack_space(space, chain.model.c, chain.model.d_f)
