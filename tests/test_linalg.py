import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agcdiag.errors import ValidationError
from agcdiag.linalg import expm, left_null_basis, weighted_range_projector


class TestExpm:
    def test_zero_matrix_gives_identity(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-14)

    def test_diagonal_exponential(self):
        out = expm(np.diag([1.0, -2.0]))
        expected = np.diag([math.e, math.exp(-2.0)])
        assert np.allclose(out, expected, rtol=1e-13)

    def test_nilpotent_series_truncates(self):
        out = expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)

    def test_inverse_property(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.uniform(-5, 5, size=(6, 6))
            prod = expm(m) @ expm(-m)
            assert np.abs(prod - np.eye(6)).max() <= 1e-8

    def test_accuracy_against_scipy_up_to_norm_50(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = rng.standard_normal((8, 8))
            m *= 50.0 / np.linalg.norm(m, 2)
            ours = expm(m)
            ref = scipy_linalg.expm(m)
            denom = max(1.0, np.abs(ref).max())
            assert np.abs(ours - ref).max() / denom <= 1e-10

    def test_rejects_non_matrix(self):
        with pytest.raises(ValidationError,
                           match=r"^expm input must be 2-D, got shape \(3,\)$"):
            expm(np.ones(3))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError,
                           match=r"^expm needs a square matrix, got 2x3$"):
            expm(np.zeros((2, 3)))


class TestLeftNullBasis:
    def test_full_rank_returns_empty(self):
        out = left_null_basis(np.eye(3), 1e-10)
        assert out.shape == (0, 3)

    def test_zero_matrix_spans_everything(self):
        out = left_null_basis(np.zeros((3, 3)), 1e-10)
        assert out.shape == (3, 3)
        assert np.allclose(out @ out.T, np.eye(3), atol=1e-10)

    def test_rank_one_matrix(self):
        out = left_null_basis(np.array([[1.0, 2.0], [2.0, 4.0]]), 1e-10)
        assert out.shape == (1, 2)
        expected = np.array([2.0, -1.0]) / np.sqrt(5.0)
        assert np.allclose(out[0], expected, atol=1e-10) or \
            np.allclose(out[0], -expected, atol=1e-10)

    def test_rows_annihilate_and_are_orthonormal(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rows, cols, rank = 7, 5, 3
            m = (rng.standard_normal((rows, rank))
                 @ rng.standard_normal((rank, cols)))
            out = left_null_basis(m, 1e-9)
            assert out.shape[0] == rows - rank
            tol = 1e-9 * max(1.0, np.abs(m).max())
            assert np.abs(out @ m).max() <= tol
            gram = out @ out.T
            assert np.abs(gram - np.eye(out.shape[0])).max() <= 1e-10

    def test_zero_tol_keeps_rounding_level_directions(self):
        # the fourth singular value is 2.7e-16, rounding of an exact zero;
        # at tol 0 it used to count as rank and drop a null direction
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 4))
        assert left_null_basis(m, 0.0).shape == (3, 6)
        assert np.abs(left_null_basis(m, 0.0) @ m).max() <= 1e-12

    def test_negative_tol_rejected(self):
        with pytest.raises(ValidationError, match=r"^tol must be nonnegative$"):
            left_null_basis(np.eye(2), -1.0)


class TestWeightedRangeProjector:
    def test_full_space(self):
        assert np.allclose(weighted_range_projector(np.eye(4)), np.eye(4))

    def test_ones_column(self):
        p = weighted_range_projector(np.array([[1.0], [1.0]]))
        assert np.allclose(p, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_axis_aligned_range_ignores_weights(self):
        p = weighted_range_projector(np.array([[1.0], [0.0]]),
                                     np.array([4.0, 1.0]))
        assert np.allclose(p, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10))
    def test_idempotent_and_fixes_range(self, cols, seed):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((cols + 3, cols))
        w = rng.uniform(0.1, 5.0, size=cols + 3)
        p = weighted_range_projector(c, w)
        assert np.abs(p @ p - p).max() <= 1e-10
        assert np.abs(p @ c - c).max() <= 1e-10

    def test_rank_deficient_names_deficiency(self):
        c = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(ValidationError, match="1 column"):
            weighted_range_projector(c)

    def test_rejects_wrong_weight_length(self):
        with pytest.raises(ValidationError, match=r"^weight diagonal has "
                           r"length \(2,\), expected 3$"):
            weighted_range_projector(np.eye(3), np.ones(2))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValidationError, match=r"^weight diagonal must be "
                           r"finite and strictly positive$"):
            weighted_range_projector(np.eye(2), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            weighted_range_projector(np.eye(3)[:, :2],
                                     np.array([bad, 1.0, 1.0]))

    def test_repeat_returns_same_read_only_bits(self):
        """A pure function: read-only inputs are accepted and left as they
        were, and a repeat on copies gives the same bits in a new array."""
        c = np.array([[1.0, 0.5], [0.0, 2.0], [3.0, -1.0], [0.25, 0.0]])
        w = np.array([1.0, 4.0, 0.5, 2.0])
        c_bits, w_bits = c.tobytes(), w.tobytes()
        c.flags.writeable = False
        w.flags.writeable = False
        first = weighted_range_projector(c, w)
        again = weighted_range_projector(c.copy(), w.copy())
        assert again is not first
        assert again.tobytes() == first.tobytes()
        assert c.tobytes() == c_bits and w.tobytes() == w_bits
