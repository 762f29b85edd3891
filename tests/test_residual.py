import numpy as np
import pytest

from agcdiag.design import FilterDesign
from agcdiag.errors import DimensionError, StabilityError
from agcdiag.residual import (RealizedFilter, denominator_coefficients,
                              realize_filter)

from helpers import impulse_response_by_division
from oracles import static_residual, steady_state_gain
from reference_sim import StreamingFilter
from test_attacks import REFERENCE_BASIS


class TestStaticResidual:
    def test_range_vectors_are_invisible(self, chain):
        rng = np.random.default_rng(3)
        c = chain.model.c
        for _ in range(10):
            y = c @ rng.standard_normal(c.shape[1])
            assert np.abs(static_residual(y, c)).max() <= 1e-10

    def test_stealthy_attack_leaves_residual_unchanged(self, chain):
        rng = np.random.default_rng(4)
        m = chain.model
        x = rng.standard_normal(m.n_states)
        alpha = rng.standard_normal(3)
        f = REFERENCE_BASIS.T @ alpha
        clean = static_residual(m.c @ x, m.c)
        attacked = static_residual(m.c @ x + m.d_f @ f, m.c)
        assert np.abs(attacked - clean).max() <= 1e-10

    def test_basic_attack_is_visible(self, chain):
        m = chain.model
        f = np.array([0.38, 0.0, 0.53, -0.23, -0.23])   # inconsistent totals
        r = static_residual(m.d_f @ f, m.c)
        assert np.abs(r).max() > 1e-2

    def test_weighted_form_matches_direct_formula(self, chain):
        rng = np.random.default_rng(5)
        c = chain.model.c
        r_y = rng.uniform(0.5, 2.0, size=c.shape[0])
        y = rng.standard_normal(c.shape[0])
        w_inv = np.diag(1.0 / r_y)
        proj = c @ np.linalg.solve(c.T @ w_inv @ c, c.T @ w_inv)
        expected = y - proj @ y
        got = static_residual(y, c, r_y)
        assert np.abs(got - expected).max() <= 1e-10


class TestDenominator:
    def test_normalized_at_one(self):
        for d_n in (0, 1, 3, 5):
            a = denominator_coefficients(0.8, d_n)
            # cancellation among alternating coefficients bounds what "1"
            # can mean in floats: a few ulps of the largest coefficient
            tol = 1e-13 * max(1.0, np.abs(a).max())
            assert a.sum() == pytest.approx(1.0, abs=tol)

    def test_first_order_coefficients(self):
        a = denominator_coefficients(0.8, 1)
        assert np.allclose(a, [-4.0, 5.0])    # (q - 0.8)/0.2

    def test_pole_outside_unit_interval_rejected(self):
        with pytest.raises(StabilityError):
            denominator_coefficients(1.2, 2)
        with pytest.raises(StabilityError):
            denominator_coefficients(0.0, 2)


class TestRealizedFilter:
    def test_degree_zero_is_memoryless(self):
        filt = RealizedFilter(np.array([[2.0, -1.0]]), pole=0.5, d_n=0)
        got = filt.apply([[1.0, 1.0], [0.0, 3.0]])
        assert got == pytest.approx([1.0, -3.0])

    def test_first_order_recursion_by_hand(self):
        # d_N = 1, p = 0.8: r[k] = 0.8 r[k-1] + 0.2 (w0 y[k-1] + w1 y[k])
        w0, w1 = np.array([[1.5]]), np.array([[-0.5]])
        filt = RealizedFilter(np.vstack([w0, w1]), pole=0.8, d_n=1)
        ys = [np.array([1.0]), np.array([2.0]), np.array([-1.0])]
        expected = []
        r_prev, y_prev = 0.0, np.array([0.0])
        for y in ys:
            r = 0.8 * r_prev + 0.2 * (w0[0] @ y_prev + w1[0] @ y)
            expected.append(float(r))
            r_prev, y_prev = r, y
        got = filt.apply(np.vstack(ys))
        assert np.allclose(got, expected, atol=1e-14)

    def test_step_response_dc_gain(self):
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((3, 4))
        filt = RealizedFilter(rows, pole=0.6, d_n=2)
        y = rng.standard_normal(4)
        out = filt.apply(np.tile(y, (200, 1)))[-1]
        assert out == pytest.approx(rows.sum(axis=0) @ y, abs=1e-10)

    def test_zero_input_forever(self):
        filt = RealizedFilter(np.ones((3, 2)), pole=0.7, d_n=2)
        assert all(filt.apply(np.zeros((20, 2))) == 0.0)

    def test_impulse_response_matches_long_division(self):
        rng = np.random.default_rng(8)
        d_n = 3
        rows = rng.standard_normal((d_n + 1, 1))
        filt = RealizedFilter(rows, pole=0.8, d_n=d_n)
        impulse = np.zeros((20, 1))
        impulse[0] = 1.0
        got = filt.apply(impulse)
        expected = impulse_response_by_division(
            rows[:, 0], denominator_coefficients(0.8, d_n), 20)
        assert np.allclose(got, expected, atol=1e-12)

    def test_linearity_of_response(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((2, 3))
        y1 = rng.standard_normal((15, 3))
        y2 = rng.standard_normal((15, 3))

        def run(series):
            return RealizedFilter(rows, pole=0.8, d_n=1).apply(series)

        assert np.allclose(run(y1 + y2), run(y1) + run(y2), atol=1e-12)

    def test_exponential_forgetting(self):
        rows = np.array([[1.0], [1.0]])
        filt = RealizedFilter(rows, pole=0.8, d_n=1)
        filt.apply(np.ones((10, 1)))
        tail = np.abs(filt.apply(np.zeros((30, 1))))
        # after the numerator empties, each step decays by exactly p
        for a, b in zip(tail[2:], tail[3:]):
            if a > 1e-12:
                assert b / a == pytest.approx(0.8, abs=1e-6)

    def test_split_series_and_steps_match_one_call(self):
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((4, 3))
        series = rng.standard_normal((25, 3))
        filt = RealizedFilter(rows, pole=0.7, d_n=3)
        whole = filt.apply(series)
        filt.reset()
        parts = np.concatenate([filt.apply(series[:2]), filt.apply(series[2:9]),
                                filt.apply(series[9:9]), filt.apply(series[9:])])
        filt.reset()
        steps = [filt.step(y) for y in series]
        assert np.array_equal(parts, whole)
        assert np.array_equal(steps, whole)

    def test_matches_streaming_reference_bitwise(self):
        rng = np.random.default_rng(12)
        for d_n in (0, 1, 3, 6):
            rows = rng.standard_normal((d_n + 1, 5))
            series = rng.standard_normal((40, 5))
            stream = StreamingFilter(rows, 0.6, d_n)
            expected = [stream.step(y) for y in series]
            got = RealizedFilter(rows, pole=0.6, d_n=d_n).apply(series)
            assert np.array_equal(got, expected)

    def test_wrong_width_rejected(self):
        filt = RealizedFilter(np.ones((2, 3)), pole=0.5, d_n=1)
        with pytest.raises(DimensionError):
            filt.apply(np.ones((4, 2)))
        with pytest.raises(DimensionError):
            filt.apply(np.ones(3))
        with pytest.raises(DimensionError):
            filt.step(np.ones(4))

    def test_realize_filter_wires_measurement_rows(self, chain):
        design = chain.design
        filt = realize_filter(design, chain.dae.l)
        n_x = chain.discrete.n_states
        blocks = design.blocks()
        expected = blocks @ chain.dae.l
        assert np.allclose(filt.numerator, expected)
        assert np.allclose(filt.numerator, -blocks[:, n_x:])

    def test_realize_rejects_bad_pole(self, chain):
        bad = FilterDesign(chain.design.nbar, 3, 1.5, 1.0, "robust",
                           (0, 1), None)
        with pytest.raises(StabilityError):
            realize_filter(bad, chain.dae.l)


class TestSteadyStateGain:
    def test_zero_alpha(self, chain):
        assert steady_state_gain(chain.design, chain.ffb, np.zeros(3)) == 0.0

    def test_matches_negated_stacked_gain(self, chain):
        rng = np.random.default_rng(11)
        alpha = rng.standard_normal(3)
        direct = -(chain.design.nbar @ chain.fbar @ alpha)
        assert steady_state_gain(chain.design, chain.ffb, alpha) == \
            pytest.approx(direct, abs=1e-12)
