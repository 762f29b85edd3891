import numpy as np
import pytest

from agcdiag.attacks import synthesize_attack
from agcdiag.config import build_scenario
from agcdiag.design import FilterDesign, worst_case_alpha
from agcdiag.errors import NumericError, ValidationError
from agcdiag.residual import RealizedFilter, realize_filter
from agcdiag.simulate import simulate

from oracles import denominator_exact, static_residual, steady_state_gain
from reference_sim import StreamingFilter
from test_attacks import REFERENCE_BASIS


@pytest.fixture(scope="module")
def worst_case_numerator(chain):
    """N(q) L y of the default design over the default worst-case run."""
    alpha, _ = worst_case_alpha(chain.design.nbar, chain.ffb, chain.design.d_n,
                                chain.space.a, chain.space.b)
    scenario = build_scenario(chain.cfg, chain.discrete,
                              synthesize_attack(chain.space, alpha))
    y = simulate(chain.discrete, scenario).y
    rows = realize_filter(chain.design, chain.dae.l).numerator
    d_n, n = chain.design.d_n, y.shape[0]
    ext = np.concatenate([np.zeros((d_n, y.shape[1])), y])
    return sum(ext[i:i + n] @ row for i, row in enumerate(rows))


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
    """a(q) = ((q - p) / (1 - p))^d_N as d_N first-order sections, held
    against an exact rational run of the same sections."""

    def test_pole_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError, match=r"^filter pole must lie in "
                           r"\(0, 1\), got 1.2$"):
            RealizedFilter(np.ones((3, 1)), 1.2)
        with pytest.raises(ValidationError, match=r"^filter pole must lie in "
                           r"\(0, 1\), got 0.0$"):
            RealizedFilter(np.ones((3, 1)), 0.0)

    def test_normalized_at_one(self):
        # a(1) = 1: a constant input through the sections settles on itself
        for d_n in (0, 1, 3, 5):
            rows = np.zeros((d_n + 1, 1))
            rows[-1] = 1.0
            out = RealizedFilter(rows, 0.8).apply(np.ones((400, 1)))
            assert out[-1] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("d_n", [0, 1, 3, 6, 10])
    @pytest.mark.parametrize("pole", [0.1, 0.8, 0.98, 0.999999])
    def test_matches_exact_arithmetic(self, pole, d_n, worst_case_numerator):
        # a unit last numerator row passes u through exactly, so the filter
        # output is the sections' run on u
        seeded = np.random.default_rng(14).standard_normal(121)
        rows = np.zeros((d_n + 1, 1))
        rows[-1] = 1.0
        filt = RealizedFilter(rows, pole)
        for u in (seeded, worst_case_numerator):
            exact = denominator_exact(u, pole, d_n)
            got = filt.apply(u[:, None])
            assert np.abs(got - exact).max() <= 1e-14 * np.abs(exact).max()


class TestRealizedFilter:
    def test_degree_zero_is_memoryless(self):
        filt = RealizedFilter(np.array([[2.0, -1.0]]), pole=0.5)
        got = filt.apply([[1.0, 1.0], [0.0, 3.0]])
        assert got == pytest.approx([1.0, -3.0])

    def test_first_order_recursion_by_hand(self):
        # d_N = 1, p = 0.8: r[k] = 0.8 r[k-1] + 0.2 (w0 y[k-1] + w1 y[k])
        w0, w1 = np.array([[1.5]]), np.array([[-0.5]])
        filt = RealizedFilter(np.vstack([w0, w1]), pole=0.8)
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
        filt = RealizedFilter(rows, pole=0.6)
        y = rng.standard_normal(4)
        out = filt.apply(np.tile(y, (200, 1)))[-1]
        assert out == pytest.approx(rows.sum(axis=0) @ y, abs=1e-10)

    def test_zero_input_forever(self):
        filt = RealizedFilter(np.ones((3, 2)), pole=0.7)
        assert all(filt.apply(np.zeros((20, 2))) == 0.0)

    def test_linearity_of_response(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((2, 3))
        y1 = rng.standard_normal((15, 3))
        y2 = rng.standard_normal((15, 3))

        def run(series):
            return RealizedFilter(rows, pole=0.8).apply(series)

        assert np.allclose(run(y1 + y2), run(y1) + run(y2), atol=1e-12)

    def test_exponential_forgetting(self):
        rows = np.array([[1.0], [1.0]])
        filt = RealizedFilter(rows, pole=0.8)
        series = np.concatenate([np.ones((10, 1)), np.zeros((30, 1))])
        tail = np.abs(filt.apply(series)[10:])
        # after the numerator empties (from sample 11 on), each step decays
        # by exactly p; the ones leave the tail far from zero
        assert tail.min() > 1e-3
        for a, b in zip(tail[1:], tail[2:]):
            assert b / a == pytest.approx(0.8, abs=1e-6)

    def test_step_is_apply_on_one_row(self):
        rng = np.random.default_rng(10)
        filt = RealizedFilter(rng.standard_normal((4, 3)), pole=0.7)
        for y in rng.standard_normal((5, 3)):
            assert filt.step(y) == filt.apply(y[None])[0]

    def test_apply_twice_gives_the_same_bits(self):
        # no delay line outlives a call, so a filter shared between runs
        # filters each as a fresh one would
        rng = np.random.default_rng(13)
        rows = rng.standard_normal((4, 3))
        series = rng.standard_normal((25, 3))
        filt = RealizedFilter(rows, pole=0.7)
        first = filt.apply(series)
        assert filt.apply(series).tobytes() == first.tobytes()
        assert first.tobytes() == \
            RealizedFilter(rows, pole=0.7).apply(series).tobytes()

    def test_matches_streaming_reference_bitwise(self):
        rng = np.random.default_rng(12)
        for d_n in (0, 1, 3, 6):
            rows = rng.standard_normal((d_n + 1, 5))
            series = rng.standard_normal((40, 5))
            stream = StreamingFilter(rows, 0.6, d_n)
            expected = [stream.step(y) for y in series]
            got = RealizedFilter(rows, pole=0.6).apply(series)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("big, sample, value", [
        (1e308, 5, "inf"),       # the numerator overflows at sample 5
        (np.nan, 5, "nan"),
    ])
    def test_non_finite_output_raises_without_warnings(self, big, sample,
                                                       value):
        # (the suite turns warnings into errors, so a numpy warning fails)
        rows = np.array([[1.0, 0.0, 2.0], [0.5, 1.0, 3.0]])
        series = np.ones((12, 3))
        series[sample:, 2] = big
        filt = RealizedFilter(rows, pole=0.5)
        with pytest.raises(NumericError,
                           match=f"^r_D is {value} at sample {sample}$"):
            filt.apply(series)

    def test_wrong_width_rejected(self):
        filt = RealizedFilter(np.ones((2, 3)), pole=0.5)
        with pytest.raises(ValidationError, match=r"^measurement series has "
                           r"shape \(4, 2\), expected \(n_samples, 3\)$"):
            filt.apply(np.ones((4, 2)))
        with pytest.raises(ValidationError, match=r"^measurement series has "
                           r"shape \(3,\), expected \(n_samples, 3\)$"):
            filt.apply(np.ones(3))
        with pytest.raises(ValidationError, match=r"^measurement series has "
                           r"shape \(1, 4\), expected \(n_samples, 3\)$"):
            filt.step(np.ones(4))

    def test_shape_mismatch_at_construction_rejected(self, chain):
        with pytest.raises(ValidationError, match=r"^coefficient blocks of "
                           r"length 44 do not match L with 43 rows$"):
            realize_filter(chain.design, chain.dae.l[:-1])

    @pytest.mark.parametrize("rows, d_n", [
        (np.ones((1, 3)), 0), (np.ones(3), 0), (np.ones((4, 3)), 3)])
    def test_degree_read_off_numerator(self, rows, d_n):
        filt = RealizedFilter(rows, pole=0.5)
        assert filt.d_n == d_n and filt.numerator.shape == (d_n + 1, 3)

    def test_empty_numerator_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"^filter numerator has no rows$"):
            RealizedFilter(np.ones((0, 3)), pole=0.5)

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
        with pytest.raises(ValidationError, match=r"^filter pole must lie in "
                           r"\(0, 1\), got 1.5$"):
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
