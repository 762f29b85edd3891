import math

import numpy as np
import pytest

from agcdiag.discretize import LtiModel, zoh_discretize
from agcdiag.errors import ConfigError, ValidationError
from agcdiag.linalg import expm

from helpers import fine_step_response, random_stable_continuous


def wrap(a, b_d, b_f=None):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b_d = np.atleast_2d(np.asarray(b_d, dtype=float))
    n = a.shape[0]
    n_y = n
    b_f = (np.zeros((n, 1)) if b_f is None
           else np.atleast_2d(np.asarray(b_f, dtype=float)))
    return LtiModel(
        a, b_d, b_f, np.eye(n), np.zeros((n_y, b_f.shape[1])),
        tuple(f"s.x{i}" for i in range(n)),
        tuple(f"s.y{i}" for i in range(n_y)),
        tuple(f"s.f{i}" for i in range(b_f.shape[1])),
        tuple(f"s.d{i}" for i in range(b_d.shape[1])))


class TestZoh:
    def test_integrator_limit(self):
        # A = 0: the hold integrates the constant input exactly
        m = wrap(np.zeros((2, 2)), np.array([[1.0], [2.0]]))
        d = zoh_discretize(m, 0.25)
        assert np.allclose(d.a_cl, np.eye(2), atol=1e-14)
        assert np.allclose(d.b_d, [[0.25], [0.5]], atol=1e-14)

    def test_scalar_closed_form(self):
        m = wrap([[-1.0]], [[2.0]])
        d = zoh_discretize(m, 0.5)
        assert d.a_cl[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert d.b_d[0, 0] == pytest.approx(2 * (1 - math.exp(-0.5)), abs=1e-12)

    def test_attack_column_transforms_like_disturbance(self):
        rng = np.random.default_rng(4)
        a, b = random_stable_continuous(rng, 4)
        m = wrap(a, b, b_f=b)   # identical columns must discretize identically
        d = zoh_discretize(m, 0.3)
        assert np.allclose(d.b_d, d.b_f, atol=1e-13)

    def test_fine_step_oracle(self):
        # criterion-6 style: one sampling period of RK4 integration with held
        # inputs matches the discrete update to 1e-6 relative
        rng = np.random.default_rng(9)
        for _ in range(5):
            order = int(rng.integers(2, 7))
            a, b = random_stable_continuous(rng, order)
            m = wrap(a, b)
            d = zoh_discretize(m, 0.4)
            u = rng.standard_normal(b.shape[1])
            x0 = rng.standard_normal(order)
            reference = fine_step_response(a, b, u, 0.4) + expm(a * 0.4) @ x0
            ours = d.a_cl @ x0 + d.b_d @ u
            scale = max(1.0, np.abs(reference).max())
            assert np.abs(ours - reference).max() / scale <= 1e-6

    def test_semigroup_property(self):
        rng = np.random.default_rng(14)
        a, b = random_stable_continuous(rng, 5)
        m = wrap(a, b)
        single = zoh_discretize(m, 0.2)
        double = zoh_discretize(m, 0.4)
        assert np.abs(single.a_cl @ single.a_cl - double.a_cl).max() <= 1e-8

    def test_default_model_spectral_radius(self, chain):
        eig = np.abs(np.linalg.eigvals(chain.discrete.a_cl))
        # four marginal tie-invariant modes sit exactly on the unit circle
        # and are unreachable; everything else is strictly contracting
        assert int(np.sum(eig > 1 - 1e-9)) == 4
        assert np.all(np.sort(eig)[:-4] < 1 - 1e-4)
        assert eig.max() == pytest.approx(1.0, abs=1e-9)

    def test_keeps_labels_and_output_matrices(self):
        rng = np.random.default_rng(21)
        a, b = random_stable_continuous(rng, 3)
        m = wrap(a, b, b_f=rng.standard_normal((3, 2)))
        assert m.t_s == 0.0
        d = zoh_discretize(m, 0.5)
        assert d.t_s == 0.5
        assert np.array_equal(d.c, m.c)
        assert np.array_equal(d.d_f, m.d_f)
        for name in ("state_labels", "measurement_labels", "attack_labels",
                     "disturbance_labels"):
            assert getattr(d, name) == getattr(m, name)

    def test_rejects_sampled_model(self):
        d = zoh_discretize(wrap([[-1.0]], [[1.0]]), 0.5)
        with pytest.raises(ValidationError, match="already sampled"):
            zoh_discretize(d, 0.5)

    def test_rejects_nonpositive_period(self):
        m = wrap([[-1.0]], [[1.0]])
        with pytest.raises(ValidationError):
            zoh_discretize(m, 0.0)

    @pytest.mark.parametrize("t_s", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_period(self, t_s):
        # refused before the exponential: no NumericError from expm and,
        # under the suite's filterwarnings = error, no overflow warning
        m = wrap([[-1.0]], [[1.0]])
        with pytest.raises(ConfigError,
                           match=r"^t_s: must be finite and > 0, got ") as err:
            zoh_discretize(m, t_s)
        assert err.value.field == "t_s"


def test_overflowing_dynamics_raise_numeric_error():
    from agcdiag.errors import NumericError
    m = wrap([[1e8]], [[1.0]])
    with pytest.raises(NumericError):
        zoh_discretize(m, 10.0)
