import json
import re

import numpy as np
import pytest

from agcdiag.cli import main
from agcdiag.dae import attack_gain, build_dae, stack_hbar
from agcdiag.design import FeasibleSetBasis, worst_case_alpha
from agcdiag.discretize import LtiModel
from agcdiag.errors import ValidationError

from helpers import poly_mat_multiply
from oracles import build_fbar, build_v


def toy_model(n_d=1):
    # 1 state, 1 measurement, 1 attack; a = 0.5, b_d = 1, c = 1,
    # b_f = 0.2, d_f = 1
    return LtiModel(
        a_cl=np.array([[0.5]]),
        b_d=np.ones((1, n_d)),
        b_f=np.array([[0.2]]),
        c=np.array([[1.0]]),
        d_f=np.array([[1.0]]),
        t_s=1.0,
        state_labels=("t.x",),
        measurement_labels=("t.y",),
        attack_labels=("t.y",),
        disturbance_labels=tuple(f"t.d{i}" for i in range(n_d)))


class TestBuildDae:
    def test_toy_blocks(self):
        dae = build_dae(toy_model())
        assert np.allclose(dae.h0, [[0.5, 1.0], [1.0, 0.0]])
        assert np.allclose(dae.h1, [[-1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(dae.l, [[0.0], [-1.0]])
        assert np.allclose(dae.f, [[0.2], [1.0]])

    def test_no_disturbance_columns(self):
        dae = build_dae(toy_model(n_d=0))
        assert dae.h0.shape == dae.h1.shape == (2, 1)

    def test_default_agc_dimensions(self, chain):
        assert chain.dae.h0.shape == chain.dae.h1.shape == (19 + 25, 19 + 3)
        assert chain.dae.l.shape == (19 + 25, 25)
        assert chain.dae.f.shape == (19 + 25, 5)

    def test_q_coefficient_is_negated_identity_over_states(self, chain):
        h1 = chain.dae.h1
        n_x = chain.discrete.n_states
        assert np.allclose(h1[:n_x, :n_x], -np.eye(n_x))
        assert np.abs(h1[n_x:, :]).max() == 0.0
        assert np.abs(h1[:, n_x:]).max() == 0.0


class TestStackHbar:
    def test_degree_zero_single_block_row(self):
        dae = build_dae(toy_model())
        hbar = stack_hbar(dae, 0)
        assert np.allclose(hbar, np.hstack([dae.h0, dae.h1]))

    def test_degree_one_banded(self):
        dae = build_dae(toy_model())
        h0, h1 = dae.h0, dae.h1
        z = np.zeros_like(h0)
        expected = np.block([[h0, h1, z], [z, h0, h1]])
        assert np.allclose(stack_hbar(dae, 1), expected)

    def test_polynomial_product_identity(self):
        # N(q) H(q) coefficients == block partition of Nbar @ Hbar, exact
        rng = np.random.default_rng(8)
        for d_n in (0, 1, 3):
            dae = build_dae(toy_model())
            n_r = dae.h0.shape[0]
            nbar = rng.standard_normal((d_n + 1) * n_r)
            hbar = stack_hbar(dae, d_n)
            stacked = nbar @ hbar
            n_coeffs = [nbar[i * n_r:(i + 1) * n_r] for i in range(d_n + 1)]
            product = poly_mat_multiply(n_coeffs, [dae.h0, dae.h1])
            n_xx = dae.h0.shape[1]
            for k, coeff in enumerate(product):
                block = stacked[k * n_xx:(k + 1) * n_xx]
                assert np.abs(block - coeff.ravel()).max() <= 1e-12


class TestAttackGainBlocks:
    def test_v_zero_alpha(self):
        dae = build_dae(toy_model())
        v = build_v(dae, np.eye(1), np.zeros(1), 2)
        assert np.abs(v).max() == 0.0

    def test_v_degree_zero_single_column(self):
        dae = build_dae(toy_model())
        v = build_v(dae, np.eye(1), np.array([2.0]), 0)
        assert v.shape == (2, 1)
        assert np.allclose(v[:, 0], [0.4, 2.0])

    def test_v_toy_blockdiag(self):
        dae = build_dae(toy_model())
        v = build_v(dae, np.eye(1), np.array([2.0]), 1)
        expected = np.zeros((4, 2))
        expected[0:2, 0] = [0.4, 2.0]
        expected[2:4, 1] = [0.4, 2.0]
        assert np.allclose(v, expected)

    def test_v_product_identity(self):
        # N(q) F F_b' alpha coefficients == block partition of Nbar V(alpha)
        rng = np.random.default_rng(15)
        dae = build_dae(toy_model())
        n_r = dae.h0.shape[0]
        d_n = 2
        nbar = rng.standard_normal((d_n + 1) * n_r)
        basis = rng.standard_normal((1, 1))
        alpha = rng.standard_normal(1)
        v = build_v(dae, basis, alpha, d_n)
        col = attack_gain(dae, basis) @ alpha
        stacked = nbar @ v
        for i in range(d_n + 1):
            expected = nbar[i * n_r:(i + 1) * n_r] @ col
            assert stacked[i] == pytest.approx(expected, abs=1e-12)

    def test_fbar_degree_zero(self):
        dae = build_dae(toy_model())
        fbar = build_fbar(dae, np.eye(1), 0)
        assert np.allclose(fbar, attack_gain(dae, np.eye(1)))

    def test_fbar_all_ones_row_sums(self):
        dae = build_dae(toy_model())
        d_n = 2
        fbar = build_fbar(dae, np.eye(1), d_n)
        nbar = np.ones((d_n + 1) * dae.h0.shape[0])
        expected = (d_n + 1) * attack_gain(dae, np.eye(1)).sum(axis=0)
        assert np.allclose(nbar @ fbar, expected)

    def test_fbar_stacking_values(self):
        dae = build_dae(toy_model())
        fbar = build_fbar(dae, np.eye(1), 1)
        assert np.allclose(fbar[:, 0], [0.2, 1.0, 0.2, 1.0])

    def test_nbar_fbar_equals_n_at_one_gain(self):
        # Nbar @ Fbar = N(1) F F_b' alpha for random inputs, exact
        rng = np.random.default_rng(21)
        dae = build_dae(toy_model())
        n_r = dae.h0.shape[0]
        for d_n in (0, 1, 3):
            nbar = rng.standard_normal((d_n + 1) * n_r)
            basis = rng.standard_normal((1, 1))
            alpha = rng.standard_normal(1)
            fbar = build_fbar(dae, basis, d_n)
            n_at_one = nbar.reshape(d_n + 1, n_r).sum(axis=0)
            direct = n_at_one @ (attack_gain(dae, basis) @ alpha)
            assert nbar @ fbar @ alpha == pytest.approx(direct, abs=1e-12)

    def test_dimension_errors(self):
        dae = build_dae(toy_model())
        with pytest.raises(ValidationError,
                           match=r"^alpha has length 2, expected 1$"):
            build_v(dae, np.eye(1), np.zeros(2), 1)
        with pytest.raises(ValidationError,
                           match=r"^basis rows have length 3, expected 1$"):
            attack_gain(dae, np.ones((1, 3)))


# every library entry point that takes a filter degree; nbar, ffb and the
# polytope of worst_case_alpha fit d_n = 3
DEGREE_ENTRY_POINTS = {
    "stack_hbar": lambda d_n: stack_hbar(build_dae(toy_model()), d_n),
    "FeasibleSetBasis": lambda d_n: FeasibleSetBasis(np.zeros((1, 4)), 1.0,
                                                     d_n),
    "worst_case_alpha": lambda d_n: worst_case_alpha(
        np.zeros(4), np.ones((1, 1)), d_n, np.eye(1), np.zeros(1)),
}


class TestCheckDegree:
    """``check_degree`` is the one rule for d_n: each entry point refuses
    a bad degree with its message, and the CLI reports it at design.d_n."""

    @pytest.mark.parametrize("d_n, message", [
        pytest.param(-1, "d_n must be >= 0, got -1", id="-1"),
        pytest.param(2.5, "d_n must be an integer, got 2.5", id="2.5"),
        pytest.param(3.0, "d_n must be an integer, got 3.0", id="3.0"),
        pytest.param(True, "d_n must be an integer, got True", id="True"),
        pytest.param("3", "d_n must be an integer, got '3'", id="'3'"),
    ])
    @pytest.mark.parametrize("entry", [*DEGREE_ENTRY_POINTS, "cli"])
    def test_bad_degree_refused(self, entry, d_n, message, tmp_path,
                                monkeypatch, capsys):
        if entry != "cli":
            with pytest.raises(ValidationError,
                               match=f"^{re.escape(message)}$"):
                DEGREE_ENTRY_POINTS[entry](d_n)
            return
        monkeypatch.setenv("AGCDIAG_OUTDIR", str(tmp_path))
        assert main(["--set", f"design.d_n={json.dumps(d_n)}", "design"]) == 2
        assert capsys.readouterr().err == (
            f'error: code=config field=design.d_n msg="design.d_n: '
            f'{message}"\n')


class TestRandomSystemIdentity:
    def test_polynomial_product_identity_random_dimensions(self):
        # the stacked-row correspondence must hold for any system shape,
        # not just the scalar toy
        rng = np.random.default_rng(31)
        for _ in range(10):
            n_x = int(rng.integers(1, 5))
            n_y = int(rng.integers(1, 4))
            n_d = int(rng.integers(0, 3))
            n_f = int(rng.integers(1, 4))
            d_n = int(rng.integers(0, 4))
            model = LtiModel(
                a_cl=rng.standard_normal((n_x, n_x)),
                b_d=rng.standard_normal((n_x, n_d)),
                b_f=rng.standard_normal((n_x, n_f)),
                c=rng.standard_normal((n_y, n_x)),
                d_f=rng.standard_normal((n_y, n_f)),
                t_s=1.0,
                state_labels=tuple(f"r.x{i}" for i in range(n_x)),
                measurement_labels=tuple(f"r.y{i}" for i in range(n_y)),
                attack_labels=tuple(f"r.y{i}" for i in range(n_f)),
                disturbance_labels=tuple(f"r.d{i}" for i in range(n_d)))
            dae = build_dae(model)
            n_r = dae.h0.shape[0]
            nbar = rng.standard_normal((d_n + 1) * n_r)
            hbar = stack_hbar(dae, d_n)
            stacked = nbar @ hbar
            n_coeffs = [nbar[i * n_r:(i + 1) * n_r] for i in range(d_n + 1)]
            product = poly_mat_multiply(n_coeffs, [dae.h0, dae.h1])
            n_xx = dae.h0.shape[1]
            assert hbar.shape == ((d_n + 1) * n_r, (d_n + 2) * n_xx)
            for k, coeff in enumerate(product):
                block = stacked[k * n_xx:(k + 1) * n_xx]
                assert np.abs(block - coeff.ravel()).max() <= 1e-12
            # V(alpha) correspondence on the same instance
            basis = rng.standard_normal((min(n_f, 2), n_f))
            alpha = rng.standard_normal(basis.shape[0])
            v = build_v(dae, basis, alpha, d_n)
            col = attack_gain(dae, basis) @ alpha
            stacked_v = nbar @ v
            for i in range(d_n + 1):
                expected = nbar[i * n_r:(i + 1) * n_r] @ col
                assert stacked_v[i] == pytest.approx(expected, abs=1e-12)
