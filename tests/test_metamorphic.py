"""Metamorphic laws of the robust design, which need no oracle.

The feasible filters {Nbar : Nbar Hbar = 0, ||Nbar||_inf <= eta} scale
with eta, and the attack polytope {A alpha >= b} scales with b for c > 0.
The payoff is linear in Nbar and in alpha, so on the default model at
d_n = 3 the certified gamma scales by c in both cases; the solver keeps
that to within 2 ulp.
"""

import numpy as np
import pytest
from agcdiag.design import design_robust, feasible_basis

SCALES = (0.5, 2.0, 7.0)


def assert_scaled(gamma: float, base: float, c: float) -> None:
    want = c * base
    assert abs(gamma - want) <= 2 * np.spacing(want), (gamma, want)


@pytest.mark.parametrize("c", SCALES)
def test_gamma_scales_with_eta(chain, c):
    basis = feasible_basis(chain.hbar, 10.0 * c, 3)
    design = design_robust(basis, chain.ffb, chain.space.a, chain.space.b)
    assert_scaled(design.gamma, chain.design.gamma, c)


@pytest.mark.parametrize("c", SCALES)
def test_gamma_scales_with_polytope_rhs(chain, c):
    design = design_robust(chain.basis, chain.ffb, chain.space.a,
                           c * chain.space.b)
    assert_scaled(design.gamma, chain.design.gamma, c)
