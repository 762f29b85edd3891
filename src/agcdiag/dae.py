"""DAE fit of the discrete closed loop and the stacked design matrices.

The sampled model is rewritten as one set of equations in the time-shift
operator q,

    H(q) x[k] + L y[k] + F f[k] = 0,   x := [X; d],

with H(q) = H_0 + q H_1, H_0 = [[A, B_d], [C, 0]], H_1 = [[-I, 0], [0, 0]],
L = [0; -I] and F = [B_f; D_f]. H always has degree 1 and L and F are
constant, so the system is the four arrays H_0, H_1, L and F. A degree-d_N
residual generator N(q) acts on these rows; its coefficients are kept as
one stacked row vector, and the polynomial products it enters become
products with the banded matrix `stack_hbar` and the attack gains
`attack_gain` and `build_fbar`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import LtiModel
from .errors import DimensionError


@dataclass(frozen=True)
class DaeSystem:
    """H(q) = h0 + q h1, (n_r, n_x + n_d); l, (n_r, n_y); f, (n_r, n_f)."""

    h0: np.ndarray
    h1: np.ndarray
    l: np.ndarray
    f: np.ndarray


def build_dae(model: LtiModel) -> DaeSystem:
    """Fit a sampled closed loop into the DAE block form."""
    n_x, n_d = model.n_states, model.n_disturbances
    n_y = model.n_measurements
    n_r = n_x + n_y
    h0 = np.zeros((n_r, n_x + n_d))
    h0[:n_x, :n_x] = model.a_cl
    h0[:n_x, n_x:] = model.b_d
    h0[n_x:, :n_x] = model.c
    h1 = np.zeros((n_r, n_x + n_d))
    h1[:n_x, :n_x] = -np.eye(n_x)
    l = np.zeros((n_r, n_y))
    l[n_x:, :] = -np.eye(n_y)
    return DaeSystem(h0, h1, l, np.vstack([model.b_f, model.d_f]))


def stack_hbar(dae: DaeSystem, d_n: int) -> np.ndarray:
    """Block-banded matrix carrying the coefficients of N(q) H(q).

    Shape ((d_n+1) n_r, (d_n+2) n_x): block row i holds H_0 at block column
    i and H_1 at block column i+1, so a stacked coefficient row times this
    matrix lists the polynomial-product coefficients.
    """
    if d_n < 0:
        raise ValueError("filter degree must be nonnegative")
    n_r, n_xx = dae.h0.shape
    out = np.zeros(((d_n + 1) * n_r, (d_n + 2) * n_xx))
    for i in range(d_n + 1):
        out[i * n_r:(i + 1) * n_r, i * n_xx:(i + 1) * n_xx] = dae.h0
        out[i * n_r:(i + 1) * n_r, (i + 1) * n_xx:(i + 2) * n_xx] = dae.h1
    return out


def attack_gain(dae: DaeSystem, basis: np.ndarray) -> np.ndarray:
    """F F_b' for a basis whose rows are attack vectors: (n_r, d)."""
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if basis.shape[1] != dae.f.shape[1]:
        raise DimensionError(
            f"basis rows have length {basis.shape[1]}, "
            f"expected {dae.f.shape[1]}")
    return dae.f @ basis.T


def build_fbar(dae: DaeSystem, basis: np.ndarray, d_n: int) -> np.ndarray:
    """Vertical stack of d_n+1 copies of F F_b' (steady-state gain matrix)."""
    gain = attack_gain(dae, basis)
    return np.vstack([gain] * (d_n + 1))
