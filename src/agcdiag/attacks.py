"""Stealthy attack characterization and synthesis.

An injection f is stealthy when D_f f lies in the range of the measurement
matrix, i.e. the corrupted readings still look like some physical state.
The admissible "disruptive" coefficients live in the polytope {A a >= b}.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError
from .linalg import weighted_range_projector

STEALTH_TOL = 1e-8


class AttackSpace:
    """Stealthy basis (rows of `basis`) plus the disruptive polytope."""

    __slots__ = ("basis", "a", "b")

    def __init__(self, basis, a, b):
        basis = np.atleast_2d(np.asarray(basis, dtype=float))
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != (b.size, basis.shape[0]):
            raise ValidationError(
                f"polytope A {a.shape} incompatible with {basis.shape[0]} "
                f"basis vectors / {b.size} offsets")
        self.basis = basis     # (d, n_f), rows are basis attack vectors
        self.a = a             # (n_b, d)
        self.b = b             # (n_b,)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def compute_basis(c, d_f) -> np.ndarray:
    """Rows spanning {f : (I - P_C) D_f f = 0}, the stealthy directions.

    Computed as the right null space of (I - P_C) D_f at the relative
    threshold STEALTH_TOL; each row is rescaled so its first nonzero entry
    is +0.1 (the per-unit convention used for supplied bases). May be empty.
    """
    c = np.asarray(c, dtype=float)
    d_f = np.asarray(d_f, dtype=float)
    proj = weighted_range_projector(c)
    visible = d_f - proj @ d_f
    _, s, vt = np.linalg.svd(visible, full_matrices=True)
    # a direction is stealthy when its visible footprint is negligible
    # relative to the injection scale, not to the largest footprint
    scale = np.linalg.norm(d_f, 2)
    rank = int(np.sum(s > STEALTH_TOL * scale)) if scale > 0 else 0
    rows = vt[rank:, :]
    out = np.empty_like(rows)
    for i, row in enumerate(rows):
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        scale = 0.1 / row[nz[0]] if nz.size else 1.0
        out[i] = row * scale
    return out


def validate_attack_space(space: AttackSpace, c, d_f) -> None:
    """Reject a basis whose rows are dependent or visible to the static
    test: a row f is stealthy when ||(I - P_C) D_f f||_inf <= STEALTH_TOL."""
    if space.dim and np.linalg.matrix_rank(space.basis) < space.dim:
        raise ValidationError("attack basis rows are linearly dependent")
    d_f = np.asarray(d_f, dtype=float)
    if space.dim and space.basis.shape[1] != d_f.shape[1]:
        raise ValidationError(
            f"attack vector has length {space.basis.shape[1]}, "
            f"expected {d_f.shape[1]}")
    proj = weighted_range_projector(c)
    for i, row in enumerate(space.basis):
        injected = d_f @ row
        resid = float(np.abs(injected - proj @ injected).max(initial=0.0))
        if resid > STEALTH_TOL:
            raise ValidationError(
                f"basis vector {i + 1} fails the stealth test "
                f"(residual {resid:.3e} > {STEALTH_TOL:.1e})")


@np.errstate(over="ignore")     # an overflow is refused below
def synthesize_attack(space: AttackSpace, alpha) -> np.ndarray:
    """Attack vector F_b' alpha = sum_i alpha_i f_i; ``NumericError`` if
    it overflows."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.size != space.dim:
        raise ValidationError(
            f"alpha has length {alpha.size}, expected {space.dim}")
    f_vec = space.basis.T @ alpha
    if not np.isfinite(f_vec).all():
        raise NumericError(f"attack vector F_b' alpha is not finite: {f_vec}")
    return f_vec
