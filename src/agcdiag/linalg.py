"""Dense real-matrix kernels shared by the rest of the package.

Everything here is a pure function of immutable inputs: matrix exponential,
orthonormal left null bases, and (weighted) range projectors. All matrices
are plain float64 ``numpy`` arrays in row-major order.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError, SingularMatrixError

#: Default relative threshold for numerical-rank decisions (times sigma_max).
RANK_TOL = 1e-9

# Pade-13 coefficients for the diagonal approximant of exp(x).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
# Largest 1-norm for which the unscaled degree-13 approximant stays at
# double-precision accuracy (Higham's theta_13).
_THETA13 = 5.371920351148152


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array, raising on bad shape or NaN/Inf."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite entries")
    return arr


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Pade-13 core.

    Parameters
    ----------
    m : square array
        Real matrix. Accuracy is at double-precision level for the
        moderate-norm matrices arising from closed-loop dynamics.
    """
    a = as_matrix(m, "expm input")
    n, nc = a.shape
    if n != nc:
        raise DimensionError(f"expm needs a square matrix, got {n}x{nc}")
    if n == 0:
        return np.zeros((0, 0))

    norm = np.linalg.norm(a, 1)
    squarings = 0
    if norm > _THETA13:
        squarings = max(0, int(np.ceil(np.log2(norm / _THETA13))))
        a = a / (2.0 ** squarings)

    b = _PADE13
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    result = np.linalg.solve(v - u, v + u)
    # overflow during squaring is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            result = result @ result
    if not np.all(np.isfinite(result)):
        raise NumericError("expm produced non-finite entries")
    return result


def left_null_basis(m, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal rows spanning ``{v : v @ m = 0}`` at rank threshold ``tol``.

    Rank is decided against ``tol * sigma_max``; an empty (0, rows) array is
    returned when ``m`` has full row rank.
    """
    a = as_matrix(m, "null-basis input")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    rows = a.shape[0]
    # SVD of the transpose: right singular vectors with negligible singular
    # value are the left annihilators of `a`.
    _, s, vt = np.linalg.svd(a.T, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
    return vt[rank:rows, :].copy()


def weighted_range_projector(c, w=None) -> np.ndarray:
    """Oblique projector ``C (C' W C)^-1 C' W`` onto the range of ``C``.

    ``w`` is the positive diagonal of the weight as a 1-D vector; identity
    when omitted. Raises ``SingularMatrixError`` if ``C`` is column-rank
    deficient (the message names the deficiency).
    """
    cm = as_matrix(c, "projector C")
    n, k = cm.shape
    if w is None:
        wdiag = np.ones(n)
    else:
        wdiag = np.asarray(w, dtype=float)
        if wdiag.shape != (n,):
            raise DimensionError(
                f"weight diagonal has length {wdiag.shape}, expected {n}")
        if np.any(wdiag <= 0):
            raise ValueError("weight diagonal must be strictly positive")

    rank = int(np.linalg.matrix_rank(cm, tol=None))
    if rank < k:
        raise SingularMatrixError(
            f"projector input is column-rank deficient by {k - rank} column(s)")
    gram = cm.T @ (wdiag[:, None] * cm)
    return cm @ np.linalg.solve(gram, cm.T * wdiag[None, :])
