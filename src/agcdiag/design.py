"""Maximin diagnosis-filter design.

The detectability game is: the designer picks stacked filter coefficients
Nbar with Nbar @ Hbar = 0 and ||Nbar||_inf <= eta, the attacker picks
coefficients alpha in the polytope {A a >= b}, and the payoff is
J = max_j |N_j (F F_b') alpha|. The exact finite reformulation is bilinear,
so the design relaxes it to one small LP per (coefficient block, sign)
pair: pin block j with sign s to a supporting row of the polytope,

    max  b' lam   s.t.  s * N_j F F_b' = lam' A,  lam >= 0,  Nbar feasible,

whose optimum gamma' lower-bounds the game value and certifies detection of
every admissible attack whenever it is positive. The feasible set is
symmetric, so the (j, -1) LP has the (j, +1) optimum and only the +1 LPs
are solved. The equality Nbar Hbar = 0 is eliminated by parameterizing
Nbar = theta @ Z over an orthonormal null basis Z, which keeps the LPs
small and feasibility structural.

Every LP of the design ends optimal or raises (``_solve``). A certificate
LP (a relaxation or the steady-state LP) has a feasible zero point, and as
theta is bounded it is unbounded exactly when {A a >= b} is empty (Farkas);
the worst-case LP is infeasible exactly then. That verdict raises
``ValidationError``; any other, and any ``NumericError`` of the solver
(its pivot cap included), raises ``NumericError`` naming the LP.
``lp.solve_lp`` checks every solved point against its LP's rows. The
independent checks of the LP route (the brute-force game value, the
finite-reformulation test) are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import lp
from .dae import check_degree
from .errors import NumericError, ValidationError
from .linalg import RANK_TOL, left_null_basis


class FeasibleSetBasis:
    """Orthonormal rows of `z` span {Nbar : Nbar @ Hbar = 0}."""

    __slots__ = ("z", "eta", "d_n")

    def __init__(self, z: np.ndarray, eta: float, d_n: int):
        if not math.isfinite(eta):
            raise ValidationError(f"eta must be finite, got {eta}")
        if eta <= 0:
            raise ValidationError(f"eta must be > 0, got {eta}")
        check_degree(d_n)
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if z.shape[1] % (d_n + 1) != 0:
            raise ValidationError(
                f"stacked width {z.shape[1]} not divisible by d_n+1 = {d_n + 1}")
        self.z = z
        self.eta = eta
        self.d_n = d_n

    @property
    def n_free(self) -> int:
        return self.z.shape[0]

    @property
    def n_rows(self) -> int:
        """Block length n_r of each coefficient N_j."""
        return self.z.shape[1] // (self.d_n + 1)

    def block(self, j: int) -> np.ndarray:
        """Columns of `z` belonging to coefficient block j."""
        n_r = self.n_rows
        return self.z[:, j * n_r:(j + 1) * n_r]


class LpIndexReport:
    """One row of the design's LP table.

    A ``mirrored`` row was not solved: it copies the status and gamma of
    the solved row with the opposite sign and carries no pivots or time.
    """

    __slots__ = ("block", "sign", "status", "gamma", "wall_time", "pivots",
                 "mirrored")

    def __init__(self, block: int, sign: int, status: str, gamma: float,
                 wall_time: float, pivots: int, mirrored: bool = False):
        self.block = block
        self.sign = sign
        self.status = status
        self.gamma = gamma
        self.wall_time = wall_time
        self.pivots = pivots
        self.mirrored = mirrored


class FilterDesign:
    """A designed residual generator with its detectability certificate."""

    __slots__ = ("nbar", "d_n", "pole", "gamma", "kind", "index",
                 "multiplier", "table", "diagnostic")

    def __init__(self, nbar: np.ndarray, d_n: int, pole: float, gamma: float,
                 kind: str, index: tuple[int, int] | None,
                 multiplier: np.ndarray,
                 table: tuple[LpIndexReport, ...] = (),
                 diagnostic: str = ""):
        self.nbar = nbar
        self.d_n = d_n
        self.pole = pole
        self.gamma = gamma
        self.kind = kind                # "robust" | "steady-state"
        self.index = index              # (block, sign) for the robust design
        self.multiplier = multiplier    # lam (robust) or z (steady-state)
        self.table = table
        self.diagnostic = diagnostic

    def blocks(self) -> np.ndarray:
        n_r = self.nbar.size // (self.d_n + 1)
        return self.nbar.reshape(self.d_n + 1, n_r)


def feasible_basis(hbar, eta: float, d_n: int,
                   tol: float = RANK_TOL) -> FeasibleSetBasis:
    """Null-space parameterization of the decoupling constraint.

    A rank tolerance above Hbar's spectral gap puts live directions into
    Z, and a filter over them is not decoupled, so ``Z @ Hbar`` must vanish
    to 1e-9 of Hbar's largest entry or ``NumericError`` is raised.
    """
    z = left_null_basis(hbar, tol)
    hbar = np.asarray(hbar, dtype=float)
    miss = np.abs(z @ hbar).max(initial=0.0)
    scale = np.abs(hbar).max(initial=0.0)
    if miss > 1e-9 * scale:
        raise NumericError(
            f"rank tolerance {tol!r} cuts inside Hbar's spectrum: "
            f"max|Z Hbar| = {miss:.3g} against max|Hbar| = {scale:.3g}")
    return FeasibleSetBasis(z=z, eta=eta, d_n=d_n)


def _certificate_lp(gain, basis: FeasibleSetBasis, a_pol,
                    b_pol) -> lp.LpProblem:
    """The certificate LP over (theta free, lam >= 0):

        max b' lam  s.t.  gain' theta = A' lam,  ||theta @ Z||_inf <= eta,

    where ``gain`` (n_z, d) maps theta to the pinned attack gain. The ball
    rows are the two halves ``[Z'; -Z']``, the layout ``lp.solve_lp``
    stores as one row per mirrored pair (its input convention).
    """
    n_z, d = gain.shape
    if d != a_pol.shape[1]:
        raise ValidationError("polytope A and attack gain disagree on dimension")
    n_b = b_pol.size
    z = basis.z
    ball = np.vstack([z.T, -z.T])
    return lp.LpProblem(
        "max", np.concatenate([np.zeros(n_z), b_pol]),
        a_eq=np.hstack([gain.T, -a_pol.T]), b_eq=np.zeros(d),
        a_ge=np.hstack([ball, np.zeros((ball.shape[0], n_b))]),
        b_ge=-basis.eta * np.ones(2 * z.shape[1]),
        lower=np.concatenate([np.full(n_z, -np.inf), np.zeros(n_b)]))


def _solve(name: str, problem: lp.LpProblem, empty: str) -> lp.LpSolution:
    """The optimal solution of ``problem``, the LP ``name``. The verdict
    ``empty``, which means {A a >= b} has no points, raises
    ``ValidationError``; any other failure raises ``NumericError`` naming
    the LP."""
    try:
        sol = lp.solve_lp(problem)
    except NumericError as exc:
        raise NumericError(f"{name}: {exc}") from exc
    if sol.status == empty:
        raise ValidationError("empty attack set: {A a >= b} has no points")
    if not sol.is_optimal:
        raise NumericError(f"{name} ended {sol.status}")
    return sol


def _certificate(name: str, gain, basis: FeasibleSetBasis, a_pol, b_pol):
    """``(value, theta @ Z, multiplier, solution)`` of the optimal solution
    of ``_certificate_lp``, or the module docstring's error."""
    sol = _solve(name, _certificate_lp(gain, basis, a_pol, b_pol),
                 lp.UNBOUNDED)
    n_z = basis.n_free
    return float(sol.value), sol.x[:n_z] @ basis.z, sol.x[n_z:], sol


def solve_lp_i(block: int, sign: int, basis: FeasibleSetBasis, ffb,
               a_pol, b_pol):
    """One relaxation LP: pin coefficient `block` with `sign`.

    Returns ``(gamma_i, nbar, lam, solution)`` of the optimal solution.
    """
    ffb = np.asarray(ffb, dtype=float)
    a_pol = np.atleast_2d(np.asarray(a_pol, dtype=float))
    b_pol = np.atleast_1d(np.asarray(b_pol, dtype=float))
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    if not 0 <= block <= basis.d_n:
        raise ValidationError(f"block {block} outside 0..{basis.d_n}")
    return _certificate(f"relaxation LP ({block}, {sign:+d})",
                        sign * (basis.block(block) @ ffb), basis, a_pol, b_pol)


def design_robust(basis: FeasibleSetBasis, ffb, a_pol, b_pol,
                  pole: float = 0.8) -> FilterDesign:
    """Cover all 2(d_n+1) relaxation LPs and keep the best certificate.

    Only the +1 LP of each block is solved. The feasible set
    ||theta Z||_inf <= eta is symmetric, so LP(j, -1) is LP(j, +1) under
    theta -> -theta, with the same optimum; its table row is the +1 row
    mirrored (flagged ``mirrored``, 0 pivots, no wall time). Ties break
    toward the smallest block index, then the +1 sign, so a mirrored row
    never wins and the returned design is deterministic. A positive gamma
    certifies detection of every attack in the polytope; gamma = 0 means no
    single-block certificate exists, and the result is the zero filter with
    a diagnostic beside the best index and its multiplier.
    """
    best = None
    rows = []
    for j in range(basis.d_n + 1):
        start = time.perf_counter()
        gamma_i, nbar_i, lam_i, sol = solve_lp_i(j, 1, basis, ffb,
                                                 a_pol, b_pol)
        elapsed = time.perf_counter() - start
        rows.append(LpIndexReport(j, 1, sol.status, gamma_i, elapsed,
                                  sol.iterations))
        rows.append(LpIndexReport(j, -1, sol.status, gamma_i, 0.0, 0,
                                  mirrored=True))
        # ties (within solver noise) keep the earlier index
        if best is None or gamma_i > best[0] + 1e-9 * max(1.0, abs(best[0])):
            best = (gamma_i, j, nbar_i, lam_i)
    gamma, j, nbar, lam = best
    note = ""
    if gamma <= 0.0:
        gamma, nbar = max(gamma, 0.0), np.zeros(basis.z.shape[1])
        note = ("no relaxation index yields a positive certificate; "
                "every admissible attack direction can null this filter family")
    return FilterDesign(nbar, basis.d_n, pole, gamma, "robust",
                        (j, 1), lam, tuple(rows), note)


def worst_case_alpha(nbar, ffb, d_n: int, a_pol, b_pol):
    """Attacker's best reply: minimize the payoff over the polytope.

    Epigraph LP over (alpha, t): min t subject to
    -t <= N_j F F_b' alpha <= t for every block and A alpha >= b.
    Raises ``ValidationError`` when ``d_n`` is not a degree
    (``check_degree``), when ``nbar`` is not d_n + 1 blocks of ``ffb``'s
    rows, or when the polytope is empty.
    """
    nbar = np.atleast_1d(np.asarray(nbar, dtype=float))
    ffb = np.asarray(ffb, dtype=float)
    a_pol = np.atleast_2d(np.asarray(a_pol, dtype=float))
    b_pol = np.atleast_1d(np.asarray(b_pol, dtype=float))
    n_r = ffb.shape[0]
    check_degree(d_n)
    if nbar.size != (d_n + 1) * n_r:
        raise ValidationError(f"nbar has {nbar.size} entries, not (d_n + 1) "
                              f"* {n_r} for d_n = {d_n!r}")
    d = a_pol.shape[1]
    gains = nbar.reshape(d_n + 1, n_r) @ ffb   # (d_n+1, d)

    # t - g a >= 0 and t + g a >= 0 for each block's gain g, then A a >= b
    g_rows = np.stack([-gains, gains], axis=1).reshape(-1, d)
    a_ge = np.block([[g_rows, np.ones((len(g_rows), 1))],
                     [a_pol, np.zeros((b_pol.size, 1))]])
    b_ge = np.concatenate([np.zeros(len(g_rows)), b_pol])
    cost = np.zeros(d + 1)
    cost[-1] = 1.0
    lower = np.concatenate([np.full(d, -np.inf), [0.0]])
    problem = lp.LpProblem("min", cost, a_ge=a_ge, b_ge=b_ge, lower=lower)
    sol = _solve("worst-case LP", problem, lp.INFEASIBLE)
    return sol.x[:d], float(sol.value)


def design_steady_state(basis: FeasibleSetBasis, ffb, a_pol, b_pol,
                        pole: float = 0.8) -> FilterDesign:
    """Maximize the certified steady-state residual magnitude.

    Single LP over (theta, z >= 0): max b'z with Nbar @ Fbar = z'A and the
    usual feasible-set constraints, where Fbar stacks d_n+1 copies of
    ``ffb``. The symmetry of the feasible set makes the one-sided equality
    lossless. mu = 0 means no decoupled filter can hold a nonzero
    steady-state alert over the whole polytope.
    """
    fbar = np.vstack([np.asarray(ffb, dtype=float)] * (basis.d_n + 1))
    a_pol = np.atleast_2d(np.asarray(a_pol, dtype=float))
    b_pol = np.atleast_1d(np.asarray(b_pol, dtype=float))
    start = time.perf_counter()
    value, nbar, z, sol = _certificate("steady-state LP", basis.z @ fbar,
                                       basis, a_pol, b_pol)
    elapsed = time.perf_counter() - start
    row = LpIndexReport(-1, 0, sol.status, value, elapsed, sol.iterations)
    mu = max(0.0, value)
    note = "" if mu > 0 else (
        "mu = 0: every decoupled filter has zero worst-case steady-state "
        "gain over this attack polytope (transient-only detection)")
    return FilterDesign(nbar, basis.d_n, pole, mu, "steady-state",
                        None, z, (row,), note)
