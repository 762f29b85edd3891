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

Every certificate LP (the relaxations and the steady-state LP) ends
optimal or raises. Its zero point is feasible, so it is never infeasible,
and as theta is bounded it is unbounded exactly when {A a >= b} is empty
(Farkas), which raises ``EmptyAttackSetError``; any other verdict raises
``NumericError`` naming the LP. ``lp.solve_lp`` checks every solved point
against its LP's rows. The independent checks of the LP route (the
brute-force game value, the finite-reformulation test) are test oracles in
``tests/oracles.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .errors import (DimensionError, EmptyAttackSetError, NumericError,
                     ValidationError)
from .linalg import RANK_TOL, left_null_basis


@dataclass(frozen=True)
class FeasibleSetBasis:
    """Orthonormal rows of `z` span {Nbar : Nbar @ Hbar = 0}."""

    z: np.ndarray
    eta: float
    d_n: int

    def __post_init__(self):
        if self.eta <= 0:
            raise ValidationError(f"eta must be > 0, got {self.eta}")
        z = np.atleast_2d(np.asarray(self.z, dtype=float))
        if z.shape[1] % (self.d_n + 1) != 0:
            raise DimensionError(
                f"stacked width {z.shape[1]} not divisible by d_n+1 = {self.d_n + 1}")
        object.__setattr__(self, "z", z)

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


@dataclass(frozen=True)
class LpIndexReport:
    """One row of the design's LP table.

    A ``mirrored`` row was not solved: it copies the status and gamma of
    the solved row with the opposite sign and carries no pivots or time.
    """

    block: int
    sign: int
    status: str
    gamma: float
    wall_time: float
    pivots: int
    mirrored: bool = False


@dataclass(frozen=True)
class FilterDesign:
    """A designed residual generator with its detectability certificate."""

    nbar: np.ndarray
    d_n: int
    pole: float
    gamma: float
    kind: str                      # "robust" | "steady-state"
    index: tuple[int, int] | None  # (block, sign) for the robust design
    multiplier: np.ndarray         # lam (robust) or z (steady-state)
    table: tuple[LpIndexReport, ...] = field(default_factory=tuple)
    diagnostic: str = ""

    def blocks(self) -> np.ndarray:
        n_r = self.nbar.size // (self.d_n + 1)
        return self.nbar.reshape(self.d_n + 1, n_r)


def feasible_basis(hbar, eta: float, d_n: int,
                   tol: float = RANK_TOL) -> FeasibleSetBasis:
    """Null-space parameterization of the decoupling constraint."""
    z = left_null_basis(hbar, tol)
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
        raise DimensionError("polytope A and attack gain disagree on dimension")
    n_b = b_pol.size
    z = basis.z
    ball = np.vstack([z.T, -z.T])
    return lp.LpProblem(
        "max", np.concatenate([np.zeros(n_z), b_pol]),
        a_eq=np.hstack([gain.T, -a_pol.T]), b_eq=np.zeros(d),
        a_ge=np.hstack([ball, np.zeros((ball.shape[0], n_b))]),
        b_ge=-basis.eta * np.ones(2 * z.shape[1]),
        lower=np.concatenate([np.full(n_z, -np.inf), np.zeros(n_b)]))


def _solve_named(name: str, problem: lp.LpProblem) -> lp.LpSolution:
    """``lp.solve_lp``, with ``name`` put before a failed check's message."""
    try:
        return lp.solve_lp(problem)
    except NumericError as exc:
        raise NumericError(f"{name}: {exc}") from exc


def _solve_certificate(name: str, gain, basis: FeasibleSetBasis, a_pol,
                       b_pol) -> lp.LpSolution:
    """The optimal solution of ``_certificate_lp``, or the module
    docstring's error."""
    sol = _solve_named(name, _certificate_lp(gain, basis, a_pol, b_pol))
    if sol.status == lp.UNBOUNDED:
        raise EmptyAttackSetError("empty attack set: {A a >= b} has no points")
    if not sol.is_optimal:
        raise NumericError(f"{name} ended {sol.status}")
    return sol


def solve_lp_i(block: int, sign: int, basis: FeasibleSetBasis, ffb,
               a_pol, b_pol):
    """One relaxation LP: pin coefficient `block` with `sign`.

    Returns ``(gamma_i, nbar, lam, solution)`` of the optimal solution.
    """
    ffb = np.asarray(ffb, dtype=float)
    a_pol = np.atleast_2d(np.asarray(a_pol, dtype=float))
    b_pol = np.atleast_1d(np.asarray(b_pol, dtype=float))
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 0 <= block <= basis.d_n:
        raise ValueError(f"block {block} outside 0..{basis.d_n}")
    n_z = basis.n_free
    gain_j = basis.block(block) @ ffb          # (n_z, d)
    sol = _solve_certificate(f"relaxation LP ({block}, {sign:+d})",
                             sign * gain_j, basis, a_pol, b_pol)
    theta = sol.x[:n_z]
    lam = sol.x[n_z:]
    return float(sol.value), theta @ basis.z, lam, sol


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
    Raises ``EmptyAttackSetError`` when the polytope is empty.
    """
    nbar = np.atleast_1d(np.asarray(nbar, dtype=float))
    ffb = np.asarray(ffb, dtype=float)
    a_pol = np.atleast_2d(np.asarray(a_pol, dtype=float))
    b_pol = np.atleast_1d(np.asarray(b_pol, dtype=float))
    n_r = nbar.size // (d_n + 1)
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
    sol = _solve_named("worst-case LP", problem)
    if sol.status == lp.INFEASIBLE:
        raise EmptyAttackSetError("empty attack set: {A a >= b} has no points")
    if not sol.is_optimal:
        raise ValidationError(f"inner minimization ended with {sol.status}")
    alpha = sol.x[:d]
    return alpha, float(sol.value)


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
    n_z = basis.n_free
    gain = basis.z @ fbar                      # (n_z, d)
    start = time.perf_counter()
    sol = _solve_certificate("steady-state LP", gain, basis, a_pol, b_pol)
    elapsed = time.perf_counter() - start
    row = LpIndexReport(-1, 0, sol.status, sol.value, elapsed, sol.iterations)
    theta = sol.x[:n_z]
    z = sol.x[n_z:]
    mu = max(0.0, float(sol.value))
    note = "" if mu > 0 else (
        "mu = 0: every decoupled filter has zero worst-case steady-state "
        "gain over this attack polytope (transient-only detection)")
    return FilterDesign(theta @ basis.z, basis.d_n, pole, mu, "steady-state",
                        None, z, (row,), note)
