"""Test oracles: independent checks of the design route and the
loop-closing helpers that build non-AGC closed loops for the tests.

None of this is on the pipeline's path. ``brute_force_gamma`` estimates
the true maximin game value directly on instances with at most three free
parameters (grid over the coefficient ball, attack polytope sampled at
vertices and edges) and returns a propagated grid-resolution tolerance.
``check_reformulation_feasible`` tests a point against the exact finite
reformulation the relaxation LPs come from. ``build_v`` is the
block-diagonal attack gain V(alpha) of that reformulation. The payoff,
polytope, static-residual and settled-gain evaluations state the paper's
quantities directly, for the tests to hold the pipeline's results against.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from agcdiag.attacks import AttackSpace
from agcdiag.dae import DaeSystem, attack_gain
from agcdiag.design import FeasibleSetBasis, FilterDesign
from agcdiag.errors import DimensionError, ValidationError
from agcdiag.linalg import weighted_range_projector

DECOUPLE_TOL = 1e-8


def check_reformulation_feasible(nbar, beta, lam, ffb, a_pol,
                                 tol: float = DECOUPLE_TOL) -> bool:
    """Check the finite-reformulation constraints for a candidate point.

    Verifies sum_i (beta_{2i} - beta_{2i+1}) N_i F F_b' = lam' A, the simplex
    conditions on beta, and lam >= 0, all within ``tol``.
    """
    nbar = np.atleast_1d(np.asarray(nbar, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    ffb = np.asarray(ffb, dtype=float)
    a_pol = np.atleast_2d(np.asarray(a_pol, dtype=float))
    if beta.size % 2 != 0:
        return False
    d_n = beta.size // 2 - 1
    if nbar.size % (d_n + 1) != 0:
        return False
    blocks = nbar.reshape(d_n + 1, nbar.size // (d_n + 1))
    weights = beta[0::2] - beta[1::2]
    lhs = weights @ (blocks @ ffb)
    rhs = lam @ a_pol
    if np.abs(lhs - rhs).max(initial=0.0) > tol:
        return False
    if abs(beta.sum() - 1.0) > tol:
        return False
    if beta.min(initial=0.0) < -tol or lam.min(initial=0.0) < -tol:
        return False
    return True


def beta_for_index(block: int, sign: int, d_n: int) -> np.ndarray:
    """Unit simplex vertex selecting (block, sign) in the reformulation."""
    beta = np.zeros(2 * (d_n + 1))
    beta[2 * block + (0 if sign > 0 else 1)] = 1.0
    return beta


# --------------------------------------------------------------------------
# direct evaluations
# --------------------------------------------------------------------------

def evaluate_payoff(nbar, ffb, alpha, d_n: int) -> float:
    """Detection payoff J = max_j |N_j F F_b' alpha|."""
    nbar = np.atleast_1d(np.asarray(nbar, dtype=float))
    ffb = np.asarray(ffb, dtype=float)
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    n_r = nbar.size // (d_n + 1)
    blocks = nbar.reshape(d_n + 1, n_r)
    return float(np.abs(blocks @ (ffb @ alpha)).max())


def in_polytope(space: AttackSpace, alpha, tol: float = 0.0) -> bool:
    """Componentwise test A alpha >= b - tol."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    return bool(np.all(space.a @ alpha >= space.b - tol))


def static_residual(y, c, r_y=None) -> np.ndarray:
    """Bad-data residual (I - P) y, optionally noise-weighted.

    With a diagonal measurement covariance ``r_y`` the projector becomes
    the weighted least-squares one, C (C' R^-1 C)^-1 C' R^-1.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    weights = None
    if r_y is not None:
        r_arr = np.asarray(r_y, dtype=float)
        diag = np.diag(r_arr) if r_arr.ndim == 2 else r_arr
        if np.any(diag <= 0):
            raise ValueError("measurement covariance diagonal must be positive")
        weights = 1.0 / diag
    proj = weighted_range_projector(c, weights)
    if y.size != proj.shape[0]:
        raise DimensionError(
            f"measurement vector has length {y.size}, expected {proj.shape[0]}")
    return y - proj @ y


def steady_state_gain(design: FilterDesign, ffb, alpha) -> float:
    """Settled filter output under a constant basis attack: -N(1) F F_b' alpha."""
    ffb = np.asarray(ffb, dtype=float)
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    n_at_one = design.blocks().sum(axis=0)
    return float(-(n_at_one @ (ffb @ alpha)))


# --------------------------------------------------------------------------
# brute-force oracle
# --------------------------------------------------------------------------

_UNBOUNDED_PROBES = 512


def polytope_vertices(a_pol, b_pol, tol: float = 1e-9) -> np.ndarray:
    """Vertices of {a : A a >= b} by basic-solution enumeration.

    Raises if the set looks unbounded (a recession direction survives a
    deterministic + randomized probe) or has no vertices.
    """
    a_pol = np.atleast_2d(np.asarray(a_pol, dtype=float))
    b_pol = np.atleast_1d(np.asarray(b_pol, dtype=float))
    m, d = a_pol.shape
    if m < d:
        raise ValidationError("fewer constraints than dimensions: unbounded")

    probes = [np.eye(d)[i] for i in range(d)]
    probes += [-p for p in probes]
    for i, j in combinations(range(d), 2):
        for si in (1, -1):
            for sj in (1, -1):
                v = np.zeros(d)
                v[i], v[j] = si, sj
                probes.append(v / np.sqrt(2))
    rng = np.random.default_rng(20240311)
    extra = rng.standard_normal((_UNBOUNDED_PROBES, d))
    probes += list(extra / np.linalg.norm(extra, axis=1, keepdims=True))
    scale = max(1.0, np.abs(a_pol).max())
    for r in probes:
        if np.all(a_pol @ r >= -1e-10 * scale):
            raise ValidationError(
                "attack polytope appears unbounded (recession direction found)")

    verts = []
    bscale = max(1.0, np.abs(b_pol).max())
    for rows in combinations(range(m), d):
        sub = a_pol[list(rows)]
        if np.linalg.matrix_rank(sub, tol=1e-12) < d:
            continue
        cand = np.linalg.solve(sub, b_pol[list(rows)])
        if np.all(a_pol @ cand >= b_pol - tol * bscale):
            verts.append(cand)
    if not verts:
        raise ValidationError("attack polytope has no vertices (empty?)")
    verts = np.array(verts)
    # dedupe
    keep = []
    for v in verts:
        if not any(np.allclose(v, w, atol=1e-9) for w in keep):
            keep.append(v)
    return np.array(keep)


def brute_force_gamma(basis: FeasibleSetBasis, ffb, a_pol, b_pol,
                      points_per_axis: int = 21, edge_samples: int = 5,
                      seed: int = 7):
    """Grid/sampling estimate of the exact maximin value on tiny instances.

    The coefficient ball is gridded through its bounding box (grid points
    outside the ball are radially rescaled onto it), and the attacker side
    is sampled at polytope vertices, edge points, and interior mixtures.
    Returns ``(gamma_bf, tolerance)``. The certified direction is one-sided:
    ``gamma_exact <= gamma_bf + tolerance``, where ``tolerance`` propagates
    the grid resolution through the payoff's Lipschitz constant (the
    alpha-side sampling can only over-estimate the inner minimum, which
    never violates that bound).
    """
    ffb = np.asarray(ffb, dtype=float)
    n_z = basis.n_free
    if n_z > 3:
        raise ValidationError(
            f"brute force supports at most 3 free parameters, got {n_z}")
    if n_z == 0:
        return 0.0, 0.0
    d_n = basis.d_n
    n_r = basis.n_rows
    eta = basis.eta

    verts = polytope_vertices(a_pol, b_pol)
    rng = np.random.default_rng(seed)
    samples = [verts]
    if len(verts) > 1:
        fracs = np.linspace(0.0, 1.0, edge_samples + 2)[1:-1]
        edges = [(1 - t) * verts[i] + t * verts[j]
                 for i, j in combinations(range(len(verts)), 2) for t in fracs]
        samples.append(np.array(edges))
        mix = rng.dirichlet(np.ones(len(verts)), size=32) @ verts
        samples.append(mix)
    alphas = np.vstack(samples)

    # per-alpha gradient matrices: G[a] has rows theta-gradients per block
    gains = np.stack([basis.block(j) @ ffb for j in range(d_n + 1)])  # (d_n+1, n_z, d)
    grad = np.einsum("jzd,ad->ajz", gains, alphas)   # (n_alpha, d_n+1, n_z)

    # grid the bounding box of {theta : ||theta Z||_inf <= eta}
    big = (d_n + 1) * n_r
    radius = np.sqrt(big) * eta
    npts = max(points_per_axis, int(np.ceil(20.0 * radius / eta)) + 1)
    axis = np.linspace(-radius, radius, npts)
    mesh = np.meshgrid(*([axis] * n_z), indexing="ij")
    thetas = np.stack([m.ravel() for m in mesh], axis=1)   # (G, n_z)

    # (n_alpha * (d_n+1), n_z) stacked gradients for one matmul per chunk
    flat_grad = grad.reshape(-1, n_z)
    n_alpha = alphas.shape[0]
    gamma_bf = 0.0
    for lo in range(0, thetas.shape[0], 8192):
        chunk = thetas[lo:lo + 8192]
        # rescale infeasible grid points onto the ball (payoff is linear in
        # theta, so scaling the point scales the payoff)
        norms = np.abs(chunk @ basis.z).max(axis=1)
        scales = np.minimum(1.0, eta / np.maximum(norms, 1e-300))
        payoff = np.abs(chunk @ flat_grad.T).reshape(len(chunk), n_alpha,
                                                     d_n + 1).max(axis=2)
        inner_min = (payoff * scales[:, None]).min(axis=1)
        gamma_bf = max(gamma_bf, float(inner_min.max()))

    # propagated grid tolerance (vertices dominate both convex maxima)
    vert_grad = grad[:len(verts)]
    lipschitz = np.abs(vert_grad).sum(axis=2).max()
    j_ub = eta * np.abs(ffb @ verts.T).sum(axis=0).max()
    z_colsum = np.abs(basis.z).sum(axis=0).max()
    h = axis[1] - axis[0] if npts > 1 else 0.0
    tolerance = 0.5 * h * (lipschitz + z_colsum * j_ub / eta)
    return gamma_bf, float(tolerance)


def build_v(dae: DaeSystem, basis: np.ndarray, alpha: np.ndarray,
            d_n: int) -> np.ndarray:
    """Block-diagonal V(alpha): d_n+1 copies of the column F F_b' alpha."""
    gain = attack_gain(dae, basis)
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.size != gain.shape[1]:
        raise DimensionError(
            f"alpha has length {alpha.size}, expected {gain.shape[1]}")
    col = gain @ alpha
    n_r = gain.shape[0]
    out = np.zeros(((d_n + 1) * n_r, d_n + 1))
    for i in range(d_n + 1):
        out[i * n_r:(i + 1) * n_r, i] = col
    return out


# --------------------------------------------------------------------------
# loop closing
# --------------------------------------------------------------------------

def close_loop_static(a_x, b_d, b_u, c, d_f, gain):
    """Close a static output-feedback loop u = G y around an open-loop model.

    Returns ``(A + B_u G C, B_d, B_u G D_f, C, D_f)``.
    """
    a_x, b_u, c, d_f = (np.asarray(m, dtype=float) for m in (a_x, b_u, c, d_f))
    gain = np.asarray(gain, dtype=float)
    if b_u.shape[1] != gain.shape[0] or gain.shape[1] != c.shape[0]:
        raise DimensionError(
            f"gain {gain.shape} does not connect inputs {b_u.shape[1]} "
            f"to measurements {c.shape[0]}")
    return (a_x + b_u @ gain @ c,
            np.asarray(b_d, dtype=float),
            b_u @ gain @ d_f,
            c, d_f)


def augment_dynamic_controller(plant, controller):
    """Absorb a dynamic output-feedback controller into the plant.

    ``plant`` is ``(A_x, B_d, B_u, C, D_f)``, ``controller`` is the state
    space ``(A_c, B_c, C_c, D_c)`` of ``x_c[k+1] = A_c x_c + B_c y``,
    ``u = C_c x_c + D_c y``. The controller state is appended to the plant
    state and the control signal to the measurement vector, giving a closed
    loop with the same shape as the static case.
    """
    a_x, b_d, b_u, c, d_f = (np.asarray(m, dtype=float) for m in plant)
    a_c, b_c, c_c, d_c = (np.asarray(m, dtype=float) for m in controller)
    n, n_c = a_x.shape[0], a_c.shape[0]
    if b_u.shape[0] != n or c.shape[1] != n:
        raise DimensionError("plant matrices do not share the state dimension")
    if b_c.shape != (n_c, c.shape[0]) or c_c.shape != (b_u.shape[1], n_c):
        raise DimensionError("controller matrices do not fit the plant I/O")

    a_hat = np.block([[a_x + b_u @ d_c @ c, b_u @ c_c],
                      [b_c @ c, a_c]])
    b_d_hat = np.vstack([b_d, np.zeros((n_c, b_d.shape[1]))])
    b_f_hat = np.vstack([b_u @ d_c @ d_f, b_c @ d_f])
    c_hat = np.block([[c, np.zeros((c.shape[0], n_c))],
                      [d_c @ c, c_c]])
    d_f_hat = np.vstack([d_f, d_c @ d_f])
    return a_hat, b_d_hat, b_f_hat, c_hat, d_f_hat
