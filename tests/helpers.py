"""Shared test oracles, independent of the implementation paths they check,
and the ring-model generator."""

from __future__ import annotations

import numpy as np

from agcdiag.agc import AreaParams, GeneratorParams


def fine_step_response(a, b, u, t_s, substeps=10_000):
    """Propagate dx/dt = A x + B u over one sample with RK4 on a fine grid.

    Input held constant (zero-order hold); starts from the origin. Returns
    the state after t_s, i.e. the oracle for one column combination of the
    discretized update x+ = A_d x0 + B_d u with x0 = 0 ... callers pass an
    initial state explicitly.
    """
    h = t_s / substeps

    def deriv(x):
        return a @ x + b @ u

    x = np.zeros(a.shape[0])
    for _ in range(substeps):
        k1 = deriv(x)
        k2 = deriv(x + 0.5 * h * k1)
        k3 = deriv(x + 0.5 * h * k2)
        k4 = deriv(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def fine_step_from(a, b, x0, u, t_s, substeps=10_000):
    """Same oracle with a nonzero initial state."""
    h = t_s / substeps

    def deriv(x):
        return a @ x + b @ u

    x = np.asarray(x0, dtype=float).copy()
    for _ in range(substeps):
        k1 = deriv(x)
        k2 = deriv(x + 0.5 * h * k1)
        k3 = deriv(x + 0.5 * h * k2)
        k4 = deriv(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def poly_mat_multiply(n_coeffs, m_coeffs):
    """Coefficient list of N(q) M(q) by direct convolution.

    ``n_coeffs``: list of row vectors; ``m_coeffs``: list of matrices.
    """
    deg = len(n_coeffs) + len(m_coeffs) - 2
    out = [np.zeros((n_coeffs[0].shape[0] if n_coeffs[0].ndim > 1 else 1,
                     m_coeffs[0].shape[1])) for _ in range(deg + 1)]
    for i, n_i in enumerate(n_coeffs):
        for j, m_j in enumerate(m_coeffs):
            out[i + j] = out[i + j] + np.atleast_2d(n_i) @ m_j
    return out


def random_stable_continuous(rng, order):
    """Random Hurwitz-stable A (shifted spectrum) plus input matrix."""
    a = rng.standard_normal((order, order))
    # push eigenvalues into the open left half plane
    radius = max(abs(np.linalg.eigvals(a)))
    a = a - (radius + 0.5) * np.eye(order)
    b = rng.standard_normal((order, max(1, order // 2)))
    return a, b


def ring_areas(n_areas):
    """A ring of ``n_areas`` AGC areas ``a0 .. a<n-1>``.

    Area i is tied to areas i-1 and i+1 (mod n) with T = 0.2 and has
    inertia 4 + 0.1 i, damping 1.5, bias 22, AGC gain 0.5 and two
    generators (t_ch 0.35 and 0.37, droop 0.05, participation 0.5). The
    lower neighbour is listed first, so area 0's neighbours are not in
    area order.
    """
    gens = (GeneratorParams(0.35, 0.05, 0.5), GeneratorParams(0.37, 0.05, 0.5))
    areas = []
    for i in range(n_areas):
        neighbors = {f"a{j % n_areas}": 0.2 for j in (i - 1, i + 1)
                     if j % n_areas != i}
        areas.append(AreaParams(name=f"a{i}", inertia=4.0 + 0.1 * i,
                                damping=1.5, bias=22.0, agc_gain=0.5,
                                neighbors=neighbors, generators=gens))
    return areas


def ring_attacked(n_areas):
    """The attacked measurements of a ring model: in areas 0 and 1, the tie
    flow to the next area and the tie total (``a0.tie_a1``, ``a0.tie_total``,
    ``a1.tie_a2``, ``a1.tie_total`` from three areas on)."""
    labels = []
    for i in range(min(n_areas, 2)):
        if n_areas > 1:
            labels.append(f"a{i}.tie_a{(i + 1) % n_areas}")
        labels.append(f"a{i}.tie_total")
    return tuple(labels)
