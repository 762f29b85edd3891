"""Zero-order-hold discretization of the continuous closed loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agc import ContinuousModel
from .errors import ValidationError
from .linalg import expm


@dataclass(frozen=True)
class DiscreteLtiModel:
    """Sampled closed loop: X[k+1] = A X[k] + B_d d[k] + B_f f[k],
    Y[k] = C X[k] + D_f f[k]."""

    a_cl: np.ndarray
    b_d: np.ndarray
    b_f: np.ndarray
    c: np.ndarray
    d_f: np.ndarray
    t_s: float
    state_labels: tuple[str, ...] = ()
    measurement_labels: tuple[str, ...] = ()
    attack_labels: tuple[str, ...] = ()
    disturbance_labels: tuple[str, ...] = ()

    @property
    def n_states(self) -> int:
        return self.a_cl.shape[0]

    @property
    def n_measurements(self) -> int:
        return self.c.shape[0]

    @property
    def n_disturbances(self) -> int:
        return self.b_d.shape[1]

    @property
    def n_attacks(self) -> int:
        return self.d_f.shape[1]


def zoh_discretize(model: ContinuousModel, t_s: float) -> DiscreteLtiModel:
    """Sample the continuous model with piecewise-constant inputs.

    Both input matrices go through the same integral transform as the state
    matrix, computed exactly via the exponential of the augmented block
    matrix ``[[A, B], [0, 0]] * t_s`` (the input integral is the top-right
    block). C and D_f pass through unchanged.
    """
    if t_s <= 0:
        raise ValidationError(f"sampling period must be > 0, got {t_s}")
    n = model.n_states
    b_all = np.hstack([model.b_d, model.b_f])
    m = b_all.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = model.a_cl
    aug[:n, n:] = b_all
    phi = expm(aug * t_s)
    n_d = model.b_d.shape[1]
    return DiscreteLtiModel(
        a_cl=phi[:n, :n],
        b_d=phi[:n, n:n + n_d],
        b_f=phi[:n, n + n_d:],
        c=model.c.copy(),
        d_f=model.d_f.copy(),
        t_s=float(t_s),
        state_labels=model.state_labels,
        measurement_labels=model.measurement_labels,
        attack_labels=model.attack_labels,
        disturbance_labels=model.disturbance_labels,
    )
