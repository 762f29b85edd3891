"""The closed-loop LTI model, continuous (``t_s`` = 0) or sampled, and its
zero-order-hold sampling."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ValidationError
from .linalg import expm


class LtiModel:
    """Closed loop dX = A X + B_d d + B_f f (X[k+1] = ... once sampled),
    Y = C X + D_f f; ``t_s`` is the sampling period, 0 for continuous
    time."""

    __slots__ = ("a_cl", "b_d", "b_f", "c", "d_f", "state_labels",
                 "measurement_labels", "attack_labels", "disturbance_labels",
                 "t_s")

    def __init__(self, a_cl: np.ndarray, b_d: np.ndarray, b_f: np.ndarray,
                 c: np.ndarray, d_f: np.ndarray,
                 state_labels: tuple[str, ...],
                 measurement_labels: tuple[str, ...],
                 attack_labels: tuple[str, ...],
                 disturbance_labels: tuple[str, ...], t_s: float = 0.0):
        self.a_cl = a_cl
        self.b_d = b_d
        self.b_f = b_f
        self.c = c
        self.d_f = d_f
        self.state_labels = state_labels
        self.measurement_labels = measurement_labels
        self.attack_labels = attack_labels
        self.disturbance_labels = disturbance_labels
        self.t_s = t_s

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


def zoh_discretize(model: LtiModel, t_s: float) -> LtiModel:
    """Sample the continuous model with piecewise-constant inputs.

    Both input matrices go through the same integral transform as the state
    matrix, computed exactly via the exponential of the augmented block
    matrix ``[[A, B], [0, 0]] * t_s`` (the input integral is the top-right
    block). C, D_f and the labels pass through unchanged. A ``t_s`` not
    in (0, inf), nan included, raises ``ConfigError("t_s", ...)``.
    """
    if model.t_s != 0:
        raise ValidationError(f"model is already sampled at t_s = {model.t_s}")
    if not 0 < t_s < np.inf:
        raise ConfigError("t_s", f"must be finite and > 0, got {t_s!r}")
    n, n_d = model.n_states, model.n_disturbances
    b_all = np.hstack([model.b_d, model.b_f])
    m = b_all.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = model.a_cl
    aug[:n, n:] = b_all
    with np.errstate(over="ignore"):    # expm refuses a non-finite input
        aug *= t_s
    phi = expm(aug)
    return LtiModel(
        phi[:n, :n], phi[:n, n:n + n_d], phi[:n, n + n_d:], model.c,
        model.d_f, model.state_labels, model.measurement_labels,
        model.attack_labels, model.disturbance_labels, float(t_s))
