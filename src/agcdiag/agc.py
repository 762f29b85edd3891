"""Multi-area AGC closed-loop model builder.

``assemble_system`` writes every area's rows straight into the global
matrices in one pass. Areas are laid out in configuration order; an
area's states are ``[tie flows to each neighbor (in area order),
frequency, generator outputs, AGC integrator]``. Its measurements are its
states followed by the tie-flow and generation totals (C is the identity
stacked over the two total rows), giving the redundancy the static
detector relies on. The AGC integrator is part of the state, so the
assembled continuous model (``t_s`` = 0) is already the closed loop.

Measurement labels are ``<area>.tie_<neighbor>``, ``<area>.freq``,
``<area>.gen<k>``, ``<area>.agc``, ``<area>.tie_total``, ``<area>.gen_total``;
state labels are the first four forms. Attack channels are ordered by
(area position, measurement position) regardless of configuration order.
"""

from __future__ import annotations

import numpy as np

from .discretize import LtiModel
from .errors import ConfigError, ValidationError

PARTICIPATION_TOL = 1e-12


class GeneratorParams:
    """One turbine-governor unit participating in AGC."""

    __slots__ = ("t_ch", "droop", "participation")

    def __init__(self, t_ch: float, droop: float, participation: float):
        if t_ch <= 0:
            raise ValidationError(f"turbine time constant must be > 0, got {t_ch}")
        if droop <= 0:
            raise ValidationError(f"droop must be > 0, got {droop}")
        self.t_ch = t_ch          # governor-turbine time constant (s)
        self.droop = droop        # proportional frequency droop (p.u.)
        self.participation = participation  # share of the area AGC signal


class AreaParams:
    """Physical and control parameters of one control area."""

    __slots__ = ("name", "inertia", "damping", "bias", "agc_gain",
                 "neighbors", "generators")

    def __init__(self, name: str, inertia: float, damping: float,
                 bias: float, agc_gain: float,
                 neighbors: dict[str, float] | None = None,
                 generators: tuple[GeneratorParams, ...] = ()):
        if inertia <= 0:
            raise ValidationError(f"{name}: inertia must be > 0")
        if generators:
            total = sum(g.participation for g in generators)
            if abs(total - 1.0) > PARTICIPATION_TOL:
                raise ValidationError(
                    f"{name}: participation factors sum to {total!r}, not 1")
        self.name = name
        self.inertia = inertia    # equivalent inertia H (s)
        self.damping = damping    # load damping D (p.u./Hz)
        self.bias = bias          # frequency bias B (p.u./Hz)
        self.agc_gain = agc_gain  # integral gain K_I (1/s)
        self.neighbors = {} if neighbors is None else neighbors  # -> T_ij
        self.generators = generators

    @property
    def n_states(self) -> int:
        return len(self.neighbors) + 2 + len(self.generators)


def _local_labels(area: AreaParams, nbrs: list[str]) -> list[str]:
    """The area's measurement labels without the ``<area>.`` prefix: its
    states, then the tie-flow and generation totals."""
    return ([f"tie_{nb}" for nb in nbrs] + ["freq"]
            + [f"gen{g + 1}" for g in range(len(area.generators))]
            + ["agc", "tie_total", "gen_total"])


def _ace_weight(area: AreaParams, local: str) -> float:
    """How strongly an attacked measurement corrupts the area's ACE."""
    if local.startswith("tie_") and local != "tie_total":
        return 1.0
    if local == "freq":
        return area.bias
    return 0.0


def assemble_system(areas: list[AreaParams],
                    attacked_measurements: tuple[str, ...] = ()) -> LtiModel:
    """Assemble the multi-area continuous closed loop (``t_s`` = 0).

    Each area's rows are written straight into the global matrices at the
    area's state offset; the tie row to neighbour j carries ``T_ij`` at the
    area's own frequency column and ``-T_ij`` at j's. A bad topology or
    attacked label raises ``ConfigError`` naming its argument.
    """
    names = [a.name for a in areas]
    if len(set(names)) != len(names):
        raise ConfigError("areas", "area names must be unique")
    by_name = {a.name: a for a in areas}
    for a in areas:
        for nb, t in a.neighbors.items():
            if nb not in by_name:
                raise ConfigError("areas", f"{a.name}: unknown neighbor {nb!r}")
            if nb == a.name:
                raise ConfigError("areas", f"{a.name}: lists itself as a neighbor")
            back = by_name[nb].neighbors.get(a.name)
            if back is None:
                raise ConfigError("areas", f"topology asymmetric: {a.name} "
                                           f"lists {nb} but not vice versa")
            if back != t:
                raise ConfigError("areas", f"T_ij mismatch between {a.name} "
                                           f"and {nb}: {t} vs {back}")

    position = {name: i for i, name in enumerate(names)}
    nbrs = {a.name: sorted(a.neighbors, key=position.__getitem__)
            for a in areas}
    local = {a.name: _local_labels(a, nbrs[a.name]) for a in areas}
    offset, n_x = {}, 0
    for a in areas:
        offset[a.name], n_x = n_x, n_x + a.n_states
    freq_col = {a.name: offset[a.name] + len(nbrs[a.name]) for a in areas}

    state_labels = [f"{a.name}.{lab}" for a in areas
                    for lab in local[a.name][:a.n_states]]
    meas_labels = [f"{a.name}.{lab}" for a in areas for lab in local[a.name]]
    attacked = set(attacked_measurements)
    unknown = attacked - set(meas_labels)
    if unknown:
        raise ConfigError("attacked_measurements", f"attacked labels "
                          f"{sorted(unknown)} match no configured measurement")
    attack_labels = [lab for lab in meas_labels if lab in attacked]

    n_y, n_f = len(meas_labels), len(attack_labels)
    a_cl = np.zeros((n_x, n_x))
    b_d = np.zeros((n_x, len(areas)))
    b_f = np.zeros((n_x, n_f))
    c = np.zeros((n_y, n_x))
    d_f = np.zeros((n_y, n_f))
    row = col = 0          # the area's first measurement row, attack column
    for ai, a in enumerate(areas):
        off, n, freq = offset[a.name], a.n_states, freq_col[a.name]
        agc = off + n - 1
        two_h = 2.0 * a.inertia
        for r, nb in enumerate(nbrs[a.name]):
            a_cl[off + r, freq] = a.neighbors[nb]
            a_cl[off + r, freq_col[nb]] = -a.neighbors[nb]
        a_cl[freq, off:freq] = -1.0 / two_h
        a_cl[freq, freq] = -a.damping / two_h
        a_cl[freq, freq + 1:agc] = 1.0 / two_h
        for g, gen in enumerate(a.generators):
            r = freq + 1 + g
            a_cl[r, freq] = -1.0 / (gen.t_ch * gen.droop)
            a_cl[r, r] = -1.0 / gen.t_ch
            a_cl[r, agc] = gen.participation / gen.t_ch
        a_cl[agc, off:freq] = -a.agc_gain
        a_cl[agc, freq] = -a.agc_gain * a.bias
        b_d[freq, ai] = -1.0 / two_h

        # C: every state measured directly, then the tie and generation totals
        c[row:row + n, off:off + n] = np.eye(n)
        c[row + n, off:freq] = 1.0
        c[row + n + 1, freq + 1:agc] = 1.0
        for k, lab in enumerate(local[a.name]):
            if f"{a.name}.{lab}" in attacked:
                d_f[row + k, col] = 1.0
                b_f[agc, col] = -a.agc_gain * _ace_weight(a, lab)
                col += 1
        row += n + 2

    return LtiModel(
        a_cl, b_d, b_f, c, d_f,
        tuple(state_labels), tuple(meas_labels), tuple(attack_labels),
        tuple(f"{a.name}.load" for a in areas))
