"""Multi-area AGC closed-loop model builder.

Per-area state ordering is ``[tie flows to each neighbor, frequency,
generator outputs, AGC integrator]``; measurements additionally expose the
per-area tie-flow and generation totals, giving the redundancy the static
detector relies on. The AGC integrator is part of the state, so the
assembled continuous model is already the closed loop.

Measurement labels are ``<area>.tie_<neighbor>``, ``<area>.freq``,
``<area>.gen<k>``, ``<area>.agc``, ``<area>.tie_total``, ``<area>.gen_total``;
state labels reuse the first four forms. Attack channels are ordered by
(area position, measurement position) regardless of configuration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

PARTICIPATION_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorParams:
    """One turbine-governor unit participating in AGC."""

    t_ch: float          # governor-turbine time constant (s)
    droop: float         # proportional frequency droop (p.u.)
    participation: float  # share of the area AGC signal

    def __post_init__(self):
        if self.t_ch <= 0:
            raise ValidationError(f"turbine time constant must be > 0, got {self.t_ch}")
        if self.droop <= 0:
            raise ValidationError(f"droop must be > 0, got {self.droop}")


@dataclass(frozen=True)
class AreaParams:
    """Physical and control parameters of one control area."""

    name: str
    inertia: float        # equivalent inertia H (s)
    damping: float        # load damping D (p.u./Hz)
    bias: float           # frequency bias B (p.u./Hz)
    agc_gain: float       # integral gain K_I (1/s)
    neighbors: dict[str, float] = field(default_factory=dict)  # name -> T_ij
    generators: tuple[GeneratorParams, ...] = ()

    def __post_init__(self):
        if self.inertia <= 0:
            raise ValidationError(f"{self.name}: inertia must be > 0")
        if self.generators:
            total = sum(g.participation for g in self.generators)
            if abs(total - 1.0) > PARTICIPATION_TOL:
                raise ValidationError(
                    f"{self.name}: participation factors sum to {total!r}, not 1")

    @property
    def n_states(self) -> int:
        return len(self.neighbors) + 2 + len(self.generators)


@dataclass(frozen=True)
class AreaBlocks:
    """Per-area matrices before system assembly."""

    a_ii: np.ndarray
    a_ij: dict[str, np.ndarray]
    b_d: np.ndarray
    c: np.ndarray
    d_f: np.ndarray
    b_f: np.ndarray
    state_labels: list[str]
    measurement_labels: list[str]
    attack_labels: list[str]


@dataclass(frozen=True)
class ContinuousModel:
    """Assembled continuous-time closed loop: dX = A X + B_d d + B_f f,
    Y = C X + D_f f."""

    a_cl: np.ndarray
    b_d: np.ndarray
    b_f: np.ndarray
    c: np.ndarray
    d_f: np.ndarray
    state_labels: tuple[str, ...]
    measurement_labels: tuple[str, ...]
    attack_labels: tuple[str, ...]
    disturbance_labels: tuple[str, ...]

    @property
    def n_states(self) -> int:
        return self.a_cl.shape[0]

    @property
    def n_measurements(self) -> int:
        return self.c.shape[0]

    @property
    def n_attacks(self) -> int:
        return self.d_f.shape[1]


def _ordered_neighbors(area: AreaParams, order: list[str]) -> list[str]:
    unknown = set(area.neighbors) - set(order)
    if unknown:
        raise ValidationError(
            f"{area.name}: neighbors {sorted(unknown)} are not configured areas")
    return sorted(area.neighbors, key=order.index)


def _measurement_labels(area: AreaParams, nbrs: list[str]) -> list[str]:
    labels = [f"{area.name}.tie_{nb}" for nb in nbrs]
    labels.append(f"{area.name}.freq")
    labels += [f"{area.name}.gen{g + 1}" for g in range(len(area.generators))]
    labels.append(f"{area.name}.agc")
    labels.append(f"{area.name}.tie_total")
    labels.append(f"{area.name}.gen_total")
    return labels


def _ace_weight(area: AreaParams, measurement: str) -> float:
    """How strongly an attacked measurement corrupts the area's ACE."""
    local = measurement.split(".", 1)[1]
    if local.startswith("tie_") and local != "tie_total":
        return 1.0
    if local == "freq":
        return area.bias
    return 0.0


def build_area(area: AreaParams, attacked: tuple[str, ...] = (),
               neighbor_layout: dict[str, tuple[int, int]] | None = None,
               area_order: list[str] | None = None) -> AreaBlocks:
    """Build the per-area blocks.

    ``neighbor_layout`` maps a neighbor name to ``(n_states_j, freq_col_j)``
    so the coupling blocks ``A_ij`` (single ``-T_ij`` entry in the matching
    tie row at the neighbor's frequency column) can be shaped; omit it to
    skip coupling blocks when building an area in isolation.
    """
    order = area_order if area_order is not None else (
        [area.name] + sorted(area.neighbors))
    nbrs = _ordered_neighbors(area, order)
    ne, ng = len(nbrs), len(area.generators)
    n = area.n_states
    freq = ne
    agc = ne + 1 + ng

    a = np.zeros((n, n))
    two_h = 2.0 * area.inertia
    for r, nb in enumerate(nbrs):
        a[r, freq] = area.neighbors[nb]
    a[freq, :ne] = -1.0 / two_h
    a[freq, freq] = -area.damping / two_h
    a[freq, freq + 1:freq + 1 + ng] = 1.0 / two_h
    for g, gen in enumerate(area.generators):
        r = freq + 1 + g
        a[r, freq] = -1.0 / (gen.t_ch * gen.droop)
        a[r, r] = -1.0 / gen.t_ch
        a[r, agc] = gen.participation / gen.t_ch
    a[agc, :ne] = -area.agc_gain
    a[agc, freq] = -area.agc_gain * area.bias

    b_d = np.zeros((n, 1))
    b_d[freq, 0] = -1.0 / two_h

    meas = _measurement_labels(area, nbrs)
    c = np.zeros((len(meas), n))
    c[:agc + 1, :] = np.eye(n)           # every state measured directly
    c[agc + 1, :ne] = 1.0                # tie total
    c[agc + 2, freq + 1:freq + 1 + ng] = 1.0  # generation total

    attack_labels = [lab for lab in meas if lab in attacked]
    missing = set(attacked) - set(meas)
    if missing:
        raise ValidationError(
            f"{area.name}: attacked labels {sorted(missing)} not in this "
            f"area's measurements")
    d_f = np.zeros((len(meas), len(attack_labels)))
    b_f = np.zeros((n, len(attack_labels)))
    for j, lab in enumerate(attack_labels):
        d_f[meas.index(lab), j] = 1.0
        b_f[agc, j] = -area.agc_gain * _ace_weight(area, lab)

    a_ij = {}
    if neighbor_layout is not None:
        for r, nb in enumerate(nbrs):
            n_j, freq_j = neighbor_layout[nb]
            block = np.zeros((n, n_j))
            block[r, freq_j] = -area.neighbors[nb]
            a_ij[nb] = block

    states = [f"{area.name}.tie_{nb}" for nb in nbrs]
    states.append(f"{area.name}.freq")
    states += [f"{area.name}.gen{g + 1}" for g in range(ng)]
    states.append(f"{area.name}.agc")
    return AreaBlocks(a, a_ij, b_d, c, d_f, b_f, states, meas, attack_labels)


def assemble_system(areas: list[AreaParams],
                    attacked_measurements: tuple[str, ...] = ()) -> ContinuousModel:
    """Assemble the multi-area continuous closed loop from per-area blocks."""
    order = [a.name for a in areas]
    if len(set(order)) != len(order):
        raise ValidationError("area names must be unique")
    by_name = {a.name: a for a in areas}
    for a in areas:
        for nb, t in a.neighbors.items():
            if nb not in by_name:
                raise ValidationError(f"{a.name}: unknown neighbor {nb!r}")
            back = by_name[nb].neighbors.get(a.name)
            if back is None:
                raise ValidationError(
                    f"topology asymmetric: {a.name} lists {nb} but not vice versa")
            if back != t:
                raise ValidationError(
                    f"T_ij mismatch between {a.name} and {nb}: {t} vs {back}")

    layout = {}
    offset = 0
    for a in areas:
        nbrs = _ordered_neighbors(a, order)
        layout[a.name] = (a.n_states, len(nbrs), offset)
        offset += a.n_states
    n_x = offset

    attacked = set(attacked_measurements)
    blocks = []
    for a in areas:
        own = {lab for lab in attacked if lab.startswith(a.name + ".")}
        nb_layout = {nb: (layout[nb][0], layout[nb][1]) for nb in a.neighbors}
        blocks.append(build_area(a, tuple(own), nb_layout, order))
    claimed = set()
    for blk in blocks:
        claimed |= set(blk.attack_labels)
    unknown = attacked - claimed
    if unknown:
        raise ValidationError(
            f"attacked labels {sorted(unknown)} match no configured measurement")

    a_cl = np.zeros((n_x, n_x))
    state_labels, meas_labels, attack_labels = [], [], []
    b_d = np.zeros((n_x, len(areas)))
    for ai, (a, blk) in enumerate(zip(areas, blocks)):
        n_i, _, off = layout[a.name]
        a_cl[off:off + n_i, off:off + n_i] = blk.a_ii
        for nb, coupling in blk.a_ij.items():
            off_j = layout[nb][2]
            a_cl[off:off + n_i, off_j:off_j + coupling.shape[1]] = coupling
        b_d[off:off + n_i, ai] = blk.b_d[:, 0]
        state_labels += blk.state_labels
        meas_labels += blk.measurement_labels
        attack_labels += blk.attack_labels

    n_y = len(meas_labels)
    n_f = len(attack_labels)
    c = np.zeros((n_y, n_x))
    d_f = np.zeros((n_y, n_f))
    b_f = np.zeros((n_x, n_f))
    r0 = 0
    f0 = 0
    for a, blk in zip(areas, blocks):
        n_i, _, off = layout[a.name]
        rows = blk.c.shape[0]
        cols = blk.d_f.shape[1]
        c[r0:r0 + rows, off:off + n_i] = blk.c
        d_f[r0:r0 + rows, f0:f0 + cols] = blk.d_f
        b_f[off:off + n_i, f0:f0 + cols] = blk.b_f
        r0 += rows
        f0 += cols

    return ContinuousModel(
        a_cl, b_d, b_f, c, d_f,
        tuple(state_labels), tuple(meas_labels), tuple(attack_labels),
        tuple(f"{a.name}.load" for a in areas))
