import hashlib

import numpy as np
import pytest

from agcdiag.agc import AreaParams, GeneratorParams, assemble_system
from agcdiag.errors import ValidationError

from helpers import ring_areas, ring_attacked
from oracles import augment_dynamic_controller, close_loop_static


def two_gen_area():
    return AreaParams(
        name="area1", inertia=5.0, damping=1.0, bias=20.0, agc_gain=0.3,
        neighbors={"area2": 0.545, "area3": 0.5},
        generators=(GeneratorParams(0.3, 0.05, 0.5),
                    GeneratorParams(0.4, 0.05, 0.5)))


def small_system(attacked=()):
    """``two_gen_area`` tied to two one-generator areas."""
    partners = [AreaParams(name=name, inertia=4.0, damping=1.0, bias=20.0,
                           agc_gain=0.5, neighbors={"area1": t},
                           generators=(GeneratorParams(0.3, 0.05, 1.0),))
                for name, t in (("area2", 0.545), ("area3", 0.5))]
    return assemble_system([two_gen_area()] + partners, attacked)


def area_slices(model, name):
    """The state and measurement rows of one area."""
    def span(labels):
        own = [i for i, lab in enumerate(labels)
               if lab.startswith(name + ".")]
        return slice(own[0], own[-1] + 1)
    return span(model.state_labels), span(model.measurement_labels)


class TestBuildArea:
    """One area's rows and columns inside an assembled system."""

    def test_two_generator_pattern(self):
        # state order [tie12, tie13, freq, g1, g2, agc]; every entry follows
        # the block pattern of the linearized swing/governor/ACE equations
        p = two_gen_area()
        model = small_system()
        xs, _ = area_slices(model, "area1")
        a = model.a_cl[xs, xs]
        t12, t13 = p.neighbors["area2"], p.neighbors["area3"]
        h2 = 2 * p.inertia
        expected = np.array([
            [0, 0, t12, 0, 0, 0],
            [0, 0, t13, 0, 0, 0],
            [-1 / h2, -1 / h2, -p.damping / h2, 1 / h2, 1 / h2, 0],
            [0, 0, -1 / (0.3 * 0.05), -1 / 0.3, 0, 0.5 / 0.3],
            [0, 0, -1 / (0.4 * 0.05), 0, -1 / 0.4, 0.5 / 0.4],
            [-0.3, -0.3, -0.3 * 20.0, 0, 0, 0],
        ])
        assert np.allclose(a, expected, atol=1e-14)
        assert np.allclose(model.b_d[xs, 0], [0, 0, -1 / h2, 0, 0, 0])

    def test_zero_generator_area(self):
        p = AreaParams(name="a", inertia=4.0, damping=1.0, bias=20.0,
                       agc_gain=0.5, neighbors={"b": 0.1})
        q = AreaParams(name="b", inertia=4.0, damping=1.0, bias=20.0,
                       agc_gain=0.5, neighbors={"a": 0.1})
        model = assemble_system([p, q])
        xs, _ = area_slices(model, "a")
        assert model.a_cl[xs, xs].shape == (3, 3)   # tie, freq, agc
        assert list(model.state_labels[xs]) == ["a.tie_b", "a.freq", "a.agc"]

    def test_attack_column_placement(self):
        # 2-generator area, 8 measurements; tie12/tie13/tie_total attacked:
        # D_f columns select measurement rows 0, 1, 6 and the tie totals do
        # not feed the AGC integrator
        p = two_gen_area()
        attacked = ("area1.tie_area2", "area1.tie_area3", "area1.tie_total")
        model = small_system(attacked)
        xs, ys = area_slices(model, "area1")
        d_f, b_f = model.d_f[ys], model.b_f[xs]
        assert d_f.shape == (8, 3)
        rows = [int(np.argmax(d_f[:, j])) for j in range(3)]
        assert rows == [0, 1, 6]
        agc_row = 5
        assert b_f[agc_row, 0] == pytest.approx(-p.agc_gain)
        assert b_f[agc_row, 1] == pytest.approx(-p.agc_gain)
        assert b_f[agc_row, 2] == 0.0
        assert np.abs(np.delete(b_f, agc_row, axis=0)).max() == 0.0

    def test_attacked_frequency_enters_the_ace_through_the_bias(self):
        # ACE = ties + bias * freq, so a corrupted frequency reading moves
        # the AGC integrator by -agc_gain * bias
        p = two_gen_area()
        model = small_system(("area1.freq",))
        xs, _ = area_slices(model, "area1")
        b_f = model.b_f[xs]
        agc_row = 5
        assert b_f[agc_row, 0] == -p.agc_gain * p.bias
        assert np.abs(np.delete(b_f, agc_row, axis=0)).max() == 0.0

    def test_unknown_attacked_label_rejected(self):
        with pytest.raises(ValidationError, match="nope"):
            small_system(("area1.nope",))

    def test_participation_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="participation"):
            AreaParams(name="x", inertia=3.0, damping=1.0, bias=20.0,
                       agc_gain=0.5,
                       generators=(GeneratorParams(0.3, 0.05, 0.6),
                                   GeneratorParams(0.3, 0.05, 0.6)))


def model_digest(model) -> str:
    """sha256 of the five matrices (shape and little-endian bytes) and the
    four label tuples."""
    h = hashlib.sha256()
    for arr in (model.a_cl, model.b_d, model.b_f, model.c, model.d_f):
        h.update(repr(arr.shape).encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    for labels in (model.state_labels, model.measurement_labels,
                   model.attack_labels, model.disturbance_labels):
        h.update(("\n".join(labels) + "\n\n").encode())
    return h.hexdigest()


# recorded with the earlier two-stage builder (per-area blocks copied into
# the global arrays); the one-pass builder must keep every bit
RING_DIGESTS = {
    1: "e9630f65a670d2eaee96081aebb7f53c716b4f763e7a79a6fd0607827e617c87",
    2: "84b6b7da51c72e393ee8b489fedfdbdad9fb7f2ec759e2a5d9a278b0bdc13d06",
    4: "587d420d105aeedae6de59f0e3453148d586557bc793bda9f5cc527b4b37a842",
    6: "e1f82c71d132e067eea6245f1ff46e434ef1900fa6392f8645a1902fae68df6e",
}


@pytest.mark.parametrize("n_areas", sorted(RING_DIGESTS))
def test_ring_model_bits_are_pinned(n_areas):
    model = assemble_system(ring_areas(n_areas), ring_attacked(n_areas))
    assert model_digest(model) == RING_DIGESTS[n_areas]


class TestAssemble:
    def test_default_is_19th_order(self, chain):
        assert chain.model.n_states == 19
        assert chain.model.n_measurements == 25

    def test_measurement_count_formula(self, chain):
        # n_Y = sum over areas of (neighbors + generators + 2 + 2)
        expected = sum(len(a["neighbors"]) + len(a["generators"]) + 4
                       for a in chain.cfg["model"]["areas"])
        assert chain.model.n_measurements == expected

    def test_single_isolated_area(self):
        p = AreaParams(name="solo", inertia=4.0, damping=1.0, bias=21.0,
                       agc_gain=0.4,
                       generators=(GeneratorParams(0.3, 0.05, 1.0),))
        model = assemble_system([p])
        assert model.n_states == 3
        assert all(not lab.startswith("solo.tie") for lab in model.state_labels)

    def test_two_symmetric_areas_coupling(self):
        mk = lambda name, other: AreaParams(
            name=name, inertia=4.0, damping=1.0, bias=20.0, agc_gain=0.5,
            neighbors={other: 0.1},
            generators=(GeneratorParams(0.3, 0.05, 1.0),))
        model = assemble_system([mk("a", "b"), mk("b", "a")])
        labels = list(model.state_labels)
        r_ab = labels.index("a.tie_b")
        c_fb = labels.index("b.freq")
        r_ba = labels.index("b.tie_a")
        c_fa = labels.index("a.freq")
        assert model.a_cl[r_ab, c_fb] == pytest.approx(-0.1)
        assert model.a_cl[r_ba, c_fa] == pytest.approx(-0.1)

    def test_asymmetric_topology_rejected(self):
        a = AreaParams(name="a", inertia=4.0, damping=1.0, bias=20.0,
                       agc_gain=0.5, neighbors={"b": 0.1},
                       generators=(GeneratorParams(0.3, 0.05, 1.0),))
        b = AreaParams(name="b", inertia=4.0, damping=1.0, bias=20.0,
                       agc_gain=0.5, generators=(GeneratorParams(0.3, 0.05, 1.0),))
        with pytest.raises(ValidationError, match="asymmetric"):
            assemble_system([a, b])

    def test_tie_coefficient_mismatch_rejected(self):
        a = AreaParams(name="a", inertia=4.0, damping=1.0, bias=20.0,
                       agc_gain=0.5, neighbors={"b": 0.1},
                       generators=(GeneratorParams(0.3, 0.05, 1.0),))
        b = AreaParams(name="b", inertia=4.0, damping=1.0, bias=20.0,
                       agc_gain=0.5, neighbors={"a": 0.2},
                       generators=(GeneratorParams(0.3, 0.05, 1.0),))
        with pytest.raises(ValidationError, match="mismatch"):
            assemble_system([a, b])

    def test_duplicate_area_names_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            assemble_system([two_gen_area(), two_gen_area()])

    def test_unknown_neighbor_rejected(self):
        # two_gen_area lists area2 and area3, which are not configured
        with pytest.raises(ValidationError, match="unknown neighbor 'area2'"):
            assemble_system([two_gen_area()])

    def test_self_neighbor_rejected(self):
        a = AreaParams(name="a", inertia=4.0, damping=1.0, bias=20.0,
                       agc_gain=0.5, neighbors={"a": 0.1},
                       generators=(GeneratorParams(0.3, 0.05, 1.0),))
        with pytest.raises(ValidationError, match="itself"):
            assemble_system([a])

    def test_frequency_and_ace_rows(self, chain):
        model = chain.model
        labels = list(model.state_labels)
        for area_cfg in chain.cfg["model"]["areas"]:
            name = area_cfg["name"]
            two_h = 2 * area_cfg["inertia"]
            k_i = area_cfg["agc_gain"]
            fr = labels.index(f"{name}.freq")
            ar = labels.index(f"{name}.agc")
            ties = [i for i, lab in enumerate(labels)
                    if lab.startswith(f"{name}.tie_")]
            gens = [i for i, lab in enumerate(labels)
                    if lab.startswith(f"{name}.gen")]
            for t in ties:
                assert model.a_cl[fr, t] == pytest.approx(-1 / two_h)
                assert model.a_cl[ar, t] == pytest.approx(-k_i)
            for g in gens:
                assert model.a_cl[fr, g] == pytest.approx(1 / two_h)
            assert model.a_cl[fr, fr] == pytest.approx(
                -area_cfg["damping"] / two_h)
            assert model.a_cl[ar, fr] == pytest.approx(-k_i * area_cfg["bias"])
            # ACE row has nothing outside tie and frequency columns
            others = [i for i in range(model.n_states)
                      if i not in ties and i != fr]
            assert np.abs(model.a_cl[ar, others]).max() == 0.0

    def test_marginal_modes_are_unreachable_tie_invariants(self, chain):
        # tie-state derivatives live in the span of frequency differences,
        # so 6 tie states minus (areas - 1) leaves 4 exactly-zero modes;
        # every one is orthogonal to both input maps (never excited) and
        # the rest of the spectrum is strictly stable
        from agcdiag.linalg import left_null_basis
        model = chain.model
        eig = np.linalg.eigvals(model.a_cl)
        marginal = np.abs(eig) < 1e-9
        assert int(marginal.sum()) == 6 - (3 - 1)
        assert np.all(eig[~marginal].real < -1e-6)
        null = left_null_basis(model.a_cl, 1e-11)
        assert null.shape[0] == 4
        assert np.abs(null @ model.b_d).max() <= 1e-12
        assert np.abs(null @ model.b_f).max() <= 1e-12
        labels = list(model.state_labels)
        non_tie = [i for i, lab in enumerate(labels) if ".tie_" not in lab]
        assert np.abs(null[:, non_tie]).max() <= 1e-12
        # each tie-pair sum is one of the conserved quantities
        for a, b in (("area1", "area2"), ("area1", "area3"),
                     ("area2", "area3")):
            w = np.zeros(model.n_states)
            w[labels.index(f"{a}.tie_{b}")] = 1.0
            w[labels.index(f"{b}.tie_{a}")] = 1.0
            assert np.abs(w @ model.a_cl).max() <= 1e-12


class TestLoopClosing:
    def test_zero_gain_is_open_loop(self):
        a = np.array([[0.5]])
        out = close_loop_static(a, np.eye(1), np.eye(1), np.eye(1),
                                np.eye(1), np.zeros((1, 1)))
        assert out[0] == pytest.approx(0.5)
        assert out[2] == pytest.approx(0.0)

    def test_scalar_closed_loop(self):
        out = close_loop_static([[0.5]], [[1.0]], [[1.0]], [[1.0]],
                                [[1.0]], [[-0.2]])
        assert out[0][0, 0] == pytest.approx(0.3)
        assert out[2][0, 0] == pytest.approx(-0.2)

    def test_no_attacked_measurements_means_no_state_coupling(self):
        rng = np.random.default_rng(1)
        a, b_u, c = rng.standard_normal((3, 3)), rng.standard_normal((3, 2)), \
            rng.standard_normal((4, 3))
        d_f = np.zeros((4, 2))
        g = rng.standard_normal((2, 4))
        out = close_loop_static(a, np.eye(3), b_u, c, d_f, g)
        assert np.abs(out[2]).max() == 0.0

    def test_static_controller_embeds(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        b_d = rng.standard_normal((3, 1))
        b_u = rng.standard_normal((3, 2))
        c = rng.standard_normal((4, 3))
        d_f = rng.standard_normal((4, 2))
        g = rng.standard_normal((2, 4))
        static = close_loop_static(a, b_d, b_u, c, d_f, g)
        augmented = augment_dynamic_controller(
            (a, b_d, b_u, c, d_f),
            (np.zeros((0, 0)), np.zeros((0, 4)), np.zeros((2, 0)), g))
        assert np.allclose(augmented[0], static[0])
        assert np.allclose(augmented[2], static[2])

    def test_zero_controller(self):
        a = np.diag([0.5, 0.2])
        out = augment_dynamic_controller(
            (a, np.eye(2), np.eye(2), np.eye(2), np.eye(2)),
            (np.zeros((1, 1)), np.zeros((1, 2)), np.zeros((2, 1)),
             np.zeros((2, 2))))
        assert np.allclose(out[0], np.block([[a, np.zeros((2, 1))],
                                             [np.zeros((1, 3))]]))
        assert np.abs(out[2][:2]).max() == 0.0

    def test_scalar_hand_substitution(self):
        a_c, b_c, c_c, d_c = 0.7, 0.4, 0.9, 2.0
        out = augment_dynamic_controller(
            ([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]]),
            ([[a_c]], [[b_c]], [[c_c]], [[d_c]]))
        assert np.allclose(out[0], [[3.0, c_c], [b_c, a_c]])


class TestBlockStructure:
    def test_measurement_and_attack_maps_are_block_diagonal(self, chain):
        model = chain.model
        bounds = []
        r0 = c0 = f0 = 0
        for area_cfg in chain.cfg["model"]["areas"]:
            n_i = len(area_cfg["neighbors"]) + 2 + len(area_cfg["generators"])
            n_yi = len(area_cfg["neighbors"]) + len(area_cfg["generators"]) + 4
            n_fi = sum(1 for lab in chain.cfg["model"]["attacked_measurements"]
                       if lab.startswith(area_cfg["name"] + "."))
            bounds.append((r0, r0 + n_yi, c0, c0 + n_i, f0, f0 + n_fi))
            r0, c0, f0 = r0 + n_yi, c0 + n_i, f0 + n_fi
        outside_c = model.c.copy()
        outside_d = model.d_f.copy()
        outside_bd = model.b_d.copy()
        for i, (ra, rb, ca, cb, fa, fb) in enumerate(bounds):
            outside_c[ra:rb, ca:cb] = 0.0
            outside_d[ra:rb, fa:fb] = 0.0
            outside_bd[ca:cb, i] = 0.0
        assert np.abs(outside_c).max() == 0.0
        assert np.abs(outside_d).max() == 0.0
        assert np.abs(outside_bd).max() == 0.0
