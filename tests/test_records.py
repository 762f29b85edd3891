"""The record contract: the package's 12 record classes are plain
``__slots__`` classes whose constructors keep the parameter names, order
and required/optional split they had as dataclasses."""

import inspect

import numpy as np
import pytest

from agcdiag import agc, attacks, dae, design, discretize, lp, simulate

# (class, parameter names in order, how many of the first are required)
RECORDS = [
    (agc.GeneratorParams, ("t_ch", "droop", "participation"), 3),
    (agc.AreaParams, ("name", "inertia", "damping", "bias", "agc_gain",
                      "neighbors", "generators"), 5),
    (attacks.AttackSpace, ("basis", "a", "b"), 3),
    (dae.DaeSystem, ("h0", "h1", "l", "f"), 4),
    (design.FeasibleSetBasis, ("z", "eta", "d_n"), 3),
    (design.LpIndexReport, ("block", "sign", "status", "gamma", "wall_time",
                            "pivots", "mirrored"), 6),
    (design.FilterDesign, ("nbar", "d_n", "pole", "gamma", "kind", "index",
                           "multiplier", "table", "diagnostic"), 7),
    (discretize.LtiModel, ("a_cl", "b_d", "b_f", "c", "d_f", "state_labels",
                           "measurement_labels", "attack_labels",
                           "disturbance_labels", "t_s"), 9),
    (lp.LpProblem, ("sense", "c", "a_eq", "b_eq", "a_ge", "b_ge", "lower"),
     2),
    (lp.LpSolution, ("status", "value", "x", "iterations"), 4),
    (simulate.Scenario, ("horizon_s", "t_s", "onset_s", "attack_f",
                         "load_std", "process_noise", "measurement_noise",
                         "seed"), 2),
    (simulate.SimulationTrace, ("t", "d", "f", "x", "y", "rs_inf", "r_d",
                                "metadata"), 8),
]


def area(**kw):
    return agc.AreaParams("a", 10.0, 1.0, 20.0, 0.3, **kw)


def scenario(**kw):
    return simulate.Scenario(horizon_s=10.0, t_s=0.5, **kw)


def sample_records():
    """One instance of each record class, in the order of ``RECORDS``."""
    z = np.zeros((1, 2))
    return [
        agc.GeneratorParams(0.3, 0.05, 1.0),
        area(),
        attacks.AttackSpace(np.ones((1, 2)), np.ones((1, 1)), [1.0]),
        dae.DaeSystem(z, z, z, z),
        design.FeasibleSetBasis(z, 1.0, 0),
        design.LpIndexReport(0, 1, lp.OPTIMAL, 1.0, 0.0, 3),
        design.FilterDesign(np.ones(2), 0, 0.5, 1.0, "robust", (0, 1), z),
        discretize.LtiModel(z, z, z, z, z, (), (), (), ()),
        lp.LpProblem("max", [1.0]),
        lp.LpSolution(lp.OPTIMAL, 0.0, np.zeros(1), 0),
        scenario(),
        simulate.SimulationTrace(*[np.zeros(1)] * 7, {}),
    ]


@pytest.mark.parametrize("cls, names, n_required", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_constructor_keeps_its_parameters(cls, names, n_required):
    params = list(inspect.signature(cls).parameters.values())
    assert tuple(p.name for p in params) == names
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    required = [p.name for p in params if p.default is p.empty]
    assert required == list(names[:n_required])


@pytest.mark.parametrize("record", sample_records(),
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_has_slots_and_refuses_unknown_attributes(record):
    cls = type(record)
    assert set(cls.__slots__) == set(next(
        names for rec, names, _ in RECORDS if rec is cls))
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.no_such_field = 1.0


@pytest.mark.parametrize("make, field", [
    (area, "neighbors"),
    (scenario, "load_std"),
    (scenario, "process_noise"),
    (scenario, "measurement_noise"),
])
def test_default_dict_is_fresh_per_instance(make, field):
    first, second = make(), make()
    assert getattr(first, field) == {}
    assert getattr(first, field) is not getattr(second, field)
