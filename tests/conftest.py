import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from agcdiag import cli, simulate
from agcdiag import config as cfgmod
from agcdiag.dae import attack_gain, build_dae, stack_hbar
from agcdiag.design import design_robust, feasible_basis
from agcdiag.discretize import LtiModel

from oracles import build_fbar

settings.register_profile(
    "suite", deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


class DefaultChain:
    """The shipped three-area experiment, built once per session."""

    def __init__(self):
        self.cfg = cfgmod.default_config()
        self.model = cfgmod.build_model(self.cfg)
        self.discrete = cfgmod.build_discrete(self.cfg, self.model)
        self.dae = build_dae(self.discrete)
        self.space = cfgmod.build_attack_space(self.cfg, self.model)
        self.hbar = stack_hbar(self.dae, 3)
        self.basis = feasible_basis(self.hbar, 10.0, 3)
        self.ffb = attack_gain(self.dae, self.space.basis)
        self.fbar = build_fbar(self.dae, self.space.basis, 3)
        self.design = design_robust(self.basis, self.ffb,
                                    self.space.a, self.space.b)


@pytest.fixture(scope="session")
def chain() -> DefaultChain:
    return DefaultChain()


@pytest.fixture(autouse=True)
def no_kept_design(monkeypatch):
    """Every test starts with an empty stage record in ``agcdiag.cli``: no
    model chain, design or best reply kept, so a test that patches a layer
    below the CLI sees that layer run."""
    monkeypatch.setattr(cli, "_record", {})


@pytest.fixture(autouse=True)
def no_kept_label_maps():
    """Every test starts with no resolved label maps in
    ``agcdiag.simulate``, so no count of map checks depends on which tests
    ran before."""
    simulate._label_maps.clear()


@pytest.fixture
def label_value_calls(monkeypatch):
    """Records the map of each ``simulate.label_values`` call, the one
    check of a scenario's label maps."""
    calls = []
    check = simulate.label_values

    def counted(table, labels, path):
        calls.append(path)
        return check(table, labels, path)

    monkeypatch.setattr(simulate, "label_values", counted)
    return calls


@pytest.fixture
def projectors_computed(monkeypatch):
    """Records each static-residual projector that ``agcdiag.simulate``
    computes, that is each ``weighted_range_projector`` call it makes
    rather than taking the projector from a resolved label-map entry."""
    calls = []
    compute = simulate.weighted_range_projector

    def counted(c, w=None):
        calls.append(1)
        return compute(c, w)

    monkeypatch.setattr(simulate, "weighted_range_projector", counted)
    return calls


# Small closed loop with a nonzero certified steady-state gain (mu > 0),
# used wherever the AGC model's structural mu = 0 would make a check vacuous.
TOY_SS = LtiModel(
    a_cl=np.array([[0.02775803857214606, -0.08958788303804374],
                   [-0.3471167117734958, -0.2261284372421722]]),
    b_d=np.array([[-0.37571672350043606], [0.17062441469363032]]),
    b_f=np.array([[-0.08165184567933617, 0.03099395080592362],
                  [-0.10758205051715793, 0.04083671046976743]]),
    c=np.array([[0.10663577576717986, 0.2294965609839984],
                [0.04362499146542287, 0.4350724237877682],
                [0.31585355412153215, -0.4972614998298519]]),
    d_f=np.array([[0.35740427658756935, -0.46641442469453565],
                  [0.22965544642994407, -0.324344379397441],
                  [0.3631789223498866, 0.04146122024909171]]),
    t_s=0.5,
    state_labels=("sys.x1", "sys.x2"),
    measurement_labels=("sys.y1", "sys.y2", "sys.y3"),
    attack_labels=("sys.y1", "sys.y2"),
    disturbance_labels=("sys.load",),
)


@pytest.fixture(scope="session")
def toy_ss_model() -> LtiModel:
    return TOY_SS
