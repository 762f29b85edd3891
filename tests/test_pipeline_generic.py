"""End-to-end pipeline on a non-AGC closed loop built through the
dynamic-controller augmentation, proving the design machinery is not wired
to the power-system builder."""

import numpy as np
import pytest

from agcdiag.attacks import AttackSpace, compute_basis, synthesize_attack, \
    validate_attack_space
from agcdiag.dae import attack_gain, build_dae, stack_hbar
from agcdiag.design import design_robust, feasible_basis, worst_case_alpha
from agcdiag.discretize import LtiModel
from agcdiag.residual import realize_filter
from agcdiag.simulate import Scenario, simulate

from oracles import augment_dynamic_controller, evaluate_payoff


@pytest.fixture(scope="module")
def augmented_model():
    # discrete plant with a first-order dynamic output controller; the
    # measurement set is redundant (both sensors read the same state),
    # with both sensor channels attackable
    rng = np.random.default_rng(314159)
    a_x = np.array([[0.6, 0.1], [0.0, 0.5]])
    b_d = np.array([[0.3], [0.1]])
    b_u = np.array([[0.2], [0.4]])
    c = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    d_f = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    a_c = np.array([[0.4]])
    b_c = np.array([[0.1, 0.1, -0.2]])
    c_c = np.array([[0.5]])
    d_c = np.array([[0.05, 0.05, -0.1]])
    a_hat, b_d_hat, b_f_hat, c_hat, d_f_hat = augment_dynamic_controller(
        (a_x, b_d, b_u, c, d_f), (a_c, b_c, c_c, d_c))
    assert max(abs(np.linalg.eigvals(a_hat))) < 1.0
    n_x = a_hat.shape[0]
    n_y = c_hat.shape[0]
    return LtiModel(
        a_cl=a_hat, b_d=b_d_hat, b_f=b_f_hat, c=c_hat, d_f=d_f_hat, t_s=1.0,
        state_labels=tuple(f"g.x{i}" for i in range(n_x)),
        measurement_labels=tuple(f"g.y{i}" for i in range(n_y)),
        attack_labels=("g.y0", "g.y1"),
        disturbance_labels=("g.load",))


def test_full_design_on_augmented_loop(augmented_model):
    model = augmented_model
    # stealthy direction: both redundant sensors biased identically
    fb = compute_basis(model.c, model.d_f)
    assert fb.shape[0] == 1
    space = AttackSpace(basis=fb, a=np.array([[1.0]]), b=np.array([0.5]))
    validate_attack_space(space, model.c, model.d_f)

    dae = build_dae(model)
    d_n = 2
    basis = feasible_basis(stack_hbar(dae, d_n), 5.0, d_n)
    assert basis.n_free > 0
    ffb = attack_gain(dae, fb)
    design = design_robust(basis, ffb, space.a, space.b, pole=0.6)
    assert design.gamma > 0

    alpha_star, payoff = worst_case_alpha(design.nbar, ffb, d_n,
                                          space.a, space.b)
    assert payoff >= design.gamma - 1e-8
    assert payoff == pytest.approx(
        evaluate_payoff(design.nbar, ffb, alpha_star, d_n), abs=1e-8)

    # closed-loop simulation: decoupled from loads, responsive to the attack
    filt = realize_filter(design, dae.l)
    quiet = simulate(model, Scenario(horizon_s=40.0, t_s=1.0, seed=8,
                                     load_std={"g.load": 0.1}), filt)
    assert np.abs(quiet.r_d[filt.warmup:]).max() <= 1e-8

    f_vec = synthesize_attack(space, alpha_star)
    attacked = simulate(model, Scenario(horizon_s=40.0, t_s=1.0, onset_s=20.0,
                                        seed=8, load_std={"g.load": 0.1},
                                        attack_f=f_vec), filt)
    onset = 20
    assert np.abs(attacked.r_d[onset + 1:]).max() > design.gamma * 1e-3
    # the static detector cannot see it
    assert np.abs(attacked.rs_inf - quiet.rs_inf).max() <= 1e-8
