"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the criterion's stated tolerance and runtime bound.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np

from agcdiag.attacks import synthesize_attack
from agcdiag.config import noise_pattern
from agcdiag.dae import attack_gain, build_dae, build_fbar, stack_hbar
from agcdiag.design import (design_robust, design_steady_state,
                            feasible_basis, solve_lp_i)
from agcdiag.linalg import expm
from agcdiag.residual import realize_filter
from agcdiag.simulate import Scenario, simulate, write_trace_csv

from helpers import fine_step_from, random_stable_continuous
from oracles import (beta_for_index, brute_force_gamma,
                     check_reformulation_feasible, evaluate_payoff,
                     in_polytope, steady_state_gain)
from test_design import tiny_instance

REFERENCE_ALPHA = np.array([2.8, 1.0, -2.3])
SCENARIO2_NOISE_BASE = 3e-7   # sensor-grade variance; pattern follows the
                              # default covariance shape (see README)


def report(number, name, elapsed, bound, detail=""):
    tail = f" | {detail}" if detail else ""
    print(f"[criterion {number}] PASS {name} "
          f"({elapsed:.2f}s < {bound:.0f}s){tail}")


def sample_alpha_in_halfspace(rng, offset=1.5):
    """Random point of {1'a >= offset}; half the draws on the boundary."""
    alpha = rng.standard_normal(3)
    slack = abs(rng.standard_normal()) * (rng.random() > 0.5)
    return alpha + (offset + slack - alpha.sum()) / 3.0


def test_criterion_1_decoupling(chain):
    start = time.perf_counter()
    filt = realize_filter(chain.design, chain.dae.l)
    scenario = Scenario(horizon_s=60.0, t_s=0.5, seed=2024,
                        load_std={"area1.load": 0.03, "area2.load": 0.03,
                                  "area3.load": 0.03})
    trace = simulate(chain.discrete, scenario, filt)
    worst = np.abs(trace.r_d[filt.warmup:]).max()
    elapsed = time.perf_counter() - start
    assert trace.n_records == 121
    assert worst <= 1e-6
    assert elapsed < 1.0
    report(1, "load decoupling", elapsed, 1.0, f"max|r_D| = {worst:.2e}")


def test_criterion_2_static_stealth(chain):
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    base_scenario = Scenario(horizon_s=20.0, t_s=0.5, onset_s=5.0,
                             seed=7, load_std={"area1.load": 0.03})
    baseline = simulate(chain.discrete, base_scenario)
    worst = 0.0
    for _ in range(100):
        alpha = rng.uniform(-3.0, 3.0, size=3)
        f = synthesize_attack(chain.space, alpha)
        attacked = simulate(chain.discrete, Scenario(
            horizon_s=20.0, t_s=0.5, onset_s=5.0, seed=7,
            load_std={"area1.load": 0.03}, attack_f=f))
        worst = max(worst, np.abs(attacked.rs_inf - baseline.rs_inf).max())
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 5.0
    report(2, "static detector blind to the stealthy span", elapsed, 5.0,
           f"max deviation = {worst:.2e}")


def test_criterion_3_robust_certificate(chain):
    start = time.perf_counter()
    design = design_robust(chain.basis, chain.ffb, chain.space.a,
                           chain.space.b)
    assert design.gamma > 0
    rng = np.random.default_rng(314)
    margin = np.inf
    for _ in range(1000):
        alpha = sample_alpha_in_halfspace(rng)
        payoff = evaluate_payoff(design.nbar, chain.ffb, alpha, 3)
        margin = min(margin, payoff - design.gamma)
        assert payoff >= design.gamma - 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, "robust design certificate", elapsed, 10.0,
           f"gamma = {design.gamma:.6g}, min payoff margin = {margin:.2e}")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for seed in range(20):
        basis, ffb, a_pol, b_pol = tiny_instance(seed)
        best = 0.0
        for j in range(basis.d_n + 1):
            for s in (1, -1):
                gamma_i, nbar_i, lam_i, sol = solve_lp_i(
                    j, s, basis, ffb, a_pol, b_pol)
                if sol.is_optimal:
                    best = max(best, gamma_i)
                    beta = beta_for_index(j, s, basis.d_n)
                    assert check_reformulation_feasible(nbar_i, beta, lam_i,
                                                  ffb, a_pol)
                    checked += 1
        gamma_bf, tol = brute_force_gamma(basis, ffb, a_pol, b_pol)
        assert best <= gamma_bf + tol + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, "finite-reformulation oracle agreement", elapsed, 60.0,
           f"20 instances, {checked} reconstructed points accepted")


def test_criterion_5_steady_state(chain, toy_ss_model):
    start = time.perf_counter()
    # the AGC default is structurally transient-only: mu = 0 is the honest
    # answer there, so the nonzero steady-state contract is exercised on a
    # small closed loop that admits one
    agc_ss = design_steady_state(chain.basis, chain.fbar, chain.space.a,
                                 chain.space.b)
    assert agc_ss.gamma == 0.0

    dae = build_dae(toy_ss_model)
    from agcdiag.attacks import compute_basis
    fb = compute_basis(toy_ss_model.c, toy_ss_model.d_f)
    basis = feasible_basis(stack_hbar(dae, 1), 1.0, 1)
    a_pol, b_pol = np.array([[1.0]]), np.array([1.0])
    design = design_steady_state(basis, build_fbar(dae, fb, 1), a_pol, b_pol)
    assert design.gamma > 0

    alpha = np.array([1.3])
    f_vec = fb.T @ alpha
    target = steady_state_gain(design, attack_gain(dae, fb), alpha)
    filt = realize_filter(design, dae.l)
    trace = simulate(toy_ss_model, Scenario(
        horizon_s=80.0, t_s=0.5, onset_s=10.0, attack_f=f_vec, seed=5), filt)
    convergence = np.abs(trace.r_d[-10:] - target).max()
    assert convergence <= 1e-6

    rng = np.random.default_rng(99)
    gain_row = design.nbar @ build_fbar(dae, fb, 1)
    for _ in range(1000):
        a = 1.0 + abs(rng.standard_normal()) * (rng.random() > 0.5)
        assert abs(gain_row @ [a]) >= design.gamma - 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(5, "nonzero steady-state residual design", elapsed, 10.0,
           f"mu = {design.gamma:.6g}, settled error = {convergence:.2e} "
           f"(AGC default honestly reports mu = 0)")


def test_criterion_6_zoh_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(20):
        order = int(rng.integers(1, 7))
        a, b = random_stable_continuous(rng, order)
        t_s = float(rng.uniform(0.1, 0.6))
        aug = np.zeros((order + b.shape[1], order + b.shape[1]))
        aug[:order, :order] = a
        aug[:order, order:] = b
        phi = expm(aug * t_s)
        a_d, b_d = phi[:order, :order], phi[:order, order:]
        x0 = rng.standard_normal(order)
        u = rng.standard_normal(b.shape[1])
        reference = fine_step_from(a, b, x0, u, t_s, substeps=10_000)
        ours = a_d @ x0 + b_d @ u
        rel = np.abs(ours - reference).max() / max(1.0, np.abs(reference).max())
        worst = max(worst, rel)
        assert rel <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(6, "zero-order-hold versus fine-step integration", elapsed, 10.0,
           f"20 systems, worst relative error = {worst:.2e}")


def test_criterion_7_attack_arithmetic(chain):
    start = time.perf_counter()
    f = synthesize_attack(chain.space, REFERENCE_ALPHA)
    expected = np.array([0.38, 0.15, 0.53, -0.23, -0.23])
    assert np.abs(f - expected).max() <= 1e-15
    assert abs(REFERENCE_ALPHA.sum() - 1.5) <= 1e-12
    assert in_polytope(chain.space, REFERENCE_ALPHA, tol=1e-12)
    assert not in_polytope(chain.space, REFERENCE_ALPHA - 1e-6)
    elapsed = time.perf_counter() - start
    report(7, "reference attack arithmetic", elapsed, 1.0,
           "f = F_b' (2.8, 1, -2.3), boundary equality held")


def test_criterion_8_experiment_shape(chain):
    start = time.perf_counter()
    filt = realize_filter(chain.design, chain.dae.l)
    onset_idx = int(30.0 / 0.5)
    pre = slice(filt.warmup, onset_idx + 1)
    post = slice(onset_idx + 1, None)

    # scenario 1: basic attack (tie13 component zeroed), noise-free
    f_basic = synthesize_attack(chain.space, REFERENCE_ALPHA).copy()
    f_basic[1] = 0.0
    tr1 = simulate(chain.discrete, Scenario(
        horizon_s=60.0, t_s=0.5, onset_s=30.0, attack_f=f_basic,
        load_std={"area1.load": 0.03}, seed=1), filt)
    rs_ratio1 = tr1.rs_inf[post].mean() / max(tr1.rs_inf[pre].mean(), 1e-300)
    rd_ratio1 = (np.abs(tr1.r_d[post]).mean()
                 / max(np.sqrt((tr1.r_d[pre] ** 2).mean()), 1e-300))
    assert rs_ratio1 > 5.0
    assert rd_ratio1 > 5.0

    # scenario 2: worst-case stealthy attack, noisy: static detector blind,
    # dynamic detector alerts
    f_stealth = synthesize_attack(chain.space, REFERENCE_ALPHA)
    tr2 = simulate(chain.discrete, Scenario(
        horizon_s=60.0, t_s=0.5, onset_s=30.0, attack_f=f_stealth,
        load_std={"area1.load": 0.03},
        process_noise=noise_pattern(chain.discrete.state_labels,
                                    SCENARIO2_NOISE_BASE),
        measurement_noise=noise_pattern(chain.discrete.measurement_labels,
                                        SCENARIO2_NOISE_BASE),
        seed=1), filt)
    rs_ratio2 = tr2.rs_inf[post].mean() / tr2.rs_inf[pre].mean()
    rd_ratio2 = (np.abs(tr2.r_d[post]).mean()
                 / np.sqrt((tr2.r_d[pre] ** 2).mean()))
    assert rs_ratio2 <= 1.5
    assert rd_ratio2 > 3.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(8, "reference experiment shape", elapsed, 5.0,
           f"basic: rS x{rs_ratio1:.1e}, rD x{rd_ratio1:.1e}; "
           f"stealthy: rS x{rs_ratio2:.2f} (blind), rD x{rd_ratio2:.1f} (alert)")


def test_criterion_9_determinism(chain, tmp_path):
    start = time.perf_counter()
    filt = realize_filter(chain.design, chain.dae.l)
    scenario = Scenario(
        horizon_s=60.0, t_s=0.5, onset_s=30.0,
        attack_f=synthesize_attack(chain.space, REFERENCE_ALPHA),
        load_std={"area1.load": 0.03},
        process_noise=noise_pattern(chain.discrete.state_labels, 1e-6),
        measurement_noise=noise_pattern(chain.discrete.measurement_labels,
                                        1e-6),
        seed=77)
    paths = []
    for name in ("one.csv", "two.csv"):
        trace = simulate(chain.discrete, scenario, filt)
        path = tmp_path / name
        write_trace_csv(trace, path, include_states=True,
                        include_measurements=True)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    elapsed = time.perf_counter() - start
    assert identical
    report(9, "seeded runs are byte-identical", elapsed, 5.0,
           f"{paths[0].stat().st_size} bytes compared")
