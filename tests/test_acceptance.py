"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here exactly as stated; the wall-clock budgets are
asserted too. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import itertools
import math
import time

import numpy as np

from sgdphaselab import (
    FeatureProblem,
    GenFuncContext,
    PhaseLabel,
    PowerLawFit,
    PowerLawSpec,
    SGDParams,
    Spectrum,
    blowup_time,
    build_power_law,
    build_torus_problem,
    eval_U1,
    exact_noise_covariance,
    fit_power_law,
    gamma_for_batch,
    loss_approx,
    loss_asymptote,
    optimal_alpha,
    reconstruct_loss,
    run_full_moments,
    run_mc,
    run_noiseless,
    run_se,
    run_se_grid,
    se_noise_diagonal,
    solve_divergence,
    solve_lambda_crit,
    stability_report,
    xi_criterion,
)
from conftest import exp_kernel, loglog_slope, max_rel_err


class _Gate:
    """Collects a criterion's outcome and prints the one-line verdict."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.start = time.monotonic()

    def finish(self, ok: bool, detail: str):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} {verdict}: {self.label} [{detail}] ({elapsed:.1f}s)")
        assert ok, f"criterion {self.number}: {detail}"
        assert elapsed <= self.budget, f"criterion {self.number} exceeded {self.budget}s budget"


def test_01_noise_covariance_enumeration_oracle():
    gate = _Gate(1, "exhaustive batch enumeration reproduces gamma*Sigma", 1.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in range(1, 7):
        d = n + 1
        psi = rng.normal(size=(d, n))
        a = rng.normal(size=(d, d))
        c = a @ a.T
        prob = FeatureProblem.create(psi, np.zeros(d), rng.normal(size=d))
        h = prob.hessian
        sigma = exact_noise_covariance(prob, c)
        scale = max(np.abs(h @ c @ h).max(), np.abs(sigma).max())
        for b in range(1, n + 1):
            acc = np.zeros((d, d))
            batches = list(itertools.combinations(range(n), b))
            for batch in batches:
                hb = psi[:, batch] @ psi[:, batch].T / b
                delta = hb - h
                acc += delta @ c @ delta
            acc /= len(batches)
            err = np.abs(acc - gamma_for_batch(n, b) * sigma).max() / scale
            worst = max(worst, err)
    gate.finish(worst <= 1e-12, f"max relative error {worst:.2e} <= 1e-12")


def test_02_generating_function_simulator_identity():
    gate = _Gate(2, "reconstruct_loss equals run_se on 10 random 20-mode spectra", 5.0)
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10):
        lam = np.sort(rng.uniform(0.05, 1.0, 20))[::-1]
        c0 = rng.uniform(0.0, 2.0, 20)
        spec = Spectrum.from_c0(lam, c0)
        beta = rng.uniform(-0.4, 0.8)
        alpha = rng.uniform(0.1, 0.7) * 2 * (1 + beta) / spec.lambda_max
        gamma = rng.uniform(0.0, 0.5)
        tau = rng.uniform(0.3, 1.0)
        ctx = GenFuncContext(spec, alpha, beta, gamma, tau)
        if eval_U1(ctx) >= 0.98:
            gamma *= 0.1
            ctx = GenFuncContext(spec, alpha, beta, gamma, tau)
        oracle = reconstruct_loss(ctx, 200)
        sim = run_se(spec, SGDParams(alpha=alpha, beta=beta, gamma=gamma, tau2=tau, steps=200))
        worst = max(worst, max_rel_err(oracle.losses, sim.losses))
    gate.finish(worst <= 1e-10, f"max relative error {worst:.2e} <= 1e-10")


def test_03_monte_carlo_vs_exact_moments():
    gate = _Gate(3, "MC mean within 4 standard errors of exact moments", 60.0)
    rng = np.random.default_rng(303)
    prob = FeatureProblem.create(rng.normal(size=(16, 16)), np.zeros(16), rng.normal(size=16))
    params = SGDParams(alpha=0.04, beta=0.3, batch=4, steps=50)
    mc = run_mc(prob, params, runs=10_000, seed=2024)
    dense = run_full_moments(prob, params)
    z = np.abs(mc.losses - dense.losses)[1:] / mc.stderr[1:]
    gate.finish(float(z.max()) <= 4.0, f"max |z| {z.max():.2f} <= 4")


def test_04_torus_se_exactness():
    gate = _Gate(4, "SE exact on the 1-D torus: noise diagonal and trajectories", 10.0)
    rng = np.random.default_rng(404)
    n = 64
    tor = build_torus_problem((n,), exp_kernel(n), w0=rng.normal(size=n))
    prob = tor.feature_problem

    c = prob.initial_second_moment()
    sig_diag = tor.fourier_diag(exact_noise_covariance(prob, c))
    c_diag = tor.fourier_diag(c)
    lam = tor.eigenvalues_grid.ravel()
    order = np.argsort(-lam, kind="stable")
    spec_for_diag = Spectrum.from_c0(lam, np.ones_like(lam))
    predicted = se_noise_diagonal(spec_for_diag, c_diag[order], 1.0, 1.0)
    diag_err = max_rel_err(sig_diag[order], predicted)

    params = SGDParams(alpha=0.4 / tor.spectrum().lambda_max, beta=0.3, batch=8, steps=500)
    dense = run_full_moments(prob, params, noise="exact")
    diag = run_se(tor.spectrum(), params)
    traj_err = max_rel_err(dense.losses, diag.losses)
    gate.finish(
        diag_err <= 1e-12 and traj_err <= 1e-10,
        f"noise diagonal {diag_err:.2e} <= 1e-12, trajectories {traj_err:.2e} <= 1e-10",
    )


def test_05_stability_boundary_map():
    gate = _Gate(5, "empirical converge/diverge frontier within one grid cell", 120.0)
    spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 200))
    gamma = gamma_for_batch(math.inf, 10)
    alphas = np.linspace(0.1, 4.0, 40)
    betas = np.linspace(0.0, 0.95, 20)
    grid = run_se_grid(spec, alphas, betas, gamma, 1.0, 1.0, 1000)
    loss0 = spec.initial_loss
    diverged = (
        (grid["diverged_at"] >= 0)
        | (grid["final_loss"] > loss0)
        | (grid["final_loss"] > 10 * grid["min_loss"])
    )
    worst = 0
    for j, beta in enumerate(betas):
        rep = stability_report(GenFuncContext(spec, 0.5, float(beta), gamma, 1.0))
        predicted_idx = int(np.searchsorted(alphas, rep.alpha_eff_critical * (1 - beta)))
        col = diverged[:, j]
        empirical_idx = int(np.argmax(col)) if col.any() else len(alphas)
        worst = max(worst, abs(empirical_idx - predicted_idx))
    gate.finish(worst <= 1, f"worst row deviation {worst} cells <= 1")


def test_06a_signal_phase_constant():
    gate = _Gate(6, "signal-phase asymptote constant (zeta = 0.25)", 180.0)
    spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 0.375, 4000))
    alpha, gamma, horizon = 0.05, 0.1, 10**5
    traj = run_se(spec, SGDParams(alpha=alpha, beta=0.0, gamma=gamma, steps=horizon))
    fit = fit_power_law(spec, tail_start=100)
    rep = loss_asymptote(GenFuncContext(spec, alpha, 0.0, gamma, 1.0), fit)
    slope, level = loglog_slope(traj.losses, horizon // 10, horizon)
    t_mid = math.sqrt(horizon // 10 * horizon)
    ref = rep.c_signal * t_mid**rep.exponent
    slope_ok = abs(slope - (-0.25)) <= 0.05
    level_ok = abs(level / ref - 1.0) <= 0.20
    gate.finish(
        slope_ok and level_ok,
        f"slope {slope:.4f} (-0.25 +/- 0.05), level ratio {level / ref:.3f} within 20%",
    )


def test_06b_noise_phase_constant():
    gate = _Gate(6, "noise-phase asymptote constant (nu = 1.5, kappa = 3)", 180.0)
    spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 16_000))
    alpha, gamma, horizon = 0.3, 1.0, 10**5
    traj = run_se(spec, SGDParams(alpha=alpha, beta=0.0, gamma=gamma, steps=horizon))
    fit = fit_power_law(spec, tail_start=100)
    rep = loss_asymptote(GenFuncContext(spec, alpha, 0.0, gamma, 1.0), fit)
    slope, level = loglog_slope(traj.losses, horizon // 10, horizon)
    t_mid = math.sqrt(horizon // 10 * horizon)
    ref = rep.c_noise * t_mid**rep.exponent
    slope_ok = abs(slope - (-4.0 / 3.0)) <= 0.05
    level_ok = abs(level / ref - 1.0) <= 0.20
    gate.finish(
        slope_ok and level_ok,
        f"slope {slope:.4f} (-1.333 +/- 0.05), level ratio {level / ref:.3f} within 20%",
    )


def test_07_divergence_analysis():
    gate = _Gate(7, "divergence rate and blow-up crossover", 60.0)
    spec = build_power_law(PowerLawSpec(1.0, 0.75, 1.0, 0.375, 50_000))
    alpha = 0.08
    ctx = GenFuncContext(spec, alpha, 0.0, 1.0, 1.0)
    fit = fit_power_law(spec, tail_start=5000)
    div = solve_divergence(ctx)
    blow = blowup_time(ctx, fit, div)

    horizon = int(10 * div.t_div) + 1
    params = SGDParams(alpha=alpha, beta=0.0, gamma=1.0, steps=horizon)
    noisy = run_se(spec, params)
    clean = run_noiseless(spec, params)

    t = np.arange(len(noisy.losses))
    window = (t >= 5 * div.t_div) & (t <= 10 * div.t_div)
    rate = np.polyfit(t[window], np.log(noisy.losses[window]), 1)[0]
    rate_ok = abs(rate - (-math.log(div.r_l))) <= 0.05 * abs(math.log(div.r_l))

    # crossover: first 50% departure of the noisy loss from the noiseless branch
    n = min(len(noisy.losses), len(clean.losses))
    ratio = noisy.losses[:n] / clean.losses[:n]
    above = np.nonzero(ratio[1:] >= 1.5)[0]
    crossover = float(above[0] + 1) if above.size else math.inf
    cross_ok = blow.t_blowup / 2 <= crossover <= blow.t_blowup * 2
    gate.finish(
        rate_ok and cross_ok,
        f"rate {rate:.3e} vs -ln r_L {-math.log(div.r_l):.3e} (5%), "
        f"crossover {crossover:.0f} vs t_blowup {blow.t_blowup:.0f} (factor 2)",
    )


def test_08_momentum_sign_criterion():
    gate = _Gate(8, "finite-difference momentum derivative matches sign(Xi)", 30.0)
    # four noise-phase configurations bracketing Xi = 0: the near-boundary
    # pair carries an extra small-eigenvalue heavy mode (power-law tails keep
    # their exponents; the trace criterion flips sign)
    cases = [(1.5, 3.5, None), (2.0, 5.0, None), (1.5, 2.5, 10.0), (2.0, 3.5, 10.0)]
    matches = 0
    signs = []
    for nu, kappa, extra_c in cases:
        spec = build_power_law(PowerLawSpec(1.0, nu, 1.0, kappa, 4000))
        if extra_c is not None:
            spec = Spectrum.from_c0(
                np.concatenate([spec.lambdas, [1e-4]]),
                np.concatenate([spec.c0, [extra_c]]),
            )
        fit = PowerLawFit(1.0, nu, 1.0, kappa, 1, 0.0, 0.0)
        xi, _ = xi_criterion(spec, nu, kappa / nu)
        alpha_opt, _ = optimal_alpha(spec, PhaseLabel.NOISE_DOMINATED, nu=nu)
        h = 1e-3
        up = loss_approx(GenFuncContext(spec, alpha_opt, +h, 1.0, 1.0), fit, 100.0)
        dn = loss_approx(GenFuncContext(spec, alpha_opt, -h, 1.0, 1.0), fit, 100.0)
        if np.sign((up - dn) / (2 * h)) == np.sign(xi):
            matches += 1
        signs.append(np.sign(xi))

    # signal-phase configuration: derivative must be negative
    spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 0.375, 4000))
    fit = PowerLawFit(1.0, 1.5, 1.0, 0.375, 1, 0.0, 0.0)
    alpha_opt, _ = optimal_alpha(spec, PhaseLabel.SIGNAL_DOMINATED, zeta=0.25)
    h = 1e-3
    up = loss_approx(GenFuncContext(spec, alpha_opt, +h, 1.0, 1.0), fit, 100.0)
    dn = loss_approx(GenFuncContext(spec, alpha_opt, -h, 1.0, 1.0), fit, 100.0)
    signal_negative = (up - dn) / (2 * h) < 0
    gate.finish(
        matches == 4 and sorted(signs) == [-1, -1, 1, 1] and signal_negative,
        f"{matches}/4 sign matches across a genuine Xi bracket; signal-phase derivative negative",
    )


def test_09_noiseless_boundary_grid():
    gate = _Gate(9, "heavy-ball boundary alpha = 2(1+beta)/lambda_max on a 30x30 grid", 10.0)
    spec = Spectrum.from_c0([1.0, 0.6, 0.3, 0.1], [1.0, 1.0, 1.0, 1.0])
    alphas = np.linspace(0.1, 4.0, 30)
    betas = np.linspace(-0.9, 0.9, 30)
    grid = run_se_grid(spec, alphas, betas, 0.0, 1.0, 1.0, 4000)
    diverged = (grid["diverged_at"] >= 0) | (grid["final_loss"] >= spec.initial_loss)
    worst = 0
    for j, beta in enumerate(betas):
        predicted_idx = int(np.searchsorted(alphas, 2 * (1 + beta) / spec.lambda_max))
        col = diverged[:, j]
        empirical_idx = int(np.argmax(col)) if col.any() else len(alphas)
        worst = max(worst, abs(empirical_idx - predicted_idx))
    gate.finish(worst <= 1, f"worst row deviation {worst} cells <= 1")


def test_10_additive_noise_floor():
    gate = _Gate(10, "simulated loss reaches the analytic additive-noise floor", 5.0)
    from sgdphaselab import run_additive_noise

    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(5):
        m = int(rng.integers(1, 6))
        lam = np.sort(rng.uniform(0.2, 1.0, m))[::-1]
        spec = Spectrum.from_c0(lam, rng.uniform(0.0, 2.0, m))
        g = rng.uniform(0.1, 1.0, m)
        alpha = rng.uniform(0.2, 1.5) / lam[0]
        traj, floor = run_additive_noise(
            spec, SGDParams(alpha=alpha, beta=0.0, gamma=0.0, steps=10**4), g
        )
        worst = max(worst, abs(traj.final_loss - floor) / floor)
    gate.finish(worst <= 1e-6, f"max relative floor gap {worst:.2e} <= 1e-6")


def test_11_budget_scaling_collapse():
    gate = _Gate(11, "signal-phase losses collapse as functions of b*t", 60.0)
    spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 0.375, 4000))
    lam_crit = solve_lambda_crit(spec, 1.0)
    beta, margin, budget = 0.95, 0.3, 32_768
    curves = {}
    for b in (8, 16, 32):
        gamma = 1.0 / b
        alpha = margin * 2.0 / (gamma * lam_crit) * (1.0 - beta)
        assert eval_U1(GenFuncContext(spec, alpha, beta, gamma, 1.0)) < 1.0
        traj = run_se(spec, SGDParams(alpha=alpha, beta=beta, gamma=gamma, steps=budget // b))
        curves[b] = traj.losses
    grid = np.arange(budget // 10, budget + 1, 32)
    values = np.array([[curves[b][x // b] for x in grid] for b in (8, 16, 32)])
    spread = float(np.max((values.max(axis=0) - values.min(axis=0)) / values.mean(axis=0)))
    gate.finish(spread <= 0.15, f"max relative spread {spread * 100:.1f}% <= 15%")
