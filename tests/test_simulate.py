import copy
import itertools
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgdphaselab import (
    AnalysisDomainError,
    FeatureProblem,
    GenFuncContext,
    PowerLawSpec,
    SGDParams,
    Spectrum,
    ValidationError,
    build_power_law,
    build_torus_problem,
    eigendecompose,
    eval_S,
    eval_U1,
    exact_noise_covariance,
    gamma_for_batch,
    run_additive_noise,
    run_full_moments,
    run_mc,
    run_noiseless,
    run_se,
    run_se_grid,
    se_fit_error,
    se_noise_diagonal,
    cli,
    simulate,
    spectrum,
)
from sgdphaselab.numerics import RULE_CHECK, gauss_rules
from sgdphaselab.simulate import _MC_BLOCK, _se_blocked, _se_kernel, _se_run, _se_table
from conftest import exp_kernel, max_rel_err, random_problem, random_spectrum, se_reference


class TestParams:
    def test_alpha_eff(self):
        assert SGDParams(alpha=0.5, beta=0.5).alpha_eff == 1.0

    @pytest.mark.parametrize("bad", [dict(alpha=0.0), dict(alpha=0.5, beta=1.0),
                                     dict(alpha=0.5, gamma=1.5), dict(alpha=0.5, steps=0),
                                     dict(alpha=0.5, batch=0), dict(alpha=0.1, steps=True),
                                     dict(alpha=0.1, batch=True)])
    def test_validation(self, bad):
        with pytest.raises(ValidationError):
            SGDParams(**bad)

    def test_gamma_resolution(self):
        p = SGDParams(alpha=0.1, batch=10)
        assert p.resolve_gamma(math.inf) == 0.1
        assert p.resolve_gamma(100) == gamma_for_batch(100, 10)
        with pytest.raises(ValidationError):
            SGDParams(alpha=0.1).resolve_gamma(100)

    @pytest.mark.parametrize("alphas, betas, gamma, steps", [
        ([], [0.0], 0.1, 10), ([0.5], [], 0.1, 10), ([0.5], [0.0], 0.1, -3), ([0.5], [0.0], 0.1, True),
        ([0.5], [0.0], -0.5, 10), ([0.5], [0.0], None, 10), ([0.5], [0.0, 1.5], 0.1, 10),
        ([0.5, math.nan], [0.0], 0.1, 10),
    ])
    def test_grid_validation(self, alphas, betas, gamma, steps):
        # every grid value and the shared gamma and steps are checked as SGDParams checks them
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 20))
        with pytest.raises(ValidationError):
            run_se_grid(spec, alphas, betas, gamma, 1.0, 1.0, steps)


class TestRunSe:
    def test_initial_loss_exact(self, rng):
        spec = random_spectrum(rng)
        traj = run_se(spec, SGDParams(alpha=0.1, gamma=0.3, steps=5))
        assert traj.losses[0] == 0.5 * np.sum(spec.lambda_c0)

    def test_single_mode_one_step(self):
        # noise self-cancels at tau1 = tau2 for one mode: L(1) = 0.5*(1-0.5)^2
        spec = Spectrum.from_c0([1.0], [1.0])
        traj = run_se(spec, SGDParams(alpha=0.5, beta=0.0, gamma=1.0, steps=1))
        assert traj.losses[1] == 0.125

    def test_zero_gamma_equals_noiseless(self, rng):
        spec = random_spectrum(rng)
        p = SGDParams(alpha=0.3, beta=0.4, gamma=0.0, steps=100)
        a = run_se(spec, p)
        b = run_noiseless(spec, p.with_(gamma=0.7))
        assert np.array_equal(a.losses, b.losses)

    def test_gamma_monotonicity(self, rng):
        # PSD noise increment: more sampling noise never lowers the mean loss
        for _ in range(5):
            spec = random_spectrum(rng, 15)
            g1, g2 = sorted(rng.uniform(0.0, 0.6, 2))
            base = SGDParams(alpha=0.3, beta=0.2, gamma=g1, steps=200)
            a = run_se(spec, base)
            b = run_se(spec, base.with_(gamma=g2))
            n = min(len(a.losses), len(b.losses))
            assert np.all(a.losses[:n] <= b.losses[:n] + 1e-12)

    def test_divergence_recorded_not_raised(self):
        spec = Spectrum.from_c0([1.0, 1.0], [1.0, 1.0])
        traj = run_se(spec, SGDParams(alpha=1.2, beta=0.0, gamma=1.0, steps=5000))
        assert traj.diverged_at is not None
        assert traj.losses[-1] > 1e12 * traj.losses[0]
        assert len(traj.losses) == traj.diverged_at + 1

    def test_negative_moment_diagnostic(self, rng):
        spec = random_spectrum(rng)
        traj = run_se(spec, SGDParams(alpha=0.2, gamma=0.5, steps=50))
        assert "negative_moments" in traj.metadata
        assert "min_output_moment" in traj.metadata

    def test_grid_matches_scalar_path(self, rng):
        spec = random_spectrum(rng, 12)
        alphas, betas = [0.2, 0.6], [0.0, 0.5]
        grid = run_se_grid(spec, alphas, betas, 0.3, 1.0, 1.0, 80)
        for i, a in enumerate(alphas):
            for j, b in enumerate(betas):
                traj = run_se(spec, SGDParams(alpha=a, beta=b, gamma=0.3, steps=80))
                assert grid["final_loss"][i, j] == traj.losses[-1]
                assert np.min(traj.losses) == grid["min_loss"][i, j]


class TestSeKernel:
    def test_table_determinant_is_the_analysis_cubic(self):
        # det(I - z A_k) is the S_k(z) of genfunc, with A_k read off one kernel step
        # from the unit states (C, J, V) = e_1, e_2, e_3 held as three cells
        gen = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            alpha, beta = gen.uniform(0.01, 1.0), gen.uniform(-0.9, 0.9)
            gamma, tau2 = gen.uniform(0.0, 1.0), gen.uniform(0.0, 1.0)
            lam, z = gen.uniform(0.01, 2.0), gen.uniform(-1.0, 1.0)
            table, _ = _se_table(np.array([lam]), alpha, beta, gamma, 1.0, tau2)
            c, j, v = (col[:, None].copy() for col in np.eye(3).T)
            _se_run(*_se_kernel(table, None, c, jv=(j, v)), 1)
            a = np.hstack([c, j, v]).T
            det = np.linalg.det(np.eye(3) - z * a)
            worst = max(worst, abs(det - float(eval_S(alpha, beta, tau2 * gamma, lam, z))))
        assert worst <= 1e-13

    @pytest.mark.parametrize("gamma, tau1, betas", [(0.5, 0.1, [0.0, 0.3, 0.9]), (0.9, 0.0, [0.0]),
                                                    (0.5, 1.0, [0.0, 0.3, 0.9]), (0.0, 1.0, [0.0, 0.25, 0.3])])
    def test_grid_cells_equal_run_se_bitwise(self, gamma, tau1, betas):
        # > 1000 modes so the pairwise summation of the coupling sum is exercised; cells leave
        # the batch at different steps. At tau1 < tau2 every cell runs on the kernel and some
        # moments go negative; at tau1 = tau2 every cell runs blocked, with or without noise, but
        # (2.5, 0.3), (3.5, 0.9) and (2.5, 0.25), within 15% of the heavy-ball edge alpha lambda_max
        # = 2 (1 + beta), and no cell on either engine reports a negative moment, though without
        # noise a tracking kernel's rounding takes moments of (0.7, 0.25), (1.5, 0.25) and (2.5,
        # 0.25) below 0, down to -1e-323.
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 1200))
        alphas = [0.2, 0.7, 1.5, 2.5, 3.5]
        grid = run_se_grid(spec, alphas, betas, gamma, tau1, 1.0, 600)
        steps = grid["diverged_at"][grid["diverged_at"] >= 0]
        assert len(set(steps.tolist())) >= 3 and (grid["diverged_at"] < 0).any()
        for b in betas:
            blocked = simulate._blocked_cells(spec, alphas, b, tau1, 1.0, 600)[0]
            near_edge = {(2.5, 0.3), (3.5, 0.9), (2.5, 0.25)}
            assert np.array_equal(blocked, [tau1 >= 1.0 and (a, b) not in near_edge for a in alphas])
        assert grid["negative_moments"].any() == (tau1 < 1.0)
        for i, a in enumerate(alphas):
            for j, b in enumerate(betas):
                traj = run_se(spec, SGDParams(alpha=a, beta=b, gamma=gamma, tau1=tau1, steps=600))
                assert grid["final_loss"][i, j] == traj.losses[-1]
                assert grid["min_loss"][i, j] == np.min(traj.losses)
                assert grid["diverged_at"][i, j] == (-1 if traj.diverged_at is None else traj.diverged_at)
                assert grid["min_output_moment"][i, j] == traj.metadata["min_output_moment"]
                assert grid["negative_moments"][i, j] == traj.metadata["negative_moments"]

    @pytest.mark.parametrize("beta, gamma", [
        *(pytest.param(beta, 0.5, id=str(beta)) for beta in (-0.4, 0.9, 0.98)),
        *(pytest.param(beta, 0.0, id=f"{beta}-gamma0") for beta in (-0.4, 0.9, 0.98)),
    ])
    def test_agrees_with_extended_precision_recursion(self, beta, gamma):
        # a rewrite of the step that loses accuracy on slow modes fails this: in lag
        # coordinates (E x_t^2, E x_t x_{t-1}, E x_{t-1}^2) the error here is 7e-12 at
        # beta = 0.9 and 4e-10 at beta = 0.98; the velocity form stays below 1e-14. Both runs
        # are blocked: without noise too, as its cell is far from the heavy-ball edge
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 300))
        alpha, tau1, tau2, steps = 0.5 * (1.0 - beta), 1.0, 0.8, 3000
        ld = np.longdouble
        a = ld(alpha) * spec.lambdas.astype(ld)
        q, r, b = ld(tau2 * gamma) * a * a, ld(tau1 * gamma) * a * a, ld(beta)
        b2 = np.full_like(a, b * b)
        rows = np.array([[(1 - a) ** 2 - q, 2 * b * (1 - a), b2],
                         [-a * (1 - a) - q, b * (1 - 2 * a), b2],
                         [a * a - q, -2 * a * b, b2]])
        state = np.zeros((3, len(spec)), dtype=ld)
        state[0] = spec.lambda_c0
        ref = [state[0].sum() / 2]
        for _ in range(steps):
            state = (rows * state).sum(axis=1) + r * state[0].sum()
            ref.append(state[0].sum() / 2)
        traj = run_se(spec, SGDParams(alpha=alpha, beta=beta, gamma=gamma, tau1=tau1, tau2=tau2, steps=steps))
        assert simulate._blocked_cells(spec, alpha, beta, tau1, tau2, steps)[0].all()
        assert traj.diverged_at is None
        assert float(np.max(np.abs(traj.losses - np.array(ref)) / np.array(ref))) <= 1e-12

    @pytest.mark.parametrize("alpha, gamma, tau1, negative", [
        (0.9, 1.0, 0.3, True),    # m11 < 0 on the top modes, tau1 < tau2
        (0.5, 0.5, -0.2, True),   # r < 0
        (1.5, 0.5, 1.0, False),   # m11 < 0, yet no moment goes negative
        (0.5, 0.5, 0.2, False),   # every coefficient >= 0: the per-step minimum is skipped
        (0.5, 0.5, 1.0, False),
    ])
    def test_zero_momentum_moment_minimum(self, alpha, gamma, tau1, negative):
        # the beta = 0 step c <- m11 c + r S, written out: run_se must report its exact minimum
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 50))
        traj = run_se(spec, SGDParams(alpha=alpha, gamma=gamma, tau1=tau1, steps=300))
        a = alpha * spec.lambdas
        m11, r = (1.0 - a) * (1.0 - a) - gamma * (a * a), (tau1 * gamma) * (a * a)
        c, low = spec.lambda_c0, 0.0
        for _ in range(300):
            c = m11 * c + r * c.sum()
            low = min(low, c.min())
        assert traj.diverged_at is None
        assert traj.metadata["min_output_moment"] == low
        assert traj.metadata["negative_moments"] == negative == (low < 0.0)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_j_and_v_only_with_momentum(self, beta):
        # a (m11,) table steps C alone, so the kernel holds no J and V; a 5-row table two zero arrays apart
        table, r = _se_table(np.linspace(0.1, 1.0, 50), 0.5, beta, 0.5, 1.0, 1.2)
        c = np.ones((1, 50))
        _, (state_c, j, v, *_), _ = _se_kernel(table, r, c)
        assert len(table) == (1 if beta == 0.0 else 5) and state_c is c
        if beta == 0.0:
            assert j is None and v is None
        else:
            assert not j.any() and not v.any() and j.shape == v.shape == c.shape and not np.shares_memory(j, v)


def kernel_run(spec, alpha, beta, gamma, tau1, tau2, steps):
    """_se_kernel on (alpha[i], beta) cells from the spectrum's start, tracking the lowest moment."""
    table, r = _se_table(spec.lambdas, alpha, beta, gamma, tau1, tau2)
    c = np.tile(spec.lambda_c0, (table[0].shape[0], 1))
    threshold = simulate._divergence_threshold(0.5 * float(spec.lambda_c0.sum()))
    engine = _se_kernel(table, r, c, track=True)
    return _se_run(*engine, steps, threshold, history=True)


class TestBlockedEngine:
    @pytest.mark.parametrize("beta, gamma, ref_bound", [
        *(pytest.param(beta, 0.4, None, id=str(beta)) for beta in (0.0, -0.4, 0.5, 0.95)),
        *(pytest.param(beta, 0.0, None, id=f"{beta}-gamma0") for beta in (0.0, -0.4, 0.5)),
        # without noise the third cell, 0.8 of the edge, oscillates without diverging, down to 4e-6
        # of its start; at its loss minima the blocked sums drift up to 1.5e-12 from the kernel's,
        # and both are off se_reference (conftest): the kernel by up to 6.4e-12 at 197 steps, the
        # blocked engine by up to 4.9e-12 at k = 64 (8.4e-13 at k = 16). TestLongRounds pins both
        pytest.param(0.95, 0.0, 1e-11, id="0.95-gamma0"),
    ])
    def test_matches_the_kernel_across_block_edges(self, beta, gamma, ref_bound):
        # horizons 1, k - 1, k, k + 1 and 3k + 5 at the k run_se takes (16 on 300 modes) and at 4
        # and 64, on three cells at once, one of them diverging at gamma = 0.4: each S_t is the
        # kernel's to rounding, or with a ref_bound both engines' S_t are se_reference's within it.
        # gamma = 0 leaves no coupling (r is None), as tau1 = 0 does in a run
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 300))
        d = 1 if beta == 0.0 else 3
        alphas = np.array([0.2, 0.5, 0.8]) * 2.0 * (1.0 + beta) / spec.lambda_max
        assert simulate._blocked_cells(spec, alphas, beta, 1.0, 0.7, 3 * 64 + 5)[0].all()
        assert simulate._se_block_steps(d, len(spec), 3 * 64 + 5) == 16
        if ref_bound is not None:
            cells = (np.tile(spec.lambdas, (3, 1)), np.tile(spec.lambda_c0, (3, 1)))
            ref = 2.0 * se_reference(*cells, alphas, beta, gamma, 1.0, 0.7, 3 * 64 + 5)  # sums S_t
        for k in (4, 16, 64):
            for steps in (1, k - 1, k, k + 1, 3 * k + 5):
                want = kernel_run(spec, alphas, beta, gamma, 1.0, 0.7, steps)
                table, r = _se_table(spec.lambdas, alphas, beta, gamma, 1.0, 0.7)
                assert (r is None) == (gamma == 0.0)
                got = _se_run(*simulate._se_blocked(table, r, np.tile(spec.lambda_c0, (3, 1)), k), steps,
                              simulate._divergence_threshold(0.5 * spec.lambda_c0.sum()), True)
                assert np.array_equal(got[3], want[3])
                for cell, end in enumerate(np.where(want[3] < 0, steps, want[3]) + 1):
                    if ref_bound is None:
                        assert max_rel_err(got[4][cell, :end], want[4][cell, :end]) <= 1e-13, (k, steps)
                    else:
                        for run in (want, got):
                            assert max_rel_err(run[4][cell, :end], ref[cell, :end]) <= ref_bound, (k, steps)
                assert np.array_equal(got[4][:, 0], want[4][:, 0])  # L(0) exactly
                if k == 16:  # noiseless runs too: the engine choice reads no gamma
                    traj = run_se(spec, SGDParams(alpha=alphas[0], beta=beta, gamma=gamma, tau2=0.7, steps=steps))
                    assert np.array_equal(traj.losses, 0.5 * got[4][0])

    @pytest.mark.parametrize("beta", [0.0, 0.5, -0.4])
    def test_divergence_step_and_losses_are_the_kernels(self, beta):
        # crossings at 9..112 steps: inside blocks, at a block's first step and in the first block
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 200))
        alphas = np.linspace(1.35, 4.0, 12) * (1.0 + beta)
        want = kernel_run(spec, alphas, beta, 0.5, 1.0, 1.0, 500)
        grid = run_se_grid(spec, alphas, [beta], 0.5, 1.0, 1.0, 500)
        steps = want[3][want[3] >= 0]
        assert steps.size >= 9 and len(set(steps.tolist())) >= 8
        assert np.array_equal(grid["diverged_at"][:, 0], want[3])
        assert max_rel_err(grid["final_loss"][:, 0], want[0]) <= 1e-13
        assert max_rel_err(grid["min_loss"][:, 0], want[1]) <= 1e-13
        for i, a in enumerate(alphas):
            traj = run_se(spec, SGDParams(alpha=a, beta=beta, gamma=0.5, steps=500))
            assert traj.diverged_at == (None if want[3][i] < 0 else want[3][i])
            assert max_rel_err(traj.losses, 0.5 * want[4][i, : traj.losses.size]) <= 1e-13

    def test_moment_minimum_is_zero_on_blocked_cells(self):
        # tau2 <= tau1 keeps every 2x2 moment matrix PSD (see run_se), so run_se reports 0 on
        # either engine; the kernel's own tracked minimum agrees on these draws, which include
        # m11 < 0 and tau2 < 0
        gen = np.random.default_rng(3)
        blocked = 0
        for _ in range(60):
            spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, int(gen.integers(2, 60))))
            beta = float(gen.uniform(-0.9, 0.95)) if gen.random() < 0.7 else 0.0
            alpha = float(gen.uniform(0.05, 1.2)) * 2.0 * (1.0 + beta)
            gamma, tau2 = float(gen.uniform(0.01, 1.0)), float(gen.uniform(-0.5, 1.0))
            traj = run_se(spec, SGDParams(alpha=alpha, beta=beta, gamma=gamma, tau2=tau2, steps=300))
            assert kernel_run(spec, [alpha], beta, gamma, 1.0, tau2, 300)[2][0] == 0.0
            assert traj.metadata["min_output_moment"] == 0.0 and not traj.metadata["negative_moments"]
            blocked += simulate._blocked_cells(spec, alpha, beta, 1.0, tau2, 300)[0].all()
        assert 40 <= blocked < 60

    def test_kernel_keeps_unqualified_runs(self):
        # tau1 < tau2, tau1 < 0, every mode decaying fast, the top mode near the heavy-ball edge,
        # or too many modes for k >= 4
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 50))
        for tau1, tau2 in ((0.3, 1.0), (-0.2, -0.5)):
            assert not simulate._blocked_cells(spec, 0.5, 0.5, tau1, tau2, 1000)[0].any()
        assert simulate._blocked_cells(spec, 0.5, 0.5, 1.0, 1.0, 1000)[0].all()
        # every mode of [1, 0.8, 0.6] at 0.7 of the heavy-ball edge, beta 0.3: moments fall by
        # 0.3 a step, 4e-9 over a block of 16, where the slowest mode must keep 1e-3
        few = Spectrum.from_c0([1.0, 0.8, 0.6], [1.0, 1.0, 1.0])
        assert not simulate._blocked_cells(few, 0.7 * 2.6, 0.3, 1.0, 1.0, 1000)[0].any()
        assert simulate._blocked_cells(few, 0.1, 0.3, 1.0, 1.0, 1000)[0].all()
        # the top mode within 15% of the edge alpha lambda_max = 2 (1 + beta), on either side
        edge = 2.0 * 1.5 / spec.lambda_max
        assert simulate._blocked_cells(spec, [0.8 * edge, 0.88 * edge, 1.12 * edge, 1.2 * edge], 0.5,
                                       1.0, 1.0, 1000)[0].tolist() == [True, False, False, True]
        for steps in (1000, 10_000):  # the budget caps k at any horizon
            assert simulate._se_block_steps(3, 5461, steps) == 4 and simulate._se_block_steps(3, 5462, steps) == 0
            assert simulate._se_block_steps(1, 16000, steps) == 4 and simulate._se_block_steps(1, 50000, steps) == 0

    def test_blas_thread_count_does_not_change_results(self):
        # the blocked rounds are BLAS matrix-vector products: on 2000 modes, on reduced-map cells
        # (200 modes, k = 16, 6 beta != 0 cells a batch) in forked batches, and on the Gauss nodes
        # of the README presets, whose (k, d nodes) row blocks OpenBLAS splits
        script = POOL_PRELUDE + """
out = []
spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 2000))
out += [run_se(spec, SGDParams(alpha=0.4, beta=b, gamma=0.3, steps=600)).losses for b in (0.0, 0.5)]
grid = run_se_grid(spec, [0.4, 2.5], [0.0, 0.5], 0.3, 1.0, 1.0, 300)
out += [grid[key].astype(float) for key in sorted(grid)]
spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 200))
((_, points, k, size),) = simulate._se_plan(spec, 1.0, 0.5, 0.1, 1.0, 1.0, 300)
assert points[0] is spec.lambdas and (k, size) == (16, 6), (k, size)
made.clear()
grid = run_se_grid(spec, np.linspace(0.1, 4.0, 10), np.linspace(0.0, 0.95, 5), 0.1, 1.0, 1.0, 300)
assert len(made) == 2 and (grid["diverged_at"] >= 0).any() and (grid["diverged_at"] < 0).any(), made
out += [grid[key].astype(float) for key in sorted(grid)]
spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 16000))
params = SGDParams(alpha=0.3, beta=0.5, gamma=0.1, steps=2000)
((_, points, k, _),) = simulate._se_plan(spec, 0.3, 0.5, 0.1, 1.0, 1.0, 2000)
assert points[0].size < len(spec) and k == 16
out.append(run_se(spec, params).losses)
# the README presets at 10^4 steps: 32-step rounds on the 16000 modes' 501 nodes (d = 3), 64-step
# rounds on the 50000 modes' 537 (d = 1), premixed in GEMMs small enough for one thread
out.append(run_se(spec, params.with_(gamma=1.0, steps=10_000)).losses)
spec = build_power_law(PowerLawSpec(1.0, 0.75, 1.0, 0.375, 50000))
((_, points, k, _),) = simulate._se_plan(spec, 0.08, 0.0, 1.0, 1.0, 1.0, 10_000)
assert points[0].size == 537 and k == 64
out.append(run_se(spec, SGDParams(alpha=0.08, gamma=1.0, steps=10_000)).losses)
print(b"".join(x.tobytes() for x in out).hex())
"""
        src = str(Path(simulate.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "SGDPHASELAB_THREADS": "2", "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, check=True, timeout=300)
            outs.append(done.stdout.strip())
        assert outs[0] == outs[1] and len(outs[0]) > 50000


def long_round_draws(gen, kind, count, steps):
    """``count`` cells on 3-5 random modes that run_se runs blocked at k = 64 over ``steps`` steps,
    as (spectrum, alpha, beta, gamma, tau2) at tau1 = 1: "edge" puts the top mode 15-35% from the
    heavy-ball edge, "fast" makes every mode decay about as fast as the decay test at k = 64 allows
    (modes in [0.3, 1], 5-60% of the edge). A quarter of them take no noise, a fifth beta = 0."""
    draws = []
    while len(draws) < count:
        m = int(gen.integers(3, 6))
        spec = Spectrum.from_c0(np.sort(gen.uniform(0.02 if kind == "edge" else 0.3, 1.0, m))[::-1],
                                gen.uniform(0.0, 2.0, m))
        beta = float(gen.uniform(-0.5, 0.95)) if gen.random() < 0.8 else 0.0
        frac = gen.uniform(0.65, 0.85) if kind == "edge" else gen.uniform(0.05, 0.6)
        alpha = float(frac * 2.0 * (1.0 + beta) / spec.lambda_max)
        gamma = 0.0 if gen.random() < 0.25 else float(gen.uniform(0.0, 0.3))
        tau2 = float(gen.uniform(0.0, 1.0))
        blocked, k = simulate._blocked_cells(spec, alpha, beta, 1.0, tau2, steps)
        if blocked.all() and k == 64:
            draws.append((spec, alpha, beta, gamma, tau2))
    return draws


class TestLongRounds:
    # the blocked engine's rounds against se_reference (conftest), a double-double recursion
    def test_reference_is_exact_to_double_rounding(self):
        # an exact rational recursion of the same step on 3 modes with noise and momentum, 60 steps
        lam, start, steps = [1.0, 0.45, 0.07], [0.9, 0.135, 0.0035], 60  # start: lam C0
        alpha, beta, gamma, tau1, tau2 = 0.55, 0.6, 0.3, 1.0, 0.7
        b = Fraction(beta)
        tables, state = [], [[Fraction(x), Fraction(0), Fraction(0)] for x in start]
        for x in lam:
            a = Fraction(alpha) * Fraction(x)
            q, r = Fraction(tau2) * Fraction(gamma) * a * a, Fraction(tau1) * Fraction(gamma) * a * a
            tables.append(((((1 - a) ** 2 - q, 2 * b * (1 - a), b * b), (a * a - a - q, b * (1 - 2 * a), b * b),
                            (a * a - q, -2 * a * b, b * b)), r))
        want = []
        for _ in range(steps + 1):
            s = sum(m[0] for m in state)
            want.append(float(s / 2))
            state = [[sum(c * x for c, x in zip(row, m)) + r * s for row in rows]
                     for m, (rows, r) in zip(state, tables)]
        got = se_reference(lam, start, alpha, beta, gamma, tau1, tau2, steps)[0]
        assert min(want) < 1e-6 * want[0]  # the loss falls by orders
        assert max_rel_err(got, want) <= 2.3e-16

    def test_longer_rounds_err_no_more_than_16(self):
        # 96 draws over 4096 steps, whose losses fall by 100 to 190 orders: against the reference
        # the median error at k = 32 and at k = 64 is at most k = 16's, and the largest at most
        # twice k = 16's largest. Over 12 seeds of 96 draws the median ratios were 0.46-0.95 (k =
        # 32) and 0.49-0.77 (k = 64) and the largest 0.20-1.35 and 0.18-1.50; the largest errors,
        # 1e-11 to 1e-9, are the draws' own: the kernel's largest was 3e-11 to 8e-10
        steps, gen = 4096, np.random.default_rng(0)
        draws = long_round_draws(gen, "edge", 48, steps) + long_round_draws(gen, "fast", 48, steps)
        lam, start = np.zeros((len(draws), 5)), np.zeros((len(draws), 5))
        for i, (spec, *_) in enumerate(draws):
            lam[i, : len(spec)], start[i, : len(spec)] = spec.lambdas, spec.lambda_c0
        alpha, beta, gamma, tau2 = np.array([d[1:] for d in draws]).T
        with np.errstate(over="ignore", invalid="ignore"):
            ref = se_reference(lam, start, alpha, beta, gamma, 1.0, tau2, steps)
        errs = []
        for i, (spec, *cell) in enumerate(draws):
            if not (np.isfinite(ref[i]).all() and ref[i].max() <= simulate.DIVERGENCE_RATIO * ref[i, 0]):
                continue  # a divergent draw
            runs = [simulate._se_cells(spectrum._se_modes(spec), simulate._divergence_threshold(spec.initial_loss),
                                       *cell[:3], 1.0, cell[3], steps, k, history=True) for k in (16, 32, 64)]
            assert all(run[3][0] == -1 for run in runs)
            errs.append([max_rel_err(0.5 * run[4][0], ref[i]) for run in runs])
            if i % 8 == 0:  # run_se takes k = 64
                traj = run_se(spec, SGDParams(alpha=cell[0], beta=cell[1], gamma=cell[2], tau2=cell[3], steps=steps))
                assert np.array_equal(traj.losses, 0.5 * runs[2][4][0])
        errs = np.array(errs)
        assert len(errs) >= 48 and errs.max() < 1e-8
        median, largest = np.median(errs, axis=0), errs.max(axis=0)
        assert (median[1:] <= median[0]).all(), median
        assert (largest[1:] <= 2.0 * largest[0]).all(), largest

    def test_near_edge_noise_free_cell_is_off_on_both_engines(self):
        # TestBlockedEngine's 0.95-gamma0 case: over its 197 steps, the third cell's loss dips to
        # 4e-6 of its start, and at its minima the kernel errs by 6.4e-12 and the blocked engine by
        # 4.9e-12 at k = 64, so that case holds both to the reference, not to each other at 1e-13
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 300))
        beta, steps = 0.95, 3 * 64 + 5
        alpha = 0.8 * 2.0 * (1.0 + beta) / spec.lambda_max
        ref = se_reference(spec.lambdas, spec.lambda_c0, alpha, beta, 0.0, 1.0, 0.7, steps)[0]
        kernel = 0.5 * kernel_run(spec, [alpha], beta, 0.0, 1.0, 0.7, steps)[4][0]
        table, r = _se_table(spec.lambdas, alpha, beta, 0.0, 1.0, 0.7)
        blocked = 0.5 * _se_run(*_se_blocked(table, r, spec.lambda_c0[None].copy(), 64), steps, None, True)[4][0]
        assert ref.min() < 1e-5 * ref[0]
        assert 3e-12 < max_rel_err(kernel, ref) < 1e-11 and 3e-12 < max_rel_err(blocked, ref) < 1e-11


def stepped_reference(spec, alpha, beta, gamma, tau1, tau2, steps):
    """The velocity-form SE step written out on one cell, in the kernel's order of operations:
    the losses up to the divergence crossing, its step (None if none) and the lowest moment
    through each step."""
    lam = spec.lambdas
    a = alpha * lam
    q, r = (tau2 * gamma) * (a * a), (tau1 * gamma) * (a * a)
    b2, m2, m1 = beta * beta, -2.0 * beta * a, a * a - q
    c, j, v = spec.lambda_c0.copy(), np.zeros_like(lam), np.zeros_like(lam)
    losses, lows = [0.5 * c.sum()], [min(0.0, c.min())]
    threshold = simulate.DIVERGENCE_RATIO * losses[0]
    for t in range(1, steps + 1):
        w = r * c.sum()
        h = beta * j - a * c
        v = b2 * v + w + m2 * j + m1 * c
        j = h + v
        c = c + h + j
        losses.append(0.5 * c.sum())
        lows.append(min(lows[-1], c.min()))
        if not losses[-1] <= threshold:
            return losses, t, lows
    return losses, None, lows


class TestRoundLoop:
    def test_crossing_bookkeeping_matches_a_stepped_reference(self):
        # tau1 < tau2 puts every cell on the kernel, whose rounds are 16 steps, and moments go
        # negative; cells cross in the first round and at steps that are no multiple of 16, and
        # at tau1 < 0 some cells reach their lowest moment at the crossing step itself
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 200))
        crossings, set_at_crossing = [], 0
        for beta, gamma, tau1, tau2 in ((0.5, 0.5, 0.3, 1.0), (-0.4, 0.5, 0.3, 1.0), (0.5, 0.5, -0.5, 0.5)):
            alphas = np.linspace(1.0, 8.0, 15) * (1.0 + beta)
            grid = run_se_grid(spec, alphas, [beta], gamma, tau1, tau2, 300)
            assert (grid["min_output_moment"] < 0.0).any()
            for i, alpha in enumerate(alphas):
                losses, crossed, lows = stepped_reference(spec, alpha, beta, gamma, tau1, tau2, 300)
                traj = run_se(spec, SGDParams(alpha=alpha, beta=beta, gamma=gamma, tau1=tau1, tau2=tau2, steps=300))
                assert traj.diverged_at == crossed and np.array_equal(traj.losses, losses)
                assert traj.metadata["min_output_moment"] == lows[-1]
                assert grid["diverged_at"][i, 0] == (-1 if crossed is None else crossed)
                assert grid["final_loss"][i, 0] == losses[-1]
                assert grid["min_loss"][i, 0] == min(losses[:-1] if crossed else losses)
                assert grid["min_output_moment"][i, 0] == lows[-1]
                crossings.append(crossed)
                set_at_crossing += crossed is not None and lows[-1] < lows[-2]
        hit = [t for t in crossings if t is not None]
        assert None in crossings and min(hit) < 16 and len([t for t in hit if t % 16]) >= 10
        assert set_at_crossing >= 3

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    @pytest.mark.parametrize("tau2", [0.5, 1.2])
    @pytest.mark.parametrize("scale", [1e10, 1e200])
    def test_immediate_divergence_warns_nothing(self, beta, tau2, scale):
        # at alpha lambda_max = 1e10 a run crosses at step 1 on either engine (blocked at
        # tau2 <= tau1); the overflow after the crossing, in a block's operators or in the rest of
        # a kernel round, is dropped and not reported. At 1e200 the step's coefficients and the
        # dispatch tests overflow too
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 200))
        alpha = scale / spec.lambda_max
        assert simulate._blocked_cells(spec, alpha, beta, 1.0, tau2, 100)[0].all() == (tau2 <= 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run_se(spec, SGDParams(alpha=alpha, beta=beta, gamma=0.1, tau2=tau2, steps=100))
            grid = run_se_grid(spec, [0.5 * alpha, alpha], [beta], 0.1, 1.0, tau2, 100)
        assert traj.diverged_at == 1 and (grid["diverged_at"] == 1).all()


# Runs a script in a fresh interpreter in the default environment, where run_se_grid may fork;
# any DeprecationWarning or RuntimeWarning fails it. ``made`` holds, for each os.fork the script
# made, the process's OS threads just after it, as Python 3.12 counts them for its
# fork-with-threads warning (0 where /proc does not tell).
POOL_PRELUDE = """
import os, threading
import numpy as np
from sgdphaselab import PowerLawSpec, SGDParams, build_power_law, run_se, run_se_grid, simulate
made, fork = [], os.fork
def counted_fork():
    pid = fork()
    if pid:
        try:
            with open("/proc/self/status") as fh:
                made.append(int(next(line for line in fh if line.startswith("Threads:")).split()[1]))
        except OSError:
            made.append(0)
    return pid
os.fork = counted_fork
def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""


def run_fresh(script: str) -> None:
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-W", "error::RuntimeWarning",
                           "-c", POOL_PRELUDE + script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0 and not done.stderr, done.stderr


class TestGridBatches:
    def test_pooled_grid_is_independent_of_workers_and_bitwise_run_se(self):
        # 2000 modes: 16 cells a batch, so the 36 beta != 0 cells take 3 or 4 batches; cells
        # diverge at several steps, in several batches, and some moments go negative
        run_fresh("""
spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 2000))
alphas, betas = np.linspace(0.2, 3.5, 12), [0.0, 0.3, 0.6, 0.9]
for tau1 in (0.1, 1.0):  # every cell on the kernel, then all but three blocked
    grids = []
    for workers in ("1", "2", "3"):
        os.environ["SGDPHASELAB_THREADS"] = workers
        made.clear()
        grids.append(run_se_grid(spec, alphas, betas, 0.5, tau1, 1.0, 400))
        assert len(made) == [0, 2, 3][int(workers) - 1], made  # no fork, then 2, then 3
    for grid in grids[1:]:
        assert grid.keys() == grids[0].keys()
        for key, x in grid.items():
            assert x.dtype == grids[0][key].dtype and np.array_equal(x, grids[0][key]), key
    grid = grids[0]
    steps = grid["diverged_at"][grid["diverged_at"] >= 0]
    assert len(set(steps.tolist())) >= 3 and (grid["diverged_at"] < 0).any()
    assert grid["negative_moments"].any() == (tau1 < 1.0)
    # at tau1 = tau2 all but 2.3, 2.6 and 2.9, within 15% of the heavy-ball edge 2 (1 + beta), run blocked
    assert simulate._blocked_cells(spec, alphas, 0.3, tau1, 1.0, 400)[0].sum() == (9 if tau1 == 1.0 else 0)
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            traj = run_se(spec, SGDParams(alpha=a, beta=b, gamma=0.5, tau1=tau1, steps=400))
            assert grid["final_loss"][i, j] == traj.losses[-1]
            assert grid["min_loss"][i, j] == np.min(traj.losses)
            assert grid["diverged_at"][i, j] == (-1 if traj.diverged_at is None else traj.diverged_at)
            assert grid["min_output_moment"][i, j] == traj.metadata["min_output_moment"]
""")

    def test_compressed_grid_is_bitwise_run_se_and_builds_nodes_once_here(self):
        # 5000 modes: every cell steps the Gauss nodes, beta = 0 too (its modes get k = 8), but
        # the beta = 0.9 cells at the five largest alphas, which _gauss_holds does not trust over
        # 400 steps; on nodes and modes alike the cells near the heavy-ball edge run on the kernel,
        # the others blocked. The nodes are built once a spectrum and noise flag, in the process
        # that called the grid, and kept on the spectrum for every later run_se and grid; each
        # grid cell runs on the engine (nodes or modes, k) that the plan of its run_se picks
        run_fresh("""
from sgdphaselab import GenFuncContext, reconstruct_loss, spectrum
alphas, betas = np.linspace(0.2, 3.5, 12), [0.0, 0.3, 0.9]
parent, calls, build = os.getpid(), [], spectrum._se_nodes
def counted(*args):
    assert os.getpid() == parent, "nodes built in a worker"
    calls.append(args)
    return build(*args)
spectrum._se_nodes = counted
engines, pool = {}, simulate._map_batches
def batched(fn, jobs, workers):
    for job in jobs:
        engines.update(((alpha, beta), (job[0][0] is not spec.lambdas, job[8])) for alpha, beta in zip(job[2], job[3]))
    return pool(fn, jobs, workers)
simulate._map_batches = batched
grids = []
for workers in ("1", "2"):
    os.environ["SGDPHASELAB_THREADS"] = workers
    spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 5000))  # a new spectrum builds its own nodes
    calls.clear()
    made.clear()
    grids.append(run_se_grid(spec, alphas, betas, 0.5, 1.0, 1.0, 400))
    assert calls == [(spec, True)] and len(made) == 2 * (workers == "2"), (calls, made)
    run_se_grid(spec, alphas, betas, 0.5, 1.0, 1.0, 400)
    assert len(calls) == 1, calls
assert all(np.array_equal(x, grids[0][key]) for key, x in grids[1].items())
groups = {(beta != 0.0, *engine) for (_, beta), engine in engines.items()}
assert len(engines) == 36 and groups == {(False, True, 0), (False, True, 16), (True, True, 0), (True, True, 16),
                                         (True, False, 0), (True, False, 4)}, groups
assert (grids[0]["diverged_at"] >= 0).any() and (grids[0]["diverged_at"] < 0).any()
used, cells = [], simulate._se_cells
def recorded(*args, **kwargs):
    used.append((args[0][0] is not spec.lambdas, args[8]))
    return cells(*args, **kwargs)
simulate._se_cells = recorded
for i, alpha in enumerate(alphas):
    for j, beta in enumerate(betas):
        used.clear()
        traj = run_se(spec, SGDParams(alpha=alpha, beta=beta, gamma=0.5, steps=400))
        assert used == [engines[alpha, beta]], (alpha, beta, used)
        assert grids[0]["final_loss"][i, j] == traj.losses[-1]
        assert grids[0]["min_loss"][i, j] == np.min(traj.losses)
        assert grids[0]["diverged_at"][i, j] == (-1 if traj.diverged_at is None else traj.diverged_at)
assert len(calls) == 1, calls  # the 36 run_se calls read the grid's nodes
for gamma in (0.0, 0.0, 0.5):  # without noise the nodes leave the noise measure out: a second build
    run_se(spec, SGDParams(alpha=1.0, beta=0.3, gamma=gamma, steps=50))
assert calls == [(spec, True), (spec, False)], calls
# the oracle sums over the nodes run_se steps: on a new spectrum, reconstruct_loss and run_se
# build them once a noise flag between them (gamma = 0 runs the oracle on the modes)
fresh = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 5000))
calls.clear()
for gamma in (0.5, 0.0):
    for _ in range(2):
        reconstruct_loss(GenFuncContext(fresh, 0.5, 0.3, gamma, 1.0), 400)
        run_se(fresh, SGDParams(alpha=0.5, beta=0.3, gamma=gamma, steps=400))
assert calls == [(fresh, True), (fresh, False)], calls
""")

    def test_long_horizon_grid_is_bitwise_run_se(self):
        # at 4096 steps the rounds are 64 steps on 200 modes at either d: cells that diverge and
        # cells that converge run blocked, cells near the heavy-ball edge on the kernel, at 1 and 2
        # workers, and each cell is bitwise its run_se run, which plans the same k
        run_fresh("""
spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 200))
alphas, betas, steps = np.linspace(0.2, 3.5, 8), [0.0, 0.5], 4096
engines, pool = set(), simulate._map_batches
def batched(fn, jobs, workers):
    engines.update((job[3][0] != 0.0, job[8]) for job in jobs)
    return pool(fn, jobs, workers)
simulate._map_batches = batched
grids = []
for workers in ("1", "2"):
    os.environ["SGDPHASELAB_THREADS"] = workers
    made.clear()
    grids.append(run_se_grid(spec, alphas, betas, 0.3, 1.0, 1.0, steps))
    assert len(made) == 2 * (workers == "2"), made
assert engines == {(False, 0), (False, 64), (True, 0), (True, 64)}, engines
assert all(np.array_equal(x, grids[0][key]) for key, x in grids[1].items())
grid = grids[0]
assert (grid["diverged_at"] >= 0).sum() >= 4 and (grid["diverged_at"] < 0).sum() >= 4
for i, a in enumerate(alphas):
    for j, b in enumerate(betas):
        traj = run_se(spec, SGDParams(alpha=a, beta=b, gamma=0.3, steps=steps))
        assert grid["final_loss"][i, j] == traj.losses[-1]
        assert grid["min_loss"][i, j] == np.min(traj.losses)
        assert grid["diverged_at"][i, j] == (-1 if traj.diverged_at is None else traj.diverged_at)
""")

    def test_readme_map_keeps_16_step_rounds(self):
        # the README map's 1000 steps take the rounds of any horizon below 2048 steps, so its
        # blocked cells plan k = 16 and its artifacts keep their bits
        argv = ["stability-map", "--nu", "1.5", "--kappa", "3", "--modes", "200", "--batch", "10"]
        cfg, (spec, params) = cli.parse_config(argv), cli_preset(argv)
        alphas, betas = cli._stability_grids(cfg)
        plan = simulate._se_plan(spec, np.repeat(alphas, betas.size), np.tile(betas, alphas.size), params.gamma,
                                 cfg.tau1, cfg.tau2, cfg.steps)
        assert cfg.steps == 1000 and sorted(k for _, _, k, _ in plan) == [0, 0, 16, 16]

    def test_pooled_stability_map_warns_nothing(self, tmp_path):
        run_fresh(f"""
from sgdphaselab.cli import main
os.environ["SGDPHASELAB_THREADS"] = "2"
assert main(["stability-map", "--nu", "1.5", "--kappa", "3", "--modes", "1000", "--batch", "10",
             "--steps", "100", "--out", {str(tmp_path)!r}]) == 0
assert len(made) == 2 and max(made) <= 1, made  # one OS thread after each fork, the parent's own
assert no_child_left()
""")

    def test_job_that_raises_in_a_worker_raises_here(self, tmp_path):
        # the worker sends the exception back; a MemoryError in one batch of a pooled map still
        # exits 4 and writes nothing
        run_fresh(f"""
import contextlib, io
from sgdphaselab import cli
def job(i):
    if i == 3:
        raise ValueError(f"bad job {{i}} in {{os.getpid()}}")
    return i
parent = os.getpid()
try:
    simulate._map_batches(job, [(i,) for i in range(8)], 2)
    raise AssertionError("no error")
except ValueError as exc:
    assert str(exc).startswith("bad job 3 in ") and str(exc) != f"bad job 3 in {{parent}}", exc
assert len(made) == 2 and no_child_left(), made
argv = ["stability-map", "--nu", "1.5", "--kappa", "3", "--modes", "200", "--batch", "10", "--steps", "100"]
alphas, betas = cli._stability_grids(cli.parse_config(argv))
cells = simulate._se_cells
def starved(points, threshold, alpha, beta, *args, **kwargs):
    if os.getpid() != parent and alpha[0] == alphas[0] and beta[0] == betas[0]:  # the batch of the first cell
        raise MemoryError()
    return cells(points, threshold, alpha, beta, *args, **kwargs)
simulate._se_cells = starved
os.environ["SGDPHASELAB_THREADS"] = "2"
made.clear()
out, err = {str(tmp_path / "map")!r}, io.StringIO()
with contextlib.redirect_stderr(err):
    assert cli.main([*argv, "--out", out]) == 4
assert len(err.getvalue().splitlines()) == 1 and not os.path.exists(out), err.getvalue()
assert len(made) == 2 and no_child_left(), made
""")

    def test_worker_killed_mid_grid_raises_here(self):
        # a job sends its own worker SIGKILL: one line in the parent, no hang, no child left; also
        # where every worker dies while the parent still fills the queue
        run_fresh("""
import signal
def job(i, doomed):  # doomed: a lambda, as jobs are inherited, not pickled
    if doomed(i):
        os.kill(os.getpid(), signal.SIGKILL)
    return i
for workers, jobs, doomed in ((2, 40, lambda i: i == 5), (3, 40, lambda i: i == 5), (2, 20000, lambda i: True)):
    made.clear()
    try:
        simulate._map_batches(job, [(i, doomed) for i in range(jobs)], workers)
        raise AssertionError("no error")
    except RuntimeError as exc:
        assert str(exc) == "a grid worker died (signal 9)", exc
    assert len(made) == workers and no_child_left(), made
""")

    def test_more_jobs_than_the_queue_holds_come_back_in_order(self):
        # 20000 job numbers are 80 000 bytes, more than a 64 KiB pipe holds; any fn goes, a lambda too
        run_fresh("""
assert simulate._map_batches(lambda i: i * i, [(i,) for i in range(20000)], 3) == [i * i for i in range(20000)]
assert len(made) == 3 and no_child_left(), made
""")

    def test_grid_runs_in_process_while_another_thread_lives(self):
        run_fresh("""
spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 2000))
args = (spec, np.linspace(0.2, 3.5, 6), [0.0, 0.5, 0.9], 0.5, 1.0, 1.0, 100)
os.environ["SGDPHASELAB_THREADS"] = "2"
pooled = run_se_grid(*args)
assert len(made) == 2, made
def no_fork():
    raise AssertionError("forked while another thread was alive")
os.fork = no_fork
release = threading.Event()
other = threading.Thread(target=release.wait)
other.start()
try:
    assert threading.active_count() > 1
    alone = run_se_grid(*args)
finally:
    release.set()
    other.join(timeout=10)
assert not other.is_alive()
assert all(np.array_equal(alone[key], x) for key, x in pooled.items())
""")

    def test_grid_forks_while_the_blas_pool_lives(self):
        run_fresh("""
x = np.random.default_rng(0).standard_normal((256, 256))
assert np.isfinite(x @ x).all()  # a GEMM, so OpenBLAS's thread pool is running
spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 2000))
args = (spec, np.linspace(0.2, 3.5, 6), [0.0, 0.5, 0.9], 0.5, 1.0, 1.0, 100)
os.environ["SGDPHASELAB_THREADS"] = "2"
pooled = run_se_grid(*args)
assert len(made) == 2, made
os.environ["SGDPHASELAB_THREADS"] = "1"
alone = run_se_grid(*args)
assert len(made) == 2, made
assert all(x.dtype == alone[key].dtype and np.array_equal(alone[key], x) for key, x in pooled.items())
""")

    def test_grid_runs_in_process_where_blas_may_not_survive_a_fork(self):
        # the workers call BLAS, so a pool needs pthreads OpenBLAS, as numpy's build records it:
        # numpy's wheels are such a build, a reported MKL, Accelerate or OpenMP build is not
        run_fresh("""
spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 200))
args = (spec, np.linspace(0.2, 3.5, 6), [0.0, 0.5, 0.9], 0.5, 1.0, 1.0, 100)
os.environ["SGDPHASELAB_THREADS"] = "2"
pooled = run_se_grid(*args)
assert len(made) == 2, (made, simulate._BLAS)
for blas in (("mkl-sdl", []), ("accelerate", []), ("scipy-openblas", "OpenBLAS 0.3.27 USE_OPENMP Haswell".split()),
             ("openblas", "USE_64BITINT=1 NO_AFFINITY=1 USE_OPENMP=1 HASWELL".split())):
    simulate._BLAS = blas
    alone = run_se_grid(*args)
    assert len(made) == 2, (blas, made)
    assert all(x.dtype == alone[key].dtype and np.array_equal(alone[key], x) for key, x in pooled.items())
simulate._BLAS = ("openblas64", "USE_64BITINT=1 NO_AFFINITY=1 USE_OPENMP= HASWELL".split())  # numpy 1.26's wheels
run_se_grid(*args)
assert len(made) == 4, made
""")

    def test_worker_count(self, monkeypatch):
        monkeypatch.delenv("SGDPHASELAB_THREADS", raising=False)
        if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on, at most 8
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
            assert simulate._worker_count() == 3
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
            assert simulate._worker_count() == 8
        for text, workers in (("1", 1), ("5", 5)):
            monkeypatch.setenv("SGDPHASELAB_THREADS", text)
            assert simulate._worker_count() == workers

    @pytest.mark.parametrize("text", ["0", "-3", "lots", "2.5"])
    def test_worker_count_below_one_rejected(self, monkeypatch, text):
        monkeypatch.setenv("SGDPHASELAB_THREADS", text)
        with pytest.raises(ValidationError, match="SGDPHASELAB_THREADS"):
            simulate._worker_count()

    def test_bad_worker_env_rejected_on_a_one_batch_grid(self, monkeypatch):
        monkeypatch.setenv("SGDPHASELAB_THREADS", "lots")
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 20))
        with pytest.raises(ValidationError, match="SGDPHASELAB_THREADS"):
            run_se_grid(spec, [0.5], [0.0], 0.1, 1.0, 1.0, 10)

    def test_bad_worker_env_ignored_by_run_se(self, monkeypatch):
        # only the grid has workers to count: run_se never reads the variable
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 5000))
        params = SGDParams(alpha=0.5, beta=0.3, gamma=0.1, steps=100)
        monkeypatch.delenv("SGDPHASELAB_THREADS", raising=False)
        want = run_se(spec, params).losses
        monkeypatch.setenv("SGDPHASELAB_THREADS", "lots")
        assert np.array_equal(run_se(spec, params).losses, want)

    def test_jobs_carry_the_points_their_cells_step_not_the_spectrum(self, monkeypatch):
        # the 5000-mode map: a job holds the (lambda, start, weight) arrays, modes or Gauss nodes,
        # that each of its cells' run_se steps, and the divergence threshold, but no Spectrum
        cfg = cli.parse_config(["stability-map", "--nu", "1.5", "--kappa", "3", "--modes", "5000",
                                "--batch", "10", "--steps", "200"])
        spec, _ = cli._build_problem(cfg)
        alphas, betas = cli._stability_grids(cfg)
        gamma = cli._se_params(cfg, spec).gamma
        jobs = []

        def record(fn, batch, workers):  # results that place the cells, without running them
            jobs.extend(batch)
            return [(np.zeros(job[2].size),) * 3 + (np.full(job[2].size, -1),) for job in batch]

        monkeypatch.setattr(simulate, "_map_batches", record)
        run_se_grid(spec, alphas, betas, gamma, cfg.tau1, cfg.tau2, cfg.steps)
        cells = {}
        for job in jobs:
            assert not any(isinstance(x, Spectrum) for x in (*job, *job[0]))
            assert job[1] == simulate._divergence_threshold(spec.initial_loss)
            cells.update(((alpha, beta), job[0]) for alpha, beta in zip(job[2], job[3]))
        assert len(cells) == alphas.size * betas.size

        class Stepped(Exception):
            pass

        def stepped(points, *args, **kwargs):
            raise Stepped(points)

        monkeypatch.setattr(simulate, "_se_cells", stepped)
        for (alpha, beta), points in cells.items():
            with pytest.raises(Stepped) as run:
                run_se(spec, SGDParams(alpha=alpha, beta=beta, gamma=gamma, steps=cfg.steps))
            lam, start, weight = run.value.args[0]
            assert lam is points[0] and start is points[1] and np.array_equal(weight, points[2])
        assert {points[0].size for points in cells.values()} == {len(spec), spec._nodes(True)[0].size}

    def test_batches_split_each_group_round_robin(self, monkeypatch):
        # which cells share a batch: the map hands each batch its cells, in grid order;
        # tau1 < tau2 keeps every cell on the kernel, whose batches _GRID_BATCH sizes
        seen = []

        def record(fn, jobs, workers):
            seen.extend((job[2].tolist(), job[3].tolist(), workers) for job in jobs)
            return [fn(*job) for job in jobs]

        monkeypatch.setattr(simulate, "_map_batches", record)
        monkeypatch.setattr(simulate, "_GRID_BATCH", 40)  # 2 cells a batch on 20 modes
        monkeypatch.setenv("SGDPHASELAB_THREADS", "2")
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 20))
        run_se_grid(spec, [1.0, 2.0, 3.0], [0.0, 0.5], 0.1, 0.5, 1.0, 10)
        # beta = 0: 3 cells need 2 batches; beta = 0.5: likewise
        assert seen == [([1.0, 3.0], [0.0, 0.0], 2), ([2.0], [0.0], 2),
                        ([1.0, 3.0], [0.5, 0.5], 2), ([2.0], [0.5], 2)]
        seen.clear()
        monkeypatch.setattr(simulate, "_GRID_BATCH", 20)  # 1 cell a batch: 3 batches, not 4 empty-padded
        run_se_grid(spec, [1.0, 2.0, 3.0], [0.5], 0.1, 0.5, 1.0, 10)
        assert [cells for cells, _, _ in seen] == [[1.0], [2.0], [3.0]]

    def test_blocked_cells_batch_apart_within_the_budget(self, monkeypatch):
        # alpha = 2 lies within 15% of both heavy-ball edges, 2 and 2.1, so it runs on the kernel;
        # the others run blocked, in batches whose rows and G fit _SE_BUDGET
        seen = []

        def record(fn, jobs, workers):
            seen.extend((job[2].tolist(), job[3].tolist()) for job in jobs)
            return [fn(*job) for job in jobs]

        monkeypatch.setattr(simulate, "_map_batches", record)
        monkeypatch.setattr(simulate, "_SE_BUDGET", 2 * 16 * 3 * 20 * 16)  # two d = 3 cells at k = 16
        monkeypatch.setenv("SGDPHASELAB_THREADS", "2")
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 20))
        assert spec.lambda_max == 1.0
        alphas = [1.0, 2.0, 3.0, 4.0, 5.0]
        grid = run_se_grid(spec, alphas, [0.0, 0.05], 0.1, 1.0, 1.0, 10)
        assert seen == [([2.0], [0.0]), ([1.0, 3.0, 4.0, 5.0], [0.0] * 4),
                        ([2.0], [0.05]), ([1.0, 4.0], [0.05, 0.05]), ([3.0, 5.0], [0.05, 0.05])]
        for i, a in enumerate(alphas):
            for j, b in enumerate([0.0, 0.05]):
                traj = run_se(spec, SGDParams(alpha=a, beta=b, gamma=0.1, steps=10))
                assert grid["final_loss"][i, j] == traj.losses[-1]
                assert grid["min_loss"][i, j] == np.min(traj.losses)


class TestRunNoiseless:
    def test_convergence_boundary_crossed(self):
        # just past alpha = 2(1+beta)/lambda_max the iteration is unstable
        for beta in (-0.5, 0.0, 0.5, 0.9):
            spec = Spectrum.from_c0([1.0, 0.3], [1.0, 1.0])
            alpha = 2.0 * (1.0 + beta) / spec.lambda_max + 0.01
            traj = run_noiseless(spec, SGDParams(alpha=alpha, beta=beta, steps=20000))
            assert traj.diverged_at is not None, beta

    def test_preset_reports_no_negative_moment(self):
        # the README's noiseless preset: it runs blocked, as its noisy cell does, and tau2 <=
        # tau1, so its moments provably stay >= 0 and it reports 0 on either engine, not the
        # -5e-324 to which the kernel's rounding takes one
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 200))
        assert simulate._blocked_cells(spec, 0.3, 0.5, 1.0, 1.0, 2000)[0].all()
        traj = run_noiseless(spec, SGDParams(alpha=0.3, beta=0.5, steps=2000))
        assert traj.metadata["min_output_moment"] == 0.0 and not traj.metadata["negative_moments"]

    def test_fast_convergence(self):
        spec = Spectrum.from_c0([1.0], [1.0])
        traj = run_noiseless(spec, SGDParams(alpha=1.9, beta=0.0, steps=10**4))
        assert traj.losses[-1] < 1e-8 * traj.losses[0]
        # scalar-recursion oracle over the first steps: L(t) = 0.5*(1-alpha)^(2t)
        t = np.arange(40)
        assert np.allclose(traj.losses[:40], 0.5 * (1 - 1.9) ** (2 * t), rtol=1e-12)

    def test_zero_start_is_fixed_point(self):
        spec = Spectrum.from_c0([1.0, 0.5], [0.0, 0.0])
        traj = run_noiseless(spec, SGDParams(alpha=0.5, beta=0.3, steps=100))
        assert np.all(traj.losses == 0.0)


class TestFullMoments:
    def test_full_batch_equals_noiseless(self, rng):
        prob = random_problem(rng, 6, 6)
        p = SGDParams(alpha=0.05, beta=0.4, batch=6, steps=200)
        dense = run_full_moments(prob, p)
        diag = run_noiseless(eigendecompose(prob).spectrum, p)
        assert max_rel_err(dense.losses, diag.losses) <= 1e-10

    def test_one_step_matches_batch_enumeration(self, rng):
        # oracle: average the one-step loss over all C(4,2) = 6 batches
        n, b = 4, 2
        prob = random_problem(rng, 5, n)
        p = SGDParams(alpha=0.3, beta=0.25, batch=b, steps=1)
        dense = run_full_moments(prob, p)
        h = prob.hessian
        dw = prob.w0 - prob.w_star
        acc = 0.0
        batches = list(itertools.combinations(range(n), b))
        for batch in batches:
            hb = prob.features[:, batch] @ prob.features[:, batch].T / b
            w1 = dw - p.alpha * hb @ dw  # v0 = 0
            acc += 0.5 * w1 @ h @ w1
        assert dense.losses[1] == pytest.approx(acc / len(batches), abs=1e-12)

    def test_rotation_invariance_with_se_noise(self, rng):
        # trajectory must not change under features -> features @ Q^T
        prob = random_problem(rng, 10, 10)
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        rotated = FeatureProblem.create(prob.features @ q.T, prob.w_star, prob.w0)
        p = SGDParams(alpha=0.05, beta=0.3, batch=2, steps=60)
        a = run_full_moments(prob, p, noise="se")
        b = run_full_moments(rotated, p, noise="se")
        assert max_rel_err(a.losses, b.losses) <= 1e-9
        # the exact sampling noise is *not* rotation invariant
        c = run_full_moments(rotated, p, noise="exact")
        d = run_full_moments(prob, p, noise="exact")
        assert max_rel_err(c.losses, d.losses) > 1e-4

    def test_moment_matrix_stays_psd(self, rng):
        prob = random_problem(rng, 8, 12)
        worst = [0.0]

        def observer(t, m):
            trace = np.trace(m)
            low = np.linalg.eigvalsh(m)[0]
            worst[0] = min(worst[0], low / trace)

        run_full_moments(prob, SGDParams(alpha=0.05, beta=0.3, batch=3, steps=150),
                         moment_observer=observer)
        assert worst[0] >= -1e-10

    def test_divergence_cuts_the_trajectory(self, rng):
        # the top mode at 1.5 of the heavy-ball edge: the losses stop at the first one above the
        # threshold, and up to it they are the separately stepped reference's
        prob = random_problem(rng, 6, 8)
        p = SGDParams(alpha=3.0 / np.linalg.eigvalsh(prob.hessian)[-1], beta=0.0, batch=2, steps=200)
        traj = run_full_moments(prob, p)
        losses, _ = separate_moments(prob, p, "exact")
        threshold = simulate.DIVERGENCE_RATIO * losses[0]
        assert traj.diverged_at == len(traj.losses) - 1 < p.steps
        assert traj.losses[-1] > threshold and np.all(traj.losses[:-1] <= threshold)
        assert max_rel_err(traj.losses, losses[: len(traj.losses)]) <= 1e-12

    def test_dimension_limit(self, rng):
        prob = random_problem(rng, 300, 4)
        with pytest.raises(ValidationError):
            run_full_moments(prob, SGDParams(alpha=0.1, batch=2, steps=1))

    @pytest.mark.parametrize("noise", ["exact", "se"])
    def test_matches_separate_moment_updates(self, rng, noise):
        prob = random_problem(rng, 8, 12)
        p = SGDParams(alpha=0.05, beta=0.4, batch=3, steps=150, tau1=1.2, tau2=0.7)
        seen = []
        dense = run_full_moments(prob, p, noise, moment_observer=lambda t, m: seen.append((t, m.copy())))
        losses, blocks = separate_moments(prob, p, noise)
        assert max_rel_err(dense.losses, losses) <= 1e-12
        assert [t for t, _ in seen] == list(range(1, p.steps + 1))
        for (_, m), want in zip(seen, blocks):
            scale = np.abs(want).max()
            assert m.shape == (16, 16)
            assert np.abs(m - want).max() <= 1e-12 * scale
            assert np.abs(m - m.T).max() <= 1e-12 * scale


def separate_moments(prob, p, noise):
    """Reference: C, J and V stepped as separate d x d matrices, with eight d x d products a step.

    Returns the losses L(0..T) and each step's combined matrix ``[[C, J], [J^T, V]]``.
    """
    h, d, alpha, beta = prob.hessian, prob.dim, p.alpha, p.beta
    gamma = p.resolve_gamma(prob.dataset_size)
    a = np.eye(d) - alpha * h
    c, j, v = prob.initial_second_moment(), np.zeros((d, d)), np.zeros((d, d))
    losses, blocks = [0.5 * np.sum(h * c)], []
    for _ in range(p.steps):
        if noise == "exact":
            sigma = exact_noise_covariance(prob, c)
        else:
            sigma = p.tau1 * h * np.sum(h * c) - p.tau2 * h @ c @ h
            sigma = 0.5 * (sigma + sigma.T)
        sigma = gamma * alpha**2 * sigma
        ac, aj = a @ c, a @ j
        c_new = ac @ a.T + beta * (aj + aj.T) + beta**2 * v
        j_new = -alpha * (h @ (ac.T + beta * j)).T + beta * aj + beta**2 * v
        hc, hj = h @ c, h @ j
        v_new = alpha**2 * hc @ h.T - alpha * beta * (hj + hj.T) + beta**2 * v
        c, j, v = c_new + sigma, j_new + sigma, v_new + sigma
        losses.append(0.5 * np.sum(h * c))
        blocks.append(np.block([[c, j], [j.T, v]]))
    return np.array(losses), blocks


class TestRunMc:
    def test_full_batch_deterministic(self, rng):
        prob = random_problem(rng, 5, 5)
        p = SGDParams(alpha=0.1, beta=0.2, batch=5, steps=50)
        mc = run_mc(prob, p, runs=7, seed=3)
        # every run follows the same full-batch recursion; spread is pure roundoff
        assert np.all(mc.stderr <= 1e-12 * mc.losses)
        diag = run_noiseless(eigendecompose(prob).spectrum, p)
        assert max_rel_err(mc.losses, diag.losses) <= 1e-9

    def test_agrees_with_exact_moments(self, rng):
        prob = random_problem(rng, 16, 16)
        p = SGDParams(alpha=0.04, beta=0.3, batch=4, steps=50)
        mc = run_mc(prob, p, runs=1500, seed=11)
        dense = run_full_moments(prob, p)
        z = np.abs(mc.losses - dense.losses)[1:] / mc.stderr[1:]
        assert z.max() <= 4.0

    def test_bitwise_reproducible(self, rng, monkeypatch):
        prob = random_problem(rng, 6, 9)
        p = SGDParams(alpha=0.1, beta=0.1, batch=3, steps=30)
        a = run_mc(prob, p, runs=64, seed=5)
        monkeypatch.setenv("SGDPHASELAB_THREADS", "8")
        b = run_mc(prob, p, runs=64, seed=5)
        assert np.array_equal(a.losses, b.losses)
        assert np.array_equal(a.stderr, b.stderr)

    def test_run_count_validation(self, rng):
        prob = random_problem(rng, 4, 4)
        for runs in (0, True):  # a bool subclasses int, but is not a count
            with pytest.raises(ValidationError):
                run_mc(prob, SGDParams(alpha=0.1, batch=2, steps=5), runs=runs, seed=1)
        with pytest.raises(ValidationError):
            run_mc(prob, SGDParams(alpha=0.1, steps=5), runs=4, seed=1)

    def test_seed_validation(self, rng):
        prob = random_problem(rng, 4, 4)
        p = SGDParams(alpha=0.1, batch=2, steps=5)
        for seed in (-1, 2**64, True, 1.5, "3", None):  # the Philox key is an integer in [0, 2^64)
            with pytest.raises(ValidationError):
                run_mc(prob, p, runs=4, seed=seed)
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            assert run_mc(prob, p, runs=4, seed=seed).metadata["seed"] == int(seed)


def naive_batches(n, b, runs, steps, seed):
    """Per-block reference: Floyd's algorithm row by row in plain Python on each block's draws.

    Row ``s * runs + r`` of block k is step ``k K + s`` of run r; ``batches[t][r]`` lists its samples.
    """
    m, rows = min(b, n - b), _MC_BLOCK * runs
    batches = [[None] * runs for _ in range(steps)]
    for k in range(-(-steps // _MC_BLOCK)):
        g = simulate._philox_stream(seed, k)
        draws = [(j, g.integers(0, j + 1, size=rows)) for j in range(n - m, n)]
        for row in range(rows):
            chosen = set()
            for j, x in draws:
                chosen.add(j if int(x[row]) in chosen else int(x[row]))
            t, r = k * _MC_BLOCK + row // runs, row % runs
            if t < steps:
                batches[t][r] = sorted(chosen if m == b else set(range(n)) - chosen)
    return batches


def naive_mc(prob, p, runs, seed):
    """Per-run reference on the batches of :func:`naive_batches`, with gathered columns."""
    psi, h, n, b = prob.features, prob.hessian, prob.dataset_size, p.batch
    batches = naive_batches(n, b, runs, p.steps, seed)
    losses = np.empty((runs, p.steps + 1))
    for r in range(runs):
        w, v = prob.deviation.copy(), np.zeros(prob.dim)
        losses[r, 0] = 0.5 * w @ h @ w
        for t in range(p.steps):
            cols = psi[:, batches[t][r]]
            v = p.beta * v - p.alpha * (cols @ (cols.T @ w)) / b
            w = w + v
            losses[r, t + 1] = 0.5 * w @ h @ w
    return losses.mean(axis=0), losses.std(axis=0, ddof=1) / math.sqrt(runs)


def _chi2_z(stat, df):
    """Wilson-Hilferty normal score of a chi-square statistic with df degrees of freedom."""
    c = 2.0 / (9.0 * df)
    return ((stat / df) ** (1.0 / 3.0) - (1.0 - c)) / math.sqrt(c)


class TestMcStreaming:
    # N = 9: b in {1, 3} draws the batch, b in {5, 8} draws the samples left out
    @pytest.mark.parametrize("batch,steps", [(3, _MC_BLOCK - 1), (3, _MC_BLOCK), (3, 2 * _MC_BLOCK + 3),
                                             (1, 2 * _MC_BLOCK + 3), (5, 2 * _MC_BLOCK + 3),
                                             (8, 2 * _MC_BLOCK + 3)])
    def test_same_batches_as_naive_reference(self, rng, batch, steps):
        prob = random_problem(rng, 6, 9)
        p = SGDParams(alpha=0.1, beta=0.3, batch=batch, steps=steps)
        mc = run_mc(prob, p, runs=20, seed=4)
        mean, err = naive_mc(prob, p, 20, 4)
        assert mc.losses.shape == (steps + 1,) and mc.stderr[0] == 0.0
        assert max_rel_err(mc.losses, mean) <= 1e-12
        assert max_rel_err(mc.stderr[1:], err[1:]) <= 1e-12

    def test_full_batch_matches_naive_reference(self, rng):
        prob = random_problem(rng, 6, 9)
        p = SGDParams(alpha=0.1, beta=0.3, batch=9, steps=2 * _MC_BLOCK + 3)
        mc = run_mc(prob, p, runs=20, seed=4)
        assert max_rel_err(mc.losses, naive_mc(prob, p, 20, 4)[0]) <= 1e-12
        assert np.all(mc.stderr <= 1e-12 * mc.losses)  # identical runs: the spread is roundoff

    # b <= N/2 draws the batch, b > N/2 the samples left out; horizons below, at and off the block
    @pytest.mark.parametrize("runs,n,b,steps", [(20, 9, 3, _MC_BLOCK - 1), (20, 9, 6, _MC_BLOCK),
                                                (1, 9, 4, 2 * _MC_BLOCK + 3), (1, 9, 7, _MC_BLOCK - 1),
                                                (5, 6, 3, 2 * _MC_BLOCK), (5, 6, 5, 3 * _MC_BLOCK + 5)])
    def test_masks_are_the_naive_batches(self, runs, n, b, steps):
        want, count = naive_batches(n, b, runs, steps, seed=7), 0
        for t, mask in enumerate(simulate._batch_masks(runs, n, b, steps, seed=7)):
            assert mask.shape == (runs, n)
            assert [set(np.flatnonzero(row)) for row in mask] == [set(x) for x in want[t]], t
            count += 1
        assert count == steps

    # 3.0 crosses at step 18, inside the third block; 1e30 crosses at step 1 and overflows later in the block
    @pytest.mark.parametrize("scale", [3.0, 1e30])
    def test_divergence_is_the_per_step_rule(self, rng, scale):
        prob = random_problem(rng, 6, 9)
        p = SGDParams(alpha=scale / eigendecompose(prob).spectrum.lambda_max, beta=0.3, batch=3, steps=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mc = run_mc(prob, p, runs=20, seed=4)
        t = mc.diverged_at
        assert t is not None and t % _MC_BLOCK not in (0, _MC_BLOCK - 1)
        mean, err = naive_mc(prob, p.with_(steps=t), 20, 4)  # a shorter horizon draws a prefix
        crossed = ~(mean <= simulate.DIVERGENCE_RATIO * mean[0])
        assert crossed[t] and not crossed[:t].any()
        assert mc.losses.shape == (t + 1,) and mc.stderr[0] == 0.0
        assert max_rel_err(mc.losses, mean) <= 1e-12
        assert max_rel_err(mc.stderr[1:], err[1:]) <= 1e-12

    def test_every_batch_holds_exactly_b_samples(self):
        gen = np.random.default_rng(17)
        for _ in range(40):
            n = int(gen.integers(1, 41))
            b, runs, steps = int(gen.integers(1, n + 1)), int(gen.integers(1, 13)), int(gen.integers(1, 30))
            masks = [m.copy() for m in simulate._batch_masks(runs, n, b, steps, int(gen.integers(1000)))]
            assert len(masks) == steps and all(m.shape == (runs, n) for m in masks)
            assert np.all(np.count_nonzero(masks, axis=-1) == b), (n, b)

    @pytest.mark.parametrize("n,b", [(7, 3), (6, 5), (6, 2), (5, 1), (9, 4), (8, 6)])
    def test_batches_are_uniform_subsets(self, n, b):
        # chi-square of the subset counts against C(N, b) equally likely subsets
        masks = np.array([m.copy() for m in simulate._batch_masks(250, n, b, 60, seed=n * 10 + b)])
        codes = masks.reshape(-1, n) @ (1 << np.arange(n))
        _, counts = np.unique(codes, return_counts=True)
        cells = math.comb(n, b)
        assert len(counts) == cells
        expected = codes.size / cells
        stat = float(np.sum((counts - expected) ** 2) / expected)
        assert _chi2_z(stat, cells - 1) <= 3.7, stat

    def test_shorter_horizon_is_a_prefix(self, rng):
        prob = random_problem(rng, 6, 9)
        p = SGDParams(alpha=0.1, beta=0.3, batch=3, steps=2 * _MC_BLOCK + 3)
        short = run_mc(prob, p, runs=20, seed=4)
        long = run_mc(prob, p.with_(steps=5 * _MC_BLOCK + 1), runs=20, seed=4)
        assert np.array_equal(long.losses[: p.steps + 1], short.losses)
        assert np.array_equal(long.stderr[: p.steps + 1], short.stderr)

    def test_memory_does_not_grow_with_steps(self, rng):
        prob = random_problem(rng, 32, 48)

        def peak(steps):
            tracemalloc.start()
            try:
                run_mc(prob, SGDParams(alpha=0.01, beta=0.3, batch=8, steps=steps), runs=500, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(200), peak(2000)
        assert large <= 1.2 * small, (small, large)

    def test_blas_thread_count_does_not_change_results(self):
        script = (
            "import numpy as np\n"
            "from sgdphaselab import FeatureProblem, SGDParams, run_mc\n"
            "g = np.random.default_rng(5)\n"
            "prob = FeatureProblem.create(g.normal(size=(32, 48)), np.zeros(32), g.normal(size=32))\n"
            "mc = run_mc(prob, SGDParams(alpha=0.01, beta=0.3, batch=8, steps=60), runs=1000, seed=9)\n"
            "print((mc.losses.tobytes() + mc.stderr.tobytes()).hex())\n"
        )
        src = str(Path(simulate.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, check=True)
            outs.append(np.frombuffer(bytes.fromhex(done.stdout.strip())).reshape(2, -1))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])


class TestExactNoise:
    def test_single_sample_is_zero(self, rng):
        prob = random_problem(rng, 4, 1)
        c = np.eye(4)
        assert np.max(np.abs(exact_noise_covariance(prob, c))) <= 1e-15

    def test_orthogonal_features_diagonal(self, rng):
        # features sqrt(N) * I: Sigma_kk = (N - 1) * C_kk
        n = 5
        prob = FeatureProblem.create(math.sqrt(n) * np.eye(n), np.zeros(n), np.ones(n))
        c = np.diag(rng.uniform(0.5, 2.0, n))
        sig = exact_noise_covariance(prob, c)
        assert np.allclose(np.diag(sig), (n - 1) * np.diag(c), rtol=1e-12)

    def test_diagonal_upper_bound(self, rng):
        # Sigma_kk <= (N-1) lambda_k Tr[HC] in the eigenbasis of H
        for _ in range(10):
            d, n = int(rng.integers(3, 8)), int(rng.integers(3, 10))
            prob = random_problem(rng, d, n)
            a = rng.normal(size=(d, d))
            c = a @ a.T
            sig = exact_noise_covariance(prob, c)
            spec, basis = eigendecompose(prob)
            diag = np.einsum("ik,ij,jk->k", basis, sig, basis)
            bound = (n - 1) * spec.lambdas * np.sum(prob.hessian * c)
            assert np.all(diag <= bound + 1e-10)

    def test_trace_identity(self, rng):
        # Tr[H^-1 Sigma] = (N - 1) Tr[HC] on the range of H; needs linearly
        # independent features (rank N), hence d >= N draws
        for _ in range(20):
            n = int(rng.integers(2, 9))
            d = n + int(rng.integers(0, 4))
            prob = random_problem(rng, d, n)
            a = rng.normal(size=(d, d))
            c = a @ a.T
            sig = exact_noise_covariance(prob, c)
            spec, basis = eigendecompose(prob)
            lhs = float(np.sum(np.einsum("ik,ij,jk->k", basis, sig, basis) / spec.lambdas))
            rhs = (n - 1) * float(np.sum(prob.hessian * c))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestSeNoiseDiagonal:
    def test_zero_state(self, rng):
        spec = random_spectrum(rng, 6)
        assert np.all(se_noise_diagonal(spec, np.zeros(6)) == 0.0)

    def test_single_mode_self_cancellation(self):
        spec = Spectrum.from_c0([2.0], [1.0])
        assert se_noise_diagonal(spec, np.array([3.0]), 1.0, 1.0) == 0.0

    def test_torus_matches_exact_diagonal(self, torus64):
        prob = torus64.feature_problem
        c = prob.initial_second_moment()
        sig_diag = torus64.fourier_diag(exact_noise_covariance(prob, c))
        c_diag = torus64.fourier_diag(c)
        lam = torus64.eigenvalues_grid.ravel()
        spec = Spectrum.from_c0(lam, np.ones_like(lam))
        order = np.argsort(-lam, kind="stable")
        predicted = se_noise_diagonal(spec, c_diag[order], 1.0, 1.0)
        assert max_rel_err(sig_diag[order], predicted) <= 1e-12


class TestSeFitError:
    def test_torus_exact_with_circulant_state(self, torus64):
        prob = torus64.feature_problem
        h = prob.hessian
        report = se_fit_error(prob, h @ h + 0.3 * h, 1.0, 1.0)
        assert report.e2 <= 1e-20

    def test_line_minimizer(self, rng):
        prob = random_problem(rng, 6, 8)
        a = rng.normal(size=(6, 6))
        c = a @ a.T
        report = se_fit_error(prob, c)
        assert report.e2_opt == se_fit_error(prob, c, 1.0, report.tau2_opt).e2
        assert report.e2_opt <= se_fit_error(prob, c, 1.0, report.tau2_opt + 0.01).e2
        assert report.e2_opt <= se_fit_error(prob, c, 1.0, report.tau2_opt - 0.01).e2

    def test_zero_noise_undefined(self):
        prob = FeatureProblem.create(np.ones((3, 1)), np.zeros(3), np.ones(3))
        with pytest.raises(AnalysisDomainError):
            se_fit_error(prob, np.eye(3))

    @pytest.mark.parametrize("d, n", [(1, 1), (2, 1), (5, 1), (4, 5)])
    def test_equal_samples_undefined(self, d, n):
        # one sample, or n equal ones: every batch is the full one, so Sigma's two terms cancel
        # exactly, but they are formed in different orders, so exact_noise_covariance leaves
        # rounding (2.9e-42 in |Sigma|_F^2 at d = 1, n = 1)
        rng = np.random.default_rng(0)
        prob = FeatureProblem.create(np.repeat(rng.normal(size=(d, 1)), n, axis=1), np.zeros(d), rng.normal(size=d))
        with pytest.raises(AnalysisDomainError, match="zero up to rounding"):
            se_fit_error(prob, prob.initial_second_moment())


class TestAdditiveNoise:
    def test_zero_noise_reduces_to_noiseless(self, rng):
        spec = random_spectrum(rng, 8, lam_lo=0.2)
        p = SGDParams(alpha=0.5, beta=0.0, gamma=0.0, steps=200)
        with_floor, l_inf = run_additive_noise(spec, p, np.zeros(8))
        assert l_inf == 0.0
        assert np.array_equal(with_floor.losses, run_noiseless(spec, p).losses)

    def test_hand_floor(self):
        spec = Spectrum.from_c0([1.0], [4.0])
        _, l_inf = run_additive_noise(spec, SGDParams(alpha=1.0, beta=0.0, gamma=0.0, steps=10), [1.0])
        assert l_inf == 0.5  # C_inf = 1 for lambda = alpha = G = 1

    def test_convergence_to_floor(self):
        spec = Spectrum.from_c0([1.0], [1.0])
        traj, l_inf = run_additive_noise(
            spec, SGDParams(alpha=0.5, beta=0.0, gamma=0.0, steps=10**4), [1.0]
        )
        assert abs(traj.losses[-1] - l_inf) <= 1e-6 * l_inf

    def test_requires_stationary_state(self):
        spec = Spectrum.from_c0([1.0], [1.0])
        with pytest.raises(AnalysisDomainError):
            run_additive_noise(spec, SGDParams(alpha=2.0, beta=0.0, gamma=0.0, steps=10), [1.0])

    def test_requires_zero_momentum(self):
        spec = Spectrum.from_c0([1.0], [1.0])
        with pytest.raises(AnalysisDomainError):
            run_additive_noise(spec, SGDParams(alpha=0.5, beta=0.5, gamma=0.0, steps=10), [1.0])


class TestPurity:
    def test_repeated_calls_agree_bitwise(self, rng):
        spec = random_spectrum(rng, 12)
        params = SGDParams(alpha=0.3, beta=0.4, gamma=0.2, steps=120)
        assert np.array_equal(run_se(spec, params).losses, run_se(spec, params).losses)
        prob = random_problem(rng, 6, 8)
        p2 = SGDParams(alpha=0.05, beta=0.2, batch=3, steps=40)
        assert np.array_equal(
            run_full_moments(prob, p2).losses, run_full_moments(prob, p2).losses
        )


class TestSePathVsExactPath:
    def test_diagonal_recursion_matches_dense_surrogate(self, rng):
        # the SE noise family is spectrally closed, so the O(M) diagonal
        # recursion must reproduce the dense surrogate dynamics for any
        # problem and any (tau1, tau2), not just the torus
        for tau1, tau2 in [(1.0, 1.0), (0.8, 0.6), (1.0, -1.0)]:
            prob = random_problem(rng, 10, 10)
            p = SGDParams(alpha=0.04, beta=0.35, batch=3, steps=150, tau1=tau1, tau2=tau2)
            dense = run_full_moments(prob, p, noise="se")
            diag = run_se(eigendecompose(prob).spectrum, p)
            assert max_rel_err(dense.losses, diag.losses) <= 1e-10

    def test_torus_trajectories_agree(self):
        # SE recursion on the Fourier spectrum reproduces the dense exact-noise
        # dynamics on translation-invariant problems, mode for mode
        gen = np.random.default_rng(3)
        for trial in range(3):
            n = 32
            lam_sym = gen.uniform(0.1, 1.0, n)
            lam_sym = 0.5 * (lam_sym + lam_sym[(-np.arange(n)) % n])
            kern = np.fft.ifft(lam_sym).real * math.sqrt(n)
            tor = build_torus_problem((n,), kern, w0=gen.normal(size=n))
            p = SGDParams(alpha=0.3 / tor.spectrum().lambda_max, beta=0.25, batch=5, steps=200)
            dense = run_full_moments(tor.feature_problem, p, noise="exact")
            diag = run_se(tor.spectrum(), p)
            assert max_rel_err(dense.losses, diag.losses) <= 1e-10


def mode_and_node_runs(spec, params, engine=None):
    """run_se's cell stepped on its Gauss nodes and on the spectrum's modes: per run the losses up
    to the crossing and its step (None if none). ``engine`` None steps each on the engine that
    _se_plan and _blocked_cells pick for it, "kernel" both on the kernel."""
    cell = (params.alpha, params.beta, params.resolve_gamma(spec.dataset_size), params.tau1, params.tau2,
            params.steps)
    ((_, nodes, k, _),) = simulate._se_plan(spec, *cell)
    modes = spectrum._se_modes(spec)
    assert nodes[0].size < modes[0].size
    blocked, on_modes = simulate._blocked_cells(spec, params.alpha, params.beta, params.tau1, params.tau2, params.steps)
    engines = ((nodes, k), (modes, on_modes if blocked[0] else 0)) if engine is None else ((nodes, 0), (modes, 0))
    threshold = simulate._divergence_threshold(spec.initial_loss)
    runs = []
    for points, k in engines:
        run = simulate._se_cells(points, threshold, *cell, k, history=True)
        crossed = None if run[3][0] < 0 else int(run[3][0])
        runs.append((0.5 * run[4][0, : None if crossed is None else crossed + 1], crossed))
    return runs


def legendre_sums(y, weights, support, degree):
    """The sums of ``weights`` times the Legendre polynomials of degree below ``degree`` at the
    points y, with the hull of ``support`` mapped to [-1, 1]."""
    lo, hi = support.min(), support.max()
    return np.polynomial.legendre.legvander((y - 0.5 * (lo + hi)) / (0.5 * (hi - lo)), degree - 1).T @ weights


def cli_preset(argv):
    cfg = cli.parse_config(argv)
    spec, _ = cli._build_problem(cfg)
    return spec, cli._se_params(cfg, spec)


class TestCompressedSpectrum:
    # Gauss nodes against the modes they stand for; the largest relative loss errors seen are in
    # CHANGES.md. A few 1e-12 misses of the blocked engine near the heavy-ball edge at high beta
    # are the engine's own (it loses them on the modes as much), so drawn spectra compare the
    # kernel on both
    @pytest.mark.parametrize("argv, nodes", [
        (["divergence", "--nu", "0.75", "--kappa", "0.375", "--modes", "50000", "--alpha", "0.08",
          "--gamma", "1"], 537),
        (["asymptotics", "--nu", "1.5", "--kappa", "3", "--modes", "16000", "--alpha", "0.3",
          "--gamma", "1", "--beta", "0.5"], 501),
    ])
    def test_long_horizon_presets(self, argv, nodes):
        # both README presets are over the blocked budget on their modes and take it on their
        # nodes, in the rounds their 10^4 steps give: 64 at d = 1, and 32 at d = 3, where the
        # budget caps 64
        spec, params = cli_preset(argv)
        (got, crossed), (want, want_crossed) = mode_and_node_runs(spec, params)
        assert params.steps == 10_000 and crossed == want_crossed
        assert max_rel_err(got, want) <= 1e-12
        assert np.array_equal(run_se(spec, params).losses, got)
        d, k = (3, 32) if params.beta else (1, 64)
        assert simulate._se_block_steps(d, len(spec), params.steps) < 4
        assert simulate._blocked_cells(spec, params.alpha, params.beta, 1.0, 1.0, params.steps, nodes) == (True, k)
        assert spectrum._se_nodes(spec, True)[0].size == nodes

    def test_oracle_points(self):
        # the benchmark oracle's spectrum, 2000 modes in 403 nodes, at its seed-0 points
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 2000))
        gen = np.random.default_rng(0)
        for frac, beta, gamma, tau in [gen.uniform((0.1, -0.4, 0.0, 0.3), (0.7, 0.8, 0.5, 1.0)) for _ in range(4)]:
            alpha = frac * 2.0 * (1.0 + beta) / spec.lambda_max
            if eval_U1(GenFuncContext(spec, alpha, beta, gamma, tau)) >= 0.98:  # as the oracle does
                gamma *= 0.1
            params = SGDParams(alpha=alpha, beta=beta, gamma=gamma, tau2=tau, steps=5000)
            (got, crossed), (want, want_crossed) = mode_and_node_runs(spec, params)
            assert crossed is None and want_crossed is None
            assert max_rel_err(got, want) <= 1e-12
        assert spectrum._se_nodes(spec, True)[0].size == 403

    def test_estimate_trusts_every_oracle_draw(self):
        # the 1200 points that the benchmark oracle draws at seeds 0-299 all step (and sum) the
        # nodes over its 5000 steps; on the modes a point would step five times as many
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 2000))
        draws = np.concatenate([np.random.default_rng(seed).uniform((0.1, -0.4, 0.0, 0.3), (0.7, 0.8, 0.5, 1.0), (4, 4))
                                for seed in range(300)])
        alpha = draws[:, 0] * 2.0 * (1.0 + draws[:, 1]) / spec.lambda_max
        assert spectrum._gauss_holds(spec._nodes(True)[3], alpha, draws[:, 1], 5000).all()

    @pytest.mark.parametrize("steps, trusted", [(200, 788), (1000, 732), (10_000, 409)])
    def test_estimate_trusts_the_node_map(self, steps, trusted):
        # of the 800 cells of the 5000-mode stability map, no fewer step the nodes than did on 256
        # bins of 4-node rules (the counts pinned); 32 bins of 12-node rules trust 794, 751 and 751
        cfg = cli.parse_config(["stability-map", "--nu", "1.5", "--kappa", "3", "--modes", "5000", "--batch", "10"])
        spec, _ = cli._build_problem(cfg)
        alphas, betas = cli._stability_grids(cfg)
        alpha, beta = np.repeat(alphas, betas.size), np.tile(betas, alphas.size)
        holds = spectrum._gauss_holds(spec._nodes(True)[3], alpha, beta, steps)
        assert holds.size == 800 and np.count_nonzero(holds) >= trusted

    def test_nodes_are_kept_on_the_spectrum_and_built_once(self, monkeypatch):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 2000))
        params = SGDParams(alpha=1.0, beta=0.3, gamma=0.5, steps=50)
        first = run_se(spec, params).losses
        kept = spec.__dict__["_cache"][("se_nodes", True)]
        assert kept[0].size == 403
        # a spectrum built on the caller's writable arrays keeps read-only copies of them, and a
        # pickled or deep-copied one read-only arrays too; the first builds its nodes once, the
        # others carry the nodes of the spectrum they copy
        arrays = spec.lambdas.copy(), spec.lambda_c0.copy()
        builds = []
        monkeypatch.setattr(spectrum, "_se_nodes", lambda *args: builds.append(args) or kept)
        built = Spectrum(*arrays)
        for other in (built, pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert not any(x.flags.writeable for x in (other.lambdas, other.lambda_c0))
            for _ in range(2):
                assert np.array_equal(run_se(other, params).losses, first)
        assert builds == [(built, True)]
        assert all(x.flags.writeable for x in arrays)
        assert not any(np.shares_memory(x, y) for x, y in zip(arrays, (built.lambdas, built.lambda_c0)))

    def test_through_a_divergence(self):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 4000))
        params = SGDParams(alpha=1.0, beta=0.3, gamma=1.0, steps=2000)
        (got, crossed), (want, want_crossed) = mode_and_node_runs(spec, params)
        assert crossed == want_crossed and 20 < crossed < 2000
        assert max_rel_err(got, want) <= 1e-12

    @given(
        seed=st.integers(0, 2**32 - 1), power_law=st.booleans(), extra=st.integers(0, 1900),
        nu=st.floats(0.5, 2.5), kappa=st.floats(0.2, 4.0), floor=st.sampled_from([0.05, 1e-3, 1e-6]),
        beta=st.one_of(st.just(0.0), st.floats(-0.95, 0.95)), frac=st.floats(0.05, 1.2),
        gamma=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(-6.0, 0.0).map(lambda x: 10.0**x)),
        tau1=st.floats(0.0, 1.0), share=st.floats(0.0, 1.0), steps=st.integers(20, 1500),
        start=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
    )
    @settings(max_examples=30, deadline=None)
    def test_drawn_spectra(self, seed, power_law, extra, nu, kappa, floor, beta, frac, gamma, tau1, share, steps,
                           start):
        # power laws and uniform random spectra (lambda from the floor to 1), through divergences
        # too, on enough modes to build nodes, with a start on all modes or on the top ``start``
        # share only; a cell whose rules _gauss_holds does not trust steps the modes and is
        # skipped here
        modes = (4100 if beta == 0.0 else 1400) + extra
        spec = (build_power_law(PowerLawSpec(1.0, nu, 1.0, kappa, modes)) if power_law
                else random_spectrum(np.random.default_rng(seed), modes, floor))
        spec = Spectrum.from_c0(spec.lambdas, np.where(np.arange(modes) < start * modes, spec.c0, 0.0))
        params = SGDParams(alpha=frac * 2.0 * (1.0 + beta) / spec.lambda_max, beta=beta, gamma=gamma,
                           tau1=tau1, tau2=share * tau1, steps=steps)
        ((_, points, _, _),) = simulate._se_plan(spec, params.alpha, beta, gamma, tau1, params.tau2, steps)
        assume(points[0] is not spec.lambdas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (got, crossed), (want, want_crossed) = mode_and_node_runs(spec, params, "kernel")
        assert crossed == want_crossed
        assert max_rel_err(got, want) <= 1e-12


class TestDegenerateNodes:
    # inputs the node builder must take without a breakdown or a RuntimeWarning: a bin whose
    # measures have no rule that holds steps its modes, so these runs agree to rounding
    def run_both(self, spec, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (got, crossed), (want, want_crossed) = mode_and_node_runs(spec, params, "kernel")
        assert crossed == want_crossed and max_rel_err(got, want) <= 1e-12

    def test_torus_with_repeated_eigenvalues(self):
        # a 64 x 64 torus: every eigenvalue 4 to 8 times, in pairs that differ by some ulps
        k = exp_kernel(64)
        lam = np.fft.fft2(k[:, None] * k[None, :]).real.ravel() / 64.0
        spec = Spectrum.from_c0(lam, np.random.default_rng(5).uniform(0.0, 2.0, lam.size))
        distinct = np.count_nonzero(np.diff(spec.lambdas) < -1e-12 * spec.lambdas[1:]) + 1
        assert len(spec) == 4096 and distinct == 33 * 34 // 2 < np.unique(spec.lambdas).size
        assert spectrum._se_nodes(spec, True)[0].size < len(spec)
        self.run_both(spec, SGDParams(alpha=0.5 / spec.lambda_max, beta=0.5, gamma=0.3, steps=800))

    def test_repeated_lambdas_keep_their_bins_exact(self):
        # 100 values 20 times each, 3 or 4 a bin, and 2 more 10 times each in one of those bins:
        # no measure has more than 12 distinct points in a bin, none gets a rule that holds, and
        # every bin steps its modes
        values = np.geomspace(1.0, 1e-3, 100)
        lam = np.concatenate([np.repeat(values, 20), np.repeat([0.05, 0.05 * (1 + 1e-3)], 10)])
        spec = Spectrum.from_c0(lam, np.ones(lam.size))
        count = spectrum._log_bins(spec.lambdas, spectrum._SE_NODES[0])
        for _, weights in gauss_rules(spec.lambdas, [spec.lambda_c0, np.ones(lam.size)], count, 12):
            assert np.isnan(weights).all()
        nodes, c0, weight, (low, high, mass, rules) = spectrum._se_nodes(spec, True)
        assert np.all(count > 24) and not rules.any()
        assert np.array_equal(nodes, spec.lambdas) and np.array_equal(c0, spec.lambda_c0) and np.all(weight == 1.0)
        params = SGDParams(alpha=0.7, beta=0.4, gamma=0.01, steps=400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_se(spec, params).losses
            table, r = _se_table(spec.lambdas, 0.7, 0.4, 0.01, 1.0, 1.0)
            c = spec.lambda_c0[None].copy()
            run = _se_run(*_se_kernel(table, r, c), params.steps, history=True)
        assert 1 < got.size < params.steps and max_rel_err(got, 0.5 * run[4][0, : got.size]) <= 1e-12  # to its crossing

    def test_bin_without_start_gets_no_signal_node(self):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 3000))
        c0 = spec.c0.copy()
        c0[1500:2200] = 0.0
        spec = Spectrum.from_c0(spec.lambdas, c0)
        nodes, start, weight, edges = spectrum._se_nodes(spec, True)
        signal = nodes[(weight == 0.0)]
        inside = (signal >= spec.lambdas[2199]) & (signal <= spec.lambdas[1500])
        assert signal.size and not inside.any() and np.all(start[weight == 0.0] > 0.0)
        self.run_both(spec, SGDParams(alpha=0.5, beta=0.5, gamma=0.5, steps=600))

    @pytest.mark.parametrize("gamma, tau1", [(0.0, 1.0), (0.5, 0.0)])
    def test_no_noise_nodes_without_coupling(self, gamma, tau1):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 3000))
        params = SGDParams(alpha=0.5, beta=0.5, gamma=gamma, tau1=tau1, tau2=0.0, steps=600)
        ((_, (lam, c0, weight), _, _),) = simulate._se_plan(spec, 0.5, 0.5, gamma, tau1, 0.0, 600)
        noisy = spectrum._se_nodes(spec, True)[0].size
        assert np.all(np.isin(weight, (0.0, 1.0))) and np.all(c0[weight == 0.0] > 0.0)
        assert lam.size < noisy  # with the noise nodes left out
        self.run_both(spec, params)

    def test_clustered_modes_keep_their_bins_exact(self):
        # 3500 modes from 1 to 0.05 and 15 clusters of 100 modes each, 5 clusters 3% apart in a
        # bin, each cluster 1e-9 wide: moments cannot resolve such a bin, so its rules would miss
        # them by about 1e-2 of the mass, and it steps its modes; the other bins step their rules
        gen = np.random.default_rng(5)
        clusters = np.outer([0.03, 0.01, 0.003], 1.0 + 0.03 * np.arange(5)).ravel()
        lam = np.concatenate([np.geomspace(1.0, 0.05, 3500),
                              np.repeat(clusters, 100) * (1.0 + 1e-9 * gen.normal(size=1500))])
        spec = Spectrum.from_c0(lam, np.ones(lam.size))
        nodes, start, weight, (low, high, mass, rules) = spectrum._se_nodes(spec, True)
        assert rules.any() and np.isin(lam[lam < 0.04], nodes[weight == 1.0]).all()
        five = spec.lambdas[(spec.lambdas > 0.009) & (spec.lambdas < 0.012)]  # the clusters about 0.01
        (_, rule), = gauss_rules(five, [np.ones(500)], np.array([500]), 12)
        assert five.size == 500 and np.isnan(rule).all()
        for beta in (0.0, 0.5):
            self.run_both(spec, SGDParams(alpha=0.5, beta=beta, gamma=0.1, steps=2000))

    @pytest.mark.parametrize("beta, gamma", [(0.0, 0.0), (0.0, 1e-6), (0.5, 0.0)])
    def test_zero_start_on_the_slow_modes(self, beta, gamma):
        # 5000 modes from 1 to 1e-8, no start below 0.01: the loss ends in the slowest bins that
        # have a start, whose rules miss them by up to 5e-11 over 10^4 steps (test_genfunc's
        # TestNodeSums), so the mass-weighed estimate must step the modes or the nodes must
        # match them
        lam = np.geomspace(1.0, 1e-8, 5000)
        spec = Spectrum.from_c0(lam, np.where(lam > 0.01, 1.0 / lam, 0.0))
        params = SGDParams(alpha=0.5, beta=beta, gamma=gamma, steps=10_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_se(spec, params).losses
            table, r = _se_table(spec.lambdas, 0.5, beta, gamma, 1.0, 1.0)
            c = spec.lambda_c0[None].copy()
            run = _se_run(*_se_kernel(table, r, c), params.steps, history=True)
        assert spectrum._se_nodes(spec, gamma != 0.0)[0].size < len(spec)
        assert max_rel_err(got, 0.5 * run[4][0]) <= 1e-12

    def test_rules_match_the_moments(self):
        # runs of 1 to 60 points, a third of them on 3 distinct values and one without mass, under
        # two measures, the second without mass on 30% of the points (so the two map their runs
        # apart), each run sorted up and then down: a run without mass gets zero weights, one on
        # more than n distinct points n nodes inside its measure's support that integrate the
        # Legendre polynomials of degree below 2n on that support, and one on at most n distinct
        # points NaN weights or a rule inside the support whose sums meet RULE_CHECK, never zeros
        # that would drop its mass
        gen = np.random.default_rng(4)
        count = gen.integers(1, 60, 300)
        x = np.concatenate([np.sort(gen.choice(gen.uniform(0.5, 1.5, 3), m) if i % 3 == 0
                                    else gen.uniform(0.5, 1.5, m)) for i, m in enumerate(count)])
        w = gen.uniform(0.0, 1.0, (2, x.size))
        w[:, : count[0]] = 0.0
        w[1, gen.uniform(size=x.size) < 0.3] = 0.0
        run = np.repeat(np.arange(count.size), count)
        down = np.concatenate([np.arange(e - 1, e - m - 1, -1) for e, m in zip(np.cumsum(count), count)])
        for x, w, n in ((x, w, 4), (x, w, 12), (x[down], w[:, down], 4), (x[down], w[:, down], 12)):
            unresolved = 0
            for (nodes, weights), v in zip(gauss_rules(x, w, count, n), w):
                for i in range(count.size):
                    y, mass = x[(run == i) & (v > 0.0)], v[(run == i) & (v > 0.0)]
                    if mass.size == 0:  # no mass: no rule
                        assert np.all(weights[i] == 0.0)
                        continue
                    few = np.unique(y).size <= n
                    if few and np.isnan(weights[i]).all():
                        unresolved += 1
                        continue
                    at, got = nodes[i], weights[i]
                    assert np.all(got > 0.0) and y.min() <= at.min() and at.max() <= y.max()
                    error = legendre_sums(at, got, y, 2 * n) - legendre_sums(y, mass, y, 2 * n)
                    assert np.abs(error).max() <= (RULE_CHECK if few else 1e-13) * mass.sum(), (n, i)
            assert unresolved > 100

    @pytest.mark.parametrize("modes, nu, kappa", [(2000, 1.5, 3.0), (16000, 1.5, 3.0), (50000, 0.75, 0.375)])
    def test_rules_integrate_the_legendre_polynomials_on_the_presets(self, modes, nu, kappa):
        # the oracle's spectrum and the asymptotics and divergence presets' (the largest error
        # seen, 1.4e-13 of the bin's mass, is the degree-23 sum of the 50000-mode preset's last
        # bin, 14345 modes, which the Lanczos rules miss by as much)
        spec = build_power_law(PowerLawSpec(1.0, nu, 1.0, kappa, modes))
        lam, lc0, n = spec.lambdas, spec.lambda_c0, spectrum._SE_NODES[1]
        nodes, start, weight, (low, high, mass, rules) = spectrum._se_nodes(spec, True)
        for mode_weight, node_weight, measure in ((lc0, start, weight == 0.0), (np.ones(modes), weight, start == 0.0)):
            for lo, hi in zip(low[rules], high[rules]):
                on, at = (lam >= lo) & (lam <= hi), measure & (nodes >= lo) & (nodes <= hi)
                assert np.count_nonzero(at) == n
                error = (legendre_sums(nodes[at], node_weight[at], lam[on], 2 * n)
                         - legendre_sums(lam[on], mode_weight[on], lam[on], 2 * n))
                assert np.abs(error).max() <= 5e-13 * mode_weight[on].sum()
