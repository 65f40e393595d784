import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sgdphaselab import (
    AnalysisDomainError,
    GenFuncContext,
    PowerLawSpec,
    SGDParams,
    Spectrum,
    build_power_law,
    compute_UV_sequences,
    eval_S,
    eval_U1,
    eval_UV,
    eval_V1,
    reconstruct_loss,
    run_se,
    solve_divergence,
    solve_lambda_crit,
    stability_report,
)
from sgdphaselab import asymptotics, cli, genfunc, simulate, spectrum
from sgdphaselab.genfunc import _LOSS_BLOCK, _UV_BLOCK, _UV_CHUNK, _uv_at, _uv_step
from sgdphaselab.simulate import _se_kernel, _se_run, _se_table
from sgdphaselab.serialize import json_ready
from conftest import max_rel_err, random_problem, random_spectrum, se_reference


def expanded_S(alpha, beta, gamma, lam, z):
    """The denominator polynomial written out monomial by monomial (oracle form)."""
    return (
        alpha**2 * beta * gamma * lam**2 * z**2
        + alpha**2 * beta * lam**2 * z**2
        + alpha**2 * gamma * lam**2 * z
        - alpha**2 * lam**2 * z
        - 2 * alpha * beta**2 * lam * z**2
        - 2 * alpha * beta * lam * z**2
        + 2 * alpha * beta * lam * z
        + 2 * alpha * lam * z
        - beta**3 * z**3
        + beta**3 * z**2
        + beta**2 * z**2
        - beta**2 * z
        + beta * z**2
        - beta * z
        - z
        + 1
    )


class TestEvalS:
    def test_unit_at_origin(self, rng):
        for _ in range(10):
            a, b, g, lam = rng.uniform(0.1, 2), rng.uniform(-0.9, 0.9), rng.uniform(0, 1), rng.uniform(0, 2)
            assert eval_S(a, b, g, lam, 0.0) == 1.0

    def test_hand_collapse(self):
        # beta = 0, tau*gamma = 1 collapses the cubic to 1 + z
        assert eval_S(1.0, 0.0, 1.0, 1.0, 0.5) == 1.5

    def test_zero_eigenvalue_factorization(self, rng):
        for _ in range(20):
            beta, z = rng.uniform(-0.95, 0.95), rng.uniform(0, 1)
            expect = (1 - z) * (1 - beta * z) * (1 - beta**2 * z)
            assert eval_S(0.7, beta, 0.5, 0.0, z) == pytest.approx(expect, rel=1e-13)

    def test_matches_expanded_polynomial(self, rng):
        for _ in range(50):
            a = rng.uniform(0.01, 3)
            b = rng.uniform(-0.95, 0.95)
            g = rng.uniform(0, 1)
            lam = rng.uniform(0, 2)
            z = rng.uniform(0, 1)
            assert eval_S(a, b, g, lam, z) == pytest.approx(expanded_S(a, b, g, lam, z), rel=1e-12, abs=1e-14)

    @given(
        a=st.floats(0.01, 1.9),
        b=st.floats(-0.95, 0.95),
        g=st.floats(0.0, 1.0),
        lam=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_positive_inside_stability_window(self, a, b, g, lam):
        # S > 0 on (0, 1) whenever alpha < 2(1+beta)/lambda_max
        if a * lam >= 2 * (1 + b):
            return
        z = np.linspace(1e-6, 1 - 1e-6, 200)
        assert np.all(eval_S(a, b, g, lam, z) > 0)


class TestEvalUV:
    def test_values_at_origin(self, rng):
        spec = random_spectrum(rng)
        ctx = GenFuncContext(spec, 0.3, 0.4, 0.6, 0.9)
        uv = eval_UV(ctx, 0.0)
        assert uv.u == pytest.approx(0.6 * 0.3**2 * spec.sq_trace, rel=1e-14)
        assert uv.v == pytest.approx(spec.weighted_trace, rel=1e-14)

    def test_zero_gamma_kills_noise(self, rng):
        spec = random_spectrum(rng)
        ctx = GenFuncContext(spec, 0.3, 0.4, 0.0, 1.0)
        assert eval_UV(ctx, 0.7).u == 0.0

    def test_single_mode_closed_form(self):
        # U~(z) = 1.44 / (1 + 1.4 z) for lambda=1, alpha=1.2, beta=0, gamma=tau=1
        spec = Spectrum.from_c0([1.0], [1.0])
        ctx = GenFuncContext(spec, 1.2, 0.0, 1.0, 1.0)
        for z in (0.0, 0.3, 0.9):
            assert eval_UV(ctx, z).u == pytest.approx(1.44 / (1 + 1.4 * z), rel=1e-14)

    def test_derivatives_match_finite_differences(self, rng):
        spec = random_spectrum(rng)
        ctx = GenFuncContext(spec, 0.4, 0.3, 0.5, 0.8)
        h = 1e-6
        for z in (0.2, 0.5, 0.8):
            up, um = eval_UV(ctx, z + h), eval_UV(ctx, z - h)
            uv = eval_UV(ctx, z)
            assert uv.du == pytest.approx((up.u - um.u) / (2 * h), rel=1e-7)
            assert uv.dv == pytest.approx((up.v - um.v) / (2 * h), rel=1e-7)

    def test_domain_validation(self, rng):
        spec = random_spectrum(rng)
        ctx = GenFuncContext(spec, 0.3, 0.0, 0.5, 1.0)
        with pytest.raises(AnalysisDomainError):
            eval_UV(ctx, 1.0)
        bad = GenFuncContext(spec, 5.0, 0.0, 0.5, 1.0)  # alpha beyond the window
        with pytest.raises(AnalysisDomainError):
            eval_UV(bad, 0.5)

    def test_boundary_alpha_rejected(self, rng):
        spec = random_spectrum(rng)
        alpha = 2.0 * (1.0 + 0.3) / spec.lambda_max  # exactly on the heavy-ball edge
        with pytest.raises(AnalysisDomainError):
            eval_UV(GenFuncContext(spec, alpha, 0.3, 0.5, 1.0), 0.5)


class TestEvalU1:
    def test_single_mode(self):
        ctx = GenFuncContext(Spectrum.from_c0([1.0], [1.0]), 1.0, 0.0, 1.0, 1.0)
        assert eval_U1(ctx) == 0.5

    def test_two_modes(self):
        spec = Spectrum.from_c0([1.0, 1.0], [1.0, 1.0])
        ctx = GenFuncContext(spec, 1.2, 0.0, 1.0, 1.0)
        assert eval_U1(ctx) == pytest.approx(1.2, rel=1e-14)

    def test_matches_z_limit(self, rng):
        for _ in range(5):
            spec = random_spectrum(rng)
            ctx = GenFuncContext(spec, 0.4, rng.uniform(-0.5, 0.8), rng.uniform(0.1, 1.0), 0.9)
            u_near_1 = eval_UV(ctx, 1 - 1e-8).u
            assert eval_U1(ctx) == pytest.approx(u_near_1, rel=1e-6)

    def test_gamma_zero(self, rng):
        assert eval_U1(GenFuncContext(random_spectrum(rng), 0.3, 0.0, 0.0, 1.0)) == 0.0

    def test_v1_matches_z_limit(self, rng):
        for _ in range(5):
            spec = random_spectrum(rng)
            ctx = GenFuncContext(spec, 0.4, rng.uniform(-0.5, 0.8), rng.uniform(0.1, 1.0), 0.9)
            assert eval_V1(ctx) == pytest.approx(eval_UV(ctx, 1 - 1e-8).v, rel=1e-6)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_v1_finite_on_steep_spectrum(self, beta):
        # nu = 8: lambda_min ~ 4e-19, where the expanded S(1) = 1 + c1 + c2 + c3 reads 0
        spec = build_power_law(PowerLawSpec(1.0, 8.0, 1.0, 16.0, 200, "differenced"))
        ctx = GenFuncContext(spec, 0.2, beta, 0.1, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v1 = eval_V1(ctx)

        def term(lam, lc):  # the expanded S(1) in exact rational arithmetic
            a, b, g = Fraction(ctx.alpha) * Fraction(lam), Fraction(beta), Fraction(ctx.gamma)
            s1 = 1 + (a * a * (g - 1) + 2 * a * (b + 1) - (b * b + b + 1)) \
                + (a * a * b * (g + 1) - 2 * a * b * (b + 1) + b * (b * b + b + 1)) - b**3
            return Fraction(lc) * (2 * a * b + b**3 - b**2 - b + 1) / s1

        exact = float(sum(term(lam, lc) for lam, lc in zip(spec.lambdas, spec.lambda_c0)))
        assert math.isfinite(v1) and v1 == pytest.approx(exact, rel=1e-12)


class TestLambdaCrit:
    def test_single_mode_limit(self):
        assert solve_lambda_crit(Spectrum.from_c0([0.7], [1.0]), 1.0) == 0.0

    def test_two_equal_modes(self):
        spec = Spectrum.from_c0([0.6, 0.6], [1.0, 1.0])
        assert solve_lambda_crit(spec, 1.0) == pytest.approx(0.6, abs=1e-12)

    def test_tau_zero_gives_trace(self, rng):
        spec = random_spectrum(rng)
        assert solve_lambda_crit(spec, 0.0) == spec.trace

    def test_residual(self, rng):
        spec = random_spectrum(rng, 40)
        for tau in (0.3, 0.7, 1.0):
            x = solve_lambda_crit(spec, tau)
            resid = np.sum(spec.lambdas / (tau * spec.lambdas + x)) - 1.0
            assert abs(resid) <= 1e-10


class TestStabilityReport:
    def test_noiseless_converges(self, rng):
        spec = random_spectrum(rng)
        rep = stability_report(GenFuncContext(spec, 1.0 / spec.lambda_max, 0.0, 0.0, 1.0))
        assert rep.valid and rep.converges and rep.u1 == 0.0
        assert rep.alpha_eff_bound == math.inf

    def test_two_mode_divergent(self):
        spec = Spectrum.from_c0([1.0, 1.0], [1.0, 1.0])
        rep = stability_report(GenFuncContext(spec, 1.2, 0.0, 1.0, 1.0))
        assert rep.u1 == pytest.approx(1.2, rel=1e-14)
        assert not rep.converges

    def test_outside_window_is_structured(self, rng):
        spec = random_spectrum(rng)
        rep = stability_report(GenFuncContext(spec, 100.0, 0.0, 0.5, 1.0))
        assert not rep.valid and not rep.converges and rep.reason

    def test_regime_flags_from_tail_exponent(self, rng):
        spec = random_spectrum(rng)
        ctx = GenFuncContext(spec, 0.1, 0.0, 0.5, 1.0)
        assert stability_report(ctx, nu=0.4).regime_flags["immediate_divergence"]
        rep = stability_report(ctx, nu=0.8)
        assert rep.regime_flags["eventual_divergence"]
        assert rep.u1 == math.inf and not rep.converges
        assert math.isfinite(rep.u1_truncated)
        assert not any(stability_report(ctx, nu=1.4).regime_flags.values())

    def test_critical_rate_consistency(self, rng):
        # U1 evaluated just below/above the critical alpha brackets 1
        spec = random_spectrum(rng, 30)
        rep = stability_report(GenFuncContext(spec, 0.2, 0.4, 0.5, 1.0))
        a_crit = rep.alpha_eff_critical * (1 - 0.4)
        below = eval_U1(GenFuncContext(spec, a_crit * (1 - 1e-9), 0.4, 0.5, 1.0))
        above = eval_U1(GenFuncContext(spec, a_crit * (1 + 1e-9), 0.4, 0.5, 1.0))
        assert below < 1.0 < above

    def test_effective_rate_bound_and_tightness(self, rng):
        # bound 2/(gamma lambda_crit) holds and tightens as beta -> 1
        spec = random_spectrum(rng, 50)
        gamma, tau = 0.2, 1.0
        lam_crit = solve_lambda_crit(spec, tau)
        gaps = []
        for beta in (0.9, 0.99, 0.999):
            rep = stability_report(GenFuncContext(spec, 0.01, beta, gamma, tau))
            assert rep.alpha_eff_critical <= rep.alpha_eff_bound * (1 + 1e-12)
            gap = rep.alpha_eff_bound / rep.alpha_eff_critical - 1.0
            rhs = (spec.lambda_max / lam_crit) * (1 - beta) / (gamma * (1 + beta))
            assert -1e-12 <= gap <= rhs + 1e-12
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]


class TestSolveDivergence:
    def test_two_mode_hand_value(self):
        # solve z * 2.88/(1 + 1.4 z) = 1  =>  r_L = 1/1.48
        spec = Spectrum.from_c0([1.0, 1.0], [1.0, 1.0])
        rep = solve_divergence(GenFuncContext(spec, 1.2, 0.0, 1.0, 1.0))
        assert rep.r_l == pytest.approx(1.0 / 1.48, rel=1e-12)
        assert rep.prefactor > 0

    def test_root_residual(self, rng):
        spec = Spectrum.from_c0([1.0, 0.9, 0.8], np.ones(3))
        ctx = GenFuncContext(spec, 1.0, 0.2, 1.0, 1.0)
        rep = solve_divergence(ctx)
        assert abs(rep.r_l * eval_UV(ctx, rep.r_l).u - 1.0) <= 1e-12

    def test_not_divergent_raises(self, rng):
        spec = random_spectrum(rng)
        with pytest.raises(AnalysisDomainError):
            solve_divergence(GenFuncContext(spec, 0.01, 0.0, 0.1, 1.0))

    @pytest.mark.parametrize("nu, kappa, alpha", [(0.9, 0.45, 0.08), (0.75, 0.375, 0.02)])
    def test_root_on_500000_modes(self, nu, kappa, alpha):
        # the residual at the root may pass 1e-12 where one ulp of r moves z U~ by more: the
        # residuals at r's neighbouring floats straddle 0, so r is as exact as a float can be
        cfg = cli.parse_config(["divergence", "--nu", str(nu), "--kappa", str(kappa), "--modes", "500000",
                                "--alpha", str(alpha), "--gamma", "1"])
        spec, _ = cli._build_problem(cfg)
        ctx = cli._analysis_context(cfg, spec, cfg.alpha, cfg.beta, cli._se_params(cfg, spec).gamma)
        r = solve_divergence(ctx).r_l
        at = _uv_at(ctx)
        below, above = (z * at(z) - 1.0 for z in (np.nextafter(r, 0.0), np.nextafter(r, 1.0)))
        assert below < 0.0 < above

    def test_asymptote_is_the_late_time_loss(self):
        # the loss nears prefactor * r_L^-t from above as the faster transients die out: run_se over
        # the asymptote read 1 + 9.6e-5 at t = 33 and 1 + 4.0e-12 at t = 135, about 20 t_div
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 200))
        rep = solve_divergence(GenFuncContext(spec, 1.2, 0.0, 1.0, 1.0))
        losses = run_se(spec, SGDParams(alpha=1.2, beta=0.0, gamma=1.0, steps=200)).losses
        early, late = losses[[33, 135]] / rep.asymptote([33, 135]) - 1.0
        assert 0.0 < late < 1e-11 and 5e-5 < early < 2e-4

    def test_simulated_rate_matches(self):
        # simulator oracle: the late-time log-slope equals -ln r_L within 5%
        from sgdphaselab import PowerLawSpec, build_power_law

        spec = build_power_law(PowerLawSpec(1.0, 0.75, 1.0, 0.375, 2000))
        ctx = GenFuncContext(spec, 0.2, 0.0, 1.0, 1.0)
        rep = solve_divergence(ctx)
        horizon = int(10 * rep.t_div)
        traj = run_se(spec, SGDParams(alpha=0.2, beta=0.0, gamma=1.0, steps=horizon))
        t = np.arange(len(traj.losses))
        m = (t >= 5 * rep.t_div) & (t <= 10 * rep.t_div)
        rate = np.polyfit(t[m], np.log(traj.losses[m]), 1)[0]
        assert rate == pytest.approx(-math.log(rep.r_l), rel=0.05)


def plain_bisection(f, lo, hi, maxiter=200):
    """The midpoint loop the analysis solved its roots with before the interpolating steps."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(maxiter):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    if not (hi - lo) <= 4.0 * math.ulp(max(abs(lo), abs(hi), 1e-300)):
        raise AnalysisDomainError(f"bisection failed to converge: bracket [{lo!r}, {hi!r}]")
    return lo if abs(flo) <= abs(fhi) else hi


def ulps_apart(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@pytest.fixture(scope="module")
def divergence_preset():
    """The README divergence preset: its config, spectrum and analysis context."""
    cfg = cli.parse_config(["divergence", "--nu", "0.75", "--kappa", "0.375", "--modes", "50000",
                            "--alpha", "0.08", "--gamma", "1"])
    spectrum, _ = cli._build_problem(cfg)
    gamma = cli._se_params(cfg, spectrum).gamma
    return cfg, spectrum, cli._analysis_context(cfg, spectrum, cfg.alpha, cfg.beta, gamma)


class TestRootsAgreeWithBisection:
    """Every analysis root lies within 4 ulps of the one plain bisection finds."""

    @staticmethod
    def bisected(monkeypatch, fn, *args):
        with monkeypatch.context() as m:
            m.setattr(genfunc, "bisect_monotone", plain_bisection)
            m.setattr(asymptotics, "bisect_monotone", plain_bisection)
            return fn(*args)

    def test_divergence_radius_and_blowup_crossover(self, monkeypatch, divergence_preset):
        cfg, spectrum, ctx = divergence_preset
        fit = cli._fit_for(cfg, spectrum)
        div, ref = solve_divergence(ctx), self.bisected(monkeypatch, solve_divergence, ctx)
        assert ulps_apart(div.r_l, ref.r_l) <= 4
        a_star = asymptotics.blowup_time(ctx, fit, div).a_star
        assert ulps_apart(a_star, self.bisected(monkeypatch, asymptotics.blowup_time, ctx, fit, div).a_star) <= 4

    def test_critical_rates_over_the_reduced_map(self, monkeypatch):
        cfg = cli.parse_config(["stability-map", "--nu", "1.5", "--kappa", "3", "--modes", "200",
                                "--batch", "10"])
        alphas, betas = cli._stability_grids(cfg)
        spectrum, _ = cli._build_problem(cfg)
        gamma = cli._se_params(cfg, spectrum).gamma
        assert betas.size == 20
        for beta in betas:
            alpha = min(alphas[0], (1.0 + beta) / spectrum.lambda_max)
            ctx = cli._analysis_context(cfg, spectrum, alpha, beta, gamma)
            rep, ref = stability_report(ctx), self.bisected(monkeypatch, stability_report, ctx)
            assert ulps_apart(rep.alpha_eff_critical, ref.alpha_eff_critical) <= 4
        for tau in (1.0, 0.5, 0.1):
            lam_crit = solve_lambda_crit(spectrum, tau)
            assert ulps_apart(lam_crit, self.bisected(monkeypatch, solve_lambda_crit, spectrum, tau)) <= 4

    def test_hoisted_noise_function_is_bitwise_eval_uv(self, divergence_preset):
        ctx = divergence_preset[2]
        at = _uv_at(ctx)
        for z in (0.5, 0.9, solve_divergence(ctx).r_l):
            assert at(z) == at(z, full=True).u == eval_UV(ctx, z).u


class TestUVSequences:
    def test_first_coefficients(self, rng):
        spec = random_spectrum(rng)
        ctx = GenFuncContext(spec, 0.3, 0.4, 0.5, 0.9)
        u, v = compute_UV_sequences(ctx, 3)
        assert v[0] == pytest.approx(spec.weighted_trace, rel=1e-14)
        assert u[0] == pytest.approx(0.5 * 0.3**2 * spec.sq_trace, rel=1e-14)

    def test_partial_sums_converge_to_generating_function(self, rng):
        spec = random_spectrum(rng)
        ctx = GenFuncContext(spec, 0.3, 0.4, 0.5, 0.9)
        horizon = 120
        u, v = compute_UV_sequences(ctx, horizon)
        t = np.arange(horizon)
        for z in (0.25, 0.5, 0.75):
            uv = eval_UV(ctx, z)
            # geometric tail bound: |remainder| <= max|coef| * z^T / (1 - z)
            tail = max(np.abs(u).max(), np.abs(v).max()) * z**horizon / (1 - z)
            assert abs(np.sum(u * z**t) - uv.u) <= tail + 1e-12
            assert abs(np.sum(v * z**t) - uv.v) <= tail + 1e-12

    def test_overflow_past_the_domain_goes_unreported(self):
        # a diverging point, U~(1) = 4.01: the sums overflow to inf and NaN before T = 1378, and
        # reconstruct_loss stops at its crossing long before, where run_se crosses
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 836))
        ctx = GenFuncContext(spec, 0.8 * 2.0 * 1.52 / spec.lambda_max, 0.52, 0.76, 0.71)
        assert eval_U1(ctx) > 4.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, v = compute_UV_sequences(ctx, 1378)
            got = reconstruct_loss(ctx, 1377)
        assert np.isinf(u).any() and np.isnan(u).any() and not np.isfinite(v[-1])
        want = run_se(spec, SGDParams(alpha=ctx.alpha, beta=0.52, gamma=0.76, tau2=0.71, steps=1377))
        assert got.diverged_at == want.diverged_at == 21
        assert max_rel_err(got.losses, want.losses) <= 1e-10

    def test_monotone_zU_on_grid(self, rng):
        for _ in range(10):
            spec = random_spectrum(rng, 15)
            beta = rng.uniform(-0.9, 0.9)
            alpha = rng.uniform(0.05, 0.95) * 2 * (1 + beta) / spec.lambda_max
            ctx = GenFuncContext(spec, alpha, beta, rng.uniform(0, 1), rng.uniform(0.1, 1))
            z = np.linspace(1e-4, 1 - 1e-4, 200)
            vals = np.array([zz * eval_UV(ctx, zz).u for zz in z])
            assert np.all(np.diff(vals) >= -1e-14)


def stepped_uv(ctx, horizon, per_mode=False):
    """U_t / (gamma alpha^2) and V_t from the SE kernel stepped once per t, coupling off.

    ``per_mode`` runs every mode as its own cell and returns the sums over modes of |term|,
    the scale against which the blocked sums are compared.
    """
    lam = ctx.spectrum.lambdas.reshape((-1, 1) if per_mode else (1, -1))
    table, _ = _se_table(lam, ctx.alpha, ctx.beta, ctx.gamma, 0.0, ctx.tau)
    out = []
    for c, jv in ((lam * lam, lam * lam), (ctx.spectrum.lambda_c0.reshape(lam.shape), np.zeros_like(lam))):
        sums = _se_run(*_se_kernel(table, None, c.copy(), jv=(jv.copy(), jv.copy())), horizon - 1, history=True)[4]
        out.append(np.abs(sums).sum(axis=0) if per_mode else sums[0])
    return out


class TestBlockedUV:
    """compute_UV_sequences evaluates blocks of coefficients as GEMMs over chunks of modes."""

    @pytest.mark.parametrize("horizon", [1, _UV_BLOCK - 1, _UV_BLOCK, _UV_BLOCK + 1, 3 * _UV_BLOCK + 5])
    @pytest.mark.parametrize("beta, gamma, a_top", [
        (0.0, 1e-6, 1.2), (0.0, 0.6, 0.5), (-0.4, 0.3, 0.6), (0.5, 1e-6, 2.0), (0.9, 0.5, 0.5),
    ])
    def test_equals_stepped_kernel(self, horizon, beta, gamma, a_top):
        # 2.5 chunks of a power-law spectrum hold slow and fast modes; gamma = 1e-6 keeps the
        # noise above rounding, so the blocked path runs; every mode keeps
        # (1 - alpha lam)^2 >= tau gamma (alpha lam)^2, the accuracy domain of the oracle
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 5 * _UV_CHUNK // 2))
        alpha = a_top / spec.lambda_max
        ctx = GenFuncContext(spec, alpha, beta, gamma, 0.7)
        u, v = compute_UV_sequences(ctx, horizon)
        assert u.shape == v.shape == (horizon,)
        u_ref, v_ref = stepped_uv(ctx, horizon)
        u_scale, v_scale = stepped_uv(ctx, horizon, per_mode=True)
        assert np.max(np.abs(u / (gamma * alpha**2) - u_ref) / u_scale) <= 1e-13
        assert np.max(np.abs(v - v_ref) / v_scale) <= 1e-13

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_noiseless_run_steps_the_kernel(self, beta):
        # gamma = 0: U is exactly 0 and V is the stepped kernel's, bitwise
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 3 * _UV_CHUNK))
        ctx = GenFuncContext(spec, 1.5 / spec.lambda_max, beta, 0.0, 0.7)
        u, v = compute_UV_sequences(ctx, 200)
        assert np.all(u == 0.0)
        assert np.array_equal(v, stepped_uv(ctx, 200)[1])

    @pytest.mark.parametrize("beta, gamma, a_top", [(0.5, 1e-6, 1.8), (0.5, 0.3, 0.6)])
    def test_slow_modes_stay_accurate_over_long_horizons(self, beta, gamma, a_top):
        # A_k held exactly and squared in double-double: rounding its entries near 1, or the
        # products of its powers, biases every block alike and fails this bound
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 300))
        alpha = a_top / spec.lambda_max
        ctx = GenFuncContext(spec, alpha, beta, gamma, 0.7)
        u, v = compute_UV_sequences(ctx, 4000)
        (u_ref, v_ref), (u_scale, v_scale) = stepped_uv(ctx, 4000), stepped_uv(ctx, 4000, per_mode=True)
        assert np.max(np.abs(u / (gamma * alpha**2) - u_ref) / u_scale) <= 3e-14
        assert np.max(np.abs(v - v_ref) / v_scale) <= 3e-14

    @pytest.mark.parametrize("beta", [-0.4, 0.9, 0.98])
    def test_agrees_with_extended_precision_recursion(self, beta):
        # the configuration of TestSeKernel::test_agrees_with_extended_precision_recursion,
        # uncoupled: both seeds stepped with the documented rows in np.longdouble
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 300))
        alpha, gamma, tau2, steps = 0.5 * (1.0 - beta), 0.5, 0.8, 3000
        ld = np.longdouble
        lam = spec.lambdas.astype(ld)
        a = ld(alpha) * lam
        q, b = ld(tau2 * gamma) * a * a, ld(beta)
        b2 = np.full_like(a, b * b)
        rows = np.array([[(1 - a) ** 2 - q, 2 * b * (1 - a), b2],
                         [-a * (1 - a) - q, b * (1 - 2 * a), b2],
                         [a * a - q, -2 * a * b, b2]])
        state = np.zeros((3, 2, len(spec)), dtype=ld)
        state[:, 0] = lam * lam
        state[0, 1] = spec.lambda_c0
        ref, scale = [], []
        for _ in range(steps):
            ref.append(state[0].sum(axis=1))
            scale.append(np.abs(state[0]).sum(axis=1))
            state = np.einsum("ilk,lck->ick", rows, state)
        u, v = compute_UV_sequences(GenFuncContext(spec, alpha, beta, gamma, tau2), steps)
        got = np.stack([u / (gamma * alpha**2), v])
        assert float(np.max(np.abs(got - np.array(ref).T) / np.array(scale).T)) <= 1e-12

    def test_step_determinant_is_the_analysis_cubic(self):
        # the A_k whose powers the blocked evaluation takes, on either table layout
        gen = np.random.default_rng(12)
        worst = 0.0
        for beta in [0.0] * 20 + list(gen.uniform(-0.9, 0.9, 100)):
            lam = gen.uniform(0.01, 2.0, 3)
            ctx = GenFuncContext(Spectrum.from_c0(lam, np.ones(3)), gen.uniform(0.01, 0.9), beta,
                                 gen.uniform(0.0, 1.0), gen.uniform(0.05, 1.0))
            step, _ = _uv_step(ctx, lam)
            z = gen.uniform(-1.0, 1.0)
            for k in range(3):
                det = np.linalg.det(np.eye(3) - z * step[:, :, k])
                expect = float(eval_S(ctx.alpha, beta, ctx.tau * ctx.gamma, lam[k], z))
                worst = max(worst, abs(det - expect))
        assert worst <= 1e-13

    def test_blas_thread_count_does_not_change_results(self):
        # and reconstruct_loss's blocks, each one BLAS matrix-vector product over the losses before it
        script = (
            "from sgdphaselab import GenFuncContext, PowerLawSpec, build_power_law, compute_UV_sequences\n"
            "from sgdphaselab import reconstruct_loss\n"
            "spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 2000))\n"
            "u, v = compute_UV_sequences(GenFuncContext(spec, 0.4, 0.5, 0.3, 0.8), 500)\n"
            "loss = reconstruct_loss(GenFuncContext(spec, 0.5 / spec.lambda_max, 0.5, 0.02, 0.8), 5000).losses\n"
            "print((u.tobytes() + v.tobytes() + loss.tobytes()).hex())\n"
        )
        src = str(Path(genfunc.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, check=True)
            outs.append(done.stdout.strip())
        assert outs[0] == outs[1]

    def test_working_memory_does_not_grow_with_modes(self):
        # the (2, horizon) sums and the returned U, V are the same at both sizes
        peaks = []
        for modes in (2000, 20000):
            ctx = GenFuncContext(build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, modes)), 0.4, 0.5, 0.3, 0.8)
            compute_UV_sequences(ctx, 200)
            tracemalloc.start()
            try:
                compute_UV_sequences(ctx, 200)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[0] <= 600 * 1024  # the 512 KB chunk budget and the (2, horizon) sums


def loss_on(ctx, horizon, points):
    """reconstruct_loss from U and V summed over the given (lambda, start, weight) modes or nodes,
    whatever compute_UV_sequences would pick."""
    def uv(ctx, size):
        sums = genfunc._uv_sums(ctx, points, size)
        return ctx.gamma * ctx.alpha**2 * sums[0], sums[1]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(genfunc, "compute_UV_sequences", uv)
        return reconstruct_loss(ctx, horizon)


def loss_on_modes(ctx, horizon):
    return loss_on(ctx, horizon, spectrum._se_modes(ctx.spectrum))


def sums_nodes(ctx, horizon):
    """Whether reconstruct_loss(ctx, horizon) sums over fewer Gauss nodes than modes."""
    *nodes, bins = ctx.spectrum._nodes(True)
    trusted = spectrum._gauss_holds(bins, np.array([ctx.alpha]), np.array([ctx.beta]), horizon)[0]
    return bool(trusted and nodes[0].size < len(ctx.spectrum))


class TestNodeSums:
    """compute_UV_sequences sums over the Gauss nodes that run_se steps, wherever they hold."""

    @given(
        seed=st.integers(0, 2**32 - 1), power_law=st.booleans(), extra=st.integers(0, 1900),
        nu=st.floats(0.5, 2.5), kappa=st.floats(0.2, 4.0), floor=st.sampled_from([0.05, 1e-3, 1e-6]),
        beta=st.one_of(st.just(0.0), st.floats(-0.95, 0.95)), frac=st.floats(0.05, 0.98),
        gamma=st.one_of(st.floats(0.0, 1.0), st.floats(-6.0, 0.0).map(lambda x: 10.0**x)),
        tau=st.floats(0.05, 1.0), steps=st.integers(20, 1500), start=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
    )
    @settings(max_examples=30, deadline=None)
    def test_drawn_spectra(self, seed, power_law, extra, nu, kappa, floor, beta, frac, gamma, tau, steps, start):
        # test_simulate's drawn node spectra, inside the oracle's domain and above its noise floor,
        # through divergences too: the loss on the nodes against the loss on the modes
        modes = 500 + extra
        spec = (build_power_law(PowerLawSpec(1.0, nu, 1.0, kappa, modes)) if power_law
                else random_spectrum(np.random.default_rng(seed), modes, floor))
        spec = Spectrum.from_c0(spec.lambdas, np.where(np.arange(modes) < start * modes, spec.c0, 0.0))
        ctx = GenFuncContext(spec, frac * 2.0 * (1.0 + beta) / spec.lambda_max, beta, gamma, tau)
        al = ctx.alpha * spec.lambdas
        assume(np.all((1.0 - al) ** 2 >= tau * gamma * al * al))
        assume(gamma * (ctx.alpha * spec.lambda_max) ** 2 * (steps + 1) > 1e-16 and sums_nodes(ctx, steps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = reconstruct_loss(ctx, steps), loss_on_modes(ctx, steps)
        assert got.diverged_at == want.diverged_at
        assert max_rel_err(got.losses, want.losses) <= 1e-12

    @pytest.mark.parametrize("horizon", [5000, 20000])
    def test_oracle_points(self, horizon):
        # the benchmark oracle's spectrum, 2000 modes in 403 nodes, at its seed-0 points
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 2000))
        gen = np.random.default_rng(0)
        for frac, beta, gamma, tau in [gen.uniform((0.1, -0.4, 0.0, 0.3), (0.7, 0.8, 0.5, 1.0)) for _ in range(4)]:
            ctx = GenFuncContext(spec, frac * 2.0 * (1.0 + beta) / spec.lambda_max, beta, gamma, tau)
            if eval_U1(ctx) >= 0.98:  # as the oracle does
                ctx = GenFuncContext(spec, ctx.alpha, beta, 0.1 * gamma, tau)
            assert sums_nodes(ctx, horizon)
            got, want = reconstruct_loss(ctx, horizon), loss_on_modes(ctx, horizon)
            assert got.diverged_at is None is want.diverged_at
            assert max_rel_err(got.losses, want.losses) <= 1e-12
        assert spec._nodes(True)[0].size == 403

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_untrusted_nodes_leave_the_sums_on_the_modes(self, beta):
        # test_simulate's zero start on the slow modes: 5000 modes from 1 to 1e-8, so a bin spans a
        # factor 1.8, and no start below 0.01. Over 10^4 steps the loss ends in the slowest bins that
        # have a start, whose rules the estimate does not trust; with the noise too weak to cover
        # them, the loss summed over the nodes would miss the modes' by 3.3e-11 to 5.4e-11
        lam = np.geomspace(1.0, 1e-8, 5000)
        spec = Spectrum.from_c0(lam, np.where(lam > 0.01, 1.0 / lam, 0.0))
        ctx = GenFuncContext(spec, 0.5, beta, 1e-9, 1.0)
        assert not sums_nodes(ctx, 10_000)
        got, want = reconstruct_loss(ctx, 10_000), loss_on_modes(ctx, 10_000)
        assert np.array_equal(got.losses, want.losses)
        assert max_rel_err(loss_on(ctx, 10_000, spec._nodes(True)[:3]).losses, want.losses) > 1e-12
        sim = run_se(spec, SGDParams(alpha=0.5, beta=beta, gamma=1e-9, steps=10_000))
        assert max_rel_err(got.losses, sim.losses) <= 1e-10

    @pytest.mark.parametrize("argv, nodes", [
        (["divergence", "--nu", "0.75", "--kappa", "0.375", "--modes", "50000", "--alpha", "0.08",
          "--gamma", "1"], 537),
        (["asymptotics", "--nu", "1.5", "--kappa", "3", "--modes", "16000", "--alpha", "0.3",
          "--gamma", "1", "--beta", "0.5"], 501),
    ])
    def test_long_horizon_presets_match_run_se(self, argv, nodes):
        # the README presets at 10^4 steps, which the oracle could not afford on their modes
        cfg = cli.parse_config(argv)
        spec, _ = cli._build_problem(cfg)
        params = cli._se_params(cfg, spec)
        ctx = cli._analysis_context(cfg, spec, params.alpha, params.beta, params.gamma)
        assert params.steps == 10_000 and sums_nodes(ctx, params.steps)
        got, want = reconstruct_loss(ctx, params.steps), run_se(spec, params)
        assert got.diverged_at == want.diverged_at
        assert max_rel_err(got.losses, want.losses) <= 1e-10
        assert spec._nodes(True)[0].size == nodes


def stepped_loss(ctx, horizon):
    """reconstruct_loss solved one step at a time, one np.dot a step, with its threshold: the
    reference for its blocked solve. Returns the losses up to the crossing and its step."""
    u_seq, v_seq = compute_UV_sequences(ctx, horizon + 1)
    u_rev = u_seq[::-1].copy()  # U_n .. U_1 is the contiguous tail u_rev[horizon + 1 - n:]
    losses = np.empty(horizon + 1)
    losses[0] = 0.5 * v_seq[0]
    threshold = genfunc._divergence_threshold(losses[0])
    for n in range(1, horizon + 1):
        losses[n] = 0.5 * v_seq[n] + float(np.dot(u_rev[horizon + 1 - n :], losses[:n]))
        if not (losses[n] <= threshold):
            return losses[: n + 1], n
    return losses, None


def exact_loss(ctx, horizon):
    """The convolution of reconstruct_loss's own U and V coefficients in exact rational arithmetic,
    rounded once at the end: what a solve of them could at best return."""
    u_seq, v_seq = compute_UV_sequences(ctx, horizon + 1)
    u = [Fraction(x) for x in u_seq]
    losses = [Fraction(v_seq[0]) / 2]
    for n in range(1, horizon + 1):
        losses.append(Fraction(v_seq[n]) / 2 + sum(u[n - 1 - j] * losses[j] for j in range(n)))
    return np.array([float(x) for x in losses])


def oracle_draw(seed, modes, frac, beta, gamma, tau2):
    """A point of test_matches_simulator_anywhere_in_domain's domain, as its spectrum and context."""
    spec = random_spectrum(np.random.default_rng(seed), modes)
    return spec, GenFuncContext(spec, frac * 2.0 * (1.0 + beta) / spec.lambda_max, beta, gamma, tau2)


class TestReconstructLoss:
    def test_initial_value(self, rng):
        spec = random_spectrum(rng)
        ctx = GenFuncContext(spec, 0.3, 0.2, 0.4, 1.0)
        traj = reconstruct_loss(ctx, 0)
        assert traj.losses[0] == pytest.approx(spec.initial_loss, rel=1e-14)

    def test_matches_simulator(self, rng):
        # the module's central oracle: U/V recursion equals the SE stepper
        spec = random_spectrum(rng, 20)
        ctx = GenFuncContext(spec, 0.35, 0.45, 0.25, 0.8)
        params = SGDParams(alpha=0.35, beta=0.45, gamma=0.25, tau1=1.0, tau2=0.8, steps=200)
        a = reconstruct_loss(ctx, 200)
        b = run_se(spec, params)
        assert max_rel_err(a.losses, b.losses) <= 1e-10

    @given(
        seed=st.integers(0, 2**32 - 1),
        modes=st.integers(3, 12),
        frac=st.floats(0.02, 0.98),
        beta=st.floats(-0.9, 0.95),
        gamma=st.floats(0.0, 1.0),
        tau2=st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    # 6% from the heavy-ball edge at high beta with little or no noise, where the blocked
    # engine's sums miss the oracle by 1e-10 to 4e-10: run_se must keep this cell on the kernel
    @example(seed=3, modes=3, frac=0.9375, beta=0.75, gamma=0.0, tau2=1.0)
    @example(seed=3, modes=3, frac=0.9375, beta=0.75, gamma=1e-17, tau2=1.0)
    @example(seed=3, modes=3, frac=0.9375, beta=0.75, gamma=1e-12, tau2=1.0)
    @example(seed=3, modes=3, frac=0.9375, beta=0.75, gamma=1e-6, tau2=1.0)
    def test_matches_simulator_anywhere_in_domain(self, seed, modes, frac, beta, gamma, tau2):
        # the uncoupled kernel plus the convolution against the coupled kernel, at tau1 = 1.
        # The convolution loses all accuracy on 1-2 mode spectra and where a mode's
        # self-noise outweighs its contraction, (1 - alpha lam)^2 < tau2 gamma (alpha lam)^2:
        # there it strays from an extended-precision recursion while run_se does not.
        spec = random_spectrum(np.random.default_rng(seed), modes)
        alpha = frac * 2.0 * (1.0 + beta) / spec.lambda_max
        al = alpha * spec.lambdas
        assume(np.all((1.0 - al) ** 2 >= tau2 * gamma * al * al))
        a = reconstruct_loss(GenFuncContext(spec, alpha, beta, gamma, tau2), 150)
        b = run_se(spec, SGDParams(alpha=alpha, beta=beta, gamma=gamma, tau2=tau2, steps=150))
        n = min(len(a.losses), len(b.losses))

        def sides():  # a miss's message, which says which side the double-double reference takes
            ref = se_reference(spec.lambdas, spec.lambda_c0, alpha, beta, gamma, 1.0, tau2, n - 1)[0]
            return (f"against se_reference, reconstruct_loss errs by {max_rel_err(a.losses[:n], ref):.3g} "
                    f"and run_se by {max_rel_err(b.losses[:n], ref):.3g}")

        assert max_rel_err(a.losses[:n], b.losses[:n]) <= 1e-10, sides()

    # two draws of the test above, on 3 modes at tau2 = 1, where the oracle misses run_se by more
    # than 1e-10 (A by 1.3e-10, B by 3.5e-9): the double-double reference sides with run_se, within
    # 2.2e-14 (A) and 1.3e-13 (B), more than 5000 times closer than the oracle
    @pytest.mark.parametrize("seed, frac, beta, gamma", [(3, 0.875, 0.34375, 0.0625),
                                                         (0, 0.9375, 0.5, 0.03125)], ids=["A", "B"])
    def test_reference_sides_with_simulator_at_recorded_misses(self, seed, frac, beta, gamma):
        spec = random_spectrum(np.random.default_rng(seed), 3)
        alpha = frac * 2.0 * (1.0 + beta) / spec.lambda_max
        ref = se_reference(spec.lambdas, spec.lambda_c0, alpha, beta, gamma, 1.0, 1.0, 150)[0]
        sim = run_se(spec, SGDParams(alpha=alpha, beta=beta, gamma=gamma, steps=150)).losses
        oracle = reconstruct_loss(GenFuncContext(spec, alpha, beta, gamma, 1.0), 150).losses
        assert max_rel_err(sim, ref) <= 1e-12
        assert max_rel_err(oracle, ref) >= 100 * max_rel_err(sim, ref)

    @pytest.mark.parametrize("beta", [0.0, -0.3])
    @pytest.mark.parametrize("gamma, tau", [(1.0, 1.0), (0.5, 0.6)])
    def test_divergence_cut_matches_simulator(self, beta, gamma, tau):
        # diverging runs: the oracle stops where run_se stops, and agrees with it up to there
        spec = random_spectrum(np.random.default_rng(11), 40, lam_lo=0.5)
        alpha = 0.45 * (1.0 + beta) / spec.lambda_max
        al = alpha * spec.lambdas
        assert np.all((1.0 - al) ** 2 >= tau * gamma * al * al)  # inside the oracle's domain
        a = reconstruct_loss(GenFuncContext(spec, alpha, beta, gamma, tau), 400)
        b = run_se(spec, SGDParams(alpha=alpha, beta=beta, gamma=gamma, tau2=tau, steps=400))
        assert a.diverged_at is not None and a.diverged_at == b.diverged_at
        assert max_rel_err(a.losses, b.losses) <= 1e-10

    def test_zero_gamma_is_pure_signal(self, rng):
        # U = 0: the blocked solve's history products and its inverse's off-diagonal terms add
        # exact zeros, within a block, across block edges and in a last, short block
        spec = random_spectrum(rng, 10)
        for beta, horizon in itertools.product((0.0, 0.3), (1, _LOSS_BLOCK, 2 * _LOSS_BLOCK + 3, 50, 500)):
            ctx = GenFuncContext(spec, 0.3, beta, 0.0, 1.0)
            u, v = compute_UV_sequences(ctx, horizon + 1)
            assert np.all(u == 0.0)
            assert np.array_equal(reconstruct_loss(ctx, horizon).losses, 0.5 * v)

    def test_dichotomy_with_simulator(self, rng):
        # U~(1) > 1 iff the simulated loss diverges (by 50 t_div when divergent)
        tested = 0
        for _ in range(25):
            spec = random_spectrum(rng, 20)
            beta = rng.uniform(-0.5, 0.9)
            alpha = rng.uniform(0.05, 1.0) * 2 * (1 + beta) / spec.lambda_max
            gamma = rng.uniform(0.05, 1.0)
            tau = rng.uniform(0.3, 1.0)
            ctx = GenFuncContext(spec, alpha, beta, gamma, tau)
            u1 = eval_U1(ctx)
            if abs(u1 - 1.0) < 0.02:
                continue  # skip near-marginal draws: any finite horizon misclassifies
            tested += 1
            params = SGDParams(alpha=alpha, beta=beta, gamma=gamma, tau2=tau, steps=3000)
            if u1 > 1.0:
                div = solve_divergence(ctx)
                horizon = min(int(50 * div.t_div) + 10, 200_000)
                traj = run_se(spec, params.with_(steps=horizon))
                assert traj.diverged_at is not None
            else:
                traj = run_se(spec, params)
                assert traj.diverged_at is None
                assert traj.losses[-1] < traj.losses[0]
        assert tested >= 10


B = _LOSS_BLOCK


class TestBlockedLossSolve:
    # reconstruct_loss solves B losses a block, from step 1: blocks start at steps 1, B + 1, 2B + 1, ...
    # Horizons end mid-block (B/2 - 1 to B/2 + 1, B + 3 and 2B + 3) and about block edges
    @pytest.mark.parametrize("horizon", [0, 1, B // 2 - 1, B // 2, B // 2 + 1, B - 1, B, B + 1, B + 3, 2 * B + 3,
                                         5000])
    def test_matches_the_stepped_solve(self, horizon):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 200))  # the oracle's, a power-law decay
        ctx = GenFuncContext(spec, 0.5 / spec.lambda_max, 0.4, 0.1, 0.8)
        traj = reconstruct_loss(ctx, horizon)
        losses, crossed = stepped_loss(ctx, horizon)
        assert traj.losses.shape == (horizon + 1,) and traj.diverged_at is None is crossed
        assert traj.losses[0] == losses[0] and max_rel_err(traj.losses, losses) <= 1e-14
        sim = run_se(spec, SGDParams(alpha=ctx.alpha, beta=0.4, gamma=0.1, tau2=0.8, steps=max(horizon, 1)))
        assert max_rel_err(traj.losses, sim.losses[: horizon + 1]) <= 1e-10

    # the crossing on a block's first step (the first block's too), a middle one and its last,
    # and on the last step of a horizon that ends on a block edge, in the second block and later
    @pytest.mark.parametrize("step, horizon", [(1, 100), (B + 1, 100), (B + 8, 100), (3 * B // 2, 100),
                                               (2 * B, 2 * B), (2 * B + 1, 100), (2 * B + 8, 100),
                                               (3 * B, 100), (4 * B, 4 * B)])
    def test_divergence_crossing_anywhere_in_a_block(self, monkeypatch, step, horizon):
        # a diverging run, its loss up 2.5 times a step: a threshold between L(step - 1) and
        # L(step) puts the crossing there for the block solve, the stepped one and run_se alike
        spec = random_spectrum(np.random.default_rng(11), 40, lam_lo=0.5)
        ctx = GenFuncContext(spec, 0.45 * 0.7 / spec.lambda_max, -0.3, 1.0, 1.0)
        monkeypatch.setattr(genfunc, "_divergence_threshold", lambda loss0: math.inf)
        grown, _ = stepped_loss(ctx, horizon)
        assert np.all(grown[1:] / grown[:-1] > 2.0)
        threshold = math.sqrt(grown[step - 1] * grown[step])
        monkeypatch.setattr(genfunc, "_divergence_threshold", lambda loss0: threshold)
        monkeypatch.setattr(simulate, "_divergence_threshold", lambda loss0: threshold)
        traj = reconstruct_loss(ctx, horizon)
        losses, crossed = stepped_loss(ctx, horizon)
        sim = run_se(spec, SGDParams(alpha=ctx.alpha, beta=-0.3, gamma=1.0, steps=horizon))
        assert traj.diverged_at == crossed == sim.diverged_at == step
        assert traj.losses.shape == losses.shape == sim.losses.shape == (step + 1,)
        assert max_rel_err(traj.losses, losses) <= 1e-14 and max_rel_err(traj.losses, sim.losses) <= 1e-10

    def test_matches_the_stepped_solve_across_the_oracle_domain(self):
        # 200 seeded draws of test_matches_simulator_anywhere_in_domain's domain, gamma uniform,
        # exactly 0, or log-uniform in [1e-17, 1e-6], whose convolutions differ only in summation order
        gen, drawn = np.random.default_rng(2024), 0
        while drawn < 200:
            point = (int(gen.integers(2**32)), int(gen.integers(3, 13)), gen.uniform(0.02, 0.98),
                     gen.uniform(-0.9, 0.95), [gen.uniform(0.0, 1.0), 0.0, 10.0 ** gen.uniform(-17, -6)][drawn % 3],
                     gen.uniform(0.05, 1.0))
            spec, ctx = oracle_draw(*point)
            al = ctx.alpha * spec.lambdas
            if not np.all((1.0 - al) ** 2 >= ctx.tau * ctx.gamma * al * al):
                continue
            drawn += 1
            traj = reconstruct_loss(ctx, 150)
            losses, crossed = stepped_loss(ctx, 150)
            assert traj.diverged_at == crossed and max_rel_err(traj.losses, losses) <= 1e-14, point

    def test_coefficient_error_draw(self):
        # a draw of test_matches_simulator_anywhere_in_domain's domain where reconstruct_loss misses
        # run_se by more than 1e-10 (1.23e-10; 1.11e-10 stepped): the miss is the U and V
        # coefficients', as their exact convolution misses by 1.25e-10. Both solves lie within
        # 2e-11 of that (block 1.5e-11, stepped 1.9e-11), so no convolution of them can clear it
        spec, ctx = oracle_draw(3, 3, 0.875, 0.34375, 0.0625, 1.0)
        exact = exact_loss(ctx, 150)
        sim = run_se(spec, SGDParams(alpha=ctx.alpha, beta=0.34375, gamma=0.0625, steps=150)).losses
        assert max_rel_err(exact, sim) > 1e-10
        assert max_rel_err(reconstruct_loss(ctx, 150).losses, exact) <= 3e-11
        assert max_rel_err(stepped_loss(ctx, 150)[0], exact) <= 3e-11

    @pytest.mark.parametrize("horizon", [True, False, 2.0, 2.5, -1, "3", None])
    def test_horizon_must_be_an_integer(self, horizon):
        ctx = GenFuncContext(random_spectrum(np.random.default_rng(1), 5), 0.5, 0.2, 0.3, 1.0)
        with pytest.raises(AnalysisDomainError, match="horizon"):
            reconstruct_loss(ctx, horizon)
        with pytest.raises(AnalysisDomainError, match="horizon"):
            compute_UV_sequences(ctx, horizon)

    def test_numpy_integer_horizons(self):
        ctx = GenFuncContext(random_spectrum(np.random.default_rng(1), 5), 0.5, 0.2, 0.3, 1.0)
        assert np.array_equal(reconstruct_loss(ctx, np.int64(3)).losses, reconstruct_loss(ctx, 3).losses)
        assert all(np.array_equal(a, b) for a, b in zip(compute_UV_sequences(ctx, np.int64(3)),
                                                         compute_UV_sequences(ctx, 3)))
        with pytest.raises(AnalysisDomainError, match="horizon"):
            compute_UV_sequences(ctx, np.int64(0))


class TestSerialization:
    def test_reports_encode_non_finite_as_strings(self, rng):
        spec = random_spectrum(rng)
        rep = stability_report(GenFuncContext(spec, 0.1, 0.0, 0.0, 1.0), nu=0.8)
        d = rep.as_dict()
        assert d["U1"] == "inf"
        bad = stability_report(GenFuncContext(spec, 100.0, 0.0, 0.5, 1.0))
        assert bad.as_dict()["U1"] == "nan"

    # each report's JSON as its as_dict() spelled it out by hand before it followed from the
    # report's fields, and se_error.json as the se-error command spelled it: keys, order and values
    REFERENCE = {
        "StabilityReport": lambda r: {
            "U1": r.u1, "converges": r.converges, "lambda_crit": r.lambda_crit, "alpha_eff": r.alpha_eff,
            "alpha_eff_bound": r.alpha_eff_bound, "alpha_eff_critical": r.alpha_eff_critical,
            "regime_flags": r.regime_flags, "valid": r.valid, "reason": r.reason, "U1_truncated": r.u1_truncated,
        },
        "DivergenceReport": lambda r: {"r_L": r.r_l, "t_div": r.t_div, "prefactor": r.prefactor},
        "AsymptoteReport": lambda r: {
            "phase": r.phase.value, "exponent": r.exponent, "constant": r.constant, "C_signal": r.c_signal,
            "C_noise": r.c_noise, "nu": r.nu, "zeta": r.zeta, "U1": r.u1, "V1": r.v1, "t_trans": r.t_trans,
            "Xi": r.xi, "momentum_recommendation": r.momentum_recommendation, "alpha_opt": r.alpha_opt,
            "alpha_max": r.alpha_max,
        },
        "BlowupReport": lambda r: {
            "a_star": r.a_star, "epsilon_star": r.epsilon_star, "t_blowup": r.t_blowup, "t_div": r.t_div,
            "r_L": r.r_l,
        },
        "SeFitReport": lambda r: {
            "E2": r.e2, "tau1": r.tau1, "tau2": r.tau2, "coefficients": r.coefficients,
            "tau2_opt_on_tau1_eq_1": r.tau2_opt, "E2_opt": r.e2_opt,
        },
        # the fit's fields, then the derived zeta (the CLI sorts its JSON keys, so no file shows the order)
        "PowerLawFit": lambda r: {
            "Lambda": r.Lambda, "nu": r.nu, "K": r.K, "kappa": r.kappa, "tail_start": r.tail_start,
            "residual": r.residual, "residual_weights": r.residual_weights, "zeta": r.zeta,
        },
    }

    def assert_reference_json(self, report):
        got, ref = report.as_dict(), json_ready(self.REFERENCE[type(report).__name__](report))
        assert list(got) == list(ref)
        assert got == ref and [type(v) for v in got.values()] == [type(v) for v in ref.values()]  # JSON types

    def test_stability_reports_match_reference(self):
        spec = random_spectrum(np.random.default_rng(2))
        good = stability_report(GenFuncContext(spec, 0.3, 0.2, 0.4, 1.0))
        bad = stability_report(GenFuncContext(spec, 100.0, 0.0, 0.5, 1.0))
        assert good.valid and not bad.valid
        self.assert_reference_json(good)
        self.assert_reference_json(bad)

    def test_divergence_and_blowup_reports_match_reference(self):
        spec = build_power_law(PowerLawSpec(1.0, 0.75, 1.0, 0.375, 5000))
        ctx = GenFuncContext(spec, 0.1, 0.0, 1.0, 1.0)
        div = solve_divergence(ctx)
        self.assert_reference_json(div)
        fit = spectrum.PowerLawFit(1.0, 0.75, 1.0, 0.375, 1, 0.0, 0.0)
        self.assert_reference_json(asymptotics.blowup_time(ctx, fit, div))

    @pytest.mark.parametrize("phase, kappa, gamma", [("noise_dominated", 3.0, 1.0),
                                                     ("signal_dominated", 0.375, 0.1)])
    def test_asymptote_reports_match_reference(self, phase, kappa, gamma):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, kappa, 500))
        fit = spectrum.PowerLawFit(1.0, 1.5, 1.0, kappa, 1, 0.0, 0.0)
        rep = asymptotics.loss_asymptote(GenFuncContext(spec, 0.2, 0.0, gamma, 1.0), fit)
        assert rep.phase.value == phase and (rep.t_trans is None) == (phase == "signal_dominated")
        self.assert_reference_json(rep)

    def test_power_law_fit_matches_reference(self):
        fit = spectrum.fit_power_law(build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 64)), 16)
        self.assert_reference_json(fit)
        self.assert_reference_json(dataclasses.replace(fit, kappa=math.nan))  # zeta "nan", as the fields

    def test_se_fit_report_matches_reference(self):
        problem = random_problem(np.random.default_rng(4), 6, 9)
        self.assert_reference_json(simulate.se_fit_error(problem, problem.initial_second_moment(), 1.0, 0.7))
