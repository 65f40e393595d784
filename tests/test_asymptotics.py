import math
import warnings

import numpy as np
import pytest

from sgdphaselab import (
    AnalysisDomainError,
    DivergenceReport,
    GenFuncContext,
    PhaseLabel,
    PowerLawFit,
    PowerLawSpec,
    SGDParams,
    Spectrum,
    ValidationError,
    blowup_time,
    build_power_law,
    classify_phase,
    eval_U1,
    fit_power_law,
    loss_approx,
    loss_asymptote,
    optimal_alpha,
    run_se,
    solve_divergence,
    transition_time,
    xi_criterion,
)
from sgdphaselab.numerics import gamma_fn


def nominal_fit(nu, kappa, Lambda=1.0, K=1.0):
    return PowerLawFit(Lambda, nu, K, kappa, 1, 0.0, 0.0)


class TestClassifyPhase:
    def test_known_points(self):
        assert classify_phase(1.5, 0.25) is PhaseLabel.SIGNAL_DOMINATED
        assert classify_phase(1.5, 2.0) is PhaseLabel.NOISE_DOMINATED
        assert classify_phase(0.4, 1.0) is PhaseLabel.IMMEDIATE_DIVERGENCE
        assert classify_phase(0.75, 0.5) is PhaseLabel.EVENTUAL_DIVERGENCE

    def test_boundary_band(self):
        nu = 1.5
        split = 2 - 1 / nu
        assert classify_phase(nu, split + 1e-12) is PhaseLabel.BOUNDARY
        assert classify_phase(nu, split + 1e-6) is PhaseLabel.NOISE_DOMINATED

    def test_partition_of_positive_quadrant(self, rng):
        for _ in range(200):
            nu, zeta = rng.uniform(0.01, 4.0, 2)
            assert classify_phase(nu, zeta) in PhaseLabel

    def test_validation(self):
        with pytest.raises(ValidationError):
            classify_phase(0.0, 1.0)


class TestLossAsymptote:
    def test_noise_phase_exponent(self):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 500))
        ctx = GenFuncContext(spec, 0.2, 0.0, 1.0, 1.0)
        rep = loss_asymptote(ctx, nominal_fit(1.5, 3.0))
        assert rep.phase is PhaseLabel.NOISE_DOMINATED
        assert rep.exponent == pytest.approx(-4.0 / 3.0, abs=1e-12)
        assert rep.constant == rep.c_noise > 0

    def test_signal_phase_exponent(self):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 0.375, 500))
        ctx = GenFuncContext(spec, 0.2, 0.0, 0.1, 1.0)
        rep = loss_asymptote(ctx, nominal_fit(1.5, 0.375))
        assert rep.exponent == -0.375 / 1.5
        assert rep.constant == rep.c_signal > 0

    def test_signal_constant_depends_on_alpha_eff_and_u1_only(self):
        # at fixed alpha/(1-beta) only the 1/(1-U1) factor moves C_signal
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 0.375, 300))
        fit = nominal_fit(1.5, 0.375)
        a = GenFuncContext(spec, 0.2, 0.0, 0.1, 1.0)
        b = GenFuncContext(spec, 0.1, 0.5, 0.1, 1.0)  # same alpha_eff
        ra, rb = loss_asymptote(a, fit), loss_asymptote(b, fit)
        assert ra.c_signal * (1 - ra.u1) == pytest.approx(rb.c_signal * (1 - rb.u1), rel=1e-12)

    def test_non_convergent_raises(self):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 200))
        ctx = GenFuncContext(spec, 0.85, 0.0, 1.0, 1.0)  # U1 > 1
        assert eval_U1(ctx) > 1
        with pytest.raises(AnalysisDomainError):
            loss_asymptote(ctx, nominal_fit(1.5, 3.0))

    def test_divergent_phase_raises(self):
        spec = build_power_law(PowerLawSpec(1.0, 0.75, 1.0, 0.375, 200))
        ctx = GenFuncContext(spec, 0.01, 0.0, 1.0, 1.0)
        with pytest.raises(AnalysisDomainError):
            loss_asymptote(ctx, nominal_fit(0.75, 0.375))

    @pytest.mark.parametrize("kappa, modes, alpha", [pytest.param(300.0, 10, 0.1, id="gamma"),
                                                     pytest.param(150.0, 32, 0.001, id="product")])
    def test_overflowing_signal_constant_is_inf(self, kappa, modes, alpha):
        # C_signal past the double range: Gamma(201) (zeta = 200), or Gamma(101) times (2 alpha
        # Lambda)**-100 at alpha = 0.001. The noise branch stays finite and rules; the transition
        # time needs C_signal, so it is None
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, kappa, modes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = loss_asymptote(GenFuncContext(spec, alpha, 0.0, 0.1, 1.0), fit_power_law(spec, max(1, modes // 4)))
        assert rep.phase is PhaseLabel.NOISE_DOMINATED
        assert rep.c_signal == math.inf and rep.t_trans is None
        assert math.isfinite(rep.c_noise) and rep.c_noise > 0
        assert rep.constant == rep.c_noise and rep.exponent == pytest.approx(1 / 1.5 - 2)
        assert rep.as_dict()["C_signal"] == "inf"

    @pytest.mark.parametrize("kappa, alpha, beta, gamma", [
        pytest.param(300.0, 1.5, 0.0, 0.1, id="gamma-overflows"),  # Gamma(201) * 3**-200 ~ 1e279
        pytest.param(300.0, 2.5, 0.95, 0.01, id="power-underflows"),  # Gamma(201) * 100**-200 ~ 1e-25
        pytest.param(240.0, 2.5, 0.95, 0.01, id="power-subnormal"),  # 100**-160: 4 digits of a subnormal
    ])
    def test_signal_constant_past_its_factors_range(self, kappa, alpha, beta, gamma):
        # C_signal in range though Gamma(zeta + 1) or base**-zeta is not: it is its logarithm's
        # exponential, with no warning, and the transition time follows from it
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, kappa, 10))
        fit = fit_power_law(spec, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = loss_asymptote(GenFuncContext(spec, alpha, beta, gamma, 1.0), fit)
        base = 2.0 * alpha * fit.Lambda / (1.0 - beta)
        log_c = math.log(fit.K) + math.lgamma(fit.zeta + 1.0) - fit.zeta * math.log(base) - math.log(2 * (1 - rep.u1))
        assert rep.phase is PhaseLabel.NOISE_DOMINATED
        assert rep.c_signal == pytest.approx(math.exp(log_c), rel=1e-12)
        gap = fit.zeta - 2.0 + 1.0 / fit.nu
        assert rep.t_trans == pytest.approx((rep.c_signal / rep.c_noise) ** (1.0 / gap), rel=1e-12)

    def test_boundary_refused(self):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 2.0 - 1 / 1.5, 200))
        ctx = GenFuncContext(spec, 0.1, 0.0, 0.5, 1.0)
        with pytest.raises(AnalysisDomainError):
            loss_asymptote(ctx, nominal_fit(1.5, 1.5 * (2 - 1 / 1.5)))


class TestTransitionTime:
    def test_unit_ratio(self):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 300))
        ctx = GenFuncContext(spec, 0.2, 0.0, 1.0, 1.0)
        rep = loss_asymptote(ctx, nominal_fit(1.5, 3.0))
        forced = type(rep)(**{**rep.__dict__, "c_signal": 2.0, "c_noise": 2.0})
        assert transition_time(forced) == 1.0

    @pytest.mark.parametrize("constants", [(math.inf, 2.0), (2.0, math.inf), (math.nan, 2.0), (2.0, 0.0)])
    def test_needs_both_constants_finite_and_positive(self, constants):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 300))
        rep = loss_asymptote(GenFuncContext(spec, 0.2, 0.0, 1.0, 1.0), nominal_fit(1.5, 3.0))
        forced = type(rep)(**{**rep.__dict__, "c_signal": constants[0], "c_noise": constants[1]})
        with pytest.raises(AnalysisDomainError, match="finite and positive"):
            transition_time(forced)

    @pytest.mark.parametrize("above", [1e-3, 1e-7])
    def test_past_the_double_range_near_the_boundary(self, above):
        # zeta just above 2 - 1/nu: the exponent 1/(zeta - 2 + 1/nu) carries a ratio of ~100 past
        # the double range, so t_trans is inf, with no warning on Python or numpy floats
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 300))
        for kappa in (1.5 * (4 / 3 + above), np.float64(1.5 * (4 / 3 + above))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = loss_asymptote(GenFuncContext(spec, 0.2, 0.0, 0.1, 1.0), nominal_fit(1.5, kappa))
            assert rep.phase is PhaseLabel.NOISE_DOMINATED and rep.c_signal / rep.c_noise > 100
            assert rep.t_trans == math.inf

    def test_gamma_halving_scaling(self):
        # formula-differentiation oracle: C_noise is linear in gamma up to the
        # U1, V1 dependence, so t_trans scales by 2**(1/(zeta - 2 + 1/nu))
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 1000))
        fit = nominal_fit(1.5, 3.0)
        gamma = 1e-3
        t1 = loss_asymptote(GenFuncContext(spec, 0.2, 0.0, gamma, 1.0), fit).t_trans
        t2 = loss_asymptote(GenFuncContext(spec, 0.2, 0.0, gamma / 2, 1.0), fit).t_trans
        expect = 2.0 ** (1.0 / (fit.zeta - 2.0 + 1.0 / fit.nu))
        assert t2 / t1 == pytest.approx(expect, rel=0.01)

    def test_signal_phase_not_applicable(self):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 0.375, 200))
        rep = loss_asymptote(GenFuncContext(spec, 0.2, 0.0, 0.1, 1.0), nominal_fit(1.5, 0.375))
        with pytest.raises(AnalysisDomainError):
            transition_time(rep)

    def test_simulated_crossover_within_factor_three(self):
        # simulator oracle: local log-log slope crosses the midpoint between
        # -zeta and 1/nu - 2 within a factor 3 of t_trans
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 2000))
        fit = fit_power_law(spec, 200)
        gamma, horizon = 0.1, 30_000
        ctx = GenFuncContext(spec, 0.3, 0.0, gamma, 1.0)
        rep = loss_asymptote(ctx, fit)
        traj = run_se(spec, SGDParams(alpha=0.3, beta=0.0, gamma=gamma, steps=horizon))
        t = np.arange(len(traj.losses))
        mid = (-fit.zeta + (1 / fit.nu - 2)) / 2
        detected = None
        for tc in np.unique(np.geomspace(20, horizon / 2, 300).astype(int)):
            w = (t >= tc) & (t <= 2 * tc)
            slope = np.polyfit(np.log(t[w]), np.log(traj.losses[w]), 1)[0]
            if slope > mid:
                detected = math.sqrt(2.0) * tc
                break
        assert detected is not None
        assert rep.t_trans / 3 <= detected <= rep.t_trans * 3


class TestBlowup:
    def test_a_star_bracket(self):
        spec = build_power_law(PowerLawSpec(1.0, 0.75, 1.0, 0.375, 5000))
        ctx = GenFuncContext(spec, 0.1, 0.0, 1.0, 1.0)
        div = solve_divergence(ctx)
        rep = blowup_time(ctx, nominal_fit(0.75, 0.375), div)
        assert (rep.t_div, rep.r_l) == (div.t_div, div.r_l)
        assert 0.01 < rep.a_star < 0.1
        lead = (1 / 0.75 - 1) / gamma_fn(1 - 0.5)
        assert abs(lead * rep.a_star**-0.5 - math.exp(rep.a_star)) <= 1e-10
        assert rep.t_blowup == rep.a_star * rep.t_div

    def test_two_path_epsilon_gaps_shrink_with_alpha(self):
        spec = build_power_law(PowerLawSpec(1.0, 0.75, 1.0, 0.375, 200_000))
        fit = nominal_fit(0.75, 0.375)
        gaps = []
        for alpha in (0.2, 0.1, 0.05):
            ctx = GenFuncContext(spec, alpha, 0.0, 1.0, 1.0)
            rep = blowup_time(ctx, fit, solve_divergence(ctx))
            gaps.append(abs(rep.epsilon_star - (1 - rep.r_l)) / (1 - rep.r_l))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_scenario_restrictions(self):
        spec = build_power_law(PowerLawSpec(1.0, 0.75, 1.0, 0.375, 1000))
        fit = nominal_fit(0.75, 0.375)
        ctx = GenFuncContext(spec, 0.1, 0.0, 1.0, 1.0)
        div = DivergenceReport(0.99, -1.0 / math.log(0.99), 1.0)  # the scenario is checked first
        with pytest.raises(AnalysisDomainError):
            blowup_time(GenFuncContext(spec, 0.1, 0.5, 1.0, 1.0), fit, div)  # beta != 0
        with pytest.raises(AnalysisDomainError):
            blowup_time(GenFuncContext(spec, 0.1, 0.0, 0.5, 1.0), fit, div)  # gamma != 1
        with pytest.raises(AnalysisDomainError):
            blowup_time(ctx, nominal_fit(1.5, 0.375), div)


class TestXiCriterion:
    def test_flat_spectrum_positive(self):
        # H proportional to the identity collapses both trace products:
        # Xi = M^2 lam^2 c (nu - (nu - 1)) = M^2 lam^2 c > 0
        lam, c, m = 0.7, 1.3, 6
        spec = Spectrum.from_c0([lam] * m, [c] * m)
        xi, _ = xi_criterion(spec, nu=1.5)
        assert xi == pytest.approx(m**2 * lam**2 * c, rel=1e-12)

    def test_single_mode(self):
        spec = Spectrum.from_c0([0.8], [2.0])
        xi, _ = xi_criterion(spec, nu=1.5)
        assert xi == pytest.approx(0.8**2 * 2.0, rel=1e-12)

    def test_signal_phase_always_positive_momentum(self, rng):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 0.375, 100))
        xi, rec = xi_criterion(spec, nu=1.5, zeta=0.25)
        assert rec == "positive momentum improves"

    def test_sign_drives_recommendation(self):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.5, 500))
        xi, rec = xi_criterion(spec, nu=1.5, zeta=3.5 / 1.5)
        assert xi > 0 and rec.startswith("negative momentum")


class TestOptimalAlpha:
    def test_noise_phase_hand_value(self):
        spec = Spectrum.from_c0([0.5, 0.3, 0.2], [1.0, 1.0, 1.0])  # Tr H = 1
        alpha_opt, alpha_max = optimal_alpha(spec, PhaseLabel.NOISE_DOMINATED, nu=1.5)
        assert alpha_opt == pytest.approx(2.0 / 7.0, rel=1e-14)
        assert alpha_max == pytest.approx(2.0, rel=1e-14)

    def test_signal_phase_hand_value(self):
        spec = Spectrum.from_c0([0.5, 0.3, 0.2], [1.0, 1.0, 1.0])
        alpha_opt, _ = optimal_alpha(spec, PhaseLabel.SIGNAL_DOMINATED, zeta=0.25)
        assert alpha_opt == pytest.approx(0.4, rel=1e-14)

    def test_opt_below_max(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 30))
            spec = Spectrum.from_c0(np.sort(rng.uniform(0.1, 1, m))[::-1], np.ones(m))
            a_opt, a_max = optimal_alpha(spec, PhaseLabel.NOISE_DOMINATED, nu=rng.uniform(1.1, 3))
            assert 0 < a_opt < a_max == 2.0 / spec.trace

    def test_not_applicable(self, rng):
        spec = Spectrum.from_c0([1.0], [1.0])
        with pytest.raises(AnalysisDomainError):
            optimal_alpha(spec, PhaseLabel.NOISE_DOMINATED, nu=0.9)
        with pytest.raises(AnalysisDomainError):
            optimal_alpha(spec, PhaseLabel.EVENTUAL_DIVERGENCE, nu=2.0)

    def test_golden_section_agreement(self):
        # numeric argmin of the analytic loss level vs the closed form
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.5, 4000))
        fit = nominal_fit(1.5, 3.5)
        alpha_opt, alpha_max = optimal_alpha(spec, PhaseLabel.NOISE_DOMINATED, nu=1.5)

        def level(alpha):
            return loss_approx(GenFuncContext(spec, alpha, 0.0, 1.0, 1.0), fit, 100.0)

        lo, hi = 1e-4, alpha_max * 0.999
        ratio = (math.sqrt(5) - 1) / 2
        c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        while hi - lo > 1e-6 * alpha_opt:
            if level(c) < level(d):
                hi = d
            else:
                lo = c
            c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        assert 0.5 * (lo + hi) == pytest.approx(alpha_opt, rel=1e-4)

    def test_momentum_derivative_sign_matches_xi(self):
        # 4 configurations straddling Xi = 0 (the near-boundary pair gets a
        # small-eigenvalue heavy mode; pure power laws keep Xi > 0 in the
        # noise phase under the printed trace formula)
        cases = [(1.5, 3.5, None), (2.0, 5.0, None), (1.5, 2.5, 10.0), (2.0, 3.5, 10.0)]
        signs = []
        for nu, kappa, extra_c in cases:
            spec = build_power_law(PowerLawSpec(1.0, nu, 1.0, kappa, 4000))
            if extra_c is not None:
                spec = Spectrum.from_c0(
                    np.concatenate([spec.lambdas, [1e-4]]),
                    np.concatenate([spec.c0, [extra_c]]),
                )
            fit = nominal_fit(nu, kappa)
            xi, _ = xi_criterion(spec, nu, kappa / nu)
            alpha_opt, _ = optimal_alpha(spec, PhaseLabel.NOISE_DOMINATED, nu=nu)
            h = 1e-3
            up = loss_approx(GenFuncContext(spec, alpha_opt, +h, 1.0, 1.0), fit, 100.0)
            dn = loss_approx(GenFuncContext(spec, alpha_opt, -h, 1.0, 1.0), fit, 100.0)
            deriv = (up - dn) / (2 * h)
            assert np.sign(deriv) == np.sign(xi)
            signs.append(np.sign(xi))
        assert sorted(signs) == [-1.0, -1.0, 1.0, 1.0]  # genuinely brackets Xi = 0
