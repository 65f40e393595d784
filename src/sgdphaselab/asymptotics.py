"""Phase structure and explicit large-t loss asymptotics for power-law spectra.

For eigenvalues ``lambda_k ~ Lambda k**-nu`` and weight partial sums
``S_k ~ K k**-kappa`` (``zeta = kappa / nu``), the late-time loss is governed
by one of four regimes: immediate divergence (nu <= 1/2), eventual
divergence (1/2 < nu <= 1), and for nu > 1 a signal-dominated branch
``C_signal t**-zeta`` or a noise-dominated branch ``C_noise t**(1/nu - 2)``,
split by the line ``zeta = 2 - 1/nu``. The constants are explicit in the
problem data and the hyperparameters, which is what makes transition times
and optimal-hyperparameter formulas possible.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import AnalysisDomainError, ValidationError
from .genfunc import DivergenceReport, GenFuncContext, eval_U1, eval_V1
from .numerics import bisect_monotone, from_log, gamma_fn
from .serialize import report_dict
from .spectrum import PowerLawFit, Spectrum

__all__ = [
    "PhaseLabel",
    "AsymptoteReport",
    "BlowupReport",
    "XiReport",
    "PHASE_BOUNDARY_BAND",
    "classify_phase",
    "loss_asymptote",
    "loss_approx",
    "transition_time",
    "blowup_time",
    "xi_criterion",
    "optimal_alpha",
]

PHASE_BOUNDARY_BAND = 1e-9


class PhaseLabel(enum.Enum):
    SIGNAL_DOMINATED = "signal_dominated"
    NOISE_DOMINATED = "noise_dominated"
    BOUNDARY = "boundary"
    EVENTUAL_DIVERGENCE = "eventual_divergence"
    IMMEDIATE_DIVERGENCE = "immediate_divergence"


def classify_phase(nu: float, zeta: float) -> PhaseLabel:
    """Phase of the large-t loss as a pure function of the two tail exponents."""
    if not (nu > 0 and zeta > 0):
        raise ValidationError(f"exponents must be positive, got nu={nu!r}, zeta={zeta!r}")
    if nu <= 0.5:
        return PhaseLabel.IMMEDIATE_DIVERGENCE
    if nu <= 1.0:
        return PhaseLabel.EVENTUAL_DIVERGENCE
    split = 2.0 - 1.0 / nu
    if abs(zeta - split) < PHASE_BOUNDARY_BAND:
        return PhaseLabel.BOUNDARY
    return PhaseLabel.SIGNAL_DOMINATED if zeta < split else PhaseLabel.NOISE_DOMINATED


class XiReport(NamedTuple):
    xi: float
    recommendation: str


def xi_criterion(spectrum: Spectrum, nu: float, zeta: float | None = None) -> XiReport:
    """Momentum-sign criterion Xi = nu Tr[H] Tr[H C0] - (nu - 1) Tr[H^2] Tr[C0].

    In the noise-dominated phase (at tau = gamma = 1, alpha = alpha_opt,
    beta = 0) the sign of Xi is the sign of the beta-derivative of the loss
    level: Xi > 0 favors negative momentum. The signal-dominated phase always
    favors positive momentum, so the recommendation flips there regardless
    of Xi.
    """
    xi = nu * spectrum.trace * spectrum.weighted_trace - (nu - 1.0) * spectrum.sq_trace * spectrum.c0_trace
    if zeta is not None and classify_phase(nu, zeta) is PhaseLabel.SIGNAL_DOMINATED:
        return XiReport(xi, "positive momentum improves")
    if xi > 0:
        return XiReport(xi, "negative momentum improves at alpha_opt")
    if xi < 0:
        return XiReport(xi, "positive momentum improves")
    return XiReport(xi, "indeterminate (Xi = 0)")


def optimal_alpha(
    spectrum: Spectrum,
    phase: PhaseLabel,
    nu: float | None = None,
    zeta: float | None = None,
) -> tuple[float, float]:
    """Closed-form (alpha_opt, alpha_max) at tau = gamma = 1, beta = 0.

    alpha_max = 2 / Tr[H] is the stability edge; the optimum is
    2 (nu - 1) / ((3 nu - 1) Tr[H]) in the noise phase and
    2 zeta / ((zeta + 1) Tr[H]) in the signal phase.
    """
    trace = spectrum.trace
    alpha_max = 2.0 / trace
    if phase is PhaseLabel.NOISE_DOMINATED:
        if nu is None or nu <= 1.0:
            raise AnalysisDomainError(f"noise-phase optimum needs nu > 1, got {nu!r}")
        alpha_opt = 2.0 * (nu - 1.0) / ((3.0 * nu - 1.0) * trace)
    elif phase is PhaseLabel.SIGNAL_DOMINATED:
        if zeta is None or zeta <= 0.0:
            raise AnalysisDomainError(f"signal-phase optimum needs zeta > 0, got {zeta!r}")
        alpha_opt = 2.0 * zeta / ((zeta + 1.0) * trace)
    else:
        raise AnalysisDomainError(f"optimal alpha is not defined in phase {phase.value}")
    if not alpha_opt < alpha_max:
        raise AnalysisDomainError(f"optimal alpha {alpha_opt!r} is not below alpha_max {alpha_max!r}")
    return alpha_opt, alpha_max


@dataclass(frozen=True)
class AsymptoteReport:
    """Dominant power-law branch of L(t) with its explicit constant.

    Both branch constants are always computed (the transition time needs
    their ratio); ``alpha_opt``/``alpha_max`` are filled only at
    tau = gamma = 1 where the closed forms hold.
    """

    phase: PhaseLabel
    exponent: float
    constant: float
    c_signal: float
    c_noise: float
    nu: float
    zeta: float
    u1: float
    v1: float
    t_trans: float | None
    xi: float
    momentum_recommendation: str
    alpha_opt: float
    alpha_max: float

    def as_dict(self) -> dict:
        return report_dict(self, c_signal="C_signal", c_noise="C_noise", u1="U1", v1="V1", xi="Xi")


def loss_asymptote(ctx: GenFuncContext, fit: PowerLawFit) -> AsymptoteReport:
    """Evaluate the convergent-phase loss asymptote L(t) ~ constant * t**exponent.

    C_signal = K Gamma(zeta+1) / (2 (1 - U1)) * (2 alpha Lambda / (1-beta))**-zeta
    C_noise  = gamma V1 Gamma(2 - 1/nu) / (8 nu (1 - U1)^2)
               * (2 alpha Lambda / (1-beta))**(1/nu)
    """
    nu, zeta = fit.nu, fit.zeta
    phase = classify_phase(nu, zeta)
    if phase in (PhaseLabel.IMMEDIATE_DIVERGENCE, PhaseLabel.EVENTUAL_DIVERGENCE):
        raise AnalysisDomainError(f"phase {phase.value}: no convergent asymptote")
    if phase is PhaseLabel.BOUNDARY:
        raise AnalysisDomainError(
            f"zeta = {zeta:.9g} sits on the phase boundary 2 - 1/nu; no constant is defined there"
        )
    u1 = eval_U1(ctx)
    if u1 >= 1.0:
        raise AnalysisDomainError(f"U~(1) = {u1:.6g} >= 1: not convergent")
    v1 = eval_V1(ctx)
    base = 2.0 * ctx.alpha * fit.Lambda / (1.0 - ctx.beta)
    c_signal = from_log(  # Gamma(zeta + 1) and base**-zeta may leave the double range where C_signal does not
        lambda: fit.K * gamma_fn(zeta + 1.0) / (2.0 * (1.0 - u1)) * base**-zeta,
        math.log(fit.K) + math.lgamma(zeta + 1.0) - zeta * math.log(base) - math.log(2.0 * (1.0 - u1)),
    )
    c_noise = ctx.gamma * v1 * gamma_fn(2.0 - 1.0 / nu) / (8.0 * nu * (1.0 - u1) ** 2) * base ** (1.0 / nu)
    if phase is PhaseLabel.SIGNAL_DOMINATED:
        exponent, constant = -zeta, c_signal
    else:
        exponent, constant = 1.0 / nu - 2.0, c_noise

    xi, rec = xi_criterion(ctx.spectrum, nu, zeta)
    if ctx.tau == 1.0 and ctx.gamma == 1.0:
        alpha_opt, alpha_max = optimal_alpha(ctx.spectrum, phase, nu=nu, zeta=zeta)
    else:
        alpha_opt = alpha_max = math.nan
    report = AsymptoteReport(
        phase, exponent, constant, c_signal, c_noise, nu, zeta, u1, v1,
        None, xi, rec, alpha_opt, alpha_max,
    )
    try:
        return replace(report, t_trans=transition_time(report))
    except AnalysisDomainError:  # the signal phase, or a branch constant not finite and positive
        return report


def loss_approx(ctx: GenFuncContext, fit: PowerLawFit, t: float) -> float:
    """The dominant-branch approximation ``constant * t**exponent`` at time t."""
    report = loss_asymptote(ctx, fit)
    return report.constant * t**report.exponent


def transition_time(report: AsymptoteReport) -> float:
    """Crossover time from the signal branch to the noise branch:

    t_trans = (C_signal / C_noise)**(1 / (zeta - 2 + 1/nu)).

    Only meaningful in the noise-dominated phase, where the exponent
    denominator is positive and the signal branch decays faster.
    """
    if report.phase is not PhaseLabel.NOISE_DOMINATED:
        raise AnalysisDomainError("transition time applies to the noise-dominated phase only")
    if not (0.0 < report.c_signal < math.inf and 0.0 < report.c_noise < math.inf):
        raise AnalysisDomainError("transition time needs both branch constants finite and positive")
    gap = report.zeta - 2.0 + 1.0 / report.nu  # small near the phase boundary: t_trans may pass the double range
    return from_log(lambda: (report.c_signal / report.c_noise) ** (1.0 / gap),
                    (math.log(report.c_signal) - math.log(report.c_noise)) / gap)


@dataclass(frozen=True)
class BlowupReport:
    """Convergent-to-divergent crossover times in the eventual-divergence phase."""

    a_star: float          # root of (1/nu - 1)/Gamma(1-zeta) a**-zeta = e**a
    epsilon_star: float    # small-alpha closed form for 1 - r_L
    t_blowup: float        # a_star * t_div
    t_div: float
    r_l: float

    def as_dict(self) -> dict:
        return report_dict(self, r_l="r_L")


def blowup_time(ctx: GenFuncContext, fit: PowerLawFit, div: DivergenceReport) -> BlowupReport:
    """Predict when early power-law convergence gives way to exponential growth.

    Valid in the analyzed scenario only: beta = 0, tau = gamma = 1,
    1/2 < nu < 1 and zeta < 1. ``epsilon_star`` comes from the small-alpha
    closed form; ``t_div`` from the truncated-spectrum r_L of ``div``, the
    context's ``solve_divergence(ctx)``, so the two routes to 1 - r_L can be compared.
    """
    nu, zeta = fit.nu, fit.zeta
    if ctx.beta != 0.0 or ctx.tau != 1.0 or ctx.gamma != 1.0:
        raise AnalysisDomainError("blow-up analysis assumes beta = 0 and tau = gamma = 1")
    if not (0.5 < nu < 1.0 and zeta < 1.0):
        raise AnalysisDomainError(
            f"blow-up analysis needs 1/2 < nu < 1 and zeta < 1, got nu={nu:.4g}, zeta={zeta:.4g}"
        )
    lead = (1.0 / nu - 1.0) / gamma_fn(1.0 - zeta)

    def log_gap(a: float) -> float:
        return math.log(lead) - zeta * math.log(a) - a

    lo = 1e-6
    while log_gap(lo) <= 0.0:
        lo *= 1e-2
        if lo < 1e-300:
            raise AnalysisDomainError("failed to bracket the crossover equation from below")
    hi = 1.0
    while log_gap(hi) >= 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise AnalysisDomainError("failed to bracket the crossover equation from above")
    a_star = bisect_monotone(log_gap, lo, hi)
    residual = lead * a_star**-zeta - math.exp(a_star)
    if not abs(residual) <= 1e-10:
        raise AnalysisDomainError(f"crossover residual {residual!r} out of tolerance 1e-10")

    eps_star = (
        (gamma_fn(2.0 - 1.0 / nu) * gamma_fn(1.0 / nu - 1.0) / (4.0 * nu))
        ** (nu / (1.0 - nu))
        * (2.0 * ctx.alpha * fit.Lambda) ** (1.0 / (1.0 - nu))
    )
    return BlowupReport(a_star, eps_star, a_star * div.t_div, div.t_div, div.r_l)
