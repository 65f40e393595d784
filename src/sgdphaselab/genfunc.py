"""Closed-form generating functions of the SE loss dynamics and their analysis.

The loss sequence under the SE recursion is generated by
``L~(z) = V~(z) / (2 (1 - z U~(z)))`` where the "noise" and "signal"
generating functions U~, V~ are sums of per-mode rational terms sharing a
cubic denominator S in z. This module evaluates those sums and their
analytic derivatives, locates the stability boundary U~(1) = 1 and the
divergence radius r_L, and reconstructs the loss sequence from the U/V
coefficient recursion as an oracle for the simulator's noise coupling.

Analysis assumptions (context invariants): beta in (-1, 1),
0 < alpha < 2 (1 + beta) / lambda_max, gamma in [0, 1], 0 < tau <= 1.
tau1 is fixed to 1 here; the simulator keeps it free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AnalysisDomainError
from .numerics import bisect_monotone
from .serialize import report_dict
from .simulate import LossTrajectory, _divergence_threshold, _is_count, _se_kernel, _se_run, _se_table
from .spectrum import Spectrum, _gauss_holds, _se_modes

_UV_BLOCK = 32  # generating-function coefficients (a power of 2) per GEMM in compute_UV_sequences
_UV_CHAINS = 8  # consecutive blocks (a power of 2) whose states advance together there
# modes per chunk there: rows (3B doubles a mode), states (12K) and the scratch of
# double-double squaring fit 512 KB, well inside a core's L2 cache
_UV_CHUNK = (1 << 19) // (8 * (3 * _UV_BLOCK + 12 * _UV_CHAINS + 130))
_LOSS_BLOCK = 32  # losses per block of reconstruct_loss's forward solve

__all__ = [
    "GenFuncContext",
    "StabilityReport",
    "DivergenceReport",
    "UVValues",
    "eval_S",
    "eval_UV",
    "eval_U1",
    "eval_V1",
    "solve_lambda_crit",
    "stability_report",
    "solve_divergence",
    "compute_UV_sequences",
    "reconstruct_loss",
]


@dataclass(frozen=True)
class GenFuncContext:
    """Spectrum plus the (alpha, beta, gamma, tau) point under analysis."""

    spectrum: Spectrum
    alpha: float
    beta: float
    gamma: float
    tau: float = 1.0

    def violations(self) -> list[str]:
        out = []
        if not (-1.0 < self.beta < 1.0):
            out.append(f"beta = {self.beta!r} outside (-1, 1)")
        limit = 2.0 * (1.0 + self.beta) / self.spectrum.lambda_max
        if not (0.0 < self.alpha < limit):
            out.append(f"alpha = {self.alpha!r} outside (0, 2(1+beta)/lambda_max = {limit:.6g})")
        if not (0.0 <= self.gamma <= 1.0):
            out.append(f"gamma = {self.gamma!r} outside [0, 1]")
        if not (0.0 < self.tau <= 1.0):
            out.append(f"tau = {self.tau!r} outside (0, 1]")
        return out

    def require_valid(self) -> None:
        bad = self.violations()
        if bad:
            raise AnalysisDomainError("outside analysis domain: " + "; ".join(bad))

    @property
    def alpha_eff(self) -> float:
        return self.alpha / (1.0 - self.beta)


def _s_coefficients(alpha, beta, gamma_arg, lam):
    """Coefficients of S = 1 + c1 z + c2 z^2 + c3 z^3 (any argument may broadcast)."""
    al = alpha * lam
    c1 = al**2 * (gamma_arg - 1.0) + 2.0 * al * (beta + 1.0) - (beta**2 + beta + 1.0)
    c2 = al**2 * beta * (gamma_arg + 1.0) - 2.0 * al * beta * (beta + 1.0) + beta * (beta**2 + beta + 1.0)
    c3 = -(beta**3)
    return c1, c2, c3


def eval_S(alpha: float, beta: float, gamma_arg, lam, z):
    """The shared cubic denominator S(alpha, beta, g, lambda, z), Horner in z.

    Callers evaluating the generating functions pass ``g = tau * gamma``.
    Arguments broadcast, so ``lam`` and ``z`` may be arrays.
    """
    c1, c2, c3 = _s_coefficients(alpha, beta, gamma_arg, np.asarray(lam, dtype=float))
    z = np.asarray(z, dtype=float)
    return 1.0 + z * (c1 + z * (c2 + z * c3))


class UVValues(NamedTuple):
    u: float
    v: float
    du: float
    dv: float


def eval_UV(ctx: GenFuncContext, z: float) -> UVValues:
    """U~(z), V~(z) and their derivatives at a point z in [0, 1).

    Termwise evaluation over the truncated spectrum; derivatives come from
    the quotient rule on each rational term, never finite differences.
    Summation order is fixed (ascending mode index) for reproducibility.
    """
    ctx.require_valid()
    if not (0.0 <= z < 1.0):
        raise AnalysisDomainError(f"z = {z!r} outside [0, 1)")
    return _uv_at(ctx)(z, full=True)


def _uv_at(ctx: GenFuncContext):
    """``z -> U~(z)``, or with ``full`` the :class:`UVValues` at z, with the per-mode terms that do
    not depend on z (S's coefficients and ``gamma alpha^2 lambda^2``) taken once: U~ alone takes
    eight in-place numpy passes over the modes per point."""
    lam, lc, alpha, beta = ctx.spectrum.lambdas, ctx.spectrum.lambda_c0, ctx.alpha, ctx.beta
    c1, c2, c3 = _s_coefficients(alpha, beta, ctx.tau * ctx.gamma, lam)
    nu = ctx.gamma * alpha**2 * lam**2
    s, term = np.empty_like(nu), np.empty_like(nu)

    def at(z: float, full: bool = False):
        np.add(c2, z * c3, out=s)  # S = 1 + z (c1 + z (c2 + z c3))
        np.add(c1, np.multiply(s, z, out=s), out=s)
        np.add(1.0, np.multiply(s, z, out=s), out=s)
        np.multiply(nu, beta * z + 1.0, out=term)  # U~'s numerator
        if not full:
            return float(np.sum(np.divide(term, s, out=term)))
        ds = c1 + z * (2.0 * c2 + z * 3.0 * c3)
        v1 = 2.0 * alpha * beta * lam - beta**2 - beta
        nu_v = lc * (1.0 + z * (v1 + z * beta**3))
        dnu_v = lc * (v1 + 2.0 * z * beta**3)
        du = float(np.sum((nu * beta * s - term * ds) / s**2))
        dv = float(np.sum((dnu_v * s - nu_v * ds) / s**2))
        return UVValues(float(np.sum(term / s)), float(np.sum(nu_v / s)), du, dv)
    return at


def eval_U1(ctx: GenFuncContext) -> float:
    """U~(1) in the direct z = 1 form:

    sum_k lambda_k / (lambda_k (tau - (1-beta)/(gamma(1+beta))) + 2(1-beta)/(alpha gamma)).

    Returns 0 for gamma = 0 (no sampling noise).
    """
    ctx.require_valid()
    if ctx.gamma == 0.0:
        return 0.0
    lam = ctx.spectrum.lambdas
    y = (1.0 - ctx.beta) / (ctx.gamma * (1.0 + ctx.beta))
    denom = lam * (ctx.tau - y) + 2.0 * (1.0 - ctx.beta) / (ctx.alpha * ctx.gamma)
    return float(np.sum(lam / denom))


def eval_V1(ctx: GenFuncContext) -> float:
    """V~(1): the z = 1 value of the signal generating function.

    S(1) is taken factored, ``a (a (g (1 + beta) - (1 - beta)) + 2 (1 - beta^2))`` with
    ``a = alpha lam`` and ``g = tau gamma``: the constant terms of ``1 + c1 + c2 + c3``
    cancel exactly, which leaves 0 on modes with ``alpha lam`` near machine epsilon.
    """
    ctx.require_valid()
    lam = ctx.spectrum.lambdas
    lc = ctx.spectrum.lambda_c0
    beta = ctx.beta
    a = ctx.alpha * lam
    s1 = a * (a * (ctx.tau * ctx.gamma * (1.0 + beta) - (1.0 - beta)) + 2.0 * (1.0 - beta * beta))
    num = lc * (2.0 * ctx.alpha * beta * lam + beta**3 - beta**2 - beta + 1.0)
    return float(np.sum(num / s1))


def solve_lambda_crit(spectrum: Spectrum, tau: float) -> float:
    """Unique positive solution of sum_k lambda_k / (tau lambda_k + x) = 1.

    The map is strictly decreasing in x, so :func:`bisect_monotone` solves it on
    (0, sum lambda_k] to adjacent floats, in about 10 evaluations. The single-mode
    tau = 1 case degenerates to the x -> 0 limit and returns 0.
    """
    if not (0.0 <= tau <= 1.0):
        raise AnalysisDomainError(f"tau = {tau!r} outside [0, 1]")
    lam = spectrum.lambdas
    if tau == 0.0:
        return float(np.sum(lam))  # linear equation: x = Tr H exactly
    limit0 = len(spectrum) / tau  # value of the sum as x -> 0+
    if limit0 < 1.0:
        raise AnalysisDomainError(
            f"sum_k 1/tau = {limit0:.4g} < 1 at x -> 0: no positive root (pathological truncation)"
        )
    if limit0 == 1.0:
        return 0.0

    def f(x: float) -> float:
        return float(np.sum(lam / (tau * lam + x))) - 1.0

    hi = float(np.sum(lam))
    root = bisect_monotone(f, 1e-300, hi)
    if not abs(f(root)) <= 1e-10:
        raise AnalysisDomainError(f"lambda_crit residual {f(root)!r} out of tolerance 1e-10")
    return root


@dataclass(frozen=True)
class StabilityReport:
    """Convergence verdict and the critical effective learning rates."""

    u1: float
    converges: bool
    lambda_crit: float
    alpha_eff: float
    alpha_eff_bound: float      # 2 / (gamma lambda_crit)
    alpha_eff_critical: float   # exact critical alpha_eff at this (beta, gamma, tau)
    regime_flags: dict
    valid: bool = True
    reason: str = ""
    u1_truncated: float = math.nan  # finite truncated sum even when u1 is flagged inf

    def as_dict(self) -> dict:
        return report_dict(self, u1="U1", u1_truncated="U1_truncated")


def stability_report(ctx: GenFuncContext, nu: float | None = None) -> StabilityReport:
    """Full stability analysis at one hyperparameter point.

    Never raises for out-of-window hyperparameters: CLI sweeps must traverse
    unstable regions, so structural violations come back as a non-convergent
    report with a reason. ``nu`` (a fitted tail exponent) raises the
    immediate-/eventual-divergence flags that a truncated sum cannot see.
    """
    flags = {
        "immediate_divergence": bool(nu is not None and nu <= 0.5),
        "eventual_divergence": bool(nu is not None and 0.5 < nu <= 1.0),
    }
    bad = ctx.violations()
    if bad:
        return StabilityReport(
            math.nan, False, math.nan, ctx.alpha / (1.0 - ctx.beta) if ctx.beta != 1.0 else math.inf,
            math.nan, math.nan, flags, valid=False, reason="; ".join(bad),
        )

    u1_trunc = eval_U1(ctx)
    divergent_tail = flags["immediate_divergence"] or flags["eventual_divergence"]
    u1 = math.inf if divergent_tail else u1_trunc
    lam_crit = solve_lambda_crit(ctx.spectrum, ctx.tau)
    bound = math.inf if ctx.gamma * lam_crit == 0.0 else 2.0 / (ctx.gamma * lam_crit)

    alpha_hi = 2.0 * (1.0 + ctx.beta) / ctx.spectrum.lambda_max
    probe = alpha_hi * (1.0 - 1e-12)
    if ctx.gamma == 0.0 or eval_U1(replace(ctx, alpha=probe)) <= 1.0:
        alpha_crit = alpha_hi  # sampling noise never binds before the heavy-ball boundary
    else:
        alpha_crit = bisect_monotone(lambda a: eval_U1(replace(ctx, alpha=a)) - 1.0, 1e-300, probe)
    return StabilityReport(
        u1=u1,
        converges=u1 < 1.0,
        lambda_crit=lam_crit,
        alpha_eff=ctx.alpha_eff,
        alpha_eff_bound=bound,
        alpha_eff_critical=alpha_crit / (1.0 - ctx.beta),
        regime_flags=flags,
        u1_truncated=u1_trunc,
    )


@dataclass(frozen=True)
class DivergenceReport:
    """Exponential-divergence characteristics when U~(1) > 1."""

    r_l: float
    t_div: float       # -1 / ln(r_L)
    prefactor: float   # V~(r_L) / (2 (1 + r_L^2 U~'(r_L)))

    def as_dict(self) -> dict:
        return report_dict(self, r_l="r_L")

    def asymptote(self, t) -> np.ndarray:
        """The late-time divergent branch ``prefactor * r_L**-t``."""
        return self.prefactor * self.r_l ** -np.asarray(t, dtype=float)


def solve_divergence(ctx: GenFuncContext) -> DivergenceReport:
    """Locate the radius r_L < 1 from z U~(z) = 1 and the divergence rate.

    ``z U~(z)`` is monotone increasing on (0, 1), from 0 to U~(1) > 1, so the
    root is bracketed and :func:`bisect_monotone` shrinks the bracket to adjacent floats
    on U~ alone: about 16 evaluations of :func:`_uv_at`, whose per-mode terms are taken
    once per solve. V~ and the derivatives are taken at the root only, whose residual may reach
    1e-12 or twice the ``ulp(r) (U~ + r U~')`` by which a step to r's neighbour moves ``z U~``.
    """
    ctx.require_valid()
    u1 = eval_U1(ctx)
    if not (u1 > 1.0):
        raise AnalysisDomainError(f"U~(1) = {u1:.6g} <= 1: dynamics is not divergent")

    at = _uv_at(ctx)
    r = bisect_monotone(lambda z: z * at(z) - 1.0, 1e-300, np.nextafter(1.0, 0.0))
    uv = at(r, full=True)
    tol = max(1e-12, 2.0 * math.ulp(r) * (uv.u + r * uv.du))  # large spectra: one ulp of r may move z U~ by more
    if not abs(r * uv.u - 1.0) <= tol:
        raise AnalysisDomainError(f"r_L residual {r * uv.u - 1.0!r} out of tolerance {tol:.3g}")
    return DivergenceReport(r, -1.0 / math.log(r), uv.v / (2.0 * (1.0 + r**2 * uv.du)))


def compute_UV_sequences(ctx: GenFuncContext, horizon: int):
    """The coefficient sequences U_1..U_T and V_1..V_T of the generating functions.

    Both sum ``e_1^T A_k^t x_k`` over the uncoupled SE maps A_k of the (lambda, start, weight)
    points k, from the noise seed ``weight lambda^2 (1, 1, 1)`` and the signal seed ``(start, 0,
    0)``: of the modes (``spectrum._se_modes``), or of the Gauss nodes that :func:`run_se` steps
    (``Spectrum._nodes``) where ``spectrum._gauss_holds`` trusts them over the T - 1 steps of the
    powers. Partial sums of ``U_{t+1} z^t`` converge to U~(z) (geometric tail). A block of
    ``_UV_BLOCK`` = B coefficients is one GEMM of the rows ``e_1^T A_k^j`` (j < B) against the
    block-start states, which powers of A_k then advance. Modes or nodes run in chunks of about
    512 KB of working set at any horizon, their partial sums added in order. A run whose noise
    stays below rounding, ``gamma (alpha lambda_max)^2 T <= 1e-16``, steps the SE kernel on the
    modes instead: V_t then shares the kernel's rounding near the loss's oscillation minima, where
    two independent evaluations can differ by 3e-9 of the loss, and matches run_se bitwise where
    run_se takes the kernel on the modes too. Overflow goes unreported: past one, outside the
    oracle's domain, the coefficients are inf or NaN.
    """
    ctx.require_valid()
    if not _is_count(horizon):
        raise AnalysisDomainError(f"horizon must be an integer >= 1, got {horizon!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        if not ctx.gamma * (ctx.alpha * ctx.spectrum.lambda_max) ** 2 * horizon > 1e-16:
            lam, lc = ctx.spectrum.lambdas, ctx.spectrum.lambda_c0
            seed, zero = lam * lam, np.zeros_like(lam)
            jv = np.stack([seed, zero]), np.stack([seed, zero])
            sums = _se_run(*_se_kernel(*_se_table(lam, ctx.alpha, ctx.beta, ctx.gamma, 0.0, ctx.tau),
                                       np.stack([seed, lc]), jv=jv), horizon - 1, history=True)[4]
        else:
            *nodes, bins = ctx.spectrum._nodes(True)
            trusted = _gauss_holds(bins, np.array([ctx.alpha]), np.array([ctx.beta]), horizon - 1)[0]
            sums = _uv_sums(ctx, nodes if trusted else _se_modes(ctx.spectrum), horizon)
        return ctx.gamma * ctx.alpha**2 * sums[0], sums[1]


def _uv_sums(ctx: GenFuncContext, points, horizon: int):
    """The (2, horizon) noise and signal sums over the (lambda, start, weight) ``points``, seeded
    with ``weight lambda^2 (1, 1, 1)`` and ``(start, 0, 0)``, ``_UV_CHUNK`` of them at a time."""
    sums = np.zeros((2, horizon))
    for lo in range(0, points[0].size, _UV_CHUNK):
        _uv_chunk(ctx, *(x[lo : lo + _UV_CHUNK] for x in points), sums)
    return sums


def _uv_step(ctx: GenFuncContext, lam: np.ndarray):
    """A_k as a double-double pair (hi, lo) of (3, 3, modes) arrays: the exact sums that the
    velocity-form step of :func:`~sgdphaselab.simulate._se_step` makes of the coefficients of
    ``_se_table`` (the rows it documents). At beta = 0 only column 0 is nonzero, so C evolves
    alone by ``1 - 2a + a^2 - q``, the kernel's ``m11`` before its rounding."""
    a, beta = ctx.alpha * lam, np.full_like(lam, ctx.beta)
    m1, m2, b2 = a * a - (ctx.tau * ctx.gamma) * (a * a), -2.0 * beta * a, beta * beta
    hi, lo = np.zeros((3, 3, lam.size)), np.zeros((3, 3, lam.size))
    terms = [[(1.0, m1, -2.0 * a), (2.0 * beta, m2), (b2,)],
             [(m1, -a), (beta, m2), (b2,)],
             [(m1,), (m2,), (b2,)]]
    for i, j in np.ndindex(3, 3):
        hi[i, j] = terms[i][j][0]
        for term in terms[i][j][1:]:
            hi[i, j], err = _two_sum(hi[i, j], term)
            lo[i, j] += err
    return hi, lo


def _two_sum(a, b):
    """``a + b`` as the rounded sum and its exact rounding error (Knuth's TwoSum)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _dd_square(hi: np.ndarray, lo: np.ndarray):
    """``(hi + lo)^2`` of stacked (3, 3, modes) matrices in double-double arithmetic."""
    split = hi * 134217729.0  # Dekker: hi = big + small, halves of 26 bits, so big * big is exact
    big = split - (split - hi)
    small = hi - big
    p = hi[:, :, None] * hi[None]  # (i, l, j, mode): p + e is the exact product
    e = ((big[:, :, None] * big[None] - p) + big[:, :, None] * small[None] + small[:, :, None] * big[None])
    e = (e + small[:, :, None] * small[None]).sum(axis=1)
    e += np.einsum("ilk,ljk->ijk", hi, lo) + np.einsum("ilk,ljk->ijk", lo, hi)
    s, err = _two_sum(p[:, 0], p[:, 1])
    s, err2 = _two_sum(s, p[:, 2])
    return _two_sum(s, e + err + err2)


def _uv_chunk(ctx: GenFuncContext, lam: np.ndarray, start: np.ndarray, weight: np.ndarray, sums: np.ndarray):
    """Add one chunk's terms to the (2, horizon) noise and signal ``sums`` (:func:`_uv_sums`).

    A^n comes by squaring A_k in double-double arithmetic: slow modes' entries lie near 1 and
    near-edge modes' powers pass through transients far above themselves, so rounded products
    would bias every block alike. Each A^n, rounded once, doubles the rows ``e_1^T A^j`` (j < B),
    then the states of ``_UV_CHAINS`` = K consecutive blocks, which advance together by A^{KB}.
    """
    hi, lo = _uv_step(ctx, lam)
    rows, x = np.zeros((_UV_BLOCK, 3, lam.size)), np.zeros((_UV_CHAINS, 2, 3, lam.size))
    rows[0], x[0, 0], x[0, 1, 0] = np.eye(3)[0][:, None], lam * lam * weight, start  # x: (block, seed, moment, node)
    levels = (min(sums.shape[1], _UV_BLOCK * _UV_CHAINS) - 1).bit_length()  # only powers this horizon uses
    for k in range(levels):  # hi + lo = A^n, n = 2^k
        n, c = 1 << k, (1 << k) // _UV_BLOCK
        if n < _UV_BLOCK:
            rows[n : 2 * n] = np.einsum("bik,ijk->bjk", rows[:n], hi)
        else:
            x[c : 2 * c] = np.einsum("ilk,bclk->bcik", hi, x[:c])
        hi, lo = _dd_square(hi, lo)
    flat, span = rows.reshape(_UV_BLOCK, -1), _UV_CHAINS * _UV_BLOCK
    for t in range(0, sums.shape[1], span):
        n = min(span, sums.shape[1] - t)
        out = (x.reshape(2 * _UV_CHAINS, -1) @ flat.T).reshape(_UV_CHAINS, 2, _UV_BLOCK)
        sums[:, t : t + n] += out.transpose(1, 0, 2).reshape(2, span)[:, :n]
        if t + n < sums.shape[1]:
            x = np.einsum("ilk,bclk->bcik", hi, x)  # advance by A^{KB}


def reconstruct_loss(ctx: GenFuncContext, horizon: int) -> LossTrajectory:
    """Rebuild L(0..T) from the U/V recursion:

    L(T) = V_{T+1}/2 + sum_{t=1..T} U_{T+1-t} L(t-1).

    O(T^2) flops, in T/B BLAS products over blocks of ``_LOSS_BLOCK`` = B = 32 losses. A block's sum
    over the losses before it is one matrix-vector product with a (B, T+1) matrix of shifted U
    (B (T+1) doubles, built once: 1.28 MB at T = 5000); its own lower-triangular Toeplitz system
    ``(I - T_B) L = rhs`` is solved by its inverse, lower Toeplitz in ``w_0 = 1, w_n = sum_{i<=n}
    U_i w_{n-i}``. The first loss to cross the divergence threshold ends the run, as a step at a
    time would.

    An oracle for :func:`run_se` at tau1 = 1: it shares the per-mode table, and the Gauss nodes
    where both trust them (:func:`compute_UV_sequences`), but the rank-one noise coupling enters
    only through the convolution. It holds to 1e-10 on 3+ modes with every ``(1 - alpha lam)^2 >=
    tau gamma (alpha lam)^2``; elsewhere the uncoupled terms can outlast the coupled loss, and
    their rounding outgrow it.
    """
    ctx.require_valid()
    if not _is_count(horizon, least=0):
        raise AnalysisDomainError(f"horizon must be an integer >= 0, got {horizon!r}")
    u_seq, v_seq = compute_UV_sequences(ctx, horizon + 1)
    b, size = _LOSS_BLOCK, horizon + 1
    # history[i, p] = U_{T+1+i-p}, 0 past U_{T+1}: the block at s takes columns T+1-s.. against L(0..s-1)
    history = sliding_window_view(np.concatenate([np.zeros(b - 1), u_seq[::-1]]), size)[::-1].copy()
    w = np.zeros(b)  # a block holds at most T losses, so w_n past n = T - 1 is never read
    w[0] = 1.0
    for n in range(1, min(b, size)):
        w[n] = np.dot(u_seq[:n], w[n - 1 :: -1])
    lag = np.subtract.outer(np.arange(b), np.arange(b))
    inverse = np.where(lag >= 0, w[lag], 0.0)
    losses = 0.5 * v_seq
    threshold = _divergence_threshold(losses[0])
    diverged_at = None
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, size, b):
            n = min(b, size - s)
            rhs = history[:n, size - s :] @ losses[:s]
            rhs += losses[s : s + n]  # still V/2 from step s on
            block = np.matmul(inverse[:n, :n], rhs, out=losses[s : s + n])
            if not block.max() <= threshold:  # NaN crosses
                diverged_at = s + int(np.argmin(block <= threshold))
                losses = losses[: diverged_at + 1]
                break
    meta = {
        "regime": "genfunc", "alpha": ctx.alpha, "beta": ctx.beta,
        "gamma": ctx.gamma, "tau": ctx.tau, "modes": len(ctx.spectrum),
    }
    return LossTrajectory(losses, None, diverged_at, meta)
