import math

import numpy as np
import pytest

from sgdphaselab import FeatureProblem, Spectrum, build_torus_problem


def exp_kernel(n: int, scale: float = 0.35) -> np.ndarray:
    """Exponential kernel on the circle: strictly PSD, moderate condition number."""
    x = 2.0 * np.pi * np.arange(n) / n
    return np.exp(-np.abs(2.0 * np.sin(x / 2.0)) / scale)


def random_spectrum(rng: np.random.Generator, modes: int = 20, lam_lo: float = 0.05) -> Spectrum:
    lam = np.sort(rng.uniform(lam_lo, 1.0, modes))[::-1]
    c0 = rng.uniform(0.0, 2.0, modes)
    return Spectrum.from_c0(lam, c0)


def random_problem(rng: np.random.Generator, dim: int, n: int) -> FeatureProblem:
    return FeatureProblem.create(
        rng.normal(size=(dim, n)), np.zeros(dim), rng.normal(size=dim)
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def torus64():
    gen = np.random.default_rng(7)
    return build_torus_problem((64,), exp_kernel(64), w0=gen.normal(size=64))


def max_rel_err(a, b, floor: float = 1e-300) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


def loglog_slope(losses, t_lo: int, t_hi: int) -> tuple[float, float]:
    """OLS slope and geometric-midpoint level of a loss tail on log-log axes."""
    t = np.arange(len(losses))
    m = (t >= t_lo) & (t <= t_hi) & (losses > 0)
    slope, intercept = np.polyfit(np.log(t[m]), np.log(np.asarray(losses)[m]), 1)
    t_mid = math.sqrt(t_lo * t_hi)
    return float(slope), math.exp(intercept + slope * math.log(t_mid))


# Double-double arithmetic (Dekker 1971; Knuth's TwoSum): a value is a pair (hi, lo) of float64
# arrays whose exact sum it stands for, about 106 bits, the same on every platform (np.longdouble
# is float64 on some). Only the reference recursion below uses it.


def _two_sum(a, b):
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _two_prod(a, b):
    p = a * b
    sa, sb = 134217729.0 * a, 134217729.0 * b  # Dekker's split into halves of 26 bits
    ah, bh = sa - (sa - a), sb - (sb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    t, f = _two_sum(x[1], y[1])
    s, e = _two_sum(s, e + t)
    return _two_sum(s, e + f)


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    return _two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def _dd_scale(x, c):
    """x times a power of two c, exactly."""
    return x[0] * c, x[1] * c


def se_reference(lam, lambda_c0, alpha, beta, gamma, tau1, tau2, steps) -> np.ndarray:
    """Losses L(0..steps) of the SE recursion, one row per run, in double-double arithmetic.

    Run i steps the modes ``lam[i]`` from ``lambda_c0[i]`` (a 1-D pair is one run) at the i-th
    (or only) alpha, beta, gamma, tau1 and tau2: per mode ``(C, J, V) <- A (C, J, V) + r S``, ``S =
    sum C``, A of rows ``((1 - a)^2 - q, 2 beta (1 - a), beta^2)``, ``(a^2 - a - q, beta (1 - 2 a),
    beta^2)`` and ``(a^2 - q, -2 a beta, beta^2)``, ``a = alpha lam``, ``q = tau2 gamma a^2``, ``r =
    tau1 gamma a^2``, every coefficient formed from the given doubles without rounding. It shares
    no code with the package. Zero modes (lam and start 0) pad runs of fewer modes. Returns each
    S/2 rounded to double.
    """
    lam, start = np.atleast_2d(np.asarray(lam, dtype=float), np.asarray(lambda_c0, dtype=float))
    alpha, beta, gamma, tau1, tau2 = (np.broadcast_to(np.reshape(np.asarray(x, dtype=float), (-1, 1)), lam.shape)
                                      for x in (alpha, beta, gamma, tau1, tau2))
    zero = np.zeros_like(lam)
    one, b = (zero + 1.0, zero), (beta, zero)
    a = _two_prod(alpha, lam)
    aa = _dd_mul(a, a)
    q = _dd_mul(_two_prod(tau2, gamma), aa)
    r = _dd_mul(_two_prod(tau1, gamma), aa)
    b2 = _dd_mul(b, b)
    one_a = _dd_add(one, _dd_scale(a, -1.0))
    aa_q = _dd_add(aa, _dd_scale(q, -1.0))
    rows = ((_dd_add(_dd_mul(one_a, one_a), _dd_scale(q, -1.0)), _dd_scale(_dd_mul(b, one_a), 2.0), b2),
            (_dd_add(aa_q, _dd_scale(a, -1.0)), _dd_mul(b, _dd_add(one, _dd_scale(a, -2.0))), b2),
            (aa_q, _dd_scale(_dd_mul(a, b), -2.0), b2))
    state = [(start, zero), (zero, zero), (zero, zero)]
    losses = np.empty((lam.shape[0], steps + 1))
    for t in range(steps + 1):
        s = state[0]
        while s[0].shape[1] > 1:  # pairwise over the modes
            if s[0].shape[1] % 2:
                s = tuple(np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1) for x in s)
            half = s[0].shape[1] // 2
            s = _dd_add((s[0][:, :half], s[1][:, :half]), (s[0][:, half:], s[1][:, half:]))
        losses[:, t] = 0.5 * (s[0][:, 0] + s[1][:, 0])
        if t < steps:
            noise = _dd_mul(r, s)
            state = [_dd_add(_dd_add(_dd_mul(row[0], state[0]), _dd_mul(row[1], state[1])),
                             _dd_add(_dd_mul(row[2], state[2]), noise)) for row in rows]
    return losses
