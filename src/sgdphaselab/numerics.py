"""Scalar numerics used by the analysis modules: bisection and log-gamma.

Root finding is plain bisection on purpose: every equation we solve is
monotone on its bracket, and robustness matters more than iteration count
at this scale.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import AnalysisDomainError

__all__ = ["bisect_monotone", "gammaln", "gamma_fn"]


def bisect_monotone(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 0.0,
    maxiter: int = 200,
) -> float:
    """Root of ``f`` on ``[lo, hi]`` where f(lo) and f(hi) differ in sign.

    With ``xtol=0`` the bracket is shrunk until its endpoints are adjacent
    floats; the endpoint with the smaller |f| is returned. A 200-iteration
    cap with a convergence check guards against a bad bracket.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise AnalysisDomainError(
            f"no sign change on bracket [{lo!r}, {hi!r}]: f(lo)={flo!r}, f(hi)={fhi!r}"
        )
    for _ in range(maxiter):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi or (hi - lo) <= xtol:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    if not (hi - lo) <= max(xtol, 4.0 * math.ulp(max(abs(lo), abs(hi), 1e-300))):
        raise AnalysisDomainError(
            f"bisection failed to converge within {maxiter} iterations: bracket [{lo!r}, {hi!r}]"
        )
    return lo if abs(flo) <= abs(fhi) else hi


# Lanczos approximation, g = 7, 9 coefficients. Relative error of exp(gammaln)
# is below 1e-13 on (0, 30), comfortably inside the 1e-12 contract.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def gammaln(x: float) -> float:
    """log |Gamma(x)| for real ``x`` that is not a non-positive integer."""
    if x != x:  # NaN
        return x
    if x <= 0.0 and x == math.floor(x):
        raise AnalysisDomainError(f"gamma pole at x={x!r}")
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.log(abs(math.pi / math.sin(math.pi * x))) - gammaln(1.0 - x)
    y = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (y + i)
    t = y + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (y + 0.5) * math.log(t) - t + math.log(acc)


def gamma_fn(x: float) -> float:
    """Gamma(x) for real non-pole ``x``; negative arguments via reflection."""
    if x > 0.0:
        return math.exp(gammaln(x))
    if x == math.floor(x):
        raise AnalysisDomainError(f"gamma pole at x={x!r}")
    return math.pi / (math.sin(math.pi * x) * math.exp(gammaln(1.0 - x)))
