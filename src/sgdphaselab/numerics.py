"""Scalar numerics used by the analysis modules: bisection and the gamma function.

Root finding is plain bisection on purpose: every equation we solve is
monotone on its bracket, and robustness matters more than iteration count
at this scale.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import AnalysisDomainError

__all__ = ["bisect_monotone", "gamma_fn"]


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


def gamma_fn(x: float) -> float:
    """Gamma(x) for real ``x`` (``math.gamma``); the poles 0, -1, -2, ... raise AnalysisDomainError."""
    if x <= 0.0 and x == math.floor(x):
        raise AnalysisDomainError(f"gamma pole at x={x!r}")
    return math.gamma(x)
