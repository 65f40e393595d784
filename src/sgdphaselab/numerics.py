"""Numerics: bisection and the gamma function for the analysis modules, and the
Gauss rules with which the SE simulator compresses large spectra.

Root finding is plain bisection on purpose: every equation we solve is
monotone on its bracket, and robustness matters more than iteration count
at this scale.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import AnalysisDomainError

__all__ = ["bisect_monotone", "gamma_fn", "gauss_rules"]

RULE_BREAK = 1e-10  # Lanczos coefficient, relative to the run's mean point, at which a rule stops
RULE_CHUNK = 2**13  # points whose runs one vectorised Lanczos pass takes


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


def gauss_rules(x, w, count, n: int):
    """The Gauss rules, of at most n nodes, of the measure ``sum_k w_k delta(y - x_k)`` (w >= 0) on
    each run of ``count`` > 0 consecutive points of x, as (nodes, weights): the eigenvalues of the
    :func:`_lanczos` matrix and the mass times its eigenvectors' squared first components (Golub &
    Welsch). Lanczos takes the runs ``RULE_CHUNK`` points at a time (or one longer run), so its
    scratch stays small. A run of zero mass has no rule, one cut short after m steps m nodes; the
    rules come in run order.
    """
    ends, parts, lo = np.cumsum(count), [], 0
    while lo < count.size:
        start = ends[lo] - count[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, start + RULE_CHUNK, "right")))
        parts.append(_lanczos(x[start : ends[hi - 1]], w[start : ends[hi - 1]], count[lo:hi], n))
        lo = hi
    jacobi, center, mass, size = (np.concatenate(part) for part in zip(*parts))
    nodes, weights = np.zeros((2, size.size, n))
    for m in range(1, n + 1):  # one eigh a rule size, on the leading m x m block
        pick = size == m
        val, vec = np.linalg.eigh(jacobi[pick, :m, :m])
        nodes[pick, :m], weights[pick, :m] = val + center[pick, None], mass[pick, None] * vec[:, 0, :] ** 2
    return nodes[weights > 0.0], weights[weights > 0.0]


def _lanczos(x, w, count, n: int):
    """Per run of ``count`` > 0 points of x, the n x n Jacobi matrix of ``sum_k w_k delta(y - x_k)``
    about the run's mean point, that mean, the mass and the number of steps taken: n Lanczos steps
    on diag(x - mean) from ``sqrt(w)``, reorthogonalised against the basis, for every run at once.
    A run's recurrence stops at its first coefficient below ``RULE_BREAK`` of its mean, where its
    measure has no more distinct points than steps taken, and at once if it has no mass."""
    starts = np.cumsum(count) - count
    mass, center = np.add.reduceat(w, starts), np.add.reduceat(x, starts) / count
    x = x - np.repeat(center, count)  # so cancellations cost no more digits than the run's width
    q = np.sqrt(w / np.repeat(np.where(mass > 0.0, mass, 1.0), count))
    basis, jacobi, alive = [], np.zeros((count.size, n, n)), mass > 0.0
    size = alive.astype(np.intp)
    for i in range(n):
        basis.append(q)
        v = x * q
        jacobi[:, i, i] = np.where(alive, np.add.reduceat(q * v, starts), 0.0)
        if i == n - 1:
            break
        for p in basis:
            v -= np.repeat(np.add.reduceat(p * v, starts), count) * p
        norm = np.sqrt(np.add.reduceat(v * v, starts))
        alive &= norm > RULE_BREAK * np.abs(center)
        size += alive
        jacobi[:, i, i + 1] = jacobi[:, i + 1, i] = np.where(alive, norm, 0.0)
        q = v / np.repeat(np.where(alive, norm, 1.0), count)
    return jacobi, center, mass, size
