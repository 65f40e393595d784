"""Numerics: the bracketed root solver and the gamma function for the analysis modules, and
the Gauss rules with which a large spectrum compresses to the nodes that the SE simulator steps
and the generating functions sum over.

Every equation the analysis solves is monotone on a bracket. The solver shrinks the bracket
to adjacent floats by interpolating steps, superlinear on the smooth spectral sums, that never
fall more than a halving behind bisection.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import AnalysisDomainError

__all__ = ["bisect_monotone", "gamma_fn", "gauss_rules"]

RULE_BREAK = 1e-10  # Lanczos coefficient, relative to the run's mean point, at which a rule stops
RULE_CHUNK = 2**13  # points whose runs one vectorised Lanczos pass takes
N0 = 1  # halvings by which the root bracket may lag plain bisection's (ITP's n0)


def bisect_monotone(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 0.0,
    maxiter: int = 200,
) -> float:
    """Root of ``f`` on ``[lo, hi]`` where f(lo) and f(hi) differ in sign.

    Each step evaluates f at one point inside the bracket and keeps the part where the sign
    changes. The point is the ITP step (Oliveira & Takahashi, ACM TOMS 47(1), 2021) of width
    w0 at the start and w now: the false-position point, with Anderson & Björck's weighting
    of an end that two steps in a row keep (BIT 13, 1973); moved ``0.2 w^2 / w0`` toward the
    midpoint; then, at step j, projected to within ``w0 2^(N0 - j - 1) - w / 2`` of the
    midpoint. After j steps the bracket is thus no wider than plain bisection's after j - N0,
    and a solve takes at most N0 + 1 = 2 evaluations more than bisection on the same bracket
    (the one over N0 for the rounding of float midpoints); on smooth f it converges
    superlinearly.

    With ``xtol=0`` the bracket is shrunk until its endpoints are adjacent floats; the
    endpoint with the smaller |f| is returned, or at once a point where f is 0. A bracket
    that bisection would shrink within ``maxiter`` steps converges; one that is still wider
    than 4 ulps (or xtol) after maxiter + N0 + 1 evaluations inside it raises
    AnalysisDomainError, as does a bracket without a sign change.
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
    ends, fs, gs, last, w0 = [lo, hi], [flo, fhi], [flo, fhi], None, hi - lo  # gs: weighted fs
    for j in range(maxiter + N0 + 1):
        (lo, hi), w = ends, ends[1] - ends[0]
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi or w <= xtol:
            break
        t = gs[0] / (gs[0] - gs[1])
        x = lo + w * t if 0.0 <= t <= 1.0 else mid
        delta = 0.2 * w * (w / w0)
        x = x + math.copysign(delta, mid - x) if delta <= abs(mid - x) else mid
        r = math.ldexp(w0, N0 - j - 1) - 0.5 * w
        x = min(max(x, mid - r, math.nextafter(lo, hi)), mid + r, math.nextafter(hi, lo)) if r > 0.0 else mid
        fx = f(x)
        if fx == 0.0:
            return x
        side = int((fx > 0) != (fs[0] > 0))  # the end x replaces: 0 lo, 1 hi
        if side == last:  # the other end is kept twice in a row: weigh it down
            m = 1.0 - fx / fs[side]
            gs[1 - side] *= m if m > 0.0 else 0.5
        ends[side], fs[side], gs[side], last = x, fx, fx, side
    (lo, hi), (flo, fhi) = ends, fs
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
