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

RULE_CHECK = 1e-12  # largest miss, relative to the mass, of a rule's Chebyshev sums against its moments
RULE_BLOCK = 2**12  # points whose Chebyshev polynomials one pass of gauss_rules evaluates
N0 = 1  # halvings by which the root bracket may lag plain bisection's (ITP's n0)


def bisect_monotone(
    f: Callable[[float], float],
    lo: float,
    hi: float,
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

    The bracket is shrunk until its endpoints are adjacent floats; the endpoint with the
    smaller |f| is returned, or at once a point where f is 0. A bracket that bisection would
    shrink within ``maxiter`` steps converges; one that is still wider than 4 ulps after
    maxiter + N0 + 1 evaluations inside it raises AnalysisDomainError, as does a bracket
    without a sign change.
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
        if mid <= lo or mid >= hi:
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
    if not (hi - lo) <= 4.0 * math.ulp(max(abs(lo), abs(hi), 1e-300)):
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
    """The n-node Gauss rules of the measures ``sum_k w_i[k] delta(y - x_k)`` (w_i >= 0, one array a
    measure) on each run of ``count`` > 0 consecutive points of x, sorted within each run: per
    measure, (nodes, weights) arrays of shape (runs, n), a run's rule in its row, weights 0 on a run
    without mass and NaN on one whose rule does not hold.

    Every run with mass takes its measure's modified moments, the sums of the monic Chebyshev
    polynomials of degree below 2n on the points where it has mass (:func:`_support`) mapped to
    [-1, 1], through the modified Chebyshev algorithm (:func:`_jacobi`) to the recurrence of its
    orthogonal polynomials: the eigenvalues of their Jacobi matrix, one batched ``eigvalsh``, are the
    nodes, and the mass over the Christoffel sum (:func:`_christoffel`) at a node its weight (Golub &
    Welsch). The moments (:func:`_moments`) take n + 1 passes over the points, ``RULE_BLOCK`` at a
    time: the cost grows as n times the points, the scratch stays small, and measures with the same
    supports share the polynomials. A rule holds where its recurrence runs all n steps and its own
    sums of the T_k match the moments within ``RULE_CHECK`` of the mass; then, having n positive
    nodes inside the support, it integrates any function within twice the mass times the function's
    best uniform error by a polynomial of degree 2n - 1, up to that miss. A measure on at most n
    distinct points of a run has no n-node Gauss rule: rounding stops its recurrence or leaves its
    rule off the moments, and so do points that cluster closer than the moments' rounding resolves,
    within some 1e-9 of each other on 12 nodes. Such a run gets NaN unless a rule still meets the
    check.
    """
    center, half, low, high, mass = (np.array(part) for part in zip(*(_support(x, row, count) for row in w)))
    nodes, weights = np.zeros((2, *mass.shape, n))
    weights[mass] = np.nan
    share = (center == center[:1]).all() and (half == half[:1]).all()
    moments = _moments(x, w, count, center[:1] if share else center, half[:1] if share else half, mass, n)[mass]
    alpha, beta = _jacobi(moments * np.append(1.0, 0.5 ** np.arange(2 * n - 1)), n)  # monic: T_k / 2^(k-1)
    full = np.all(beta[:, 1:] > 0.0, axis=1)  # the recurrences that ran all n steps
    mass[mass], moments, alpha, beta = full, moments[full], alpha[full], beta[full]  # mass: now those runs
    steps = np.arange(n)
    jacobi = np.zeros((moments.shape[0], n, n))
    jacobi[:, steps, steps], jacobi[:, steps[1:], steps[:-1]] = alpha, np.sqrt(beta[:, 1:])
    value = np.clip(np.linalg.eigvalsh(jacobi, "L"), -1.0, 1.0)
    rule = beta[:, :1] / _christoffel(value, alpha, beta)
    own = (np.cos(np.arccos(value)[..., None] * np.arange(2 * n)) * rule[..., None]).sum(axis=1)  # of T_k
    miss = np.abs(own - moments).max(axis=1) > RULE_CHECK * moments[:, 0]
    mapped = center[mass, None] + half[mass, None] * value  # may round past the support's ends
    nodes[mass] = np.clip(mapped, low[mass, None], high[mass, None])
    weights[mass] = np.where(miss[:, None], np.nan, rule)
    return list(zip(nodes, weights))


def _moments(x, w, count, center, half, runs, n: int):
    """The sums of ``w[i]`` times the Chebyshev polynomials T_k, k < 2n, of ``(x - center[i]) /
    half[i]`` over each run of ``count`` points (one row of center and half for all measures, or a
    row each), on the runs some row of ``runs`` marks and 0 on the others: BLAS products of T_0 ..
    T_n with w and with w T_n, as ``T_(n+k) = 2 T_n T_k - T_(n-k)``, ``RULE_BLOCK`` points at a time."""
    starts, ends = np.cumsum(count) - count, np.cumsum(count)
    sums = np.zeros((len(w), count.size, n + 1, 2))  # sum w T_k and sum w T_n T_k, k <= n
    poly = np.empty((center.shape[0], n + 1, min(RULE_BLOCK, x.size)))
    pair = np.empty((len(w), poly.shape[2], 2))  # a block's weights, and times T_n
    for s in range(0, x.size, RULE_BLOCK):
        e = min(s + RULE_BLOCK, x.size)
        r0, r1 = np.searchsorted(ends, s, "right"), np.searchsorted(ends, e - 1, "right") + 1
        edges = np.clip(np.append(starts[r0:r1], e), s, e) - s  # the block's pieces of runs r0 .. r1 - 1
        c, h = (np.repeat(part[:, r0:r1], np.diff(edges), axis=1) for part in (center, half))
        p = poly[:, :, : e - s]
        p[:, 0], p[:, 1] = 1.0, (x[s:e] - c) / h
        twice = 2.0 * p[:, 1]
        for k in range(2, n + 1):  # T_k = 2 t T_(k-1) - T_(k-2)
            np.multiply(twice, p[:, k - 1], out=p[:, k])
            np.subtract(p[:, k], p[:, k - 2], out=p[:, k])
        q = pair[:, : e - s]
        for i, row in enumerate(w):
            q[i, :, 0] = row[s:e]
        np.multiply(q[..., 0], p[:, n], out=q[..., 1])
        for r, lo, hi in zip(range(r0, r1), edges[:-1], edges[1:]):
            if runs[:, r].any():
                sums[:, r] += np.matmul(p[:, :, lo:hi], q[:, lo:hi])
    return np.concatenate([sums[..., 0], 2.0 * sums[..., 1:n, 1] - sums[..., n - 1 : 0 : -1, 0]], axis=-1)


def _support(x, w, count):
    """Whether the measure ``sum_k w_k delta(y - x_k)`` has mass on each run of ``count`` points of
    x, sorted within each, and the center, half-width, lowest and highest of the points where it has
    (of the whole run where it has none, and half-width 1 where it is 0)."""
    starts, keep = np.cumsum(count) - count, w > 0.0
    kept = np.add.reduceat(keep, starts, dtype=np.intp)
    y, on = (x if kept.sum() == x.size else x[keep]), kept > 0
    first = (np.cumsum(kept) - kept)[on]  # each run's first point with mass, among those of y
    lo, hi = x[starts], x[starts + count - 1]
    lo[on], hi[on] = y[first], y[first + kept[on] - 1]
    half = 0.5 * np.abs(hi - lo)
    return 0.5 * (lo + hi), np.where(half > 0.0, half, 1.0), np.minimum(lo, hi), np.maximum(lo, hi), on


def _jacobi(moments, n: int):
    """The recurrence coefficients alpha_k, beta_k, k < n, of the measures on [-1, 1] whose modified
    moments against the monic Chebyshev polynomials, of recurrence ``p_(k+1) = y p_k - b_k p_(k-1)``
    with b_1 = 1/2 and 1/4 after, are the rows of ``moments`` (2n each): the modified Chebyshev
    algorithm (Gautschi, Orthogonal Polynomials, 2004, sec. 2.1.7). beta_0 is the mass. Past a
    measure's first beta_k that is not positive, where rounding has used up its points, its
    coefficients are meaningless (NaN or inf among them)."""
    count = moments.shape[0]
    b = np.full(2 * n, 0.25)
    b[1] = 0.5
    alpha, beta = np.zeros((2, count, n))
    alpha[:, 0], beta[:, 0] = moments[:, 1] / moments[:, 0], moments[:, 0]
    older, old = np.zeros_like(moments), moments
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, n):
            span, sigma = slice(k, 2 * n - k), np.empty_like(moments)  # sigma_(k, l) for k <= l < 2n - k
            sigma[:, span] = (old[:, k + 1 : 2 * n - k + 1] - alpha[:, k - 1, None] * old[:, span]
                              - beta[:, k - 1, None] * older[:, span] + b[span] * old[:, k - 1 : 2 * n - k - 1])
            alpha[:, k] = sigma[:, k + 1] / sigma[:, k] - old[:, k] / old[:, k - 1]
            beta[:, k] = sigma[:, k] / old[:, k - 1]
            older, old = old, sigma
    return alpha, beta


def _christoffel(y, alpha, beta):
    """``sum_k p_k(y)^2`` over the orthonormal polynomials p_k of the recurrence (alpha, beta) (p_0 =
    1, every beta positive): at a Gauss node, the mass over its weight."""
    old, now, total = np.zeros_like(y), np.ones_like(y), np.ones_like(y)
    root = np.sqrt(beta)
    inverse = 1.0 / root
    for k in range(1, alpha.shape[1]):
        old, now = now, ((y - alpha[:, k - 1, None]) * now - root[:, k - 1, None] * old) * inverse[:, k, None]
        total += now * now
    return total
