"""Loss-trajectory simulators at three fidelity levels, plus the noise operators.

Regimes, from cheapest to most faithful:

* diagonal second-moment recursion under the spectrally-expressible noise
  closure (:func:`run_se`, :func:`run_noiseless`) -- O(M) per step;
* exact full-matrix second-moment dynamics with the true mini-batch noise
  covariance (:func:`run_full_moments`) -- O(d^3) per step;
* Monte-Carlo over sampled batch sequences (:func:`run_mc`).

The SE recursion evolves the per-mode moments (C, J, V) of the heavy-ball iterate and its
momentum in output-space normalization (states are ``lambda_k C_kk`` etc.), which keeps
small-eigenvalue modes well-scaled and matches the spectrum's stored ``lambda_c0`` directly. A
step is a per-point 3x3 map plus a rank-one coupling through one scalar per cell, S = sum_k C_k.
The points are (lambda, start, coupling weight) arrays: the modes (``spectrum._se_modes``) or,
where no moment is tracked, the modes would not get a full blocked round and an error estimate
trusts them, the Gauss nodes of the spectrum's two measures (``spectrum._se_nodes``, kept on the
spectrum). :func:`_se_plan` picks every cell's points and engine, and one loop, :func:`_se_run`,
records every run. Cells whose moments provably stay non-negative (:func:`_psd`) and whose block
powers keep their digits run on :func:`_se_blocked`, k steps per round of two batched BLAS
products and an einsum, k longer on longer horizons (:func:`_se_block_steps`), each block's
coupling solved by a Toeplitz inverse; the others, and
:func:`run_additive_noise`, on the step-by-step kernel :func:`_se_kernel`.
``genfunc.compute_UV_sequences`` powers the same map, without the coupling, over such points.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import threading
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import AnalysisDomainError, ValidationError
from .serialize import report_dict
from .spectrum import FeatureProblem, Spectrum, _gauss_holds, _heavy_ball, _se_modes, gamma_for_batch

__all__ = [
    "SGDParams",
    "LossTrajectory",
    "SeFitReport",
    "run_se",
    "run_se_grid",
    "run_noiseless",
    "run_full_moments",
    "run_mc",
    "run_additive_noise",
    "exact_noise_covariance",
    "se_noise_diagonal",
    "se_fit_error",
    "DIVERGENCE_RATIO",
]

DIVERGENCE_RATIO = 1e12   # L(t) > ratio * L(0) flags divergence
DIVERGENCE_FLOOR = 1e300  # absolute threshold when L(0) = 0
FULL_MOMENT_DIM_LIMIT = 256
_MC_BLOCK = 8  # Monte-Carlo steps whose batches one Philox stream draws
_GRID_BATCH = 2**15  # cell-modes per run_se_grid batch: its <= 9 (cells, modes) arrays, ~2 MB, about one L2
_SE_BUDGET = 2**20  # bytes of a blocked batch's rows and G, about one L2
_SE_BLOCK = (4, 16, 64)  # fewest steps per blocked round, the most below 2048 steps, and the most
_SE_ROUNDS = 64  # least rounds a horizon keeps when its rounds grow past _SE_BLOCK[1]
_SE_PREMIX = 2**18  # multiply-adds per premixing GEMM of _se_blocked, which OpenBLAS runs on one thread
_SE_BLOCK_DECAY = 1e-3  # least share of its moments a blocked cell's slowest mode keeps over a block
_SE_BLOCK_EDGE = 0.15  # least relative distance of a blocked cell's top mode from the heavy-ball edge


def _is_count(x, least: int = 1) -> bool:
    """An integer >= ``least``; a bool is not a count, though it subclasses int."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= least


@dataclass(frozen=True)
class SGDParams:
    """Hyperparameters of one SGD configuration.

    ``gamma`` may be given directly or left None and derived from
    ``(dataset_size, batch)``; the Monte-Carlo path always needs ``batch``.
    """

    alpha: float
    beta: float = 0.0
    gamma: float | None = None
    batch: int | None = None
    tau1: float = 1.0
    tau2: float = 1.0
    steps: int = 1000

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValidationError(f"alpha must be positive, got {self.alpha!r}")
        if not (-1.0 < self.beta < 1.0):
            raise ValidationError(f"beta must lie in (-1, 1), got {self.beta!r}")
        if self.gamma is not None and not (0.0 <= self.gamma <= 1.0):
            raise ValidationError(f"gamma must lie in [0, 1], got {self.gamma!r}")
        if self.batch is not None and not _is_count(self.batch):
            raise ValidationError(f"batch must be a positive integer, got {self.batch!r}")
        if not _is_count(self.steps):
            raise ValidationError(f"steps must be a positive integer, got {self.steps!r}")
        if not (math.isfinite(self.tau1) and math.isfinite(self.tau2)):
            raise ValidationError("tau1 and tau2 must be finite")

    @property
    def alpha_eff(self) -> float:
        return self.alpha / (1.0 - self.beta)

    def resolve_gamma(self, dataset_size: float) -> float:
        if self.gamma is not None:
            return self.gamma
        if self.batch is None:
            raise ValidationError("need either gamma or batch (with a dataset size) to fix the noise amplitude")
        return gamma_for_batch(dataset_size, self.batch)

    def with_(self, **kwargs) -> "SGDParams":
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        return {**asdict(self), "alpha_eff": self.alpha_eff}


@dataclass
class LossTrajectory:
    """Recorded losses L(0..T), truncated at the step that crossed the
    divergence threshold (``diverged_at``) if that happened."""

    losses: np.ndarray
    stderr: np.ndarray | None = None
    diverged_at: int | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])

    @property
    def initial_loss(self) -> float:
        return float(self.losses[0])

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,loss,stderr\n")
            for t, loss in enumerate(self.losses):
                err = "" if self.stderr is None else repr(float(self.stderr[t]))
                fh.write(f"{t},{float(loss)!r},{err}\n")


def _divergence_threshold(loss0: float) -> float:
    return DIVERGENCE_RATIO * loss0 if loss0 > 0.0 else DIVERGENCE_FLOOR


def _se_table(lam, alpha, beta, gamma, tau1, tau2):
    """Per-mode coefficients of one SE step and the coupling ``r = tau1 gamma a^2`` (None if 0),
    with ``a = alpha lam`` and ``q = tau2 gamma a^2``: ``(m11,)``, ``m11 = (1 - a)^2 - q``, if
    beta = 0 in every cell, else ``(a, beta, beta^2, -2 a beta, a^2 - q)``. Both give A_k with rows
    ``((1-a)^2 - q, 2 beta (1-a), beta^2)``, ``(a^2 - a - q, beta (1-2a), beta^2)`` and
    ``(a^2 - q, -2 a beta, beta^2)``, whose ``det(I - z A_k)`` is genfunc's cubic S_k(z). Per-cell
    ``alpha`` and ``beta`` broadcast to one row a cell.
    """
    alpha, beta = np.broadcast_arrays(*(np.reshape(np.asarray(x, dtype=float), (-1, 1)) for x in (alpha, beta)))
    a = alpha * lam
    q = (tau2 * gamma) * (a * a)
    r = (tau1 * gamma) * (a * a) if tau1 * gamma != 0.0 else None
    if not beta.any():
        return ((1.0 - a) * (1.0 - a) - q,), r
    return (a, beta, beta * beta, -2.0 * beta * a, a * a - q), r


def _se_run(engine, state, k, steps, threshold=None, history=False):
    """Run SE recursions on an engine over steps 0..``steps``, in rounds of ``k``, and record them.

    ``state`` is a list of arrays (or None) of one row per run, ``state[0]`` an array, that
    ``engine(state, t, n)`` advances n steps in place; it returns the (rows, n) sums S_t..S_{t+n-1}
    and their per-step lowest moments (None if untracked). A run whose loss S/2 crosses
    ``threshold`` (NaN crosses) leaves every array. Returns per run the final loss (at the crossing
    if any), the lowest loss before it, the lowest moment up to it (0 if none < 0), the crossing
    step (-1 = never) and, with ``history``, the (runs, steps + 1) sums S, undefined after a crossing.
    """
    rows = state[0].shape[0]
    cell, diverged = np.arange(rows), np.full(rows, -1)  # cell: original index of each live row
    out, lowest, moment = np.empty((rows, 3)), np.full(rows, np.inf), np.zeros(rows)  # lowest, moment: the live rows
    sums = np.empty((rows, steps + 1)) if history else None
    for t in range(0, steps + 1, k):
        s, low = engine(state, t, min(k, steps + 1 - t))
        loss = kept = 0.5 * s
        if history:
            sums[cell, t : t + s.shape[1]] = s
        if threshold is not None and not (loss.max() <= threshold):  # one reduction; NaN crosses
            over = ~(loss <= threshold)
            seen = np.cumsum(over, axis=1)  # crossings up to each step
            kept = np.where(seen == 0, loss, np.inf)  # the steps before the crossing
            low = None if low is None else np.where(seen == over, low, 0.0)  # and the crossing
        np.minimum(lowest, kept.min(axis=1), out=lowest)
        if low is not None:
            np.minimum(moment, low.min(axis=1), out=moment)
        if kept is not loss:  # some run crossed
            crossed = seen[:, -1] > 0
            first, hit = over.argmax(axis=1)[crossed], cell[crossed]
            diverged[hit], out[hit] = t + first, np.stack([loss[crossed, first], lowest[crossed], moment[crossed]], 1)
            cell, loss, lowest, moment = cell[~crossed], loss[~crossed], lowest[~crossed], moment[~crossed]
            state[:] = [x if x is None else x[~crossed] for x in state]
            if not cell.size:
                break
    out[cell] = np.stack([loss[:, -1], lowest, moment], axis=1)
    return *out.T, diverged, sums


def _se_kernel(table, r, c, source=None, track=False, jv=None):
    """The step-by-step engine of :func:`_se_run`, its state and round size ``_SE_BLOCK[1]``, on the
    (cells, modes) moments c and, but for a ``(m11,)`` table, j and v: ``jv``, else zeros. It advances
    them in place.

    A step is ``(C, J, V) <- A_k (C, J, V) + w``, ``w = r_k S`` (``source_k`` if r is None), ``S =
    sum_k C_k`` (:func:`_se_step`); each S but S_0 follows one, so a run takes exactly ``steps``.
    With ``track`` it returns each step's lowest moment, else None.
    """

    def advance(state, t, n):
        c, j, v, s, r, *table = state
        sums, low = np.empty((c.shape[0], n)), np.empty((c.shape[0], n)) if track else None
        t1, t2 = scratch[:, : c.shape[0]]  # the live rows' share: contiguous, like c
        for i in range(n):
            if t + i:
                _se_step(table, c, j, v, source if r is None else np.multiply(r, s[:, None], out=t1), t1, t2)
            s = state[3] = sums[:, i] = c.sum(axis=1)
            if track:
                low[:, i] = c.min(axis=1)
        return sums, low

    jv = (None, None) if len(table) == 1 else jv or (np.zeros_like(c), np.zeros_like(c))
    scratch = np.empty((2, *c.shape))
    return advance, [c, *jv, None, r, *table], _SE_BLOCK[1]


def _se_step(table, c, j, v, w, t1, t2):
    """One SE step, in place, adding ``w`` unless None: C alone for a ``(m11,)`` table, else 13 passes
    over two scratch buffers in velocity form: ``h = beta J - a C``, ``V <- beta^2 V + w - 2 a beta
    J + (a^2 - q) C``, ``J <- h + V``, ``C <- C + h + J``."""
    if len(table) == 1:
        np.multiply(table[0], c, out=c)
        if w is not None:
            c += w
        return
    a, beta, b2, m2, m1 = table
    v *= b2
    if w is not None:
        v += w
    h = np.multiply(beta, j, out=t2)
    h -= np.multiply(a, c, out=t1)
    v += np.multiply(m2, j, out=t1)
    v += np.multiply(m1, c, out=t1)
    np.add(h, v, out=j)
    c += h
    c += j


def _se_blocked(table, r, c, k):
    """:func:`_se_kernel` from c without ``source``, as an engine of :func:`_se_run`, k steps a round.

    With x the (cells, d, modes) state, d = 1 for a ``(m11,)`` table, else 3, the sums
    S_t0..S_{t0+k-1} of a block solve ``(I - T_U) S = p``, ``p_j = sum_l e1^T A_l^j x_l`` over the
    modes l, where T_U is strictly lower Toeplitz in ``U_n = sum_l e1^T A_l^{n-1} r_l 1``; its inverse
    W is lower Toeplitz in ``w_0 = 1, w_n = sum_{i<=n} U_i w_{n-i}``, so ``S = R x``, R the rows ``e1^T
    A^i`` premixed by W, and then ``x <- A^k x + S^T G``, ``G_i = A^{k-1-i} r 1``. R, A^k and G come
    from :func:`_se_step` on the d unit states and the seed ``r 1``, once a call; R and G are (cells,
    k, d modes) matrices, so a round is two batched BLAS matrix-vector products and an ``np.einsum``
    for A^k. Their bits did not move with OpenBLAS's thread count (1 to 5 threads). W premixes R in
    GEMMs of at most ``_SE_PREMIX`` multiply-adds, which OpenBLAS runs on one thread: one (64, 64)
    @ (64, 537) GEMM changed its bits between 1 and 2 threads. Every S_t is
    formed, S_0 as the kernel sums it, so the crossing step and the final and lowest losses are the
    kernel's to rounding. Returns what :func:`_se_kernel` returns, tracking no moment.
    """
    cells, m = c.shape
    d = 1 if len(table) == 1 else 3
    unit = np.zeros((d, cells, d + 1, m))  # (moment, cell, unit state or the seed, mode)
    unit[range(d), :, range(d)] = 1.0
    unit[:, :, d] = 0.0 if r is None else r
    step = [np.broadcast_to(x[:, None], unit.shape[1:]).copy() for x in table]  # tiled: flat loops, same bits
    rows, g = np.empty((cells, k, d, m)), np.empty((cells, k, d, m))
    t1, t2 = np.empty_like(unit[0]), np.empty_like(unit[0])
    for i in range(k):
        rows[:, i] = unit[0, :, :d]
        g[:, k - 1 - i] = unit[:, :, d].transpose(1, 0, 2)
        _se_step(step, *unit, *[None] * (3 - d), None, t1, t2)
    ak = unit[:, :, :d].transpose(1, 0, 2, 3).copy()  # A^k: (cell, moment, unit state, mode)
    u = g[:, ::-1, 0].sum(axis=2)  # u[:, i - 1] = U_i
    w = np.zeros((cells, k))
    w[:, 0] = 1.0
    for i in range(1, k):
        w[:, i] = np.einsum("ci,ci->c", u[:, :i], w[:, i - 1 :: -1])
    lag = np.subtract.outer(range(k), range(k))
    mix, rows, span = np.where(lag >= 0, w[:, lag], 0.0), rows.reshape(cells, k, d * m), _SE_PREMIX // (k * k)
    # rows_i <- sum_j w_{i-j} rows_j, a GEMM per span of columns, so no thread count changes a bit
    rows = mix @ rows if span >= d * m else np.concatenate(
        [mix @ rows[:, :, i : i + span] for i in range(0, d * m, span)], axis=2)
    s0, x = c.sum(axis=1), np.zeros((cells, d, m))
    x[:, 0] = c

    def advance(state, t, n):
        x, rows, g, ak, s = state
        if t:  # x moves past the block before, whose sums are s
            x = state[0] = np.einsum("cedm,cdm->cem", ak, x)
            x += (s[:, None] @ g).reshape(x.shape)
        s = state[4] = (rows @ x.reshape(len(x), -1, 1))[:, :n, 0]
        if not t:
            s[:, 0] = s0
        return s, None

    return advance, [x, rows, g.reshape(cells, k, d * m), ak, None], k


def _se_block_steps(d: int, modes: int, steps: int) -> int:
    """Steps per blocked round over ``steps`` steps: the largest power of two k up to ``_SE_BLOCK[2]``
    with ``_SE_ROUNDS k <= steps``, and at least ``_SE_BLOCK[1]`` (16 below 2048 steps, 32 below
    4096, else 64), halved while its rows and G, ``2 d modes k`` doubles a cell, overflow
    ``_SE_BUDGET``; 0 below ``_SE_BLOCK[0]``. A round is about ten numpy calls whatever its k, so a
    long run pays per round, not per step; k reads only what a grid cell shares with its own run."""
    k = _SE_BLOCK[1]
    while k < _SE_BLOCK[2] and 2 * k * _SE_ROUNDS <= steps:
        k *= 2
    while k >= _SE_BLOCK[0] and 16 * d * modes * k > _SE_BUDGET:
        k //= 2
    return k if k >= _SE_BLOCK[0] else 0


def _psd(tau1, tau2) -> bool:
    """Whether no moment can go negative (:func:`run_se`): only such runs go blocked or skip the minimum."""
    return tau1 >= 0.0 and tau2 <= tau1


def _blocked_cells(spectrum: Spectrum, alpha, beta, tau1, tau2, steps, modes=None):
    """Which (alpha[i], beta[i]) cells :func:`_se_plan` runs blocked over ``steps`` steps, and the
    block size k.

    A cell runs blocked when :func:`_psd` holds and :func:`_se_block_steps` gives k >=
    ``_SE_BLOCK[0]`` for its table (d = 1 if every beta is 0), the horizon and ``modes`` modes, the
    spectrum's count unless its run steps Gauss nodes (``spectrum._se_nodes``). The block's
    contractions read the stepped powers A^j against the block-start state, so they lose digits
    the kernel keeps where the loss falls by orders within a block, or where the top mode's powers
    swing (transients, alternating signs) and the loss dips far below its envelope at its
    oscillation minima, as a near-edge run's does with little or no noise. So its slowest mode
    keeps at least ``_SE_BLOCK_DECAY`` of its moments over a block, ``rho^(2k)`` with rho the
    largest spectral radius of the heavy-ball matrices ``[[1 - a, beta], [-a, beta]]`` (unimodal in
    a, so the extreme modes of the spectrum give it; nodes lie within them), and its top mode lies
    more than ``_SE_BLOCK_EDGE`` (relative) from the edge ``a = 2 (1 + beta)``. The decay test reads
    k, so a longer horizon can leave a fast-decaying cell to the kernel. The noise plays no part: a
    zero-noise run takes the engine its noisy cell takes.
    """
    alpha, beta = np.broadcast_arrays(np.reshape(np.asarray(alpha, dtype=float), -1),
                                      np.reshape(np.asarray(beta, dtype=float), -1))
    k = _se_block_steps(3 if beta.any() else 1, len(spectrum) if modes is None else modes, steps)
    if not (k and _psd(tau1, tau2)):
        return np.zeros(alpha.size, dtype=bool), k
    with np.errstate(over="ignore", invalid="ignore"):  # inf from an overflow passes each test as it should
        a = alpha[:, None] * np.array([spectrum.lambdas.min(), spectrum.lambda_max])
        rho = _heavy_ball(a, beta[:, None])[0]
        slow = rho.max(axis=1) >= _SE_BLOCK_DECAY ** (1.0 / (2 * k))  # rho^(2k) >= decay, which could overflow
        off_edge = np.abs(a[:, 1] / (2.0 * (1.0 + beta)) - 1.0) > _SE_BLOCK_EDGE
        return slow & off_edge, k


def _se_plan(spectrum: Spectrum, alpha, beta, gamma, tau1, tau2, steps):
    """The (alpha[i], beta[i]) cells' engines, as groups of cells that run alike: (cells, the
    (lambda, start, weight) points they step, k, cells a batch), k the blocked round or 0 for the kernel.

    A cell's table holds d = 1 moment at beta = 0, else 3. Where no moment is tracked (:func:`_psd`)
    and the modes would not get a full blocked round of ``_SE_BLOCK[1]`` steps at that d, whatever
    the horizon, a cell steps the Gauss nodes (``Spectrum._nodes``, built once a spectrum and noise
    flag) if ``spectrum._gauss_holds`` trusts them, else the modes (``spectrum._se_modes``); on
    either, :func:`_blocked_cells` picks k from the points and ``steps``. A batch holds at most
    ``_GRID_BATCH`` kernel cell-points or the blocked cells whose rows and G fit ``_SE_BUDGET``, and
    at least one cell. Each choice reads only a cell's own alpha and beta and the run's inputs, so
    a grid cell plans as its own :func:`run_se` run does.
    """
    alpha, beta = np.broadcast_arrays(np.reshape(np.asarray(alpha, dtype=float), -1),
                                      np.reshape(np.asarray(beta, dtype=float), -1))
    modes, nodes, plan = _se_modes(spectrum), None, []
    for d, group in ((1, np.flatnonzero(beta == 0.0)), (3, np.flatnonzero(beta != 0.0))):
        use = np.zeros(group.size, dtype=bool)
        if group.size and _psd(tau1, tau2) and _se_block_steps(d, len(spectrum), 0) < _SE_BLOCK[1]:
            *nodes, bins = spectrum._nodes(bool(tau1 * gamma != 0.0))
            use = _gauss_holds(bins, alpha[group], beta[group], steps)
        for part, points in ((group[~use], modes), (group[use], nodes)):
            if part.size:
                blocked, k = _blocked_cells(spectrum, alpha[part], beta[part], tau1, tau2, steps, points[0].size)
                plan += [(cells, points, k, max(1, size // points[0].size)) for cells, k, size in (
                    (part[~blocked], 0, _GRID_BATCH), (part[blocked], k, _SE_BUDGET // (16 * d * max(k, 1))))
                    if cells.size]
    return plan


def _se_cells(points, threshold, alpha, beta, gamma, tau1, tau2, steps, k, history=False):
    """:func:`_se_run` of the (alpha[i], beta[i]) cells to ``threshold`` on the (lambda, start, weight)
    ``points``, r times the weight (1 on a mode: exact), and :func:`_se_blocked` in rounds of ``k`` steps
    (0: the kernel, tracking moments unless :func:`_psd`), as a group of :func:`_se_plan` gives them.
    Overflow goes unreported: a non-finite loss crosses, and what follows a crossing is dropped."""
    lam, c0, weight = points
    with np.errstate(over="ignore", invalid="ignore"):
        table, r = _se_table(lam, alpha, beta, gamma, tau1, tau2)
        if r is not None:
            r *= weight
        c = np.tile(c0, (table[0].shape[0], 1))
        engine = _se_blocked(table, r, c, k) if k else _se_kernel(table, r, c, track=not _psd(tau1, tau2))
        return _se_run(*engine, steps, threshold, history)


def run_se(spectrum: Spectrum, params: SGDParams) -> LossTrajectory:
    """Evolve the per-mode (C, J, V) moments under the SE noise closure.

    Each step applies the heavy-ball map A_k of :func:`_se_table` and adds the noise increment
    ``gamma a^2 lam^2 (tau1 * sum_l lam_l C_ll - tau2 * lam_k C_kk)`` to all three moments, on the
    engine :func:`_se_plan` picks. Divergence is a recorded outcome, not an error.

    ``min_output_moment`` is the kernel's tracked minimum, and 0 untracked where tau1 >= 0 and tau2
    <= tau1: per mode a step is the congruence ``M <- B M B^T + sigma [[1, 1], [1, 1]]`` of ``M =
    [[C, J], [J, V]]``, ``B = [[1 - a, beta], [-a, beta]]``, ``sigma = gamma a^2 (tau1 S - tau2
    C_k)``. While every C_l >= 0, S >= C_k and ``sigma >= gamma a^2 (tau1 - tau2) C_k >= 0`` (gamma,
    lambda_c0 >= 0 always hold), so by induction every M stays PSD and no C goes negative. A run
    that steps Gauss nodes does so only there: its 0 is this proof about the physical modes, as a
    signal node alone is no mode and its C may go negative.
    """
    gamma = params.resolve_gamma(spectrum.dataset_size)
    cell = (params.alpha, params.beta, gamma, params.tau1, params.tau2, params.steps)
    ((_, points, k, _),) = _se_plan(spectrum, *cell)
    *_, moment, diverged, sums = _se_cells(points, _divergence_threshold(spectrum.initial_loss), *cell, k, history=True)
    diverged_at = int(diverged[0]) if diverged[0] >= 0 else None
    losses = 0.5 * sums[0, : None if diverged_at is None else diverged_at + 1]

    meta = params.as_dict()
    meta.update(
        regime="se", gamma_resolved=gamma, modes=len(spectrum),
        dataset_size=spectrum.dataset_size, min_output_moment=float(moment[0]),
        negative_moments=bool(moment[0] < 0.0), spectrum_meta=dict(spectrum.meta),
    )
    return LossTrajectory(losses, None, diverged_at, meta)


def run_noiseless(spectrum: Spectrum, params: SGDParams) -> LossTrajectory:
    """SE recursion with the noise amplitude forced to zero (plain heavy-ball GD)."""
    traj = run_se(spectrum, params.with_(gamma=0.0, batch=None))
    traj.metadata["regime"] = "noiseless"
    return traj


def run_se_grid(spectrum: Spectrum, alphas: Sequence[float], betas: Sequence[float],
                gamma: float, tau1: float, tau2: float, steps: int) -> dict:
    """Batched SE sweep over the (alpha, beta) product grid.

    Each group of :func:`_se_plan` goes into batches of its size, a multiple of the worker count
    if it needs more batches than there are workers. Cells are dealt to the batches round-robin
    in grid order, which spreads the early-diverging large-alpha cells; a diverged cell leaves
    its batch. The batches run on up to ``SGDPHASELAB_THREADS`` forked worker processes where
    :func:`_map_batches` can fork, else here one after another. A job holds its cells' points (the
    nodes built here, before any fork) and threshold, not the spectrum; the workers inherit the jobs
    and pickle back only their results. A cell's arithmetic does not
    depend on its batch, so each cell is bitwise its :func:`run_se` run whatever the split or the
    worker count. Every value is checked as
    :class:`SGDParams` checks it. Returns final/min losses, divergence steps (-1 = never) and the
    moment flags ``min_output_moment`` / ``negative_moments`` as (len(alphas), len(betas)) arrays.
    """
    workers = _worker_count()  # first, so a bad SGDPHASELAB_THREADS fails on every grid
    if not (len(alphas) and len(betas)):
        raise ValidationError("the grid needs at least one alpha and one beta")
    for alpha, beta in [(x, betas[0]) for x in alphas] + [(alphas[0], x) for x in betas]:
        SGDParams(alpha, beta, gamma, None, tau1, tau2, steps).resolve_gamma(spectrum.dataset_size)
    a = np.repeat(np.asarray(alphas, dtype=float), len(betas))
    b = np.tile(np.asarray(betas, dtype=float), len(alphas))
    batches, threshold = [], _divergence_threshold(spectrum.initial_loss)
    for cells, points, k, size in _se_plan(spectrum, a, b, gamma, tau1, tau2, steps):
        n = -(-cells.size // size)
        if n > workers:  # a multiple of the workers, so each does an equal share
            n = min(cells.size, -(-n // workers) * workers)
        batches += [(cells[i::n], points, k) for i in range(n)]
    runs = _map_batches(_se_cells, [(points, threshold, a[m], b[m], gamma, tau1, tau2, steps, k)
                                    for m, points, k in batches], workers)
    final, low, moment, diverged = (np.empty(a.size, dtype=x.dtype) for x in runs[0][:4])
    for (m, _, _), run in zip(batches, runs):  # each batch back to its cells' places in the grid
        final[m], low[m], moment[m], diverged[m] = run[:4]
    out = {"final_loss": final, "min_loss": low, "diverged_at": diverged,
           "min_output_moment": moment, "negative_moments": moment < 0.0}
    return {key: x.reshape(len(alphas), len(betas)) for key, x in out.items()}


def _worker_count() -> int:
    """``SGDPHASELAB_THREADS``, else the CPUs this process may run on, at most 8."""
    env = os.environ.get("SGDPHASELAB_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValidationError(f"SGDPHASELAB_THREADS={env!r} is not a positive integer")
        return workers
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(8, cpus)


def _blas_build() -> tuple[str, list[str]]:
    """numpy's BLAS as its build records it: the name and, from numpy 1.26 on, OpenBLAS's build
    configuration, which holds ``USE_OPENMP`` or ``USE_OPENMP=1`` in an OpenMP build; older numpy
    records only the libraries."""
    config = np.__config__
    if not hasattr(config, "CONFIG"):
        return str([config.get_info(key).get("libraries") for key in ("blas_ilp64_opt_info", "blas_opt_info")]), []
    blas = config.CONFIG["Build Dependencies"]["blas"]
    return blas["name"], blas.get("openblas configuration", "").split()


_BLAS = _blas_build()


def _map_batches(fn, jobs: list[tuple], workers: int) -> list:
    """``[fn(*job) for job in jobs]``, on up to ``workers`` forked processes where that is safe.

    A pool needs two jobs, two workers, ``os.fork``, no live Python thread but this one, and
    OpenBLAS on pthreads (:func:`_blas_build`), as numpy's wheels ship it from 1.22 on. A fork
    copies only the calling thread, so a lock another thread held would stay locked in the child;
    ``fn`` calls BLAS (:func:`_se_blocked`), and OpenBLAS's atfork handler joins its pool, so the
    process forks from one OS thread, the count Python 3.12 checks for its fork-with-threads
    warning, and the child starts a pool of its own. An OpenMP pool has no such handler. Elsewhere
    the jobs run here, to the same bits.

    The parent forks the workers, then writes the job numbers into one pipe, 4 bytes each, in
    writes of at most 512 bytes, POSIX's least PIPE_BUF, so each write lands whole and each 4-byte
    read takes one number; it runs no job itself. A worker (:func:`_work`) takes the jobs one by
    one until EOF, on the ``fn`` and arguments it inherited, so no job is pickled and ``fn`` may be
    any callable, and pickles back ``[(number, result), ...]``, or the exception of a job that
    raised, through a pipe of its own. The parent places each result by its number, re-raises a
    worker's exception, raises a one-line RuntimeError for a worker that died, and reaps every
    worker, killing those left after a failure.
    """
    workers = min(workers, len(jobs))
    name, build = _BLAS
    forks = "openblas" in name and not {"USE_OPENMP", "USE_OPENMP=1"} & set(build)
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1 or not forks:
        return [fn(*job) for job in jobs]
    read, write = (open(fd, mode, buffering=0) for fd, mode in zip(os.pipe(), ("rb", "wb")))  # the job queue
    live, results = {}, {}  # live: each unreaped worker's pid and its results' pipe
    try:
        for _ in range(workers):
            out, into = (open(fd, mode) for fd, mode in zip(os.pipe(), ("rb", "wb")))
            with into:
                if not (pid := os.fork()):
                    _work(fn, jobs, read, write, into)
            live[pid] = out
        read.close()  # so a write fails, not blocks, once no worker reads
        with write, contextlib.suppress(BrokenPipeError):  # no worker left: their pipes say why
            numbers = np.arange(len(jobs), dtype="<u4").tobytes()
            for i in range(0, len(numbers), 512):
                write.write(numbers[i : i + 512])
        for pid in list(live):
            done, code = live[pid].read(), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            live.pop(pid).close()
            if code:
                cause = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"a grid worker died ({cause})")
            done = pickle.loads(done)
            if isinstance(done, BaseException):
                raise done
            results.update(done)
        return [results[i] for i in range(len(jobs))]
    finally:
        for pid, out in live.items():  # after a failure: end and reap the workers left
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            out.close()
        read.close()
        write.close()


def _work(fn, jobs, read, write, into):
    """A worker of :func:`_map_batches`: run the jobs whose numbers it reads until EOF, then pickle
    ``[(number, result), ...]``, or the exception of the job that raised, into its pipe; never returns."""
    try:
        write.close()
        done = []
        try:
            while number := read.read(4):
                i = int.from_bytes(number, "little")
                done.append((i, fn(*jobs[i])))
        except Exception as exc:
            done = exc
        pickle.dump(done, into, pickle.HIGHEST_PROTOCOL)
        into.flush()
        os._exit(0)
    finally:
        os._exit(1)


def exact_noise_covariance(problem: FeatureProblem, c_matrix: np.ndarray) -> np.ndarray:
    """Mini-batch sampling-noise covariance (per unit gamma):

    Sigma(C) = (1/N) sum_i <psi_i, C psi_i> psi_i psi_i^T - H C H.
    """
    psi = problem.features
    c = np.asarray(c_matrix, dtype=float)
    if c.shape != (problem.dim, problem.dim):
        raise ValidationError(f"C must be {problem.dim} x {problem.dim}, got {c.shape}")
    h = problem.hessian
    q = np.einsum("ij,ij->j", psi, c @ psi)
    sigma = (psi * q) @ psi.T / problem.dataset_size - h @ c @ h
    return 0.5 * (sigma + sigma.T)


def se_noise_diagonal(spectrum: Spectrum, c_diag, tau1: float = 1.0, tau2: float = 1.0) -> np.ndarray:
    """Per-mode SE noise: Sigma_kk = tau1 lam_k sum_l lam_l C_ll - tau2 lam_k^2 C_kk."""
    c = np.asarray(c_diag, dtype=float)
    lam = spectrum.lambdas
    if c.shape != lam.shape:
        raise ValidationError("c_diag length must match the spectrum")
    return tau1 * lam * np.sum(lam * c) - tau2 * lam**2 * c


@dataclass(frozen=True)
class SeFitReport:
    """Relative quadratic trace distance between the exact and SE noise terms.

    ``E2(t1, t2) = |Sigma - t1 A + t2 B|_F^2 / |Sigma|_F^2`` with
    A = H Tr(HC) and B = HCH. ``coefficients`` holds the six Frobenius inner products of Sigma,
    A and B (``"ss"``, ``"sa"``, ...): they go into ``se_error.json`` and give ``tau2_opt``.
    ``e2`` and ``e2_opt`` come from the difference matrix instead (see :func:`se_fit_error`).
    """

    e2: float
    tau1: float
    tau2: float
    coefficients: dict
    tau2_opt: float      # minimizer of E2(1, .) on the tau1 = 1 line
    e2_opt: float

    def as_dict(self) -> dict:
        return report_dict(self, e2="E2", tau2_opt="tau2_opt_on_tau1_eq_1", e2_opt="E2_opt")


def se_fit_error(problem: FeatureProblem, c_matrix: np.ndarray, tau1: float = 1.0, tau2: float = 1.0) -> SeFitReport:
    """Measure how spectrally expressible the exact noise term is for this problem.

    ``e2`` is formed from the difference matrix directly (the coefficient
    expansion cancels catastrophically when the fit is nearly exact). E2 is undefined, and
    AnalysisDomainError raised, when Sigma is zero up to rounding, as at one sample (N = 1).
    """
    sigma = exact_noise_covariance(problem, c_matrix)
    h = problem.hessian
    c = np.asarray(c_matrix, dtype=float)
    a = h * float(np.trace(h @ c))
    b = h @ c @ h
    terms = {"s": sigma, "a": a, "b": b}
    coef = {x + y: float(np.sum(terms[x] * terms[y])) for x, y in ("ss", "sa", "sb", "aa", "ab", "bb")}
    # Sigma is the difference of two terms of norm at most m4 |C|_F, m4 the mean of |psi_i|^4. Where
    # they cancel exactly (N = 1, or N equal samples) their rounding left |Sigma|_F below 0.93 (d + N)
    # eps m4 |C|_F in over 1000 draws up to d = 256; real two-sample noise sat 1e8 times above that
    psi = problem.features
    m4 = float(np.mean(np.sum(psi * psi, axis=0) ** 2))
    rounding = 16.0 * (problem.dim + problem.dataset_size) * np.finfo(float).eps * m4 * np.linalg.norm(c)
    if math.sqrt(coef["ss"]) <= rounding:
        raise AnalysisDomainError("exact noise covariance is zero up to rounding; E2 is undefined")

    def direct(t1: float, t2: float) -> float:
        diff = sigma - t1 * a + t2 * b
        return float(np.sum(diff * diff)) / coef["ss"]

    tau2_opt = (coef["ab"] - coef["sb"]) / coef["bb"] if coef["bb"] > 0 else 0.0
    return SeFitReport(direct(tau1, tau2), tau1, tau2, coef, tau2_opt, direct(1.0, tau2_opt))


def run_full_moments(problem: FeatureProblem, params: SGDParams, noise: str = "exact",
                     moment_observer=None) -> LossTrajectory:
    """Exact dense dynamics of the combined second-moment matrix ``M = [[C, J], [J^T, V]]``.

    A step is one congruence, ``M <- T M T^T + Sigma(C) (x) [[1, 1], [1, 1]]`` with ``T = [[I -
    alpha H, beta I], [-alpha H, beta I]]`` and Sigma the noise times ``gamma alpha^2``:
    ``noise="exact"`` the true batch-sampling covariance, ``noise="se"`` the SE-family surrogate
    ``tau1 H Tr(HC) - tau2 HCH`` (useful for invariance checks). ``moment_observer(t, M)`` is
    called with the 2d x 2d matrix M after every step, for inspection. The result is a pure
    function of the inputs only at a fixed BLAS thread count: at d = 256 the congruence's GEMMs
    change their bits with the threads that split them.
    """
    d = problem.dim
    if d > FULL_MOMENT_DIM_LIMIT:
        raise ValidationError(f"dimension {d} exceeds the dense-path limit {FULL_MOMENT_DIM_LIMIT}")
    if noise not in ("exact", "se"):
        raise ValidationError(f"noise must be 'exact' or 'se', got {noise!r}")
    gamma = params.resolve_gamma(problem.dataset_size)
    h, n, alpha, beta = problem.hessian, problem.dataset_size, params.alpha, params.beta
    step = np.block([[np.eye(d) - alpha * h, beta * np.eye(d)], [-alpha * h, beta * np.eye(d)]])

    m = np.zeros((2 * d, 2 * d))
    m[:d, :d] = problem.initial_second_moment()
    losses = np.empty(params.steps + 1)
    losses[0] = 0.5 * float(np.sum(h * m[:d, :d]))
    threshold, diverged_at = _divergence_threshold(losses[0]), None

    for t in range(1, params.steps + 1):
        c = m[:d, :d]
        if noise == "exact":
            sigma = exact_noise_covariance(problem, c)
        else:
            sigma = params.tau1 * h * float(np.sum(h * c)) - params.tau2 * h @ c @ h
            sigma = 0.5 * (sigma + sigma.T)
        m = step @ m @ step.T
        blocks = m.reshape(2, d, 2, d)  # a view: Sigma goes into C, J, J^T and V
        blocks += (gamma * alpha**2) * sigma[:, None, :]
        loss = losses[t] = 0.5 * float(np.sum(h * m[:d, :d]))
        if moment_observer is not None:
            moment_observer(t, m)
        if not (loss <= threshold):
            diverged_at = t
            losses = losses[: t + 1]
            break

    meta = params.as_dict()
    meta.update(regime="moments", noise=noise, gamma_resolved=gamma, dataset_size=n, dim=d)
    return LossTrajectory(losses, None, diverged_at, meta)


def _philox_stream(seed: int, index: int) -> np.random.Generator:
    # Counter-based substreams: the user seed is the Philox key, the block index
    # sits in the top counter word, so streams never overlap and dispatch
    # order (or thread count) cannot change any block's draws.
    bitgen = np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, int(index)])
    return np.random.Generator(bitgen)


def _batch_masks(runs: int, n: int, b: int, steps: int, seed: int):
    """Yield each step's (runs, N) batch mask: a uniform b-subset per run (Floyd's algorithm).

    Block k of ``_MC_BLOCK`` steps reads ``_philox_stream(seed, k)`` for all its rows at
    once: for j in N-m .. N-1 a row draws x in [0, j] and takes j if x is taken, indexing the
    block's flat mask at ``row N + x``. m is min(b, N - b): for b > N/2 the mask of the N - b
    samples left out is inverted. Every block draws all its rows, so a shorter horizon is a
    prefix of a longer one.
    """
    m, mask = min(b, n - b), np.empty((_MC_BLOCK, runs, n), dtype=bool)
    flat, base = mask.reshape(-1), np.arange(0, mask.size, n)  # base: each row's offset
    for k, t in enumerate(range(0, steps, _MC_BLOCK)):
        g = _philox_stream(seed, k)
        flat[...] = False
        for j in range(n - m, n):
            x = g.integers(0, j + 1, size=base.size)
            x += base
            np.putmask(x, flat[x], base + j)
            flat[x] = True
        if m < b:
            np.logical_not(mask, out=mask)
        yield from mask[: steps - t]


def run_mc(problem: FeatureProblem, params: SGDParams, runs: int, seed: int) -> LossTrajectory:
    """Monte-Carlo mini-batch SGD: mean population loss and standard error.

    Each step's batch is uniform without replacement; one Philox stream draws ``_MC_BLOCK`` steps
    of all runs (:func:`_batch_masks`), so run r's batches depend on ``runs`` too. A step is two
    GEMMs, ``proj = w psi``, whose ``|proj|^2 / 2N`` is the loss of w (H = psi psi^T / N), then with
    the unbatched columns zeroed ``proj psi^T alpha / b``. A block of ``_MC_BLOCK`` steps forms its
    statistics and meets the threshold at once; overflow after a crossing goes unreported. Memory
    is O(runs (d + N) + runs _MC_BLOCK N) at any horizon; results are a pure function of (inputs,
    runs, seed), the seed an integer in [0, 2^64), only at a fixed BLAS thread count: a large GEMM
    (runs 1000, d 256, N 300) changes its bits with the threads that split it.
    """
    if not _is_count(runs):
        raise ValidationError(f"runs must be a positive integer, got {runs!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise ValidationError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if params.batch is None:
        raise ValidationError("Monte-Carlo path needs an explicit batch size")
    n, b = problem.dataset_size, int(params.batch)
    if b > n:
        raise ValidationError(f"batch size {b} exceeds dataset size {n}")
    d, steps, psi, beta = problem.dim, params.steps, problem.features, params.beta
    scaled = psi.T * (params.alpha / b)  # proj @ scaled: alpha H(B_t) w per run

    masks = _batch_masks(runs, n, b, steps, seed) if b < n else None  # full batch: no draws
    w = np.broadcast_to(problem.deviation, (runs, d)).copy()
    v, grad, proj = np.zeros_like(w), np.empty_like(w), np.empty((runs, n))
    block, mean, err = np.empty((_MC_BLOCK, runs)), np.empty(steps + 1), np.zeros(steps + 1)
    diverged_at = None

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps + 1):
            np.matmul(w, psi, out=proj)
            i, t0 = t % _MC_BLOCK, t - t % _MC_BLOCK
            np.einsum("rn,rn->r", proj, proj, out=block[i])
            if i == _MC_BLOCK - 1 or t == steps:  # the block's statistics
                loss = block[: i + 1]
                loss *= 0.5 / n
                mean[t0 : t + 1] = loss.mean(axis=1)
                if runs > 1:
                    err[t0 : t + 1] = loss.std(axis=1, ddof=1) / math.sqrt(runs)
                over = ~(mean[t0 : t + 1] <= _divergence_threshold(mean[0]))  # NaN crosses
                if over.any():
                    diverged_at = t0 + int(over.argmax())
                    mean, err = mean[: diverged_at + 1], err[: diverged_at + 1]
                    break
            if t < steps:
                if masks is not None:
                    proj *= next(masks)
                np.matmul(proj, scaled, out=grad)
                v *= beta
                v -= grad
                w += v
    err[0] = 0.0  # every run starts at the same w

    meta = params.as_dict()
    meta.update(regime="mc", runs=int(runs), seed=int(seed), dataset_size=n, dim=d,
                gamma_resolved=gamma_for_batch(n, b))
    return LossTrajectory(mean, err, diverged_at, meta)


def run_additive_noise(spectrum: Spectrum, params: SGDParams, g_diag) -> tuple[LossTrajectory, float]:
    """SGD with additive (state-independent) gradient noise of covariance diag(G).

    Restricted to beta = 0, where the stationary moments have the closed form
    ``C_kk = alpha G_kk / (lambda_k (2 - alpha lambda_k))``; returns the
    trajectory and the loss floor ``L_inf = 0.5 sum_k alpha G_kk / (2 - alpha lambda_k)``.
    """
    g = np.asarray(g_diag, dtype=float)
    lam = spectrum.lambdas
    if g.shape != lam.shape:
        raise ValidationError("g_diag length must match the spectrum")
    if np.any(g < 0) or not np.all(np.isfinite(g)):
        raise ValidationError("noise covariance diagonal must be finite and non-negative")
    if params.beta != 0.0:
        raise AnalysisDomainError("additive-noise floor is derived for beta = 0 only")
    alpha = params.alpha
    if alpha * spectrum.lambda_max >= 2.0:
        raise AnalysisDomainError(
            f"alpha * lambda_max = {alpha * spectrum.lambda_max:.4g} >= 2: no stationary state"
        )

    # the noiseless SE step plus a constant injection, so G = 0 matches run_noiseless exactly
    table, _ = _se_table(lam, alpha, 0.0, 0.0, 1.0, 1.0)
    engine = _se_kernel(table, None, spectrum.lambda_c0[None].copy(), alpha**2 * lam * g)
    losses = 0.5 * _se_run(*engine, params.steps, history=True)[4][0]

    l_inf = 0.5 * float(np.sum(alpha * g / (2.0 - alpha * lam)))
    meta = params.as_dict()
    meta.update(regime="additive", modes=len(spectrum), loss_floor=l_inf)
    return LossTrajectory(losses, None, None, meta), l_inf
