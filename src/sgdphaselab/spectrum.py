"""Spectral descriptions of quadratic problems.

A quadratic problem is either given explicitly by a feature matrix
(:class:`FeatureProblem`) or summarized by its spectral data
(:class:`Spectrum`): the Hessian eigenvalues ``lambda_k`` together with
the initial diagonal second moments ``C_kk,0`` of the deviation from the
optimum. Everything downstream (simulators, generating functions,
asymptotics) consumes one of these two descriptions.

All types here are immutable; construction normalizes (sorts) and validates. Each type keeps
read-only copies of the arrays a caller could still write, and a read-only array as it is (the
builders here hand theirs over read-only, uncopied). A :class:`Spectrum` stores ``lambda_k`` and
``lambda_k C_kk,0``, the start the dynamics reads, and derives ``C_kk,0``.

A large spectrum also compresses to the Gauss nodes of its two measures
(:func:`_se_nodes`), built once per spectrum and kept on it, with an error
estimate (:func:`_gauss_holds`) of where they stand for the modes; the SE
simulator steps them and the generating functions sum over them there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CsvParseError, ValidationError
from .numerics import gauss_rules
from .serialize import json_ready, report_dict

__all__ = [
    "Spectrum",
    "PowerLawSpec",
    "FeatureProblem",
    "TorusProblem",
    "PowerLawFit",
    "EigenDecomposition",
    "build_power_law",
    "gamma_for_batch",
    "eigendecompose",
    "build_torus_problem",
    "fit_power_law",
    "load_spectrum_csv",
    "save_spectrum_csv",
]

RANK_EPS = 1e-12  # eigenvalues below RANK_EPS * lambda_max count as null modes
_SE_NODES = (32, 12)  # log-lambda bins and Gauss nodes per measure of a compressed spectrum (_se_nodes)
_SE_NODE_ERROR = 1e-14  # largest estimated error of a bin's Gauss rule, relative to its measure's loss


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


class _Frozen:
    """Keeps read-only copies of the arrays that a caller could still write, which their owner
    could change under anything computed from them (a cached Hessian, kept nodes), and a read-only
    array as it is; numpy's pickles drop the flag, so an unpickled instance freezes them again."""

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._freeze([name for name, x in state.items() if isinstance(x, np.ndarray)])

    def _freeze(self, names) -> None:
        for name in names:
            x = getattr(self, name)
            if not isinstance(x, np.ndarray) or x.flags.writeable:
                x = np.array(x, dtype=float)
            object.__setattr__(self, name, _readonly(x))


@dataclass(frozen=True)
class Spectrum(_Frozen):
    """Truncated eigenvalue / initial-moment pair ``{lambda_k, C_kk,0}``.

    It stores ``lambda_k`` and the products ``lambda_k * C_kk,0``, the start the dynamics reads
    (the signal measure, as in the CSV format), so file round-trips are exact; ``c0`` is derived
    from them.
    """

    lambdas: np.ndarray
    lambda_c0: np.ndarray
    dataset_size: float = math.inf
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_c0(cls, lambdas, c0, dataset_size: float = math.inf, meta: dict | None = None) -> "Spectrum":
        lam, c = np.asarray(lambdas, dtype=float), np.asarray(c0, dtype=float)
        if c.shape != lam.shape:
            raise ValidationError("c0 must have the same length as lambdas")
        with np.errstate(over="ignore"):  # an overflow is refused as a non-finite lambda_c0
            return cls.from_weighted(lam, _readonly(lam * c), dataset_size, meta)

    @classmethod
    def from_weighted(cls, lambdas, lambda_c0, dataset_size: float = math.inf, meta: dict | None = None) -> "Spectrum":
        lam, lc = _sorted_desc(np.asarray(lambdas, dtype=float), np.asarray(lambda_c0, dtype=float))
        return cls(lam, lc, float(dataset_size), dict(meta or {}))

    def __post_init__(self):
        self._freeze(("lambdas", "lambda_c0"))
        lam, lc = self.lambdas, self.lambda_c0
        if lam.ndim != 1 or lam.size < 1:
            raise ValidationError("spectrum needs at least one eigenvalue")
        if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
            raise ValidationError("eigenvalues must be finite and strictly positive")
        if np.any(np.diff(lam) > 0):
            raise ValidationError("eigenvalues must be sorted non-increasing")
        if lc.shape != lam.shape:
            raise ValidationError("lambda_c0 must have the same length as lambdas")
        if not np.all(np.isfinite(lc)) or np.any(lc < 0):
            raise ValidationError("initial moments must be finite and non-negative")
        n = self.dataset_size
        if not (math.isfinite(n) and n == int(n) and n >= 1) and n != math.inf:
            raise ValidationError("dataset_size must be a positive integer or inf")

    def __len__(self) -> int:
        return self.lambdas.size

    @property
    def c0(self) -> np.ndarray:
        """The initial moments ``C_kk,0 = lambda_c0 / lambdas`` (read-only; inf where that overflows)."""
        with np.errstate(over="ignore"):
            return _readonly(self.lambda_c0 / self.lambdas)

    @property
    def lambda_max(self) -> float:
        return float(self.lambdas[0])

    @property
    def trace(self) -> float:
        """Tr H of the truncated operator."""
        return float(np.sum(self.lambdas))

    @property
    def sq_trace(self) -> float:
        """Tr H^2 of the truncated operator."""
        return float(np.sum(self.lambdas**2))

    @property
    def weighted_trace(self) -> float:
        """Tr(H C_0) = sum_k lambda_k C_kk,0."""
        return float(np.sum(self.lambda_c0))

    @property
    def c0_trace(self) -> float:
        """Tr C_0 restricted to the truncated modes."""
        return float(np.sum(self.c0))

    @property
    def initial_loss(self) -> float:
        return 0.5 * self.weighted_trace

    def partial_weight_sums(self) -> np.ndarray:
        """S_k = sum_{l >= k} lambda_l C_ll,0 for k = 1..M (index 0-based)."""
        return np.cumsum(self.lambda_c0[::-1])[::-1]

    def _nodes(self, noise: bool):
        """:func:`_se_nodes` of this spectrum, built once per noise flag and kept on this instance,
        so the simulator and the generating functions share one build."""
        cache = self.__dict__.setdefault("_cache", {})
        if ("se_nodes", noise) not in cache:
            cache["se_nodes", noise] = _se_nodes(self, noise)
        return cache["se_nodes", noise]


def _sorted_desc(lam: np.ndarray, col: np.ndarray):
    """Sort eigenvalues non-increasing, carrying a companion column along; sorted copies are
    handed over read-only."""
    if lam.shape == col.shape and np.any(np.diff(lam) > 0):
        order = np.argsort(-lam, kind="stable")
        return _readonly(lam[order]), _readonly(col[order])
    return lam, col


def _heavy_ball(a, beta):
    """The spectral radius of the heavy-ball matrices ``[[1 - a, beta], [-a, beta]]``, their trace
    and the discriminant of their characteristic polynomial."""
    trace = 1.0 - a + beta
    disc = trace * trace - 4.0 * beta
    rho = np.where(disc >= 0.0, 0.5 * (np.abs(trace) + np.sqrt(np.abs(disc))), np.sqrt(np.abs(beta)))
    return rho, trace, disc


def _se_modes(spectrum: Spectrum):
    """The modes as :func:`_se_nodes` gives its points: (lambda, start ``lambda C0``, coupling weight 1)."""
    return spectrum.lambdas, spectrum.lambda_c0, np.ones(len(spectrum))


def _se_nodes(spectrum: Spectrum, noise: bool):
    """The spectrum compressed to Gauss nodes, as the (lambda, start, coupling weight) of each, and
    its bins, as the lowest and highest lambda, the mass of each measure and whether it has rules.

    The loss reads two measures: the signal measure ``sum_k lambda_k C0_k delta(lambda -
    lambda_k)``, through the start, and the counting measure ``sum_k delta(lambda - lambda_k)``,
    through the coupling ``r_k S`` every mode takes. log lambda splits into ``_SE_NODES[0]`` equal
    bins. A bin of at most 2n modes, n = ``_SE_NODES[1]``, stays exact (start ``lambda C0``, weight
    1), and so does one where a measure has no rule that holds (``numerics.gauss_rules`` gives it
    NaN weights, as it mostly does where the measure sits on at most n distinct lambdas of the bin
    or its modes cluster closer than the moments resolve); any other gets the n-node rule of each
    measure, and a bin where the signal measure has no mass no signal node.
    32 bins of 12 nodes pass :func:`_gauss_holds` where 256 bins of 4 did, on about half the
    nodes: 403 for 2000 modes of the power law nu = 1.5, kappa = 3, 501 for 16000, and 537 for
    50000 of nu = 0.75. A signal node starts at its quadrature weight and takes no coupling; a
    noise node starts at 0 and takes its weight times ``r(lambda)``. Both step the usual A(lambda)
    and S sums both; the generating functions' noise seed takes the same weight
    (``genfunc.compute_UV_sequences``). Without ``noise`` (r is None) the noise nodes, which would
    stay 0, are left out, and so is the noise mass, which is the bin's ``sum lambda^2``, as r is
    lambda^2 times a cell's constant.
    """
    bins, n = _SE_NODES
    lam, lc0 = spectrum.lambdas, spectrum.lambda_c0  # sorted non-increasing
    count = _log_bins(lam, bins)
    mass = np.stack([np.add.reduceat(w, np.cumsum(count) - count) for w in (lc0, lam * lam)[: 1 + noise]])
    rules = gauss_rules(lam, [lc0, np.broadcast_to(1.0, lam.shape)][: 1 + noise], count, n)
    big = (count > 2 * n) & np.all([np.isfinite(weights).all(axis=1) for _, weights in rules], axis=0)
    exact, ends = ~np.repeat(big, count), np.cumsum(count)
    rules = [(nodes[big], weights[big]) for nodes, weights in rules]
    (signal, start), (noisy, weight) = [(x[w > 0.0], w[w > 0.0]) for x, w in rules + [(np.empty(0), np.empty(0))]][:2]
    return (np.concatenate([lam[exact], signal, noisy]),
            np.concatenate([lc0[exact], start, 0.0 * weight]),
            np.concatenate([np.ones(np.count_nonzero(exact)), 0.0 * start, weight]),
            (lam[ends - 1], lam[ends - count], mass, big))


def _log_bins(lam, bins: int):
    """How many of the modes ``lam`` (sorted non-increasing) fall in each of ``bins`` equal bins of
    log lambda that holds any: the bins as runs of modes."""
    log = np.log(lam)
    ids = np.minimum((log[0] - log) * (bins / (log[0] - log[-1]) if log[0] > log[-1] else 0.0), bins - 1)
    count = np.bincount(ids.astype(np.intp), minlength=bins)
    return count[count > 0]


def _gauss_holds(bins, alpha, beta, steps):
    """Which (alpha[i], beta[i]) cells, two equal-length arrays, the Gauss nodes of ``bins``
    (:func:`_se_nodes`) step to rounding over ``steps``.

    Over t steps a mode responds as ``mu^(2t)``, mu the larger eigenvalue of the heavy-ball matrix
    ``[[1 - a, beta], [-a, beta]]``. A bin's n-node rule then errs by about Gauss-Legendre's ``c
    kappa^(2n)``, kappa the spread of ``2t log mu`` (phase included) over the bin, times its mass m
    and its slowest ``|mu|^(2t)``. The loss is a sum of packets that evolve freely: the start,
    whose bins hold their signal mass, and each step's noise, whose bins hold ``sum lambda^2`` (r
    is lambda^2 times a cell's constant). A packet is at least the largest ``m' |mu'|^(2t)`` of its
    bins, mu' at the bin's fastest lambda, and PSD noise (``simulate._psd``) only adds to the loss.
    So a cell holds when at no share ``x = t/steps``, taken on a grid of ratio 2^(1/4) from one
    step to the end, any bin's ``c (x kappa)^(2n) m |mu|^(2t)`` exceeds ``_SE_NODE_ERROR`` times
    that largest term of its measure. The estimate's log is concave in x, so it has one peak,
    which the grid samples.
    """
    n = _SE_NODES[1]
    lo, hi, mass, rules = bins
    log_c = math.log(math.factorial(n) ** 4 / ((2 * n + 1) * math.factorial(2 * n) ** 3))
    x = 2.0 ** -(np.arange(math.ceil(4 * math.log2(max(steps, 1))) + 1)[:, None] / 4)
    holds = np.zeros(alpha.size, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_m = np.log(mass)[:, None]  # -inf for a bin without mass; (measures, 1, bins)
        for i in range(alpha.size):  # a (measures, shares, bins) array a cell, so the scratch stays small
            rho, trace, disc = _heavy_ball(alpha[i] * np.stack([lo, hi]), beta[i])
            phase = 2.0 * steps * np.arctan2(np.sqrt(np.maximum(-disc, 0.0)), trace)  # pi for a negative root
            log = 2.0 * steps * np.log(rho)
            kappa = np.hypot(log[1] - log[0], phase[1] - phase[0])[rules]
            packet = (log_m + x * log.min(axis=0)).max(axis=2, keepdims=True)
            error = log_c + 2 * n * np.log(x * kappa) + log_m[..., rules] + x * log.max(axis=0)[rules] - packet
            holds[i] = np.all(error <= math.log(_SE_NODE_ERROR))  # NaN (an overflow) does not hold
    return holds


@dataclass(frozen=True)
class PowerLawSpec:
    """Parameters of a synthetic power-law problem.

    Eigenvalues decay as ``Lambda * k**-nu``; the partial sums
    ``S_k = sum_{l>=k} lambda_l C_ll,0`` decay as ``K * k**-kappa``.
    ``mode`` selects how the per-mode moments realize that law:
    ``"differenced"`` makes every partial sum exact, ``"pointwise"`` sets
    ``lambda_k C_kk,0 = K * kappa * k**-(kappa+1)`` (the experimental recipe).
    """

    Lambda: float
    nu: float
    K: float
    kappa: float
    modes: int
    mode: str = "differenced"

    def __post_init__(self):
        for name in ("Lambda", "nu", "K", "kappa"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValidationError(f"{name} must be a positive real, got {v!r}")
        if not (isinstance(self.modes, int) and self.modes >= 2):
            raise ValidationError(f"modes must be an integer >= 2, got {self.modes!r}")
        if self.mode not in ("differenced", "pointwise"):
            raise ValidationError(f"mode must be 'differenced' or 'pointwise', got {self.mode!r}")

    @property
    def zeta(self) -> float:
        return self.kappa / self.nu

    def tail_estimates(self) -> dict:
        """Integral bounds on what the truncation at ``modes`` discards.

        Upper-bounds the dropped parts of Tr H, Tr H^2 and Tr(H C_0) by
        integrating the fitted power laws from ``modes`` to infinity.
        """
        M, L, nu, K, kap = self.modes, self.Lambda, self.nu, self.K, self.kappa
        trace_tail = math.inf if nu <= 1 else L * M ** (1 - nu) / (nu - 1)
        sq_tail = math.inf if nu <= 0.5 else L**2 * M ** (1 - 2 * nu) / (2 * nu - 1)
        # differenced mode telescopes the full weighted trace into M modes
        weighted_tail = 0.0 if self.mode == "differenced" else K * M**-kap
        return {"trace": trace_tail, "sq_trace": sq_tail, "weighted_trace": weighted_tail}


def build_power_law(spec: PowerLawSpec) -> Spectrum:
    """Materialize a truncated power-law spectrum from its parameters."""
    k = np.arange(1, spec.modes + 1, dtype=float)
    lam = spec.Lambda * k**-spec.nu
    if spec.mode == "differenced":
        s = spec.K * k**-spec.kappa
        lc = np.empty_like(s)
        lc[:-1] = s[:-1] - s[1:]
        lc[-1] = s[-1]  # S_{M+1} = 0: the last mode absorbs the remaining mass
    else:
        lc = spec.K * spec.kappa * k ** -(spec.kappa + 1.0)
    lam, lc = _readonly(lam), _readonly(lc)  # ours: handed over, not copied
    meta = {
        "source": "power-law",
        "c0_mode": spec.mode,
        "Lambda": spec.Lambda,
        "nu": spec.nu,
        "K": spec.K,
        "kappa": spec.kappa,
        "modes": spec.modes,
        "tail_estimates": spec.tail_estimates(),
    }
    return Spectrum.from_weighted(lam, lc, dataset_size=math.inf, meta=meta)


def gamma_for_batch(dataset_size: float, batch: int) -> float:
    """Sampling-noise amplitude for batches of size ``batch`` drawn without replacement.

    Finite datasets give (N - b) / ((N - 1) b); infinite datasets give 1 / b.
    A full batch (b = N) has no sampling noise, so gamma is exactly 0 there,
    which also covers the N = 1 case where the finite-N form is 0/0.
    """
    if not (isinstance(batch, (int, np.integer)) and batch >= 1):
        raise ValidationError(f"batch size must be an integer >= 1, got {batch!r}")
    n = float(dataset_size)
    if n == math.inf:
        return 1.0 / batch
    if not (math.isfinite(n) and n == int(n) and n >= 1):
        raise ValidationError(f"dataset_size must be a positive integer or inf, got {dataset_size!r}")
    if batch > n:
        raise ValidationError(f"batch size {batch} exceeds dataset size {int(n)}")
    if batch == n:
        return 0.0
    return (n - batch) / ((n - 1.0) * batch)


@dataclass(frozen=True)
class FeatureProblem(_Frozen):
    """Explicit quadratic problem: features ``psi(x_i)`` as columns of a d x N matrix.

    The Hessian is H = (1/N) Psi Psi^T; the deviation ``w0 - w_star`` seeds
    the initial second moments.
    """

    features: np.ndarray  # (d, N), column i = psi(x_i)
    w_star: np.ndarray
    w0: np.ndarray

    @classmethod
    def create(cls, features, w_star, w0) -> "FeatureProblem":
        return cls(features, w_star, w0)

    def __post_init__(self):
        self._freeze(("features", "w_star", "w0"))
        f = self.features
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
            raise ValidationError("features must be a d x N matrix with d, N >= 1")
        d = f.shape[0]
        if self.w_star.shape != (d,) or self.w0.shape != (d,):
            raise ValidationError("w_star and w0 must be d-vectors matching the feature dimension")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(self.w_star)) and np.all(np.isfinite(self.w0))):
            raise ValidationError("feature problem entries must be finite")

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def dataset_size(self) -> int:
        return self.features.shape[1]

    @cached_property
    def hessian(self) -> np.ndarray:
        h = self.features @ self.features.T / self.dataset_size
        return _readonly(0.5 * (h + h.T))

    @property
    def deviation(self) -> np.ndarray:
        return self.w0 - self.w_star

    def initial_second_moment(self) -> np.ndarray:
        dw = self.deviation
        return np.outer(dw, dw)

    def loss(self, w: np.ndarray) -> float:
        dw = np.asarray(w, dtype=float) - self.w_star
        return 0.5 * float(dw @ self.hessian @ dw)


class EigenDecomposition(NamedTuple):
    spectrum: Spectrum
    basis: np.ndarray  # (d, M) orthonormal eigenvectors, columns sorted with the spectrum


def eigendecompose(problem: FeatureProblem) -> EigenDecomposition:
    """Symmetric eigendecomposition of H restricted to its numerically nonzero part.

    Returns ``(spectrum, basis)``. Modes with ``lambda <= RANK_EPS * lambda_max`` are dropped;
    the start ``spectrum.c0`` is the rank-one projections ``C_kk,0 = <u_k, w0 - w_star>^2``.
    """
    h = problem.hessian
    eigvals, eigvecs = np.linalg.eigh(h)
    lam_max = float(eigvals[-1]) if eigvals.size else 0.0
    if lam_max <= 0.0:
        raise ValidationError("Hessian has no positive eigenvalues (zero matrix?)")
    keep = eigvals > RANK_EPS * lam_max
    lam = _readonly(eigvals[keep][::-1])
    basis = eigvecs[:, keep][:, ::-1]
    c0 = (basis.T @ problem.deviation) ** 2
    spectrum = Spectrum.from_c0(
        lam, c0, dataset_size=problem.dataset_size, meta={"source": "eigendecomposition"}
    )
    return EigenDecomposition(spectrum, _readonly(basis))


@dataclass(frozen=True)
class TorusProblem(_Frozen):
    """Regular-grid problem with a translation-invariant kernel.

    The Hessian is circulant, so its eigenvalues are the (scaled) DFT of the kernel samples and
    its eigenvectors are the Fourier modes ``f_k(x) = exp(+i k.x) / sqrt(N)`` (C order), which
    FFTs apply: no N x N Fourier matrix is formed. Degenerate eigenvalue pairs (k and -k) make the
    per-mode diagonal well-defined only in the complex Fourier basis, so diagonals are extracted
    here rather than through :func:`eigendecompose`.
    """

    grid: tuple
    kernel_values: np.ndarray       # K_i on the grid
    eigenvalues_grid: np.ndarray    # DFT(K) / sqrt(N), grid-shaped, k-indexed
    feature_problem: FeatureProblem

    def __post_init__(self):
        self._freeze(("kernel_values", "eigenvalues_grid"))

    @property
    def size(self) -> int:
        return int(np.prod(self.grid))

    def fourier_diag(self, matrix: np.ndarray) -> np.ndarray:
        """Diagonal <f_k, A f_k> in the complex Fourier eigenbasis (real output): ``fftn`` over
        A's row axes of ``ifftn`` over its column axes, A seen as a ``grid + grid`` array."""
        a, d = np.asarray(matrix), len(self.grid)
        if a.shape != (self.size, self.size):
            raise ValidationError(f"fourier_diag needs an N x N matrix (N = {self.size}), got shape {a.shape}")
        spec = np.fft.fftn(np.fft.ifftn(a.reshape(self.grid + self.grid), axes=range(d, 2 * d)), axes=range(d))
        return np.diagonal(spec.reshape(a.shape)).real.copy()

    def fourier_c0(self) -> np.ndarray:
        """Initial moments |<f_k, w0 - w_star>|^2 per Fourier mode: ``|fftn(w0 - w_star)|^2 / N``."""
        coeffs = np.fft.fftn(self.feature_problem.deviation.reshape(self.grid))
        return np.abs(coeffs.ravel()) ** 2 / self.size

    def spectrum(self) -> Spectrum:
        """Sorted spectrum with Fourier-basis initial moments; null modes dropped."""
        lam = self.eigenvalues_grid.ravel()
        c0 = self.fourier_c0()
        keep = lam > RANK_EPS * float(lam.max())
        return Spectrum.from_c0(
            _readonly(lam[keep]), c0[keep], dataset_size=self.size,
            meta={"source": "torus", "grid": list(self.grid)},
        )


def build_torus_problem(grid: Sequence[int], kernel_values, w0=None, w_star=None) -> TorusProblem:
    """Build the circulant problem for kernel samples ``K(x_i - x_0)`` on a grid.

    Eigenvalues are ``DFT(K)[k] / sqrt(N)``; an explicit real feature matrix
    with exactly this circulant Hessian is synthesized (the circulant square
    root scaled by sqrt(N)) so the exact-noise simulators can run on it.
    """
    grid = tuple(int(n) for n in grid)
    if len(grid) < 1 or any(n < 1 for n in grid):
        raise ValidationError("grid must list positive per-dimension sizes")
    kern = np.asarray(kernel_values, dtype=float)
    if kern.shape != grid:
        raise ValidationError(f"kernel_values shape {kern.shape} does not match grid {grid}")
    if not np.all(np.isfinite(kern)):
        raise ValidationError("kernel values must be finite")
    # symmetry under i -> -i (indexwise modular reflection)
    reflected = np.roll(np.flip(kern), 1, axis=tuple(range(kern.ndim)))
    if not np.allclose(kern, reflected, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(kern).max()))):
        raise ValidationError("kernel must be symmetric under index reflection i -> -i")

    n_total = int(np.prod(grid))
    spec = np.fft.fftn(kern)
    lam = spec.real / math.sqrt(n_total)
    lam_max = float(lam.max())
    if lam_max <= 0.0:
        raise ValidationError("kernel DFT has no positive coefficient")
    if float(lam.min()) < -1e-10 * lam_max:
        raise ValidationError(
            f"kernel is not positive semi-definite: min DFT coefficient {lam.min():.3e}"
        )
    lam_clipped = np.maximum(lam, 0.0)

    # circulant square root: first "column" ifftn(sqrt(lam)), then Psi = sqrt(N) * B, where
    # B[o, i] = root_col[(i - o) mod grid] is the window at n - o of root_col tiled twice per axis
    root_col = np.fft.ifftn(np.sqrt(lam_clipped)).real
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(root_col, (2,) * len(grid)), grid)
    features = (math.sqrt(n_total) * windows[(slice(None, 0, -1),) * len(grid)]).reshape(n_total, n_total)

    if w_star is None:
        w_star = np.zeros(n_total)
    if w0 is None:
        w0 = np.zeros(n_total)
    problem = FeatureProblem.create(_readonly(features), w_star, w0)
    return TorusProblem(grid, kern, _readonly(lam), problem)


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares power-law exponents fitted to a spectrum tail."""

    Lambda: float
    nu: float
    K: float
    kappa: float
    tail_start: int
    residual: float           # mean squared log-log residual of the eigenvalue fit
    residual_weights: float   # same for the partial-sum fit

    @property
    def zeta(self) -> float:
        return self.kappa / self.nu

    def as_dict(self) -> dict:
        return report_dict(self) | {"zeta": json_ready(self.zeta)}


def _loglog_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """OLS fit log y = a + b log x; returns (exp(a), -b, mean sq residual)."""
    lx, ly = np.log(x), np.log(y)
    b, a = np.polyfit(lx, ly, 1)
    resid = ly - (a + b * lx)
    return math.exp(a), -b, float(np.mean(resid**2))


def fit_power_law(spectrum: Spectrum, tail_start: int) -> PowerLawFit:
    """Fit ``Lambda k**-nu`` to the eigenvalues and ``K k**-kappa`` to the
    partial sums ``S_k``, using modes ``k >= tail_start`` (1-based)."""
    m = len(spectrum)
    if not (1 <= tail_start <= m):
        raise ValidationError(f"tail_start {tail_start} outside 1..{m}")
    if m - tail_start + 1 < 8:
        raise ValidationError(f"tail too short: {m - tail_start + 1} modes, need >= 8")
    k = np.arange(tail_start, m + 1, dtype=float)
    lam = spectrum.lambdas[tail_start - 1 :]
    s = spectrum.partial_weight_sums()[tail_start - 1 :]
    if np.any(lam <= 0) or np.any(s <= 0):
        raise ValidationError("tail contains non-positive eigenvalues or partial sums; cannot take logs")
    big_lambda, nu, res_l = _loglog_line(k, lam)
    big_k, kappa, res_s = _loglog_line(k, s)
    if nu <= 0:
        raise ValidationError(f"fitted nu = {nu:.4g} is not positive; tail is not decaying")
    return PowerLawFit(big_lambda, nu, big_k, kappa, tail_start, res_l, res_s)


# CSV format: optional header "k,lambda,lambda_c"; rows "k, lambda_k, lambda_k*C_kk,0"
# (the k column may be omitted); '#' starts a comment; UTF-8.

def save_spectrum_csv(spectrum: Spectrum, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,lambda,lambda_c\n")
        for i, (lam, lc) in enumerate(zip(spectrum.lambdas, spectrum.lambda_c0), start=1):
            fh.write(f"{i},{float(lam)!r},{float(lc)!r}\n")


def load_spectrum_csv(path) -> Spectrum:
    """Parse, validate and sort a spectrum file; bad cells report their line number."""
    lambdas: list[float] = []
    weights: list[float] = []
    first_content = True
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read spectrum file {path}: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            cells = [c.strip() for c in line.split(",")]
            if first_content and not any(_is_number(c) for c in cells):  # a numeric cell makes a row data
                first_content = False
                expected = {"k", "lambda", "lambda_c"}
                if not set(c.lower() for c in cells) <= expected:
                    raise CsvParseError(f"unrecognized header {cells!r}", lineno)
                continue
            first_content = False
            if len(cells) == 3:
                cells = cells[1:]  # leading mode index is informational
            if len(cells) != 2:
                raise CsvParseError(f"expected 2 or 3 columns, got {len(cells)}", lineno)
            try:
                lam, lc = float(cells[0]), float(cells[1])
            except ValueError:
                raise CsvParseError(f"non-numeric cell in {cells!r}", lineno) from None
            if not (math.isfinite(lam) and math.isfinite(lc)):
                raise CsvParseError(f"non-finite value in {cells!r}", lineno)
            if lam <= 0:
                raise CsvParseError(f"eigenvalue must be positive, got {lam!r}", lineno)
            if lc < 0:
                raise CsvParseError(f"lambda*C must be non-negative, got {lc!r}", lineno)
            lambdas.append(lam)
            weights.append(lc)
    if not lambdas:
        raise ValidationError(f"no spectrum rows found in {path}")
    return Spectrum.from_weighted(_readonly(lambdas), _readonly(weights), meta={"source": str(path)})


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
