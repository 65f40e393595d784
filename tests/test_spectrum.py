import copy
import dataclasses
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdphaselab import (
    CsvParseError,
    FeatureProblem,
    PowerLawSpec,
    Spectrum,
    ValidationError,
    build_power_law,
    build_torus_problem,
    eigendecompose,
    fit_power_law,
    gamma_for_batch,
    load_spectrum_csv,
    save_spectrum_csv,
)
from conftest import exp_kernel, random_problem


class TestPowerLaw:
    def test_eigenvalue_formula(self):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 4))
        assert spec.lambdas[3] == 0.125  # 4**-1.5 exactly

    def test_differenced_first_moment(self):
        # C_11,0 = (S_1 - S_2)/lambda_1 = (1 - 2**-3)/1
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 4))
        assert spec.c0[0] == pytest.approx(0.875, abs=1e-15)

    def test_differenced_telescopes_to_K(self):
        spec = build_power_law(PowerLawSpec(2.0, 1.2, 3.5, 2.0, 50))
        assert spec.weighted_trace == pytest.approx(3.5, rel=1e-14)

    def test_partial_sums_exact_at_every_k(self):
        kappa, big_k = 2.5, 1.7
        spec = build_power_law(PowerLawSpec(1.0, 1.5, big_k, kappa, 64))
        s = spec.partial_weight_sums()
        k = np.arange(1, 65, dtype=float)
        assert np.allclose(s, big_k * k**-kappa, rtol=1e-13, atol=0)

    def test_pointwise_weights(self):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 2.0, 3.0, 16, mode="pointwise"))
        k = np.arange(1, 17, dtype=float)
        assert np.allclose(spec.lambda_c0, 2.0 * 3.0 * k**-4.0, rtol=1e-15)

    def test_metadata_records_convention(self):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 8, mode="pointwise"))
        assert spec.meta["c0_mode"] == "pointwise"
        assert spec.dataset_size == math.inf

    @pytest.mark.parametrize(
        "bad",
        [
            dict(Lambda=-1.0),
            dict(nu=0.0),
            dict(K=-2.0),
            dict(kappa=0.0),
            dict(modes=1),
            dict(mode="other"),
        ],
    )
    def test_invalid_spec(self, bad):
        args = dict(Lambda=1.0, nu=1.5, K=1.0, kappa=3.0, modes=8, mode="differenced")
        args.update(bad)
        with pytest.raises(ValidationError):
            PowerLawSpec(**args)

    def test_tail_estimates(self):
        spec = PowerLawSpec(1.0, 1.5, 1.0, 3.0, 100)
        tails = spec.tail_estimates()
        # integral bounds: Lambda M^(1-nu)/(nu-1) etc.
        assert tails["trace"] == pytest.approx(100**-0.5 / 0.5, rel=1e-12)
        assert tails["weighted_trace"] == 0.0
        assert PowerLawSpec(1.0, 0.75, 1.0, 0.4, 100).tail_estimates()["trace"] == math.inf


class TestGammaForBatch:
    def test_full_batch_is_noiseless(self):
        assert gamma_for_batch(100, 100) == 0.0
        assert gamma_for_batch(1, 1) == 0.0

    def test_single_sample(self):
        assert gamma_for_batch(100, 1) == 1.0

    def test_hand_value(self):
        # (100 - 10) / (99 * 10)
        assert gamma_for_batch(100, 10) == pytest.approx(90 / 990, rel=1e-15)

    def test_infinite_dataset(self):
        assert gamma_for_batch(math.inf, 8) == 0.125

    def test_errors(self):
        with pytest.raises(ValidationError):
            gamma_for_batch(10, 11)
        with pytest.raises(ValidationError):
            gamma_for_batch(10, 0)
        for size in (math.nan, -math.inf, 2.5, 0.0):
            with pytest.raises(ValidationError, match="dataset_size"):
                gamma_for_batch(size, 4)

    @given(n=st.integers(2, 500), b=st.integers(1, 499))
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing_in_batch(self, n, b):
        if b + 1 > n:
            return
        assert gamma_for_batch(n, b) > gamma_for_batch(n, b + 1)

    @given(n=st.integers(1, 500), b=st.integers(1, 500))
    @settings(max_examples=60, deadline=None)
    def test_range(self, n, b):
        if b > n:
            return
        assert 0.0 <= gamma_for_batch(n, b) <= 1.0


class TestSpectrumType:
    def test_sorts_non_increasing(self):
        # the start is stored as lambda * c0 (taken before the sort); c0 is derived from it
        spec = Spectrum.from_c0([0.5, 1.0, 0.7], [1.0, 2.0, 3.0])
        assert np.array_equal(spec.lambdas, [1.0, 0.7, 0.5])
        assert np.array_equal(spec.lambda_c0, [1.0 * 2.0, 0.7 * 3.0, 0.5 * 1.0])
        assert np.array_equal(spec.c0, spec.lambda_c0 / spec.lambdas)
        np.testing.assert_allclose(spec.c0, [2.0, 3.0, 1.0], rtol=2e-16, atol=0.0)
        assert not spec.c0.flags.writeable

    def test_stores_the_start_once(self):
        assert [f.name for f in dataclasses.fields(Spectrum)] == ["lambdas", "lambda_c0", "dataset_size", "meta"]

    def test_checks_what_the_dynamics_reads(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # lambda * c0 overflows: refused, not a spectrum whose loss is inf from the start
            with pytest.raises(ValidationError, match="finite"):
                Spectrum.from_c0([1e200], [1e200])
            # lambda_c0 / lambda overflows, but every array the dynamics reads is finite
            spec = Spectrum.from_weighted([1e-310], [1.0])
            assert spec.lambda_c0.tolist() == [1.0] and spec.initial_loss == 0.5
            assert spec.c0.tolist() == [math.inf]

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            Spectrum.from_c0([1.0, -0.5], [1.0, 1.0])
        with pytest.raises(ValidationError):
            Spectrum.from_c0([1.0], [-1.0])
        with pytest.raises(ValidationError):
            Spectrum.from_c0([1.0, 0.5], [1.0])
        with pytest.raises(ValidationError):
            Spectrum.from_weighted([0.5, 1.0], [1.0])
        with pytest.raises(ValidationError):
            Spectrum.from_c0([], [])

    def test_immutable(self):
        spec = Spectrum.from_c0([1.0], [1.0])
        with pytest.raises(ValueError):
            spec.lambdas[0] = 2.0


def assert_frozen(obj, names, callers=()):
    """Each array ``names`` of ``obj`` is read-only, and none shares memory with an array of ``callers``,
    each of which the caller can still write."""
    for name in names:
        x = getattr(obj, name)
        assert isinstance(x, np.ndarray) and not x.flags.writeable, name
        assert not any(np.shares_memory(x, c) for c in callers), name
    assert all(c.flags.writeable for c in callers)


class TestCallerArrays:
    """Constructors keep read-only copies of the arrays a caller can still write, and leave the caller's
    arrays as they were; builders hand over the arrays they make without a copy."""

    @pytest.mark.parametrize("how", ["from_c0", "from_weighted", "direct"])
    def test_spectrum(self, how):
        lam, other = np.array([1.0, 0.5, 0.25]), np.array([0.5, 0.25, 1.0])
        spec = Spectrum(lam, other) if how == "direct" else getattr(Spectrum, how)(lam, other)
        assert_frozen(spec, ("lambdas", "lambda_c0"), (lam, other))
        kept = spec.lambdas.copy()
        lam[0] = 5.0
        assert np.array_equal(spec.lambdas, kept)

    def test_feature_problem(self, rng):
        features, w_star, w0 = rng.normal(size=(3, 5)), np.zeros(3), rng.normal(size=3)
        for prob in (FeatureProblem.create(features, w_star, w0), FeatureProblem(features, w_star, w0)):
            assert_frozen(prob, ("features", "w_star", "w0"), (features, w_star, w0))
            hessian = prob.hessian.copy()
            features *= 2.0
            assert np.array_equal(prob.hessian, hessian)  # the cached Hessian still describes the problem

    def test_torus_problem(self):
        n = 16
        kern, w0 = exp_kernel(n), np.random.default_rng(0).normal(size=n)
        tor = build_torus_problem((n,), kern, w0=w0)
        assert_frozen(tor, ("kernel_values", "eigenvalues_grid"), (kern, w0))
        assert_frozen(tor.feature_problem, ("features", "w_star", "w0"), (kern, w0))

    def test_pickle_and_deepcopy_stay_read_only(self, rng):
        tor = build_torus_problem((8,), exp_kernel(8), w0=rng.normal(size=8))
        hessian = tor.feature_problem.hessian  # cached on the instance, so pickled with it
        for other in (pickle.loads(pickle.dumps(tor)), copy.deepcopy(tor)):
            assert_frozen(other, ("kernel_values", "eigenvalues_grid"))
            assert_frozen(other.feature_problem, ("features", "w_star", "w0", "hessian"))
            assert np.array_equal(other.feature_problem.hessian, hessian)

    def test_power_law_keeps_two_arrays(self):
        # lambdas and lambda_c0 alone, handed over without a copy
        modes = 500_000
        tracemalloc.start()
        try:
            spec = build_power_law(PowerLawSpec(1.0, 0.75, 1.0, 0.375, modes))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(spec) == modes and held <= 2.1 * modes * 8


class TestEigendecompose:
    def test_identity_features(self, rng):
        n = 6
        prob = random_problem(rng, n, n)
        prob = prob.create(math.sqrt(n) * np.eye(n), prob.w_star, prob.w0)
        spec, _ = eigendecompose(prob)
        assert np.allclose(spec.lambdas, 1.0, rtol=1e-12)

    def test_zero_deviation(self, rng):
        prob = random_problem(rng, 5, 8)
        prob = prob.create(prob.features, prob.w0, prob.w0)  # w_star = w0
        spec, _ = eigendecompose(prob)
        assert np.all(spec.c0 == 0.0)

    def test_reconstruction_oracle(self, rng):
        prob = random_problem(rng, 8, 8)
        spec, basis = eigendecompose(prob)
        h = prob.hessian
        rebuilt = (basis * spec.lambdas) @ basis.T
        rel = np.linalg.norm(h - rebuilt) / np.linalg.norm(h)
        assert rel <= 1e-10
        assert np.trace(h) == pytest.approx(spec.trace, rel=1e-10)

    def test_rank_one_initial_moments(self, rng):
        prob = random_problem(rng, 6, 9)
        spec, basis = eigendecompose(prob)
        assert np.allclose(spec.c0, (basis.T @ (prob.w0 - prob.w_star)) ** 2, rtol=1e-12)

    def test_zero_matrix_rejected(self):
        from sgdphaselab import FeatureProblem

        prob = FeatureProblem.create(np.zeros((3, 4)), np.zeros(3), np.ones(3))
        with pytest.raises(ValidationError):
            eigendecompose(prob)


class TestTorus:
    def test_delta_kernel_flat_spectrum(self):
        n = 8
        kern = np.zeros(n)
        kern[0] = 1.0
        tor = build_torus_problem((n,), kern)
        assert np.allclose(tor.eigenvalues_grid, n**-0.5, rtol=1e-14)

    def test_single_point_grid(self):
        tor = build_torus_problem((1,), np.array([2.5]))
        assert tor.eigenvalues_grid.shape == (1,)
        assert tor.eigenvalues_grid[0] == pytest.approx(2.5, rel=1e-15)

    def test_dft_matches_dense_eigensolver(self):
        # oracle: dense symmetric eigendecomposition of the circulant kernel matrix
        n = 24
        kern = exp_kernel(n)
        tor = build_torus_problem((n,), kern)
        dense = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                dense[i, j] = kern[(i - j) % n] / math.sqrt(n)
        lam_dense = np.sort(np.linalg.eigvalsh(dense))[::-1]
        lam_dft = np.sort(tor.eigenvalues_grid)[::-1]
        assert np.max(np.abs(lam_dense - lam_dft)) <= 1e-10 * lam_dft[0]

    def test_features_reproduce_circulant_hessian(self):
        n = 16
        tor = build_torus_problem((n,), exp_kernel(n))
        h = tor.feature_problem.hessian
        for i in range(n):
            for j in range(n):
                assert h[i, j] == pytest.approx(exp_kernel(n)[(i - j) % n] / math.sqrt(n), abs=1e-12)

    def test_two_dimensional_grid(self):
        g = (4, 6)
        x0 = 2 * np.pi * np.arange(4) / 4
        x1 = 2 * np.pi * np.arange(6) / 6
        kern = np.exp(-(2 * np.sin(x0 / 2) ** 2)[:, None] - (2 * np.sin(x1 / 2) ** 2)[None, :])
        tor = build_torus_problem(g, kern)
        n = 24
        dense = np.empty((n, n))
        for a in range(n):
            for b in range(n):
                i0, i1 = divmod(a, 6)
                j0, j1 = divmod(b, 6)
                dense[a, b] = kern[(i0 - j0) % 4, (i1 - j1) % 6] / math.sqrt(n)
        lam_dense = np.sort(np.linalg.eigvalsh(dense))[::-1]
        lam_dft = np.sort(tor.eigenvalues_grid.ravel())[::-1]
        assert np.max(np.abs(lam_dense - lam_dft)) <= 1e-10 * lam_dft[0]
        # Fourier-diagonal alignment: <f_k, H f_k> pairs with the k-ordered DFT
        h = tor.feature_problem.hessian
        assert np.allclose(tor.fourier_diag(h), tor.eigenvalues_grid.ravel(), rtol=1e-10, atol=1e-12)

    def test_non_psd_kernel_rejected(self):
        n = 8
        kern = np.zeros(n)
        kern[1] = kern[-1] = 1.0  # pure cosine: DFT takes negative values
        with pytest.raises(ValidationError):
            build_torus_problem((n,), kern)

    def test_asymmetric_kernel_rejected(self):
        kern = np.array([1.0, 0.5, 0.2, 0.1])
        with pytest.raises(ValidationError):
            build_torus_problem((4,), kern)

    def test_spectrum_uses_fourier_moments(self, torus64):
        spec = torus64.spectrum()
        assert spec.weighted_trace == pytest.approx(
            2 * torus64.feature_problem.loss(torus64.feature_problem.w0), rel=1e-10
        )


GRIDS = [(1,), (2,), (7,), (64,), (256,), (4, 6), (3, 4, 5)]


def grid_kernel(grid) -> np.ndarray:
    """The product of per-axis exponential kernels: symmetric and positive definite on the grid."""
    kern = np.ones(())
    for n in grid:
        kern = np.multiply.outer(kern, exp_kernel(n))
    return kern


def dense_dft(grid) -> np.ndarray:
    """F[i, k] = exp(+i k.x_i) / sqrt(N) in extended precision, flattened C-order."""
    two_pi, f = 2 * np.arccos(np.longdouble(-1)), np.ones((1, 1), dtype=np.clongdouble)
    for n in grid:
        angle = two_pi * (np.outer(np.arange(n), np.arange(n)) % n) / n
        f = np.kron(f, (np.cos(angle) + 1j * np.sin(angle)) / np.sqrt(np.longdouble(n)))
    return f


class TestTorusTransforms:
    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_features_are_the_circulant_gather(self, grid):
        # reference: B[o, i] = root_col[(i - o) mod grid] gathered through (ndim, N, N) offsets
        tor = build_torus_problem(grid, grid_kernel(grid))
        root_col = np.fft.ifftn(np.sqrt(np.maximum(tor.eigenvalues_grid, 0.0))).real
        points = np.indices(grid).reshape(len(grid), -1)
        offsets = (points[:, None, :] - points[:, :, None]) % np.array(grid)[:, None, None]
        want = math.sqrt(tor.size) * root_col[tuple(offsets)]
        assert np.array_equal(tor.feature_problem.features, want)

    @pytest.mark.parametrize("grid", [(7,), (64,), (256,), (4, 6), (3, 4, 5)], ids=str)
    def test_transforms_match_an_extended_precision_dft(self, grid):
        # measured against this reference: at most 7.9e-16 of the largest entry on these grids
        # (the dense complex products they replace missed by up to 3.9e-14 at N = 256)
        n = int(np.prod(grid))
        gen = np.random.default_rng(n)
        tor = build_torus_problem(grid, grid_kernel(grid), w0=gen.normal(size=n))
        f = dense_dft(grid)
        c0 = np.abs(np.conj(f).T @ tor.feature_problem.deviation.astype(np.longdouble)) ** 2
        assert np.abs(tor.fourier_c0() - c0).max() <= 2e-15 * c0.max()
        for a in (tor.feature_problem.hessian, gen.normal(size=(n, n))):
            diag = np.real(np.sum(np.conj(f) * (a.astype(np.longdouble) @ f), axis=0))
            got = tor.fourier_diag(a)
            assert got.flags.writeable and np.abs(got - diag).max() <= 2e-15 * np.abs(diag).max()

    @pytest.mark.parametrize("shape", [lambda n: (n * n,), lambda n: (n, n + 1), lambda n: (n * n, 1)],
                             ids=["N^2", "N x (N+1)", "N^2 x 1"])
    def test_fourier_diag_needs_an_n_by_n_matrix(self, shape):
        tor = build_torus_problem((4, 6), grid_kernel((4, 6)))
        with pytest.raises(ValidationError, match="N x N"):
            tor.fourier_diag(np.ones(shape(tor.size)))

    def test_build_peak_is_about_one_feature_matrix(self):
        # the N x N features (8 MB at N = 1024) and their finiteness mask; no N x N Fourier
        # matrix, conjugate or int64 offsets
        n = 1024
        kern, w0 = exp_kernel(n), np.random.default_rng(0).normal(size=n)
        tracemalloc.start()
        try:
            tor = build_torus_problem((n,), kern, w0=w0)
            tor.spectrum()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * tor.feature_problem.features.nbytes


class TestFitPowerLaw:
    def test_exact_recovery(self):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 64))
        fit = fit_power_law(spec, tail_start=8)
        assert fit.nu == pytest.approx(1.5, abs=1e-9)
        assert fit.kappa == pytest.approx(3.0, abs=1e-9)
        assert fit.Lambda == pytest.approx(1.0, rel=1e-9)
        assert fit.K == pytest.approx(1.0, rel=1e-9)

    def test_jittered_recovery(self, rng):
        # synthetic-jitter oracle: 5% multiplicative log-normal noise on the eigenvalues
        k = np.arange(1, 257, dtype=float)
        lam = k**-1.5 * np.exp(rng.normal(0.0, 0.05, k.size))
        lam = np.sort(lam)[::-1]
        spec = Spectrum.from_c0(lam, np.ones_like(lam))
        fit = fit_power_law(spec, tail_start=16)
        assert abs(fit.nu - 1.5) <= 0.05

    def test_short_tail_rejected(self):
        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 16))
        with pytest.raises(ValidationError):
            fit_power_law(spec, tail_start=13)  # only 4 modes left

    def test_zero_weights_rejected(self):
        spec = Spectrum.from_c0(np.arange(20, 0, -1.0), np.zeros(20))
        with pytest.raises(ValidationError):
            fit_power_law(spec, tail_start=2)

    def test_pointwise_lambda_fit_is_exact(self):
        spec = build_power_law(PowerLawSpec(2.0, 1.3, 1.0, 2.0, 64, mode="pointwise"))
        fit = fit_power_law(spec, tail_start=4)
        assert fit.residual <= 1e-18


class TestSpectrumCsv:
    def test_small_file(self, tmp_path):
        p = tmp_path / "spec.csv"
        p.write_text("# comment\nk,lambda,lambda_c\n1,1.0,0.5\n2,0.5,0.25\n3,0.25,0.125\n")
        spec = load_spectrum_csv(p)
        assert len(spec) == 3
        assert spec.lambda_c0[0] == 0.5

    def test_two_column_form(self, tmp_path):
        p = tmp_path / "spec.csv"
        p.write_text("1.0,0.5\n0.5,0.25\n")
        spec = load_spectrum_csv(p)
        assert len(spec) == 2

    def test_negative_eigenvalue_names_row(self, tmp_path):
        p = tmp_path / "spec.csv"
        p.write_text("k,lambda,lambda_c\n1,1.0,0.5\n2,-0.5,0.25\n")
        with pytest.raises(CsvParseError, match="line 3"):
            load_spectrum_csv(p)

    def test_non_numeric_cell_names_line(self, tmp_path):
        p = tmp_path / "spec.csv"
        p.write_text("1,1.0,0.5\n2,abc,0.25\n")
        with pytest.raises(CsvParseError, match="line 2"):
            load_spectrum_csv(p)

    def test_round_trip_bitwise(self, tmp_path):
        spec = build_power_law(PowerLawSpec(1.3, 1.7, 0.9, 2.4, 40))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_spectrum_csv(spec, p1)
        loaded = load_spectrum_csv(p1)
        assert np.array_equal(loaded.lambdas, spec.lambdas)
        assert np.array_equal(loaded.lambda_c0, spec.lambda_c0)
        assert np.array_equal(loaded.c0, spec.c0)
        save_spectrum_csv(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unsorted_file_gets_sorted(self, tmp_path):
        p = tmp_path / "spec.csv"
        p.write_text("1,0.5,0.1\n2,1.0,0.2\n")
        spec = load_spectrum_csv(p)
        assert spec.lambdas[0] == 1.0

    def test_duplicate_eigenvalues_allowed(self, tmp_path):
        p = tmp_path / "spec.csv"
        p.write_text("1,1.0,0.5\n2,1.0,0.2\n3,0.5,0.1\n")
        spec = load_spectrum_csv(p)
        assert len(spec) == 3
        assert np.array_equal(spec.lambda_c0, [0.5, 0.2, 0.1])  # stable order kept
