import inspect
import warnings

import numpy as np
import pytest

from bergband import band_solver
from bergband.geometry import CellGeometry, build_cell_quadrature, compress
from bergband.pipeline import RunConfig
from bergband.symbols import RadialProfile, TargetSpec, synthesize_profile
from bergband.disc_spectrum import compute_disc_spectrum
from bergband.quasi_bergman import build_basis
from bergband.band_solver import (
    compute_bands,
    toeplitz_matrix,
    essential_spectrum,
    gap_report,
    h_convergence_study,
    almost_eigen_check,
)


@pytest.fixture(scope="module")
def small_bands(k3_profile):
    """Coarse band structure shared by the cheaper assertions."""
    cell = CellGeometry(R0=0.35, h=0.05)
    etas = np.linspace(-np.pi, np.pi, 9)
    return compute_bands(cell, k3_profile, etas, K_modes=10, N_keep=6)


class TestToeplitzMatrix:
    def test_zero_profile(self, cell_mid, quad_mid):
        basis = build_basis(cell_mid, 0.0, 4, quad_mid)
        A = toeplitz_matrix(cell_mid, RadialProfile(coeffs=(0.0,)), basis)
        assert np.max(np.abs(A)) == 0.0

    def test_hermitian(self, cell_mid, quad_mid, k3_profile):
        basis = build_basis(cell_mid, 1.2, 8, quad_mid)
        A = toeplitz_matrix(cell_mid, k3_profile, basis)
        assert np.max(np.abs(A - A.conj().T)) <= 1e-12

    def test_rayleigh_bound(self, cell_mid, quad_mid, k3_profile):
        basis = build_basis(cell_mid, 1.2, 8, quad_mid)
        A = toeplitz_matrix(cell_mid, k3_profile, basis)
        assert np.max(np.abs(np.linalg.eigvalsh(A))) <= k3_profile.sup_norm() + 1e-8

    def test_cell_mismatch_rejected(self, cell_mid, quad_mid, k3_profile):
        basis = build_basis(cell_mid, 0.0, 4, quad_mid)
        other = CellGeometry(R0=0.3, h=0.05)
        with pytest.raises(ValueError):
            toeplitz_matrix(other, k3_profile, basis)


class TestComputeBands:
    def test_zero_profile_zero_bands(self):
        cell = CellGeometry(R0=0.35, h=0.05)
        bands = compute_bands(
            cell, RadialProfile(coeffs=(0.0,)), [0.0, 1.0], K_modes=3, N_keep=4,
            n_r=8, n_t=16, n_strip=6,
        )
        assert np.max(np.abs(bands.lambdas)) == 0.0

    def test_rows_real_and_ordered(self, small_bands):
        assert small_bands.lambdas.dtype == np.float64
        mods = np.abs(small_bands.lambdas)
        assert np.all(np.diff(mods, axis=1) <= 1e-12)

    def test_band_symmetry_in_eta(self, small_bands):
        # lambda_n(-eta) = lambda_n(eta): complex conjugation maps the
        # eta-fiber to the (-eta)-fiber and leaves the real symbol fixed.
        lams = small_bands.lambdas
        assert np.allclose(lams, lams[::-1], atol=1e-8)

    @pytest.mark.parametrize(
        "grid, solves",
        [(np.linspace(-np.pi, np.pi, 65), 33), ([-0.7, 0.7], 1)],
        ids=["symmetric-65", "pair"],
    )
    def test_fold_solves_each_abs_eta_once(self, monkeypatch, k3_profile, grid, solves):
        # linspace(-pi, pi, 65) is symmetric only to rounding; its rows at
        # eta and -eta are still one fiber, copied bitwise
        calls = []
        solve = band_solver._band_eigenvalues

        def counted(A, N_keep):
            calls.append(N_keep)
            return solve(A, N_keep)

        monkeypatch.setattr(band_solver, "_band_eigenvalues", counted)
        bands = compute_bands(CellGeometry(R0=0.35, h=0.05), k3_profile, grid, N_keep=6)
        assert len(calls) == solves
        assert np.array_equal(bands.etas, np.asarray(grid, dtype=float))
        assert bands.lambdas.shape == (len(grid), 6)
        assert np.array_equal(bands.lambdas, bands.lambdas[::-1])

    def test_single_fiber_skips_expansion(self, monkeypatch, k3_profile):
        # a grid that folds to one eta is one product and one eigensolve:
        # sending it through the moment kernel made the 24-h study 15% slower
        def forbidden(*args, **kwargs):
            raise AssertionError("the single-fiber path must not expand the twist")

        monkeypatch.setattr(band_solver, "_chebyshev_moments", forbidden)
        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        cell = CellGeometry(R0=0.35, h=0.05)
        single = compute_bands(cell, k3_profile, [0.7])
        pair = compute_bands(cell, k3_profile, [-0.7, 0.7])
        assert np.array_equal(pair.lambdas, np.tile(single.lambdas, (2, 1)))
        rows = h_convergence_study(k3_profile, [0.1, 0.05], eta=0.0)
        assert [row["h"] for row in rows] == [0.1, 0.05]

    def test_band_holder_continuity(self, small_bands):
        # Adjacent-grid increments bounded by C sqrt(d_eta) with C fitted
        # from the coarse grid itself.
        d_eta = np.diff(small_bands.etas)[0]
        incr = np.max(np.abs(np.diff(small_bands.lambdas, axis=0)))
        C = incr / np.sqrt(d_eta)
        fine = compute_bands(
            small_bands.cell, small_bands.profile,
            np.linspace(-np.pi, np.pi, 33), K_modes=10, N_keep=6,
        )
        incr_fine = np.max(np.abs(np.diff(fine.lambdas, axis=0)))
        assert incr_fine <= 1.25 * C * np.sqrt(np.diff(fine.etas)[0])

    @pytest.mark.parametrize(
        "R0, K, grid",
        [
            pytest.param(0.35, K, grid, id=f"{grid}-{K}")
            for grid in ("symmetric", "one-sided", "single", "negative", "mixed")
            for K in (10, 16, 24)
        ]
        # R0 = 0.49 needs the most Chebyshev terms (M = 17)
        + [pytest.param(0.49, K, "symmetric", id=f"R0-0.49-symmetric-{K}") for K in (10, 24)]
        + [pytest.param(0.35, 10, "symmetric-33", id="symmetric-33-10")],
    )
    def test_matches_per_fiber_basis(self, k3_profile, R0, K, grid):
        # One basis twisted onto every fiber spans the same space as the
        # basis orthonormalized at that fiber, so the bands agree.  On the
        # negative and mixed grids compute_bands solves at |eta| only, so the
        # reference built at each negative eta checks lambda(-eta) = lambda(eta).
        etas = {
            "symmetric": np.linspace(-np.pi, np.pi, 9),
            "one-sided": np.linspace(0.3, 2.9, 7),
            "single": [1.1],
            "negative": np.linspace(-2.9, -0.3, 7),
            "mixed": [-2.0, -0.4, 1.1],
            "symmetric-33": np.linspace(-np.pi, np.pi, 33),
        }[grid]
        cell = CellGeometry(R0=R0, h=0.02)
        bands = compute_bands(cell, k3_profile, etas, K_modes=K)
        quad = build_cell_quadrature(cell, *band_solver._quadrature_orders(K, R0))
        for i, eta in enumerate(etas):
            basis = build_basis(cell, eta, K, quad)
            ev = np.linalg.eigvalsh(toeplitz_matrix(cell, k3_profile, basis))
            ref = ev[np.argsort(-np.abs(ev), kind="stable")][: bands.N_keep]
            assert np.max(np.abs(bands.lambdas[i] - ref)) <= 1e-12
            assert bands.dim_eff == basis.dim_eff

    def test_real_nodes_untwisted(self, k3_profile):
        # n_t = 2 (angles 0 and pi) and n_strip = 1 put every node on the
        # real axis, where the twist weight is 1 for every eta: each fiber
        # is the eta0 fiber.
        cell = CellGeometry(R0=0.35, h=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bands = compute_bands(
                cell, k3_profile, [-1.0, 0.0, 1.0], K_modes=2, N_keep=3,
                n_r=4, n_t=2, n_strip=1,
            )
        assert np.all(bands.lambdas == bands.lambdas[1])

    @pytest.mark.parametrize("K, R0", [(14, 0.35), (10, 0.45)])
    def test_default_quadrature_resolves_basis(self, k3_profile, K, R0):
        # the derived rule against twice its orders; the fixed 24/48/16
        # rule is off by 9.6e-3 and 6.8e-4 here
        cell = CellGeometry(R0=R0, h=0.05)
        etas = np.linspace(-np.pi, np.pi, 5)
        bands = compute_bands(cell, k3_profile, etas, K_modes=K, N_keep=4)
        n_r, n_t, n_strip = band_solver._quadrature_orders(K, R0)
        ref = compute_bands(
            cell, k3_profile, etas, K_modes=K, N_keep=4,
            n_r=2 * n_r, n_t=2 * n_t, n_strip=2 * n_strip,
        )
        assert np.max(np.abs(bands.lambdas - ref.lambdas)) <= 1e-5

    def test_default_quadrature_floor(self, k3_profile):
        # K 10, R0 0.35 stays on the 24/48/16 rule, bitwise
        cell = CellGeometry(R0=0.35, h=0.05)
        etas = np.linspace(-np.pi, np.pi, 9)
        bands = compute_bands(cell, k3_profile, etas, K_modes=10)
        fixed = compute_bands(cell, k3_profile, etas, K_modes=10, n_r=24, n_t=48, n_strip=16)
        assert np.array_equal(bands.lambdas, fixed.lambdas)

    def test_odd_angle_count_rejected(self, k3_profile):
        # an odd n_t has no mirror rule; the message is one line naming n_t
        with pytest.raises(ValueError, match="n_t=3") as err:
            compute_bands(CellGeometry(0.35, 0.05), k3_profile, [0.0], n_t=3)
        assert "\n" not in str(err.value)

    def test_empty_grid_rejected(self, k3_profile):
        with pytest.raises(ValueError):
            compute_bands(CellGeometry(0.35, 0.05), k3_profile, [])

    def test_nan_eta_rejected(self, k3_profile):
        with pytest.raises(ValueError, match=r"within \[-pi, pi\]"):
            compute_bands(CellGeometry(0.35, 0.05), k3_profile, [0.0, np.nan])


class TestChebyshevMoments:
    @pytest.mark.parametrize(
        "n",
        [
            10,  # the size of the n_r 4, n_t 2, n_strip 1 rule: below one chunk
            2 * band_solver._MOMENT_CHUNK,
            2816,  # the size of the default rule: a partial last chunk
        ],
        ids=["below-chunk", "chunk-multiple", "default-rule"],
    )
    @pytest.mark.parametrize("M", [1, 6])
    def test_matches_per_row_compress(self, rng, n, M):
        # n complex samples per column are 2 n real columns of R
        d = min(n, 9)
        Q, _ = np.linalg.qr(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
        w = rng.uniform(0.5, 1.5, n)
        b = rng.uniform(-1.0, 1.0, n)
        x = rng.uniform(-1.0, 1.0, n)
        R = np.ascontiguousarray(Q.T).view(float)
        moments = band_solver._chebyshev_moments(
            R, np.repeat(w, 2), np.repeat(b, 2), np.repeat(x, 2), M
        )

        T = np.polynomial.chebyshev.chebvander(x, M).T
        ref = np.array(
            [compress(w * b * Tm, Q).real.ravel() for Tm in T]
            + [compress(w * Tm, Q).real.ravel() for Tm in T]
        )
        assert moments.dtype == np.float64
        assert moments.shape == ref.shape
        assert np.max(np.abs(moments - ref)) <= 1e-13 * np.max(np.abs(ref))
        stack = moments.reshape(-1, d, d)
        assert np.array_equal(stack, stack.transpose(0, 2, 1))

    def test_chunk_is_no_option(self):
        # the chunk size is an implementation constant, not a setting
        assert list(inspect.signature(compute_bands).parameters) == [
            "cell", "profile", "eta_grid", "K_modes", "N_keep", "n_r", "n_t", "n_strip",
        ]
        assert [p.default for p in inspect.signature(compute_bands).parameters.values()][3:] == [
            10, 8, None, None, None,
        ]
        assert not any("chunk" in name.lower() for name in RunConfig.__dataclass_fields__)


class TestEssentialSpectrum:
    def test_zero_profile_single_zero_component(self):
        cell = CellGeometry(R0=0.35, h=0.05)
        bands = compute_bands(
            cell, RadialProfile(coeffs=(0.0,)), [0.0], K_modes=2, N_keep=3,
            n_r=8, n_t=16, n_strip=6,
        )
        assert essential_spectrum(bands) == [(0.0, 0.0)]

    def test_components_sorted_disjoint(self, small_bands):
        comps = essential_spectrum(small_bands)
        for (a_lo, a_hi), (b_lo, b_hi) in zip(comps, comps[1:]):
            assert a_hi < b_lo

    def test_zero_cluster_always_present(self, small_bands):
        comps = essential_spectrum(small_bands)
        assert any(lo <= 0.0 <= hi for lo, hi in comps)

    def test_merge_monotone(self, small_bands):
        n_fine = len(essential_spectrum(small_bands, merge_tol=1e-6))
        n_coarse = len(essential_spectrum(small_bands, merge_tol=0.05))
        assert n_coarse <= n_fine

    def test_grid_order_irrelevant(self, k3_profile):
        # the default merge tolerance differences the rows in eta order: in
        # grid order a permuted grid inflated it from 3.2e-4 to 6.7e-3
        cell = CellGeometry(R0=0.35, h=0.05)
        etas = np.linspace(-np.pi, np.pi, 65)
        perm = np.random.default_rng(0).permutation(etas.size)
        sorted_bands = compute_bands(cell, k3_profile, etas)
        permuted = compute_bands(cell, k3_profile, etas[perm])
        assert np.array_equal(permuted.lambdas, sorted_bands.lambdas[perm])
        assert essential_spectrum(permuted) == essential_spectrum(sorted_bands)

    def test_target_components_present(self, small_bands):
        comps = essential_spectrum(small_bands)
        # three components near targets plus the 0-cluster
        assert len(comps) >= 4
        for x in (0.3, 0.2, 0.1):
            assert min(
                abs(x - np.clip(x, lo, hi)) for lo, hi in comps
            ) < 0.05


class TestGapReport:
    def test_exact_hits(self):
        spec = TargetSpec(targets=(0.3, 0.2), epsilon=0.01, delta=0.05)
        report = gap_report([(0.0, 0.0), (0.2, 0.2), (0.3, 0.3)], spec)
        assert report.verdict
        assert all(t["distance"] == 0.0 for t in report.target_hits)

    def test_separation_geometry(self):
        spec = TargetSpec(targets=(0.3, 0.2, 0.1), epsilon=0.01, delta=0.05)
        comps = [(0.0, 0.0), (0.1, 0.1), (0.2, 0.2), (0.3, 0.3)]
        report = gap_report(comps, spec)
        assert report.verdict
        assert report.delta_achieved == pytest.approx(0.1)

    def test_failed_separation(self):
        spec = TargetSpec(targets=(0.3,), epsilon=0.01, delta=0.05)
        report = gap_report([(0.0, 0.0), (0.27, 0.27), (0.3, 0.3)], spec)
        assert not report.verdict
        assert report.delta_achieved == pytest.approx(0.03)

    def test_missed_target(self):
        spec = TargetSpec(targets=(0.5,), epsilon=0.01, delta=0.05)
        report = gap_report([(0.0, 0.1)], spec)
        assert not report.verdict
        assert report.target_hits[0]["distance"] == pytest.approx(0.4)

    def test_gaps_complement_components(self):
        spec = TargetSpec(targets=(0.3,), epsilon=0.01, delta=0.02)
        report = gap_report([(0.0, 0.05), (0.1, 0.12), (0.3, 0.31)], spec)
        assert report.gaps == ((0.05, 0.1), (0.12, 0.3))


class TestHConvergence:
    def test_error_decreases(self, k3_profile):
        rows = h_convergence_study(
            k3_profile, [0.1, 0.05], eta=0.0, n_track=3, K_modes=8,
        )
        e0 = max(rows[0]["errors"])
        e1 = max(rows[1]["errors"])
        assert e1 < e0

    def test_single_h_single_row(self, k3_profile):
        rows = h_convergence_study(k3_profile, [0.1], eta=0.0, n_track=2, K_modes=5)
        assert len(rows) == 1

    def test_tracked_tail_matches_disc_tail(self, k3_profile):
        # The 5th tracked value converges to the disc tail eigenvalue
        # (beyond the K synthesized targets).
        oracle = compute_disc_spectrum(k3_profile).eigenvalues[4]
        rows = h_convergence_study(k3_profile, [0.05], eta=0.0, n_track=5, K_modes=8)
        assert rows[0]["lambdas"][4] == pytest.approx(oracle, abs=0.02)

    def test_opposite_targets_converge(self):
        # +0.2 and -0.2 share a modulus, so the fiber and the disc oracle
        # may rank them differently; each error is to the nearest oracle value.
        profile = synthesize_profile([0.2, -0.2, 0.1])
        row = h_convergence_study(profile, [0.005], eta=0.0)[0]
        assert sorted(row["lambdas"][1:]) == pytest.approx([-0.2, 0.2], abs=0.01)
        assert max(row["errors"][1:]) < 0.01

    def test_non_decreasing_h_rejected(self, k3_profile):
        with pytest.raises(ValueError):
            h_convergence_study(k3_profile, [0.05, 0.1], eta=0.0)

    def test_empty_h_list_rejected(self, k3_profile):
        with pytest.raises(ValueError, match="h_list must be nonempty"):
            h_convergence_study(k3_profile, [], eta=0.0)


class TestAlmostEigenCheck:
    def test_exact_eigenvector(self, rng):
        A = rng.standard_normal((6, 6))
        A = 0.5 * (A + A.T)
        w, V = np.linalg.eigh(A)
        assert almost_eigen_check(A, V[:, 2], w[2]) <= 1e-12

    def test_distance_bounded_by_residual(self, rng):
        for _ in range(20):
            n = 8
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            A = 0.5 * (A + A.conj().T)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = v / np.linalg.norm(v)
            mu = float(rng.standard_normal())
            dist = almost_eigen_check(A, v, mu)
            residual = np.linalg.norm(A @ v - mu * v)
            assert dist <= residual + 1e-12

    def test_perturbed_eigenvector(self, rng):
        A = rng.standard_normal((6, 6))
        A = 0.5 * (A + A.T)
        w, V = np.linalg.eigh(A)
        delta = 1e-4
        v = V[:, 1] + delta * V[:, 3]
        v = v / np.linalg.norm(v)
        dist = almost_eigen_check(A, v, w[1])
        residual = np.linalg.norm(A @ v - w[1] * v)
        assert dist <= residual + 1e-12
        assert residual < 10 * delta * np.max(np.abs(w))

    def test_non_hermitian_rejected(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            almost_eigen_check(A, np.array([1.0, 0.0]), 0.0)

    def test_non_unit_vector_rejected(self):
        A = np.eye(2)
        with pytest.raises(ValueError):
            almost_eigen_check(A, np.array([2.0, 0.0]), 1.0)
