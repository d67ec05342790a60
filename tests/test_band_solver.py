import warnings

import numpy as np
import pytest

from bergband.geometry import CellGeometry, build_cell_quadrature
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
            for grid in ("symmetric", "one-sided", "single")
            for K in (10, 16, 24)
        ]
        # R0 = 0.49 needs the most Chebyshev terms (M = 22)
        + [pytest.param(0.49, K, "symmetric", id=f"R0-0.49-symmetric-{K}") for K in (10, 24)]
        + [pytest.param(0.35, 10, "symmetric-33", id="symmetric-33-10")],
    )
    def test_matches_per_fiber_basis(self, k3_profile, R0, K, grid):
        # One basis twisted onto every fiber spans the same space as the
        # basis orthonormalized at that fiber, so the bands agree.
        etas = {
            "symmetric": np.linspace(-np.pi, np.pi, 9),
            "one-sided": np.linspace(0.3, 2.9, 7),
            "single": [1.1],
            "symmetric-33": np.linspace(-np.pi, np.pi, 33),
        }[grid]
        cell = CellGeometry(R0=R0, h=0.02)
        bands = compute_bands(cell, k3_profile, etas, K_modes=K)
        quad = build_cell_quadrature(cell)
        for i, eta in enumerate(etas):
            basis = build_basis(cell, eta, K, quad)
            ev = np.linalg.eigvalsh(toeplitz_matrix(cell, k3_profile, basis))
            ref = ev[np.argsort(-np.abs(ev), kind="stable")][: bands.N_keep]
            assert np.max(np.abs(bands.lambdas[i] - ref)) <= 1e-12
            assert bands.dim_eff[i] == basis.dim_eff

    def test_real_nodes_untwisted(self, k3_profile):
        # n_t = n_strip = 1 puts every node on the real axis, where the
        # twist weight is 1 for every eta: each fiber is the eta0 fiber.
        cell = CellGeometry(R0=0.35, h=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bands = compute_bands(
                cell, k3_profile, [-1.0, 0.0, 1.0], K_modes=2, N_keep=3,
                n_r=4, n_t=1, n_strip=1,
            )
        assert np.all(bands.lambdas == bands.lambdas[1])

    def test_empty_grid_rejected(self, k3_profile):
        with pytest.raises(ValueError):
            compute_bands(CellGeometry(0.35, 0.05), k3_profile, [])


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
