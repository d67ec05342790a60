import numpy as np
import pytest
from scipy import integrate

from bergband.geometry import build_disc_quadrature
from bergband.symbols import RadialProfile, synthesize_profile
from bergband.disc_spectrum import (
    DiscSpectrum,
    moment_eigenvalue,
    compute_disc_spectrum,
    disc_galerkin_matrix,
    spectral_gap,
)


class TestMomentEigenvalue:
    def test_identity_symbol(self):
        unit = RadialProfile.unit()
        for n in range(21):
            assert moment_eigenvalue(unit, n) == pytest.approx(1.0, abs=1e-12)

    def test_synthesis_round_trip(self):
        profile = synthesize_profile([0.1])
        assert moment_eigenvalue(profile, 1) == pytest.approx(0.1, abs=1e-12)

    def test_closed_form_off_target_index(self):
        # K=1 profile c=22.4: lambda_2 = 2*3*22.4*(1/2)^9/9
        profile = synthesize_profile([0.1])
        expected = 2 * 3 * 22.4 * 0.5**9 / 9
        assert moment_eigenvalue(profile, 2) == pytest.approx(expected, rel=1e-12)
        # adaptive-quadrature oracle
        oracle, _ = integrate.quad(lambda r: 22.4 * r**3 * r**5, 0, 0.5, epsabs=1e-15)
        assert moment_eigenvalue(profile, 2) == pytest.approx(6 * oracle, rel=1e-10)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            moment_eigenvalue(RadialProfile.unit(), -1)


class TestComputeDiscSpectrum:
    def test_ordering(self, k3_profile):
        spec = compute_disc_spectrum(k3_profile)
        mods = np.abs(spec.eigenvalues)
        assert np.all(np.diff(mods) <= 1e-15)

    def test_reference_values(self, k3_profile):
        # Independently derivable: lambda_0 is the uncontrolled moment at
        # Taylor index 0, then the three targets follow.
        spec = compute_disc_spectrum(k3_profile)
        lam0 = 2.0 * sum(
            c * 0.5 ** (2 * m + 3) / (2 * m + 3)
            for m, c in enumerate(k3_profile.coeffs, start=1)
        )
        assert spec.eigenvalues[0] == pytest.approx(lam0, rel=1e-12)
        assert spec.eigenvalues[1:4] == pytest.approx((0.3, 0.2, 0.1), abs=1e-10)

    def test_norm_bound(self, k3_profile):
        spec = compute_disc_spectrum(k3_profile)
        assert np.max(np.abs(spec.eigenvalues)) <= k3_profile.sup_norm() + 1e-8

    def test_tail_decay(self, k3_profile):
        # Support in [0, 1/2] forces geometric 4^{-n} moment decay.
        lams = [abs(moment_eigenvalue(k3_profile, n)) for n in range(10, 30)]
        # ratio -> (n+2)/(n+1) * 1/4 from the moment integral; stays < 0.29
        ratios = [b / a for a, b in zip(lams, lams[1:])]
        assert max(ratios) < 0.29

    def test_zero_cluster(self):
        spec = compute_disc_spectrum(RadialProfile(coeffs=(0.0,)))
        assert set(spec.eigenvalues) == {0.0}

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            DiscSpectrum(eigenvalues=(0.1, 0.5), N_kept=2)


class TestGalerkinMatrix:
    def test_diagonal_for_radial_symbol(self, k3_profile):
        R0 = 0.35
        quad = build_disc_quadrature(R0, n_r=24, n_t=48, radial_breaks=(R0 / 2,))
        M = disc_galerkin_matrix(k3_profile, R0, N=10, quad=quad)
        off = M - np.diag(np.diag(M))
        assert np.max(np.abs(off)) <= 1e-10

    def test_diagonal_matches_moments(self, k3_profile):
        R0 = 0.35
        quad = build_disc_quadrature(R0, n_r=24, n_t=48, radial_breaks=(R0 / 2,))
        M = disc_galerkin_matrix(k3_profile, R0, N=10, quad=quad)
        for n in range(10):
            assert M[n, n].real == pytest.approx(
                moment_eigenvalue(k3_profile, n), abs=1e-8
            )

    def test_zero_profile_zero_matrix(self):
        quad = build_disc_quadrature(0.35, n_r=12, n_t=24)
        M = disc_galerkin_matrix(RadialProfile(coeffs=(0.0,)), 0.35, N=4, quad=quad)
        assert np.max(np.abs(M)) == 0.0

    def test_spectral_radius_bounded(self, k3_profile):
        R0 = 0.35
        quad = build_disc_quadrature(R0, n_r=24, n_t=48, radial_breaks=(R0 / 2,))
        M = disc_galerkin_matrix(k3_profile, R0, N=10, quad=quad)
        assert np.max(np.abs(np.linalg.eigvalsh(M))) <= k3_profile.sup_norm() + 1e-8

    def test_coarse_quadrature_rejected(self, k3_profile):
        quad = build_disc_quadrature(0.35, n_r=3, n_t=6)
        with pytest.raises(ValueError, match="coarse"):
            disc_galerkin_matrix(k3_profile, 0.35, N=12, quad=quad)


class TestSpectralGap:
    def test_synthesized_profile_gap(self, k3_profile):
        spec = compute_disc_spectrum(k3_profile)
        # |lambda_3| - |lambda_4| = 0.2 - 0.1... with 1-based indexing into
        # the modulus ordering (1.78, 0.3, 0.2, 0.1, 0.039, ...):
        assert spectral_gap(spec, 3) == pytest.approx(0.1, abs=1e-8)
        assert spectral_gap(spec, 4) == pytest.approx(0.1 - 0.03885, abs=1e-4)

    def test_zero_spectrum(self):
        spec = DiscSpectrum(eigenvalues=(0.0, 0.0, 0.0), N_kept=3)
        assert spectral_gap(spec, 1) == 0.0

    def test_multiplicity_gives_zero_gap(self):
        spec = DiscSpectrum(eigenvalues=(1.0, 1.0, 0.5), N_kept=3)
        assert spectral_gap(spec, 1) == 0.0

    def test_out_of_range(self, k3_profile):
        spec = compute_disc_spectrum(k3_profile, N_kept=4)
        with pytest.raises(ValueError):
            spectral_gap(spec, 4)
