import numpy as np
import pytest
from scipy import integrate

from bergband.geometry import build_disc_quadrature
from bergband.symbols import RadialProfile, synthesize_profile
from bergband.disc_spectrum import (
    N_SCAN,
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


def _scalar_loop_spectrum(profile, N_kept):
    """compute_disc_spectrum as one moment_eigenvalue call per index and a
    sorted() on (-|lambda|, -lambda, index)."""
    lams = [moment_eigenvalue(profile, n) for n in range(N_SCAN)]
    order = sorted(range(N_SCAN), key=lambda i: (-abs(lams[i]), -lams[i], i))
    return tuple(lams[i] if abs(lams[i]) > 1e-14 else 0.0 for i in order[:N_kept])


class TestComputeDiscSpectrum:
    @pytest.mark.parametrize(
        "profile",
        [
            RadialProfile.unit(),  # every eigenvalue is 1: all ties
            RadialProfile(coeffs=(0.0,)),  # every eigenvalue is 0
            # lambda_0 = -0.8 and lambda_20 = 0.8 tie in modulus, bitwise
            RadialProfile(coeffs=(3.0,), constant_term=-2.0, support=1.0),
            synthesize_profile([0.3, 0.2, 0.1]),
            synthesize_profile([0.3, -0.25, 0.12]),
            synthesize_profile([0.39, 0.34, 0.26, 0.15]),
            RadialProfile(coeffs=(1.5, -40.0, 90.0), constant_term=0.2, support=0.37),
        ],
        ids=["unit", "zero", "mixed-sign-tie", "k3", "mixed-sign", "four", "support-0.37"],
    )
    @pytest.mark.parametrize("N_kept", [1, 32, N_SCAN])
    def test_matches_scalar_loop(self, profile, N_kept):
        spec = compute_disc_spectrum(profile, N_kept)
        expected = _scalar_loop_spectrum(profile, N_kept)
        assert np.array_equal(np.array(spec.eigenvalues).view(np.uint64), np.array(expected).view(np.uint64))

    def test_array_of_indices(self, k3_profile):
        n = np.arange(40)
        lams = moment_eigenvalue(k3_profile, n)
        assert lams.shape == (40,)
        assert all(lams[i] == moment_eigenvalue(k3_profile, i) for i in n)
        with pytest.raises(ValueError, match=">= 0"):
            moment_eigenvalue(k3_profile, np.array([0, 3, -1]))

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

    @pytest.mark.parametrize("N_kept", [0, -3, N_SCAN + 1, 200])
    def test_count_beyond_scan_rejected(self, k3_profile, N_kept):
        # only N_SCAN eigenvalues are computed, so no larger count can be kept
        with pytest.raises(ValueError, match="^N_kept"):
            compute_disc_spectrum(k3_profile, N_kept=N_kept)

    def test_full_scan_kept(self, k3_profile):
        spec = compute_disc_spectrum(k3_profile, N_kept=N_SCAN)
        assert len(spec.eigenvalues) == spec.N_kept == N_SCAN
        assert spectral_gap(spec, N_SCAN - 1) >= 0.0

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            DiscSpectrum(eigenvalues=(0.1, 0.5))

    def test_count_is_derived(self):
        # N_kept is the eigenvalue count, so spectral_gap cannot index past it
        spec = DiscSpectrum((0.3, 0.2))
        assert spec.N_kept == 2
        assert spectral_gap(spec, 1) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            spectral_gap(spec, 2)


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
        spec = DiscSpectrum(eigenvalues=(0.0, 0.0, 0.0))
        assert spectral_gap(spec, 1) == 0.0

    def test_multiplicity_gives_zero_gap(self):
        spec = DiscSpectrum(eigenvalues=(1.0, 1.0, 0.5))
        assert spectral_gap(spec, 1) == 0.0

    def test_out_of_range(self, k3_profile):
        spec = compute_disc_spectrum(k3_profile, N_kept=4)
        with pytest.raises(ValueError):
            spectral_gap(spec, 4)
