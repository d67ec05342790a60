import numpy as np
import pytest

from bergband.geometry import CellGeometry, build_disc_quadrature, contains
from bergband.conformal import (
    identity_pair,
    rotation_pair,
    moebius_pair,
    rect_exp_pair,
    transplant,
    transplant_symbol,
    spectral_equivalence_check,
)


@pytest.fixture(scope="module")
def disc_quad():
    return build_disc_quadrature(1.0, n_r=32, n_t=64)


def polynomial(coefs):
    return lambda z: np.polyval(coefs, z)


class TestPairs:
    @pytest.mark.parametrize(
        "pair",
        [identity_pair(), rotation_pair(1.1), moebius_pair(0.3), moebius_pair(0.2j)],
    )
    def test_inverse_identity_on_disc(self, pair, rng):
        w = 0.9 * (rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200))
        w = w[np.abs(w) < 0.95]
        assert np.max(np.abs(pair.phi(pair.psi(w)) - w)) <= 1e-10

    def test_rect_exp_inverse_identity(self):
        pair = rect_exp_pair()
        x = np.linspace(-0.45, 0.45, 11)
        y = np.linspace(-0.45, 0.45, 7)
        z = (x[:, None] + 1j * y[None, :]).ravel()
        w = pair.phi(z)
        assert np.max(np.abs(pair.psi(w) - z)) <= 1e-10

    def test_rect_exp_maps_square_into_disc(self):
        pair = rect_exp_pair()
        x = np.linspace(-0.5, 0.5, 21)
        y = np.linspace(-0.5, 0.5, 21)
        z = (x[:, None] + 1j * y[None, :]).ravel()
        assert np.max(np.abs(pair.phi(z))) < 1.0

    def test_rect_exp_maps_cell_compactly_into_disc(self):
        pair = rect_exp_pair()
        cell = CellGeometry(R0=0.35, h=0.05)
        rng = np.random.default_rng(3)
        z = rng.uniform(-0.5, 0.5, 4000) + 1j * rng.uniform(-0.5, 0.5, 4000)
        z = z[contains(cell, z)]
        assert z.size > 100
        assert np.max(np.abs(pair.phi(z))) < 1.0 - 1e-3

    def test_moebius_parameter_validated(self):
        with pytest.raises(ValueError):
            moebius_pair(1.0)

    @pytest.mark.parametrize("alpha", [float("nan"), complex(0.1, float("nan"))])
    def test_moebius_non_finite_parameter_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            moebius_pair(alpha)


class TestTransplant:
    def test_identity_is_identity(self, disc_quad, rng):
        f = polynomial(rng.standard_normal(5))
        lf = transplant(f, identity_pair(), disc_quad.nodes)
        assert np.allclose(lf, f(disc_quad.nodes), atol=1e-14)

    def test_rotation_isometry_exact(self, disc_quad, rng):
        pair = rotation_pair(0.8)
        for _ in range(5):
            f = polynomial(rng.standard_normal(6))
            lf = transplant(f, pair, disc_quad.nodes)
            assert disc_quad.norm(lf) == pytest.approx(
                disc_quad.norm(f(disc_quad.nodes)), rel=1e-12
            )

    def test_moebius_isometry(self, disc_quad, rng):
        pair = moebius_pair(0.3)
        for _ in range(5):
            f = polynomial(rng.standard_normal(6))
            lf = transplant(f, pair, disc_quad.nodes)
            ratio = disc_quad.norm(lf) / disc_quad.norm(f(disc_quad.nodes))
            assert abs(ratio - 1.0) <= 1e-8

    def test_composition_consistency(self, disc_quad, rng):
        # L then the inverse transplant returns f (on the disc grid).
        pair = moebius_pair(0.3)
        inverse = moebius_pair(-0.3)
        f = polynomial(rng.standard_normal(4))
        lf_fun = lambda w: pair.dpsi(w) * f(pair.psi(w))
        back = transplant(lf_fun, inverse, disc_quad.nodes)
        # inverse pair of psi_a is psi_{-a}; derivative chain gives f back
        assert np.allclose(back, f(disc_quad.nodes), atol=2e-8 * disc_quad.norm(f(disc_quad.nodes)))


class TestTransplantSymbol:
    def test_constant_preserved(self, disc_quad):
        a = lambda z: np.full_like(z, 2.5, dtype=float)
        composed = transplant_symbol(a, moebius_pair(0.3))
        assert np.allclose(composed(disc_quad.nodes), 2.5)

    def test_rotation_radial_invariant(self, disc_quad):
        a = lambda z: np.abs(z) ** 2
        composed = transplant_symbol(a, rotation_pair(2.2))
        assert np.allclose(composed(disc_quad.nodes), a(disc_quad.nodes), atol=1e-14)

    def test_moebius_indicator_support(self, disc_quad):
        # Indicator of |z| < 1/2 composes to the indicator of the preimage,
        # verified by membership sampling.
        pair = moebius_pair(0.3)
        a = lambda z: (np.abs(z) < 0.5).astype(float)
        composed = transplant_symbol(a, pair)
        w = disc_quad.nodes
        assert np.array_equal(composed(w), (np.abs(pair.psi(w)) < 0.5).astype(float))


class TestSpectralEquivalence:
    def test_identity_pair_exact(self, disc_quad):
        a = lambda z: np.where(np.abs(z) < 0.5, 1.0 - np.abs(z), 0.0)
        assert spectral_equivalence_check(a, identity_pair(), 8, disc_quad) <= 1e-10

    def test_rotation_pair_radial_exact(self, disc_quad):
        a = lambda z: np.exp(-np.abs(z) ** 2)
        assert spectral_equivalence_check(a, rotation_pair(0.9), 8, disc_quad) <= 1e-10

    def test_moebius_distance_decreases_in_N(self, disc_quad):
        a = lambda z: np.exp(-2.0 * np.abs(z) ** 2)
        d_small = spectral_equivalence_check(a, moebius_pair(0.3), 4, disc_quad)
        d_large = spectral_equivalence_check(a, moebius_pair(0.3), 12, disc_quad)
        assert d_large < d_small

    def test_large_N_rejected(self, disc_quad):
        with pytest.raises(ValueError):
            spectral_equivalence_check(lambda z: z.real, identity_pair(), 20, disc_quad)
