import numpy as np
import pytest

from bergband.geometry import build_disc_quadrature
from bergband.conformal import identity_pair, rotation_pair, moebius_pair, transplant


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

