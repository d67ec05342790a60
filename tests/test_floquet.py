import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergband.geometry import CellGeometry, build_cell_quadrature
from bergband.floquet import (
    CellField,
    FloquetField,
    eta_grid_for,
    floquet_forward,
    floquet_inverse,
    field_norm,
    floquet_norm,
)


@pytest.fixture(scope="module")
def tiny_quad():
    return build_cell_quadrature(CellGeometry(0.35, 0.05), n_r=6, n_t=12, n_strip=4)


def random_field(rng, M, quad):
    shape = (2 * M + 1, quad.nodes.size)
    return CellField(
        M=M, samples=rng.standard_normal(shape) + 1j * rng.standard_normal(shape), quad=quad
    )


class TestForward:
    def test_single_cell_support_constant_in_eta(self, tiny_quad, rng):
        M = 3
        samples = np.zeros((2 * M + 1, tiny_quad.nodes.size), dtype=complex)
        samples[M] = rng.standard_normal(tiny_quad.nodes.size)  # cell m = 0
        ff = floquet_forward(CellField(M=M, samples=samples, quad=tiny_quad))
        expected = samples[M] / np.sqrt(2.0 * np.pi)
        assert np.allclose(ff.samples, expected[None, :], atol=1e-13)

    def test_character_field_concentrates(self, tiny_quad, rng):
        # f(z + m) = e^{i eta0 m} g(z) with eta0 on the grid transforms to
        # a single nonzero eta slice.
        M = 4
        etas = eta_grid_for(M)
        j0 = 5
        g = rng.standard_normal(tiny_quad.nodes.size)
        ms = np.arange(-M, M + 1)
        samples = np.exp(1j * etas[j0] * ms)[:, None] * g[None, :]
        ff = floquet_forward(CellField(M=M, samples=samples, quad=tiny_quad))
        mags = np.linalg.norm(ff.samples, axis=1)
        assert mags[j0] > 1e-8
        mask = np.ones_like(mags, dtype=bool)
        mask[j0] = False
        assert np.max(mags[mask]) <= 1e-12 * mags[j0]

    def test_parseval_against_double_sum_oracle(self, tiny_quad, rng):
        # Brute-force evaluation of the transform definition at M = 2.
        M = 2
        f = random_field(rng, M, tiny_quad)
        etas = eta_grid_for(M)
        oracle = np.array(
            [
                sum(
                    np.exp(-1j * eta * m) * f.samples[m + M]
                    for m in range(-M, M + 1)
                )
                / np.sqrt(2 * np.pi)
                for eta in etas
            ]
        )
        ff = floquet_forward(f)
        assert np.allclose(ff.samples, oracle, atol=1e-13)
        assert abs(floquet_norm(ff) - field_norm(f)) <= 1e-10 * field_norm(f)


class TestInverse:
    def test_round_trip(self, tiny_quad, rng):
        f = random_field(rng, 8, tiny_quad)
        back = floquet_inverse(floquet_forward(f))
        assert np.max(np.abs(back.samples - f.samples)) <= 1e-12

    def test_eta_constant_field_inverts_to_single_cell(self, tiny_quad, rng):
        M = 3
        g = rng.standard_normal(tiny_quad.nodes.size) / np.sqrt(2 * np.pi)
        samples = np.tile(g, (2 * M + 1, 1)).astype(complex)
        ff = FloquetField(samples=samples, quad=tiny_quad)
        f = floquet_inverse(ff)
        mags = np.linalg.norm(f.samples, axis=1)
        assert mags[M] > 1e-8
        mask = np.ones_like(mags, dtype=bool)
        mask[M] = False
        assert np.max(mags[mask]) <= 1e-12 * mags[M]

    def test_parseval_both_directions(self, tiny_quad, rng):
        f = random_field(rng, 6, tiny_quad)
        ff = floquet_forward(f)
        assert floquet_norm(ff) == pytest.approx(field_norm(f), rel=1e-10)
        assert field_norm(floquet_inverse(ff)) == pytest.approx(
            floquet_norm(ff), rel=1e-10
        )

    def test_grid_is_the_dual_grid(self, tiny_quad, rng):
        # the grid is derived from the row count, so no other grid can be built
        ff = floquet_forward(random_field(rng, 3, tiny_quad))
        assert ff.M == 3
        assert np.array_equal(ff.eta_grid, eta_grid_for(3))

    def test_even_row_count_rejected(self, tiny_quad):
        with pytest.raises(ValueError, match="2M\\+1"):
            FloquetField(samples=np.zeros((4, tiny_quad.nodes.size)), quad=tiny_quad)

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_round_trip_any_truncation(self, M):
        rng = np.random.default_rng(M)
        quad = build_cell_quadrature(CellGeometry(0.35, 0.05), n_r=4, n_t=8, n_strip=3)
        f = random_field(rng, M, quad)
        back = floquet_inverse(floquet_forward(f))
        assert np.max(np.abs(back.samples - f.samples)) <= 1e-12


class TestTranslationCovariance:
    def test_shift_modulates(self, tiny_quad, rng):
        # Transform of the cell-shifted field equals the e^{-i eta} modulated
        # transform (up to truncation wrap-around, avoided by padding zeros).
        M = 5
        samples = np.zeros((2 * M + 1, tiny_quad.nodes.size), dtype=complex)
        samples[M - 1 : M + 2] = rng.standard_normal((3, tiny_quad.nodes.size))
        f = CellField(M=M, samples=samples, quad=tiny_quad)
        shifted = CellField(M=M, samples=np.roll(samples, 1, axis=0), quad=tiny_quad)
        ff = floquet_forward(f)
        ffs = floquet_forward(shifted)
        mod = np.exp(-1j * ff.eta_grid)[:, None]
        assert np.allclose(ffs.samples, mod * ff.samples, atol=1e-12)

