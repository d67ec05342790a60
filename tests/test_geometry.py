import numpy as np
import pytest
from scipy import integrate

from bergband.geometry import (
    CellGeometry,
    QuadratureRule,
    build_disc_quadrature,
    build_cell_quadrature,
    build_cell_disc_quadrature,
    build_cell_strip_rules,
    contains,
    mirror_half,
)


class TestCellGeometry:
    def test_valid_construction(self):
        cell = CellGeometry(R0=0.3, h=0.1)
        assert cell.R0 == 0.3

    @pytest.mark.parametrize(
        "R0,h",
        [(0.2, 0.05), (0.5, 0.05), (0.6, 0.05), (0.3, 0.0), (0.3, 0.2), (0.26, 0.3)],
    )
    def test_rejects_out_of_range(self, R0, h):
        with pytest.raises(ValueError):
            CellGeometry(R0=R0, h=h)

    def test_area_against_adaptive_oracle(self):
        # Independent 2-D adaptive integration of the indicator-free area:
        # disc area + two strip-minus-lens side pieces.
        cell = CellGeometry(R0=0.3, h=0.08)
        R0, h = cell.R0, cell.h
        side, err = integrate.dblquad(
            lambda x, y: 1.0,
            -h,
            h,
            lambda y: np.sqrt(R0**2 - y**2),
            lambda y: 0.5,
            epsabs=1e-13,
        )
        oracle = np.pi * R0**2 + 2.0 * side
        assert cell.area == pytest.approx(oracle, abs=1e-11)


class TestQuadratureRule:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            QuadratureRule(np.array([0.0 + 0j]), np.array([0.0]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                QuadratureRule(np.array([0.1, 0.2 + 0j]), np.array([bad, 1.0]))

    def test_rejects_non_finite_nodes(self):
        for bad in (np.nan, np.inf, complex(0.1, np.nan)):
            with pytest.raises(ValueError, match="must be finite"):
                QuadratureRule(np.array([bad, 0.2 + 0j]), np.array([1.0, 1.0]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            QuadratureRule(np.zeros(3, dtype=complex), np.ones(2))


class TestDiscQuadrature:
    def test_total_weight_is_disc_area(self):
        quad = build_disc_quadrature(0.4, n_r=8, n_t=16)
        assert quad.total_weight == pytest.approx(np.pi * 0.16, abs=1e-12)

    def test_centroid_vanishes(self):
        quad = build_disc_quadrature(0.4, n_r=8, n_t=16)
        assert abs(np.sum(quad.weights * quad.nodes)) < 1e-12

    def test_radial_monomial_closed_form(self):
        # integral |z|^{2n} dA = pi R0^{2n+2} / (n+1), here n=3, R0=0.4
        quad = build_disc_quadrature(0.4, n_r=8, n_t=16)
        val = np.sum(quad.weights * np.abs(quad.nodes) ** 6)
        assert val == pytest.approx(np.pi * 0.4**8 / 4, rel=1e-12)

    def test_radial_monomial_monte_carlo_oracle(self):
        # Brute-force check of the same integral, independent of any closed form.
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.4, 0.4, size=(400_000, 2))
        inside = pts[np.hypot(pts[:, 0], pts[:, 1]) < 0.4]
        mc = np.mean(np.hypot(inside[:, 0], inside[:, 1]) ** 6) * np.pi * 0.16
        quad = build_disc_quadrature(0.4, n_r=8, n_t=16)
        val = np.sum(quad.weights * np.abs(quad.nodes) ** 6)
        assert val == pytest.approx(mc, rel=2e-2)

    def test_monomial_norms_exact(self):
        R0 = 0.35
        quad = build_disc_quadrature(R0, n_r=24, n_t=48)
        for n in range(23):
            exact = np.pi * R0 ** (2 * n + 2) / (n + 1)
            got = np.sum(quad.weights * np.abs(quad.nodes ** n) ** 2)
            assert got == pytest.approx(exact, rel=1e-10)

    def test_radial_breaks_preserve_area_and_fix_jumps(self):
        R0 = 0.4
        plain = build_disc_quadrature(R0, n_r=12, n_t=8)
        split = build_disc_quadrature(R0, n_r=12, n_t=8, radial_breaks=(R0 / 2,))
        assert split.total_weight == pytest.approx(plain.total_weight, rel=1e-13)
        # Integrate an integrand that jumps at |z| = R0/2.
        exact = np.pi * (R0 / 2) ** 2
        f = lambda q: np.sum(q.weights * (np.abs(q.nodes) < R0 / 2))
        assert abs(f(split) - exact) < 1e-12
        assert abs(f(plain) - exact) > 1e-4  # single panel genuinely fails

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_disc_quadrature(0.4, n_r=0)
        with pytest.raises(ValueError):
            build_disc_quadrature(-0.1)
        for R0 in (np.nan, np.inf):
            with pytest.raises(ValueError, match="disc radius must be positive"):
                build_disc_quadrature(R0)
        with pytest.raises(ValueError):
            build_disc_quadrature(0.4, radial_breaks=(0.5,))


class TestCellQuadrature:
    def test_total_weight_matches_area(self):
        cell = CellGeometry(R0=0.3, h=0.1)
        quad = build_cell_quadrature(cell)
        assert quad.total_weight == pytest.approx(cell.area, abs=1e-12)

    def test_all_nodes_inside(self):
        cell = CellGeometry(R0=0.3, h=0.1)
        quad = build_cell_quadrature(cell)
        assert np.all(contains(cell, quad.nodes))

    def test_refinement_error_decreases(self):
        cell = CellGeometry(R0=0.28, h=0.07)
        f = lambda z: np.exp(z.real) * np.cos(3 * z.imag)
        vals = []
        for n in (4, 8, 16):
            q = build_cell_quadrature(cell, n_r=n, n_t=4 * n, n_strip=n)
            vals.append(np.sum(q.weights * f(q.nodes)))
        ref = vals[-1]
        errs = [abs(v - ref) for v in vals[:-1]]
        assert errs[1] < errs[0]

    @pytest.mark.parametrize(
        "orders", [(24, 48, 16), (4, 2, 1), (4, 6, 2), (5, 20, 3)], ids=str
    )
    def test_mirror_ordered(self, orders):
        # Re z > 0, then Re z = 0, then the bitwise mirrors -conj(z) of the
        # first block with equal weights
        quad = build_cell_quadrature(CellGeometry(R0=0.3, h=0.1), *orders)
        z, w = quad.nodes, quad.weights
        n_half, v = mirror_half(quad)
        n_off = z.size - n_half
        assert np.all(z.real[:n_off] > 0.0)
        assert np.all(z.real[n_off:n_half] == 0.0)
        assert np.array_equal(z[n_half:].view(np.uint64), (-z[:n_off].conj()).view(np.uint64))
        assert np.array_equal(w[n_half:], w[:n_off])
        assert 0.5 * np.sum(v) == pytest.approx(quad.total_weight, rel=1e-14)

    @pytest.mark.parametrize("orders", [(24, 48), (4, 2), (4, 6), (5, 20), (48, 96)], ids=str)
    def test_disc_rule_conjugate_ordered(self, orders):
        # the real nodes and those with Im z > 0 are one slice of the half
        # rule; the other nodes of the half rule are their bitwise
        # conjugates, one to one, with equal weights
        disc = build_cell_disc_quadrature(0.3, *orders)
        n_half, _ = mirror_half(disc)
        z, w = disc.nodes[:n_half], disc.weights[:n_half]
        upper = np.flatnonzero(z.imag >= 0.0)
        assert upper.size and np.array_equal(upper, np.arange(upper[0], upper[-1] + 1))
        top = upper[z.imag[upper] > 0.0]
        low = np.flatnonzero(z.imag < 0.0)
        assert top.size == low.size
        # match[i, j]: lower node i is the bitwise conjugate of upper node j
        bits = z.view(np.uint64).reshape(-1, 2)
        conj_bits = z.conj().view(np.uint64).reshape(-1, 2)
        match = (conj_bits[low, None] == bits[None, top]).all(axis=2)
        assert np.all(match.sum(axis=0) == 1) and np.all(match.sum(axis=1) == 1)
        _, pair = np.nonzero(match)
        assert np.array_equal(w[low], w[top[pair]])

    def test_odd_angle_count_rejected(self):
        with pytest.raises(ValueError, match="n_t=3"):
            build_cell_quadrature(CellGeometry(R0=0.3, h=0.1), n_t=3)

    @pytest.mark.parametrize(
        "orders", [(24, 48, 16), (4, 2, 1), (4, 6, 2), (5, 20, 3)], ids=str
    )
    @pytest.mark.parametrize("h", [0.1, 0.002])
    def test_composed_of_disc_and_strip(self, orders, h):
        # the cell rule is the disc piece (mirror-ordered on its own, and
        # the same for every h) with the right strip and its mirror
        # spliced in after the disc's Re z > 0 block, bitwise
        n_r, n_t, n_strip = orders
        cell = CellGeometry(R0=0.3, h=h)
        quad = build_cell_quadrature(cell, *orders)
        disc = build_cell_disc_quadrature(0.3, n_r, n_t)
        strip = QuadratureRule(*build_cell_strip_rules([cell], n_strip, [n_strip]))
        n_half, _ = mirror_half(disc)
        n_off = disc.nodes.size - n_half
        half = np.concatenate([disc.nodes[:n_off], strip.nodes])
        nodes = np.concatenate([half, disc.nodes[n_off:n_half], -half.conj()])
        assert np.all(strip.nodes.real > 0.0)
        # rows of n_strip nodes, one height each (band_solver relies on it)
        heights = strip.nodes.imag.reshape(n_strip, n_strip)
        assert np.all(heights == heights[:, :1]) and np.all(np.diff(heights[:, 0]) > 0.0)
        assert np.array_equal(quad.nodes.view(np.uint64), nodes.view(np.uint64))
        half_w = np.concatenate([disc.weights[:n_off], strip.weights])
        assert np.array_equal(
            quad.weights, np.concatenate([half_w, disc.weights[n_off:n_half], half_w])
        )
        total = disc.total_weight + 2.0 * strip.total_weight
        assert total == pytest.approx(quad.total_weight, rel=1e-14)

    @pytest.mark.parametrize("n_strip", [1, 3, 16])
    def test_strip_rules_are_the_one_cell_rules(self, n_strip):
        # the square rule, n_strip heights each: each block of a batch,
        # whatever the order of its cells, is bitwise the rule the cell gets
        # on its own
        cells = [CellGeometry(R0=0.3, h=h) for h in (0.02, 0.1, 0.002, 0.05)]
        cells.append(CellGeometry(R0=0.49, h=0.07))
        nodes, weights = build_cell_strip_rules(cells, n_strip, [n_strip] * len(cells))
        assert nodes.shape == weights.shape == (len(cells) * n_strip**2,)
        blocks = zip(nodes.reshape(len(cells), -1), weights.reshape(len(cells), -1))
        for cell, (z, w) in zip(cells, blocks):
            alone_z, alone_w = build_cell_strip_rules([cell], n_strip, [n_strip])
            assert np.array_equal(z.view(np.uint64), alone_z.view(np.uint64))
            assert np.array_equal(w.view(np.uint64), alone_w.view(np.uint64))

    def test_ragged_strip_rules_are_the_one_cell_rules(self):
        # a batch of mixed h and heights: each cell's block, whatever the order
        # of the cells, is bitwise its one-cell rule at the same heights, in
        # rows of n_strip nodes at one height each
        n_strip = 7
        cells = [CellGeometry(R0=0.3, h=h) for h in (0.02, 0.1, 0.002, 0.05)]
        cells.append(CellGeometry(R0=0.49, h=0.07))
        heights = [3, 7, 1, 5, 2]
        nodes, weights = build_cell_strip_rules(cells, n_strip, heights)
        assert nodes.shape == weights.shape == (n_strip * sum(heights),)
        ends = n_strip * np.cumsum(heights)
        for cell, n_y, z, w in zip(
            cells, heights, np.split(nodes, ends[:-1]), np.split(weights, ends[:-1])
        ):
            alone_z, alone_w = build_cell_strip_rules([cell], n_strip, [n_y])
            assert np.array_equal(z.view(np.uint64), alone_z.view(np.uint64))
            assert np.array_equal(w.view(np.uint64), alone_w.view(np.uint64))
            rows = z.imag.reshape(n_y, n_strip)
            assert np.all(rows == rows[:, :1]) and np.all(np.diff(rows[:, 0]) > 0.0)

    def test_strip_rules_reject_a_cell_without_heights(self):
        with pytest.raises(ValueError, match="at least one height"):
            build_cell_strip_rules([CellGeometry(R0=0.3, h=0.05)], 4, heights=[0])

    def test_small_h_limit(self):
        # As h -> 0 the cell area tends to the disc area plus the full strip.
        cell = CellGeometry(R0=0.3, h=1e-4)
        quad = build_cell_quadrature(cell)
        assert quad.total_weight == pytest.approx(cell.area, abs=1e-12)
        assert quad.total_weight == pytest.approx(np.pi * 0.09 + 2e-4, rel=1e-2)


class TestContains:
    def test_center(self):
        assert contains(CellGeometry(0.3, 0.1), 0.0)

    def test_strip_point(self):
        assert contains(CellGeometry(0.3, 0.1), 0.49)

    def test_outside(self):
        assert not contains(CellGeometry(0.3, 0.1), 0.49 + 0.2j)

    def test_vectorized(self):
        out = contains(CellGeometry(0.3, 0.1), np.array([0.0, 0.49, 0.49 + 0.2j]))
        assert out.tolist() == [True, True, False]
