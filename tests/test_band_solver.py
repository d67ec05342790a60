import dataclasses
import inspect
import tracemalloc
import warnings

import numpy as np
import pytest

from bergband import band_solver
from bergband.geometry import (
    CellGeometry,
    build_cell_quadrature,
    compress,
    mirror_half,
)
from bergband.pipeline import RunConfig
from bergband.symbols import RadialProfile, TargetSpec, eval_cell_symbol, synthesize_profile
from bergband.disc_spectrum import compute_disc_spectrum
from bergband.quasi_bergman import TwistedBasis, build_basis
from bergband.band_solver import (
    band_structures,
    compute_bands,
    toeplitz_matrix,
    essential_spectrum,
    gap_report,
    h_convergence_study,
    almost_eigen_check,
)


def _fibers_solved(calls):
    """The fibers in the calls of _band_eigenvalues that count_calls recorded:
    each call solves a stack, one fiber per leading index."""
    return sum(len(A) for A, _ in calls)


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

    def test_no_cell_or_profile_stored(self, small_bands):
        # the caller has both; nothing reads a copy of them
        names = {f.name for f in dataclasses.fields(small_bands)}
        assert names.isdisjoint({"cell", "profile"})

    def test_band_symmetry_in_eta(self, small_bands):
        # lambda_n(-eta) = lambda_n(eta): complex conjugation maps the
        # eta-fiber to the (-eta)-fiber and leaves the real symbol fixed.
        lams = small_bands.lambdas
        assert np.allclose(lams, lams[::-1], atol=1e-8)

    @pytest.mark.parametrize(
        "grid, fibers",
        [(np.linspace(-np.pi, np.pi, 65), 33), ([-0.7, 0.7], 1)],
        ids=["symmetric-65", "pair"],
    )
    def test_fold_solves_each_abs_eta_once(self, count_calls, k3_profile, grid, fibers):
        # linspace(-pi, pi, 65) is symmetric only to rounding; its rows at
        # eta and -eta are still one fiber, copied bitwise
        solves = count_calls(band_solver, "_band_eigenvalues")
        bands = compute_bands(CellGeometry(R0=0.35, h=0.05), k3_profile, grid, N_keep=6)
        assert _fibers_solved(solves) == fibers
        assert np.array_equal(bands.etas, np.asarray(grid, dtype=float))
        assert bands.lambdas.shape == (len(grid), 6)
        assert np.array_equal(bands.lambdas, bands.lambdas[::-1])

    def test_single_fiber_skips_expansion(self, monkeypatch, k3_profile):
        # a grid that folds to one eta is one product and one eigensolve:
        # sending it through the moment kernel made the 24-h study 15% slower.
        # The fibers' Cholesky factors are _fiber_bands'; the strip's own
        # Cholesky factor (_cell_bands) runs on this path too
        def forbidden(*args, **kwargs):
            raise AssertionError("the single-fiber path must not expand the twist")

        monkeypatch.setattr(band_solver, "_chebyshev_moments", forbidden)
        monkeypatch.setattr(band_solver, "_fiber_bands", forbidden)
        cell = CellGeometry(R0=0.35, h=0.05)
        single = compute_bands(cell, k3_profile, [0.7])
        pair = compute_bands(cell, k3_profile, [-0.7, 0.7])
        assert np.array_equal(pair.lambdas, np.tile(single.lambdas, (2, 1)))
        rows = h_convergence_study(k3_profile, [0.1, 0.05], eta=0.0)
        assert [row["h"] for row in rows] == [0.1, 0.05]

    def test_band_holder_continuity(self, small_bands, k3_profile):
        # Adjacent-grid increments bounded by C sqrt(d_eta) with C fitted
        # from the coarse grid itself.
        d_eta = np.diff(small_bands.etas)[0]
        incr = np.max(np.abs(np.diff(small_bands.lambdas, axis=0)))
        C = incr / np.sqrt(d_eta)
        fine = compute_bands(
            CellGeometry(R0=0.35, h=0.05), k3_profile,
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
        # is the eta0 fiber.  The grid does not fold to one point, so the
        # twist is expanded (M >= 1) and the fibers agree to rounding only.
        cell = CellGeometry(R0=0.35, h=0.05)
        rule = dict(K_modes=2, N_keep=3, n_r=4, n_t=2, n_strip=1)
        folded, _ = band_solver._fold(np.array([-1.0, 0.0, 1.0]))
        assert band_solver._disc_stage(cell, k3_profile, folded, 2, 4, 2).M >= 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bands = compute_bands(cell, k3_profile, [-1.0, 0.0, 1.0], **rule)
            at_eta0 = compute_bands(cell, k3_profile, [0.5], **rule).lambdas[0]
        err = np.max(np.abs(bands.lambdas - at_eta0))
        assert err <= 1e-15 * np.max(np.abs(at_eta0))

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


def _reference_bands(cell, profile, eta, K, N_keep):
    """The fiber at eta from a basis orthonormalized on the full cell rule."""
    quad = build_cell_quadrature(cell, *band_solver._quadrature_orders(K, cell.R0))
    basis = build_basis(cell, eta, K, quad)
    ev = np.linalg.eigvalsh(toeplitz_matrix(cell, profile, basis))
    return ev[np.argsort(-np.abs(ev), kind="stable")][:N_keep], basis.dim_eff


class TestBandStructures:
    @staticmethod
    def _worst_error(profile, R0, K, grid, checked, hs=(0.1, 0.02, 0.002)):
        """Largest band distance to the full-cell reference over the h of hs."""
        cells = [CellGeometry(R0=R0, h=h) for h in hs]
        worst = 0.0
        for cell, bands in zip(cells, band_structures(cells, profile, grid, K_modes=K)):
            for i in checked:
                ref, dim_eff = _reference_bands(cell, profile, grid[i], K, bands.N_keep)
                worst = max(worst, np.max(np.abs(bands.lambdas[i] - ref)))
                assert bands.dim_eff == dim_eff
        return worst

    @pytest.mark.parametrize(
        "grid, checked",
        [
            ([1.1], (0,)),
            ([0.0], (0,)),
            (np.linspace(-np.pi, np.pi, 65), (0, 21, 32, 47)),
            ([-2.0, -0.4, 1.1], (0, 1, 2)),
        ],
        ids=["single", "zero", "folded-65", "mixed-sign"],
    )
    @pytest.mark.parametrize("K", [10, 16, 24])
    @pytest.mark.parametrize("R0", [0.2501, 0.26, 0.35, 0.49])
    def test_split_matches_full_cell_basis(self, k3_profile, R0, K, grid, checked):
        # The disc basis with each strip added spans the basis
        # orthonormalized on the whole cell.  Above the Cholesky bound the
        # strip is a QR update: on the single-eta path at h 0.1, bands from
        # a Cholesky factor of I + S were off from the QR's, relative to
        # max |lambda|, by 2.7e-14 at 1 + ||F||^2 = 4.8e5 (R0 0.2501, K 10),
        # 4.4e-13 at 1.1e8 (R0 0.26, K 16), 6.6e-12 at 9.4e8 (R0 0.2501,
        # K 16), 7.8e-10 at 9.6e11 (R0 0.26, K 24) and 1.4e-8 at 2.4e13
        # (R0 0.2501, K 24); at R0 0.2501, K 32, eta 0 I + S was not
        # positive definite in floating point.  R0 0.2501 has the longest
        # strip, where the basis grows most; a QR with the unit rows on top
        # was off by 4e-12 there (K 24, eta 0).
        assert self._worst_error(k3_profile, R0, K, grid, checked) <= 1e-12

    @pytest.mark.parametrize(
        "targets, K, bound, grid",
        [
            pytest.param(targets, K, bound, grid, id=f"{name}-K{K}{path}")
            for grid, path in [([0.0], ""), ([0.0, 1.1, np.pi], "-twisted")]
            for name, targets in [("k3", (0.3, 0.2, 0.1)), ("mixed-sign-targets", (0.3, -0.25, 0.12))]
            for K, bound in [(24, 1e-12), (32, 1e-11), (40, 1e-9)]
        ],
    )
    def test_accuracy_on_the_longest_strip(self, targets, K, bound, grid):
        # The stated bound: on the strip of R0 0.2501 the basis reaches 7e7
        # at K 24 and 3e12 at K 40, and beyond K 24 the split keeps fewer
        # digits than a basis orthonormalized on the whole cell (which stays
        # within 5e-14 of a high-precision solve there).  A QR with the unit
        # rows on top was off by 8.5e-12 at K 24 and 2.5e-8 at K 40.  The
        # twisted grid, the path of bergband run (M > 0), reads at most
        # 2.6e-13, 1.2e-12 and 4.2e-11 at K 24, 32 and 40.
        profile = synthesize_profile(list(targets))
        assert self._worst_error(profile, 0.2501, K, grid, range(len(grid))) <= bound

    @pytest.mark.parametrize("R0", [0.3, 0.42])
    def test_high_K_away_from_the_longest_strip(self, k3_profile, R0):
        # the column order of the QR update at K 40 where the strip is shorter:
        # both it and an order by decreasing strip norm are within 1.1e-13
        assert self._worst_error(k3_profile, R0, 40, [0.0], (0,), hs=(0.1, 0.002)) <= 1e-12

    def test_one_basis_for_every_cell(self, count_calls, k3_profile):
        bases = count_calls(band_solver, "build_basis")
        evaluations = count_calls(TwistedBasis, "evaluate")
        hs = np.geomspace(0.1, 0.002, 24)
        rows = h_convergence_study(k3_profile, hs, eta=0.3)
        assert len(rows) == 24
        assert len(bases) == 1
        # every strip of the 24 is evaluated in the one call, each at its
        # own heights: 246 of them, not 24 * 16
        assert len(evaluations) == 1
        n_strip = band_solver._quadrature_orders(10, 0.35)[2]
        heights = [min(n_strip, band_solver._strip_heights(10, 0.35, h)) for h in hs]
        assert evaluations[0][1].size == n_strip * sum(heights)

    def test_lazy(self, count_calls, k3_profile):
        # every strip is built, in one batch, and evaluated at the first
        # next(); each cell's strip factorization and fiber solves wait until
        # that cell is asked for
        strips = count_calls(band_solver, "build_cell_strip_rules")
        evaluations = count_calls(TwistedBasis, "evaluate")
        solves = count_calls(band_solver, "_band_eigenvalues")
        cells = (CellGeometry(R0=0.35, h=h) for h in (0.1, 0.05, 0.02))
        steps = band_structures(cells, k3_profile, np.linspace(-np.pi, np.pi, 65))
        assert strips == [] and evaluations == [] and solves == []
        next(steps)
        assert [[cell.h for cell in cells] for cells, _ in strips] == [[0.1, 0.05, 0.02]]
        assert len(evaluations) == 1
        # the 65 etas fold to 33 fibers, none of a later cell
        assert _fibers_solved(solves) == 33
        next(steps)
        assert len(evaluations) == 1
        assert _fibers_solved(solves) == 66

    @pytest.mark.parametrize("bad", [CellGeometry(R0=0.3, h=0.05)], ids=["other-R0"])
    def test_cells_share_the_disc_and_narrow(self, monkeypatch, k3_profile, bad):
        # the disc stage belongs to one R0; every cell is checked before the
        # disc stage, so a bad one anywhere in the list stops the first next()
        # before any basis.  The h may come in any order (a wider cell after a
        # narrower one is accepted: test_pass_matches_single_cells)
        def forbidden(*args, **kwargs):
            raise AssertionError("no band work before every cell is checked")

        monkeypatch.setattr(band_solver, "build_basis", forbidden)
        cells = [CellGeometry(R0=0.35, h=0.05), CellGeometry(R0=0.35, h=0.02), bad]
        steps = band_structures(cells, k3_profile, [0.0])
        with pytest.raises(ValueError, match=r"every cell must have R0=0.35, got"):
            next(steps)

    @pytest.mark.parametrize(
        "grid", [[0.7], np.linspace(-np.pi, np.pi, 65)], ids=["single", "folded-65"]
    )
    @pytest.mark.parametrize(
        "R0, K, bound",
        [(0.35, 10, 0.0), (0.2501, 10, 0.0), (0.2501, 24, 1e-12)],
        ids=["0.35", "0.2501", "0.2501-K24"],
    )
    def test_pass_matches_single_cells(self, k3_profile, R0, K, bound, grid):
        # one pass over an h-list gives each cell the bands of that cell alone.
        # Every cell is factored in the same column order, alone or in a
        # pass, so its bands are bitwise those of the cell alone wherever
        # TwistedBasis.evaluate gives the same values on the pass's strips as
        # on each strip alone: at K 10, not at K 24 (d 49), where the values
        # differ by up to 1e-15 relative to their maximum.  The h may come in
        # any order: the twist is bounded by R0, not by the first strip
        for hs in [(0.1, 0.05, 0.02, 0.005), (0.02, 0.1, 0.005, 0.05)]:
            cells = [CellGeometry(R0=R0, h=h) for h in hs]
            for cell, bands in zip(cells, band_structures(cells, k3_profile, grid, K)):
                alone = compute_bands(cell, k3_profile, grid, K)
                assert bands.dim_eff == alone.dim_eff
                assert np.max(np.abs(bands.lambdas - alone.lambdas)) <= bound

    @pytest.mark.parametrize(
        "R0, K, hs, grid, rule, qr_calls",
        [
            # the h-scan bench's list: 1 + ||F||^2 runs from 21.3 down to 1.26
            (0.35, 10, np.geomspace(0.1, 0.002, 24), [0.3], {}, 0),
            # the README run's h-loop: 21.3, 8.1 and 4.3
            (0.35, 10, (0.1, 0.05, 0.025), np.linspace(-np.pi, np.pi, 65), {}, 0),
            # the sweep bench's size: 7.2
            (0.35, 16, (0.01,), np.linspace(-np.pi, np.pi, 65), dict(n_r=48, n_t=96, n_strip=32), 0),
            # the longest strip: 2.4e13
            (0.2501, 24, (0.1,), [0.0], {}, 1),
        ],
        ids=["h-scan", "readme", "sweep", "longest-strip-K24"],
    )
    def test_strip_factorization_side(self, count_calls, k3_profile, R0, K, hs, grid, rule, qr_calls):
        # a cell takes the QR update only where 1 + ||F||_F^2 exceeds the
        # Cholesky bound; every bench and README input stays below it
        qrs = count_calls(np.linalg, "qr")
        cells = [CellGeometry(R0=R0, h=h) for h in hs]
        assert len(list(band_structures(cells, k3_profile, grid, K, **rule))) == len(cells)
        assert len(qrs) == qr_calls

    @pytest.mark.parametrize("grid", [[1.1], np.linspace(-np.pi, np.pi, 65)], ids=["single", "folded-65"])
    @pytest.mark.parametrize("K", [10, 16])
    @pytest.mark.parametrize("R0", [0.2501, 0.3, 0.35, 0.49])
    def test_cholesky_side_matches_qr_side(self, monkeypatch, k3_profile, R0, K, grid):
        # with the bound at 0 every cell takes the QR update; the Cholesky
        # side, taken where 1 + ||F||_F^2 <= 100, gives the same bands
        cells = [CellGeometry(R0=R0, h=h) for h in (0.1, 0.002)]
        default = [bands.lambdas for bands in band_structures(cells, k3_profile, grid, K)]
        monkeypatch.setattr(band_solver, "_CHOLESKY_BOUND", 0.0)
        for lams, qr in zip(default, band_structures(cells, k3_profile, grid, K)):
            assert np.max(np.abs(lams - qr.lambdas)) <= 1e-14 * np.max(np.abs(qr.lambdas))

    def test_strip_factorization_is_no_option(self):
        # the side is read off each cell's strip values, not set by a caller
        assert list(inspect.signature(band_structures).parameters) == [
            "cells", "profile", "eta_grid", "K_modes", "N_keep", "n_r", "n_t", "n_strip",
        ]
        assert list(RunConfig.__dataclass_fields__) == [
            "targets", "epsilon", "delta_override", "R0", "eta_points", "K_modes",
            "h_initial", "h_min", "N_keep", "bands_csv", "report_json", "diagnostics_json",
        ]

    def test_no_cells_no_bands(self, k3_profile):
        assert list(band_structures([], k3_profile, [0.0])) == []

    @pytest.mark.parametrize("h", [0.1, 0.002])
    @pytest.mark.parametrize("R0", [0.2501, 0.35, 0.49])
    def test_cell_gram_is_identity(self, count_calls, k3_profile, R0, h):
        # G_0 = Q0^H diag(w) Q0 is the Gram matrix on the whole cell of the
        # basis the strip's factorization makes orthonormal.  The Cholesky
        # side (R0 0.35 and 0.49) reads at most 1.7e-15; the worst defect,
        # 3.1e-14, is the QR side's on the longest strip (R0 0.2501, h 0.1).
        # At h 0.002 there (1 + ||F||^2 = 4.6e3) a Cholesky factor read
        # 2.0e-13, the QR 2.7e-15: the bound keeps that cell on the QR
        calls = count_calls(band_solver, "_fiber_bands")
        cell = CellGeometry(R0=R0, h=h)
        bands = compute_bands(cell, k3_profile, np.linspace(-np.pi, np.pi, 65))
        (_, _, G_cell, _), = calls
        d = bands.dim_eff
        assert np.max(np.abs(G_cell[0].reshape(d, d) - np.eye(d))) <= 1e-13

    @pytest.mark.parametrize(
        "R0, grid, M",
        [
            pytest.param(R0, np.linspace(-np.pi, np.pi, 65), M, id=f"folded-65-{R0}")
            for R0, M in [(0.2501, 17), (0.35, 19), (0.49, 22), (0.4999, 22)]
        ]
        + [
            pytest.param(0.35, [0.7], 0, id="single"),
            pytest.param(0.35, [-0.7, 0.7], 0, id="pair"),
            pytest.param(0.35, [0.0, 1e-3], 4, id="narrow"),
            # a narrow grid far from 0 keeps the middle: M 19 from eta0 = 0
            pytest.param(0.35, np.linspace(-np.pi, np.pi, 65)[:3], 7, id="narrow-far"),
        ],
    )
    def test_chebyshev_degree(self, k3_profile, R0, grid, M):
        # M depends only on R0, the folded grid and the disc rule, with no
        # strip: the default grid folds to [0, pi], the widest range, and
        # twists from eta0 = 0, so S = 2 pi R0 < pi and M <= 22 for every
        # R0 < 1/2; M = 0 exactly when the grid folds to one point, since S
        # is the folded range times R0 > 1/4 from its middle
        cell = CellGeometry(R0=R0, h=0.05)
        n_r, n_t, _ = band_solver._quadrature_orders(10, R0)
        folded, _ = band_solver._fold(np.asarray(grid, dtype=float))
        stage = band_solver._disc_stage(cell, k3_profile, folded, 10, n_r, n_t)
        assert stage.M == M
        assert (stage.c is None) == (M == 0)

    @pytest.mark.parametrize("K", [2, 10, 16])
    @pytest.mark.parametrize("R0", [0.2501, 0.35, 0.49])
    def test_reflected_moments_match_whole_half(self, count_calls, k3_profile, R0, K):
        # at eta0 = 0 the disc moments are summed over the upper half-disc and
        # reflected by z -> -z; against the kernel on the whole half rule
        reflections = count_calls(band_solver, "_reflection")
        cell = CellGeometry(R0=R0, h=0.05)
        n_r, n_t, _ = band_solver._quadrature_orders(K, R0)
        folded, _ = band_solver._fold(np.linspace(-np.pi, np.pi, 65))
        stage = band_solver._disc_stage(cell, k3_profile, folded, K, n_r, n_t)
        assert len(reflections) == 1 and stage.basis.eta == 0.0
        disc = stage.basis.quad
        n_half, v = mirror_half(disc)
        z = disc.nodes[:n_half]
        E = stage.basis.Q[:n_half].T.view(float)
        b = eval_cell_symbol(k3_profile, cell, z)
        ref = band_solver._chebyshev_moments(E, v[::2], b, z.imag / R0, stage.M)
        d = stage.basis.dim_eff
        moments = stage.moments.reshape(-1, d * d)
        assert np.max(np.abs(moments - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_unpaired_basis_sums_the_whole_half(self, monkeypatch, k3_profile):
        # n_r 1, n_t 4 keeps 8 of the 21 columns at K 10: the +4 column has
        # no -4 partner, so the span is not closed under z -> -z and the
        # moments are summed over the whole half rule, although the rule's
        # node counts chose eta0 = 0 for the reflection.  Each fiber against
        # its pencil formed directly on the cell rule, with the exact twist
        # weight, at the |eta| it is solved at: this span is not closed under
        # conjugation either, so the pencils at eta and -eta differ
        def forbidden(*args, **kwargs):
            raise AssertionError("an unpaired basis must not be reflected")

        monkeypatch.setattr(band_solver, "_reflection", forbidden)
        cell = CellGeometry(R0=0.35, h=0.05)
        orders = dict(n_r=1, n_t=4, n_strip=2)
        etas = np.linspace(-np.pi, np.pi, 9)
        bands = compute_bands(cell, k3_profile, etas, K_modes=10, N_keep=4, **orders)
        folded, _ = band_solver._fold(etas)
        basis = band_solver._disc_stage(cell, k3_profile, folded, 10, 1, 4).basis
        assert basis.eta == 0.0 and basis.dim_eff == bands.dim_eff == 8
        quad = build_cell_quadrature(cell, **orders)
        Q = basis.evaluate(quad.nodes)
        b = eval_cell_symbol(k3_profile, cell, quad.nodes)
        for i, eta in enumerate(etas):
            t = quad.weights * np.exp(-2.0 * abs(eta) * quad.nodes.imag)
            L_inv = np.linalg.inv(np.linalg.cholesky(compress(t, Q)))
            ev = np.linalg.eigvalsh(L_inv @ compress(b * t, Q) @ L_inv.conj().T)
            ref = ev[np.argsort(-np.abs(ev), kind="stable")][: bands.N_keep]
            assert np.max(np.abs(bands.lambdas[i] - ref)) <= 1e-12 * np.max(np.abs(ref))


def _full_heights(monkeypatch):
    """Give every strip n_strip heights, the square rule, in band_solver."""
    monkeypatch.setattr(band_solver, "_strip_heights", lambda K_modes, R0, h: np.iinfo(int).max)


class TestStripHeights:
    @pytest.mark.parametrize("K", [0, 10, 24, 40])
    @pytest.mark.parametrize("R0", [0.2501, 0.35, 0.49])
    def test_heights_do_not_grow_as_h_falls(self, R0, K):
        n_strip = band_solver._quadrature_orders(K, R0)[2]
        hs = np.geomspace(0.1, 1e-300, 600)
        heights = [min(n_strip, band_solver._strip_heights(K, R0, h)) for h in hs]
        assert np.all(np.diff(heights) <= 0)
        assert 1 <= heights[-1] and heights[0] <= n_strip

    def test_scan_heights(self):
        # the 24 h of the h-scan bench at K 10, R0 0.35: 246 heights, not 384
        n_strip = band_solver._quadrature_orders(10, 0.35)[2]
        hs = np.geomspace(0.1, 0.002, 24)
        assert [min(n_strip, band_solver._strip_heights(10, 0.35, h)) for h in hs] == [
            16, 16, 16, 16, 15, 14, 13, 12, 11, 11, 10, 10, 9, 9, 8, 8, 7, 7, 7, 7, 6, 6, 6, 6
        ]
        # the README's h-loop: 16, 15 and 11 heights at h 0.1, 0.05 and 0.025
        assert [band_solver._strip_heights(10, 0.35, h) for h in (0.1, 0.05, 0.025)] == [21, 15, 11]

    def test_capped_heights_are_the_square_rule(self, monkeypatch, k3_profile):
        # at h 0.1 the bound asks for 21 heights, so the cap gives n_strip:
        # the bands are bitwise those of the square rule
        cell = CellGeometry(R0=0.35, h=0.1)
        etas = np.linspace(-np.pi, np.pi, 65)
        derived = compute_bands(cell, k3_profile, etas)
        _full_heights(monkeypatch)
        assert np.array_equal(derived.lambdas, compute_bands(cell, k3_profile, etas).lambdas)

    @pytest.mark.parametrize(
        "h",
        [1e-300, 5e-324, np.float64(1e-300), np.float64(5e-324)],
        ids=["1e-300", "5e-324", "float64-1e-300", "float64-5e-324"],
    )
    def test_heights_at_the_smallest_h(self, k3_profile, h):
        # R0/h overflows there; the bound takes rho in logs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert band_solver._strip_heights(10, 0.35, h) == 1
            bands = compute_bands(CellGeometry(R0=0.35, h=h), k3_profile, [0.0, 1.0])
        assert np.all(np.isfinite(bands.lambdas))

    @pytest.mark.parametrize("grid", [[1.1], np.linspace(-np.pi, np.pi, 65)], ids=["single", "folded-65"])
    @pytest.mark.parametrize("K", [10, 24])
    @pytest.mark.parametrize("R0", [0.2501, 0.35, 0.49])
    def test_derived_heights_match_full_heights(self, monkeypatch, k3_profile, R0, K, grid):
        # the quadrature change alone: the derived heights against n_strip
        # heights on every strip; the worst is 1.8e-15 relative
        cells = [CellGeometry(R0=R0, h=h) for h in (0.1, 0.02, 0.002)]
        derived = [bands.lambdas for bands in band_structures(cells, k3_profile, grid, K)]
        _full_heights(monkeypatch)
        for lams, full in zip(derived, band_structures(cells, k3_profile, grid, K)):
            assert np.max(np.abs(lams - full.lambdas)) <= 1e-13 * np.max(np.abs(full.lambdas))


def _reference_fiber_bands(c, A_cell, G_cell, N_keep):
    """_fiber_bands as a loop over the fibers, each row ordered and padded
    on its own."""
    d = int(np.sqrt(A_cell.shape[1]))
    rows = np.zeros((len(c), N_keep))
    for row, ci in zip(rows, c):
        L_inv = np.linalg.inv(np.linalg.cholesky((ci @ G_cell).reshape(d, d)))
        ev = np.linalg.eigvalsh(L_inv @ (ci @ A_cell).reshape(d, d) @ L_inv.T)
        ev = ev[np.argsort(-np.abs(ev), kind="stable")][:N_keep]
        row[: ev.size] = ev
    return rows


class TestFiberBands:
    @pytest.mark.parametrize(
        "K, N_keep", [(10, 8), (1, 8)], ids=["readme", "d-below-N_keep"]
    )
    def test_matches_per_fiber_loop(self, count_calls, k3_profile, K, N_keep):
        calls = count_calls(band_solver, "_fiber_bands")
        bands = compute_bands(
            CellGeometry(R0=0.35, h=0.05), k3_profile, np.linspace(-np.pi, np.pi, 65),
            K_modes=K, N_keep=N_keep,
        )
        assert (bands.dim_eff < N_keep) == (K == 1)
        (c, A_cell, G_cell, _), = calls
        ref = _reference_fiber_bands(c, A_cell, G_cell, N_keep)
        got = band_solver._fiber_bands(c, A_cell, G_cell, N_keep)
        assert got.shape == (33, N_keep)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.all(got[:, bands.dim_eff :] == 0.0)

    @pytest.mark.parametrize(
        "h, K, rule",
        [
            (0.05, 10, {}),  # README size, d 21
            (0.01, 16, dict(n_r=48, n_t=96, n_strip=32)),  # the sweep bench's size, d 33
            (0.05, 0, {}),  # d 1
        ],
        ids=["readme", "sweep", "K0"],
    )
    def test_whitening_inverts_the_cholesky_factor(self, count_calls, k3_profile, h, K, rule):
        # X = L^-1 by forward substitution, against an explicit inv(L) per fiber
        calls = count_calls(band_solver, "_fiber_bands")
        bands = compute_bands(
            CellGeometry(R0=0.35, h=h), k3_profile, np.linspace(-np.pi, np.pi, 65),
            K_modes=K, **rule,
        )
        (c, A_cell, G_cell, N_keep), = calls
        d = bands.dim_eff
        G = (c[:, None] @ G_cell).reshape(len(c), d, d)
        A = (c[:, None] @ A_cell).reshape(len(c), d, d)
        X = band_solver._whitening(G)
        assert X.shape == (33, d, d)
        assert np.all(np.triu(X, 1) == 0.0)
        assert np.max(np.abs(X @ G @ X.transpose(0, 2, 1) - np.eye(d))) <= 1e-14 * np.max(np.abs(G))
        L_inv = np.linalg.inv(np.linalg.cholesky(G))
        ev = np.linalg.eigvalsh(L_inv @ A @ L_inv.transpose(0, 2, 1))
        ref = np.take_along_axis(ev, np.argsort(-np.abs(ev), axis=1, kind="stable"), axis=1)
        got = band_solver._fiber_bands(c, A_cell, G_cell, N_keep)
        kept = min(d, N_keep)
        assert np.max(np.abs(got[:, :kept] - ref[:, :kept])) <= 1e-14 * np.max(np.abs(ref))

    def test_equal_moduli_keep_increasing_order(self):
        # each fiber is a multiple of diag(0.5, -0.5, 0.25) and of I: the pair
        # +-0.5 ties exactly, so only a stable sort fixes its order, and d = 3
        # leaves the last two entries of a row as padding
        A_cell = np.array([np.diag([0.5, -0.5, 0.25]), np.zeros((3, 3))]).reshape(2, 9)
        G_cell = np.array([np.eye(3), 0.1 * np.eye(3)]).reshape(2, 9)
        c = np.array([[1.0, 0.0], [2.0, 1.0]])
        got = band_solver._fiber_bands(c, A_cell, G_cell, 5)
        assert np.array_equal(got[0], [-0.5, 0.5, 0.25, 0.0, 0.0])
        assert np.array_equal(got, _reference_fiber_bands(c, A_cell, G_cell, 5))


class TestChebyshevMoments:
    @pytest.mark.parametrize(
        "n",
        [
            10,  # the size of the n_r 4, n_t 2, n_strip 1 rule: below one chunk
            2 * band_solver._MOMENT_CHUNK,
            2 * band_solver._MOMENT_CHUNK + 1,  # a last chunk of one node
            2816,  # the size of the default rule: a partial last chunk
            1,
        ],
        ids=[
            "below-chunk",
            "chunk-multiple",
            "chunk-multiple-plus-one",
            "default-rule",
            "single-node",
        ],
    )
    @pytest.mark.parametrize("M", [1, 6])
    def test_matches_per_row_compress(self, rng, n, M):
        # n complex samples per column are the n (re, im) pairs of a row of R;
        # w, b and x come once per node
        d = min(n, 9)
        Q, _ = np.linalg.qr(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
        w = rng.uniform(0.5, 1.5, n)
        b = rng.uniform(-1.0, 1.0, n)
        x = rng.uniform(-1.0, 1.0, n)
        R = np.ascontiguousarray(Q.T).view(float)
        moments = band_solver._chebyshev_moments(R, w, b, x, M)

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

    def test_output_after_chunk_buffers(self, rng):
        # the 2 (M + 1) x d x d output is allocated after the chunk buffers
        # are released, so the peak stays below their bytes plus the output's.
        # At the sweep size (d 33, 2400 upper nodes, M 19) it is 138 kB below;
        # holding both at once takes it 18 kB above
        d, n, M = 33, 2400, 19
        R = rng.standard_normal((d, 2 * n))
        v, b, x = rng.uniform(0.5, 1.5, n), rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
        tracemalloc.start()
        try:
            moments = band_solver._chebyshev_moments(R, v, b, x, M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows, tri, chunk = 2 * (M + 1), d * (d + 1) // 2, band_solver._MOMENT_CHUNK
        loop_state = 8 * (rows * tri + rows * chunk + tri * chunk + 3 * d * chunk)  # upper, U, P, halves
        assert peak < loop_state + moments.nbytes

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

    def test_bad_h_rejected_before_band_work(self, monkeypatch, k3_profile):
        # every cell is built before the first basis
        def forbidden(*args, **kwargs):
            raise AssertionError("no band work before every h is checked")

        monkeypatch.setattr(band_solver, "build_basis", forbidden)
        with pytest.raises(ValueError, match=r"h must be in \(0, 1/10\], got 0.0"):
            h_convergence_study(k3_profile, [0.1, 0.05, 0.0], eta=0.0)


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
