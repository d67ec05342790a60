import dataclasses

import numpy as np
import pytest

from bergband import band_solver
from bergband.geometry import (
    CellGeometry,
    build_cell_disc_quadrature,
    build_cell_quadrature,
    build_cell_strip_rules,
    build_disc_quadrature,
    mirror_half,
)
from bergband.quasi_bergman import CUTOFF, TwistedBasis, build_basis, projector_distance


def mgs_reference_basis(cell, eta, K_modes, quad):
    """build_basis written as per-pair, twice-iterated modified Gram-Schmidt:
    the same chains and cutoff rule, one inner product at a time, recording
    its own summed projections so that its evaluate is an independent check.
    The projections are complex sums of mirror-symmetric columns, real up to
    rounding, and are recorded as the real H that TwistedBasis documents."""
    z, w = quad.nodes, quad.weights
    n_max = 2 * K_modes + 1

    def wip(f, g):
        return np.sum(w * np.conj(f) * g)

    seed = np.exp(1j * eta * z)
    nrm = np.sqrt(wip(seed, seed).real)
    H = np.zeros((n_max, n_max), dtype=complex)
    H[0, 0] = nrm
    cols, parent, sign = [seed / nrm], [0], [0]
    head = {+1: 0, -1: 0}
    for k in range(1, K_modes + 1):
        for s in (+1, -1):
            if head[s] < 0:
                continue
            cand = np.exp(1j * s * 2.0 * np.pi * z) * cols[head[s]]
            pre = np.sqrt(wip(cand, cand).real)
            hrow = np.zeros(len(cols), dtype=complex)
            for _ in range(2):
                for i, q in enumerate(cols):
                    proj = wip(q, cand)
                    cand = cand - proj * q
                    hrow[i] += proj
            post = np.sqrt(wip(cand, cand).real)
            if post <= CUTOFF * pre:
                head[s] = -1
                continue
            j = len(cols)
            H[j, :j], H[j, j] = hrow, post
            cols.append(cand / post)
            parent.append(head[s])
            sign.append(s)
            head[s] = j
    d = len(cols)
    assert np.max(np.abs(H.imag)) <= 1e-14 * np.max(np.abs(H))
    return TwistedBasis(
        eta=float(eta),
        Q=np.column_stack(cols),
        H=H[:d, :d].real.copy(),
        parent=np.array(parent),
        sign=np.array(sign),
        cell=cell,
        quad=quad,
    )


def complex_replay(basis, z):
    """TwistedBasis.evaluate's recurrence as its docstring writes it: both
    steps from np.exp, every product complex."""
    z = np.asarray(z, dtype=complex).ravel()
    step = {s: np.exp(1j * s * 2.0 * np.pi * z) for s in (+1, -1)}
    H = basis.H.astype(complex)
    V = np.empty((basis.dim_eff, z.size), dtype=complex)
    V[0] = np.exp(1j * basis.eta * z) / H[0, 0]
    for j in range(1, basis.dim_eff):
        V[j] = (step[basis.sign[j]] * V[basis.parent[j]] - H[j, :j] @ V[:j]) / H[j, j]
    return V.T


class TestBuildBasis:
    def test_k0_single_column(self, cell_mid, quad_mid):
        basis = build_basis(cell_mid, 0.3, 0, quad_mid)
        assert basis.dim_eff == 1
        assert quad_mid.norm(basis.Q[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_gram_identity(self, cell_mid, quad_mid):
        basis = build_basis(cell_mid, 1.1, 8, quad_mid)
        G = basis.Q.conj().T @ (quad_mid.weights[:, None] * basis.Q)
        assert np.max(np.abs(G - np.eye(basis.dim_eff))) <= 1e-10

    def test_dim_bound_and_monotone_enrichment(self, cell_mid, quad_mid):
        dims = []
        for K in (1, 3, 5, 8):
            basis = build_basis(cell_mid, 0.5, K, quad_mid)
            assert basis.dim_eff <= 2 * K + 1
            dims.append(basis.dim_eff)
        assert dims == sorted(dims)

    def test_raw_modes_reproduced(self, cell_mid, quad_mid):
        # Projecting a generating mode onto the basis must reproduce it.
        basis = build_basis(cell_mid, 0.9, 8, quad_mid)
        for k in (-4, 0, 3):
            f = np.exp(1j * (0.9 + 2.0 * np.pi * k) * quad_mid.nodes)
            c = basis.Q.conj().T @ (quad_mid.weights * f)
            assert quad_mid.norm(f - basis.Q @ c) <= 1e-8 * quad_mid.norm(f)

    def test_column_quasiperiodicity_off_grid(self, cell_mid, quad_mid):
        y = np.linspace(-cell_mid.h * 0.9, cell_mid.h * 0.9, 9)
        for K in (6, 32):
            basis = build_basis(cell_mid, 2.0, K, quad_mid)
            lhs = basis.evaluate(0.5 + 1j * y)
            rhs = basis.evaluate(-0.5 + 1j * y)
            assert np.max(np.abs(lhs - np.exp(2j) * rhs)) <= 1e-13 * np.max(np.abs(rhs))

    def test_evaluate_matches_samples(self, cell_mid, quad_mid):
        basis = build_basis(cell_mid, -0.4, 6, quad_mid)
        vals = basis.evaluate(quad_mid.nodes)
        assert np.max(np.abs(vals - basis.Q)) <= 1e-13 * np.max(np.abs(basis.Q))

    @pytest.mark.parametrize("R0", [0.2501, 0.35, 0.49])
    @pytest.mark.parametrize("K", [10, 24, 32])
    def test_evaluate_matches_complex_replay(self, rng, K, R0):
        # the real in-place replay against the complex recurrence, on the disc
        # bases band_structures builds (eta0 0, where the default grid twists
        # from, and pi/2, the middle of its folded range, which a grid takes
        # when that is cheaper): on the strips of h 0.1 and 0.002, and off
        # the grid up to |Im z| 0.45, where the columns are largest
        n_r, n_t, n_strip = band_solver._quadrature_orders(K, R0)
        cell = CellGeometry(R0=R0, h=0.1)
        disc = build_cell_disc_quadrature(R0, n_r, n_t)
        strips, _ = build_cell_strip_rules(
            [cell, CellGeometry(R0=R0, h=0.002)], n_strip, [n_strip, n_strip]
        )
        off_grid = rng.uniform(-0.5, 0.5, 300) + 1j * rng.uniform(-0.45, 0.45, 300)
        for eta0 in (0.0, np.pi / 2):
            basis = build_basis(cell, eta0, K, disc)
            for z in (strips, off_grid):
                V = basis.evaluate(z)
                assert np.max(np.abs(V - complex_replay(basis, z))) <= 1e-13 * np.max(np.abs(V))

    def test_complex_recurrence_rejected(self, cell_mid, quad_mid):
        basis = build_basis(cell_mid, 0.3, 4, quad_mid)
        with pytest.raises(ValueError, match="H must be real, got dtype complex128"):
            dataclasses.replace(basis, H=basis.H.astype(complex))

    def test_negative_k_rejected(self, cell_mid, quad_mid):
        with pytest.raises(ValueError):
            build_basis(cell_mid, 0.0, -1, quad_mid)

    def test_non_mirror_rule_rejected(self, cell_mid):
        # three angles: no disc node has its mirror -conj(z) on the grid
        with pytest.raises(ValueError, match="even n_t"):
            build_basis(cell_mid, 0.0, 3, build_disc_quadrature(0.3, n_r=4, n_t=3))

    def test_mirror_symmetry(self, cell_mid, quad_mid, rng):
        # columns with f(-conj z) = conj f(z): real recurrence, conjugate
        # samples at mirrored nodes, and conjugate values off the grid
        basis = build_basis(cell_mid, 0.7, 16, quad_mid)
        n_half, _ = mirror_half(quad_mid)
        n_off = quad_mid.nodes.size - n_half
        assert basis.H.dtype == np.float64
        assert np.array_equal(basis.Q[n_half:], basis.Q[:n_off].conj())
        z = rng.uniform(-0.5, 0.5, 200) + 1j * rng.uniform(-cell_mid.h, cell_mid.h, 200)
        vals = basis.evaluate(z)
        mirrored = basis.evaluate(-z.conj())
        assert np.max(np.abs(mirrored - vals.conj())) <= 1e-13 * np.max(np.abs(vals))


class TestBlockGramSchmidt:
    """build_basis against the per-pair MGS reference: same dimension, same
    span, orthonormal columns, and a recurrence that reproduces the columns."""

    @pytest.fixture(scope="class", params=["quad_mid", "six_nodes"])
    def rule(self, request, cell_mid, quad_mid):
        if request.param == "quad_mid":
            return quad_mid
        # 2 disc panels x 1 x 2 angles + 2 strip nodes: every chain terminates
        return build_cell_quadrature(cell_mid, n_r=1, n_t=2, n_strip=1)

    @staticmethod
    def assert_matches_mgs_reference(cell, rule, K, eta):
        # build_basis works on the half rule in real arithmetic; the
        # reference works on the whole rule in complex arithmetic
        basis = build_basis(cell, eta, K, rule)
        ref = mgs_reference_basis(cell, eta, K, rule)
        assert basis.dim_eff == ref.dim_eff
        assert projector_distance(basis, ref) <= 1e-12
        G = basis.Q.conj().T @ (rule.weights[:, None] * basis.Q)
        assert np.linalg.norm(G - np.eye(basis.dim_eff), 2) <= 1e-13
        for b in (basis, ref):
            err = np.abs(b.evaluate(rule.nodes) - b.Q)
            assert np.max(err) <= 1e-13 * np.max(np.abs(b.Q))

    @pytest.mark.parametrize("eta", [0.0, 1.3, -np.pi])
    @pytest.mark.parametrize("K", [0, 3, 10, 16, 24, 32])
    def test_matches_mgs_reference(self, cell_mid, rule, K, eta):
        self.assert_matches_mgs_reference(cell_mid, rule, K, eta)

    @pytest.mark.parametrize("eta", [0.0, 1.3, -np.pi])
    def test_chains_stop_at_different_k(self, cell_mid, eta):
        # six nodes hold six columns: the -1 chain stops at k 3 and the +1
        # chain at k 4, so the block of k 4 holds the +1 candidate alone
        rule = build_cell_quadrature(cell_mid, n_r=1, n_t=2, n_strip=1)
        basis = build_basis(cell_mid, eta, 4, rule)
        assert list(basis.sign) == [0, 1, -1, 1, -1, 1]
        self.assert_matches_mgs_reference(cell_mid, rule, 4, eta)

    @pytest.mark.parametrize("K", [24, 32])
    @pytest.mark.parametrize("R0", [0.26, 0.49])
    def test_matches_mgs_reference_across_R0(self, R0, K):
        # the smallest and largest disc, on the rule compute_bands derives
        # (up to 49,000 nodes, so one eta: the reference is slow)
        cell = CellGeometry(R0=R0, h=0.05)
        rule = build_cell_quadrature(cell, *band_solver._quadrature_orders(K, R0))
        self.assert_matches_mgs_reference(cell, rule, K, 1.3)


class TestProjectorDistance:
    def test_same_basis_zero(self, cell_mid, quad_mid):
        basis = build_basis(cell_mid, 0.5, 5, quad_mid)
        assert projector_distance(basis, basis) <= 1e-12

    def test_bounded_by_two(self, cell_mid, quad_mid):
        a = build_basis(cell_mid, -3.0, 5, quad_mid)
        b = build_basis(cell_mid, 3.0, 5, quad_mid)
        assert projector_distance(a, b) <= 2.0 + 1e-12

    def test_holder_trend(self, cell_mid, quad_mid):
        # distance(eta, mu) <= C |eta - mu|^{1/2} with C fitted at coarse
        # separation and not blown through at fine separation.
        etas = np.linspace(0.0, 2.0, 9)
        bases = [build_basis(cell_mid, e, 5, quad_mid) for e in etas]
        ratios = {}
        for i in range(len(etas)):
            for j in range(i + 1, len(etas)):
                sep = abs(etas[j] - etas[i])
                ratios[sep] = max(
                    ratios.get(sep, 0.0),
                    projector_distance(bases[i], bases[j]) / np.sqrt(sep),
                )
        coarse = max(v for s, v in ratios.items() if s >= 0.5)
        fine = max(v for s, v in ratios.items() if s <= 0.25 + 1e-12)
        assert fine <= 1.5 * coarse

    def test_quadrature_mismatch_rejected(self, cell_mid, quad_mid):
        other_quad = build_cell_quadrature(cell_mid, n_r=6, n_t=12, n_strip=4)
        a = build_basis(cell_mid, 0.0, 3, quad_mid)
        b = build_basis(cell_mid, 0.0, 3, other_quad)
        with pytest.raises(ValueError):
            projector_distance(a, b)
