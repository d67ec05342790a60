import numpy as np
import pytest

from bergband.geometry import build_cell_quadrature
from bergband.quasi_bergman import (
    CUTOFF,
    TwistedBasis,
    raw_mode,
    build_basis,
    project,
    twist,
    projector_distance,
)


def mgs_reference_basis(cell, eta, K_modes, quad):
    """build_basis written as per-pair, twice-iterated modified Gram-Schmidt:
    the same chains, coefficient shifts and cutoff rule, one inner product at
    a time."""
    z, w = quad.nodes, quad.weights

    def wip(f, g):
        return np.sum(w * np.conj(f) * g)

    seed = np.exp(1j * eta * z)
    nrm = np.sqrt(wip(seed, seed).real)
    c0 = np.zeros(2 * K_modes + 1, dtype=complex)
    c0[K_modes] = 1.0 / nrm
    cols, coeffs = [seed / nrm], [c0]
    head = {+1: 0, -1: 0}
    for k in range(1, K_modes + 1):
        for s in (+1, -1):
            if head[s] < 0:
                continue
            cand = np.exp(1j * s * 2.0 * np.pi * z) * cols[head[s]]
            ccoef = np.roll(coeffs[head[s]], s)
            pre = np.sqrt(wip(cand, cand).real)
            for _ in range(2):
                for q, qc in zip(cols, coeffs):
                    proj = wip(q, cand)
                    cand = cand - proj * q
                    ccoef = ccoef - proj * qc
            post = np.sqrt(wip(cand, cand).real)
            if post <= CUTOFF * pre:
                head[s] = -1
                continue
            cols.append(cand / post)
            coeffs.append(ccoef / post)
            head[s] = len(cols) - 1
    return TwistedBasis(
        eta=float(eta),
        K_modes=K_modes,
        Q=np.column_stack(cols),
        mode_coeffs=np.column_stack(coeffs),
        dim_eff=len(cols),
        cell=cell,
        quad=quad,
    )


class TestRawMode:
    def test_constant_at_zero_parameters(self):
        z = np.array([0.1 + 0.02j, -0.3j])
        assert np.allclose(raw_mode(0.0, 0, z), 1.0)

    def test_quasiperiodic_identity(self):
        # f(1/2 + iy) = e^{i eta} f(-1/2 + iy) is an algebraic identity for
        # every mode, not a property of the discretization.
        y = np.linspace(-0.09, 0.09, 11)
        for eta in (0.0, 0.7, np.pi):
            for k in (-3, 0, 5):
                lhs = raw_mode(eta, k, 0.5 + 1j * y)
                rhs = raw_mode(eta, k, -0.5 + 1j * y)
                assert np.allclose(lhs, np.exp(1j * eta) * rhs, rtol=1e-13)

    def test_value_at_origin(self):
        assert raw_mode(np.pi / 2, 1, 0.0) == pytest.approx(1.0)


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
            f = raw_mode(0.9, k, quad_mid.nodes)
            c = project(basis, f)
            assert quad_mid.norm(f - basis.Q @ c) <= 1e-8 * quad_mid.norm(f)

    def test_column_quasiperiodicity_off_grid(self, cell_mid, quad_mid):
        basis = build_basis(cell_mid, 2.0, 6, quad_mid)
        y = np.linspace(-cell_mid.h * 0.9, cell_mid.h * 0.9, 9)
        lhs = basis.evaluate(0.5 + 1j * y)
        rhs = basis.evaluate(-0.5 + 1j * y)
        assert np.max(np.abs(lhs - np.exp(2j) * rhs)) <= 1e-10 * np.max(np.abs(rhs))

    def test_evaluate_matches_samples(self, cell_mid, quad_mid):
        basis = build_basis(cell_mid, -0.4, 6, quad_mid)
        vals = basis.evaluate(quad_mid.nodes)
        assert np.max(np.abs(vals - basis.Q)) <= 1e-9

    def test_negative_k_rejected(self, cell_mid, quad_mid):
        with pytest.raises(ValueError):
            build_basis(cell_mid, 0.0, -1, quad_mid)


class TestBlockGramSchmidt:
    """build_basis against the per-pair MGS reference: same dimension, same
    span, orthonormal columns and a correct raw-mode expansion."""

    @pytest.fixture(scope="class", params=["quad_mid", "six_nodes"])
    def rule(self, request, cell_mid, quad_mid):
        if request.param == "quad_mid":
            return quad_mid
        # 2 disc panels x 1 x 2 angles + 2 strip nodes: every chain terminates
        return build_cell_quadrature(cell_mid, n_r=1, n_t=2, n_strip=1)

    @pytest.mark.parametrize("eta", [0.0, 1.3, -np.pi])
    @pytest.mark.parametrize("K", [0, 3, 10, 16])
    def test_matches_mgs_reference(self, cell_mid, rule, K, eta):
        basis = build_basis(cell_mid, eta, K, rule)
        ref = mgs_reference_basis(cell_mid, eta, K, rule)
        assert basis.dim_eff == ref.dim_eff
        assert projector_distance(basis, ref) <= 1e-12
        G = basis.Q.conj().T @ (rule.weights[:, None] * basis.Q)
        assert np.linalg.norm(G - np.eye(basis.dim_eff), 2) <= 1e-13
        # The expansion sums raw modes as large as e^{2 pi K R0}, so its
        # error is relative to the size of the summands, not of the columns.
        k = np.arange(-K, K + 1)
        modes = np.exp(1j * np.outer(rule.nodes, eta + 2.0 * np.pi * k))
        scale = np.abs(modes) @ np.abs(basis.mode_coeffs)
        err = np.abs(basis.evaluate(rule.nodes) - basis.Q)
        assert np.all(err <= 1e-10 * scale)


class TestProject:
    def test_projection_identity_on_span(self, cell_mid, quad_mid, rng):
        basis = build_basis(cell_mid, 0.6, 5, quad_mid)
        coef = rng.standard_normal(basis.dim_eff) + 1j * rng.standard_normal(basis.dim_eff)
        f = basis.Q @ coef
        c = project(basis, f)
        assert quad_mid.norm(f - basis.Q @ c) <= 1e-10 * quad_mid.norm(f)
        assert np.allclose(c, coef, atol=1e-10)

    def test_idempotence(self, cell_mid, quad_mid, rng):
        basis = build_basis(cell_mid, 0.6, 5, quad_mid)
        f = rng.standard_normal(quad_mid.nodes.size) + 1j * rng.standard_normal(
            quad_mid.nodes.size
        )
        once = basis.Q @ project(basis, f)
        twice = basis.Q @ project(basis, once)
        assert quad_mid.norm(once - twice) <= 1e-10 * max(quad_mid.norm(once), 1e-30)

    def test_antianalytic_leaves_residual(self, cell_mid, quad_mid):
        basis = build_basis(cell_mid, 0.6, 5, quad_mid)
        f = np.conj(raw_mode(0.6, 2, quad_mid.nodes))
        c = project(basis, f)
        assert quad_mid.norm(f - basis.Q @ c) > 0.1 * quad_mid.norm(f)

    def test_zero_maps_to_zero(self, cell_mid, quad_mid):
        basis = build_basis(cell_mid, 0.6, 3, quad_mid)
        assert np.all(project(basis, np.zeros(quad_mid.nodes.size)) == 0.0)

    def test_misaligned_length_rejected(self, cell_mid, quad_mid):
        basis = build_basis(cell_mid, 0.6, 3, quad_mid)
        with pytest.raises(ValueError):
            project(basis, np.zeros(7))


class TestTwist:
    def test_identity_at_equal_parameters(self, quad_mid, rng):
        f = rng.standard_normal(quad_mid.nodes.size)
        assert np.allclose(twist(0.4, 0.4, f, quad_mid.nodes), f)

    def test_maps_raw_modes_exactly(self, quad_mid):
        eta, mu, k = 0.3, 1.9, 2
        twisted = twist(eta, mu, raw_mode(eta, k, quad_mid.nodes), quad_mid.nodes)
        assert np.allclose(twisted, raw_mode(mu, k, quad_mid.nodes), rtol=1e-13)

    def test_near_identity_norm_scaling(self, cell_mid, quad_mid):
        # Discrete operator norm of I - J_{eta,mu} scales ~ |eta - mu|:
        # calibrate the constant at 0.1 and validate at 0.01.
        z = quad_mid.nodes

        def op_norm(d_eta):
            # multiplication operator: norm = max_z |1 - e^{i d_eta z}|
            return np.max(np.abs(1.0 - np.exp(1j * d_eta * z)))

        C = op_norm(0.1) / 0.1
        assert op_norm(0.01) <= 1.1 * C * 0.01


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
