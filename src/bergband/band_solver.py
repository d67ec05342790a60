"""Fiber Toeplitz matrices, band functions, and spectral gap reports.

For each Floquet parameter eta the symbol's Toeplitz operator compresses
to a small Hermitian matrix in the twisted basis; sweeping eta over
[-pi, pi] yields band functions whose union over the grid approximates the
essential spectrum of the full periodic operator.  The remaining pieces
turn that union into interval components, measure their distances to
prescribed targets, and track convergence as the ligament width h shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebpts1, chebvander

from .geometry import CellGeometry, build_cell_quadrature, compress, mirror_half
from .quasi_bergman import TwistedBasis, build_basis
from .symbols import RadialProfile, TargetSpec, eval_cell_symbol
from .disc_spectrum import N_SCAN, compute_disc_spectrum

__all__ = [
    "BandStructure",
    "SpectrumReport",
    "toeplitz_matrix",
    "compute_bands",
    "essential_spectrum",
    "gap_report",
    "h_convergence_study",
    "almost_eigen_check",
]


@dataclass(frozen=True)
class BandStructure:
    """Band eigenvalues lambda[i, n] at eta grid point i, ordered per row
    by decreasing modulus.  One basis of dim_eff columns serves every eta;
    rows shorter than N_keep (dim_eff < N_keep) are padded with exact
    zeros, consistent with the 0-cluster."""

    etas: np.ndarray  # shape (n_eta,)
    lambdas: np.ndarray  # shape (n_eta, N_keep), real
    cell: CellGeometry
    profile: RadialProfile
    dim_eff: int

    @property
    def N_keep(self) -> int:
        return self.lambdas.shape[1]


@dataclass(frozen=True)
class SpectrumReport:
    """Interval components of the computed spectrum and their relation to targets.

    components are closed intervals [lo, hi] (hulls of the finite band
    samples -- whether the underlying true components are continua is not
    established, so the hull is what is honestly reportable); gaps are the
    open intervals between consecutive components.
    """

    components: tuple[tuple[float, float], ...]
    target_hits: tuple[dict, ...]
    delta_achieved: float
    verdict: bool

    @property
    def gaps(self) -> tuple[tuple[float, float], ...]:
        return tuple((a[1], b[0]) for a, b in zip(self.components, self.components[1:]))


def toeplitz_matrix(
    cell: CellGeometry,
    profile: RadialProfile,
    basis: TwistedBasis,
) -> np.ndarray:
    """Compression of multiplication-by-symbol to the twisted basis.

    A_{jk} = sum_nodes w * b * q_k * conj(q_j).  The symbol vanishes on
    the strip, so only disc nodes contribute.
    """
    if basis.quad.nodes.shape != basis.Q.shape[:1]:
        raise ValueError("basis matrix is inconsistent with its quadrature")
    if basis.cell != cell:
        raise ValueError("basis was built for a different cell geometry")
    b = eval_cell_symbol(profile, cell, basis.quad.nodes)
    return compress(basis.quad.weights * b, basis.Q)


def _band_eigenvalues(A: np.ndarray, N_keep: int) -> np.ndarray:
    ev = np.linalg.eigvalsh(A)
    ev = ev[np.argsort(-np.abs(ev), kind="stable")]
    out = np.zeros(N_keep)
    out[: min(N_keep, ev.size)] = ev[:N_keep]
    return out


def _chebyshev_terms(S: float) -> int:
    """Smallest M with 2 (S/2)^(M+1) / (M+1)! <= 2^-52 e^-S (see compute_bands)."""
    M, tail = 0, S  # tail = 2 (S/2)^(M+1) / (M+1)!
    while tail > 2.0**-52 * math.exp(-S):
        M += 1
        tail *= 0.5 * S / (M + 1)
    return M


# Real columns (two per half-rule node) per product in _chebyshev_moments.
# Its Khatri-Rao block is d (d + 1) / 2 x _MOMENT_CHUNK doubles: 4.6 MB at
# d = 33.
_MOMENT_CHUNK = 1024


def _chebyshev_moments(
    R: np.ndarray, v: np.ndarray, b: np.ndarray, x: np.ndarray, M: int
) -> np.ndarray:
    """The 2 (M + 1) real moments R diag(u) R^T of compute_bands, M >= 1,
    for the weight rows u = v b T_m(x), m = 0..M, then u = v T_m(x),
    m = 0..M, returned as the rows of a 2 (M + 1) x d^2 array, each a
    flattened d x d matrix.  R is d x n, its rows the basis columns on the
    half rule as (re, im) pairs, and v, b, x have one entry per column of R.

    Entry (k, l) of every moment is sum_j u_j R[k, j] R[l, j], so all of
    them are one product of the stacked weight rows with the Khatri-Rao
    rows P[(k, l), j] = R[k, j] R[l, j].  The moments are symmetric, so P
    holds the upper triangle k <= l only and the lower one is mirrored.  The
    columns are taken _MOMENT_CHUNK at a time, so that P and the weight rows
    stay small: one product per chunk.
    """
    d, n = R.shape
    rows = 2 * (M + 1)
    k_idx, l_idx = np.triu_indices(d)
    upper = np.zeros((rows, k_idx.size))
    U = np.empty((rows, _MOMENT_CHUNK))
    P = np.empty((k_idx.size, _MOMENT_CHUNK))
    for start in range(0, n, _MOMENT_CHUNK):
        cols = slice(start, start + _MOMENT_CHUNK)
        q = R[:, cols]
        size = q.shape[1]
        u, p = U[:, :size], P[:, :size]
        # rows M+1.. hold v T_m(x) by the Chebyshev recurrence, rows ..M b times them
        vT, xc = u[M + 1 :], x[cols]
        x2 = 2.0 * xc
        vT[0] = v[cols]
        np.multiply(vT[0], xc, out=vT[1])
        for m in range(2, M + 1):
            np.multiply(vT[m - 1], x2, out=vT[m])
            vT[m] -= vT[m - 2]
        np.multiply(vT, b[cols], out=u[: M + 1])
        row = 0
        for k in range(d):
            np.multiply(q[k], q[k:], out=p[row : row + d - k])
            row += d - k
        upper += u @ p.T
    moments = np.empty((rows, d, d))
    moments[:, l_idx, k_idx] = upper
    moments[:, k_idx, l_idx] = upper
    return moments.reshape(rows, d * d)


def _quadrature_orders(K_modes: int, R0: float) -> tuple[int, int, int]:
    """(n_r, n_t, n_strip) of the cell rule that resolves a basis of K_modes.

    The product of two modes e^{2 pi i k z} on the disc carries angular
    harmonics up to about 4 pi K R0, and the trapezoidal rule in theta is
    exact only for harmonics |k| < n_t.  So n_t = max(48, 8 ceil(4 pi K R0 / 8)),
    n_r = n_t / 2 and n_strip = ceil(n_t / 3); the floor keeps every K <= 10,
    R0 <= 0.38 geometry on the 24/48/16 rule.
    """
    n_t = max(48, 8 * math.ceil(4.0 * math.pi * K_modes * R0 / 8.0))
    return n_t // 2, n_t, -(-n_t // 3)


# Sorted |eta| closer than this are one fiber in compute_bands: a few ulp of
# pi (|eta_i + eta_{64-i}| reaches 4.4e-16 on linspace(-pi, pi, 65)).
_FOLD_TOL = 8.0 * np.finfo(float).eps * np.pi


def compute_bands(
    cell: CellGeometry,
    profile: RadialProfile,
    eta_grid: Sequence[float],
    K_modes: int = 10,
    N_keep: int = 8,
    n_r: int | None = None,
    n_t: int | None = None,
    n_strip: int | None = None,
) -> BandStructure:
    """Band structure over an eta grid from one basis per geometry.

    The grid is folded first.  Conjugation f(z) -> conj f(conj z) maps the
    eta-fiber antiunitarily onto the (-eta)-fiber; the cell, its rule (for
    every even n_t) and the real radial symbol are invariant under it, so
    lambda_n(-eta) = lambda_n(eta).  Each eta is therefore mapped to |eta|,
    sorted |eta| that agree to within _FOLD_TOL (a few ulp of pi, since a
    grid such as linspace(-pi, pi, 65) is not bitwise symmetric) are merged,
    each distinct |eta| is solved once, and the rows of the returned
    BandStructure, which keeps the caller's grid and order, are copies of
    those solutions.  A grid {-eta, eta} is a single fiber.

    The twist e^{i (eta - eta0) z} maps the eta0-fiber space onto the
    eta-fiber space, so the basis Q0 is orthonormalized once, at the middle
    eta0 of the folded range, and each fiber is the generalized problem
    A x = lambda G x in the twisted columns, with the d x d matrices
    G = Q0^H diag(w t) Q0 and A = Q0^H diag(w b t) Q0, where
    t = |e^{i (eta - eta0) z}|^2 = e^{s x} with x = Im z / Y in [-1, 1],
    Y = max |Im z| over the nodes and s = -2 (eta - eta0) Y.  It is solved
    as eigvalsh(L^-1 A L^-T) with G = L L^T; cond G <= e^{2 |s|}.

    No fiber touches an n-node array.  e^{s x} is entire in x, and its
    Chebyshev series sum_m c_m(s) T_m(x) converges superexponentially
    (c_m = 2 I_m(s) for m >= 1), so G = sum_m c_m G_m and A = sum_m c_m A_m
    with the eta-independent moments G_m = Q0^H diag(w T_m(x)) Q0 and
    A_m = Q0^H diag(w b T_m(x)) Q0, m = 0..M.  M is the smallest degree
    with 2 (S/2)^(M+1) / (M+1)! <= 2^-52 e^-S, S = max |s| over the folded
    grid: the left side bounds the series tail, and the factor e^-S keeps
    the error at rounding level against the smallest eigenvalue of G, which
    is at least e^-|s|.  The folded range lies in [0, pi] and eta0 is its
    middle, so R0 < 1/2 gives S < pi/2 and M <= 17; on the default grid
    linspace(-pi, pi, 65) at R0 0.35, M is 15.  The c_m interpolate e^{s x}
    at numpy's M + 1 Chebyshev points of the first kind (chebpts1), with
    T_m there from chebvander.

    Every moment is real symmetric.  The cell, the rule, the radial symbol
    b and x are invariant under the mirror z -> -conj(z), and every column
    of Q0 obeys q(-conj z) = conj q(z) (build_basis), so each sum over the
    rule is the real sum over its half (geometry.mirror_half) with the
    columns' (re, im) pairs as the rows of a real matrix R.  So all moments,
    Cholesky factors, solves and eigensolves are real.  All 2 (M + 1)
    moments come from one product per chunk of R's columns, over the upper
    triangle (_chebyshev_moments).

    M = 0 (every s is 0: a grid that folds to a single point eta0, or
    all-real nodes) is settled before any expansion: every fiber is the one
    product A_0 = compress(v b, R^T), with G_0 = I by orthonormality, and one
    eigensolve, with no coefficients, moments or Cholesky factor.

    The cell quadrature orders n_r, n_t and n_strip default to None, which
    derives them from K_modes and cell.R0 (_quadrature_orders): a fixed rule
    would integrate the products of high modes wrongly once K_modes or R0
    grows.  An order given explicitly is used as given; n_t must be even,
    or the rule has no mirror half (ValueError).
    """
    etas = np.asarray(list(eta_grid), dtype=float)
    if etas.size == 0:
        raise ValueError("eta grid must be nonempty")
    if not np.all(np.abs(etas) <= np.pi + 1e-12):  # NaN fails too
        raise ValueError("eta grid must lie within [-pi, pi]")
    n_r, n_t, n_strip = (
        given if given is not None else derived
        for given, derived in zip((n_r, n_t, n_strip), _quadrature_orders(K_modes, cell.R0))
    )
    # fold: etas[i] is solved as folded[fiber[i]]
    order = np.argsort(np.abs(etas), kind="stable")
    mags = np.abs(etas)[order]
    new = np.concatenate(([True], np.diff(mags) > _FOLD_TOL))
    folded = mags[new]
    fiber = np.empty(etas.size, dtype=int)
    fiber[order] = np.cumsum(new) - 1

    quad = build_cell_quadrature(cell, n_r=n_r, n_t=n_t, n_strip=n_strip)
    n_half, v = mirror_half(quad)
    z = quad.nodes[:n_half]
    b = np.repeat(eval_cell_symbol(profile, cell, z), 2)
    eta0 = 0.5 * (folded[0] + folded[-1])
    basis = build_basis(cell, eta0, K_modes, quad)
    # the columns' (re, im) pairs on the half rule as rows: a view, since
    # build_basis stores the columns of Q as the rows of its buffer
    R = basis.Q[:n_half].T.view(float)

    Y = max(z.imag.max(), -z.imag.min())
    s = -2.0 * (folded - eta0) * Y
    M = _chebyshev_terms(float(np.abs(s).max()))
    d = basis.dim_eff
    if M == 0:
        # every s is 0, so every fiber is A_0, with G_0 = I by orthonormality
        row = _band_eigenvalues(compress(v * b, R.T), N_keep)
        lambdas = np.tile(row, (folded.size, 1))
    else:
        # interpolate e^{s x} at the Chebyshev points: by discrete orthogonality
        # c_m = (2 - [m = 0]) / (M + 1) sum_j e^{s x_j} T_m(x_j)
        x_cheb = chebpts1(M + 1)
        c = np.exp(np.outer(s, x_cheb)) @ chebvander(x_cheb, M) * (2.0 / (M + 1))
        c[:, 0] *= 0.5
        # moment m is row m, flattened, so a fiber's combination is one product
        x = np.repeat(z.imag / Y, 2)
        A_m, G_m = np.split(_chebyshev_moments(R, v, b, x, M), 2)
        lambdas = np.empty((folded.size, N_keep))
        for i in range(folded.size):
            A = (c[i] @ A_m).reshape(d, d)
            L = np.linalg.cholesky((c[i] @ G_m).reshape(d, d))
            A = np.linalg.solve(L, np.linalg.solve(L, A).T)
            lambdas[i] = _band_eigenvalues(A, N_keep)
    return BandStructure(
        etas=etas,
        lambdas=lambdas[fiber],
        cell=cell,
        profile=profile,
        dim_eff=d,
    )


def _default_merge_tol(bands: BandStructure) -> float:
    """Resolution-aware merge tolerance: the largest adjacent-eta increment
    observed within any single band, i.e. how far the finite grid can move
    a band value without implying an actual gap.  Adjacent means adjacent
    in eta, so the rows are taken in sorted eta order, not grid order."""
    if bands.etas.size < 2:
        return 1e-12
    order = np.argsort(bands.etas, kind="stable")
    incr = np.abs(np.diff(bands.lambdas[order], axis=0))
    return float(max(np.max(incr), 1e-12))


def essential_spectrum(
    bands: BandStructure,
    merge_tol: float | None = None,
    zero_tol: float = 0.0,
) -> list[tuple[float, float]]:
    """Union of band values merged into closed intervals.

    Values within ``zero_tol`` of 0 are snapped to the 0-cluster, which is
    always present (each fiber operator is compact, so its eigenvalues
    accumulate at 0 regardless of truncation).
    """
    if merge_tol is None:
        merge_tol = _default_merge_tol(bands)
    vals = bands.lambdas.ravel().astype(float)
    vals = np.where(np.abs(vals) < zero_tol, 0.0, vals)
    vals = np.sort(np.concatenate([vals, [0.0]]))
    components: list[tuple[float, float]] = []
    lo = hi = vals[0]
    for v in vals[1:]:
        if v - hi <= merge_tol:
            hi = v
        else:
            components.append((float(lo), float(hi)))
            lo = hi = v
    components.append((float(lo), float(hi)))
    return components


def _interval_dist(a: tuple[float, float], b: tuple[float, float]) -> float:
    if a[1] < b[0]:
        return b[0] - a[1]
    if b[1] < a[0]:
        return a[0] - b[1]
    return 0.0


def gap_report(
    spectrum: Sequence[tuple[float, float]],
    spec: TargetSpec,
) -> SpectrumReport:
    """Verdict on the prescribed-spectrum goal.

    Pass requires (i) every target within epsilon of some spectral
    component, and (ii) the components hit by targets separated from the
    rest of the spectrum by at least delta.  Failures are verdicts, not
    exceptions: the report carries the achieved distances either way.
    """
    components = sorted((float(lo), float(hi)) for lo, hi in spectrum)
    if not components:
        raise ValueError("spectrum must contain at least one component")

    hits = []
    hit_idx: set[int] = set()
    for x in spec.targets:
        dists = [_interval_dist((x, x), c) for c in components]
        j = int(np.argmin(dists))
        ok = dists[j] <= spec.epsilon
        if ok:
            hit_idx.add(j)
        hits.append({"target": x, "distance": float(dists[j]), "hit": bool(ok)})

    rest = [c for j, c in enumerate(components) if j not in hit_idx]
    if hit_idx and rest:
        delta_achieved = min(
            _interval_dist(components[j], c) for j in hit_idx for c in rest
        )
    else:
        delta_achieved = float("inf")
    verdict = all(hd["hit"] for hd in hits) and delta_achieved >= spec.delta
    return SpectrumReport(
        components=tuple(components),
        target_hits=tuple(hits),
        delta_achieved=float(delta_achieved),
        verdict=bool(verdict),
    )


def h_convergence_study(
    profile: RadialProfile,
    h_list: Sequence[float],
    eta: float,
    n_track: int = 3,
    R0: float = 0.35,
    K_modes: int = 10,
) -> list[dict]:
    """Track fiber eigenvalues against the disc oracle along decreasing h.

    Returns one row per h: {"h", "lambdas", "errors"} where lambdas are
    the n_track fiber eigenvalues of largest modulus and errors[n] is the
    distance of lambdas[n] to the nearest of the N_SCAN disc oracle
    eigenvalues.  Pairing by modulus rank would never converge when targets
    +x and -x share a modulus: the fiber and the oracle may order them
    differently.
    """
    hs = [float(h) for h in h_list]
    if not hs:
        raise ValueError("h_list must be nonempty")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h_list must be strictly decreasing")
    oracle = np.array(compute_disc_spectrum(profile, N_kept=N_SCAN).eigenvalues)
    rows = []
    for h in hs:
        cell = CellGeometry(R0=R0, h=h)
        bands = compute_bands(cell, profile, [eta], K_modes=K_modes, N_keep=n_track)
        lams = bands.lambdas[0]
        rows.append(
            {
                "h": h,
                "lambdas": lams.tolist(),
                "errors": np.abs(lams[:, None] - oracle).min(axis=1).tolist(),
            }
        )
    return rows


def almost_eigen_check(matrix: np.ndarray, vector: np.ndarray, mu: float) -> float:
    """Distance from mu to the spectrum of a Hermitian matrix.

    For any unit vector v the distance is bounded by the residual
    ||A v - mu v||; this function returns the exact distance so callers
    can assert that inequality as a numerical soundness check.
    """
    A = np.asarray(matrix, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(A - A.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(A))):
        raise ValueError("matrix must be Hermitian")
    v = np.asarray(vector, dtype=complex)
    nv = np.linalg.norm(v)
    if abs(nv - 1.0) > 1e-8:
        raise ValueError(f"vector must be unit-norm, got ||v|| = {nv}")
    ev = np.linalg.eigvalsh(A)
    return float(np.min(np.abs(ev - mu)))
