"""Fiber Toeplitz matrices, band functions, and spectral gap reports.

For each Floquet parameter eta the symbol's Toeplitz operator compresses
to a small Hermitian matrix in the twisted basis; sweeping eta over
[-pi, pi] yields band functions whose union over the grid approximates the
essential spectrum of the full periodic operator.  The remaining pieces
turn that union into interval components, measure their distances to
prescribed targets, and track convergence as the ligament width h shrinks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import CellGeometry, build_cell_quadrature, compress
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
    by decreasing modulus.  Rows shorter than N_keep (small effective basis
    dimension) are padded with exact zeros, consistent with the 0-cluster."""

    etas: np.ndarray  # shape (n_eta,)
    lambdas: np.ndarray  # shape (n_eta, N_keep), real
    cell: CellGeometry
    profile: RadialProfile
    K_modes: int
    dim_eff: tuple[int, ...] = ()

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
    gaps: tuple[tuple[float, float], ...]
    target_hits: tuple[dict, ...]
    delta_achieved: float
    verdict: bool


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
    Qh = np.ascontiguousarray(basis.Q.conj().T)
    return compress(Qh, basis.quad.weights * b, basis.Q)


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


@functools.lru_cache(maxsize=32)
def _chebyshev_points(M: int) -> tuple[np.ndarray, np.ndarray]:
    """The M + 1 Chebyshev points x_j = cos(pi (2j+1) / (2M+2)) and the
    matrix T[j, m] = T_m(x_j) = cos(pi m (2j+1) / (2M+2)), computed once per
    degree and returned read-only, since every caller shares the same arrays.

    The integer m (2j+1) is reduced mod 4(M+1) before the cosine, so that
    its argument stays below 2 pi: unreduced it reaches 68 at M = 22, and
    its rounding error doubled the worst band error at R0 = 0.49.
    """
    j = np.arange(M + 1)
    x = np.cos(np.pi / (2 * M + 2) * (2 * j + 1))
    T = np.cos(np.pi / (2 * M + 2) * (np.outer(2 * j + 1, j) % (4 * M + 4)))
    x.flags.writeable = False
    T.flags.writeable = False
    return x, T


def compute_bands(
    cell: CellGeometry,
    profile: RadialProfile,
    eta_grid: Sequence[float],
    K_modes: int = 10,
    N_keep: int = 8,
    n_r: int = 24,
    n_t: int = 48,
    n_strip: int = 16,
) -> BandStructure:
    """Band structure over an eta grid from one basis per geometry.

    The twist e^{i (eta - eta0) z} maps the eta0-fiber space onto the
    eta-fiber space, so the basis Q0 is orthonormalized once, at the middle
    eta0 of the grid's range, and each fiber is the generalized problem
    A x = lambda G x in the twisted columns, with the d x d matrices
    G = Q0^H diag(w t) Q0 and A = Q0^H diag(w b t) Q0, where
    t = |e^{i (eta - eta0) z}|^2 = e^{s x} with x = Im z / Y in [-1, 1],
    Y = max |Im z| over the nodes and s = -2 (eta - eta0) Y.  It is solved
    as eigvalsh(L^-1 A L^-H) with G = L L^H; cond G <= e^{2 |s|}.

    No fiber touches an n-node array.  e^{s x} is entire in x, and its
    Chebyshev series sum_m c_m(s) T_m(x) converges superexponentially
    (c_m = 2 I_m(s) for m >= 1), so G = sum_m c_m G_m and A = sum_m c_m A_m
    with the eta-independent moments G_m = Q0^H diag(w T_m(x)) Q0 and
    A_m = Q0^H diag(w b T_m(x)) Q0, m = 0..M.  M is the smallest degree
    with 2 (S/2)^(M+1) / (M+1)! <= 2^-52 e^-S, S = max |s| over the grid:
    the left side bounds the series tail, and the factor e^-S keeps the
    error at rounding level against the smallest eigenvalue of G, which is
    at least e^-|s|.  R0 < 1/2 gives S < pi and M <= 22.  A grid whose every
    point is eta0 has M = 0: one product A_0, with G_0 = I by orthonormality.
    """
    etas = np.asarray(list(eta_grid), dtype=float)
    if etas.size == 0:
        raise ValueError("eta grid must be nonempty")
    if np.any(np.abs(etas) > np.pi + 1e-12):
        raise ValueError("eta grid must lie within [-pi, pi]")
    quad = build_cell_quadrature(cell, n_r=n_r, n_t=n_t, n_strip=n_strip)
    b = eval_cell_symbol(profile, cell, quad.nodes)
    eta0 = 0.5 * (etas.min() + etas.max())
    basis = build_basis(cell, eta0, K_modes, quad)
    Q = basis.Q
    Qh = np.ascontiguousarray(Q.conj().T)
    w, wb, y = quad.weights, quad.weights * b, quad.nodes.imag

    Y = max(y.max(), -y.min())
    s = -2.0 * (etas - eta0) * Y
    M = _chebyshev_terms(float(np.abs(s).max()))
    # interpolate e^{s x} at the Chebyshev points: by discrete orthogonality
    # c_m = (2 - [m = 0]) / (M + 1) sum_j e^{s x_j} T_m(x_j)
    x_cheb, T_cheb = _chebyshev_points(M)
    c = np.exp(np.outer(s, x_cheb)) @ T_cheb * (2.0 / (M + 1))
    c[:, 0] *= 0.5
    d = basis.dim_eff
    # moment m is row m, flattened, so a fiber's combination is one product
    A_m = np.empty((M + 1, d * d), dtype=complex)
    G_m = np.empty((M + 1, d * d), dtype=complex)
    work = np.empty_like(Qh)
    A_m[0] = compress(Qh, wb, Q, work).ravel()  # T_0 = 1
    if M:  # Y > 0 here; M = 0 covers all-real nodes (n_t = n_strip = 1)
        G_m[0] = compress(Qh, w, Q, work).ravel()
        x = y / Y
        T_prev, T = 1.0, x
        for m in range(1, M + 1):
            A_m[m] = compress(Qh, wb * T, Q, work).ravel()
            G_m[m] = compress(Qh, w * T, Q, work).ravel()
            T_prev, T = T, 2.0 * x * T - T_prev

    lambdas = np.empty((etas.size, N_keep))
    for i in range(etas.size):
        A = (c[i] @ A_m).reshape(d, d)
        if M:
            L = np.linalg.cholesky((c[i] @ G_m).reshape(d, d))
            A = np.linalg.solve(L, np.linalg.solve(L, A).conj().T)
        lambdas[i] = _band_eigenvalues(A, N_keep)
    return BandStructure(
        etas=etas,
        lambdas=lambdas,
        cell=cell,
        profile=profile,
        K_modes=K_modes,
        dim_eff=(basis.dim_eff,) * etas.size,
    )


def _default_merge_tol(bands: BandStructure) -> float:
    """Resolution-aware merge tolerance: the largest adjacent-eta increment
    observed within any single band, i.e. how far the finite grid can move
    a band value without implying an actual gap."""
    if bands.etas.size < 2:
        return 1e-12
    incr = np.abs(np.diff(bands.lambdas, axis=0))
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


def _point_interval_dist(x: float, iv: tuple[float, float]) -> float:
    lo, hi = iv
    if x < lo:
        return lo - x
    if x > hi:
        return x - hi
    return 0.0


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
    gaps = [
        (components[i][1], components[i + 1][0]) for i in range(len(components) - 1)
    ]

    hits = []
    hit_idx: set[int] = set()
    for x in spec.targets:
        dists = [_point_interval_dist(x, c) for c in components]
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
        gaps=tuple(gaps),
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
