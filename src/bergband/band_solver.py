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
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebpts1, chebvander

# build_cell_quadrature is not called here (band_structures takes the rule's
# two pieces); bench/tracing.py looks the name up in this module
from .geometry import (
    CellGeometry,
    build_cell_disc_quadrature,
    build_cell_quadrature,
    build_cell_strip_rules,
    compress,
    conjugate_half,
    mirror_half,
)
from .quasi_bergman import TwistedBasis, build_basis
from .symbols import RadialProfile, TargetSpec, eval_cell_symbol
from .disc_spectrum import N_SCAN, compute_disc_spectrum

__all__ = [
    "BandStructure",
    "SpectrumReport",
    "toeplitz_matrix",
    "compute_bands",
    "band_structures",
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
    ev = ev[np.arange(len(ev))[:, None], np.argsort(-np.abs(ev), axis=1, kind="stable")]
    out = np.zeros((len(ev), N_keep))
    out[:, : min(N_keep, ev.shape[1])] = ev[:, :N_keep]
    return out


def _whitening(G: np.ndarray) -> np.ndarray:
    """L^-1 of a stack of symmetric positive definite G = L L^T, L the lower
    Cholesky factor: X with X G X^T = I, lower triangular.  X is formed by
    forward substitution over the d rows, each step one batched product over
    the stack: X[i, i] = 1 / L[i, i] and X[i, :i] = -(L[i, :i] X[:i, :i]) /
    L[i, i], which solves L X = I row by row."""
    L = np.linalg.cholesky(G)
    d = L.shape[-1]
    X = np.zeros_like(L)
    diag = L[:, range(d), range(d)]
    X[:, range(d), range(d)] = 1.0 / diag
    for i in range(1, d):
        X[:, i, :i] = -(L[:, i, None, :i] @ X[:, :i, :i])[:, 0] / diag[:, i, None]
    return X


def _fiber_bands(c: np.ndarray, A_cell: np.ndarray, G_cell: np.ndarray, N_keep: int):
    """Band rows of one cell's fibers: fiber i is A x = lambda G x, with A and G
    the d x d matrices c[i] @ A_cell and c[i] @ G_cell, solved as eigvalsh(L^-1
    A L^-T), G = L L^T.  L^-1 is formed explicitly: cond G <= e^{2 |s|}, and
    |s| <= 2 pi R0 < pi (_disc_stage), so cond L <= e^{2 pi R0} < e^pi ~ 23
    (21.7 at R0 0.49), and the inverse costs at most that factor in rounding.
    It is formed by forward substitution for all fibers at once (_whitening),
    not by np.linalg.inv, which would LU-factor the already triangular L with
    pivoting and then solve for d right-hand sides; substitution inverts a
    triangular matrix stably with neither (Du Croz and Higham, IMA J. Numer.
    Anal. 12 (1992) 1-19), in about half the time at d 21 and 33."""
    n, d = len(c), math.isqrt(A_cell.shape[1])
    # a vector-matrix product per fiber: one GEMM c @ A_cell rounds differently
    A = (c[:, None] @ A_cell).reshape(n, d, d)
    L_inv = _whitening((c[:, None] @ G_cell).reshape(n, d, d))
    return _band_eigenvalues(L_inv @ A @ L_inv.transpose(0, 2, 1), N_keep)


def _chebyshev_terms(S: float) -> int:
    """Smallest M with 2 (S/2)^(M+1) / (M+1)! <= 2^-52 e^-S (see _disc_stage)."""
    M, tail = 0, S  # tail = 2 (S/2)^(M+1) / (M+1)!
    while tail > 2.0**-52 * math.exp(-S):
        M += 1
        tail *= 0.5 * S / (M + 1)
    return M


# Half-rule nodes per product in _chebyshev_moments: its Khatri-Rao block is
# d (d + 1) / 2 x _MOMENT_CHUNK doubles, 2.3 MB at d = 33.
_MOMENT_CHUNK = 512


def _chebyshev_moments(
    R: np.ndarray, v: np.ndarray, b: np.ndarray, x: np.ndarray, M: int
) -> np.ndarray:
    """The 2 (M + 1) real moments of _disc_stage, M >= 1, for the weight rows
    u = v b T_m(x), m = 0..M, then u = v T_m(x), m = 0..M, returned as the rows
    of a 2 (M + 1) x d^2 array, each a flattened d x d matrix.  R is d x 2n, its
    rows the basis columns on the half rule as (re, im) pairs, and v, b, x have
    one entry per node, the n pairs of columns of R.

    Entry (k, l) of every moment is sum_j u_j (re_k re_l + im_k im_l)(z_j), so
    all of them are one product of the stacked weight rows with the Khatri-Rao
    rows P[(k, l), j] = re_k re_l + im_k im_l at node j: one column per node,
    since both halves of a pair carry its weight.  The moments are symmetric,
    so P holds the upper triangle k <= l only and the lower one is mirrored.
    The nodes are taken _MOMENT_CHUNK at a time, so that P and the weight rows
    stay small: one product per chunk.
    """
    d, n = R.shape[0], v.size
    rows = 2 * (M + 1)
    k_idx, l_idx = np.triu_indices(d)
    upper = np.zeros((rows, k_idx.size))
    U = np.empty((rows, _MOMENT_CHUNK))
    P = np.empty((k_idx.size, _MOMENT_CHUNK))
    # a chunk's re and im halves, copied out of their pairs, and scratch rows
    halves = np.empty((3, d, _MOMENT_CHUNK))
    pairs = R.reshape(d, n, 2)
    for start in range(0, n, _MOMENT_CHUNK):
        nodes = slice(start, start + _MOMENT_CHUNK)
        q = pairs[:, nodes]
        size = q.shape[1]
        u, p = U[:, :size], P[:, :size]
        # rows M+1.. hold v T_m(x) by the Chebyshev recurrence, rows ..M b times them
        vT, xc = u[M + 1 :], x[nodes]
        x2 = 2.0 * xc
        vT[0] = v[nodes]
        np.multiply(vT[0], xc, out=vT[1])
        for m in range(2, M + 1):
            np.multiply(vT[m - 1], x2, out=vT[m])
            vT[m] -= vT[m - 2]
        np.multiply(vT, b[nodes], out=u[: M + 1])
        qr, qi, t = halves[:, :, :size]
        np.copyto(qr, q[..., 0])
        np.copyto(qi, q[..., 1])
        row = 0
        for k in range(d):
            pk, tk = p[row : row + d - k], t[: d - k]
            np.multiply(qr[k], qr[k:], out=pk)
            np.multiply(qi[k], qi[k:], out=tk)
            pk += tk
            row += d - k
        upper += u @ p.T
    del U, P, halves, u, p, vT, qr, qi, t, pk, tk  # the chunk buffers, before the output
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


def _strip_heights(K_modes: int, R0: float, h: float) -> int:
    """Smallest n with 2 (A/2)^(2n) / (2n)! <= 2^-52 and rho^(-2n) <= 2^-52,
    A = (4 pi K_modes + 2 pi) h and rho = R0/h + sqrt((R0/h)^2 - 1): the Gauss
    heights in y over (-h, h) that a strip of half-width h needs.

    Every strip moment is a y-integral over (-h, h) of a function analytic in
    y, and an n-point Gauss rule of such a function errs by about the tail of
    its Chebyshev series from degree 2n (Trefethen, "Is Gauss quadrature better
    than Clenshaw-Curtis?", SIAM Rev. 50 (2008)).  The function has two parts.
    The product of two columns, of exponential type 2 pi K_modes + eta0 each,
    and the twist e^{-2 (eta - eta0) y}, with eta and eta0 in [0, pi], has
    type at most A on the strip, whose tail the first bound takes.  The inner
    x-integral from sqrt(R0^2 - y^2) to 1/2 has branch points at y = +-R0, on
    the Bernstein ellipse of (-h, h) with parameter rho, whose decay the second
    bound takes.  rho is taken in logs: R0/h overflows for h near the smallest
    float.  At K_modes 10, R0 0.35 this asks for 21 heights at h 0.1, 15 at
    0.05, 11 at 0.025, 6 at 0.002 and 1 at 1e-300.
    """
    half_type = (2.0 * math.pi * K_modes + math.pi) * h  # A / 2
    log_rho = math.log(R0) - math.log(h) + math.log1p(math.sqrt(1.0 - (h / R0) * (h / R0)))
    n, tail = 1, half_type * half_type  # tail = 2 (A/2)^(2n) / (2n)!
    while tail > 2.0**-52 or 2 * n * log_rho < 52.0 * math.log(2.0):
        n += 1
        tail *= half_type * half_type / ((2 * n - 1) * (2 * n))
    return n


# A few ulp of pi: |eta_i + eta_{64-i}| reaches 4.4e-16 on linspace(-pi, pi, 65).
_FOLD_TOL = 8.0 * np.finfo(float).eps * np.pi


def _fold(etas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(folded, fiber): the distinct |eta| in increasing order (sorted |eta|
    within _FOLD_TOL merged) and each eta's index in it.  lambda_n(-eta) =
    lambda_n(eta): conjugation f(z) -> conj f(conj z) maps the eta-fiber onto
    the (-eta)-fiber antiunitarily and fixes the cell, its rule and the symbol."""
    order = np.argsort(np.abs(etas), kind="stable")
    mags = np.abs(etas)[order]
    new = np.concatenate(([True], np.diff(mags) > _FOLD_TOL))
    fiber = np.empty(etas.size, dtype=int)
    fiber[order] = np.cumsum(new) - 1
    return mags[new], fiber


# Strips per TwistedBasis.evaluate call in band_structures.
_STRIP_BATCH = 32


class _DiscStage(NamedTuple):
    """What band_structures forms once for all its cells (_disc_stage)."""

    basis: TwistedBasis  # E, orthonormal on the disc rule at eta0
    M: int  # degree of the Chebyshev series of the twist weight
    c: np.ndarray | None  # c[i, m] of folded fiber i; None when M = 0
    moments: np.ndarray  # d x d: A_0..A_M, G_0..G_M of the disc, or A_0 alone when M = 0


def _disc_stage(
    cell: CellGeometry, profile: RadialProfile, folded: np.ndarray, K_modes: int,
    n_r: int, n_t: int,
) -> _DiscStage:
    """Everything of band_structures that does not depend on h: the disc rule
    (geometry.build_cell_disc_quadrature), the symbol b (zero on the strip), and
    the basis E, orthonormalized on the disc once (build_basis, "Vandermonde
    with Arnoldi") at eta0, with its moments.  eta0 is 0 when summing over the
    upper half-disc (below) costs less than the middle of the folded range,
    and that middle otherwise, the folded point itself when there is one.

    The twist e^{i (eta - eta0) z} maps the eta0-fiber space onto the eta-fiber
    space, so each fiber is A x = lambda G x with the d x d matrices
    G = Q0^H diag(w t) Q0 and A = Q0^H diag(w b t) Q0 in the cell-orthonormal
    basis Q0, where t = |e^{i (eta - eta0) z}|^2 = e^{s x}, x = Im z / R0 and
    s = -2 (eta - eta0) R0: x lies in [-1, 1] on every cell of one R0 (its disc
    has radius R0, its strip half-width h < R0), so x, s, M and c hold on any
    strip, in any order.  e^{s x} is entire in x, and its Chebyshev series
    sum_m c_m(s) T_m(x) converges superexponentially (c_m = 2 I_m(s) for
    m >= 1), so G = sum_m c_m G_m and A = sum_m c_m A_m with the
    eta-independent moments G_m = Q0^H diag(w T_m(x)) Q0 and
    A_m = Q0^H diag(w b T_m(x)) Q0, m = 0..M: no fiber touches an n-node array.
    M is the smallest degree with 2 (S/2)^(M+1) / (M+1)! <= 2^-52 e^-S,
    S = max |s| over the folded grid: the left side bounds the series tail,
    and e^-S keeps the error at rounding level against the smallest eigenvalue
    of G, at least e^-|s|.  The folded range lies in [0, pi], so R0 < 1/2
    gives S = 2 R0 max |eta| < pi and M <= 22 from eta0 = 0 (17, 19, 20 and 22
    on linspace(-pi, pi, 65) at R0 0.2501, 0.35, 0.42 and 0.49), and S < pi/2
    and M <= 17 from the middle.  The c_m interpolate e^{s x} at numpy's
    Chebyshev points (chebpts1).  The disc moments are formed here in E;
    _cell_bands moves them to Q0, one cell at a time.

    Every moment is real symmetric: the cell, the rule, b and x are mirror
    symmetric (z -> -conj(z)) and every column of E is mirror-real
    (build_basis), so each sum over the rule is a real sum over its half
    (geometry.mirror_half), with the columns' (re, im) pairs as rows.  Both
    halves of a pair share the node's weight, symbol and x, so _chebyshev_moments
    takes those once per node (every other entry of mirror_half's v) and forms
    one Khatri-Rao column per node.

    The disc, its rule and b are also symmetric under z -> conj(z), which maps
    the half rule onto itself and x to -x, and T_m(-x) = (-1)^m T_m(x).  At
    eta0 = 0 the fiber space span{e^{2 pi i k z}} is closed under the reflection
    (P f)(z) = f(-z), and on the half rule (P q)(z) = conj q(conj z), since every
    column is mirror-real.  The columns of each Arnoldi level, +k and -k, span
    with the earlier levels a P-invariant space, so P q_l = sum_k Pi[k, l] q_k
    with Pi orthogonal, symmetric and block diagonal in the levels
    (_reflection).  So a moment's sum over the nodes below the real axis is
    (-1)^m Pi X_m+ Pi^T, where X_m+ is its sum over the nodes above it and on
    it, those at half weight (geometry.conjugate_half), and every moment is
    X_m = X_m+ + (-1)^m Pi X_m+ Pi^T: _chebyshev_moments runs on half the
    nodes.  Its cost goes as the node count times M + 1, so eta0 = 0 is taken
    when (M + 1) n_up from 0 is below (M + 1) n_half from the middle: a wide
    grid gains (at the sweep size, 2400 nodes at M 19 against 4704 at M 15 on
    [0, pi]), a narrow one far from 0 would pay the whole twist (M 19 against
    7 for the 3 eta nearest pi) and keeps the middle and the whole half rule.
    A chain that CUTOFF stopped alone leaves its level unpaired, a span not
    closed under P; such a basis, found from its signs, sums over the whole
    half rule from eta0 = 0.

    M = 0 exactly when the grid folds to one point (S is its folded range
    times R0 > 1/4), which needs no expansion: G = I by orthonormality, and
    the stage holds the stack of one A_0 = compress(v b, E^T), b per pair.
    """
    disc = build_cell_disc_quadrature(cell.R0, n_r, n_t)
    n_half, v = mirror_half(disc)
    z = disc.nodes[:n_half]
    b = eval_cell_symbol(profile, cell, z)
    middle = 0.5 * (folded[0] + folded[-1])
    M_middle, M_zero = (
        _chebyshev_terms(2.0 * cell.R0 * float(np.abs(folded - e).max())) for e in (middle, 0.0)
    )
    n_up = np.count_nonzero(z.imag >= 0.0)
    reflect = M_middle > 0 and (M_zero + 1) * n_up < (M_middle + 1) * n_half
    eta0, M = (0.0, M_zero) if reflect else (middle, M_middle)
    basis = build_basis(cell, eta0, K_modes, disc)
    # the columns' (re, im) pairs on the half rule as rows: a view, since
    # build_basis stores the columns of Q as the rows of its buffer
    E = basis.Q[:n_half].T.view(float)
    s = -2.0 * (folded - eta0) * cell.R0
    if M == 0:
        return _DiscStage(basis, M, None, compress(v * np.repeat(b, 2), E.T)[None])
    # interpolate e^{s x} at the Chebyshev points: by discrete orthogonality
    # c_m = (2 - [m = 0]) / (M + 1) sum_j e^{s x_j} T_m(x_j)
    x_cheb = chebpts1(M + 1)
    c = np.exp(np.outer(s, x_cheb)) @ chebvander(x_cheb, M) * (2.0 / (M + 1))
    c[:, 0] *= 0.5
    d, sign = basis.dim_eff, basis.sign
    if reflect and d % 2 and np.all(sign[1::2] == 1) and np.all(sign[2::2] == -1):
        upper, lower, v_up = conjugate_half(disc)
        E_up = E[:, 2 * upper.start : 2 * upper.stop]
        x = z[upper].imag / cell.R0
        moments = _chebyshev_moments(E_up, v_up, b[upper], x, M).reshape(-1, d, d)
        Pi = _reflection(E, upper, lower, v_up)
        reflected = Pi @ moments @ Pi.T
        reflected.reshape(2, M + 1, d, d)[:, 1::2] *= -1.0  # (-1)^m, exact
        moments += reflected
    else:  # from the middle, or a level left unpaired: not closed under P
        moments = _chebyshev_moments(E, v[::2], b, z.imag / cell.R0, M).reshape(-1, d, d)
    return _DiscStage(basis, M, c, moments)


def _reflection(E: np.ndarray, upper: slice, lower: tuple[slice, ...], v_up: np.ndarray):
    """The d x d matrix Pi[k, l] = <q_k, P q_l> of _disc_stage, (P q)(z) = q(-z),
    for rows E of the basis on the half rule (re, im pairs) and the upper part
    of geometry.conjugate_half.  On the half rule P q(z) = conj q(conj z), so
    Pi[k, l] = sum_half v Re(q_k(z) q_l(conj z)) = B[k, l] + B[l, k], with B the
    sum over the upper part of v_up Re(q_k(z) q_l(conj z)): each upper node
    against its conjugate, a slice of the half rule.  Pi is formed only on its
    diagonal blocks, one per Arnoldi level: 1 x 1 for the seed, then 2 x 2 for
    each pair of columns +k, -k."""
    d = E.shape[0]
    levels = (d - 1) // 2
    # re_k re_l - im_k im_l: the im entries of each pair weigh -v_up
    w = np.repeat(v_up, 2)
    w[1::2] *= -1.0
    top = E[:, 2 * upper.start : 2 * upper.stop] * w
    seed, blocks = 0.0, np.zeros((levels, 2, 2))
    start = 0
    for low in lower:
        n = 2 * (low.stop - low.start)
        a, b = top[:, start : start + n], E[:, 2 * low.start : 2 * low.stop]
        start += n
        seed += a[0] @ b[0]
        blocks += a[1:].reshape(levels, 2, n) @ b[1:].reshape(levels, 2, n).transpose(0, 2, 1)
    level = np.arange(levels)
    diagonal = np.zeros((levels, 2, levels, 2))
    diagonal[level, :, level, :] = blocks + blocks.transpose(0, 2, 1)
    Pi = np.zeros((d, d))
    Pi[0, 0] = 2.0 * seed
    Pi[1:, 1:] = diagonal.reshape(d - 1, d - 1)
    return Pi


# The largest 1 + tr S (_cell_bands) at which I + S is Cholesky-factored
_CHOLESKY_BOUND = 100.0


def _cell_bands(stage: _DiscStage, F: np.ndarray, y: np.ndarray, N_keep: int) -> np.ndarray:
    """One cell's band rows, one per folded fiber (_disc_stage): its disc
    moments moved to the cell-orthonormal basis, its strip added and each
    fiber solved.  F holds the basis on the cell's strip rule as (re, im)
    rows in build_basis' order, like E's rows, each pair already scaled by
    sqrt(2 w) of its node (w the rule's weight, doubled for the mirror half;
    band_structures scales a batch at once), and y the rule's heights.

    The strip adds S = F F^T to the Gram matrix of E, so the cell Gram matrix
    is I + S = R^T R for an upper triangular R, and E R^-1 is orthonormal on
    the cell: Q0 up to an orthogonal factor, which leaves the bands unchanged.
    Every disc moment moves to it as R^-T X R^-1, and ||R^-1|| <= 1 since
    R^T R >= I, so the move never amplifies rounding.  At M = 0, G = I and
    the bands are the moved A_0's.  Otherwise the strip adds nothing to A_m,
    and its G_m sum T_m(y / R0) times one d x d product per row of nodes of
    one height y, of the scaled strip rows moved by R^-1 (_fiber_bands).

    R comes from one of two factorizations, chosen by cond(I + S) <= 1 + tr S
    = 1 + ||F||_F^2, a bound read off S.  Where 1 + tr S <= _CHOLESKY_BOUND,
    R^T is the Cholesky factor of I + S, which is backward stable to rounding
    at that condition (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 10.1).  Every h of K 10, R0 0.35 takes this side (1 + tr S is
    21.3 at h 0.1 and falls with h), and so does K 16, h 0.01 (7.2).  Near
    R0 1/4 and at high K the QR below is taken: 1 + tr S is 1.2e5 at R0 0.26,
    K 10, h 0.1.  The bound is 100, not ~1e4: at R0 0.2501, h 0.002
    (1 + tr S = 4.6e3) the Cholesky factor left G_0 off the identity by
    2.0e-13, the QR below by 2.7e-15.  The side depends only on the cell's own
    strip values, so a cell takes the same side alone or in any h-list.

    Above the bound R comes from a QR factorization of F's rows stacked on I
    (Golub and Van Loan, Matrix Computations, 6.5), and I + S is never formed:
    its condition number reaches 9e11 (R0 0.26, K 24, h 0.1).  The order of
    that QR matters.  Outside the disc, E grows with K and with the strip's
    length 1/2 - R0 (to 7e7 at R0 0.2501, K 24), and Householder QR perturbs
    each column relative to its norm, which swamps the unit rows of I when
    they come first: the bands were then off by 8.5e-12 at R0 0.2501, K 24,
    eta 0, h 0.1.  Householder QR is row-wise stable with the rows sorted by
    decreasing size and column pivoting (Powell and Reid; Cox and Higham), so
    the strip rows go on top and the heavy columns come first, a static form of
    that pivoting.  Where E is large on the strip, its columns grow there with
    the |k| of their modes (their strip norms at R0 0.2501, K 24, h 0.1 run
    from 0.7 at k 0 to 3e6 at |k| 24), so the columns are taken in decreasing
    |k|: the reverse of the order in which build_basis creates them (k = 0,
    +1, -1, ..., +K, -K), which is the order of F's rows.  That order lives
    in the QR alone: it factors F's rows reversed, and the rows of its R^-1
    are put back in creation order, so every cell is factored alike, alone or
    in any h-list.  The case above is then within 1e-14 of a basis
    orthonormalized on the whole cell, itself within 5e-14 of a high-precision
    solve; in creation order the bands on that strip were off by 3.6e-11 at
    K 32.  Against that basis the bands agree to 1e-12 up to K 24 for every
    R0, and on the longest strip (R0 0.2501, eta 0) to 1e-11 at K 32 and 1e-9
    at K 40: the rounding of E on the strip (3e12) and of the QR that scales it
    back costs digits there.  The operand [F'^T; I], F' the reversed rows of
    F, is formed as its transpose [F', I], whose transpose is column-major, the
    layout LAPACK factors, so numpy hands it over with a plain copy.
    """
    d, M = stage.basis.dim_eff, stage.M
    S = F @ F.T
    if 1.0 + np.trace(S) <= _CHOLESKY_BOUND:
        S[np.diag_indices(d)] += 1.0
        R_inv = np.linalg.inv(np.linalg.cholesky(S)).T
    else:
        R_inv = np.linalg.inv(np.linalg.qr(np.hstack([F[::-1], np.eye(d)]).T, mode="r"))[::-1]
    moved = R_inv.T @ stage.moments @ R_inv
    if M == 0:
        return _band_eigenvalues(moved, N_keep)
    Fr = (R_inv.T @ F).reshape(d, y.size, -1).transpose(1, 0, 2)
    per_row = Fr @ Fr.transpose(0, 2, 1)
    T = chebvander(y / stage.basis.cell.R0, M).T
    A_cell, G_cell = moved.reshape(2, M + 1, d * d)
    G_cell += T @ per_row.reshape(y.size, d * d)
    return _fiber_bands(stage.c, A_cell, G_cell, N_keep)


def band_structures(
    cells: Iterable[CellGeometry],
    profile: RadialProfile,
    eta_grid: Sequence[float],
    K_modes: int = 10,
    N_keep: int = 8,
    n_r: int | None = None,
    n_t: int | None = None,
    n_strip: int | None = None,
) -> Iterator[BandStructure]:
    """Band structures over an eta grid, one per cell, from one disc stage.

    The cells share R0 (ValueError, raised by the first next() before any band
    work, wherever the offending cell is in the list) and may come in any
    order.  What does not depend on h is formed once (_disc_stage); each cell
    adds its strip and solves its fibers in one call (_cell_bands), so it gets
    the bands it gets alone.  Each distinct |eta| is solved once (_fold),
    and the rows of the caller's grid, in its order, are copies.

    The cells are taken _STRIP_BATCH at a time, when the batch's first cell is
    asked for: the batch's strip rules are built then, in one vectorized pass
    (build_cell_strip_rules), and the basis is evaluated on all of them in one
    call, each cell taking its block of the result.  A call replays the basis
    recurrence in d sequential steps, whose fixed cost outweighs the arithmetic
    on one strip, and the batch bounds a step's work on a long h-list.  A
    cell's strip factorization and fiber solves (_cell_bands) wait until it
    is asked for, so a caller that stops early builds and solves no more
    batches and cells.

    The cell quadrature orders n_r, n_t and n_strip default to None, which
    derives them from K_modes and R0 (_quadrature_orders): a fixed rule would
    integrate the products of high modes wrongly once K_modes or R0 grows.  An
    order given explicitly is used as given; n_t must be even, or the rule has
    no mirror half (ValueError).  n_strip is the strip's Gauss order in x and
    the cap on its heights in y: a cell of half-width h gets
    min(n_strip, _strip_heights(K_modes, R0, h)) rows of n_strip nodes, so
    fewer as h falls (16 at h 0.1 and 6 at h 0.002 for K_modes 10, R0 0.35).
    """
    etas = np.asarray(list(eta_grid), dtype=float)
    if etas.size == 0:
        raise ValueError("eta grid must be nonempty")
    if not np.all(np.abs(etas) <= np.pi + 1e-12):  # NaN fails too
        raise ValueError("eta grid must lie within [-pi, pi]")
    cells = list(cells)
    if not cells:
        return
    first = cells[0]
    for cell in cells:
        if cell.R0 != first.R0:
            raise ValueError(f"every cell must have R0={first.R0}, got {cell}")
    n_r, n_t, n_strip = (
        given if given is not None else derived
        for given, derived in zip((n_r, n_t, n_strip), _quadrature_orders(K_modes, first.R0))
    )
    folded, fiber = _fold(etas)
    stage = _disc_stage(first, profile, folded, K_modes, n_r, n_t)
    d = stage.basis.dim_eff
    for start in range(0, len(cells), _STRIP_BATCH):
        cut = cells[start : start + _STRIP_BATCH]
        heights = [min(n_strip, _strip_heights(K_modes, c.R0, c.h)) for c in cut]
        nodes, weights = build_cell_strip_rules(cut, n_strip, heights=heights)
        # the basis on the batch's strips, (re, im) pairs as rows, scaled in
        # place by sqrt(2 w) per node; each cell takes its block of n_strip n_y
        # nodes
        F = stage.basis.evaluate(nodes).T.view(float)
        F *= np.repeat(np.sqrt(2.0 * weights), 2)
        end = 0
        for n_y in heights:
            block = slice(end, end + n_strip * n_y)
            end = block.stop
            pairs = slice(2 * block.start, 2 * block.stop)
            y = nodes[block].imag[::n_strip]
            lambdas = _cell_bands(stage, F[:, pairs], y, N_keep)
            yield BandStructure(etas=etas, lambdas=lambdas[fiber], dim_eff=d)


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
    """Band structure of one cell over an eta grid: the one-cell case of
    band_structures, which holds the method.  n_strip is the strip rule's
    Gauss order in x and the cap on its number of heights in y, which
    band_structures derives from h."""
    return next(
        band_structures([cell], profile, eta_grid, K_modes, N_keep, n_r, n_t, n_strip)
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
    zero_tol: float = 0.0,
) -> list[tuple[float, float]]:
    """Union of band values merged into closed intervals, values closer than
    _default_merge_tol joined into one.

    Values within ``zero_tol`` of 0 are snapped to the 0-cluster, which is
    always present (each fiber operator is compact, so its eigenvalues
    accumulate at 0 regardless of truncation).
    """
    merge_tol = _default_merge_tol(bands)
    vals = bands.lambdas.ravel().astype(float)
    vals = np.where(np.abs(vals) < zero_tol, 0.0, vals)
    vals = np.sort(np.concatenate([vals, [0.0]]))
    runs = np.split(vals, np.flatnonzero(np.diff(vals) > merge_tol) + 1)
    return [(float(run[0]), float(run[-1])) for run in runs]


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

    Every cell is built, and so every h checked, before any band work; the
    bands come from one band_structures pass.
    """
    hs = [float(h) for h in h_list]
    if not hs:
        raise ValueError("h_list must be nonempty")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h_list must be strictly decreasing")
    cells = [CellGeometry(R0=R0, h=h) for h in hs]
    oracle = np.array(compute_disc_spectrum(profile, N_kept=N_SCAN).eigenvalues)
    rows = []
    for h, bands in zip(hs, band_structures(cells, profile, [eta], K_modes, n_track)):
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
