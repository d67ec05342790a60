"""Toeplitz spectra on the disc for radial symbols.

For a radial symbol the monomials z^n are exact eigenfunctions, so the
spectrum comes from a 1-D moment integral in closed form.  This module is
the oracle that everything else is measured against: the band solver's
fiber eigenvalues must converge to these numbers as the ligament shrinks.

A quadrature-based Galerkin matrix is included for cross-validation: for
radial symbols it must be diagonal with the moment eigenvalues on the
diagonal, which checks the quadrature and basis normalization at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import QuadratureRule, compress
from .symbols import RadialProfile

__all__ = [
    "DiscSpectrum",
    "moment_eigenvalue",
    "compute_disc_spectrum",
    "disc_galerkin_matrix",
    "spectral_gap",
]

ZERO_CLUSTER_TOL = 1e-14
# Taylor indices scanned for the spectrum: the moments of a profile
# supported in [0, 1/2] decay like 4^{-n}, so anything beyond a few dozen
# indices is far below double precision.
N_SCAN = 128


@dataclass(frozen=True)
class DiscSpectrum:
    """Eigenvalues ordered by decreasing modulus, with multiplicity;
    ``N_kept`` is their count."""

    eigenvalues: tuple[float, ...]

    def __post_init__(self) -> None:
        mods = np.abs(self.eigenvalues)
        if np.any(np.diff(mods) > 1e-15):
            raise ValueError("eigenvalues must be ordered by decreasing modulus")

    @property
    def N_kept(self) -> int:
        return len(self.eigenvalues)


def moment_eigenvalue(profile: RadialProfile, n: int | np.ndarray) -> float | np.ndarray:
    """n-th Taylor-coefficient eigenvalue of the Toeplitz operator T_b, or an
    array of them for an array of indices n.

    Closed form of  2 (n+1) * integral_0^s b(r) r^{2n+1} dr  for the
    polynomial profile with support radius s.  The normalization 2(n+1)
    is fixed by the identity symbol: a == 1 gives T_a = I, hence every
    eigenvalue must equal 1, and indeed 2(n+1) * 1/(2n+2) = 1, where the
    (n+1)/pi of the literal moment formula would give 1/(2 pi).  The powers
    of s are numpy's, for a single n too, so each entry of an array call is
    bitwise the call with that n alone.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError(f"eigenvalue index must be >= 0, got {n.min()}")
    s = profile.support
    integral = profile.constant_term * np.power(s, 2 * n + 2) / (2 * n + 2)
    for m, c in enumerate(profile.coeffs, start=1):
        integral += c * np.power(s, 2 * n + 2 * m + 3) / (2 * n + 2 * m + 3)
    lam = 2.0 * (n + 1) * integral
    return float(lam) if n.ndim == 0 else lam


def compute_disc_spectrum(profile: RadialProfile, N_kept: int = 32) -> DiscSpectrum:
    """Top ``N_kept`` eigenvalues by modulus, 1 <= N_kept <= N_SCAN.

    Scans Taylor indices 0..N_SCAN-1.  Values below 1e-14 in modulus are
    reported as an exact 0-cluster (0 is the only accumulation point of
    the spectrum).
    """
    if not (1 <= N_kept <= N_SCAN):
        raise ValueError(f"N_kept must be in [1, {N_SCAN}], got {N_kept}")
    lams = moment_eigenvalue(profile, np.arange(N_SCAN))
    # Decreasing |lambda|; ties broken by decreasing signed value, then index
    # (lexsort is stable, and its last key is the first).
    top = lams[np.lexsort((-lams, -np.abs(lams)))[:N_kept]]
    kept = np.where(np.abs(top) > ZERO_CLUSTER_TOL, top, 0.0)
    return DiscSpectrum(eigenvalues=tuple(kept.tolist()))


def _monomial_norm(R0: float, n: int) -> float:
    # ||z^n||^2 over the disc of radius R0 = pi R0^{2n+2} / (n+1)
    return float(np.sqrt(np.pi * R0 ** (2 * n + 2) / (n + 1)))


def disc_galerkin_matrix(
    profile: RadialProfile,
    R0: float,
    N: int,
    quad: QuadratureRule,
) -> np.ndarray:
    """Galerkin matrix of T_b on the disc of radius R0 in normalized monomials.

    M_{jk} = integral b(|z|/R0) e_j(z) conj(e_k(z)) dA with
    e_n = z^n / ||z^n||.  For radial b the angular integral kills every
    off-diagonal entry, so the matrix doubles as a quadrature diagnostic.

    Raises a ValueError when the quadrature cannot represent the monomial
    of degree N accurately (the rule is "too coarse").
    """
    if N < 1:
        raise ValueError(f"matrix size must be >= 1, got {N}")
    z = quad.nodes
    # Coarseness guard: the top monomial's norm must be exact to 1e-8, relative.
    top = z ** (N - 1)
    err = abs(quad.norm(top) - _monomial_norm(R0, N - 1)) / _monomial_norm(R0, N - 1)
    if err > 1e-8:
        raise ValueError(
            f"quadrature too coarse for N={N}: monomial norm error {err:.2e}"
        )

    cols = np.empty((z.size, N), dtype=complex)
    for n in range(N):
        cols[:, n] = z**n / _monomial_norm(R0, n)
    return compress(quad.weights * profile(np.abs(z) / R0), cols)


def spectral_gap(spec: DiscSpectrum, N: int) -> float:
    """|lambda_N| - |lambda_{N+1}| with 1-based indexing into the ordering."""
    if not (1 <= N < spec.N_kept):
        raise ValueError(f"N must satisfy 1 <= N < N_kept={spec.N_kept}, got {N}")
    lams = spec.eigenvalues
    return abs(lams[N - 1]) - abs(lams[N])
