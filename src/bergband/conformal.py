"""Conformal transplantation between Bergman spaces.

For a conformal map psi : D -> Omega the weighted composition
L f = psi' * (f o psi) is a surjective isometry A^2(Omega) -> A^2(D), and
it intertwines Toeplitz operators: the symbol transported to the disc is
simply a o psi.  Only closed-form map pairs ship: identity, rotations,
Moebius disc automorphisms, and the rectangle-to-annulus exponential
phi(z) = e^{2 pi i z - 2 pi} (the map that sends the periodic cell into a
compactly contained subset of the unit disc).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .disc_spectrum import monomial_galerkin_matrix
from .geometry import QuadratureRule

__all__ = [
    "ConformalPair",
    "identity_pair",
    "rotation_pair",
    "moebius_pair",
    "rect_exp_pair",
    "transplant",
    "transplant_symbol",
    "spectral_equivalence_check",
]


@dataclass(frozen=True)
class ConformalPair:
    """A conformal map psi: D -> Omega with derivative and inverse.

    psi and phi are mutual inverses (phi o psi = id on the disc); dpsi is
    the complex derivative of psi.  All three are vectorized callables on
    complex arrays.
    """

    psi: Callable[[np.ndarray], np.ndarray]
    dpsi: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], np.ndarray]
    tag: str


def identity_pair() -> ConformalPair:
    one = lambda z: np.ones_like(np.asarray(z, dtype=complex))
    ident = lambda z: np.asarray(z, dtype=complex)
    return ConformalPair(psi=ident, dpsi=one, phi=ident, tag="identity")


def rotation_pair(theta: float) -> ConformalPair:
    rot = np.exp(1j * theta)
    return ConformalPair(
        psi=lambda z: rot * np.asarray(z, dtype=complex),
        dpsi=lambda z: np.full_like(np.asarray(z, dtype=complex), rot),
        phi=lambda z: np.conj(rot) * np.asarray(z, dtype=complex),
        tag=f"rotation({theta})",
    )


def moebius_pair(alpha: complex) -> ConformalPair:
    """Disc automorphism psi(w) = (w + alpha) / (1 + conj(alpha) w), |alpha| < 1."""
    alpha = complex(alpha)
    if not (abs(alpha) < 1.0):  # NaN fails too
        raise ValueError(f"Moebius parameter must satisfy |alpha| < 1, got {alpha}")
    ac = np.conj(alpha)
    fac = 1.0 - abs(alpha) ** 2

    def psi(w):
        w = np.asarray(w, dtype=complex)
        return (w + alpha) / (1.0 + ac * w)

    def dpsi(w):
        w = np.asarray(w, dtype=complex)
        return fac / (1.0 + ac * w) ** 2

    def phi(z):
        z = np.asarray(z, dtype=complex)
        return (z - alpha) / (1.0 - ac * z)

    return ConformalPair(psi=psi, dpsi=dpsi, phi=phi, tag=f"moebius({alpha})")


def rect_exp_pair() -> ConformalPair:
    """The exponential phi(z) = e^{2 pi i z - 2 pi} out of the centered square.

    phi maps the horizontal band |Im z| < 1/2 into the punctured disc
    (|phi| <= e^{-pi} < 1 there), in particular it maps the periodic cell
    to a compactly contained subset of the unit disc.  psi is the branch
    of the inverse with Re psi in (-1/2, 1/2].
    """

    def phi(z):
        z = np.asarray(z, dtype=complex)
        return np.exp(2j * np.pi * z - 2.0 * np.pi)

    def psi(w):
        w = np.asarray(w, dtype=complex)
        return (np.log(w) + 2.0 * np.pi) / (2j * np.pi)

    def dpsi(w):
        w = np.asarray(w, dtype=complex)
        return 1.0 / (2j * np.pi * w)

    return ConformalPair(psi=psi, dpsi=dpsi, phi=phi, tag="rect_exp")


def transplant(
    f: Callable[[np.ndarray], np.ndarray],
    pair: ConformalPair,
    w_nodes: np.ndarray,
) -> np.ndarray:
    """Samples of L f = psi' * (f o psi) at disc-side points ``w_nodes``."""
    w = np.asarray(w_nodes, dtype=complex)
    d = pair.dpsi(w)
    if np.any(np.abs(d) < 1e-14):
        raise ValueError(f"derivative of {pair.tag} vanishes at a sample point")
    return d * f(pair.psi(w))


def transplant_symbol(
    a: Callable[[np.ndarray], np.ndarray],
    pair: ConformalPair,
) -> Callable[[np.ndarray], np.ndarray]:
    """Symbol transported to the disc: a o psi (sup-norm preserved)."""

    def a_disc(w):
        return a(pair.psi(np.asarray(w, dtype=complex)))

    return a_disc


def spectral_equivalence_check(
    a: Callable[[np.ndarray], np.ndarray],
    pair: ConformalPair,
    N: int,
    quad: QuadratureRule,
) -> float:
    """Hausdorff distance between truncated spectra before and after transplant.

    Compares the N x N Galerkin eigenvalues of the symbol ``a`` on the
    disc against those of ``a o psi``; both truncations use the monomial
    basis, which the unitary L does not preserve, so the distance is small
    but generically nonzero and should shrink as N grows.  Requires a
    disc-to-disc pair.
    """
    if N > 16:
        raise ValueError(f"N must be <= 16 for a meaningful truncation check, got {N}")
    ev_omega, ev_disc = (
        np.linalg.eigvalsh(monomial_galerkin_matrix(f(quad.nodes), 1.0, N, quad))
        for f in (a, transplant_symbol(a, pair))
    )
    d1 = np.max(np.abs(ev_omega[:, None] - ev_disc[None, :]).min(axis=1))
    d2 = np.max(np.abs(ev_disc[:, None] - ev_omega[None, :]).min(axis=1))
    return float(max(d1, d2))
