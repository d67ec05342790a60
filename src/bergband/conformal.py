"""Conformal transplantation between Bergman spaces.

For a conformal map psi : D -> Omega the weighted composition
L f = psi' * (f o psi) is a surjective isometry A^2(Omega) -> A^2(D), and
it intertwines Toeplitz operators: the symbol transported to the disc is
simply a o psi.  Only closed-form map pairs ship: identity, rotations and
Moebius disc automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ConformalPair",
    "identity_pair",
    "rotation_pair",
    "moebius_pair",
    "transplant",
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

