"""Discrete Floquet transform on truncated periodic fields.

A field on the truncated periodic domain is stored cell-by-cell: samples
f(z + m) at the shared cell quadrature nodes for m = -M..M.  The transform

    F f (z, eta_j) = (2 pi)^{-1/2} sum_m e^{-i eta_j m} f(z + m)

is evaluated on the exact discrete dual grid of 2M+1 uniform points
eta_j in [-pi, pi).  With the measure weight 2 pi / (2M+1) attached to
each eta node, the discrete Parseval identity is exact (a character sum,
not a quadrature approximation), and the inverse transform is an exact
two-sided inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import QuadratureRule
from .quasi_bergman import TwistedBasis, twist

__all__ = [
    "CellField",
    "FloquetField",
    "eta_grid_for",
    "floquet_forward",
    "floquet_inverse",
    "field_norm",
    "floquet_norm",
    "quasimode_synthesize",
]


def eta_grid_for(M: int) -> np.ndarray:
    """The 2M+1 uniform Floquet nodes in [-pi, pi)."""
    N = 2 * M + 1
    return -np.pi + 2.0 * np.pi * np.arange(N) / N


@dataclass(frozen=True)
class CellField:
    """Samples f(z + m) over cells m = -M..M at shared quadrature nodes.

    samples[i] holds the values on cell m = i - M.
    """

    M: int
    samples: np.ndarray  # complex, shape (2M+1, n_nodes)
    quad: QuadratureRule

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 2 or s.shape[0] != 2 * self.M + 1:
            raise ValueError(f"samples must have shape (2M+1, n_nodes), got {s.shape}")
        if s.shape[1] != self.quad.nodes.size:
            raise ValueError("sample columns must match the quadrature node count")
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True)
class FloquetField:
    """Transform values g(z, eta_j) on the exact dual grid eta_grid_for(M).

    samples[j] holds the values at eta_j; the 2M+1 rows fix M and the grid.
    """

    samples: np.ndarray  # complex, shape (2M+1, n_nodes)
    quad: QuadratureRule

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 2 or s.shape[0] % 2 != 1:
            raise ValueError(f"samples must have shape (2M+1, n_nodes), got {s.shape}")
        object.__setattr__(self, "samples", s)

    @property
    def M(self) -> int:
        return (self.samples.shape[0] - 1) // 2

    @property
    def eta_grid(self) -> np.ndarray:
        return eta_grid_for(self.M)


def _character_matrix(M: int) -> np.ndarray:
    # E[j, m] = e^{-i eta_j m}, m = -M..M
    etas = eta_grid_for(M)
    ms = np.arange(-M, M + 1)
    return np.exp(-1j * np.outer(etas, ms))


def floquet_forward(field: CellField) -> FloquetField:
    E = _character_matrix(field.M)
    g = E @ field.samples / np.sqrt(2.0 * np.pi)
    return FloquetField(samples=g, quad=field.quad)


def floquet_inverse(ff: FloquetField) -> CellField:
    """Exact inverse: f(z + m) = weight * sum_j e^{i eta_j m} g(z, eta_j) / sqrt(2 pi).

    The eta-integral of the continuous inversion formula becomes the sum
    with weight 2 pi / (2M+1), for which the character orthogonality is
    exact on the matched grid.
    """
    M = ff.M
    E = _character_matrix(M)
    weight = 2.0 * np.pi / (2 * M + 1)
    f = (E.conj().T @ ff.samples) * weight / np.sqrt(2.0 * np.pi)
    return CellField(M=M, samples=f, quad=ff.quad)


def field_norm(field: CellField) -> float:
    """L2 norm over the truncated domain: cell-wise weighted sums."""
    w = field.quad.weights
    return float(np.sqrt(np.sum(w * np.abs(field.samples) ** 2)))


def floquet_norm(ff: FloquetField) -> float:
    """Norm on the transform side, with the 2 pi/(2M+1) eta measure."""
    w = ff.quad.weights
    weight = 2.0 * np.pi / ff.samples.shape[0]
    return float(np.sqrt(weight * np.sum(w * np.abs(ff.samples) ** 2)))


def quasimode_synthesize(
    band_eigvec: np.ndarray,
    basis: TwistedBasis,
    mu: float,
    n_width: int,
    M: int,
) -> CellField:
    """Build a localized near-eigenfunction on the truncated domain.

    The fiber eigenvector at eta = mu is spread over the eta-indicator
    window {|eta - mu| <= pi / n_width} (circular distance; each grid
    point in the window receives the eigenfunction twisted from mu into
    its own fiber), then transformed back.  Larger ``n_width`` means a
    narrower indicator; once pi / n_width drops below the grid spacing
    only the mu term itself survives.  For narrow windows the twists are
    near-isometries and the output norm lies in [1/2, 1] up to tolerance.
    """
    etas = eta_grid_for(M)
    j_mu = int(np.argmin(np.abs(etas - mu)))
    if abs(etas[j_mu] - mu) > 1e-9:
        raise ValueError(f"mu={mu} is not a point of the {2 * M + 1}-node eta grid")
    if n_width < 1:
        raise ValueError(f"n_width must be >= 1, got {n_width}")

    u = basis.Q @ np.asarray(band_eigvec, dtype=complex)
    nu = np.sqrt(np.sum(basis.quad.weights * np.abs(u) ** 2))
    if nu == 0.0:
        raise ValueError("eigenvector synthesizes to the zero field")
    u = u / nu

    # Circular eta-distance from mu, window radius pi / n_width.
    dist = np.abs((etas - etas[j_mu] + np.pi) % (2.0 * np.pi) - np.pi)
    window = np.flatnonzero(dist <= np.pi / n_width + 1e-12)
    weight = 2.0 * np.pi / etas.size
    # Scale so the windowed field has unit transform-side norm when the
    # twists are isometric; the actual norm then sits in [1/2, 1].
    amp = 1.0 / np.sqrt(len(window) * weight)
    g = np.zeros((etas.size, u.size), dtype=complex)
    for j in window:
        g[j] = amp * twist(mu, etas[j], u, basis.quad.nodes)
    ff = FloquetField(samples=g, quad=basis.quad)
    return floquet_inverse(ff)
