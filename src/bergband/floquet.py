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

__all__ = [
    "CellField",
    "FloquetField",
    "eta_grid_for",
    "floquet_forward",
    "floquet_inverse",
    "field_norm",
    "floquet_norm",
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

