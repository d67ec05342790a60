"""Periodic cell geometry and quadrature rules.

The fundamental cell is a disc of radius ``R0`` centered at the origin,
glued to a thin horizontal strip ("ligament") of half-width ``h`` that
reaches the vertical lines ``Re z = +-1/2``.  Integer translates of the
cell tile the periodic domain.  Everything downstream (symbol integrals,
Galerkin matrices, Floquet fibers) is driven by quadrature rules built
here, so the rules carry their own consistency invariants: positive
weights, nodes inside the region, total weight equal to the area.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CellGeometry",
    "QuadratureRule",
    "build_disc_quadrature",
    "build_cell_quadrature",
    "compress",
    "contains",
]


@dataclass(frozen=True)
class CellGeometry:
    """Disc-plus-strip periodic cell.

    Parameters
    ----------
    R0 : float
        Radius of the disc part, must lie in (1/4, 1/2) so that the disc
        neither covers the vertical cell edges nor detaches from them.
    h : float
        Half-width of the ligament strip, in (0, 1/10] and below R0.
    """

    R0: float
    h: float

    def __post_init__(self) -> None:
        if not (0.25 < self.R0 < 0.5):
            raise ValueError(f"R0 must be in (1/4, 1/2), got {self.R0}")
        if not (0.0 < self.h <= 0.1):
            raise ValueError(f"h must be in (0, 1/10], got {self.h}")
        if not (self.h < self.R0):
            raise ValueError(f"need h < R0, got h={self.h}, R0={self.R0}")

    @property
    def area(self) -> float:
        """Exact area of the cell (disc + strip - lens overlaps)."""
        R0, h = self.R0, self.h
        # Strip has area 2h * 1.  The two overlap lenses (strip cap inside
        # the disc beyond |y| <= h chords) add up to the part of the disc
        # with |Im z| < h, which is counted twice by disc + strip.
        overlap = 2.0 * (h * np.sqrt(R0**2 - h**2) + R0**2 * np.arcsin(h / R0))
        return np.pi * R0**2 + 2.0 * h - overlap


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive area weights discretizing integrals over a region."""

    nodes: np.ndarray  # complex, shape (n,)
    weights: np.ndarray  # real positive, shape (n,)

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=complex)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if np.any(weights <= 0.0):
            raise ValueError("all quadrature weights must be strictly positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        """Discrete L2 inner product  sum_j w_j conj(f_j) g_j."""
        return complex(np.sum(self.weights * np.conj(f) * g))

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self.weights * np.abs(f) ** 2)))


@functools.lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and returned read-only, since every caller shares the same arrays."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_segment(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def build_disc_quadrature(
    R0: float,
    n_r: int = 24,
    n_t: int = 48,
    radial_breaks: Sequence[float] = (),
) -> QuadratureRule:
    """Polar product rule on the disc of radius ``R0``.

    Gauss-Legendre of order ``n_r`` in radius crossed with ``n_t``
    uniformly spaced angles (the trapezoidal rule, which is exact for
    angular harmonics ``e^{ik theta}`` with ``|k| < n_t``).

    ``radial_breaks`` optionally lists interior radii where the radial
    interval is split into separate Gauss panels of order ``n_r`` each.
    This matters whenever the integrand jumps at a known circle: a single
    Gauss panel converges only at O(1/n_r) across a discontinuity, while
    panels aligned with the jump restore spectral accuracy.
    """
    if n_r < 1 or n_t < 1:
        raise ValueError(f"quadrature orders must be >= 1, got n_r={n_r}, n_t={n_t}")
    if R0 <= 0.0:
        raise ValueError(f"disc radius must be positive, got {R0}")
    breaks = sorted(float(b) for b in radial_breaks)
    if any(not (0.0 < b < R0) for b in breaks):
        raise ValueError(f"radial breaks must lie strictly inside (0, {R0})")

    edges = [0.0, *breaks, R0]
    r_parts, w_parts = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        r, w = _gauss_segment(a, b, n_r)
        r_parts.append(r)
        w_parts.append(w)
    r = np.concatenate(r_parts)
    wr = np.concatenate(w_parts)

    theta = 2.0 * np.pi * np.arange(n_t) / n_t
    w_theta = 2.0 * np.pi / n_t

    nodes = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = (wr * r)[:, None].repeat(n_t, axis=1).ravel() * w_theta
    return QuadratureRule(nodes, weights)


def build_cell_quadrature(
    cell: CellGeometry,
    n_r: int = 24,
    n_t: int = 48,
    n_strip: int = 16,
) -> QuadratureRule:
    """Quadrature over the full cell: disc rule plus strip-minus-lens pieces.

    The strip contribution covers only ``{z in S_h : |Re z| > sqrt(R0^2 - (Im z)^2)}``
    so no area is double-counted.  For each Gauss node ``y`` in ``(-h, h)``
    a mapped 1-D Gauss rule integrates ``Re z`` from the circle to the cell
    edge, on both sides; the curved inner boundary is thus resolved exactly
    per line, with no meshing.

    The disc part is split radially at ``R0/2`` because the symbols this
    package integrates are supported in ``|z| <= R0/2`` and jump at that
    circle.
    """
    if n_strip < 1:
        raise ValueError(f"n_strip must be >= 1, got {n_strip}")
    R0, h = cell.R0, cell.h

    disc = build_disc_quadrature(R0, n_r, n_t, radial_breaks=(R0 / 2.0,))

    y, wy = _gauss_segment(-h, h, n_strip)
    node_parts = [disc.nodes]
    weight_parts = [disc.weights]
    for yi, wyi in zip(y, wy):
        x_inner = np.sqrt(R0**2 - yi**2)
        x, wx = _gauss_segment(x_inner, 0.5, n_strip)
        node_parts.append(x + 1j * yi)
        node_parts.append(-x + 1j * yi)
        weight_parts.append(wx * wyi)
        weight_parts.append(wx * wyi)
    return QuadratureRule(np.concatenate(node_parts), np.concatenate(weight_parts))


def compress(
    Qh: np.ndarray, weights: np.ndarray, Q: np.ndarray, work: np.ndarray | None = None
) -> np.ndarray:
    """Galerkin matrix Q^H diag(weights) Q of the columns of Q sampled at
    quadrature nodes, symmetrized to remove the last-bit Hermiticity error
    of floating summation.  ``Qh`` is Q's conjugate transpose, passed
    C-contiguous: BLAS multiplies a transposed view about three times slower.
    ``work``, shaped like Qh, receives the weighted copy, so that a sweep
    reuses one buffer instead of allocating an n x d array per product.
    """
    M = np.multiply(Qh, weights, out=work) @ Q
    return 0.5 * (M + M.conj().T)


def contains(cell: CellGeometry, z: complex | np.ndarray) -> bool | np.ndarray:
    """Membership test for the (open) cell: disc union strip."""
    z = np.asarray(z, dtype=complex)
    in_disc = np.abs(z) < cell.R0
    in_strip = (np.abs(z.real) < 0.5) & (np.abs(z.imag) < cell.h)
    out = in_disc | in_strip
    return bool(out) if out.ndim == 0 else out
