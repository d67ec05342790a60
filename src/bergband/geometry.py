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
    "build_cell_disc_quadrature",
    "build_cell_strip_rules",
    "compress",
    "contains",
    "mirror_half",
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


def _gauss_segment(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of order n mapped to [a, b].  The endpoints may
    be arrays: they broadcast against the nodes on the last axis, so
    columns a and b give one segment per row."""
    return _mapped_segment(a, b, *_leggauss(n))


def _mapped_segment(a, b, x, w) -> tuple[np.ndarray, np.ndarray]:
    """The rule (x, w) on [-1, 1] mapped to [a, b], elementwise."""
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

    edges = np.array([0.0, *breaks, R0])[:, None]
    r, wr = (g.ravel() for g in _gauss_segment(edges[:-1], edges[1:], n_r))

    theta = 2.0 * np.pi * np.arange(n_t) / n_t
    w_theta = 2.0 * np.pi / n_t

    nodes = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = (wr * r)[:, None].repeat(n_t, axis=1).ravel() * w_theta
    return QuadratureRule(nodes, weights)


def build_cell_disc_quadrature(
    R0: float,
    n_r: int = 24,
    n_t: int = 48,
) -> QuadratureRule:
    """The disc part of ``build_cell_quadrature``, mirror-ordered on its own
    and conjugate-ordered within its half.

    The polar rule of ``build_disc_quadrature``, split radially at ``R0/2``
    (the synthesized symbols are supported in ``|z| <= R0/2`` and jump at
    that circle), listed as: the nodes with Re z > 0, then those with
    Re z = 0 (exact zeros), then the mirrors -conj(z) of the first block,
    bitwise and in the same order, with the same weights (``mirror_half``).
    Within the first two blocks every node below the real axis is the exact
    conjugate of one above it, with the same weight (``conjugate_half``):
    the Re z > 0 block is the conjugates of its upper nodes, then its nodes
    on the real axis, then those upper nodes (Im z > 0); the Re z = 0 block
    is its upper nodes, then their conjugates.  It depends on R0 alone, not
    on the ligament.  The angle pi - theta must be on the grid with every
    theta, so ``n_t`` must be even.
    """
    if n_t % 2:
        raise ValueError(f"n_t must be even for a mirror-symmetric cell rule, got n_t={n_t}")
    disc = build_disc_quadrature(R0, n_r, n_t, radial_breaks=(R0 / 2.0,))
    nodes = disc.nodes.reshape(-1, n_t)  # one row per radius, angle 2 pi k / n_t
    weights = disc.weights.reshape(-1, n_t)
    # the side of angle k is decided in integers: cos(pi / 2) is not 0 in floats
    k4 = 4 * np.arange(n_t)
    upper = (0 < k4) & (k4 < n_t)
    up_nodes, up_weights = nodes[:, upper].ravel(), weights[:, upper].ravel()
    axis_nodes = 1j * nodes[:, k4 == n_t].imag.ravel()
    axis_weights = weights[:, k4 == n_t].ravel()
    right_nodes = np.concatenate([up_nodes.conj(), nodes[:, 0], up_nodes])
    right_weights = np.concatenate([up_weights, weights[:, 0], up_weights])
    return QuadratureRule(
        np.concatenate([right_nodes, axis_nodes, axis_nodes.conj(), -right_nodes.conj()]),
        np.concatenate([right_weights, axis_weights, axis_weights, right_weights]),
    )


def build_cell_strip_rules(
    cells: Sequence[CellGeometry], n_strip: int, heights: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Strip rules for many cells in one vectorized pass, each with its own
    number of heights: 1-D nodes and weights holding the cells' rules one
    after another, cell i's rule ``heights[i]`` rows of ``n_strip`` nodes.
    Every operation is elementwise, so each cell's block is bitwise the rule
    the cell gets on its own at the same number of heights, in any cell order.

    The rule covers the right half (Re z > 0) of the strip part of
    ``build_cell_quadrature``: only ``{z in S_h : Re z > sqrt(R0^2 - (Im z)^2)}``,
    so no area is counted twice with the disc.  For each of the Gauss
    heights ``y`` in ``(-h, h)`` a mapped Gauss rule of order ``n_strip``
    integrates ``Re z`` from the circle to the cell edge 1/2; the curved inner
    boundary is thus resolved exactly per line, with no meshing.  The nodes
    are listed in rows of ``n_strip``, one row per height ``y``, the heights
    increasing.  The left half is its mirror image -conj(z).
    """
    if n_strip < 1:
        raise ValueError(f"n_strip must be >= 1, got {n_strip}")
    if min(heights, default=1) < 1:
        raise ValueError(f"every cell needs at least one height, got {heights}")
    # one entry per height row: its cell's h and R0**2 and its Gauss node on
    # [-1, 1].  R0**2 is squared in Python, as a cell's rule always was:
    # numpy's square rounds differently for about one R0 in 1200
    h = np.repeat([cell.h for cell in cells], heights)
    r2 = np.repeat([cell.R0**2 for cell in cells], heights)
    rules = [_leggauss(n) for n in heights] or [(np.empty(0), np.empty(0))]
    t, wt = (np.concatenate(part) for part in zip(*rules))
    y, wy = _mapped_segment(-h, h, t, wt)
    x, wx = _gauss_segment(np.sqrt(r2 - y**2)[:, None], 0.5, n_strip)
    return (x + 1j * y[:, None]).ravel(), (wx * wy[:, None]).ravel()


def build_cell_quadrature(
    cell: CellGeometry,
    n_r: int = 24,
    n_t: int = 48,
    n_strip: int = 16,
) -> QuadratureRule:
    """Quadrature over the full cell: the disc rule of
    ``build_cell_disc_quadrature`` plus the strip-minus-lens rule of
    ``build_cell_strip_rules`` at ``n_strip`` heights and its mirror image.

    The cell is symmetric under the mirror z -> -conj(z), and so is the
    rule, in a fixed order: first the nodes with Re z > 0 (the disc's, then
    the strip's), then those with Re z = 0, then the mirrors -conj(z) of the
    first block, bitwise and in the same order, with the same weights (see
    ``mirror_half``).  ``n_t`` must be even.
    """
    strip_nodes, strip_weights = build_cell_strip_rules([cell], n_strip, [n_strip])
    disc = build_cell_disc_quadrature(cell.R0, n_r, n_t)
    n_off = int(np.count_nonzero(disc.nodes.real > 0.0))
    axis = slice(n_off, disc.nodes.size - n_off)
    half_nodes = np.concatenate([disc.nodes[:n_off], strip_nodes])
    half_weights = np.concatenate([disc.weights[:n_off], strip_weights])
    return QuadratureRule(
        np.concatenate([half_nodes, disc.nodes[axis], -half_nodes.conj()]),
        np.concatenate([half_weights, disc.weights[axis], half_weights]),
    )


def mirror_half(rule: QuadratureRule) -> tuple[int, np.ndarray]:
    """The leading half of a mirror-ordered rule (``build_cell_quadrature``
    or ``build_cell_disc_quadrature``) and the real weights that integrate
    mirror-real products on it.

    A function with f(-conj z) = conj f(z) is real where Re z = 0.  For two
    such f and g the sum of w conj(f) g over the whole rule is therefore
    real, and equals the sum of v (Re f Re g + Im f Im g) over its first
    n_half nodes (those with Re z >= 0), where v = 2 w off the axis and
    v = w on it.  Returns n_half and v repeated for each (re, im) pair,
    length 2 n_half, so that the sum is the real dot product
    ``f[:n_half].view(float) @ (v * g[:n_half].view(float))``.

    Raises ValueError if the rule is not mirror-ordered.
    """
    z, w = rule.nodes, rule.weights
    n_off = int(np.count_nonzero(z.real > 0.0))  # nodes with Re z > 0
    n_half = z.size - n_off
    if not (
        np.all(z.real[:n_off] > 0.0)
        and np.all(z.real[n_off:n_half] == 0.0)
        and np.array_equal(z[n_half:], -z[:n_off].conj())
        and np.array_equal(w[n_half:], w[:n_off])
    ):
        raise ValueError(
            "quadrature rule is not mirror-ordered under z -> -conj(z): "
            "build it with build_cell_quadrature or build_cell_disc_quadrature and an even n_t"
        )
    v = w[:n_half].copy()
    v[:n_off] *= 2.0
    return n_half, np.repeat(v, 2)


def conjugate_half(rule: QuadratureRule) -> tuple[slice, tuple[slice, ...], np.ndarray]:
    """The upper part of the half rule of ``mirror_half`` on a rule from
    ``build_cell_disc_quadrature``, the slices holding its conjugates, and
    the weights that integrate over the half rule from it.

    The half rule is closed under the reflection z -> conj(z), and it lists
    the conjugates of its Re z > 0 upper nodes, its real nodes, those upper
    nodes, its Re z = 0 upper nodes and their conjugates, each block in the
    same order as the block it conjugates, with the same weights.  So the
    real nodes and the nodes with Im z > 0 are one slice ``upper`` of it,
    and the nodes of the slices ``lower`` of the half rule, taken one after
    another, are exactly conj(z) for the nodes z of ``upper`` in order (the
    real nodes are their own conjugates).  For any g, the sum of v g over
    the half rule (v of ``mirror_half``, one entry per node) is the sum over
    ``upper`` of v_up (g(z) + g(conj z)), where v_up is v halved on the real
    nodes; returns ``upper``, ``lower`` and v_up, one entry per node.

    Raises ValueError if the half rule is not conjugate-ordered.
    """
    n_half, v = mirror_half(rule)
    z, w = rule.nodes[:n_half], rule.weights[:n_half]
    n_off = int(np.count_nonzero(z.real > 0.0))
    n_up = int(np.count_nonzero((z.real > 0.0) & (z.imag > 0.0)))
    n_axis = int(np.count_nonzero((z.real == 0.0) & (z.imag > 0.0)))
    n_real = n_off - 2 * n_up
    up, axis = slice(n_up + n_real, n_off), slice(n_off, n_off + n_axis)
    lower = (slice(n_up, n_up + n_real), slice(0, n_up), slice(n_off + n_axis, n_half))
    if not (
        n_real >= 0
        and n_off + 2 * n_axis == n_half
        and np.all(z.imag[lower[0]] == 0.0)
        and np.all(z.imag[up] > 0.0)
        and np.all(z.imag[axis] > 0.0)
        and all(
            np.array_equal(z[low], z[top].conj()) and np.array_equal(w[low], w[top])
            for low, top in zip(lower[1:], (up, axis))
        )
    ):
        raise ValueError(
            "quadrature rule is not conjugate-ordered under z -> conj(z): "
            "build it with build_cell_disc_quadrature and an even n_t"
        )
    upper = slice(n_up, n_half - n_axis)
    v_up = v[2 * n_up : 2 * upper.stop : 2].copy()
    v_up[:n_real] *= 0.5
    return upper, lower, v_up


def compress(weights: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Galerkin matrix Q^H diag(weights) Q of the columns of Q sampled at
    quadrature nodes, symmetrized to remove the last-bit Hermiticity error
    of floating summation.  Q may be real, and then so is the result.  The
    weighted factor is Q's conjugate transpose made C-contiguous, in one
    temporary: BLAS multiplies a transposed view about three times slower.
    """
    W = np.multiply(Q.T, weights, order="C")
    M = np.conjugate(W, out=W) @ Q
    return 0.5 * (M + M.conj().T)


def contains(cell: CellGeometry, z: complex | np.ndarray) -> bool | np.ndarray:
    """Membership test for the (open) cell: disc union strip."""
    z = np.asarray(z, dtype=complex)
    in_disc = np.abs(z) < cell.R0
    in_strip = (np.abs(z.real) < 0.5) & (np.abs(z.imag) < cell.h)
    out = in_disc | in_strip
    return bool(out) if out.ndim == 0 else out
