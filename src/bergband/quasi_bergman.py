"""Discrete quasiperiodic Bergman spaces on the periodic cell.

The fiber space at Floquet parameter eta consists of analytic functions on
the cell satisfying f(1/2 + iy) = e^{i eta} f(-1/2 + iy) across the
ligament.  The twisted Laurent modes e^{i (eta + 2 pi k) z}, k = -K..K,
satisfy this identity exactly and are entire, so orthonormalizing their
samples in the quadrature inner product yields a discrete model of the
fiber space.

The raw modes are Vandermonde-grade ill-conditioned (they grow like
e^{2 pi |k| R0} across the disc), so the basis is never formed by QR of a
raw sample matrix.  Instead each new mode is produced by multiplying the
previous orthonormal vector in its chain by e^{+-2 pi i z} and
re-orthogonalizing it (the multiply-then-orthogonalize strategy that
keeps Krylov-style recurrences stable where the plain Vandermonde matrix
would lose all digits).  The re-orthogonalization is classical
Gram-Schmidt done twice, each pass one block projection against all
accepted columns (two matrix-vector products), so it runs at BLAS speed.
A single classical pass can lose orthogonality in proportion to the
condition of the candidates, but a second pass restores it to the level of
the unit roundoff whenever the candidate is numerically independent of the
accepted columns ("twice is enough": Giraud, Langou and Rozloznik, Comput.
Math. Appl. 50 (2005) 1069-1075); dependent candidates are what ``CUTOFF``
rejects.

Every basis column also carries its expansion over the raw modes, so
columns can be evaluated at arbitrary points off the quadrature grid; the
quasiperiodic boundary identity then holds analytically, not just at the
nodes.  The expansion is exact in exact arithmetic only: its coefficients
grow like e^{2 pi K R0} and cancel, so in floating point it loses digits
as K grows (see ``TwistedBasis.evaluate``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CellGeometry, QuadratureRule

__all__ = [
    "TwistedBasis",
    "DegenerateBasisError",
    "raw_mode",
    "build_basis",
    "project",
    "twist",
    "projector_distance",
]

# A candidate whose orthogonal remainder is below this fraction of its norm
# is numerically dependent: double precision cannot resolve it further.
CUTOFF = 1e-12


class DegenerateBasisError(RuntimeError):
    """All candidate directions fell below the cutoff; no basis vector survived."""


@dataclass(frozen=True)
class TwistedBasis:
    """Orthonormal discrete basis of the eta-fiber space.

    Attributes
    ----------
    eta : float
        Floquet parameter in [-pi, pi].
    K_modes : int
        Maximal raw mode index; the generating family is k = -K..K.
    Q : ndarray, shape (n_nodes, dim_eff)
        Column-orthonormal in the weighted inner product: Q^H W Q = I.
    mode_coeffs : ndarray, shape (2 K + 1, dim_eff)
        Expansion of each column over raw modes (row index k + K),
        enabling evaluation away from the quadrature nodes; exact in exact
        arithmetic, with cancellation error growing like e^{2 pi K R0}.
    dim_eff : int
        Number of directions that survived the conditioning cutoff.
    """

    eta: float
    K_modes: int
    Q: np.ndarray
    mode_coeffs: np.ndarray
    dim_eff: int
    cell: CellGeometry
    quad: QuadratureRule

    def evaluate(self, z: complex | np.ndarray) -> np.ndarray:
        """Basis column values at arbitrary points, via the raw-mode expansion.

        The expansion is exact in exact arithmetic.  In floating point its
        terms reach e^{2 pi K R0} and cancel: at the quadrature nodes the
        values match Q to about 2.8e-10 (K = 16), 2.4e-7 (K = 24) and
        4.8e-4 (K = 32) relative to max |Q| at h = 0.05 on the default
        cell quadrature.
        """
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        k = np.arange(-self.K_modes, self.K_modes + 1)
        modes = np.exp(1j * np.outer(z, self.eta + 2.0 * np.pi * k))
        return modes @ self.mode_coeffs


def raw_mode(eta: float, k: int, z: complex | np.ndarray):
    """Generating mode e^{i (eta + 2 pi k) z}; quasiperiodic by construction."""
    z = np.asarray(z, dtype=complex)
    out = np.exp(1j * (eta + 2.0 * np.pi * k) * z)
    return complex(out) if out.ndim == 0 else out


def build_basis(
    cell: CellGeometry,
    eta: float,
    K_modes: int,
    quad: QuadratureRule,
) -> TwistedBasis:
    """Orthonormalize the twisted Laurent family at the quadrature nodes.

    Starting from the normalized seed e^{i eta z}, modes with k = +-1,
    +-2, ... are generated by multiplying the most recent vector of the
    corresponding chain by e^{+-2 pi i z}, followed by classical
    Gram-Schmidt done twice (CGS2): each pass subtracts the candidate's
    block projection Q Q^H W cand onto all accepted columns at once, and the
    second pass removes what the first left behind.  A candidate whose
    orthogonal remainder is below ``CUTOFF`` relative to its pre-projection
    norm is numerically dependent and is discarded (and its chain stops,
    since further multiples would inherit the dependency).
    """
    if K_modes < 0:
        raise ValueError(f"K_modes must be >= 0, got {K_modes}")
    z, w = quad.nodes, quad.weights
    n_coeff = 2 * K_modes + 1

    def wnorm(f):
        return np.sqrt(np.dot(w, f.real**2 + f.imag**2))

    # Accepted columns are the rows of Qt, their raw-mode coefficients the
    # rows of C; the first m rows of each are filled.
    Qt = np.empty((n_coeff, z.size), dtype=complex)
    C = np.zeros((n_coeff, n_coeff), dtype=complex)

    seed = np.exp(1j * eta * z)
    nrm = wnorm(seed)
    if not np.isfinite(nrm) or nrm == 0.0:
        raise DegenerateBasisError("seed mode has zero or non-finite norm")
    Qt[0] = seed / nrm
    C[0, K_modes] = 1.0 / nrm
    m = 1

    step = {s: np.exp(1j * s * 2.0 * np.pi * z) for s in (+1, -1)}
    head = {+1: 0, -1: 0}  # row of the last accepted column per chain
    for k in range(1, K_modes + 1):
        for s in (+1, -1):
            if head[s] < 0:
                continue  # chain terminated at an earlier k
            cand = step[s] * Qt[head[s]]
            ccoef = np.roll(C[head[s]], s)  # multiply = shift in mode index
            pre = wnorm(cand)
            for _ in range(2):  # twice is enough (Giraud-Langou-Rozloznik)
                proj = np.conj(Qt[:m] @ np.conj(w * cand))  # Q^H W cand
                cand -= proj @ Qt[:m]
                ccoef -= proj @ C[:m]
            post = wnorm(cand)
            if post <= CUTOFF * pre:
                head[s] = -1
                continue
            Qt[m] = cand / post
            C[m] = ccoef / post
            head[s] = m
            m += 1

    return TwistedBasis(
        eta=float(eta),
        K_modes=K_modes,
        Q=Qt[:m].T,
        mode_coeffs=C[:m].T,
        dim_eff=m,
        cell=cell,
        quad=quad,
    )


def project(basis: TwistedBasis, f_samples: np.ndarray) -> np.ndarray:
    """Coefficients of the discrete fiber projection: c = Q^H W f.

    The projected field itself is ``basis.Q @ c``; applying project to it
    returns c again (idempotence of the discrete projector).
    """
    f = np.asarray(f_samples, dtype=complex)
    if f.shape != basis.quad.nodes.shape:
        raise ValueError(
            f"sample length {f.shape} does not match quadrature {basis.quad.nodes.shape}"
        )
    return basis.Q.conj().T @ (basis.quad.weights * f)


def twist(eta: float, mu: float, f_samples: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Twist operator: multiplication by e^{i (mu - eta) z}.

    Maps eta-quasiperiodic sample data to mu-quasiperiodic data; for
    mu = eta it is the identity.
    """
    f = np.asarray(f_samples, dtype=complex)
    z = np.asarray(nodes, dtype=complex)
    return np.exp(1j * (mu - eta) * z) * f


def projector_distance(basis_a: TwistedBasis, basis_b: TwistedBasis) -> float:
    """Spectral norm of P_a - P_b as weighted discrete projectors.

    Written in the symmetrized variables U = W^{1/2} Q (so that U has
    orthonormal columns in the plain Euclidean sense), the distance is
    max(||(I - P_b) P_a||, ||(I - P_a) P_b||), each factor computable from
    a thin n x dim matrix -- the full n x n projectors are never formed.
    """
    qa, qb = basis_a.quad, basis_b.quad
    if qa.nodes.shape != qb.nodes.shape or not np.allclose(qa.nodes, qb.nodes):
        raise ValueError("projector_distance requires bases on the same quadrature")
    sqw = np.sqrt(qa.weights)[:, None]
    Ua = sqw * basis_a.Q
    Ub = sqw * basis_b.Q
    ra = Ua - Ub @ (Ub.conj().T @ Ua)  # (I - P_b) U_a
    rb = Ub - Ua @ (Ua.conj().T @ Ub)
    sa = np.linalg.svd(ra, compute_uv=False)
    sb = np.linalg.svd(rb, compute_uv=False)
    return float(max(sa[0] if sa.size else 0.0, sb[0] if sb.size else 0.0))
