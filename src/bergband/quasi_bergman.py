"""Discrete quasiperiodic Bergman spaces on the periodic cell.

The fiber space at Floquet parameter eta consists of analytic functions on
the cell satisfying f(1/2 + iy) = e^{i eta} f(-1/2 + iy) across the
ligament.  The twisted Laurent modes e^{i (eta + 2 pi k) z}, k = -K..K,
satisfy this identity exactly and are entire, so orthonormalizing their
samples in the quadrature inner product yields a discrete model of the
fiber space.

The raw modes are Vandermonde-grade ill-conditioned (they grow like
e^{2 pi |k| R0} across the disc), so they are never formed.  Each new
column is the previous one in its chain times e^{+-2 pi i z},
re-orthogonalized by classical Gram-Schmidt done twice.  The candidates of
both chains at one k form a block, and each pass is one block projection
against all accepted columns (block CGS2: Barlow and Smoktunowicz, Numer.
Math. 123 (2013) 395-423), so a pass reads the accepted columns once for
both chains; the -1 candidate is then orthogonalized, twice, against the +1
column accepted at the same k.  The second pass restores orthogonality to
the unit roundoff whenever the candidate is numerically independent ("twice
is enough": Giraud, Langou and Rozloznik, Comput. Math. Appl. 50 (2005)
1069-1075); dependent candidates are what ``CUTOFF`` rejects.

This is an Arnoldi process ("Vandermonde with Arnoldi": Brubeck,
Nakatsukasa and Trefethen, SIAM Rev. 63 (2021) 405-415).  The basis keeps
its recurrence (each column's parent and chain sign, and its projections
and norm as one row of a lower-triangular H), and replaying it evaluates
the columns off the quadrature grid.  Each step multiplies by
e^{+-2 pi i z} or combines earlier columns, so the evaluated columns obey
the boundary identity up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CellGeometry, QuadratureRule, mirror_half

__all__ = [
    "TwistedBasis",
    "DegenerateBasisError",
    "build_basis",
    "projector_distance",
]

# A candidate whose orthogonal remainder is below this fraction of its norm
# is numerically dependent: double precision cannot resolve it further.
CUTOFF = 1e-12


class DegenerateBasisError(RuntimeError):
    """All candidate directions fell below the cutoff; no basis vector survived."""


@dataclass(frozen=True)
class TwistedBasis:
    """Orthonormal discrete basis of the eta-fiber space and its recurrence.

    Attributes
    ----------
    eta : float
        Floquet parameter in [-pi, pi].
    Q : ndarray, shape (n_nodes, dim_eff)
        Column-orthonormal in the weighted inner product: Q^H W Q = I.  On
        a mirror-ordered rule the rows at the mirror nodes -conj(z) are the
        conjugates of the rows at z.
    H : ndarray of float, shape (dim_eff, dim_eff)
        Lower triangular: row j holds the projections Q^H W cand removed
        from column j's candidate, summed over both Gram-Schmidt passes, and
        the norm that remained on the diagonal; H[0, 0] is the seed's norm.
    parent, sign : ndarray of int, shape (dim_eff,)
        Column j >= 1 came from e^{2 pi i sign[j] z} times column
        parent[j]; entry 0, the seed, holds 0 in both.

    ``dim_eff``, the number of directions that survived the conditioning
    cutoff, is the column count of Q.  A complex H is rejected (ValueError):
    ``evaluate`` replays it in real arithmetic.
    """

    eta: float
    Q: np.ndarray
    H: np.ndarray
    parent: np.ndarray
    sign: np.ndarray
    cell: CellGeometry
    quad: QuadratureRule

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.H):
            raise ValueError(f"H must be real, got dtype {self.H.dtype}")

    @property
    def dim_eff(self) -> int:
        return self.Q.shape[1]

    def evaluate(self, z: complex | np.ndarray) -> np.ndarray:
        """Basis column values at arbitrary points, shape (z.size, dim_eff).

        Replays the recurrence, v_0 = e^{i eta z} / H[0, 0] and
        v_j = (e^{2 pi i sign[j] z} v_parent[j] - sum_{i<j} H[j, i] v_i) / H[j, j],
        which at the quadrature nodes is the arithmetic that built Q: there
        the values match Q to 6e-15 relative to max |Q| for K <= 32 at h 0.05.
        Like build_basis it forms e^{2 pi i z} once and takes e^{-2 pi i z} as
        its reciprocal, and since H is real, each step after the complex
        product into row j runs in place on the float (re, im) view of the
        output: one real product with the earlier rows, one division.
        """
        z = np.asarray(z, dtype=complex).ravel()
        up = np.exp(2j * np.pi * z)
        step = {+1: up, -1: 1.0 / up}
        Vt = np.empty((self.dim_eff, z.size), dtype=complex)
        Vr = Vt.view(float)
        Vt[0] = np.exp(1j * self.eta * z) / self.H[0, 0]
        for j in range(1, self.dim_eff):
            np.multiply(step[self.sign[j]], Vt[self.parent[j]], out=Vt[j])
            Vr[j] -= self.H[j, :j] @ Vr[:j]
            Vr[j] /= self.H[j, j]
        return Vt.T


def build_basis(
    cell: CellGeometry,
    eta: float,
    K_modes: int,
    quad: QuadratureRule,
) -> TwistedBasis:
    """Orthonormalize the twisted Laurent family at the quadrature nodes.

    Starting from the normalized seed e^{i eta z}, modes with k = +-1,
    +-2, ... are generated by multiplying the most recent column of the
    corresponding chain by e^{+-2 pi i z} and orthogonalizing by CGS2.  For
    each k the live candidates of both chains form one block: each of the two
    passes is one product of the block with the accepted columns and one
    update of the block, and if this k's +1 column was accepted, the -1
    candidate is then orthogonalized against it, twice.  A candidate whose
    orthogonal remainder is below ``CUTOFF`` relative to its pre-projection
    norm is discarded, and its chain stops, since further multiples would
    inherit the dependency.  Column j's row of H holds its projections on
    every earlier column, summed over both passes, whichever step removed
    them, which is what ``TwistedBasis.evaluate`` replays.

    ``quad`` must be mirror-ordered (``build_cell_quadrature`` or its disc
    part ``build_cell_disc_quadrature``, even n_t).
    Every raw mode obeys e^{ia(-conj z)} = conj e^{iaz}, and so, by
    induction, does every column: the projections are real, and real
    combinations keep the symmetry.  So the recurrence runs on the half rule
    of ``geometry.mirror_half`` alone, each sampled column viewed as a real
    row of (re, im) pairs and each projection a real matrix product;
    the mirror half of Q is its conjugate, and H is real.  The -1 step
    e^{-2 pi i z} is the reciprocal of the +1 step, as in
    ``TwistedBasis.evaluate``, so Q and the replay share one arithmetic.
    """
    if K_modes < 0:
        raise ValueError(f"K_modes must be >= 0, got {K_modes}")
    n_half, v = mirror_half(quad)
    z = quad.nodes[:n_half]
    n_max = 2 * K_modes + 1

    def wnorm(f):
        return np.sqrt(np.dot(v, f * f))

    # Accepted columns are the rows of Qt, their recurrence the rows of H,
    # parent and sign; the first m rows of each are filled, and the
    # candidates of one k are formed in the next rows of Qt.  R views the
    # half-rule part of Qt as real (re, im) rows; CGS2 works on R alone.
    Qt = np.empty((n_max, quad.nodes.size), dtype=complex)
    R = Qt[:, :n_half].view(float)
    H = np.zeros((n_max, n_max))
    parent, sign = np.zeros((2, n_max), dtype=int)

    seed = np.exp(1j * eta * z)
    nrm = wnorm(seed.view(float))
    if not np.isfinite(nrm) or nrm == 0.0:
        raise DegenerateBasisError("seed mode has zero or non-finite norm")
    Qt[0, :n_half] = seed / nrm
    H[0, 0] = nrm
    m = 1

    up = np.exp(2j * np.pi * z)
    step = {+1: up, -1: 1.0 / up}
    head = {+1: 0, -1: 0}  # row of the last accepted column per chain
    for _ in range(K_modes):  # the candidates of k = 1..K_modes
        live = [s for s in (+1, -1) if head[s] >= 0]
        if not live:
            break  # both chains terminated
        # the live candidates, the +1 chain first, as rows m0, m0 + 1 of R: at
        # step k at most 2k - 1 of the 2K + 1 rows are filled, so both are free
        m0 = m
        C = R[m0 : m0 + len(live)]
        for i, s in enumerate(live):
            np.multiply(step[s], Qt[head[s], :n_half], out=Qt[m0 + i, :n_half])
        pre = np.sqrt((C * C) @ v)
        hrows = np.zeros((len(live), m0))
        for _ in range(2):  # twice is enough (Giraud-Langou-Rozloznik)
            proj = (C * v) @ R[:m0].T  # Q^H W cand, one row per candidate
            C -= proj @ R[:m0]
            hrows += proj
        for i, s in enumerate(live):
            c = C[i]
            H[m, :m0] = hrows[i]
            if m > m0:  # this k's +1 column was accepted: remove it too, twice
                H[m, m0] = 0.0
                for _ in range(2):
                    proj = R[m0] @ (v * c)
                    c -= proj * R[m0]
                    H[m, m0] += proj
            post = wnorm(c)
            if post <= CUTOFF * pre[i]:
                head[s] = -1
                continue
            # the -1 column moves up a row when the +1 candidate was rejected
            np.divide(Qt[m0 + i, :n_half], post, out=Qt[m, :n_half])
            H[m, m] = post
            parent[m], sign[m] = head[s], s
            head[s] = m
            m += 1
    # the mirror half: Q(-conj z) = conj Q(z)
    np.conjugate(Qt[:m, : quad.nodes.size - n_half], out=Qt[:m, n_half:])

    return TwistedBasis(
        eta=float(eta),
        Q=Qt[:m].T,
        H=H[:m, :m],
        parent=parent[:m],
        sign=sign[:m],
        cell=cell,
        quad=quad,
    )


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
