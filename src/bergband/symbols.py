"""Radial symbols: representation, moment-system synthesis and cell evaluation.

A profile is a real polynomial b(r) = c0 + sum_m c_m r^{2m+1} supported on
[0, support] (default support 1/2, c0 = 0).  The odd monomials r^{2m+1}
are exactly the family whose moments against r^{2n+1} form the solvable
Gram system used to hit prescribed eigenvalue targets; the constant term
exists only so the unit symbol (the identity operator's symbol) fits the
same closed-form moment machinery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import CellGeometry

__all__ = [
    "RadialProfile",
    "TargetSpec",
    "IllConditionedError",
    "synthesize_profile",
    "eval_cell_symbol",
    "profile_to_json",
    "profile_from_json",
]

# The Gram matrix depends on the target count K alone; its condition number
# is 2.2e10 at K = 5 and 7.0e12 at K = 6, so 5 is the largest K under the limit.
MAX_TARGETS = 5
GRAM_COND_LIMIT = 1e12
SUP_NORM_SAMPLES = 4001


class IllConditionedError(ValueError):
    """Synthesis Gram system too ill-conditioned to solve reliably: more
    than MAX_TARGETS targets.  condition is a lower bound on its condition
    number, which exceeds limit."""

    def __init__(self, count: int, condition: float, limit: float) -> None:
        self.condition = condition
        self.limit = limit
        super().__init__(
            f"{count} targets exceed the limit of {MAX_TARGETS}: the moment Gram "
            f"matrix condition number is at least {condition:.3e}, over {limit:.1e}"
        )


@dataclass(frozen=True)
class RadialProfile:
    """Radial symbol b(r) = constant_term + sum_{m=1..K} coeffs[m-1] r^{2m+1}.

    b is extended by zero outside [0, support]; support <= 1/2 for all
    synthesized profiles, which keeps the symbol compactly supported
    inside the disc and makes the associated Toeplitz operator compact.
    """

    coeffs: tuple[float, ...]
    constant_term: float = 0.0
    support: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not np.all(np.isfinite((*self.coeffs, self.constant_term))):
            raise ValueError(f"profile coefficients must be finite, got {self}")
        if not (0.0 < self.support <= 1.0):
            raise ValueError(f"support radius must be in (0, 1], got {self.support}")

    @property
    def K(self) -> int:
        return len(self.coeffs)

    @classmethod
    def unit(cls) -> "RadialProfile":
        """The constant symbol a == 1 on the whole disc (identity operator)."""
        return cls(coeffs=(), constant_term=1.0, support=1.0)

    def __call__(self, r: float | np.ndarray) -> float | np.ndarray:
        """Evaluate b(r), including the zero extension beyond the support."""
        r = np.asarray(r, dtype=float)
        val = np.full(r.shape, self.constant_term, dtype=float)
        for m, c in enumerate(self.coeffs, start=1):
            val += c * r ** (2 * m + 1)
        val = np.where(r <= self.support, val, 0.0)
        return float(val) if val.ndim == 0 else val

    def sup_norm(self) -> float:
        """sup |b| over [0, support] by dense sampling (b is a polynomial)."""
        r = np.linspace(0.0, self.support, SUP_NORM_SAMPLES)
        return float(np.max(np.abs(self(r))))


@dataclass(frozen=True)
class TargetSpec:
    """Prescribed spectral targets with proximity and gap radii."""

    targets: tuple[float, ...]
    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(float(t) for t in self.targets))
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("targets must be pairwise distinct")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.epsilon < self.delta):
            raise ValueError(
                f"need epsilon < delta, got epsilon={self.epsilon}, delta={self.delta}"
            )


def _gram_matrix(K: int) -> np.ndarray:
    # G_{nm} = integral_0^{1/2} r^{2n+1} r^{2m+1} dr = (1/2)^{2n+2m+3} / (2n+2m+3)
    n = np.arange(1, K + 1)
    p = n[:, None] + n[None, :]
    return 0.5 ** (2 * p + 3) / (2 * p + 3)


def synthesize_profile(targets) -> RadialProfile:
    """Solve the moment system so that the n-th disc eigenvalue hits targets[n-1].

    The K x K Gram system G c = rhs uses rhs_n = x_n / (2 (n+1)), the
    moment normalization of ``disc_spectrum.moment_eigenvalue``.

    Raises
    ------
    ValueError
        If a target is NaN or infinite, or the targets are so large that
        the solved coefficients overflow.
    IllConditionedError
        If K > 5.  The Gram matrix is Hilbert-like, so conditioning degrades
        geometrically with K: its condition number first exceeds 1e12 at
        K = 6, and capping at 5 keeps the solve trustworthy in doubles.
    """
    x = np.asarray(tuple(targets), dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"targets must be finite, got {x.tolist()}")
    K = x.size
    if K == 0:
        return RadialProfile(coeffs=())
    if K > MAX_TARGETS:
        # G_K has G_{MAX_TARGETS+1} as its leading block, so by interlacing
        # cond G_K is at least cond G_{MAX_TARGETS+1} > GRAM_COND_LIMIT
        cond = float(np.linalg.cond(_gram_matrix(MAX_TARGETS + 1)))
        raise IllConditionedError(K, condition=cond, limit=GRAM_COND_LIMIT)

    n = np.arange(1, K + 1)
    c = np.linalg.solve(_gram_matrix(K), x / (2.0 * (n + 1)))
    if not np.all(np.isfinite(c)):
        raise ValueError(
            f"targets {x.tolist()} are too large: the profile coefficients overflow"
        )
    return RadialProfile(coeffs=tuple(c))


def eval_cell_symbol(profile: RadialProfile, cell: CellGeometry, z):
    """Symbol on the cell: b(|z|/R0) on the disc part, zero on the strip."""
    z = np.asarray(z, dtype=complex)
    r = np.abs(z) / cell.R0
    val = np.where(r < 1.0, profile(r), 0.0)
    return float(val) if val.ndim == 0 else val


def profile_to_json(profile: RadialProfile, R0: float) -> str:
    doc = {"R0": R0, "coeffs": list(profile.coeffs)}
    if profile.constant_term != 0.0 or profile.support != 0.5:
        doc["constant_term"] = profile.constant_term
        doc["support"] = profile.support
    return json.dumps(doc, indent=2)


def _json_float(name: str, value) -> float:
    """A JSON value of profile field ``name`` as a float; ValueError naming
    the field unless it is a finite number.  NaN fails the comparison, and
    an integer beyond the float range compares without conversion."""
    finite = (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= float(np.finfo(float).max)
    )
    if not finite:
        raise ValueError(f"profile field {name} must be a finite number, got {value!r}")
    return float(value)


def profile_from_json(text: str) -> RadialProfile:
    """The profile of a ``profile_to_json`` document, from its own fields
    (coeffs, constant_term, support); other keys, such as the R0 that
    ``profile_to_json`` writes, are ignored.  A malformed field raises
    ValueError naming it."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"profile must be a JSON object, got {type(doc).__name__}")
    coeffs = doc.get("coeffs")
    if not isinstance(coeffs, list):
        raise ValueError(f"profile field coeffs must be a list of numbers, got {coeffs!r}")
    return RadialProfile(
        coeffs=tuple(_json_float("coeffs", c) for c in coeffs),
        constant_term=_json_float("constant_term", doc.get("constant_term", 0.0)),
        support=_json_float("support", doc.get("support", 0.5)),
    )
