"""Essential spectra of Bergman-Toeplitz operators on periodic planar domains.

The library computes Floquet band structures for Toeplitz operators with
periodic radial symbols on a disc-plus-ligament periodic domain, and
synthesizes symbols whose essential spectrum approximates a prescribed
finite set of real numbers.
"""

from .geometry import CellGeometry, QuadratureRule, build_disc_quadrature, build_cell_quadrature, contains
from .symbols import (
    RadialProfile,
    TargetSpec,
    IllConditionedError,
    synthesize_profile,
    eval_cell_symbol,
)
from .disc_spectrum import (
    DiscSpectrum,
    moment_eigenvalue,
    compute_disc_spectrum,
    disc_galerkin_matrix,
    spectral_gap,
)
from .quasi_bergman import TwistedBasis, build_basis, projector_distance
from .band_solver import (
    BandStructure,
    SpectrumReport,
    toeplitz_matrix,
    compute_bands,
    band_structures,
    essential_spectrum,
    gap_report,
    h_convergence_study,
    almost_eigen_check,
)
from .floquet import CellField, FloquetField, floquet_forward, floquet_inverse
from .conformal import ConformalPair, identity_pair, rotation_pair, moebius_pair, transplant
from .pipeline import RunConfig, RunResult, run_prescribed_spectrum

__version__ = "0.1.0"
