"""Quantum estimation limits for two incoherent point sources.

Computes the quantum Fisher information matrix H and the SLD-commutator
matrix Gamma for the four parameters (angular separation s, angular
centroid xbar, axial separation p, axial centroid zbar) of two weak
incoherent point sources, via three mutually cross-validating routes,
plus the quantum Cramer-Rao bound and parameter-compatibility analysis.

The names below are the documented surface; everything else lives in the
submodules (``psf``, ``gram``, ``sld``, ``closed_forms``, ``routes``,
``analysis``).
"""

from .analysis import EstimationBudget, compatibility_report, qcrb_subset, qcrb_total
from .closed_forms import gaussian_matrices, general_matrices, small_separation_limit
from .errors import (
    DegenerateBasisError,
    DegenerateOverlapError,
    InvalidParameterError,
    ModelValidityWarning,
    NonFiniteSampleError,
    SingularMatrixError,
    SmallSeparationError,
    SrlocError,
)
from .psf import GaussianPsf, PsfConstants, SourceGeometry, fd_overlap_jet
from .routes import evaluate

__version__ = "0.1.0"

__all__ = [
    "DegenerateBasisError",
    "DegenerateOverlapError",
    "EstimationBudget",
    "GaussianPsf",
    "InvalidParameterError",
    "ModelValidityWarning",
    "NonFiniteSampleError",
    "PsfConstants",
    "SingularMatrixError",
    "SmallSeparationError",
    "SourceGeometry",
    "SrlocError",
    "compatibility_report",
    "evaluate",
    "fd_overlap_jet",
    "gaussian_matrices",
    "general_matrices",
    "qcrb_subset",
    "qcrb_total",
    "small_separation_limit",
]
