"""Quantum Cramer-Rao bound and parameter-compatibility diagnostics.

The total-variance bound for unbiased estimators is
Tr(H^-1) / (nu * M * eps): nu experimental runs of M coherence intervals
each, eps mean photons per interval.  Compatibility of a parameter pair
requires the corresponding Gamma entry to vanish (a single measurement
can then be jointly optimal) and, for statistical independence, the H
entry as well.  The (s, p) pair satisfies both for every PSF.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidParameterError, ModelValidityWarning, SingularMatrixError, SrlocError
from .sld import PARAMETERS, pair_scale

__all__ = [
    "EstimationBudget",
    "PairCompatibility",
    "CompatibilityReport",
    "qcrb_total",
    "qcrb_subset",
    "cramer_rao",
    "compatibility_report",
]

_SINGULARITY_RATIO = 1e-12


@dataclass(frozen=True)
class EstimationBudget:
    """Photon-collection budget: runs ``nu``, coherence intervals per run
    ``m``, mean photons per interval ``eps`` (weak-source model, eps << 1)."""

    nu: float
    m: float
    eps: float

    def __post_init__(self) -> None:
        for name in ("nu", "m", "eps"):
            if not getattr(self, name) > 0.0:
                raise InvalidParameterError(
                    f"budget field {name} must be strictly positive, got {getattr(self, name)}"
                )
        if not 0.0 < self.total_photons < math.inf:
            raise InvalidParameterError(f"the budget nu * m * eps must be finite and positive, "
                                        f"got {self.total_photons}")
        if self.eps > 1.0:
            warnings.warn(
                f"eps = {self.eps} exceeds 1: the weak-source model assumes "
                "at most one photon per coherence interval",
                ModelValidityWarning,
                stacklevel=3,  # past __post_init__ and the dataclass's __init__
            )

    @property
    def total_photons(self) -> float:
        return self.nu * self.m * self.eps


@dataclass(frozen=True)
class PairCompatibility:
    """Per-pair flags plus the scaled magnitudes they were derived from."""

    measurement_compatible: bool
    statistically_independent: bool
    gamma_over_scale: float
    h_over_scale: float

    @property
    def compatible(self) -> bool:
        return self.measurement_compatible and self.statistically_independent


@dataclass(frozen=True)
class CompatibilityReport:
    """Compatibility flags for all six unordered parameter pairs."""

    pairs: Mapping[tuple[str, str], PairCompatibility]
    tol: float

    @property
    def sp_pair_compatible(self) -> bool:
        """Joint flag for the separation pair (s, p)."""
        return self.pairs[("s", "p")].compatible

    @property
    def fully_compatible(self) -> bool:
        """True when every pair is measurement-compatible and independent."""
        return all(pair.compatible for pair in self.pairs.values())


def _as_4x4(value, field: str, name: str) -> np.ndarray:
    """A 4x4 matrix, given as an array or as ``field`` of a one-point
    ``routes.Evaluation``."""
    arr = np.asarray(getattr(value, field, value), dtype=float)
    if arr.shape == (1, 4, 4):
        arr = arr[0]
    if arr.shape != (4, 4):
        raise InvalidParameterError(f"{name} must be 4x4, got shape {arr.shape}")
    return arr


def _checked_inverse(h: np.ndarray) -> np.ndarray:
    """inv(h), where h is finite and its Jacobi scaling h_ij / sqrt(h_ii h_jj)
    is positive definite with eigenvalues within ``_SINGULARITY_RATIO``: a test
    that does not depend on the units of the parameters."""
    if not np.isfinite(h).all():
        raise InvalidParameterError(f"information matrix has non-finite entries: {h.tolist()}")
    diag = np.diagonal(h)
    if (diag > 0.0).all():
        with np.errstate(over="ignore"):  # |h_ij| > sqrt(h_ii h_jj): h is not definite
            scaled = h / pair_scale(diag[:, None], diag[None, :])
        if np.isfinite(scaled).all():
            eigs = np.linalg.eigvalsh(scaled)
            if eigs[0] > _SINGULARITY_RATIO * eigs[-1]:
                return np.linalg.inv(h)
    raise SingularMatrixError(
        f"information matrix is numerically singular (eigenvalues {np.linalg.eigvalsh(h)})"
    )


def _bound(h: np.ndarray, budget: EstimationBudget) -> tuple[float, np.ndarray]:
    """Tr(h^-1) / (nu * M * eps) and h^-1; ``SrlocError`` where the bound overflows."""
    h_inv = _checked_inverse(h)
    bound = float(np.trace(h_inv)) / budget.total_photons
    if not bound < math.inf:  # NaN where H^-1 itself overflows
        raise SrlocError(f"Tr(H^-1) / (nu M eps) overflows for nu M eps = {budget.total_photons}")
    return bound, h_inv


def qcrb_total(h, budget: EstimationBudget) -> float:
    """Lower bound on the summed variances of all four parameters,
    Tr(H^-1) / (nu * M * eps)."""
    return _bound(_as_4x4(h, "h", "H"), budget)[0]


def cramer_rao(h, budget: EstimationBudget) -> dict:
    """What ``crb`` reports, from one checked inverse of H: the ``qcrb_total``
    "bound", "tr_h_inv", the "per_parameter_bounds" (H^-1)_ii / (nu * M * eps)
    by parameter and H's 2-norm "condition_number", ``SrlocError`` where that
    overflows, as it can where H is well-posed only once scaled."""
    h = _as_4x4(h, "h", "H")
    bound, h_inv = _bound(h, budget)
    condition = float(np.linalg.cond(h))
    if condition == math.inf:
        raise SrlocError(
            f"the condition number of H overflows (eigenvalues {np.linalg.eigvalsh(h)})")
    per_parameter = (np.diagonal(h_inv) / budget.total_photons).tolist()
    return {"bound": bound, "tr_h_inv": float(np.trace(h_inv)), "condition_number": condition,
            "per_parameter_bounds": dict(zip(PARAMETERS, per_parameter))}


def qcrb_subset(h, subset: Iterable[str | int], budget: EstimationBudget) -> float:
    """Bound for a parameter subset with the others known in advance.

    Known-nuisance convention: invert the subset-indexed submatrix of H
    (rather than taking a submatrix of the full inverse).  A parameter is
    named as in ``PARAMETERS`` or by its index 0..3.
    """
    indices: list[int] = []
    for item in subset:
        if isinstance(item, str) and item in PARAMETERS:
            indices.append(PARAMETERS.index(item))
        elif isinstance(item, (int, np.integer)) and not isinstance(item, bool) and 0 <= item < 4:
            indices.append(int(item))
        else:
            raise InvalidParameterError(
                f"unknown parameter {item!r}; choose from {PARAMETERS} or their indices 0..3"
            )
    if not indices or len(set(indices)) != len(indices):
        raise InvalidParameterError(f"subset must be non-empty without repeats, got {indices}")
    sub = _as_4x4(h, "h", "H")[np.ix_(indices, indices)]
    return _bound(sub, budget)[0]


def compatibility_report(h, gamma_mat, tol: float = 1e-8) -> CompatibilityReport:
    """Threshold the off-diagonal entries of H and Gamma pair by pair.

    The zero test for pair (mu, nu) is scaled by sqrt(H_mumu * H_nunu)
    (``sld.pair_scale``), since entries span orders of magnitude across PSF
    parameters.
    """
    h_arr = _as_4x4(h, "h", "H")
    g_arr = _as_4x4(gamma_mat, "gamma_mat", "Gamma")
    diag = np.diagonal(h_arr)
    scales = pair_scale(diag[:, None], diag[None, :])

    pairs: dict[tuple[str, str], PairCompatibility] = {}
    for i in range(4):
        for j in range(i + 1, 4):
            scale = float(scales[i, j])
            if not scale > 0.0:
                scale = max(float(np.max(np.abs(h_arr))), 1.0)
            g_ratio = abs(float(g_arr[i, j])) / scale
            h_ratio = abs(float(h_arr[i, j])) / scale
            pairs[(PARAMETERS[i], PARAMETERS[j])] = PairCompatibility(
                measurement_compatible=g_ratio <= tol,
                statistically_independent=h_ratio <= tol,
                gamma_over_scale=g_ratio,
                h_over_scale=h_ratio,
            )
    return CompatibilityReport(pairs=pairs, tol=tol)
