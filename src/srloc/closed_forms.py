"""Closed-form information matrices.

Three layers:

* ``general_qfim`` / ``general_gamma_matrix``: exact expressions for any
  PSF in terms of the overlap magnitude/phase derivatives and the PSF
  constants.  Valid wherever |gamma| < 1.
* ``gaussian_qfim`` / ``gaussian_gamma_matrix``: fully explicit
  Gaussian-beam expressions in the dimensionless combination
  varsigma = 2 k s^2 z_R / (p^2 + 4 z_R^2).  They carry powers of s in
  denominators, so they need |s| above a small threshold; the s -> 0
  regime is covered by the general layer (regular there for p != 0).
* ``small_separation_limit``: the (s, p) -> (0, 0) limit, where H is
  diagonal and Gamma vanishes.

Matrix layout is 4x4 in the parameter order (s, xbar, p, zbar); only the
(xbar, zbar) off-diagonal of H and the (s,xbar), (p,zbar), (s,zbar),
(xbar,p) entries of Gamma are ever nonzero.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateOverlapError, InvalidParameterError, SmallSeparationError
from .psf import (
    GaussianPsf,
    OverlapJet,
    PsfConstants,
    gaussian_constants,
    gaussian_overlap,
    gaussian_overlap_jet,
    small_separation_threshold,
)

__all__ = [
    "varsigma",
    "general_qfim",
    "general_gamma_matrix",
    "gaussian_qfim",
    "gaussian_gamma_matrix",
    "small_separation_limit",
    "evaluate_gaussian_closed",
]

# 1 - |gamma|^2 below this is too degenerate for the 1/(1-|gamma|^2) terms.
OVERLAP_DEGENERACY_TOL = 1e-10


def varsigma(k: float, z_r: float, s: float, p: float) -> float:
    """Dimensionless Gaussian separation parameter 2 k s^2 z_R / (p^2 + 4 z_R^2)."""
    if not (k > 0.0 and z_r > 0.0):
        raise InvalidParameterError(f"need k > 0 and z_r > 0, got k={k}, z_r={z_r}")
    return 2.0 * k * s * s * z_r / (p * p + 4.0 * z_r * z_r)


def _overlap_factors(jet: OverlapJet):
    ag = jet.abs_gamma
    one_minus = 1.0 - ag * ag
    if one_minus < OVERLAP_DEGENERACY_TOL:
        raise DegenerateOverlapError(
            f"1 - |gamma|^2 = {one_minus:.3e} below {OVERLAP_DEGENERACY_TOL:.1e}; "
            "use small_separation_limit for (nearly) coincident sources"
        )
    return ag, one_minus, jet.d_s_abs, jet.d_p_abs, jet.d_s_phase, jet.d_p_phase


def general_qfim(jet: OverlapJet, consts: PsfConstants) -> np.ndarray:
    """Quantum Fisher information matrix for an arbitrary PSF.

    The separation blocks are constant: H_ss equals the transverse
    constant and H_pp the generator variance, independent of (s, p).  The
    centroid blocks involve the overlap magnitude/phase derivatives and
    1/(1 - |gamma|^2).
    """
    ag, one_minus, dsa, dpa, dsph, dpph = _overlap_factors(jet)
    n = consts.dpsi_norm_sq
    mg, mg2 = consts.mean_g, consts.mean_g2
    ag2 = ag * ag

    h = np.zeros((4, 4))
    h[0, 0] = n
    h[2, 2] = consts.g_variance
    h[1, 1] = 4.0 * n - 4.0 * dsa ** 2 - 4.0 * ag2 * dsph ** 2 / one_minus
    h[3, 3] = (4.0 / one_minus) * (
        consts.g_variance
        - dpa ** 2
        - ag2 * (mg2 - dpa ** 2 + 2.0 * mg * dpph + dpph ** 2)
    )
    h[1, 3] = h[3, 1] = (
        -4.0 * ag2 * dsph * (mg + dpph) / one_minus - 4.0 * dsa * dpa
    )
    return h


def general_gamma_matrix(jet: OverlapJet, consts: PsfConstants) -> np.ndarray:
    """SLD-commutator matrix for an arbitrary PSF.

    Only the (s,xbar), (p,zbar), (s,zbar) and (xbar,p) pairs are nonzero;
    the antisymmetric counterparts are filled with negated values.  The
    (s, p) entry is identically zero: that parameter pair is always
    jointly measurable.
    """
    ag, one_minus, dsa, dpa, dsph, dpph = _overlap_factors(jet)
    mg = consts.mean_g
    ag2 = ag * ag

    g = np.zeros((4, 4))
    g[0, 1] = -2.0 * ag2 * ag * dsa * dsph / one_minus
    g[2, 3] = -2.0 * ag2 * ag * dpa * (mg + dpph) / one_minus
    g[0, 3] = 2.0 * ag * (dpa * dsph - dsa * (dpph + mg) / one_minus)
    g[1, 2] = 2.0 * ag * (-dsa * (mg + dpph) + dpa * dsph / one_minus)
    return g - g.T


def _require_s_in_range(psf: GaussianPsf, s: float) -> None:
    threshold = small_separation_threshold(psf.k, psf.z_r)
    if abs(s) < threshold:
        raise SmallSeparationError(
            f"|s| = {abs(s):.3e} below {threshold:.3e}: the explicit Gaussian "
            "expressions have removable singularities at s = 0; use general_qfim / "
            "general_gamma_matrix with the analytic jet (p != 0) or "
            "small_separation_limit (both separations small)"
        )


def gaussian_qfim(psf: GaussianPsf, s: float, p: float) -> np.ndarray:
    """Explicit Gaussian-beam Fisher information matrix at separations (s, p)."""
    _require_s_in_range(psf, s)
    k, zr = psf.k, psf.z_r
    vs = varsigma(k, zr, s, p)
    evs = math.exp(vs)
    emvs = math.exp(-vs)

    h = np.zeros((4, 4))
    h[0, 0] = k / (2.0 * zr)
    h[1, 1] = (vs / s ** 2) * (
        p ** 2 * (1.0 / zr ** 2 - 2.0 * vs ** 2 / (k * evs * s ** 2 * zr - 2.0 * vs * zr ** 2))
        - 8.0 * emvs * vs ** 2 * zr / (k * s ** 2)
        + 4.0
    )
    h[2, 2] = 1.0 / (4.0 * zr ** 2)
    h[3, 3] = emvs * (
        4.0 * k ** 4 * math.exp(2.0 * vs) * s ** 8
        - k ** 2 * evs * vs ** 2 * s ** 4
        * (p ** 2 * (vs ** 2 - 4.0 * vs + 8.0) + 4.0 * (vs ** 2 + 4.0) * zr ** 2)
        + 16.0 * p ** 2 * (vs - 1.0) ** 2 * vs ** 4 * zr ** 2
    ) / (4.0 * k ** 3 * s ** 6 * zr ** 2 * (k * evs * s ** 2 - 2.0 * vs * zr))
    h[1, 3] = h[3, 1] = (
        p * emvs * vs ** 2
        * (k ** 2 * evs * (vs - 2.0) * s ** 4 - 8.0 * (vs - 1.0) * vs ** 2 * zr ** 2)
        / (k ** 2 * s ** 5 * zr * (k * evs * s ** 2 - 2.0 * vs * zr))
    )
    return h


def gaussian_gamma_matrix(psf: GaussianPsf, s: float, p: float) -> np.ndarray:
    """Explicit Gaussian-beam SLD-commutator matrix at separations (s, p)."""
    _require_s_in_range(psf, s)
    k, zr = psf.k, psf.z_r
    vs = varsigma(k, zr, s, p)
    evs = math.exp(vs)
    emvs = math.exp(-vs)

    g = np.zeros((4, 4))
    g[0, 1] = -4.0 * p * emvs * vs ** 4 * zr / (k ** 2 * evs * s ** 6 - 2.0 * k * vs * s ** 4 * zr)
    g[2, 3] = (
        -p * emvs * (vs - 1.0) * vs ** 4 * (p ** 2 * (vs - 2.0) - 4.0 * vs * zr ** 2)
        / (2.0 * k ** 3 * s ** 6 * zr * (k * evs * s ** 2 - 2.0 * vs * zr))
    )
    g[0, 3] = (
        emvs * vs ** 3 * (2.0 * p ** 2 * (vs - 1.0) * vs - k ** 2 * evs * s ** 4)
        / (k ** 2 * s ** 5 * (k * evs * s ** 2 - 2.0 * vs * zr))
    )
    g[1, 2] = (
        -emvs * vs ** 3 * (k ** 2 * evs * s ** 4 + vs * (p ** 2 * (vs - 2.0) - 4.0 * vs * zr ** 2))
        / (k ** 2 * s ** 5 * (k * evs * s ** 2 - 2.0 * vs * zr))
    )
    return g - g.T


def small_separation_limit(psf: GaussianPsf) -> tuple[np.ndarray, np.ndarray]:
    """Information matrices in the coincident-source limit.

    H tends to diag(k/(2 z_R), 2k/z_R, 1/(4 z_R^2), 1/z_R^2) and Gamma to
    zero: all four parameters decouple for infinitesimally separated
    sources, and the total error bound stays finite.
    """
    k, zr = psf.k, psf.z_r
    h = np.diag([k / (2.0 * zr), 2.0 * k / zr, 1.0 / (4.0 * zr ** 2), 1.0 / zr ** 2])
    return h, np.zeros((4, 4))


def evaluate_gaussian_closed(
    psf: GaussianPsf, s: float, p: float
) -> tuple[np.ndarray, np.ndarray, str]:
    """Closed-form (H, Gamma) for a Gaussian PSF with automatic routing.

    Returns ``(h, gamma_mat, route)`` where route is "gaussian-closed" for
    the explicit expressions, "general" for the s ~ 0 reroute through the
    analytic jet, or "limit" when both separations are effectively zero
    (1 - |gamma|^2 <= 1e-8, where the limit is accurate to O(1e-8)).
    """
    if abs(s) >= small_separation_threshold(psf.k, psf.z_r):
        return gaussian_qfim(psf, s, p), gaussian_gamma_matrix(psf, s, p), "gaussian-closed"
    ag = abs(gaussian_overlap(psf, s, p))
    if 1.0 - ag * ag <= 1e-8:
        h, g = small_separation_limit(psf)
        return h, g, "limit"
    jet = gaussian_overlap_jet(psf, s, p)
    consts = gaussian_constants(psf)
    return general_qfim(jet, consts), general_gamma_matrix(jet, consts), "general"
