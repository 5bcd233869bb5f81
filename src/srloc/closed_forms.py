"""Closed-form information matrices.

Three layers, each giving the pair (H, Gamma) from one call:

* ``general_matrices``: exact expressions for any PSF in terms of the
  overlap magnitude/phase derivatives and the PSF constants.  Valid
  wherever |gamma| < 1.
* ``gaussian_matrices``: fully explicit Gaussian-beam expressions in the
  dimensionless combination varsigma = 2 k s^2 z_R / (p^2 + 4 z_R^2).  They
  carry powers of s in denominators, so they need |s| above a small
  threshold; the s -> 0 regime is covered by the general layer (regular
  there for p != 0).
* ``small_separation_limit``: the (s, p) -> (0, 0) limit, where H is
  diagonal and Gamma vanishes.

Matrix layout is 4x4 in the parameter order (s, xbar, p, zbar); only the
(xbar, zbar) off-diagonal of H and the (s,xbar), (p,zbar), (s,zbar),
(xbar,p) entries of Gamma are ever nonzero.  Every form is elementwise in
the points: scalar (s, p), or a jet of scalars, gives one 4x4 matrix, and N
points give an (N, 4, 4) stack.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateOverlapError, InvalidParameterError, SmallSeparationError
from .psf import (
    GaussianPsf,
    OverlapJet,
    PsfConstants,
    _points,
    small_separation_threshold,
)

__all__ = ["varsigma", "general_matrices", "gaussian_matrices", "small_separation_limit"]

# 1 - |gamma|^2 below this is too degenerate for the 1/(1-|gamma|^2) terms.
OVERLAP_DEGENERACY_TOL = 1e-10


def varsigma(k: float, z_r: float, s: float, p: float) -> float:
    """Dimensionless Gaussian separation parameter 2 k s^2 z_R / (p^2 + 4 z_R^2)."""
    if not (k > 0.0 and z_r > 0.0):
        raise InvalidParameterError(f"need k > 0 and z_r > 0, got k={k}, z_r={z_r}")
    return 2.0 * k * s * s * z_r / (p * p + 4.0 * z_r * z_r)


def _overlap_factors(jet: OverlapJet):
    """The shape of the jet's points, |gamma|^2, 1 - |gamma|^2 and the real and
    imaginary parts of the log-derivatives of gamma, elementwise.

    d log(gamma)/ds = d|gamma|/ds / |gamma| + i d(arg gamma)/ds, and the same
    in p, so ``d_s / gamma`` carries the magnitude and phase derivatives
    without a branch cut.
    """
    shape, (gamma, d_s, d_p) = _points(jet.gamma, jet.d_s, jet.d_p, dtype=complex)
    ag = np.abs(gamma)
    ag2 = ag * ag
    one_minus = 1.0 - ag2
    if np.count_nonzero(one_minus < OVERLAP_DEGENERACY_TOL):
        raise DegenerateOverlapError(
            f"1 - |gamma|^2 = {one_minus.min():.3e} below {OVERLAP_DEGENERACY_TOL:.1e}; "
            "use small_separation_limit for (nearly) coincident sources"
        )
    ls = d_s / gamma
    lp = d_p / gamma
    return shape, ag2, one_minus, ls.real, ls.imag, lp.real, lp.imag


def _matrices(shape) -> np.ndarray:
    """Zero 4x4 matrices, one per point of ``shape``."""
    return np.zeros(shape + (4, 4))


def general_matrices(jet: OverlapJet, consts: PsfConstants) -> tuple[np.ndarray, np.ndarray]:
    """Quantum Fisher information matrix H and SLD-commutator matrix Gamma
    for an arbitrary PSF.

    The separation blocks of H are constant: H_ss equals the transverse
    constant and H_pp the generator variance, independent of (s, p).  The
    centroid blocks involve the overlap magnitude/phase derivatives and
    1/(1 - |gamma|^2).  Only the (s,xbar), (p,zbar), (s,zbar) and (xbar,p)
    pairs of Gamma are nonzero, with negated antisymmetric counterparts; its
    (s, p) entry is identically zero: that parameter pair is always jointly
    measurable.  A jet of N points gives two (N, 4, 4) stacks.
    """
    shape, ag2, one_minus, ls_re, dsph, lp_re, dpph = _overlap_factors(jet)
    var = consts.g_variance
    # with dsa = |gamma| ls_re, dpa = |gamma| lp_re and r = |gamma|^2 / (1 - |gamma|^2)
    r = ag2 / one_minus
    carrier = consts.mean_g + dpph
    r_dsph = r * dsph

    h = _matrices(shape)
    h[..., 0, 0] = consts.dpsi_norm_sq
    h[..., 2, 2] = var
    h[..., 1, 1] = 4.0 * (consts.dpsi_norm_sq - ag2 * ls_re * ls_re - r_dsph * dsph)
    h[..., 3, 3] = 4.0 * (var - ag2 * lp_re * lp_re - r * carrier * carrier)
    h[..., 1, 3] = h[..., 3, 1] = -4.0 * (r_dsph * carrier + ag2 * ls_re * lp_re)

    # 2 |gamma| dsa and 2 |gamma| dpa
    gs = 2.0 * ag2 * ls_re
    gp = 2.0 * ag2 * lp_re
    g = _matrices(shape)
    g[..., 0, 1] = -gs * dsph * ag2 / one_minus
    g[..., 2, 3] = -gp * carrier * ag2 / one_minus
    g[..., 0, 3] = gp * dsph - gs * carrier / one_minus
    g[..., 1, 2] = gp * dsph / one_minus - gs * carrier
    return h, g - g.swapaxes(-1, -2)


def _require_s_in_range(psf: GaussianPsf, s) -> None:
    threshold = small_separation_threshold(psf.k, psf.z_r)
    if np.count_nonzero(np.abs(s) < threshold):
        raise SmallSeparationError(
            f"|s| = {np.abs(s).min():.3e} below {threshold:.3e}: the explicit Gaussian "
            "expressions have removable singularities at s = 0; use general_matrices with "
            "the analytic jet (p != 0) or small_separation_limit (both separations small)"
        )


def _explicit_terms(psf: GaussianPsf, s, p):
    """Subexpressions shared by the explicit Gaussian H and Gamma, elementwise."""
    shape, (s, p) = _points(s, p)
    _require_s_in_range(psf, s)
    k, zr = psf.k, psf.z_r
    s2 = s * s
    q = p * p
    vs = (2.0 * k * zr) * s2 / (q + 4.0 * zr * zr)
    evs = np.exp(vs)
    ks2 = k * s2
    den = ks2 * evs - (2.0 * zr) * vs  # k e^vs s^2 - 2 vs z_R
    return shape, s, p, s2, q, vs, evs, np.exp(-vs), ks2, den


def gaussian_matrices(psf: GaussianPsf, s, p) -> tuple[np.ndarray, np.ndarray]:
    """Explicit Gaussian-beam H and Gamma at separations (s, p).

    Broadcasts over array ``s`` and ``p``: N points give two (N, 4, 4) stacks.
    """
    shape, s, p, s2, q, vs, evs, emvs, ks2, den = _explicit_terms(psf, s, p)
    k, zr = psf.k, psf.z_r
    zr2 = zr * zr
    vs2 = vs * vs
    kk = ks2 * ks2  # k^2 s^4

    h = _matrices(shape)
    h[..., 0, 0] = k / (2.0 * zr)
    h[..., 1, 1] = (vs / s2) * (
        q * (1.0 / zr2 - 2.0 * vs2 / (zr * den)) - 8.0 * zr * emvs * vs2 / ks2 + 4.0
    )
    h[..., 2, 2] = 1.0 / (4.0 * zr2)
    h[..., 3, 3] = emvs * (
        4.0 * evs * evs * kk * kk
        - kk * evs * vs2 * (q * (vs2 - 4.0 * vs + 8.0) + 4.0 * zr2 * (vs2 + 4.0))
        + 16.0 * zr2 * q * (vs - 1.0) * (vs - 1.0) * vs2 * vs2
    ) / (4.0 * zr2 * kk * ks2 * den)
    h[..., 1, 3] = h[..., 3, 1] = (
        p * emvs * vs2 * (kk * evs * (vs - 2.0) - 8.0 * zr2 * (vs - 1.0) * vs2)
        / (zr * kk * s * den)
    )

    vs3 = vs * vs * vs
    em_den = emvs / den
    bq = q * (vs - 2.0) - 4.0 * zr * zr * vs
    g = _matrices(shape)
    g[..., 0, 1] = -4.0 * zr * p * em_den * vs3 * vs / (ks2 * s2)
    g[..., 2, 3] = -p * em_den * (vs - 1.0) * vs3 * vs * bq / (2.0 * zr * kk * ks2)
    g[..., 0, 3] = em_den * vs3 * (2.0 * q * (vs - 1.0) * vs - kk * evs) / (kk * s)
    g[..., 1, 2] = -em_den * vs3 * (kk * evs + vs * bq) / (kk * s)
    return h, g - g.swapaxes(-1, -2)


def small_separation_limit(psf: GaussianPsf) -> tuple[np.ndarray, np.ndarray]:
    """Information matrices in the coincident-source limit.

    H tends to diag(k/(2 z_R), 2k/z_R, 1/(4 z_R^2), 1/z_R^2) and Gamma to
    zero: all four parameters decouple for infinitesimally separated
    sources, and the total error bound stays finite.
    """
    k, zr = psf.k, psf.z_r
    h = np.diag([k / (2.0 * zr), 2.0 * k / zr, 1.0 / (4.0 * zr ** 2), 1.0 / zr ** 2])
    return h, np.zeros((4, 4))

