"""Closed-form information matrices.

Three layers, each giving the pair (H, Gamma) from one call:

* ``general_matrices``: exact expressions for any PSF in terms of the
  overlap magnitude/phase derivatives and the PSF constants.  Valid
  wherever 1 - |gamma|^2 >= ``OVERLAP_DEGENERACY_TOL``.
* ``natural_gaussian_matrices``: explicit Gaussian-beam expressions in the
  natural separations (s~, p~) and varsigma = s~^2 / (p~^2 + 4).  Powers of
  s in their denominators need |s~| >= ``SMALL_SEPARATION``; the s -> 0
  regime is covered by the general layer (regular for p != 0).
* ``small_separation_limit``: the (s, p) -> (0, 0) limit, where H is
  diagonal and Gamma vanishes.  ``routes.evaluate`` serves it, for every
  method, exactly where the general layer's guard refuses a point.

``gaussian_matrices`` scales the explicit forms to any beam by ``psf.scale``.
Matrix layout is 4x4 in the parameter order (s, xbar, p, zbar); only the
(xbar, zbar) off-diagonal of H and the (s,xbar), (p,zbar), (s,zbar),
(xbar,p) entries of Gamma are ever nonzero.  Every form is elementwise in
the points: scalar (s, p), or a jet of scalars, gives one 4x4 matrix, and N
points give an (N, 4, 4) stack.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateOverlapError, SmallSeparationError
from .psf import GaussianPsf, OverlapJet, PsfConstants, _points

__all__ = ["varsigma", "general_matrices", "natural_gaussian_matrices", "gaussian_matrices",
           "small_separation_limit"]

# 1 - |gamma|^2 below this is too degenerate for the 1/(1-|gamma|^2) terms;
# every method serves the coincident-source limit there.
OVERLAP_DEGENERACY_TOL = 1e-10

# The natural |s~| below which the explicit forms are not evaluated.
SMALL_SEPARATION = 1e-6


def varsigma(k: float, z_r: float, s: float, p: float) -> float:
    """Dimensionless Gaussian separation parameter 2 k s^2 z_R / (p^2 + 4 z_R^2),
    as s~^2 / (p~^2 + 4) in the natural separations."""
    s, p = GaussianPsf(k=k, z_r=z_r).natural(s, p)
    return s * s / (p * p + 4.0)


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
    for an arbitrary PSF, from the jet of its centered overlap.

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
    r_dsph = r * dsph

    h = _matrices(shape)
    h[..., 0, 0] = consts.dpsi_norm_sq
    h[..., 2, 2] = var
    h[..., 1, 1] = 4.0 * (consts.dpsi_norm_sq - ag2 * ls_re * ls_re - r_dsph * dsph)
    h[..., 3, 3] = 4.0 * (var - ag2 * lp_re * lp_re - r * dpph * dpph)
    h[..., 1, 3] = h[..., 3, 1] = -4.0 * (r_dsph * dpph + ag2 * ls_re * lp_re)

    # 2 |gamma| dsa and 2 |gamma| dpa
    gs = 2.0 * ag2 * ls_re
    gp = 2.0 * ag2 * lp_re
    g = _matrices(shape)
    g[..., 0, 1] = -gs * dsph * ag2 / one_minus
    g[..., 2, 3] = -gp * dpph * ag2 / one_minus
    g[..., 0, 3] = gp * dsph - gs * dpph / one_minus
    g[..., 1, 2] = gp * dsph / one_minus - gs * dpph
    return h, g - g.swapaxes(-1, -2)


def _explicit_terms(s, p):
    """Subexpressions shared by the explicit H and Gamma at the natural (s, p), elementwise."""
    shape, (s, p) = _points(s, p)
    if np.count_nonzero(np.abs(s) < SMALL_SEPARATION):
        raise SmallSeparationError(
            f"natural |s| = {np.abs(s).min():.3e} below {SMALL_SEPARATION:.0e}: the explicit "
            "Gaussian expressions have removable singularities at s = 0; use general_matrices "
            "with the analytic jet (p != 0) or small_separation_limit (both separations small)"
        )
    s2 = s * s
    q = p * p
    vs = s2 / (q + 4.0)
    evs = np.exp(vs)
    ks2 = 0.5 * s2
    den = ks2 * evs - 2.0 * vs  # k e^vs s^2 - 2 vs z_R, with k = 1/2 and z_R = 1
    return shape, s, p, s2, q, vs, evs, np.exp(-vs), ks2, den


def natural_gaussian_matrices(s, p) -> tuple[np.ndarray, np.ndarray]:
    """Explicit H and Gamma of ``psf.NATURAL`` at the natural separations (s, p).

    Broadcasts over array ``s`` and ``p``: N points give two (N, 4, 4) stacks.
    """
    shape, s, p, s2, q, vs, evs, emvs, ks2, den = _explicit_terms(s, p)
    vs2 = vs * vs
    kk = ks2 * ks2  # k^2 s^4

    h = _matrices(shape)
    h[..., 0, 0] = 0.25
    h[..., 1, 1] = (vs / s2) * (q * (1.0 - 2.0 * vs2 / den) - 8.0 * emvs * vs2 / ks2 + 4.0)
    h[..., 2, 2] = 0.25
    h[..., 3, 3] = emvs * (
        4.0 * evs * evs * kk * kk
        - kk * evs * vs2 * (q * (vs2 - 4.0 * vs + 8.0) + 4.0 * (vs2 + 4.0))
        + 16.0 * q * (vs - 1.0) * (vs - 1.0) * vs2 * vs2
    ) / (4.0 * kk * ks2 * den)
    h[..., 1, 3] = h[..., 3, 1] = (
        p * emvs * vs2 * (kk * evs * (vs - 2.0) - 8.0 * (vs - 1.0) * vs2) / (kk * s * den)
    )

    vs3 = vs * vs * vs
    em_den = emvs / den
    bq = q * (vs - 2.0) - 4.0 * vs
    g = _matrices(shape)
    g[..., 0, 1] = -4.0 * p * em_den * vs3 * vs / (ks2 * s2)
    g[..., 2, 3] = -p * em_den * (vs - 1.0) * vs3 * vs * bq / (2.0 * kk * ks2)
    g[..., 0, 3] = em_den * vs3 * (2.0 * q * (vs - 1.0) * vs - kk * evs) / (kk * s)
    g[..., 1, 2] = -em_den * vs3 * (kk * evs + vs * bq) / (kk * s)
    return h, g - g.swapaxes(-1, -2)


def gaussian_matrices(psf: GaussianPsf, s, p) -> tuple[np.ndarray, np.ndarray]:
    """Explicit Gaussian-beam H and Gamma at separations (s, p): those of
    ``natural_gaussian_matrices`` at ``psf.natural(s, p)``, times ``psf.scale``."""
    h, g = natural_gaussian_matrices(*psf.natural(np.asarray(s, dtype=float),
                                                  np.asarray(p, dtype=float)))
    scale = psf.scale
    return h * scale, g * scale


def small_separation_limit(psf: GaussianPsf) -> tuple[np.ndarray, np.ndarray]:
    """Information matrices in the coincident-source limit.

    H tends to diag(k/(2 z_R), 2k/z_R, 1/(4 z_R^2), 1/z_R^2) and Gamma to
    zero: all four parameters decouple for infinitesimally separated
    sources, and the total error bound stays finite.
    """
    return np.diag([0.25, 1.0, 0.25, 1.0]) * psf.scale, np.zeros((4, 4))
