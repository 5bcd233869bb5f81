"""Point-spread-function models reduced to overlap data.

The two-source estimation problem never needs the image-plane amplitude
itself.  A PSF enters only through

* three source-independent scalars: the squared norm of the transverse
  derivative of the reference image state, and the mean and variance of
  the axial propagation generator; and
* the complex overlap ``gamma(s, p)`` between the two source images,
  together with its first and second partial derivatives in the angular
  separation ``s`` and the axial separation ``p``.

This module defines those value types, the Gaussian-beam model with
analytic derivatives, and a finite-difference adapter that builds the
derivative data for any user-supplied overlap function.

All lengths are in one consistent, caller-chosen unit; the wavenumber
``k`` carries the inverse unit.  No internal unit conversion happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, NonFiniteSampleError

__all__ = [
    "SourceGeometry",
    "PsfConstants",
    "OverlapJet",
    "GaussianPsf",
    "gaussian_constants",
    "gaussian_overlap",
    "gaussian_overlap_jet",
    "fd_overlap_jet",
    "fd_default_step",
    "small_separation_threshold",
]


@dataclass(frozen=True)
class SourceGeometry:
    """Two-source geometry in separation/centroid form.

    ``s``: angular (transverse) separation, ``xbar``: angular centroid,
    ``p``: axial separation, ``zbar``: axial centroid.
    """

    s: float
    xbar: float
    p: float
    zbar: float

    @classmethod
    def from_coordinates(cls, x1: float, z1: float, x2: float, z2: float) -> "SourceGeometry":
        """Build from absolute source coordinates (x1, z1) and (x2, z2)."""
        return cls(s=x2 - x1, xbar=(x2 + x1) / 2.0, p=z2 - z1, zbar=(z2 + z1) / 2.0)

    def to_coordinates(self) -> tuple[float, float, float, float]:
        """Return (x1, z1, x2, z2)."""
        return (
            self.xbar - self.s / 2.0,
            self.zbar - self.p / 2.0,
            self.xbar + self.s / 2.0,
            self.zbar + self.p / 2.0,
        )


@dataclass(frozen=True)
class PsfConstants:
    """Source-independent scalars of a PSF model.

    ``dpsi_norm_sq``: squared norm of the transverse-derivative image state
    (inverse length squared).  ``mean_g`` and ``g_variance``: mean and
    variance of the axial generator in the reference image state (inverse
    length, inverse length squared).  The variance is stored, not rebuilt
    from the second moment, which would cancel when ``mean_g**2`` dwarfs it.
    """

    dpsi_norm_sq: float
    mean_g: float
    g_variance: float

    def __post_init__(self) -> None:
        if not self.dpsi_norm_sq > 0.0:
            raise InvalidParameterError(
                f"dpsi_norm_sq must be positive, got {self.dpsi_norm_sq}"
            )
        if self.g_variance < 0.0:
            raise InvalidParameterError(
                f"generator variance g_variance must not be negative, got {self.g_variance}"
            )

    @property
    def mean_g2(self) -> float:
        """Second moment of the axial generator, g_variance + mean_g**2."""
        return self.g_variance + self.mean_g ** 2


@dataclass(frozen=True)
class OverlapJet:
    """Overlap ``gamma`` at one (s, p) with first and second partials, or at
    N points with array fields.

    ``d_s`` and ``d_p`` are the first partials in the angular and axial
    separation, ``d_ss``/``d_pp``/``d_sp`` the pure and mixed second
    partials.  Derived magnitude/phase data are exposed as properties and
    are computed branch-free from the complex derivatives, so they stay
    valid when the phase of gamma crosses +/-pi.
    """

    gamma: complex
    d_s: complex
    d_p: complex
    d_ss: complex
    d_pp: complex
    d_sp: complex

    def __getitem__(self, index) -> "OverlapJet":
        """The jet at the points ``index`` of an array-valued jet."""
        return OverlapJet(self.gamma[index], self.d_s[index], self.d_p[index],
                          self.d_ss[index], self.d_pp[index], self.d_sp[index])

    @property
    def abs_gamma(self) -> float:
        return abs(self.gamma)

    @property
    def phase(self) -> float:
        """Argument of gamma (principal value)."""
        return np.angle(self.gamma)

    @property
    def d_s_abs(self) -> float:
        """d|gamma|/ds, as Re(d_s * conj(gamma)) / |gamma|.  Needs gamma != 0."""
        return (self.d_s * self.gamma.conjugate()).real / abs(self.gamma)

    @property
    def d_p_abs(self) -> float:
        """d|gamma|/dp, as Re(d_p * conj(gamma)) / |gamma|.  Needs gamma != 0."""
        return (self.d_p * self.gamma.conjugate()).real / abs(self.gamma)

    @property
    def d_s_phase(self) -> float:
        """d(arg gamma)/ds, as Im(d_s / gamma).  Needs gamma != 0."""
        return (self.d_s / self.gamma).imag

    @property
    def d_p_phase(self) -> float:
        """d(arg gamma)/dp, as Im(d_p / gamma).  Needs gamma != 0."""
        return (self.d_p / self.gamma).imag


@dataclass(frozen=True)
class GaussianPsf:
    """Gaussian-beam PSF, parametrized by wavenumber ``k`` and the
    Rayleigh-type length ``z_r`` (both positive, consistent units)."""

    k: float
    z_r: float

    def __post_init__(self) -> None:
        if not self.k > 0.0:
            raise InvalidParameterError(f"wavenumber k must be positive, got {self.k}")
        if not self.z_r > 0.0:
            raise InvalidParameterError(f"length z_r must be positive, got {self.z_r}")


def gaussian_constants(psf: GaussianPsf) -> PsfConstants:
    """Source-independent constants of the Gaussian beam.

    dpsi_norm_sq = k/(2 z_R), mean_g = k - 1/(2 z_R) and the generator
    variance g_variance = 1/(4 z_R^2).
    """
    k, zr = psf.k, psf.z_r
    return PsfConstants(
        dpsi_norm_sq=k / (2.0 * zr),
        mean_g=k - 1.0 / (2.0 * zr),
        g_variance=1.0 / (4.0 * zr * zr),
    )


def _points(*values, dtype=float):
    """``values`` as numpy values of ``dtype``, and the shape of their broadcast.

    One point comes back as numpy scalars, which cost about a tenth of
    one-element arrays per operation and round as the array loops do, except
    in complex products (see ``_cmul``).  So a point gives the same bits
    alone as among others.
    """
    arrays = [np.asarray(v, dtype=dtype) for v in values]
    shapes = {a.shape for a in arrays}
    shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    if math.prod(shape) == 1:
        return shape, [a.reshape(())[()] for a in arrays]
    return shape, arrays


def _shaped(shape, values):
    """``values``, computed elementwise on the output of ``_points``, in ``shape``."""
    if shape and math.prod(shape) == 1:
        return [v.reshape(shape) for v in values]
    return values


def _cmul(a, b):
    """a * b for complex a and b, rounded alike on numpy scalars and arrays.

    numpy's array loops fuse the multiply-adds of a complex product and its
    scalars do not; this textbook form rounds the same way in both.
    """
    return a.real * b + a.imag * (1j * b)


def _overlap_terms(psf: GaussianPsf, s, p):
    """The shape of the points, s, p, gamma, 1/d and i k s^2 / (2 d) with
    d = p + 2i z_R, elementwise (see ``_points``)."""
    k, zr = psf.k, psf.z_r
    # complex s and p: numpy mixes its real scalars with Python complex slowly
    shape, (s, p) = _points(s, p, dtype=complex)
    inv = 1.0 / (p + 2j * zr)
    t = (0.5j * k) * (s * s) * inv  # an imaginary factor times inv rounds alike
    gamma = _cmul((2j * zr) * inv, np.exp((-1j * k) * p - t))
    return shape, s, p, gamma, inv, t


def gaussian_overlap(psf: GaussianPsf, s, p):
    """Complex overlap of the two Gaussian source images.

    gamma(s, p) = [2i z_R / (p + 2i z_R)] * exp(-i k p - i k s^2 / (2 (p + 2i z_R)))

    Entire in (s, p); gamma(0, 0) = 1 and |gamma| < 1 elsewhere.  Broadcasts
    over array ``s`` and ``p``; scalars give a scalar.
    """
    shape, _, _, gamma, _, _ = _overlap_terms(psf, s, p)
    return _shaped(shape, [gamma])[0]


def gaussian_overlap_jet(psf: GaussianPsf, s, p) -> OverlapJet:
    """Overlap jet of the Gaussian beam, by analytic differentiation.

    With d = p + 2i z_R the log-derivatives of gamma are polynomial in 1/d,
    so every partial is gamma times a rational factor; all expressions are
    smooth for z_R > 0.  Broadcasts over array ``s`` and ``p``: the fields
    are arrays of their broadcast shape, or scalars for scalar ``s`` and ``p``.
    """
    k = psf.k
    shape, s, p, gamma, inv, t = _overlap_terms(psf, s, p)
    # d log(gamma)/ds and /dp, plus their own derivatives
    iks = (-1j * k) * s
    ls = iks * inv
    lp = _cmul(t, inv) - inv - 1j * k
    inv2 = _cmul(inv, inv)
    ls_s = (-1j * k) * inv
    lp_p = _cmul(inv2, 1.0 - 2.0 * t)
    ls_p = -iks * inv2
    fields = (
        gamma,
        _cmul(gamma, ls),
        _cmul(gamma, lp),
        _cmul(gamma, _cmul(ls, ls) + ls_s),
        _cmul(gamma, _cmul(lp, lp) + lp_p),
        _cmul(gamma, _cmul(ls, lp) + ls_p),
    )
    return OverlapJet(*_shaped(shape, fields))


def fd_default_step(s: float, p: float) -> float:
    """Default central-difference step, 1e-5 * max(1, |s|, |p|)."""
    return 1e-5 * max(1.0, abs(s), abs(p))


def _require_finite(value: complex, where: str) -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFiniteSampleError(f"overlap function returned {z!r} at {where}")
    return z


def fd_overlap_jet(
    gamma_fn: Callable[[float, float], complex],
    s: float,
    p: float,
    step: float | None = None,
) -> OverlapJet:
    """Overlap jet of an arbitrary overlap function by central differences.

    Parameters
    ----------
    gamma_fn : callable
        ``gamma_fn(s, p) -> complex``, defined on a neighbourhood of (s, p).
    s, p : float
        Evaluation point.
    step : float, optional
        Stencil step.  Defaults to ``fd_default_step(s, p)``.  First and
        second partials are second-order accurate in ``step``; note that
        second-difference roundoff scales like eps/step^2, so steps around
        1e-4 * max(1, |s|, |p|) minimize the total second-derivative error
        in double precision.

    Raises
    ------
    NonFiniteSampleError
        If ``gamma_fn`` returns NaN or infinity at any stencil point.
    InvalidParameterError
        If ``step`` is not positive.
    """
    h = fd_default_step(s, p) if step is None else float(step)
    if not h > 0.0:
        raise InvalidParameterError(f"step must be positive, got {step}")

    def f(ss: float, pp: float) -> complex:
        return _require_finite(gamma_fn(ss, pp), f"(s={ss!r}, p={pp!r})")

    f00 = f(s, p)
    fps = f(s + h, p)
    fms = f(s - h, p)
    fpp_ = f(s, p + h)
    fmp = f(s, p - h)
    fap = f(s + h, p + h)
    fam = f(s + h, p - h)
    fbp = f(s - h, p + h)
    fbm = f(s - h, p - h)
    return OverlapJet(
        gamma=f00,
        d_s=(fps - fms) / (2.0 * h),
        d_p=(fpp_ - fmp) / (2.0 * h),
        d_ss=(fps - 2.0 * f00 + fms) / (h * h),
        d_pp=(fpp_ - 2.0 * f00 + fmp) / (h * h),
        d_sp=(fap - fam - fbp + fbm) / (4.0 * h * h),
    )


def small_separation_threshold(k: float, z_r: float) -> float:
    """Separation scale below which numerical routes defer to the
    coincident-source limit: 1e-6 * max(1/k, z_R)."""
    return 1e-6 * max(1.0 / k, z_r)
