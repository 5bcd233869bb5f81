"""Point-spread-function models reduced to overlap data.

The two-source estimation problem never needs the image-plane amplitude
itself.  A PSF enters only through

* two source-independent scalars: the squared norm of the transverse
  derivative of the reference image state, and the variance of the axial
  propagation generator; and
* the centered complex overlap ``gamma(s, p)`` between the two source
  images (see ``gaussian_overlap``), together with its first and second
  partial derivatives in the angular separation ``s`` and the axial
  separation ``p``.

This module defines those value types, the Gaussian-beam model with
analytic derivatives, and a finite-difference adapter that builds the
derivative data for any user-supplied overlap function.

All lengths are in one consistent, caller-chosen unit; the wavenumber
``k`` carries the inverse unit.  ``GaussianPsf.natural`` and ``.scale``
relate a Gaussian beam to ``NATURAL``, the beam in its natural units.
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
    "NATURAL",
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
    (inverse length squared).  ``g_variance``: variance of the axial
    generator in the reference image state (inverse length squared).
    """

    dpsi_norm_sq: float
    g_variance: float

    def __post_init__(self) -> None:
        for name in ("dpsi_norm_sq", "g_variance"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.dpsi_norm_sq > 0.0:
            raise InvalidParameterError(
                f"dpsi_norm_sq must be positive, got {self.dpsi_norm_sq}"
            )
        if self.g_variance < 0.0:
            raise InvalidParameterError(
                f"generator variance g_variance must not be negative, got {self.g_variance}"
            )


@dataclass(frozen=True)
class OverlapJet:
    """Overlap ``gamma`` at one (s, p) with first and second partials, or at
    N points with array fields.

    ``d_s`` and ``d_p`` are the first partials in the angular and axial
    separation, ``d_ss``/``d_pp``/``d_sp`` the pure and mixed second
    partials.
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


@dataclass(frozen=True)
class GaussianPsf:
    """Gaussian-beam PSF, parametrized by wavenumber ``k`` and the
    Rayleigh-type length ``z_r`` (both positive, consistent units).  The
    scales D^2 = (2k/z_r, 1/z_r^2), and D^2 / 4, must be finite and nonzero
    in floating point: together they are the coincident-source limit."""

    k: float
    z_r: float

    def __post_init__(self) -> None:
        k, zr = self.k, self.z_r
        if not k > 0.0:
            raise InvalidParameterError(f"wavenumber k must be positive, got {k}")
        if not zr > 0.0:
            raise InvalidParameterError(f"length z_r must be positive, got {zr}")
        # as Python floats, which overflow to inf where a numpy scalar would also warn
        fk, fzr = float(k), float(zr)
        zr2 = fzr * fzr
        if not (zr2 > 0.0 and all(0.0 < scale < math.inf for scale in (
                fk / (2.0 * fzr), 2.0 * fk / fzr, 1.0 / (4.0 * zr2), 1.0 / zr2))):
            raise InvalidParameterError(
                f"k={k!r}, z_r={zr!r} are out of floating-point range: k/(2 z_r), 2k/z_r, "
                "1/(4 z_r^2) and 1/z_r^2 must be finite and nonzero"
            )

    def natural(self, s, p):
        """(s, p) in the natural units sqrt(z_R / (2k)) and z_R."""
        return s * math.sqrt(2.0 * self.k / self.z_r), p / self.z_r

    @property
    def scale(self) -> np.ndarray:
        """D_i D_j, D = diag(a, a, b, b), a^2 = 2k/z_R and b^2 = 1/z_R^2, each
        rounded once: H and Gamma at (s, p) are those of ``NATURAL`` at
        ``natural(s, p)`` times this 4x4 matrix, entry by entry."""
        ss, pp = 2.0 * self.k / self.z_r, 1.0 / (self.z_r * self.z_r)
        sp = math.sqrt(ss) / self.z_r
        return np.array([[ss, ss, sp, sp], [ss, ss, sp, sp], [sp, sp, pp, pp], [sp, sp, pp, pp]])


# The Gaussian beam in its natural units, whose constants are both 1/4.
NATURAL = GaussianPsf(k=0.5, z_r=1.0)


def gaussian_constants(psf: GaussianPsf) -> PsfConstants:
    """Source-independent constants of the Gaussian beam.

    dpsi_norm_sq = k/(2 z_R) and the generator variance g_variance = 1/(4 z_R^2).
    """
    k, zr = psf.k, psf.z_r
    return PsfConstants(dpsi_norm_sq=k / (2.0 * zr), g_variance=1.0 / (4.0 * zr * zr))


def _points(*values, dtype=float):
    """``values`` as numpy values of ``dtype``, and the shape of their broadcast.

    One point comes back as numpy scalars, which cost about a tenth of
    one-element arrays per operation and round as the array loops do, except
    in complex products (see ``_cmul``).  So a point gives the same values
    alone as among others, and the same bits but for the sign of a zero or a
    NaN where a product underflows or overflows.
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
    """The shape of the points, s, p, the centered gamma, 1/d and
    i k s^2 / (2 d) with d = p + 2i z_R, elementwise (see ``_points``)."""
    k, zr = psf.k, psf.z_r
    # complex s and p: numpy mixes its real scalars with Python complex slowly
    shape, (s, p) = _points(s, p, dtype=complex)
    inv = 1.0 / (p + 2j * zr)
    t = (0.5j * k) * (s * s) * inv  # an imaginary factor times inv rounds alike
    gamma = _cmul((2j * zr) * inv, np.exp((-0.5j / zr) * p - t))
    return shape, s, p, gamma, inv, t


def gaussian_overlap(psf: GaussianPsf, s, p):
    """Centered complex overlap of the two Gaussian source images.

    gamma(s, p) = [2i z_R / (p + 2i z_R)] * exp(-i p / (2 z_R) - i k s^2 / (2 (p + 2i z_R)))

    It is the overlap times exp(i <G> p), <G> = k - 1/(2 z_R) the mean of the
    axial generator: a phase of one image, which changes neither |gamma| nor
    the state.  Entire in (s, p); gamma(0, 0) = 1 and |gamma| < 1 elsewhere.
    Broadcasts over array ``s`` and ``p``; scalars give a scalar.
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
    lp = _cmul(t, inv) - inv - 0.5j / psf.z_r
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
