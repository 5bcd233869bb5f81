"""The Cholesky factor of the two-source basis's Gram matrix, in closed form.

The one-photon state of two incoherent sources and all its coordinate
derivatives live in the span of six vectors: the two source images and
the four coordinate derivatives of those images,

    (Psi1, Psi2, d/dx1 Psi1, d/dz1 Psi1, d/dx2 Psi2, d/dz2 Psi2).

Their Gram matrix S holds everything the pipeline needs about the basis.
Every Gram entry depends on the source coordinates only through the
separations (s, p); centroid coordinates never enter.  The images are
centered (see ``psf.gaussian_overlap``): each is orthogonal to its
derivatives.  With the jet (g, ds, dp, dss, dpp, dsp) and the constants
n = ``dpsi_norm_sq``, v = ``g_variance``, the upper triangle of S is

    row 0:  1  g        0     0      ds     dp
    row 1:     1        -ds*  -dp*   0      0
    row 2:              n     0      -dss   -dsp
    row 3:                    v      -dsp   -dpp
    row 4:                           n      0
    row 5:                                  v

by the chain rule (s = x2 - x1, p = z2 - z1: d/dx1 -> -d/ds, d/dx2 ->
+d/ds, and the same axially; the mixed source-1/source-2 second
derivatives pick up one sign flip each).  ``factor`` takes its upper
Cholesky factor T, S = T^H T, entry by entry from the jet, skipping the
known zeros, so no matrix is ever formed.
"""

from __future__ import annotations

import numpy as np

from .psf import OverlapJet, PsfConstants

__all__ = ["COORDINATES", "factor"]

# Coordinate labels for the derivative operators, in basis-row order.
COORDINATES = ("x1", "z1", "x2", "z2")

# (state row, derivative-vector row) populated by each coordinate derivative.
_DRHO_ROWS = {"x1": (0, 2), "z1": (0, 3), "x2": (1, 4), "z2": (1, 5)}


def _abs2(z):
    """|z|^2 as two real products, rounded alike on numpy scalars and arrays."""
    return z.real * z.real + z.imag * z.imag


# Complex products and conjugates as ufunc calls: on numpy scalars these run
# the array loops, so a scalar product rounds as an array's does (a scalar's
# own ``*`` does not fuse its multiply-adds); ``np.conjugate`` of a scalar is
# also much cheaper than its ``.conj()`` method.
_mul, _conj = np.multiply, np.conjugate


def factor(jet: OverlapJet, consts: PsfConstants):
    """The upper Cholesky factor T of the Gram matrix at each point of a jet,
    and its pivots.

    Works elementwise on the jet's fields, numpy scalars or 1-D arrays, and
    rounds alike on both, so a point's entries take the same bits alone as
    among others.  Returns T as a dict (row, col) -> entry of its nonzero
    entries, the diagonal real, and the five pivots T_jj^2 of rows 1..5 (row
    0's is 1), which ``sld`` judges.  Where a pivot is not positive, or the
    jet is not finite, a point's entries may be NaN or infinite.
    """
    g, ds, dp, dss, dpp, dsp = jet.gamma, jet.d_s, jet.d_p, jet.d_ss, jet.d_pp, jet.d_sp
    n, v = consts.dpsi_norm_sq, consts.g_variance
    with np.errstate(all="ignore"):
        piv = [1.0 - _abs2(g)]
        t11 = np.sqrt(piv[0])
        inv = -1.0 / t11
        u12, u13 = ds * inv, dp * inv  # conj(T[1, 2]), conj(T[1, 3])
        g_conj = _conj(g)
        t14, t15 = _mul(g_conj, ds) * inv, _mul(g_conj, dp) * inv
        piv.append(n - _abs2(u12))
        t22 = np.sqrt(piv[1])
        inv = -1.0 / t22
        t23 = _mul(u12, _conj(u13)) * inv
        t24 = (dss + _mul(u12, t14)) * inv
        t25 = (dsp + _mul(u12, t15)) * inv
        piv.append(v - _abs2(u13) - _abs2(t23))
        t33 = np.sqrt(piv[2])
        inv = -1.0 / t33
        u23 = _conj(t23)
        t34 = (dsp + _mul(u13, t14) + _mul(u23, t24)) * inv
        t35 = (dpp + _mul(u13, t15) + _mul(u23, t25)) * inv
        piv.append(n - _abs2(ds) - _abs2(t14) - _abs2(t24) - _abs2(t34))
        t44 = np.sqrt(piv[3])
        t45 = ((_mul(_conj(ds), dp) + _mul(_conj(t14), t15) + _mul(_conj(t24), t25)
                + _mul(_conj(t34), t35)) * (-1.0 / t44))
        piv.append(v - _abs2(dp) - _abs2(t15) - _abs2(t25) - _abs2(t35) - _abs2(t45))
        t55 = np.sqrt(piv[4])
    t = {(0, 0): 1.0, (0, 1): g, (0, 4): ds, (0, 5): dp,
         (1, 1): t11, (1, 2): _conj(u12), (1, 3): _conj(u13), (1, 4): t14, (1, 5): t15,
         (2, 2): t22, (2, 3): t23, (2, 4): t24, (2, 5): t25,
         (3, 3): t33, (3, 4): t34, (3, 5): t35, (4, 4): t44, (4, 5): t45, (5, 5): t55}
    return t, piv
