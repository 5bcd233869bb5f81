"""Symmetric-logarithmic-derivative solve and information-matrix extraction.

The pipeline runs on N points at once, entry by entry.  Per point it takes
the Cholesky factor S = T^H T (T upper triangular) of the Gram matrix, in
closed form from the overlap jet (``gram.factor``), to reach an
orthonormal frame.  There the identity S T^{-1} = T^H turns the state and
its coordinate derivatives into closed expressions in the columns t_j of T,

    rho = (t0 t0^H + t1 t1^H) / 2,    drho_ab = (t_a t_b^H + t_b t_a^H) / 2,

so no inverse is formed.  rho has rank 2 and lives on the first two
coordinates: the eigenvalues q and eigenvectors u of that 2x2 block come in
closed form, and the eigenframe of rho is blockdiag(u, I_4).  H and Gamma
need each SLD only on its two support rows, where ``L rho + rho L = 2 drho``
gives L[i, j] = 2 drho[i, j] / (q_i + q_j) for the four physical parameters
(s, xbar, p, zbar) together, and

    H[mu, nu] + i * Gamma[mu, nu] = Tr(rho L_mu L_nu)
                                  = sum_{i < 2, j} q_i L_mu[i, j] conj(L_nu[i, j]).

All results are independent of the centroid coordinates by construction
(the Gram data only sees the separations).  ``pipeline`` runs the blocks on
the beam ``NATURAL`` at natural separations and returns natural-unit
results; ``routes.evaluate(..., "pipeline")`` checks the inputs, converts
them, sends the points outside the coincident-source limit to it, scales
the results and labels every point.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import DegenerateBasisError, SrlocError
from .gram import _DRHO_ROWS, COORDINATES, _abs2, factor
from .psf import NATURAL, OverlapJet, PsfConstants, gaussian_constants, gaussian_overlap_jet

__all__ = ["PARAMETERS", "pipeline"]

logger = logging.getLogger(__name__)

# Estimation parameters, fixed order used by every 4x4 matrix in the package.
PARAMETERS = ("s", "xbar", "p", "zbar")

# Max tolerated asymmetry of Re/Im Tr(rho L L) before symmetrization.
_ASYMMETRY_LIMIT = 1e-10

# 2**600: scales rho's support block, exactly, for its eigenvector (see _support_frame).
_UP = 2.0 ** 600

# Points per pass of the stacked core.  Bounds the working set of a long
# sweep: the largest array of a pass holds 4 x 12 complex SLD entries per point.
BLOCK_POINTS = 512

# State column of each coordinate derivative of rho; the derivative columns
# are 2..5 in COORDINATES order.
_STATE_COLS = [_DRHO_ROWS[c][0] for c in COORDINATES]


def _support_frame(t00, t01, t11):
    """Eigenvalues and eigenvectors of the support block of rho, in closed form.

    ``t00``, ``t01`` and ``t11`` are the entries of the leading 2x2 block m
    of the Cholesky factor T, upper triangular with t00 >= t11 > 0 real (the
    images have unit norm, so t00 = 1), and rho's support block is m m^H / 2.
    Elementwise on numpy scalars or arrays.  Returns the eigenvalues q_big >=
    q_small and (cos, sin), cos real: the eigenvectors are the columns of
    u = [[cos, -conj(sin)], [sin, cos]], in the same order.
    """
    # 2 rho = [[a, b], [conj(b), d]] with half = (a - d)/2 >= 0 (|t01|^2 for
    # unit-norm images), so that the eigenvector below has no cancellation.
    # The eigenvector takes b and half times _UP: where |gamma| is subnormal,
    # b has few bits and its norm too few to keep u unitary.
    d = t11 * t11
    b = t01 * t11 * _UP
    half = (t00 * t00 + _abs2(t01) - d) * (_UP / 2.0)
    abs_b = np.abs(b)
    rise = half + np.hypot(half, abs_b)  # (2 q_big - d) * _UP
    q_big = (rise / _UP + d) / 2.0
    q_small = (t00 * t11) ** 2 / (4.0 * q_big)  # det(rho) / q_big: no cancellation
    # The eigenvector of q_big is (rise, conj(b)).  It vanishes only where
    # b = 0 and a = d, so that the block is a multiple of I: u = I there.
    norm = np.hypot(rise, abs_b)
    degenerate = norm == 0.0
    norm = norm + degenerate
    return q_big, q_small, rise / norm + degenerate, b.real / norm - 1j * (b.imag / norm)


def _to_physical(coord: np.ndarray) -> np.ndarray:
    """Derivatives in the physical (s, xbar, p, zbar) from those in the
    coordinates (x1, z1, x2, z2), along the first axis of ``coord``: s = x2 -
    x1 and xbar = (x1 + x2)/2 give L_s = (L_x2 - L_x1)/2 and L_xbar = L_x1 +
    L_x2; same axially."""
    one, two = coord[:2], coord[2:]
    out = np.empty_like(coord)
    out[0::2] = (two - one) * 0.5
    out[1::2] = one + two
    return out


def _support_drho(t: dict, cos, sin, n: int) -> np.ndarray:
    """The support rows of the four physical drho in rho's eigenframe, (4, 2,
    6, n), from the entries ``t`` of ``gram.factor`` and the frame (cos, sin)
    of ``_support_frame`` at n points.

    In the eigenframe blockdiag(u, I_4) a basis column j has the coordinates
    w_j = (u^H T[:2, j], T[2:, j]), and coordinate c, with its state and
    derivative columns (a, b), has x_c = w_a w_b^H.  The state columns have
    no kernel rows, so x_c^H adds to the support block only:
    drho_c = (x_c + x_c^H)/2.
    """
    w = np.zeros((6, 6, n), dtype=complex)  # w[j] = T[:, j], then w_j
    for (row, col), entry in t.items():
        w[col, row] = entry
    top, bottom = w[:, 0].copy(), w[:, 1].copy()
    w[:, 0] = cos * top + np.conjugate(sin) * bottom
    w[:, 1] = cos * bottom - sin * top
    half = w[:2, :2] * 0.5  # w_a[i] / 2 of the state columns a = 0, 1
    drho = _to_physical(half[_STATE_COLS, :, None] * np.conjugate(w[2:, None]))
    block = drho[:, :, :2]
    block += block.conj().swapaxes(1, 2)
    return drho


def _pipeline_block(jet: OverlapJet, consts: PsfConstants):
    """Run the pipeline on the n points of an overlap jet at once: H and
    Gamma (n, 4, 4), rho's eigenvalues (n, 6), descending, and the
    failures, index -> (error type, reason), in index order.

    Every step but the traces is elementwise, with the points on the last
    axis: the Cholesky factor and the eigenframe of rho's support block in
    closed form, the SLD rows as broadcast products.  No step calls LAPACK,
    and a point gives the same bits alone as inside a stack; for one point
    the factor and the frame run on numpy scalars.  A refused point's
    outputs are NaN and its failure is recorded.
    """
    n = len(jet.gamma)
    t, refused = factor(jet[0] if n == 1 else jet, consts)
    failures = {i: (DegenerateBasisError, reason) for i, reason in refused.items()}
    with np.errstate(all="ignore"):  # the refused points' entries may be NaN
        q = np.zeros((6, n))
        q[0], q[1], cos, sin = _support_frame(t[0, 0], t[0, 1], t[1, 1])
        l_rows = _support_drho(t, cos, sin, n)
        # SLD support rows; served points keep q_i + q_j >= q_small >= DEGENERACY_THRESHOLD / 4
        l_rows *= 2.0 / (q[:2, None] + q[None, :])
        # Tr(rho L_mu L_nu) = sum_ij q_i L_mu[i, j] conj(L_nu[i, j]), L
        # Hermitian and q_i = 0 off the support rows: one (4, 12) @ (12, 4)
        # product per point.
        rho_l = (l_rows * q[:2, None]).reshape(4, 12, n).transpose(2, 0, 1)
        c = rho_l @ np.conjugate(l_rows, out=l_rows).reshape(4, 12, n).transpose(2, 1, 0)
        c_h = c.conj().swapaxes(-1, -2)
        # max(|H - H^T|, |Gamma + Gamma^T|) before symmetrization, per point
        asym = np.max(np.abs((c - c_h).view(float)), axis=(-2, -1))
    for i in np.flatnonzero(asym >= _ASYMMETRY_LIMIT):
        failures.setdefault(int(i), (
            SrlocError,
            f"information-matrix asymmetry {asym[i]:.3e} exceeds "
            f"{_ASYMMETRY_LIMIT:.1e}; inputs are inconsistent or ill-conditioned",
        ))
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("qfim pre-symmetrization residual, max over %d points: %.3e",
                     n, float(np.max(asym, initial=0.0)))

    sym = (c + c_h) * 0.5
    h, gamma_mat, eigs = sym.real, sym.imag, q.T
    if failures:
        bad = list(failures)
        h[bad] = gamma_mat[bad] = eigs[bad] = np.nan
    return h, gamma_mat, eigs, dict(sorted(failures.items()))


def _jet(s, p) -> OverlapJet:
    """The overlap jet of ``NATURAL`` at (s, p); where it overflows it holds
    inf or NaN, which ``gram.factor`` reports as a refused point."""
    with np.errstate(over="ignore", invalid="ignore"):
        return gaussian_overlap_jet(NATURAL, s, p)


def pipeline(s: np.ndarray, p: np.ndarray, skip: np.ndarray):
    """The stacked pipeline of ``NATURAL`` at the natural separations (s[i],
    p[i]) outside the mask ``skip``, in blocks of ``BLOCK_POINTS``.

    Returns H and Gamma (N, 4, 4), rho's eigenvalues (N, 6), descending, and
    the failures, index -> (error type, reason), in index order; skipped and
    failed points hold NaN.
    """
    n = len(s)
    h = np.full((n, 4, 4), np.nan)
    gamma_mat = np.full((n, 4, 4), np.nan)
    eigs = np.full((n, 6), np.nan)
    failures = {}
    consts = gaussian_constants(NATURAL)
    todo = np.flatnonzero(~skip)
    for start in range(0, len(todo), BLOCK_POINTS):
        idx = todo[start:start + BLOCK_POINTS]
        h[idx], gamma_mat[idx], eigs[idx], block_failures = _pipeline_block(
            _jet(s[idx], p[idx]), consts)
        failures.update((int(idx[i]), failure) for i, failure in block_failures.items())
    return h, gamma_mat, eigs, failures
