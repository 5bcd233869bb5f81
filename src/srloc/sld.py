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
the overlap jet of the beam ``NATURAL`` and returns natural-unit results;
``routes.evaluate(..., "pipeline")`` checks the inputs, converts them,
sends the jet of the points outside the coincident-source limit to it,
scales the results and labels every point.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateBasisError, SrlocError
from .gram import _DRHO_ROWS, COORDINATES, _abs2, factor
from .psf import NATURAL, OverlapJet, gaussian_constants

__all__ = ["PARAMETERS", "COLUMNS", "matrices", "pair_scale", "pipeline"]

# Estimation parameters, fixed order used by every 4x4 matrix in the package.
PARAMETERS = ("s", "xbar", "p", "zbar")

# The result layout, a row of 16 entries (matrix, row, column) per point: H's upper
# triangle and Gamma's strict upper one.  Only the first nine, the sweep CSV's value
# columns, can be nonzero for two sources of equal brightness; the last seven vanish.
COLUMNS = (("H", 0, 0), ("H", 1, 1), ("H", 2, 2), ("H", 3, 3), ("H", 1, 3),
           ("Gamma", 0, 1), ("Gamma", 2, 3), ("Gamma", 0, 3), ("Gamma", 1, 2),
           ("H", 0, 1), ("H", 0, 2), ("H", 0, 3), ("H", 1, 2), ("H", 2, 3),
           ("Gamma", 0, 2), ("Gamma", 1, 3))
ZEROS = slice(9, 16)
# Per column: 1 for Gamma's, 0 for H's, and the row and column of its entry.
GAMMA, ROW, COL = np.array([(int(m == "Gamma"), i, j) for m, i, j in COLUMNS]).T
# Per column, its entry's place in a row of complex entries viewed as floats:
# real part for H, imaginary part for Gamma.
_PART = 2 * COL + GAMMA
# The smallest normal double.
_TINY = np.finfo(float).tiny


def matrices(table) -> tuple[np.ndarray, np.ndarray]:
    """H and Gamma, (..., 4, 4) each, of a (..., 16) array in the ``COLUMNS``
    layout: H mirrored, Gamma's lower triangle ``0.0 -`` its upper one."""
    out = np.zeros(table.shape[:-1] + (2, 4, 4))
    out[..., GAMMA, ROW, COL] = table
    out[..., GAMMA, COL, ROW] = np.where(GAMMA, 0.0 - table, table)
    return out[..., 0, :, :], out[..., 1, :, :]


def pair_scale(a, b):
    """sqrt(a b) of H's diagonal entries a and b, elementwise, by which the
    (i, j) entries are compared; sqrt(a) sqrt(b) where a b underflows or
    overflows (H's diagonal beyond about 1e-154 or 1e154)."""
    with np.errstate(over="ignore", invalid="ignore"):
        product = a * b
        scale = np.sqrt(product)
        rough = (product < _TINY) | (product == np.inf)
        if np.count_nonzero(rough):
            scale = np.where(rough, np.sqrt(a) * np.sqrt(b), scale)
    return scale


# A point whose smallest normalized pivot T_jj^2 / S_jj falls below this
# counts as numerically degenerate.  Each normalized pivot is at least the
# ratio of the extreme eigenvalues of S.  Near (0, 0) the pipeline's error
# grows as the pivots shrink; at this bound each point of the grid
# [0, 0.12]^2 (k = 1, z_R = 2) that it serves and the eigenvalue-ratio test
# at 1e-12 refused is closer to the 50-digit oracle than the worst point
# that test served.
DEGENERACY_THRESHOLD = 5e-8

# Max tolerated asymmetry of Re/Im Tr(rho L L) before symmetrization.
_ASYMMETRY_LIMIT = 1e-10

# 2**600: scales rho's support block, exactly, for its eigenvector (see _support_frame).
_UP = 2.0 ** 600

# Points per pass of the stacked core.  Bounds the working set of a long
# sweep: the largest array of a pass holds 4 x 12 complex SLD entries per point.
BLOCK_POINTS = 512

# The constants of NATURAL, which the pipeline and the general forms take.
_CONSTS = gaussian_constants(NATURAL)
# S_jj of the rows of gram.factor's five pivots, as a column.
_PIVOT_NORMS = np.array([[1.0], [_CONSTS.dpsi_norm_sq], [_CONSTS.g_variance],
                         [_CONSTS.dpsi_norm_sq], [_CONSTS.g_variance]])

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


def _pipeline_block(jet: OverlapJet):
    """Run the pipeline on the n points of an overlap jet at once: the (n, 16)
    table of H and Gamma, every entry with its own roundoff, rho's eigenvalues
    (n, 6), descending, the (n,) mask of the points it refuses and, where it
    refuses any, the failure of the first, (error type, reason); else None.

    Every step but the traces is elementwise, with the points on the last
    axis: the Cholesky factor and the eigenframe of rho's support block in
    closed form, the SLD rows as broadcast products.  No step calls LAPACK,
    and a point gives the same bits alone as inside a stack; for one point
    the factor and the frame run on numpy scalars.  A point is refused, its
    outputs NaN, where a normalized pivot T_jj^2 / S_jj is not at least
    ``DEGENERACY_THRESHOLD`` (as (s, p) -> (0, 0), or where the jet is not
    finite) or where the traces' asymmetry is ``_ASYMMETRY_LIMIT`` or more.
    """
    n = len(jet.gamma)
    t, pivots = factor(jet[0] if n == 1 else jet, _CONSTS)
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
        asym = np.abs((c - c_h).view(float)).reshape(n, -1).max(axis=1)
    # a jet that is not finite leaves a NaN pivot, which is low
    pivots = np.reshape(pivots, (5, n))
    low = ~(pivots >= DEGENERACY_THRESHOLD * _PIVOT_NORMS)
    failed = low.any(axis=0) | (asym >= _ASYMMETRY_LIMIT)

    # H's entries are the real parts, Gamma's the imaginary ones
    table, eigs = ((c + c_h) * 0.5).view(float)[:, ROW, _PART], q.T
    if not np.count_nonzero(failed):
        return table, eigs, failed, None
    table[failed] = eigs[failed] = np.nan
    i = int(np.argmax(failed))
    at = jet[i]
    if not np.isfinite([at.gamma, at.d_s, at.d_p, at.d_ss, at.d_pp, at.d_sp]).all():
        failure = DegenerateBasisError, "overlap jet is not finite (it overflows at this separation)"
    elif low[:, i].any():
        j = int(np.argmax(low[:, i]))
        failure = DegenerateBasisError, (
            "basis is numerically degenerate (normalized Cholesky pivot "
            f"{pivots[j, i] / _PIVOT_NORMS[j, 0]:.3e} below threshold {DEGENERACY_THRESHOLD:.1e}); "
            "the sources are too close for the numerical route -- use the coincident-source limit")
    else:
        failure = SrlocError, (f"information-matrix asymmetry {asym[i]:.3e} exceeds "
                               f"{_ASYMMETRY_LIMIT:.1e}; inputs are inconsistent or ill-conditioned")
    return table, eigs, failed, failure


def pipeline(jet: OverlapJet):
    """The stacked pipeline of ``NATURAL`` on the N points of its overlap jet,
    in blocks of ``BLOCK_POINTS``.

    Returns the (N, 16) table of H and Gamma, rho's eigenvalues (N, 6),
    descending, the (N,) mask of the refused points, which hold NaN, and the
    failure of the first, (error type, reason), or None.
    """
    n = len(jet.gamma)
    if n <= BLOCK_POINTS:
        return _pipeline_block(jet)
    tables, eigs, failed, failures = zip(*(_pipeline_block(jet[start:start + BLOCK_POINTS])
                                           for start in range(0, n, BLOCK_POINTS)))
    return (np.concatenate(tables), np.concatenate(eigs), np.concatenate(failed),
            next((failure for failure in failures if failure), None))
