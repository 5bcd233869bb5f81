"""Symmetric-logarithmic-derivative solve and information-matrix extraction.

The pipeline runs on a stack of N Gram matrices at once.  Per point it
takes one Cholesky factor S = T^H T (T upper triangular) to reach an
orthonormal frame.  There the identity S T^{-1} = T^H turns the state and
its coordinate derivatives into closed expressions in the columns t_j of T,

    rho = (t0 t0^H + t1 t1^H) / 2,    drho_ab = (t_a t_b^H + t_b t_a^H) / 2,

so no inverse is formed.  rho has rank 2 and lives on the first two
coordinates: the eigenvalues q and eigenvectors u of that 2x2 block come in
closed form, and the eigenframe of rho is blockdiag(u, I_4).  H and Gamma
need each SLD only on its two support rows, where ``L rho + rho L = 2 drho``
is solved elementwise for the four physical parameters (s, xbar, p, zbar)
together, and

    H[mu, nu] + i * Gamma[mu, nu] = Tr(rho L_mu L_nu)
                                  = sum_{i < 2, j} q_i L_mu[i, j] conj(L_nu[i, j]).

All results are independent of the centroid coordinates by construction
(the Gram data only sees the separations).  ``pipeline`` runs the blocks on
the beam ``NATURAL`` at the natural separations and scales the results;
``routes.evaluate(..., "pipeline")`` checks the inputs, sends the points
above the coincident-source threshold to it and labels every point.
"""

from __future__ import annotations

import logging
import sys
import warnings

import numpy as np

from .errors import CutoffDegeneracyWarning, DegenerateBasisError, SrlocError
from .gram import _DRHO_ROWS, COORDINATES, build_gram_stack
from .psf import (NATURAL, GaussianPsf, OverlapJet, PsfConstants, gaussian_constants,
                  gaussian_overlap_jet)

__all__ = ["PARAMETERS", "orthonormalize", "pipeline"]

logger = logging.getLogger(__name__)

# Estimation parameters, fixed order used by every 4x4 matrix in the package.
PARAMETERS = ("s", "xbar", "p", "zbar")

# Numerical rank-2 states populate their kernel at ~1e-16; eigenvalue sums at
# or below this are treated as exact kernel in the SLD solve.
SUPPORT_CUTOFF = 1e-12

# Max tolerated asymmetry of Re/Im Tr(rho L L) before symmetrization.
_ASYMMETRY_LIMIT = 1e-10

# Points per pass of the stacked core.  Bounds the working set of a long
# sweep: the largest array of a pass holds 4 x 12 complex SLD entries per point.
BLOCK_POINTS = 512

# Basis columns (state, derivative) of each coordinate derivative of rho; the
# derivative columns are 2..5 in COORDINATES order.
_STATE_COLS = [_DRHO_ROWS[c][0] for c in COORDINATES]
_DERIV_COLS = slice(2, 6)

# Coordinate (x1, z1, x2, z2) to physical (s, xbar, p, zbar) derivatives:
# s = x2 - x1 and xbar = (x1 + x2)/2 give L_s = (L_x2 - L_x1)/2 and
# L_xbar = L_x1 + L_x2; same axially.
_TO_PHYSICAL = np.array(
    [[-0.5, 0.0, 0.5, 0.0], [1.0, 0.0, 1.0, 0.0], [0.0, -0.5, 0.0, 0.5], [0.0, 1.0, 0.0, 1.0]],
    dtype=complex,
)


def orthonormalize(s_mat: np.ndarray) -> np.ndarray:
    """Upper-triangular Cholesky factor T of a Gram matrix S, T^H T = S.

    T is the change of basis to an orthonormal frame: a basis vector j has
    the coordinates T[:, j] there.  A stack of Gram matrices (..., n, n)
    gives the stack of their factors.

    Raises
    ------
    DegenerateBasisError
        If S (any S of a stack) is not numerically positive definite.
    """
    try:
        lower = np.linalg.cholesky(s_mat)
    except np.linalg.LinAlgError as exc:
        raise DegenerateBasisError(f"Gram matrix is not positive definite: {exc}") from exc
    return np.conjugate(lower, out=lower).swapaxes(-1, -2)


def _support_frame(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the support block of rho, in closed form.

    ``m`` is the leading 2x2 block of the Cholesky factors T (..., 2, 2),
    upper triangular with a real diagonal and m[0, 0] >= m[1, 1] (the
    images have unit norm, so m[0, 0] = 1), and rho's support block is
    m m^H / 2.  Returns the eigenvalues q (..., 2), descending, and the
    eigenvectors u (..., 2, 2) as columns in the same order.
    """
    t00, t01, t11 = m[..., 0, 0].real, m[..., 0, 1], m[..., 1, 1].real
    # 2 rho = [[a, b], [conj(b), d]] with half = (a - d)/2 >= 0 (|t01|^2 for
    # unit-norm images), so that the eigenvector below has no cancellation
    d = t11 * t11
    b = t01 * t11
    half = (t00 * t00 + (t01 * t01.conj()).real - d) / 2.0
    abs_b = np.abs(b)
    rise = half + np.hypot(half, abs_b)  # 2 q_big - d
    q_big = (rise + d) / 2.0
    q_small = (t00 * t11) ** 2 / (4.0 * q_big)  # det(rho) / q_big: no cancellation
    # The eigenvector of q_big is (rise, conj(b)).  It vanishes only where
    # b = 0 and a = d, so that the block is a multiple of I: u = I there.
    norm = np.hypot(rise, abs_b)
    degenerate = norm == 0.0
    norm = norm + degenerate
    cos = rise / norm + degenerate
    sin = b.conj() / norm
    u = np.empty(m.shape, dtype=complex)
    u[..., 0, 0] = u[..., 1, 1] = cos
    u[..., 1, 0] = sin
    u[..., 0, 1] = -sin.conj()
    q = np.empty(m.shape[:-1])
    q[..., 0], q[..., 1] = q_big, q_small
    return q, u


def _support_weights(q: np.ndarray):
    """Weights of the SLD's support rows in the eigenbasis of a state of rank
    at most two, and the number of ill-conditioned entries.

    ``q`` holds the d eigenvalues of the state (..., d), its two support
    eigenvalues first and 0 on the kernel.  The support rows of the SLD are
    L[i, j] = w[i, j] drho[i, j] (i < 2), with w = 2 / (q_i + q_j) wherever
    q_i + q_j exceeds ``SUPPORT_CUTOFF`` and 0 elsewhere (..., 2, d).  The
    kernel rows of L follow by Hermiticity, and its kernel block is left
    out: H and Gamma do not depend on how it is completed.  An eigenvalue
    sum within a decade of the cutoff makes its entry ill-conditioned; their
    count over the d x d frame, where each support-kernel pair appears
    twice, is returned per leading index of ``q``.
    """
    cutoff = SUPPORT_CUTOFF
    qsum = q[..., :2, None] + q[..., None, :]
    near = (qsum > cutoff / 10.0) & (qsum <= cutoff * 10.0)
    shaky = (np.count_nonzero(near, axis=(-2, -1))
             + np.count_nonzero(near[..., 2:], axis=(-2, -1)))
    return 2.0 / np.where(qsum > cutoff, qsum, np.inf), shaky


def _warn_cutoff(count: int, where: str) -> None:
    # attribute the warning to the first caller outside the srloc package
    level, frame = 1, sys._getframe()
    while frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        level, frame = level + 1, frame.f_back
    warnings.warn(
        f"{count} eigenvalue sums within a decade of the support cutoff {SUPPORT_CUTOFF:.1e}"
        f"{where}; SLD entries there are low-confidence",
        CutoffDegeneracyWarning,
        stacklevel=level,
    )


def _factors(jet: OverlapJet, consts: PsfConstants):
    """Cholesky factors T of the Gram matrices of a jet, and the points that
    failed so far: index -> (error type, reason).  A failed point has the
    identity as its Gram matrix, so that the stack stays whole.

    This step and ``_support_drho`` are functions of their own so that their
    temporaries are freed on return: a block's peak memory is paged in
    afresh on every block.
    """
    s_mat, degenerate = build_gram_stack(jet, consts)
    failures = {i: (DegenerateBasisError, reason) for i, reason in degenerate.items()}
    if failures:
        s_mat[list(failures)] = np.eye(6)
    try:
        return orthonormalize(s_mat), failures
    except DegenerateBasisError:
        pass
    # numpy does not say which matrix of a stack failed; find them one by one.
    for i in range(len(s_mat)):
        try:
            orthonormalize(s_mat[i])
        except DegenerateBasisError as exc:
            failures[i] = (DegenerateBasisError, str(exc))
            s_mat[i] = np.eye(6)
    return orthonormalize(s_mat), failures


def _support_drho(t: np.ndarray):
    """The eigenvalues of rho, and the support rows of the four physical
    drho in its eigenframe, from the Cholesky factors T (n, 6, 6).

    rho = (t0 t0^H + t1 t1^H)/2 lives on the first two coordinates, so its
    eigenframe is blockdiag(u, I_4) with u from ``_support_frame``.  Returns
    the eigenvalues (n, 6), descending with an exact kernel, and drho rows
    (4, n, 2, 6), parameter-major.
    """
    n = len(t)
    q, u = _support_frame(t[:, :2, :2])
    eigs = np.zeros((n, 6))
    eigs[:, :2] = q
    # support rows of the basis columns in the eigenframe, u^H T[:2]; the
    # kernel rows are those of T, and the state columns have none
    uh = u.conj().swapaxes(-1, -2)
    rows = uh[:, :, :1] * t[:, None, 0] + uh[:, :, 1:] * t[:, None, 1]
    # support rows of x_c = t_a t_b^H per coordinate c, coordinate-major, so
    # that one product maps the whole stack to the physical x_mu / 2
    outer = np.empty((4, n, 2, 6), dtype=complex)
    np.conjugate(rows[:, :, _DERIV_COLS].transpose(2, 0, 1)[:, :, None], out=outer[..., :2])
    np.conjugate(t[:, 2:, _DERIV_COLS].transpose(2, 0, 1)[:, :, None], out=outer[..., 2:])
    outer *= rows[:, :, _STATE_COLS].transpose(2, 0, 1)[..., None]
    x = ((_TO_PHYSICAL / 2.0) @ outer.reshape(4, -1)).reshape(4, n, 2, 6)
    # drho = (x + x^H)/2; x^H adds to the support block only
    block = x[..., :2]
    block += block.conj().swapaxes(-1, -2)
    return eigs, x


def _pipeline_block(jet: OverlapJet, consts: PsfConstants):
    """Run the pipeline on the n points of an overlap jet at once: H and
    Gamma (n, 4, 4), rho's eigenvalues (n, 6), descending, the count of
    eigenvalue sums within a decade of the cutoff (n,), and the failures,
    index -> (error type, reason), in index order.

    Per point: one ``eigvalsh`` (the Gram degeneracy test) and one
    Cholesky factor; every other step, the eigenframe of rho's support
    block included, is a broadcast array operation or exact, so a point
    gives the same bits alone as inside a stack.  A point that fails a
    check goes on with the identity as its Gram matrix, so that the stack
    stays whole; its outputs are NaN and its failure is recorded.
    """
    t, failures = _factors(jet, consts)
    n = len(t)
    eigs, drho = _support_drho(t)
    weights, shaky = _support_weights(eigs)
    l_rows = np.multiply(drho, weights, out=drho)  # the SLDs' support rows

    # Tr(rho L_mu L_nu) = sum_ij q_i L_mu[i, j] conj(L_nu[i, j]), L Hermitian
    # and q_i = 0 off the support rows.
    rho_l = (eigs[:, :2, None] * l_rows).swapaxes(0, 1).reshape(n, 4, 12)
    l_conj = np.conjugate(l_rows, out=l_rows).swapaxes(0, 1).reshape(n, 4, 12)
    c = rho_l @ l_conj.swapaxes(-1, -2)
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
    h, gamma_mat = sym.real, sym.imag
    if failures:
        bad = list(failures)
        h[bad] = gamma_mat[bad] = eigs[bad] = np.nan
        shaky[bad] = 0
    return h, gamma_mat, eigs, shaky, dict(sorted(failures.items()))


def _jet(s, p) -> OverlapJet:
    """The overlap jet of ``NATURAL`` at (s, p); where it overflows it holds
    inf or NaN, which ``build_gram_stack`` reports as a failed point."""
    with np.errstate(over="ignore", invalid="ignore"):
        return gaussian_overlap_jet(NATURAL, s, p)


def pipeline(psf: GaussianPsf, s: np.ndarray, p: np.ndarray, skip: np.ndarray):
    """The stacked pipeline at the points (s[i], p[i]) outside the mask
    ``skip``, in blocks of ``BLOCK_POINTS``, solved at ``psf.natural(s, p)``.

    Returns H and Gamma (N, 4, 4), rho's eigenvalues (N, 6), descending,
    and the failures, index -> (error type, reason), in index order; skipped
    and failed points hold NaN.  Emits one :class:`CutoffDegeneracyWarning`
    when any evaluated point has an eigenvalue sum within a decade of the
    cutoff.
    """
    n = len(s)
    h = np.full((n, 4, 4), np.nan)
    gamma_mat = np.full((n, 4, 4), np.nan)
    eigs = np.full((n, 6), np.nan)
    shaky = np.zeros(n, dtype=int)
    failures = {}
    consts = gaussian_constants(NATURAL)
    s_n, p_n = psf.natural(s, p)
    todo = np.flatnonzero(~skip)
    for start in range(0, len(todo), BLOCK_POINTS):
        idx = todo[start:start + BLOCK_POINTS]
        h[idx], gamma_mat[idx], eigs[idx], shaky[idx], block_failures = _pipeline_block(
            _jet(s_n[idx], p_n[idx]), consts)
        failures.update((int(idx[i]), failure) for i, failure in block_failures.items())
    scale = psf.scale
    h *= scale
    gamma_mat *= scale
    if shaky.any():
        first = int(np.flatnonzero(shaky)[0])
        _warn_cutoff(int(shaky.sum()),
                     f" at {np.count_nonzero(shaky)} point(s), first (s={float(s[first])!r}, "
                     f"p={float(p[first])!r})")
    return h, gamma_mat, eigs, failures
