"""Symmetric-logarithmic-derivative solve and information-matrix extraction.

The pipeline runs on a stack of N Gram matrices at once.  Per point it
takes one Cholesky factor S = T^H T (T upper triangular) to reach an
orthonormal frame.  There the identity S T^{-1} = T^H turns the state and
its coordinate derivatives into closed expressions in the columns t_j of T,

    rho = (t0 t0^H + t1 t1^H) / 2,    drho_ab = (t_a t_b^H + t_b t_a^H) / 2,

so no inverse is formed.  One ``eigh`` of rho gives the eigenbasis in which
the SLD equation ``L rho + rho L = 2 drho`` is solved elementwise for the
four physical parameters (s, xbar, p, zbar) together, and

    H[mu, nu] + i * Gamma[mu, nu] = Tr(rho L_mu L_nu)
                                  = sum_ij q_i L_mu[i, j] L_nu[j, i].

All results are independent of the centroid coordinates by construction
(the Gram data only sees the separations).  ``gaussian_pipeline`` is the
one-point case of ``gaussian_pipeline_stack``.
"""

from __future__ import annotations

import logging
import sys
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CutoffDegeneracyWarning,
    DegenerateBasisError,
    InvalidParameterError,
    SmallSeparationError,
    SrlocError,
)
from .gram import _DRHO_ROWS, COORDINATES, build_gram_stack
from .psf import (
    GaussianPsf,
    OverlapJet,
    PsfConstants,
    gaussian_constants,
    gaussian_overlap_jet,
    small_separation_threshold,
)

__all__ = [
    "PARAMETERS",
    "PipelineResult",
    "PipelineStack",
    "orthonormalize",
    "gaussian_pipeline",
    "gaussian_pipeline_stack",
]

logger = logging.getLogger(__name__)

# Estimation parameters, fixed order used by every 4x4 matrix in the package.
PARAMETERS = ("s", "xbar", "p", "zbar")

# Numerical rank-2 states populate their kernel at ~1e-16; eigenvalue sums at
# or below this are treated as exact kernel in the SLD solve.
SUPPORT_CUTOFF = 1e-12

# Max tolerated asymmetry of Re/Im Tr(rho L L) before symmetrization.
_ASYMMETRY_LIMIT = 1e-10

# Points per pass of the stacked core.  Bounds the working set of a long
# sweep: the largest array of a pass holds 4 x 36 complex SLD entries per point.
BLOCK_POINTS = 512

# Basis columns (state, derivative) of each coordinate derivative of rho.
_STATE_COLS, _DERIV_COLS = (list(cols) for cols in zip(*(_DRHO_ROWS[c] for c in COORDINATES)))

# Coordinate (x1, z1, x2, z2) to physical (s, xbar, p, zbar) derivatives:
# s = x2 - x1 and xbar = (x1 + x2)/2 give L_s = (L_x2 - L_x1)/2 and
# L_xbar = L_x1 + L_x2; same axially.
_TO_PHYSICAL = np.array(
    [[-0.5, 0.0, 0.5, 0.0], [1.0, 0.0, 1.0, 0.0], [0.0, -0.5, 0.0, 0.5], [0.0, 1.0, 0.0, 1.0]],
    dtype=complex,
)


@dataclass(frozen=True)
class PipelineResult:
    """Pipeline output at one point: H and Gamma (4x4, in ``PARAMETERS``
    order) and all six eigenvalues of the state, descending."""

    h: np.ndarray
    gamma_mat: np.ndarray
    rho_eigenvalues: np.ndarray


@dataclass(frozen=True)
class PipelineStack:
    """Pipeline output for N points, in input order.

    Points below the small-separation threshold (``limit``) and points the
    pipeline refuses (``failed``) hold NaN.  ``error`` is the exception of
    the first failed point, naming its (s, p), or None.
    """

    h: np.ndarray                # (N, 4, 4)
    gamma_mat: np.ndarray        # (N, 4, 4)
    rho_eigenvalues: np.ndarray  # (N, 6), descending
    limit: np.ndarray            # (N,) bool
    failed: np.ndarray           # (N,) bool
    error: SrlocError | None


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
    return lower.conj().swapaxes(-1, -2)


def _eigenframe_sld(q: np.ndarray, drho_e: np.ndarray):
    """SLD in the eigenbasis of rho, and the number of ill-conditioned entries.

    L[i, j] = 2 drho[i, j] / (q_i + q_j) wherever q_i + q_j exceeds
    ``SUPPORT_CUTOFF`` and 0 on the kernel block (support-restricted completion; H
    and Gamma do not depend on how the kernel block is completed).  An
    eigenvalue sum within a decade of the cutoff makes its entry
    ill-conditioned; their count is returned per leading index of ``q``.
    """
    cutoff = SUPPORT_CUTOFF
    qsum = q[..., :, None] + q[..., None, :]
    l_e = drho_e * (2.0 / np.where(qsum > cutoff, qsum, np.inf))
    shaky = np.count_nonzero((qsum > cutoff / 10.0) & (qsum <= cutoff * 10.0), axis=(-2, -1))
    return l_e, shaky


def _warn_cutoff(count: int, where: str) -> None:
    # attribute the warning to the first caller outside this module
    level, frame = 1, sys._getframe()
    while frame.f_globals.get("__name__") == __name__:
        level, frame = level + 1, frame.f_back
    warnings.warn(
        f"{count} eigenvalue sums within a decade of the support cutoff {SUPPORT_CUTOFF:.1e}"
        f"{where}; SLD entries there are low-confidence",
        CutoffDegeneracyWarning,
        stacklevel=level,
    )


@dataclass(frozen=True)
class _Block:
    """The stacked pipeline on one block of points (see ``_pipeline_block``)."""

    h: np.ndarray                # (n, 4, 4)
    gamma_mat: np.ndarray        # (n, 4, 4)
    rho_eigenvalues: np.ndarray  # (n, 6), descending
    shaky: np.ndarray            # (n,) eigenvalue sums within a decade of the cutoff
    failures: dict[int, tuple[type, str]]  # index -> (error type, reason), in index order


def _cholesky_stack(s_mat: np.ndarray, failures: dict[int, tuple[type, str]]) -> np.ndarray:
    """Cholesky factors of a stack; a matrix that is not positive definite
    is recorded in ``failures`` and replaced by the identity in ``s_mat``."""
    try:
        return orthonormalize(s_mat)
    except DegenerateBasisError:
        pass
    # numpy does not say which matrix of a stack failed; find them one by one.
    for i in range(len(s_mat)):
        try:
            orthonormalize(s_mat[i])
        except DegenerateBasisError as exc:
            failures[i] = (DegenerateBasisError, str(exc))
            s_mat[i] = np.eye(6)
    return orthonormalize(s_mat)


def _pipeline_block(jet: OverlapJet, consts: PsfConstants) -> _Block:
    """Run the pipeline on the n points of an overlap jet at once.

    Per point: one ``eigvalsh`` (the Gram degeneracy test), one Cholesky
    factor and one ``eigh``; every other step is a broadcast array
    operation, so a point gives the same bits alone as inside a stack.  A
    point that fails a check goes on with the identity as its Gram matrix,
    so that the stack stays whole; its outputs are NaN and its failure is
    recorded.
    """
    s_mat, degenerate = build_gram_stack(jet, consts)
    failures = {i: (DegenerateBasisError, reason) for i, reason in degenerate.items()}
    if failures:
        s_mat[list(failures)] = np.eye(6)
    t = _cholesky_stack(s_mat, failures)
    n = len(t)

    pair = t[:, :, :2]
    rho = pair @ pair.conj().swapaxes(-1, -2) / 2.0
    q, u = np.linalg.eigh(rho)
    w = u.conj().swapaxes(-1, -2) @ t        # basis columns t_j in the eigenframe
    state = w[:, :, _STATE_COLS].swapaxes(-1, -2)
    deriv = w[:, :, _DERIV_COLS].swapaxes(-1, -2)
    outer = (state[..., :, None] * deriv.conj()[..., None, :]).reshape(n, 4, 36)
    x = (_TO_PHYSICAL @ outer).reshape(n, 4, 6, 6)
    l_e, shaky = _eigenframe_sld(q[:, None, :], (x + x.conj().swapaxes(-1, -2)) / 2.0)

    # Tr(rho L_mu L_nu) = sum_ij q_i L_mu[i, j] conj(L_nu[i, j]), L Hermitian.
    rho_l = (q[:, None, :, None] * l_e).reshape(n, 4, 36)
    c = rho_l @ l_e.conj().reshape(n, 4, 36).swapaxes(-1, -2)
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

    sym = (c + c_h) / 2.0
    h, gamma_mat, eigs, shaky = sym.real, sym.imag, q[:, ::-1], shaky[:, 0]
    if failures:
        bad = list(failures)
        h[bad] = gamma_mat[bad] = eigs[bad] = np.nan
        shaky[bad] = 0
    return _Block(h=h, gamma_mat=gamma_mat, rho_eigenvalues=eigs, shaky=shaky,
                  failures=dict(sorted(failures.items())))


def _located(error: type, reason: str, s: float, p: float) -> SrlocError:
    return error(f"pipeline fails at (s={float(s)!r}, p={float(p)!r}): {reason}")


def _below_threshold(psf: GaussianPsf, s, p):
    """Whether s^2 + p^2 is below the square of the small-separation threshold."""
    threshold = small_separation_threshold(psf.k, psf.z_r)
    with np.errstate(over="ignore"):  # inf is not below it
        return s * s + p * p < threshold * threshold


def _jet(psf: GaussianPsf, s, p) -> OverlapJet:
    """The overlap jet at (s, p); where it overflows it holds inf or NaN,
    which ``build_gram_stack`` reports as a failed point."""
    with np.errstate(over="ignore", invalid="ignore"):
        return gaussian_overlap_jet(psf, s, p)


def gaussian_pipeline(psf: GaussianPsf, s: float, p: float) -> PipelineResult:
    """Numerical pipeline for the Gaussian PSF at one point (s, p): the
    one-point case of :func:`gaussian_pipeline_stack`.

    Raises
    ------
    SmallSeparationError
        Where the stack marks the point ``limit``: that regime is served
        analytically by the coincident-source limit, not numerically.
    SrlocError
        The stack's ``error`` where it marks the point ``failed``, naming
        (s, p): ``DegenerateBasisError`` for a numerically degenerate basis
        or an overflowing overlap jet, ``SrlocError`` for Tr(rho L L)
        asymmetric beyond roundoff.
    InvalidParameterError
        If s or p is not finite.
    """
    stack = gaussian_pipeline_stack(psf, [s], [p])
    if stack.limit[0]:
        threshold = small_separation_threshold(psf.k, psf.z_r)
        raise SmallSeparationError(
            f"separations (s={s!r}, p={p!r}) below the pipeline threshold "
            f"{threshold:.3e}; use small_separation_limit (CLI: the `limits` command)"
        )
    if stack.error is not None:
        raise stack.error
    return PipelineResult(stack.h[0], stack.gamma_mat[0], stack.rho_eigenvalues[0])


def gaussian_pipeline_stack(
    psf: GaussianPsf, s: Sequence[float], p: Sequence[float]
) -> PipelineStack:
    """Numerical pipeline for the Gaussian PSF at N points (s[i], p[i]).

    Points with s^2 + p^2 below the square of
    ``small_separation_threshold(k, z_R)`` are marked ``limit`` and not
    evaluated.  A point that fails does not fail the stack: it is marked
    ``failed``, and the exception of the first one, naming its (s, p), is
    kept in ``error``.  Points are evaluated in blocks of ``BLOCK_POINTS``.
    Emits one :class:`CutoffDegeneracyWarning` for the stack when any
    evaluated point has an eigenvalue sum within a decade of the cutoff.
    Raises ``InvalidParameterError`` for s and p that are not finite 1-D
    sequences of equal length.
    """
    s = np.asarray(s, dtype=float)
    p = np.asarray(p, dtype=float)
    if s.shape != p.shape or s.ndim != 1 or not (np.isfinite(s).all() and np.isfinite(p).all()):
        raise InvalidParameterError(f"s and p must be finite, 1-D and of equal length, "
                                    f"got shapes {s.shape} and {p.shape}")
    n = len(s)
    limit = _below_threshold(psf, s, p)
    h = np.full((n, 4, 4), np.nan)
    gamma_mat = np.full((n, 4, 4), np.nan)
    eigs = np.full((n, 6), np.nan)
    failed = np.zeros(n, dtype=bool)
    shaky = np.zeros(n, dtype=int)
    error = None
    consts = gaussian_constants(psf)
    todo = np.flatnonzero(~limit)
    for start in range(0, len(todo), BLOCK_POINTS):
        idx = todo[start:start + BLOCK_POINTS]
        block = _pipeline_block(_jet(psf, s[idx], p[idx]), consts)
        h[idx], gamma_mat[idx], eigs[idx], shaky[idx] = (
            block.h, block.gamma_mat, block.rho_eigenvalues, block.shaky)
        failed[idx[list(block.failures)]] = True
        if block.failures and error is None:
            i, (kind, reason) = next(iter(block.failures.items()))
            error = _located(kind, reason, s[idx[i]], p[idx[i]])
    if shaky.any():
        first = int(np.flatnonzero(shaky)[0])
        _warn_cutoff(int(shaky.sum()),
                     f" at {np.count_nonzero(shaky)} point(s), first (s={float(s[first])!r}, "
                     f"p={float(p[first])!r})")
    return PipelineStack(h=h, gamma_mat=gamma_mat, rho_eigenvalues=eigs,
                         limit=limit, failed=failed, error=error)
