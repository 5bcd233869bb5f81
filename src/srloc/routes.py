"""The one evaluation layer: which route serves each (s, p), and its fallback.

Per method, the route each point gets:

* ``gaussian-closed``: the explicit Gaussian forms; ``"general"`` for
  ``|s~| < SMALL_SEPARATION``, and ``"limit"`` where then also
  ``1 - |gamma|^2 <= 1e-8``.
* ``general``: the general closed forms; ``"limit"`` where
  ``1 - |gamma|^2 < 1e-10``.
* ``pipeline``: the stacked numerical pipeline (``sld.pipeline``);
  ``"limit"`` where ``s~^2 + p~^2 < SMALL_SEPARATION^2``, and
  ``"failed"`` (NaN matrices) where the pipeline refuses the point.

Every route solves the problem of ``psf.NATURAL`` at (s~, p~) =
``psf.natural(s, p)`` and multiplies by ``psf.scale`` once.  Each method
serves the whole grid at once: the closed forms and the overlap jet are
elementwise array code, and each route is chosen by a mask.  This is the
only place that checks the inputs and decides the routes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import closed_forms, sld
from .errors import InvalidParameterError, SrlocError
from .closed_forms import SMALL_SEPARATION
from .psf import NATURAL, GaussianPsf, gaussian_constants, gaussian_overlap, gaussian_overlap_jet

__all__ = ["METHODS", "Evaluation", "Deviations", "evaluate", "all_routes", "deviations",
           "sparsity_ok"]

# Evaluation methods, in the order ``all_routes`` lists the routes of a point.
METHODS = ("pipeline", "general", "gaussian-closed")


@dataclass(frozen=True)
class Evaluation:
    """N points served by one method, in input order."""

    h: np.ndarray                       # (N, 4, 4)
    gamma_mat: np.ndarray               # (N, 4, 4)
    route: tuple[str, ...]              # per point: the method, "general", "limit" or "failed"
    rho_eigenvalues: np.ndarray | None  # (N, 6), descending; pipeline only
    error: SrlocError | None            # the first failed point's error, naming its (s, p)


@dataclass(frozen=True)
class Deviations:
    """Cross-route deviations at N points.

    ``served[i, m]`` says whether ``METHODS[m]`` served point i by its own
    route; only those routes are compared.  Over the pairs of served routes
    of a point, ``rel_h`` and ``rel_g`` are the per-entry maxima of
    |H_a - H_b| and |Gamma_a - Gamma_b| divided by ``scale`` = sqrt(|H_ii H_jj|)
    of its first served route, ``max_rel`` is their largest entry and
    ``max_abs`` the largest unscaled one.  A point with fewer than two
    served routes reads 0.
    """

    served: np.ndarray   # (N, 3) bool, in METHODS order
    scale: np.ndarray    # (N, 4, 4)
    max_abs: np.ndarray  # (N,)
    rel_h: np.ndarray    # (N, 4, 4)
    rel_g: np.ndarray    # (N, 4, 4)
    max_rel: np.ndarray  # (N,)

    @property
    def compared(self) -> np.ndarray:
        """(N,) bool: the points served by two or more routes."""
        return np.count_nonzero(self.served, axis=1) >= 2


# Points per pass of the closed forms and of the cross-route rule: their
# temporaries stay in cache, and their size does not grow with the grid.
BLOCK_POINTS = 4096


def _blocks(n: int):
    """Slices of ``BLOCK_POINTS`` points that cover n points, in order."""
    return (slice(start, start + BLOCK_POINTS) for start in range(0, n, BLOCK_POINTS))


# ln of the largest double: exp overflows above it.
_LOG_MAX = math.log(sys.float_info.max)


def _failure(psf: GaussianPsf, route: str, s: float, p: float) -> str:
    """Why the closed form of ``route`` is undefined in double precision at
    (s, p), or "" when it is not."""
    if route == "gaussian-closed" and 2.0 * closed_forms.varsigma(psf.k, psf.z_r, s, p) > _LOG_MAX:
        return "exp(2 varsigma) overflows"
    with np.errstate(all="ignore"):  # NaN where s^2 overflows: |gamma| is 0 there too
        if route == "general" and not np.abs(gaussian_overlap(psf, s, p)) > 0.0:
            return "|gamma| underflows to 0"
    return ""


def _all(mask: np.ndarray) -> bool:
    """``mask.all()``, without the reduction overhead that a one-point call feels."""
    return np.count_nonzero(mask) == mask.size


def _require_finite(psf, method, h, g, route, s, p) -> None:
    """Raise for the first point served with a non-finite H or Gamma."""
    if _all(np.isfinite(h)) and _all(np.isfinite(g)):
        return
    finite = np.isfinite(h).all(axis=(1, 2)) & np.isfinite(g).all(axis=(1, 2))
    for i in np.flatnonzero(~finite):
        if route[i] == "failed":
            continue
        where = f"(s={float(s[i])!r}, p={float(p[i])!r})"
        reason = _failure(psf, route[i], float(s[i]), float(p[i]))
        if reason:
            raise SrlocError(f"{method} route fails at {where}: {reason}")
        raise SrlocError(f"{route[i]} route gives a non-finite H or Gamma at {where}")


def _where(mask: np.ndarray):
    """Index of the points in ``mask``; every point is a slice, which neither
    gathers nor scatters."""
    return slice(None) if _all(mask) else np.flatnonzero(mask)


def _closed(psf: GaussianPsf, s: np.ndarray, p: np.ndarray, method: str):
    """H, Gamma and route labels of the two closed-form methods, by masks.

    ``gaussian-closed`` serves ``|s~| >= SMALL_SEPARATION`` by the explicit forms
    and reroutes the other points to the general forms, or to the limit where
    ``1 - |gamma|^2 <= 1e-8``; ``general`` serves every point by the general
    forms, or by the limit where ``1 - |gamma|^2 < OVERLAP_DEGENERACY_TOL``.
    A form that overflows or divides by zero leaves a non-finite entry, which
    ``_require_finite`` reports.  Points go in blocks of ``BLOCK_POINTS``.
    """
    n = len(s)
    h = np.empty((n, 4, 4))
    g = np.empty((n, 4, 4))
    route = [method] * n
    with np.errstate(all="ignore"):
        for block in _blocks(n):
            for i, label in _closed_block(psf, s[block], p[block], method, h[block], g[block]):
                route[block.start + i] = label
    return h, g, tuple(route)


def _closed_block(psf, s, p, method, h, g) -> list[tuple[int, str]]:
    """``_closed`` on one block, into ``h`` and ``g``; returns the (index,
    route) of each point not served by ``method`` itself."""
    relabel = []
    s_n, p_n = psf.natural(s, p)
    if method == "gaussian-closed":
        rest = np.abs(s_n) < SMALL_SEPARATION
        if not _all(rest):
            at = _where(~rest)
            h[at], g[at] = closed_forms.gaussian_matrices(psf, s[at], p[at])
        relabel = [(i, "general") for i in np.flatnonzero(rest).tolist()]
    else:
        rest = np.ones(len(s), dtype=bool)
    if np.count_nonzero(rest):
        at = _where(rest)
        jet = gaussian_overlap_jet(NATURAL, s_n[at], p_n[at])
        ag = np.abs(jet.gamma)
        one_minus = 1.0 - ag * ag
        if method == "gaussian-closed":
            limit = one_minus <= 1e-8  # where the limit is accurate to O(1e-8)
        else:
            limit = one_minus < closed_forms.OVERLAP_DEGENERACY_TOL
        if np.count_nonzero(limit):
            at = np.flatnonzero(rest)
            h[at[limit]], g[at[limit]] = closed_forms.small_separation_limit(psf)
            relabel += [(i, "limit") for i in at[limit].tolist()]
            at, jet = at[~limit], jet[~limit]
        if len(jet.gamma):
            h_n, g_n = closed_forms.general_matrices(jet, gaussian_constants(NATURAL))
            scale = psf.scale
            h[at], g[at] = h_n * scale, g_n * scale
    return relabel


def _pipeline(psf: GaussianPsf, s: np.ndarray, p: np.ndarray):
    """H, Gamma, route labels, rho's eigenvalues and the first error of the
    pipeline method: the limit where s~^2 + p~^2 < SMALL_SEPARATION^2,
    ``sld.pipeline`` elsewhere, ``failed`` where it refuses a point (NaN
    matrices); the error names the first failed point's (s, p), or is None."""
    s_n, p_n = psf.natural(s, p)
    with np.errstate(over="ignore"):  # inf is not below it
        limit = s_n * s_n + p_n * p_n < SMALL_SEPARATION ** 2
    h, g, eigs, failures = sld.pipeline(psf, s, p, limit)
    route = ["pipeline"] * len(s)
    if np.count_nonzero(limit):
        h[limit], g[limit] = closed_forms.small_separation_limit(psf)
        for i in np.flatnonzero(limit).tolist():
            route[i] = "limit"
    for i in failures:
        route[i] = "failed"
    error = None
    if failures:
        i, (kind, reason) = next(iter(failures.items()))
        error = kind(f"pipeline fails at (s={float(s[i])!r}, p={float(p[i])!r}): {reason}")
    return h, g, tuple(route), eigs, error


def evaluate(psf: GaussianPsf, s: Sequence[float], p: Sequence[float], method: str) -> Evaluation:
    """H and Gamma at the N points (s[i], p[i]) by one method (see the module doc).

    Raises ``InvalidParameterError`` for an unknown method or for s and p
    that are not finite 1-D sequences of equal length, and ``SrlocError``,
    naming (s, p) and the route, where a served point's H or Gamma is not
    finite, and why where its closed form overflows or divides by zero.
    """
    s = np.asarray(s, dtype=float)
    p = np.asarray(p, dtype=float)
    if s.shape != p.shape or s.ndim != 1 or not (_all(np.isfinite(s)) and _all(np.isfinite(p))):
        raise InvalidParameterError(f"s and p must be finite, 1-D and of equal length, "
                                    f"got shapes {s.shape} and {p.shape}")
    if method not in METHODS:
        raise InvalidParameterError(f"method must be one of {METHODS}, got {method!r}")
    if method == "pipeline":
        h, g, route, eigs, error = _pipeline(psf, s, p)
    else:
        h, g, route = _closed(psf, s, p, method)
        eigs = error = None
    _require_finite(psf, method, h, g, route, s, p)
    return Evaluation(h, g, route, eigs, error)


def all_routes(psf: GaussianPsf, s: Sequence[float], p: Sequence[float]) -> dict[str, Evaluation]:
    """Every method on the N points, one ``evaluate`` each, in ``METHODS`` order."""
    return {method: evaluate(psf, s, p, method) for method in METHODS}


# The route pairs (a, b) that ``deviations`` compares, by index in METHODS.
_PAIR_A, _PAIR_B = np.array([0, 0, 1]), np.array([1, 2, 2])
# The entries of H and of Gamma that vanish for two sources of equal brightness.
_ZERO = np.zeros((2, 1, 4, 4), dtype=bool)
_ZERO[0, 0, [0, 0, 0, 1, 2], [1, 2, 3, 2, 3]] = True
_ZERO[1, 0, 0, 2] = True


def _stacked(evs: dict[str, Evaluation], block: slice) -> np.ndarray:
    """(route, H or Gamma, point, 4, 4) of the points ``block``, routes in
    METHODS order; failed pipeline points hold NaN."""
    return np.array([(evs[method].h[block], evs[method].gamma_mat[block]) for method in METHODS])


def deviations(evs: dict[str, Evaluation]) -> Deviations:
    """The cross-route rule on the evaluations of ``all_routes`` (see
    ``Deviations``), in blocks of ``BLOCK_POINTS`` points."""
    served = np.array([[r == method for r in evs[method].route] for method in METHODS])
    n = served.shape[1]
    scale, rel_h, rel_g = np.empty((n, 4, 4)), np.empty((n, 4, 4)), np.empty((n, 4, 4))
    max_abs, max_rel = np.empty(n), np.empty(n)
    for block in _blocks(n):
        scale[block], max_abs[block], rel_h[block], rel_g[block], max_rel[block] = (
            _deviations_block(_stacked(evs, block), served[:, block]))
    return Deviations(served.T, scale, max_abs, rel_h, rel_g, max_rel)


def _deviations_block(mats: np.ndarray, served: np.ndarray):
    """``deviations`` on one block of ``_stacked`` matrices whose served mask
    is the (3, n) ``served``; returns scale, max_abs, rel_h, rel_g, max_rel."""
    first = np.argmax(served, axis=0)  # 0 where no route served: such points read 0
    n = len(first)
    diag = np.abs(np.diagonal(mats[first, 0, np.arange(n)], axis1=-2, axis2=-1))
    product = diag[:, :, None] * diag[:, None, :]
    # the product underflows where H's diagonal is below about 1e-154
    tiny = product < np.finfo(float).tiny
    scale = np.sqrt(product)
    if np.count_nonzero(tiny):
        root = np.sqrt(diag)
        scale[tiny] = (root[:, :, None] * root[:, None, :])[tiny]
    pair = (served[_PAIR_A] & served[_PAIR_B])[:, None, :, None, None]
    with np.errstate(all="ignore"):
        dev = np.where(pair, np.abs(mats[_PAIR_A] - mats[_PAIR_B]), 0.0)
        rel = np.where(pair, dev / scale, 0.0).max(axis=0)
    return scale, dev.max(axis=(0, 1, 3, 4)), rel[0], rel[1], rel.max(axis=(0, 2, 3))


def sparsity_ok(evs: dict[str, Evaluation], dev: Deviations) -> np.ndarray:
    """(N,) bool: whether every served route of a point keeps the entries of
    H and Gamma that vanish for two sources of equal brightness within 1e-10
    of ``dev.scale``, and Gamma antisymmetric within 1e-12; in blocks of
    ``BLOCK_POINTS`` points."""
    ok = np.empty(len(dev.served), dtype=bool)
    for block in _blocks(len(ok)):
        mats = _stacked(evs, block)
        g = mats[:, 1]
        with np.errstate(all="ignore"):  # failed pipeline points hold NaN
            bad = ((np.abs(mats) > 1e-10 * dev.scale[block]) & _ZERO).any(axis=(1, 3, 4))
            bad |= (np.abs(g + g.swapaxes(-1, -2)) > 1e-12).any(axis=(-2, -1))
        ok[block] = ~(bad & dev.served[block].T).any(axis=0)
    return ok
