"""The one evaluation layer: which route serves each (s, p), and its fallback.

Per method, the route each point gets:

* ``gaussian-closed``: the explicit Gaussian forms; ``"general"`` for
  ``|s| < small_separation_threshold``, and ``"limit"`` where then also
  ``1 - |gamma|^2 <= 1e-8``.
* ``general``: the general closed forms; ``"limit"`` where
  ``1 - |gamma|^2 < 1e-10``.
* ``pipeline``: the stacked numerical pipeline; ``"limit"`` where
  ``s^2 + p^2`` is below the squared small-separation threshold, and
  ``"failed"`` (NaN matrices) where the pipeline refuses the point.

Each method serves the whole grid at once: the closed forms and the overlap
jet are elementwise array code, and each route is chosen by a mask.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import closed_forms
from .errors import InvalidParameterError, SrlocError
from .psf import (
    GaussianPsf,
    gaussian_constants,
    gaussian_overlap,
    gaussian_overlap_jet,
    small_separation_threshold,
)
from .sld import gaussian_pipeline_stack

__all__ = ["METHODS", "Evaluation", "Deviation", "evaluate", "all_routes", "deviations"]

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
class Deviation:
    """Per-entry maxima over the route pairs of one point of |H_a - H_b| and
    |Gamma_a - Gamma_b|, divided by ``scale`` = sqrt(|H_ii H_jj|) of the first route."""

    max_abs: float
    rel_h: np.ndarray
    rel_g: np.ndarray
    scale: np.ndarray

    @property
    def max_rel(self) -> float:
        return max(float(self.rel_h.max()), float(self.rel_g.max()))


# Points per pass of the closed forms: their temporaries stay in cache.
CLOSED_BLOCK_POINTS = 4096

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

    ``gaussian-closed`` serves ``|s| >= t`` by the explicit forms and reroutes
    the other points to the general forms, or to the limit where
    ``1 - |gamma|^2 <= 1e-8``; ``general`` serves every point by the general
    forms, or by the limit where ``1 - |gamma|^2 < OVERLAP_DEGENERACY_TOL``.
    A form that overflows or divides by zero leaves a non-finite entry, which
    ``_require_finite`` reports.  Points go in blocks of ``CLOSED_BLOCK_POINTS``.
    """
    n = len(s)
    h = np.empty((n, 4, 4))
    g = np.empty((n, 4, 4))
    route = [method] * n
    with np.errstate(all="ignore"):
        for start in range(0, n, CLOSED_BLOCK_POINTS):
            block = slice(start, start + CLOSED_BLOCK_POINTS)
            for i, label in _closed_block(psf, s[block], p[block], method, h[block], g[block]):
                route[start + i] = label
    return h, g, tuple(route)


def _closed_block(psf, s, p, method, h, g) -> list[tuple[int, str]]:
    """``_closed`` on one block, into ``h`` and ``g``; returns the (index,
    route) of each point not served by ``method`` itself."""
    relabel = []
    if method == "gaussian-closed":
        rest = np.abs(s) < small_separation_threshold(psf.k, psf.z_r)
        if not _all(rest):
            at = _where(~rest)
            s_at, p_at = s[at], p[at]
            h[at] = closed_forms.gaussian_qfim(psf, s_at, p_at)
            g[at] = closed_forms.gaussian_gamma_matrix(psf, s_at, p_at)
        relabel = [(i, "general") for i in np.flatnonzero(rest).tolist()]
    else:
        rest = np.ones(len(s), dtype=bool)
    if np.count_nonzero(rest):
        at = _where(rest)
        jet = gaussian_overlap_jet(psf, s[at], p[at])
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
            consts = gaussian_constants(psf)
            h[at] = closed_forms.general_qfim(jet, consts)
            g[at] = closed_forms.general_gamma_matrix(jet, consts)
    return relabel


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
        stack = gaussian_pipeline_stack(psf, s, p)
        h, g = stack.h, stack.gamma_mat
        h[stack.limit], g[stack.limit] = closed_forms.small_separation_limit(psf)
        route = tuple("failed" if failed else "limit" if limit else "pipeline"
                      for failed, limit in zip(stack.failed.tolist(), stack.limit.tolist()))
        _require_finite(psf, method, h, g, route, s, p)
        return Evaluation(h, g, route, stack.rho_eigenvalues, stack.error)
    h, g, route = _closed(psf, s, p, method)
    _require_finite(psf, method, h, g, route, s, p)
    return Evaluation(h, g, route, None, None)


def all_routes(
    psf: GaussianPsf, s: Sequence[float], p: Sequence[float]
) -> tuple[list[dict[str, tuple[np.ndarray, np.ndarray]]], dict[str, Evaluation]]:
    """Every method on the N points, one ``evaluate`` each.

    Returns, per point, ``{method: (h, gamma_mat)}`` for the methods that
    served it by their own route (in ``METHODS`` order; reroutes, limits and
    refusals are left out), and the evaluation of each method.
    """
    evs = {method: evaluate(psf, s, p, method) for method in METHODS}
    per_point = [
        {method: (ev.h[i], ev.gamma_mat[i]) for method, ev in evs.items() if ev.route[i] == method}
        for i in range(len(evs["pipeline"].route))
    ]
    return per_point, evs


def deviations(routes: dict[str, tuple[np.ndarray, np.ndarray]]) -> Deviation:
    """Deviations of H and Gamma over all route pairs of one point (see ``Deviation``)."""
    matrices = list(routes.values())
    diag = np.abs(np.diag(matrices[0][0]))
    scale = np.sqrt(np.outer(diag, diag))
    max_abs = 0.0
    rel_h = rel_g = np.zeros((4, 4))
    for i, (h_a, g_a) in enumerate(matrices):
        for h_b, g_b in matrices[i + 1:]:
            dev_h = np.abs(h_a - h_b)
            dev_g = np.abs(g_a - g_b)
            rel_h = np.maximum(rel_h, dev_h / scale)
            rel_g = np.maximum(rel_g, dev_g / scale)
            max_abs = max(max_abs, float(dev_h.max()), float(dev_g.max()))
    return Deviation(max_abs, rel_h, rel_g, scale)
