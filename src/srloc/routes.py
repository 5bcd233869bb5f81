"""The one evaluation layer: which route serves each (s, p), and its fallback.

Per method, the route each point gets:

* ``gaussian-closed``: the explicit Gaussian forms, through
  ``closed_forms.evaluate_gaussian_closed``; ``"general"`` for
  ``|s| < small_separation_threshold``, and ``"limit"`` where then also
  ``1 - |gamma|^2 <= 1e-8``.
* ``general``: the general closed forms; ``"limit"`` where
  ``1 - |gamma|^2 < 1e-10``.
* ``pipeline``: the stacked numerical pipeline; ``"limit"`` where
  ``s^2 + p^2`` is below the squared small-separation threshold, and
  ``"failed"`` (NaN matrices) where the pipeline refuses the point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import closed_forms
from .errors import DegenerateOverlapError, InvalidParameterError, SrlocError
from .psf import GaussianPsf, gaussian_constants, gaussian_overlap_jet
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


def _general_point(psf: GaussianPsf, consts, s: float, p: float):
    try:
        jet = gaussian_overlap_jet(psf, s, p)
        return (closed_forms.general_qfim(jet, consts),
                closed_forms.general_gamma_matrix(jet, consts), "general")
    except DegenerateOverlapError:
        return (*closed_forms.small_separation_limit(psf), "limit")


def _require_finite(h, g, route, s, p) -> None:
    """Raise for the first point served with a non-finite H or Gamma."""
    finite = np.isfinite(h).all(axis=(1, 2)) & np.isfinite(g).all(axis=(1, 2))
    for i in np.flatnonzero(~finite):
        if route[i] != "failed":
            raise SrlocError(f"{route[i]} route gives a non-finite H or Gamma at "
                             f"(s={float(s[i])!r}, p={float(p[i])!r})")


def evaluate(psf: GaussianPsf, s: Sequence[float], p: Sequence[float], method: str) -> Evaluation:
    """H and Gamma at the N points (s[i], p[i]) by one method (see the module doc).

    Raises ``InvalidParameterError`` for an unknown method or for s and p
    that are not finite 1-D sequences of equal length, and ``SrlocError``,
    naming (s, p) and the route, where a served point's H or Gamma is not
    finite or its closed form overflows or divides by zero.
    """
    s = np.asarray(s, dtype=float)
    p = np.asarray(p, dtype=float)
    if s.shape != p.shape or s.ndim != 1 or not (np.isfinite(s).all() and np.isfinite(p).all()):
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
        _require_finite(h, g, route, s, p)
        return Evaluation(h, g, route, stack.rho_eigenvalues, stack.error)

    if method == "gaussian-closed":
        point = functools.partial(closed_forms.evaluate_gaussian_closed, psf)
    else:
        point = functools.partial(_general_point, psf, gaussian_constants(psf))
    h = np.empty((len(s), 4, 4))
    g = np.empty((len(s), 4, 4))
    route = []
    for i, (a, b) in enumerate(zip(s.tolist(), p.tolist())):
        try:
            h[i], g[i], served = point(a, b)
        except (OverflowError, ZeroDivisionError) as exc:
            _require_finite(h[:i], g[:i], route, s, p)  # an earlier point fails first
            raise SrlocError(f"{method} route fails at (s={a!r}, p={b!r}): {exc}") from exc
        route.append(served)
    _require_finite(h, g, route, s, p)
    return Evaluation(h, g, tuple(route), None, None)


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
