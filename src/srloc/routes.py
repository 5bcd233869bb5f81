"""The one evaluation layer: which route serves each (s, p), and its fallback.

``evaluate`` converts (s, p) to the natural separations (s~, p~) =
``psf.natural(s, p)``, marks the coincident-source points and multiplies
every served row by ``psf.scale``, once for every method.  A point is
``"limit"`` by one rule, the general forms' own guard ``1 - |gamma(s~,
p~)|^2 < closed_forms.OVERLAP_DEGENERACY_TOL``, and gets
``small_separation_limit``.  Each method serves the other points as the
problem of ``psf.NATURAL``:

* ``pipeline``: the stacked numerical pipeline (``sld.pipeline``), and
  ``"failed"`` (NaN matrices) where it refuses the point.
* ``general``: the general closed forms.
* ``gaussian-closed``: the explicit Gaussian forms where ``|s~| >=
  SMALL_SEPARATION``, elsewhere the ``general`` method's own code path,
  labelled ``"general"``.

Each method serves the whole grid at once, by masks over elementwise array
code.  This is the only place that checks the inputs and decides the routes.
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

__all__ = ["METHODS", "Evaluation", "Deviations", "evaluate", "all_routes", "deviations"]

# Evaluation methods, in the order ``all_routes`` lists the routes of a point.
METHODS = ("pipeline", "general", "gaussian-closed")


@dataclass(frozen=True)
class Evaluation:
    """N points served by one method, in input order."""

    table: np.ndarray                   # (N, 16), in the sld.COLUMNS layout
    route: tuple[str, ...]              # per point: the method, "general", "limit" or "failed"
    rho_eigenvalues: np.ndarray | None  # (N, 6), descending; pipeline only
    error: SrlocError | None            # the first failed point's error, naming its (s, p)

    h = property(lambda self: sld.matrices(self.table)[0], doc="(N, 4, 4) H, from ``table``.")
    gamma_mat = property(lambda self: sld.matrices(self.table)[1], doc="(N, 4, 4) Gamma.")


@dataclass(frozen=True)
class Deviations:
    """Cross-route deviations and zero-pattern verdicts at N points.

    ``served[i, m]`` says whether ``METHODS[m]`` served point i by its own
    route; only those routes are compared and checked.  Over the pairs of
    served routes of a point, ``max_abs`` is the largest entry of |H_a - H_b|
    and |Gamma_a - Gamma_b|, ``max_rel`` the largest divided by sqrt(|H_ii H_jj|)
    of its first served route, and 0 with fewer than two served routes.
    ``rel_h`` and ``rel_g`` are the per-entry maxima of the latter over all N
    points.  ``sparsity_ok``: every served route keeps the entries of
    ``sld.ZEROS`` within 1e-10, so scaled.
    """

    served: np.ndarray       # (N, 3) bool, in METHODS order
    max_abs: np.ndarray      # (N,)
    max_rel: np.ndarray      # (N,)
    sparsity_ok: np.ndarray  # (N,) bool
    rel_h: np.ndarray        # (4, 4)
    rel_g: np.ndarray        # (4, 4)

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


def _require_finite(psf, method, table, route, s, p) -> None:
    """Raise for the first point served with a non-finite H or Gamma."""
    finite = np.isfinite(table)
    if _all(finite):
        return
    for i in np.flatnonzero(~finite.all(axis=1)):
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


# The constants of NATURAL's general forms.
_CONSTS = gaussian_constants(NATURAL)


def _limit(s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The coincident-source points at the natural (s, p): 1 - |gamma|^2 below
    the general forms' guard, from the bits of gamma that the guard reads.
    1 - |gamma|^2 >= max(p^2 / (p^2 + 4), 1 - exp(-s^2 / (p^2 + 4))) is over
    12 times the guard where s^2 + p^2 >= 100 times it: gamma is needed only inside."""
    tol = closed_forms.OVERLAP_DEGENERACY_TOL
    limit = s * s + p * p < 100.0 * tol
    if np.count_nonzero(limit):
        at = np.flatnonzero(limit)
        ag = np.abs(gaussian_overlap(NATURAL, s[at], p[at]))
        limit[at] = 1.0 - ag * ag < tol
    return limit


def _closed(s, p, limit, method, general):
    """The natural-unit table of a closed-form method off the ``limit``
    points, and the mask of the points that the general forms serve, in
    blocks of ``BLOCK_POINTS``.  ``general`` is None, or the general method's
    natural-unit table at the same points, whose rows those points take.
    """
    n = len(s)
    table = np.empty((n, len(sld.COLUMNS)))
    rest = ~limit
    for block in _blocks(n):
        s_b, p_b, t_b = s[block], p[block], table[block]
        if method == "gaussian-closed":
            explicit = rest[block] & (np.abs(s_b) >= SMALL_SEPARATION)
            if np.count_nonzero(explicit):
                at = _where(explicit)
                t_b[at] = closed_forms.natural_gaussian_table(s_b[at], p_b[at])
            rest[block] &= ~explicit
        if np.count_nonzero(rest[block]):
            at = _where(rest[block])
            if general is None:
                jet = gaussian_overlap_jet(NATURAL, s_b[at], p_b[at])
                t_b[at] = closed_forms.general_table(jet, _CONSTS)
            else:
                t_b[at] = general[block][at]
    return table, rest


def _evaluate(psf: GaussianPsf, s, p, methods) -> dict[str, Evaluation]:
    """The evaluations of ``methods``, in order, at the N points (s[i], p[i])."""
    s = np.asarray(s, dtype=float)
    p = np.asarray(p, dtype=float)
    if s.shape != p.shape or s.ndim != 1 or not (_all(np.isfinite(s)) and _all(np.isfinite(p))):
        raise InvalidParameterError(f"s and p must be finite, 1-D and of equal length, "
                                    f"got shapes {s.shape} and {p.shape}")
    for method in methods:
        if method not in METHODS:
            raise InvalidParameterError(f"method must be one of {METHODS}, got {method!r}")
    scale = psf.scale[sld.ROW, sld.COL]
    evs, general = {}, None
    # Where the natural (s, p), the overlap, a closed form or the scale overflows
    # or divides by zero it leaves a non-finite entry, which _require_finite reports.
    with np.errstate(all="ignore"):
        s_n, p_n = psf.natural(s, p)
        limit = _limit(s_n, p_n)
    for method in methods:
        route = np.empty(len(s), dtype=object)  # np.full fills objects one by one
        route[:] = method
        eigs = error = None
        if method == "pipeline":
            table, eigs, failures = sld.pipeline(s_n, p_n, limit)
            route[list(failures)] = "failed"
            if failures:
                i, (kind, reason) = next(iter(failures.items()))
                error = kind(f"pipeline fails at (s={float(s[i])!r}, p={float(p[i])!r}): {reason}")
        else:
            with np.errstate(all="ignore"):
                table, rest = _closed(s_n, p_n, limit, method, general)
            route[rest] = "general"
            if method == "general":
                general = table
        if np.count_nonzero(limit):
            table[limit] = closed_forms.LIMIT_TABLE
            route[limit] = "limit"
        with np.errstate(all="ignore"):
            table, route = table * scale, tuple(route.tolist())
        _require_finite(psf, method, table, route, s, p)
        evs[method] = Evaluation(table, route, eigs, error)
    return evs


def evaluate(psf: GaussianPsf, s: Sequence[float], p: Sequence[float], method: str) -> Evaluation:
    """H and Gamma at the N points (s[i], p[i]) by one method (see the module doc).

    Raises ``InvalidParameterError`` for an unknown method or for s and p
    that are not finite 1-D sequences of equal length, and ``SrlocError``,
    naming (s, p) and the route, where a served point's H or Gamma is not
    finite, and why where its closed form overflows or divides by zero.
    """
    return _evaluate(psf, s, p, (method,))[method]


def all_routes(psf: GaussianPsf, s: Sequence[float], p: Sequence[float]) -> dict[str, Evaluation]:
    """Every method on the N points, as ``evaluate`` gives each, in ``METHODS``
    order; the general forms run once, and ``gaussian-closed`` takes the
    rows of the points it reroutes from the ``general`` method."""
    return _evaluate(psf, s, p, METHODS)


# The route pairs (a, b) that ``deviations`` compares, by index in METHODS.
_PAIRS = ((0, 1), (0, 2), (1, 2))


def deviations(evs: dict[str, Evaluation]) -> Deviations:
    """The cross-route rule on the evaluations of ``all_routes`` (see
    ``Deviations``), in blocks of ``BLOCK_POINTS`` points."""
    # one comparison per route, on its labels as objects: a str array costs a conversion
    served = np.array([np.array(evs[method].route, dtype=object) == method for method in METHODS])
    n = served.shape[1]
    max_abs, max_rel, ok = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    rel = np.zeros(len(sld.COLUMNS))
    for block in _blocks(n):
        tables = np.array([evs[method].table[block] for method in METHODS])
        max_abs[block], max_rel[block], ok[block], rel_block = (
            _deviations_block(tables, served[:, block]))
        np.maximum(rel, rel_block, out=rel)
    return Deviations(served.T, max_abs, max_rel, ok, *np.abs(sld.matrices(rel)))


def _deviations_block(tables: np.ndarray, served: np.ndarray):
    """``deviations`` on one block: the routes' (3, n, 16) tables, in METHODS
    order (failed pipeline points hold NaN), served as the (3, n) ``served``.
    Returns max_abs, max_rel, sparsity_ok and the (16,) maxima of rel."""
    first = np.argmax(served, axis=0)  # 0 where no route served: such points read 0
    diag = np.abs(tables[first, np.arange(len(first)), :4])  # H's diagonal: the first 4 columns
    worst = np.zeros(tables.shape[1:])  # each entry's largest deviation over the served pairs
    with np.errstate(all="ignore"):  # failed pipeline points hold NaN
        scale = sld.pair_scale(diag[:, sld.ROW], diag[:, sld.COL])
        for a, b in _PAIRS:
            both = (served[a] & served[b])[:, None]
            np.maximum(worst, np.where(both, np.abs(tables[a] - tables[b]), 0.0), out=worst)
        # dividing by the same scale keeps the order: the pairs' largest dev / scale
        rel = np.where((np.count_nonzero(served, axis=0) >= 2)[:, None], worst / scale, 0.0)
        bad = (np.abs(tables[..., sld.ZEROS]) > 1e-10 * scale[:, sld.ZEROS]).any(axis=-1)
    ok = ~(bad & served).any(axis=0)
    return worst.max(axis=1), rel.max(axis=1), ok, rel.max(axis=0)
