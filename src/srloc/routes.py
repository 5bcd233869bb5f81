"""The one evaluation layer: which route serves each (s, p), and its fallback.

``evaluate`` converts (s, p) to the natural separations (s~, p~) =
``psf.natural(s, p)``, marks the coincident-source points and multiplies
every served row by ``psf.scale``, once for every method.  A point is
``"limit"`` by one rule, the general forms' own guard ``1 - |gamma(s~,
p~)|^2 < closed_forms.OVERLAP_DEGENERACY_TOL``, and gets
``small_separation_limit``.  Each method serves the other points as the
problem of ``psf.NATURAL``:

* ``pipeline``: the stacked numerical pipeline (``sld.pipeline``).
* ``general``: the general closed forms.
* ``gaussian-closed``: the explicit Gaussian forms where ``|s~| >=
  SMALL_SEPARATION``, elsewhere the ``general`` method's own code path,
  labelled ``"general"``.

Each method serves the whole grid at once, by masks over elementwise array
code, in blocks of points in which the pipeline and the general forms read
one overlap jet, and labels ``"failed"`` (NaN matrices), by one mask, each
point whose scaled row is not finite, the pipeline's refusals among them;
``Evaluation.error`` names the first.  This is the only place that checks
the inputs and decides the routes.
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
from .psf import NATURAL, GaussianPsf, gaussian_overlap, gaussian_overlap_jet

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
    """The cross-route verdict at N points, and the deviations it reads.

    Only the routes that served a point by their own route (``served``) are
    compared and checked there.  Over their pairs, ``max_abs`` is the largest
    entry of |H_a - H_b| and |Gamma_a - Gamma_b|, ``max_rel`` the largest
    divided by sqrt(|H_ii H_jj|) of the first served route, and 0 with fewer
    than two served routes.  ``sparsity_ok``: every served route keeps the
    entries of ``sld.ZEROS`` within 1e-10, so scaled.  A compared point (two
    or more served routes) fails where ``max_rel`` is not within ``tol`` or
    ``sparsity_ok`` is False, and ``why(i)`` says which.  The grid passes
    where a point is compared and none fails; else ``reason`` says why.
    """

    served: np.ndarray       # (N, 3) bool, in METHODS order
    max_abs: np.ndarray      # (N,)
    max_rel: np.ndarray      # (N,)
    sparsity_ok: np.ndarray  # (N,) bool
    rel_h: np.ndarray        # (4, 4): per-entry maxima of the relative deviations of H
    rel_g: np.ndarray        # (4, 4): the same of Gamma, over all N points
    compared: np.ndarray     # (N,) bool: the points served by two or more routes
    failed: np.ndarray       # (N,) bool: the compared points that fail
    tol: float               # the tolerance of max_rel

    def why(self, i: int) -> str:
        """Why failed point ``i`` fails: its deviation first, then the zero pattern."""
        if self.max_rel[i] <= self.tol:  # False where max_rel is NaN
            return "a served route breaks the zero pattern of H and Gamma"
        return f"cross-method deviation exceeds tolerance: {self.max_rel[i]:.3e} > {self.tol:.1e}"

    @property
    def reason(self) -> str:
        """Why the grid fails: the first failed point's ``why``; "" where it passes."""
        if not self.compared.any():
            return "no point is served by two routes"
        return "".join(self.why(i) for i in np.flatnonzero(self.failed)[:1])

    passed = property(lambda self: not self.reason)
    n_points = property(lambda self: int(np.count_nonzero(self.compared)))  # compared points
    n_full = property(lambda self: int(np.count_nonzero(self.served.all(axis=1))))  # all three


# Points per pass of the routes (one overlap jet, the closed forms) and of the
# cross-route rule: their temporaries stay in cache, and their size does not
# grow with the grid.
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


def _where(mask: np.ndarray):
    """Index of the points in ``mask``; every point is a slice, which neither
    gathers nor scatters."""
    return slice(None) if _all(mask) else np.flatnonzero(mask)


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


def _serve(s, p, limit, methods):
    """The natural-unit tables of ``methods`` off the ``limit`` points, in
    blocks of ``BLOCK_POINTS``: one (len(methods), N, 16) array, in the order
    of ``methods``, whose limit rows are left unset.  Also the pipeline's rho
    eigenvalues, the mask of its refused points and the first one's failure,
    (error type, reason) or None, and the gaussian-closed points that the
    general forms serve, each None where its method is not asked for.

    The pipeline and the general forms read one overlap jet per block, that
    of its points off the limit; gaussian-closed takes the general method's
    rows, or else the jet of its rerouted points alone.
    """
    n = len(s)
    stack = np.empty((len(methods), n, len(sld.COLUMNS)))
    tables = dict(zip(methods, stack))
    pipeline, general = tables.get("pipeline"), tables.get("general")
    closed = tables.get("gaussian-closed")
    eigs = failed = failure = rerouted = None
    if pipeline is not None:
        eigs, failed = np.empty((n, 6)), np.zeros(n, dtype=bool)
    if closed is not None:
        rerouted = np.zeros(n, dtype=bool)
    for block in _blocks(n):
        off = ~limit[block]
        if not np.count_nonzero(off):
            continue
        s_b, p_b, at = s[block], p[block], _where(off)
        if pipeline is not None or general is not None:
            jet = gaussian_overlap_jet(NATURAL, s_b[at], p_b[at])
        if pipeline is not None:
            pipeline[block][at], eigs[block][at], failed[block][at], block_failure = (
                sld.pipeline(jet))
            failure = failure or block_failure
        if general is not None:
            general[block][at] = closed_forms.general_table(jet, sld._CONSTS)
        if closed is not None:
            explicit = off & (np.abs(s_b) >= SMALL_SEPARATION)
            rest = rerouted[block]
            rest[:] = off ^ explicit
            if np.count_nonzero(explicit):
                at = _where(explicit)
                closed[block][at] = closed_forms.natural_gaussian_table(s_b[at], p_b[at])
            if np.count_nonzero(rest):
                at = _where(rest)
                closed[block][at] = (general[block][at] if general is not None else
                                     closed_forms.general_table(
                                         gaussian_overlap_jet(NATURAL, s_b[at], p_b[at]),
                                         sld._CONSTS))
    return stack, eigs, failed, failure, rerouted


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
    # Where the natural (s, p), the overlap, its jet, a closed form or the scale
    # overflows or divides by zero it leaves a non-finite entry: a failed point.
    with np.errstate(all="ignore"):
        s_n, p_n = psf.natural(s, p)
        limit = _limit(s_n, p_n)
        stack, eigs, failed, failure, rerouted = _serve(s_n, p_n, limit, methods)
        at_limit = np.count_nonzero(limit) > 0
        if at_limit:
            stack[:, limit] = closed_forms.LIMIT_TABLE
        stack *= scale
    if at_limit and eigs is not None:
        eigs[limit] = np.nan
    finite = _all(np.isfinite(stack))
    evs = {}
    for method, table in zip(methods, stack):
        marks, error = [], None
        if method == "gaussian-closed" and np.count_nonzero(rerouted):
            marks.append((rerouted, "general"))
        if at_limit:
            marks.append((limit, "limit"))
        if not finite and np.count_nonzero(bad := ~np.isfinite(table).all(axis=1)):
            # the first failed point's error, by the label it had until it failed
            i = int(np.argmax(bad))
            label = next((name for where, name in reversed(marks) if where[i]), method)
            at = f"at (s={float(s[i])!r}, p={float(p[i])!r})"
            if method == "pipeline" and failed[i]:  # the pipeline's first refusal
                error = failure[0](f"pipeline fails {at}: {failure[1]}")
            elif reason := _failure(psf, label, float(s[i]), float(p[i])):
                error = SrlocError(f"{method} route fails {at}: {reason}")
            else:
                error = SrlocError(f"{label} route gives a non-finite H or Gamma {at}")
            table[bad] = np.nan
            marks.append((bad, "failed"))
        route = _labels(method, len(s), marks)
        evs[method] = Evaluation(table, route, eigs if method == "pipeline" else None, error)
    return evs


def _labels(method: str, n: int, marks) -> tuple[str, ...]:
    """``method`` at each of n points, but for each (where, label) of
    ``marks``, in order, ``label`` at the points ``where``."""
    if not marks:
        return (method,) * n
    route = np.empty(n, dtype=object)  # np.full fills objects one by one
    route[:] = method
    for where, label in marks:
        route[where] = label
    return tuple(route.tolist())


def evaluate(psf: GaussianPsf, s: Sequence[float], p: Sequence[float], method: str) -> Evaluation:
    """H and Gamma at the N points (s[i], p[i]) by one method (see the module doc).

    Raises only ``InvalidParameterError``: for an unknown method, or s and p
    that are not finite 1-D sequences of equal length.  A point whose H or
    Gamma is not finite is ``"failed"``, and ``error`` names the first.
    """
    return _evaluate(psf, s, p, (method,))[method]


def all_routes(psf: GaussianPsf, s: Sequence[float], p: Sequence[float]) -> dict[str, Evaluation]:
    """Every method on the N points, as ``evaluate`` gives each, in ``METHODS``
    order; the general forms run once, and ``gaussian-closed`` takes the
    rows of the points it reroutes from the ``general`` method."""
    return _evaluate(psf, s, p, METHODS)


def deviations(evs: dict[str, Evaluation], tol: float) -> Deviations:
    """The cross-route verdict at tolerance ``tol`` on the evaluations of
    ``all_routes`` (see ``Deviations``), in blocks of ``BLOCK_POINTS`` points."""
    n = len(evs[METHODS[0]].route)
    served = np.empty((len(METHODS), n), dtype=bool)
    for row, method in zip(served, METHODS):
        route = evs[method].route
        # a tuple counts by identity first, cheaper than comparing its labels as an array
        row[:] = route.count(method) == n or np.array(route, dtype=object) == method
    max_abs, max_rel, ok = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    rel = np.zeros(len(sld.COLUMNS))
    for block in _blocks(n):
        tables = np.array([evs[method].table[block] for method in METHODS])
        max_abs[block], max_rel[block], ok[block], rel_block = (
            _deviations_block(tables, served[:, block]))
        np.maximum(rel, rel_block, out=rel)
    # rel >= 0 mirrored into both triangles: the per-entry maxima of H and Gamma
    out = np.zeros((2, 4, 4))
    out[sld.GAMMA, sld.ROW, sld.COL] = out[sld.GAMMA, sld.COL, sld.ROW] = rel
    compared = served.sum(axis=0) >= 2
    failed = compared & ~((max_rel <= tol) & ok)  # a NaN max_rel fails
    return Deviations(served.T, max_abs, max_rel, ok, *out, compared, failed, tol)


def _deviations_block(tables: np.ndarray, served: np.ndarray):
    """``deviations`` on one block: the routes' (3, n, 16) tables, in METHODS
    order (failed pipeline points hold NaN), served as the (3, n) ``served``.
    Returns max_abs, max_rel, sparsity_ok and the (16,) maxima of rel.

    Over the served routes of an entry, the largest |a - b| of a pair is
    hi - lo, its largest value less its smallest, and so rounds: rounding
    is monotone.  hi and lo skip the other routes, NaN here.
    """
    compared = (served.sum(axis=0) >= 2)[:, None]
    first = served.argmax(axis=0)  # 0 where no route served: such points read 0
    diag = np.abs(tables[first, np.arange(len(first)), :4])  # H's diagonal: the first 4 columns
    with np.errstate(all="ignore"):  # NaN where no route serves a point
        masked = np.where(served[..., None], tables, np.nan)
        hi, lo = np.fmax.reduce(masked), np.fmin.reduce(masked)
        scale = sld.pair_scale(diag[:, sld.ROW], diag[:, sld.COL])
        worst = np.where(compared, np.abs(hi - lo), 0.0)
        rel = np.where(compared, worst / scale, 0.0)
        # the largest |entry| of a served route: a NaN (none served) is no excess
        bad = np.maximum(hi[:, sld.ZEROS], -lo[:, sld.ZEROS]) > 1e-10 * scale[:, sld.ZEROS]
    return worst.max(axis=1), rel.max(axis=1), ~bad.any(axis=1), rel.max(axis=0)
