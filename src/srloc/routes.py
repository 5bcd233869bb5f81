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

    h: np.ndarray                       # (N, 4, 4)
    gamma_mat: np.ndarray               # (N, 4, 4)
    route: tuple[str, ...]              # per point: the method, "general", "limit" or "failed"
    rho_eigenvalues: np.ndarray | None  # (N, 6), descending; pipeline only
    error: SrlocError | None            # the first failed point's error, naming its (s, p)


@dataclass(frozen=True)
class Deviations:
    """Cross-route deviations and zero-pattern verdicts at N points.

    ``served[i, m]`` says whether ``METHODS[m]`` served point i by its own
    route; only those routes are compared and checked.  Over the pairs of
    served routes of a point, ``max_abs`` is the largest entry of |H_a - H_b|
    and |Gamma_a - Gamma_b|, ``max_rel`` the largest divided by sqrt(|H_ii H_jj|)
    of its first served route, and 0 with fewer than two served routes.
    ``rel_h`` and ``rel_g`` are the per-entry maxima of the latter over all N
    points.  ``sparsity_ok``: every served route keeps the entries ``_ZERO``
    within 1e-10, so scaled, and Gamma antisymmetric within 1e-12.
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


# The natural-unit limit rows and the constants of NATURAL's general forms.
_LIMIT = closed_forms.small_separation_limit(NATURAL)
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
    """Natural-unit H and Gamma of a closed-form method off the ``limit``
    points, and the mask of the points that the general forms serve, in
    blocks of ``BLOCK_POINTS``.  ``general`` is None, or the general method's
    natural-unit (H, Gamma) at the same points, whose rows those points take.
    """
    n = len(s)
    h, g = np.empty((n, 4, 4)), np.empty((n, 4, 4))
    rest = ~limit
    for block in _blocks(n):
        s_b, p_b, h_b, g_b = s[block], p[block], h[block], g[block]
        if method == "gaussian-closed":
            explicit = rest[block] & (np.abs(s_b) >= SMALL_SEPARATION)
            if np.count_nonzero(explicit):
                at = _where(explicit)
                h_b[at], g_b[at] = closed_forms.natural_gaussian_matrices(s_b[at], p_b[at])
            rest[block] &= ~explicit
        if np.count_nonzero(rest[block]):
            at = _where(rest[block])
            if general is None:
                jet = gaussian_overlap_jet(NATURAL, s_b[at], p_b[at])
                h_b[at], g_b[at] = closed_forms.general_matrices(jet, _CONSTS)
            else:
                h_b[at], g_b[at] = general[0][block][at], general[1][block][at]
    return h, g, rest


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
    scale = psf.scale
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
            h, g, eigs, failures = sld.pipeline(s_n, p_n, limit)
            route[list(failures)] = "failed"
            if failures:
                i, (kind, reason) = next(iter(failures.items()))
                error = kind(f"pipeline fails at (s={float(s[i])!r}, p={float(p[i])!r}): {reason}")
        else:
            with np.errstate(all="ignore"):
                h, g, rest = _closed(s_n, p_n, limit, method, general)
            route[rest] = "general"
            if method == "general":
                general = h, g
        if np.count_nonzero(limit):
            h[limit], g[limit] = _LIMIT
            route[limit] = "limit"
        with np.errstate(all="ignore"):
            h, g, route = h * scale, g * scale, tuple(route.tolist())
        _require_finite(psf, method, h, g, route, s, p)
        evs[method] = Evaluation(h, g, route, eigs, error)
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
_PAIR_A, _PAIR_B = np.array([0, 0, 1]), np.array([1, 2, 2])
# The entries (0 for H or 1 for Gamma, row, column) that vanish for two sources
# of equal brightness.
_ZERO = tuple(np.array([(0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 2), (0, 2, 3), (1, 0, 2),
                        (1, 1, 3)]).T)


def _stacked(evs: dict[str, Evaluation], block: slice) -> np.ndarray:
    """(route, H or Gamma, point, 4, 4) of the points ``block``, routes in
    METHODS order; failed pipeline points hold NaN."""
    return np.array([(evs[method].h[block], evs[method].gamma_mat[block]) for method in METHODS])


def deviations(evs: dict[str, Evaluation]) -> Deviations:
    """The cross-route rule on the evaluations of ``all_routes`` (see
    ``Deviations``), in blocks of ``BLOCK_POINTS`` points."""
    served = np.array([[r == method for r in evs[method].route] for method in METHODS])
    n = served.shape[1]
    max_abs, max_rel, ok = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    rel = np.zeros((2, 4, 4))
    for block in _blocks(n):
        max_abs[block], max_rel[block], ok[block], rel_block = (
            _deviations_block(_stacked(evs, block), served[:, block]))
        np.maximum(rel, rel_block, out=rel)
    return Deviations(served.T, max_abs, max_rel, ok, rel[0], rel[1])


def _deviations_block(mats: np.ndarray, served: np.ndarray):
    """``deviations`` on one block of ``_stacked`` matrices served as the (3, n)
    ``served``: max_abs, max_rel, sparsity_ok and the (2, 4, 4) maxima of rel."""
    first = np.argmax(served, axis=0)  # 0 where no route served: such points read 0
    n = len(first)
    diag = np.abs(np.diagonal(mats[first, 0, np.arange(n)], axis1=-2, axis2=-1))
    pair = (served[_PAIR_A] & served[_PAIR_B])[:, None, :, None, None]
    g = mats[:, 1]
    with np.errstate(all="ignore"):  # failed pipeline points hold NaN
        product = diag[:, :, None] * diag[:, None, :]
        scale = np.sqrt(product)
        # the product underflows or overflows where H's diagonal is beyond about 1e-154 or 1e154
        rough = (product < np.finfo(float).tiny) | (product == math.inf)
        if np.count_nonzero(rough):
            root = np.sqrt(diag)
            scale[rough] = (root[:, :, None] * root[:, None, :])[rough]
        dev = np.where(pair, np.abs(mats[_PAIR_A] - mats[_PAIR_B]), 0.0)
        rel = np.where(pair, dev / scale, 0.0).max(axis=0)
        zero = np.abs(mats[:, _ZERO[0], :, _ZERO[1], _ZERO[2]])  # (entry, route, point)
        bad = (zero > 1e-10 * scale[:, _ZERO[1], _ZERO[2]].T[:, None]).any(axis=0)
        bad |= (np.abs(g + g.swapaxes(-1, -2)) > 1e-12).any(axis=(-2, -1))
    ok = ~(bad & served).any(axis=0)
    return dev.max(axis=(0, 1, 3, 4)), rel.max(axis=(0, 2, 3)), ok, rel.max(axis=1)
