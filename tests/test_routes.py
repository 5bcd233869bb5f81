import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import srloc.closed_forms
import srloc.gram
import srloc.psf
import srloc.routes
import srloc.sld
from srloc.cli import main
from srloc.closed_forms import OVERLAP_DEGENERACY_TOL, small_separation_limit
from srloc.errors import DegenerateBasisError, InvalidParameterError, SrlocError
from srloc.psf import NATURAL, GaussianPsf, gaussian_overlap
from srloc.routes import METHODS, Evaluation, all_routes, deviations, evaluate
from srloc.sld import COLUMNS, ZEROS

from oracle import oracle, row_scaled_error


def test_evaluate_labels_each_point_with_its_route(psf):
    s, p = [1.0, 0.0, 0.0, 0.01], [2.0, 2.0, 0.0, 0.0]
    want = {
        "gaussian-closed": ("gaussian-closed", "general", "limit", "gaussian-closed"),
        "general": ("general", "general", "limit", "general"),
        "pipeline": ("pipeline", "pipeline", "limit", "failed"),
    }
    h_lim, g_lim = small_separation_limit(psf)
    for method in METHODS:
        ev = evaluate(psf, s, p, method)
        assert ev.route == want[method]
        assert ev.h.shape == ev.gamma_mat.shape == (4, 4, 4)
        assert np.array_equal(ev.h[2], h_lim) and np.array_equal(ev.gamma_mat[2], g_lim)
        assert (ev.rho_eigenvalues is not None) == (method == "pipeline")
    ev = evaluate(psf, s, p, "pipeline")
    assert isinstance(ev.error, DegenerateBasisError)
    assert "(s=0.01, p=0.0)" in str(ev.error)
    assert np.all(np.isnan(ev.h[3]))
    # one limit rule for every method: (0, 1e-4) has 1 - |gamma|^2 = 6.25e-10
    # (served by the general forms), (1e-5, 0) 2.5e-11 (the limit)
    want = {
        "gaussian-closed": ("general", "limit"),
        "general": ("general", "limit"),
        "pipeline": ("failed", "limit"),
    }
    for method in METHODS:
        ev = evaluate(psf, [0.0, 1e-5], [1e-4, 0.0], method)
        assert ev.route == want[method]
        assert np.array_equal(ev.h[1], h_lim) and np.array_equal(ev.gamma_mat[1], g_lim)
    assert evaluate(psf, [0.0], [1e-4], "gaussian-closed").gamma_mat[0, 2, 3] < 0.0


def test_evaluate_rejects_bad_input(psf):
    for s, p in (([1.0, np.nan], [1.0, 1.0]), ([1.0], [np.inf]), ([1.0, 2.0], [1.0])):
        with pytest.raises(InvalidParameterError):
            evaluate(psf, s, p, "general")
    with pytest.raises(InvalidParameterError):
        evaluate(psf, [1.0], [1.0], "all")


# The one text of a closed route's failed point: the overlap jet overflows at
# s = 1e200, where gaussian-closed has rerouted the point to the general forms.
JET_OVERFLOWS = "general route gives a non-finite H or Gamma at (s=1e+200, p=0.0)"


@pytest.mark.parametrize("method, s", [
    ("gaussian-closed", 37.0), ("gaussian-closed", 40.0), ("general", 120.0)])
def test_evaluate_fails_closed_on_closed_forms(psf, method, s):
    # far out the explicit forms overflow and |gamma|^2 underflows to 0: both
    # closed routes serve (s, 0) by the general forms, and fail closed only
    # where the jet overflows
    ev = evaluate(psf, [1.0, s, 1e200], [0.0, 0.0, 0.0], method)
    assert ev.route[:2] == (method, "general")
    h_ref, g_ref = oracle(psf, s, 0.0)
    assert row_scaled_error(ev.h[1], ev.gamma_mat[1], h_ref, g_ref) <= 1e-15
    assert type(ev.error) is SrlocError and str(ev.error) == JET_OVERFLOWS
    _assert_failed_at(psf, method, ev, [1.0, s, 1e200], [0.0, 0.0, 0.0], 2)


def _assert_failed_at(psf, method, ev, s, p, failed):
    """Point ``failed`` of ``ev`` is "failed" and NaN, and every point has
    the label and the row bits of its one-point evaluation."""
    assert ev.route[failed] == "failed"
    assert np.isnan(ev.table[failed]).all()
    for i in range(len(s)):
        alone = evaluate(psf, s[i:i + 1], p[i:i + 1], method)
        assert alone.route == ev.route[i:i + 1]
        assert alone.table.tobytes() == ev.table[i].tobytes()


@pytest.mark.parametrize("method", ["gaussian-closed", "general"])
def test_closed_route_point_bits_independent_of_stack(psf, method):
    # explicit points, rerouted points (s = 0, p != 0) and limit points, mixed
    s = np.array([0.1, 0.0, 1.3, 0.0, 4.9, 2.5, 0.0, 1e-7, 3.7])
    p = np.array([0.0, 2.0, 2.2, 0.0, 5.0, 0.0, 0.3, 1e-5, 1.1])
    full = evaluate(psf, s, p, method)
    assert {"general", "limit"} <= set(full.route)
    for i in range(len(s)):
        alone = evaluate(psf, s[i:i + 1], p[i:i + 1], method)
        assert alone.route == full.route[i:i + 1]
        assert alone.h.tobytes() == full.h[i].tobytes()
        assert alone.gamma_mat.tobytes() == full.gamma_mat[i].tobytes()


@pytest.mark.parametrize("method", ["gaussian-closed", "general"])
def test_evaluate_names_the_failure_where_s_squared_overflows(psf, method):
    # no numpy warning escapes (pytest turns RuntimeWarning into an error)
    ev = evaluate(psf, [1.0, 1e200], [0.0, 0.0], method)
    assert isinstance(ev.error, SrlocError)
    assert str(ev.error) == JET_OVERFLOWS
    _assert_failed_at(psf, method, ev, [1.0, 1e200], [0.0, 0.0], 1)


@pytest.mark.parametrize("method, s_far", [
    ("gaussian-closed", 37.0), ("gaussian-closed", 40.0), ("general", 120.0)])
def test_closed_route_failed_point_independent_of_stack(psf, method, s_far):
    # the grid of test_closed_route_point_bits_independent_of_stack, with a point
    # whose jet overflows in its middle and a far point, served, at its end
    s = np.array([0.1, 0.0, 1.3, 0.0, 1e200, 2.5, 0.0, 1e-7, 3.7, s_far])
    p = np.array([0.0, 2.0, 2.2, 0.0, 0.0, 0.0, 0.3, 1e-5, 1.1, 0.0])
    full = evaluate(psf, s, p, method)
    assert {"general", "limit", "failed"} <= set(full.route)
    assert full.route[-1] == "general"
    _assert_failed_at(psf, method, full, s, p, 4)
    alone = evaluate(psf, s[4:5], p[4:5], method)
    assert type(full.error) is type(alone.error) is SrlocError
    assert str(full.error) == str(alone.error)


def test_all_routes_keeps_each_method_on_its_own_route(psf):
    evs = all_routes(psf, [1.0, 0.0, 0.0], [2.0, 2.0, 0.0])
    assert list(evs) == list(METHODS)
    served = deviations(evs, 1e-8).served
    assert [[m for m, ok in zip(METHODS, row) if ok] for row in served] == [
        list(METHODS), ["pipeline", "general"], []]
    assert evs["gaussian-closed"].route == ("gaussian-closed", "general", "limit")


def test_all_routes_runs_the_general_forms_once_per_block(psf, monkeypatch):
    # gaussian-closed takes the rows of the points it reroutes (s = 0) from the
    # general method instead of computing them again
    true_fn = srloc.closed_forms._overlap_factors
    seen = []

    def counted(jet):
        seen.append(np.size(jet.gamma))
        return true_fn(jet)

    monkeypatch.setattr(srloc.closed_forms, "_overlap_factors", counted)
    s, p = [0.0, 1.0, 0.0, 2.0, 0.0], [2.0, 2.0, 0.5, 0.0, 0.0]
    evs = all_routes(psf, s, p)
    assert seen == [4]
    assert evs["gaussian-closed"].route == ("general", "gaussian-closed", "general",
                                            "gaussian-closed", "limit")
    for method in ("general", "gaussian-closed"):
        alone = evaluate(psf, s, p, method)
        assert alone.route == evs[method].route
        assert alone.h.tobytes() == evs[method].h.tobytes()
        assert alone.gamma_mat.tobytes() == evs[method].gamma_mat.tobytes()
    # blocks of 2, 2 and 1 points; the last holds only the limit point
    monkeypatch.setattr("srloc.routes.BLOCK_POINTS", 2)
    seen.clear()
    all_routes(psf, s, p)
    assert seen == [2, 2]


def test_all_routes_computes_the_overlap_jet_once_per_block(psf, monkeypatch):
    # (0, 0) a limit point, (0.001, 0) one the pipeline refuses, s = 0 rerouted by
    # gaussian-closed, and ordinary points
    s = np.array([0.0, 0.001, 0.0, 1.0, 2.5, 0.0, 0.1, 3.7, 0.001])
    p = np.array([0.0, 0.0, 2.0, 2.0, 0.0, 0.3, 4.9, 1.1, 0.0])
    alone = {method: evaluate(psf, s, p, method) for method in METHODS}
    assert alone["pipeline"].route == ("limit", "failed") + ("pipeline",) * 6 + ("failed",)
    assert alone["gaussian-closed"].route[2] == alone["gaussian-closed"].route[5] == "general"
    true_jet = srloc.psf.gaussian_overlap_jet
    seen = []

    def counted(beam, s_b, p_b):
        seen.append(np.size(s_b))
        return true_jet(beam, s_b, p_b)

    # in every module that binds it
    for module in (srloc.psf, srloc.gram, srloc.sld, srloc.closed_forms, srloc.routes):
        if hasattr(module, "gaussian_overlap_jet"):
            monkeypatch.setattr(module, "gaussian_overlap_jet", counted)
    # route blocks of 4, 4 and 1 points, and pipeline blocks of 3 that cross them
    monkeypatch.setattr(srloc.routes, "BLOCK_POINTS", 4)
    monkeypatch.setattr(srloc.sld, "BLOCK_POINTS", 3)
    evs = all_routes(psf, s, p)
    assert seen == [3, 4, 1]  # one jet per block, at its points off the limit
    for method, ev in evs.items():
        assert ev.route == alone[method].route
        assert ev.table.tobytes() == alone[method].table.tobytes()
        eigs = alone[method].rho_eigenvalues
        assert (ev.rho_eigenvalues is None) == (eigs is None)
        if eigs is not None:
            assert ev.rho_eigenvalues.tobytes() == eigs.tobytes()
        assert type(ev.error) is type(alone[method].error)
        assert str(ev.error) == str(alone[method].error)


def test_tables_keep_their_bits_where_the_one_point_jet_differs_in_a_signed_zero():
    # the jet's products underflow here: its d_ss is 0j alone and -0j among
    # others (psf._points), yet the tables of both jet routes take the same bits
    psf = GaussianPsf(k=4.801877830709896, z_r=2.0540411173779022e-05)
    s, p = 5.81127931, -1.54733487e+226
    with np.errstate(all="ignore"):
        one = srloc.psf.gaussian_overlap_jet(NATURAL, *psf.natural(s, p))
        two = srloc.psf.gaussian_overlap_jet(NATURAL, *psf.natural(np.array([s, 1.0]),
                                                                   np.array([p, 1.0])))
    for field in ("gamma", "d_s", "d_p", "d_ss", "d_pp", "d_sp"):
        assert getattr(one, field) == getattr(two, field)[0], field
    for method in ("pipeline", "general"):
        alone = evaluate(psf, [s], [p], method)
        among = evaluate(psf, [s, 1.0], [p, 1.0], method)
        assert alone.route == (method,) and among.route == (method, method)
        assert alone.table[0].tobytes() == among.table[0].tobytes(), method


def test_gaussian_closed_matches_the_oracle_at_coincident_centroids_on_axis(psf):
    # s = 0 with 1 - |gamma|^2 from just above the general forms' guard (1e-10)
    # to 2e-8: the general forms serve these points, the limit is 1e-4 off
    p_natural = np.geomspace(2.001e-5, 2.8e-4, 12)
    p = p_natural * psf.z_r
    ev = evaluate(psf, np.zeros_like(p), p, "gaussian-closed")
    assert set(ev.route) == {"general"}
    for i, b in enumerate(p):
        h_ref, g_ref = oracle(psf, 0.0, b)
        diag = np.abs(np.diag(h_ref))
        scale = np.sqrt(np.outer(diag, diag))
        err = max(np.max(np.abs(ev.h[i] - h_ref) / scale),
                  np.max(np.abs(ev.gamma_mat[i] - g_ref) / scale))
        assert err <= 1e-10, (b, err)


# Natural separations log-uniform in [1e-9, 1e-2], or 0 (the axes).
natural_separations = st.one_of(st.just(0.0), st.floats(min_value=-9.0, max_value=-2.0).map(
    lambda e: 10.0 ** e))


@settings(max_examples=80, deadline=None)
@given(k_zr=st.sampled_from([(1.0, 2.0), (1e3, 1e3), (1e-3, 1.0)]),
       s_n=natural_separations, p_n=natural_separations)
def test_every_method_serves_the_limit_exactly_where_the_general_guard_refuses(k_zr, s_n, p_n):
    psf = GaussianPsf(*k_zr)
    s = np.array([s_n, s_n, 0.0]) / math.sqrt(2.0 * psf.k / psf.z_r)
    p = np.array([p_n, 0.0, p_n]) * psf.z_r
    ag = np.abs(gaussian_overlap(NATURAL, *psf.natural(s, p)))
    want = 1.0 - ag * ag < OVERLAP_DEGENERACY_TOL
    for method in METHODS:
        # no DegenerateOverlapError (nor any other error) escapes
        ev = evaluate(psf, s, p, method)
        assert [r == "limit" for r in ev.route] == want.tolist(), (method, ev.route)
        for i in range(len(s)):
            assert evaluate(psf, s[i:i + 1], p[i:i + 1], method).route == ev.route[i:i + 1]


# (k, z_R) with k z_R from 1e-3 to 1e10.  The test points are given in units of
# w = sqrt(z_R / k) across the axis and of z_R along it.
SCALES = [(1e-3, 1.0), (1.0, 2.0), (1e3, 1e3), (1e4, 1e4), (1e5, 1e5), (1e6, 1.0), (1e7, 1e-3)]


@pytest.mark.parametrize("k, zr", SCALES)
def test_every_route_matches_the_oracle_across_scales(k, zr):
    # the oracle keeps the uncentered overlap in physical units, so it checks
    # the routes' centering and scaling instead of sharing them
    psf = GaussianPsf(k=k, z_r=zr)
    s, p = (a.ravel() for a in np.meshgrid([0.1, 0.7, 2.0, 4.9], [0.1, 1.3, 4.9]))
    s, p = s * math.sqrt(zr / k), p * zr
    refs = [oracle(psf, a, b) for a, b in zip(s, p)]
    for method in METHODS:
        ev = evaluate(psf, s, p, method)
        assert ev.route == (method,) * len(s)
        for i, (h_ref, g_ref) in enumerate(refs):
            diag = np.abs(np.diag(h_ref))
            scale = np.sqrt(np.outer(diag, diag))
            err = max(np.max(np.abs(ev.h[i] - h_ref) / scale),
                      np.max(np.abs(ev.gamma_mat[i] - g_ref) / scale))
            assert err <= 1e-13, (method, s[i], p[i], err)


@pytest.mark.parametrize("k, zr", [(1.0, 2.0), (1e3, 1e3), (1e7, 1e-3)])
def test_every_route_matches_the_oracle_at_far_separation(k, zr):
    # natural s~ from where the explicit forms still serve (30) past where they
    # overflow (36.95 at p~ = 0) to where |gamma|^2 underflows to 0 (55 at p~ = 0)
    psf = GaussianPsf(k=k, z_r=zr)
    s_n = [30.0, 36.95, 37.2, 37.7, 40.0, 55.0, 120.0, 1e3, 1e6]
    s, p = (a.ravel() for a in np.meshgrid(s_n, [0.0, 0.3, 2.0]))
    s, p = s / math.sqrt(2.0 * k / zr), p * zr
    refs = [oracle(psf, a, b) for a, b in zip(s, p)]
    for method in METHODS:
        ev = evaluate(psf, s, p, method)
        assert ev.error is None, (method, ev.error)
        for i, ref in enumerate(refs):
            err = row_scaled_error(ev.h[i], ev.gamma_mat[i], *ref)
            assert err <= 1e-15, (method, s[i], p[i], ev.route[i], err)


def test_gaussian_closed_reroutes_only_near_zero_or_far_out():
    # the explicit forms serve every point with |s~| >= 1e-6 and varsigma <= 300
    # (they overflow from about 342), so a NaN in them cannot hide behind the
    # reroute; up to |s~| = 1e20: from about 1e28 their powers of s~ overflow
    s = np.concatenate([[0.0], np.geomspace(1e-9, 1e20, 88)])
    s, p = (a.ravel() for a in np.meshgrid(s, s))
    ev = evaluate(NATURAL, s, p, "gaussian-closed")
    route = np.array(ev.route)
    assert ev.error is None and set(route) == {"gaussian-closed", "general", "limit"}
    sigma = s * s / (p * p + 4.0)
    explicit = (np.abs(s) >= srloc.closed_forms.SMALL_SEPARATION) & (sigma <= 300.0)
    assert np.array_equal(route == "gaussian-closed", explicit & (route != "limit"))
    assert np.count_nonzero((route == "general") & (sigma > 300.0)) > 0


@pytest.mark.parametrize("k, zr", [(1e3, 1e3), (1e4, 1e4), (1e5, 1e5), (1e7, 1e-3)])
def test_routes_agree_on_the_default_grid_in_natural_units(k, zr):
    # crossval's default 20x20 grid 0.1:5:0.25, in units of w across and z_R along the axis
    v = 0.1 + 0.25 * np.arange(20)
    s, p = np.repeat(v, 20) * math.sqrt(zr / k), np.tile(v, 20) * zr
    dev = deviations(all_routes(GaussianPsf(k=k, z_r=zr), s, p), 1e-8)
    assert dev.served.all()
    assert dev.max_rel.max() <= 1e-8


def _evaluation(h, routes):
    """An evaluation with the H stack ``h``, read at the columns of its upper
    triangle, and Gamma zero."""
    h = np.array(h)
    table = np.zeros((len(h), len(COLUMNS)))
    for col, (matrix, i, j) in enumerate(COLUMNS):
        if matrix == "H":
            table[:, col] = h[:, i, j]
    return Evaluation(table=table, route=routes, rho_eigenvalues=None, error=None)


def test_deviations_scale_by_the_first_route():
    h = np.diag([4.0, 1.0, 1.0, 1.0])
    shifted = h.copy()
    shifted[0, 0] += 0.04
    # point 1 has all three routes; at point 2 the pipeline failed, so general is first
    dev = deviations({
        "pipeline": _evaluation([h, np.full((4, 4), np.nan)], ("pipeline", "failed")),
        "general": _evaluation([shifted, shifted], ("general", "general")),
        "gaussian-closed": _evaluation([h, h], ("gaussian-closed", "gaussian-closed")),
    }, 1e-8)
    assert dev.served.tolist() == [[True, True, True], [False, True, True]]
    assert dev.compared.tolist() == [True, True]
    assert dev.max_abs == pytest.approx([0.04, 0.04])
    # 0.04 / sqrt(4 * 4), never 0.04 / 4.04; then 0.04 / sqrt(4.04 * 4.04), bit for bit
    diff = shifted[0, 0] - h[0, 0]
    want = [diff / math.sqrt(h[0, 0] * h[0, 0]), diff / math.sqrt(shifted[0, 0] * shifted[0, 0])]
    assert want == pytest.approx([0.01, 0.04 / 4.04])
    assert dev.max_rel.tolist() == want
    assert dev.rel_h[0, 0] == max(want) and np.count_nonzero(dev.rel_h) == 1
    assert not dev.rel_g.any()


def test_deviations_scale_keeps_its_bits_and_survives_tiny_diagonals():
    # H_ss H_ss and H_ss H_pp = 1e-320 underflow: those scales are sqrt(H_ss) sqrt(H_pp)
    # = 1e-160; the other entries keep sqrt(H_ii H_jj) bit for bit.  Point i shifts
    # one entry of the general route's H, and is scaled by the entry's own scale.
    h = np.diag([1e-160, 3.0, 1e-160, 7.0])
    cases = [((0, 0), 4e-176, 1e-160), ((0, 2), 1e-176, 1e-160),
             ((0, 1), 1e-96, math.sqrt(3e-160)), ((1, 3), 1e-15, math.sqrt(21.0))]
    shifted = []
    for (i, j), delta, _ in cases:
        m = h.copy()
        m[i, j] += delta
        m[j, i] = m[i, j]
        shifted.append(m)
    n = len(cases)
    dev = deviations({
        "pipeline": _evaluation([h] * n, ("pipeline",) * n),
        "general": _evaluation(shifted, ("general",) * n),
        "gaussian-closed": _evaluation([h] * n, ("gaussian-closed",) * n),
    }, 1e-8)
    want = [abs(m[i, j] - h[i, j]) / scale for m, ((i, j), _, scale) in zip(shifted, cases)]
    assert dev.max_rel.tolist() == want and max(want) <= 1e-15
    for ((i, j), _, _), rel in zip(cases, want):
        assert dev.rel_h[i, j] == dev.rel_h[j, i] == rel
    assert dev.sparsity_ok.tolist() == [True, True, True, True]


def test_deviations_scale_survives_huge_diagonals():
    # H_ss H_pp = 1e320 overflows: that scale is sqrt(H_ss) sqrt(H_pp) = 1e160, not inf,
    # and no numpy warning escapes (pytest turns RuntimeWarning into an error)
    h = np.diag([1e160, 3.0, 1e160, 7.0])
    shifted = h.copy()
    shifted[0, 2] = shifted[2, 0] = 1e145
    dev = deviations({
        "pipeline": _evaluation([h], ("pipeline",)),
        "general": _evaluation([shifted], ("general",)),
        "gaussian-closed": _evaluation([h], ("gaussian-closed",)),
    }, 1e-8)
    assert dev.max_rel.tolist() == [1e145 / 1e160]
    assert dev.rel_h[0, 2] == dev.rel_h[2, 0] == 1e145 / 1e160
    assert dev.sparsity_ok.tolist() == [True]  # 1e-15, scaled: a zero


def _pairwise_reference(evs, i):
    """The cross-route rule at point i, one route pair at a time."""
    served = [(ev.h[i], ev.gamma_mat[i]) for method, ev in evs.items() if ev.route[i] == method]
    if not served:
        return 0.0, np.zeros((4, 4)), np.zeros((4, 4))
    diag = np.abs(np.diag(served[0][0]))
    scale = np.sqrt(np.outer(diag, diag))
    max_abs, rel_h, rel_g = 0.0, np.zeros((4, 4)), np.zeros((4, 4))
    for a, (h_a, g_a) in enumerate(served):
        for h_b, g_b in served[a + 1:]:
            rel_h = np.maximum(rel_h, np.abs(h_a - h_b) / scale)
            rel_g = np.maximum(rel_g, np.abs(g_a - g_b) / scale)
            max_abs = max(max_abs, np.abs(h_a - h_b).max(), np.abs(g_a - g_b).max())
    return max_abs, rel_h, rel_g


# The per-point fields of Deviations, and its grid maxima.
POINT_FIELDS = ("served", "max_abs", "max_rel", "sparsity_ok")
GRID_FIELDS = ("rel_h", "rel_g")


def test_deviations_point_bits_independent_of_grid(psf, monkeypatch):
    # three routes, two (s = 0), one ((0, 0.01): the pipeline fails), limits and failures
    s = np.array([0.1, 0.0, 1.3, 0.0, 0.01, 2.5, 0.0, 1e-7, 3.7, 0.0])
    p = np.array([0.0, 2.0, 2.2, 0.0, 0.0, 0.0, 0.3, 1e-5, 1.1, 0.01])
    evs = all_routes(psf, s, p)
    full = deviations(evs, 1e-8)
    assert set(np.count_nonzero(full.served, axis=1).tolist()) == {0, 1, 2, 3}
    assert {"failed", "limit"} <= set(evs["pipeline"].route)
    assert full.sparsity_ok.all()
    refs = [_pairwise_reference(evs, i) for i in range(len(s))]
    for name, at in zip(GRID_FIELDS, (1, 2)):
        assert getattr(full, name).tobytes() == np.max([ref[at] for ref in refs], axis=0).tobytes()
    monkeypatch.setattr("srloc.routes.BLOCK_POINTS", 3)  # blocks of 3, 3, 3 and 1 points
    blocked = deviations(evs, 1e-8)
    for name in POINT_FIELDS + GRID_FIELDS:
        assert getattr(blocked, name).tobytes() == getattr(full, name).tobytes(), name
    for i, (max_abs, rel_h, rel_g) in enumerate(refs):
        alone = deviations(all_routes(psf, s[i:i + 1], p[i:i + 1]), 1e-8)
        for name in POINT_FIELDS:
            assert getattr(alone, name).tobytes() == getattr(full, name)[i:i + 1].tobytes(), name
        assert full.max_abs[i] == max_abs
        assert full.max_rel[i] == max(rel_h.max(), rel_g.max())
        # the maxima over a one-point grid are that point's own
        assert alone.rel_h.tobytes() == rel_h.tobytes()
        assert alone.rel_g.tobytes() == rel_g.tobytes()


def test_sparsity_ok_reads_only_served_routes(monkeypatch):
    h = np.diag([4.0, 1.0, 1.0, 1.0])
    leaky = h.copy()
    leaky[0, 1] = 1e-6  # above 1e-10 * sqrt(4 * 1)
    # point 1: a served route leaks; point 2: only a failed pipeline (NaN) and a
    # rerouted gaussian-closed point would leak; point 3: every route is clean
    evs = {
        "pipeline": _evaluation([h, np.full((4, 4), np.nan), h], ("pipeline", "failed", "pipeline")),
        "general": _evaluation([leaky, h, h], ("general",) * 3),
        "gaussian-closed": _evaluation([h, leaky, h], ("gaussian-closed", "general", "gaussian-closed")),
    }
    assert deviations(evs, 1e-8).sparsity_ok.tolist() == [False, True, True]
    monkeypatch.setattr("srloc.routes.BLOCK_POINTS", 2)
    assert deviations(evs, 1e-8).sparsity_ok.tolist() == [False, True, True]


def test_deviations_verdict_fails_a_point_over_tol_or_off_the_zero_pattern():
    h = np.diag([4.0, 1.0, 1.0, 1.0])
    shifted, leaky = h.copy(), h.copy()
    shifted[0, 0] += 0.04  # max_rel 0.01
    leaky[0, 1] = leaky[1, 0] = 1e-6  # above 1e-10 * sqrt(4 * 1), max_rel 5e-7
    # point 1 is within any tol here; point 2 deviates; point 3 breaks the zero pattern;
    # point 4 has one served route only, so it is not compared
    evs = {
        "pipeline": _evaluation([h, h, h, np.full((4, 4), np.nan)],
                                ("pipeline", "pipeline", "pipeline", "failed")),
        "general": _evaluation([h, shifted, leaky, h], ("general",) * 4),
        "gaussian-closed": _evaluation([h] * 4, ("gaussian-closed",) * 3 + ("general",)),
    }
    loose = deviations(evs, 0.1)
    assert loose.failed.tolist() == [False, False, True, False] and not loose.passed
    assert loose.reason == "a served route breaks the zero pattern of H and Gamma"
    assert (loose.n_points, loose.n_full) == (3, 3)
    tight = deviations(evs, 1e-8)
    assert tight.failed.tolist() == [False, True, True, False]
    assert tight.reason == "cross-method deviation exceeds tolerance: 1.000e-02 > 1.0e-08"
    # the first point alone passes; the fourth alone has nothing to compare
    first = {method: _evaluation(ev.h[:1], ev.route[:1]) for method, ev in evs.items()}
    assert deviations(first, 1e-8).passed and deviations(first, 1e-8).reason == ""
    last = {method: _evaluation(ev.h[3:], ev.route[3:]) for method, ev in evs.items()}
    assert deviations(last, 1.0).reason == "no point is served by two routes"


separations = st.floats(min_value=0.0, max_value=1e3)


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(METHODS + ("all",)), s=separations, p=separations)
def test_every_finite_point_gives_finite_matrices_or_a_typed_error(method, s, p):
    psf = GaussianPsf(k=1.0, z_r=2.0)
    if method != "all":
        try:
            ev = evaluate(psf, [s], [p], method)
        except SrlocError:
            pass
        else:
            if ev.route[0] != "failed":
                assert np.isfinite(ev.h).all() and np.isfinite(ev.gamma_mat).all()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--k", "1", "--zr", "2", "--s", repr(s), "--p", repr(p),
                     "--method", method])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# Log-uniform finite magnitudes in [1e-300, 1e300].
magnitudes = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e)


@settings(max_examples=200, deadline=None)
@given(method=st.sampled_from(METHODS), k=magnitudes, zr=magnitudes,
       s=st.one_of(st.just(0.0), magnitudes), p=st.one_of(st.just(0.0), magnitudes))
def test_every_method_gives_finite_layout_rows_or_a_typed_error_at_physical_extremes(
        method, k, zr, s, p):
    try:
        psf = GaussianPsf(k=k, z_r=zr)
    except InvalidParameterError:
        assume(False)
    try:
        ev = evaluate(psf, [s], [p], method)
    except SrlocError:
        return
    served = [i for i, route in enumerate(ev.route) if route != "failed"]
    assert np.isfinite(ev.table[served]).all()
    h, g = ev.h[served], ev.gamma_mat[served]
    assert np.array_equal(h, h.swapaxes(-1, -2))
    assert np.array_equal(g, -g.swapaxes(-1, -2))
    assert not np.diagonal(g, axis1=-2, axis2=-1).any()


def test_pipeline_zero_columns_hold_its_roundoff(psf):
    # acceptance criteria 3 and 4 read the pipeline's vanishing entries on this
    # grid: they are its own roundoff, not zeros that the layout writes
    grid = np.linspace(0.1, 5.0, 20)
    ev = evaluate(psf, np.repeat(grid, 20), np.tile(grid, 20), "pipeline")
    assert set(ev.route) == {"pipeline"}
    assert np.count_nonzero(ev.table[:, ZEROS], axis=0).all()
