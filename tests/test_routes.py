import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srloc.cli import main
from srloc.closed_forms import small_separation_limit
from srloc.errors import DegenerateBasisError, InvalidParameterError, SrlocError
from srloc.psf import GaussianPsf
from srloc.routes import METHODS, all_routes, deviations, evaluate


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


def test_evaluate_rejects_bad_input(psf):
    for s, p in (([1.0, np.nan], [1.0, 1.0]), ([1.0], [np.inf]), ([1.0, 2.0], [1.0])):
        with pytest.raises(InvalidParameterError):
            evaluate(psf, s, p, "general")
    with pytest.raises(InvalidParameterError):
        evaluate(psf, [1.0], [1.0], "all")


@pytest.mark.parametrize("method, s, reason", [
    ("gaussian-closed", 37.0, "gives a non-finite"),
    ("gaussian-closed", 40.0, "fails"),
    ("general", 120.0, "fails"),
])
def test_evaluate_fails_closed_on_closed_forms(psf, method, s, reason):
    with pytest.raises(SrlocError, match=rf"{method} route {reason}.*\(s={s!r}, p=0\.0\)"):
        evaluate(psf, [1.0, s, s + 1.0], [0.0, 0.0, 0.0], method)


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
    with pytest.raises(SrlocError, match=rf"{method} route fails at \(s=1e\+200, p=0\.0\)"):
        evaluate(psf, [1.0, 1e200], [0.0, 0.0], method)


def test_all_routes_keeps_each_method_on_its_own_route(psf):
    per_point, evs = all_routes(psf, [1.0, 0.0, 0.0], [2.0, 2.0, 0.0])
    assert [list(served) for served in per_point] == [list(METHODS), ["pipeline", "general"], []]
    assert evs["gaussian-closed"].route == ("gaussian-closed", "general", "limit")


def test_deviations_scale_by_the_first_route():
    h = np.diag([4.0, 1.0, 1.0, 1.0])
    shifted = h.copy()
    shifted[0, 0] += 0.04
    zero = np.zeros((4, 4))
    dev = deviations({"a": (h, zero), "b": (shifted, zero), "c": (h, zero)})
    assert dev.max_abs == pytest.approx(0.04)
    assert dev.rel_h[0, 0] == pytest.approx(0.01)   # 0.04 / sqrt(4 * 4), never 4.04
    assert dev.max_rel == dev.rel_h[0, 0]
    assert np.array_equal(dev.scale, np.sqrt(np.outer(np.diag(h), np.diag(h))))


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
