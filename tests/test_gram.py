import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srloc.sld
from srloc import evaluate
from srloc.errors import DegenerateBasisError
from srloc.gram import _DRHO_ROWS, COORDINATES, factor
from srloc.psf import (NATURAL, OverlapJet, SourceGeometry, gaussian_constants,
                       gaussian_overlap_jet)
from srloc.sld import DEGENERACY_THRESHOLD

from gram_reference import build_gram_stack, factor_stack


def gram_at(psf, s, p):
    """The reference Gram matrix at (s, p) and the five normalized pivots
    T_jj^2 / S_jj of ``factor`` there."""
    jet = gaussian_overlap_jet(psf, s, p)
    stack = build_gram_stack(jet, gaussian_constants(psf))
    assert stack.shape == (1, 6, 6)
    return stack[0], factor_stack(jet, gaussian_constants(psf))[1][:, 0]


# ------------------------------------------------------------- structure


@pytest.mark.parametrize("s,p", [(1.0, 0.0), (0.5, 2.0), (3.0, 4.0)])
def test_constant_entries(psf, consts, s, p):
    sm, _ = gram_at(psf, s, p)
    assert sm[0, 0] == 1.0 and sm[1, 1] == 1.0
    assert sm[2, 2] == consts.dpsi_norm_sq == 0.25
    assert sm[4, 4] == 0.25
    assert sm[3, 3] == consts.g_variance == 0.0625
    assert sm[5, 5] == 0.0625
    assert sm[0, 2] == 0.0 and sm[1, 4] == 0.0
    assert sm[0, 3] == 0.0 and sm[1, 5] == 0.0  # the centered images
    assert sm[2, 3] == 0.0 and sm[4, 5] == 0.0


def test_overlap_entry(psf):
    sm, _ = gram_at(psf, 1.0, 0.0)
    assert sm[0, 1] == pytest.approx(math.exp(-0.125), rel=1e-14)


def test_exactly_hermitian(psf):
    s, p = np.meshgrid(np.linspace(0.1, 5.0, 4), np.linspace(0.0, 5.0, 4))
    stack = build_gram_stack(gaussian_overlap_jet(psf, s.ravel(), p.ravel()),
                             gaussian_constants(psf))
    assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))


def test_first_derivative_entries_signs(psf):
    jet = gaussian_overlap_jet(psf, 0.9, 1.4)
    sm = build_gram_stack(jet, gaussian_constants(psf))[0]
    assert sm[0, 4] == jet.d_s          # <Psi1|d_x2 Psi2> = +d_s
    assert sm[2, 1] == -jet.d_s         # <d_x1 Psi1|Psi2> = -d_s
    assert sm[0, 5] == jet.d_p
    assert sm[3, 1] == -jet.d_p
    assert sm[2, 4] == -jet.d_ss
    assert sm[3, 5] == -jet.d_pp
    assert sm[2, 5] == -jet.d_sp and sm[3, 4] == -jet.d_sp


def test_positive_definite_on_grid(psf, consts):
    s, p = (a.ravel() for a in np.meshgrid(np.linspace(0.1, 5.0, 8), np.linspace(0.1, 5.0, 8)))
    jet = gaussian_overlap_jet(psf, s, p)
    assert np.all(factor_stack(jet, consts)[1] >= DEGENERACY_THRESHOLD)
    stack = build_gram_stack(jet, consts)
    np.linalg.cholesky(stack)  # raises if any matrix is not PD
    assert np.all(np.linalg.eigvalsh(stack)[:, 0] > 0.0)


def test_degenerate_at_coincident_sources(psf):
    _, pivots = gram_at(psf, 0.0, 0.0)
    assert pivots[0] == 0.0  # 1 - |gamma|^2
    failure = srloc.sld.pipeline(gaussian_overlap_jet(NATURAL, np.zeros(1), np.zeros(1)))[3]
    assert failure[0] is DegenerateBasisError and "numerically degenerate" in failure[1]


def test_degeneracy_threshold_configurable(psf, monkeypatch):
    assert evaluate(psf, [0.05], [0.05], "pipeline").route == ("pipeline",)  # fine at the default
    monkeypatch.setattr(srloc.sld, "DEGENERACY_THRESHOLD", 1e-2)
    ev = evaluate(psf, [0.05], [0.05], "pipeline")
    assert ev.route == ("failed",) and "numerically degenerate" in str(ev.error)


def test_gram_entries_depend_only_on_separations(psf, consts):
    # geometries differing only by a centroid shift chosen so the float
    # subtractions are exact -> bit-identical Gram data and factors
    g1 = SourceGeometry.from_coordinates(1.0, 4.1, 2.0, 6.1)
    g2 = SourceGeometry.from_coordinates(1.0 + 7.3, 4.1 - 2.1, 2.0 + 7.3, 6.1 - 2.1)
    assert (g1.s, g1.p) == (g2.s, g2.p)
    assert (g1.xbar, g1.zbar) != (g2.xbar, g2.zbar)
    sm1, _ = gram_at(psf, g1.s, g1.p)
    sm2, _ = gram_at(psf, g2.s, g2.p)
    assert sm1.tobytes() == sm2.tobytes()
    t1 = factor_stack(gaussian_overlap_jet(psf, g1.s, g1.p), consts)[0]
    t2 = factor_stack(gaussian_overlap_jet(psf, g2.s, g2.p), consts)[0]
    assert t1.tobytes() == t2.tobytes()


# --------------------------------------------------- the Cholesky factor

natural = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)


@settings(max_examples=200, deadline=None)
@given(s=natural, p=natural)
def test_factor_matches_the_reference_gram_and_lapack(s, p):
    # log-uniform natural separations in [1e-2, 1e2], both signs of p
    consts = gaussian_constants(NATURAL)
    jet = gaussian_overlap_jet(NATURAL, np.array([s, s]), np.array([p, -p]))
    gram = build_gram_stack(jet, consts)
    t, pivots = factor_stack(jet, consts)
    assert np.array_equal(t, np.triu(t))
    root = np.sqrt(np.diagonal(gram, axis1=1, axis2=2).real)
    scale = root[:, :, None] * root[:, None, :]
    assert np.max(np.abs(t.conj().swapaxes(-1, -2) @ t - gram) / scale) <= 1e-14
    for i in np.flatnonzero(np.all(pivots >= DEGENERACY_THRESHOLD, axis=0)):
        diag = np.diagonal(t[i])
        assert np.all(diag.imag == 0.0) and np.all(diag.real > 0.0)
        # LAPACK's factor is exact to about eps times the condition of the
        # Gram matrix, at most eps over the smallest normalized pivot
        pivot = np.min(diag.real ** 2 / root[i] ** 2)
        lapack = np.linalg.cholesky(gram[i]).conj().T
        assert np.max(np.abs(t[i] - lapack) / root[i]) <= max(1e-13, 1e-15 / pivot)


def test_factor_far_apart_is_diagonal(consts):
    # at s = 80 the jet underflows to 0: S and T are diagonal, exactly
    t, pivots = factor_stack(gaussian_overlap_jet(NATURAL, 80.0, 0.0), consts)
    assert np.array_equal(pivots[:, 0], np.ones(5))
    assert np.array_equal(t[0], np.diag([1.0, 1.0, 0.5, 0.25, 0.5, 0.25]))


def test_factor_refuses_a_non_positive_pivot(consts):
    # |gamma| >= 1 is no overlap of distinct unit vectors: the pivot T_11^2 =
    # 1 - |gamma|^2 is negative, or 0
    zero = np.zeros(3, dtype=complex)
    jet = OverlapJet(np.array([0.5, 1.5, 1.0]), zero, zero, zero, zero, zero)
    assert np.array_equal(factor(jet, consts)[1][0], [0.75, -1.25, 0.0])
    # sld refuses each point with a pivot below its threshold, naming the
    # first pivot of the first such point
    _, _, failed, failure = srloc.sld.pipeline(jet)
    assert failed.tolist() == [False, True, True]
    assert "normalized Cholesky pivot -1.250e+00 below" in failure[1]
    _, _, failed, failure = srloc.sld.pipeline(jet[2:])
    assert failed.tolist() == [True]
    assert "normalized Cholesky pivot 0.000e+00 below" in failure[1]


def test_factor_refuses_a_non_finite_jet(psf, consts):
    with np.errstate(all="ignore"):
        jet = gaussian_overlap_jet(psf, np.array([1.0, 1e200]), np.array([0.0, 0.0]))
    pivots = factor_stack(jet, consts)[1]
    assert np.all(pivots[:, 0] >= DEGENERACY_THRESHOLD)
    assert not np.all(pivots[:, 1] >= DEGENERACY_THRESHOLD)
    _, _, failed, failure = srloc.sld.pipeline(jet)
    assert failed.tolist() == [False, True]
    assert failure == (DegenerateBasisError,
                       "overlap jet is not finite (it overflows at this separation)")


def test_factor_point_bits_independent_of_stack(psf, consts):
    # one point runs on numpy scalars, a stack on arrays: the same bits
    s, p = np.linspace(0.1, 4.9, 7), np.linspace(4.0, 0.2, 7)
    stack = factor(gaussian_overlap_jet(psf, s, p), consts)[0]
    for i in range(7):
        alone = factor(gaussian_overlap_jet(psf, float(s[i]), float(p[i])), consts)[0]
        assert np.ndim(alone[1, 4]) == 0
        for key, entry in stack.items():
            assert np.asarray(alone[key]).tobytes() == np.broadcast_to(entry, 7)[i].tobytes(), key


# --------------------------------------------------- state in the Gram frame


def test_rho_action_trace_is_one(psf, consts):
    # with T^H T = S the state is (t0 t0^H + t1 t1^H)/2, of trace (S00 + S11)/2
    t = factor_stack(gaussian_overlap_jet(psf, 1.2, 0.3), consts)[0][0]
    pair = t[:, :2]
    assert np.trace(pair @ pair.conj().T / 2.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "coord,rows", [("x1", (0, 2)), ("z1", (0, 3)), ("x2", (1, 4)), ("z2", (1, 5))]
)
def test_drho_action_row_placement(psf, coord, rows):
    # In the frame, d rho / d coord is (t_a t_b^H + t_b t_a^H)/2 with (a, b) the
    # source's state and derivative rows.  It has zero trace, and 2 Tr(rho drho)
    # is the derivative of the purity (1 + |gamma|^2)/2 along that coordinate.
    assert _DRHO_ROWS[coord] == rows and set(_DRHO_ROWS) == set(COORDINATES)
    jet = gaussian_overlap_jet(psf, 0.8, 1.1)
    t = factor_stack(jet, gaussian_constants(psf))[0][0]
    a, b = rows
    drho = (np.outer(t[:, a], t[:, b].conj()) + np.outer(t[:, b], t[:, a].conj())) / 2.0
    rho = (np.outer(t[:, 0], t[:, 0].conj()) + np.outer(t[:, 1], t[:, 1].conj())) / 2.0
    assert abs(np.trace(drho)) <= 1e-15
    sign = 1.0 if coord.endswith("2") else -1.0  # d/dx2 = d/ds, d/dx1 = -d/ds
    d_gamma = jet.d_s if coord.startswith("x") else jet.d_p
    want = sign * (jet.gamma.conjugate() * d_gamma).real / 2.0
    assert np.trace(rho @ drho) == pytest.approx(want, abs=1e-14)
