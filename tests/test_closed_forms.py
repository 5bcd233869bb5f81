import math

import numpy as np
import pytest

import srloc.closed_forms
from srloc.closed_forms import gaussian_matrices, general_matrices, small_separation_limit, varsigma
from srloc.errors import DegenerateOverlapError, InvalidParameterError, SmallSeparationError
from srloc.psf import (
    NATURAL,
    GaussianPsf,
    PsfConstants,
    gaussian_constants,
    gaussian_overlap_jet,
)
from srloc.routes import evaluate

from oracle import oracle, row_scaled_error


def scale_of(h):
    return np.sqrt(np.outer(np.diag(h), np.diag(h)))


# ---------------------------------------------------------------- varsigma


def test_varsigma_reference_values():
    assert varsigma(1.0, 2.0, 1.0, 0.0) == pytest.approx(0.25, abs=0)
    assert varsigma(1.0, 2.0, 1.0, 2.0) == pytest.approx(0.2, rel=1e-15)
    assert varsigma(3.0, 0.7, 0.0, 1.9) == 0.0


def test_varsigma_validates_parameters():
    with pytest.raises(InvalidParameterError):
        varsigma(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        GaussianPsf(k=1.0, z_r=-1.0)


# ------------------------------------------------------------ general form


def test_general_h_separation_entries_are_passthrough(psf):
    jet = gaussian_overlap_jet(psf, 1.0, 1.0)
    consts = PsfConstants(dpsi_norm_sq=0.7, g_variance=1.0)
    h, _ = general_matrices(jet, consts)
    assert h[0, 0] == 0.7
    assert h[2, 2] == 1.0


def test_general_h_axial_centroid_reference(psf, consts):
    # hand evaluation at (s=0, p=2): 20 * (0.0545 - 0.8 * 0.057) = 0.178
    h, _ = general_matrices(gaussian_overlap_jet(psf, 0.0, 2.0), consts)
    assert h[3, 3] == pytest.approx(0.178, abs=1e-12)
    assert h[1, 1] == pytest.approx(1.0, abs=1e-12)
    assert h[1, 3] == 0.0  # d|gamma|/ds and d(arg)/ds vanish at s = 0


def test_general_rejects_degenerate_overlap(psf, consts):
    with pytest.raises(DegenerateOverlapError):
        general_matrices(gaussian_overlap_jet(psf, 1e-9, 0.0), consts)
    with pytest.raises(DegenerateOverlapError):
        general_matrices(gaussian_overlap_jet(psf, 0.0, 1e-9), consts)


def test_general_gamma_zero_structure(psf, consts):
    _, g = general_matrices(gaussian_overlap_jet(psf, 1.0, 0.0), consts)
    # both mixed-magnitude/phase products vanish at p = 0
    assert g[0, 1] == 0.0
    assert g[2, 3] == 0.0
    assert np.array_equal(g, -g.T)
    assert np.all(np.diag(g) == 0.0)
    assert g[0, 2] == 0.0  # (s, p) entry never populated


def test_general_gamma_matches_explicit_forms(psf, consts):
    _, g = general_matrices(gaussian_overlap_jet(psf, 1.0, 2.0), consts)
    _, g_explicit = gaussian_matrices(psf, 1.0, 2.0)
    assert g[0, 1] != 0.0
    assert np.max(np.abs(g - g_explicit)) <= 1e-10


# ----------------------------------------------------------- Gaussian form


def test_gaussian_qfim_reference_point(psf):
    h, _ = gaussian_matrices(psf, 1.0, 0.0)
    assert h[0, 0] == 0.25
    assert h[2, 2] == 0.0625
    assert h[1, 1] == pytest.approx(0.805300, abs=1e-6)
    assert h[1, 1] == pytest.approx(0.8052998042321488, rel=1e-13)
    assert h[3, 3] == pytest.approx(0.23624682943676661, rel=1e-13)
    assert h[1, 3] == 0.0  # proportional to p


def test_gaussian_qfim_offdiag_reference_point(psf):
    h, _ = gaussian_matrices(psf, 1.0, 2.0)
    assert h[1, 1] == pytest.approx(0.8192656089453823, rel=1e-13)
    assert h[1, 3] == pytest.approx(-0.09127797008700612, rel=1e-13)
    assert h[3, 3] == pytest.approx(0.2011490730828441, rel=1e-13)


def test_gaussian_gamma_reference_points(psf):
    _, g0 = gaussian_matrices(psf, 1.0, 0.0)
    assert g0[0, 1] == 0.0 and g0[2, 3] == 0.0  # both proportional to p
    _, g = gaussian_matrices(psf, 1.0, 2.0)
    assert g[0, 1] == pytest.approx(-0.04973747056214069, rel=1e-12)
    assert g[2, 3] == pytest.approx(-0.01293174234615658, rel=1e-12)
    assert g[0, 3] == pytest.approx(-0.03887920189001531, rel=1e-12)
    assert g[1, 2] == pytest.approx(0.01334514220023242, rel=1e-12)
    assert np.array_equal(g, -g.T)


def test_gaussian_gamma_sp_identically_zero(psf):
    for s in np.linspace(0.1, 5.0, 7):
        for p in np.linspace(0.0, 5.0, 7):
            _, g = gaussian_matrices(psf, s, p)
            assert g[0, 2] == 0.0


def test_gaussian_forms_reject_small_s(psf):
    with pytest.raises(SmallSeparationError):
        gaussian_matrices(psf, 1e-7, 2.0)
    with pytest.raises(SmallSeparationError):
        gaussian_matrices(psf, 0.0, 2.0)


def test_h_ss_h_pp_constant_across_grid(psf):
    for s in np.linspace(0.1, 5.0, 6):
        for p in np.linspace(0.0, 5.0, 6):
            h, _ = gaussian_matrices(psf, s, p)
            assert h[0, 0] == psf.k / (2.0 * psf.z_r)
            assert h[2, 2] == 1.0 / (4.0 * psf.z_r ** 2)


def test_general_equals_gaussian_on_grid(psf, consts):
    worst = 0.0
    for s in np.linspace(0.1, 5.0, 8):
        for p in np.linspace(0.0, 5.0, 8):
            jet = gaussian_overlap_jet(psf, s, p)
            h1, g1 = general_matrices(jet, consts)
            h2, g2 = gaussian_matrices(psf, s, p)
            scale = scale_of(h2)
            worst = max(
                worst,
                float(np.max(np.abs(h1 - h2) / scale)),
                float(np.max(np.abs(g1 - g2) / scale)),
            )
    assert worst <= 1e-10


def test_p_zero_reduction_of_angular_centroid_entry(psf):
    # at p = 0 the centroid entry reduces to 4 N (1 - vs e^(-vs))
    n = psf.k / (2.0 * psf.z_r)
    for s in (0.3, 1.0, 2.4):
        vs = varsigma(psf.k, psf.z_r, s, 0.0)
        expected = 4.0 * n * (1.0 - vs * math.exp(-vs))
        assert gaussian_matrices(psf, s, 0.0)[0][1, 1] == pytest.approx(expected, rel=1e-12)


def test_reflection_symmetry_in_s_closed_forms(psf):
    j = np.diag([-1.0, -1.0, 1.0, 1.0])
    h_plus, g_plus = gaussian_matrices(psf, 1.3, 2.2)
    h_minus, g_minus = gaussian_matrices(psf, -1.3, 2.2)
    assert np.allclose(j @ h_plus @ j, h_minus, rtol=0, atol=1e-15)
    assert np.allclose(j @ g_plus @ j, g_minus, rtol=0, atol=1e-15)
    # the diagonal (and the even Gamma pairs) are plain even functions
    assert np.allclose(np.diag(h_plus), np.diag(h_minus), rtol=1e-15)
    assert g_plus[0, 1] == g_minus[0, 1]
    assert g_plus[2, 3] == g_minus[2, 3]


# ------------------------------------------------------------ array forms


def test_forms_broadcast_and_keep_scalar_shapes(psf, consts):
    s = np.array([0.5, 1.0, 2.5, 4.0])
    p = np.array([0.0, 2.0, 4.0, 1.5])
    jet = gaussian_overlap_jet(psf, s, p)
    stacks = [*gaussian_matrices(psf, s, p), *general_matrices(jet, consts)]
    assert all(m.shape == (4, 4, 4) for m in stacks)
    for i in range(len(s)):
        one = gaussian_overlap_jet(psf, float(s[i]), float(p[i]))
        for name in ("gamma", "d_s", "d_p", "d_ss", "d_pp", "d_sp"):
            value = getattr(one, name)
            assert isinstance(value, complex) and np.ndim(value) == 0
            assert value == getattr(jet, name)[i]
        singles = [*gaussian_matrices(psf, float(s[i]), float(p[i])),
                   *general_matrices(one, consts)]
        for single, stack in zip(singles, stacks):
            assert single.shape == (4, 4)
            assert single.tobytes() == stack[i].tobytes()


def test_array_forms_match_the_mpmath_oracle_on_the_certified_box(psf, consts):
    s, p = (a.ravel() for a in np.meshgrid(np.linspace(0.1, 5.0, 9), np.linspace(0.0, 5.0, 9)))
    # the phase of gamma crosses -pi between (1.0, 1.995) and (1.0, 2.01): the
    # general forms take its derivatives from d_s / gamma and d_p / gamma, which have
    # no branch cut
    s = np.append(s, [1.0, 1.0, 0.7, 2.0])
    p = np.append(p, [1.995, 2.01, 3.3, 0.4])
    forms = {
        "explicit": gaussian_matrices(psf, s, p),
        "general": general_matrices(gaussian_overlap_jet(psf, s, p), consts),
    }
    refs = [oracle(psf, a, b) for a, b in zip(s, p)]
    for name, (h, g) in forms.items():
        worst = max(row_scaled_error(h[i], g[i], *ref) for i, ref in enumerate(refs))
        assert worst <= 1e-12, name


def test_explicit_forms_match_the_mpmath_oracle_at_physical_scale():
    psf = GaussianPsf(k=1e3, z_r=1e3)
    h_ref, g_ref = oracle(psf, 1.0, 1e3)
    h, g = gaussian_matrices(psf, 1.0, 1e3)
    assert row_scaled_error(h, g, h_ref, g_ref) <= 1e-12


def test_general_h_pp_is_the_exact_generator_variance_at_physical_scale():
    # the generator's squared mean is 4e12 times its variance here; H_pp is the
    # stored variance, never a difference of moments
    psf = GaussianPsf(k=1e3, z_r=1e3)
    h, _ = general_matrices(gaussian_overlap_jet(psf, 1.0, 1e3), gaussian_constants(psf))
    assert h[2, 2] == 1.0 / (4.0 * psf.z_r ** 2)


# ------------------------------------------------------------------ limits


def test_limit_reference_values():
    h, g = small_separation_limit(GaussianPsf(k=1.0, z_r=2.0))
    assert np.array_equal(h, np.diag([0.25, 1.0, 0.0625, 0.25]))
    assert np.all(g == 0.0)
    h2, _ = small_separation_limit(GaussianPsf(k=2.0, z_r=1.0))
    assert np.array_equal(h2, np.diag([1.0, 4.0, 0.25, 1.0]))


def test_limit_consistency_with_closed_forms(psf):
    h_lim, _ = small_separation_limit(psf)
    h, g = gaussian_matrices(psf, 1e-3, 1e-3)
    assert np.max(np.abs(np.diag(h) - np.diag(h_lim)) / np.diag(h_lim)) <= 1e-3
    scale = scale_of(h_lim)
    assert abs(h[1, 3]) <= 1e-3 * scale[1, 3]
    assert np.max(np.abs(g) / scale) <= 1e-3


# ------------------------------------------------------------------ routing


def routed(psf, s, p):
    """(H, Gamma, route) of one point by the gaussian-closed method."""
    ev = evaluate(psf, [s], [p], "gaussian-closed")
    return ev.h[0], ev.gamma_mat[0], ev.route[0]


def test_routed_evaluation_selects_explicit_forms(psf):
    h, g, route = routed(psf, 1.0, 2.0)
    assert route == "gaussian-closed"
    assert np.array_equal(h, gaussian_matrices(psf, 1.0, 2.0)[0])


def test_routed_evaluation_reroutes_zero_s(psf):
    h, g, route = routed(psf, 0.0, 2.0)
    assert route == "general"
    jet = gaussian_overlap_jet(NATURAL, *psf.natural(0.0, 2.0))
    assert np.array_equal(h, general_matrices(jet, gaussian_constants(NATURAL))[0] * psf.scale)


def test_routed_evaluation_falls_back_to_limit(psf):
    h, g, route = routed(psf, 0.0, 0.0)
    assert route == "limit"
    assert np.array_equal(h, small_separation_limit(psf)[0])
    assert np.all(g == 0.0)
    # s below threshold, p small enough that 1/(1-|gamma|^2) degenerates
    _, _, route = routed(psf, 1e-7, 1e-5)
    assert route == "limit"


@pytest.mark.parametrize("method, s, shared", [
    ("gaussian-closed", [0.5, 1.0, 2.0], "_explicit_terms"),
    ("general", [0.5, 1.0, 2.0], "_overlap_factors"),
    ("gaussian-closed", [0.0, 1.0, 2.0], "_explicit_terms"),  # s = 0 is rerouted
    ("gaussian-closed", [0.0, 1.0, 2.0], "_overlap_factors"),
])
def test_one_block_builds_the_shared_terms_once(psf, monkeypatch, method, s, shared):
    # H and Gamma of a form come from one call, so one block builds its shared terms once
    true_fn = getattr(srloc.closed_forms, shared)
    seen = []

    def counted(*args):
        seen.append(1)
        return true_fn(*args)

    monkeypatch.setattr(srloc.closed_forms, shared, counted)
    ev = evaluate(psf, s, [2.0] * len(s), method)
    assert len(seen) == 1
    assert ev.route[1:] == (method, method)
