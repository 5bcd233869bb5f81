import math

import numpy as np
import pytest

from srloc.closed_forms import (
    evaluate_gaussian_closed,
    gaussian_gamma_matrix,
    gaussian_qfim,
    general_gamma_matrix,
    general_qfim,
    small_separation_limit,
    varsigma,
)
from srloc.errors import DegenerateOverlapError, InvalidParameterError, SmallSeparationError
from srloc.psf import GaussianPsf, PsfConstants, gaussian_overlap_jet


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
    consts = PsfConstants(dpsi_norm_sq=0.7, mean_g=1.0, mean_g2=2.0)
    h = general_qfim(jet, consts)
    assert h[0, 0] == 0.7
    assert h[2, 2] == 1.0  # variance 2 - 1


def test_general_h_axial_centroid_reference(psf, consts):
    # hand evaluation at (s=0, p=2): 20 * (0.0545 - 0.8 * 0.057) = 0.178
    h = general_qfim(gaussian_overlap_jet(psf, 0.0, 2.0), consts)
    assert h[3, 3] == pytest.approx(0.178, abs=1e-12)
    assert h[1, 1] == pytest.approx(1.0, abs=1e-12)
    assert h[1, 3] == 0.0  # d|gamma|/ds and d(arg)/ds vanish at s = 0


def test_general_rejects_degenerate_overlap(psf, consts):
    with pytest.raises(DegenerateOverlapError):
        general_qfim(gaussian_overlap_jet(psf, 1e-9, 0.0), consts)
    with pytest.raises(DegenerateOverlapError):
        general_gamma_matrix(gaussian_overlap_jet(psf, 0.0, 1e-9), consts)


def test_general_gamma_zero_structure(psf, consts):
    g = general_gamma_matrix(gaussian_overlap_jet(psf, 1.0, 0.0), consts)
    # both mixed-magnitude/phase products vanish at p = 0
    assert g[0, 1] == 0.0
    assert g[2, 3] == 0.0
    assert np.array_equal(g, -g.T)
    assert np.all(np.diag(g) == 0.0)
    assert g[0, 2] == 0.0  # (s, p) entry never populated


def test_general_gamma_matches_explicit_forms(psf, consts):
    g = general_gamma_matrix(gaussian_overlap_jet(psf, 1.0, 2.0), consts)
    g_explicit = gaussian_gamma_matrix(psf, 1.0, 2.0)
    assert g[0, 1] != 0.0
    assert np.max(np.abs(g - g_explicit)) <= 1e-10


# ----------------------------------------------------------- Gaussian form


def test_gaussian_qfim_reference_point(psf):
    h = gaussian_qfim(psf, 1.0, 0.0)
    assert h[0, 0] == 0.25
    assert h[2, 2] == 0.0625
    assert h[1, 1] == pytest.approx(0.805300, abs=1e-6)
    assert h[1, 1] == pytest.approx(0.8052998042321488, rel=1e-13)
    assert h[3, 3] == pytest.approx(0.23624682943676661, rel=1e-13)
    assert h[1, 3] == 0.0  # proportional to p


def test_gaussian_qfim_offdiag_reference_point(psf):
    h = gaussian_qfim(psf, 1.0, 2.0)
    assert h[1, 1] == pytest.approx(0.8192656089453823, rel=1e-13)
    assert h[1, 3] == pytest.approx(-0.09127797008700612, rel=1e-13)
    assert h[3, 3] == pytest.approx(0.2011490730828441, rel=1e-13)


def test_gaussian_gamma_reference_points(psf):
    g0 = gaussian_gamma_matrix(psf, 1.0, 0.0)
    assert g0[0, 1] == 0.0 and g0[2, 3] == 0.0  # both proportional to p
    g = gaussian_gamma_matrix(psf, 1.0, 2.0)
    assert g[0, 1] == pytest.approx(-0.04973747056214069, rel=1e-12)
    assert g[2, 3] == pytest.approx(-0.01293174234615658, rel=1e-12)
    assert g[0, 3] == pytest.approx(-0.03887920189001531, rel=1e-12)
    assert g[1, 2] == pytest.approx(0.01334514220023242, rel=1e-12)
    assert np.array_equal(g, -g.T)


def test_gaussian_gamma_sp_identically_zero(psf):
    for s in np.linspace(0.1, 5.0, 7):
        for p in np.linspace(0.0, 5.0, 7):
            g = gaussian_gamma_matrix(psf, s, p)
            assert g[0, 2] == 0.0


def test_gaussian_forms_reject_small_s(psf):
    with pytest.raises(SmallSeparationError):
        gaussian_qfim(psf, 1e-7, 2.0)
    with pytest.raises(SmallSeparationError):
        gaussian_gamma_matrix(psf, 0.0, 2.0)


def test_h_ss_h_pp_constant_across_grid(psf):
    for s in np.linspace(0.1, 5.0, 6):
        for p in np.linspace(0.0, 5.0, 6):
            h = gaussian_qfim(psf, s, p)
            assert h[0, 0] == psf.k / (2.0 * psf.z_r)
            assert h[2, 2] == 1.0 / (4.0 * psf.z_r ** 2)


def test_general_equals_gaussian_on_grid(psf, consts):
    worst = 0.0
    for s in np.linspace(0.1, 5.0, 8):
        for p in np.linspace(0.0, 5.0, 8):
            jet = gaussian_overlap_jet(psf, s, p)
            h1, h2 = general_qfim(jet, consts), gaussian_qfim(psf, s, p)
            g1, g2 = general_gamma_matrix(jet, consts), gaussian_gamma_matrix(psf, s, p)
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
        assert gaussian_qfim(psf, s, 0.0)[1, 1] == pytest.approx(expected, rel=1e-12)


def test_reflection_symmetry_in_s_closed_forms(psf):
    j = np.diag([-1.0, -1.0, 1.0, 1.0])
    h_plus = gaussian_qfim(psf, 1.3, 2.2)
    h_minus = gaussian_qfim(psf, -1.3, 2.2)
    assert np.allclose(j @ h_plus @ j, h_minus, rtol=0, atol=1e-15)
    g_plus = gaussian_gamma_matrix(psf, 1.3, 2.2)
    g_minus = gaussian_gamma_matrix(psf, -1.3, 2.2)
    assert np.allclose(j @ g_plus @ j, g_minus, rtol=0, atol=1e-15)
    # the diagonal (and the even Gamma pairs) are plain even functions
    assert np.allclose(np.diag(h_plus), np.diag(h_minus), rtol=1e-15)
    assert g_plus[0, 1] == g_minus[0, 1]
    assert g_plus[2, 3] == g_minus[2, 3]


# ------------------------------------------------------------------ limits


def test_limit_reference_values():
    h, g = small_separation_limit(GaussianPsf(k=1.0, z_r=2.0))
    assert np.array_equal(h, np.diag([0.25, 1.0, 0.0625, 0.25]))
    assert np.all(g == 0.0)
    h2, _ = small_separation_limit(GaussianPsf(k=2.0, z_r=1.0))
    assert np.array_equal(h2, np.diag([1.0, 4.0, 0.25, 1.0]))


def test_limit_consistency_with_closed_forms(psf):
    h_lim, _ = small_separation_limit(psf)
    h = gaussian_qfim(psf, 1e-3, 1e-3)
    g = gaussian_gamma_matrix(psf, 1e-3, 1e-3)
    assert np.max(np.abs(np.diag(h) - np.diag(h_lim)) / np.diag(h_lim)) <= 1e-3
    scale = scale_of(h_lim)
    assert abs(h[1, 3]) <= 1e-3 * scale[1, 3]
    assert np.max(np.abs(g) / scale) <= 1e-3


# ------------------------------------------------------------------ routing


def test_routed_evaluation_selects_explicit_forms(psf):
    h, g, route = evaluate_gaussian_closed(psf, 1.0, 2.0)
    assert route == "gaussian-closed"
    assert np.array_equal(h, gaussian_qfim(psf, 1.0, 2.0))


def test_routed_evaluation_reroutes_zero_s(psf, consts):
    h, g, route = evaluate_gaussian_closed(psf, 0.0, 2.0)
    assert route == "general"
    jet = gaussian_overlap_jet(psf, 0.0, 2.0)
    assert np.array_equal(h, general_qfim(jet, consts))


def test_routed_evaluation_falls_back_to_limit(psf):
    h, g, route = evaluate_gaussian_closed(psf, 0.0, 0.0)
    assert route == "limit"
    assert np.array_equal(h, small_separation_limit(psf)[0])
    assert np.all(g == 0.0)
    # s below threshold, p small enough that 1/(1-|gamma|^2) degenerates
    _, _, route = evaluate_gaussian_closed(psf, 1e-7, 1e-5)
    assert route == "limit"
