import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from srloc.errors import InvalidParameterError, NonFiniteSampleError
from srloc.psf import (
    GaussianPsf,
    SourceGeometry,
    fd_default_step,
    fd_overlap_jet,
    gaussian_constants,
    gaussian_overlap,
    gaussian_overlap_jet,
    small_separation_threshold,
)

# Hypothesis parameter ranges keep varsigma <= ~200 so exp() stays in range.
ks = st.floats(min_value=0.2, max_value=2.0)
zrs = st.floats(min_value=0.5, max_value=3.0)
seps = st.floats(min_value=-4.0, max_value=4.0)


def jet_array(jet):
    return np.array([jet.gamma, jet.d_s, jet.d_p, jet.d_ss, jet.d_pp, jet.d_sp])


# ---------------------------------------------------------------- geometry


def test_geometry_from_coordinates():
    geo = SourceGeometry.from_coordinates(x1=0.5, z1=-1.25, x2=2.5, z2=0.75)
    assert geo.s == 2.0
    assert geo.xbar == 1.5
    assert geo.p == 2.0
    assert geo.zbar == -0.25
    assert geo.to_coordinates() == (0.5, -1.25, 2.5, 0.75)


@given(
    x1=st.floats(min_value=-1e6, max_value=1e6),
    z1=st.floats(min_value=-1e6, max_value=1e6),
    x2=st.floats(min_value=-1e6, max_value=1e6),
    z2=st.floats(min_value=-1e6, max_value=1e6),
)
def test_geometry_round_trip(x1, z1, x2, z2):
    geo = SourceGeometry.from_coordinates(x1, z1, x2, z2)
    back = geo.to_coordinates()
    # reconstruction is algebraically exact; allow a couple of ulp of the
    # coordinate scale for the floating-point halving/recombination
    for got, want in zip(back, (x1, z1, x2, z2)):
        scale = max(1.0, abs(x1), abs(z1), abs(x2), abs(z2))
        assert abs(got - want) <= 1e-12 * scale


# ---------------------------------------------------------------- constants


def test_gaussian_constants_reference_values(psf):
    consts = gaussian_constants(psf)
    assert consts.dpsi_norm_sq == pytest.approx(0.25, abs=0)
    assert consts.mean_g == pytest.approx(0.75, abs=0)
    assert consts.mean_g2 == pytest.approx(0.625, abs=0)
    assert consts.g_variance == pytest.approx(0.0625, abs=1e-16)


def test_gaussian_constants_mean_g_cancellation():
    consts = gaussian_constants(GaussianPsf(k=1.0, z_r=0.5))
    assert consts.mean_g == 0.0


@given(k=ks, zr=zrs)
def test_gaussian_constants_variance_closed_form(k, zr):
    consts = gaussian_constants(GaussianPsf(k=k, z_r=zr))
    assert consts.g_variance == 1.0 / (4.0 * zr * zr)


@pytest.mark.parametrize("k,zr", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_gaussian_psf_rejects_nonpositive_parameters(k, zr):
    with pytest.raises(InvalidParameterError):
        GaussianPsf(k=k, z_r=zr)


def test_constants_validated():
    from srloc.psf import PsfConstants

    with pytest.raises(InvalidParameterError):
        PsfConstants(dpsi_norm_sq=0.0, mean_g=1.0, g_variance=1.0)
    with pytest.raises(InvalidParameterError):
        PsfConstants(dpsi_norm_sq=1.0, mean_g=2.0, g_variance=-1.0)


# ---------------------------------------------------------------- overlap


def test_overlap_at_origin_is_one(psf):
    assert gaussian_overlap(psf, 0.0, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)


def test_overlap_pure_angular(psf):
    value = gaussian_overlap(psf, 1.0, 0.0)
    assert value.real == pytest.approx(math.exp(-0.125), rel=1e-14)
    assert value.imag == pytest.approx(0.0, abs=1e-15)


def test_overlap_pure_axial_magnitude(psf):
    assert abs(gaussian_overlap(psf, 0.0, 2.0)) == pytest.approx(4.0 / math.sqrt(20.0), rel=1e-14)


@given(k=ks, zr=zrs, s=seps, p=seps)
def test_overlap_magnitude_bounded(k, zr, s, p):
    psf = GaussianPsf(k=k, z_r=zr)
    ag = abs(gaussian_overlap(psf, s, p))
    assert ag <= 1.0 + 1e-12
    if s * s + p * p > 1e-6:
        assert ag < 1.0


@given(k=ks, zr=zrs, s=seps, p=seps)
def test_overlap_modulus_identity(k, zr, s, p):
    # |gamma|^2 * (p^2 + 4 z_r^2) / (4 z_r^2) * exp(varsigma) == 1
    psf = GaussianPsf(k=k, z_r=zr)
    vs = 2.0 * k * s * s * zr / (p * p + 4.0 * zr * zr)
    assume(vs < 200.0)
    ag2 = abs(gaussian_overlap(psf, s, p)) ** 2
    product = ag2 * (p * p + 4.0 * zr * zr) / (4.0 * zr * zr) * math.exp(vs)
    assert product == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- analytic jet


def test_jet_gamma_matches_overlap(psf):
    jet = gaussian_overlap_jet(psf, 1.3, 0.7)
    assert jet.gamma == gaussian_overlap(psf, 1.3, 0.7)


def test_jet_even_in_s_at_origin(psf):
    assert gaussian_overlap_jet(psf, 0.0, 0.0).d_s == 0.0


def test_jet_first_angular_derivative_reference(psf):
    # p = 0 reduction: gamma = exp(-k s^2 / (4 z_r)), d_s = -(k s / (2 z_r)) gamma
    jet = gaussian_overlap_jet(psf, 1.0, 0.0)
    expected = -0.25 * math.exp(-0.125)
    assert jet.d_s.real == pytest.approx(expected, rel=1e-14)
    assert abs(jet.d_s.imag) < 1e-15


def test_jet_matches_finite_differences_on_grid(psf):
    worst = 0.0
    for s in np.linspace(0.1, 5.0, 10):
        for p in np.linspace(0.1, 5.0, 10):
            analytic = jet_array(gaussian_overlap_jet(psf, s, p))
            h = 1e-4 * max(1.0, s, p)
            fd = jet_array(fd_overlap_jet(lambda a, b: gaussian_overlap(psf, a, b), s, p, h))
            worst = max(worst, np.max(np.abs(fd - analytic)) / np.max(np.abs(analytic)))
    assert worst <= 1e-6


def test_jet_matches_finite_differences_default_step(psf):
    # the default 1e-5 step is roundoff-limited on second derivatives
    analytic = jet_array(gaussian_overlap_jet(psf, 1.0, 2.0))
    fd = jet_array(fd_overlap_jet(lambda a, b: gaussian_overlap(psf, a, b), 1.0, 2.0))
    assert np.max(np.abs(fd - analytic)) / np.max(np.abs(analytic)) <= 2e-5


# ------------------------------------------------------- derived quantities


def test_derived_axial_values_reference(psf):
    jet = gaussian_overlap_jet(psf, 0.0, 2.0)
    assert jet.abs_gamma == pytest.approx(4.0 / math.sqrt(20.0), rel=1e-14)
    assert jet.d_p_abs == pytest.approx(-0.08944271909999159, rel=1e-12)
    assert jet.d_p_phase == pytest.approx(-0.8, rel=1e-12)


@pytest.mark.parametrize("s,p", [(1.0, 1.995), (1.0, 2.01), (0.7, 3.3), (2.0, 0.4)])
def test_derived_quantities_match_finite_differences(psf, s, p):
    # the (1.0, ~2.0) points straddle the arg branch cut at -pi; the ratio
    # trick below gives a branch-safe phase difference to compare against
    jet = gaussian_overlap_jet(psf, s, p)
    h = 1e-6
    gp = gaussian_overlap(psf, s + h, p)
    gm = gaussian_overlap(psf, s - h, p)
    assert jet.d_s_abs == pytest.approx((abs(gp) - abs(gm)) / (2 * h), abs=1e-8)
    assert jet.d_s_phase == pytest.approx(cmath.phase(gp / gm) / (2 * h), abs=1e-8)
    gp = gaussian_overlap(psf, s, p + h)
    gm = gaussian_overlap(psf, s, p - h)
    assert jet.d_p_abs == pytest.approx((abs(gp) - abs(gm)) / (2 * h), abs=1e-8)
    assert jet.d_p_phase == pytest.approx(cmath.phase(gp / gm) / (2 * h), abs=1e-8)


def test_phase_is_continuous_across_branch_cut(psf):
    # principal arg jumps by ~2 pi between these points; d_p_phase must not
    phases = [gaussian_overlap_jet(psf, 1.0, p).d_p_phase for p in (1.99, 1.995, 2.0, 2.005)]
    assert max(phases) - min(phases) < 0.1


# ------------------------------------------------------------ fd adapter


def test_fd_jet_constant_function_has_zero_derivatives():
    jet = fd_overlap_jet(lambda s, p: 1.0 + 0.0j, 0.3, 0.7, 1e-4)
    assert jet.gamma == 1.0
    for value in (jet.d_s, jet.d_p, jet.d_ss, jet.d_pp, jet.d_sp):
        assert value == 0.0


def test_fd_jet_matches_analytic_jet(psf):
    h = 1e-4 * max(1.0, 1.0, 2.0)
    fd = jet_array(fd_overlap_jet(lambda s, p: gaussian_overlap(psf, s, p), 1.0, 2.0, h))
    analytic = jet_array(gaussian_overlap_jet(psf, 1.0, 2.0))
    assert np.max(np.abs(fd - analytic)) / np.max(np.abs(analytic)) <= 1e-6


def test_fd_jet_rejects_non_finite_samples():
    with pytest.raises(NonFiniteSampleError):
        fd_overlap_jet(lambda s, p: complex("nan"), 1.0, 1.0, 1e-5)

    def partial_nan(s, p):
        return complex("inf") if s > 1.0 else 1.0 + 0.0j

    with pytest.raises(NonFiniteSampleError):
        fd_overlap_jet(partial_nan, 1.0, 0.0, 1e-3)


def test_fd_jet_rejects_bad_step():
    with pytest.raises(InvalidParameterError):
        fd_overlap_jet(lambda s, p: 1.0 + 0.0j, 0.0, 0.0, 0.0)


def test_fd_default_step_scaling():
    assert fd_default_step(0.2, 0.3) == 1e-5
    assert fd_default_step(4.0, 1.0) == pytest.approx(4e-5, rel=1e-15)
    assert fd_default_step(0.0, -7.0) == pytest.approx(7e-5, rel=1e-15)


def test_small_separation_threshold():
    assert small_separation_threshold(1.0, 2.0) == 2e-6
    assert small_separation_threshold(0.1, 0.5) == pytest.approx(1e-5, rel=1e-15)  # 1/k dominates
