import math

import numpy as np
import pytest

from srloc.analysis import (
    EstimationBudget,
    compatibility_report,
    qcrb_subset,
    qcrb_total,
)
from srloc.closed_forms import gaussian_matrices, small_separation_limit
from srloc.errors import (
    InvalidParameterError,
    ModelValidityWarning,
    SingularMatrixError,
    SrlocError,
)

UNIT_BUDGET = EstimationBudget(nu=1.0, m=1.0, eps=1.0)


# ------------------------------------------------------------------ budget


def test_budget_requires_positive_fields():
    # the last two: every field is positive, but nu * m * eps underflows to 0 or overflows
    for bad in (dict(nu=0.0, m=1.0, eps=1.0), dict(nu=1.0, m=-2.0, eps=1.0),
                dict(nu=1.0, m=1.0, eps=0.0), dict(nu=1e-200, m=1e-200, eps=0.5),
                dict(nu=1e200, m=1e200, eps=0.5)):
        with pytest.raises(InvalidParameterError):
            EstimationBudget(**bad)


def test_budget_warns_on_strong_sources():
    with pytest.warns(ModelValidityWarning) as record:
        EstimationBudget(nu=1.0, m=1.0, eps=1.5)
    assert record[0].filename == __file__


def test_budget_total():
    assert EstimationBudget(nu=1000.0, m=2.0, eps=0.01).total_photons == pytest.approx(20.0)


# -------------------------------------------------------------------- qcrb


def test_qcrb_identity():
    assert qcrb_total(np.eye(4), UNIT_BUDGET) == 4.0


def test_qcrb_limit_matrix():
    h = np.diag([0.25, 1.0, 0.0625, 0.25])
    budget = EstimationBudget(nu=1000.0, m=1.0, eps=1.0)
    assert qcrb_total(h, budget) == pytest.approx(0.025, rel=1e-14)
    assert np.trace(np.linalg.inv(h)) == pytest.approx(25.0, abs=1e-12)


def test_qcrb_singular_matrix():
    with pytest.raises(SingularMatrixError):
        qcrb_total(np.diag([1.0, 1.0, 1.0, 0.0]), UNIT_BUDGET)


def test_qcrb_rejects_non_finite_h():
    for bad in (math.nan, math.inf, -math.inf):
        h = np.eye(4)
        h[1, 2] = h[2, 1] = bad
        with pytest.raises(InvalidParameterError, match="non-finite"):
            qcrb_total(h, UNIT_BUDGET)
        with pytest.raises(InvalidParameterError, match="non-finite"):
            qcrb_subset(h, ("xbar", "p"), UNIT_BUDGET)
        assert qcrb_subset(h, ("s", "zbar"), UNIT_BUDGET) == 2.0  # the bad entries unused
    with pytest.raises(InvalidParameterError, match="non-finite"):
        qcrb_total(np.full((4, 4), math.nan), UNIT_BUDGET)


def test_qcrb_budget_scaling_is_exact():
    h = np.diag([0.25, 1.0, 0.0625, 0.25])
    one = qcrb_total(h, EstimationBudget(nu=1000.0, m=1.0, eps=1.0))
    two = qcrb_total(h, EstimationBudget(nu=2000.0, m=1.0, eps=1.0))
    assert two == one / 2.0
    assert qcrb_total(h, EstimationBudget(nu=1000.0, m=2.0, eps=1.0)) == one / 2.0
    half_eps = qcrb_total(h, EstimationBudget(nu=1000.0, m=1.0, eps=0.5))
    assert qcrb_total(h, EstimationBudget(nu=1000.0, m=1.0, eps=1.0)) == half_eps / 2.0


def test_qcrb_raises_where_the_bound_overflows():
    h = np.diag([1e-300, 2e-300, 1e-300, 1e-300])  # well conditioned, Tr(H^-1) = 3.5e300
    budget = EstimationBudget(nu=1.0, m=1e-10, eps=1.0)
    for bound in (lambda: qcrb_total(h, budget), lambda: qcrb_subset(h, ("s", "p"), budget)):
        with pytest.raises(SrlocError, match="overflows"):
            bound()


def test_qcrb_accepts_qfim_result(psf):
    from srloc import evaluate

    result = evaluate(psf, [1.0], [2.0], "pipeline")
    assert qcrb_total(result, UNIT_BUDGET) == qcrb_total(result.h, UNIT_BUDGET)


def test_qcrb_subset_separations_is_constant(psf):
    # H restricted to (s, p) is diag(k/2zr, 1/4zr^2) with zero cross term,
    # so the subset bound is (2 zr / k + 4 zr^2) / (nu m eps) everywhere
    expected = 2.0 * psf.z_r / psf.k + 4.0 * psf.z_r ** 2
    assert expected == 20.0
    for s, p in [(0.2, 0.0), (1.0, 2.0), (4.0, 4.5)]:
        h, _ = gaussian_matrices(psf, s, p)
        assert qcrb_subset(h, ("s", "p"), UNIT_BUDGET) == pytest.approx(20.0, rel=1e-12)
    budget = EstimationBudget(nu=10.0, m=5.0, eps=0.04)
    h, _ = gaussian_matrices(psf, 1.0, 1.0)
    assert qcrb_subset(h, ("s", "p"), budget) == pytest.approx(10.0, rel=1e-12)


def test_qcrb_subset_full_set_equals_total(psf):
    h, _ = gaussian_matrices(psf, 1.0, 2.0)
    assert qcrb_subset(h, ("s", "xbar", "p", "zbar"), UNIT_BUDGET) == pytest.approx(
        qcrb_total(h, UNIT_BUDGET), rel=1e-14
    )


def test_qcrb_subset_single_parameter():
    h = np.diag([0.25, 1.0, 0.0625, 0.25])
    assert qcrb_subset(h, ("s",), UNIT_BUDGET) == 4.0
    assert qcrb_subset(h, (0,), UNIT_BUDGET) == 4.0


def test_qcrb_subset_validates_input():
    h = np.eye(4)
    with pytest.raises(InvalidParameterError):
        qcrb_subset(h, ("not_a_parameter",), UNIT_BUDGET)
    with pytest.raises(InvalidParameterError):
        qcrb_subset(h, (), UNIT_BUDGET)
    with pytest.raises(InvalidParameterError):
        qcrb_subset(h, ("s", "s"), UNIT_BUDGET)
    for bad in ([4], [-1], [-1, 3], [True], ["s", 0]):
        with pytest.raises(InvalidParameterError):
            qcrb_subset(h, bad, UNIT_BUDGET)


# ----------------------------------------------------------- compatibility


def test_fully_compatible_for_diagonal_h_zero_gamma():
    report = compatibility_report(np.diag([1.0, 2.0, 3.0, 4.0]), np.zeros((4, 4)))
    assert report.fully_compatible
    assert report.sp_pair_compatible
    assert all(p.compatible for p in report.pairs.values())
    assert len(report.pairs) == 6


def test_limit_matrices_are_fully_compatible(psf):
    h, g = small_separation_limit(psf)
    assert compatibility_report(h, g).fully_compatible


def test_reference_point_pair_flags(psf):
    report = compatibility_report(*gaussian_matrices(psf, 1.0, 2.0))
    assert report.sp_pair_compatible
    assert report.pairs[("s", "p")].measurement_compatible
    assert report.pairs[("s", "p")].statistically_independent
    # nonzero Gamma_{s,xbar} at p != 0 breaks joint measurability there
    assert not report.pairs[("s", "xbar")].measurement_compatible
    assert not report.fully_compatible


def test_compatibility_respects_tolerance():
    h = np.diag([1.0, 1.0, 1.0, 1.0])
    g = np.zeros((4, 4))
    g[0, 1], g[1, 0] = 1e-6, -1e-6
    assert not compatibility_report(h, g, tol=1e-8).pairs[("s", "xbar")].measurement_compatible
    assert compatibility_report(h, g, tol=1e-3).pairs[("s", "xbar")].measurement_compatible
