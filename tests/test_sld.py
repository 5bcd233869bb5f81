import math
import warnings

import numpy as np
import pytest

import srloc.sld
from srloc.closed_forms import evaluate_gaussian_closed
from srloc.errors import (
    CutoffDegeneracyWarning,
    DegenerateBasisError,
    InvalidParameterError,
    SmallSeparationError,
    SrlocError,
)
from srloc.gram import COORDINATES, build_gram_stack
from srloc.psf import SourceGeometry, gaussian_overlap_jet
from srloc.sld import (
    _TO_PHYSICAL,
    PARAMETERS,
    _eigenframe_sld,
    gaussian_pipeline,
    gaussian_pipeline_stack,
    orthonormalize,
)

from oracle import oracle, row_scaled_error


def gram_stack(psf, consts, s, p):
    return build_gram_stack(gaussian_overlap_jet(psf, s, p), consts)[0]


# --------------------------------------------------------- orthonormalize


def test_orthonormalize_identity():
    assert np.array_equal(orthonormalize(np.eye(4)), np.eye(4))


def test_orthonormalize_two_by_two():
    s_mat = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    t = orthonormalize(s_mat)
    assert t == pytest.approx(np.array([[1.0, 0.5], [0.0, math.sqrt(0.75)]]))
    assert t.conj().T @ t == pytest.approx(s_mat)


def test_orthonormalize_factor_property(psf, consts):
    s_mat = gram_stack(psf, consts, 0.6, 1.7)[0]
    t = orthonormalize(s_mat)
    assert np.allclose(t.conj().T @ t, s_mat, atol=1e-14)
    assert np.allclose(t, np.triu(t))


def test_orthonormalize_restores_plain_hermiticity(psf, consts):
    # in the frame the Gram matrix is the identity, so the adjoint of an
    # operator is its plain conjugate transpose; a stack gives each factor
    s_mat = gram_stack(psf, consts, [1.0, 0.4, 2.5], [0.0, 3.0, 1.0])
    t = orthonormalize(s_mat)
    assert t.shape == s_mat.shape
    for s_i, t_i in zip(s_mat, t):
        t_inv = np.linalg.inv(t_i)
        assert np.allclose(t_inv.conj().T @ s_i @ t_inv, np.eye(6), rtol=0, atol=1e-12)


def test_orthonormalize_rejects_indefinite():
    with pytest.raises(DegenerateBasisError):
        orthonormalize(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex))


# -------------------------------------------------------------- SLD solve
# The solve runs in the eigenbasis of rho: _eigenframe_sld takes the
# eigenvalues q and drho in that basis.


def test_solve_sld_orthonormal_diagonal_case():
    l_e, shaky = _eigenframe_sld(np.array([0.5, 0.5]), np.diag([1.0, -1.0]).astype(complex))
    assert l_e == pytest.approx(np.diag([2.0, -2.0]), abs=1e-14)
    assert shaky == 0


def test_solve_sld_pure_state_case():
    # rank-one rho; drho from a normalized pure-state family, for which the
    # support-restricted solution coincides with 2*drho
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    dpsi = np.array([0.3j, 0.5, -0.2j], dtype=complex)  # <psi|dpsi> imaginary
    drho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
    l_e, _ = _eigenframe_sld(np.array([1.0, 0.0, 0.0]), drho)
    assert l_e == pytest.approx(2.0 * drho, abs=1e-12)


def random_state_and_derivative(rank, dim, seed):
    """A rank-deficient state and a Hermitian derivative, in a generic basis."""
    rng = np.random.default_rng(seed)
    v = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    q = np.zeros(dim)
    q[:rank] = rng.dirichlet(np.ones(rank))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return v @ np.diag(q) @ v.conj().T, (a + a.conj().T) / 2.0


def test_solve_sld_equation_residual_on_support():
    rho, drho = random_state_and_derivative(2, 6, seed=7)
    q, u = np.linalg.eigh(rho)
    l_e, _ = _eigenframe_sld(q, u.conj().T @ drho @ u)
    sld = u @ l_e @ u.conj().T
    residual = u.conj().T @ (sld @ rho + rho @ sld - 2.0 * drho) @ u
    support = q > 1e-12
    residual[np.ix_(~support, ~support)] = 0.0  # no SLD reaches the kernel block
    assert np.max(np.abs(residual)) <= 1e-12


def test_solve_sld_represents_hermitian_operator():
    rho, drho = random_state_and_derivative(2, 6, seed=11)
    q, u = np.linalg.eigh(rho)
    l_e, _ = _eigenframe_sld(q, u.conj().T @ drho @ u)
    assert np.max(np.abs(l_e - l_e.conj().T)) <= 1e-12


def test_solve_sld_warns_near_cutoff(psf, monkeypatch):
    # the eigenvalue sum 6e-12 lies within a decade of the 1e-12 cutoff
    q = np.array([1.0 - 3e-12, 3e-12])
    _, shaky = _eigenframe_sld(q, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert shaky == 1
    # at s = 0.1, p = 0 the small eigenvalue of rho is 6e-4, within a decade of 1e-4
    monkeypatch.setattr(srloc.sld, "SUPPORT_CUTOFF", 1e-4)
    with pytest.warns(CutoffDegeneracyWarning, match=r"first \(s=0\.1, p=0\.0\)") as caught:
        gaussian_pipeline(psf, 0.1, 0.0)
    assert caught[0].filename == __file__  # attributed to the caller, not to srloc


# ----------------------------------------------------- coordinate to physical


def rotate(l_x1, l_x2, l_z1, l_z2):
    """Physical SLDs (s, xbar, p, zbar) from coordinate SLDs, as the pipeline
    maps them."""
    coord = {"x1": l_x1, "x2": l_x2, "z1": l_z1, "z2": l_z2}
    stack = np.array([coord[c] for c in COORDINATES], dtype=complex)
    return np.einsum("pc,cij->pij", _TO_PHYSICAL, stack)


def test_rotate_symmetric_input():
    a = np.array([[1.0, 2.0], [2.0, 3.0]])
    zero = np.zeros((2, 2))
    l_s, l_xbar, _, _ = rotate(a, a, zero, zero)
    assert np.all(l_s == 0.0)
    assert np.array_equal(l_xbar, 2.0 * a)


def test_rotate_antisymmetric_input():
    a = np.array([[1.0, 0.5], [0.5, -1.0]])
    zero = np.zeros((2, 2))
    l_s, l_xbar, _, _ = rotate(-a, a, zero, zero)
    assert np.array_equal(l_s, a)
    assert np.all(l_xbar == 0.0)


def test_rotate_axial_block_and_linearity():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([[2.0, 0.0], [0.0, -2.0]])
    zero = np.zeros((2, 2))
    _, _, l_p, l_zbar = rotate(zero, zero, a, b)
    assert np.array_equal(l_p, 0.5 * (b - a))
    assert np.array_equal(l_zbar, a + b)
    scaled = rotate(zero, zero, 3.0 * a, 3.0 * b)
    assert np.array_equal(scaled[2], 3.0 * l_p)
    assert np.array_equal(scaled[3], 3.0 * l_zbar)


# ------------------------------------------------------------ H and Gamma


def pipeline_matrices(psf, s, p):
    result = gaussian_pipeline(psf, s, p)
    return result.h, result.gamma_mat, result


def test_gamma_diagonal_vanishes(psf):
    _, g, _ = pipeline_matrices(psf, 1.3, 0.8)
    assert np.all(np.diag(g) == 0.0)


def test_h_ss_constant_reference(psf):
    h, _, _ = pipeline_matrices(psf, 1.0, 0.0)
    assert h[0, 0] == pytest.approx(0.25, abs=1e-8)
    assert h[2, 2] == pytest.approx(0.0625, abs=1e-8)


def test_pipeline_matches_closed_forms_at_reference_point(psf):
    h, g, _ = pipeline_matrices(psf, 1.0, 2.0)
    h_closed, g_closed, route = evaluate_gaussian_closed(psf, 1.0, 2.0)
    assert route == "gaussian-closed"
    scale = np.sqrt(np.outer(np.diag(h_closed), np.diag(h_closed)))
    assert np.max(np.abs(h - h_closed) / scale) <= 1e-8
    assert np.max(np.abs(g - g_closed) / scale) <= 1e-8


def test_h_symmetric_psd_gamma_antisymmetric(psf):
    for s, p in [(0.3, 0.3), (2.0, 1.0), (4.5, 4.5)]:
        h, g, _ = pipeline_matrices(psf, s, p)
        assert np.array_equal(h, h.T)
        assert np.array_equal(g, -g.T)
        assert np.min(np.linalg.eigvalsh(h)) >= -1e-12


def test_sparsity_pattern(psf):
    for s, p in [(0.5, 1.5), (2.5, 0.7)]:
        h, g, _ = pipeline_matrices(psf, s, p)
        scale = np.sqrt(np.outer(np.diag(h), np.diag(h)))
        for i, j in [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]:
            assert abs(h[i, j]) <= 1e-10 * scale[i, j]
        assert abs(g[0, 2]) <= 1e-10 * scale[0, 2]  # (s, p) always compatible


def test_rho_eigenvalues_reference(psf):
    _, _, result = pipeline_matrices(psf, 1.0, 0.0)
    eigs = result.rho_eigenvalues
    ag = math.exp(-0.125)
    assert eigs[0] == pytest.approx(0.5 * (1.0 + ag), abs=1e-10)
    assert eigs[1] == pytest.approx(0.5 * (1.0 - ag), abs=1e-10)
    assert np.max(np.abs(eigs[2:])) <= 1e-10
    assert eigs[0] == pytest.approx(0.941249, abs=1e-6)
    assert eigs[1] == pytest.approx(0.058751, abs=1e-6)


def test_rho_eigenvalue_pattern_generic(psf):
    result = gaussian_pipeline(psf, 0.8, 2.6)
    ag = gaussian_overlap_jet(psf, 0.8, 2.6).abs_gamma
    assert result.rho_eigenvalues[0] == pytest.approx(0.5 * (1.0 + ag), abs=1e-10)
    assert result.rho_eigenvalues[1] == pytest.approx(0.5 * (1.0 - ag), abs=1e-10)


def test_reflection_symmetry_in_s(psf):
    # x -> -x maps (s, xbar) -> (-s, -xbar): entries conjugate by J
    j = np.diag([-1.0, -1.0, 1.0, 1.0])
    h_plus, g_plus, _ = pipeline_matrices(psf, 1.0, 2.0)
    h_minus, g_minus, _ = pipeline_matrices(psf, -1.0, 2.0)
    assert np.array_equal(j @ h_plus @ j, h_minus)
    assert np.array_equal(j @ g_plus @ j, g_minus)


def test_centroid_invariance_bit_identical(psf):
    g1 = SourceGeometry.from_coordinates(1.0, 4.1, 2.0, 6.1)
    g2 = SourceGeometry.from_coordinates(1.0 + 7.3, 4.1 - 2.1, 2.0 + 7.3, 6.1 - 2.1)
    r1 = gaussian_pipeline(psf, g1.s, g1.p)
    r2 = gaussian_pipeline(psf, g2.s, g2.p)
    assert r1.h.tobytes() == r2.h.tobytes()
    assert r1.gamma_mat.tobytes() == r2.gamma_mat.tobytes()


def test_pipeline_refuses_tiny_separations(psf):
    with pytest.raises(SmallSeparationError):
        gaussian_pipeline(psf, 1e-7, 1e-7)


def test_compute_qfim_parameter_order():
    assert PARAMETERS == ("s", "xbar", "p", "zbar")


# --------------------------------------------------------- stacked pipeline


STACK_S = [0.1, 0.5, 1.0, 2.5, 4.9, 3.0, 0.3]
STACK_P = [0.1, 2.0, 0.0, 1.5, 4.9, 0.2, 4.0]


def test_stack_matches_the_mpmath_oracle(psf):
    box_s, box_p = (a.ravel() for a in np.meshgrid(np.linspace(0.1, 5.0, 9),
                                                   np.linspace(0.0, 5.0, 9)))
    for s, p in ((STACK_S, STACK_P), (box_s, box_p)):
        stack = gaussian_pipeline_stack(psf, s, p)
        assert not stack.failed.any() and not stack.limit.any() and stack.error is None
        worst = max(row_scaled_error(stack.h[i], stack.gamma_mat[i], *oracle(psf, a, b))
                    for i, (a, b) in enumerate(zip(s, p)))
        assert worst <= 1e-12


def test_stack_point_bits_independent_of_stack(psf, monkeypatch):
    s = np.linspace(0.1, 4.9, 25)
    p = np.linspace(4.0, 0.2, 25)
    full = gaussian_pipeline_stack(psf, s, p)
    for i in (0, 7, 24):
        alone = gaussian_pipeline_stack(psf, [s[i]], [p[i]])
        single = gaussian_pipeline(psf, float(s[i]), float(p[i]))
        for name in ("h", "gamma_mat", "rho_eigenvalues"):
            assert getattr(alone, name)[0].tobytes() == getattr(full, name)[i].tobytes()
        assert single.h.tobytes() == full.h[i].tobytes()
        assert single.gamma_mat.tobytes() == full.gamma_mat[i].tobytes()
        assert single.rho_eigenvalues.tobytes() == full.rho_eigenvalues[i].tobytes()
    monkeypatch.setattr(srloc.sld, "BLOCK_POINTS", 4)
    blocked = gaussian_pipeline_stack(psf, s, p)
    assert blocked.h.tobytes() == full.h.tobytes()
    assert blocked.gamma_mat.tobytes() == full.gamma_mat.tobytes()


def test_stack_fails_only_the_point_whose_jet_overflows(psf):
    # no numpy warning escapes (pytest turns RuntimeWarning into an error)
    stack = gaussian_pipeline_stack(psf, [1.0, 1e200], [0.0, 0.0])
    assert stack.failed.tolist() == [False, True]
    assert isinstance(stack.error, DegenerateBasisError)
    assert "(s=1e+200, p=0.0)" in str(stack.error) and "not finite" in str(stack.error)
    assert np.all(np.isnan(stack.h[1]))
    alone = gaussian_pipeline_stack(psf, [1.0], [0.0])
    for name in ("h", "gamma_mat", "rho_eigenvalues"):
        assert getattr(alone, name)[0].tobytes() == getattr(stack, name)[0].tobytes()
    with pytest.raises(DegenerateBasisError, match=r"\(s=1e\+200, p=0\.0\)"):
        gaussian_pipeline(psf, 1e200, 0.0)


def test_stack_reports_failures_per_point(psf):
    s = [1.0, 0.0, 0.01, 2.0, 0.02]
    p = [1.0, 0.0, 0.0, 0.5, 0.0]
    stack = gaussian_pipeline_stack(psf, s, p)
    assert stack.limit.tolist() == [False, True, False, False, False]
    assert stack.failed.tolist() == [False, False, True, False, True]
    assert isinstance(stack.error, DegenerateBasisError)
    assert "(s=0.01, p=0.0)" in str(stack.error)
    assert np.all(np.isnan(stack.h[[1, 2, 4]]))
    assert stack.h[3].tobytes() == gaussian_pipeline(psf, 2.0, 0.5).h.tobytes()
    with pytest.raises(DegenerateBasisError, match=r"\(s=0\.01, p=0\.0\)"):
        gaussian_pipeline(psf, 0.01, 0.0)


def test_stack_isolates_cholesky_failure(psf, monkeypatch):
    victim = gaussian_overlap_jet(psf, 2.0, 1.0).gamma
    factor = srloc.sld.orthonormalize

    def refuse_victim(gram):
        if np.any(np.asarray(gram)[..., 0, 1] == victim):
            raise DegenerateBasisError("Gram matrix is not positive definite")
        return factor(gram)

    monkeypatch.setattr(srloc.sld, "orthonormalize", refuse_victim)
    stack = gaussian_pipeline_stack(psf, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    assert stack.failed.tolist() == [False, True, False]
    assert isinstance(stack.error, DegenerateBasisError)
    assert "(s=2.0, p=1.0)" in str(stack.error)
    monkeypatch.undo()
    assert stack.h[2].tobytes() == gaussian_pipeline(psf, 3.0, 1.0).h.tobytes()


def test_stack_asymmetry_limit_names_first_point(psf, monkeypatch):
    monkeypatch.setattr(srloc.sld, "_ASYMMETRY_LIMIT", 0.0)
    stack = gaussian_pipeline_stack(psf, [0.0, 1.5, 2.0], [0.0, 0.5, 1.0])
    assert stack.failed.tolist() == [False, True, True]
    assert type(stack.error) is SrlocError
    assert "asymmetry" in str(stack.error) and "(s=1.5, p=0.5)" in str(stack.error)
    with pytest.raises(SrlocError, match="asymmetry"):
        gaussian_pipeline(psf, 1.5, 0.5)


def test_stack_warns_on_cutoff_marginal_point(psf, monkeypatch):
    # at s = 0.1, p = 0 the small eigenvalue of rho is 6e-4, within a decade of 1e-4
    monkeypatch.setattr(srloc.sld, "SUPPORT_CUTOFF", 1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CutoffDegeneracyWarning)
        gaussian_pipeline_stack(psf, [3.0, 4.0], [0.0, 0.0])
    with pytest.warns(CutoffDegeneracyWarning, match=r"1 point\(s\), first \(s=0\.1, p=0\.0\)"):
        gaussian_pipeline_stack(psf, [3.0, 0.1, 4.0], [0.0, 0.0, 0.0])


def test_stack_rejects_mismatched_coordinates(psf):
    with pytest.raises(InvalidParameterError):
        gaussian_pipeline_stack(psf, [1.0, 2.0], [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pipeline_rejects_non_finite_separations(psf, bad):
    for s, p in ((bad, 0.0), (1.0, bad)):
        with pytest.raises(InvalidParameterError, match="finite"):
            gaussian_pipeline(psf, s, p)
        with pytest.raises(InvalidParameterError, match="finite"):
            gaussian_pipeline_stack(psf, [1.0, s], [1.0, p])
