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
from srloc.gram import (
    COORDINATES,
    ActionMatrix,
    GramMatrix,
    build_drho_action,
    build_gram,
    build_rho_action,
    hermiticity_residual,
)
from srloc.psf import SourceGeometry, gaussian_constants, gaussian_overlap_jet
from srloc.sld import (
    PARAMETERS,
    compute_qfim,
    gaussian_pipeline,
    gaussian_pipeline_stack,
    orthonormalize,
    qfim_from_jet,
    rotate_to_physical,
    solve_sld,
)


def identity_gram(n):
    return GramMatrix(s_mat=np.eye(n, dtype=complex))


# --------------------------------------------------------- orthonormalize


def test_orthonormalize_identity():
    assert np.array_equal(orthonormalize(identity_gram(4)), np.eye(4))


def test_orthonormalize_two_by_two():
    gram = GramMatrix(s_mat=np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    t = orthonormalize(gram)
    assert t == pytest.approx(np.array([[1.0, 0.5], [0.0, math.sqrt(0.75)]]))
    assert t.conj().T @ t == pytest.approx(gram.s_mat)


def test_orthonormalize_factor_property(psf, consts):
    gram = build_gram(gaussian_overlap_jet(psf, 0.6, 1.7), consts)
    t = orthonormalize(gram)
    assert np.allclose(t.conj().T @ t, gram.s_mat, atol=1e-14)
    assert np.allclose(t, np.triu(t))


def test_orthonormalize_restores_plain_hermiticity(psf, consts):
    gram = build_gram(gaussian_overlap_jet(psf, 1.0, 0.0), consts)
    t = orthonormalize(gram)
    a = t @ build_rho_action(gram).m @ np.linalg.inv(t)
    assert np.max(np.abs(a - a.conj().T)) <= 1e-12


def test_orthonormalize_rejects_indefinite():
    with pytest.raises(DegenerateBasisError):
        orthonormalize(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex))


# -------------------------------------------------------------- solve_sld


def test_solve_sld_orthonormal_diagonal_case():
    gram = identity_gram(2)
    rho = ActionMatrix(m=np.diag([0.5, 0.5]).astype(complex))
    drho = ActionMatrix(m=np.diag([1.0, -1.0]).astype(complex))
    sld = solve_sld(rho, drho, gram)
    assert sld.m == pytest.approx(np.diag([2.0, -2.0]), abs=1e-14)


def test_solve_sld_pure_state_case():
    # rank-one rho; drho from a normalized pure-state family, for which the
    # support-restricted solution coincides with 2*drho
    gram = identity_gram(3)
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    dpsi = np.array([0.3j, 0.5, -0.2j], dtype=complex)  # <psi|dpsi> imaginary
    rho = ActionMatrix(m=np.outer(psi, psi.conj()))
    drho_m = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
    sld = solve_sld(rho, ActionMatrix(m=drho_m), gram)
    assert sld.m == pytest.approx(2.0 * drho_m, abs=1e-12)


def test_solve_sld_equation_residual_on_support(psf, consts):
    gram = build_gram(gaussian_overlap_jet(psf, 1.0, 2.0), consts)
    rho = build_rho_action(gram)
    t = orthonormalize(gram)
    t_inv = np.linalg.inv(t)
    rho_o = t @ rho.m @ t_inv
    q, u = np.linalg.eigh((rho_o + rho_o.conj().T) / 2.0)
    support = u[:, q > 1e-12]
    proj = support @ support.conj().T
    for coord in ("x1", "z1", "x2", "z2"):
        drho = build_drho_action(gram, coord)
        sld = solve_sld(rho, drho, gram)
        l_o = t @ sld.m @ t_inv
        drho_o = t @ drho.m @ t_inv
        residual = proj @ (l_o @ rho_o + rho_o @ l_o - 2.0 * drho_o) @ proj
        assert np.max(np.abs(residual)) <= 1e-10


def test_solve_sld_represents_hermitian_operator(psf, consts):
    from srloc.gram import hermiticity_residual

    gram = build_gram(gaussian_overlap_jet(psf, 0.4, 3.0), consts)
    rho = build_rho_action(gram)
    for coord in ("x1", "z1", "x2", "z2"):
        sld = solve_sld(rho, build_drho_action(gram, coord), gram)
        assert hermiticity_residual(gram, sld) <= 1e-10


def test_solve_sld_warns_near_cutoff():
    gram = identity_gram(2)
    rho = ActionMatrix(m=np.diag([1.0 - 3e-12, 3e-12]).astype(complex))
    drho = ActionMatrix(m=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    with pytest.warns(CutoffDegeneracyWarning):
        solve_sld(rho, drho, gram)


# ----------------------------------------------------- rotate_to_physical


def make_action(arr):
    return ActionMatrix(m=np.asarray(arr, dtype=complex))


def test_rotate_symmetric_input():
    a = make_action([[1.0, 2.0], [2.0, 3.0]])
    zero = make_action(np.zeros((2, 2)))
    slds = rotate_to_physical(a, a, zero, zero, identity_gram(2))
    assert np.all(slds.l_s.m == 0.0)
    assert np.array_equal(slds.l_xbar.m, 2.0 * a.m)


def test_rotate_antisymmetric_input():
    a = make_action([[1.0, 0.5], [0.5, -1.0]])
    minus = make_action(-a.m)
    zero = make_action(np.zeros((2, 2)))
    slds = rotate_to_physical(minus, a, zero, zero, identity_gram(2))
    assert np.array_equal(slds.l_s.m, a.m)
    assert np.all(slds.l_xbar.m == 0.0)


def test_rotate_axial_block_and_linearity():
    a = make_action([[0.0, 1.0], [1.0, 0.0]])
    b = make_action([[2.0, 0.0], [0.0, -2.0]])
    zero = make_action(np.zeros((2, 2)))
    slds = rotate_to_physical(zero, zero, a, b, identity_gram(2))
    assert np.array_equal(slds.l_p.m, 0.5 * (b.m - a.m))
    assert np.array_equal(slds.l_zbar.m, a.m + b.m)
    scaled = rotate_to_physical(zero, zero, make_action(3.0 * a.m), make_action(3.0 * b.m),
                                identity_gram(2))
    assert np.array_equal(scaled.l_p.m, 3.0 * slds.l_p.m)
    assert np.array_equal(scaled.l_zbar.m, 3.0 * slds.l_zbar.m)


# ------------------------------------------------------------ compute_qfim


def pipeline_matrices(psf, s, p):
    result = gaussian_pipeline(psf, s, p)
    return result.qfim.h, result.qfim.gamma_mat, result


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
    jet = gaussian_overlap_jet(psf, 0.8, 2.6)
    result = qfim_from_jet(jet, gaussian_constants(psf))
    ag = jet.abs_gamma
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
    assert r1.qfim.h.tobytes() == r2.qfim.h.tobytes()
    assert r1.qfim.gamma_mat.tobytes() == r2.qfim.gamma_mat.tobytes()


def test_pipeline_refuses_tiny_separations(psf):
    with pytest.raises(SmallSeparationError):
        gaussian_pipeline(psf, 1e-7, 1e-7)


def test_compute_qfim_parameter_order():
    assert PARAMETERS == ("s", "xbar", "p", "zbar")


def test_compute_qfim_trivial_commuting_family():
    # rho = I/2 with commuting diagonal SLDs: H from plain second moments,
    # Gamma identically zero
    gram = identity_gram(2)
    rho = ActionMatrix(m=np.diag([0.5, 0.5]).astype(complex))
    slds = rotate_to_physical(
        make_action(np.diag([-1.0, 1.0])),
        make_action(np.diag([1.0, -1.0])),
        make_action(np.diag([-2.0, 2.0])),
        make_action(np.diag([2.0, -2.0])),
        gram,
    )
    result = compute_qfim(rho, slds, gram)
    assert result.gamma_mat == pytest.approx(np.zeros((4, 4)), abs=0)
    # L_s = diag(1, -1), L_p = diag(2, -2), L_xbar = L_zbar = 0
    assert result.h[0, 0] == pytest.approx(1.0)
    assert result.h[2, 2] == pytest.approx(4.0)
    assert result.h[0, 2] == pytest.approx(2.0)
    assert result.h[1, 1] == 0.0 and result.h[3, 3] == 0.0


# --------------------------------------------------------- stacked pipeline


def scaled_deviation(a, b, h):
    diag = np.abs(np.diag(h))
    return float(np.max(np.abs(a - b) / np.sqrt(np.outer(diag, diag))))


def per_operator_qfim(psf, s, p):
    """Reference: the pipeline one operator at a time in action representation."""
    gram = build_gram(gaussian_overlap_jet(psf, s, p), gaussian_constants(psf))
    rho = build_rho_action(gram)
    l_coord = {c: solve_sld(rho, build_drho_action(gram, c), gram) for c in COORDINATES}
    slds = rotate_to_physical(l_coord["x1"], l_coord["x2"], l_coord["z1"], l_coord["z2"], gram)
    return compute_qfim(rho, slds, gram)


STACK_S = [0.1, 0.5, 1.0, 2.5, 4.9, 3.0, 0.3]
STACK_P = [0.1, 2.0, 0.0, 1.5, 4.9, 0.2, 4.0]


def test_stack_matches_per_operator_route(psf):
    stack = gaussian_pipeline_stack(psf, STACK_S, STACK_P)
    assert not stack.failed.any() and not stack.limit.any() and stack.error is None
    for i, (s, p) in enumerate(zip(STACK_S, STACK_P)):
        ref = per_operator_qfim(psf, s, p)
        assert scaled_deviation(stack.h[i], ref.h, ref.h) <= 1e-12
        assert scaled_deviation(stack.gamma_mat[i], ref.gamma_mat, ref.h) <= 1e-12


def test_single_point_slds_in_action_representation(psf, consts):
    # the back-transformed SLDs reproduce H and Gamma through the action traces
    for s, p in [(1.0, 2.0), (0.4, 3.0), (2.5, 0.0)]:
        result = gaussian_pipeline(psf, s, p)
        gram = result.slds.gram
        for sld in result.slds.in_order():
            assert hermiticity_residual(gram, sld) <= 1e-10
        traced = compute_qfim(build_rho_action(gram), result.slds, gram)
        assert scaled_deviation(traced.h, result.qfim.h, result.qfim.h) <= 1e-12
        assert scaled_deviation(traced.gamma_mat, result.qfim.gamma_mat, result.qfim.h) <= 1e-12


def test_stack_point_bits_independent_of_stack(psf, monkeypatch):
    s = np.linspace(0.1, 4.9, 25)
    p = np.linspace(4.0, 0.2, 25)
    full = gaussian_pipeline_stack(psf, s, p)
    for i in (0, 7, 24):
        alone = gaussian_pipeline_stack(psf, [s[i]], [p[i]])
        single = gaussian_pipeline(psf, float(s[i]), float(p[i]))
        for name in ("h", "gamma_mat", "rho_eigenvalues"):
            assert getattr(alone, name)[0].tobytes() == getattr(full, name)[i].tobytes()
        assert single.qfim.h.tobytes() == full.h[i].tobytes()
        assert single.qfim.gamma_mat.tobytes() == full.gamma_mat[i].tobytes()
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
    assert stack.h[3].tobytes() == gaussian_pipeline(psf, 2.0, 0.5).qfim.h.tobytes()
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
    assert stack.h[2].tobytes() == gaussian_pipeline(psf, 3.0, 1.0).qfim.h.tobytes()


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
