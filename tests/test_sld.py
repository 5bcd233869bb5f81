import math

import numpy as np
import pytest

import srloc.psf
import srloc.sld
from srloc import evaluate
from srloc.closed_forms import gaussian_matrices, small_separation_limit
from srloc.errors import DegenerateBasisError, InvalidParameterError, SrlocError
from srloc.gram import COORDINATES, DEGENERACY_THRESHOLD
from srloc.psf import SourceGeometry, gaussian_overlap_jet
from srloc.sld import PARAMETERS, _support_frame, _to_physical

from one_point import pipeline_point
from oracle import oracle, row_scaled_error


# -------------------------------------------------------------- SLD solve
# The solve runs in the eigenbasis of rho, on its support rows: with the
# eigenvalues q (support first, 0 on the kernel), the pipeline's weights
# 2 / (q_i + q_j) turn the support rows of drho into those of the SLD.


def support_sld(q, drho_rows):
    return 2.0 / (q[:len(drho_rows), None] + q[None, :]) * drho_rows


def full_sld(l_rows):
    """The SLD with the given support rows, its kernel rows by Hermiticity
    and 0 on the kernel block."""
    dim = l_rows.shape[-1]
    sld = np.zeros((dim, dim), dtype=complex)
    sld[:2] = l_rows
    sld[2:, :2] = l_rows[:, 2:].conj().T
    return sld


def test_solve_sld_orthonormal_diagonal_case():
    l_rows = support_sld(np.array([0.5, 0.5]), np.diag([1.0, -1.0]).astype(complex))
    assert l_rows == pytest.approx(np.diag([2.0, -2.0]), abs=1e-14)


def test_solve_sld_pure_state_case():
    # rank-one rho, solved on its one support row; drho from a normalized
    # pure-state family, for which the support-restricted solution
    # coincides with 2*drho
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    dpsi = np.array([0.3j, 0.5, -0.2j], dtype=complex)  # <psi|dpsi> imaginary
    drho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
    l_rows = support_sld(np.array([1.0, 0.0, 0.0]), drho[:1])
    assert l_rows == pytest.approx(2.0 * drho[:1], abs=1e-12)


def random_state_and_derivative(rank, dim, seed):
    """A rank-deficient state and a Hermitian derivative, in a generic basis."""
    rng = np.random.default_rng(seed)
    v = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    q = np.zeros(dim)
    q[:rank] = rng.dirichlet(np.ones(rank))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return v @ np.diag(q) @ v.conj().T, (a + a.conj().T) / 2.0


def eigenframe(rho, drho):
    """Eigenvalues of a rank-2 rho, descending with an exact kernel, and
    drho in its eigenbasis."""
    q, u = np.linalg.eigh(rho)
    q, u = q[::-1].copy(), u[:, ::-1]
    q[2:] = 0.0
    return q, u.conj().T @ drho @ u


def test_solve_sld_equation_residual_on_support():
    q, drho_e = eigenframe(*random_state_and_derivative(2, 6, seed=7))
    l_rows = support_sld(q, drho_e[:2])
    sld = full_sld(l_rows)
    residual = sld * q + q[:, None] * sld - 2.0 * drho_e
    residual[2:, 2:] = 0.0  # no SLD reaches the kernel block
    assert np.max(np.abs(residual)) <= 1e-12


def test_solve_sld_represents_hermitian_operator():
    q, drho_e = eigenframe(*random_state_and_derivative(2, 6, seed=11))
    l_rows = support_sld(q, drho_e[:2])
    assert np.max(np.abs(l_rows[:, :2] - l_rows[:, :2].conj().T)) <= 1e-12


# ----------------------------------------------------- coordinate to physical


def rotate(l_x1, l_x2, l_z1, l_z2):
    """Physical SLDs (s, xbar, p, zbar) from coordinate SLDs, as the pipeline
    maps them."""
    coord = {"x1": l_x1, "x2": l_x2, "z1": l_z1, "z2": l_z2}
    return _to_physical(np.array([coord[c] for c in COORDINATES], dtype=complex))


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
    result = pipeline_point(psf, s, p)
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
    h_closed, g_closed = gaussian_matrices(psf, 1.0, 2.0)
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
    result = pipeline_point(psf, 0.8, 2.6)
    ag = abs(gaussian_overlap_jet(psf, 0.8, 2.6).gamma)
    assert result.rho_eigenvalues[0] == pytest.approx(0.5 * (1.0 + ag), abs=1e-10)
    assert result.rho_eigenvalues[1] == pytest.approx(0.5 * (1.0 - ag), abs=1e-10)


def test_rho_eigenvalues_in_closed_form(psf):
    # the support eigenvalues are (1 +- |gamma|)/2 and the kernel is exact
    s = [0.05, 0.5, 1.0, 3.0, 4.9, 0.3]
    p = [0.1, 2.0, 0.0, 1.0, 4.9, 4.0]
    stack = evaluate(psf, s, p, "pipeline")
    ag = np.abs(gaussian_overlap_jet(psf, np.array(s), np.array(p)).gamma)
    assert np.max(np.abs(stack.rho_eigenvalues[:, 0] - (1.0 + ag) / 2.0)) <= 1e-15
    assert np.max(np.abs(stack.rho_eigenvalues[:, 1] - (1.0 - ag) / 2.0)) <= 1e-15
    assert np.all(stack.rho_eigenvalues[:, 2:] == 0.0)


def test_support_frame_diagonalizes_the_support_block():
    rng = np.random.default_rng(5)
    m = np.triu(rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2)))
    m[:, 1, 1] = np.abs(m[:, 1, 1])
    m[:, 0, 0] = m[:, 1, 1] + np.abs(m[:, 0, 0])  # m[0, 0] >= m[1, 1]
    q_big, q_small, cos, sin = _support_frame(m[:, 0, 0].real, m[:, 0, 1], m[:, 1, 1].real)
    q = np.stack([q_big, q_small], axis=-1)
    u = np.array([[cos, -sin.conj()], [sin, cos]]).transpose(2, 0, 1)
    rho = m @ m.conj().swapaxes(-1, -2) / 2.0
    assert np.all(q[:, 0] >= q[:, 1])
    assert np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(2))) <= 1e-15
    assert np.max(np.abs(u * q[:, None, :] @ u.conj().swapaxes(-1, -2) - rho)) <= 1e-14


def test_equal_eigenvalues_far_apart(psf):
    # at s = 80, p = 0 |gamma| underflows to 0: rho's support block is I/2
    # and its eigenframe the identity
    result = pipeline_point(psf, 80.0, 0.0)
    assert np.array_equal(result.h, np.diag([0.25, 1.0, 0.0625, 0.25]))
    assert np.array_equal(result.gamma_mat, np.zeros((4, 4)))
    assert result.rho_eigenvalues.tolist() == [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("s,p", [(76.0, 0.0), (77.0, 0.0), (141.42, 6.2)])
def test_subnormal_overlap_far_apart(psf, s, p):
    # |gamma| is subnormal (1e-314 to 1e-322): rho's support block is I/2 to
    # all digits, and its eigenframe stays unitary
    result = pipeline_point(psf, s, p)
    assert 0.0 < abs(gaussian_overlap_jet(psf, s, p).gamma) < np.finfo(float).tiny
    assert np.max(np.abs(result.h - np.diag([0.25, 1.0, 0.0625, 0.25]))) <= 1e-15
    assert np.max(np.abs(result.gamma_mat)) <= 1e-15
    assert result.rho_eigenvalues.tolist() == [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]


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
    r1 = pipeline_point(psf, g1.s, g1.p)
    r2 = pipeline_point(psf, g2.s, g2.p)
    assert r1.h.tobytes() == r2.h.tobytes()
    assert r1.gamma_mat.tobytes() == r2.gamma_mat.tobytes()


def test_pipeline_refuses_tiny_separations(psf):
    # below the threshold the pipeline method serves the coincident-source limit
    ev = evaluate(psf, [1e-7, 1.0], [1e-7, 1.0], "pipeline")
    assert ev.route == ("limit", "pipeline") and ev.error is None
    h_lim, g_lim = small_separation_limit(psf)
    assert np.array_equal(ev.h[0], h_lim) and np.array_equal(ev.gamma_mat[0], g_lim)
    assert np.all(np.isnan(ev.rho_eigenvalues[0]))


def _smallest_served_on_axis(psf, axis):
    """The smallest natural separation on one axis (0: s~, 1: p~) that the
    pipeline serves, to within adjacent doubles, by bisection."""
    root = math.sqrt(2.0 * psf.k / psf.z_r)
    lo, hi = 1e-6, 1.0  # refused and served on both axes, at every beam

    def served(r):
        s, p = (r / root, 0.0) if axis == 0 else (0.0, r * psf.z_r)
        return evaluate(psf, [s], [p], "pipeline").route == ("pipeline",)

    assert not served(lo) and served(hi)
    while np.nextafter(lo, hi) < hi:
        mid = math.sqrt(lo * hi)
        if mid in (lo, hi):
            mid = np.nextafter(lo, hi)
        lo, hi = (mid, hi) if not served(mid) else (lo, mid)
    return hi


@pytest.mark.parametrize("k, z_r", [(1.0, 2.0), (1e3, 1e3), (1e-3, 1.0), (5.11e-262, 1.49e-26)])
def test_served_points_keep_the_small_eigenvalue_above_the_pivot_bound(k, z_r):
    # gram.factor serves a point only where 1 - |gamma|^2 = t11^2 >=
    # DEGENERACY_THRESHOLD, and q_small = t11^2 / (4 q_big) with q_big <= 1:
    # every SLD weight 2 / (q_i + q_j) is finite there
    psf = srloc.psf.GaussianPsf(k=k, z_r=z_r)
    rng = np.random.default_rng(21)
    r = 10.0 ** rng.uniform(-12.0, 3.0, 3000)
    angle = rng.uniform(0.0, 2.0 * math.pi, 3000)
    s_n = np.concatenate([r * np.cos(angle), r, np.zeros(3000), [76.0, 77.0]])
    p_n = np.concatenate([r * np.sin(angle), np.zeros(3000), r, [0.0, 0.0]])
    edges = [_smallest_served_on_axis(psf, axis) for axis in (0, 1)]
    s_n = np.append(s_n, [edges[0], 0.0])
    p_n = np.append(p_n, [0.0, edges[1]])
    root = math.sqrt(2.0 * k / z_r)
    ev = evaluate(psf, s_n / root, p_n * z_r, "pipeline")
    served = np.array(ev.route) == "pipeline"
    assert {"pipeline", "failed", "limit"} <= set(ev.route) and served[-4:].all()
    assert np.all(ev.rho_eigenvalues[served, 1] >= DEGENERACY_THRESHOLD / 4.0)


def test_compute_qfim_parameter_order():
    assert PARAMETERS == ("s", "xbar", "p", "zbar")


# --------------------------------------------------------- stacked pipeline


STACK_S = [0.1, 0.5, 1.0, 2.5, 4.9, 3.0, 0.3]
STACK_P = [0.1, 2.0, 0.0, 1.5, 4.9, 0.2, 4.0]


def test_stack_matches_the_mpmath_oracle(psf):
    box_s, box_p = (a.ravel() for a in np.meshgrid(np.linspace(0.1, 5.0, 9),
                                                   np.linspace(0.0, 5.0, 9)))
    for s, p in ((STACK_S, STACK_P), (box_s, box_p)):
        stack = evaluate(psf, s, p, "pipeline")
        assert set(stack.route) == {"pipeline"} and stack.error is None
        worst = max(row_scaled_error(stack.h[i], stack.gamma_mat[i], *oracle(psf, a, b))
                    for i, (a, b) in enumerate(zip(s, p)))
        assert worst <= 1e-12


def test_stack_point_bits_independent_of_stack(psf, monkeypatch):
    s = np.linspace(0.1, 4.9, 25)
    p = np.linspace(4.0, 0.2, 25)
    full = evaluate(psf, s, p, "pipeline")
    for i in (0, 7, 24):
        alone = evaluate(psf, [s[i]], [p[i]], "pipeline")
        single = pipeline_point(psf, float(s[i]), float(p[i]))
        for name in ("h", "gamma_mat", "rho_eigenvalues"):
            assert getattr(alone, name)[0].tobytes() == getattr(full, name)[i].tobytes()
        assert single.h.tobytes() == full.h[i].tobytes()
        assert single.gamma_mat.tobytes() == full.gamma_mat[i].tobytes()
        assert single.rho_eigenvalues.tobytes() == full.rho_eigenvalues[i].tobytes()
    monkeypatch.setattr(srloc.sld, "BLOCK_POINTS", 4)
    blocked = evaluate(psf, s, p, "pipeline")
    assert blocked.h.tobytes() == full.h.tobytes()
    assert blocked.gamma_mat.tobytes() == full.gamma_mat.tobytes()


def test_stack_fails_only_the_point_whose_jet_overflows(psf):
    # no numpy warning escapes (pytest turns RuntimeWarning into an error)
    stack = evaluate(psf, [1.0, 1e200], [0.0, 0.0], "pipeline")
    assert stack.route == ("pipeline", "failed")
    assert isinstance(stack.error, DegenerateBasisError)
    assert "(s=1e+200, p=0.0)" in str(stack.error) and "not finite" in str(stack.error)
    assert np.all(np.isnan(stack.h[1]))
    alone = evaluate(psf, [1.0], [0.0], "pipeline")
    for name in ("h", "gamma_mat", "rho_eigenvalues"):
        assert getattr(alone, name)[0].tobytes() == getattr(stack, name)[0].tobytes()
    with pytest.raises(DegenerateBasisError, match=r"\(s=1e\+200, p=0\.0\)"):
        raise evaluate(psf, [1e200], [0.0], "pipeline").error


def test_stack_reports_failures_per_point(psf):
    s = [1.0, 0.0, 0.01, 2.0, 0.02]
    p = [1.0, 0.0, 0.0, 0.5, 0.0]
    stack = evaluate(psf, s, p, "pipeline")
    assert stack.route == ("pipeline", "limit", "failed", "pipeline", "failed")
    assert isinstance(stack.error, DegenerateBasisError)
    assert "(s=0.01, p=0.0)" in str(stack.error)
    assert np.all(np.isnan(stack.h[[2, 4]])) and np.all(np.isnan(stack.rho_eigenvalues[[1, 2, 4]]))
    assert np.array_equal(stack.h[1], small_separation_limit(psf)[0])
    assert stack.h[3].tobytes() == pipeline_point(psf, 2.0, 0.5).h.tobytes()
    with pytest.raises(DegenerateBasisError, match=r"\(s=0\.01, p=0\.0\)"):
        raise evaluate(psf, [0.01], [0.0], "pipeline").error


def test_stack_isolates_cholesky_failure(psf, monkeypatch):
    # a non-positive pivot at the victim point only: 1 - |gamma|^2 < 0 there
    victim = srloc.sld._jet(*psf.natural(2.0, 1.0)).gamma
    jet = srloc.sld._jet

    def bad_pivot_at_victim(s, p):
        out = jet(s, p)
        return srloc.psf.OverlapJet(np.where(out.gamma == victim, 2.0, out.gamma), out.d_s,
                                    out.d_p, out.d_ss, out.d_pp, out.d_sp)

    monkeypatch.setattr(srloc.sld, "_jet", bad_pivot_at_victim)
    stack = evaluate(psf, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], "pipeline")
    assert stack.route == ("pipeline", "failed", "pipeline")
    assert isinstance(stack.error, DegenerateBasisError)
    assert "(s=2.0, p=1.0)" in str(stack.error)
    monkeypatch.undo()
    assert stack.h[2].tobytes() == pipeline_point(psf, 3.0, 1.0).h.tobytes()


def test_stack_asymmetry_limit_names_first_point(psf, monkeypatch):
    monkeypatch.setattr(srloc.sld, "_ASYMMETRY_LIMIT", 0.0)
    stack = evaluate(psf, [0.0, 1.5, 2.0], [0.0, 0.5, 1.0], "pipeline")
    assert stack.route == ("limit", "failed", "failed")
    assert type(stack.error) is SrlocError
    assert "asymmetry" in str(stack.error) and "(s=1.5, p=0.5)" in str(stack.error)
    with pytest.raises(SrlocError, match="asymmetry"):
        raise evaluate(psf, [1.5], [0.5], "pipeline").error


def test_stack_rejects_mismatched_coordinates(psf):
    with pytest.raises(InvalidParameterError):
        evaluate(psf, [1.0, 2.0], [1.0], "pipeline")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pipeline_rejects_non_finite_separations(psf, bad):
    for s, p in ((bad, 0.0), (1.0, bad)):
        with pytest.raises(InvalidParameterError, match="finite"):
            evaluate(psf, [s], [p], "pipeline")
        with pytest.raises(InvalidParameterError, match="finite"):
            evaluate(psf, [1.0, s], [1.0, p], "pipeline")
