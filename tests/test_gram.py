import math

import numpy as np
import pytest

import srloc.gram
from srloc.errors import DegenerateBasisError, InvalidParameterError
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


def gram_at(psf, s, p):
    return build_gram(gaussian_overlap_jet(psf, s, p), gaussian_constants(psf))


# ------------------------------------------------------------- structure


@pytest.mark.parametrize("s,p", [(1.0, 0.0), (0.5, 2.0), (3.0, 4.0)])
def test_constant_entries(psf, consts, s, p):
    sm = gram_at(psf, s, p).s_mat
    assert sm[0, 0] == 1.0 and sm[1, 1] == 1.0
    assert sm[2, 2] == consts.dpsi_norm_sq == 0.25
    assert sm[4, 4] == 0.25
    assert sm[3, 3] == consts.mean_g2 == 0.625
    assert sm[5, 5] == 0.625
    assert sm[0, 3] == -0.75j
    assert sm[1, 5] == -0.75j
    assert sm[0, 2] == 0.0 and sm[1, 4] == 0.0
    assert sm[2, 3] == 0.0 and sm[4, 5] == 0.0


def test_overlap_entry(psf):
    sm = gram_at(psf, 1.0, 0.0).s_mat
    assert sm[0, 1] == pytest.approx(math.exp(-0.125), rel=1e-14)


def test_exactly_hermitian(psf):
    sm = gram_at(psf, 0.7, 1.9).s_mat
    assert np.array_equal(sm, sm.conj().T)


def test_first_derivative_entries_signs(psf):
    jet = gaussian_overlap_jet(psf, 0.9, 1.4)
    sm = build_gram(jet, gaussian_constants(psf)).s_mat
    assert sm[0, 4] == jet.d_s          # <Psi1|d_x2 Psi2> = +d_s
    assert sm[2, 1] == -jet.d_s         # <d_x1 Psi1|Psi2> = -d_s
    assert sm[0, 5] == jet.d_p
    assert sm[3, 1] == -jet.d_p
    assert sm[2, 4] == -jet.d_ss
    assert sm[3, 5] == -jet.d_pp
    assert sm[2, 5] == -jet.d_sp and sm[3, 4] == -jet.d_sp


def test_positive_definite_on_grid(psf, consts):
    for s in np.linspace(0.1, 5.0, 8):
        for p in np.linspace(0.1, 5.0, 8):
            sm = gram_at(psf, s, p).s_mat
            np.linalg.cholesky(sm)  # raises if not PD


def test_degenerate_at_coincident_sources(psf):
    with pytest.raises(DegenerateBasisError):
        gram_at(psf, 0.0, 0.0)


def test_degeneracy_threshold_configurable(psf, consts, monkeypatch):
    jet = gaussian_overlap_jet(psf, 0.05, 0.05)
    build_gram(jet, consts)  # fine at the default threshold
    monkeypatch.setattr(srloc.gram, "DEGENERACY_THRESHOLD", 1e-2)
    with pytest.raises(DegenerateBasisError):
        build_gram(jet, consts)


def test_gram_matrix_validates_input():
    with pytest.raises(InvalidParameterError):
        GramMatrix(s_mat=np.zeros((2, 3)))
    with pytest.raises(InvalidParameterError):
        GramMatrix(s_mat=np.array([[1.0, 1.0], [0.0, 1.0]]))  # not Hermitian


def test_gram_entries_depend_only_on_separations(psf):
    # geometries differing only by a centroid shift chosen so the float
    # subtractions are exact -> bit-identical Gram data
    g1 = SourceGeometry.from_coordinates(1.0, 4.1, 2.0, 6.1)
    g2 = SourceGeometry.from_coordinates(1.0 + 7.3, 4.1 - 2.1, 2.0 + 7.3, 6.1 - 2.1)
    assert (g1.s, g1.p) == (g2.s, g2.p)
    assert (g1.xbar, g1.zbar) != (g2.xbar, g2.zbar)
    sm1 = gram_at(psf, g1.s, g1.p).s_mat
    sm2 = gram_at(psf, g2.s, g2.p).s_mat
    assert sm1.tobytes() == sm2.tobytes()


# ------------------------------------------------------------- rho action


def test_rho_action_trace_is_one(psf):
    rho = build_rho_action(gram_at(psf, 1.2, 0.3))
    assert rho.trace == 1.0 + 0.0j


def test_rho_action_rows(psf):
    gram = gram_at(psf, 1.2, 0.3)
    m = build_rho_action(gram).m
    assert np.array_equal(m[0, :], gram.s_mat[0, :] / 2.0)
    assert np.array_equal(m[1, :], gram.s_mat[1, :] / 2.0)
    assert np.all(m[2:, :] == 0.0)


def test_rho_action_represents_hermitian_operator(psf):
    gram = gram_at(psf, 1.2, 0.3)
    assert hermiticity_residual(gram, build_rho_action(gram)) <= 1e-12


# ------------------------------------------------------------ drho actions


@pytest.mark.parametrize(
    "coord,rows", [("x1", (0, 2)), ("z1", (0, 3)), ("x2", (1, 4)), ("z2", (1, 5))]
)
def test_drho_action_row_placement(psf, coord, rows):
    gram = gram_at(psf, 0.8, 1.1)
    m = build_drho_action(gram, coord).m
    state_row, deriv_row = rows
    nonzero_rows = {i for i in range(6) if np.any(m[i, :] != 0.0)}
    assert nonzero_rows == set(rows)
    assert np.array_equal(m[state_row, :], gram.s_mat[deriv_row, :] / 2.0)
    assert np.array_equal(m[deriv_row, :], gram.s_mat[state_row, :] / 2.0)


@pytest.mark.parametrize("coord", COORDINATES)
def test_drho_action_represents_hermitian_operator(psf, coord):
    gram = gram_at(psf, 0.8, 1.1)
    assert hermiticity_residual(gram, build_drho_action(gram, coord)) <= 1e-12


def test_drho_action_rejects_unknown_coordinate(psf):
    with pytest.raises(InvalidParameterError):
        build_drho_action(gram_at(psf, 1.0, 1.0), "y1")


def test_action_matrices_are_read_only(psf):
    gram = gram_at(psf, 1.0, 1.0)
    rho = build_rho_action(gram)
    with pytest.raises(ValueError):
        rho.m[0, 0] = 9.0
    with pytest.raises(ValueError):
        gram.s_mat[0, 0] = 9.0


def test_action_matrix_validates_shape():
    with pytest.raises(InvalidParameterError):
        ActionMatrix(m=np.zeros((3, 4)))
