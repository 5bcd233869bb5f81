import math

import numpy as np
import pytest

import srloc.gram
from srloc.gram import _DRHO_ROWS, COORDINATES, build_gram_stack
from srloc.psf import SourceGeometry, gaussian_constants, gaussian_overlap_jet
from srloc.sld import orthonormalize


def gram_at(psf, s, p):
    """The Gram matrix at (s, p) and the degeneracy reason, or None."""
    stack, degenerate = build_gram_stack(gaussian_overlap_jet(psf, s, p), gaussian_constants(psf))
    assert stack.shape == (1, 6, 6)
    return stack[0], degenerate.get(0)


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
    stack, _ = build_gram_stack(gaussian_overlap_jet(psf, s.ravel(), p.ravel()),
                                gaussian_constants(psf))
    assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))


def test_first_derivative_entries_signs(psf):
    jet = gaussian_overlap_jet(psf, 0.9, 1.4)
    sm = build_gram_stack(jet, gaussian_constants(psf))[0][0]
    assert sm[0, 4] == jet.d_s          # <Psi1|d_x2 Psi2> = +d_s
    assert sm[2, 1] == -jet.d_s         # <d_x1 Psi1|Psi2> = -d_s
    assert sm[0, 5] == jet.d_p
    assert sm[3, 1] == -jet.d_p
    assert sm[2, 4] == -jet.d_ss
    assert sm[3, 5] == -jet.d_pp
    assert sm[2, 5] == -jet.d_sp and sm[3, 4] == -jet.d_sp


def test_positive_definite_on_grid(psf, consts):
    s, p = (a.ravel() for a in np.meshgrid(np.linspace(0.1, 5.0, 8), np.linspace(0.1, 5.0, 8)))
    stack, degenerate = build_gram_stack(gaussian_overlap_jet(psf, s, p), consts)
    assert degenerate == {}
    np.linalg.cholesky(stack)  # raises if any matrix is not PD
    assert np.all(np.linalg.eigvalsh(stack)[:, 0] > 0.0)


def test_degenerate_at_coincident_sources(psf):
    _, reason = gram_at(psf, 0.0, 0.0)
    assert "numerically degenerate" in reason


def test_degeneracy_threshold_configurable(psf, consts, monkeypatch):
    jet = gaussian_overlap_jet(psf, 0.05, 0.05)
    assert build_gram_stack(jet, consts)[1] == {}  # fine at the default threshold
    monkeypatch.setattr(srloc.gram, "DEGENERACY_THRESHOLD", 1e-2)
    assert "numerically degenerate" in build_gram_stack(jet, consts)[1][0]


def test_gram_entries_depend_only_on_separations(psf):
    # geometries differing only by a centroid shift chosen so the float
    # subtractions are exact -> bit-identical Gram data
    g1 = SourceGeometry.from_coordinates(1.0, 4.1, 2.0, 6.1)
    g2 = SourceGeometry.from_coordinates(1.0 + 7.3, 4.1 - 2.1, 2.0 + 7.3, 6.1 - 2.1)
    assert (g1.s, g1.p) == (g2.s, g2.p)
    assert (g1.xbar, g1.zbar) != (g2.xbar, g2.zbar)
    sm1, _ = gram_at(psf, g1.s, g1.p)
    sm2, _ = gram_at(psf, g2.s, g2.p)
    assert sm1.tobytes() == sm2.tobytes()


# --------------------------------------------------- state in the Gram frame


def test_rho_action_trace_is_one(psf):
    # with T^H T = S the state is (t0 t0^H + t1 t1^H)/2, of trace (S00 + S11)/2
    t = orthonormalize(gram_at(psf, 1.2, 0.3)[0])
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
    t = orthonormalize(build_gram_stack(jet, gaussian_constants(psf))[0][0])
    a, b = rows
    drho = (np.outer(t[:, a], t[:, b].conj()) + np.outer(t[:, b], t[:, a].conj())) / 2.0
    rho = (np.outer(t[:, 0], t[:, 0].conj()) + np.outer(t[:, 1], t[:, 1].conj())) / 2.0
    assert abs(np.trace(drho)) <= 1e-15
    sign = 1.0 if coord.endswith("2") else -1.0  # d/dx2 = d/ds, d/dx1 = -d/ds
    d_gamma = jet.d_s if coord.startswith("x") else jet.d_p
    want = sign * (jet.gamma.conjugate() * d_gamma).real / 2.0
    assert np.trace(rho @ drho) == pytest.approx(want, abs=1e-14)
