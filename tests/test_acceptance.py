"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s` to see them)."""

import math
import time

import numpy as np
import pytest

from srloc.analysis import EstimationBudget, qcrb_total
from srloc.cli import main
from srloc.closed_forms import gaussian_matrices, general_matrices, small_separation_limit
from srloc.psf import (
    GaussianPsf,
    SourceGeometry,
    fd_overlap_jet,
    gaussian_constants,
    gaussian_overlap,
    gaussian_overlap_jet,
)

from one_point import pipeline_point

PSF = GaussianPsf(k=1.0, z_r=2.0)
CONSTS = gaussian_constants(PSF)
GRID = np.linspace(0.1, 5.0, 20)

H_OFFDIAG_ZERO = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
GAMMA_SUPPORT = [(0, 1), (2, 3), (0, 3), (1, 2)]
GAMMA_ZERO = [(0, 2)]


def check(criterion, description, passed):
    print(f"[acceptance] criterion {criterion:2d}: {description} ... "
          f"{'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {criterion}: {description}"


@pytest.fixture(scope="module")
def grid_matrices():
    """All three routes on the 20x20 acceptance grid, with wall time."""
    t0 = time.perf_counter()
    points = []
    for s in GRID:
        for p in GRID:
            result = pipeline_point(PSF, s, p)
            jet = gaussian_overlap_jet(PSF, s, p)
            points.append(
                {
                    "s": s,
                    "p": p,
                    "pipeline": (result.h, result.gamma_mat),
                    "general": general_matrices(jet, CONSTS),
                    "closed": gaussian_matrices(PSF, s, p),
                    "rho_eigenvalues": result.rho_eigenvalues,
                    "abs_gamma": abs(jet.gamma),
                }
            )
    return points, time.perf_counter() - t0


def scale_of(h):
    diag = np.abs(np.diag(h))
    return np.sqrt(np.outer(diag, diag))


def test_criterion_1_three_way_consistency(grid_matrices):
    points, elapsed = grid_matrices
    worst = 0.0
    for pt in points:
        scale = scale_of(pt["closed"][0])
        for a, b in (("pipeline", "general"), ("pipeline", "closed"), ("general", "closed")):
            for idx in (0, 1):
                dev = np.max(np.abs(pt[a][idx] - pt[b][idx]) / scale)
                worst = max(worst, float(dev))
    check(1, f"three-route agreement on 20x20 grid (worst rel dev {worst:.2e}, "
             f"{elapsed:.2f}s)", worst <= 1e-8 and elapsed < 10.0)


def test_criterion_2_constant_separation_information(grid_matrices):
    points, _ = grid_matrices
    ok = True
    for pt in points:
        for route, tol in (("closed", 1e-14), ("general", 1e-14), ("pipeline", 1e-8)):
            h = pt[route][0]
            ok &= abs(h[0, 0] - 0.25) <= tol and abs(h[2, 2] - 0.0625) <= tol
    check(2, "H_ss = k/(2 z_R) and H_pp = 1/(4 z_R^2) at every grid point", ok)


def test_criterion_3_separation_pair_compatibility(grid_matrices):
    points, _ = grid_matrices
    ok = True
    for pt in points:
        for route in ("pipeline", "general", "closed"):
            h, g = pt[route]
            scale = math.sqrt(h[0, 0] * h[2, 2])
            ok &= abs(h[0, 2]) <= 1e-10 * scale and abs(g[0, 2]) <= 1e-10 * scale
    check(3, "(s, p) pair: H_sp and Gamma_sp vanish at every grid point", ok)


def test_criterion_4_sparsity_pattern(grid_matrices):
    points, _ = grid_matrices
    ok = True
    for pt in points:
        for route in ("pipeline", "general", "closed"):
            h, g = pt[route]
            scale = scale_of(h)
            for i, j in H_OFFDIAG_ZERO:
                ok &= abs(h[i, j]) <= 1e-10 * scale[i, j]
            for i, j in GAMMA_ZERO:
                ok &= abs(g[i, j]) <= 1e-10 * scale[i, j]
            ok &= float(np.max(np.abs(g + g.T))) <= 1e-12
            ok &= np.all(np.diag(g) == 0.0)
    check(4, "only H_xz and the four Gamma pairs are nonzero; Gamma antisymmetric", ok)


def test_criterion_5_small_separation_limit():
    h_lim, _ = small_separation_limit(PSF)
    h, g = gaussian_matrices(PSF, 1e-3, 1e-3)
    diag_ok = np.max(np.abs(np.diag(h) - np.diag(h_lim)) / np.diag(h_lim)) <= 1e-3
    scale = scale_of(h_lim)
    off_ok = abs(h[1, 3]) <= 1e-3 * scale[1, 3] and np.max(np.abs(g) / scale) <= 1e-3
    ok = diag_ok and off_ok and np.array_equal(np.diag(h_lim), [0.25, 1.0, 0.0625, 0.25])
    check(5, "closed forms at s = p = 1e-3 match diag(0.25, 1, 0.0625, 0.25)", ok)


def test_criterion_6_figure_sweep_values(tmp_path, capsys):
    argv = ["sweep", "--k", "1", "--zr", "2", "--normalized", "--range", "0.01:5:0.01"]
    s_csv = tmp_path / "angular.csv"
    p_csv = tmp_path / "axial.csv"
    assert main(argv + ["--sweep", "s", "--fixed", "0", "--out", str(s_csv)]) == 0
    assert main(argv + ["--sweep", "p", "--fixed", "0", "--out", str(p_csv)]) == 0
    capsys.readouterr()

    s_rows = [line.split(",") for line in s_csv.read_text().splitlines()[1:]]
    p_rows = [line.split(",") for line in p_csv.read_text().splitlines()[1:]]
    ok = all(row[3] == "1" for row in s_rows)                      # H_ss / N == 1
    ok &= all(row[5] == "0.25" for row in p_rows)                  # H_pp / N == 0.25
    near_one = min(s_rows, key=lambda row: abs(float(row[1]) - 1.0))
    ok &= abs(float(near_one[4]) - 3.221199) <= 1e-5               # H_xx / N at s = 1
    ok &= abs(float(s_rows[0][4]) - 4.0) <= 1e-3                   # H_xx / N -> 4
    ok &= abs(float(p_rows[0][6]) - 1.0) <= 1e-3                   # H_zz / N -> 1
    check(6, "normalized sweep data reproduce the localization curves", ok)


def test_criterion_7_quantum_cramer_rao_bound():
    h_lim, _ = small_separation_limit(PSF)
    tr = float(np.trace(np.linalg.inv(h_lim)))
    bound = qcrb_total(h_lim, EstimationBudget(nu=1000.0, m=1.0, eps=1.0))
    doubled = qcrb_total(h_lim, EstimationBudget(nu=2000.0, m=1.0, eps=1.0))
    ok = abs(tr - 25.0) <= 1e-6 and bound == pytest.approx(0.025, rel=1e-12)
    ok &= doubled == bound / 2.0
    check(7, "Tr(H^-1) = 25, bound 0.025 at nu M eps = 1000, exact 1/nu scaling", ok)


def test_criterion_8_state_spectrum(grid_matrices):
    points, _ = grid_matrices
    ok = True
    for pt in points:
        eigs = pt["rho_eigenvalues"]
        ag = pt["abs_gamma"]
        ok &= abs(eigs[0] - 0.5 * (1.0 + ag)) <= 1e-8
        ok &= abs(eigs[1] - 0.5 * (1.0 - ag)) <= 1e-8
        ok &= np.max(np.abs(eigs[2:])) <= 1e-8
    ref = pipeline_point(PSF, 1.0, 0.0).rho_eigenvalues
    ok &= abs(ref[0] - 0.941249) <= 1e-6 and abs(ref[1] - 0.058751) <= 1e-6
    check(8, "state eigenvalues equal (1 +/- |gamma|)/2 plus four zeros", ok)


def test_criterion_9_derivative_engine():
    worst = 0.0
    for s in np.linspace(0.1, 5.0, 10):
        for p in np.linspace(0.1, 5.0, 10):
            jet = gaussian_overlap_jet(PSF, s, p)
            fd = fd_overlap_jet(
                lambda a, b: gaussian_overlap(PSF, a, b), s, p, 1e-4 * max(1.0, s, p)
            )
            analytic = np.array([jet.gamma, jet.d_s, jet.d_p, jet.d_ss, jet.d_pp, jet.d_sp])
            numeric = np.array([fd.gamma, fd.d_s, fd.d_p, fd.d_ss, fd.d_pp, fd.d_sp])
            worst = max(worst, float(np.max(np.abs(numeric - analytic))
                                     / np.max(np.abs(analytic))))
    check(9, f"analytic jet vs central differences on 10x10 grid (worst {worst:.2e})",
          worst <= 1e-6)


def test_criterion_10_centroid_invariance():
    base = SourceGeometry.from_coordinates(1.0, 4.1, 2.0, 6.1)
    shifted = SourceGeometry.from_coordinates(1.0 + 7.3, 4.1 - 2.1, 2.0 + 7.3, 6.1 - 2.1)
    r1 = pipeline_point(PSF, base.s, base.p)
    r2 = pipeline_point(PSF, shifted.s, shifted.p)
    ok = (base.xbar, base.zbar) != (shifted.xbar, shifted.zbar)
    ok &= r1.h.tobytes() == r2.h.tobytes()
    ok &= r1.gamma_mat.tobytes() == r2.gamma_mat.tobytes()
    ok &= r1.rho_eigenvalues.tobytes() == r2.rho_eigenvalues.tobytes()
    check(10, "centroid-shifted geometries give bit-identical pipeline results", ok)


def test_criterion_11_sweep_determinism(tmp_path, capsys):
    argv = [
        "sweep", "--k", "1", "--zr", "2", "--sweep", "s", "--range", "0.01:5:0.01",
        "--fixed", "0.7", "--normalized",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    check(11, "repeated sweeps produce byte-identical CSV",
          first.read_bytes() == second.read_bytes())
