import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srloc.cli
import srloc.closed_forms
import srloc.gram
import srloc.psf
import srloc.routes
import srloc.sld
from srloc.cli import _CSV_BLOCK_ROWS, _CSV_KERNEL_ROWS, _csv_rows, main
from srloc.closed_forms import small_separation_limit
from srloc.psf import NATURAL, GaussianPsf
from srloc.routes import evaluate
from srloc.sld import COLUMNS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -------------------------------------------------------------------- eval


def test_eval_gaussian_closed_reference(capsys):
    record = run_json(
        capsys, "eval", "--k", "1", "--zr", "2", "--s", "1", "--p", "0",
        "--method", "gaussian-closed",
    )
    h = np.array(record["h"])
    assert h[0, 0] == 0.25
    assert h[2, 2] == 0.0625
    assert h[1, 1] == pytest.approx(0.805300, abs=1e-6)
    assert record["abs_gamma"] == pytest.approx(math.exp(-0.125), rel=1e-12)
    assert record["varsigma"] == 0.25
    assert record["parameters"] == ["s", "xbar", "p", "zbar"]
    assert record["route"] == "gaussian-closed"
    assert record["rho_eigenvalues"][0] == pytest.approx(0.941249, abs=1e-6)


def test_eval_all_methods_cross_check(capsys):
    record = run_json(
        capsys, "eval", "--k", "1", "--zr", "2", "--s", "1", "--p", "2", "--method", "all",
    )
    check = record["cross_check"]
    assert sorted(check["routes"]) == ["gaussian-closed", "general", "pipeline"]
    assert check["max_rel_deviation"] <= 1e-8
    assert check["pass"] is True


def test_eval_all_runs_the_pipeline_once(capsys, monkeypatch):
    calls = []
    block = srloc.sld._pipeline_block

    def counted(*args, **kwargs):
        calls.append(args)
        return block(*args, **kwargs)

    monkeypatch.setattr(srloc.sld, "_pipeline_block", counted)
    record = run_json(
        capsys, "eval", "--k", "1", "--zr", "2", "--s", "1", "--p", "0", "--method", "all",
    )
    assert len(calls) == 1
    assert record["route"] == "pipeline"
    assert record["rho_eigenvalues"][0] == pytest.approx(0.941249, abs=1e-6)
    assert max(abs(v) for v in record["rho_eigenvalues"][2:]) <= 1e-10


@pytest.mark.parametrize("s, p, code, message", [
    # far out: gaussian-closed takes its rows from the general forms
    ("40", "0", 0, ""),
    ("1e200", "0", 1, "pipeline fails at (s=1e+200, p=0.0): overlap jet is not finite "
     "(it overflows at this separation)"),
    ("1", "2", 0, ""),
])
def test_eval_all_computes_the_pipeline_and_the_overlap_jet_once(capsys, monkeypatch, s, p,
                                                                 code, message):
    # a failed point is read from its evaluation, and gaussian-closed reads the
    # rows it reroutes from the general method's: no route runs again
    seen = Counter()

    def counting(name, fn):
        def counted(*args):
            seen[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(srloc.sld, "pipeline", counting("pipeline", srloc.sld.pipeline))
    jet = counting("jet", srloc.psf.gaussian_overlap_jet)
    # in every module that binds it
    for module in (srloc.psf, srloc.gram, srloc.sld, srloc.closed_forms, srloc.routes):
        if hasattr(module, "gaussian_overlap_jet"):
            monkeypatch.setattr(module, "gaussian_overlap_jet", jet)
    got, _, err = run(capsys, "eval", "--k", "1", "--zr", "2", "--s", s, "--p", p,
                      "--method", "all")
    assert (got, err) == (code, message and f"error: {message}\n")
    assert seen == {"pipeline": 1, "jet": 1}


def test_eval_pipeline_refuses_coincident_sources(capsys):
    code, _, err = run(
        capsys, "eval", "--k", "1", "--zr", "2", "--s", "0", "--p", "0",
        "--method", "pipeline",
    )
    assert code == 1
    assert "limits" in err
    assert ("the pipeline does not serve the coincident-source limit at (s=0.0, p=0.0), "
            "where 1 - |gamma|^2 < 1e-10") in err


def test_eval_all_fails_where_the_routes_disagree(capsys, monkeypatch):
    true_fn = srloc.closed_forms.natural_gaussian_table

    def corrupted(s, p):
        table = true_fn(s, p)
        table[..., 1] *= 1.001  # H_xx
        return table

    monkeypatch.setattr("srloc.closed_forms.natural_gaussian_table", corrupted)
    code, out, err = run(capsys, "eval", *PSF, "--s", "1", "--p", "2", "--method", "all")
    assert code == 1
    record = json.loads(out)
    assert record["cross_check"]["pass"] is False
    assert record["cross_check"]["max_rel_deviation"] > record["cross_check"]["tol"]
    assert "cross-method deviation exceeds tolerance" in err


def test_eval_rejects_invalid_psf(capsys):
    code, _, err = run(
        capsys, "eval", "--k", "0", "--zr", "2", "--s", "1", "--p", "0",
    )
    assert code == 2
    assert "k" in err


def test_eval_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "eval", "--k", "1", "--zr", "2", "--s", "1")  # missing --p
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


def test_eval_all_reports_the_pipeline_refusal(capsys):
    code, _, err = run(
        capsys, "eval", "--k", "1", "--zr", "2", "--s", "0.001", "--p", "0", "--method", "all",
    )
    assert code == 1
    assert "(s=0.001, p=0.0)" in err and "degenerate" in err


def test_eval_all_gives_a_finite_relative_deviation_at_tiny_scales(capsys):
    # H's diagonal is about 1e-166 here, so H_ii H_jj underflows to 0
    code, out, err = run(capsys, "eval", "--method", "all", "--k", "5.11e-262", "--zr", "1.49e-26",
                         "--s", "7.36e-125", "--p", "2.03e208")
    assert code == 0, err
    assert "NaN" not in out
    assert json.loads(out)["cross_check"]["max_rel_deviation"] <= 1e-8


@pytest.mark.parametrize("s,p", [("76", "0"), ("77", "0"), ("141.42", "6.2")])
def test_eval_pipeline_serves_a_subnormal_overlap(capsys, s, p):
    # |gamma| is subnormal there: the far-separation diagonal, not a NaN
    record = run_json(capsys, "eval", "--k", "1", "--zr", "2", "--s", s, "--p", p,
                      "--method", "pipeline")
    assert record["route"] == "pipeline"
    assert np.max(np.abs(np.array(record["h"]) - np.diag([0.25, 1.0, 0.0625, 0.25]))) <= 1e-15
    assert np.max(np.abs(record["gamma_matrix"])) <= 1e-15


def test_crossval_passes_at_physical_scale(capsys):
    # every route solves the centered problem in natural units, so neither the
    # general route's phase derivative nor the pipeline's Gram matrix mixes
    # the scales k and 1/z_R when k z_R >> 1
    for scale in ("1e3", "1e4", "1e5"):
        record = run_json(capsys, "crossval", "--k", scale, "--zr", scale, "--range", "0.1:5:0.25")
        assert record["pass"] is True
        assert record["n_points_all_three_routes"] == 400


PSF = ["--k", "1", "--zr", "2"]


@pytest.mark.parametrize("argv", [
    ["sweep", *PSF, "--sweep", "s", "--fixed", "nan", "--method", "pipeline", "--out", "x.csv"],
    ["sweep", *PSF, "--sweep", "s", "--fixed", "nan", "--out", "x.csv"],
    ["sweep", *PSF, "--sweep", "p", "--range", "0:inf:1", "--out", "x.csv"],
    ["crossval", *PSF, "--range", "0.1:nan:0.5"],
    ["crb", *PSF, "--s", "nan", "--p", "1", "--nu", "1", "--m", "1", "--eps", "1"],
    ["crb", *PSF, "--from-limits", "--nu", "1", "--m", "inf", "--eps", "1"],
    ["eval", *PSF, "--s", "1", "--p", "-inf"],
    ["eval", *PSF, "--s", "1", "--p", "1", "--tol", "nan"],
    ["eval", "--k", "nan", "--zr", "2", "--s", "1", "--p", "1"],
    # z_R^2 underflows to 0, so the limit information 1/z_R^2 is not finite
    ["eval", "--k", "1", "--zr", "1e-200", "--s", "1", "--p", "1"],
    ["limits", "--k", "1", "--zr", "1e-200"],
    ["crb", "--k", "1", "--zr", "1e-200", "--from-limits", "--nu", "1", "--m", "1", "--eps", "1"],
])
def test_non_finite_numbers_are_usage_errors(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert out == "" and not (tmp_path / "x.csv").exists()



@pytest.mark.parametrize("argv", [
    ["eval", *PSF, "--s", "1", "--p", "2", "--method", "all", "--tol=-1e-8"],
    ["sweep", *PSF, "--sweep", "s", "--range", "0.1:1:0.5", "--method", "all", "--tol", "-1",
     "--out", "x.csv"],
    ["crossval", *PSF, "--range", "0.1:1:0.5", "--tol", "-1"],
])
def test_negative_tolerance_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("usage:") and "error: argument --tol:" in err
    assert out == "" and not (tmp_path / "x.csv").exists()


def test_negative_numbers_in_e_notation_are_values(capsys, tmp_path, monkeypatch):
    # argparse's own pattern for a negative number has no exponent: it read
    # "-1e-3" as an unknown option, and --p as missing its value
    monkeypatch.chdir(tmp_path)
    for option, other in (("--s", "--p"), ("--p", "--s")):
        for method in (*srloc.routes.METHODS, "all"):
            point = [*PSF, other, "1", "--method", method]
            spaced = run_json(capsys, "eval", *point, option, "-1e-3")
            assert spaced == run_json(capsys, "eval", *point, f"{option}=-1e-3")
            assert spaced[option[2:]] == -0.001
        budget = ["--nu", "1", "--m", "1", "--eps", "1"]
        assert (run_json(capsys, "crb", *PSF, other, "1", option, "-1E-3", *budget)
                == run_json(capsys, "crb", *PSF, other, "1", option, "-0.001", *budget))
    sweep = ["sweep", *PSF, "--sweep", "s", "--range", "0:1:0.5"]
    for fixed, out in (["--fixed", "-1e-3"], "a.csv"), (["--fixed=-1e-3"], "b.csv"):
        assert run(capsys, *sweep, *fixed, "--out", out) == (0, "", "")
    rows = (tmp_path / "a.csv").read_text().splitlines()
    assert (tmp_path / "b.csv").read_text().splitlines() == rows
    assert [row.split(",")[2] for row in rows[1:]] == ["-0.001"] * 3
    # a negative value reaches the typed check of its own field
    for command in (["eval", "--s", "1", "--p", "0"], ["crossval"], ["limits"]):
        code, out, err = run(capsys, command[0], "--k", "-1e3", "--zr", "2", *command[1:])
        assert (code, out, err) == (2, "", "error: wavenumber k must be positive, got -1000.0\n")


@pytest.mark.parametrize("spelling", ["-inf", "-nan", "-Infinity"])
def test_negative_non_finite_values_reach_the_finite_check(capsys, tmp_path, monkeypatch,
                                                           spelling):
    # argparse read these as options, so the value was missing instead of refused
    monkeypatch.chdir(tmp_path)
    for option, argv in (
            ("--p", ["eval", *PSF, "--s", "1", "--p", spelling]),
            ("--s", ["eval", *PSF, "--s", spelling, "--p", "1"]),
            ("--fixed", ["sweep", *PSF, "--sweep", "s", "--fixed", spelling, "--out", "x.csv"])):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {option}: expected a finite number, "
                            f"got {spelling!r}\n")
    assert not (tmp_path / "x.csv").exists()


def test_a_non_numeric_value_is_a_usage_error(capsys):
    code, out, err = run(capsys, "eval", "--k", "abc", "--zr", "2", "--s", "1", "--p", "0")
    assert code == 2 and out == ""
    assert err.startswith("usage:")
    assert err.endswith("error: argument --k: expected a finite number, got 'abc'\n")


def cli_command(*argv):
    """``python -m srloc.cli`` with ``argv``, and the environment that imports this srloc."""
    src = os.path.dirname(os.path.dirname(srloc.routes.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return [sys.executable, "-m", "srloc.cli", *argv], env


def test_crb_prints_a_model_validity_warning_as_one_line(tmp_path):
    # run as a command: pytest records warnings in process, so none reaches stderr
    budget = ["--nu", "1", "--m", "1", "--eps", "2"]
    for point in (["--from-limits"], ["--s", "1", "--p", "2"]):
        cmd, env = cli_command("crb", *PSF, *point, *budget)
        done = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True,
                              check=False)
        assert done.returncode == 0
        assert json.loads(done.stdout)["budget"]["eps"] == 2.0
        assert done.stderr == ("warning: eps = 2.0 exceeds 1: the weak-source model assumes "
                               "at most one photon per coherence interval\n")


JET_OVERFLOWS = "pipeline fails at {}: overlap jet is not finite"


@pytest.mark.parametrize("argv, message", [
    (["eval", *PSF, "--method", "pipeline", "--s", "1e200", "--p", "0"],
     JET_OVERFLOWS.format("(s=1e+200, p=0.0)")),
    (["eval", *PSF, "--method", "pipeline", "--s", "1e200", "--p", "1e200"],
     JET_OVERFLOWS.format("(s=1e+200, p=1e+200)")),
    # eval --method all reports the pipeline's own refusal
    (["eval", *PSF, "--method", "all", "--s", "1e200", "--p", "0"],
     JET_OVERFLOWS.format("(s=1e+200, p=0.0)")),
    # the first point of the grid, in grid order, where a route fails
    (["crossval", *PSF, "--range", "0:1e200:5e199"],
     "general route gives a non-finite H or Gamma at (s=5e+199, p=0.0)"),
])
def test_overflowing_jet_fails_closed(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert message in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["crossval", *PSF, "--range", "0:1e300:1e-300"],
    ["crossval", *PSF, "--range", "0:1001:1"],
    ["sweep", *PSF, "--sweep", "s", "--range", "0:1e9:1e-3", "--out", "x.csv"],
])
def test_oversized_grids_are_usage_errors(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err and "grid points" in err and "Traceback" not in err
    assert out == "" and not (tmp_path / "x.csv").exists()


def test_eval_json_round_trip_idempotent(capsys, tmp_path):
    out_file = tmp_path / "record.json"
    code, out, _ = run(
        capsys, "eval", "--k", "1", "--zr", "2", "--s", "1.5", "--p", "0.5",
        "--out", str(out_file),
    )
    assert code == 0
    text = out_file.read_text(encoding="utf-8").rstrip("\n")
    assert text == out.rstrip("\n")
    reserialized = json.dumps(json.loads(text), indent=2, sort_keys=True)
    assert reserialized == text
    assert json.dumps(json.loads(reserialized), indent=2, sort_keys=True) == reserialized


# ------------------------------------------------------------------- sweep


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_sweep_csv_schema_and_values(capsys, tmp_path):
    out = tmp_path / "s_sweep.csv"
    code, _, _ = run(
        capsys, "sweep", "--k", "1", "--zr", "2", "--sweep", "s",
        "--range", "0.01:1:0.01", "--fixed", "0", "--normalized", "--out", str(out),
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == [
        "swept_var", "s", "p", "H_ss", "H_xx", "H_pp", "H_zz", "H_xz",
        "G_sx", "G_pz", "G_sz", "G_xp", "norm_flag",
    ]
    assert len(rows) == 100
    assert all(row[0] == "s" for row in rows)
    assert all(row[3] == "1" for row in rows)          # H_ss / N constant
    assert all(row[5] == "0.25" for row in rows)       # H_pp / N constant
    assert all(row[-1] == "1" for row in rows)
    assert float(rows[0][4]) == pytest.approx(4.0, abs=1e-3)   # H_xx / N -> 4
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_sweep_axial_panel_values(capsys, tmp_path):
    out = tmp_path / "p_sweep.csv"
    code, _, _ = run(
        capsys, "sweep", "--k", "1", "--zr", "2", "--sweep", "p",
        "--range", "0.01:1:0.01", "--fixed", "0", "--normalized", "--out", str(out),
    )
    assert code == 0
    _, rows = read_csv(out)
    assert all(row[5] == "0.25" for row in rows)
    assert float(rows[0][6]) == pytest.approx(1.0, abs=1e-3)   # H_zz / N -> 1


def reference_fmt(value):
    """The per-cell CSV formatting the row formatting must reproduce."""
    value = float(value)
    if value == 0.0:  # avoid "-0" rows
        value = 0.0
    return format(value, ".17g")


def reference_rows(swept, normalized, table):
    flag = "1" if normalized else "0"
    return "".join(",".join([swept, *map(reference_fmt, row), flag]) + "\n" for row in table)


cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308]),
)


@given(rows=st.lists(st.lists(cells, min_size=11, max_size=11), min_size=1, max_size=8),
       count=st.integers(1, 2 * _CSV_KERNEL_ROWS), swept=st.sampled_from("sp"),
       normalized=st.booleans())
def test_csv_rows_match_per_cell_formatting(rows, count, swept, normalized):
    # the drawn rows, repeated to ``count`` rows: both sides of the switch to the kernel
    table = np.resize(np.array(rows), (count, 11))
    text = "".join(_csv_rows(swept, normalized, table))
    assert text == reference_rows(swept, normalized, table)
    assert "-0" not in [field for line in text.splitlines() for field in line.split(",")]


def test_csv_kernel_matches_g17_on_hard_cases():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [powers]
    for direction in (0.0, np.inf):  # +-4 ulp, across the %g switches 1e-5/1e-4 and 1e16/1e17
        x = powers
        for _ in range(4):
            x = np.nextafter(x, direction)
            near.append(x)
    values = np.concatenate([
        *near,
        np.ldexp(1.0, np.arange(-1074, 1024)),
        [5e-324, np.finfo(float).max, 0.0, -0.0, 1e-06, 1e+20],
        1e15 + np.arange(40) + 0.25,  # ties at the 17th digit, rounded half-even
        1e15 + np.arange(40) + 0.75,
    ])
    values = np.concatenate([values, -values])
    rows = max(-(-len(values) // 11), _CSV_KERNEL_ROWS)
    table = np.zeros(rows * 11)
    table[:len(values)] = values
    table = table.reshape(rows, 11)
    assert "".join(_csv_rows("s", False, table)) == reference_rows("s", False, table)


def test_csv_rows_across_blocks_and_writers():
    rng = np.random.default_rng(7)
    rows = 2 * _CSV_BLOCK_ROWS + 10  # two kernel blocks, then one formatted per row
    assert rows % _CSV_BLOCK_ROWS < _CSV_KERNEL_ROWS
    table = rng.standard_normal((rows, 11)) * 10.0 ** rng.integers(-30, 30, (rows, 11))
    table[::7, 3] = 0.0
    table[::5, 4] = -0.0
    assert "".join(_csv_rows("p", True, table)) == reference_rows("p", True, table)


def test_sweep_deterministic_byte_identical(capsys, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "sweep", "--k", "1", "--zr", "2", "--sweep", "s",
        "--range", "0.1:2:0.1", "--fixed", "1.0", "--normalized",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_parallel_matches_serial(capsys, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    argv = [
        "sweep", "--k", "1", "--zr", "2", "--sweep", "p",
        "--range", "0.1:2:0.1", "--fixed", "0.5",
    ]
    monkeypatch.setenv("QFIM_NUM_THREADS", "1")
    assert main(argv + ["--out", str(out1)]) == 0
    monkeypatch.setenv("QFIM_NUM_THREADS", "4")
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_flags_rerouted_points(capsys, tmp_path):
    out = tmp_path / "with_origin.csv"
    code, _, err = run(
        capsys, "sweep", "--k", "1", "--zr", "2", "--sweep", "s",
        "--range", "0:0.03:0.01", "--fixed", "0", "--out", str(out),
    )
    assert code == 0
    assert "coincident-source limit" in err
    _, rows = read_csv(out)
    assert len(rows) == 4
    # the (0, 0) row carries the limit values
    assert float(rows[0][4]) == 1.0  # H_xx limit = 2k/z_r


def test_sweep_all_notes_the_pipeline_refusals(capsys, tmp_path):
    # the pipeline refuses s = 0.001..0.046 at p = 0; the closed routes serve them
    argv = ["sweep", "--k", "1", "--zr", "2", "--sweep", "s", "--range", "0:0.12:0.001",
            "--fixed", "0", "--out"]
    code, out, err = run(capsys, *argv, str(tmp_path / "all.csv"), "--method", "all")
    assert code == 0 and out == ""
    notes = err.splitlines()
    assert len(notes) == 2 and "coincident-source limit" in notes[0]
    assert notes[1].startswith("note: the pipeline refused 46 grid point(s), first: "
                               "pipeline fails at (s=0.001, p=0.0): ")
    assert "degenerate" in notes[1]
    # the CSV holds the gaussian-closed rows, as without the note
    code, _, err = run(capsys, *argv, str(tmp_path / "closed.csv"))
    assert code == 0 and "pipeline" not in err
    assert (tmp_path / "all.csv").read_bytes() == (tmp_path / "closed.csv").read_bytes()
    # no note where the pipeline serves every point off the limit
    code, _, err = run(capsys, "sweep", "--k", "1", "--zr", "2", "--sweep", "s", "--range",
                       "0:1:0.25", "--fixed", "0", "--out", str(tmp_path / "x.csv"),
                       "--method", "all")
    assert code == 0 and "pipeline" not in err


def test_sweep_all_fails_where_no_point_is_compared(capsys, tmp_path):
    # near the coincident sources at s = 0 the pipeline refuses every point off the
    # limit and gaussian-closed reroutes each to the general forms: nothing is checked
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "sweep", *PSF, "--sweep", "p", "--fixed", "0",
                       "--range", "0:0.0008:0.00002", "--method", "all", "--out", str(out))
    assert (code, err) == (1, "error: no point is served by two routes\n")
    assert not out.exists()


def test_sweep_pipeline_matches_per_point_pipeline(capsys, tmp_path):
    psf = GaussianPsf(k=1.0, z_r=2.0)
    out = tmp_path / "pipeline.csv"
    code, _, err = run(
        capsys, "sweep", "--k", "1", "--zr", "2", "--sweep", "s", "--range", "0:3:0.25",
        "--fixed", "0", "--method", "pipeline", "--out", str(out),
    )
    assert code == 0
    assert "1 grid point(s)" in err
    _, rows = read_csv(out)
    assert len(rows) == 13
    h_lim, g_lim = small_separation_limit(psf)
    for row in rows:
        s, p = float(row[1]), float(row[2])
        if s == 0.0:  # below the threshold: the coincident-source limit
            h, g = h_lim, g_lim
        else:
            result = evaluate(psf, [s], [p], "pipeline")
            h, g = result.h[0], result.gamma_mat[0]
        want = [h[0, 0], h[1, 1], h[2, 2], h[3, 3], h[1, 3], g[0, 1], g[2, 3], g[0, 3], g[1, 2]]
        scale = [h[0, 0], h[1, 1], h[2, 2], h[3, 3], math.sqrt(h[1, 1] * h[3, 3]),
                 math.sqrt(h[0, 0] * h[1, 1]), math.sqrt(h[2, 2] * h[3, 3]),
                 math.sqrt(h[0, 0] * h[3, 3]), math.sqrt(h[1, 1] * h[2, 2])]
        for got, value, unit in zip(row[3:12], want, scale):
            assert abs(float(got) - value) <= 1e-12 * unit


def test_sweep_pipeline_names_first_failing_point(capsys, tmp_path):
    out = tmp_path / "refused.csv"
    code, _, err = run(
        capsys, "sweep", "--k", "1", "--zr", "2", "--sweep", "p", "--range", "0:0.1:0.01",
        "--fixed", "0", "--method", "pipeline", "--out", str(out),
    )
    assert code == 1
    assert "(s=0.0, p=0.01)" in err
    assert not out.exists()


def test_sweep_pipeline_linalg_calls_independent_of_length(capsys, tmp_path, monkeypatch):
    counts = Counter()
    for name in ("cholesky", "inv", "eigh", "eigvalsh", "solve"):
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    def calls(stop):
        counts.clear()
        out = tmp_path / "count.csv"
        assert main([
            "sweep", "--k", "1", "--zr", "2", "--sweep", "s", "--range", f"0.5:{stop}:0.01",
            "--fixed", "1", "--method", "pipeline", "--out", str(out),
        ]) == 0
        return len(read_csv(out)[1]), dict(counts)

    rows_short, short = calls(0.74)
    rows_long, long = calls(2.99)
    capsys.readouterr()
    assert (rows_short, rows_long) == (25, 250)
    # the Cholesky factor and rho's 2x2 support block are taken in closed form
    assert short == long == {}


def test_sweep_all_names_the_first_deviating_point(capsys, monkeypatch, tmp_path):
    true_fn = srloc.closed_forms.natural_gaussian_table

    def corrupted(s, p):  # H_xx off by 1e-3 from s = 1.2 on (s~ = s at k = 1, z_R = 2)
        table = true_fn(s, p)
        table[..., 1] *= np.where(np.asarray(s) >= 1.2, 1.001, 1.0)
        return table

    monkeypatch.setattr("srloc.closed_forms.natural_gaussian_table", corrupted)
    code, _, err = run(
        capsys, "sweep", "--k", "1", "--zr", "2", "--sweep", "s", "--range", "0.5:2:0.25",
        "--fixed", "1", "--method", "all", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "cross-method deviation" in err and "at (s=1.25, p=1.0)" in err


def test_sweep_unwritable_path(capsys, tmp_path):
    code, _, err = run(
        capsys, "sweep", "--k", "1", "--zr", "2", "--sweep", "s",
        "--range", "0.1:0.2:0.1", "--out", str(tmp_path / "no_dir" / "x.csv"),
    )
    assert code == 1
    assert "error:" in err and "Traceback" not in err
    code, _, err = run(capsys, "eval", *PSF, "--s", "1", "--p", "1",
                       "--out", str(tmp_path / "no_dir" / "x.json"))
    assert code == 1
    assert "error:" in err and "Traceback" not in err


def test_failing_sweep_leaves_an_existing_file_alone(capsys, tmp_path):
    # a failing sweep creates no file: test_sweep_pipeline_names_first_failing_point
    old = tmp_path / "old.csv"
    old.write_bytes(b"previous sweep\n")
    assert main(["sweep", *PSF, "--sweep", "p", "--range", "0:0.1:0.01", "--fixed", "0",
                 "--method", "pipeline", "--out", str(old)]) == 1
    assert old.read_bytes() == b"previous sweep\n"
    capsys.readouterr()


def test_sweep_rejects_bad_range(capsys, tmp_path):
    out = str(tmp_path / "x.csv")
    for bad in (["--range", "1:0:0.1"], ["--range", "0:-2:0.1"], ["--range", "0:1:-0.1"],
                ["--range=-1:1:0.1"], ["--range", "1:2"], ["--range", "a:b:c"]):
        code, _, err = run(capsys, "sweep", *PSF, "--sweep", "s", *bad, "--out", out)
        assert code == 2, bad
        assert "error:" in err and "Traceback" not in err, bad
    assert not (tmp_path / "x.csv").exists()


def test_sweep_spec_validation(capsys, tmp_path):
    out = str(tmp_path / "x.csv")
    good = ["--sweep", "s", "--range", "0:1:0.1", "--fixed", "0", "--method", "pipeline"]
    assert main(["sweep", *PSF, *good, "--out", out]) == 0
    capsys.readouterr()
    (tmp_path / "x.csv").unlink()
    for bad in (["--sweep", "q"], ["--method", "magic"]):
        code, _, err = run(capsys, "sweep", *PSF, *good, *bad, "--out", out)
        assert code == 2, bad
        assert err.startswith("usage:") and "error:" in err and "Traceback" not in err, bad
    assert not (tmp_path / "x.csv").exists()


def test_sweep_methods_agree(tmp_path, capsys):
    paths = {}
    for method in ("pipeline", "general", "gaussian-closed", "all"):
        paths[method] = tmp_path / f"{method}.csv"
        assert main(["sweep", *PSF, "--sweep", "s", "--range", "0.5:2:0.5", "--fixed", "1",
                     "--method", method, "--out", str(paths[method])]) == 0
    capsys.readouterr()
    reference = [row.split(",") for row in paths["gaussian-closed"].read_text().splitlines()[1:]]
    for method in ("pipeline", "general", "all"):
        rows = [row.split(",") for row in paths[method].read_text().splitlines()[1:]]
        for got, want in zip(rows, reference):
            for col in range(3, 12):
                assert float(got[col]) == pytest.approx(float(want[col]), abs=1e-9)


# ---------------------------------------------------------------- crossval


def test_crossval_passes_on_default_grid(capsys):
    record = run_json(capsys, "crossval", "--k", "1", "--zr", "2", "--range", "0.1:2:0.5")
    assert record["pass"] is True
    assert record["max_rel_deviation"] <= 1e-8
    assert record["sparsity_pattern_ok"] is True
    assert record["n_points"] == 16


def test_crossval_includes_zero_s_points(capsys):
    # s = 0 rows are checked pipeline-vs-general (explicit route skipped)
    record = run_json(capsys, "crossval", "--k", "1", "--zr", "2", "--range", "0:2:1")
    assert record["pass"] is True
    assert record["n_points"] > record["n_points_all_three_routes"]


def test_crossval_drops_pipeline_route_exactly_where_it_fails():
    psf = GaussianPsf(k=1.0, z_r=2.0)
    grid = [(s, p) for s in (0.0, 0.01, 0.04, 0.5) for p in (0.0, 0.02, 1.0)]
    evs = srloc.routes.all_routes(psf, *zip(*grid))
    served = srloc.routes.deviations(evs, 1e-8).served
    accepted = []
    for (s, p), routes in zip(grid, served):
        accepted.append(evaluate(psf, [s], [p], "pipeline").route == ("pipeline",))
        assert routes[srloc.routes.METHODS.index("pipeline")] == accepted[-1]
    assert any(accepted) and not all(accepted)
    assert "failed" in evs["pipeline"].route and "limit" in evs["pipeline"].route


def test_crossval_detects_corrupted_formula(capsys, monkeypatch):
    true_fn = srloc.closed_forms.natural_gaussian_table

    def corrupted(s, p):
        table = true_fn(s, p)
        table[..., 1] *= 1.001  # H_xx
        return table

    monkeypatch.setattr("srloc.closed_forms.natural_gaussian_table", corrupted)
    code, out, _ = run(capsys, "crossval", "--k", "1", "--zr", "2", "--range", "0.5:1.5:0.5")
    assert code == 1
    record = json.loads(out)
    assert record["pass"] is False
    assert record["failures"]
    assert record["per_entry_max_rel_deviation_h"][1][1] > 1e-8


# The matrix of sld.COLUMNS that a case shifts.
_MATRIX = {"gaussian_qfim": "H", "gaussian_gamma_matrix": "Gamma"}


def _shift(matrix, entries, delta):
    """natural_gaussian_table with ``entries`` of one matrix shifted by their
    sign times ``delta``.  An entry below the diagonal is the mirror image of a
    column above it, which sld.matrices writes."""
    true_fn = srloc.closed_forms.natural_gaussian_table

    def shifted(s, p):
        table = true_fn(s, p)
        for (i, j), sign in entries:
            if i <= j:
                table[..., COLUMNS.index((_MATRIX[matrix], i, j))] += sign * delta
        return table

    return shifted


@pytest.mark.parametrize("matrix, entries, delta", [
    ("gaussian_qfim", [((0, 1), 1), ((1, 0), 1)], 1e-9),          # an H zero pair
    ("gaussian_gamma_matrix", [((0, 2), 1), ((2, 0), -1)], 1e-9),  # Gamma[0, 2]
    pytest.param("gaussian_gamma_matrix", [((1, 3), 1), ((3, 1), -1)], 1e-9,  # Gamma[1, 3]
                 id="gaussian_gamma_matrix-entries3-1e-09"),
])
def test_crossval_sparsity_check_flags_each_zero_entry(capsys, monkeypatch, tmp_path, matrix,
                                                       entries, delta):
    # one verdict for the three commands that compare the routes
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("srloc.closed_forms.natural_gaussian_table",
                        _shift(matrix, entries, delta))
    for command in (["crossval", "--range", "0:2:0.5"],
                    ["eval", "--s", "1", "--p", "1", "--method", "all"],
                    ["sweep", "--sweep", "s", "--range", "0:2:0.5", "--fixed", "1",
                     "--method", "all", "--out", "x.csv"]):
        code, out, err = run(capsys, command[0], "--k", "1", "--zr", "2", *command[1:],
                             "--tol", "1")
        assert code == 1, command
        if command[0] == "crossval":
            record = json.loads(out)
            assert record["sparsity_pattern_ok"] is False and record["max_rel_deviation"] <= 1
        if command[0] == "eval":
            check = json.loads(out)["cross_check"]
            assert check["pass"] is False and check["max_rel_deviation"] <= 1
        if command[0] != "crossval":
            assert "zero pattern" in err and "at (s=" in err, command
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("matrix, entries, delta, tol, deviates", [
    ("gaussian_qfim", [((0, 1), 1), ((1, 0), 1)], 1e-9, "1", False),          # an H zero pair
    ("gaussian_gamma_matrix", [((0, 2), 1), ((2, 0), -1)], 1e-9, "1", False),  # Gamma[0, 2]
    ("gaussian_gamma_matrix", [((1, 3), 1), ((3, 1), -1)], 1e-9, "1", False),  # Gamma[1, 3]
    # a point that breaks both rules reads its deviation first
    ("gaussian_qfim", [((0, 1), 1), ((1, 0), 1)], 1e-3, "1e-8", True),
    ("gaussian_qfim", [((1, 1), 1)], 1e-3, "1e-8", True),                     # H_xx
])
def test_crossval_failures_give_each_point_its_reason(capsys, monkeypatch, matrix, entries,
                                                      delta, tol, deviates):
    monkeypatch.setattr("srloc.closed_forms.natural_gaussian_table",
                        _shift(matrix, entries, delta))
    code, out, _ = run(capsys, "crossval", *PSF, "--range", "0:2:0.5", "--tol", tol)
    failures = json.loads(out)["failures"]
    assert code == 1 and failures
    for failure in failures:
        assert failure["reason"] == (
            f"cross-method deviation exceeds tolerance: {failure['max_rel_deviation']:.3e} "
            f"> {float(tol):.1e}" if deviates
            else "a served route breaks the zero pattern of H and Gamma")


# ------------------------------------------------------------- limits, crb


def test_limits_reference(capsys):
    record = run_json(capsys, "limits", "--k", "1", "--zr", "2")
    assert record["h"] == [
        [0.25, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0625, 0.0],
        [0.0, 0.0, 0.0, 0.25],
    ]
    assert np.all(np.array(record["gamma_matrix"]) == 0.0)


def test_crb_from_limits(capsys):
    record = run_json(
        capsys, "crb", "--from-limits", "--k", "1", "--zr", "2",
        "--nu", "1000", "--m", "1", "--eps", "1",
    )
    assert record["tr_h_inv"] == pytest.approx(25.0, abs=1e-9)
    assert record["bound"] == pytest.approx(0.025, rel=1e-12)
    assert record["per_parameter_bounds"]["p"] == pytest.approx(0.016, rel=1e-12)
    assert record["condition_number"] == pytest.approx(16.0, rel=1e-9)
    assert record["h_source"] == "limits"


def test_crb_point_evaluation(capsys):
    record = run_json(
        capsys, "crb", "--k", "1", "--zr", "2", "--s", "1", "--p", "0",
        "--nu", "1", "--m", "1", "--eps", "1",
    )
    assert record["h_source"] == "gaussian-closed"
    assert record["per_parameter_bounds"]["s"] == pytest.approx(4.0, rel=1e-12)


def test_crb_inverts_h_once(capsys, monkeypatch):
    calls = []

    def counted(a, _inv=np.linalg.inv):
        calls.append(np.shape(a))
        return _inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    record = run_json(capsys, "crb", *PSF, "--s", "1", "--p", "2", "--nu", "1000", "--m", "1",
                      "--eps", "1")
    assert calls == [(4, 4)]
    assert record["tr_h_inv"] / 1000.0 == pytest.approx(record["bound"], rel=1e-15)
    assert sum(record["per_parameter_bounds"].values()) == pytest.approx(record["bound"],
                                                                         rel=1e-12)


def test_crb_invalid_budget(capsys):
    code, _, err = run(
        capsys, "crb", "--from-limits", "--k", "1", "--zr", "2",
        "--nu", "1000", "--m", "1", "--eps", "0",
    )
    assert code == 2
    assert "eps" in err


@pytest.mark.parametrize("nu, m", [("1e-200", "1e-200"), ("1e200", "1e200")])
def test_crb_rejects_a_budget_whose_product_is_not_finite_and_positive(capsys, nu, m):
    # every field is positive, but nu * m * eps underflows to 0 or overflows
    code, out, err = run(capsys, "crb", *PSF, "--s", "1", "--p", "2", "--nu", nu, "--m", m,
                         "--eps", "0.5")
    assert code == 2 and out == "" and "nu * m * eps" in err


def test_crb_fails_closed_where_the_bound_overflows(capsys):
    code, out, err = run(capsys, "crb", "--k", "3.361379129910657e-89",
                         "--zr", "1.6189050187068476e+91", "--s", "0", "--p", "0",
                         "--method", "general", "--nu", "1", "--m", "8.6289390270983e-151",
                         "--eps", "0.5")
    assert code == 1 and out == "" and err.startswith("error: ") and "overflows" in err


def test_crb_serves_a_well_posed_h_at_extreme_units(capsys):
    # H's raw eigenvalues span 5e-24 to 6.5e-7, its Jacobi scaling's only 0.82 to 1:
    # the bound is that of the natural-unit H, scaled
    k, zr, s, p = 1e-20, 1e3, 1e11, 2e3
    record = run_json(capsys, "crb", "--k", repr(k), "--zr", repr(zr), "--s", repr(s),
                      "--p", repr(p), "--nu", "1000", "--m", "1", "--eps", "1")
    psf = GaussianPsf(k=k, z_r=zr)
    natural = evaluate(NATURAL, *([x] for x in psf.natural(s, p)), "gaussian-closed")
    d2 = np.array([2.0 * k / zr, 2.0 * k / zr, 1.0 / zr**2, 1.0 / zr**2])
    want = np.diag(np.linalg.inv(natural.h[0])) / d2 / 1000.0
    assert record["h_source"] == "gaussian-closed"
    assert record["bound"] == pytest.approx(want.sum(), rel=1e-12)
    assert [record["per_parameter_bounds"][name] for name in ("s", "xbar", "p", "zbar")] == (
        pytest.approx(want, rel=1e-12))


def test_crb_fails_closed_where_the_condition_number_overflows(capsys):
    # the limit H at k = 1e155, z_R = 1e153 is diagonal, so well-posed once
    # scaled, but its eigenvalues span 2.5e-307 to 200
    code, out, err = run(capsys, "crb", "--k", "1e155", "--zr", "1e153", "--s", "0", "--p", "0",
                         "--nu", "1", "--m", "1", "--eps", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: the condition number of H overflows")


def test_crb_fails_closed_where_the_inverse_overflows(capsys):
    # the limit H there is diagonal with entries near 1e-312: well-posed once
    # scaled, but 1 / H_ii overflows
    code, out, err = run(capsys, "crb", "--k", "9.81e-231", "--zr", "5.15e81", "--s", "0",
                         "--p", "0", "--nu", "1", "--m", "1", "--eps", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: Tr(H^-1) / (nu M eps) overflows")


def test_crb_requires_point_or_limits(capsys):
    code, _, _ = run(
        capsys, "crb", "--k", "1", "--zr", "2", "--nu", "1", "--m", "1", "--eps", "1",
    )
    assert code == 2


@pytest.mark.parametrize("s, p", [("0", "0"), ("0.01", "0")])
def test_crb_pipeline_refuses_where_eval_does(capsys, s, p):
    # (0, 0) is a limit point, (0.01, 0) one the pipeline refuses
    point = ["--k", "1", "--zr", "2", "--s", s, "--p", p, "--method", "pipeline"]
    eval_code, _, eval_err = run(capsys, "eval", *point)
    code, out, err = run(capsys, "crb", *point, "--nu", "1", "--m", "1", "--eps", "1")
    assert code == eval_code == 1 and out == ""
    assert err == eval_err and err.startswith("error: ") and err.count("\n") == 1


# ------------------------------------------------------- physical extremes

# Log-uniform finite magnitudes over nearly the whole double range.
magnitudes = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("ignore::srloc.errors.ModelValidityWarning")  # eps > 1
@settings(max_examples=60, deadline=None)
@given(k=magnitudes, zr=magnitudes, s=st.just(0.0) | magnitudes, p=st.just(0.0) | magnitudes,
       nu=magnitudes, m=magnitudes, eps=magnitudes)
# eval --method general printed NaN for |gamma|: s * s overflowed in physical units
@example(k=2.3738800155595087e-198, zr=140545907.8826104, s=3.131905807565238e+173,
         p=1.8110723848240263e+236, nu=1.0, m=1.0, eps=0.5)
# the same for eval --method pipeline
@example(k=3.0881109969020816e-251, zr=4.242473674790555e+34, s=7.060573231617923e+258,
         p=3.435905594367144e+117, nu=1.0, m=1.0, eps=0.5)
# crb: nu * m * eps underflowed to 0, and Tr(H^-1) / (nu m eps) overflowed
@example(k=1.0, zr=2.0, s=1.0, p=2.0, nu=1e-200, m=1e-200, eps=0.5)
@example(k=3.361379129910657e-89, zr=1.6189050187068476e+91, s=0.0, p=0.0, nu=1.0,
         m=8.6289390270983e-151, eps=0.5)
# numpy overflow warnings: H_ii H_jj in the cross-route rule, and p / z_R
@example(k=1.0, zr=1e-78, s=0.0, p=1.0, nu=1.0, m=1.0, eps=0.5)
@example(k=4.170858320864619e+169, zr=2.8667426688795266e-97, s=4.7102269638616694e+104,
         p=2.053445288830075e+259, nu=1.0, m=1.0, eps=0.5)
def test_eval_and_crb_exit_cleanly_with_valid_json_at_physical_extremes(k, zr, s, p, nu, m, eps):
    point = ["--k", repr(k), "--zr", repr(zr), "--s", repr(s), "--p", repr(p)]
    budget = ["--nu", repr(nu), "--m", repr(m), "--eps", repr(eps)]
    argvs = [["eval", *point, "--method", method] for method in (*srloc.routes.METHODS, "all")]
    argvs += [["crb", *point, "--method", method, *budget] for method in srloc.routes.METHODS]
    for argv in argvs:
        out = io.StringIO()
        # nothing may escape main: pytest also turns numpy's RuntimeWarning into an error
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_no_constant)


@settings(max_examples=60, deadline=None)
@given(k=magnitudes, zr=magnitudes, step=magnitudes, offset=st.integers(min_value=0, max_value=5),
       count=st.integers(min_value=2, max_value=4), swept=st.sampled_from("sp"),
       fixed=st.just(0.0) | magnitudes, method=st.sampled_from((*srloc.routes.METHODS, "all")),
       normalized=st.booleans())
# --normalized divided H by k / (2 z_R) into inf cells, with a numpy overflow warning
@example(k=1e-200, zr=1e-150, step=1.0, offset=0, count=3, swept="s", fixed=0.0,
         method="general", normalized=True)
def test_crossval_and_sweep_exit_cleanly_at_physical_extremes(k, zr, step, offset, count, swept,
                                                               fixed, method, normalized):
    # grids of 2 to 4 values a side from offset * step: crossval runs all three
    # routes on up to 16 points
    start = offset * step
    grid = f"{start!r}:{start + (count - 1) * step!r}:{step!r}"
    psf = ["--k", repr(k), "--zr", repr(zr), "--range", grid]
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "sweep.csv")
        sweep = ["sweep", *psf, "--sweep", swept, "--fixed", repr(fixed), "--method", method,
                 "--out", csv_path] + (["--normalized"] if normalized else [])
        for argv in (["crossval", *psf], sweep):
            out = io.StringIO()
            # nothing may escape main: pytest also turns numpy's RuntimeWarning into an error
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if code == 0 and argv[0] == "crossval":
                json.loads(out.getvalue(), parse_constant=_no_constant)
            if code == 0 and argv[0] == "sweep":
                with open(csv_path, encoding="utf-8") as fh:
                    rows = [line.split(",") for line in fh.read().splitlines()[1:]]
                assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:12]), argv


def test_a_closed_stdout_exits_1_without_an_error_line(tmp_path):
    # a reader that closes stdout after one line, as `srloc ... | head -n 1` does; the
    # 10,000-row CSV written to stdout outgrows the pipe's buffer, so a later write fails
    cmd, env = cli_command("sweep", *PSF, "--sweep", "s", "--range", "5e-4:5:5e-4",
                           "--out", "/dev/stdout")
    with subprocess.Popen(cmd, cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"swept_var,s,p,")
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 1
    # a reader gone before the first write: the JSON record fails at the last flush
    cmd, env = cli_command("limits", *PSF)
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(cmd, cwd=tmp_path, env=env, stdout=write, stderr=subprocess.PIPE,
                              check=False, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


# -------------------------------------------------------------------- parser

OPTIONS = {
    "eval": ("--k", "--zr", "--s", "--p", "--method", "--tol", "--out"),
    "sweep": ("--k", "--zr", "--sweep", "--range", "--fixed", "--method", "--normalized",
              "--tol", "--out"),
    "crossval": ("--k", "--zr", "--range", "--tol", "--out"),
    "limits": ("--k", "--zr", "--out"),
    "crb": ("--k", "--zr", "--from-limits", "--s", "--p", "--method", "--nu", "--m", "--eps",
            "--out"),
}
TOP_USAGE = "usage: srloc [-h] {eval,sweep,crossval,limits,crb} ...\n"


@pytest.fixture
def help_width(monkeypatch):
    # argparse wraps help and usage lines to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("command", OPTIONS)
def test_subcommand_help_names_every_option(capsys, help_width, command):
    code, out, _ = run(capsys, command, "-h")
    assert code == 0
    assert out.startswith(f"usage: srloc {command} [-h]")
    assert all(f" {option} " in out for option in OPTIONS[command])


def test_top_level_help_lists_every_subcommand(capsys, help_width):
    code, out, _ = run(capsys, "-h")
    assert code == 0 and out.startswith(TOP_USAGE)
    assert all(f"    {command} " in out for command in OPTIONS)


@pytest.mark.parametrize("argv, unrecognized", [
    (["eval", *PSF, "--s", "1", "--p", "0", "--bogus", "1"], "--bogus 1"),
    # an option before the subcommand: the subcommand's own arguments still parse
    (["--bogus", "eval", *PSF, "--s", "1", "--p", "0"], "--bogus"),
])
def test_unknown_option_is_a_top_level_usage_error(capsys, help_width, argv, unrecognized):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"{TOP_USAGE}srloc: error: unrecognized arguments: {unrecognized}\n"


@pytest.mark.parametrize("argv", [["-h", "eval"], ["--help", "crossval", *PSF]])
def test_help_before_the_subcommand_is_the_top_level_help(capsys, help_width, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith(TOP_USAGE)
    assert all(f"    {command} " in out for command in OPTIONS)


@pytest.fixture
def parsers_built(monkeypatch):
    """The prog of each ``_Parser`` constructed, in order."""
    init, built = srloc.cli._Parser.__init__, []

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(srloc.cli._Parser, "__init__", counted)
    return built


@pytest.mark.parametrize("argv, code, parsers", [
    (["eval", *PSF, "--s", "1", "--p", "2"], 0, 1),
    (["sweep", *PSF, "--sweep", "s", "--range", "0.1:1:0.5", "--out", "x.csv"], 0, 1),
    (["crossval", *PSF, "--range", "0.5:1.5:0.5"], 0, 1),
    (["limits", *PSF], 0, 1),
    (["crb", "--from-limits", *PSF, "--nu", "1000", "--m", "1", "--eps", "1"], 0, 1),
    # argv that ends in top-level help or a usage error builds all five subparsers
    (["-h"], 0, 6),
    ([], 2, 6),
    (["nonsense"], 2, 6),
    (["--bogus", "eval", *PSF, "--s", "1", "--p", "0"], 2, 6),
    # the subcommand's own parser, then the whole one for the top-level error
    (["eval", *PSF, "--s", "1", "--p", "0", "--bogus", "1"], 2, 1 + 6),
])
def test_a_command_builds_only_the_subparser_it_names(capsys, monkeypatch, tmp_path,
                                                      parsers_built, argv, code, parsers):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv)[0] == code
    assert len(parsers_built) == parsers, parsers_built


@pytest.mark.parametrize("argv", [
    *(["eval", *PSF, "--s", "1", "--p", "2", *extra] for extra in
      ([], ["--meth", "all"], ["--k", "3"], ["--method=general", "--tol", "0"])),
    ["eval", "--k=1", "--zr", "2", "--s", "1", "--p", "-1e-3"],
    ["sweep", *PSF, "--sweep", "s", "--out", "x.csv"],
    ["sweep", *PSF, "--sweep", "p", "--rang", "0:1:0.5", "--fixed", "-1e-3", "--normalized",
     "--out", "x.csv", "--out", "y.csv"],
    ["crossval", *PSF],
    ["crossval", "--k=1e3", "--zr", "1e3", "--rang", "0.1:1:0.5", "--tol", "1e-6"],
    ["limits", *PSF],
    ["limits", "--zr", "2", "--k=1", "--out", "x.json"],
    ["crb", "--from", *PSF, "--nu", "1000", "--m", "1", "--eps", "1"],
    ["crb", *PSF, "--s", "1", "--p", "-1e-3", "--method", "general", "--nu", "1", "--nu", "2",
     "--m", "1", "--eps", "0.5"],
])
def test_the_command_parser_reads_argv_as_the_whole_parser_does(monkeypatch, parsers_built,
                                                                 argv):
    # every command's handler records its namespace instead of running
    seen = []
    for name in ("cmd_eval", "cmd_sweep", "cmd_crossval", "cmd_limits", "cmd_crb"):
        monkeypatch.setattr(srloc.cli, name, lambda args: seen.append(args) or 0)
    assert main(argv) == 0 and parsers_built == [f"srloc {argv[0]}"]
    whole = vars(srloc.cli.build_parser(argv).parse_args(argv))
    assert whole.pop("subcommand") == argv[0]
    assert vars(seen[0]) == whole


def test_commands_in_one_process_parse_alike(capsys, tmp_path):
    point = ["eval", *PSF, "--s", "1", "--p", "2"]
    first = run(capsys, *point)
    assert run(capsys, "sweep", *PSF, "--sweep", "s", "--range", "0.1:1:0.5",
               "--out", str(tmp_path / "x.csv"))[0] == 0
    assert run(capsys, *point) == first and first[0] == 0
