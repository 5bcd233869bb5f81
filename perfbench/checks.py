"""Output checks, run outside the timed region.

Each check compares an operation's output with a second route, obtained
through the same public CLI with another ``--method``, by the rule that
``crossval`` applies: |difference| / sqrt(H_ii H_jj) <= 1e-8 for every
entry (i, j) of H and Gamma.  A check returns the (s, p) it rejected, so
failures are reported, never dropped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from workloads import Op

REL_TOL = 1e-8  # crossval's default --tol

CSV_COLUMNS = (
    "swept_var", "s", "p",
    "H_ss", "H_xx", "H_pp", "H_zz", "H_xz",
    "G_sx", "G_pz", "G_sz", "G_xp",
    "norm_flag",
)
# (i, j) in the parameter order (s, xbar, p, zbar) of each value column.
H_ENTRIES = ((0, 0), (1, 1), (2, 2), (3, 3), (1, 3))
G_ENTRIES = ((0, 1), (2, 3), (0, 3), (1, 2))

# The route a second opinion comes from, by the method that produced the output.
COMPANION = {
    "pipeline": "general",
    "gaussian-closed": "general",
    "general": "gaussian-closed",
    "all": "gaussian-closed",
}


@dataclass
class Call:
    """Outcome of one ``srloc.cli.main`` call."""

    code: int | None              # None when an exception escaped main
    start: float                  # time.perf_counter() at the call
    seconds: float
    stdout: str
    stderr: str
    error: str = ""               # "Type: message" of an escaped exception


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    bad_points: list[tuple[float, float]] = field(default_factory=list)


Runner = Callable[[Op], Call]


def _failed_call(call: Call) -> str:
    if call.code is None:
        return f"exception {call.error}"
    if call.code != 0:
        return f"exit {call.code}: {(call.stderr.strip().splitlines() or [''])[-1]}"
    return ""


def companion_method(op: Op) -> str:
    # Below the explicit-form threshold both closed methods serve s by the
    # general route, so only the pipeline is a different route there.
    tiny_s = op.s if op.command != "sweep" else (op.fixed if op.swept == "p" else math.inf)
    if op.method != "pipeline" and tiny_s < 1e-5 * max(1.0 / op.k, op.zr):
        return "pipeline"
    return COMPANION[op.method]


def scaled_deviation(h_a, g_a, h_b, g_b) -> np.ndarray:
    """crossval's rule for (stacks of) two (H, Gamma) pairs, scaled by the
    first H: the largest scaled entry deviation of each pair."""
    diag = np.abs(np.diagonal(h_a, axis1=-2, axis2=-1))
    scale = np.sqrt(diag[..., :, None] * diag[..., None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.maximum(np.abs(h_a - h_b), np.abs(g_a - g_b)) / scale
    return np.max(dev, axis=(-2, -1))


def read_sweep(op: Op, path: str) -> tuple[np.ndarray, str]:
    """(rows x 11 float array of s, p and the value columns, problem) of one CSV."""
    with open(path, encoding="utf-8") as fh:
        header, _, body = fh.read().partition("\n")
    if tuple(header.split(",")) != CSV_COLUMNS:
        return np.empty((0, 11)), f"bad header {header!r}"
    rows = [line.split(",") for line in body.splitlines()]
    if len(rows) != op.points:
        return np.empty((0, 11)), f"{len(rows)} rows, expected {op.points}"
    if any(len(row) != len(CSV_COLUMNS) for row in rows):
        return np.empty((0, 11)), "row with a wrong number of columns"
    cells = np.array(rows)
    if not (np.all(cells[:, 0] == op.swept) and np.all(cells[:, -1] == str(int(op.normalized)))):
        return np.empty((0, 11)), "wrong swept_var or norm_flag column"
    try:
        return cells[:, 1:-1].astype(float), ""
    except ValueError as exc:
        return np.empty((0, 11)), f"non-numeric cell: {exc}"


def _sweep_matrices(op: Op, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norm = op.k / (2.0 * op.zr) if op.normalized else 1.0
    n = len(table)
    h = np.zeros((n, 4, 4))
    g = np.zeros((n, 4, 4))
    for col, (i, j) in enumerate(H_ENTRIES):
        h[:, i, j] = h[:, j, i] = table[:, 2 + col] * norm
    for col, (i, j) in enumerate(G_ENTRIES):
        g[:, i, j] = table[:, 7 + col]
        g[:, j, i] = -table[:, 7 + col]
    return h, g


def check_sweep_csv(op: Op, path: str, reference: str) -> Verdict:
    """Check the CSV at ``path`` against ``reference``, the same grid by another route."""
    table, problem = read_sweep(op, path)
    if problem:
        return Verdict(False, problem)
    other, problem = read_sweep(op, reference)
    if problem:
        return Verdict(False, f"reference route: {problem}")
    grid = np.array(op.grid())
    expected = np.empty((len(grid), 2))
    expected[:, 0 if op.swept == "s" else 1] = grid
    expected[:, 1 if op.swept == "s" else 0] = op.fixed
    off_grid = np.abs(table[:, :2] - expected) > 1e-12 * np.maximum(1.0, np.abs(expected))
    h_a, g_a = _sweep_matrices(op, table)
    h_b, g_b = _sweep_matrices(op, other)
    dev = scaled_deviation(h_a, g_a, h_b, g_b)
    bad = off_grid.any(axis=1) | ~(dev <= REL_TOL)
    if not bad.any():
        return Verdict(True)
    points = [(float(s), float(p)) for s, p in table[bad, :2]]
    return Verdict(False, f"{len(points)} row(s) off grid or beyond {REL_TOL:.0e} "
                          f"(worst {np.nanmax(dev):.2e})", points)


def _json(call: Call) -> dict:
    try:
        return json.loads(call.stdout)
    except json.JSONDecodeError:
        return {}


def check(op: Op, call: Call, run: Runner) -> Verdict:
    """Check one operation's outcome; ``run`` executes the second-route call."""
    problem = _failed_call(call)
    if problem and op.command != "crossval":
        return Verdict(False, problem, [(op.s, op.p)] if op.command in ("eval", "crb") else [])
    if op.command == "sweep":
        reference = op.with_method(companion_method(op), out=op.out + ".ref")
        ref_call = run(reference)
        problem = _failed_call(ref_call)
        if problem:
            return Verdict(False, f"reference route {reference.method}: {problem}")
        return check_sweep_csv(op, op.out, reference.out)
    record = _json(call)
    if op.command == "crossval":
        side = len(op.grid())
        if problem or record.get("pass") is not True or record.get("n_points") != side * side:
            bad = [(f["s"], f["p"]) for f in record.get("failures", [])]
            return Verdict(False, f"{problem or 'exit 0'}; pass={record.get('pass')} "
                                  f"n_points={record.get('n_points')} "
                                  f"max_rel_deviation={record.get('max_rel_deviation')}", bad)
        return Verdict(True)
    ref_call = run(op.with_method(companion_method(op)))
    problem = _failed_call(ref_call)
    reference = _json(ref_call)
    here = [(op.s, op.p)]
    if problem:
        return Verdict(False, f"reference route: {problem}", here)
    if op.command == "eval":
        try:
            dev = float(scaled_deviation(
                np.array(record["h"]), np.array(record["gamma_matrix"]),
                np.array(reference["h"]), np.array(reference["gamma_matrix"])))
        except (KeyError, ValueError) as exc:
            return Verdict(False, f"malformed eval record: {exc!r}", here)
        if op.method == "all" and record.get("cross_check", {}).get("pass") is not True:
            return Verdict(False, f"cross_check {record.get('cross_check')}", here)
        if record.get("s") != op.s or record.get("p") != op.p or not dev <= REL_TOL:
            return Verdict(False, f"eval deviates from {companion_method(op)} by {dev:.2e}", here)
        return Verdict(True)
    # crb: a perturbation of H by REL_TOL (scaled) moves Tr(H^-1) by at most
    # about 4 * REL_TOL * cond(H) relative to itself.
    try:
        bound, other = float(record["bound"]), float(reference["bound"])
        tol = 4.0 * REL_TOL * float(record["condition_number"])
        photons = record["budget"]["nu"] * record["budget"]["m"] * record["budget"]["eps"]
        consistent = math.isclose(record["tr_h_inv"] / photons, bound, rel_tol=1e-12)
    except (KeyError, TypeError, ValueError) as exc:
        return Verdict(False, f"malformed crb record: {exc!r}", here)
    if not (bound > 0.0 and consistent and abs(bound - other) <= tol * bound):
        return Verdict(False, f"crb bound {bound!r} vs {other!r} (tol {tol:.1e})", here)
    return Verdict(True)

