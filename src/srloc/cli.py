"""Command-line interface.

Subcommands:

* ``eval``      single-point H and Gamma with diagnostics (JSON)
* ``sweep``     1-D parameter sweep to CSV (figure-ready data)
* ``crossval``  three-route consistency check over an (s, p) grid (JSON)
* ``limits``    coincident-source limit matrices (JSON)
* ``crb``       total-variance Cramer-Rao bound for a photon budget (JSON)

Exit codes: 0 success, 1 numerical/model failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import analysis, closed_forms, routes
from .errors import InvalidParameterError, SmallSeparationError, SrlocError
from .psf import GaussianPsf, gaussian_overlap
from .sld import PARAMETERS

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

METHODS = (*routes.METHODS, "all")

CSV_COLUMNS = (
    "swept_var", "s", "p",
    "H_ss", "H_xx", "H_pp", "H_zz", "H_xz",
    "G_sx", "G_pz", "G_sz", "G_xp",
    "norm_flag",
)
# (row, column) of the H and Gamma entries in the CSV value columns.
_H_ENTRIES = ([0, 1, 2, 3, 1], [0, 1, 2, 3, 3])
_G_ENTRIES = ([0, 2, 0, 1], [1, 3, 3, 2])
# Rows formatted per write: bounds the Python floats held for a long sweep.
_CSV_BLOCK_ROWS = 4096

# Most points a sweep, or a crossval grid (the square of its --range), may
# have: each point holds about 1 kB of arrays while it is evaluated.
MAX_GRID_POINTS = 10**6


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidParameterError(f"--range must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError as exc:
        raise InvalidParameterError(f"non-numeric --range component in {text!r}") from exc
    if not (0.0 <= start < stop < math.inf and 0.0 < step < math.inf):
        raise InvalidParameterError(
            f"--range needs finite start >= 0, step > 0, stop > start; got {text!r}"
        )
    return start, stop, step


def _grid(start: float, stop: float, step: float, dims: int = 1) -> np.ndarray:
    """The values start + i * step up to stop, for a grid of ``dims`` axes.

    Raises ``InvalidParameterError``, before allocating them, where the
    grid would have more than ``MAX_GRID_POINTS`` points.
    """
    span = (stop - start) / step + 1e-6  # overflows to inf for 0:1e300:1e-300
    count = math.floor(span) + 1 if math.isfinite(span) else math.inf
    if count ** dims > MAX_GRID_POINTS:
        raise InvalidParameterError(
            f"--range {start!r}:{stop!r}:{step!r} gives {count ** dims} grid points, "
            f"more than {MAX_GRID_POINTS}"
        )
    return start + np.arange(count) * step


@dataclass(frozen=True)
class SweepSpec:
    """Validated configuration of a 1-D separation sweep."""

    psf: GaussianPsf
    swept: str                # "s" or "p"
    start: float
    stop: float
    step: float
    fixed: float              # value of the non-swept separation
    method: str
    normalized: bool          # divide H columns by N = k/(2 z_R)

    def __post_init__(self) -> None:
        if self.swept not in ("s", "p"):
            raise InvalidParameterError(f"swept variable must be 's' or 'p', got {self.swept!r}")
        if self.method not in METHODS:
            raise InvalidParameterError(f"method must be one of {METHODS}, got {self.method!r}")
        if not (0.0 <= self.start < self.stop < math.inf and 0.0 < self.step < math.inf):
            raise InvalidParameterError(
                f"need finite start >= 0, step > 0, stop > start; got "
                f"{self.start}:{self.stop}:{self.step}"
            )

    @property
    def norm(self) -> float:
        return self.psf.k / (2.0 * self.psf.z_r) if self.normalized else 1.0

    def grid(self) -> np.ndarray:
        return _grid(self.start, self.stop, self.step)

    def separations(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(s, p) at the swept ``values``."""
        fixed = np.full_like(values, self.fixed)
        return (values, fixed) if self.swept == "s" else (fixed, values)


def _emit(record: dict, out: str | None) -> None:
    text = json.dumps(record, indent=2, sort_keys=True)
    print(text)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")


def cmd_eval(args: argparse.Namespace) -> int:
    psf = GaussianPsf(k=args.k, z_r=args.zr)
    s, p = args.s, args.p
    record: dict = {
        "command": "eval",
        "method": args.method,
        "k": psf.k,
        "zr": psf.z_r,
        "s": s,
        "p": p,
        "parameters": list(PARAMETERS),
        "abs_gamma": float(abs(gaussian_overlap(psf, s, p))),
        "varsigma": closed_forms.varsigma(psf.k, psf.z_r, s, p),
    }
    if args.method == "all":
        [served], evs = routes.all_routes(psf, [s], [p])
        ev = evs["pipeline"]
    else:
        ev = routes.evaluate(psf, [s], [p], args.method)
    route = ev.route[0]
    if args.method in ("pipeline", "all") and route != "pipeline":
        # eval reports the pipeline's own matrices, never the limit in their place
        raise ev.error or SmallSeparationError(
            f"separations (s={s!r}, p={p!r}) below the pipeline threshold; "
            "use the `limits` command"
        )
    h, g = ev.h[0], ev.gamma_mat[0]
    if ev.rho_eigenvalues is not None:
        rho_eigs = ev.rho_eigenvalues[0].tolist()
    else:
        ag = record["abs_gamma"]
        rho_eigs = [0.5 * (1.0 + ag), 0.5 * (1.0 - ag), 0.0, 0.0, 0.0, 0.0]
    if args.method == "all":
        dev = routes.deviations(served)
        record["cross_check"] = {
            "routes": sorted(served),
            "max_abs_deviation": dev.max_abs,
            "max_rel_deviation": dev.max_rel,
            "tol": args.tol,
            "pass": dev.max_rel <= args.tol,
        }
    record["route"] = route
    record["h"] = h.tolist()
    record["gamma_matrix"] = g.tolist()
    record["rho_eigenvalues"] = rho_eigs
    _emit(record, args.out)
    if "cross_check" in record and not record["cross_check"]["pass"]:
        print("error: cross-method deviation exceeds tolerance", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _csv_rows(swept: str, normalized: bool, table: np.ndarray) -> Iterator[str]:
    """CSV rows of an (N, 11) table of s, p and the nine value columns, in
    blocks: fixed 17-significant-digit, locale-independent floats, no "-0"."""
    table = table + 0.0  # -0.0 + 0.0 is 0.0
    row = ",".join([swept, *["%.17g"] * 11, "1" if normalized else "0"]) + "\n"
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[start:start + _CSV_BLOCK_ROWS].tolist()
        yield "".join([row % tuple(values) for values in block])


def run_sweep(spec: SweepSpec, out_path: str, tol: float = 1e-8) -> int:
    """Evaluate a sweep and write the CSV, rows in grid order."""
    s, p = spec.separations(spec.grid())
    if spec.method == "all":
        per_point, evs = routes.all_routes(spec.psf, s, p)
        for a, b, served in zip(s.tolist(), p.tolist(), per_point):
            if len(served) < 2:
                continue
            max_rel = routes.deviations(served).max_rel
            if max_rel > tol:
                raise SrlocError(
                    f"cross-method deviation {max_rel:.3e} > {tol:.1e} at (s={a!r}, p={b!r})"
                )
        ev = evs["gaussian-closed"]
    else:
        ev = routes.evaluate(spec.psf, s, p, spec.method)
        if ev.error is not None:
            raise ev.error

    if "limit" in ev.route:
        print(
            f"note: {ev.route.count('limit')} grid point(s) below the degeneracy threshold "
            "were served by the coincident-source limit",
            file=sys.stderr,
        )
    table = np.empty((len(s), 11))
    table[:, 0] = s
    table[:, 1] = p
    table[:, 2:7] = ev.h[:, _H_ENTRIES[0], _H_ENTRIES[1]] / spec.norm
    table[:, 7:] = ev.gamma_mat[:, _G_ENTRIES[0], _G_ENTRIES[1]]
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(_csv_rows(spec.swept, spec.normalized, table))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    start, stop, step = _parse_range(args.range)
    spec = SweepSpec(
        psf=GaussianPsf(k=args.k, z_r=args.zr),
        swept=args.sweep,
        start=start,
        stop=stop,
        step=step,
        fixed=args.fixed,
        method=args.method,
        normalized=args.normalized,
    )
    return run_sweep(spec, args.out, tol=args.tol)


def cmd_crossval(args: argparse.Namespace) -> int:
    psf = GaussianPsf(k=args.k, z_r=args.zr)
    start, stop, step = _parse_range(args.range)
    values = _grid(start, stop, step, dims=2)

    max_abs = 0.0
    max_rel = 0.0
    per_entry_h = np.zeros((4, 4))
    per_entry_g = np.zeros((4, 4))
    sparsity_ok = True
    failures: list[dict] = []
    n_points = 0
    n_full = 0

    h_zero_pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
    g_zero_pairs = [(0, 2)]

    grid_s = np.repeat(values, len(values))
    grid_p = np.tile(values, len(values))
    per_point, _ = routes.all_routes(psf, grid_s, grid_p)
    for s, p, served in zip(grid_s.tolist(), grid_p.tolist(), per_point):
        if len(served) < 2:
            continue
        n_points += 1
        n_full += len(served) == 3
        dev = routes.deviations(served)
        per_entry_h = np.maximum(per_entry_h, dev.rel_h)
        per_entry_g = np.maximum(per_entry_g, dev.rel_g)
        max_abs = max(max_abs, dev.max_abs)
        max_rel = max(max_rel, dev.max_rel)
        if dev.max_rel > args.tol and len(failures) < 20:
            failures.append({"s": s, "p": p, "max_rel_deviation": dev.max_rel})
        scale = dev.scale
        for h, g in served.values():
            for i, j in h_zero_pairs:
                if abs(h[i, j]) > 1e-10 * scale[i, j]:
                    sparsity_ok = False
            for i, j in g_zero_pairs:
                if abs(g[i, j]) > 1e-10 * scale[i, j]:
                    sparsity_ok = False
            if float(np.max(np.abs(g + g.T))) > 1e-12:
                sparsity_ok = False

    passed = max_rel <= args.tol and sparsity_ok and n_points > 0
    record = {
        "command": "crossval",
        "k": psf.k,
        "zr": psf.z_r,
        "range": args.range,
        "tol": args.tol,
        "n_points": n_points,
        "n_points_all_three_routes": n_full,
        "max_abs_deviation": max_abs,
        "max_rel_deviation": max_rel,
        "per_entry_max_rel_deviation_h": per_entry_h.tolist(),
        "per_entry_max_rel_deviation_gamma": per_entry_g.tolist(),
        "sparsity_pattern_ok": sparsity_ok,
        "failures": failures,
        "pass": passed,
    }
    _emit(record, args.out)
    return EXIT_OK if passed else EXIT_NUMERICAL


def cmd_limits(args: argparse.Namespace) -> int:
    psf = GaussianPsf(k=args.k, z_r=args.zr)
    h, g = closed_forms.small_separation_limit(psf)
    record = {
        "command": "limits",
        "k": psf.k,
        "zr": psf.z_r,
        "parameters": list(PARAMETERS),
        "h": h.tolist(),
        "gamma_matrix": g.tolist(),
    }
    _emit(record, args.out)
    return EXIT_OK


def cmd_crb(args: argparse.Namespace) -> int:
    psf = GaussianPsf(k=args.k, z_r=args.zr)
    budget = analysis.EstimationBudget(nu=args.nu, m=args.m, eps=args.eps)
    if args.from_limits:
        h, _ = closed_forms.small_separation_limit(psf)
        source = "limits"
    else:
        if args.s is None or args.p is None:
            raise InvalidParameterError("crb needs either --from-limits or both --s and --p")
        ev = routes.evaluate(psf, [args.s], [args.p], args.method)
        if ev.error is not None:
            raise ev.error
        h, source = ev.h[0], ev.route[0]
    bound = analysis.qcrb_total(h, budget)
    h_inv = np.linalg.inv(h)
    record = {
        "command": "crb",
        "k": psf.k,
        "zr": psf.z_r,
        "h_source": source,
        "budget": {"nu": budget.nu, "m": budget.m, "eps": budget.eps},
        "tr_h_inv": float(np.trace(h_inv)),
        "bound": bound,
        "per_parameter_bounds": {
            name: float(h_inv[i, i]) / budget.total_photons
            for i, name in enumerate(PARAMETERS)
        },
        "condition_number": float(np.linalg.cond(h)),
    }
    _emit(record, args.out)
    return EXIT_OK


def _add_psf_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=_finite, required=True, help="wavenumber (inverse length)")
    parser.add_argument("--zr", type=_finite, required=True, help="Rayleigh-type length z_R")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srloc",
        description="Quantum estimation limits for the angular and axial "
        "separations of two incoherent point sources.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", help="evaluate H and Gamma at one (s, p)")
    _add_psf_args(p_eval)
    p_eval.add_argument("--s", type=_finite, required=True, help="angular separation")
    p_eval.add_argument("--p", type=_finite, required=True, help="axial separation")
    p_eval.add_argument("--method", choices=METHODS, default="gaussian-closed")
    p_eval.add_argument("--tol", type=_finite, default=1e-8, help="cross-check tolerance")
    p_eval.add_argument("--out", help="also write the JSON record to this path")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="sweep s or p and write CSV")
    _add_psf_args(p_sweep)
    p_sweep.add_argument("--sweep", choices=("s", "p"), required=True, help="swept variable")
    p_sweep.add_argument(
        "--range", default="0:5:0.01", help="swept grid as start:stop:step (default 0:5:0.01)"
    )
    p_sweep.add_argument(
        "--fixed", type=_finite, default=0.0, help="value of the non-swept separation"
    )
    p_sweep.add_argument("--method", choices=METHODS, default="gaussian-closed")
    p_sweep.add_argument(
        "--normalized", action="store_true",
        help="divide H columns by N = k/(2 z_R)",
    )
    p_sweep.add_argument("--tol", type=_finite, default=1e-8, help="method=all check tolerance")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cross = sub.add_parser("crossval", help="three-route consistency over an (s, p) grid")
    _add_psf_args(p_cross)
    p_cross.add_argument(
        "--range", default="0.1:5:0.25", help="grid for both s and p, start:stop:step"
    )
    p_cross.add_argument("--tol", type=_finite, default=1e-8, help="relative tolerance")
    p_cross.add_argument("--out", help="also write the JSON report to this path")
    p_cross.set_defaults(func=cmd_crossval)

    p_lim = sub.add_parser("limits", help="coincident-source limit matrices")
    _add_psf_args(p_lim)
    p_lim.add_argument("--out", help="also write the JSON record to this path")
    p_lim.set_defaults(func=cmd_limits)

    p_crb = sub.add_parser("crb", help="total-variance Cramer-Rao bound")
    _add_psf_args(p_crb)
    p_crb.add_argument("--from-limits", action="store_true", help="use the limit H")
    p_crb.add_argument("--s", type=_finite, help="angular separation (point evaluation)")
    p_crb.add_argument("--p", type=_finite, help="axial separation (point evaluation)")
    p_crb.add_argument("--method", choices=METHODS[:3], default="gaussian-closed")
    p_crb.add_argument("--nu", type=_finite, required=True, help="number of runs")
    p_crb.add_argument("--m", type=_finite, required=True, help="coherence intervals per run")
    p_crb.add_argument("--eps", type=_finite, required=True, help="mean photons per interval")
    p_crb.add_argument("--out", help="also write the JSON record to this path")
    p_crb.set_defaults(func=cmd_crb)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SrlocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
