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
from typing import Iterator

import numpy as np

from . import analysis, closed_forms, routes
from .errors import InvalidParameterError, SmallSeparationError, SrlocError
from .psf import NATURAL, GaussianPsf, gaussian_overlap
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
# Rows formatted per write.  It bounds the temporaries of a long sweep, and
# keeps each below 128 kB: the allocator reuses such blocks, where larger
# ones are mapped afresh and page-faulted in on every block.
_CSV_BLOCK_ROWS = 256
# Blocks of fewer rows are formatted per row by Python (about 5 us a row).
# The kernel's fixed cost, about 100 numpy calls, is paid mostly with a cold
# cache after a sweep's evaluation: both writers took 159 us at 32 rows,
# each timed after a pipeline evaluation of as many points.
_CSV_KERNEL_ROWS = 32

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


def _nonnegative(text: str) -> float:
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
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


def _emit(record: dict, out: str | None) -> None:
    text = json.dumps(record, indent=2, sort_keys=True)
    print(text)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")


def _evaluate_point(psf: GaussianPsf, s: float, p: float, method: str) -> routes.Evaluation:
    """``routes.evaluate`` at one point.  The pipeline method must serve the
    point itself: ``eval`` and ``crb`` report its own matrices, never the
    limit in their place, and raise its refusal instead."""
    ev = routes.evaluate(psf, [s], [p], method)
    if method == "pipeline" and ev.route[0] != "pipeline":
        raise ev.error or SmallSeparationError(
            f"the pipeline does not serve the coincident-source limit at (s={s!r}, p={p!r}), "
            f"where 1 - |gamma|^2 < {closed_forms.OVERLAP_DEGENERACY_TOL:.0e}; "
            "use the `limits` command"
        )
    return ev


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
        "varsigma": closed_forms.varsigma(psf.k, psf.z_r, s, p),
    }
    ev = _evaluate_point(psf, s, p, "pipeline" if args.method == "all" else args.method)
    route = ev.route[0]
    if args.method == "all":  # the other routes only once the pipeline has served
        evs = {method: ev if method == "pipeline" else routes.evaluate(psf, [s], [p], method)
               for method in routes.METHODS}
    h, g = ev.h[0], ev.gamma_mat[0]
    # in natural units, as the routes take it: s * s can overflow in physical ones
    record["abs_gamma"] = ag = float(abs(gaussian_overlap(NATURAL, *psf.natural(s, p))))
    if ev.rho_eigenvalues is not None:
        rho_eigs = ev.rho_eigenvalues[0].tolist()
    else:
        rho_eigs = [0.5 * (1.0 + ag), 0.5 * (1.0 - ag), 0.0, 0.0, 0.0, 0.0]
    if args.method == "all":
        dev = routes.deviations(evs)
        max_rel = float(dev.max_rel[0])
        record["cross_check"] = {
            "routes": sorted(m for m, served in zip(routes.METHODS, dev.served[0]) if served),
            "max_abs_deviation": float(dev.max_abs[0]),
            "max_rel_deviation": max_rel,
            "tol": args.tol,
            "pass": max_rel <= args.tol,
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
    blocks of ``_CSV_BLOCK_ROWS``.

    Every float is written as C's ``"%.17g"`` writes it: the exact binary
    value rounded half-even to 17 significant digits, locale-independent,
    with ``-0`` written ``0``.  Blocks of at least ``_CSV_KERNEL_ROWS`` rows
    go through the numpy kernel of ``_g17``, the others through Python's
    ``%``, which gives the same bytes.
    """
    flag = "1" if normalized else "0"
    row = ",".join([swept, *["%.17g"] * 11, flag]) + "\n"
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[start:start + _CSV_BLOCK_ROWS]
        if len(block) < _CSV_KERNEL_ROWS:
            yield "".join([row % tuple(values) for values in (block + 0.0).tolist()])
        else:
            from . import _g17  # imported by the sweeps that use it, not by every command

            yield _g17.format_rows(block, f"{swept},", f"{flag}\n")


def cmd_sweep(args: argparse.Namespace) -> int:
    """Evaluate a sweep and write the CSV, rows in grid order."""
    start, stop, step = _parse_range(args.range)
    psf = GaussianPsf(k=args.k, z_r=args.zr)
    values = _grid(start, stop, step)
    fixed = np.full_like(values, args.fixed)
    s, p = (values, fixed) if args.sweep == "s" else (fixed, values)
    if args.method == "all":
        evs = routes.all_routes(psf, s, p)
        dev = routes.deviations(evs)
        over = np.flatnonzero(dev.compared & (dev.max_rel > args.tol))
        if len(over):
            i = over[0]
            raise SrlocError(f"cross-method deviation {float(dev.max_rel[i]):.3e} > "
                             f"{args.tol:.1e} at (s={float(s[i])!r}, p={float(p[i])!r})")
        ev = evs["gaussian-closed"]
    else:
        ev = routes.evaluate(psf, s, p, args.method)
        if ev.error is not None:
            raise ev.error

    if "limit" in ev.route:
        print(
            f"note: {ev.route.count('limit')} grid point(s) below the degeneracy threshold "
            "were served by the coincident-source limit",
            file=sys.stderr,
        )
    if args.method == "all" and evs["pipeline"].error is not None:
        print(f"note: the pipeline refused {evs['pipeline'].route.count('failed')} grid "
              f"point(s), first: {evs['pipeline'].error}", file=sys.stderr)
    norm = psf.k / (2.0 * psf.z_r) if args.normalized else 1.0
    table = np.empty((len(s), 11))
    table[:, 0] = s
    table[:, 1] = p
    table[:, 2:7] = ev.h[:, _H_ENTRIES[0], _H_ENTRIES[1]] / norm
    table[:, 7:] = ev.gamma_mat[:, _G_ENTRIES[0], _G_ENTRIES[1]]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(_csv_rows(args.sweep, args.normalized, table))
    return EXIT_OK


def cmd_crossval(args: argparse.Namespace) -> int:
    psf = GaussianPsf(k=args.k, z_r=args.zr)
    start, stop, step = _parse_range(args.range)
    values = _grid(start, stop, step, dims=2)

    grid_s = np.repeat(values, len(values))
    grid_p = np.tile(values, len(values))
    evs = routes.all_routes(psf, grid_s, grid_p)
    dev = routes.deviations(evs)
    counted = dev.compared
    n_points = int(np.count_nonzero(counted))
    n_full = int(np.count_nonzero(dev.served.all(axis=1)))
    # points with fewer than two served routes read 0 here
    max_abs = float(dev.max_abs.max(initial=0.0))
    max_rel = float(dev.max_rel.max(initial=0.0))
    over = np.flatnonzero(counted & (dev.max_rel > args.tol))[:20]
    failures = [{"s": float(grid_s[i]), "p": float(grid_p[i]),
                 "max_rel_deviation": float(dev.max_rel[i])} for i in over]
    sparsity_ok = bool(np.all(dev.sparsity_ok, where=counted))

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
        "per_entry_max_rel_deviation_h": dev.rel_h.tolist(),
        "per_entry_max_rel_deviation_gamma": dev.rel_g.tolist(),
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
        ev = _evaluate_point(psf, args.s, args.p, args.method)
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


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The ``srloc`` parser, with the arguments of subcommand ``command`` only.

    A call parses one subcommand, so the other four's arguments would be
    added and never read; adding them all was about 40% of building the
    parser, itself most of a one-point ``eval``.  Every subparser is still
    created with its help, so ``srloc -h``, an unknown subcommand and the
    top-level usage line of an error read as they would with every argument
    added.  Where ``command`` names no subcommand, none gets arguments, and
    the top-level parser exits with its help or a usage error on its own.
    """
    parser = argparse.ArgumentParser(
        prog="srloc",
        description="Quantum estimation limits for the angular and axial "
        "separations of two incoherent point sources.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", help="evaluate H and Gamma at one (s, p)")
    if command == "eval":
        _add_psf_args(p_eval)
        p_eval.add_argument("--s", type=_finite, required=True, help="angular separation")
        p_eval.add_argument("--p", type=_finite, required=True, help="axial separation")
        p_eval.add_argument("--method", choices=METHODS, default="gaussian-closed")
        p_eval.add_argument("--tol", type=_nonnegative, default=1e-8, help="cross-check tolerance")
        p_eval.add_argument("--out", help="also write the JSON record to this path")
        p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="sweep s or p and write CSV")
    if command == "sweep":
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
        p_sweep.add_argument(
            "--tol", type=_nonnegative, default=1e-8, help="method=all check tolerance"
        )
        p_sweep.add_argument("--out", required=True, help="output CSV path")
        p_sweep.set_defaults(func=cmd_sweep)

    p_cross = sub.add_parser("crossval", help="three-route consistency over an (s, p) grid")
    if command == "crossval":
        _add_psf_args(p_cross)
        p_cross.add_argument(
            "--range", default="0.1:5:0.25", help="grid for both s and p, start:stop:step"
        )
        p_cross.add_argument("--tol", type=_nonnegative, default=1e-8, help="relative tolerance")
        p_cross.add_argument("--out", help="also write the JSON report to this path")
        p_cross.set_defaults(func=cmd_crossval)

    p_lim = sub.add_parser("limits", help="coincident-source limit matrices")
    if command == "limits":
        _add_psf_args(p_lim)
        p_lim.add_argument("--out", help="also write the JSON record to this path")
        p_lim.set_defaults(func=cmd_limits)

    p_crb = sub.add_parser("crb", help="total-variance Cramer-Rao bound")
    if command == "crb":
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
    argv = sys.argv[1:] if argv is None else argv
    # argparse dispatches a subcommand named by the first argument not an option
    parser = build_parser(next((arg for arg in argv if not arg.startswith("-")), None))
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
