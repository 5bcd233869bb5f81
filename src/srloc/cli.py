"""Command-line interface: the ``srloc`` subcommands of ``SUBCOMMANDS``.

A command parses with its subcommand's own ``ArgumentParser``; the whole
``srloc`` parser is built only for top-level help and usage errors.  Exit
codes: 0 success, 1 numerical/model failure or a closed stdout, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings
from typing import Iterator

import numpy as np

from . import analysis, closed_forms, routes
from .errors import InvalidParameterError, ModelValidityWarning, SmallSeparationError, SrlocError
from .psf import NATURAL, GaussianPsf, gaussian_overlap
from .sld import PARAMETERS, matrices

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


def _grid(text: str, dims: int = 1) -> np.ndarray:
    """The values start + i * step up to stop of ``--range`` start:stop:step,
    for a grid of ``dims`` axes.  Raises ``InvalidParameterError`` where the
    text is malformed and, before allocating them, where the grid would have
    more than ``MAX_GRID_POINTS`` points."""
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


def _raise_failure(*evs: routes.Evaluation) -> None:
    """Raise the error of the first of ``evs`` with a failed point."""
    for ev in evs:
        if ev.error is not None:
            raise ev.error


def _evaluate_point(psf: GaussianPsf, s: float, p: float, method: str) -> dict:
    """The evaluations of ``method`` at one point, of every route for ``all``,
    in METHODS order.  The pipeline must serve the point itself: ``eval`` and
    ``crb`` raise its refusal, before any other route's failure, and never report the limit."""
    evs = (routes.all_routes(psf, [s], [p]) if method == "all"
           else {method: routes.evaluate(psf, [s], [p], method)})
    if "pipeline" in evs and evs["pipeline"].route[0] == "limit":
        raise SmallSeparationError(
            f"the pipeline does not serve the coincident-source limit at (s={s!r}, p={p!r}), "
            f"where 1 - |gamma|^2 < {closed_forms.OVERLAP_DEGENERACY_TOL:.0e}; "
            "use the `limits` command")
    _raise_failure(*evs.values())
    return evs


def _first(mask: np.ndarray, s, p) -> str:
    """The text " at (s=..., p=...)" of the first point in ``mask``, or "" for none."""
    return "".join(f" at (s={float(s[i])!r}, p={float(p[i])!r})" for i in np.flatnonzero(mask)[:1])


def cmd_eval(args: argparse.Namespace) -> int:
    psf = GaussianPsf(k=args.k, z_r=args.zr)
    s, p = args.s, args.p
    evs = _evaluate_point(psf, s, p, args.method)
    ev = evs["pipeline" if args.method == "all" else args.method]
    h, g = matrices(ev.table[0])
    # in natural units, as the routes take it: s * s can overflow in physical ones
    ag = float(abs(gaussian_overlap(NATURAL, *psf.natural(s, p))))
    record: dict = {
        "command": "eval",
        "method": args.method,
        "k": psf.k,
        "zr": psf.z_r,
        "s": s,
        "p": p,
        "parameters": list(PARAMETERS),
        "varsigma": closed_forms.varsigma(psf.k, psf.z_r, s, p),
        "abs_gamma": ag,
        "route": ev.route[0],
        "h": h.tolist(),
        "gamma_matrix": g.tolist(),
        "rho_eigenvalues": (ev.rho_eigenvalues[0].tolist() if ev.rho_eigenvalues is not None
                            else [0.5 * (1.0 + ag), 0.5 * (1.0 - ag), 0.0, 0.0, 0.0, 0.0]),
    }
    if args.method == "all":
        check = routes.deviations(evs, args.tol)
        record["cross_check"] = {
            "routes": sorted(m for m, served in zip(routes.METHODS, check.served[0]) if served),
            "max_abs_deviation": float(check.max_abs[0]),
            "max_rel_deviation": float(check.max_rel[0]),
            "tol": args.tol,
            "pass": check.passed,
        }
    _emit(record, args.out)
    if args.method == "all" and not check.passed:
        print(f"error: {check.reason} at (s={s!r}, p={p!r})", file=sys.stderr)
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
    values = _grid(args.range)
    psf = GaussianPsf(k=args.k, z_r=args.zr)
    fixed = np.full_like(values, args.fixed)
    s, p = (values, fixed) if args.sweep == "s" else (fixed, values)
    if args.method == "all":
        evs = routes.all_routes(psf, s, p)
        _raise_failure(evs["general"], evs["gaussian-closed"])
        check = routes.deviations(evs, args.tol)
        if not check.passed:
            raise SrlocError(check.reason + _first(check.failed, s, p))
        ev = evs["gaussian-closed"]
    else:
        ev = routes.evaluate(psf, s, p, args.method)
        _raise_failure(ev)

    norm = psf.k / (2.0 * psf.z_r) if args.normalized else 1.0
    table = np.empty((len(s), 11))
    table[:, 0] = s
    table[:, 1] = p
    with np.errstate(over="ignore"):  # H / N beyond the double range is refused below
        table[:, 2:7] = ev.table[:, :5] / norm
    finite = np.isfinite(table[:, 2:7]).all(axis=1)
    if not finite.all():
        raise SrlocError(f"--normalized H / (k / (2 z_R)) overflows{_first(~finite, s, p)}")
    table[:, 7:] = ev.table[:, 5:9]

    if "limit" in ev.route:
        print(
            f"note: {ev.route.count('limit')} grid point(s) below the degeneracy threshold "
            "were served by the coincident-source limit",
            file=sys.stderr,
        )
    if args.method == "all" and evs["pipeline"].error is not None:
        print(f"note: the pipeline refused {evs['pipeline'].route.count('failed')} grid "
              f"point(s), first: {evs['pipeline'].error}", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(_csv_rows(args.sweep, args.normalized, table))
    return EXIT_OK


def cmd_crossval(args: argparse.Namespace) -> int:
    psf = GaussianPsf(k=args.k, z_r=args.zr)
    values = _grid(args.range, dims=2)
    grid_s, grid_p = np.repeat(values, len(values)), np.tile(values, len(values))
    evs = routes.all_routes(psf, grid_s, grid_p)
    _raise_failure(evs["general"], evs["gaussian-closed"])
    check = routes.deviations(evs, args.tol)
    record = {
        "command": "crossval",
        "k": psf.k,
        "zr": psf.z_r,
        "range": args.range,
        "tol": args.tol,
        "n_points": check.n_points,
        "n_points_all_three_routes": check.n_full,
        # points with fewer than two served routes read 0 here
        "max_abs_deviation": float(check.max_abs.max(initial=0.0)),
        "max_rel_deviation": float(check.max_rel.max(initial=0.0)),
        "per_entry_max_rel_deviation_h": check.rel_h.tolist(),
        "per_entry_max_rel_deviation_gamma": check.rel_g.tolist(),
        "sparsity_pattern_ok": bool(np.all(check.sparsity_ok, where=check.compared)),
        "failures": [{"s": float(grid_s[i]), "p": float(grid_p[i]), "reason": check.why(i),
                      "max_rel_deviation": float(check.max_rel[i])}
                     for i in np.flatnonzero(check.failed)[:20]],
        "pass": check.passed,
    }
    _emit(record, args.out)
    return EXIT_OK if check.passed else EXIT_NUMERICAL


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
        ev = _evaluate_point(psf, args.s, args.p, args.method)[args.method]
        h, source = ev.h[0], ev.route[0]
    record = {
        "command": "crb",
        "k": psf.k,
        "zr": psf.z_r,
        "h_source": source,
        "budget": {"nu": budget.nu, "m": budget.m, "eps": budget.eps},
        **analysis.cramer_rao(h, budget),
    }
    _emit(record, args.out)
    return EXIT_OK


def _add_psf_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=_finite, required=True, help="wavenumber (inverse length)")
    parser.add_argument("--zr", type=_finite, required=True, help="Rayleigh-type length z_R")


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads ``-1e-3`` as a negative number, not as
    an option; ``add_subparsers`` gives the subcommands the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # private to argparse, whose pattern has no exponent (^-\d+$|^-\d*\.\d+$ on 3.11);
        # -inf and -nan read as values too, which _finite then refuses
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


def _eval_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--s", type=_finite, required=True, help="angular separation")
    parser.add_argument("--p", type=_finite, required=True, help="axial separation")
    parser.add_argument("--method", choices=METHODS, default="gaussian-closed")
    parser.add_argument("--tol", type=_nonnegative, default=1e-8, help="cross-check tolerance")
    parser.add_argument("--out", help="also write the JSON record to this path")
    parser.set_defaults(func=cmd_eval)


def _sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sweep", choices=("s", "p"), required=True, help="swept variable")
    parser.add_argument("--range", default="0:5:0.01",
                        help="swept grid as start:stop:step (default 0:5:0.01)")
    parser.add_argument("--fixed", type=_finite, default=0.0,
                        help="value of the non-swept separation")
    parser.add_argument("--method", choices=METHODS, default="gaussian-closed")
    parser.add_argument("--normalized", action="store_true",
                        help="divide H columns by N = k/(2 z_R)")
    parser.add_argument("--tol", type=_nonnegative, default=1e-8, help="method=all check tolerance")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.set_defaults(func=cmd_sweep)


def _crossval_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--range", default="0.1:5:0.25",
                        help="grid for both s and p, start:stop:step")
    parser.add_argument("--tol", type=_nonnegative, default=1e-8, help="relative tolerance")
    parser.add_argument("--out", help="also write the JSON report to this path")
    parser.set_defaults(func=cmd_crossval)


def _limits_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="also write the JSON record to this path")
    parser.set_defaults(func=cmd_limits)


def _crb_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--from-limits", action="store_true", help="use the limit H")
    parser.add_argument("--s", type=_finite, help="angular separation (point evaluation)")
    parser.add_argument("--p", type=_finite, help="axial separation (point evaluation)")
    parser.add_argument("--method", choices=METHODS[:3], default="gaussian-closed")
    parser.add_argument("--nu", type=_finite, required=True, help="number of runs")
    parser.add_argument("--m", type=_finite, required=True, help="coherence intervals per run")
    parser.add_argument("--eps", type=_finite, required=True, help="mean photons per interval")
    parser.add_argument("--out", help="also write the JSON record to this path")
    parser.set_defaults(func=cmd_crb)


# name -> (help, the function that adds its arguments after --k and --zr), in `srloc -h` order
SUBCOMMANDS = {
    "eval": ("evaluate H and Gamma at one (s, p)", _eval_arguments),
    "sweep": ("sweep s or p and write CSV", _sweep_arguments),
    "crossval": ("three-route consistency over an (s, p) grid", _crossval_arguments),
    "limits": ("coincident-source limit matrices", _limits_arguments),
    "crb": ("total-variance Cramer-Rao bound", _crb_arguments),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The whole ``srloc`` parser, for help and usage errors: all five subparsers,
    and the arguments of the one that the first argument not an option names."""
    parser = _Parser(
        prog="srloc",
        description="Quantum estimation limits for the angular and axial "
        "separations of two incoherent point sources.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, (help_text, add_arguments) in SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        if name == command:  # where argparse dispatches
            _add_psf_args(subparser)
            add_arguments(subparser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run ``srloc`` on ``argv`` (default ``sys.argv[1:]``); returns the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    named = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    try:  # argparse exits with 2 on usage errors
        if named:  # the subparser build_parser would add, alone; the whole parser
            # parses only what it leaves unrecognized, or argv that names none first
            parser = _Parser(prog=f"srloc {named}")
            _add_psf_args(parser)
            SUBCOMMANDS[named][1](parser)
            args, unrecognized = parser.parse_known_args(argv[1:])
        if not named or unrecognized:
            args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # a ModelValidityWarning prints as one "warning:" line, as the "note:" and
    # "error:" lines do; other warnings keep their format
    format_warning = warnings.formatwarning
    warnings.formatwarning = lambda message, category, *where: (
        f"warning: {message}\n" if issubclass(category, ModelValidityWarning)
        else format_warning(message, category, *where))
    try:
        return args.func(args)
    except BrokenPipeError:  # a closed stdout is no error line: see entrypoint
        raise
    except (SrlocError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, InvalidParameterError) else EXIT_NUMERICAL
    finally:
        warnings.formatwarning = format_warning


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # a reader closed stdout: Python's signal docs' recipe, exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_NUMERICAL
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
