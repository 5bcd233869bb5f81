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

import numpy as np

from . import analysis, closed_forms
from .errors import (
    DegenerateOverlapError,
    InvalidParameterError,
    SmallSeparationError,
    SrlocError,
)
from .psf import GaussianPsf, gaussian_constants, gaussian_overlap, gaussian_overlap_jet
from .sld import PARAMETERS, PipelineStack, gaussian_pipeline, gaussian_pipeline_stack

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

METHODS = ("pipeline", "general", "gaussian-closed", "all")

CSV_COLUMNS = (
    "swept_var", "s", "p",
    "H_ss", "H_xx", "H_pp", "H_zz", "H_xz",
    "G_sx", "G_pz", "G_sz", "G_xp",
    "norm_flag",
)


def _fmt(value: float) -> str:
    """Fixed 17-significant-digit, locale-independent float formatting."""
    value = float(value)
    if value == 0.0:  # avoid "-0" rows
        value = 0.0
    return format(value, ".17g")


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidParameterError(f"--range must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError as exc:
        raise InvalidParameterError(f"non-numeric --range component in {text!r}") from exc
    if start < 0.0 or step <= 0.0 or stop <= start:
        raise InvalidParameterError(
            f"--range needs start >= 0, step > 0, stop > start; got {text!r}"
        )
    return start, stop, step


def _grid(start: float, stop: float, step: float) -> list[float]:
    count = int(math.floor((stop - start) / step + 1e-6)) + 1
    return [start + i * step for i in range(count)]


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
        if self.start < 0.0 or self.step <= 0.0 or self.stop <= self.start:
            raise InvalidParameterError(
                f"need start >= 0, step > 0, stop > start; got "
                f"{self.start}:{self.stop}:{self.step}"
            )

    @property
    def norm(self) -> float:
        return self.psf.k / (2.0 * self.psf.z_r) if self.normalized else 1.0

    def grid(self) -> list[float]:
        return _grid(self.start, self.stop, self.step)

    def separations(self, value: float) -> tuple[float, float]:
        return (value, self.fixed) if self.swept == "s" else (self.fixed, value)


def _geometric_scale(h: np.ndarray) -> np.ndarray:
    diag = np.abs(np.diag(h))
    return np.sqrt(np.outer(diag, diag))


def _pipeline_routes(psf: GaussianPsf, points: list[tuple[float, float]]) -> list[tuple]:
    """(h, gamma, route) per point on the stacked pipeline; points below the
    small-separation threshold fall back to the coincident-source limit with
    route='limit'.  Raises the error of the first point the pipeline refuses."""
    stack = gaussian_pipeline_stack(psf, *zip(*points))
    if stack.error is not None:
        raise stack.error
    h_lim, g_lim = closed_forms.small_separation_limit(psf)
    return [
        (h_lim, g_lim, "limit") if below else (h, g, "pipeline")
        for h, g, below in zip(stack.h, stack.gamma_mat, stack.limit)
    ]


def _route_matrices(psf: GaussianPsf, s: float, p: float, method: str):
    """(h, gamma, route) for one method; small-separation points fall back
    to the coincident-source limit with route='limit'."""
    if method == "gaussian-closed":
        return closed_forms.evaluate_gaussian_closed(psf, s, p)
    if method == "general":
        try:
            jet = gaussian_overlap_jet(psf, s, p)
            consts = gaussian_constants(psf)
            return (
                closed_forms.general_qfim(jet, consts),
                closed_forms.general_gamma_matrix(jet, consts),
                "general",
            )
        except DegenerateOverlapError:
            h, g = closed_forms.small_separation_limit(psf)
            return h, g, "limit"
    if method == "pipeline":
        return _pipeline_routes(psf, [(s, p)])[0]
    raise InvalidParameterError(f"unknown method {method!r}")


def _available_routes(
    psf: GaussianPsf, points: list[tuple[float, float]]
) -> tuple[list[dict[str, tuple]], PipelineStack]:
    """All routes that accept each (s, p), for cross-validation, and the
    pipeline stack behind the 'pipeline' entries (one pass over all points)."""
    stack = gaussian_pipeline_stack(psf, *zip(*points))
    consts = gaussian_constants(psf)
    per_point = []
    for i, (s, p) in enumerate(points):
        routes: dict[str, tuple] = {}
        if not (stack.limit[i] or stack.failed[i]):
            routes["pipeline"] = (stack.h[i], stack.gamma_mat[i])
        try:
            jet = gaussian_overlap_jet(psf, s, p)
            routes["general"] = (
                closed_forms.general_qfim(jet, consts),
                closed_forms.general_gamma_matrix(jet, consts),
            )
        except DegenerateOverlapError:
            pass
        try:
            inp = closed_forms.GaussianClosedFormInput.from_psf(psf, s, p)
            routes["gaussian-closed"] = (
                closed_forms.gaussian_qfim(inp),
                closed_forms.gaussian_gamma_matrix(inp),
            )
        except SmallSeparationError:
            pass
        per_point.append(routes)
    return per_point, stack


def _cross_deviations(routes: dict[str, tuple]) -> tuple[float, float]:
    """Max absolute and scale-relative deviation over route pairs, H and Gamma."""
    names = sorted(routes)
    max_abs = 0.0
    max_rel = 0.0
    for i, a in enumerate(names):
        scale = _geometric_scale(routes[a][0])
        for b in names[i + 1:]:
            for idx in (0, 1):
                dev = np.abs(routes[a][idx] - routes[b][idx])
                max_abs = max(max_abs, float(dev.max()))
                max_rel = max(max_rel, float((dev / scale).max()))
    return max_abs, max_rel


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
        "abs_gamma": abs(gaussian_overlap(psf, s, p)),
        "varsigma": closed_forms.varsigma(psf.k, psf.z_r, s, p),
    }
    if args.method == "pipeline":
        result = gaussian_pipeline(psf, s, p)  # SmallSeparationError -> exit 1
        h, g, route = result.qfim.h, result.qfim.gamma_mat, "pipeline"
        rho_eigs = [float(v) for v in result.rho_eigenvalues]
    elif args.method == "all":
        [routes], stack = _available_routes(psf, [(s, p)])
        if "pipeline" not in routes:
            raise SmallSeparationError(
                "pipeline route unavailable at this separation; use the `limits` command"
            )
        max_abs, max_rel = _cross_deviations(routes)
        record["cross_check"] = {
            "routes": sorted(routes),
            "max_abs_deviation": max_abs,
            "max_rel_deviation": max_rel,
            "tol": args.tol,
            "pass": max_rel <= args.tol,
        }
        (h, g), route = routes["pipeline"], "pipeline"
        rho_eigs = [float(v) for v in stack.rho_eigenvalues[0]]
    else:
        h, g, route = _route_matrices(psf, s, p, args.method)
        ag = record["abs_gamma"]
        rho_eigs = [0.5 * (1.0 + ag), 0.5 * (1.0 - ag), 0.0, 0.0, 0.0, 0.0]
    record["route"] = route
    record["h"] = [[float(v) for v in row] for row in h]
    record["gamma_matrix"] = [[float(v) for v in row] for row in g]
    record["rho_eigenvalues"] = rho_eigs
    _emit(record, args.out)
    if "cross_check" in record and not record["cross_check"]["pass"]:
        print("error: cross-method deviation exceeds tolerance", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def run_sweep(spec: SweepSpec, out_path: str, tol: float = 1e-8) -> int:
    """Evaluate a sweep and write the CSV, rows in grid order."""
    values = spec.grid()
    points = [spec.separations(value) for value in values]
    norm = spec.norm
    norm_flag = 1 if spec.normalized else 0

    if spec.method == "pipeline":
        results = _pipeline_routes(spec.psf, points)
    elif spec.method == "all":
        results = []
        for (s, p), routes in zip(points, _available_routes(spec.psf, points)[0]):
            if len(routes) >= 2:
                _, max_rel = _cross_deviations(routes)
                if max_rel > tol:
                    raise SrlocError(
                        f"cross-method deviation {max_rel:.3e} > {tol:.1e} "
                        f"at (s={s!r}, p={p!r})"
                    )
            results.append(_route_matrices(spec.psf, s, p, "gaussian-closed"))
    else:
        results = [_route_matrices(spec.psf, s, p, spec.method) for s, p in points]

    rerouted = [value for value, (_, _, route) in zip(values, results) if route == "limit"]
    if rerouted:
        print(
            f"note: {len(rerouted)} grid point(s) below the degeneracy threshold "
            "were served by the coincident-source limit",
            file=sys.stderr,
        )
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for (s, p), (h, g, _) in zip(points, results):
            row = ",".join(
                [spec.swept, _fmt(s), _fmt(p)]
                + [_fmt(v / norm) for v in (h[0, 0], h[1, 1], h[2, 2], h[3, 3], h[1, 3])]
                + [_fmt(v) for v in (g[0, 1], g[2, 3], g[0, 3], g[1, 2])]
                + [str(norm_flag)]
            )
            fh.write(row + "\n")
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
    values = _grid(start, stop, step)

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

    grid = [(s, p) for s in values for p in values]
    for (s, p), routes in zip(grid, _available_routes(psf, grid)[0]):
        if len(routes) < 2:
            continue
        n_points += 1
        n_full += len(routes) == 3
        scale = _geometric_scale(next(iter(routes.values()))[0])
        names = sorted(routes)
        point_rel = 0.0
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                dev_h = np.abs(routes[a][0] - routes[b][0])
                dev_g = np.abs(routes[a][1] - routes[b][1])
                per_entry_h = np.maximum(per_entry_h, dev_h / scale)
                per_entry_g = np.maximum(per_entry_g, dev_g / scale)
                max_abs = max(max_abs, float(dev_h.max()), float(dev_g.max()))
                point_rel = max(
                    point_rel, float((dev_h / scale).max()), float((dev_g / scale).max())
                )
        max_rel = max(max_rel, point_rel)
        if point_rel > args.tol and len(failures) < 20:
            failures.append({"s": s, "p": p, "max_rel_deviation": point_rel})
        for h, g in routes.values():
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
        "per_entry_max_rel_deviation_h": [[float(v) for v in row] for row in per_entry_h],
        "per_entry_max_rel_deviation_gamma": [[float(v) for v in row] for row in per_entry_g],
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
        "h": [[float(v) for v in row] for row in h],
        "gamma_matrix": [[float(v) for v in row] for row in g],
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
        h, _, source = _route_matrices(psf, args.s, args.p, args.method)
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
    parser.add_argument("--k", type=float, required=True, help="wavenumber (inverse length)")
    parser.add_argument("--zr", type=float, required=True, help="Rayleigh-type length z_R")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srloc",
        description="Quantum estimation limits for the angular and axial "
        "separations of two incoherent point sources.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", help="evaluate H and Gamma at one (s, p)")
    _add_psf_args(p_eval)
    p_eval.add_argument("--s", type=float, required=True, help="angular separation")
    p_eval.add_argument("--p", type=float, required=True, help="axial separation")
    p_eval.add_argument("--method", choices=METHODS, default="gaussian-closed")
    p_eval.add_argument("--tol", type=float, default=1e-8, help="cross-check tolerance")
    p_eval.add_argument("--out", help="also write the JSON record to this path")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="sweep s or p and write CSV")
    _add_psf_args(p_sweep)
    p_sweep.add_argument("--sweep", choices=("s", "p"), required=True, help="swept variable")
    p_sweep.add_argument(
        "--range", default="0:5:0.01", help="swept grid as start:stop:step (default 0:5:0.01)"
    )
    p_sweep.add_argument(
        "--fixed", type=float, default=0.0, help="value of the non-swept separation"
    )
    p_sweep.add_argument("--method", choices=METHODS, default="gaussian-closed")
    p_sweep.add_argument(
        "--normalized", action="store_true",
        help="divide H columns by N = k/(2 z_R)",
    )
    p_sweep.add_argument("--tol", type=float, default=1e-8, help="method=all check tolerance")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cross = sub.add_parser("crossval", help="three-route consistency over an (s, p) grid")
    _add_psf_args(p_cross)
    p_cross.add_argument(
        "--range", default="0.1:5:0.25", help="grid for both s and p, start:stop:step"
    )
    p_cross.add_argument("--tol", type=float, default=1e-8, help="relative tolerance")
    p_cross.add_argument("--out", help="also write the JSON report to this path")
    p_cross.set_defaults(func=cmd_crossval)

    p_lim = sub.add_parser("limits", help="coincident-source limit matrices")
    _add_psf_args(p_lim)
    p_lim.add_argument("--out", help="also write the JSON record to this path")
    p_lim.set_defaults(func=cmd_limits)

    p_crb = sub.add_parser("crb", help="total-variance Cramer-Rao bound")
    _add_psf_args(p_crb)
    p_crb.add_argument("--from-limits", action="store_true", help="use the limit H")
    p_crb.add_argument("--s", type=float, help="angular separation (point evaluation)")
    p_crb.add_argument("--p", type=float, help="axial separation (point evaluation)")
    p_crb.add_argument("--method", choices=METHODS[:3], default="gaussian-closed")
    p_crb.add_argument("--nu", type=float, required=True, help="number of runs")
    p_crb.add_argument("--m", type=float, required=True, help="coherence intervals per run")
    p_crb.add_argument("--eps", type=float, required=True, help="mean photons per interval")
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
