#!/usr/bin/env python3
"""Benchmark of the srloc CLI, driven in process through ``srloc.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client in one process sends
its next command when the previous one returns (a closed loop); the
benchmark starts no threads.  Commands are generated from ``--seed``
(see ``workloads.py``) and run until their summed wall time reaches
``--seconds``.  Each output is checked against a second route outside the
timed region (``checks.py``); the workload's known-defect probes then run
once, untimed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs a
quarter of the time untraced, then the rest with every srloc layer traced
(``spans.py``), and reports the per-layer metrics.  The last line of
standard output is one JSON object; a report with the seed, environment,
failures and probe outcomes goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

import workloads  # noqa: E402  (the benchmark's own modules, next to this file)
from checks import Call, Verdict, check  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import Speed  # noqa: E402

SETUP_REPEATS = 9
SETUP_ARGV = ["-m", "srloc.cli", "limits", "--k", "1", "--zr", "2"]
WARMUP_S = 0.5
SPEED_EVERY_S = 0.05   # wall time between reference-kernel samples
UNTRACED_SHARE = 0.25  # of --seconds, in a traced run, to measure the tracing overhead
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Per-layer groups: metric prefix -> the public functions whose spans it sums.
GROUPS = {
    "sld.solve_sld": ("sld.solve_sld",),
    "sld.orthonormalize": ("sld.orthonormalize",),
    "sld.compute_qfim": ("sld.compute_qfim",),
    "sld.qfim_from_jet": ("sld.qfim_from_jet",),
    "sld.gaussian_pipeline": ("sld.gaussian_pipeline",),
    "gram.build_gram": ("gram.build_gram",),
    "gram.actions": ("gram.build_rho_action", "gram.build_drho_action"),
    "psf.overlap_jet": ("psf.gaussian_overlap_jet",),
    "closed_forms.explicit": ("closed_forms.gaussian_qfim", "closed_forms.gaussian_gamma_matrix"),
    "closed_forms.general": ("closed_forms.general_qfim", "closed_forms.general_gamma_matrix"),
    "closed_forms.evaluate": ("closed_forms.evaluate_gaussian_closed",),
    # The CLI's own work: main, the cmd_* handlers and run_sweep (parsing
    # the namespace, formatting CSV and JSON), but not build_parser.
    "cli.main": ("cli.main", "cli.cmd_eval", "cli.cmd_sweep", "cli.run_sweep", "cli.cmd_crossval",
                 "cli.cmd_limits", "cli.cmd_crb"),
    "cli.build_parser": ("cli.build_parser",),
    "analysis.qcrb_total": ("analysis.qcrb_total",),
}
# (group, statistic) pairs reported per point; statistic is calls, errors or self_us.
LAYER_STATS = (
    ("sld.solve_sld", "calls"), ("sld.orthonormalize", "calls"), ("sld.solve_sld", "self_us"),
    ("sld.compute_qfim", "self_us"), ("sld.qfim_from_jet", "self_us"),
    ("sld.gaussian_pipeline", "calls"), ("sld.gaussian_pipeline", "errors"),
    ("gram.build_gram", "calls"), ("gram.build_gram", "self_us"),
    ("gram.actions", "calls"), ("gram.actions", "self_us"),
    ("psf.overlap_jet", "calls"), ("psf.overlap_jet", "self_us"),
    ("closed_forms.explicit", "self_us"), ("closed_forms.general", "self_us"),
    ("closed_forms.evaluate", "self_us"),
    ("cli.main", "self_us"), ("cli.build_parser", "self_us"),
    ("analysis.qcrb_total", "calls"), ("analysis.qcrb_total", "self_us"),
)
STAT_UNITS = {"calls": "1/point", "errors": "1/point", "self_us": "us/point"}
LINALG_COUNTS = (("sld", "cholesky"), ("sld", "inv"), ("sld", "eigh"), ("sld", "eigvalsh"),
                 ("sld", "solve"), ("gram", "eigvalsh"))
ROUTES = ("gaussian-closed", "general", "limit")


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_thread_vars": {name: os.environ.get(name) for name in BLAS_VARS},
    }


def measure_setup(repeats: int, speed: Speed) -> list[tuple[float, float]]:
    """(start, wall seconds) of fresh ``python -m srloc.cli limits`` processes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(repeats):
        speed.sample()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        times.append((start, time.perf_counter() - start))
        speed.sample()
        if proc.returncode != 0 or json.loads(proc.stdout).get("command") != "limits":
            raise RuntimeError(f"setup command failed: {proc.returncode} {proc.stderr!r}")
    return times


def call_cli(op: workloads.Op) -> Call:
    """One timed ``srloc.cli.main`` call; an escaping exception is a failed call."""
    import srloc.cli
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = srloc.cli.main(op.argv())
    except Exception as exc:  # the CLI promises exit codes; record what escapes
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Call(code, start, seconds, out.getvalue(), err.getvalue(), error)


def output_bytes(op: workloads.Op, call: Call) -> int:
    size = len(call.stdout.encode())
    if op.out and os.path.exists(op.out):
        size += os.path.getsize(op.out)
    return size


class Loop:
    """Runs operations in order, cycling, and checks each outside the timing."""

    def __init__(self, ops: list[workloads.Op], speed: Speed) -> None:
        self.ops = ops
        self.speed = speed
        self.verified: dict[workloads.Op, bytes] = {}  # digest of a checked output

    def run(self, seconds: float,
            tracer: Tracer | None = None) -> list[tuple[workloads.Op, Call, Verdict, int]]:
        results = []
        timed = 0.0
        i = 0
        while timed < seconds or not results:
            op = self.ops[i % len(self.ops)]
            i += 1
            if time.perf_counter() - self.speed.stamps[-1] >= SPEED_EVERY_S:
                self.speed.sample()
            if tracer:
                tracer.op_id = len(results)
                tracer.on = True
            call = call_cli(op)
            if tracer:
                tracer.on = False
            timed += call.seconds
            results.append((op, call, self.check(op, call), output_bytes(op, call)))
            call.stdout = call.stderr = ""  # checked; keep the run's memory flat
        self.speed.sample()
        return results

    def check(self, op: workloads.Op, call: Call) -> Verdict:
        """An output byte-identical to one already checked for the same
        command is correct; any other output gets the full check."""
        digest = hashlib.blake2b(f"{call.code}|{call.error}|{call.stdout}".encode())
        if op.out and os.path.exists(op.out):
            with open(op.out, "rb") as fh:
                digest.update(fh.read())
        if self.verified.get(op) == digest.digest():
            return Verdict(True)
        verdict = check(op, call, call_cli)
        if verdict.ok:
            self.verified[op] = digest.digest()
        return verdict


def locate_failure(op: workloads.Op) -> list[tuple[float, float]]:
    """First grid point at which a failed sweep's route fails on its own."""
    for value in op.grid():
        s, p = (value, op.fixed) if op.swept == "s" else (op.fixed, value)
        point = workloads.Op(label="locate", command="eval", method=op.method, k=op.k, zr=op.zr,
                             s=s, p=p)
        call = call_cli(point)
        if call.code != 0:
            return [(s, p)]
    return []


def run_probes(workload: str) -> list[dict]:
    report = []
    for op in workloads.probes(workload, str(OUT)):
        call = call_cli(op)
        verdict = check(op, call, call_cli)
        points = verdict.bad_points
        if not verdict.ok and not points and op.command == "sweep":
            points = locate_failure(op)
        report.append({"probe": op.label, "argv": op.argv(), "ok": verdict.ok,
                       "reason": verdict.reason, "failing_points": points[:20],
                       "n_failing_points": len(points)})
    return report


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: a value that was measured."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def scaled(call: Call, speed: Speed) -> float:
    """The call's wall time at the reference CPU speed (see speed.py)."""
    return call.seconds * speed.scale(call.start, call.start + call.seconds)


def end_to_end(results, setup: list[tuple[float, float]], speed: Speed) -> dict:
    """Throughput is points over the summed *median* time of each kind of
    command, so one command slowed by a neighbour does not move it."""
    good = [(op, scaled(call, speed)) for op, call, verdict, _ in results if verdict.ok]
    by_kind: dict[tuple, list[float]] = {}
    for op, seconds in good:
        by_kind.setdefault((op.command, op.method, op.points), []).append(seconds)
    typical = sum(len(times) * statistics.median(times) for times in by_kind.values())
    latencies = sorted(seconds * 1e3 for _, seconds in good) or [0.0]
    setup_s = statistics.median(sec * speed.scale(start, start + sec) for start, sec in setup)
    return {
        "points_per_s": (sum(op.points for op, _ in good) / typical if typical else 0.0, "1/s"),
        "latency_p50_ms": (percentile(latencies, 50), "ms"),
        "latency_p99_ms": (percentile(latencies, 99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer: Tracer, traced, untraced, speed: Speed) -> tuple[dict, list[str]]:
    points = sum(op.points for op, *_ in traced)
    wall = sum(call.seconds for _, call, *_ in traced)
    metrics, absent = {}, []
    for group, stat in LAYER_STATS:
        totals = tracer.totals(GROUPS[group])
        if totals is None:
            absent.append(group)
            totals = (0, 0, 0.0)
        calls, errors, self_s = totals
        value = {"calls": calls, "errors": errors, "self_us": self_s * 1e6}[stat]
        metrics[f"{group}.{stat}_per_point"] = (value / points, STAT_UNITS[stat])
    for layer, fn in LINALG_COUNTS:
        metrics[f"{layer}.linalg.{fn}_per_point"] = (tracer.linalg[(layer, fn)] / points,
                                                     "matrices/point")
    routed = sum(tracer.routes.values())
    for route in ROUTES:
        metrics[f"closed_forms.route_share.{route}"] = (
            tracer.routes[route] / routed if routed else 0.0, "share")
    metrics["cli.output_bytes_per_point"] = (sum(r[3] for r in traced) / points, "B/point")

    def per_point(results) -> float:
        return (sum(scaled(call, speed) for _, call, *_ in results)
                / sum(op.points for op, *_ in results))
    metrics["trace.overhead_ratio"] = (per_point(traced) / per_point(untraced), "ratio")
    metrics["trace.coverage"] = (sum(tracer.self_s) / wall, "ratio")
    return metrics, absent


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report)."""
    found_qfim = os.environ.pop("QFIM_NUM_THREADS", None)  # a knob the benchmark must not use
    OUT.mkdir(exist_ok=True)
    ops = workloads.operations(workload, seed, str(OUT))
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "why": workloads.WHY[workload], "environment": environment(),
              "qfim_num_threads_found": found_qfim, "loop": "closed, 1 client, 1 process"}
    sys.path.insert(0, str(ROOT / "src"))
    import srloc.cli  # noqa: F401  (imported before timing, as a long-lived caller would)

    speed = Speed()
    speed.sample()
    loop = Loop(ops, speed)
    loop.run(min(WARMUP_S, seconds))
    if trace:
        untraced = loop.run(seconds * UNTRACED_SHARE)
        tracer = Tracer()
        tracer.install()
        try:
            results = loop.run(seconds * (1.0 - UNTRACED_SHARE), tracer)
        finally:
            tracer.uninstall()
        metrics, absent = per_layer(tracer, results, untraced, speed)
        tracer.write(str(OUT / f"spans-{workload}.npz"))
        report["absent_functions"] = absent
        report["n_spans"] = len(tracer.span_start)
        results = untraced + results
    else:
        # Set-up is sampled before and after the loop, to span the run's load.
        before = measure_setup(setup_repeats // 2, speed)
        results = loop.run(seconds)
        setup = before + measure_setup(setup_repeats - setup_repeats // 2, speed)
        metrics = end_to_end(results, setup, speed)
        good = sorted(call.seconds for _, call, verdict, _ in results if verdict.ok) or [0.0]
        report["raw_wall_times"] = {
            "setup_s": [sec for _, sec in setup],
            "points_per_s": sum(op.points for op, _, v, _ in results if v.ok) / (sum(good) or 1.0),
            "latency_p50_ms": percentile(good, 50) * 1e3,
        }
    failures = [{"op": op.label, "argv": op.argv(), "reason": v.reason,
                 "failing_points": v.bad_points[:20]}
                for op, _, v, _ in results if not v.ok]
    report.update(
        attempted=len(results), failed=len(failures), failures=failures[:50],
        points=sum(op.points for op, *_ in results),
        probes=run_probes(workload),
        reference_kernel_ms={"median": statistics.median(speed.seconds) * 1e3,
                             "min": min(speed.seconds) * 1e3, "max": max(speed.seconds) * 1e3,
                             "samples": len(speed.seconds)},
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    )
    line = {"correct": not failures, "attempted": len(results), "failed": len(failures),
            "metrics": report["metrics"]}
    return line, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "srloc" / "cli.py").is_file():
        print(f"error: no srloc sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    line, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(OUT / f"report-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {report['attempted']} operations, "
          f"{report['points']} points, {report['failed']} failed")
    for failure in report["failures"]:
        print(f"failed: {failure['op']}: {failure['reason']} at {failure['failing_points']}")
    for probe in report["probes"]:
        outcome = "ok" if probe["ok"] else f"fails ({probe['reason']})"
        print(f"probe {probe['probe']}: {outcome} at {probe['failing_points'][:3]}")
    for name in report.get("absent_functions", []):
        print(f"absent: {name} (reported as 0)")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
