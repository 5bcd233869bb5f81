"""Seeded operation lists for the four benchmark workloads.

Each operation is one argv for ``srloc.cli.main``; the program sees only
that argv, never the seed.  Timed operations stay inside the box that the
acceptance suite certifies: the swept separation runs over [0.1, 5] and
the fixed one is any value in [0, 5].  Every route accepts every point of
that box, so no timed operation fails.

Inputs outside the box that fail today are *probes*: each run executes
its workload's probes once, untimed, and reports their outcome and the
failing (s, p).  A later fix shows as a probe that starts to pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

K, ZR = 1.0, 2.0

# Start of the certified box for the swept separation.
BOX_START = 0.1
BOX_SPAN = 4.9

# Grid steps.  Commands are kept to 20-30 ms so that a run holds hundreds of
# them, enough for its medians and tail to be steady on a shared host.
PIPELINE_STEP = 0.2       # 25 points
CLOSED_STEP = 0.008       # 613 points
CROSSVAL_STEP = 1.0       # 5 x 5 points
CROSSVAL_SIDE = 5

# The four panels of scripts/localization_curves.py as (swept, fixed).
PANELS = (("s", 0.0), ("s", 2.0), ("p", 0.0), ("p", 1.0))

WHY = {
    "sweep-pipeline": "sweeps on the numerical SLD route, where psf, gram and sld do ~90% "
    "of the work; a batched or fused SLD core shows here",
    "sweep-closed": "dense closed-form sweeps that bypass sld; a pipeline change should not "
    "move them, vectorised closed forms or cheaper CSV output should",
    "crossval": "three-route cross-check grids with one JSON record each; sharing the overlap "
    "jet or collapsing the route logic shows here",
    "point-queries": "single-point eval and crb requests where per-call overhead (argparse, "
    "analysis) dominates; per-call set-up added by a batched core shows as latency",
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output check needs to know."""

    label: str
    command: str                  # sweep | crossval | eval | crb
    method: str = "gaussian-closed"
    points: int = 1               # grid points, or 1 for a single-point request
    k: float = K
    zr: float = ZR
    swept: str = ""               # sweep: "s" or "p"
    fixed: float = 0.0            # sweep: value of the other separation
    start: float = 0.0            # sweep, crossval: start:stop:step
    stop: float = 0.0
    step: float = 0.0
    normalized: bool = False
    s: float = 0.0                # eval, crb
    p: float = 0.0
    out: str = ""                 # sweep: CSV path

    def argv(self) -> list[str]:
        psf = ["--k", repr(self.k), "--zr", repr(self.zr)]
        if self.command == "sweep":
            argv = ["sweep", *psf, "--sweep", self.swept, "--range", self.range_text(),
                    "--fixed", repr(self.fixed), "--method", self.method, "--out", self.out]
            return argv + (["--normalized"] if self.normalized else [])
        if self.command == "crossval":
            return ["crossval", *psf, "--range", self.range_text()]
        if self.command == "eval":
            return ["eval", *psf, "--s", repr(self.s), "--p", repr(self.p), "--method", self.method]
        if self.command == "crb":
            return ["crb", *psf, "--s", repr(self.s), "--p", repr(self.p), "--method", self.method,
                    "--nu", "100", "--m", "1000", "--eps", "0.01"]
        raise ValueError(f"unknown command {self.command!r}")

    def range_text(self) -> str:
        return f"{self.start!r}:{self.stop!r}:{self.step!r}"

    def grid(self) -> list[float]:
        """The swept values, computed the way the CLI documents --range."""
        count = int(math.floor((self.stop - self.start) / self.step + 1e-6)) + 1
        return [self.start + i * self.step for i in range(count)]

    def with_method(self, method: str, out: str = "") -> "Op":
        return replace(self, method=method, out=out or self.out)


def _sweep(label, method, swept, fixed, start, step, normalized, out, stop=None) -> Op:
    op = Op(label=label, command="sweep", method=method, swept=swept, fixed=fixed,
            start=start, stop=start + BOX_SPAN if stop is None else stop, step=step,
            normalized=normalized, out=out)
    return replace(op, points=len(op.grid()))


def _seeded_sweeps(rng: random.Random, methods, step: float, out: str) -> list[Op]:
    ops = []
    for i, method in enumerate(methods):
        swept = rng.choice("sp")
        fixed = rng.uniform(0.0, 5.0)
        start = rng.uniform(BOX_START, 2 * BOX_START)
        ops.append(_sweep(f"seeded {swept}-sweep #{i} ({method}, fixed {fixed:.3f})", method,
                          swept, fixed, start, step, rng.random() < 0.5, out))
    return ops


def _crossval(label, start, step=CROSSVAL_STEP, stop=None, k=K, zr=ZR) -> Op:
    op = Op(label=label, command="crossval", k=k, zr=zr, start=start,
            stop=start + (CROSSVAL_SIDE - 1) * step if stop is None else stop, step=step)
    return replace(op, points=len(op.grid()) ** 2)


POINT_MIX = (
    ("eval", "gaussian-closed"),
    ("eval", "pipeline"),
    ("eval", "general"),
    ("eval", "all"),
    ("crb", "gaussian-closed"),
)
POINT_REQUESTS = 5000
# Distinct seeded commands per workload: a run repeats few inputs, so a
# cache inside srloc would gain no more here than users' distinct inputs give it.
SEEDED_SWEEPS = 300


def operations(workload: str, seed: int, out_dir: str) -> list[Op]:
    """The timed operations of ``workload``, in the order they are run."""
    rng = random.Random(f"{workload}:{seed}")
    csv = f"{out_dir}/{workload}.csv"
    if workload == "sweep-pipeline":
        ops = [_sweep(f"figure panel {sw}-sweep, fixed {fx}", "pipeline", sw, fx, BOX_START,
                      PIPELINE_STEP, True, csv) for sw, fx in PANELS]
        ops += _seeded_sweeps(rng, ["pipeline"] * SEEDED_SWEEPS, PIPELINE_STEP, csv)
    elif workload == "sweep-closed":
        # The s = 0 axial panel is left out here: both closed methods serve it
        # by the general route, and only the pipeline (25x slower) could check it.
        ops = [_sweep(f"dense figure panel {sw}-sweep, fixed {fx} ({m})", m, sw, fx, BOX_START,
                      CLOSED_STEP, True, csv)
               for sw, fx in PANELS if (sw, fx) != ("p", 0.0)
               for m in ("gaussian-closed", "general")]
        ops += _seeded_sweeps(rng, ["gaussian-closed", "general"] * SEEDED_SWEEPS, CLOSED_STEP, csv)
    elif workload == "crossval":
        ops = [_crossval("default grid, every other point", BOX_START)]
        ops += [_crossval(f"offset grid #{i}", rng.uniform(BOX_START, BOX_START + CROSSVAL_STEP))
                for i in range(SEEDED_SWEEPS)]
    elif workload == "point-queries":
        ops = []
        for i in range(POINT_REQUESTS):
            command, method = POINT_MIX[i % len(POINT_MIX)]
            s = rng.uniform(BOX_START, 5.0)
            p = rng.uniform(BOX_START, 5.0)
            ops.append(Op(label=f"{command} {method}", command=command, method=method, s=s, p=p))
        return ops
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")
    rng.shuffle(ops)
    return ops


def probes(workload: str, out_dir: str) -> list[Op]:
    """Known-defect inputs outside the certified box (see ROADMAP items 2 and 3)."""
    csv = f"{out_dir}/{workload}-probe.csv"
    if workload == "sweep-pipeline":
        # The two panels exactly as scripts/localization_curves.py writes them.
        return [_sweep(f"figure panel {sw}-sweep, fixed {fx}, from 0.01", "pipeline", sw, fx,
                       0.01, 0.01, True, csv, stop=5.0)
                for sw, fx in PANELS if fx == 0.0]
    if workload == "sweep-closed":
        return [
            _sweep("s-sweep past s = 38 at p = 0", "gaussian-closed", "s", 0.0, 30.0, 0.5,
                   False, csv, stop=45.0),
            _sweep("near-coincident s-sweep at p = 0", "gaussian-closed", "s", 0.0, 1e-4, 1e-4,
                   False, csv, stop=1.05e-3),
        ]
    if workload == "crossval":
        return [_crossval("default 20x20 grid at k = z_R = 1e3", BOX_START, step=0.25, stop=5.0,
                          k=1e3, zr=1e3)]
    if workload == "point-queries":
        return [Op(label="eval at s = 40, p = 0", command="eval", s=40.0, p=0.0)]
    raise ValueError(f"unknown workload {workload!r}")
