#!/usr/bin/env python3
"""Run a fixed list of srloc commands under two source trees and compare them.

    python scripts/compare_outputs.py PARENT_SRC CHANGE_SRC

Each tree is a ``src`` directory holding the ``srloc`` package.  Every
command runs as ``python -m srloc.cli ...`` in a fresh directory with that
tree first on PYTHONPATH.  Per command the report gives whether stdout, the
CSV a sweep writes and stderr are byte-identical, both exit codes, and,
where bytes differ, the largest difference between the numbers of the two
texts, taken in order, relative to the largest magnitude in the number's
innermost JSON list or, outside lists, its line (``layout`` where their
words or number counts differ).  The last line is a summary; the exit code is 0 when every
command is identical in all four respects, else 1.

The commands: the README's, the four figure panels of
``scripts/localization_curves.py`` for every ``--method``, ``crossval`` on
the default grid, ``0:2:1``, ``0:0.1:0.01``, ``0.37:4.37:1.0`` and at
``k = z_R = 1e3``, ``1e4`` and ``1e5``, ``eval --method all`` at ``k = 1e7,
z_R = 1e-3`` with ``s = sqrt(z_R / k)`` and ``p = z_R``, ``eval`` and
``crb`` for every method at (1, 0), (1, 2), (0, 1) and (0, 0), the
pipeline's refusal boundary (``sweep --method pipeline`` along ``s`` and
along ``p`` at 0 over ``0:0.12:0.001`` and ``0.05:0.12:0.001``, and
``crossval`` on ``0:0.12:0.001``), ``eval --method pipeline`` at
``s = 76, 77`` with ``p = 0`` (a subnormal ``|gamma|``), ``eval --method
all`` at ``k = 5.11e-262, z_R = 1.49e-26`` (H's diagonal near 1e-166), the
far-separation commands where the overlap jet overflows, and sweeps whose
CSV cells take the forms the figure panels never do: ``5e+17``-type
exponents (``k = 1e12, z_R = 1e-6``, both closed methods), ``e-07``
exponents (``k = 1e-3, z_R = 1e3``), exact zeros and a limit row
(``0:0.1:0.001`` at ``p = 0``), and 10,001 rows across several CSV write
blocks.  The coincident-source band, where ``1 - |gamma|^2`` is near the
limit's bound ``1e-10``: ``eval`` for every method and ``crb --method
general`` at (0, 1e-4), ``eval --method pipeline`` at (1e-5, 0), ``sweep
--method all`` along ``p`` at ``s = 0`` over ``0:0.0008:0.00002`` and
``sweep --method gaussian-closed`` along ``s`` at ``p = 0`` over
``0:4e-5:1e-6``.  Physical extremes: ``eval`` where ``s * s`` overflows in
physical units (``general`` and ``pipeline``), where ``H_ii H_jj``
overflows (``all``) and where ``p / z_R`` overflows, and ``crb`` with a
budget ``nu * m * eps`` that underflows or overflows and with a bound that
overflows.  Far separations, where the explicit forms overflow and
``gaussian-closed`` serves by the general forms, and where ``|gamma|^2``
underflows to 0 and the general forms give their far-separation limit:
``eval`` at ``(40, 0)`` by ``gaussian-closed`` and ``all`` and ``crb``
there, ``sweep`` along ``s`` at ``p = 0`` over ``30:45:0.5`` by ``all``
and ``gaussian-closed`` and over ``38:45:0.5`` by ``gaussian-closed``,
``crossval --k 1e6 --zr 1 --range 0.1:5:0.25`` and ``crossval`` on
``0:130:5``.  A closed route that still fails, where the overlap jet
overflows: ``eval --method gaussian-closed`` at ``(1e200, 0)``.  Then the parser's
own output: ``-h`` and ``<command> -h`` for each of the five subcommands,
help before a subcommand (``-h eval`` and ``--help crossval --k 1 --zr
2``), no arguments, ``nonsense``,
``eval`` without ``--p``, ``eval ... --bogus 1``, ``--bogus eval ...``
and ``sweep ... --method magic``.  Last, ``eval --p -1e-3`` for every method
and ``sweep --fixed -1e-3`` (a negative value in e-notation), ``crb
--eps 2`` with and without ``--from-limits`` (the weak-source model's
warning on stderr), and ``eval --p -inf`` and ``sweep --fixed -nan`` (a
negative non-finite value, a usage error).  Then the parser's edge cases,
where a command's own parser must read ``argv`` as the whole ``srloc`` parser
does, or leave what it does not recognize to it: ``--k=1``, the abbreviations
``--meth``, ``--rang`` (``sweep`` and ``crossval``) and ``--from``, a
repeated ``--k``, an extra positional, ``--``, ``-- x``, ``-x``, ``eval -h
--bogus``, ``eval --bogus --k x``, ``limits ... eval``, a bare ``limits``
and ``--tol -1`` for ``eval``, ``sweep`` and ``crossval``.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

PSF = ["--k", "1", "--zr", "2"]
METHODS = ("pipeline", "general", "gaussian-closed", "all")
POINTS = (("1", "0"), ("1", "2"), ("0", "1"), ("0", "0"))
PANELS = (("s", "0"), ("s", "2"), ("p", "0"), ("p", "1"))
COMMANDS = ("eval", "sweep", "crossval", "limits", "crb")
CSV = "out.csv"


def commands() -> list[list[str]]:
    cmds = [
        ["eval", *PSF, "--s", "1", "--p", "0", "--method", "gaussian-closed"],
        ["eval", *PSF, "--s", "1", "--p", "2", "--method", "all"],
        ["sweep", *PSF, "--sweep", "s", "--range", "0.01:5:0.01", "--fixed", "0",
         "--normalized", "--out", CSV],
        ["crossval", *PSF, "--range", "0.1:5:0.25", "--tol", "1e-8"],
        ["limits", *PSF],
        ["crb", "--from-limits", *PSF, "--nu", "1000", "--m", "1", "--eps", "1"],
        ["crb", *PSF, "--s", "1", "--p", "2", "--nu", "1000", "--m", "1", "--eps", "1"],
    ]
    for method in METHODS:
        for swept, fixed in PANELS:
            cmds.append(["sweep", *PSF, "--sweep", swept, "--range", "0.01:5:0.01",
                         "--fixed", fixed, "--normalized", "--method", method, "--out", CSV])
    cmds.append(["crossval", *PSF])
    for grid in ("0:2:1", "0:0.1:0.01", "0.37:4.37:1.0"):
        cmds.append(["crossval", *PSF, "--range", grid])
    for scale in ("1e3", "1e4", "1e5"):
        cmds.append(["crossval", "--k", scale, "--zr", scale, "--range", "0.1:5:0.25"])
    cmds.append(["eval", "--k", "1e7", "--zr", "1e-3", "--s", "1e-5", "--p", "1e-3",
                 "--method", "all"])
    for s, p in POINTS:
        for method in METHODS:
            cmds.append(["eval", *PSF, "--s", s, "--p", p, "--method", method])
        for method in METHODS[:3]:
            cmds.append(["crb", *PSF, "--s", s, "--p", p, "--method", method,
                         "--nu", "1000", "--m", "1", "--eps", "1"])
    for swept in ("s", "p"):  # the pipeline's refusal boundary on each axis
        for start in ("0", "0.05"):
            cmds.append(["sweep", *PSF, "--sweep", swept, "--range", f"{start}:0.12:0.001",
                         "--fixed", "0", "--method", "pipeline", "--out", CSV])
    cmds.append(["crossval", *PSF, "--range", "0:0.12:0.001"])
    for s in ("76", "77"):  # |gamma| is subnormal
        cmds.append(["eval", *PSF, "--s", s, "--p", "0", "--method", "pipeline"])
    # H's diagonal is about 1e-166, so H_ii H_jj underflows
    cmds.append(["eval", "--method", "all", "--k", "5.11e-262", "--zr", "1.49e-26",
                 "--s", "7.36e-125", "--p", "2.03e208"])
    for method in ("pipeline", "all"):
        cmds.append(["eval", *PSF, "--s", "1e200", "--p", "0", "--method", method])
    cmds.append(["eval", *PSF, "--s", "1e200", "--p", "1e200", "--method", "pipeline"])
    cmds.append(["crossval", *PSF, "--range", "0:1e200:5e199"])
    for method in ("gaussian-closed", "general"):
        cmds.append(["sweep", "--k", "1e12", "--zr", "1e-6", "--sweep", "s",
                     "--range", "1e-10:5e-9:1e-10", "--fixed", "0", "--method", method,
                     "--out", CSV])
    cmds.append(["sweep", "--k", "1e-3", "--zr", "1e3", "--sweep", "p", "--range", "0.1:5:0.1",
                 "--fixed", "1", "--out", CSV])
    cmds.append(["sweep", *PSF, "--sweep", "s", "--range", "0:0.1:0.001", "--fixed", "0",
                 "--method", "gaussian-closed", "--out", CSV])
    cmds.append(["sweep", *PSF, "--sweep", "s", "--range", "0:5:0.0005", "--fixed", "1",
                 "--method", "general", "--out", CSV])
    # the coincident-source band, where 1 - |gamma|^2 is near the limit's bound 1e-10
    for method in METHODS:
        cmds.append(["eval", *PSF, "--s", "0", "--p", "1e-4", "--method", method])
    cmds.append(["crb", *PSF, "--s", "0", "--p", "1e-4", "--method", "general",
                 "--nu", "1000", "--m", "1", "--eps", "1"])
    cmds.append(["eval", *PSF, "--s", "1e-5", "--p", "0", "--method", "pipeline"])
    cmds.append(["sweep", *PSF, "--sweep", "p", "--fixed", "0", "--range", "0:0.0008:0.00002",
                 "--method", "all", "--out", CSV])
    cmds.append(["sweep", *PSF, "--sweep", "s", "--fixed", "0", "--range", "0:4e-5:1e-6",
                 "--method", "gaussian-closed", "--out", CSV])
    # physical extremes: |gamma| where s * s overflows in physical units (general and
    # pipeline), H_ii H_jj overflowing in the cross-route rule, p / z_R overflowing
    for method, k, zr, s, p in (
            ("general", "2.3738800155595087e-198", "140545907.8826104",
             "3.131905807565238e+173", "1.8110723848240263e+236"),
            ("pipeline", "3.0881109969020816e-251", "4.242473674790555e+34",
             "7.060573231617923e+258", "3.435905594367144e+117"),
            ("all", "1", "1e-78", "0", "1"),
            ("general", "4.170858320864619e+169", "2.8667426688795266e-97",
             "4.7102269638616694e+104", "2.053445288830075e+259")):
        cmds.append(["eval", "--k", k, "--zr", zr, "--s", s, "--p", p, "--method", method])
    # far separations: at p = 0 the explicit forms overflow from s = 36.95, where
    # gaussian-closed serves by the general forms; |gamma|^2 underflows to 0 at k = 1e6
    # and from s = 80 at k = 1, where the general forms give their far-separation limit
    for method in ("gaussian-closed", "all"):
        cmds.append(["eval", *PSF, "--s", "40", "--p", "0", "--method", method])
    cmds.append(["crb", *PSF, "--s", "40", "--p", "0", "--nu", "1000", "--m", "1", "--eps", "1"])
    for grid, method in (("30:45:0.5", "all"), ("30:45:0.5", "gaussian-closed"),
                         ("38:45:0.5", "gaussian-closed")):
        cmds.append(["sweep", *PSF, "--sweep", "s", "--range", grid, "--fixed", "0",
                     "--method", method, "--out", CSV])
    cmds.append(["crossval", "--k", "1e6", "--zr", "1", "--range", "0.1:5:0.25"])
    cmds.append(["crossval", *PSF, "--range", "0:130:5"])
    # a closed route that still fails: the overlap jet overflows
    cmds.append(["eval", *PSF, "--s", "1e200", "--p", "0", "--method", "gaussian-closed"])
    # budgets whose product nu * m * eps underflows or overflows, and a bound that overflows
    for nu, m in (("1e-200", "1e-200"), ("1e200", "1e200")):
        cmds.append(["crb", *PSF, "--s", "1", "--p", "2", "--nu", nu, "--m", m, "--eps", "0.5"])
    cmds.append(["crb", "--k", "3.361379129910657e-89", "--zr", "1.6189050187068476e+91",
                 "--s", "0", "--p", "0", "--method", "general", "--nu", "1",
                 "--m", "8.6289390270983e-151", "--eps", "0.5"])
    cmds += [["-h"], *([command, "-h"] for command in COMMANDS),
             ["-h", "eval"], ["--help", "crossval", *PSF], [], ["nonsense"],
             ["eval", *PSF, "--s", "1"],
             ["eval", *PSF, "--s", "1", "--p", "0", "--bogus", "1"],
             ["--bogus", "eval", *PSF, "--s", "1", "--p", "0"],
             ["sweep", *PSF, "--sweep", "s", "--method", "magic", "--out", CSV]]
    # a negative value in e-notation, and the weak-source model's warning
    for method in METHODS:
        cmds.append(["eval", *PSF, "--s", "1", "--p", "-1e-3", "--method", method])
    cmds.append(["sweep", *PSF, "--sweep", "s", "--range", "0:1:0.25", "--fixed", "-1e-3",
                 "--out", CSV])
    for point in (["--from-limits"], ["--s", "1", "--p", "2"]):
        cmds.append(["crb", *PSF, *point, "--nu", "1000", "--m", "1", "--eps", "2"])
    # a negative non-finite value reaches the finite-number check
    cmds.append(["eval", *PSF, "--s", "1", "--p", "-inf"])
    cmds.append(["sweep", *PSF, "--sweep", "s", "--range", "0:1:0.25", "--fixed", "-nan",
                 "--out", CSV])
    # the parser's edge cases, some of which a command's own parser leaves to the whole one
    point = ["eval", *PSF, "--s", "1", "--p", "2"]
    cmds += [["eval", "--k=1", "--zr", "2", "--s", "1", "--p", "2"],
             [*point, "--meth", "all"],
             ["sweep", *PSF, "--sweep", "s", "--rang", "0:1:0.25", "--out", CSV],
             ["crossval", *PSF, "--rang", "0:1:0.5"],
             ["crb", "--from", *PSF, "--nu", "1000", "--m", "1", "--eps", "1"],
             ["eval", "--k", "3", *PSF, "--s", "1", "--p", "2"],
             [*point, "extra"], [*point, "--"], [*point, "--", "x"], [*point, "-x"],
             ["eval", "-h", "--bogus"], ["eval", "--bogus", "--k", "x"],
             ["limits", *PSF, "eval"], ["limits"]]
    for command in (point, ["sweep", *PSF, "--sweep", "s", "--out", CSV], ["crossval", *PSF]):
        cmds.append([*command, "--tol", "-1"])
    return cmds


def run(src: Path, argv: list[str]) -> tuple[int, bytes, bytes, bytes | None]:
    """(exit code, stdout, stderr, CSV or None) of one command under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run([sys.executable, "-m", "srloc.cli", *argv], cwd=work, env=env,
                              capture_output=True, timeout=600)
        csv = Path(work, CSV)
        return done.returncode, done.stdout, done.stderr, csv.read_bytes() if csv.exists() else None


_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity|nan|-?inf")
_INNERMOST_LIST = re.compile(rb"\[[^\[\]]*\]")


def _groups(text: bytes) -> list[list[float]]:
    """The numbers of ``text``, one group per innermost JSON list, then one
    per line of what is left (a CSV row, a JSON scalar, a stderr line)."""
    groups = []

    def take(match: re.Match) -> bytes:
        groups.append(match.group())
        return b"[]"

    rest = _INNERMOST_LIST.sub(take, text)
    return [[float(x) for x in _NUMBER.findall(group)] for group in groups + rest.splitlines()]


def relative_difference(a: bytes, b: bytes) -> float | None:
    """Largest |x - y| over the numbers of ``a`` and ``b`` in order, each
    divided by the largest finite magnitude of its group (see ``_groups``)
    in either text, or None where the texts differ in more than their
    numbers.  A number that is NaN or infinite on one side only, or infinite
    with opposite signs, reads ``inf``.

    A group's scale, not each number's own, so that entries that are zero up
    to roundoff (the sparsity zeros of H and Gamma, about 1e-17) do not
    decide the figure.
    """
    if _NUMBER.sub(b"#", a) != _NUMBER.sub(b"#", b):
        return None
    worst = 0.0
    for xs, ys in zip(_groups(a), _groups(b)):
        scale = max((abs(v) for v in xs + ys if math.isfinite(v)), default=0.0)
        for x, y in zip(xs, ys):
            if x == y or (x != x and y != y):
                continue
            if not (math.isfinite(x) and math.isfinite(y)):
                return math.inf
            worst = max(worst, abs(x - y) / scale if scale else 0.0)
    return worst


def compare(parent: Path, change: Path, argv: list[str]) -> tuple[bool, str]:
    code_a, *texts_a = run(parent, argv)
    code_b, *texts_b = run(change, argv)
    same = code_a == code_b
    parts = [f"exit {code_a}->{code_b}"]
    for name, a, b in zip(("stdout", "stderr", "csv"), texts_a, texts_b):
        if a == b:
            parts.append(f"{name} same")
            continue
        same = False
        rel = relative_difference(a or b"", b or b"")
        parts.append(f"{name} DIFF ({'layout' if rel is None else f'max rel {rel:.2e}'})")
        if name == "stderr":
            last = [(text.strip().splitlines() or [b""])[-1].decode() for text in (a, b)]
            parts.append(f"stderr last line {last[0]!r} -> {last[1]!r}")
    return same, ", ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the reference tree")
    parser.add_argument("change_src", type=Path, help="src directory of the changed tree")
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "srloc" / "cli.py").is_file():
            parser.error(f"{src} holds no srloc package")
    cmds = commands()
    differ = []
    for argv_ in cmds:
        same, line = compare(args.parent_src, args.change_src, argv_)
        print(f"{'same' if same else 'DIFF'}  {' '.join(argv_)}: {line}", flush=True)
        if not same:
            differ.append(" ".join(argv_))
    print(f"summary: {len(cmds)} commands, {len(cmds) - len(differ)} identical "
          f"(stdout, CSV, stderr, exit code), {len(differ)} differ"
          + "".join(f"\n  differs: {cmd}" for cmd in differ))
    return 0 if not differ else 1


if __name__ == "__main__":
    sys.exit(main())
