"""Tests of the benchmark itself: python -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from checks import check

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def test_benchmark_json_names_the_generated_workloads():
    assert sorted(WORKLOADS) == sorted(workloads.WHY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_named_metric_with_its_unit(workload, trace):
    line, report = run.run(workload, seed=1, seconds=0.05, trace=bool(trace), setup_repeats=1)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())
    assert report["probes"] and report["environment"]["nproc"] >= 1


def test_corrupted_csv_row_on_a_copy_is_a_failed_operation():
    op = workloads.operations("sweep-pipeline", 3, str(run.OUT))[0]
    call = run.call_cli(op)
    assert check(op, call, run.call_cli).ok

    copy = op.out + ".corrupt"
    shutil.copyfile(op.out, copy)
    lines = open(copy, encoding="utf-8").read().splitlines()
    cells = lines[7].split(",")
    cells[4] = format(float(cells[4]) * (1.0 + 1e-6), ".17g")  # H_xx of row 7
    lines[7] = ",".join(cells)
    with open(copy, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    verdict = check(op.with_method(op.method, out=copy), call, run.call_cli)
    assert not verdict.ok
    assert verdict.bad_points == [(float(cells[1]), float(cells[2]))]


def test_traced_sweep_pipeline_counts_repeat_exactly():
    expected = {
        "sld.solve_sld.calls_per_point": 4.0,
        "sld.orthonormalize.calls_per_point": 5.0,
        "sld.linalg.cholesky_per_point": 5.0,
        "sld.linalg.inv_per_point": 5.0,
        "sld.linalg.eigh_per_point": 4.0,
        "sld.linalg.eigvalsh_per_point": 1.0,
        "gram.linalg.eigvalsh_per_point": 1.0,
    }
    for seed in (1, 2):
        line, _ = run.run("sweep-pipeline", seed=seed, seconds=0.05, trace=True)
        assert {k: line["metrics"][k]["value"] for k in expected} == expected


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
