"""Tiny-size self-check of the benchmark, so that it cannot rot.

Every workload runs untraced and traced at ``--size tiny`` with all of
its output checks, and must print exactly the metrics BENCHMARK.json
names.  Run it from the repository root:

    python -m pytest bench
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT = ("tsp.tsp_route.calls", "tsp.tsp_route.stops",
         "simulate.inc_approx.calls", "opaque.used_per_drawn")


def bench(workload, trace, seed=3, cwd=BENCH.parent, run=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed",
         str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_passes_checks_and_prints_named_metrics(workload, trace):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in SPEC[kind]})
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["opaque_sweep", "parcel_days"])
def test_exact_counts_repeat_for_a_seed(workload):
    first, second = (result_of(bench(workload, 1))["metrics"]
                     for _ in range(2))
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(NAMES[0], 0, cwd=tmp_path, run=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
