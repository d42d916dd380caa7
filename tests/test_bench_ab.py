"""The A/B script: its aggregation on synthetic run rows, and one whole
run at the benchmark's tiny size."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)

DIRECTIONS = {"arrivals_per_s": "higher", "peak_rss_mb": "lower"}


def row(side, seed, rate, rss, digest="a", failed=0, workload="w"):
    return {"workload": workload, "side": side, "seed": seed,
            "arrivals_per_s": rate, "peak_rss_mb": rss, "failed": failed,
            "attempted": 10, "csv_sha256": {"out.csv": digest}}


def test_summarize_medians_quartiles_and_pairs():
    runs = []
    for seed, (p, c) in enumerate([(10, 14), (12, 13), (11, 10), (13, 15),
                                   (9, 16)]):
        runs += [row("parent", seed, p, 100), row("change", seed, c, 99)]
    got = bench_ab.summarize(runs, DIRECTIONS)["w"]
    rate = got["metrics"]["arrivals_per_s"]
    assert rate["parent"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    assert rate["change"] == {"median": 14.0, "q1": 13.0, "q3": 15.0}
    assert rate["change_better_pairs"] == 4 and rate["pairs"] == 5
    assert rate["median_gain_over_parent_iqr"] == pytest.approx(1.5)
    rss = got["metrics"]["peak_rss_mb"]  # lower is better
    assert rss["change_better_pairs"] == 5
    assert rss["median_gain_over_parent_iqr"] is None  # parent IQR is 0
    assert got["digests_match"]
    assert got["failed"] == {"parent": 0, "change": 0}
    assert got["attempted"] == {"parent": 50, "change": 50}


def test_summarize_paired_ratios():
    # the parent drifts from 10 to 20 while the change stays 20% ahead:
    # the sides' quartiles overlap, the per-seed ratios do not spread
    runs = []
    for seed, (p, ratio) in enumerate([(10, 1.2), (15, 1.25), (20, 1.1),
                                       (12, 1.3)]):
        runs += [row("parent", seed, p, 100), row("change", seed, p * ratio,
                                                  100)]
    runs.append(row("parent", 9, 11, 100))  # a seed without its pair
    got = bench_ab.summarize(runs, DIRECTIONS)["w"]["metrics"]
    rate = got["arrivals_per_s"]["paired_ratio"]
    assert rate["median"] == pytest.approx(1.225)
    assert rate["min"] == pytest.approx(1.1)
    assert rate["max"] == pytest.approx(1.3)
    assert got["peak_rss_mb"]["paired_ratio"] == {
        "median": 1.0, "min": 1.0, "max": 1.0}
    # a parent value of 0 gives no ratio
    zero = [row("parent", 1, 0, 1), row("change", 1, 5, 1)]
    got = bench_ab.summarize(zero, DIRECTIONS)["w"]["metrics"]
    assert got["arrivals_per_s"]["paired_ratio"] is None


def test_summarize_digests_failures_and_workloads():
    runs = [row("parent", 1, 5, 1), row("change", 1, 6, 1),
            row("parent", 2, 5, 1), row("change", 2, 6, 1, digest="b",
                                        failed=2),
            row("parent", 1, 5, 1, workload="v"),
            row("change", 1, 4, 1, workload="v")]
    got = bench_ab.summarize(runs, DIRECTIONS)
    assert sorted(got) == ["v", "w"]
    assert not got["w"]["digests_match"] and got["v"]["digests_match"]
    assert got["w"]["failed"] == {"parent": 0, "change": 2}
    assert got["v"]["metrics"]["arrivals_per_s"]["change_better_pairs"] == 0


def test_parse_seeds():
    assert bench_ab.parse_seeds("1601-1604") == [1601, 1602, 1603, 1604]
    assert bench_ab.parse_seeds("3,5,8") == [3, 5, 8]


def _has_head() -> bool:
    try:
        return subprocess.run(["git", "rev-parse", "--verify", "-q", "HEAD"],
                              cwd=SCRIPT.parents[1],
                              capture_output=True).returncode == 0
    except FileNotFoundError:  # no git at all
        return False


@pytest.mark.skipif(not _has_head(),
                    reason="the repository has no git HEAD to export")
def test_script_end_to_end_at_tiny_size(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", "HEAD", "--change", "HEAD",
         "--workload", "bins_sweep", "--seeds", "5", "--seconds", "0.5",
         "--size", "tiny", "--out", str(out),
         "--workdir", str(tmp_path / "work")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["size"] == "tiny"
    assert [(r["side"], r["seed"]) for r in result["runs"]] == [
        ("parent", 5), ("change", 5)]
    assert all(r["csv_sha256"] for r in result["runs"])
    assert all(r["cpu_s"] > 0 for r in result["runs"])
    summary = result["summary"]["bins_sweep"]
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["digests_match"]
    assert summary["metrics"]["cpu_s"]["better"] == "lower"
