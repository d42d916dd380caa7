"""The A/B driver: its aggregation on synthetic run rows, the worker each
tool workload runs, and one whole run per kind of workload at its tiny
size."""

import hashlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

TOOLS_DIR = pathlib.Path(__file__).resolve().parents[1] / "tools"
SCRIPT = TOOLS_DIR / "bench_ab.py"


def load(name):
    path = TOOLS_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_ab, kernel_ab = load("bench_ab"), load("kernel_ab")

DIRECTIONS = {"arrivals_per_s": "higher", "peak_rss_mb": "lower"}


def row(side, seed, rate, rss, digest="a", failed=0, workload="w"):
    return {"workload": workload, "side": side, "seed": seed,
            "metrics": {"arrivals_per_s": rate, "peak_rss_mb": rss},
            "digests": {"out.csv": digest}, "failed": failed,
            "attempted": 10}


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


def test_summarize_lists_one_sided_names_and_leaves_them_out():
    # two kernel revisions with different case sets: the shared case is
    # compared, the others are listed per side, and no name is missing
    def kernel_row(side, seed, cases):
        return {"workload": "kernel", "side": side, "seed": seed,
                "metrics": {f"{c}.static.ns_per_ball": 5.0 for c in cases},
                "digests": {f"{c}.static": c for c in cases},
                "failed": 0, "attempted": 1}

    runs = [kernel_row("parent", 1, ["bins_T1000", "bins_T3000"]),
            kernel_row("change", 1, ["bins_T1000", "bins_T5000"])]
    got = bench_ab.summarize(runs, {})["kernel"]
    assert list(got["metrics"]) == ["bins_T1000.static.ns_per_ball"]
    assert got["metrics"]["bins_T1000.static.ns_per_ball"]["better"] == \
        "lower"
    assert got["one_sided"] == {
        "parent": ["bins_T3000.static.ns_per_ball", "bins_T3000.static"],
        "change": ["bins_T5000.static.ns_per_ball", "bins_T5000.static"]}
    assert got["digests_match"]
    runs[1]["digests"]["bins_T1000.static"] = "other"
    assert not bench_ab.summarize(runs, {})["kernel"]["digests_match"]


def test_parse_seeds():
    assert bench_ab.parse_seeds("1601-1604") == [1601, 1602, 1603, 1604]
    assert bench_ab.parse_seeds("3,5,8") == [3, 5, 8]


def test_kernel_cases_cover_both_models():
    names = [name for name, *_ in kernel_ab.cases(kernel_ab.SIZES["paper"])]
    assert names == ["bins_T10000", "bins_T100000", "opaque_S400",
                     "opaque_S3200"]
    stops = {name: (T, stop) for name, T, _, stop
             in kernel_ab.cases(kernel_ab.SIZES["paper"])}
    assert stops["bins_T10000"] == (10_000, None)
    assert stops["opaque_S400"] == (5 * 399 + 1, 400)
    # the tiny size still joins a block from more than one window
    assert max(T for _, T, _, _ in kernel_ab.cases(kernel_ab.SIZES["tiny"])) \
        > 4096


@pytest.mark.parametrize("workload", ["kernel", "horizon"])
def test_each_side_runs_its_workers_script_on_its_own_src(
        tmp_path, monkeypatch, workload):
    """The kernel worker calls the kernel's private functions, so each side
    runs its own tree's ``tools/kernel_ab.py``; the horizon worker uses
    the public API only, so both sides run the driver's copy."""
    calls = []

    def recording_run(argv, cwd, env, **kwargs):
        calls.append((argv, cwd, env["PYTHONPATH"]))
        module = pathlib.Path(cwd).resolve() / "src" / "endgame"
        line = json.dumps({"endgame": str(module / "bins_engine.py"),
                           "cases": {"c": {"static": {"ns_per_ball": 2.0,
                                                      "digest": "d"}}},
                           "wall_s": 1.0, "run_cpu_s": 0.5,
                           "peak_rss_mb": 40.0, "digest": "d"})
        return subprocess.CompletedProcess(argv, 0, line + "\n", "")

    monkeypatch.setattr(bench_ab.subprocess, "run", recording_run)
    own_copy = workload == "kernel"
    for side in ("parent", "change"):
        tree = tmp_path / side
        got = bench_ab.run_tool(tree, workload, 7, "tiny")
        script = (tree / "tools" / "kernel_ab.py" if own_copy
                  else TOOLS_DIR / "horizon_ab.py")
        argv, cwd, path = calls[-1]
        assert argv[1:] == [str(script), "--worker", "--size", "tiny",
                            "--seed", "7"]
        assert cwd == tree and path == str(tree / "src")
        assert got["metrics"] == ({"c.static.ns_per_ball": 2.0} if own_copy
                                  else {"wall_s": 1.0, "run_cpu_s": 0.5,
                                        "peak_rss_mb": 40.0})


def test_a_revision_without_the_kernel_worker_is_refused_naming_it(
        tmp_path, monkeypatch, capsys):
    def export(rev, dest):
        (dest / "src").mkdir(parents=True)
        if rev == "new":
            (dest / "tools").mkdir()
            (dest / "tools" / "kernel_ab.py").write_text("")
        return rev

    monkeypatch.setattr(bench_ab, "export", export)
    out = tmp_path / "k.json"
    with pytest.raises(SystemExit) as exc:
        bench_ab.main(["--parent", "old", "--change", "new", "--workload",
                       "kernel", "--seeds", "1", "--size", "tiny",
                       "--out", str(out), "--workdir", str(tmp_path / "work")])
    assert exc.value.code == 2
    assert "revision old (parent) has no tools/kernel_ab.py" in \
        capsys.readouterr().err
    assert not out.exists()


def _has_head() -> bool:
    try:
        return subprocess.run(["git", "rev-parse", "--verify", "-q", "HEAD"],
                              cwd=SCRIPT.parents[1],
                              capture_output=True).returncode == 0
    except FileNotFoundError:  # no git at all
        return False


def check_names(workload, metrics, digests):
    if workload == "kernel":  # HEAD's own cases, every one per policy
        cells = [name.rsplit(".", 1)[0] for name in metrics]
        cases = {cell.split(".")[0] for cell in cells}
        assert {case.split("_")[0] for case in cases} == {"bins", "opaque"}
        assert sorted(cells) == sorted(digests) == sorted(
            f"{case}.{policy}" for case in cases
            for policy in kernel_ab.POLICIES)
        assert all(name.endswith(".ns_per_ball") for name in metrics)
    elif workload == "horizon":
        assert metrics == ["wall_s", "run_cpu_s", "peak_rss_mb"]
        assert digests == ["results"]
    else:
        assert metrics == ["arrivals_per_s", "setup_s", "peak_rss_mb"]
        assert all(name.endswith(".csv") for name in digests)


@pytest.mark.skipif(not _has_head(),
                    reason="the repository has no git HEAD to export")
@pytest.mark.parametrize("workload", ["bins_sweep", "kernel", "horizon"])
def test_script_end_to_end_at_tiny_size(tmp_path, workload):
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", "HEAD", "--change", "HEAD",
         "--workload", workload, "--seeds", "5", "--seconds", "0.5",
         "--size", "tiny", "--out", str(out),
         "--workdir", str(tmp_path / "work")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["size"] == "tiny"
    assert [(r["side"], r["seed"]) for r in result["runs"]] == [
        ("parent", 5), ("change", 5)]
    assert all(r["digests"] for r in result["runs"])
    assert all(r["metrics"]["cpu_s"] > 0 for r in result["runs"])
    summary = result["summary"][workload]
    assert list(summary["metrics"])[-1] == "cpu_s"
    check_names(workload, list(summary["metrics"])[:-1],
                list(result["runs"][0]["digests"]))
    assert all(m["parent"]["median"] > 0 and m["change"]["median"] > 0
               for m in summary["metrics"].values())
    assert summary["one_sided"] == {"parent": [], "change": []}
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["digests_match"]
    assert summary["metrics"]["cpu_s"]["better"] == "lower"
    if workload == "horizon":  # which worker code ran, at what size
        worker = (TOOLS_DIR / "horizon_ab.py").read_bytes()
        assert result["horizon"] == {
            "worker_sha256": hashlib.sha256(worker).hexdigest(),
            "T": 50_000, "reps": 4}
