"""The long-horizon A/B script: its aggregation on synthetic worker rows,
its worker command, and one whole run at its tiny size."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parents[1] / "tools"
          / "horizon_ab.py")
spec = importlib.util.spec_from_file_location("horizon_ab", SCRIPT)
horizon_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(horizon_ab)


def worker_row(side, wall, rss=40.0, digest="d"):
    return {"side": side, "wall_s": wall, "cpu_s": wall, "peak_rss_mb": rss,
            "digest": digest}


def test_summarize_medians_ratios_and_digests():
    runs = [worker_row("parent", 90.0, 120.0), worker_row("change", 20.0),
            worker_row("change", 30.0), worker_row("parent", 60.0, 110.0),
            worker_row("parent", 75.0, 130.0), worker_row("change", 25.0)]
    got = horizon_ab.summarize(runs)
    assert got["wall_s"]["parent"] == [90.0, 60.0, 75.0]
    assert got["wall_s"]["parent_median"] == 75.0
    assert got["wall_s"]["change_median"] == 25.0
    assert got["wall_s"]["ratio"] == pytest.approx(1 / 3)
    assert got["peak_rss_mb"]["ratio"] == pytest.approx(40 / 120)
    assert got["digests_match"]
    runs[1] = worker_row("change", 20.0, digest="e")
    assert not horizon_ab.summarize(runs)["digests_match"]


def test_each_side_runs_this_script_on_its_own_src(tmp_path, monkeypatch):
    """The worker uses the public API only, so both sides run this copy
    of the script, each on its own tree's ``src/``."""
    calls = []

    def recording_run(argv, cwd, env, **kwargs):
        calls.append((argv, cwd, env["PYTHONPATH"]))
        module = pathlib.Path(cwd).resolve() / "src" / "endgame"
        line = json.dumps({"endgame": str(module / "bins_engine.py")})
        return subprocess.CompletedProcess(argv, 0, line + "\n", "")

    monkeypatch.setattr(horizon_ab.subprocess, "run", recording_run)
    for side in ("parent", "change"):
        tree = tmp_path / side
        horizon_ab.run_worker(tree, "tiny", 7)
        argv, cwd, path = calls[-1]
        assert argv[1:] == [str(SCRIPT), "--worker", "--size", "tiny",
                            "--seed", "7"]
        assert cwd == tree and path == str(tree / "src")


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
    out = tmp_path / "BENCH_horizon.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", "HEAD", "--change", "HEAD",
         "--size", "tiny", "--out", str(out),
         "--workdir", str(tmp_path / "work")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert (result["size"], result["T"], result["reps"]) == ("tiny", 50_000,
                                                             4)
    assert [r["side"] for r in result["runs"]] == ["parent", "change"]
    for side, run in zip(("parent", "change"), result["runs"]):
        assert run["endgame"].startswith(
            str((tmp_path / "work" / side).resolve()))
        assert run["wall_s"] > 0 and run["peak_rss_mb"] > 0
    assert result["summary"]["digests_match"]
