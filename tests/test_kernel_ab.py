"""The kernel A/B script: its aggregation on synthetic worker rows, and one
whole run at its tiny size."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "kernel_ab.py"
spec = importlib.util.spec_from_file_location("kernel_ab", SCRIPT)
kernel_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel_ab)


def worker_row(side, ns, digest="d"):
    return {"side": side, "cases": {"bins_T10": {
        "static": {"ns_per_ball": ns, "digest": digest}}}}


def test_summarize_medians_ratio_and_digests():
    runs = [worker_row("parent", 10.0), worker_row("change", 6.0),
            worker_row("change", 8.0), worker_row("parent", 14.0),
            worker_row("parent", 12.0), worker_row("change", 4.0)]
    got = kernel_ab.summarize(runs)["bins_T10"]["static"]
    assert got["parent_ns_per_ball"] == [10.0, 14.0, 12.0]
    assert got["parent_median"] == 12.0 and got["change_median"] == 6.0
    assert got["ratio"] == pytest.approx(0.5)
    assert got["digests_match"]
    runs[1] = worker_row("change", 6.0, digest="e")
    assert not kernel_ab.summarize(runs)["bins_T10"]["static"][
        "digests_match"]


def test_cases_cover_both_models():
    names = [name for name, *_ in kernel_ab.cases(kernel_ab.SIZES["paper"])]
    assert names == ["bins_T10000", "bins_T100000", "opaque_S400",
                     "opaque_S3200"]
    stops = {name: (T, stop) for name, T, _, stop
             in kernel_ab.cases(kernel_ab.SIZES["paper"])}
    assert stops["bins_T10000"] == (10_000, None)
    assert stops["opaque_S400"] == (5 * 399 + 1, 400)


def test_each_side_runs_its_own_worker(tmp_path, monkeypatch):
    """A worker calls the kernel's private functions, so each side runs
    the copy of this script its own tree holds, on its own ``src/``."""
    calls = []

    def recording_run(argv, cwd, env, **kwargs):
        calls.append((argv, cwd, env["PYTHONPATH"]))
        module = pathlib.Path(cwd).resolve() / "src" / "endgame"
        line = json.dumps({"endgame": str(module / "bins_engine.py"),
                           "cases": {}})
        return subprocess.CompletedProcess(argv, 0, line + "\n", "")

    monkeypatch.setattr(kernel_ab.subprocess, "run", recording_run)
    for side in ("parent", "change"):
        tree = tmp_path / side
        assert kernel_ab.run_worker(tree, "tiny", 7)["cases"] == {}
        argv, cwd, path = calls[-1]
        assert argv[1:] == [str(tree / "tools" / "kernel_ab.py"), "--worker",
                            "--size", "tiny", "--seed", "7"]
        assert cwd == tree and path == str(tree / "src")


def test_a_revision_without_the_script_is_refused_naming_it(
        tmp_path, monkeypatch, capsys):
    def export(rev, dest):
        (dest / "src").mkdir(parents=True)
        if rev == "new":
            (dest / "tools").mkdir()
            (dest / "tools" / "kernel_ab.py").write_text("")
        return rev

    monkeypatch.setattr(kernel_ab, "export", export)
    out = tmp_path / "k.json"
    with pytest.raises(SystemExit) as exc:
        kernel_ab.main(["--parent", "old", "--change", "new", "--size",
                        "tiny", "--out", str(out),
                        "--workdir", str(tmp_path / "work")])
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


@pytest.mark.skipif(not _has_head(),
                    reason="the repository has no git HEAD to export")
def test_script_end_to_end_at_tiny_size(tmp_path):
    out = tmp_path / "BENCH_kernel.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", "HEAD", "--change", "HEAD",
         "--size", "tiny", "--out", str(out),
         "--workdir", str(tmp_path / "work")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["size"] == "tiny"
    assert [r["side"] for r in result["runs"]] == ["parent", "change"]
    for side, run in zip(("parent", "change"), result["runs"]):
        assert run["endgame"].startswith(
            str((tmp_path / "work" / side).resolve()))
    summary = result["summary"]
    assert sorted(summary) == ["bins_T1000", "bins_T3000", "opaque_S20",
                               "opaque_S50"]
    for cells in summary.values():
        assert sorted(cells) == sorted(kernel_ab.POLICIES)
        for cell in cells.values():
            assert cell["digests_match"]
            assert cell["parent_median"] > 0 and cell["change_median"] > 0
