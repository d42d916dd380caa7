import csv
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from endgame.harness import cli, runner
from endgame.parcel import clustering
from endgame.parcel import corpus as pcorpus
from endgame.parcel import simulate as psim
from endgame.parcel import tables as ptables


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_grid():
    assert cli.parse_grid("100,200,400") == [100, 200, 400]
    assert cli.parse_grid("10:30:3") == [10, 20, 30]
    grid = cli.parse_grid("50:800:log8")
    assert grid[0] == 50 and grid[-1] == 800
    assert len(grid) == 8
    assert grid == sorted(grid)


@pytest.mark.parametrize("text", ["1:inf:3", "1:1e30:3", "nan:5:log2",
                                  "-inf:0:2", "1,99999999999999999999",
                                  "-1:8:log3"])
def test_parse_grid_refuses_points_outside_int64(text):
    with pytest.raises(ValueError, match="grid"):
        cli.parse_grid(text)


@pytest.mark.parametrize("text", ["10:20", "10:20:3:4", "10:20:-1",
                                  "10:20:logx", ",5", "1e3"])
def test_parse_grid_refuses_malformed_text(capsys, tmp_path, text):
    """A grid of neither form is refused naming it, before a bins sweep
    or a regime table runs."""
    with pytest.raises(ValueError, match=f"^grid {re.escape(repr(text))}: "
                                         "expected lo:hi:N"):
        cli.parse_grid(text)
    for argv in (("bins", "sweep", "--policy", "no_flex", "--T", text),
                 ("opaque", "sweep", "--regime", "delta_zero", "--S", text)):
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == 2 and f"grid {text!r}" in err, err


@pytest.mark.parametrize("text", ["1:2:1000000000", "1:2:log1000000000",
                                  "0:9:10001"])
def test_parse_grid_refuses_huge_ranges_before_allocating(monkeypatch, text):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was allocated")
    monkeypatch.setattr(cli.np, "linspace", refuse)
    monkeypatch.setattr(cli.np, "geomspace", refuse)
    with pytest.raises(ValueError, match="more than 10000"):
        cli.parse_grid(text)


def test_parse_grid_keeps_grids_up_to_the_cap(capsys, tmp_path):
    assert cli.parse_grid("50:800:log8") == [50, 74, 110, 164, 244, 362,
                                             538, 800]
    assert cli.parse_grid("10:30:3") == [10, 20, 30]
    assert cli.parse_grid("1:2:5") == [1, 2]
    assert cli.parse_grid(f"1:{cli.MAX_GRID_POINTS}:"
                          f"{cli.MAX_GRID_POINTS}")[-1] == 10_000
    code, _, err = run_cli(capsys, "bins", "sweep", "--policy", "no_flex",
                           "--T", "1:2:1000000000", "--out", str(tmp_path))
    assert code == 2 and "more than 10000" in err


_bound = st.one_of(st.integers(-10**20, 10**20).map(str),
                   st.floats().map(repr), st.text(max_size=6))
_grid_text = st.one_of(
    st.lists(st.one_of(st.integers(-10**20, 10**20).map(str),
                       st.text(max_size=4)), min_size=1, max_size=4)
    .map(",".join),
    st.tuples(_bound, _bound, st.integers(-3, 50).map(str))
    .map(":".join),
    st.tuples(_bound, _bound, st.integers(-3, 50).map("log{}".format))
    .map(":".join),
    st.text(max_size=20))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_grid_text)
def test_parse_grid_returns_ints_or_raises_value_error(text):
    try:
        grid = cli.parse_grid(text)
    except ValueError:
        return
    assert all(type(v) is int and abs(v) < 2**63 for v in grid)


def test_bins_run_prints_one_row(capsys):
    code, out, _ = run_cli(capsys, "bins", "run", "--policy", "dynamic",
                           "--T", "10000", "--N", "5", "--q", "0.1",
                           "--seed", "7")
    assert code == 0
    fields = dict(pair.split("=", 1) for pair in out.strip().split(","))
    assert fields["policy"] == "dynamic"
    assert float(fields["final_gap"]) >= 0
    assert int(fields["flex_count"]) >= 0


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bins", "run", "--policy", "no_flex", "--T", "10",
                  "--warp", "9"])
    assert exc.value.code == 2


def test_bins_sweep_writes_csvs(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bins", "sweep", "--policy", "no_flex",
                           "--policy", "static", "--T", "50,100",
                           "--N", "2", "--reps", "3", "--seed", "1",
                           "--out", str(tmp_path))
    assert code == 0
    raw, summary = out.strip().splitlines()
    assert (tmp_path / "bins_raw.csv").exists()
    lines = (tmp_path / "bins_raw.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 3


def test_opaque_run_and_sweep(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "opaque", "run", "--policy", "static",
                           "--S", "20", "--N", "3", "--cycles", "10",
                           "--seed", "0")
    assert code == 0
    fields = dict(pair.split("=", 1) for pair in out.strip().split(","))
    assert float(fields["cost"]) >= float(fields["lower_bound"]) - 0.05
    code, out, _ = run_cli(capsys, "opaque", "sweep", "--regime",
                           "delta_zero", "--S", "5,10", "--N", "3",
                           "--reps", "2", "--cycles", "2",
                           "--seed", "0", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "opaque_delta_zero.csv").exists()
    assert (tmp_path / "plot.py").exists()
    assert list(tmp_path.glob("loss-vs-S_*.dat"))


def test_opaque_sweep_runs_config(capsys, tmp_path):
    config = tmp_path / "exp.yaml"
    config.write_text("model: opaque\npolicies: [no_flex, dynamic]\n"
                      "params: {N: 3, q: 0.2, cycles_per_instance: 2}\n"
                      "sweep: {S: [5, 10]}\nreplications: 2\n")
    code, out, _ = run_cli(capsys, "opaque", "sweep", "--config",
                           str(config), "--seed", "1", "--out",
                           str(tmp_path / "a"))
    assert code == 0
    raw = tmp_path / "a" / "opaque_raw.csv"
    assert out.split() == [str(raw),
                           str(tmp_path / "a" / "opaque_summary.csv")]
    lines = raw.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2 * 2  # policies x S x reps x cycles
    # the same config through `bins sweep` writes the same bytes
    code, _, _ = run_cli(capsys, "bins", "sweep", "--config", str(config),
                         "--seed", "1", "--out", str(tmp_path / "b"))
    assert code == 0
    assert (tmp_path / "b" / "opaque_raw.csv").read_text() == raw.read_text()
    # the regime-table flags do not mix with a config
    code, _, err = run_cli(capsys, "opaque", "sweep", "--config",
                           str(config), "--S", "5,10")
    assert code == 2 and "--S" in err
    code, _, err = run_cli(capsys, "opaque", "sweep", "--regime",
                           "delta_zero")
    assert code == 2 and "--config" in err


@pytest.mark.parametrize("command", ["bins", "opaque"])
def test_config_preset_applies_unless_flag_overrides(capsys, tmp_path,
                                                     command):
    config = tmp_path / "exp.yaml"
    config.write_text("model: bins\npolicies: [static]\npreset: theory\n"
                      "params: {N: 5, q: 0.1}\nsweep: {T: [5000]}\n"
                      "replications: 1\n")

    def first_trigger(*flags):
        out = tmp_path / str(len(flags))
        code, _, _ = run_cli(capsys, command, "sweep", "--config",
                             str(config), "--seed", "3", "--out", str(out),
                             *flags)
        assert code == 0
        rows = (out / "bins_raw.csv").read_text().splitlines()
        header = rows[0].split(",")
        return int(rows[1].split(",")[header.index("first_trigger")])

    assert first_trigger() == 0  # the theory a_s starts static at 0
    assert first_trigger("--preset", "numerics") == 2936


@pytest.mark.parametrize("preset", ["theory", "numerics"])
def test_parcel_config_refuses_a_preset(capsys, tmp_path, preset):
    """Parcel policies read no constant preset, so a config that sets one
    exits 2 before any output directory is made."""
    config = tmp_path / "exp.yaml"
    config.write_text(f"model: parcel\npolicies: [no_flex]\n"
                      f"params: {{corpus: c.txt}}\npreset: {preset}\n")
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "parcel", "sweep", "--config",
                                str(config), "--out", str(out))
    assert code == 2 and not stdout
    assert "config error: preset: not read by model 'parcel'" in err
    assert not out.exists()


def test_config_numbers_read_alike_in_every_spelling(capsys, tmp_path):
    # YAML 1.1 reads an exponent without a dot (1e-1) as a string; the
    # config loader reads it as the number YAML 1.2 gives
    def sweep(q, T):
        config = tmp_path / "exp.yaml"
        config.write_text(f"model: bins\npolicies: [no_flex, always_flex]\n"
                          f"params: {{N: 3, q: {q}}}\nsweep: {{T: [{T}]}}\n"
                          f"replications: 2\n")
        out = tmp_path / f"{q}-{T}"
        code, _, err = run_cli(capsys, "bins", "sweep", "--config",
                               str(config), "--seed", "4", "--out", str(out))
        return code, err, [(out / name).read_bytes() if code == 0 else None
                           for name in ("bins_raw.csv", "bins_summary.csv")]

    runs = [sweep(q, T) for q in ("1e-1", "1.0e-1", "0.1", "1E-1")
            for T in ("1e2", "100", "1.0e+2")]
    assert all(code == 0 for code, _, _ in runs), runs[0][1]
    assert all(csvs == runs[0][2] for _, _, csvs in runs)
    code, err, _ = sweep("1e400", 100)
    assert code == 2 and "params.q: expected a finite number" in err
    code, err, _ = sweep(0.1, "1.55e1")
    assert code == 2 and "expected an integer" in err


# per sweep command, flags that build a sweep without --config, and which
# of them are required
SWEEP_FLAG_CASES = {
    "bins": ([("--policy", "static"), ("--T", "50"), ("--N", "3"),
              ("--q", "0.5")], ["--policy", "--T"]),
    "opaque": ([("--regime", "delta_zero"), ("--S", "5,10"), ("--N", "3"),
                ("--q", "0.2"), ("--cycles", "2")],
               ["--regime", "--S"]),
    "parcel": ([("--corpus", "c.txt"), ("--policy", "no_flex"),
                ("--tables", "t.txt")], ["--corpus", "--policy"]),
}


@pytest.mark.parametrize("command", list(SWEEP_FLAG_CASES))
def test_sweep_takes_model_flags_or_config_not_both(capsys, tmp_path,
                                                   command):
    flags, required = SWEEP_FLAG_CASES[command]
    config = tmp_path / "exp.yaml"
    config.write_text("model: bins\npolicies: [no_flex]\n"
                      "params: {T: 20}\nreplications: 1\n")
    for flag, value in flags:
        code, _, err = run_cli(capsys, command, "sweep", "--config",
                               str(config), flag, value, "--out",
                               str(tmp_path / "out"))
        assert code == 2 and flag in err and "--config" in err
    assert not (tmp_path / "out").exists()
    for name in required:
        argv = [arg for flag, value in flags if flag != name
                for arg in (flag, value)]
        code, _, err = run_cli(capsys, command, "sweep", *argv, "--out",
                               str(tmp_path / "out"))
        assert code == 2 and name in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where,spelling", [
    ("params", "params: {S: 5, cycles_per_instance: 0}"),
    ("sweep", "params: {S: 5}\nsweep: {cycles_per_instance: [2, -1]}"),
])
def test_opaque_config_without_cycles_exits_2(capsys, tmp_path, where,
                                              spelling):
    config = tmp_path / "exp.yaml"
    config.write_text(f"model: opaque\npolicies: [no_flex]\n{spelling}\n"
                      "replications: 2\n")
    code, _, err = run_cli(capsys, "opaque", "sweep", "--config",
                           str(config), "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"{where}.cycles_per_instance: expected an integer >= 1" in err
    assert not (tmp_path / "out").exists()


# every command that draws, with an output that a refused seed leaves
# unmade; each takes its seed from --seed, else ENDGAME_SEED
SEED_ARGV = {
    "bins-run": ["bins", "run", "--policy", "static", "--T", "30"],
    "bins-sweep": ["bins", "sweep", "--policy", "static", "--T", "30",
                   "--out", "out"],
    "opaque-sweep": ["opaque", "sweep", "--regime", "delta_zero", "--S",
                     "5,10", "--out", "out"],
    "opaque-run": ["opaque", "run", "--policy", "static", "--S", "5"],
    "parcel-gen-corpus": ["parcel", "gen-corpus", "--out", "out",
                          "--zones", "2", "--pool-size", "40"],
    "parcel-sweep": ["parcel", "sweep", "--corpus", "c.txt", "--policy",
                     "no_flex", "--out", "out"],
}


@pytest.mark.parametrize("argv", list(SEED_ARGV.values()),
                         ids=list(SEED_ARGV))
def test_negative_seed_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert "seed: expected a non-negative integer, got -1" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["-3", "abc", ""])
@pytest.mark.parametrize("argv", list(SEED_ARGV.values()),
                         ids=list(SEED_ARGV))
def test_bad_endgame_seed_exits_2_naming_it(capsys, tmp_path, monkeypatch,
                                            argv, value):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ENDGAME_SEED", value)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert (f"ENDGAME_SEED: expected a non-negative integer, got {value!r}"
            in err)
    assert not (tmp_path / "out").exists()


def test_parcel_pipeline(capsys, tmp_path):
    corpus_path = str(tmp_path / "corpus.txt")
    code, out, _ = run_cli(capsys, "parcel", "gen-corpus", "--out",
                           corpus_path, "--zones", "3", "--pool-size",
                           "300", "--epsilon", "20", "--seed", "0")
    assert code == 0
    # patient policy without tables: actionable error
    code, out, err = run_cli(capsys, "parcel", "run", "--corpus",
                             corpus_path, "--policy", "patient_dynamic")
    assert code == 2
    assert "estimate-tables" in err
    # no-flex day runs without tables
    code, out, _ = run_cli(capsys, "parcel", "run", "--corpus", corpus_path,
                           "--policy", "no_flex", "--seed", "0")
    assert code == 0
    fields = dict(pair.split("=", 1) for pair in out.strip().split(","))
    assert fields["flex_count"] == "0"
    tables_path = str(tmp_path / "tables.txt")
    code, out, _ = run_cli(capsys, "parcel", "estimate-tables", "--corpus",
                           corpus_path, "--out", tables_path, "--reps", "2",
                           "--seed", "0")
    assert code == 0
    code, out, _ = run_cli(capsys, "parcel", "run", "--corpus", corpus_path,
                           "--tables", tables_path, "--policy",
                           "patient_dynamic", "--seed", "0")
    assert code == 0
    code, out, _ = run_cli(capsys, "parcel", "cluster", "--corpus",
                           corpus_path, "--epsilon", "20", "--seed", "0")
    assert code == 0
    # the printed zoning is the LP's on the same k-means centers
    fields = dict(pair.split("=", 1) for pair in out.strip().split(","))
    corpus = pcorpus.load_corpus(corpus_path)
    centers = clustering.kmeans_centers(corpus.points, 3, seed=0)
    lp, lp_obj = oracle.lp_balanced_assign(corpus.points, centers, 20.0)
    counts = np.bincount(lp, minlength=3)
    assert fields == {"objective_km": str(lp_obj),
                      "min_count": str(counts.min()),
                      "max_count": str(counts.max())}
    # 299 packages in 3 zones: no epsilon below 2/3 is feasible
    lines = (tmp_path / "corpus.txt").read_text().splitlines(True)
    short = tmp_path / "short.txt"
    short.write_text("".join(lines[:-1]))
    code, _, err = run_cli(capsys, "parcel", "cluster", "--corpus",
                           str(short), "--epsilon", "0.5", "--seed", "0")
    assert code == 2
    assert (f"minimal feasible epsilon is "
            f"{clustering.min_feasible_epsilon(299, 3)}" in err)


def test_invalid_policy_exits_2(capsys, tmp_path):
    corpus_path = str(tmp_path / "c.txt")
    code, _, _ = run_cli(capsys, "parcel", "gen-corpus", "--out", corpus_path,
                         "--zones", "2", "--pool-size", "100",
                         "--epsilon", "10", "--seed", "0")
    assert code == 0
    code, _, err = run_cli(capsys, "parcel", "run", "--corpus", corpus_path,
                           "--policy", "teleport")
    assert code == 2


def test_missing_corpus_exits_1(capsys):
    code, _, err = run_cli(capsys, "parcel", "run", "--corpus",
                           "/nonexistent/corpus.txt", "--policy", "no_flex")
    assert code == 1


# per command, its argv with DIR where a file path goes; DIR is a directory
DIRECTORY_ARGV = {
    "bins-sweep-config": ["bins", "sweep", "--config", "DIR"],
    "parcel-run-corpus": ["parcel", "run", "--corpus", "DIR", "--policy",
                          "no_flex"],
    "parcel-run-tables": ["parcel", "run", "--corpus", "CORPUS", "--tables",
                          "DIR", "--policy", "no_flex"],
    "report-raw": ["report", "--raw", "DIR", "--out", "OUT"],
    "report-out": ["report", "--raw", "RAW", "--out", "DIR"],
    "parcel-gen-corpus-out": ["parcel", "gen-corpus", "--out", "DIR",
                              "--zones", "2", "--pool-size", "100",
                              "--epsilon", "10"],
    "parcel-estimate-tables-out": ["parcel", "estimate-tables", "--corpus",
                                   "CORPUS", "--out", "DIR", "--reps", "1"],
}


@pytest.mark.parametrize("argv", list(DIRECTORY_ARGV.values()),
                         ids=list(DIRECTORY_ARGV))
def test_directory_as_a_file_path_exits_2_naming_it(capsys, tmp_path,
                                                    small_corpus, argv):
    """A directory where a command reads or writes a file is refused like
    any other bad input: exit 2, the path named, no traceback."""
    directory = tmp_path / "dir"
    directory.mkdir()
    raw = tmp_path / "raw.csv"
    raw.write_text("schema_version,policy,T,rep,final_gap\n"
                   "1,no_flex,50,0,1.5\n")
    paths = {"DIR": str(directory), "CORPUS": str(small_corpus),
             "RAW": str(raw), "OUT": str(tmp_path / "report.csv")}
    code, out, err = run_cli(capsys, *(paths.get(arg, arg) for arg in argv))
    assert code == 2, err
    assert str(directory) in err and "Traceback" not in err
    assert out == ""


# per command that writes one file, its argv with OUT as that file
OUT_FILE_ARGV = {
    "report": ["report", "--raw", "RAW", "--out", "OUT"],
    "parcel-gen-corpus": ["parcel", "gen-corpus", "--out", "OUT",
                          "--zones", "2", "--pool-size", "100",
                          "--epsilon", "10"],
    "parcel-estimate-tables": ["parcel", "estimate-tables", "--corpus",
                               "CORPUS", "--out", "OUT", "--reps", "1"],
}


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize("argv", list(OUT_FILE_ARGV.values()),
                         ids=list(OUT_FILE_ARGV))
def test_bad_output_file_exits_2_before_any_work(capsys, tmp_path,
                                                 small_corpus, monkeypatch,
                                                 argv, where):
    """An output file that is a directory, or whose directory does not
    exist, exits 2 naming it, before any corpus, table or summary work."""
    work = []
    for module, name in ((pcorpus, "build_corpus"),
                         (ptables, "estimate_flex_tables"),
                         (cli, "write_summary")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **kw:
                            work.append(name))
    raw = tmp_path / "raw.csv"
    raw.write_text("schema_version,policy,T,rep,final_gap\n"
                   "1,no_flex,50,0,1.5\n")
    out = tmp_path / "dir"
    if where == "directory":
        out.mkdir()
    else:
        out = out / "file.txt"
    paths = {"OUT": str(out), "CORPUS": str(small_corpus), "RAW": str(raw)}
    code, stdout, err = run_cli(capsys, *(paths.get(a, a) for a in argv))
    assert code == 2, err
    assert str(out) in err and "Traceback" not in err
    assert stdout == "" and work == []
    assert out.is_dir() == (where == "directory")


def test_report_without_policy_column_exits_2(capsys, tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("schema_version,T,rep,final_gap\n1,50,0,1.5\n")
    code, _, err = run_cli(capsys, "report", "--raw", str(raw), "--out",
                           str(tmp_path / "report.csv"))
    assert code == 2
    assert str(raw) in err and "'policy'" in err
    assert not (tmp_path / "report.csv").exists()


def test_report_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bins", "sweep", "--policy", "no_flex",
                           "--T", "50", "--reps", "4", "--seed", "2",
                           "--out", str(tmp_path))
    assert code == 0
    report_path = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "report", "--raw",
                           str(tmp_path / "bins_raw.csv"), "--out",
                           str(report_path))
    assert code == 0
    text = report_path.read_text()
    assert text.startswith("schema_version")
    assert "final_gap" in text


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("model,argv,params", [
    ("bins", ["bins", "sweep", "--policy", "no_flex", "--policy", "dynamic",
              "--T", "100,400", "--N", "3", "--q", "0.5", "--reps", "3"],
     {"T", "N", "q"}),
    ("opaque", ["opaque", "sweep", "--config", "{config}"],
     {"S", "N", "q", "regime", "cycles_per_instance"}),
], ids=["bins", "opaque"])
def test_report_gives_one_row_per_cell_and_metric(capsys, tmp_path, model,
                                                  argv, params):
    config = tmp_path / "exp.yaml"
    config.write_text("model: opaque\npolicies: [no_flex, dynamic]\n"
                      "params: {N: 3, q: 0.2, cycles_per_instance: 3}\n"
                      "sweep: {S: [5, 10], regime: [delta_zero, delta_sqrt]}"
                      "\nreplications: 2\n")
    code, _, _ = run_cli(capsys, *(a.format(config=config) for a in argv),
                         "--seed", "2", "--out", str(tmp_path))
    assert code == 0
    report = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "report", "--raw",
                         str(tmp_path / f"{model}_raw.csv"), "--out",
                         str(report))
    assert code == 0
    rows = read_csv(report)
    summary = read_csv(tmp_path / f"{model}_summary.csv")
    assert {row["metric"] for row in rows} == set(runner.RAW_METRICS[model])
    assert not params & {row["metric"] for row in rows}
    # the report's cells name every parameter; the summary's the swept ones
    stats = ["mean", "se", "mad", "q1", "median", "q3", "n"]
    cell = [key for key in summary[0] if key not in ["schema_version",
                                                     "metric"] + stats]
    by_cell = {tuple(row[k] for k in cell + ["metric"]): row for row in rows}
    assert len(by_cell) == len(rows) == len(summary)
    for want in summary:
        got = by_cell[tuple(want[k] for k in cell + ["metric"])]
        assert {k: got[k] for k in stats} == {k: want[k] for k in stats}


def test_report_without_metric_column_exits_2(capsys, tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("schema_version,policy,T,rep\n1,no_flex,50,0\n")
    code, _, err = run_cli(capsys, "report", "--raw", str(raw), "--out",
                           str(tmp_path / "report.csv"))
    assert code == 2
    assert str(raw) in err and "no metric column" in err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("value", ["x", ""])
def test_report_non_number_metric_exits_2_naming_file_and_column(
        capsys, tmp_path, value):
    raw = tmp_path / "raw.csv"
    raw.write_text("schema_version,policy,T,rep,final_gap\n"
                   f"1,no_flex,50,0,1.5\n1,no_flex,50,1,{value}\n")
    code, _, err = run_cli(capsys, "report", "--raw", str(raw), "--out",
                           str(tmp_path / "report.csv"))
    assert code == 2
    assert str(raw) in err and "'final_gap'" in err and "row 2" in err
    assert not (tmp_path / "report.csv").exists()


def test_report_without_data_rows_exits_2_naming_file(capsys, tmp_path):
    for text in ("schema_version,policy,T,rep,final_gap\n", ""):
        raw = tmp_path / "raw.csv"
        raw.write_text(text)
        report = tmp_path / "report.csv"
        code, _, err = run_cli(capsys, "report", "--raw", str(raw), "--out",
                               str(report))
        assert code == 2
        assert f"{raw}: no data rows" in err
        assert not report.exists()


@pytest.mark.parametrize("argv,flag", [
    (("sweep", "--regime", "delta_zero", "--S", "5", "--cycles", "0",
      "--out", "{out}"), "--cycles"),
    (("run", "--policy", "static", "--S", "5", "--cycles", "0"), "--cycles"),
    (("run", "--policy", "static", "--S", "5", "--cycles", "-3"),
     "--cycles")],
    ids=["sweep-cycles", "run-cycles", "run-negative"])
def test_opaque_zero_counts_exit_2_naming_the_flag(capsys, tmp_path, argv,
                                                  flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["opaque"] + [a.format(out=out) for a in argv])
    assert exc.value.code == 2
    assert f"argument {flag}: expected an integer >= 1" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ("bins", "sweep", "--policy", "no_flex", "--T", "10", "--reps", "1"),
    ("opaque", "sweep", "--regime", "delta_zero", "--S", "5"),
    ("parcel", "sweep", "--corpus", "corpus.txt", "--policy", "no_flex")],
    ids=["bins", "opaque", "parcel"])
def test_sweep_parallel_below_one_exits_2_naming_the_flag(capsys, tmp_path,
                                                          argv, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv) + ["--parallel", value, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --parallel: expected an integer >= 1" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ("bins", "sweep", "--policy", "no_flex", "--T", "10"),
    ("opaque", "sweep", "--regime", "delta_zero", "--S", "5"),
    ("parcel", "sweep", "--corpus", "corpus.txt", "--policy", "no_flex")],
    ids=["bins", "opaque", "parcel"])
def test_sweep_reps_below_one_exits_2_naming_the_flag(capsys, tmp_path,
                                                      argv, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv) + ["--reps", value, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --reps: expected an integer >= 1" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_estimate_tables_reps_below_one_exits_2_writing_nothing(
        capsys, tmp_path, small_corpus, value):
    tables = tmp_path / "tables.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["parcel", "estimate-tables", "--corpus", str(small_corpus),
                  "--out", str(tables), "--reps", value])
    assert exc.value.code == 2
    assert "argument --reps: expected an integer >= 1" in \
        capsys.readouterr().err
    assert not tables.exists()


def test_cluster_defaults_to_the_corpus_epsilon(capsys, tmp_path):
    # 300 packages in 3 zones: an epsilon of 200 leaves them 31 to 191
    # packages, the corpus's 10 keeps every zone within 100 +- 10
    path = str(tmp_path / "corpus.txt")
    code, _, _ = run_cli(capsys, "parcel", "gen-corpus", "--out", path,
                         "--zones", "3", "--pool-size", "300",
                         "--epsilon", "10", "--seed", "0")
    assert code == 0
    code, out, _ = run_cli(capsys, "parcel", "cluster", "--corpus", path,
                           "--seed", "0")
    assert code == 0
    fields = dict(pair.split("=", 1) for pair in out.strip().split(","))
    assert 90 <= int(fields["min_count"]) <= int(fields["max_count"]) <= 110


@pytest.mark.parametrize("flag,value", [
    ("--epsilon", "inf"), ("--epsilon", "nan"), ("--epsilon", "-inf"),
    ("--city-radius-km", "inf"), ("--city-radius-km", "nan"),
    ("--cluster-sd-km", "nan"), ("--cluster-sd-km", "inf")])
def test_gen_corpus_refuses_non_finite_geometry_naming_the_flag(
        capsys, tmp_path, flag, value):
    path = tmp_path / "corpus.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["parcel", "gen-corpus", "--out", str(path), "--zones", "3",
                  "--pool-size", "300", f"{flag}={value}", "--seed", "0"])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a finite number, got '{value}'" in \
        capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_cluster_refuses_a_non_finite_epsilon_naming_the_flag(
        capsys, tmp_path, value):
    path = str(tmp_path / "corpus.txt")
    code, _, _ = run_cli(capsys, "parcel", "gen-corpus", "--out", path,
                         "--zones", "3", "--pool-size", "300", "--seed", "0")
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["parcel", "cluster", "--corpus", path,
                  f"--epsilon={value}", "--seed", "0"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert not out
    assert f"argument --epsilon: expected a finite number, got '{value}'" \
        in err


@pytest.mark.parametrize("argv,message", [
    (("run", "--policy", "static", "--S", "0"), "S must be >= 1, got 0"),
    (("sweep", "--regime", "delta_inv_sqrt", "--S", "5", "--N", "0",
      "--out", "{out}"), "N must be >= 2, got 0"),
    (("sweep", "--config", "{config}", "--out", "{out}"),
     "S must be >= 1, got 0")],
    ids=["run-S", "sweep-N", "config-S"])
def test_opaque_zero_stock_or_products_exit_2_writing_nothing(
        capsys, tmp_path, argv, message):
    out, config = tmp_path / "out", tmp_path / "exp.yaml"
    config.write_text("model: opaque\npolicies: [static]\n"
                      "sweep: {S: [0, 5]}\nreplications: 1\n")
    code, _, err = run_cli(capsys, "opaque", *(
        a.format(out=out, config=config) for a in argv))
    assert code == 2
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("policy,flag,value", [
    ("static", "--a-s", "inf"), ("flex_sqrt_t", "--a-s", "inf"),
    ("static", "--a-s", "nan"), ("dynamic", "--a-d", "inf"),
    ("always_flex", "--a-d", "nan")])
def test_bins_run_refuses_a_non_finite_constant_naming_it(capsys, policy,
                                                         flag, value):
    code, out, err = run_cli(capsys, "bins", "run", "--policy", policy,
                             "--T", "100", flag, value)
    name = flag[2:].replace("-", "_")
    assert code == 2 and not out
    assert f"{name} must be a finite number >= 0, got {value}" in err


@pytest.mark.parametrize("policy,flag,value", [
    ("no_flex", "--a-s", "3"), ("static", "--a-d", "0.5"),
    ("always_flex", "--a-s", "3"), ("dynamic", "--a-s", "2"),
    ("flex_sqrt_t", "--a-d", "0.1")])
def test_bins_run_refuses_a_constant_its_policy_does_not_read(capsys, policy,
                                                              flag, value):
    code, out, err = run_cli(capsys, "bins", "run", "--policy", policy,
                             "--T", "100", flag, value)
    name = flag[2:].replace("-", "_")
    assert code == 2 and not out
    assert f"{name}: not read by the {policy} policy" in err


def test_bins_run_takes_a_huge_finite_static_constant(capsys):
    # the static start overflows to before period 0, and clamps there
    code, out, _ = run_cli(capsys, "bins", "run", "--policy", "static",
                           "--T", "100", "--a-s", "1e308")
    assert code == 0 and "first_trigger=0" in out


def test_regime_table_is_byte_identical_at_any_parallel(capsys, tmp_path):
    """The regime table runs through the runner: every file it writes has
    the same bytes at --parallel 1, 2 and 3, and a config sweep takes
    --reps and --parallel next to --config."""
    def files(out):
        return {path.name: path.read_bytes() for path in out.iterdir()}

    outs = []
    for parallel in ("1", "2", "3"):
        out = tmp_path / f"table{parallel}"
        code, _, err = run_cli(capsys, "opaque", "sweep", "--regime",
                               "delta_const", "--S", "5,12,30", "--N", "3",
                               "--reps", "3", "--cycles", "4", "--seed", "8",
                               "--parallel", parallel, "--out", str(out))
        assert code == 0, err
        outs.append(files(out))
    assert len(outs[0]) == 7  # the table, five curves and plot.py
    assert outs[1] == outs[0] and outs[2] == outs[0]

    def config_sweep(name, replications, *flags):
        config = tmp_path / f"{name}.yaml"
        config.write_text("model: opaque\npolicies: [no_flex, dynamic]\n"
                          "params: {N: 3, q: 0.2, cycles_per_instance: 2}\n"
                          f"sweep: {{S: [5, 10]}}\nreplications: "
                          f"{replications}\n")
        code, _, err = run_cli(capsys, "opaque", "sweep", "--config",
                               str(config), "--seed", "1", "--out",
                               str(tmp_path / name), *flags)
        assert code == 0, err
        return files(tmp_path / name)

    overridden = config_sweep("flags", 1, "--reps", "3", "--parallel", "2")
    assert overridden == config_sweep("file", 3)
    assert overridden != config_sweep("one", 1)


@pytest.mark.parametrize("grid,message", [
    ("5:10:0", "sweep.S: needs a nonempty value list"),
    ("10,5", "sweep.S: values must be ascending"),
    ("10,10", "sweep.S: values must be ascending, each once")],
    ids=["empty", "descending", "repeated"])
def test_regime_table_bad_grid_exits_2_writing_nothing(capsys, tmp_path, grid,
                                                       message):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "opaque", "sweep", "--regime",
                           "delta_zero", "--S", grid, "--out", str(out))
    assert code == 2
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["50,50", "50,60,50"])
def test_bins_sweep_refuses_a_repeated_T(capsys, tmp_path, grid):
    """A T given twice would run, and summarize, each replication
    twice."""
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "bins", "sweep", "--policy", "no_flex",
                           "--T", grid, "--reps", "3", "--out", str(out))
    assert code == 2
    assert "sweep.T: a second 50; each value may appear once" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("bins", "run", "--policy", "no_flex", "--T", "100"),
    ("bins", "sweep", "--policy", "always_flex", "--T", "100", "--reps", "1"),
    ("opaque", "run", "--policy", "no_flex", "--S", "5"),
    ("opaque", "sweep", "--regime", "delta_zero", "--S", "5,8"),
    ("opaque", "sweep", "--config", "{config}")],
    ids=["bins-run", "bins-sweep", "opaque-run", "opaque-sweep",
         "opaque-config"])
def test_too_many_bins_exits_2_naming_N_writing_nothing(capsys, tmp_path,
                                                       argv):
    # bins are drawn as int16: N above its range is refused up front
    config = tmp_path / "exp.yaml"
    config.write_text("model: opaque\npolicies: [no_flex]\n"
                      "params: {N: 40000}\nsweep: {S: [5]}\n")
    out = tmp_path / "out"
    argv = [a.format(config=config) for a in argv]
    if argv[1] == "sweep":
        argv += ["--out", str(out)]
    if "--config" not in argv:
        argv += ["--N", "40000"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "N must be <= 32767, got 40000" in err
    assert not out.exists()


# the model named in the file decides what `<command> sweep --config` runs
FIELD_CASES = [  # command, model, policies, params, the field named
    ("bins", "bins", "[no_flex]", "{T: 50, N: 3, q: 0.5, r: 2}", "params.r"),
    ("bins", "opaque", "[no_flex]", "{S: 10, N: 3, q: 0.2, instances: 4}",
     "params.instances"),
    ("parcel", "parcel", "[no_flex]", "{corpus: c.txt, N: 6}", "params.N"),
    ("bins", "bins", "[{kind: dynamic, bogus: 3}]", "{T: 50}",
     "policies[0].bogus"),
    ("bins", "bins", "[{kind: dynamic, a_d: 0.05}, {kind: dynamic, a_d: 5}]",
     "{T: 50}", "policies[1]"),
    ("bins", "bins", "[no_flex, static, no_flex]", "{T: 50}", "policies[2]"),
    ("bins", "opaque", "[{kind: dynamic, latched: false}]", "{S: 10}",
     "policies[0].latched"),
    ("bins", "bins", "[{kind: static, a_d: 0.5}]", "{T: 50}",
     "policies[0].a_d"),
    ("bins", "bins", "[{kind: no_flex, latched: true}]", "{T: 50}",
     "policies[0].latched"),
    ("bins", "bins", "[{kind: dynamic, a_s: 2}]", "{T: 50}",
     "policies[0].a_s"),
    ("opaque", "opaque", "[{kind: always_flex, a_s: 3}]", "{S: 10}",
     "policies[0].a_s"),
    ("parcel", "parcel", "[{kind: routing_dynamic, a_d: 0.5}]",
     "{corpus: c.txt}", "policies[0].a_d"),
    ("parcel", "parcel", "[{kind: unloading_only, radius_km: 3}]",
     "{corpus: c.txt}", "policies[0].radius_km"),
    ("bins", "bins", "[no_flex]", "{T: 50.5}", "params.T"),
    ("parcel", "parcel", "[no_flex]", "{corpus: c.txt, M1: ten}",
     "params.M1"),
    ("bins", "bins", "[no_flex]", "{N: 3}", "params.T"),
    ("opaque", "opaque", "[no_flex]", "{N: 3, q: 0.2}", "params.S"),
    ("parcel", "parcel", "[no_flex]", "{T: 40}", "params.corpus"),
]


@pytest.mark.parametrize("command,model,policies,params,field", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}-{case[3]}-{case[4]}")
    for case in FIELD_CASES])
def test_config_field_without_effect_exits_2(capsys, tmp_path, command, model,
                                             policies, params, field):
    config = tmp_path / "exp.yaml"
    config.write_text(f"model: {model}\npolicies: {policies}\n"
                      f"params: {params}\n")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, "sweep", "--config", str(config),
                           "--out", str(out))
    assert code == 2
    assert field in err
    assert not out.exists()


@pytest.fixture
def small_corpus(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    code, _, _ = run_cli(capsys, "parcel", "gen-corpus", "--out", str(path),
                         "--zones", "2", "--pool-size", "100",
                         "--epsilon", "10", "--seed", "0")
    assert code == 0
    return path


def test_config_needing_tables_runs_no_day(capsys, tmp_path, small_corpus,
                                           monkeypatch):
    days = []
    run_day = psim.run_day
    monkeypatch.setattr(psim, "run_day",
                        lambda *a, **kw: days.append(1) or run_day(*a, **kw))
    config = tmp_path / "exp.yaml"
    config.write_text("model: parcel\npolicies: [no_flex, patient_dynamic]\n"
                      f"params: {{corpus: {small_corpus}, T: 40}}\n"
                      "replications: 2\n")
    code, _, err = run_cli(capsys, "bins", "sweep", "--config", str(config),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "patient_dynamic" in err and "estimate-tables" in err
    assert days == []


@pytest.mark.parametrize("model,params", [
    ("bins", "sweep: {{T: [20]}}"), ("opaque", "sweep: {{S: [4]}}"),
    ("parcel", "params: {{corpus: {corpus}, T: 40}}")],
    ids=["bins", "opaque", "parcel"])
def test_unknown_policy_kind_exits_2_naming_its_field(
        capsys, tmp_path, small_corpus, monkeypatch, model, params):
    days = []
    run_day = psim.run_day
    monkeypatch.setattr(psim, "run_day",
                        lambda *a, **kw: days.append(1) or run_day(*a, **kw))
    config = tmp_path / "exp.yaml"
    config.write_text(f"model: {model}\npolicies: [no_flex, bogus]\n"
                      + params.format(corpus=small_corpus)
                      + "\nreplications: 2\n")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, model, "sweep", "--config", str(config),
                           "--out", str(out))
    assert code == 2
    assert "policies[1].kind: unknown" in err and "'bogus'" in err
    assert days == [] and not out.exists()


@pytest.mark.parametrize("out", ["{config}", "{config}/sub"])
@pytest.mark.parametrize("argv", [
    ("bins", "sweep", "--config", "{config}"),
    ("opaque", "sweep", "--regime", "delta_zero", "--S", "5", "--out",
     "{out}")])
def test_out_dir_naming_a_file_exits_2(capsys, tmp_path, argv, out):
    # the bins config's out_dir is the config itself, or under it
    config = tmp_path / "exp.yaml"
    out = out.format(config=config)
    config.write_text("model: bins\npolicies: [no_flex]\nsweep: {T: [20]}\n"
                      f"replications: 2\nout_dir: {out}\n")
    code, _, err = run_cli(capsys, *(a.format(config=config, out=out)
                                     for a in argv))
    assert code == 2
    assert f"output directory {out}: " in err


@pytest.mark.parametrize("name,value", [
    ("speed", ".nan"), ("a_d", ".inf"), ("c_o", "-.inf"), ("flex_km", ".nan"),
    pytest.param("h_max", "1" + "0" * 400, id="h_max-int-beyond-float")])
def test_non_finite_parcel_value_runs_no_day(capsys, tmp_path, small_corpus,
                                             name, value):
    config = tmp_path / "exp.yaml"
    config.write_text("model: parcel\npolicies: [no_flex, routing_dynamic]\n"
                      f"params: {{corpus: {small_corpus}, T: 40, "
                      f"{name}: {value}}}\nreplications: 2\n")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "parcel", "sweep", "--config", str(config),
                           "--out", str(out))
    assert code == 2
    assert f"params.{name}: expected a finite number" in err
    assert not (out / "parcel_raw.csv").exists()


def test_parcel_sweep_value_out_of_range_runs_no_day(capsys, tmp_path,
                                                    small_corpus,
                                                    monkeypatch):
    # a later cell's bad value is refused before the first cell runs
    days = []
    run_day = psim.run_day
    monkeypatch.setattr(psim, "run_day",
                        lambda *a, **kw: days.append(1) or run_day(*a, **kw))
    config = tmp_path / "exp.yaml"
    config.write_text("model: parcel\npolicies: [no_flex]\n"
                      f"params: {{corpus: {small_corpus}, T: 40}}\n"
                      "sweep: {speed: [15.75, -1.0]}\nreplications: 2\n")
    code, _, err = run_cli(capsys, "parcel", "sweep", "--config", str(config),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "sweep.speed: speed must be positive and finite, got -1.0" in err
    assert days == []


def test_parcel_modules_load_no_scipy_optimize():
    # balanced zoning needs no LP solver
    code = ("import sys\n"
            "from endgame.parcel import corpus, simulate, tables\n"
            "print('scipy.optimize' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_endgame_modules_load_no_scipy():
    # every module of the package, the CLI included, runs on numpy alone
    code = ("import importlib, pkgutil, sys\n"
            "import endgame\n"
            "names = [m.name for m in pkgutil.walk_packages(\n"
            "    endgame.__path__, 'endgame.')]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "print('endgame.harness.cli' in names,\n"
            "      'endgame.parcel.clustering' in names)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[:2] == ["True True", "[]"]


def test_bins_and_opaque_configs_load_no_scipy():
    # no endgame module loads scipy; the bins and opaque paths, and the
    # benchmark's set-up of their workloads, must keep it that way
    code = ("import sys\n"
            "from endgame.harness import cli, runner\n"
            "from endgame.harness.config import ExperimentConfig\n"
            "ExperimentConfig(model='bins', policies=['static'],\n"
            "                 params={'N': 5}, sweep={'T': [100]})\n"
            "ExperimentConfig(model='opaque', policies=['dynamic'],\n"
            "                 params={'S': 10})\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_and_runner_load_no_process_pool_or_yaml(tmp_path):
    # the process pool loads when a run starts workers and PyYAML when a
    # config is read; the config loader still reads 1e-1 as a float
    config = tmp_path / "exp.yaml"
    config.write_text("model: bins\npolicies: [no_flex]\n"
                      "params: {T: 100, N: 3, q: 1e-1}\n")
    code = ("import sys\n"
            "import endgame.harness.cli, endgame.harness.runner\n"
            "print([m for m in ('yaml', 'concurrent.futures.process')\n"
            "       if m in sys.modules])\n"
            "from endgame.harness.config import load_config\n"
            f"print(repr(load_config({str(config)!r}).params['q']))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[:2] == ["[]", "0.1"]


@pytest.mark.parametrize("zone", [5, -1])
def test_corpus_zone_out_of_range_exits_2(capsys, tmp_path, small_corpus,
                                          zone):
    lines = small_corpus.read_text().splitlines(True)
    x, y, u, _ = lines[-1].split()
    lines[-1] = f"{x} {y} {u} {zone}\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(lines))
    code, _, err = run_cli(capsys, "parcel", "run", "--corpus", str(bad),
                           "--policy", "no_flex")
    assert code == 2
    assert (f"{bad}: line {len(lines)}: default zone {zone}" in err
            and "2-zone" in err)


@pytest.mark.parametrize("named,dropped", [
    ("depot", lambda line: line.startswith("# depot")),
    ("package", lambda line: not line.startswith("#")),
], ids=["no-depot-header", "no-package-lines"])
def test_corpus_missing_part_exits_2(capsys, tmp_path, small_corpus, named,
                                     dropped):
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(line for line in
                           small_corpus.read_text().splitlines(True)
                           if not dropped(line)))
    code, _, err = run_cli(capsys, "parcel", "run", "--corpus", str(bad),
                           "--policy", "no_flex")
    assert code == 2
    assert str(bad) in err and named in err


@pytest.mark.parametrize("column,value", [
    (0, "nan"), (1, "inf"), (2, "-0.5"), (2, "nan")],
    ids=["x-nan", "y-inf", "unload-negative", "unload-nan"])
def test_corpus_bad_package_value_exits_2(capsys, tmp_path, small_corpus,
                                          column, value):
    lines = small_corpus.read_text().splitlines(True)
    parts = lines[-1].split()
    parts[column] = value
    lines[-1] = " ".join(parts) + "\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(lines))
    code, _, err = run_cli(capsys, "parcel", "run", "--corpus", str(bad),
                           "--policy", "no_flex")
    assert code == 2
    assert (f"{bad}: line {len(lines)}: a coordinate or the unloading time "
            "is not finite, or the unloading time is negative" in err)


@pytest.mark.parametrize("value", ["1.5", "-1", "nan"])
def test_tables_n_obs_not_a_count_exits_2(capsys, tmp_path, small_corpus,
                                          value):
    tables = tmp_path / "tables.txt"
    code, _, _ = run_cli(capsys, "parcel", "estimate-tables", "--corpus",
                         str(small_corpus), "--out", str(tables), "--reps",
                         "1", "--seed", "0")
    assert code == 0
    lines = tables.read_text().splitlines(True)
    row = lines.index("# matrix n_obs\n") + 1
    lines[row] = value + " " + lines[row].split(" ", 1)[1]
    tables.write_text("".join(lines))
    code, _, err = run_cli(capsys, "parcel", "run", "--corpus",
                           str(small_corpus), "--tables", str(tables),
                           "--policy", "patient_dynamic")
    assert code == 2
    assert f"{tables}: matrix 'n_obs' holds a value that is not a count" \
        in err


def test_tables_without_n_obs_exits_2_naming_it(capsys, tmp_path,
                                                small_corpus):
    tables = tmp_path / "tables.txt"
    code, _, _ = run_cli(capsys, "parcel", "estimate-tables", "--corpus",
                         str(small_corpus), "--out", str(tables), "--reps",
                         "1", "--seed", "0")
    assert code == 0
    text = tables.read_text()
    tables.write_text(text[:text.index("# matrix n_obs\n")])
    code, out, err = run_cli(capsys, "parcel", "run", "--corpus",
                             str(small_corpus), "--tables", str(tables),
                             "--policy", "patient_dynamic")
    assert code == 2 and not out
    assert f"{tables}: missing block 'n_obs'" in err


def test_tables_with_bare_hash_line_exits_2(capsys, tmp_path, small_corpus):
    tables = tmp_path / "tables.txt"
    code, _, _ = run_cli(capsys, "parcel", "estimate-tables", "--corpus",
                         str(small_corpus), "--out", str(tables), "--reps",
                         "1", "--seed", "0")
    assert code == 0
    lines = tables.read_text().splitlines(True)
    tables.write_text("".join(lines[:2] + ["#\n"] + lines[2:]))
    code, _, err = run_cli(capsys, "parcel", "run", "--corpus",
                           str(small_corpus), "--tables", str(tables),
                           "--policy", "patient_dynamic")
    assert code == 2
    assert str(tables) in err and "line 3" in err


def test_tables_with_a_short_row_exit_2(capsys, tmp_path, small_corpus):
    tables = tmp_path / "tables.txt"
    code, _, _ = run_cli(capsys, "parcel", "estimate-tables", "--corpus",
                         str(small_corpus), "--out", str(tables), "--reps",
                         "1", "--seed", "0")
    assert code == 0
    lines = tables.read_text().splitlines(True)
    row = lines.index("# matrix ser\n") + 1
    lines[row] = lines[row].split(" ", 1)[0] + "\n"
    tables.write_text("".join(lines))
    code, _, err = run_cli(capsys, "parcel", "run", "--corpus",
                           str(small_corpus), "--tables", str(tables),
                           "--policy", "patient_dynamic")
    assert code == 2
    assert str(tables) in err and "matrix 'ser' is not 2x2" in err


@pytest.fixture(scope="module")
def zone_inputs(tmp_path_factory):
    """Zone count -> (corpus, its flex tables), for 6 and 8 zones."""
    work = tmp_path_factory.mktemp("zones")
    inputs = {}
    for zones in (6, 8):
        corpus, tables = work / f"c{zones}.txt", work / f"t{zones}.txt"
        assert cli.main(["parcel", "gen-corpus", "--out", str(corpus),
                         "--zones", str(zones), "--pool-size", "240",
                         "--epsilon", "20", "--seed", "0"]) == 0
        assert cli.main(["parcel", "estimate-tables", "--corpus",
                         str(corpus), "--out", str(tables), "--reps", "1",
                         "--seed", "0"]) == 0
        inputs[zones] = corpus, tables
    return inputs


@pytest.mark.parametrize("corpus_zones,table_zones,policy", [
    (8, 6, "patient_dynamic"), (6, 8, "cost_min")])
def test_tables_for_another_zone_count_exit_2(capsys, tmp_path, zone_inputs,
                                              corpus_zones, table_zones,
                                              policy):
    corpus, tables = zone_inputs[corpus_zones][0], zone_inputs[table_zones][1]
    message = (f"flex tables are for {table_zones} zones "
               f"({table_zones} arrival probabilities) but the corpus has "
               f"{corpus_zones}")
    code, _, err = run_cli(capsys, "parcel", "run", "--corpus", str(corpus),
                           "--tables", str(tables), "--policy", policy)
    assert code == 2 and message in err
    config = tmp_path / "exp.yaml"
    config.write_text(f"model: parcel\npolicies: [{policy}]\n"
                      f"params: {{corpus: {corpus}, tables: {tables}, "
                      f"T: 50}}\n")
    code, _, err = run_cli(capsys, "parcel", "sweep", "--config", str(config),
                           "--reps", "1", "--out", str(tmp_path))
    assert code == 2 and message in err
