import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endgame.harness import cli
from endgame.parcel import simulate as psim


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
                           "--instances", "2", "--cycles", "2",
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


# per sweep command, flags that build a sweep without --config, and which
# of them are required
SWEEP_FLAG_CASES = {
    "bins": ([("--policy", "static"), ("--T", "50"), ("--N", "3"),
              ("--q", "0.5")], ["--policy", "--T"]),
    "opaque": ([("--regime", "delta_zero"), ("--S", "5,10"), ("--N", "3"),
                ("--q", "0.2"), ("--instances", "2"), ("--cycles", "2")],
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


@pytest.mark.parametrize("argv", [
    ["bins", "run", "--policy", "static", "--T", "30"],
    ["bins", "sweep", "--policy", "static", "--T", "30"],
    ["opaque", "sweep", "--regime", "delta_zero", "--S", "5,10"],
], ids=["bins-run", "bins-sweep", "opaque-sweep"])
def test_negative_seed_exits_2(capsys, tmp_path, argv):
    code, _, err = run_cli(capsys, *argv, "--seed", "-1",
                           *(["--out", str(tmp_path)] if "sweep" in argv
                             else []))
    assert code == 2 and "non-negative" in err


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
    code, _, _ = run_cli(capsys, "parcel", "cluster", "--corpus",
                         corpus_path, "--epsilon", "20", "--seed", "0")
    assert code == 0


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
    code, _, err = run_cli(capsys, command, "sweep", "--config", str(config),
                           "--out", str(tmp_path))
    assert code == 2
    assert field in err


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


def test_bins_and_opaque_configs_load_no_scipy():
    # the parcel modules load scipy; the bins and opaque paths, and the
    # benchmark's set-up of their workloads, must not
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
