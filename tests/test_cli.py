import pytest

from endgame.harness import cli


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
