"""Common random numbers: every policy of a sweep runs on the same
arrivals, addressed by the model's arrival parameters
(``config.ARRIVAL_PARAMS``) and nothing else."""

import csv

import numpy as np
import pytest

from endgame import bins_engine as be
from endgame import opaque
from endgame.harness import cli

ARRAYS = ("preferred", "is_flex", "pair")


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def seen(monkeypatch):
    """Records each draw's stream addresses, its rows and one Philox key
    per category, and, per policy kind, the arrival blocks the kernel
    runs on."""
    record = {"keys": [], "blocks": {}}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(N, q, T, keys, rows, *rest):
            record["keys"].append(((rows.start, rows.stop), tuple(
                (c, tuple(int(w) for w in key))
                for c, key in sorted(keys.items()))))
            return inner(N, q, T, keys, rows, *rest)
        monkeypatch.setattr(module, name, wrapper)

    counting(be, "draw_arrival_arrays")
    counting(opaque, "draw_raw_arrays")
    kernel = be.lockstep

    def recording(policy, N, q, arrivals, *rest):
        record["blocks"].setdefault(policy.kind, []).append(
            {name: getattr(arrivals, name).copy() for name in ARRAYS})
        return kernel(policy, N, q, arrivals, *rest)
    monkeypatch.setattr(be, "lockstep", recording)
    return record


def assert_same_blocks(blocks, kinds):
    first, second = (blocks[k] for k in kinds)
    assert len(first) == len(second) >= 1
    for a, b in zip(first, second):
        for name in ARRAYS:
            assert np.array_equal(a[name], b[name]), name


def test_bins_sweep_policies_see_the_same_arrivals(capsys, tmp_path, seen):
    run_cli(capsys, "bins", "sweep", "--policy", "no_flex", "--policy",
            "flex_sqrt_t", "--T", "50,80", "--N", "3", "--q", "0.5",
            "--reps", "4", "--seed", "1", "--out", tmp_path)
    assert_same_blocks(seen["blocks"], ("no_flex", "flex_sqrt_t"))
    # one draw of the 4 replications per T, shared by both policies
    assert len(seen["keys"]) == 2
    assert len(set(seen["keys"])) == 2


def test_opaque_config_sweep_policies_see_the_same_arrivals(capsys,
                                                            tmp_path, seen):
    config = tmp_path / "exp.yaml"
    config.write_text("model: opaque\npolicies: [no_flex, dynamic]\n"
                      "params: {N: 3, q: 0.4, cycles_per_instance: 3}\n"
                      "sweep: {S: [5, 9], regime: [delta_zero, delta_sqrt]}"
                      "\nreplications: 2\n")
    run_cli(capsys, "opaque", "sweep", "--config", config, "--seed", "2",
            "--out", tmp_path / "out")
    assert_same_blocks(seen["blocks"], ("no_flex", "dynamic"))
    # one draw of the 2 x 3 cycles per S: the regime and the policy
    # share it
    assert len(seen["keys"]) == 2
    assert len(set(seen["keys"])) == 2
    # a regime sweep runs every policy once per S
    assert len(seen["blocks"]["dynamic"]) == 2


@pytest.mark.parametrize("policy", ["no_flex", "static", "dynamic"])
def test_bins_run_is_rep_0_of_its_sweep_cell(capsys, tmp_path, policy):
    common = ("--T", 2000, "--N", 5, "--q", 0.1, "--seed", 7)
    run = run_cli(capsys, "bins", "run", "--policy", policy, *common)
    printed = dict(pair.split("=", 1) for pair in run.strip().split(","))
    run_cli(capsys, "bins", "sweep", "--policy", policy, "--reps", 1,
            "--out", tmp_path, *common)
    rep0, = read_rows(tmp_path / "bins_raw.csv")
    assert printed["final_gap"] == rep0["final_gap"]
    assert printed["flex_count"] == rep0["flex_count"]
    # a policy that never exerted prints None and writes -1
    trigger = rep0["first_trigger"]
    assert printed["first_trigger"] == ("None" if trigger == "-1"
                                        else trigger)


def test_parcel_policies_unload_the_same_packages(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    run_cli(capsys, "parcel", "gen-corpus", "--out", corpus, "--zones", 6,
            "--pool-size", 240, "--epsilon", 20, "--seed", 0)
    run_cli(capsys, "parcel", "sweep", "--corpus", corpus, "--policy",
            "no_flex", "--policy", "unloading_only", "--reps", 2, "--seed",
            1, "--out", tmp_path)
    rows = read_rows(tmp_path / "parcel_raw.csv")
    unload = {(r["policy"], r["rep"]): r["mean_unload_hours"] for r in rows}
    for rep in ("0", "1"):
        # total unloading does not depend on the assignment
        assert (float(unload[("no_flex", rep)])
                == pytest.approx(float(unload[("unloading_only", rep)]),
                                 rel=1e-12))


def test_parcel_run_is_rep_0_of_its_sweep_cell(capsys, tmp_path):
    corpus, tables = tmp_path / "corpus.txt", tmp_path / "tables.txt"
    run_cli(capsys, "parcel", "gen-corpus", "--out", corpus, "--zones", 3,
            "--pool-size", 300, "--epsilon", 20, "--seed", 0)
    run_cli(capsys, "parcel", "estimate-tables", "--corpus", corpus, "--out",
            tables, "--reps", 2, "--seed", 0)
    for policy, extra in (("unloading_only", ()),
                          ("patient_dynamic", ("--tables", tables))):
        common = ("--corpus", corpus, "--policy", policy, "--seed", 1, *extra)
        run = run_cli(capsys, "parcel", "run", *common)
        run_cli(capsys, "parcel", "sweep", "--reps", 1, "--out",
                tmp_path / policy, *common)
        rep0, = read_rows(tmp_path / policy / "parcel_raw.csv")
        del rep0["schema_version"]
        assert run == ",".join(f"{k}={v}" for k, v in rep0.items()) + "\n"


def test_default_and_explicit_parameter_name_one_stream(capsys, tmp_path):
    outs = []
    for name, n in (("omitted", ""), ("explicit", "N: 2, ")):
        config = tmp_path / f"{name}.yaml"
        config.write_text("model: bins\npolicies: [no_flex, dynamic]\n"
                          f"params: {{{n}q: 0.5}}\nsweep: {{T: [40, 90]}}\n"
                          "replications: 3\nseed: 5\n")
        run_cli(capsys, "bins", "sweep", "--config", config, "--out",
                tmp_path / name)
        outs.append(tmp_path / name)
    omitted, explicit = outs
    assert ((omitted / "bins_summary.csv").read_bytes()
            == (explicit / "bins_summary.csv").read_bytes())
    # the raw rows repeat the config's params, so only N's column differs
    explicit_rows = read_rows(explicit / "bins_raw.csv")
    assert {r.pop("N") for r in explicit_rows} == {"2"}
    assert read_rows(omitted / "bins_raw.csv") == explicit_rows


def test_opaque_run_and_sweeps_share_cycles(capsys, tmp_path):
    common = ("--N", 3, "--q", 0.2, "--seed", 4)
    run = run_cli(capsys, "opaque", "run", "--policy", "dynamic", "--S", 12,
                  "--cycles", 6, "--regime", "delta_const", *common)
    mean_r = float(dict(p.split("=", 1) for p in run.strip().split(","))
                   ["mean_R"])
    run_cli(capsys, "opaque", "sweep", "--regime", "delta_zero", "--S", 12,
            "--reps", 2, "--cycles", 3, "--out", tmp_path / "table",
            *common)
    table = read_rows(tmp_path / "table" / "opaque_delta_zero.csv")
    assert float(next(r["mean_R"] for r in table
                      if r["policy"] == "dynamic")) == mean_r
    config = tmp_path / "exp.yaml"
    config.write_text("model: opaque\npolicies: [no_flex, dynamic]\n"
                      "params: {N: 3, S: 12, q: 0.2, regime: delta_sqrt, "
                      "cycles_per_instance: 3}\nreplications: 2\n")
    run_cli(capsys, "opaque", "sweep", "--config", config, "--seed", 4,
            "--out", tmp_path / "config")
    R = [int(r["R"]) for r in read_rows(tmp_path / "config" /
                                        "opaque_raw.csv")
         if r["policy"] == "dynamic"]
    assert len(R) == 6 and float(np.mean(R)) == mean_r


# `bins run` and `opaque run` lines, first pinned before both commands went
# through the sweep's cell path and re-pinned for stream layouts v3 and v4;
# they must not move by a byte
PINNED_RUN_LINES = [
    (["bins", "run", "--policy", "no_flex", "--T", 2000, "--N", 5, "--q",
      0.1, "--seed", 7],
     "policy=no_flex,T=2000,N=5,q=0.1,final_gap=21.0,flex_count=0,"
     "first_trigger=None"),
    (["bins", "run", "--policy", "static", "--T", 2000, "--N", 5, "--q", 0.1,
      "--seed", 7],
     "policy=static,T=2000,N=5,q=0.1,final_gap=9.0,flex_count=116,"
     "first_trigger=767"),
    (["bins", "run", "--policy", "dynamic", "--T", 2000, "--N", 5, "--q",
      0.1, "--seed", 7],
     "policy=dynamic,T=2000,N=5,q=0.1,final_gap=11.0,flex_count=98,"
     "first_trigger=731"),
    (["bins", "run", "--policy", "dynamic", "--T", 300, "--seed", 3],
     "policy=dynamic,T=300,N=2,q=1.0,final_gap=0.0,flex_count=23,"
     "first_trigger=270"),
    (["bins", "run", "--policy", "static", "--T", 500, "--N", 3, "--q", 0.5,
      "--a-s", 0.5, "--seed", 1],
     "policy=static,T=500,N=3,q=0.5,final_gap=19.333333333333343,"
     "flex_count=10,first_trigger=472"),
    (["bins", "run", "--policy", "dynamic", "--T", 500, "--N", 3, "--q",
      0.5, "--a-d", 0.2, "--seed", 1, "--preset", "theory"],
     "policy=dynamic,T=500,N=3,q=0.5,final_gap=0.3333333333333428,"
     "flex_count=88,first_trigger=194"),
    (["opaque", "run", "--policy", "static", "--S", 20, "--N", 3, "--q", 0.2,
      "--regime", "delta_zero", "--cycles", 12, "--seed", 5],
     "policy=static,S=20,regime=delta_zero,cost=1.1038481141692151,"
     "se=0.009966407422241912,lower_bound=1.0422413793103449,"
     "mean_R=54.5,mean_D=11.666666666666666"),
    (["opaque", "run", "--policy", "static", "--S", 20, "--N", 3, "--q", 0.2,
      "--regime", "delta_const", "--cycles", 12, "--seed", 5],
     "policy=static,S=20,regime=delta_const,cost=1.2108817533129461,"
     "se=0.012942449991240125,lower_bound=1.0422413793103449,"
     "mean_R=54.5,mean_D=11.666666666666666"),
    (["opaque", "run", "--policy", "dynamic", "--S", 20, "--N", 3, "--q",
      0.2, "--regime", "delta_zero", "--cycles", 12, "--seed", 5],
     "policy=dynamic,S=20,regime=delta_zero,cost=1.1112480739599384,"
     "se=0.014562611622171165,lower_bound=1.0422413793103449,"
     "mean_R=54.083333333333336,mean_D=8.666666666666666"),
    (["opaque", "run", "--policy", "dynamic", "--S", 20, "--N", 3, "--q",
      0.2, "--regime", "delta_const", "--cycles", 12, "--seed", 5],
     "policy=dynamic,S=20,regime=delta_const,cost=1.1913713405238828,"
     "se=0.018318198304326096,lower_bound=1.0422413793103449,"
     "mean_R=54.083333333333336,mean_D=8.666666666666666"),
    (["opaque", "run", "--policy", "dynamic", "--S", 30, "--seed", 2,
      "--preset", "theory"],
     "policy=dynamic,S=30,regime=delta_zero,cost=1.1784663536776212,"
     "se=0.0072398266434953685,lower_bound=1.030365296803653,"
     "mean_R=125.67,mean_D=12.34"),
]


@pytest.mark.parametrize("argv,line", PINNED_RUN_LINES,
                         ids=[f"{argv[0]}-{argv[3]}-{i}" for i, (argv, _)
                              in enumerate(PINNED_RUN_LINES)])
def test_run_prints_its_pinned_line(capsys, argv, line):
    assert run_cli(capsys, *argv) == line + "\n"
