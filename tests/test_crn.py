"""Common random numbers: every policy of a sweep runs on the same
arrivals, addressed by the model's arrival parameters
(``config.ARRIVAL_PARAMS``) and nothing else."""

import csv

import numpy as np
import pytest

from endgame import bins_engine as be
from endgame import opaque
from endgame.harness import cli

ARRAYS = ("preferred", "is_flex", "pair_lo", "pair_hi")


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
    """Records the draw paths and, per policy kind, the arrival blocks
    the kernel runs on."""
    record = {"paths": [], "blocks": {}}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            record["paths"].append(args)
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(be, "draw_arrival_arrays")
    counting(opaque, "draw_raw_arrays")
    kernel = be.lockstep

    def recording(policy, N, q, arrivals, stop=None):
        record["blocks"].setdefault(policy.kind, []).append(
            {name: getattr(arrivals, name).copy() for name in ARRAYS})
        return kernel(policy, N, q, arrivals, stop)
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
    # one draw per replication and T, shared by both policies
    assert len(seen["paths"]) == 2 * 4
    assert len(set(seen["paths"])) == 2 * 4


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
    # one draw per cycle and S: the regime and the policy share it
    assert len(seen["paths"]) == 2 * 2 * 3
    assert len(set(seen["paths"])) == 2 * 2 * 3
    # a regime sweep runs every policy once per S
    assert len(seen["blocks"]["dynamic"]) == 2


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
            "--instances", 2, "--cycles", 3, "--out", tmp_path / "table",
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
