"""Golden outputs: the sha256 of every CSV of a fixed set of tiny sweeps,
and of the flex tables two of them run on.

A change that is meant to keep the outputs byte-identical must leave
these digests as they are; a declared output change updates them and
says so."""

import csv
import hashlib

import pytest

from endgame.harness import cli, runner

BINS = """\
model: bins
policies: [no_flex, always_flex, static, {kind: dynamic, latched: true},
           flex_sqrt_t]
params: {N: 3, q: 0.3}
sweep: {T: [60, 300]}
replications: 5
seed: 3
"""

OPAQUE = """\
model: opaque
policies: [no_flex, always_flex, static, dynamic, flex_sqrt_t]
params: {N: 3, q: 0.3, regime: delta_const, cycles_per_instance: 3}
sweep: {S: [6, 15]}
replications: 3
seed: 4
"""

PARCEL = """\
model: parcel
policies: [no_flex, routing_dynamic]
params: {{corpus: {corpus}, T: {T}}}
replications: 2
seed: 1
"""

PARCEL_TABLES = """\
model: parcel
policies: [no_flex, unloading_only, routing_dynamic, patient_dynamic,
           cost_min]
params: {{corpus: {corpus}, tables: {tables}, T: {T}}}
replications: 2
seed: 1
"""

# corpus zones, pool size and epsilon, and day length T, of the parcel
# cases: on the 3-zone corpus at T 60 only cost_min flexes, on the 4-zone
# corpus at T 300 every flexing policy does (checked in the test)
PARCEL_CASES = {
    "parcel": (3, 150, 15, 60),
    "parcel_tables": (3, 150, 15, 60),
    "parcel_flex": (4, 300, 20, 300),
}
FLEXING = {"unloading_only", "routing_dynamic", "patient_dynamic",
           "cost_min"}


GOLDEN = {
    "bins": {
        "bins_raw.csv":
            "198feb0daefca7fb1d3e2750b08e337c51561150f5a6ee8609ae8436820d6bdd",
        "bins_summary.csv":
            "a276f10e7d591462d6a328c35a373ce25417362a9bdbac75dc93e2e304f1becd",
    },
    "opaque_config": {
        "opaque_cost.csv":
            "d06ec4ad4364f2257e287d12c4b1bb8bbee7cad030b403ab25499777c634f698",
        "opaque_raw.csv":
            "d0f3c13f5b933636add0f9bbe0abd4b43683aa68662e872f673526e63b1e81ce",
        "opaque_summary.csv":
            "2e7ea1cebe92b71d43cbea1add5a1cf8e550f682c5a17b6e8c5493a42ad2a4ba",
    },
    "opaque_regime": {
        "opaque_delta_const.csv":
            "bf08e32a475e3d3d669cfeb79e0e3ccce2158e39960f708bc92338fd676f2356",
    },
    "parcel": {
        "parcel_raw.csv":
            "4e8f34795a75fc9b2e6571574d3c176b07e164607014aec69bbf29cb8438e15e",
        "parcel_summary.csv":
            "1e5e685978e8c92e243be1b2131f218a464ff871fe3e9385e6e327692ee6aef2",
    },
    "parcel_tables": {
        "parcel_raw.csv":
            "7a697859e6f00d64b73f509732181c36403287cefe50c9ed36f01912ff4d97bc",
        "parcel_summary.csv":
            "4bef0b2014dc78c377760ce6d758137d9ef37e5a82fc5fa04b1861606cd55004",
        "tables.txt":
            "9784944e55d991a512d0006777c13ce1addf9def5f1cddc69c7478af78e6e780",
    },
    "parcel_flex": {
        "parcel_raw.csv":
            "8830e20a0176a7ecb1cc3b8086d190b9150edb1eff1ac5014b1b2d9a28e5b6ac",
        "parcel_summary.csv":
            "c35599025f638bf351a95e885fbd206072ba4f4149433214b534f8284e697c80",
        "tables.txt":
            "e12df5779bef8dcd6908f2b9a53d4892f8a64b4955526d13bc5fc61332b473a9",
    },
}


def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def sweep(case, work, *flags):
    """Run one golden sweep into ``work``; the regime table also takes
    the run ``flags``."""
    config = work / "exp.yaml"
    if case == "bins":
        config.write_text(BINS)
        run("bins", "sweep", "--config", config, "--out", work)
    elif case == "opaque_config":
        config.write_text(OPAQUE)
        run("opaque", "sweep", "--config", config, "--out", work)
    elif case == "opaque_regime":
        run("opaque", "sweep", "--regime", "delta_const", "--S", "5,12",
            "--N", 3, "--q", 0.3, "--reps", 2, "--cycles", 3,
            "--seed", 5, "--out", work, *flags)
    else:
        corpus = work / "corpus.txt"
        zones, pool, eps, T = PARCEL_CASES[case]
        run("parcel", "gen-corpus", "--out", corpus, "--zones", zones,
            "--pool-size", pool, "--epsilon", eps, "--seed", 0)
        if case == "parcel":
            config.write_text(PARCEL.format(corpus=corpus, T=T))
        else:
            tables = work / "tables.txt"
            run("parcel", "estimate-tables", "--corpus", corpus, "--out",
                tables, "--reps", 3)
            config.write_text(PARCEL_TABLES.format(corpus=corpus,
                                                   tables=tables, T=T))
        run("parcel", "sweep", "--config", config, "--out", work)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_csv_digests(case, tmp_path, capsys):
    sweep(case, tmp_path)
    capsys.readouterr()
    paths = sorted(tmp_path.glob("*.csv")) + list(tmp_path.glob("tables.txt"))
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in paths}
    assert digests == GOLDEN[case]
    if case == "parcel_flex":
        with open(tmp_path / "parcel_raw.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        flexed = {r["policy"] for r in rows if int(r["flex_count"]) > 0}
        assert flexed == FLEXING


@pytest.mark.parametrize("parallel", [1, 2])
def test_regime_table_builds_no_raw_row(parallel, tmp_path, capsys,
                                        monkeypatch):
    # the table reads its cells' outcome columns, in every worker too
    def refuse(*args):
        raise AssertionError("the regime table built raw rows")

    monkeypatch.setattr(runner, "raw_rows", refuse)
    sweep("opaque_regime", tmp_path, "--parallel", parallel)
    capsys.readouterr()
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.glob("*.csv")} == GOLDEN["opaque_regime"]
