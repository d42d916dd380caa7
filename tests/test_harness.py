import concurrent.futures
import csv
import math

import numpy as np
import pytest

from endgame import balls_bins as bb
from endgame import opaque
from endgame.harness import plots, runner, stats
from endgame.harness.config import ConfigError, ExperimentConfig, load_config


def test_summarize_values_quartile_example():
    s = stats.summarize_values([1, 2, 3, 4])
    assert s["mean"] == 2.5
    assert s["q1"] == pytest.approx(1.75)
    assert s["median"] == pytest.approx(2.5)
    assert s["q3"] == pytest.approx(3.25)
    assert s["mad"] == pytest.approx(1.0)
    assert s["se"] == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2)


def test_summarize_values_constant_sample():
    s = stats.summarize_values([7.0] * 10)
    assert s["se"] == 0.0 and s["mad"] == 0.0
    assert s["q1"] == s["q3"] == s["median"] == 7.0
    with pytest.raises(ValueError):
        stats.summarize_values([])


def test_se_estimates_sampling_error():
    rng = np.random.default_rng(0)
    n = 400
    means = [rng.normal(size=n).mean() for _ in range(2000)]
    claimed = stats.summarize_values(rng.normal(size=n))["se"]
    assert claimed == pytest.approx(np.std(means), rel=0.1)


def test_summarize_groups_in_first_seen_order():
    raw = [{"policy": "a", "T": 10, "x": 1.0},
           {"policy": "b", "T": 10, "x": 5.0},
           {"policy": "a", "T": 10, "x": 3.0}]
    out = stats.summarize(raw, ("policy", "T"), ("x",))
    assert [r["policy"] for r in out] == ["a", "b"]
    assert out[0]["mean"] == 2.0 and out[1]["mean"] == 5.0


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="model"):
        ExperimentConfig(model="weather", policies=["no_flex"],
                         params={"T": 10})
    with pytest.raises(ConfigError, match="params.frobnicate"):
        ExperimentConfig(model="bins", policies=["no_flex"],
                         params={"T": 10, "frobnicate": 1})
    with pytest.raises(ConfigError, match="policies"):
        ExperimentConfig(model="bins", policies=[], params={"T": 10})
    with pytest.raises(ConfigError, match="replications"):
        ExperimentConfig(model="bins", policies=["no_flex"],
                         params={"T": 10}, replications=0)


def test_load_config_yaml(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        "model: bins\n"
        "policies: [no_flex, dynamic]\n"
        "params: {N: 5, q: 0.1}\n"
        "sweep: {T: [100, 200]}\n"
        "replications: 3\n"
        "seed: 9\n")
    cfg = load_config(path)
    assert cfg.model == "bins" and cfg.seed == 9
    cfg2 = load_config(path, seed=10)
    assert cfg2.seed == 10
    path.write_text("model: bins\npolicies: [no_flex]\nparams: {T: 5}\n"
                    "mystery_knob: 1\n")
    with pytest.raises(ConfigError, match="mystery_knob"):
        load_config(path)


def bins_config(**kw):
    base = dict(model="bins", policies=["no_flex", "dynamic"],
                params={"N": 3, "q": 0.5}, sweep={"T": [50, 80]},
                replications=4, seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_expand_cells_cardinality():
    cells = runner.expand_cells(bins_config())
    assert len(cells) == 4  # 2 policies x 2 horizons
    assert cells[0] == ({"kind": "no_flex"}, {"N": 3, "q": 0.5, "T": 50})


def test_run_experiment_outputs(tmp_path):
    cfg = bins_config(out_dir=str(tmp_path))
    raw_path, summary_path = runner.run_experiment(cfg)
    raw = raw_path.read_text().splitlines()
    header = raw[0].split(",")
    assert header[0] == "schema_version"
    assert len(raw) == 1 + 4 * 4  # header + cells x reps
    assert all(line.split(",")[0] == "1" for line in raw[1:])
    # no-flex rows report zero flexes
    pol_col = header.index("policy")
    flex_col = header.index("flex_count")
    nf = [line.split(",") for line in raw[1:]
          if line.split(",")[pol_col] == "no_flex"]
    assert nf and all(float(r[flex_col]) == 0 for r in nf)
    assert summary_path.read_text().startswith("schema_version")


def test_rerun_byte_identical_and_parallel_matches(tmp_path):
    cfg = bins_config(out_dir=str(tmp_path / "a"))
    raw1, _ = runner.run_experiment(cfg)
    raw2, _ = runner.run_experiment(bins_config(out_dir=str(tmp_path / "b")))
    assert raw1.read_bytes() == raw2.read_bytes()
    for parallel in (2, 3):
        raw3, _ = runner.run_experiment(
            bins_config(out_dir=str(tmp_path / str(parallel))),
            parallel=parallel)
        assert raw1.read_bytes() == raw3.read_bytes()


def test_run_experiment_refuses_parallel_below_one(tmp_path):
    out = tmp_path / "out"
    for parallel in (0, -1):
        with pytest.raises(ValueError, match="parallel must be >= 1"):
            runner.run_experiment(bins_config(out_dir=str(out)),
                                  parallel=parallel)
    assert not out.exists()


@pytest.mark.parametrize("T,parallel,pools", [
    ([50], 8, []), ([50, 80], 1, []), ([50, 80], 8, [2]),
    ([50, 80, 120], 2, [2])])
def test_pool_has_at_most_one_worker_per_job(tmp_path, monkeypatch, T,
                                             parallel, pools):
    # a bins job is one T here; the stand-in pool runs its jobs in this
    # process, so no worker starts
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # the runner imports the pool from concurrent.futures when it starts
    # workers
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    runner.run_experiment(bins_config(sweep={"T": T}, out_dir=str(tmp_path)),
                          parallel=parallel)
    assert sizes == pools


def test_opaque_experiment_smoke(tmp_path):
    cfg = ExperimentConfig(
        model="opaque", policies=["no_flex", "dynamic"],
        params={"N": 3, "q": 0.2, "regime": "delta_const",
                "cycles_per_instance": 2},
        sweep={"S": [5, 10]}, replications=2, seed=0,
        out_dir=str(tmp_path))
    raw_path, _ = runner.run_experiment(cfg)
    lines = raw_path.read_text().splitlines()
    assert len(lines) == 1 + 4 * 2 * 2  # cells x instances x cycles
    header = lines[0].split(",")
    r_col = header.index("R")
    s_col = header.index("S")
    for line in lines[1:]:
        parts = line.split(",")
        S = int(parts[s_col])
        assert S <= float(parts[r_col]) <= 3 * (S - 1) + 1


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_opaque_config_cost_rows_equal_the_regime_tables(tmp_path):
    """An opaque config sweep's ``opaque_cost.csv`` holds, to the bit,
    the regime tables' cost columns for the same cells; its ``regime``
    changes the cost while the cycles it costs stay the same."""
    S_grid = [50, 100]
    columns = ("cost", "lower_bound", "loss", "se", "mean_R", "mean_D")
    cfg = ExperimentConfig(
        model="opaque", policies=list(bb.POLICY_KINDS),
        params={"N": 5, "q": 0.1, "cycles_per_instance": 7},
        sweep={"regime": list(opaque.REGIMES), "S": S_grid},
        replications=4, seed=0, out_dir=str(tmp_path))
    raw_path, _ = runner.run_experiment(cfg)
    costs = _csv_rows(tmp_path / "opaque_cost.csv")
    assert len(costs) == len(bb.POLICY_KINDS) * len(opaque.REGIMES) * 2
    table = {(row["regime"], row["S"], row["policy"]): row
             for regime in opaque.REGIMES
             for row in opaque.regime_sweep(regime, S_grid, N=5, q=0.1,
                                            instances=4,
                                            cycles_per_instance=7)}
    for row in costs:
        want = table[(row["regime"], int(row["S"]), row["policy"])]
        assert {name: float(row[name]) for name in columns} \
            == {name: want[name] for name in columns}, row
    raw = _csv_rows(raw_path)
    for kind in bb.POLICY_KINDS:
        cycles, cost = {}, {}
        for regime in ("delta_zero", "delta_const"):
            cycles[regime] = [(r["R"], r["D"]) for r in raw
                              if (r["policy"], r["regime"]) == (kind, regime)]
            cost[regime] = [r["cost"] for r in costs
                            if (r["policy"], r["regime"]) == (kind, regime)]
        assert cycles["delta_zero"] == cycles["delta_const"]
        if kind != bb.NO_FLEX:  # no_flex exercises no discount
            assert cost["delta_zero"] != cost["delta_const"]


def test_emit_plot_data(tmp_path):
    rows = [{"policy": p, "S": S, "loss": 0.1 * S, "se": 0.01}
            for p in ("no_flex", "static", "dynamic", "always_flex",
                      "flex_sqrt_t")
            for S in (10, 20)]
    files = plots.emit_plot_data(rows, {"kind": "loss_vs_S"}, tmp_path)
    assert len([f for f in files if "loss-vs-S" in str(f)]) == 5
    assert (tmp_path / "plot.py").exists()
    with pytest.raises(ValueError):
        plots.emit_plot_data([], {"kind": "pie"}, tmp_path)


def test_param_spellings_address_one_stream(tmp_path):
    # 200 and 200.0 name the same cell: one stream, one CSV
    raws = []
    for i, T in enumerate(("200", "200.0")):
        path = tmp_path / f"exp{i}.yaml"
        path.write_text("model: bins\npolicies: [no_flex, dynamic]\n"
                        f"params: {{N: 3, q: 0.5}}\nsweep: {{T: [50, {T}]}}\n"
                        "replications: 3\nseed: 4\n")
        cfg = load_config(path, out_dir=str(tmp_path / str(i)))
        assert cfg.sweep["T"] == [50, 200]
        assert all(type(v) is int for v in cfg.sweep["T"])
        raws.append(runner.run_experiment(cfg)[0].read_bytes())
    assert raws[0] == raws[1]
    cfg = ExperimentConfig(model="bins", policies=["no_flex"],
                           params={"T": 10, "N": 3, "q": 1})
    assert type(cfg.params["q"]) is float
    with pytest.raises(ConfigError, match="params.T"):
        ExperimentConfig(model="bins", policies=["no_flex"],
                         params={"T": 10.5})
    with pytest.raises(ConfigError, match=r"sweep\.T"):
        ExperimentConfig(model="bins", policies=["no_flex"],
                         sweep={"T": [10, True]})


def test_rewritten_parcel_corpus_is_read_again(tmp_path):
    from endgame.parcel import corpus as cp
    path = tmp_path / "corpus.txt"

    def sweep(name):
        cfg = ExperimentConfig(model="parcel", policies=["no_flex"],
                               params={"corpus": str(path), "T": 20},
                               replications=2, seed=0,
                               out_dir=str(tmp_path / name))
        return runner.run_experiment(cfg)[0].read_text()

    def write(zones):
        spec = cp.GeometrySpec(n_zones=zones, pool_size=100, epsilon=10)
        cp.save_corpus(cp.build_corpus(spec, seed=0), path)

    write(2)
    two = sweep("two")
    write(3)  # same path, same process
    three = sweep("three")
    assert three != two
    runner._PARCEL_CACHE.clear()  # what a fresh process reads
    assert sweep("fresh") == three
