"""The three benchmark workloads: their inputs, one timed round each, the
arrivals a round simulates, and the checks on a round's outputs.

Every workload runs serially (``parallel=1``).  The seed reaches the
program only as the root seed of the configs built here.  An operation
is one sweep cell: one policy at one T or S value, or one parcel policy
with all of its days.  ``check`` returns the cells whose outputs break a
property, each with the reasons; every check is computed apart from the
program or is a property the method must have, for any seed.

endgame modules are imported inside the methods, so that a set-up
process pays for the imports its workload needs and no others.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict

import numpy as np

from spans import BINS_POLICIES as POLICIES, peak_rss_mb, span

# balls-into-bins model of the bins_sweep workload
BINS_N = 5
BINS_Q = 0.1
BINS_A_S = 10.0  # the "numerics" static constant, restated for the checks

OPAQUE_N = 5
OPAQUE_Q = 0.1

# The city of parcel_days is one fixed input, like N and q above, so every
# run solves the same corpus LP and routes in the same streets; the
# workload seed drives the table replays and the simulated days.
CITY_SEED = 0

# a normal draw beyond this many standard errors is a failed check
Z = 5.0


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _mean_se(values) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    se = float(v.std(ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0
    return float(v.mean()), se


class BinsSweep:
    """``endgame bins sweep`` over all five policies (dynamic latched) at
    N=5, q=0.1 and two horizons."""

    name = "bins_sweep"
    sizes = {
        "paper": {"T": [10_000, 100_000], "reps": 100},
        "tiny": {"T": [1_000, 3_000], "reps": 40},
    }

    def setup(self, size, seed, work, tracer):
        from endgame.harness import runner  # noqa: F401

    def prepare(self, size, seed, work):
        from endgame.harness.config import ExperimentConfig
        policies = [p if p != "dynamic" else {"kind": p, "latched": True}
                    for p in POLICIES]
        return ExperimentConfig(
            model="bins", policies=policies,
            params={"N": BINS_N, "q": BINS_Q}, sweep={"T": size["T"]},
            preset="numerics", replications=size["reps"], seed=seed,
            out_dir=str(work / "sweep"))

    def cells(self, cfg):
        return [(p, T) for p in POLICIES for T in cfg.sweep["T"]]

    def run(self, cfg):
        from endgame.harness import runner
        return runner.run_experiment(cfg, parallel=1)

    def arrivals(self, cfg, out) -> int:
        return len(POLICIES) * cfg.replications * sum(cfg.sweep["T"])

    def check(self, cfg, out) -> dict:
        raw_path, summary_path = out
        bad = defaultdict(list)
        groups = defaultdict(list)
        for row in read_csv(raw_path):
            groups[(row["policy"], int(row["T"]))].append(row)
        for cell in self.cells(cfg):
            if len(groups[cell]) != cfg.replications:
                bad[cell].append(f"{len(groups[cell])} raw rows")
        mean_gap = {}
        for (policy, T), rows in groups.items():
            cell = (policy, T)
            gap = np.array([float(r["final_gap"]) for r in rows])
            flex = np.array([int(r["flex_count"]) for r in rows])
            trig = np.array([int(r["first_trigger"]) for r in rows])
            mean_gap[cell] = float(gap.mean())
            max_load = gap + T / BINS_N
            if (np.abs(max_load - np.rint(max_load)).max() > 1e-6
                    or max_load.min() < math.ceil(T / BINS_N)
                    or max_load.max() > T):
                bad[cell].append("final_gap + T/N is not an integer "
                                 "in [ceil(T/N), T]")
            t_hat = round(T - BINS_A_S * math.sqrt(T * math.log(T)))
            if policy == "no_flex" and (flex.any() or (trig != -1).any()):
                bad[cell].append("no_flex flexed or triggered")
            if policy == "always_flex" and (trig != 0).any():
                bad[cell].append("always_flex first_trigger is not 0")
            if policy == "static" and (trig != t_hat).any():
                bad[cell].append(f"static first_trigger is not {t_hat}")
            expect = {"always_flex": BINS_Q * T,
                      "static": BINS_Q * (T - t_hat),
                      "flex_sqrt_t": BINS_Q * (T - t_hat)}.get(policy)
            if expect is not None:
                mean, se = _mean_se(flex)
                if abs(mean - expect) > Z * se:
                    bad[cell].append(f"mean flex_count {mean} is more than "
                                     f"{Z} SE={se} from {expect}")
        T_max = max(cfg.sweep["T"])
        for policy in ("always_flex", "static", "dynamic"):
            cell = (policy, T_max)
            if cell in mean_gap and not (mean_gap[cell]
                                         < mean_gap.get(("no_flex", T_max),
                                                        -math.inf)):
                bad[cell].append(f"mean gap {mean_gap[cell]} is not below "
                                 "no_flex's")
        for row in read_csv(summary_path):
            cell = (row["policy"], int(row["T"]))
            values = [float(r[row["metric"]]) for r in groups.get(cell, [])]
            if (int(row["n"]) != len(values) or not values
                    or not _close(float(row["mean"]), float(np.mean(values)))):
                bad[cell].append(f"summary {row['metric']} mean/n do not "
                                 "match the raw rows")
        return dict(bad)


class OpaqueSweep:
    """``endgame opaque sweep`` for each of the four regimes over one
    geometric S grid, sharing one cycle cache across the regimes."""

    name = "opaque_sweep"
    sizes = {
        "paper": {"S": "50:3200:log7", "instances": 10, "cycles": 30},
        "tiny": {"S": "20:80:log3", "instances": 5, "cycles": 8},
    }
    columns = ["regime", "S", "policy", "cost", "lower_bound", "loss", "se",
               "mean_R", "mean_D"]

    def setup(self, size, seed, work, tracer):
        from endgame import opaque  # noqa: F401
        from endgame.harness import cli, plots, runner  # noqa: F401

    def prepare(self, size, seed, work):
        from endgame.harness.cli import parse_grid
        return {"S": parse_grid(size["S"]), "seed": seed, "work": work,
                "instances": size["instances"], "cycles": size["cycles"]}

    def cells(self, st):
        return [(p, S) for p in POLICIES for S in st["S"]]

    def run(self, st):
        from endgame import opaque
        from endgame.harness import plots, runner
        cache = {}
        rows = {}
        for regime in opaque.REGIMES:
            rows[regime] = opaque.regime_sweep(
                regime, st["S"], N=OPAQUE_N, q=OPAQUE_Q,
                instances=st["instances"],
                cycles_per_instance=st["cycles"], root_seed=st["seed"],
                preset="numerics", cycle_cache=cache)
            out = st["work"] / regime
            out.mkdir(parents=True, exist_ok=True)
            runner.write_csv(out / f"opaque_{regime}.csv", self.columns,
                             rows[regime])
            plots.emit_plot_data(rows[regime], {"kind": "loss_vs_S"}, out)
        return cache, rows

    def arrivals(self, st, out) -> int:
        cache, _ = out
        return int(sum(R.sum() for R, _ in cache.values()))

    def check(self, st, out) -> dict:
        cache, rows = out
        bad = defaultdict(list)
        n_cycles = st["instances"] * st["cycles"]
        for cell in self.cells(st):
            if cell not in cache:
                bad[cell].append("no cached cycles")
                continue
            R, D = cache[cell]
            S = cell[1]
            if len(R) != n_cycles or len(D) != n_cycles:
                bad[cell].append(f"{len(R)} cycles, expected {n_cycles}")
            if R.min() < S or R.max() > OPAQUE_N * (S - 1) + 1:
                bad[cell].append("cycle length outside [S, N(S-1)+1]")
            if D.min() < 0 or (D > R).any():
                bad[cell].append("exercised flexes outside [0, R]")
            if cell[0] == "no_flex" and D.any():
                bad[cell].append("no_flex exercised a flex")
        for regime, regime_rows in rows.items():
            for row in regime_rows:
                if not row["cost"] >= row["lower_bound"] - 3 * row["se"]:
                    bad[(row["policy"], row["S"])].append(
                        f"{regime}: cost {row['cost']} below the lower "
                        f"bound {row['lower_bound']} by more than 3 SE")
        S_max = max(st["S"])
        first = next(iter(rows.values()))
        short = {r["policy"]: OPAQUE_N * S_max - r["mean_R"]
                 for r in first if r["S"] == S_max}
        if not short.get("no_flex", -math.inf) > short.get("always_flex",
                                                           math.inf):
            for policy in ("no_flex", "always_flex"):
                bad[(policy, S_max)].append(
                    f"N*S - mean_R at S={S_max} is not larger for no_flex "
                    "than for always_flex")
        return dict(bad)


class ParcelDays:
    """``endgame parcel sweep`` over all five parcel policies on the
    default corpus, whose set-up builds the corpus and the flex tables."""

    name = "parcel_days"
    sizes = {
        "paper": {"spec": {}, "day": {}, "table_reps": 2, "days": 5},
        "tiny": {"spec": {"pool_size": 1200, "n_zones": 6, "epsilon": 20.0},
                 "day": {"T": 200}, "table_reps": 2, "days": 2},
    }

    def setup(self, size, seed, work, tracer):
        from endgame.harness import runner  # noqa: F401
        from endgame.parcel import corpus as pcorpus
        from endgame.parcel import simulate as psim
        from endgame.parcel import tables as ptables
        with span(tracer, "corpus.build_corpus") as sp:
            corpus = pcorpus.build_corpus(
                pcorpus.GeometrySpec(**size["spec"]), CITY_SEED)
            sp.attrs["peak_rss_mb"] = peak_rss_mb()
        with span(tracer, "corpus.save_corpus"):
            pcorpus.save_corpus(corpus, work / "corpus.txt")
        params = psim.ParcelParams(N=corpus.n_zones, **size["day"])
        reps = size["table_reps"]
        with span(tracer, "tables.estimate_flex_tables", reps=reps):
            tables = ptables.estimate_flex_tables(corpus, params, reps=reps,
                                                  root_seed=seed)
        with span(tracer, "tables.save_tables"):
            ptables.save_tables(tables, work / "tables.txt")

    def prepare(self, size, seed, work):
        from endgame.harness.config import ExperimentConfig
        from endgame.parcel import corpus as pcorpus
        from endgame.parcel import simulate as psim
        from endgame.parcel import tables as ptables
        params = {"corpus": str(work / "corpus.txt"),
                  "tables": str(work / "tables.txt"), **size["day"]}
        cfg = ExperimentConfig(
            model="parcel", policies=list(psim.PARCEL_POLICIES),
            params=params, replications=size["days"], seed=seed,
            out_dir=str(work / "sweep"))
        corpus = pcorpus.load_corpus(params["corpus"])
        return {"cfg": cfg, "corpus": corpus,
                "tables": ptables.load_tables(params["tables"]),
                "day": psim.ParcelParams(N=corpus.n_zones, **size["day"])}

    def cells(self, st):
        return list(st["cfg"].policies)

    def run(self, st):
        from endgame.harness import runner
        return runner.run_experiment(st["cfg"], parallel=1)

    def arrivals(self, st, out) -> int:
        return len(self.cells(st)) * st["cfg"].replications * st["day"].T

    def _input_problems(self, st) -> list:
        problems = []
        tables, corpus = st["tables"], st["corpus"]
        for name in ("inc", "ser"):
            mat = getattr(tables, name)
            if (mat[np.isfinite(mat)] < 0).any():
                problems.append(f"table {name} has a negative entry")
        L, N = len(corpus), corpus.n_zones
        counts = np.bincount(corpus.default_zone, minlength=N)
        eps = corpus.spec.epsilon
        if (np.abs(counts - L / N) > eps + 1e-9).any():
            problems.append(f"zone counts {counts.min()}..{counts.max()} "
                            f"are not within {eps} of L/N={L / N}")
        return problems

    def check(self, st, out) -> dict:
        raw_path, _ = out
        day, corpus = st["day"], st["corpus"]
        N, T = day.N, day.T
        days = st["cfg"].replications
        pool_mean = float(corpus.unload.mean())
        # bootstrap draws from the pool: T*days packages per cell
        pool_se = float(corpus.unload.std()) / math.sqrt(T * days)
        bad = defaultdict(list)
        inputs = self._input_problems(st)
        groups = defaultdict(list)
        for row in read_csv(raw_path):
            groups[row["policy"]].append(row)
        for policy in self.cells(st):
            rows = groups[policy]
            bad[policy].extend(inputs)
            if len(rows) != days:
                bad[policy].append(f"{len(rows)} days, expected {days}")
                continue
            day_unload = []
            for r in rows:
                f = {k: float(r[k]) for k in (
                    "total_cost", "travel_cost", "overtime_cost",
                    "flex_count", "mean_unload_hours", "mean_travel_hours",
                    "overtime_freq")}
                if not _close(f["total_cost"],
                              f["travel_cost"] + f["overtime_cost"]):
                    bad[policy].append("total != travel + overtime")
                if not _close(f["travel_cost"],
                              day.c_r * N * f["mean_travel_hours"]):
                    bad[policy].append("travel != c_r * N * mean travel")
                if policy == "no_flex" and f["flex_count"] != 0:
                    bad[policy].append("no_flex flexed")
                late = N * f["overtime_freq"]
                if (abs(late - round(late)) > 1e-9 or not 0 <= late <= N
                        or (round(late) == 0) != (f["overtime_cost"] == 0)):
                    bad[policy].append(f"N*overtime_freq={late} does not "
                                       "match overtime_cost")
                day_unload.append(N * f["mean_unload_hours"] / T)
            gap = abs(float(np.mean(day_unload)) - pool_mean)
            if gap > Z * pool_se:
                bad[policy].append(f"mean unloading per package is {gap} "
                                   f"from the pool's, > {Z} SE={pool_se}")
        return {k: v for k, v in bad.items() if v}


WORKLOADS = {w.name: w for w in (BinsSweep(), OpaqueSweep(), ParcelDays())}
