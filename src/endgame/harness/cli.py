"""Command-line interface.

Subcommands::

    endgame bins run|sweep
    endgame opaque run|sweep
    endgame parcel gen-corpus|cluster|estimate-tables|run|sweep
    endgame report

``run`` subcommands execute a single replication and print one row;
``sweep`` subcommands execute a replication matrix and write CSVs.
Config files (YAML, via --config) provide defaults that individual
flags override.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .. import balls_bins, bins_engine, opaque
from ..streams import resolve_root_seed
from .config import ConfigError, ExperimentConfig, load_config
from .plots import emit_plot_data
from .runner import SCHEMA_VERSION, run_experiment, write_csv


def parse_grid(text: str) -> list[int]:
    """Parse a sweep grid: 'lo:hi:logN' (geometric), 'lo:hi:N' (linear),
    or a comma-separated list."""
    if ":" in text:
        lo, hi, n = text.split(":")
        if n.startswith("log"):
            pts = np.geomspace(float(lo), float(hi), int(n[3:]))
        else:
            pts = np.linspace(float(lo), float(hi), int(n))
        out = []
        for v in np.rint(pts).astype(int):
            if not out or v != out[-1]:
                out.append(int(v))
        return out
    return [int(v) for v in text.split(",")]


def _common_flags(p):
    p.add_argument("--seed", type=int, default=None,
                   help="root seed (default: ENDGAME_SEED or 0)")
    p.add_argument("--preset", choices=("theory", "numerics"),
                   default=None,
                   help="constant preset (default: the config's, else "
                   "numerics)")


def _preset(args) -> str:
    """The --preset flag, else numerics, for commands without a config."""
    return args.preset or balls_bins.PRESET_NUMERICS


def _sweep_flags(p):
    p.add_argument("--config", help="YAML experiment config")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--reps", type=int, default=None,
                   help="replications per cell")
    p.add_argument("--parallel", type=int, default=1,
                   help="worker process count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endgame",
        description="End-of-horizon load-balancing simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    bins = sub.add_parser("bins", help="balls-into-bins model")
    bsub = bins.add_subparsers(dest="subcommand", required=True)
    brun = bsub.add_parser("run", help="simulate one horizon")
    brun.add_argument("--policy", required=True,
                      choices=balls_bins.POLICY_KINDS)
    brun.add_argument("--T", type=int, required=True)
    brun.add_argument("--N", type=int, default=2)
    brun.add_argument("--q", type=float, default=1.0)
    brun.add_argument("--a-s", type=float, default=None, dest="a_s")
    brun.add_argument("--a-d", type=float, default=None, dest="a_d")
    _common_flags(brun)
    bsweep = bsub.add_parser("sweep", help="replication matrix over T")
    bsweep.add_argument("--policy", action="append", default=None,
                        choices=balls_bins.POLICY_KINDS)
    bsweep.add_argument("--T", default=None,
                        help="T grid, e.g. 2500,10000,40000")
    bsweep.add_argument("--N", type=int, default=None)
    bsweep.add_argument("--q", type=float, default=None)
    _common_flags(bsweep)
    _sweep_flags(bsweep)

    opq = sub.add_parser("opaque", help="opaque-selling inventory model")
    osub = opq.add_subparsers(dest="subcommand", required=True)
    orun = osub.add_parser("run", help="estimate one policy's cost")
    orun.add_argument("--policy", required=True,
                      choices=opaque.OPAQUE_POLICIES)
    orun.add_argument("--N", type=int, default=5)
    orun.add_argument("--S", type=int, required=True)
    orun.add_argument("--q", type=float, default=0.1)
    orun.add_argument("--regime", choices=opaque.REGIMES,
                      default="delta_zero")
    orun.add_argument("--cycles", type=int, default=100)
    _common_flags(orun)
    osweep = osub.add_parser(
        "sweep", help="loss-vs-S table for a regime, or a config's sweep")
    osweep.add_argument("--regime", choices=opaque.REGIMES)
    osweep.add_argument("--S", help="S grid, e.g. 50:800:log8")
    osweep.add_argument("--N", type=int)
    osweep.add_argument("--q", type=float)
    osweep.add_argument("--instances", type=int)
    osweep.add_argument("--cycles", type=int)
    _common_flags(osweep)
    osweep.add_argument("--config", help="YAML experiment config")
    osweep.add_argument("--out", default=None, help="output directory")

    parcel = sub.add_parser("parcel", help="parcel delivery model")
    psub = parcel.add_subparsers(dest="subcommand", required=True)
    pgen = psub.add_parser("gen-corpus", help="build a synthetic corpus")
    pgen.add_argument("--out", required=True)
    pgen.add_argument("--seed", type=int, default=None)
    pgen.add_argument("--zones", type=int, default=24)
    pgen.add_argument("--pool-size", type=int, default=20000)
    pgen.add_argument("--city-radius-km", type=float, default=None)
    pgen.add_argument("--cluster-sd-km", type=float, default=None)
    pgen.add_argument("--epsilon", type=float, default=200.0)
    pclu = psub.add_parser("cluster", help="re-run zone construction")
    pclu.add_argument("--corpus", required=True)
    pclu.add_argument("--epsilon", type=float, default=200.0)
    pclu.add_argument("--seed", type=int, default=None)
    ptab = psub.add_parser("estimate-tables",
                           help="estimate flex increment tables")
    ptab.add_argument("--corpus", required=True)
    ptab.add_argument("--out", required=True)
    ptab.add_argument("--reps", type=int, default=50)
    ptab.add_argument("--seed", type=int, default=None)
    prun = psub.add_parser("run", help="simulate one delivery day")
    prun.add_argument("--corpus", required=True)
    prun.add_argument("--policy", required=True)
    prun.add_argument("--tables", default=None)
    prun.add_argument("--seed", type=int, default=None)
    psweep = psub.add_parser("sweep", help="replication matrix of days")
    psweep.add_argument("--corpus", default=None)
    psweep.add_argument("--tables", default=None)
    psweep.add_argument("--policy", action="append", default=None)
    psweep.add_argument("--seed", type=int, default=None)
    _sweep_flags(psweep)

    report = sub.add_parser("report", help="summarize a raw CSV")
    report.add_argument("--raw", required=True)
    report.add_argument("--out", required=True)

    return parser


def _print_row(pairs) -> None:
    print(",".join(f"{k}={v}" for k, v in pairs))


def cmd_bins_run(args) -> int:
    params = balls_bins.ModelParams(T=args.T, N=args.N, q=args.q)
    spec = balls_bins.resolve_policy(
        balls_bins.PolicySpec(kind=args.policy, a_s=args.a_s, a_d=args.a_d),
        params, _preset(args))
    seed = resolve_root_seed(args.seed)
    # one row on the stream path ()
    out = bins_engine.run_blocks(
        spec, args.N, args.q, args.T, 1,
        lambda _, exert: bins_engine.draw_arrival_arrays(seed, params,
                                                         exert=exert))
    trigger = int(out.first_trigger[0])
    _print_row([("policy", args.policy), ("T", args.T), ("N", args.N),
                ("q", args.q),
                ("final_gap", float(out.loads[0].max()) - args.T / args.N),
                ("flex_count", int(out.flex_count[0])),
                ("first_trigger", trigger if trigger >= 0 else None)])
    return 0


def cmd_bins_sweep(args) -> int:
    overrides = {"preset": args.preset, "seed": args.seed,
                 "replications": args.reps, "out_dir": args.out}
    if args.config:
        cfg = load_config(args.config, **overrides)
    else:
        if args.policy is None or args.T is None:
            print("bins sweep needs --config or both --policy and --T",
                  file=sys.stderr)
            return 2
        params = {"N": args.N if args.N is not None else 2,
                  "q": args.q if args.q is not None else 1.0}
        cfg = ExperimentConfig(
            model="bins", policies=args.policy, params=params,
            sweep={"T": parse_grid(args.T)},
            preset=_preset(args), replications=args.reps, seed=args.seed,
            out_dir=args.out or "results")
    raw, summary = run_experiment(cfg, parallel=args.parallel)
    print(raw)
    print(summary)
    return 0


def cmd_opaque_run(args) -> int:
    params = opaque.eoq_params(args.N, args.S, args.q, args.regime)
    spec = opaque.resolve_opaque_policy(
        balls_bins.PolicySpec(kind=args.policy), params, _preset(args))
    R, D = opaque.simulate_cycles(spec, params, args.cycles,
                                  resolve_root_seed(args.seed),
                                  "opaque", args.policy, args.S)
    est = opaque.long_run_cost(R, D, params)
    _print_row([("policy", args.policy), ("S", args.S),
                ("regime", args.regime), ("cost", est.total),
                ("se", est.se_total),
                ("lower_bound", opaque.lower_bound(params)),
                ("mean_R", float(np.mean(R))), ("mean_D", float(np.mean(D)))])
    return 0


# flags of the regime table (``opaque sweep`` without --config), with
# their defaults; --regime and --S have none
REGIME_SWEEP_FLAGS = {"regime": None, "S": None, "N": 5, "q": 0.1,
                      "instances": 10, "cycles": 10}


def cmd_opaque_sweep(args) -> int:
    given = [f"--{name}" for name in REGIME_SWEEP_FLAGS
             if getattr(args, name) is not None]
    if args.config:
        if given:
            print(f"opaque sweep --config takes its parameters from the "
                  f"config, not from {', '.join(given)}", file=sys.stderr)
            return 2
        cfg = load_config(args.config, preset=args.preset, seed=args.seed,
                          out_dir=args.out)
        raw, summary = run_experiment(cfg)
        print(raw)
        print(summary)
        return 0
    if args.regime is None or args.S is None:
        print("opaque sweep needs --config or both --regime and --S",
              file=sys.stderr)
        return 2
    flags = {name: default if getattr(args, name) is None
             else getattr(args, name)
             for name, default in REGIME_SWEEP_FLAGS.items()}
    out = args.out or "results"
    rows = opaque.regime_sweep(
        args.regime, parse_grid(args.S), N=flags["N"], q=flags["q"],
        instances=flags["instances"], cycles_per_instance=flags["cycles"],
        root_seed=resolve_root_seed(args.seed), preset=_preset(args))
    import os
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"opaque_{args.regime}.csv")
    cols = ["regime", "S", "policy", "cost", "lower_bound", "loss", "se",
            "mean_R", "mean_D"]
    write_csv(path, cols, rows)
    emit_plot_data(rows, {"kind": "loss_vs_S"}, out)
    print(path)
    return 0


def cmd_parcel(args) -> int:
    from ..parcel import corpus as pcorpus
    from ..parcel import simulate as psim
    from ..parcel import tables as ptables

    if args.subcommand == "gen-corpus":
        kwargs = {"n_zones": args.zones, "pool_size": args.pool_size,
                  "epsilon": args.epsilon}
        if args.city_radius_km is not None:
            kwargs["city_radius_km"] = args.city_radius_km
        if args.cluster_sd_km is not None:
            kwargs["cluster_sd_km"] = args.cluster_sd_km
        spec = pcorpus.GeometrySpec(**kwargs)
        corpus = pcorpus.build_corpus(spec, resolve_root_seed(args.seed))
        pcorpus.save_corpus(corpus, args.out)
        _print_row([("corpus", args.out), ("packages", len(corpus)),
                    ("zones", corpus.n_zones),
                    ("mean_unload_hours", float(corpus.unload.mean()))])
        return 0
    if args.subcommand == "cluster":
        from ..parcel.clustering import (EpsilonInfeasibleError,
                                         cluster_default)
        corpus = pcorpus.load_corpus(args.corpus)
        try:
            _, assignment, objective = cluster_default(
                corpus.points, corpus.n_zones, args.epsilon,
                resolve_root_seed(args.seed))
        except EpsilonInfeasibleError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        counts = np.bincount(assignment, minlength=corpus.n_zones)
        _print_row([("objective_km", objective),
                    ("min_count", int(counts.min())),
                    ("max_count", int(counts.max()))])
        return 0
    if args.subcommand == "estimate-tables":
        corpus = pcorpus.load_corpus(args.corpus)
        params = psim.ParcelParams(N=corpus.n_zones)
        tables = ptables.estimate_flex_tables(
            corpus, params, reps=args.reps,
            root_seed=resolve_root_seed(args.seed))
        ptables.save_tables(tables, args.out)
        observed = int(np.isfinite(tables.inc).sum())
        _print_row([("tables", args.out), ("observed_pairs", observed)])
        return 0
    if args.subcommand == "run":
        corpus = pcorpus.load_corpus(args.corpus)
        params = psim.ParcelParams(N=corpus.n_zones)
        tables = ptables.load_tables(args.tables) if args.tables else None
        rec = psim.run_day(psim.ParcelPolicy(kind=args.policy), corpus,
                           params, tables,
                           root_seed=resolve_root_seed(args.seed))
        total, travel, overtime = psim.day_cost(rec, params)
        _print_row([("policy", args.policy), ("total_cost", total),
                    ("travel_cost", travel), ("overtime_cost", overtime),
                    ("flex_count", rec.flex_count),
                    ("mean_total_hours", float(rec.totals.mean()))])
        return 0
    if args.subcommand == "sweep":
        overrides = {"seed": args.seed, "replications": args.reps,
                     "out_dir": args.out}
        if args.config:
            cfg = load_config(args.config, **overrides)
        else:
            if args.corpus is None or args.policy is None:
                print("parcel sweep needs --config or both --corpus and "
                      "--policy", file=sys.stderr)
                return 2
            params = {"corpus": args.corpus}
            if args.tables:
                params["tables"] = args.tables
            cfg = ExperimentConfig(
                model="parcel", policies=args.policy, params=params,
                replications=args.reps, seed=args.seed,
                out_dir=args.out or "results")
        kinds = {p if isinstance(p, str) else p["kind"]
                 for p in cfg.policies}
        needs = sorted(kinds & psim.TABLE_POLICIES)
        if needs and "tables" not in {**cfg.params, **cfg.sweep}:
            print(f"policies {needs} need flex tables; "
                  "build them with `endgame parcel estimate-tables`",
                  file=sys.stderr)
            return 2
        raw, summary = run_experiment(cfg, parallel=args.parallel)
        print(raw)
        print(summary)
        return 0
    raise AssertionError(args.subcommand)


def cmd_report(args) -> int:
    import csv as _csv

    from .stats import summarize
    with open(args.raw) as fh:
        reader = _csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        print("raw file has no rows", file=sys.stderr)
        return 1
    numeric = []
    for row in rows:
        conv = {}
        for key, value in row.items():
            try:
                conv[key] = float(value)
            except (TypeError, ValueError):
                conv[key] = value
        numeric.append(conv)
    skip = {"schema_version", "rep", "cycle", "policy"}
    metrics = [k for k, v in numeric[0].items()
               if isinstance(v, float) and k not in skip]
    summary = summarize(numeric, ["policy"], metrics)
    out_rows = [{**r.cell, "metric": r.metric, "mean": r.mean, "se": r.se,
                 "mad": r.mad, "q1": r.q1, "median": r.median, "q3": r.q3,
                 "n": r.n} for r in summary]
    cols = ["policy", "metric", "mean", "se", "mad", "q1", "median", "q3",
            "n"]
    write_csv(args.out, cols, out_rows)
    print(args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bins":
            return (cmd_bins_run(args) if args.subcommand == "run"
                    else cmd_bins_sweep(args))
        if args.command == "opaque":
            return (cmd_opaque_run(args) if args.subcommand == "run"
                    else cmd_opaque_sweep(args))
        if args.command == "parcel":
            return cmd_parcel(args)
        if args.command == "report":
            return cmd_report(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
