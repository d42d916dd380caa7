"""Command-line interface.

Subcommands::

    endgame bins run|sweep
    endgame opaque run|sweep
    endgame parcel gen-corpus|cluster|estimate-tables|run|sweep
    endgame report

``run`` subcommands execute a single replication and print one row;
``sweep`` subcommands execute a replication matrix and write CSVs,
built either from model flags or from a YAML config (--config), whose
run settings (--seed, --preset, --reps, --out, --parallel) flags
override.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .. import balls_bins, bins_engine, opaque
from ..streams import resolve_root_seed
from .config import (ConfigError, ExperimentConfig, arrival_path,
                     load_config)
from .plots import emit_plot_data
from .runner import run_experiment, write_csv, write_summary


# most points a range grid may ask for; it is refused before any is made
MAX_GRID_POINTS = 10_000


def parse_grid(text: str) -> list[int]:
    """Parse a sweep grid: 'lo:hi:logN' (geometric), 'lo:hi:N' (linear),
    or a comma-separated list.  Anything else, or a range of more than
    ``MAX_GRID_POINTS`` points, raises ValueError."""
    if ":" in text:
        lo, hi, n = text.split(":")
        lo, hi = float(lo), float(hi)
        if not (abs(lo) < 2.0**63 and abs(hi) < 2.0**63):  # nan, inf too
            raise ValueError(f"grid {text!r}: bounds must be finite and "
                             "fit in a 64-bit integer")
        geometric = n.startswith("log")
        count = int(n[3:] if geometric else n)
        if count > MAX_GRID_POINTS:
            raise ValueError(f"grid {text!r}: {count} points, more than "
                             f"{MAX_GRID_POINTS}")
        if geometric:
            if min(lo, hi) <= 0 <= max(lo, hi):
                raise ValueError(f"grid {text!r}: a geometric grid needs "
                                 "nonzero bounds of one sign")
            pts = np.rint(np.geomspace(lo, hi, count))
        else:
            pts = np.rint(np.linspace(lo, hi, count))
        # rounding may repeat a point; keep the first of each run
        out = [int(v) for i, v in enumerate(pts) if i == 0 or v != pts[i - 1]]
    else:
        out = [int(v) for v in text.split(",")]
    if any(abs(v) >= 2**63 for v in out):
        raise ValueError(f"grid {text!r}: a point does not fit in a 64-bit "
                         "integer")
    return out


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


def _sweep_flags(p, run=True):
    """--config and --out, and with ``run`` --reps and --parallel; a
    sweep parser without one of these or --preset reads its default."""
    p.add_argument("--config", help="YAML experiment config")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_sweep, reps=None, parallel=1, preset=None)
    if run:
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
    brun.set_defaults(func=cmd_bins_run)
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
    orun.set_defaults(func=cmd_opaque_run)
    osweep = osub.add_parser(
        "sweep", help="loss-vs-S table for a regime, or a config's sweep")
    osweep.add_argument("--regime", choices=opaque.REGIMES)
    osweep.add_argument("--S", help="S grid, e.g. 50:800:log8")
    osweep.add_argument("--N", type=int)
    osweep.add_argument("--q", type=float)
    osweep.add_argument("--instances", type=int)
    osweep.add_argument("--cycles", type=int)
    _common_flags(osweep)
    _sweep_flags(osweep, run=False)

    parcel = sub.add_parser("parcel", help="parcel delivery model")
    parcel.set_defaults(func=cmd_parcel)
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
    report.set_defaults(func=cmd_report)

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
    out, = bins_engine.run_blocks(
        [spec], args.N, args.q, args.T, 1,
        lambda _, exert: bins_engine.draw_arrival_arrays(seed, params,
                                                         exert=exert))
    trigger = int(out.first_trigger[0])
    _print_row([("policy", args.policy), ("T", args.T), ("N", args.N),
                ("q", args.q),
                ("final_gap", float(out.loads[0].max()) - args.T / args.N),
                ("flex_count", int(out.flex_count[0])),
                ("first_trigger", trigger if trigger >= 0 else None)])
    return 0


def cmd_opaque_run(args) -> int:
    params = opaque.eoq_params(args.N, args.S, args.q, args.regime)
    spec = opaque.resolve_opaque_policy(
        balls_bins.PolicySpec(kind=args.policy), params, _preset(args))
    R, D = opaque.simulate_cycles(spec, params, args.cycles,
                                  resolve_root_seed(args.seed),
                                  *arrival_path("opaque", params))
    est = opaque.long_run_cost(R, D, params)
    _print_row([("policy", args.policy), ("S", args.S),
                ("regime", args.regime), ("cost", est.total),
                ("se", est.se_total),
                ("lower_bound", opaque.lower_bound(params)),
                ("mean_R", float(np.mean(R))), ("mean_D", float(np.mean(D)))])
    return 0


# per sweep command, the flags that build its sweep without --config and
# their defaults (None: required; parcel's "" tables: none); with
# --config the file holds all of these
SWEEP_FLAGS = {
    "bins": {"policy": None, "T": None, "N": 2, "q": 1.0},
    "opaque": {"regime": None, "S": None, "N": 5, "q": 0.1,
               "instances": 10, "cycles": 10},
    "parcel": {"corpus": None, "policy": None, "tables": ""},
}


def cmd_sweep(args) -> int:
    """``<command> sweep``: a config's sweep, or one built from flags."""
    table = SWEEP_FLAGS[args.command]
    if args.config:
        given = [f"--{name}" for name in table
                 if getattr(args, name) is not None]
        if given:
            print(f"{args.command} sweep --config takes its parameters from "
                  f"the config, not from {', '.join(given)}",
                  file=sys.stderr)
            return 2
        cfg = load_config(args.config, preset=args.preset, seed=args.seed,
                          replications=args.reps, out_dir=args.out)
    else:
        missing = [f"--{name}" for name, default in table.items()
                   if default is None and getattr(args, name) is None]
        if missing:
            print(f"{args.command} sweep needs --config or "
                  f"{' and '.join(missing)}", file=sys.stderr)
            return 2
        flags = {name: default if getattr(args, name) is None
                 else getattr(args, name) for name, default in table.items()}
        if args.command == "opaque":
            return _regime_table(args, flags)
        if args.command == "bins":
            params = {"N": flags["N"], "q": flags["q"]}
            sweep = {"T": parse_grid(flags["T"])}
        else:
            params = {"corpus": flags["corpus"]}
            if flags["tables"]:
                params["tables"] = flags["tables"]
            sweep = {}
        cfg = ExperimentConfig(
            model=args.command, policies=flags["policy"], params=params,
            sweep=sweep, preset=_preset(args), replications=args.reps,
            seed=args.seed, out_dir=args.out or "results")
    raw, summary = run_experiment(cfg, parallel=args.parallel)
    print(raw)
    print(summary)
    return 0


def _regime_table(args, flags) -> int:
    """The loss-vs-S table of one opaque regime, with its plot data."""
    out = args.out or "results"
    rows = opaque.regime_sweep(
        flags["regime"], parse_grid(flags["S"]), N=flags["N"], q=flags["q"],
        instances=flags["instances"], cycles_per_instance=flags["cycles"],
        root_seed=resolve_root_seed(args.seed), preset=_preset(args))
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"opaque_{flags['regime']}.csv")
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
    raise AssertionError(args.subcommand)


def cmd_report(args) -> int:
    import csv as _csv

    with open(args.raw) as fh:
        reader = _csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        print("raw file has no rows", file=sys.stderr)
        return 1
    if "policy" not in reader.fieldnames:
        raise ValueError(f"{args.raw}: no 'policy' column to group by")
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
    write_summary(args.out, numeric, ["policy"], metrics)
    print(args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
