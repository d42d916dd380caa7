"""Command-line interface.

Subcommands::

    endgame bins run|sweep
    endgame opaque run|sweep
    endgame parcel gen-corpus|cluster|estimate-tables|run|sweep
    endgame report

``run`` subcommands execute replication 0 of the matching ``sweep``
cell through the same runner and print one row; ``sweep`` subcommands
execute a replication matrix through the runner and write CSVs, from
model flags or a YAML config (--config).  Every sweep takes --seed,
--reps, --out, --parallel and (bins, opaque) --preset, which override a
config's run settings.  ``report`` summarizes a raw CSV per cell.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys

import numpy as np

from .. import balls_bins, opaque
from ..streams import resolve_root_seed
from .config import MODEL_DEFAULTS, ConfigError, ExperimentConfig, load_config
from .plots import emit_plot_data
from .runner import (RAW_METRICS, cost_rows, model_params, raw_rows,
                     run_cells, run_experiment, run_group, write_csv,
                     write_summary)

BINS, OPAQUE = MODEL_DEFAULTS["bins"], MODEL_DEFAULTS["opaque"]


# most points a range grid may ask for; it is refused before any is made
MAX_GRID_POINTS = 10_000


def parse_grid(text: str) -> list[int]:
    """Parse a sweep grid: 'lo:hi:logN' (geometric), 'lo:hi:N' (linear),
    or a comma-separated list.  Anything else, or a range of more than
    ``MAX_GRID_POINTS`` points, raises ValueError naming the grid."""
    try:
        if ":" in text:
            lo, hi, n = text.split(":")
            lo, hi = float(lo), float(hi)
            geometric = n.startswith("log")
            count = int(n[3:] if geometric else n)
            if count < 0:
                raise ValueError
        else:
            out = [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"grid {text!r}: expected lo:hi:N, lo:hi:logN or "
                         "comma-separated integers") from None
    if ":" in text:
        if not (abs(lo) < 2.0**63 and abs(hi) < 2.0**63):  # nan, inf too
            raise ValueError(f"grid {text!r}: bounds must be finite and "
                             "fit in a 64-bit integer")
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
    if any(abs(v) >= 2**63 for v in out):
        raise ValueError(f"grid {text!r}: a point does not fit in a 64-bit "
                         "integer")
    return out


def _count(text: str) -> int:
    """An argparse type: an integer >= 1, else an error naming the flag."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return value


def _finite(text: str) -> float:
    """An argparse type: a finite float, else an error naming the flag."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _common_flags(p):
    p.add_argument("--seed", type=int, default=None,
                   help="root seed (default: ENDGAME_SEED or 0)")
    p.add_argument("--preset", choices=("theory", "numerics"),
                   default=None,
                   help="constant preset (default: the config's, else "
                   "numerics)")


def _sweep_flags(p):
    """--config, --out, --reps and --parallel; a sweep parser without
    --preset reads its default."""
    p.add_argument("--config", help="YAML experiment config")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--reps", type=_count, default=None,
                   help="replications per cell")
    p.add_argument("--parallel", type=_count, default=1,
                   help="most worker processes")
    p.set_defaults(func=cmd_sweep, preset=None)


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
    brun.add_argument("--N", type=int, default=BINS["N"])
    brun.add_argument("--q", type=float, default=BINS["q"])
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
                      choices=balls_bins.POLICY_KINDS)
    orun.add_argument("--N", type=int, default=OPAQUE["N"])
    orun.add_argument("--S", type=int, required=True)
    orun.add_argument("--q", type=float, default=OPAQUE["q"])
    orun.add_argument("--regime", choices=opaque.REGIMES,
                      default=OPAQUE["regime"])
    orun.add_argument("--cycles", type=_count, default=100)
    _common_flags(orun)
    orun.set_defaults(func=cmd_opaque_run)
    osweep = osub.add_parser(
        "sweep", help="loss-vs-S table for a regime, or a config's sweep")
    osweep.add_argument("--regime", choices=opaque.REGIMES)
    osweep.add_argument("--S", help="S grid, e.g. 50:800:log8")
    osweep.add_argument("--N", type=int)
    osweep.add_argument("--q", type=float)
    osweep.add_argument("--cycles", type=_count)
    _common_flags(osweep)
    _sweep_flags(osweep)

    parcel = sub.add_parser("parcel", help="parcel delivery model")
    parcel.set_defaults(func=cmd_parcel, preset=None)
    psub = parcel.add_subparsers(dest="subcommand", required=True)
    pgen = psub.add_parser("gen-corpus", help="build a synthetic corpus")
    pgen.add_argument("--out", required=True)
    pgen.add_argument("--seed", type=int, default=None)
    pgen.add_argument("--zones", type=int, default=None, dest="n_zones")
    pgen.add_argument("--pool-size", type=int, default=None)
    pgen.add_argument("--city-radius-km", type=_finite, default=None)
    pgen.add_argument("--cluster-sd-km", type=_finite, default=None)
    pgen.add_argument("--epsilon", type=_finite, default=None)
    pclu = psub.add_parser("cluster", help="re-run zone construction")
    pclu.add_argument("--corpus", required=True)
    pclu.add_argument("--epsilon", type=_finite, default=None,
                      help="zone-size tolerance (default: the corpus's)")
    pclu.add_argument("--seed", type=int, default=None)
    ptab = psub.add_parser("estimate-tables",
                           help="estimate flex increment tables")
    ptab.add_argument("--corpus", required=True)
    ptab.add_argument("--out", required=True)
    ptab.add_argument("--reps", type=_count, default=50)
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


def _rep0(model: str, args, params: dict, **policy) -> tuple:
    """The sweep cell of ``args.policy`` (with the constants ``policy``)
    and ``params``, and the outcome columns of its replication 0."""
    cell = ({"kind": args.policy, **policy}, params)
    return cell, run_group(model, [cell], 1, resolve_root_seed(args.seed),
                           args.preset or balls_bins.PRESET_NUMERICS)[0]


def cmd_bins_run(args) -> int:
    row, = raw_rows("bins", *_rep0("bins", args, {
        "T": args.T, "N": args.N, "q": args.q}, a_s=args.a_s, a_d=args.a_d))
    del row["rep"]
    if row["first_trigger"] < 0:  # the policy never exerted
        row["first_trigger"] = None
    _print_row(row.items())
    return 0


def cmd_opaque_run(args) -> int:
    params = {"N": args.N, "S": args.S, "q": args.q, "regime": args.regime,
              "cycles_per_instance": args.cycles}
    _, columns = _rep0("opaque", args, params)
    cost = opaque.long_run_cost(columns["R"], columns["D"],
                                model_params("opaque", params))
    _print_row([("policy", args.policy), ("S", args.S),
                ("regime", args.regime)]
               + [(name, cost[name]) for name in
                  ("cost", "se", "lower_bound", "mean_R", "mean_D")])
    return 0


# per sweep command, the flags that build its sweep without --config and
# their defaults (None: required; parcel's "" tables: none); with
# --config the file holds all of these
SWEEP_FLAGS = {
    "bins": {"policy": None, "T": None, **BINS},
    "opaque": {"regime": None, "S": None, "N": OPAQUE["N"],
               "q": OPAQUE["q"], "cycles": OPAQUE["cycles_per_instance"]},
    "parcel": {"corpus": None, "policy": None, "tables": ""},
}


def cmd_sweep(args) -> int:
    """``<command> sweep``: a config's sweep, or one built from flags."""
    table = SWEEP_FLAGS[args.command]
    if args.config:
        given = [f"--{name}" for name in table
                 if getattr(args, name) is not None]
        if given:
            raise ValueError(f"{args.command} sweep --config takes its "
                             f"parameters from the config, not from "
                             f"{', '.join(given)}")
        cfg = load_config(args.config, preset=args.preset, seed=args.seed,
                          replications=args.reps, out_dir=args.out)
    else:
        missing = [f"--{name}" for name, default in table.items()
                   if default is None and getattr(args, name) is None]
        if missing:
            raise ValueError(f"{args.command} sweep needs --config or "
                             f"{' and '.join(missing)}")
        flags = {name: default if getattr(args, name) is None
                 else getattr(args, name) for name, default in table.items()}
        if args.command == "bins":
            params = {"N": flags["N"], "q": flags["q"]}
            sweep = {"T": parse_grid(flags["T"])}
        elif args.command == "opaque":
            params = dict(N=flags["N"], q=flags["q"], regime=flags["regime"],
                          cycles_per_instance=flags["cycles"])
            sweep = {"S": parse_grid(flags["S"])}
            if sweep["S"] != sorted(set(sweep["S"])):
                raise ConfigError("sweep.S: values must be ascending, each "
                                  "once")
        else:
            params = {"corpus": flags["corpus"]}
            if flags["tables"]:
                params["tables"] = flags["tables"]
            sweep = {}
        cfg = ExperimentConfig(
            model=args.command, params=params, sweep=sweep,
            # the regime table runs every policy
            policies=flags.get("policy", balls_bins.POLICY_KINDS),
            preset=args.preset, replications=args.reps, seed=args.seed,
            out_dir=args.out or "results")
        if args.command == "opaque":
            return _regime_table(cfg, args.parallel)
    raw, summary = run_experiment(cfg, parallel=args.parallel)
    print(raw)
    print(summary)
    return 0


def _regime_table(cfg: ExperimentConfig, parallel: int) -> int:
    """The loss-vs-S table of one opaque regime, S by S, and its plots."""
    rows = sorted(cost_rows(cfg, run_cells(cfg, parallel)),
                  key=lambda row: row["S"])
    path = os.path.join(cfg.out_dir, f"opaque_{cfg.params['regime']}.csv")
    write_csv(path, ("regime", "S", "policy", "cost", "lower_bound", "loss",
                     "se", "mean_R", "mean_D"), rows)
    emit_plot_data(rows, {"kind": "loss_vs_S"}, cfg.out_dir)
    print(path)
    return 0


def _check_out_file(path: str) -> None:
    """Refuse an output file ``path`` that is a directory, or whose
    directory does not exist, with a ValueError naming it."""
    if os.path.isdir(path):
        raise ValueError(f"{path}: Is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"{path}: its directory does not exist")


def cmd_parcel(args) -> int:
    from ..parcel import corpus as pcorpus
    from ..parcel import simulate as psim
    from ..parcel import tables as ptables

    if args.subcommand in ("gen-corpus", "estimate-tables"):
        _check_out_file(args.out)
    if args.subcommand == "gen-corpus":
        # each geometry flag's dest is a GeometrySpec field; a flag not
        # given keeps its field's default
        spec = pcorpus.GeometrySpec(**{
            f.name: getattr(args, f.name)
            for f in dataclasses.fields(pcorpus.GeometrySpec)
            if getattr(args, f.name, None) is not None})
        corpus = pcorpus.build_corpus(spec, resolve_root_seed(args.seed))
        pcorpus.save_corpus(corpus, args.out)
        _print_row([("corpus", args.out), ("packages", len(corpus)),
                    ("zones", corpus.n_zones),
                    ("mean_unload_hours", float(corpus.unload.mean()))])
        return 0
    if args.subcommand == "cluster":
        from ..parcel.clustering import cluster_default
        corpus = pcorpus.load_corpus(args.corpus)
        _, assignment, objective = cluster_default(
            corpus.points, corpus.n_zones,
            corpus.spec.epsilon if args.epsilon is None else args.epsilon,
            resolve_root_seed(args.seed))
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
        row, = raw_rows("parcel", *_rep0("parcel", args, {
            "corpus": args.corpus, "tables": args.tables}))
        _print_row(row.items())
        return 0
    raise AssertionError(args.subcommand)


def cmd_report(args) -> int:
    """Summarize a raw CSV per cell: its metrics are the columns named in
    ``RAW_METRICS``, a cell every other but schema_version, rep, cycle."""
    _check_out_file(args.out)
    with open(args.raw, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{args.raw}: no data rows")
    columns = reader.fieldnames
    if "policy" not in columns:
        raise ValueError(f"{args.raw}: no 'policy' column to group by")
    known = {name for names in RAW_METRICS.values() for name in names}
    metrics = [name for name in columns if name in known]
    if not metrics:
        raise ValueError(f"{args.raw}: no metric column, expected one of "
                         f"{', '.join(sorted(known))}")
    for name in metrics:
        for i, row in enumerate(rows, start=1):
            try:
                value = float(row[name])
            except (TypeError, ValueError):  # None: a short row
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{args.raw}: column {name!r} of data row "
                                 f"{i} is {row[name]!r}, not a finite number")
    cell = [name for name in columns if name not in metrics
            and name not in ("schema_version", "rep", "cycle")]
    write_summary(args.out, rows, cell, metrics)
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
    except OSError as exc:  # a directory, or a path it may not read or write
        print(f"{exc.filename}: {exc.strerror}" if exc.filename else exc,
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
