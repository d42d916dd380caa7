"""Experiment execution: sweep-cell expansion, replication scheduling,
and CSV emission.

Each cell derives its random streams from the root seed plus its own
coordinates (model, policy, parameter values, replication index), so
changing one cell never perturbs another and results are identical at
any parallelism degree.  Aggregation is an ordered reduce over the cell
list.
"""

from __future__ import annotations

import csv
import itertools
import os
import pathlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .. import balls_bins, bins_engine, opaque
from ..streams import resolve_root_seed
from .config import DEFAULT_REPLICATIONS, ExperimentConfig
from .stats import summarize

SCHEMA_VERSION = 1

RAW_METRICS = {
    "bins": ("final_gap", "flex_count", "first_trigger"),
    "opaque": ("R", "D"),
    "parcel": ("total_cost", "travel_cost", "overtime_cost", "flex_count",
               "mean_unload_hours", "mean_travel_hours", "mad_unload_hours",
               "overtime_freq"),
}

# per-process cache of loaded parcel corpora and tables: path ->
# ((st_mtime_ns, st_size), loaded object); a rewritten file is read again
_PARCEL_CACHE: dict = {}


def expand_cells(config: ExperimentConfig) -> list[dict]:
    """Cartesian product of policies and sweep axes, in config order."""
    axes = list(config.sweep.items())
    cells = []
    for policy in config.policies:
        for combo in itertools.product(*(values for _, values in axes)):
            overrides = dict(zip((name for name, _ in axes), combo))
            cells.append({"policy": policy, "overrides": overrides})
    return cells


def _policy_dict(policy) -> dict:
    if isinstance(policy, str):
        return {"kind": policy}
    return dict(policy)


def _cell_tokens(policy: dict, params: dict) -> tuple:
    """Canonical stream-path coordinates of one cell."""
    tokens = [f"policy={policy['kind']}"]
    tokens += [f"{k}={params[k]}" for k in sorted(params)]
    return tuple(tokens)


def run_cell(model: str, policy: dict, params: dict, reps: int,
             root_seed: int, preset: str) -> list[dict]:
    """Execute one cell and return its raw rows."""
    if model == "bins":
        rows = _run_bins_cell(policy, params, reps, root_seed, preset)
    elif model == "opaque":
        rows = _run_opaque_cell(policy, params, reps, root_seed, preset)
    elif model == "parcel":
        rows = _run_parcel_cell(policy, params, reps, root_seed)
    else:
        raise ValueError(f"unknown model {model!r}")
    return rows


def _run_bins_cell(policy, params, reps, root_seed, preset):
    model = balls_bins.ModelParams(T=params["T"], N=params.get("N", 2),
                                   q=params.get("q", 1.0))
    spec = balls_bins.PolicySpec(
        kind=policy["kind"], a_s=policy.get("a_s"), a_d=policy.get("a_d"),
        latched=bool(policy.get("latched", False)))
    spec = balls_bins.resolve_policy(spec, model, preset)
    path = ("bins",) + _cell_tokens(policy, params)
    batch = bins_engine.run_many(spec, model, reps, root_seed, *path)
    return [{"policy": policy["kind"], **params, "rep": rep,
             "final_gap": float(batch.final_gap[rep]),
             "flex_count": int(batch.flex_count[rep]),
             "first_trigger": int(batch.first_trigger[rep])}
            for rep in range(reps)]


def _run_opaque_cell(policy, params, reps, root_seed, preset):
    cycles = params.get("cycles_per_instance", 10)
    inv = opaque.eoq_params(params.get("N", 5), params["S"],
                            params.get("q", 0.1),
                            params.get("regime", "delta_zero"))
    spec = opaque.resolve_opaque_policy(
        balls_bins.PolicySpec(kind=policy["kind"], a_s=policy.get("a_s"),
                              a_d=policy.get("a_d")), inv, preset)
    path = ("opaque",) + _cell_tokens(policy, params)
    R, D = opaque.simulate_cycles(spec, inv, reps * cycles, root_seed, *path)
    return [{"policy": policy["kind"], **params,
             "rep": c // cycles, "cycle": c % cycles,
             "R": int(R[c]), "D": int(D[c])}
            for c in range(reps * cycles)]


def _load_parcel_inputs(params):
    from ..parcel.corpus import load_corpus
    from ..parcel.tables import load_tables
    corpus = _cached(params["corpus"], load_corpus)
    tables_path = params.get("tables")
    tables = _cached(tables_path, load_tables) if tables_path else None
    return corpus, tables


def _cached(path, load):
    st = os.stat(path)
    stamp = (st.st_mtime_ns, st.st_size)
    hit = _PARCEL_CACHE.get(path)
    if hit is None or hit[0] != stamp:
        hit = _PARCEL_CACHE[path] = (stamp, load(path))
    return hit[1]


def _run_parcel_cell(policy, params, reps, root_seed):
    from ..parcel import simulate as psim
    corpus, tables = _load_parcel_inputs(params)
    fields = {k: v for k, v in params.items()
              if k not in ("corpus", "tables")}
    pp = psim.ParcelParams(N=corpus.n_zones, **fields)
    spec = psim.ParcelPolicy(kind=policy["kind"])
    tokens = _cell_tokens(policy, fields)
    rows = []
    for rep in range(reps):
        rec = psim.run_day(spec, corpus, pp, tables, root_seed=root_seed,
                           stream_path=tokens + (rep,))
        total, travel, overtime = psim.day_cost(rec, pp)
        totals = rec.totals
        rows.append({
            "policy": policy["kind"], **fields, "rep": rep,
            "total_cost": total, "travel_cost": travel,
            "overtime_cost": overtime, "flex_count": rec.flex_count,
            "mean_unload_hours": float(rec.y_u.mean()),
            "mean_travel_hours": float(rec.y_r.mean()),
            "mad_unload_hours": float(np.abs(rec.y_u
                                             - rec.y_u.mean()).mean()),
            "overtime_freq": float((totals > pp.h_max).mean()),
        })
    return rows


def _cell_worker(args):
    return run_cell(*args)


def run_experiment(config: ExperimentConfig, parallel: int = 1,
                   out_dir: str | None = None):
    """Run the full sweep x replication matrix and write raw and summary
    CSVs.  Returns (raw_path, summary_path)."""
    root_seed = resolve_root_seed(config.seed)
    reps = (config.replications if config.replications is not None
            else DEFAULT_REPLICATIONS[config.model])
    out_dir = out_dir or config.out_dir
    os.makedirs(out_dir, exist_ok=True)

    cells = expand_cells(config)
    jobs = []
    for cell in cells:
        params = dict(config.params)
        params.update(cell["overrides"])
        jobs.append((config.model, _policy_dict(cell["policy"]), params,
                     reps, root_seed, config.preset))

    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            per_cell = list(pool.map(_cell_worker, jobs))
    else:
        per_cell = [_cell_worker(job) for job in jobs]

    raw_rows = [row for rows in per_cell for row in rows]
    metrics = RAW_METRICS[config.model]
    raw_path = pathlib.Path(out_dir) / f"{config.model}_raw.csv"
    write_csv(raw_path, _raw_columns(raw_rows, metrics), raw_rows)
    summary_path = pathlib.Path(out_dir) / f"{config.model}_summary.csv"
    write_summary(summary_path, raw_rows,
                  ["policy"] + list(config.sweep.keys()), metrics)
    return raw_path, summary_path


def write_summary(path, raw_rows, cell_keys, metrics) -> None:
    """Per cell of ``cell_keys`` and per metric: mean, standard error,
    mean absolute deviation, quartiles and count of ``raw_rows``."""
    stats = ["mean", "se", "mad", "q1", "median", "q3", "n"]
    rows = [{**row.cell, "metric": row.metric,
             **{name: getattr(row, name) for name in stats}}
            for row in summarize(raw_rows, cell_keys, metrics)]
    write_csv(path, cell_keys + ["metric"] + stats, rows)


def _raw_columns(rows, metrics):
    cols = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    # metrics last, stable order
    return ([c for c in cols if c not in metrics]
            + [m for m in metrics if any(m in r for r in rows)])


def write_csv(path, columns, rows) -> None:
    """Comma-delimited output with a schema_version column first; column
    order is fixed by the caller for byte-stable reruns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema_version"] + list(columns))
        for row in rows:
            writer.writerow([SCHEMA_VERSION]
                            + [row.get(c, "") for c in columns])
