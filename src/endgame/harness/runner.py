"""Experiment execution: sweep-cell expansion, replication scheduling,
and CSV emission.

A replication's random streams derive from the root seed, the model,
the values of the parameters that shape its arrivals
(:data:`~endgame.harness.config.ARRIVAL_PARAMS`) and its index, so every
policy of a sweep runs on the same arrivals, and results are identical
at any parallelism degree.  Cells with the same arrival path and row
count run as one job on one draw of their arrivals.  Aggregation is an
ordered reduce over the cell list.
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
from .config import DEFAULT_REPLICATIONS, ExperimentConfig, arrival_path
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


def run_cell(model: str, policy: dict, params: dict, reps: int,
             root_seed: int, preset: str) -> list[dict]:
    """Execute one cell and return its raw rows."""
    if model == "parcel":
        return _run_parcel_cell(policy, params, reps, root_seed)
    return run_group(model, [(policy, params)], reps, root_seed, preset)[0]


def run_group(model: str, cells: list, reps: int, root_seed: int,
              preset: str) -> list[list[dict]]:
    """Execute the cells ``[(policy, params), ...]`` that share one
    arrival path and row count on one draw of their arrivals, each
    distinct resolved policy once; returns each cell's raw rows.  A
    parcel group is one cell."""
    if model == "parcel":
        return [run_cell(model, policy, params, reps, root_seed, preset)
                for policy, params in cells]
    resolved = [_resolve(model, policy, params, preset)
                for policy, params in cells]
    specs = list(dict.fromkeys(spec for _, spec in resolved))
    mp = resolved[0][0]
    path = arrival_path(model, mp)
    n_rows = _rows(model, cells[0][1], reps)
    if model == "bins":
        outs = bins_engine.run_policies(specs, mp, n_rows, root_seed, *path)
    else:
        outs = opaque.simulate_policies(specs, mp, n_rows, root_seed, *path)
    by_spec = dict(zip(specs, outs))
    return [_raw_rows(model, policy, params, reps, by_spec[spec])
            for (policy, params), (_, spec) in zip(cells, resolved)]


def _raw_rows(model: str, policy: dict, params: dict, reps: int,
              out) -> list[dict]:
    """A bins or opaque cell's raw rows from its policy's outcomes."""
    if model == "bins":
        return [{"policy": policy["kind"], **params, "rep": rep,
                 "final_gap": float(out.final_gap[rep]),
                 "flex_count": int(out.flex_count[rep]),
                 "first_trigger": int(out.first_trigger[rep])}
                for rep in range(reps)]
    R, D = out
    cycles = len(R) // reps
    return [{"policy": policy["kind"], **params,
             "rep": c // cycles, "cycle": c % cycles,
             "R": int(R[c]), "D": int(D[c])}
            for c in range(len(R))]


def _resolve(model: str, policy: dict, params: dict, preset: str) -> tuple:
    """A bins or opaque cell's model parameters, defaults filled in, and
    its resolved policy."""
    if model == "bins":
        mp = balls_bins.ModelParams(T=params["T"], N=params.get("N", 2),
                                    q=params.get("q", 1.0))
        spec = balls_bins.PolicySpec(
            kind=policy["kind"], a_s=policy.get("a_s"),
            a_d=policy.get("a_d"), latched=bool(policy.get("latched", False)))
        return mp, balls_bins.resolve_policy(spec, mp, preset)
    if model == "opaque":
        mp = opaque.eoq_params(params.get("N", 5), params["S"],
                               params.get("q", 0.1),
                               params.get("regime", "delta_zero"))
        spec = balls_bins.PolicySpec(kind=policy["kind"],
                                     a_s=policy.get("a_s"),
                                     a_d=policy.get("a_d"))
        return mp, opaque.resolve_opaque_policy(spec, mp, preset)
    raise ValueError(f"unknown model {model!r}")


def _rows(model: str, params: dict, reps: int) -> int:
    """Rows a cell runs: replications, or for opaque their cycles."""
    if model == "opaque":
        return reps * params.get("cycles_per_instance", 10)
    return reps


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
    # run_day puts the model name in front of its stream path itself
    tokens = arrival_path("parcel", pp)[1:]
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


def _group_worker(args):
    return run_group(*args)


def run_experiment(config: ExperimentConfig, parallel: int = 1,
                   out_dir: str | None = None):
    """Run the full sweep x replication matrix and write raw and summary
    CSVs.  Returns (raw_path, summary_path)."""
    root_seed = resolve_root_seed(config.seed)
    reps = (config.replications if config.replications is not None
            else DEFAULT_REPLICATIONS[config.model])
    out_dir = out_dir or config.out_dir
    os.makedirs(out_dir, exist_ok=True)

    groups = {}  # group key -> indices into cells, in first-seen order
    cells = []
    for i, cell in enumerate(expand_cells(config)):
        policy = _policy_dict(cell["policy"])
        params = {**config.params, **cell["overrides"]}
        cells.append((policy, params))
        if config.model == "parcel":
            key = i  # a parcel cell runs alone
        else:
            mp, _ = _resolve(config.model, policy, params, config.preset)
            key = (arrival_path(config.model, mp),
                   _rows(config.model, params, reps))
        groups.setdefault(key, []).append(i)
    jobs = [(config.model, [cells[i] for i in members], reps, root_seed,
             config.preset) for members in groups.values()]

    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            per_group = list(pool.map(_group_worker, jobs))
    else:
        per_group = [_group_worker(job) for job in jobs]
    per_cell = [None] * len(cells)
    for members, outs in zip(groups.values(), per_group):
        for i, rows in zip(members, outs):
            per_cell[i] = rows

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
