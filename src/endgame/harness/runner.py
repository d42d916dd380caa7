"""Experiment execution: sweep-cell expansion, replication scheduling,
and CSV emission.

A replication's random streams derive from the root seed, the model,
the values of the parameters that shape its arrivals
(:data:`~endgame.harness.config.ARRIVAL_PARAMS`) and its index, so every
policy of a sweep runs on the same arrivals, and results are identical
at any parallelism degree.  Cells with the same arrival path and row
count run as one job on one draw of their arrivals, and a job returns
each cell's outcome columns; :func:`raw_rows` alone turns those into raw
rows.  Aggregation is an ordered reduce over the cell list.
"""

from __future__ import annotations

import csv
import itertools
import os
import pathlib

import numpy as np

from .. import balls_bins, bins_engine, opaque
from ..streams import resolve_root_seed
from .config import (FILE_PARAMS, MODEL_DEFAULTS, ExperimentConfig,
                     arrival_path)
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


def expand_cells(config: ExperimentConfig) -> list[tuple[dict, dict]]:
    """The cells ``(policy, params)`` of the cartesian product of
    policies and sweep axes, in config order."""
    axes = list(config.sweep.items())
    cells = []
    for policy in config.policies:
        policy = {"kind": policy} if isinstance(policy, str) else policy
        for combo in itertools.product(*(values for _, values in axes)):
            overrides = dict(zip((name for name, _ in axes), combo))
            cells.append((policy, {**config.params, **overrides}))
    return cells


def run_group(model: str, cells: list, reps: int, root_seed: int,
              preset: str) -> list[dict]:
    """Execute the cells ``[(policy, params), ...]`` that share one
    arrival path and row count on one draw of their arrivals, each
    distinct resolved policy once; returns each cell's outcome columns,
    its :data:`RAW_METRICS` by name, one entry per raw row.  A parcel
    group is one cell."""
    if model == "parcel":
        return [run_cell(policy, params, reps, root_seed)
                for policy, params in cells]
    resolved = [_resolve(model, policy, params, preset)
                for policy, params in cells]
    specs = list(dict.fromkeys(spec for _, spec in resolved))
    mp = resolved[0][0]
    path = arrival_path(model, mp)
    n_rows = _rows(model, cells[0][1], reps)
    run = (bins_engine.run_policies if model == "bins"
           else opaque.simulate_policies)
    outs = run(specs, mp, n_rows, root_seed, *path)
    # final_gap is read once: it recomputes per access
    by_spec = {spec: ((out.final_gap, out.flex_count, out.first_trigger)
                      if model == "bins" else (out.stop_time, out.flex_count))
               for spec, out in zip(specs, outs)}
    return [dict(zip(RAW_METRICS[model], by_spec[spec]))
            for _, spec in resolved]


def raw_rows(model: str, cell: tuple, columns: dict) -> list[dict]:
    """The raw rows of a cell ``(policy, params)`` from its outcome
    columns: ``policy``, the params but the input files, ``rep`` (opaque:
    and ``cycle``), then the columns in their order."""
    policy, params = cell
    head = {"policy": policy["kind"],
            **{k: v for k, v in params.items() if k not in FILE_PARAMS}}
    values = zip(*(np.asarray(column).tolist()
                   for column in columns.values()))
    per_rep = _rows(model, params, 1)
    return [{**head, "rep": i // per_rep,
             **({"cycle": i % per_rep} if model == "opaque" else {}),
             **dict(zip(columns, row))}
            for i, row in enumerate(values)]


def model_params(model: str, params: dict):
    """A bins or opaque cell's model parameters, with the
    :data:`~endgame.harness.config.MODEL_DEFAULTS` of those it leaves
    out."""
    p = {**MODEL_DEFAULTS[model], **params}
    if model == "bins":
        return balls_bins.ModelParams(T=p["T"], N=p["N"], q=p["q"])
    return opaque.eoq_params(p["N"], p["S"], p["q"], p["regime"])


def _resolve(model: str, policy: dict, params: dict, preset: str) -> tuple:
    """A bins or opaque cell's model parameters and resolved policy."""
    mp = model_params(model, params)
    spec = balls_bins.PolicySpec(
        kind=policy["kind"], a_s=policy.get("a_s"), a_d=policy.get("a_d"),
        latched=bool(policy.get("latched", False)))
    reads = ("kind", *balls_bins.POLICY_CONSTANTS.get(spec.kind, ()))
    for name, value in policy.items():
        if value is not None and name not in reads:
            raise ValueError(f"{name}: not read by the {spec.kind} policy")
    resolve = (balls_bins.resolve_policy if model == "bins"
               else opaque.resolve_opaque_policy)
    return mp, resolve(spec, mp, preset)


def _rows(model: str, params: dict, reps: int) -> int:
    """Rows a cell runs: replications, or for opaque their cycles."""
    if model == "opaque":
        return reps * params.get("cycles_per_instance",
                                 MODEL_DEFAULTS[model]["cycles_per_instance"])
    return reps


def _cached(path, load):
    st = os.stat(path)
    stamp = (st.st_mtime_ns, st.st_size)
    hit = _PARCEL_CACHE.get(path)
    if hit is None or hit[0] != stamp:
        hit = _PARCEL_CACHE[path] = (stamp, load(path))
    return hit[1]


def run_cell(policy: dict, params: dict, reps: int,
             root_seed: int) -> dict:
    """Run one parcel cell and return its outcome columns."""
    from ..parcel import simulate as psim
    from ..parcel.corpus import load_corpus
    from ..parcel.tables import load_tables
    corpus = _cached(params["corpus"], load_corpus)
    tables_path = params.get("tables")
    tables = _cached(tables_path, load_tables) if tables_path else None
    pp = psim.ParcelParams(N=corpus.n_zones, **{
        k: v for k, v in params.items() if k not in FILE_PARAMS})
    spec = psim.ParcelPolicy(kind=policy["kind"])
    # run_day puts the model name in front of its stream path itself
    tokens = arrival_path("parcel", pp)[1:]
    columns = {name: [] for name in RAW_METRICS["parcel"]}
    for rep in range(reps):
        rec = psim.run_day(spec, corpus, pp, tables, root_seed=root_seed,
                           stream_path=tokens + (rep,))
        day = (*psim.day_cost(rec, pp), rec.flex_count,
               float(rec.y_u.mean()), float(rec.y_r.mean()),
               float(np.abs(rec.y_u - rec.y_u.mean()).mean()),
               float((rec.totals > pp.h_max).mean()))
        for column, value in zip(columns.values(), day):
            column.append(value)
    return columns


def make_out_dir(path) -> None:
    """Create the output directory ``path``; a file at or above it is a
    ValueError that names it."""
    try:
        os.makedirs(path, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ValueError(f"output directory {path}: {exc.strerror}") \
            from None


def run_cells(config: ExperimentConfig, parallel: int = 1) -> list:
    """Run the sweep x replication matrix, once every cell is checked and
    the output directory made, on at most ``parallel`` worker processes
    (one per job at most); returns each cell's outcome columns, in cell
    order."""
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    root_seed = resolve_root_seed(config.seed)
    cells = expand_cells(config)
    groups = {}  # group key -> indices into cells, in first-seen order
    for i, (_, params) in enumerate(cells):
        if config.model == "parcel":
            key = i  # a parcel cell runs alone
        else:
            key = (arrival_path(config.model,
                                model_params(config.model, params)),
                   _rows(config.model, params, config.replications))
        groups.setdefault(key, []).append(i)
    jobs = [(config.model, [cells[i] for i in members], config.replications,
             root_seed, config.preset or balls_bins.PRESET_NUMERICS)
            for members in groups.values()]
    # every bins and opaque cell's parameters are checked by now
    make_out_dir(config.out_dir)

    workers = min(parallel, len(jobs))
    if workers > 1:
        # imported here: the process pool's modules cost every process
        # about 2 MB
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_group = list(pool.map(run_group, *zip(*jobs)))
    else:
        per_group = [run_group(*job) for job in jobs]
    per_cell = [None] * len(cells)
    for members, outs in zip(groups.values(), per_group):
        for i, columns in zip(members, outs):
            per_cell[i] = columns
    return per_cell


def cost_rows(config: ExperimentConfig, per_cell) -> list[dict]:
    """Each opaque cell's ``policy`` and params, then its
    :func:`~endgame.opaque.long_run_cost` row over its replications as
    batches, from :func:`run_cells`' outcome columns."""
    return [{"policy": policy["kind"], **params, **opaque.long_run_cost(
                columns["R"], columns["D"], model_params("opaque", params),
                config.replications)}
            for (policy, params), columns in zip(expand_cells(config),
                                                 per_cell)]


def run_experiment(config: ExperimentConfig, parallel: int = 1):
    """:func:`run_cells`, then write raw and summary CSVs (opaque: and
    ``opaque_cost.csv``, the :func:`cost_rows`).  Returns (raw_path,
    summary_path)."""
    per_cell = run_cells(config, parallel)
    rows = [row for cell, columns in zip(expand_cells(config), per_cell)
            for row in raw_rows(config.model, cell, columns)]
    out = pathlib.Path(config.out_dir)
    raw_path = out / f"{config.model}_raw.csv"
    write_csv(raw_path, list(rows[0]), rows)
    summary_path = out / f"{config.model}_summary.csv"
    write_summary(summary_path, rows, ["policy"] + list(config.sweep),
                  RAW_METRICS[config.model])
    if config.model == "opaque":
        costs = cost_rows(config, per_cell)
        write_csv(out / "opaque_cost.csv", list(costs[0]), costs)
    return raw_path, summary_path


def write_summary(path, raw_rows, cell_keys, metrics) -> None:
    """Per cell of ``cell_keys`` and per metric: mean, standard error,
    mean absolute deviation, quartiles and count of ``raw_rows``."""
    rows = summarize(raw_rows, cell_keys, metrics)
    write_csv(path, list(rows[0]), rows)


def write_csv(path, columns, rows) -> None:
    """Comma-delimited output with a schema_version column first; column
    order is fixed by the caller for byte-stable reruns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema_version"] + list(columns))
        for row in rows:
            writer.writerow([SCHEMA_VERSION]
                            + [row.get(c, "") for c in columns])
