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

import numpy as np

from .. import balls_bins, bins_engine, opaque
from ..streams import resolve_root_seed
from .config import MODEL_DEFAULTS, ExperimentConfig, arrival_path
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
              preset: str) -> list[list[dict]]:
    """Execute the cells ``[(policy, params), ...]`` that share one
    arrival path and row count on one draw of their arrivals, each
    distinct resolved policy once; returns each cell's raw rows.  A
    parcel group is one cell."""
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
    by_spec = dict(zip(specs, outs))
    return [_raw_rows(model, policy, params, reps, by_spec[spec])
            for (policy, params), (_, spec) in zip(cells, resolved)]


def _raw_rows(model: str, policy: dict, params: dict, reps: int,
              out) -> list[dict]:
    """A bins or opaque cell's raw rows from its policy's outcomes."""
    if model == "bins":  # final_gap is read once: it recomputes per access
        return [{"policy": policy["kind"], **params, "rep": rep,
                 "final_gap": gap, "flex_count": flex, "first_trigger": first}
                for rep, (gap, flex, first) in enumerate(zip(
                    out.final_gap.tolist(), out.flex_count.tolist(),
                    out.first_trigger.tolist()))]
    R, D = out.stop_time, out.flex_count
    cycles = len(R) // reps
    return [{"policy": policy["kind"], **params,
             "rep": c // cycles, "cycle": c % cycles,
             "R": int(R[c]), "D": int(D[c])}
            for c in range(len(R))]


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
             root_seed: int) -> list[dict]:
    """Run one parcel cell and return its raw rows."""
    from ..parcel import simulate as psim
    from ..parcel.corpus import load_corpus
    from ..parcel.tables import load_tables
    corpus = _cached(params["corpus"], load_corpus)
    tables_path = params.get("tables")
    tables = _cached(tables_path, load_tables) if tables_path else None
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
        rows.append({
            "policy": policy["kind"], **fields, "rep": rep,
            "total_cost": total, "travel_cost": travel,
            "overtime_cost": overtime, "flex_count": rec.flex_count,
            "mean_unload_hours": float(rec.y_u.mean()),
            "mean_travel_hours": float(rec.y_r.mean()),
            "mad_unload_hours": float(np.abs(rec.y_u
                                             - rec.y_u.mean()).mean()),
            "overtime_freq": float((rec.totals > pp.h_max).mean()),
        })
    return rows


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
    (one per job at most); returns each cell's raw rows, in cell order."""
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
        for i, rows in zip(members, outs):
            per_cell[i] = rows
    return per_cell


def cost_rows(config: ExperimentConfig, per_cell) -> list[dict]:
    """Each opaque cell's ``policy`` and params, then its
    :func:`~endgame.opaque.long_run_cost` row over its replications as
    batches, from :func:`run_cells`' raw rows."""
    return [{"policy": policy["kind"], **params, **opaque.long_run_cost(
                *(np.array([row[name] for row in rows])
                  for name in ("R", "D")),
                model_params("opaque", params), config.replications)}
            for (policy, params), rows in zip(expand_cells(config),
                                              per_cell)]


def run_experiment(config: ExperimentConfig, parallel: int = 1):
    """:func:`run_cells`, then write raw and summary CSVs (opaque: and
    ``opaque_cost.csv``, the :func:`cost_rows`).  Returns (raw_path,
    summary_path)."""
    per_cell = run_cells(config, parallel)
    raw_rows = [row for rows in per_cell for row in rows]
    out = pathlib.Path(config.out_dir)
    raw_path = out / f"{config.model}_raw.csv"
    write_csv(raw_path, list(raw_rows[0]), raw_rows)
    summary_path = out / f"{config.model}_summary.csv"
    write_summary(summary_path, raw_rows, ["policy"] + list(config.sweep),
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
