"""Per-cell summary statistics for experiment outputs."""

from __future__ import annotations

import math

import numpy as np


def summarize_values(values) -> dict:
    """Mean, standard error, mean absolute deviation, and quartiles
    (linear-interpolation quantiles) of one sample."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = float(v.mean())
    se = float(v.std(ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0
    mad = float(np.abs(v - mean).mean())
    q1, median, q3 = (float(x) for x in
                      np.quantile(v, [0.25, 0.5, 0.75], method="linear"))
    return {"mean": mean, "se": se, "mad": mad,
            "q1": q1, "median": median, "q3": q3, "n": int(v.size)}


def summarize(raw_rows, cell_keys, metrics) -> list[dict]:
    """Group raw rows by ``cell_keys`` and summarize each metric: one row
    per cell and metric, the cell's keys, then ``metric``, then the
    statistics of :func:`summarize_values`.

    Rows are dicts; cells appear in first-seen order so output is
    deterministic in the input order.
    """
    groups: dict[tuple, list] = {}
    for row in raw_rows:
        key = tuple(row[k] for k in cell_keys)
        groups.setdefault(key, []).append(row)
    out = []
    for key, rows in groups.items():
        cell = dict(zip(cell_keys, key))
        out.extend({**cell, "metric": metric,
                    **summarize_values([r[metric] for r in rows])}
                   for metric in metrics)
    return out
