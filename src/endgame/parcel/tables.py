"""Estimation of per-zone-pair increment tables from no-flex replays.

INC[i, j] is the mean incremental travel (hours) of moving a package
whose default zone is i onto truck j's route; SER[i, j] the mean
incremental unloading (hours) of the same packages.  Both are averaged
over packages observed on no-flex replications whose flex set contains
j.  The sender-side diagonal uses the removal delta on the package's own
final route; receiver-side entries use the cheapest-insertion delta into
truck j's final route.  Pairs with no observations stay NaN and policies
treat them as unusable.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, read_lines
from .simulate import NO_FLEX, ParcelParams, ParcelPolicy, flex_set_of, run_day
from .tsp import insertion_delta, removal_delta

TABLES_FORMAT = "endgame-flex-tables-1"


@dataclass
class FlexTables:
    """Zone-pair increment estimates plus per-zone arrival fractions."""

    inc: np.ndarray           # (N, N), hours, NaN = no observations
    ser: np.ndarray           # (N, N), hours, NaN = no observations
    arrival_prob: np.ndarray  # (N,), sums to 1
    n_obs: np.ndarray | None = None  # (N, N) observation counts

    def __post_init__(self):
        if self.inc.shape != self.ser.shape or \
                self.inc.shape[0] != self.inc.shape[1]:
            raise ValueError("inc and ser must be square with equal shapes")
        if len(self.arrival_prob) != self.inc.shape[0]:
            raise ValueError("arrival_prob length must match table size")


def estimate_flex_tables(corpus: Corpus, params: ParcelParams,
                         reps: int = 50, root_seed: int = 0) -> FlexTables:
    """Run ``reps`` no-flex days and average route deltas per zone pair.

    Deterministic in (corpus, params, reps, root_seed); replication k
    uses the day stream path ("tables", k).
    """
    N = params.N
    speed = params.speed
    depot = corpus.depot
    inc_sum = np.zeros((N, N))
    ser_sum = np.zeros((N, N))
    n_obs = np.zeros((N, N), dtype=np.int64)

    for rep in range(reps):
        rec = run_day(ParcelPolicy(NO_FLEX), corpus, params,
                      root_seed=root_seed, stream_path=("tables", rep))
        pkg_pts = corpus.points[rec.sample_idx]
        pkg_unload = corpus.unload[rec.sample_idx]
        pkg_zone = corpus.default_zone[rec.sample_idx]
        # per truck: stops in final tour order, and each stop's position in
        # that tour by assignment order
        tour_pts, tour_pos = [], []
        for k, order in enumerate(rec.tours):
            pos = np.empty(len(order), dtype=np.int64)
            pos[order] = np.arange(len(order))
            tour_pos.append(pos)
            tour_pts.append(pkg_pts[rec.truck == k][order])

        # on a no-flex day every package rides its default zone's truck
        assigned_rank = {z: 0 for z in range(N)}
        for pkg, u, i in zip(pkg_pts, pkg_unload, pkg_zone):
            i = int(i)
            k = assigned_rank[i]
            assigned_rank[i] = k + 1
            for j in flex_set_of(pkg, corpus.centers, i, params.flex_km):
                j = int(j)
                if j == i:
                    delta_km = removal_delta(tour_pts[i], depot,
                                             int(tour_pos[i][k]))
                else:
                    delta_km = insertion_delta(tour_pts[j], depot, pkg)
                inc_sum[i, j] += delta_km / speed
                ser_sum[i, j] += u
                n_obs[i, j] += 1

    with np.errstate(invalid="ignore"):
        inc = np.where(n_obs > 0, inc_sum / np.maximum(n_obs, 1), np.nan)
        ser = np.where(n_obs > 0, ser_sum / np.maximum(n_obs, 1), np.nan)
    return FlexTables(inc=inc, ser=ser, arrival_prob=corpus.arrival_prob(),
                      n_obs=n_obs)


def save_tables(tables: FlexTables, path) -> None:
    """Write tables to a self-describing text file."""
    N = tables.inc.shape[0]
    buf = io.StringIO()
    buf.write(f"# format {TABLES_FORMAT}\n")
    buf.write(f"# zones {N}\n")
    for name, mat in (("inc", tables.inc), ("ser", tables.ser)):
        buf.write(f"# matrix {name}\n")
        for row in mat:
            buf.write(" ".join(repr(float(v)) for v in row) + "\n")
    buf.write("# vector arrival_prob\n")
    buf.write(" ".join(repr(float(v)) for v in tables.arrival_prob) + "\n")
    if tables.n_obs is not None:
        buf.write("# matrix n_obs\n")
        for row in tables.n_obs:
            buf.write(" ".join(str(int(v)) for v in row) + "\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def load_tables(path) -> FlexTables:
    """Read a flex-table file; malformed content raises ValueError naming
    the file."""
    blocks = {}
    kinds = {}  # block name -> "matrix" or "vector"
    current = None
    fmt = None
    for lineno, line in enumerate(read_lines(path), 1):
        if not line:
            continue
        try:
            if line.startswith("#"):
                parts = line[1:].split()
                if parts[0] == "format":
                    fmt = parts[1]
                elif parts[0] in ("matrix", "vector"):
                    current = parts[1]
                    blocks[current] = []
                    kinds[current] = parts[0]
                continue
            blocks[current].append([float(v) for v in line.split()])
        except (IndexError, KeyError, ValueError):
            raise ValueError(
                f"{path}: malformed line {lineno}: {line!r}") from None
    if fmt != TABLES_FORMAT:
        raise ValueError(f"{path}: unrecognized tables format tag {fmt!r}")
    for name in ("inc", "ser", "arrival_prob"):
        if not blocks.get(name):
            raise ValueError(f"{path}: missing block {name!r}")
    N = len(blocks["inc"])
    for name, rows in blocks.items():
        n_rows = N if kinds[name] == "matrix" else 1
        if len(rows) != n_rows or any(len(row) != N for row in rows):
            raise ValueError(f"{path}: {kinds[name]} {name!r} is not "
                             f"{n_rows}x{N}")
    n_obs = None
    if "n_obs" in blocks:
        counts = np.array(blocks["n_obs"])
        if not (np.isfinite(counts).all() and (counts >= 0).all()
                and (counts == np.rint(counts)).all()):
            raise ValueError(f"{path}: matrix 'n_obs' holds a value that is "
                             "not a count")
        n_obs = counts.astype(np.int64)
    return FlexTables(inc=np.array(blocks["inc"]),
                      ser=np.array(blocks["ser"]),
                      arrival_prob=np.array(blocks["arrival_prob"][0]),
                      n_obs=n_obs)
