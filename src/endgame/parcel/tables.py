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
from .simulate import NO_FLEX, ParcelParams, ParcelPolicy, flex_mask, run_day

TABLES_FORMAT = "endgame-flex-tables-1"


@dataclass
class FlexTables:
    """Zone-pair increment estimates plus per-zone arrival fractions."""

    inc: np.ndarray           # (N, N), hours, NaN = no observations
    ser: np.ndarray           # (N, N), hours, NaN = no observations
    arrival_prob: np.ndarray  # (N,), sums to 1
    n_obs: np.ndarray         # (N, N) observation counts

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
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    N = params.N
    depot = corpus.depot
    inc_sum = np.zeros((N, N))
    ser_sum = np.zeros((N, N))
    n_obs = np.zeros((N, N), dtype=np.int64)

    for rep in range(reps):
        rec = run_day(ParcelPolicy(NO_FLEX), corpus, params,
                      root_seed=root_seed, stream_path=("tables", rep))
        pts = corpus.points[rec.sample_idx]
        zone = corpus.default_zone[rec.sample_idx]
        mask = flex_mask(pts, zone, corpus.centers, params)
        delta_km = np.empty(mask.shape)  # read where mask holds
        for k, order in enumerate(rec.tours):
            stops = np.flatnonzero(rec.truck == k)[order]  # in tour order
            cyc = np.vstack([depot, pts[stops], depot])
            edge = np.hypot(*(cyc[:-1] - cyc[1:]).T)
            # on a no-flex day truck k carries its zone's packages: the
            # removal delta of each from k's own tour
            skip = np.hypot(*(cyc[:-2] - cyc[2:]).T)
            delta_km[stops, k] = edge[:-1] + edge[1:] - skip
            # the cheapest-insertion delta into k's tour of every other
            # package whose flex set holds k
            guests = np.flatnonzero(mask[:, k] & (zone != k))
            to_new = np.hypot(cyc[:, 0] - pts[guests, 0, None],
                              cyc[:, 1] - pts[guests, 1, None])
            delta_km[guests, k] = (to_new[:, :-1] + to_new[:, 1:]
                                   - edge).min(axis=1)
        # package-then-zone order: each sum adds its terms in package order
        pkg, j = np.nonzero(mask)
        cell = (zone[pkg], j)
        np.add.at(inc_sum, cell, delta_km[pkg, j] / params.speed)
        np.add.at(ser_sum, cell, corpus.unload[rec.sample_idx][pkg])
        np.add.at(n_obs, cell, 1)

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
    for name in ("inc", "ser", "arrival_prob", "n_obs"):
        if not blocks.get(name):
            raise ValueError(f"{path}: missing block {name!r}")
    N = len(blocks["inc"])
    for name, rows in blocks.items():
        n_rows = N if kinds[name] == "matrix" else 1
        if len(rows) != n_rows or any(len(row) != N for row in rows):
            raise ValueError(f"{path}: {kinds[name]} {name!r} is not "
                             f"{n_rows}x{N}")
    counts = np.array(blocks["n_obs"])
    if not (np.isfinite(counts).all() and (counts >= 0).all()
            and (counts == np.rint(counts)).all()):
        raise ValueError(f"{path}: matrix 'n_obs' holds a value that is "
                         "not a count")
    return FlexTables(inc=np.array(blocks["inc"]),
                      ser=np.array(blocks["ser"]),
                      arrival_prob=np.array(blocks["arrival_prob"][0]),
                      n_obs=counts.astype(np.int64))
