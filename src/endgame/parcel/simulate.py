"""One-day delivery simulation: online package-to-truck assignment with
approximate routing and five flexing policies.

Packages are bootstrap-resampled from the corpus pool.  Truck travel
time is tracked approximately between full TSP re-solves (every M1
arrivals) by adding, per assignment, twice the distance to the nearest
of the depot and the truck's already-assigned stops.  Only the
policies that read travel time re-solve mid-day; every day ends with a
re-solve for every truck.  A truck's first mid-day re-solve is built
cold (nearest-neighbor, then 2-opt); each later one is warm: it starts
from the truck's previous tour, cheapest-inserts the stops added since,
then runs 2-opt.  The end-of-day re-solve is always cold, so the
reported travel hours and tours are the cold route of each truck's
stops.  Each re-solve grows the truck's distance matrix from its last
one (``tsp.dist_matrix``), bit for bit as a full rebuild.

Policies:

* ``no_flex``: always the default zone's truck.
* ``unloading_only``: dynamic threshold on unloading hours only; the
  flex set is every zone whose center lies within
  ``oblivious_radius_km`` of the package.
* ``routing_dynamic``: the same threshold rule on unloading plus
  approximate travel hours; flex set from the 1 km closeness rule.
* ``patient_dynamic``: flexes only when the default truck's one-step
  load exceeds the best candidate's load projected to the end of the
  horizon using per-zone-pair increment tables.
* ``cost_min``: flexes when the projected end-of-day cost saving of the
  best candidate exceeds a time-decaying threshold, with future zone
  arrivals modeled as binomial counts.

The thresholds for ``unloading_only`` and ``routing_dynamic`` live in
hours, so the dimensionless ball-model threshold a_d (T - t) / N is
scaled by the pool's mean unloading time per package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..streams import stream
from .corpus import Corpus
from .tsp import dist_matrix, tsp_route

NO_FLEX = "no_flex"
UNLOADING_ONLY = "unloading_only"
ROUTING_DYNAMIC = "routing_dynamic"
PATIENT_DYNAMIC = "patient_dynamic"
COST_MIN = "cost_min"

PARCEL_POLICIES = (NO_FLEX, UNLOADING_ONLY, ROUTING_DYNAMIC,
                   PATIENT_DYNAMIC, COST_MIN)
# policies that project onto estimated flex tables
TABLE_POLICIES = frozenset({PATIENT_DYNAMIC, COST_MIN})
# policies whose decisions read travel hours between end-of-day solves
TRAVEL_POLICIES = frozenset({ROUTING_DYNAMIC, PATIENT_DYNAMIC, COST_MIN})

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ParcelParams:
    """Costs, horizon, and routing constants for one delivery day."""

    c_r: float = 6.3
    c_o: float = 38.0
    h_max: float = 8.0
    N: int = 24
    T: int = 2000
    speed: float = 15.75
    flex_km: float = 1.0
    oblivious_radius_km: float = 5.0
    M1: int = 100
    M2: int = 200
    a_d: float = 0.7

    def __post_init__(self):
        for name in ("c_r", "c_o", "h_max", "N", "T", "speed", "flex_km",
                     "oblivious_radius_km", "M1", "M2", "a_d"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value!r}")


@dataclass(frozen=True)
class ParcelPolicy:
    kind: str

    def __post_init__(self):
        if self.kind not in PARCEL_POLICIES:
            raise ValueError(f"unknown parcel policy {self.kind!r}")


@dataclass
class DayRecord:
    """Final per-truck times and the assignment of one simulated day.

    ``y_r`` holds travel hours from the end-of-day re-solve; recosting
    with other (c_r, c_o, h_max) values needs only ``y_u`` and ``y_r``.
    Package t is corpus package ``sample_idx[t]`` and rides truck
    ``truck[t]``; a truck's stops are its packages in arrival order, and
    ``tours[k]`` is the visiting order over truck k's stops.
    """

    y_u: np.ndarray         # (N,) unloading hours
    y_r: np.ndarray         # (N,) travel hours
    flex_count: int
    sample_idx: np.ndarray  # (T,) corpus index of each package
    truck: np.ndarray       # (T,) truck of each package
    tours: list             # (N,) of index arrays over each truck's stops

    @property
    def totals(self) -> np.ndarray:
        return self.y_u + self.y_r


def flex_mask(pts, defaults, centers, params: ParcelParams,
              radius: bool = False) -> np.ndarray:
    """(T, N) flex sets of packages at ``pts`` with default zones
    ``defaults``: zone j is in package t's set when j's center is within
    ``params.flex_km`` beyond the default zone's center distance or, with
    ``radius``, within ``params.oblivious_radius_km`` of the package.
    The default zone is always in."""
    d = np.hypot(centers[None, :, 0] - pts[:, 0, None],
                 centers[None, :, 1] - pts[:, 1, None])
    rows = np.arange(len(pts))
    if radius:
        mask = d <= params.oblivious_radius_km
    else:
        mask = d <= d[rows, defaults][:, None] + params.flex_km
    mask[rows, defaults] = True
    return mask


def inc_approx(route_xy: np.ndarray, pkg_xy, speed: float) -> float:
    """Approximate incremental travel hours of adding one package to a
    truck whose (n + 1, 2) ``route_xy`` holds the depot, then its n
    stops: twice the distance to the nearest of them."""
    diff = route_xy - pkg_xy
    return 2.0 * float(np.hypot(diff[:, 0], diff[:, 1]).min()) / speed


def _normal_overtime(mean: float, sd: float, h: float) -> float:
    """E[(Y - h)^+] for Y ~ Normal(mean, sd)."""
    if sd <= 0.0:
        return max(mean - h, 0.0)
    d = (mean - h) / sd
    phi = math.exp(-0.5 * d * d) / _SQRT2PI
    Phi = 0.5 * math.erfc(-d / math.sqrt(2.0))
    return sd * phi + (mean - h) * Phi


def run_day(policy: ParcelPolicy, corpus: Corpus, params: ParcelParams,
            tables=None, *, root_seed: int = 0,
            stream_path: tuple = ()) -> DayRecord:
    """Simulate one day.  Deterministic in (policy, corpus, params,
    root_seed, stream_path); the bootstrap arrival sequence depends only
    on the seed and path, so policies are coupled on common arrivals.

    ``tables`` (a :class:`~endgame.parcel.tables.FlexTables`) is
    required for the policies in ``TABLE_POLICIES``.
    """
    N, T, speed = params.N, params.T, params.speed
    kind = policy.kind
    if N != corpus.n_zones:
        raise ValueError(
            f"params.N={N} does not match corpus zones={corpus.n_zones}")
    if kind in TABLE_POLICIES and tables is None:
        raise ValueError(f"policy {kind} needs flex tables; build them with "
                         "`endgame parcel estimate-tables`")
    if tables is not None and (tables.inc.shape != (N, N)
                               or len(tables.arrival_prob) != N):
        raise ValueError(
            f"flex tables are for {tables.inc.shape[0]} zones "
            f"({len(tables.arrival_prob)} arrival probabilities) but the "
            f"corpus has {N}")

    rng = stream(root_seed, "parcel", *stream_path, "arrivals")
    sample_idx = rng.integers(0, len(corpus), size=T)
    pts = corpus.points[sample_idx]
    unloads = corpus.unload[sample_idx]
    defaults = corpus.default_zone[sample_idx]
    if kind != NO_FLEX:  # the flex sets of the policies that may flex
        mask = flex_mask(pts, defaults, corpus.centers, params,
                         radius=kind == UNLOADING_ONLY)
    # hour scale for the dimensionless dynamic threshold
    u_bar = float(corpus.unload.mean())
    if kind in TABLE_POLICIES:
        pair = tables.inc + tables.ser  # NaN: no observations
        pair_diag = (np.nan_to_num(np.diagonal(tables.inc), nan=0.0)
                     + np.nan_to_num(np.diagonal(tables.ser), nan=0.0))
        p_zone = tables.arrival_prob
    reads_travel = kind in TRAVEL_POLICIES

    y_u = np.zeros(N)
    y_r = np.zeros(N)
    # y_u + y_r, kept up to date for the policies that compare truck loads
    load = y_u if kind == UNLOADING_ONLY else y_u + y_r
    # row 0 of truck k's buffer is the depot, then its stops in assignment
    # order; the buffer grows by doubling
    coords = [np.empty((16, 2)) for _ in range(N)]
    for buf in coords:
        buf[0] = corpus.depot
    n_stops = [0] * N
    dists = [None] * N  # each truck's distance matrix at its last solve
    truck = np.empty(T, dtype=np.int64)
    tours = [None] * N
    flex_count = 0

    def route_of(k):
        return coords[k][:n_stops[k] + 1]

    def route(k, start=None):
        dists[k] = dist_matrix(route_of(k), dists[k])
        tours[k], y_r[k] = tsp_route(route_of(k)[1:], dists[k], speed,
                                     start=start)

    for t in range(T):
        if reads_travel and t > 0 and t % params.M1 == 0:
            for k in range(N):
                route(k, start=tours[k])
            np.add(y_u, y_r, out=load)

        pkg = pts[t]
        u = unloads[t]
        dz = int(defaults[t])
        dest = dz
        inc = None  # the increment of the package on truck dest, once known

        if kind == UNLOADING_ONLY or kind == ROUTING_DYNAMIC:
            threshold = params.a_d * (T - t) * u_bar / N
            # x.sum() / N is x.mean() bit for bit: one add-reduce, one divide
            if load.max() - load.sum() / N >= threshold:
                fset = np.flatnonzero(mask[t])
                if len(fset) > 1:
                    dest = int(fset[np.argmin(load[fset])])
        elif kind in TABLE_POLICIES:
            fset = np.flatnonzero(mask[t])
            cands = fset[fset != dz]
            if len(cands) > 0:
                inc = inc_d = inc_approx(route_of(dz), pkg, speed)
                inc_c = np.array([inc_approx(route_of(j), pkg, speed)
                                  for j in cands])
                if kind == PATIENT_DYNAMIC:
                    one_step = load[dz] + inc_d + u
                    horizon = (T - t) / params.M2
                    bar = load[cands] + inc_c + u + horizon * pair[dz, cands]
                    # a pair with no observations is never projected onto
                    bar[~np.isfinite(pair[dz, cands])] = np.inf
                    i = int(np.argmin(bar))
                    if bar[i] < math.inf and one_step >= bar[i]:
                        dest, inc = int(cands[i]), inc_c[i]
                else:
                    n_fut = T - 1 - t

                    def _ot(zone, extra):
                        w = pair_diag[zone]
                        p = p_zone[zone]
                        mean = load[zone] + extra + w * n_fut * p
                        sd = w * math.sqrt(max(n_fut, 0) * p * (1.0 - p))
                        return _normal_overtime(mean, sd, params.h_max)

                    base_d = _ot(dz, inc_d + u)  # default keeps the package
                    hat_d = _ot(dz, 0.0)         # default after flexing away
                    best, best_diff = -1, -math.inf
                    for i, (j, inc_j) in enumerate(zip(cands, inc_c)):
                        diff = (params.c_o * (base_d + _ot(j, 0.0)
                                              - hat_d - _ot(j, inc_j + u))
                                + params.c_r * (inc_d - inc_j))
                        if diff > best_diff:
                            best, best_diff = i, diff
                    if best >= 0 and best_diff >= (T - t) / params.M2:
                        dest, inc = int(cands[best]), inc_c[best]

        flex_count += dest != dz
        truck[t] = dest
        y_u[dest] += u
        if reads_travel:
            if inc is None:
                inc = inc_approx(route_of(dest), pkg, speed)
            y_r[dest] += inc
            load[dest] = y_u[dest] + y_r[dest]
        n = n_stops[dest] = n_stops[dest] + 1
        if n == len(coords[dest]):
            coords[dest] = np.concatenate([coords[dest],
                                           np.empty_like(coords[dest])])
        coords[dest][n] = pkg

    for k in range(N):
        route(k)
    return DayRecord(y_u=y_u, y_r=y_r, flex_count=flex_count,
                     sample_idx=sample_idx, truck=truck, tours=tours)


def day_cost(record: DayRecord, params: ParcelParams):
    """Dollar cost of a day: travel plus overtime.  Returns (total,
    travel, overtime)."""
    travel = params.c_r * record.y_r.sum()
    overtime = params.c_o * np.clip(record.totals - params.h_max, 0.0,
                                    None).sum()
    return float(travel + overtime), float(travel), float(overtime)
