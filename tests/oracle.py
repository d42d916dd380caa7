"""Test oracles.

``run`` is the scalar reference for the lockstep kernel in
``endgame.bins_engine``: one row, one period at a time, written to be
read rather than to be fast.  The engines must agree with it bit for bit
on the same arrivals, which ``draw`` draws for one row of a stream path
with numpy alone, and ``decisions`` cuts for the flex-sqrt-T policy;
``flex_code`` encodes a flex pair for hand-written rows.
``nearest_neighbor_order``, ``cheapest_insertion`` and ``two_opt`` are
the references for the routines of the same names in
``endgame.parcel.tsp``, which must return the same tours; ``route``
runs ``tsp.tsp_route`` on the distance matrix of the depot and the
stops, ``coords``, as ``run_day`` does.
``held_karp_length`` (exact TSP) and
``greedy_repair_assign`` (greedy balanced zoning) are the baselines the
parcel heuristics are checked against; ``lp_balanced_assign`` solves
balanced zoning as the transportation LP it is, the reference for
``endgame.parcel.clustering.balanced_assign``, and ``zone_move_gap``
certifies a balanced zoning optimal.  ``flex_set_of`` and
``radius_flex_set`` give one package's flex set, the rows of
``endgame.parcel.simulate.flex_mask``;
``estimate_flex_tables`` is the package-at-a-time reference for the
function of the same name in ``endgame.parcel.tables``, built on the
single-point ``insertion_delta`` and ``removal_delta``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from endgame import balls_bins as bb
from endgame.balls_bins import (ALWAYS_FLEX, FLEX_SQRT_T, NO_FLEX, STATIC,
                                ArrivalArrays, PolicySpec, static_start)
from endgame.parcel import clustering, tsp
from endgame.parcel import tables as ptables
from endgame.parcel.simulate import NO_FLEX as PARCEL_NO_FLEX
from endgame.parcel.simulate import ParcelPolicy


@dataclass
class Record:
    """Outcome of one row."""

    loads: np.ndarray          # (N,) loads when the row stopped
    flex_count: int
    first_trigger: int | None  # first exerting period, None if never
    trajectory: np.ndarray     # (stop_time, N) loads after each period

    @property
    def stop_time(self) -> int:
        return len(self.trajectory)

    @property
    def final_gap(self) -> float:
        """Maximum load minus the average load."""
        return float(self.loads.max()) - self.stop_time / len(self.loads)

    @property
    def gap_trajectory(self) -> np.ndarray:
        t = np.arange(1, self.stop_time + 1)
        return self.trajectory.max(axis=1) - t / len(self.loads)


# the per-period arrays of a row or block
ARRAYS = ("is_flex", "preferred", "pair")


@dataclass
class Row(ArrivalArrays):
    """One row of arrivals, each array (T,), with its exert stream
    ``exert_u``: V, then one uniform per flex arrival in period order;
    None when it was not drawn."""

    exert_u: np.ndarray | None = None


def run(policy: PolicySpec, N: int, q: float, arrivals: ArrivalArrays,
        stop: int | None = None) -> Record:
    """Place one row of arrivals under ``policy``; with ``stop`` set, stop
    after the period in which a load first reaches ``stop``."""
    T = len(arrivals)
    loads = np.zeros(N, dtype=np.int64)
    flex_count = 0
    first_trigger = None
    triggered = False
    trajectory = []
    t_hat = (static_start(T, policy.a_s)
             if policy.kind in (STATIC, FLEX_SQRT_T) else 0)
    if policy.kind == FLEX_SQRT_T:
        exerts = decisions(arrivals, (T - t_hat) / T)
    for t in range(T):
        if policy.kind == NO_FLEX:
            exert = False
        elif policy.kind == ALWAYS_FLEX:
            exert = True
        elif policy.kind == STATIC:
            exert = t >= t_hat
        elif policy.kind == FLEX_SQRT_T:
            exert = exerts[t]
        else:  # dynamic
            threshold = policy.a_d * (T - t) * q / N
            cond = loads.max() - t / N >= threshold
            triggered = triggered or cond
            exert = triggered if policy.latched else cond
        if exert and first_trigger is None:
            first_trigger = t
        if exert and arrivals.is_flex[t]:
            # the flexset code's pair {i, j + (j >= i)}, (i, j) =
            # divmod(code, N - 1)
            i, j = divmod(int(arrivals.pair[t]), N - 1)
            j += j >= i
            a, b = min(i, j), max(i, j)
            chosen = a if loads[a] <= loads[b] else b  # ties to a < b
            flex_count += 1
        else:
            chosen = int(arrivals.preferred[t])
        loads[chosen] += 1
        trajectory.append(loads.copy())
        if stop is not None and loads[chosen] >= stop:
            break
    return Record(loads=loads, flex_count=flex_count,
                  first_trigger=first_trigger,
                  trajectory=np.array(trajectory).reshape(-1, N))


def tile_generator(root_seed: int, *path, g: int = 0, w: int = 0):
    """Tile (g, w) of the stream ``path``, from numpy alone: a fresh
    Philox generator whose key is the first two uint64 words of
    ``SeedSequence((root_seed, *path))``, a string label entering as the
    first 8 bytes of its sha256, and whose counter is (0, w, g, 0)."""
    entropy = [root_seed] + [
        p & (2**64 - 1) if isinstance(p, int) else int.from_bytes(
            hashlib.sha256(str(p).encode()).digest()[:8], "little")
        for p in path]
    key = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    counter = np.array([0, w, g, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def draw(root_seed: int, N: int, q: float, T: int, *path, row: int = 0,
         exert: bool = True) -> Row:
    """The arrivals of row ``row`` of a run on stream path ``path``,
    built the slow way.  Row r is row i = r mod G of the tiles (r div G,
    w) of G = ``bb.tile_rows(T)`` rows and W = ``bb.TILE_PERIODS``
    periods.  Category c of a tile comes from ``tile_generator(root_seed,
    *path, c, g=g, w=w)``, drawn for the tile's rows up to row i,
    row-major, of which row i's are kept.  A tile's flex periods are a
    geometric-gap process over its concatenated periods, one uniform per
    gap (none at q = 1); ``preferred`` is one bin per period; ``pair``
    holds flex arrival k's code, code k of one draw in [0, N(N - 1)) per
    flex arrival (none at N = 2, where every code is 0), and 0 in a
    non-flex period; the exert stream holds per row V, in window 0 only,
    then one uniform per flex arrival.  ``exert_u`` is V, then the row's
    flex uniforms in period order."""
    g, i = divmod(row, bb.tile_rows(T))
    dtype = np.int16 if N > 127 else np.int8
    is_flex = np.zeros(T, dtype=bool)
    preferred = np.zeros(T, dtype=dtype)
    pair = np.zeros(T, dtype=np.min_scalar_type(N * (N - 1) - 1))
    exert_u = []
    for w, t0 in enumerate(range(0, T, bb.TILE_PERIODS)):
        width = min(bb.TILE_PERIODS, T - t0)

        def generator(category):
            return tile_generator(root_seed, *path, category, g=g, w=w)

        # the flex periods of the tile's rows 0..i, as (row, period)
        flex = []
        if q == 1.0:
            flex = [(r, t) for r in range(i + 1) for t in range(width)]
        else:
            rng, at = generator("flex"), -1
            while True:
                u = rng.random()
                gap = np.floor(np.log1p(-u) / np.log1p(-q))
                at += min(int(gap), (i + 1) * width) + 1
                if at >= (i + 1) * width:
                    break
                flex.append(divmod(at, width))
        mine = [n for n, (r, _) in enumerate(flex) if r == i]
        for n in mine:
            is_flex[t0 + flex[n][1]] = True
        preferred[t0:t0 + width] = generator("preferred").integers(
            0, N, size=(i + 1) * width, dtype=dtype)[i * width:]
        if N > 2:
            codes = generator("flexset").integers(
                0, N * (N - 1), size=len(flex), dtype=pair.dtype)
            for n in mine:
                pair[t0 + flex[n][1]] = codes[n]
        if exert:
            u = generator("exert").random(len(flex) + (i + 1) * (w == 0))
            # row i's uniforms follow its V (window 0) and every earlier
            # row's V and flex uniforms
            start = sum(1 for r, _ in flex if r < i) + i * (w == 0)
            exert_u.extend(u[start:start + len(mine) + (w == 0)])
    return Row(is_flex=is_flex, preferred=preferred, pair=pair,
               exert_u=np.array(exert_u) if exert else None)


def flex_code(lo, hi, N: int):
    """A flexset code of the pair (lo, hi), lo < hi, of N bins:
    lo (N - 1) + hi - 1, which ``run``'s decoding gives back."""
    return lo * (N - 1) + hi - 1


def decisions(arrivals: Row, cut: float) -> np.ndarray:
    """A flex-sqrt-T policy's per-period decisions at exertion
    probability ``cut``, one period at a time: the k-th flex arrival
    exerts when ``exert_u[1 + k] < cut``; the non-flex periods exert from
    the one with ``floor(log1p(-V) / log1p(-cut))`` non-flex periods
    before it on, V = ``exert_u[0]``; nothing exerts at a cut of 0."""
    out = np.zeros(len(arrivals), dtype=bool)
    if cut == 0:
        return out
    with np.errstate(divide="ignore"):
        first = np.floor(np.log1p(-arrivals.exert_u[0]) / np.log1p(-cut))
    flex_seen = non_flex_seen = 0
    for t in range(len(arrivals)):
        if arrivals.is_flex[t]:
            out[t] = arrivals.exert_u[1 + flex_seen] < cut
            flex_seen += 1
        else:
            out[t] = non_flex_seen >= first
            non_flex_seen += 1
    return out


def stack_arrivals(rows: list, policy: PolicySpec) -> ArrivalArrays:
    """The (rows, T) block of per-row arrival arrays as
    ``bins_engine.lockstep`` runs it whole for ``policy``: for a flex-sqrt-T
    policy with the ``decisions`` of its :func:`decisions` at the cut
    ``(T - t_hat)/T``, the (rows, T) bool flex ones and each row's first
    period (T if it has none); for any other with None."""
    block = ArrivalArrays(*(np.stack([getattr(a, name) for a in rows])
                            for name in ARRAYS))
    if policy.kind == FLEX_SQRT_T:
        T = len(rows[0])
        cut = (T - static_start(T, policy.a_s)) / T
        made = np.stack([decisions(a, cut) for a in rows])
        first = np.where(made.any(axis=1), made.argmax(axis=1), T)
        block.decisions = (made & block.is_flex, first)
    return block


def coords(points, depot) -> np.ndarray:
    """The (n + 1, 2) coordinates of ``depot``, then ``points``."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    return np.vstack([np.asarray(depot, dtype=float).reshape(1, 2), points])


def route(points, depot, speed: float, start=None):
    """``tsp.tsp_route`` over ``points`` from ``depot`` on their
    ``tsp.dist_matrix``, as ``run_day`` routes a truck."""
    xy = coords(points, depot)
    return tsp.tsp_route(xy[1:], tsp.dist_matrix(xy), speed, start=start)


def nearest_neighbor_order(D):
    """Greedy construction starting from the depot (node 0 of D)."""
    n = D.shape[0] - 1
    unvisited = np.ones(n + 1, dtype=bool)
    unvisited[0] = False
    order = []
    cur = 0
    for _ in range(n):
        d = np.where(unvisited, D[cur], np.inf)
        cur = int(d.argmin())
        unvisited[cur] = False
        order.append(cur - 1)
    return np.array(order, dtype=np.int64)


def two_opt(D, order):
    """Best-improvement 2-opt until no improving move remains."""
    n = len(order)
    if n < 3:
        return np.asarray(order, dtype=np.int64)
    arr = np.concatenate(([0], np.asarray(order, dtype=np.int64) + 1, [0]))
    idx = np.arange(1, n + 1)
    lower = np.tri(n, dtype=bool)  # i >= k: not a move
    while True:
        pred = arr[idx - 1]
        cur = arr[idx]
        succ = arr[idx + 1]
        delta = (D[pred[:, None], cur[None, :]]
                 + D[cur[:, None], succ[None, :]]
                 - D[pred, cur][:, None]
                 - D[cur, succ][None, :])
        delta[lower] = np.inf
        flat = delta.argmin()
        i, k = divmod(int(flat), n)
        if delta[i, k] >= -1e-12:
            break
        arr[i + 1:k + 2] = arr[i + 1:k + 2][::-1]
    return arr[1:-1] - 1


def cheapest_insertion(D, start):
    """Insert the points after ``start`` one at a time, in index order,
    each into the first edge of least added length."""
    tour = [0] + [int(j) + 1 for j in start] + [0]
    for j in range(len(start) + 1, D.shape[0]):
        best, where = math.inf, 0
        for e in range(len(tour) - 1):
            a, b = tour[e], tour[e + 1]
            cost = D[a, j] + D[j, b] - D[a, b]
            if cost < best:
                best, where = cost, e + 1
        tour.insert(where, j)
    return np.array(tour[1:-1], dtype=np.int64) - 1


def held_karp_length(points, depot):
    """Exact optimal closed-tour length by dynamic programming, for small
    instances (n <= ~12)."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(points)
    if n == 0:
        return 0.0
    D = tsp.dist_matrix(coords(points, depot))
    full = (1 << n) - 1
    best = np.full((1 << n, n), np.inf)
    for j in range(n):
        best[1 << j, j] = D[0, j + 1]
    for mask in range(1, full + 1):
        for j in range(n):
            bit = 1 << j
            if not mask & bit or best[mask, j] == np.inf:
                continue
            base = best[mask, j]
            for k in range(n):
                kbit = 1 << k
                if mask & kbit:
                    continue
                cand = base + D[j + 1, k + 1]
                if cand < best[mask | kbit, k]:
                    best[mask | kbit, k] = cand
    return float(min(best[full, j] + D[j + 1, 0] for j in range(n)))


def _cost_matrix(points, centers):
    """(L, N) package-to-center distances."""
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    diff = points[:, None, :] - centers[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def lp_balanced_assign(points, centers, epsilon: float):
    """Minimum-cost balanced assignment as a transportation LP.  With the
    integer count bounds of ``clustering.count_bounds`` the constraint
    matrix (one assignment row per package, one count row per zone) is
    totally unimodular, so HiGHS dual simplex returns a 0/1 vertex, read
    off by argmax; a fractional answer raises.  Returns (assignment,
    objective)."""
    cost = _cost_matrix(points, centers)
    L, N = cost.shape
    # variables z[j, i] flattened row-major: v = j*N + i
    A_eq = sparse.kron(sparse.eye(L, format="csr"),
                       np.ones((1, N)), format="csr")
    counts = sparse.kron(np.ones((1, L)),
                         sparse.eye(N, format="csr"), format="csr")
    A_ub = sparse.vstack([counts, -counts], format="csr")
    lo, hi = clustering.count_bounds(L, N, epsilon)
    b_ub = np.concatenate([np.full(N, hi), np.full(N, -lo)])
    res = linprog(cost.ravel(), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                  b_eq=np.ones(L), bounds=(0, 1), method="highs-ds")
    if not res.success:
        raise RuntimeError(f"balanced assignment LP failed: {res.message}")
    z = res.x.reshape(L, N)
    if z.max(axis=1).min() < 1.0 - 1e-9:
        raise RuntimeError("balanced assignment LP returned a fractional "
                           "vertex")
    assignment = z.argmax(axis=1)
    objective = float(cost[np.arange(L), assignment].sum())
    return assignment, objective


def greedy_repair_assign(points, centers, epsilon: float):
    """Nearest-center assignment projected to feasibility by greedy
    swaps.  Returns (assignment, objective)."""
    cost = _cost_matrix(points, centers)
    L, N = cost.shape
    assignment = cost.argmin(axis=1)
    lo, hi = clustering.count_bounds(L, N, epsilon)
    assignment = _repair_counts(cost, assignment, lo, hi)
    objective = float(cost[np.arange(L), assignment].sum())
    return assignment, objective


def _repair_counts(cost, assignment, lo: int, hi: int):
    """Move packages one at a time, each the cheapest move that takes a
    package out of an over-full zone or into an under-full one, until
    every zone count is within [lo, hi]."""
    N = cost.shape[1]
    counts = np.bincount(assignment, minlength=N)
    while True:
        over = np.flatnonzero(counts > hi)
        under = np.flatnonzero(counts < lo)
        if len(over) == 0 and len(under) == 0:
            return assignment
        if len(over) > 0:
            src = over[0]
            dst_ok = np.flatnonzero(counts < hi)
            dst_ok = dst_ok[dst_ok != src]
        else:
            dst_ok = under[:1]
            src_ok = np.flatnonzero(counts > lo)
            src = None
        if src is not None:
            members = np.flatnonzero(assignment == src)
            extra = cost[members][:, dst_ok] - cost[members, src][:, None]
            m, d = np.unravel_index(extra.argmin(), extra.shape)
            assignment[members[m]] = dst_ok[d]
            counts[src] -= 1
            counts[dst_ok[d]] += 1
        else:
            dst = dst_ok[0]
            cand_mask = np.isin(assignment, src_ok)
            members = np.flatnonzero(cand_mask)
            extra = cost[members, dst] - cost[members, assignment[members]]
            m = extra.argmin()
            counts[assignment[members[m]]] -= 1
            assignment[members[m]] = dst
            counts[dst] += 1


def zone_move_gap(points, centers, assignment, lo: int, hi: int) -> float:
    """Optimality certificate of a balanced assignment with zone counts
    in [lo, hi]: the least cost change of moving packages around a cycle
    of zones, or along a path of zones from one with count > lo to one
    with count < hi, one package out of each zone but the last.

    W[a, b] is the cheapest move of one package of zone a to zone b;
    Floyd-Warshall over W gives the cheapest cycle through each zone (the
    diagonal) and the cheapest path between any two.  The assignment is
    optimal exactly when the returned value is >= 0."""
    cost = _cost_matrix(points, centers)
    N = cost.shape[1]
    assignment = np.asarray(assignment)
    counts = np.bincount(assignment, minlength=N)
    W = np.full((N, N), np.inf)
    for a in np.flatnonzero(counts):
        zone = cost[assignment == a]
        W[a] = (zone - zone[:, [a]]).min(axis=0)
    np.fill_diagonal(W, np.inf)
    for k in range(N):
        W = np.minimum(W, W[:, [k]] + W[[k], :])
    paths = np.where(np.eye(N, dtype=bool), np.inf, W)
    return float(min(np.diagonal(W).min(),
                     paths[np.ix_(counts > lo, counts < hi)].min(
                         initial=np.inf)))


def flex_set_of(pkg_xy, centers, default_zone: int,
                flex_km: float) -> np.ndarray:
    """Zones whose center is within ``flex_km`` beyond the default
    zone's center distance.  Always contains the default zone."""
    d = np.hypot(centers[:, 0] - pkg_xy[0], centers[:, 1] - pkg_xy[1])
    mask = d <= d[default_zone] + flex_km
    mask[default_zone] = True
    return np.flatnonzero(mask)


def radius_flex_set(pkg_xy, centers, default_zone: int,
                    radius_km: float) -> np.ndarray:
    """Zones whose center is within ``radius_km`` of the package, plus
    the default zone."""
    d = np.hypot(centers[:, 0] - pkg_xy[0], centers[:, 1] - pkg_xy[1])
    mask = d <= radius_km
    mask[default_zone] = True
    return np.flatnonzero(mask)


def insertion_delta(tour_pts, depot, new_pt):
    """Cheapest-edge cost of inserting ``new_pt`` into a closed tour given
    by the ordered point coordinates ``tour_pts`` (km, not hours)."""
    new_pt = np.asarray(new_pt, dtype=float)
    tour_pts = np.asarray(tour_pts, dtype=float).reshape(-1, 2)
    depot = np.asarray(depot, dtype=float)
    if len(tour_pts) == 0:
        return 2.0 * float(np.hypot(*(new_pt - depot)))
    cyc = np.vstack([depot[None, :], tour_pts, depot[None, :]])
    a = cyc[:-1]
    b = cyc[1:]
    d_an = np.hypot(*(a - new_pt).T)
    d_nb = np.hypot(*(b - new_pt).T)
    d_ab = np.hypot(*(a - b).T)
    return float((d_an + d_nb - d_ab).min())


def removal_delta(tour_pts, depot, position):
    """Length saved by dropping the stop at ``position`` from a closed tour
    (km).  Nonnegative by the triangle inequality."""
    tour_pts = np.asarray(tour_pts, dtype=float).reshape(-1, 2)
    depot = np.asarray(depot, dtype=float)
    cyc = np.vstack([depot[None, :], tour_pts, depot[None, :]])
    p = position + 1
    prev_pt, this_pt, next_pt = cyc[p - 1], cyc[p], cyc[p + 1]
    return float(np.hypot(*(prev_pt - this_pt))
                 + np.hypot(*(this_pt - next_pt))
                 - np.hypot(*(prev_pt - next_pt)))


def estimate_flex_tables(corpus, params, reps: int = 50,
                         root_seed: int = 0) -> ptables.FlexTables:
    """Flex tables one (package, flex-set zone) pair at a time, on the
    same no-flex replays as ``endgame.parcel.tables``."""
    N = params.N
    speed = params.speed
    depot = corpus.depot
    inc_sum = np.zeros((N, N))
    ser_sum = np.zeros((N, N))
    n_obs = np.zeros((N, N), dtype=np.int64)

    for rep in range(reps):
        rec = ptables.run_day(ParcelPolicy(PARCEL_NO_FLEX), corpus, params,
                              root_seed=root_seed,
                              stream_path=("tables", rep))
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
    return ptables.FlexTables(inc=inc, ser=ser,
                              arrival_prob=corpus.arrival_prob(), n_obs=n_obs)
