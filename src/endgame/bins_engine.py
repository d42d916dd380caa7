"""The policy loop: one event-driven kernel for the balls-into-bins model
and the opaque-selling cycle.

Rows (replications or cycles) run in equal-sized blocks sized to bound
memory.  A row either runs the whole horizon or, given a stop level S,
stops at the first period in which a load reaches S (an opaque cycle is
a ball run on depletion counts, stopped at the first stock-out).  Each
row consumes its own per-category streams, so results are independent
of block size and execution order; a block derives its rows' stream
keys together and draws them on one re-keyed generator.  Policies that
share a model's arrivals run on one draw: each block is drawn once and
every policy steps through it before the next is drawn.

Loads depend on the policy only through its flex *events*: the flex
arrivals it exerts on (for the unlatched dynamic policy, the flex
arrivals it may exert on).  Every other arrival lands in its preferred
bin, so between events a row's loads are per-bin counts of
``preferred``.  The kernel scans the period axis in chunks of
``_CHUNK`` periods; in each chunk it steps in lockstep across rows
through the events only, adding the arrivals between events in bulk.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .balls_bins import (ALWAYS_FLEX, DYNAMIC, FLEX_SQRT_T, NO_FLEX, STATIC,
                         ArrivalArrays, ModelParams, PolicySpec, arrival_keys,
                         draw_arrival_arrays, static_start)
from .streams import RowStreams, keyed_generator

# Target upper bound on (block rows) * T draws held in memory at once.
_BLOCK_ELEMENTS = 32_000_000
# Periods per chunk of the kernel's scan (below 2**15).  A chunk's working
# arrays take tens of bytes per row and period, so blocks also hold at
# most _BLOCK_ROWS rows.
_CHUNK = 1024
_BLOCK_ROWS = 512


@dataclass
class BatchResult:
    """Per-replication outcomes of a replication batch."""

    final_gap: np.ndarray    # (reps,)
    flex_count: np.ndarray   # (reps,)
    first_trigger: np.ndarray  # (reps,) int, -1 when the policy never exerted


@dataclass
class LockstepResult:
    """Per-row outcomes of the kernel."""

    loads: np.ndarray          # (rows, N) loads when the row stopped
    flex_count: np.ndarray     # (rows,) exerted flex arrivals
    first_trigger: np.ndarray  # (rows,) first exerting period, -1 if none
    stop_time: np.ndarray      # (rows,) periods run


def run_many(policy: PolicySpec, params: ModelParams, reps: int,
             root_seed: int, *path) -> BatchResult:
    """Simulate ``reps`` independent horizons of one policy; replication
    ``rep`` consumes the streams addressed by ``(*path, rep)``."""
    return run_policies([policy], params, reps, root_seed, *path)[0]


def run_policies(policies, params: ModelParams, reps: int, root_seed: int,
                 *path) -> list[BatchResult]:
    """:func:`run_many` for each of ``policies``, on one draw of the
    replications' arrivals that every policy runs on."""
    outs = run_blocks(
        policies, params.N, params.q, params.T, reps,
        lambda rep, exert, rng: draw_arrival_arrays(
            root_seed, params, *path, rep, exert=exert, rng=rng),
        keyed=(root_seed, path))
    return [BatchResult(final_gap=out.loads.max(axis=1) - params.T / params.N,
                        flex_count=out.flex_count,
                        first_trigger=out.first_trigger) for out in outs]


def run_blocks(policies, N: int, q: float, T: int, n_rows: int, draw,
               stop: int | None = None,
               keyed: tuple | None = None) -> list[LockstepResult]:
    """Run ``n_rows`` rows of the kernel for each of ``policies``, in
    blocks of equal size (within one row) holding at most about
    ``_BLOCK_ELEMENTS`` draws and at most ``_BLOCK_ROWS`` rows.  Each
    block is drawn once and every policy runs on it before the next block
    is drawn; returns one result per policy.

    ``draw(row, exert)`` returns the row's T-period :class:`ArrivalArrays`;
    ``exert`` says whether a policy reads the ``exert_u`` stream.  With
    ``keyed = (root_seed, path)`` row r draws from the streams of
    ``(root_seed, *path, r)``: the keys of a block's rows are derived
    together, and ``draw(row, exert, rng)`` gets the row's
    :class:`~endgame.streams.RowStreams`, all on one generator.  A block
    keeps only the flex-sqrt-T decisions ``exert_u < (T - t_hat)/T``.
    """
    if n_rows < 1:
        raise ValueError(f"need at least one row, got {n_rows}")
    for policy in policies:
        _check_resolved(policy)
    cuts = [_sqrt_prob(T, p.a_s) if p.kind == FLEX_SQRT_T else None
            for p in policies]
    # the policies that read exert_u run first, so that their decisions
    # are freed before the others run
    order = sorted(range(len(policies)), key=lambda i: cuts[i] is None)
    generator = keyed_generator() if keyed is not None else None
    cap = max(1, min(_BLOCK_ELEMENTS // max(T, 1), _BLOCK_ROWS))
    n_blocks = -(-n_rows // cap)
    bounds = [i * n_rows // n_blocks for i in range(n_blocks + 1)]
    parts = [[] for _ in policies]
    for lo, hi in zip(bounds, bounds[1:]):
        block, decisions = _fill_block(
            draw, lo, hi, sorted({c for c in cuts if c is not None}), keyed,
            generator)
        for i in order:
            if cuts[i] is None:
                decisions = None
            parts[i].append(lockstep(
                policies[i], N, q, block if cuts[i] is None
                else replace(block, exert_u=decisions[cuts[i]]), stop))
        del block, decisions  # one block is alive at a time
    return [LockstepResult(*(np.concatenate([getattr(p, f.name) for p in part])
                             for f in fields(LockstepResult)))
            for part in parts]


def _fill_block(draw, lo: int, hi: int, cuts: list, keyed: tuple | None,
                generator) -> tuple[ArrivalArrays, dict]:
    """Rows ``lo..hi-1`` of arrivals without ``exert_u``, each drawn
    straight into its row of (rows, T) arrays allocated once per block,
    and for each flex-sqrt-T cut the bool rows ``exert_u < cut``; the
    ``exert_u`` stream is drawn only when there are cuts."""
    exert = bool(cuts)
    if keyed is not None:
        keys = arrival_keys(*keyed, np.arange(lo, hi), exert)
    block = decisions = None
    for i, row in enumerate(range(lo, hi)):
        if keyed is None:
            drawn = draw(row, exert)
        else:
            drawn = draw(row, exert, RowStreams(
                generator, {c: k[i] for c, k in keys.items()}))
        arrivals = dict(vars(drawn))
        exert_u = arrivals.pop("exert_u")
        if block is None:
            block = {name: np.empty((hi - lo,) + a.shape, a.dtype)
                     for name, a in arrivals.items()}
            decisions = np.empty((len(cuts), hi - lo, len(drawn)), bool)
        for name, dst in block.items():
            dst[i] = arrivals[name]
        for dst, cut in zip(decisions, cuts):
            dst[i] = exert_u < cut
    return ArrivalArrays(**block), dict(zip(cuts, decisions))


def _check_resolved(policy: PolicySpec) -> None:
    if policy.kind in (STATIC, FLEX_SQRT_T) and policy.a_s is None:
        raise ValueError(f"{policy.kind} policy needs a_s resolved")
    if policy.kind == DYNAMIC and policy.a_d is None:
        raise ValueError("dynamic policy needs a_d resolved")


def _sqrt_prob(T: int, a_s: float) -> float:
    """Per-period exertion probability of the flex-sqrt-T policy."""
    return (T - static_start(T, a_s)) / T


def lockstep(policy: PolicySpec, N: int, q: float, arrivals: ArrivalArrays,
             stop: int | None = None) -> LockstepResult:
    """Run every row of stacked (rows, T) arrivals through one policy.

    Each period the policy decides whether to exert flexibility; an
    exerted flex arrival goes to the lesser-loaded bin of its pair, ties
    to the smaller index, and every other arrival to its preferred bin.
    With ``stop`` set, a row stops after the period in which a load first
    reaches ``stop``.  ``exert_u`` may hold the uniforms or the bool
    decisions of :func:`run_blocks`.  Constants on the policy must
    already be resolved.
    """
    _check_resolved(policy)
    kind = policy.kind
    rows, T = arrivals.is_flex.shape
    loads = np.zeros((rows, N), dtype=np.int64)
    flex_count = np.zeros(rows, dtype=np.int64)
    trigger = np.full(rows, T, dtype=np.int64)  # first exerting period
    stop_time = np.full(rows, T, dtype=np.int64)
    live = np.arange(rows)  # rows still running
    t_hat = static_start(T, policy.a_s) if kind in (STATIC, FLEX_SQRT_T) else 0
    if kind in (ALWAYS_FLEX, STATIC):
        trigger[:] = t_hat  # 0 for always_flex

    for c0 in range(0, T, _CHUNK):
        c1 = min(c0 + _CHUNK, T)
        t = np.arange(c0, c1)
        pref, flex, lo, hi = (a[live, c0:c1] for a in (
            arrivals.preferred, arrivals.is_flex, arrivals.pair_lo,
            arrivals.pair_hi))
        carry = loads[live]
        recheck = None
        if kind == NO_FLEX:
            events = None
        elif kind == ALWAYS_FLEX:
            events = flex
        elif kind == STATIC:
            events = flex & (t >= t_hat)
        elif kind == FLEX_SQRT_T:
            exert = arrivals.exert_u[live, c0:c1]
            if exert.dtype != bool:
                exert = exert < _sqrt_prob(T, policy.a_s)
            _first(trigger, live, exert, c0)
            events = flex & exert
        else:  # dynamic: trigger at the first period the condition holds
            threshold = policy.a_d * (T - t) * q / N
            fresh = np.flatnonzero(trigger[live] == T)
            # Up to its trigger a row places every ball at preference, so
            # no load before a period exceeds the chunk's no-flex end max;
            # the condition's sides are monotone in the load and t, also
            # in floating point, which rules out most chunks cheaply.
            no_flex_end = carry[fresh] + _counts(pref[fresh], N)
            fresh = fresh[no_flex_end.max(axis=1) - c0 / N >= threshold[-1]]
            if fresh.size:
                top = _max_loads(carry[fresh], pref[fresh])
                before = np.concatenate(
                    (carry[fresh].max(axis=1, keepdims=True), top[:, :-1]),
                    axis=1)
                _first(trigger, live[fresh], before - t / N >= threshold, c0)
            events = flex & (t >= trigger[live][:, None])
            if not policy.latched:
                recheck = (t / N, threshold)
        ends, flexes, ran = _place(carry, pref, events, lo, hi, recheck,
                                   stop)
        loads[live] = ends
        flex_count[live] += flexes
        if stop is not None:
            stopped = ran > 0
            stop_time[live[stopped]] = c0 + ran[stopped]
            live = live[~stopped]
            if not live.size:
                break

    first_trigger = np.where(trigger < stop_time, trigger, -1)
    return LockstepResult(loads=loads, flex_count=flex_count,
                          first_trigger=first_trigger, stop_time=stop_time)


def _first(trigger, rows, cond, c0: int) -> None:
    """Lower ``trigger[rows]`` to the first period of the chunk starting at
    ``c0`` in which ``cond`` (rows, chunk) holds, where it holds at all."""
    hit = cond.any(axis=1)
    rows = rows[hit]
    trigger[rows] = np.minimum(trigger[rows], c0 + cond[hit].argmax(axis=1))


def _counts(bins, N: int, end=None):
    """(rows, N) per-bin counts of ``bins`` (rows, w), counting only the
    first ``end[r]`` periods of row r when ``end`` is given."""
    m, w = bins.shape
    if end is not None:
        bins = np.where(np.arange(w) < end[:, None], bins, N)
    key = np.arange(0, m * (N + 1), N + 1)[:, None] + bins
    return np.bincount(key.ravel(), minlength=m * (N + 1)
                       ).reshape(m, N + 1)[:, :N]


def _max_loads(carry, bins):
    """Largest load after each period of a chunk that drops row r's ball t
    into bin ``bins[r, t]`` on top of ``carry`` (rows, N)."""
    top = np.zeros(bins.shape, dtype=np.int64)
    for b in range(carry.shape[1]):
        np.maximum(top, np.cumsum(bins == b, axis=1) + carry[:, b, None],
                   out=top)
    return top


def _place(carry, pref, events, lo, hi, recheck=None, stop=None):
    """Place one chunk of arrivals (rows, w) on top of ``carry`` (rows, N).

    Non-events land in their preferred bin.  The events are stepped in
    lockstep across rows, event k of every row at once, each on its row's
    loads at its period: the per-bin counts of the non-events before it
    plus the events already placed.  An event goes to the lesser-loaded
    bin of its pair, ties to ``lo``.  With ``recheck = (t/N, threshold)``
    per period (the unlatched dynamic policy) an event first re-checks
    the dynamic condition on those loads and goes to its preferred bin
    when it fails.

    Returns each row's loads and flex count at the end of the chunk, or
    at its stop, and the periods a row ran before it stopped (0 for a row
    that did not stop).
    """
    m, w = pref.shape
    N = carry.shape[1]
    at = (np.flatnonzero(events) if events is not None
          else np.empty(0, dtype=np.intp))
    if not at.size:
        ends, flexes = carry + _counts(pref, N), np.zeros(m, dtype=np.int64)
    else:
        # Event k of row r is entry (r, k) of (m, K) arrays.  The row's
        # non-events after its event k - 1 and before its event k form its
        # part of group k, which joins the loads just before step k.
        group = np.cumsum(events, axis=1, dtype=np.int16)  # events so far
        n_ev = group[:, -1].astype(np.int64)
        K = int(n_ev.max())
        group = group.reshape(-1)
        entry = (at // w) * K + group[at] - 1
        group[at] = K + 1  # the events are in no group
        adds = (np.arange(0, m * (N + 1), N + 1)[:, None] + pref
                ).reshape(-1)[np.argsort(group, kind="stable")]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(group))))
        full = np.zeros((m, N + 1), dtype=np.int64)
        full[:, :N] = carry
        chosen, exerted = _step(full, adds, bounds, at, entry, pref, lo, hi,
                                recheck)
        ends = full[:, :N]
        flexes = n_ev if exerted is None else exerted.sum(axis=1)

    ran = np.zeros(m, dtype=np.int64)
    if stop is None:
        return ends, flexes, ran
    s = np.flatnonzero(ends.max(axis=1) >= stop)
    if s.size:
        # a row's trajectory up to its stop is its unstopped trajectory
        placed, flexed = pref[s], np.zeros((s.size, w), dtype=bool)
        if at.size:
            ev = np.flatnonzero(np.isin(at // w, s))
            r, k = np.divmod(entry[ev], K)
            rs, ts = np.searchsorted(s, r), at[ev] % w
            placed[rs, ts] = chosen[r, k] % (N + 1)
            flexed[rs, ts] = True if exerted is None else exerted[r, k]
        ran[s] = (_max_loads(carry[s], placed) >= stop).argmax(axis=1) + 1
        ends[s] = carry[s] + _counts(placed, N, ran[s])
        flexes[s] = (flexed & (np.arange(w) < ran[s, None])).sum(axis=1)
    return ends, flexes, ran


def _step(full, adds, bounds, at, entry, pref, lo, hi, recheck):
    """The lockstep loop of :func:`_place` on the loads ``full``: step k
    adds group k, the flat indices ``adds[bounds[k]:bounds[k + 1]]``,
    and then places event k of every row, a row with fewer events
    placing into its spare bin, column N of ``full``; group K joins after
    the last step.  Returns the (rows, K) flat indices into ``full`` that
    the events chose and, with ``recheck``, which of them exerted."""
    m, w = pref.shape
    N, K = full.shape[1] - 1, len(bounds) - 3  # groups 0..K, the events

    def per_event(values, fill):
        out = np.full((m, K), fill, dtype=np.result_type(values, fill))
        out.reshape(-1)[entry] = values
        return np.ascontiguousarray(out.T)  # the loop reads rows of (K, m)

    row0 = np.arange(0, m * (N + 1), N + 1)
    a = row0 + per_event(lo.ravel()[at], N)
    b = row0 + per_event(hi.ravel()[at], N)
    exerted = None
    if recheck is not None:
        tt = at % w
        p = row0 + per_event(pref.ravel()[at], N)
        t_over_n = per_event(recheck[0][tt], np.inf)
        threshold = per_event(recheck[1][tt], np.inf)
        exerted = np.empty((K, m), dtype=bool)
    flat = full.reshape(-1)
    chosen = np.empty((K, m), dtype=np.intp)
    for i in range(K):
        np.add.at(flat, adds[bounds[i]:bounds[i + 1]], 1)
        ai, bi = a[i], b[i]
        c = np.where(flat[ai] <= flat[bi], ai, bi)
        if recheck is not None:
            ok = full[:, :N].max(axis=1) - t_over_n[i] >= threshold[i]
            c = np.where(ok, c, p[i])
            exerted[i] = ok
        flat[c] += 1
        chosen[i] = c
    np.add.at(flat, adds[bounds[K]:bounds[K + 1]], 1)
    return chosen.T, None if exerted is None else exerted.T
