"""The policy loop: one event-driven kernel for the balls-into-bins model
and the opaque-selling cycle.

Rows (replications or cycles) run in blocks of whole tiles of the draw,
and a block runs one draw window of ``TILE_PERIODS`` periods at a time,
so memory is bounded at any horizon.  A row either runs the whole
horizon or, given a stop level S, stops at the first period in which a
load reaches S (an opaque cycle is a ball run on depletion counts,
stopped at the first stock-out).  A run on stream path ``path`` draws
category c from the stream keyed by ``(root_seed, *path, c)``, in tiles of
rows x periods whose draws depend only on the row, not on the block size
or the execution order (see ``balls_bins.draw_raw_arrays``).  Policies
that share a model's arrivals run on one draw: each window of a block is
drawn once and every policy steps through it before the next is drawn.

Loads depend on the policy only through its flex *events*: the flex
arrivals it exerts on (for the unlatched dynamic policy, the flex
arrivals it may exert on).  Every other arrival lands in its preferred
bin, so between events a row's loads are per-bin counts of
``preferred``.  The kernel scans a window in chunks of at most
``_CHUNK`` periods; in each chunk it steps in lockstep across rows
through the events only, adding the arrivals between events in bulk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import balls_bins, streams
from .balls_bins import (ALWAYS_FLEX, CATEGORIES, DYNAMIC, FLEX_SQRT_T,
                         POLICY_CONSTANTS, STATIC, ArrivalArrays, ModelParams,
                         PolicySpec, decision_carry, draw_raw_arrays,
                         flex_pair, static_start, tile_rows)

# the name bins runs draw under (the benchmark's trace wraps it apart from
# the opaque model's draws)
draw_arrival_arrays = draw_raw_arrays

# Most periods per chunk of the kernel's scan.  A chunk's working arrays take
# tens of bytes per row and period, so blocks hold at most _BLOCK_ROWS rows
# (or one tile), and a chunk's slab at most _SLAB counts (a full block's at
# N = 2).  A block's (rows, N + 1) state fits in a slab too, so at wide N
# blocks hold fewer rows.
_CHUNK = 1024
_BLOCK_ROWS = 512
_SLAB = 4 * _CHUNK * _BLOCK_ROWS
# Periods per segment of a chunk: the dynamic-trigger search takes loads at
# segment boundaries first and steps period by period only through the
# segments that can hold a row's trigger.
_SEG = 16

# Freed at once and never touched.  GNU malloc raises its mmap threshold to
# the largest mapping freed and its trim threshold to twice that, so a
# chunk's temporaries then stay in the heap from chunk to chunk, not faulted
# in afresh.  It is made at import, while 16 MiB is still a fresh mapping:
# made per run, it would come from the heap, and NumPy's huge-page advice on
# arrays of 4 MiB or more would stay on that part of the heap (more RSS).
np.empty(2**24, np.uint8)


@dataclass
class LockstepResult:
    """Per-row outcomes of the kernel."""

    loads: np.ndarray          # (rows, N) loads when the row stopped
    flex_count: np.ndarray     # (rows,) exerted flex arrivals
    first_trigger: np.ndarray  # (rows,) first exerting period, -1 if none
    stop_time: np.ndarray      # (rows,) periods run

    @property
    def final_gap(self) -> np.ndarray:
        """(rows,) largest minus mean load, recomputed on each access."""
        return self.loads.max(axis=1) - self.stop_time / self.loads.shape[1]


def _results(rows: int, N: int) -> LockstepResult:
    """Outcome arrays for ``rows`` rows, their loads all zero."""
    return LockstepResult(np.zeros((rows, N), dtype=np.int64),
                          *(np.empty(rows, dtype=np.int64) for _ in range(3)))


@dataclass
class _State:
    """One policy's kernel state of a block on a horizon of T, before
    period ``t0``: the block's rows ``out``, which the kernel advances in
    place.  While the block runs, ``out.first_trigger`` holds each row's
    first exerting period, T if none yet, and ``out.stop_time`` is T
    until the row stops."""

    T: int
    t0: int
    live: np.ndarray  # the rows still running
    out: LockstepResult

    @classmethod
    def start(cls, policy: PolicySpec, T: int, out: LockstepResult):
        """The state before period 0 on the rows ``out``, whose loads are
        all zero."""
        # static and always-flex exert from a fixed period; flex-sqrt-T
        # and dynamic find theirs as they run
        out.first_trigger[:] = (static_start(T, policy.a_s)
                                if policy.kind == STATIC
                                else 0 if policy.kind == ALWAYS_FLEX else T)
        out.flex_count[:] = 0
        out.stop_time[:] = T
        return cls(T, 0, np.arange(len(out.loads)), out)


def run_many(policy: PolicySpec, params: ModelParams, reps: int,
             root_seed: int, *path) -> LockstepResult:
    """Simulate ``reps`` independent horizons of one policy.  Each draw
    category c has one key, ``(root_seed, *path, c)``, drawn in tiles, and
    replication ``rep``'s draws depend only on ``rep`` and T."""
    return run_policies([policy], params, reps, root_seed, *path)[0]


def run_policies(policies, params: ModelParams, reps: int, root_seed: int,
                 *path) -> list[LockstepResult]:
    """:func:`run_many` for each of ``policies``, on one draw of the
    replications' arrivals that every policy runs on."""
    return run_blocks(policies, params.N, params.q, params.T, reps,
                      root_seed, path, draw_arrival_arrays)


def run_blocks(policies, N: int, q: float, T: int, n_rows: int,
               root_seed: int, path: tuple, draw,
               stop: int | None = None) -> list[LockstepResult]:
    """Run ``n_rows`` rows of the kernel for each of ``policies``, in
    blocks of equally many (within one) whole tiles of G = ``tile_rows(T)``
    rows: as many as fit in ``_BLOCK_ROWS`` rows and in a (rows, N + 1)
    state of ``_SLAB`` counts, one at least.  A block runs window by
    window: each window of ``TILE_PERIODS`` periods is drawn once, every
    policy steps through it, and it is dropped before the next is drawn;
    with ``stop`` set, a block's draws end once no policy has a row
    running.  Returns one result per policy.

    ``draw(N, q, T, keys, rows, cut, w, carry)`` draws window w of a
    block's rows from the Philox keys of ``(root_seed, *path, c)`` by
    category c, with the decisions of the flex-sqrt-T policies at their
    cut ``(T - t_hat)/T``, carried from window to window in ``carry``;
    the exert stream is drawn only when a policy reads it.  Flex-sqrt-T
    policies whose ``a_s`` give two cuts are refused.
    """
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    for policy in policies:
        _check_resolved(policy)
    # the flex-sqrt-T policies' per-period exertion probability
    sqrt_t = [p.a_s for p in policies if p.kind == FLEX_SQRT_T]
    cuts = {(T - static_start(T, a_s)) / T for a_s in sqrt_t}
    if len(cuts) > 1:
        raise ValueError("flex_sqrt_t policies of one run need one a_s, "
                         f"got {sqrt_t}")
    cut = cuts.pop() if cuts else None
    keys = {c: streams.stream_key(root_seed, *path, c)
            for c in (CATEGORIES if cut is not None else CATEGORIES[:-1])}
    G = tile_rows(T)
    tiles = -(-n_rows // G)
    n_blocks = -(-tiles // max(1, min(_BLOCK_ROWS, _SLAB // (N + 1)) // G))
    bounds = [min(i * tiles // n_blocks * G, n_rows)
              for i in range(n_blocks + 1)]
    # each block's states advance its rows of the results in place
    results = [_results(n_rows, N) for _ in policies]
    for lo, hi in zip(bounds, bounds[1:]):
        states = [_State.start(p, T, LockstepResult(
                      *(a[lo:hi] for a in vars(out).values())))
                  for p, out in zip(policies, results)]
        carry = None if cut is None else decision_carry(hi - lo, T)
        for w in range(-(-T // balls_bins.TILE_PERIODS)):
            window = draw(N, q, T, keys, range(lo, hi), cut, w, carry)
            for policy, state in zip(policies, states):
                if state.live.size:
                    lockstep(policy, N, q, window, stop, state)
            del window  # one window is alive at a time
            if not any(state.live.size for state in states):
                break
    return results


def _check_resolved(policy: PolicySpec) -> None:
    for name in POLICY_CONSTANTS.get(policy.kind, ()):
        if getattr(policy, name) is None:
            raise ValueError(f"{policy.kind} policy needs {name} resolved")


def lockstep(policy: PolicySpec, N: int, q: float, arrivals: ArrivalArrays,
             stop: int | None = None, state: _State | None = None
             ) -> LockstepResult:
    """Run every row of stacked (rows, periods) arrivals through one
    policy: the whole horizon, or with ``state`` the periods from
    ``state.t0`` on of a block on a horizon of ``state.T``, advancing the
    state past them.  Returns the state's rows, whose first triggers at
    or past their stop times read -1 once the rows are done: at T, or
    when none is running.

    Each period the policy decides whether to exert flexibility; an
    exerted flex arrival goes to the lesser-loaded bin of its pair, ties
    to the smaller index, and every other arrival to its preferred bin.
    With ``stop`` set, a row stops after the period in which a load first
    reaches ``stop``.  A flex-sqrt-T policy reads ``arrivals.decisions``.
    Constants must be resolved.
    """
    _check_resolved(policy)
    kind = policy.kind
    rows, span = arrivals.is_flex.shape
    if state is None:
        state = _State.start(policy, span, _results(rows, N))
    T, t0, live, out = state.T, state.t0, state.live, state.out
    loads, trigger = out.loads, out.first_trigger
    # a row exerts on the flex arrivals of one mask (flex-sqrt-T's: those
    # it decided on) from its trigger on; dynamic's is found chunk by chunk
    mask = arrivals.is_flex
    if kind == FLEX_SQRT_T:
        # the running first decision: no exerting flex arrival comes
        # before a row's first decision, so a trigger still at T until
        # then moves no event
        mask, first = arrivals.decisions
        np.minimum(trigger, first, out=trigger)

    width = max(1, min(_CHUNK, _SLAB // (N + 1) - 2))  # a row's slab fits
    for c0 in range(t0, t0 + span, width):
        c1 = min(c0 + width, t0 + span)
        t = np.arange(c0, c1)
        # views of the block until a row stops, copies of the live rows
        # after
        sel = slice(None) if live.size == rows else live
        pref, flex, pair = (a[sel, c0 - t0:c1 - t0]
                            for a in (arrivals.preferred, mask, arrivals.pair))
        carry = loads[sel]
        recheck = ends = at = None
        if kind == DYNAMIC:  # trigger at the first period the condition holds
            threshold = policy.a_d * (T - t) * q / N
            t_over_n = t / N
            fresh = np.flatnonzero(trigger[live] == T)
            if fresh.size:
                # Up to its trigger a row places every ball at preference,
                # so no load before a period of a segment exceeds the
                # segment's end loads, nor does the period come before the
                # segment's first; the condition's sides are monotone in
                # the load and t, also in floating point, so only a
                # segment that meets the bound below can hold the
                # trigger: first the whole chunk as one segment, then its
                # _SEG-period segments.
                ends = carry[fresh] + _counts(pref[fresh], N)
                near = fresh[ends.max(axis=1) - t_over_n[0] >= threshold[-1]]
                r, hit = _first_hit(carry[near], pref[near], t_over_n,
                                    threshold)
                trigger[live[near[r]]] = c0 + hit
            if not policy.latched:
                recheck = (t_over_n, threshold)
        start = trigger[live]
        # while no live row exerts, a dynamic chunk's rows are all fresh,
        # and their end loads counted
        if start.min() < c1:
            ends = None
            at = np.flatnonzero(flex if start.max() <= c0
                                else flex & (t >= start[:, None]))
        ends, flexes, ran = _place(carry, pref, at, pair, recheck, stop, ends)
        loads[sel] = ends
        out.flex_count[sel] += flexes
        if stop is not None:
            stopped = ran > 0
            out.stop_time[live[stopped]] = c0 + ran[stopped]
            live = live[~stopped]
            if not live.size:
                break
    state.t0, state.live = t0 + span, live
    if state.t0 == T or not live.size:  # the block's rows are done
        trigger[trigger >= out.stop_time] = -1
    return out


def _counts(bins, N: int):
    """(rows, N) per-bin counts of ``bins`` (rows, w); bin N counts
    nothing."""
    m = bins.shape[0]
    key = np.arange(0, m * (N + 1), N + 1)[:, None] + bins
    return np.bincount(key.ravel(), minlength=m * (N + 1)
                       ).reshape(m, N + 1)[:, :N]


def _max_loads(carry, bins):
    """Largest load after each period of a window that drops row r's ball
    t into bin ``bins[r, t]`` (N: into none) on top of ``carry`` (rows,
    N).  Only a bin that takes a ball can pass the carry's max."""
    N = carry.shape[1]
    top = np.repeat(carry.max(axis=1, keepdims=True), bins.shape[1], axis=1)
    for b in np.unique(bins[bins < N]):
        hits = (bins == b).astype(np.intp)  # a bool cumsum casts slowly
        np.maximum(top, np.cumsum(hits, axis=1) + carry[:, b, None], out=top)
    return top


def _first_hit(carry, bins, t_over_n, threshold):
    """The rows, in increasing order, and each one's first period as an
    offset in the chunk, at which the dynamic condition ``max load -
    t_over_n[t] >= threshold[t]`` holds on the loads before period t, for
    rows that drop ball t into bin ``bins[r, t]`` (rows, w) on top of
    ``carry`` (rows, N).

    One ``bincount`` gives each row's loads at the ends of the chunk's
    ``_SEG``-period segments, and a segment is open when its end max
    meets the condition at its first t/N and last threshold; no other
    segment can hold a hit.  The search then runs in passes: each pass
    steps the first open segment of every row not yet hit period by
    period, and closes the segments that hold no hit, so a pass takes
    rows x ``_SEG`` scratch and there are at most as many passes as
    segments.  Rows go in slices whose segment ends fit in ``_SLAB``
    counts, one row at least.
    """
    m, w = bins.shape
    N = carry.shape[1]
    n = -(-w // _SEG)
    step = max(1, _SLAB // (n * (N + 1)))
    if step < m:
        parts = [_first_hit(carry[i:i + step], bins[i:i + step], t_over_n,
                            threshold) for i in range(0, m, step)]
        return (np.concatenate([r + i for i, (r, _) in
                                zip(range(0, m, step), parts)]),
                np.concatenate([t for _, t in parts]))
    key = (np.arange(0, m * n * (N + 1), n * (N + 1))[:, None]
           + np.arange(w) // _SEG * (N + 1))
    key += bins
    ends = np.bincount(key.ravel(), minlength=m * n * (N + 1)
                       ).reshape(m, n, N + 1)
    del key
    np.cumsum(ends, axis=1, out=ends)  # in place: a slab is large
    ends = ends[:, :, :N]
    ends += carry[:, None]
    first = np.arange(0, w, _SEG)
    last = np.minimum(first + _SEG, w) - 1
    is_open = ends.max(axis=2) - t_over_n[first] >= threshold[last]
    hit_at = np.full(m, -1)
    r = np.flatnonzero(is_open.any(axis=1))
    while r.size:
        j = is_open[r].argmax(axis=1)  # each row's first open segment
        start = ends[r, j - 1]  # the loads before segment j
        start[j == 0] = carry[r[j == 0]]
        t = first[j, None] + np.arange(_SEG)
        inside = t < w
        t = np.minimum(t, w - 1)
        after = _max_loads(start, np.where(inside, bins[r[:, None], t], N))
        before = np.concatenate((start.max(axis=1, keepdims=True),
                                 after[:, :-1]), axis=1)
        hit = inside & (before - t_over_n[t] >= threshold[t])
        found = hit.any(axis=1)
        hit_at[r[found]] = first[j[found]] + hit[found].argmax(axis=1)
        is_open[r, j] = False
        r = r[~found & is_open[r].any(axis=1)]
    r = np.flatnonzero(hit_at >= 0)
    return r, hit_at[r]


def _place(carry, pref, at, pair, recheck=None, stop=None, ends=None):
    """Place one chunk of arrivals (rows, w) on top of ``carry`` (rows, N).

    ``at`` holds the flat positions in (rows, w) of the events, in
    increasing order, or is None when there are none; then ``ends``, if
    given, are the rows' loads at the chunk's end.  Non-events land in
    their preferred bin.  The events are stepped in lockstep across rows,
    event k of every row at once, each on its row's loads at its period:
    the per-bin counts of the non-events before it plus the events
    already placed.  An event goes to the lesser-loaded bin of its pair
    (flexset code ``pair``), ties to the smaller.  With ``recheck = (t/N,
    threshold)`` per period (the unlatched dynamic policy) an event first
    re-checks the dynamic condition on those loads and goes to its
    preferred bin when it fails.
    Rows go in slices whose slab of per-(group, row, bin) counts fits in
    ``_SLAB`` counts, one row at least.

    Returns each row's loads and flex count at the end of the chunk, or
    at its stop, and the periods a row ran before it stopped (0 for a row
    that did not stop).
    """
    m, w = pref.shape
    N = carry.shape[1]
    K = 0
    if at is not None and at.size:
        # row r's events are at[first[r]:first[r + 1]]
        first = np.searchsorted(at, np.arange(0, (m + 1) * w, w))
        n_ev = np.diff(first)
        K = int(n_ev.max())
    step = max(1, _SLAB // ((K + 2) * (N + 1)))  # rows a slab holds
    if K and step < m:
        return tuple(map(np.concatenate, zip(*(_place(
            carry[i:i + step], pref[i:i + step],
            at[first[i]:first[min(i + step, m)]] - i * w,
            pair[i:i + step], recheck, stop)
            for i in range(0, m, step)))))
    if not K:
        flexes = np.zeros(m, dtype=np.int64)
        if ends is None:
            ends = carry + _counts(pref, N)
    else:
        # Event k of row r is entry (r, k) of (m, K) arrays.  The row's
        # non-events after its event k - 1 and before its event k form its
        # part of group k, which joins the loads just before step k.
        row, col = np.divmod(at, w)
        entry = np.arange(at.size)
        opens = entry + row + 1
        entry -= first[row]  # k
        # The key (k * m + r) * (N + 1) + b of row r's non-event of group
        # k in bin b is its run's base plus b: row r's start opens a run
        # of group 0, and its event k one of group k + 1.
        heads = first[:-1] + np.arange(m)
        starts = np.empty(m + at.size, dtype=np.intp)
        starts[heads] = np.arange(0, m * w, w)
        starts[opens] = at
        base = np.empty(m + at.size, dtype=np.int64)
        base[heads] = np.arange(0, m * (N + 1), N + 1)
        base[opens] = ((entry + 1) * m + row) * (N + 1)
        # the temporaries go before the slab: at q = 1 each is as large
        # as the chunk
        del opens
        key = np.repeat(base, np.diff(starts, append=m * w))
        del starts, base
        grid = key.reshape(m, w)
        grid += pref
        key[at] = (K + 1) * m * (N + 1)  # the events are in no group
        # adds[k, r, b]: row r's non-events of group k in bin b
        adds = np.bincount(key, minlength=(K + 2) * m * (N + 1)
                           ).reshape(K + 2, m, N + 1)
        del key, grid
        entry += row * K
        full = np.zeros((m, N + 1), dtype=np.int64)  # column N: spare bin
        full[:, :N] = carry
        chosen, exerted = _step(full, adds, (row, col), entry, pref, pair,
                                recheck)
        del adds  # before the stop search allocates
        ends = full[:, :N]
        flexes = n_ev if exerted is None else exerted.sum(axis=1)

    ran = np.zeros(m, dtype=np.int64)
    if stop is None:
        return ends, flexes, ran
    s = np.flatnonzero(ends.max(axis=1) >= stop)
    if s.size:
        # a row's trajectory up to its stop is its unstopped trajectory
        placed, flexed = pref[s], np.zeros((s.size, w), dtype=bool)
        if K:
            ev = np.flatnonzero(np.isin(row, s))
            r, k = np.divmod(entry[ev], K)
            rs, ts = np.searchsorted(s, r), col[ev]
            placed[rs, ts] = chosen[r, k] % (N + 1)
            flexed[rs, ts] = True if exerted is None else exerted[r, k]
        # a stable sort by bin lists bin b's balls in period order from
        # entry cumsum(counts) - counts, counts = top - carry; its
        # (stop - carry[b])-th brings it to stop, and the row stops at the
        # first such ball
        top = ends[s]
        nth = np.cumsum(top - carry[s], axis=1) - top + (stop - 1)
        hit = np.take_along_axis(np.argsort(placed, axis=1, kind="stable"),
                                 np.where(top >= stop, nth, 0), axis=1)
        ran[s] = np.where(top >= stop, hit, w).min(axis=1) + 1
        after = np.arange(w) >= ran[s, None]
        placed[after] = N
        ends[s] = carry[s] + _counts(placed, N)
        flexes[s] = (flexed & ~after).sum(axis=1)
    return ends, flexes, ran


def _step(full, adds, at, entry, pref, pair, recheck):
    """The lockstep loop of :func:`_place` on the loads ``full``: step k
    adds group k's counts ``adds[k]`` and then places event k of every
    row, a row with fewer events placing into its spare bin, column N of
    ``full``; group K joins after the last step.  ``at`` holds the
    events' (rows, periods) in the chunk.  Returns the (rows, K) flat
    indices into ``full`` that the events chose and, with ``recheck``,
    which of them exerted."""
    m = pref.shape[0]
    N, K = full.shape[1] - 1, len(adds) - 2  # groups 0..K, the events

    def per_event(values, fill):
        out = np.full((m, K), fill, dtype=np.result_type(values, fill))
        out.reshape(-1)[entry] = values
        return np.ascontiguousarray(out.T)  # the loop reads rows of (K, m)

    row0 = np.arange(0, m * (N + 1), N + 1)
    a, b = (row0 + per_event(bins, N) for bins in flex_pair(pair[at], N))
    exerted = None
    if recheck is not None:
        tt = at[1]
        p = row0 + per_event(pref[at], N)
        t_over_n = per_event(recheck[0][tt], np.inf)
        threshold = per_event(recheck[1][tt], np.inf)
        exerted = np.empty((K, m), dtype=bool)
    flat = full.reshape(-1)
    chosen = np.empty((K, m), dtype=np.intp)
    for i in range(K):
        full += adds[i]
        ai, bi = a[i], b[i]
        c = np.where(flat[ai] <= flat[bi], ai, bi)
        if recheck is not None:
            ok = full[:, :N].max(axis=1) - t_over_n[i] >= threshold[i]
            c = np.where(ok, c, p[i])
            exerted[i] = ok
        flat[c] += 1
        chosen[i] = c
    full += adds[K]
    return chosen.T, None if exerted is None else exerted.T
