"""The policy loop: one lockstep kernel for the balls-into-bins model and
the opaque-selling cycle.

Rows (replications or cycles) are stepped in lockstep across the period
axis, in equal-sized blocks sized to bound memory.  A row either runs the
whole horizon or, given a stop level S, stops at the first period in
which a load reaches S (an opaque cycle is a ball run on depletion
counts, stopped at the first stock-out).  Each row consumes its own
per-category streams, so results are independent of block size and
execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .balls_bins import (ALWAYS_FLEX, DYNAMIC, FLEX_SQRT_T, STATIC,
                         ArrivalArrays, ModelParams, PolicySpec,
                         draw_arrival_arrays, static_start)

# Target upper bound on (block rows) * T draws held in memory at once.
_BLOCK_ELEMENTS = 32_000_000


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
    out = run_blocks(
        policy, params.N, params.q, params.T, reps,
        lambda rep, exert: draw_arrival_arrays(root_seed, params, *path, rep,
                                               exert=exert))
    return BatchResult(final_gap=out.loads.max(axis=1) - params.T / params.N,
                       flex_count=out.flex_count,
                       first_trigger=out.first_trigger)


def run_blocks(policy: PolicySpec, N: int, q: float, T: int, n_rows: int,
               draw, stop: int | None = None) -> LockstepResult:
    """Run ``n_rows`` rows of the kernel in blocks of equal size (within
    one row) holding at most about ``_BLOCK_ELEMENTS`` draws.

    ``draw(row, exert)`` returns the row's T-period :class:`ArrivalArrays`;
    ``exert`` says whether the policy reads the ``exert_u`` stream.
    """
    if n_rows < 1:
        raise ValueError(f"need at least one row, got {n_rows}")
    exert = policy.kind == FLEX_SQRT_T
    n_blocks = -(-n_rows // max(1, _BLOCK_ELEMENTS // max(T, 1)))
    bounds = [i * n_rows // n_blocks for i in range(n_blocks + 1)]
    parts = [lockstep(policy, N, q, _fill_block(draw, lo, hi, exert), stop)
             for lo, hi in zip(bounds, bounds[1:])]
    return LockstepResult(*(np.concatenate([getattr(p, f.name) for p in parts])
                            for f in fields(LockstepResult)))


def _fill_block(draw, lo: int, hi: int, exert: bool) -> ArrivalArrays:
    """Rows ``lo..hi-1`` of arrivals, each drawn straight into its row of
    (rows, T) arrays allocated once per block."""
    block = None
    for i, row in enumerate(range(lo, hi)):
        arrivals = vars(draw(row, exert))
        if block is None:
            block = {name: np.empty((hi - lo,) + a.shape, a.dtype)
                     for name, a in arrivals.items() if a is not None}
        for name, dst in block.items():
            dst[i] = arrivals[name]
    return ArrivalArrays(**block)


def lockstep(policy: PolicySpec, N: int, q: float, arrivals: ArrivalArrays,
             stop: int | None = None) -> LockstepResult:
    """Step every row of stacked (rows, T) arrivals through one policy.

    Each period the policy decides whether to exert flexibility; an
    exerted flex arrival goes to the lesser-loaded bin of its pair, ties
    to the smaller index, and every other arrival to its preferred bin.
    With ``stop`` set, a row stops after the period in which a load first
    reaches ``stop``.  Constants on the policy must already be resolved.
    """
    kind = policy.kind
    if kind in (STATIC, FLEX_SQRT_T) and policy.a_s is None:
        raise ValueError(f"{kind} policy needs a_s resolved")
    if kind == DYNAMIC and policy.a_d is None:
        raise ValueError("dynamic policy needs a_d resolved")
    rows, T = arrivals.is_flex.shape
    loads = np.zeros((rows, N), dtype=np.int64)
    flat = loads.reshape(-1)
    base = np.arange(rows, dtype=np.intp) * N  # flat index of each bin 0
    flex_count = np.zeros(rows, dtype=np.int64)
    first_trigger = np.full(rows, -1, dtype=np.int64)
    stop_time = np.full(rows, T, dtype=np.int64)
    active = np.ones(rows, dtype=bool)  # rows still running
    triggered = np.zeros(rows, dtype=bool)
    t_hat = static_start(T, policy.a_s) if kind in (STATIC, FLEX_SQRT_T) else 0
    sqrt_prob = (T - t_hat) / T

    for t in range(T):
        if kind == ALWAYS_FLEX or (kind == STATIC and t >= t_hat):
            exert = active
        elif kind == FLEX_SQRT_T:
            exert = arrivals.exert_u[:, t] < sqrt_prob
        elif kind == DYNAMIC:
            threshold = policy.a_d * (T - t) * q / N
            exert = loads.max(axis=1) - t / N >= threshold
            if policy.latched:
                triggered |= exert
                exert = triggered
        else:  # no flex, or static before its start period
            exert = None
        if stop is not None and exert is not None and exert is not active:
            exert = exert & active  # stopped rows neither flex nor trigger

        # cast the current column to flat indices
        chosen = base + arrivals.preferred[:, t]
        if exert is not None:
            np.putmask(first_trigger, exert & (first_trigger < 0), t)
            flexed = exert & arrivals.is_flex[:, t]
            a = base + arrivals.pair_lo[:, t]
            b = base + arrivals.pair_hi[:, t]
            lesser = np.where(flat[a] <= flat[b], a, b)
            chosen = np.where(flexed, lesser, chosen)
            flex_count += flexed
        # one increment per row, so plain fancy indexing is safe
        if stop is None:
            flat[chosen] += 1
        else:
            placed = flat[chosen] + active  # stopped rows place nothing
            flat[chosen] = placed
            stopped = active & (placed >= stop)
            stop_time[stopped] = t + 1
            active &= ~stopped
            if not active.any():
                break

    return LockstepResult(loads=loads, flex_count=flex_count,
                          first_trigger=first_trigger, stop_time=stop_time)
