"""Scalar reference for the lockstep kernel in ``endgame.bins_engine``.

One row, one period at a time, written to be read rather than to be
fast.  The engines must agree with it bit for bit on the same arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from endgame.balls_bins import (ALWAYS_FLEX, FLEX_SQRT_T, NO_FLEX, STATIC,
                                ArrivalArrays, PolicySpec, static_start)


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
    for t in range(T):
        if policy.kind == NO_FLEX:
            exert = False
        elif policy.kind == ALWAYS_FLEX:
            exert = True
        elif policy.kind == STATIC:
            exert = t >= t_hat
        elif policy.kind == FLEX_SQRT_T:
            exert = arrivals.exert_u[t] < (T - t_hat) / T
        else:  # dynamic
            threshold = policy.a_d * (T - t) * q / N
            cond = loads.max() - t / N >= threshold
            triggered = triggered or cond
            exert = triggered if policy.latched else cond
        if exert and first_trigger is None:
            first_trigger = t
        if exert and arrivals.is_flex[t]:
            a, b = int(arrivals.pair_lo[t]), int(arrivals.pair_hi[t])
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
