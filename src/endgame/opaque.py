"""Opaque-selling inventory model with joint replenishment.

Purchases map onto the balls-into-bins kernel: a customer buying product i
is a ball landing in bin i, so the per-product depletion x_i = S - z_i is
exactly a bin load.  A cycle ends the period any product's stock hits 0;
cycle statistics (length R, exercised discounts D) feed the renewal-reward
long-run cost

    C = K/E[R] + h/2 * (2NS + 1 - E[R^2]/E[R]) + delta * E[D]/E[R].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .balls_bins import (DYNAMIC, POLICY_KINDS, PRESET_NUMERICS, ModelParams,
                         PolicySpec, check_bins, draw_raw_arrays,
                         resolve_policy, theory_a_d)
from .bins_engine import LockstepResult, run_blocks
from .harness.config import (DEFAULT_REPLICATIONS, MODEL_DEFAULTS, ConfigError,
                             arrival_path)

REGIMES = ("delta_zero", "delta_inv_sqrt", "delta_const", "delta_sqrt")


@dataclass(frozen=True)
class InventoryParams:
    """Product count, initial stock, flex-customer mix, and cost constants."""

    N: int
    S: int
    q: float
    K: float = 0.0
    h: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        check_bins(self.N)
        if self.S < 1:
            raise ValueError(f"S must be >= 1, got {self.S}")
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {self.q}")
        if self.K < 0 or self.h < 0 or self.delta < 0:
            raise ValueError("costs must be nonnegative")

    @property
    def horizon(self) -> int:
        """Loose upper bound N(S-1)+1 on any cycle length."""
        return self.N * (self.S - 1) + 1


def resolve_opaque_policy(spec: PolicySpec, params: InventoryParams,
                          preset: str) -> PolicySpec:
    """:func:`~endgame.balls_bins.resolve_policy` on a bins horizon of
    N(S-1)+1, but with the theory preset's a_d halved and the dynamic
    policy latched: once its condition triggers, the option is offered
    every period to depletion."""
    model = ModelParams(T=params.horizon, N=params.N, q=params.q)
    if spec.a_d is None and preset != PRESET_NUMERICS:
        spec = replace(spec, a_d=theory_a_d(model) / 2)
    return replace(resolve_policy(spec, model, preset),
                   latched=spec.latched or spec.kind == DYNAMIC)


def simulate_cycles(policy: PolicySpec, params: InventoryParams,
                    n_cycles: int, root_seed: int, *path):
    """Simulate independent replenishment cycles, vectorized in lockstep:
    each is a ball run on the depletion counts x = S - z, stopped at its
    first stock-out.

    Returns (R, D) int arrays of shape (n_cycles,).  Each draw category
    has one key, (root_seed, *path, category), drawn in tiles, and a
    cycle's draws depend only on its index and the horizon, so results
    are independent of n_cycles batching.
    """
    out = simulate_policies([policy], params, n_cycles, root_seed, *path)[0]
    return out.stop_time, out.flex_count


def simulate_policies(policies, params: InventoryParams, n_cycles: int,
                      root_seed: int, *path) -> list[LockstepResult]:
    """:func:`simulate_cycles` for each of ``policies``, on one draw of
    the cycles' arrivals, with R as ``stop_time`` and D as ``flex_count``."""
    return run_blocks(policies, params.N, params.q, params.horizon,
                      n_cycles, root_seed, path, draw_raw_arrays,
                      stop=params.S)


def long_run_cost(R, D, params: InventoryParams, n_groups: int = 10) -> dict:
    """The cost row of cycle samples: the renewal-reward ``cost``, the
    ``lower_bound`` and the ``loss`` above it, the cost's standard error
    ``se``, and ``mean_R`` and ``mean_D``.

    Point estimates use pooled moments over all cycles (plug-in sample
    means for E[R], E[R^2], E[D]); ``se`` comes from batch means over
    ``n_groups`` contiguous cycle groups, and is nan below two groups.
    """
    if np.size(R) == 0:
        raise ValueError("long_run_cost needs at least one cycle")
    mean_R, mean_D = float(np.mean(R)), float(np.mean(D))
    R = np.asarray(R, dtype=float)
    D = np.asarray(D, dtype=float)

    def cost(r, d):
        """Ordering + holding + discount of the cycles along the last
        axis."""
        er = r.mean(axis=-1)
        return (params.K / er
                + params.h / 2.0 * (2 * params.N * params.S + 1
                                    - (r ** 2).mean(axis=-1) / er)
                + params.delta * d.mean(axis=-1) / er)

    n_groups = min(n_groups, R.size)
    se = float("nan")
    if n_groups >= 2:
        # np.array_split's groups: ``extra`` of size + 1, then ones of size
        size, extra = divmod(R.size, n_groups)
        cut = extra * (size + 1)
        per_group = np.concatenate([
            cost(R[a:b].reshape(-1, n), D[a:b].reshape(-1, n))
            for a, b, n in ((0, cut, size + 1), (cut, R.size, size))])
        se = per_group.std(ddof=1) / math.sqrt(n_groups)
    total, c_star = cost(R, D), lower_bound(params)
    return {"cost": total, "lower_bound": c_star, "loss": total - c_star,
            "se": float(se), "mean_R": mean_R, "mean_D": mean_D}


def lower_bound(params: InventoryParams) -> float:
    """Universal lower bound K/(N(S-1)+1) + h/2*(NS+N) on long-run cost."""
    return (params.K / params.horizon
            + params.h / 2.0 * (params.N * params.S + params.N))


def regime_delta(regime: str, N: int, S: int) -> float:
    """Opaque discount under a named scaling regime."""
    if regime == "delta_zero":
        return 0.0
    if regime == "delta_inv_sqrt":
        return 10.0 / math.sqrt(N * S)
    if regime == "delta_const":
        return 0.5
    if regime == "delta_sqrt":
        return 0.006 * math.sqrt(N * S)
    raise ValueError(f"unknown regime {regime!r}")


def eoq_params(N: int, S: int, q: float, regime: str) -> InventoryParams:
    """EOQ-consistent cost constants K = NS/2, h = 1/(NS) plus the
    regime's delta; N, S and q are checked first."""
    params = InventoryParams(N=N, S=S, q=q)
    return replace(params, K=N * S / 2.0, h=1.0 / (N * S),
                   delta=regime_delta(regime, N, S))


class Cycles(tuple):
    """One policy's cycle samples ``(R, D)``, with ``source``: the
    ``(N, q, cycle count, root seed, preset)`` they were simulated from,
    which with the kind and S fix the policy and arrivals.  K, h and delta
    are not among them, so the regimes share cycles."""

    def __new__(cls, R, D, source):
        cycles = super().__new__(cls, (R, D))
        cycles.source = source
        return cycles


_DEFAULTS = MODEL_DEFAULTS["opaque"]


def regime_sweep(regime: str, S_grid, *, N: int = _DEFAULTS["N"],
                 q: float = _DEFAULTS["q"],
                 instances: int = DEFAULT_REPLICATIONS["opaque"],
                 cycles_per_instance: int = _DEFAULTS["cycles_per_instance"],
                 root_seed: int = 0, preset: str = PRESET_NUMERICS,
                 cycle_cache: dict | None = None):
    """Tabulate C - C* per policy over a nonempty, strictly ascending S grid.

    Every policy runs on the same cycles' arrivals, those of
    ``arrival_path("opaque", ...)`` at each S.  ``cycle_cache`` maps
    (policy kind, S) -> :class:`Cycles` so the same cycle simulations can
    be shared across regimes (the dynamics do not depend on K, h, delta);
    an entry simulated from other inputs is simulated again and replaced.
    """
    if len(S_grid) == 0:
        raise ConfigError("sweep.S: needs a nonempty value list")
    if any(a >= b for a, b in zip(S_grid, S_grid[1:])):
        raise ConfigError("sweep.S: values must be ascending, each once")
    cache = {} if cycle_cache is None else cycle_cache
    n_cycles = instances * cycles_per_instance
    source = (N, q, n_cycles, root_seed, preset)
    rows = []
    for S in S_grid:
        params = eoq_params(N, S, q, regime)
        stale = [kind for kind in POLICY_KINDS
                 if getattr(cache.get((kind, S)), "source", None) != source]
        if stale:
            outs = simulate_policies(
                [resolve_opaque_policy(PolicySpec(kind=kind), params, preset)
                 for kind in stale], params, n_cycles, root_seed,
                *arrival_path("opaque", params))
            cache.update(((kind, S), Cycles(out.stop_time, out.flex_count,
                                            source))
                         for kind, out in zip(stale, outs))
        rows.extend({"regime": regime, "S": S, "policy": kind,
                     **long_run_cost(*cache[(kind, S)], params, instances)}
                    for kind in POLICY_KINDS)
    return rows
