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
from dataclasses import dataclass

import numpy as np

from .balls_bins import (ALWAYS_FLEX, DYNAMIC, FLEX_SQRT_T, NO_FLEX,
                         PRESET_NUMERICS, STATIC, ModelParams, PolicySpec,
                         draw_raw_arrays, theory_a_s)
from .bins_engine import run_blocks
from .harness.config import arrival_path

NUMERICS_C_S = 10.0
NUMERICS_C_D = 0.7

REGIMES = ("delta_zero", "delta_inv_sqrt", "delta_const", "delta_sqrt")

OPAQUE_POLICIES = (NO_FLEX, ALWAYS_FLEX, STATIC, DYNAMIC, FLEX_SQRT_T)


@dataclass(frozen=True)
class InventoryParams:
    """Product count, initial stock, flex-customer mix, and cost constants."""

    N: int
    S: int
    q: float
    K: float = 0.0
    h: float = 0.0
    delta: float = 0.0
    allow_single_product: bool = False  # N=1 enables closed-form test oracles

    def __post_init__(self):
        min_n = 1 if self.allow_single_product else 2
        if self.N < min_n:
            raise ValueError(f"N must be >= {min_n}, got {self.N}")
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


@dataclass
class CostEstimate:
    """Long-run average cost decomposition with batch-means standard errors."""

    total: float
    ordering: float
    holding: float
    discount: float
    se_total: float
    se_ordering: float
    se_holding: float
    se_discount: float
    n_cycles: int


def resolve_opaque_policy(spec: PolicySpec, params: InventoryParams,
                          preset: str = PRESET_NUMERICS) -> PolicySpec:
    """Fill in missing opaque-policy constants from a named preset.

    The dynamic opaque policy is latched by default: once the imbalance
    condition triggers, the option is offered every period to depletion.
    """
    a_s, a_d = spec.a_s, spec.a_d
    model = ModelParams(T=params.horizon, N=max(params.N, 2), q=params.q)
    if a_s is None:
        a_s = (NUMERICS_C_S if preset == PRESET_NUMERICS
               else theory_a_s(model))
    if a_d is None:
        a_d = (NUMERICS_C_D if preset == PRESET_NUMERICS
               else 1.0 / (10.0 * math.comb(model.N, 2)))
    latched = spec.latched if spec.kind != DYNAMIC else True
    return PolicySpec(kind=spec.kind, a_s=a_s, a_d=a_d, latched=latched)


def simulate_cycles(policy: PolicySpec, params: InventoryParams,
                    n_cycles: int, root_seed: int, *path):
    """Simulate independent replenishment cycles, vectorized in lockstep:
    each is a ball run on the depletion counts x = S - z, stopped at its
    first stock-out.

    Returns (R, D) int arrays of shape (n_cycles,).  Cycle c consumes the
    streams addressed by (*path, c), so results are independent of
    n_cycles batching.
    """
    return simulate_policies([policy], params, n_cycles, root_seed, *path)[0]


def simulate_policies(policies, params: InventoryParams, n_cycles: int,
                      root_seed: int, *path) -> list[tuple]:
    """:func:`simulate_cycles` for each of ``policies``, on one draw of
    the cycles' arrivals that every policy runs on."""
    N, q, T = params.N, params.q, params.horizon
    outs = run_blocks(
        policies, N, q, T, n_cycles,
        lambda c, exert, rng: draw_raw_arrays(root_seed, N, q, T, *path, c,
                                              exert=exert, rng=rng),
        stop=params.S, keyed=(root_seed, path))
    return [(out.stop_time, out.flex_count) for out in outs]


def long_run_cost(R, D, params: InventoryParams,
                  n_groups: int = 10) -> CostEstimate:
    """Renewal-reward cost from cycle samples.

    Point estimates use pooled moments over all cycles (plug-in sample
    means for E[R], E[R^2], E[D]); standard errors come from batch means
    over ``n_groups`` contiguous cycle groups.
    """
    R = np.asarray(R, dtype=float)
    D = np.asarray(D, dtype=float)
    if R.size == 0:
        raise ValueError("long_run_cost needs at least one cycle")

    def terms(r, d):
        er = r.mean()
        er2 = (r ** 2).mean()
        ed = d.mean()
        ordering = params.K / er
        holding = params.h / 2.0 * (2 * params.N * params.S + 1 - er2 / er)
        discount = params.delta * ed / er
        return ordering, holding, discount

    ordering, holding, discount = terms(R, D)
    n_groups = min(n_groups, R.size)
    if n_groups >= 2:
        splits_r = np.array_split(R, n_groups)
        splits_d = np.array_split(D, n_groups)
        per_group = np.array([terms(r, d) for r, d in
                              zip(splits_r, splits_d)])
        ses = per_group.std(axis=0, ddof=1) / math.sqrt(n_groups)
        se_total = (per_group.sum(axis=1).std(ddof=1)
                    / math.sqrt(n_groups))
    else:
        ses = np.full(3, np.nan)
        se_total = float("nan")
    return CostEstimate(
        total=ordering + holding + discount,
        ordering=ordering, holding=holding, discount=discount,
        se_total=float(se_total), se_ordering=float(ses[0]),
        se_holding=float(ses[1]), se_discount=float(ses[2]),
        n_cycles=int(R.size),
    )


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


def eoq_params(N: int, S: int, q: float, regime: str,
               allow_single_product: bool = False) -> InventoryParams:
    """EOQ-consistent cost constants K = NS/2, h = 1/(NS) plus the
    regime's delta."""
    return InventoryParams(N=N, S=S, q=q,
                           K=N * S / 2.0, h=1.0 / (N * S),
                           delta=regime_delta(regime, N, S),
                           allow_single_product=allow_single_product)


def regime_sweep(regime: str, S_grid, *, N: int = 5, q: float = 0.1,
                 instances: int = 10,
                 cycles_per_instance: int = 10, root_seed: int = 0,
                 preset: str = PRESET_NUMERICS, policies=OPAQUE_POLICIES,
                 cycle_cache: dict | None = None):
    """Tabulate C - C* for each policy over an ascending S grid.

    Every policy runs on the same cycles' arrivals, those of
    ``arrival_path("opaque", ...)`` at each S.  ``cycle_cache`` maps
    (policy kind, S) -> (R, D) arrays so the same cycle simulations can
    be shared across regimes (the dynamics do not depend on K, h, delta).
    """
    if list(S_grid) != sorted(S_grid):
        raise ValueError("S_grid must be ascending")
    cache = {} if cycle_cache is None else cycle_cache
    rows = []
    for S in S_grid:
        params = eoq_params(N, S, q, regime)
        c_star = lower_bound(params)
        missing = [kind for kind in policies if (kind, S) not in cache]
        if missing:
            specs = [resolve_opaque_policy(PolicySpec(kind=kind), params,
                                           preset) for kind in missing]
            cycles = simulate_policies(
                specs, params, instances * cycles_per_instance, root_seed,
                *arrival_path("opaque", params))
            cache.update(((kind, S), out)
                         for kind, out in zip(missing, cycles))
        for kind in policies:
            R, D = cache[(kind, S)]
            est = long_run_cost(R, D, params, n_groups=instances)
            rows.append({
                "regime": regime, "S": S, "policy": kind,
                "cost": est.total, "lower_bound": c_star,
                "loss": est.total - c_star, "se": est.se_total,
                "mean_R": float(np.mean(R)), "mean_D": float(np.mean(D)),
            })
    return rows
