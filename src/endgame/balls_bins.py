"""Balls-into-bins model: parameters, the five flexing policies (no-flex,
always-flex, static, dynamic, flex-sqrt-T) with their constants, and the
arrival streams.  The policy loop itself is :mod:`endgame.bins_engine`.

Loads are integer counts; the imbalance metric is the gap
``max_i loads[i] - t/N`` where ``t`` is the number of balls already placed.
The static policy flexes every flex ball from a fixed period onward; the
dynamic policy flexes whenever the gap exceeds a time-varying threshold
proportional to the expected number of flex balls remaining.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import streams
from .streams import RowStreams, keyed_generator

NO_FLEX = "no_flex"
ALWAYS_FLEX = "always_flex"
STATIC = "static"
DYNAMIC = "dynamic"
FLEX_SQRT_T = "flex_sqrt_t"

POLICY_KINDS = (NO_FLEX, ALWAYS_FLEX, STATIC, DYNAMIC, FLEX_SQRT_T)

# Named constant presets: "theory" uses the constants from the analysis,
# "numerics" the tuned values used in the numerical experiments.
PRESET_THEORY = "theory"
PRESET_NUMERICS = "numerics"

NUMERICS_A_S = 10.0
NUMERICS_A_D = 0.7


@dataclass(frozen=True)
class ModelParams:
    """Horizon length T, bin count N, flex probability q."""

    T: int
    N: int
    q: float

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {self.q}")


@dataclass(frozen=True)
class PolicySpec:
    """Flexing policy: kind plus (resolved) constants.

    ``a_s`` parameterizes the static start time T - a_s*sqrt(T log T);
    ``a_d`` the dynamic threshold a_d*(T-t)*q/N.  ``latched`` makes the
    dynamic condition sticky once triggered (the opaque-selling variant).
    """

    kind: str
    a_s: float | None = None
    a_d: float | None = None
    latched: bool = False

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        for name in ("a_s", "a_d"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be positive, got {v}")


def theory_a_s(params: ModelParams) -> float:
    return 2.0 * math.sqrt(6.0) * params.N * (params.N - 1) / params.q


def theory_a_d(params: ModelParams) -> float:
    return 1.0 / (5.0 * math.comb(params.N, 2))


def resolve_policy(spec: PolicySpec, params: ModelParams,
                   preset: str = PRESET_THEORY) -> PolicySpec:
    """Fill in missing constants from a named preset."""
    a_s, a_d = spec.a_s, spec.a_d
    if a_s is None:
        a_s = NUMERICS_A_S if preset == PRESET_NUMERICS else theory_a_s(params)
    if a_d is None:
        a_d = NUMERICS_A_D if preset == PRESET_NUMERICS else theory_a_d(params)
    return replace(spec, a_s=a_s, a_d=a_d)


def static_start(T: int, a_s: float) -> int:
    """First period index (in balls already placed) from which the static
    policy flexes on a horizon of T periods: round(T - a_s*sqrt(T ln T)),
    clamped to [0, T]."""
    raw = T - a_s * math.sqrt(T * math.log(T)) if T >= 2 else 0.0
    return int(min(max(round(raw), 0), T))


# ---------------------------------------------------------------------------
# Per-period random draws


@dataclass
class ArrivalArrays:
    """Pre-drawn per-period arrival randomness, one row per replication
    (1-D for a single replication, (rows, T) when stacked for the engine).

    The flex set is drawn directly as a uniformly random pair (lo < hi)
    of distinct bins: a uniform pair from a uniform subset of any size is
    a uniform pair of all bins, so the flex-set size has no effect.
    ``exert_u`` is a separate uniform stream consumed only by the
    flex-sqrt-T policy, so policies stay coupled on the arrival streams
    regardless of their own randomness; it is None when it was not drawn.
    An engine block (``bins_engine.run_blocks``) hands a flex-sqrt-T
    policy only its decision ``exert_u < (T - t_hat)/T`` there, as bool,
    which is all the policy reads and an eighth of the memory.
    """

    is_flex: np.ndarray   # (T,) bool
    preferred: np.ndarray  # (T,) int
    pair_lo: np.ndarray   # (T,) int
    pair_hi: np.ndarray   # (T,) int
    exert_u: np.ndarray | None = None  # (T,) float, or bool in a block

    def __len__(self) -> int:
        return len(self.is_flex)


# The arrival streams of a replication, one per draw category, in the
# order they are drawn; "exert" is read by the flex-sqrt-T policy only.
CATEGORIES = ("flex", "preferred", "flexset", "exert")


def arrival_keys(root_seed: int, path, rows=None,
                 exert: bool = True) -> dict:
    """Philox keys of the category streams ``(root_seed, *path, row,
    category)``, one (len(rows), 2) array per category, derived in one
    :func:`streams.stream_keys` call each; without ``rows``, the keys of
    the single path ``(root_seed, *path, category)``.  ``exert=False``
    leaves out the flex-sqrt-T stream."""
    return {c: streams.stream_keys(root_seed, path, c, rows)
            for c in (CATEGORIES if exert else CATEGORIES[:-1])}


def draw_raw_arrays(root_seed: int, N: int, q: float, T: int, *path,
                    exert: bool = True,
                    rng: RowStreams | None = None) -> ArrivalArrays:
    """Draw one replication's arrival randomness, one sub-stream per draw
    category, addressed by (root_seed, *path, category).  ``exert=False``
    skips the flex-sqrt-T stream; the other categories are unchanged.

    ``rng`` holds the replication's streams when their keys were derived
    with its block's (:func:`bins_engine.run_blocks`); it must be those of
    (root_seed, *path).  Without it the keys are derived here."""
    if rng is None:
        keys = arrival_keys(root_seed, path, exert=exert)
        rng = RowStreams(keyed_generator(),
                         {c: k[0] for c, k in keys.items()})
    dtype = np.int16 if N > 127 else np.int8
    is_flex = rng["flex"].random(T) < q
    if N == 1:  # degenerate test mode used by the inventory model
        preferred = np.zeros(T, dtype=dtype)
        i = np.zeros(T, dtype=dtype)
        j = np.zeros(T, dtype=dtype)
    else:
        preferred = rng["preferred"].integers(0, N, size=T, dtype=dtype)
        g_set = rng["flexset"]
        i = g_set.integers(0, N, size=T, dtype=dtype)
        j = g_set.integers(0, N - 1, size=T, dtype=dtype)
        j = j + (j >= i)
    return ArrivalArrays(
        is_flex=is_flex,
        preferred=preferred,
        pair_lo=np.minimum(i, j),
        pair_hi=np.maximum(i, j),
        exert_u=rng["exert"].random(T) if exert else None,
    )


def draw_arrival_arrays(root_seed: int, params: ModelParams, *path,
                        exert: bool = True,
                        rng: RowStreams | None = None) -> ArrivalArrays:
    return draw_raw_arrays(root_seed, params.N, params.q, params.T, *path,
                           exert=exert, rng=rng)
