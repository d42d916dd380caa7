"""Balls-into-bins model: parameters, the five flexing policies (no-flex,
always-flex, static, dynamic, flex-sqrt-T) with their constants, and the
draw of one row's arrivals from its per-category streams.  The policy
loop itself is :mod:`endgame.bins_engine`, which also keys every row's
streams: row r of a run on stream path ``path`` draws category c from
the stream keyed by ``(root_seed, *path, c)`` at Philox counter
(0, 0, r, 0).

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

from .streams import RowStreams

NO_FLEX = "no_flex"
ALWAYS_FLEX = "always_flex"
STATIC = "static"
DYNAMIC = "dynamic"
FLEX_SQRT_T = "flex_sqrt_t"

POLICY_KINDS = (NO_FLEX, ALWAYS_FLEX, STATIC, DYNAMIC, FLEX_SQRT_T)

# the constants each kind reads (no_flex and always_flex: none); one its
# kind does not read is refused wherever a policy's constants are set
POLICY_CONSTANTS = {STATIC: ("a_s",), FLEX_SQRT_T: ("a_s",),
                    DYNAMIC: ("a_d", "latched")}

# Named constant presets: "theory" uses the constants from the analysis,
# "numerics" the tuned values used in the numerical experiments.
PRESET_THEORY = "theory"
PRESET_NUMERICS = "numerics"

NUMERICS_A_S = 10.0
NUMERICS_A_D = 0.7

# most bins a model may have: a row's bins are drawn as int16
MAX_BINS = np.iinfo(np.int16).max


def check_bins(N: int) -> None:
    """Refuse a bin count outside [2, MAX_BINS], naming N."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if N > MAX_BINS:
        raise ValueError(f"N must be <= {MAX_BINS}, got {N}")


@dataclass(frozen=True)
class ModelParams:
    """Horizon length T, bin count N, flex probability q."""

    T: int
    N: int
    q: float

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        check_bins(self.N)
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
            if v is not None and not 0 <= v < math.inf:  # nan fails too
                raise ValueError(f"{name} must be a finite number >= 0, "
                                 f"got {v}")


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
    return round(min(max(raw, 0.0), T))  # clamped first: raw may be -inf


# ---------------------------------------------------------------------------
# Per-period random draws


@dataclass
class ArrivalArrays:
    """Pre-drawn per-period arrival randomness, one row per replication
    (1-D for a single replication, (rows, T) when stacked for the engine).

    The flex periods are drawn as geometric gaps, and each flex arrival's
    set directly as a uniformly random pair (lo < hi) of distinct bins: a
    uniform pair from a uniform subset of any size is a uniform pair of
    all bins, so the flex-set size has no effect.  A non-flex period's
    pair is (0, 0) and never read.  ``exert_u`` is a separate uniform
    stream consumed only by the flex-sqrt-T policy, so policies stay
    coupled on the arrival streams regardless of their own randomness; it
    is None when it was not drawn, and in a stacked block.  A drawn row
    holds K + 1 of them for its K flex arrivals: ``exert_u[0]`` is V,
    which places the row's non-flex decisions, and ``exert_u[1 + k]``
    decides flex arrival k.
    """

    is_flex: np.ndarray   # (T,) bool
    preferred: np.ndarray  # (T,) int
    pair_lo: np.ndarray   # (T,) int
    pair_hi: np.ndarray   # (T,) int
    exert_u: np.ndarray | None = None  # (K + 1,) float

    def __len__(self) -> int:
        return len(self.is_flex)


# The arrival streams of a replication, one per draw category, in the
# order they are drawn; "exert" is read by the flex-sqrt-T policy only.
CATEGORIES = ("flex", "preferred", "flexset", "exert")


def draw_raw_arrays(N: int, q: float, T: int, rng: RowStreams,
                    exert: bool = True) -> ArrivalArrays:
    """Draw one row's T periods of arrival randomness from its streams
    ``rng``, one per draw category, each from its start.  Only
    ``preferred`` takes a draw per period; the pairs and ``exert_u`` take
    one per flex arrival, and at N = 2 the pair, always (0, 1), takes
    none.  ``exert=False`` skips the flex-sqrt-T stream; the other
    categories are unchanged."""
    dtype = np.int16 if N > 127 else np.int8
    at = _flex_periods(q, T, rng)
    is_flex = np.zeros(T, dtype=bool)
    is_flex[at] = True
    preferred = rng["preferred"].integers(0, N, size=T, dtype=dtype)
    pair_lo, pair_hi = np.zeros((2, T), dtype=dtype)
    if N == 2:
        pair_hi[at] = 1
    else:
        g_set = rng["flexset"]
        i = g_set.integers(0, N, size=at.size, dtype=dtype)
        j = g_set.integers(0, N - 1, size=at.size, dtype=dtype)
        j = j + (j >= i)
        pair_lo[at] = np.minimum(i, j)
        pair_hi[at] = np.maximum(i, j)
    return ArrivalArrays(
        is_flex=is_flex, preferred=preferred, pair_lo=pair_lo,
        pair_hi=pair_hi,
        exert_u=rng["exert"].random(at.size + 1) if exert else None)


def _flex_periods(q: float, T: int, rng: RowStreams) -> np.ndarray:
    """The ascending flex periods of a horizon of T: each gap to the next
    is Geometric(q) on 1, 2, ..., drawn by inversion from one uniform U
    of the flex stream as ``floor(log1p(-U) / log1p(-q)) + 1``, in
    batches until the gaps pass T.  At q = 1 every period is one, with
    no draw."""
    if q == 1.0:
        return np.arange(T)
    rng, scale = rng["flex"], np.log1p(-q)
    batch = int(q * T + 4 * math.sqrt(q * T)) + 16
    parts, last = [], -1
    while last < T - 1:
        gaps = np.floor(np.minimum(np.log1p(-rng.random(batch)) / scale, T))
        parts.append(last + np.cumsum(gaps.astype(np.int64) + 1))
        last = parts[-1][-1]
    at = np.concatenate(parts)
    return at[:np.searchsorted(at, T)]
