"""Balls-into-bins model: parameters, the five flexing policies (no-flex,
always-flex, static, dynamic, flex-sqrt-T) with their constants, and the
draw of a block of rows' arrivals, one window of tiles per call (stream
layout v4).  The policy loop itself is :mod:`endgame.bins_engine`, which
also keys every run's streams: a run on stream path ``path`` draws
category c from the stream keyed by ``(root_seed, *path, c)``, tile
(g, w) of rows x periods at Philox counter (0, w, g, 0).

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
from numpy.random import Generator

from .streams import tile_streams

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
# a_s = 2 sqrt(6) N (N - 1) / q and a_d = 1 / (5 C(N, 2)); "numerics" the
# tuned values used in the numerical experiments, a_s = 10 and a_d = 0.7
# whatever N, q and T.  They are meant for T <= 1e5, the horizons of
# acceptance criteria 1-5: measured at N = 5, q = 0.1, the static and
# dynamic mean final gaps grow beyond T = 1e5 under them, and under the
# theory constants the unlatched dynamic gap stays flat to T = 1e7.
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
                   preset: str) -> PolicySpec:
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
# Per-period random draws (stream layout v4)

# Periods per tile: tile (g, w) of a run covers periods [w W, (w + 1) W) of
# rows [g G, (g + 1) G), W = TILE_PERIODS and G = tile_rows(T).  These are
# layout constants: another value draws other rows.
TILE_PERIODS = 4096


def tile_rows(T: int) -> int:
    """Rows per tile on a horizon of T: at most 64, so that a tile holds
    at most 2**18 periods, and at most 2**24 // T, a layout constant
    like ``TILE_PERIODS``.  The kernel's blocks are whole tiles of rows:
    a row range drawn starts on a multiple of it."""
    return max(1, min(64, 2**24 // T))


@dataclass
class ArrivalArrays:
    """Pre-drawn per-period arrival randomness of a block of rows
    (replications or cycles) over one draw window, which
    :func:`draw_raw_arrays` draws one per call: one array per draw
    category of ``CATEGORIES``, each (rows, periods) but ``decisions``.

    The flex periods are drawn as geometric gaps, and each flex arrival's
    set directly as a uniformly random pair of distinct bins: a uniform
    pair from a uniform subset of any size is a uniform pair of all bins,
    so the flex-set size has no effect.  ``pair`` holds the pair's code in
    [0, N(N - 1)), which :func:`flex_pair` decodes; a non-flex period's
    code is 0 and never read.  ``decisions`` is the flex-sqrt-T policy's
    (events, first) at the block's cut: the (rows, periods) flex arrivals
    it exerts on, and each row's first decision period up to the window's
    end, T if it has none (see :func:`draw_raw_arrays`); None when no cut
    was drawn.
    """

    is_flex: np.ndarray    # (rows, periods) bool
    preferred: np.ndarray  # (rows, periods) int
    pair: np.ndarray       # (rows, periods) unsigned int
    decisions: tuple | None = None

    def __len__(self) -> int:
        """The periods drawn, rows x periods."""
        return self.is_flex.size


# The arrival streams of a run, one per draw category, in the order a tile
# draws them; "exert" is read by the flex-sqrt-T policy only.
CATEGORIES = ("flex", "preferred", "flexset", "exert")


def flex_pair(code, N: int):
    """The pairs (lo, hi), lo < hi, of flexset codes ``code`` in [0, N(N -
    1)): {i, j + (j >= i)} for (i, j) = divmod(code, N - 1)."""
    i, j = np.divmod(code, N - 1)
    j += j >= i
    return np.minimum(i, j), np.maximum(i, j)


def decision_carry(n: int, T: int) -> tuple:
    """The flex-sqrt-T carry of n rows before period 0 of a horizon of T,
    which :func:`draw_raw_arrays` advances window by window: each row's
    non-flex periods so far, its k and its first decision, T if none
    yet."""
    return np.zeros(n, np.int64), np.zeros(n), np.full(n, T, np.int64)


def draw_raw_arrays(N: int, q: float, T: int, keys: dict, rows: range,
                    cut: float | None, w: int,
                    carry: tuple | None) -> ArrivalArrays:
    """Draw window w, periods [wW, (w + 1)W), of the rows ``rows`` of a
    run on a horizon of T periods, category c from the Philox key
    ``keys[c]``, tile by tile.

    Tile (g, w) covers rows [gG, (g + 1)G), G = :func:`tile_rows` (T), and
    periods [wW, (w + 1)W), W = ``TILE_PERIODS``.  Its category c is drawn
    at counter (0, w, g, 0), in one call, row-major over its periods:

    - flex: the flex periods, one geometric-gap process over the tile's
      concatenated periods (:func:`_flex_periods`); no draw at q = 1;
    - preferred: one bin per period, int16 above N = 127;
    - flexset: one code in [0, N(N - 1)) per flex arrival; no draw at
      N = 2, where every code is 0, the pair (0, 1);
    - exert, drawn only with a nonzero ``cut``: per row, V (in window 0
      only), then one uniform per flex arrival.

    So row r's draws depend only on the keys, r and T.  ``rows`` must
    start on a tile boundary, a multiple of G; rows that end inside a
    tile take the tile's prefix.

    ``cut`` is the flex-sqrt-T exertion probability whose decisions the
    block keeps, None for none.  A row's flex arrival exerts when its
    uniform is below the cut c, and the policy decides on every non-flex
    period from the k-th on, k = floor(log1p(-V) / log1p(-c)), a
    Geometric(c) count.  A non-flex decision moves no ball, so the first
    decision, the policy's first trigger, has the law of the first of
    independent Bernoulli(c) decisions, and a smaller cut's decisions are
    a subset of a larger one's.  A cut of 0 never decides.  ``carry`` is
    the rows' :func:`decision_carry` before the window, which the draw
    advances in place: window w takes the carry that windows 0 to w - 1
    left; None with no cut.
    """
    dtype = np.int16 if N > 127 else np.int8
    n, G = len(rows), tile_rows(T)
    if rows.start % G:
        raise ValueError(f"rows must start on a tile boundary, a multiple "
                         f"of G = {G}, got {rows.start}")
    t0 = w * TILE_PERIODS  # the window's first period
    width = min(TILE_PERIODS, T - t0)
    shape = (n, width)
    out = ArrivalArrays(
        is_flex=np.zeros(shape, bool), preferred=np.empty(shape, dtype),
        pair=np.zeros(shape, np.min_scalar_type(N * (N - 1) - 1)),
        decisions=None if cut is None else (np.zeros(shape, bool), carry[2]))
    tiles = {c: tile_streams(key) for c, key in keys.items()}
    # the rows of a group: whole tiles, at most a full tile's 64 rows (or
    # one tile); a group's tiles are drawn one by one and placed together
    R = max(1, 64 // G) * G
    for base in range(0, n, R):  # the block row of a group's row 0
        m = min(R, n - base)
        at, codes, u = [], [], []
        for b in range(base, base + m, G):  # a tile's row 0 in the block
            g, h = (rows.start + b) // G, min(G, base + m - b)

            def stream(category):
                return tiles[category](g, w)
            tile = (np.arange(h * width) if q == 1.0 else
                    _flex_periods(q, h * width, stream("flex")))
            out.preferred[b:b + h] = stream("preferred").integers(
                0, N, size=(h, width), dtype=dtype)
            if N > 2:
                codes.append(stream("flexset").integers(
                    0, N * (N - 1), size=tile.size, dtype=out.pair.dtype))
            if cut:
                u.append(stream("exert").random(h * (w == 0) + tile.size))
            tile += (b - base) * width
            at.append(tile)
        # the group's flex arrivals, row-major: flat positions in its rows
        # of the window, row i's at at[heads[i]:heads[i + 1]]
        at = _join(at)
        heads = np.searchsorted(at, np.arange(m + 1) * width)
        out.is_flex[base:base + m].reshape(-1)[at] = True
        if N > 2:
            out.pair[base:base + m].reshape(-1)[at] = _join(codes)
        if cut:
            _decide(cut, _join(u), at, heads, width,
                    out.decisions[0][base:base + m],
                    *(a[base:base + m] for a in carry), t0, T)
    return out


def _join(parts):
    """The arrays ``parts`` end to end; one part is itself."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _decide(cut, u, at, heads, width, events, non_flex, k, first, t0, T):
    """The flex-sqrt-T decisions at ``cut`` > 0 of m rows x ``width``
    periods from ``t0`` on, whose flex arrivals are at the flat positions
    ``at``, row i's at ``at[heads[i]:heads[i + 1]]``, from the rows'
    exert uniforms ``u``: per row, V (in window 0 only) and then one per
    flex arrival.  Marks the exerting flex arrivals in ``events`` (m,
    ``width``), and lowers ``first``, the rows' first decision periods (T
    if none).  In the first window it sets each row's ``k`` from its V.
    ``non_flex``, each row's non-flex periods before the window, is
    advanced past it.
    """
    m = heads.size - 1
    if t0 == 0:
        v = u[heads[:-1] + np.arange(m)]
        u = np.delete(u, heads[:-1] + np.arange(m))
        with np.errstate(divide="ignore"):  # log1p(-1) is -inf
            k[:] = np.floor(np.log1p(-v) / np.log1p(-cut))
    exerts = at[u < cut]
    events.reshape(-1)[exerts] = True
    starts = np.arange(m) * width
    flexes = np.diff(heads)
    if (first == T).any():  # else every row decided in an earlier window
        # each row's first exerting flex arrival, as an offset in the row
        # (width or more if none)
        hits = np.append(exerts, m * width)
        flexed = hits[np.searchsorted(hits, starts)] - starts
        # the row's k-th non-flex period, if it is in this window, is the
        # tile's n-th, n = k - non_flex + the non-flex periods of earlier
        # rows: n plus the flex arrivals with at most n non-flex periods
        # before them
        j = k - non_flex
        here = (j >= 0) & (j < width - flexes)
        n = starts - heads[:-1] + np.where(here, j, 0).astype(np.int64)
        before = np.arange(at.size)
        np.subtract(at, before, out=before)
        nth = n + np.searchsorted(before, n, "right") - starts
        offset = np.minimum(flexed, np.where(here, nth, width))
        np.minimum(first, np.where(offset < width, t0 + offset, T),
                   out=first)
    non_flex += width - flexes


def _flex_periods(q: float, P: int, rng: Generator) -> np.ndarray:
    """The ascending flex periods among P: each gap to the next is
    Geometric(q) on 1, 2, ..., drawn by inversion from one uniform U of
    ``rng`` as ``floor(log1p(-U) / log1p(-q)) + 1``, in batches until the
    gaps pass P."""
    scale = np.log1p(-q)
    batch = int(q * P + 4 * math.sqrt(q * P)) + 16
    parts, last = [], -1
    while last < P - 1:
        gaps = rng.random(batch)
        np.log1p(np.negative(gaps, out=gaps), out=gaps)
        gaps /= scale
        # the gaps are >= 0, so the cast floors them
        at = np.minimum(gaps, P, out=gaps).astype(np.int64)
        at += 1
        np.cumsum(at, out=at)
        at += last
        parts.append(at)
        last = at[-1]
    at = np.concatenate(parts)
    return at[:np.searchsorted(at, P)]
