import dataclasses
import math
import pathlib
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom

import oracle
from endgame import balls_bins as bb
from endgame import bins_engine as be
from endgame import opaque, streams


def injected(preferred, is_flex=None, pair_lo=0, pair_hi=1, exert_u=0.0,
             N=None):
    """One row of hand-written arrivals of N bins; scalars broadcast over
    periods, and ``exert_u`` over V and the flex arrivals.  N may be left
    out when every pair is (0, 1), whose code is 0 at any N."""
    preferred = np.asarray(preferred, dtype=np.int8)
    T = len(preferred)
    is_flex = np.zeros(T, dtype=bool) if is_flex is None else is_flex
    is_flex = np.broadcast_to(np.asarray(is_flex, dtype=bool), T)
    if N is None:
        assert not np.any(pair_lo) and np.all(np.equal(pair_hi, 1))
        N = 2
    code = oracle.flex_code(np.asarray(pair_lo, np.int64),
                            np.asarray(pair_hi, np.int64), N)
    return oracle.Row(
        is_flex=is_flex,
        preferred=preferred,
        pair=np.broadcast_to(code.astype(np.uint16), T),
        exert_u=np.broadcast_to(np.asarray(exert_u, dtype=float),
                                is_flex.sum() + 1))


def kernel_rows(spec, N, q, rows, stop=None):
    """The kernel on a block of rows, each checked against the oracle;
    the oracle's records."""
    out = be.lockstep(spec, N, q, oracle.stack_arrivals(rows, spec), stop)
    refs = [oracle.run(spec, N, q, arrivals, stop) for arrivals in rows]
    for r, ref in enumerate(refs):
        assert np.array_equal(out.loads[r], ref.loads)
        assert out.flex_count[r] == ref.flex_count
        assert out.first_trigger[r] == (-1 if ref.first_trigger is None
                                        else ref.first_trigger)
        assert out.stop_time[r] == ref.stop_time
    return refs


def kernel_row(spec, N, q, arrivals, stop=None):
    """The kernel on one injected row, checked against the oracle."""
    return kernel_rows(spec, N, q, [arrivals], stop)[0]


# ---------------------------------------------------------------------------
# arrival streams and hand-worked kernel cases


def test_gap_examples():
    def final_gap(N, preferred):
        spec = bb.PolicySpec(kind=bb.NO_FLEX)
        return kernel_row(spec, N, 1.0, injected(preferred)).final_gap

    assert final_gap(3, [0, 1, 2, 2, 1, 0]) == 0
    assert final_gap(3, [0, 0, 0, 1, 2, 2]) == 1
    assert final_gap(2, [0] * 4 + [1, 0]) == 2


def test_draw_arrival_degenerate_flex():
    arr = oracle.draw(0, 2, 1.0, 50, "draws")
    assert arr.is_flex.all()
    # at N = 2 every code is 0, the pair (0, 1)
    assert not arr.pair.any()
    assert [a.tolist() for a in bb.flex_pair(arr.pair, 2)] == [[0] * 50,
                                                                [1] * 50]


@pytest.mark.parametrize("N", [2, 3, 5, 17, 200])
def test_flex_pair_decodes_every_code_as_the_oracle(N):
    """Each pair (lo, hi) of distinct bins has two codes, (lo, hi - 1) and
    (hi, lo) by divmod(code, N - 1), and ``oracle.flex_code`` gives the
    first back."""
    codes = np.arange(N * (N - 1), dtype=np.min_scalar_type(N * (N - 1) - 1))
    lo, hi = bb.flex_pair(codes, N)
    want = []
    for code in range(N * (N - 1)):
        i, j = divmod(code, N - 1)
        j += j >= i
        want.append((min(i, j), max(i, j)))
    assert list(zip(lo.tolist(), hi.tolist())) == want
    assert sorted(want) == sorted(
        [(a, b) for a in range(N) for b in range(a + 1, N)] * 2)
    code = oracle.flex_code(lo.astype(np.int64), hi.astype(np.int64), N)
    assert [a.tolist() for a in bb.flex_pair(code, N)] == [lo.tolist(),
                                                           hi.tolist()]


def test_draw_arrival_flex_fraction():
    arr = oracle.draw(0, 5, 0.1, 10**6, "fraction")
    assert abs(arr.is_flex.mean() - 0.1) < 0.002


def test_arrival_invariants():
    arr = oracle.draw(3, 5, 0.3, 10**4, "invariants")
    assert arr.preferred.dtype == np.int8
    assert arr.preferred.min() >= 0 and arr.preferred.max() < 5
    flex = arr.is_flex
    assert arr.pair.dtype == np.uint8 and (arr.pair[flex] < 20).all()
    lo, hi = bb.flex_pair(arr.pair[flex], 5)
    assert (0 <= lo).all() and (lo < hi).all() and (hi < 5).all()
    # a non-flex period's code is 0
    assert not arr.pair[~flex].any()
    assert len(arr.exert_u) == flex.sum() + 1
    # the exert stream is drawn on its own, so skipping it changes nothing
    lean = oracle.draw(3, 5, 0.3, 10**4, "invariants", exert=False)
    assert lean.exert_u is None
    for name in oracle.ARRAYS:
        assert np.array_equal(getattr(lean, name), getattr(arr, name))


def whole_block(N, q, T, keys, rows, cut=None):
    """The windows of ``rows`` that ``run_blocks`` draws, joined along
    periods: the block over the whole horizon, its flex-sqrt-T decisions
    carried from window to window in one carry."""
    carry = None if cut is None else bb.decision_carry(len(rows), T)
    windows = [bb.draw_raw_arrays(N, q, T, keys, rows, cut, w, carry)
               for w in range(-(-T // bb.TILE_PERIODS))]
    return bb.ArrivalArrays(
        *(np.concatenate([getattr(a, name) for a in windows], axis=1)
          for name in oracle.ARRAYS),
        None if cut is None else (np.concatenate(
            [a.decisions[0] for a in windows], axis=1), carry[2]))


def drawn(N, q, T, seed, rows=range(1), categories=bb.CATEGORIES,
          cut=None):
    """The block of ``rows`` drawn by the kernel's draw from the streams
    ``(seed, "law", c)`` of ``categories`` only."""
    keys = {c: streams.stream_key(seed, "law", c) for c in categories}
    return whole_block(N, q, T, keys, rows, cut)


def test_flex_fraction_and_mean_gap():
    q, T = 0.1, 10**6
    at = np.flatnonzero(drawn(5, q, T, 1).is_flex)
    assert abs(at.size / T - q) < 5 * math.sqrt(q * (1 - q) / T)
    # gaps from period -1 to each flex period are Geometric(q) on 1, 2, ...
    gaps = np.diff(at, prepend=-1)
    se = math.sqrt((1 - q) / q**2 / gaps.size)
    assert abs(gaps.mean() - 1 / q) < 5 * se


def test_flex_sqrt_t_first_trigger_is_geometric():
    """The first decision falls on a flex or a non-flex period, and is
    Geometric(cut) on 0, 1, ... either way."""
    p = bb.ModelParams(T=2000, N=3, q=0.3)
    spec = bb.PolicySpec(kind=bb.FLEX_SQRT_T, a_s=0.8)
    cut = (p.T - bb.static_start(p.T, spec.a_s)) / p.T
    assert 0.03 < cut < 0.07 and (1 - cut) ** p.T < 1e-20
    trigger = be.run_many(spec, p, 2000, 4, "geometric").first_trigger
    mean, var = (1 - cut) / cut, (1 - cut) / cut**2
    assert abs(trigger.mean() - mean) < 5 * math.sqrt(var / trigger.size)


def test_smaller_cut_decisions_are_a_subset():
    """One draw per cut over the same keys: each equals the oracle's, and
    a smaller cut's decisions are a subset of a larger one's."""
    cuts = [0.0, 0.001, 0.02, 0.3, 0.3000001, 0.9, 1.0]
    blocks = [drawn(4, 0.2, 500, 2, range(20), cut=cut) for cut in cuts]
    for row in range(20):
        arr = oracle.draw(2, 4, 0.2, 500, "law", row=row)
        made, firsts = [], []
        for cut, block in zip(cuts, blocks):
            for name in oracle.ARRAYS:
                assert np.array_equal(getattr(block, name)[row],
                                      getattr(arr, name))
            events, first = (d[row] for d in block.decisions)
            ref = oracle.decisions(arr, cut)
            # the flex arrivals' decisions, and the first of all of them
            assert np.array_equal(events, ref & arr.is_flex)
            assert first == (ref.argmax() if ref.any() else len(arr))
            made.append(ref)
            firsts.append(first)
        assert not made[0].any() and made[-1].all()
        assert firsts[0] == len(arr) and firsts[-1] == 0
        for smaller, larger in zip(made, made[1:]):
            assert not (smaller & ~larger).any()
        assert firsts == sorted(firsts, reverse=True)


def test_two_bins_pair_is_fixed_and_q1_flexes_every_period():
    # no draw from the flexset stream at N = 2, none from flex at q = 1
    arr = drawn(2, 0.4, 10**4, 3,
                categories=("flex", "preferred", "exert"), cut=1.0)
    assert 0.3 < arr.is_flex.mean() < 0.5
    assert not arr.pair.any()  # every code 0, the pair (0, 1)
    arr = drawn(3, 1.0, 10**4, 3,
                categories=("preferred", "flexset", "exert"), cut=1.0)
    assert arr.is_flex.all() and arr.decisions[0].all()


# ---------------------------------------------------------------------------
# stream layout v4: tiles of rows x periods


def test_tile_layout_constants():
    """Another W or G draws other rows: both are part of the layout."""
    assert bb.TILE_PERIODS == 4096
    assert [bb.tile_rows(T) for T in (1, 2**18, 2**19, 2**24, 2**25)] == [
        64, 64, 32, 1, 1]


# three windows, the last one partial
WINDOWS_T = 2 * bb.TILE_PERIODS + 100


def kernel_inputs(monkeypatch, spec, N, q, T, n_rows, seed):
    """The arrays and flex-sqrt-T decisions that ``run_blocks`` draws for
    ``n_rows`` rows of ``spec``, window by window, its windows and blocks
    joined; the kernel itself does not run.  Each block draws its windows
    once each, in order, and a draw holds its block's rows x at most W
    periods."""
    W = bb.TILE_PERIODS
    blocks = {}  # rows -> the block's windows in order

    def recording(*args):
        rows, w = args[4], args[6]
        out = bb.draw_raw_arrays(*args)
        windows = blocks.setdefault(rows, [])
        assert w == len(windows)
        assert out.is_flex.shape == (len(rows), min(W, T - w * W))
        windows.append(([getattr(out, name).copy()
                         for name in oracle.ARRAYS],
                        None if out.decisions is None
                        else [d.copy() for d in out.decisions]))
        return out

    with monkeypatch.context() as mp:
        mp.setattr(be, "lockstep", lambda *args: None)
        be.run_blocks([spec], N, q, T, n_rows, seed, ("tiles",), recording)
    joined = []
    for windows in blocks.values():
        assert len(windows) == -(-T // W)
        arrays = [np.concatenate(part, axis=1)
                  for part in zip(*(arr for arr, _ in windows))]
        # the first decisions after the last window are the row's
        made = (None if windows[0][1] is None else
                [np.concatenate([d[0] for _, d in windows], axis=1),
                 windows[-1][1][1]])
        joined.append((arrays, made))
    arrays = [np.concatenate(part) for part in zip(*(b[0] for b in joined))]
    decisions = (None if joined[0][1] is None else
                 [np.concatenate(part) for part in zip(*(b[1]
                                                         for b in joined))])
    return arrays, decisions


@pytest.mark.parametrize("exert", [False, True], ids=["lean", "exert"])
@pytest.mark.parametrize("q", [0.3, 1.0])
@pytest.mark.parametrize("N", [2, 5, 200])
def test_rows_draw_alike_at_any_row_count_and_block_size(monkeypatch, N, q,
                                                         exert):
    """Row r's arrays and flex-sqrt-T decisions depend on r and T only:
    not on a row count that ends inside a tile, nor on the block size, in
    one block or in blocks of one tile.  The horizon spans three windows,
    and the cut is small enough that first decisions fall past the
    first; rows of tiles 0 and 1 equal the oracle's."""
    T = WINDOWS_T
    G = bb.tile_rows(T)
    spec = bb.PolicySpec(kind=bb.FLEX_SQRT_T if exert else bb.STATIC,
                         a_s=0.006)
    cut = (T - bb.static_start(T, spec.a_s)) / T
    whole, made = kernel_inputs(monkeypatch, spec, N, q, T, 3 * G, 7)
    if exert:
        assert {0, 1} <= set(made[1][made[1] < T] // bb.TILE_PERIODS)
    for block_rows in (be._BLOCK_ROWS, G):
        monkeypatch.setattr(be, "_BLOCK_ROWS", block_rows)
        for n_rows in (1, G - 1, G, G + 1, 3 * G):
            arrays, decisions = kernel_inputs(monkeypatch, spec, N, q, T,
                                              n_rows, 7)
            for got, want in zip(arrays, whole):
                assert np.array_equal(got, want[:n_rows])
            if not exert:
                assert decisions is None
                continue
            for got, want in zip(decisions, made):
                assert np.array_equal(got, want[:n_rows])
    for row in (0, G + 1):
        arr = oracle.draw(7, N, q, T, "tiles", row=row, exert=exert)
        for got, name in zip(whole, oracle.ARRAYS):
            assert np.array_equal(got[row], getattr(arr, name)), name
        if exert:
            ref = oracle.decisions(arr, cut)
            assert np.array_equal(made[0][row], ref & arr.is_flex)
            assert made[1][row] == (ref.argmax() if ref.any() else T)


@pytest.mark.parametrize("q", [0.3, 1.0])
@pytest.mark.parametrize("N", [2, 5, 200])
def test_rows_match_the_oracle_over_narrow_windows(monkeypatch, N, q):
    """With 50-period windows, every row of three tiles of rows and its
    flex-sqrt-T decisions equal the oracle's, and the first decisions
    fall in each of the three windows, in one block and in blocks of
    one tile."""
    monkeypatch.setattr(bb, "TILE_PERIODS", 50)
    T = 143
    G = bb.tile_rows(T)
    spec = bb.PolicySpec(kind=bb.FLEX_SQRT_T, a_s=0.1)
    cut = (T - bb.static_start(T, spec.a_s)) / T
    rows = [oracle.draw(7, N, q, T, "tiles", row=row)
            for row in range(3 * G)]
    refs = [oracle.decisions(arr, cut) for arr in rows]
    for block_rows in (be._BLOCK_ROWS, G):
        monkeypatch.setattr(be, "_BLOCK_ROWS", block_rows)
        arrays, made = kernel_inputs(monkeypatch, spec, N, q, T, 3 * G, 7)
        assert set(made[1][made[1] < T] // 50) == {0, 1, 2}
        for row, (arr, ref) in enumerate(zip(rows, refs)):
            for got, name in zip(arrays, oracle.ARRAYS):
                assert np.array_equal(got[row], getattr(arr, name)), name
            assert np.array_equal(made[0][row], ref & arr.is_flex)
            assert made[1][row] == (ref.argmax() if ref.any() else T)


@pytest.mark.parametrize("q", [0.3, 1.0])
def test_short_tiles_are_drawn_in_groups_alike(q):
    """At T = 2**19 a tile holds 32 rows, and the draw places the rows of
    two tiles together: windows 0 and 1 of 64 rows equal those of each
    tile drawn alone, and row 33's equal the oracle's, its flex-sqrt-T
    decisions included; first decisions fall in both windows."""
    T, N, cut = 2**19, 5, 2e-4
    W = bb.TILE_PERIODS
    assert bb.tile_rows(T) == 32
    keys = {c: streams.stream_key(7, "groups", c) for c in bb.CATEGORIES}

    def windows(rows):
        carry = bb.decision_carry(len(rows), T)
        out = [bb.draw_raw_arrays(N, q, T, keys, rows, cut, w, carry)
               for w in (0, 1)]
        return [np.concatenate([getattr(o, name) for o in out], axis=1)
                for name in oracle.ARRAYS] + [
            np.concatenate([o.decisions[0] for o in out], axis=1), carry[2]]

    together = windows(range(64))
    apart = zip(windows(range(32)), windows(range(32, 64)))
    for got, parts in zip(together, apart):
        assert np.array_equal(got, np.concatenate(parts))
    arr = oracle.draw(7, N, q, T, "groups", row=33)
    for got, name in zip(together, oracle.ARRAYS):
        assert np.array_equal(got[33], getattr(arr, name)[:2 * W]), name
    ref = oracle.decisions(arr, cut)
    assert np.array_equal(together[3][33], (ref & arr.is_flex)[:2 * W])
    first = ref.argmax() if ref.any() else T
    assert together[4][33] == (first if first < 2 * W else T)
    firsts = together[4]
    assert set(firsts[firsts < T] // W) == {0, 1}


def test_block_draw_memory_is_its_arrays_and_one_tile():
    """A block's window draw holds its own arrays and one tile's
    temporaries: at q = 1 and N = 200 (a flex arrival with a uint16 code
    every period), the three windows of blocks of 2 and 5 tiles of rows
    peak equally far above their own arrays, about 10 MB."""
    keys = {c: streams.stream_key(4, "memory", c) for c in bb.CATEGORIES}
    G = bb.tile_rows(WINDOWS_T)
    over = []
    for n in (2 * G, 5 * G):
        carry = bb.decision_carry(n, WINDOWS_T)
        worst = 0
        for w in range(3):
            tracemalloc.start()
            try:
                window = bb.draw_raw_arrays(200, 1.0, WINDOWS_T, keys,
                                            range(n), 0.5, w, carry)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            own = sum(a.nbytes for a in (window.is_flex, window.preferred,
                                         window.pair, window.decisions[0]))
            worst = max(worst, peak - own)
            del window
        over.append(worst)
    assert max(over) < 24 * 2**20, [f"{o / 2**20:.1f} MB" for o in over]
    assert over[1] < over[0] + 2**20


def test_model_params_validation():
    with pytest.raises(ValueError):
        bb.ModelParams(T=0, N=2, q=0.5)
    with pytest.raises(ValueError):
        bb.ModelParams(T=10, N=1, q=0.5)
    with pytest.raises(ValueError):
        bb.ModelParams(T=10, N=2, q=0.0)
    with pytest.raises(TypeError):  # the flex-set size is not a parameter
        bb.ModelParams(T=10, N=3, q=0.5, r=2)


def test_policy_spec_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="kind 'bogus'"):
        bb.PolicySpec(kind="bogus")


def test_run_blocks_refuses_no_rows():
    with pytest.raises(ValueError, match="n_rows must be >= 1, got 0"):
        be.run_blocks([bb.PolicySpec(kind=bb.NO_FLEX)], 3, 0.5, 10, 0, 0,
                      ("none",), bb.draw_raw_arrays)


@pytest.mark.parametrize("kind,name", [(bb.STATIC, "a_s"),
                                       (bb.FLEX_SQRT_T, "a_s"),
                                       (bb.DYNAMIC, "a_d")])
def test_unresolved_constants_are_refused_before_any_draw(kind, name):
    """A constant its kind reads must be resolved: ``lockstep`` refuses
    it, and ``run_blocks`` does so before it draws."""
    spec = bb.PolicySpec(kind=kind)
    draws = []

    def counting(*args):
        draws.append(args)
        return bb.draw_raw_arrays(*args)
    with pytest.raises(ValueError, match=f"{kind} policy needs {name}"):
        be.run_blocks([spec], 3, 0.5, 10, 2, 0, ("unresolved",), counting)
    assert draws == []
    with pytest.raises(ValueError, match=f"{kind} policy needs {name}"):
        be.lockstep(spec, 3, 0.5, drawn(3, 0.5, 10, 0))


def test_choose_flex_pair_uniform():
    arr = oracle.draw(0, 3, 1.0, 3 * 10**5, "pair-uniform")
    pairs, counts = np.unique(np.stack(bb.flex_pair(arr.pair, 3)), axis=1,
                              return_counts=True)
    assert [tuple(p) for p in pairs.T] == [(0, 1), (0, 2), (1, 2)]
    for c in counts:
        assert abs(c / len(arr) - 1 / 3) < 0.01


def test_allocate_argmin_and_ties():
    spec = bb.PolicySpec(kind=bb.ALWAYS_FLEX)
    flex_last = [False] * 6 + [True]
    # loads [0, 4, 2, 0] before the flex arrival on pair (1, 2)
    rec = kernel_row(spec, 4, 1.0, injected([1, 1, 1, 1, 2, 2, 0], flex_last,
                                            pair_lo=1, pair_hi=2, N=4))
    assert list(rec.loads) == [0, 4, 3, 0]
    # loads [0, 3, 3, 0]: the tie goes to the smaller index
    rec = kernel_row(spec, 4, 1.0, injected([1, 1, 1, 2, 2, 2, 0], flex_last,
                                            pair_lo=1, pair_hi=2, N=4))
    assert list(rec.loads) == [0, 4, 3, 0]
    # exerting on a non-flex arrival falls through to preferred
    rec = kernel_row(spec, 4, 1.0, injected([1, 1, 1, 2, 2, 2, 0],
                                            pair_lo=1, pair_hi=2, N=4))
    assert list(rec.loads) == [1, 3, 3, 0] and rec.flex_count == 0
    # without exertion a flex arrival goes to preferred
    rec = kernel_row(bb.PolicySpec(kind=bb.NO_FLEX), 4, 1.0,
                     injected([1, 1, 1, 2, 2, 2, 1], flex_last, 1, 2, N=4))
    assert list(rec.loads) == [0, 4, 3, 0] and rec.flex_count == 0


def test_static_start_examples():
    p = bb.ModelParams(T=10000, N=2, q=1.0)
    assert abs(bb.theory_a_s(p) - 4 * math.sqrt(6)) < 1e-12
    assert bb.static_start(10000, 9.798) == 7026
    assert bb.static_start(10, 100.0) == 0
    rec = kernel_row(bb.PolicySpec(kind=bb.STATIC, a_s=1.0), 2, 1.0,
                     injected([0, 1] * 50, True))
    assert rec.first_trigger == bb.static_start(100, 1.0) == 79


@pytest.mark.parametrize("name,value", [
    ("a_s", math.inf), ("a_s", math.nan), ("a_s", -1.0), ("a_d", math.inf),
    ("a_d", -math.inf), ("a_d", math.nan)])
def test_policy_spec_refuses_constants_not_finite_and_nonnegative(name,
                                                                 value):
    with pytest.raises(ValueError,
                       match=f"^{name} must be a finite number >= 0"):
        bb.PolicySpec(kind=bb.FLEX_SQRT_T, **{name: value})


def test_static_start_clamps_a_huge_constant():
    # T - a_s*sqrt(T ln T) overflows to -inf; the start is period 0
    assert bb.static_start(100, 1e308) == 0
    assert bb.static_start(100, 0.0) == 100


def test_dynamic_should_flex_examples():
    p = bb.ModelParams(T=100, N=2, q=1.0)
    assert abs(bb.theory_a_d(p) - 0.2) < 1e-12
    spec = bb.PolicySpec(kind=bb.DYNAMIC, a_d=0.2)
    # 88 alternating balls, then two to bin 0: at t=90 the loads are
    # [46, 44], so the gap 1.0 meets the threshold 0.2*10*1/2 = 1.0
    preferred = [0, 1] * 44 + [0] * 12
    flex = [False] * 90 + [True] * 10
    assert 46 - 90 / 2 == 0.2 * (100 - 90) * 1.0 / 2
    assert kernel_row(spec, 2, 1.0, injected(preferred, flex)
                      ).first_trigger == 90
    # loads [45, 45] at t=90: gap 0 stays below the threshold
    preferred = [0, 1] * 45 + [0] * 10
    assert kernel_row(spec, 2, 1.0, injected(preferred, flex)
                      ).first_trigger > 90
    # threshold 0: the empty loads' gap 0 meets it at t = 0
    rec = kernel_row(bb.PolicySpec(kind=bb.DYNAMIC, a_d=0.0), 2, 1.0,
                     injected([0, 1] * 5))
    assert rec.first_trigger == 0


# With 10-period chunks of 4-period segments, the periods that open or
# close a segment, and those of each chunk's last, 2-period segment.
EDGES = (0, 3, 4, 7, 8, 9, 10, 13, 14, 18, 19)


@pytest.mark.parametrize("p", EDGES)
def test_stop_on_segment_edges(monkeypatch, p):
    """Every ball prefers bin 0, so the row stops in period ``p`` at
    ``stop = p + 1``; flexing on pair (0, 1) from period 0 halves that."""
    monkeypatch.setattr(be, "_CHUNK", 10)
    monkeypatch.setattr(be, "_SEG", 4)
    rec = kernel_row(bb.PolicySpec(kind=bb.NO_FLEX), 2, 1.0,
                     injected([0] * 24), stop=p + 1)
    assert rec.stop_time == p + 1
    flex = injected([0] * 48, True)
    rec = kernel_row(bb.PolicySpec(kind=bb.ALWAYS_FLEX), 2, 1.0, flex,
                     stop=p // 2 + 1)
    assert rec.stop_time == 2 * (p // 2) + 1


# Rows that enter their second 7-period chunk with bins 0 and 1 at stop - 1
# = 3, bin 2 at 1: the stop is whichever of the two takes a ball first.
TWO_AT_STOP = [
    # bin 1 on the chunk's first period; bin 0 reaches 4 later in it
    ([1, 0, 0, 2, 3, 4, 2], [], {bb.NO_FLEX: 8, bb.ALWAYS_FLEX: 8}),
    # bin 0 in a middle period, by an exerted flex arrival on (0, 1) that
    # prefers bin 4; bin 1 after it
    ([2, 3, 3, 4, 0, 1, 2], [(10, 0, 1)],
     {bb.NO_FLEX: 12, bb.ALWAYS_FLEX: 11}),
    # bin 1 on the chunk's last period, once an exerted flex arrival on
    # (0, 4) has kept a ball from bin 0
    ([2, 3, 0, 3, 4, 2, 1], [(9, 0, 4)],
     {bb.NO_FLEX: 10, bb.ALWAYS_FLEX: 14}),
    # neither: bin 0 on the next chunk's second period
    ([2, 3, 4, 3, 4, 2, 3, 4, 0], [], {bb.NO_FLEX: 16, bb.ALWAYS_FLEX: 16}),
]


@pytest.mark.parametrize("kind", [bb.NO_FLEX, bb.ALWAYS_FLEX])
def test_stop_between_two_bins_at_stop_minus_one(monkeypatch, kind):
    monkeypatch.setattr(be, "_CHUNK", 7)
    T = 21
    rows = []
    for tail, flex, _ in TWO_AT_STOP:
        pref = np.zeros(T, dtype=np.int8)
        pref[:7 + len(tail)] = [0, 0, 0, 1, 1, 1, 2] + tail
        is_flex = np.zeros(T, dtype=bool)
        lo, hi = np.zeros(T, dtype=np.int8), np.ones(T, dtype=np.int8)
        for t, a, b in flex:
            is_flex[t], lo[t], hi[t] = True, a, b
        rows.append(injected(pref, is_flex, lo, hi, N=5))
    refs = kernel_rows(bb.PolicySpec(kind=kind), 5, 1.0, rows, stop=4)
    assert [ref.stop_time for ref in refs] == [
        stops[kind] for _, _, stops in TWO_AT_STOP]


@pytest.mark.parametrize("latched", [False, True])
@pytest.mark.parametrize("p", EDGES[1:])
def test_dynamic_trigger_on_segment_edges(monkeypatch, p, latched):
    """Every ball prefers bin 0, so the gap before period t is t/2 and the
    threshold at a_d = 1/4, N = 2, q = 1 is (T - t)/8, both exact: the
    condition first holds at t = T/5 = p.  A stop after the trigger
    runs the stop search on the flexed loads too."""
    monkeypatch.setattr(be, "_CHUNK", 10)
    monkeypatch.setattr(be, "_SEG", 4)
    spec = bb.PolicySpec(kind=bb.DYNAMIC, a_d=0.25, latched=latched)
    T = 5 * p
    arrivals = injected([0] * T, [t % 2 == 1 for t in range(T)])
    assert kernel_row(spec, 2, 1.0, arrivals).first_trigger == p
    kernel_row(spec, 2, 1.0, arrivals, stop=p + 3)


def first_hits_period_by_period(carry, bins, t_over_n, threshold):
    """Each row's first offset t at which max load - t_over_n[t] >=
    threshold[t] on its loads before period t, stepped one ball at a
    time, and the segments whose end max meets the condition at their
    first t/N and last threshold (the open ones)."""
    N, w = carry.shape[1], bins.shape[1]
    hits, opens = {}, []
    for r in range(len(bins)):
        loads, row_opens = carry[r].copy(), []
        for t in range(w):
            if r not in hits and loads.max() - t_over_n[t] >= threshold[t]:
                hits[r] = t
            loads[bins[r, t]] += 1
            first = t - t % be._SEG
            if ((t - first == be._SEG - 1 or t == w - 1)
                    and loads.max() - t_over_n[first] >= threshold[t]):
                row_opens.append(first)
        opens.append(row_opens)
    return hits, opens


@pytest.mark.parametrize("slab", [None, 5000], ids=["whole", "row-slices"])
def test_first_hit_equals_a_period_by_period_search(monkeypatch, slab):
    """The trigger search finds each row's first period that meets the
    dynamic condition, as a period-by-period search does, on random
    carries and bins over a 500-period chunk (31 whole segments and one
    of 4 periods): at N = 150 (int16 bins) and at N = 3, where a row may
    have several open segments before the one that holds its hit.  A
    small ``_SLAB`` takes the search through row slices."""
    if slab is not None:
        monkeypatch.setattr(be, "_SLAB", slab)
    rng = np.random.default_rng(32)
    m, w, c0, T, a_d = 80, 500, 3000, 20_000, 0.7
    t = np.arange(c0, c0 + w)
    seen = {"no open segment": 0, "open segments before the hit": 0,
            "hit in a segment's last period": 0}
    for N, dtype, carry in (
            (150, np.int16, rng.integers(0, 100, (m, 1))
             + rng.integers(0, 5, (m, 150))),
            (3, np.int8, rng.integers(4550, 5000, (m, 1))
             + rng.integers(0, 40, (m, 3)))):
        spread = rng.integers(2, min(N, 40) + 1, m)  # some rows run hot
        bins = (rng.random((m, w)) * spread[:, None]).astype(dtype)
        t_over_n, threshold = t / N, a_d * (T - t) / N
        if slab is not None:
            assert slab < m * -(-w // be._SEG) * (N + 1)
        r, hit = be._first_hit(carry, bins, t_over_n, threshold)
        hits, opens = first_hits_period_by_period(carry, bins, t_over_n,
                                                  threshold)
        assert r.tolist() == sorted(hits)
        assert hit.tolist() == [hits[i] for i in sorted(hits)]
        seen["no open segment"] += sum(not o for o in opens)
        seen["open segments before the hit"] += sum(
            sum(f < hits[i] - hits[i] % be._SEG for f in opens[i]) >= 2
            for i in hits)
        seen["hit in a segment's last period"] += sum(
            h % be._SEG == be._SEG - 1 or h == w - 1 for h in hits.values())
    assert w % be._SEG and all(seen.values()), seen


CHUNKS = (7, be._CHUNK)


@pytest.mark.parametrize("stop", [None, "chunk"])
@pytest.mark.parametrize("spec", [
    bb.PolicySpec(kind=bb.ALWAYS_FLEX),
    bb.PolicySpec(kind=bb.DYNAMIC, a_d=0.0),
    bb.PolicySpec(kind=bb.FLEX_SQRT_T, a_s=1.0)],
    ids=["always_flex", "unlatched_dynamic", "flex_sqrt_t"])
@pytest.mark.parametrize("chunk", CHUNKS)
def test_events_on_chunk_edges_beside_rows_without_and_all_events(
        monkeypatch, chunk, spec, stop):
    """Flex arrivals on only the first and last period of each chunk, in a
    block with a row of no flex arrivals and a row of nothing else.  Each
    policy exerts on every flex arrival from period 0 on (the dynamic
    threshold is 0, and every flex-sqrt-T uniform is below its cut); with
    a stop the rows stop in the last chunk."""
    monkeypatch.setattr(be, "_CHUNK", chunk)
    T = 3 * chunk
    t = np.arange(T)
    edges = (t % chunk == 0) | (t % chunk == chunk - 1)
    rng = np.random.default_rng(chunk)
    rows = [injected(rng.integers(0, 3, T), edges, 0, 1),
            injected(rng.integers(0, 3, T)),
            injected(rng.integers(0, 3, T), True, 1, 2, N=3),
            injected(np.zeros(T), edges, 0, 2, N=3)]
    refs = kernel_rows(spec, 3, 1.0, rows,
                       None if stop is None else chunk)
    assert refs[0].flex_count == edges[:refs[0].stop_time].sum()
    assert refs[1].flex_count == 0
    assert refs[2].flex_count == refs[2].stop_time


@pytest.mark.parametrize("N", [2, 5])
@pytest.mark.parametrize("kind", bb.POLICY_KINDS)
@pytest.mark.parametrize("chunk", CHUNKS)
def test_all_event_rows_match_oracle(monkeypatch, chunk, kind, N):
    """At q = 1 every period is a flex arrival."""
    monkeypatch.setattr(be, "_CHUNK", chunk)
    T = 2 * chunk + 3
    spec = bb.resolve_policy(bb.PolicySpec(kind=kind), bb.ModelParams(
        T=T, N=N, q=1.0), "numerics")
    rows = [oracle.draw(3, N, 1.0, T, "dense", row=r) for r in range(4)]
    assert all(a.is_flex.all() for a in rows)
    for stop in (None, T // N):
        kernel_rows(spec, N, 1.0, rows, stop)


@pytest.mark.parametrize("latched", [False, True])
@pytest.mark.parametrize("edge", ["last", "first"])
@pytest.mark.parametrize("chunk", CHUNKS)
def test_dynamic_trigger_on_chunk_edges(monkeypatch, chunk, edge, latched):
    """As in the segment-edge test, a row whose balls all prefer bin 0
    triggers at p = T/5: here the last or first period of the second
    chunk.  Beside it, a row that balances its first 10 balls triggers
    8 periods later, and a balanced row only in the last periods, so the
    trigger chunk holds rows the chunk screen rules out."""
    monkeypatch.setattr(be, "_CHUNK", chunk)
    spec = bb.PolicySpec(kind=bb.DYNAMIC, a_d=0.25, latched=latched)
    p = 2 * chunk - 1 if edge == "last" else chunk
    T = 5 * p
    flex = [t % 2 == 1 for t in range(T)]
    rows = [injected([0] * T, flex),
            injected([0, 1] * 5 + [0] * (T - 10), flex),
            injected([0, 1] * (T // 2) + [0] * (T % 2), flex)]
    refs = kernel_rows(spec, 2, 1.0, rows)
    assert refs[0].first_trigger == p
    assert refs[1].first_trigger == p + 8
    assert refs[2].first_trigger > p + 8
    kernel_rows(spec, 2, 1.0, rows, stop=p + 3)


def edge_rows(T, seed):
    """Rows for the exertion-rule tests: random preferences and flex
    arrivals, beside a row of flex arrivals only and one of none."""
    rng = np.random.default_rng(seed)
    return [injected(rng.integers(0, 3, T), rng.random(T) < 0.5, 0, 2, N=3),
            injected(rng.integers(0, 3, T), rng.random(T) < 0.3, 1, 2, N=3),
            injected(rng.integers(0, 3, T), True, 0, 1),
            injected(rng.integers(0, 3, T))]


@pytest.mark.parametrize("stop", [None, 9])
@pytest.mark.parametrize("t_hat,kind", [
    (7, bb.STATIC), (8, bb.STATIC), (13, bb.STATIC), (0, bb.ALWAYS_FLEX),
    (None, bb.NO_FLEX)],
    ids=["static-first", "static-second", "static-last", "always_flex",
         "no_flex"])
def test_known_start_on_chunk_edges(monkeypatch, t_hat, kind, stop):
    """At 7-period chunks a static row starts on the first, second or last
    period of the second chunk; always_flex and no_flex run the same
    rows."""
    monkeypatch.setattr(be, "_CHUNK", 7)
    T = 28
    start = T if t_hat is None else t_hat
    a_s = None
    if kind == bb.STATIC:
        a_s = (T - t_hat) / math.sqrt(T * math.log(T))
        assert bb.static_start(T, a_s) == t_hat
    refs = kernel_rows(bb.PolicySpec(kind=kind, a_s=a_s), 3, 0.5,
                       edge_rows(T, start), stop)
    for ref in refs:
        assert ref.first_trigger == (start if start < ref.stop_time
                                     else None)


@pytest.mark.parametrize("stop", [None, 9])
def test_flex_sqrt_t_first_decision_on_chunk_edges(monkeypatch, stop):
    """At 7-period chunks, flex-sqrt-T rows whose first decision is a flex
    arrival on the first (7) or last (13) period of the second chunk, or a
    non-flex period on the first of the third (14), beside a row that
    exerts on every flex arrival from period 0 and one that never
    decides."""
    monkeypatch.setattr(be, "_CHUNK", 7)
    T, a_s = 28, 1.0
    cut = (T - bb.static_start(T, a_s)) / T
    never = 1 - 1e-12  # V: the first non-flex decision is past T
    rng = np.random.default_rng(5)
    rows, want = [], []
    for first in (7, 13, None, 0, T):
        flex = rng.random(T) < 0.5
        if first is None:  # a non-flex decision at period 14
            first = 14
            flex[first] = False
            k = int(np.count_nonzero(~flex[:first]))
            v = 1 - (1 - cut) ** (k + 0.5)
        else:
            flex[first:first + 1] = True
            v = never
        at = np.flatnonzero(flex)
        u = rng.choice([0.0, 0.99], at.size)
        u[at < first] = 0.99
        u[at == first] = 0.0
        if first == 0:
            u[:] = 0.0
        rows.append(injected(rng.integers(0, 3, T), flex, 0, 2,
                             np.concatenate(([v], u)), N=3))
        want.append(first)
    refs = kernel_rows(bb.PolicySpec(kind=bb.FLEX_SQRT_T, a_s=a_s), 3, 0.5,
                       rows, stop)
    for ref, first in zip(refs, want):
        assert ref.first_trigger == (first if first < ref.stop_time
                                     else None)


def test_flex_sqrt_t_rate():
    p = bb.ModelParams(T=10000, N=2, q=0.5)
    spec = bb.PolicySpec(kind=bb.FLEX_SQRT_T, a_s=9.798)
    t_hat = bb.static_start(p.T, spec.a_s)
    assert t_hat == 7026
    batch = be.run_many(spec, p, 30, 0, "sqrt-rate")
    se = batch.flex_count.std(ddof=1) / math.sqrt(30)
    assert abs(batch.flex_count.mean() - p.q * (p.T - t_hat)) < 5 * se


# ---------------------------------------------------------------------------
# whole-run behavior


def test_no_flex_never_flexes():
    p = bb.ModelParams(T=200, N=3, q=0.5)
    batch = be.run_many(
        bb.resolve_policy(bb.PolicySpec(kind=bb.NO_FLEX), p, "theory"), p, 4,
        3)
    assert (batch.flex_count == 0).all()
    assert (batch.first_trigger == -1).all()


def test_always_flex_q1_flexes_every_ball():
    p = bb.ModelParams(T=200, N=3, q=1.0)
    batch = be.run_many(
        bb.resolve_policy(bb.PolicySpec(kind=bb.ALWAYS_FLEX), p, "theory"),
        p, 4, 3)
    assert (batch.flex_count == 200).all()


def test_conservation_and_gap_bounds():
    p = bb.ModelParams(T=150, N=4, q=0.4)
    for kind in bb.POLICY_KINDS:
        spec = bb.resolve_policy(bb.PolicySpec(kind=kind), p, "numerics")
        out, = be.run_blocks([spec], p.N, p.q, p.T, 5, 9, ("conserve",),
                             bb.draw_raw_arrays)
        for rep in range(5):
            ref = oracle.run(spec, p.N, p.q, oracle.draw(
                9, p.N, p.q, p.T, "conserve", row=rep))
            assert np.array_equal(out.loads[rep], ref.loads)
            assert out.flex_count[rep] == ref.flex_count
        assert (out.loads.sum(axis=1) == p.T).all()
        assert (out.stop_time == p.T).all()
        gap = out.loads.max(axis=1) - p.T / p.N
        assert (0 <= gap).all() and (gap <= p.T * (1 - 1 / p.N)).all()
        assert (out.flex_count <= p.T).all()


def test_run_deterministic():
    p = bb.ModelParams(T=300, N=5, q=0.3)
    spec = bb.resolve_policy(bb.PolicySpec(kind=bb.DYNAMIC), p, "numerics")
    r1 = be.run_many(spec, p, 3, 17)
    r2 = be.run_many(spec, p, 3, 17)
    assert np.array_equal(r1.final_gap, r2.final_gap)
    assert np.array_equal(r1.flex_count, r2.flex_count)


def test_static_policy_flexes_only_from_start_period():
    p = bb.ModelParams(T=400, N=2, q=1.0)
    spec = bb.resolve_policy(bb.PolicySpec(kind=bb.STATIC, a_s=2.0), p,
                             "theory")
    t_hat = bb.static_start(p.T, 2.0)
    batch = be.run_many(spec, p, 3, 5)
    assert 0 < t_hat < p.T
    assert (batch.first_trigger == t_hat).all()
    assert (batch.flex_count == p.T - t_hat).all()  # q=1: every late ball


# ---------------------------------------------------------------------------
# exhaustive path enumeration (N=2, q=1: randomness is the preferred bin)


def enumerate_paths(policy_kind, T, a_s=None, a_d=None, latched=False):
    """Average outcomes over all 2^T preferred-bin sequences; the kernel
    runs every path as one row and must match the oracle on each."""
    p = bb.ModelParams(T=T, N=2, q=1.0)
    spec = bb.resolve_policy(
        bb.PolicySpec(kind=policy_kind, a_s=a_s, a_d=a_d, latched=latched), p,
        "theory")
    paths = [injected([(bits >> i) & 1 for i in range(T)], True)
             for bits in range(2 ** T)]
    out = be.lockstep(spec, 2, 1.0, oracle.stack_arrivals(paths, spec))
    refs = [oracle.run(spec, 2, 1.0, arr) for arr in paths]
    gaps = np.array([r.final_gap for r in refs])
    flexes = np.array([r.flex_count for r in refs])
    assert np.array_equal(out.loads.max(axis=1) - T / 2, gaps)
    assert np.array_equal(out.flex_count, flexes)
    assert np.array_equal(out.first_trigger, [
        -1 if r.first_trigger is None else r.first_trigger for r in refs])
    return gaps.mean(), flexes.mean()


def test_enumeration_no_flex_matches_binomial_closed_form():
    for T in (4, 7, 10):
        mean_gap, mean_flex = enumerate_paths(bb.NO_FLEX, T)
        k = np.arange(T + 1)
        exact = float((binom.pmf(k, T, 0.5) * np.abs(k - T / 2)).sum())
        assert mean_flex == 0
        assert abs(mean_gap - exact) < 1e-12


def test_enumeration_always_flex_balances_perfectly():
    # every ball goes to the lesser-loaded bin, so the gap is forced
    for T in (4, 7, 10):
        mean_gap, mean_flex = enumerate_paths(bb.ALWAYS_FLEX, T)
        assert mean_gap == (0.0 if T % 2 == 0 else 0.5)
        assert mean_flex == T


def test_enumeration_matches_monte_carlo_for_adaptive_policies():
    T = 12
    p = bb.ModelParams(T=T, N=2, q=1.0)
    for kind, kwargs in ((bb.STATIC, {"a_s": 0.5}),
                         (bb.DYNAMIC, {"a_d": 0.2})):
        exact_gap, exact_flex = enumerate_paths(kind, T, **kwargs)
        spec = bb.resolve_policy(bb.PolicySpec(kind=kind, **kwargs), p,
                                 "theory")
        batch = be.run_many(spec, p, 4000, 0, "enum-check", kind)
        se = batch.final_gap.std(ddof=1) / math.sqrt(len(batch.final_gap))
        assert abs(batch.final_gap.mean() - exact_gap) < 4 * se + 1e-9
        fse = batch.flex_count.std(ddof=1) / math.sqrt(len(batch.flex_count))
        assert abs(batch.flex_count.mean() - exact_flex) < 4 * fse + 1e-9
    enumerate_paths(bb.DYNAMIC, 8, a_d=0.2, latched=True)
    enumerate_paths(bb.FLEX_SQRT_T, 8, a_s=0.5)


# ---------------------------------------------------------------------------
# vectorized engine agrees with the scalar oracle


def test_engine_bit_identical_to_sequential():
    p = bb.ModelParams(T=120, N=5, q=0.3)
    for kind in bb.POLICY_KINDS:
        for latched in ((False, True) if kind == bb.DYNAMIC else (False,)):
            spec = bb.resolve_policy(
                bb.PolicySpec(kind=kind, latched=latched), p, "numerics")
            batch = be.run_many(spec, p, 6, 42, "engine", kind)
            for rep in range(6):
                arr = oracle.draw(42, p.N, p.q, p.T, "engine", kind,
                                  row=rep)
                rec = oracle.run(spec, p.N, p.q, arr)
                assert rec.final_gap == batch.final_gap[rep]
                assert rec.flex_count == batch.flex_count[rep]
                ft = -1 if rec.first_trigger is None else rec.first_trigger
                assert ft == batch.first_trigger[rep]


def test_engine_independent_of_block_size(monkeypatch):
    p = bb.ModelParams(T=90, N=3, q=0.5)
    spec = bb.resolve_policy(bb.PolicySpec(kind=bb.DYNAMIC), p, "numerics")
    reps = 2 * bb.tile_rows(p.T) + 5  # three tiles, the last a prefix
    full = be.run_many(spec, p, reps, 1, "blocks")
    monkeypatch.setattr(be, "_BLOCK_ROWS", 1)  # blocks of one tile
    small = be.run_many(spec, p, reps, 1, "blocks")
    assert np.array_equal(full.final_gap, small.final_gap)
    assert np.array_equal(full.flex_count, small.flex_count)


def windowed_specs(T):
    """The five policies and unlatched dynamic, static and flex-sqrt-T at
    a_s = 0.1 (on T = 143: t_hat = 140 and a cut of 0.02)."""
    return [bb.PolicySpec(kind=kind, a_s=0.1, a_d=0.7, latched=latched)
            for kind, latched in ((bb.NO_FLEX, False), (bb.ALWAYS_FLEX, False),
                                  (bb.STATIC, False), (bb.DYNAMIC, True),
                                  (bb.DYNAMIC, False),
                                  (bb.FLEX_SQRT_T, False))]


def check_windowed(N, q, T, n_rows, stop, draw=bb.draw_raw_arrays):
    """``run_blocks`` on every policy of :func:`windowed_specs`: each
    result equals ``lockstep`` on the whole block, and each row the
    oracle's."""
    specs = windowed_specs(T)
    outs = be.run_blocks(specs, N, q, T, n_rows, 5, ("windows",), draw,
                         stop)
    keys = {c: streams.stream_key(5, "windows", c) for c in bb.CATEGORIES}
    cut = (T - bb.static_start(T, 0.1)) / T
    block = whole_block(N, q, T, keys, range(n_rows), cut)
    rows = [oracle.draw(5, N, q, T, "windows", row=r) for r in range(n_rows)]
    for spec, out in zip(specs, outs):
        whole = be.lockstep(spec, N, q, block, stop)
        for f in dataclasses.fields(out):
            assert np.array_equal(getattr(out, f.name),
                                  getattr(whole, f.name)), (spec, f.name)
        for r, arr in enumerate(rows):
            ref = oracle.run(spec, N, q, arr, stop)
            assert np.array_equal(out.loads[r], ref.loads)
            assert (out.flex_count[r], out.stop_time[r]) == (
                ref.flex_count, ref.stop_time)
            assert out.first_trigger[r] == (-1 if ref.first_trigger is None
                                            else ref.first_trigger)
    return outs


@pytest.mark.parametrize("stop", [None, 40])
def test_windowed_blocks_equal_whole_blocks_and_the_oracle(monkeypatch,
                                                           stop):
    """With 50-period windows over T = 143 (the last one partial) and
    16-period chunks, chunk boundaries fall elsewhere when a block runs
    window by window than on the whole block; every policy's rows come
    out alike, with and without a stop, and the stop and the first
    triggers fall in several windows."""
    monkeypatch.setattr(bb, "TILE_PERIODS", 50)
    monkeypatch.setattr(be, "_CHUNK", 16)
    outs = check_windowed(3, 0.5, 143, 6, stop)
    triggers = np.concatenate([out.first_trigger for out in outs])
    assert len(set(triggers[triggers > 0] // 50)) >= 2
    if stop is not None:
        ends = np.concatenate([out.stop_time for out in outs])
        assert len(set(ends[ends < 143] // 50)) >= 2


def test_rows_stopped_in_window_0_draw_no_later_window(monkeypatch):
    """When every row of every policy stops in window 0, the block draws
    window 0 alone, and its rows are unchanged."""
    monkeypatch.setattr(bb, "TILE_PERIODS", 50)
    windows = []

    def counting(*args):
        windows.append(args[6])
        return bb.draw_raw_arrays(*args)
    outs = check_windowed(2, 0.5, 143, 6, 3, counting)
    assert windows == [0]
    assert all((out.stop_time < 50).all() for out in outs)


def test_run_memory_does_not_grow_with_the_horizon():
    """A 64-row run of the five policies holds one window of draws and
    the kernel's state: its peak above the result arrays is the same,
    within 1 MiB, over 2 W + 100 and 8 W periods."""
    W = bb.TILE_PERIODS
    over = []
    # the first run, untraced, takes the one-time set-up (about 1 MiB)
    for T, traced in ((2 * W + 100, False), (2 * W + 100, True),
                      (8 * W, True)):
        p = bb.ModelParams(T=T, N=5, q=0.1)
        specs = [bb.resolve_policy(bb.PolicySpec(kind=kind), p, "numerics")
                 for kind in bb.POLICY_KINDS]
        if not traced:
            be.run_policies(specs, p, 64, 3, "horizon")
            continue
        tracemalloc.start()
        try:
            outs = be.run_policies(specs, p, 64, 3, "horizon")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = sum(getattr(out, f.name).nbytes for out in outs
                  for f in dataclasses.fields(out))
        over.append(peak - own)
    assert abs(over[1] - over[0]) < 2**20, [f"{o / 2**20:.2f} MiB"
                                            for o in over]


# T = 30: tiles of 64 rows
@pytest.mark.parametrize("reps,cap", [(129, 4), (321, 320), (640, 202),
                                      (200, 100)])
def test_blocks_are_equal_sized(monkeypatch, reps, cap):
    p = bb.ModelParams(T=30, N=3, q=0.5)
    G = bb.tile_rows(p.T)
    spec = bb.resolve_policy(bb.PolicySpec(kind=bb.DYNAMIC, latched=True), p,
                             "numerics")
    whole = be.run_many(spec, p, reps, 2, "equal")
    sizes = []
    kernel = be.lockstep

    def recording(policy, N, q, arrivals, *rest):
        sizes.append(arrivals.is_flex.shape[0])
        return kernel(policy, N, q, arrivals, *rest)

    monkeypatch.setattr(be, "lockstep", recording)
    monkeypatch.setattr(be, "_BLOCK_ROWS", cap)
    blocked = be.run_many(spec, p, reps, 2, "equal")
    assert sum(sizes) == reps and len(sizes) > 1
    # blocks hold whole tiles, the last a prefix, and as many as fit
    # under the cap, one at least; equally many, within one
    assert max(sizes) <= max(cap, G)
    assert all(size % G == 0 for size in sizes[:-1])
    tiles = [-(-size // G) for size in sizes]
    assert max(tiles) - min(tiles) <= 1
    for name in ("final_gap", "flex_count", "first_trigger"):
        assert np.array_equal(getattr(whole, name), getattr(blocked, name))


@pytest.mark.parametrize("block_rows", [be._BLOCK_ROWS, 3])
def test_blocks_are_whole_tiles_at_every_horizon(monkeypatch, block_rows):
    """At T from 1 to 1e10, every block but the last is whole tiles, one
    at least, the blocks hold equally many tiles (within one), and none
    holds more than max(_BLOCK_ROWS, G) rows; the draw and the kernel
    are stubbed, and the kernel stops every row in window 0, so each
    block draws that window alone."""
    monkeypatch.setattr(be, "_BLOCK_ROWS", block_rows)
    blocks = []

    def draw(N, q, T, keys, rows, cut, w, carry):
        blocks.append((rows, w))
        return bb.ArrivalArrays(np.empty((len(rows), 0)), None, None)

    def kernel(policy, N, q, arrivals, stop, state):
        state.live = state.live[:0]

    monkeypatch.setattr(be, "lockstep", kernel)
    horizons = np.unique(np.r_[1:3000, np.geomspace(3000, 1e10, 200)
                               .astype(np.int64)])
    for T in map(int, horizons):
        G = bb.tile_rows(T)
        for n_rows in (1, 1000):
            blocks.clear()
            be.run_blocks([bb.PolicySpec(kind=bb.NO_FLEX)], 2, 0.5, T,
                          n_rows, 0, ("rule",), draw, stop=1)
            assert {w for _, w in blocks} == {0}
            rows = [b for b, _ in blocks]
            assert [b.start for b in rows[1:]] == [b.stop for b in rows[:-1]]
            assert rows[0].start == 0 and rows[-1].stop == n_rows
            assert all(len(b) >= G and len(b) % G == 0 for b in rows[:-1])
            tiles = [-(-len(b) // G) for b in rows]
            assert max(tiles) - min(tiles) <= 1
            assert max(map(len, rows)) <= max(block_rows, G)


@pytest.mark.parametrize("N", [2, 8, 600, 20_000, bb.MAX_BINS])
def test_block_state_fits_a_slab_at_every_width(monkeypatch, N):
    """A block's (rows, N + 1) state takes at most _SLAB counts, or the
    block is one tile; blocks stay whole tiles, and at N <= 8 they are
    the blocks of _BLOCK_ROWS rows alone.  The draw and the kernel are
    stubbed as in the test above."""
    blocks = []

    def draw(N, q, T, keys, rows, cut, w, carry):
        blocks.append(rows)
        return bb.ArrivalArrays(np.empty((len(rows), 0)), None, None)

    def kernel(policy, N, q, arrivals, stop, state):
        state.live = state.live[:0]

    monkeypatch.setattr(be, "lockstep", kernel)
    for T in map(int, np.unique(np.geomspace(1, 1e10, 60).astype(np.int64))):
        G = bb.tile_rows(T)
        for n_rows in (1, 1000):
            blocks.clear()
            be.run_blocks([bb.PolicySpec(kind=bb.NO_FLEX)], N, 0.5, T,
                          n_rows, 0, ("state",), draw, stop=1)
            assert [b.start for b in blocks[1:]] == [
                b.stop for b in blocks[:-1]]
            assert blocks[0].start == 0 and blocks[-1].stop == n_rows
            assert all(len(b) >= G and len(b) % G == 0
                       for b in blocks[:-1])
            assert all(len(b) * (N + 1) <= be._SLAB or len(b) <= G
                       for b in blocks)
            if N <= 8:  # the rule without the state bound
                tiles = -(-n_rows // G)
                n = -(-tiles // max(1, be._BLOCK_ROWS // G))
                assert [b.start for b in blocks] == [
                    i * tiles // n * G for i in range(n)]


def test_draw_refuses_rows_that_start_inside_a_tile():
    G = bb.tile_rows(100)
    with pytest.raises(ValueError, match=f"G = {G}"):
        drawn(3, 0.5, 100, 0, range(1, G + 1))


@pytest.mark.parametrize("N,rows,stop,T", [
    pytest.param(600, 64, None, 1024, id="600-64"),
    pytest.param(20_000, 2, None, 1024, id="20000-2"),
    pytest.param(600, 64, 3, 1024, id="600-64-stop3"),
    pytest.param(20_000, 64, 2, 1024, id="20000-64-stop2"),
    pytest.param(20_000, 160, None, 16, id="20000-160-T16")])
def test_kernel_memory_bounded_at_wide_flex_heavy_sizes(monkeypatch, N,
                                                        rows, stop, T):
    """At q=1 one 1024-period chunk's per-(group, row, bin) counts would
    take about 316 MB for 64 rows at N=600, and 157 MB for one row at
    N=20000; the kernel places rows in slices and narrows its chunks, and
    neither changes a row: rows of two tiles run alike in one block and
    in blocks of one tile.  With a stop, the rows that reach it find it
    in those slices too.  The (rows, N + 1) state of one block of 160
    rows at N=20000 takes 25 MB a copy, and a chunk holds about three
    copies, so such blocks are narrower."""
    args = ([bb.PolicySpec(kind=bb.ALWAYS_FLEX)], N, 1.0, T, rows, 8,
            ("wide",), bb.draw_raw_arrays, stop)
    tracemalloc.start()
    try:
        sliced = be.run_blocks(*args)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MB"
    if stop is not None:
        assert (sliced.stop_time < T).any()
    args = (*args[:4], bb.tile_rows(T) + 1, *args[5:])
    whole = be.run_blocks(*args)[0]
    monkeypatch.setattr(be, "_BLOCK_ROWS", 1)
    alone = be.run_blocks(*args)[0]
    for f in dataclasses.fields(whole):
        assert np.array_equal(getattr(whole, f.name), getattr(alone, f.name))


def test_kernel_memory_bounded_at_dense_events():
    """At N=2 and q=1 every period of a full 512-row block is an event,
    so a chunk has 1024 event steps and half a million events."""
    tracemalloc.start()
    try:
        out = be.run_blocks([bb.PolicySpec(kind=bb.ALWAYS_FLEX)], 2, 1.0,
                            1024, 512, 8, ("dense",), bb.draw_raw_arrays)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MB"
    # every ball goes to the lesser-loaded of the two bins
    assert (out.loads == 512).all() and (out.flex_count == 1024).all()


def test_a_run_holds_its_output_once():
    """Each block writes its rows into the run's results: 192 rows at
    N=20000 (three 64-row blocks at T=16) hold 29.3 MB of output loads
    and peak under 56 MB, where a second copy of them would take the
    peak to about 59 MB."""
    tracemalloc.start()
    try:
        out = be.run_blocks([bb.PolicySpec(kind=bb.ALWAYS_FLEX)], 20_000,
                            1.0, 16, 192, 8, ("wide",),
                            bb.draw_raw_arrays)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.loads.shape == (192, 20_000) and (out.flex_count == 16).all()
    assert peak < 56 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("spec,stop", [
    (bb.PolicySpec(kind=bb.DYNAMIC, a_d=0.5), None),
    (bb.PolicySpec(kind=bb.NO_FLEX), 2)], ids=["trigger", "stop"])
def test_segment_searches_memory_bounded_at_wide_sizes(spec, stop):
    """Segment loads take rows x segments x (N + 1) counts: 64 rows at
    N=20000 would take 157 MB in one piece, so the trigger search goes
    in row slices; the stop search holds a stopped row's periods, not
    its bins."""
    tracemalloc.start()
    try:
        out = be.run_blocks([spec], 20_000, 0.01, 1024, 64, 8, ("wide",),
                            bb.draw_raw_arrays, stop)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MB"
    if stop is None:
        assert (out.first_trigger == 1).all()
    else:
        assert (out.stop_time < 1024).all()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap trimming rule is glibc's")
@pytest.mark.parametrize("model", [
    ["from endgame import bins_engine as be",
     "p = bb.ModelParams(T=20_000, N=5, q=0.1)",
     "specs = [bb.resolve_policy(bb.PolicySpec(kind=k), p, 'numerics')",
     "         for k in bb.POLICY_KINDS]",
     "run = lambda seed: be.run_policies(specs, p, 100, seed, 'heap')"],
    ["from endgame import opaque",
     "p = opaque.InventoryParams(N=5, S=800, q=0.1)",
     "specs = [opaque.resolve_opaque_policy(bb.PolicySpec(kind=k), p,",
     "                                      'numerics')",
     "         for k in bb.POLICY_KINDS]",
     "run = lambda seed: opaque.simulate_policies(specs, p, 300, seed,",
     "                                            'heap')"]],
    ids=["bins", "opaque"])
def test_a_second_run_reuses_the_heap(model):
    """A run's chunk temporaries stay in the heap from chunk to chunk and
    from run to run: in a fresh process, a second run of the five
    policies takes few minor page faults (over 10,000 when every chunk
    faults its temporaries in).  The bins run holds 100 rows over five
    windows, the opaque run 300 cycles up to their stock-outs."""
    code = "\n".join([
        "import resource",
        "from endgame import balls_bins as bb",
        *model,
        "run(1)",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "run(2)",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"])
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={"PYTHONPATH": str(src)},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000, proc.stdout


def test_five_policy_run_peaks_under_five_bytes_per_period():
    """A five-policy bins run draws one block of 100 rows x 2e4 periods:
    its flex marks, preferred bins, flexset codes and flex-sqrt-T events
    take a byte per period each, and the run peaks under 5 bytes per
    period in all."""
    p = bb.ModelParams(T=20_000, N=5, q=0.1)
    specs = [bb.resolve_policy(bb.PolicySpec(kind=kind, latched=latched), p,
                               "numerics")
             for kind, latched in zip(bb.POLICY_KINDS,
                                      (False, False, False, True, False))]
    reps = 100
    tracemalloc.start()
    try:
        be.run_policies(specs, p, reps, 3, "peak")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * reps * p.T, f"{peak / (reps * p.T):.2f} B/period"


def test_run_blocks_refuses_two_flex_sqrt_t_cuts():
    """A block keeps the decisions of one cut: flex-sqrt-T policies with
    two a_s that give two cuts are refused, naming a_s; two that give
    one cut run."""
    specs = [bb.PolicySpec(kind=bb.FLEX_SQRT_T, a_s=a_s)
             for a_s in (1.0, 2.0)]
    with pytest.raises(ValueError, match="a_s"):
        be.run_blocks(specs, 3, 0.5, 100, 2, 0, ("cuts",),
                      bb.draw_raw_arrays)
    # both a_s put t_hat at 0: one cut of 1
    specs = [bb.PolicySpec(kind=bb.FLEX_SQRT_T, a_s=a_s)
             for a_s in (50.0, 60.0)]
    first, second = be.run_blocks(specs, 3, 0.5, 100, 2, 0, ("cuts",),
                                  bb.draw_raw_arrays)
    assert np.array_equal(first.loads, second.loads)


@pytest.mark.parametrize("block_rows", [3, be._BLOCK_ROWS])
def test_run_policies_equals_run_many_per_policy(monkeypatch, block_rows):
    monkeypatch.setattr(be, "_BLOCK_ROWS", block_rows)
    p = bb.ModelParams(T=140, N=4, q=0.3)
    reps = 2 * bb.tile_rows(p.T) + 1  # blocks of one tile at block_rows 3
    specs = [bb.resolve_policy(bb.PolicySpec(kind=kind, latched=latched), p,
                               "numerics")
             for kind, latched in zip(bb.POLICY_KINDS,
                                      (False, False, False, True, False))]
    together = be.run_policies(specs, p, reps, 6, "shared")
    assert len(together) == len(specs)
    for spec, batch in zip(specs, together):
        alone = be.run_many(spec, p, reps, 6, "shared")
        for name in ("final_gap", "flex_count", "first_trigger"):
            assert np.array_equal(getattr(batch, name), getattr(alone, name))


def test_benchmark_trace_points_see_every_draw(monkeypatch):
    """The benchmark times draws through these module attributes, and the
    two engine entry points must not call each other.  Stream keys are
    derived once per run and draw category; each block is one draw."""
    calls = {}
    key_calls = []
    rows = []
    derive = streams.stream_key

    def counting_keys(root_seed, *path):
        key_calls.append(path[-1])
        return derive(root_seed, *path)
    monkeypatch.setattr(streams, "stream_key", counting_keys)
    monkeypatch.setattr(be, "_BLOCK_ROWS", 3)
    static_categories = ["flex", "preferred", "flexset"]

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if name.startswith("draw"):
                rows.append(args[4])
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((be, "draw_arrival_arrays"), (be, "run_many"),
                         (opaque, "draw_raw_arrays"),
                         (opaque, "simulate_cycles")):
        counting(module, name)
    p = bb.ModelParams(T=50, N=3, q=0.5)
    spec = bb.resolve_policy(bb.PolicySpec(kind=bb.STATIC), p, "numerics")
    be.run_many(spec, p, 129, 0, "trace")
    assert calls == {"run_many": 1, "draw_arrival_arrays": 3}
    # 129 reps in blocks of one 64-row tile, the last a prefix, one draw
    # each
    assert key_calls == static_categories
    assert rows == [range(0, 64), range(64, 128), range(128, 129)]
    key_calls.clear()
    rows.clear()
    inv = opaque.InventoryParams(N=3, S=6, q=0.5)
    opaque.simulate_cycles(opaque.resolve_opaque_policy(spec, inv, "numerics"),
                           inv, 65, 0, "trace")
    assert calls == {"run_many": 1, "draw_arrival_arrays": 3,
                     "simulate_cycles": 1, "draw_raw_arrays": 2}
    assert key_calls == static_categories
    assert rows == [range(0, 64), range(64, 65)]
    # five policies draw each block once, with the exert stream for
    # flex_sqrt_t, and derive the run's keys once per category
    key_calls.clear()
    specs = [bb.resolve_policy(bb.PolicySpec(kind=kind), p, "numerics")
             for kind in bb.POLICY_KINDS]
    be.run_policies(specs, p, 129, 0, "trace")
    assert calls["draw_arrival_arrays"] == 3 + 3
    assert key_calls == list(bb.CATEGORIES)
