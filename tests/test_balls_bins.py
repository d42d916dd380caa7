import math

import numpy as np
import pytest
from scipy.stats import binom

import oracle
from endgame import balls_bins as bb
from endgame import bins_engine as be
from endgame import opaque, streams


def injected(preferred, is_flex=None, pair_lo=0, pair_hi=1, exert_u=0.0):
    """One row of hand-written arrivals; scalars broadcast over periods."""
    preferred = np.asarray(preferred, dtype=np.int8)
    T = len(preferred)
    is_flex = np.zeros(T, dtype=bool) if is_flex is None else is_flex
    return bb.ArrivalArrays(
        is_flex=np.broadcast_to(np.asarray(is_flex, dtype=bool), T),
        preferred=preferred,
        pair_lo=np.broadcast_to(np.asarray(pair_lo, dtype=np.int8), T),
        pair_hi=np.broadcast_to(np.asarray(pair_hi, dtype=np.int8), T),
        exert_u=np.broadcast_to(np.asarray(exert_u, dtype=float), T))


def kernel_row(spec, N, q, arrivals, stop=None):
    """The kernel on one injected row, checked against the oracle."""
    out = be.lockstep(spec, N, q, oracle.stack_arrivals([arrivals]), stop)
    ref = oracle.run(spec, N, q, arrivals, stop)
    assert np.array_equal(out.loads[0], ref.loads)
    assert out.flex_count[0] == ref.flex_count
    assert out.first_trigger[0] == (-1 if ref.first_trigger is None
                                    else ref.first_trigger)
    assert out.stop_time[0] == ref.stop_time
    return ref


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
    arr = bb.draw_raw_arrays(0, 2, 1.0, 50, "draws")
    assert arr.is_flex.all()
    assert (arr.pair_lo == 0).all() and (arr.pair_hi == 1).all()


def test_draw_arrival_flex_fraction():
    arr = bb.draw_raw_arrays(0, 5, 0.1, 10**6, "fraction")
    assert abs(arr.is_flex.mean() - 0.1) < 0.002


def test_arrival_invariants():
    arr = bb.draw_raw_arrays(3, 5, 0.3, 10**4, "invariants")
    assert arr.preferred.dtype == np.int8
    assert arr.preferred.min() >= 0 and arr.preferred.max() < 5
    assert (0 <= arr.pair_lo).all() and (arr.pair_lo < arr.pair_hi).all()
    assert (arr.pair_hi < 5).all()
    # the exert stream is drawn on its own, so skipping it changes nothing
    lean = bb.draw_raw_arrays(3, 5, 0.3, 10**4, "invariants", exert=False)
    assert lean.exert_u is None
    for name in ("is_flex", "preferred", "pair_lo", "pair_hi"):
        assert np.array_equal(getattr(lean, name), getattr(arr, name))


def test_model_params_validation():
    with pytest.raises(ValueError):
        bb.ModelParams(T=0, N=2, q=0.5)
    with pytest.raises(ValueError):
        bb.ModelParams(T=10, N=1, q=0.5)
    with pytest.raises(ValueError):
        bb.ModelParams(T=10, N=2, q=0.0)
    with pytest.raises(TypeError):  # the flex-set size is not a parameter
        bb.ModelParams(T=10, N=3, q=0.5, r=2)


def test_choose_flex_pair_uniform():
    arr = bb.draw_raw_arrays(0, 3, 1.0, 3 * 10**5, "pair-uniform")
    pairs, counts = np.unique(np.stack([arr.pair_lo, arr.pair_hi]), axis=1,
                              return_counts=True)
    assert [tuple(p) for p in pairs.T] == [(0, 1), (0, 2), (1, 2)]
    for c in counts:
        assert abs(c / len(arr) - 1 / 3) < 0.01


def test_allocate_argmin_and_ties():
    spec = bb.PolicySpec(kind=bb.ALWAYS_FLEX)
    flex_last = [False] * 6 + [True]
    # loads [0, 4, 2, 0] before the flex arrival on pair (1, 2)
    rec = kernel_row(spec, 4, 1.0, injected([1, 1, 1, 1, 2, 2, 0], flex_last,
                                            pair_lo=1, pair_hi=2))
    assert list(rec.loads) == [0, 4, 3, 0]
    # loads [0, 3, 3, 0]: the tie goes to the smaller index
    rec = kernel_row(spec, 4, 1.0, injected([1, 1, 1, 2, 2, 2, 0], flex_last,
                                            pair_lo=1, pair_hi=2))
    assert list(rec.loads) == [0, 4, 3, 0]
    # exerting on a non-flex arrival falls through to preferred
    rec = kernel_row(spec, 4, 1.0, injected([1, 1, 1, 2, 2, 2, 0],
                                            pair_lo=1, pair_hi=2))
    assert list(rec.loads) == [1, 3, 3, 0] and rec.flex_count == 0
    # without exertion a flex arrival goes to preferred
    rec = kernel_row(bb.PolicySpec(kind=bb.NO_FLEX), 4, 1.0,
                     injected([1, 1, 1, 2, 2, 2, 1], flex_last, 1, 2))
    assert list(rec.loads) == [0, 4, 3, 0] and rec.flex_count == 0


def test_static_start_examples():
    p = bb.ModelParams(T=10000, N=2, q=1.0)
    assert abs(bb.theory_a_s(p) - 4 * math.sqrt(6)) < 1e-12
    assert bb.static_start(10000, 9.798) == 7026
    assert bb.static_start(10, 100.0) == 0
    rec = kernel_row(bb.PolicySpec(kind=bb.STATIC, a_s=1.0), 2, 1.0,
                     injected([0, 1] * 50, True))
    assert rec.first_trigger == bb.static_start(100, 1.0) == 79


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
    batch = be.run_many(bb.resolve_policy(bb.PolicySpec(kind=bb.NO_FLEX), p),
                        p, 4, 3)
    assert (batch.flex_count == 0).all()
    assert (batch.first_trigger == -1).all()


def test_always_flex_q1_flexes_every_ball():
    p = bb.ModelParams(T=200, N=3, q=1.0)
    batch = be.run_many(
        bb.resolve_policy(bb.PolicySpec(kind=bb.ALWAYS_FLEX), p), p, 4, 3)
    assert (batch.flex_count == 200).all()


def test_conservation_and_gap_bounds():
    p = bb.ModelParams(T=150, N=4, q=0.4)
    for kind in bb.POLICY_KINDS:
        spec = bb.resolve_policy(bb.PolicySpec(kind=kind), p, "numerics")
        out, = be.run_blocks(
            [spec], p.N, p.q, p.T, 5,
            lambda rep, exert: bb.draw_arrival_arrays(9, p, rep, exert=exert))
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
    spec = bb.resolve_policy(bb.PolicySpec(kind=bb.STATIC, a_s=2.0), p)
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
        bb.PolicySpec(kind=policy_kind, a_s=a_s, a_d=a_d, latched=latched), p)
    paths = [injected([(bits >> i) & 1 for i in range(T)], True)
             for bits in range(2 ** T)]
    out = be.lockstep(spec, 2, 1.0, oracle.stack_arrivals(paths))
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
        spec = bb.resolve_policy(bb.PolicySpec(kind=kind, **kwargs), p)
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
                arr = bb.draw_arrival_arrays(42, p, "engine", kind, rep)
                rec = oracle.run(spec, p.N, p.q, arr)
                assert rec.final_gap == batch.final_gap[rep]
                assert rec.flex_count == batch.flex_count[rep]
                ft = -1 if rec.first_trigger is None else rec.first_trigger
                assert ft == batch.first_trigger[rep]


def test_engine_independent_of_block_size(monkeypatch):
    p = bb.ModelParams(T=90, N=3, q=0.5)
    spec = bb.resolve_policy(bb.PolicySpec(kind=bb.DYNAMIC), p, "numerics")
    full = be.run_many(spec, p, 10, 1, "blocks")
    monkeypatch.setattr(be, "_BLOCK_ELEMENTS", 200)  # force tiny blocks
    small = be.run_many(spec, p, 10, 1, "blocks")
    assert np.array_equal(full.final_gap, small.final_gap)
    assert np.array_equal(full.flex_count, small.flex_count)


@pytest.mark.parametrize("reps,cap", [(9, 4), (321, 320), (10, 10)])
def test_blocks_are_equal_sized(monkeypatch, reps, cap):
    p = bb.ModelParams(T=30, N=3, q=0.5)
    spec = bb.resolve_policy(bb.PolicySpec(kind=bb.DYNAMIC, latched=True), p,
                             "numerics")
    whole = be.run_many(spec, p, reps, 2, "equal")
    sizes = []
    kernel = be.lockstep

    def recording(policy, N, q, arrivals, stop=None):
        sizes.append(arrivals.is_flex.shape[0])
        return kernel(policy, N, q, arrivals, stop)

    monkeypatch.setattr(be, "lockstep", recording)
    monkeypatch.setattr(be, "_BLOCK_ELEMENTS", cap * p.T)
    blocked = be.run_many(spec, p, reps, 2, "equal")
    assert sum(sizes) == reps and max(sizes) <= cap
    assert max(sizes) - min(sizes) <= 1
    for name in ("final_gap", "flex_count", "first_trigger"):
        assert np.array_equal(getattr(whole, name), getattr(blocked, name))


@pytest.mark.parametrize("block_rows", [3, be._BLOCK_ROWS])
def test_run_policies_equals_run_many_per_policy(monkeypatch, block_rows):
    monkeypatch.setattr(be, "_BLOCK_ROWS", block_rows)
    p = bb.ModelParams(T=140, N=4, q=0.3)
    specs = [bb.resolve_policy(bb.PolicySpec(kind=kind, latched=latched), p,
                               "numerics")
             for kind, latched in zip(bb.POLICY_KINDS,
                                      (False, False, False, True, False))]
    together = be.run_policies(specs, p, 8, 6, "shared")
    assert len(together) == len(specs)
    for spec, batch in zip(specs, together):
        alone = be.run_many(spec, p, 8, 6, "shared")
        for name in ("final_gap", "flex_count", "first_trigger"):
            assert np.array_equal(getattr(batch, name), getattr(alone, name))


def test_benchmark_trace_points_see_every_draw(monkeypatch):
    """The benchmark times draws through these module attributes, and the
    two engine entry points must not call each other.  Stream keys are
    derived a block at a time: one call per block and draw category."""
    calls = {}
    key_calls = []
    derive = streams.stream_keys

    def counting_keys(root_seed, path, category, rows=None):
        key_calls.append((category, None if rows is None else len(rows)))
        return derive(root_seed, path, category, rows)
    monkeypatch.setattr(streams, "stream_keys", counting_keys)
    monkeypatch.setattr(be, "_BLOCK_ROWS", 3)
    static_categories = ["flex", "preferred", "flexset"]

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((be, "draw_arrival_arrays"), (be, "run_many"),
                         (opaque, "draw_raw_arrays"),
                         (opaque, "simulate_cycles")):
        counting(module, name)
    p = bb.ModelParams(T=50, N=3, q=0.5)
    spec = bb.resolve_policy(bb.PolicySpec(kind=bb.STATIC), p, "numerics")
    be.run_many(spec, p, 7, 0, "trace")
    assert calls == {"run_many": 1, "draw_arrival_arrays": 7}
    # 7 reps in blocks of 2, 2 and 3 rows
    assert key_calls == [(c, n) for n in (2, 2, 3) for c in static_categories]
    key_calls.clear()
    inv = opaque.InventoryParams(N=3, S=6, q=0.5)
    opaque.simulate_cycles(opaque.resolve_opaque_policy(spec, inv), inv, 5,
                           0, "trace")
    assert calls == {"run_many": 1, "draw_arrival_arrays": 7,
                     "simulate_cycles": 1, "draw_raw_arrays": 5}
    assert key_calls == [(c, n) for n in (2, 3) for c in static_categories]
    # five policies draw each row once, with the exert stream for
    # flex_sqrt_t, and derive each block's keys once per category
    key_calls.clear()
    specs = [bb.resolve_policy(bb.PolicySpec(kind=kind), p, "numerics")
             for kind in bb.POLICY_KINDS]
    be.run_policies(specs, p, 7, 0, "trace")
    assert calls["draw_arrival_arrays"] == 7 + 7
    assert key_calls == [(c, n) for n in (2, 2, 3) for c in bb.CATEGORIES]
