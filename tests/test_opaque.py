import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracle
from endgame import balls_bins as bb
from endgame import bins_engine as be
from endgame import opaque


def test_params_validation():
    with pytest.raises(ValueError, match="N must be >= 2"):
        opaque.InventoryParams(N=1, S=5, q=0.5)
    with pytest.raises(ValueError):
        opaque.InventoryParams(N=2, S=5, q=0.5, K=-1.0)
    assert opaque.InventoryParams(N=2, S=5, q=0.5).horizon == 9


def _never_flex_expected_R(N, S):
    """Exact E[R] by enumerating preferred-product paths."""
    horizon = N * (S - 1) + 1
    total = 0.0
    for path in itertools.product(range(N), repeat=horizon):
        counts = [0] * N
        for t, i in enumerate(path):
            counts[i] += 1
            if counts[i] == S:
                total += (t + 1) / N ** horizon
                break
    return total


def test_never_flex_two_by_two_enumeration():
    # cycle ends at 2 when both sales hit one product, else at 3
    assert _never_flex_expected_R(2, 2) == 2.5
    p = opaque.InventoryParams(N=2, S=2, q=0.5)
    spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=bb.NO_FLEX), p,
                                        "numerics")
    R, D = opaque.simulate_cycles(spec, p, 4000, 0, "oracle22")
    se = R.std(ddof=1) / math.sqrt(len(R))
    assert abs(R.mean() - 2.5) < 4 * se
    assert D.sum() == 0


def test_always_flex_full_flex_set_maximal_cycles():
    # N=2, q=1: the flex set is both products, so sales alternate onto the
    # most-stocked product and the cycle always hits the horizon bound
    p = opaque.InventoryParams(N=2, S=6, q=1.0)
    spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=bb.ALWAYS_FLEX),
                                        p, "numerics")
    R, D = opaque.simulate_cycles(spec, p, 50, 0, "maximal")
    assert np.all(R == p.horizon)
    assert np.all(D == p.horizon)


def test_cycle_length_bounds():
    p = opaque.InventoryParams(N=4, S=5, q=0.3)
    for kind in bb.POLICY_KINDS:
        spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=kind), p,
                                            "numerics")
        R, D = opaque.simulate_cycles(spec, p, 200, 0, "bounds", kind)
        assert np.all(R >= p.S)
        assert np.all(R <= p.horizon)
        assert np.all(D >= 0) and np.all(D <= R)


def test_static_cycle_start_example():
    p = opaque.InventoryParams(N=5, S=201, q=0.1)
    assert p.horizon == 1001
    start = bb.static_start(p.horizon, 10.0)
    assert abs(start - 170) <= 1
    assert bb.static_start(p.horizon, 10**6) == 0
    assert bb.static_start(p.horizon, 0.0) == p.horizon


def test_long_run_cost_closed_form_constant_cycles():
    # every cycle R = 5 with D = 2: K/R = 2, h/2 (2NS + 1 - R) = 8,
    # delta D/R = 0.4; each term alone is the cost with the other two
    # constants at 0
    p = opaque.InventoryParams(N=2, S=5, q=0.5, K=10.0, h=1.0, delta=1.0)
    R = np.full(40, 5)
    D = np.full(40, 2)
    row = opaque.long_run_cost(R, D, p)
    assert row["cost"] == pytest.approx(10.4)
    assert row["se"] == pytest.approx(0.0)
    assert (row["mean_R"], row["mean_D"]) == (5.0, 2.0)
    for costs, term in ((dict(h=0.0, delta=0.0), 2.0),
                        (dict(K=0.0, delta=0.0), 8.0),
                        (dict(K=0.0, h=0.0), 0.4)):
        alone = opaque.long_run_cost(R, D, replace(p, **costs))
        assert alone["cost"] == pytest.approx(term), costs
        assert alone["loss"] == alone["cost"] - alone["lower_bound"]


def test_long_run_cost_with_enumerated_mean():
    p = opaque.InventoryParams(N=2, S=2, q=0.5, K=1.0, h=0.0, delta=0.0)
    # exact distribution: R=2 w.p. 1/2, R=3 w.p. 1/2
    R = np.array([2, 3] * 50)
    row = opaque.long_run_cost(R, np.zeros(100), p)
    assert row["cost"] == pytest.approx(1 / 2.5)


@pytest.mark.parametrize("n,groups", [(300, 10), (101, 10), (7, 3),
                                      (5, 5)])
def test_long_run_cost_batch_means_are_array_split_groups(n, groups):
    """The SE's batch means are those of ``np.array_split``'s groups, to
    the bit: ``n % groups`` groups of one more cycle first."""
    p = opaque.eoq_params(5, 40, 0.1, "delta_sqrt")
    rng = np.random.default_rng(n)
    R = rng.integers(p.S, p.horizon + 1, n).astype(float)
    D = rng.integers(0, p.S, n).astype(float)

    def total(r, d):
        er = r.mean()
        return (p.K / er + p.h / 2.0 * (2 * p.N * p.S + 1 - (r ** 2).mean()
                                        / er) + p.delta * d.mean() / er)
    means = [total(r, d) for r, d in zip(np.array_split(R, groups),
                                         np.array_split(D, groups))]
    row = opaque.long_run_cost(R, D, p, groups)
    assert row["se"] == np.std(means, ddof=1) / math.sqrt(groups)
    assert row["cost"] == total(R, D)


def test_long_run_cost_rejects_empty():
    p = opaque.InventoryParams(N=2, S=2, q=0.5)
    with pytest.raises(ValueError):
        opaque.long_run_cost(np.array([]), np.array([]), p)


def test_lower_bound_examples():
    p = opaque.InventoryParams(N=5, S=10, q=0.5, K=25.0, h=0.02)
    assert opaque.lower_bound(p) == pytest.approx(25 / 46 + 0.01 * 55)
    z = opaque.InventoryParams(N=5, S=10, q=0.5, K=0.0, h=0.0)
    assert opaque.lower_bound(z) == 0.0


def test_regime_deltas():
    assert opaque.regime_delta("delta_zero", 5, 100) == 0.0
    assert opaque.regime_delta("delta_inv_sqrt", 5, 100) == \
        pytest.approx(10 / math.sqrt(500))
    assert opaque.regime_delta("delta_const", 5, 100) == 0.5
    assert opaque.regime_delta("delta_sqrt", 5, 100) == \
        pytest.approx(0.006 * math.sqrt(500))
    with pytest.raises(ValueError):
        opaque.regime_delta("delta_cubed", 5, 100)


def test_eoq_params_satisfy_eoq_identity():
    p = opaque.eoq_params(5, 40, 0.1, "delta_const")
    assert math.sqrt(2 * p.K / p.h) == pytest.approx(p.N * p.S)


def test_depletion_matches_coupled_ball_run():
    # the cycle is a ball run on depletion counts, stopped at first depletion
    p = opaque.InventoryParams(N=3, S=8, q=0.6)
    for kind in bb.POLICY_KINDS:
        spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=kind), p,
                                            "numerics")
        arr = oracle.draw(5, p.N, p.q, p.horizon, "couple", kind)
        cycle = oracle.run(spec, p.N, p.q, arr, stop=p.S)
        balls = oracle.run(spec, p.N, p.q, arr)
        assert np.array_equal(cycle.trajectory,
                              balls.trajectory[:cycle.stop_time])
        assert cycle.trajectory[-1].max() == p.S
        assert cycle.trajectory[-2].max() < p.S
        R, D = opaque.simulate_cycles(spec, p, 1, 5, "couple", kind)
        assert (R[0], D[0]) == (cycle.stop_time, cycle.flex_count)


@pytest.mark.parametrize("N,S,q", [(3, 10, 0.4), (5, 40, 0.1), (2, 6, 1.0)])
def test_simulate_cycles_matches_oracle(N, S, q):
    p = opaque.InventoryParams(N=N, S=S, q=q)
    for kind in bb.POLICY_KINDS:
        spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=kind), p,
                                            "numerics")
        assert spec.latched == (kind == bb.DYNAMIC)
        R, D = opaque.simulate_cycles(spec, p, 8, 11, "oracle", kind)
        for c in range(8):
            arr = oracle.draw(11, N, q, p.horizon, "oracle", kind, row=c)
            rec = oracle.run(spec, N, q, arr, stop=S)
            assert (R[c], D[c]) == (rec.stop_time, rec.flex_count)


@pytest.mark.parametrize("block_rows", [3, be._BLOCK_ROWS])
def test_simulate_policies_equals_simulate_cycles(monkeypatch, block_rows):
    monkeypatch.setattr(be, "_BLOCK_ROWS", block_rows)
    p = opaque.InventoryParams(N=4, S=15, q=0.3)
    # blocks of one tile at block_rows 3
    cycles = 2 * bb.tile_rows(p.horizon) + 1
    specs = [opaque.resolve_opaque_policy(bb.PolicySpec(kind=kind), p,
                                          "numerics")
             for kind in bb.POLICY_KINDS]
    together = opaque.simulate_policies(specs, p, cycles, 8, "shared")
    assert len(together) == len(specs)
    for spec, out in zip(specs, together):
        R1, D1 = opaque.simulate_cycles(spec, p, cycles, 8, "shared")
        assert np.array_equal(out.stop_time, R1)
        assert np.array_equal(out.flex_count, D1)


def test_renewal_consistency_pooled_moments():
    p = opaque.eoq_params(5, 20, 0.1, "delta_const")
    spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=bb.DYNAMIC), p,
                                        "numerics")
    R, D = opaque.simulate_cycles(spec, p, 60, 0, "renewal")
    row = opaque.long_run_cost(R, D, p)
    er, er2, ed = R.mean(), (R.astype(float) ** 2).mean(), D.mean()
    ordering, holding = p.K / er, p.h / 2 * (2 * p.N * p.S + 1 - er2 / er)
    discount = p.delta * ed / er
    assert row["cost"] == pytest.approx(ordering + holding + discount)
    for costs, term in ((dict(h=0.0, delta=0.0), ordering),
                        (dict(K=0.0, delta=0.0), holding),
                        (dict(K=0.0, h=0.0), discount)):
        assert opaque.long_run_cost(R, D, replace(p, **costs))["cost"] \
            == pytest.approx(term), costs


def test_simulate_cycles_independent_of_batching():
    p = opaque.InventoryParams(N=3, S=10, q=0.4)
    spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=bb.DYNAMIC), p,
                                        "numerics")
    R1, D1 = opaque.simulate_cycles(spec, p, 7, 3, "batching")
    R2 = np.concatenate([
        opaque.simulate_cycles(spec, p, 1, 3, "batching")[0],
        opaque.simulate_cycles(spec, p, 7, 3, "batching")[0][1:]])
    assert np.array_equal(R1, R2)


def test_regime_sweep_rows_and_cache():
    cache = {}
    rows = opaque.regime_sweep("delta_zero", [10, 20], N=3, q=0.2,
                               instances=4, cycles_per_instance=5,
                               cycle_cache=cache)
    assert len(rows) == 2 * len(bb.POLICY_KINDS)
    for row in rows:
        assert row["cost"] >= row["lower_bound"] - 3 * max(row["se"], 1e-9)
    rows2 = opaque.regime_sweep("delta_const", [10, 20], N=3, q=0.2,
                                instances=4, cycles_per_instance=5,
                                cycle_cache=cache)
    # same cycles reused: balancedness identical across regimes
    for a, b in zip(rows, rows2):
        assert a["mean_R"] == b["mean_R"]
    with pytest.raises(ValueError):
        opaque.regime_sweep("delta_zero", [20, 10])


def test_regime_sweep_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="sweep.S: needs a nonempty"):
        opaque.regime_sweep("delta_zero", [])


def test_regime_sweep_cache_reuses_only_matching_cycles():
    # a shared cache must not hand one call's cycles to a call with
    # another N, q, root seed, preset or cycle count
    kw = dict(instances=2, cycles_per_instance=2)
    cache = {}
    opaque.regime_sweep("delta_zero", [10], N=3, q=0.2, cycle_cache=cache,
                        **kw)
    variants = [dict(N=4, q=0.2), dict(N=3, q=0.3),
                dict(N=3, q=0.2, root_seed=1),
                dict(N=3, q=0.2, preset="theory"),
                dict(N=3, q=0.2, instances=3, cycles_per_instance=2)]
    for variant in variants:
        args = {**kw, **variant}
        cached = opaque.regime_sweep("delta_zero", [10], cycle_cache=cache,
                                     **args)
        assert cached == opaque.regime_sweep("delta_zero", [10], **args)
    # the last call's cycles are kept and shared with another regime
    R, D = cache[(bb.DYNAMIC, 10)]
    assert len(R) == 6
    opaque.regime_sweep("delta_const", [10], N=3, q=0.2, cycle_cache=cache,
                        instances=3, cycles_per_instance=2)
    assert cache[(bb.DYNAMIC, 10)][0] is R


def test_eoq_params_check_the_model_before_dividing():
    with pytest.raises(ValueError, match="S must be >= 1, got 0"):
        opaque.eoq_params(5, 0, 0.1, "delta_const")
    with pytest.raises(ValueError, match="N must be >= 2, got 0"):
        opaque.eoq_params(0, 5, 0.1, "delta_inv_sqrt")


def _spelled_out_opaque_policy(spec, params, preset):
    """The opaque resolver written out in full: on the horizon model
    N(S-1)+1, numerics a_s = 10 and a_d = 0.7, theory a_s from the bins
    model and a_d = 1/(10 C(N, 2)); the dynamic policy is always
    latched."""
    model = bb.ModelParams(T=params.horizon, N=params.N, q=params.q)
    numerics = preset == bb.PRESET_NUMERICS
    a_s, a_d = spec.a_s, spec.a_d
    if a_s is None:
        a_s = bb.NUMERICS_A_S if numerics else bb.theory_a_s(model)
    if a_d is None:
        a_d = (bb.NUMERICS_A_D if numerics
               else 1.0 / (10.0 * math.comb(model.N, 2)))
    latched = spec.latched if spec.kind != bb.DYNAMIC else True
    return bb.PolicySpec(kind=spec.kind, a_s=a_s, a_d=a_d, latched=latched)


def test_resolve_opaque_policy_matches_its_spelled_out_form():
    for N, kind, preset, latched, given in itertools.product(
            range(2, 51), bb.POLICY_KINDS,
            (bb.PRESET_THEORY, bb.PRESET_NUMERICS), (False, True),
            ({}, {"a_s": 3.0}, {"a_d": 0.25})):
        p = opaque.InventoryParams(N=N, S=7, q=0.1)
        spec = bb.PolicySpec(kind=kind, latched=latched, **given)
        got = opaque.resolve_opaque_policy(spec, p, preset)
        want = _spelled_out_opaque_policy(spec, p, preset)
        # floats compare exactly: the halved theory a_d is bit-identical
        assert got == want, (N, kind, preset, latched, given)


def test_dynamic_cycles_search_their_triggers_in_little_memory():
    """The dynamic trigger search steps one open segment per cycle at a
    time: 300 numerics dynamic cycles at N=5, q=0.1, S=200 peak under
    8 MB (about 14 MB when every open segment is stepped at once)."""
    p = opaque.InventoryParams(N=5, S=200, q=0.1)
    spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=bb.DYNAMIC), p,
                                        "numerics")
    # the first run, untraced, takes the one-time set-up
    opaque.simulate_policies([spec], p, 300, 1, "memory")
    tracemalloc.start()
    try:
        opaque.simulate_policies([spec], p, 300, 2, "memory")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_dynamic_beats_static_on_paired_cycles():
    """Criterion 8's "dynamic <= static" orderings, resolved on common
    cycles.  At S=800, N=5, q=0.1 the numerics static and dynamic
    policies run 4,000 cycles on one draw of arrivals (one
    ``simulate_policies`` call at root seed 0 on the sweeps' own stream
    path), and under delta_inv_sqrt and delta_const dynamic's long-run
    cost on all cycles is below static's by at least 2 SE.

    The SE is by batch means of the paired difference: the cycles split
    into 50 contiguous batches of 80, each batch gives dynamic's minus
    static's renewal-reward cost on its own cycles, and SE is the
    standard deviation (ddof=1) of those 50 differences over sqrt(50).
    Per-batch ratio estimators carry a small-batch bias; the point
    estimate is therefore the pooled difference."""
    from endgame.harness.config import arrival_path
    inv = opaque.InventoryParams(N=5, S=800, q=0.1)
    specs = [opaque.resolve_opaque_policy(bb.PolicySpec(kind=kind), inv,
                                          "numerics")
             for kind in (bb.STATIC, bb.DYNAMIC)]
    static, dynamic = opaque.simulate_policies(
        specs, inv, 4000, 0, *arrival_path("opaque", inv))
    batches = 50
    for regime in ("delta_inv_sqrt", "delta_const"):
        p = opaque.eoq_params(inv.N, inv.S, inv.q, regime)

        def cost(out, part=slice(None)):
            return opaque.long_run_cost(out.stop_time[part],
                                        out.flex_count[part], p,
                                        n_groups=1)["cost"]

        diff = cost(dynamic) - cost(static)
        parts = [slice(i, i + 80) for i in range(0, 4000, 80)]
        per_batch = np.array([cost(dynamic, s) - cost(static, s)
                              for s in parts])
        se = per_batch.std(ddof=1) / math.sqrt(batches)
        assert diff <= -2 * se, (regime, diff, se)
