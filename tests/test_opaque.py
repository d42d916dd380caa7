import itertools
import math

import numpy as np
import pytest

import oracle
from endgame import balls_bins as bb
from endgame import bins_engine as be
from endgame import opaque


def test_params_validation():
    with pytest.raises(ValueError):
        opaque.InventoryParams(N=1, S=5, q=0.5)
    opaque.InventoryParams(N=1, S=5, q=0.5, allow_single_product=True)
    with pytest.raises(ValueError):
        opaque.InventoryParams(N=2, S=5, q=0.5, K=-1.0)
    assert opaque.InventoryParams(N=2, S=5, q=0.5).horizon == 9


def test_single_product_cycle_is_deterministic():
    p = opaque.InventoryParams(N=1, S=7, q=0.5, allow_single_product=True)
    spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=bb.NO_FLEX), p)
    for seed in range(3):
        R, D = opaque.simulate_cycles(spec, p, 2, seed, "single")
        assert (R == 7).all()
        assert (D == 0).all()


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
    spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=bb.NO_FLEX), p)
    R, D = opaque.simulate_cycles(spec, p, 4000, 0, "oracle22")
    se = R.std(ddof=1) / math.sqrt(len(R))
    assert abs(R.mean() - 2.5) < 4 * se
    assert D.sum() == 0


def test_always_flex_full_flex_set_maximal_cycles():
    # N=2, q=1: the flex set is both products, so sales alternate onto the
    # most-stocked product and the cycle always hits the horizon bound
    p = opaque.InventoryParams(N=2, S=6, q=1.0)
    spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=bb.ALWAYS_FLEX), p)
    R, D = opaque.simulate_cycles(spec, p, 50, 0, "maximal")
    assert np.all(R == p.horizon)
    assert np.all(D == p.horizon)


def test_cycle_length_bounds():
    p = opaque.InventoryParams(N=4, S=5, q=0.3)
    for kind in opaque.OPAQUE_POLICIES:
        spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=kind), p)
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


def test_long_run_cost_closed_form_single_product():
    p = opaque.InventoryParams(N=1, S=5, q=0.5, K=10.0, h=1.0, delta=0.0,
                               allow_single_product=True)
    R = np.full(40, 5)
    D = np.zeros(40)
    est = opaque.long_run_cost(R, D, p)
    assert est.total == pytest.approx(5.0)
    assert est.ordering == pytest.approx(2.0)
    assert est.holding == pytest.approx(3.0)
    assert est.discount == 0.0
    assert est.se_total == pytest.approx(0.0)


def test_long_run_cost_with_enumerated_mean():
    p = opaque.InventoryParams(N=2, S=2, q=0.5, K=1.0, h=0.0, delta=0.0)
    # exact distribution: R=2 w.p. 1/2, R=3 w.p. 1/2
    R = np.array([2, 3] * 50)
    est = opaque.long_run_cost(R, np.zeros(100), p)
    assert est.total == pytest.approx(1 / 2.5)


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
    for kind in opaque.OPAQUE_POLICIES:
        spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=kind), p)
        arr = bb.draw_raw_arrays(5, p.N, p.q, p.horizon, "couple", kind, 0)
        cycle = oracle.run(spec, p.N, p.q, arr, stop=p.S)
        balls = oracle.run(spec, p.N, p.q, arr)
        assert np.array_equal(cycle.trajectory,
                              balls.trajectory[:cycle.stop_time])
        assert cycle.trajectory[-1].max() == p.S
        assert cycle.trajectory[-2].max() < p.S
        R, D = opaque.simulate_cycles(spec, p, 1, 5, "couple", kind)
        assert (R[0], D[0]) == (cycle.stop_time, cycle.flex_count)


@pytest.mark.parametrize("N,S,q", [(3, 10, 0.4), (5, 40, 0.1), (2, 6, 1.0),
                                   (1, 7, 0.5)])
def test_simulate_cycles_matches_oracle(N, S, q):
    p = opaque.InventoryParams(N=N, S=S, q=q, allow_single_product=True)
    for kind in opaque.OPAQUE_POLICIES:
        spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=kind), p)
        assert spec.latched == (kind == bb.DYNAMIC)
        R, D = opaque.simulate_cycles(spec, p, 8, 11, "oracle", kind)
        for c in range(8):
            arr = bb.draw_raw_arrays(11, N, q, p.horizon, "oracle", kind, c)
            rec = oracle.run(spec, N, q, arr, stop=S)
            assert (R[c], D[c]) == (rec.stop_time, rec.flex_count)


@pytest.mark.parametrize("block_rows", [3, be._BLOCK_ROWS])
def test_simulate_policies_equals_simulate_cycles(monkeypatch, block_rows):
    monkeypatch.setattr(be, "_BLOCK_ROWS", block_rows)
    p = opaque.InventoryParams(N=4, S=15, q=0.3)
    specs = [opaque.resolve_opaque_policy(bb.PolicySpec(kind=kind), p)
             for kind in opaque.OPAQUE_POLICIES]
    together = opaque.simulate_policies(specs, p, 9, 8, "shared")
    assert len(together) == len(specs)
    for spec, (R, D) in zip(specs, together):
        R1, D1 = opaque.simulate_cycles(spec, p, 9, 8, "shared")
        assert np.array_equal(R, R1) and np.array_equal(D, D1)


def test_renewal_consistency_pooled_moments():
    p = opaque.eoq_params(5, 20, 0.1, "delta_const")
    spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=bb.DYNAMIC), p)
    R, D = opaque.simulate_cycles(spec, p, 60, 0, "renewal")
    est = opaque.long_run_cost(R, D, p)
    er, er2, ed = R.mean(), (R.astype(float) ** 2).mean(), D.mean()
    expect = (p.K / er + p.h / 2 * (2 * p.N * p.S + 1 - er2 / er)
              + p.delta * ed / er)
    assert est.total == pytest.approx(expect)
    assert est.total == pytest.approx(
        est.ordering + est.holding + est.discount)


def test_simulate_cycles_independent_of_batching():
    p = opaque.InventoryParams(N=3, S=10, q=0.4)
    spec = opaque.resolve_opaque_policy(bb.PolicySpec(kind=bb.DYNAMIC), p)
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
    assert len(rows) == 2 * len(opaque.OPAQUE_POLICIES)
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
