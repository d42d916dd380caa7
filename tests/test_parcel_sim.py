import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from endgame.parcel import corpus as cp
from endgame.parcel import simulate as sim
from endgame.parcel import tables as tb


@pytest.fixture(scope="module")
def small_world():
    spec = cp.GeometrySpec(n_zones=4, pool_size=600, city_radius_km=8.0,
                           cluster_sd_km=1.5, unload_mean_hours=0.05,
                           unload_sigma=0.8, epsilon=30.0)
    corpus = cp.build_corpus(spec, seed=0)
    params = sim.ParcelParams(N=4, T=150)
    tables = tb.estimate_flex_tables(corpus, params, reps=6, root_seed=0)
    return corpus, params, tables


def test_params_validation():
    with pytest.raises(ValueError):
        sim.ParcelParams(T=0)
    with pytest.raises(ValueError):
        sim.ParcelParams(speed=-1.0)
    with pytest.raises(ValueError):
        sim.ParcelPolicy(kind="teleport")


@pytest.mark.parametrize("name", ["c_r", "c_o", "h_max", "speed", "flex_km",
                                  "oblivious_radius_km", "a_d"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_refuse_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive and "
                                         "finite"):
        sim.ParcelParams(**{name: value})


def test_flex_set_rules():
    centers = np.array([[0.0, 0.0], [3.0, 0.0], [10.0, 0.0]])
    pkg = np.array([0.0, 0.0])
    # default is farthest away: everything closer than d_default + 1 is in
    assert list(oracle.flex_set_of(pkg, centers, 2, 1.0)) == [0, 1, 2]
    # default nearest: only zones within 1 km beyond it qualify
    assert list(oracle.flex_set_of(pkg, centers, 0, 1.0)) == [0]
    assert list(oracle.flex_set_of(pkg, centers, 0, 3.0)) == [0, 1]
    # radius rule ignores the default distance entirely
    assert list(oracle.radius_flex_set(pkg, centers, 2, 5.0)) == [0, 1, 2]
    assert list(oracle.radius_flex_set(pkg, centers, 0, 2.0)) == [0]
    # far default is kept even outside the radius
    assert list(oracle.radius_flex_set(pkg, centers, 2, 2.0)) == [0, 2]


# centers and packages on a half-km lattice, so that packages exactly on
# a bound (collinear points, 3-4-5 triangles) and on their own center
# come up
_coord = st.integers(-8, 8).map(lambda v: v / 2)
_xy = st.tuples(_coord, _coord)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(centers=st.lists(_xy, min_size=2, max_size=6, unique=True),
       pkgs=st.lists(st.tuples(_xy, st.integers(0, 5)), min_size=1,
                     max_size=12),
       flex_km=st.sampled_from([0.5, 1.0, 1.5, 2.5]),
       radius_km=st.sampled_from([0.5, 1.0, 2.5, 5.0]))
@example(centers=[(0.0, 0.0), (3.0, 4.0), (1.0, 0.0), (2.0, 0.0)],
         pkgs=[((0.0, 0.0), 0), ((0.0, 0.0), 2), ((1.0, 0.0), 2)],
         flex_km=1.0, radius_km=5.0)
def test_flex_mask_rows_are_the_oracle_flex_sets(centers, pkgs, flex_km,
                                                 radius_km):
    # the example: (3, 4) is exactly 5 km from a package at the origin,
    # and (2, 0) exactly 1 km beyond the default (1, 0)
    centers = np.array(centers)
    pts = np.array([xy for xy, _ in pkgs], dtype=float)
    defaults = np.array([z % len(centers) for _, z in pkgs])
    params = sim.ParcelParams(flex_km=flex_km, oblivious_radius_km=radius_km)
    close = sim.flex_mask(pts, defaults, centers, params)
    near = sim.flex_mask(pts, defaults, centers, params, radius=True)
    for t, (pkg, dz) in enumerate(zip(pts, defaults)):
        assert np.array_equal(np.flatnonzero(close[t]),
                              oracle.flex_set_of(pkg, centers, dz, flex_km))
        assert np.array_equal(np.flatnonzero(near[t]),
                              oracle.radius_flex_set(pkg, centers, dz,
                                                     radius_km))


def test_inc_approx_values():
    depot = np.zeros(2)
    assert sim.inc_approx(depot[None], np.array([3.0, 0.0]), 15.75) == \
        pytest.approx(6.0 / 15.75)
    route = np.array([depot, [1.0, 0.0], [5.0, 5.0]])
    assert sim.inc_approx(route, np.array([1.0, 0.0]), 15.75) == 0.0
    assert sim.inc_approx(route, np.array([2.0, 0.0]), 15.75) == \
        pytest.approx(2.0 / 15.75)
    # the depot is closer than any stop
    assert sim.inc_approx(route, np.array([-0.5, 0.0]), 15.75) == \
        pytest.approx(1.0 / 15.75)


def test_normal_overtime():
    assert sim._normal_overtime(5.0, 0.0, 8.0) == 0.0
    assert sim._normal_overtime(10.0, 0.0, 8.0) == 2.0
    # symmetric at the threshold: E[(Y-h)^+] = sd/sqrt(2 pi)
    assert sim._normal_overtime(8.0, 2.0, 8.0) == \
        pytest.approx(2.0 / math.sqrt(2 * math.pi))
    # monte carlo check
    rng = np.random.default_rng(0)
    y = rng.normal(7.0, 1.5, size=200_000)
    mc = np.maximum(y - 8.0, 0.0).mean()
    assert sim._normal_overtime(7.0, 1.5, 8.0) == pytest.approx(mc, abs=5e-3)


def _record(y_u, y_r):
    # one package per truck; day_cost reads only the per-truck times
    N = len(y_u)
    return sim.DayRecord(y_u=np.array(y_u), y_r=np.array(y_r), flex_count=0,
                         sample_idx=np.arange(N), truck=np.arange(N),
                         tours=[np.array([0])] * N)


def test_day_cost_hand_fixtures():
    params = sim.ParcelParams(N=2, T=10)
    rec = _record([3.0, 3.0], [4.0, 4.0])
    total, travel, overtime = sim.day_cost(rec, params)
    assert travel == pytest.approx(2 * 4 * params.c_r)
    assert overtime == 0.0
    assert total == pytest.approx(travel)
    rec = _record([4.0], [5.0])
    total, travel, overtime = sim.day_cost(rec, params)
    assert travel == pytest.approx(5 * params.c_r)
    assert overtime == pytest.approx(1 * params.c_o)
    # recost with a looser shift cap
    total2, _, overtime2 = sim.day_cost(rec, replace(params, h_max=9.0))
    assert overtime2 == 0.0
    assert total2 == pytest.approx(travel)


def test_no_flex_day_structure(small_world):
    corpus, params, _ = small_world
    rec = sim.run_day(sim.ParcelPolicy(kind=sim.NO_FLEX), corpus, params,
                      root_seed=3)
    n_assigned = np.bincount(rec.truck, minlength=params.N)
    assert rec.flex_count == 0
    assert len(rec.truck) == params.T
    assert np.array_equal(rec.truck, corpus.default_zone[rec.sample_idx])
    assert len(rec.y_u) == params.N
    assert np.all(rec.y_u >= 0) and np.all(rec.y_r >= 0)
    # trucks with stops travel a positive time
    assert np.all((n_assigned == 0) | (rec.y_r > 0))
    # each tour visits each of its truck's stops once
    assert [sorted(order) for order in rec.tours] == \
        [list(range(n)) for n in n_assigned]
    # unloading totals are the summed unload times of sampled packages
    assert rec.y_u.sum() == pytest.approx(corpus.unload[rec.sample_idx].sum())


def test_run_day_refuses_params_N_other_than_the_corpus_zones(small_world):
    corpus, params, _ = small_world
    with pytest.raises(ValueError, match="params.N=5 .* zones=4"):
        sim.run_day(sim.ParcelPolicy(kind=sim.NO_FLEX), corpus,
                    replace(params, N=5))


def test_all_policies_couple_on_common_arrivals(small_world):
    corpus, params, tables = small_world
    recs = {}
    for kind in sim.PARCEL_POLICIES:
        recs[kind] = sim.run_day(sim.ParcelPolicy(kind=kind), corpus, params,
                                 tables, root_seed=11)
    base = recs[sim.NO_FLEX]
    for kind, rec in recs.items():
        assert np.array_equal(rec.sample_idx, base.sample_idx)
        assert len(rec.truck) == params.T
        # flex_count counts the packages that left their default truck
        assert rec.flex_count == np.sum(
            rec.truck != corpus.default_zone[rec.sample_idx])
        # unloading work is conserved, only its placement moves
        assert rec.y_u.sum() == pytest.approx(base.y_u.sum())
        assert 0 <= rec.flex_count <= params.T
    assert any(rec.flex_count > 0 for kind, rec in recs.items()
               if kind != sim.NO_FLEX)


def test_day_deterministic(small_world):
    corpus, params, tables = small_world
    pol = sim.ParcelPolicy(kind=sim.PATIENT_DYNAMIC)
    a = sim.run_day(pol, corpus, params, tables, root_seed=5)
    b = sim.run_day(pol, corpus, params, tables, root_seed=5)
    assert np.array_equal(a.y_r, b.y_r)
    assert np.array_equal(a.y_u, b.y_u)
    assert a.flex_count == b.flex_count
    c = sim.run_day(pol, corpus, params, tables, root_seed=6)
    assert not np.array_equal(a.sample_idx, c.sample_idx)


def test_single_zone_everything_to_truck_zero():
    spec = cp.GeometrySpec(n_zones=2, pool_size=200, city_radius_km=5.0,
                           cluster_sd_km=1.0, unload_mean_hours=0.05,
                           unload_sigma=0.5, epsilon=10.0)
    corpus = cp.build_corpus(spec, seed=1)
    params = sim.ParcelParams(N=2, T=60)
    rec = sim.run_day(sim.ParcelPolicy(kind=sim.NO_FLEX), corpus, params,
                      root_seed=0)
    zones = corpus.default_zone[rec.sample_idx]
    assert np.array_equal(np.bincount(rec.truck, minlength=2),
                          np.bincount(zones, minlength=2))


def test_unloading_only_balances_unload_hours(small_world):
    corpus, params, _ = small_world
    no = sim.run_day(sim.ParcelPolicy(kind=sim.NO_FLEX), corpus, params,
                     root_seed=21)
    bal = sim.run_day(sim.ParcelPolicy(kind=sim.UNLOADING_ONLY), corpus,
                      params, root_seed=21)
    assert bal.flex_count > 0
    assert bal.y_u.max() - bal.y_u.min() <= no.y_u.max() - no.y_u.min() + 1e-9


def test_patient_dynamic_collapses_without_projection(small_world):
    # zero projection tables and a huge patience scale make the projected
    # load equal the myopic one-step load
    corpus, params, tables = small_world
    zero = tb.FlexTables(inc=np.zeros_like(tables.inc),
                         ser=np.zeros_like(tables.ser),
                         arrival_prob=tables.arrival_prob,
                         n_obs=tables.n_obs)
    a = sim.run_day(sim.ParcelPolicy(kind=sim.PATIENT_DYNAMIC), corpus,
                    params, zero, root_seed=2)
    big_m2 = sim.ParcelParams(N=params.N, T=params.T, M2=10**9)
    b = sim.run_day(sim.ParcelPolicy(kind=sim.PATIENT_DYNAMIC), corpus,
                    big_m2, tables, root_seed=2)
    assert np.array_equal(a.sample_idx, b.sample_idx)
    assert a.flex_count > 0 and b.flex_count > 0


def test_approximation_reset_by_resolve(small_world):
    # the end-of-day solve is cold even where the mid-day solves were
    # warm: the recorded tours and travel equal a fresh TSP pass over
    # each truck's stops
    corpus, params, tables = small_world
    for kind in sorted(sim.TRAVEL_POLICIES):
        rec = sim.run_day(sim.ParcelPolicy(kind=kind), corpus, params,
                          tables, root_seed=7)
        for k, order in enumerate(rec.tours):
            mine = rec.sample_idx[rec.truck == k]
            order2, hours = oracle.route(corpus.points[mine], corpus.depot,
                                         params.speed)
            assert np.array_equal(order, order2), kind
            assert rec.y_r[k] == hours, kind
            assert rec.y_u[k] == pytest.approx(
                float(corpus.unload[mine].sum()))


def test_cost_min_reacts_to_cost_overrides(small_world):
    corpus, params, tables = small_world
    cheap = sim.run_day(sim.ParcelPolicy(kind=sim.COST_MIN), corpus, params,
                        tables, root_seed=13)
    pricey_params = replace(params, c_o=3000.0)
    pricey = sim.run_day(sim.ParcelPolicy(kind=sim.COST_MIN), corpus,
                         pricey_params, tables, root_seed=13)
    assert np.array_equal(cheap.sample_idx, pricey.sample_idx)
    # decisions are allowed to differ; day structure must stay consistent
    assert len(pricey.truck) == params.T


def test_two_cluster_no_cross_flex_is_cheaper():
    # two tight far-apart blobs: any policy that keeps packages in their
    # own cluster travels no more than a hand-built cross assignment
    left = np.array([[-20.0, 0.0], [-21.0, 0.5], [-20.5, -0.5]])
    right = np.array([[20.0, 0.0], [21.0, 0.5], [20.5, -0.5]])
    depot = np.zeros(2)
    _, own_l = oracle.route(left, depot, 1.0)
    _, own_r = oracle.route(right, depot, 1.0)
    swap = np.vstack([left[:2], right[:1]])
    _, cross = oracle.route(swap, depot, 1.0)
    _, cross2 = oracle.route(np.vstack([right[1:], left[2:]]), depot, 1.0)
    assert own_l + own_r < cross + cross2


def test_mid_day_resolves_only_for_policies_that_read_travel(small_world,
                                                            monkeypatch):
    # run_day reaches the router through the module attribute, so the
    # counting wrapper also checks the benchmark's trace point
    corpus, params, tables = small_world
    params = replace(params, M1=40)
    calls = []
    route = sim.tsp_route

    def counting(points, dist, speed, start=None):
        calls.append((len(points), None if start is None else len(start)))
        return route(points, dist, speed, start=start)

    monkeypatch.setattr(sim, "tsp_route", counting)
    periodic = 1 + (params.T - 1) // params.M1
    for kind, solves in ((sim.NO_FLEX, 1), (sim.UNLOADING_ONLY, 1),
                         (sim.ROUTING_DYNAMIC, periodic),
                         (sim.PATIENT_DYNAMIC, periodic),
                         (sim.COST_MIN, periodic)):
        calls.clear()
        sim.run_day(sim.ParcelPolicy(kind=kind), corpus, params, tables,
                    root_seed=4)
        assert len(calls) == params.N * solves, kind
        # the end-of-day solve is cold and routes every package
        assert all(start is None for _, start in calls[-params.N:])
        assert sum(stops for stops, _ in calls[-params.N:]) == params.T
        # a truck's first mid-day solve is cold; each later one starts
        # from the tour of the truck's previous solve
        mid_day = calls[:-params.N]
        assert all(start is None for _, start in mid_day[:params.N]), kind
        for before, (_, start) in zip(mid_day, mid_day[params.N:]):
            assert start == before[0], kind


def test_no_flex_day_builds_no_flex_mask(small_world, monkeypatch):
    corpus, params, tables = small_world
    calls = []
    mask = sim.flex_mask

    def counting(*args, **kwargs):
        calls.append(1)
        return mask(*args, **kwargs)

    monkeypatch.setattr(sim, "flex_mask", counting)
    sim.run_day(sim.ParcelPolicy(kind=sim.NO_FLEX), corpus, params,
                root_seed=3)
    # nor do the table replays, which are no-flex days
    tb.estimate_flex_tables(corpus, params, reps=2, root_seed=3)
    assert calls == []
    for kind in sim.PARCEL_POLICIES[1:]:
        sim.run_day(sim.ParcelPolicy(kind=kind), corpus, params, tables,
                    root_seed=3)
    assert len(calls) == len(sim.PARCEL_POLICIES) - 1


def test_patient_dynamic_skips_unobserved_pairs(small_world):
    # a pair with no observations is never projected onto, so blanking
    # every pair the day did not flex along leaves the day unchanged;
    # a wide flex radius puts every zone in every flex set
    corpus, params, tables = small_world
    params = replace(params, flex_km=100.0)
    pol = sim.ParcelPolicy(kind=sim.PATIENT_DYNAMIC)
    day = sim.run_day(pol, corpus, params, tables, root_seed=8)
    used = np.zeros(tables.inc.shape, dtype=bool)
    used[corpus.default_zone[day.sample_idx], day.truck] = True
    blank = ~used & ~np.eye(params.N, dtype=bool)
    assert day.flex_count > 0 and blank.any()
    sparse = tb.FlexTables(inc=np.where(blank, np.nan, tables.inc),
                           ser=np.where(blank, np.nan, tables.ser),
                           arrival_prob=tables.arrival_prob,
                           n_obs=np.where(blank, 0, tables.n_obs))
    again = sim.run_day(pol, corpus, params, sparse, root_seed=8)
    assert np.array_equal(again.truck, day.truck)
    assert np.array_equal(again.y_r, day.y_r)


# ---------------------------------------------------------------------------
# whole days pinned by digest: T = 1000 and M1 = 100 give each truck eight
# warm mid-day re-solves, where the golden parcel cases give at most one

DAY_DIGESTS = {
    (sim.NO_FLEX, 0):
        "1f7118b5e77406d84f7023b6f1b7fe039c81896aab6e65d5d1f7eb63e49b9da8",
    (sim.NO_FLEX, 1):
        "235ed56ad3cf6af41bb38da58c3ed6e2ce2e5cfb04f4c5088b08f60443219381",
    (sim.UNLOADING_ONLY, 0):
        "d32051763e4b1f8bb89782b94b3ffa8cddc9173e8eb2e023129b84b91edb3f35",
    (sim.UNLOADING_ONLY, 1):
        "f93a6ef2f4338af7b00b9a017e2941342988f104e8d63a5bc2700590cf19d169",
    (sim.ROUTING_DYNAMIC, 0):
        "dd01cbc2fa7af8c6fceadfb9c49bc93229b47323f75ec6e3d1e685c5440c9612",
    (sim.ROUTING_DYNAMIC, 1):
        "e982b2b2bdb84c0aab316f0eb712007b7431d815509bef9c791dc3d7bed03bb6",
    (sim.PATIENT_DYNAMIC, 0):
        "841647d9a63a375580795f197a28b0b997019f75908137eada932c8143f0e037",
    (sim.PATIENT_DYNAMIC, 1):
        "bd9bb23e8a4d7e17bf995f835af8685c10b312d479b0bf9d49f46b21679646e2",
    (sim.COST_MIN, 0):
        "c986b936ebcdd431ebd11e75a6b0c62e739844bda4bf5c108165f531a3188181",
    (sim.COST_MIN, 1):
        "257f480e82923d707c0e9482f640b30ab3213ff91214e7fadfcadcef5e0ae21d",
}


@pytest.fixture(scope="module")
def warm_world():
    spec = cp.GeometrySpec(n_zones=8, pool_size=1200, city_radius_km=10.0,
                           cluster_sd_km=2.0, epsilon=60.0)
    corpus = cp.build_corpus(spec, seed=2)
    params = sim.ParcelParams(N=8, T=1000, M1=100)
    tables = tb.estimate_flex_tables(corpus, params, reps=3, root_seed=2)
    return corpus, params, tables


def day_digest(rec) -> str:
    """sha256 of a day's per-truck hours, assignment, tours and flex
    count."""
    h = hashlib.sha256()
    for a in (rec.y_u, rec.y_r, rec.truck):
        h.update(a.tobytes())
    for tour in rec.tours:
        h.update(len(tour).to_bytes(8, "little"))
        h.update(np.asarray(tour, dtype=np.int64).tobytes())
    h.update(int(rec.flex_count).to_bytes(8, "little"))
    return h.hexdigest()


@pytest.mark.parametrize("kind,day", sorted(DAY_DIGESTS))
def test_day_outputs_are_pinned(warm_world, kind, day):
    corpus, params, tables = warm_world
    rec = sim.run_day(sim.ParcelPolicy(kind), corpus, params, tables,
                      root_seed=5, stream_path=("pin", day))
    assert kind == sim.NO_FLEX or rec.flex_count > 0
    assert day_digest(rec) == DAY_DIGESTS[kind, day]
