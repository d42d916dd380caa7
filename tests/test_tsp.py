import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracle
from endgame.parcel import tsp
from endgame.streams import stream


def brute_force_length(points, depot):
    points = np.asarray(points, dtype=float)
    D = tsp.dist_matrix(oracle.coords(points, depot))
    best = math.inf
    for perm in itertools.permutations(range(len(points))):
        best = min(best, tsp.tour_length(D, list(perm)))
    return best


def test_empty_and_singleton():
    order, hours = oracle.route([], (0, 0), 10.0)
    assert len(order) == 0 and hours == 0.0
    order, hours = oracle.route([(3.0, 4.0)], (0, 0), 10.0)
    assert list(order) == [0]
    assert hours == pytest.approx(2 * 5.0 / 10.0)  # out and back


def test_unit_square_tour():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    order, hours = oracle.route(pts[1:], pts[0], 1.0)
    assert hours == pytest.approx(4.0)
    assert oracle.held_karp_length(pts[1:], pts[0]) == pytest.approx(4.0)


def test_held_karp_matches_brute_force():
    rng = stream(0, "tsp-oracle")
    for n in (2, 4, 6, 7):
        pts = rng.uniform(-5, 5, size=(n, 2))
        depot = rng.uniform(-5, 5, size=2)
        assert oracle.held_karp_length(pts, depot) == \
            pytest.approx(brute_force_length(pts, depot))


def test_heuristic_near_optimal_and_never_below_optimum():
    rng = stream(0, "tsp-quality")
    ratios = []
    for _ in range(20):
        n = int(rng.integers(3, 10))
        pts = rng.uniform(-8, 8, size=(n, 2))
        depot = np.zeros(2)
        order, hours = oracle.route(pts, depot, 1.0)
        assert sorted(order) == list(range(n))
        opt = oracle.held_karp_length(pts, depot)
        assert hours >= opt - 1e-9
        ratios.append(hours / opt if opt > 0 else 1.0)
    assert max(ratios) < 1.05


def test_insertion_delta_cases():
    depot = np.zeros(2)
    # empty tour: round trip to the new point
    assert oracle.insertion_delta([], depot, (3.0, 4.0)) == pytest.approx(10.0)
    # point on an existing edge costs nothing
    tour = [(2.0, 0.0), (2.0, 2.0)]
    assert oracle.insertion_delta(tour, depot, (1.0, 0.0)) == \
        pytest.approx(0.0)
    # detour: insert (0,2) into depot->(2,0)->depot, cheapest edge split
    d = oracle.insertion_delta([(2.0, 0.0)], depot, (0.0, 2.0))
    assert d == pytest.approx(2 + 2 * math.sqrt(2) - 2)
    assert d >= 0


def test_removal_delta_cases():
    depot = np.zeros(2)
    tour = [(2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
    # dropping the middle corner of the square saves 2 + 2 - 2*sqrt(2)
    assert oracle.removal_delta(tour, depot, 1) == \
        pytest.approx(4 - 2 * math.sqrt(2))
    # collinear stop saves nothing
    line = [(1.0, 0.0), (2.0, 0.0)]
    assert oracle.removal_delta(line, depot, 0) == pytest.approx(0.0)
    for pos in range(3):
        assert oracle.removal_delta(tour, depot, pos) >= -1e-12


def test_insertion_then_removal_roundtrip_bound():
    # removing a freshly inserted point at its insertion spot recovers
    # at most the insertion cost
    rng = stream(0, "tsp-roundtrip")
    depot = np.zeros(2)
    tour = rng.uniform(-4, 4, size=(5, 2))
    new = rng.uniform(-4, 4, size=2)
    ins = oracle.insertion_delta(tour, depot, new)
    deltas = [oracle.removal_delta(np.vstack([tour[:k], new[None], tour[k:]]),
                                depot, k)
              for k in range(6)]
    assert any(math.isclose(d, ins, rel_tol=1e-9) for d in deltas)


# ---------------------------------------------------------------------------
# the routing routines return the oracle's tours exactly

def _points(layout, n, rng):
    """``n`` stops: spread out, on a small lattice (many equal distances),
    drawn from a few distinct sites (duplicate stops), or on one line."""
    if layout == "uniform":
        return rng.uniform(-10, 10, size=(n, 2))
    if layout == "lattice":
        return rng.integers(0, 4, size=(n, 2)).astype(float)
    if layout == "duplicates":
        sites = rng.uniform(-5, 5, size=(max(n // 4, 1), 2))
        return sites[rng.integers(0, len(sites), size=n)]
    t = np.round(rng.uniform(0, 10, size=n), 1)  # collinear
    return np.array([1.0, -2.0]) + t[:, None] * np.array([0.6, 0.8])


def _improving_moves(D, order):
    """Every 2-opt move on the tour whose delta is below -1e-12."""
    n = len(order)
    if n < 3:
        return []
    arr = np.concatenate(([0], order + 1, [0]))
    i, k = np.triu_indices(n, 1)
    delta = (D[arr[i], arr[k + 1]] + D[arr[i + 1], arr[k + 2]]
             - D[arr[i], arr[i + 1]] - D[arr[k + 1], arr[k + 2]])
    bad = delta < -1e-12
    return list(zip(i[bad].tolist(), k[bad].tolist()))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 130), seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["uniform", "lattice", "duplicates",
                               "collinear"]),
       depot_on_stop=st.booleans())
def test_routing_matches_oracle(n, seed, layout, depot_on_stop):
    rng = stream(0, "tsp-property", seed)
    pts = _points(layout, n, rng)
    depot = (pts[rng.integers(0, n)] if depot_on_stop and n
             else rng.uniform(-10, 10, size=2))
    coords = oracle.coords(pts, depot)
    diff = coords[:, None, :] - coords[None, :, :]
    D = tsp.dist_matrix(coords)
    assert np.array_equal(D, np.hypot(diff[..., 0], diff[..., 1]))
    nn = tsp.nearest_neighbor_order(D)
    assert np.array_equal(nn, oracle.nearest_neighbor_order(D))
    # from the greedy tour, as tsp_route runs it, and from a random one,
    # which takes many more moves
    for start in (nn, rng.permutation(n)):
        order = tsp.two_opt(D, start)
        assert np.array_equal(order, oracle.two_opt(D, start))
        assert _improving_moves(D, order) == []
    order, hours = tsp.tsp_route(pts, D, 2.0)
    assert sorted(order) == list(range(n))
    if n >= 1:
        assert np.array_equal(order, oracle.two_opt(D, nn))
        assert hours == tsp.tour_length(D, order) / 2.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 130), cut=st.floats(0, 1),
       seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["uniform", "lattice", "duplicates",
                               "collinear"]))
def test_warm_route_extends_a_prefix_tour(n, cut, seed, layout):
    rng = stream(0, "tsp-warm", seed)
    pts = _points(layout, n, rng)
    depot = rng.uniform(-10, 10, size=2)
    m = int(cut * n)
    prefix, _ = oracle.route(pts[:m], depot, 2.0)
    order, hours = oracle.route(pts, depot, 2.0, start=prefix)
    assert sorted(order) == list(range(n))
    if n == 0:
        return
    D = tsp.dist_matrix(oracle.coords(pts, depot))
    inserted = tsp.cheapest_insertion(D, prefix)
    assert np.array_equal(inserted, oracle.cheapest_insertion(D, prefix))
    assert hours * 2.0 <= tsp.tour_length(D, inserted) + 1e-9
    assert _improving_moves(D, order) == []
    assert hours == tsp.tour_length(D, order) / 2.0
    # without a start tour the route is the cold one, bit for bit
    cold, cold_hours = oracle.route(pts, depot, 2.0, start=None)
    nn = oracle.nearest_neighbor_order(D)
    assert np.array_equal(cold, oracle.two_opt(D, nn))
    assert cold_hours == tsp.tour_length(D, cold) / 2.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["uniform", "lattice", "duplicates",
                               "collinear"]),
       cuts=st.lists(st.floats(0, 1), max_size=4))
def test_grown_matrix_is_the_full_one(n, seed, layout, cuts):
    rng = stream(0, "tsp-grow", seed)
    pts = _points(layout, n, rng)
    depot = rng.uniform(-10, 10, size=2)
    coords = oracle.coords(pts, depot)
    D = tsp.dist_matrix(coords)
    order, hours = tsp.tsp_route(pts, D, 2.0)
    # grown in one step from every prefix of the stops
    for m in range(n + 1):
        grown = tsp.dist_matrix(coords, tsp.dist_matrix(coords[:m + 1]))
        assert np.array_equal(grown, D), m
    # and through a chain of prefixes, as a day's re-solves grow it
    grown = None
    for m in sorted(int(c * n) for c in cuts) + [n]:
        grown = tsp.dist_matrix(coords[:m + 1], grown)
        assert np.array_equal(grown, D[:m + 1, :m + 1]), m
    order2, hours2 = tsp.tsp_route(pts, grown, 2.0)
    assert np.array_equal(order2, order) and hours2 == hours


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=hnp.arrays(np.float64, st.integers(1, 64),
                    elements=st.floats(-1e6, 1e6)
                    | st.floats(allow_nan=False)))
def test_sum_over_length_is_the_mean_bit_for_bit(x):
    # the parcel threshold reads a mean as x.sum() / N; huge entries
    # overflow both sides alike
    with np.errstate(over="ignore", invalid="ignore"):
        assert (x.sum() / len(x)).tobytes() == x.mean().tobytes()
