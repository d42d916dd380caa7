import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.cluster.vq import kmeans2

import oracle
from endgame.parcel import clustering
from endgame.parcel import corpus as cp
from endgame.streams import stream


def test_min_feasible_epsilon():
    assert clustering.min_feasible_epsilon(12, 4) == 0.0
    assert clustering.min_feasible_epsilon(10, 4) == 0.5
    assert clustering.min_feasible_epsilon(7, 3) == pytest.approx(2 / 3)


def test_collinear_split():
    pts = np.array([[0.0, 0], [1.0, 0], [10.0, 0], [11.0, 0]])
    centers = np.array([[0.5, 0.0], [10.5, 0.0]])
    assignment, obj = clustering.balanced_assign(pts, centers, 0.0)
    assert list(assignment) == [0, 0, 1, 1]
    assert obj == pytest.approx(2.0)


def test_balance_forces_reassignment():
    # three points near center 0, one near center 1; eps=0 forces a 2/2 split
    pts = np.array([[0.0, 0], [0.1, 0], [0.2, 0], [10.0, 0]])
    centers = np.array([[0.0, 0.0], [10.0, 0.0]])
    assignment, obj = clustering.balanced_assign(pts, centers, 0.0)
    assert sorted(np.bincount(assignment, minlength=2)) == [2, 2]
    # the farthest of the three is the one moved
    assert assignment[2] == 1 and assignment[0] == 0 and assignment[1] == 0


def test_infeasible_epsilon_reports_minimum():
    pts = np.zeros((10, 2))
    centers = np.zeros((4, 2))
    with pytest.raises(clustering.EpsilonInfeasibleError) as err:
        clustering.balanced_assign(pts, centers, 0.25)
    assert err.value.minimal == 0.5
    assert "0.5" in str(err.value)


def test_counts_within_epsilon_and_beats_greedy():
    rng = stream(0, "clustering")
    pts = rng.normal(size=(400, 2)) * np.array([3.0, 1.0])
    eps_min = clustering.min_feasible_epsilon(len(pts), 7)
    for N, eps in ((5, 0.0), (7, 2.0), (8, 0.0), (7, eps_min)):
        centers = clustering.kmeans_centers(pts, N, seed=1)
        assignment, obj = clustering.balanced_assign(pts, centers, eps)
        counts = np.bincount(assignment, minlength=N)
        assert counts.sum() == len(pts)
        lo, hi = clustering.count_bounds(len(pts), N, eps)
        assert (lo, hi) == (np.ceil(len(pts) / N - eps - 1e-9),
                            np.floor(len(pts) / N + eps + 1e-9))
        assert np.all(counts >= lo) and np.all(counts <= hi)
        assert oracle.zone_move_gap(pts, centers, assignment,
                                    lo, hi) >= -1e-9
        g_assignment, g_obj = oracle.greedy_repair_assign(
            pts, centers, eps)
        assert obj <= g_obj + 1e-9


def test_fractional_lp_answer_raises(monkeypatch):
    pts = np.array([[0.0, 0], [1.0, 0], [10.0, 0], [11.0, 0]])
    centers = np.array([[0.5, 0.0], [10.5, 0.0]])

    def halves(c, **kwargs):
        return SimpleNamespace(success=True, x=np.full(len(c), 0.5))
    monkeypatch.setattr(oracle, "linprog", halves)
    with pytest.raises(RuntimeError, match="fractional"):
        oracle.lp_balanced_assign(pts, centers, 0.0)


def _layout(rng, L, N, points, unused):
    """(points, centers) of one oracle case: packages spread out, on a
    line, on a few repeated locations, spread out but for one far
    outlier, or in clusters of near-zero spread; with ``unused``, the
    last center is far from every package or a copy of the first, so no
    package is nearest to it."""
    if points in ("spread", "outlier"):
        pts = rng.normal(size=(L, 2)) * 3.0
        if points == "outlier":
            pts[rng.integers(0, L)] = [4e5, -3e5]
    elif points == "collinear":
        t = rng.normal(size=L) * 3.0
        pts = np.column_stack([t, 0.5 * t - 2.0])
    elif points == "duplicates":
        k = max(L // 5, 1)
        pts = rng.normal(size=(k, 2))[rng.integers(0, k, L)]
    else:
        seeds = rng.normal(size=(N, 2)) * 5.0
        pts = seeds[rng.integers(0, N, L)] + rng.normal(size=(L, 2)) * 1e-9
    centers = rng.normal(size=(N, 2)) * 3.0
    if N > 1 and unused == "far":
        centers[-1] = [100.0, 100.0]
    elif N > 1 and unused == "copy":
        centers[-1] = centers[0]
    return pts, centers


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
# N = 1 comes last, as hypothesis favours the first value listed
@given(N=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 1]),
       extra=st.integers(0, 292),
       points=st.sampled_from(["spread", "duplicates", "zero_spread"]),
       unused=st.sampled_from(["none", "far", "copy"]),
       slack=st.sampled_from([0.0, 0.5, 1.0, 4.0, 20.0, 1e3]),
       seed=st.integers(0, 2**16))
@example(N=1, extra=40, points="spread", unused="none", slack=0.0, seed=0)
@example(N=6, extra=0, points="duplicates", unused="far", slack=0.0, seed=1)
def test_balanced_assign_matches_the_lp(N, extra, points, unused, slack,
                                        seed):
    # L = N + extra <= 300 packages, epsilon from the least feasible up
    L = N + extra
    pts, centers = _layout(stream(seed, "balanced-oracle"), L, N, points,
                           unused)
    eps = clustering.min_feasible_epsilon(L, N) + slack
    assignment, obj = clustering.balanced_assign(pts, centers, eps)
    lo, hi = clustering.count_bounds(L, N, eps)
    counts = np.bincount(assignment, minlength=N)
    assert counts.min() >= lo and counts.max() <= hi
    _, lp_obj = oracle.lp_balanced_assign(pts, centers, eps)
    assert abs(obj - lp_obj) <= 1e-6
    assert oracle.zone_move_gap(pts, centers, assignment, lo, hi) >= -1e-9
    # the all-pairs solver: the same zones where costs are distinct, the
    # same objective where they tie
    fw, fw_obj = oracle.floyd_warshall_balanced_assign(pts, centers, eps)
    if points == "spread" and unused != "copy":
        assert np.array_equal(assignment, fw)
    else:
        assert abs(obj - fw_obj) <= 1e-9


def _kmeans2(points, N, seed):
    """The oracle's centers; its warning about an empty cluster is moot."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return kmeans2(points, N, minit="++", seed=seed, iter=100)[0]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(N=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 1]),
       extra=st.integers(0, 300),
       points=st.sampled_from(["spread", "collinear", "duplicates",
                               "zero_spread", "outlier"]),
       seed=st.integers(0, 2**31 - 2))
@example(N=1, extra=30, points="spread", seed=0)
@example(N=5, extra=0, points="collinear", seed=1)  # L = N
@example(N=8, extra=2, points="duplicates", seed=2)  # two locations
@example(N=6, extra=0, points="duplicates", seed=3)  # one location
@example(N=4, extra=200, points="zero_spread", seed=4)
def test_kmeans_centers_match_scipy_kmeans2(N, extra, points, seed):
    # bit for bit, empty clusters included
    pts, _ = _layout(stream(seed, "kmeans-oracle"), N + extra, N, points,
                     "none")
    assert np.array_equal(clustering.kmeans_centers(pts, N, seed),
                          _kmeans2(pts, N, seed))


class _Clustered(Exception):
    pass


@pytest.mark.parametrize("seed", range(4))
def test_kmeans_centers_match_scipy_kmeans2_on_cities(monkeypatch, seed):
    # the points and k-means seed of the default corpus of each seed
    def capture(points, N, epsilon, kseed):
        raise _Clustered(points, N, kseed)
    monkeypatch.setattr(cp, "cluster_default", capture)
    with pytest.raises(_Clustered) as city:
        cp.build_corpus(cp.GeometrySpec(), seed)
    assert np.array_equal(clustering.kmeans_centers(*city.value.args),
                          _kmeans2(*city.value.args))


def test_zero_epsilon_matches_unconstrained_when_already_balanced():
    # two tight blobs of equal size: balance constraint is slack
    rng = stream(0, "blobs")
    a = rng.normal(size=(20, 2)) * 0.1
    b = rng.normal(size=(20, 2)) * 0.1 + np.array([50.0, 0.0])
    pts = np.vstack([a, b])
    centers = np.array([[0.0, 0.0], [50.0, 0.0]])
    assignment, _ = clustering.balanced_assign(pts, centers, 0.0)
    diff = pts[:, None, :] - centers[None, :, :]
    nearest = np.hypot(diff[..., 0], diff[..., 1]).argmin(axis=1)
    assert np.array_equal(assignment, nearest)


def test_cluster_default_deterministic():
    rng = stream(0, "cluster-det")
    pts = rng.uniform(-10, 10, size=(120, 2))
    c1, a1, o1 = clustering.cluster_default(pts, 6, 0.0, seed=3)
    c2, a2, o2 = clustering.cluster_default(pts, 6, 0.0, seed=3)
    assert np.array_equal(c1, c2)
    assert np.array_equal(a1, a2)
    assert o1 == o2
