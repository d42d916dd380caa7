"""Default-zone construction: k-means centers followed by an exact
balanced reassignment, which minimizes total package-to-center distance
subject to every zone's package count being an integer within epsilon of
L/N (successive shortest paths on the zone move graph).
"""

from __future__ import annotations

import math

import numpy as np


class EpsilonInfeasibleError(ValueError):
    def __init__(self, epsilon: float, minimal: float):
        self.minimal = minimal
        super().__init__(
            f"zone balance tolerance epsilon={epsilon} is infeasible; "
            f"minimal feasible epsilon is {minimal}")


def min_feasible_epsilon(L: int, N: int) -> float:
    """Smallest epsilon for which integer zone counts in
    [L/N - eps, L/N + eps] can sum to L."""
    frac = L / N - L // N
    if frac == 0.0:
        return 0.0
    return max(frac, 1.0 - frac)


def count_bounds(L: int, N: int, epsilon: float) -> tuple[int, int]:
    """The integer zone counts (lo, hi) within epsilon of L/N; the 1e-9
    keeps epsilon = :func:`min_feasible_epsilon` feasible."""
    return (max(math.ceil(L / N - epsilon - 1e-9), 0),
            math.floor(L / N + epsilon + 1e-9))


def kmeans_centers(points, N: int, seed: int):
    """K-means cluster centers: k-means++ seeding from
    ``np.random.RandomState(seed)``, then 100 Lloyd iterations.

    Seeding picks the first center with ``randint(0, L)`` and each later
    one with one ``uniform()`` placed by ``searchsorted`` in the
    cumulative sum of ``D2 / D2.sum()``, where D2 is a point's least
    squared distance ``dx*dx + dy*dy`` to the centers so far.  Each
    iteration labels every point with its nearest center by that squared
    distance, the first one on a tie, and moves each center to the mean
    ``bincount(label, weights=x) / count`` of its points; a center
    without points stays where it is.

    Hamerly's bounds ("Making k-means even faster", SDM 2010) spare most
    of the labelling: ``upper`` bounds a point's distance to its center
    from above, ``lower`` its distance to every other center from below,
    and a center moving by ``moved`` loosens them by as much.  A point
    keeps its label, unrecomputed, while ``upper`` stays below ``lower``
    and below half its center's distance to the nearest other center.
    Each bound drifts by a few ulps of the coordinates' scale per
    iteration; ``margin``, 1e-9 of that scale, widens every test by far
    more than 100 iterations of drift, so a label it keeps is the one a
    full argmin of the squared distances would give.
    """
    points = np.asarray(points, dtype=float)
    x, y = points[:, 0], points[:, 1]
    L = len(points)
    rng = np.random.RandomState(seed)
    centers = np.empty((N, 2))
    centers[0] = points[rng.randint(0, L, dtype="int64")]
    D2 = np.full(L, np.inf)
    for i in range(1, N):
        dx, dy = centers[i - 1, 0] - x, centers[i - 1, 1] - y
        np.minimum(D2, dx * dx + dy * dy, out=D2)
        with np.errstate(invalid="ignore"):  # D2 all zero: 0 / 0
            cumulative = (D2 / D2.sum()).cumsum()
        centers[i] = points[int(np.searchsorted(cumulative, rng.uniform()))]

    margin = 1e-9 * float(np.abs(points).max())
    label = np.zeros(L, dtype=np.int64)
    upper = np.full(L, np.inf)
    lower = np.full(L, -np.inf)
    moved = np.zeros(N)
    for _ in range(100):
        upper += moved[label]
        lower -= moved.max()
        gap = centers[:, None] - centers
        apart = np.hypot(gap[..., 0], gap[..., 1])
        np.fill_diagonal(apart, np.inf)
        bound = np.maximum(lower, 0.5 * apart.min(axis=1)[label])
        todo = np.flatnonzero(upper + margin >= bound)
        gap = centers[label[todo]] - points[todo]
        gap *= gap
        upper[todo] = np.sqrt(gap[:, 0] + gap[:, 1])
        todo = todo[upper[todo] + margin >= bound[todo]]
        # the labels the bounds leave open: a full argmin
        d2 = centers[:, 0] - x[todo, None]
        d2 *= d2
        dy = centers[:, 1] - y[todo, None]
        dy *= dy
        d2 += dy
        label[todo] = best = d2.argmin(axis=1)
        rows = np.arange(len(todo))
        upper[todo] = np.sqrt(d2[rows, best])
        d2[rows, best] = np.inf
        lower[todo] = np.sqrt(d2.min(axis=1))
        count = np.bincount(label, minlength=N)
        with np.errstate(invalid="ignore"):  # an empty center: 0 / 0
            means = np.column_stack(
                [np.bincount(label, weights=x, minlength=N) / count,
                 np.bincount(label, weights=y, minlength=N) / count])
        means[count == 0] = centers[count == 0]
        gap = means - centers
        moved = np.hypot(gap[:, 0], gap[:, 1])
        centers = means
    return centers


def balanced_assign(points, centers, epsilon: float):
    """Minimum-cost balanced assignment of packages to fixed centers.

    A min-cost flow whose residual graph, condensed to the N zones, has
    the arc a -> b of cost W[a, b], the cheapest move of one package of
    zone a to zone b.  From the nearest-center assignment (optimal for its
    own counts), each step moves one package along every arc of a
    cheapest zone path, which keeps all zone cycles nonnegative, until no
    path of negative cost leads from a zone above its lower count bound
    to one below its upper bound: the flow's optimality condition.

    Returns (assignment, objective) where assignment[j] is the zone of
    package j and the objective is the summed assigned distance.
    """
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    L, N = len(points), len(centers)
    eps_min = min_feasible_epsilon(L, N)
    if epsilon < eps_min:
        raise EpsilonInfeasibleError(epsilon, eps_min)
    lo, hi = count_bounds(L, N, epsilon)
    diff = points[:, None, :] - centers[None, :, :]
    cost = np.hypot(diff[..., 0], diff[..., 1])  # (L, N)
    assignment = cost.argmin(axis=1)
    counts = np.bincount(assignment, minlength=N)
    W = np.full((N, N), np.inf)
    mover = np.zeros((N, N), dtype=np.int64)  # the package moved a -> b

    def refresh(a):
        members = np.flatnonzero(assignment == a)
        W[a] = np.inf
        if len(members):
            delta = cost[members] - cost[members, a, None]
            best = delta.argmin(axis=0)
            W[a], mover[a] = delta[best, np.arange(N)], members[best]
        W[a, a] = np.inf

    for a in range(N):
        refresh(a)
    # a path out of a zone above hi or into one below lo beats any other
    bonus = 1.0 + 2.0 * N * float(np.ptp(cost))
    open_pair = ~np.eye(N, dtype=bool)
    for _ in range(L * N + 1):
        # Floyd-Warshall: D[a, b] the cheapest path cost (a cycle on the
        # diagonal), hop[a, b] its first step; only a gain over 1e-12
        # replaces a path, so rounding-size cycles never enter one
        D, hop = W.copy(), np.tile(np.arange(N), (N, 1))
        for k in range(N):
            via = D[:, k, None] + D[k]
            better = via < D - 1e-12
            D = np.where(better, via, D)
            hop = np.where(better, hop[:, k, None], hop)
        assert D.diagonal().min() >= -1e-9, "negative zone cycle"
        total = np.where(
            (counts > lo)[:, None] & (counts < hi)[None, :] & open_pair,
            D - bonus * ((counts > hi)[:, None] + (counts < lo)[None, :]),
            np.inf)
        s, t = np.unravel_index(total.argmin(), total.shape)
        if total[s, t] >= -1e-12:
            return assignment, float(cost[np.arange(L), assignment].sum())
        path = [s]
        while path[-1] != t:
            path.append(hop[path[-1], t])
            assert len(path) <= N, "negative zone cycle"
        for a, b in zip(path, path[1:]):
            assignment[mover[a, b]] = b
        counts[s] -= 1
        counts[t] += 1
        for a in path:
            refresh(a)
    raise RuntimeError(f"balanced assignment took over {L * N} steps")


def cluster_default(points, N: int, epsilon: float, seed: int):
    """K-means centers plus balanced min-cost reassignment.

    Returns (centers, assignment, objective).
    """
    centers = kmeans_centers(points, N, seed)
    assignment, objective = balanced_assign(points, centers, epsilon)
    return centers, assignment, objective
