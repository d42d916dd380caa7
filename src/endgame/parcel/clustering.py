"""Default-zone construction: k-means centers followed by a balanced
reassignment solved as a transportation LP.

The reassignment minimizes total package-to-center distance subject to
every zone's package count lying within epsilon of L/N.  The constraint
matrix is a transportation polytope, so simplex vertex optima are
integral; we solve with HiGHS dual simplex and round.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.cluster.vq import kmeans2
from scipy.optimize import linprog
from scipy import sparse


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


def kmeans_centers(points, N: int, seed: int):
    """K-means cluster centers (k-means++ init, run to convergence)."""
    points = np.asarray(points, dtype=float)
    centers, _ = kmeans2(points, N, minit="++", seed=seed, iter=100)
    return centers


def balanced_assign(points, centers, epsilon: float):
    """Minimum-cost balanced assignment of packages to fixed centers.

    Returns (assignment, objective) where assignment[j] is the zone of
    package j and the objective is the summed assigned distance.
    """
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    L, N = len(points), len(centers)
    eps_min = min_feasible_epsilon(L, N)
    if epsilon < eps_min:
        raise EpsilonInfeasibleError(epsilon, eps_min)

    diff = points[:, None, :] - centers[None, :, :]
    cost = np.hypot(diff[..., 0], diff[..., 1])  # (L, N)

    # variables z[j, i] flattened row-major: v = j*N + i
    c = cost.ravel()
    A_eq = sparse.kron(sparse.eye(L, format="csr"),
                       np.ones((1, N)), format="csr")
    b_eq = np.ones(L)
    counts = sparse.kron(np.ones((1, L)),
                         sparse.eye(N, format="csr"), format="csr")
    A_ub = sparse.vstack([counts, -counts], format="csr")
    lo = max(L / N - epsilon, 0.0)
    hi = L / N + epsilon
    b_ub = np.concatenate([np.full(N, hi), np.full(N, -lo)])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, 1), method="highs-ds")
    if not res.success:
        raise RuntimeError(f"balanced assignment LP failed: {res.message}")
    z = res.x.reshape(L, N)
    assignment = z.argmax(axis=1)
    # degenerate bases can leave a handful of fractional entries; repair
    # any count violations by cheapest moves
    assignment = _repair_counts(cost, assignment,
                                math.ceil(lo - 1e-9), math.floor(hi + 1e-9))
    objective = float(cost[np.arange(L), assignment].sum())
    return assignment, objective


def _repair_counts(cost, assignment, lo: int, hi: int):
    N = cost.shape[1]
    counts = np.bincount(assignment, minlength=N)
    while True:
        over = np.flatnonzero(counts > hi)
        under = np.flatnonzero(counts < lo)
        if len(over) == 0 and len(under) == 0:
            return assignment
        if len(over) > 0:
            src = over[0]
            dst_ok = np.flatnonzero(counts < hi)
            dst_ok = dst_ok[dst_ok != src]
        else:
            dst_ok = under[:1]
            src_ok = np.flatnonzero(counts > lo)
            src = None
        if src is not None:
            members = np.flatnonzero(assignment == src)
            extra = cost[members][:, dst_ok] - cost[members, src][:, None]
            m, d = np.unravel_index(extra.argmin(), extra.shape)
            assignment[members[m]] = dst_ok[d]
            counts[src] -= 1
            counts[dst_ok[d]] += 1
        else:
            dst = dst_ok[0]
            cand_mask = np.isin(assignment, src_ok)
            members = np.flatnonzero(cand_mask)
            extra = cost[members, dst] - cost[members, assignment[members]]
            m = extra.argmin()
            counts[assignment[members[m]]] -= 1
            assignment[members[m]] = dst
            counts[dst] += 1


def cluster_default(points, N: int, epsilon: float, seed: int):
    """K-means centers plus balanced min-cost reassignment.

    Returns (centers, assignment, objective).
    """
    centers = kmeans_centers(points, N, seed)
    assignment, objective = balanced_assign(points, centers, epsilon)
    return centers, assignment, objective
