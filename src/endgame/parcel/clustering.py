"""Default-zone construction: k-means centers followed by a balanced
reassignment solved as a transportation LP.

The reassignment minimizes total package-to-center distance subject to
every zone's package count being an integer within epsilon of L/N.  The
count bounds are integers and the constraint matrix (one assignment row
per package, one count row per zone) is totally unimodular, so every
vertex of the polytope is 0/1: HiGHS dual simplex returns an integral
optimum, read off by argmax, and a fractional answer raises.
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


def count_bounds(L: int, N: int, epsilon: float) -> tuple[int, int]:
    """The integer zone counts (lo, hi) within epsilon of L/N; the 1e-9
    keeps epsilon = :func:`min_feasible_epsilon` feasible."""
    return (max(math.ceil(L / N - epsilon - 1e-9), 0),
            math.floor(L / N + epsilon + 1e-9))


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
    lo, hi = count_bounds(L, N, epsilon)
    b_ub = np.concatenate([np.full(N, hi), np.full(N, -lo)])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, 1), method="highs-ds")
    if not res.success:
        raise RuntimeError(f"balanced assignment LP failed: {res.message}")
    z = res.x.reshape(L, N)
    if z.max(axis=1).min() < 1.0 - 1e-9:
        raise RuntimeError("balanced assignment LP returned a fractional "
                           "vertex")
    assignment = z.argmax(axis=1)
    objective = float(cost[np.arange(L), assignment].sum())
    return assignment, objective


def cluster_default(points, N: int, epsilon: float, seed: int):
    """K-means centers plus balanced min-cost reassignment.

    Returns (centers, assignment, objective).
    """
    centers = kmeans_centers(points, N, seed)
    assignment, objective = balanced_assign(points, centers, epsilon)
    return centers, assignment, objective
