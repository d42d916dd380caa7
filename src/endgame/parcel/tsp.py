"""Tour construction for truck routes.

A cold route is built by nearest-neighbor from the depot; a warm route
starts from an earlier tour over a prefix of the stops and
cheapest-inserts the stops added since.  Either is then improved by
best-improvement 2-opt.  A caller that routes a growing stop list can
grow its distance matrix too: ``dist_matrix`` keeps the matrix of a
prefix and computes only the new stops' rows and columns, bit for bit
as a full rebuild would, and ``tsp_route`` takes the result."""

from __future__ import annotations

import numpy as np


def dist_matrix(coords, prev=None):
    """Pairwise distances of the (n, 2) ``coords``, the depot first.

    ``prev``, the matrix of the first ``len(prev)`` coords, is copied in
    and only the later rows and columns are computed.  Entry (i, j) is
    always ``hypot(x[i] - x[j], y[i] - y[j])``, so a grown matrix equals
    a full rebuild bit for bit.
    """
    x, y = coords[:, 0], coords[:, 1]
    n, m = len(coords), 0 if prev is None else len(prev)
    if m == 0:
        return np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    D = np.empty((n, n))
    D[:m, :m] = prev
    np.hypot(x[:m, None] - x[None, m:], y[:m, None] - y[None, m:],
             out=D[:m, m:])
    np.hypot(x[m:, None] - x[None, :], y[m:, None] - y[None, :], out=D[m:])
    return D


def tour_length(D, order):
    """Length of the closed tour depot -> order -> depot.  ``order`` holds
    indices into the points array (0-based, excluding the depot)."""
    arr = np.concatenate(([0], np.asarray(order, dtype=np.int64) + 1, [0]))
    return float(D[arr[:-1], arr[1:]].sum())


def nearest_neighbor_order(D):
    """Greedy construction starting from the depot (node 0 of D)."""
    n = D.shape[0] - 1
    W = D.copy()  # a visited node's column is +inf
    W[:, 0] = np.inf
    order = np.empty(n, dtype=np.int64)
    cur = 0
    for step in range(n):
        cur = int(W[cur].argmin())
        W[:, cur] = np.inf
        order[step] = cur - 1
    return order


_NO_MOVE = np.ones((0, 0), dtype=bool)


def _no_move(n):
    """The (n, n) mask of the pairs i >= k, which are no 2-opt move.  It
    is a view of one mask, built again only for a larger n than any so
    far, so it costs no build per call and holds only the largest tour's
    n * n bytes."""
    global _NO_MOVE
    if len(_NO_MOVE) < n:
        _NO_MOVE = np.arange(n)[:, None] >= np.arange(n)
    return _NO_MOVE[:n, :n]


def two_opt(D, order):
    """Best-improvement 2-opt until no improving move remains.

    ``P`` holds the distances between tour positions (depot at both
    ends), so a move's delta reads contiguous views of it: replacing
    edges (i, i+1) and (k+1, k+2) by (i, k+1) and (i+1, k+2) changes the
    length by P[i, k+1] + P[i+1, k+2] - P[i, i+1] - P[k+1, k+2].  A move
    reverses the segment in the tour and in P's rows and columns alike.
    """
    n = len(order)
    if n < 3:
        return np.asarray(order, dtype=np.int64)
    arr = np.concatenate(([0], np.asarray(order, dtype=np.int64) + 1, [0]))
    P = D.take(arr, axis=0).take(arr, axis=1)
    d1 = P.diagonal(1)  # a view: P[j, j+1], the tour's edges
    lower = _no_move(n)
    delta = np.empty((n, n))
    while True:
        np.add(P[:n, 1:n + 1], P[1:n + 1, 2:], out=delta)
        delta -= d1[:n, None]
        delta -= d1[None, 1:]
        np.copyto(delta, np.inf, where=lower)
        flat = delta.argmin()
        i, k = divmod(int(flat), n)
        if delta[i, k] >= -1e-12:
            break
        s = slice(i + 1, k + 2)
        arr[s] = arr[s][::-1]
        P[s] = P[s][::-1]
        P[:, s] = P[:, s][:, ::-1]
    return arr[1:-1] - 1


def cheapest_insertion(D, start):
    """Extend the tour ``start`` over the first ``len(start)`` points by
    inserting each later point of D, in index order, into the edge where
    it adds the least length (the first such edge on a tie)."""
    m = len(start)
    n = D.shape[0] - 1
    arr = np.zeros(n + 2, dtype=np.int64)  # the depot at both ends
    arr[1:m + 1] = start
    arr[1:m + 1] += 1
    for j in range(m + 1, n + 1):
        a, b = arr[:j], arr[1:j + 1]  # the tour's edges so far
        row = D[j]  # D is symmetric: D[j, a] == D[a, j]
        e = int((row[a] + row[b] - D[a, b]).argmin()) + 1
        arr[e + 1:j + 1] = arr[e:j].copy()
        arr[e] = j
    return arr[1:-1] - 1


def tsp_route(points, dist, speed: float, start=None):
    """Closed tour over ``points`` from the depot, then 2-opt, on
    ``dist``, the ``dist_matrix`` of the depot and ``points``.

    With ``start=None`` the tour is built by nearest-neighbor.  Otherwise
    ``start`` is an earlier tour over the first ``len(start)`` points,
    and the later points are cheapest-inserted into it.  Returns (order,
    travel_hours).  No points yield ([], 0.0); travel hours are Euclidean
    tour length divided by ``speed``.
    """
    if len(points) == 0:
        return np.array([], dtype=np.int64), 0.0
    first = (nearest_neighbor_order(dist) if start is None
             else cheapest_insertion(dist, start))
    order = two_opt(dist, first)
    return order, tour_length(dist, order) / speed
