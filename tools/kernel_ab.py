#!/usr/bin/env python3
"""The ``kernel`` workload of ``tools/bench_ab.py``: the policy kernel,
``bins_engine.lockstep``, timed per policy on fixed drawn blocks.

Each side runs its own tree's copy of this script, as ``tools/kernel_ab.py
--worker --size Z --seed N``, so that the private kernel calls it makes
match its ``src/``; it imports ``endgame`` from that ``src/`` only and
prints one JSON line ``{"endgame", "cases": {case: {policy: {ns_per_ball,
digest}}}}``.  It draws each case's block once from root seed N, through
the side's own draw path (its windows joined), and times ``lockstep`` on
it for every policy (best of the size's repeats):

- bins, N=5, q=0.1, numerics preset, dynamic latched: T = 1e4 and 1e5,
  100 rows each, no stop;
- opaque, N=5, q=0.1, numerics preset: S = 400 and 3200, 300 cycles each,
  horizon N(S-1)+1, stopped at S.

A ball is a period a row ran, so ns/ball is the time over the sum of
``stop_time``; the digest is the sha256 of the result arrays.  Two sides
on different stream layouts draw different blocks, so their digests
differ by design and only their ns/ball compare.  ``--size tiny`` runs
small cases, two repeats, in seconds; its bins T = 5000 spans two
4096-period windows, so its digests cover a block joined from several
windows.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from bench_ab import serve_worker  # noqa: E402

N, Q = 5, 0.1
POLICIES = ("no_flex", "always_flex", "static", "dynamic", "flex_sqrt_t")
SIZES = {
    "paper": {"bins_T": [10_000, 100_000], "bins_rows": 100,
              "opaque_S": [400, 3200], "opaque_rows": 300, "repeats": 5},
    "tiny": {"bins_T": [1_000, 5_000], "bins_rows": 20,
             "opaque_S": [20, 50], "opaque_rows": 30, "repeats": 2},
}


def cases(size: dict) -> list:
    """(name, T, rows, stop) of every timed block."""
    return ([(f"bins_T{T}", T, size["bins_rows"], None)
             for T in size["bins_T"]]
            + [(f"opaque_S{S}", N * (S - 1) + 1, size["opaque_rows"], S)
               for S in size["opaque_S"]])


def whole_block(bb, N, q, T, keys, rows, cut):
    """The windows of ``rows`` that ``run_blocks`` draws through
    ``bb.draw_raw_arrays``, joined along periods, their flex-sqrt-T
    decisions carried from window to window in one carry."""
    carry = bb.decision_carry(len(rows), T)
    windows = [bb.draw_raw_arrays(N, q, T, keys, rows, cut, w, carry)
               for w in range(-(-T // bb.TILE_PERIODS))]
    joined = [np.concatenate(parts, axis=1) for parts in zip(*(
        (a.is_flex, a.preferred, a.pair, a.decisions[0]) for a in windows))]
    return bb.ArrivalArrays(*joined[:3], (joined[3], carry[2]))


def worker(size: dict, seed: int) -> dict:
    """Time ``lockstep`` per policy on every case with the ``endgame``
    found on the path; ns/ball and result digest per case and policy."""
    from endgame import balls_bins as bb
    from endgame import bins_engine as be
    from endgame import opaque, streams

    out = {"endgame": str(pathlib.Path(be.__file__).resolve()), "cases": {}}
    for name, T, rows, stop in cases(size):
        if stop is None:
            model = bb.ModelParams(T=T, N=N, q=Q)
            specs = [bb.resolve_policy(
                bb.PolicySpec(kind=k, latched=k == bb.DYNAMIC), model,
                "numerics") for k in POLICIES]
        else:
            params = opaque.InventoryParams(N=N, S=stop, q=Q)
            specs = [opaque.resolve_opaque_policy(bb.PolicySpec(kind=k),
                                                  params, "numerics")
                     for k in POLICIES]
        # the block as run_blocks draws it, flex-sqrt-T decisions included
        keys = {c: streams.stream_key(seed, "kernel_ab", name, c)
                for c in bb.CATEGORIES}
        a_s = next(s.a_s for s in specs if s.kind == bb.FLEX_SQRT_T)
        cut = (T - bb.static_start(T, a_s)) / T
        block = whole_block(bb, N, Q, T, keys, range(rows), cut)
        timed = {}
        for spec in specs:
            best = float("inf")
            for _ in range(size["repeats"]):
                start = time.perf_counter()
                result = be.lockstep(spec, N, Q, block, stop)
                best = min(best, time.perf_counter() - start)
            digest = hashlib.sha256()
            for f in ("loads", "flex_count", "first_trigger", "stop_time"):
                digest.update(np.ascontiguousarray(getattr(result, f)))
            timed[spec.kind] = {
                "ns_per_ball": best * 1e9 / int(result.stop_time.sum()),
                "digest": digest.hexdigest()}
        out["cases"][name] = timed
        del block
    return out


if __name__ == "__main__":
    serve_worker(worker, SIZES)
