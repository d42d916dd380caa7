#!/usr/bin/env python3
"""A/B timing of the policy kernel: ``bins_engine.lockstep`` per policy on
fixed drawn blocks, a parent and a change, alternating, one JSON.

    python3 tools/kernel_ab.py --parent HEAD~1 --change HEAD \\
        --out BENCH_kernel.json

Both revisions are exported with ``git archive`` as ``tools/bench_ab.py``
does, and each must hold this script.  Each round runs one worker process
per side, the side that goes first alternating from round to round; a
worker is the side's own ``tools/kernel_ab.py --worker``, so that the
private kernel calls it makes match its ``src/``, and imports ``endgame``
from that ``src/`` only.  It draws each case's block once, through the
side's own draw path (its windows joined), and times ``lockstep`` on
it for every policy (best of ``--repeats``):

- bins, N=5, q=0.1, numerics preset, dynamic latched: T = 1e4 and 1e5,
  100 rows each, no stop;
- opaque, N=5, q=0.1, numerics preset: S = 400 and 3200, 300 cycles each,
  horizon N(S-1)+1, stopped at S.

A ball is a period a row ran, so ns/ball is the time over the sum of
``stop_time``.  The output holds per case and policy each side's best
ns/ball per round, their medians, the change/parent ratio of the medians,
and whether every worker's result digest (sha256 of the result arrays)
agrees across sides and rounds; also what machine ran it.  Two sides on
different stream layouts draw different blocks, so their digests differ
by design and only their ns/ball compare.  ``--size tiny`` runs small
cases, one round and two repeats, in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from bench_ab import SIDES, export, machine  # noqa: E402

TOOL = "tools/kernel_ab.py"  # this script, where each exported tree holds it
N, Q = 5, 0.1
POLICIES = ("no_flex", "always_flex", "static", "dynamic", "flex_sqrt_t")
SIZES = {
    "paper": {"bins_T": [10_000, 100_000], "bins_rows": 100,
              "opaque_S": [400, 3200], "opaque_rows": 300,
              "rounds": 3, "repeats": 5},
    "tiny": {"bins_T": [1_000, 3_000], "bins_rows": 20,
             "opaque_S": [20, 50], "opaque_rows": 30,
             "rounds": 1, "repeats": 2},
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


def run_worker(tree: pathlib.Path, size_name: str, seed: int) -> dict:
    """One worker process: ``tree``'s own copy of this script on its
    ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, str(tree / TOOL), "--worker", "--size", size_name,
         "--seed", str(seed)],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited {proc.returncode} in {tree}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["endgame"].startswith(str(tree.resolve())):
        raise RuntimeError(f"worker imported {result['endgame']}")
    return result


def summarize(runs: list) -> dict:
    """Per case and policy: each side's best ns/ball per round and their
    median, the change/parent ratio of the medians, and whether all the
    digests agree."""
    out = {}
    for name in runs[0]["cases"]:
        out[name] = {}
        for kind in runs[0]["cases"][name]:
            cell = {s: [r["cases"][name][kind]["ns_per_ball"]
                        for r in runs if r["side"] == s] for s in SIDES}
            medians = {s: float(np.median(v)) for s, v in cell.items()}
            out[name][kind] = {
                **{f"{s}_ns_per_ball": cell[s] for s in SIDES},
                **{f"{s}_median": medians[s] for s in SIDES},
                "ratio": medians["change"] / medians["parent"],
                "digests_match": len({r["cases"][name][kind]["digest"]
                                      for r in runs}) == 1,
            }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", help="git revision")
    p.add_argument("--change", default="HEAD", help="git revision")
    p.add_argument("--size", choices=sorted(SIZES), default="paper")
    p.add_argument("--seed", type=int, default=0,
                   help="root seed of the drawn blocks")
    p.add_argument("--out", help="JSON file to write")
    p.add_argument("--workdir", default=None,
                   help="where the two exports go (default: a temp dir)")
    p.add_argument("--worker", action="store_true",
                   help="time the endgame on the path; print one JSON line")
    args = p.parse_args(argv)
    size = SIZES[args.size]
    if args.worker:
        print(json.dumps(worker(size, args.seed)))
        return 0
    if not (args.parent and args.out):
        p.error("--parent and --out are required")
    work = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="kernel_ab_"))
    trees = {s: work / s for s in SIDES}
    shas = {s: export(rev, trees[s])
            for s, rev in zip(SIDES, (args.parent, args.change))}
    for s, rev in zip(SIDES, (args.parent, args.change)):
        if not (trees[s] / TOOL).is_file():
            p.error(f"revision {rev} ({s}) has no {TOOL} to run as its "
                    "worker")
    runs = []
    for i in range(size["rounds"]):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs.append({"side": side, "round": i,
                         **run_worker(trees[side], args.size, args.seed)})
            print(f"round {i} {side} done", file=sys.stderr)
    result = {"parent": {"rev": args.parent, "sha": shas["parent"]},
              "change": {"rev": args.change, "sha": shas["change"]},
              "size": args.size, "seed": args.seed,
              "repeats": size["repeats"], "N": N, "q": Q,
              "machine": machine(), "summary": summarize(runs),
              "runs": runs}
    pathlib.Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
