#!/usr/bin/env python3
"""A/B runs of one long horizon: ``bins_engine.run_policies`` on the five
policies, a parent and a change, alternating, one JSON.

    python3 tools/horizon_ab.py --parent HEAD~1 --change HEAD \\
        --out BENCH_horizon.json

Both revisions are exported with ``git archive`` as ``tools/bench_ab.py``
does.  Each round runs one worker process per side, the side that goes
first alternating from round to round.  A worker is this script with
``--worker``, importing ``endgame`` from the side's ``src/`` only; it
calls only the package's public API, so it runs on a revision that does
not hold this script.  It runs the five policies (numerics preset) on
N=5, q=0.1, T=1e7 and 20 replications, once, and reports its wall time,
CPU time, peak RSS and the sha256 of the result arrays.  The output holds
every worker's row, per metric each side's median and the change/parent
ratio of the medians, whether every digest agrees across sides and
rounds, and what machine ran it.  ``--size tiny`` runs T=5e4 and 4
replications, one round, in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from bench_ab import SIDES, export, machine  # noqa: E402

N, Q = 5, 0.1
METRICS = ("wall_s", "cpu_s", "peak_rss_mb")
SIZES = {
    "paper": {"T": 10_000_000, "reps": 20, "rounds": 5},
    "tiny": {"T": 50_000, "reps": 4, "rounds": 1},
}


def worker(size: dict, seed: int) -> dict:
    """Run the five policies once with the ``endgame`` found on the path;
    its time, peak RSS and result digest."""
    from endgame import balls_bins as bb
    from endgame import bins_engine as be

    params = bb.ModelParams(T=size["T"], N=N, q=Q)
    specs = [bb.resolve_policy(bb.PolicySpec(kind=kind), params, "numerics")
             for kind in bb.POLICY_KINDS]
    wall, cpu = time.perf_counter(), time.process_time()
    results = be.run_policies(specs, params, size["reps"], seed, "horizon")
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    digest = hashlib.sha256()
    for result in results:
        for f in ("loads", "flex_count", "first_trigger", "stop_time"):
            digest.update(np.ascontiguousarray(getattr(result, f)))
    return {"endgame": str(pathlib.Path(be.__file__).resolve()),
            "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digest": digest.hexdigest()}


def run_worker(tree: pathlib.Path, size_name: str, seed: int) -> dict:
    """One worker process: this script on ``tree``'s ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "--worker",
         "--size", size_name, "--seed", str(seed)],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited {proc.returncode} in {tree}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["endgame"].startswith(str(tree.resolve())):
        raise RuntimeError(f"worker imported {result['endgame']}")
    return result


def summarize(runs: list) -> dict:
    """Per metric each side's values and median and the change/parent
    ratio of the medians; whether all the digests agree."""
    out = {}
    for name in METRICS:
        values = {s: [r[name] for r in runs if r["side"] == s]
                  for s in SIDES}
        medians = {s: float(np.median(v)) for s, v in values.items()}
        out[name] = {**{s: values[s] for s in SIDES},
                     **{f"{s}_median": medians[s] for s in SIDES},
                     "ratio": medians["change"] / medians["parent"]}
    out["digests_match"] = len({r["digest"] for r in runs}) == 1
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", help="git revision")
    p.add_argument("--change", default="HEAD", help="git revision")
    p.add_argument("--size", choices=sorted(SIZES), default="paper")
    p.add_argument("--seed", type=int, default=0, help="root seed")
    p.add_argument("--out", help="JSON file to write")
    p.add_argument("--workdir", default=None,
                   help="where the two exports go (default: a temp dir)")
    p.add_argument("--worker", action="store_true",
                   help="run the endgame on the path; print one JSON line")
    args = p.parse_args(argv)
    size = SIZES[args.size]
    if args.worker:
        print(json.dumps(worker(size, args.seed)))
        return 0
    if not (args.parent and args.out):
        p.error("--parent and --out are required")
    work = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="horizon_ab_"))
    trees = {s: work / s for s in SIDES}
    shas = {s: export(rev, trees[s])
            for s, rev in zip(SIDES, (args.parent, args.change))}
    runs = []
    for i in range(size["rounds"]):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            row = run_worker(trees[side], args.size, args.seed)
            runs.append({"side": side, "round": i, **row})
            print(f"round {i} {side}: {row['wall_s']:.1f} s, "
                  f"{row['peak_rss_mb']:.0f} MB", file=sys.stderr)
    result = {"parent": {"rev": args.parent, "sha": shas["parent"]},
              "change": {"rev": args.change, "sha": shas["change"]},
              "size": args.size, "seed": args.seed, "N": N, "q": Q,
              "T": size["T"], "reps": size["reps"],
              "machine": machine(), "summary": summarize(runs),
              "runs": runs}
    pathlib.Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
