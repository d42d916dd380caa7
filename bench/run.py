#!/usr/bin/env python3
"""endgame benchmark: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload bins_sweep --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src/``.  Every measurement happens in a
fresh child process (``worker.py``):

* ``setup_s``: several set-up processes, each timed from just before it
  is started to the point where its workload could make the first timed
  call; the median is reported.  For ``parcel_days`` a set-up process
  also builds and saves the corpus and the flex tables, which the timed
  process then reads.
* ``arrivals_per_s`` and ``peak_rss_mb``: one timed process repeats whole
  rounds of the workload for ``--seconds`` seconds of measured time and
  checks every round's outputs.

With ``--trace 1`` the same rounds run again in a traced process, and the
last line holds the per-layer metrics derived from its spans instead.
The last line of standard output is always the JSON result; progress
goes to standard error.  Outputs go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("bins_sweep", "opaque_sweep", "parcel_days")
# set-up processes per run; the parcel set-up builds the corpus LP each time
SETUP_SAMPLES = {"paper": {"bins_sweep": 5, "opaque_sweep": 5,
                           "parcel_days": 3},
                 "tiny": {"bins_sweep": 1, "opaque_sweep": 1,
                          "parcel_days": 1}}
# every child must have ended by then, well inside the 180 s run limit
DEADLINE_S = 170.0
# one serial process per measurement, with no BLAS thread pool of its own
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class Child:
    """Starts worker processes for one run and collects their results."""

    def __init__(self, args, work: pathlib.Path):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def run(self, role: str, trace: bool = False, rounds: int = 0) -> dict:
        self.count += 1
        result = self.work / f"{role}-{self.count}.json"
        job = {"root": str(ROOT), "work": str(self.work), "role": role,
               "workload": self.args.workload, "seed": self.args.seed,
               "size": self.args.size, "seconds": self.args.seconds,
               "rounds": rounds, "trace": trace, "result": str(result)}
        subprocess.run([sys.executable, str(BENCH / "worker.py"),
                        json.dumps(job)],
                       check=True, stdout=sys.stderr, cwd=ROOT,
                       env={**os.environ, **CHILD_ENV},
                       timeout=max(self.deadline - time.monotonic(), 1.0))
        with open(result) as fh:
            return json.load(fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SETUP_SAMPLES), default="paper",
                   help="'tiny' shrinks every input for the self-check")
    return p.parse_args(argv)


def measure(args, child: Child) -> dict:
    setup_s, setup_spans = [], []
    # a traced run reports no setup_s, so one set-up gives its layer spans
    samples = 1 if args.trace else SETUP_SAMPLES[args.size][args.workload]
    for _ in range(samples):
        start = time.monotonic_ns()
        res = child.run("setup", trace=bool(args.trace))
        setup_s.append((res["ready_ns"] - start) / 1e9)
        setup_spans.append(res["spans"])
    timed = child.run("timed")
    runs = [timed]
    measured = sum(timed["round_s"])
    print(f"{args.workload} seed={args.seed}: setup_s={setup_s} "
          f"round_s={timed['round_s']} peak_rss_mb={timed['peak_rss_mb']}",
          file=sys.stderr)
    if args.trace:
        from spans import layer_metrics, PER_LAYER
        traced = child.run("timed", trace=True, rounds=len(timed["round_s"]))
        runs.append(traced)
        values = layer_metrics(setup_spans, traced["spans"], measured,
                               sum(traced["round_s"]))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {
            "arrivals_per_s": {"value": timed["arrivals"] / measured,
                               "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": timed["peak_rss_mb"], "unit": "MB"},
        }
    for r in runs:
        for problem in r["problems"]:
            print(problem, file=sys.stderr)
    return {"correct": all(r["checks_failed"] == 0 for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "endgame" / "__init__.py").is_file():
        print(f"no endgame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args, Child(args, work))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
