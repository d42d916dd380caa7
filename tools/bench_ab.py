#!/usr/bin/env python3
"""A/B runs of the benchmark: a parent and a change, alternating, one JSON.

    python3 tools/bench_ab.py --parent HEAD~1 --change HEAD \\
        --workload opaque_sweep --seeds 1601-1610 --out BENCH.json

``--size tiny`` passes the benchmark's own self-check size through to
``bench/run.py``, so a whole A/B run takes seconds (default ``paper``).

Both revisions are exported with ``git archive`` into a work directory,
so each side runs only its committed files, as a fresh checkout would.
For every workload and seed, ``bench/run.py`` runs once on each side;
which side goes first alternates from one seed to the next.  The output
holds one row per run (side, seed, the three end-to-end metrics, the
CPU seconds of the run's process tree as ``cpu_s``, failed/attempted
operations and the sha256 of every CSV the run wrote under
``.bench_out/<workload>/``), per workload and metric the medians
and quartiles of each side, the number of seeds the change won and the
median and range of the per-seed change/parent ratios, whether the CSV
digests agree across sides on every seed, and what machine ran it.  A
seed's two runs go back to back, so its ratio cancels most of the
machine's slower drift, which the quartiles of one side keep.  CPU time,
unlike wall time, does not count the time the run waits for a core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import tempfile

import numpy as np

REPO = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1601-1610' or '3,5,8'."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def metric_directions() -> dict:
    """End-to-end metric name -> 'higher' or 'lower', from BENCHMARK.json,
    and ``cpu_s``, lower."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {**{m["name"]: m["better"] for m in spec["end_to_end"]},
            "cpu_s": "lower"}


def export(rev: str, dest: pathlib.Path) -> str:
    """Write the committed files of ``rev`` to ``dest``; return its sha."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=REPO, check=True,
                         capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=REPO,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")
    return sha


def csv_digests(out_dir: pathlib.Path) -> dict:
    return {str(p.relative_to(out_dir)):
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*.csv"))}


def run_once(tree: pathlib.Path, workload: str, seed: int,
             seconds: float, size: str) -> dict:
    """One ``bench/run.py`` run in ``tree``; its metrics, CPU seconds and
    CSV digests."""
    cpu = _children_cpu()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--size", size],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"bench/run.py exited {proc.returncode} in {tree}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update(cpu_s=_children_cpu() - cpu, failed=result["failed"],
               attempted=result["attempted"], correct=result["correct"],
               csv_sha256=csv_digests(tree / ".bench_out" / workload))
    return row


def _children_cpu() -> float:
    """User plus system seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list, directions: dict) -> dict:
    """Per workload: for each metric both sides' median and quartiles,
    the seeds on which the change is better, the median change over the
    parent's interquartile range, and the median, min and max of the
    per-seed change/parent ratios (seeds whose parent value is 0 left
    out); failed/attempted per side; and whether every seed's CSV
    digests agree across sides."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        rows = [r for r in runs if r["workload"] == workload]
        by_seed = {}
        for r in rows:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in by_seed.values() if set(p) == set(SIDES)]
        metrics = {}
        for name, better in directions.items():
            sides = {s: _quartiles([r[name] for r in rows if r["side"] == s])
                     for s in SIDES}
            sign = 1.0 if better == "higher" else -1.0
            iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
            gain = sign * (sides["change"]["median"]
                           - sides["parent"]["median"])
            ratios = [p["change"][name] / p["parent"][name] for p in pairs
                      if p["parent"][name] != 0]
            metrics[name] = {
                "better": better, **sides,
                "change_better_pairs": sum(
                    sign * (p["change"][name] - p["parent"][name]) > 0
                    for p in pairs),
                "pairs": len(pairs),
                "median_gain_over_parent_iqr":
                    gain / iqr if iqr > 0 else None,
                "paired_ratio": {
                    "median": float(np.median(ratios)),
                    "min": min(ratios), "max": max(ratios)}
                if ratios else None,
            }
        out[workload] = {
            "metrics": metrics,
            "failed": {s: sum(r["failed"] for r in rows if r["side"] == s)
                       for s in SIDES},
            "attempted": {s: sum(r["attempted"] for r in rows
                                 if r["side"] == s) for s in SIDES},
            "digests_match": all(
                p["parent"]["csv_sha256"] == p["change"]["csv_sha256"]
                for p in pairs),
        }
    return out


def machine() -> dict:
    info = {"platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count()}
    for path, key, field in (("/proc/cpuinfo", "model name", "cpu"),
                             ("/proc/meminfo", "MemTotal", "mem_total")):
        try:
            for line in open(path):
                if line.startswith(key):
                    info[field] = line.split(":", 1)[1].strip()
                    break
        except OSError:
            pass
    return info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision")
    p.add_argument("--change", default="HEAD", help="git revision")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1601-1610 or 3,5,8")
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--size", default="paper",
                   help="input size passed to bench/run.py")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--workdir", default=None,
                   help="where the two exports go (default: a temp dir)")
    args = p.parse_args(argv)
    work = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="bench_ab_"))
    trees = {s: work / s for s in SIDES}
    shas = {s: export(rev, trees[s])
            for s, rev in zip(SIDES, (args.parent, args.change))}
    runs = []
    for workload in args.workload:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                row = run_once(trees[side], workload, seed, args.seconds,
                               args.size)
                runs.append({"workload": workload, "seed": seed,
                             "side": side, **row})
                print(f"{workload} seed={seed} {side}: "
                      f"arrivals_per_s={row['arrivals_per_s']:.4g} "
                      f"cpu_s={row['cpu_s']:.3g}",
                      file=sys.stderr)
    result = {"parent": {"rev": args.parent, "sha": shas["parent"]},
              "change": {"rev": args.change, "sha": shas["change"]},
              "seconds": args.seconds, "size": args.size,
              "machine": machine(),
              "summary": summarize(runs, metric_directions()),
              "runs": runs}
    pathlib.Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
