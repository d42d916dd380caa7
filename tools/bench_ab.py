#!/usr/bin/env python3
"""A/B runs of the benchmark and of two tool workloads: a parent and a
change, alternating, one JSON.

    python3 tools/bench_ab.py --parent HEAD~1 --change HEAD \\
        --workload opaque_sweep --seeds 1601-1610 --out BENCH.json

Each workload runs once per seed on each side, the side that goes first
alternating from seed to seed; ``--size`` (``paper`` or ``tiny``, which
takes seconds) goes to every run.  Both revisions are exported with
``git archive``, so each side runs only its committed files.

- ``bins_sweep``, ``opaque_sweep``, ``parcel_days``: the side's own
  ``bench/run.py``; its end-to-end metrics, and the sha256 of each CSV it
  wrote under ``.bench_out/<workload>/``.
- ``kernel``: the side's own ``tools/kernel_ab.py --worker`` (it calls
  private kernel functions; a revision without it is refused); metrics
  ``<case>.<policy>.ns_per_ball``, digests ``<case>.<policy>``.
- ``horizon``: this driver's own ``tools/horizon_ab.py --worker`` (public
  API only, so any revision); metrics ``wall_s``, ``run_cpu_s`` and
  ``peak_rss_mb``, digest ``results``.

A tool worker imports ``endgame`` from its side's ``src/`` only.  The
record is ``{"parent": {rev, sha}, "change": {rev, sha}, "seconds",
"size", "machine", "summary", "runs"}``, with ``horizon`` also
``"horizon": {"worker_sha256", "T", "reps"}``, the sha256 of the
worker script that ran and its size; a run ``{"workload", "seed",
"side", "metrics", "digests", "failed", "attempted", "correct"}`` (a tool
run is one operation), and every run's metrics hold ``cpu_s``, the CPU
seconds of its process tree, which unlike wall time leave out waiting for
a core.  ``summarize`` says what the summary holds.  A seed's two runs go
back to back, so its ratio cancels most of the machine's slower drift,
which the quartiles of one side keep.
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
KERNEL_WORKER = "tools/kernel_ab.py"  # each tree runs its own copy
HORIZON_WORKER = REPO / "tools" / "horizon_ab.py"  # this driver's copy
TOOLS = ("kernel", "horizon")


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


def _last_json_line(argv: list, tree: pathlib.Path, env=None) -> dict:
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{argv[1]} exited {proc.returncode} in {tree}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_bench(tree: pathlib.Path, workload: str, seed: int,
              seconds: float, size: str) -> dict:
    """One ``bench/run.py`` run in ``tree``: its metrics and CSV digests."""
    result = _last_json_line(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--size", size],
        tree)
    return {"metrics": {name: m["value"]
                        for name, m in result["metrics"].items()},
            "digests": csv_digests(tree / ".bench_out" / workload),
            "failed": result["failed"], "attempted": result["attempted"],
            "correct": result["correct"]}


def run_tool(tree: pathlib.Path, workload: str, seed: int,
             size: str) -> dict:
    """One worker of a tool workload on ``tree``'s ``src/``: its output as
    metrics and digests."""
    script = tree / KERNEL_WORKER if workload == "kernel" else HORIZON_WORKER
    result = _last_json_line(
        [sys.executable, str(script), "--worker", "--size", size,
         "--seed", str(seed)],
        tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")))
    if not result["endgame"].startswith(str(tree.resolve())):
        raise RuntimeError(f"worker imported {result['endgame']}")
    if workload == "kernel":
        cells = {f"{case}.{policy}": cell
                 for case, policies in result["cases"].items()
                 for policy, cell in policies.items()}
        metrics = {f"{name}.ns_per_ball": cell["ns_per_ball"]
                   for name, cell in cells.items()}
        digests = {name: cell["digest"] for name, cell in cells.items()}
    else:
        metrics = {name: result[name]
                   for name in ("wall_s", "run_cpu_s", "peak_rss_mb")}
        digests = {"results": result["digest"]}
    return {"metrics": metrics, "digests": digests, "failed": 0,
            "attempted": 1, "correct": True}


def _children_cpu() -> float:
    """User plus system seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list, directions: dict) -> dict:
    """Per workload: for each metric both sides report, both sides' median
    and quartiles, the seeds on which the change is better, the median
    change over the parent's interquartile range, and the median, min and
    max of the per-seed change/parent ratios (seeds whose parent value is
    0 left out); failed/attempted per side; whether every seed's digests
    agree across sides on the names both report; and per side the metric
    and digest names only it reports, which the comparison leaves out.  A
    metric is better in the direction ``directions`` gives, else lower."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        rows = [r for r in runs if r["workload"] == workload]
        by_seed = {}
        for r in rows:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in by_seed.values() if set(p) == set(SIDES)]
        names = {field: {s: dict.fromkeys(
            name for r in rows if r["side"] == s for name in r[field])
            for s in SIDES} for field in ("metrics", "digests")}
        metrics = {}
        for name in names["metrics"]["parent"]:
            if name not in names["metrics"]["change"]:
                continue
            better = directions.get(name, "lower")
            sides = {s: _quartiles([r["metrics"][name] for r in rows
                                    if r["side"] == s]) for s in SIDES}
            sign = 1.0 if better == "higher" else -1.0
            iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
            gain = sign * (sides["change"]["median"]
                           - sides["parent"]["median"])
            values = [(p["parent"]["metrics"][name],
                       p["change"]["metrics"][name]) for p in pairs]
            ratios = [c / p for p, c in values if p != 0]
            metrics[name] = {
                "better": better, **sides,
                "change_better_pairs": sum(sign * (c - p) > 0
                                           for p, c in values),
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
                p["parent"]["digests"][name] == p["change"]["digests"][name]
                for p in pairs
                for name in p["parent"]["digests"].keys()
                & p["change"]["digests"].keys()),
            "one_sided": {s: [name for field in names.values()
                              for name in field[s] if name not in field[o]]
                          for s, o in zip(SIDES, SIDES[::-1])},
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


def serve_worker(worker, sizes: dict) -> None:
    """The command line of a tool workload's worker script, ``--worker
    --size Z --seed N``: print ``worker(sizes[Z], N)`` as one JSON line."""
    p = argparse.ArgumentParser(description="a tools/bench_ab.py worker")
    p.add_argument("--worker", action="store_true", required=True)
    p.add_argument("--size", choices=sorted(sizes), default="paper")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    print(json.dumps(worker(sizes[args.size], args.seed)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision")
    p.add_argument("--change", default="HEAD", help="git revision")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1601-1610 or 3,5,8")
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--size", default="paper",
                   help="input size passed to every run: paper or tiny")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--workdir", default=None,
                   help="where the two exports go (default: a temp dir)")
    args = p.parse_args(argv)
    work = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="bench_ab_"))
    trees = {s: work / s for s in SIDES}
    revs = dict(zip(SIDES, (args.parent, args.change)))
    shas = {s: export(revs[s], trees[s]) for s in SIDES}
    for s in SIDES if "kernel" in args.workload else ():
        if not (trees[s] / KERNEL_WORKER).is_file():
            p.error(f"revision {revs[s]} ({s}) has no {KERNEL_WORKER} to "
                    "run as its worker")
    runs = []
    for workload in args.workload:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                cpu = _children_cpu()
                row = (run_tool(trees[side], workload, seed, args.size)
                       if workload in TOOLS else
                       run_bench(trees[side], workload, seed, args.seconds,
                                 args.size))
                row["metrics"]["cpu_s"] = _children_cpu() - cpu
                runs.append({"workload": workload, "seed": seed,
                             "side": side, **row})
                print(f"{workload} seed={seed} {side}: "
                      f"cpu_s={row['metrics']['cpu_s']:.3g}",
                      file=sys.stderr)
    result = {"parent": {"rev": args.parent, "sha": shas["parent"]},
              "change": {"rev": args.change, "sha": shas["change"]},
              "seconds": args.seconds, "size": args.size,
              "machine": machine(),
              "summary": summarize(runs, metric_directions()),
              "runs": runs}
    if "horizon" in args.workload:
        from horizon_ab import SIZES  # this driver's copy, beside it
        result["horizon"] = {"worker_sha256": hashlib.sha256(
            HORIZON_WORKER.read_bytes()).hexdigest(), **SIZES[args.size]}
    pathlib.Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
