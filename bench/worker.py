"""One fresh benchmark process: a set-up sample or a timed phase.

``run.py`` starts this script with one JSON argument (the job) and reads
the JSON result it writes to ``job["result"]``.  A set-up process
imports what its workload needs, builds the workload's inputs and
records when it got there; a timed process repeats whole rounds of the
workload until ``job["seconds"]`` have been measured (or exactly
``job["rounds"]`` rounds), checking every round's outputs untimed.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
import traceback


def timed(wl, size, job, tracer, spans) -> dict:
    state = wl.prepare(size, job["seed"], pathlib.Path(job["work"]))
    if job["trace"]:
        spans.install(tracer)
    cells = wl.cells(state)
    round_s, problems = [], []
    arrivals = attempted = failed = checks_failed = 0
    while True:
        with spans.span(tracer, "round"):
            start = time.perf_counter()
            try:
                out = wl.run(state)
            except Exception:  # a failed round is counted, not fatal
                out = None
                problems.append(traceback.format_exc())
            round_s.append(time.perf_counter() - start)
        attempted += len(cells)
        if out is None:
            failed += len(cells)
        else:
            arrivals += wl.arrivals(state, out)
            bad = wl.check(state, out)
            failed += len(bad)
            checks_failed += len(bad)
            problems += [f"{cell}: {why}" for cell, why in bad.items()]
        if job["rounds"]:
            if len(round_s) >= job["rounds"]:
                break
        elif sum(round_s) >= job["seconds"]:
            break
    return {"round_s": round_s, "arrivals": arrivals,
            "attempted": attempted, "failed": failed,
            "checks_failed": checks_failed,
            "problems": problems[:20], "peak_rss_mb": spans.peak_rss_mb()}


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[job["workload"]]
    size = wl.sizes[job["size"]]
    tracer = spans.Tracer() if job["trace"] else spans.NullTracer()
    if job["role"] == "setup":
        if job["trace"]:
            spans.install(tracer)
        wl.setup(size, job["seed"], pathlib.Path(job["work"]), tracer)
        result = {"ready_ns": time.monotonic_ns()}
    else:
        result = timed(wl, size, job, tracer, spans)
    result["spans"] = tracer.spans if job["trace"] else []
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
