#!/usr/bin/env python3
"""The ``horizon`` workload of ``tools/bench_ab.py``: one long horizon,
``bins_engine.run_policies`` on the five policies.

Both sides run the driver's own copy of this script, as
``tools/horizon_ab.py --worker --size Z --seed N``, each importing
``endgame`` from its side's ``src/`` only; it calls only the package's
public API, so it runs on a revision that does not hold this script.  It
runs the five policies (numerics preset) on N=5, q=0.1, T=1e7 and 20
replications from root seed N, once, and prints one JSON line
``{"endgame", "wall_s", "run_cpu_s", "peak_rss_mb", "digest"}``:
``wall_s`` and ``run_cpu_s`` are the wall and CPU seconds of the
``run_policies`` call alone (the record's ``cpu_s`` is the whole worker
process's), ``peak_rss_mb`` the process's peak RSS and ``digest`` the
sha256 of the result arrays.  ``--size tiny`` runs T=5e4 and 4
replications, in seconds.
"""

from __future__ import annotations

import hashlib
import pathlib
import resource
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from bench_ab import serve_worker  # noqa: E402

N, Q = 5, 0.1
SIZES = {
    "paper": {"T": 10_000_000, "reps": 20},
    "tiny": {"T": 50_000, "reps": 4},
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
            "wall_s": wall, "run_cpu_s": cpu,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digest": digest.hexdigest()}


if __name__ == "__main__":
    serve_worker(worker, SIZES)
