"""Span recording around calls into endgame's layers, and the per-layer
metrics derived from the spans.

Spans are recorded from the benchmark's own files: ``install`` replaces
module-level names (the ones other modules look up at call time) with
wrappers that open a span around each call.  Nothing in ``src/`` changes.
A span is ``[name, start_ns, end_ns, parent_index, attrs]``; the spans
stay in memory and the worker writes them out when its run ends.
"""

from __future__ import annotations

import functools
import resource
import statistics
import time

import numpy as np

BINS_POLICIES = ("no_flex", "always_flex", "static", "dynamic", "flex_sqrt_t")
PARCEL_POLICIES = ("no_flex", "unloading_only", "routing_dynamic",
                   "patient_dynamic", "cost_min")


class Tracer:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name, attrs=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           {} if attrs is None else attrs])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")
        self.spans[index][2] = time.perf_counter_ns()


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    def begin(self, name, attrs=None) -> int:
        return -1

    def end(self, index: int) -> None:
        pass


class span:
    """``with span(tracer, name, **attrs) as sp:`` around a benchmark-side
    call; attributes added to ``sp.attrs`` inside the block are kept."""

    def __init__(self, tracer, name, **attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        self.index = self.tracer.begin(self.name, self.attrs)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.index)
        return False


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _wrap(tracer, module, attr, name, attrs_of=None):
    inner = getattr(module, attr)

    @functools.wraps(inner)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            out = inner(*args, **kwargs)
        finally:
            tracer.end(index)
        if attrs_of is not None:
            tracer.spans[index][4].update(attrs_of(args, out))
        return out

    setattr(module, attr, traced)


def install(tracer) -> None:
    """Wrap every traced layer entry point of endgame."""
    from endgame import bins_engine, opaque
    from endgame.harness import runner
    from endgame.parcel import clustering, corpus, simulate, tables, tsp

    _wrap(tracer, bins_engine, "run_many", "bins_engine.run_many",
          lambda a, out: {"policy": a[0].kind, "balls": a[2] * a[1].T})
    _wrap(tracer, bins_engine, "draw_arrival_arrays",
          "bins_engine.draw_arrival_arrays",
          lambda a, out: {"periods": len(out)})
    _wrap(tracer, opaque, "simulate_cycles", "opaque.simulate_cycles",
          lambda a, out: {"policy": a[0].kind,
                          "purchases": int(out[0].sum())})
    _wrap(tracer, opaque, "draw_raw_arrays", "opaque.draw_raw_arrays",
          lambda a, out: {"periods": len(out)})
    _wrap(tracer, runner, "run_cell", "runner.run_cell")
    _wrap(tracer, runner, "write_csv", "runner.write_csv",
          lambda a, out: {"rows": len(a[2])})
    _wrap(tracer, runner, "summarize", "runner.summarize",
          lambda a, out: {"rows": len(a[0])})
    _wrap(tracer, simulate, "run_day", "simulate.run_day",
          lambda a, out: {"policy": a[0].kind})
    _wrap(tracer, tables, "run_day", "tables.run_day")
    _wrap(tracer, simulate, "tsp_route", "simulate.tsp_route",
          lambda a, out: {"stops": len(a[0])})
    _wrap(tracer, simulate, "inc_approx", "simulate.inc_approx")
    _wrap(tracer, tsp, "two_opt", "tsp.two_opt")
    _wrap(tracer, tsp, "nearest_neighbor_order", "tsp.nearest_neighbor_order")
    _wrap(tracer, corpus, "cluster_default", "corpus.cluster_default")
    _wrap(tracer, clustering, "kmeans_centers", "clustering.kmeans_centers")
    _wrap(tracer, clustering, "balanced_assign", "clustering.balanced_assign")
    # the runner imports these at call time, so module attributes suffice
    _wrap(tracer, corpus, "load_corpus", "corpus.load_corpus")
    _wrap(tracer, tables, "load_tables", "tables.load_tables")


# ---------------------------------------------------------------------------
# Derivation

PER_LAYER = (
    [("balls_bins.draw_ns_per_ball", "ns")]
    + [(f"bins_engine.{k}.ns_per_ball", "ns") for k in BINS_POLICIES]
    + [(f"opaque.{k}.ns_per_arrival", "ns") for k in BINS_POLICIES]
    + [("opaque.used_per_drawn", "ratio"),
       ("runner.run_cell.overhead_s", "s"),
       ("runner.write_csv.us_per_row", "us"),
       ("stats.summarize.us_per_row", "us"),
       ("tsp.tsp_route.calls", "count"),
       ("tsp.tsp_route.stops", "count"),
       ("tsp.tsp_route.p50_ms", "ms"),
       ("tsp.tsp_route.p99_ms", "ms"),
       ("tsp.two_opt.s_per_day", "s"),
       ("tsp.nearest_neighbor_order.s_per_day", "s")]
    + [(f"simulate.{k}.self_s_per_day", "s") for k in PARCEL_POLICIES]
    + [("simulate.inc_approx.calls", "count"),
       ("simulate.inc_approx.us_per_call", "us"),
       ("corpus.build_corpus.s", "s"),
       ("clustering.kmeans_centers.s", "s"),
       ("clustering.balanced_assign.s", "s"),
       ("tables.estimate_flex_tables.s_per_rep", "s"),
       ("corpus.io.s", "s"),
       ("corpus.build_corpus.peak_rss_mb", "MB"),
       ("trace.overhead_s", "s")]
)


def _ratio(num, den) -> float:
    """num/den, or 0 when the layer did no work in this workload."""
    return float(num) / den if den else 0.0


class SpanSet:
    """Spans of one process, with per-span self time."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name = {}
        child_ns = [0] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            if parent >= 0:
                child_ns[parent] += end - start
        self.self_ns = [s[2] - s[1] - c for s, c in zip(spans, child_ns)]

    def select(self, name, **attrs):
        return [i for i in self.by_name.get(name, ())
                if all(self.spans[i][4].get(k) == v
                       for k, v in attrs.items())]

    def total_s(self, name, **attrs) -> float:
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self.select(name, **attrs)) / 1e9

    def self_s(self, name, **attrs) -> float:
        return sum(self.self_ns[i] for i in self.select(name, **attrs)) / 1e9

    def attr_sum(self, name, attr, **attrs) -> float:
        return sum(self.spans[i][4][attr] for i in self.select(name, **attrs))

    def count(self, name, **attrs) -> int:
        return len(self.select(name, **attrs))


def _setup_metrics(spans) -> dict:
    s = SpanSet(spans)
    build = s.select("corpus.build_corpus")
    reps = s.attr_sum("tables.estimate_flex_tables", "reps")
    return {
        "corpus.build_corpus.s": s.total_s("corpus.build_corpus"),
        "clustering.kmeans_centers.s": s.total_s("clustering.kmeans_centers"),
        "clustering.balanced_assign.s":
            s.total_s("clustering.balanced_assign"),
        "tables.estimate_flex_tables.s_per_rep":
            _ratio(s.total_s("tables.estimate_flex_tables"), reps),
        "corpus.io.s": (s.total_s("corpus.save_corpus")
                        + s.total_s("tables.save_tables")),
        "corpus.build_corpus.peak_rss_mb":
            s.spans[build[-1]][4]["peak_rss_mb"] if build else 0.0,
    }


def layer_metrics(setup_spans: list, timed_spans: list,
                  untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics from the spans of the set-up processes (one list
    per process) and of the traced timed process.  Sums over the timed
    phase are divided by its number of rounds, so every value is per
    sweep, per day, per call or per unit of work."""
    s = SpanSet(timed_spans)
    rounds = s.count("round")
    out = {}

    draws = ("bins_engine.draw_arrival_arrays", "opaque.draw_raw_arrays")
    out["balls_bins.draw_ns_per_ball"] = _ratio(
        sum(s.total_s(n) for n in draws) * 1e9,
        sum(s.attr_sum(n, "periods") for n in draws))
    for k in BINS_POLICIES:
        out[f"bins_engine.{k}.ns_per_ball"] = _ratio(
            s.self_s("bins_engine.run_many", policy=k) * 1e9,
            s.attr_sum("bins_engine.run_many", "balls", policy=k))
    for k in BINS_POLICIES:
        out[f"opaque.{k}.ns_per_arrival"] = _ratio(
            s.self_s("opaque.simulate_cycles", policy=k) * 1e9,
            s.attr_sum("opaque.simulate_cycles", "purchases", policy=k))
    out["opaque.used_per_drawn"] = _ratio(
        s.attr_sum("opaque.simulate_cycles", "purchases"),
        s.attr_sum("opaque.draw_raw_arrays", "periods"))
    out["runner.run_cell.overhead_s"] = _ratio(
        s.self_s("runner.run_cell"), rounds)
    out["runner.write_csv.us_per_row"] = _ratio(
        s.total_s("runner.write_csv") * 1e6,
        s.attr_sum("runner.write_csv", "rows"))
    out["stats.summarize.us_per_row"] = _ratio(
        s.total_s("runner.summarize") * 1e6,
        s.attr_sum("runner.summarize", "rows"))

    route = [(s.spans[i][2] - s.spans[i][1]) / 1e6
             for i in s.select("simulate.tsp_route")]
    days = s.count("simulate.run_day")
    out["tsp.tsp_route.calls"] = _ratio(len(route), rounds)
    out["tsp.tsp_route.stops"] = _ratio(
        s.attr_sum("simulate.tsp_route", "stops"), rounds)
    out["tsp.tsp_route.p50_ms"] = (float(np.percentile(route, 50))
                                   if route else 0.0)
    out["tsp.tsp_route.p99_ms"] = (float(np.percentile(route, 99))
                                   if route else 0.0)
    out["tsp.two_opt.s_per_day"] = _ratio(s.total_s("tsp.two_opt"), days)
    out["tsp.nearest_neighbor_order.s_per_day"] = _ratio(
        s.total_s("tsp.nearest_neighbor_order"), days)
    for k in PARCEL_POLICIES:
        # tsp_route and inc_approx are the only traced children of run_day
        out[f"simulate.{k}.self_s_per_day"] = _ratio(
            s.self_s("simulate.run_day", policy=k),
            s.count("simulate.run_day", policy=k))
    calls = s.count("simulate.inc_approx")
    out["simulate.inc_approx.calls"] = _ratio(calls, rounds)
    out["simulate.inc_approx.us_per_call"] = _ratio(
        s.total_s("simulate.inc_approx") * 1e6, calls)

    per_setup = [_setup_metrics(sp) for sp in setup_spans] or [
        _setup_metrics([])]
    for key in per_setup[0]:
        out[key] = statistics.median(m[key] for m in per_setup)
    # the timed process loads the corpus and tables once, in its first round
    out["corpus.io.s"] += (s.total_s("corpus.load_corpus")
                           + s.total_s("tables.load_tables"))
    out["trace.overhead_s"] = _ratio(traced_s - untraced_s, rounds)
    return out
