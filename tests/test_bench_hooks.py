"""The benchmark's trace hooks (``bench/spans.py``) wrap module-level names
of the program: each must still resolve, and every wrapped call must go
through, on a small bins sweep, an opaque regime table and parcel days."""

import importlib
import pathlib

import pytest

from endgame import balls_bins as bb
from endgame import opaque
from endgame.harness import runner
from endgame.harness.config import ExperimentConfig
from endgame.parcel import corpus as cp
from endgame.parcel import simulate as sim
from endgame.parcel import tables as tb

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    """``bench/spans.py``, whose ``install`` puts every name it wraps back
    when the test ends."""
    monkeypatch.syspath_prepend(str(BENCH))
    module = importlib.import_module("spans")
    wrap = module._wrap
    wrapped = []

    def restoring(tracer, target, attr, *rest):
        monkeypatch.setattr(target, attr, getattr(target, attr))
        wrapped.append(f"{target.__name__}.{attr}")
        wrap(tracer, target, attr, *rest)
    monkeypatch.setattr(module, "_wrap", restoring)
    module.wrapped = wrapped
    return module


def test_trace_hooks_resolve_and_pass_calls_through(spans, tmp_path):
    tracer = spans.Tracer()
    spans.install(tracer)
    assert len(spans.wrapped) == len(set(spans.wrapped)) >= 18
    cfg = ExperimentConfig(
        model="bins", policies=["no_flex", "flex_sqrt_t"],
        params={"N": 3, "q": 0.5}, sweep={"T": [40, 60]}, replications=3,
        seed=1, out_dir=str(tmp_path))
    runner.run_experiment(cfg)
    rows = opaque.regime_sweep("delta_zero", [5, 8], N=3, q=0.3,
                               instances=2, cycles_per_instance=2,
                               cycle_cache={})
    assert len(rows) == 2 * len(bb.POLICY_KINDS)
    calls = {}
    for name, start, end, _, attrs in tracer.spans:
        assert end >= start > 0
        calls[name] = calls.get(name, 0) + 1
    # one draw per block of replications or cycles, shared by the
    # policies: one per T and one per S
    assert calls["bins_engine.draw_arrival_arrays"] == 2
    assert calls["opaque.draw_raw_arrays"] == 2
    assert calls["runner.write_csv"] == 2
    assert calls["runner.summarize"] == 1
    metrics = spans.layer_metrics([], tracer.spans, 0.0, 0.0)
    assert metrics["balls_bins.draw_ns_per_ball"] > 0


@pytest.mark.parametrize("kind", [sim.ROUTING_DYNAMIC, sim.COST_MIN])
def test_parcel_day_passes_through_its_routing_hooks(spans, kind):
    corpus = cp.build_corpus(cp.GeometrySpec(n_zones=3, pool_size=120,
                                             city_radius_km=6.0,
                                             epsilon=15.0), seed=0)
    params = sim.ParcelParams(N=3, T=50, M1=20)
    tables = tb.estimate_flex_tables(corpus, params, reps=2)
    tracer = spans.Tracer()
    spans.install(tracer)
    sim.run_day(sim.ParcelPolicy(kind), corpus, params, tables, root_seed=1)
    names = [name for name, *_ in tracer.spans]
    parents = {names[parent] for name, _, _, parent, _ in tracer.spans
               if name.startswith("tsp.")}
    for name in ("simulate.tsp_route", "simulate.inc_approx", "tsp.two_opt",
                 "tsp.nearest_neighbor_order"):
        assert name in names, name
    # the router's steps run inside the day's re-solves
    assert parents == {"simulate.tsp_route"}
    # a travel day re-solves every truck every M1 arrivals and at its end
    assert names.count("simulate.tsp_route") == \
        params.N * (1 + (params.T - 1) // params.M1)
