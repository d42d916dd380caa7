"""The benchmark's trace hooks (``bench/spans.py``) wrap module-level names
of the program: each must still resolve, and every wrapped call must go
through, on a small bins sweep and an opaque regime table."""

import importlib
import pathlib

import pytest

from endgame import opaque
from endgame.harness import runner
from endgame.harness.config import ExperimentConfig

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
    assert len(rows) == 2 * len(opaque.OPAQUE_POLICIES)
    calls = {}
    for name, start, end, _, attrs in tracer.spans:
        assert end >= start > 0
        calls[name] = calls.get(name, 0) + 1
    # one draw per replication or cycle, shared by the policies
    assert calls["bins_engine.draw_arrival_arrays"] == 2 * 3
    assert calls["opaque.draw_raw_arrays"] == 2 * 2 * 2
    assert calls["runner.write_csv"] == 2
    assert calls["runner.summarize"] == 1
    metrics = spans.layer_metrics([], tracer.spans, 0.0, 0.0)
    assert metrics["balls_bins.draw_ns_per_ball"] > 0
