"""Tests of the span tracer and the per-layer metric table: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import time

import pytest

import tracing
from workloads import ROOT, SRC, WORKLOADS


def test_layer_table_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [name for layer in tracing.LAYERS.values() for name in layer]
    assert len(names) == len(set(names))
    assert set(names) | {"trace_overhead_ratio"} == {m["name"] for m in spec["per_layer"]}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    for workload in WORKLOADS.values():
        assert set(workload.layers) <= tracing.LAYERS.keys()


def test_install_refuses_a_missing_target(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    monkeypatch.setattr(tracing, "TARGETS", (("dyngem.graph", "no_such_function", "graph.x", None),))
    with pytest.raises(RuntimeError, match="no_such_function"):
        tracing.install(tracing.Tracer())


def test_recorder_time_is_not_charged_to_enclosing_spans():
    tracer = tracing.Tracer()

    def slow_recorder(args, kwargs, result):
        began = time.perf_counter()
        while time.perf_counter() - began < 0.05:
            pass
        return {}

    inner = tracer.wrap("inner", lambda: None, slow_recorder)
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    durations = {span["name"]: tracing._duration(span) for span in tracer.spans}
    assert durations["outer"] < 0.01
    assert tracer.overhead >= 0.15


def test_exercised_layers_must_be_non_zero_and_others_zero():
    values = {name: 0 for names in tracing.LAYERS.values() for name in names}
    for name in tracing.LAYERS["graph"]:
        values[name] = 1.5
    tracing.check_layers(values, ("graph",))
    with pytest.raises(ValueError, match="growth.events"):
        tracing.check_layers(values, ("graph", "growth"))
    values["kernels.jacobi_sweeps"] = 3
    with pytest.raises(ValueError, match="kernels.jacobi_sweeps"):
        tracing.check_layers(values, ("graph",))
