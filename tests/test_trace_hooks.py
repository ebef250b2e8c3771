"""The benchmark's hook points exist and fire.

`benchmarks/spans.py` times the library from outside by replacing the
module attributes listed in its ``HOOKS``; a renamed function, or a
caller that stops looking one up at call time, silently drops a span.
This runs a toy train and predict under its `Tracer` (the file is only
read, never changed).
"""
import importlib.util
import sys
from pathlib import Path

from hit2mtsk import predict, predict_values, train_model

from conftest import small_train_config

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve names through it
    spec.loader.exec_module(module)
    return module


def test_every_hook_point_fires_on_a_toy_train_and_predict(toy_dataset):
    spans = load_spans()
    row = dict(zip(toy_dataset.feature_names, map(float, toy_dataset.X[0])))
    with spans.Tracer() as tracer:
        result = train_model(toy_dataset, small_train_config())
        predict_values(result.model, toy_dataset)
        predict(result.model, row)
    assert tracer.absent == []
    assert {s.name for s in tracer.spans} == {name for name, _, _ in spans.HOOKS}
    # every candidate is fitted once, through the traced name
    summary = spans.SpanSummary(tracer.spans)
    assert summary.calls("universe.fit") == len(result.universe)
