"""Tests of the benchmark's own code; the library has its own suite.

    python3 -m pytest benchmarks -q
"""
from __future__ import annotations

import json
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run  # puts the library sources on the path
import workloads
from hit2mtsk import aco, dataset_fingerprint
from spans import Span, SpanSummary, Tracer

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")


def fingerprints(workload: str, seed: int) -> tuple[str, ...]:
    if workload == "serve":
        datasets = workloads.serve_requests(seed)
    else:
        datasets = workloads.train_data(workload, seed)
    return tuple(dataset_fingerprint(d) for d in datasets)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_repeat_per_seed_and_differ_across_seeds(workload):
    assert fingerprints(workload, 3) == fingerprints(workload, 3)
    assert set(fingerprints(workload, 3)).isdisjoint(fingerprints(workload, 4))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [*run.E2E_UNITS, *run.LAYER_UNITS, *workloads.WORKLOADS]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)


def test_layer_metrics_report_every_name_even_without_spans():
    assert list(run.layer_metrics([], {})) == list(run.LAYER_UNITS)


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1000))
    assert run.percentile(samples, 99) == pytest.approx(989.01)
    assert run.percentile(samples[:999], 99) is None
    assert run.percentile(samples[:100], 90) is not None
    assert run.percentile(samples[:99], 90) is None


def test_envelope_allows_a_few_ulp_and_flags_the_rest():
    model = SimpleNamespace(
        rules=[SimpleNamespace(clamp_bounds=(-1.0, 4.0)),
               SimpleNamespace(clamp_bounds=(2.0, 10.0))],
        fallback_value=3.5,
    )
    hi_ulp = np.nextafter(10.0, 11.0)
    values = [-1.0, 10.0, hi_ulp, 10.0 + 1e-9, np.nan, 3.5, 3.6]
    flags = [False, False, False, False, False, True, True]
    # failing: 1e-9 above the clamp, NaN, flagged fallback with a wrong value
    assert run.envelope_failures(model, values, flags) == 3


def test_mismatches_use_a_tight_relative_tolerance():
    want = np.array([1.0, -2.0, 0.0, 1e6])
    got = want * (1 + np.array([6e-16, 1e-13, 0.0, 1e-11]))
    assert run.mismatches(got, want) == 1


def test_fixture_matches_its_digests():
    workloads.verify_fixture()


def test_serve_refuses_a_fixture_that_does_not_match(tmp_path, monkeypatch, capsys):
    shutil.copytree(workloads.FIXTURES, tmp_path, dirs_exist_ok=True)
    bundle = tmp_path / workloads.SERVE_MODEL
    bundle.write_text(bundle.read_text().replace('"tnorm": "minimum"', '"tnorm": "product"'))
    with pytest.raises(workloads.FixtureMismatch):
        workloads.verify_fixture(tmp_path)
    monkeypatch.setattr(workloads, "FIXTURES", tmp_path)
    code = run.main(["--workload", "serve", "--seed", "0", "--seconds", "1"])
    assert code == 3
    assert "correct" not in capsys.readouterr().out


def test_absent_hook_is_reported_not_raised():
    hooks = (
        ("gone", "hit2mtsk.aco", "no_such_function"),
        ("gone", "hit2mtsk.rules", "NoSuchClass.evaluate"),
        ("aco.sample", "hit2mtsk.aco", "sample_subset"),
    )
    original = aco.sample_subset
    with Tracer(hooks) as tracer:
        assert aco.sample_subset is not original
    assert aco.sample_subset is original
    assert tracer.absent == [
        "hit2mtsk.aco.no_such_function",
        "hit2mtsk.rules.NoSuchClass.evaluate",
    ]


def test_spans_nest_under_their_caller():
    with Tracer() as tracer:
        tracer.call(
            "outer", aco.sample_subset, np.random.default_rng(0), np.ones(5), 2
        )
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("aco.sample", "outer")
    assert inner.parent == outer.id and outer.parent is None
    assert inner.run == outer.run == outer.id


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, None, 1, "root", 0.0, 10.0),
        Span(2, 1, 1, "child", 1.0, 4.0),
        Span(3, 2, 1, "leaf", 1.0, 2.0),
        Span(4, 1, 1, "leaf", 5.0, 6.0),
    ]
    s = SpanSummary(spans)
    assert s.self_time("root") == pytest.approx(6.0)
    assert s.self_time("child") == pytest.approx(2.0)
    assert s.total("leaf") == pytest.approx(2.0)
    assert s.under("root", "leaf") == pytest.approx(1.0)
    assert s.calls("leaf") == 2
