#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload train_wide --seed 3 --seconds 30 --trace 0

Workloads: ``train_wide``, ``train_tall`` (one `train_model` call per job,
repeated for ``--seconds``) and ``serve`` (closed-loop single-row
`predict` requests plus 50000-row `predict_values` batches against the
frozen bundle in ``fixtures/``).  Every output is checked; each failed
check counts in ``failed``.  With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` a separate traced job gives the
per-layer metrics and the tracing overhead, and the spans are written
to ``benchmarks/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 ran (``correct`` tells whether every check held), 2 the
library sources are not next to the benchmark, 3 the frozen serve
fixture does not match its recorded sha256.
"""
from __future__ import annotations

import os

# single-threaded BLAS; must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"

if __name__ == "__main__" and not (SRC / "hit2mtsk" / "__init__.py").is_file():
    print(f"error: library sources not found at {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import hit2mtsk  # noqa: E402
from hit2mtsk import (  # noqa: E402
    load_model,
    predict,
    predict_values,
    save_model,
    train_model,
)

import workloads  # noqa: E402
from spans import SpanSummary, Tracer  # noqa: E402

SETUP_REPEAT_S = 1.0  # set-up repeats this long; setup_s is their median
MIN_REPEATS = 3  # timed jobs per run, however short --seconds is
WARMUP_ROWS = 500  # train_* warm-up fits a slice this size
WARMUP_REQUESTS = 20
CHECK_ROWS = 20  # train_*: single-row predict vs batch on this many rows
TRACED_REQUESTS = 100  # serve: requests per job of a traced run
# a traced run's jobs, traced or not; the symmetric order cancels drift
# over the run from the overhead estimate
TRACE_ORDER = (False, True, True, False)
TRACED_JOBS = TRACE_ORDER.count(True)
REL_TOL = 1e-12  # predict vs predict_values; observed worst 5.8e-16
ENVELOPE_ULPS = 8  # clamp-envelope slack; observed worst 1 ulp
TAIL_SAMPLES = 10  # a percentile needs this many samples beyond it
# serve latency is reported at the host speed where one calibration burst
# takes this long; a fixed scale near the burst's time on the reference
# machine, so that the result still reads in seconds
CAL_REF_S = 3.5e-4
_CAL_ARRAY = np.linspace(0.0, 1.0, 64)
# set-up is reported the same way, at the host speed where one array
# calibration burst takes SETUP_CAL_REF_S
SETUP_CAL_REF_S = 8e-4
_SETUP_CAL_ARRAY = np.linspace(0.0, 1.0, 32768)
# and training at the host speed where one memory calibration burst takes
# TRAIN_CAL_REF_S
TRAIN_CAL_REF_S = 0.06

E2E_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "holdout_rmse": "target",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "pipeline.partition_s": "s",
    "universe.generate_s": "s",
    "universe.self_s": "s",
    "universe.fit_s": "s",
    "universe.fit_calls": "count",
    "universe.grade_s": "s",
    "universe.grade_calls": "count",
    "universe.membership_s": "s",
    "universe.candidates": "count",
    "universe.coverage": "ratio",
    "aco.select_s": "s",
    "aco.ms_per_ant": "ms",
    "aco.iterations": "count",
    "aco.sample_s": "s",
    "aco.ants": "count",
    "aco.rule_matrices_s": "s",
    "aco.self_s": "s",
    "aco.improving_ratio": "ratio",
    "aco.selected_rules": "count",
    "aco.selection_rmse": "target",
    "inference.predict_s": "s",
    "inference.rule_matrices_s": "s",
    "inference.predict_self_s": "s",
    "inference.batch_s": "s",
    "inference.fallback_rate": "ratio",
    "inference.fired_rules_mean": "count",
    "rules.poly_evaluate_s": "s",
    "rules.poly_evaluate_calls": "count",
    "it2.membership_s": "s",
    "persist.model_bytes": "bytes",
    "persist.load_model_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Gate:
    """Counts checked outputs and the ones that failed their check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, what: str, failures: int, attempts: int = 1) -> None:
        self.attempted += attempts
        self.failed += failures
        if failures:
            self.notes.append(f"{what}: {failures} of {attempts} failed")


def percentile(samples, q: float):
    """The q-th percentile, or None with fewer than 10 samples beyond it."""
    if round(len(samples) * (100.0 - q) / 100.0, 9) < TAIL_SAMPLES:
        return None
    return float(np.percentile(samples, q))


def envelope_failures(model, values, fallback) -> int:
    """Rows that are neither finite inside the clamp envelope nor the fallback."""
    lo = min(r.clamp_bounds[0] for r in model.rules)
    hi = max(r.clamp_bounds[1] for r in model.rules)
    slack = ENVELOPE_ULPS * np.spacing(max(abs(lo), abs(hi)))
    values = np.asarray(values, dtype=float)
    inside = (values >= lo - slack) & (values <= hi + slack)
    ok = np.isfinite(values) & np.where(
        fallback, values == model.fallback_value, inside
    )
    return int(np.count_nonzero(~ok))


def mismatches(got, want) -> int:
    """Entries differing by more than REL_TOL relative to the larger one."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = np.maximum(np.abs(got), np.abs(want))
    return int(np.count_nonzero(~(np.abs(got - want) <= REL_TOL * scale)))


def calibration_s() -> float:
    """Time of a fixed burst of small-array numpy calls.

    It is the same kind of work as a single-row ``predict`` and touches
    no library code, so next to a request it measures the host's
    momentary speed: on a shared host that speed swings by up to 2x
    within seconds, and a request's latency divided by the adjacent
    burst's time stayed within 2% where the raw latency moved 19%.
    """
    a = _CAL_ARRAY
    t0 = time.perf_counter()
    for _ in range(100):
        a = np.minimum(a, a * 0.999)
        float(a.sum())
    return time.perf_counter() - t0


def array_calibration_s() -> float:
    """Time of a fixed burst of whole-array numpy work.

    Set-up generates arrays of 10^4 to 10^5 values with transcendental
    functions; next to one set-up this burst measures the host's speed
    for that kind of work.  Over eight processes per workload, set-up
    divided by it ranged over 4 to 11% of its median, and set-up
    divided by ``calibration_s`` over 10 to 17%.
    """
    a = _SETUP_CAL_ARRAY
    t0 = time.perf_counter()
    for _ in range(2):
        np.sqrt(np.sin(a) * a + 1.0)
    return time.perf_counter() - t0


@functools.cache
def _memory_calibration_inputs():
    """A 32 MB matrix, the size of train_tall's row-by-rule matrices
    (20000 x 185 doubles), and the row subsets gathered from it; built
    only by runs that train."""
    rng = np.random.default_rng(0)
    return rng.random((256, 16384)), [rng.choice(256, 50, replace=False) for _ in range(40)]


def memory_calibration_s() -> float:
    """Median time of three bursts of row gathers and a pure-Python loop.

    Training mixes interpreter-bound enumeration with gathers and sums
    over row-by-rule matrices of tens of MB; the gathers here read 32 MB
    per burst.  Dividing a ``train_model`` time by the mean of the
    bursts just before and after it halved the coefficient of variation
    of 150 s of back-to-back trains (0.117 to 0.064 on train_tall, 0.115
    to 0.064 on train_wide), and tracked a 35% host slowdown that lasted
    six trains.
    """
    matrix, subsets = _memory_calibration_inputs()

    def burst() -> float:
        t0 = time.perf_counter()
        total = 0.0
        for sel in subsets:
            total += matrix[sel].sum(axis=0).max()
        for i in range(150_000):
            total += i % 7
        return time.perf_counter() - t0

    return statistics.median(burst() for _ in range(3))


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def repeated_setup(workload, seed):
    """Repeat the workload's set-up for SETUP_REPEAT_S.

    Returns the last set-up's inputs and the median set-up time at the
    host speed SETUP_CAL_REF_S stands for: each set-up is divided by the
    array calibration burst run just before it.  One set-up takes 0.5 to
    20 ms, short enough to move with the host's momentary speed as a
    request does.
    """
    # Free one 4 MiB array first, larger than any array set-up makes:
    # glibc then raises its mmap threshold to that size and serves the
    # set-up's arrays from its heap, whatever the process allocated
    # before.  Without it, train_tall set-up ran either with about 145
    # page faults each or with none, depending on that history, and took
    # 1.8 or 1.4 calibration bursts.
    np.ones(1 << 19)
    ratios = []
    start = time.perf_counter()
    while True:
        cal = array_calibration_s()
        inputs, dt = timed(workloads.setup, workload, seed)
        ratios.append(dt / cal)
        if time.perf_counter() - start >= SETUP_REPEAT_S:
            return inputs, SETUP_CAL_REF_S * statistics.median(ratios)


def plain_call(_name, fn, *args):
    return fn(*args)


def rmse(values, target) -> float:
    return float(np.sqrt(np.mean((values - target) ** 2)))


def bundle_digest(model, path: Path) -> str:
    save_model(model, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rows_as_requests(dataset, limit=None) -> list[dict[str, float]]:
    names = dataset.feature_names
    return [dict(zip(names, map(float, row))) for row in dataset.X[:limit]]


def serve_requests(model, requests, expected, expected_fallback, gate, call, calibrate):
    """Closed loop, one client: each request is sent when the last returns.

    Returns the per-request latencies and, with ``calibrate``, the
    calibration time measured just before each request (else an empty
    list); outputs are checked afterwards.
    """
    latencies, calibrations, values, flags = [], [], [], []
    for x in requests:
        if calibrate:
            calibrations.append(calibration_s())
        t0 = time.perf_counter()
        p = call("inference.predict", predict, model, x)
        latencies.append(time.perf_counter() - t0)
        values.append(p.value)
        flags.append(p.fallback_used)
    n = len(requests)
    gate.record("single-row envelope", envelope_failures(model, values, flags), n)
    same = mismatches(values, expected[:n]) + sum(
        a != bool(b) for a, b in zip(flags, expected_fallback[:n])
    )
    gate.record("single-row predict == predict_values", same, n)
    return latencies, calibrations


def check_holdout(model, holdout, bundle, digest, gate, call):
    """Holdout predictions, single-row agreement and bundle round trip."""
    values, fired, fallback = call("inference.batch", predict_values, model, holdout)
    gate.record("holdout envelope", envelope_failures(model, values, fallback), values.size)
    requests = rows_as_requests(holdout, CHECK_ROWS)
    serve_requests(model, requests, values, fallback, gate, call, calibrate=False)
    loaded = call("persist.load_model", load_model, bundle)
    gate.record("bundle round trip", int(bundle_digest(loaded, bundle) != digest))
    return {
        "holdout_rmse": rmse(values, holdout.y),
        "inference.fallback_rate": float(fallback.mean()),
        "inference.fired_rules_mean": float(fired.mean()),
        "persist.model_bytes": bundle.stat().st_size,
    }


def traced_jobs(tracer, job):
    """Run ``job`` in TRACE_ORDER.

    Returns the last (untraced) job's output, the overhead facts and the
    untraced job times.
    """
    untraced, traced = [], []
    for on in TRACE_ORDER:
        with tracer if on else contextlib.nullcontext():
            out, dt = timed(job, tracer.call if on else plain_call)
        (traced if on else untraced).append(dt)
    overhead = statistics.mean(traced) - statistics.mean(untraced)
    facts = {
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": overhead / statistics.mean(untraced),
    }
    return out, facts, untraced


def run_train(workload, seed, seconds, tracer, gate):
    (_, train, holdout), setup_s = repeated_setup(workload, seed)
    config = workloads.train_config(seed)
    bundle = OUT / f"{workload}-seed{seed}-model.json"
    # first-call costs (lazy imports, allocator growth) stay out of the timings
    train_model(train.subset(np.arange(WARMUP_ROWS)), config)

    digests = []
    if tracer is None:
        times, normalised = [], []
        start = time.perf_counter()
        cal_before = memory_calibration_s()
        while len(times) < MIN_REPEATS or time.perf_counter() - start < seconds:
            result, dt = timed(train_model, train, config)
            cal_after = memory_calibration_s()
            times.append(dt)
            normalised.append(2 * dt / (cal_before + cal_after))
            cal_before = cal_after
            digests.append(bundle_digest(result.model, bundle))
        job_s = TRAIN_CAL_REF_S * statistics.median(normalised)
        facts = check_holdout(result.model, holdout, bundle, digests[0], gate, plain_call)
    else:

        def job(call):
            result = call("pipeline.train", train_model, train, config)
            digests.append(bundle_digest(result.model, bundle))
            return result, check_holdout(result.model, holdout, bundle, digests[0], gate, call)

        (result, facts), overhead, times = traced_jobs(tracer, job)
        facts.update(overhead)
        job_s = None  # a traced run reports no end-to-end metric
    gate.record(
        "same-seed bundle digest",
        sum(d != digests[0] for d in digests[1:]),
        len(digests) - 1,
    )

    costs = [cost for _, cost in result.trace]
    improving = sum(b < a for a, b in zip([math.inf] + costs, costs))
    facts.update(
        {
            "universe.candidates": len(result.universe),
            "universe.coverage": result.universe.coverage,
            "aco.iterations": len(costs),
            "aco.improving_ratio": improving / len(costs),
            "aco.selected_rules": len(result.model.rules),
            "aco.selection_rmse": result.model.manifest["selection_cost"],
            "setup_s": setup_s,
        }
    )
    report = {
        "train_s": statistics.median(times),
        "trains": len(times),
        "holdout_rows": holdout.n_rows,
    }
    return job_s, facts, report


def run_serve(seed, seconds, tracer, gate):
    model_path = workloads.FIXTURES / workloads.SERVE_MODEL
    (model, single, batch), setup_s = repeated_setup("serve", seed)

    ref_rows, ref_values = workloads.load_reference()
    got, _, _ = predict_values(model, ref_rows)
    gate.record("frozen reference predictions", mismatches(got, ref_values), ref_values.size)
    requests = rows_as_requests(single)
    expected, _, expected_fallback = predict_values(model, single)
    for x in requests[:WARMUP_REQUESTS]:
        predict(model, x)
    predict_values(model, batch)

    def one_batch(call):
        (values, fired, fallback), dt = timed(call, "inference.batch", predict_values, model, batch)
        gate.record("batch envelope", envelope_failures(model, values, fallback), values.size)
        return values, fired, fallback, dt

    if tracer is None:
        facts = {}
        start = time.perf_counter()
        latencies, calibrations = serve_requests(
            model, requests, expected, expected_fallback, gate, plain_call, calibrate=True
        )
        batch_times = []
        while len(batch_times) < MIN_REPEATS or time.perf_counter() - start < seconds:
            values, fired, fallback, dt = one_batch(plain_call)
            batch_times.append(dt)
    else:
        head = requests[:TRACED_REQUESTS]

        def job(call):
            call("persist.load_model", load_model, model_path)
            timing = serve_requests(
                model, head, expected, expected_fallback, gate, call, calibrate=False
            )
            return timing, one_batch(call)

        ((latencies, calibrations), (values, fired, fallback, dt)), facts, _ = traced_jobs(
            tracer, job
        )
        batch_times = [dt]

    facts.update(
        {
            "inference.fallback_rate": float(fallback.mean()),
            "inference.fired_rules_mean": float(fired.mean()),
            "persist.model_bytes": model_path.stat().st_size,
            "holdout_rmse": rmse(values, batch.y),
            "setup_s": setup_s,
        }
    )
    p99 = percentile(latencies, 99)
    report = {
        "predict_p50_ms": 1000 * statistics.median(latencies),
        "predict_p99_ms": None if p99 is None else 1000 * p99,
        "requests": len(latencies),
        "batch_rows_per_s": batch.n_rows / statistics.median(batch_times),
        "batches": len(batch_times),
        "model_rules": len(model.rules),
    }
    if not calibrations:  # traced: no job_s is reported
        return None, facts, report
    report["host_speed"] = CAL_REF_S / statistics.median(calibrations)
    normalised = [lat / cal for lat, cal in zip(latencies, calibrations)]
    return CAL_REF_S * statistics.median(normalised), facts, report


def layer_metrics(spans, facts: dict) -> dict[str, float]:
    """Every per-layer metric, per traced job; layers not run read 0."""
    s = SpanSummary(spans)
    ants = s.calls("aco.sample")
    summed = {
        "pipeline.partition_s": s.total("pipeline.partition"),
        "universe.generate_s": s.total("universe.generate"),
        "universe.self_s": s.self_time("universe.generate"),
        "universe.fit_s": s.total("universe.fit"),
        "universe.fit_calls": s.calls("universe.fit"),
        "universe.grade_s": s.total("universe.grade"),
        "universe.grade_calls": s.calls("universe.grade"),
        "universe.membership_s": s.under("universe.generate", "it2.membership"),
        "aco.select_s": s.total("aco.select"),
        "aco.sample_s": s.total("aco.sample"),
        "aco.ants": ants,
        "aco.rule_matrices_s": s.total("aco.rule_matrices"),
        "aco.self_s": s.self_time("aco.select"),
        "inference.predict_s": s.total("inference.predict"),
        "inference.rule_matrices_s": s.under("inference.predict", "inference.rule_matrices"),
        "inference.predict_self_s": s.self_time("inference.predict"),
        "inference.batch_s": s.total("inference.batch"),
        "rules.poly_evaluate_s": s.total("rules.poly_evaluate"),
        "rules.poly_evaluate_calls": s.calls("rules.poly_evaluate"),
        "it2.membership_s": s.total("it2.membership"),
        "persist.load_model_s": s.total("persist.load_model"),
    }
    values = {k: v / TRACED_JOBS for k, v in summed.items()}
    values["aco.ms_per_ant"] = 1000 * s.total("aco.select") / ants if ants else 0.0
    values.update({k: v for k, v in facts.items() if k in LAYER_UNITS})
    return {name: values.get(name, 0.0) for name in LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    gate = Gate()
    try:
        if args.workload == "serve":
            job_s, facts, report = run_serve(args.seed, args.seconds, tracer, gate)
        else:
            job_s, facts, report = run_train(
                args.workload, args.seed, args.seconds, tracer, gate
            )
    except workloads.FixtureMismatch as exc:
        print(f"error: serve fixture refused: {exc}", file=sys.stderr)
        return 3

    if tracer:
        metrics = layer_metrics(tracer.spans, facts)
        units = LAYER_UNITS
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed})
        report["spans"] = str(spans_path.relative_to(BENCH_DIR.parent))
        report["absent_hooks"] = ", ".join(tracer.absent) or "none"
    else:
        metrics = {
            "setup_s": facts["setup_s"],
            "job_s": job_s,
            "holdout_rmse": facts["holdout_rmse"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
    report["error_rate"] = gate.failed / gate.attempted
    report["machine"] = (
        f"nproc={len(os.sched_getaffinity(0))} numpy={np.__version__} "
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
        f"hit2mtsk={hit2mtsk.__version__}"
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>14.6g} {units[name]}")
    for name, value in report.items():
        print(f"  {name:28s} {value}")
    for note in gate.notes:
        print(f"  FAILED {note}")
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
