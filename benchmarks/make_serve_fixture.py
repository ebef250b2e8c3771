#!/usr/bin/env python3
"""Regenerate the frozen serve fixture under ``benchmarks/fixtures/``.

    python3 benchmarks/make_serve_fixture.py

Trains the ``train_wide`` seed-0 model, saves its bundle, records the
predictions for the seed-0 serve request rows, and writes the sha256 of
both files to ``SHA256SUMS``.  The serve workload refuses to run when
those digests do not match, so rerun this only on purpose: a new
fixture is a new benchmark baseline.
"""
from __future__ import annotations

import os

# the same single-threaded BLAS as the benchmark runs with
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from hit2mtsk import predict_values, save_model, train_model  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    out = workloads.FIXTURES
    out.mkdir(exist_ok=True)
    train, _ = workloads.train_data("train_wide", 0)
    model = train_model(train, workloads.train_config(0)).model
    save_model(model, out / workloads.SERVE_MODEL)
    single, _ = workloads.serve_requests(0)
    values, _, _ = predict_values(model, single)
    reference = {
        "rows": single.X.tolist(),
        "values": values.tolist(),
    }
    (out / workloads.SERVE_REFERENCE).write_text(json.dumps(reference) + "\n")
    sums = "".join(
        f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}\n"
        for name in (workloads.SERVE_MODEL, workloads.SERVE_REFERENCE)
    )
    (out / workloads.CHECKSUMS).write_text(sums)
    print(f"{len(model.rules)} rules; wrote {out}")


if __name__ == "__main__":
    main()
