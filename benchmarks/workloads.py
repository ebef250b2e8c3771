"""Seeded synthetic inputs and fixed settings of the benchmark workloads.

Training data follows Friedman (1991, "Multivariate adaptive regression
splines", Ann. Stat. 19(1)): problem #1 for the wide shape (many
candidate rules over few rows per rule) and problem #2 for the tall
shape (few candidate rules, many rows to score).  The serve workload
replays requests against a frozen model bundle kept under
``fixtures/``.  Every array is a pure function of the workload seed;
the library only ever sees the generated arrays.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hit2mtsk import AcoConfig, Dataset, Model, TrainConfig, load_model

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SERVE_MODEL = "serve_model.json"
SERVE_REFERENCE = "serve_reference.json"
CHECKSUMS = "SHA256SUMS"

# ACO runs a fixed budget (patience equals the budget) so that the
# training time measures speed, not the early-stop length a seed draws:
# with the default patience the same code took 43 to 135 iterations
# across five train_wide seeds.
ACO_ITERATIONS = 40

SERVE_SINGLE_ROWS = 1000
SERVE_BATCH_ROWS = 50_000
# share of serve rows drawn from the domain widened by WIDEN on each side;
# they reach shoulder plateaus, clamps and the fallback
WIDE_SHARE = 0.05
WIDEN = 0.2


def friedman1(
    rng: np.random.Generator, n: int, wide_share: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Friedman #1 with 5 informative and 3 noise features, unit noise."""
    X = rng.uniform(0.0, 1.0, (n, 8))
    if wide_share:
        wide = rng.random(n) < wide_share
        X[wide] = rng.uniform(-WIDEN, 1.0 + WIDEN, (int(wide.sum()), 8))
    y = (
        10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20.0 * (X[:, 2] - 0.5) ** 2
        + 10.0 * X[:, 3]
        + 5.0 * X[:, 4]
        + rng.normal(0.0, 1.0, n)
    )
    return X, y


def friedman2(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Friedman #2 (impedance of an RLC circuit), noise-free."""
    x1 = rng.uniform(0.0, 100.0, n)
    x2 = rng.uniform(40.0 * np.pi, 560.0 * np.pi, n)
    x3 = rng.uniform(0.0, 1.0, n)
    x4 = rng.uniform(1.0, 11.0, n)
    y = np.sqrt(x1**2 + (x2 * x3 - 1.0 / (x2 * x4)) ** 2)
    return np.column_stack([x1, x2, x3, x4]), y


@dataclass(frozen=True)
class TrainShape:
    generator: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]
    n_train: int
    n_holdout: int
    stream: int


TRAIN_SHAPES = {
    "train_wide": TrainShape(friedman1, 5000, 2000, stream=1),
    "train_tall": TrainShape(friedman2, 20_000, 4000, stream=2),
}
SERVE_STREAM = 3
WORKLOADS = (*TRAIN_SHAPES, "serve")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _dataset(name: str, X: np.ndarray, y: np.ndarray) -> Dataset:
    names = tuple(f"x{j + 1}" for j in range(X.shape[1]))
    return Dataset(name=name, feature_names=names, X=X, target_name="y", y=y)


def train_data(workload: str, seed: int) -> tuple[Dataset, Dataset]:
    """(training rows, held-out rows) of a training workload."""
    shape = TRAIN_SHAPES[workload]
    X, y = shape.generator(_rng(seed, shape.stream), shape.n_train + shape.n_holdout)
    cut = shape.n_train
    return (
        _dataset(f"{workload}-{seed}", X[:cut], y[:cut]),
        _dataset(f"{workload}-{seed}-holdout", X[cut:], y[cut:]),
    )


def train_config(seed: int) -> TrainConfig:
    return TrainConfig(
        aco=AcoConfig(num_iterations=ACO_ITERATIONS, patience=ACO_ITERATIONS),
        seed=seed,
    )


def serve_requests(seed: int) -> tuple[Dataset, Dataset]:
    """(single-row requests, one batch) for the serve workload."""
    rng = _rng(seed, SERVE_STREAM)
    single = friedman1(rng, SERVE_SINGLE_ROWS, WIDE_SHARE)
    batch = friedman1(rng, SERVE_BATCH_ROWS, WIDE_SHARE)
    return _dataset(f"serve-{seed}", *single), _dataset(f"serve-{seed}-batch", *batch)


def setup(workload: str, seed: int) -> tuple[Model | None, Dataset, Dataset]:
    """Everything a workload needs before its first job.

    train_*: (None, training rows, held-out rows).  serve: (the frozen
    model, single-row requests, batch), after checking the fixture.
    """
    if workload in TRAIN_SHAPES:
        return (None, *train_data(workload, seed))
    verify_fixture()
    return (load_model(FIXTURES / SERVE_MODEL), *serve_requests(seed))


class FixtureMismatch(RuntimeError):
    """A frozen serve file is missing or differs from its recorded sha256."""


def verify_fixture(directory: Path | None = None) -> None:
    """Check every file listed in ``SHA256SUMS`` against its digest."""
    directory = directory or FIXTURES
    try:
        lines = (directory / CHECKSUMS).read_text().splitlines()
    except FileNotFoundError:
        raise FixtureMismatch(f"{directory / CHECKSUMS} is missing") from None
    listed = set()
    for line in lines:
        digest, name = line.split(maxsplit=1)
        path = directory / name
        listed.add(name)
        try:
            actual = hashlib.sha256(path.read_bytes()).hexdigest()
        except FileNotFoundError:
            raise FixtureMismatch(f"{path} is missing") from None
        if actual != digest:
            raise FixtureMismatch(
                f"{path} has sha256 {actual}, expected {digest}"
            )
    if not {SERVE_MODEL, SERVE_REFERENCE} <= listed:
        raise FixtureMismatch(f"{directory / CHECKSUMS} does not list every fixture")


def load_reference() -> tuple[Dataset, np.ndarray]:
    """Reference request rows and the predictions recorded for them."""
    doc = json.loads((FIXTURES / SERVE_REFERENCE).read_text())
    X = np.array(doc["rows"], dtype=float)
    return _dataset("serve-reference", X, np.zeros(X.shape[0])), np.array(
        doc["values"], dtype=float
    )
