import os

import numpy as np
import pytest

from hit2mtsk import (
    AcoConfig,
    Dataset,
    GenerationConfig,
    Model,
    TrainConfig,
    train_model,
)


def make_dataset(seed: int = 0, n: int = 300, name: str = "toy") -> Dataset:
    """Smooth 2-feature regression surface with mild noise."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0.0, 10.0, n)
    x2 = rng.uniform(-5.0, 5.0, n)
    y = 2.0 + 1.5 * x1 - 0.8 * x2 + 0.05 * x1 * x2 + rng.normal(0.0, 0.3, n)
    return Dataset(
        name=name,
        feature_names=("x1", "x2"),
        X=np.column_stack([x1, x2]),
        target_name="y",
        y=y,
    )


def candidate_model(universe, dataset: Dataset, reduction: str = "midpoint") -> Model:
    """Every rule of ``universe`` as one model, with training's fallback
    (the target mean of ``dataset``): what `select_rules` prunes."""
    return Model(
        universe.feature_partitions,
        universe.target_partition,
        universe.rules,
        universe.config.tnorm,
        reduction,
        float(dataset.y.mean()),
    )


def small_train_config(seed: int = 11, degree: int = 2) -> TrainConfig:
    return TrainConfig(
        generation=GenerationConfig(degree=degree, max_candidates=200),
        aco=AcoConfig(
            num_ants=8,
            num_iterations=25,
            patience=6,
            subset_size_range=(5, 30),
        ),
        seed=seed,
    )


@pytest.fixture(scope="session")
def toy_dataset() -> Dataset:
    return make_dataset()


@pytest.fixture(scope="session")
def trained(toy_dataset):
    """One trained result shared by read-only tests."""
    return train_model(toy_dataset, small_train_config())


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test after which a child process is left unreaped, running
    or not: every helper a training stage forks is reaped before it returns
    or raises."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid else
                "the test left a child process running")
