"""End-to-end training: partitions -> rule universe -> subset -> model.

The training fold is internally re-split (`data.split_rows`): rules
are generated and fitted on the larger part, the fit rows, only.  The
candidate model holds every rule with the saved model's settings, and
the subset search prunes it, scoring each subset on the whole fold: it
reuses the cells generation computed on the fit rows and fires only the
validation rows.  All randomness flows from one seed through named
substreams, so a config+seed pair pins every artifact.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .aco import AcoConfig, select_rules
from .data import Dataset, dataset_fingerprint, split_rows
from .inference import FIRING_REDUCTIONS, Model
from .it2 import DegeneratePartitionError, Partition, build_partition
from .universe import GenerationConfig, RuleUniverse, generate_candidates

# named substreams of the master seed; candidate generation draws no
# random numbers, and renumbering ACO's stream would change every model
_STREAM_VALIDATION_SPLIT = 1
_STREAM_ACO = 3


def derive_seed(seed: int, stream: int) -> int:
    """Independent 32-bit child seed for a named substream."""
    return int(
        np.random.SeedSequence([seed, stream]).generate_state(1, np.uint32)[0]
    )


@dataclass(frozen=True)
class TrainConfig:
    """Full pipeline configuration; defaults follow the method's design."""

    num_sets: int = 3
    fou_width: float = 0.15
    fou_scale: float = 0.9
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    aco: AcoConfig = field(default_factory=AcoConfig)
    validation_fraction: float = 0.2
    firing_reduction: str = "midpoint"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_sets < 2:
            raise ValueError("num_sets must be >= 2")
        if not 0.0 < self.fou_width < 0.5:
            raise ValueError("fou_width must be in (0, 0.5)")
        if not 0.0 < self.fou_scale <= 1.0:
            raise ValueError("fou_scale must be in (0, 1]")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.firing_reduction not in FIRING_REDUCTIONS:
            raise ValueError(
                f"unknown firing reduction {self.firing_reduction!r}"
            )
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def variant(self) -> str:
        return f"d{self.generation.degree}"


@dataclass(frozen=True)
class TrainResult:
    model: Model
    universe: RuleUniverse
    trace: tuple[tuple[int, float], ...]


def build_partitions(
    dataset: Dataset, config: TrainConfig
) -> dict[str, Partition]:
    """Partitions for every non-constant feature plus the target.

    Constant features are skipped (they carry no antecedent information);
    a constant target is a hard error.
    """
    partitions: dict[str, Partition] = {}
    for name in (*dataset.feature_names, dataset.target_name):
        try:
            partitions[name] = build_partition(
                dataset.column(name),
                num_sets=config.num_sets,
                fou_width=config.fou_width,
                fou_scale=config.fou_scale,
                variable=name,
            )
        except DegeneratePartitionError:
            if name == dataset.target_name:
                raise
    return partitions


def _moments(col: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation of a finite column, both finite: a
    column whose squares overflow is scaled into [-1, 1] first."""
    scale = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(col.mean() + col.std()):
            scale = float(np.abs(col).max())
    return scale * float((col / scale).mean()), scale * float((col / scale).std())


def train_model(
    dataset: Dataset, config: TrainConfig = TrainConfig()
) -> TrainResult:
    """Train on one dataset (typically a CV training fold)."""
    partitions = build_partitions(dataset, config)

    fit_rows, val_rows = split_rows(
        dataset.n_rows,
        config.validation_fraction,
        derive_seed(config.seed, _STREAM_VALIDATION_SPLIT),
    )
    if fit_rows.size and val_rows.size:
        fit_data = dataset.subset(fit_rows)
    else:
        fit_rows, fit_data = np.arange(dataset.n_rows), dataset

    # selection reuses generation's cells on the fit rows and fires only
    # the validation rows; it frees each rule's once it has used them
    universe, cells = generate_candidates(fit_data, partitions, config.generation)
    stats = tuple(
        (p.variable, *_moments(dataset.column(p.variable)))
        for p in universe.feature_partitions
    )
    # every candidate rule, with the settings the saved model keeps
    candidates = Model(
        feature_partitions=universe.feature_partitions,
        target_partition=universe.target_partition,
        rules=universe.rules,
        tnorm=config.generation.tnorm,
        firing_reduction=config.firing_reduction,
        fallback_value=float(dataset.y.mean()),
        feature_stats=stats,
    )
    aco_seed = derive_seed(config.seed, _STREAM_ACO)
    subset, trace = select_rules(
        candidates, dataset, config.aco, aco_seed, (fit_rows, cells)
    )
    manifest = {
        # as JSON holds it, so a reloaded model's manifest equals this one
        "config": json.loads(json.dumps(asdict(config))),
        "seed": config.seed,
        "dataset_name": dataset.name,
        "dataset_fingerprint": dataset_fingerprint(dataset),
        "universe_size": len(universe),
        "universe_coverage": universe.coverage,
        "selected_rules": len(subset.rules),
        "selection_cost": subset.cost,
    }
    model = replace(candidates, rules=subset.rules, manifest=manifest)
    return TrainResult(
        model=model,
        universe=universe,
        trace=trace,
    )
