"""Benchmark harness, explainability metrics, and the Mamdani baseline.

Published reference scores are stored verbatim as data and attached to
reports for side-by-side display; they are never recomputed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import Dataset, FoldSplit, split_holdout
from .dominance import error_dominance
from .inference import (
    Model,
    _feature_rows,
    _weigh,
    _Weighed,
    predict_values,
    reduce_firing,
    rule_matrices,
)
from .pipeline import TrainConfig, derive_seed, train_model
from .rules import Polynomial, RuleUnfittableError, rmse

# Published 5-fold mean RMSEs for the KEEL suite (hybrid = this method).
REFERENCE_RMSE: dict[str, dict[str, float]] = {
    "concrete": {"hybrid_d3": 7.29, "gld_wm": 7.32, "mp": 7.86},
    "diabetes": {"hybrid_d2": 0.79, "hybrid_d3": 0.80, "mp": 0.63, "smoreg": 0.65},
    "ele2": {"hybrid_d3": 189.28, "mp": 158.05},
    "mortgage": {"hybrid_d2": 0.15, "hybrid_d3": 0.13, "mp": 0.11, "wm": 0.92},
    "treasury": {"hybrid_d3": 0.27, "mp": 0.25},
    "wankara": {"hybrid_d2": 1.58, "hybrid_d3": 1.58, "smoreg": 1.58},
}

# Published holdout RMSEs for the California housing case study.
CALIFORNIA_REFERENCE: dict[str, float] = {
    "linear_regression": 0.728,
    "cart_rf": 0.720,
    "nam": 0.562,
    "ebm": 0.557,
    "xgboost": 0.532,
    "dnn": 0.492,
    "mamdani_frbs": 0.751,
    "hybrid": 0.695,
}

# Published case-study explainability values (depend on an unpublished
# rule base; used as loose reference targets only).
CALIFORNIA_EXPLAIN_REFERENCE = {
    "active_rules": {0.15: 8.38, 0.25: 6.33, 0.5: 3.83},
    "noise_pct": {0.01: 1.18, 0.05: 5.84, 0.10: 12.24},
    "rule_count": 75,
    "mean_antecedents": 2.67,
    "prediction_range_fraction": 0.96,
    "dataset_coverage": 1.0,
    "classes_covered": 1.0,
}

ACTIVE_RULE_THRESHOLDS = (0.15, 0.25, 0.5)
NOISE_LEVELS = (0.0, 0.01, 0.05, 0.10)
NOISE_REPEATS = 5  # seeded noise draws averaged per level

# named substreams of the master seed, beside `pipeline`'s
STREAM_HOLDOUT_SPLIT = 101  # case_study's train/test split
STREAM_HOLDOUT_EXPLAIN = 102  # case_study's explainability noise
STREAM_EXPLAIN = 201  # the explainability noise of run_cv and CLI explain


class TrainingFailedError(RuntimeError):
    """Every fold of a cross-validation run failed to train."""


def reference_for(dataset_name: str) -> dict[str, float]:
    """Published scores for a dataset, {} when unknown."""
    key = "".join(ch for ch in dataset_name.lower() if ch.isalnum())
    for name, table in REFERENCE_RMSE.items():
        if "".join(ch for ch in name if ch.isalnum()) == key:
            return dict(table)
    if key.startswith("california"):
        return dict(CALIFORNIA_REFERENCE)
    return {}


@dataclass(frozen=True)
class Explainability:
    """Case-study metrics block; JSON writes its float keys as strings."""

    classes_covered: float
    active_rules: dict[float, float]
    rule_count: int
    mean_antecedents: float
    dataset_coverage: float
    prediction_range_fraction: float
    noise_deltas: dict[float, float]


@dataclass(frozen=True)
class EvalReport:
    dataset: str
    variant: str
    fold_rmse: tuple[float, ...]
    mean_rmse: float
    reference: dict[str, float]
    explainability: Explainability | None
    fallback_rate: float
    failed_folds: tuple[int, ...] = ()
    warning: str | None = None


def explainability_block(
    model: Model, rows: Dataset, seed: int = 0, base: _Weighed | None = None
) -> Explainability:
    """The case-study metrics of ``model`` on ``rows``, all read from one
    inference pass but the noisy ones: ``base``, the `_weigh` pass of
    ``model`` on ``rows`` when given.

    ``active_rules`` holds, per threshold of ACTIVE_RULE_THRESHOLDS, the
    mean count of rules whose firing midpoint exceeds it.  ``noise_deltas``
    holds, per level of NOISE_LEVELS, the mean absolute prediction change
    as a percentage of the mean target when each feature gets Gaussian
    noise of standard deviation level * (that feature's training stddev),
    averaged over NOISE_REPEATS draws.  The level at position i draws
    repeat r from stream ``(seed, i, r)``.
    """
    base = _weigh(model, rows) if base is None else base
    target_span = float(np.ptp(rows.y))
    if target_span == 0.0:
        raise ValueError("constant targets; range fraction undefined")
    denom = abs(float(np.mean(rows.y)))
    if denom == 0.0:
        raise ValueError("mean target is zero; percentage change undefined")
    stds = {name: std for name, _, std in model.feature_stats}
    missing = [n for n in model.feature_names if n not in stds]
    if missing:
        raise ValueError(f"model has no feature statistics for {', '.join(missing)}")

    mid = reduce_firing(base.cells.lo, base.cells.hi, "midpoint")
    n = rows.n_rows
    active = {
        t: float(np.mean(np.bincount(base.cells.row[mid > t], minlength=n)))
        for t in ACTIVE_RULE_THRESHOLDS
    }
    noise = {}
    for li, level in enumerate(NOISE_LEVELS):
        deltas = []
        for rep in range(NOISE_REPEATS if level else 0):
            rng = np.random.default_rng(np.random.SeedSequence([seed, li, rep]))
            noisy = {
                v: rows.column(v) + rng.normal(0.0, level * stds[v], n)
                for v in model.feature_names
            }
            try:
                values = _weigh(model, noisy).values
            except RuleUnfittableError as exc:
                msg = f"noise level {level}, draw {rep}: {exc} (a row of a noisy copy)"
                raise RuleUnfittableError(msg) from exc
            deltas.append(float(np.mean(np.abs(values - base.values))))
        noise[level] = 100.0 * float(np.mean(deltas)) / denom if deltas else 0.0
    return Explainability(
        classes_covered=len({r.consequent_set for r in model.rules})
        / len(model.target_partition.sets),
        active_rules=active,
        rule_count=len(model.rules),
        mean_antecedents=float(np.mean([len(r.antecedent) for r in model.rules])),
        dataset_coverage=float(np.mean(base.fired_counts > 0)),
        prediction_range_fraction=float(np.ptp(base.values)) / target_span,
        noise_deltas=noise,
    )


def run_cv(
    folds: Sequence[FoldSplit],
    config: TrainConfig,
    dataset_name: str | None = None,
    explain: bool = False,
) -> EvalReport:
    """Train and score the full pipeline on each fold.

    A fold whose training raises is marked failed and excluded from the
    mean; the report carries a warning instead of aborting the run.
    The explainability block, when requested, is computed on the first
    completed fold's test rows.
    """
    if not folds:
        raise ValueError("no folds given")
    name = dataset_name or folds[0].train.name

    done, failed = [], []
    for fold in folds:
        try:
            model = train_model(fold.train, config).model
            values, _, fallback = predict_values(model, fold.test)
        except (ValueError, RuntimeError):
            failed.append(fold.fold_index)
            continue
        done.append(
            (fold.test, model, rmse(values, fold.test.y), float(np.mean(fallback)))
        )
    if not done:
        raise TrainingFailedError(f"all {len(folds)} folds failed to train")
    fold_rmse = [score for _, _, score, _ in done]

    block = None
    if explain:
        test, model, _, _ = done[0]
        seed = derive_seed(config.seed, STREAM_EXPLAIN)
        block = explainability_block(model, test, seed=seed)
    return EvalReport(
        dataset=name,
        variant=config.variant,
        fold_rmse=tuple(fold_rmse),
        mean_rmse=float(np.mean(fold_rmse)),
        reference=reference_for(name),
        explainability=block,
        fallback_rate=float(np.mean([fb for *_, fb in done])),
        failed_folds=tuple(failed),
        warning=f"{len(failed)} fold(s) failed to train" if failed else None,
    )


def derive_mamdani(model: Model, train: Dataset) -> Model:
    """Baseline twin of a trained model: same rules, centroid outputs.

    Every rule keeps its antecedent and consequent set but its output
    becomes the midpoint of the consequent set's upper plateau (clipped
    to the target domain).  Error dominance is recomputed from the
    constant outputs on the rows each rule fires on (its hybrid output
    there, even an overflow, is not read), so inference weighting stays
    internally consistent.
    """
    cells = rule_matrices(model.tables, _feature_rows(model.feature_partitions, train))
    bounds = np.searchsorted(cells.rule, np.arange(len(model.rules) + 1))
    domain = model.target_partition.domain
    new_rules = []
    for i, rule in enumerate(model.rules):
        s = model.target_partition.set_named(rule.consequent_set)
        plateau_mid = 0.5 * (s.upper_params[1] + s.upper_params[2])
        centroid = float(np.clip(plateau_mid, domain[0], domain[1]))
        rows = cells.row[bounds[i] : bounds[i + 1]]
        if rows.size:
            err_dom = error_dominance(rmse(centroid, train.y[rows]))
        else:
            err_dom = rule.error_dominance
        new_rules.append(
            replace(
                rule,
                consequent_fn=Polynomial(
                    degree=1,
                    variables=(),
                    exponents=((),),
                    coefficients=(centroid,),
                ),
                error_dominance=err_dom,
            )
        )
    manifest = {**model.manifest, "baseline": "mamdani_centroid"}
    return replace(model, rules=tuple(new_rules), manifest=manifest)


@dataclass(frozen=True)
class CaseStudyResult:
    """Holdout comparison of the hybrid model against its Mamdani twin."""

    hybrid: EvalReport
    baseline: EvalReport
    hybrid_model: Model
    baseline_model: Model
    test: Dataset
    hybrid_values: np.ndarray
    baseline_values: np.ndarray


def quantization_profile(model: Model, rows: Dataset) -> tuple[int, int, int]:
    """Banding check: (distinct values on single-fire rows, single-fire
    row count, number of target sets)."""
    values, fired_counts, _ = predict_values(model, rows)
    mask = fired_counts == 1
    distinct = int(np.unique(np.round(values[mask], 9)).size)
    return distinct, int(mask.sum()), len(model.target_partition.sets)


def case_study(
    dataset: Dataset,
    config: TrainConfig,
    holdout_fraction: float = 0.2,
) -> CaseStudyResult:
    """80/20 train/test comparison: hybrid vs shared-structure baseline."""
    seed = derive_seed(config.seed, STREAM_HOLDOUT_SPLIT)
    train, test = split_holdout(dataset, holdout_fraction, seed)
    result = train_model(train, config)
    hybrid_model = result.model
    baseline_model = derive_mamdani(hybrid_model, train)

    def scored(model: Model, variant: str, block: Explainability | None):
        values, _, fallback = predict_values(model, test)
        score = rmse(values, test.y)
        return values, EvalReport(
            dataset=dataset.name,
            variant=variant,
            fold_rmse=(score,),
            mean_rmse=score,
            reference=reference_for(dataset.name),
            explainability=block,
            fallback_rate=float(np.mean(fallback)),
        )

    explain_seed = derive_seed(config.seed, STREAM_HOLDOUT_EXPLAIN)
    hybrid_values, hybrid_report = scored(
        hybrid_model,
        config.variant,
        explainability_block(hybrid_model, test, seed=explain_seed),
    )
    baseline_values, baseline_report = scored(baseline_model, "mamdani", None)
    return CaseStudyResult(
        hybrid=hybrid_report,
        baseline=baseline_report,
        hybrid_model=hybrid_model,
        baseline_model=baseline_model,
        test=test,
        hybrid_values=hybrid_values,
        baseline_values=baseline_values,
    )
