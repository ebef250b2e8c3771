"""Benchmark harness, explainability metrics, and the Mamdani baseline.

Published reference scores are stored verbatim as data and attached to
reports for side-by-side display; they are never recomputed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset, FoldSplit, split_holdout
from .dominance import error_dominance
from .inference import Model, _weigh, predict_values, reduce_firing
from .pipeline import TrainConfig, derive_seed, train_model
from .rules import Polynomial, rmse

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


def active_rules_per_prediction(
    model: Model,
    rows: Dataset | Mapping[str, np.ndarray],
    thresholds: Sequence[float] = ACTIVE_RULE_THRESHOLDS,
) -> dict[float, float]:
    """Mean count of rules whose firing midpoint exceeds each threshold
    (each >= 0, so that a rule that does not fire counts under none)."""
    if not all(t >= 0.0 for t in thresholds):  # NaN fails this too
        raise ValueError(
            f"active-rule thresholds must be >= 0, got {list(thresholds)}"
        )
    w = _weigh(model, rows)
    mid = reduce_firing(w.cells.lo, w.cells.hi, "midpoint")
    n = w.values.size
    return {
        float(t): float(np.mean(np.bincount(w.cells.row[mid > t], minlength=n)))
        for t in thresholds
    }


def noise_robustness(
    model: Model,
    rows: Dataset,
    levels: Sequence[float] = NOISE_LEVELS,
    seed: int = 0,
    repeats: int = 5,
) -> dict[float, float]:
    """Prediction sensitivity to feature noise, per level.

    Each feature is perturbed with Gaussian noise of standard deviation
    level * (that feature's training stddev); the reported number is the
    mean absolute prediction change as a percentage of the mean target,
    averaged over ``repeats`` seeded draws.  The level at position i of
    ``levels`` draws repeat r from stream ``(seed, i, r)``; the result is
    keyed by level, so each level may appear only once.
    """
    if not all(np.isfinite(lv) and lv >= 0.0 for lv in levels):
        raise ValueError(
            f"noise levels must be finite and >= 0, got {list(levels)}"
        )
    seen: set[float] = set()
    for level in map(float, levels):
        if level in seen:
            raise ValueError(f"noise level {level} is repeated in {list(levels)}")
        seen.add(level)
    if repeats < 1:
        raise ValueError(f"noise repeats must be >= 1, got {repeats}")
    base, _, _ = predict_values(model, rows)
    denom = abs(float(np.mean(rows.y)))
    if denom == 0.0:
        raise ValueError("mean target is zero; percentage change undefined")
    stds = {name: std for name, _, std in model.feature_stats}
    missing = [n for n in model.feature_names if n not in stds]
    if missing:
        raise ValueError(
            f"model has no feature statistics for {', '.join(missing)}"
        )
    out: dict[float, float] = {}
    for li, level in enumerate(levels):
        if level == 0.0:
            out[float(level)] = 0.0
            continue
        deltas = []
        for rep in range(repeats):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, li, rep])
            )
            noisy = {}
            for p in model.feature_partitions:
                col = np.asarray(rows.column(p.variable), dtype=float)
                sd = stds[p.variable]
                noisy[p.variable] = col + rng.normal(0.0, level * sd, col.size)
            values, _, _ = predict_values(model, noisy)
            deltas.append(float(np.mean(np.abs(values - base))))
        out[float(level)] = 100.0 * float(np.mean(deltas)) / denom
    return out


def coverage_metrics(
    model: Model, rows: Dataset
) -> tuple[float, float, float]:
    """(classes_covered, dataset_coverage, prediction_range_fraction)."""
    if rows.n_rows == 0:
        raise ValueError("empty evaluation set")
    values, fired_counts, _ = predict_values(model, rows)
    classes = len({r.consequent_set for r in model.rules}) / len(
        model.target_partition.sets
    )
    coverage = float(np.mean(fired_counts > 0))
    target_span = float(np.ptp(rows.y))
    if target_span == 0.0:
        raise ValueError("constant targets; range fraction undefined")
    range_fraction = float(np.ptp(values)) / target_span
    return float(classes), coverage, range_fraction


def explainability_block(
    model: Model,
    rows: Dataset,
    seed: int = 0,
    thresholds: Sequence[float] = ACTIVE_RULE_THRESHOLDS,
    noise_levels: Sequence[float] = NOISE_LEVELS,
) -> Explainability:
    classes, coverage, range_fraction = coverage_metrics(model, rows)
    return Explainability(
        classes_covered=classes,
        active_rules=active_rules_per_prediction(model, rows, thresholds),
        rule_count=len(model.rules),
        mean_antecedents=float(
            np.mean([len(r.antecedent) for r in model.rules])
        ),
        dataset_coverage=coverage,
        prediction_range_fraction=range_fraction,
        noise_deltas=noise_robustness(model, rows, noise_levels, seed=seed),
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
        block = explainability_block(model, test, seed=derive_seed(config.seed, 201))
    return EvalReport(
        dataset=name,
        variant=config.variant,
        fold_rmse=tuple(fold_rmse),
        mean_rmse=float(np.mean(fold_rmse)),
        reference=reference_for(name),
        explainability=block,
        fallback_rate=float(np.mean([fb for *_, fb in done])),
        failed_folds=tuple(failed),
        warning=(
            f"{len(failed)} fold(s) failed to train" if failed else None
        ),
    )


def derive_mamdani(model: Model, train: Dataset) -> Model:
    """Baseline twin of a trained model: same rules, centroid outputs.

    Every rule keeps its antecedent and consequent set but its output
    becomes the midpoint of the consequent set's upper plateau (clipped
    to the target domain).  Error dominance is recomputed from the
    constant outputs on the training rows, so inference weighting stays
    internally consistent.
    """
    cells = _weigh(model, train).cells
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
    manifest = dict(model.manifest)
    manifest["baseline"] = "mamdani_centroid"
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


def quantization_profile(
    model: Model, rows: Dataset
) -> tuple[int, int, int]:
    """Banding check: (distinct values on single-fire rows, single-fire
    row count, number of target sets)."""
    values, fired_counts, _ = predict_values(model, rows)
    mask = fired_counts == 1
    if not np.any(mask):
        return 0, 0, len(model.target_partition.sets)
    distinct = int(np.unique(np.round(values[mask], 9)).size)
    return distinct, int(mask.sum()), len(model.target_partition.sets)


def case_study(
    dataset: Dataset,
    config: TrainConfig,
    holdout_fraction: float = 0.2,
) -> CaseStudyResult:
    """80/20 train/test comparison: hybrid vs shared-structure baseline."""
    train, test = split_holdout(
        dataset, holdout_fraction, derive_seed(config.seed, 101)
    )
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

    explain_seed = derive_seed(config.seed, 102)
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
