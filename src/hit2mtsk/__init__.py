"""Hybrid interval type-2 Mamdani-TSK fuzzy regression.

Pipeline: data-driven IT2 partitions, instance-seeded hybrid rules with
bounded polynomial consequents, dual dominance weighting, ant-colony
rule-subset selection, and weighted-mean inference, plus a benchmark
and explainability harness.
"""

from .aco import AcoConfig, AcoConfigError, RuleSubset, select_rules
from .data import (
    Dataset,
    FoldSplit,
    ParseError,
    dataset_fingerprint,
    load_csv,
    load_keel,
    load_keel_folds,
    make_folds,
    split_holdout,
)
from .dominance import (
    FuzzyDominance,
    ZeroSupportError,
    error_dominance,
    fuzzy_dominance,
)
from .evaluate import (
    CALIFORNIA_EXPLAIN_REFERENCE,
    CALIFORNIA_REFERENCE,
    REFERENCE_RMSE,
    CaseStudyResult,
    EvalReport,
    Explainability,
    TrainingFailedError,
    active_rules_per_prediction,
    case_study,
    coverage_metrics,
    derive_mamdani,
    explainability_block,
    noise_robustness,
    quantization_profile,
    run_cv,
)
from .inference import (
    FiredRule,
    Model,
    NotTrainedError,
    Prediction,
    predict,
    predict_values,
)
from .it2 import (
    DegeneratePartitionError,
    IT2Set,
    Partition,
    build_partition,
    fire,
)
from .persist import (
    load_model,
    load_rules,
    load_universe,
    rules_text,
    save_model,
    save_rules,
    save_universe,
    write_xy_csv,
)
from .pipeline import TrainConfig, TrainResult, build_partitions, train_model
from .rules import (
    HybridRule,
    Polynomial,
    RuleUnfittableError,
    clamp,
    fit_consequent,
    monomial_exponents,
)
from .universe import (
    EmptyUniverseError,
    GenerationConfig,
    RuleUniverse,
    generate_candidates,
)

__version__ = "0.1.0"
