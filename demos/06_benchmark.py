"""Cross-validated benchmark run on a KEEL-format dataset.

Needs externally fetched data (see README, "Benchmark data"). When the
folds are missing the script explains how to get them and falls back to
a synthetic run so the reporting path is still visible.
"""
import os
import sys
from pathlib import Path

import numpy as np

from hit2mtsk import (
    Dataset,
    GenerationConfig,
    TrainConfig,
    load_keel_folds,
    make_folds,
    run_cv,
)

DATA_ROOT = Path(os.environ.get("HIT2MTSK_DATA", Path(__file__).resolve().parents[1] / "data"))
NAME = sys.argv[1] if len(sys.argv) > 1 else "concrete"

fold_dir = DATA_ROOT / "keel" / NAME
if (fold_dir / f"{NAME}-5-1tra.dat").exists():
    folds = load_keel_folds(fold_dir, NAME)
    dataset_name = NAME
    print(f"loaded 5 KEEL folds for {NAME} from {fold_dir}")
else:
    print(f"no KEEL folds under {fold_dir}; running on synthetic data instead")
    print("fetch instructions are in README.md under 'Benchmark data'\n")
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 10, size=(400, 2))
    y = 2.0 + 1.5 * X[:, 0] - 0.8 * X[:, 1] + rng.normal(0, 0.3, 400)
    ds = Dataset(
        name="synthetic", feature_names=("x1", "x2"), X=X, target_name="y", y=y
    )
    folds = make_folds(ds, seed=0)
    dataset_name = "synthetic"

config = TrainConfig(generation=GenerationConfig(degree=2), seed=0)
report = run_cv(folds, config, dataset_name=dataset_name, explain=True)

print(f"dataset {report.dataset}, variant {report.variant}")
for i, rmse in enumerate(report.fold_rmse, start=1):
    print(f"  fold {i}: rmse {rmse:.4f}")
print(f"mean rmse {report.mean_rmse:.4f}, fallback rate {report.fallback_rate:.3f}")

if report.reference:
    print("\npublished reference scores for this dataset:")
    for variant, value in sorted(report.reference.items()):
        print(f"  {variant}: {value}")

block = report.explainability
if block is not None:
    print("\nexplainability on the first fold's test rows")
    print(f"  rules: {block.rule_count}, mean antecedents {block.mean_antecedents:.2f}")
    print(f"  dataset coverage {block.dataset_coverage:.2f}")
    for t in sorted(block.active_rules):
        print(f"  active rules >{t:.2f}: {block.active_rules[t]:.2f}")
