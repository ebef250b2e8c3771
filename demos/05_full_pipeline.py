"""End to end: train, inspect, predict, explain, save, reload.

Everything here is deterministic given the config seed; rerunning the
script reproduces the identical model file byte for byte.
"""
import tempfile
from pathlib import Path

import numpy as np

from hit2mtsk import (
    AcoConfig,
    Dataset,
    GenerationConfig,
    TrainConfig,
    explainability_block,
    load_model,
    predict,
    predict_values,
    save_model,
    train_model,
)
from hit2mtsk.persist import rules_text

rng = np.random.default_rng(19)
n = 500
X = rng.uniform(0, 10, size=(n, 2))
y = 2.0 + 1.5 * X[:, 0] - 0.8 * X[:, 1] + 0.05 * X[:, 0] * X[:, 1]
y += rng.normal(0, 0.3, n)
ds = Dataset(name="demo", feature_names=("x1", "x2"), X=X, target_name="y", y=y)

config = TrainConfig(
    generation=GenerationConfig(degree=2, max_candidates=150),
    aco=AcoConfig(num_ants=8, num_iterations=30, patience=8),
    seed=3,
)
result = train_model(ds, config)
model = result.model
print(f"universe of {len(result.universe)} candidates -> {len(model.rules)} selected rules\n")
print(rules_text(model.rules, model.target_partition.variable))

# one itemized prediction: which rules fired, how hard, what they said
p = predict(model, {"x1": 7.0, "x2": 2.0})
print(f"prediction at x1=7, x2=2: {p.value:.3f}")
for f in p.fired_rules:
    print(
        f"  rule {f.index + 1}: firing [{f.firing[0]:.3f}, {f.firing[1]:.3f}]"
        f" weight {f.weight:.3f} output {f.output:.3f}"
    )

# batch scoring against the training rows
values, _, fallback = predict_values(model, ds)
rmse = np.sqrt(np.mean((values - ds.y) ** 2))
print(f"\ntraining rmse {rmse:.4f}, fallback rate {fallback.mean():.3f}")

# explainability: how many rules matter, how fragile predictions are
block = explainability_block(model, ds)
print(f"\ncoverage {block.dataset_coverage:.3f}, "
      f"prediction range fraction {block.prediction_range_fraction:.3f}")
print("mean active rules by firing threshold")
for t, count in sorted(block.active_rules.items()):
    print(f"  >{t:.2f}: {count:.2f}")
print("prediction change under feature noise (% of mean target)")
for lv, pct in sorted(block.noise_deltas.items()):
    print(f"  level {lv:.2f}: {pct:.2f}%")

# persistence: the saved bundle reloads to an equivalent model
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(model, path)
    again = load_model(path)
    same = predict(again, {"x1": 7.0, "x2": 2.0}).value
    print(f"\nreloaded model predicts {same:.3f} (identical: {same == p.value})")
