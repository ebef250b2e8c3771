"""Ant-colony selection of a rule subset.

Generates an oversized candidate universe on synthetic data, puts every
candidate into one model, then lets the colony prune that model to a
small subset of rules that predicts well. Prints the convergence trace
and compares the chosen subset against using every candidate at once.
"""
import numpy as np

import dataclasses

from hit2mtsk import (
    AcoConfig,
    Dataset,
    GenerationConfig,
    Model,
    build_partition,
    generate_candidates,
    predict_values,
    select_rules,
)

rng = np.random.default_rng(5)
n = 400
X = rng.uniform(0, 10, size=(n, 2))
y = 2.0 + 1.5 * X[:, 0] - 0.8 * X[:, 1] + 0.05 * X[:, 0] * X[:, 1]
y += rng.normal(0, 0.3, n)
ds = Dataset(
    name="synthetic", feature_names=("x1", "x2"), X=X, target_name="y", y=y
)

partitions = {
    name: build_partition(ds.column(name), num_sets=3, variable=name)
    for name in ("x1", "x2", "y")
}

# beside the universe, generation returns each rule's cells on ds, which
# training hands to selection; selecting over ds alone needs none
universe, _ = generate_candidates(
    ds, partitions, GenerationConfig(degree=2, max_candidates=60)
)
print(f"candidate universe: {len(universe)} rules, coverage {universe.coverage:.3f}")

config = AcoConfig(
    num_ants=10,
    num_iterations=60,
    subset_size_range=(4, 20),
    patience=15,
)
# selection prunes a model: every candidate rule, with the t-norm, firing
# reduction and fallback (ds's target mean, for rows that none of a
# subset's rules fires on) that the pruned model keeps
candidates = Model(
    feature_partitions=universe.feature_partitions,
    target_partition=universe.target_partition,
    rules=universe.rules,
    tnorm=universe.config.tnorm,
    firing_reduction="midpoint",
    fallback_value=float(ds.y.mean()),
)
subset, trace = select_rules(candidates, ds, config, seed=1)

print(f"\nselected {len(subset.indices)} of {len(universe)} rules, cost {subset.cost:.4f}")
print("convergence (iteration, best cost so far):")
for it, cost in trace[:: max(1, len(trace) // 8)]:
    print(f"  {it:3d}  {cost:.4f}")
if trace[-1][0] != it:
    print(f"  {trace[-1][0]:3d}  {trace[-1][1]:.4f}  (stopped: no improvement)")

# a subset's cost is the RMSE on ds of the candidate model cut to its rules
pruned = dataclasses.replace(candidates, rules=subset.rules)
values, _, _ = predict_values(pruned, ds)
print(f"the pruned model's RMSE on ds: {np.sqrt(np.mean((values - ds.y) ** 2)):.4f}")

# forcing the subset size to the whole universe scores "use everything"
all_cfg = dataclasses.replace(
    config, subset_size_range=(len(universe), len(universe)), num_iterations=1
)
full, _ = select_rules(candidates, ds, all_cfg)
print(f"\nall {len(universe)} rules at once would cost {full.cost:.4f}")
print("a good small subset matches or beats the full universe while staying legible")
