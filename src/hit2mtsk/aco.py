"""Ant-colony selection of the active rule subset.

Ants repeatedly sample rule subsets with probability proportional to
pheromone^alpha * heuristic^beta (heuristic = error dominance), score
each subset by full-pipeline RMSE on the fit+validation rows, evaporate
and deposit pheromone, and stop early after a patience window without
improvement.  Fully deterministic for a fixed seed: every ant draws
from its own (seed, iteration, ant) derived stream, its subset size and
then one uniform per rule, which keys the rules for one top-k draw.

A subset is scored over each rule's firing rows only.  Every rule's
weights and weighted outputs are stored once, for the rows it fires on,
and a subset's prediction is their `weighted_mean`, in index order.  A rule
adds nothing where it does not fire, so its polynomial there (even an
overflow) never enters a score.  A rule whose output is NaN on a row
where it fires would make every subset holding it cost NaN; it is
refused with `RuleUnfittableError` before the search starts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .inference import compile_rules, reduce_firing, rule_matrices, weighted_mean
from .rules import HybridRule, RuleUnfittableError, rmse
from .universe import RuleUniverse

PHEROMONE_FLOOR = 1e-12


class AcoConfigError(ValueError):
    """Infeasible or out-of-range ACO settings."""


@dataclass(frozen=True)
class AcoConfig:
    num_ants: int = 30
    num_iterations: int = 200
    alpha: float = 1.0
    beta: float = 2.0
    rho: float = 0.1
    deposit: float = 1.0
    initial_pheromone: float = 0.1
    subset_size_range: tuple[int, int] = (10, 100)
    patience: int = 20

    def __post_init__(self) -> None:
        if self.num_ants < 1 or self.num_iterations < 1:
            raise AcoConfigError("need at least one ant and one iteration")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise AcoConfigError("alpha and beta must be >= 0")
        if not 0.0 < self.rho <= 1.0:
            raise AcoConfigError("rho must be in (0, 1]")
        if self.deposit <= 0.0:
            raise AcoConfigError("deposit must be > 0")
        if self.initial_pheromone <= 0.0:
            raise AcoConfigError("initial_pheromone must be > 0")
        lo, hi = self.subset_size_range
        if lo < 1 or lo > hi:
            raise AcoConfigError(
                f"infeasible subset_size_range ({lo}, {hi})"
            )
        if self.patience < 1:
            raise AcoConfigError("patience must be >= 1")


@dataclass(frozen=True)
class RuleSubset:
    indices: tuple[int, ...]
    rules: tuple[HybridRule, ...]
    cost: float


def sample_subset(
    rng: np.random.Generator, weights: np.ndarray, size: int
) -> np.ndarray:
    """Draw ``size`` distinct indices, each step normalized over the rest.

    One keyed draw (Efraimidis & Spirakis 2006): each index gets the key
    ``log(w) - log(-log u)`` from its own uniform ``u`` of ``rng``, which
    orders the indices as ``u ** (1 / w)`` does but stays finite for every
    positive weight, and the ``size`` largest keys win.  That is the law
    of ``size`` successive proportional picks.  Zero weights come after
    every positive one, uniformly among themselves (ranked by ``u``).
    """
    total_rules = weights.size
    if size > total_rules:
        raise ValueError("subset size exceeds rule count")
    if not (np.all(weights >= 0.0) and np.isfinite(weights.sum())):
        raise ValueError("weights must be finite and non-negative")
    u = rng.random(total_rules)
    if size > np.count_nonzero(weights):
        key = np.where(weights > 0.0, np.inf, u)
    else:
        with np.errstate(divide="ignore"):  # a zero weight keys -inf
            key = np.log(weights) - np.log(-np.log(u))
    rest = total_rules - size  # the keys after position rest - 1 win
    return np.sort(np.argpartition(key, rest - 1)[rest:])


def select_rules(
    universe: RuleUniverse,
    train_data: Dataset,
    validation_data: Dataset | None,
    config: AcoConfig = AcoConfig(),
    firing_reduction: str = "midpoint",
    seed: int = 0,
) -> tuple[RuleSubset, tuple[tuple[int, float], ...]]:
    """Search for the lowest-RMSE rule subset.

    Scoring rows are the concatenation of ``train_data`` and
    ``validation_data`` (the latter may be None).  ``seed`` fixes every
    ant's draws.  Subset sizes beyond the universe size are clamped down
    to it.  Returns the best subset and the (iteration, best RMSE so far)
    trace.
    """
    rules = universe.rules
    total = len(rules)
    if total == 0:
        raise ValueError("universe is empty")
    lo = min(config.subset_size_range[0], total)
    hi = min(config.subset_size_range[1], total)

    scoring = [d for d in (train_data, validation_data) if d is not None]
    x = np.array(
        [
            np.concatenate([d.column(p.variable) for d in scoring])
            for p in universe.feature_partitions
        ]
    )
    y = np.concatenate([d.y for d in scoring])
    fallback = float(train_data.y.mean())

    tables = compile_rules(rules, universe.feature_partitions, universe.config.tnorm)
    # a polynomial that overflows where its rule does not fire is never scored
    with np.errstate(over="ignore", invalid="ignore"):
        cells = rule_matrices(tables, x)
    dom = tables.dominance
    w = reduce_firing(cells.lo, cells.hi, firing_reduction) * dom[cells.rule]
    live = w > 0.0
    rule, rows, w = cells.rule[live], cells.row[live], w[live]
    wy = w * cells.y[live]
    nan = np.flatnonzero(np.isnan(wy))
    if nan.size:
        # a NaN cost would reach the pheromone and stop the search unnamed
        i, row = int(rule[nan[0]]), int(rows[nan[0]])
        fit_rows = train_data.n_rows
        where = (
            f"training row {row}"
            if row < fit_rows
            else f"validation row {row - fit_rows}"
        )
        clauses = " AND ".join(f"{v} is {s}" for v, s in rules[i].antecedent)
        raise RuleUnfittableError(
            f"rule {i} (IF {clauses}) outputs NaN on {where}, where it "
            "fires: its polynomial overflows there"
        )
    # each rule's (rows, weights, weighted outputs) where it weighs in
    cuts = np.searchsorted(rule, np.arange(1, total))
    per_rule = [np.split(a, cuts) for a in (rows, w, wy)]

    def cost_of(sel: np.ndarray) -> float:
        # sel is sorted, so every row adds its rules in index order
        parts = [np.concatenate([of[r] for r in sel]) for of in per_rule]
        pred, _ = weighted_mean(*parts, y.size, fallback)
        return rmse(pred, y)

    heuristic = dom
    pheromone = np.full(total, config.initial_pheromone)
    best_indices: tuple[int, ...] | None = None
    best_cost = math.inf
    stagnation = 0
    trace: list[tuple[int, float]] = []

    for iteration in range(1, config.num_iterations + 1):
        improved = False
        deposits: list[tuple[np.ndarray, float]] = []
        weights = pheromone**config.alpha * heuristic**config.beta
        for ant in range(config.num_ants):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, iteration, ant])
            )
            size = int(rng.integers(lo, hi + 1))
            sel = sample_subset(rng, weights, size)
            cost = cost_of(sel)
            deposits.append((sel, config.deposit / (1.0 + cost)))
            if cost < best_cost:
                best_cost = cost
                best_indices = tuple(int(i) for i in sel)
                improved = True
        pheromone *= 1.0 - config.rho
        for sel, amount in deposits:
            pheromone[sel] += amount
        np.maximum(pheromone, PHEROMONE_FLOOR, out=pheromone)
        trace.append((iteration, best_cost))
        stagnation = 0 if improved else stagnation + 1
        if stagnation >= config.patience:
            break

    assert best_indices is not None
    subset = RuleSubset(
        indices=best_indices,
        rules=tuple(rules[i] for i in best_indices),
        cost=best_cost,
    )
    return subset, tuple(trace)
