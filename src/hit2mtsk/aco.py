"""Ant-colony selection of the active rule subset.

Selection prunes a model.  Ants repeatedly sample subsets of the
candidate `Model`'s rules with probability proportional to
pheromone^alpha * heuristic^beta (heuristic = error dominance), score
each by the RMSE of that model restricted to the subset, evaporate and
deposit pheromone, and stop early after a patience window without
improvement.  Fully deterministic for a fixed seed: every ant draws
from its own (seed, iteration, ant) derived stream, its subset size and
then one uniform per rule, which keys the rules for one top-k draw.

A subset is scored through inference's own steps: the rows' feature
table, `rule_matrices` over the model's tables and `weigh` run once
before the search, which keeps each rule's fired rows, and there the
weights and weighted outputs `weigh` returns as the real and imaginary
parts of one complex cell (the cells' bounds and outputs are freed
first).  In training, generation has already computed each rule's
cells on the fit rows and returns them beside the universe; training
hands them on with the rows they stand for.  Then only the validation
rows are fired and weighed, and each rule's generation cells, weighed
by `cell_weights` (the arithmetic of `weigh`), go before its validation
cells and are freed once copied.
An ant adds its rules' cells into one reused complex row
buffer with `np.add.at`, rule by rule in index order; a rule's rows are
distinct, so every row sums its rules in index order from +0.0, the
additions inference's `bincount`s make.  The subset's prediction is
`weighted_mean` of the buffer's parts, with the model's fallback where
none fires.  A rule adds nothing where it does not fire, or fires with
weight 0, so its polynomial there (even an overflow) never enters a
score.  A rule whose output is NaN on a row where it weighs in is
refused by `weigh`, naming that row, before the search starts.

This process draws every ant.  Where a `helper.Helper` can gain (see
`helper.can_fork`), there are at least two ants and one iteration's
expected scoring work reaches `HELPER_WORK` (a toy search stays whole),
the first half of each iteration's ants, `num_ants // 2`, is also scored
on one forked helper process.  It inherits the search table when it is
forked, and gets its ants as soon as the last of them is drawn; this
process scores the rest, then reads the helper's costs and updates the
pheromone in ant order.  Every cost comes from the same code on the same
arrays, so the result does not depend on the number of cores or on which
process scored which ant.  If the helper dies, this process scores its
ants.  Nothing sets whether a helper runs: no config field, flag or
environment variable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .helper import Helper, can_fork
from .inference import (
    Model,
    _feature_rows,
    cell_weights,
    rule_matrices,
    weigh,
    weighted_mean,
)
from .rules import HybridRule, rmse
from .universe import RuleCells

PHEROMONE_FLOOR = 1e-12
# A search scores ants on a helper process only when one iteration's
# expected scoring work, num_ants * (rows + mean subset size * mean cells
# per rule), is at least HELPER_WORK.  On a 2-core x86-64 host, 30 ants
# for 20 iterations took 43.6 ms alone and 42.2 ms with one helper at a
# work of 66k, 63.7 against 53.4 ms at 461k, 104.5 against 84.7 at 1.2M
# and 285.7 against 181.8 at 4.7M; forking and reaping a helper of a
# 100 MB training process took about 4 ms, and each iteration's
# hand-off about 0.2 ms, which a search of few iterations below 500k does
# not earn back.  (Those hand-offs sent raw int64 arrays; pickling 15
# subsets of 10-100 rules for the connection instead took a round trip
# in one process from 30 to 73 us.)  The benchmark trains work at 1.0M
# (Friedman #1, 5000 rows) and 6.4M (Friedman #2, 20000 rows) per
# iteration
HELPER_WORK = 500_000


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

    One keyed draw (Efraimidis & Spirakis 2006; Kool et al. 2019), one
    vector pass: each index gets the key
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
    model: Model,
    dataset: Dataset,
    config: AcoConfig = AcoConfig(),
    seed: int = 0,
    generated: tuple[np.ndarray, list[RuleCells | None]] | None = None,
) -> tuple[RuleSubset, tuple[tuple[int, float], ...]]:
    """Search for the subset of ``model``'s rules whose model (``model``
    restricted to them) has the lowest RMSE on ``dataset``.  ``seed``
    fixes every ant's draws.  Subset sizes beyond the rule count are
    clamped down to it.  Returns the best subset and the (iteration,
    best RMSE so far) trace.

    ``generated``, when given, is ``(rows, cells)``: sorted rows of
    ``dataset``, and the list of each rule's cells on them that
    `generate_candidates` returns for a dataset of those rows alone.
    Only the other rows are fired here.  Each entry of ``cells`` is set
    to None once its rule's search arrays are built, and nothing here
    keeps it, so that its arrays are freed before the search.
    """
    rules = model.rules
    total = len(rules)
    lo = min(config.subset_size_range[0], total)
    hi = min(config.subset_size_range[1], total)

    x = _feature_rows(model.feature_partitions, dataset)
    y = dataset.y
    covered, known = generated or (np.empty(0, np.intp), [])
    # fire every row that no generation cells cover
    rest = np.setdiff1d(np.arange(y.size), covered)
    # looked up in this module, so selection's firing is timed apart
    cells = rule_matrices(model.tables, x[:, rest])
    # numbered as the dataset's rows before `weigh` can name one
    cells = cells._replace(row=rest[cells.row])
    w, wy = weigh(rules, model.tables, cells, model.firing_reduction)
    # each rule's rows where it fires, and there its weights and weighted
    # outputs as one complex cell; the cells' bounds and outputs are freed
    # before that table is built
    cuts = np.searchsorted(cells.rule, np.arange(1, total))
    rows_of = np.split(cells.row, cuts)
    del cells
    sums = np.empty(w.size, complex)
    sums.real, sums.imag = w, wy
    del w, wy
    sums_of = np.split(sums, cuts)
    # generation's cells take the rows they stand for and go first; a
    # rule's rows are distinct, so their order within it adds nothing.
    # They need no NaN check: generation refuses a NaN output
    for r, c in enumerate(known):
        known[r] = None
        w, wy = cell_weights(
            c.lo, c.hi, c.y, model.tables.dominance[r], model.firing_reduction
        )
        head = np.empty(w.size, complex)
        head.real, head.imag = w, wy
        rows_of[r] = np.concatenate((covered[c.row], rows_of[r]))
        sums_of[r] = np.concatenate((head, sums_of[r]))
        del c, w, wy, head  # so that no name keeps the last rule's cells
    buf = np.empty(y.size, complex)  # per-row (sum of w) + 1j * (sum of wy)

    def cost_of(sel: np.ndarray) -> float:
        # a rule's rows are distinct and sel is sorted, so every row adds
        # its rules once each, in index order, from +0.0: the additions a
        # bincount over the subset's cells makes, real and imaginary apart.
        # np.add.at's fast indexed loops arrived in numpy 1.25; an older
        # numpy adds the same bits, much more slowly
        buf.fill(0.0)
        for r in sel:
            np.add.at(buf, rows_of[r], sums_of[r])
        pred, _ = weighted_mean(buf.real, buf.imag, model.fallback_value)
        return rmse(pred, y)

    heuristic = model.tables.dominance
    pheromone = np.full(total, config.initial_pheromone)
    best_indices: tuple[int, ...] | None = None
    best_cost = math.inf
    stagnation = 0
    trace: list[tuple[int, float]] = []

    # an ant's scoring work counts the rows and its rules' cells
    cells_per_rule = sum(r.size for r in rows_of) / total
    work = config.num_ants * (y.size + (lo + hi) / 2 * cells_per_rule)
    share = config.num_ants // 2  # the helper's ants of each iteration
    fork = share > 0 and work >= HELPER_WORK and can_fork()
    helper = Helper(lambda sels: [cost_of(sel) for sel in sels], fork)
    try:
        for iteration in range(1, config.num_iterations + 1):
            improved = False
            weights = pheromone**config.alpha * heuristic**config.beta
            sels: list[np.ndarray] = []
            for ant in range(config.num_ants):
                rng = np.random.default_rng(
                    np.random.SeedSequence([seed, iteration, ant])
                )
                size = int(rng.integers(lo, hi + 1))
                sels.append(sample_subset(rng, weights, size))
                if ant + 1 == share:
                    helper.send(sels)
            # the ants past a live helper's share, then the helper's costs
            ahead = share if helper.alive else 0
            own = [cost_of(sel) for sel in sels[ahead:]]
            costs = helper.collect(sels[:ahead]) + own
            pheromone *= 1.0 - config.rho
            for sel, cost in zip(sels, costs):
                pheromone[sel] += config.deposit / (1.0 + cost)
                if cost < best_cost:
                    best_cost = cost
                    best_indices = tuple(int(i) for i in sel)
                    improved = True
            np.maximum(pheromone, PHEROMONE_FLOOR, out=pheromone)
            trace.append((iteration, best_cost))
            stagnation = 0 if improved else stagnation + 1
            if stagnation >= config.patience:
                break
    finally:
        helper.close()

    assert best_indices is not None
    subset = RuleSubset(
        indices=best_indices,
        rules=tuple(rules[i] for i in best_indices),
        cost=best_cost,
    )
    return subset, tuple(trace)
