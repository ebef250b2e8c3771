"""Candidate rule generation.

Every training instance seeds one maximal rule (per feature, the set
with greatest upper membership; consequent likewise from the target).
Seeds are then generalized by clause deletion into all shorter
antecedents up to a configured length, deduplicated and graded by
fuzzy dominance, firing each antecedent once.  The candidates are
capped, and rescued for coverage, from those firing rows alone, before
any fit; then one loop fits every chosen candidate, one clause subset
at a time, and grades it again by fit error.  The result is the rule
universe the subset selector searches over.  Beside it,
`generate_candidates` returns each rule's cells on those rows
(`RuleCells`: rows, firing bounds, clamped outputs), so that training's
selection need not fire and evaluate them again.

Where `helper.can_fork` holds and the chosen candidates' estimated work
reaches `HELPER_WORK`, the fit loop splits its clause subsets, in
descending order of work, each to the lighter of this process and one
forked helper, which sends back its candidates' indices, rules and
clamped outputs.  Every fit runs the same code on the same arrays, so
nothing depends on which process fitted a candidate.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .data import Dataset, dataset_fingerprint
from .dominance import (
    combine_dominance,
    confidence_interval,
    error_dominance,
    support_interval,
)
from .helper import Helper, can_fork
from .it2 import TNORMS, DegeneratePartitionError, Partition, fire
from .rules import HybridRule, clamp, design_matrix, fit_consequent, rmse


# A clause subset's estimated work is its candidates' fired rows times
# its design's columns, plus FIT_WORK each: on a 2-core x86-64 host a fit
# took about 24 ns per row and column beside a fixed 0.14 ms.  There, in a
# 100 MB process, generation took 29.9 ms alone and 30.6 ms with a helper
# at a work of 0.85M, 74.7 against 76.9 ms at 2.4M, 155.4 against 166.9 at
# 3.5M, 118.2 against 107.7 at 3.9M, 190.7 against 155.6 at 6.3M (Friedman
# #2, 15000 fit rows) and 633.6 against 583.1 at 20.8M (Friedman #1, 3750)
HELPER_WORK = 3_500_000
FIT_WORK = 6_000


class EmptyUniverseError(RuntimeError):
    """No rule survived generation; training cannot proceed."""


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs of the candidate generator.

    min_rows of None means "monomial count of the configured degree for
    the rule's own arity", which keeps every kept rule's polynomial
    determined.  min_coverage is the fraction of training rows that must
    fire at least one kept rule; the generator adds back capped, then
    pruned, candidates (best dominance first) until it is met.
    """

    degree: int = 3
    max_antecedent: int = 3
    max_candidates: int = 2000
    dominance_threshold: float = 0.01
    tnorm: str = "minimum"
    ridge: float = 1e-6
    weighted_fit: bool = False
    min_rows: int | None = None
    min_coverage: float = 0.99

    def __post_init__(self) -> None:
        if self.degree not in (1, 2, 3):
            raise ValueError("degree must be 1, 2 or 3")
        if self.max_antecedent < 1:
            raise ValueError("max_antecedent must be >= 1")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        if self.dominance_threshold < 0.0:
            raise ValueError("dominance_threshold must be >= 0")
        if self.tnorm not in TNORMS:
            raise ValueError(f"unknown t-norm {self.tnorm!r}")
        if self.ridge < 0.0:
            raise ValueError("ridge must be >= 0")
        if self.min_rows is not None and self.min_rows < 1:
            raise ValueError("min_rows must be >= 1")
        if not 0.0 <= self.min_coverage <= 1.0:
            raise ValueError("min_coverage must be in [0, 1]")


class RuleCells(NamedTuple):
    """One rule's cells on the rows of the dataset it was generated from
    where it fires: those rows, ascending, its firing bounds there and its
    clamped outputs, as `inference.rule_matrices` computes them."""

    row: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class RuleUniverse:
    """Fitted candidate pool plus everything needed to re-evaluate it."""

    rules: tuple[HybridRule, ...]
    feature_partitions: tuple[Partition, ...]
    target_partition: Partition
    config: GenerationConfig
    dataset_fingerprint: str
    coverage: float

    def __len__(self) -> int:
        return len(self.rules)


@dataclass(frozen=True)
class _Candidate:
    # antecedent as ((feature_pos, set_idx), ...) over partitioned features
    ant: tuple[tuple[int, int], ...]
    cons: int
    dominance: tuple[float, float]
    rows: int


def _candidate_keys(
    feat_arg: np.ndarray,
    cons_arg: np.ndarray,
    num_sets: Sequence[int],
    max_len: int,
) -> dict[tuple, list[int]]:
    """Consequents of every antecedent that clause deletion derives from
    the seed rows, keyed by antecedent ``((feature, set), ...)``.

    Seed row r has set ``feat_arg[r, j]`` of ``num_sets[j]`` on feature
    j and consequent ``cons_arg[r]``; every subset of at most
    ``max_len`` features yields one antecedent per row.  One subset at
    a time, each row's (consequent, sets on the subset) key gets a dense
    code: the code on the subset without its last feature, times that
    feature's set count, plus its set, renumbered by `np.unique`.  So
    codes stay below rows x sets and never overflow.
    """
    codes = {(): cons_arg}
    by_ant: dict[tuple, list[int]] = {}
    for size in range(1, max_len + 1):
        for subset in itertools.combinations(range(feat_arg.shape[1]), size):
            *head, j = subset
            raw = codes[tuple(head)] * num_sets[j] + feat_arg[:, j]
            _, first, codes[subset] = np.unique(
                raw, return_index=True, return_inverse=True
            )
            sets = feat_arg[np.ix_(first, subset)].tolist()
            for row, cons in zip(sets, cons_arg[first].tolist()):
                by_ant.setdefault(tuple(zip(subset, row)), []).append(cons)
    return by_ant


def generate_candidates(
    dataset: Dataset,
    partitions: Mapping[str, Partition],
    config: GenerationConfig = GenerationConfig(),
) -> tuple[RuleUniverse, list[RuleCells]]:
    """Build the fitted rule universe for ``dataset``, and each of its
    rules' `RuleCells` on the rows of ``dataset``.

    ``partitions`` maps variable names to partitions and must include
    the target; features without a partition (e.g. constant columns)
    are simply excluded from antecedents.

    Raises
    ------
    DegeneratePartitionError
        If no feature has a partition (every feature is constant).
    EmptyUniverseError
        If no candidate survives viability filtering.
    """
    if dataset.target_name not in partitions:
        raise ValueError("partitions must include the target variable")
    feats = [f for f in dataset.feature_names if f in partitions]
    if not feats:
        raise DegeneratePartitionError(
            "no partitioned feature available for antecedents"
        )
    fparts = [partitions[f] for f in feats]
    tpart = partitions[dataset.target_name]
    col_of = [dataset.feature_names.index(f) for f in feats]
    n = dataset.n_rows

    mem = [p.membership_matrix(dataset.X[:, c]) for p, c in zip(fparts, col_of)]
    lower, upper = (np.vstack(bound) for bound in zip(*mem))  # one (sets, rows) table
    offset = np.cumsum([0] + [len(p.sets) for p in fparts])  # partitions' first rows
    t_low, t_upp = tpart.membership_matrix(dataset.y)

    # instance seeding: strongest set per feature and for the target
    feat_arg = np.stack([u.argmax(axis=0) for _, u in mem], axis=1)
    cons_arg = t_upp.argmax(axis=0)

    # clause-deletion generalization, deduplicated
    max_len = min(config.max_antecedent, len(feats))
    by_ant = _candidate_keys(
        feat_arg, cons_arg, [len(p.sets) for p in fparts], max_len
    )

    # grading fires each antecedent once and reads its fired rows alone;
    # they and the firing bounds there are all that is read later
    records: list[_Candidate] = []
    fired: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for ant, cons_list in by_ant.items():
        f_lo, f_hi = fire(lower, upper, [offset[j] + s for j, s in ant], config.tnorm)
        rows = np.flatnonzero(f_hi > 0.0)
        if rows.size == 0:
            continue
        f_lo, f_hi = f_lo[rows], f_hi[rows]
        fired[ant] = (rows, f_lo, f_hi)
        for cons in cons_list:
            args = (f_lo, f_hi, t_low[cons, rows], t_upp[cons, rows])
            d = combine_dominance(
                support_interval(*args, n), confidence_interval(*args)
            )
            records.append(_Candidate(ant, cons, d.dominance, rows.size))

    def passes(cand: _Candidate) -> bool:
        d = config.degree
        floor = config.min_rows or math.comb(len(cand.ant) + d, d)
        return cand.rows >= floor and cand.dominance[1] >= config.dominance_threshold

    # one ranked order: candidates that pass the row floor and the
    # dominance threshold first, each part by descending dominance
    ranked = sorted(
        records,
        key=lambda c: (not passes(c), -c.dominance[1], len(c.ant), c.ant, c.cons),
    )
    if not ranked or not passes(ranked[0]):
        raise EmptyUniverseError(
            "no rule survived dominance and row-count filtering"
        )
    # the first max_candidates passing candidates, then, while coverage is
    # short, every later one in rank order that fires on an uncovered row
    chosen: list[_Candidate] = []
    covered = np.zeros(n, dtype=bool)
    for cand in ranked:
        rows = fired[cand.ant][0]
        if len(chosen) >= config.max_candidates or not passes(cand):  # a rescue
            if covered.mean() >= config.min_coverage:
                break
            if covered[rows].all():
                continue
        chosen.append(cand)
        covered[rows] = True

    def fit_rule(cand: _Candidate, design: np.ndarray) -> tuple[HybridRule, np.ndarray]:
        var_names = tuple(feats[j] for j, _ in cand.ant)
        rows, lo, hi = fired[cand.ant]
        # the rows of the subset design this rule fires on; its linear
        # columns are the rule's own inputs
        D = design.take(rows, axis=0)
        X_sub = D[:, 1 : 1 + len(var_names)]
        y_sub = dataset.y[rows]
        bounds = tpart.sets[cand.cons].support
        poly = fit_consequent(
            X_sub,
            y_sub,
            variables=var_names,
            degree=config.degree,
            ridge=config.ridge,
            firing=0.5 * (lo + hi),
            weighted=config.weighted_fit,
            clamp_bounds=bounds,
            design=D,
        )
        # a degraded fit may be a constant over none of the variables; a
        # NaN output fails `error_dominance`, so every kept output is a number
        raw = poly.evaluate(X_sub[:, [var_names.index(v) for v in poly.variables]])
        y = clamp(raw, bounds)
        rule = HybridRule(
            antecedent=tuple(
                (feats[j], fparts[j].sets[s].name) for j, s in cand.ant
            ),
            consequent_set=tpart.sets[cand.cons].name,
            consequent_fn=poly,
            clamp_bounds=bounds,
            fuzzy_dominance=cand.dominance,
            error_dominance=error_dominance(rmse(y, y_sub)),
        )
        return rule, y

    # a clause subset's candidates, and its work (see HELPER_WORK)
    by_subset: dict[tuple[int, ...], list[int]] = {}
    work: dict[tuple[int, ...], int] = {}
    for i, cand in enumerate(chosen):
        subset = tuple(j for j, _ in cand.ant)
        by_subset.setdefault(subset, []).append(i)
        cols = math.comb(len(subset) + config.degree, config.degree)
        work[subset] = work.get(subset, 0) + fired[cand.ant][0].size * cols + FIT_WORK

    def fit_subsets(subsets: list[tuple[int, ...]]) -> dict:
        # each candidate's (rule, clamped outputs) by index, one design alive
        out = {}
        for subset in subsets:
            # a monomial may overflow on a huge input: a fit it makes
            # non-finite degrades to a constant, without a warning
            with np.errstate(over="ignore", invalid="ignore"):
                design = design_matrix(
                    dataset.X[:, [col_of[j] for j in subset]], config.degree
                )
                out.update((i, fit_rule(chosen[i], design)) for i in by_subset[subset])
            del design
        return out

    helper = Helper(fit_subsets, sum(work.values()) >= HELPER_WORK and can_fork())
    try:
        mine, theirs = list(work), []
        if helper.alive:  # by descending work, each subset to the lighter side
            mine, loads = [], [0, 0]
            for subset in sorted(work, key=work.get, reverse=True):
                side = int(loads[1] <= loads[0])
                (mine, theirs)[side].append(subset)
                loads[side] += work[subset]
            helper.send(theirs)
        fitted = fit_subsets(mine) | helper.collect(theirs)
    finally:
        helper.close()
    # in chosen order; rows and firing bounds never crossed the pipe
    cells = [RuleCells(*fired[c.ant], fitted[i][1]) for i, c in enumerate(chosen)]
    universe = RuleUniverse(
        rules=tuple(fitted[i][0] for i in range(len(chosen))),
        feature_partitions=tuple(fparts),
        target_partition=tpart,
        config=config,
        dataset_fingerprint=dataset_fingerprint(dataset),
        coverage=float(covered.mean()),
    )
    return universe, cells
