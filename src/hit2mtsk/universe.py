"""Candidate rule generation.

Every training instance seeds one maximal rule (per feature, the set
with greatest upper membership; consequent likewise from the target).
Seeds are then generalized by clause deletion into all shorter
antecedents up to a configured length, deduplicated and graded by
fuzzy dominance, firing each antecedent once.  The candidates are
capped, and rescued for coverage, from those firing rows alone, before
any fit; then one loop fits every chosen candidate, one clause subset
at a time, and grades it again by fit error.  The result is the rule
universe the subset selector searches over.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset, dataset_fingerprint
from .dominance import (
    combine_dominance,
    confidence_interval,
    error_dominance,
    support_interval,
)
from .it2 import TNORMS, DegeneratePartitionError, Partition, fire
from .rules import HybridRule, clamp, design_matrix, fit_consequent, rmse


class EmptyUniverseError(RuntimeError):
    """No rule survived generation; training cannot proceed."""


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs of the candidate generator.

    min_rows of None means "monomial count of the configured degree for
    the rule's own arity", which keeps every kept rule's polynomial
    determined.  min_coverage is the fraction of training rows that must
    fire at least one kept rule; the generator adds back pruned
    candidates (best dominance first) until it is met.
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
) -> RuleUniverse:
    """Build the fitted rule universe for ``dataset``.

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
    t_low, t_upp = tpart.membership_matrix(dataset.y)

    # instance seeding: strongest set per feature and for the target
    feat_arg = np.stack([u.argmax(axis=1) for _, u in mem], axis=1)
    cons_arg = t_upp.argmax(axis=1)

    # clause-deletion generalization, deduplicated
    max_len = min(config.max_antecedent, len(feats))
    by_ant = _candidate_keys(
        feat_arg, cons_arg, [len(p.sets) for p in fparts], max_len
    )

    # grading fires each antecedent once; its fired rows and firing
    # midpoints there are all that choosing and fitting read later
    records: list[_Candidate] = []
    fired: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for ant, cons_list in by_ant.items():
        f_lo, f_hi = fire(mem, ant, config.tnorm)
        rows = np.flatnonzero(f_hi > 0.0)
        if rows.size == 0:
            continue
        fired[ant] = (rows, 0.5 * (f_lo[rows] + f_hi[rows]))
        for cons in cons_list:
            args = (f_lo, f_hi, t_low[:, cons], t_upp[:, cons])
            d = combine_dominance(
                support_interval(*args), confidence_interval(*args)
            )
            records.append(_Candidate(ant, cons, d.dominance, rows.size))

    def required_rows(cand: _Candidate) -> int:
        if config.min_rows is not None:
            return config.min_rows
        return math.comb(len(cand.ant) + config.degree, config.degree)

    def order_key(cand: _Candidate):
        return (-cand.dominance[1], len(cand.ant), cand.ant, cand.cons)

    def passes(cand: _Candidate) -> bool:
        return (
            cand.rows >= required_rows(cand)
            and cand.dominance[1] >= config.dominance_threshold
        )

    viable = sorted(filter(passes, records), key=order_key)
    if not viable:
        raise EmptyUniverseError(
            "no rule survived dominance and row-count filtering"
        )
    chosen = viable[: config.max_candidates]
    covered = np.zeros(n, dtype=bool)
    for cand in chosen:
        covered[fired[cand.ant][0]] = True
    if covered.mean() < config.min_coverage:
        # rescue order: viable-but-capped first, then filter-rejected
        # candidates, both by descending dominance
        ladder = viable[config.max_candidates :] + sorted(
            itertools.filterfalse(passes, records), key=order_key
        )
        for cand in ladder:
            if covered.mean() >= config.min_coverage:
                break
            rows = fired[cand.ant][0]
            if covered[rows].all():
                continue
            chosen.append(cand)
            covered[rows] = True

    def fit_rule(cand: _Candidate, design: np.ndarray) -> HybridRule:
        var_names = tuple(feats[j] for j, _ in cand.ant)
        rows, firing = fired[cand.ant]
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
            firing=firing,
            weighted=config.weighted_fit,
            clamp_bounds=bounds,
            design=D,
        )
        # a degraded fit may be a constant over none of the variables
        raw = poly.evaluate(X_sub[:, [var_names.index(v) for v in poly.variables]])
        return HybridRule(
            antecedent=tuple(
                (feats[j], fparts[j].sets[s].name) for j, s in cand.ant
            ),
            consequent_set=tpart.sets[cand.cons].name,
            consequent_fn=poly,
            clamp_bounds=bounds,
            fuzzy_dominance=cand.dominance,
            error_dominance=error_dominance(rmse(clamp(raw, bounds), y_sub)),
        )

    # fit one clause subset at a time, so that only one subset design is
    # alive at once; the rules keep their chosen order
    by_subset: dict[tuple[int, ...], list[int]] = {}
    for i, cand in enumerate(chosen):
        by_subset.setdefault(tuple(j for j, _ in cand.ant), []).append(i)
    fitted = [None] * len(chosen)
    for subset, members in by_subset.items():
        design = design_matrix(
            dataset.X[:, [col_of[j] for j in subset]], config.degree
        )
        for i in members:
            fitted[i] = fit_rule(chosen[i], design)
        del design

    return RuleUniverse(
        rules=tuple(fitted),
        feature_partitions=tuple(fparts),
        target_partition=tpart,
        config=config,
        dataset_fingerprint=dataset_fingerprint(dataset),
        coverage=float(covered.mean()),
    )
