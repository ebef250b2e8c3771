"""Candidate rule generation.

Every training instance seeds one maximal rule (per feature, the set
with greatest upper membership; consequent likewise from the target).
Seeds are then generalized by clause deletion into all shorter
antecedents up to a configured length, deduplicated, graded by fuzzy
dominance, capped, fitted, and graded again by fit error.  The result
is the rule universe the subset selector searches over.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import Dataset, dataset_fingerprint
from .dominance import (
    combine_dominance,
    confidence_interval,
    error_dominance,
    support_interval,
)
from .it2 import TNORMS, Partition, fire
from .rules import HybridRule, clamp, fit_consequent


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
    EmptyUniverseError
        If no candidate survives viability filtering.
    """
    if dataset.target_name not in partitions:
        raise ValueError("partitions must include the target variable")
    feats = [f for f in dataset.feature_names if f in partitions]
    if not feats:
        raise ValueError("no partitioned feature available for antecedents")
    fparts = [partitions[f] for f in feats]
    tpart = partitions[dataset.target_name]
    col_of = [dataset.feature_names.index(f) for f in feats]
    n = dataset.n_rows

    mem = [p.membership_matrix(dataset.X[:, c]) for p, c in zip(fparts, col_of)]
    t_low, t_upp = tpart.membership_matrix(dataset.y)

    # instance seeding: strongest set per feature and for the target
    feat_arg = np.stack([u.argmax(axis=1) for _, u in mem], axis=1)
    cons_arg = t_upp.argmax(axis=1)
    seeds: dict[tuple, None] = {}
    for r in range(n):
        seeds[(tuple(int(v) for v in feat_arg[r]), int(cons_arg[r]))] = None

    # clause-deletion generalization, deduplicated
    max_len = min(config.max_antecedent, len(feats))
    cand_keys: dict[tuple, None] = {}
    for combo, cons in seeds:
        for size in range(1, max_len + 1):
            for subset in itertools.combinations(range(len(feats)), size):
                ant = tuple((j, combo[j]) for j in subset)
                cand_keys[(ant, cons)] = None

    by_ant: dict[tuple, list[int]] = {}
    for ant, cons in cand_keys:
        by_ant.setdefault(ant, []).append(cons)

    records: list[_Candidate] = []
    for ant, cons_list in by_ant.items():
        f_lo, f_hi = fire(mem, ant, config.tnorm)
        rows = int(np.count_nonzero(f_hi > 0.0))
        if rows == 0:
            continue
        for cons in cons_list:
            args = (f_lo, f_hi, t_low[:, cons], t_upp[:, cons])
            d = combine_dominance(
                support_interval(*args), confidence_interval(*args)
            )
            records.append(_Candidate(ant, cons, d.dominance, rows))

    def required_rows(cand: _Candidate) -> int:
        if config.min_rows is not None:
            return config.min_rows
        return math.comb(len(cand.ant) + config.degree, config.degree)

    def order_key(cand: _Candidate):
        return (-cand.dominance[1], len(cand.ant), cand.ant, cand.cons)

    viable = sorted(
        (
            c
            for c in records
            if c.rows >= required_rows(c)
            and c.dominance[1] >= config.dominance_threshold
        ),
        key=order_key,
    )
    selected = viable[: config.max_candidates]
    spare = viable[config.max_candidates :]

    def fit_rule(cand: _Candidate, f_lo, f_hi, pos) -> HybridRule:
        var_names = tuple(feats[j] for j, _ in cand.ant)
        X_sub = dataset.X[np.ix_(pos, [col_of[j] for j, _ in cand.ant])]
        y_sub = dataset.y[pos]
        bounds = tpart.sets[cand.cons].support
        poly = fit_consequent(
            X_sub,
            y_sub,
            variables=var_names,
            degree=config.degree,
            ridge=config.ridge,
            firing=0.5 * (f_lo[pos] + f_hi[pos]),
            weighted=config.weighted_fit,
            clamp_bounds=bounds,
        )
        # a degraded fit may be a constant over none of the variables
        raw = poly.evaluate(X_sub[:, [var_names.index(v) for v in poly.variables]])
        rmse = float(np.sqrt(np.mean((np.asarray(clamp(raw, bounds)) - y_sub) ** 2)))
        return HybridRule(
            antecedent=tuple(
                (feats[j], fparts[j].sets[s].name) for j, s in cand.ant
            ),
            consequent_set=tpart.sets[cand.cons].name,
            consequent_fn=poly,
            clamp_bounds=bounds,
            fuzzy_dominance=cand.dominance,
            error_dominance=error_dominance(rmse),
        )

    fitted: list[HybridRule] = []
    covered = np.zeros(n, dtype=bool)
    for cand in selected:
        f_lo, f_hi = fire(mem, cand.ant, config.tnorm)
        pos = f_hi > 0.0
        fitted.append(fit_rule(cand, f_lo, f_hi, pos))
        covered |= pos

    if fitted and covered.mean() < config.min_coverage:
        # rescue order: viable-but-capped first, then filter-rejected
        # candidates, both by descending dominance
        used = {(c.ant, c.cons) for c in selected} | {
            (c.ant, c.cons) for c in spare
        }
        ladder = spare + sorted(
            (c for c in records if (c.ant, c.cons) not in used),
            key=order_key,
        )
        for cand in ladder:
            if covered.mean() >= config.min_coverage:
                break
            f_lo, f_hi = fire(mem, cand.ant, config.tnorm)
            pos = f_hi > 0.0
            if not np.any(pos & ~covered):
                continue
            fitted.append(fit_rule(cand, f_lo, f_hi, pos))
            covered |= pos

    if not fitted:
        raise EmptyUniverseError(
            "no rule survived dominance and row-count filtering"
        )
    return RuleUniverse(
        rules=tuple(fitted),
        feature_partitions=tuple(fparts),
        target_partition=tpart,
        config=config,
        dataset_fingerprint=dataset_fingerprint(dataset),
        coverage=float(covered.mean()),
    )
