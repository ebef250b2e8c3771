"""Rule quality weights.

Two gradings per rule, both in [0, 1]: a fuzzy one (how much data
supports the rule and how reliably the antecedent implies the consequent
label) and a crisp one from the rule's own fit error.  They do different
jobs.  Fuzzy dominance only prunes and orders candidates during
generation (the `dominance_threshold` filter, the `max_candidates` cap
and the coverage rescue).  Error dominance alone multiplies into the
inference weights and is the ant-colony heuristic.

The fuzzy grades sum over the rows a rule fires on, and only there, as
fixed-order numpy sums, not BLAS dots, so a grade's bits do not depend
on rows where the rule does not fire, on memory layout or on the BLAS
build.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import Dataset
from .it2 import Partition, fire


class ZeroSupportError(ValueError):
    """Raised when a rule fires on no row of the dataset at all."""


@dataclass(frozen=True)
class FuzzyDominance:
    """Support, confidence and their product, all as intervals."""

    support: tuple[float, float]
    confidence: tuple[float, float]
    dominance: tuple[float, float]

    def __post_init__(self) -> None:
        for lo, hi in (self.support, self.confidence, self.dominance):
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"interval [{lo}, {hi}] invalid")


def support_interval(
    firing_lo: np.ndarray,
    firing_hi: np.ndarray,
    target_lo: np.ndarray,
    target_hi: np.ndarray,
    n: int | None = None,
) -> tuple[float, float]:
    """Mean over ``n`` rows (by default, those given) of firing x
    consequent-membership, per bound; rows not given add nothing."""
    n = firing_lo.size if n is None else n
    if n == 0:
        raise ValueError("empty dataset")
    lo = float((firing_lo * target_lo).sum() / n)
    hi = float((firing_hi * target_hi).sum() / n)
    return (lo, hi)


def confidence_interval(
    firing_lo: np.ndarray,
    firing_hi: np.ndarray,
    target_lo: np.ndarray,
    target_hi: np.ndarray,
) -> tuple[float, float]:
    """Supported mass over fired mass, per bound.

    The two raw ratios are not guaranteed ordered (the denominators
    differ), so the endpoints are sorted before returning.
    """
    den_lo = float(firing_lo.sum())
    den_hi = float(firing_hi.sum())
    if den_hi <= 0.0:
        raise ZeroSupportError("rule fires nowhere on this dataset")
    lo = float((firing_lo * target_lo).sum() / den_lo) if den_lo > 0.0 else 0.0
    hi = float((firing_hi * target_hi).sum() / den_hi)
    return tuple(sorted(min(max(v, 0.0), 1.0) for v in (lo, hi)))


def combine_dominance(
    support: tuple[float, float], confidence: tuple[float, float]
) -> FuzzyDominance:
    lo, hi = sorted((support[0] * confidence[0], support[1] * confidence[1]))
    return FuzzyDominance(support=support, confidence=confidence, dominance=(lo, hi))


def fuzzy_dominance(
    rule, dataset: Dataset, partitions: Mapping[str, Partition], tnorm: str = "minimum"
) -> FuzzyDominance:
    """Support x confidence grading of one rule on a dataset.

    ``partitions`` maps variable names (features and target) to their
    partitions; the rule references sets by name within them.  Raises
    `ZeroSupportError` when the rule fires on no row.
    """
    # one table row per clause, the consequent's last; graded on the
    # fired rows alone, as `generate_candidates` grades
    clauses = (*rule.antecedent, (dataset.target_name, rule.consequent_set))
    mems = [partitions[v].membership_matrix(dataset.column(v)) for v, _ in clauses]
    at = [partitions[v].index_of(s) for v, s in clauses]
    lower, upper = (np.array([m[b][k] for m, k in zip(mems, at)]) for b in (0, 1))
    f_lo, f_hi = fire(lower, upper, range(len(clauses) - 1), tnorm)
    rows = np.flatnonzero(f_hi > 0.0)
    args = (f_lo[rows], f_hi[rows], lower[-1, rows], upper[-1, rows])
    return combine_dominance(
        support_interval(*args, dataset.n_rows), confidence_interval(*args)
    )


def error_dominance(rmse: float) -> float:
    """Map a fit error to (0, 1]: 1 / (1 + rmse)."""
    if not np.isfinite(rmse) or rmse < 0.0:
        raise ValueError("rmse must be finite and nonnegative")
    return 1.0 / (1.0 + float(rmse))
