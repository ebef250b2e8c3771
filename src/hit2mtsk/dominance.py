"""Rule quality weights.

Two gradings per rule, both in [0, 1]: a fuzzy one (how much data
supports the rule and how reliably the antecedent implies the consequent
label) and a crisp one from the rule's own fit error.  They do different
jobs.  Fuzzy dominance only prunes and orders candidates during
generation (the `dominance_threshold` filter, the `max_candidates` cap
and the coverage rescue).  Error dominance alone multiplies into the
inference weights and is the ant-colony heuristic.
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
) -> tuple[float, float]:
    """Mean over rows of firing x consequent-membership, per bound."""
    n = firing_lo.size
    if n == 0:
        raise ValueError("empty dataset")
    lo = float(np.dot(firing_lo, target_lo) / n)
    hi = float(np.dot(firing_hi, target_hi) / n)
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
    lo = float(np.dot(firing_lo, target_lo) / den_lo) if den_lo > 0.0 else 0.0
    hi = float(np.dot(firing_hi, target_hi) / den_hi)
    lo = min(max(lo, 0.0), 1.0)
    hi = min(max(hi, 0.0), 1.0)
    return (lo, hi) if lo <= hi else (hi, lo)


def combine_dominance(
    support: tuple[float, float], confidence: tuple[float, float]
) -> FuzzyDominance:
    lo = support[0] * confidence[0]
    hi = support[1] * confidence[1]
    if lo > hi:
        lo, hi = hi, lo
    return FuzzyDominance(support=support, confidence=confidence, dominance=(lo, hi))


def fuzzy_dominance(
    rule, dataset: Dataset, partitions: Mapping[str, Partition], tnorm: str = "minimum"
) -> FuzzyDominance:
    """Support x confidence grading of one rule on a dataset.

    ``partitions`` maps variable names (features and target) to their
    partitions; the rule references sets by name within them.  Raises
    `ZeroSupportError` when the rule fires on no row.
    """
    mems = {
        var: partitions[var].membership_matrix(dataset.column(var))
        for var, _ in rule.antecedent
    }
    f_lo, f_hi = fire(
        mems,
        [(var, partitions[var].index_of(name)) for var, name in rule.antecedent],
        tnorm,
    )
    # the strided column `generate_candidates` dots, so the grades keep its bits
    target = partitions[dataset.target_name]
    k = target.index_of(rule.consequent_set)
    t_lo, t_hi = (m[:, k] for m in target.membership_matrix(dataset.y))
    s = support_interval(f_lo, f_hi, t_lo, t_hi)
    c = confidence_interval(f_lo, f_hi, t_lo, t_hi)
    return combine_dominance(s, c)


def error_dominance(rmse: float) -> float:
    """Map a fit error to (0, 1]: 1 / (1 + rmse)."""
    if not np.isfinite(rmse) or rmse < 0.0:
        raise ValueError("rmse must be finite and nonnegative")
    return 1.0 / (1.0 + float(rmse))
