"""Scalar reference implementations that tests compare the library against.

They are written as explicit loops over single values and share no code
path with the vectorized kernels they check.
"""
from typing import Iterable, Mapping

import numpy as np

from hit2mtsk.it2 import IT2Set, MembershipInterval, membership
from hit2mtsk.rules import Polynomial


def firing_strength(
    antecedent: Iterable[tuple[str, IT2Set]],
    x: Mapping[str, float],
    tnorm: str = "minimum",
) -> MembershipInterval:
    """Firing interval of one rule at one crisp input, clause by clause.

    ``antecedent`` pairs each variable name with the set it must match;
    the t-norm folds the lower and the upper bounds separately.
    """
    if tnorm not in ("minimum", "product"):
        raise ValueError(f"unknown t-norm {tnorm!r}")
    clauses = list(antecedent)
    if not clauses:
        raise ValueError("rule antecedent must not be empty")
    lo = 1.0
    hi = 1.0
    for var, fuzzy_set in clauses:
        if var not in x:
            raise ValueError(f"input is missing variable {var!r}")
        m = membership(fuzzy_set, float(x[var]))
        if tnorm == "minimum":
            lo = min(lo, m.lower)
            hi = min(hi, m.upper)
        else:
            lo *= m.lower
            hi *= m.upper
    return MembershipInterval(lo, hi)


def polynomial_value(poly: Polynomial, x: Mapping[str, float]) -> float:
    """Sum of coefficient x product of powers, one term at a time."""
    total = 0.0
    for exps, coef in zip(poly.exponents, poly.coefficients):
        term = coef
        for var, k in zip(poly.variables, exps):
            term *= float(x[var]) ** k
        total += term
    return total


def sample_subset(rng, weights, size: int) -> np.ndarray:
    """Successive proportional draws without replacement, one
    ``rng.choice`` call per pick over the weights of the indices not yet
    picked (uniform over them when those weights are all zero)."""
    total = weights.size
    avail = np.ones(total, dtype=bool)
    chosen = np.empty(size, dtype=int)
    for t in range(size):
        w = np.where(avail, weights, 0.0)
        s = w.sum()
        p = w / s if s > 0.0 else avail / avail.sum()
        i = int(rng.choice(total, p=p))
        chosen[t] = i
        avail[i] = False
    return np.sort(chosen)
