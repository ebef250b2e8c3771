"""Reference implementations that tests compare the library against.

Most are explicit loops over single values and share no code path with
the vectorized kernels they check.  `rule_matrices` is the per-rule loop
of dense (rules x rows) matrices that the stacked, fired-cells kernel
replaced; it is built from the library's per-partition membership
matrices and per-rule `fire`, which the scalar oracles here check in
turn.  `candidate_keys` is the tuple-at-a-time clause deletion that
integer-coded enumeration replaced.
"""
import itertools
from typing import Iterable, Mapping, Sequence

import numpy as np

from hit2mtsk.it2 import IT2Set, MembershipInterval, Partition, fire, membership
from hit2mtsk.rules import HybridRule, Polynomial, clamp


def trapezoid_membership(fuzzy_set: IT2Set, x: float) -> tuple[float, float]:
    """``(lower, upper)`` membership of one value, one trapezoid at a time.

    A shoulder's plateau runs past its open-side breakpoints; the lower
    trapezoid is scaled by ``fou_scale``; both are clipped into [0, 1].
    """

    def curve(params: tuple[float, float, float, float]) -> float:
        a, b, c, d = params
        if fuzzy_set.shape != "left_shoulder" and a < x < b:
            return (x - a) / (b - a)
        if fuzzy_set.shape != "right_shoulder" and c < x < d:
            return (d - x) / (d - c)
        if fuzzy_set.shape == "left_shoulder":
            return 1.0 if x <= c else 0.0
        if fuzzy_set.shape == "right_shoulder":
            return 1.0 if x >= b else 0.0
        return 1.0 if b <= x <= c else 0.0

    lower = fuzzy_set.fou_scale * curve(fuzzy_set.lower_params)
    upper = curve(fuzzy_set.upper_params)
    return min(max(lower, 0.0), 1.0), min(max(upper, 0.0), 1.0)


def rule_matrices(
    rules: Sequence[HybridRule],
    feature_partitions: Sequence[Partition],
    columns: Mapping[str, np.ndarray],
    tnorm: str = "minimum",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F_lo, F_hi, Y) rule by rule: every partition's membership matrix,
    `fire` per rule, and every polynomial on every row, then clamped."""
    parts = {p.variable: p for p in feature_partitions}
    mems = {
        name: parts[name].membership_matrix(col) for name, col in columns.items()
    }
    m, n = len(rules), next(iter(columns.values())).size
    F_lo = np.empty((m, n))
    F_hi = np.empty((m, n))
    Y = np.empty((m, n))
    for i, rule in enumerate(rules):
        F_lo[i], F_hi[i] = fire(
            mems,
            [(var, parts[var].index_of(name)) for var, name in rule.antecedent],
            tnorm,
        )
        fn = rule.consequent_fn
        cols = np.array([columns[v] for v in fn.variables])
        raw = fn.evaluate(cols.reshape(len(fn.variables), n).T)
        Y[i] = clamp(raw, rule.clamp_bounds)
    return F_lo, F_hi, Y


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


def subset_law(weights, size: int) -> dict[tuple[int, ...], float]:
    """Exact probability of each sorted subset `sample_subset` returns:
    the product of its step probabilities, summed over every pick order
    that yields the subset."""
    total = len(weights)
    law: dict[tuple[int, ...], float] = {}
    for order in itertools.permutations(range(total), size):
        prob = 1.0
        left = set(range(total))
        for i in order:
            s = sum(weights[j] for j in left)
            prob *= weights[i] / s if s > 0.0 else 1.0 / len(left)
            left.remove(i)
        subset = tuple(sorted(order))
        law[subset] = law.get(subset, 0.0) + prob
    return law


def candidate_keys(
    feat_arg: np.ndarray, cons_arg: np.ndarray, max_antecedent: int
) -> set[tuple[tuple[tuple[int, int], ...], int]]:
    """Every ``(antecedent, consequent)`` key that clause deletion
    derives from the seed rows, one tuple at a time.

    Row r seeds antecedent ``((j, feat_arg[r, j]), ...)`` over all
    features with consequent ``cons_arg[r]``; each distinct seed yields
    its clauses on every feature subset of at most ``max_antecedent``.
    """
    seeds: dict[tuple, None] = {}
    for r in range(len(cons_arg)):
        seeds[(tuple(int(v) for v in feat_arg[r]), int(cons_arg[r]))] = None
    num_features = feat_arg.shape[1]
    keys = set()
    for combo, cons in seeds:
        for size in range(1, min(max_antecedent, num_features) + 1):
            for subset in itertools.combinations(range(num_features), size):
                keys.add((tuple((j, combo[j]) for j in subset), cons))
    return keys
