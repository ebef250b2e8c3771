"""Reference implementations that tests compare the library against.

Most are explicit loops over single values and share no code path with
the vectorized kernels they check.  `rule_matrices` is the per-rule loop
of dense (rules x rows) matrices that the stacked, fired-cells kernel
replaced; it is built from the library's per-partition membership
matrices and per-rule `fire`, which the scalar oracles here check in
turn, and from `polynomial_values`, the per-rule, per-term loop that the
grouped term-major kernel replaced.  `candidate_keys` is the tuple-at-a-time clause deletion that
integer-coded enumeration replaced.  `subset_prediction` is the
concatenate-and-`bincount` ACO scorer that per-rule accumulation into
one complex row buffer replaced.  `partition` is the per-shape,
three-branch set construction that one breakpoint table replaced.
"""
import itertools
from typing import Iterable, Mapping, Sequence

import numpy as np

from hit2mtsk.it2 import IT2Set, Partition, fire
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


def partition(
    values, num_sets: int, fou_width: float, fou_scale: float, variable: str = "x"
) -> Partition:
    """`build_partition` set by set, one branch per shape: a left
    shoulder, trapezoids, a right shoulder on quantile centers (an even
    grid when ties collapse them), each shoulder's sentinels a tenth of
    the width past the data edge.  Midpoints are halved after the sum,
    as they were before the breakpoint table: so this overflows where a
    sum of two centers passes the largest float."""
    x = np.asarray(values, dtype=float).ravel()
    lo, hi = float(x.min()), float(x.max())
    width = hi - lo
    centers = np.quantile(x, np.linspace(0.0, 1.0, num_sets))
    if np.any(np.diff(centers) <= 1e-9 * width):
        centers = np.linspace(lo, hi, num_sets)
    mids = 0.5 * (centers[:-1] + centers[1:])
    eps = fou_width * np.diff(centers)
    sent_lo = lo - 0.10 * width
    sent_hi = hi + 0.10 * width
    names = {
        2: ("Low", "High"),
        3: ("Low", "Medium", "High"),
        5: ("VeryLow", "Low", "Medium", "High", "VeryHigh"),
    }.get(num_sets, tuple(f"Set{i + 1}" for i in range(num_sets)))
    sets = []
    for i in range(num_sets):
        if i == 0:
            shape = "left_shoulder"
            upper = (sent_lo, sent_lo, mids[0] - eps[0], mids[0] + eps[0])
            support = (lo, upper[3])
        elif i == num_sets - 1:
            shape = "right_shoulder"
            upper = (mids[-1] - eps[-1], mids[-1] + eps[-1], sent_hi, sent_hi)
            support = (upper[0], hi)
        else:
            shape = "trapezoid"
            upper = (
                mids[i - 1] - eps[i - 1],
                mids[i - 1] + eps[i - 1],
                mids[i] - eps[i],
                mids[i] + eps[i],
            )
            support = (upper[0], upper[3])
        a, b, c, d = upper
        lower = (a + fou_width * (b - a), b, c, d - fou_width * (d - c))
        sets.append(
            IT2Set(
                name=names[i],
                shape=shape,
                upper_params=tuple(float(v) for v in upper),
                lower_params=tuple(float(v) for v in lower),
                fou_scale=float(fou_scale),
                support=(float(support[0]), float(support[1])),
            )
        )
    return Partition(variable=variable, sets=tuple(sets), domain=(lo, hi))


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
        # one table row per clause: the row of its set in its partition's table
        table = [
            tuple(m[parts[var].index_of(name)] for m in mems[var])
            for var, name in rule.antecedent
        ]
        lower, upper = (np.array(bound) for bound in zip(*table))
        F_lo[i], F_hi[i] = fire(lower, upper, range(len(table)), tnorm)
        fn = rule.consequent_fn
        cols = np.array([columns[v] for v in fn.variables])
        raw = polynomial_values(fn, cols.reshape(len(fn.variables), n).T)
        Y[i] = clamp(raw, rule.clamp_bounds)
    return F_lo, F_hi, Y


def polynomial_values(poly: Polynomial, X: np.ndarray) -> np.ndarray:
    """``poly`` on the rows of ``X`` (n, v), one rule and one term at a
    time: each term ``((coef * p1) * p2)`` over every row, added in term
    order into a zero-started sum."""
    powers = np.empty((poly.degree,) + X.T.shape)
    powers[0] = X.T
    for k in range(2, poly.degree + 1):
        powers[k - 1] = X.T**k
    out = np.zeros(X.shape[0])
    for e, w in zip(poly.exponents, poly.coefficients):
        term = w
        for j, k in enumerate(e):
            if k:
                term = term * powers[k - 1, j]
        out += term
    return out


def firing_strength(
    antecedent: Iterable[tuple[str, IT2Set]],
    x: Mapping[str, float],
    tnorm: str = "minimum",
) -> tuple[float, float]:
    """Firing interval ``(lower, upper)`` of one rule at one crisp input,
    clause by clause through `trapezoid_membership`.

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
        m_lo, m_hi = trapezoid_membership(fuzzy_set, float(x[var]))
        if tnorm == "minimum":
            lo = min(lo, m_lo)
            hi = min(hi, m_hi)
        else:
            lo *= m_lo
            hi *= m_hi
    return lo, hi


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


def subset_prediction(
    rows_of: Sequence[np.ndarray],
    w_of: Sequence[np.ndarray],
    wy_of: Sequence[np.ndarray],
    sel: Sequence[int],
    n: int,
    fallback: float,
) -> np.ndarray:
    """The prediction of the rule subset ``sel`` on ``n`` rows, from each
    rule's fired rows, weights and weighted outputs: the subset's cells
    concatenated in ``sel`` order, one `np.bincount` of the weights and
    one of the weighted outputs, then sum(wy) / sum(w) per row, or
    ``fallback`` where the weights do not sum above zero."""
    parts = (rows_of, w_of, wy_of)
    rows, w, wy = (np.concatenate([of[r] for r in sel]) for of in parts)
    wsum = np.bincount(rows, w, n)
    psum = np.bincount(rows, wy, n)
    fell = wsum <= 0.0
    return np.where(fell, fallback, psum / np.where(fell, 1.0, wsum))
