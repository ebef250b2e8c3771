"""Hybrid rules: fuzzy antecedent, fuzzy consequent label, bounded polynomial.

A rule reads ``IF x1 is A1 AND ... THEN y is G`` and additionally carries
a polynomial y(x) over (a subset of) its antecedent variables.  The
polynomial supplies the crisp output; the consequent set G supplies the
interval the output is clamped to, so no rule can ever answer outside
the linguistic region it claims.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MAX_DEGREE = 3
# `evaluate_terms` evaluates a block of at most TABLE_CELLS cells of a
# group of at least TABLE_MIN_TERMS terms as one term table, and any
# other block term by term.  On a 2-core x86-64 host the table was faster
# for 10- and 20-term groups at 1-64 cells (at 8 cells 20-24 us against
# 32-36, and 31-33 against 55-66) and even with the loop by about 128 and
# 192 cells; it was no faster for 4-term groups at any size (14-19 us
# against 13-15 at 8 cells; 12-29 us against 7-15 at 4-64 cells for arity
# 3 at degree 1), and 1.5-4x slower at 3000 cells, where its accumulate
# alone took 7x as long as adding the rows one by one
TABLE_CELLS = 64
TABLE_MIN_TERMS = 5


class RuleUnfittableError(ValueError):
    """Raised when a rule fires on no rows, so no consequent can be
    estimated, or when its output is NaN on a row where it fires."""


@functools.lru_cache(maxsize=None)
def monomial_exponents(
    num_variables: int, degree: int
) -> tuple[tuple[int, ...], ...]:
    """Dense exponent tuples up to ``degree``, graded-lexicographic.

    For 2 variables and degree 2 this yields the exponents of
    1, x1, x2, x1^2, x1*x2, x2^2 in that order; the count is always
    C(num_variables + degree, degree).  Graded order makes the first
    C(num_variables + k, k) terms the basis of degree k.
    """
    if num_variables < 0:
        raise ValueError("num_variables must be nonnegative")
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}")
    exps: list[tuple[int, ...]] = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(
            range(num_variables), total
        ):
            e = [0] * num_variables
            for i in combo:
                e[i] += 1
            exps.append(tuple(e))
    return tuple(exps)


def design_matrix(X: np.ndarray, degree: int) -> np.ndarray:
    """Monomial column matrix (n, C(v+degree, degree)) for rows ``X``.

    Every column is an elementwise product, so the design of a subset
    of rows is bit for bit the same rows of the design of all of them.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-d (rows, variables)")
    n, v = X.shape
    exps = monomial_exponents(v, degree)
    powers = [None] + [[X[:, j] ** k for j in range(v)] for k in range(1, degree + 1)]
    cols = np.empty((n, len(exps)))
    for c, term in enumerate(_terms(exps, itertools.repeat(1.0), powers)):
        cols[:, c] = term
    return cols


def _terms(exponents: Iterable, starts: Iterable, powers: Sequence) -> Iterable:
    """Each term ``((start * p1) * p2)``, its powers in variable order,
    where ``powers[k][j]`` is variable j to the power k."""
    for e, term in zip(exponents, starts):
        for j, k in enumerate(e):
            if k:
                term = term * powers[k][j]
        yield term


@functools.lru_cache(maxsize=128)
def _exponent_table(exponents: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """``exponents`` as a read-only (terms, variables) integer array,
    built once for every caller."""
    table = np.array(exponents, dtype=np.intp)
    table.flags.writeable = False
    return table


def evaluate_terms(
    degree: int,
    exponents: tuple[tuple[int, ...], ...],
    coefficients: np.ndarray,
    cols: np.ndarray,
    rule: np.ndarray | None = None,
) -> np.ndarray:
    """Polynomials that share one exponent table, on a block of cells.

    ``cols`` is (variables, cells).  ``coefficients`` is (terms,), shared
    by every cell, or (terms, rules), cell c reading column ``rule[c]``.
    Each term is ``((coef * p1) * p2)``, its powers in variable order,
    added in term order into a zero-started sum, so a cell's value does
    not depend on the block it is evaluated in, nor on which of two
    layouts evaluates it:

    - a block of at most TABLE_CELLS cells, of at least TABLE_MIN_TERMS
      terms, is one (1 + terms, cells) table, in a fixed number of numpy
      calls: row 0 is 0.0, the others the coefficients, multiplied once
      per variable by that variable's power of each term (its power 0 is
      1.0, and ``t * 1.0`` is ``t``), then summed down the rows in order
      by one sequential accumulate;
    - any other block adds one term at a time, gathering one term's
      coefficients at a time, so it never holds a whole table (gathering
      one for each 65536-cell block raised the peak memory of a
      50000-row serve batch by a third).
    """
    cells = cols.shape[1]
    if cells <= TABLE_CELLS and len(exponents) >= TABLE_MIN_TERMS:
        # powers[k, j] is cols[j] ** k, as the term loop computes it
        powers = np.empty((degree + 1, *cols.shape))
        powers[0] = 1.0
        powers[1] = cols
        for k in range(2, degree + 1):
            powers[k] = cols**k
        table = np.empty((1 + len(exponents), cells))
        table[0] = 0.0
        terms = table[1:]
        terms[...] = coefficients[:, None] if rule is None else coefficients[:, rule]
        for j, e in enumerate(_exponent_table(exponents).T):
            terms *= powers[e, j]
        # not np.add.reduce, which sums a single column pairwise
        return np.add.accumulate(table, axis=0)[-1]
    # powers[k][j] is cols[j] ** k: one array per power, not per term
    powers = [None, cols] + [cols**k for k in range(2, degree + 1)]
    starts = coefficients if rule is None else (c[rule] for c in coefficients)
    out = np.zeros(cells)
    for term in _terms(exponents, starts, powers):
        out += term
    return out


@functools.lru_cache(maxsize=256)
def _check_exponents(
    exponents: tuple[tuple[int, ...], ...], arity: int, degree: int
) -> None:
    """Raise unless every term of ``exponents`` has ``arity`` nonnegative
    powers summing to at most ``degree`` and no term repeats.  Cached: a
    model holds a few distinct tables; a table that raises is not cached,
    so it raises again."""
    for e in exponents:
        if len(e) != arity:
            raise ValueError("exponent arity does not match variables")
        if min(e, default=0) < 0:
            raise ValueError("negative exponent")
        if sum(e) > degree:
            raise ValueError("term degree exceeds declared degree")
    if len(set(exponents)) != len(exponents):
        raise ValueError("duplicate monomials")


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial in named variables, coefficients in raw units."""

    degree: int
    variables: tuple[str, ...]
    exponents: tuple[tuple[int, ...], ...]
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.exponents) != len(self.coefficients):
            raise ValueError("exponents/coefficients length mismatch")
        if not self.coefficients:
            raise ValueError("polynomial needs at least one term")
        _check_exponents(self.exponents, len(self.variables), self.degree)
        if not all(map(math.isfinite, self.coefficients)):
            raise ValueError("coefficients must be finite")

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """Evaluate on rows aligned with ``self.variables`` (n, v), as one
        block of `evaluate_terms`, the kernel inference runs per group.

        A constant polynomial (no variables) takes an (n, 0) input.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != len(self.variables):
            raise ValueError("column count does not match polynomial arity")
        coefficients = np.array(self.coefficients)
        return evaluate_terms(self.degree, self.exponents, coefficients, X.T)

    def render(self) -> str:
        parts = []
        for e, w in zip(self.exponents, self.coefficients):
            names = [
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.variables, e)
                if k
            ]
            mono = "*".join(names)
            coef = f"{w:.6g}"
            parts.append(coef if not mono else f"{coef}*{mono}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def clamp(value: float | np.ndarray, bounds: tuple[float, float]):
    """Clip ``value`` into the closed interval ``bounds`` (idempotent)."""
    lo, hi = bounds
    if lo > hi:
        raise ValueError("clamp bounds inverted")
    return np.clip(value, lo, hi)


def rmse(values: np.ndarray, targets: np.ndarray) -> float:
    """Root mean squared error of predictions against targets."""
    return float(np.sqrt(np.mean((values - targets) ** 2)))


@dataclass(frozen=True)
class HybridRule:
    """One rule of the base.

    ``antecedent`` pairs (variable name, set name); the set objects live
    in the model's partitions.  ``clamp_bounds`` is the support of the
    consequent set's upper membership function.  ``fuzzy_dominance`` is
    the support x confidence interval, which prunes and orders candidates
    during generation; ``error_dominance`` is 1 / (1 + fit RMSE), which
    alone weighs the rule in inference and in the ant-colony heuristic.
    """

    antecedent: tuple[tuple[str, str], ...]
    consequent_set: str
    consequent_fn: Polynomial
    clamp_bounds: tuple[float, float]
    fuzzy_dominance: tuple[float, float] = (0.0, 0.0)
    error_dominance: float = 1.0

    def __post_init__(self) -> None:
        if not self.antecedent:
            raise ValueError("rule antecedent must not be empty")
        ant_vars = [v for v, _ in self.antecedent]
        if len(set(ant_vars)) != len(ant_vars):
            raise ValueError("antecedent repeats a variable")
        missing = set(self.consequent_fn.variables) - set(ant_vars)
        if missing:
            raise ValueError(
                f"polynomial uses variables outside the antecedent: {missing}"
            )
        if self.clamp_bounds[0] > self.clamp_bounds[1]:
            raise ValueError("clamp bounds inverted")
        lo, hi = self.fuzzy_dominance
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError("fuzzy dominance must be an interval inside [0, 1]")
        if not 0.0 < self.error_dominance <= 1.0:
            raise ValueError("error dominance must be in (0, 1]")

    def antecedent_text(self) -> str:
        """The IF part, ``x1 is A1 AND x2 is A2``."""
        return " AND ".join(f"{v} is {s}" for v, s in self.antecedent)

    def describe(self, target_variable: str) -> str:
        """Human-readable IF/THEN text with the bounded polynomial."""
        poly = self.consequent_fn.render()
        lo, hi = self.clamp_bounds
        return (
            f"IF {self.antecedent_text()} THEN {target_variable} is "
            f"{self.consequent_set} with {target_variable} = {poly}"
            f" clamped to [{lo:.6g}, {hi:.6g}]"
        )


def _column_moments(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's mean and standard deviation: the operations of
    ``M.mean(axis=0)`` and ``M.std(axis=0)``, bit for bit, except that the
    mean is summed once, not once for each."""
    n = M.shape[0]
    mu = np.add.reduce(M, axis=0) / n
    x = M - mu
    x *= x
    return mu, np.sqrt(np.add.reduce(x, axis=0) / n)


def _solve_least_squares(
    M: np.ndarray,
    y: np.ndarray,
    ridge: float,
    sample_weight: np.ndarray | None,
) -> np.ndarray:
    """Ridge LS on standardized monomial columns, coefficients in raw units.

    Columns of ``M`` (no constant column) are z-scored before solving so
    the penalty is scale-free; the intercept is unpenalized.  The
    returned vector is (intercept, raw-unit coefficients) with exact
    back-transform, zero-variance columns pinned to coefficient 0.  A
    non-finite monomial (not an overflowing sd) makes every coefficient NaN.
    """
    n, m = M.shape
    mu, sd = _column_moments(M)
    if not np.isfinite(sd).all() and not np.isfinite(M).all():
        return np.full(m + 1, np.nan)
    keep = sd > 0
    Z = (M[:, keep] - mu[keep]) / sd[keep]
    A = np.hstack([np.ones((n, 1)), Z])
    t = y.astype(float)
    if sample_weight is not None:
        sw = np.sqrt(sample_weight)
        A = A * sw[:, None]
        t = t * sw
    if ridge > 0.0:
        G = A.T @ A
        G[1:, 1:] += ridge * np.eye(keep.sum())
        try:
            beta = np.linalg.solve(G, A.T @ t)
        except np.linalg.LinAlgError:
            beta, *_ = np.linalg.lstsq(A, t, rcond=None)
    else:
        beta, *_ = np.linalg.lstsq(A, t, rcond=None)
    coeffs = np.zeros(m + 1)
    scaled = beta[1:]
    coeffs_kept = scaled / sd[keep]
    coeffs[1:][keep] = coeffs_kept
    coeffs[0] = beta[0] - float(coeffs_kept @ mu[keep])
    return coeffs


def fit_consequent(
    X: np.ndarray,
    y: np.ndarray,
    variables: Sequence[str],
    degree: int,
    ridge: float = 1e-6,
    firing: np.ndarray | None = None,
    weighted: bool = False,
    clamp_bounds: tuple[float, float] | None = None,
    *,
    design: np.ndarray | None = None,
) -> Polynomial:
    """Estimate a rule's polynomial from the rows it fires on.

    Parameters
    ----------
    X, y:
        Rows restricted to the rule's antecedent variables (columns
        aligned with ``variables``) and to positive-firing instances.
    degree:
        Requested polynomial degree (1..3).  With fewer rows than its
        monomials the fit drops to degree 1, or to a constant if there
        are at most ``v + 1`` rows; so does a constant ``y`` or ``v == 0``.
    ridge:
        L2 penalty on the standardized non-constant coefficients;
        0 gives plain least squares.
    firing:
        Per-row firing strengths (midpoints).  When they sum above 0,
        they weigh the constant fallback's mean, and the least squares
        when ``weighted``.
    clamp_bounds:
        When given, the constant fallback is clamped into it.
    design:
        ``design_matrix(X, degree)`` when the caller already holds it
        (for instance as rows of a design over more rows); a degraded
        fit reads its degree-1 columns.

    Raises
    ------
    RuleUnfittableError
        If no rows are available at all.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise ValueError("X must be 2-d")
    if X.shape[0] != y.size:
        raise ValueError("X and y row counts differ")
    if X.shape[1] != len(variables):
        raise ValueError("X columns must match variables")
    if ridge < 0.0:
        raise ValueError("ridge must be nonnegative")
    n, v = X.shape
    if n == 0:
        raise RuleUnfittableError("rule fires on no rows")
    if design is not None and design.shape != (n, math.comb(v + degree, degree)):
        raise ValueError("design must be design_matrix(X, degree)")

    fw = None  # firing weights, when any row fires with positive strength
    if firing is not None and np.sum(firing) > 0:
        fw = np.asarray(firing, dtype=float)

    def constant_poly() -> Polynomial:
        c = float(np.average(y, weights=fw))
        if clamp_bounds is not None:
            c = float(clamp(c, clamp_bounds))
        return Polynomial(
            degree=1, variables=(), exponents=((),), coefficients=(c,)
        )

    # one degradation rule: too few rows for every monomial of ``degree``
    # drop to degree 1, or to the constant with no residual freedom left
    full = n >= math.comb(v + degree, degree)
    if np.ptp(y) == 0.0 or v == 0 or (not full and n <= v + 1):
        return constant_poly()
    use_degree = degree if full else 1
    if design is None:
        design = design_matrix(X, use_degree)
    M = design[:, 1 : math.comb(v + use_degree, use_degree)]
    coeffs = _solve_least_squares(M, y, ridge, fw if weighted else None)
    if not np.all(np.isfinite(coeffs)):
        return constant_poly()
    exps = monomial_exponents(v, use_degree)
    return Polynomial(
        degree=use_degree,
        variables=tuple(variables),
        exponents=exps,
        coefficients=tuple(float(c) for c in coeffs),
    )
