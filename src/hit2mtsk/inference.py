"""Crisp prediction from a selected rule base.

Each rule contributes its clamped polynomial output weighted by a
scalarized firing strength times its error dominance; the prediction is
the weighted mean.  Rows no rule fires on fall back to the training
target mean with an explicit flag, never silently.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .data import Dataset
from .it2 import TNORMS, Partition, fire, stacked_memberships
from .rules import HybridRule, clamp

FIRING_REDUCTIONS = ("midpoint", "lower", "upper")
# rule_matrices fires rules over chunks of at most this many (rules or
# sets) x rows cells, so that its temporaries stay small
BLOCK_CELLS = 1 << 16


class NotTrainedError(RuntimeError):
    """Prediction was requested from a model with no rules."""


@dataclass(frozen=True)
class FiredRule:
    """One rule's contribution to a prediction."""

    index: int
    firing: tuple[float, float]
    output: float
    weight: float


@dataclass(frozen=True)
class Prediction:
    value: float
    fired_rules: tuple[FiredRule, ...]
    fallback_used: bool


@dataclass(frozen=True)
class BatchResult:
    """Vectorized predictions over many rows."""

    values: np.ndarray
    fired_counts: np.ndarray
    fallback_rate: float
    rmse: float | None = None
    predictions: tuple[Prediction, ...] | None = None


@dataclass(frozen=True)
class Model:
    """Trained artifact: partitions + selected rules + inference settings."""

    feature_partitions: tuple[Partition, ...]
    target_partition: Partition
    rules: tuple[HybridRule, ...]
    tnorm: str = "minimum"
    firing_reduction: str = "midpoint"
    fallback_value: float = 0.0
    feature_stats: tuple[tuple[str, float, float], ...] = ()
    manifest: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tnorm not in TNORMS:
            raise ValueError(f"unknown t-norm {self.tnorm!r}")
        if self.firing_reduction not in FIRING_REDUCTIONS:
            raise ValueError(
                f"unknown firing reduction {self.firing_reduction!r}"
            )
        if not np.isfinite(self.fallback_value):
            raise ValueError("fallback_value must be finite")
        sets = {
            p.variable: {s.name for s in p.sets} for p in self.feature_partitions
        }
        named = sorted(name for name, _, _ in self.feature_stats)
        if named and named != sorted(sets):
            raise ValueError(
                "feature_stats must name each partitioned feature exactly once"
            )
        targets = {s.name for s in self.target_partition.sets}
        for i, rule in enumerate(self.rules):
            for var, name in rule.antecedent:
                if name not in sets.get(var, ()):
                    raise ValueError(
                        f"rule {i} clause {var} is {name} names no set of "
                        "the model's feature partitions"
                    )
            if rule.consequent_set not in targets:
                raise ValueError(
                    f"rule {i} consequent {rule.consequent_set} names no set "
                    "of the target partition"
                )

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(p.variable for p in self.feature_partitions)


def _column_table(
    feature_partitions: Sequence[Partition],
    data: Dataset | Mapping[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Named columns for every partitioned feature, validated and float."""
    cols: dict[str, np.ndarray] = {}
    length = None
    for p in feature_partitions:
        if isinstance(data, Dataset):
            try:
                col = data.column(p.variable)
            except KeyError:
                raise ValueError(
                    f"dataset lacks model feature {p.variable!r}"
                ) from None
        else:
            if p.variable not in data:
                raise ValueError(f"input lacks model feature {p.variable!r}")
            col = data[p.variable]
        col = np.atleast_1d(np.asarray(col, dtype=float))
        if not np.all(np.isfinite(col)):
            raise ValueError(f"input for {p.variable!r} is non-finite")
        if length is None:
            length = col.size
        elif col.size != length:
            raise ValueError("feature columns have inconsistent lengths")
        cols[p.variable] = col
    return cols


class FiredCells(NamedTuple):
    """The (rule, row) cells where rules fire, rule by rule, rows ascending,
    with their firing bounds and the rule's clamped output."""

    rule: np.ndarray
    row: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    y: np.ndarray


def rule_matrices(
    rules: Sequence[HybridRule],
    feature_partitions: Sequence[Partition],
    columns: Mapping[str, np.ndarray],
    tnorm: str = "minimum",
) -> FiredCells:
    """Every cell where a rule fires, with its firing bounds and output.

    A rule fires on a row where its upper firing bound is positive; only
    there can it weigh in a prediction, so only there is its polynomial
    evaluated, and no other cell is returned.

    The memberships of every set of every partition come from one
    stacked trapezoid pass, and one `fire` call folds every rule through
    per-clause indices into that table; both run over chunks of rows of
    at most BLOCK_CELLS cells.  ``rules`` must not be empty, and every
    rule must reference only variables and sets of ``feature_partitions``
    that have a column (`Model` and `select_rules` guarantee both).
    """
    parts = [p for p in feature_partitions if p.variable in columns]
    # the table's rows: every set of every partition, and each one's partition
    sets, feature, table_row = [], [], {}
    for j, p in enumerate(parts):
        for s in p.sets:
            table_row[(p.variable, s.name)] = len(sets)
            sets.append(s)
            feature.append(j)
    # short antecedents are padded with an all-ones row after the sets:
    # min(f, 1) and f * 1 are f, so the fold is each rule's own
    width = max(len(r.antecedent) for r in rules)
    clauses = np.array(
        [
            [table_row[c] for c in r.antecedent]
            + [len(sets)] * (width - len(r.antecedent))
            for r in rules
        ]
    ).T
    x = np.array([columns[p.variable] for p in parts], dtype=float)
    m, n = len(rules), x.shape[1]
    F_lo = np.empty((m, n))
    F_hi = np.empty((m, n))
    step = max(1, BLOCK_CELLS // max(m, len(sets)))
    for start in range(0, n, step):
        chunk = slice(start, start + step)
        lower, upper = stacked_memberships(sets, x[feature, chunk])
        ones = np.ones((1, lower.shape[1]))
        table = ((np.vstack([lower, ones]).T, np.vstack([upper, ones]).T),)
        lo, hi = fire(table, [(0, c) for c in clauses], tnorm)
        F_lo[:, chunk], F_hi[:, chunk] = lo.T, hi.T

    flat = np.flatnonzero(F_hi > 0.0)
    rule, row = np.divmod(flat, n)
    y = np.empty(flat.size)
    bounds = np.searchsorted(rule, np.arange(m + 1))
    for k in np.flatnonzero(np.diff(bounds)):
        cells = slice(bounds[k], bounds[k + 1])
        rows, fn = row[cells], rules[k].consequent_fn
        cols = np.array([columns[v][rows] for v in fn.variables])
        raw = fn.evaluate(cols.reshape(len(fn.variables), rows.size).T)
        y[cells] = clamp(raw, rules[k].clamp_bounds)
    return FiredCells(rule, row, F_lo.ravel()[flat], F_hi.ravel()[flat], y)


def reduce_firing(
    F_lo: np.ndarray, F_hi: np.ndarray, reduction: str = "midpoint"
) -> np.ndarray:
    """Scalarize firing intervals: midpoint (default), lower, or upper."""
    if reduction == "midpoint":
        return 0.5 * (F_lo + F_hi)
    if reduction == "lower":
        return F_lo
    if reduction == "upper":
        return F_hi
    raise ValueError(f"unknown firing reduction {reduction!r}")


def weighted_mean(
    rows: np.ndarray, w: np.ndarray, wy: np.ndarray, n: int, fallback: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sum(wy) / sum(w), each row adding its entries in the order
    given, and the mask of rows whose weights do not sum above zero,
    which take ``fallback``."""
    wsum = np.bincount(rows, w, n)
    psum = np.bincount(rows, wy, n)
    fell = wsum <= 0.0
    return np.where(fell, fallback, psum / np.where(fell, 1.0, wsum)), fell


class _Weighed(NamedTuple):
    """One pass of inference: the fired cells, their weights, per-row results."""

    cells: FiredCells
    w: np.ndarray
    values: np.ndarray
    fired_counts: np.ndarray
    fallback: np.ndarray

    def itemize(self) -> tuple[Prediction, ...]:
        """Every row's prediction, its fired rules in rule order."""
        c = self.cells
        order = np.argsort(c.row, kind="stable")
        fired = [
            FiredRule(i, (lo, hi), y, w)
            for i, lo, hi, y, w in zip(
                *(a[order].tolist() for a in (c.rule, c.lo, c.hi, c.y, self.w))
            )
        ]
        ends = np.cumsum(self.fired_counts)
        return tuple(
            Prediction(float(v), tuple(fired[e - k : e]), bool(f))
            for v, k, e, f in zip(self.values, self.fired_counts, ends, self.fallback)
        )


def _weigh(model: Model, data: Dataset | Mapping[str, np.ndarray]) -> _Weighed:
    """The prediction path every public predict function is a view of."""
    if not model.rules:
        raise NotTrainedError("model has no rules")
    columns = _column_table(model.feature_partitions, data)
    n = next(iter(columns.values())).size
    # an overflowing polynomial is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        cells = rule_matrices(
            model.rules, model.feature_partitions, columns, model.tnorm
        )
    dom = np.array([r.error_dominance for r in model.rules])
    w = reduce_firing(cells.lo, cells.hi, model.firing_reduction) * dom[cells.rule]
    # a rule that fires with weight 0 (lower reduction) adds no 0 x NaN
    live = w > 0.0
    values, fallback = weighted_mean(
        cells.row[live], w[live], w[live] * cells.y[live], n, model.fallback_value
    )
    nan_rows = np.flatnonzero(np.isnan(values))
    if nan_rows.size:
        raise ValueError(
            f"prediction for row {nan_rows[0]} is NaN: a rule polynomial "
            "overflowed on this input"
        )
    return _Weighed(cells, w, values, np.bincount(cells.row, minlength=n), fallback)


def predict_values(
    model: Model, data: Dataset | Mapping[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fast path: (values, fired_counts, fallback_mask) arrays."""
    w = _weigh(model, data)
    return w.values, w.fired_counts, w.fallback


def predict(model: Model, x: Mapping[str, float]) -> Prediction:
    """Predict one row and itemize every fired rule's contribution."""
    row = {
        p.variable: float(x[p.variable])
        for p in model.feature_partitions
        if p.variable in x
    }
    return _weigh(model, row).itemize()[0]


def predict_batch(
    model: Model,
    data: Dataset | Mapping[str, np.ndarray],
    targets: np.ndarray | None = None,
    detail: bool = False,
) -> BatchResult:
    """Predict many rows; attaches RMSE when targets are available.

    ``detail=True`` additionally itemizes every row's fired rules into a
    `Prediction`, from the same fired cells as the values (one object
    per fired cell; meant for inspection, not bulk scoring).
    """
    w = _weigh(model, data)
    values = w.values
    if targets is None and isinstance(data, Dataset):
        targets = data.y
    score = None
    if targets is not None:
        t = np.asarray(targets, dtype=float).ravel()
        if t.size != values.size:
            raise ValueError("targets length does not match rows")
        score = float(np.sqrt(np.mean((values - t) ** 2)))
    return BatchResult(
        values=values,
        fired_counts=w.fired_counts,
        fallback_rate=float(np.mean(w.fallback)),
        rmse=score,
        predictions=w.itemize() if detail else None,
    )
