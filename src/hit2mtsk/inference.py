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
# rule_matrices works in pieces of at most this many (rules or sets) x rows
# cells, so that its temporaries stay small beside the matrices it returns
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


def rule_matrices(
    rules: Sequence[HybridRule],
    feature_partitions: Sequence[Partition],
    columns: Mapping[str, np.ndarray],
    tnorm: str = "minimum",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-rule firing bounds on every row, and outputs where rules fire.

    Returns (F_lo, F_hi, Y), each shaped (num_rules, num_rows).  A rule
    fires on a row where its upper firing bound is positive; only there
    can it weigh in a prediction, so only there is its polynomial
    evaluated.  Y holds the clamped output on those rows and 0.0 on
    every other row.

    The memberships of every set of every partition come from one
    stacked trapezoid pass, and one `fire` call folds every rule through
    per-clause indices into that table.  Both run over chunks of rows,
    and the polynomials over blocks of rules, of at most BLOCK_CELLS
    cells.  ``rules`` must not be empty, and every rule must reference
    only variables and sets of ``feature_partitions`` that have a column
    (`Model` and `select_rules` guarantee both).
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
    Y = np.zeros((m, n))

    step = max(1, BLOCK_CELLS // max(m, len(sets)))
    for start in range(0, n, step):
        chunk = slice(start, start + step)
        lower, upper = stacked_memberships(sets, x[feature, chunk])
        ones = np.ones((1, lower.shape[1]))
        table = ((np.vstack([lower, ones]).T, np.vstack([upper, ones]).T),)
        lo, hi = fire(table, [(0, c) for c in clauses], tnorm)
        F_lo[:, chunk], F_hi[:, chunk] = lo.T, hi.T

    step = max(1, BLOCK_CELLS // max(n, 1))
    for start in range(0, m, step):
        block = rules[start : start + step]
        # fired cells of the block, rule by rule, rows ascending
        fired = np.flatnonzero(F_hi[start : start + step] > 0.0)
        bounds = np.searchsorted(fired, np.arange(len(block) + 1) * n)
        for k in np.flatnonzero(np.diff(bounds)):
            fn = block[k].consequent_fn
            rows = fired[bounds[k] : bounds[k + 1]] - k * n
            cols = np.array([columns[v][rows] for v in fn.variables])
            raw = fn.evaluate(cols.reshape(len(fn.variables), rows.size).T)
            Y[start + k, rows] = clamp(raw, block[k].clamp_bounds)
    return F_lo, F_hi, Y


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


class _Weighed(NamedTuple):
    """One pass of inference: (rules, rows) matrices and per-row results."""

    F_lo: np.ndarray
    F_hi: np.ndarray
    Y: np.ndarray
    W: np.ndarray
    values: np.ndarray
    fired_counts: np.ndarray
    fallback: np.ndarray

    def itemize(self, row: int) -> Prediction:
        fired = tuple(
            FiredRule(
                index=int(i),
                firing=(float(self.F_lo[i, row]), float(self.F_hi[i, row])),
                output=float(self.Y[i, row]),
                weight=float(self.W[i, row]),
            )
            for i in np.flatnonzero(self.F_hi[:, row] > 0.0)
        )
        return Prediction(
            value=float(self.values[row]),
            fired_rules=fired,
            fallback_used=bool(self.fallback[row]),
        )


def _weigh(model: Model, data: Dataset | Mapping[str, np.ndarray]) -> _Weighed:
    """The prediction path every public predict function is a view of."""
    if not model.rules:
        raise NotTrainedError("model has no rules")
    columns = _column_table(model.feature_partitions, data)
    # an overflowing polynomial is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        F_lo, F_hi, Y = rule_matrices(
            model.rules, model.feature_partitions, columns, model.tnorm
        )
    fired_counts = np.count_nonzero(F_hi > 0.0, axis=0)
    dom = np.array([r.error_dominance for r in model.rules])
    W = reduce_firing(F_lo, F_hi, model.firing_reduction) * dom[:, None]
    # each row adds its weighted rules in rule order, however many rows
    # there are (sum(axis=0) adds a one-row column pairwise); a rule that
    # fires with weight 0 (lower reduction) adds no 0 x NaN.  Whole-batch
    # gathers left heap memory resident and raised serve peak RSS.
    n = W.shape[1]
    wsum, psum = np.empty(n), np.empty(n)
    step = max(1, BLOCK_CELLS // len(W))
    for start in range(0, n, step):
        chunk = slice(start, start + step)
        fired = W[:, chunk] > 0.0
        rows = np.nonzero(fired)[1]
        w = W[:, chunk][fired]
        wsum[chunk] = np.bincount(rows, w, fired.shape[1])
        psum[chunk] = np.bincount(rows, w * Y[:, chunk][fired], fired.shape[1])
    fallback = wsum <= 0.0
    values = np.where(fallback, model.fallback_value, psum / np.where(fallback, 1.0, wsum))
    nan_rows = np.flatnonzero(np.isnan(values))
    if nan_rows.size:
        raise ValueError(
            f"prediction for row {nan_rows[0]} is NaN: a rule polynomial "
            "overflowed on this input"
        )
    return _Weighed(F_lo, F_hi, Y, W, values, fired_counts, fallback)


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
    return _weigh(model, row).itemize(0)


def predict_batch(
    model: Model,
    data: Dataset | Mapping[str, np.ndarray],
    targets: np.ndarray | None = None,
    detail: bool = False,
) -> BatchResult:
    """Predict many rows; attaches RMSE when targets are available.

    ``detail=True`` additionally itemizes every row's fired rules into a
    `Prediction`, from the same matrices as the values (rules x rows
    objects; meant for inspection, not bulk scoring).
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
    preds = None
    if detail:
        preds = tuple(w.itemize(i) for i in range(values.size))
    return BatchResult(
        values=values,
        fired_counts=w.fired_counts,
        fallback_rate=float(np.mean(w.fallback)),
        rmse=score,
        predictions=preds,
    )
