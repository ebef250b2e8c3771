"""Crisp prediction from a selected rule base.

Each rule contributes its clamped polynomial output weighted by a
scalarized firing strength times its error dominance; the prediction is
the weighted mean.  Rows no rule fires on fall back to the training
target mean with an explicit flag, never silently.  ACO selection scores
through the same `rule_matrices` and `weigh`, so one check refuses a rule
that overflows where it fires, in training and in prediction alike.

`predict_values` weighs a batch one block of rows at a time, so its
memory is bounded by one block's cells, whatever the batch's size.  The
readers of cells still hold every cell of their rows at once: `predict`,
`explain`'s base pass, ACO's table and `evaluate.derive_mamdani`.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .data import Dataset
from .it2 import TNORMS, Partition, SetStack, fire, stack_sets, stacked_memberships
from .rules import HybridRule, RuleUnfittableError, evaluate_terms

FIRING_REDUCTIONS = ("midpoint", "lower", "upper")
TINY = np.finfo(float).tiny  # the smallest normal float
# rule_matrices fires rules over chunks of at most this many (rules or
# sets) x rows cells, and evaluates and clips polynomials over blocks of
# at most this many fired cells, so that their temporaries stay small;
# predict_values weighs one chunk of rows at a time, so a batch holds one
# block of cells, not all of its own.
# Within a block, an exponent-table group of at most `rules.TABLE_CELLS`
# cells (every group of a single-row predict) and at least
# `rules.TABLE_MIN_TERMS` terms is one term table; other groups run term
# by term, holding one term's coefficients at a time
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

    @functools.cached_property
    def tables(self) -> RuleTables:
        """The rule base compiled for `rule_matrices`, on first use; not a
        field, so it is neither saved nor compared."""
        if not self.rules:
            raise NotTrainedError("model has no rules")
        return compile_rules(self.rules, self.feature_partitions, self.tnorm)


def _feature_rows(
    feature_partitions: Sequence[Partition],
    data: Dataset | Mapping[str, np.ndarray],
) -> np.ndarray:
    """(features, rows) table of every partitioned feature, float and
    validated."""
    kind = "dataset" if isinstance(data, Dataset) else "input"
    cols = []
    for p in feature_partitions:
        try:
            col = data.column(p.variable) if kind == "dataset" else data[p.variable]
        except KeyError:
            raise ValueError(f"{kind} lacks model feature {p.variable!r}") from None
        cols.append(np.atleast_1d(np.asarray(col, dtype=float)))
        if cols[-1].ndim > 1:
            raise ValueError(f"input for {p.variable!r} is not one-dimensional")
    if len({c.size for c in cols}) > 1:
        raise ValueError("feature columns have inconsistent lengths")
    x = np.array(cols)
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        bad = feature_partitions[int(np.argmin(finite))].variable
        raise ValueError(f"input for {bad!r} is non-finite")
    return x


class FiredCells(NamedTuple):
    """The (rule, row) cells where rules fire, rule by rule, rows ascending,
    with their firing bounds and the rule's clamped output."""

    rule: np.ndarray
    row: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    y: np.ndarray


class RuleTables(NamedTuple):
    """A rule base as the arrays `rule_matrices` reads, built once."""

    sets: SetStack  # every partition's sets, then the padding set
    feature: np.ndarray  # each set's partition
    clauses: np.ndarray  # (clauses, rules) positions in the sets, padded
    # one (degree, exponents, (terms, rules) coefficients, (arity, rules)
    # partition of each variable) per exponent table, zeros for other rules
    groups: tuple[tuple, ...]
    group: np.ndarray  # each rule's position in ``groups``
    lo: np.ndarray  # per-rule clamp bounds
    hi: np.ndarray
    dominance: np.ndarray  # per-rule error dominance
    tnorm: str


def compile_rules(
    rules: Sequence[HybridRule],
    feature_partitions: Sequence[Partition],
    tnorm: str = "minimum",
) -> RuleTables:
    """The tables of a non-empty rule base whose every clause names a set
    of ``feature_partitions`` (`Model` guarantees both)."""
    variables = tuple(p.variable for p in feature_partitions)
    sets = [(j, s) for j, p in enumerate(feature_partitions) for s in p.sets]
    position = {(variables[j], s.name): i for i, (j, s) in enumerate(sets)}
    # short antecedents are padded with the set after the partitions'
    # sets, whose memberships come out of the one membership pass as 1.0
    # on every row (`stack_sets` with ``all_ones``): min(f, 1) and f * 1
    # are f, so the fold is each rule's own
    clauses = np.full((max(len(r.antecedent) for r in rules), len(rules)), len(sets))
    ids: dict[tuple, int] = {}
    fns = [r.consequent_fn for r in rules]
    group = np.array([ids.setdefault((f.degree, f.exponents), len(ids)) for f in fns])
    groups = tuple(
        (
            degree,
            exps,
            np.zeros((len(exps), len(rules))),
            np.zeros((len(exps[0]), len(rules)), dtype=np.intp),
        )
        for degree, exps in ids
    )
    for i, (rule, fn) in enumerate(zip(rules, fns)):
        clauses[: len(rule.antecedent), i] = [position[c] for c in rule.antecedent]
        _, _, coefficients, columns = groups[group[i]]
        coefficients[:, i] = fn.coefficients
        columns[:, i] = [variables.index(v) for v in fn.variables]
    return RuleTables(
        stack_sets([s for _, s in sets], all_ones=True),
        np.array([j for j, _ in sets] + [0]),  # any feature serves the padding
        clauses,
        groups,
        group,
        *np.array([r.clamp_bounds for r in rules]).T,
        np.array([r.error_dominance for r in rules]),
        tnorm,
    )


def evaluate_cells(
    tables: RuleTables, X: np.ndarray, rule: np.ndarray, row: np.ndarray
) -> np.ndarray:
    """Raw polynomial output of rule ``rule[c]`` at row ``row[c]`` of the
    (features, rows) table ``X``, for every cell c, one `evaluate_terms`
    call per exponent-table group."""
    out = np.empty(rule.size)
    group = tables.group[rule]
    for g, (degree, exponents, coefficients, variables) in enumerate(tables.groups):
        cells = np.flatnonzero(group == g)
        if not cells.size:
            continue
        k = rule[cells]
        cols = X[variables[:, k], row[cells]]
        out[cells] = evaluate_terms(degree, exponents, coefficients, cols, k)
    return out


def _chunk_rows(tables: RuleTables) -> int:
    """Rows per `rule_matrices` chunk: BLOCK_CELLS over the rules or sets."""
    return max(1, BLOCK_CELLS // max(tables.clauses.shape[1], tables.feature.size))


def rule_matrices(tables: RuleTables, x: np.ndarray) -> FiredCells:
    """Every cell where a rule fires, with its firing bounds and output.

    A rule fires on a row where its upper firing bound is positive; only
    there can it weigh in a prediction, so only there is its polynomial
    evaluated, and no other cell is returned.  ``x`` is the (features,
    rows) float table of the rows, one row per partition the tables were
    compiled from, in their order.

    The memberships of every set of every partition come from one
    stacked trapezoid pass, and one `fire` call folds every rule through
    per-clause indices into that table; both run over chunks of rows of
    at most BLOCK_CELLS cells.  Each chunk keeps only its fired cells;
    their counts per rule and chunk place every cell once, in rule order.
    Polynomials are then evaluated and clipped in blocks of BLOCK_CELLS.
    """
    sets, clauses = tables.sets, tables.clauses
    m, n = clauses.shape[1], x.shape[1]
    step = _chunk_rows(tables)
    chunks = []
    for start in range(0, max(n, 1), step):  # no rows make one empty chunk
        chunk = x[tables.feature, start : start + step]
        lo, hi = fire(*stacked_memberships(sets, chunk), clauses, tables.tnorm)
        # (rules, rows) cells in C order are rule-major
        flat = np.flatnonzero(hi > 0.0)
        chunks.append((start, hi.shape[1], flat, lo.ravel()[flat], hi.ravel()[flat]))
    if len(chunks) == 1:  # rule-major already; merging it costs predict ~15%
        _, width, flat, lo, hi = chunks.pop()
        rule, row = np.divmod(flat, width)
    else:
        # (chunks, rules) cell counts, from each chunk's rule-major indices
        counts = np.array([np.bincount(f // w, minlength=m) for _, w, f, *_ in chunks])
        per_rule = counts.sum(axis=0)
        # the i-th fired cell of a chunk goes to its rule's start, past the
        # rule's cells in earlier chunks and the chunk's cells of earlier rules
        shift = np.cumsum(per_rule) - per_rule + counts.cumsum(0) - counts.cumsum(1)
        row, lo, hi = (np.empty(per_rule.sum(), t) for t in (np.intp, float, float))
        for at in shift:  # each chunk's cells are freed once placed
            start, width, flat, c_lo, c_hi = chunks.pop(0)
            c_rule, c_row = np.divmod(flat, width)
            place = at[c_rule] + np.arange(flat.size)
            row[place], lo[place], hi[place] = c_row + start, c_lo, c_hi
        rule = np.repeat(np.arange(m), per_rule)
    y = np.empty(rule.size)
    # an overflowing polynomial is refused by `weigh`, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(0, rule.size, BLOCK_CELLS):
            k, r = rule[b : b + BLOCK_CELLS], row[b : b + BLOCK_CELLS]
            raw = evaluate_cells(tables, x, k, r)
            np.clip(raw, tables.lo[k], tables.hi[k], out=y[b : b + BLOCK_CELLS])
    return FiredCells(rule, row, lo, hi, y)


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
    wsum: np.ndarray, psum: np.ndarray, fallback: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``psum / wsum`` from each row's sums of weights and of
    weighted outputs, and the mask of rows whose weights do not sum above
    zero, which take ``fallback``."""
    fell = wsum <= 0.0
    return np.where(fell, fallback, psum / np.where(fell, 1.0, wsum)), fell


def cell_weights(
    lo: np.ndarray,
    hi: np.ndarray,
    y: np.ndarray,
    dominance: np.ndarray | float,
    reduction: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Cells' weights (reduced firing times their rules' error dominance)
    and weighted outputs.  A weight below the smallest normal float (the
    lower reduction, or underflow) counts as 0, and so does the weight of
    a nonzero output whose weighted output ``|w * y|`` is below it (zero
    included): a subnormal ``w`` or ``w * y`` loses the bits that would
    let ``w * y / w`` give ``y`` back, so it would move a prediction off
    its clamp bounds (an output clamped to [1.3, 2.0] came back as 1.0 at
    a weight of 5e-324).  A cell of weight 0 has weighted output +0.0, even
    where its output is NaN, so it adds nothing to its row's sums."""
    w = reduce_firing(lo, hi, reduction) * dominance
    wy = w * y
    off = (w < TINY) | ((y != 0.0) & (wy < TINY) & (wy > -TINY))  # no float temporary
    w[off] = 0.0
    wy[off] = 0.0
    return w, wy


def weigh(
    rules: Sequence[HybridRule], tables: RuleTables, cells: FiredCells, reduction: str
) -> tuple[np.ndarray, np.ndarray]:
    """Every fired cell's `cell_weights`.  A cell of positive weight whose
    output is NaN would make a prediction or an ACO cost NaN: the first,
    in rule order, is refused with `RuleUnfittableError` naming its rule
    and row."""
    w, wy = cell_weights(
        cells.lo, cells.hi, cells.y, tables.dominance[cells.rule], reduction
    )
    nan = np.flatnonzero(np.isnan(wy))
    if nan.size:
        i, r = int(cells.rule[nan[0]]), int(cells.row[nan[0]])
        raise RuleUnfittableError(
            f"rule {i} (IF {rules[i].antecedent_text()}) outputs NaN on row {r}, "
            "where it fires: its polynomial overflows there"
        )
    return w, wy


class _Weighed(NamedTuple):
    """One pass of inference: the fired cells, their weights, per-row results."""

    cells: FiredCells
    w: np.ndarray
    values: np.ndarray
    fired_counts: np.ndarray
    fallback: np.ndarray


def _weigh(model: Model, x: np.ndarray) -> _Weighed:
    """The prediction path every public predict function is a view of,
    over the (features, rows) table `_feature_rows` checked."""
    n = x.shape[1]
    cells = rule_matrices(model.tables, x)
    w, wy = weigh(model.rules, model.tables, cells, model.firing_reduction)
    # each row adds its cells in rule order
    sums = (np.bincount(cells.row, a, n) for a in (w, wy))
    values, fallback = weighted_mean(*sums, model.fallback_value)
    return _Weighed(cells, w, values, np.bincount(cells.row, minlength=n), fallback)


def predict_values(
    model: Model, data: Dataset | Mapping[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row's prediction, fired-rule count and fallback flag, as
    (values, fired_counts, fallback_mask) arrays.

    Rows are weighed one block at a time, a block being the rows of one
    `rule_matrices` chunk, so one block's cells are alive at once; each
    row adds its cells in rule order whatever its block, so every value
    is that of one whole `_weigh` pass."""
    x = _feature_rows(model.feature_partitions, data)
    step, n = _chunk_rows(model.tables), x.shape[1]
    out = np.empty(n), np.empty(n, np.intp), np.empty(n, bool)
    for start in range(0, n, step):
        try:
            block = _weigh(model, x[:, start : start + step])
        except RuleUnfittableError:
            # a later block may hold a lower rule's NaN cell: the whole
            # pass names the first in rule order, on the caller's rows
            _weigh(model, x)
            raise
        for a, b in zip(out, (block.values, block.fired_counts, block.fallback)):
            a[start : start + step] = b
    return out


def _itemize(w: _Weighed, rows: int) -> list[Prediction]:
    """The first ``rows`` rows of one inference pass, each with every fired
    rule's contribution in rule order."""
    c, n = w.cells, w.values.size
    # the first rows' cells, still rule-major: each row's list fills in rule order
    keep = slice(None) if rows >= n else c.row < rows
    cells = zip(*(a[keep].tolist() for a in (c.row, c.rule, c.lo, c.hi, c.y, w.w)))
    fired: list[list[FiredRule]] = [[] for _ in range(min(rows, n))]
    for r, i, lo, hi, y, wt in cells:
        fired[r].append(FiredRule(i, (lo, hi), y, wt))
    rows_of = zip(w.values.tolist(), w.fallback.tolist(), fired)
    return [Prediction(v, tuple(f), fell) for v, fell, f in rows_of]


def predict(model: Model, x: Mapping[str, float]) -> Prediction:
    """Predict one row and itemize every fired rule's contribution."""
    row = {
        p.variable: float(x[p.variable])
        for p in model.feature_partitions
        if p.variable in x
    }
    return _itemize(_weigh(model, _feature_rows(model.feature_partitions, row)), 1)[0]
