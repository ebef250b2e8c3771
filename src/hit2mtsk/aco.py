"""Ant-colony selection of the active rule subset.

Selection prunes a model.  Ants repeatedly sample subsets of the
candidate `Model`'s rules with probability proportional to
pheromone^alpha * heuristic^beta (heuristic = error dominance), score
each by the RMSE of that model restricted to the subset, evaporate and
deposit pheromone, and stop early after a patience window without
improvement.  Fully deterministic for a fixed seed: every ant draws
from its own (seed, iteration, ant) derived stream, its subset size and
then one uniform per rule, which keys the rules for one top-k draw.

A subset is scored through inference's own steps: the rows' feature
table, `rule_matrices` over the model's tables and `weigh` run once
before the search, which keeps each rule's fired rows, and there the
weights and weighted outputs `weigh` returns as the real and imaginary
parts of one complex cell (the cells' bounds and outputs are freed
first).  In training, generation has already computed each rule's
cells on the fit rows, which it hands on with the rows they stand for:
then only the validation rows are fired and weighed, and each rule's
generation cells, weighed by `cell_weights` (the arithmetic of
`weigh`), go before its validation cells and are freed once copied.
An ant adds its rules' cells into one reused complex row
buffer with `np.add.at`, rule by rule in index order; a rule's rows are
distinct, so every row sums its rules in index order from +0.0, the
additions inference's `bincount`s make.  The subset's prediction is
`weighted_mean` of the buffer's parts, with the model's fallback where
none fires.  A rule adds nothing where it does not fire, or fires with
weight 0, so its polynomial there (even an overflow) never enters a
score.  A rule whose output is NaN on a row where it weighs in is
refused by `weigh`, naming that row, before the search starts.

This process draws every ant.  Where the platform can fork and one
iteration's expected scoring work reaches `HELPER_WORK` (a toy search
stays whole), the ants are also scored on forked helper processes, one
per usable core beyond this one, at most one per ant beyond the first
and at most `MAX_HELPERS` (1, the count measured).  A helper inherits
the search table when it is forked.  An iteration's ants are split by
count: with k = ants // (helpers + 1), the first k go to the first
helper as soon as the k-th is drawn, the next k to the next, and this
process scores the rest; then it reads the helpers' costs and updates
the pheromone in ant order.  Every cost comes from the same code on the
same arrays, so the result does not depend on the number of cores or
on which process scored which ant.  If a helper dies, this process
scores its ants.  Nothing sets the number of helpers: no config field,
flag or environment variable.
"""
from __future__ import annotations

import math
import os
import signal
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .data import Dataset
from .inference import (
    Model,
    _feature_rows,
    cell_weights,
    rule_matrices,
    weigh,
    weighted_mean,
)
from .rules import HybridRule, rmse

if TYPE_CHECKING:
    from .universe import RuleCells

PHEROMONE_FLOOR = 1e-12
# A search scores its ants on helper processes only when one iteration's
# expected scoring work, num_ants * (rows + mean subset size * mean cells
# per rule), is at least HELPER_WORK.  On a 2-core x86-64 host, 30 ants
# for 20 iterations took 43.6 ms alone and 42.2 ms with one helper at a
# work of 66k, 63.7 against 53.4 ms at 461k, 104.5 against 84.7 at 1.2M
# and 285.7 against 181.8 at 4.7M; forking and reaping a helper of a
# 100 MB training process took about 4 ms, and each iteration's
# hand-off about 0.2 ms, which a search of few iterations below 500k does
# not earn back.  The benchmark trains work at 1.0M (Friedman #1, 5000
# rows) and 6.4M (Friedman #2, 20000 rows) per iteration
HELPER_WORK = 500_000
# At most this many helpers: one helper is all that has been measured (on
# the 2-core host above).  More would each add a fork and a pipe round trip
# per iteration for a smaller share, and the affinity mask does not show a
# CPU quota, so their gain is unverified
MAX_HELPERS = 1


class AcoConfigError(ValueError):
    """Infeasible or out-of-range ACO settings."""


@dataclass(frozen=True)
class AcoConfig:
    num_ants: int = 30
    num_iterations: int = 200
    alpha: float = 1.0
    beta: float = 2.0
    rho: float = 0.1
    deposit: float = 1.0
    initial_pheromone: float = 0.1
    subset_size_range: tuple[int, int] = (10, 100)
    patience: int = 20

    def __post_init__(self) -> None:
        if self.num_ants < 1 or self.num_iterations < 1:
            raise AcoConfigError("need at least one ant and one iteration")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise AcoConfigError("alpha and beta must be >= 0")
        if not 0.0 < self.rho <= 1.0:
            raise AcoConfigError("rho must be in (0, 1]")
        if self.deposit <= 0.0:
            raise AcoConfigError("deposit must be > 0")
        if self.initial_pheromone <= 0.0:
            raise AcoConfigError("initial_pheromone must be > 0")
        lo, hi = self.subset_size_range
        if lo < 1 or lo > hi:
            raise AcoConfigError(
                f"infeasible subset_size_range ({lo}, {hi})"
            )
        if self.patience < 1:
            raise AcoConfigError("patience must be >= 1")


@dataclass(frozen=True)
class RuleSubset:
    indices: tuple[int, ...]
    rules: tuple[HybridRule, ...]
    cost: float


def sample_subset(
    rng: np.random.Generator, weights: np.ndarray, size: int
) -> np.ndarray:
    """Draw ``size`` distinct indices, each step normalized over the rest.

    One keyed draw (Efraimidis & Spirakis 2006): each index gets the key
    ``log(w) - log(-log u)`` from its own uniform ``u`` of ``rng``, which
    orders the indices as ``u ** (1 / w)`` does but stays finite for every
    positive weight, and the ``size`` largest keys win.  That is the law
    of ``size`` successive proportional picks.  Zero weights come after
    every positive one, uniformly among themselves (ranked by ``u``).
    """
    total_rules = weights.size
    if size > total_rules:
        raise ValueError("subset size exceeds rule count")
    if not (np.all(weights >= 0.0) and np.isfinite(weights.sum())):
        raise ValueError("weights must be finite and non-negative")
    u = rng.random(total_rules)
    if size > np.count_nonzero(weights):
        key = np.where(weights > 0.0, np.inf, u)
    else:
        with np.errstate(divide="ignore"):  # a zero weight keys -inf
            key = np.log(weights) - np.log(-np.log(u))
    rest = total_rules - size  # the keys after position rest - 1 win
    return np.sort(np.argpartition(key, rest - 1)[rest:])


def select_rules(
    model: Model,
    dataset: Dataset,
    config: AcoConfig = AcoConfig(),
    seed: int = 0,
    generated: tuple[np.ndarray, list[RuleCells | None]] | None = None,
) -> tuple[RuleSubset, tuple[tuple[int, float], ...]]:
    """Search for the subset of ``model``'s rules whose model (``model``
    restricted to them) has the lowest RMSE on ``dataset``.  ``seed``
    fixes every ant's draws.  Subset sizes beyond the rule count are
    clamped down to it.  Returns the best subset and the (iteration,
    best RMSE so far) trace.

    ``generated``, when given, is ``(rows, cells)``: sorted rows of
    ``dataset``, and each rule's cells on them as `generate_candidates`
    left them for a dataset of those rows alone.  Only the other rows are
    fired here.  Each entry of ``cells`` is set to None once its rule's
    search arrays are built, so that its arrays are freed.
    """
    rules = model.rules
    total = len(rules)
    lo = min(config.subset_size_range[0], total)
    hi = min(config.subset_size_range[1], total)

    x = _feature_rows(model.feature_partitions, dataset)
    y = dataset.y
    covered, known = generated or (np.empty(0, np.intp), [])
    # fire every row that no generation cells cover
    rest = np.setdiff1d(np.arange(y.size), covered)
    # looked up in this module, so selection's firing is timed apart
    cells = rule_matrices(model.tables, x[:, rest])
    # numbered as the dataset's rows before `weigh` can name one
    cells = cells._replace(row=rest[cells.row])
    w, wy = weigh(rules, model.tables, cells, model.firing_reduction)
    # each rule's rows where it fires, and there its weights and weighted
    # outputs as one complex cell; the cells' bounds and outputs are freed
    # before that table is built
    cuts = np.searchsorted(cells.rule, np.arange(1, total))
    rows_of = np.split(cells.row, cuts)
    del cells
    sums = np.empty(w.size, complex)
    sums.real, sums.imag = w, wy
    del w, wy
    sums_of = np.split(sums, cuts)
    # generation's cells take the rows they stand for and go first; a
    # rule's rows are distinct, so their order within it adds nothing.
    # They need no NaN check: generation refuses a NaN output
    for r, c in enumerate(known):
        known[r] = None
        w, wy = cell_weights(
            c.lo, c.hi, c.y, model.tables.dominance[r], model.firing_reduction
        )
        head = np.empty(w.size, complex)
        head.real, head.imag = w, wy
        rows_of[r] = np.concatenate((covered[c.row], rows_of[r]))
        sums_of[r] = np.concatenate((head, sums_of[r]))
    buf = np.empty(y.size, complex)  # per-row (sum of w) + 1j * (sum of wy)

    def cost_of(sel: np.ndarray) -> float:
        # a rule's rows are distinct and sel is sorted, so every row adds
        # its rules once each, in index order, from +0.0: the additions a
        # bincount over the subset's cells makes, real and imaginary apart
        buf.fill(0.0)
        for r in sel:
            np.add.at(buf, rows_of[r], sums_of[r])
        pred, _ = weighted_mean(buf.real, buf.imag, model.fallback_value)
        return rmse(pred, y)

    heuristic = model.tables.dominance
    pheromone = np.full(total, config.initial_pheromone)
    best_indices: tuple[int, ...] | None = None
    best_cost = math.inf
    stagnation = 0
    trace: list[tuple[int, float]] = []

    # an ant's scoring work counts the rows and its rules' cells
    cells_per_rule = sum(r.size for r in rows_of) / total
    work = config.num_ants * (y.size + (lo + hi) / 2 * cells_per_rule)
    helpers = _Helpers(
        _helper_count(config.num_ants, work), config.num_ants, cost_of
    )
    try:
        for iteration in range(1, config.num_iterations + 1):
            improved = False
            weights = pheromone**config.alpha * heuristic**config.beta
            sels: list[np.ndarray] = []
            for ant in range(config.num_ants):
                rng = np.random.default_rng(
                    np.random.SeedSequence([seed, iteration, ant])
                )
                size = int(rng.integers(lo, hi + 1))
                sels.append(sample_subset(rng, weights, size))
                helpers.hand_out(sels)
            costs = helpers.costs(sels)
            pheromone *= 1.0 - config.rho
            for sel, cost in zip(sels, costs):
                pheromone[sel] += config.deposit / (1.0 + cost)
                if cost < best_cost:
                    best_cost = cost
                    best_indices = tuple(int(i) for i in sel)
                    improved = True
            np.maximum(pheromone, PHEROMONE_FLOOR, out=pheromone)
            trace.append((iteration, best_cost))
            stagnation = 0 if improved else stagnation + 1
            if stagnation >= config.patience:
                break
    finally:
        helpers.close()

    assert best_indices is not None
    subset = RuleSubset(
        indices=best_indices,
        rules=tuple(rules[i] for i in best_indices),
        cost=best_cost,
    )
    return subset, tuple(trace)


def _helper_count(num_ants: int, work: float) -> int:
    """Helper processes for a search whose iterations each score
    ``num_ants`` ants of ``work`` expected work in all: one per usable
    core beyond this process, capped by the ants and MAX_HELPERS, where
    the platform can fork and ``work`` reaches HELPER_WORK; else none."""
    if work < HELPER_WORK:
        return 0
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    return min(len(os.sched_getaffinity(0)) - 1, num_ants - 1, MAX_HELPERS)


def _read(fd: int, size: int) -> bytes | None:
    """Exactly ``size`` bytes from ``fd``, or None at end of file."""
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _serve(jobs: int, replies: int, cost_of: Callable[[np.ndarray], float]) -> None:
    """A helper's loop, until its job pipe reaches end of file.  A job is
    one int64 array: the number of subsets, their total size, each
    subset's size, then their indices.  The reply is the subsets' costs
    as float64, in job order."""
    while (head := _read(jobs, 16)) is not None:
        count, size = (int(v) for v in np.frombuffer(head, np.int64))
        body = np.frombuffer(_read(jobs, 8 * (count + size)), np.int64)
        sels = np.split(body[count:].astype(np.intp), np.cumsum(body[: count - 1]))
        _write(replies, np.array([cost_of(sel) for sel in sels]).tobytes())


class _Helpers:
    """Forked processes that score shares of each iteration's ants.

    A helper inherits the search table when it is forked, and scores a
    subset with the same ``cost_of`` on the same arrays: its costs are
    the parent's bits.  Each iteration's ants are split by count: with
    ``k = ants // (helpers + 1)``, helper ``h`` scores ants
    ``[h * k, (h + 1) * k)``, sent as soon as the last of them is drawn,
    and the parent scores the rest, at least ``k``.  A helper that has
    died keeps its place in the split, and the parent scores its ants.
    """

    def __init__(
        self, count: int, ants: int, cost_of: Callable[[np.ndarray], float]
    ) -> None:
        self.cost_of = cost_of
        # (pid, job fd, reply fd) by place in the split; None once dead
        self.procs: list[tuple[int, int, int] | None] = []
        try:
            while len(self.procs) < count and self._fork():
                pass
        except BaseException:
            self.close()
            raise
        self.share = ants // (len(self.procs) + 1)

    def _fork(self) -> bool:
        job_r, job_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns when a multi-threaded process forks,
                # and numpy's BLAS pool makes it one.  The child is safe:
                # it runs only numpy ufuncs on arrays it inherited and
                # calls no BLAS
                warnings.filterwarnings(
                    "ignore", "This process .* is multi-threaded", DeprecationWarning
                )
                pid = os.fork()
        except OSError:  # no process to spare: the helpers made so far score
            for fd in (job_r, job_w, reply_r, reply_w):
                os.close(fd)
            return False
        if pid == 0:
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                for fd in (job_w, reply_r, *(f for h in self.procs for f in h[1:])):
                    os.close(fd)
                _serve(job_r, reply_w, self.cost_of)
                status = 0
            finally:
                os._exit(status)
        os.close(job_r)
        os.close(reply_w)
        self.procs.append((pid, job_w, reply_r))
        return True

    def hand_out(self, sels: list[np.ndarray]) -> None:
        """Send a helper its share once ``sels`` holds the last ant of it."""
        h, rest = divmod(len(sels), self.share)
        helper = self.procs[h - 1] if not rest and h <= len(self.procs) else None
        if helper is None:
            return
        batch = sels[-self.share :]
        sizes = [sel.size for sel in batch]
        job = np.concatenate([[len(batch), sum(sizes)], sizes, *batch])
        try:
            _write(helper[1], job.astype(np.int64).tobytes())
        except OSError:  # the helper died: the parent scores its ants
            self._drop(h - 1)

    def costs(self, sels: list[np.ndarray]) -> list[float]:
        """Every ant's cost in ``sels``, in ant order: the parent scores
        its own ants, then reads the helpers' replies, and scores the
        ants of a helper that has died."""
        k = self.share
        own = [self.cost_of(sel) for sel in sels[len(self.procs) * k :]]
        costs: list[float] = []
        for h, helper in enumerate(self.procs):
            reply = None
            if helper is not None:
                try:
                    reply = _read(helper[2], 8 * k)
                except OSError:
                    pass
                if reply is None:  # the helper died
                    self._drop(h)
            if reply is None:
                costs += [self.cost_of(sel) for sel in sels[h * k : (h + 1) * k]]
            else:
                costs += np.frombuffer(reply).tolist()
        return costs + own

    def _drop(self, h: int) -> None:
        helper, self.procs[h] = self.procs[h], None
        self._reap([helper])

    def close(self) -> None:
        """End every helper: close its pipes, then wait for it."""
        helpers = [h for h in self.procs if h is not None]
        self.procs = [None] * len(self.procs)
        self._reap(helpers)

    @staticmethod
    def _reap(helpers: list[tuple[int, int, int]]) -> None:
        for _, job, reply in helpers:
            os.close(job)
            os.close(reply)
        for pid, _, _ in helpers:
            os.waitpid(pid, 0)
