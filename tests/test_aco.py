import itertools
import json
import os
import signal
import threading
import tracemalloc
import warnings
import weakref
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hit2mtsk import (
    AcoConfig,
    AcoConfigError,
    Dataset,
    GenerationConfig,
    Model,
    TrainConfig,
    generate_candidates,
    predict,
    predict_values,
    select_rules,
    train_model,
)
import hit2mtsk.aco
from hit2mtsk.aco import PHEROMONE_FLOOR, sample_subset
from hit2mtsk.data import split_rows
from hit2mtsk.inference import _feature_rows, compile_rules, rule_matrices, weigh
from hit2mtsk.persist import decode
from hit2mtsk.pipeline import _STREAM_ACO, _STREAM_VALIDATION_SPLIT, derive_seed
from hit2mtsk.rules import Polynomial, RuleUnfittableError, rmse
from hit2mtsk.universe import RuleCells

import oracles
from conftest import candidate_model, make_dataset, small_train_config
from oracles import polynomial_value, trapezoid_membership
from test_inference import bits
from test_universe import OPEN_CONFIG, four_feature_dataset, partitions_for

# ---------------------------------------------------------------------------
# independent scorer: per-rule weights/outputs through the scalar trapezoid
# and polynomial oracles, fused by explicit loops
# ---------------------------------------------------------------------------


def oracle_rule_tables(universe, dataset):
    parts = {p.variable: p for p in universe.feature_partitions}
    n = dataset.n_rows
    W = np.zeros((len(universe.rules), n))
    Y = np.zeros((len(universe.rules), n))
    for i, rule in enumerate(universe.rules):
        for p in range(n):
            f_lo, f_hi = 1.0, 1.0
            for var, set_name in rule.antecedent:
                m_lo, m_hi = trapezoid_membership(
                    parts[var].set_named(set_name), float(dataset.column(var)[p])
                )
                f_lo, f_hi = min(f_lo, m_lo), min(f_hi, m_hi)
            W[i, p] = 0.5 * (f_lo + f_hi) * rule.error_dominance
            if W[i, p] == 0.0:
                continue  # a rule's output counts only where it fires
            raw = polynomial_value(
                rule.consequent_fn,
                {v: float(dataset.column(v)[p]) for v, _ in rule.antecedent},
            )
            lo, hi = rule.clamp_bounds
            Y[i, p] = min(max(raw, lo), hi)
    return W, Y


def oracle_cost(W, Y, y, subset, fallback):
    wsum = W[list(subset)].sum(axis=0)
    psum = (W[list(subset)] * Y[list(subset)]).sum(axis=0)
    pred = np.where(wsum > 0, psum / np.where(wsum > 0, wsum, 1.0), fallback)
    return float(np.sqrt(np.mean((pred - y) ** 2)))


# at x1 = 1e300, x1^2 - x1^3 evaluates to inf - inf = NaN
CUBIC = Polynomial(
    degree=3, variables=("x1",), exponents=((2,), (3,)), coefficients=(1.0, -1.0)
)


def with_cubic_rule(uni, i):
    """``uni`` with rule ``i``'s polynomial replaced by `CUBIC`."""
    rules = list(uni.rules)
    rules[i] = replace(rules[i], consequent_fn=CUBIC)
    return replace(uni, rules=tuple(rules))


def with_huge_row(ds):
    """``ds`` with one more row, x1 = 1e300, appended."""
    return Dataset(
        name="big",
        feature_names=ds.feature_names,
        X=np.vstack([ds.X, [[1e300, 0.0]]]),
        target_name=ds.target_name,
        y=np.append(ds.y, 10.0),
    )


def small_universe(seed=3, n=80, cap=10):
    ds = make_dataset(seed=seed, n=n)
    cfg = GenerationConfig(
        degree=1,
        dominance_threshold=0.0,
        min_rows=4,
        max_candidates=cap,
        min_coverage=0.0,
    )
    return ds, generate_candidates(ds, partitions_for(ds), cfg)[0]


def rows_cells(model, ds, rows):
    """Each rule's `RuleCells` on ``rows`` of ``ds``, numbered within them:
    what generation hands on for a dataset of those rows alone."""
    x = _feature_rows(model.feature_partitions, ds)[:, rows]
    cells = rule_matrices(model.tables, x)
    cuts = np.searchsorted(cells.rule, np.arange(1, len(model.rules)))
    return [RuleCells(*c) for c in zip(*(np.split(a, cuts) for a in cells[1:]))]


def dense_universe(n=300, tnorm="minimum"):
    """Up to 40 rules of one and two clauses over three sets per feature
    (29 on 300 rows), about nine of which fire on each row: most rows add
    many rules, so the order of those additions shows in their sums' bits."""
    ds = make_dataset(seed=7, n=n)
    cfg = GenerationConfig(
        degree=1,
        dominance_threshold=0.0,
        tnorm=tnorm,
        min_rows=4,
        max_candidates=40,
        min_coverage=0.0,
    )
    return ds, generate_candidates(ds, partitions_for(ds), cfg)[0]


class TestExhaustiveOptimality:
    def test_usually_within_five_percent_of_brute_force(self):
        ds, uni = small_universe(cap=10)
        total = len(uni)
        assert 2 <= total <= 10
        W, Y = oracle_rule_tables(uni, ds)
        fallback = float(ds.y.mean())
        best = np.inf
        for size in range(1, total + 1):
            for combo in itertools.combinations(range(total), size):
                best = min(best, oracle_cost(W, Y, ds.y, combo, fallback))
        candidates = candidate_model(uni, ds)
        hits = 0
        for seed in range(20):
            cfg = AcoConfig(
                num_ants=12,
                num_iterations=40,
                subset_size_range=(1, total),
                patience=12,
            )
            subset, _ = select_rules(candidates, ds, cfg, seed=seed)
            # cross-check the reported cost against the oracle scorer
            assert subset.cost == pytest.approx(
                oracle_cost(W, Y, ds.y, subset.indices, fallback), abs=1e-9
            )
            if subset.cost <= best * 1.05 + 1e-12:
                hits += 1
        assert hits >= 19

    def test_single_rule_universe_is_forced(self):
        ds, uni = small_universe(cap=1)
        assert len(uni) == 1
        cfg = AcoConfig(num_ants=3, num_iterations=3, subset_size_range=(1, 5))
        subset, _ = select_rules(candidate_model(uni, ds), ds, cfg)
        assert subset.indices == (0,)
        assert subset.rules == (uni.rules[0],)


class TestSampling:
    def test_draws_are_distinct_and_sorted(self):
        rng = np.random.default_rng(0)
        out = sample_subset(rng, np.ones(10), 10)
        assert np.array_equal(out, np.arange(10))

    def test_size_larger_than_pool_rejected(self):
        with pytest.raises(ValueError):
            sample_subset(np.random.default_rng(0), np.ones(3), 4)

    def test_zero_weights_fall_back_to_uniform(self):
        rng = np.random.default_rng(1)
        out = sample_subset(rng, np.zeros(6), 6)
        assert np.array_equal(out, np.arange(6))

    def test_uniform_weights_give_uniform_selection(self):
        # alpha = beta = 0 reduces the ant weight vector to all-ones;
        # single-index draws must then be uniform
        rng = np.random.default_rng(99)
        k, draws = 8, 10_000
        counts = np.zeros(k)
        for _ in range(draws):
            counts[sample_subset(rng, np.ones(k), 1)[0]] += 1
        p = scipy.stats.chisquare(counts).pvalue
        assert p > 0.01

    @pytest.mark.parametrize(
        "weights",
        [
            [4.0, 0.0, 1.0, 2.0, 0.0],
            [1.0, 0.5, 0.25, 2.0, 0.0],
            [0.0, 3.0, 0.0, 0.0, 0.0],
        ],
        ids=["two-zeros", "one-zero", "one-positive"],
    )
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_subsets_have_the_law_of_successive_choice_calls(self, weights, size):
        # exact subset probabilities of one rng.choice per pick, enumerated
        # over pick orders; sizes past the positive weights draw zeros
        law = oracles.subset_law(weights, size)
        assert sum(law.values()) == pytest.approx(1.0)
        support = sorted(s for s, p in law.items() if p > 0.0)
        w = np.array(weights)
        rng = np.random.default_rng([size, *(4 * w).astype(int)])
        draws = 10_000
        counts = Counter(
            tuple(sample_subset(rng, w, size).tolist()) for _ in range(draws)
        )
        assert set(counts) <= set(support)
        if len(support) > 1:
            observed = [counts[s] for s in support]
            expected = [draws * law[s] for s in support]
            assert scipy.stats.chisquare(observed, expected).pvalue > 1e-3

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e300]),
                st.floats(0.0, 1e6, allow_subnormal=True),
            ),
            min_size=1,
            max_size=12,
        ),
        st.booleans(),
        st.integers(1, 12),
    )
    # log(u) / w is -inf for the subnormal weight, a tie with the zero
    @example(0, [5e-324, 0.0], False, 1)
    @settings(max_examples=200, deadline=None)
    def test_draw_is_distinct_sorted_and_positive_first(
        self, seed, weights, all_zero, size
    ):
        w = np.zeros(len(weights)) if all_zero else np.array(weights)
        size = min(size, w.size)
        out = sample_subset(np.random.default_rng(seed), w, size)
        assert out.size == size
        assert np.all(np.diff(out) > 0)
        if np.any(w[out] == 0.0):
            assert set(np.flatnonzero(w > 0.0).tolist()) <= set(out.tolist())

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_weights_choice_would_reject(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            sample_subset(np.random.default_rng(0), np.array([1.0, bad, 2.0]), 2)

    def test_weight_proportionality(self):
        # one index with 9x the weight of each other should win ~ 9/(9+5)
        rng = np.random.default_rng(5)
        w = np.array([9.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        draws = 20_000
        wins = sum(sample_subset(rng, w, 1)[0] == 0 for _ in range(draws))
        assert wins / draws == pytest.approx(9.0 / 14.0, abs=0.02)


class TestSearchContracts:
    def test_trace_monotone_and_indexed(self):
        ds, uni = small_universe()
        cfg = AcoConfig(
            num_ants=6, num_iterations=30, subset_size_range=(1, len(uni))
        )
        subset, trace = select_rules(candidate_model(uni, ds), ds, cfg, seed=4)
        assert [it for it, _ in trace] == list(range(1, len(trace) + 1))
        costs = [c for _, c in trace]
        assert all(a >= b - 1e-15 for a, b in zip(costs, costs[1:]))
        assert subset.cost == costs[-1]
        assert np.isfinite(subset.cost) and subset.cost >= 0.0

    def test_selection_is_pinned(self):
        # recorded from the sparse scorer and the keyed top-k sampler (one
        # uniform per rule)
        ds, uni = small_universe()
        cfg = AcoConfig(
            num_ants=4, num_iterations=15, subset_size_range=(2, 10), patience=6
        )
        subset, trace = select_rules(candidate_model(uni, ds), ds, cfg, seed=2)
        assert subset.indices == (0, 1, 3, 4, 5, 7, 8)
        assert subset.cost == 1.1740159440491624
        assert trace == (
            (1, 1.3522198607454439),
            *((it, 1.2708131761166492) for it in range(2, 7)),
            *((it, 1.1866861571026293) for it in range(7, 11)),
            *((it, 1.1740159440491624) for it in range(11, 16)),
        )

    @pytest.mark.parametrize(
        "path,row",
        [
            ("select", 80),
            ("select_with_generation_cells", 80),
            ("predict", 0),
            ("predict_values", 80),
        ],
    )
    def test_overflow_where_a_rule_fires_names_the_rule_and_row(self, path, row):
        # rule 4 (x1 is High) fires at x1 = 1e300, where its x1^2 - x1^3
        # is inf - inf = NaN: no subset holding it has a cost, and no model
        # holding it a prediction; selection and prediction refuse it alike
        ds, uni = small_universe(cap=6)
        assert uni.rules[4].antecedent == (("x1", "High"),)
        uni = with_cubic_rule(uni, 4)
        model = Model(uni.feature_partitions, uni.target_partition, uni.rules)
        cfg = AcoConfig(
            num_ants=6, num_iterations=4, subset_size_range=(1, len(uni)), patience=4
        )
        calls = {
            "select": lambda: select_rules(
                candidate_model(uni, ds), with_huge_row(ds), cfg
            ),
            # generation's cells cover the 80 rows of ds; the huge row,
            # fired by selection alone, is named in the dataset's numbering
            "select_with_generation_cells": lambda: select_rules(
                candidate_model(uni, ds),
                with_huge_row(ds),
                cfg,
                generated=(np.arange(80), rows_cells(model, ds, np.arange(80))),
            ),
            "predict": lambda: predict(model, {"x1": 1e300, "x2": 0.0}),
            "predict_values": lambda: predict_values(model, with_huge_row(ds)),
        }
        with pytest.raises(
            RuleUnfittableError,
            match=rf"^rule 4 \(IF x1 is High\) outputs NaN on row {row}, where it "
            "fires: its polynomial overflows there$",
        ):
            calls[path]()

    def test_scoring_dataset_lacking_a_feature_rejected(self):
        ds, uni = small_universe()
        narrow = Dataset("d", ("x1",), ds.X[:, :1], "y", ds.y)
        cfg = AcoConfig(num_ants=1, num_iterations=1, subset_size_range=(1, 1))
        with pytest.raises(ValueError, match="dataset lacks model feature 'x2'"):
            select_rules(candidate_model(uni, ds), narrow, cfg)

    def test_overflow_where_a_rule_does_not_fire_is_not_scored(self):
        # rule 0 (x1 is Medium) does not fire at x1 = 1e300, where its
        # x1^2 - x1^3 is inf - inf = NaN
        ds, uni = small_universe(cap=6)
        assert uni.rules[0].antecedent == (("x1", "Medium"),)
        uni = with_cubic_rule(uni, 0)
        big = with_huge_row(ds)
        cfg = AcoConfig(
            num_ants=6, num_iterations=4, subset_size_range=(1, len(uni)), patience=4
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            subset, trace = select_rules(candidate_model(uni, big), big, cfg, seed=0)
        assert all(np.isfinite(cost) for _, cost in trace)
        W, Y = oracle_rule_tables(uni, big)
        assert subset.cost == pytest.approx(
            oracle_cost(W, Y, big.y, subset.indices, float(big.y.mean())), abs=1e-9
        )

    def test_patience_stops_search(self):
        ds, uni = small_universe()
        patience = 4
        cfg = AcoConfig(
            num_ants=6,
            num_iterations=500,
            subset_size_range=(1, len(uni)),
            patience=patience,
        )
        _, trace = select_rules(candidate_model(uni, ds), ds, cfg, seed=2)
        costs = [c for _, c in trace]
        improvements = [
            i for i in range(1, len(costs)) if costs[i] < costs[i - 1]
        ]
        last = max(improvements, default=0)
        assert len(costs) - 1 - last <= patience
        assert len(trace) < 500

    def test_deterministic_for_fixed_seed(self):
        ds, uni = small_universe()
        cfg = AcoConfig(
            num_ants=5, num_iterations=15, subset_size_range=(1, len(uni))
        )
        a = select_rules(candidate_model(uni, ds), ds, cfg, seed=8)
        b = select_rules(candidate_model(uni, ds), ds, cfg, seed=8)
        assert a[0].indices == b[0].indices
        assert a[0].cost == b[0].cost
        assert a[1] == b[1]

    def test_seed_drives_the_draws(self):
        ds, uni = small_universe()
        cfg = AcoConfig(
            num_ants=3, num_iterations=5, subset_size_range=(1, len(uni)), patience=5
        )
        candidates = candidate_model(uni, ds)
        traces = {select_rules(candidates, ds, cfg, seed=seed)[1] for seed in range(4)}
        assert len(traces) > 1

    def test_size_range_clamped_to_universe(self):
        ds, uni = small_universe(cap=4)
        cfg = AcoConfig(
            num_ants=4, num_iterations=5, subset_size_range=(50, 100)
        )
        subset, _ = select_rules(candidate_model(uni, ds), ds, cfg, seed=1)
        assert len(subset.indices) == len(uni)

    def test_full_evaporation_with_floor_still_runs(self):
        ds, uni = small_universe()
        cfg = AcoConfig(
            num_ants=4,
            num_iterations=8,
            rho=1.0,
            subset_size_range=(1, len(uni)),
        )
        assert PHEROMONE_FLOOR > 0.0
        subset, trace = select_rules(candidate_model(uni, ds), ds, cfg, seed=0)
        assert np.isfinite(subset.cost)
        assert len(trace) >= 1


def recorded_ants(monkeypatch, candidates, ds, cfg, seed):
    """Run `select_rules` and return every ant's subset and the prediction
    it was scored by; the best subset's cost is the least of theirs."""
    sels, preds = [], []

    def recorded_draw(*args):
        sels.append(sample_subset(*args))
        return sels[-1]

    def recorded_cost(pred, y):
        preds.append(pred.copy())
        return rmse(pred, y)

    monkeypatch.setattr(hit2mtsk.aco, "sample_subset", recorded_draw)
    monkeypatch.setattr(hit2mtsk.aco, "rmse", recorded_cost)
    subset, _ = select_rules(candidates, ds, cfg, seed=seed)
    assert len(sels) == len(preds) == cfg.num_ants * cfg.num_iterations
    assert subset.cost == min(rmse(p, ds.y) for p in preds)
    return sels, preds


class TestAntScores:
    """Every ant's prediction is the concatenate-and-`bincount` scorer's,
    bit for bit, so its cost is too."""

    @pytest.mark.parametrize("reduction", ["midpoint", "lower"])
    def test_every_ant_predicts_as_the_reference_scorer(self, monkeypatch, reduction):
        ds, uni = dense_universe()
        cfg = AcoConfig(
            num_ants=10, num_iterations=10, subset_size_range=(2, len(uni)), patience=10
        )
        candidates = candidate_model(uni, ds, reduction)
        sels, preds = recorded_ants(monkeypatch, candidates, ds, cfg, seed=5)
        assert len(sels) == 100

        tables = compile_rules(uni.rules, uni.feature_partitions, uni.config.tnorm)
        cells = rule_matrices(tables, _feature_rows(uni.feature_partitions, ds))
        w, wy = weigh(uni.rules, tables, cells, reduction)
        # the lower reduction has weight-0 cells, of weighted output +0.0
        assert (w <= 0.0).any() == (reduction == "lower")
        cuts = np.searchsorted(cells.rule, np.arange(1, len(uni)))
        per_rule = [np.split(a, cuts) for a in (cells.row, w, wy)]
        fallback = float(ds.y.mean())
        reordered = 0
        for sel, pred in zip(sels, preds):
            want = oracles.subset_prediction(*per_rule, sel, ds.n_rows, fallback)
            assert np.array_equal(bits(pred), bits(want))
            back = oracles.subset_prediction(*per_rule, sel[::-1], ds.n_rows, fallback)
            reordered += not np.array_equal(bits(back), bits(want))
        # most subsets' bits depend on the order each row adds its rules in
        assert reordered > len(sels) // 2


class TestAntsScoreTheSavedModel:
    """Every ant's prediction is that of the model training would save for
    its subset (the candidate model restricted to the ant's rules), bit
    for bit, whatever the model's t-norm, firing reduction and fallback."""

    CFG = AcoConfig(num_ants=6, num_iterations=5, subset_size_range=(1, 8), patience=5)

    def assert_ants_predict_as_their_models(self, monkeypatch, candidates, ds):
        sels, preds = recorded_ants(monkeypatch, candidates, ds, self.CFG, seed=3)
        fell = 0
        for sel, pred in zip(sels, preds):
            pruned = replace(candidates, rules=tuple(candidates.rules[i] for i in sel))
            want, _, fallback = predict_values(pruned, ds)
            assert np.array_equal(bits(pred), bits(want))
            fell += bool(fallback.any())
        return fell

    @pytest.mark.parametrize("tnorm", ["minimum", "product"])
    @pytest.mark.parametrize("reduction", ["midpoint", "lower", "upper"])
    def test_every_ant_predicts_as_its_saved_model(self, monkeypatch, reduction, tnorm):
        ds, uni = dense_universe(tnorm=tnorm)
        candidates = candidate_model(uni, ds, reduction)
        assert candidates.tnorm == tnorm
        self.assert_ants_predict_as_their_models(monkeypatch, candidates, ds)

    def test_rows_no_rule_fires_on_take_the_models_fallback(self, monkeypatch):
        # a fallback that is not the scoring rows' target mean: an ant
        # leaving rows unfired must score them with the model's value
        ds, uni = dense_universe()
        candidates = replace(candidate_model(uni, ds), fallback_value=-7.5)
        assert candidates.fallback_value != float(ds.y.mean())
        fell = self.assert_ants_predict_as_their_models(monkeypatch, candidates, ds)
        assert fell > 0


class TestSelectionPeakMemory:
    def test_search_peaks_no_higher_than_firing_and_weighing(self, monkeypatch):
        # the per-rule complex table is built once the fired cells are
        # freed and the search reuses one row buffer, so no part of
        # selection after `weigh` holds more than its `rule_matrices` and
        # `weigh` step held; building the table while the cells are
        # alive exceeds that by about 10 bytes a cell (2.1 MB here)
        ds, uni = dense_universe(n=20000)
        peaks = []

        def weigh_then_mark(*args):
            out = weigh(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(hit2mtsk.aco, "weigh", weigh_then_mark)
        cfg = AcoConfig(num_ants=2, num_iterations=2)
        tracemalloc.start()
        try:
            select_rules(candidate_model(uni, ds), ds, cfg, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        step, search = peaks
        assert step >= 10 * 2**20  # about 210000 fired cells
        assert search <= step + step // 50


class TestGenerationHandoff:
    """Training's selection reuses generation's cells on the fit rows and
    fires only the validation rows, and selects as standalone selection
    over every row does, bit for bit."""

    @pytest.mark.parametrize("tnorm", ["minimum", "product"])
    def test_generation_cells_are_the_models_cells(self, tnorm):
        # rows, firing bounds and clamped outputs, for full fits and for
        # fits degraded to degree 1 or to a constant
        ds = four_feature_dataset()
        uni, cells = generate_candidates(
            ds, partitions_for(ds, 5), replace(OPEN_CONFIG, degree=3, tnorm=tnorm)
        )
        fns = [r.consequent_fn for r in uni.rules]
        assert {f.degree for f in fns} == {1, 3}
        assert any(not f.variables for f in fns)
        want = rows_cells(candidate_model(uni, ds), ds, np.arange(ds.n_rows))
        assert type(cells) is list and len(cells) == len(uni) == len(want)
        for got, ref in zip(cells, want):
            assert np.array_equal(got.row, ref.row)
            for a, b in zip(got[1:], ref[1:]):
                assert np.array_equal(bits(a), bits(b))

    @pytest.mark.parametrize("fraction", [0.2, 0.0])
    @pytest.mark.parametrize("tnorm", ["minimum", "product"])
    @pytest.mark.parametrize("reduction", ["midpoint", "lower", "upper"])
    def test_training_selects_as_standalone_selection(
        self, monkeypatch, reduction, tnorm, fraction
    ):
        ds = four_feature_dataset()
        base = small_train_config(degree=3)
        config = replace(
            base,
            generation=replace(base.generation, tnorm=tnorm),
            firing_reduction=reduction,
            validation_fraction=fraction,
        )
        fired = []

        def recorded(tables, x):
            fired.append(x)
            return rule_matrices(tables, x)

        monkeypatch.setattr(hit2mtsk.aco, "rule_matrices", recorded)
        result = train_model(ds, config)
        _, val = split_rows(
            ds.n_rows, fraction, derive_seed(config.seed, _STREAM_VALIDATION_SPLIT)
        )
        assert val.size == round(fraction * ds.n_rows)
        x = _feature_rows(result.model.feature_partitions, ds)
        (got,) = fired
        assert np.array_equal(got, x[:, val])  # the validation rows alone

        subset, trace = select_rules(
            candidate_model(result.universe, ds, reduction),
            ds,
            config.aco,
            derive_seed(config.seed, _STREAM_ACO),
        )
        assert subset.rules == result.model.rules
        assert trace == result.trace
        assert subset.cost == result.model.manifest["selection_cost"]

    def test_a_rule_firing_on_validation_rows_alone(self):
        ds, uni = dense_universe()
        model = candidate_model(uni, ds)
        cells = rule_matrices(model.tables, _feature_rows(model.feature_partitions, ds))
        val = np.union1d(cells.row[cells.rule == 0], np.arange(0, ds.n_rows, 5))
        fit = np.setdiff1d(np.arange(ds.n_rows), val)
        generated = rows_cells(model, ds, fit)
        assert generated[0].row.size == 0
        cfg = AcoConfig(num_ants=6, num_iterations=8)
        got = select_rules(model, ds, cfg, 3, (fit, generated))
        assert got == select_rules(model, ds, cfg, 3)
        assert generated == [None] * len(uni)  # each rule's freed once used

    def test_no_generation_cells_are_alive_when_the_search_starts(self, monkeypatch):
        # each rule's cells are freed once its search arrays are built, the
        # last rule's too: no output array of them is alive at the first draw
        refs, alive = [], []

        def generate(*args):
            uni, cells = generate_candidates(*args)
            refs.extend(weakref.ref(c.y) for c in cells)
            return uni, cells

        def draw(*args):
            if not alive:
                alive.append(sum(ref() is not None for ref in refs))
            return sample_subset(*args)

        monkeypatch.setattr("hit2mtsk.pipeline.generate_candidates", generate)
        monkeypatch.setattr(hit2mtsk.aco, "sample_subset", draw)
        train_model(four_feature_dataset(), small_train_config(degree=3))
        assert len(refs) == 125
        assert alive == [0]


def wide_dataset(n=1000):
    """Friedman (1991) #1: 8 features, 5 of them informative."""
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, (n, 8))
    y = (
        10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20.0 * (X[:, 2] - 0.5) ** 2
        + 10.0 * X[:, 3]
        + 5.0 * X[:, 4]
        + rng.normal(0.0, 1.0, n)
    )
    return Dataset("wide", tuple(f"x{j + 1}" for j in range(8)), X, "y", y)


class TestTrainingPeakMemory:
    def test_training_peaks_below_firing_the_whole_fold(self):
        # about 1600 candidates fire on 175000 cells of 1000 rows: training
        # peaks in generation or in firing the validation rows beside
        # generation's cells (0.92 times this step's peak), not in a table
        # of every cell of the fold (which puts it at 1.26 times)
        ds = wide_dataset()
        config = TrainConfig(aco=AcoConfig(num_ants=2, num_iterations=1))
        tracemalloc.start()
        try:
            result = train_model(ds, config)
            train_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        model = candidate_model(result.universe, ds)
        x = _feature_rows(model.feature_partitions, ds)
        tables = model.tables
        tracemalloc.start()
        try:
            cells = rule_matrices(tables, x)
            weigh(model.rules, tables, cells, model.firing_reduction)
            fold_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cells.rule.size >= 150_000
        assert train_peak < fold_peak


def forced_helpers(monkeypatch):
    """Make `select_rules` fork its helper on 2 usable cores whatever its
    work, and return the list the helper's pid is recorded into."""
    monkeypatch.setattr(hit2mtsk.aco, "HELPER_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids = []
    fork = os.fork

    def recorded_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    return pids


def searched(monkeypatch, model, ds, cfg, seed, on_draw=None):
    """`select_rules`' subset and trace, the weights every draw was given
    and the predictions of the ants this process scored, in the order it
    scored them; ``on_draw(draw number)`` runs before each draw."""
    weights, scored = [], []

    def recorded_draw(rng, w, size):
        if on_draw is not None:
            on_draw(len(weights))
        weights.append(w.copy())
        return sample_subset(rng, w, size)

    def recorded_cost(pred, y):
        scored.append(pred.copy())
        return rmse(pred, y)

    with monkeypatch.context() as m:
        m.setattr(hit2mtsk.aco, "sample_subset", recorded_draw)
        m.setattr(hit2mtsk.aco, "rmse", recorded_cost)
        subset, trace = select_rules(model, ds, cfg, seed)
    return subset, trace, weights, scored


def assert_same_search(got, want):
    """Equal subsets, and bitwise equal costs, traces and draw weights."""
    (subset, trace, weights, _), (ref, ref_trace, ref_weights, _) = got, want
    assert subset.indices == ref.indices and subset.rules == ref.rules
    assert bits(subset.cost) == bits(ref.cost)
    assert [it for it, _ in trace] == [it for it, _ in ref_trace]
    assert np.array_equal(bits([c for _, c in trace]), bits([c for _, c in ref_trace]))
    assert len(weights) == len(ref_weights)
    for a, b in zip(weights, ref_weights):
        assert np.array_equal(bits(a), bits(b))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestHelperProcesses:
    """Ants scored on a forked helper process give the serial search bit
    for bit: every draw's weights (which carry every earlier ant's cost
    through the pheromone), the subset, its cost and the trace; and no
    helper outlives the search."""

    CFG = AcoConfig(num_ants=9, num_iterations=6, subset_size_range=(2, 20), patience=6)
    ANTS = CFG.num_ants * CFG.num_iterations
    # the ants this process scores when the helper lives: the last
    # num_ants - num_ants // 2 of each iteration
    OWN = (CFG.num_ants - CFG.num_ants // 2) * CFG.num_iterations

    @pytest.mark.parametrize("tnorm", ["minimum", "product"])
    @pytest.mark.parametrize("reduction", ["midpoint", "lower"])
    def test_a_helper_searches_as_this_process_alone(self, monkeypatch, reduction, tnorm):
        ds, uni = dense_universe(tnorm=tnorm)
        model = candidate_model(uni, ds, reduction)
        serial = searched(monkeypatch, model, ds, self.CFG, 4)
        assert len(serial[3]) == self.ANTS
        pids = forced_helpers(monkeypatch)
        got = searched(monkeypatch, model, ds, self.CFG, 4)
        assert len(pids) == 1
        assert len(got[3]) == self.OWN  # the helper scored the other ants
        assert_same_search(got, serial)
        assert_no_child_left()

    def test_a_helper_with_uneven_subsets(self, monkeypatch):
        # subsets of 1 to all 29 rules, so one ant can hold many times
        # another's cells
        cfg = replace(self.CFG, subset_size_range=(1, 40))
        ds, uni = dense_universe()
        model = candidate_model(uni, ds)
        serial = searched(monkeypatch, model, ds, cfg, 4)
        pids = forced_helpers(monkeypatch)
        got = searched(monkeypatch, model, ds, cfg, 4)
        assert len(pids) == 1
        assert len(got[3]) == self.OWN
        assert_same_search(got, serial)
        assert_no_child_left()

    def test_eight_cores_fork_one_helper_for_the_first_half_of_the_ants(
        self, monkeypatch
    ):
        ds, uni = dense_universe()
        model = candidate_model(uni, ds)
        serial = searched(monkeypatch, model, ds, self.CFG, 4)
        pids = forced_helpers(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        got = searched(monkeypatch, model, ds, self.CFG, 4)
        assert len(pids) == 1
        # this process scored the ants past the first num_ants // 2 of each
        # iteration, in order
        n, k = self.CFG.num_ants, self.CFG.num_ants // 2
        own = [p for it in range(0, self.ANTS, n) for p in serial[3][it + k : it + n]]
        assert len(got[3]) == len(own)
        for a, b in zip(got[3], own):
            assert np.array_equal(bits(a), bits(b))
        assert_same_search(got, serial)
        assert_no_child_left()

    def test_training_with_a_helper_saves_the_same_model(self, monkeypatch):
        # selection on generation's cells and the validation rows
        ds = four_feature_dataset()
        config = small_train_config(degree=3)
        serial = train_model(ds, config)
        pids = forced_helpers(monkeypatch)
        got = train_model(ds, config)
        assert len(pids) == 1
        assert got.model == serial.model and got.trace == serial.trace
        assert_no_child_left()

    def test_no_helper_outlives_an_error_in_the_search(self, monkeypatch):
        ds, uni = dense_universe()

        def fail_in_iteration_3(draw):
            # mid-iteration, with the helper's share handed out
            if draw == 2 * self.CFG.num_ants + 6:
                raise RuntimeError("draw failed")

        pids = forced_helpers(monkeypatch)
        with pytest.raises(RuntimeError, match="draw failed"):
            searched(
                monkeypatch, candidate_model(uni, ds), ds, self.CFG, 4, fail_in_iteration_3
            )
        assert len(pids) == 1
        assert_no_child_left()

    @pytest.mark.parametrize(
        "kill_at",
        # mid-iteration 2, holding ants, so the reply read fails; or at the
        # start of iteration 4, so the next send fails
        [CFG.num_ants + 5, 3 * CFG.num_ants],
        ids=["holding-ants", "before-a-send"],
    )
    def test_a_killed_helper_leaves_the_search_unchanged(self, monkeypatch, kill_at):
        ds, uni = dense_universe()
        model = candidate_model(uni, ds)
        serial = searched(monkeypatch, model, ds, self.CFG, 4)
        pids = forced_helpers(monkeypatch)

        def kill_helper(draw):
            if draw == kill_at:
                os.kill(pids[0], signal.SIGKILL)
                # dead, its end of the connection closed, but not reaped
                os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)

        got = searched(monkeypatch, model, ds, self.CFG, 4, kill_helper)
        assert len(pids) == 1
        assert_same_search(got, serial)
        assert len(got[3]) < self.ANTS  # the helper did score until it died
        assert_no_child_left()

    def test_a_refused_fork_leaves_the_search_unchanged(self, monkeypatch):
        ds, uni = dense_universe()
        model = candidate_model(uni, ds)
        serial = searched(monkeypatch, model, ds, self.CFG, 4)
        forced_helpers(monkeypatch)

        def refused():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", refused)
        got = searched(monkeypatch, model, ds, self.CFG, 4)
        assert_same_search(got, serial)
        assert len(got[3]) == self.ANTS

    def test_forking_beside_a_live_thread_warns_nothing(self, monkeypatch):
        # Python 3.12+ warns when a multi-threaded process forks
        ds, uni = dense_universe()
        model = candidate_model(uni, ds)
        serial = searched(monkeypatch, model, ds, self.CFG, 4)
        pids = forced_helpers(monkeypatch)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = searched(monkeypatch, model, ds, self.CFG, 4)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(pids) == 1
        assert_same_search(got, serial)
        assert_no_child_left()

    @pytest.mark.parametrize(
        "case", ["work below HELPER_WORK", "one usable core", "one ant", "no affinity"]
    )
    def test_a_small_search_forks_nothing(self, monkeypatch, case):
        # every case but the first would fork on its work
        ds, uni = dense_universe(n=2000)
        model = candidate_model(uni, ds)
        cfg = replace(self.CFG, num_ants=1) if case == "one ant" else self.CFG
        cores = 1 if case == "one usable core" else 8
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        if case == "no affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        if case != "work below HELPER_WORK":
            monkeypatch.setattr(hit2mtsk.aco, "HELPER_WORK", 0)
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1))
        _, _, _, scored = searched(monkeypatch, model, ds, cfg, 4)
        assert forks == [] and len(scored) == cfg.num_ants * cfg.num_iterations


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_ants": 0},
            {"num_iterations": 0},
            {"alpha": -0.5},
            {"beta": -1.0},
            {"rho": 0.0},
            {"rho": 1.5},
            {"deposit": 0.0},
            {"initial_pheromone": 0.0},
            {"subset_size_range": (0, 5)},
            {"subset_size_range": (6, 5)},
            {"patience": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(AcoConfigError):
            AcoConfig(**kwargs)

    def test_aco_config_error_is_value_error(self):
        assert issubclass(AcoConfigError, ValueError)

    def test_dict_roundtrip(self):
        cfg = AcoConfig(num_ants=7, subset_size_range=(2, 9))
        assert decode(AcoConfig, json.loads(json.dumps(asdict(cfg)))) == cfg
