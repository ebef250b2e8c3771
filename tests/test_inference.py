import hashlib
import json
import tracemalloc
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hit2mtsk.inference
from hit2mtsk import (
    Dataset,
    HybridRule,
    Model,
    NotTrainedError,
    Polynomial,
    build_partition,
    load_model,
    predict,
    save_model,
    select_rules,
)
from hit2mtsk.evaluate import derive_mamdani, explainability_block
from hit2mtsk.inference import (
    FIRING_REDUCTIONS,
    FiredCells,
    _feature_rows,
    _weigh,
    compile_rules,
    predict_values,
    reduce_firing,
    rule_matrices,
    weigh,
    weighted_mean,
)
from hit2mtsk.it2 import TNORMS, IT2Set, Partition, fire, stacked_memberships
from hit2mtsk.persist import dumps
from hit2mtsk.rules import RuleUnfittableError, monomial_exponents, rmse

import oracles

FIXTURES = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures"


def shoulder(name, shape, params, support=None):
    return IT2Set(
        name=name,
        shape=shape,
        upper_params=params,
        lower_params=params,
        fou_scale=1.0,
        support=support,
    )


def constant(value):
    return Polynomial(degree=1, variables=(), exponents=((),), coefficients=(value,))


# one feature, two overlapping shoulder sets with degenerate FOU so every
# membership value below is exact
X_PART = Partition(
    variable="x",
    sets=(
        shoulder("Low", "left_shoulder", (-1.0, -1.0, 4.0, 8.0)),
        shoulder("High", "right_shoulder", (2.0, 6.0, 11.0, 11.0)),
    ),
    domain=(-1.0, 11.0),
)
Y_PART = Partition(
    variable="y",
    sets=(
        shoulder("Small", "left_shoulder", (0.0, 0.0, 12.0, 18.0)),
        shoulder("Big", "right_shoulder", (12.0, 18.0, 30.0, 30.0)),
    ),
    domain=(0.0, 30.0),
)

RULE_LOW = HybridRule(
    antecedent=(("x", "Low"),),
    consequent_set="Small",
    consequent_fn=constant(10.0),
    clamp_bounds=(0.0, 30.0),
    fuzzy_dominance=(0.5, 0.5),
    error_dominance=1.0,
)
RULE_HIGH = HybridRule(
    antecedent=(("x", "High"),),
    consequent_set="Big",
    consequent_fn=constant(20.0),
    clamp_bounds=(0.0, 30.0),
    fuzzy_dominance=(0.5, 0.5),
    error_dominance=0.5,
)

# at the finite input 1e300, x^2 - x^3 evaluates to inf - inf = NaN
CUBIC = Polynomial(
    degree=3, variables=("x",), exponents=((2,), (3,)), coefficients=(1.0, -1.0)
)


def two_rule_model(**overrides):
    kwargs = dict(
        feature_partitions=(X_PART,),
        target_partition=Y_PART,
        rules=(RULE_LOW, RULE_HIGH),
        fallback_value=99.0,
    )
    kwargs.update(overrides)
    return Model(**kwargs)


class TestHandWorkedPredictions:
    def test_weighted_mean_of_two_rules(self):
        # at x=6: Low fires 0.5 (ramp 8->4), High fires 1.0 (plateau);
        # weights 0.5*1.0 and 1.0*0.5 balance -> mean of 10 and 20
        p = predict(two_rule_model(), {"x": 6.0})
        assert p.value == pytest.approx(15.0)
        assert not p.fallback_used
        assert len(p.fired_rules) == 2
        by_index = {f.index: f for f in p.fired_rules}
        assert by_index[0].firing == (0.5, 0.5)
        assert by_index[0].weight == pytest.approx(0.5)
        assert by_index[1].firing == (1.0, 1.0)
        assert by_index[1].weight == pytest.approx(0.5)
        assert by_index[0].output == 10.0
        assert by_index[1].output == 20.0

    def test_single_fired_rule_is_exact(self):
        p = predict(two_rule_model(), {"x": 0.0})
        assert p.value == 10.0
        assert [f.index for f in p.fired_rules] == [0]

    def test_non_firing_rule_is_a_no_op(self):
        lone = two_rule_model(rules=(RULE_LOW,))
        both = two_rule_model()
        assert predict(lone, {"x": 0.0}).value == predict(both, {"x": 0.0}).value

    def test_fallback_is_flagged(self):
        lone = two_rule_model(rules=(RULE_LOW,))
        p = predict(lone, {"x": 9.0})  # beyond Low's foot at 8
        assert p.fallback_used
        assert p.value == 99.0
        assert p.fired_rules == ()

    def test_batch_matches_single(self):
        model = two_rule_model()
        xs = np.array([0.0, 3.0, 6.0, 7.5, 10.0])
        values, fired_counts, fallback = predict_values(model, {"x": xs})
        for i, x in enumerate(xs):
            single = predict(model, {"x": float(x)})
            assert values[i] == pytest.approx(single.value)
            assert fired_counts[i] == len(single.fired_rules)
            assert bool(fallback[i]) == single.fallback_used

    def test_fired_counts_and_fallback_rate(self):
        lone = two_rule_model(rules=(RULE_LOW,))
        _, fired_counts, fallback = predict_values(
            lone, {"x": np.array([0.0, 6.0, 9.0, 10.0])}
        )
        assert list(fired_counts) == [1, 1, 0, 0]
        assert list(fallback) == [False, False, True, True]


class TestWeightingSemantics:
    def test_upper_and_lower_reductions_bracket_midpoint(self):
        F_lo = np.array([[0.2, 0.0]])
        F_hi = np.array([[0.6, 0.4]])
        lo = reduce_firing(F_lo, F_hi, "lower")
        mid = reduce_firing(F_lo, F_hi, "midpoint")
        hi = reduce_firing(F_lo, F_hi, "upper")
        assert np.all(lo <= mid) and np.all(mid <= hi)
        np.testing.assert_allclose(mid, [[0.4, 0.2]])
        with pytest.raises(ValueError):
            reduce_firing(F_lo, F_hi, "median")

    def test_error_dominance_scales_cancel(self):
        base = two_rule_model()
        scaled = two_rule_model(
            rules=tuple(
                replace(r, error_dominance=r.error_dominance * 0.25)
                for r in base.rules
            )
        )
        xs = {"x": np.linspace(0.0, 8.0, 33)}
        np.testing.assert_allclose(
            predict_values(base, xs)[0], predict_values(scaled, xs)[0], atol=1e-12
        )

    def test_dominance_shifts_the_blend(self):
        favored = two_rule_model(
            rules=(RULE_LOW, replace(RULE_HIGH, error_dominance=1.0))
        )
        # doubling High's reliability doubles its weight at x=6
        p = predict(favored, {"x": 6.0})
        assert p.value == pytest.approx((0.5 * 10 + 1.0 * 20) / 1.5)

    def test_prediction_inside_fired_output_hull(self, trained, toy_dataset):
        model = trained.model
        for row in toy_dataset.X:
            pred = predict(model, dict(zip(toy_dataset.feature_names, row)))
            if pred.fallback_used:
                continue
            outs = [f.output for f in pred.fired_rules]
            assert min(outs) - 1e-9 <= pred.value <= max(outs) + 1e-9


class TestBatchScoring:
    def test_rmse_zero_for_perfect_targets(self):
        lone = two_rule_model(rules=(RULE_LOW,))
        values, _, _ = predict_values(lone, {"x": np.array([0.0, 1.0, 2.0])})
        assert rmse(values, np.full(3, 10.0)) == 0.0

    def test_rmse_matches_hand_value(self):
        lone = two_rule_model(rules=(RULE_LOW,))
        values, _, _ = predict_values(lone, {"x": np.zeros(4)})
        assert rmse(values, np.full(4, 13.0)) == pytest.approx(3.0)

    def test_dataset_input_scored_against_its_targets(self):
        lone = two_rule_model(rules=(RULE_LOW,))
        ds = Dataset(
            "d", ("x",), np.array([[0.0], [1.0]]), "y", np.array([10.0, 10.0])
        )
        values, _, _ = predict_values(lone, ds)
        assert np.array_equal(values, predict_values(lone, {"x": ds.X[:, 0]})[0])
        assert rmse(values, ds.y) == 0.0


class TestOnePredictionPath:
    def test_predict_is_one_row_of_predict_values(self, trained, toy_dataset):
        model = trained.model
        batch, _, _ = predict_values(model, toy_dataset)
        for i in range(toy_dataset.n_rows):
            x = dict(zip(toy_dataset.feature_names, map(float, toy_dataset.X[i])))
            values, _, fallback = predict_values(
                model, {k: np.array([v]) for k, v in x.items()}
            )
            p = predict(model, x)
            assert p.value == values[0] == batch[i]
            assert p.fallback_used == fallback[0]

    def test_predict_itemizes_its_row_of_predict_values(self, trained, toy_dataset):
        values, fired_counts, _ = predict_values(trained.model, toy_dataset)
        for i, row in enumerate(toy_dataset.X):
            p = predict(trained.model, dict(zip(toy_dataset.feature_names, row)))
            assert p.value == values[i]
            assert len(p.fired_rules) == fired_counts[i]
            indices = [f.index for f in p.fired_rules]
            assert indices == sorted(set(indices))


class TestValidation:
    def test_empty_model_raises(self):
        empty = two_rule_model(rules=())
        with pytest.raises(NotTrainedError):
            predict(empty, {"x": 1.0})
        with pytest.raises(NotTrainedError):
            predict_values(empty, {"x": np.zeros(2)})
        rows = Dataset("d", ("x",), np.zeros((2, 1)), "y", np.ones(2))
        with pytest.raises(NotTrainedError):
            derive_mamdani(empty, rows)
        with pytest.raises(NotTrainedError):
            select_rules(empty, rows)

    def test_missing_feature_rejected(self):
        with pytest.raises(ValueError, match="lacks model feature"):
            predict(two_rule_model(), {"z": 1.0})
        with pytest.raises(ValueError, match="lacks model feature"):
            predict_values(two_rule_model(), {"z": np.zeros(2)})

    def test_dataset_lacking_a_feature_rejected(self):
        ds = Dataset("d", ("z",), np.zeros((2, 1)), "y", np.zeros(2))
        with pytest.raises(ValueError, match="dataset lacks model feature 'x'"):
            predict_values(two_rule_model(), ds)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            predict(two_rule_model(), {"x": float("nan")})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("path", ["predict", "predict_values"])
    def test_non_finite_input_rejected_on_every_path(self, path, bad):
        model = two_rule_model()
        with pytest.raises(ValueError, match="non-finite"):
            if path == "predict":
                predict(model, {"x": bad})
            else:
                predict_values(model, {"x": np.array([1.0, bad, 3.0])})

    @pytest.mark.parametrize("path", ["predict", "predict_values"])
    def test_overflowing_polynomial_rejected_on_every_path(self, path):
        model = two_rule_model(
            rules=(RULE_LOW, replace(RULE_HIGH, consequent_fn=CUBIC))
        )
        row = 0 if path == "predict" else 1
        raises = pytest.raises(
            RuleUnfittableError,
            match=rf"^rule 1 \(IF x is High\) outputs NaN on row {row}, where it fires",
        )
        with raises, np.errstate(all="ignore"):
            if path == "predict":
                predict(model, {"x": 1e300})
            else:
                predict_values(model, {"x": np.array([1.0, 1e300, 3.0])})

    @pytest.mark.parametrize("path", ["predict", "predict_values"])
    def test_overflowing_rule_that_does_not_fire_is_ignored(self, path):
        # at x = 1e300 only High fires; Low's x^2 - x^3 is NaN there but
        # has weight 0, so the prediction is High's 20
        model = two_rule_model(
            rules=(replace(RULE_LOW, consequent_fn=CUBIC), RULE_HIGH)
        )
        if path == "predict":
            value = predict(model, {"x": 1e300}).value
        else:
            value = predict_values(model, {"x": np.array([1e300])})[0][0]
        assert value == 20.0

    def test_overflow_is_not_warned_about(self):
        masked = two_rule_model(
            rules=(replace(RULE_LOW, consequent_fn=CUBIC), RULE_HIGH)
        )
        fired = two_rule_model(
            rules=(RULE_LOW, replace(RULE_HIGH, consequent_fn=CUBIC))
        )
        rows = {"x": np.array([1.0, 1e300])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert predict_values(masked, rows)[0][1] == 20.0
            with pytest.raises(RuleUnfittableError, match="outputs NaN on row 1,"):
                predict_values(fired, rows)

    @pytest.mark.parametrize(
        "rule",
        [
            replace(RULE_LOW, antecedent=(("x", "Medium"),)),
            replace(RULE_LOW, antecedent=(("z", "Low"),)),
            replace(RULE_HIGH, consequent_set="Huge"),
        ],
        ids=["antecedent-set", "antecedent-variable", "consequent-set"],
    )
    def test_model_rejects_rules_naming_missing_sets(self, rule):
        with pytest.raises(ValueError, match="names no set"):
            two_rule_model(rules=(RULE_LOW, rule))

    def test_two_dimensional_column_rejected(self):
        model = load_model(FIXTURES / "serve_model.json")
        rows = {v: np.ones((5, 1)) for v in model.feature_names}
        name = model.feature_names[0]
        with pytest.raises(ValueError, match=f"^input for '{name}' is not one-dimens"):
            predict_values(model, rows)

    def test_inconsistent_column_lengths(self):
        part2 = Partition(
            variable="z",
            sets=(
                shoulder("Low", "left_shoulder", (-1.0, -1.0, 4.0, 8.0)),
                shoulder("High", "right_shoulder", (2.0, 6.0, 11.0, 11.0)),
            ),
            domain=(-1.0, 11.0),
        )
        model = two_rule_model(feature_partitions=(X_PART, part2))
        with pytest.raises(ValueError, match="inconsistent"):
            predict_values(model, {"x": np.zeros(3), "z": np.zeros(2)})

    def test_model_config_validation(self):
        with pytest.raises(ValueError, match="t-norm"):
            two_rule_model(tnorm="bad")
        with pytest.raises(ValueError, match="firing reduction"):
            two_rule_model(firing_reduction="bad")
        with pytest.raises(ValueError, match="finite"):
            two_rule_model(fallback_value=float("inf"))

    @pytest.mark.parametrize(
        "stats",
        [
            (("x", 0.0, 1.0),),
            (("x", 0.0, 1.0), ("w", 0.0, 1.0)),
            (("x", 0.0, 1.0), ("z", 0.0, 1.0), ("x", 0.0, 1.0)),
        ],
        ids=["short", "unknown-name", "duplicate-name"],
    )
    def test_model_rejects_feature_stats_not_naming_each_feature(self, stats):
        parts = (X_PART, replace(X_PART, variable="z"))
        with pytest.raises(ValueError, match="feature_stats"):
            two_rule_model(feature_partitions=parts, feature_stats=stats)

    def test_model_takes_full_or_empty_feature_stats(self):
        parts = (X_PART, replace(X_PART, variable="z"))
        full = (("z", 0.0, 1.0), ("x", 0.0, 1.0))
        assert two_rule_model(feature_partitions=parts, feature_stats=full)
        assert two_rule_model(feature_partitions=parts, feature_stats=())

    def test_feature_name_helpers(self):
        model = two_rule_model()
        assert model.feature_names == ("x",)


class TestTrainedModelSanity:
    def test_training_fits_the_surface(self, trained, toy_dataset):
        values, _, fallback = predict_values(trained.model, toy_dataset)
        # noise floor is 0.3; a sane fit lands near it
        assert rmse(values, toy_dataset.y) < 0.9
        assert fallback.mean() <= 0.05

    def test_trained_prediction_tracks_target(self, trained):
        # y = 2 + 1.5 x1 - 0.8 x2 + 0.05 x1 x2 at (5, 0) -> 9.5
        p = predict(trained.model, {"x1": 5.0, "x2": 0.0})
        assert p.value == pytest.approx(9.5, abs=0.5)

    def test_deterministic_batches(self, trained, toy_dataset):
        a, _, _ = predict_values(trained.model, toy_dataset)
        b, _, _ = predict_values(trained.model, toy_dataset)
        assert np.array_equal(a, b)


def bits(a):
    """The float64 bit patterns of ``a``: equal only if bitwise equal."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


FEATURES = ("a", "b", "c")


def random_model(rng, tnorm="minimum", reduction="midpoint"):
    """One to eight rules over three random partitions.

    Rules have one to three clauses in random order and a constant or a
    dense degree 1-3 polynomial over some of their variables.  No rule
    has only right-shoulder clauses, so `hole_row` fires no rule.
    """
    parts = tuple(
        build_partition(rng.normal(0.0, 5.0, 40), int(rng.integers(2, 6)), variable=v)
        for v in FEATURES
    )
    target = build_partition(rng.normal(0.0, 5.0, 40), 3, variable="y")
    rules = []
    for _ in range(int(rng.integers(1, 9))):
        chosen = rng.permutation(3)[: int(rng.integers(1, 4))]
        picks = [int(rng.integers(len(parts[j]))) for j in chosen]
        if all(k == len(parts[j]) - 1 for j, k in zip(chosen, picks)):
            picks[0] = int(rng.integers(len(parts[chosen[0]]) - 1))
        antecedent = tuple(
            (FEATURES[j], parts[j].sets[k].name) for j, k in zip(chosen, picks)
        )
        degree = int(rng.integers(0, 4))
        if degree == 0:
            fn = constant(float(rng.normal(0.0, 10.0)))
        else:
            used = [v for v, _ in antecedent][: int(rng.integers(1, len(chosen) + 1))]
            exps = monomial_exponents(len(used), degree)
            coefs = tuple(float(c) for c in rng.normal(0.0, 3.0, len(exps)))
            fn = Polynomial(degree, tuple(used), exps, coefs)
        lo, hi = sorted(float(v) for v in rng.normal(0.0, 20.0, 2))
        rules.append(
            HybridRule(
                antecedent=antecedent,
                consequent_set=target.sets[int(rng.integers(3))].name,
                consequent_fn=fn,
                clamp_bounds=(lo, hi),
                error_dominance=float(rng.uniform(0.05, 1.0)),
            )
        )
    return Model(
        feature_partitions=parts,
        target_partition=target,
        rules=tuple(rules),
        tnorm=tnorm,
        firing_reduction=reduction,
        fallback_value=float(rng.normal(0.0, 10.0)),
    )


def hole_row(model):
    """Far right of every domain: only right shoulders fire there."""
    return {
        p.variable: p.domain[1] + 100.0 * (p.domain[1] - p.domain[0])
        for p in model.feature_partitions
    }


def random_rows(rng, model, n):
    """``n`` rows around the domains, a tenth far off them, and the first
    row (when n > 1) the hole row that no rule fires on."""
    cols = {}
    for p in model.feature_partitions:
        lo, hi = p.domain
        col = rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), n)
        far = rng.random(n) < 0.1
        col[far] = rng.choice([-1.0, 1.0], far.sum()) * (abs(lo) + abs(hi)) * 50.0
        cols[p.variable] = col
    if n > 1:
        for v, x in hole_row(model).items():
            cols[v][0] = x
    return cols


def densify(cells, m, n):
    """(F_lo, F_hi, Y) as (rules x rows) matrices: the cells where rules
    fire, 0.0 everywhere else."""
    F = np.zeros((3, m, n))
    for k, a in enumerate((cells.lo, cells.hi, cells.y)):
        F[k, cells.rule, cells.row] = a
    return F


class TestRuleMatricesAgainstPerRuleLoop:
    """The stacked, fired-cells kernel against the per-rule loop it replaced."""

    @pytest.mark.parametrize("cells", [None, 1000, 1])
    @pytest.mark.parametrize("n", [1, 500])
    @pytest.mark.parametrize("tnorm", TNORMS)
    @pytest.mark.parametrize("seed", range(12))
    def test_bitwise_equal_where_it_counts(
        self, seed, tnorm, n, cells, monkeypatch
    ):
        if cells is not None:  # many row chunks and polynomial blocks
            monkeypatch.setattr(hit2mtsk.inference, "BLOCK_CELLS", cells)
        rng = np.random.default_rng(seed)
        model = random_model(rng, tnorm)
        cols = random_rows(rng, model, n)
        args = (model.rules, model.feature_partitions)
        x = np.array([cols[v] for v in model.feature_names])
        cells = rule_matrices(compile_rules(*args, tnorm), x)
        want_lo, want_hi, want_y = oracles.rule_matrices(*args, cols, tnorm)
        fired = want_hi > 0.0
        # exactly the fired cells, rule by rule, rows ascending
        assert np.array_equal(cells.rule * n + cells.row, np.flatnonzero(fired))
        F_lo, F_hi, Y = densify(cells, len(model.rules), n)
        assert np.array_equal(bits(F_lo), bits(want_lo))
        assert np.array_equal(bits(F_hi), bits(want_hi))
        assert np.array_equal(bits(Y[fired]), bits(want_y[fired]))
        assert np.array_equal(bits(Y[~fired]), bits(np.zeros(np.count_nonzero(~fired))))
        if n > 1:
            assert not fired[:, 0].any()

    def test_no_rows_give_no_cells(self):
        model = random_model(np.random.default_rng(0))
        x = np.empty((len(model.feature_names), 0))
        for a in rule_matrices(model.tables, x):
            assert a.shape == (0,)

    def test_random_models_cover_every_rule_shape(self):
        shapes = set()
        for seed in range(12):
            for r in random_model(np.random.default_rng(seed)).rules:
                fn = r.consequent_fn
                shapes.add((len(r.antecedent), fn.degree if fn.variables else 0))
        assert {c for c, _ in shapes} == {1, 2, 3}
        assert {d for _, d in shapes} == {0, 1, 2, 3}

    def test_overflow_only_where_a_rule_does_not_fire_is_not_evaluated(self):
        model = two_rule_model(
            rules=(replace(RULE_LOW, consequent_fn=CUBIC), RULE_HIGH)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = rule_matrices(model.tables, np.array([[1e300]]))
        _, F_hi, Y = densify(cells, 2, 1)
        assert F_hi[0, 0] == 0.0 and Y[0, 0] == 0.0
        assert Y[1, 0] == 20.0
        assert cells.rule.tolist() == [1]


    def test_overflow_where_a_rule_fires_is_nan_not_a_warning(self):
        # `weigh` refuses the NaN; firing alone neither warns nor masks it
        model = two_rule_model(
            rules=(RULE_LOW, replace(RULE_HIGH, consequent_fn=CUBIC))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = rule_matrices(model.tables, np.array([[1e300]]))
        assert cells.rule.tolist() == [1]
        assert np.isnan(cells.y[0])


class TestRuleMatricesPeakMemory:
    def test_many_chunks_hold_each_cell_about_once(self, monkeypatch):
        # a small block keeps every chunk's temporaries small, so the cells
        # themselves set the peak: pieces, result, and no third copy
        monkeypatch.setattr(hit2mtsk.inference, "BLOCK_CELLS", 8192)
        model = load_model(FIXTURES / "serve_model.json")
        rng = np.random.default_rng(0)
        x = np.array([rng.uniform(*p.domain, 20000) for p in model.feature_partitions])
        tables = model.tables
        tracemalloc.start()
        try:
            cells = rule_matrices(tables, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        step = 8192 // max(len(model.rules), tables.feature.size)
        assert x.shape[1] / step >= 20 and cells.rule.size >= 10**5
        assert peak <= 1.75 * sum(a.nbytes for a in cells)


def traced_peak(fn, *args):
    """The `tracemalloc` peak of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPredictPeakMemory:
    @staticmethod
    def serve_rows():
        """The serve bundle, 50000 rows across its domains, and the bytes
        of every cell one whole pass over them fires."""
        model = load_model(FIXTURES / "serve_model.json")
        rng = np.random.default_rng(0)
        cols = {p.variable: rng.uniform(*p.domain, 50000) for p in model.feature_partitions}
        x = np.array([cols[v] for v in model.feature_names])
        return model, cols, sum(a.nbytes for a in rule_matrices(model.tables, x))

    def test_large_blocks_gather_one_term_of_coefficients_at_a_time(self):
        # at the default BLOCK_CELLS, a block gathering a whole (terms,
        # cells) coefficient table peaked at 2.47x the fired cells' bytes
        # (39.5 MB); one term at a time, 1.85x (29.5 MB).  `predict_values`
        # builds no such block, so one whole pass is measured
        model, cols, cell_bytes = self.serve_rows()
        peak = traced_peak(
            lambda: _weigh(model, _feature_rows(model.feature_partitions, cols))
        )
        assert cell_bytes >= 10**7  # blocks of BLOCK_CELLS, past TABLE_CELLS
        assert peak <= 2.1 * cell_bytes

    def test_batch_holds_one_row_block_of_cells_at_a_time(self):
        # one block at a time peaked at 0.39x the whole pass's cell bytes
        # (6.3 MB, most of it the checked feature table and the outputs);
        # one whole pass, holding every cell of the batch, at 1.88x
        model, cols, cell_bytes = self.serve_rows()
        assert traced_peak(predict_values, model, cols) <= 0.5 * cell_bytes


class TestBlockedPredictValues:
    """`predict_values` weighs one `rule_matrices` chunk of rows at a
    time; every row comes out as one whole `_weigh` pass gives it."""

    @staticmethod
    def whole_pass(model, cols):
        w = _weigh(model, _feature_rows(model.feature_partitions, cols))
        return w.values, w.fired_counts, w.fallback

    @pytest.mark.parametrize("cells", [1, 50, 1000])
    @pytest.mark.parametrize("reduction", ["midpoint", "lower"])
    @pytest.mark.parametrize("tnorm", TNORMS)
    @pytest.mark.parametrize("seed", range(12))
    def test_many_blocks_bitwise_equal_one_whole_pass(
        self, seed, tnorm, reduction, cells, monkeypatch
    ):
        rng = np.random.default_rng(seed)
        model = random_model(rng, tnorm, reduction)
        cols = random_rows(rng, model, 500)
        for v, x in hole_row(model).items():  # a second unfired row, mid-batch
            cols[v][377] = x
        want = self.whole_pass(model, cols)
        monkeypatch.setattr(hit2mtsk.inference, "BLOCK_CELLS", cells)
        assert hit2mtsk.inference._chunk_rows(model.tables) < 250  # many blocks
        got = predict_values(model, cols)
        assert np.array_equal(bits(got[0]), bits(want[0]))
        for g, w in zip(got[1:], want[1:]):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert got[1][[0, 377]].tolist() == [0, 0]
        assert got[2][[0, 377]].all()

    @staticmethod
    def two_feature_model():
        # rule 0 overflows where z is High, rule 1 where x is High
        z = replace(X_PART, variable="z")
        cubic_z = replace(CUBIC, variables=("z",))
        rules = (
            replace(RULE_HIGH, antecedent=(("z", "High"),), consequent_fn=cubic_z),
            replace(RULE_HIGH, consequent_fn=CUBIC),
        )
        return two_rule_model(feature_partitions=(X_PART, z), rules=rules)

    def test_refusal_names_the_first_nan_cell_in_rule_order_across_blocks(
        self, monkeypatch
    ):
        # 2 rules and 5 sets: blocks of 10 rows.  Rule 1's NaN on row 13
        # is in an earlier block than rule 0's on row 45, which comes first
        # in rule order
        model = self.two_feature_model()
        cols = {"x": np.zeros(70), "z": np.zeros(70)}
        cols["x"][13] = cols["z"][45] = 1e300
        message = r"^rule 0 \(IF z is High\) outputs NaN on row 45, where it fires"
        with pytest.raises(RuleUnfittableError, match=message):
            self.whole_pass(model, cols)
        monkeypatch.setattr(hit2mtsk.inference, "BLOCK_CELLS", 50)
        assert hit2mtsk.inference._chunk_rows(model.tables) == 10
        with pytest.raises(RuleUnfittableError, match=message):
            predict_values(model, cols)

    def test_refusal_numbers_the_callers_rows(self):
        # at the default BLOCK_CELLS a block holds a few thousand rows
        model = self.two_feature_model()
        cols = {"x": np.zeros(70000), "z": np.zeros(70000)}
        cols["x"][69000] = 1e300
        assert hit2mtsk.inference._chunk_rows(model.tables) < 69000
        with pytest.raises(RuleUnfittableError, match=" outputs NaN on row 69000,"):
            predict_values(model, cols)

    def test_no_rows_give_empty_arrays_of_the_whole_pass_types(self):
        model = two_rule_model()
        got = predict_values(model, {"x": np.empty(0)})
        for g, w in zip(got, self.whole_pass(model, {"x": np.empty(0)})):
            assert g.shape == (0,) and g.dtype == w.dtype

    @pytest.mark.parametrize("n", [0, 70])
    def test_a_model_without_rules_is_refused(self, n):
        with pytest.raises(NotTrainedError):
            predict_values(two_rule_model(rules=()), {"x": np.zeros(n)})

    def test_non_finite_input_in_a_late_block_is_refused(self, monkeypatch):
        monkeypatch.setattr(hit2mtsk.inference, "BLOCK_CELLS", 50)
        cols = {"x": np.zeros(70)}
        cols["x"][65] = float("nan")
        with pytest.raises(ValueError, match="^input for 'x' is non-finite"):
            predict_values(two_rule_model(), cols)


def masked_weigh(tables, cells, reduction):
    """Every cell's weight, and the (row, weight, weighted output) of the
    cells of positive weight alone, copied out by a mask."""
    w = reduce_firing(cells.lo, cells.hi, reduction) * tables.dominance[cells.rule]
    live = w > 0.0
    return w, cells.row[live], w[live], w[live] * cells.y[live]


def row_sums(rows, w, wy, n):
    """Each of ``n`` rows' sums of its weights and of its weighted outputs,
    adding its cells in the order given."""
    return np.bincount(rows, w, n), np.bincount(rows, wy, n)


def random_cells(seed, reduction, n=500):
    rng = np.random.default_rng(seed)
    model = random_model(rng, reduction=reduction)
    cols = random_rows(rng, model, n)
    x = np.array([cols[v] for v in model.feature_names])
    return model, cols, rule_matrices(model.tables, x)


class TestWeigh:
    """`weigh` returns a weight and a weighted output for every fired cell;
    a weight-0 cell's weighted output is +0.0, so it adds nothing."""

    @pytest.mark.parametrize("reduction", ["midpoint", "lower"])
    def test_predictions_equal_the_masked_reference(self, reduction):
        dead = 0
        for seed in range(12):
            model, cols, cells = random_cells(seed, reduction)
            w, wy = weigh(model.rules, model.tables, cells, reduction)
            want_w, *live = masked_weigh(model.tables, cells, reduction)
            assert w.shape == wy.shape == cells.rule.shape
            assert np.array_equal(bits(w), bits(want_w))
            dead += cells.rule.size - live[0].size
            values, _, fallback = predict_values(model, cols)
            ref = weighted_mean(*row_sums(*live, 500), model.fallback_value)
            assert np.array_equal(bits(values), bits(ref[0]))
            assert np.array_equal(fallback, ref[1])
        # the lower reduction has cells of weight 0; the midpoint has none
        assert (dead > 0) == (reduction == "lower")

    def test_weight_zero_cells_have_zero_weighted_output(self):
        for seed in range(12):
            model, _, cells = random_cells(seed, "lower")
            w, wy = weigh(model.rules, model.tables, cells, "lower")
            dead = w <= 0.0
            assert not bits(wy[dead]).any()  # +0.0, not -0.0
            assert np.array_equal(bits(wy[~dead]), bits(w[~dead] * cells.y[~dead]))

    @staticmethod
    def cells(y, rows=(0, 3, 1, 2)):
        # rule 0's cell on rows[0] has lower bound 0: weight 0 under "lower"
        return FiredCells(
            np.array([0, 0, 1, 1]),
            np.array(rows),
            np.array([0.0, 0.5, 0.5, 0.5]),
            np.full(4, 0.5),
            np.array(y),
        )

    def test_weight_zero_nan_cell_is_neither_refused_nor_counted(self):
        model = two_rule_model()
        # row 0 holds rule 0's weight-0 NaN cell and rule 1's cell of output 2
        cells = self.cells([float("nan"), 1.0, 2.0, 3.0], rows=(0, 3, 0, 2))
        w, wy = weigh(model.rules, model.tables, cells, "lower")
        assert w.tolist() == [0.0, 0.5, 0.25, 0.25]
        assert wy.tolist() == [0.0, 0.5, 0.5, 0.75]
        sums = row_sums(cells.row, w, wy, 4)
        values, fell = weighted_mean(*sums, model.fallback_value)
        assert values.tolist() == [2.0, 99.0, 3.0, 1.0]
        assert fell.tolist() == [False, True, False, False]

    def test_refusal_names_the_first_positive_weight_nan_cell_in_rule_order(self):
        # rule 0's NaN on row 0 has weight 0; its NaN on row 3 comes before
        # rule 1's on row 1 in rule order
        model = two_rule_model()
        nan = float("nan")
        with pytest.raises(
            RuleUnfittableError, match=r"^rule 0 \(IF x is Low\) outputs NaN on row 3,"
        ):
            weigh(model.rules, model.tables, self.cells([nan, nan, nan, 3.0]), "lower")
        with pytest.raises(
            RuleUnfittableError, match=r"^rule 1 \(IF x is High\) outputs NaN on row 2,"
        ):
            weigh(model.rules, model.tables, self.cells([nan, 1.0, 2.0, nan]), "lower")


class TestWeightedMean:
    """`weighted_mean` divides each row's sum of weighted outputs by its
    sum of weights, or gives the fallback where the weights do not sum
    above zero."""

    def test_rows_whose_weights_sum_to_zero_fall_back(self):
        wsum = np.array([0.0, -0.0, 0.5, 2.0])
        psum = np.array([0.0, 3.0, 0.25, 1.0])
        values, fell = weighted_mean(wsum, psum, 7.0)
        assert values.tolist() == [7.0, 7.0, 0.5, 0.5]
        assert fell.tolist() == [True, True, False, False]

    def test_negative_zero_outputs_keep_their_sign(self):
        values, fell = weighted_mean(np.array([0.5, 0.5]), np.array([-0.0, 0.0]), 7.0)
        assert np.array_equal(bits(values), bits([-0.0, 0.0]))
        assert not fell.any()

    def test_sums_may_be_the_parts_of_one_complex_buffer(self):
        # the ACO search keeps each row's sums as one complex number
        buf = np.array([0.5 + 1.5j, 0j, complex(2.0, -0.0)])
        values, fell = weighted_mean(buf.real, buf.imag, 7.0)
        assert np.array_equal(bits(values), bits([3.0, 7.0, -0.0]))
        assert fell.tolist() == [False, True, False]


class TestCompiledTables:
    """A model compiles its rule tables once, on first use, and they are
    not part of what it saves or compares."""

    @staticmethod
    def count_compiles(monkeypatch):
        calls = []
        real = hit2mtsk.inference.compile_rules

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hit2mtsk.inference, "compile_rules", counted)
        return calls

    def test_built_once_on_first_use(self, monkeypatch, tmp_path):
        calls = self.count_compiles(monkeypatch)
        save_model(two_rule_model(), tmp_path / "model.json")
        model = load_model(tmp_path / "model.json")
        assert calls == []
        predict(model, {"x": 6.0})
        predict(model, {"x": 0.0})
        predict_values(model, {"x": np.array([1.0, 9.0])})
        assert len(calls) == 1

    def test_predicting_changes_neither_saved_bytes_nor_equality(self, tmp_path):
        model = load_model(FIXTURES / "serve_model.json")
        save_model(model, tmp_path / "before.json")
        predict(model, dict.fromkeys(model.feature_names, 0.5))
        save_model(model, tmp_path / "after.json")
        after = (tmp_path / "after.json").read_bytes()
        assert after == (tmp_path / "before.json").read_bytes()
        assert model == load_model(tmp_path / "after.json")

    def test_replaced_rules_get_fresh_tables(self):
        model = two_rule_model()
        assert predict(model, {"x": 0.0}).value == 10.0
        swapped = replace(
            model, rules=(replace(RULE_LOW, consequent_fn=constant(12.0)), RULE_HIGH)
        )
        assert swapped.tables is not model.tables
        assert predict(swapped, {"x": 0.0}).value == 12.0
        assert predict(model, {"x": 0.0}).value == 10.0


class TestPaddingSet:
    """Short antecedents are padded with the compiled set after every
    partition's sets, whose memberships are exactly 1.0 on every row."""

    @staticmethod
    def memberships(model, x):
        tables = model.tables
        return stacked_memberships(tables.sets, x[tables.feature])

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param(lambda m: np.array([[*hole_row(m).values()]]).T, id="off-domain"),
            pytest.param(lambda m: np.full((3, 2), [1e300, -1e300]), id="huge"),
            pytest.param(lambda m: np.empty((3, 0)), id="no-rows"),
        ],
    )
    def test_memberships_are_exactly_one(self, rows):
        model = random_model(np.random.default_rng(0))
        x = rows(model)
        tables = model.tables
        assert tables.feature.size == sum(len(p) for p in model.feature_partitions) + 1
        for m in self.memberships(model, x):
            assert m.shape == (tables.feature.size, x.shape[1])
            assert np.array_equal(bits(m[-1]), bits(np.ones(x.shape[1])))

    @pytest.mark.parametrize("tnorm", TNORMS)
    def test_padded_one_clause_rule_fires_its_clause_bitwise(self, tnorm):
        model = random_model(np.random.default_rng(1), tnorm)
        cols = random_rows(np.random.default_rng(2), model, 300)
        x = np.array([cols[v] for v in model.feature_names])
        lower, upper = self.memberships(model, x)
        pad = model.tables.feature.size - 1
        for k in range(pad):
            lo, hi = fire(lower, upper, np.array([[k], [pad], [pad]]), tnorm)
            assert np.array_equal(bits(lo[0]), bits(lower[k]))
            assert np.array_equal(bits(hi[0]), bits(upper[k]))


# |x| <= 1e6 keeps every degree-3 polynomial of random_model finite; a
# polynomial that overflows is refused, as TestValidation checks
FINITE = st.one_of(
    st.floats(-30.0, 30.0), st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
)


class TestClampEnvelope:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(TNORMS),
        st.sampled_from(FIRING_REDUCTIONS),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_output_inside_fired_clamps_or_flagged(
        self, seed, tnorm, reduction, data
    ):
        model = random_model(np.random.default_rng(seed), tnorm, reduction)
        n = data.draw(st.integers(1, 6))
        cols = {
            v: np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n)))
            for v in model.feature_names
        }
        _, F_hi, _ = oracles.rule_matrices(
            model.rules, model.feature_partitions, cols, tnorm
        )
        lows = np.array([r.clamp_bounds[0] for r in model.rules])
        highs = np.array([r.clamp_bounds[1] for r in model.rules])

        def check(value, flagged, row):
            if flagged:
                assert value == model.fallback_value
                return
            fired = F_hi[:, row] > 0.0
            assert fired.any()
            lo, hi = lows[fired].min(), highs[fired].max()
            # two sums of at most len(rules) positive terms round the mean
            slack = 2 * len(model.rules) * np.spacing(max(abs(lo), abs(hi)))
            assert np.isfinite(value) and lo - slack <= value <= hi + slack

        values, _, fallback = predict_values(model, cols)
        for row in range(n):
            check(values[row], fallback[row], row)
            p = predict(model, {v: float(cols[v][row]) for v in cols})
            check(p.value, p.fallback_used, row)

    @staticmethod
    def one_rule_model(c):
        # a ramp up from 0.0 fires x near 0.0; the one rule outputs the
        # constant c, clamped to [c, 2.0]
        sets = (
            shoulder("Down", "left_shoulder", (0.0, 0.0, 1.0, 2.0)),
            shoulder("Up", "right_shoulder", (0.0, 1.0, 2.0, 2.0)),
        )
        rule = HybridRule(
            antecedent=(("x", "Up"),),
            consequent_set="Up",
            consequent_fn=constant(c),
            clamp_bounds=(c, 2.0),
            fuzzy_dominance=(0.5, 0.5),
            error_dominance=1.0,
        )
        return Model(
            feature_partitions=(Partition("x", sets, (0.0, 2.0)),),
            target_partition=Partition("y", sets, (0.0, 2.0)),
            rules=(rule,),
            fallback_value=7.0,
        )

    @staticmethod
    def assert_predicts(model, x, value, flagged):
        values, _, fallback = predict_values(model, {"x": np.array([x])})
        p = predict(model, {"x": x})
        assert (values[0], fallback[0]) == (value, flagged)
        assert (p.value, p.fallback_used) == (value, flagged)

    def test_a_subnormal_weight_counts_as_none(self):
        # the ramp fires 5e-324 and 1e-310 (subnormal) there: w * 1.3 / w
        # rounded those to 1.0 and 1.2999999999999852, below the clamp, so
        # such a row takes the fallback, flagged
        model = self.one_rule_model(1.3)
        cases = [(5e-324, 7.0, True), (1e-310, 7.0, True), (1e-300, 1.3, False)]
        for x, value, flagged in cases:
            self.assert_predicts(model, x, value, flagged)

    @pytest.mark.parametrize(
        "c, x, value, flagged",
        # w * c / w rounded the first four to 1.2999999999999813e-10, 0.0,
        # 0.0 and 9.999999999999968e-306, below the clamp: w * c underflows
        # to a subnormal or to 0.0 from a normal weight w.  An output of
        # exactly 0.0 keeps its weight
        [
            (1.3e-10, 1e-300, 7.0, True),
            (1e-305, 1e-300, 7.0, True),
            (1e-305, 1e-200, 7.0, True),
            (1e-305, 1e-5, 7.0, True),
            (0.0, 1e-300, 0.0, False),
        ],
    )
    def test_a_subnormal_weighted_output_counts_as_none(self, c, x, value, flagged):
        self.assert_predicts(self.one_rule_model(c), x, value, flagged)

class TestServeReference:
    def test_frozen_reference_predictions_reproduced_bitwise(self):
        model = load_model(FIXTURES / "serve_model.json")
        doc = json.loads((FIXTURES / "serve_reference.json").read_text())
        rows = dict(zip(model.feature_names, np.array(doc["rows"]).T))
        want = np.array(doc["values"])
        values, _, _ = predict_values(model, rows)
        assert np.array_equal(bits(values), bits(want))

    def test_single_row_predict_reproduces_the_reference_bitwise(self):
        # one row adds its rules in the same order as a batch of rows does
        model = load_model(FIXTURES / "serve_model.json")
        doc = json.loads((FIXTURES / "serve_reference.json").read_text())
        want = np.array(doc["values"][:200])
        got = [
            predict(model, dict(zip(model.feature_names, row))).value
            for row in doc["rows"][:200]
        ]
        assert np.array_equal(bits(got), bits(want))


class TestServeFiredRules:
    """What every reader of the fired rules sees on the frozen serve
    bundle: itemized predictions, active-rule counts and the Mamdani
    twin's dominances, pinned to the values of the dense rule matrices."""

    @staticmethod
    def serve():
        model = load_model(FIXTURES / "serve_model.json")
        doc = json.loads((FIXTURES / "serve_reference.json").read_text())
        rows = np.array(doc["rows"])
        return model, Dataset(
            "serve", model.feature_names, rows, "y", np.array(doc["values"])
        )

    def test_single_row_predict_itemizes_the_dense_rule_matrices(self):
        model, ds = self.serve()
        rows = ds.X[:200]
        cols = dict(zip(model.feature_names, rows.T))
        F_lo, F_hi, Y = oracles.rule_matrices(
            model.rules, model.feature_partitions, cols, model.tnorm
        )
        dominance = np.array([r.error_dominance for r in model.rules])[:, None]
        W = reduce_firing(F_lo, F_hi, model.firing_reduction) * dominance
        for r, row in enumerate(rows):
            got = predict(model, dict(zip(model.feature_names, row))).fired_rules
            fired = np.flatnonzero(F_hi[:, r] > 0.0)
            assert [g.index for g in got] == fired.tolist()
            assert np.array_equal(
                bits([[*g.firing, g.output, g.weight] for g in got]),
                bits(np.array([F_lo, F_hi, Y, W])[:, fired, r].T),
            )

    def test_active_rules_per_prediction_pinned(self):
        model, ds = self.serve()
        assert explainability_block(model, ds).active_rules == {
            0.15: 5.691, 0.25: 4.937, 0.5: 3.232
        }

    def test_explainability_block_pinned(self):
        model, ds = self.serve()
        block = explainability_block(model, ds, seed=7)
        assert hashlib.sha256(dumps(asdict(block)).encode()).hexdigest() == (
            "2c70c2f9f17450cc6c8703006c766310a74db33b11cac9b904ae78d52c2ea300"
        )

    def test_mamdani_twin_dominances_pinned(self):
        model, ds = self.serve()
        doms = np.array([r.error_dominance for r in derive_mamdani(model, ds).rules])
        assert hashlib.sha256(bits(doms).tobytes()).hexdigest() == (
            "3fa80b439c86ef436e6236fc974b255787c4551c766f3b2c652a2b5933e01b88"
        )
