import hashlib
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from hit2mtsk import (
    Dataset,
    EvalReport,
    TrainingFailedError,
    case_study,
    derive_mamdani,
    run_cv,
)
from hit2mtsk import inference
from hit2mtsk.data import FoldSplit, make_folds
from hit2mtsk.evaluate import (
    ACTIVE_RULE_THRESHOLDS,
    CALIFORNIA_REFERENCE,
    NOISE_LEVELS,
    NOISE_REPEATS,
    REFERENCE_RMSE,
    explainability_block,
    quantization_profile,
    reference_for,
)
from hit2mtsk.inference import predict_values
from hit2mtsk.persist import dumps
from hit2mtsk.rules import RuleUnfittableError

from conftest import small_train_config
from test_inference import CUBIC, RULE_HIGH, RULE_LOW, two_rule_model


def xy_rows(xs, ys):
    xs = np.asarray(xs, dtype=float)
    return Dataset("hand", ("x",), xs.reshape(-1, 1), "y", np.asarray(ys, float))


def hand_block(xs, ys, rules=(RULE_LOW, RULE_HIGH), **kwargs):
    """The block of the two-rule model, with feature statistics, on (x, y)."""
    model = two_rule_model(rules=rules, feature_stats=(("x", 4.0, 2.0),))
    return explainability_block(model, xy_rows(xs, ys), **kwargs)


@pytest.fixture(scope="module")
def toy_block(trained, toy_dataset):
    return explainability_block(trained.model, toy_dataset)


class TestActiveRules:
    def test_hand_counts_at_each_threshold(self):
        # at x=6 firing midpoints are 0.5 (Low) and 1.0 (High)
        counts = hand_block([6.0, 6.0], [10.0, 20.0]).active_rules
        assert counts == {0.15: 2.0, 0.25: 2.0, 0.5: 1.0}

    def test_midpoint_at_or_below_every_threshold_counts_nothing(self):
        # Low's midpoint is 0.125 at x=7.5 and 0 at x=9 (it does not fire)
        block = hand_block([7.5, 9.0], [10.0, 20.0], rules=(RULE_LOW,))
        assert block.active_rules == {0.15: 0.0, 0.25: 0.0, 0.5: 0.0}

    def test_counts_weakly_decrease_with_threshold(self, toy_block):
        counts = toy_block.active_rules
        ordered = [counts[t] for t in sorted(counts)]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))
        assert all(v >= 0.0 for v in ordered)


class TestNoiseRobustness:
    def test_zero_level_is_exactly_zero(self, toy_block):
        assert toy_block.noise_deltas[0.0] == 0.0

    def test_weakly_increasing_with_level(self, toy_block):
        out = toy_block.noise_deltas
        vals = [out[lv] for lv in sorted(out)]
        assert vals[0] == 0.0
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.0

    def test_constant_output_model_is_insensitive(self):
        # single constant rule; noise small enough to stay on the plateau
        model = two_rule_model(
            rules=(RULE_LOW,), feature_stats=(("x", 2.0, 0.5),)
        )
        rows = xy_rows([2.0, 2.5, 3.0], [10.0, 10.0, 11.0])
        out = explainability_block(model, rows).noise_deltas
        assert out == {level: 0.0 for level in NOISE_LEVELS}

    def test_zero_mean_target_rejected(self):
        with pytest.raises(ValueError, match="mean target"):
            hand_block([2.0, 3.0], [-1.0, 1.0])

    def test_feature_without_stats_rejected(self):
        rows = xy_rows([2.0, 3.0], [10.0, 12.0])
        with pytest.raises(ValueError, match="no feature statistics for x"):
            explainability_block(two_rule_model(), rows)

    def test_overflow_on_a_noisy_copy_names_level_and_draw(self):
        # rule 1 outputs x^2 - x^3, NaN at x ~ 1e298 where High fires: the
        # rows are ordinary, but noise of 1% of a std of 1e300 sends their
        # copies there
        model = two_rule_model(
            rules=(RULE_LOW, replace(RULE_HIGH, consequent_fn=CUBIC)),
            feature_stats=(("x", 4.0, 1e300),),
        )
        rows = xy_rows([0.0, 6.0], [10.0, 20.0])
        with pytest.raises(RuleUnfittableError) as caught:
            explainability_block(model, rows)
        assert str(caught.value) == (
            "noise level 0.01, draw 0: rule 1 (IF x is High) outputs NaN on row 0, "
            "where it fires: its polynomial overflows there (a row of a noisy copy)"
        )

    def test_seed_determinism(self, trained, toy_dataset):
        a, b = (
            explainability_block(trained.model, toy_dataset, 3)
            for _ in range(2)
        )
        assert a == b


class TestCoverage:
    def test_hand_values(self):
        block = hand_block([0.0, 9.0], [10.0, 20.0])
        assert block.classes_covered == 1.0  # both target sets are consequents
        assert block.dataset_coverage == 1.0
        assert block.prediction_range_fraction == pytest.approx(1.0)

    def test_single_class_model(self):
        block = hand_block([0.0, 2.0], [10.0, 12.0], rules=(RULE_LOW,))
        assert block.classes_covered == 0.5

    def test_uncovered_rows_lower_coverage(self):
        block = hand_block([0.0, 9.0], [10.0, 20.0], rules=(RULE_LOW,))
        assert block.dataset_coverage == 0.5

    def test_constant_target_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            hand_block([0.0, 9.0], [5.0, 5.0])


class TestExplainabilityBlock:
    def test_hand_model_fields(self):
        block = hand_block([0.0, 6.0, 9.0], [10.0, 15.0, 20.0])
        assert block.rule_count == 2
        assert block.mean_antecedents == 1.0
        assert block.classes_covered == 1.0
        assert block.dataset_coverage == 1.0
        assert set(block.active_rules) == set(ACTIVE_RULE_THRESHOLDS)
        assert set(block.noise_deltas) == set(float(v) for v in NOISE_LEVELS)
        d = json.loads(dumps(asdict(block)))
        assert d["rule_count"] == 2
        assert "0.5" in d["active_rules"]

    @pytest.mark.parametrize("given", [False, True], ids=["own pass", "base given"])
    def test_one_inference_pass_besides_the_noisy_ones(self, monkeypatch, given):
        model = two_rule_model(feature_stats=(("x", 4.0, 2.0),))
        rows = xy_rows([0.0, 6.0, 9.0], [10.0, 15.0, 20.0])
        x = inference._feature_rows(model.feature_partitions, rows)
        base = inference._weigh(model, x) if given else None
        calls = []
        real = inference.rule_matrices

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(inference, "rule_matrices", counted)
        explainability_block(model, rows, base=base)
        # three nonzero levels of NOISE_REPEATS draws each
        assert len(calls) == 3 * NOISE_REPEATS + (0 if given else 1)

    def test_digest_pinned(self):
        xs = np.linspace(0.0, 9.0, 31)
        block = hand_block(xs, 10.0 + xs, seed=7)
        digest = hashlib.sha256(dumps(asdict(block)).encode()).hexdigest()
        assert digest == (
            "ae6092e1f481ffcf4258a6d8644ed1e9157438fe9ce627e7460f37101aa16837"
        )


class TestReferenceLookup:
    def test_known_names(self):
        assert reference_for("concrete")["hybrid_d3"] == 7.29
        assert reference_for("Treasury") == REFERENCE_RMSE["treasury"]
        assert reference_for("ELE-2") == REFERENCE_RMSE["ele2"]

    def test_california_prefix(self):
        assert reference_for("california_housing") == CALIFORNIA_REFERENCE
        assert reference_for("california")["hybrid"] == 0.695

    def test_unknown_is_empty(self):
        assert reference_for("made_up") == {}

    def test_lookup_returns_copies(self):
        a = reference_for("concrete")
        a["hybrid_d3"] = -1
        assert REFERENCE_RMSE["concrete"]["hybrid_d3"] == 7.29


@pytest.fixture(scope="module")
def folds(toy_dataset):
    return make_folds(toy_dataset, seed=2)[:3]  # three of five keep the run short


@pytest.fixture(scope="module")
def report(folds):
    return run_cv(folds, small_train_config(), explain=True)


@pytest.fixture(scope="module")
def study(toy_dataset):
    return case_study(toy_dataset, small_train_config(), holdout_fraction=0.2)


class TestRunCv:
    def test_report_shape(self, report):
        assert isinstance(report, EvalReport)
        assert report.dataset == "toy"
        assert report.variant == "d2"
        assert len(report.fold_rmse) == 3
        assert report.mean_rmse == pytest.approx(float(np.mean(report.fold_rmse)))
        assert report.failed_folds == ()
        assert report.warning is None
        assert 0.0 <= report.fallback_rate <= 1.0

    def test_scores_are_sane(self, report):
        assert all(0.0 < r < 1.5 for r in report.fold_rmse)

    def test_explain_block_attached(self, report):
        assert report.explainability is not None
        assert report.explainability.rule_count >= 1

    def test_failed_fold_is_reported_not_fatal(self, toy_dataset):
        good = make_folds(toy_dataset, seed=0)
        bad_train = Dataset(
            "toy",
            toy_dataset.feature_names,
            toy_dataset.X[:40],
            "y",
            np.full(40, 3.0),  # constant target cannot be partitioned
        )
        folds = [
            good[0],
            FoldSplit(fold_index=1, train=bad_train, test=good[1].test),
        ]
        report = run_cv(folds, small_train_config())
        assert report.failed_folds == (1,)
        assert "1 fold(s) failed" in report.warning
        assert len(report.fold_rmse) == 1

    def test_all_folds_failing_raises(self, toy_dataset):
        bad_train = Dataset(
            "toy",
            toy_dataset.feature_names,
            toy_dataset.X[:40],
            "y",
            np.full(40, 3.0),
        )
        folds = [
            FoldSplit(fold_index=0, train=bad_train, test=bad_train),
        ]
        with pytest.raises(TrainingFailedError):
            run_cv(folds, small_train_config())

    def test_no_folds_rejected(self):
        with pytest.raises(ValueError, match="no folds"):
            run_cv([], small_train_config())

    def test_to_dict_is_json_shaped(self, report):
        d = json.loads(dumps(asdict(report)))
        assert d["dataset"] == "toy"
        assert isinstance(d["fold_rmse"], list)
        assert isinstance(d["explainability"], dict)


class TestMamdaniBaseline:
    def test_rule_structure_is_shared(self, trained, toy_dataset):
        base = derive_mamdani(trained.model, toy_dataset)
        assert len(base.rules) == len(trained.model.rules)
        for h, b in zip(trained.model.rules, base.rules):
            assert b.antecedent == h.antecedent
            assert b.consequent_set == h.consequent_set
            assert b.consequent_fn.variables == ()
            assert b.clamp_bounds == h.clamp_bounds
        assert base.manifest["baseline"] == "mamdani_centroid"

    def test_centroids_are_plateau_midpoints(self):
        model = two_rule_model()
        rows = xy_rows([0.0, 6.0, 9.0], [6.0, 15.0, 24.0])
        base = derive_mamdani(model, rows)
        # Small plateau [0, 12] -> 6; Big plateau [18, 30] -> 24
        assert base.rules[0].consequent_fn.coefficients == (6.0,)
        assert base.rules[1].consequent_fn.coefficients == (24.0,)

    def test_rule_firing_on_no_training_row_keeps_its_error_dominance(self):
        # High's foot is at x = 2: it fires on neither row
        base = derive_mamdani(two_rule_model(), xy_rows([0.0, 1.0], [8.0, 9.0]))
        assert base.rules[1].error_dominance == RULE_HIGH.error_dominance

    def test_error_dominance_recomputed_by_hand(self):
        model = two_rule_model()
        rows = xy_rows([0.0, 6.0], [8.0, 15.0])
        base = derive_mamdani(model, rows)
        # Low fires on both rows; constant output 6 vs targets (8, 15)
        rmse = np.sqrt(((6.0 - 8.0) ** 2 + (6.0 - 15.0) ** 2) / 2.0)
        assert base.rules[0].error_dominance == pytest.approx(1.0 / (1.0 + rmse))

    def test_hybrid_overflow_does_not_stop_the_twin(self):
        # High's x^2 - x^3 is NaN at x = 1e300, where High fires: the hybrid
        # has no prediction there, but the twin reads only where its rules
        # fire, and has no polynomial
        model = two_rule_model(rules=(RULE_LOW, replace(RULE_HIGH, consequent_fn=CUBIC)))
        rows = xy_rows([0.0, 6.0, 1e300], [8.0, 15.0, 24.0])
        with pytest.raises(RuleUnfittableError, match="rule 1 .* on row 2"):
            predict_values(model, rows)
        base = derive_mamdani(model, rows)
        # High fires on x = 6 and 1e300; constant output 24 vs (15, 24)
        rmse = np.sqrt((24.0 - 15.0) ** 2 / 2.0)
        assert base.rules[1].error_dominance == pytest.approx(1.0 / (1.0 + rmse))
        values, _, fallback = predict_values(base, rows)
        assert np.isfinite(values).all() and not fallback.any()

    def test_baseline_quantizes_single_fire_outputs(self, trained, toy_dataset):
        base = derive_mamdani(trained.model, toy_dataset)
        distinct, n_single, n_sets = quantization_profile(base, toy_dataset)
        assert n_sets == 3
        if n_single > 0:
            # one constant per consequent set is the ceiling
            assert distinct <= n_sets

    def test_hybrid_outputs_vary_where_baseline_cannot(self, trained, toy_dataset):
        h_distinct, h_single, _ = quantization_profile(
            trained.model, toy_dataset
        )
        if h_single > 3:
            assert h_distinct > 3

    def test_no_single_fire_rows_handled(self):
        model = two_rule_model()
        rows = xy_rows([6.0, 6.0], [15.0, 15.0])  # both rules fire everywhere
        assert quantization_profile(model, rows) == (0, 0, 2)


class TestCaseStudy:
    def test_reports_and_values_align(self, study, toy_dataset):
        n_test = round(toy_dataset.n_rows * 0.2)
        assert study.test.n_rows == n_test
        assert study.hybrid_values.shape == (n_test,)
        assert study.baseline_values.shape == (n_test,)
        assert study.hybrid.variant == "d2"
        assert study.baseline.variant == "mamdani"
        assert study.hybrid.explainability is not None
        assert study.baseline.explainability is None

    def test_rmse_matches_values(self, study):
        want = float(np.sqrt(np.mean((study.hybrid_values - study.test.y) ** 2)))
        assert study.hybrid.mean_rmse == pytest.approx(want)

    def test_hybrid_beats_constant_consequents_here(self, study):
        # smooth synthetic surface: polynomial consequents must win
        assert study.hybrid.mean_rmse < study.baseline.mean_rmse

    def test_deterministic(self, study, toy_dataset):
        again = case_study(
            toy_dataset, small_train_config(), holdout_fraction=0.2
        )
        assert np.array_equal(study.hybrid_values, again.hybrid_values)
        assert study.hybrid.mean_rmse == again.hybrid.mean_rmse

    def test_baseline_predictions_come_from_baseline_model(self, study):
        values, _, _ = predict_values(study.baseline_model, study.test)
        assert np.array_equal(values, study.baseline_values)
