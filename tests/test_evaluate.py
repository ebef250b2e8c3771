import json
from dataclasses import asdict

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
from hit2mtsk.data import FoldSplit, make_folds
from hit2mtsk.evaluate import (
    ACTIVE_RULE_THRESHOLDS,
    CALIFORNIA_REFERENCE,
    NOISE_LEVELS,
    REFERENCE_RMSE,
    active_rules_per_prediction,
    coverage_metrics,
    explainability_block,
    noise_robustness,
    quantization_profile,
    reference_for,
)
from hit2mtsk.inference import predict_values
from hit2mtsk.persist import dumps

from conftest import small_train_config
from test_inference import RULE_LOW, two_rule_model


def xy_rows(xs, ys):
    xs = np.asarray(xs, dtype=float)
    return Dataset("hand", ("x",), xs.reshape(-1, 1), "y", np.asarray(ys, float))


class TestActiveRules:
    def test_hand_counts_at_each_threshold(self):
        # at x=6 firing midpoints are 0.5 (Low) and 1.0 (High)
        counts = active_rules_per_prediction(two_rule_model(), {"x": np.array([6.0])})
        assert counts == {0.15: 2.0, 0.25: 2.0, 0.5: 1.0}

    def test_threshold_above_one_counts_nothing(self):
        counts = active_rules_per_prediction(
            two_rule_model(), {"x": np.array([0.0, 6.0])}, thresholds=(1.01,)
        )
        assert counts == {1.01: 0.0}

    def test_negative_threshold_rejected(self):
        # a rule that does not fire has midpoint 0, which no count may include
        with pytest.raises(ValueError, match="thresholds must be >= 0"):
            active_rules_per_prediction(
                two_rule_model(), {"x": np.array([0.0])}, thresholds=(-0.1,)
            )

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="thresholds must be >= 0"):
            active_rules_per_prediction(
                two_rule_model(), {"x": np.array([0.0])}, thresholds=(float("nan"),)
            )

    def test_counts_weakly_decrease_with_threshold(self, trained, toy_dataset):
        counts = active_rules_per_prediction(trained.model, toy_dataset)
        ordered = [counts[t] for t in sorted(counts)]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))
        assert all(v >= 0.0 for v in ordered)


class TestNoiseRobustness:
    def test_zero_level_is_exactly_zero(self, trained, toy_dataset):
        out = noise_robustness(trained.model, toy_dataset, levels=(0.0,))
        assert out == {0.0: 0.0}

    def test_weakly_increasing_with_level(self, trained, toy_dataset):
        out = noise_robustness(trained.model, toy_dataset, levels=NOISE_LEVELS)
        vals = [out[lv] for lv in sorted(out)]
        assert vals[0] == 0.0
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.0

    def test_constant_output_model_is_insensitive(self):
        # single constant rule; noise small enough to stay on the plateau
        model = two_rule_model(
            rules=(RULE_LOW,), feature_stats=(("x", 2.0, 0.5),)
        )
        rows = xy_rows([2.0, 2.5, 3.0], [10.0, 10.0, 10.0])
        out = noise_robustness(model, rows, levels=(0.01,), repeats=3)
        assert out[0.01] == 0.0

    def test_zero_mean_target_rejected(self):
        model = two_rule_model(feature_stats=(("x", 2.0, 0.5),))
        rows = xy_rows([2.0, 3.0], [-1.0, 1.0])
        with pytest.raises(ValueError, match="mean target"):
            noise_robustness(model, rows)

    def test_feature_without_stats_rejected(self):
        model = two_rule_model()
        rows = xy_rows([2.0, 3.0], [10.0, 12.0])
        with pytest.raises(ValueError, match="no feature statistics for x"):
            noise_robustness(model, rows)

    def test_negative_level_rejected(self, trained, toy_dataset):
        with pytest.raises(ValueError, match=">= 0"):
            noise_robustness(trained.model, toy_dataset, levels=(-0.1,))

    @pytest.mark.parametrize("level", [float("nan"), float("inf")])
    def test_non_finite_level_rejected(self, trained, toy_dataset, level):
        with pytest.raises(ValueError, match="noise levels must be finite"):
            noise_robustness(trained.model, toy_dataset, levels=(0.01, level))

    @pytest.mark.parametrize("levels", [(0.05, 0.05), (0.05, 0.01, 0.05)])
    def test_repeated_level_rejected(self, trained, toy_dataset, levels):
        with pytest.raises(ValueError, match="noise level 0.05 is repeated"):
            noise_robustness(trained.model, toy_dataset, levels=levels)

    def test_zero_repeats_rejected(self, trained, toy_dataset):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            noise_robustness(trained.model, toy_dataset, repeats=0)

    def test_seed_determinism(self, trained, toy_dataset):
        a = noise_robustness(trained.model, toy_dataset, levels=(0.05,), seed=3)
        b = noise_robustness(trained.model, toy_dataset, levels=(0.05,), seed=3)
        assert a == b


class TestCoverage:
    def test_hand_values(self):
        rows = xy_rows([0.0, 9.0], [10.0, 20.0])
        classes, coverage, range_fraction = coverage_metrics(
            two_rule_model(), rows
        )
        assert classes == 1.0  # both target sets appear as consequents
        assert coverage == 1.0
        assert range_fraction == pytest.approx(1.0)

    def test_single_class_model(self):
        rows = xy_rows([0.0, 2.0], [10.0, 12.0])
        classes, _, _ = coverage_metrics(two_rule_model(rules=(RULE_LOW,)), rows)
        assert classes == 0.5

    def test_uncovered_rows_lower_coverage(self):
        rows = xy_rows([0.0, 9.0], [10.0, 20.0])
        _, coverage, _ = coverage_metrics(two_rule_model(rules=(RULE_LOW,)), rows)
        assert coverage == 0.5

    def test_constant_target_rejected(self):
        rows = xy_rows([0.0, 9.0], [5.0, 5.0])
        with pytest.raises(ValueError, match="constant"):
            coverage_metrics(two_rule_model(), rows)


class TestExplainabilityBlock:
    def test_hand_model_fields(self):
        model = two_rule_model(feature_stats=(("x", 4.0, 2.0),))
        rows = xy_rows([0.0, 6.0, 9.0], [10.0, 15.0, 20.0])
        block = explainability_block(model, rows)
        assert block.rule_count == 2
        assert block.mean_antecedents == 1.0
        assert block.classes_covered == 1.0
        assert block.dataset_coverage == 1.0
        assert set(block.active_rules) == set(ACTIVE_RULE_THRESHOLDS)
        assert set(block.noise_deltas) == set(float(v) for v in NOISE_LEVELS)
        d = json.loads(dumps(asdict(block)))
        assert d["rule_count"] == 2
        assert "0.5" in d["active_rules"]


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
    return make_folds(toy_dataset, k=3, seed=2)


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
        good = make_folds(toy_dataset, k=2, seed=0)
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

    def test_error_dominance_recomputed_by_hand(self):
        model = two_rule_model()
        rows = xy_rows([0.0, 6.0], [8.0, 15.0])
        base = derive_mamdani(model, rows)
        # Low fires on both rows; constant output 6 vs targets (8, 15)
        rmse = np.sqrt(((6.0 - 8.0) ** 2 + (6.0 - 15.0) ** 2) / 2.0)
        assert base.rules[0].error_dominance == pytest.approx(1.0 / (1.0 + rmse))

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
