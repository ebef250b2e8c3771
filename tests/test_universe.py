import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from hit2mtsk import (
    Dataset,
    EmptyUniverseError,
    GenerationConfig,
    generate_candidates,
)
from hit2mtsk.it2 import build_partition
from hit2mtsk.persist import decode, dumps, universe_to_dict

from conftest import make_dataset
from oracles import firing_strength


def partitions_for(dataset, num_sets=3):
    parts = {
        name: build_partition(dataset.column(name), num_sets, variable=name)
        for name in dataset.feature_names
    }
    parts[dataset.target_name] = build_partition(
        dataset.y, num_sets, variable=dataset.target_name
    )
    return parts


OPEN_CONFIG = GenerationConfig(
    degree=2, dominance_threshold=0.0, min_rows=1, max_candidates=100_000
)


class TestGeneration:
    def test_unfiltered_universe_covers_every_row(self, toy_dataset):
        parts = partitions_for(toy_dataset)
        uni = generate_candidates(toy_dataset, parts, OPEN_CONFIG)
        assert uni.coverage == 1.0
        # re-check coverage independently through firing_strength
        fired = np.zeros(toy_dataset.n_rows, dtype=bool)
        for rule in uni.rules:
            clauses = [
                (v, parts[v].set_named(s)) for v, s in rule.antecedent
            ]
            for i in range(toy_dataset.n_rows):
                if fired[i]:
                    continue
                values = {
                    v: float(toy_dataset.column(v)[i]) for v, _ in rule.antecedent
                }
                if firing_strength(clauses, values).upper > 0:
                    fired[i] = True
        assert fired.all()

    def test_single_feature_pair_count_bounded(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 10, size=(60, 1))
        y = 3.0 * x[:, 0] + rng.normal(0, 0.2, 60)
        ds = Dataset("one", ("x",), x, "y", y)
        uni = generate_candidates(ds, partitions_for(ds), OPEN_CONFIG)
        # 3 antecedent sets x 3 consequent sets is the hard ceiling
        assert 1 <= len(uni) <= 9
        assert all(len(r.antecedent) == 1 for r in uni.rules)

    def test_no_duplicate_rules(self, toy_dataset):
        uni = generate_candidates(
            toy_dataset, partitions_for(toy_dataset), OPEN_CONFIG
        )
        keys = [(r.antecedent, r.consequent_set) for r in uni.rules]
        assert len(keys) == len(set(keys))

    def test_max_antecedent_respected(self, toy_dataset):
        cfg = GenerationConfig(
            degree=1, max_antecedent=1, dominance_threshold=0.0, min_rows=1
        )
        uni = generate_candidates(toy_dataset, partitions_for(toy_dataset), cfg)
        assert all(len(r.antecedent) == 1 for r in uni.rules)

    def test_unpartitioned_feature_never_appears(self, toy_dataset):
        parts = partitions_for(toy_dataset)
        del parts["x2"]
        uni = generate_candidates(toy_dataset, parts, OPEN_CONFIG)
        assert all(v == "x1" for r in uni.rules for v, _ in r.antecedent)

    def test_missing_target_partition_rejected(self, toy_dataset):
        parts = partitions_for(toy_dataset)
        del parts[toy_dataset.target_name]
        with pytest.raises(ValueError, match="target"):
            generate_candidates(toy_dataset, parts, OPEN_CONFIG)

    def test_no_features_rejected(self, toy_dataset):
        parts = {toy_dataset.target_name: partitions_for(toy_dataset)["y"]}
        with pytest.raises(ValueError, match="feature"):
            generate_candidates(toy_dataset, parts, OPEN_CONFIG)


class TestFiltering:
    def test_row_count_floor_matches_monomial_count(self, toy_dataset):
        degree = 2
        cfg = GenerationConfig(degree=degree, dominance_threshold=0.0)
        parts = partitions_for(toy_dataset)
        uni = generate_candidates(toy_dataset, parts, cfg)
        for rule in uni.rules:
            need = math.comb(len(rule.antecedent) + degree, degree)
            clauses = [
                (v, parts[v].set_named(s)) for v, s in rule.antecedent
            ]
            fired = 0
            for i in range(toy_dataset.n_rows):
                values = {
                    v: float(toy_dataset.column(v)[i]) for v, _ in rule.antecedent
                }
                if firing_strength(clauses, values).upper > 0:
                    fired += 1
            assert fired >= need

    def test_min_rows_shrinks_universe(self, toy_dataset):
        parts = partitions_for(toy_dataset)
        loose = generate_candidates(
            toy_dataset,
            parts,
            GenerationConfig(degree=1, dominance_threshold=0.0, min_rows=1),
        )
        tight = generate_candidates(
            toy_dataset,
            parts,
            GenerationConfig(
                degree=1,
                dominance_threshold=0.0,
                min_rows=toy_dataset.n_rows // 2,
                min_coverage=0.0,
            ),
        )
        assert len(tight) <= len(loose)

    def test_impossible_threshold_raises(self, toy_dataset):
        cfg = GenerationConfig(dominance_threshold=1.01)
        with pytest.raises(EmptyUniverseError):
            generate_candidates(toy_dataset, partitions_for(toy_dataset), cfg)

    def test_impossible_min_rows_raises(self, toy_dataset):
        cfg = GenerationConfig(min_rows=toy_dataset.n_rows + 1)
        with pytest.raises(EmptyUniverseError):
            generate_candidates(toy_dataset, partitions_for(toy_dataset), cfg)


class TestCoverageRescue:
    def test_cap_of_one_recovers_coverage(self, toy_dataset):
        cfg = GenerationConfig(
            degree=1,
            dominance_threshold=0.0,
            min_rows=1,
            max_candidates=1,
            min_coverage=0.99,
        )
        uni = generate_candidates(toy_dataset, partitions_for(toy_dataset), cfg)
        assert uni.coverage >= 0.99
        assert len(uni) > 1  # the cap alone cannot cover the data

    def test_cap_respected_when_coverage_already_met(self):
        # one feature, wide shoulder sets: a single best rule covers all rows
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(40, 1))
        ds = Dataset("flat", ("x",), x, "y", x[:, 0] * 2.0)
        cfg = GenerationConfig(
            degree=1, dominance_threshold=0.0, min_rows=1, min_coverage=0.0
        )
        uni = generate_candidates(ds, partitions_for(ds), cfg)
        capped = generate_candidates(
            ds,
            partitions_for(ds),
            GenerationConfig(
                degree=1,
                dominance_threshold=0.0,
                min_rows=1,
                min_coverage=0.0,
                max_candidates=2,
            ),
        )
        assert len(capped) == min(2, len(uni))


class TestRuleQuality:
    def test_clamp_bounds_come_from_consequent_set(self, toy_dataset):
        parts = partitions_for(toy_dataset)
        uni = generate_candidates(toy_dataset, parts, OPEN_CONFIG)
        tpart = parts[toy_dataset.target_name]
        for rule in uni.rules:
            assert rule.clamp_bounds == tpart.set_named(rule.consequent_set).support

    def test_dominance_fields_populated(self, toy_dataset):
        uni = generate_candidates(
            toy_dataset, partitions_for(toy_dataset), OPEN_CONFIG
        )
        for rule in uni.rules:
            lo, hi = rule.fuzzy_dominance
            assert 0.0 <= lo <= hi <= 1.0
            assert 0.0 < rule.error_dominance <= 1.0

    def test_polynomial_variables_subset_of_antecedent(self, toy_dataset):
        uni = generate_candidates(
            toy_dataset, partitions_for(toy_dataset), OPEN_CONFIG
        )
        for rule in uni.rules:
            ant_vars = {v for v, _ in rule.antecedent}
            assert set(rule.consequent_fn.variables) <= ant_vars


class TestDeterminism:
    def test_identical_runs_export_identically(self):
        a = make_dataset(seed=31, n=150)
        b = make_dataset(seed=31, n=150)
        cfg = GenerationConfig(degree=2)
        ua = generate_candidates(a, partitions_for(a), cfg)
        ub = generate_candidates(b, partitions_for(b), cfg)
        assert dumps(universe_to_dict(ua)) == dumps(universe_to_dict(ub))

    def test_ordering_is_dominance_first(self, toy_dataset):
        uni = generate_candidates(
            toy_dataset, partitions_for(toy_dataset), OPEN_CONFIG
        )
        # ignoring rescue additions at the tail, the selected block is
        # sorted by descending upper dominance
        cap = min(len(uni), OPEN_CONFIG.max_candidates)
        doms = [r.fuzzy_dominance[1] for r in uni.rules[:cap]]
        assert all(a >= b - 1e-12 for a, b in zip(doms, doms[1:]))


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"degree": 0},
            {"degree": 4},
            {"max_antecedent": 0},
            {"max_candidates": 0},
            {"dominance_threshold": -0.1},
            {"tnorm": "lukasiewicz"},
            {"ridge": -1.0},
            {"min_rows": 0},
            {"min_coverage": 1.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GenerationConfig(**kwargs)

    def test_dict_roundtrip(self):
        cfg = GenerationConfig(degree=1, tnorm="product", min_rows=4)
        assert decode(GenerationConfig, json.loads(json.dumps(asdict(cfg)))) == cfg
