import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hit2mtsk import (
    Dataset,
    DegeneratePartitionError,
    EmptyUniverseError,
    GenerationConfig,
    generate_candidates,
    save_model,
    save_universe,
    train_model,
)
from hit2mtsk.it2 import TNORMS, build_partition, fire
from hit2mtsk.persist import decode, dumps, universe_to_dict
from hit2mtsk.universe import _candidate_keys

from conftest import make_dataset, small_train_config
from oracles import candidate_keys, firing_strength


def partitions_for(dataset, num_sets=3):
    parts = {
        name: build_partition(dataset.column(name), num_sets, variable=name)
        for name in dataset.feature_names
    }
    parts[dataset.target_name] = build_partition(
        dataset.y, num_sets, variable=dataset.target_name
    )
    return parts


def four_feature_dataset(seed: int = 5, n: int = 240) -> Dataset:
    """Smooth 4-feature surface with a cross term, a square and noise."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, 4))
    y = (
        1.0
        + 2.0 * X[:, 0]
        - X[:, 1] * X[:, 2]
        + 0.5 * X[:, 3] ** 2
        + rng.normal(0.0, 0.1, n)
    )
    return Dataset("four", ("x1", "x2", "x3", "x4"), X, "y", y)


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
                if firing_strength(clauses, values)[1] > 0:
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
        with pytest.raises(DegeneratePartitionError, match="feature"):
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
                if firing_strength(clauses, values)[1] > 0:
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

    def test_fires_each_antecedent_once(self, toy_dataset, monkeypatch):
        # with a cap of one the rescue runs, and it reuses grading's firing
        calls = []

        def counted(mem, ant, tnorm):
            calls.append(ant)
            return fire(mem, ant, tnorm)

        monkeypatch.setattr("hit2mtsk.universe.fire", counted)
        parts = partitions_for(toy_dataset)
        cfg = GenerationConfig(
            degree=1, dominance_threshold=0.0, min_rows=1, max_candidates=1
        )
        uni = generate_candidates(toy_dataset, parts, cfg)
        assert len(uni) > 1
        names = toy_dataset.feature_names
        mem = [parts[v].membership_matrix(toy_dataset.column(v)) for v in names]
        by_ant = _candidate_keys(
            np.stack([u.argmax(axis=1) for _, u in mem], axis=1),
            parts["y"].membership_matrix(toy_dataset.y)[1].argmax(axis=1),
            [len(parts[v].sets) for v in names],
            min(cfg.max_antecedent, len(names)),
        )
        assert len(calls) == len(by_ant)

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


@st.composite
def seed_tables(draw):
    """(feat_arg, cons_arg, num_sets, max_antecedent) of 1-6 features
    with 2-40 sets each; max_antecedent may exceed the feature count."""
    num_features = draw(st.integers(1, 6))
    num_sets = draw(
        st.lists(st.integers(2, 40), min_size=num_features, max_size=num_features)
    )
    target_sets = draw(st.integers(2, 40))
    rows = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a small palette of distinct seeds, so that rows repeat
    palette = draw(st.integers(1, rows))
    pick = rng.integers(0, palette, rows)
    feat_arg = rng.integers(0, num_sets, (palette, num_features))[pick]
    cons_arg = rng.integers(0, target_sets, palette)[pick]
    return feat_arg, cons_arg, num_sets, draw(st.integers(1, num_features + 2))


def _overflowing_tables():
    # 12 features and a target of 40 sets: a mixed-radix code of a whole
    # seed would need 40**13 > 2**63 values
    rng = np.random.default_rng(0)
    feat_arg = rng.integers(0, 40, (6, 12))
    feat_arg[:, 0] = 39
    return feat_arg, np.full(6, 39), [40] * 12, 12


class TestEnumeration:
    def test_example_overflows_a_mixed_radix_code(self):
        feat_arg, _, num_sets, _ = _overflowing_tables()
        assert 40 * math.prod(num_sets) > np.iinfo(np.int64).max

    @settings(max_examples=60, deadline=None)
    @example(tables=_overflowing_tables())
    @given(tables=seed_tables())
    def test_keys_match_tuple_at_a_time_clause_deletion(self, tables):
        feat_arg, cons_arg, num_sets, max_antecedent = tables
        max_len = min(max_antecedent, feat_arg.shape[1])
        by_ant = _candidate_keys(feat_arg, cons_arg, num_sets, max_len)
        keys = [(ant, cons) for ant, conses in by_ant.items() for cons in conses]
        assert len(keys) == len(set(keys))
        assert set(keys) == candidate_keys(feat_arg, cons_arg, max_antecedent)

    @settings(max_examples=15, deadline=None)
    @given(
        num_features=st.integers(1, 6),
        num_sets=st.integers(2, 40),
        rows=st.integers(4, 16),
        tnorm=st.sampled_from(TNORMS),
        max_antecedent=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_universe_holds_every_derived_key_that_fires(
        self, num_features, num_sets, rows, tnorm, max_antecedent, seed
    ):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, (rows, num_features))
        names = tuple(f"x{j}" for j in range(num_features))
        ds = Dataset("drawn", names, X, "y", X.sum(axis=1) + rng.random(rows))
        parts = partitions_for(ds, num_sets)
        uni = generate_candidates(
            ds,
            parts,
            GenerationConfig(
                degree=1,
                max_antecedent=max_antecedent,
                max_candidates=10**6,
                dominance_threshold=0.0,
                tnorm=tnorm,
                min_rows=1,
                min_coverage=0.0,
            ),
        )
        mem = [parts[v].membership_matrix(ds.column(v)) for v in names]
        t_upp = parts["y"].membership_matrix(ds.y)[1]
        seeds = np.stack([u.argmax(axis=1) for _, u in mem], axis=1)
        want = {
            (ant, cons)
            for ant, cons in candidate_keys(
                seeds, t_upp.argmax(axis=1), max_antecedent
            )
            if np.any(fire(mem, ant, tnorm)[1] > 0.0)
        }
        got = {
            (
                tuple(
                    (names.index(v), parts[v].index_of(s))
                    for v, s in rule.antecedent
                ),
                parts["y"].index_of(rule.consequent_set),
            )
            for rule in uni.rules
        }
        assert got == want


class TestPinnedOutput:
    """sha256 of generation's artifacts, recorded with the tuple-at-a-time
    enumeration and per-rule designs that the integer-coded enumeration
    and the per-subset designs replaced: both must produce every byte
    as before.  The floats depend on the numpy and BLAS build; these
    were recorded with numpy 2.4 and OpenBLAS on x86-64."""

    @staticmethod
    def sha256(path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_trained_universe_and_model(self, tmp_path):
        result = train_model(four_feature_dataset(), small_train_config(degree=3))
        save_universe(result.universe, tmp_path / "universe.json")
        save_model(result.model, tmp_path / "model.json")
        assert len(result.universe) == 125
        assert self.sha256(tmp_path / "universe.json") == (
            "b5c4f3923343b7e25d1ba6006520472b664dd83e4ebaeb11c68addfe7cf7fe8a"
        )
        assert self.sha256(tmp_path / "model.json") == (
            "9987e22b1c21f0e5abba851fb8afdccbc10c1dfc797399c873ccc8880f9bb27f"
        )

    def test_rescued_universe(self, tmp_path):
        ds = four_feature_dataset()
        uni = generate_candidates(
            ds, partitions_for(ds, 5), GenerationConfig(degree=3, max_candidates=2)
        )
        save_universe(uni, tmp_path / "universe.json")
        assert len(uni) == 5  # three rules rescued past the cap of two
        assert self.sha256(tmp_path / "universe.json") == (
            "d48e3113221a4088e5a7cc378effd6b3174444e239d70aa26f4f404a4f66df5c"
        )
