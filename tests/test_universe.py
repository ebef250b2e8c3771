import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import warnings
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

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
    predict_values,
    save_model,
    save_universe,
    train_model,
)
import hit2mtsk.universe
from hit2mtsk.it2 import TNORMS, build_partition, fire
from hit2mtsk.persist import decode, dumps, universe_to_dict
from hit2mtsk.rules import rmse
from hit2mtsk.universe import _candidate_keys

from conftest import make_dataset, small_train_config
from oracles import candidate_keys, firing_strength
from test_inference import bits


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
        uni, _ = generate_candidates(toy_dataset, parts, OPEN_CONFIG)
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
        uni, _ = generate_candidates(ds, partitions_for(ds), OPEN_CONFIG)
        # 3 antecedent sets x 3 consequent sets is the hard ceiling
        assert 1 <= len(uni) <= 9
        assert all(len(r.antecedent) == 1 for r in uni.rules)

    def test_no_duplicate_rules(self, toy_dataset):
        uni, _ = generate_candidates(
            toy_dataset, partitions_for(toy_dataset), OPEN_CONFIG
        )
        keys = [(r.antecedent, r.consequent_set) for r in uni.rules]
        assert len(keys) == len(set(keys))

    def test_max_antecedent_respected(self, toy_dataset):
        cfg = GenerationConfig(
            degree=1, max_antecedent=1, dominance_threshold=0.0, min_rows=1
        )
        uni, _ = generate_candidates(toy_dataset, partitions_for(toy_dataset), cfg)
        assert all(len(r.antecedent) == 1 for r in uni.rules)

    def test_unpartitioned_feature_never_appears(self, toy_dataset):
        parts = partitions_for(toy_dataset)
        del parts["x2"]
        uni, _ = generate_candidates(toy_dataset, parts, OPEN_CONFIG)
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
        uni, _ = generate_candidates(toy_dataset, parts, cfg)
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
        loose, _ = generate_candidates(
            toy_dataset,
            parts,
            GenerationConfig(degree=1, dominance_threshold=0.0, min_rows=1),
        )
        tight, _ = generate_candidates(
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
        uni, _ = generate_candidates(toy_dataset, partitions_for(toy_dataset), cfg)
        assert uni.coverage >= 0.99
        assert len(uni) > 1  # the cap alone cannot cover the data

    def test_fires_each_antecedent_once(self, toy_dataset, monkeypatch):
        # with a cap of one the rescue runs, and it reuses grading's firing
        calls = []

        def counted(lower, upper, clauses, tnorm):
            calls.append(clauses)
            return fire(lower, upper, clauses, tnorm)

        monkeypatch.setattr("hit2mtsk.universe.fire", counted)
        parts = partitions_for(toy_dataset)
        cfg = GenerationConfig(
            degree=1, dominance_threshold=0.0, min_rows=1, max_candidates=1
        )
        uni, _ = generate_candidates(toy_dataset, parts, cfg)
        assert len(uni) > 1
        names = toy_dataset.feature_names
        mem = [parts[v].membership_matrix(toy_dataset.column(v)) for v in names]
        by_ant = _candidate_keys(
            np.stack([u.argmax(axis=0) for _, u in mem], axis=1),
            parts["y"].membership_matrix(toy_dataset.y)[1].argmax(axis=0),
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
        uni, _ = generate_candidates(ds, partitions_for(ds), cfg)
        capped, _ = generate_candidates(
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


def friedman_dataset(seed: int = 3, n: int = 200) -> Dataset:
    """Friedman #1 over its five informative features, unit noise."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, 5))
    y = (
        10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20.0 * (X[:, 2] - 0.5) ** 2
        + 10.0 * X[:, 3]
        + 5.0 * X[:, 4]
        + rng.normal(0.0, 1.0, n)
    )
    return Dataset("friedman", tuple(f"x{j + 1}" for j in range(5)), X, "y", y)


# dataset, max_candidates, min_coverage, min_rows, dominance_threshold,
# universe size, and the sha256 of universe.json without each rule's
# fitted polynomial and error dominance; recorded when the cap, the
# coverage pre-pass and the rescue ladder were separate sorted lists.
# The threshold 0.2 rows rescue candidates that fail the threshold.
RANKED_CHOICE = """
toy           1 0.0  None 0.01   1 ef7df9aeb9de9690b467f38d24d0157fed9b3b7d514b6d3333a3880beb097f19
toy           1 0.0  1    0.01   1 9b304d55412f5facc51ce8f6ecfd5f4441a0f21302fb8af14514deaff3cba7c3
toy           1 0.99 None 0.01   5 959894ec6b9b26bab8ba279a6e325582cdbba2e8b3e3f57e83e4454d0a671c23
toy           1 0.99 1    0.01   5 52a81048787af67f578a335d22697ece06555a2ab4595fa8a39d3c403a7da55a
toy           1 1.0  None 0.01   5 ad21d1ddf5d6d931223dbf10e9062d9493b58321be398f501bf13a73f7785433
toy           1 1.0  1    0.01   5 8fde80edebf4a9ab274b27f186a79c2d5d88159bb01dc5b7324ecb99914de6a3
toy           5 0.0  None 0.01   5 30454c9f3734873799e3a1c487d173c6c23cf0bc99a8985b1b45768dd1b1931d
toy           5 0.0  1    0.01   5 938842d6c819f16532ee9b131682c6d6d8f55dc0d1d4e5d572fe7aa507065d96
toy           5 0.99 None 0.01   6 c6aef2da58733d6a321361184e2dbfade4c0090694851ca88c95b94d042b794e
toy           5 0.99 1    0.01   6 805ee74b42a30f99794144e4e1396718871a6cbbfc0cb865d3ba41c03d180c02
toy           5 1.0  None 0.01   6 00f404b0fe98217593ab3568de18ea56cea2e0f109bf73080f9bb96fb39578a4
toy           5 1.0  1    0.01   6 7db2a0ffb9a921cbfefd447e61bb80fb10a87ce133b0f66e95786715739a1eae
toy      100000 0.0  None 0.01  22 2238999388a42e06c0744f03800635aeb8285b2569cf2c45b3ac2c431951eeb9
toy      100000 0.0  1    0.01  22 80138e27e9255592cb84203598108fbbb9f203fb11283047e076d02412b957c2
toy      100000 0.99 None 0.01  22 c77594aab04c14e55334de250488ce6a0a52a72cf7fed81cd64f2b1fdd63285b
toy      100000 0.99 1    0.01  22 9af4a9582af752cbecde76e14aa367374175311f51ca767c72398a016fbccbb0
toy      100000 1.0  None 0.01  22 64e68914fd888ca6525705f61b96c6614187ea89a6b4026f396bfbcb3da70697
toy      100000 1.0  1    0.01  22 5ce6cbe8c040978e3dc71b96162e4ac0588fba63e1f10e9902514c888aab32a2
toy           5 1.0  None 0.2    6 3f611c61384bc47e40553b2b067f5dfc67cd31ab082e7fd2b93c99d2c1946a7a
toy      100000 1.0  None 0.2    6 98daecca49009fdd86255d90ed82c887f0c680b2fbc6299d0e922a259a7ffdad
friedman      1 0.0  None 0.01   1 bc17a988c374a997af6c180069cd2774e24376a051421107ce3fc1ad41d8caff
friedman      1 0.0  1    0.01   1 f1a88c6bc0f4701da5e70808d0ba5ca48ca88b4da00011f9f65712933085a596
friedman      1 0.99 None 0.01   5 9df8be6834ad58086f0683711feb8d8a98b8c6b4590704191499753f7f346390
friedman      1 0.99 1    0.01   5 75d11389e48ccb1b0f39f818309ae2a5e44a41880ae577bd652df567a6263af4
friedman      1 1.0  None 0.01   6 b8389996dc50e45bb7c710de4ab8a22d1b1a3fe73ef446026666cea28a2df73d
friedman      1 1.0  1    0.01   6 423530bd6fe3ba4426f8a8f2105ad66da5c65812805c86926e916cf3560a1914
friedman      5 0.0  None 0.01   5 77567f4f9c84b3d0dd3ab59c2d96b3ce3945d474aa5914dbc474e5eade825245
friedman      5 0.0  1    0.01   5 c7487bcd2a6fd88b2251b5da89db58d0ab3db0cc4fff3b225fabdeba4a490a59
friedman      5 0.99 None 0.01   5 71dc0beff6095fd603b4c53ed983f25555efae98f618c8619ddfa027630140e7
friedman      5 0.99 1    0.01   5 7ad50490811634830e37e40edb03931edab774bfdcd883c1a84070c782631259
friedman      5 1.0  None 0.01   6 1665f877b1696ab9361b507ee819e0409c13ebb83bca5569cb0dde961228c3e6
friedman      5 1.0  1    0.01   6 1182868ee64c02b99915d2c050ea37bb8febdbf2d25801c592c7d9820bd024bf
friedman 100000 0.0  None 0.01 188 8488f575557e2dc5e333a819cf89debf2f0b76fae4f1ab18b93eb52998398205
friedman 100000 0.0  1    0.01 345 06609145809ac99251f4975be92e6348933c8975dd52985662774453c952cf37
friedman 100000 0.99 None 0.01 188 d2aef2d53809b1a577c1b12061d8aa2ba44d2db54aa197597f7a9b08bcf139f7
friedman 100000 0.99 1    0.01 345 6099666032e628cd9db12fc2f959fd732c5ce994e061542bbcc139b2e2f298be
friedman 100000 1.0  None 0.01 188 ddd7cb4e1acf706950e84175a449483d98e3b930e9d51e0c1b36a378268cc154
friedman 100000 1.0  1    0.01 345 c6e2451c4658d27fd39dc70b064196bed16542fe0ea3b464cfb67506de1f7675
friedman      5 1.0  None 0.2    6 2f0feee2f3851e38fa8a81307bdc470567e29965193f0809d890746d50c7e0d2
friedman 100000 1.0  None 0.2   11 47c3f150e61b9268eb974c6581b09716f5ea33fd675e66e78f9121624064f511
"""


class TestRankedChoice:
    """Generation chooses its candidates in one ranked pass, as the
    two-sort funnel it replaced chose them: the same rules in the same
    order, with the same grades, partitions and coverage.  The fits are
    left out of the digest: their last bits depend on the host's BLAS
    and SIMD dispatch, the choice's do not."""

    DATASETS = {"toy": make_dataset, "friedman": friedman_dataset}

    @staticmethod
    def choice_sha256(uni, path) -> str:
        save_universe(uni, path)
        doc = json.loads(path.read_text())
        for rule in doc["rules"]:
            del rule["consequent_fn"], rule["error_dominance"]
        return hashlib.sha256(dumps(doc).encode()).hexdigest()

    @staticmethod
    def generate(name, cap, cov, min_rows, threshold):
        ds = TestRankedChoice.DATASETS[name]()
        cfg = GenerationConfig(
            max_candidates=int(cap),
            min_coverage=float(cov),
            min_rows=None if min_rows == "None" else int(min_rows),
            dominance_threshold=float(threshold),
        )
        return generate_candidates(ds, partitions_for(ds), cfg)[0]

    @pytest.mark.parametrize(
        "case",
        RANKED_CHOICE.strip().splitlines(),
        ids=lambda case: "-".join(case.split()[:5]),
    )
    def test_choice_pinned(self, tmp_path, case):
        *key, size, digest = case.split()
        uni = self.generate(*key)
        assert len(uni) == int(size)
        assert uni.coverage >= uni.config.min_coverage
        assert self.choice_sha256(uni, tmp_path / "universe.json") == digest


class TestRuleQuality:
    def test_clamp_bounds_come_from_consequent_set(self, toy_dataset):
        parts = partitions_for(toy_dataset)
        uni, _ = generate_candidates(toy_dataset, parts, OPEN_CONFIG)
        tpart = parts[toy_dataset.target_name]
        for rule in uni.rules:
            assert rule.clamp_bounds == tpart.set_named(rule.consequent_set).support

    def test_dominance_fields_populated(self, toy_dataset):
        uni, _ = generate_candidates(
            toy_dataset, partitions_for(toy_dataset), OPEN_CONFIG
        )
        for rule in uni.rules:
            lo, hi = rule.fuzzy_dominance
            assert 0.0 <= lo <= hi <= 1.0
            assert 0.0 < rule.error_dominance <= 1.0

    def test_polynomial_variables_subset_of_antecedent(self, toy_dataset):
        uni, _ = generate_candidates(
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
        ua, _ = generate_candidates(a, partitions_for(a), cfg)
        ub, _ = generate_candidates(b, partitions_for(b), cfg)
        assert dumps(universe_to_dict(ua)) == dumps(universe_to_dict(ub))

    def test_ordering_is_dominance_first(self, toy_dataset):
        uni, _ = generate_candidates(
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
        uni, _ = generate_candidates(
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
        seeds = np.stack([u.argmax(axis=0) for _, u in mem], axis=1)

        def fires(ant):
            lower, upper = (np.array([m[b][s] for m, s in ant]) for b in (0, 1))
            return np.any(fire(lower, upper, range(len(ant)), tnorm)[1] > 0.0)

        want = {
            (ant, cons)
            for ant, cons in candidate_keys(
                seeds, t_upp.argmax(axis=0), max_antecedent
            )
            if fires([(mem[j], s) for j, s in ant])
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
    as before.  The masked digests are of the same documents with every
    ``fuzzy_dominance`` field removed, recorded before grading moved from
    a BLAS dot over every row to a numpy sum over the fired rows: that
    move changed the grades' last bits and nothing else.  The grades no
    longer depend on the BLAS build, but the consequent fits do; these
    were recorded with numpy 2.4 and OpenBLAS on x86-64.  The model's
    digest without its ``manifest`` was recorded before selection
    scored the whole training fold instead of fit rows then validation
    rows: that move changed only the manifest's ``selection_cost``."""

    @staticmethod
    def sha256(path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @staticmethod
    def masked_sha256(path, key="fuzzy_dominance") -> str:
        def strip(node):
            if isinstance(node, dict):
                return {k: strip(v) for k, v in node.items() if k != key}
            if isinstance(node, list):
                return [strip(v) for v in node]
            return node

        text = dumps(strip(json.loads(path.read_text())))
        return hashlib.sha256(text.encode()).hexdigest()

    def test_trained_universe_and_model(self, tmp_path):
        result = train_model(four_feature_dataset(), small_train_config(degree=3))
        save_universe(result.universe, tmp_path / "universe.json")
        save_model(result.model, tmp_path / "model.json")
        assert len(result.universe) == 125
        assert self.sha256(tmp_path / "universe.json") == (
            "f47ffe57873f3d498768d34a66fcc15c571be574a0657a58ce3c4e36f683aace"
        )
        assert self.sha256(tmp_path / "model.json") == (
            "b02267b85ef01eac19a57a45c5bcc841ed9435d6b7c42a954053f105e2d6784c"
        )
        assert self.masked_sha256(tmp_path / "universe.json") == (
            "8c7a4f4eda770db39fc43e9626424d37d66c92bb9cb8ca610ccff469dff00794"
        )
        assert self.masked_sha256(tmp_path / "model.json") == (
            "f2059a30ca6fff81b6e1dc1a250cf02e228490a4d51247c53f6b9cc8ec7c3722"
        )
        assert self.masked_sha256(tmp_path / "model.json", key="manifest") == (
            "e843561578302b0989e0250947b4405b6f9f3b4b3267c7ca0c7a529728aca32d"
        )

    @pytest.mark.parametrize("tnorm", ["minimum", "product"])
    @pytest.mark.parametrize("reduction", ["midpoint", "lower", "upper"])
    def test_selection_cost_is_the_saved_models_rmse(self, reduction, tnorm):
        # some training rows are fired by no selected rule (one by default),
        # so the cost holds only if selection falls back to the model's own
        # fallback value, and fires and weighs as the model does
        ds = four_feature_dataset()
        base = small_train_config(degree=3)
        config = replace(
            base,
            generation=replace(base.generation, tnorm=tnorm),
            firing_reduction=reduction,
        )
        model = train_model(ds, config).model
        assert (model.tnorm, model.firing_reduction) == (tnorm, reduction)
        values, _, fallback = predict_values(model, ds)
        assert fallback.any()
        if config == base:
            assert fallback.sum() == 1
        assert model.manifest["selection_cost"] == rmse(values, ds.y)

    def test_rescued_universe(self, tmp_path):
        ds = four_feature_dataset()
        uni, _ = generate_candidates(
            ds, partitions_for(ds, 5), GenerationConfig(degree=3, max_candidates=2)
        )
        save_universe(uni, tmp_path / "universe.json")
        assert len(uni) == 5  # three rules rescued past the cap of two
        assert self.sha256(tmp_path / "universe.json") == (
            "459d2c2c1b874b9f2077da78829b319b245df4d928432cb540109836b7fecc9d"
        )
        assert self.masked_sha256(tmp_path / "universe.json") == (
            "5ccefe755f98a9e59495ba5f91c2d70ef88fe9113befe1a41e9e07f14f29bfef"
        )


def forced_fit_helper(monkeypatch):
    """Make `generate_candidates` fork its helper on 2 usable cores
    whatever its work.  Returns the list the helper's pid is recorded
    into and the list of the subset lists it is sent."""
    monkeypatch.setattr(hit2mtsk.universe, "HELPER_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids, sent = [], []
    fork = os.fork

    def recorded_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    class Recorded(hit2mtsk.universe.Helper):
        def send(self, items):
            sent.append(list(items))
            super().send(items)

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(hit2mtsk.universe, "Helper", Recorded)
    return pids, sent


class TestGenerationHelper:
    """Candidates fitted on a forked helper process give the serial
    universe and cells bit for bit, whichever process fitted which
    candidate and whatever befalls the helper.  The suite's autouse
    fixture checks that no test leaves a child process."""

    # 120 rows over 5 sets: some fits degrade to degree 1, some to a constant
    DS = four_feature_dataset(n=120)
    CFG = GenerationConfig(
        degree=3, min_rows=1, dominance_threshold=0.0, max_candidates=100_000
    )

    def generate(self, tnorm="minimum"):
        cfg = replace(self.CFG, tnorm=tnorm)
        return generate_candidates(self.DS, partitions_for(self.DS, 5), cfg)

    @staticmethod
    def assert_same(got, want):
        (uni, cells), (ref, ref_cells) = got, want
        assert uni == ref and len(cells) == len(ref_cells) == len(ref)
        for c, r in zip(cells, ref_cells):
            assert c.row.dtype == r.row.dtype and np.array_equal(c.row, r.row)
            for a, b in zip(c[1:], r[1:]):
                assert np.array_equal(bits(a), bits(b))

    @staticmethod
    def fit_of(names, effect, helper_only):
        """`fit_consequent`, but ``effect(variables)`` first wherever a fit
        over the variables ``names`` (or any, if None) runs, or only where
        it runs in a forked child."""
        parent, fit = os.getpid(), hit2mtsk.universe.fit_consequent

        def fit_consequent(X, y, variables, *args, **kwargs):
            if names in (None, tuple(variables)) and not (
                helper_only and os.getpid() == parent
            ):
                effect(tuple(variables))
            return fit(X, y, variables, *args, **kwargs)

        return fit_consequent

    def test_the_dataset_fits_degrade(self):
        uni, _ = self.generate()
        shapes = {(r.consequent_fn.degree, bool(r.consequent_fn.variables)) for r in uni.rules}
        assert shapes == {(3, True), (1, True), (1, False)}

    @pytest.mark.parametrize("tnorm", ["minimum", "product"])
    def test_a_helper_generates_as_this_process_alone(self, monkeypatch, tnorm):
        serial = self.generate(tnorm)
        pids, sent = forced_fit_helper(monkeypatch)
        own = []  # the variables of every fit this process runs
        watched = self.fit_of(None, own.append, helper_only=False)
        monkeypatch.setattr(hit2mtsk.universe, "fit_consequent", watched)
        got = self.generate(tnorm)
        assert len(pids) == 1
        # the helper was sent some of the clause subsets, and fitted them
        subsets = [tuple(v for v, _ in r.antecedent) for r in serial[0].rules]
        theirs = {tuple(f"x{j + 1}" for j in s) for s in sent[0]}
        assert len(sent) == 1 and 0 < len(theirs) < len(set(subsets))
        assert Counter(own) == Counter(s for s in subsets if s not in theirs)
        self.assert_same(got, serial)

    def test_a_refused_fork_leaves_the_result_unchanged(self, monkeypatch):
        serial = self.generate()
        _, sent = forced_fit_helper(monkeypatch)

        def refused():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", refused)
        self.assert_same(self.generate(), serial)
        assert sent == []

    def test_a_helper_killed_before_it_replies_leaves_the_result_unchanged(
        self, monkeypatch
    ):
        serial = self.generate()
        pids, _ = forced_fit_helper(monkeypatch)
        parent = os.getpid()
        fit = hit2mtsk.universe.fit_consequent
        killed = []

        def fit_consequent(*args, **kwargs):
            if os.getpid() != parent:  # the helper never replies
                signal.pause()
            if not killed:  # this process's first fit, after the hand-out
                os.kill(pids[0], signal.SIGKILL)
                # dead, its end of the connection closed, but not reaped
                os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)
                killed.append(pids[0])
            return fit(*args, **kwargs)

        monkeypatch.setattr(hit2mtsk.universe, "fit_consequent", fit_consequent)
        got = self.generate()
        assert killed == pids and len(pids) == 1
        self.assert_same(got, serial)

    @pytest.mark.parametrize("kind", ["raises", "warns"])
    def test_a_fit_failing_in_the_helper_alone_is_redone_here(self, monkeypatch, kind):
        serial = self.generate()
        pids, sent = forced_fit_helper(monkeypatch)
        self.generate()
        # a clause subset the helper fits: its first, its heaviest
        names = tuple(f"x{j + 1}" for j in sent[0][0])

        def effect(variables):
            if kind == "raises":
                raise RuntimeError("fit failed")
            warnings.warn("fit warned", RuntimeWarning)

        fit = self.fit_of(names, effect, helper_only=True)
        monkeypatch.setattr(hit2mtsk.universe, "fit_consequent", fit)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing reaches this process
            got = self.generate()
        assert len(pids) == 2 and sent[1] == sent[0]
        self.assert_same(got, serial)

    @pytest.mark.parametrize("side", ["helper", "this process"])
    def test_a_fit_error_reaches_the_caller_as_in_a_serial_run(self, monkeypatch, side):
        with monkeypatch.context() as m:
            _, sent = forced_fit_helper(m)
            uni, _ = self.generate()
        theirs = sent[0]
        every = {tuple(int(v[1:]) - 1 for v, _ in r.antecedent) for r in uni.rules}
        subset = theirs[0] if side == "helper" else min(every - set(theirs))
        names = tuple(f"x{j + 1}" for j in subset)

        def effect(variables):
            raise ValueError(f"cannot fit over {variables}")

        monkeypatch.setattr(
            hit2mtsk.universe, "fit_consequent", self.fit_of(names, effect, helper_only=False)
        )
        with pytest.raises(ValueError) as serial:
            self.generate()
        pids, _ = forced_fit_helper(monkeypatch)
        with pytest.raises(ValueError) as got:
            self.generate()
        assert len(pids) == 1
        assert type(got.value) is type(serial.value)
        assert str(got.value) == str(serial.value) == f"cannot fit over {names}"

    def test_a_fit_warning_reaches_the_caller_as_in_a_serial_run(self, monkeypatch):
        with monkeypatch.context() as m:
            _, sent = forced_fit_helper(m)
            want = self.generate()
        names = tuple(f"x{j + 1}" for j in sent[0][0])  # the helper's

        def effect(variables):
            warnings.warn(f"fit over {variables} warned", RuntimeWarning)

        monkeypatch.setattr(
            hit2mtsk.universe, "fit_consequent", self.fit_of(names, effect, helper_only=False)
        )
        with pytest.warns(RuntimeWarning) as serial:
            self.assert_same(self.generate(), want)
        pids, _ = forced_fit_helper(monkeypatch)
        with pytest.warns(RuntimeWarning) as got:
            self.assert_same(self.generate(), want)
        assert len(pids) == 1
        assert [str(w.message) for w in got] == [str(w.message) for w in serial]
        assert len(serial) > 0

    def test_forking_beside_a_live_thread_warns_nothing(self, monkeypatch):
        # Python 3.12+ warns when a multi-threaded process forks
        serial = self.generate()
        pids, _ = forced_fit_helper(monkeypatch)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = self.generate()
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(pids) == 1
        self.assert_same(got, serial)

    @pytest.mark.parametrize(
        "case", ["work below HELPER_WORK", "one usable core", "no affinity"]
    )
    def test_a_small_generation_forks_nothing(self, monkeypatch, case):
        # every case but the first would fork on its work
        cores = 1 if case == "one usable core" else 8
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        if case == "no affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        if case != "work below HELPER_WORK":
            monkeypatch.setattr(hit2mtsk.universe, "HELPER_WORK", 0)
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1))
        ds = four_feature_dataset()  # as the suite's toy trains
        uni, _ = generate_candidates(ds, partitions_for(ds), GenerationConfig(degree=3))
        assert forks == [] and len(uni) > 0


BLAS_BEFORE_THE_FORK = """
import os, sys
import numpy as np
a = np.random.default_rng(0).random((400, 400))
a @ a  # OpenBLAS starts its threads before any fork
import hit2mtsk.aco, hit2mtsk.universe
from hit2mtsk import train_model
from hit2mtsk.persist import dumps, model_to_dict
from conftest import small_train_config
from test_universe import four_feature_dataset
ds, cfg = four_feature_dataset(), small_train_config(degree=3)
serial = dumps(model_to_dict(train_model(ds, cfg).model))
hit2mtsk.universe.HELPER_WORK = hit2mtsk.aco.HELPER_WORK = 0
os.sched_getaffinity = lambda pid: {0, 1}
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
forked = dumps(model_to_dict(train_model(ds, cfg).model))
print(len(forks), forked == serial)
"""


def test_forked_fits_run_blas_after_its_threads_started():
    tests = Path(__file__).resolve().parent
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="2",
        PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_BEFORE_THE_FORK],
        cwd=tests, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # one helper for generation's fits and one for ACO's ants
    assert proc.stdout.split() == ["2", "True"]
