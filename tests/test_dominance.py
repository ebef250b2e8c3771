import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hit2mtsk import (
    Dataset,
    GenerationConfig,
    HybridRule,
    Polynomial,
    ZeroSupportError,
    build_partition,
    error_dominance,
    fuzzy_dominance,
    generate_candidates,
)
from hit2mtsk.dominance import (
    combine_dominance,
    confidence_interval,
    support_interval,
)

from conftest import make_dataset
from oracles import trapezoid_membership
from test_universe import partitions_for

# ---------------------------------------------------------------------------
# brute-force oracle: plain python loops over every instance, recomputing
# each membership scalar-by-scalar through the trapezoid oracle
# ---------------------------------------------------------------------------


def oracle_support_confidence(rule, dataset, partitions, tnorm="minimum"):
    n = dataset.n_rows
    s_lo = s_hi = 0.0
    num_lo = num_hi = 0.0
    den_lo = den_hi = 0.0
    for p in range(n):
        f_lo, f_hi = 1.0, 1.0
        for var, set_name in rule.antecedent:
            m_lo, m_hi = trapezoid_membership(
                partitions[var].set_named(set_name), float(dataset.column(var)[p])
            )
            if tnorm == "minimum":
                f_lo, f_hi = min(f_lo, m_lo), min(f_hi, m_hi)
            else:
                f_lo, f_hi = f_lo * m_lo, f_hi * m_hi
        c_lo, c_hi = trapezoid_membership(
            partitions[dataset.target_name].set_named(rule.consequent_set),
            float(dataset.y[p]),
        )
        s_lo += f_lo * c_lo
        s_hi += f_hi * c_hi
        num_lo += f_lo * c_lo
        num_hi += f_hi * c_hi
        den_lo += f_lo
        den_hi += f_hi
    support = (s_lo / n, s_hi / n)
    c_lo = min(max(num_lo / den_lo if den_lo > 0 else 0.0, 0.0), 1.0)
    c_hi = min(max(num_hi / den_hi if den_hi > 0 else 0.0, 0.0), 1.0)
    confidence = (c_lo, c_hi) if c_lo <= c_hi else (c_hi, c_lo)
    return support, confidence


def random_setup(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    n_feat = int(rng.integers(1, 4))
    names = tuple(f"f{i}" for i in range(n_feat))
    X = rng.uniform(0.0, 10.0, size=(n, n_feat))
    # force spread so partitions are non-degenerate
    X[0] = 0.0
    X[-1] = 10.0
    y = rng.uniform(0.0, 5.0, size=n)
    y[0], y[-1] = 0.0, 5.0
    ds = Dataset(name=f"t{seed}", feature_names=names, X=X, target_name="t", y=y)
    parts = {
        name: build_partition(ds.column(name), num_sets=3, variable=name)
        for name in names
    }
    parts["t"] = build_partition(y, num_sets=3, variable="t")
    k = int(rng.integers(1, n_feat + 1))
    chosen = rng.choice(n_feat, size=k, replace=False)
    antecedent = tuple(
        (names[j], parts[names[j]].sets[int(rng.integers(0, 3))].name)
        for j in sorted(chosen)
    )
    cons = parts["t"].sets[int(rng.integers(0, 3))].name
    rule = HybridRule(
        antecedent=antecedent,
        consequent_set=cons,
        consequent_fn=Polynomial(1, (), ((),), (2.5,)),
        clamp_bounds=parts["t"].set_named(cons).support,
    )
    return rule, ds, parts


def assert_matches_oracle(rule, ds, parts, tnorm):
    want_s, want_c = oracle_support_confidence(rule, ds, parts, tnorm)
    try:
        got = fuzzy_dominance(rule, ds, parts, tnorm)
    except ZeroSupportError:
        # oracle denominator must agree that nothing fired
        assert want_s[1] == 0.0
        return
    for got_i, want_i in ((got.support, want_s), (got.confidence, want_c)):
        assert got_i[0] == pytest.approx(want_i[0], abs=1e-12)
        assert got_i[1] == pytest.approx(want_i[1], abs=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_support_and_confidence_match_bruteforce(self, seed):
        rule, ds, parts = random_setup(seed)
        assert_matches_oracle(rule, ds, parts, "minimum")

    @pytest.mark.parametrize("seed", range(25))
    def test_product_tnorm_against_oracle(self, seed):
        rule, ds, parts = random_setup(seed)
        assert_matches_oracle(rule, ds, parts, "product")


class TestSupportEdgeCases:
    def test_single_instance_full_match(self):
        f = np.array([1.0])
        assert support_interval(f, f, f, f) == (1.0, 1.0)

    def test_nothing_fires(self):
        z = np.zeros(4)
        ones = np.ones(4)
        assert support_interval(z, z, ones, ones) == (0.0, 0.0)

    def test_duplicating_rows_leaves_support_and_confidence_unchanged(self):
        rng = np.random.default_rng(5)
        f_lo = rng.uniform(0, 1, 6)
        f_hi = np.minimum(f_lo + rng.uniform(0, 0.3, 6), 1.0)
        m_lo = rng.uniform(0, 1, 6)
        m_hi = np.minimum(m_lo + rng.uniform(0, 0.3, 6), 1.0)
        twice = lambda a: np.concatenate([a, a])
        assert support_interval(f_lo, f_hi, m_lo, m_hi) == pytest.approx(
            support_interval(twice(f_lo), twice(f_hi), twice(m_lo), twice(m_hi))
        )
        assert confidence_interval(f_lo, f_hi, m_lo, m_hi) == pytest.approx(
            confidence_interval(twice(f_lo), twice(f_hi), twice(m_lo), twice(m_hi))
        )


class TestConfidence:
    def test_all_matching_consequent(self):
        f_lo = np.array([0.2, 0.7, 0.0])
        f_hi = np.array([0.4, 0.9, 0.1])
        ones = np.ones(3)
        assert confidence_interval(f_lo, f_hi, ones, ones) == (1.0, 1.0)

    def test_zero_numerator(self):
        f_lo = np.array([0.2, 0.7])
        f_hi = np.array([0.4, 0.9])
        z = np.zeros(2)
        assert confidence_interval(f_lo, f_hi, z, z) == (0.0, 0.0)

    def test_zero_support_error(self):
        z = np.zeros(3)
        with pytest.raises(ZeroSupportError):
            confidence_interval(z, z, np.ones(3), np.ones(3))

    def test_endpoints_are_sorted(self):
        # raw ratios invert here: lo-bound ratio 0.1/1 > hi-bound 0.1/2
        f_lo = np.array([1.0, 0.0])
        f_hi = np.array([1.0, 1.0])
        m_lo = np.array([0.1, 0.0])
        m_hi = np.array([0.1, 0.0])
        lo, hi = confidence_interval(f_lo, f_hi, m_lo, m_hi)
        assert lo <= hi


class TestErrorDominance:
    def test_worked_value(self):
        assert error_dominance(14.3) == pytest.approx(1.0 / 15.3)
        assert round(error_dominance(14.3), 3) == 0.065

    @pytest.mark.parametrize("rmse,want", [(0.0, 1.0), (1.0, 0.5)])
    def test_trivial_points(self, rmse, want):
        assert error_dominance(rmse) == want

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            error_dominance(-0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            error_dominance(float("nan"))

    def test_strictly_decreasing_bounded(self):
        grid = np.linspace(0.0, 500.0, 1000)
        vals = np.array([error_dominance(r) for r in grid])
        assert np.all(np.diff(vals) < 0)
        assert np.all((vals > 0.0) & (vals <= 1.0))


class TestCombine:
    @given(
        st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)
    )
    @settings(max_examples=100)
    def test_dominance_interval_ordered(self, a, b, c, d):
        s = (min(a, b), max(a, b))
        conf = (min(c, d), max(c, d))
        dom = combine_dominance(s, conf)
        assert 0.0 <= dom.dominance[0] <= dom.dominance[1] <= 1.0

    def test_endpoint_products(self):
        dom = combine_dominance((0.2, 0.5), (0.5, 0.8))
        assert dom.dominance == (pytest.approx(0.1), pytest.approx(0.4))

    def test_fires_nowhere_dominance_zero(self):
        dom = combine_dominance((0.0, 0.0), (0.0, 0.0))
        assert dom.dominance == (0.0, 0.0)


def test_fuzzy_dominance_combines_support_and_confidence():
    rule, ds, parts = random_setup(1)
    dom = fuzzy_dominance(rule, ds, parts)
    s, c = dom.support, dom.confidence
    lo, hi = sorted((s[0] * c[0], s[1] * c[1]))
    assert dom.dominance == (pytest.approx(lo), pytest.approx(hi))


@pytest.mark.parametrize("tnorm", ["minimum", "product"])
@pytest.mark.parametrize("seed", range(2))
def test_fuzzy_dominance_grades_as_generation_bitwise(seed, tnorm):
    ds = make_dataset(seed=seed, n=300)
    parts = partitions_for(ds)
    universe, _ = generate_candidates(ds, parts, GenerationConfig(degree=2, tnorm=tnorm))
    for rule in universe.rules:
        assert fuzzy_dominance(rule, ds, parts, tnorm).dominance == rule.fuzzy_dominance


def test_grades_read_only_the_rows_where_the_rule_fires():
    # rows where `a` sits on its High plateau fire no rule on a Low or
    # Medium `a`; interleaved into the data, they must leave each such
    # rule's confidence as it was, bit for bit
    rng = np.random.default_rng(11)
    X = rng.uniform(0.0, 10.0, (3000, 2))
    y = X[:, 0] + np.sin(X[:, 1]) + rng.normal(0.0, 0.5, 3000)
    base = Dataset("base", ("a", "b"), X, "t", y)
    parts = partitions_for(base)
    plateau = parts["a"].set_named("High").upper_params[1]
    extra = np.column_stack(
        [rng.uniform(plateau, 10.0, 1000), rng.uniform(0.0, 10.0, 1000)]
    )
    at = np.repeat(np.arange(0, 3000, 30), 10)  # blocks of 10 every 30 rows
    wide = Dataset(
        "wide",
        ("a", "b"),
        np.insert(X, at, extra, axis=0),
        "t",
        np.insert(y, at, rng.uniform(y.min(), y.max(), 1000)),
    )
    antecedents = [(("a", "Low"),), (("a", "Medium"),), (("a", "Medium"), ("b", "Low"))]
    for antecedent in antecedents:
        for cons in ("Low", "Medium", "High"):
            rule = HybridRule(
                antecedent=antecedent,
                consequent_set=cons,
                consequent_fn=Polynomial(1, (), ((),), (0.0,)),
                clamp_bounds=parts["t"].set_named(cons).support,
            )
            assert (
                fuzzy_dominance(rule, wide, parts).confidence
                == fuzzy_dominance(rule, base, parts).confidence
            )
