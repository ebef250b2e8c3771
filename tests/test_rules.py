import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hit2mtsk.rules
from hit2mtsk.rules import (
    TABLE_CELLS,
    HybridRule,
    Polynomial,
    RuleUnfittableError,
    clamp,
    design_matrix,
    evaluate_terms,
    fit_consequent,
    monomial_exponents,
)

from oracles import polynomial_value, polynomial_values

# ---------------------------------------------------------------------------
# independent oracle: exponent enumeration via cartesian product, plain
# unstandardized normal equations, no code shared with the package
# ---------------------------------------------------------------------------


def oracle_exponents(v: int, degree: int) -> list[tuple[int, ...]]:
    exps = [
        e
        for e in itertools.product(range(degree + 1), repeat=v)
        if sum(e) <= degree
    ]
    exps.sort(key=lambda e: (sum(e),))
    return exps


def oracle_fit(X: np.ndarray, y: np.ndarray, degree: int) -> dict:
    """Coefficients by exponent tuple from raw normal equations."""
    exps = oracle_exponents(X.shape[1], degree)
    M = np.column_stack(
        [np.prod(X ** np.array(e), axis=1) for e in exps]
    )
    beta = np.linalg.solve(M.T @ M, M.T @ y)
    return dict(zip(exps, beta))


def coeffs_by_exponent(poly: Polynomial) -> dict:
    return dict(zip(poly.exponents, poly.coefficients))


class TestMonomials:
    def test_two_vars_degree_two(self):
        exps = monomial_exponents(2, 2)
        assert exps == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_counts(self):
        assert len(monomial_exponents(2, 3)) == 10
        assert len(monomial_exponents(1, 1)) == 2
        assert len(monomial_exponents(3, 3)) == math.comb(6, 3)

    def test_expand_features_matches_exponents(self):
        vec = design_matrix(np.array([[2.0, 3.0]]), 2)[0]
        assert vec.tolist() == [1.0, 2.0, 3.0, 4.0, 6.0, 9.0]

    def test_expand_rejects_bad_degree(self):
        with pytest.raises(ValueError, match="degree"):
            design_matrix(np.array([[1.0]]), 4)

    def test_design_matrix_count_invariant(self):
        X = np.random.default_rng(0).normal(size=(7, 3))
        for d in (1, 2, 3):
            assert design_matrix(X, d).shape[1] == math.comb(3 + d, d)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_row_slice_of_a_subset_design_is_bitwise_its_rows_design(
        self, degree
    ):
        # generation builds one design per clause subset over every row
        # and slices each rule's rows out of it
        rng = np.random.default_rng(degree)
        X = rng.normal(0.0, 1.0, (40, 4)) * 10.0 ** rng.integers(-8, 9, (40, 4))
        X[3, 1] = -0.0
        rows = np.flatnonzero(rng.random(40) < 0.4)
        for size in range(1, 5):
            for subset in itertools.combinations(range(4), size):
                cols = list(subset)
                X_sub = X[np.ix_(rows, cols)]
                sliced = design_matrix(X[:, cols], degree).take(rows, axis=0)
                own = design_matrix(X_sub, degree)
                assert sliced.tobytes() == own.tobytes()
                # graded order: the degree-1 basis and the raw inputs
                # are its leading columns
                linear = sliced[:, : 1 + size]
                assert linear.tobytes() == design_matrix(X_sub, 1).tobytes()
                assert (
                    np.ascontiguousarray(linear[:, 1:]).tobytes()
                    == X_sub.tobytes()
                )


class TestFitConsequent:
    def test_exact_affine_recovery(self):
        x = np.linspace(0.0, 1.0, 9).reshape(-1, 1)
        y = 2.0 + 3.0 * x[:, 0]
        poly = fit_consequent(x, y, ["x"], degree=1, ridge=0.0)
        c = coeffs_by_exponent(poly)
        assert c[(0,)] == pytest.approx(2.0, abs=1e-9)
        assert c[(1,)] == pytest.approx(3.0, abs=1e-9)

    def test_cross_term_only(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-2.0, 2.0, size=(60, 2))
        y = X[:, 0] * X[:, 1]
        poly = fit_consequent(X, y, ["a", "b"], degree=2, ridge=0.0)
        c = coeffs_by_exponent(poly)
        assert c[(1, 1)] == pytest.approx(1.0, abs=1e-8)
        for e, w in c.items():
            if e != (1, 1):
                assert abs(w) < 1e-8

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_matches_normal_equations_oracle(self, seed, degree):
        rng = np.random.default_rng(seed)
        v = int(rng.integers(1, 4))
        n = 40 + int(rng.integers(0, 20))
        X = rng.uniform(-3.0, 3.0, size=(n, v))
        y = rng.normal(size=n)
        got = coeffs_by_exponent(
            fit_consequent(X, y, [f"x{i}" for i in range(v)], degree, ridge=0.0)
        )
        want = oracle_fit(X, y, degree)
        assert set(got) == set(want)
        scale = max(1.0, max(abs(w) for w in want.values()))
        for e in want:
            assert got[e] == pytest.approx(want[e], rel=1e-8, abs=1e-8 * scale)

    def test_underdetermined_falls_back_to_degree_one(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = 1.0 + 2.0 * X[:, 0] - 1.0 * X[:, 1]
        # 4 rows < 6 monomials of degree 2, but enough for degree 1
        poly = fit_consequent(X, y, ["a", "b"], degree=2, ridge=0.0)
        assert poly.degree == 1
        c = coeffs_by_exponent(poly)
        assert c[(1, 0)] == pytest.approx(2.0, abs=1e-9)

    def test_three_rows_degree_two_constant_fallback(self):
        X = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]])
        y = np.array([1.0, 5.0, 3.0])
        poly = fit_consequent(X, y, ["a", "b"], degree=2)
        assert poly.exponents == ((),)
        assert poly.coefficients[0] == pytest.approx(3.0)

    def test_constant_fallback_uses_firing_weights_and_clamp(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 10.0])
        poly = fit_consequent(
            X,
            y,
            ["a", "b"],
            degree=2,
            firing=np.array([1.0, 3.0]),
            clamp_bounds=(0.0, 6.0),
        )
        # weighted mean 7.5 clamps to 6
        assert poly.coefficients[0] == pytest.approx(6.0)

    def test_degenerate_targets_constant(self):
        X = np.random.default_rng(2).normal(size=(10, 2))
        y = np.full(10, 4.25)
        poly = fit_consequent(X, y, ["a", "b"], degree=3)
        assert poly.exponents == ((),)
        assert poly.coefficients[0] == 4.25

    def test_empty_rows_unfittable(self):
        with pytest.raises(RuleUnfittableError):
            fit_consequent(np.empty((0, 2)), np.empty(0), ["a", "b"], 2)

    def test_ridge_shrinks_toward_zero_slope(self):
        x = np.linspace(0.0, 1.0, 30).reshape(-1, 1)
        y = 3.0 * x[:, 0]
        loose = fit_consequent(x, y, ["x"], 1, ridge=0.0)
        tight = fit_consequent(x, y, ["x"], 1, ridge=100.0)
        assert abs(coeffs_by_exponent(tight)[(1,)]) < abs(
            coeffs_by_exponent(loose)[(1,)]
        )

    def test_weighted_fit_prefers_heavy_rows(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 2.0, 30.0])
        w = np.array([1.0, 1.0, 1.0, 1e-9])
        weighted = fit_consequent(
            x, y, ["x"], 1, ridge=0.0, firing=w, weighted=True
        )
        unweighted = fit_consequent(x, y, ["x"], 1, ridge=0.0)
        # downweighting the outlier row pulls the slope back toward 1
        assert abs(coeffs_by_exponent(weighted)[(1,)] - 1.0) < 0.05
        assert abs(coeffs_by_exponent(unweighted)[(1,)] - 1.0) > 1.0

    # 30 rows fit degree 3 on 2 variables, 5 degrade it to degree 1, 3
    # leave only the constant
    @pytest.mark.parametrize("n", [30, 5, 3])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_given_design_fits_bitwise_as_built_one(self, n, weighted):
        rng = np.random.default_rng(n)
        X = rng.uniform(-2.0, 2.0, (n, 2))
        y = np.sin(X[:, 0]) + X[:, 1] ** 2
        kwargs = dict(
            degree=3, firing=rng.uniform(0.1, 1.0, n), weighted=weighted
        )
        built = fit_consequent(X, y, ["a", "b"], **kwargs)
        given = fit_consequent(
            X, y, ["a", "b"], **kwargs, design=design_matrix(X, 3)
        )
        assert given == built

    # (variables, degree): the fit's degree at n = v, v + 1, v + 2,
    # comb - 1 and comb rows, comb = C(v + degree, degree); 0 is the constant
    DEGRADATION = {
        (1, 1): (0, 1, 1, 0, 1),
        (1, 2): (0, 0, 2, 0, 2),
        (1, 3): (0, 0, 1, 1, 3),
        (2, 1): (0, 1, 1, 0, 1),
        (2, 2): (0, 0, 1, 1, 2),
        (2, 3): (0, 0, 1, 1, 3),
        (3, 1): (0, 1, 1, 0, 1),
        (3, 2): (0, 0, 1, 1, 2),
        (3, 3): (0, 0, 1, 1, 3),
    }

    @pytest.mark.parametrize("v,degree", sorted(DEGRADATION))
    @pytest.mark.parametrize("weighted", [False, True])
    def test_degradation_boundaries(self, v, degree, weighted):
        comb = math.comb(v + degree, degree)
        sizes = (v, v + 1, v + 2, comb - 1, comb)
        for n, want in zip(sizes, self.DEGRADATION[v, degree]):
            rng = np.random.default_rng(100 * v + n)
            X = rng.uniform(-1.0, 1.0, (n, v))
            y = rng.normal(size=n)
            firing = rng.uniform(0.1, 1.0, n)
            poly = fit_consequent(
                X, y, [f"x{i}" for i in range(v)], degree,
                firing=firing, weighted=weighted,
            )
            if want == 0:
                assert poly.variables == () and poly.exponents == ((),), n
                # the constant is the firing-weighted mean, weighted fit or not
                assert poly.coefficients == (float(np.average(y, weights=firing)),)
            else:
                assert (poly.degree, len(poly.coefficients)) == (
                    want, math.comb(v + want, want)
                ), n

    def test_design_must_match_rows_and_degree(self):
        X = np.random.default_rng(3).normal(size=(12, 2))
        y = X[:, 0]
        for design in (design_matrix(X, 2), design_matrix(X[:-1], 3)):
            with pytest.raises(ValueError, match="design"):
                fit_consequent(X, y, ["a", "b"], 3, design=design)


# the worked quadratic rule: printed coefficients, High-set bounds
CEMENT_RULE = HybridRule(
    antecedent=(("cement", "High"), ("blast_furnace_slag", "High")),
    consequent_set="High",
    consequent_fn=Polynomial(
        degree=2,
        variables=("cement", "blast_furnace_slag"),
        exponents=((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)),
        coefficients=(0.0, 0.3, -0.6, -5.29e-4, 1.68e-3, 2.82e-4),
    ),
    clamp_bounds=(37.91, 82.6),
    fuzzy_dominance=(0.436, 0.457),
    error_dominance=0.065,
)


def rule_output(rule: HybridRule, X) -> np.ndarray:
    """Clamped outputs of ``rule`` on rows ``X`` of its polynomial's
    variables, in their order."""
    return clamp(rule.consequent_fn.evaluate(np.asarray(X)), rule.clamp_bounds)


class TestRuleOutput:
    def test_worked_value(self):
        got = rule_output(CEMENT_RULE, [[375.0, 300.0]])
        assert got[0] == pytest.approx(72.489375, abs=1e-9)

    def test_clamped_above(self):
        rule = CEMENT_RULE
        assert float(clamp(85.0, rule.clamp_bounds)) == 82.6

    def test_clamped_below(self):
        assert float(clamp(30.0, CEMENT_RULE.clamp_bounds)) == 37.91

    def test_clamp_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="inverted"):
            clamp(1.0, (2.0, 1.0))

    def test_output_always_within_bounds(self):
        rng = np.random.default_rng(3)
        out = rule_output(CEMENT_RULE, rng.uniform(-500, 1500, size=(200, 2)))
        assert np.all((37.91 <= out) & (out <= 82.6))

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=50)
    def test_clamp_idempotent(self, v, other):
        bounds = (min(v, other), max(v, other))
        once = clamp(123.456, bounds)
        assert clamp(once, bounds) == once


class TestHybridRuleValidation:
    def test_polynomial_variables_subset_of_antecedent(self):
        with pytest.raises(ValueError, match="outside the antecedent"):
            HybridRule(
                antecedent=(("a", "Low"),),
                consequent_set="Low",
                consequent_fn=Polynomial(1, ("b",), ((0,), (1,)), (0.0, 1.0)),
                clamp_bounds=(0.0, 1.0),
            )

    def test_empty_antecedent(self):
        with pytest.raises(ValueError, match="antecedent"):
            HybridRule(
                antecedent=(),
                consequent_set="Low",
                consequent_fn=Polynomial(1, (), ((),), (0.5,)),
                clamp_bounds=(0.0, 1.0),
            )

    def test_linguistic_rendering_is_mamdani_shaped(self):
        text = CEMENT_RULE.describe("compressive_strength")
        assert text.startswith(
            "IF cement is High AND blast_furnace_slag is High "
            "THEN compressive_strength is High"
        )

    def test_bad_error_dominance(self):
        with pytest.raises(ValueError, match="error dominance"):
            HybridRule(
                antecedent=(("a", "Low"),),
                consequent_set="Low",
                consequent_fn=Polynomial(1, (), ((),), (0.5,)),
                clamp_bounds=(0.0, 1.0),
                error_dominance=0.0,
            )


@st.composite
def sparse_polynomials(draw):
    """A polynomial over a random exponent subset, plus rows to evaluate."""
    arity = draw(st.integers(0, 3))
    degree = draw(st.integers(1, 3))
    exponents = draw(
        st.lists(
            st.sampled_from(monomial_exponents(arity, degree)), min_size=1, unique=True
        )
    )
    coefficients = draw(
        st.lists(
            st.floats(-1e3, 1e3), min_size=len(exponents), max_size=len(exponents)
        )
    )
    rows = draw(
        st.lists(
            st.lists(st.floats(-10.0, 10.0), min_size=arity, max_size=arity),
            min_size=1,
            max_size=5,
        )
    )
    variables = tuple(f"v{j}" for j in range(arity))
    poly = Polynomial(degree, variables, tuple(exponents), tuple(coefficients))
    return poly, variables, rows


class TestPolynomial:
    @given(sparse_polynomials())
    @settings(max_examples=200)
    def test_evaluate_matches_scalar_oracle(self, case):
        poly, variables, rows = case
        # sum of |term| is the same polynomial with |c| evaluated at |x|
        magnitude = Polynomial(
            poly.degree,
            variables,
            poly.exponents,
            tuple(abs(c) for c in poly.coefficients),
        )
        X = np.array(rows, dtype=float).reshape(len(rows), len(variables))
        got = poly.evaluate(X)
        for r, row in enumerate(rows):
            want = polynomial_value(poly, dict(zip(variables, row)))
            scale = polynomial_value(
                magnitude, {v: abs(x) for v, x in zip(variables, row)}
            )
            assert abs(got[r] - want) <= 1e-12 * scale

    @given(sparse_polynomials())
    @settings(max_examples=200)
    def test_evaluate_is_the_per_term_loop_bitwise(self, case):
        poly, variables, rows = case
        X = np.array(rows, dtype=float).reshape(len(rows), len(variables))
        got, want = poly.evaluate(X), polynomial_values(poly, X)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(sparse_polynomials())
    @settings(max_examples=100)
    def test_evaluate_row_by_row_matches_the_block_bitwise(self, case):
        # single-row predict evaluates one row, predict_values a block
        poly, variables, rows = case
        X = np.array(rows, dtype=float).reshape(len(rows), len(variables))
        block = poly.evaluate(X)
        single = np.concatenate([poly.evaluate(X[r : r + 1]) for r in range(len(X))])
        assert np.array_equal(block.view(np.int64), single.view(np.int64))

    def test_evaluate_takes_one_row_as_a_vector(self):
        p = CEMENT_RULE.consequent_fn
        row = np.array([375.0, 300.0])
        assert np.array_equal(p.evaluate(row), p.evaluate(row[None, :]))

    def test_evaluate_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="arity"):
            CEMENT_RULE.consequent_fn.evaluate(np.zeros((2, 3)))

    def test_render_raw_units(self):
        text = CEMENT_RULE.consequent_fn.render()
        assert "0.3*cement" in text
        assert "- 0.6*blast_furnace_slag" in text
        assert "cement^2" in text

    def test_duplicate_monomials_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Polynomial(1, ("x",), ((1,), (1,)), (1.0, 2.0))

    @pytest.mark.parametrize(
        "exponents, message",
        [
            (((1,), (1,)), "duplicate monomials"),
            (((0,), (2,)), "term degree exceeds declared degree"),
            (((0,), (1, 0)), "exponent arity does not match variables"),
            (((0,), (-1,)), "negative exponent"),
        ],
    )
    def test_a_bad_table_raises_on_every_construction(self, exponents, message):
        # the table check is cached, but only for tables that pass it
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                Polynomial(1, ("x",), exponents, (1.0, 2.0))
        assert Polynomial(1, ("x",), ((0,), (1,)), (1.0, 2.0)).exponents == ((0,), (1,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            Polynomial(1, ("x",), ((0,), (1,)), (1.0, bad))


def bits(a):
    """The float64 bit patterns of ``a``: equal only if bitwise equal."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestColumnMoments:
    """`_column_moments` is ``M.mean(axis=0)`` and ``M.std(axis=0)`` bit for
    bit, whatever the design's layout: one column is summed pairwise,
    several row by row."""

    @pytest.mark.parametrize(
        "rows, cols", [(1, 1), (9, 1), (1000, 1), (300, 4), (2001, 20)]
    )
    @pytest.mark.parametrize("layout", ["c", "fortran", "strided", "reversed"])
    def test_moments_are_mean_and_std_bitwise(self, rows, cols, layout):
        rng = np.random.default_rng(rows * cols)
        big = rng.normal(3.0, 2.0, (2 * rows, 3 * cols)) ** 3  # monomial-like scales
        M = {
            "c": np.ascontiguousarray(big[:rows, :cols]),
            "fortran": np.asfortranarray(big[:rows, :cols]),
            "strided": big[::2, 1::3],
            "reversed": big[::-2, ::-3],
        }[layout]
        assert M.shape == (rows, cols)
        mu, sd = hit2mtsk.rules._column_moments(M)
        assert np.array_equal(bits(mu), bits(M.mean(axis=0)))
        assert np.array_equal(bits(sd), bits(M.std(axis=0)))


class TestEvaluateTermsLayouts:
    """Both layouts of `evaluate_terms`, the term table of a small block
    and the term loop of a large one, give the per-term oracle's bits."""

    RULES = 5

    def case(self, seed, cells, arity, degree):
        rng = np.random.default_rng([seed, cells, arity, degree])
        exps = monomial_exponents(arity, degree)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (len(exps), self.RULES))
        coefficients = rng.normal(0.0, 1.0, scale.shape) * scale
        coefficients[rng.random(scale.shape) < 0.2] = -0.0
        cols = rng.normal(0.0, 10.0, (arity, cells))
        # cubes overflow past 1e103 and squares past 1e155, to +-inf
        huge = rng.random(cols.shape) < 0.15
        cols[huge] = rng.choice([-1e120, 1e120, -1e200, 1e200], huge.sum())
        rule = rng.integers(self.RULES, size=cells)
        return exps, coefficients, cols, rule

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("arity", [0, 1, 2, 3])
    @pytest.mark.parametrize("cells", [1, 2, 7, 8, 9, TABLE_CELLS, TABLE_CELLS + 1])
    def test_bitwise_equal_to_the_per_term_oracle(self, cells, arity, degree, seed):
        exps, coefficients, cols, rule = self.case(seed, cells, arity, degree)
        variables = tuple(f"v{j}" for j in range(arity))
        polys = [
            Polynomial(degree, variables, exps, tuple(coefficients[:, r].tolist()))
            for r in range(self.RULES)
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            per_rule = [polynomial_values(p, cols.T) for p in polys]
            want = np.choose(rule, per_rule)
            got = evaluate_terms(degree, exps, coefficients, cols, rule)
            shared = polys[0].evaluate(cols.T)
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(shared), bits(per_rule[0]))

    @pytest.mark.parametrize("cells", [1, 8, TABLE_CELLS])
    @pytest.mark.parametrize(
        "arity,degree", [(0, 3), (1, 1), (1, 3), (2, 1), (3, 1), (2, 2), (3, 3)]
    )
    def test_groups_of_few_terms_take_the_term_loop(
        self, monkeypatch, cells, arity, degree
    ):
        # a small block is one term table only for 5 terms or more; the
        # table alone reads the exponents as an array
        tables = []
        exponent_table = hit2mtsk.rules._exponent_table

        def recorded(exponents):
            tables.append(exponents)
            return exponent_table(exponents)

        monkeypatch.setattr(hit2mtsk.rules, "_exponent_table", recorded)
        exps, coefficients, cols, rule = self.case(0, cells, arity, degree)
        with np.errstate(over="ignore", invalid="ignore"):
            evaluate_terms(degree, exps, coefficients, cols, rule)
        assert bool(tables) == (len(exps) > 4)

    @pytest.mark.parametrize("arity", [2, 3])
    def test_one_cell_blocks_sum_in_term_order(self, arity):
        # a one-column table is where a reduction would sum pairwise
        exps, coefficients, cols, rule = self.case(0, 300, arity, 3)
        cols = np.random.default_rng(arity).normal(0.0, 10.0, cols.shape)
        want = evaluate_terms(3, exps, coefficients, cols, rule)
        assert cols.shape[1] > TABLE_CELLS  # the term loop
        for c in range(cols.shape[1]):
            one = evaluate_terms(3, exps, coefficients, cols[:, c : c + 1], rule[c : c + 1])
            assert np.array_equal(bits(one), bits(want[c : c + 1]))

    def test_cases_reach_overflow_and_negative_zero(self):
        outs, zeros = [], 0
        for cells, arity in itertools.product([7, TABLE_CELLS + 1], [1, 3]):
            exps, coefficients, cols, rule = self.case(0, cells, arity, 3)
            with np.errstate(over="ignore", invalid="ignore"):
                outs.append(evaluate_terms(3, exps, coefficients, cols, rule))
            zeros += np.count_nonzero(np.signbit(coefficients) & (coefficients == 0))
        out = np.concatenate(outs)
        assert np.isposinf(out).any() and np.isneginf(out).any()
        assert np.isnan(out).any() and zeros > 0

    @pytest.mark.parametrize("cells", [1, TABLE_CELLS + 1])
    def test_negative_zero_term_sums_to_positive_zero(self, cells):
        # the sum starts at +0.0, and +0.0 + -0.0 is +0.0
        rule = np.zeros(cells, dtype=int)
        out = evaluate_terms(1, ((),), np.array([[-0.0]]), np.empty((0, cells)), rule)
        assert np.array_equal(bits(out), bits(np.zeros(cells)))
