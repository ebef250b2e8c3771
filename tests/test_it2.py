import hashlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from hit2mtsk import Dataset, TrainConfig
from hit2mtsk.it2 import (
    DegeneratePartitionError,
    IT2Set,
    Partition,
    build_partition,
    fire,
    stack_sets,
    stacked_memberships,
)

import oracles
from oracles import firing_strength, trapezoid_membership

REF_SET = IT2Set(
    name="ref",
    shape="trapezoid",
    upper_params=(0.0, 1.0, 2.0, 3.0),
    lower_params=(0.25, 1.0, 2.0, 2.75),
    fou_scale=0.9,
)


def member(fuzzy_set: IT2Set, x: float) -> tuple[float, float]:
    """``(lower, upper)`` membership of one value in one set, read from
    `Partition.membership_matrix` of a partition holding the set."""
    twin = IT2Set("twin", "trapezoid", (0, 1, 2, 3), (0, 1, 2, 3))
    part = Partition("v", (fuzzy_set, twin), (0.0, 1.0))
    lower, upper = part.membership_matrix([x])
    return float(lower[0, 0]), float(upper[0, 0])


class TestMembership:
    def test_plateau(self):
        assert member(REF_SET, 1.5) == (0.9, 1.0)

    def test_ramp(self):
        # upper (0.5-0)/1 = 0.5; lower 0.9*(0.5-0.25)/0.75 = 0.3
        lower, upper = member(REF_SET, 0.5)
        assert upper == pytest.approx(0.5)
        assert lower == pytest.approx(0.3)

    def test_outside_support(self):
        assert member(REF_SET, -1.0) == (0.0, 0.0)

    def test_left_shoulder_plateau_extends(self):
        s = IT2Set(
            name="low",
            shape="left_shoulder",
            upper_params=(-10.0, -10.0, 2.0, 3.0),
            lower_params=(-10.0, -10.0, 2.0, 2.8),
            fou_scale=0.9,
        )
        # plateau semantics: everything left of c has upper membership 1,
        # even beyond the serialized sentinel breakpoints
        assert member(s, 0.0)[1] == 1.0
        assert member(s, -50.0)[1] == 1.0
        assert member(s, 2.5)[1] == pytest.approx(0.5)
        assert member(s, 3.5) == (0.0, 0.0)

    def test_right_shoulder_mirror(self):
        s = IT2Set(
            name="high",
            shape="right_shoulder",
            upper_params=(1.0, 2.0, 10.0, 10.0),
            lower_params=(1.2, 2.0, 10.0, 10.0),
            fou_scale=0.9,
        )
        assert member(s, 50.0)[1] == 1.0
        assert member(s, 0.5) == (0.0, 0.0)

    def test_matrix_holds_one_row_per_set(self):
        part = build_partition([0.0, 10.0], num_sets=3)
        xs = [-1.0, 0.0, 2.5, 5.0, 7.5, 11.0]
        lower, upper = part.membership_matrix(xs)
        for m in (lower, upper):
            assert m.shape == (3, len(xs))
        for k, s in enumerate(part.sets):
            for i, x in enumerate(xs):
                assert (lower[k, i], upper[k, i]) == member(s, x)

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_interval_invariant(self, x):
        lower, upper = member(REF_SET, x)
        assert 0.0 <= lower <= upper <= 1.0


class TestIT2SetValidation:
    def test_unordered_breakpoints_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            IT2Set("x", "trapezoid", (0, 2, 1, 3), (0, 2, 1, 3), 0.9)

    def test_lower_outside_upper_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            IT2Set("x", "trapezoid", (0, 1, 2, 3), (-1, 1, 2, 3), 0.9)

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            IT2Set("x", "triangle", (0, 1, 2, 3), (0, 1, 2, 3), 0.9)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_breakpoint_rejected(self, bad):
        with pytest.raises(ValueError, match="four finite breakpoints"):
            IT2Set("x", "trapezoid", (0, 1, 2, bad), (0, 1, 2, 3), 0.9)
        with pytest.raises(ValueError, match="four finite breakpoints"):
            IT2Set("x", "trapezoid", (0, 1, 2, 3), (bad, 1, 2, 3), 0.9)

    def test_default_support_is_upper_feet(self):
        assert REF_SET.support == (0.0, 3.0)


class TestBuildPartition:
    def test_covers_domain(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 100.0, 500)
        part = build_partition(values, num_sets=3)
        assert [s.shape for s in part.sets] == [
            "left_shoulder",
            "trapezoid",
            "right_shoulder",
        ]
        assert [s.name for s in part.sets] == ["Low", "Medium", "High"]
        # every point in the observed domain has positive upper membership
        grid = np.linspace(part.domain[0], part.domain[1], 1001)
        _, upper = part.membership_matrix(grid)
        assert np.all(upper.max(axis=0) > 0.0)

    def test_adjacent_supports_overlap(self):
        values = np.random.default_rng(4).normal(50.0, 10.0, 400)
        part = build_partition(values, num_sets=5)
        for a, b in zip(part.sets[:-1], part.sets[1:]):
            assert a.support[1] > b.support[0]

    def test_supports_ordered_by_center(self):
        values = np.random.default_rng(5).uniform(-3.0, 9.0, 300)
        part = build_partition(values, num_sets=4)
        centers = [0.5 * (s.upper_params[1] + s.upper_params[2]) for s in part.sets]
        assert centers == sorted(centers)

    def test_shoulder_support_anchored_at_data_edge(self):
        values = np.linspace(0.0, 100.0, 201)
        part = build_partition(values, num_sets=3)
        assert part.sets[0].support[0] == 0.0
        assert part.sets[-1].support[1] == 100.0

    def test_constant_column_degenerate(self):
        with pytest.raises(DegeneratePartitionError):
            build_partition([7.0, 7.0, 7.0])

    def test_two_identical_values(self):
        with pytest.raises(DegeneratePartitionError):
            build_partition([3.0, 3.0])

    def test_lower_below_upper_everywhere(self):
        values = np.random.default_rng(6).exponential(4.0, 500)
        part = build_partition(values, num_sets=3, fou_width=0.3, fou_scale=0.8)
        grid = np.linspace(part.domain[0] - 5, part.domain[1] + 5, 2000)
        lower, upper = part.membership_matrix(grid)
        assert np.all(lower <= upper + 1e-12)

    def test_heavy_ties_fall_back_to_grid(self):
        values = np.array([0.0] * 98 + [1.0, 2.0])
        part = build_partition(values, num_sets=3)
        assert len(part.sets) == 3
        assert np.quantile(values, [0.0, 0.5]).tolist() == [0.0, 0.0]
        # grid centers 0, 1, 2: midpoints 0.5 and 1.5, widened by 0.15 of 1
        assert part.sets[1].upper_params == pytest.approx((0.35, 0.65, 1.35, 1.65))

    @pytest.mark.parametrize("num_sets,names", [
        (2, ["Low", "High"]),
        (5, ["VeryLow", "Low", "Medium", "High", "VeryHigh"]),
        (4, ["Set1", "Set2", "Set3", "Set4"]),
    ])
    def test_naming(self, num_sets, names):
        values = np.linspace(0, 1, 50)
        assert [s.name for s in build_partition(values, num_sets).sets] == names

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_partition([])


def partition_bits(part: Partition):
    """Every field of ``part``, each float as its eight bytes: equal
    only for partitions that agree bit for bit."""

    def bits(values) -> bytes:
        assert all(type(v) is float for v in values)
        return struct.pack(f"<{len(values)}d", *values)

    sets = tuple(
        (
            s.name,
            s.shape,
            bits(s.upper_params),
            bits(s.lower_params),
            bits((s.fou_scale,)),
            bits(s.support),
        )
        for s in part.sets
    )
    return part.variable, bits(part.domain), sets


FLOAT_MAX = float(np.finfo(float).max)
TINY = 2.0**-1074  # the smallest subnormal: one ulp below 2**-1021
SAMPLES = {
    "normal": np.random.default_rng(1).normal(0.0, 5.0, 60),
    "skewed": np.random.default_rng(2).exponential(4.0, 200),
    "tied": np.array([0.0] * 98 + [1.0, 2.0]),  # the even-grid fallback
    "negative": np.random.default_rng(3).uniform(-1e4, -3e3, 80),
    "offset": 1e6 + np.random.default_rng(4).uniform(0.0, 1e-3, 80),
    "two_values": np.array([-2.5, 10.0]),
}
# (fou_width, fou_scale): the defaults and both ends of their ranges
SETTINGS = [
    (0.15, 0.9),
    (5e-324, 5e-324),
    (0.49, 1.0),
]


class TestBreakpointTable:
    """`build_partition`'s one breakpoint table against the three-branch
    construction it replaced (`oracles.partition`)."""

    @pytest.mark.parametrize("num_sets", range(2, 8))
    @pytest.mark.parametrize("sample", SAMPLES)
    def test_matches_the_three_branch_oracle_bitwise(self, sample, num_sets):
        values = SAMPLES[sample]
        for fou_width, fou_scale in SETTINGS:
            got = build_partition(values, num_sets, fou_width, fou_scale, "v")
            want = oracles.partition(values, num_sets, fou_width, fou_scale, "v")
            assert partition_bits(got) == partition_bits(want)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 7),
        st.floats(-200, 200),
        st.floats(-1.0, 1.0),
        st.floats(1e-6, 0.499),
        st.floats(1e-6, 1.0),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_oracle_at_every_scale(
        self, seed, num_sets, exponent, offset, fou_width, fou_scale, ties
    ):
        rng = np.random.default_rng(seed)
        scale = 10.0**exponent
        values = scale * (offset + rng.standard_normal(40))
        if ties:  # a few distinct values, many times over
            values = scale * rng.integers(-2, 3, 40)
        if np.ptp(values) == 0.0:
            return
        got = build_partition(values, num_sets, fou_width, fou_scale)
        want = oracles.partition(values, num_sets, fou_width, fou_scale)
        assert partition_bits(got) == partition_bits(want)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_halving_first_is_exact_from_two_to_the_minus_1021(self, sign):
        # centers with odd last bits, whose halves are normal floats
        values = sign * (2.0**-1021 + TINY * 2 * np.array([1, 5, 9, 13, 17, 21]))
        for num_sets in range(2, 7):
            got = build_partition(values, num_sets)
            want = oracles.partition(values, num_sets, 0.15, 0.9)
            assert partition_bits(got) == partition_bits(want)

    def test_below_two_to_the_minus_1021_a_midpoint_may_move_its_last_bit(self):
        # 2**-1022 + 1 ulp and + 5 ulps: their halves round to even apart
        # (down, and down by half an ulp), where their sum halves exactly
        values = 2.0**-1022 + TINY * np.array([1.0, 5.0])
        got = build_partition(values, 2, fou_width=0.15, fou_scale=0.9)
        want = oracles.partition(values, 2, 0.15, 0.9)
        got_mid = got.sets[0].upper_params[2:]
        want_mid = want.sets[0].upper_params[2:]
        assert np.subtract(want_mid, got_mid).tolist() == [TINY, TINY]
        for g, w in zip(got.sets, want.sets):
            assert np.abs(np.subtract(g.upper_params, w.upper_params)).max() <= TINY
            assert np.abs(np.subtract(g.lower_params, w.lower_params)).max() <= TINY

    def test_feet_crossed_by_rounding_are_raised_into_order(self):
        # at fou_width just below 0.5 the even grid's feet 0.8 (set 2's
        # last) and 0.7999999999999999 (set 3's second) cross by rounding;
        # the three-branch construction refuses them
        values, width = SAMPLES["tied"], 0.49999999999999994
        with pytest.raises(ValueError, match="breakpoints not ordered"):
            oracles.partition(values, 6, width, 0.9)
        part = build_partition(values, num_sets=6, fou_width=width)
        assert part.sets[2].upper_params == (0.40000000000000013, 0.8, 0.8, 1.2)
        feet = [s.upper_params[2:] for s in part.sets[:-1]]
        assert [s.upper_params[:2] for s in part.sets[1:]] == feet

    @pytest.mark.parametrize("num_sets", range(2, 8))
    @pytest.mark.parametrize("sample", SAMPLES)
    def test_feet_are_ordered_just_below_half(self, sample, num_sets):
        # where no feet cross, not a bit moves from the oracle's
        width = float(np.nextafter(0.5, 0.0))
        part = build_partition(SAMPLES[sample], num_sets, width)
        feet = [part.sets[0].upper_params[0]]
        feet += [v for s in part.sets for v in s.upper_params[1:]]
        assert np.all(np.diff(feet) >= 0.0)
        try:
            want = oracles.partition(SAMPLES[sample], num_sets, width, 0.9)
        except ValueError:
            return
        assert partition_bits(part) == partition_bits(want)

    def test_centers_near_the_largest_float(self):
        # two adjacent centers sum past the largest float; the three-branch
        # construction overflows there, the breakpoint table does not
        values = np.random.default_rng(0).uniform(1.4e308, 1.5e308, 100)
        with pytest.raises(RuntimeWarning, match="overflow"):
            oracles.partition(values, 3, 0.15, 0.9)
        part = build_partition(values, 3)
        feet = [v for s in part.sets for v in s.upper_params + s.lower_params]
        assert np.isfinite(feet).all()
        q = np.quantile(values, [0.0, 0.5, 1.0])
        c, d = part.sets[0].upper_params[2:]
        assert part.sets[1].upper_params[:2] == (c, d)
        assert c < 0.5 * q[0] + 0.5 * q[1] < d


@st.composite
def accepted_columns(draw):
    """Columns of up to 30 values anywhere up to the largest float in
    magnitude, drawn between two ends (most of which `Dataset` accepts)
    or freely."""
    floats = st.floats(-FLOAT_MAX, FLOAT_MAX)
    if draw(st.booleans()):
        return np.array(draw(st.lists(floats, min_size=2, max_size=30)))
    lo, hi = sorted(draw(st.tuples(floats, floats)))
    t = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30)))
    return np.clip(lo * (1.0 - t) + hi * t, lo, hi)


class TestHugeColumns:
    @given(
        accepted_columns(),
        st.integers(2, 7),
        st.floats(5e-324, 0.499),
        st.floats(5e-324, 1.0),
    )
    @example(np.random.default_rng(0).uniform(1.4e308, 1.5e308, 100), 3, 0.15, 0.9)
    @example(np.array([-8e307, 8e307, 0.0]), 7, 0.49, 1.0)
    @example(np.array([-FLOAT_MAX, -FLOAT_MAX / 2, -1.6e308]), 4, 0.2, 0.5)
    @settings(max_examples=200, deadline=None)
    def test_every_accepted_column_gets_finite_ordered_breakpoints(
        self, column, num_sets, fou_width, fou_scale
    ):
        try:
            Dataset("d", ("a",), column[:, None], "y", np.zeros(column.size))
        except ValueError as exc:
            assert "too wide" in str(exc)
            reject()
        if np.ptp(column) == 0.0:
            reject()
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            part = build_partition(column, num_sets, fou_width, fou_scale)
        for s in part.sets:  # `IT2Set` checks each trapezoid's order
            assert np.isfinite(s.upper_params + s.lower_params + s.support).all()
        # each set's rising feet are its left neighbour's falling ones
        feet = [*part.sets[0].upper_params[:2]]
        for s, right in zip(part.sets, part.sets[1:]):
            assert s.upper_params[2:] == right.upper_params[:2]
        feet += [p for s in part.sets for p in s.upper_params[2:]]
        assert feet == sorted(feet)


class TestPartitionSettings:
    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"num_sets": 1}, "num_sets must be >= 2"),
            ({"fou_width": 0.0}, "fou_width must be in (0, 0.5)"),
            ({"fou_width": 0.5}, "fou_width must be in (0, 0.5)"),
            ({"fou_scale": 0.0}, "fou_scale must be in (0, 1]"),
            ({"fou_scale": 1.5}, "fou_scale must be in (0, 1]"),
        ],
    )
    def test_train_config_and_build_partition_refuse_alike(self, bad, message):
        with pytest.raises(ValueError) as from_config:
            TrainConfig(**bad)
        with pytest.raises(ValueError) as from_partition:
            build_partition([0.0, 1.0, 2.0], **bad)
        assert str(from_config.value) == str(from_partition.value) == message


def fire_at_zero(clause_sets, tnorm="minimum"):
    """`fire` on the single row x = 0, one clause per given set."""
    lower, upper = np.array([member(s, 0.0) for s in clause_sets]).T[:, :, None]
    lo, hi = fire(lower, upper, range(len(clause_sets)), tnorm)
    return float(lo[0]), float(hi[0])


class TestFiringStrength:
    def test_minimum(self):
        a = clause_set(0.4, 0.6)
        b = clause_set(0.5, 0.7)
        got = fire_at_zero([a, b])
        assert got == (pytest.approx(0.4), pytest.approx(0.6))

    def test_product(self):
        a = clause_set(0.4, 0.6)
        b = clause_set(0.5, 0.7)
        lo, hi = fire_at_zero([a, b], tnorm="product")
        assert lo == pytest.approx(0.20)
        assert hi == pytest.approx(0.42)

    def test_annihilator(self):
        a = clause_set(0.0, 0.0)
        b = clause_set(0.5, 0.7)
        for tnorm in ("minimum", "product"):
            assert fire_at_zero([a, b], tnorm=tnorm) == (0.0, 0.0)

    def test_empty_antecedent(self):
        with pytest.raises(ValueError, match="antecedent"):
            fire(np.ones((2, 1)), np.ones((2, 1)), [], "minimum")

    def test_set_position_past_the_table(self):
        lower, upper = build_partition([0.0, 1.0]).membership_matrix([1.0])
        with pytest.raises(IndexError):
            fire(lower, upper, [3], "minimum")

    def test_unknown_tnorm(self):
        with pytest.raises(ValueError, match="t-norm"):
            fire_at_zero([REF_SET], tnorm="lukasiewicz")

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from(["minimum", "product"]),
    )
    @settings(max_examples=60)
    def test_monotone_in_clause_intervals(self, pairs, tnorm):
        # dominance of per-clause intervals transfers to the firing interval
        strong = [clause_set(min(a, b), max(a, b)) for a, b in pairs]
        weak = [
            clause_set(0.5 * min(a, b), 0.5 * max(a, b)) for a, b in pairs
        ]
        f_strong = fire_at_zero(strong, tnorm)
        f_weak = fire_at_zero(weak, tnorm)
        assert f_strong[0] >= f_weak[0] - 1e-12
        assert f_strong[1] >= f_weak[1] - 1e-12

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["minimum", "product"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_oracle(self, seed, tnorm):
        rng = np.random.default_rng(seed)
        names = ("a", "b", "c")
        parts = {
            v: build_partition(
                rng.normal(0.0, 5.0, 40), int(rng.integers(2, 6)), variable=v
            )
            for v in names
        }
        rows = {v: rng.normal(0.0, 7.0, 15) for v in names}
        chosen = rng.choice(len(names), size=int(rng.integers(1, 4)), replace=False)
        ant = [
            (names[j], int(rng.integers(len(parts[names[j]])))) for j in chosen
        ]
        # every partition's table stacked, each clause a position in it
        mems = [parts[v].membership_matrix(rows[v]) for v in names]
        lower, upper = (np.vstack(bound) for bound in zip(*mems))
        first_set = dict(zip(names, np.cumsum([0] + [len(parts[v]) for v in names])))
        lo, hi = fire(lower, upper, [first_set[v] + s for v, s in ant], tnorm)
        clauses = [(v, parts[v].sets[s]) for v, s in ant]
        for r in range(15):
            want = firing_strength(clauses, {v: rows[v][r] for v in names}, tnorm)
            assert (lo[r], hi[r]) == want


def clause_set(lo: float, hi: float) -> IT2Set:
    """Set engineered so membership at x = 0 equals exactly [lo, hi].

    Upper ramps from -1 to u_b where the ramp height at 0 is hi; lower
    uses fou_scale to land on lo.
    """
    if hi < 1e-9:  # 1/hi below would overflow the ramp breakpoint
        return IT2Set(
            name="z",
            shape="trapezoid",
            upper_params=(1.0, 2.0, 3.0, 4.0),
            lower_params=(1.0, 2.0, 3.0, 4.0),
            fou_scale=1.0,
        )
    # upper membership at 0 on ramp (-1 -> b): (0 - (-1)) / (b + 1) = hi
    b = 1.0 / hi - 1.0
    scale = max(lo / hi, 1e-9)
    return IT2Set(
        name="s",
        shape="trapezoid",
        upper_params=(-1.0, b, b + 1.0, b + 2.0),
        lower_params=(-1.0, b, b + 1.0, b + 2.0),
        fou_scale=min(max(scale, 1e-9), 1.0),
    )


class TestPartitionContainer:
    def test_duplicate_names_rejected(self):
        s1 = IT2Set("A", "trapezoid", (0, 1, 2, 3), (0, 1, 2, 3), 0.9)
        with pytest.raises(ValueError, match="duplicate"):
            Partition("v", (s1, s1), (0.0, 3.0))

    def test_set_lookup(self):
        part = build_partition(np.linspace(0, 10, 40), num_sets=3)
        assert part.set_named("Medium").name == "Medium"
        assert part.index_of("High") == 2
        with pytest.raises(KeyError):
            part.set_named("Gigantic")


class TestStackedMemberships:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_trapezoid_oracle_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        parts = [
            build_partition(
                rng.normal(0.0, 5.0, 30),
                int(rng.integers(2, 6)),
                fou_width=float(rng.uniform(0.01, 0.49)),
                fou_scale=float(rng.uniform(0.05, 1.0)),
                variable=v,
            )
            for v in "ab"
        ]
        # a trapezoid with vertical sides: both ramps are empty
        sets = [s for p in parts for s in p.sets] + [
            IT2Set("box", "trapezoid", (1.0, 1.0, 2.0, 2.0), (1.0, 1.0, 2.0, 2.0))
        ]
        x = rng.normal(0.0, 9.0, (len(sets), 16))
        for k, s in enumerate(sets):
            x[k, :8] = s.upper_params + s.lower_params  # every edge is hit
        lower, upper = stacked_memberships(stack_sets(sets), x)
        shared_lower, shared_upper = stacked_memberships(stack_sets(sets), x[0])
        for k, s in enumerate(sets):
            for j in range(x.shape[1]):
                assert (lower[k, j], upper[k, j]) == trapezoid_membership(s, x[k, j])
                assert (shared_lower[k, j], shared_upper[k, j]) == (
                    trapezoid_membership(s, x[0, j])
                )

    def test_membership_bits_pinned(self):
        # subtraction, division, scaling and clipping round exactly, so
        # these bits hold on any host, edges and +-1e300 included
        digest = hashlib.sha256()
        rng = np.random.default_rng(7)
        for k in (2, 3, 5, 7):
            values = rng.normal(0.0, 5.0, 60)
            part = build_partition(values, k, fou_width=0.2, fou_scale=0.8)
            edges = [v for s in part.sets for v in s.upper_params + s.lower_params]
            x = np.concatenate(
                [rng.normal(0.0, 9.0, 200), [-1e300, 1e300, 0.0, -0.0], edges]
            )
            for m in part.membership_matrix(x):
                digest.update(m.tobytes())
        assert digest.hexdigest() == (
            "8ed9b4da8b803185201fcb54f88c78a5b3e36981779ddbabbdf4927673376ee8"
        )

    def test_stack_holds_ramp_widths_and_open_sides(self):
        sets = build_partition(np.linspace(0.0, 10.0, 50), num_sets=4).sets
        stack = stack_sets(sets)
        assert np.array_equal(stack.rise, stack.b - stack.a)
        assert np.array_equal(stack.fall, stack.d - stack.c)
        assert np.array_equal(stack.open_left, ~stack.left)
        assert np.array_equal(stack.open_right, ~stack.right)
        assert stack.left.ravel().tolist() == [True, False, False, False]
        assert stack.right.ravel().tolist() == [False, False, False, True]

    def test_partition_matrix_is_the_one_partition_case(self):
        part = build_partition(np.linspace(0.0, 10.0, 50), num_sets=4)
        x = np.linspace(-5.0, 15.0, 201)
        lower, upper = part.membership_matrix(x)
        stacked = stacked_memberships(stack_sets(part.sets), x)
        assert lower.shape == upper.shape == (4, 201)
        assert np.array_equal(lower, stacked[0])
        assert np.array_equal(upper, stacked[1])
