"""Interval type-2 fuzzy sets over scalar variables.

Sets are trapezoid-shaped with an embedded footprint of uncertainty: an
upper membership function and a lower membership function that is a
scaled, inward-shifted copy of the upper one.  Membership of a crisp
value is therefore an interval ``[lower, upper]`` rather than a single
degree.  Partitions bundle the sets that tile one variable's observed
range, with shoulder sets at both ends so every real input receives a
nonzero membership somewhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

SHAPES = ("left_shoulder", "trapezoid", "right_shoulder")
TNORMS = ("minimum", "product")

# Shoulder breakpoints on the open side are pushed this fraction of the
# domain width past the observed edge.  These sentinels only anchor the
# serialized breakpoints; evaluation treats the plateau as unbounded and
# the stored support keeps the true data edge.
SENTINEL_MARGIN = 0.10


class DegeneratePartitionError(ValueError):
    """Raised when a variable has no spread to partition."""


class SetStack(NamedTuple):
    """What `stacked_memberships` reads of a list of sets, each field
    with one row per set: the (2, sets, 1) breakpoints of the upper
    trapezoids then the lower ones, their ramp widths, and the (sets, 1)
    shoulder flags, their negations and the lower heights."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    rise: np.ndarray  # b - a
    fall: np.ndarray  # d - c
    left: np.ndarray
    right: np.ndarray
    open_left: np.ndarray  # ~left: the set has a rising ramp
    open_right: np.ndarray  # ~right: the set has a falling ramp
    fou_scale: np.ndarray


def stack_sets(sets: Sequence[IT2Set], all_ones: bool = False) -> SetStack:
    """The `SetStack` of ``sets``, computed once for every membership
    pass over them.

    With ``all_ones`` one more set follows them that is both a left and a
    right shoulder, at height 1: its plateau covers every value, so its
    lower and upper memberships are exactly 1.0 on every row.
    """
    upper = [s.upper_params for s in sets]
    lower = [s.lower_params for s in sets]
    left = [s.shape == "left_shoulder" for s in sets]
    right = [s.shape == "right_shoulder" for s in sets]
    scale = [s.fou_scale for s in sets]
    if all_ones:  # both shoulders at height 1: a plateau over every value
        upper.append((0.0, 0.0, 0.0, 0.0))
        lower.append((0.0, 0.0, 0.0, 0.0))
        left.append(True)
        right.append(True)
        scale.append(1.0)
    a, b, c, d = np.moveaxis(np.array([upper, lower]), -1, 0)[..., None]
    left, right = (np.array(f)[:, None] for f in (left, right))
    return SetStack(
        a, b, c, d, b - a, d - c, left, right, ~left, ~right, np.array(scale)[:, None]
    )


def stacked_memberships(
    stack: SetStack, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper memberships of every set of ``stack`` (from
    `stack_sets`) in one trapezoid pass.

    ``x`` is either one (n,) row of values shared by all sets or a
    (sets, n) table with one row of values per set; both results are
    (sets, n).  Each set's upper and lower trapezoids are evaluated
    together, with shoulder-aware open sides: a shoulder's plateau
    extends past its open-side breakpoints.  This is the only trapezoid
    implementation.
    """
    x = np.asarray(x, dtype=float)
    a, b, c, d, rise, fall, left, right, open_left, open_right, fou_scale = stack
    plateau = (left | (x >= b)) & (right | (x <= c))
    curve = plateau.astype(float)
    # the ramps and the plateau are disjoint; an empty ramp divides nowhere
    np.divide(x - a, rise, out=curve, where=open_left & (x > a) & (x < b))
    np.divide(d - x, fall, out=curve, where=open_right & (x > c) & (x < d))
    curve[1] *= fou_scale
    np.clip(curve, 0.0, 1.0, out=curve)
    return curve[1], curve[0]


@dataclass(frozen=True)
class IT2Set:
    """One interval type-2 set: two stacked trapezoids.

    Parameters
    ----------
    name:
        Linguistic label, e.g. ``"High"``.
    shape:
        One of ``left_shoulder``, ``trapezoid``, ``right_shoulder``.
        Shoulders saturate at 1 on their open side.
    upper_params, lower_params:
        Breakpoints ``(a, b, c, d)`` of the upper and lower trapezoids.
        The lower trapezoid must sit inside the upper one.
    fou_scale:
        Height of the lower membership function, in (0, 1].
    support:
        Closed interval outside which the upper membership is treated as
        zero for clamping purposes.  Defaults to ``(a, d)``; partitions
        built from data anchor shoulder sets at the observed domain edge
        instead of at the sentinel breakpoints.
    """

    name: str
    shape: str
    upper_params: tuple[float, float, float, float]
    lower_params: tuple[float, float, float, float]
    fou_scale: float = 0.9
    support: tuple[float, float] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise ValueError(f"unknown set shape {self.shape!r}")
        if not 0.0 < self.fou_scale <= 1.0:
            raise ValueError("fou_scale must be in (0, 1]")
        for params in (self.upper_params, self.lower_params):
            if len(params) != 4 or not all(map(math.isfinite, params)):
                raise ValueError("trapezoid needs four finite breakpoints")
            if not (params[0] <= params[1] <= params[2] <= params[3]):
                raise ValueError(f"breakpoints not ordered: {params}")
        if (
            self.lower_params[0] < self.upper_params[0]
            or self.lower_params[3] > self.upper_params[3]
        ):
            raise ValueError("lower set must lie inside the upper support")
        if self.support is None:
            object.__setattr__(
                self, "support", (self.upper_params[0], self.upper_params[3])
            )
        if self.support[0] > self.support[1]:
            raise ValueError("support interval inverted")


@dataclass(frozen=True)
class Partition:
    """Ordered family of IT2 sets covering one variable's domain."""

    variable: str
    sets: tuple[IT2Set, ...]
    domain: tuple[float, float]

    def __post_init__(self) -> None:
        if len(self.sets) < 2:
            raise ValueError("a partition needs at least two sets")
        names = [s.name for s in self.sets]
        if len(set(names)) != len(names):
            raise ValueError("duplicate set names in partition")

    def __len__(self) -> int:
        return len(self.sets)

    def index_of(self, name: str) -> int:
        for i, s in enumerate(self.sets):
            if s.name == name:
                return i
        raise KeyError(f"no set named {name!r} in partition {self.variable!r}")

    def set_named(self, name: str) -> IT2Set:
        return self.sets[self.index_of(name)]

    def membership_matrix(
        self, values: np.ndarray | Sequence[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(k, n) lower/upper memberships of ``values`` in all k sets."""
        return stacked_memberships(stack_sets(self.sets), np.ravel(values))


_SET_NAMES = {
    2: ("Low", "High"),
    3: ("Low", "Medium", "High"),
    5: ("VeryLow", "Low", "Medium", "High", "VeryHigh"),
}


def check_partition_settings(num_sets: int, fou_width: float, fou_scale: float) -> None:
    """Raise ValueError unless the settings describe a partition."""
    if num_sets < 2:
        raise ValueError("num_sets must be >= 2")
    if not 0.0 < fou_width < 0.5:
        raise ValueError("fou_width must be in (0, 0.5)")
    if not 0.0 < fou_scale <= 1.0:
        raise ValueError("fou_scale must be in (0, 1]")


def outer_breakpoints(lo, hi):
    """The shoulders' sentinel breakpoints for the range ``[lo, hi]``,
    elementwise; a range too wide for them gets an infinite one, silently."""
    with np.errstate(over="ignore"):
        reach = SENTINEL_MARGIN * (hi - lo)
        return lo - reach, hi + reach


def build_partition(
    values: np.ndarray | Sequence[float],
    num_sets: int = 3,
    fou_width: float = 0.15,
    fou_scale: float = 0.9,
    variable: str = "x",
) -> Partition:
    """Partition the observed range of ``values`` into IT2 sets.

    Set centers are placed at evenly spaced quantiles of the data.  Each
    interior set is a trapezoid whose support reaches the midpoints to
    its neighbouring centers, widened by ``fou_width`` of the local gap;
    the outermost sets are shoulders saturating beyond the data edges.

    Raises
    ------
    DegeneratePartitionError
        If ``values`` has zero spread.
    ValueError
        On empty/non-finite input or out-of-range settings.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("cannot partition an empty sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    check_partition_settings(num_sets, fou_width, fou_scale)
    fou_width, fou_scale = float(fou_width), float(fou_scale)

    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        raise DegeneratePartitionError(f"variable {variable!r} is constant at {lo}")

    centers = np.quantile(x, np.linspace(0.0, 1.0, num_sets))
    # heavily tied samples can collapse quantiles; fall back to an even grid
    if np.any(np.diff(centers) <= 1e-9 * (hi - lo)):
        centers = np.linspace(lo, hi, num_sets)

    # halved before the sum, which then cannot pass the largest float
    mids = 0.5 * centers[:-1] + 0.5 * centers[1:]
    eps = fou_width * np.diff(centers)
    # the upper trapezoids' feet, in order: set i reads feet[2i : 2i + 4]
    sent_lo, sent_hi = outer_breakpoints(lo, hi)
    inner = np.column_stack([mids - eps, mids + eps]).ravel()
    feet = np.array([sent_lo, sent_lo, *inner, sent_hi, sent_hi])
    # with fou_width just below 0.5, feet mid_i + eps_i and
    # mid_{i+1} - eps_{i+1} can cross by rounding: a foot below one before
    # it is raised to that one, and no other foot moves a bit
    top = np.maximum.accumulate(feet)
    feet = np.where(feet < top, top, feet).tolist()
    # set i's support is (edges[2i], edges[2i + 3]): a shoulder's ends at
    # the data edge on its open side
    edges = [lo, *feet[1:-1], hi]
    shapes = ("left_shoulder", *["trapezoid"] * (num_sets - 2), "right_shoulder")
    names = _SET_NAMES.get(num_sets) or tuple(f"Set{i + 1}" for i in range(num_sets))

    sets = []
    for i in range(num_sets):
        a, b, c, d = feet[2 * i : 2 * i + 4]
        # each foot moves inward proportionally to its own ramp length, so
        # the plateau is preserved and the lower curve never crosses the upper
        lower = (a + fou_width * (b - a), b, c, d - fou_width * (d - c))
        support = (edges[2 * i], edges[2 * i + 3])
        sets.append(
            IT2Set(names[i], shapes[i], (a, b, c, d), lower, fou_scale, support)
        )
    return Partition(variable=variable, sets=tuple(sets), domain=(lo, hi))


def fire(
    lower: np.ndarray,
    upper: np.ndarray,
    clauses: Sequence,
    tnorm: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Firing interval ``(lower, upper)`` of one antecedent on every row.

    ``lower`` and ``upper`` are (sets, rows) membership tables, one
    partition's from `Partition.membership_matrix` or several stacked;
    ``clauses`` holds the table row of the set each clause must match.
    The t-norm folds those rows in clause order, for each bound apart.
    With an array of rows per clause it folds that many antecedents at
    once, one result row each.  This is the only t-norm implementation.
    """
    if tnorm not in TNORMS:
        raise ValueError(f"unknown t-norm {tnorm!r}")
    if not len(clauses):
        raise ValueError("rule antecedent must not be empty")
    fold = np.minimum if tnorm == "minimum" else np.multiply

    def folded(table: np.ndarray) -> np.ndarray:
        first, *rest = clauses
        out = np.take(table, first, axis=0)  # a fresh array
        for c in rest:
            fold(out, table[c], out=out)
        return out

    return folded(lower), folded(upper)
