"""Interval type-2 partitions from raw data.

Builds a three-set partition over a skewed feature, prints every set's
lower/upper trapezoids, and shows how membership comes back as an
interval rather than a single number.
"""
import numpy as np

from hit2mtsk import build_partition, fire

rng = np.random.default_rng(7)
values = rng.gamma(shape=2.0, scale=12.0, size=400)

part = build_partition(values, num_sets=3, fou_width=0.15, variable="dosage")
print(f"partition over '{part.variable}', domain {part.domain}")
for s in part.sets:
    print(f"\n  {s.name} ({s.shape})")
    print(f"    lower trapezoid: {s.lower_params}")
    print(f"    upper trapezoid: {s.upper_params}")

# membership is a (lower, upper) interval: the width is the footprint
# of uncertainty at that point; membership_matrix gives one row per set
# and one column per value
print("\nmembership intervals at sample points")
xs = (5.0, 20.0, 45.0, 80.0)
lower, upper = part.membership_matrix(xs)
for i, x in enumerate(xs):
    row = "  x={:5.1f}".format(x)
    for k, s in enumerate(part.sets):
        row += f"   {s.name}=[{lower[k, i]:.3f}, {upper[k, i]:.3f}]"
    print(row)

# a conjunction of clauses fires with the t-norm of the memberships;
# fire() folds rows of one (sets, inputs) table, here both partitions'
# tables stacked: dosage's Medium is row 1, and age's Low, the first
# set after dosage's, is row len(part)
other = build_partition(rng.uniform(18, 90, 400), num_sets=3, variable="age")
dosage, age = part.membership_matrix([30.0]), other.membership_matrix([25.0])
lower, upper = np.vstack([dosage[0], age[0]]), np.vstack([dosage[1], age[1]])
lo, hi = fire(lower, upper, [1, len(part)], "minimum")
print(f"\nfiring of (dosage is {part.sets[1].name}) AND (age is {other.sets[0].name})")
print(f"  at dosage=30, age=25: [{lo[0]:.3f}, {hi[0]:.3f}]")
