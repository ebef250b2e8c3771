"""Hybrid rules: linguistic antecedents, polynomial consequents.

Shows a hand-built rule, its bounded evaluation, and how consequent
polynomials are estimated from the rows a rule fires on.
"""
import numpy as np

from hit2mtsk.rules import HybridRule, Polynomial, clamp, fit_consequent

rule = HybridRule(
    antecedent=(("temp", "High"), ("load", "Medium")),
    consequent_set="High",
    consequent_fn=Polynomial(
        degree=2,
        variables=("temp", "load"),
        exponents=((0, 0), (1, 0), (0, 1), (1, 1)),
        coefficients=(4.0, 0.8, 1.1, -0.02),
    ),
    clamp_bounds=(10.0, 60.0),
    fuzzy_dominance=(0.30, 0.45),
    error_dominance=0.42,
)

print(rule.describe("output"))
print(f"consequent: {rule.consequent_fn.render()}")
print(f"clamped to: {rule.clamp_bounds}\n")

# the clamp keeps extrapolation inside the consequent set's support;
# the polynomial takes rows of its variables (temp, load)
rows = np.array([(30.0, 12.0), (90.0, 40.0), (-50.0, 0.0)])
raw = rule.consequent_fn.evaluate(rows)
out = clamp(raw, rule.clamp_bounds)
for (temp, load), r, o in zip(rows, raw, out):
    tag = "" if r == o else "   <- clamped"
    print(f"  temp={temp:6.1f} load={load:5.1f}   raw={r:8.2f}   out={o:6.2f}{tag}")

# fitting: least squares over the firing rows, here with a known truth
rng = np.random.default_rng(2)
X = rng.uniform(0, 10, size=(120, 2))
truth = 3.0 + 1.5 * X[:, 0] - 0.5 * X[:, 1] + 0.25 * X[:, 0] * X[:, 1]
y = truth + rng.normal(0, 0.05, 120)

fitted = fit_consequent(X, y, variables=("a", "b"), degree=2)
print(f"\nrecovered from noisy samples: {fitted.render()}")
print("true generator:               3 + 1.5*a - 0.5*b + 0.25*a*b")

# with too few rows for the requested degree the fit degrades instead
tiny = fit_consequent(X[:4], y[:4], variables=("a", "b"), degree=3)
print(f"\n4 rows cannot support degree 3; fit fell back to degree {tiny.degree}:")
print(f"  {tiny.render()}")
