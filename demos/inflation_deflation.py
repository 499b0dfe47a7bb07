"""Point-mass (type 1) and step (type 2) perturbations of a base family.

A type 1 factor alpha at point q multiplies p(q) alone; a type 2 factor phi
at q multiplies every probability up to q.  Both stay inside the stationary
birth-death class, so the change shows up as a local edit of the ratio
sequence: type 1 touches lambda_{q-1} and lambda_q, type 2 only lambda_q.
"""

import json

import numpy as np

from bdcount import (
    BaseDistribution,
    InfDefDistribution,
    InflationSpec,
    base_pmf,
    base_ratio,
    modified_ratio,
)

base = BaseDistribution(kind="poisson", lam=2.6)
ns = np.arange(7)

t1 = InfDefDistribution(base, InflationSpec(family="type1", points=(2,), factors=(0.31,)))
t2 = InfDefDistribution(base, InflationSpec(family="type2", points=(2,), factors=(2.756,)))

print("=== probabilities: base, deflated cell at 2 (type 1), inflated head (type 2) ===")
print("n   base     type1    type2")
b = base_pmf(base, ns)
p1 = t1.pmf(ns)
p2 = t2.pmf(ns)
for n in ns:
    print(f"{n}  {b[n]:.4f}   {p1[n]:.4f}   {p2[n]:.4f}")

print("\n=== ratio edits stay local ===")
print("n   base      type1     type2")
lam_b = base_ratio(base, ns)
lam_1 = modified_ratio(t1, ns)
lam_2 = modified_ratio(t2, ns)
for n in ns:
    marks = ""
    if abs(lam_1[n] - lam_b[n]) > 1e-12:
        marks += "  <- type1"
    if abs(lam_2[n] - lam_b[n]) > 1e-12:
        marks += "  <- type2"
    print(f"{n}  {lam_b[n]:.4f}    {lam_1[n]:.4f}    {lam_2[n]:.4f}{marks}")

print("\n=== JSON document form (CLI --spec input) ===")
print(json.dumps(t2.to_document(), indent=2))
