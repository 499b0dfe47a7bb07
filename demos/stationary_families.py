"""Tour of the base count families and their birth-death structure.

Every distribution here is the stationary law of a birth-death chain, fixed
entirely by the ratio sequence lambda_n = p(n+1)/p(n).  The script prints the
leading probabilities and ratios for each family, then shows two structural
facts: the discrete compound representation of the Poisson-Lindley family,
and how weight functions transport one family onto another.
"""

import numpy as np

from bdcount import (
    BaseDistribution,
    WeightedPMF,
    base_pmf,
    base_ratio,
    catalogue_weight,
)

ns = np.arange(8)

bases = [
    BaseDistribution(kind="geometric", lam=0.6),
    BaseDistribution(kind="poisson", lam=2.0),
    BaseDistribution(kind="poisson_lindley", lam=0.6),
    BaseDistribution(kind="negative_binomial", lam=1.6, r=4.0),
    BaseDistribution(kind="hyper_poisson", lam=2.0, tau=2.5),
    BaseDistribution(kind="cmp", lam=2.0, nu=1.4),
]

print("=== leading probabilities p(0..7) and ratios lambda_0..lambda_3 ===")
for base in bases:
    p = base_pmf(base, ns)
    lam_n = base_ratio(base, np.arange(4))
    row = " ".join(f"{v:.4f}" for v in p)
    ratios = " ".join(f"{v:.4f}" for v in lam_n)
    print(f"{base.kind:>18}: p = {row}")
    print(f"{'':>18}  lambda_n = {ratios}")

## The Poisson-Lindley ratio (1 + (n+2)lam) lam / (1 + (n+1)lam) sits between
## the geometric (constant) and Poisson (vanishing) regimes.
pl = BaseDistribution(kind="poisson_lindley", lam=0.6)
print("\n=== Poisson-Lindley ratios approach the geometric constant ===")
lam_n = base_ratio(pl, np.arange(30))
print("lambda_0 =", f"{lam_n[0]:.6f}", " lambda_29 =", f"{lam_n[29]:.6f}", " limit =", 0.6)

## Weight functions transport families: w(n) b(n) / z reshapes the ratios by
## g(n) = w(n+1)/w(n).  The catalogue holds the weights linking each target
## family to a geometric or Poisson reference.
print("\n=== the hyper-Poisson family as a weighted Poisson ===")
target = BaseDistribution(kind="hyper_poisson", lam=2.0, tau=2.5)
reference = BaseDistribution(kind="poisson", lam=2.0)
weight = catalogue_weight("hyper_poisson", against="poisson", tau=2.5)
law = WeightedPMF(reference, weight)
wp = law.pmf(ns)
direct = base_pmf(target, ns)
print("weighted reference:", " ".join(f"{v:.6f}" for v in wp))
print("direct evaluation: ", " ".join(f"{v:.6f}" for v in direct))
print("max gap:", f"{np.max(np.abs(wp - direct)):.2e}")
