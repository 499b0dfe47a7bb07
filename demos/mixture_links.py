"""Classical mixture models re-expressed as stationary type 1 models.

Zero inflation, multiple inflation, the hurdle model, and the zero-cell odds
tilt all admit exact type 1 counterparts.  The maps between mixing weights
omega and point factors alpha are closed-form in both directions, and the
two parameterizations behave very differently as the base rate grows: the
mixture pins p(n_i) at omega_i while the stationary model lets every cell
vanish.
"""

import math

import numpy as np

from bdcount import (
    BaseDistribution,
    InfDefDistribution,
    InflationSpec,
    MixtureModel,
    alpha_from_omega,
    omega_from_alpha,
)

base = BaseDistribution(kind="poisson", lam=1.8)
points = (0, 3)
omegas = (0.25, 0.10)

mix = MixtureModel(base=base, variant="multiple_inflation", points=points, omegas=omegas)
alphas = alpha_from_omega(base, points, omegas)
t1 = InfDefDistribution(base, InflationSpec(family="type1", points=points, factors=alphas))

ns = np.arange(12)
print("=== mixture == type 1 under the weight/factor maps ===")
print("alpha from omega:", tuple(f"{a:.6f}" for a in alphas))
print("omega recovered :", tuple(f"{w:.6f}" for w in omega_from_alpha(base, t1.spec)))
print("max pmf gap     :", f"{np.max(np.abs(mix.pmf(ns) - t1.pmf(ns))):.2e}")

print("\n=== zero-cell odds tilt: three equal parameterizations ===")
psi = 0.9
tilt = MixtureModel(base=base, variant="haslett", psi=psi)
t1_zero = InfDefDistribution(base, InflationSpec(family="type1", points=(0,), factors=(math.exp(psi),)))
t2_zero = InfDefDistribution(base, InflationSpec(family="type2", points=(0,), factors=(math.exp(psi),)))
print("tilt p(0..4)  :", " ".join(f"{v:.5f}" for v in tilt.pmf(np.arange(5))))
print("type1 p(0..4) :", " ".join(f"{v:.5f}" for v in t1_zero.pmf(np.arange(5))))
print("type2 p(0..4) :", " ".join(f"{v:.5f}" for v in t2_zero.pmf(np.arange(5))))

print("\n=== domination: the mixture cell is pinned, the stationary cell is not ===")
print("lam    mixture p(0)   type1 p(0)")
for lam in (5.0, 20.0, 80.0):
    big = BaseDistribution(kind="poisson", lam=lam)
    pinned = MixtureModel(base=big, variant="zero_inflated", points=(0,), omegas=(0.25,))
    free = InfDefDistribution(big, InflationSpec(family="type1", points=(0,), factors=(alphas[0],)))
    print(f"{lam:5.0f}  {pinned.pmf(np.asarray([0]))[0]:-12.6f}  {free.pmf(np.asarray([0]))[0]:-12.6f}")
