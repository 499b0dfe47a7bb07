"""Shared helpers: the hypothesis profile and seeded random model generators used across test modules."""

import numpy as np
import pytest
from hypothesis import settings

from bdcount import BaseDistribution, InflationSpec, base_pmf

## One hypothesis profile for every property test: the same examples on every
## run, no wall-clock deadline, and no example database written to disk.
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")

## Base kinds with a canonical exponential-family form.
EF_KINDS = ("geometric", "poisson", "negative_binomial", "hyper_poisson", "cmp")
ALL_KINDS = EF_KINDS + ("poisson_lindley",)


def random_base(rng, kinds=EF_KINDS):
    kind = kinds[rng.integers(len(kinds))]
    if kind == "geometric":
        return BaseDistribution(kind=kind, lam=rng.uniform(0.05, 0.9))
    if kind == "poisson":
        return BaseDistribution(kind=kind, lam=rng.uniform(0.2, 8.0))
    if kind == "poisson_lindley":
        return BaseDistribution(kind=kind, lam=rng.uniform(0.05, 0.9))
    if kind == "negative_binomial":
        r = rng.uniform(0.5, 8.0)
        return BaseDistribution(kind=kind, lam=r * rng.uniform(0.05, 0.9), r=r)
    if kind == "hyper_poisson":
        return BaseDistribution(kind=kind, lam=rng.uniform(0.2, 8.0), tau=rng.uniform(0.3, 5.0))
    return BaseDistribution(kind="cmp", lam=rng.uniform(0.2, 5.0), nu=rng.uniform(0.6, 2.0))


def random_points(rng, max_point=6, max_size=3):
    size = int(rng.integers(1, max_size + 1))
    return tuple(sorted(rng.choice(max_point + 1, size=size, replace=False).tolist()))


def random_spec(rng, family=None, max_point=6):
    if family is None:
        family = ("type1", "type2")[rng.integers(2)]
    points = random_points(rng, max_point)
    factors = tuple(np.exp(rng.uniform(-1.5, 1.5, size=len(points))).tolist())
    return InflationSpec(family=family, points=points, factors=factors)


def random_admissible_omegas(rng, base, points):
    """Rejection-sample omegas inside the open admissible region."""
    b_pts = base_pmf(base, np.asarray(points))
    for _ in range(1000):
        omegas = rng.uniform(-0.2, 0.3, size=len(points))
        rest = 1.0 - omegas.sum()
        if rest > 1e-6 and np.all(omegas + rest * b_pts > 1e-9):
            return tuple(omegas.tolist())
    raise AssertionError("rejection sampling failed to find admissible omegas")


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
