"""Gillespie sampler against analytic stationary laws."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdcount import (
    BaseDistribution,
    BirthDeathRates,
    DomainError,
    SimConfig,
    StateExplosionError,
    StationaryPMF,
    base_pmf,
    base_ratio_sequence,
    canonical_rates,
    run_ctmc,
    tv_distance,
)
from bdcount.simulate import _CHUNK

POISSON = BaseDistribution(kind="poisson", lam=2.0)


def test_sim_config_validation():
    SimConfig(seed=0, sample_time=1.0)
    with pytest.raises(DomainError):
        SimConfig(seed=-1, sample_time=1.0)
    with pytest.raises(DomainError):
        SimConfig(seed=1.5, sample_time=1.0)
    with pytest.raises(DomainError):
        SimConfig(seed=0, sample_time=0.0)
    with pytest.raises(DomainError):
        SimConfig(seed=0, sample_time=1.0, burn_in_time=-2.0)
    with pytest.raises(DomainError):
        SimConfig(seed=0, sample_time=1.0, thinning_interval=0.0)


def test_canonical_rates_spot_values():
    ratio = base_ratio_sequence(POISSON)
    linear = canonical_rates(ratio, "linear")
    ## the linear scheme turns the Poisson ratio into the infinite-server queue
    for n in range(6):
        assert abs(linear.birth(n) - 2.0) < 1e-12
        assert linear.death(n) == float(n)
    constant = canonical_rates(ratio, "constant")
    assert abs(constant.birth(3) - 0.5) < 1e-12
    assert constant.death(7) == 1.0
    with pytest.raises(DomainError):
        canonical_rates(ratio, "discrete")


def test_run_is_deterministic_by_seed():
    rates = canonical_rates(base_ratio_sequence(POISSON), "linear")
    config = SimConfig(seed=99, sample_time=500.0)
    a = run_ctmc(rates, config)
    b = run_ctmc(rates, config)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.trace, b.trace)
    assert a.metadata == b.metadata
    c = run_ctmc(rates, SimConfig(seed=100, sample_time=500.0))
    assert not np.array_equal(a.weights, c.weights)


def test_occupancy_converges_to_stationary_law():
    rates = canonical_rates(base_ratio_sequence(POISSON), "linear")
    target = StationaryPMF(base_ratio_sequence(POISSON))
    tvs = [
        tv_distance(run_ctmc(rates, SimConfig(seed=4, sample_time=t)), target)
        for t in (300.0, 30000.0)
    ]
    assert tvs[1] < tvs[0]
    assert tvs[1] < 0.02


def test_constant_scheme_same_stationary_law():
    rates = canonical_rates(base_ratio_sequence(POISSON), "constant")
    result = run_ctmc(rates, SimConfig(seed=12, sample_time=30000.0))
    assert tv_distance(result, StationaryPMF(base_ratio_sequence(POISSON))) < 0.02


def test_custom_rates_queue():
    ## M/M/1 queue: constant arrival and service, geometric stationary law
    rates = BirthDeathRates(birth=lambda n: 0.6, death=lambda n: 1.0)
    result = run_ctmc(rates, SimConfig(seed=8, sample_time=20000.0))
    geo = BaseDistribution(kind="geometric", lam=0.6)
    assert tv_distance(result, lambda ns: base_pmf(geo, ns)) < 0.03


def test_crossing_counts_fence_property():
    rates = canonical_rates(base_ratio_sequence(POISSON), "linear")
    result = run_ctmc(rates, SimConfig(seed=21, sample_time=5000.0))
    ups, downs = result.up_crossings, result.down_crossings
    ## between any pair of neighboring levels the counts interleave
    for k in range(len(ups) - 1):
        assert abs(ups[k] - downs[k + 1]) <= 1.0
    assert result.metadata["events"] == int(ups.sum() + downs.sum())


def test_crossing_rates_match_detailed_balance():
    ## given the time w_k spent at level k the jump counts out of it are
    ## conditionally Poisson, so the sample path ties counts to occupancy
    rates = canonical_rates(base_ratio_sequence(POISSON), "linear")
    result = run_ctmc(rates, SimConfig(seed=21, sample_time=5000.0))
    for k in range(5):
        up_expected = rates.birth(k) * result.weights[k]
        assert abs(result.up_crossings[k] - up_expected) < 4.0 * math.sqrt(up_expected)
        down_expected = rates.death(k + 1) * result.weights[k + 1]
        assert abs(result.down_crossings[k + 1] - down_expected) < 4.0 * math.sqrt(down_expected)


def test_guard_raises_on_small_bound():
    rates = canonical_rates(base_ratio_sequence(POISSON), "linear")
    with pytest.raises(StateExplosionError, match="guard bound"):
        run_ctmc(rates, SimConfig(seed=2, sample_time=5000.0), max_state=3)


def test_default_burn_in_and_metadata():
    geo = BaseDistribution(kind="geometric", lam=0.3)
    rates = canonical_rates(base_ratio_sequence(geo), "constant")
    result = run_ctmc(rates, SimConfig(seed=1, sample_time=50.0))
    ## slowest low rate is gamma_0 = 0.3, so burn-in is 50 / 0.3
    assert abs(result.metadata["burn_in_time"] - 50.0 / 0.3) < 1e-12
    assert result.metadata["seed"] == 1
    assert result.metadata["scheme"] == "constant"
    assert result.metadata["rng"].startswith("numpy.random.default_rng")
    explicit = run_ctmc(rates, SimConfig(seed=1, sample_time=50.0, burn_in_time=7.5))
    assert explicit.metadata["burn_in_time"] == 7.5


def test_trace_thinning_grid():
    rates = canonical_rates(base_ratio_sequence(POISSON), "linear")
    result = run_ctmc(rates, SimConfig(seed=6, sample_time=200.0, thinning_interval=1.0))
    assert len(result.trace) == 200
    coarse = run_ctmc(rates, SimConfig(seed=6, sample_time=200.0, thinning_interval=2.5))
    assert len(coarse.trace) == 80
    assert np.all(coarse.trace >= 0)


def test_occupancy_normalizes():
    rates = canonical_rates(base_ratio_sequence(POISSON), "linear")
    result = run_ctmc(rates, SimConfig(seed=3, sample_time=100.0))
    occ = result.occupancy()
    assert abs(occ.sum() - 1.0) < 1e-12
    assert abs(result.weights.sum() - 100.0) < 1e-9


def test_zero_rate_rejected():
    rates = BirthDeathRates(birth=lambda n: 0.0, death=lambda n: 1.0)
    with pytest.raises(DomainError):
        run_ctmc(rates, SimConfig(seed=0, sample_time=10.0), max_state=8)


def test_long_run_is_deterministic_across_chunks():
    rates = canonical_rates(base_ratio_sequence(POISSON), "linear")
    config = SimConfig(seed=41, sample_time=5000.0)
    a = run_ctmc(rates, config)
    b = run_ctmc(rates, config)
    ## the run spans several chunks of random draws
    assert a.metadata["events"] > 3 * _CHUNK
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.trace, b.trace)
    assert a.metadata == b.metadata


def test_rates_evaluated_once_per_reached_level():
    ratio = base_ratio_sequence(POISSON)
    linear = canonical_rates(ratio, "linear")
    births, deaths = Counter(), Counter()

    def birth(n):
        births[n] += 1
        return linear.birth(n)

    def death(n):
        deaths[n] += 1
        return linear.death(n)

    rates = BirthDeathRates(birth=birth, death=death, scheme="linear", canonicalized_from=ratio)
    ## a negligible burn-in, so every level the path reaches holds weight
    result = run_ctmc(rates, SimConfig(seed=5, sample_time=200.0, burn_in_time=1e-9))
    top = max(int(np.flatnonzero(result.weights).max()), 1)
    assert top + 10 < result.metadata["max_state"]
    assert set(births) == set(range(top + 1))
    assert set(deaths) == set(range(1, top + 1))
    assert max(births.values()) == 1 and max(deaths.values()) == 1


@pytest.mark.parametrize(
    "birth, death",
    [
        (lambda n: 0.6 if n < 3 else 0.0, lambda n: 1.0),
        (lambda n: 0.6 if n < 3 else math.nan, lambda n: 1.0),
        (lambda n: 0.6, lambda n: 1.0 if n < 2 else 0.0),
        (lambda n: 0.6, lambda n: 1.0 if n < 2 else math.nan),
    ],
)
def test_bad_rate_at_reached_level_rejected(birth, death):
    ratio = base_ratio_sequence(BaseDistribution(kind="geometric", lam=0.6))
    rates = BirthDeathRates(birth=birth, death=death, canonicalized_from=ratio)
    with pytest.raises(DomainError, match="level"):
        run_ctmc(rates, SimConfig(seed=3, sample_time=2000.0))


def test_bad_rate_at_unreached_level_not_evaluated():
    ratio = base_ratio_sequence(BaseDistribution(kind="geometric", lam=0.6))
    rates = BirthDeathRates(birth=lambda n: 0.6 if n < 150 else math.nan, death=lambda n: 1.0, canonicalized_from=ratio)
    result = run_ctmc(rates, SimConfig(seed=3, sample_time=200.0))
    assert result.metadata["max_state"] > 150
    assert result.metadata["events"] > 0


def test_detailed_balance_residual_in_metadata():
    rates = canonical_rates(base_ratio_sequence(POISSON), "linear")
    result = run_ctmc(rates, SimConfig(seed=21, sample_time=500.0))
    events = result.metadata["events"]
    residual = result.metadata["detailed_balance_residual"]
    assert residual == np.max(np.abs(result.up_crossings[:-1] - result.down_crossings[1:])) / events
    assert residual <= 1.0 / events


@st.composite
def sim_models(draw):
    kind = draw(st.sampled_from(("poisson", "geometric", "negative_binomial")))
    if kind == "poisson":
        base = BaseDistribution(kind=kind, lam=draw(st.floats(0.2, 8.0)))
    elif kind == "geometric":
        base = BaseDistribution(kind=kind, lam=draw(st.floats(0.05, 0.8)))
    else:
        r = draw(st.floats(0.5, 6.0))
        base = BaseDistribution(kind=kind, lam=r * draw(st.floats(0.1, 0.8)), r=r)
    return base, draw(st.sampled_from(("linear", "constant")))


@settings(max_examples=30)
@given(model=sim_models(), seed=st.integers(0, 2**31), sample_time=st.floats(5.0, 60.0))
def test_sample_path_invariants(model, seed, sample_time):
    base, scheme = model
    rates = canonical_rates(base_ratio_sequence(base), scheme)
    result = run_ctmc(rates, SimConfig(seed=seed, sample_time=sample_time))
    ups, downs = result.up_crossings, result.down_crossings
    assert np.all(np.abs(ups[:-1] - downs[1:]) <= 1.0)
    assert abs(result.weights.sum() - sample_time) < 1e-9
    assert result.metadata["events"] == ups.sum() + downs.sum()
