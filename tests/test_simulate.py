"""Gillespie sampler against analytic stationary laws."""

import dataclasses
import hashlib
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
    InfDefDistribution,
    InflationSpec,
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
from bdcount.stationary import SUPPORT_BLOCK

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


def test_steep_cmp_runs():
    ## CMP at lam = 1, nu = 200: about half the mass at 0 and half at 1, and
    ## birth rates that underflow to 0.0 past level 40, which the path never reaches
    base = BaseDistribution(kind="cmp", lam=1.0, nu=200.0)
    result = run_ctmc(canonical_rates(base_ratio_sequence(base), "linear"), SimConfig(seed=3, sample_time=2000.0))
    assert result.metadata["events"] > 1000
    assert tv_distance(result, lambda ns: base_pmf(base, ns)) < 0.05


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


@pytest.mark.parametrize("max_state", [-5, 2.5])
def test_max_state_must_be_a_non_negative_integer(max_state):
    rates = canonical_rates(base_ratio_sequence(POISSON))
    with pytest.raises(DomainError, match="max_state"):
        run_ctmc(rates, SimConfig(seed=0, sample_time=10.0), max_state=max_state)


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


def _per_event_run(rates, config, burn_in, max_state):
    """The per-event Gillespie loop that run_ctmc's chunked loop must match bit for bit.

    Same draws, same float operations in the same order; returns
    (weights, ups, downs, trace), or raises StateExplosionError as run_ctmc does.
    """
    up_rate = [float(rates.birth(n)) for n in range(2)]
    total_rate = [up_rate[0], up_rate[1] + float(rates.death(1))]
    horizon = burn_in + config.sample_time
    rng = np.random.default_rng(config.seed)
    occupancy = [0.0] * (max_state + 1)
    ups, downs = [0] * (max_state + 1), [0] * (max_state + 1)
    trace = []
    next_snap = burn_in
    t, x, i = 0.0, 0, _CHUNK
    while True:
        if i == _CHUNK:
            holds = rng.standard_exponential(_CHUNK).tolist()
            coins = rng.random(_CHUNK).tolist()
            i = 0
        total = total_rate[x]
        t_next = t + holds[i] / total
        t_end = t_next if t_next < horizon else horizon
        while next_snap < t_end:
            trace.append(x)
            next_snap += config.thinning_interval
        lo = t if t > burn_in else burn_in
        if t_end > lo:
            occupancy[x] += t_end - lo
        t = t_next
        if t >= horizon:
            break
        if coins[i] * total < up_rate[x]:
            if x == max_state:
                raise StateExplosionError("past the guard bound")
            if t >= burn_in:
                ups[x] += 1
            x += 1
            if x == len(up_rate):
                up_rate.append(float(rates.birth(x)))
                total_rate.append(up_rate[x] + float(rates.death(x)))
        else:
            if t >= burn_in:
                downs[x] += 1
            x -= 1
        i += 1
    return np.array(occupancy), np.array(ups, dtype=float), np.array(downs, dtype=float), np.array(trace, dtype=int)


@settings(max_examples=40)
@given(
    model=sim_models(),
    seed=st.integers(0, 2**31),
    sample_time=st.floats(1e-9, 3000.0),
    burn_in=st.one_of(st.none(), st.floats(1e-9, 100.0)),
    thin=st.floats(0.05, 5.0),
)
def test_chunked_loop_equals_per_event_loop(model, seed, sample_time, burn_in, thin):
    base, scheme = model
    rates = canonical_rates(base_ratio_sequence(base), scheme)
    config = SimConfig(seed=seed, sample_time=sample_time, burn_in_time=burn_in, thinning_interval=thin)
    result = run_ctmc(rates, config)
    meta = result.metadata
    weights, ups, downs, trace = _per_event_run(rates, config, meta["burn_in_time"], meta["max_state"])
    assert np.array_equal(result.weights, weights)
    assert np.array_equal(result.up_crossings, ups)
    assert np.array_equal(result.down_crossings, downs)
    assert np.array_equal(result.trace, trace)
    ## a guard bound at the highest level reached raises exactly where the loop does
    top = max(int(np.flatnonzero(ups + downs).max(initial=0)), 1)
    try:
        weights, *_ = _per_event_run(rates, config, meta["burn_in_time"], top - 1)
    except StateExplosionError:
        with pytest.raises(StateExplosionError):
            run_ctmc(rates, config, max_state=top - 1)
    else:
        assert np.array_equal(run_ctmc(rates, config, max_state=top - 1).weights, weights)


## Exact outputs of fixed runs: the digest covers states, weights, crossings
## and trace (dtype and bytes), so any change to a sampled path, its timing or
## its accumulation order shows here.
PINNED_RUNS = {
    "poisson_linear": (
        lambda: canonical_rates(base_ratio_sequence(POISSON), "linear"),
        SimConfig(seed=99, sample_time=3000.0),
        "488f802fea0ba332dde44c2ca78f815c868a06011aa604cb5df34b01d751e6c2",
        {"burn_in_time": 50.0, "max_state": 190, "events": 11734, "detailed_balance_residual": 0.0},
    ),
    "nb_constant": (
        lambda: canonical_rates(base_ratio_sequence(BaseDistribution("negative_binomial", 1.8, r=3.0)), "constant"),
        SimConfig(seed=5, sample_time=900.0, thinning_interval=0.7),
        "2b4b959d8c785a5f40598100064f1b64b6fa348846be75ae3cf97d5a17eca336",
        {"burn_in_time": 50.0, "max_state": 448, "events": 1749, "detailed_balance_residual": 0.0005717552887364208},
    ),
    "type2_linear": (
        lambda: canonical_rates(
            InfDefDistribution(BaseDistribution("poisson", 3.0), InflationSpec("type2", (2,), (1.5,))).ratio_sequence(),
            "linear",
        ),
        SimConfig(seed=7, sample_time=300.0, burn_in_time=2.5),
        "224b447f1045e802960f546028b3f79b05b8c7e383474bff3599a4b57b6d9e77",
        {"burn_in_time": 2.5, "max_state": 233, "events": 1737, "detailed_balance_residual": 0.0005757052389176742},
    ),
}


def _digest(result):
    h = hashlib.sha256()
    for a in (result.states, result.weights, result.up_crossings, result.down_crossings, result.trace):
        h.update(str(a.dtype).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_pinned_run_is_exact(name):
    make_rates, config, digest, meta = PINNED_RUNS[name]
    rates = make_rates()
    result = run_ctmc(rates, config)
    assert _digest(result) == digest
    assert result.metadata == {
        "seed": config.seed,
        "sample_time": config.sample_time,
        "thinning_interval": config.thinning_interval,
        "scheme": rates.scheme,
        "rng": "numpy.random.default_rng/PCG64, chunked",
        **meta,
    }


def test_negligible_window_then_full_window_equals_fresh_run():
    ## a traced run first times the set-up on a negligible window, then runs
    ## the full window on the same rates object
    make_rates, config, digest, _ = PINNED_RUNS["type2_linear"]
    rates = make_rates()
    tiny = run_ctmc(rates, SimConfig(seed=config.seed, sample_time=1e-9, burn_in_time=1e-9))
    assert tiny.metadata["events"] == 0
    again = run_ctmc(rates, config)
    fresh = run_ctmc(make_rates(), config)
    assert _digest(again) == _digest(fresh) == digest
    assert again.metadata == fresh.metadata


def _recording_rates(log, lam=50.0):
    ## Poisson(lam) under linear deaths; the set-up reads the ratio sequence,
    ## so log holds only the levels the event loop tabulates
    ratio = base_ratio_sequence(BaseDistribution(kind="poisson", lam=lam))

    def birth(n):
        log.append(n)
        return lam

    return BirthDeathRates(birth=birth, death=float, scheme="linear", canonicalized_from=ratio)


def test_level_first_reached_after_horizon_not_evaluated():
    ## from 0 the path climbs towards 50 with almost every jump, so the draws
    ## left in the chunk after the horizon would reach many new levels
    log = []
    result = run_ctmc(_recording_rates(log), SimConfig(seed=3, sample_time=0.05, burn_in_time=1e-9))
    reached = int(np.flatnonzero(result.weights).max())
    assert 2 <= reached and result.metadata["events"] < 100
    assert log == list(range(reached + 1))


def test_explosion_after_horizon_raises_nothing():
    config = SimConfig(seed=3, sample_time=0.05, burn_in_time=1e-9)
    free = run_ctmc(_recording_rates([]), config)
    reached = int(np.flatnonzero(free.weights).max())
    ## the guard bound at the highest level reached before the horizon: the
    ## path would pass it on the next up-jump, after the horizon
    guarded = run_ctmc(_recording_rates([]), config, max_state=reached)
    assert np.array_equal(guarded.weights, free.weights[: reached + 1])
    assert np.array_equal(guarded.trace, free.trace)
    assert guarded.metadata["events"] == free.metadata["events"]
    with pytest.raises(StateExplosionError):
        run_ctmc(_recording_rates([]), config, max_state=reached - 1)
    ## no event falls inside a negligible window, not even one past the guard
    assert run_ctmc(_recording_rates([]), SimConfig(seed=3, sample_time=1e-9, burn_in_time=1e-9), max_state=0).metadata["events"] == 0


def test_guard_bound_below_the_levels_tabulated_up_front():
    ## levels 0 and 1 are tabulated before the run; the guard still holds at 0
    rates = canonical_rates(base_ratio_sequence(POISSON), "linear")
    with pytest.raises(StateExplosionError, match="state 1 past the guard bound 0"):
        run_ctmc(rates, SimConfig(seed=2, sample_time=50.0), max_state=0)


def test_setup_evaluates_array_ratios_a_few_times():
    model = InfDefDistribution(BaseDistribution("poisson", 3.0), InflationSpec("type2", (2,), (1.5,)))
    ratio = model.ratio_sequence()
    calls = []

    def counted(n):
        calls.append(np.size(n))
        return ratio.log_eval(n)

    rates = canonical_rates(dataclasses.replace(ratio, log_eval=counted), "linear")
    result = run_ctmc(rates, SimConfig(seed=1, sample_time=1e-9, burn_in_time=1e-9))
    ## the table doubles from 128 entries; levels 0 and 1 are tabulated up front
    top = len(StationaryPMF(ratio).ns)
    assert len(calls) <= 2 + (top // SUPPORT_BLOCK).bit_length()
    assert sum(calls) <= 2 * top + 2
    assert result.metadata["events"] == 0
