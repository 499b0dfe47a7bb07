"""Inflation-deflation laws, mixture equivalences, and JSON documents."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdcount import (
    BaseDistribution,
    DomainError,
    InfDefDistribution,
    InflationSpec,
    MixtureModel,
    SeriesPolicy,
    StationaryPMF,
    WeightedPMF,
    alpha_from_omega,
    base_pmf,
    base_ratio_sequence,
    catalogue_weight,
    classify_sequence,
    log_weight_f,
    model_from_document,
    model_pmf,
    modified_ratio,
    omega_from_alpha,
    omega_from_psi,
    psi_link,
)
from conftest import random_admissible_omegas, random_base, random_spec

POISSON = BaseDistribution(kind="poisson", lam=2.6)


def test_weight_patterns():
    s2 = InflationSpec(family="type2", points=(0, 2), factors=(1.3, 1.5))
    assert np.allclose(np.exp(log_weight_f(s2, np.arange(5))), [1.95, 1.5, 1.5, 1.0, 1.0], rtol=1e-12)
    s1 = InflationSpec(family="type1", points=(2,), factors=(2.0,))
    assert np.allclose(np.exp(log_weight_f(s1, np.arange(5))), [1.0, 1.0, 2.0, 1.0, 1.0], rtol=1e-12)


def test_spec_validation():
    with pytest.raises(DomainError):
        InflationSpec(family="type3", points=(0,), factors=(1.5,))
    with pytest.raises(DomainError):
        InflationSpec(family="type1", points=(2, 1), factors=(1.5, 1.5))
    with pytest.raises(DomainError):
        InflationSpec(family="type1", points=(0, 0), factors=(1.5, 1.5))
    with pytest.raises(DomainError):
        InflationSpec(family="type1", points=(0,), factors=(0.0,))
    with pytest.raises(DomainError):
        InflationSpec(family="type1", points=(-1,), factors=(1.5,))
    with pytest.raises(DomainError):
        InflationSpec(family="type1", points=(0, 2), factors=(1.5,))


@pytest.mark.parametrize("family", ["type1", "type2"])
def test_pmf_matches_brute_force(rng, family):
    ## Oracle: normalize f(n) b(n) by direct summation over a long support.
    for _ in range(20):
        base = random_base(rng, kinds=("geometric", "poisson", "negative_binomial"))
        spec = random_spec(rng, family=family)
        dist = InfDefDistribution(base, spec)
        ns = np.arange(600)
        raw = np.exp(log_weight_f(spec, ns)) * base_pmf(base, ns)
        expected = raw / raw.sum()
        assert np.max(np.abs(dist.pmf(ns[:100]) - expected[:100])) < 1e-12


@pytest.mark.parametrize("family", ["type1", "type2"])
def test_modified_ratio_is_pmf_ratio(rng, family):
    for _ in range(10):
        base = random_base(rng)
        spec = random_spec(rng, family=family)
        dist = InfDefDistribution(base, spec)
        ns = np.arange(30)
        p = dist.pmf(np.arange(31))
        assert np.max(np.abs(modified_ratio(dist, ns) - p[1:] / p[:-1])) < 1e-10


def test_ratio_localization():
    ## type 1 at F={2} touches lambda_1 and lambda_2; type 2 only lambda_2.
    base = POISSON
    d1 = InfDefDistribution(base, InflationSpec(family="type1", points=(2,), factors=(3.0,)))
    d2 = InfDefDistribution(base, InflationSpec(family="type2", points=(2,), factors=(3.0,)))
    ns = np.arange(10)
    from bdcount import base_ratio

    r_base = base_ratio(base, ns)
    r1 = modified_ratio(d1, ns)
    r2 = modified_ratio(d2, ns)
    assert np.allclose(r1[[0, 3, 4, 5]], r_base[[0, 3, 4, 5]], rtol=1e-14)
    assert np.isclose(r1[1], 3.0 * r_base[1]) and np.isclose(r1[2], r_base[2] / 3.0)
    assert np.allclose(r2[[0, 1, 3, 4, 5]], r_base[[0, 1, 3, 4, 5]], rtol=1e-14)
    assert np.isclose(r2[2], r_base[2] / 3.0)


def test_type1_type2_same_law_on_full_prefix():
    ## Matching f on F = {0,...,q} makes the two families coincide.
    phis = (1.3, 0.7, 2.1)
    spec2 = InflationSpec(family="type2", points=(0, 1, 2), factors=phis)
    f_vals = np.exp(log_weight_f(spec2, np.arange(3)))
    spec1 = InflationSpec(family="type1", points=(0, 1, 2), factors=tuple(f_vals))
    ns = np.arange(50)
    assert np.max(np.abs(InfDefDistribution(POISSON, spec1).pmf(ns) - InfDefDistribution(POISSON, spec2).pmf(ns))) < 1e-14


@pytest.mark.parametrize("psi", [0.7, -1.1])
def test_zero_cell_tilt_coincidence(psi):
    base = BaseDistribution(kind="poisson", lam=1.7)
    t1 = InfDefDistribution(base, InflationSpec(family="type1", points=(0,), factors=(math.exp(psi),)))
    t2 = InfDefDistribution(base, InflationSpec(family="type2", points=(0,), factors=(math.exp(psi),)))
    hs = MixtureModel(base=base, variant="haslett", psi=psi)
    ns = np.arange(60)
    assert np.max(np.abs(t1.pmf(ns) - t2.pmf(ns))) < 1e-14
    assert np.max(np.abs(t1.pmf(ns) - hs.pmf(ns))) < 1e-14


def test_hurdle_pmf():
    mix = MixtureModel(base=POISSON, variant="hurdle", pi=0.35)
    p = mix.pmf(np.arange(40))
    b = base_pmf(POISSON, np.arange(40))
    assert np.isclose(p[0], 0.35)
    assert np.allclose(p[1:], 0.65 * b[1:] / (1.0 - b[0]), rtol=1e-12)
    assert abs(p.sum() - 1.0) < 1e-10


def test_hurdle_without_a_finite_type1_factor_is_a_domain_error():
    ## b(0) = e^-800 underflows, so alpha = pi (1 - b0) / ((1 - pi) b0) is no float.
    far = MixtureModel(base=BaseDistribution(kind="poisson", lam=800.0), variant="hurdle", pi=0.5)
    with pytest.raises(DomainError, match="hurdle"):
        far.as_type1()
    with pytest.raises(DomainError):
        far.ratio_sequence()
    ## b(0) = e^-700 is a float, but alpha = e^700 / 1e-300 is not.
    tiny = MixtureModel(base=BaseDistribution(kind="poisson", lam=700.0), variant="hurdle", pi=1.0 - 1e-16)
    with pytest.raises(DomainError):
        tiny.as_type1()


def test_zero_inflated_pmf_and_deflation():
    b0 = base_pmf(POISSON, 0)
    for omega in (0.25, -0.05):
        mix = MixtureModel(base=POISSON, variant="zero_inflated", points=(0,), omegas=(omega,))
        p = mix.pmf(np.arange(50))
        assert np.isclose(p[0], omega + (1.0 - omega) * b0)
        assert abs(p.sum() - 1.0) < 1e-10


def test_multiple_inflation_mass():
    mix = MixtureModel(
        base=POISSON, variant="multiple_inflation", points=(0, 3), omegas=(0.1, 0.2)
    )
    p = mix.pmf(np.arange(60))
    assert abs(p.sum() - 1.0) < 1e-10
    b = base_pmf(POISSON, np.arange(60))
    assert np.isclose(p[3], 0.2 + 0.7 * b[3])
    assert np.allclose(p[1:3], 0.7 * b[1:3])


def test_zero_cell_map_frozen_value():
    ## Poisson(2), alpha_0 = 2: omega_0 = e^-2 / (1 + e^-2).
    base = BaseDistribution(kind="poisson", lam=2.0)
    spec = InflationSpec(family="type1", points=(0,), factors=(2.0,))
    om = omega_from_alpha(base, spec)
    assert abs(om[0] - 0.11920292202211755) < 1e-15


def test_map_roundtrips_random(rng):
    for _ in range(40):
        base = random_base(rng, kinds=("geometric", "poisson", "negative_binomial", "hyper_poisson"))
        points = tuple(sorted(rng.choice(6, size=rng.integers(1, 4), replace=False).tolist()))
        omegas = random_admissible_omegas(rng, base, points)
        alphas = alpha_from_omega(base, points, omegas)
        spec = InflationSpec(family="type1", points=points, factors=alphas)
        back = omega_from_alpha(base, spec)
        assert np.max(np.abs(np.asarray(back) - np.asarray(omegas))) < 1e-12
        ## the mixture and the perturbation are the same law
        mix = MixtureModel(base=base, variant="multiple_inflation", points=points, omegas=omegas)
        ns = np.arange(80)
        assert np.max(np.abs(mix.pmf(ns) - InfDefDistribution(base, spec).pmf(ns))) < 1e-12


def test_psi_link_roundtrip(rng):
    base = BaseDistribution(kind="poisson", lam=3.0)
    points = (0, 2)
    omegas = (0.15, -0.02)
    psi = psi_link(base, points, omegas)
    back = omega_from_psi(base, points, psi)
    assert np.max(np.abs(np.asarray(back) - np.asarray(omegas))) < 1e-14
    alphas = alpha_from_omega(base, points, omegas)
    assert np.allclose(np.exp(psi), alphas, rtol=1e-14)


def test_boundary_lines_named_in_errors():
    base = BaseDistribution(kind="poisson", lam=2.0)
    with pytest.raises(DomainError, match="l1"):
        alpha_from_omega(base, (0, 4), (0.6, 0.4))
    with pytest.raises(DomainError, match="l2"):
        alpha_from_omega(base, (0, 4), (-0.5, 0.1))
    with pytest.raises(DomainError, match="l3"):
        alpha_from_omega(base, (0, 4), (0.1, -0.2))


def test_mixture_validation():
    with pytest.raises(DomainError):
        MixtureModel(base=POISSON, variant="zero_inflated", points=(1,), omegas=(0.2,))
    with pytest.raises(DomainError, match="l1"):
        MixtureModel(base=POISSON, variant="multiple_inflation", points=(0,), omegas=(1.0,))
    with pytest.raises(DomainError):
        MixtureModel(base=POISSON, variant="hurdle", pi=1.0)
    with pytest.raises(DomainError):
        MixtureModel(base=POISSON, variant="haslett", psi=math.inf)
    with pytest.raises(DomainError):
        MixtureModel(base=POISSON, variant="spike", pi=0.5)


def test_json_document_roundtrip():
    models = [
        POISSON,
        BaseDistribution(kind="negative_binomial", lam=1.2, r=4.0),
        InfDefDistribution(POISSON, InflationSpec(family="type2", points=(1, 3), factors=(0.4, 2.0))),
        MixtureModel(base=POISSON, variant="multiple_inflation", points=(0, 2), omegas=(0.1, 0.05)),
        MixtureModel(base=POISSON, variant="hurdle", pi=0.4),
        MixtureModel(base=POISSON, variant="haslett", psi=-0.8),
    ]
    for model in models:
        doc = model.to_document()
        rebuilt = model_from_document(doc)
        ns = np.arange(40)
        assert np.allclose(model_pmf(rebuilt, ns), model_pmf(model, ns), rtol=1e-14)


@pytest.mark.parametrize(
    "doc",
    [
        {"family": "base"},
        {"family": "base", "base": {"kind": "poisson"}},
        {"family": "base", "base": {"kind": "poisson", "lambda": 1.0, "mu": 2.0}},
        {"family": "type1", "base": {"kind": "poisson", "lambda": 1.0}},
        {"family": "gamma", "base": {"kind": "poisson", "lambda": 1.0}},
        {"family": "mixture", "variant": "spike", "base": {"kind": "poisson", "lambda": 1.0}},
        {"family": "base", "base": {"kind": "poisson", "lambda": 1.0}, "extra": 1},
        [1, 2, 3],
        ## a zero-cell variant at another point is refused, not read as a model at 0
        {"family": "mixture", "variant": "hurdle", "points": [2], "pi": 0.3, "base": {"kind": "poisson", "lambda": 1.0}},
        {"family": "mixture", "variant": "haslett", "points": [3], "psi": 0.5, "base": {"kind": "poisson", "lambda": 1.0}},
        ## and a field of another variant is refused, not dropped
        {"family": "mixture", "variant": "hurdle", "pi": 0.3, "omegas": [0.1], "base": {"kind": "poisson", "lambda": 1.0}},
        ## a scalar where a list belongs is a typed error, not a TypeError
        {"family": "mixture", "variant": "zero_inflated", "points": 3, "omegas": [0.2], "base": {"kind": "poisson", "lambda": 2.0}},
        {"family": "type1", "points": [0], "factors": 2.0, "base": {"kind": "poisson", "lambda": 2.0}},
        {"family": "mixture", "variant": "zero_inflated", "omegas": 0.2, "base": {"kind": "poisson", "lambda": 2.0}},
    ],
)
def test_bad_documents_rejected(doc):
    with pytest.raises(DomainError):
        model_from_document(doc)


def test_strict_open_region_enforced_at_eval():
    ## omegas pass the structural check but land exactly on l2 for this base.
    base = BaseDistribution(kind="poisson", lam=2.0)
    b0 = base_pmf(base, 0)
    omega = -b0 / (1.0 - b0)  # omega + (1 - omega) b0 == 0
    mix = MixtureModel(base=base, variant="zero_inflated", points=(0,), omegas=(omega,))
    ## A fully deflated cell is a typed error, not the log of 0 with a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="l2"):
            mix.pmf(np.arange(5))


def test_tiny_cell_mass_is_not_clamped():
    ## b(0) = e^-800 underflows, so the cell mass is omega alone: log(1e-310), not log(1e-300).
    mix = MixtureModel(
        base=BaseDistribution(kind="poisson", lam=800.0), variant="zero_inflated", points=(0,), omegas=(1e-310,)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(mix.logpmf(0) - math.log(1e-310)) < 1e-10
        out = mix.logpmf(np.array([0, 1, 800]))
    assert abs(out[0] - math.log(1e-310)) < 1e-10
    assert np.all(np.isfinite(out))



@pytest.mark.parametrize(
    "base, point",
    [
        (BaseDistribution(kind="negative_binomial", lam=0.7, r=1.3), 9),
        (BaseDistribution(kind="hyper_poisson", lam=2.5, tau=2.6), 13),
        (BaseDistribution(kind="cmp", lam=3.3, nu=1.3), 8),
    ],
)
def test_cell_mass_next_to_l2_is_the_checked_one(base, point):
    ## omega a few ulps inside l2: the log takes the positive mass the check saw,
    ## whether n comes alone or in an array.  At these nodes b(n) from a long
    ## array and from math.lgamma differ in the 15th digit.
    b = base_pmf(base, np.array([point]))[0]
    omega = -b / (1.0 - b)
    while not omega + (1.0 - omega) * b > 0.0:
        omega = np.nextafter(omega, 0.0)
    mix = MixtureModel(base=base, variant="multiple_inflation", points=(point,), omegas=(float(omega),))
    want = math.log(omega + (1.0 - omega) * b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone, in_array = mix.logpmf(point), mix.logpmf(np.arange(2 * point + 1))[point]
    assert alone == in_array
    assert abs(alone - want) <= 1e-12 * abs(want)


def test_normalizer_keeps_digits_when_the_levels_hold_the_mass():
    ## b(0) = 1 - 1e-13: 1 - b(0) cancels, so z is summed off the levels.
    base = BaseDistribution(kind="geometric", lam=1e-13)
    dist = InfDefDistribution(base, InflationSpec(family="type1", points=(0,), factors=(1e-12,)))
    assert abs(dist.pmf(np.arange(40)).sum() - 1.0) < 1e-12


def test_underflowing_cell_mass_is_kept_in_log_space():
    ## b(0) = e^-800 underflows; the cell mass 0.9 e^-800 is positive all the same.
    mix = MixtureModel(
        base=BaseDistribution(kind="poisson", lam=800.0), variant="multiple_inflation", points=(0, 800), omegas=(0.0, 0.1)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = math.log(0.9) - 800.0
        assert abs(mix.logpmf(0) - want) <= 1e-12 * abs(want)
        assert np.all(np.isfinite(mix.logpmf(np.array([0, 1, 800]))))
        factors = mix.as_type1().spec.factors
    assert all(math.isfinite(a) for a in factors)


## The ranges of conftest.random_base.
_BASES = st.one_of(
    st.builds(lambda lam: BaseDistribution("geometric", lam=lam), st.floats(0.05, 0.9)),
    st.builds(lambda lam: BaseDistribution("poisson", lam=lam), st.floats(0.2, 8.0)),
    st.builds(
        lambda p, r: BaseDistribution("negative_binomial", lam=p * r, r=r), st.floats(0.05, 0.9), st.floats(0.5, 8.0)
    ),
    st.builds(lambda lam, tau: BaseDistribution("hyper_poisson", lam=lam, tau=tau), st.floats(0.2, 8.0), st.floats(0.3, 5.0)),
    st.builds(lambda lam, nu: BaseDistribution("cmp", lam=lam, nu=nu), st.floats(0.2, 5.0), st.floats(0.6, 2.0)),
    st.builds(lambda lam: BaseDistribution("poisson_lindley", lam=lam), st.floats(0.05, 0.9)),
)
## Shares in (0, 1) that reach within 1e-12 of either end.
_SHARES = st.one_of(st.floats(1e-6, 1.0 - 1e-6), st.sampled_from([1e-12, 1e-9, 1.0 - 1e-9, 1.0 - 1e-12]))


def _point_mass_mixture(base, variant, points, u, shares, policy):
    """Omegas with rest = 1 - sum(omegas) = u / (1 - B), B the base mass at the points,
    and cell masses omega_i + rest b_i splitting 1 - u by shares: u near 0 is
    near l1 and a share near 0 near l_{i+2}, where omega_i is near -rest b_i."""
    b = base_pmf(base, np.asarray(points), policy)
    rest = u / (1.0 - b.sum())
    cells = (1.0 - u) * np.asarray(shares) / sum(shares)
    return MixtureModel(base=base, variant=variant, points=points, omegas=tuple((cells - rest * b).tolist()))


@settings(max_examples=300)
@given(
    base=_BASES,
    variant=st.sampled_from(["zero_inflated", "multiple_inflation", "hurdle", "haslett"]),
    second=st.integers(1, 5),
    u=_SHARES,
    shares=st.lists(_SHARES, min_size=2, max_size=2),
    pi=_SHARES,
    psi=st.floats(-30.0, 30.0),
)
def test_mixture_type1_roundtrip(base, variant, second, u, shares, pi, psi):
    ## from_type1(as_type1(m)) == m within 1e-12 for every variant, near the boundaries too.
    ## The map's condition number is rest = 1 - sum(omegas): an error d in the base's
    ## unit mass comes back as rest * d in omega, so the series normalizers are summed
    ## to rounding rather than to the default rel_tol.
    policy = SeriesPolicy(rel_tol=1e-16)
    if variant == "hurdle":
        mix = MixtureModel(base=base, variant=variant, pi=pi)
    elif variant == "haslett":
        mix = MixtureModel(base=base, variant=variant, psi=psi)
    else:
        points = (0,) if variant == "zero_inflated" else (0, second)
        try:
            mix = _point_mass_mixture(base, variant, points, u, shares[: len(points)], policy)
            mix.logpmf(0, policy)  # the drawn omegas can round onto a boundary line
        except DomainError:
            assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = MixtureModel.from_type1(mix.as_type1(policy), variant)
    assert back.base == mix.base and back.points == mix.points and back.variant == mix.variant
    if variant == "hurdle":
        assert abs(back.pi - mix.pi) <= 1e-12 * mix.pi
    elif variant == "haslett":
        assert abs(back.psi - mix.psi) <= 1e-12 * max(1.0, abs(mix.psi))
    else:
        assert np.all(np.abs(np.asarray(back.omegas) - mix.omegas) <= 1e-12 * np.maximum(1.0, np.abs(mix.omegas)))


def test_point_mass_mixture_roundtrip_at_the_default_policy():
    ## rest = 1 - sum(omegas) is about 5.9e3 here, and it multiplies the error of the
    ## base's unit mass, so the map comes back at the default rel_tol only when the
    ## series normalizer is summed to rounding.
    base = BaseDistribution("hyper_poisson", lam=0.057, tau=4.69)
    mix = _point_mass_mixture(base, "multiple_inflation", (0, 1), 0.7152, (0.5, 0.5), SeriesPolicy())
    assert np.allclose(mix.omegas, (-5824.0, -70.6), rtol=2e-3)
    back = MixtureModel.from_type1(mix.as_type1(), "multiple_inflation")
    assert np.all(np.abs(np.asarray(back.omegas) - mix.omegas) <= 1e-10 * np.abs(mix.omegas))


## One law of each kind, with the verdict classify_sequence gives its ratios.
INTERFACE_LAWS = [
    (POISSON, "constant"),
    (InfDefDistribution(POISSON, InflationSpec(family="type2", points=(2,), factors=(0.5,))), "non_monotonic"),
    (MixtureModel(base=POISSON, variant="zero_inflated", omegas=(0.2,)), "increasing"),
    (StationaryPMF(base_ratio_sequence(BaseDistribution(kind="geometric", lam=0.6))), "increasing"),
    (WeightedPMF(POISSON, catalogue_weight("squared_exponential", tau=0.3)), "decreasing"),
]


@pytest.mark.parametrize("law, verdict", INTERFACE_LAWS, ids=[type(law).__name__ for law, _ in INTERFACE_LAWS])
def test_every_law_answers_the_model_interface(law, verdict):
    ns, policy = np.arange(40), SeriesPolicy(rel_tol=1e-12)
    log_p = law.logpmf(ns, policy)
    p = law.pmf(ns, policy)
    assert np.array_equal(p, np.exp(log_p))
    assert np.array_equal(model_pmf(law, ns, policy), p)
    ## the ratios are the law's own: lambda_n = p(n+1) / p(n)
    ratios = law.ratio_sequence(policy).eval(ns[:-1])
    assert np.max(np.abs(ratios / np.exp(np.diff(log_p)) - 1.0)) < 1e-12
    assert classify_sequence(law).verdict == verdict
