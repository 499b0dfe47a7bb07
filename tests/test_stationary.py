"""Base families, ratio-to-PMF construction, series control, weighted laws."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdcount import (
    BaseDistribution,
    DivergenceError,
    DomainError,
    InfDefDistribution,
    InflationSpec,
    RatioSequence,
    SeriesCapError,
    SeriesPolicy,
    StationaryPMF,
    WeightedPMF,
    base_logpmf,
    base_pmf,
    base_ratio,
    base_ratio_sequence,
    canonicalize,
    catalogue_weight,
)
from bdcount.stationary import (
    _LGAMMA_FEW,
    _LGAMMA_MEMO_SIZE,
    _LGAMMA_TABLE_MAX,
    SUPPORT_BLOCK,
    _RISING_DIRECT_X,
    _lgamma_slot,
    log_gamma,
    log_norm,
    log_rate,
    log_rising,
    log_rising_slope,
    support_floor,
    support_scan,
    support_table,
)

BASES = [
    BaseDistribution(kind="geometric", lam=0.6),
    BaseDistribution(kind="poisson", lam=2.5),
    BaseDistribution(kind="poisson_lindley", lam=0.45),
    BaseDistribution(kind="negative_binomial", lam=1.8, r=3.0),
    BaseDistribution(kind="hyper_poisson", lam=2.2, tau=1.7),
    BaseDistribution(kind="cmp", lam=2.0, nu=1.3),
]


def test_series_policy_bounds():
    SeriesPolicy(rel_tol=1e-10, max_terms=1000)
    with pytest.raises(DomainError):
        SeriesPolicy(rel_tol=1e-5)
    with pytest.raises(DomainError):
        SeriesPolicy(rel_tol=0.0)
    with pytest.raises(DomainError):
        SeriesPolicy(max_terms=999)


@pytest.mark.parametrize("base", BASES, ids=lambda b: b.kind)
def test_closed_pmf_matches_ratio_construction(base):
    pmf = StationaryPMF(base_ratio_sequence(base))
    ns = np.arange(60)
    assert np.max(np.abs(pmf.pmf(ns) - base_pmf(base, ns))) < 1e-10


@pytest.mark.parametrize("base", BASES, ids=lambda b: b.kind)
def test_pmf_normalizes(base):
    ns = np.arange(400)
    total = base_pmf(base, ns).sum()
    assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize("base", BASES, ids=lambda b: b.kind)
def test_ratio_is_pmf_ratio(base):
    ns = np.arange(40)
    p = base_pmf(base, np.arange(41))
    assert np.allclose(base_ratio(base, ns), p[1:] / p[:-1], rtol=1e-10)


def test_poisson_lindley_sankaran_form():
    lam = 0.45
    phi = (1.0 - lam) / lam
    base = BaseDistribution(kind="poisson_lindley", lam=lam)
    ns = np.arange(50)
    expected = phi**2 * (phi + 2.0 + ns) / (phi + 1.0) ** (ns + 3.0)
    assert np.max(np.abs(base_pmf(base, ns) - expected)) < 1e-12


def test_poisson_large_lambda_is_finite():
    base = BaseDistribution(kind="poisson", lam=50.0)
    lp = base_logpmf(base, np.arange(201))
    assert np.all(np.isfinite(lp))
    assert abs(base_pmf(base, np.arange(201)).sum() - 1.0) < 1e-10


def test_cmp_ratio_does_not_overflow():
    import warnings

    ## (n + 1) ** 80 overflows from n = 7125 on; lam keeps the ratio representable.
    base = BaseDistribution(kind="cmp", lam=1e100, nu=80.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = base_ratio(base, 10_000)
        arr = base_ratio(base, np.array([0, 10_000]))
    want = math.exp(math.log(1e100) - 80.0 * math.log(10_001.0))
    assert got > 0.0 and abs(got - want) <= 1e-12 * want
    assert arr[1] == got and abs(arr[0] - 1e100) <= 1e-12 * 1e100


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "poisson", "lam": 0.0},
        {"kind": "geometric", "lam": 1.0},
        {"kind": "poisson_lindley", "lam": 1.2},
        {"kind": "negative_binomial", "lam": 3.0, "r": 3.0},
        {"kind": "negative_binomial", "lam": 1.0},
        {"kind": "hyper_poisson", "lam": 1.0, "tau": 0.0},
        {"kind": "cmp", "lam": 1.0, "nu": -0.5},
        {"kind": "poisson", "lam": 1.0, "tau": 2.0},
        {"kind": "weibull", "lam": 1.0},
    ],
)
def test_invalid_base_parameters_rejected(kwargs):
    with pytest.raises(DomainError):
        BaseDistribution(**kwargs)


def test_divergent_constant_ratio():
    for lam in (1.0, 1.1):
        with pytest.raises(DivergenceError):
            StationaryPMF(RatioSequence(eval=lambda n, lam=lam: lam)).log_z


def test_divergence_via_limit_hint():
    with pytest.raises(DivergenceError):
        StationaryPMF(RatioSequence(eval=lambda n: 0.5, limit_hint=1.2)).log_z


def test_series_cap_on_slow_convergence():
    seq = RatioSequence(eval=lambda n: 1.0 - 1e-9)
    with pytest.raises(SeriesCapError):
        StationaryPMF(seq, SeriesPolicy(rel_tol=1e-10, max_terms=2000)).log_z


@st.composite
def near_boundary_bases(draw):
    kind = draw(st.sampled_from(("geometric", "negative_binomial", "cmp", "hyper_poisson")))
    if kind == "geometric":
        return BaseDistribution(kind=kind, lam=draw(st.floats(0.9, 0.999)))
    if kind == "negative_binomial":
        r = draw(st.floats(0.3, 20.0))
        return BaseDistribution(kind=kind, lam=r * draw(st.floats(0.9, 0.999)), r=r)
    if kind == "cmp":
        return BaseDistribution(kind=kind, lam=draw(st.floats(0.01, 20.0)), nu=draw(st.floats(0.5, 3.0)))
    return BaseDistribution(kind=kind, lam=draw(st.floats(0.01, 60.0)), tau=draw(st.floats(0.2, 6.0)))


@settings(max_examples=40)
@given(base=near_boundary_bases())
@example(base=BaseDistribution(kind="geometric", lam=0.999))
@example(base=BaseDistribution(kind="negative_binomial", lam=0.3 * 0.999, r=0.3))
@example(base=BaseDistribution(kind="negative_binomial", lam=3.0 * 0.999, r=3.0))
def test_ratio_table_matches_closed_pmf_near_boundary(base):
    ## Ratio limits up to 0.999 leave heavy geometric tails past the table's cut.
    pmf = StationaryPMF(base_ratio_sequence(base))
    ns = np.arange(2 * len(pmf.ns))
    p = pmf.pmf(ns)
    assert abs(p.sum() - 1.0) < 1e-10
    assert np.max(np.abs(p - base_pmf(base, ns))) < 1e-10
    assert np.array_equal(pmf.log_p, pmf.logpmf(pmf.ns))


## The CMP at lam = 1, nu = 200: its ratio lam / (n + 1)^nu underflows to 0.0 at n = 41.
STEEP_CMP = BaseDistribution(kind="cmp", lam=1.0, nu=200.0)


def test_steep_cmp_ratio_table_matches_closed_pmf():
    ns = np.arange(200)
    got = StationaryPMF(base_ratio_sequence(STEEP_CMP)).logpmf(ns)
    want = base_logpmf(STEEP_CMP, ns)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_weighted_steep_cmp_matches_direct_normalization():
    w = catalogue_weight("squared_exponential", tau=0.3)
    law = WeightedPMF(STEEP_CMP, w)
    ns = np.arange(200)
    log_raw = w.log_eval(ns) + base_logpmf(STEEP_CMP, ns)
    want = log_raw - np.logaddexp.reduce(log_raw)
    assert np.max(np.abs(law.logpmf(ns) - want) / np.abs(want)) <= 1e-12


def test_probe_start_allows_large_head_ratios():
    ## Ratios above 1 on a finite head must not trip the divergence probe.
    seq = RatioSequence(eval=lambda n: 5.0 if n < 100 else 0.2, probe_start=100)
    log_z = StationaryPMF(seq).log_z
    assert math.isfinite(log_z)
    pmf = StationaryPMF(seq)
    assert abs(pmf.pmf(np.arange(200)).sum() - 1.0) < 1e-9


def test_geometric_series_closed_value():
    seq = base_ratio_sequence(BaseDistribution(kind="geometric", lam=0.6))
    assert abs(StationaryPMF(seq).log_z - math.log(1.0 / 0.4)) < 1e-10


def test_negative_ratio_rejected():
    with pytest.raises(DomainError):
        StationaryPMF(RatioSequence(eval=lambda n: -0.5)).log_z


def test_support_validation():
    base = BaseDistribution(kind="poisson", lam=1.0)
    with pytest.raises(DomainError):
        base_logpmf(base, -1)
    with pytest.raises(DomainError):
        base_logpmf(base, 1.5)


## Weight catalogue: each target family equals its weight applied to the
## reference family at the same lam.

CATALOGUE_CASES = [
    ("poisson", "geometric", {}),
    ("geometric", "poisson", {}),
    ("poisson_lindley", "geometric", {"lam": 0.55}),
    ("poisson_lindley", "poisson", {"lam": 0.55}),
    ("negative_binomial", "geometric", {"r": 2.5}),
    ("negative_binomial", "poisson", {"r": 2.5}),
    ("hyper_poisson", "geometric", {"tau": 1.8}),
    ("hyper_poisson", "poisson", {"tau": 1.8}),
    ("cmp", "geometric", {"nu": 1.4}),
    ("cmp", "poisson", {"nu": 1.4}),
]


@pytest.mark.parametrize("target,reference,params", CATALOGUE_CASES, ids=lambda c: str(c))
def test_catalogue_weight_recovers_target(target, reference, params):
    lam = 0.55
    ref = BaseDistribution(kind=reference, lam=lam)
    shape = {k: v for k, v in params.items() if k != "lam"}
    tgt = BaseDistribution(kind=target, lam=lam, **shape)
    w = catalogue_weight(target, against=reference, **params)
    law = WeightedPMF(ref, w)
    ns = np.arange(80)
    assert np.max(np.abs(law.pmf(ns) - base_pmf(tgt, ns))) < 1e-10


@pytest.mark.parametrize(
    "name,params",
    [
        ("weighted_poisson", {"r": 1.5, "tau": 0.8}),
        ("squared_exponential", {"tau": 0.3}),
        ("damped_cmp", {"tau": 0.3, "nu": 1.2}),
    ],
)
@pytest.mark.parametrize("reference", ["geometric", "poisson"])
def test_catalogue_weight_brute_force(name, params, reference):
    ## Independent check: normalize w(n) b(n) by plain summation.
    lam = 0.6 if reference == "geometric" else 1.8
    ref = BaseDistribution(kind=reference, lam=lam)
    w = catalogue_weight(name, against=reference, **params)
    law = WeightedPMF(ref, w)
    ns = np.arange(120)
    raw = w.eval(ns) * base_pmf(ref, ns)
    expected = raw / raw.sum()
    assert np.max(np.abs(law.pmf(ns) - expected)) < 1e-10


def test_weight_g_is_eval_ratio():
    w = catalogue_weight("hyper_poisson", against="poisson", tau=2.3)
    ns = np.arange(30)
    assert np.allclose(w.g(ns), w.eval(ns + 1) / w.eval(ns), rtol=1e-12)
    ## known form: g(n) = (n+1)/(n+tau) against the Poisson reference
    assert np.allclose(w.g(ns), (ns + 1.0) / (ns + 2.3), rtol=1e-12)


def test_weighted_divergence_detected():
    ## exp(n^2) growth overwhelms any Poisson tail
    ref = BaseDistribution(kind="poisson", lam=2.0)
    w = catalogue_weight("squared_exponential", against="poisson", tau=0.3)
    explode = type(w)(name="explode", log_eval=lambda ns: +np.asarray(ns, dtype=float) ** 2 * 0.3)
    with pytest.raises(DivergenceError):
        WeightedPMF(ref, explode)


def test_unknown_weight_name():
    with pytest.raises(DomainError):
        catalogue_weight("cauchy", against="poisson")


def test_support_table_evaluates_each_n_once():
    base = BaseDistribution(kind="negative_binomial", lam=2.85, r=3.0)
    seen = []

    def log_w(ns):
        seen.extend(ns.tolist())
        return base_logpmf(base, ns)

    ns, log_p = support_table(log_w, SeriesPolicy())
    assert len(seen) == len(set(seen)) and set(ns.tolist()) <= set(seen)
    assert len(ns) % SUPPORT_BLOCK == 0
    assert np.array_equal(log_p, base_logpmf(base, ns))
    assert abs(np.exp(log_p).sum() - 1.0) < 1e-10


## Base laws of the five canonical kinds out to the edges the support rule
## meets: Poisson mass far from 0, NB and geometric tails with lam/r to 0.999,
## CMP with nu from 0.2.
_CUT_BASES = st.one_of(
    st.builds(lambda lam: BaseDistribution("geometric", lam=lam), st.floats(0.01, 0.999)),
    st.builds(lambda e: BaseDistribution("poisson", lam=10.0**e), st.floats(-2.0, math.log10(2e4))),
    st.builds(
        lambda p, r: BaseDistribution("negative_binomial", lam=p * r, r=r), st.floats(0.01, 0.999), st.floats(0.2, 20.0)
    ),
    st.builds(
        lambda lam, tau: BaseDistribution("hyper_poisson", lam=lam, tau=tau), st.floats(0.05, 50.0), st.floats(0.2, 5.0)
    ),
    st.builds(lambda lam, nu: BaseDistribution("cmp", lam=lam, nu=nu), st.floats(0.05, 5.0), st.floats(0.2, 2.5)),
)


@st.composite
def _cut_laws(draw):
    """A drawn base law, as it is or perturbed (type 1 or 2) at up to 3 points in 0..1000, factors 1e-8 to 1e6."""
    base = draw(_CUT_BASES)
    family = draw(st.sampled_from([None, "type1", "type2"]))
    if family is None:
        return base
    points = sorted(draw(st.sets(st.integers(0, 1000), min_size=1, max_size=3)))
    log_f = draw(st.lists(st.floats(-8.0, 6.0), min_size=len(points), max_size=len(points)))
    return InfDefDistribution(base, InflationSpec(family, tuple(points), tuple(10.0**x for x in log_f)))


@settings(max_examples=150)
@given(law=_cut_laws(), rel_tol=st.sampled_from([1e-6, 1e-10, 1e-14]), max_terms=st.sampled_from([1000, 100_000]))
@example(law=BaseDistribution("poisson", lam=2e4), rel_tol=1e-10, max_terms=1000)
def test_support_table_cuts_where_the_scan_stops(law, rel_tol, max_terms):
    ## One stop rule: the table's vectorized cut and the scan's block loop
    ## give the same top, and a law the scan leaves unsettled (-1) raises.
    cf = canonicalize(law)
    policy, floor = SeriesPolicy(rel_tol, max_terms), support_floor(cf)

    def log_w(ns):
        return cf.log_h(ns) + cf.T(ns) @ cf.eta

    top = support_scan(lambda ns, idx: log_w(ns)[None, :], 1, policy, floor)[0][0]
    if top < 0:
        with pytest.raises(SeriesCapError):
            support_table(log_w, policy, floor)
    else:
        assert len(support_table(log_w, policy, floor)[0]) == top


@pytest.mark.parametrize("x", [1.0, 1e-3, 0.3, 1.7, 2.2, 7.5, 25.0, 100.0])
def test_log_gamma_matches_scipy(x):
    gammaln = pytest.importorskip("scipy.special").gammaln
    _lgamma_slot.cache_clear()
    ## Growing calls first, so the table passes several doublings before the full check.
    for top in (10, 200, 1000, 100_001):
        ns = np.arange(top)
        ref = gammaln(x + ns)
        assert np.max(np.abs(log_gamma(x, ns) - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-13
    ## Float and unordered arrays index the same table; scalars and a few n go to math.lgamma.
    ns = np.append([99_999.0, 0.0, 63.0, 64.0, 5.0], np.arange(_LGAMMA_FEW, 0, -1))
    assert np.array_equal(log_gamma(x, ns), log_gamma(x, ns.astype(int)))
    few = ns[:_LGAMMA_FEW].astype(int)
    assert np.array_equal(log_gamma(x, few), [math.lgamma(x + n) for n in few.tolist()])
    for n in (0, 1, 63, 64, 4097, 99_999):
        got = log_gamma(x, n)
        assert isinstance(got, float)
        assert abs(got - gammaln(x + n)) <= 1e-13 * max(1.0, abs(gammaln(x + n)))


def test_log_gamma_tables_are_bounded():
    _lgamma_slot.cache_clear()
    xs = [0.5 + 0.01 * i for i in range(3 * _LGAMMA_MEMO_SIZE)]
    head = np.arange(_LGAMMA_FEW)
    for x in xs:
        log_gamma(x, np.append(head, [99, 10**9]))
    ## A request just short of the longest table stops the table there, not at twice n.
    log_gamma(xs[-1], np.append(head, _LGAMMA_TABLE_MAX - 1))
    info = _lgamma_slot.cache_info()
    assert info.maxsize == _LGAMMA_MEMO_SIZE
    assert info.currsize <= _LGAMMA_MEMO_SIZE
    sizes = [_lgamma_slot(x)[0].nbytes for x in xs[-_LGAMMA_MEMO_SIZE:]]
    assert max(sizes) == _LGAMMA_TABLE_MAX * 8
    assert sum(sizes) <= _LGAMMA_MEMO_SIZE * _LGAMMA_TABLE_MAX * 8 <= 64 << 20
    _lgamma_slot.cache_clear()


def test_log_gamma_far_n_skip_the_table():
    ## n past the longest table go to math.lgamma one by one, whatever their size.
    _lgamma_slot.cache_clear()
    ns = np.arange(17) + 10**9
    got = base_logpmf(BaseDistribution(kind="poisson", lam=3.0), ns)
    ref = np.array([n * math.log(3.0) - 3.0 - math.lgamma(n + 1.0) for n in ns.tolist()])
    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
    assert _lgamma_slot(1.0)[0].size <= 64
    ## Near and far n in one request: the table grows for the near ones only.
    got = log_gamma(2.5, np.append(np.arange(_LGAMMA_FEW) + 55, [10**9, _LGAMMA_TABLE_MAX]))
    assert np.array_equal(got[-2:], [math.lgamma(2.5 + 10**9), math.lgamma(2.5 + _LGAMMA_TABLE_MAX)])
    ref = np.array([math.lgamma(57.5 + n) for n in range(_LGAMMA_FEW)])
    assert np.all(np.abs(got[:-2] - ref) <= 1e-13 * ref)
    assert _lgamma_slot(2.5)[0].size == 256


@pytest.mark.parametrize("ns", [np.arange(40) - 1, np.array([2.0, 2.5]), 2.5])
def test_weight_function_rejects_points_off_the_support(ns):
    ## Negative n would wrap round a log_gamma table and fractional n be truncated.
    w = catalogue_weight("negative_binomial", r=2.5)
    with pytest.raises(DomainError):
        w.log_g(ns)
    with pytest.raises(DomainError):
        w.eval(ns)


def test_log_gamma_values_do_not_depend_on_the_cache():
    ## A cold process and a warm one must print the same numbers.
    requests = [np.arange(5), np.arange(70), np.arange(300), np.array([299, 3, 1000])]
    _lgamma_slot.cache_clear()
    cold = [log_gamma(2.5, ns) for ns in requests]
    log_gamma(2.5, np.arange(5000))
    warm = [log_gamma(2.5, ns) for ns in requests]
    _lgamma_slot.cache_clear()
    fresh = [log_gamma(2.5, ns) for ns in reversed(requests)][::-1]
    assert all(np.array_equal(a, b) and np.array_equal(a, c) for a, b, c in zip(cold, warm, fresh))


@pytest.mark.parametrize("x", [1e-3, 0.3, 1.0, 2.2, 100.0, 1e6])
def test_log_rising_slope_matches_digamma(x):
    digamma = pytest.importorskip("scipy.special").digamma
    ## Near n against an exact sum; far n, past the table, against digamma(x + n) - digamma(x).
    near = np.arange(300)
    exact = [math.fsum(1.0 / (x + k) for k in range(n)) for n in near.tolist()]
    far = np.array([_LGAMMA_TABLE_MAX - 1, _LGAMMA_TABLE_MAX, _LGAMMA_TABLE_MAX + 1, 10**7, 10**12])
    got = log_rising_slope(x, np.append(near, far))
    assert got[0] == 0.0
    assert np.max(np.abs(got[1:300] - exact[1:]) / exact[1:]) <= 1e-14
    ref = digamma(x + far) - digamma(x)
    assert np.max(np.abs(got[300:] - ref) / ref) <= 1e-12


@pytest.mark.parametrize(
    "base",
    [
        BaseDistribution(kind="hyper_poisson", lam=3.0, tau=1.7),
        BaseDistribution(kind="cmp", lam=3.0, nu=1.1),
        BaseDistribution(kind="cmp", lam=30.0, nu=0.5),
        BaseDistribution(kind="hyper_poisson", lam=50.0, tau=0.3),
        BaseDistribution(kind="cmp", lam=0.05, nu=2.0),
    ],
    ids=lambda b: f"{b.kind}-{b.lam}",
)
def test_series_normalizer_matches_a_long_exact_sum(base):
    ## The support table's log mass against 20000 terms, each from math.lgamma, summed by fsum.
    shape = base.tau if base.kind == "hyper_poisson" else base.nu
    terms = [
        n * math.log(base.lam)
        - (math.lgamma(shape + n) - math.lgamma(shape) if base.kind == "hyper_poisson" else shape * math.lgamma(n + 1.0))
        for n in range(20_000)
    ]
    top = max(terms)
    ref = top + math.log(math.fsum(math.exp(t - top) for t in terms))
    assert abs(log_norm(base) - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("r", [1e4, 1e8, 1e12])
def test_negative_binomial_logpmf_keeps_digits_at_large_r(r):
    ## log (r)_n - n log r cancels in the log kernel; log_rising sums log1p(k / r) instead.
    n, lam = 5, 2.0
    ref = math.fsum(
        [math.log1p(k / r) for k in range(n)] + [n * math.log(lam), -math.lgamma(n + 1.0), r * math.log1p(-lam / r)]
    )
    assert abs(base_logpmf(BaseDistribution(kind="negative_binomial", lam=lam, r=r), n) - ref) <= 1e-13 * abs(ref)


def test_log_rising_switches_form_at_its_threshold():
    ns = np.array([0, 5, 300, 60_000, 70_000, 10**9])
    below = np.nextafter(_RISING_DIRECT_X, 0.0)
    assert np.array_equal(log_rising(below, ns), log_gamma(below, ns) - math.lgamma(below))
    for x in (_RISING_DIRECT_X, 1e6):
        got = log_rising(x, ns)
        ## near n against an exact sum; n past the table keep the log-gamma difference
        ref = [n * math.log(x) + math.fsum(math.log1p(k / x) for k in range(n)) for n in ns[:4].tolist()]
        assert np.all(np.abs(got[:4] - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))
        assert np.array_equal(got[4:], log_gamma(x, ns[4:]) - math.lgamma(x))
        assert log_rising(x, 5) == got[1]


def test_log_rate_of_a_float_is_that_of_an_array():
    ## math.log and np.log differ by an ulp on a few inputs in 1e4; log_rate uses np.log for both.
    lams = np.random.default_rng(5).uniform(1e-3, 50.0, 20_000)
    assert np.array_equal(log_rate(lams), [log_rate(float(lam)) for lam in lams])
    assert np.array_equal(log_rate(lams, 3.0), [log_rate(float(lam), 3.0) for lam in lams])
