"""Closed vs direct moments, equidispersion geometry, sequence classification."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdcount import (
    BaseDistribution,
    InfDefDistribution,
    InflationSpec,
    MixtureModel,
    classify_sequence,
    dispersion_surface,
    equidispersion_contour,
    equidispersion_phi,
    moments_closed,
    moments_direct,
)
from bdcount import DomainError, moments
from bdcount.stationary import DEFAULT_POLICY, SeriesPolicy, log_rate
from conftest import ALL_KINDS, EF_KINDS, random_base, random_spec


def test_base_closed_moments():
    geo = moments_closed(BaseDistribution(kind="geometric", lam=0.6))
    assert abs(geo.mean - 1.5) < 1e-12 and abs(geo.variance - 3.75) < 1e-12
    poi = moments_closed(BaseDistribution(kind="poisson", lam=2.5))
    assert abs(poi.mean - 2.5) < 1e-12 and abs(poi.variance - 2.5) < 1e-12
    nb = moments_closed(BaseDistribution(kind="negative_binomial", lam=1.8, r=3.0))
    assert abs(nb.mean - 4.5) < 1e-12 and abs(nb.variance - 11.25) < 1e-12


@pytest.mark.parametrize("lam", [0.05, 0.5, 0.9, 0.99, 0.999])
def test_poisson_lindley_closed_moments_sankaran_form(lam):
    ## Sankaran (1970): with theta = (1 - lam) / lam the mean is
    ## (theta + 2) / (theta (theta + 1)) and the variance
    ## (theta^3 + 4 theta^2 + 6 theta + 2) / (theta^2 (theta + 1)^2).
    theta = (1.0 - lam) / lam
    mean = (theta + 2.0) / (theta * (theta + 1.0))
    var = (theta**3 + 4.0 * theta**2 + 6.0 * theta + 2.0) / (theta**2 * (theta + 1.0) ** 2)
    mom = moments_closed(BaseDistribution(kind="poisson_lindley", lam=lam))
    assert abs(mom.mean - mean) <= 1e-13 * mean
    assert abs(mom.variance - var) <= 1e-13 * var


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_moments_take_one_route(kind, rng, monkeypatch):
    ## No law falls back to direct summation: closed moments, surfaces and
    ## contours all succeed with moments_direct gone.
    def direct(*args, **kwargs):
        raise AssertionError("moments_direct called")

    monkeypatch.setattr(moments, "moments_direct", direct)
    base = random_base(rng, kinds=(kind,))
    shape = {name: getattr(base, name) for name in ("r", "tau", "nu") if getattr(base, name) is not None}
    models = [
        base,
        InfDefDistribution(base, InflationSpec(family="type1", points=(0, 2), factors=(0.5, 2.0))),
        InfDefDistribution(base, InflationSpec(family="type2", points=(1, 3), factors=(1.5, 0.7))),
        MixtureModel(base=base, variant="zero_inflated", omegas=(0.2,)),
    ]
    for model in models:
        mom = moments_closed(model)
        assert mom.mean > 0.0 and mom.variance > 0.0
    lams = [0.5 * base.lam, base.lam]
    assert np.all(np.isfinite(dispersion_surface(kind, 2, lams, [0.5, 2.0], **shape)))
    assert not equidispersion_contour(kind, 2, 0.5, 0.5 * base.lam, base.lam, subintervals=8, **shape).degenerate


def test_closed_matches_direct_random(rng):
    models = []
    for _ in range(30):
        base = random_base(rng)
        models.append(InfDefDistribution(base, random_spec(rng)))
    ## moments_closed takes a mixture of any variant through its type 1 law
    nb = BaseDistribution(kind="negative_binomial", lam=1.8, r=3.0)
    models += [
        MixtureModel(base=nb, variant="zero_inflated", omegas=(0.2,)),
        MixtureModel(base=nb, variant="multiple_inflation", points=(0, 3), omegas=(0.1, -0.02)),
        MixtureModel(base=nb, variant="hurdle", pi=0.3),
        MixtureModel(base=nb, variant="haslett", psi=-0.7),
    ]
    models += [InfDefDistribution(random_base(rng, kinds=("poisson_lindley",)), random_spec(rng)) for _ in range(8)]
    for model in models:
        closed = moments_closed(model)
        direct = moments_direct(model)
        assert abs(closed.mean - direct.mean) < 1e-8
        assert abs(closed.variance - direct.variance) < 1e-8


@pytest.mark.parametrize(
    "base, family, q",
    [
        (BaseDistribution(kind="geometric", lam=0.02), "type2", 3),
        (BaseDistribution(kind="hyper_poisson", lam=0.359, tau=1.7), "type2", 5),
        (BaseDistribution(kind="poisson", lam=0.05), "type1", 0),
        (BaseDistribution(kind="poisson_lindley", lam=0.02), "type2", 3),
    ],
)
def test_closed_moments_when_levels_hold_nearly_all_mass(base, family, q):
    ## phi << 1 on levels holding all but ~1e-7 of the base mass: the rest of
    ## the support must be summed, not taken as 1 minus the level mass.
    model = InfDefDistribution(base, InflationSpec(family=family, points=(q,), factors=(1e-9,)))
    closed, direct = moments_closed(model), moments_direct(model)
    assert abs(closed.mean - direct.mean) <= 1e-10 * direct.mean
    assert abs(closed.variance / closed.mean - direct.dispersion_index) <= 1e-10 * direct.dispersion_index


def test_poisson_moment_summary():
    lam = 2.0
    summ = moments_direct(BaseDistribution(kind="poisson", lam=lam))
    assert abs(summ.mean - lam) < 1e-9
    assert abs(summ.variance - lam) < 1e-9
    assert abs(summ.dispersion_index - 1.0) < 1e-9
    assert abs(summ.skewness - 1.0 / math.sqrt(lam)) < 1e-9
    assert abs(summ.kurtosis - (3.0 + 1.0 / lam)) < 1e-9
    ## central band |n - 2| <= sd holds {1, 2, 3}: contribution (p(1) + p(3)) / 4
    assert abs(summ.kurtosis_central_band - 0.11277940269717726) < 1e-12



def test_direct_moments_reach_far_mixture_point():
    ## All base mass sits far below the point 200; a scan that ignores the
    ## mixture's points stops in the empty gap and reports the mean 1.75.
    mix = MixtureModel(
        base=BaseDistribution(kind="poisson", lam=2.0),
        variant="multiple_inflation",
        points=(0, 200),
        omegas=(0.1, 0.2),
    )
    summ = moments_direct(mix)
    mean = 0.2 * 200.0 + 0.7 * 2.0
    second = 0.2 * 200.0**2 + 0.7 * (2.0 + 4.0)
    assert abs(summ.mean - mean) < 1e-9 * mean
    assert abs(summ.variance - (second - mean**2)) < 1e-9 * second

EQUIPHI_FROZEN = {
    3.2: 6.661353122409851,
    2.6: 2.756139743695873,
    2.0: 1.0,
    1.6: 0.44966306395609845,
    1.2: 0.16997076931586308,
}


def test_equidispersion_phi_frozen_values():
    for lam, phi in EQUIPHI_FROZEN.items():
        assert abs(equidispersion_phi(lam, 2) - phi) < 1e-12


def test_equidispersion_phi_gives_equal_moments():
    for lam, phi in EQUIPHI_FROZEN.items():
        base = BaseDistribution(kind="poisson", lam=lam)
        spec = InflationSpec(family="type2", points=(2,), factors=(phi,))
        mom = moments_closed(InfDefDistribution(base, spec))
        assert abs(mom.mean - 2.0) < 1e-10
        assert abs(mom.variance - 2.0) < 1e-10
    for q in (1, 3):
        lam = 2.4
        phi = equidispersion_phi(lam, q)
        base = BaseDistribution(kind="poisson", lam=lam)
        spec = InflationSpec(family="type2", points=(q,), factors=(phi,))
        mom = moments_closed(InfDefDistribution(base, spec))
        assert abs(mom.mean - q) < 1e-10 and abs(mom.variance - q) < 1e-10


def test_equidispersion_phi_stays_positive():
    ## the factor tends to 0 with lam but never crosses it; at lam=1e-6 the
    ## true value is O(lam^2) and float cancellation may round it to 0.0
    for lam in (0.05, 0.5, 2.0, 20.0):
        for q in (1, 2, 5):
            assert equidispersion_phi(lam, q) > 0.0
    assert equidispersion_phi(1e-6, 2) >= 0.0
    with pytest.raises(Exception):
        equidispersion_phi(1.0, 0)
    with pytest.raises(Exception):
        equidispersion_phi(-1.0, 2)


def _matches_printed(x, printed, decimals):
    """Printed tables round or truncate; accept either reading."""
    scale = 10.0**decimals
    return round(x, decimals) == printed or math.floor(x * scale) / scale == printed


TABLE_ROWS = {
    ## lam: (phi, lam0..lam5, skewness, band, kurtosis, band/kurtosis)
    3.2: (6.661, (3.20, 1.60, 0.16, 0.80, 0.64, 0.53), 1.5556, 0.0866, 6.62, 0.0131),
    2.6: (2.756, (2.60, 1.30, 0.31, 0.65, 0.52, 0.43), 1.1314, 0.0981, 4.88, 0.0201),
    2.0: (1.000, (2.00, 1.00, 0.67, 0.50, 0.40, 0.33), 0.7071, 0.1128, 3.50, 0.0322),
    1.6: (0.450, (1.60, 0.80, 1.18, 0.40, 0.32, 0.27), 0.4243, 0.1244, 2.78, 0.0447),
    1.2: (0.170, (1.20, 0.60, 2.35, 0.30, 0.24, 0.20), 0.1414, 0.1372, 2.22, 0.0618),
}


def test_equidispersed_reference_grid():
    from bdcount import modified_ratio

    for lam, (phi_ref, ratios_ref, skew_ref, band_ref, kurt_ref, frac_ref) in TABLE_ROWS.items():
        phi = equidispersion_phi(lam, 2)
        assert abs(phi - phi_ref) < 1e-3
        base = BaseDistribution(kind="poisson", lam=lam)
        model = InfDefDistribution(base, InflationSpec(family="type2", points=(2,), factors=(phi,)))
        lam_n = modified_ratio(model, np.arange(6))
        for got, ref in zip(lam_n, ratios_ref):
            assert _matches_printed(got, ref, 2), (lam, got, ref)
        summ = moments_direct(model)
        assert abs(summ.mean - 2.0) < 1e-9 and abs(summ.variance - 2.0) < 1e-9
        assert _matches_printed(summ.skewness, skew_ref, 4)
        assert _matches_printed(summ.kurtosis_central_band, band_ref, 4)
        assert _matches_printed(summ.kurtosis, kurt_ref, 2)
        assert _matches_printed(summ.kurtosis_central_band / summ.kurtosis, frac_ref, 4)


@pytest.mark.parametrize("kind, index", [("geometric", 1.0 / (1.0 - 0.5)), ("poisson", 1.0)])
def test_dispersion_surface_at_large_q(kind, index):
    ## A type-2 block past 2048 * SUPPORT_BLOCK cells still gets a row at a
    ## time; with the base mass all inside the block, scaling it leaves the
    ## base dispersion index.
    grid = dispersion_surface(kind, 140_000, [0.5, 0.5], [0.5, 2.0], policy=SeriesPolicy(max_terms=200_000))
    assert np.all(np.abs(grid - index) <= 1e-12 * index)


def test_dispersion_surface_marks_bad_nodes():
    ## geometric base diverges past lam = 1: those nodes must be NaN, not errors.
    lams = np.array([0.5, 0.9, 1.5, 1.0])
    phis = np.array([0.5, 2.0, 0.0, -1.0, np.inf])
    grid = dispersion_surface("geometric", 1, lams, phis)
    assert grid.shape == (4, 5)
    assert np.all(np.isfinite(grid[:2, :2]))
    assert np.all(np.isnan(grid[2:])) and np.all(np.isnan(grid[:, 2:]))
    nb = dispersion_surface("negative_binomial", 2, [1.0, 3.0, 4.0, 2.9], [0.5, 2.0], r=3.0)
    assert np.all(np.isnan(nb[1:3])) and np.all(np.isfinite(nb[[0, 3]]))
    ## CMP with nu = 0.1 peaks near n = 5**10 at lam = 5: the scan hits
    ## max_terms on that row only.
    cmp = dispersion_surface("cmp", 2, [0.5, 5.0], [0.5, 2.0], nu=0.1)
    assert np.all(np.isfinite(cmp[0])) and np.all(np.isnan(cmp[1]))
    assert np.all(np.isnan(dispersion_surface("cmp", 2, [0.5], [0.5], nu=-1.0)))


def _surface_shape(kind):
    return {"negative_binomial": {"r": 4.0}, "hyper_poisson": {"tau": 1.7}, "cmp": {"nu": 1.3}}.get(kind, {})


@pytest.mark.parametrize("q", [1, 2, 3, 5])
@pytest.mark.parametrize("family", ["type1", "type2"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dispersion_surface_matches_direct(kind, family, q):
    lams = {"geometric": [0.1, 0.45, 0.8], "poisson_lindley": [0.1, 0.45, 0.8], "negative_binomial": [0.4, 1.9, 3.6]}.get(
        kind, [0.3, 2.2, 6.5]
    )
    phis = [0.2, 0.9, 1.0, 2.7]
    grid = dispersion_surface(kind, q, lams, phis, family=family, **_surface_shape(kind))
    for i, lam in enumerate(lams):
        base = BaseDistribution(kind=kind, lam=lam, **_surface_shape(kind))
        for j, phi in enumerate(phis):
            model = InfDefDistribution(base, InflationSpec(family=family, points=(q,), factors=(phi,)))
            want = moments_direct(model).dispersion_index
            assert abs(grid[i, j] - want) <= 1e-8 * want, (lam, phi)


@settings(max_examples=40)
@given(
    kind=st.sampled_from(ALL_KINDS),
    family=st.sampled_from(["type1", "type2"]),
    q=st.integers(0, 8),
    u=st.floats(0.01, 0.99),
    phi=st.floats(1e-3, 50.0),
)
def test_surface_node_equals_single_lambda_call(kind, family, q, u, phi):
    lam = {"geometric": u, "poisson_lindley": u, "negative_binomial": 4.0 * u}.get(kind, 12.0 * u)
    shape = _surface_shape(kind)
    node = dispersion_surface(kind, q, [0.5 * lam, lam], [1.0, phi], family=family, **shape)[1, 1]
    base = BaseDistribution(kind=kind, lam=lam, **shape)
    mom = moments_closed(InfDefDistribution(base, InflationSpec(family=family, points=(q,), factors=(phi,))))
    single = mom.variance / mom.mean
    assert abs(node - single) <= 1e-12 * abs(single)
    ## eta_0 of a node (an array of lam) is that of a single lam, bit for bit
    r = shape.get("r")
    assert log_rate(np.array([0.5 * lam, lam]), r)[1] == log_rate(lam, r)


def test_contour_poisson_reference():
    t0 = time.time()
    res = equidispersion_contour("poisson", 3, 0.2, 0.05, 8.0)
    assert not res.degenerate
    assert len(res.roots) == 1
    assert abs(res.roots[0] - 2.055) < 5e-3
    assert time.time() - t0 < 5.0


def test_contour_cmp_two_roots():
    res = equidispersion_contour("cmp", 3, 0.2, 0.05, 8.0, nu=1.1)
    assert len(res.roots) == 2
    assert abs(res.roots[0] - 0.237) < 5e-3
    assert abs(res.roots[1] - 2.159) < 5e-3


def _bisection_roots(kind, q, phi, lambda_lo, lambda_hi, family="type2", xtol=1e-6, **shape):
    ## The one-call-per-step bisection that equidispersion_contour's subtree
    ## walk replaced, kept as its reference (for scans that are not degenerate).
    xs = np.linspace(lambda_lo, lambda_hi, 401)

    def index_minus_one(lams):
        return moments.dispersion_surface(kind, q, lams, [phi], family, **shape)[:, 0] - 1.0

    vals = index_minus_one(xs)
    fa, fb = vals[:-1], vals[1:]
    ok = np.isfinite(fa) & np.isfinite(fb)
    cross = ok & (fa * fb < 0.0)
    lo, hi, flo = xs[:-1][cross], xs[1:][cross], fa[cross]
    live = hi - lo > xtol
    while live.any():
        idx = np.flatnonzero(live)
        mid = (lo[idx] + hi[idx]) / 2.0
        fm = index_minus_one(mid)
        good = np.isfinite(fm)
        left = good & (flo[idx] * fm <= 0.0)
        right = good & ~left
        hi[idx[left]] = mid[left]
        lo[idx[right]], flo[idx[right]] = mid[right], fm[right]
        live[idx[~good]] = False
        live &= hi - lo > xtol
    roots = sorted(xs[:-1][ok & (fa == 0.0)].tolist() + ((lo + hi) / 2.0).tolist())
    if np.isfinite(vals[-1]) and vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    dedup = []
    for root in roots:
        if not dedup or abs(root - dedup[-1]) > 10.0 * xtol:
            dedup.append(root)
    return tuple(dedup)


CONTOUR_SHAPES = {"poisson": {}, "negative_binomial": {"r": 40.0}, "cmp": {"nu": 1.1}, "hyper_poisson": {"tau": 1.7}}


@pytest.mark.parametrize("family", ["type1", "type2"])
@pytest.mark.parametrize("kind", sorted(CONTOUR_SHAPES))
def test_contour_roots_equal_bisection(kind, family):
    shape, rooted = CONTOUR_SHAPES[kind], 0
    for q in (2, 3, 5):
        for phi in (0.2, 0.5, 2.0, 5.0):
            res = equidispersion_contour(kind, q, phi, 0.05, 8.0, family=family, **shape)
            assert res.roots == _bisection_roots(kind, q, phi, 0.05, 8.0, family=family, **shape), (q, phi)
            rooted += len(res.roots) > 0
    assert rooted > 0


def test_contour_stops_at_undefined_midpoint_like_bisection(monkeypatch):
    ## The index is NaN on a short interval next to the lower of two roots, so
    ## that bracket stops partway down its bisection while the other goes on.
    args = ("cmp", 3, 0.2, 0.05, 8.0)
    clean = equidispersion_contour(*args, nu=1.1).roots
    surface = moments.dispersion_surface

    def holed(kind, q, lams, phis, *rest, **kwargs):
        out = surface(kind, q, lams, phis, *rest, **kwargs)
        out[(lams > clean[0] - 1e-5) & (lams < clean[0] + 3e-5)] = np.nan
        return out

    monkeypatch.setattr(moments, "dispersion_surface", holed)
    res = equidispersion_contour(*args, nu=1.1)
    assert res.roots == _bisection_roots(*args, nu=1.1)
    assert len(res.roots) == 2 and res.roots[0] != clean[0] and res.roots[1] == clean[1]


def test_contour_makes_four_surface_calls(monkeypatch):
    calls = []
    surface = moments.dispersion_surface

    def spy(*args, **kwargs):
        calls.append(len(args[2]))
        return surface(*args, **kwargs)

    monkeypatch.setattr(moments, "dispersion_surface", spy)
    assert len(equidispersion_contour("cmp", 3, 0.2, 0.05, 8.0, nu=1.1).roots) == 2
    assert len(calls) <= 4


def test_contour_ends_at_a_tolerance_below_float_spacing():
    ## Below the spacing of floats near the root, a bracket closes once its
    ## midpoint equals one of its ends.
    res = equidispersion_contour("poisson", 3, 0.2, 0.05, 8.0, xtol=1e-300)
    assert len(res.roots) == 1
    assert abs(res.roots[0] - equidispersion_contour("poisson", 3, 0.2, 0.05, 8.0).roots[0]) < 1e-6


@pytest.mark.parametrize(
    "q, kwargs",
    [(3, {"xtol": 0.0}), (3, {"xtol": -1.0}), (3, {"xtol": math.nan}), (3, {"subintervals": 0}),
     (3, {"subintervals": -3}), (-2, {}), (2.5, {}), (1000, {"policy": SeriesPolicy(max_terms=1000)})],
)
def test_contour_rejects_bad_arguments(q, kwargs):
    with pytest.raises(DomainError):
        equidispersion_contour("poisson", q, 0.2, 0.05, 8.0, **kwargs)


@pytest.mark.parametrize("q", [-2, 2.5, math.nan, math.inf, 1e308, DEFAULT_POLICY.max_terms])
def test_dispersion_surface_rejects_bad_q(q):
    with pytest.raises(DomainError, match="q must be a non-negative integer"):
        dispersion_surface("poisson", q, [0.5, 2.0], [0.5, 2.0])


@pytest.mark.parametrize(
    "lam, q", [(1.0, math.nan), (1.0, math.inf), (1.0, 2.5), (1.0, DEFAULT_POLICY.max_terms), (1e308, 2), (740.0, 2)]
)
def test_equidispersion_phi_rejects(lam, q):
    ## q outside [1, max_terms), or a phi that overflows a float: at lam = 740
    ## the quotient is inf, at 1e308 its denominator underflows to 0.
    with pytest.raises(DomainError):
        equidispersion_phi(lam, q)


def test_unknown_family_raises():
    with pytest.raises(DomainError, match="family must be one of"):
        dispersion_surface("poisson", 2, [0.5, 1.0], [0.5, 2.0], family="type3")
    with pytest.raises(DomainError, match="family must be one of"):
        equidispersion_contour("poisson", 3, 0.2, 0.05, 8.0, family="type3")


def test_contour_degenerate_on_poisson_line():
    res = equidispersion_contour("poisson", 2, 1.0, 0.5, 5.0)
    assert res.degenerate
    assert res.roots == ()


def test_classification_matches_known_directions():
    cases = [
        (BaseDistribution(kind="geometric", lam=0.5), "increasing", "overdispersed"),
        (BaseDistribution(kind="poisson", lam=2.0), "constant", "equidispersed"),
        (BaseDistribution(kind="poisson_lindley", lam=0.5), "increasing", "overdispersed"),
        (BaseDistribution(kind="negative_binomial", lam=1.0, r=2.0), "increasing", "overdispersed"),
        (BaseDistribution(kind="hyper_poisson", lam=2.0, tau=1.0), "constant", "equidispersed"),
        (BaseDistribution(kind="hyper_poisson", lam=2.0, tau=2.5), "increasing", "overdispersed"),
        (BaseDistribution(kind="hyper_poisson", lam=2.0, tau=0.5), "decreasing", "underdispersed"),
        (BaseDistribution(kind="cmp", lam=2.0, nu=1.0), "constant", "equidispersed"),
        (BaseDistribution(kind="cmp", lam=2.0, nu=0.7), "increasing", "overdispersed"),
        (BaseDistribution(kind="cmp", lam=2.0, nu=1.4), "decreasing", "underdispersed"),
    ]
    for model, verdict, direction in cases:
        got = classify_sequence(model)
        assert got.verdict == verdict, (model.kind, got)
        assert got.dispersion == direction


def test_classification_direction_matches_actual_dispersion(rng):
    ## when the sequence is monotone, the dispersion index must agree
    for _ in range(15):
        base = random_base(rng)
        got = classify_sequence(base)
        summ = moments_direct(base)
        if got.dispersion == "overdispersed":
            assert summ.dispersion_index > 1.0
        elif got.dispersion == "underdispersed":
            assert summ.dispersion_index < 1.0
        elif got.dispersion == "equidispersed":
            assert abs(summ.dispersion_index - 1.0) < 1e-8


def test_perturbed_sequence_is_non_monotonic():
    base = BaseDistribution(kind="poisson", lam=2.0)
    model = InfDefDistribution(base, InflationSpec(family="type1", points=(2,), factors=(3.0,)))
    got = classify_sequence(model)
    assert got.verdict == "non_monotonic"
    assert got.dispersion is None
