"""Newton MLE, profile likelihood, and the sampling helper."""

import math
import sys

import numpy as np
import pytest
from scipy.optimize import minimize

from bdcount import (
    BaseDistribution,
    CountSample,
    DomainError,
    InfDefDistribution,
    InflationSpec,
    MixtureModel,
    SeriesCapError,
    SeriesPolicy,
    canonicalize,
    fit_mle,
    loglik,
    model_logpmf,
    moments_closed,
    omega_from_alpha,
    profile_fit,
    sample_counts,
)
from bdcount import fit as fit_module
from bdcount.fit import _profile_score, _with_nuisance
from bdcount.stationary import DEFAULT_POLICY


def test_count_sample_validation():
    s = CountSample.from_counts([2, 0, 0, 1, 2, 2])
    assert s.values == (0, 1, 2)
    assert s.freqs == (2.0, 1.0, 3.0)
    assert s.size == 6.0
    assert abs(s.mean - 7.0 / 6.0) < 1e-15
    with pytest.raises(DomainError):
        CountSample(values=(0, -1), freqs=(1.0, 1.0))
    with pytest.raises(DomainError):
        CountSample(values=(0.5, 1), freqs=(1.0, 1.0))
    with pytest.raises(DomainError):
        CountSample(values=(1, 1), freqs=(1.0, 1.0))
    with pytest.raises(DomainError):
        CountSample(values=(0, 1), freqs=(1.0,))
    with pytest.raises(DomainError):
        CountSample(values=(0, 1), freqs=(1.0, -1.0))
    with pytest.raises(DomainError):
        CountSample(values=(0, 1), freqs=(0.0, 0.0))
    with pytest.raises(DomainError):
        CountSample(values=(0, 1), freqs=(1.0, math.nan))


def test_count_sample_sorts_pairs():
    s = CountSample.from_frequencies({5: 2.0, 1: 7.0})
    assert s.values == (1, 5)
    assert s.freqs == (7.0, 2.0)


def test_loglik_matches_direct_sum():
    model = BaseDistribution(kind="geometric", lam=0.55)
    s = CountSample.from_counts([0, 0, 1, 3, 7])
    lp = model_logpmf(model, np.asarray(s.values))
    assert abs(loglik(model, s) - float(np.asarray(s.freqs) @ lp)) < 1e-12


def test_loglik_minus_inf_sentinel(monkeypatch):
    s = CountSample.from_counts([0, 1, 5])

    def broken_logpmf(model, values, policy=None):
        vals = np.asarray(values)
        out = np.full(vals.shape, -1.0)
        out[vals == 5] = -np.inf
        return out

    monkeypatch.setattr("bdcount.fit.model_logpmf", broken_logpmf)
    with pytest.warns(UserWarning, match="zero probability"):
        assert loglik(object(), s) == -math.inf


def test_poisson_mle_is_sample_mean():
    s = CountSample.from_counts([0, 0, 1, 2])
    fit = fit_mle(BaseDistribution(kind="poisson", lam=1.0), s)
    assert fit.converged
    ## the mean-matched start is already stationary for the plain Poisson
    assert fit.iterations == 0
    assert abs(fit.model.lam - 0.75) < 1e-9
    assert abs(fit.eta_hat[0] - math.log(0.75)) < 1e-9
    ## Fisher information of eta = log(lam) is lam per observation
    assert not fit.se_unstable
    assert abs(fit.standard_errors[0] - 1.0 / math.sqrt(4.0 * 0.75)) < 1e-9
    assert abs(fit.aic - (2.0 - 2.0 * fit.loglik)) < 1e-12
    assert abs(fit.bic - (math.log(4.0) - 2.0 * fit.loglik)) < 1e-12


@pytest.mark.parametrize(
    "template",
    [
        BaseDistribution(kind="geometric", lam=0.5),
        BaseDistribution(kind="poisson", lam=1.0),
        BaseDistribution(kind="negative_binomial", lam=1.0, r=3.5),
        BaseDistribution(kind="hyper_poisson", lam=1.0, tau=2.2),
        BaseDistribution(kind="cmp", lam=1.0, nu=1.4),
    ],
)
def test_fitted_mean_matches_sample_mean(template):
    ## the first canonical statistic is n, so the score zeroes the mean gap
    rng = np.random.default_rng(41)
    counts = sample_counts(BaseDistribution(kind="poisson", lam=1.9), 600, rng)
    s = CountSample.from_counts(counts)
    fit = fit_mle(template, s)
    assert fit.converged
    assert abs(moments_closed(fit.model).mean - s.mean) < 1e-6


def test_type1_fit_matches_observed_cells():
    true = InfDefDistribution(
        BaseDistribution(kind="poisson", lam=2.4),
        InflationSpec(family="type1", points=(0, 3), factors=(2.0, 0.6)),
    )
    counts = sample_counts(true, 4000, np.random.default_rng(7))
    s = CountSample.from_counts(counts)
    fit = fit_mle(true, s)
    assert fit.converged
    freq_map = dict(zip(s.values, s.freqs))
    ## indicator statistics force the fitted cells onto the empirical ones
    for point in (0, 3):
        p_hat = math.exp(float(model_logpmf(fit.model, np.asarray([point]))[0]))
        assert abs(p_hat - freq_map[point] / s.size) < 1e-6


def test_type2_fit_matches_observed_cdf():
    template = InfDefDistribution(
        BaseDistribution(kind="poisson", lam=1.0),
        InflationSpec(family="type2", points=(1, 4), factors=(1.0, 1.0)),
    )
    counts = sample_counts(
        InfDefDistribution(
            BaseDistribution(kind="poisson", lam=2.4),
            InflationSpec(family="type2", points=(1, 4), factors=(1.6, 0.7)),
        ),
        4000,
        np.random.default_rng(11),
    )
    s = CountSample.from_counts(counts)
    fit = fit_mle(template, s)
    assert fit.converged
    vals = np.asarray(s.values)
    freqs = np.asarray(s.freqs)
    grid = np.arange(0, max(s.values) + 1)
    p_fit = np.exp(model_logpmf(fit.model, grid))
    ## step statistics force the fitted head masses onto the empirical ones
    for point in (1, 4):
        emp = float(freqs[vals <= point].sum()) / s.size
        assert abs(float(p_fit[: point + 1].sum()) - emp) < 1e-6


def test_recovery_within_three_se():
    true = InfDefDistribution(
        BaseDistribution(kind="poisson", lam=2.2),
        InflationSpec(family="type1", points=(0,), factors=(2.5,)),
    )
    counts = sample_counts(true, 20000, np.random.default_rng(133))
    fit = fit_mle(true, CountSample.from_counts(counts))
    assert fit.converged and not fit.se_unstable
    eta_true = canonicalize(true).eta
    assert np.all(np.abs(fit.eta_hat - eta_true) < 3.0 * fit.standard_errors)


def test_degenerate_sample_rejected():
    with pytest.raises(DomainError, match="degenerate"):
        fit_mle(BaseDistribution(kind="poisson", lam=1.0), CountSample.from_counts([3, 3, 3]))


def test_mixture_template_fits_through_type1():
    base = BaseDistribution(kind="poisson", lam=1.8)
    true = MixtureModel(base=base, variant="zero_inflated", points=(0,), omegas=(0.25,))
    counts = sample_counts(true, 3000, np.random.default_rng(5))
    s = CountSample.from_counts(counts)
    fit = fit_mle(true, s)
    assert isinstance(fit.model, MixtureModel)
    assert fit.model.variant == "zero_inflated"
    type1 = fit_mle(
        InfDefDistribution(base, InflationSpec(family="type1", points=(0,), factors=(2.0,))), s
    )
    assert abs(fit.loglik - type1.loglik) < 1e-10
    omegas = omega_from_alpha(type1.model.base, type1.model.spec)
    assert np.allclose(fit.model.omegas, omegas, atol=1e-12)


@pytest.mark.parametrize(
    "variant, params",
    [
        ("zero_inflated", {"omegas": (0.25,)}),
        ("multiple_inflation", {"points": (0, 3), "omegas": (0.1, 0.15)}),
        ("hurdle", {"pi": 0.4}),
        ("haslett", {"psi": 0.8}),
    ],
)
def test_every_mixture_variant_fits_as_its_type1_law(variant, params):
    base = BaseDistribution(kind="poisson", lam=1.8)
    true = MixtureModel(base=base, variant=variant, **params)
    s = CountSample.from_counts(sample_counts(true, 3000, np.random.default_rng(11)))
    fit = fit_mle(true, s)
    type1 = fit_mle(InfDefDistribution(base, InflationSpec("type1", true.points, (1.0,) * len(true.points))), s)
    want = MixtureModel.from_type1(type1.model, variant)
    assert fit.converged and isinstance(fit.model, MixtureModel) and fit.model.variant == variant
    assert abs(fit.loglik - type1.loglik) < 1e-10
    assert np.allclose(fit.eta_hat, type1.eta_hat, rtol=1e-10, atol=0.0)
    assert fit.model.base.lam == pytest.approx(want.base.lam, rel=1e-10)
    for name in ("omegas", "pi", "psi"):
        assert np.allclose(getattr(fit.model, name) or (), getattr(want, name) or (), rtol=1e-10, atol=0.0)
    zero_share = dict(zip(s.values, s.freqs))[0] / s.size
    if variant == "hurdle":
        assert abs(fit.model.pi - zero_share) < 1e-8
    if variant == "haslett":
        assert fit.model.psi == pytest.approx(fit.eta_hat[1], rel=1e-12)


def test_fit_beats_simplex_oracle():
    template = InfDefDistribution(
        BaseDistribution(kind="poisson", lam=1.0),
        InflationSpec(family="type1", points=(1,), factors=(1.0,)),
    )
    counts = sample_counts(
        InfDefDistribution(
            BaseDistribution(kind="poisson", lam=1.6),
            InflationSpec(family="type1", points=(1,), factors=(1.9,)),
        ),
        1500,
        np.random.default_rng(23),
    )
    s = CountSample.from_counts(counts)
    fit = fit_mle(template, s)

    def neg_ll(theta):
        lam, alpha = math.exp(theta[0]), math.exp(theta[1])
        model = InfDefDistribution(
            BaseDistribution(kind="poisson", lam=lam),
            InflationSpec(family="type1", points=(1,), factors=(alpha,)),
        )
        return -loglik(model, s)

    oracle = minimize(
        neg_ll,
        x0=[math.log(s.mean), 0.0],
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-11, "maxiter": 4000},
    )
    assert fit.loglik >= -oracle.fun - 1e-7
    assert abs(fit.loglik + oracle.fun) < 1e-4


def test_profile_recovers_shape():
    true = BaseDistribution(kind="negative_binomial", lam=2.4, r=4.0)
    counts = sample_counts(true, 8000, np.random.default_rng(77))
    s = CountSample.from_counts(counts)
    prof = profile_fit(BaseDistribution(kind="negative_binomial", lam=0.5, r=1.0), s, grid=(0.5, 2.0, 8.0, 32.0))
    name, r_hat = prof.nuisance
    assert name == "r"
    assert 2.0 < r_hat < 8.0
    fixed = fit_mle(BaseDistribution(kind="negative_binomial", lam=1.0, r=4.0), s)
    assert prof.loglik >= fixed.loglik - 0.05
    ## the profiled shape counts as an extra parameter
    assert abs(prof.aic - (2.0 * 2 - 2.0 * prof.loglik)) < 1e-12
    assert abs(prof.bic - (2 * math.log(s.size) - 2.0 * prof.loglik)) < 1e-12


def test_profile_limit_reaches_poisson():
    counts = sample_counts(BaseDistribution(kind="poisson", lam=2.0), 2000, np.random.default_rng(3))
    s = CountSample.from_counts(counts)
    poisson = fit_mle(BaseDistribution(kind="poisson", lam=1.0), s)
    prof = profile_fit(
        BaseDistribution(kind="negative_binomial", lam=0.5, r=1.0),
        s,
        grid=(1.0, 1e2, 1e4, 1e6, 1e8),
        xtol=1e4,
    )
    assert prof.loglik >= poisson.loglik - 1e-3


def _profile_ll(template, name, value, sample):
    return fit_mle(_with_nuisance(template.to_document(), name, value, DEFAULT_POLICY), sample).loglik


@pytest.mark.parametrize(
    "template, name",
    [
        (BaseDistribution(kind="negative_binomial", lam=1.0, r=2.0), "r"),
        (BaseDistribution(kind="hyper_poisson", lam=1.0, tau=2.0), "tau"),
        (
            InfDefDistribution(
                BaseDistribution(kind="hyper_poisson", lam=1.0, tau=2.0), InflationSpec("type1", (0,), (1.0,))
            ),
            "tau",
        ),
    ],
)
def test_profile_score_matches_central_differences(template, name):
    rng = np.random.default_rng(11)
    s = CountSample.from_counts(rng.poisson(rng.gamma(3.0, 1.0, 5000)))
    value, h = 1.5, 1e-4
    fit = fit_mle(_with_nuisance(template.to_document(), name, value, DEFAULT_POLICY), s)
    score = _profile_score(fit, s, DEFAULT_POLICY)
    central = (_profile_ll(template, name, value + h, s) - _profile_ll(template, name, value - h, s)) / (2.0 * h)
    assert abs(score) > 100.0
    assert abs(score - central) <= 1e-6 * abs(score)


def test_profile_finds_a_maximum_past_the_grid():
    ## Overdispersed counts whose hyper-Poisson maximum lies well above the grid's top.
    rng = np.random.default_rng(3)
    s = CountSample.from_counts(rng.poisson(rng.gamma(4.0, 0.8, 20_000)))
    prof = profile_fit(BaseDistribution(kind="hyper_poisson", lam=1.0, tau=1.0), s, grid=(0.5, 1.0, 2.0))
    name, tau = prof.nuisance
    assert name == "tau" and prof.boundary is None
    assert abs(tau - 5.7066) < 1e-3
    assert abs(prof.loglik + 43721.22) < 0.01
    assert abs(_profile_score(prof, s, DEFAULT_POLICY)) < 1.0


def test_profile_needs_few_inner_fits(monkeypatch):
    true = BaseDistribution(kind="hyper_poisson", lam=3.0, tau=1.7)
    s = CountSample.from_counts(sample_counts(true, 20_000, np.random.default_rng(5)))
    calls = []
    inner = fit_module.fit_mle

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(fit_module, "fit_mle", counted)
    prof = profile_fit(BaseDistribution(kind="hyper_poisson", lam=1.0, tau=1.0), s, grid=(0.8, 1.6, 3.2))
    assert prof.boundary is None and 1.6 < prof.nuisance[1] < 3.2
    assert len(calls) <= 12


def test_profile_reports_the_grid_edge():
    ## Underdispersed counts: the NB likelihood rises towards its Poisson limit r -> inf.
    s = CountSample.from_counts(np.random.default_rng(50).poisson(2.0, 300))
    template = BaseDistribution(kind="negative_binomial", lam=0.5, r=2.0)
    upper = profile_fit(template, s, grid=(1.0, 4.0, 16.0))
    assert upper.boundary == ("r", "upper")
    assert upper.nuisance[1] > 16.0
    assert upper.loglik > profile_fit(template, s, grid=(16.0,)).loglik
    ## Counts of 1 + Poisson: the hyper-Poisson likelihood rises towards tau -> 0.
    s = CountSample.from_counts(1 + np.random.default_rng(4).poisson(2.0, 2000))
    lower = profile_fit(BaseDistribution(kind="hyper_poisson", lam=1.0, tau=1.0), s, grid=(0.5, 1.0, 2.0))
    assert lower.boundary == ("tau", "lower")
    assert lower.nuisance[1] < 0.5 and lower.converged
    ## A single-point grid searches nothing past itself.
    assert profile_fit(template, s, grid=(2.0,)).boundary is None


def test_profile_validation():
    s = CountSample.from_counts([0, 1, 1, 2, 4])
    template = BaseDistribution(kind="negative_binomial", lam=1.0, r=2.0)
    with pytest.raises(DomainError):
        profile_fit(template, s, grid=())
    with pytest.raises(DomainError):
        profile_fit(template, s, grid=(1.0, -2.0))
    with pytest.raises(DomainError):
        profile_fit(template, s, grid=(1.0,), nuisance="lam")
    ## An xtol below the float spacing stops where the bracket can shrink no more.
    tight = profile_fit(template, s, grid=(0.5, 1.0, 2.0), xtol=0.0)
    assert abs(_profile_score(tight, s, DEFAULT_POLICY)) < 1e-6
    single = profile_fit(template, s, grid=(2.5,))
    assert single.nuisance == ("r", 2.5)
    assert single.model.r == 2.5


def test_tabulated_pmf_roundtrip():
    true = InfDefDistribution(
        BaseDistribution(kind="geometric", lam=0.6),
        InflationSpec(family="type1", points=(0, 2), factors=(1.7, 0.4)),
    )
    grid = np.arange(0, 81)
    probs = np.exp(model_logpmf(true, grid))
    s = CountSample.from_frequencies({int(n): 1e6 * p for n, p in zip(grid, probs)})
    fit = fit_mle(true, s)
    assert fit.converged
    assert np.all(np.abs(fit.eta_hat - canonicalize(true).eta) < 1e-6)


def test_max_iter_exhaustion_reported():
    counts = sample_counts(BaseDistribution(kind="cmp", lam=2.0, nu=1.5), 500, np.random.default_rng(9))
    s = CountSample.from_counts(counts)
    template = BaseDistribution(kind="cmp", lam=1.0, nu=1.0)
    capped = fit_mle(template, s, max_iter=1)
    assert not capped.converged
    assert capped.iterations == 1
    full = fit_mle(template, s)
    assert full.converged
    assert full.loglik >= capped.loglik - 1e-12


def test_null_line_search_does_not_stall():
    ## The Newton step's predicted gain here falls below the rounding of the
    ## average log-likelihood; halving it used to spin for max_iter iterations.
    s = CountSample.from_frequencies(
        {0: 14300, 1: 4252, 2: 6566, 3: 6513, 4: 5000, 5: 3025, 6: 1458, 7: 702, 8: 240, 9: 85, 10: 23, 11: 7, 12: 1, 13: 1}
    )
    template = MixtureModel(BaseDistribution(kind="poisson", lam=1.0), "zero_inflated", points=(0,), omegas=(0.1,))
    fit = fit_mle(template, s)
    assert fit.converged
    assert fit.iterations <= 10


def test_line_search_halves_step_past_zero_normalizer():
    ## A trial Newton step here drove the series type 1 normalizer
    ## z = 1 + sum (f - 1) b to 0.0 in floating point when the line search
    ## read A from it; the fit must converge, not end with an error.
    s = CountSample.from_frequencies({0: 5716, 1: 2444, 2: 1474, 3: 1730, 4: 221, 5: 58, 6: 19, 7: 2, 8: 1, 9: 1})
    template = InfDefDistribution(
        BaseDistribution(kind="cmp", lam=1.0, nu=1.0), InflationSpec(family="type1", points=(0, 3), factors=(1.0, 1.0))
    )
    fit = fit_mle(template, s)
    assert fit.converged
    ## the fitted type 1 model reproduces the observed perturbed cells
    fitted = np.exp(model_logpmf(fit.model, np.array([0, 3])))
    assert np.allclose(fitted, np.array([5716, 1730]) / s.size, rtol=1e-6)


def test_line_search_halves_step_past_an_unsettled_table(monkeypatch):
    ## A trial point whose support table does not settle counts as -inf.
    real, calls = fit_module.support_pass, []

    def capped(cf, eta=None):
        calls.append(1)
        if len(calls) == 2:
            raise SeriesCapError("support scan did not settle")
        return real(cf, eta)

    monkeypatch.setattr(fit_module, "support_pass", capped)
    s = CountSample.from_counts(sample_counts(BaseDistribution(kind="cmp", lam=2.0, nu=1.5), 500, 9))
    fit = fit_mle(BaseDistribution(kind="cmp", lam=1.0, nu=1.0), s)
    assert fit.converged and len(calls) > 2


def test_normalizer_memo_is_bounded():
    from bdcount.stationary import _NORM_MEMO_SIZE, _log_base_norm

    rng = np.random.default_rng(77)
    template = BaseDistribution(kind="cmp", lam=1.0, nu=1.0)
    for _ in range(50):
        true = BaseDistribution(kind="cmp", lam=rng.uniform(0.5, 4.0), nu=rng.uniform(0.6, 1.8))
        fit_mle(template, CountSample.from_counts(sample_counts(true, 300, rng)))
    info = _log_base_norm.cache_info()
    assert info.maxsize == _NORM_MEMO_SIZE
    assert info.currsize <= _NORM_MEMO_SIZE


def test_sample_counts_deterministic_by_seed():
    model = BaseDistribution(kind="poisson", lam=3.0)
    a = sample_counts(model, 400, 2026)
    b = sample_counts(model, 400, 2026)
    assert np.array_equal(a, b)
    c = sample_counts(model, 400, np.random.default_rng(2026))
    assert np.array_equal(a, c)
    assert abs(a.mean() - 3.0) < 5.0 * math.sqrt(3.0 / 400.0)


def test_sample_counts_reaches_far_mixture_point():
    mix = MixtureModel(
        base=BaseDistribution(kind="poisson", lam=2.0),
        variant="multiple_inflation",
        points=(0, 200),
        omegas=(0.1, 0.2),
    )
    draws = sample_counts(mix, 20000, 11)
    assert abs(np.mean(draws == 200) - 0.2) < 5.0 * math.sqrt(0.2 * 0.8 / 20000)
    assert set(np.unique(draws[draws > 20])) == {200}


def test_sample_counts_raises_at_term_cap():
    ## The mean is about 1e4, far past the 1000-term cap: no cut CDF is sampled.
    heavy = BaseDistribution(kind="negative_binomial", lam=0.9999, r=1.0)
    with pytest.raises(SeriesCapError):
        sample_counts(heavy, 100, 1, SeriesPolicy(max_terms=1000))


def _spy(monkeypatch, log, tag, owner, name):
    """Append tag to log at every call of owner.name, through every reference
    to it that a bdcount module holds."""
    real = getattr(owner, name)

    def spied(*args, **kwargs):
        log.append(tag)
        return real(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, spied)
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("bdcount"):
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, spied)


def test_fit_makes_one_support_pass_per_newton_point(monkeypatch):
    from bdcount import expfamily, models, stationary

    expfamily._memo_pass.cache_clear()
    log, points = [], []
    _spy(monkeypatch, log, "pass", expfamily, "support_table")
    _spy(monkeypatch, log, "series", stationary, "log_ratio_series_sum")
    _spy(monkeypatch, log, "series", stationary, "_log_base_norm")
    _spy(monkeypatch, log, "z", models, "infdef_log_z")
    _spy(monkeypatch, log, "A", expfamily.CanonicalForm, "A")
    real_pass = fit_module.support_pass

    def recorded(cf, eta=None):
        points.append(np.asarray(eta).tobytes())
        return real_pass(cf, eta)

    monkeypatch.setattr(fit_module, "support_pass", recorded)
    template = InfDefDistribution(
        BaseDistribution(kind="cmp", lam=2.0, nu=1.2),
        InflationSpec(family="type1", points=(0, 3), factors=(1.0, 1.0)),
    )
    true = InfDefDistribution(template.base, InflationSpec(family="type1", points=(0, 3), factors=(1.8, 0.6)))
    s = CountSample.from_counts(sample_counts(true, 3000, 5))
    del log[:]
    fit = fit_mle(template, s)
    assert fit.converged and fit.iterations >= 2
    ## every evaluated point, trial points included, is one table pass, and
    ## here every Newton step is a full step
    assert len(set(points)) == len(points) == log.count("pass") == fit.iterations + 1
    first, last = log.index("pass"), len(log) - 1 - log[::-1].index("pass")
    assert set(log[first : last + 1]) == {"pass"}
    assert fit.standard_errors is not None


def test_profile_score_reuses_the_last_pass_of_each_fit(monkeypatch):
    from bdcount import expfamily

    expfamily._memo_pass.cache_clear()
    rng = np.random.default_rng(3)
    s = CountSample.from_counts(rng.poisson(rng.gamma(4.0, 0.8, 20_000)))
    log = []
    _spy(monkeypatch, log, "pass", expfamily, "support_table")
    inner = fit_module.fit_mle

    def marked(*args, **kwargs):
        log.append("fit")
        res = inner(*args, **kwargs)
        log.append("fit done")
        return res

    monkeypatch.setattr(fit_module, "fit_mle", marked)
    prof = profile_fit(BaseDistribution(kind="hyper_poisson", lam=1.0, tau=1.0), s, grid=(0.5, 1.0, 2.0))
    assert abs(prof.nuisance[1] - 5.7066) < 1e-3
    inside, depth = 0, 0
    for tag in log:
        depth += {"fit": 1, "fit done": -1}.get(tag, 0)
        inside += tag == "pass" and depth > 0
    ## the scores at the inner optima make no pass of their own
    assert inside == log.count("pass") > 0


## A CMP type 1 table on which Newton used to stall: the series normalizer
## and the support table disagreed by ~1e-10, so near the optimum no step
## passed the Armijo test, and all 500 iterations ran.
_STALL_TABLE = {0: 349, 1: 1017, 2: 734, 3: 90, 4: 82, 5: 13}


def test_cmp_type1_fit_does_not_stall():
    template = InfDefDistribution(
        BaseDistribution(kind="cmp", lam=1.0, nu=1.0), InflationSpec("type1", (0, 3), (1.0, 1.0))
    )
    fit = fit_mle(template, CountSample.from_frequencies(_STALL_TABLE))
    assert fit.converged and fit.iterations <= 20


def test_cli_fit_of_the_stall_table_exits_0(tmp_path):
    from bdcount import cli

    data = tmp_path / "counts.csv"
    data.write_text("value,count\n" + "".join(f"{v},{c}\n" for v, c in _STALL_TABLE.items()))
    argv = ["fit", "--kind", "cmp", "--nu", "1", "--family", "type1", "--points", "0,3", "--data", str(data)]
    assert cli.main(argv + ["--out", str(tmp_path / "fit.json")]) == 0
