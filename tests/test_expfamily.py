"""Canonical form construction, log-partition derivatives, cumulant identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdcount import (
    BaseDistribution,
    DomainError,
    InfDefDistribution,
    InflationSpec,
    UnsupportedFamilyError,
    base_ratio_sequence,
    canonicalize,
    cumulant_identity_residual,
    model_ratio_sequence,
)
from bdcount import expfamily
from bdcount.expfamily import CanonicalForm, support_pass
from conftest import EF_KINDS, random_base, random_spec

EF_BASES = [
    BaseDistribution(kind="geometric", lam=0.6),
    BaseDistribution(kind="poisson", lam=2.5),
    BaseDistribution(kind="negative_binomial", lam=1.8, r=3.0),
    BaseDistribution(kind="hyper_poisson", lam=2.2, tau=1.7),
    BaseDistribution(kind="cmp", lam=2.0, nu=1.3),
]


def _perturbed(base, family):
    spec = InflationSpec(family=family, points=(0, 2), factors=(1.4, 0.6))
    return InfDefDistribution(base, spec)


## Base laws of each canonical kind, near the edges of their domains too:
## geometric lam up to 0.999, negative binomial lam/r up to 0.99, CMP nu down
## to 0.3.  lam (lam/r) stays above e^-4, where exp(log lam) is within 3 ulp.
_BASES = {
    "geometric": st.builds(lambda lam: BaseDistribution("geometric", lam=lam), st.floats(0.02, 0.999)),
    "poisson": st.builds(lambda lam: BaseDistribution("poisson", lam=lam), st.floats(0.05, 20.0)),
    "negative_binomial": st.builds(
        lambda p, r: BaseDistribution("negative_binomial", lam=p * r, r=r), st.floats(0.02, 0.99), st.floats(0.3, 10.0)
    ),
    "hyper_poisson": st.builds(
        lambda lam, tau: BaseDistribution("hyper_poisson", lam=lam, tau=tau), st.floats(0.05, 8.0), st.floats(0.2, 5.0)
    ),
    "cmp": st.builds(lambda lam, nu: BaseDistribution("cmp", lam=lam, nu=nu), st.floats(0.05, 5.0), st.floats(0.3, 2.5)),
}


def _drawn_model(data, kind, family):
    """A drawn base law of kind, perturbed by family (None: the base) at up to 3 points in 0..6."""
    base = data.draw(_BASES[kind])
    if family is None:
        return base
    points = sorted(data.draw(st.sets(st.integers(0, 6), min_size=1, max_size=3)))
    log_f = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(points), max_size=len(points)))
    return InfDefDistribution(base, InflationSpec(family, tuple(points), tuple(np.exp(log_f))))


def test_poisson_lindley_has_no_canonical_form():
    with pytest.raises(UnsupportedFamilyError):
        canonicalize(BaseDistribution(kind="poisson_lindley", lam=0.5))


@pytest.mark.parametrize("kind", EF_KINDS)
@pytest.mark.parametrize("family", [None, "type1", "type2"])
@settings(max_examples=25)
@given(data=st.data())
def test_canonical_logpmf_matches_model(kind, family, data):
    ## h, T.eta and A read stationary's carrier, eta map and normalizers; at
    ## drawn parameters they give back the model's own log PMF.
    model = _drawn_model(data, kind, family)
    cf = canonicalize(model)
    ns = np.arange(60)
    assert np.max(np.abs(cf.logpmf(ns) - model.logpmf(ns))) < 1e-10


def test_table_blocks_closed_forms():
    gammaln = pytest.importorskip("scipy.special").gammaln
    ## geometric: h = 1, T = [n], A = -log(1 - e^eta)
    cf = canonicalize(BaseDistribution(kind="geometric", lam=0.6))
    assert np.allclose(cf.log_h(np.arange(5)), 0.0)
    assert np.allclose(cf.T(np.arange(4))[:, 0], np.arange(4))
    assert abs(cf.A() + math.log1p(-0.6)) < 1e-14
    assert cf.space == ((-math.inf, 0.0),)
    ## poisson: h = 1/n!, A = e^eta
    cf = canonicalize(BaseDistribution(kind="poisson", lam=2.5))
    assert np.allclose(cf.log_h(np.arange(6)), -gammaln(np.arange(6) + 1.0))
    assert abs(cf.A() - 2.5) < 1e-14
    assert cf.space == ((-math.inf, math.inf),)
    ## negative binomial: h = (r)_n / n!, eta = log(lam/r), A = -r log(1 - e^eta)
    cf = canonicalize(BaseDistribution(kind="negative_binomial", lam=1.8, r=3.0))
    ns = np.arange(6)
    assert np.allclose(cf.log_h(ns), gammaln(3.0 + ns) - gammaln(3.0) - gammaln(ns + 1.0))
    assert abs(cf.eta[0] - math.log(0.6)) < 1e-14
    assert abs(cf.A() + 3.0 * math.log1p(-0.6)) < 1e-12
    ## hyper-poisson: h = 1/(tau)_n, A = log sum_i e^(eta i) / (tau)_i
    cf = canonicalize(BaseDistribution(kind="hyper_poisson", lam=2.2, tau=1.7))
    assert np.allclose(cf.log_h(ns), -(gammaln(1.7 + ns) - gammaln(1.7)))
    terms = np.exp(np.arange(200) * math.log(2.2) - (gammaln(1.7 + np.arange(200)) - gammaln(1.7)))
    assert abs(cf.A() - math.log(terms.sum())) < 1e-9
    ## cmp: h = 1, T = [n, log n!], eta = [log lam, -nu]
    cf = canonicalize(BaseDistribution(kind="cmp", lam=2.0, nu=1.3))
    assert np.allclose(cf.log_h(ns), 0.0)
    assert np.allclose(cf.T(ns)[:, 1], gammaln(ns + 1.0))
    assert np.allclose(cf.eta, [math.log(2.0), -1.3])
    assert cf.space == ((-math.inf, math.inf), (-math.inf, 0.0))


def test_perturbation_appends_statistics():
    base = BaseDistribution(kind="poisson", lam=2.0)
    d1 = _perturbed(base, "type1")
    cf1 = canonicalize(d1)
    ns = np.arange(6)
    t = cf1.T(ns)
    assert t.shape == (6, 3)
    assert np.allclose(t[:, 1], [1, 0, 0, 0, 0, 0])
    assert np.allclose(t[:, 2], [0, 0, 1, 0, 0, 0])
    assert np.allclose(cf1.eta[1:], np.log([1.4, 0.6]))
    d2 = _perturbed(base, "type2")
    cf2 = canonicalize(d2)
    t = cf2.T(ns)
    assert np.allclose(t[:, 1], [1, 0, 0, 0, 0, 0])
    assert np.allclose(t[:, 2], [1, 1, 1, 0, 0, 0])


def test_log_partition_structure_poisson_perturbed():
    gammaln = pytest.importorskip("scipy.special").gammaln
    ## direct series for A when a Poisson base is perturbed on F = {0, 1, 2}
    lam = 2.3
    base = BaseDistribution(kind="poisson", lam=lam)
    ks = np.arange(400, dtype=float)
    poisson_terms = np.exp(ks * math.log(lam) - gammaln(ks + 1.0))

    alphas = (1.6, 0.8, 1.3)
    d1 = InfDefDistribution(base, InflationSpec(family="type1", points=(0, 1, 2), factors=alphas))
    cf = canonicalize(d1)
    weights = poisson_terms.copy()
    weights[:3] *= alphas
    assert abs(cf.A() - math.log(weights.sum())) < 1e-10

    phis = (1.6, 0.8, 1.3)
    d2 = InfDefDistribution(base, InflationSpec(family="type2", points=(0, 1, 2), factors=phis))
    cf = canonicalize(d2)
    weights = poisson_terms.copy()
    weights[0] *= phis[0] * phis[1] * phis[2]
    weights[1] *= phis[1] * phis[2]
    weights[2] *= phis[2]
    assert abs(cf.A() - math.log(weights.sum())) < 1e-10


def test_normalization_at_random_eta(rng):
    for _ in range(20):
        base = random_base(rng)
        model = base
        if rng.random() < 0.6:
            model = InfDefDistribution(base, random_spec(rng))
        cf = canonicalize(model)
        ## cap unbounded coordinates so the enumeration horizon stays short
        eta = np.array([
            rng.uniform(lo if math.isfinite(lo) else -2.0, hi if math.isfinite(hi) else 1.2)
            for lo, hi in cf.space
        ])
        total = np.exp(cf.logpmf(np.arange(3000), eta)).sum()
        assert abs(total - 1.0) < 1e-8


def _fd_grad(cf, eta, step=1e-5):
    d = len(eta)
    out = np.zeros(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        out[j] = (cf.A(eta + e) - cf.A(eta - e)) / (2.0 * step)
    return out


def _fd_hess(cf, eta, step=1e-5):
    d = len(eta)
    out = np.zeros((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        out[:, j] = (_fd_grad(cf, eta + e, step) - _fd_grad(cf, eta - e, step)) / (2.0 * step)
    return out


def _random_eta(rng, cf):
    eta = np.empty(cf.dim)
    for j, (lo, hi) in enumerate(cf.space):
        lo_eff = lo if math.isfinite(lo) else -2.5
        hi_eff = hi if math.isfinite(hi) else 1.0
        eta[j] = rng.uniform(lo_eff + 0.05, hi_eff - 0.05)
    return eta


@pytest.mark.parametrize("base", EF_BASES, ids=lambda b: b.kind)
def test_grad_hess_vs_finite_differences(rng, base):
    models = [base, _perturbed(base, "type1"), _perturbed(base, "type2")]
    for model in models:
        cf = canonicalize(model)
        for _ in range(3):
            eta = _random_eta(rng, cf)
            g = support_pass(cf, eta).mean
            assert np.max(np.abs(g - _fd_grad(cf, eta))) < 1e-5
            h = support_pass(cf, eta).cov
            assert np.max(np.abs(h - h.T)) == 0.0
            assert np.min(np.linalg.eigvalsh(h)) > -1e-10
            assert np.max(np.abs(h - _fd_hess(cf, eta))) < 1e-4


## A heavy negative binomial (lam/r = 0.98) joins the five kinds.
@pytest.mark.parametrize("base", EF_BASES + [BaseDistribution(kind="negative_binomial", lam=0.686, r=0.7)])
@pytest.mark.parametrize("family", [None, "type1", "type2"])
def test_support_pass_log_mass_is_A_and_its_mean_the_gradient(base, family):
    ## The fitter's line search reads A from the same table as the score, so
    ## a full Newton step near the optimum passes the Armijo test.
    cf = canonicalize(base if family is None else _perturbed(base, family))
    res = support_pass(cf)
    assert abs(res.log_mass - cf.A()) < 1e-9
    h = 1e-5
    for j in range(cf.dim):
        e = np.zeros(cf.dim)
        e[j] = h
        central = (support_pass(cf, cf.eta + e).log_mass - support_pass(cf, cf.eta - e).log_mass) / (2.0 * h)
        assert abs(central - res.mean[j]) <= 1e-6 * max(1.0, abs(res.mean[j]))
    assert not (res.mean.flags.writeable or res.cov.flags.writeable or res.weights.flags.writeable)


def test_support_pass_builds_the_statistic_once(monkeypatch):
    ## The pass keeps T of each table block for its mean and covariance, so T
    ## (as stat_rows, on the table's own range) runs once per log-weight call
    ## and never again over the whole table.
    cf = canonicalize(_perturbed(BaseDistribution(kind="negative_binomial", lam=0.686, r=0.7), "type2"))
    calls = {"T": 0, "log_w": 0}
    stat, table = CanonicalForm.stat_rows, expfamily.support_table

    def counted_stat(self, n):
        calls["T"] += 1
        return stat(self, n)

    def counted_table(log_w, *args):
        def counted(ns):
            calls["log_w"] += 1
            return log_w(ns)

        return table(counted, *args)

    monkeypatch.setattr(CanonicalForm, "stat_rows", counted_stat)
    monkeypatch.setattr(expfamily, "support_table", counted_table)
    expfamily._memo_pass.cache_clear()
    support_pass(cf)
    assert calls["log_w"] >= 2  # the table grew at least once
    assert calls["T"] == calls["log_w"]


def test_grad_first_coordinate_is_mean():
    base = BaseDistribution(kind="poisson", lam=3.1)
    cf = canonicalize(base)
    assert abs(support_pass(cf).mean[0] - 3.1) < 1e-9
    assert abs(support_pass(cf).cov[0, 0] - 3.1) < 1e-9


@pytest.mark.parametrize("base", EF_BASES, ids=lambda b: b.kind)
def test_cumulant_identity_bases(base):
    cf = canonicalize(base)
    res = cumulant_identity_residual(cf, base_ratio_sequence(base))
    assert abs(res) < 1e-8


def test_cumulant_identity_steep_cmp():
    ## at nu = 200 the linear ratio underflows to 0.0 from n = 41 on
    base = BaseDistribution(kind="cmp", lam=1.0, nu=200.0)
    assert abs(cumulant_identity_residual(canonicalize(base), base_ratio_sequence(base))) <= 1e-12


def test_cumulant_identity_perturbed(rng):
    for _ in range(10):
        base = random_base(rng)
        model = InfDefDistribution(base, random_spec(rng))
        cf = canonicalize(model)
        res = cumulant_identity_residual(cf, model_ratio_sequence(model))
        assert abs(res) < 1e-8


def test_eta_outside_space_rejected():
    cf = canonicalize(BaseDistribution(kind="geometric", lam=0.6))
    with pytest.raises(DomainError):
        cf.A(np.array([0.5]))
    with pytest.raises(DomainError):
        cf.A(np.array([-0.1, -0.1]))


@settings(max_examples=150)
@given(data=st.data(), kind=st.sampled_from(EF_KINDS), family=st.sampled_from([None, "type1", "type2"]))
def test_model_at_rebuilds(data, kind, family):
    ## base_from_eta inverts base_eta: the kind and shapes come back exactly, lam within 4 ulp.
    model = _drawn_model(data, kind, family)
    rebuilt = canonicalize(model).model_at()
    base, got = (model, rebuilt) if family is None else (model.base, rebuilt.base)
    assert (got.kind, got.r, got.tau, got.nu) == (base.kind, base.r, base.tau, base.nu)
    assert abs(got.lam - base.lam) <= 4.0 * math.ulp(base.lam)
    ns = np.arange(50)
    assert np.allclose(rebuilt.logpmf(ns), model.logpmf(ns), rtol=1e-12)
