"""Canonical form construction, log-partition derivatives, cumulant identity."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from bdcount import (
    BaseDistribution,
    DomainError,
    InfDefDistribution,
    InflationSpec,
    UnsupportedFamilyError,
    base_ratio_sequence,
    canonicalize,
    cumulant_identity_residual,
    grad_A,
    hess_A,
    model_logpmf,
    model_ratio_sequence,
)
from bdcount.expfamily import support_pass
from conftest import random_base, random_spec

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


def test_poisson_lindley_has_no_canonical_form():
    with pytest.raises(UnsupportedFamilyError):
        canonicalize(BaseDistribution(kind="poisson_lindley", lam=0.5))


@pytest.mark.parametrize("base", EF_BASES, ids=lambda b: b.kind)
@pytest.mark.parametrize("family", [None, "type1", "type2"])
def test_canonical_logpmf_matches_model(base, family):
    model = base if family is None else _perturbed(base, family)
    cf = canonicalize(model)
    ns = np.arange(60)
    assert np.max(np.abs(cf.logpmf(ns) - model_logpmf(model, ns))) < 1e-10


def test_table_blocks_closed_forms():
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
            g = grad_A(cf, eta)
            assert np.max(np.abs(g - _fd_grad(cf, eta))) < 1e-5
            h = hess_A(cf, eta)
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


def test_grad_first_coordinate_is_mean():
    base = BaseDistribution(kind="poisson", lam=3.1)
    cf = canonicalize(base)
    assert abs(grad_A(cf)[0] - 3.1) < 1e-9
    assert abs(hess_A(cf)[0, 0] - 3.1) < 1e-9


@pytest.mark.parametrize("base", EF_BASES, ids=lambda b: b.kind)
def test_cumulant_identity_bases(base):
    cf = canonicalize(base)
    res = cumulant_identity_residual(cf, base_ratio_sequence(base))
    assert abs(res) < 1e-8


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


def test_model_at_rebuilds(rng):
    base = BaseDistribution(kind="negative_binomial", lam=1.8, r=3.0)
    model = _perturbed(base, "type2")
    cf = canonicalize(model)
    rebuilt = cf.model_at()
    ns = np.arange(50)
    assert np.allclose(rebuilt.logpmf(ns), model.logpmf(ns), rtol=1e-12)
