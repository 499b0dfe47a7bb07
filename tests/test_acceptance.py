"""Acceptance run: one reported line per criterion.

Each test prints `ACCEPTANCE NN PASS/FAIL: summary`; run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they happen.
"""

import math
import time

import numpy as np

from bdcount import (
    BaseDistribution,
    CountSample,
    InfDefDistribution,
    InflationSpec,
    MixtureModel,
    alpha_from_omega,
    base_pmf,
    base_ratio_sequence,
    canonical_rates,
    canonicalize,
    cumulant_identity_residual,
    equidispersion_contour,
    equidispersion_phi,
    fit_mle,
    model_pmf,
    model_ratio_sequence,
    modified_ratio,
    moments_closed,
    moments_direct,
    omega_from_alpha,
    run_ctmc,
    sample_counts,
    SimConfig,
    support_pass,
    tv_distance,
)
from conftest import (
    ALL_KINDS,
    EF_KINDS,
    random_admissible_omegas,
    random_base,
    random_points,
    random_spec,
)


def report(num, desc, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"acceptance {num:02d} failed: {desc}"


## Reference grid at q = 2: phi, ratios lambda_0..lambda_5, skewness, kurtosis.
REFERENCE_ROWS = {
    3.2: (6.661, (3.20, 1.60, 0.16, 0.80, 0.64, 0.53), 1.5556, 6.62),
    2.6: (2.756, (2.60, 1.30, 0.31, 0.65, 0.52, 0.43), 1.1314, 4.88),
    2.0: (1.000, (2.00, 1.00, 0.67, 0.50, 0.40, 0.33), 0.7071, 3.50),
    1.6: (0.450, (1.60, 0.80, 1.18, 0.40, 0.32, 0.27), 0.4243, 2.78),
    1.2: (0.170, (1.20, 0.60, 2.35, 0.30, 0.24, 0.20), 0.1414, 2.22),
}


def _printed_2dp(x, printed):
    ## printed references round or truncate; accept either reading
    return round(x, 2) == printed or math.floor(x * 100.0) / 100.0 == printed


def test_criterion_01_equidispersed_reference_rows():
    t0 = time.time()
    ok = True
    for lam, (phi_ref, ratio_refs, skew_ref, kurt_ref) in REFERENCE_ROWS.items():
        phi = equidispersion_phi(lam, 2)
        ok &= abs(phi - phi_ref) < 1e-3
        model = InfDefDistribution(
            BaseDistribution(kind="poisson", lam=lam),
            InflationSpec(family="type2", points=(2,), factors=(phi,)),
        )
        summ = moments_direct(model)
        ok &= abs(summ.mean - 2.0) < 1e-8 and abs(summ.variance - 2.0) < 1e-8
        ok &= abs(summ.skewness - skew_ref) < 5e-4
        ok &= abs(summ.kurtosis - kurt_ref) < 1e-2
        lam_n = modified_ratio(model, np.arange(6))
        ok &= all(_printed_2dp(got, ref) for got, ref in zip(lam_n, ratio_refs))
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, f"five equidispersed reference rows replicated in {elapsed:.2f}s", bool(ok))


def test_criterion_02_contour_roots():
    t0 = time.time()
    res_p = equidispersion_contour("poisson", 3, 0.2, 0.05, 8.0)
    res_c = equidispersion_contour("cmp", 3, 0.2, 0.05, 8.0, nu=1.1)
    elapsed = time.time() - t0
    ok = len(res_p.roots) == 1 and abs(res_p.roots[0] - 2.055) < 5e-3
    ok &= len(res_c.roots) == 2
    ok &= abs(res_c.roots[0] - 0.237) < 5e-3 and abs(res_c.roots[1] - 2.159) < 5e-3
    ok &= elapsed < 5.0
    report(2, f"contour roots 2.055 / (0.237, 2.159) located in {elapsed:.2f}s", bool(ok))


def test_criterion_03_mixture_type1_equivalence():
    rng = np.random.default_rng(301)
    ns = np.arange(101)
    worst_pmf = worst_map = 0.0
    for _ in range(200):
        base = random_base(rng, kinds=ALL_KINDS)
        points = random_points(rng)
        omegas = random_admissible_omegas(rng, base, points)
        mix = MixtureModel(base=base, variant="multiple_inflation", points=points, omegas=omegas)
        alphas = alpha_from_omega(base, points, omegas)
        t1 = InfDefDistribution(
            base, InflationSpec(family="type1", points=points, factors=alphas)
        )
        worst_pmf = max(worst_pmf, float(np.max(np.abs(mix.pmf(ns) - t1.pmf(ns)))))
        back = omega_from_alpha(base, t1.spec)
        worst_map = max(worst_map, float(np.max(np.abs(np.asarray(back) - np.asarray(omegas)))))
    ok = worst_pmf < 1e-12 and worst_map < 1e-12
    report(
        3,
        f"200 mixture/type-1 pairs: pmf gap {worst_pmf:.2e}, map round-trip {worst_map:.2e}",
        bool(ok),
    )


def test_criterion_04_zero_cell_tilt_coincidence():
    rng = np.random.default_rng(404)
    ns = np.arange(80)
    worst = 0.0
    for _ in range(50):
        base = random_base(rng, kinds=ALL_KINDS)
        psi = float(rng.uniform(-2.0, 2.0))
        factor = (math.exp(psi),)
        t1 = InfDefDistribution(base, InflationSpec(family="type1", points=(0,), factors=factor))
        t2 = InfDefDistribution(base, InflationSpec(family="type2", points=(0,), factors=factor))
        tilt = MixtureModel(base=base, variant="haslett", psi=psi)
        p1 = t1.pmf(ns)
        worst = max(
            worst,
            float(np.max(np.abs(p1 - t2.pmf(ns)))),
            float(np.max(np.abs(p1 - tilt.pmf(ns)))),
        )
    ok = worst < 1e-12
    report(4, f"50 zero-cell tilt triples coincide within {worst:.2e}", bool(ok))


EF_BASES = [
    BaseDistribution(kind="geometric", lam=0.55),
    BaseDistribution(kind="poisson", lam=2.4),
    BaseDistribution(kind="negative_binomial", lam=1.9, r=3.2),
    BaseDistribution(kind="hyper_poisson", lam=2.1, tau=1.7),
    BaseDistribution(kind="cmp", lam=1.8, nu=1.3),
]


def test_criterion_05_cumulant_identity():
    worst = 0.0
    for base in EF_BASES:
        res = cumulant_identity_residual(canonicalize(base), base_ratio_sequence(base))
        worst = max(worst, abs(res))
    rng = np.random.default_rng(505)
    for _ in range(20):
        model = InfDefDistribution(random_base(rng), random_spec(rng))
        res = cumulant_identity_residual(canonicalize(model), model_ratio_sequence(model))
        worst = max(worst, abs(res))
    ok = worst < 1e-8
    report(5, f"cumulant identity residual at most {worst:.2e} over 25 models", bool(ok))


def _moderate_base(rng, kind):
    """Parameter ranges keeping third and fourth cumulants small enough for
    central differences at step 1e-4 to resolve 1e-5 absolute."""
    if kind == "geometric":
        return BaseDistribution(kind=kind, lam=rng.uniform(0.1, 0.7))
    if kind == "poisson":
        return BaseDistribution(kind=kind, lam=rng.uniform(0.3, 5.0))
    if kind == "negative_binomial":
        r = rng.uniform(0.8, 6.0)
        return BaseDistribution(kind=kind, lam=r * rng.uniform(0.1, 0.7), r=r)
    if kind == "hyper_poisson":
        return BaseDistribution(kind=kind, lam=rng.uniform(0.3, 4.0), tau=rng.uniform(0.4, 4.0))
    return BaseDistribution(kind="cmp", lam=rng.uniform(0.3, 3.0), nu=rng.uniform(0.7, 1.8))


def test_criterion_06_finite_difference_checks():
    rng = np.random.default_rng(606)
    h = 1e-4
    worst_g = worst_h = 0.0
    for kind in EF_KINDS:
        for _ in range(10):
            model = _moderate_base(rng, kind)
            if rng.random() < 0.4:
                model = InfDefDistribution(model, random_spec(rng, max_point=4))
            cf = canonicalize(model)
            eta = cf.eta
            res = support_pass(cf, eta)
            g, hess = res.mean, res.cov
            for j in range(len(eta)):
                step = np.zeros(len(eta))
                step[j] = h
                fd_g = (cf.A(eta + step) - cf.A(eta - step)) / (2.0 * h)
                worst_g = max(worst_g, abs(fd_g - g[j]))
                fd_col = (support_pass(cf, eta + step).mean - support_pass(cf, eta - step).mean) / (2.0 * h)
                worst_h = max(worst_h, float(np.max(np.abs(fd_col - hess[:, j]))))
    ok = worst_g < 1e-5 and worst_h < 1e-5
    report(
        6,
        f"finite differences: gradient gap {worst_g:.2e}, Hessian gap {worst_h:.2e} (50 points)",
        bool(ok),
    )


def test_criterion_07_closed_vs_direct_moments():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        base = random_base(rng)
        model = InfDefDistribution(base, random_spec(rng)) if rng.random() < 0.8 else base
        closed = moments_closed(model)
        direct = moments_direct(model)
        worst = max(worst, abs(closed.mean - direct.mean), abs(closed.variance - direct.variance))
    ok = worst < 1e-8
    report(7, f"closed vs direct moments differ by at most {worst:.2e} over 100 models", bool(ok))


def test_criterion_08_likelihood_invariants():
    ok = True
    ## (a) every family whose first statistic is n reproduces the sample mean
    counts = sample_counts(BaseDistribution(kind="poisson", lam=1.9), 500, np.random.default_rng(81))
    s = CountSample.from_counts(counts)
    templates = list(EF_BASES)
    templates.append(
        InfDefDistribution(
            BaseDistribution(kind="poisson", lam=1.0),
            InflationSpec(family="type1", points=(0,), factors=(1.0,)),
        )
    )
    templates.append(
        InfDefDistribution(
            BaseDistribution(kind="poisson", lam=1.0),
            InflationSpec(family="type2", points=(1,), factors=(1.0,)),
        )
    )
    worst_mean = 0.0
    for template in templates:
        fit = fit_mle(template, s)
        ok &= fit.converged
        worst_mean = max(worst_mean, abs(moments_closed(fit.model).mean - s.mean))
    ok &= worst_mean < 1e-6

    ## (b) mixture and type-1 templates land on the same likelihood
    rng = np.random.default_rng(808)
    worst_ll = 0.0
    for _ in range(10):
        base = random_base(rng)
        points = random_points(rng, max_point=4, max_size=2)
        factors = tuple(np.exp(rng.uniform(-1.0, 1.0, size=len(points))).tolist())
        counts = sample_counts(
            InfDefDistribution(base, InflationSpec(family="type1", points=points, factors=factors)),
            600,
            rng,
        )
        sample = CountSample.from_counts(counts)
        f1 = fit_mle(
            InfDefDistribution(
                base, InflationSpec(family="type1", points=points, factors=(1.0,) * len(points))
            ),
            sample,
        )
        fm = fit_mle(
            MixtureModel(
                base=base, variant="multiple_inflation", points=points, omegas=(0.0,) * len(points)
            ),
            sample,
        )
        ok &= f1.converged and fm.converged
        worst_ll = max(worst_ll, abs(f1.loglik - fm.loglik))
    ok &= worst_ll < 1e-6

    ## (c) parameter recovery for the equidispersed reference model
    phi = equidispersion_phi(2.6, 2)
    true = InfDefDistribution(
        BaseDistribution(kind="poisson", lam=2.6),
        InflationSpec(family="type2", points=(2,), factors=(phi,)),
    )
    counts = sample_counts(true, 50000, np.random.default_rng(85))
    recovery = fit_mle(true, CountSample.from_counts(counts))
    ok &= recovery.converged and not recovery.se_unstable
    gap = np.abs(recovery.eta_hat - canonicalize(true).eta)
    ok &= bool(np.all(gap < 3.0 * recovery.standard_errors))
    report(
        8,
        f"mean match {worst_mean:.2e}; loglik gap {worst_ll:.2e}; recovery within 3 SE",
        bool(ok),
    )


def test_criterion_09_domination_contrast():
    ## fixed mixing weights pin the point masses as the base rate grows
    mix = MixtureModel(
        base=BaseDistribution(kind="poisson", lam=500.0),
        variant="multiple_inflation",
        points=(0, 3),
        omegas=(0.3, 0.2),
    )
    gap = float(np.max(np.abs(mix.pmf(np.asarray([0, 3])) - np.asarray([0.3, 0.2]))))
    ok = gap < 1e-6
    ## point-mass factors leave no persistent atom: the peak mass keeps falling
    peaks = []
    for lam in (50.0, 100.0, 200.0):
        model = InfDefDistribution(
            BaseDistribution(kind="poisson", lam=lam),
            InflationSpec(family="type1", points=(0, 3), factors=(3.0, 2.0)),
        )
        peaks.append(float(np.max(model.pmf(np.arange(1000)))))
    ok &= peaks[0] > peaks[1] > peaks[2]
    report(
        9,
        f"mixture atoms pinned within {gap:.2e}; peak mass {peaks[0]:.4f} > {peaks[1]:.4f} > {peaks[2]:.4f}",
        bool(ok),
    )


def test_criterion_10_simulation_oracle():
    poisson = BaseDistribution(kind="poisson", lam=2.0)
    phi = equidispersion_phi(2.6, 2)
    equi = InfDefDistribution(
        BaseDistribution(kind="poisson", lam=2.6),
        InflationSpec(family="type2", points=(2,), factors=(phi,)),
    )
    targets = [
        (base_ratio_sequence(poisson), lambda ns: base_pmf(poisson, ns)),
        (model_ratio_sequence(equi), lambda ns: model_pmf(equi, ns)),
    ]
    ok = True
    tvs, runtimes = [], []
    for i, (ratio, pmf) in enumerate(targets):
        rates = canonical_rates(ratio, "linear")
        config = SimConfig(seed=1000 + i, sample_time=30000.0)
        t0 = time.time()
        result = run_ctmc(rates, config)
        runtimes.append(time.time() - t0)
        repeat = run_ctmc(rates, config)
        ok &= bool(np.array_equal(result.weights, repeat.weights))
        ok &= result.metadata == repeat.metadata
        tvs.append(tv_distance(result, pmf))
        ok &= tvs[-1] < 0.02
        ok &= runtimes[-1] < 30.0
    report(
        10,
        f"CTMC oracle: TV {tvs[0]:.4f} and {tvs[1]:.4f} in {runtimes[0]:.1f}s/{runtimes[1]:.1f}s, repeat byte-identical",
        bool(ok),
    )
