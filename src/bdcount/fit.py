"""Maximum-likelihood fitting of the canonical count families.

For an exponential-family model the average log-likelihood is
T_bar . eta - A(eta) + const, so the score is T_bar - grad A(eta) and the
observed information per observation is hess A(eta).  fit_mle runs a damped
Newton ascent on eta (with log reparameterization of the coordinates bounded
above by 0), which is globally concave.  Each point it evaluates, line-search
trials included, costs one expfamily.support_pass, which gives A, grad A and
hess A from one table; so the value in the Armijo test is the function whose
derivatives set the step, and full steps near the optimum pass it.  An
accepted trial's pass scores the next iterate.  The reported log-likelihood is
sum_i f_i log h(y_i) + N (T_bar . eta_hat - A), A from the pass that scored
eta_hat: the value Newton maximized, with no sum after the fit (loglik agrees
with it to about 1e-10 relative).  The start matches the sample mean m; a
hyper-Poisson starts at lam = m + (tau - 1)(1 - p0), p0 the sample's share of
zeros, by its identity E[N] = lam - (tau - 1)(1 - P(N = 0)): the MLE solves
E[N] = m, so the start is off only by the mismatch in P(N = 0).

Shape parameters held inside the carrier h (r of the negative binomial, tau
of the hyper-Poisson) are not canonical coordinates; profile_fit maximizes
over them by a safeguarded secant on the profile score, which by the envelope
theorem is sum_i f_i d log h(y_i) - N E[d log h(N)] at the inner optimum (the
expectation read from the inner fit's last pass), starting from a grid and
widening past its ends while the score points outward.  A maximum that lies
past every widening is returned as the best fit searched, with
FitResult.boundary naming the nuisance and the side.

Every mixture variant (zero-inflated, multiple-inflation, hurdle, haslett) is
a reparameterization of a type 1 law, so a mixture template is fitted in the
type 1 coordinates given by MixtureModel.as_type1 and the estimate is mapped
back by MixtureModel.from_type1; both fits share one likelihood maximum.
"""

import math
import warnings
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SeriesCapError
from .expfamily import canonicalize, shape_mean, support_pass
from .models import InfDefDistribution, InflationSpec, model_from_document
from .stationary import DEFAULT_POLICY, base_pmf, lam_upper, support_floor, support_table

_GRAD_TOL = 1e-8
_MAX_ITER = 500
_ARMIJO = 1e-4
_SE_COND_LIMIT = 1e10
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CountSample:
    """Observed counts as a frequency table over distinct values."""

    values: tuple
    freqs: tuple

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        if any(v != w for v, w in zip(vals, self.values)) or any(v < 0 for v in vals):
            raise DomainError("sample values must be non-negative integers")
        if len(set(vals)) != len(vals):
            raise DomainError("sample values must be distinct; aggregate the frequencies")
        freqs = tuple(float(f) for f in self.freqs)
        if len(freqs) != len(vals):
            raise DomainError("values and freqs must have equal length")
        if any(not (math.isfinite(f) and f >= 0.0) for f in freqs):
            raise DomainError("frequencies must be non-negative finite reals")
        if not sum(freqs) > 0.0:
            raise DomainError("total frequency must be positive")
        order = np.argsort(vals)
        object.__setattr__(self, "values", tuple(vals[i] for i in order))
        object.__setattr__(self, "freqs", tuple(freqs[i] for i in order))

    @property
    def size(self):
        return sum(self.freqs)

    @property
    def mean(self):
        return sum(v * f for v, f in zip(self.values, self.freqs)) / self.size

    @classmethod
    def from_counts(cls, counts):
        table = Counter(int(c) for c in counts)
        vals = sorted(table)
        return cls(values=tuple(vals), freqs=tuple(float(table[v]) for v in vals))

    @classmethod
    def from_frequencies(cls, pairs):
        pairs = dict(pairs)
        vals = sorted(pairs)
        return cls(values=tuple(vals), freqs=tuple(float(pairs[v]) for v in vals))


def loglik(model, sample, policy=DEFAULT_POLICY):
    """Total log-likelihood sum_j freq_j log p(v_j); -inf when support is missed."""
    lp = np.atleast_1d(model.logpmf(np.asarray(sample.values), policy))
    freqs = np.asarray(sample.freqs)
    hit = freqs > 0.0
    if np.any(np.isneginf(lp[hit])):
        dead = [v for v, bad in zip(sample.values, np.isneginf(lp) & hit) if bad]
        warnings.warn(f"model assigns zero probability to observed values {dead}; log-likelihood is -inf")
        return -math.inf
    return float(freqs @ lp)


@dataclass
class FitResult:
    model: object
    eta_hat: np.ndarray
    loglik: float
    iterations: int
    converged: bool
    standard_errors: np.ndarray | None
    se_unstable: bool
    aic: float
    bic: float
    nuisance: tuple | None = None
    boundary: tuple | None = None


def _start_base(shape, sample):
    """shape with a lam matched to the sample mean m: m itself, or u m / (u + m) when
    lam < u = lam_upper, the lam of the negative binomial with r = u (the geometric
    at u = 1) whose mean is m; for a hyper-Poisson, whose ratios lam / (tau + n) give
    E[N] = lam - (tau - 1)(1 - P(N = 0)), m + (tau - 1)(1 - p0), p0 the share of zeros."""
    mean, upper = sample.mean, lam_upper(shape.kind, shape.r)
    if shape.kind == "hyper_poisson":
        p0 = sample.freqs[0] / sample.size if sample.values[0] == 0 else 0.0
        mean += (shape.tau - 1.0) * (1.0 - p0)
    mean = max(mean, 1e-3)
    return replace(shape, lam=mean if upper == math.inf else upper * mean / (upper + mean))


def _start_factors(family, points, base0, sample, policy):
    """Factor starts from the empirical masses at the perturbed points.

    Empirical cell probabilities get a 0.5/size floor so that unobserved
    points still produce a usable (deflating) start.
    """
    pts = np.asarray(points)
    n_tot = sample.size
    freq_map = dict(zip(sample.values, sample.freqs))
    p_hat = np.array([max(freq_map.get(int(p), 0.0), 0.5) / n_tot for p in pts])
    b_pts = base_pmf(base0, pts, policy)
    mass_hat = min(float(p_hat.sum()), 0.9)
    mass_base = min(float(b_pts.sum()), 0.9)
    alpha = (p_hat / (1.0 - mass_hat)) / (b_pts / (1.0 - mass_base))
    alpha = np.clip(alpha, 1e-6, 1e6)
    if family == "type1":
        return tuple(alpha)
    ## Convert point targets f(n_i) = alpha_i into step factors.
    phi = []
    for i in range(len(pts)):
        target = alpha[i] if i + 1 == len(pts) else alpha[i] / alpha[i + 1]
        phi.append(float(np.clip(target, 1e-6, 1e6)))
    return tuple(phi)


def _initial_model(cf, sample, policy):
    """Starting law with the structure of the canonical form cf."""
    base0 = _start_base(cf.base_at(cf.eta), sample)
    if not cf.points:
        return base0
    factors = _start_factors(cf.family, cf.points, base0, sample, policy)
    return InfDefDistribution(base0, InflationSpec(cf.family, cf.points, factors), policy)


def _sample_sums(cf, sample):
    """The sample means of T and the sample's total of log h: sum_i f_i T(y_i) / N, sum_i f_i log h(y_i)."""
    values, freqs = np.asarray(sample.values), np.asarray(sample.freqs)
    return freqs @ cf.T(values) / freqs.sum(), float(freqs @ cf.log_h(values))


def fit_mle(template, sample, policy=DEFAULT_POLICY, max_iter=_MAX_ITER, grad_tol=_GRAD_TOL):
    """Newton MLE over the canonical coordinates of the template's family.

    template fixes the structure (kind, carrier shapes, perturbation points
    and family); its parameter values are ignored except as defaults.  A
    MixtureModel template of any variant is fitted in the coordinates of its
    type 1 law (MixtureModel.as_type1), so eta_hat is type 1 canonical, and
    the fitted law is mapped back to the variant (MixtureModel.from_type1).
    """
    if len(sample.values) < 2:
        raise DomainError(
            "degenerate sample: every observation equals "
            f"{sample.values[0]}; the likelihood is maximized on the parameter-space boundary"
        )
    cf = canonicalize(template, policy)
    cf = replace(cf, eta=canonicalize(_initial_model(cf, sample, policy), policy).eta)
    t_bar, log_h_total = _sample_sums(cf, sample)
    bounded = np.array([hi == 0.0 for (_, hi) in cf.space])

    def to_eta(x):
        ## A trial step can send a log coordinate past exp's range; its eta is
        ## then -inf, a point the line search rejects.
        eta = x.copy()
        with np.errstate(over="ignore"):
            eta[bounded] = -np.exp(x[bounded])
        return eta

    def to_x(eta):
        return np.where(bounded, np.log(-np.minimum(eta, -1e-300)), eta)

    def evaluate(x):
        """Average log-likelihood at x and the support pass that gives it."""
        eta = to_eta(x)
        res = support_pass(cf, eta)
        return float(t_bar @ eta - res.log_mass), res

    x = to_x(cf.eta)
    converged = False
    iterations = 0
    ## One support pass per evaluated point gives the value, score and information.
    val, res = evaluate(x)
    for iterations in range(1, max_iter + 1):
        eta = to_eta(x)
        g_eta = t_bar - res.mean
        if float(np.max(np.abs(g_eta))) < grad_tol:
            converged = True
            iterations -= 1
            break
        jac = np.where(bounded, eta, 1.0)
        g_x = g_eta * jac
        ## Hessian of the avg log-likelihood in x (chain rule through eta = -e^x).
        h_x = -(jac[:, None] * res.cov * jac[None, :]) + np.diag(np.where(bounded, g_eta * eta, 0.0))
        try:
            direction = np.linalg.solve(h_x, -g_x)
        except np.linalg.LinAlgError:
            direction = g_x
        if float(direction @ g_x) <= 0.0:
            direction = g_x
        slope = float(g_x @ direction)
        step = 1.0
        ## Compare up to the rounding of the average log-likelihood: near the
        ## optimum the predicted gain falls below it, and an exact test would
        ## halve the step to nothing while the values tie.
        tol = 8.0 * _EPS * max(1.0, abs(val))
        while step > 1e-14:
            x_new = x + step * direction
            try:
                val_new, res_new = evaluate(x_new)
            except (DomainError, SeriesCapError):
                ## a trial point outside the domain, or one whose table does
                ## not settle, halves the step
                val_new = -math.inf
            if val_new >= val + _ARMIJO * step * slope - tol:
                break
            step *= 0.5
        else:
            break
        if np.array_equal(x_new, x):
            break
        x, val, res = x_new, val_new, res_new
    else:
        iterations = max_iter
    g_eta = t_bar - res.mean
    if not converged and float(np.max(np.abs(g_eta))) < grad_tol:
        converged = True

    eta_hat = to_eta(x)
    fitted = cf.model_at(eta_hat)
    n_tot = sample.size
    ## The log-likelihood sum_i f_i log h(y_i) + N (T_bar . eta_hat - A), with
    ## A from the pass that scored eta_hat: the value Newton maximized.
    ll = log_h_total + n_tot * val
    k = cf.dim
    info = n_tot * res.cov
    se = None
    se_unstable = True
    cond = np.linalg.cond(info)
    if np.isfinite(cond) and cond < _SE_COND_LIMIT:
        se = np.sqrt(np.diag(np.linalg.inv(info)))
        se_unstable = False
    return FitResult(
        model=fitted,
        eta_hat=eta_hat,
        loglik=ll,
        iterations=iterations,
        converged=converged,
        standard_errors=se,
        se_unstable=se_unstable,
        aic=2.0 * k - 2.0 * ll,
        bic=k * math.log(n_tot) - 2.0 * ll,
    )


def _with_nuisance(doc, name, value, policy):
    """The model of document doc with its base's carrier shape name set to value."""
    base = dict(doc["base"], **{name: value})
    ## keep the placeholder lam admissible when the grid drops r below it
    if name == "r" and base["lambda"] >= value:
        base["lambda"] = value / 2.0
    return model_from_document(dict(doc, base=base), policy)


## Factor by which the bracket widens past a grid end, and the most widenings.
_WIDEN = 4.0
_MAX_WIDEN = 8


def _profile_score(result, sample, policy):
    """Derivative of the profile log-likelihood in the carrier shape at result.

    By the envelope theorem it is the partial derivative at the inner optimum:
    sum_i f_i d log h(y_i) - N E[d log h(N)], the expectation over the law at
    eta_hat (type 1 coordinates for a mixture, as canonicalize gives them).
    """
    cf = canonicalize(result.model, policy)
    observed = float(np.asarray(sample.freqs) @ cf.dlog_h(np.asarray(sample.values)))
    return observed - sample.size * shape_mean(cf, result.eta_hat)


def _close_bracket(score, near, far, xtol):
    """Narrow a sign change of score between near and far to width <= xtol.

    Secant steps on the two latest iterates, taken in 1/s, where the score
    is nearer linear (an NB variance is mean + mean^2 / r), and kept inside the
    bracket; a bisection instead when the secant point falls outside it or
    the latest secant step did not halve |score|.  A step shorter than
    xtol / 2 is lengthened to xtol / 2, which steps past a root the secant
    placed that close and so closes the bracket.
    """
    a, sa, b, sb = far, score(far), near, score(near)
    pos, neg = (b, a) if sb > 0.0 else (a, b)
    secant = False
    while abs(pos - neg) > xtol:
        lo, hi = min(pos, neg), max(pos, neg)
        u = 1.0 / b - sb * (1.0 / b - 1.0 / a) / (sb - sa) if sb != sa else 0.0
        x = 1.0 / u if u > 0.0 else math.nan
        if not lo < x < hi or (secant and not abs(sb) <= 0.5 * abs(sa)):
            x, secant = (lo + hi) / 2.0, False
        else:
            secant = True
        if abs(x - b) < xtol / 2.0:
            x = b + math.copysign(xtol / 2.0, x - b)
        if not lo < x < hi:
            break  # xtol is below the float spacing of the bracket
        a, sa, b, sb = b, sb, x, score(x)
        if sb > 0.0:
            pos = x
        else:
            neg = x


def profile_fit(template, sample, grid, nuisance=None, policy=DEFAULT_POLICY, xtol=1e-4):
    """Maximize the likelihood over a carrier shape parameter (r or tau).

    Fits the canonical coordinates at every grid value of the nuisance, then
    finds the zero of the profile score next to the best grid point: the
    bracket between it and its uphill neighbour is closed to width xtol by
    safeguarded secant steps.  When the score at an end of the grid points
    outward, the bracket widens past that end by factors of _WIDEN, at most
    _MAX_WIDEN times; if the score still points outward, the best fit
    searched is returned with boundary = (nuisance, "lower" or "upper").
    Otherwise the best fit searched lies within xtol of the maximum.  A
    single-point grid reduces to fit_mle with the nuisance held fixed.
    """
    doc = template.to_document()
    if nuisance is None:
        nuisance = {"negative_binomial": "r", "hyper_poisson": "tau"}.get(doc["base"]["kind"])
    if nuisance not in ("r", "tau"):
        raise DomainError(f"nuisance must be 'r' or 'tau', got {nuisance!r}")
    grid = sorted(float(g) for g in grid)
    if not grid or any(not (math.isfinite(g) and g > 0.0) for g in grid):
        raise DomainError(f"grid must hold positive finite reals, got {grid}")

    fits, scores = {}, {}

    def fit_at(val):
        if val not in fits:
            fits[val] = fit_mle(_with_nuisance(doc, nuisance, val, policy), sample, policy)
        return fits[val]

    def score(val):
        if val not in scores:
            scores[val] = _profile_score(fit_at(val), sample, policy)
        return scores[val]

    best = max(grid, key=lambda g: fit_at(g).loglik)
    boundary = None
    if len(grid) > 1:
        up = score(best) > 0.0
        i = grid.index(best) + (1 if up else -1)
        near = far = best
        if 0 <= i < len(grid):
            far = grid[i]
        else:
            for _ in range(_MAX_WIDEN):
                near, far = far, far * _WIDEN if up else far / _WIDEN
                if (score(far) > 0.0) != up:
                    break
            else:
                boundary = (nuisance, "upper" if up else "lower")
        if boundary is None:
            _close_bracket(score, near, far, xtol)
    best_val = max(fits, key=lambda v: fits[v].loglik)
    result = fits[best_val]
    k = len(result.eta_hat) + 1
    n_tot = sample.size
    return replace(
        result,
        nuisance=(nuisance, best_val),
        boundary=boundary,
        aic=2.0 * k - 2.0 * result.loglik,
        bic=k * math.log(n_tot) - 2.0 * result.loglik,
    )


def sample_counts(model, size, rng, policy=DEFAULT_POLICY):
    """Draw iid counts from any model by inversion of the cumulative PMF.

    The CDF is that of the model's support table; SeriesCapError is raised when
    the table does not settle within policy.max_terms.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    _, log_p = support_table(lambda ns: model.logpmf(ns, policy), policy, support_floor(model))
    cdf = np.cumsum(np.exp(log_p))
    u = rng.random(size) * cdf[-1]
    return np.searchsorted(cdf, u, side="left")
