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
of the hyper-Poisson) are not canonical coordinates.  profile_fit adds log s
of the shape s to the same Newton run (the joint fit of Lawless 1987, Can. J.
Stat. 15:209-225): the pass at each point also gives the shape's score
sum_i f_i d log h(y_i) / N - E[d log h(N)] and its curvature, so no inner fits
are run.  The shape stays within a box around the grid; a maximum past its
edge is returned at the edge, with FitResult.boundary naming the side.

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
from .expfamily import canonicalize, support_pass
from .models import InfDefDistribution, InflationSpec, model_from_document
from .stationary import DEFAULT_POLICY, base_pmf, lam_upper, support_floor, support_table

_GRAD_TOL = 1e-8
_MAX_ITER = 500
_ARMIJO = 1e-4
_SE_COND_LIMIT = 1e10
_EPS = float(np.finfo(float).eps)


def _count(value, what):
    """value as an int; DomainError unless it is a non-negative integer (an integral float passes)."""
    try:
        if int(value) == value >= 0:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{what} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class CountSample:
    """Observed counts as a frequency table over distinct values."""

    values: tuple
    freqs: tuple

    def __post_init__(self):
        vals = tuple(_count(v, "a sample value") for v in self.values)
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
        table = Counter(counts)
        return cls(values=tuple(table), freqs=tuple(float(f) for f in table.values()))

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
    nuisance_se: float | None = None


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


def _start_form(template, sample, policy):
    """The canonical form of template at the mean-matched start (_initial_model)."""
    if len(sample.values) < 2:
        raise DomainError(
            "degenerate sample: every observation equals "
            f"{sample.values[0]}; the likelihood is maximized on the parameter-space boundary"
        )
    cf = canonicalize(template, policy)
    return replace(cf, eta=canonicalize(_initial_model(cf, sample, policy), policy).eta)


def _shape_terms(form, res, values, freqs, n_tot):
    """(score, Cov(T, D), second derivative) in the carrier shape s of the average
    log-likelihood at the pass res, D = d log h / ds and D2 = d^2 log h / ds^2.

    The score is mean_i D(y_i) - E[D] and the second derivative mean_i D2(y_i) -
    E[D2] - Var(D), expectations under the pass's weights; D and D2 are one
    running sum each over the table and the sample's values.
    """
    w = res.weights
    m = len(w)
    ns = np.arange(max(m, int(values[-1]) + 1))
    d1, d2 = form.dlog_h(ns), form.dlog_h(ns, 2)
    dev = d1[:m] - w @ d1[:m]
    cross = (w * dev) @ (form.stat_rows(ns[:m]) - res.mean)
    score = float(freqs @ d1[values]) / n_tot - float(w @ d1[:m])
    return score, cross, float(freqs @ d2[values]) / n_tot - float(w @ d2[:m]) - float(w @ (dev * dev))


def _newton(cf, sample, max_iter, grad_tol, shape=None):
    """Damped Newton ascent of the average log-likelihood from cf.eta, the one
    loop of fit_mle and profile_fit; returns its FitResult.

    x holds eta's coordinates; one bounded above by 0 is searched as log(-eta),
    or with a shape as log(e^-eta - 1), which for a negative binomial is
    log(r / mean), so its mean-matched eta moves one for one with log r.
    shape = (name, lo, hi, xtol) appends u = log s, s the carrier shape name
    (r or tau) of cf, kept in [lo, hi].  Each evaluated point costs one
    support_pass, which gives the value and, at an accepted point, the score
    and Hessian (in s through _shape_terms).  The eta block of the Hessian is
    negative definite, so the step solves it first, for the score and for the
    cross column; the step in u is then Newton's on the Schur complement
    sigma = H_uu - H_ux H_xx^-1 H_xu where sigma < 0, else 1 uphill in the
    profile score, capped at 1 and kept in [lo, hi].  A shape on an edge whose
    score points outward is held there, and eta finishes alone.  The run has
    converged when the eta score is below grad_tol and the shape is held, or
    its score is below grad_tol and (but where a step gains nothing more) its
    next step is below xtol.  Standard errors come from the observed
    information in (eta, s), a held shape's row left out.
    """
    name, lo, hi, xtol = shape or (None, None, None, None)
    d = cf.dim
    t_bar, log_h_total = _sample_sums(cf, sample)
    values, freqs = np.asarray(sample.values), np.asarray(sample.freqs)
    n_tot = sample.size
    bounded = np.array([top == 0.0 for (_, top) in cf.space])

    def to_eta(x):
        ## A trial step can send a log coordinate past exp's range; its eta is
        ## then -inf, a point the line search rejects.
        eta = x[:d].copy()
        with np.errstate(over="ignore"):
            eta[bounded] = -np.exp(eta[bounded]) if name is None else -np.logaddexp(0.0, eta[bounded])
        return eta

    def form_at(x):
        return cf if name is None else replace(cf, **{name: math.exp(x[d])})

    def evaluate(x):
        """Average log-likelihood at x (less the sample's mean log h without a shape), the pass
        that gives it, and its rounding: ulps of its size, or with a shape of its terms' size."""
        eta, form = to_eta(x), form_at(x)
        res = support_pass(form, eta)
        val = float(t_bar @ eta - res.log_mass)
        if name is None:
            return val, res, 8.0 * _EPS * max(1.0, abs(val))
        mean_log_h = float(freqs @ form.log_h(values)) / n_tot
        size = abs(float(t_bar @ eta)) + abs(res.log_mass) + abs(mean_log_h)
        return val + mean_log_h, res, 8.0 * _EPS * max(1.0, size)

    def derivatives(x, res):
        """Score and information (the negated Hessian) of the average log-likelihood in (eta, s) at x."""
        if name is None:
            return t_bar - res.mean, res.cov
        g_s, cross, h_ss = _shape_terms(form_at(x), res, values, freqs, n_tot)
        info = np.empty((d + 1, d + 1))
        info[:d, :d], info[:d, d], info[d, :d], info[d, d] = res.cov, cross, cross, -h_ss
        return np.append(t_bar - res.mean, g_s), info

    def in_x(x, g, info):
        """Score and Hessian in x, by the chain rule through eta(x) and s = e^u."""
        eta = to_eta(x)
        jac = np.where(bounded, eta if name is None else np.expm1(eta), 1.0)
        curv = np.where(bounded, g[:d] * (eta if name is None else jac * np.exp(eta)), 0.0)
        if name is not None:
            jac, curv = np.append(jac, math.exp(x[d])), np.append(curv, math.exp(x[d]) * g[d])
        return g * jac, -(jac[:, None] * info * jac[None, :]) + np.diag(curv)

    x = cf.eta.copy()
    x[bounded] = np.log(-np.minimum(x[bounded], -1e-300) if name is None else np.expm1(-x[bounded]))
    if name is not None:
        x = np.append(x, math.log(getattr(cf, name)))
    held = None
    ## One support pass per evaluated point gives the value, score and information.
    val, res, tol = evaluate(x)
    for iterations in range(1, max_iter + 2):
        g, info = derivatives(x, res)
        small = float(np.max(np.abs(g[:d]))) < grad_tol
        if name is not None:
            g_u = math.exp(x[d]) * float(g[d])
            held = "upper" if x[d] >= hi and g_u > 0.0 else "lower" if x[d] <= lo and g_u < 0.0 else None
            small = small and (held is not None or abs(g_u) < grad_tol)
        if (small and name is None) or iterations > max_iter:
            iterations -= 1
            break
        g_x, h_x = in_x(x, g, info)
        direction, du = g_x, 0.0
        try:
            direction = np.linalg.solve(h_x[:d, :d], -g_x[:d])
            if name is not None:
                u, cross = x[d], h_x[:d, d]
                back = np.linalg.solve(h_x[:d, :d], cross)
                profile = g_x[d] + cross @ direction
                sigma = h_x[d, d] - cross @ back
                du = -profile / sigma if sigma < 0.0 else math.copysign(1.0, profile)
                du = max(lo - u, -1.0, min(du, 1.0, hi - u))
                direction = np.append(direction - back * du, du)
        except np.linalg.LinAlgError:
            pass
        if small and (held or math.exp(x[d]) * abs(du) <= xtol):
            iterations -= 1
            break
        if float(direction @ g_x) <= 0.0:
            direction = g_x
        slope = float(g_x @ direction)
        step = 1.0
        ## Compare up to the rounding of the average log-likelihood: near the
        ## optimum the predicted gain falls below it, and an exact test would
        ## halve the step to nothing while the values tie.
        while step > 1e-14:
            x_new = x + step * direction
            if name is not None:
                x_new[d] = min(max(x_new[d], lo), hi)
            try:
                val_new, res_new, tol_new = evaluate(x_new)
            except (DomainError, SeriesCapError):
                ## a trial point outside the domain, or one whose table does
                ## not settle, halves the step
                val_new = -math.inf
            if val_new >= val + _ARMIJO * step * slope - tol:
                break
            step *= 0.5
        else:
            break
        if np.array_equal(x_new, x) or small and val_new <= val:
            break
        x, val, res, tol = x_new, val_new, res_new, tol_new

    form, eta_hat = form_at(x), to_eta(x)
    ## The log-likelihood sum_i f_i log h(y_i) + N (T_bar . eta_hat - A), with
    ## A from the pass that scored eta_hat: the value Newton maximized.
    ll = n_tot * val if name is not None else log_h_total + n_tot * val
    params = len(info)
    k = params - (held is not None)
    total = n_tot * info[:k, :k]
    se, se_unstable = None, True
    cond = np.linalg.cond(total)
    if np.isfinite(cond) and cond < _SE_COND_LIMIT:
        var = np.diag(np.linalg.inv(total))
        if var.min() > 0.0:
            se = np.sqrt(var)
            se_unstable = False
    return FitResult(
        model=form.model_at(eta_hat),
        eta_hat=eta_hat,
        loglik=ll,
        iterations=iterations,
        converged=small,
        standard_errors=None if se is None else se[:d],
        se_unstable=se_unstable,
        aic=2.0 * params - 2.0 * ll,
        bic=params * math.log(n_tot) - 2.0 * ll,
        nuisance=name and (name, getattr(form, name)),
        boundary=held and (name, held),
        nuisance_se=None if se is None or k == d else float(se[d]),
    )


def fit_mle(template, sample, policy=DEFAULT_POLICY, max_iter=_MAX_ITER, grad_tol=_GRAD_TOL):
    """Newton MLE over the canonical coordinates of the template's family.

    template fixes the structure (kind, carrier shapes, perturbation points
    and family); its parameter values are ignored except as defaults.  A
    MixtureModel template of any variant is fitted in the coordinates of its
    type 1 law (MixtureModel.as_type1), so eta_hat is type 1 canonical, and
    the fitted law is mapped back to the variant (MixtureModel.from_type1).
    """
    return _newton(_start_form(template, sample, policy), sample, max_iter, grad_tol)


def _with_nuisance(doc, name, value, policy):
    """The model of document doc with its base's carrier shape name set to value."""
    base = dict(doc["base"], **{name: value})
    ## keep the placeholder lam admissible when the grid drops r below it
    if name == "r" and base["lambda"] >= value:
        base["lambda"] = value / 2.0
    return model_from_document(dict(doc, base=base), policy)


## How far past each end of its grid profile_fit lets the shape go.
_REACH = 4.0**8


def profile_fit(template, sample, grid, nuisance=None, policy=DEFAULT_POLICY, xtol=1e-4):
    """Maximize the likelihood over a carrier shape parameter (r or tau) as well.

    One damped Newton run over the canonical coordinates and log s, s the
    nuisance, from the mean-matched start at the grid's middle value, with s
    kept within [grid[0] / 4^8, grid[-1] * 4^8].  The returned s lies within
    xtol of the maximum, and nuisance_se and the standard errors come from the
    joint observed information.  If the maximum lies past an edge, s is held
    there, the coordinates are fitted at it, and the result has boundary =
    (nuisance, "lower" or "upper") and no nuisance_se.  A single-point grid
    reduces to fit_mle with the nuisance held fixed.  The shape counts as a
    parameter in aic and bic.
    """
    doc = template.to_document()
    if nuisance is None:
        nuisance = {"negative_binomial": "r", "hyper_poisson": "tau"}.get(doc["base"]["kind"])
    if nuisance not in ("r", "tau"):
        raise DomainError(f"nuisance must be 'r' or 'tau', got {nuisance!r}")
    grid = sorted(float(g) for g in grid)
    if not grid or any(not (math.isfinite(g) and g > 0.0) for g in grid):
        raise DomainError(f"grid must hold positive finite reals, got {grid}")
    if not (math.isfinite(xtol) and xtol >= 0.0):
        raise DomainError(f"xtol must be a non-negative finite real, got {xtol}")
    model = _with_nuisance(doc, nuisance, grid[len(grid) // 2], policy)
    if len(grid) > 1:
        box = (nuisance, math.log(grid[0] / _REACH), math.log(grid[-1] * _REACH), xtol)
        return _newton(_start_form(model, sample, policy), sample, _MAX_ITER, _GRAD_TOL, box)
    result = fit_mle(model, sample, policy)
    k = len(result.eta_hat) + 1
    return replace(
        result,
        nuisance=(nuisance, grid[0]),
        aic=2.0 * k - 2.0 * result.loglik,
        bic=k * math.log(sample.size) - 2.0 * result.loglik,
    )


def sample_counts(model, size, rng, policy=DEFAULT_POLICY):
    """Draw iid counts from any model by inversion of the cumulative PMF.

    The CDF is that of the model's support table; SeriesCapError is raised when
    the table does not settle within policy.max_terms.
    """
    size = _count(size, "size")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    _, log_p = support_table(lambda ns: model.logpmf(ns, policy), policy, support_floor(model))
    cdf = np.cumsum(np.exp(log_p))
    u = rng.random(size) * cdf[-1]
    return np.searchsorted(cdf, u, side="left")
