"""Canonical exponential-family form of the stationary count families.

Every family here can be written as

    q(n, eta) = h(n) * exp(T(n) . eta - A(eta)),

with carrier h, sufficient statistic T, natural parameter eta in an open box
E, and log-partition A.  The base families contribute one coordinate
(log lam; log(lam/r) for the negative binomial) plus a second coordinate
(-nu) for the Conway-Maxwell-Poisson.  Perturbing a base at points
F = {n_0, ..., n_m} appends one coordinate per point: log alpha_i with
indicator statistics 1{n = n_i} for type 1, log phi_i with lower-tail
statistics 1{n <= n_i} for type 2.  The Poisson-Lindley family admits no such
form (its log PMF has a log(1 + lam + n lam) term that is not linear in any
finite statistic) and is rejected.

A is evaluated from eta alone, so the same CanonicalForm can be re-evaluated
along an optimizer path.  support_pass makes one support table of the
weights h(n) exp(T(n).eta) and reads from it A (the table's log mass) with its
gradient and Hessian (the mean and covariance of T(N)), so all three come from
one truncation; cumulants, grad_A and hess_A read the pass, and so does
shape_mean, the derivative of A in a carrier shape (r, tau) at fixed eta, the
mean of d log h(N) / d shape.  Passes are memoized per eta, so a derivative read
at a fitted eta costs no second pass.  CanonicalForm.A sums the closed form or
the ratio series instead, and agrees with the pass to series tolerance.

For any of these laws the stationary construction gives the identity

    A(eta) - log h(0) - T(0) . eta = log(1 + sum_{i>=0} lambda_0*...*lambda_i),

which ties the log-partition to the birth-death normalizer and is exposed as
a residual for testing.
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UnsupportedFamilyError
from .models import InfDefDistribution, InflationSpec, MixtureModel, infdef_log_z
from .stationary import (
    DEFAULT_POLICY,
    BaseDistribution,
    _log_base_norm,
    as_support,
    log_gamma,
    log_ratio_series_sum,
    log_rising_slope,
    support_floor,
    support_table,
)

## Coordinates with an upper bound at 0 (open), per base kind.
_BASE_SPACE = {
    "geometric": ((-math.inf, 0.0),),
    "poisson": ((-math.inf, math.inf),),
    "negative_binomial": ((-math.inf, 0.0),),
    "hyper_poisson": ((-math.inf, math.inf),),
    "cmp": ((-math.inf, math.inf), (-math.inf, 0.0)),
}


def _space(kind, points):
    """Open box of eta: the base coordinates, then one free coordinate per perturbed point."""
    return _BASE_SPACE[kind] + ((-math.inf, math.inf),) * len(points)


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Exponential-family representation q(n, eta) = h(n) exp(T(n).eta - A(eta)).

    kind/r/tau fix the carrier; points/family describe an optional
    perturbation block appended to the statistic.  eta holds the canonical
    coordinates of the model the form was built from; every method accepts an
    alternative eta inside space.  variant names the mixture variant that
    model_at maps back to, or None.
    """

    kind: str
    eta: np.ndarray
    space: tuple
    policy: object
    r: float | None = None
    tau: float | None = None
    points: tuple = ()
    family: str | None = None
    variant: str | None = None

    @property
    def dim(self):
        return len(self.space)

    def _check_eta(self, eta):
        eta = self.eta if eta is None else np.asarray(eta, dtype=float)
        if eta.shape != (self.dim,):
            raise DomainError(f"eta must have shape ({self.dim},), got {eta.shape}")
        for j, (lo, hi) in enumerate(self.space):
            if not (lo < eta[j] < hi):
                raise DomainError(f"eta[{j}]={eta[j]} outside the open interval ({lo}, {hi})")
        return eta

    def log_h(self, n):
        ns = as_support(n).astype(float)
        if self.kind in ("geometric", "cmp"):
            out = np.zeros_like(ns)
        elif self.kind == "poisson":
            out = -log_gamma(1.0, ns)
        elif self.kind == "negative_binomial":
            out = log_gamma(self.r, ns) - math.lgamma(self.r) - log_gamma(1.0, ns)
        else:  # hyper_poisson
            out = -(log_gamma(self.tau, ns) - math.lgamma(self.tau))
        return float(out) if np.ndim(n) == 0 else out

    def h(self, n):
        return np.exp(self.log_h(n))

    def dlog_h(self, n):
        """Derivative of log h(n) in the carrier shape: r of a negative binomial, tau of a hyper-Poisson."""
        if self.kind == "negative_binomial":
            return log_rising_slope(self.r, n)
        if self.kind == "hyper_poisson":
            return -log_rising_slope(self.tau, n)
        raise DomainError(f"a {self.kind} carrier has no shape parameter")

    def T(self, n):
        """Sufficient statistic; shape (d,) for scalar n, (len(n), d) for arrays."""
        flat = np.atleast_1d(as_support(n))
        out = np.empty((len(flat), self.dim))
        out[:, 0] = flat
        if self.kind == "cmp":
            out[:, 1] = log_gamma(1.0, flat)
        for j, p in enumerate(self.points, start=len(_BASE_SPACE[self.kind])):
            out[:, j] = flat == p if self.family == "type1" else flat <= p
        return out[0] if np.ndim(n) == 0 else out

    def base_at(self, eta):
        """The base law at eta; the carrier shapes are the form's."""
        if self.kind == "geometric":
            return BaseDistribution(kind="geometric", lam=math.exp(eta[0]))
        if self.kind == "poisson":
            return BaseDistribution(kind="poisson", lam=math.exp(eta[0]))
        if self.kind == "negative_binomial":
            return BaseDistribution(kind="negative_binomial", lam=self.r * math.exp(eta[0]), r=self.r)
        if self.kind == "hyper_poisson":
            return BaseDistribution(kind="hyper_poisson", lam=math.exp(eta[0]), tau=self.tau)
        return BaseDistribution(kind="cmp", lam=math.exp(eta[0]), nu=-eta[1])

    def model_at(self, eta=None):
        """Rebuild the distribution object whose canonical coordinates are eta."""
        eta = self._check_eta(eta)
        base = self.base_at(eta)
        if not self.points:
            return base
        k = len(_BASE_SPACE[self.kind])
        spec = InflationSpec(
            family=self.family,
            points=self.points,
            factors=tuple(np.exp(eta[k:])),
        )
        dist = InfDefDistribution(base, spec, self.policy)
        return dist if self.variant is None else MixtureModel.from_type1(dist, self.variant)

    def A(self, eta=None):
        """Log-partition A(eta), finite on all of space."""
        eta = self._check_eta(eta)
        if self.kind == "geometric":
            out = -math.log1p(-math.exp(eta[0]))
        elif self.kind == "poisson":
            out = math.exp(eta[0])
        elif self.kind == "negative_binomial":
            out = -self.r * math.log1p(-math.exp(eta[0]))
        else:
            out = _log_base_norm(self.base_at(eta), self.policy)
        if self.points:
            k = len(_BASE_SPACE[self.kind])
            spec = InflationSpec(
                family=self.family, points=self.points, factors=tuple(np.exp(eta[k:]))
            )
            out += infdef_log_z(self.base_at(eta), spec, self.policy)
        return out

    def logpmf(self, n, eta=None):
        eta = self._check_eta(eta)
        out = self.log_h(n) + self.T(n) @ eta - self.A(eta)
        return float(out) if np.ndim(n) == 0 else out


def canonicalize(model, policy=None):
    """Canonical form of a base, perturbed or mixture model; Poisson-Lindley is rejected.

    A mixture takes the coordinates of its type 1 law (MixtureModel.as_type1),
    and the form's model_at maps back to its variant (MixtureModel.from_type1).
    """
    if isinstance(model, MixtureModel):
        return replace(canonicalize(model.as_type1(policy or DEFAULT_POLICY)), variant=model.variant)
    if isinstance(model, BaseDistribution):
        base, points, family, pol = model, (), None, policy or DEFAULT_POLICY
        factors = ()
    elif isinstance(model, InfDefDistribution):
        base, points, family = model.base, model.spec.points, model.spec.family
        factors = model.spec.factors
        pol = policy or model.policy
    else:
        raise DomainError(f"cannot canonicalize {type(model).__name__}")
    if base.kind == "poisson_lindley":
        raise UnsupportedFamilyError(
            "the Poisson-Lindley family admits no canonical exponential-family form"
        )
    if base.kind == "negative_binomial":
        eta_base = [math.log(base.lam / base.r)]
    else:
        eta_base = [math.log(base.lam)]
    if base.kind == "cmp":
        eta_base.append(-base.nu)
    eta = np.array(eta_base + [math.log(a) for a in factors])
    return CanonicalForm(
        kind=base.kind,
        eta=eta,
        space=_space(base.kind, points),
        policy=pol,
        r=base.r,
        tau=base.tau,
        points=points,
        family=family,
    )


class SupportPass(NamedTuple):
    """One support table of the weights h(n) exp(T(n).eta), n = 0 .. len(weights) - 1.

    log_mass is A(eta) up to the table's truncation; mean and cov are the
    mean and covariance of T(N), the gradient and Hessian of that same
    log_mass; weights are the table normalized by its mass.  The arrays are
    read-only, as a pass may be shared through the memo.
    """

    log_mass: float
    mean: np.ndarray
    cov: np.ndarray
    weights: np.ndarray


## Passes kept by the memo: a profile fit reads the last pass of one of its
## latest few inner fits (the best of a grid fitted before its neighbours).
_PASS_MEMO_SIZE = 32


def support_pass(cf, eta=None):
    """The SupportPass of cf at eta, the one sum over the support behind A and its derivatives.

    Passes are memoized on the carrier, the perturbation structure, the
    policy and the bytes of eta, so a derivative read at a fitted eta reuses
    the fitter's last pass.  Raises SeriesCapError when the table does not
    settle within policy.max_terms.
    """
    eta = cf._check_eta(eta)
    return _memo_pass(cf.kind, cf.r, cf.tau, cf.points, cf.family, cf.policy, eta.tobytes())


@functools.lru_cache(maxsize=_PASS_MEMO_SIZE)
def _memo_pass(kind, r, tau, points, family, policy, eta_bytes):
    """support_pass on the hashable fields of a canonical form."""
    cf = CanonicalForm(kind, np.frombuffer(eta_bytes), _space(kind, points), policy, r, tau, points, family)
    ns, log_w = support_table(lambda ns: cf.log_h(ns) + cf.T(ns) @ cf.eta, policy, support_floor(cf))
    top = log_w.max()
    w = np.exp(log_w - top)
    mass = w.sum()
    w /= mass
    t_mat = cf.T(ns)
    mean = w @ t_mat
    dev = t_mat - mean
    cov = (dev * w[:, None]).T @ dev
    cov = (cov + cov.T) / 2.0
    for a in (mean, cov, w):
        a.flags.writeable = False
    return SupportPass(float(top + math.log(mass)), mean, cov, w)


def cumulants(cf, eta=None):
    """Mean and covariance of T(N) at eta: the gradient and Hessian of A.

    Read from support_pass; the covariance is symmetric PSD.
    """
    res = support_pass(cf, eta)
    return res.mean, res.cov


def shape_mean(cf, eta=None):
    """E[d log h(N) / d shape] at eta: the derivative of A in the carrier shape at fixed eta."""
    w = support_pass(cf, eta).weights
    return float(w @ cf.dlog_h(np.arange(len(w))))


def grad_A(cf, eta=None):
    """Gradient of A at eta: the mean of T(N)."""
    return cumulants(cf, eta)[0]


def hess_A(cf, eta=None):
    """Hessian of A at eta: the covariance of T(N); symmetric PSD."""
    return cumulants(cf, eta)[1]


def cumulant_identity_residual(cf, ratio, policy=None):
    """A(eta) - log h(0) - T(0).eta minus the log stationary normalizer.

    ratio must be the birth-death ratio sequence of the same model; the
    residual is zero (to series tolerance) for every family here.
    """
    policy = policy or cf.policy
    lhs = cf.A() - cf.log_h(0) - float(cf.T(0) @ cf.eta)
    rhs = log_ratio_series_sum(ratio, policy)
    return lhs - rhs
