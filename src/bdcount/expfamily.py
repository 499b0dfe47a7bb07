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

This module writes no family formula of its own: log h, its shape derivative,
the base part of A and the map between (lam, nu) and eta are stationary's
log_carrier, log_carrier_slope, log_norm and base_eta / base_from_eta, which
also give stationary.log_kernel its terms.

A is evaluated from eta alone, so the same CanonicalForm can be re-evaluated
along an optimizer path.  support_pass makes one support table of the
weights h(n) exp(T(n).eta) and reads from it A (the table's log mass) with its
gradient and Hessian (the mean and covariance of T(N)), so all three come from
one truncation.  T is built once, block by block as the table grows: the
blocks give the weights and then the mean and covariance.  Callers read the
gradient and Hessian of A as the pass's mean and cov, and its derivatives in a
carrier shape (r, tau) as moments of d log h(N) / d shape under its weights.
Passes are memoized per eta, so a derivative read at a fitted eta costs no
second pass.  CanonicalForm.A instead adds the base's log_norm (a closed form,
or the log mass of the base's own support table) to the perturbation's log z,
and agrees with the pass to the tables' tolerance.

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
from .models import InfDefDistribution, InflationSpec, MixtureModel
from .stationary import (
    DEFAULT_POLICY,
    BaseDistribution,
    StationaryPMF,
    as_support,
    base_eta,
    base_from_eta,
    log_carrier,
    log_carrier_slope,
    log_gamma,
    log_norm,
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
        out = log_carrier(self.kind, as_support(n), self.r, self.tau)
        return float(out) if np.ndim(n) == 0 else out

    def dlog_h(self, n, order=1):
        """Derivative of log h(n) in the carrier shape, r of a negative binomial or tau of a
        hyper-Poisson; the second derivative with order=2."""
        return log_carrier_slope(self.kind, n, self.r, self.tau, order)

    def T(self, n):
        """Sufficient statistic; shape (d,) for scalar n, (len(n), d) for arrays."""
        out = self.stat_rows(np.atleast_1d(as_support(n)))
        return out[0] if np.ndim(n) == 0 else out

    def stat_rows(self, ns):
        """T on a 1-d int array ns taken as valid, shape (len(ns), d); T validates, this does not."""
        out = np.empty((len(ns), self.dim))
        out[:, 0] = ns
        if self.kind == "cmp":
            out[:, 1] = log_gamma(1.0, ns)
        for j, p in enumerate(self.points, start=len(_BASE_SPACE[self.kind])):
            out[:, j] = ns == p if self.family == "type1" else ns <= p
        return out

    def base_at(self, eta):
        """The base law at eta; the carrier shapes are the form's."""
        return base_from_eta(self.kind, eta, self.r, self.tau)

    def _law_at(self, eta):
        """The base or type 1/2 law whose canonical coordinates are eta."""
        base = self.base_at(eta)
        if not self.points:
            return base
        factors = tuple(np.exp(eta[len(_BASE_SPACE[self.kind]) :]))
        return InfDefDistribution(base, InflationSpec(self.family, self.points, factors), self.policy)

    def model_at(self, eta=None):
        """Rebuild the distribution object whose canonical coordinates are eta."""
        law = self._law_at(self._check_eta(eta))
        return law if self.variant is None else MixtureModel.from_type1(law, self.variant)

    def A(self, eta=None):
        """Log-partition A(eta), finite on all of space."""
        law = self._law_at(self._check_eta(eta))
        return log_norm(law.base, self.policy) + law.log_z if self.points else log_norm(law, self.policy)

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
        base, points, family, factors, pol = model, (), None, (), policy or DEFAULT_POLICY
    elif isinstance(model, InfDefDistribution):
        base, spec, pol = model.base, model.spec, policy or model.policy
        points, family, factors = spec.points, spec.family, spec.factors
    else:
        raise DomainError(f"cannot canonicalize {type(model).__name__}")
    if base.kind not in _BASE_SPACE:
        raise UnsupportedFamilyError(
            "the Poisson-Lindley family admits no canonical exponential-family form"
        )
    eta = np.array(base_eta(base) + [math.log(a) for a in factors])
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


## Passes kept by the memo, for a derivative read at one of the latest few etas.
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
    stats = []  # T over each block of the table, kept for the mean and covariance

    ## ns is the table's own range, so the carrier and statistic skip as_support.
    def log_weights(ns):
        stats.append(cf.stat_rows(ns))
        return log_carrier(kind, ns, r, tau) + stats[-1] @ cf.eta

    ns, log_w = support_table(log_weights, policy, support_floor(cf))
    top = log_w.max()
    w = np.exp(log_w - top)
    mass = w.sum()
    w /= mass
    t_mat = np.concatenate(stats)[: len(ns)]
    mean = w @ t_mat
    dev = t_mat - mean
    cov = (dev * w[:, None]).T @ dev
    cov = (cov + cov.T) / 2.0
    for a in (mean, cov, w):
        a.flags.writeable = False
    return SupportPass(float(top + math.log(mass)), mean, cov, w)


def cumulant_identity_residual(cf, ratio, policy=None):
    """A(eta) - log h(0) - T(0).eta minus the log stationary normalizer.

    ratio must be the birth-death ratio sequence of the same model; the
    residual is zero (to series tolerance) for every family here.
    """
    policy = policy or cf.policy
    lhs = cf.A() - cf.log_h(0) - float(cf.T(0) @ cf.eta)
    return lhs - StationaryPMF(ratio, policy).log_z
