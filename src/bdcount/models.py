"""Inflation-deflation count families and their equivalent mixture models.

Both families reweight a base PMF b(n, theta) at a finite set of support
points F = {n_0 < ... < n_m} by positive factors and renormalize:

    p(n) = f(n) * b(n) / z.

Type 1 perturbs each point individually, f(n) = alpha_i when n = n_i and 1
elsewhere, so z = 1 + sum_i (alpha_i - 1) b(n_i).  Type 2 applies each factor
to the whole lower tail, f(n) = prod over {i : n <= n_i} of phi_i, so f is a
step function constant on the blocks (n_{i-1}, n_i].  Factors above 1 inflate,
factors in (0, 1) deflate, and the modified birth-death ratios differ from the
base only at finitely many indices:

    lambda_n = f(n+1)/f(n) * lambda_n_base.

The same shapes arise from classical mixtures: a point-mass mixture
p(n) = omega_n + (1 - sum omega) b(n) on F (zero-inflation when F = {0}), the
hurdle model and the exponential-tilt zero-perturbation model.  The maps
between (alpha, theta) and (omega, theta) are bijective on the open
admissible region bounded by the mixing-mass line l1: 1 - sum omega = 0 and
the per-point lines l_{i+2}: omega_i + (1 - sum omega) b(n_i) = 0; these
names are used in the error messages.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SeriesCapError
from .stationary import (
    DEFAULT_POLICY,
    BaseDistribution,
    RatioSequence,
    SeriesPolicy,
    as_support,
    base_logpmf,
    base_log_ratio,
    base_pmf,
    base_ratio_sequence,
    support_scan,
)

FAMILIES = ("type1", "type2")
MIXTURE_VARIANTS = ("zero_inflated", "multiple_inflation", "hurdle", "haslett")


def _listed(name, values):
    """values, which must be a list or tuple: a scalar from a model document is a DomainError."""
    if not isinstance(values, (list, tuple)):
        raise DomainError(f"{name} must be a list, got {values!r}")
    return values


def _check_points(points):
    pts = tuple(int(p) for p in _listed("points", points))
    if len(pts) == 0:
        raise DomainError("points must be non-empty")
    if any(p < 0 for p in pts) or any(p != q for p, q in zip(pts, points)):
        raise DomainError(f"points must be non-negative integers, got {points}")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise DomainError(f"points must be strictly increasing, got {points}")
    return pts


@dataclass(frozen=True)
class InflationSpec:
    """Perturbation of a base law: family, support points, positive factors."""

    family: str
    points: tuple
    factors: tuple

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"family must be one of {FAMILIES}, got {self.family!r}")
        object.__setattr__(self, "points", _check_points(self.points))
        facs = tuple(float(a) for a in _listed("factors", self.factors))
        if len(facs) != len(self.points):
            raise DomainError(
                f"factors and points must have equal length, got {len(facs)} and {len(self.points)}"
            )
        if any(not (math.isfinite(a) and a > 0.0) for a in facs):
            raise DomainError(f"factors must be positive finite reals, got {self.factors}")
        object.__setattr__(self, "factors", facs)


def log_levels(family, log_factors):
    """log f on each perturbed level: the cell n_i (type 1) or the block n_{i-1} < n <= n_i (type 2).

    log_factors holds one row per point.  A type 2 block carries every factor
    whose point is at or above it, so its level is a suffix sum.
    """
    if family == "type1":
        return log_factors
    return np.cumsum(log_factors[::-1], axis=0)[::-1]


def level_cells(family, points):
    """The n covered by the perturbed levels, and the level that owns each."""
    pts = np.asarray(points, dtype=int)
    if family == "type1":
        return pts, np.arange(len(pts))
    ks = np.arange(pts[-1] + 1 if len(pts) else 0)
    return ks, np.searchsorted(pts, ks)


def log_weight_f(spec, n):
    """log f(n) for a perturbation spec; n may be a scalar or integer array."""
    ns = as_support(n)
    pts = np.asarray(spec.points)
    levels = log_levels(spec.family, np.log(np.asarray(spec.factors)))
    idx = np.searchsorted(pts, ns)
    if spec.family == "type1":
        safe = np.minimum(idx, len(pts) - 1)
        out = np.where((idx < len(pts)) & (pts[safe] == ns), levels[safe], 0.0)
    else:
        out = np.append(levels, 0.0)[idx]
    return float(out) if np.ndim(n) == 0 else out


## Least base mass off the perturbed levels (or normalizer z, in the closed
## moments) taken as 1 less the level masses; below it that difference would
## cancel, and a support scan sums the terms off the levels directly.
_Z_SUBTRACT = 1e-2


def off_levels(log_w, ks):
    """A support scan's log_w(ns, idx) with the level cells ks set to log 0."""

    def masked(ns, idx):
        out = log_w(ns, idx)
        out[:, ks[(ks >= ns[0]) & (ks <= ns[-1])] - ns[0]] = -np.inf
        return out

    return masked


def infdef_log_z(base, spec, policy=DEFAULT_POLICY):
    """log of z = sum_n f(n) b(n) = R0 + sum_i f_i S0_i, a finite correction.

    S0_i is the base mass on level i and R0 = 1 - sum_i S0_i the mass off the
    levels; where R0 < _Z_SUBTRACT, a support scan sums the terms off the levels.
    """
    ks, owner = level_cells(spec.family, spec.points)
    mass = np.bincount(owner, weights=base_pmf(base, ks, policy), minlength=len(spec.points))
    rest = 1.0 - float(mass.sum())
    if rest < _Z_SUBTRACT:
        log_w = off_levels(lambda ns, _: base_logpmf(base, ns, policy)[None, :], ks)
        top, log_rest, _, _ = support_scan(log_w, 1, policy)
        if top[0] < 0:
            raise SeriesCapError(f"support scan did not settle within max_terms={policy.max_terms}")
        rest = math.exp(log_rest[0])
    z = rest + float(np.exp(log_levels(spec.family, np.log(spec.factors))) @ mass)
    if not z > 0.0:
        raise ArithmeticError(f"perturbation normalizer must be positive, got {z}")
    return math.log(z)


@dataclass(frozen=True, eq=False)
class InfDefDistribution:
    """Inflated/deflated law p(n) = f(n) b(n) / z over a base distribution."""

    base: BaseDistribution
    spec: InflationSpec
    policy: SeriesPolicy = DEFAULT_POLICY

    @cached_property
    def log_z(self):
        return infdef_log_z(self.base, self.spec, self.policy)

    def logpmf(self, n, policy=None):
        """log PMF at n; policy is unused, the law keeps the one it was built with."""
        return log_weight_f(self.spec, n) + base_logpmf(self.base, n, self.policy) - self.log_z

    def pmf(self, n, policy=None):
        return np.exp(self.logpmf(n))

    def ratio_sequence(self, policy=None):
        """The modified birth-death ratios; they do not depend on policy."""
        hint = base_ratio_sequence(self.base).limit_hint
        return RatioSequence(
            log_eval=lambda n: modified_log_ratio(self, n), limit_hint=hint, probe_start=max(self.spec.points) + 1
        )

    def to_document(self):
        doc = self.base.to_document()
        doc.update(family=self.spec.family, points=list(self.spec.points), factors=list(self.spec.factors))
        return doc


def modified_log_ratio(dist, n):
    """log lambda_n of the perturbed law: log g(n) + log lambda_n of the base."""
    ns = as_support(n)
    out = log_weight_f(dist.spec, ns + 1) - log_weight_f(dist.spec, ns) + base_log_ratio(dist.base, ns)
    return float(out) if np.ndim(n) == 0 else out


def modified_ratio(dist, n):
    """lambda_n of the perturbed law, exp(modified_log_ratio)."""
    return np.exp(modified_log_ratio(dist, n))


@dataclass(frozen=True)
class MixtureModel:
    """Classical mixture/perturbation forms sharing base shapes.

    variant selects the parameterization: "zero_inflated" (omega at 0,
    possibly negative inside the deflation region), "multiple_inflation"
    (one omega per point in points), "hurdle" (pi = total mass at 0), or
    "haslett" (exponential tilt exp(psi) of the zero cell).
    """

    base: BaseDistribution
    variant: str
    points: tuple = (0,)
    omegas: tuple = ()
    pi: float | None = None
    psi: float | None = None

    def __post_init__(self):
        if self.variant not in MIXTURE_VARIANTS:
            raise DomainError(f"variant must be one of {MIXTURE_VARIANTS}, got {self.variant!r}")
        object.__setattr__(self, "points", _check_points(self.points))
        object.__setattr__(self, "omegas", tuple(float(w) for w in _listed("omegas", self.omegas)))
        own = {"hurdle": "pi", "haslett": "psi"}.get(self.variant, "omegas")
        for name, unset in (("omegas", ()), ("pi", None), ("psi", None)):
            if name != own and getattr(self, name) != unset:
                raise DomainError(f"{self.variant} does not take {name}, got {getattr(self, name)}")
        if self.variant != "multiple_inflation" and self.points != (0,):
            raise DomainError(f"{self.variant} perturbs the zero cell only; points must be (0,)")
        if own == "omegas":
            if len(self.omegas) != len(self.points):
                raise DomainError(
                    f"omegas and points must have equal length, got {len(self.omegas)} and {len(self.points)}"
                )
            if any(not math.isfinite(w) for w in self.omegas):
                raise DomainError(f"omegas must be finite reals, got {self.omegas}")
            if not 1.0 - sum(self.omegas) > 0.0:
                raise DomainError(
                    f"boundary l1 violated: 1 - sum(omegas) must be positive, got {1.0 - sum(self.omegas)}"
                )
        elif own == "pi" and (self.pi is None or not 0.0 < self.pi < 1.0):
            raise DomainError(f"hurdle requires 0 < pi < 1, got {self.pi}")
        elif own == "psi" and (self.psi is None or not math.isfinite(self.psi)):
            raise DomainError(f"haslett requires a finite psi, got {self.psi}")

    def logpmf(self, n, policy=DEFAULT_POLICY):
        """log PMF at n (a scalar or integer array); policy sums the base's series normalizer."""
        ns = as_support(n)
        log_b = base_logpmf(self.base, ns, policy)
        if self.variant == "hurdle":
            log_b0 = base_logpmf(self.base, 0, policy)
            out = np.where(ns == 0, math.log(self.pi), math.log1p(-self.pi) + log_b - math.log1p(-math.exp(log_b0)))
        elif self.variant == "haslett":
            log_norm = math.log1p(math.expm1(self.psi) * base_pmf(self.base, 0, policy))
            out = np.where(ns == 0, self.psi + log_b, log_b) - log_norm
        else:
            pts = np.asarray(self.points)
            log_cell = _log_cell_masses(self.points, self.omegas, base_logpmf(self.base, pts, policy))
            idx = np.searchsorted(pts, ns)
            safe = np.minimum(idx, len(pts) - 1)
            hit = (idx < len(pts)) & (pts[safe] == ns)
            out = np.where(hit, log_cell[safe], math.log(1.0 - sum(self.omegas)) + log_b)
        return float(out) if np.ndim(n) == 0 else out

    def pmf(self, n, policy=DEFAULT_POLICY):
        return np.exp(self.logpmf(n, policy))

    def as_type1(self, policy=DEFAULT_POLICY):
        """The type 1 law equal to this mixture, with one factor alpha_i per point.

        Point masses map by alpha_from_omega, the hurdle's zero mass by
        alpha = pi (1 - b0) / ((1 - pi) b0), and the tilt by alpha = e^psi.
        A hurdle whose alpha is no finite float (b0 underflows) raises DomainError.
        """
        if self.variant == "hurdle":
            log_b0 = base_logpmf(self.base, 0, policy)
            den = (1.0 - self.pi) * math.exp(log_b0)
            alpha = self.pi * -math.expm1(log_b0) / den if den > 0.0 else math.inf
            if not math.isfinite(alpha):
                raise DomainError(f"hurdle pi={self.pi} with log b(0)={log_b0:.6g} has no finite type 1 factor")
            alphas = (alpha,)
        elif self.variant == "haslett":
            alphas = (math.exp(self.psi),)
        else:
            alphas = alpha_from_omega(self.base, self.points, self.omegas, policy)
        return InfDefDistribution(self.base, InflationSpec("type1", self.points, alphas), policy)

    @classmethod
    def from_type1(cls, dist, variant):
        """The mixture of the given variant equal to the type 1 law dist (inverse of as_type1).

        Point masses come from omega_from_alpha, the hurdle's pi = alpha b0 / z
        is the law's mass at 0, and the tilt is psi = log alpha.
        """
        if variant == "hurdle":
            return cls(dist.base, variant, dist.spec.points, pi=float(dist.pmf(0)))
        if variant == "haslett":
            return cls(dist.base, variant, dist.spec.points, psi=math.log(dist.spec.factors[0]))
        return cls(dist.base, variant, dist.spec.points, omega_from_alpha(dist.base, dist.spec, dist.policy))

    def ratio_sequence(self, policy=DEFAULT_POLICY):
        """The ratios of the equal type 1 law; policy fixes its factors."""
        return self.as_type1(policy).ratio_sequence()

    def to_document(self):
        doc = {"family": "mixture", "variant": self.variant, "base": self.base.to_document()["base"]}
        if self.variant == "hurdle":
            doc["pi"] = self.pi
        elif self.variant == "haslett":
            doc["psi"] = self.psi
        else:
            doc.update(points=list(self.points), omegas=list(self.omegas))
        return doc


def _log_cell_masses(points, omegas, log_b):
    """log(omega_i + rest b(n_i)) at the points from log b there, rest = 1 - sum(omegas).

    A non-negative omega is added in log space, so a cell whose b underflows
    keeps its mass; a negative one in linear space, where the check of line
    l_{i+2} is exact, so the log takes the positive mass the check saw.
    """
    w, rest = np.asarray(omegas), 1.0 - sum(omegas)
    with np.errstate(divide="ignore"):
        lin = np.log(np.maximum(w + rest * np.exp(log_b), 0.0))
        out = np.where(w < 0.0, lin, np.logaddexp(np.log(np.maximum(w, 0.0)), math.log(rest) + log_b))
    for i in np.flatnonzero(np.isneginf(out)):
        raise DomainError(
            f"boundary l{i + 2} violated: omega + (1 - sum(omegas)) * b(n_i) must be "
            f"positive at point {points[i]}, got {w[i] + rest * math.exp(log_b[i])}"
        )
    return out


def omega_from_alpha(base, spec, policy=DEFAULT_POLICY):
    """Point masses omega of the mixture equal to a type 1 perturbation."""
    if spec.family != "type1":
        raise DomainError(f"the mixture map is defined for type1 specs, got {spec.family!r}")
    b_pts = base_pmf(base, np.asarray(spec.points), policy)
    z = math.exp(infdef_log_z(base, spec, policy))
    return tuple((a - 1.0) * b / z for a, b in zip(spec.factors, b_pts))


def alpha_from_omega(base, points, omegas, policy=DEFAULT_POLICY):
    """Type 1 factors alpha of the perturbation equal to a point-mass mixture."""
    mix = MixtureModel(base, "multiple_inflation", points, omegas)  # checks points, lengths and l1
    log_b = base_logpmf(base, np.asarray(mix.points), policy)
    log_rb = math.log(1.0 - sum(mix.omegas)) + log_b  # as _log_cell_masses forms it, so omega = 0 gives alpha = 1
    return tuple(np.exp(_log_cell_masses(mix.points, mix.omegas, log_b) - log_rb).tolist())


def psi_link(base, points, omegas, policy=DEFAULT_POLICY):
    """Log-scale factors psi_i = log(alpha_i) of the equivalent perturbation."""
    return tuple(math.log(a) for a in alpha_from_omega(base, points, omegas, policy))


def omega_from_psi(base, points, psi, policy=DEFAULT_POLICY):
    """Inverse of psi_link: point masses omega from log-scale factors."""
    pts = _check_points(points)
    psi = tuple(float(s) for s in psi)
    if len(psi) != len(pts):
        raise DomainError(f"psi and points must have equal length, got {len(psi)} and {len(pts)}")
    if any(not math.isfinite(s) for s in psi):
        raise DomainError(f"psi must be finite reals, got {psi}")
    spec = InflationSpec(family="type1", points=pts, factors=tuple(math.exp(s) for s in psi))
    return omega_from_alpha(base, spec, policy)


def model_pmf(model, n, policy=DEFAULT_POLICY):
    """PMF of any model: model.pmf(n, policy), exp of model.logpmf(n, policy).

    A BaseDistribution or MixtureModel sums its base's series normalizer under
    policy; an InfDefDistribution or StationaryPMF (a WeightedPMF is one)
    keeps the policy it was built with and ignores the argument.
    """
    return model.pmf(n, policy)


def model_ratio_sequence(model, policy=DEFAULT_POLICY):
    """Birth-death ratio sequence of any model: model.ratio_sequence(policy)."""
    return model.ratio_sequence(policy)


## JSON document field names are fixed by the command-line interface; each
## model's to_document writes them.

_BASE_PARAM_KEYS = {"lambda": "lam", "r": "r", "tau": "tau", "nu": "nu"}


def base_from_document(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DomainError("base document must be an object with a 'kind' field")
    extra = set(doc) - {"kind"} - set(_BASE_PARAM_KEYS)
    if extra:
        raise DomainError(f"unknown base parameter fields {sorted(extra)}")
    kwargs = {attr: doc[key] for key, attr in _BASE_PARAM_KEYS.items() if key in doc}
    if "lam" not in kwargs:
        raise DomainError("base document must carry a 'lambda' field")
    return BaseDistribution(kind=doc["kind"], **kwargs)


def model_from_document(doc, policy=DEFAULT_POLICY):
    """Build a model from {"family", "base", ...} with exact field names.

    family "base" takes just the base object; "type1"/"type2" add "points"
    and "factors"; "mixture" adds "variant" plus the variant's parameters
    ("points"/"omegas", "pi", or "psi"), all passed to one MixtureModel, whose
    checks reject a field the variant does not take.
    """
    if not isinstance(doc, dict):
        raise DomainError("model document must be a JSON object")
    family = doc.get("family")
    known = {"family", "base", "points", "factors", "variant", "omegas", "pi", "psi"}
    extra = set(doc) - known
    if extra:
        raise DomainError(f"unknown model fields {sorted(extra)}")
    base = base_from_document(doc.get("base"))
    if family == "base":
        return base
    if family in FAMILIES:
        if "points" not in doc or "factors" not in doc:
            raise DomainError(f"family {family!r} requires 'points' and 'factors'")
        spec = InflationSpec(family=family, points=doc["points"], factors=doc["factors"])
        return InfDefDistribution(base, spec, policy)
    if family == "mixture":
        return MixtureModel(
            base, doc.get("variant"), doc.get("points", (0,)), doc.get("omegas", ()), doc.get("pi"), doc.get("psi")
        )
    raise DomainError(f"unknown family {family!r}; expected 'base', 'type1', 'type2', or 'mixture'")

