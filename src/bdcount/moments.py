"""Moments, dispersion analysis, and equidispersion geometry.

Closed mean/variance corrections for the perturbed families: with base mean
and variance E_b, V_b and normalizer z, a type 1 model satisfies

    E[N] = E_b + z^-1 sum_i (alpha_i - 1) b(n_i) (n_i - E_b)
    V[N] = V_b - (E[N] - E_b)^2
           + z^-1 sum_i (alpha_i - 1) b(n_i) ((n_i - E_b)^2 - V_b)

and a type 2 model the same with (alpha_i - 1) b(n_i) replaced by
(prod_{j>=i} phi_j - 1) sum over the block n_{i-1} < k <= n_i of b(k).

Direct summation provides the full MomentSummary (including skewness,
kurtosis, and the central-band kurtosis contribution restricted to
|n - mean| <= sd).

A Poisson base perturbed at the single point q with

    phi = 1 + (lam - q) / sum_{k<q} (q - k) lam^k e^-lam / k!

has mean and variance both equal to q, which yields dispersion surfaces over
(lam, phi) grids and equidispersion contours in lam.

Dispersion direction is read off the sequence a_n = (n+1) lambda_n: increasing
means overdispersed, decreasing underdispersed, constant equidispersed.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SeriesCapError
from .models import (
    _Z_SUBTRACT,
    InfDefDistribution,
    InflationSpec,
    MixtureModel,
    level_cells,
    log_levels,
    off_levels,
)
from .stationary import (
    DEFAULT_POLICY,
    SERIES_KINDS,
    SHAPE_PARAM,
    SUPPORT_BLOCK,
    BaseDistribution,
    check_kind_shape,
    lam_upper,
    log_kernel,
    support_floor,
    support_scan,
    support_table,
)


@dataclass(frozen=True)
class MomentSummary:
    mean: float
    variance: float
    dispersion_index: float
    skewness: float
    kurtosis: float
    kurtosis_central_band: float


@dataclass(frozen=True)
class ClosedMoments:
    mean: float
    variance: float


## Rows evaluated together, so that a (rows, SUPPORT_BLOCK) float table stays
## near 1 MB; more level cells than SUPPORT_BLOCK take proportionally fewer rows.
_MAX_ROWS = 2048


def moments_direct(model, policy=DEFAULT_POLICY):
    """MomentSummary by direct summation over the (truncated) support."""
    ns, log_p = support_table(lambda ns: model.logpmf(ns, policy), policy, support_floor(model))
    ns = ns.astype(float)
    p = np.exp(log_p)
    mass = float(p.sum())
    p = p / mass
    mean = float(p @ ns)
    dev = ns - mean
    variance = float(p @ dev**2)
    sd = math.sqrt(variance)
    skewness = float(p @ dev**3) / sd**3
    kurtosis = float(p @ dev**4) / sd**4
    band = np.abs(dev) <= sd
    band_kurt = float(p[band] @ dev[band] ** 4) / sd**4
    return MomentSummary(
        mean=mean,
        variance=variance,
        dispersion_index=variance / mean,
        skewness=skewness,
        kurtosis=kurtosis,
        kurtosis_central_band=band_kurt,
    )


def _closed_moments(kind, lams, shape, family, points, log_f, policy):
    """Mean and variance of perturbed laws, rows lams x columns of log_f (m, cols).

    log_f holds log f on each cell n_i (type 1) or block n_{i-1} < k <= n_i
    (type 2).  With S_j the sums of b(k) (k - E_b)^j over each level and R_j
    over the other k, z = R_0 + f.S_0, mean = E_b + (R_1 + f.S_1) / z and
    var = (R_2 + f.S_2) / z - (mean - E_b)^2.  R_j are the base totals less
    the level sums, except on rows where some z < _Z_SUBTRACT: there a support
    scan sums the terms off the levels, so z has no cancellation.  Hyper-Poisson
    and CMP take E_b, V_b and their normalizer from one support scan per row; a
    row whose scan passes policy.max_terms is NaN.  The other laws have closed
    E_b, V_b; the Poisson-Lindley's are Sankaran's (1970) with theta = (1 - lam) / lam.
    """
    lam = lams[:, None]
    ks, owner = level_cells(family, points)
    onehot = (owner[:, None] == np.arange(len(points))).astype(float)
    log_b = log_kernel(kind, lam, ks, **shape)
    log_norm = np.zeros(len(lams))
    if kind in SERIES_KINDS:
        _, log_norm, center, v_b = support_scan(
            lambda ns, idx: log_kernel(kind, lam[idx], ns, **shape), len(lams), policy
        )
        log_b = log_b - log_norm[:, None]
    elif kind == "poisson":
        center, v_b = lams, lams
    elif kind == "poisson_lindley":
        center, v_b = lams * (1.0 + lams) / (1.0 - lams), lams * (1.0 + lams + lams**2 - lams**3) / (1.0 - lams) ** 2
    else:
        r = shape.get("r", 1.0)  # the geometric law is the negative binomial with r = 1
        p = lams / r
        center, v_b = r * p / (1.0 - p), r * p / (1.0 - p) ** 2

    b = np.exp(log_b)
    dev = ks - center[:, None]
    sums = np.concatenate([b, b * dev, b * dev * dev]).dot(onehot).reshape(3, len(lams), len(points))
    f = np.exp(log_f)
    rest = -sums.sum(axis=2)
    rest[0] += 1.0
    rest[2] += v_b
    ## sums[0] >= 0, so the least f per level bounds every column's z from below.
    idx = np.flatnonzero(rest[0] + sums[0].dot(np.min(f, axis=1, initial=np.inf)) < _Z_SUBTRACT)
    if idx.size:
        log_w = off_levels(lambda ns, sub: log_kernel(kind, lam[idx[sub]], ns, **shape), ks)
        _, log_r, mean_r, var_r = support_scan(log_w, idx.size, policy)
        mass, off = np.exp(log_r - log_norm[idx]), mean_r - center[idx]
        rest[:, idx] = mass, mass * off, mass * (var_r + off * off)
    ## dot, not @: numpy's matmul takes a slow path when len(points) is 1.
    z, s1, s2 = rest[:, :, None] + sums.reshape(3 * len(lams), len(points)).dot(f).reshape(3, len(lams), f.shape[1])
    shift = s1 / z
    return center[:, None] + shift, s2 / z - shift * shift


def moments_closed(model, policy=DEFAULT_POLICY):
    """Mean and variance via the finite perturbation corrections.

    A mixture takes the moments of its type 1 law (MixtureModel.as_type1).
    """
    if isinstance(model, MixtureModel):
        model = model.as_type1(policy)
    if not isinstance(model, (BaseDistribution, InfDefDistribution)):
        raise DomainError(f"moments_closed expects a base, perturbed or mixture model, got {type(model).__name__}")
    base, spec = (model.base, model.spec) if isinstance(model, InfDefDistribution) else (model, None)
    if spec is None:
        family, points, log_f = "type1", (), np.zeros((0, 1))
    else:
        family, points = spec.family, spec.points
        log_f = log_levels(family, np.log(spec.factors)[:, None])
    mean, var = _closed_moments(
        base.kind, np.array([base.lam]), _shape_kwargs(base.kind, base.r, base.tau, base.nu), family, points, log_f, policy
    )
    if np.isnan(mean[0, 0]):
        raise SeriesCapError(f"support scan did not settle within max_terms={policy.max_terms}")
    return ClosedMoments(float(mean[0, 0]), float(var[0, 0]))


def equidispersion_phi(lam, q):
    """Factor phi making a Poisson(lam) perturbed at the single point q equidispersed.

    The resulting law has mean and variance both equal to q.  The value is
    strictly positive (the denominator exceeds q - lam) but approaches 0 as
    lam does, so rounding can land on 0 for extreme inputs.  Raises DomainError
    unless q is an integer in [1, DEFAULT_POLICY.max_terms) and lam a positive
    finite real, and where phi overflows a float (lam past about 740 for q = 2).
    """
    q = _check_q(q, 1, DEFAULT_POLICY)
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"lam must be a positive finite real, got {lam}")
    ks = np.arange(q)
    ## denominator: sum_{k<q} (q - k) lam^k e^-lam / k!, which underflows to 0 for a large lam
    denom = float((q - ks) @ np.exp(log_kernel("poisson", lam, ks)))
    phi = 1.0 + (lam - q) / denom if denom > 0.0 else math.inf
    if math.isinf(phi):
        raise DomainError(f"phi overflows a float at lam={lam}, q={q}")
    return phi


def _check_q(q, least, policy):
    """q as an int if it is an integer in [least, policy.max_terms), else DomainError.

    No support table reaches a level at or past policy.max_terms.
    """
    if not (least <= q < policy.max_terms and int(q) == q):
        sign = "positive" if least else "non-negative"
        raise DomainError(f"q must be a {sign} integer below max_terms={policy.max_terms}, got {q}")
    return int(q)


def _shape_kwargs(kind, r, tau, nu):
    """The kind's own shape parameter as a keyword; DomainError for one it does not take."""
    given, name = {"r": r, "tau": tau, "nu": nu}, SHAPE_PARAM.get(kind)
    for other in [k for k, v in given.items() if v is not None and k != name]:
        raise DomainError(f"{kind} does not take parameter {other}")
    return {name: given[name]} if name else {}


def dispersion_surface(kind, q, lambda_grid, phi_grid, family="type2", r=None, tau=None, nu=None, policy=DEFAULT_POLICY):
    """Dispersion index over a (lam, phi) grid; inadmissible nodes are NaN.

    Returns an array of shape (len(lambda_grid), len(phi_grid)).  The lam-only
    work (base moments, cell sums) is done once per lam for the whole grid, and
    phi enters only through array arithmetic.  A q that is not an integer in
    [0, policy.max_terms), an unknown family or a shape parameter the kind does
    not take raises DomainError; an unknown kind or a bad value of the kind's
    own shape parameter gives an all-NaN grid.
    """
    q = _check_q(q, 0, policy)
    spec = InflationSpec(family=family, points=(q,), factors=(1.0,))
    lams = np.asarray(lambda_grid, dtype=float)
    phis = np.asarray(phi_grid, dtype=float)
    out = np.full((len(lams), len(phis)), np.nan)
    shape = _shape_kwargs(kind, r, tau, nu)
    try:
        check_kind_shape(kind, **shape)
    except DomainError:
        return out
    rows = np.flatnonzero(np.isfinite(lams) & (lams > 0.0) & (lams < lam_upper(kind, r)))
    cols = np.isfinite(phis) & (phis > 0.0)
    log_f = log_levels(family, np.log(np.where(cols, phis, 1.0))[None, :])
    cells = q + 1 if family == "type2" else 1  # the block 0..q, or the cell q
    step = max(1, _MAX_ROWS * SUPPORT_BLOCK // max(SUPPORT_BLOCK, cells))
    for lo in range(0, len(rows), step):
        idx = rows[lo : lo + step]
        mean, var = _closed_moments(kind, lams[idx], shape, family, spec.points, log_f, policy)
        out[idx] = var / mean
    out[:, ~cols] = np.nan
    return out


## Bisection levels resolved by each dispersion_surface call of a contour: an
## open bracket sends its 2**_TREE_DEPTH - 1 candidate midpoints at once.
_TREE_DEPTH = 5


@dataclass(frozen=True)
class ContourResult:
    roots: tuple
    degenerate: bool


def equidispersion_contour(
    kind,
    q,
    phi,
    lambda_lo,
    lambda_hi,
    family="type2",
    r=None,
    tau=None,
    nu=None,
    policy=DEFAULT_POLICY,
    subintervals=400,
    xtol=1e-6,
):
    """Roots in lam of dispersion_index(lam) = 1 at fixed phi.

    Scans subintervals for sign changes of index - 1, then bisects each
    bracket to xtol.  Each dispersion_surface call after the scan evaluates,
    for every open bracket, the _TREE_DEPTH levels of midpoints its bisection
    could visit next, each formed as (lo + hi) / 2; walking them with
    bisection's rules gives roots bit-identical to one call per step.  A
    bracket also stops where the index is undefined at its midpoint or the
    midpoint equals an end.  When the index is 1 everywhere on the scan (the
    phi = 1 Poisson line), returns degenerate=True and no roots.  Raises
    DomainError unless xtol is finite and positive, subintervals is a
    positive integer and q a non-negative integer, and for a shape parameter
    the kind does not take.
    """
    if not (0.0 < lambda_lo < lambda_hi < math.inf):
        raise DomainError(f"need 0 < lambda_lo < lambda_hi < inf, got ({lambda_lo}, {lambda_hi})")
    if not (0.0 < xtol < math.inf):
        raise DomainError(f"xtol must be a positive finite real, got {xtol}")
    if not (isinstance(subintervals, numbers.Integral) and subintervals > 0):
        raise DomainError(f"subintervals must be a positive integer, got {subintervals}")
    xs = np.linspace(lambda_lo, lambda_hi, subintervals + 1)

    def index_minus_one(lams):
        return dispersion_surface(kind, q, lams, [phi], family, r, tau, nu, policy)[:, 0] - 1.0

    vals = index_minus_one(xs)
    finite = vals[np.isfinite(vals)]
    if len(finite) > 0 and np.max(np.abs(finite)) < 1e-9:
        return ContourResult(roots=(), degenerate=True)
    fa, fb = vals[:-1], vals[1:]
    ok = np.isfinite(fa) & np.isfinite(fb)
    cross = ok & (fa * fb < 0.0)
    lo, hi, flo = xs[:-1][cross], xs[1:][cross], fa[cross]
    live = hi - lo > xtol
    while live.any():
        idx = np.flatnonzero(live)
        ## Each open bracket's midpoint subtree, level by level from the edges
        ## that bisection could reach; in this heap order node j's halves are
        ## nodes 2j + 1 and 2j + 2.
        edges, levels = np.stack([lo[idx], hi[idx]], axis=1), []
        for _ in range(_TREE_DEPTH):
            levels.append((edges[:, :-1] + edges[:, 1:]) / 2.0)
            edges = np.insert(edges, np.arange(1, edges.shape[1]), levels[-1], axis=1)
        mids = np.concatenate(levels, axis=1)
        fms = index_minus_one(mids.ravel()).reshape(mids.shape)
        node, rows = np.zeros(len(idx), dtype=np.intp), np.arange(len(idx))
        for _ in range(_TREE_DEPTH):
            mid, fm = mids[rows, node], fms[rows, node]
            step = live[idx] & np.isfinite(fm) & (lo[idx] < mid) & (mid < hi[idx])
            left = step & (flo[idx] * fm <= 0.0)
            right = step & ~left
            hi[idx[left]] = mid[left]
            lo[idx[right]], flo[idx[right]] = mid[right], fm[right]
            live[idx[~step]] = False
            live &= hi - lo > xtol
            node = 2 * node + 1 + right
    roots = sorted(xs[:-1][ok & (fa == 0.0)].tolist() + ((lo + hi) / 2.0).tolist())
    if np.isfinite(vals[-1]) and vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    dedup = []
    for root in roots:
        if not dedup or abs(root - dedup[-1]) > 10.0 * xtol:
            dedup.append(root)
    return ContourResult(roots=tuple(dedup), degenerate=False)


@dataclass(frozen=True)
class SequenceClass:
    verdict: str
    dispersion: str | None


def classify_sequence(model, horizon=200, tol=1e-9):
    """Monotonicity of a_n = (n+1) lambda_n and the implied dispersion direction."""
    ns = np.arange(horizon + 1)
    a = (ns + 1.0) * model.ratio_sequence().eval(ns)
    diffs = np.diff(a)
    scale = max(1.0, float(np.max(np.abs(a))))
    has_inc = bool(np.any(diffs > tol * scale))
    has_dec = bool(np.any(diffs < -tol * scale))
    if has_inc and has_dec:
        return SequenceClass(verdict="non_monotonic", dispersion=None)
    if has_inc:
        return SequenceClass(verdict="increasing", dispersion="overdispersed")
    if has_dec:
        return SequenceClass(verdict="decreasing", dispersion="underdispersed")
    return SequenceClass(verdict="constant", dispersion="equidispersed")
