"""Stationary laws of birth-death processes on the non-negative integers.

A birth-death process with birth rates gamma_n and death rates mu_n is
summarised by the ratio sequence

    lambda_n = gamma_n / mu_{n+1},  n = 0, 1, 2, ...

A stationary distribution exists iff the series

    z = 1 + sum_{i >= 0} lambda_0 * lambda_1 * ... * lambda_i

is finite, in which case p_0 = 1/z and p_n = lambda_0 * ... * lambda_{n-1} * p_0.
Consequently lambda_n = p_{n+1}/p_n for every stationary law, and any positive
weighting w(n) of a base law b(n) is again stationary for the modified ratios
w(n+1)/w(n) * lambda_n.

This module provides the ratio sequences and closed-form PMFs of six base
families (geometric, Poisson, Poisson-Lindley, negative binomial,
hyper-Poisson, Conway-Maxwell-Poisson), the generic ratio-to-PMF construction,
a catalogue of relative weight functions between the families, and weighted
PMFs p(n) proportional to w(n) * b(n).

Each family's formulas are written here once, and the canonical form in
expfamily, the fitter and the moment surfaces read them: log b(n) is the
carrier log_carrier (the terms in n alone, the canonical log h) plus
n * log_rate(lam) less the normalizer (closed_log_norm in closed form, the
log mass of a support table for SERIES_KINDS), and base_eta / base_from_eta
map lam and nu to the natural coordinates and back.  Rising factorials come
from log_rising.

All series work is done in log space under a SeriesPolicy.  Sums over the
support (base normalizers, moments, cumulants, sampling tables) share one stop
rule, support_settled: support_scan applies it block by block to many laws at
once; support_table, which keeps one law's log weights, applies it in one
vectorized step over the table's blocks each time the table doubles.  Ratios
are held as log lambda_n, so a ratio that would underflow or overflow stays
finite.  The normalizer log_z of StationaryPMF (WeightedPMF among them) is
the log mass of a support table too: its log weights are the running sum of
the log ratios, evaluated a block at a time (one log_eval call per block) and
probed for divergence.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, DomainError, SeriesCapError

KINDS = (
    "geometric",
    "poisson",
    "poisson_lindley",
    "negative_binomial",
    "hyper_poisson",
    "cmp",
)
## The one extra shape parameter of each kind that takes one.
SHAPE_PARAM = {"negative_binomial": "r", "hyper_poisson": "tau", "cmp": "nu"}

## Width of the sliding window used to flag a divergent ratio sequence.
_PROBE_WINDOW = 64


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation control for all infinite series in the package.

    rel_tol bounds the relative tail mass left unsummed; max_terms is a hard
    cap on the number of terms inspected before giving up.
    """

    rel_tol: float = 1e-10
    max_terms: int = 100_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-6):
            raise DomainError(f"rel_tol must lie in (0, 1e-6], got {self.rel_tol}")
        if int(self.max_terms) != self.max_terms or self.max_terms < 1000:
            raise DomainError(f"max_terms must be an integer >= 1000, got {self.max_terms}")


DEFAULT_POLICY = SeriesPolicy()


@dataclass(frozen=True, eq=False)
class RatioSequence:
    """Ratio sequence n -> lambda_n = gamma_n / mu_{n+1} of a birth-death process, in log space.

    log_eval maps an integer array of n to log lambda_n, and a table
    evaluates each new block of n in one call.  A sequence known only by a
    per-n callable f of the linear ratio, such as one read off custom birth
    and death rates, is RatioSequence(eval=f): its log_eval calls f once per
    n and raises DomainError unless the ratio is a positive finite real.
    Either way eval(n) reads lambda_n as exp(log_eval(n)); an eval passed
    together with a log_eval is ignored.
    limit_hint, when known, is the limit of the sequence: a hint >= 1 marks the
    series divergent before any ratio is evaluated.  probe_start is the first
    index at which divergence probing is allowed and the least top of the
    support table; sequences whose first few ratios are perturbed (inflated or
    deflated) should set it past the perturbation.
    """

    log_eval: callable = None
    limit_hint: float | None = None
    probe_start: int = 0
    eval: callable = None

    def __post_init__(self):
        if self.limit_hint is not None and not math.isfinite(self.limit_hint):
            raise DomainError(f"limit_hint must be finite, got {self.limit_hint}")
        if self.probe_start < 0:
            raise DomainError(f"probe_start must be non-negative, got {self.probe_start}")
        if self.log_eval is None:
            if self.eval is None:
                raise DomainError("a ratio sequence needs log_eval or eval")
            object.__setattr__(self, "log_eval", functools.partial(_log_each, self.eval))
        log_eval = self.log_eval
        object.__setattr__(self, "eval", lambda n: np.exp(log_eval(n)))


def _log_each(f, ns):
    """log f(n) over the integers ns, one call per n; each f(n) must be a positive finite real."""
    lam = np.array([float(f(n)) for n in np.ravel(ns).tolist()])
    bad = ~((lam > 0.0) & np.isfinite(lam))
    if bad.any():
        i = int(bad.argmax())
        raise DomainError(f"ratio at index {np.ravel(ns)[i]} must be a positive finite real, got {lam[i]}")
    return np.log(lam).reshape(np.shape(ns))


class _LogPrefix:
    """log(lambda_0 * ... * lambda_{n-1}) over n = 0, 1, ..., grown block by block.

    Called on an integer array ns, the table grows to cover ns.max() with
    one log_eval call for the new block, then returns its values at ns; the
    values are the running sum of the log ratios in order, as a per-term loop
    would add them.  A log ratio that is not finite raises DomainError.  Each
    new block is probed for divergence: from probe_start on, 64 consecutive
    ratios >= 1 whose last is no smaller than its first end the series.
    """

    def __init__(self, ratio):
        self._ratio = ratio
        self.log_lam = np.empty(0)
        self.values = np.zeros(1)

    def __call__(self, ns):
        top = int(ns.max())
        if top >= len(self.values):
            lo = len(self.log_lam)
            new = np.asarray(self._ratio.log_eval(np.arange(lo, top)), dtype=float)
            bad = ~np.isfinite(new)
            if bad.any():
                i = int(bad.argmax())
                raise DomainError(f"log ratio at index {lo + i} must be finite, got {new[i]}")
            self.log_lam = np.concatenate([self.log_lam, new])
            self._probe(lo)
            self.values = np.concatenate([self.values, np.cumsum(np.concatenate(([self.values[-1]], new)))[1:]])
        return self.values[ns]

    def _probe(self, lo):
        start = max(self._ratio.probe_start, lo - _PROBE_WINDOW + 1)
        seg = self.log_lam[start:]
        if len(seg) < _PROBE_WINDOW:
            return
        below = np.concatenate(([0], np.cumsum(seg < 0.0)))
        ## windows seg[j - 63 : j + 1]: no ratio below 1, the last >= the first
        flat = below[_PROBE_WINDOW:] == below[:-_PROBE_WINDOW]
        rising = seg[_PROBE_WINDOW - 1 :] >= seg[: len(seg) - _PROBE_WINDOW + 1]
        hit = flat & rising
        if hit.any():
            end = start + _PROBE_WINDOW - 1 + int(hit.argmax())
            raise DivergenceError(
                f"ratios stayed >= 1 over {_PROBE_WINDOW} consecutive indices ending at {end}; "
                "the stationary series diverges"
            )

    def settle(self, policy, min_top=0):
        """support_table over the prefix: (ns, log prefix) of [0, top), and the log of the whole series.

        support_settled cuts where the last block holds < rel_tol of the mass;
        past it lies about that share / (SUPPORT_BLOCK (1 - lambda)), ~1.5e-9
        of the mass at a ratio limit of 0.999.  The log of the series is the
        table's log mass plus that tail, taken as the geometric series of the
        last ratio in the table.  A table that does not settle within
        policy.max_terms raises DivergenceError when its last log ratio is >= 0,
        else SeriesCapError.
        """
        try:
            ns, log_w = support_table(self, policy, min_top)
        except SeriesCapError:
            log_lam = float(self.log_lam[-1])
            if log_lam >= 0.0:
                raise DivergenceError(
                    f"series still growing after {policy.max_terms} terms (last log ratio {log_lam}); "
                    "treating it as divergent"
                ) from None
            raise SeriesCapError(
                f"series did not meet rel_tol={policy.rel_tol} within max_terms={policy.max_terms}"
            ) from None
        log_lam = self.log_lam[len(log_w) - 2]  # w(top - 1) / w(top - 2)
        log_tail = log_w[-1] + log_lam - math.log(-math.expm1(log_lam)) if log_lam < 0.0 else -math.inf
        return ns, log_w, float(np.logaddexp(_log_mass(log_w), log_tail))


def as_support(n):
    """Validate and convert support points to an int64 array."""
    ns = np.asarray(n)
    if ns.dtype.kind == "f":
        if np.any(ns != np.floor(ns)):
            raise DomainError("pmf support is the non-negative integers")
        ns = ns.astype(np.int64)
    elif ns.dtype.kind not in "iu":
        raise DomainError("pmf support is the non-negative integers")
    if np.any(ns < 0):
        raise DomainError("pmf support is the non-negative integers")
    return ns


## Block width of every support scan; cutoffs are multiples of it.
SUPPORT_BLOCK = 64
## Floor for log 0 in a scan (see support_scan).
_LOG_FLOOR = np.finfo(float).min


def support_settled(bmass, mass, mean, var, top, min_top, rel_tol):
    """The one stop rule for sums over the support, elementwise.

    A sum over [0, top) is settled when its last block's mass bmass is below
    rel_tol of its mass, top > mean + 12 sd and top > min_top.  support_scan
    applies it per block across rows, support_table across one table's blocks.
    """
    return (bmass < rel_tol * mass) & (top > mean + 12.0 * np.sqrt(var)) & (top > min_top)


def support_scan(log_w, rows, policy, min_top=0):
    """Block scan over n of `rows` laws at once, in log space.

    log_w(ns, idx) gives the unnormalized log weights of rows idx at the integer
    array ns, shape (len(idx), len(ns)).  Each row stops at the first block
    boundary where support_settled holds; the per-block cost is shared by every
    row.  Weights are shifted by each row's running maximum, and the mean and
    variance merged block by block, so no table over n is held.

    Returns top, log mass, mean and variance over [0, top) per row; a row that
    has not settled once start passes policy.max_terms gets top -1 and NaN.
    """
    top = np.full(rows, -1)
    res = np.full((3, rows), np.nan)  # log mass, mean, variance of settled rows
    act = np.arange(rows)
    ## Running state of the rows in act, compacted as rows settle.
    shift = np.full(rows, -np.inf)
    mass, mean, m2 = np.zeros(rows), np.zeros(rows), np.zeros(rows)
    start = 0
    while start <= policy.max_terms and act.size:
        ns = np.arange(start, start + SUPPORT_BLOCK)
        ## Flooring log 0 keeps the shift finite over leading zero-mass cells;
        ## their weights drop out once positive mass raises the shift.
        lw = np.maximum(log_w(ns, act), _LOG_FLOOR)
        new = np.maximum(shift, lw.max(axis=1))
        scale = np.exp(shift - new)
        w = np.exp(lw - new[:, None])
        bmass = w.sum(axis=1)
        bmean = np.divide(w @ ns, bmass, out=np.zeros_like(bmass), where=bmass > 0.0)
        bm2 = (w * (ns - bmean[:, None]) ** 2).sum(axis=1)
        old = mass * scale
        mass = old + bmass
        dev = bmean - mean
        mean = mean + dev * bmass / mass
        m2 = m2 * scale + bm2 + dev * dev * old * bmass / mass
        shift = new
        start += SUPPORT_BLOCK
        done = support_settled(bmass, mass, mean, m2 / mass, start, min_top, policy.rel_tol)
        if done.any():
            top[act[done]] = start
            res[:, act[done]] = shift[done] + np.log(mass[done]), mean[done], m2[done] / mass[done]
            keep = ~done
            act, shift, mass, mean, m2 = act[keep], shift[keep], mass[keep], mean[keep], m2[keep]
    return top, *res


def _first_settled(lw, lo, policy, min_top):
    """Least block boundary top > lo * SUPPORT_BLOCK of the table lw where support_settled holds, else -1.

    One vectorized step over all blocks of lw: the weights w are shifted by
    the table's maximum (floored as in support_scan, so a table of log 0 gives
    zero weights, not NaN), and the prefix mass, mean and variance at every
    boundary come from cumulative block sums of w, w d and w d^2, d = n less
    the table's argmax, which keeps the variance free of cancellation near the
    mode, where the cut falls.
    """
    peak = int(lw.argmax())
    d = np.arange(-peak, len(lw) - peak, dtype=float)
    terms = np.empty((3, len(lw)))
    np.exp(lw - max(lw[peak], _LOG_FLOOR), out=terms[0])
    np.multiply(terms[0], d, out=terms[1])
    np.multiply(terms[1], d, out=terms[2])
    sums = terms.reshape(3, -1, SUPPORT_BLOCK).sum(axis=2)
    mass, s1, s2 = np.cumsum(sums, axis=1)[:, lo:]
    ## Leading cells of zero weight give mass 0; the mass test fails there
    ## whatever the moments, so they only need to stay finite.
    safe = np.maximum(mass, np.finfo(float).tiny)
    mean = s1 / safe
    var = np.maximum(s2 / safe - mean * mean, 0.0)
    tops = SUPPORT_BLOCK * np.arange(lo + 1, lo + 1 + len(mass))
    done = support_settled(sums[0, lo:], mass, peak + mean, var, tops, min_top, policy.rel_tol)
    i = int(done.argmax())
    return int(tops[i]) if done[i] else -1


def support_table(log_w, policy, min_top=0):
    """Log weights of one law over its truncated support [0, top).

    log_w maps an integer array ns to unnormalized log weights.  The table
    starts at 2 * SUPPORT_BLOCK entries and doubles; after each growth,
    _first_settled cuts it at the first new block boundary where
    support_settled holds, the rule support_scan applies block by block, so
    top is where the scan stops on the same law; log_w is called O(log top)
    times and no n twice.  As in the scan, no block starting past
    policy.max_terms is examined.  Returns (ns, log_w(ns)); raises
    SeriesCapError when no boundary settles.
    """
    table = np.empty(0)
    blocks = policy.max_terms // SUPPORT_BLOCK + 1  # blocks the scan may examine
    seen = 0
    while seen < blocks:
        ext = np.arange(len(table), max(2 * len(table), 2 * SUPPORT_BLOCK))
        table = np.concatenate([table, np.asarray(log_w(ext), dtype=float)])
        now = min(len(table) // SUPPORT_BLOCK, blocks)
        top = _first_settled(table[: now * SUPPORT_BLOCK], seen, policy, min_top)
        if top > 0:
            return np.arange(top), table[:top]
        seen = now
    raise SeriesCapError(f"support scan did not settle within max_terms={policy.max_terms}")


def _log_mass(log_w):
    """log of sum(exp(log_w)), shifted by the largest entry."""
    top = log_w.max()
    return float(top + math.log(np.exp(log_w - top).sum()))


def support_floor(model):
    """Least top of a support table for model: one past every perturbed point.

    Reads the spec points of a perturbed law, or the points of a mixture or
    canonical form; a base law gives 0.  Without it a scan can stop in a
    zero-mass gap below a far point.
    """
    points = model.spec.points if hasattr(model, "spec") else getattr(model, "points", ())
    return max(points, default=-1) + 1


class StationaryPMF:
    """Stationary law built from a ratio sequence, in log space.

    Its log prefix log(lambda_0 * ... * lambda_{n-1}) is one table, grown a
    block of ratios at a time (see _LogPrefix).  support_table cuts it at the
    first boundary past probe_start where support_settled holds; ns and log_p
    are the cut table [0, top) and its log PMF, and log_z is its log mass with
    the geometric tail past top.  logpmf past the table extends the prefix.
    Building it raises DivergenceError when limit_hint >= 1 or the ratios
    stay >= 1 over a probe window, and SeriesCapError when max_terms runs out
    while they still look convergent.  Its logpmf, pmf and ratio_sequence take
    the policy argument of the other laws and ignore it: the law keeps its own.
    """

    def __init__(self, ratio, policy=DEFAULT_POLICY):
        if ratio.limit_hint is not None and ratio.limit_hint >= 1.0:
            raise DivergenceError(f"ratio sequence tends to {ratio.limit_hint} >= 1; the stationary series diverges")
        self.ratio = ratio
        self.policy = policy
        self._log_prefix = _LogPrefix(ratio)
        self.ns, log_w, self.log_z = self._log_prefix.settle(policy, ratio.probe_start)
        self.log_p = log_w - self.log_z

    def logpmf(self, n, policy=None):
        ns = as_support(n)
        out = self._log_prefix(ns) - self.log_z
        return float(out) if np.ndim(n) == 0 else out

    def pmf(self, n, policy=None):
        return np.exp(self.logpmf(n))

    def ratio_sequence(self, policy=None):
        return self.ratio


@dataclass(frozen=True)
class BaseDistribution:
    """One of the six base count families, identified by kind.

    lam is the rate/shape parameter shared by every family.  r (negative
    binomial), tau (hyper-Poisson) and nu (Conway-Maxwell-Poisson) are the
    extra shape parameters of their respective kinds and must be left None
    elsewhere.
    """

    kind: str
    lam: float
    r: float | None = None
    tau: float | None = None
    nu: float | None = None

    def __post_init__(self):
        check_kind_shape(self.kind, self.r, self.tau, self.nu)
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise DomainError(f"lam must be a positive finite real, got {self.lam}")
        if not self.lam < lam_upper(self.kind, self.r):
            if self.kind == "negative_binomial":
                raise DomainError(f"negative_binomial requires lam/r < 1, got lam={self.lam}, r={self.r}")
            raise DomainError(f"{self.kind} requires lam < 1, got {self.lam}")

    def logpmf(self, n, policy=DEFAULT_POLICY):
        """log PMF at n (a scalar or integer array); policy sums the series normalizers."""
        return base_logpmf(self, n, policy)

    def pmf(self, n, policy=DEFAULT_POLICY):
        return np.exp(self.logpmf(n, policy))

    def ratio_sequence(self, policy=DEFAULT_POLICY):
        """The birth-death ratios; they do not depend on policy."""
        return base_ratio_sequence(self)

    def to_document(self):
        """The JSON model document that models.model_from_document reads back."""
        doc = {"kind": self.kind, "lambda": self.lam}
        if self.kind in SHAPE_PARAM:
            doc[SHAPE_PARAM[self.kind]] = getattr(self, SHAPE_PARAM[self.kind])
        return {"family": "base", "base": doc}


def check_kind_shape(kind, r=None, tau=None, nu=None):
    """Raise DomainError unless kind is known and carries exactly its shape parameter."""
    if kind not in KINDS:
        raise DomainError(f"unknown base kind {kind!r}; expected one of {KINDS}")
    needed = SHAPE_PARAM.get(kind)
    for name, val in (("r", r), ("tau", tau), ("nu", nu)):
        if name == needed:
            if val is None or not (math.isfinite(val) and val > 0.0):
                raise DomainError(f"{kind} requires {name} > 0, got {val}")
        elif val is not None:
            raise DomainError(f"{kind} does not take parameter {name}")


def lam_upper(kind, r=None):
    """Supremum of the admissible lam, where the ratio limit lam / lam_upper reaches 1: 1, r or inf."""
    return {"geometric": 1.0, "poisson_lindley": 1.0, "negative_binomial": r}.get(kind, math.inf)


def base_log_ratio(base, n):
    """log lambda_n of a base family; n may be a scalar or integer array."""
    ns = np.asarray(n, dtype=float)
    lam = base.lam
    if base.kind == "geometric":
        out = np.log(np.full_like(ns, lam))
    elif base.kind == "poisson":
        out = np.log(lam / (ns + 1.0))
    elif base.kind == "poisson_lindley":
        out = np.log((1.0 + (ns + 2.0) * lam) * lam / (1.0 + (ns + 1.0) * lam))
    elif base.kind == "negative_binomial":
        out = np.log((ns / base.r + 1.0) * lam / (ns + 1.0))
    elif base.kind == "hyper_poisson":
        out = np.log(lam / (base.tau + ns))
    else:  # cmp, finite where (n + 1) ** nu overflows or its inverse underflows
        out = math.log(lam) - base.nu * np.log1p(ns)
    return float(out) if np.ndim(n) == 0 else out


def base_ratio(base, n):
    """lambda_n of a base family, exp(base_log_ratio); n may be a scalar or integer array."""
    return np.exp(base_log_ratio(base, n))


def base_ratio_sequence(base):
    """Base-family ratios packaged with their limit lam / lam_upper for series control."""
    hint = base.lam / lam_upper(base.kind, base.r)
    return RatioSequence(log_eval=functools.partial(base_log_ratio, base), limit_hint=hint)


## Entries kept by the normalizer memo; a fit re-evaluates only its latest
## few parameter sets, so a small bound keeps its hits and bounds memory.
_NORM_MEMO_SIZE = 1024

## Kinds whose normalizer is a series rather than a closed form.
SERIES_KINDS = ("hyper_poisson", "cmp")


@functools.lru_cache(maxsize=_NORM_MEMO_SIZE)
def _log_base_norm(base, policy):
    """log of the normalizer of a SERIES_KINDS base: the log mass of its support table over log_kernel."""
    _, log_w = support_table(lambda ns: log_kernel(base.kind, base.lam, ns, base.r, base.tau, base.nu), policy)
    return _log_mass(log_w)


## Spacing of the math.lgamma anchors in a log_gamma table.
_LGAMMA_ANCHOR = 64
## Most n that log_gamma sends to math.lgamma one by one instead of a table.
_LGAMMA_FEW = 16
## Entries of the longest log_gamma table (512 KB); n past it go to math.lgamma.
_LGAMMA_TABLE_MAX = 1 << 16
## Values of x whose log_gamma tables are kept; a profile fit visits a few dozen.
_LGAMMA_MEMO_SIZE = 128


@functools.lru_cache(maxsize=_LGAMMA_MEMO_SIZE)
def _lgamma_slot(x):
    """One-element list holding the log_gamma table of x, grown in place."""
    return [np.empty(0)]


def log_gamma(x, ns):
    """lgamma(x + n) for real x > 0 and integer-valued n >= 0.

    Every log-gamma of the package lies on such a lattice: n! at x = 1, and
    Gamma(r + n) / Gamma(r) at x = r.  A scalar n, or up to _LGAMMA_FEW of
    them, go to math.lgamma: building a table costs more for an x seen once,
    such as the shape parameter of one negative-binomial surface.  A longer
    array indexes a table of x, grown by doubling past twice the largest n
    asked for, so a support scan's doubling requests rebuild it rarely, and
    kept for the latest _LGAMMA_MEMO_SIZE values of x; n at or past
    _LGAMMA_TABLE_MAX go to math.lgamma one by one.  The path depends on the
    request alone, so a value never depends on what the cache holds.

    n is not checked here, on the hot path of every fit and scan: a negative
    n would index the table from its end.  Callers pass support scans' ranges
    or points validated by as_support.
    """
    if np.ndim(ns) == 0:
        return math.lgamma(x + ns)
    idx = np.asarray(ns).astype(np.intp, copy=False)
    if idx.size <= _LGAMMA_FEW:
        return np.array([math.lgamma(x + n) for n in idx.ravel().tolist()]).reshape(idx.shape)
    slot = _lgamma_slot(x)
    try:
        return slot[0][idx]
    except IndexError:
        top = int(idx.max())
        if top >= _LGAMMA_TABLE_MAX:
            far = idx >= _LGAMMA_TABLE_MAX
            out = log_gamma(x, np.where(far, 0, idx))
            out[far] = [math.lgamma(x + n) for n in idx[far].tolist()]
            return out
        ## The least _LGAMMA_ANCHOR * 2^k past 2 top, so the table at least doubles.
        lo, hi = len(slot[0]), min(_LGAMMA_ANCHOR << (2 * top // _LGAMMA_ANCHOR).bit_length(), _LGAMMA_TABLE_MAX)
        ## A math.lgamma anchor every _LGAMMA_ANCHOR n plus the running sum of
        ## log(x + n - 1) from it (log 1 = 0 at the anchor), summed before the
        ## anchor is added, so each value carries about one anchor-size rounding.
        steps = (x + np.arange(lo - 1, hi - 1, dtype=float)).reshape(-1, _LGAMMA_ANCHOR)
        steps[:, 0] = 1.0
        np.log(steps, out=steps)
        np.add.accumulate(steps, axis=1, out=steps)
        steps += np.array([math.lgamma(x + n) for n in range(lo, hi, _LGAMMA_ANCHOR)])[:, None]
        slot[0] = np.concatenate([slot[0], steps.ravel()])
        return slot[0][idx]


## Least x at which log_rising sums log1p(k / x) instead of differencing log-gammas.
_RISING_DIRECT_X = 1e3


def log_rising(x, ns):
    """log of the rising factorial (x)_n = Gamma(x + n) / Gamma(x), for real x > 0 and integers n >= 0.

    Below _RISING_DIRECT_X it is log_gamma(x, n) - lgamma(x), whose rounding of
    about eps x log x swamps a negative binomial's log kernel at large r, once
    n log r cancels there.  From _RISING_DIRECT_X on it is n log x + sum_{k<n}
    log1p(k / x), summed within blocks of _LGAMMA_ANCHOR and then over block
    totals; n past _LGAMMA_TABLE_MAX, where the terms in n dominate, keep the
    difference.
    """
    if x < _RISING_DIRECT_X:
        return log_gamma(x, ns) - math.lgamma(x)
    idx = np.asarray(ns).astype(np.intp, copy=False)
    near = np.minimum(idx, _LGAMMA_TABLE_MAX)
    rows = int(near.max(initial=0)) // _LGAMMA_ANCHOR + 1
    steps = np.log1p(np.arange(rows * _LGAMMA_ANCHOR) / x).reshape(rows, _LGAMMA_ANCHOR)
    np.add.accumulate(steps, axis=1, out=steps)
    steps[1:] += np.cumsum(steps[:-1, -1])[:, None]
    out = idx * math.log(x) + np.concatenate(([0.0], steps.ravel()))[near]
    far = idx > _LGAMMA_TABLE_MAX
    if far.any():
        out = np.where(far, log_gamma(x, np.where(far, idx, 0)) - math.lgamma(x), out)
    return float(out) if np.ndim(ns) == 0 else out


def log_rising_slope(x, ns):
    """d/dx [lgamma(x + n) - lgamma(x)] = sum_{k<n} 1/(x + k), for real x > 0 and integers n >= 0.

    A running sum over the lattice of log_gamma, so no digamma is needed.  It
    holds at most _LGAMMA_TABLE_MAX terms; past them the sum continues by
    Euler-Maclaurin, whose first omitted term is below 1e-20 there.
    """
    idx = np.asarray(ns).astype(np.intp, copy=False)
    top = min(int(idx.max(initial=0)), _LGAMMA_TABLE_MAX)
    run = np.concatenate(([0.0], np.cumsum(1.0 / (x + np.arange(top)))))
    out = run[np.minimum(idx, top)]
    far = idx > top
    if far.any():
        a, b = x + top, x + idx[far]
        out[far] += np.log(b / a) + (1.0 / a - 1.0 / b) / 2.0 + (1.0 / a**2 - 1.0 / b**2) / 12.0
    return out


def log_carrier(kind, ns, r=None, tau=None):
    """The terms of log b(n) in n alone, the canonical log h(n); 0 for the geometric,
    the Poisson-Lindley (whose term in n holds lam) and the CMP (whose log n! is a statistic)."""
    if kind == "poisson":
        return -log_gamma(1.0, ns)
    if kind == "negative_binomial":
        return log_rising(r, ns) - log_gamma(1.0, ns)
    if kind == "hyper_poisson":
        return -log_rising(tau, ns)
    return np.zeros(np.shape(ns))


def log_carrier_slope(kind, ns, r=None, tau=None):
    """Derivative of log_carrier in the carrier shape: r of a negative binomial, tau of a hyper-Poisson."""
    if kind == "negative_binomial":
        return log_rising_slope(r, ns)
    if kind == "hyper_poisson":
        return -log_rising_slope(tau, ns)
    raise DomainError(f"a {kind} carrier has no shape parameter")


def closed_log_norm(kind, lam, r=None):
    """log of the closed-form normalizer of kind, 0 for SERIES_KINDS; lam may be an array.
    The geometric law is the negative binomial with r = 1."""
    if kind == "poisson":
        return lam
    if kind == "poisson_lindley":
        return -2.0 * np.log1p(-lam)
    if kind in ("geometric", "negative_binomial"):
        return -(r or 1.0) * np.log1p(-lam / (r or 1.0))
    return 0.0


def log_norm(base, policy=DEFAULT_POLICY):
    """log of the normalizer of base: closed_log_norm, or for SERIES_KINDS the log mass of
    the base's support table, cut by support_settled and memoized per (base, policy)."""
    return _log_base_norm(base, policy) if base.kind in SERIES_KINDS else closed_log_norm(base.kind, base.lam, base.r)


def log_rate(lam, r=None):
    """eta_0 = log(lam / r), r = 1 but for the negative binomial; lam may be an array.

    np.log for floats too: math.log can differ from it by an ulp, and a surface
    node (an array of lam) must give the eta_0 of a single-lam call.
    """
    x = lam / (r or 1.0)
    return float(np.log(x)) if np.ndim(x) == 0 else np.log(x)


def base_eta(base):
    """The natural coordinates of base: eta_0 = log_rate, then eta_1 = -nu for the CMP."""
    return [log_rate(base.lam, base.r)] + ([-base.nu] if base.kind == "cmp" else [])


def base_from_eta(kind, eta, r=None, tau=None):
    """The base law of kind with carrier shapes r, tau whose natural coordinates begin eta (inverse of base_eta)."""
    return BaseDistribution(kind, (r or 1.0) * math.exp(eta[0]), r, tau, -eta[1] if kind == "cmp" else None)


def log_kernel(kind, lam, ns, r=None, tau=None, nu=None):
    """log b(n) of a base family, less the series normalizer of SERIES_KINDS.

    It is log_carrier + n log_rate - closed_log_norm, plus the Poisson-Lindley's
    term in n and lam or the CMP's -nu log n!.  lam is a float or an array
    broadcasting against the integer array ns (a column of lam gives one row per
    value); the terms in n alone are evaluated once on ns.
    """
    out = -closed_log_norm(kind, lam, r)
    if kind == "poisson_lindley":
        out = out + np.log(1.0 + lam + ns * lam)
    out = out + ns * log_rate(lam, r)
    terms = log_carrier(kind, ns, r, tau)
    return out + (terms - nu * log_gamma(1.0, ns) if kind == "cmp" else terms)


def base_logpmf(base, n, policy=DEFAULT_POLICY):
    """Closed-form log PMF of a base family; n may be a scalar or integer array."""
    out = log_kernel(base.kind, base.lam, as_support(n), base.r, base.tau, base.nu)
    if base.kind in SERIES_KINDS:
        out = out - _log_base_norm(base, policy)
    return float(out) if np.ndim(n) == 0 else out


def base_pmf(base, n, policy=DEFAULT_POLICY):
    return np.exp(base_logpmf(base, n, policy))


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """A positive weight n -> w(n) applied multiplicatively to a base PMF.

    log_eval is the primary representation; eval is derived from it.  The
    induced ratio modifier is g(n) = w(n+1)/w(n).
    """

    name: str
    log_eval: callable
    params: dict = field(default_factory=dict)

    def eval(self, n):
        return np.exp(self.log_eval(n))

    def log_g(self, n):
        ns = np.asarray(n, dtype=float)
        return self.log_eval(ns + 1.0) - self.log_eval(ns)

    def g(self, n):
        return np.exp(self.log_g(n))


def _need(params, name, target):
    val = params.get(name)
    if val is None or not (math.isfinite(val) and val > 0.0):
        raise DomainError(f"weight {target!r} requires parameter {name} > 0")
    return float(val)


def catalogue_weight(name, against="poisson", **params):
    """Relative weight w with target(n) proportional to w(n) * reference(n).

    name picks the target family: one of KINDS plus "weighted_poisson",
    "squared_exponential" (a Gaussian-damped Poisson) and "damped_cmp" (the
    same damping on a CMP body).  against picks the reference family and must
    be "geometric" or "poisson".  Shape parameters of the target (lam, r,
    tau, nu) are passed as keyword arguments.
    """
    if against not in ("geometric", "poisson"):
        raise DomainError(f"against must be 'geometric' or 'poisson', got {against!r}")

    ## log w against the Poisson reference, on float ns; the geometric
    ## reference is the Poisson one times n!, so its log w lacks log n!.
    if name == "geometric":
        body = lambda ns: log_gamma(1.0, ns)
    elif name == "poisson":
        body = np.zeros_like
    elif name == "poisson_lindley":
        lam = _need(params, "lam", name)
        body = lambda ns: np.log(1.0 + (ns + 1.0) * lam) + log_gamma(1.0, ns)
    elif name == "negative_binomial":
        r = _need(params, "r", name)
        body = lambda ns: log_rising(r, ns) - ns * math.log(r)
    elif name == "hyper_poisson":
        tau = _need(params, "tau", name)
        body = lambda ns: log_gamma(1.0, ns) - log_rising(tau, ns)
    elif name == "cmp":
        nu = _need(params, "nu", name)
        body = lambda ns: (1.0 - nu) * log_gamma(1.0, ns)
    elif name == "weighted_poisson":  # Poisson body tilted by (n + tau)^r
        r, tau = _need(params, "r", name), _need(params, "tau", name)
        body = lambda ns: r * np.log(ns + tau)
    elif name == "squared_exponential":  # Poisson body damped by exp(-n^2 tau)
        tau = _need(params, "tau", name)
        body = lambda ns: -(ns * ns) * tau
    elif name == "damped_cmp":  # CMP body damped by exp(-n^2 tau)
        tau, nu = _need(params, "tau", name), _need(params, "nu", name)
        body = lambda ns: -(ns * ns) * tau - (nu - 1.0) * log_gamma(1.0, ns)
    else:
        raise DomainError(f"unknown weight name {name!r}")

    def log_f(ns):
        ns = as_support(ns).astype(float)
        return body(ns) if against == "poisson" else body(ns) - log_gamma(1.0, ns)

    return WeightFunction(name=f"{name}/{against}", log_eval=log_f, params=dict(params))


class WeightedPMF(StationaryPMF):
    """Law p(n) proportional to w(n) * b(n): the stationary law of the ratios g(n) * lambda_n.

    The ratios are taken in log space, log g(n) + log lambda_n, so a steep
    damping weight does not underflow them.
    """

    def __init__(self, base, weight, policy=DEFAULT_POLICY):
        self.base = base
        self.weight = weight
        super().__init__(RatioSequence(log_eval=lambda ns: weight.log_g(ns) + base_log_ratio(base, ns)), policy)
