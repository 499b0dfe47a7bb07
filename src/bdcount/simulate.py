"""Gillespie simulation of birth-death chains as an independent check.

Any ratio sequence lambda_n admits many rate pairs with the same stationary
law; the canonical choices here are "linear" death (mu_n = n, so
gamma_n = (n+1) lambda_n) and "constant" death (mu_n = 1, gamma_n = lambda_n).
run_ctmc simulates the continuous-time chain from X(0) = 0 with exponential
holding times, discards a burn-in window, and accumulates time-weighted
occupancy over the sampling window.  The result carries up/down transition
counts per level (detailed balance makes their rates match at stationarity)
and enough metadata to reproduce the run exactly.

A guard aborts trajectories that wander past ten times the analytic
mean + 12 sd bound, which catches rate sequences without a stationary law
early instead of looping forever.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StateExplosionError
from .stationary import DEFAULT_POLICY, StationaryPMF, support_floor, support_table

_RNG_ALGORITHM = "numpy.random.default_rng/PCG64, chunked"
_CHUNK = 4096  # holding times and jump coins drawn per numpy call


@dataclass(frozen=True, eq=False)
class BirthDeathRates:
    """Birth and death rate functions of the level n.

    canonicalized_from records the ratio sequence the rates were derived
    from, when they were; scheme names the derivation.
    """

    birth: callable
    death: callable
    scheme: str = "custom"
    canonicalized_from: object | None = None


def canonical_rates(ratio, scheme="linear"):
    """Rates with stationary ratio sequence lambda_n, for a named scheme."""
    if scheme == "linear":
        birth = lambda n: (n + 1.0) * ratio.eval(n)
        death = lambda n: float(n)
    elif scheme == "constant":
        birth = lambda n: float(ratio.eval(n))
        death = lambda n: 1.0
    else:
        raise DomainError(f"scheme must be 'linear' or 'constant', got {scheme!r}")
    return BirthDeathRates(birth=birth, death=death, scheme=scheme, canonicalized_from=ratio)


@dataclass(frozen=True)
class SimConfig:
    """Simulation window control; times are in units of the rate functions."""

    seed: int
    sample_time: float
    burn_in_time: float | None = None
    thinning_interval: float = 1.0

    def __post_init__(self):
        if int(self.seed) != self.seed or self.seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {self.seed}")
        if not (math.isfinite(self.sample_time) and self.sample_time > 0.0):
            raise DomainError(f"sample_time must be positive, got {self.sample_time}")
        if self.burn_in_time is not None and not (
            math.isfinite(self.burn_in_time) and self.burn_in_time > 0.0
        ):
            raise DomainError(f"burn_in_time must be positive when given, got {self.burn_in_time}")
        if not (math.isfinite(self.thinning_interval) and self.thinning_interval > 0.0):
            raise DomainError(f"thinning_interval must be positive, got {self.thinning_interval}")


@dataclass
class SimResult:
    states: np.ndarray
    weights: np.ndarray
    up_crossings: np.ndarray
    down_crossings: np.ndarray
    trace: np.ndarray
    metadata: dict

    def occupancy(self):
        """Normalized time-weighted occupancy over the sampling window."""
        return self.weights / self.weights.sum()


def _ratio_of(rates):
    if rates.canonicalized_from is not None:
        return rates.canonicalized_from
    from .stationary import RatioSequence

    return RatioSequence(eval=lambda n: rates.birth(n) / rates.death(n + 1))


def run_ctmc(rates, config, policy=DEFAULT_POLICY, max_state=None):
    """Simulate the chain and return time-weighted occupancy after burn-in.

    The default burn-in is 50 units of the slowest low-level rate,
    50 / min(mu_1, gamma_0).  max_state overrides the guard bound (ten times
    the analytic mean + 12 sd range) and exists mainly to exercise the guard.
    Rates are evaluated once per level, when the path first reaches it
    (levels 0 and 1 up front); levels the path never reaches are not
    evaluated, so a bad rate there raises nothing.
    """
    ratio = _ratio_of(rates)
    target = StationaryPMF(ratio, policy)
    ns, log_p = support_table(target.logpmf, policy, support_floor(ratio))
    p = np.exp(log_p)
    mean = float(p @ ns)
    sd = math.sqrt(max(float(p @ (ns - mean) ** 2), 0.0))
    if max_state is None:
        max_state = max(int(math.ceil(10.0 * (mean + 12.0 * sd))), 16)

    up_rate, total_rate = [], []

    def tabulate(n):
        gamma = float(rates.birth(n))
        mu = float(rates.death(n)) if n > 0 else 0.0
        if (n < max_state and not gamma > 0.0) or (n > 0 and not mu > 0.0):
            raise DomainError(f"birth rates below max_state and death rates above 0 must be positive (level {n})")
        up_rate.append(gamma)
        total_rate.append(gamma + mu)
        return mu

    tabulate(0)
    mu_1 = tabulate(1)
    burn_in = config.burn_in_time
    if burn_in is None:
        burn_in = 50.0 / min(mu_1, up_rate[0])
    horizon = burn_in + config.sample_time

    rng = np.random.default_rng(config.seed)
    occupancy = [0.0] * (max_state + 1)
    ups, downs = [0] * (max_state + 1), [0] * (max_state + 1)
    trace = []
    next_snap = burn_in
    t, x = 0.0, 0
    i = _CHUNK  # draw a chunk at the first event
    while True:
        if i == _CHUNK:
            holds = rng.standard_exponential(_CHUNK).tolist()
            coins = rng.random(_CHUNK).tolist()
            i = 0
        total = total_rate[x]
        t_next = t + holds[i] / total
        t_end = t_next if t_next < horizon else horizon
        while next_snap < t_end:
            trace.append(x)
            next_snap += config.thinning_interval
        lo = t if t > burn_in else burn_in
        if t_end > lo:
            occupancy[x] += t_end - lo
        t = t_next
        if t >= horizon:
            break
        if coins[i] * total < up_rate[x]:
            if x == max_state:
                raise StateExplosionError(
                    f"trajectory reached state {x + 1} past the guard bound {max_state} "
                    f"at time {t:.3f}; the rates may admit no stationary law"
                )
            if t >= burn_in:
                ups[x] += 1
            x += 1
            if x == len(up_rate):
                tabulate(x)
        else:
            if t >= burn_in:
                downs[x] += 1
            x -= 1
        i += 1

    ups, downs = np.array(ups, dtype=float), np.array(downs, dtype=float)
    events = int(ups.sum() + downs.sum())
    ## up n -> n+1 and down n+1 -> n alternate along a path, so this is <= 1 / events
    residual = float(np.max(np.abs(ups[:-1] - downs[1:]), initial=0.0)) / max(events, 1)
    metadata = {
        "seed": int(config.seed),
        "burn_in_time": float(burn_in),
        "sample_time": float(config.sample_time),
        "thinning_interval": float(config.thinning_interval),
        "scheme": rates.scheme,
        "rng": _RNG_ALGORITHM,
        "max_state": int(max_state),
        "events": events,
        "detailed_balance_residual": residual,
    }
    return SimResult(
        states=np.arange(max_state + 1),
        weights=np.array(occupancy),
        up_crossings=ups,
        down_crossings=downs,
        trace=np.asarray(trace, dtype=int),
        metadata=metadata,
    )


def tv_distance(result, target_pmf, policy=DEFAULT_POLICY):
    """Total variation distance between sampled occupancy and an analytic PMF.

    target_pmf is either an object with a pmf method or a callable on arrays
    of states.  Probability mass beyond the simulated state range counts
    fully toward the distance.
    """
    occ = result.occupancy()
    states = result.states
    if hasattr(target_pmf, "pmf"):
        p = np.asarray(target_pmf.pmf(states))
    else:
        p = np.asarray(target_pmf(states))
    tail = max(0.0, 1.0 - float(p.sum()))
    return 0.5 * (float(np.abs(occ - p).sum()) + tail)
