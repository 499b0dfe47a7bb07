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

_RNG_ALGORITHM = "numpy.random.default_rng/PCG64"


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
    """
    ratio = _ratio_of(rates)
    target = StationaryPMF(ratio, policy)
    ns, log_p = support_table(target.logpmf, policy, support_floor(ratio))
    p = np.exp(log_p)
    mean = float(p @ ns)
    sd = math.sqrt(max(float(p @ (ns - mean) ** 2), 0.0))
    if max_state is None:
        max_state = max(int(math.ceil(10.0 * (mean + 12.0 * sd))), 16)

    gamma = np.array([float(rates.birth(n)) for n in range(max_state + 1)])
    mu = np.array([float(rates.death(n)) for n in range(max_state + 1)])
    if np.any(gamma[:-1] <= 0.0) or np.any(mu[1:] <= 0.0):
        raise DomainError("birth rates below max_state and death rates above 0 must be positive")

    burn_in = config.burn_in_time
    if burn_in is None:
        burn_in = 50.0 / min(mu[1], gamma[0])
    horizon = burn_in + config.sample_time

    rng = np.random.default_rng(config.seed)
    occupancy = np.zeros(max_state + 1)
    ups = np.zeros(max_state + 1)
    downs = np.zeros(max_state + 1)
    trace = []
    next_snap = burn_in
    t = 0.0
    x = 0
    while t < horizon:
        rate_up = gamma[x]
        rate_down = mu[x] if x > 0 else 0.0
        total = rate_up + rate_down
        dt = rng.exponential(1.0 / total)
        t_next = min(t + dt, horizon)
        while next_snap < t_next:
            trace.append(x)
            next_snap += config.thinning_interval
        lo = max(t, burn_in)
        if t_next > lo:
            occupancy[x] += t_next - lo
        t = t + dt
        if t >= horizon:
            break
        if rng.random() * total < rate_up:
            if x + 1 > max_state:
                raise StateExplosionError(
                    f"trajectory reached state {x + 1} past the guard bound {max_state} "
                    f"at time {t:.3f}; the rates may admit no stationary law"
                )
            if t >= burn_in:
                ups[x] += 1.0
            x += 1
        else:
            if t >= burn_in:
                downs[x] += 1.0
            x -= 1

    metadata = {
        "seed": int(config.seed),
        "burn_in_time": float(burn_in),
        "sample_time": float(config.sample_time),
        "thinning_interval": float(config.thinning_interval),
        "scheme": rates.scheme,
        "rng": _RNG_ALGORITHM,
        "max_state": int(max_state),
        "events": int(ups.sum() + downs.sum()),
    }
    return SimResult(
        states=np.arange(max_state + 1),
        weights=occupancy,
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
