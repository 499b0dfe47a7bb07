"""Gillespie simulation of birth-death chains as an independent check.

Any ratio sequence lambda_n admits many rate pairs with the same stationary
law; the canonical choices here are "linear" death (mu_n = n, so
gamma_n = (n+1) lambda_n) and "constant" death (mu_n = 1, gamma_n = lambda_n).
run_ctmc simulates the continuous-time chain from X(0) = 0 with exponential
holding times, discards a burn-in window, and accumulates time-weighted
occupancy over the sampling window.  The result carries up/down transition
counts per level (detailed balance makes their rates match at stationarity)
and enough metadata to reproduce the run exactly.

The event loop works a chunk of draws at a time: Python decides the jumps,
and numpy computes the jump times, occupancy, crossing counts and snapshots
of the whole chunk, adding in path order so that every value equals that of
a per-event loop.

A guard aborts trajectories that wander past ten times the analytic
mean + 12 sd bound, read from the support table of the stationary law, which
catches rate sequences without a stationary law early instead of looping
forever.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StateExplosionError
from .stationary import DEFAULT_POLICY, StationaryPMF

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


def _grid(first, step, stop):
    """first, first + step, ... summed one by one, up to the first value >= stop."""
    out = np.cumsum(np.concatenate(([first], np.full(int((stop - first) / step) + 1, step))))
    cut = int(np.searchsorted(out, stop))
    if cut == len(out):
        return np.concatenate([out[:-1], _grid(float(out[-1]), step, stop)])
    return out[: cut + 1]


def run_ctmc(rates, config, policy=DEFAULT_POLICY, max_state=None):
    """Simulate the chain and return time-weighted occupancy after burn-in.

    The default burn-in is 50 units of the slowest low-level rate,
    50 / min(mu_1, gamma_0).  max_state overrides the guard bound (ten times
    the analytic mean + 12 sd range, read from the support table of the
    stationary law), must be a non-negative integer, and exists mainly to
    exercise the guard.  Rates are evaluated once per level, when the path
    first reaches it before the horizon (levels 0 and 1 up front); levels the
    path never reaches are not evaluated, so a bad rate there raises nothing.

    Draws come in chunks of _CHUNK holding times and jump coins.  A Python
    loop decides each jump of a chunk from the coins alone; the jump times,
    occupancy, crossing counts and snapshots then come from numpy calls that
    add in the order of the path, so every value equals that of a per-event
    loop.  The jump times so far are computed whenever the path is about to
    reach an untabulated level (or pass max_state), so nothing past the
    horizon is evaluated or raised.
    """
    ratio = _ratio_of(rates)
    target = StationaryPMF(ratio, policy)
    if max_state is None:
        p, ns = np.exp(target.log_p), target.ns
        mean = float(p @ ns)
        sd = math.sqrt(max(float(p @ (ns - mean) ** 2), 0.0))
        max_state = max(int(math.ceil(10.0 * (mean + 12.0 * sd))), 16)
    elif not (isinstance(max_state, (int, np.integer)) and max_state >= 0):
        raise DomainError(f"max_state must be a non-negative integer, got {max_state!r}")

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
    thin = config.thinning_interval

    rng = np.random.default_rng(config.seed)
    occupancy = np.zeros(max_state + 1)
    crossings = np.zeros(2 * (max_state + 1), dtype=np.int64)  # 2n: down from n, 2n + 1: up from n
    trace = []
    next_snap = burn_in
    t, x = 0.0, 0

    def levels(rose):
        """Level held at each step of the chunk, and after its last jump: x plus the running sum of +-1."""
        return np.concatenate(([x], x + np.cumsum(2 * np.frombuffer(bytes(rose), np.int8) - 1)))

    def times(held):
        """Start time of each step held at the given levels, and the end of the last: t plus the running sum of holds."""
        return np.cumsum(np.concatenate(([t], holds[: len(held)] / np.array(total_rate)[held])))

    while True:
        holds = rng.standard_exponential(_CHUNK)
        coins = rng.random(_CHUNK).tolist()
        ## Coin i decides the jump that ends step i of the chunk: rose[i] is 1
        ## for an up-jump, 0 for a down-jump; y is the level after it.  An
        ## up-jump from level known needs a rate table entry or the guard.
        rose = bytearray()
        push, up, total, known, y = rose.append, up_rate, total_rate, min(len(up_rate) - 1, max_state), x
        for c in coins:
            if c * total[y] < up[y]:
                if y == known:
                    t_jump = float(times(levels(rose))[-1])
                    if t_jump >= horizon:
                        break
                    if y == max_state:
                        raise StateExplosionError(
                            f"trajectory reached state {y + 1} past the guard bound {max_state} "
                            f"at time {t_jump:.3f}; the rates may admit no stationary law"
                        )
                    tabulate(y + 1)
                    known += 1
                y += 1
                push(1)
            else:
                y -= 1
                push(0)
        path = levels(rose)
        ## A chunk cut short ends with a step whose jump was not decided.
        steps = min(len(path), _CHUNK)
        when = times(path[:steps])
        ## The step in which the horizon falls is the last; its jump is not made.
        last = int(np.searchsorted(when[1:], horizon))
        done = last < steps
        n = last + 1 if done else steps
        held, lo, end = path[:n], np.maximum(when[:n], burn_in), np.minimum(when[1 : n + 1], horizon)
        inside = end > lo
        np.add.at(occupancy, held[inside], (end - lo)[inside])
        jumps = n - done
        moves = 2 * held[:jumps] + (path[1 : jumps + 1] > held[:jumps])
        crossings += np.bincount(moves[when[1 : jumps + 1] >= burn_in], minlength=len(crossings))
        if next_snap < end[-1]:
            snaps = _grid(next_snap, thin, end[-1])
            trace.extend(held[np.searchsorted(end, snaps[:-1], side="right")].tolist())
            next_snap = float(snaps[-1])
        if done:
            break
        t, x = float(when[-1]), y

    downs, ups = crossings[0::2].astype(float), crossings[1::2].astype(float)
    events = int(ups.sum() + downs.sum())
    ## up n -> n+1 and down n+1 -> n alternate along a path, so this is <= 1 / events
    residual = float(np.max(np.abs(ups[:-1] - downs[1:]), initial=0.0)) / max(events, 1)
    metadata = {
        "seed": int(config.seed),
        "burn_in_time": float(burn_in),
        "sample_time": float(config.sample_time),
        "thinning_interval": float(thin),
        "scheme": rates.scheme,
        "rng": _RNG_ALGORITHM,
        "max_state": int(max_state),
        "events": events,
        "detailed_balance_residual": residual,
    }
    return SimResult(
        states=np.arange(max_state + 1),
        weights=occupancy,
        up_crossings=ups,
        down_crossings=downs,
        trace=np.asarray(trace, dtype=int),
        metadata=metadata,
    )


def tv_distance(result, target_pmf):
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
