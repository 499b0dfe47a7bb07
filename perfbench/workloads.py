"""Seeded inputs, timed operations and output checks of the four workloads.

Every input (frequency tables, grids, model parameters, CSV files) is made
here with numpy and the stdlib from the seed, never with bdcount's own
samplers, so a change to the library cannot change what is measured.

A workload runs in rounds.  A round holds one operation of each template in
a fixed order; the parameters of round k come from a Kronecker sequence
u_k = frac(offset + k * alpha) with a seeded offset.  Every operation thus
gets fresh parameters (identical inputs would measure the library's
normalizer memo, not its engine), while every run covers the parameter
ranges evenly, so runs with different seeds do the same mix of work.
"""

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import namedtuple

import numpy as np

from child import FIT_MI_POINTS, FIT_QS, fit_templates, sim_model

# work: units counted by the throughput metric; busy_s: time they took;
# latency_s: one sample of the latency metrics (None for none); wall_s: the
# whole operation, used for the tracing overhead; group: the op's template
# (fit: the template's index and whether a Newton run in the job stalled).
Timing = namedtuple("Timing", "work busy_s latency_s wall_s group")

Size = namedtuple("Size", "setup_reps grid_lams grid_phis contour_subintervals sim_events sim_draws cli_rows cli_grid")
FULL = Size(5, 60, 40, 400, 20_000, 20_000, 100_000, (20, 10))
SMOKE = Size(1, 8, 5, 40, 2_000, 2_000, 1_000, (4, 3))

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


class OpFailed(Exception):
    """The operation did not complete: a command that exited with an error."""


class WrongResult(OpFailed):
    """The operation completed with an output that fails its independent check."""


def work_rate(timings):
    """Work units per second of busy time."""
    return sum(t.work for t in timings) / sum(t.busy_s for t in timings)


class Stream:
    """Points of a Kronecker sequence in [0, 1)^dims with a seeded offset."""

    def __init__(self, seed, tag, dims=8):
        self.offset = np.random.default_rng([seed, tag]).random(dims)
        self.alpha = np.sqrt(np.asarray(_PRIMES[:dims], dtype=float)) % 1.0

    def __call__(self, k):
        return (self.offset + k * self.alpha) % 1.0


def lin(u, lo, hi):
    return float(lo + (hi - lo) * u)


def logu(u, lo, hi):
    return float(math.exp(lin(u, math.log(lo), math.log(hi))))


def pick(u, seq):
    return seq[min(int(u * len(seq)), len(seq) - 1)]


def ref_logpmf(kind, lam, top=4000, r=None, tau=None, nu=None, family=None, points=(), factors=()):
    """log PMF on 0..top-1 from the family's birth-death ratios, by numpy alone."""
    n = np.arange(top - 1, dtype=float)
    if kind == "poisson":
        lr = math.log(lam) - np.log1p(n)
    elif kind == "geometric":
        lr = np.full_like(n, math.log(lam))
    elif kind == "negative_binomial":
        lr = math.log(lam) + np.log1p(n / r) - np.log1p(n)
    elif kind == "hyper_poisson":
        lr = math.log(lam) - np.log(tau + n)
    else:  # cmp
        lr = math.log(lam) - nu * np.log1p(n)
    lp = np.concatenate([[0.0], np.cumsum(lr)])
    for p, f in zip(points, factors):
        if family == "type1":
            lp[p] += math.log(f)
        else:  # type2: the factor applies to the whole block n <= p
            lp[: p + 1] += math.log(f)
    top_val = lp.max()
    lp -= top_val + math.log(np.exp(lp - top_val).sum())
    if lp[-1] > -40.0:
        raise ValueError(f"reference support too short for {kind} lam={lam}")
    return lp


def ref_mixture(lp_base, points, omegas):
    p = (1.0 - sum(omegas)) * np.exp(lp_base)
    for pt, w in zip(points, omegas):
        p[pt] += w
    return p


def draw_table(rng, p, size):
    counts = rng.multinomial(size, p / p.sum())
    nz = np.flatnonzero(counts)
    return {int(v): int(counts[v]) for v in nz}


def dispersion_of(bd, model):
    summ = bd.moments_direct(model)
    return summ.variance / summ.mean


class FitWorkload:
    """MLE jobs on frequency tables of 1e3 to 1e6 observations."""

    name = "fit"
    label = "fit_jobs_per_s"
    latency_label = "fit"
    TEMPLATES = ("poisson", "geometric", "poisson_t2", "cmp_t1", "nb_profile", "hp_profile", "zip", "mi")
    # Profile grids: three points around the true shape, which is never a grid point.
    PROFILE_GRID = (0.6, 1.2, 2.4)
    MIN_CELL = 30.0  # expected observations at each perturbed point or block
    RSS_ROUNDS = 50

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size
        self.streams = [Stream(seed, 100 + j) for j in range(len(self.TEMPLATES))]
        self.unconverged = 0

    def setup_doc(self):
        return {}

    def prepare(self, bd):
        import bdcount.fit

        self.bd = bd
        self.templates = fit_templates(bd)
        # profile_fit and the mixture path call fit_mle through this module.
        self.fit_module = bdcount.fit

    def _job(self, j, k):
        u = self.streams[j](k)
        name = self.TEMPLATES[j]
        size = logu(u[1], 1e3, 1e6)
        cells = None
        grid = None
        if name == "poisson":
            p, key = np.exp(ref_logpmf("poisson", logu(u[0], 0.5, 30.0))), "poisson"
        elif name == "geometric":
            p, key = np.exp(ref_logpmf("geometric", lin(u[0], 0.1, 0.95))), "geometric"
        elif name == "poisson_t2":
            q = pick(u[2], FIT_QS)
            p = np.exp(ref_logpmf("poisson", lin(u[0], 1.0, 8.0), family="type2", points=(q,), factors=(logu(u[3], 0.3, 3.0),)))
            key, cells = f"poisson_t2_q{q}", p[: q + 1].sum()
        elif name == "cmp_t1":
            factors = (logu(u[3], 0.3, 3.0), logu(u[4], 0.3, 3.0))
            p = np.exp(ref_logpmf("cmp", lin(u[0], 1.0, 4.0), nu=lin(u[2], 0.5, 2.0), family="type1", points=(0, 3), factors=factors))
            key, cells = "cmp_t1", min(p[0], p[3])
        elif name == "nb_profile":
            r = logu(u[0], 0.5, 5.0)
            p, key = np.exp(ref_logpmf("negative_binomial", r * lin(u[2], 0.3, 0.98), r=r)), "nb_profile"
            grid = tuple(r * g for g in self.PROFILE_GRID)
        elif name == "hp_profile":
            tau = logu(u[2], 0.5, 4.0)
            p, key = np.exp(ref_logpmf("hyper_poisson", lin(u[0], 1.0, 8.0), tau=tau)), "hp_profile"
            grid = tuple(tau * g for g in self.PROFILE_GRID)
        elif name == "zip":
            p = ref_mixture(ref_logpmf("poisson", lin(u[0], 0.5, 8.0)), (0,), (lin(u[2], 0.05, 0.4),))
            key, cells = "zip", p[0]
        else:  # multiple inflation at (0, k)
            k_pt = pick(u[2], FIT_MI_POINTS)
            p = ref_mixture(ref_logpmf("poisson", lin(u[0], 1.0, 5.0)), (0, k_pt), (lin(u[3], 0.02, 0.2), lin(u[4], 0.02, 0.2)))
            key, cells = f"mi_{k_pt}", min(p[0], p[k_pt])
        if cells is not None:
            size = max(size, self.MIN_CELL / cells)
            if size > 1e6:
                raise ValueError(f"round {k} {name}: perturbed cells too rare for a 1e6 table")
        rng = np.random.default_rng([self.seed, 200 + j, k])
        return {"name": name, "template": key, "grid": grid, "table": draw_table(rng, p, int(size))}

    def round(self, k):
        return [self._job(j, k) for j in range(len(self.TEMPLATES))]

    def warmup(self):
        return self.round(0)

    def run(self, job, tracer=None):
        bd = self.bd
        # Inner fits that return converged=False mark the job as stalled.
        inner, stalled = self.fit_module.fit_mle, []

        def watched(*args, **kwargs):
            res = inner(*args, **kwargs)
            if not res.converged:
                stalled.append(True)
            return res

        self.fit_module.fit_mle = watched
        try:
            t0 = time.perf_counter()
            sample = bd.CountSample.from_frequencies(job["table"])
            template = self.templates[job["template"]]
            if job["grid"]:
                result = bd.profile_fit(template, sample, job["grid"])
            else:
                result = bd.fit_mle(template, sample)
            dt = time.perf_counter() - t0
        finally:
            self.fit_module.fit_mle = inner
        group = (self.TEMPLATES.index(job["name"]), bool(stalled) or not result.converged)
        return result, Timing(1, dt, dt, dt, group)

    def throughput(self, timings):
        """Jobs per second for a round of jobs at each template's median cost,
        taken over the jobs in which no Newton run stalled.

        A Newton run that stalls short of its gradient tolerance runs all 500
        iterations (0.3-1 s); such stalls strike about 2% of the hyper-Poisson
        fits inside profile_fit, seemingly at random, so that a quarter of
        those jobs hold one, a share that moves by a third from run to run.
        A median over all of a template's jobs would move with that share.
        The stalls show in unconverged, fit.unconverged_fits and
        fit.newton_iterations.  A template whose every job stalled is timed
        over all its jobs.
        """
        groups = {}
        for t in timings:
            index, stalled = t.group
            groups.setdefault(index, ([], []))[stalled].append(t.busy_s)
        return len(groups) / sum(statistics.median(clean or stalled) for clean, stalled in groups.values())

    def check(self, job, result):
        """A zero score by central differences of loglik.

        A fit that returns converged=False is counted in unconverged, not
        failed, when its estimate passes this check: on the seed code about
        0.4% of jobs stall with a score near 1e-8, just above fit_mle's
        grad_tol, at an estimate that is right.  Their time stays in the
        timings, so the stalls' cost is measured.
        """
        bd = self.bd
        self.unconverged += not result.converged
        sample = bd.CountSample.from_frequencies(job["table"])
        model = result.model
        if isinstance(model, bd.MixtureModel):
            spec = bd.InflationSpec("type1", model.points, (1.0,) * len(model.points))
            model = bd.InfDefDistribution(model.base, spec)
        cf = bd.canonicalize(model)
        eta = np.asarray(result.eta_hat, dtype=float)
        freqs = np.asarray(sample.freqs)
        n_tot = freqs.sum()
        t_mat = cf.T(np.asarray(sample.values))
        mean = freqs @ t_mat / n_tot
        sd = np.maximum(np.sqrt(np.maximum(freqs @ (t_mat - mean) ** 2 / n_tot, 0.0)), 1e-3)
        for j in range(len(eta)):
            # Step and score are scaled by the statistic's spread, so one
            # tolerance serves counts in the hundreds and rare indicators.
            step = np.zeros_like(eta)
            step[j] = 1e-4 / sd[j]
            up = bd.loglik(cf.model_at(eta + step), sample)
            down = bd.loglik(cf.model_at(eta - step), sample)
            score = (up - down) / (2.0 * step[j] * n_tot)
            if not abs(score) / sd[j] < 1e-4:
                raise WrongResult(f"{job['template']}: score {score:.3e} at coordinate {j} (sd {sd[j]:.3g})")


class SurfaceWorkload:
    """Dispersion surfaces over (lambda, phi) grids and equidispersion contour scans.

    A round holds one surface per base kind and one CMP contour scan after each.
    """

    name = "surface"
    label = "surface_nodes_per_s"
    latency_label = "contour"
    KINDS = ("poisson", "negative_binomial", "cmp", "hyper_poisson")
    # Contour scans all use the CMP base (series normalizer, the costliest
    # scan): with one kind, the median scan time is not a median over
    # clusters of different kinds, which would jump between them.
    CONTOURS = 4
    NODES_CHECKED = 3
    RSS_ROUNDS = 5

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size
        self.streams = [Stream(seed, 300 + j) for j in range(len(self.KINDS) + self.CONTOURS)]

    def _surface(self, i, k):
        u = self.streams[i](k)
        kind = self.KINDS[i]
        shape = {
            "poisson": {},
            "negative_binomial": {"r": lin(u[6], 3.0, 8.0)},
            "cmp": {"nu": lin(u[6], 0.6, 1.6)},
            "hyper_poisson": {"tau": lin(u[6], 0.5, 3.0)},
        }[kind]
        if kind == "negative_binomial":
            lo, hi = shape["r"] * lin(u[2], 0.01, 0.05), shape["r"] * lin(u[3], 0.85, 0.95)
        else:
            lo, hi = lin(u[2], 0.05, 0.3), lin(u[3], 5.0, 8.0)
        return {
            "op": "surface",
            "kind": kind,
            "q": pick(u[0], (2, 3, 5)),
            "family": pick(u[1], ("type1", "type2")),
            "shape": shape,
            "lams": np.linspace(lo, hi, self.size.grid_lams).tolist(),
            "phis": np.linspace(lin(u[4], 0.05, 0.2), lin(u[5], 1.5, 3.0), self.size.grid_phis).tolist(),
            "nodes": [int(x) for x in np.random.default_rng([self.seed, 400 + i, k]).integers(
                0, self.size.grid_lams * self.size.grid_phis, self.NODES_CHECKED)],
        }

    def _contour(self, i, k):
        u = self.streams[len(self.KINDS) + i](k)
        return {
            "op": "contour",
            "kind": "cmp",
            "q": pick(u[0], (2, 3, 5)),
            "family": "type2",
            "shape": {"nu": lin(u[3], 0.7, 1.4)},
            "phi": lin(u[1], 0.1, 0.9),
            "range": (0.05, lin(u[2], 6.0, 10.0)),
        }

    throughput = staticmethod(work_rate)

    def setup_doc(self):
        return {"surfaces": [self._surface(i, 1) for i in range(len(self.KINDS))]}

    def prepare(self, bd):
        self.bd = bd

    def round(self, k):
        ops = []
        for i in range(len(self.KINDS)):
            ops.append(self._surface(i, k))
            ops.append(self._contour(i, k))
        return ops

    def warmup(self):
        return [self._contour(0, 0)]

    def run(self, op, tracer=None):
        bd = self.bd
        t0 = time.perf_counter()
        if op["op"] == "surface":
            out = bd.dispersion_surface(op["kind"], op["q"], op["lams"], op["phis"], family=op["family"], **op["shape"])
            dt = time.perf_counter() - t0
            return out, Timing(out.size, dt, None, dt, "surface")
        out = bd.equidispersion_contour(
            op["kind"], op["q"], op["phi"], *op["range"], family=op["family"],
            subintervals=self.size.contour_subintervals, **op["shape"],
        )
        dt = time.perf_counter() - t0
        return out, Timing(0, 0.0, dt, dt, "contour")

    def _model(self, op, lam, phi):
        base = self.bd.BaseDistribution(op["kind"], lam=lam, **op["shape"])
        return self.bd.InfDefDistribution(base, self.bd.InflationSpec(op["family"], (op["q"],), (phi,)))

    def check(self, op, out):
        """Sampled nodes match moments_direct; the index is 1 at every contour root."""
        if op["op"] == "surface":
            if not np.all(np.isfinite(out)):
                raise WrongResult(f"{op['kind']} surface has {int(np.sum(~np.isfinite(out)))} non-finite nodes")
            for node in op["nodes"]:
                i, j = divmod(node, len(op["phis"]))
                want = dispersion_of(self.bd, self._model(op, op["lams"][i], op["phis"][j]))
                if not abs(out[i, j] - want) <= 1e-6 * max(1.0, abs(want)):
                    raise WrongResult(f"{op['kind']} node ({i},{j}): {out[i, j]!r} vs direct {want!r}")
            return
        if out.degenerate:
            raise WrongResult(f"{op['kind']} contour unexpectedly degenerate")
        for root in out.roots:
            index = dispersion_of(self.bd, self._model(op, root, op["phi"]))
            if not abs(index - 1.0) < 1e-4:
                raise WrongResult(f"{op['kind']} contour root {root}: dispersion index {index}")


class SimulateWorkload:
    """Gillespie runs on four models, each followed by tv_distance and an iid draw."""

    name = "simulate"
    label = "sim_events_per_s"
    latency_label = "sim"
    MODELS = ("poisson_type2", "nb_constant", "zip_type1", "cmp_linear")
    RSS_ROUNDS = 25
    TV_BOUND = 2.0  # times 1 / sqrt(regenerations)

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size
        self.streams = [Stream(seed, 500 + j) for j in range(len(self.MODELS))]

    def _doc(self, j, k):
        u = self.streams[j](k)
        name = self.MODELS[j]
        if name == "poisson_type2":
            lam, q = lin(u[0], 1.0, 6.0), pick(u[1], (2, 3))
            ks = np.arange(q)
            denom = float(((q - ks) * np.exp(ks * math.log(lam) - lam - np.array([math.lgamma(x + 1.0) for x in ks]))).sum())
            doc = {"kind": "poisson", "lam": lam, "q": q, "phi": 1.0 + (lam - q) / denom, "scheme": "linear"}
            p = np.exp(ref_logpmf("poisson", lam, top=400, family="type2", points=(q,), factors=(doc["phi"],)))
        elif name == "nb_constant":
            r = lin(u[0], 1.0, 5.0)
            doc = {"kind": "negative_binomial", "lam": r * lin(u[1], 0.3, 0.7), "shape": {"r": r}, "scheme": "constant"}
            p = np.exp(ref_logpmf("negative_binomial", doc["lam"], top=400, r=r))
        elif name == "zip_type1":
            doc = {"kind": "poisson", "lam": lin(u[0], 1.0, 6.0), "omega": lin(u[1], 0.05, 0.3), "scheme": "linear"}
            p = ref_mixture(ref_logpmf("poisson", doc["lam"], top=400), (0,), (doc["omega"],))
        else:
            doc = {"kind": "cmp", "lam": lin(u[0], 1.0, 5.0), "shape": {"nu": lin(u[1], 0.7, 1.5)}, "scheme": "linear"}
            p = np.exp(ref_logpmf("cmp", doc["lam"], top=400, nu=doc["shape"]["nu"]))
        ns = np.arange(len(p))
        # Stationary event rate: up and down flows balance, so the rate is
        # twice the mean death rate.  The window is sized for the same
        # expected event count on every model.
        death_rate = float(p @ ns) if doc["scheme"] == "linear" else 1.0 - float(p[0])
        doc.update(name=name, sample_time=self.size.sim_events / (2.0 * death_rate), sim_seed=int(
            np.random.default_rng([self.seed, 600 + j, k]).integers(2**31)))
        return doc, p

    throughput = staticmethod(work_rate)

    def setup_doc(self):
        return {"models": [self._doc(j, 1)[0] for j in range(len(self.MODELS))]}

    def prepare(self, bd):
        self.bd = bd

    def round(self, k):
        return [self._doc(j, k) for j in range(len(self.MODELS))]

    def warmup(self):
        return self.round(0)

    def run(self, op, tracer=None):
        bd = self.bd
        doc, _ = op
        model, rates = sim_model(bd, doc)
        config = bd.SimConfig(seed=doc["sim_seed"], sample_time=doc["sample_time"])
        if tracer is not None:
            # The cost paid before the event loop starts: the same call on a
            # negligible window, kept out of the spans.
            tracer.enabled = False
            t0 = time.perf_counter()
            bd.run_ctmc(rates, bd.SimConfig(seed=doc["sim_seed"], sample_time=1e-9, burn_in_time=1e-9))
            tracer.total_s["simulate.setup"] += time.perf_counter() - t0
            tracer.enabled = True
        t0 = time.perf_counter()
        result = bd.run_ctmc(rates, config)
        t1 = time.perf_counter()
        tv = bd.tv_distance(result, lambda ns: bd.model_pmf(model, ns))
        draws = bd.sample_counts(model, self.size.sim_draws, np.random.default_rng(doc["sim_seed"]))
        t2 = time.perf_counter()
        return (result, tv, draws), Timing(result.metadata["events"], t1 - t0, t1 - t0, t2 - t0, doc["name"])

    def check(self, op, out):
        """TV and detailed-balance residual within window bounds; iid draw matches the PMF."""
        doc, p = op
        result, tv, draws = out
        events = result.metadata["events"]
        if events < self.size.sim_events / 4:
            raise WrongResult(f"{doc['name']}: only {events} events in the window")
        # Up-crossings n -> n+1 and down-crossings n+1 -> n alternate along a
        # path, so within any window their counts differ by at most one.
        residual = float(np.max(np.abs(result.up_crossings[:-1] - result.down_crossings[1:]))) / events
        if residual > 1.0 / events:
            raise WrongResult(f"{doc['name']}: detailed-balance residual {residual:.3g} > 1/events")
        # Occupancy error shrinks with the number of regenerations.  A path
        # moves mass between the levels below n and those above only when it
        # crosses n, so R is the crossing count of the least-crossed level
        # that splits the reference mass at least 5/95; slow-mixing chains
        # (a heavy zero cell) have few.  Seed-code runs stay below
        # TV_BOUND / 1.5 (3000 runs).
        top = min(len(result.down_crossings), len(p))
        split = np.minimum(np.cumsum(p), 1.0 - np.cumsum(p))[: top - 1]
        regenerations = float(result.down_crossings[1:top][split >= min(0.05, split.max())].min())
        if regenerations < 1:
            raise WrongResult(f"{doc['name']}: the path never crossed the bulk of the distribution")
        tv_bound = self.TV_BOUND / math.sqrt(regenerations)
        if not tv < tv_bound:
            raise WrongResult(f"{doc['name']}: TV {tv:.4f} >= {tv_bound:.4f} after {regenerations:.0f} regenerations")
        if abs(tv - self._tv_ref(result, p)) > 1e-9:
            raise WrongResult(f"{doc['name']}: tv_distance {tv!r} disagrees with the reference PMF")
        hist = np.bincount(draws, minlength=len(p))[: len(p)] / len(draws)
        draw_tv = 0.5 * float(np.abs(hist - p).sum()) + 0.5 * float((draws >= len(p)).mean())
        # E|hist - p| <= sqrt(p (1 - p) / S) per cell.
        draw_bound = 1.5 * float(np.sqrt(p * (1.0 - p) / len(draws)).sum()) + 1e-3
        if not draw_tv < draw_bound:
            raise WrongResult(f"{doc['name']}: iid draw TV {draw_tv:.4f} >= {draw_bound:.4f}")

    @staticmethod
    def _tv_ref(result, p):
        occ = result.weights / result.weights.sum()
        m = min(len(occ), len(p))
        return 0.5 * (float(np.abs(occ[:m] - p[:m]).sum()) + float(occ[m:].sum()) + max(0.0, 1.0 - float(p[:m].sum())))


class CliWorkload:
    """Cold `python -m bdcount` commands, one at a time: all seven subcommands
    on small inputs plus `fit --data` on a 1e5-row CSV."""

    name = "cli"
    label = "cli_commands_per_s"
    latency_label = "cli"
    COMMANDS = ("pmf", "moments", "fit", "surface", "contour", "simulate", "equiphi", "fit_1e5")
    RSS_ROUNDS = None  # peak_rss_mb is the largest child's
    UNCONVERGED_EXIT = 3  # bdcount fit: the fit did not converge

    def __init__(self, seed, size, root, out_dir, env):
        self.seed = seed
        self.size = size
        self.root = root
        self.dir = os.path.join(out_dir, f"cli-{seed}")
        self.env = env
        self.streams = [Stream(seed, 700 + j) for j in range(len(self.COMMANDS))]
        self.unconverged = 0

    def _file(self, name, text):
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return os.path.relpath(path, self.root)

    def _argv(self, j, k):
        u = self.streams[j](k)
        name = self.COMMANDS[j]
        g = lambda x: f"{x:.6g}"
        rng = np.random.default_rng([self.seed, 800 + j, k])
        if name == "pmf":
            lam, q = lin(u[0], 1.0, 6.0), pick(u[1], (1, 2, 3))
            spec = {"family": "type2", "base": {"kind": "poisson", "lambda": lam}, "points": [q], "factors": [logu(u[2], 0.3, 3.0)]}
            return ["pmf", "--spec", self._file("pmf.json", json.dumps(spec)), "--n-max", str(pick(u[3], (30, 40, 60)))]
        if name == "moments":
            spec = {"family": "type1", "base": {"kind": "cmp", "lambda": lin(u[0], 1.0, 4.0), "nu": lin(u[1], 0.6, 2.0)},
                    "points": [0, 3], "factors": [logu(u[2], 0.3, 3.0), logu(u[3], 0.3, 3.0)]}
            return ["moments", "--spec", self._file("moments.json", json.dumps(spec))]
        if name == "fit":
            q = pick(u[1], (1, 2, 3))
            lp = ref_logpmf("poisson", lin(u[0], 1.0, 6.0), family="type2", points=(q,), factors=(logu(u[2], 0.3, 3.0),))
            table = draw_table(rng, np.exp(lp), int(logu(u[3], 1e3, 1e4)))
            rows = "value,count\n" + "".join(f"{v},{c}\n" for v, c in table.items())
            return ["fit", "--data", self._file("small.csv", rows), "--kind", "poisson", "--family", "type2", "--points", str(q)]
        if name == "surface":
            n_lam, n_phi = self.size.cli_grid
            return ["surface", "--kind", "cmp", "--nu", g(lin(u[0], 0.6, 1.6)), "--q", str(pick(u[1], (2, 3, 5))),
                    "--lambda-grid", f"{g(lin(u[2], 0.05, 0.3))}:{g(lin(u[3], 5.0, 8.0))}:{n_lam}",
                    "--phi-grid", f"{g(lin(u[4], 0.05, 0.2))}:{g(lin(u[5], 1.5, 3.0))}:{n_phi}"]
        if name == "contour":
            return ["contour", "--kind", "poisson", "--q", str(pick(u[0], (2, 3, 5))), "--phi", g(lin(u[1], 0.1, 0.9)),
                    "--lambda-range", f"0.05:{g(lin(u[2], 6.0, 10.0))}"]
        if name == "simulate":
            lam = lin(u[0], 1.0, 6.0)
            spec = {"family": "mixture", "variant": "zero_inflated", "base": {"kind": "poisson", "lambda": lam},
                    "omegas": [lin(u[1], 0.05, 0.3)]}
            sample_time = self.size.sim_events / 4 / (2.0 * lam)
            return ["simulate", "--spec", self._file("simulate.json", json.dumps(spec)),
                    "--seed", str(int(rng.integers(2**31))), "--sample-time", g(sample_time)]
        if name == "equiphi":
            return ["equiphi", "--lambda", g(lin(u[0], 0.5, 8.0)), "--q", str(pick(u[1], (1, 2, 3, 5)))]
        # fit_1e5: one count per line, zero-inflated Poisson
        lp = ref_logpmf("poisson", lin(u[0], 1.0, 8.0))
        p = ref_mixture(lp, (0,), (lin(u[1], 0.05, 0.4),))
        counts = rng.choice(len(p), size=self.size.cli_rows, p=p / p.sum())
        path = self._file("big.csv", "count\n" + "\n".join(map(str, counts.tolist())) + "\n")
        return ["fit", "--data", path, "--kind", "poisson", "--family", "mixture", "--points", "0"]

    throughput = staticmethod(work_rate)

    def setup_doc(self):
        return {}

    def prepare(self, bd):
        import bdcount.cli

        self.bd = bd
        self.cli = bdcount.cli
        os.makedirs(self.dir, exist_ok=True)

    def round(self, k):
        # Each command's input files are written just before it runs.
        return [(j, k) for j in range(len(self.COMMANDS))]

    def warmup(self):
        return [(len(self.COMMANDS) - 2, 0)]

    def run(self, op, tracer=None):
        j, k = op
        argv = self._argv(j, k)
        trace_path = os.path.join(self.dir, "trace.json")
        if tracer is None:
            cmd = [sys.executable, "-m", "bdcount", *argv]
        else:
            if os.path.exists(trace_path):
                os.remove(trace_path)
            cmd = [sys.executable, os.path.join("perfbench", "child.py"), "cli", trace_path, *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        if tracer is not None:
            with open(trace_path) as fh:
                agg = json.load(fh)
            tracer.merge(agg)
            tracer.counts[f"cli.main.{self.COMMANDS[j]}"] += 1
            tracer.total_s[f"cli.main.{self.COMMANDS[j]}"] += agg["main_s"]
            if agg["memo_entries"] is not None:
                tracer.maxima["stationary.norm_memo_entries"] = max(
                    tracer.maxima.get("stationary.norm_memo_entries", 0), agg["memo_entries"])
        return (argv, proc.returncode, proc.stdout, proc.stderr), Timing(1, dt, dt, dt, j)

    def check(self, op, out):
        """Exit code 0, and stdout equal to the same command run in-process.

        `fit` exits 3 when fit_mle returns converged=False; like the fit
        workload, such a command counts in unconverged, not failed, when the
        in-process run agrees with it.
        """
        argv, code, stdout, stderr = out
        allowed = (0, self.UNCONVERGED_EXIT) if argv[0] == "fit" else (0,)
        if code not in allowed:
            raise OpFailed(f"{' '.join(argv)} exited {code}: {stderr.strip()[-300:]}")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            in_code = self.cli.main(argv)
        if in_code != code or buf.getvalue() != stdout:
            raise WrongResult(f"{' '.join(argv)}: cold stdout differs from the in-process run")
        self.unconverged += code == self.UNCONVERGED_EXIT
