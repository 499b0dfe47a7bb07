"""bdcount benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {fit,surface,simulate,cli} --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports bdcount from its src/.
The run runs rounds of operations, one at a time, until the operations have
taken --seconds, checking each output outside its timed region.  Between
rounds it sets the workload up in fresh interpreters; set-up time is their
median.  Between operations it times a fixed reference kernel, and reports
the end-to-end timings at the host speed at which that kernel takes 5 ms
(see REFERENCE_NOMINAL_S).  The last
line of stdout is one JSON object: correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1, rounds
alternate between traced and untraced, and the metrics are the per-layer ones
from the traced rounds plus the tracing overhead.  The full result, with
provenance, is written to perfbench/out/.
"""

import os

# One thread per process for BLAS and OpenMP, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib.metadata
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOAD_NAMES = ("fit", "surface", "simulate", "cli")

END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics averaged over traced operations:
# (metric, unit, aggregate, key, span whose absence makes the metric absent)
PER_OP = (
    ("stationary.series_calls", "count/op", "calls", "stationary.series", "stationary.series"),
    ("stationary.series_terms", "count/op", "counts", "stationary.series_terms", "stationary.series"),
    ("stationary.series_self_ms", "ms/op", "self_s", "stationary.series", "stationary.series"),
    ("stationary.base_logpmf_calls", "count/op", "calls", "stationary.base_logpmf", "stationary.base_logpmf"),
    ("stationary.base_logpmf_self_ms", "ms/op", "self_s", "stationary.base_logpmf", "stationary.base_logpmf"),
    ("models.infdef_log_z_calls", "count/op", "calls", "models.infdef_log_z", "models.infdef_log_z"),
    ("models.infdef_log_z_self_ms", "ms/op", "self_s", "models.infdef_log_z", "models.infdef_log_z"),
    ("models.logpmf_self_ms", "ms/op", "self_s", "models.logpmf", "models.logpmf"),
    ("expfamily.A_calls", "count/op", "calls", "expfamily.A", "expfamily.A"),
    ("expfamily.A_self_ms", "ms/op", "self_s", "expfamily.A", "expfamily.A"),
    ("expfamily.grad_A_calls", "count/op", "calls", "expfamily.grad_A", "expfamily.grad_A"),
    ("expfamily.grad_A_self_ms", "ms/op", "self_s", "expfamily.grad_A", "expfamily.grad_A"),
    ("expfamily.hess_A_calls", "count/op", "calls", "expfamily.hess_A", "expfamily.hess_A"),
    ("expfamily.hess_A_self_ms", "ms/op", "self_s", "expfamily.hess_A", "expfamily.hess_A"),
    ("fit.newton_iterations", "count/op", "counts", "fit.newton_iterations", "fit.fit_mle"),
    ("fit.fit_mle_self_ms", "ms/op", "self_s", "fit.fit_mle", "fit.fit_mle"),
    ("fit.profile_inner_fits", "count/op", "counts", "fit.profile_inner_fits", "fit.fit_mle"),
    ("fit.unconverged_fits", "count/op", "counts", "fit.unconverged_fits", "fit.fit_mle"),
    ("fit.from_counts_ms", "ms/op", "total_s", "fit.from_counts", "fit.from_counts"),
    ("fit.sample_counts_ms", "ms/op", "total_s", "fit.sample_counts", "fit.sample_counts"),
    ("moments.closed_calls", "count/op", "calls", "moments.closed", "moments.closed"),
    ("moments.closed_self_ms", "ms/op", "self_s", "moments.closed", "moments.closed"),
    ("moments.contour_evals", "count/op", "counts", "moments.contour_evals", "moments.index_at"),
    ("moments.direct_self_ms", "ms/op", "self_s", "moments.direct", "moments.direct"),
    ("simulate.run_ctmc_ms", "ms/op", "total_s", "simulate.run_ctmc", "simulate.run_ctmc"),
    ("simulate.events", "count/op", "counts", "simulate.events", "simulate.run_ctmc"),
    ("simulate.tv_ms", "ms/op", "total_s", "simulate.tv", "simulate.tv"),
    ("simulate.setup_ms", "ms/op", "total_s", "simulate.setup", "simulate.run_ctmc"),
    ("cli.read_data_ms", "ms/op", "total_s", "cli.read_data", "cli.read_data"),
)
CLI_COMMANDS = ("pmf", "moments", "fit", "surface", "contour", "simulate", "equiphi", "fit_1e5")
PER_LAYER = (
    tuple((m, u) for m, u, *_ in PER_OP)
    + (("stationary.norm_memo_entries", "count"), ("simulate.max_state", "count"), ("cli.import_ms", "ms"))
    + tuple((f"cli.main_ms.{c}", "ms") for c in CLI_COMMANDS)
    + (("trace.overhead_pct", "%"),)
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_bdcount():
    """Import bdcount from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "bdcount", "__init__.py")):
        raise SystemExit(f"error: no bdcount sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import bdcount

    if os.path.dirname(os.path.dirname(os.path.abspath(bdcount.__file__))) != SRC:
        raise SystemExit(f"error: imported bdcount from {bdcount.__file__}, not from {SRC}")
    return bdcount


def setup_probe(workload, doc):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), "setup", workload],
        input=json.dumps(doc), capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


# Host speed.  On a shared host the processor's speed moves by 20-40% over
# minutes, alike for every kind of code (the set-up probes, the Gillespie loop
# and the Newton fits slow down together).  Every run therefore also times a
# fixed reference kernel that uses no bdcount code, every REFERENCE_EVERY_S
# seconds between operations, and reports its timings at the host speed at
# which the kernel takes REFERENCE_NOMINAL_S: host_factor is the median
# kernel time over REFERENCE_NOMINAL_S, times are divided by it and rates
# multiplied.  The unscaled values stay in the result file (detail.raw).
REFERENCE_NOMINAL_S = 0.005
REFERENCE_EVERY_S = 0.2
REFERENCE_MIN_SAMPLES = 25


def reference_kernel():
    """Seconds taken by a fixed mix of interpreted float arithmetic and small
    numpy calls, the kind of work the library's own loops do."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 7501):
        acc += math.log(i) / (i + acc)
    a = np.linspace(0.0, 1.0, 512)
    for _ in range(500):
        a = np.exp(-a) + 0.5 * a
    dt = time.perf_counter() - t0
    if not math.isfinite(acc + float(a.sum())):
        raise RuntimeError("reference kernel diverged")
    return dt


def tail(samples):
    """Highest percentile, at most p90, with at least ten samples beyond it:
    (value, percentile).

    With more than 100 samples this is p90.  The cap is there for fit:
    above p90 its jobs are mostly profile fits in which fit_mle stalled for
    500 iterations, too few per run for a steady order statistic.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    beyond = max(10, math.ceil(n / 10))
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def provenance():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except OSError:
        git_sha = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "bdcount")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def make_workload(name, seed, size):
    import workloads

    if name == "cli":
        return workloads.CliWorkload(seed, size, ROOT, OUT, child_env())
    return {"fit": workloads.FitWorkload, "surface": workloads.SurfaceWorkload,
            "simulate": workloads.SimulateWorkload}[name](seed, size)


def run(workload, seed, seconds, trace, size=None):
    """Run one workload and return the full result document."""
    import workloads
    import tracing

    size = size or workloads.FULL
    os.makedirs(OUT, exist_ok=True)
    bd = import_bdcount()
    wl = make_workload(workload, seed, size)
    probes = []
    wl.prepare(bd)
    tracer = tracing.Tracer().install() if trace else None
    for op in wl.warmup():
        wl.run(op)
    reference_kernel()
    reference = []
    next_reference = 0.0

    timings, traced_ops = [], 0
    round_wall = {True: [], False: []}
    attempted = failed = wrong = 0
    failures = []
    measured = 0.0
    k = 0
    # The library's normalizer memo grows with every new parameter set, so
    # peak memory is read after a fixed number of rounds: a faster library
    # then does not look as if it used more memory.
    peak_rss = None
    while measured < seconds or (trace and k < 2):
        # Set-up probes are spread over the run, so that their median is not
        # taken from one moment of a machine whose speed drifts.
        if len(probes) < size.setup_reps and measured >= len(probes) * seconds / size.setup_reps:
            probes.append(setup_probe(workload, wl.setup_doc()))
        k += 1
        traced = bool(trace) and k % 2 == 1
        ops = wl.round(k)
        wall = 0.0
        for op in ops:
            attempted += 1
            if tracer is not None:
                tracer.op_id += 1
                tracer.enabled = traced
            try:
                out, timing = wl.run(op, tracer if traced else None)
            except Exception:
                failed += 1
                failures.append(traceback.format_exc(limit=3))
                continue
            finally:
                if tracer is not None:
                    tracer.enabled = False
            wall += timing.wall_s
            traced_ops += traced
            try:
                wl.check(op, out)
            except workloads.OpFailed as exc:
                # Failed operations count against error_rate, not in timings.
                failed += 1
                wrong += isinstance(exc, workloads.WrongResult)
                failures.append(str(exc))
            else:
                timings.append(timing)
            if time.perf_counter() >= next_reference:
                reference.append(reference_kernel())
                next_reference = time.perf_counter() + REFERENCE_EVERY_S
        measured += wall
        if trace:
            round_wall[traced].append(wall / len(ops))
        if k == wl.RSS_ROUNDS:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    while len(probes) < size.setup_reps:
        probes.append(setup_probe(workload, wl.setup_doc()))
    while len(reference) < REFERENCE_MIN_SAMPLES:
        reference.append(reference_kernel())
    host_factor = statistics.median(reference) / REFERENCE_NOMINAL_S
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "error_rate": failed / attempted,
        "unconverged": getattr(wl, "unconverged", 0),
        "failures": failures[:20],
        "rounds": k,
        "provenance": provenance(),
        "setup_probes": probes,
        "host_factor": host_factor,
        "reference_samples": len(reference),
    }
    if trace:
        result["metrics"], result["absent"] = layer_metrics(wl, tracer, traced_ops, probes, round_wall)
        tracer.uninstall()
        tracer.write_spans(os.path.join(OUT, f"spans-{workload}-{seed}.csv"))
    elif timings:
        if wl.RSS_ROUNDS is None:
            peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        elif peak_rss is None:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"], result["detail"] = end_to_end_metrics(wl, timings, probes, peak_rss, host_factor)
    else:
        result["metrics"] = {}  # no operation succeeded: nothing to time
    with open(os.path.join(OUT, f"result-{workload}-{seed}-trace{int(bool(trace))}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def end_to_end_metrics(wl, timings, probes, peak_rss_kb, host_factor):
    latencies = [t.latency_s for t in timings if t.latency_s is not None]
    busy = sum(t.busy_s for t in timings)
    tail_s, tail_pct = tail(latencies)
    raw = {
        "throughput_per_s": wl.throughput(timings),
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    values = dict(raw)
    values["throughput_per_s"] *= host_factor
    for name in ("p50_ms", "tail_ms", "setup_s"):
        values[name] /= host_factor
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail = {
        "raw": raw,
        "named": {
            wl.label: values["throughput_per_s"],
            f"{wl.latency_label}_p50_ms": values["p50_ms"],
            f"{wl.latency_label}_tail_ms": values["tail_ms"],
        },
        "latency_samples": len(latencies),
        "tail_percentile": tail_pct,
        "work_units": sum(t.work for t in timings),
        "busy_s": busy,
    }
    return metrics, detail


def layer_metrics(wl, tracer, traced_ops, probes, round_wall):
    import tracing

    absent = dict(tracer.absent)
    values = {}
    ops = max(traced_ops, 1)
    for metric, _, source, key, span in PER_OP:
        if span in tracer.absent:
            absent[metric] = tracer.absent[span]
        scale = 1e3 if source in ("self_s", "total_s") else 1.0
        values[metric] = getattr(tracer, source).get(key, 0) * scale / ops
    memo = tracing.memo_entries() if wl.name != "cli" else tracer.maxima.get("stationary.norm_memo_entries")
    if memo is None:
        absent["stationary.norm_memo_entries"] = "bdcount.stationary has no normalizer memo"
    values["stationary.norm_memo_entries"] = memo or 0
    values["simulate.max_state"] = tracer.maxima.get("simulate.max_state", 0)
    values["cli.import_ms"] = statistics.median(p["import_s"] for p in probes) * 1e3
    for cmd in CLI_COMMANDS:
        n = tracer.counts.get(f"cli.main.{cmd}", 0)
        values[f"cli.main_ms.{cmd}"] = tracer.total_s.get(f"cli.main.{cmd}", 0.0) * 1e3 / max(n, 1)
    traced, untraced = round_wall[True], round_wall[False]
    values["trace.overhead_pct"] = 100.0 * (statistics.mean(traced) / statistics.mean(untraced) - 1.0)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, absent


def summary_lines(result):
    lines = [
        f"# workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"rounds {result['rounds']}  attempted {result['attempted']}  failed {result['failed']}  wrong {result['wrong']}  "
        f"error_rate {result['error_rate']:.4g}  unconverged {result['unconverged']}  "
        f"host_factor {result['host_factor']:.4g} ({result['reference_samples']} reference samples)"
    ]
    detail = result.get("detail")
    if detail:
        lines.append(f"# unscaled: {', '.join(f'{k} {v:.6g}' for k, v in detail['raw'].items())}")
        lines.append(
            f"# {', '.join(f'{k} {v:.6g}' for k, v in detail['named'].items())}  "
            f"(tail = p{detail['tail_percentile']:.1f} of {detail['latency_samples']} samples)"
        )
    for name, m in result["metrics"].items():
        lines.append(f"#   {name:34s} {m['value']:14.6g} {m['unit']}")
    for name, reason in result.get("absent", {}).items():
        lines.append(f"#   absent: {name}: {reason}")
    for failure in result["failures"][:5]:
        lines.append("#   failure: " + failure.strip().replace("\n", "\n#   "))
    lines.append("# " + json.dumps(result["provenance"], sort_keys=True))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(summary_lines(result)))
    if not result["metrics"]:
        print("error: every operation failed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
