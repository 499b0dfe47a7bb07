"""Run the benchmark over several seeds and summarise each workload.

    python3 perfbench/report.py [--workloads fit,surface,simulate,cli] [--seeds 1-10]
                                [--seconds 15] [--trace 0] [--write perfbench/baseline.json]

Runs perfbench/run.py once per workload and seed, one process at a time, and
prints for every workload each metric's median, its quartile spread as a share
of the median (statistics.quantiles, n=4) and its bound from BENCHMARK.json,
the workload's own metric names (fit_jobs_per_s, contour_p50_ms, ...) and its
error_rate.  --write saves the same summary, with provenance, as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_from(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="fit,surface,simulate,cli")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_from(args.seeds):
            cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            with open(os.path.join(ROOT, "perfbench", "out", f"result-{workload}-{seed}-trace{args.trace}.json")) as fh:
                runs.append(json.load(fh))
            print(f"# {workload} seed {seed}: " + proc.stdout.strip().splitlines()[-1], flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"runs": len(runs), "attempted": attempted, "failed": failed,
                 "wrong": sum(r["wrong"] for r in runs), "error_rate": failed / attempted,
                 "unconverged": sum(r.get("unconverged", 0) for r in runs),
                 "metrics": {}, "named": {}, "provenance": runs[0]["provenance"]}
        print(f"\n{workload}: {len(runs)} runs, error_rate {failed}/{attempted} = {failed / attempted:.4g}, "
              f"unconverged {entry['unconverged']}")
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            sp = spread(values) if len(values) > 1 and med else 0.0
            entry["metrics"][name] = {"median": med, "unit": m["unit"], "spread": sp, "values": values}
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound:.2f}" + ("  OVER" if sp > bound else "")
            print(f"  {name:34s} {med:14.6g} {m['unit']:9s} spread {sp:6.3f}{note}")
        if args.trace == 0:
            for name in runs[0]["detail"]["named"]:
                values = [r["detail"]["named"][name] for r in runs]
                entry["named"][name] = statistics.median(values)
                print(f"  = {name:32s} {statistics.median(values):14.6g}")
            pct = [r["detail"]["tail_percentile"] for r in runs]
            n = [r["detail"]["latency_samples"] for r in runs]
            entry["tail_percentile"] = statistics.median(pct)
            entry["latency_samples"] = statistics.median(n)
            print(f"  tail = p{statistics.median(pct):.1f} of a median {statistics.median(n):.0f} latency samples")
        summary["workloads"][workload] = entry
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
