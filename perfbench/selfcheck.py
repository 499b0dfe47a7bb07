"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Runs every workload untraced and traced at smoke size (tiny grids, short
   windows, small CSVs, one round) and asserts that each metric named in
   BENCHMARK.json is present with its unit and a finite value, that no output
   was wrong, and that the expfamily layer is busy on fit and idle on surface
   and simulate.
2. Plants a wrong result, every fitted eta shifted by 1e-2 in its first
   coordinate, and asserts that the fit workload counts the jobs as wrong.
   Plants converged=False on right estimates and asserts that the jobs are
   counted as unconverged, not failed.
   Plants a biased simulator, every death rate scaled by 1.2, and asserts
   that the simulate workload's occupancy check flags at least a third of
   its runs at full window length.
3. Copies BENCHMARK.json and the benchmark's files, without the sources, to
   perfbench/out/bare and asserts that run.py exits non-zero there without
   printing a result.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import run
import workloads

SMOKE_SECONDS = 0.2


def check_metrics(result, expected):
    metrics = result["metrics"]
    assert set(metrics) == set(expected), f"metric names differ: {sorted(set(metrics) ^ set(expected))}"
    for name, unit in expected.items():
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit, f"{name}: unit {metrics[name]['unit']!r}, expected {unit!r}"
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{name}: value {value!r}"


def smoke(bench):
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        for trace, expected in ((0, e2e), (1, layers)):
            result = run.run(w["name"], 1, SMOKE_SECONDS, trace, size=workloads.SMOKE)
            check_metrics(result, expected)
            assert result["attempted"] >= 1 and result["wrong"] == 0, result["failures"]
            if trace:
                calls = result["metrics"]["expfamily.A_calls"]["value"] + result["metrics"]["expfamily.hess_A_calls"]["value"]
                if w["name"] == "fit":
                    assert calls > 0, "expfamily idle on the fit workload"
                elif w["name"] in ("surface", "simulate"):
                    assert calls == 0, f"expfamily called on the {w['name']} workload"
            print(f"ok   {w['name']:8s} trace {trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed, {len(result['metrics'])} metrics", flush=True)


def planted():
    bdcount = run.import_bdcount()
    originals = {name: getattr(bdcount, name) for name in ("fit_mle", "profile_fit")}

    def shifted(fn):
        def wrong(*args, **kwargs):
            res = fn(*args, **kwargs)
            eta = res.eta_hat.copy()
            eta[0] += 1e-2
            return dataclasses.replace(res, eta_hat=eta)
        return wrong

    try:
        for name, fn in originals.items():
            setattr(bdcount, name, shifted(fn))
        result = run.run("fit", 1, SMOKE_SECONDS, 0, size=workloads.SMOKE)
    finally:
        for name, fn in originals.items():
            setattr(bdcount, name, fn)
    assert result["wrong"] > 0 and result["error_rate"] > 0, "a shifted eta was not caught"
    print(f"ok   planted eta shift: {result['wrong']} of {result['attempted']} fit jobs flagged wrong")

    def stalled(fn):
        def unconverged(*args, **kwargs):
            return dataclasses.replace(fn(*args, **kwargs), converged=False)
        return unconverged

    try:
        for name, fn in originals.items():
            setattr(bdcount, name, stalled(fn))
        result = run.run("fit", 1, SMOKE_SECONDS, 0, size=workloads.SMOKE)
    finally:
        for name, fn in originals.items():
            setattr(bdcount, name, fn)
    assert result["failed"] == 0 and result["unconverged"] == result["attempted"], \
        "a right estimate flagged converged=False was not counted as unconverged"
    print(f"ok   planted converged=False at a right estimate: {result['unconverged']} of {result['attempted']} "
          "fit jobs counted unconverged, none failed")


def planted_simulator():
    original = workloads.sim_model

    def biased(bd, doc):
        model, rates = original(bd, doc)
        death = rates.death
        return model, dataclasses.replace(rates, death=lambda n: 1.2 * death(n), canonicalized_from=None)

    size = workloads.SMOKE._replace(sim_events=workloads.FULL.sim_events, sim_draws=workloads.FULL.sim_draws)
    try:
        workloads.sim_model = biased
        result = run.run("simulate", 1, 1.0, 0, size=size)
    finally:
        workloads.sim_model = original
    # At 2e4 events about half the runs of such a simulator exceed the TV bound.
    assert result["wrong"] >= result["attempted"] / 3, f"a biased simulator was flagged in {result['wrong']} runs only"
    print(f"ok   planted death-rate bias: {result['wrong']} of {result['attempted']} simulate runs flagged wrong")


def bare():
    target = os.path.join(run.OUT, "bare")
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(target, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), target)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", "fit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=target, env=env, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(target)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    assert proc.returncode != 0 and not last[0].startswith("{"), "run.py produced a result without sources"
    print(f"ok   without sources: exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1]}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    smoke(bench)
    planted()
    planted_simulator()
    bare()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
