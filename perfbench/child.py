"""Fresh-interpreter probes started by run.py.

    python3 perfbench/child.py setup <workload>   < setup document (JSON)
        Times `import bdcount` plus building the workload's model and
        template objects, and prints {"setup_s", "import_s"} as JSON.
    python3 perfbench/child.py cli <trace.json> <bdcount argv...>
        Runs one bdcount command in-process with spans around the library's
        public functions, and writes the spans and their aggregates to
        <trace.json>.

Nothing but the stdlib is imported before the clock starts, so the import
time includes numpy and scipy as a user pays for them.  The object builders
below are shared with the main benchmark process.
"""

import json
import sys
import time

# Perturbation points of the fit templates.
FIT_QS = (1, 2, 3, 5)
FIT_MI_POINTS = (2, 3, 4, 5)


def fit_templates(bd):
    """Fit templates: structure only; fit_mle starts from the sample itself."""
    base, infdef, spec, mixture = bd.BaseDistribution, bd.InfDefDistribution, bd.InflationSpec, bd.MixtureModel
    out = {
        "poisson": base("poisson", lam=1.0),
        "geometric": base("geometric", lam=0.5),
        "cmp_t1": infdef(base("cmp", lam=1.0, nu=1.0), spec("type1", (0, 3), (1.0, 1.0))),
        "nb_profile": base("negative_binomial", lam=0.5, r=1.0),
        "hp_profile": base("hyper_poisson", lam=1.0, tau=1.0),
        "zip": mixture(base("poisson", lam=1.0), "zero_inflated", (0,), (0.1,)),
    }
    for q in FIT_QS:
        out[f"poisson_t2_q{q}"] = infdef(base("poisson", lam=1.0), spec("type2", (q,), (1.0,)))
    for k in FIT_MI_POINTS:
        out[f"mi_{k}"] = mixture(base("poisson", lam=1.0), "multiple_inflation", (0, k), (0.05, 0.05))
    return out


def sim_model(bd, doc):
    """Model and birth-death rates of one simulate-workload model document."""
    base = bd.BaseDistribution(doc["kind"], lam=doc["lam"], **doc.get("shape", {}))
    if doc["name"] == "zip_type1":
        alphas = bd.alpha_from_omega(base, (0,), (doc["omega"],))
        model = bd.InfDefDistribution(base, bd.InflationSpec("type1", (0,), alphas))
    elif doc["name"] == "poisson_type2":
        model = bd.InfDefDistribution(base, bd.InflationSpec("type2", (doc["q"],), (doc["phi"],)))
    else:
        model = base
    rates = bd.canonical_rates(bd.model_ratio_sequence(model), scheme=doc["scheme"])
    return model, rates


def surface_models(bd, doc):
    out = []
    for s in doc["surfaces"]:
        base = bd.BaseDistribution(s["kind"], lam=s["lams"][0], **s["shape"])
        out.append(bd.InfDefDistribution(base, bd.InflationSpec(s["family"], (s["q"],), (s["phis"][0],))))
    return out


def build(bd, workload, doc):
    if workload == "fit":
        return fit_templates(bd)
    if workload == "surface":
        return surface_models(bd, doc)
    if workload == "simulate":
        return [sim_model(bd, m) for m in doc["models"]]
    from bdcount.cli import build_parser

    return build_parser()


def _setup(workload):
    doc = json.load(sys.stdin)
    t0 = time.perf_counter()
    import bdcount

    t1 = time.perf_counter()
    build(bdcount, workload, doc)
    t2 = time.perf_counter()
    print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0}))
    return 0


def _cli(trace_path, argv):
    t0 = time.perf_counter()
    import bdcount.cli

    t1 = time.perf_counter()
    import tracing

    tracer = tracing.Tracer().install()
    tracer.enabled = True
    t2 = time.perf_counter()
    code = bdcount.cli.main(argv)
    t3 = time.perf_counter()
    tracer.enabled = False
    sys.stdout.flush()
    agg = tracer.aggregates()
    agg.update(import_s=t1 - t0, main_s=t3 - t2, memo_entries=tracing.memo_entries(), spans=list(tracer.spans.rows()))
    with open(trace_path, "w") as fh:
        json.dump(agg, fh)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(_setup(sys.argv[2]))
    sys.exit(_cli(sys.argv[2], sys.argv[3:]))
