"""Command-line interface.

Subcommands: pmf, moments, fit, surface, contour, simulate, equiphi.  Model
inputs come from a JSON document (--spec) shaped like

    {"family": "type2", "base": {"kind": "poisson", "lambda": 2.6},
     "points": [2], "factors": [0.31]}

with family one of "base", "type1", "type2", or "mixture" (plus "variant" and
its parameters).  Count data (--data) is CSV: either one count per line or
value,count rows.  Blank and '#' lines are skipped, cells are stripped, and
the first data line may be a header; a count or value that is not a finite
non-negative integer is invalid input.

Each command imports only the modules it runs: `fit`, `moments` and
`simulate` are loaded inside the commands that use them, so that a cold
`python -m bdcount pmf` never compiles the fitter or the simulator.

Exit codes: 0 success, 2 invalid input or inadmissible parameters, 3 fit did
not converge, 4 resource guard tripped (series cap or state explosion).
CSV numbers are written with 12 significant digits.
"""

import argparse
import json
import math
import sys
from collections import Counter

import numpy as np

from .errors import (
    DivergenceError,
    DomainError,
    SeriesCapError,
    StateExplosionError,
    UnsupportedFamilyError,
)
from .models import MIXTURE_VARIANTS, InfDefDistribution, InflationSpec, MixtureModel, model_from_document
from .stationary import SHAPE_PARAM, BaseDistribution, SeriesPolicy


def fmt(x):
    """Fixed 12 significant digits, '.' decimal separator."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.11e}"


def _policy_from(args, series=None):
    """Resolve the series policy: defaults, then the spec file block,
    then explicit command-line flags."""
    rel_tol = SeriesPolicy().rel_tol
    max_terms = SeriesPolicy().max_terms
    if series is not None:
        if not isinstance(series, dict):
            raise DomainError("'series' must be an object")
        extra = set(series) - {"rel_tol", "max_terms"}
        if extra:
            raise DomainError(f"unknown series fields {sorted(extra)}")
        rel_tol = series.get("rel_tol", rel_tol)
        max_terms = series.get("max_terms", max_terms)
    if args.rel_tol is not None:
        rel_tol = args.rel_tol
    if args.max_terms is not None:
        max_terms = args.max_terms
    return SeriesPolicy(rel_tol=rel_tol, max_terms=max_terms)


def _load_spec(args):
    with open(args.spec) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DomainError("model document must be a JSON object")
    policy = _policy_from(args, series=doc.pop("series", None))
    return model_from_document(doc, policy), policy


def _write(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cells(text, sep, converts, form):
    """text split at sep, cell i read by converts[i] (every cell, if converts is one callable); else DomainError."""
    parts = text.split(sep)
    converts = (converts,) * len(parts) if callable(converts) else converts
    try:
        if len(parts) == len(converts):
            return [convert(part) for convert, part in zip(converts, parts)]
    except ValueError:
        pass
    raise DomainError(f"{form}, got {text!r}")


def _grid(text):
    lo, hi, num = _cells(text, ":", (float, float, int), "grid must be lo:hi:n with an integer n")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi and num >= 2):
        raise DomainError(f"grid needs finite lo < hi and n >= 2, got {text!r}")
    return np.linspace(lo, hi, num)


def _range(text):
    return tuple(_cells(text, ":", (float, float), "range must be lo:hi"))


def cmd_pmf(args):
    from .moments import moments_direct

    model, policy = _load_spec(args)
    if args.n_max < 0:
        raise DomainError(f"--n-max must be non-negative, got {args.n_max}")
    ns = np.arange(args.n_max + 1)
    p = np.atleast_1d(model.pmf(ns, policy))
    cum = np.cumsum(p)
    summ = moments_direct(model, policy)
    if args.format == "json":
        _write(args, json.dumps({
            "n": ns.tolist(),
            "p": p.tolist(),
            "cumulative": cum.tolist(),
            "mean": summ.mean,
            "variance": summ.variance,
        }, indent=2) + "\n")
    else:
        lines = ["n,p,cumulative"]
        lines += [f"{n},{fmt(a)},{fmt(c)}" for n, a, c in zip(ns, p, cum)]
        lines.append(f"# mean,{fmt(summ.mean)}")
        lines.append(f"# variance,{fmt(summ.variance)}")
        _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_moments(args):
    from .moments import moments_direct

    model, policy = _load_spec(args)
    summ = moments_direct(model, policy)
    fields = (
        "mean",
        "variance",
        "dispersion_index",
        "skewness",
        "kurtosis",
        "kurtosis_central_band",
    )
    if args.format == "json":
        _write(args, json.dumps({k: getattr(summ, k) for k in fields}, indent=2) + "\n")
    else:
        lines = [",".join(fields), ",".join(fmt(getattr(summ, k)) for k in fields)]
        _write(args, "\n".join(lines) + "\n")
    return 0


def read_count_data(path):
    """CSV counts: one count per line, or value,count rows.

    Blank and '#' lines are skipped, cells are stripped and empty ones dropped,
    and only the first data line may be a non-numeric header.  The file is
    tallied by raw line, so each distinct line is parsed once.
    """
    from .fit import CountSample

    with open(path) as fh:
        lines = fh.read().split("\n")
    tally = Counter(lines)
    rows = {}  # distinct data line -> its cells as floats (None if one is not a number)
    for line in tally:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        cells = [c.strip() for c in text.split(",")]
        try:
            rows[line] = [float(c) for c in cells if c]
        except ValueError:
            rows[line] = None
    if not rows:
        raise DomainError(f"no data rows in {path}")
    first = next(iter(rows))
    if rows[first] is None and tally[first] == 1:
        del rows[first]
    if not rows or any(r is None for r in rows.values()):
        raise DomainError(f"non-numeric data rows in {path}")
    widths = {len(r) for r in rows.values()}
    if widths not in ({1}, {2}):
        raise DomainError(f"expected 1 or 2 columns, got widths {sorted(widths)}")
    message = "counts must be non-negative integers" if widths == {1} else "values must be non-negative integers"
    if not all(math.isfinite(r[0]) and r[0] >= 0 and r[0] == int(r[0]) for r in rows.values()):
        raise DomainError(message)
    if widths == {1}:
        table = Counter()
        for line, r in rows.items():
            table[int(r[0])] += tally[line]
    else:
        ## fractional frequencies are summed in file order, so they give the same bits
        table = {}
        for line in filter(rows.__contains__, lines):
            val, freq = rows[line]
            table[int(val)] = table.get(int(val), 0.0) + freq
    return CountSample.from_frequencies(table)


def _shape_kwargs_from(args, kind):
    name = SHAPE_PARAM.get(kind)
    if name is None:
        return {}
    if getattr(args, name) is None:
        raise DomainError(f"{kind} requires --{name}")
    return {name: getattr(args, name)}


def _fit_template(args, policy):
    kind = args.kind
    shapes = _shape_kwargs_from(args, kind)
    lam0 = 0.5 if "r" not in shapes else shapes["r"] / 2.0
    base = BaseDistribution(kind=kind, lam=lam0, **shapes)
    if args.family == "base":
        return base
    points = args.points and tuple(_cells(args.points, ",", int, "--points must be comma-separated integers"))
    if not points:
        raise DomainError(f"family {args.family!r} requires --points")
    family = "type1" if args.family == "mixture" else args.family
    template = InfDefDistribution(base, InflationSpec(family, points, (1.0,) * len(points)), policy)
    if args.family != "mixture":
        return template
    variant = args.variant or ("zero_inflated" if points == (0,) else "multiple_inflation")
    return MixtureModel.from_type1(template, variant)


def cmd_fit(args):
    from .fit import fit_mle, profile_fit

    policy = _policy_from(args)
    sample = read_count_data(args.data)
    grid = args.profile_grid and _cells(args.profile_grid, ",", float, "--profile-grid must be comma-separated numbers")
    ## a profiled shape parameter needs no explicit flag; the grid supplies it
    if args.profile and grid and getattr(args, args.profile, None) is None:
        setattr(args, args.profile, grid[0])
    template = _fit_template(args, policy)
    if grid:
        result = profile_fit(template, sample, grid, nuisance=args.profile, policy=policy)
    else:
        result = fit_mle(template, sample, policy=policy)
    doc = {
        "model": result.model.to_document(),
        "eta_hat": [float(v) for v in result.eta_hat],
        "loglik": result.loglik,
        "aic": result.aic,
        "bic": result.bic,
        "iterations": result.iterations,
        "converged": result.converged,
        "standard_errors": None if result.standard_errors is None else [float(s) for s in result.standard_errors],
        "se_unstable": result.se_unstable,
        "sample_size": sample.size,
    }
    if result.nuisance is not None:
        doc["nuisance"] = {"name": result.nuisance[0], "value": result.nuisance[1]}
    if result.boundary is not None:
        doc["boundary"] = {"name": result.boundary[0], "side": result.boundary[1]}
    if args.format == "csv":
        lines = ["key,value"]
        for key in ("loglik", "aic", "bic", "iterations", "converged"):
            lines.append(f"{key},{doc[key]}")
        if "boundary" in doc:
            lines.append(f"boundary,{result.boundary[0]}:{result.boundary[1]}")
        for j, v in enumerate(doc["eta_hat"]):
            lines.append(f"eta_{j},{fmt(v)}")
        if doc["standard_errors"] is not None:
            for j, v in enumerate(doc["standard_errors"]):
                lines.append(f"se_{j},{fmt(v)}")
        _write(args, "\n".join(lines) + "\n")
    else:
        _write(args, json.dumps(doc, indent=2) + "\n")
    return 0 if result.converged else 3


def _surface_args(args):
    policy = _policy_from(args)
    shapes = _shape_kwargs_from(args, args.kind)
    return policy, shapes


def cmd_surface(args):
    from .moments import dispersion_surface

    policy, shapes = _surface_args(args)
    lams = _grid(args.lambda_grid)
    phis = _grid(args.phi_grid)
    grid = dispersion_surface(
        args.kind, args.q, lams, phis, family=args.family, policy=policy, **shapes
    )
    if args.format == "json":
        _write(args, json.dumps({
            "lambda": lams.tolist(),
            "phi": phis.tolist(),
            "index": [[None if math.isnan(v) else v for v in row] for row in grid.tolist()],
        }, indent=2) + "\n")
    elif args.format == "svg":
        _write(args, render_surface_svg(lams, phis, grid))
    else:
        lines = ["lambda,phi,index"]
        for i, lam in enumerate(lams):
            for j, phi in enumerate(phis):
                lines.append(f"{fmt(lam)},{fmt(phi)},{fmt(grid[i, j])}")
        _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_contour(args):
    from .moments import equidispersion_contour

    policy, shapes = _surface_args(args)
    lo, hi = _range(args.lambda_range)
    res = equidispersion_contour(
        args.kind, args.q, args.phi, lo, hi, family=args.family, policy=policy, **shapes
    )
    if args.format == "json":
        _write(args, json.dumps({
            "phi": args.phi,
            "roots": list(res.roots),
            "degenerate": res.degenerate,
        }, indent=2) + "\n")
    else:
        lines = ["phi,lambda_root"]
        lines += [f"{fmt(args.phi)},{fmt(root)}" for root in res.roots]
        if res.degenerate:
            lines.append("# degenerate: the dispersion index is 1 along the entire scan")
        _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_simulate(args):
    from .simulate import SimConfig, canonical_rates, run_ctmc, tv_distance

    model, policy = _load_spec(args)
    rates = canonical_rates(model.ratio_sequence(policy), scheme=args.death_rates)
    config = SimConfig(
        seed=args.seed,
        sample_time=args.sample_time,
        burn_in_time=args.burn_in,
        thinning_interval=args.thin,
    )
    result = run_ctmc(rates, config, policy, max_state=args.max_state)
    tv = tv_distance(result, lambda ns: model.pmf(ns, policy))
    if args.format == "json":
        _write(args, json.dumps({
            "metadata": result.metadata,
            "states": result.states.tolist(),
            "weights": result.occupancy().tolist(),
            "tv_distance": tv,
        }, indent=2) + "\n")
        return 0
    occ = result.occupancy()
    lines = ["# " + json.dumps(result.metadata, sort_keys=True)]
    lines.append("state,weight")
    lines += [f"{s},{fmt(w)}" for s, w in zip(result.states, occ)]
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args, text)
        sys.stdout.write(f"tv_distance,{fmt(tv)}\n")
    else:
        sys.stdout.write(text + f"# tv_distance,{fmt(tv)}\n")
    return 0


def cmd_equiphi(args):
    from .moments import equidispersion_phi, moments_closed

    policy = _policy_from(args)
    phi = equidispersion_phi(args.lam, args.q)
    mean = variance = math.nan
    if phi > 0.0:
        base = BaseDistribution(kind="poisson", lam=args.lam)
        spec = InflationSpec(family="type2", points=(args.q,), factors=(phi,))
        mom = moments_closed(InfDefDistribution(base, spec, policy), policy)
        mean, variance = mom.mean, mom.variance
    if args.format == "json":
        _write(args, json.dumps({
            "lambda": args.lam,
            "q": args.q,
            "phi": phi,
            "mean": None if math.isnan(mean) else mean,
            "variance": None if math.isnan(variance) else variance,
        }, indent=2) + "\n")
    else:
        lines = ["lambda,q,phi,mean,variance",
                 f"{fmt(args.lam)},{args.q},{fmt(phi)},{fmt(mean)},{fmt(variance)}"]
        if not phi > 0.0:
            lines.append("# inadmissible: phi must be positive")
        _write(args, "\n".join(lines) + "\n")
    return 0


def _color(t):
    """Blue (t=0) through white (t=0.5) to red (t=1)."""
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        s = t / 0.5
        r, g, b = int(70 + 185 * s), int(100 + 155 * s), 255
    else:
        s = (t - 0.5) / 0.5
        r, g, b = 255, int(255 - 155 * s), int(255 - 185 * s)
    return f"rgb({r},{g},{b})"


def render_surface_svg(lams, phis, grid):
    """Minimal SVG heat map of the dispersion index with the index=1 contour."""
    width, height = 720, 540
    ml, mr, mt, mb = 70, 24, 24, 56
    pw, ph = width - ml - mr, height - mt - mb
    cw, ch = pw / len(lams), ph / len(phis)
    finite = grid[np.isfinite(grid)]
    spread = max(float(np.max(np.abs(finite - 1.0))), 1e-12) if finite.size else 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(len(lams)):
        for j in range(len(phis)):
            v = grid[i, j]
            if not np.isfinite(v):
                continue
            t = 0.5 + 0.5 * (v - 1.0) / spread
            x = ml + i * cw
            y = mt + (len(phis) - 1 - j) * ch
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
                f'fill="{_color(t)}"/>'
            )
    ## index = 1 contour: linear interpolation of sign changes along lambda.
    crossings = []
    for j in range(len(phis)):
        row = []
        for i in range(len(lams) - 1):
            a, b = grid[i, j] - 1.0, grid[i + 1, j] - 1.0
            if np.isfinite(a) and np.isfinite(b) and a * b < 0.0:
                frac = a / (a - b)
                row.append(i + frac)
        crossings.append(row)
    max_branches = max((len(r) for r in crossings), default=0)
    for k in range(max_branches):
        pts = []
        for j, row in enumerate(crossings):
            if len(row) > k:
                x = ml + (row[k] + 0.5) * cw
                y = mt + (len(phis) - 1 - j + 0.5) * ch
                pts.append(f"{x:.2f},{y:.2f}")
            elif pts:
                parts.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="black" stroke-width="1.5"/>')
                pts = []
        if pts:
            parts.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="black" stroke-width="1.5"/>')
    ## axes
    parts.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        lam = lams[0] + frac * (lams[-1] - lams[0])
        phi = phis[0] + frac * (phis[-1] - phis[0])
        x = ml + frac * pw
        y = mt + (1.0 - frac) * ph
        parts.append(f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" y2="{mt + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{mt + ph + 20}" font-size="11" text-anchor="middle">{lam:.3g}</text>')
        parts.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" font-size="11" text-anchor="end">{phi:.3g}</text>')
    parts.append(f'<text x="{ml + pw / 2}" y="{height - 12}" font-size="13" text-anchor="middle">lambda</text>')
    parts.append(f'<text x="16" y="{mt + ph / 2}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 16 {mt + ph / 2})">phi</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _add_common(sub, spec=False, data=False, seed=False):
    sub.add_argument("--rel-tol", type=float, default=None, help="series relative tolerance (default 1e-10)")
    sub.add_argument("--max-terms", type=int, default=None, help="series term cap (default 100000)")
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    if spec:
        sub.add_argument("--spec", required=True, help="model JSON document")
    if data:
        sub.add_argument("--data", required=True, help="count data CSV")
    if seed:
        sub.add_argument("--seed", type=int, required=True, help="RNG seed")


def _add_shape_flags(sub):
    sub.add_argument("--kind", required=True, help="base family kind")
    sub.add_argument("--r", type=float, default=None)
    sub.add_argument("--tau", type=float, default=None)
    sub.add_argument("--nu", type=float, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bdcount",
        description="Stationary birth-death count distributions: evaluation, fitting, simulation.",
    )
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("pmf", help="tabulate a model PMF with cumulative mass")
    _add_common(p, spec=True)
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_pmf)

    p = subs.add_parser("moments", help="moment summary of a model")
    _add_common(p, spec=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_moments)

    p = subs.add_parser("fit", help="maximum-likelihood fit")
    _add_common(p, data=True)
    p.add_argument("--family", choices=("base", "type1", "type2", "mixture"), default="base")
    _add_shape_flags(p)
    p.add_argument("--points", default=None, help="comma-separated perturbation points")
    p.add_argument(
        "--variant", choices=MIXTURE_VARIANTS, default=None,
        help="mixture variant when --family mixture (default zero_inflated at --points 0, else multiple_inflation)",
    )
    p.add_argument("--profile", choices=("r", "tau"), default=None)
    p.add_argument("--profile-grid", default=None, help="comma-separated nuisance grid")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("surface", help="dispersion index over a (lambda, phi) grid")
    _add_common(p)
    _add_shape_flags(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--family", choices=("type1", "type2"), default="type2")
    p.add_argument("--lambda-grid", required=True, help="lo:hi:n")
    p.add_argument("--phi-grid", required=True, help="lo:hi:n")
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.set_defaults(func=cmd_surface)

    p = subs.add_parser("contour", help="equidispersion roots in lambda at fixed phi")
    _add_common(p)
    _add_shape_flags(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--family", choices=("type1", "type2"), default="type2")
    p.add_argument("--lambda-range", required=True, help="lo:hi")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_contour)

    p = subs.add_parser("simulate", help="Gillespie occupancy vs the analytic PMF")
    _add_common(p, spec=True, seed=True)
    p.add_argument("--sample-time", type=float, default=20000.0)
    p.add_argument("--burn-in", type=float, default=None)
    p.add_argument("--thin", type=float, default=1.0)
    p.add_argument("--max-state", type=int, default=None, help="override the trajectory guard bound")
    p.add_argument("--death-rates", choices=("linear", "constant"), default="linear")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("equiphi", help="factor phi equalizing mean and variance")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_equiphi)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (DomainError, DivergenceError, UnsupportedFamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SeriesCapError, StateExplosionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
