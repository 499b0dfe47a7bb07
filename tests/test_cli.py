"""End-to-end command-line checks through subprocess calls."""

import importlib
import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdcount
from bdcount import CountSample, DomainError, canonicalize, equidispersion_phi, model_from_document
from bdcount.cli import read_count_data

SCI_12 = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,}$")

POISSON_SPEC = {"family": "base", "base": {"kind": "poisson", "lambda": 2.0}}
PERTURBED_SPEC = {
    "family": "type1",
    "base": {"kind": "poisson", "lambda": 2.3},
    "points": [0],
    "factors": [2.2],
}


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "bdcount", *argv], capture_output=True, text=True
    )


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_pmf_csv_format(tmp_path):
    spec = write_spec(tmp_path, POISSON_SPEC)
    proc = run_cli("pmf", "--spec", spec, "--n-max", "12")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "n,p,cumulative"
    body = [l for l in lines[1:] if not l.startswith("#")]
    assert len(body) == 13
    for row in body:
        n, p, c = row.split(",")
        assert SCI_12.match(p) and SCI_12.match(c)
    assert abs(float(body[2].split(",")[1]) - 2.0 * math.exp(-2.0)) < 1e-12
    footers = [l for l in lines if l.startswith("#")]
    assert footers[0].startswith("# mean,") and footers[1].startswith("# variance,")
    assert abs(float(footers[0].split(",")[1]) - 2.0) < 1e-9


def test_pmf_json_format(tmp_path):
    spec = write_spec(tmp_path, PERTURBED_SPEC)
    proc = run_cli("pmf", "--spec", spec, "--n-max", "40", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["n"][:3] == [0, 1, 2]
    assert abs(sum(doc["p"]) - 1.0) < 1e-9
    assert abs(doc["cumulative"][-1] - sum(doc["p"])) < 1e-12


def test_pmf_out_file(tmp_path):
    spec = write_spec(tmp_path, POISSON_SPEC)
    out = tmp_path / "table.csv"
    proc = run_cli("pmf", "--spec", spec, "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert out.read_text().startswith("n,p,cumulative")


def test_moments_csv(tmp_path):
    spec = write_spec(tmp_path, POISSON_SPEC)
    proc = run_cli("moments", "--spec", spec)
    assert proc.returncode == 0
    header, row = proc.stdout.strip().split("\n")
    assert header.split(",")[:2] == ["mean", "variance"]
    values = [float(v) for v in row.split(",")]
    assert abs(values[0] - 2.0) < 1e-9
    assert abs(values[2] - 1.0) < 1e-9


def test_fit_counts_file(tmp_path):
    data = tmp_path / "counts.csv"
    data.write_text("0\n0\n1\n2\n")
    proc = run_cli("fit", "--data", str(data), "--kind", "poisson")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["converged"] is True
    assert abs(math.exp(doc["eta_hat"][0]) - 0.75) < 1e-8
    assert doc["model"]["base"]["kind"] == "poisson"
    assert doc["sample_size"] == 4.0


def test_fit_frequency_file_with_header(tmp_path):
    data = tmp_path / "freqs.csv"
    data.write_text("value,count\n0,10\n1,14\n2,9\n3,4\n")
    proc = run_cli("fit", "--data", str(data), "--kind", "geometric", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "key,value"
    table = dict(l.split(",", 1) for l in lines[1:])
    assert table["converged"] == "True"
    assert SCI_12.match(table["eta_0"])
    ## geometric MLE matches the sample mean 44/37
    lam_hat = math.exp(float(table["eta_0"]))
    mean = 44.0 / 37.0
    assert abs(lam_hat - mean / (1.0 + mean)) < 1e-8


def test_fit_profile_grid(tmp_path):
    rng = np.random.default_rng(50)
    counts = rng.poisson(2.0, size=300)
    data = tmp_path / "c.csv"
    data.write_text("\n".join(str(int(c)) for c in counts) + "\n")
    proc = run_cli(
        "fit", "--data", str(data), "--kind", "negative_binomial", "--r", "2.0",
        "--profile", "r", "--profile-grid", "1.0,4.0,16.0",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["nuisance"]["name"] == "r"
    assert doc["nuisance"]["value"] > 0.0


def test_fit_nonconvergence_exit_code(tmp_path, monkeypatch, capsys):
    from bdcount import cli, fit

    data = tmp_path / "d.csv"
    data.write_text("0\n1\n1\n2\n5\n")
    real = fit.fit_mle

    def stubborn(template, sample, policy, **kw):
        return replace(real(template, sample, policy, **kw), converged=False)

    monkeypatch.setattr(fit, "fit_mle", stubborn)
    rc = cli.main(["fit", "--data", str(data), "--kind", "poisson"])
    capsys.readouterr()
    assert rc == 3


def test_fit_mixture_variant_is_honoured(tmp_path):
    counts = [0] * 37 + [1] * 20 + [2] * 25 + [3] * 12 + [5] * 6
    data = tmp_path / "zeros.csv"
    data.write_text("\n".join(map(str, counts)) + "\n")
    args = ("fit", "--data", str(data), "--kind", "poisson", "--family", "mixture")
    hurdle = run_cli(*args, "--points", "0", "--variant", "hurdle")
    assert hurdle.returncode == 0
    model = json.loads(hurdle.stdout)["model"]
    assert model["variant"] == "hurdle"
    assert abs(model["pi"] - 0.37) < 1e-8
    ## the default keeps zero_inflated at point 0 and multiple_inflation elsewhere
    assert json.loads(run_cli(*args, "--points", "0").stdout)["model"]["variant"] == "zero_inflated"
    assert json.loads(run_cli(*args, "--points", "0,3").stdout)["model"]["variant"] == "multiple_inflation"
    ## an unknown variant, or one the points cannot carry, is invalid input
    assert run_cli(*args, "--points", "0", "--variant", "bogus").returncode == 2
    assert run_cli(*args, "--points", "0,3", "--variant", "haslett").returncode == 2


def test_surface_csv_and_nan_nodes(tmp_path):
    proc = run_cli(
        "surface", "--kind", "geometric", "--q", "2",
        "--lambda-grid", "0.5:1.5:5", "--phi-grid", "0.2:2.0:4",
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "lambda,phi,index"
    assert len(lines) == 1 + 5 * 4
    ## nodes past lambda = 1 have no stationary law and print as nan
    assert any(row.endswith(",nan") for row in lines[1:])
    assert any(not row.endswith(",nan") for row in lines[1:])


def test_surface_svg(tmp_path):
    out = tmp_path / "surface.svg"
    proc = run_cli(
        "surface", "--kind", "poisson", "--q", "3",
        "--lambda-grid", "0.5:4.0:12", "--phi-grid", "0.1:1.5:10",
        "--format", "svg", "--out", str(out),
    )
    assert proc.returncode == 0
    svg = out.read_text()
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") > 50
    ## the unit-index contour crosses this window
    assert "<polyline" in svg


def test_contour_known_root(tmp_path):
    proc = run_cli(
        "contour", "--kind", "poisson", "--q", "3", "--phi", "0.2",
        "--lambda-range", "0.05:10",
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "phi,lambda_root"
    roots = [float(l.split(",")[1]) for l in lines[1:] if not l.startswith("#")]
    assert len(roots) == 1
    assert abs(roots[0] - 2.055) < 5e-3


def test_contour_degenerate(tmp_path):
    proc = run_cli(
        "contour", "--kind", "poisson", "--q", "2", "--phi", "1.0",
        "--lambda-range", "0.1:5", "--format", "json",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["degenerate"] is True
    assert doc["roots"] == []


def test_equiphi_row(tmp_path):
    proc = run_cli("equiphi", "--lambda", "3.2", "--q", "2")
    assert proc.returncode == 0
    header, row = proc.stdout.strip().split("\n")
    assert header == "lambda,q,phi,mean,variance"
    cells = row.split(",")
    assert abs(float(cells[2]) - equidispersion_phi(3.2, 2)) < 1e-10
    assert abs(float(cells[3]) - 2.0) < 1e-9
    assert abs(float(cells[4]) - 2.0) < 1e-9


def test_simulate_deterministic_output(tmp_path):
    spec = write_spec(tmp_path, POISSON_SPEC)
    argv = ("simulate", "--spec", spec, "--seed", "31", "--sample-time", "400")
    a = run_cli(*argv)
    b = run_cli(*argv)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    lines = a.stdout.strip().split("\n")
    metadata = json.loads(lines[0].lstrip("# "))
    assert metadata["seed"] == 31
    assert metadata["scheme"] == "linear"
    assert metadata["rng"].startswith("numpy.random.default_rng")
    assert lines[1] == "state,weight"
    assert lines[-1].startswith("# tv_distance,")
    weights = [float(l.split(",")[1]) for l in lines[2:-1]]
    assert abs(sum(weights) - 1.0) < 1e-9


def test_simulate_out_file_prints_tv(tmp_path):
    spec = write_spec(tmp_path, POISSON_SPEC)
    out = tmp_path / "occupancy.csv"
    proc = run_cli(
        "simulate", "--spec", spec, "--seed", "5", "--sample-time", "300",
        "--out", str(out),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("tv_distance,")
    assert float(proc.stdout.split(",")[1]) < 0.5
    assert out.read_text().splitlines()[1] == "state,weight"


def test_simulate_mixture_spec(tmp_path):
    spec = write_spec(tmp_path, {
        "family": "mixture", "variant": "zero_inflated",
        "base": {"kind": "poisson", "lambda": 2.0}, "points": [0], "omegas": [0.2],
    })
    proc = run_cli(
        "simulate", "--spec", spec, "--seed", "17", "--sample-time", "2000",
        "--format", "json",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["tv_distance"] < 0.1


def test_simulate_hurdle_without_type1_law_exits_2(tmp_path):
    spec = write_spec(tmp_path, {
        "family": "mixture", "variant": "hurdle",
        "base": {"kind": "poisson", "lambda": 800}, "pi": 0.5,
    })
    proc = run_cli("simulate", "--spec", spec, "--seed", "1", "--sample-time", "10")
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_fit_profile_boundary_key(tmp_path):
    ## Underdispersed counts put the NB maximum at r -> inf, past any grid.
    data = tmp_path / "c.csv"
    data.write_text("\n".join(str(int(c)) for c in np.random.default_rng(50).poisson(2.0, 300)) + "\n")
    args = ("fit", "--data", str(data), "--kind", "negative_binomial", "--profile", "r")
    edge = run_cli(*args, "--profile-grid", "1.0,4.0,16.0")
    assert edge.returncode == 0
    doc = json.loads(edge.stdout)
    assert doc["boundary"] == {"name": "r", "side": "upper"}
    assert doc["nuisance"]["value"] > 16.0
    csv = run_cli(*args, "--profile-grid", "1.0,4.0,16.0", "--format", "csv")
    assert csv.returncode == 0 and "boundary,r:upper" in csv.stdout.split("\n")
    ## Overdispersed counts: an interior maximum writes no boundary key.
    rng = np.random.default_rng(3)
    data.write_text("\n".join(str(int(c)) for c in rng.poisson(rng.gamma(4.0, 0.5, 300))) + "\n")
    inner = run_cli(*args, "--profile-grid", "1.0,4.0,16.0")
    assert inner.returncode == 0 and "boundary" not in json.loads(inner.stdout)
    csv = run_cli(*args, "--profile-grid", "1.0,4.0,16.0", "--format", "csv")
    assert csv.returncode == 0 and "boundary" not in csv.stdout


def test_exit_code_2_cases(tmp_path):
    missing = run_cli("pmf", "--spec", str(tmp_path / "nope.json"))
    assert missing.returncode == 2 and "error:" in missing.stderr

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli("pmf", "--spec", str(broken)).returncode == 2

    bad_param = write_spec(tmp_path, {
        "family": "base", "base": {"kind": "geometric", "lambda": 1.2}
    }, "bad.json")
    proc = run_cli("pmf", "--spec", bad_param)
    assert proc.returncode == 2 and "error:" in proc.stderr

    bad_family = write_spec(tmp_path, {
        "family": "type3", "base": {"kind": "poisson", "lambda": 1.0},
        "points": [0], "factors": [2.0],
    }, "fam.json")
    assert run_cli("pmf", "--spec", bad_family).returncode == 2

    spec = write_spec(tmp_path, POISSON_SPEC)
    zero_time = run_cli("simulate", "--spec", spec, "--seed", "1", "--sample-time", "0")
    assert zero_time.returncode == 2

    assert run_cli().returncode == 2


def test_exit_code_4_state_guard(tmp_path):
    spec = write_spec(tmp_path, POISSON_SPEC)
    proc = run_cli(
        "simulate", "--spec", spec, "--seed", "2", "--sample-time", "5000",
        "--max-state", "3",
    )
    assert proc.returncode == 4
    assert "guard bound" in proc.stderr


def test_exit_code_4_series_cap(tmp_path):
    slow = write_spec(tmp_path, {
        "family": "base", "base": {"kind": "cmp", "lambda": 0.9999, "nu": 1e-6}
    }, "slow.json")
    proc = run_cli("pmf", "--spec", slow, "--max-terms", "1000")
    assert proc.returncode == 4
    assert "error:" in proc.stderr


def test_spec_series_block(tmp_path):
    doc = {
        "family": "base",
        "base": {"kind": "cmp", "lambda": 0.9999, "nu": 1e-6},
        "series": {"max_terms": 1000},
    }
    capped = write_spec(tmp_path, doc, "capped.json")
    proc = run_cli("pmf", "--spec", capped, "--n-max", "3")
    assert proc.returncode == 4

    ## an explicit flag wins over the file block
    proc = run_cli("pmf", "--spec", capped, "--n-max", "3", "--max-terms", "2000000")
    assert proc.returncode == 0

    bad = write_spec(tmp_path, {**doc, "series": {"cap": 10}}, "bad_series.json")
    proc = run_cli("pmf", "--spec", bad, "--n-max", "3")
    assert proc.returncode == 2
    assert "series" in proc.stderr


def test_cli_roundtrip_pmf_to_fit(tmp_path):
    spec = write_spec(tmp_path, PERTURBED_SPEC)
    table = run_cli("pmf", "--spec", spec, "--n-max", "80", "--format", "json")
    assert table.returncode == 0
    doc = json.loads(table.stdout)
    data = tmp_path / "table.csv"
    data.write_text("\n".join(f"{n},{p * 1e6}" for n, p in zip(doc["n"], doc["p"])) + "\n")
    fit = run_cli(
        "fit", "--data", str(data), "--kind", "poisson",
        "--family", "type1", "--points", "0",
    )
    assert fit.returncode == 0
    eta_hat = np.asarray(json.loads(fit.stdout)["eta_hat"])
    eta_true = canonicalize(model_from_document(PERTURBED_SPEC)).eta
    assert np.all(np.abs(eta_hat - eta_true) < 1e-6)


def test_cold_import_loads_no_scipy():
    ## numpy is the only runtime dependency; scipy serves the tests as an oracle.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bdcount.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cold_commands_load_only_their_modules(tmp_path):
    ## The fitter, its canonical form and the simulator stay unloaded until a command runs them.
    unused = {"bdcount.fit", "bdcount.expfamily", "bdcount.simulate"}
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, bdcount.cli; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert unused.isdisjoint(json.loads(proc.stdout))

    ## -X importtime lists every module the run imports, one per stderr line.
    spec = write_spec(tmp_path, PERTURBED_SPEC)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "bdcount", "pmf", "--spec", spec],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "bdcount.moments" in loaded
    assert unused.isdisjoint(loaded)


def test_package_names_resolve_to_their_home_modules(monkeypatch):
    for module, names in bdcount._EXPORTS.items():
        home = importlib.import_module(f"bdcount.{module}")
        for name in names:
            assert getattr(bdcount, name) is getattr(home, name)
    assert set(bdcount.__all__) <= set(dir(bdcount))
    with pytest.raises(AttributeError):
        bdcount.no_such_name
    namespace = {}
    exec("from bdcount import *", namespace)
    assert set(bdcount.__all__) <= set(namespace)

    ## Every bd.<name> the benchmark harness reads must stay a package name.
    harness = Path(__file__).resolve().parent.parent / "perfbench"
    if harness.is_dir():
        read = set()
        for script in ("workloads", "child", "run", "selfcheck"):
            read |= set(re.findall(r"\bbd\.(\w+)", (harness / f"{script}.py").read_text()))
        missing = sorted(name for name in read if not hasattr(bdcount, name))
        assert len(read) >= 20 and missing == []

    ## Nothing is cached in the package: a name patched at home is what the package returns.
    sentinel = object()
    monkeypatch.setattr("bdcount.simulate.run_ctmc", sentinel)
    assert bdcount.run_ctmc is sentinel


@pytest.mark.parametrize(
    "text, message",
    [
        ("1\ninf\n", "counts must be non-negative integers"),
        ("1\nnan\n", "counts must be non-negative integers"),
        ("1\n1e400\n", "counts must be non-negative integers"),
        ("value,count\n1,3\nnan,2\n", "values must be non-negative integers"),
    ],
)
def test_fit_non_finite_counts_exit_2(tmp_path, text, message):
    data = tmp_path / "bad.csv"
    data.write_text(text)
    proc = run_cli("fit", "--data", str(data), "--kind", "poisson")
    assert proc.returncode == 2
    assert f"error: {message}" in proc.stderr


@pytest.mark.parametrize(
    "argv, content",
    [
        (("fit", "--kind", "poisson", "--data"), b"1\n\xff2\n"),
        (("pmf", "--spec"), b'{"family": "base", "base": {"kind": "poisson\xff", "lambda": 2.0}}'),
    ],
    ids=["csv", "json"],
)
def test_non_utf8_input_exits_2(tmp_path, argv, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    proc = run_cli(*argv, str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("surface", "--kind", "poisson", "--q", "2", "--phi-grid", "0.5:2:5", "--lambda-grid", "0.5:2:3.5"), "grid"),
        (("surface", "--kind", "poisson", "--q", "2", "--phi-grid", "0.5:2:5", "--lambda-grid", "0.5:x:3"), "grid"),
        (("surface", "--kind", "poisson", "--q", "2", "--phi-grid", "0.5:2:5", "--lambda-grid", "0.5:inf:3"), "grid"),
        (("contour", "--kind", "poisson", "--q", "3", "--phi", "0.5", "--lambda-range", "0.5:y"), "range"),
        (("contour", "--kind", "poisson", "--q", "3", "--phi", "0.5", "--lambda-range", "0.5:inf"), "need"),
        (("fit", "--kind", "poisson", "--family", "type1", "--points", "0,a", "--data", "{data}"), "--points"),
        (("fit", "--kind", "negative_binomial", "--profile", "r", "--profile-grid", "1,x", "--data", "{data}"),
         "--profile-grid"),
        (("simulate", "--seed", "1", "--max-state", "-5", "--spec", "{spec}"), "max_state"),
        (("surface", "--kind", "poisson", "--q", "-2", "--phi-grid", "0.5:2:3", "--lambda-grid", "0.5:2:3"), "q must"),
        (("contour", "--kind", "poisson", "--q", "-2", "--phi", "0.5", "--lambda-range", "0.5:5"), "q must"),
        (("equiphi", "--lambda", "1e308", "--q", "2"), "phi overflows"),
    ],
    ids=["grid-n", "grid-cell", "grid-inf", "range", "range-inf", "points", "profile-grid", "max-state", "surface-q",
         "contour-q", "equiphi-overflow"],
)
def test_unparsable_arguments_exit_2(tmp_path, argv, message):
    data = tmp_path / "counts.csv"
    data.write_text("0\n1\n3\n2\n")
    paths = {"data": str(data), "spec": write_spec(tmp_path, POISSON_SPEC)}
    proc = run_cli(*(arg.format(**paths) for arg in argv))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1


def _reference_read_count_data(path):
    ## The row-by-row reader that the tallying read_count_data replaced, kept as its reference.
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([cell.strip() for cell in line.split(",") if cell.strip() != ""])
    if not rows:
        raise DomainError(f"no data rows in {path}")

    def numeric(row):
        try:
            [float(c) for c in row]
            return True
        except ValueError:
            return False

    if not numeric(rows[0]):
        rows = rows[1:]
    if not rows or not all(numeric(r) for r in rows):
        raise DomainError(f"non-numeric data rows in {path}")
    widths = {len(r) for r in rows}
    if widths == {1}:
        vals = [float(r[0]) for r in rows]
        if any(v != int(v) or v < 0 for v in vals):
            raise DomainError("counts must be non-negative integers")
        return CountSample.from_counts(int(v) for v in vals)
    if widths == {2}:
        table = {}
        for r in rows:
            val = float(r[0])
            if val != int(val) or val < 0:
                raise DomainError("values must be non-negative integers")
            table[int(val)] = table.get(int(val), 0.0) + float(r[1])
        return CountSample.from_frequencies(table)
    raise DomainError(f"expected 1 or 2 columns, got widths {sorted(widths)}")


## Cells: mostly small counts (so values repeat) and other spellings of a
## count; now and then a fractional, negative, non-finite or non-numeric cell.
## Later columns also hold fractional frequencies, and 1e16, which absorbs a
## following 1 but not a following 2, so the order of a sum shows in its bits.
_ODD = ["0.1", "0.2", "0.7", "2.5", "1e-3", "-1", "inf", "nan", "1e400", "x", "n/a"]
_COUNTS = ["0", "1", "2", "3", "4", "3.0", "+3", "1e2", "1_0"]


def _padded(cells):
    spaces = st.sampled_from(["", " ", "  ", "\t", "\x0c"])  # a form feed ends no line
    return st.tuples(spaces, st.sampled_from(cells), spaces).map("".join)


_FIRST = _padded(_COUNTS * 12 + _ODD)
_LATER = _padded(["1", "2", "3", "0.1", "0.2", "0.7", "2.5", "1e16"] * 6 + _ODD)
_NOISE = st.sampled_from(["", "   ", "# comment", "  # indented, comment"])
_HEADERS = st.sampled_from(["count", "value,count", "\ufeffcount", "\ufeffvalue, count", "a,b,c"])


@st.composite
def _csv_texts(draw):
    width = draw(st.sampled_from([1, 2, 1, 2, 3]))
    row = st.tuples(_FIRST, *[_LATER] * (width - 1))
    rows = draw(st.lists(row, min_size=1, max_size=12))
    if draw(st.integers(0, 5)) == 0:
        rows.append(draw(st.lists(_FIRST, min_size=1, max_size=3)))  # a row of another width
    distinct = [",".join(r) + "," * draw(st.integers(0, 2)) for r in rows]  # with trailing empty cells
    lines = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=24))  # lines repeat
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_NOISE))
    header = draw(_HEADERS)
    for at in draw(st.sampled_from([[], [], [0], [0], [1], [0, 3]])):  # a header, first or not, once or twice
        lines.insert(min(at, len(lines)), header)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    ends[-1] = draw(st.sampled_from(["", "\n", "\r\n"]))  # with or without a final line end
    return "".join(line + end for line, end in zip(lines, ends))


def _read(reader, path):
    try:
        return reader(path)
    except (OverflowError, ValueError) as exc:  # DomainError is a ValueError
        return exc


@settings(max_examples=400)
@given(text=_csv_texts())
def test_read_count_data_matches_the_row_by_row_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    ref, new = _read(_reference_read_count_data, path), _read(read_count_data, path)
    if isinstance(ref, CountSample):
        assert isinstance(new, CountSample), new
        assert new.values == ref.values
        assert [f.hex() for f in new.freqs] == [f.hex() for f in ref.freqs]
    elif isinstance(ref, DomainError):
        assert type(new) is DomainError and str(new) == str(ref)
    else:
        ## a non-finite count or value: the reference's untyped error is now invalid input
        assert type(new) is DomainError
        assert str(new) in ("counts must be non-negative integers", "values must be non-negative integers")
