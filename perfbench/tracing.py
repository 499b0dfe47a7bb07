"""Spans around bdcount's public functions, installed from outside the package.

install() replaces each target function (or method) with a wrapper that
records a span: its name, start, end, parent span and operation id.  Every
reference to the original object in the bdcount modules is replaced, so calls
made through `from .x import y` copies are seen too.  Spans stay in memory and
are written when the run ends; per-name call counts, total time and self time
(span time minus the time covered by its child spans) are kept as the spans
close.  A target that no longer exists is reported as absent instead of
failing the run, because later versions of the library may move it.
"""

import dataclasses
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np


def _count_terms(tracer, args, kwargs):
    """Count ratio evaluations (array calls count one term per index)."""
    ratio, *rest = args
    if not dataclasses.is_dataclass(ratio):
        tracer.absent.setdefault("stationary.series_terms", "ratio sequence is not a dataclass")
        return args, kwargs
    inner = ratio.eval

    def counted(n):
        tracer.counts["stationary.series_terms"] += int(np.size(n))
        return inner(n)

    return (dataclasses.replace(ratio, eval=counted), *rest), kwargs


def _fit_done(tracer, result):
    # A mixture fit delegates to one inner fit_mle call with the same
    # iteration count; count only fits that no other fit encloses.
    if tracer.open_count["fit.fit_mle"] == 0:
        tracer.counts["fit.newton_iterations"] += int(result.iterations)
        tracer.counts["fit.unconverged_fits"] += not result.converged
        if tracer.open_count["fit.profile_fit"]:
            tracer.counts["fit.profile_inner_fits"] += 1


def _index_done(tracer, result):
    if tracer.open_count["moments.contour"]:
        tracer.counts["moments.contour_evals"] += 1


def _ctmc_done(tracer, result):
    tracer.counts["simulate.events"] += int(result.metadata["events"])
    tracer.maxima["simulate.max_state"] = max(
        tracer.maxima.get("simulate.max_state", 0), int(result.metadata["max_state"])
    )


# (span name, module, attribute path, hook on the arguments, hook on the result)
TARGETS = (
    ("stationary.series", "bdcount.stationary", "log_ratio_series_sum", _count_terms, None),
    ("stationary.base_logpmf", "bdcount.stationary", "base_logpmf", None, None),
    ("models.infdef_log_z", "bdcount.models", "infdef_log_z", None, None),
    ("models.logpmf", "bdcount.models", "model_logpmf", None, None),
    ("models.logpmf", "bdcount.models", "mixture_logpmf", None, None),
    ("models.logpmf", "bdcount.models", "InfDefDistribution.logpmf", None, None),
    ("expfamily.A", "bdcount.expfamily", "CanonicalForm.A", None, None),
    ("expfamily.grad_A", "bdcount.expfamily", "grad_A", None, None),
    ("expfamily.hess_A", "bdcount.expfamily", "hess_A", None, None),
    ("fit.fit_mle", "bdcount.fit", "fit_mle", None, _fit_done),
    ("fit.profile_fit", "bdcount.fit", "profile_fit", None, None),
    ("fit.from_counts", "bdcount.fit", "CountSample.from_counts", None, None),
    ("fit.sample_counts", "bdcount.fit", "sample_counts", None, None),
    ("moments.closed", "bdcount.moments", "moments_closed", None, None),
    ("moments.direct", "bdcount.moments", "moments_direct", None, None),
    ("moments.index_at", "bdcount.moments", "dispersion_index_at", None, _index_done),
    ("moments.contour", "bdcount.moments", "equidispersion_contour", None, None),
    ("moments.surface", "bdcount.moments", "dispersion_surface", None, None),
    ("simulate.run_ctmc", "bdcount.simulate", "run_ctmc", None, _ctmc_done),
    ("simulate.tv", "bdcount.simulate", "tv_distance", None, None),
    ("cli.read_data", "bdcount.cli", "read_count_data", None, None),
)


class Spans:
    """Every closed span, column by column (about 44 bytes a span)."""

    HEADER = "span_id,name,start_s,end_s,parent_id,op_id"

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.cols = (array("q"), array("i"), array("d"), array("d"), array("q"), array("q"))

    def __len__(self):
        return len(self.cols[0])

    def append(self, span_id, name, start, end, parent, op):
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        ids, names, starts, ends, parents, ops = self.cols
        ids.append(span_id)
        names.append(index)
        starts.append(start)
        ends.append(end)
        parents.append(-1 if parent is None else parent)
        ops.append(op)

    def rows(self):
        """(span id, name, start, end, parent id or None, op id) tuples."""
        for sid, index, start, end, parent, op in zip(*self.cols):
            yield sid, self.names[index], start, end, None if parent < 0 else parent, op


class Tracer:
    """Span recorder; spans are kept only while enabled is true."""

    def __init__(self):
        self.enabled = False
        self.op_id = 0
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = {}
        self.absent = {}
        self.open_count = Counter()
        self.spans = Spans()
        self._stack = []  # open spans: [span id, name, start, covered child time]
        self._next_id = 0
        self._restore = []

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [tracer._next_id, name, time.perf_counter(), 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            tracer.open_count[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.open_count[name] -= 1
                dur = end - frame[2]
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - frame[3]
                if parent is not None:
                    parent[3] += dur
                tracer.spans.append(frame[0], name, frame[2], end, None if parent is None else parent[0], tracer.op_id)
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def install(self):
        """Wrap every target that exists; record the others as absent."""
        found = Counter()
        for name, module_name, path, before, after in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.setdefault(f"{module_name}.{path}", "not found")
                continue
            found[name] += 1
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, before, after)))
                self._restore.append((owner, attr, raw))
                continue
            traced = self.wrap(name, raw, before, after)
            if isinstance(owner, type):
                setattr(owner, attr, traced)
                self._restore.append((owner, attr, raw))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "bdcount" or mod_name.startswith("bdcount."):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, traced)
                            self._restore.append((mod, key, raw))
        for name, _, path, _, _ in TARGETS:
            if not found[name]:
                self.absent.setdefault(name, f"no target found ({path})")
        return self

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore = []

    def aggregates(self):
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "absent": dict(self.absent),
        }

    def merge(self, agg):
        """Add aggregates and spans recorded by another process (a traced CLI
        child).  Its spans join the current operation with renumbered ids;
        on Linux perf_counter is the system-wide monotonic clock, so their
        times line up with this process's."""
        offset = self._next_id
        for sid, name, start, end, parent, _ in agg["spans"]:
            self.spans.append(sid + offset, name, start, end, None if parent is None else parent + offset, self.op_id)
            self._next_id = max(self._next_id, sid + offset + 1)
        self.calls.update(agg["calls"])
        self.counts.update(agg["counts"])
        for key in ("total_s", "self_s"):
            target = getattr(self, key)
            for name, value in agg[key].items():
                target[name] += value
        for name, value in agg["maxima"].items():
            self.maxima[name] = max(self.maxima.get(name, value), value)
        for name, reason in agg["absent"].items():
            self.absent.setdefault(name, reason)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write(Spans.HEADER + "\n")
            for sid, name, start, end, parent, op in self.spans.rows():
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{'' if parent is None else parent},{op}\n")


def memo_entries():
    """Size of the base-normalizer memo, or None where the library has none."""
    module = sys.modules.get("bdcount.stationary")
    memo = getattr(module, "_log_base_norm", None)
    info = getattr(memo, "cache_info", None)
    return None if info is None else int(info().currsize)
