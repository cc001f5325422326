"""In-memory spans and counters for the benchmark's traced runs.

Tracer.install() wraps public functions of moduli_traces at every module-level
name bound to them (cli and traces import them by name), and the TraceCache
methods on the class, so each call opens a span (name, start, end, parent,
request id) and updates its layer's counters.  Spans stay in memory until the
run ends.  Span names are "<layer>.<function>"; a layer's self time is the
time its spans cover minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import pkgutil
from collections import defaultdict
from time import perf_counter


def _horner_in_q(a, result, add, hi):
    steps = a["terms"] - a["series"].v + 1
    add("steps", steps)
    add("bit_steps", steps * a["bits"])


def _horner_poly(a, result, add, hi):
    add("steps", len(a["poly"]))


def _plan_precision(a, result, add, hi):
    hi("bits_max", result.bits)
    hi("terms_max", result.terms)


def _enumerate_classes(a, result, add, hi):
    add("classes", len(result))


def _build_hauptmodul(a, result, add, hi):
    hi("max_order", result.order)


def _cache_load(a, result, add, hi):
    add("records", a["self"].stats()["records"])


def _cache_get(a, result, add, hi):
    add("hits", result is not None)


def _count_escalations(tracer, bound):
    """Count calls of round_to_integer's recompute callback: one per escalation."""
    recompute = bound.arguments.get("recompute")
    if recompute is not None:
        def counted(ctx):
            tracer.counts["cm_eval.round_to_integer.escalations"] += 1
            return recompute(ctx)
        bound.arguments["recompute"] = counted


# (span name, module, attribute, counter, argument adapter)
FUNCTIONS = (
    ("qseries.eta_quotient_f", "moduli_traces.qseries", "eta_quotient_f", None, None),
    ("hauptmodul.build_hauptmodul", "moduli_traces.hauptmodul", "build_hauptmodul", _build_hauptmodul, None),
    ("hauptmodul.faber_polys", "moduli_traces.hauptmodul", "faber_polys", None, None),
    ("qforms.class_reps", "moduli_traces.qforms", "class_reps", None, None),
    ("qforms.optimize_height", "moduli_traces.qforms", "optimize_height", None, None),
    ("qforms.enumerate_classes", "moduli_traces.qforms", "enumerate_classes", _enumerate_classes, None),
    ("cm_eval.cm_point_q", "moduli_traces.cm_eval", "cm_point_q", None, None),
    ("cm_eval.horner_in_q", "moduli_traces.cm_eval", "horner_in_q", _horner_in_q, None),
    ("cm_eval.horner_poly", "moduli_traces.cm_eval", "horner_poly", _horner_poly, None),
    ("cm_eval.plan_precision", "moduli_traces.cm_eval", "plan_precision", _plan_precision, None),
    ("cm_eval.round_to_integer", "moduli_traces.cm_eval", "round_to_integer", None, _count_escalations),
    ("traces.trace", "moduli_traces.traces", "trace", None, None),
    ("traces.b_coeff", "moduli_traces.traces", "b_coeff", None, None),
    ("traces.hecke_apply", "moduli_traces.traces", "hecke_apply", None, None),
    ("cli.main", "moduli_traces.cli", "main", None, None),
)

# (span name, method of moduli_traces.traces.TraceCache, counter)
CACHE_METHODS = (
    ("cache.load", "__init__", _cache_load),
    ("cache.get", "get", _cache_get),
    ("cache.put", "put", None),
)


def package_modules():
    import moduli_traces

    names = sorted(m.name for m in pkgutil.iter_modules(moduli_traces.__path__))
    return [moduli_traces] + [importlib.import_module(f"moduli_traces.{n}") for n in names]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.request = 0
        self.counts: dict[str, float] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(int)
        self.notes: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None, adapt=None):
        sig = inspect.signature(fn) if (counter or adapt) else None
        spans, stack, counts, maxima = self.spans, self._stack, self.counts, self.maxima

        def add(key, value):
            counts[f"{name}.{key}"] += value

        def hi(key, value):
            k = f"{name}.{key}"
            maxima[k] = max(maxima[k], value)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if adapt is not None:
                    adapt(self, bound)
                    args, kwargs = bound.args, bound.kwargs
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    counter(bound.arguments, result, add, hi)
                except (AttributeError, KeyError, TypeError) as exc:
                    note = f"{name}: counter unavailable ({exc!r})"
                    if note not in self.notes:
                        self.notes.append(note)
            return result

        return traced

    def install(self):
        """Wrap every target at each package-level name bound to it."""
        modules = package_modules()
        for name, module, attr, counter, adapt in FUNCTIONS:
            orig = getattr(importlib.import_module(module), attr)
            wrapped = self.wrap(name, orig, counter, adapt)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        from moduli_traces.traces import TraceCache

        for name, method, counter in CACHE_METHODS:
            setattr(TraceCache, method, self.wrap(name, getattr(TraceCache, method), counter))

    def summary(self) -> dict:
        """Additive totals ("sum") and maxima ("max") over all spans so far."""
        sums: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        computed = set()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            sums[f"{name}.calls"] += 1
            sums[f"{name}.s"] += dur
            sums[f"{name}.self_s"] += dur - child[i]
            sums[f"layer.{name.split('.')[0]}.self_s"] += dur - child[i]
            # a trace() call computed its value iff it planned a precision
            if name == "cm_eval.plan_precision" and parent >= 0 and self.spans[parent][0] == "traces.trace":
                computed.add(parent)
        sums["traces.trace.computed"] = len(computed)
        for key, value in self.counts.items():
            sums[key] += value
        return {"sum": dict(sums), "max": dict(self.maxima), "notes": list(self.notes)}

    def span_records(self):
        for i, (name, start, end, parent, request) in enumerate(self.spans):
            yield {"id": i, "name": name, "start": start, "end": end,
                   "parent": parent, "request": request}


def merge_summaries(parts) -> dict:
    sums: dict[str, float] = defaultdict(float)
    maxima: dict[str, float] = defaultdict(int)
    notes: list[str] = []
    for part in parts:
        for k, v in part["sum"].items():
            sums[k] += v
        for k, v in part["max"].items():
            maxima[k] = max(maxima[k], v)
        notes += [n for n in part["notes"] if n not in notes]
    return {"sum": dict(sums), "max": dict(maxima), "notes": notes}


def write_spans(path, groups):
    """Write span records as gzipped JSON lines; groups are (process tag, records)."""
    with gzip.open(path, "wt") as fh:
        for tag, records in groups:
            for rec in records:
                fh.write(json.dumps({"process": tag, **rec}) + "\n")
