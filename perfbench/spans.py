"""Layer spans and counts, recorded from outside the package.

`install` replaces each public entry point below by a wrapper, at every
module attribute of the package through which a caller looks it up, so no
file of the package changes.  A wrapper records a span (name, start, end,
parent span, document id) and the counts of its layer.  Spans stay in
memory until the run ends; `layer_metrics` turns them into per-layer self
times: a span's duration minus the time its child spans cover.

`words` (generator NFAs, under a millisecond a document) and
`decomposition` (no command on the benchmark's paths) are covered only by
the spans around them.
"""

import hashlib
import inspect
import time

# metric -> span names whose self time it sums
TIMED = {
    "schema.load_s": ("schema.load_document",),
    "automata.compile_s": ("automata.module_dfa", "automata.intersect_nfa_dfa",
                           "automata.determinize", "automata.minimize"),
    "automata.solve_s": ("automata.generating_function",),
    "series.module_series_s": ("series.module_series",),
    "polyarith.reduce_s": ("polyarith.FactoredRational.reduce",),
    "polyarith.expand_s": ("polyarith.expand_series",),
    "analysis.shape_s": ("analysis.validate_shape",),
    "analysis.fit_s": ("analysis.asymptotic_dimension",
                       "analysis.asymptotic_multiplicity"),
    "analysis.artinian_s": ("analysis.artinian_test",),
    "oicore.width_s": ("oicore.hilbert_width",),
    "oicore.expand_to_width_s": ("oicore.expand_to_width",),
    "oicore.minimalize_s": ("oicore.minimalize",),
    "oicore.kpoly_s": ("oicore.kpoly",),
}

# metric -> span name whose calls it counts
CALLS = {
    "automata.solve_calls": "automata.generating_function",
    "series.module_series_calls": "series.module_series",
    "oicore.width_calls": "oicore.hilbert_width",
    "oicore.kpoly_calls": "oicore.kpoly",
}

ROOT = "cmd"


class Recorder:
    """Spans, counters and call keys of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, document id]
        self.stack = []
        self.doc = None
        self.counts = {}
        self.maxima = {}
        self.keys = {}  # span name -> list of argument digests

    def reset(self):
        self.__init__()

    def begin(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.doc])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def end_all(self):
        """Close every open span, including any a deadline cut short."""
        while self.stack:
            self.end()

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def dump(self):
        return {"spans": self.spans, "counts": self.counts,
                "maxima": self.maxima, "keys": self.keys}


def _digest(obj):
    return hashlib.sha1(repr(obj).encode()).hexdigest()[:16]


def _presentation_key(p):
    return (p.c, p.summands, p.category,
            tuple(sorted(g.key() for g in p.generators)))


def _wrap(rec, name, fn, key=None, after=None):
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        if key is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            rec.keys.setdefault(name, []).append(
                _digest((rec.doc, key(bound.arguments))))
        rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end()
        if after is not None:
            after(rec, args, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _states(counter, peak=None):
    def after(rec, args, out):
        rec.add(counter, out.n)
        if peak:
            rec.peak(peak, out.n)
    return after


def _minimalize_sizes(rec, args, out):
    rec.add("minimalize.in", len(args[0]))
    rec.add("minimalize.out", len(out))


def install(rec):
    """Wrap the package's entry points so calls record into rec."""
    from oihilbert import (analysis, automata, cli, decomposition, oicore,
                           polyarith, schema, series, words)

    modules = (analysis, automata, cli, decomposition, oicore, polyarith,
               schema, series, words)

    def patch(owner, attr, name, **kw):
        orig = getattr(owner, attr)
        wrapped = _wrap(rec, name, orig, **kw)
        for mod in modules:
            if vars(mod).get(attr) is orig:
                setattr(mod, attr, wrapped)

    def series_key(a):
        return (_presentation_key(a["p"]), a["quotient"], a["reduce"])

    def width_key(a):
        return (_presentation_key(a["p"]), a["n"], a["quotient"])

    patch(schema, "load_document", "schema.load_document")
    patch(series, "module_series", "series.module_series", key=series_key)
    patch(automata, "module_dfa", "automata.module_dfa")
    patch(automata, "intersect_nfa_dfa", "automata.intersect_nfa_dfa",
          after=_states("automata.product_states"))
    patch(automata, "determinize", "automata.determinize",
          after=_states("automata.subset_states"))
    patch(automata, "minimize", "automata.minimize",
          after=_states("automata.min_states_sum", "automata.min_states_max"))
    patch(automata, "generating_function", "automata.generating_function")
    patch(polyarith, "expand_series", "polyarith.expand_series")
    patch(analysis, "validate_shape", "analysis.validate_shape")
    patch(analysis, "asymptotic_dimension", "analysis.asymptotic_dimension")
    patch(analysis, "asymptotic_multiplicity",
          "analysis.asymptotic_multiplicity")
    patch(analysis, "artinian_test", "analysis.artinian_test")
    patch(oicore, "hilbert_width", "oicore.hilbert_width", key=width_key)
    patch(oicore, "expand_to_width", "oicore.expand_to_width")
    patch(oicore, "minimalize", "oicore.minimalize", after=_minimalize_sizes)
    patch(oicore, "kpoly", "oicore.kpoly")
    cls = polyarith.FactoredRational
    cls.reduce = _wrap(rec, "polyarith.FactoredRational.reduce", cls.reduce)


def merge(dumps):
    """One Recorder.dump()-shaped dict from several processes' dumps."""
    out = {"spans": [], "counts": {}, "maxima": {}, "keys": {}}
    for d in dumps:
        base = len(out["spans"])
        for name, start, end, parent, doc in d["spans"]:
            out["spans"].append([name, start, end,
                                 None if parent is None else parent + base, doc])
        for k, v in d["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
        for k, v in d["maxima"].items():
            out["maxima"][k] = max(out["maxima"].get(k, v), v)
        for k, v in d["keys"].items():
            out["keys"].setdefault(k, []).extend(v)
    return out


def layer_metrics(dump, n_cmds, cmd_seconds, speed):
    """Per-layer metrics from a run's spans.

    Times and counts are per command; times are multiplied by speed, the
    run's factor to nominal machine speed.  cmd_seconds is the raw wall
    time of all commands; the share of it that no layer span covers is
    reported as trace.uncovered_frac.
    """
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    calls = {}
    covered = 0.0
    for name, start, end, parent, _ in spans:
        if end is None:  # cut short by a deadline before it was entered
            continue
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            child_time[parent] += end - start
            if spans[parent][0] == ROOT:
                covered += end - start
    self_time = {}
    for (name, start, end, _, _), inner in zip(spans, child_time):
        if end is None:
            continue
        self_time[name] = self_time.get(name, 0.0) + (end - start) - inner

    out = {}
    for metric, names in TIMED.items():
        seconds = sum(self_time.get(n, 0.0) for n in names)
        out[metric] = (seconds * speed / n_cmds, "s/cmd")
    for metric, name in CALLS.items():
        out[metric] = (calls.get(name, 0) / n_cmds, "count/cmd")
    counts = dump["counts"]
    for metric in ("automata.product_states", "automata.subset_states",
                   "automata.min_states_sum"):
        out[metric] = (counts.get(metric, 0) / n_cmds, "count/cmd")
    out["automata.min_states_max"] = (
        dump["maxima"].get("automata.min_states_max", 0), "count")

    def useful(name):
        keys = dump["keys"].get(name, [])
        return len(set(keys)) / len(keys) if keys else 1.0

    out["series.useful_ratio"] = (useful("series.module_series"), "ratio")
    out["oicore.width_useful_ratio"] = (useful("oicore.hilbert_width"), "ratio")
    kept_in = counts.get("minimalize.in", 0)
    out["oicore.minimalize_kept_ratio"] = (
        counts.get("minimalize.out", 0) / kept_in if kept_in else 1.0, "ratio")
    out["trace.uncovered_frac"] = (1.0 - covered / cmd_seconds, "ratio")
    return out
