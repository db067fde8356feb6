"""Outside-in layer tracer for the raaggrowth benchmark.

The tracer wraps public functions of the package's layers from outside.  It
rebinds each name in every ``raaggrowth`` module that holds it, so calls from
one layer into another become nested spans.  Spans live in memory.  A span's
self time is its duration minus the time its child spans cover; ``total_s``
counts only the outermost span of a name, so recursion is not counted twice.

Nothing in the package changes: ``installed`` restores every binding on exit.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

KEEP_SPAN_S = 1e-3  # spans this long or longer are kept for the trace file

# (module, attribute, span name).  "Class.method" attributes are patched on
# the class; everything else is rebound wherever the package imported it.
TRACED = [
    ("automata", "minimize", "automata.minimize"),
    ("automata", "_product", "automata.product"),  # intersect, union, difference
    ("automata", "concat", "automata.concat"),
    ("automata", "cyc_perm", "automata.cyc_perm"),
    ("automata", "growth_series", "automata.growth_series"),
    ("automata", "count_words", "automata.count_words"),
    ("languages", "geo_fsa", "languages.geo_fsa"),
    ("languages", "shortlex_fsa", "languages.shortlex_fsa"),
    ("languages", "cycsl_fsa", "languages.cycsl_fsa"),
    ("languages", "conjgeo_fsa", "languages.conjgeo_fsa"),
    ("languages", "support_exact", "languages.support_exact"),
    ("languages", "cycsl_support_fsa", "languages.cycsl_support_fsa"),
    ("languages", "conjgeo_series_incl_excl", "languages.conjgeo_series_incl_excl"),
    ("series", "PowerSeries.__mul__", "series.PowerSeries.mul"),
    ("series", "PowerSeries.__add__", "series.PowerSeries.add"),
    ("series", "rho", "series.rho"),
    ("series", "neck", "series.neck"),
    ("series", "RationalFunction.make", "series.RationalFunction.make"),
    ("series", "RationalFunction.expand", "series.RationalFunction.expand"),
    ("pipeline", "spherical_conj_series", "pipeline.spherical_conj_series"),
    ("pipeline", "spherical_growth_series", "pipeline.spherical_growth_series"),
    ("pipeline", "geodesic_series", "pipeline.geodesic_series"),
    ("pipeline", "conj_geodesic_series", "pipeline.conj_geodesic_series"),
    ("pipeline", "part1_crosscheck", "pipeline.part1_crosscheck"),
    ("oracle", "normal_form", "oracle.normal_form"),
    ("oracle", "cyclically_reduce", "oracle.cyclically_reduce"),
    ("oracle", "conjugacy_class_words", "oracle.conjugacy_class_words"),
    ("oracle", "enumerate_elements", "oracle.enumerate_elements"),
    ("oracle", "enumerate_classes", "oracle.enumerate_classes"),
    ("oracle", "element_counts", "oracle.element_counts"),
]
COUNTED = [("graphs", "SimpleGraph.alphabet", "graphs.alphabet")]  # calls only, no span

_SUBSET_SUM_PARENT = "pipeline.spherical_conj_series"
_SUBSET_SUM_CHILDREN = ("series.PowerSeries.mul", "series.PowerSeries.add")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()  # states, closure pieces, blocks
        self.subset_sum_s = 0.0  # series arithmetic called directly by the subset sum
        self.block_max_s = 0.0
        self.spans = []  # (id, parent id, name, start, end) of spans >= KEEP_SPAN_S
        self._stack = []  # open spans: [id, name, child seconds]
        self._open = Counter()
        self._next_id = 0
        self._block_start = None

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._open[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - frame[2]
            if not self._open[name]:
                self.total_s[name] += duration
            if parent is not None:
                parent[2] += duration
                if parent[1] == _SUBSET_SUM_PARENT:
                    self._subset_child(name, start, end)
            if duration >= KEEP_SPAN_S:
                self.spans.append((frame[0], parent[0] if parent else None, name, start, end))
        self._observe(name, args, result)
        return result

    def _subset_child(self, name, start, end):
        """Direct children of the subset sum: per-block work and series arithmetic.

        A block runs from its ``cycsl_support_fsa`` call to the end of its
        ``rho`` call.
        """
        if name in _SUBSET_SUM_CHILDREN:
            self.subset_sum_s += end - start
        elif name == "languages.cycsl_support_fsa":
            self._block_start = start
            self.counts["pipeline.spherical_conj_series.blocks"] += 1
        elif name == "series.rho" and self._block_start is not None:
            self.block_max_s = max(self.block_max_s, end - self._block_start)
            self._block_start = None

    def _observe(self, name, args, result):
        if name == "automata.minimize":
            self.counts["automata.minimize.states_in"] += args[0].n_states
            self.counts["automata.minimize.states_out"] += result.n_states
        elif name == "automata.growth_series":
            self.counts["automata.growth_series.states_in"] += args[0].n_states
        elif name == "automata.concat" and self._open["automata.cyc_perm"]:
            self.counts["automata.cyc_perm.pieces"] += 1

    def top_self(self, n: int = 5) -> list:
        return sorted(self.self_s.items(), key=lambda item: -item[1])[:n]

    def functions(self) -> dict:
        return {
            name: {"calls": self.calls[name], "self_s": self.self_s.get(name, 0.0),
                   "total_s": self.total_s.get(name, 0.0)}
            for name in sorted(self.calls)
        }


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "raaggrowth" or name.startswith("raaggrowth."))]


def _resolve(module: str, attribute: str):
    owner = sys.modules[f"raaggrowth.{module}"]
    if "." in attribute:
        cls_name, attribute = attribute.split(".")
        owner = getattr(owner, cls_name)
    return owner, attribute


@contextmanager
def installed(tracer: Tracer):
    """Route the traced functions through ``tracer`` while the block runs."""
    restore = []  # (owner, attribute, original binding)

    def rebind(owner, attribute, value):
        restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    try:
        for module, attribute, name in TRACED:
            owner, attribute = _resolve(module, attribute)
            raw = owner.__dict__[attribute]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw

            def wrapper(*args, _name=name, _fn=fn, **kwargs):
                return tracer.call(_name, _fn, args, kwargs)

            wrapper.__wrapped__ = fn
            if isinstance(owner, type):
                rebind(owner, attribute, staticmethod(wrapper) if raw is not fn else wrapper)
                continue
            for holder in _package_modules():
                if holder.__dict__.get(attribute) is fn:
                    rebind(holder, attribute, wrapper)
        for module, attribute, name in COUNTED:
            owner, attribute = _resolve(module, attribute)
            fn = owner.__dict__[attribute]

            def counter(*args, _name=name, _fn=fn, **kwargs):
                tracer.calls[_name] += 1
                return _fn(*args, **kwargs)

            rebind(owner, attribute, counter)
        yield tracer
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)


# Per-layer metrics: name -> (unit, value from a tracer)
def _self(name):
    return lambda t: t.self_s.get(name, 0.0)


def _total(name):
    return lambda t: t.total_s.get(name, 0.0)


def _calls(name):
    return lambda t: t.calls[name]


def _count(name):
    return lambda t: t.counts[name]


LAYER_METRICS = {
    "automata.minimize.calls": ("count", _calls("automata.minimize")),
    "automata.minimize.self_s": ("s", _self("automata.minimize")),
    "automata.minimize.states_in": ("states", _count("automata.minimize.states_in")),
    "automata.minimize.states_out": ("states", _count("automata.minimize.states_out")),
    "automata.product.calls": ("count", _calls("automata.product")),
    "automata.product.self_s": ("s", _self("automata.product")),
    "automata.concat.calls": ("count", _calls("automata.concat")),
    "automata.concat.self_s": ("s", _self("automata.concat")),
    "automata.cyc_perm.calls": ("count", _calls("automata.cyc_perm")),
    "automata.cyc_perm.total_s": ("s", _total("automata.cyc_perm")),
    "automata.cyc_perm.pieces": ("count", _count("automata.cyc_perm.pieces")),
    "automata.growth_series.calls": ("count", _calls("automata.growth_series")),
    "automata.growth_series.self_s": ("s", _self("automata.growth_series")),
    "automata.growth_series.states_in": ("states", _count("automata.growth_series.states_in")),
    "automata.count_words.self_s": ("s", _self("automata.count_words")),
    "languages.geo_fsa.total_s": ("s", _total("languages.geo_fsa")),
    "languages.shortlex_fsa.total_s": ("s", _total("languages.shortlex_fsa")),
    "languages.cycsl_fsa.total_s": ("s", _total("languages.cycsl_fsa")),
    "languages.conjgeo_fsa.total_s": ("s", _total("languages.conjgeo_fsa")),
    "languages.support_exact.total_s": ("s", _total("languages.support_exact")),
    "languages.cycsl_support_fsa.total_s": ("s", _total("languages.cycsl_support_fsa")),
    "languages.conjgeo_series_incl_excl.total_s":
        ("s", _total("languages.conjgeo_series_incl_excl")),
    "series.PowerSeries.mul.calls": ("count", _calls("series.PowerSeries.mul")),
    "series.PowerSeries.mul.self_s": ("s", _self("series.PowerSeries.mul")),
    "series.PowerSeries.add.self_s": ("s", _self("series.PowerSeries.add")),
    "series.rho.self_s": ("s", _self("series.rho")),
    "series.neck.self_s": ("s", _self("series.neck")),
    "series.neck.total_s": ("s", _total("series.neck")),
    "series.RationalFunction.make.calls": ("count", _calls("series.RationalFunction.make")),
    "series.RationalFunction.make.self_s": ("s", _self("series.RationalFunction.make")),
    "series.RationalFunction.expand.self_s": ("s", _self("series.RationalFunction.expand")),
    "pipeline.spherical_conj_series.total_s": ("s", _total("pipeline.spherical_conj_series")),
    "pipeline.spherical_conj_series.blocks":
        ("count", _count("pipeline.spherical_conj_series.blocks")),
    "pipeline.spherical_conj_series.block_max_s": ("s", lambda t: t.block_max_s),
    "pipeline.subset_sum.self_s":
        ("s", lambda t: t.self_s.get(_SUBSET_SUM_PARENT, 0.0) + t.subset_sum_s),
    "pipeline.part1_crosscheck.total_s": ("s", _total("pipeline.part1_crosscheck")),
    "oracle.normal_form.calls": ("count", _calls("oracle.normal_form")),
    "oracle.normal_form.self_s": ("s", _self("oracle.normal_form")),
    "oracle.cyclically_reduce.total_s": ("s", _total("oracle.cyclically_reduce")),
    "oracle.conjugacy_class_words.calls": ("count", _calls("oracle.conjugacy_class_words")),
    "oracle.conjugacy_class_words.self_s": ("s", _self("oracle.conjugacy_class_words")),
    "oracle.enumerate_elements.total_s": ("s", _total("oracle.enumerate_elements")),
    "graphs.alphabet.calls": ("count", _calls("graphs.alphabet")),
}
