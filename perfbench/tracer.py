"""In-memory span tracer for the orbitkit benchmark.

The tracer wraps orbitkit's functions from outside the package: while a
`traced` block is open, every public function of a layer module (and every
`from ... import` alias of one, such as `cli.canonical_triple`) is replaced by
a wrapper that records one span per call.  A span is (name, start, end,
parent span, op id).  Spans stay in memory until `summarize` reduces them to
per-name call counts and self times; self time is a span's duration minus the
time its child spans cover.  Leaving the block puts every original attribute
back, so nothing under `src/` changes and untraced calls pay nothing.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: The layers are orbitkit's modules.
LAYERS = ("moment", "polytopes", "forms", "weyl", "klein", "iwasawa", "spin", "cli")

#: Private functions that get a span anyway, and the span name they get.
PRIVATE_SPANS = {
    ("orbitkit.iwasawa", "_nijenhuis_norms"): "iwasawa.nijenhuis_norms",
    ("orbitkit.polytopes", "_hull_exact"): "polytopes.hull.exact",
    ("orbitkit.polytopes", "_hull_float"): "polytopes.hull.float",
    ("orbitkit.cli", "_write"): "cli.write",
}

#: Class methods that get a span, named `<layer>.<Class>.<method>`; the
#: constructor hook `__post_init__` is named `new`.  As in a profile, the
#: time of TwoForm's own code (construction and arithmetic) belongs to the
#: forms layer, whichever layer calls it.
METHOD_SPANS = {
    ("orbitkit.forms", "TwoForm"): (
        "__post_init__", "zero", "basis", "from_wedge", "from_cartan", "from_matrix",
        "from_dict", "endomorphism", "coefficient", "as_array", "norm", "to_dict",
        "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
    ),
    ("orbitkit.moment", "SampleCloud"): ("to_csv",),
}

#: Functions that are counted but get no span: they are so small and so hot
#: that a span would cost more than their body and blur their callers' time.
COUNT_ONLY = {"weyl.act"}


class Tracer:
    """Span store: parallel arrays, one entry per call, kept until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._open = [-1]
        #: Counts recorded at span boundaries (bytes written, samples accepted).
        self.counters: Counter = Counter()
        #: Distinct arguments seen by `moment.moment_polytope`.
        self.distinct_lambdas: set = set()

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        k = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self._open.append(k)
        self.start.append(self.clock())
        return k

    def finish(self, k: int) -> None:
        self.end[k] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        k = self.begin(self.intern(name))
        try:
            yield k
        finally:
            self.finish(k)

    def summarize(self) -> "SpanSummary":
        n_names = len(self.names)
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - covered
        calls = np.bincount(ids, minlength=n_names)
        self_s = np.bincount(ids, weights=self_time, minlength=n_names)
        return SpanSummary(
            calls={name: int(calls[k]) for k, name in enumerate(self.names)},
            self_s={name: float(self_s[k]) for k, name in enumerate(self.names)},
            root_s=float(dur[~nested].sum()),
        )

    def save(self, path) -> None:
        """Write every span to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


@dataclass
class SpanSummary:
    calls: dict
    self_s: dict
    #: Total duration of spans that have no parent.
    root_s: float

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for name, s in self.self_s.items() if name.startswith(prefix))


# ---------------------------------------------------------------------------
# Observers: counts taken from a wrapped call's arguments or result
# ---------------------------------------------------------------------------

def _observe_write(tracer, args, result):
    tracer.counters["cli.bytes_written"] += len(args[1].encode())


def _observe_moment_polytope(tracer, args, result):
    tracer.distinct_lambdas.add(tuple(Fraction(c) for c in args[0]))


def _observe_scan_complex(tracer, args, result):
    report = result[1]
    tracer.counters["iwasawa.scan_complex.accepted"] += report["accepted_haar"]
    tracer.counters["iwasawa.scan_complex.n"] += report["n"]


def _observe_mixed(tracer, args, result):
    report = result[1]
    tracer.counters["iwasawa.mixed_classes_over.produced"] += report["produced"]
    tracer.counters["iwasawa.mixed_classes_over.n"] += report["n"]


OBSERVERS = {
    "cli.write": _observe_write,
    "moment.moment_polytope": _observe_moment_polytope,
    "iwasawa.scan_complex": _observe_scan_complex,
    "iwasawa.mixed_classes_over": _observe_mixed,
}


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------

def span_name(obj) -> str | None:
    """Span name of a module attribute, or None if it is not traced."""
    if isinstance(obj, type) or not callable(obj):
        return None
    module = getattr(obj, "__module__", None) or ""
    fname = getattr(obj, "__name__", None) or ""
    if (module, fname) in PRIVATE_SPANS:
        return PRIVATE_SPANS[(module, fname)]
    package, _, layer = module.partition(".")
    if package != "orbitkit" or layer not in LAYERS or fname.startswith("_"):
        return None
    return f"{layer}.{fname}"


def _span_wrapper(tracer: Tracer, fn, name: str):
    nid = tracer.intern(name)
    observe = OBSERVERS.get(name)

    def wrapper(*args, **kwargs):
        k = tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(k)
        if observe is not None:
            observe(tracer, args, result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, fn, name: str):
    counters = tracer.counters

    def wrapper(*args, **kwargs):
        counters[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def traced(tracer: Tracer, modules):
    """Wrap the traced functions of `modules` for the duration of the block.

    `modules` are the orbitkit modules whose attributes get patched; an alias
    shares one wrapper with the function it names.  Every patched attribute
    is restored when the block exits, also on an exception.
    """
    patches = []
    wrappers = {}
    by_name = {m.__name__: m for m in modules}
    try:
        for module in modules:
            for attr, obj in list(vars(module).items()):
                name = span_name(obj)
                if name is None:
                    continue
                if id(obj) not in wrappers:
                    make = _count_wrapper if name in COUNT_ONLY else _span_wrapper
                    wrappers[id(obj)] = make(tracer, obj, name)
                patches.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        for (module_name, cls_name), methods in METHOD_SPANS.items():
            cls = getattr(by_name[module_name], cls_name)
            layer = module_name.partition(".")[2]
            for method in methods:
                original = cls.__dict__[method]
                fn = getattr(original, "__func__", original)   # unwrap classmethods
                short = "new" if fn.__name__ == "__post_init__" else fn.__name__
                name = f"{layer}.{cls_name}.{short}"
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = _span_wrapper(tracer, fn, name)
                wrapper = wrappers[id(fn)]
                patches.append((cls, method, original))
                setattr(cls, method, classmethod(wrapper) if fn is not original else wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
