"""Span recorder for the traced benchmark run.

The library is not instrumented itself.  Instead, `install` wraps a fixed
list of public functions and records one span per call: name, start,
end, parent span, for rref the cell count of its input and for is_good
its verdict.  Spans stay in memory; `summarize` turns them into
per-layer numbers after the run.

The modules bind names at import time (`from .linalg import rref` in
`gradings`, `is_good` in `classify`, ...), so a wrapper has to replace
the name in every module namespace that holds the original function,
not only in the module that defines it.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (layer, defining module, attribute); a dotted attribute is a method.
# Several functions may share a layer name: their spans are summed.
TRACED = (
    ("cli", "goodgradings.cli", "main"),
    ("classify.good_gradings", "goodgradings.classify", "good_gradings"),
    ("classify.sweep_oracle", "goodgradings.classify", "sweep_oracle"),
    ("parabolic.generic_oracle", "goodgradings.parabolic",
     "generic_richardson_oracle"),
    ("gradings.is_good", "goodgradings.gradings", "is_good"),
    ("gradings.graded_ad_ranks", "goodgradings.gradings", "graded_ad_ranks"),
    ("gradings.nilpotent_of_pyramid", "goodgradings.gradings",
     "nilpotent_of_pyramid"),
    ("gradings.characteristic", "goodgradings.gradings", "characteristic_of"),
    ("gradings.characteristic", "goodgradings.gradings",
     "characteristic_from_pyramid"),
    ("pyramids.enumerate", "goodgradings.pyramids", "enumerate_pyramids"),
    ("pyramids.enumerate", "goodgradings.pyramids", "symplectic_pyramids"),
    ("pyramids.enumerate", "goodgradings.pyramids", "orthogonal_pyramids"),
    ("algebras.build_algebra", "goodgradings.algebras", "build_algebra"),
    ("algebras.from_coordinates", "goodgradings.algebras",
     "AlgebraBasis.from_coordinates"),
    ("algebras.ad_coordinate_matrix", "goodgradings.algebras",
     "ad_coordinate_matrix"),
    ("algebras.graded_decomposition", "goodgradings.algebras",
     "graded_decomposition"),
    ("linalg.rref", "goodgradings.linalg", "rref"),
    ("series.counts_by_partition", "goodgradings.series",
     "pyramid_counts_by_partition"),
    ("series.power_series", "goodgradings.series", "pyramid_count_series"),
    ("series.power_series", "goodgradings.series", "unimodal_count_series"),
    ("series.power_series", "goodgradings.series",
     "pyramid_series_identity_check"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TRACED))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root span
    cells: int = 0
    verified: bool = False


@dataclass
class Recorder:
    """In-memory spans of one traced run, with the stack of open spans."""

    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    clock: object = time.perf_counter

    def call(self, name, fn, args, kwargs, cells=0):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        span = Span(name, self.clock(), 0.0, parent, cells)
        self.spans.append(span)
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self.stack.pop()
        return span, result


def _rref_wrapper(rec: Recorder, fn):
    def rref(rows):
        rows = rows if isinstance(rows, list) else list(rows)
        cells = len(rows) * len(rows[0]) if rows else 0
        return rec.call("linalg.rref", fn, (rows,), {}, cells)[1]
    return rref


def _is_good_wrapper(rec: Recorder, fn):
    def is_good(*args, **kwargs):
        span, pair = rec.call("gradings.is_good", fn, args, kwargs)
        span.verified = pair.verified
        return pair
    return is_good


def _wrapper(rec: Recorder, layer: str, fn):
    if layer == "linalg.rref":
        return _rref_wrapper(rec, fn)
    if layer == "gradings.is_good":
        return _is_good_wrapper(rec, fn)

    def wrapped(*args, **kwargs):
        return rec.call(layer, fn, args, kwargs)[1]
    return wrapped


def install(rec: Recorder):
    """Wrap every TRACED function wherever it is bound; return an undo list.

    Every loaded `goodgradings` module is scanned for names bound to the
    original function object, so `from .x import f` copies are caught.
    """
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "goodgradings"
                                     or name.startswith("goodgradings."))]
    undo = []
    for layer, modname, attr in TRACED:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, _wrapper(rec, layer, fn))
            undo.append((cls, meth, fn))
            continue
        fn = getattr(owner, attr)
        w = _wrapper(rec, layer, fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, w)
                    undo.append((mod, name, fn))
    return undo


def uninstall(undo) -> None:
    for target, name, fn in reversed(undo):
        setattr(target, name, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _has_ancestor(spans: list[Span], s: Span, name: str) -> bool:
    p = s.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer calls and self seconds, plus the work counts."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for s, st in zip(spans, selfs):
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += st
    out["linalg.rref.cells"] = sum(
        s.cells for s in spans if s.name == "linalg.rref")
    out["parabolic.generic_oracle.samples"] = sum(
        1 for s in spans if s.name == "gradings.graded_ad_ranks"
        and _has_ancestor(spans, s, "parabolic.generic_oracle"))
    # Candidates are the integral-check decompositions the sweep asks for;
    # the accept ratio's base is the is_good calls under the sweep.
    out["classify.sweep_oracle.candidates"] = sum(
        1 for s in spans if s.name == "algebras.graded_decomposition"
        and _has_ancestor(spans, s, "classify.sweep_oracle"))
    checked = [s for s in spans if s.name == "gradings.is_good"
               and _has_ancestor(spans, s, "classify.sweep_oracle")]
    out["classify.sweep_oracle.is_good_calls"] = len(checked)
    out["classify.sweep_oracle.accepted"] = sum(s.verified for s in checked)
    return out


def root_seconds(spans: list[Span]) -> float:
    """Summed duration of the spans that have no wrapped parent."""
    return sum(s.end - s.start for s in spans if s.parent < 0)
