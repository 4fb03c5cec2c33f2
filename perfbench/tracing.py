"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the ``symtriple`` modules at run time,
from the benchmark's side: nothing under ``src/`` changes and an untraced run
installs no wrapper at all.  Each wrapped call records a span (name, start,
end, parent) in flat arrays kept in memory; ``write`` dumps them when the
run ends.  Totals per span name (calls, inclusive seconds, self seconds)
and named counters are accumulated as calls finish, so the per-layer
metrics need no second pass over the spans.

Self time is a span's duration minus the time covered by its direct child
spans.  ``scalars`` is never wrapped: its operations are too fine-grained
to wrap without distorting every other figure.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter

# (module, attribute, span name): functions timed as spans.  A function is
# replaced under every module name that refers to it, since the package
# imports names across modules (``from .linalg import comm``).
SPANNED = (
    ("composition", "build_composition", "composition.build_composition"),
    ("jordan", "build_jordan", "jordan.build_jordan"),
    ("triples", "build_symplectic_type", "triples.build_type"),
    ("triples", "build_orthogonal_type", "triples.build_type"),
    ("triples", "build_special_type", "triples.build_type"),
    ("triples", "build_exceptional_type", "triples.build_type"),
    ("triples", "verify_axioms", "triples.verify_axioms"),
    ("triples", "inder_basis", "triples.inder_basis"),
    ("enveloping", "build_model", "enveloping.build_model"),
    ("enveloping", "build_enveloping", "enveloping.build_enveloping"),
    ("enveloping", "killing_form", "enveloping.killing_form"),
    ("enveloping", "metric_g", "enveloping.metric_g"),
    ("enveloping", "verify_jacobi", "enveloping.verify_jacobi"),
    ("connections", "connection_by_name", "connections.connection_by_name"),
    ("connections", "alpha_family", "connections.alpha_family"),
    ("connections", "is_skew_torsion", "connections.is_skew_torsion"),
    ("connections", "curvature", "connections.curvature"),
    ("holonomy", "holonomy_algebra", "holonomy.holonomy_algebra"),
    ("holonomy", "holonomy_identity_check", "holonomy.holonomy_identity_check"),
    ("holonomy", "ricci", "holonomy.ricci"),
    ("linalg", "bracket_closure", "linalg.bracket_closure"),
    ("linalg", "center_of", "linalg.center_of"),
    ("linalg", "comm", "linalg.comm"),
)


class Tracer:
    """In-memory spans plus per-phase totals and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, child seconds]
        self._open: dict[int, int] = {}  # name id -> depth, for recursion
        self.reset()

    def reset(self) -> None:
        """Start a new phase: zero the totals and counters (spans stay)."""
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> None:
        nid = self._id(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, nid, 0.0])
        self._open[nid] = self._open.get(nid, 0) + 1
        self.span_start.append(perf_counter())

    def exit(self) -> None:
        t1 = perf_counter()
        idx, nid, child = self._stack.pop()
        self.span_end[idx] = t1
        dur = t1 - self.span_start[idx]
        name = self.names[nid]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        depth = self._open[nid] - 1
        self._open[nid] = depth
        if depth == 0:  # count a recursive name's time once, at the outermost call
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
        if self._stack:
            self._stack[-1][2] += dur

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        """Dump every span as parallel arrays in gzipped JSON."""
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump(doc, f, separators=(",", ":"))


def _replace_everywhere(mods, orig, new) -> None:
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def install(tracer: Tracer, S) -> None:
    """Wrap the traced functions of one freshly imported ``symtriple``."""
    mods = [S.package] + [getattr(S, m) for m in S.MODULES]
    for mod_name, attr, span in SPANNED:
        orig = getattr(getattr(S, mod_name), attr)
        _replace_everywhere(mods, orig, tracer.spanned(span, orig))

    # Methods and counters read from results are wrapped on their classes.
    insert = S.linalg.Subspace.insert

    def traced_insert(self, v):
        tracer.enter("linalg.insert")
        try:
            out = insert(self, v)
        finally:
            tracer.exit()
        if out[1]:
            tracer.count("linalg.insert.grew")
        return out

    S.linalg.Subspace.insert = traced_insert

    cross = S.jordan.CubicJordan.linearized_cross

    def counted_cross(self, a, b):
        # Called ~10^6 times per exceptional build: counted, never timed.
        tracer.count("jordan.linearized_cross.calls")
        return cross(self, a, b)

    S.jordan.CubicJordan.linearized_cross = counted_cross

    for mod_name, attr, counter, read in (
        ("triples", "verify_axioms", "triples.verify_axioms.tuples",
         lambda r: sum(r.checked.values())),
        ("enveloping", "verify_jacobi", "enveloping.verify_jacobi.pairs",
         lambda r: r.checked_pairs),
    ):
        inner = getattr(getattr(S, mod_name), attr)

        def reading(*args, _inner=inner, _counter=counter, _read=read, **kwargs):
            report = _inner(*args, **kwargs)
            tracer.count(_counter, _read(report))
            return report

        _replace_everywhere(mods, inner, reading)
