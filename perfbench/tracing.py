"""Spans and counts at the public functions of each ``deltagraph`` module.

``Tracer.install`` replaces every binding of the traced functions, so calls
made through from-imported copies inside the package are recorded too, and
``uninstall`` puts the originals back.  Each call records one span (name,
start, end, parent span, job id) into flat arrays kept in memory; ``write``
stores them when the run ends.  Per-layer metrics are derived from the spans
(self time is a span's duration minus the time its child spans cover) and
from counts taken in the same wrappers.  The methods in ``COUNTED`` are
called too often for a span each, so their wrappers only count calls.
"""
from __future__ import annotations

import json
import sys
import weakref
from array import array
from collections import Counter
from time import perf_counter

import deltagraph as dg
from deltagraph import graph as dg_graph
from deltagraph import loop_algebra as dg_loop_algebra
from deltagraph import weights as dg_weights

# Traced functions, by layer: (owner, attribute).  ``owner`` is a class for
# methods and a module name for functions, whose bindings are all replaced.
LAYERS = {
    "weights": [
        (dg_weights.GeneratorContext, "exact"),
        (dg_weights.Weight, "__mul__"),
        (dg_weights.Weight, "eq"),
        (dg_weights.Weight, "inverse"),
        (dg_weights.Weight, "sqrt"),
        (dg_weights.Weight, "__pow__"),
        ("weights", "reduce_generators"),
        ("weights", "parse_weight"),
    ],
    "loop_algebra": [
        (dg_loop_algebra.Coefficient, "__mul__"),
        (dg_loop_algebra.Coefficient, "__add__"),
        ("loop_algebra", "basis"),
        ("loop_algebra", "cup"),
        ("loop_algebra", "cap"),
        ("loop_algebra", "star"),
        ("loop_algebra", "inner"),
        ("loop_algebra", "apply_modular"),
        ("loop_algebra", "modular_spectrum"),
    ],
    "graph": [
        (dg_graph.DeltaGraph, "out_edges"),
        ("graph", "ball"),
        ("graph", "enumerate_loops"),
        ("graph", "vertex_weighting"),
        ("graph", "validate"),
    ],
    "cover": [
        ("cover", "tracial_cover"),
        ("cover", "loop_weight_group"),
        ("cover", "lift_loop"),
    ],
    "actions": [
        ("actions", "check_action"),
        ("actions", "orbit_partition"),
        ("actions", "quotient"),
        ("actions", "recover"),
    ],
    "isomorphism": [("isomorphism", "iso_check")],
    "invariants": [
        ("invariants", "partial_automorphisms"),
        ("invariants", "t0"),
    ],
    "io": [
        ("io", "serialize_graph"),
        ("io", "parse_graph"),
        ("io", "export_dot"),
    ],
    "cli": [("cli", "main")],
}

# Methods called too often for one span each, so only their calls are counted,
# under the given key: ``TruncatedGraph.out_edges`` is a dict lookup that the
# matchers make millions of times per ``search`` pass.
COUNTED = [(dg_graph.TruncatedGraph, "out_edges", "ball_adjacency_calls")]

_MODULES = ("actions", "builders", "cli", "cover", "graph", "invariants", "io",
            "isomorphism", "loop_algebra", "weights")


def _span_name(layer: str, owner, attr: str) -> str:
    return "%s.%s" % (layer, attr if isinstance(owner, str) else owner.__name__ + "." + attr)


class Tracer:
    """Records spans and counts while installed; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.job = -1
        self._stack = [-1]
        self._seen_vertices: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        names_a, parents_a, jobs_a = self.span_name.append, self.span_parent.append, self.span_job.append
        starts_a, ends_a, ends = self.span_start.append, self.span_end.append, self.span_end
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(ends)
            names_a(nid)
            parents_a(stack[-1])
            jobs_a(self.job)
            ends_a(0.0)
            stack.append(sid)
            starts_a(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_hooks(self):
        c = self.counts
        seen = self._seen_vertices

        def out_edges(args, result):
            g, v = args
            got = seen.get(g)
            if got is None:
                got = seen[g] = set()
            if v not in got:
                got.add(v)
                c["adjacency_misses"] += 1

        def cap_terms(args, result):
            c["cap_terms_in"] += len(args[0].terms)
            c["cap_terms_out"] += len(result.terms)

        def add(key, measure):
            def hook(args, result):
                c[key] += measure(args, result)
            return hook

        return {
            "graph.DeltaGraph.out_edges": out_edges,
            "loop_algebra.cup": add("cup_terms_out", lambda a, r: len(r.terms)),
            "loop_algebra.cap": cap_terms,
            "graph.enumerate_loops": add("loops_enumerated", lambda a, r: len(r)),
            "graph.ball": add("ball_vertices", lambda a, r: len(r.vertices)),
            "cover.tracial_cover": add("cover_vertices", lambda a, r: len(r.graph.vertices)),
            "isomorphism.iso_check": add("iso_vertices", lambda a, r: len(a[0].vertices)),
            "invariants.partial_automorphisms": add("automorphisms_found", lambda a, r: len(r)),
            "io.serialize_graph": add("bytes_out", lambda a, r: len(r.encode())),
            "io.export_dot": add("bytes_out", lambda a, r: len(r.encode())),
            "io.parse_graph": add("bytes_in", lambda a, r: len(a[0].encode())),
        }

    def _counted(self, key: str, fn):
        c = self.counts

        def counted(*args, **kwargs):
            c[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _main_wrapper(self, name, fn):
        """``cli.main`` counts what it writes to a captured (StringIO) stdout."""
        c = self.counts
        inner = self._wrap(name, fn)

        def main(argv=None):
            out = sys.stdout
            before = out.tell()
            try:
                return inner(argv)
            finally:
                c["stdout_bytes"] += len(out.getvalue()[before:].encode())

        main.__wrapped__ = fn
        return main

    def install(self) -> None:
        modules = [dg] + [getattr(dg, m) for m in _MODULES]
        hooks = self._after_hooks()
        for layer, entries in LAYERS.items():
            for owner, attr in entries:
                name = _span_name(layer, owner, attr)
                if isinstance(owner, str):
                    fn = getattr(getattr(dg, owner), attr)
                else:
                    fn = owner.__dict__[attr]
                if name == "cli.main":
                    traced = self._main_wrapper(name, fn)
                else:
                    traced = self._wrap(name, fn, hooks.get(name))
                if isinstance(owner, str):
                    for mod in modules:
                        for key, val in list(vars(mod).items()):
                            if val is fn:
                                self._restore.append((mod, key, val))
                                setattr(mod, key, traced)
                else:
                    self._restore.append((owner, attr, fn))
                    setattr(owner, attr, traced)
        for owner, attr, key in COUNTED:
            fn = owner.__dict__[attr]
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._counted(key, fn))

    def uninstall(self) -> None:
        while self._restore:
            obj, key, val = self._restore.pop()
            setattr(obj, key, val)

    # ------------------------------------------------------------- results

    def durations(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count, inclusive time and self time."""
        n = len(self.span_end)
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        child = [0.0] * n
        for sid in range(n):
            p = parents[sid]
            if p >= 0:
                child[p] += ends[sid] - starts[sid]
        calls, total, self_time = Counter(), Counter(), Counter()
        for sid in range(n):
            name = self.names[names[sid]]
            d = ends[sid] - starts[sid]
            calls[name] += 1
            total[name] += d
            self_time[name] += d - child[sid]
        return calls, total, self_time

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have a span called ``ancestor`` above them."""
        nid, aid = self.names.index(name), self.names.index(ancestor)
        names, parents = self.span_name, self.span_parent
        hits = 0
        for sid in range(len(names)):
            if names[sid] != nid:
                continue
            p = parents[sid]
            while p >= 0 and names[p] != aid:
                p = parents[p]
            hits += p >= 0
        return hits

    def write(self, path: str) -> None:
        """One JSON header line (names, field order and types, span count),
        then each field's array in native byte order."""
        fields = [("name", self.span_name), ("parent", self.span_parent), ("job", self.span_job),
                  ("start", self.span_start), ("end", self.span_end)]
        header = {"names": self.names, "count": len(self.span_end),
                  "fields": [[f, a.typecode] for f, a in fields], "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for _, a in fields:
                a.tofile(fh)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by metric name (no units)."""
    calls, total, self_time = tr.durations()
    c = tr.counts

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_time.items() if k.startswith(prefix))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    adjacency = calls["graph.DeltaGraph.out_edges"]
    # the modular-relation check evaluates two inner products per basis pair
    verify_inner = tr.count_under("loop_algebra.inner", "loop_algebra.modular_spectrum")
    quotients = calls["actions.quotient"]
    coeff = ("loop_algebra.Coefficient.__mul__", "loop_algebra.Coefficient.__add__")
    return {
        "weights.mul_calls": calls["weights.Weight.__mul__"],
        "weights.exact_calls": calls["weights.GeneratorContext.exact"],
        "weights.eq_calls": calls["weights.Weight.eq"],
        "weights.self_s": layer_self("weights."),
        "loop_algebra.coeff_mul_calls": calls[coeff[0]],
        "loop_algebra.coeff_add_calls": calls[coeff[1]],
        "loop_algebra.coeff_self_s": sum(self_time[k] for k in coeff),
        "loop_algebra.cup_calls": calls["loop_algebra.cup"],
        "loop_algebra.cup_terms_out": c["cup_terms_out"],
        "loop_algebra.cup_s": total["loop_algebra.cup"],
        "loop_algebra.cap_calls": calls["loop_algebra.cap"],
        "loop_algebra.cap_terms_in": c["cap_terms_in"],
        "loop_algebra.cap_terms_out": c["cap_terms_out"],
        "loop_algebra.cap_yield": ratio(c["cap_terms_out"], c["cap_terms_in"]),
        "loop_algebra.cap_s": total["loop_algebra.cap"],
        "loop_algebra.star_s": total["loop_algebra.star"],
        "loop_algebra.inner_calls": calls["loop_algebra.inner"],
        "loop_algebra.inner_s": total["loop_algebra.inner"],
        "loop_algebra.spectrum_s": total["loop_algebra.modular_spectrum"],
        "loop_algebra.verify_pairs": verify_inner // 2,
        "graph.enumerate_loops_calls": calls["graph.enumerate_loops"],
        "graph.loops_enumerated": c["loops_enumerated"],
        "graph.enumerate_loops_s": total["graph.enumerate_loops"],
        "graph.ball_calls": calls["graph.ball"],
        "graph.ball_vertices": c["ball_vertices"],
        "graph.ball_s": total["graph.ball"],
        "graph.adjacency_calls": adjacency,
        "graph.adjacency_misses": c["adjacency_misses"],
        "graph.memo_hit_ratio": ratio(adjacency - c["adjacency_misses"], adjacency),
        "graph.ball_adjacency_calls": c["ball_adjacency_calls"],
        "graph.vertex_weighting_s": total["graph.vertex_weighting"],
        "cover.tracial_cover_s": total["cover.tracial_cover"],
        "cover.cover_vertices": c["cover_vertices"],
        "cover.loop_weight_group_s": total["cover.loop_weight_group"],
        "actions.check_action_s": total["actions.check_action"],
        "actions.quotient_s": total["actions.quotient"],
        "actions.recover_s": total["actions.recover"],
        "actions.ball_calls_per_quotient": ratio(
            tr.count_under("graph.ball", "actions.quotient") if quotients else 0, quotients),
        "isomorphism.iso_check_calls": calls["isomorphism.iso_check"],
        "isomorphism.iso_vertices": c["iso_vertices"],
        "isomorphism.iso_check_s": total["isomorphism.iso_check"],
        "invariants.partial_automorphisms_s": total["invariants.partial_automorphisms"],
        "invariants.automorphisms_found": c["automorphisms_found"],
        "io.serialize_s": total["io.serialize_graph"],
        "io.parse_s": total["io.parse_graph"],
        "io.bytes_out": c["bytes_out"],
        "io.bytes_in": c["bytes_in"],
        "cli.main_calls": calls["cli.main"],
        "cli.main_s": total["cli.main"],
        "cli.stdout_bytes": c["stdout_bytes"],
    }
