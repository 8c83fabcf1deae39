"""Weighted directed multigraphs with conjugate edge pairs.

A delta graph is a locally finite directed multigraph with a distinguished
basepoint, an involution pairing each edge with a reverse edge of inverse
weight, and outgoing weight sum equal to ``delta`` at every vertex.  Graphs
may be infinite: adjacency is a pure function from a vertex to its outgoing
edges, and all computations work on a finite ball around the basepoint.

A ball is itself a delta graph: a :class:`TruncatedGraph` is a
:class:`DeltaGraph` whose frontier is its boundary, so every function here
takes either, and a ball of a ball is cut from the stored edges.

One breadth-first search, :func:`bfs_tree`, fixes the discovery order along
stored edges: :func:`ball` is its traversal cut at the radius,
:func:`bfs_distances` reads depths off it, and :func:`vertex_weighting`
assigns its potential along the tree's edges.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

from .weights import GeneratorContext, Weight, _log_sum

VertexId = Hashable
EdgeId = Hashable


class GraphConstructionError(ValueError):
    """A procedural graph's adjacency function failed or returned bad data."""


class NonTracialGraphError(ValueError):
    """An operation requiring a tracial graph was given a non-tracial one."""

    def __init__(self, message: str, witness: "Path | None" = None):
        super().__init__(message)
        self.witness = witness


def vid_key(v):
    """Total order on vertex/edge ids of mixed shapes (ints, strings, tuples)."""
    if hasattr(v, "_vid_key_"):
        return v._vid_key_()
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, int):
        return ("i", v)
    if isinstance(v, float):
        return ("f", v)
    if isinstance(v, str):
        return ("s", v)
    if isinstance(v, tuple):
        return ("t",) + tuple(vid_key(x) for x in v)
    return ("r", repr(v))


class Edge(NamedTuple):
    """Directed edge; ``conjugate`` names the paired reverse edge.

    A tuple record, built, hashed and compared in C: edges are equal and
    hash alike when their fields are, and assigning a field raises
    ``AttributeError``."""

    eid: EdgeId
    source: VertexId
    target: VertexId
    weight: Weight
    conjugate: EdgeId

    def __repr__(self):
        return "Edge(%r: %r->%r, %s)" % (self.eid, self.source, self.target, self.weight.text())


@dataclass(frozen=True)
class Path:
    """Edge sequence starting at ``start``; consecutive edges must compose.

    A path is its edges: ``weight`` is their product, left to right from
    ``context``'s identity, computed on first use.
    """

    start: VertexId
    edges: tuple[Edge, ...]
    context: GeneratorContext

    @classmethod
    def empty(cls, context: GeneratorContext, start: VertexId) -> "Path":
        return cls(start, (), context)

    @classmethod
    def of(cls, context: GeneratorContext, start: VertexId, edges: Sequence[Edge]) -> "Path":
        edges = tuple(edges)
        at = start
        for e in edges:
            if e.source != at:
                raise ValueError("edges do not compose at %r" % (at,))
            at = e.target
        return cls(start, edges, context)

    @cached_property
    def weight(self) -> Weight:
        w = self.context.identity()
        for e in self.edges:
            w = w * e.weight
        return w

    @property
    def target(self) -> VertexId:
        return self.edges[-1].target if self.edges else self.start

    def __len__(self):
        return len(self.edges)

    def is_loop(self) -> bool:
        return self.target == self.start

    def __mul__(self, other: "Path") -> "Path":
        if other.start != self.target:
            raise ValueError("paths do not compose")
        return Path(self.start, self.edges + other.edges, self.context)

    def reversed_in(self, graph) -> "Path":
        """The conjugate path: reversed edge order, each edge conjugated."""
        rev = tuple(graph.conjugate_edge(e) for e in reversed(self.edges))
        return Path(self.target, rev, self.context)

    def edge_ids(self) -> tuple[EdgeId, ...]:
        return tuple(e.eid for e in self.edges)

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return self.start == other.start and self.edges == other.edges

    def __hash__(self):
        return hash((self.start, self.edge_ids()))

    def __repr__(self):
        return "Path(%r, [%s])" % (self.start, ", ".join(repr(e.eid) for e in self.edges))


class DeltaGraph:
    """A delta graph given by a pure outgoing-adjacency function.

    ``out_edges_fn(v)`` returns the finite list of outgoing :class:`Edge`
    records of ``v`` in a stable order.  ``frontier(v)`` marks vertices whose
    adjacency is only partially known (boundaries of truncations); such
    vertices are exempt from fairness checks and never expanded past.
    """

    def __init__(
        self,
        delta: float,
        context: GeneratorContext,
        basepoint: VertexId,
        out_edges_fn: Callable[[VertexId], Sequence[Edge]],
        *,
        declared_vertices: Iterable[VertexId] | None = None,
        frontier: Callable[[VertexId], bool] | None = None,
        label: str = "",
    ):
        if not (delta >= 2):
            raise ValueError("delta must be >= 2, got %r" % delta)
        if math.isinf(delta):
            raise ValueError("delta must be finite, got %r" % delta)
        self.delta = float(delta)
        self.context = context
        self.basepoint = basepoint
        self.label = label
        self._fn = out_edges_fn
        self._frontier = frontier
        self.declared_vertices = (
            None if declared_vertices is None else tuple(declared_vertices)
        )
        self._memo: dict[VertexId, tuple[Edge, ...]] = {}

    def out_edges(self, v: VertexId) -> tuple[Edge, ...]:
        got = self._memo.get(v)
        if got is None:
            try:
                got = tuple(self._fn(v))
            except OverflowError:
                raise  # a weight left the float range: not a construction fault
            except Exception as exc:
                raise GraphConstructionError(
                    "adjacency function failed at vertex %r: %s" % (v, exc)
                ) from exc
            for e in got:
                if e.source != v:
                    raise GraphConstructionError(
                        "edge %r listed at %r has source %r" % (e.eid, v, e.source)
                    )
            self._memo[v] = got
        return got

    def edge_at(self, v: VertexId, eid: EdgeId) -> Edge | None:
        """The edge ``eid`` out of ``v``, or None if ``v`` has none."""
        for cand in self.out_edges(v):
            if cand.eid == eid:
                return cand
        return None

    def conjugate_edge(self, e: Edge) -> Edge:
        """The conjugate of ``e``: the edge ``e.conjugate`` out of ``e.target``,
        which must lead back to ``e.source`` and name ``e`` in turn.  The one
        conjugate rule; anything else raises :class:`GraphConstructionError`."""
        c = self.edge_at(e.target, e.conjugate)
        if c is None:
            raise GraphConstructionError(
                "conjugate %r of edge %r not found at %r" % (e.conjugate, e.eid, e.target)
            )
        if c.target != e.source or c.conjugate != e.eid:
            raise GraphConstructionError("edges %r / %r are not a conjugate pair" % (e.eid, c.eid))
        return c

    def is_frontier(self, v: VertexId) -> bool:
        return bool(self._frontier and self._frontier(v))

    def __repr__(self):
        return "DeltaGraph(%s, delta=%g)" % (self.label or "?", self.delta)


class TruncatedGraph(DeltaGraph):
    """A finite window onto a delta graph: the ball of a given radius.

    It is a delta graph whose frontier is its boundary: boundary vertices
    (at full radius, or sitting on the underlying graph's own frontier) have
    incomplete adjacency, are exempt from fairness and are never expanded
    past.  Its vertices are its declared vertices, in the order of ``out``;
    BFS discovery order for a ball.  Every constructor passes ``out`` in a
    deterministic order, never one that follows set iteration.
    """

    def __init__(
        self,
        *,
        delta: float,
        context: GeneratorContext,
        basepoint: VertexId,
        radius: int,
        out: Mapping[VertexId, Sequence[Edge]],
        distance: Mapping[VertexId, int],
        boundary: Iterable[VertexId],
        exhausted: bool = False,
        label: str = "",
    ):
        self._out = {v: tuple(es) for v, es in out.items()}
        self.boundary = frozenset(boundary)
        super().__init__(
            delta,
            context,
            basepoint,
            self._out.__getitem__,
            declared_vertices=self._out,
            frontier=self.boundary.__contains__,
            label=label,
        )
        self.vertices = self.declared_vertices
        self.radius = int(radius)
        self.distance = dict(distance)
        self.exhausted = exhausted
        self._edges: dict[EdgeId, Edge] = {e.eid: e for es in self._out.values() for e in es}
        if len(self._edges) < sum(map(len, self._out.values())):
            seen: set = set()  # the first id met twice; seen.add returns None
            dup = next(e.eid for es in self._out.values() for e in es
                       if e.eid in seen or seen.add(e.eid))
            raise GraphConstructionError("duplicate edge id %r" % (dup,))

    @property
    def interior(self) -> tuple[VertexId, ...]:
        return tuple(v for v in self.vertices if v not in self.boundary)

    def out_edges(self, v: VertexId) -> tuple[Edge, ...]:
        return self._out[v]

    def edge(self, eid: EdgeId) -> Edge:
        return self._edges[eid]

    def edges(self) -> tuple[Edge, ...]:
        """Every edge, ordered by ``vid_key`` of its id; sorted on each call."""
        return tuple(self._edges[k] for k in sorted(self._edges, key=vid_key))

    def edge_count(self) -> int:
        return len(self._edges)

    def edge_at(self, v: VertexId, eid: EdgeId) -> Edge | None:
        got = self._edges.get(eid)
        return got if got is not None and got.source == v else None

    def __contains__(self, v: VertexId) -> bool:
        return v in self._out

    def __repr__(self):
        return "TruncatedGraph(%s, radius=%d, %d vertices)" % (
            self.label or "?",
            self.radius,
            len(self.vertices),
        )


def bfs_tree(
    out_edges: Callable[[VertexId], Iterable[Edge]], start: VertexId
) -> dict[VertexId, Edge | None]:
    """Every vertex reached from ``start``, keyed in discovery order along
    each vertex's edges as ``out_edges`` lists them, mapped to the edge that
    discovered it (None at ``start``)."""
    tree: dict[VertexId, Edge | None] = {start: None}
    queue = deque([start])
    while queue:
        for e in out_edges(queue.popleft()):
            if e.target not in tree:
                tree[e.target] = e
                queue.append(e.target)
    return tree


def ball(g: DeltaGraph, radius: int) -> TruncatedGraph:
    """All vertices within ``radius`` of the basepoint and all edges among them.

    The vertices are those of the BFS tree (:func:`bfs_tree`) that expands
    every vertex short of the radius and off the graph's frontier, in its
    discovery order.  The ball is ``exhausted`` when no edge leaves it and
    it reaches no frontier vertex, or only those of a truncation that is
    itself exhausted.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    # expand records a depth the first time it sees a vertex, scanning edges
    # in the order bfs_tree does, so dist is keyed in the tree's discovery order
    dist = {g.basepoint: 0}

    def expand(v):
        d = dist[v]
        if d == radius or g.is_frontier(v):
            return ()
        es = g.out_edges(v)
        for e in es:
            dist.setdefault(e.target, d + 1)
        return es

    bfs_tree(expand, g.basepoint)
    out = {}
    boundary = set()
    # only a vertex that was not expanded can have edges leaving the ball; a
    # frontier vertex may have more than g shows, unless g is a truncation
    # that holds the whole graph
    complete = isinstance(g, TruncatedGraph) and g.exhausted
    exhausted = True
    for v, d in dist.items():
        es = g.out_edges(v)
        frontier = g.is_frontier(v)
        if d == radius or frontier:
            kept = tuple(e for e in es if e.target in dist)
            if len(kept) < len(es) or frontier and not complete:
                exhausted = False
            boundary.add(v)
            es = kept
        out[v] = es
    return TruncatedGraph(
        delta=g.delta,
        context=g.context,
        basepoint=g.basepoint,
        radius=radius,
        out=out,
        distance=dist,
        boundary=boundary,
        exhausted=exhausted,
        label=g.label,
    )


def window(g: DeltaGraph, radius: int | None = None) -> TruncatedGraph:
    """The truncation ``g`` itself when no radius is given, else its ball of
    ``radius``; a graph that is not a truncation needs the radius."""
    if radius is not None:
        return ball(g, radius)
    if isinstance(g, TruncatedGraph):
        return g
    raise ValueError("radius required for a non-truncated graph")


def bfs_distances(
    out_edges: Callable[[VertexId], Iterable[Edge]],
    start: VertexId,
    vertices: Iterable[VertexId],
) -> dict[VertexId, int]:
    """Depths in the BFS tree from ``start`` (:func:`bfs_tree`), in its
    discovery order.  Members of ``vertices`` left unreached are appended in
    their given order, each at the count of vertices before it."""
    dist: dict[VertexId, int] = {}
    for v, e in bfs_tree(out_edges, start).items():
        dist[v] = 0 if e is None else dist[e.source] + 1
    for v in vertices:
        dist.setdefault(v, len(dist))
    return dist


def check_based_loop(g: DeltaGraph, l: Path) -> None:
    """Raise ``ValueError`` unless ``l`` is a loop at the basepoint of ``g``."""
    if l.start != g.basepoint or not l.is_loop():
        raise ValueError("not a loop at the basepoint %r: the path runs from %r to %r"
                         % (g.basepoint, l.start, l.target))


def unfair_log_sum(g: DeltaGraph, out: Iterable[Edge]) -> float | None:
    """The log of the weight sum of one vertex's out-edges, or None when it is
    within tolerance of log(delta); by :func:`weights._log_sum`, so no
    exponent overflows."""
    total = _log_sum(e.weight for e in out)
    return None if abs(total - math.log(g.delta)) <= g.context.tolerance else total


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    radius: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def validate(g: DeltaGraph, radius: int | None = None) -> ValidationReport:
    """Check the delta-graph axioms on the ball of the given radius.

    Checks: every edge has a conjugate by :meth:`DeltaGraph.conjugate_edge`
    (a failure shows its error), conjugate weight products are 1 (by their
    logs where a product leaves the float range, shown as ``exp(<log>)``),
    outgoing weight sums equal delta at interior vertices, and (for graphs
    with a declared finite vertex set) connectivity from the basepoint.
    """
    b = window(g, radius)
    declared = None if b is g else g.declared_vertices

    inv_bad: list[str] = []
    wprod_bad: list[str] = []
    for e in b.edges():
        try:
            c = b.conjugate_edge(e)
        except GraphConstructionError as exc:
            inv_bad.append(str(exc))
            continue
        try:
            w = e.weight * c.weight
        except OverflowError:  # a product past the float range is decided by its log
            log = e.weight.log_value + c.weight.log_value
            if abs(log) > b.context.tolerance:
                wprod_bad.append("w(%r) * w(%r) = exp(%.12g) != 1" % (e.eid, c.eid, log))
            continue
        if not w.is_identity():
            wprod_bad.append("w(%r) * w(%r) = %s != 1" % (e.eid, c.eid, w.text()))

    fair_bad: list[str] = []
    for v in b.interior:
        total = unfair_log_sum(b, b.out_edges(v))
        if total is not None:
            try:
                shown = "%.12g" % math.exp(total)
            except OverflowError:  # a sum past the float range shows as inf
                shown = "inf"
            if shown == "0" and total > -math.inf:  # a positive sum below the float range
                shown = "exp(%.12g)" % total
            fair_bad.append("vertex %r: outgoing sum %s != delta %.12g" % (v, shown, b.delta))

    conn_bad: list[str] = []
    if declared is not None and b.exhausted:
        seen = set(b.vertices)
        for v in declared:
            if v not in seen:
                conn_bad.append("vertex %r unreachable from basepoint" % (v,))

    checks = (
        CheckResult("involution", not inv_bad, tuple(inv_bad)),
        CheckResult("conjugate-weights", not wprod_bad, tuple(wprod_bad)),
        CheckResult("fairness", not fair_bad, tuple(fair_bad)),
        CheckResult("connectivity", not conn_bad, tuple(conn_bad)),
    )
    return ValidationReport(radius=b.radius, checks=checks)


@dataclass(frozen=True)
class WeightingResult:
    """Either a vertex weighting, or a witness loop of non-unit weight.

    A vertex weighting maps each vertex to its weight, inducing the edge
    weighting w(e) = w(target)/w(source).
    """

    weighting: Mapping[VertexId, Weight] | None
    witness: Path | None

    def __bool__(self):
        return self.weighting is not None


def vertex_weighting(g: DeltaGraph, radius: int | None = None) -> WeightingResult:
    """Assign w(basepoint)=1 and extend along the BFS tree; detect inconsistency.

    The potential follows the edges of :func:`bfs_tree`, and every other
    edge is checked in the same scan order.  The graph is tracial on the
    ball exactly when all agree; otherwise the result carries a based loop
    of weight != 1: out along the tree, over the first inconsistent edge,
    and back along the tree.
    """
    b = window(g, radius)
    tree = bfs_tree(b.out_edges, b.basepoint)
    w: dict[VertexId, Weight] = {}
    for v, e in tree.items():
        w[v] = b.context.identity() if e is None else w[e.source] * e.weight

    def tree_path(v) -> Path:
        edges = []
        while tree[v] is not None:
            edges.append(tree[v])
            v = tree[v].source
        return Path(b.basepoint, tuple(reversed(edges)), b.context)

    for v in tree:
        for e in b.out_edges(v):
            if tree[e.target] is not e and not w[e.target].eq(w[v] * e.weight):
                witness = tree_path(v) * Path(v, (e,), b.context) * tree_path(e.target).reversed_in(b)
                return WeightingResult(None, witness)
    return WeightingResult(w, None)


def tracial_ball(
    g: DeltaGraph, radius: int, what: str
) -> tuple[TruncatedGraph, Mapping[VertexId, Weight]]:
    """The ball and its vertex weighting; ``what`` names the caller in the
    :class:`NonTracialGraphError` raised when the ball is not tracial."""
    b = ball(g, radius)
    wr = vertex_weighting(b)
    if not wr:
        raise NonTracialGraphError(
            "%s need a tracial graph; witness loop of weight %s"
            % (what, wr.witness.weight.text()),
            wr.witness,
        )
    return b, wr.weighting


def enumerate_loops(g: DeltaGraph, n: int) -> tuple[Path, ...]:
    """Every based loop of length exactly ``n``, lexicographic by edge ids."""
    if n < 0:
        raise ValueError("loop length must be nonnegative")
    ctx = g.context
    if n == 0:
        return (Path.empty(ctx, g.basepoint),)
    b = ball(g, (n + 1) // 2)
    dist = b.distance
    loops: list[Path] = []
    by_key: dict[VertexId, list[Edge]] = {}  # each vertex's out-edges, sorted once

    def steps(v: VertexId, remaining: int):
        """The edges out of v, by ``vid_key`` of their ids, whose target is
        within ``remaining - 1`` steps of the basepoint."""
        es = by_key.get(v)
        if es is None:
            es = by_key[v] = sorted(b.out_edges(v), key=lambda e: vid_key(e.eid))
        return iter([e for e in es if dist.get(e.target, remaining) < remaining])

    # depth first from an explicit stack of edge iterators, so the loop
    # length is not bounded by the recursion limit; an edge taken with one
    # step left ends at the basepoint, the one vertex at distance 0
    path: list[Edge] = []
    todo = [steps(g.basepoint, n)]
    while todo:
        e = next(todo[-1], None)
        if e is None:
            todo.pop()
            if path:
                path.pop()
        elif len(path) == n - 1:
            loops.append(Path.of(ctx, g.basepoint, (*path, e)))
        else:
            path.append(e)
            todo.append(steps(e.target, n - len(path)))
    return tuple(loops)


def loop_weight_counts(g: DeltaGraph, n: int) -> tuple[tuple[Weight, int], ...]:
    """The weights of the based loops of length exactly ``n``, each with the
    number of loops that have it, without enumerating the loops.

    A walk count over ``(vertex, accumulated weight)`` states, which are the
    tracial cover's vertices, on the ball and with the pruning of
    :func:`enumerate_loops`.  Weights are formed left to right as in
    :meth:`Path.of` and states are keyed by structural ``Weight`` equality,
    so the multiset is exactly that of ``enumerate_loops(g, n)``, float
    weights included; tolerance merging is left to ``group_weights``.
    """
    if n < 0:
        raise ValueError("loop length must be nonnegative")
    states = {(g.basepoint, g.context.identity()): 1}
    if n:
        b = ball(g, (n + 1) // 2)
        dist = b.distance
        for remaining in range(n - 1, -1, -1):
            nxt: dict = {}
            for (v, w), count in states.items():
                for e in b.out_edges(v):
                    d = dist.get(e.target)
                    if d is None or d > remaining:
                        continue
                    key = (e.target, w * e.weight)
                    nxt[key] = nxt.get(key, 0) + count
            states = nxt
    return tuple((w, count) for (_, w), count in states.items())
