"""Basepoint-aware matching of truncated graphs.

One backtracking engine, :func:`matchings`, serves both isomorphism testing
(:func:`iso_check`) and the partial automorphisms of
:mod:`deltagraph.invariants`.  It maps vertices in the discovery order of
:func:`deltagraph.graph.bfs_tree` over edges taken in their stored order,
from an explicit stack, so search depth is not bounded by the recursion
limit, and checks each new pair only against its already-mapped neighbours,
in the manner of VF2 (Cordella et al., TPAMI 2004).  Mappings come out in
that stored-edge order, not sorted by vertex id.  No canonical labeling.
Two truncations are isomorphic when a vertex bijection induces an edge
bijection preserving source, target, weight, conjugation and boundary flags.

Before a search both truncations are compiled once (:func:`edge_tables`):
distinct edge weights become small class ids, as nauty and Traces reduce
labels first (McKay & Piperno 2014), and edge multisets interned ids, so the
search compares ints and never calls ``Weight.eq``.  The table of the graph
mapped into also carries candidate rows: per vertex and edge class, the
targets of its out-edges of that class in stored-edge order, so listing the
candidates along a tree edge is one dict lookup.  Weight classes relate
g1's weights to g2's, never within one graph (:func:`_classes`).  Only the
matcher compiles tables: the action check runs on a tracial ball, whose
vertex weights fix every edge weight, so it counts edges instead.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .graph import Edge, TruncatedGraph, VertexId, bfs_tree
from .weights import Weight, _ambiguity, _near


def interior_restriction(t: TruncatedGraph) -> TruncatedGraph:
    """The subgraph induced on interior (non-boundary) vertices."""
    keep = set(t.interior)
    if t.basepoint not in keep:
        raise ValueError("basepoint is on the boundary; nothing to restrict to")
    out = {
        v: tuple(e for e in t.out_edges(v) if e.target in keep) for v in t.interior
    }
    return TruncatedGraph(
        delta=t.delta,
        context=t.context,
        basepoint=t.basepoint,
        radius=t.radius,
        out=out,
        distance={v: d for v, d in t.distance.items() if v in keep},
        boundary=(),
        exhausted=True,
        label=t.label + "|interior",
    )


def _straddle(ws, rel, others, back):
    """A weight of ``ws`` and two of ``others`` it is related to by ``rel``
    whose relations ``back`` differ, if there is one."""
    for w, js in zip(ws, rel):
        for j in js[1:]:
            if back[j] != back[js[0]]:
                return w, others[js[0]], others[j]


def _classes(ws1: Sequence[Weight], ws2: Sequence[Weight]) -> tuple[dict, dict]:
    """Class ids of two lists of distinct weights, related bipartitely (each
    of ws1 to each of ws2, never within a list) by :func:`weights._near`:
    related weights share an id, and a weight related to none has its own.
    ``ValueError`` unless the relation splits into disjoint complete blocks,
    naming a weight (a float one if any) near two of different classes."""
    rel = [[j for j, w2 in enumerate(ws2) if _near(w1, w2)] for w1 in ws1]
    back = [[i for i, js in enumerate(rel) if j in js] for j in range(len(ws2))]
    found = [s for s in (_straddle(ws1, rel, ws2, back), _straddle(ws2, back, ws1, rel)) if s]
    if found:
        raise _ambiguity(*min(found, key=lambda s: s[0].is_exact))
    ids: dict = {}
    cls1 = {w: ids.setdefault(tuple(js) or (1, i), len(ids))
            for i, (w, js) in enumerate(zip(ws1, rel))}
    cls2 = {w: ids.setdefault(tuple(rel[i[0]]) if i else (2, j), len(ids))
            for j, (w, i) in enumerate(zip(ws2, back))}
    return cls1, cls2


class EdgeTable(NamedTuple):
    """A truncation's edges as interned multisets of edge classes, an edge's
    class being ``2 * cls[weight] + (self-conjugate)``.  ``out`` maps each
    vertex to the id of its out-edge multiset, and ``adj`` each vertex to
    its out-targets and in-sources, each to the id of the multiset of the
    edges from the vertex to it (0, the empty one, for an in-source only).
    ``rows`` maps each vertex to its candidate row, in a table that the
    matcher maps into (else it is empty): per class, the targets of the
    vertex's out-edges of that class, once each, in stored-edge order."""

    cls: dict[Weight, int]
    out: dict[VertexId, int]
    adj: dict[VertexId, dict[VertexId, int]]
    rows: dict[VertexId, dict[int, tuple[VertexId, ...]]]

    def edge_class(self, e: Edge) -> int:
        return 2 * self.cls[e.weight] + (e.conjugate == e.eid)


def _table(t: TruncatedGraph, cls: dict[Weight, int], step: dict, grow,
           with_rows: bool) -> EdgeTable:
    out, adj, rows = {}, {v: {} for v in t.vertices}, {}
    for v in t.vertices:
        o, row, by_class = 0, adj[v], {}
        for eid, _, target, weight, conj in t.out_edges(v):
            c = 2 * cls[weight] + (conj == eid)
            # a multiset with a class added is never the empty one, id 0
            o = step.get((o, c)) or grow(o, c)
            i = row.get(target, 0)
            row[target] = step.get((i, c)) or grow(i, c)
            adj[target].setdefault(v, 0)
            if with_rows and target not in by_class.get(c, ()):
                by_class[c] = by_class.get(c, ()) + (target,)
        out[v] = o
        if with_rows:
            rows[v] = by_class
    return EdgeTable(cls, out, adj, rows)


def edge_tables(
    g1: TruncatedGraph, g2: TruncatedGraph
) -> tuple[EdgeTable, EdgeTable, Callable[[int, int], bool]]:
    """Both truncations compiled once, against each other's weights
    (:func:`_classes`) and with one id per class multiset across the two,
    and ``into(a, b)``: does multiset ``a`` map into ``b`` class by class?
    Equal ids map onto.  Only g2's table, the one mapped into, carries
    candidate rows."""
    ws1, ws2 = (list(dict.fromkeys(e.weight for v in g.vertices for e in g.out_edges(v)))
                for g in (g1, g2))
    cls1, cls2 = _classes(ws1, ws2)
    forms: list[tuple[int, ...]] = [()]  # id -> sorted class tuple
    ids = {(): 0}
    step: dict[tuple[int, int], int] = {}  # (id, class) -> id with the class added

    def grow(i: int, c: int) -> int:
        form = tuple(sorted(forms[i] + (c,)))
        got = step[i, c] = ids.setdefault(form, len(ids))
        if got == len(forms):
            forms.append(form)
        return got

    t1 = _table(g1, cls1, step, grow, False)
    t2 = _table(g2, cls2, step, grow, True)

    @lru_cache(maxsize=None)
    def into(a: int, b: int) -> bool:
        return not Counter(forms[a]) - Counter(forms[b])

    return t1, t2, into


def matchings(
    g1: TruncatedGraph, g2: TruncatedGraph, roots: Iterable[VertexId], bijective: bool
) -> Iterator[dict[VertexId, VertexId]]:
    """Every edge-preserving injection of g1 into g2 sending g1's basepoint
    to one of ``roots``.

    Vertices of g1 are mapped in the order of its BFS tree over its stored
    edges (a ``ValueError`` unless the tree reaches every vertex); each is
    sent along an edge of the image of its tree parent, trying roots in the
    order given and candidates in g2's stored-edge order, so mappings come
    out in that order, not sorted by vertex id.  Edges between mapped
    vertices must inject class by class (their class multisets in
    :func:`edge_tables`), and onto where their source is matched exactly:
    every vertex when ``bijective``, else the interior ones, which also
    carry their full outgoing multiset.  ``bijective`` also requires
    boundary flags to agree.  ``ValueError`` where the two weight sets do
    not split into classes (:func:`_classes`).
    """
    parent = bfs_tree(g1.out_edges, g1.basepoint)
    if len(parent) != len(g1.vertices):
        raise ValueError("matching requires truncations connected from the basepoint")
    order = list(parent)
    t1, t2, into = edge_tables(g1, g2)
    out1, out2, adj1, adj2, rows2 = t1.out, t2.out, t1.adj, t2.adj, t2.rows
    mapping: dict[VertexId, VertexId] = {}
    inverse: dict[VertexId, VertexId] = {}

    def compatible(u, v) -> bool:
        if bijective and (u in g1.boundary) != (v in g2.boundary):
            return False
        # partial mode: on a fair ball an interior vertex's out-sum is delta, so onto cannot fail
        onto = bijective or u not in g1.boundary
        if onto and out1[u] != out2[v]:
            return False
        row1, row2 = adj1[u], adj2[v]
        a, b = row1.get(u, 0), row2.get(v, 0)
        if a != b and (onto or not into(a, b)):
            return False
        # a pair not touched by u or v in either graph carries no edges on
        # either side, so only mapped neighbours need checking.  The edges
        # m -> u need no check of their own.  Each is the conjugate of an
        # edge u -> m of inverse weight, so the check below maps them class
        # by class; and where m is matched exactly, onto follows once all of
        # m's targets are mapped, since m's whole out-multiset was matched
        # onto.
        for m, a in row1.items():
            if m in mapping:
                b = row2.get(mapping[m], 0)
                if a != b and (onto or not into(a, b)):
                    return False
        if onto:  # edges from v to a mapped vertex whose preimage u does not touch
            for w, b in row2.items():
                if b and w in inverse and inverse[w] not in row1:
                    return False
        return True

    tree_class = [None] + [t1.edge_class(parent[u]) for u in order[1:]]

    def candidates(i: int) -> Iterator[VertexId]:
        if i == 0:
            return iter(roots)
        row = rows2[mapping[parent[order[i]].source]].get(tree_class[i], ())
        return (v for v in row if v not in inverse)

    stack = [candidates(0)]
    while stack:
        i = len(stack) - 1
        u = order[i]
        if u in mapping:  # back at this level: undo its previous choice
            del inverse[mapping.pop(u)]
        for v in stack[-1]:
            if compatible(u, v):
                mapping[u] = v
                inverse[v] = u
                break
        else:
            stack.pop()
            continue
        if i + 1 == len(order):
            yield dict(mapping)
        else:
            stack.append(candidates(i + 1))


def iso_check(
    g1: TruncatedGraph, g2: TruncatedGraph, *, interior_only: bool = False
) -> dict | None:
    """Vertex bijection inducing a weight/conjugation-preserving edge bijection
    that sends g1's basepoint to g2's.

    Returns the mapping g1 -> g2, or None: the first mapping of
    :func:`matchings` in bijective mode from the root ``g2.basepoint``,
    after cheap vertex- and edge-count checks.  With ``interior_only`` both
    sides are first restricted to their interior-induced subgraphs.
    """
    if g1.radius != g2.radius:
        raise ValueError("truncations have different radii (%d vs %d)" % (g1.radius, g2.radius))
    if interior_only:
        g1 = interior_restriction(g1)
        g2 = interior_restriction(g2)
    if len(g1.vertices) != len(g2.vertices):
        return None
    if g1.edge_count() != g2.edge_count():
        return None
    return next(matchings(g1, g2, [g2.basepoint], bijective=True), None)
