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

Before a search both truncations are compiled once (:func:`edge_tables`),
each in one walk, into tables indexed by vertex number: distinct edge
weights become small class ids, as nauty and Traces reduce labels first
(McKay & Piperno 2014), and edge multisets interned ids, so the search runs
on ints and hashes neither a vertex id nor a ``Weight``.  The table mapped
into also carries candidate rows: per vertex and edge class, the targets of
its out-edges of that class in stored-edge order, so listing the candidates
along a tree edge is one dict lookup.  Weight classes relate g1's weights
to g2's, never within one graph (:func:`_classes`).
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .graph import Edge, TruncatedGraph, VertexId, bfs_tree
from .weights import Weight, _ambiguity, _near


def interior_restriction(t: TruncatedGraph) -> TruncatedGraph:
    """The subgraph induced on interior (non-boundary) vertices, bounded by
    those that lost an edge; exhausted when ``t`` is and none did."""
    keep = set(t.interior)
    if t.basepoint not in keep:
        raise ValueError("basepoint is on the boundary; nothing to restrict to")
    out = {v: t.out_edges(v) for v in t.interior}
    cut = [v for v, es in out.items() if any(e.target not in keep for e in es)]
    out = {v: tuple(e for e in es if e.target in keep) for v, es in out.items()}
    return TruncatedGraph(
        delta=t.delta, context=t.context, basepoint=t.basepoint, radius=t.radius, out=out,
        distance={v: d for v, d in t.distance.items() if v in keep}, boundary=cut,
        exhausted=t.exhausted and not cut, label=t.label + "|interior")


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
    """A truncation compiled for the matcher, its vertices numbered in stored
    order (``index``).  An edge's class is ``2 * cls[weight] +
    (self-conjugate)``.  Per vertex number: ``out``, the id of its out-edge
    class multiset; ``adj``, the numbers of its out-targets and in-sources,
    each to the id of the multiset of the edges from the vertex to it (0,
    the empty one, for an in-source only); its ``boundary`` flag; and, in a
    table that the matcher maps into (else empty), ``rows``: per class, the
    numbers of the targets of its out-edges of that class, once each, in
    stored-edge order."""

    index: dict[VertexId, int]
    cls: dict[Weight, int]
    out: list[int]
    adj: list[dict[int, int]]
    boundary: list[bool]
    rows: list[dict[int, tuple[int, ...]]]

    def edge_class(self, e: Edge) -> int:
        return 2 * self.cls[e.weight] + (e.conjugate == e.eid)


def edge_tables(
    g1: TruncatedGraph, g2: TruncatedGraph
) -> tuple[EdgeTable, EdgeTable, Callable[[int, int], bool]]:
    """Both truncations compiled once, each from one walk over its vertices
    in stored order that reads every out-edge list once, against each
    other's weights (:func:`_classes`) and with one id per class multiset
    across the two; and ``into(a, b)``: does multiset ``a`` map into ``b``
    class by class?  Equal ids map onto.  Only g2's table carries rows."""
    walks = []
    for g in (g1, g2):
        edges, seen = [], {}  # out-edge tuples; weights by object id, first seen first
        for v in g.vertices:
            edges.append(g.out_edges(v))
            for e in edges[-1]:
                seen[id(e.weight)] = e.weight
        walks.append((edges, seen))
    classes = _classes(*(list(dict.fromkeys(seen.values())) for _, seen in walks))
    forms: list[tuple[int, ...]] = [()]  # id -> sorted class tuple
    ids = {(): 0}
    step: dict[tuple[int, int], int] = {}  # (id, class) -> id with the class added

    def intern(form: tuple[int, ...]) -> int:
        got = ids.setdefault(form, len(ids))
        if got == len(forms):
            forms.append(form)
        return got

    def table(t: TruncatedGraph, edges: list, seen: dict, cls: dict, with_rows: bool):
        index = {v: i for i, v in enumerate(t.vertices)}
        by_id = {k: 2 * cls[w] for k, w in seen.items()}  # so an edge never hashes its weight
        out, adj, rows = [], [{} for _ in edges], []
        for i, es in enumerate(edges):
            row, by_class, cs = adj[i], {}, []
            for eid, _, target, weight, conj in es:
                c = by_id[id(weight)] + (conj == eid)
                j = index[target]
                cs.append(c)
                k = row.get(j, 0)
                # a multiset with a class added is never the empty one, id 0
                row[j] = step.get((k, c)) or step.setdefault(
                    (k, c), intern(tuple(sorted(forms[k] + (c,)))))
                adj[j].setdefault(i, 0)
                if with_rows and j not in by_class.get(c, ()):
                    by_class[c] = by_class.get(c, ()) + (j,)
            out.append(intern(tuple(sorted(cs))))
            if with_rows:
                rows.append(by_class)
        return EdgeTable(index, cls, out, adj, [v in t.boundary for v in t.vertices], rows)

    t1, t2 = table(g1, *walks[0], classes[0], False), table(g2, *walks[1], classes[1], True)

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
    t1, t2, into = edge_tables(g1, g2)
    out1, out2, adj1, adj2, rows2 = t1.out, t2.out, t1.adj, t2.adj, t2.rows
    bnd1, bnd2 = t1.boundary, t2.boundary
    mapping = [-1] * len(g1.vertices)  # g1 index -> g2 index, -1 while unmapped
    inverse = [-1] * len(g2.vertices)

    def compatible(u: int, v: int) -> bool:
        if inverse[v] >= 0 or bijective and bnd1[u] != bnd2[v]:
            return False
        # partial mode: on a fair ball an interior vertex's out-sum is delta, so onto cannot fail
        onto = bijective or not bnd1[u]
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
        # m's targets are mapped, since m's whole out-multiset was matched onto.
        for m, a in row1.items():
            w = mapping[m]
            if w >= 0:
                b = row2.get(w, 0)
                if a != b and (onto or not into(a, b)):
                    return False
        if onto:  # edges from v to a mapped vertex whose preimage u does not touch
            for w, b in row2.items():
                if b and inverse[w] >= 0 and inverse[w] not in row1:
                    return False
        return True

    order = [t1.index[u] for u in parent]
    # level i + 1 is reached from the image of tree[i][0] along an edge of class tree[i][1]
    tree = [(t1.index[e.source], t1.edge_class(e)) for e in parent.values() if e]
    stack = [map(t2.index.__getitem__, roots)]
    while stack:
        i = len(stack) - 1
        u = order[i]
        if mapping[u] >= 0:  # back at this level: undo its previous choice
            inverse[mapping[u]] = -1
            mapping[u] = -1
        for v in stack[-1]:
            if compatible(u, v):
                mapping[u] = v
                inverse[v] = u
                break
        else:
            stack.pop()
            continue
        if i + 1 == len(order):
            yield {x: g2.vertices[mapping[k]] for x, k in zip(parent, order)}
        else:
            p, c = tree[i]
            stack.append(iter(rows2[mapping[p]].get(c, ())))


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
    if len(g1.vertices) != len(g2.vertices) or g1.edge_count() != g2.edge_count():
        return None
    return next(matchings(g1, g2, [g2.basepoint], bijective=True), None)
