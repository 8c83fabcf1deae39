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
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .graph import Edge, TruncatedGraph, VertexId, bfs_tree


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


def _weq(w1, w2) -> bool:
    """Weight equality that also works across generator contexts, where it
    falls back to a value comparison at the tighter tolerance."""
    if w1.context == w2.context:
        return w1.eq(w2)
    tol = min(w1.context.tolerance, w2.context.tolerance)
    return abs(w1.value - w2.value) <= tol * max(w1.value, w2.value)


def edges_inject(small: Sequence[Edge], big: Sequence[Edge], bijective: bool) -> bool:
    """Can the small edge multiset map into the big one class by class?

    Edges match when their weights are equal (:func:`_weq`), and a
    self-conjugate edge only matches a self-conjugate one.  With
    ``bijective`` the map must also be onto.
    """
    if len(small) > len(big) or (bijective and len(small) != len(big)):
        return False
    remaining = list(big)
    for e in small:
        for i, f in enumerate(remaining):
            if _weq(e.weight, f.weight) and (e.conjugate == e.eid) == (f.conjugate == f.eid):
                del remaining[i]
                break
        else:
            return False
    return True


def _neighbours(t: TruncatedGraph) -> dict[VertexId, set[VertexId]]:
    """Out-targets and in-sources of every vertex."""
    nbrs: dict[VertexId, set[VertexId]] = {v: set() for v in t.vertices}
    for v in t.vertices:
        for e in t.out_edges(v):
            nbrs[v].add(e.target)
            nbrs[e.target].add(v)
    return nbrs


def _between(t: TruncatedGraph, u: VertexId, m: VertexId) -> list[Edge]:
    return [e for e in t.out_edges(u) if e.target == m]


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
    vertices must inject class by class (:func:`edges_inject`), and onto
    where their source is matched exactly: every vertex when ``bijective``,
    else the interior ones, which also carry their full outgoing multiset.
    ``bijective`` also requires boundary flags to agree.
    """
    parent = bfs_tree(g1.out_edges, g1.basepoint)
    if len(parent) != len(g1.vertices):
        raise ValueError("matching requires truncations connected from the basepoint")
    order = list(parent)
    nbrs1, nbrs2 = _neighbours(g1), _neighbours(g2)
    mapping: dict[VertexId, VertexId] = {}
    inverse: dict[VertexId, VertexId] = {}

    def compatible(u, v) -> bool:
        if bijective and (u in g1.boundary) != (v in g2.boundary):
            return False
        # partial mode: on a fair ball an interior vertex's out-sum is delta, so onto cannot fail
        onto = bijective or u not in g1.boundary
        if onto and not edges_inject(g1.out_edges(u), g2.out_edges(v), True):
            return False
        if not edges_inject(_between(g1, u, u), _between(g2, v, v), onto):
            return False
        # a pair not touched by u or v in either graph carries no edges on
        # either side, so only these mapped vertices need checking
        near = {m for m in nbrs1[u] if m in mapping}
        near.update(inverse[w] for w in nbrs2[v] if w in inverse)
        # The edges m -> u need no check of their own.  Each is the conjugate
        # of an edge u -> m of inverse weight, so the check below injects
        # them class by class; and where m is matched exactly, onto follows
        # once all of m's targets are mapped, since m's whole out-multiset
        # was matched onto.
        for m in near:
            if not edges_inject(_between(g1, u, m), _between(g2, v, mapping[m]), onto):
                return False
        return True

    def candidates(i: int) -> Iterator[VertexId]:
        if i == 0:
            return iter(roots)
        e = parent[order[i]]
        got = dict.fromkeys(
            f.target
            for f in g2.out_edges(mapping[e.source])
            if f.target not in inverse and _weq(f.weight, e.weight)
        )
        return iter(got)

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
