"""Group actions on tracial graphs, quotients, and recovery from the cover.

An action is given by generators, each a label, a weight h, and a vertex map
satisfying w(h.v) = h * w(v) and preserving weighted adjacency.  The quotient
collapses vertices to orbits, keeping one outgoing edge per base edge of a
fixed representative; it is generally non-tracial, and its tracial cover is
the original graph.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Mapping

from .cover import tracial_cover
from .graph import (
    DeltaGraph,
    Edge,
    TruncatedGraph,
    VertexId,
    bfs_distances,
    tracial_ball,
    vid_key,
)
from .weights import Weight


class ActionError(ValueError):
    """The supplied vertex maps are not a weight-scaling graph action."""


@dataclass(frozen=True)
class ActionGenerator:
    """One group generator: its weight and its action on vertex ids.

    ``act(v)`` returns the image vertex, or None where the action is unknown
    (outside a finite table, or past the materializable region).
    """

    label: str
    weight: Weight
    act: Callable[[VertexId], VertexId | None]


def shift_generator(label: str, weight: Weight, vec: tuple[int, ...]) -> ActionGenerator:
    """Translation by an integer vector: a tuple vertex of the vector's length
    moves coordinate by coordinate, and an int vertex moves by the one entry
    of a 1-vector; other vertices have no image."""

    def act(v: VertexId) -> VertexId | None:
        if isinstance(v, tuple):
            return tuple(a + b for a, b in zip(v, vec)) if len(v) == len(vec) else None
        if isinstance(v, int) and len(vec) == 1:
            return v + vec[0]
        return None

    return ActionGenerator(label, weight, act)


@dataclass(frozen=True)
class GraphAction:
    generators: tuple[ActionGenerator, ...]

    def generator(self, label: str) -> ActionGenerator:
        """The generator labelled ``label``; ``ValueError`` naming the known
        labels if there is none."""
        for g in self.generators:
            if g.label == label:
                return g
        raise ValueError(
            "no action labelled %r (have: %s)" % (label, ", ".join(g.label for g in self.generators))
        )


@dataclass(frozen=True)
class ActionReport:
    passed: bool
    failures: tuple[str, ...]
    checked: int
    skipped: int  # vertex/edge checks that were inconclusive at this radius


@dataclass(frozen=True)
class Orbit:
    """An orbit of the action within a ball, labeled by its minimal-weight
    member; the representative is the minimal-weight interior member (None
    when the orbit only touches the boundary)."""

    label: VertexId
    members: tuple[VertexId, ...]
    representative: VertexId | None


def _forward_map(gen: ActionGenerator, b: TruncatedGraph) -> dict:
    fwd = {}
    for v in b.vertices:
        img = gen.act(v)
        if img is not None:
            fwd[v] = img
    return fwd


def check_action(g: DeltaGraph, action: GraphAction, radius: int) -> ActionReport:
    """Verify weight scaling and adjacency preservation on the ball.

    Images outside the materialized ball are counted as skipped, not failed;
    a unit-weight generator acting nontrivially is rejected outright.
    """
    return _check_action(*tracial_ball(g, radius, "action checks"), action)


def _check_action(
    b: TruncatedGraph, wv: Mapping[VertexId, Weight], action: GraphAction
) -> ActionReport:
    failures: list[str] = []
    checked = 0
    skipped = 0
    # on a tracial ball every edge u -> t weighs w(t)/w(u), and the vertex
    # weights are checked below, so edges differ only in count and self-conjugacy
    adj = Counter(
        (u, e.target, e.conjugate == e.eid) for u in b.interior for e in b.out_edges(u)
    )
    for gen in action.generators:
        fwd = _forward_map(gen, b)
        images = [v2 for v2 in fwd.values() if v2 in b]
        if len(set(images)) != len(images):
            failures.append("generator %s is not injective on the ball" % gen.label)
        if gen.weight.is_identity() and any(v != v2 for v, v2 in fwd.items()):
            failures.append(
                "generator %s has unit weight but acts nontrivially" % gen.label
            )
        for v in sorted(fwd, key=vid_key):
            img = fwd[v]
            if img not in b:
                skipped += 1
                continue
            checked += 1
            if not wv[img].eq(gen.weight * wv[v]):
                failures.append(
                    "generator %s: w(%r) = %s but %s * w(%r) = %s"
                    % (
                        gen.label,
                        img,
                        wv[img].text(),
                        gen.weight.text(),
                        v,
                        (gen.weight * wv[v]).text(),
                    )
                )
        # adjacency: compare the edges joining interior pairs
        for u in sorted(b.interior, key=vid_key):
            iu = fwd.get(u)
            if iu is None or iu not in b or iu in b.boundary:
                skipped += 1
                continue
            for t in dict.fromkeys(e.target for e in b.out_edges(u)):
                it = fwd.get(t)
                if it is None or it not in b:
                    skipped += 1
                    continue
                checked += 1
                if any(adj[u, t, c] != adj[iu, it, c] for c in (False, True)):
                    failures.append(
                        "generator %s does not preserve the edges %r -> %r"
                        % (gen.label, u, t)
                    )
    return ActionReport(not failures, tuple(failures), checked, skipped)


def _orbits(b: TruncatedGraph, action: GraphAction) -> list[list[VertexId]]:
    """Partition ball vertices into orbits, closing under generators and
    their inverses but never stepping outside the ball."""
    maps = []
    for gen in action.generators:
        fwd = {v: w for v, w in _forward_map(gen, b).items() if w in b}
        inv = {}
        for v, w in fwd.items():
            if w in inv:
                raise ActionError("generator %s not invertible on the ball" % gen.label)
            inv[w] = v
        maps.append(fwd)
        maps.append(inv)
    seen: set[VertexId] = set()
    orbits: list[list[VertexId]] = []
    for v in b.vertices:
        if v in seen:
            continue
        members = [v]
        seen.add(v)
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for m in maps:
                w = m.get(u)
                if w is not None and w not in seen:
                    seen.add(w)
                    members.append(w)
                    queue.append(w)
        orbits.append(members)
    return orbits


def orbit_partition(g: DeltaGraph, action: GraphAction, radius: int) -> tuple[Orbit, ...]:
    """The orbits of the action on the ball; members must carry pairwise
    distinct vertex weights (a unit-weight element acting freely would
    merge them, and such actions are rejected)."""
    return _orbit_partition(*tracial_ball(g, radius, "orbit computations"), action)


def _orbit_partition(
    b: TruncatedGraph, wv: Mapping[VertexId, Weight], action: GraphAction
) -> tuple[Orbit, ...]:
    orbits = []
    for members in _orbits(b, action):
        # sorted this way, equal exact weights and tolerance-equal float
        # weights sit next to each other, so neighbours show any shared weight
        ranked = sorted(members, key=lambda m: (wv[m].log_value, wv[m].key(), vid_key(m)))
        if any(wv[m1].eq(wv[m2]) for m1, m2 in zip(ranked, ranked[1:])):
            m1, m2 = next(
                (m1, m2) for m1 in members for m2 in members if m1 is not m2 and wv[m1].eq(wv[m2])
            )
            raise ActionError(
                "orbit members %r and %r share weight %s" % (m1, m2, wv[m1].text())
            )
        key = lambda m: (wv[m].log_value, vid_key(m))
        inner = [m for m in members if m not in b.boundary]
        orbits.append(
            Orbit(
                min(members, key=key),
                tuple(sorted(members, key=vid_key)),
                min(inner, key=key) if inner else None,
            )
        )
    return tuple(orbits)


def quotient(g: DeltaGraph, action: GraphAction, radius: int) -> TruncatedGraph:
    """Collapse a tracial graph to orbits of the action.

    One vertex per orbit meeting the ball, labeled by its minimal-weight
    member; outgoing edges copied from a minimal-weight interior member.
    Orbits with no interior member become boundary vertices, and the
    quotient is ``exhausted`` when there are none.
    """
    b, wv = tracial_ball(g, radius, "action checks")
    report = _check_action(b, wv, action)
    if not report.passed:
        raise ActionError("action check failed: " + "; ".join(report.failures))
    orbits = _orbit_partition(b, wv, action)
    assigned = {m: orb for orb in orbits for m in orb.members}

    raw = [
        (e.eid, orb.label, assigned[e.target].label, e.weight)
        for orb in orbits
        if orb.representative is not None
        for e in b.out_edges(orb.representative)
    ]
    boundary = {orb.label for orb in orbits if orb.representative is None}
    edges = _pair_conjugates(b, raw, boundary)

    out: dict[VertexId, list[Edge]] = {orb.label: [] for orb in orbits}
    for e in edges:
        out[e.source].append(e)
    return _collapsed(b, out, assigned[b.basepoint].label, boundary, radius, "quotient")


def _collapsed(src: TruncatedGraph, out: dict[VertexId, list[Edge]], basepoint: VertexId,
               boundary: set, radius: int, what: str) -> TruncatedGraph:
    """The graph that a collapse of the ball ``src`` gives, with the classes'
    out-lists ``out`` and the classes ``boundary`` that have no interior
    member.  Distances are BFS depths over ``out`` from ``basepoint``, and it
    is ``exhausted`` when ``boundary`` is empty, as every vertex then carries
    its full adjacency."""
    return TruncatedGraph(
        delta=src.delta,
        context=src.context,
        basepoint=basepoint,
        radius=radius,
        out=out,
        distance=bfs_distances(out.__getitem__, basepoint, out),
        boundary=boundary,
        exhausted=not boundary,
        label=(src.label + "|" + what) if src.label else what,
    )


def _pair_conjugates(b: TruncatedGraph, raw: list[tuple], boundary: set) -> list[Edge]:
    """Assign conjugates within (endpoint pair, weight class); a boundary
    vertex emits no edges of its own, so its edges are the conjugates in the
    ball ``b`` (:meth:`DeltaGraph.conjugate_edge`) of the edges into it.

    Records are ``(eid, source, target, weight)`` tuples, with ids of edges
    of ``b``.  Only interior vertices emit records, so a missing partner
    class is legal exactly when the target is a boundary vertex.
    """
    by_ends: dict = {}
    for r in raw:
        by_ends.setdefault((r[1], r[2]), []).append(r)
    used: set = set()

    def take(source, target, weight: Weight) -> list[tuple]:
        got = [
            r for r in by_ends.get((source, target), ()) if r[0] not in used and r[3].eq(weight)
        ]
        used.update(r[0] for r in got)
        got.sort(key=lambda r: vid_key(r[0]))
        return got

    edges: list[Edge] = []
    for eid, s, t, w in sorted(raw, key=lambda r: vid_key(r[0])):
        if eid in used:
            continue
        winv = w.inverse()
        members = take(s, t, w)
        if s == t and w.eq(winv):
            # weight-1 self-loops pair among themselves; odd middle one
            # becomes self-conjugate
            for m, p in zip(members, reversed(members)):
                edges.append(Edge(m[0], s, s, m[3], p[0]))
            continue
        partners = take(t, s, winv)
        if not partners and t in boundary:
            partners = [(c.eid, t, s, c.weight)
                        for c in (b.conjugate_edge(b.edge(m[0])) for m in members)]
        if len(partners) != len(members):
            raise ActionError(
                "edge classes %r -> %r do not pair under conjugation" % (s, t)
            )
        for m, p in zip(members, partners):
            edges.append(Edge(m[0], s, t, m[3], p[0]))
            edges.append(Edge(p[0], t, s, p[3], m[0]))
    return edges


def recover(g: DeltaGraph, radius: int) -> TruncatedGraph:
    """Rebuild a graph from its tracial cover.

    The loop-weight group acts on the cover by rescaling the path-class
    weight, and its orbits are exactly the path-class targets; collapsing
    cover vertices by target therefore reproduces the original graph up to
    basepoint isomorphism.  Every interior cover vertex over a target steps
    along that target's own edges, so any one of them gives the target's
    edges; the first one in the cover's BFS order is read.  A boundary
    target has none, so its edges are the cover's conjugates
    (:meth:`DeltaGraph.conjugate_edge`) of the edges into it, which also
    checks each pair.  Targets come in the order the cover first meets
    them, and the result is ``exhausted`` when no target is on the boundary.
    """
    cov, _ = tracial_cover(g, radius)
    lift: dict[VertexId, object] = {}  # target -> its first interior lift, None if none
    for cv in cov.vertices:
        if lift.get(cv.target) is None:
            lift[cv.target] = None if cv in cov.boundary else cv
    boundary = {v for v, cv in lift.items() if cv is None}

    def project(ce: Edge) -> Edge:
        return Edge(ce.eid[1], ce.source.target, ce.target.target, ce.weight, ce.conjugate[1])

    out: dict[VertexId, list[Edge]] = {v: [] for v in lift}
    for v in sorted(lift.keys() - boundary, key=vid_key):
        for ce in cov.out_edges(lift[v]):
            out[v].append(project(ce))
            cc = cov.conjugate_edge(ce)
            if cc.source.target in boundary:  # which emits no edges of its own
                out[cc.source.target].append(project(cc))
    return _collapsed(cov, out, cov.basepoint.target, boundary, radius, "recovered")
