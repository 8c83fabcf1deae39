"""Tracial covers: the cover construction, loop lifting and loop weights.

The tracial cover of a delta graph has one vertex per equivalence class of
based paths under "same target, same total weight".  It is always tracial,
and weight-1 based loops of the original graph lift bijectively to based
loops of the cover.

The cover is a delta graph in its own right, with the same delta: a
procedural :class:`DeltaGraph` whose adjacency steps along the original
graph's edges.  :func:`tracial_cover` cuts its ball out with
:func:`deltagraph.graph.ball`, so it has no search of its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .graph import (
    DeltaGraph,
    Edge,
    Path,
    TruncatedGraph,
    ball,
    check_based_loop,
    loop_weight_counts,
    vid_key,
)
from .weights import Weight, _Classes, reduce_generators


class LoopLiftError(ValueError):
    """A loop of non-unit weight cannot be lifted to the tracial cover."""

    def __init__(self, weight: Weight):
        super().__init__("loop has non-unit weight %s" % weight.text())
        self.weight = weight


class CoverVertex:
    """A class of based paths: common target vertex and common total weight.

    An immutable value, equal by ``(target, weight)`` and hashed once, when
    made.  Not a tuple, so ``isinstance(v, tuple)`` never takes it for a
    lattice point."""

    __slots__ = ("target", "weight", "_hash")

    def __init__(self, target, weight: Weight):
        init = object.__setattr__
        init(self, "target", target)
        init(self, "weight", weight)
        init(self, "_hash", hash((target, weight)))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a CoverVertex" % name)

    def __eq__(self, other):
        if other.__class__ is not CoverVertex:
            return NotImplemented
        return (self.target, self.weight) == (other.target, other.weight)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return CoverVertex, (self.target, self.weight)

    def _vid_key_(self):
        return ("cv", self.weight.key(), vid_key(self.target))

    def __repr__(self):
        return "[%s, %r]" % (self.weight.text(), self.target)


class CoverResult(NamedTuple):
    graph: TruncatedGraph
    weighting: Mapping[CoverVertex, Weight]


class _Interner:
    """Canonicalizes cover vertices: one per tolerance class of weights at a
    target (:class:`weights._Classes`, one per target).  So grid(2,2)'s
    exact ``a`` and ``b`` stay apart, a float loop weight near 1 lands on
    the root, and an exact class and its float twin are one.  The classes
    are made at the first float weight, so exact-only graphs compute no log.

    ``known`` maps every vertex looked up to its class, and every lookup
    returns the stored instance, so dict lookups and the source check of
    :meth:`DeltaGraph.out_edges` compare by identity first.  ``ball``
    interns the states one step past its radius after every state inside,
    so those never stand for a class that a state inside the ball is in."""

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.known: dict[CoverVertex, CoverVertex] = {}
        self.classes: dict[object, _Classes] | None = None

    def get(self, target, weight: Weight) -> CoverVertex:
        cv = CoverVertex(target, weight)
        got = self.known.get(cv)
        if got is None:
            got = self.known[cv] = self._match(cv)
        return got

    def _match(self, cv: CoverVertex) -> CoverVertex:
        if self.classes is None:
            if cv.weight.is_exact:
                return cv
            self.classes = {}  # at the first float weight, class the vertices so far
            for k in self.known:
                self._match(k)
        at = self.classes.get(cv.target)
        if at is None:
            at = self.classes[cv.target] = _Classes(self.tolerance, " at %r" % (cv.target,))
        return at.add(cv.weight, cv)


def tracial_cover(g: DeltaGraph, radius: int) -> CoverResult:
    """The ball of the given radius in the cover.

    Returns the cover as a truncated graph over :class:`CoverVertex` ids,
    together with its canonical vertex weighting (the path-class weight).
    Each edge ``e`` of ``g`` at ``cv.target`` becomes the cover edge
    ``(cv, e.eid)``, whose conjugate is ``(cv2, e.conjugate)`` at the class
    ``cv2`` it reaches; a class is on the frontier when its target is.
    """
    intern = _Interner(g.context.tolerance)

    def out_edges(cv):
        edges = []
        for e in g.out_edges(cv.target):
            cv2 = intern.get(e.target, cv.weight * e.weight)
            edges.append(Edge((cv, e.eid), cv, cv2, e.weight, (cv2, e.conjugate)))
        return edges

    cover = DeltaGraph(
        g.delta,
        g.context,
        intern.get(g.basepoint, g.context.identity()),
        out_edges,
        frontier=lambda cv: g.is_frontier(cv.target),
        label=(g.label + "|cover") if g.label else "cover",
    )
    b = ball(cover, radius)
    return CoverResult(b, {cv: cv.weight for cv in b.distance})


def lift_loop(g: DeltaGraph, l: Path, cover: TruncatedGraph | None = None) -> Path:
    """Trace a weight-1 based loop through the tracial cover.

    The lift is injective on weight-1 loops and multiplicative under
    concatenation; paths that are not loops at the basepoint, and loops of
    non-unit weight, are rejected.
    """
    check_based_loop(g, l)
    if not l.weight.is_identity():
        raise LoopLiftError(l.weight)
    if cover is None:
        cover = tracial_cover(g, max(len(l), 1)).graph
    cv = cover.basepoint
    edges = []
    for e in l.edges:
        try:
            ce = cover.edge((cv, e.eid))
        except KeyError:
            raise ValueError(
                "cover of radius %d too small to trace the loop" % cover.radius
            ) from None
        edges.append(ce)
        cv = ce.target
    if cv != cover.basepoint:
        raise AssertionError("weight-1 loop failed to close in the cover")
    return Path(cover.basepoint, tuple(edges), g.context)


@dataclass(frozen=True)
class LoopWeightGroup:
    """Generators found for the group of based-loop weights.

    A depth-bounded lower approximation: only loops of length <= search_depth
    were examined, and no completeness claim is made.
    """

    generators: tuple[Weight, ...]
    search_depth: int

    def is_trivial(self) -> bool:
        return not self.generators


def loop_weight_group(g: DeltaGraph, max_len: int) -> LoopWeightGroup:
    """Collect the distinct non-unit loop weights of each length up to
    max_len and reduce them to generators.

    The weights come from walk counts (:func:`loop_weight_counts`), not from
    enumerating loops; the reduction is canonical, so repeated weights do
    not change the generators."""
    weights = []
    for n in range(1, max_len + 1):
        weights.extend(w for w, _ in loop_weight_counts(g, n) if not w.is_identity())
    return LoopWeightGroup(reduce_generators(weights, g.context), max_len)
