"""Weight-preserving automorphism search on tracial graphs.

A partial automorphism is an injection of the radius-r ball into the graph
preserving weighted adjacency and conjugation; it scales every vertex weight
by the weight of the basepoint's image.  The set of such scaling factors,
reduced to generators, is the graph's multiplicative invariant.

Infinite graphs only ever admit radius-certified maps: a ball-consistent
injection may fail to extend, so results carry their certification radius
and no claim about the full graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graph import DeltaGraph, VertexId, ball, tracial_ball
from .isomorphism import matchings
from .weights import Weight, group_weights, reduce_generators


@dataclass(frozen=True)
class PartialAutomorphism:
    """An injection of the radius-r ball, certified on that ball only."""

    mapping: Mapping[VertexId, VertexId]
    certified_radius: int
    star_image_weight: Weight  # vertex weight of the basepoint's image

    __hash__ = None


@dataclass(frozen=True)
class InvariantReport:
    label: str
    certified_weights: tuple[Weight, ...]
    generators: tuple[Weight, ...]
    certified_radius: int
    shift_bound: int


def partial_automorphisms(
    g: DeltaGraph, radius: int, shift_bound: int
) -> tuple[PartialAutomorphism, ...]:
    """All weight-preserving injections of ball(radius) into
    ball(radius + shift_bound), with the basepoint sent within distance
    shift_bound.

    These are the injective mappings of the engine behind ``iso_check``
    (:func:`deltagraph.isomorphism.matchings`), in its order: interior
    vertices keep their full outgoing weight multiset, while boundary
    vertices of the small ball may gain edges in the image.  A negative
    ``shift_bound`` raises ``ValueError``.
    """
    if shift_bound < 0:
        raise ValueError("shift bound must be nonnegative")
    big, wv = tracial_ball(g, radius + shift_bound, "automorphism invariants")
    small = ball(g, radius)
    roots = [v for v in big.vertices if big.distance[v] <= shift_bound]
    return tuple(
        PartialAutomorphism(m, radius, wv[m[small.basepoint]])
        for m in matchings(small, big, roots, bijective=False)
    )


def t0(g: DeltaGraph, radius: int, shift_bound: int) -> InvariantReport:
    """Certified basepoint-image weights of all partial automorphisms,
    deduplicated and reduced to a generating set."""
    autos = partial_automorphisms(g, radius, shift_bound)
    certified = tuple(w for w, _ in group_weights((a.star_image_weight, 1) for a in autos))
    gens = reduce_generators(certified, g.context)
    return InvariantReport("T0", certified, gens, radius, shift_bound)
