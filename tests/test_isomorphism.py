"""Basepoint isomorphism checks: identity, weight sensitivity, symmetry,
non-isomorphic pairs that the count checks pass, and the mappings of the
shared matcher carrying every edge."""

import math
import os
from collections import Counter

import pytest

from deltagraph import (
    TruncatedGraph,
    ball,
    cayley,
    cycle,
    deformed_chain,
    double_chain,
    grid,
    interior_restriction,
    iso_check,
    parse_graph,
    partial_automorphisms,
    serialize_graph,
    single_chain,
    tracial_cover,
    validate,
    vertex_weighting,
)
from deltagraph import isomorphism
from deltagraph.isomorphism import _classes, edge_tables, matchings


class TestIsoCheck:
    def test_self_identity(self, chain):
        b = ball(chain, 3)
        m = iso_check(b, b)
        assert m is not None
        # the weights break the chain's reflection: only the identity is left
        assert len(m) == len(b.vertices) and all(m[v] == v for v in m)
        assert m[b.basepoint] == b.basepoint

    def test_different_weights_absent(self):
        from deltagraph import single_chain

        b2 = ball(single_chain(2), 2)
        b3 = ball(single_chain(3), 2)
        assert iso_check(b2, b3) is None

    def test_cover_matches_grid(self, dchain, grid23):
        cov, _ = tracial_cover(dchain, 2)
        bg = ball(grid23, 2)
        m = iso_check(cov, bg)
        assert m is not None
        assert m[cov.basepoint] == bg.basepoint

    def test_symmetric(self, dchain, grid23):
        cov, _ = tracial_cover(dchain, 2)
        bg = ball(grid23, 2)
        assert (iso_check(cov, bg) is not None) == (iso_check(bg, cov) is not None)

    @pytest.mark.parametrize(
        "other", [cycle(6, 2), double_chain(2, 3)], ids=["cycle", "double_chain"]
    )
    def test_counts_reject_before_the_search(self, monkeypatch, other):
        # the chain ball has 7 vertices and 12 edges: the 6-cycle has 12
        # edges on 6 vertices, the double chain ball 24 edges on 7
        def search(*args, **kwargs):
            raise AssertionError("matchings called")

        monkeypatch.setattr(isomorphism, "matchings", search)
        assert iso_check(ball(single_chain(2), 3), ball(other, 3)) is None

    def test_radius_mismatch_rejected(self, chain):
        with pytest.raises(ValueError):
            iso_check(ball(chain, 2), ball(chain, 3))

    def test_unreachable_vertex_rejected(self, chain):
        # vertex 1 passes the vertex- and edge-count checks but no edge
        # reaches it from the basepoint
        t = TruncatedGraph(
            delta=chain.delta,
            context=chain.context,
            basepoint=0,
            radius=1,
            out={0: (), 1: ()},
            distance={0: 0, 1: 1},
            boundary=(),
        )
        with pytest.raises(ValueError, match="connected from the basepoint"):
            iso_check(t, t)

    def test_mapping_preserves_edges(self, dchain, grid23):
        cov, _ = tracial_cover(dchain, 2)
        bg = ball(grid23, 2)
        m = iso_check(cov, bg)
        for v in cov.vertices:
            got = sorted(e.weight.value for e in cov.out_edges(v))
            want = sorted(e.weight.value for e in bg.out_edges(m[v]))
            assert got == pytest.approx(want)
            for e in cov.out_edges(v):
                assert any(
                    f.target == m[e.target] and f.weight.eq(e.weight)
                    for f in bg.out_edges(m[v])
                )

    def test_boundary_flags_respected(self, chain):
        # identical adjacency but different boundary flags: no isomorphism
        b = ball(chain, 2)
        unflagged = TruncatedGraph(
            delta=b.delta,
            context=b.context,
            basepoint=b.basepoint,
            radius=b.radius,
            out={v: b.out_edges(v) for v in b.vertices},
            distance=b.distance,
            boundary=(),
        )
        assert iso_check(b, unflagged) is None

    def test_interior_only(self, chain, dchain, assert_carries_edges):
        # interiors of the radius-3 cover and grid balls agree even though
        # their boundaries carry different vertex counts per distance
        cov, _ = tracial_cover(dchain, 3)
        bg = ball(grid(2, 3), 3)
        m = iso_check(cov, bg, interior_only=True)
        assert m is not None
        assert_carries_edges(cov, bg, m)

    def test_interior_restriction_keeps_distance_order(self):
        # string vertex ids: a set's order would follow the hash seed
        g = parse_graph(serialize_graph(grid(2, 3), 4)).graph
        t = ball(g, 3)
        inner = interior_restriction(t)
        assert list(inner.distance) == [v for v in t.distance if v not in t.boundary]
        assert inner.vertices == t.interior

    def test_interior_restriction_bounds_the_cut_ring(self):
        # the distance-2 ring of the radius-3 grid ball loses its edges to
        # the cut distance-3 ring: it is the boundary, and no certificate of
        # exhaustion is claimed
        t = ball(grid(2, 3), 3)
        inner = interior_restriction(t)
        assert inner.boundary == {v for v in t.interior if t.distance[v] == 2}
        assert not inner.exhausted and not ball(inner, 5).exhausted
        assert validate(inner).passed
        # nothing is cut from a ball of a finite graph that reaches every vertex
        whole = ball(cycle(4, 1), 3)
        inner = interior_restriction(whole)
        assert inner.boundary == frozenset() and inner.exhausted and whole.exhausted

    def test_interior_only_compares_cut_flags(self):
        # the 4-cycle's radius-2 interior is the path 1 - 0 - 3 whose ends
        # lost their edges to 2; the 3-vertex path itself loses nothing
        cyc, path = ball(cycle(4, 1), 2), ball(_unit_graph(3, [(0, 1), (0, 2)]), 2)
        assert iso_check(cyc, cyc, interior_only=True) is not None
        assert iso_check(path, path, interior_only=True) is not None
        assert iso_check(cyc, path, interior_only=True) is None
        assert iso_check(path, cyc, interior_only=True) is None

    def test_grid_r24_identity(self):
        # 1201 vertices: deeper than the default recursion limit allows a
        # recursive search to go
        b1, b2 = ball(grid(2, 3), 24), ball(grid(2, 3), 24)
        m = iso_check(b1, b2)
        assert m is not None
        assert len(m) == len(b1.vertices) == 1201
        assert all(u == v for u, v in m.items())


def _unit_graph(n, pairs):
    """A unit-weight file on vertices 0..n-1, based at 0, with one
    conjugate pair of edges per entry of ``pairs``."""
    lines = ["delta-graph v1", "delta 3.0"] + ["vertex %d" % v for v in range(n)]
    for i, (u, v) in enumerate(pairs):
        lines.append("edge f%d %d %d weight 1 conjugate b%d" % (i, u, v, i))
        lines.append("edge b%d %d %d weight 1 conjugate f%d" % (i, v, u, i))
    return parse_graph("\n".join(lines + ["basepoint 0"]) + "\n").graph


K33 = _unit_graph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
PRISM = _unit_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
# two vertices with three edges each way, against one pair of self-loops at
# each vertex and one edge each way
PARALLEL = _unit_graph(2, [(0, 1)] * 3)
SELF_LOOPS = _unit_graph(2, [(0, 0), (1, 1), (0, 1)])


@pytest.mark.parametrize(
    "g1, g2", [(K33, PRISM), (SELF_LOOPS, PARALLEL)], ids=["k33-prism", "self-loops-parallel"]
)
@pytest.mark.parametrize("radius", [2, 3])
def test_regular_non_isomorphic_pairs(g1, g2, radius):
    # same vertex and edge counts, and every vertex has the same boundary
    # flag and out-degree as some vertex of the other side, so only the
    # matcher's edge checks tell them apart
    b1, b2 = ball(g1, radius), ball(g2, radius)
    assert len(b1.vertices) == len(b2.vertices) and b1.edge_count() == b2.edge_count()
    for g in (g1, g2):
        assert validate(g, radius).passed
    assert iso_check(b1, b2) is None
    assert iso_check(b2, b1) is None
    assert iso_check(b1, b1) is not None


# the path 0-1-2-3-4 with a second edge pair between 2 and 3; a fair ball
# cannot pin the onto checks, as its interior out-multisets already sum to delta
UNFAIR_PATH = _unit_graph(5, [(0, 1), (1, 2), (2, 3), (2, 3), (3, 4)])


def _filtered_candidates(t, table, v, want):
    """The candidate filter that the rows replace: the indices of the
    targets of v's stored out-edges of class ``want``, once each, in stored
    order."""
    return list(dict.fromkeys(
        table.index[f.target] for f in t.out_edges(v) if table.edge_class(f) == want))


@pytest.mark.parametrize("make", [
    lambda: ball(grid(2, 3), 3),
    lambda: ball(PARALLEL, 2),
    lambda: ball(SELF_LOOPS, 2),
    lambda: ball(UNFAIR_PATH, 3),
    lambda: _float_ball(grid(2, 2), 3),
], ids=["grid", "parallel", "self-loops", "unfair-path", "float-grid"])
def test_candidate_rows_are_the_stored_edge_filter(make):
    t = make()
    _, t2, _ = edge_tables(t, t)
    assert t2.index == {v: i for i, v in enumerate(t.vertices)}
    assert len(t2.rows) == len(t.vertices)
    for v in t.vertices:
        row = t2.rows[t2.index[v]]
        classes = {t2.edge_class(e) for e in t.out_edges(v)}
        assert set(row) == classes
        for c in classes:
            assert list(row[c]) == _filtered_candidates(t, t2, v, c)


def test_only_the_image_table_has_candidate_rows():
    b1, b2 = ball(grid(2, 3), 2), ball(grid(2, 3), 3)
    t1, t2, _ = edge_tables(b1, b2)
    assert t1.rows == [] and len(t2.rows) == len(b2.vertices)


def test_edge_tables_read_each_vertex_once(monkeypatch):
    b1, b2 = ball(grid(2, 3), 2), ball(grid(2, 3), 3)
    reads = Counter()
    for name, b in (("g1", b1), ("g2", b2)):
        def counted(v, name=name, read=b.out_edges):
            reads[name, v] += 1
            return read(v)

        monkeypatch.setattr(b, "out_edges", counted)
    edge_tables(b1, b2)
    assert reads == Counter({(name, v): 1 for name, b in (("g1", b1), ("g2", b2))
                             for v in b.vertices})


def test_partial_maps_interior_vertices_onto():
    # the interior basepoint has one out-edge, and 1, 2 and 3 have more
    assert [a.mapping[0] for a in partial_automorphisms(UNFAIR_PATH, 1, 3)] == [0]


def test_bijective_maps_every_vertex_onto():
    # iso_check's edge counts already tell these apart, so call the matcher
    b1 = ball(UNFAIR_PATH, 4)
    b2 = ball(_unit_graph(5, [(0, 1), (1, 2), (2, 3), (2, 3), (3, 4), (0, 0)]), 4)
    assert next(matchings(b1, b2, [b2.basepoint], True), None) is None
    assert next(matchings(b1, b1, [b1.basepoint], True), None) is not None


BUILDERS = {
    "single_chain": lambda: single_chain(2),
    "double_chain": lambda: double_chain(2, 3),
    "grid": lambda: grid(2, 3),
    "cycle3": lambda: cycle(3, 2),
    "cycle4_flat": lambda: cycle(4, 1),
    "cayley2": lambda: cayley((2, 3)),
    "cayley1": lambda: cayley((2.0,)),
    "deformed_chain": lambda: deformed_chain(1.05, 0.3),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("radius", [1, 2])
def test_mappings_carry_edges(name, radius, assert_carries_edges):
    g = BUILDERS[name]()
    b = ball(g, radius)
    m = iso_check(b, b)
    assert m is not None
    assert_carries_edges(b, b, m)
    big = ball(g, radius + 1)
    if not vertex_weighting(big):
        return  # partial automorphisms need a tracial graph
    autos = partial_automorphisms(g, radius, 1)
    assert autos
    for a in autos:
        assert_carries_edges(b, big, a.mapping)


def _assert_edge_bijection(g1, g2, mapping):
    """Independent check that ``mapping`` is an isomorphism, edge by edge:
    a bijection of vertices keeping boundary flags, and an explicit edge
    bijection, paired with conjugation, sending each edge to one joining
    the images with an equal weight value.  Parallel edges of one weight
    are interchangeable, so greedy pairing finds such a bijection when
    one exists."""
    assert sorted(mapping) == sorted(g1.vertices)
    assert sorted(mapping.values()) == sorted(g2.vertices)
    for u, v in mapping.items():
        assert (u in g1.boundary) == (v in g2.boundary), "%r -> %r: boundary flags differ" % (u, v)

    def fits(e, f):
        return (mapping[e.source], mapping[e.target]) == (f.source, f.target) and math.isclose(
            e.weight.value, f.weight.value, rel_tol=1e-9
        )

    image = {}
    used = set()
    for e in g1.edges():
        if e.eid in image:
            continue
        ce = g1.conjugate_edge(e)
        f = next(
            (
                f
                for f in g2.edges()
                if f.eid not in used
                and fits(e, f)
                and (f.conjugate == f.eid) == (e.conjugate == e.eid)
                and fits(ce, g2.conjugate_edge(f))
            ),
            None,
        )
        assert f is not None, "edge %r has no image" % (e,)
        image[e.eid] = f.eid
        image[ce.eid] = f.conjugate
        used.update((f.eid, f.conjugate))
    assert len(used) == len(image) == g1.edge_count() == g2.edge_count()


def _float_ball(g, radius):
    """The radius ball of g, written out and read back with every generator
    weight as its float value, so the a and b families of equal value fall
    into one weight class."""
    text = serialize_graph(g, radius)
    for name in ("a", "b"):
        value = dict(g.context.generators)[name]
        text = text.replace(" weight %s^1 " % name, " weight %r " % value)
        text = text.replace(" weight %s^-1 " % name, " weight %r " % (1 / value))
    assert "^" not in text
    return ball(parse_graph(text).graph, radius)


@pytest.mark.parametrize("radius", [1, 3])
def test_double_chain_equal_weights_edge_bijection(radius):
    # a = b: in the float ball the a and b edges between two neighbours are
    # parallel with one weight, so only conjugation tells them apart
    b = ball(double_chain(2, 2), radius)
    f = _float_ball(double_chain(2, 2), radius)
    for g1, g2 in ((b, b), (b, f), (f, b), (f, f)):
        m = iso_check(g1, g2)
        assert m is not None
        _assert_edge_bijection(g1, g2, m)


def test_equal_weight_grid_tries_several_candidates():
    # in the float grid(2, 2) every vertex has two neighbours of each weight,
    # so the matcher meets two candidates per level and several symmetric
    # answers; whichever it returns first must be an isomorphism
    b = ball(grid(2, 2), 3)
    f = _float_ball(grid(2, 2), 3)
    for g1, g2 in ((f, f), (b, f)):
        m = iso_check(g1, g2)
        assert m is not None
        _assert_edge_bijection(g1, g2, m)


def test_edge_bijection_helper_rejects():
    def loops(conj):
        # two unit self-loops at the basepoint, conjugate to each other or
        # each self-conjugate, and a pair of edges to a boundary vertex
        return ball(parse_graph(
            "delta-graph v1\ndelta 4.0\nvertex 0\nvertex 1\n"
            "edge s0 0 0 weight 1 conjugate %s\nedge s1 0 0 weight 1 conjugate %s\n"
            "edge f 0 1 weight 1 conjugate r\nedge r 1 0 weight 1 conjugate f\n"
            "basepoint 0\n" % conj
        ).graph, 1)

    paired, selfish = loops(("s1", "s0")), loops(("s0", "s1"))
    ident = {0: 0, 1: 1}
    _assert_edge_bijection(paired, paired, ident)
    _assert_edge_bijection(selfish, selfish, ident)
    with pytest.raises(AssertionError, match="no image"):
        _assert_edge_bijection(paired, selfish, ident)
    unflagged = TruncatedGraph(
        delta=paired.delta, context=paired.context, basepoint=0, radius=1,
        out={v: paired.out_edges(v) for v in paired.vertices}, distance=paired.distance,
        boundary=(),
    )
    with pytest.raises(AssertionError, match="boundary"):
        _assert_edge_bijection(paired, unflagged, ident)


def test_carries_edges_wants_exact_images(chain, assert_carries_edges):
    # ball(chain, 1) less some edges, sent into the ball by the identity:
    # every edge left is carried, but an image's extra out-edge fails the
    # check at an interior vertex (0) and passes at a boundary one (1)
    b = ball(chain, 1)
    ident = {v: v for v in b.vertices}

    def without(drop):
        out = {v: tuple(e for e in b.out_edges(v) if (e.source, e.target) not in drop)
               for v in b.vertices}
        return TruncatedGraph(delta=b.delta, context=b.context, basepoint=b.basepoint,
                              radius=1, out=out, distance=b.distance, boundary=b.boundary)

    assert_carries_edges(b, b, ident)
    assert_carries_edges(without({(1, 0)}), b, ident)
    with pytest.raises(AssertionError, match="out-edges of no edge"):
        assert_carries_edges(without({(0, 1), (1, 0)}), b, ident)


def _huge_pair(tolerance):
    """One edge pair q^1100 / q^-1100, whose values are past the float range."""
    return parse_graph(
        "delta-graph v1\ndelta 2\ngenerator q 2.0\ntolerance %s\nvertex 0\nvertex 1\n"
        "edge e0 0 1 weight q^1100 conjugate e1\nedge e1 1 0 weight q^-1100 conjugate e0\n"
        "basepoint 0\n" % tolerance
    ).graph


def test_cross_context_weights_compare_past_the_float_range():
    # the contexts differ in tolerance only, so weights compare by log_value
    b1, b2 = ball(_huge_pair("1e-09"), 1), ball(_huge_pair("1e-10"), 1)
    assert b1.context != b2.context
    assert iso_check(b1, b2) == {0: 0, 1: 1}
    assert iso_check(b2, b1) == {0: 0, 1: 1}


def test_huge_exact_pair_against_a_float_pair_is_absent():
    # one context: q^1100 against the float 2.0 compares through log_value,
    # unequal, instead of raising OverflowError through the value
    huge = ball(_huge_pair("1e-09"), 1)
    floats = ball(parse_graph(
        "delta-graph v1\ndelta 2\ngenerator q 2.0\ntolerance 1e-09\nvertex 0\nvertex 1\n"
        "edge e0 0 1 weight 2.0 conjugate e1\nedge e1 1 0 weight 0.5 conjugate e0\n"
        "basepoint 0\n"
    ).graph, 1)
    assert huge.context == floats.context
    assert iso_check(huge, floats) is None
    assert iso_check(floats, huge) is None


AMBIGUOUS = os.path.join(os.path.dirname(__file__), "golden", "ambiguous.dg")


@pytest.mark.parametrize("radius", [1, 3])
def test_float_between_exact_classes_has_no_class(radius):
    # ambiguous.dg is double_chain(2, 2) with a^1 written as 2.0, within
    # tolerance of both a^1 and b^1, which are distinct exact weights: the
    # weights do not split into classes, in either order; against itself the
    # file's 2.0 and b^1 are one class
    with open(AMBIGUOUS, encoding="utf-8") as fh:
        amb = ball(parse_graph(fh.read()).graph, radius)
    b = ball(double_chain(2, 2), radius)
    for g1, g2 in ((b, amb), (amb, b)):
        with pytest.raises(ValueError, match=r"^float weight 2 is within tolerance of the "
                                             r"distinct exact weights a\^1 and b\^1$"):
            iso_check(g1, g2)
    m = iso_check(amb, amb)
    assert m is not None and len(m) == {1: 3, 3: 7}[radius]


def test_classes_need_complete_blocks():
    ctx = double_chain(2, 3).context
    x, y, z = (ctx.float_weight(1 + k * 0.9e-9) for k in range(3))
    a, b = ctx.gen("a"), ctx.gen("b")
    # x and z are each within tolerance of y but not of each other
    cls1, cls2 = _classes([x, z, a], [y, b])
    assert cls1[x] == cls1[z] == cls2[y] and len({cls1[a], cls2[b], cls1[x]}) == 3
    with pytest.raises(ValueError, match="distinct float weights"):
        _classes([x, z], [x, y])
