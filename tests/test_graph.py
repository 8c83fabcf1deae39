"""Graph model: validation, balls, vertex weightings, loop enumeration."""

import pytest

from deltagraph import (
    DeltaGraph,
    Edge,
    GeneratorContext,
    Path,
    ball,
    cycle,
    double_chain,
    enumerate_loops,
    grid,
    parse_graph,
    serialize_graph,
    single_chain,
    validate,
    vertex_weighting,
)
from deltagraph.graph import GraphConstructionError, TruncatedGraph, vid_key


class TestValidate:
    def test_single_chain_passes(self, chain):
        report = validate(chain, 4)
        assert report.passed

    def test_orphan_conjugate_named(self, chain):
        # same chain with one conjugate edge dropped
        ctx = chain.context

        def out(m):
            edges = [e for e in chain.out_edges(m) if e.eid != ("l", 1)]
            return edges

        broken = DeltaGraph(2.5, ctx, 0, out)
        report = validate(broken, 2)
        assert not report.passed
        inv = report.check("involution")
        assert not inv.passed
        assert any("('r', 0)" in d for d in inv.details)

    def test_deformed_chain_fairness(self, deformed):
        report = validate(deformed, 6)
        assert report.passed
        # interior outgoing sums hit delta = q + 1/q within 1e-9
        b = ball(deformed, 6)
        for v in b.interior:
            total = sum(e.weight.value for e in b.out_edges(v))
            assert abs(total - deformed.delta) <= 1e-9 * deformed.delta

    def test_unfair_vertex_reported(self):
        ctx = GeneratorContext((("q", 2.0),))
        wq, wqi = ctx.gen("q"), ctx.gen("q", -1)

        def out(m):  # drops the left edge everywhere: outgoing sum is q only
            return (Edge(("r", m), m, m + 1, wq, ("l", m + 1)),)

        g = DeltaGraph(2.5, ctx, 0, out)
        report = validate(g, 2)
        assert not report.check("fairness").passed

    def test_failures_listed_in_ball_order(self):
        # a written ball names its vertices v0, v1, ... in BFS order; under a
        # wrong delta every interior vertex (the 13 within distance 2) is
        # unfair, and the failures come nearest first, so v2 before v10
        # (sorted ids would put v10 first)
        lines = serialize_graph(grid(2, 3), 3).splitlines()
        text = "\n".join("delta 9.0" if ln.startswith("delta ") else ln for ln in lines)
        fair = validate(parse_graph(text).graph, 3).check("fairness")
        assert [d.split(":")[0] for d in fair.details] == [
            "vertex 'v%d'" % i for i in range(13)
        ]

    def test_infinite_delta_rejected(self):
        with pytest.raises(ValueError, match="delta must be finite, got inf"):
            DeltaGraph(float("inf"), GeneratorContext(()), 0, lambda v: ())

    def test_overflowing_out_sum_fails_fairness(self):
        # two edges of weight 1e308 sum to inf, which is not delta = 5
        ctx = GeneratorContext(())
        big, small = ctx.float_weight(1e308), ctx.float_weight(1e-308)
        out = {
            0: (Edge("a", 0, 1, big, "c"), Edge("b", 0, 2, big, "d")),
            1: (Edge("c", 1, 0, small, "a"),),
            2: (Edge("d", 2, 0, small, "b"),),
        }
        report = validate(DeltaGraph(5.0, ctx, 0, out.__getitem__), 1)
        fair = report.check("fairness")
        assert not fair.passed
        assert fair.details == ("vertex 0: outgoing sum inf != delta 5",)

    def test_underflowing_out_sum_shows_its_log(self):
        # vertex 1's only out-weight, q^-1100, is positive but below the
        # float range, so its sum shows as exp of its log, not as 0
        text = ("delta-graph v1\ndelta 2\ngenerator q 2.0\nvertex 0\nvertex 1\n"
                "edge e0 0 1 weight q^1100 conjugate e1\n"
                "edge e1 1 0 weight q^-1100 conjugate e0\nbasepoint 0\n")
        fair = validate(parse_graph(text).graph, 4).check("fairness")
        assert fair.details == ("vertex 0: outgoing sum inf != delta 2",
                                "vertex 1: outgoing sum exp(-762.461898616) != delta 2")

    def test_disconnected_explicit_graph(self):
        ctx = GeneratorContext(())
        one = ctx.identity()
        out = {
            0: (Edge("a", 0, 1, one, "b"),),
            1: (Edge("b", 1, 0, one, "a"),),
            2: (Edge("c", 2, 3, one, "d"),),
            3: (Edge("d", 3, 2, one, "c"),),
        }
        g = DeltaGraph(2.0, ctx, 0, out.__getitem__, declared_vertices=[0, 1, 2, 3])
        report = validate(g, 10)
        conn = report.check("connectivity")
        assert not conn.passed
        assert any("2" in d for d in conn.details)

    def test_neighbor_failure_is_construction_error(self):
        ctx = GeneratorContext(())

        def out(v):
            raise RuntimeError("boom")

        g = DeltaGraph(2.0, ctx, 0, out)
        with pytest.raises(GraphConstructionError):
            ball(g, 1)


class TestEdgeRecord:
    """An edge is a tuple record: a value compared and hashed by its fields."""

    def test_equality_and_hash_by_fields(self):
        ctx = GeneratorContext((("q", 2.0),))
        e = Edge("e0", 0, 1, ctx.gen("q"), "e1")
        same = Edge("e0", 0, 1, ctx.gen("q"), "e1")
        assert e == same and hash(e) == hash(same) and e is not same
        assert e != Edge("e0", 0, 1, ctx.gen("q", -1), "e1")
        assert e != Edge("e0", 0, 2, ctx.gen("q"), "e1")
        assert (e.eid, e.source, e.target, e.weight, e.conjugate) == ("e0", 0, 1, ctx.gen("q"), "e1")
        assert {e: 1}[same] == 1

    def test_fields_cannot_be_assigned(self):
        e = Edge("e0", 0, 1, GeneratorContext((("q", 2.0),)).gen("q"), "e1")
        with pytest.raises(AttributeError):
            e.weight = e.weight.inverse()
        with pytest.raises(AttributeError):
            e.target = 2

    def test_repr(self):
        ctx = GeneratorContext((("q", 2.0),))
        assert repr(Edge("e0", 0, 1, ctx.gen("q"), "e1")) == "Edge('e0': 0->1, q^1)"
        assert repr(Edge(("r", 3), 3, 4, ctx.float_weight(0.5), ("l", 4))) == (
            "Edge(('r', 3): 3->4, 0.5)")

    def test_truncation_names_the_first_duplicate_id(self):
        w = GeneratorContext((("q", 2.0),)).identity()
        out = {0: (Edge("a", 0, 1, w, "b"), Edge("c", 0, 1, w, "d")),
               1: (Edge("b", 1, 0, w, "a"), Edge("c", 1, 0, w, "a"), Edge("b", 1, 0, w, "a"))}
        with pytest.raises(GraphConstructionError, match=r"^duplicate edge id 'c'$"):
            TruncatedGraph(delta=2.0, context=w.context, basepoint=0, radius=1, out=out,
                           distance={0: 0, 1: 1}, boundary=())


class TestBall:
    def test_radius_zero(self, chain):
        b = ball(chain, 0)
        assert b.vertices == (0,)
        assert b.edges() == ()
        assert b.boundary == {0}

    def test_chain_radius_two_counts(self, chain):
        b = ball(chain, 2)
        assert len(b.vertices) == 5
        assert len(b.edges()) == 8  # 4 conjugate pairs

    def test_grid_radius_one(self, grid23):
        assert len(ball(grid23, 1).vertices) == 5

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_monotone_materialization(self, dchain, r):
        small = ball(dchain, r)
        big = ball(dchain, r + 1)
        inner_verts = {v for v in big.vertices if big.distance[v] <= r}
        assert inner_verts == set(small.vertices)
        small_eids = {e.eid for e in small.edges()}
        big_restricted = {
            e.eid
            for e in big.edges()
            if big.distance[e.source] <= r and big.distance[e.target] <= r
        }
        assert small_eids == big_restricted

    def test_finite_graph_exhausts(self, cycle3):
        b = ball(cycle3, 5)
        assert b.exhausted
        assert b.boundary == frozenset()

    def test_ball_of_truncation_keeps_frontier(self, chain):
        t = ball(chain, 2)
        again = ball(t, 2)
        assert set(again.boundary) == set(t.boundary)

    def test_ball_reaching_open_frontier_not_exhausted(self, chain):
        # the chain goes on past t's boundary, so no ball of t holds it all
        t = ball(chain, 2)
        assert not t.exhausted
        assert not ball(t, 2).exhausted
        assert not ball(t, 5).exhausted

    def test_ball_of_exhausted_truncation(self, cycle4_flat):
        t = ball(cycle4_flat, 2)
        assert t.exhausted
        assert ball(t, 2).exhausted
        assert not ball(t, 1).exhausted


def _level_oracle(g, r):
    """Distances, boundary and exhaustion of the radius-r ball, expanding
    one level at a time along stored edge order (graphs without frontier)."""
    dist = {g.basepoint: 0}
    level = [g.basepoint]
    for d in range(1, r + 1):
        nxt = []
        for v in level:
            for e in g.out_edges(v):
                if e.target not in dist:
                    dist[e.target] = d
                    nxt.append(e.target)
        level = nxt
    exhausted = all(e.target in dist for v in level for e in g.out_edges(v))
    return dist, set(level), exhausted


@pytest.mark.parametrize("r", range(6))
@pytest.mark.parametrize(
    "make",
    [lambda: single_chain(2), lambda: cycle(4, 1), lambda: cycle(3, 2)],
    ids=["single_chain", "cycle41", "cycle32"],
)
def test_ball_matches_level_oracle(make, r):
    g = make()
    dist, boundary, exhausted = _level_oracle(g, r)
    b = ball(g, r)
    assert list(b.distance.items()) == list(dist.items())
    assert b.boundary == boundary
    assert b.exhausted == exhausted


class TestVertexWeighting:
    def test_chain_weights_are_powers(self, chain):
        wr = vertex_weighting(chain, 3)
        assert wr
        for m in range(-3, 4):
            assert wr.weighting[m] == chain.context.exact(q=m)

    def test_double_chain_witness(self, dchain):
        wr = vertex_weighting(dchain, 3)
        assert not wr
        w = wr.witness.weight
        assert w in (dchain.context.exact(a=1, b=-1), dchain.context.exact(a=-1, b=1))
        assert wr.witness.is_loop() and wr.witness.start == 0

    @pytest.mark.parametrize(
        "make, r, eids, text",
        [
            (lambda: double_chain(2, 3), 3, (("b-", 0), ("a+", -1)), "a^1 * b^-1"),
            (lambda: cycle(3, 2), 2, (("b", 0), ("b", 2), ("b", 1)), "q^-3"),
        ],
        ids=["double_chain", "cycle32"],
    )
    def test_witness_is_pinned(self, make, r, eids, text):
        # the loop through the first inconsistent edge in BFS scan order
        witness = vertex_weighting(make(), r).witness
        assert witness.edge_ids() == eids
        assert witness.weight.text() == text

    def test_flat_cycle_all_ones(self, cycle4_flat):
        wr = vertex_weighting(cycle4_flat, 4)
        assert wr
        assert all(w.is_identity() for w in wr.weighting.values())

    def test_plain_graph_needs_radius(self, chain):
        with pytest.raises(ValueError, match="radius required"):
            vertex_weighting(chain)

    def test_weighting_recheck_on_edges(self, grid23):
        b = ball(grid23, 3)
        wv = vertex_weighting(b).weighting
        for e in b.edges():
            assert wv[e.target] == wv[e.source] * e.weight


class TestLoops:
    def test_length_zero(self, chain):
        loops = enumerate_loops(chain, 0)
        assert len(loops) == 1
        assert loops[0].edges == ()
        assert loops[0].weight.is_identity()

    def test_chain_two_loops(self, chain):
        loops = enumerate_loops(chain, 2)
        assert len(loops) == 2

    def test_double_chain_weight_multiset(self, dchain):
        texts = sorted(l.weight.text() for l in enumerate_loops(dchain, 2))
        assert texts == ["1", "1", "1", "1", "a^-1 * b^1", "a^-1 * b^1", "a^1 * b^-1", "a^1 * b^-1"]

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_bipartite_parity(self, dchain, grid23, n):
        assert enumerate_loops(dchain, n) == ()
        assert enumerate_loops(grid23, n) == ()

    @pytest.mark.parametrize("n", range(7))
    def test_loops_are_loops(self, cycle3, n):
        for l in enumerate_loops(cycle3, n):
            assert len(l) == n
            assert l.start == 0 and l.target == 0
            at = 0
            for e in l.edges:
                assert e.source == at
                at = e.target

    def test_no_duplicates_and_sorted(self, dchain):
        loops = enumerate_loops(dchain, 4)
        keys = [tuple(vid_key(e) for e in l.edge_ids()) for l in loops]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_reversal_cancels(self, dchain):
        b = ball(dchain, 3)
        for l in enumerate_loops(dchain, 4):
            back = l.reversed_in(b)
            assert (l * back).weight.is_identity()

    def test_path_composition_enforced(self, chain):
        b = ball(chain, 2)
        e_right = next(e for e in b.out_edges(0) if e.eid == ("r", 0))
        with pytest.raises(ValueError):
            Path.of(chain.context, 0, (e_right, e_right))
