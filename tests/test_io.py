"""File format round-trips, parse diagnostics, and DOT export."""

import pytest

from deltagraph import (
    ball,
    chain_shift_action,
    export_dot,
    iso_check,
    parse_graph,
    quotient,
    serialize_graph,
    tracial_cover,
    validate,
)
from deltagraph.io import GraphFormatError


class TestRoundtrip:
    def test_serialize_parse_iso(self, chain):
        text = serialize_graph(chain, 2)
        doc = parse_graph(text)
        assert iso_check(ball(doc.graph, 2), ball(chain, 2))

    def test_canonical_fixed_point(self, dchain):
        text = serialize_graph(dchain, 2)
        again = serialize_graph(parse_graph(text).graph, 2)
        assert text == again

    def test_parsed_graph_validates(self, grid23):
        doc = parse_graph(serialize_graph(grid23, 3))
        assert validate(doc.graph, 3).passed

    def test_float_weights_roundtrip(self, deformed):
        text = serialize_graph(deformed, 3)
        doc = parse_graph(text)
        assert iso_check(ball(doc.graph, 3), ball(deformed, 3))
        assert serialize_graph(doc.graph, 3) == text

    def test_cover_with_weighting_roundtrip(self, dchain):
        cov, nu = tracial_cover(dchain, 2)
        text = serialize_graph(cov, weighting=nu)
        doc = parse_graph(text)
        assert doc.vertex_weights is not None
        assert doc.vertex_weights["v0"].is_identity()

    def test_plain_graph_needs_radius(self, chain):
        with pytest.raises(ValueError, match="radius required"):
            serialize_graph(chain)

    def test_action_blocks_roundtrip(self, chain):
        act = chain_shift_action(chain, 3)
        text = serialize_graph(chain, 4, actions=act)
        doc = parse_graph(text)
        assert doc.action is not None
        gen = doc.action.generator("s")
        assert gen.weight == chain.context.exact(q=3)
        # the parsed table gives the same quotient as the built-in shift
        q1 = quotient(doc.graph, doc.action, 4)
        q2 = quotient(chain, act, 4)
        assert iso_check(q1, q2, interior_only=True)


CHAIN_DOC = """\
delta-graph v1
delta 2.5
generator q 2.0
tolerance 1e-09
vertex 0
vertex 1
edge r0 0 1 weight q^1 conjugate l1
edge l1 1 0 weight q^-1 conjugate r0
basepoint 0
"""


class TestParse:
    def test_integer_vertex_tokens(self):
        doc = parse_graph(CHAIN_DOC)
        assert doc.graph.basepoint == 0
        assert 1 in doc.graph.declared_vertices

    def test_tuple_vertex_tokens(self):
        text = (
            "delta-graph v1\ndelta 2.5\ngenerator q 2.0\n"
            "vertex (0,0)\nvertex (1,0)\nvertex (1,x)\n"
            "edge r0 (0,0) (1,0) weight q^1 conjugate l1\n"
            "edge l1 (1,0) (0,0) weight q^-1 conjugate r0\n"
            "basepoint (0,0)\n"
            "action t weight q^1\nshift 1,0\n"
        )
        doc = parse_graph(text)
        assert doc.graph.basepoint == (0, 0)
        assert doc.graph.declared_vertices == ((0, 0), (1, 0), "(1,x)")
        assert doc.graph.out_edges((0, 0))[0].target == (1, 0)
        assert doc.action.generator("t").act((0, 0)) == (1, 0)

    def test_endpoint_spelled_otherwise_than_its_vertex(self):
        # an edge endpoint that is not a declared token but parses to a
        # declared id (007 for 7) names that vertex
        text = (
            "delta-graph v1\ndelta 2.5\ngenerator q 2.0\nvertex 7\nvertex (0,1)\n"
            "edge r0 007 (0,01) weight q^1 conjugate l1\n"
            "edge l1 (0,1) 7 weight q^-1 conjugate r0\n"
            "basepoint 07\n"
        )
        g = parse_graph(text).graph
        assert g.basepoint == 7 and g.declared_vertices == (7, (0, 1))
        (e,) = g.out_edges(7)
        assert (e.eid, e.source, e.target, e.conjugate) == ("r0", 7, (0, 1), "l1")
        assert g.out_edges((0, 1))[0].target == 7

    def test_weight_half_exponent(self):
        text = CHAIN_DOC.replace("q^1", "q^1/2").replace("q^-1", "q^-1/2")
        doc = parse_graph(text)
        e = doc.graph.out_edges(0)[0]
        from fractions import Fraction

        assert e.weight.exponents == (("q", Fraction(1, 2)),)

    def test_missing_header(self):
        with pytest.raises(GraphFormatError):
            parse_graph("delta 2.5\n")

    def test_edge_missing_conjugate_field(self):
        bad = CHAIN_DOC.replace(" conjugate l1", "")
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(bad)
        assert "r0" in str(exc.value)

    def test_dangling_conjugate(self):
        bad = CHAIN_DOC.replace("conjugate l1", "conjugate nothere")
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(bad)
        assert "nothere" in str(exc.value)

    def test_unknown_generator(self):
        bad = CHAIN_DOC.replace("weight q^1 ", "weight z^1 ")
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(bad)
        assert "z" in str(exc.value)

    def test_undeclared_vertex(self):
        bad = CHAIN_DOC.replace("vertex 1\n", "")
        with pytest.raises(GraphFormatError):
            parse_graph(bad)

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("delta 2.5", "delta x", 2),
            ("generator q 2.0", "generator q two", 3),
            ("tolerance 1e-09", "tolerance tiny", 4),
            ("delta 2.5", "delta 1.5", 2),
            ("delta 2.5", "delta nan", 2),
        ],
    )
    def test_bad_number_names_its_line(self, old, new, line):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(CHAIN_DOC.replace(old, new))
        assert str(exc.value).startswith("line %d: " % line)

    def test_shift_action_on_integer_vertices(self):
        text = CHAIN_DOC + "action s weight q^3\nshift 3\n"
        doc = parse_graph(text)
        gen = doc.action.generator("s")
        assert gen.act(0) == 3
        assert gen.act("v0") is None


class TestDot:
    def test_deterministic(self, chain):
        b = ball(chain, 1)
        assert export_dot(b) == export_dot(ball(chain, 1))

    def test_single_vertex(self, chain):
        dot = export_dot(ball(chain, 0))
        assert "doublecircle" in dot
        assert dot.count("->") == 0

    def test_chain_ball_one(self, chain):
        dot = export_dot(ball(chain, 1))
        assert dot.count("->") == 4
        assert dot.count("q^1") == 2 and dot.count("q^-1") == 2
        assert dot.count("style=dashed") == 2  # two boundary vertices
