"""Tracial covers: cover construction, loop lifting, loop weights.

Core claims:
    - collapsing based paths by (target, weight) reproduces the cover
    - the cover of a tracial graph is the graph itself
    - the cover of the double chain is the two-generator grid
    - the cover of a weighted cycle unwinds to the chain
    - the cover is always tracial, with the returned weighting
    - weight-1 loops lift bijectively and multiplicatively
    - the loop weight group matches the known answers
"""

import copy

import pytest

from deltagraph import (
    GraphConstructionError,
    ball,
    cycle,
    double_chain,
    enumerate_loops,
    iso_check,
    lift_loop,
    loop_weight_group,
    parse_graph,
    serialize_graph,
    single_chain,
    tracial_cover,
    validate,
    vertex_weighting,
)
from deltagraph.cover import CoverVertex, LoopLiftError, _Interner
from deltagraph.weights import GeneratorContext


class TestCoverVertex:
    """A cover vertex is an immutable value that is not a tuple."""

    def test_equal_fields_equal_vertices(self):
        ctx = GeneratorContext((("q", 2.0),))
        cv = CoverVertex((0, 1), ctx.gen("q"))
        same = CoverVertex((0, 1), ctx.gen("q"))
        assert cv == same and hash(cv) == hash(same) and cv is not same
        assert {cv: 1}[same] == 1
        assert cv != CoverVertex((0, 1), ctx.gen("q", 2))
        assert cv != CoverVertex((0, 2), ctx.gen("q"))
        assert repr(cv) == "[q^1, (0, 1)]"

    def test_not_a_tuple(self):
        # builders and the CLI tell lattice points apart by isinstance(v, tuple)
        cv = CoverVertex((0, 1), GeneratorContext((("q", 2.0),)).gen("q"))
        assert not isinstance(cv, tuple)
        assert cv.__eq__(((0, 1), cv.weight)) is NotImplemented
        assert cv != ((0, 1), cv.weight)

    def test_fields_cannot_be_assigned(self):
        cv = CoverVertex(0, GeneratorContext((("q", 2.0),)).identity())
        with pytest.raises(AttributeError):
            cv.weight = cv.weight.inverse()
        with pytest.raises(AttributeError):
            cv.target = 1
        assert copy.deepcopy(cv) == cv


class TestPathGraph:
    def test_quotient_collapses_to_cover(self, dchain):
        # grouping the based paths of length <= 2 by (target, weight) must
        # reproduce the cover's vertex set, and the grouping must be
        # adjacency-consistent
        cov, _ = tracial_cover(dchain, 2)
        root = CoverVertex(dchain.basepoint, dchain.context.identity())
        classes = {(): root}  # based path (edge ids) -> its class
        level = [((), root)]
        for _ in range(2):
            level = [
                (pid + (e.eid,), CoverVertex(e.target, cv.weight * e.weight))
                for pid, cv in level
                for e in dchain.out_edges(cv.target)
            ]
            classes.update(level)
        assert len(classes) == 1 + 4 + 16
        assert set(classes.values()) == set(cov.vertices)
        # out-edge weight multisets only depend on the class
        by_class = {}
        for pid, cv in classes.items():
            if len(pid) == 2:
                continue
            sig = tuple(
                sorted(classes[pid + (e.eid,)].weight.key() for e in dchain.out_edges(cv.target))
            )
            assert by_class.setdefault(cv, sig) == sig


class TestTracialCover:
    def test_fixed_point_chain(self, chain):
        cov, nu = tracial_cover(chain, 3)
        assert iso_check(cov, ball(chain, 3)) is not None

    def test_fixed_point_deformed(self, deformed):
        cov, _ = tracial_cover(deformed, 3)
        assert iso_check(cov, ball(deformed, 3)) is not None

    def test_double_chain_cover_is_grid(self, dchain, grid23):
        cov, _ = tracial_cover(dchain, 2)
        assert iso_check(cov, ball(grid23, 2)) is not None

    def test_cycle_cover_is_chain(self, cycle3):
        cov, _ = tracial_cover(cycle3, 3)
        assert iso_check(cov, ball(single_chain(2), 3)) is not None

    def test_finite_cover_is_exhausted(self, cycle4_flat):
        # a tracial finite graph is its own cover, and the ball says so
        cov, _ = tracial_cover(cycle4_flat, 3)
        assert cov.exhausted
        assert len(cov.vertices) == 4

    def test_cover_of_open_truncation_not_exhausted(self, chain):
        # the cover ball reaches the truncation's boundary, past which the
        # chain goes on
        cov, _ = tracial_cover(ball(chain, 2), 5)
        assert not cov.exhausted

    @pytest.mark.parametrize("r, count", [(2, 13), (3, 25), (4, 41)])
    def test_mixed_exact_float_weights(self, dchain, r, count):
        # the a^1 edges written as the float 2.0: an exact class and its
        # float twin are one cover vertex, so the cover stays the grid
        text = serialize_graph(dchain, 4)
        assert "weight a^1 " in text
        mixed = parse_graph(text.replace("weight a^1 ", "weight 2.0 ")).graph
        assert validate(mixed, 4).passed
        cov, _ = tracial_cover(mixed, r)
        assert len(cov.vertices) == count
        assert validate(cov).check("involution").passed

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_ambiguous_mixed_weights_rejected(self, r):
        # with a = b = 2, the float 2.0 written for a^1 is within tolerance
        # of both a^1 and b^1, so no cover class can take it
        text = serialize_graph(double_chain(2, 2), 4).replace("weight a^1 ", "weight 2.0 ")
        mixed = parse_graph(text).graph
        assert validate(mixed, 4).passed
        with pytest.raises(GraphConstructionError, match="distinct exact weights"):
            tracial_cover(mixed, r)

    def test_interner_rejects_float_between_exact_classes(self):
        ctx = GeneratorContext((("a", 2.0), ("b", 2.0)))
        intern = _Interner(ctx.tolerance)
        a, b = intern.get("v", ctx.gen("a")), intern.get("v", ctx.gen("b"))
        assert a is not b  # exact classes compare structurally
        with pytest.raises(ValueError, match="float weight 2 at 'v' .* a\\^1 and b\\^1"):
            intern.get("v", ctx.float_weight(2.0))

    def test_interner_rejects_exact_class_beside_a_floated_one(self):
        ctx = GeneratorContext((("a", 2.0), ("b", 2.0)))
        intern = _Interner(ctx.tolerance)
        a = intern.get("v", ctx.gen("a"))
        assert intern.get("v", ctx.float_weight(2.0)) is a
        assert intern.get("w", ctx.gen("b")) is not a  # another target is unaffected
        with pytest.raises(ValueError, match="float weight 2 at 'v' .* a\\^1 and b\\^1"):
            intern.get("v", ctx.gen("b"))

    def test_cover_validates_fair(self, dchain):
        cov, _ = tracial_cover(dchain, 3)
        report = validate(cov)
        assert report.passed, report.failures()

    def test_cover_is_tracial_with_nu(self, dchain):
        cov, nu = tracial_cover(dchain, 3)
        wr = vertex_weighting(cov)
        assert wr
        for cv in cov.vertices:
            assert wr.weighting[cv] == nu[cv]
            assert nu[cv] == cv.weight

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_idempotent_on_interiors(self, dchain, r, assert_carries_edges):
        cov1, _ = tracial_cover(dchain, r + 1)
        cov2, _ = tracial_cover(cov1, r + 1)
        m = iso_check(cov2, cov1, interior_only=True)
        assert m is not None
        assert_carries_edges(cov2, cov1, m)


class TestLiftLoop:
    def test_empty_loop(self, dchain):
        from deltagraph.graph import Path

        empty = Path.empty(dchain.context, 0)
        lifted = lift_loop(dchain, empty)
        assert len(lifted) == 0

    def test_out_and_back(self, dchain):
        cov, _ = tracial_cover(dchain, 2)
        l = next(
            l
            for l in enumerate_loops(dchain, 2)
            if l.edge_ids() == (("a+", 0), ("a-", 1))
        )
        lifted = lift_loop(dchain, l, cover=cov)
        mid = lifted.edges[0].target
        assert mid.target == 1 and mid.weight == dchain.context.exact(a=1)
        assert lifted.edges[1].target == cov.basepoint

    def test_rejects_nonunit_weight(self, dchain):
        bad = next(l for l in enumerate_loops(dchain, 2) if not l.weight.is_identity())
        with pytest.raises(LoopLiftError) as exc:
            lift_loop(dchain, bad)
        assert exc.value.weight.value in (pytest.approx(2 / 3), pytest.approx(3 / 2))

    @staticmethod
    def _walk(g, start, eids):
        from deltagraph.graph import Path

        edges, at = [], start
        for eid in eids:
            e = next(e for e in g.out_edges(at) if e.eid == eid)
            edges.append(e)
            at = e.target
        return Path.of(g.context, start, edges)

    def test_rejects_open_path(self):
        # unit weight, but it ends two steps round the cycle from where it began
        g = cycle(4, 1)
        path = self._walk(g, 0, [("f", 0), ("f", 1)])
        with pytest.raises(ValueError, match="runs from 0 to 2"):
            lift_loop(g, path)

    def test_rejects_loop_off_the_basepoint(self):
        # a unit-weight loop at vertex 1 that no cover radius could trace
        g = single_chain(2)
        loop = self._walk(g, 1, [("r", 1), ("l", 2)])
        assert loop.is_loop() and loop.weight.is_identity()
        with pytest.raises(ValueError, match="runs from 1 to 1"):
            lift_loop(g, loop)

    def test_rejects_a_cover_too_small(self, dchain):
        # a unit-weight loop that goes two steps out leaves the radius-1 cover
        l = next(l for l in enumerate_loops(dchain, 4)
                 if l.weight.is_identity() and l.edges[1].target == 2)
        cov, _ = tracial_cover(dchain, 1)
        with pytest.raises(ValueError, match="^cover of radius 1 too small to trace the loop$"):
            lift_loop(dchain, l, cover=cov)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_counting_bijection(self, dchain, n):
        unit = [l for l in enumerate_loops(dchain, n) if l.weight.is_identity()]
        cov, _ = tracial_cover(dchain, n)
        cover_loops = enumerate_loops(cov, n)
        assert len(unit) == len(cover_loops)
        lifted = {lift_loop(dchain, l, cover=cov) for l in unit}
        assert len(lifted) == len(unit)  # injective
        assert lifted == set(cover_loops)  # surjective

    def test_multiplicative(self, dchain):
        cov, _ = tracial_cover(dchain, 4)
        units = [l for l in enumerate_loops(dchain, 2) if l.weight.is_identity()]
        for l1 in units:
            for l2 in units:
                assert lift_loop(dchain, l1 * l2, cover=cov) == lift_loop(
                    dchain, l1, cover=cov
                ) * lift_loop(dchain, l2, cover=cov)


class TestLoopWeightGroup:
    def test_chain_trivial(self, chain):
        assert loop_weight_group(chain, 6).is_trivial()

    def test_double_chain(self, dchain):
        gens = loop_weight_group(dchain, 4).generators
        assert [g.text() for g in gens] == ["a^1 * b^-1"]

    def test_cycle_cubed(self, cycle3):
        gens = loop_weight_group(cycle3, 4).generators
        assert [g.text() for g in gens] == ["q^3"]
        # not visible below the wrap length
        assert loop_weight_group(cycle3, 2).is_trivial()

    def test_search_depth_recorded(self, dchain):
        assert loop_weight_group(dchain, 4).search_depth == 4
