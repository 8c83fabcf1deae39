"""Group actions, quotients, the cover roundtrip, and recovery.

Core claims:
    - built-in shift actions pass check_action; weight-scaling violations,
      non-injective maps, maps that break edges and unit-weight nontrivial
      actions are rejected
    - quotienting the chain by the full shift gives one vertex with a
      conjugate pair of self-loops; by a 3-step shift, the weighted 3-cycle
    - quotienting the grid by the antidiagonal shift gives the double chain
    - unit self-loops pair among themselves in a quotient, the odd one
      self-conjugate
    - the tracial cover of a quotient is the original graph (roundtrip)
    - orbit members carry pairwise distinct weights; fairness transfers
    - recovery from the cover reproduces the graph on interiors
"""

import pytest

from deltagraph import (
    ActionError,
    ActionGenerator,
    DeltaGraph,
    Edge,
    GraphAction,
    NonTracialGraphError,
    ball,
    cayley,
    chain_shift_action,
    check_action,
    cycle,
    double_chain,
    iso_check,
    lattice_shift_action,
    orbit_partition,
    parse_graph,
    quotient,
    recover,
    single_chain,
    tracial_cover,
    validate,
    vertex_weighting,
)


def _action_file(edges: str):
    """A 3-vertex chain file with the given edge records and the action s
    of weight q^1 mapping 0 -> 1 and 1 -> 2."""
    return parse_graph(
        "delta-graph v1\ndelta 4\ngenerator q 2\nvertex 0\nvertex 1\nvertex 2\n"
        "%sbasepoint 0\naction s weight q^1\nmap 0 1\nmap 1 2\n" % edges
    )


# the chain 0 - 1 - 2 with weight q^1 forward, two self-conjugate unit loops
# at 0 and a conjugate pair of unit loops at 1
LOOPS = (
    "edge e0 0 1 weight q^1 conjugate e1\nedge e1 1 0 weight q^-1 conjugate e0\n"
    "edge e2 1 2 weight q^1 conjugate e3\nedge e3 2 1 weight q^-1 conjugate e2\n"
    "edge x0 0 0 weight 1 conjugate x0\nedge x1 0 0 weight 1 conjugate x1\n"
    "edge y0 1 1 weight 1 conjugate y1\nedge y1 1 1 weight 1 conjugate y0\n"
)
# one edge 0 -> 1, two parallel edges 1 -> 2
PARALLEL = (
    "edge e0 0 1 weight q^1 conjugate e1\nedge e1 1 0 weight q^-1 conjugate e0\n"
    "edge e2 1 2 weight q^1 conjugate e3\nedge e3 2 1 weight q^-1 conjugate e2\n"
    "edge e4 1 2 weight q^1 conjugate e5\nedge e5 2 1 weight q^-1 conjugate e4\n"
)


class TestCheckAction:
    def test_chain_shift3_passes(self, chain):
        report = check_action(chain, chain_shift_action(chain, 3), 4)
        assert report.passed
        assert report.checked > 0

    def test_grid_translation_passes(self, grid23):
        report = check_action(grid23, lattice_shift_action(grid23, (1, 0)), 3)
        assert report.passed

    def test_wrong_weight_fails(self, chain):
        # claims weight q^3 but shifts by two
        gen = ActionGenerator("s", chain.context.gen("q", 3), lambda v: v + 2)
        report = check_action(chain, GraphAction((gen,)), 3)
        assert not report.passed
        assert any("w(" in f for f in report.failures)

    def test_unit_weight_nontrivial_rejected(self, chain):
        gen = ActionGenerator("s", chain.context.identity(), lambda v: v + 1)
        report = check_action(chain, GraphAction((gen,)), 3)
        assert not report.passed

    def test_collapsing_map_rejected(self, chain):
        # every vertex goes to 0: not injective, and the edges m -> m+1 have
        # no image edge 0 -> 0
        act = GraphAction((ActionGenerator("c", chain.context.gen("q"), lambda v: 0),))
        report = check_action(chain, act, 3)
        assert not report.passed
        assert "generator c is not injective on the ball" in report.failures
        assert "generator c does not preserve the edges 0 -> 1" in report.failures
        with pytest.raises(ActionError, match="^generator c not invertible on the ball$"):
            orbit_partition(chain, act, 3)

    @pytest.mark.parametrize(
        "edges, broken",
        [(LOOPS, ["0 -> 0", "1 -> 1"]), (PARALLEL, ["0 -> 1"])],
        ids=["self-loops", "parallel"],
    )
    def test_edges_compared_by_count_and_self_conjugacy(self, edges, broken):
        doc = _action_file(edges)
        report = check_action(doc.graph, doc.action, 4)
        for pair in broken:
            assert "generator s does not preserve the edges %s" % pair in report.failures

    def test_requires_tracial(self, dchain):
        act = chain_shift_action(single_chain(2), 1)
        with pytest.raises(NonTracialGraphError):
            check_action(dchain, act, 3)

    def test_partial_action_is_inconclusive(self, chain):
        # acts only on nonnegative vertices: images of negatives unknown
        gen = ActionGenerator(
            "s", chain.context.gen("q", 3), lambda v: v + 3 if v >= 0 else None
        )
        report = check_action(chain, GraphAction((gen,)), 3)
        assert report.passed
        assert report.skipped > 0

    def test_neighbour_image_outside_ball_is_skipped(self, chain):
        # the shift by one, except that 1 goes far outside the radius-3 ball
        # (vertices -3..3, boundary -3 and 3).  Interior 0 goes to interior
        # 1, but its neighbour 1 has no image in the ball: that edge pair is
        # skipped, not failed.  Skipped: the weights at 1 and at 3 (whose
        # image 4 is outside), the pair 0 -> 1, and the adjacency of 1 (image
        # outside) and of 2 (image on the boundary).  Checked: five weights,
        # and two edge pairs at each of -2 and -1, one at 0.
        gen = ActionGenerator(
            "s", chain.context.gen("q"), lambda v: 100 if v == 1 else v + 1
        )
        report = check_action(chain, GraphAction((gen,)), 3)
        assert report.passed and report.failures == ()
        assert (report.skipped, report.checked) == (5, 10)


class TestQuotient:
    def test_full_shift_single_vertex(self, chain):
        q = quotient(chain, chain_shift_action(chain, 1), 4)
        assert len(q.vertices) == 1
        (v,) = q.vertices
        texts = sorted(e.weight.text() for e in q.out_edges(v))
        assert texts == ["q^-1", "q^1"]
        e1, e2 = q.out_edges(v)
        assert e1.conjugate == e2.eid and e2.conjugate == e1.eid

    def test_one_generator_cayley_shift_single_vertex(self):
        # cayley([w]) has 1-tuple vertices, which a 1-vector shift must move too
        g = cayley([2])
        act = lattice_shift_action(g, (1,))
        assert check_action(g, act, 4).checked > 0
        q = quotient(g, act, 4)
        assert len(q.vertices) == 1

    def test_three_step_shift_is_cycle(self, chain, cycle3):
        q = quotient(chain, chain_shift_action(chain, 3), 4)
        assert iso_check(q, ball(cycle3, 4)) is not None

    def test_grid_antidiagonal_is_double_chain(self, grid23, dchain):
        q = quotient(grid23, lattice_shift_action(grid23, (1, -1)), 4)
        assert iso_check(q, ball(dchain, 4), interior_only=True)

    def test_unit_weight_generator_rejected_before_orbits(self, cycle4_flat):
        # a flat cycle's rotation scales weights by 1 but moves vertices, so
        # quotient's action check rejects it before any orbit is formed
        gen = ActionGenerator(
            "r", cycle4_flat.context.identity(), lambda v: (v + 1) % 4
        )
        with pytest.raises(ActionError) as err:
            quotient(cycle4_flat, GraphAction((gen,)), 3)
        assert str(err.value) == (
            "action check failed: generator r has unit weight but acts nontrivially"
        )

    def test_orbit_weights_distinct_names_first_pair(self, cycle4_flat):
        from deltagraph import orbit_partition

        gen = ActionGenerator("r", cycle4_flat.context.identity(), lambda v: (v + 1) % 4)
        with pytest.raises(ActionError) as err:
            orbit_partition(cycle4_flat, GraphAction((gen,)), 3)
        assert str(err.value) == "orbit members 0 and 1 share weight 1"

    def test_orbit_partition(self, chain):
        from deltagraph import orbit_partition, vertex_weighting

        orbits = orbit_partition(chain, chain_shift_action(chain, 3), 4)
        assert len(orbits) == 3
        members = sorted(tuple(o.members) for o in orbits)
        assert members == [(-4, -1, 2), (-3, 0, 3), (-2, 1, 4)]
        wv = vertex_weighting(chain, 4).weighting
        for o in orbits:
            assert o.label == min(o.members, key=lambda m: wv[m].value)
            assert o.representative is not None
            values = [wv[m].value for m in o.members]
            assert len(set(values)) == len(values)

    def test_fairness_transfers(self, chain):
        q = quotient(chain, chain_shift_action(chain, 3), 4)
        base = ball(chain, 4)
        wv = vertex_weighting(base).weighting
        for v in q.vertices:
            if v in q.boundary:
                continue
            got = sorted(e.weight.value for e in q.out_edges(v))
            assert got == pytest.approx(sorted([2.0, 0.5]))
            assert sum(got) == pytest.approx(chain.delta)

    @pytest.mark.parametrize("steps", [1, 3])
    def test_roundtrip_chain(self, chain, steps):
        q = quotient(chain, chain_shift_action(chain, steps), 4)
        cov, _ = tracial_cover(q, 4)
        assert iso_check(cov, ball(chain, 4), interior_only=True)

    def test_roundtrip_grid(self, grid23):
        q = quotient(grid23, lattice_shift_action(grid23, (1, -1)), 4)
        cov, _ = tracial_cover(q, 4)
        assert iso_check(cov, ball(grid23, 4), interior_only=True)

    def test_unit_self_loops_pair_among_themselves(self, chain):
        # each vertex of the chain also carries unit self-loops x <-> y and a
        # self-conjugate z; in the quotient the three pair up again, the
        # middle one self-conjugate
        ctx, one = chain.context, chain.context.identity()

        def out(m):
            return chain.out_edges(m) + (
                Edge(("x", m), m, m, one, ("y", m)),
                Edge(("y", m), m, m, one, ("x", m)),
                Edge(("z", m), m, m, one, ("z", m)),
            )

        g = DeltaGraph(chain.delta + 3, ctx, 0, out)
        q = quotient(g, chain_shift_action(g, 1), 4)
        assert validate(q).passed
        (v,) = q.vertices
        loops = [e for e in q.out_edges(v) if e.target == v and e.weight.is_identity()]
        assert len(loops) == 3
        assert sum(e.conjugate == e.eid for e in loops) == 1
        cov, _ = tracial_cover(q, 4)
        assert iso_check(cov, ball(g, 4), interior_only=True) is not None

    def test_out_degree_preserved(self, grid23):
        q = quotient(grid23, lattice_shift_action(grid23, (1, -1)), 3)
        for v in q.vertices:
            if v not in q.boundary:
                assert len(q.out_edges(v)) == 4


class TestRecover:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: double_chain(2, 3),
            lambda: single_chain(2),
            lambda: cycle(3, 2),
        ],
        ids=["double_chain", "single_chain", "cycle3"],
    )
    def test_recover_matches_ball(self, maker, assert_carries_edges):
        g = maker()
        rec = recover(g, 4)
        m = iso_check(rec, ball(g, 4), interior_only=True)
        assert m
        assert_carries_edges(rec, ball(g, 4), m)

    def test_recover_validates(self, dchain):
        rec = recover(dchain, 3)
        from deltagraph import validate

        assert validate(rec).passed

    def test_recover_finite_cycle_exact(self, cycle3):
        rec = recover(cycle3, 4)
        # wide enough radius: the whole cycle, boundary-free
        assert len(rec.vertices) == 3
        assert not rec.boundary
        assert iso_check(rec, ball(cycle3, 4)) is not None
