"""Cup/cap calculus, star structure, inner products, modular spectrum.

Core claims:
    - cup inserts summed conjugate pairs with square-root coefficients
    - cap annihilates non-conjugate pairs and contracts conjugate ones
    - cap_(i+1) o cup_i = (outgoing weight sum) * id = delta * id
    - both zig-zag composites are the identity on every basis loop
    - star is a conjugate-linear involution reversing concatenation
    - the left Gram matrix is the identity, the right one diag(1/w(l)),
      both by literal nested-cap evaluation
    - inner(f, g, left) == inner(modular f, g, right) on all basis pairs
    - the eigenvalue multiset is the loop-weight multiset
    - ``relations`` passes every record on every builder, in the tl-check
      order and bounds
    - equality is exact between exact coefficients, tolerance-based otherwise
    - oracles: the walk-count spectrum equals the grouped enumerated loop
      weights, the trie-walk inner products equal pairwise ``inner``, and
      ``loop_weight_group`` equals the reduction of enumerated loop weights
    - a vector belongs to one graph's edge table: vectors of different
      graphs (a graph and its ball) raise under every map that would mix
      them, each graph's own maps give the same loops, and ``terms`` reads
      the loops back
    - vectors stay exact for exponents of w(e)^(1/2) past 2^31 and 2^63, and
      a float product past the float range raises ``OverflowError``
"""

import os
from fractions import Fraction

import pytest

from collections import Counter

from deltagraph import (
    Coefficient,
    ContextMismatchError,
    DeltaGraph,
    GraphConstructionError,
    apply_modular,
    ball,
    basis,
    cap,
    cayley,
    concat,
    cup,
    cycle,
    deformed_chain,
    double_chain,
    enumerate_loops,
    grid,
    inner,
    loop_vector,
    loop_weight_counts,
    loop_weight_group,
    modular_spectrum,
    parse_graph,
    reduce_generators,
    relations,
    serialize_graph,
    single_chain,
    star,
    validate,
    vertex_weighting,
    zero_vector,
)
from deltagraph import loop_algebra
from deltagraph.graph import Edge, Path
from deltagraph.loop_algebra import VERIFY_LIMIT, _inner_pairs, format_vector
from deltagraph.weights import GeneratorContext, group_weights


def coeff_of(graph, w, scalar=1):
    return Coefficient.of_weight(w, scalar)


@pytest.fixture
def rr(chain):
    """The right-and-back loop (r, r-bar) at the chain basepoint."""
    return next(
        l for l in enumerate_loops(chain, 2) if l.edge_ids() == (("r", 0), ("l", 1))
    )


@pytest.fixture
def ll(chain):
    return next(
        l for l in enumerate_loops(chain, 2) if l.edge_ids() == (("l", 0), ("r", -1))
    )


class TestCup:
    def test_cup_empty(self, chain):
        ctx = chain.context
        v = cup(chain, loop_vector(chain, Path.empty(ctx, 0)), 0)
        got = {l.edge_ids(): c for l, c in v.terms.items()}
        assert got[(("r", 0), ("l", 1))] == coeff_of(chain, ctx.exact(q=Fraction(1, 2)))
        assert got[(("l", 0), ("r", -1))] == coeff_of(chain, ctx.exact(q=Fraction(-1, 2)))
        assert len(got) == 2

    def test_cup_zero_vector(self, chain):
        assert cup(chain, zero_vector(chain, 0), 0).is_zero()

    def test_cup_after_two(self, chain, rr):
        ctx = chain.context
        v = cup(chain, loop_vector(chain, rr), 2)
        got = {l.edge_ids(): c for l, c in v.terms.items()}
        assert got[(("r", 0), ("l", 1), ("r", 0), ("l", 1))] == coeff_of(
            chain, ctx.exact(q=Fraction(1, 2))
        )
        assert got[(("r", 0), ("l", 1), ("l", 0), ("r", -1))] == coeff_of(
            chain, ctx.exact(q=Fraction(-1, 2))
        )

    def test_index_out_of_range(self, chain, rr):
        with pytest.raises(IndexError):
            cup(chain, loop_vector(chain, rr), 3)


class TestCap:
    def test_cap_contracts(self, chain, rr):
        ctx = chain.context
        v = cap(loop_vector(chain, rr), 1)
        ((l, c),) = v.terms.items()
        assert l.edges == ()
        assert c == coeff_of(chain, ctx.exact(q=Fraction(1, 2)))

    def test_cap_middle_conjugate_pair(self, chain, rr):
        # (r, r-bar, r, r-bar) at position 2: the pair (r-bar, r) IS
        # conjugate, so this contracts with coefficient q^(-1/2)
        ctx = chain.context
        v4 = concat(loop_vector(chain, rr), loop_vector(chain, rr))
        out = cap(v4, 2)
        ((l, c),) = out.terms.items()
        assert l.edge_ids() == (("r", 0), ("l", 1))
        assert c == coeff_of(chain, ctx.exact(q=Fraction(-1, 2)))

    def test_cap_annihilates_nonconjugate(self, chain, rr, ll):
        v4 = concat(loop_vector(chain, rr), loop_vector(chain, ll))
        assert cap(v4, 2).is_zero()

    def test_cap_cup_is_delta(self, chain):
        ctx = chain.context
        v = cap(cup(chain, loop_vector(chain, Path.empty(ctx, 0)), 0), 1)
        ((l, c),) = v.terms.items()
        assert l.edges == ()
        assert c == coeff_of(chain, ctx.exact(q=1)) + coeff_of(chain, ctx.exact(q=-1))
        assert c.value().real == pytest.approx(chain.delta)

    def test_index_out_of_range(self, chain, rr):
        with pytest.raises(IndexError):
            cap(loop_vector(chain, rr), 2)
        with pytest.raises(IndexError):
            cap(zero_vector(chain, 0), 1)


def _delta_coefficient(graph):
    total = Coefficient.zero(graph.context)
    for e in graph.out_edges(graph.basepoint):
        total = total + Coefficient.of_weight(e.weight)
    return total


GRAPHS = ["chain", "dchain", "grid23", "cycle3"]


class TestRelations:
    @pytest.mark.parametrize("name", GRAPHS)
    @pytest.mark.parametrize("n", range(0, 5))
    def test_delooping_and_zigzag(self, request, name, n):
        g = request.getfixturevalue(name)
        dv = _delta_coefficient(g)
        for v in basis(g, n):
            for i in range(0, n + 1):
                up = cup(g, v, i)
                assert cap(up, i + 1).eq(v.scaled(dv))
                if i >= 1:
                    assert cap(up, i).eq(v)
                if i <= n - 1:
                    assert cap(up, i + 2).eq(v)

    @pytest.mark.parametrize("n", [0, 2])
    def test_delooping_float_mode(self, deformed, n):
        # site-dependent float weights: relations hold within 1e-9 relative
        for v in basis(deformed, n):
            (l,) = v.terms
            for i in range(0, n + 1):
                at = l.edges[i - 1].target if i else l.start
                dv = Coefficient.zero(deformed.context)
                for e in deformed.out_edges(at):
                    dv = dv + Coefficient.of_weight(e.weight)
                up = cup(deformed, v, i)
                assert cap(up, i + 1).eq(v.scaled(dv))
                if i >= 1:
                    assert cap(up, i).eq(v)
                if i <= n - 1:
                    assert cap(up, i + 2).eq(v)

    @pytest.mark.parametrize("name", GRAPHS)
    @pytest.mark.parametrize("n", range(0, 7))
    def test_star_involution(self, request, name, n):
        g = request.getfixturevalue(name)
        for v in basis(g, n):
            assert star(g, star(g, v)).eq(v)

    def test_star_example_double_chain(self, dchain):
        ctx = dchain.context
        l = next(
            l
            for l in enumerate_loops(dchain, 2)
            if l.edge_ids() == (("a+", 0), ("b-", 1))
        )
        s = star(dchain, loop_vector(dchain, l))
        ((lbar, c),) = s.terms.items()
        assert lbar.edge_ids() == (("b+", 0), ("a-", 1))
        assert c == Coefficient.of_weight(ctx.exact({"a": Fraction(-1, 2), "b": Fraction(1, 2)}))

    def test_star_unit_weight_loop(self, chain, rr):
        s = star(chain, loop_vector(chain, rr))
        ((lbar, c),) = s.terms.items()
        assert c == Coefficient.one(chain.context)
        assert lbar.edge_ids() == (("r", 0), ("l", 1))

    def test_star_antihomomorphism(self, dchain):
        for u in basis(dchain, 2):
            for v in basis(dchain, 2):
                lhs = star(dchain, concat(u, v))
                rhs = concat(star(dchain, v), star(dchain, u))
                assert lhs.eq(rhs)

    def test_concat_unit(self, dchain):
        ctx = dchain.context
        unit = loop_vector(dchain, Path.empty(ctx, 0))
        for v in basis(dchain, 2):
            assert concat(unit, v).eq(v)
            assert concat(v, unit).eq(v)


class TestRelationSuite:
    @pytest.mark.parametrize(
        "name", GRAPHS + ["cycle4_flat", "deformed"]
    )
    def test_every_record_passes(self, request, name):
        g = request.getfixturevalue(name)
        records = list(relations(g, 6))
        names = [rec[0] for rec in records]
        assert names.count("star-involution") == 7
        assert names.count("delooping") == names.count("zigzag") == 5
        assert names.count("gram") == names.count("modular-relation") >= 2
        for rec in records:
            assert rec[2] and rec[3] is None, rec

    def test_order_and_bounds(self, chain):
        # odd lengths have no loops on the chain, so no gram/modular records
        got = [(name, n) for name, n, _, _ in relations(chain, 4)]
        full = ["delooping", "zigzag", "star-involution", "gram", "modular-relation"]
        assert got == (
            [(name, 0) for name in full]
            + [("delooping", 1), ("zigzag", 1), ("star-involution", 1)]
            + [(name, 2) for name in full]
            + [("star-involution", 3), ("star-involution", 4)]
        )

    def test_gram_checks_off_diagonal_pairs(self, monkeypatch):
        # a cap rule that also contracts any edge pair running back to where
        # it began, conjugate or not, pairs distinct loops of double_chain(2, 3)
        # (a out and b back against b out and a back), so the Gram matrix
        # gains off-diagonal entries
        g = double_chain(2, 3)
        assert all(passed for _, _, passed, _ in relations(g, 4))
        contraction = loop_algebra._contraction

        def returning(e1, e2, table):
            got = contraction(e1, e2, table)
            a, b = table.edges[e1], table.edges[e2]
            if got is None and (a.source, a.target) == (b.target, b.source):
                return table.sqrt[e1]
            return got

        monkeypatch.setattr(loop_algebra, "_contraction", returning)
        failed = [(name, n) for name, n, passed, _ in relations(g, 4) if not passed]
        assert failed == [("zigzag", 2), ("gram", 2), ("modular-relation", 2)]
        off = [(i, j, left) for i, j, left, _, _ in _inner_pairs(g, basis(g, 2)) if i != j]
        assert any(not left.is_zero() for _, _, left in off)


class TestEquality:
    def test_exact_coefficients_compare_terms(self):
        # a^2 and b have the same value, but they are different monomials
        ctx = GeneratorContext((("a", 2.0), ("b", 4.0)), 1e-9)
        a2 = Coefficient.of_weight(ctx.gen("a", 2))
        b = Coefficient.of_weight(ctx.gen("b"))
        assert a2.isclose(b)
        assert not a2.eq(b)
        assert a2.eq(Coefficient.of_weight(ctx.gen("a")) * Coefficient.of_weight(ctx.gen("a")))

    def test_float_coefficients_use_tolerance(self):
        ctx = GeneratorContext((("a", 2.0),), 1e-9)
        exact = Coefficient.of_weight(ctx.gen("a"))
        assert exact.eq(Coefficient.of_weight(ctx.float_weight(2.0 * (1 + 1e-12))))
        assert Coefficient.of_weight(ctx.float_weight(2.0)).eq(exact)
        assert not exact.eq(Coefficient.of_weight(ctx.float_weight(2.001)))
        two = Coefficient.of_weight(ctx.float_weight(2.0))
        assert (-two).eq(Coefficient.of_weight(ctx.float_weight(2.0), -1)) and (two + -two).is_zero()

    def test_vector_eq(self, deformed):
        ctx = deformed.context
        v, w = basis(deformed, 2)[:2]
        near = v.scaled(Coefficient.of_weight(ctx.float_weight(1 + 1e-12)))
        assert near.terms != v.terms
        assert near.eq(v) and v.eq(near)
        assert not v.scaled(Coefficient.of_weight(ctx.float_weight(2.0))).eq(v)
        # an absent loop counts as a zero coefficient
        assert (v + w.scaled(Coefficient.of_weight(ctx.float_weight(1e-12)))).eq(v)
        assert not v.eq(zero_vector(deformed, 2)) and not v.eq(zero_vector(deformed, 4))

    def test_constructor_drops_zero_terms(self, chain, rr):
        zero = Coefficient.zero(chain.context)
        v = loop_vector(chain, rr, zero)
        assert v.is_zero() and not v.terms
        assert v == loop_vector(chain, rr, zero) and v.eq(loop_vector(chain, rr, zero))
        assert v == zero_vector(chain, 2)


class TestInner:
    @pytest.mark.parametrize("name", GRAPHS)
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_gram_matrices(self, request, name, n):
        g = request.getfixturevalue(name)
        loops = enumerate_loops(g, n)
        for lf in loops:
            f = loop_vector(g, lf)
            for lg in loops:
                h = loop_vector(g, lg)
                left = inner(g, f, h, "left")
                right = inner(g, f, h, "right")
                if lf == lg:
                    assert left == Coefficient.one(g.context)
                    assert right == Coefficient.of_weight(lf.weight.inverse())
                else:
                    assert left.is_zero()
                    assert right.is_zero()

    def test_zero_vector(self, dchain):
        z = zero_vector(dchain, 2)
        v = basis(dchain, 2)[0]
        assert inner(dchain, z, v, "left").is_zero()
        assert inner(dchain, v, z, "right").is_zero()

    def test_length_mismatch(self, dchain):
        with pytest.raises(ValueError):
            inner(dchain, zero_vector(dchain, 2), zero_vector(dchain, 4), "left")
        with pytest.raises(ValueError, match="length mismatch"):
            zero_vector(dchain, 2) + zero_vector(dchain, 4)
        with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
            inner(dchain, zero_vector(dchain, 2), zero_vector(dchain, 2), "middle")


class TestModularSpectrum:
    def test_length_zero(self, dchain):
        sp = modular_spectrum(dchain, 0)
        assert sp.eigenvalues == ((dchain.context.identity(), 1),)

    def test_double_chain_n2(self, dchain):
        sp = modular_spectrum(dchain, 2)
        got = {w.text(): m for w, m in sp.eigenvalues}
        assert got == {"1": 4, "a^1 * b^-1": 2, "a^-1 * b^1": 2}
        assert sp.verified
        assert sp.total_multiplicity == 8

    @pytest.mark.parametrize("n", range(0, 7))
    def test_chain_all_ones(self, chain, n):
        sp = modular_spectrum(chain, n)
        assert sp.is_trivial()

    def test_modular_relation_holds(self, dchain):
        for f in basis(dchain, 2):
            df = apply_modular(f)
            for h in basis(dchain, 2):
                assert inner(dchain, f, h, "left") == inner(dchain, df, h, "right")

    @pytest.mark.parametrize(
        "name", GRAPHS + ["cycle4_flat", "deformed"]
    )
    def test_tracial_equivalence(self, request, name):
        # spectrum all-1 at every n <= 6 iff the radius-6 ball is tracial
        g = request.getfixturevalue(name)
        all_trivial = all(
            modular_spectrum(g, n, verify=False).is_trivial() for n in range(7)
        )
        assert all_trivial == bool(vertex_weighting(g, 6))

    def test_default_verification_limit(self, grid23):
        assert VERIFY_LIMIT == 256
        assert modular_spectrum(grid23, 4).verified  # 36 loops
        sp = modular_spectrum(grid23, 6)  # 400 loops
        assert sp.total_multiplicity > VERIFY_LIMIT and not sp.verified

    def test_float_mode_spectrum(self, deformed):
        sp = modular_spectrum(deformed, 2)
        assert sp.is_trivial()
        assert sp.verified


def _mixed_grid():
    """A grid ball read back with float b weights: exact and float edges."""
    text = serialize_graph(grid(2, 3), 4)
    text = text.replace(" weight b^1 ", " weight 3 ")
    text = text.replace(" weight b^-1 ", " weight 0.33333333333333331 ")
    return parse_graph(text).graph


ORACLE_GRAPHS = {
    "single_chain": lambda: single_chain(2),
    "double_chain": lambda: double_chain(2, 3),
    "grid": lambda: grid(2, 3),
    "cycle": lambda: cycle(3, 2),
    "cayley": lambda: cayley((2, 3)),
    "deformed_chain": lambda: deformed_chain(1.05, 0.3),
    "mixed_file": _mixed_grid,
}


class TestMixedWeights:
    def test_loop_weight_readings_match_path_weight(self):
        # star, the modular operator and the Gram check's w(l)^-1 multiply
        # the edges' w(e)^(1/2); with exact and float edges in one loop they
        # agree with Path.weight within tolerance
        g = _mixed_grid()
        for n in range(5):
            for l, v in zip(enumerate_loops(g, n), basis(g, n)):
                w = l.weight
                (s,) = star(g, v).terms.values()
                assert s.isclose(Coefficient.of_weight(w.inverse().sqrt()))
                assert star(g, star(g, v)).eq(v)
                (d,) = apply_modular(v).terms.values()
                assert d.isclose(Coefficient.of_weight(w))
                r = s  # the Gram check squares the star coefficient
                assert (r * r).isclose(Coefficient.of_weight(w.inverse()))
        assert all(passed for _, _, passed, _ in relations(g, 4))

    def test_cancelled_float_terms_read_as_the_loop_value(self):
        # cap leaves (-2 a^-1/2 + a^1/2) [e1 e8], whose value is 0 at a = 2;
        # on a table that has met a float the loop reads as that value, as
        # a sum of Coefficients would, not as a nonzero exact sum
        g = _mixed_grid()
        loops = {l.edge_ids(): l for l in enumerate_loops(g, 4)}
        one = g.context.identity()
        v = zero_vector(g, 4)
        for ids, k in ((("e3", "e16", "e30", "e5"), -1), (("e1", "e8", "e1", "e8"), -2),
                       (("e1", "e9", "e32", "e8"), 1)):
            v = v + loop_vector(g, loops[ids], Coefficient.of_weight(one, k))
        got = cap(v, 2)
        ((l, c),) = got.terms.items()
        assert l.edge_ids() == ("e1", "e8")
        assert not c.is_exact and c.eq(Coefficient.zero(g.context))
        assert got.eq(zero_vector(g, 2))


class TestOracles:
    @pytest.mark.parametrize("name", ORACLE_GRAPHS)
    def test_walk_counts_match_enumeration(self, name):
        g = ORACLE_GRAPHS[name]()
        for n in range(9):
            loops = enumerate_loops(g, n)
            counts = loop_weight_counts(g, n)
            assert Counter(dict(counts)) == Counter(l.weight for l in loops)
            want = group_weights((l.weight, 1) for l in loops)
            got = modular_spectrum(g, n, verify=False).eigenvalues
            assert got == want
            assert [(w.text(), m) for w, m in got] == [(w.text(), m) for w, m in want]

    @pytest.mark.parametrize("name", ORACLE_GRAPHS)
    def test_trie_rows_match_pairwise_inner(self, name):
        # every pair of every basis up to n = 4 (at most 96 loops); a pair
        # the walk does not yield must be zero on all three sides
        g = ORACLE_GRAPHS[name]()
        zero = Coefficient.zero(g.context)
        for n in range(5):
            vecs = basis(g, n)
            assert len(vecs) <= 100
            got = {(i, j): list(rest) for i, j, *rest in _inner_pairs(g, vecs)}
            for i, f in enumerate(vecs):
                df = apply_modular(f)
                for j, h in enumerate(vecs):
                    want = [inner(g, f, h, "left"), inner(g, f, h, "right"),
                            inner(g, df, h, "right")]
                    assert got.pop((i, j), [zero] * 3) == want, (n, i, j)
            assert not got

    @pytest.mark.parametrize("name", ORACLE_GRAPHS)
    def test_loop_weight_group_matches_enumeration(self, name):
        g = ORACLE_GRAPHS[name]()
        identity = g.context.identity()
        weights = []
        for max_len in range(7):
            if max_len:
                loops = enumerate_loops(g, max_len)
                weights += [l.weight for l in loops if not l.weight.eq(identity)]
            got = loop_weight_group(g, max_len).generators
            assert got == reduce_generators(weights, g.context)


class TestEdgeTables:
    def test_terms_round_trip_edge_ids(self, dchain):
        loops = enumerate_loops(dchain, 2)
        vecs = basis(dchain, 2)
        assert [next(iter(v.terms)).edge_ids() for v in vecs] == [l.edge_ids() for l in loops]
        for l, v in zip(loops, vecs):
            ((got, c),) = v.terms.items()
            assert got == l and got.start == l.start
            assert c == Coefficient.one(dchain.context)
            assert l in v.terms and v.terms[l] is c
        with pytest.raises(KeyError):
            vecs[0].terms[loops[1]]
        c = Coefficient.of_weight(dchain.context.gen("a"))
        v = loop_vector(dchain, loops[1], c) + loop_vector(dchain, loops[3], c)
        assert {l.edge_ids() for l in v.terms} == {loops[1].edge_ids(), loops[3].edge_ids()}
        assert v.eq(vecs[1].scaled(c) + vecs[3].scaled(c))

    def test_vectors_of_different_graphs_do_not_combine(self, dchain):
        b = ball(dchain, 3)
        from_graph, from_ball = basis(dchain, 2), basis(b, 2)
        u, w = from_graph[1], from_ball[1]
        mixes = [
            lambda: u + w, lambda: w + u, lambda: u.eq(w), lambda: w.eq(u), lambda: u == w,
            lambda: concat(u, w), lambda: concat(w, u),
            lambda: cup(dchain, w, 0), lambda: cup(b, u, 0),
            lambda: star(dchain, w), lambda: star(b, u),
            lambda: inner(dchain, u, w, "left"), lambda: inner(dchain, w, u, "right"),
            lambda: inner(b, w, u, "left"), lambda: list(_inner_pairs(dchain, from_ball)),
        ]
        for mix in mixes:
            with pytest.raises(ValueError, match="different graphs"):
                mix()
        # the ball's own maps read back the loops the graph's maps give
        for u, w in zip(from_graph, from_ball):
            assert star(b, w).terms == star(dchain, u).terms
            for i in range(3):
                assert cup(b, w, i).terms == cup(dchain, u, i).terms
        uv = concat(from_ball[0], from_ball[1])
        assert uv.terms == concat(from_graph[0], from_graph[1]).terms
        ((l, _),) = uv.terms.items()
        assert l.edge_ids() == _loop_ids(from_graph[0]) + _loop_ids(from_graph[1])

    @pytest.mark.parametrize("path", ["empty-at-1", "r-from-0-to-1"])
    def test_vectors_hold_based_loops_only(self, chain, path):
        ctx = chain.context
        if path == "empty-at-1":
            l = Path.empty(ctx, 1)
        else:
            l = Path.of(ctx, 0, [e for e in chain.out_edges(0) if e.eid == ("r", 0)])
        with pytest.raises(ValueError, match="not a loop at the basepoint 0"):
            loop_vector(chain, l)

    @pytest.mark.parametrize("name, radius, error", [
        pytest.param(name, radius, error, id=name + ("" if radius is None else "-ball%d" % radius))
        for radius in (None, 3) for name, error in (
            ("wrong-endpoints.dg", "not found at 1"),
            ("self-conjugate.dg", "not found at 1"),
            ("skew.dg", "edges 'e0' / 'e1' are not a conjugate pair"),
        )
    ])
    def test_conjugates_come_from_the_graph(self, name, radius, error):
        # each file names a conjugate that is not an edge back from the
        # target; pairing conjugates by id alone once certified its spectrum,
        # on the graph and on its balls
        with open(os.path.join(os.path.dirname(__file__), "golden", name)) as fh:
            g = parse_graph(fh.read()).graph
        if radius is not None:
            g = ball(g, radius)
        with pytest.raises(GraphConstructionError, match=error):
            modular_spectrum(g, 4, verify=True)

    def test_conjugate_pair_must_be_mutual(self):
        # e0's conjugate e1 names e2 as its own conjugate
        ctx = GeneratorContext((), 1e-9)
        one = ctx.identity()
        out = {0: (Edge("e0", 0, 1, one, "e1"),),
               1: (Edge("e1", 1, 0, one, "e2"), Edge("e2", 1, 0, one, "e1"))}
        g = DeltaGraph(2, ctx, 0, out.__getitem__)
        with pytest.raises(ValueError, match="edges 'e0' / 'e1' are not a conjugate pair"):
            basis(g, 2)

    def test_edge_id_names_one_edge(self):
        # 'a' is the edge 0 -> 1 and also a self-loop at 1
        ctx = GeneratorContext((), 1e-9)
        one = ctx.identity()
        a, b, a_loop = Edge("a", 0, 1, one, "b"), Edge("b", 1, 0, one, "a"), Edge("a", 1, 1, one, "a")
        out = {0: (a,), 1: (b, a_loop)}
        g = DeltaGraph(2, ctx, 0, out.__getitem__)
        with pytest.raises(ValueError, match="^edge id 'a' names two different edges$"):
            loop_vector(g, Path.of(ctx, 0, [a, a_loop, b]))

    def test_coefficient_memo_follows_the_table(self):
        # one coefficient scales vectors of two graphs, where a cup on the
        # second has first interned other monomials, then the first again
        g1, g2 = double_chain(2, 3), double_chain(2, 3)
        ctx = g1.context
        c = Coefficient.of_weight(ctx.gen("a")) + Coefficient.of_weight(ctx.gen("b", -1), 2)
        u, w = basis(g1, 2)[0], basis(g2, 2)[1]
        assert not cup(g2, cup(g2, w, 0), 1).is_zero()
        for v in (u, w, u):
            ((l, _),) = v.terms.items()
            assert v.scaled(c).terms == {l: c}
            assert v.scaled(c).scaled(c).terms == {l: c * c}

    def test_scaled_checks_the_coefficient_context(self):
        v = basis(single_chain(2), 2)[0]
        other = GeneratorContext((("x", 5.0),))
        for c in (Coefficient.of_weight(other.gen("x", 3)),
                  Coefficient.of_weight(other.float_weight(3.0))):
            with pytest.raises(ContextMismatchError):
                v.scaled(c)

    def test_frontier_anchor_raises_on_every_call(self, chain):
        b = ball(chain, 1)
        v = basis(b, 2)[0]
        assert not cup(b, v, 0).is_zero()  # the basepoint's rows are memoized
        for _ in range(2):
            with pytest.raises(ValueError, match="truncated"):
                cup(b, v, 1)


def _loop_ids(v):
    (l,) = v.terms
    return l.edge_ids()


def _power_chain(k, fair=True):
    """A chain with every rightward weight q^k and leftward q^-k; a digit of
    q that carried would show as a power of p.  q is 2^(1/k) as a float, so
    q^k stays finite (about 2, or 1 where q rounds to 1.0) and the chain is
    fair at delta = q^k + q^-k.  Unless ``fair``: then q is 2, past the
    float range at these k, and delta is 3."""
    ctx = GeneratorContext((("q", 2.0 ** (1 / k) if fair else 2.0), ("p", 3.0)), 1e-9)
    wq = ctx.gen("q", k)
    wqi = wq.inverse()

    def out(m):
        return (Edge(("l", m), m, m - 1, wqi, ("r", m - 1)),
                Edge(("r", m), m, m + 1, wq, ("l", m + 1)))

    return DeltaGraph(wq.value + wqi.value if fair else 3.0, ctx, 0, out)


class TestVectorPackingBound:
    """Loop vectors whose w(e)^(1/2) have exponents near and past 2^31 and
    2^63 stay exact, as coefficients do in
    ``test_exact_core.TestPackingBound``: no product of cup, cap, star or
    the trie walks rounds an exponent or mixes two generators."""

    @pytest.mark.parametrize("k", [2 ** 31 - 1, 2 ** 63])
    def test_huge_exponent_chain(self, k):
        g = _power_chain(k)
        assert all(passed for _, _, passed, _ in relations(g, 4))
        for n in range(5):
            vecs = basis(g, n)
            for v in vecs:
                assert star(g, star(g, v)) == v
            for i, j, _, right, _ in _inner_pairs(g, vecs):
                if i == j:
                    (l,) = vecs[i].terms
                    assert right.text() == Coefficient.of_weight(l.weight.inverse()).text()
        up = cup(g, basis(g, 0)[0], 0)
        want = ["q^%s" % Fraction(k, 2), "q^%s" % Fraction(-k, 2)]
        assert sorted(c.text() for c in up.terms.values()) == sorted(want)
        delta = Coefficient.of_weight(g.context.gen("q", k)) + Coefficient.of_weight(
            g.context.gen("q", -k))
        for v in basis(g, 2):
            for i in range(3):
                (c,) = cap(cup(g, v, i), i + 1).terms.values()
                assert c.text() == delta.text()

    @pytest.mark.parametrize("k", [2 ** 31 - 1, 2 ** 63])
    def test_unfair_huge_exponent_chain_fails_delooping(self, k):
        # the anchor sums q^k + q^-k are compared with delta through logs,
        # so delooping fails where their values would overflow
        recs = {(name, n): (passed, detail)
                for name, n, passed, detail in relations(_power_chain(k, fair=False), 2)}
        assert recs["delooping", 0] == (
            False, "  anchor 0: outgoing sum q^-%d + q^%d != delta 3.0" % (k, k))
        assert recs["zigzag", 0] == (True, None)


@pytest.mark.parametrize("k", [2 ** 31 - 1, 2 ** 63])
def test_fairness_compares_sums_through_logs(k):
    # validate sums the out-weights in the log domain, as delooping does:
    # the fair chain passes, and the unfair one, whose q^k is past the float
    # range, fails with its sum shown as inf instead of raising
    assert validate(_power_chain(k), 3).check("fairness").passed
    fair = validate(_power_chain(k, fair=False), 3).check("fairness")
    assert not fair.passed
    assert fair.details[0] == "vertex 0: outgoing sum inf != delta 3"


def test_fairness_fails_a_sum_whose_log_is_nan():
    # q^N and q^-N have logs +inf and -inf, so their sum is past the float
    # range; validate and delooping share one rule, and neither calls it fair
    ctx = GeneratorContext((("q", 1e5),), 1e-9)
    up, dn = ctx.gen("q", 10 ** 308), ctx.gen("q", -10 ** 308)
    out = {0: (Edge("e0", 0, 1, up, "e1"), Edge("e2", 0, 1, dn, "e3")),
           1: (Edge("e1", 1, 0, dn, "e0"), Edge("e3", 1, 0, up, "e2"))}
    g = DeltaGraph(2, ctx, 0, out.__getitem__, declared_vertices=(0, 1))
    fair = validate(g, 2).check("fairness")
    assert not fair.passed
    assert fair.details[0] == "vertex 0: outgoing sum inf != delta 2"
    recs = {(name, n): passed for name, n, passed, _ in relations(g, 2)}
    assert recs["delooping", 0] is False


class TestFloatOverflow:
    def test_cup_and_cap_products_raise(self):
        # w(e)^(1/2) is 1e100, and the loops carry 1e250: a product past the
        # float range raises, as a Coefficient product does (the CLI's exit
        # status 3 for a cap sum is in test_cli)
        g = parse_graph(
            "delta-graph v1\ndelta 2.5\nvertex 0\nvertex 1\n"
            "edge e0 0 1 weight 1e200 conjugate e1\nedge e1 1 0 weight 1e-200 conjugate e0\n"
            "basepoint 0\n"
        ).graph
        big = Coefficient.of_weight(g.context.float_weight(1e250))
        empty, there_and_back = enumerate_loops(g, 0)[0], enumerate_loops(g, 2)[0]
        with pytest.raises(OverflowError, match="outside the float range"):
            cup(g, loop_vector(g, empty, big), 0)
        with pytest.raises(OverflowError, match="outside the float range"):
            cap(loop_vector(g, there_and_back, big), 1)
        ((_, c),) = cap(loop_vector(g, there_and_back), 1).terms.items()
        assert c.isclose(Coefficient.of_weight(g.context.float_weight(1e100)))

    def test_every_map_raises_past_the_float_range(self):
        # loops through the parallel edges e0 (1e200) and e1 (1) carry
        # w(l)^(1/2) = 1e100 or 1e-100: past the float range on the scalar
        # 1e250, cup, cap, star and scaled raise instead of keeping inf
        g = parse_graph(
            "delta-graph v1\ndelta 2.5\nvertex 0\nvertex 1\n"
            "edge e0 0 1 weight 1e200 conjugate e2\nedge e1 0 1 weight 1 conjugate e3\n"
            "edge e2 1 0 weight 1e-200 conjugate e0\nedge e3 1 0 weight 1 conjugate e1\n"
            "basepoint 0\n"
        ).graph
        big = Coefficient.of_weight(g.context.float_weight(1e250))
        loops = {l.edge_ids(): l for l in enumerate_loops(g, 2)}
        empty = loop_vector(g, enumerate_loops(g, 0)[0], big)
        there_and_back = loop_vector(g, loops["e0", "e2"], big)
        down_only = loop_vector(g, loops["e1", "e2"], big)  # star reads e0 e3: 1e100
        for make in (lambda: cup(g, empty, 0), lambda: cap(there_and_back, 1),
                     lambda: star(g, down_only), lambda: empty.scaled(big)):
            with pytest.raises(OverflowError, match="outside the float range"):
                make()

    def test_modular_check_raises_on_a_loop_weight_past_the_float_range(self):
        # once round the 4-cycle weighs 1e648: its w(l)^(1/2) is inf and its
        # star term 1e-324 underflows to 0.0, so the trie walk raises on the
        # inf Delta term, as apply_modular does, instead of reading 0.0 * inf
        g = parse_graph(
            "delta-graph v1\ndelta 1e162\nvertex 0\nvertex 1\nvertex 2\nvertex 3\n"
            + "".join("edge a%d %d %d weight 1e162 conjugate b%d\n" % (k, k, (k + 1) % 4, k)
                      + "edge b%d %d %d weight 1e-162 conjugate a%d\n" % (k, (k + 1) % 4, k, k)
                      for k in range(4))
            + "basepoint 0\n"
        ).graph
        vecs = basis(g, 4)
        for make in (lambda: apply_modular(vecs[0]), lambda: list(_inner_pairs(g, vecs)),
                     lambda: list(relations(g, 8))):
            with pytest.raises(OverflowError, match=r"^coefficient inf is outside the float range"):
                make()


def _signed_sum(g, n):
    """The basis of length n, the k-th vector scaled by (-1)^k (k + 1)."""
    one = g.context.identity()
    v = zero_vector(g, n)
    for k, b in enumerate(basis(g, n)):
        v = v + b.scaled(Coefficient.of_weight(one, (-1) ** k * (k + 1)))
    return v


class TestOnePassMaps:
    """cup and star store each term, cap and scaled sum into an entry that
    is already there; every map ends in the LoopVector constructor, which
    drops zero scalars and checks the float range."""

    def test_cap_whose_terms_cancel_is_zero(self, cycle4_flat):
        # on the flat 4-cycle every monomial is the identity, so the two
        # loops that contract at position 2 to (b0, f3) cancel
        g = cycle4_flat
        loops = {l.edge_ids(): l for l in enumerate_loops(g, 4)}
        one = Coefficient.one(g.context)
        minus = Coefficient.of_weight(g.context.identity(), -1)
        v = (loop_vector(g, loops[("b", 0), ("f", 3), ("b", 0), ("f", 3)], one)
             + loop_vector(g, loops[("b", 0), ("b", 3), ("f", 2), ("f", 3)], minus))
        got = cap(v, 2)
        assert got.keyed == {} and got.is_zero()
        assert got == zero_vector(g, 2) and got.eq(zero_vector(g, 2))

    def test_scaled_whose_terms_cancel_keeps_no_zero(self, chain, rr):
        # (q + q^-1)(q - q^-1) = q^2 - q^-2: the two identity terms cancel
        ctx = chain.context
        q, qi = ctx.gen("q", 1), ctx.gen("q", -1)
        v = loop_vector(chain, rr, Coefficient.of_weight(q) + Coefficient.of_weight(qi))
        got = v.scaled(Coefficient.of_weight(q) + Coefficient.of_weight(qi, -1))
        want = loop_vector(chain, rr, Coefficient.of_weight(ctx.gen("q", 2))
                           + Coefficient.of_weight(ctx.gen("q", -2), -1))
        assert all(got.keyed.values()) and len(got.keyed) == 2
        assert not got.is_zero()
        assert got == want and got.eq(want)

    def test_star_and_cap_texts_on_float_tables(self, deformed):
        # the float read-outs keep their last digits: each term is
        # multiplied and summed in one fixed order
        g = deformed
        v2, v4 = _signed_sum(g, 2), _signed_sum(g, 4)
        assert format_vector(star(g, v4)).splitlines() == [
            "(0.99999999999999989) ('l', 0) ('l', -1) ('r', -2) ('r', -1)",
            "(-1.9999999999999993) ('l', 0) ('r', -1) ('l', 0) ('r', -1)",
            "(-3.9999999999999987) ('l', 0) ('r', -1) ('r', 0) ('l', 1)",
            "(2.9999999999999991) ('r', 0) ('l', 1) ('l', 0) ('r', -1)",
            "(4.9999999999999982) ('r', 0) ('l', 1) ('r', 0) ('l', 1)",
            "(-6.0000000000000018) ('r', 0) ('r', 1) ('l', 2) ('l', 1)",
        ]
        assert format_vector(cap(v4, 2)).splitlines() == [
            "(-0.99809667604997898) ('l', 0) ('r', -1)",
            "(-1.0175881655886725) ('r', 0) ('l', 1)",
        ]
        assert format_vector(cap(cup(g, v2, 1), 2)).splitlines() == [
            "(2.0023809523809524) ('l', 0) ('r', -1)",
            "(-4.0047619047619047) ('r', 0) ('l', 1)",
        ]
        h = parse_graph(  # a chain of two 1e200 edges
            "delta-graph v1\ndelta 2.5\nvertex 0\nvertex 1\nvertex 2\n"
            "edge e0 0 1 weight 1e200 conjugate e2\nedge e1 1 2 weight 1e200 conjugate e3\n"
            "edge e2 1 0 weight 1e-200 conjugate e0\nedge e3 2 1 weight 1e-200 conjugate e1\n"
            "basepoint 0\n"
        ).graph
        w2, w4 = _signed_sum(h, 2), _signed_sum(h, 4)
        assert format_vector(star(h, w4)) == "(1) e0 e1 e3 e2\n(-2) e0 e2 e0 e2"
        assert format_vector(cap(w4, 2)) == "(1e+100) e0 e2"
        assert format_vector(cap(cup(h, w2, 1), 2)) == "(9.9999999999999997e+199) e0 e2"
        assert format_vector(cap(cup(h, w2, 2), 1)) == "(9.9999999999999997e+199) e0 e2"
