"""Weight arithmetic: group laws, square roots, equality semantics,
text round-trips, and generator reduction."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from deltagraph.weights import (
    ContextMismatchError,
    GeneratorContext,
    WeightFormatError,
    _lattice_basis,
    group_weights,
    parse_weight,
    reduce_generators,
)

CTX = GeneratorContext((("q", 2.0),))
CTX2 = GeneratorContext((("a", 2.0), ("b", 3.0)))

exponents = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)
vectors = st.tuples(exponents, exponents)


def w2(ea, eb):
    return CTX2.exact({"a": ea, "b": eb})


class TestGroupLaws:
    @given(vectors, vectors, vectors)
    def test_associative(self, u, v, w):
        a, b, c = w2(*u), w2(*v), w2(*w)
        assert (a * b) * c == a * (b * c)

    @given(vectors)
    def test_identity(self, u):
        a = w2(*u)
        assert a * CTX2.identity() == a
        assert CTX2.identity() * a == a

    @given(vectors)
    def test_inverse(self, u):
        a = w2(*u)
        assert a * a.inverse() == CTX2.identity()

    @given(vectors, vectors)
    def test_commutative(self, u, v):
        assert w2(*u) * w2(*v) == w2(*v) * w2(*u)


class TestSqrt:
    @given(vectors)
    def test_sqrt_squares_back(self, u):
        a = w2(*u)
        assert a.sqrt() * a.sqrt() == a

    def test_examples(self):
        assert CTX.exact(q=2).sqrt() == CTX.exact(q=1)
        assert w2(1, -1).sqrt() == w2(Fraction(1, 2), Fraction(-1, 2))
        f = CTX.float_weight(4.0)
        assert abs(f.sqrt().value - 2.0) < 1e-12

    @given(vectors, vectors)
    def test_mode_coherence(self, u, v):
        # evaluating then multiplying agrees with multiplying then evaluating
        a, b = w2(*u), w2(*v)
        prod = CTX2.float_weight(a.value) * CTX2.float_weight(b.value)
        want = (a * b).value
        assert abs(prod.value - want) <= 1e-12 * max(prod.value, want)


class TestEquality:
    def test_exact_is_exponentwise(self):
        assert CTX.exact(q=1).eq(CTX.exact(q=1))
        assert not CTX.exact(q=1).eq(CTX.exact(q=2))

    def test_float_tolerance(self):
        ctx = GeneratorContext((), tolerance=1e-6)
        assert ctx.float_weight(1.0000000001).eq(ctx.float_weight(1.0))
        assert not ctx.float_weight(1.1).eq(ctx.float_weight(1.0))

    def test_mul_examples(self):
        half = CTX.exact(q=Fraction(1, 2))
        assert half * half == CTX.exact(q=1)
        assert w2(1, -1) * w2(-1, 1) == CTX2.identity()
        ctx = GeneratorContext(())
        assert (ctx.float_weight(2.0) * ctx.float_weight(0.5)).eq(ctx.identity())

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            CTX.exact(q=1) * CTX2.exact(a=1)
        with pytest.raises(ContextMismatchError):
            CTX.exact(q=1).eq(CTX2.exact(a=1))

    def test_exact_weights_compare_as_monomials(self):
        # a = b: equal values, distinct exact weights; a float is near both
        ctx = GeneratorContext((("a", 2.0), ("b", 2.0)))
        a, b = ctx.gen("a"), ctx.gen("b")
        assert not a.eq(b) and not (a.inverse() * b).is_identity()
        assert ctx.float_weight(2.0).eq(a) and ctx.float_weight(2.0).eq(b)
        assert ctx.float_weight(1.0).is_identity()

    def test_exact_against_float_past_the_float_range(self):
        # compared through log_value, so q^1100 (value past the float range)
        # is unequal to a float instead of raising OverflowError
        huge = CTX.gen("q", 1100)
        assert not huge.eq(CTX.float_weight(2.0))
        assert not CTX.float_weight(2.0).eq(huge)
        assert not huge.is_identity() and not huge.inverse().is_identity()


class TestText:
    def test_exact_forms(self):
        assert CTX2.identity().text() == "1"
        assert w2(1, -1).text() == "a^1 * b^-1"
        assert CTX.exact(q=Fraction(1, 2)).text() == "q^1/2"
        assert CTX.exact(q=Fraction(-3, 2)).text() == "q^-3/2"

    @given(vectors)
    def test_roundtrip(self, u):
        a = w2(*u)
        assert parse_weight(a.text(), CTX2) == a

    def test_float_17_digits(self):
        ctx = GeneratorContext(())
        w = ctx.float_weight(2.0 / 3.0)
        assert w.text() == "0.66666666666666663"
        assert parse_weight(w.text(), ctx).value == w.value

    def test_parse_half_exponent(self):
        w = parse_weight("q^1/2", CTX)
        assert w.exponents == (("q", Fraction(1, 2)),)

    def test_parse_errors(self):
        with pytest.raises(WeightFormatError):
            parse_weight("z^1", CTX)
        with pytest.raises(WeightFormatError):
            parse_weight("", CTX)
        with pytest.raises(WeightFormatError):
            parse_weight("q^1/0", CTX)


class TestReduceGenerators:
    def test_single_generator(self):
        ws = [CTX.exact(q=k) for k in (-3, -2, -1, 1, 2, 3)]
        gens = reduce_generators(ws, CTX)
        assert [g.text() for g in gens] == ["q^1"]

    def test_lattice(self):
        ws = [w2(i, j) for i in (-2, 0, 1) for j in (-1, 1, 2)]
        gens = reduce_generators(ws, CTX2)
        assert [g.text() for g in gens] == ["a^1", "b^1"]

    def test_antidiagonal(self):
        ws = [w2(1, -1), w2(-2, 2), w2(3, -3)]
        gens = reduce_generators(ws, CTX2)
        assert [g.text() for g in gens] == ["a^1 * b^-1"]

    def test_rational_exponents(self):
        ws = [CTX.exact(q=Fraction(1, 2)), CTX.exact(q=Fraction(3, 2))]
        gens = reduce_generators(ws, CTX)
        assert [g.text() for g in gens] == ["q^1/2"]

    def test_empty(self):
        assert reduce_generators([], CTX) == ()

    def test_float_dedupe(self):
        ctx = GeneratorContext((), tolerance=1e-9)
        ws = [ctx.float_weight(v) for v in (2.0, 0.5, 2.0 + 1e-12, 1.0, 3.0)]
        gens = reduce_generators(ws, ctx)
        assert [round(g.value, 9) for g in gens] == [2.0, 3.0]

    def test_float_path_past_the_float_range(self):
        # q^+-1100 overflow a float: they are ordered, folded and deduplicated
        # in the log domain, and kept exact
        ws = [CTX.gen("q", 1100), CTX.float_weight(3.0)]
        assert reduce_generators(ws, CTX) == (CTX.float_weight(3.0), CTX.gen("q", 1100))
        ws.append(CTX.gen("q", -1100))
        assert reduce_generators(ws, CTX) == (CTX.gen("q", 1100), CTX.float_weight(3.0))


class TestGroupWeights:
    def test_tolerance_chain_raises_naming_the_middle_weight(self):
        # 1 ~ y ~ z with 1 and z apart is no complete block, in any order
        ctx = GeneratorContext(())
        ws = [ctx.float_weight(1 + k * 0.8e-9) for k in range(3)]
        for order in (ws, ws[::-1], [ws[0], ws[2], ws[1]]):
            with pytest.raises(ValueError, match=r"^float weight %s is within tolerance of the "
                                                 r"distinct float weights 1 and %s$"
                                                 % (ws[1].text(), ws[2].text())):
                group_weights((w, 1) for w in order)

    def test_blocks_merge_by_class(self):
        ctx = GeneratorContext((("a", 2.0), ("b", 2.0)))
        a, b, f = ctx.gen("a"), ctx.gen("b"), ctx.float_weight(2.0 + 1e-12)
        # a float near one exact weight joins its class, which the exact
        # weight, first in log order, stands for
        assert group_weights([(f, 2), (a, 1), (a, 3)]) == ((a, 6),)
        # a^1 and b^1 are distinct exact weights: the float near both has no class
        assert group_weights([(a, 1), (b, 1)]) == ((a, 1), (b, 1))
        with pytest.raises(ValueError, match="within tolerance of the distinct exact weights "
                                             r"a\^1 and b\^1"):
            group_weights([(a, 1), (b, 1), (f, 1)])


def _det(m) -> Fraction:
    """Determinant of a square integer matrix by Fraction elimination."""
    m = [[Fraction(a) for a in row] for row in m]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _rank_and_divisor(rows, ncols):
    """Rank k of the rows and the gcd of their k x k minors.  Both are
    invariant under unimodular row operations, and for lattices L1 <= L2 of
    equal rank the divisor of L1 is [L2 : L1] times that of L2."""
    for k in range(min(len(rows), ncols), 0, -1):
        g = 0
        for rs in combinations(rows, k):
            for cs in combinations(range(ncols), k):
                g = math.gcd(g, int(_det([[r[c] for c in cs] for r in rs])))
        if g:
            return k, g
    return 0, 0


def _in_span(row, basis) -> bool:
    """Is ``row`` an integer combination of the echelon ``basis``?"""
    row = list(row)
    for b in basis:
        c = next(i for i, a in enumerate(b) if a)
        q, rem = divmod(row[c], b[c])
        if rem:
            return False
        row = [a - q * x for a, x in zip(row, b)]
    return not any(row)


int_rows = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=4)
)


class TestLatticeBasis:
    @given(int_rows)
    def test_hermite_normal_form_of_the_same_lattice(self, rows):
        basis = _lattice_basis(rows)
        ncols = len(rows[0]) if rows else 0
        pivots = [next(c for c, a in enumerate(b) if a) for b in basis]
        assert pivots == sorted(set(pivots))
        for i, (b, c) in enumerate(zip(basis, pivots)):
            assert b[c] > 0
            assert all(0 <= above[c] < b[c] for above in basis[:i])
        # the rows lie in the basis lattice, and that lattice has the rows'
        # rank and divisor, so its index over the rows' lattice is 1
        assert all(_in_span(r, basis) for r in rows)
        assert _rank_and_divisor(basis, ncols) == _rank_and_divisor(rows, ncols)

    @pytest.mark.parametrize(
        "rows, want",
        [
            ([[2], [3]], [[1]]),  # q^2, q^3 -> q: a nonzero Euclid remainder
            ([[0, 4], [0, 6], [-2, 1]], [[2, 1], [0, 2]]),  # b^4, b^6, a^-2 b -> a^2 b, b^2
            ([[0, 2], [0, 3]], [[0, 1]]),  # an empty first column
            ([[-3]], [[3]]),  # a negative pivot is negated
        ],
    )
    def test_fixed_cases(self, rows, want):
        assert _lattice_basis(rows) == want

    def test_generators_through_the_basis(self):
        assert [g.text() for g in reduce_generators([CTX.exact(q=2), CTX.exact(q=3)], CTX)] == [
            "q^1"
        ]
        ws = [w2(0, 4), w2(0, 6), w2(-2, 1)]
        assert [g.text() for g in reduce_generators(ws, CTX2)] == ["a^2 * b^1", "b^2"]
