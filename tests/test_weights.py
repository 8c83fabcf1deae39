"""Weight arithmetic: group laws, square roots, equality semantics,
text round-trips, and generator reduction."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from deltagraph.weights import (
    ContextMismatchError,
    GeneratorContext,
    WeightFormatError,
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
