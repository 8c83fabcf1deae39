"""The exact-weight core against a reference model.

A weight is modelled as a dict from generator name to a nonzero Fraction
exponent, and a coefficient as a dict from the weight's exponent tuple to a
nonzero Fraction scalar.  ``Weight`` and ``Coefficient`` must agree with the
model on arithmetic, equality, text and float value; the value must equal,
bit for bit, the product ``g ** float(e)`` over the generators in context
order.  Exact weights stay exact beyond the float range.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from deltagraph import (
    Coefficient,
    ContextMismatchError,
    GeneratorContext,
    parse_weight,
    single_chain,
    tracial_cover,
    vertex_weighting,
)

CTX = GeneratorContext((("a", 2.0), ("b", 0.3), ("c", 7.5)))
NAMES = CTX.names

small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
large = st.fractions(min_value=-3000, max_value=3000, max_denominator=4)
exponent = st.one_of(small, small, large)
models = st.dictionaries(st.sampled_from(NAMES), exponent, max_size=3).map(
    lambda d: {n: e for n, e in d.items() if e}
)
rationals = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=5))


def weight(model):
    return CTX.exact(model)


def m_mul(x, y):
    out = dict(x)
    for n, e in y.items():
        out[n] = out.get(n, Fraction(0)) + e
    return {n: e for n, e in out.items() if e}


def m_scale(x, k):
    return {n: e * k for n, e in x.items() if e * k}


def m_exponents(x):
    return tuple((n, Fraction(x[n])) for n in NAMES if x.get(n))


def m_text(x):
    items = m_exponents(x)
    return " * ".join("%s^%s" % (n, e) for n, e in items) if items else "1"


def m_value(x):
    """The float value as the product of g ** float(e) in context order, or
    None where it leaves the positive float range."""
    acc = 1.0
    try:
        for n, e in m_exponents(x):
            acc *= CTX.value_of(n) ** float(e)
    except OverflowError:
        return None
    return acc if 0.0 < acc < float("inf") else None


def assert_matches(w, x):
    assert w.is_exact
    assert w.exponents == m_exponents(x)
    assert all(type(e) is Fraction for _, e in w.exponents)
    assert w.text() == m_text(x)
    assert w.is_identity() == (not x)
    assert parse_weight(w.text(), CTX) == w
    want = m_value(x)
    if want is None:
        with pytest.raises(OverflowError):
            w.value
    else:
        assert w.value == want  # bit for bit


class TestWeightModel:
    @given(models)
    def test_construction(self, x):
        assert_matches(weight(x), x)

    @given(models, models)
    def test_mul(self, x, y):
        assert_matches(weight(x) * weight(y), m_mul(x, y))

    @given(models)
    def test_inverse_and_sqrt(self, x):
        assert_matches(weight(x).inverse(), m_scale(x, -1))
        assert_matches(weight(x).sqrt(), m_scale(x, Fraction(1, 2)))

    @given(models, rationals)
    def test_pow(self, x, k):
        assert_matches(weight(x) ** k, m_scale(x, Fraction(k)))

    @given(models, models)
    def test_eq_and_hash(self, x, y):
        w, v = weight(x), weight(y)
        assert (w == v) == (x == y)
        assert w.eq(v) == (x == y)
        if x == y:
            assert hash(w) == hash(v)
            assert w.key() == v.key()

    @given(models)
    def test_equal_contexts_compare_equal(self, x):
        other = GeneratorContext(CTX.generators, CTX.tolerance)
        assert other.exact(x) == weight(x)
        assert other.exact(x) * weight(x) == weight(m_mul(x, x))


def m_coeff(pairs):
    out = {}
    for x, s in pairs:
        key = m_exponents(x)
        out[key] = out.get(key, Fraction(0)) + s
    return {k: s for k, s in out.items() if s}


def m_coeff_mul(c, d):
    out = {}
    for k1, s1 in c.items():
        for k2, s2 in d.items():
            key = m_exponents(m_mul(dict(k1), dict(k2)))
            out[key] = out.get(key, Fraction(0)) + s1 * s2
    return {k: s for k, s in out.items() if s}


def m_coeff_text(c):
    if not c:
        return "0"
    parts = []
    for key, r in sorted(c.items()):
        mono = m_text(dict(key))
        parts.append(("%s" % r) if not key else mono if r == 1 else "%s %s" % (r, mono))
    return " + ".join(parts)


def coeff(pairs):
    c = Coefficient.zero(CTX)
    for x, s in pairs:
        c = c + Coefficient.of_weight(weight(x), s)
    return c


small_models = st.dictionaries(st.sampled_from(NAMES), small, max_size=2)
coeff_pairs = st.lists(st.tuples(small_models, rationals), max_size=4)


def assert_coeff_matches(c, model):
    assert c.text() == m_coeff_text(model)
    assert c.is_zero() == (not model)
    assert all(type(s) is int or s.denominator != 1 for _, s in c.terms)
    want = 0.0
    for key, r in sorted(model.items()):
        want += float(r) * m_value(dict(key))
    assert c.value() == complex(want)  # same terms, same order, bit for bit


class TestCoefficientModel:
    @given(coeff_pairs)
    def test_sum_of_terms(self, pairs):
        assert_coeff_matches(coeff(pairs), m_coeff(pairs))

    @given(coeff_pairs, coeff_pairs)
    def test_add(self, p, q):
        c, d = coeff(p), coeff(q)
        assert_coeff_matches(c + d, m_coeff(p + q))
        assert c + d == d + c
        assert (c == d) == (m_coeff(p) == m_coeff(q))

    @given(coeff_pairs, coeff_pairs)
    def test_mul(self, p, q):
        c, d = coeff(p), coeff(q)
        want = m_coeff_mul(m_coeff(p), m_coeff(q))
        assert_coeff_matches(c * d, want)
        assert c * d == d * c

    @given(coeff_pairs)
    def test_neg(self, p):
        c = coeff(p)
        assert (c + -c).is_zero()

    def test_integral_scalars_stay_int(self):
        half = Coefficient.of_weight(CTX.gen("a"), Fraction(1, 2))
        two = Coefficient.of_weight(CTX.gen("b"), 2)
        ((_, s),) = (half * two).terms
        assert type(s) is int and s == 1
        ((_, s),) = (half + half).terms
        assert type(s) is int and s == 1


class TestBeyondFloatRange:
    """Exact weights never evaluate their float value on these paths; with
    q >= 2, q^1030 is past the float range."""

    def test_vertex_weighting_1030(self):
        wr = vertex_weighting(single_chain(9), 1030)
        assert wr
        assert wr.weighting[1030].exponents == (("q", Fraction(1030)),)
        assert wr.weighting[-1030].text() == "q^-1030"

    def test_tracial_cover_1030(self):
        cov, nu = tracial_cover(single_chain(9), 1030)
        assert len(cov.vertices) == 2 * 1030 + 1
        assert max(e for cv in cov.vertices for _, e in nu[cv].exponents) == 1030

    def test_value_raises_not_inf(self):
        ctx = GeneratorContext((("a", 1e200), ("b", 1e-200)))
        w = ctx.exact({"a": 1, "b": -1})
        assert w.text() == "a^1 * b^-1"
        with pytest.raises(OverflowError):
            w.value
        with pytest.raises(OverflowError):
            w.inverse().value
        assert (w * w.inverse()).value == 1.0


class TestContexts:
    """Coefficients of unequal contexts never combine and never compare equal;
    equal contexts combine as one."""

    AB = GeneratorContext((("a", 2.0), ("b", 0.3)))
    BA = GeneratorContext((("b", 0.3), ("a", 2.0)))

    def test_add_and_mul_raise(self):
        x = Coefficient.of_weight(self.AB.gen("a"))
        y = Coefficient.of_weight(self.BA.gen("a"))
        with pytest.raises(ContextMismatchError):
            x + y
        with pytest.raises(ContextMismatchError):
            x * y

    def test_eq_is_false(self):
        x = Coefficient.of_weight(self.AB.gen("a"))
        y = Coefficient.of_weight(self.BA.gen("a"))
        assert not x == y
        assert not x.eq(y)

    def test_equal_contexts_combine(self):
        same = GeneratorContext(self.AB.generators, self.AB.tolerance)
        x = Coefficient.of_weight(self.AB.gen("a"))
        y = Coefficient.of_weight(same.gen("a"))
        assert x == y and x.eq(y)
        assert (x + y).text() == "2 a^1"
        assert (x * y).text() == "a^2"


class TestDenominators:
    """Equal coefficients built over different denominators compare and
    hash equal, and read back the same reduced terms."""

    def test_one_from_square_roots(self):
        half = Fraction(1, 2)
        c = Coefficient.of_weight(CTX.gen("a", half)) * Coefficient.of_weight(CTX.gen("a", -half))
        one = Coefficient.one(CTX)
        assert c == one and c.eq(one) and one == c
        assert hash(c) == hash(one)
        assert c.terms == one.terms == ((CTX.identity(), 1),)

    def test_one_from_thirds(self):
        third = Fraction(1, 3)
        c = Coefficient.of_weight(CTX.gen("a", third)) * Coefficient.of_weight(CTX.gen("a", -third))
        one = Coefficient.one(CTX)
        assert c == one and c.eq(one) and hash(c) == hash(one)
        assert c.terms == ((CTX.identity(), 1),)

    def test_square_of_square_root(self):
        r = Coefficient.of_weight(CTX.gen("a", Fraction(1, 2)))
        a = Coefficient.of_weight(CTX.gen("a"))
        assert r * r == a and (r * r).eq(a) and hash(r * r) == hash(a)
        assert (r * r).terms == a.terms == ((CTX.gen("a"), 1),)

    @given(coeff_pairs, coeff_pairs)
    def test_equal_implies_equal_hash(self, p, q):
        c, d = coeff(p), coeff(q)
        if c == d:
            assert hash(c) == hash(d)
        # the same sum, with q's terms added and taken away again
        e = coeff(q + p + [(x, -s) for x, s in q])
        assert c == e and e == c and c.eq(e)
        assert hash(c) == hash(e)
        assert c.terms == e.terms


def _near(k):
    """Exponents whose numerators over 2 lie near +-2^k."""
    return st.builds(
        lambda d, sign, half: sign * Fraction(2 ** k + d, 2 if half else 1),
        st.integers(-3, 3), st.sampled_from((1, -1)), st.booleans(),
    )


bound_exponent = st.one_of(*(_near(k) for k in (29, 30, 31, 32, 62, 63, 64, 70)), small)
bound_models = st.dictionaries(st.sampled_from(NAMES), bound_exponent, max_size=3).map(
    lambda d: {n: e for n, e in d.items() if e}
)
bound_pairs = st.lists(st.tuples(bound_models, rationals), max_size=3)


def m_terms(c):
    """The model's ``terms``: reduced weights sorted by ``(num, den)``."""
    items = [(CTX.exact(dict(key)), s) for key, s in c.items()]
    return tuple(sorted(items, key=lambda t: (t[0].num, t[0].den)))


class TestPackingBound:
    """Exponents near and past 2^31 and 2^63 stay exact: no generator's
    exponent spills into another's, including in products whose exponents
    pass those sizes only once they are formed."""

    def test_fixed_case(self):
        a, b = CTX.gen("a"), CTX.gen("b")
        c = Coefficient.of_weight((a ** 2 ** 63 * b ** -(2 ** 63)).sqrt())
        got = c * c * Coefficient.of_weight(b ** 5)
        assert got.text() == "a^9223372036854775808 * b^-9223372036854775803"
        assert got == Coefficient.of_weight(CTX.exact(a=2 ** 63, b=5 - 2 ** 63))

    def test_square_crosses_bound(self):
        for k in (30, 31, 62, 63):
            x = Coefficient.of_weight(CTX.exact(a=Fraction(2 ** k - 1, 2), b=-1, c=1))
            assert (x * x).text() == "a^%d * b^-2 * c^2" % (2 ** k - 1)
            assert (x * x * x).terms == ((CTX.exact(a=Fraction(3 * (2 ** k - 1), 2), b=-3, c=3), 1),)

    @given(bound_pairs, bound_pairs)
    def test_against_model(self, p, q):
        c, d = coeff(p), coeff(q)
        mc, md = m_coeff(p), m_coeff(q)
        for got, want in ((c, mc), (c + d, m_coeff(p + q)), (c * d, m_coeff_mul(mc, md)),
                          (c * d * c, m_coeff_mul(m_coeff_mul(mc, md), mc))):
            assert got.text() == m_coeff_text(want)
            assert got.terms == m_terms(want)
            assert got.is_zero() == (not want)
        assert (c == d) == (mc == md)
        assert (c * d == d * c) and (c + d == d + c)

    @given(st.lists(bound_models, max_size=4), st.sampled_from((-2, -1, 2)))
    def test_root_products(self, xs, power):
        # w^(power/2) of a product, as the loop algebra reads a loop's weight:
        # a ``*`` product of the factors' square roots (of their inverses for
        # a negative power), squared for an even power
        got = Coefficient.one(CTX)
        want = {}
        for x in xs:
            w = weight(x) if power > 0 else weight(x).inverse()
            got = got * Coefficient.of_weight(w.sqrt())
            want = m_mul(want, m_scale(x, Fraction(power, 2)))
        if power % 2 == 0:
            got = got * got
        assert got == Coefficient.of_weight(weight(want))
        assert got.text() == m_text(want)
