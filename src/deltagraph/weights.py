"""Arithmetic for multiplicative edge/vertex/path weights.

Weights live in a multiplicative group of positive reals.  Exact weights are
monomials ``prod g_i^(r_i)`` with rational exponents over the generators
declared in a :class:`GeneratorContext`; rational exponents keep square roots
inside the group.  Weights that are not monomials in the declared generators
use float mode.  Two weights are equal by one rule, :func:`_near`, and a set
of weights splits into tolerance classes by one, :class:`_Classes`.

An exact weight is stored as a tuple of ints ``num``, one per generator in
the context's order, over one positive common denominator ``den``, with
``gcd(den, *num) == 1``.  Multiplication adds the vectors, ``sqrt`` doubles
the denominator and ``inverse`` negates, all in integer arithmetic, so exact
weights stay exact for any exponent.  ``==``, ``hash``, :meth:`Weight.key`
and :meth:`Weight.text` read only ``(num, den)``.  The float ``value`` of an
exact weight is computed on first use and raises ``OverflowError`` when it
leaves the positive float range.

A :class:`Coefficient`, the scalar of the loop algebra, is a rational linear
combination of exact weights, stored as its ``(Weight, scalar)`` terms, or
one float.  How the loop vectors of ``loop_algebra`` store monomials is that
module's own business.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ContextMismatchError(ValueError):
    """Weights or coefficients from different generator contexts were combined."""


class WeightFormatError(ValueError):
    """A weight text could not be parsed."""


@dataclass(frozen=True)
class GeneratorContext:
    """Declares the ambient group: named positive generators and a tolerance,
    the bound on ``|log v1 - log v2|`` for a float weight to equal another
    (:func:`_near`); logs of exact weights come from their exponents."""

    generators: tuple[tuple[str, float], ...]
    tolerance: float = 1e-9

    def __post_init__(self):
        gens = tuple((str(n), float(v)) for n, v in self.generators)
        object.__setattr__(self, "generators", gens)
        names = tuple(n for n, _ in gens)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique: %r" % (names,))
        for n, v in gens:
            if not _NAME_RE.match(n):
                raise ValueError("bad generator name %r" % n)
            if not (v > 0) or math.isinf(v):
                raise ValueError("generator %s must have a positive finite value" % n)
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be positive")
        # derived once; not fields, so equality and hashing ignore them
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_identity", Weight(self, (0,) * len(names), 1, 1.0))

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def value_of(self, name: str) -> float:
        return self.generators[self._index[name]][1]

    def identity(self) -> "Weight":
        return self._identity

    def exact(self, exponents: Mapping[str, Fraction | int] | None = None, **kw) -> "Weight":
        """Exact monomial weight from generator-name -> rational exponent."""
        exps: dict[str, Fraction] = {}
        for src in (exponents or {}), kw:
            for n, e in src.items():
                exps[n] = exps.get(n, Fraction(0)) + Fraction(e)
        index = self._index
        for n in exps:
            if n not in index:
                raise WeightFormatError("unknown generator %r" % n)
        den = math.lcm(*(e.denominator for e in exps.values()))
        num = [0] * len(index)
        for n, e in exps.items():
            num[index[n]] = e.numerator * (den // e.denominator)
        return _exact(self, tuple(num), den)

    def gen(self, name: str, power: Fraction | int = 1) -> "Weight":
        return self.exact({name: power})

    def float_weight(self, value: float) -> "Weight":
        value = float(value)
        if not (value > 0) or math.isinf(value):
            raise ValueError("weights must be positive finite reals, got %r" % value)
        return Weight(self, None, 1, value)


def _require_same_context(c1: GeneratorContext, c2: GeneratorContext):
    if c1 is not c2 and c1 != c2:
        raise ContextMismatchError("operands belong to different generator contexts")


def _exact(context: GeneratorContext, num: tuple[int, ...], den: int) -> "Weight":
    """The exact weight ``num / den``, reduced by the common gcd."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            den //= g
            num = tuple(n // g for n in num)
    return Weight(context, num, den)


def _float_result(context: GeneratorContext, value: float) -> "Weight":
    """The float weight ``value`` computed from valid weights;
    ``OverflowError`` when it has left the positive float range."""
    if not 0.0 < value < math.inf:
        raise OverflowError("weight %r is outside the float range" % value)
    return Weight(context, None, 1, value)


class Weight:
    """A positive real, exact (integer exponent vector over a common
    denominator) or float.

    Exact mode: ``num`` holds one int per generator of the context, in its
    order, and ``den`` the positive denominator they share, reduced.  Float
    mode: ``num`` is None and the value is stored.  Weights are immutable and
    are built by :class:`GeneratorContext`, :func:`parse_weight` and the
    operators, not by calling the class.  Structural ``==``/``hash`` compare
    ``(num, den)`` (exact) or the raw value (float); use :meth:`eq` for the
    tolerance-aware comparison.
    """

    __slots__ = ("context", "num", "den", "_value", "_exponents", "_hash")

    def __init__(self, context: GeneratorContext, num: tuple[int, ...] | None, den: int = 1,
                 value: float | None = None):
        self.context = context
        self.num = num
        self.den = den
        self._value = value
        self._exponents = None
        self._hash = None

    @property
    def is_exact(self) -> bool:
        return self.num is not None

    @property
    def exponents(self) -> tuple[tuple[str, Fraction], ...] | None:
        """Nonzero exponents as ``(name, Fraction)`` in context order; None
        in float mode."""
        got = self._exponents
        if got is None and self.num is not None:
            den = self.den
            got = self._exponents = tuple(
                (name, Fraction(n, den)) for name, n in zip(self.context.names, self.num) if n
            )
        return got

    @property
    def value(self) -> float:
        """The weight as a float, ``prod g_i ** float(r_i)`` in context order,
        computed on first use; ``OverflowError`` if it is not in (0, inf)."""
        v = self._value
        if v is None:
            v = 1.0
            den = self.den
            for (_, g), n in zip(self.context.generators, self.num):
                if n:
                    v *= g ** (n / den)
            if not 0.0 < v < math.inf:
                raise OverflowError("weight %s is outside the float range" % self.text())
            self._value = v
        return v

    @property
    def log_value(self) -> float:
        """``log(value)``; for an exact weight it is computed as
        ``sum(r_i * log g_i)``, which stays finite for any exponent, so
        exact weights can be ordered without computing ``value``."""
        if self.num is None:
            return math.log(self._value)
        gens = self.context.generators
        return sum(n * math.log(g) for (_, g), n in zip(gens, self.num) if n) / self.den

    def __mul__(self, other: "Weight") -> "Weight":
        ctx = self.context
        if other.context is not ctx:
            _require_same_context(ctx, other.context)
        a, b = self.num, other.num
        if a is not None and b is not None:
            da, db = self.den, other.den
            if da == db:
                num = tuple(map(add, a, b))
                return Weight(ctx, num, 1) if da == 1 else _exact(ctx, num, da)
            g = math.gcd(da, db)
            ma, mb = db // g, da // g
            return _exact(ctx, tuple(x * ma + y * mb for x, y in zip(a, b)), da * ma)
        return _float_result(ctx, self.value * other.value)

    def inverse(self) -> "Weight":
        if self.is_exact:
            return Weight(self.context, tuple(-n for n in self.num), self.den)
        return _float_result(self.context, 1.0 / self.value)

    def __pow__(self, k) -> "Weight":
        if self.is_exact:
            k = Fraction(k)
            return _exact(
                self.context, tuple(n * k.numerator for n in self.num), self.den * k.denominator
            )
        return _float_result(self.context, self.value ** float(k))

    def sqrt(self) -> "Weight":
        if self.is_exact:
            return _exact(self.context, self.num, 2 * self.den)
        return _float_result(self.context, math.sqrt(self.value))

    def eq(self, other: "Weight") -> bool:
        """The tolerance rule, :func:`_near`, within one context."""
        if other.context is not self.context:
            _require_same_context(self.context, other.context)
        return _near(self, other)

    def is_identity(self) -> bool:
        return _near(self, self.context._identity)

    def key(self):
        """Deterministic sort/group key; exact and float keys never collide."""
        if self.is_exact:
            return ("e", self.exponents)
        return ("f", self.value)

    def text(self) -> str:
        if not self.is_exact:
            return format(self.value, ".17g")
        if not any(self.num):
            return "1"
        return " * ".join("%s^%s" % (n, e) for n, e in self.exponents)

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        if self.context is not other.context and self.context != other.context:
            return False
        if self.num is None:
            return other.num is None and self._value == other._value
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        got = self._hash
        if got is None:
            got = self._hash = hash((self.num, self.den) if self.num is not None else self._value)
        return got

    def __repr__(self):
        return "Weight(%s)" % self.text()


def _near(w1: Weight, w2: Weight) -> bool:
    """The one equality rule for weights.  Two exact weights of one context
    are equal when they are the same monomial, so ``a^1`` and ``b^1`` differ
    even where a = b; any other pair when their ``log_value`` differ by at
    most the tolerance, the tighter one across contexts.  Never overflows."""
    c1, c2 = w1.context, w2.context
    if w1.num is not None and w2.num is not None and (c1 is c2 or c1 == c2):
        return w1.num == w2.num and w1.den == w2.den
    return abs(w1.log_value - w2.log_value) <= min(c1.tolerance, c2.tolerance)


def _log_sum(ws: Iterable[Weight]) -> float:
    """``log`` of the weights' sum from their ``log_value`` (the largest plus
    ``log(fsum(exp(...)))``), so no exponent overflows; ``-inf`` for none,
    ``inf`` when a log is ``inf``."""
    logs = [w.log_value for w in ws]
    top = max(logs, default=-math.inf)
    if -math.inf < top < math.inf:
        top += math.log(math.fsum(math.exp(x - top) for x in logs))
    return top


def _scalar(s):
    """A rational scalar as an ``int`` when it is integral."""
    return s.numerator if type(s) is Fraction and s.denominator == 1 else s


def _by_exponents(terms) -> list:
    return sorted(terms, key=lambda t: t[0].exponents)


class Coefficient:
    """Scalar closed under the sums the cup map produces.

    Exact mode: a rational linear combination of exact monomial weights,
    stored as ``terms``, the ``(Weight, scalar)`` pairs with reduced weights
    sorted by ``(num, den)`` and nonzero scalars that are ``int`` when
    integral and ``Fraction`` otherwise.  ``+`` and ``*`` merge terms by
    weight, and ``==``, ``eq`` and ``hash`` compare ``terms``; text and
    ``value`` visit them in order of ``Weight.exponents``.  Float mode:
    ``terms`` is None and ``fvalue`` holds one float.  Immutable; the loop
    algebra keeps in ``_packed`` the terms' monomial ids in the last edge
    table that scaled by the coefficient, with that table.
    """

    __slots__ = ("context", "terms", "fvalue", "_packed")

    @classmethod
    def zero(cls, context: GeneratorContext) -> "Coefficient":
        return _exact_coefficient(context, {})

    @classmethod
    def one(cls, context: GeneratorContext) -> "Coefficient":
        return _exact_coefficient(context, {context.identity(): 1})

    @classmethod
    def of_weight(cls, w: Weight, scalar=1) -> "Coefficient":
        if w.is_exact:
            return _exact_coefficient(w.context, {w: Fraction(scalar)})
        return _real(w.context, float(scalar) * w.value)

    @property
    def is_exact(self) -> bool:
        return self.terms is not None

    def is_zero(self) -> bool:
        if self.terms is not None:
            return not self.terms
        return self.fvalue == 0

    def __add__(self, other: "Coefficient") -> "Coefficient":
        a, b = self.terms, other.terms
        if a is None or b is None:
            return _real(self.context, self.value() + other.value())
        ctx = self.context
        if other.context is not ctx:
            _require_same_context(ctx, other.context)
        acc = dict(a)
        for w, s in b:
            acc[w] = acc.get(w, 0) + s
        return _exact_coefficient(ctx, acc)

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        a, b = self.terms, other.terms
        if a is None or b is None:
            return _real(self.context, self.value() * other.value())
        ctx = self.context
        if other.context is not ctx:
            _require_same_context(ctx, other.context)
        acc: dict = {}
        for w1, s1 in a:
            for w2, s2 in b:
                w = w1 * w2
                acc[w] = acc.get(w, 0) + s1 * s2
        return _exact_coefficient(ctx, acc)

    def __neg__(self) -> "Coefficient":
        if self.terms is not None:
            return _exact_coefficient(self.context, {w: -s for w, s in self.terms})
        return _real(self.context, -self.fvalue)

    def value(self) -> float:
        if self.terms is None:
            return self.fvalue
        total = 0.0
        for w, r in _by_exponents(self.terms):
            total += float(r) * w.value
        return total

    def isclose(self, other: "Coefficient") -> bool:
        a, b = self.value(), other.value()
        scale = max(abs(a), abs(b), 1.0)
        return abs(a - b) <= self.context.tolerance * scale

    def eq(self, other: "Coefficient") -> bool:
        """Exact term comparison when both exact, else tolerance on value."""
        if self.terms is not None and other.terms is not None:
            return self == other
        return self.isclose(other)

    def text(self) -> str:
        if self.terms is None:
            return format(self.fvalue, ".17g")
        if not self.terms:
            return "0"
        parts = []
        for w, r in _by_exponents(self.terms):
            if w.is_identity():
                parts.append("%s" % r)
            else:
                parts.append(w.text() if r == 1 else "%s %s" % (r, w.text()))
        return " + ".join(parts)

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        if self.context is not other.context and self.context != other.context:
            return False
        return self.terms == other.terms and self.fvalue == other.fvalue

    def __hash__(self):
        return hash((self.terms, self.fvalue))

    def __repr__(self):
        return "Coefficient(%s)" % self.text()


_new = object.__new__


def _exact_coefficient(context: GeneratorContext, acc: dict) -> Coefficient:
    """The exact coefficient of a ``Weight -> scalar`` dict, less its zero
    scalars."""
    terms = [(w, s if type(s) is int else _scalar(s)) for w, s in acc.items() if s]
    if len(terms) > 1:
        terms.sort(key=lambda t: (t[0].num, t[0].den))
    c = _new(Coefficient)
    c.context, c.terms, c.fvalue, c._packed = context, tuple(terms), None, None
    return c


def _real(context: GeneratorContext, v: float) -> Coefficient:
    """The float-mode coefficient ``v``; ``OverflowError`` unless it is finite."""
    if not -math.inf < v < math.inf:
        raise OverflowError("coefficient %r is outside the float range" % v)
    c = _new(Coefficient)
    c.context, c.terms, c.fvalue, c._packed = context, None, v, None
    return c


class _Classes:
    """One set of distinct weights split into tolerance classes as they are
    added: a weight joins the class of the members near it (:func:`_near`),
    or starts one.  A weight near two classes, or near part of one, raises
    :func:`_ambiguity` (``where`` in its text), so every order of a set
    raises or gives the same classes, its complete blocks.  Only members
    within ``tolerance`` of a weight in ``log_value`` are tested."""

    def __init__(self, tolerance: float, where: str = ""):
        self.tolerance = tolerance
        self.where = where
        self.classes: list[tuple[object, list[tuple[float, Weight]]]] = []  # (item, members)

    def add(self, w: Weight, item=None):
        """The item of ``w``'s class: ``item`` (default ``w``) if w starts one."""
        lw = w.log_value
        hit = None  # w's class and a member of it near w
        for cls in self.classes:
            near = [m for lv, m in cls[1] if abs(lv - lw) <= self.tolerance and _near(m, w)]
            if near and hit:
                raise _ambiguity(w, hit[1], near[0], self.where)
            if near and len(near) < len(cls[1]):
                raise _ambiguity(near[0], next(m for _, m in cls[1] if m not in near), w, self.where)
            if near:
                hit = (cls, near[0])
        cls = hit[0] if hit else (w if item is None else item, [])
        if hit is None:
            self.classes.append(cls)
        cls[1].append((lw, w))
        return cls[0]


def group_weights(counts: Iterable[tuple[Weight, int]]) -> tuple[tuple[Weight, int], ...]:
    """``(weight, count)`` pairs merged by tolerance class (:class:`_Classes`)
    into (representative, multiplicity) pairs, in ascending order of
    ``log_value``, so exact weights past the float range are ordered too.
    A weight may appear in several pairs; the result does not depend on
    their order.  ``ValueError`` unless the weights split into complete
    tolerance blocks: a chain x ~ y ~ z with x and z apart raises, naming y."""
    merged: dict[Weight, int] = {}
    for w, c in counts:
        merged[w] = merged.get(w, 0) + c
    classes = _Classes(max((w.context.tolerance for w in merged), default=0.0))
    groups: dict[Weight, int] = {}
    for w in sorted(merged, key=lambda w: (w.log_value, w.key())):
        rep = classes.add(w)
        groups[rep] = groups.get(rep, 0) + merged[w]
    return tuple(groups.items())


def _ambiguity(w: Weight, w1: Weight, w2: Weight, where: str = "") -> ValueError:
    """The error for a weight ``w`` (found ``where``) within tolerance of two
    weights that are not one class, so that it has no class of its own;
    the two are named in :meth:`Weight.key` order."""
    w1, w2 = sorted((w1, w2), key=Weight.key)
    kinds = ("float ", "exact ")
    pair = kinds[w1.is_exact] if w1.is_exact == w2.is_exact else ""
    return ValueError(
        "%sweight %s%s is within tolerance of the distinct %sweights %s and %s"
        % (kinds[w.is_exact], w.text(), where, pair, w1.text(), w2.text())
    )


_FLOAT_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def parse_weight(text: str, context: GeneratorContext) -> Weight:
    """Parse the serialized weight form.

    Exact weights look like ``q^2``, ``q^-1/2`` or ``a^1 * b^-1`` (generator
    names must be declared in the context); ``1`` is the identity.  Anything
    matching a plain decimal is a float weight.
    """
    text = text.strip()
    if not text:
        raise WeightFormatError("empty weight text")
    if text == "1":
        return context.identity()
    if _FLOAT_RE.match(text):
        try:
            return context.float_weight(float(text))
        except ValueError as exc:
            raise WeightFormatError(str(exc)) from exc
    exps: dict[str, Fraction] = {}
    for part in text.split("*"):
        part = part.strip()
        if not part:
            raise WeightFormatError("empty factor in weight %r" % text)
        name, sep, exp = part.partition("^")
        name = name.strip()
        if name not in context.names:
            raise WeightFormatError("unknown generator %r in weight %r" % (name, text))
        try:
            e = Fraction(exp.strip()) if sep else Fraction(1)
        except (ValueError, ZeroDivisionError) as exc:
            raise WeightFormatError("bad exponent in %r" % part) from exc
        exps[name] = exps.get(name, Fraction(0)) + e
    return context.exact(exps)


def _lattice_basis(rows: list[list[int]]) -> list[list[int]]:
    """Row-echelon basis (positive pivots) of the integer lattice the rows span."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    basis: list[list[int]] = []
    col = 0
    while rows and col < ncols:
        live = [r for r in rows if r[col]]
        rest = [r for r in rows if not r[col]]
        if not live:
            rows = rest
            col += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            if p[col] < 0:
                p = [-a for a in p]
            reduced = [p]
            for r in live[1:]:
                q = r[col] // p[col]
                rr = [a - q * b for a, b in zip(r, p)]
                if rr[col]:
                    reduced.append(rr)
                elif any(rr):
                    rest.append(rr)
            live = reduced
        pivot = live[0]
        if pivot[col] < 0:
            pivot = [-a for a in pivot]
        basis.append(pivot)
        rows = rest
        col += 1
    # back-reduce entries above later pivots into [0, pivot)
    pivots = [next(c for c in range(ncols) if row[c]) for row in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            c = pivots[j]
            q = basis[i][c] // basis[j][c]
            if q:
                basis[i] = [a - q * b for a, b in zip(basis[i], basis[j])]
    return basis


def reduce_generators(
    weights: Iterable[Weight], context: GeneratorContext
) -> tuple[Weight, ...]:
    """Minimal generating set for the group generated by ``weights``.

    Exact mode reduces the exponent vectors to a lattice basis, so e.g.
    ``{x, x^-1, x^2}`` collapses to ``(x,)``.  Float mode falls back to
    tolerance deduplication in ``log_value`` order, keeping the >1 member of
    each inverse pair (a float unless past the float range) and dropping
    values indistinguishable from 1.
    """
    ws = list(weights)
    if all(w.is_exact for w in ws):
        if any(w.context is not context and w.context != context for w in ws):
            raise ContextMismatchError("weights do not belong to the given context")
        denom = math.lcm(*(w.den for w in ws))
        basis = _lattice_basis([[n * (denom // w.den) for n in w.num] for w in ws])
        return tuple(_exact(context, tuple(row), denom) for row in basis)
    reps: list[Weight] = []
    for w in sorted(ws, key=lambda w: w.log_value):
        try:
            v = w.value
            f = context.float_weight(v if v >= 1.0 else 1.0 / v)
        except (OverflowError, ValueError):  # w or 1 / w is past the float range
            f = w if w.log_value > 0 else w.inverse()
        if not f.is_identity() and not any(_near(f, r) for r in reps):
            reps.append(f)
    return tuple(reps)
