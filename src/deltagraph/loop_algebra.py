"""The loop-space model: vectors over based loops, cup/cap maps, star,
concatenation, the two inner products, the modular spectrum (read from walk
counts, verified by trie walks), and the TLJ relation suite behind
``tl-check``.

Vectors of length n are finitely supported linear combinations of based
loops of length n, with real coefficients.  Cup inserts a conjugate edge
pair after position i (0 <= i <= n, position 0 anchoring at the basepoint)
with coefficient w(e)^(1/2); cap contracts positions i, i+1
(1 <= i <= n-1) when they are a conjugate pair, with coefficient
w(e_i)^(1/2).  With these conventions cap_(i+1) o cup_i = delta * id and
both zig-zag composites are the identity.

Since w(e) w(e-bar) = 1, cup and cap leave a loop's weight unchanged, so a
loop is its edges and its weight is read off them only where an output asks
for it.  Every map builds its result through one accumulator, ``_vec``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .graph import Edge, Path, VertexId, enumerate_loops, loop_weight_counts, vid_key
from .weights import GeneratorContext, Weight, group_weights


def _scalar(s):
    """A rational scalar as an ``int`` when it is integral."""
    return s.numerator if type(s) is Fraction and s.denominator == 1 else s


def _term_order(term):
    w = term[0]
    return w.num, w.den


def _canonical(acc: dict) -> tuple:
    """Terms of a weight -> scalar dict: zero scalars dropped, sorted."""
    items = [(w, _scalar(s)) for w, s in acc.items() if s]
    if len(items) > 1:
        items.sort(key=_term_order)
    return tuple(items)


def _by_exponents(terms) -> list:
    return sorted(terms, key=lambda t: t[0].exponents)


class Coefficient:
    """Scalar closed under the sums the cup map produces.

    Exact mode: a rational linear combination of exact monomial weights,
    stored in ``terms`` as ``(Weight, scalar)`` pairs, one per weight, with
    nonzero scalars that are ``int`` when integral and ``Fraction``
    otherwise.  Terms are kept sorted by the weight's ``(num, den)``, so
    equal coefficients have equal terms; products multiply weights, and no
    ``Fraction`` is made while scalars stay integral.  Text and ``value``
    visit terms in order of ``Weight.exponents``.  Float mode: ``terms`` is
    None and ``fvalue`` holds one float.  Immutable.
    """

    __slots__ = ("context", "terms", "fvalue")

    def __init__(self, context: GeneratorContext, terms: tuple | None,
                 fvalue: float | None = None):
        self.context = context
        self.terms = terms
        self.fvalue = fvalue

    @classmethod
    def zero(cls, context: GeneratorContext) -> "Coefficient":
        return cls(context, ())

    @classmethod
    def one(cls, context: GeneratorContext) -> "Coefficient":
        return cls(context, ((context.identity(), 1),))

    @classmethod
    def of_weight(cls, w: Weight, scalar=1) -> "Coefficient":
        if w.is_exact:
            s = scalar if type(scalar) is int else _scalar(Fraction(scalar))
            return cls(w.context, ((w, s),) if s else ())
        return _real(w.context, float(scalar) * w.value)

    @property
    def is_exact(self) -> bool:
        return self.terms is not None

    def is_zero(self) -> bool:
        if self.is_exact:
            return not self.terms
        return self.fvalue == 0

    def __add__(self, other: "Coefficient") -> "Coefficient":
        a, b = self.terms, other.terms
        if a is not None and b is not None:
            if not b:
                return self
            if not a:
                return other
            acc = dict(a)
            for w, s in b:
                got = acc.get(w)
                acc[w] = s if got is None else got + s
            return Coefficient(self.context, _canonical(acc))
        return _real(self.context, self.value() + other.value())

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        a, b = self.terms, other.terms
        if a is not None and b is not None:
            if len(a) == 1 and len(b) == 1:
                ((w1, s1),), ((w2, s2),) = a, b
                return Coefficient(self.context, ((w1 * w2, _scalar(s1 * s2)),))
            acc: dict = {}
            for w1, s1 in a:
                for w2, s2 in b:
                    w = w1 * w2
                    got = acc.get(w)
                    acc[w] = s1 * s2 if got is None else got + s1 * s2
            return Coefficient(self.context, _canonical(acc))
        return _real(self.context, self.value() * other.value())

    def __neg__(self) -> "Coefficient":
        if self.is_exact:
            return Coefficient(self.context, tuple((w, -s) for w, s in self.terms))
        return Coefficient(self.context, None, -self.fvalue)

    def value(self) -> float:
        if not self.is_exact:
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
            return self.terms == other.terms
        return self.isclose(other)

    def text(self) -> str:
        if not self.is_exact:
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
        return (
            self.terms == other.terms
            and self.fvalue == other.fvalue
            and (self.context is other.context or self.context == other.context)
        )

    def __hash__(self):
        return hash((self.terms, self.fvalue))

    def __repr__(self):
        return "Coefficient(%s)" % self.text()


def _real(context: GeneratorContext, v: float) -> Coefficient:
    """The float-mode coefficient ``v``; ``OverflowError`` unless it is finite."""
    if not -math.inf < v < math.inf:
        raise OverflowError("coefficient %r is outside the float range" % v)
    return Coefficient(context, None, v)


@dataclass(frozen=True, eq=True)
class LoopVector:
    """Finitely supported linear combination of based loops of one length."""

    length: int
    terms: Mapping[Path, Coefficient]

    __hash__ = None  # mapping-valued; never used as a key

    def __post_init__(self):
        for l in self.terms:
            if len(l) != self.length:
                raise ValueError("loop of length %d in a length-%d vector" % (len(l), self.length))

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple[Path, ...]:
        return tuple(sorted(self.terms, key=lambda l: tuple(vid_key(e) for e in l.edge_ids())))

    def __add__(self, other: "LoopVector") -> "LoopVector":
        if other.length != self.length:
            raise ValueError("length mismatch")
        return _vec(self.length, [*self.terms.items(), *other.terms.items()])

    def scaled(self, c: Coefficient) -> "LoopVector":
        return _vec(self.length, ((l, c0 * c) for l, c0 in self.terms.items()))

    def eq(self, other: "LoopVector") -> bool:
        """Coefficient-wise ``Coefficient.eq``, an absent loop counting as zero."""
        if self.length != other.length:
            return False
        a, b = self.terms, other.terms
        if a == b:
            return True
        for l in a.keys() | b.keys():
            x, y = a.get(l), b.get(l)
            if x is None:
                x = Coefficient.zero(y.context)
            elif y is None:
                y = Coefficient.zero(x.context)
            if not x.eq(y):
                return False
        return True


def _vec(length: int, pairs) -> LoopVector:
    """The sum of the ``(loop, coefficient)`` pairs, in their order, as a
    vector of the given length; loops whose coefficients sum to zero are
    dropped."""
    acc: dict[Path, Coefficient] = {}
    for l, c in pairs:
        got = acc.get(l)
        acc[l] = c if got is None else got + c
    return LoopVector(length, {l: c for l, c in acc.items() if not c.is_zero()})


def zero_vector(length: int) -> LoopVector:
    return LoopVector(length, {})


def loop_vector(l: Path, coeff: Coefficient | None = None) -> LoopVector:
    c = coeff if coeff is not None else Coefficient.one(l.context)
    return _vec(len(l), ((l, c),))


def basis(graph, n: int) -> tuple[LoopVector, ...]:
    return tuple(loop_vector(l) for l in enumerate_loops(graph, n))


def format_vector(v: LoopVector) -> str:
    """One line per term: ``(coefficient-text) eid eid ...``."""
    lines = []
    for l in v.support():
        ids = " ".join(str(e) for e in l.edge_ids()) or "-"
        lines.append("(%s) %s" % (v.terms[l].text(), ids))
    return "\n".join(lines) if lines else "(0)"


def _anchor(graph, l: Path, i: int) -> VertexId:
    return l.edges[i - 1].target if i else l.start


def cup(graph, v: LoopVector, i: int) -> LoopVector:
    """Insert a summed conjugate pair after edge i, weighted by w(e)^(1/2)."""
    if not 0 <= i <= v.length:
        raise IndexError("cup index %d out of range 0..%d" % (i, v.length))
    pairs = []
    inserts: dict = {}  # per anchor: (e, e-bar, w(e)^(1/2) as a coefficient)
    for l, c in v.terms.items():
        at = _anchor(graph, l, i)
        if graph.is_frontier(at):
            raise ValueError(
                "cup anchored at %r, whose adjacency is truncated; enlarge the ball" % (at,)
            )
        rows = inserts.get(at)
        if rows is None:
            rows = []
            for e in graph.out_edges(at):
                ebar = graph.conjugate_edge(e)
                rows.append((e, ebar, Coefficient.of_weight(e.weight.sqrt())))
            inserts[at] = rows
        for e, ebar, sq in rows:
            pairs.append((Path(l.start, l.edges[:i] + (e, ebar) + l.edges[i:], l.context), c * sq))
    return _vec(v.length + 2, pairs)


def _contraction(e1: Edge, e2: Edge, memo: dict):
    """The cap rule for the adjacent edges e1, e2: None unless they are a
    conjugate pair, else the coefficient ``w(e1)^(1/2)``.  ``memo`` keeps it
    by e1's id for the rest of one computation.  ``cap`` and the trie walk of
    ``_inner_pairs`` both contract through here."""
    if e1.conjugate != e2.eid or e2.conjugate != e1.eid:
        return None
    got = memo.get(e1.eid)
    if got is None:
        got = memo[e1.eid] = Coefficient.of_weight(e1.weight.sqrt())
    return got


def cap(v: LoopVector, i: int) -> LoopVector:
    """Contract edges i, i+1 when conjugate, weighted by w(e_i)^(1/2)."""
    if v.length < 2:
        raise IndexError("cap needs length >= 2")
    if not 1 <= i <= v.length - 1:
        raise IndexError("cap index %d out of range 1..%d" % (i, v.length - 1))
    pairs = []
    memo: dict = {}
    for l, c in v.terms.items():
        sq = _contraction(l.edges[i - 1], l.edges[i], memo)
        if sq is not None:
            pairs.append((Path(l.start, l.edges[: i - 1] + l.edges[i + 1 :], l.context), c * sq))
    return _vec(v.length - 2, pairs)


def star(graph, v: LoopVector) -> LoopVector:
    """The involution l -> w(l-bar)^(1/2) l-bar, with w(l-bar) = w(l)^-1; it
    is conjugate-linear, and coefficients are real."""
    return _vec(v.length, (
        (l.reversed_in(graph), c * Coefficient.of_weight(l.weight.inverse().sqrt()))
        for l, c in v.terms.items()
    ))


def concat(u: LoopVector, v: LoopVector) -> LoopVector:
    """Bilinear extension of loop concatenation."""
    return _vec(u.length + v.length, (
        (l1 * l2, c1 * c2) for l1, c1 in u.terms.items() for l2, c2 in v.terms.items()
    ))


def inner(graph, f: LoopVector, g: LoopVector, side: str) -> Coefficient:
    """Left/right inner product by literal nested-cap evaluation.

    Both sides are linear in f and conjugate-linear in g; ``left`` evaluates
    caps on f * star(g), ``right`` on star(g) * f.  Returns the coefficient
    of the empty loop.  The trie walks of ``_inner_pairs`` give the same
    values on a whole basis at once; this is their reference.
    """
    if f.length != g.length:
        raise ValueError("length mismatch: %d vs %d" % (f.length, g.length))
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    n = f.length
    word = concat(f, star(graph, g)) if side == "left" else concat(star(graph, g), f)
    for k in range(n, 0, -1):
        word = cap(word, k)
    ctx = graph.context
    empty = Path.empty(ctx, graph.basepoint)
    return word.terms.get(empty, Coefficient.zero(ctx))


def apply_modular(v: LoopVector) -> LoopVector:
    """The diagonal modular operator: l -> w(l) * l."""
    return _vec(v.length, ((l, c * Coefficient.of_weight(l.weight)) for l, c in v.terms.items()))


@dataclass(frozen=True)
class ModularSpectrum:
    """Eigenvalue multiset of the modular operator on length-n loops."""

    length: int
    eigenvalues: tuple[tuple[Weight, int], ...]
    verified: bool

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.eigenvalues)

    def is_trivial(self) -> bool:
        return all(w.is_identity() for w, _ in self.eigenvalues)


# With verify=None, spectra of at most this many loops are verified.  It stays
# 256: perfbench checks that a spectrum is verified exactly when it has at
# most 256 loops.
VERIFY_LIMIT = 256


class ModularRelationError(ArithmeticError):
    """inner(f, g, left) != inner(Delta f, g, right) on a basis pair."""


def _capped(c: Coefficient, factors, zero: Coefficient) -> Coefficient:
    """``c`` times each cap coefficient in turn, as nested caps multiply it;
    a term that reaches zero is dropped, as ``cap`` drops it."""
    for s in factors:
        if c.is_zero():
            return zero
        c = c * s
    return zero if c.is_zero() else c


def _inner_pairs(graph, vecs):
    """inner(f, g, left), inner(f, g, right) and inner(Delta f, g, right) on
    a basis of single-loop vectors of one length n, with the values of
    :func:`inner`, by one trie walk per basis vector.

    Yields ``(i, j, left, right, right_of_delta)`` for f = vecs[i] and
    g = vecs[j], in order of (i, j), for i == j and for every pair where one
    of the three is nonzero; on every other pair all three are zero.

    The star(g) words go into a trie.  Both sides contract f's edges from
    the last one back against star(g)'s edges from the first one on, so one
    walk down the trie per f meets every cap of every pair: a branch dies
    where ``_contraction`` rejects the pair, as in ``cap``, and the leaves
    reached are the nonzero entries.  Only the conjugate child passes at
    each level, so the walks take O(N n) cap steps for N loops of length n
    (and test O(N n d) children at out-degree d).  Each leaf multiplies its
    cap coefficients in the order of ``inner``'s nested caps: outward for
    left, inward for right.
    """
    zero = Coefficient.zero(graph.context)
    stars = []
    root = [{}, None]  # node: [edge id -> (edge, child node), basis index of a word's end]
    for j, h in enumerate(vecs):
        ((word, c),) = star(graph, h).terms.items()
        stars.append(c)
        node = root
        for e in word.edges:
            got = node[0].get(e.eid)
            if got is None:
                got = node[0][e.eid] = (e, [{}, None])
            node = got[1]
        node[1] = j
    memo: dict = {}
    for i, f in enumerate(vecs):
        ((l, cf),) = f.terms.items()
        ((_, cdf),) = apply_modular(f).terms.items()
        # (node, left coefficients, right coefficients); None once a side dies
        live = [(root, (), ())]
        for e in reversed(l.edges):
            nxt = []
            for node, lsq, rsq in live:
                for e2, child in node[0].values():
                    a = lsq is not None and _contraction(e, e2, memo)
                    b = rsq is not None and _contraction(e2, e, memo)
                    if a or b:
                        nxt.append((child, lsq + (a,) if a else None,
                                    rsq + (b,) if b else None))
            live = nxt
        rows = {}
        for node, lsq, rsq in live:
            j = node[1]
            c = stars[j]
            rows[j] = (
                zero if lsq is None else _capped(cf * c, lsq, zero),
                zero if rsq is None else _capped(c * cf, rsq[::-1], zero),
                zero if rsq is None else _capped(c * cdf, rsq[::-1], zero),
            )
        for j in sorted(rows.keys() | {i}):
            yield (i, j) + rows.get(j, (zero, zero, zero))


def modular_spectrum(graph, n: int, verify: bool | None = None) -> ModularSpectrum:
    """Loop-weight multiset at length n, optionally re-derived from the
    inner products.

    The eigenvalues come from walk counts (:func:`loop_weight_counts`), so
    no loop is enumerated unless verification runs.  Verification checks
    inner(f, g, left) == inner(Delta f, g, right) on every basis pair, by
    trie walks at O(N n) cap steps for N loops of length n (the pairs the
    walks do not reach are zero on both sides); a mismatch raises
    :class:`ModularRelationError`.  With ``verify=None`` the check runs iff
    there are at most ``VERIFY_LIMIT`` loops.
    """
    counts = loop_weight_counts(graph, n)
    run = verify if verify is not None else sum(c for _, c in counts) <= VERIFY_LIMIT
    if run:
        for _, _, lhs, _, rhs in _inner_pairs(graph, basis(graph, n)):
            if not lhs.eq(rhs):
                raise ModularRelationError("n=%d: %s vs %s" % (n, lhs.text(), rhs.text()))
    return ModularSpectrum(n, group_weights(counts), bool(run))


def relations(graph, max_len: int):
    """The TLJ(delta) relation suite on the loop spaces of length 0..max_len.

    Yields ``(name, n, passed, detail)`` records, in this order for each n:

    - for n <= max_len - 2, at every cup position i of every basis loop:
      ``delooping`` (cap_(i+1) o cup_i is the outgoing weight sum at the cup
      anchor, delta by fairness) and ``zigzag`` (cap_i o cup_i and
      cap_(i+2) o cup_i are the identity where defined);
    - ``star-involution`` (star o star = id);
    - for n <= max(2, max_len // 2) when loops exist, over every basis pair:
      ``gram`` (left Gram matrix the identity, right one diag(1/w(l))) and
      ``modular-relation`` (inner(f, g, left) == inner(Delta f, g, right)).
      The inner products come from trie walks at O(N n) cap steps for N
      loops of length n, as in ``modular_spectrum``; the pairs the walks do
      not reach are zero on every side.

    ``detail`` is the got/want text of the first failed delooping at n, else
    None.  Comparisons are ``LoopVector.eq``/``Coefficient.eq``.
    """
    ctx = graph.context
    for n in range(max_len + 1):
        vecs = basis(graph, n)
        if n <= max_len - 2:
            detail = None
            ok_zig = True
            for v in vecs:
                (l,) = v.terms
                for i in range(n + 1):
                    up = cup(graph, v, i)
                    anchor_sum = Coefficient.zero(ctx)
                    for e in graph.out_edges(_anchor(graph, l, i)):
                        anchor_sum = anchor_sum + Coefficient.of_weight(e.weight)
                    want = v.scaled(anchor_sum)
                    got = cap(up, i + 1)
                    if detail is None and not got.eq(want):
                        detail = "  got:\n%s\n  want:\n%s" % (format_vector(got),
                                                               format_vector(want))
                    if i >= 1 and not cap(up, i).eq(v):
                        ok_zig = False
                    if i <= n - 1 and not cap(up, i + 2).eq(v):
                        ok_zig = False
            yield "delooping", n, detail is None, detail
            yield "zigzag", n, ok_zig, None
        yield "star-involution", n, all(star(graph, star(graph, v)).eq(v) for v in vecs), None
        if n <= max(2, max_len // 2) and vecs:
            ok_gram = ok_mod = True
            for i, j, lhs, right, rhs in _inner_pairs(graph, vecs):
                if i == j:
                    (lf,) = vecs[i].terms
                    want_l = Coefficient.one(ctx)
                    want_r = Coefficient.of_weight(lf.weight.inverse())
                else:
                    want_l = want_r = Coefficient.zero(ctx)
                ok_gram = ok_gram and lhs.eq(want_l) and right.eq(want_r)
                ok_mod = ok_mod and lhs.eq(rhs)
            yield "gram", n, ok_gram, None
            yield "modular-relation", n, ok_mod, None
