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
for it.  Every vector belongs to one graph: it keys each loop by the tuple of
its edges' int indices in that graph's edge table, which also holds each
edge's conjugate, learnt from the graph, and w(e)^(1/2) as a packed monomial
and a scalar.  Vectors of different graphs do not combine.  A vector's
terms are one dict ``(loop key, packed monomial) -> scalar`` under one
packing, so the maps add monomials and multiply scalars, and a loop's weight
(star, the modular operator, the Gram check) is read one way: the sum of its
edges' monomials and the product of their scalars, over the
conjugate-reversed loop for w(l)^(-1/2).

This module alone knows the packing: a monomial's exponent numerators over
a denominator ``_den`` are one int, ``sum(n_i * B**i)`` over the generators
in context order, with balanced digits in ``[-B/2, B/2)`` (``_half`` is B/2).
Each vector, edge table and packed coefficient bounds its digits' size by
``_top`` below B/2, and a product that could pass it re-packs its operands at
a wider digit first (:func:`_aligned`, :func:`_repacked`), so results stay
exact for any exponent.  A :class:`Coefficient`, a plain sum of weights, is
packed where it scales a vector and built only where a value leaves one.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf, lcm, log

from .graph import Edge, Path, VertexId, enumerate_loops, loop_weight_counts, vid_key
from .weights import Coefficient, Weight, group_weights
from .weights import _exact, _exact_coefficient, _log_sum, _real

# Packed digits start 32 bits wide, in [-2^31, 2^31); digits that need more
# are re-packed at twice the width.
_HALF = 1 << 31


def _pack(num, half: int) -> int:
    """``sum(n_i * B**i)`` for the base ``B = 2 * half``."""
    bits = half.bit_length()
    key = 0
    for n in reversed(num):
        key = (key << bits) + n
    return key


def _unpack(key: int, size: int, half: int) -> tuple[int, ...]:
    """The ``size`` balanced digits, in ``[-half, half)``, of a packed key."""
    bits, mask = half.bit_length(), 2 * half - 1
    num = []
    for _ in range(size):
        d = ((key + half) & mask) - half
        num.append(d)
        key = (key - d) >> bits
    return tuple(num)


def _half_for(top: int, half: int = _HALF) -> int:
    """``half``, doubled in width until digits of size ``top`` fit."""
    while top >= half:
        half = 1 << (2 * half.bit_length() - 1)
    return half


def _aligned(*xs) -> tuple[int, int, int]:
    """``(den, half, top)`` for a product of ``xs`` (loop vectors, edge
    tables or packed coefficients, each packed by its ``_den``, ``_half``
    and ``_top``): the lcm of their denominators, the sum ``top`` of their
    bounds over it, and a width, at least each of theirs, that holds it.
    A product or sum of any of ``xs``, repeats counted, fits it."""
    den = lcm(*(x._den for x in xs))
    top = sum(x._top * (den // x._den) for x in xs)
    return den, _half_for(top, max(x._half for x in xs)), top


def _repacked(x, den: int, half: int, size: int):
    """``(f, top)``: ``f`` re-packs a monomial of ``x``, over ``size``
    generators, at a packing from :func:`_aligned` of x and more, and
    ``top`` is x's bound there."""
    m, old = den // x._den, x._half
    if half == old:
        return m.__mul__, x._top * m
    return (lambda k: _pack([n * m for n in _unpack(k, size, old)], half)), x._top * m


class _Packed:
    """An exact coefficient's terms as ``pairs`` of (packed monomial,
    scalar), over ``_den = lcm(2, their denominators)`` at the width that
    holds their digits, ``_top``.  :meth:`LoopVector.scaled` keeps one on
    the coefficient, as its ``_packed``, from first use."""

    __slots__ = ("pairs", "_den", "_half", "_top")

    def __init__(self, terms: tuple):
        den = self._den = lcm(2, *(w.den for w, _ in terms))
        nums = [[n * (den // w.den) for n in w.num] for w, _ in terms]
        self._top = max((abs(n) for num in nums for n in num), default=0)
        self._half = _half_for(self._top)
        self.pairs = tuple((_pack(num, self._half), s) for num, (_, s) in zip(nums, terms))


class _EdgeTable:
    """The edges of one graph that its loop vectors key their terms by.

    Each edge gets an int index when first seen, kept for the table's
    lifetime, and its conjugate, found by ``graph.conjugate_edge``, is
    indexed with it; ``edges``, ``conj`` and ``sqrt`` hold, per index, the
    :class:`Edge`, the index of its conjugate and w(e)^(1/2) as ``(packed
    monomial, scalar)``: ``(m, 1)`` for an exact weight, ``(0, value)`` for a
    float one.  The monomials share the table's packing ``(_den, _half,
    _top)``, which only widens.  ``floats`` records whether a float scalar
    has entered the table or its vectors.  A conjugate that does not name
    the edge back, or an edge id that names two different edges, raises
    ``ValueError``.  The table also memoizes the cup rows of each anchor off
    the frontier, and the :class:`Weight` of each packed monomial read out.
    """

    __slots__ = ("graph", "edges", "conj", "sqrt", "floats", "_index", "_rows", "_weights",
                 "_den", "_half", "_top")

    def __init__(self, graph):
        self.graph = graph
        self.edges: list[Edge] = []
        self.conj: list[int] = []
        self.sqrt: list[tuple] = []
        self.floats = False
        self._index: dict = {}  # edge id -> index
        self._rows: dict = {}  # anchor -> cup rows
        self._weights: dict = {}  # (monomial, den, half) -> Weight
        self._den, self._half, self._top = 2, _HALF, 0

    def _add(self, e: Edge) -> int:
        k = self._index[e.eid] = len(self.edges)
        self.edges.append(e)
        self.conj.append(k)
        r = e.weight.sqrt()
        if r.is_exact:
            den = lcm(self._den, r.den)
            num = [n * (den // r.den) for n in r.num]
            top = max(map(abs, num), default=0)
            self.repack(den, _half_for(max(top, self._top * (den // self._den)), self._half))
            self.sqrt.append((_pack(num, self._half), 1))
            self._top = max(self._top, top)
        else:
            self.sqrt.append((0, r.value))
            self.floats = True
        return k

    def repack(self, den: int, half: int) -> None:
        """Re-pack over ``den`` at the width of ``half``, from ``_aligned``."""
        if den != self._den or half != self._half:
            f, self._top = _repacked(self, den, half, len(self.graph.context.names))
            self.sqrt = [(f(m), s) for m, s in self.sqrt]
            self._den, self._half = den, half
            self._rows.clear()

    def index(self, e: Edge) -> int:
        k = self._index.get(e.eid)
        if k is None:
            ebar = self.graph.conjugate_edge(e)
            if ebar.conjugate != e.eid:
                raise ValueError("the conjugate %r of edge %r has conjugate %r"
                                 % (ebar.eid, e.eid, ebar.conjugate))
            # a pair is indexed together, so a new edge's conjugate is new too
            k = self._add(e)
            j = k if ebar.eid == e.eid else self._add(ebar)
            self.conj[k], self.conj[j] = j, k
        elif self.edges[k] is not e and self.edges[k] != e:
            raise ValueError("edge id %r names two different edges" % (e.eid,))
        return k

    def rows(self, at: VertexId) -> tuple:
        """``(e, e-bar) + sqrt[e]`` for each edge e out of ``at``; memoized
        until the table re-packs, except that a frontier anchor raises every
        time."""
        got = self._rows.get(at)
        if got is None:
            if self.graph.is_frontier(at):
                raise ValueError(
                    "cup anchored at %r, whose adjacency is truncated; enlarge the ball" % (at,)
                )
            ks = [self.index(e) for e in self.graph.out_edges(at)]
            got = self._rows[at] = tuple((k, self.conj[k]) + self.sqrt[k] for k in ks)
        return got

    def weight(self, m: int, den: int, half: int) -> Weight:
        """The weight of the monomial m packed at ``(den, half)``; memoized."""
        got = self._weights.get((m, den, half))
        if got is None:
            ctx = self.graph.context
            got = self._weights[m, den, half] = _exact(ctx, _unpack(m, len(ctx.names), half), den)
        return got

    def loop_sqrt(self, key: tuple[int, ...]) -> tuple:
        """w(l)^(1/2) of the path l with these edges, as in ``sqrt``.  Over
        the conjugate-reversed key it is w(l)^(-1/2)."""
        m, f = 0, 1
        for k in key:
            mk, fk = self.sqrt[k]
            m += mk
            f = f * fk
        return m, f


def _table(graph) -> _EdgeTable:
    """The graph's edge table, made on first use and kept with the graph as
    its ``_edge_table`` attribute."""
    t = getattr(graph, "_edge_table", None)
    if t is None:
        t = graph._edge_table = _EdgeTable(graph)
    return t


def _one_table(table: _EdgeTable, *vs: "LoopVector") -> _EdgeTable:
    """``table``, once every vector of ``vs`` is seen to be keyed by it."""
    for v in vs:
        if v.table is not table:
            raise ValueError("loop vectors of different graphs do not combine")
    return table


class LoopVector:
    """Finitely supported linear combination of based loops of one length,
    on one graph.

    A vector holds its ``length``, the ``start`` vertex its loops share, its
    graph's edge table and ``keyed``, a dict from ``(loop key, packed
    monomial)`` to a nonzero scalar, the loop key being the tuple of the
    loop's edge indices into that table; the monomials are packed by
    ``(_den, _half, _top)``.  :func:`loop_vector`,
    :func:`zero_vector` and :func:`basis` make the vectors of a graph, and
    every map here keeps its operands' table; operands from different
    graphs' tables raise ``ValueError``.  ``terms`` reads a vector back as a
    dict from :class:`Path` to coefficient, built on the first read.
    """

    __slots__ = ("length", "start", "table", "keyed", "_den", "_half", "_top", "_terms")
    __hash__ = None  # mapping-valued; never used as a key

    def __init__(self, length: int, start: VertexId, table: _EdgeTable, keyed: dict,
                 den: int, half: int, top: int):
        self.length, self.start, self.table, self.keyed = length, start, table, keyed
        self._den, self._half, self._top, self._terms = den, half, top, None

    @property
    def terms(self) -> dict[Path, Coefficient]:
        got = self._terms
        if got is None:
            t = self.table
            got = self._terms = {
                Path(self.start, tuple(t.edges[k] for k in key), t.graph.context): c
                for key, c in _loop_coefficients(self).items()
            }
        return got

    def is_zero(self) -> bool:
        return not self.keyed

    def __add__(self, other: "LoopVector") -> "LoopVector":
        if other.length != self.length:
            raise ValueError("length mismatch")
        t = _one_table(self.table, other)
        if self.keyed and other.keyed and self.start != other.start:
            raise ValueError("the loops of a vector share one start vertex")
        x, y = _aligned_pair(self, other)
        return _vec(self.length, self.start if self.keyed else other.start, t,
                    [*x.keyed.items(), *y.keyed.items()], x._den, x._half, max(x._top, y._top))

    def scaled(self, c: Coefficient) -> "LoopVector":
        t, v = self.table, self
        if c.terms is None:
            t.floats = True
            pairs, top = ((0, c.fvalue),), v._top
        else:
            p = c._packed
            if p is None:
                p = c._packed = _Packed(c.terms)
            pairs, top = p.pairs, v._top + p._top
            if p._den != v._den or p._half != v._half or top >= v._half:
                den, half, top = _aligned(v, p)
                v, (f, _) = _at(v, den, half), _repacked(p, den, half, len(c.context.names))
                pairs = [(f(m), s) for m, s in pairs]
        return _vec(v.length, v.start, t, [((key, mono + m), s * r)
                                           for (key, mono), s in v.keyed.items()
                                           for m, r in pairs], v._den, v._half, top)

    def eq(self, other: "LoopVector") -> bool:
        """Loop-wise ``Coefficient.eq``, an absent loop counting as zero."""
        _one_table(self.table, other)
        if self.length != other.length:
            return False
        x, y = _aligned_pair(self, other)
        if x.keyed == y.keyed and (not x.keyed or x.start == y.start):
            return True
        a, b = _loop_coefficients(x), _loop_coefficients(y)
        if a and b and x.start != y.start:
            b = {(None,) + key: c for key, c in b.items()}  # no loop in common
        zero = Coefficient.zero(self.table.graph.context)
        return all(a.get(key, zero).eq(b.get(key, zero)) for key in a.keys() | b.keys())

    def __eq__(self, other):
        if not isinstance(other, LoopVector):
            return NotImplemented
        _one_table(self.table, other)
        x, y = _aligned_pair(self, other)
        return (self.length == other.length and x.keyed == y.keyed
                and (not x.keyed or self.start == other.start))

    def __repr__(self):
        return "LoopVector(%d, %r)" % (self.length, self.terms)


def _vec(length: int, start: VertexId, table: _EdgeTable, pairs, den: int, half: int,
         top: int) -> LoopVector:
    """The sum of the ``((loop key, monomial), scalar)`` pairs as a vector,
    less its zero scalars; once the table has met a float, a scalar outside
    the float range raises ``OverflowError``."""
    acc: dict = {}
    get = acc.get
    for k, s in pairs:
        got = get(k)
        acc[k] = s if got is None else got + s
    if table.floats:
        for s in acc.values():
            if type(s) is float and not -inf < s < inf:
                raise OverflowError("coefficient %r is outside the float range" % s)
    if not all(acc.values()):
        acc = {k: s for k, s in acc.items() if s}
    return LoopVector(length, start, table, acc, den, half, top)


def _at(v: LoopVector, den: int, half: int) -> LoopVector:
    """``v`` re-packed over ``den`` at the width of ``half``."""
    if v._den == den and v._half == half:
        return v
    f, top = _repacked(v, den, half, len(v.table.graph.context.names))
    return LoopVector(v.length, v.start, v.table,
                      {(key, f(m)): s for (key, m), s in v.keyed.items()}, den, half, top)


def _aligned_pair(u: LoopVector, v: LoopVector) -> tuple[LoopVector, LoopVector]:
    """``u`` and ``v`` re-packed at the packing of their product."""
    if u._den == v._den and u._half == v._half and u._top + v._top < u._half:
        return u, v
    den, half, _ = _aligned(u, v)
    return _at(u, den, half), _at(v, den, half)


def _fitted(v: LoopVector, k: int) -> LoopVector:
    """``v`` and its table at one packing that holds v times k (at least
    one) of the table's w(e)^(1/2)."""
    t = v.table
    if v._den != t._den or v._half != t._half or v._top + k * t._top >= v._half:
        den, half, _ = _aligned(v, *(t,) * max(k, 1))
        t.repack(den, half)
        v = _at(v, den, half)
    return v


def _coefficient(t: _EdgeTable, pairs, den: int, half: int) -> Coefficient:
    """The coefficient ``sum(s * m)`` of ``(packed monomial m, scalar s)``
    pairs with distinct monomials, packed over ``den`` at the width of
    ``half``; when a scalar is a float, the float coefficient of its value,
    summed in order of ``m``."""
    if t.floats and any(type(s) is float for _, s in pairs):
        total = 0.0
        for m, s in sorted(pairs):
            total += s * t.weight(m, den, half).value if m else s
        return _real(t.graph.context, total)
    return _exact_coefficient(t.graph.context, {t.weight(m, den, half): s for m, s in pairs})


def _loop_coefficients(v: LoopVector) -> dict:
    """Each loop key of ``v`` with its coefficient, in order of first term."""
    groups: dict = {}
    for (key, m), s in v.keyed.items():
        groups.setdefault(key, []).append((m, s))
    return {key: _coefficient(v.table, pairs, v._den, v._half) for key, pairs in groups.items()}


def zero_vector(graph, length: int) -> LoopVector:
    """The zero vector of the graph's loops of this length."""
    t = _table(graph)
    return LoopVector(length, graph.basepoint, t, {}, t._den, t._half, 0)


def loop_vector(graph, l: Path, coeff: Coefficient | None = None) -> LoopVector:
    """``coeff`` (by default one) times the graph's loop l."""
    t = _table(graph)
    key = tuple(map(t.index, l.edges))
    one = LoopVector(len(l), l.start, t, {(key, 0): 1}, t._den, t._half, 0)
    return one if coeff is None else one.scaled(coeff)


def basis(graph, n: int) -> tuple[LoopVector, ...]:
    return tuple(loop_vector(graph, l) for l in enumerate_loops(graph, n))


def format_vector(v: LoopVector) -> str:
    """One line per loop: ``(coefficient-text) eid eid ...``."""
    edges = v.table.edges
    coeffs = _loop_coefficients(v)
    lines = []
    for key in sorted(coeffs, key=lambda key: tuple(vid_key(edges[k].eid) for k in key)):
        ids = " ".join(str(edges[k].eid) for k in key) or "-"
        lines.append("(%s) %s" % (coeffs[key].text(), ids))
    return "\n".join(lines) if lines else "(0)"


def _anchor(v: LoopVector, key: tuple[int, ...], i: int) -> VertexId:
    """The vertex that the first i edges of the loop ``key`` lead to."""
    return v.table.edges[key[i - 1]].target if i else v.start


def cup(graph, v: LoopVector, i: int) -> LoopVector:
    """Insert a summed conjugate pair after edge i, weighted by w(e)^(1/2)."""
    if not 0 <= i <= v.length:
        raise IndexError("cup index %d out of range 0..%d" % (i, v.length))
    t = _one_table(_table(graph), v)
    while True:
        v = _fitted(v, 1)
        den, half = v._den, v._half
        pairs = [((key[:i] + (e, ebar) + key[i:], mono + m), s * f)
                 for (key, mono), s in v.keyed.items()
                 for e, ebar, m, f in t.rows(_anchor(v, key, i))]
        # an anchor's new edges may re-pack the table: then the pass reruns
        top = v._top + t._top
        if t._den == den and t._half == half and top < half:
            return _vec(v.length + 2, v.start, t, pairs, den, half, top)


def _contraction(e1: int, e2: int, table: _EdgeTable):
    """The cap rule for the adjacent edges e1, e2 (indices into ``table``):
    None unless they are a conjugate pair, else ``sqrt[e1]``.  ``cap`` and
    the trie walk of ``_inner_pairs`` both contract through here."""
    return table.sqrt[e1] if table.conj[e1] == e2 else None


def cap(v: LoopVector, i: int) -> LoopVector:
    """Contract edges i, i+1 when conjugate, weighted by w(e_i)^(1/2)."""
    if v.length < 2:
        raise IndexError("cap needs length >= 2")
    if not 1 <= i <= v.length - 1:
        raise IndexError("cap index %d out of range 1..%d" % (i, v.length - 1))
    v = _fitted(v, 1)
    t = v.table
    pairs = []
    for (key, mono), s in v.keyed.items():
        sq = _contraction(key[i - 1], key[i], t)
        if sq is not None:
            pairs.append(((key[: i - 1] + key[i + 1 :], mono + sq[0]), s * sq[1]))
    return _vec(v.length - 2, v.start, t, pairs, v._den, v._half, v._top + t._top)


def star(graph, v: LoopVector) -> LoopVector:
    """The involution l -> w(l-bar)^(1/2) l-bar, with w(l-bar) = w(l)^-1; it
    is conjugate-linear, and coefficients are real."""
    t = _one_table(_table(graph), v)
    v = _fitted(v, v.length)
    conj = t.conj.__getitem__
    pairs = []
    ends = set()
    for (key, mono), s in v.keyed.items():
        rev = tuple(map(conj, reversed(key)))
        m, f = t.loop_sqrt(rev)
        pairs.append(((rev, mono + m), s * f))
        ends.add(_anchor(v, key, v.length))
    if len(ends) > 1:
        raise ValueError("the loops of a vector share one start vertex")
    return _vec(v.length, ends.pop() if ends else v.start, t, pairs,
                v._den, v._half, v._top + v.length * t._top)


def concat(u: LoopVector, v: LoopVector) -> LoopVector:
    """Bilinear extension of loop concatenation."""
    t = _one_table(u.table, v)
    if v.keyed and any(_anchor(u, key, u.length) != v.start for key, _ in u.keyed):
        raise ValueError("paths do not compose")
    den, half, top = _aligned(u, v)
    u, v = _at(u, den, half), _at(v, den, half)
    return _vec(u.length + v.length, u.start, t, [
        ((k1 + k2, m1 + m2), s1 * s2)
        for (k1, m1), s1 in u.keyed.items() for (k2, m2), s2 in v.keyed.items()
    ], den, half, top)


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
    if word.start != graph.basepoint:
        return Coefficient.zero(graph.context)
    return _loop_coefficients(word).get((), Coefficient.zero(graph.context))


def apply_modular(v: LoopVector) -> LoopVector:
    """The diagonal modular operator: l -> w(l) * l."""
    v = _fitted(v, 2 * v.length)
    t = v.table
    pairs = []
    for (key, mono), s in v.keyed.items():
        m, f = t.loop_sqrt(key)
        pairs.append(((key, mono + 2 * m), s * (f * f)))
    return _vec(v.length, v.start, t, pairs, v._den, v._half, v._top + 2 * v.length * t._top)


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


def _capped(t: _EdgeTable, m: int, s, factors, den: int, half: int) -> Coefficient:
    """The term ``(m, s)`` times each cap coefficient in turn, as nested caps
    multiply it, as a coefficient (zero when ``cap`` would drop it)."""
    for mk, fk in factors:
        m += mk
        s = s * fk
    return _coefficient(t, ((m, s),) if s else (), den, half)


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
    left, inward for right.  All terms share one packing, which bounds the
    sum of every operand's digits, so each word's term and its caps fit.
    """
    t = _table(graph)
    zero = Coefficient.zero(graph.context)
    stars = [star(graph, h) for h in vecs]
    deltas = [apply_modular(f) for f in vecs]
    if not vecs:
        return
    den, half, _ = _aligned(*vecs, *deltas, *stars, *(t,) * max(vecs[0].length, 1))
    t.repack(den, half)
    terms = []
    root = [{}, None]  # node: [edge index -> child node, basis index of a word's end]
    for j, h in enumerate(stars):
        (((word, mj), sj),) = _at(h, den, half).keyed.items()
        terms.append((mj, sj))
        node = root
        for e in word:
            got = node[0].get(e)
            if got is None:
                got = node[0][e] = [{}, None]
            node = got
        node[1] = j
    for i, f in enumerate(vecs):
        (((key, mf), sf),) = _at(f, den, half).keyed.items()
        (((_, mdf), sdf),) = _at(deltas[i], den, half).keyed.items()
        # (node, left coefficients, right coefficients); None once a side dies
        live = [(root, (), ())]
        for e in reversed(key):
            nxt = []
            for node, lsq, rsq in live:
                for e2, child in node[0].items():
                    a = lsq is not None and _contraction(e, e2, t)
                    b = rsq is not None and _contraction(e2, e, t)
                    if a or b:
                        nxt.append((child, lsq + (a,) if a else None,
                                    rsq + (b,) if b else None))
            live = nxt
        rows = {}
        for node, lsq, rsq in live:
            j = node[1]
            mj, sj = terms[j]
            rows[j] = (
                zero if lsq is None else _capped(t, mf + mj, sf * sj, lsq, den, half),
                zero if rsq is None else _capped(t, mj + mf, sj * sf, rsq[::-1], den, half),
                zero if rsq is None else _capped(t, mj + mdf, sj * sdf, rsq[::-1], den, half),
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


def _anchor_sum(graph, at: VertexId) -> tuple[Coefficient, str | None]:
    """The outgoing weight sum at a cup anchor, which cap_(i+1) o cup_i
    multiplies by, and the detail naming the anchor when the sum is not
    delta, compared through logs (:func:`weights._log_sum`) as ``validate``
    does, so no exponent overflows.  (A cup never anchors on the frontier.)"""
    es = graph.out_edges(at)
    total = Coefficient.zero(graph.context)
    for e in es:
        total = total + Coefficient.of_weight(e.weight)
    if abs(_log_sum(e.weight for e in es) - log(graph.delta)) <= graph.context.tolerance:
        return total, None
    return total, "  anchor %r: outgoing sum %s != delta %r" % (at, total.text(), graph.delta)


def relations(graph, max_len: int):
    """The TLJ(delta) relation suite on the loop spaces of length 0..max_len.

    Yields ``(name, n, passed, detail)`` records, in this order for each n:

    - for n <= max_len - 2, at every cup position i of every basis loop:
      ``delooping`` (cap_(i+1) o cup_i is delta: it is the outgoing weight
      sum at the cup anchor, which must equal delta within the context's
      tolerance) and ``zigzag`` (cap_i o cup_i and cap_(i+2) o cup_i are
      the identity where defined);
    - ``star-involution`` (star o star = id);
    - for n <= max(2, max_len // 2) when loops exist, over every basis pair:
      ``gram`` (left Gram matrix the identity, right one diag(1/w(l))) and
      ``modular-relation`` (inner(f, g, left) == inner(Delta f, g, right)).
      The inner products come from trie walks at O(N n) cap steps for N
      loops of length n, as in ``modular_spectrum``; the pairs the walks do
      not reach are zero on every side.

    ``detail`` names the first unfair anchor (:func:`_anchor_sum`), or gives
    the got/want text of the first failed delooping, at n; else None.
    Comparisons are ``LoopVector.eq``/``Coefficient.eq``.  A negative
    ``max_len`` raises ``ValueError``.
    """
    if max_len < 0:
        raise ValueError("maximum loop length must be nonnegative")
    ctx = graph.context
    targets = {}  # cup anchor -> _anchor_sum: the delooping target, and if unfair, why
    for n in range(max_len + 1):
        vecs = basis(graph, n)
        if n <= max_len - 2:
            detail = None
            ok_zig = True
            for v in vecs:
                ((key, _),) = v.keyed
                for i in range(n + 1):
                    up = cup(graph, v, i)
                    got = cap(up, i + 1)
                    at = _anchor(v, key, i)
                    if at not in targets:
                        targets[at] = _anchor_sum(graph, at)
                    target, unfair = targets[at]
                    want = v.scaled(target)
                    if detail is None and unfair:
                        detail = unfair
                    elif detail is None and not got.eq(want):
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
                    (s,) = star(graph, vecs[i]).terms.values()  # w(l)^(-1/2)
                    want_l = Coefficient.one(ctx)
                    want_r = s * s
                else:
                    want_l = want_r = Coefficient.zero(ctx)
                ok_gram = ok_gram and lhs.eq(want_l) and right.eq(want_r)
                ok_mod = ok_mod and lhs.eq(rhs)
            yield "gram", n, ok_gram, None
            yield "modular-relation", n, ok_mod, None
