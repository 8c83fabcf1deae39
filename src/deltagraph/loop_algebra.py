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
edge's conjugate, learnt from the graph, and w(e)^(1/2), so the maps hash and
compare only ints.  Vectors of different graphs do not combine.  Where a
loop's weight is asked for (star, the modular operator, the Gram check), it
is read one way: the product of its edges' w(e)^(1/2) under
``Coefficient``'s ``*``, taken over the conjugate-reversed loop for
w(l)^(-1/2).  Every map builds its result through one accumulator, ``_vec``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Edge, Path, VertexId, enumerate_loops, loop_weight_counts, vid_key
from .weights import Coefficient, Weight, group_weights


class _EdgeTable:
    """The edges of one graph that its loop vectors key their terms by.

    Each edge gets an int index when first seen, kept for the table's
    lifetime, and its conjugate, found by ``graph.conjugate_edge``, is
    indexed with it; ``edges``, ``conj`` and ``sqrt`` hold, per index, the
    :class:`Edge`, the index of its conjugate and w(e)^(1/2) as a
    coefficient.  A conjugate that does not name the edge back, or an edge
    id that names two different edges, raises ``ValueError``.  The table
    also memoizes the cup rows of each anchor off the frontier.
    """

    __slots__ = ("graph", "edges", "conj", "sqrt", "_index", "_rows")

    def __init__(self, graph):
        self.graph = graph
        self.edges: list[Edge] = []
        self.conj: list[int] = []
        self.sqrt: list[Coefficient] = []
        self._index: dict = {}  # edge id -> index
        self._rows: dict = {}  # anchor -> cup rows

    def _add(self, e: Edge) -> int:
        k = self._index[e.eid] = len(self.edges)
        self.edges.append(e)
        self.conj.append(k)
        self.sqrt.append(Coefficient.of_weight(e.weight.sqrt()))
        return k

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
        """``(e, e-bar, w(e)^(1/2))`` for each edge e out of ``at``, the
        edges as indices; memoized, except that a frontier anchor raises
        every time."""
        got = self._rows.get(at)
        if got is None:
            if self.graph.is_frontier(at):
                raise ValueError(
                    "cup anchored at %r, whose adjacency is truncated; enlarge the ball" % (at,)
                )
            got = []
            for e in self.graph.out_edges(at):
                k = self.index(e)
                got.append((k, self.conj[k], self.sqrt[k]))
            got = self._rows[at] = tuple(got)
        return got

    def sqrt_weight(self, key: tuple[int, ...]) -> Coefficient:
        """w(l)^(1/2) of the path l with these edges: the product of their
        w(e)^(1/2).  Over the conjugate-reversed key it is w(l)^(-1/2)."""
        c = Coefficient.one(self.graph.context)
        for k in key:
            c = c * self.sqrt[k]
        return c


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
    graph's edge table and ``keyed``, a dict from tuples of edge indices into
    that table to nonzero coefficients.  :func:`loop_vector`,
    :func:`zero_vector` and :func:`basis` make the vectors of a graph, and
    every map here keeps its operands' table; operands from different
    graphs' tables raise ``ValueError``.  ``terms`` reads a vector back as a
    dict from :class:`Path` to coefficient, built when read.
    """

    __slots__ = ("length", "start", "table", "keyed")
    __hash__ = None  # mapping-valued; never used as a key

    def __init__(self, length: int, start: VertexId, table: _EdgeTable, keyed: dict):
        self.length, self.start, self.table, self.keyed = length, start, table, keyed

    @property
    def terms(self) -> dict[Path, Coefficient]:
        t = self.table
        return {Path(self.start, tuple(t.edges[k] for k in key), t.graph.context): c
                for key, c in self.keyed.items()}

    def is_zero(self) -> bool:
        return not self.keyed

    def __add__(self, other: "LoopVector") -> "LoopVector":
        if other.length != self.length:
            raise ValueError("length mismatch")
        t = _one_table(self.table, other)
        if self.keyed and other.keyed and self.start != other.start:
            raise ValueError("the loops of a vector share one start vertex")
        start = self.start if self.keyed else other.start
        return _vec(self.length, start, t, [*self.keyed.items(), *other.keyed.items()])

    def scaled(self, c: Coefficient) -> "LoopVector":
        return _vec(self.length, self.start, self.table,
                    [(key, c0 * c) for key, c0 in self.keyed.items()])

    def eq(self, other: "LoopVector") -> bool:
        """Coefficient-wise ``Coefficient.eq``, an absent loop counting as zero."""
        _one_table(self.table, other)
        if self.length != other.length:
            return False
        a, b = self.keyed, other.keyed
        if a and b and self.start != other.start:
            b = {(None,) + key: c for key, c in b.items()}  # no loop in common
        elif a == b:
            return True
        for key in a.keys() | b.keys():
            x, y = a.get(key), b.get(key)
            if x is None:
                x = Coefficient.zero(y.context)
            elif y is None:
                y = Coefficient.zero(x.context)
            if not x.eq(y):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, LoopVector):
            return NotImplemented
        _one_table(self.table, other)
        return (self.length == other.length and self.keyed == other.keyed
                and (not self.keyed or self.start == other.start))

    def __repr__(self):
        return "LoopVector(%d, %r)" % (self.length, self.terms)


def _vec(length: int, start: VertexId, table: _EdgeTable, pairs) -> LoopVector:
    """The sum of the ``(key, coefficient)`` pairs, in their order, as a
    vector of the given length; loops whose coefficients sum to zero are
    dropped."""
    acc: dict = {}
    for key, c in pairs:
        got = acc.get(key)
        acc[key] = c if got is None else got + c
    return LoopVector(length, start, table, {key: c for key, c in acc.items() if not c.is_zero()})


def _sorted_keys(v: LoopVector) -> list:
    edges = v.table.edges
    return sorted(v.keyed, key=lambda key: tuple(vid_key(edges[k].eid) for k in key))


def zero_vector(graph, length: int) -> LoopVector:
    """The zero vector of the graph's loops of this length."""
    return LoopVector(length, graph.basepoint, _table(graph), {})


def loop_vector(graph, l: Path, coeff: Coefficient | None = None) -> LoopVector:
    """``coeff`` (by default one) times the graph's loop l."""
    t = _table(graph)
    c = coeff if coeff is not None else Coefficient.one(graph.context)
    return _vec(len(l), l.start, t, [(tuple(map(t.index, l.edges)), c)])


def basis(graph, n: int) -> tuple[LoopVector, ...]:
    return tuple(loop_vector(graph, l) for l in enumerate_loops(graph, n))


def format_vector(v: LoopVector) -> str:
    """One line per term: ``(coefficient-text) eid eid ...``."""
    lines = []
    for key in _sorted_keys(v):
        ids = " ".join(str(v.table.edges[k].eid) for k in key) or "-"
        lines.append("(%s) %s" % (v.keyed[key].text(), ids))
    return "\n".join(lines) if lines else "(0)"


def _anchor(v: LoopVector, key: tuple[int, ...], i: int) -> VertexId:
    """The vertex that the first i edges of the loop ``key`` lead to."""
    return v.table.edges[key[i - 1]].target if i else v.start


def cup(graph, v: LoopVector, i: int) -> LoopVector:
    """Insert a summed conjugate pair after edge i, weighted by w(e)^(1/2)."""
    if not 0 <= i <= v.length:
        raise IndexError("cup index %d out of range 0..%d" % (i, v.length))
    t = _one_table(_table(graph), v)
    pairs = []
    for key, c in v.keyed.items():
        head, tail = key[:i], key[i:]
        for e, ebar, sq in t.rows(_anchor(v, key, i)):
            pairs.append((head + (e, ebar) + tail, c * sq))
    return _vec(v.length + 2, v.start, t, pairs)


def _contraction(e1: int, e2: int, table: _EdgeTable):
    """The cap rule for the adjacent edges e1, e2 (indices into ``table``):
    None unless they are a conjugate pair, else the coefficient
    ``w(e1)^(1/2)``.  ``cap`` and the trie walk of ``_inner_pairs`` both
    contract through here."""
    return table.sqrt[e1] if table.conj[e1] == e2 else None


def cap(v: LoopVector, i: int) -> LoopVector:
    """Contract edges i, i+1 when conjugate, weighted by w(e_i)^(1/2)."""
    if v.length < 2:
        raise IndexError("cap needs length >= 2")
    if not 1 <= i <= v.length - 1:
        raise IndexError("cap index %d out of range 1..%d" % (i, v.length - 1))
    t = v.table
    pairs = []
    for key, c in v.keyed.items():
        sq = _contraction(key[i - 1], key[i], t)
        if sq is not None:
            pairs.append((key[: i - 1] + key[i + 1 :], c * sq))
    return _vec(v.length - 2, v.start, t, pairs)


def star(graph, v: LoopVector) -> LoopVector:
    """The involution l -> w(l-bar)^(1/2) l-bar, with w(l-bar) = w(l)^-1; it
    is conjugate-linear, and coefficients are real."""
    t = _one_table(_table(graph), v)
    pairs = []
    ends = set()
    for key, c in v.keyed.items():
        rev = tuple(map(t.conj.__getitem__, reversed(key)))
        pairs.append((rev, c * t.sqrt_weight(rev)))
        ends.add(_anchor(v, key, v.length))
    if len(ends) > 1:
        raise ValueError("the loops of a vector share one start vertex")
    return _vec(v.length, ends.pop() if ends else v.start, t, pairs)


def concat(u: LoopVector, v: LoopVector) -> LoopVector:
    """Bilinear extension of loop concatenation."""
    t = _one_table(u.table, v)
    if v.keyed and any(_anchor(u, key, u.length) != v.start for key in u.keyed):
        raise ValueError("paths do not compose")
    return _vec(u.length + v.length, u.start, t, [
        (k1 + k2, c1 * c2) for k1, c1 in u.keyed.items() for k2, c2 in v.keyed.items()
    ])


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
    got = word.keyed.get(()) if word.start == graph.basepoint else None
    return got if got is not None else Coefficient.zero(graph.context)


def apply_modular(v: LoopVector) -> LoopVector:
    """The diagonal modular operator: l -> w(l) * l."""
    t = v.table
    pairs = []
    for key, c in v.keyed.items():
        s = t.sqrt_weight(key)
        pairs.append((key, c * (s * s)))
    return _vec(v.length, v.start, t, pairs)


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
    t = _table(graph)
    zero = Coefficient.zero(graph.context)
    stars = []
    root = [{}, None]  # node: [edge index -> child node, basis index of a word's end]
    for j, h in enumerate(vecs):
        ((word, c),) = star(graph, h).keyed.items()
        stars.append(c)
        node = root
        for e in word:
            got = node[0].get(e)
            if got is None:
                got = node[0][e] = [{}, None]
            node = got
        node[1] = j
    for i, f in enumerate(vecs):
        ((key, cf),) = f.keyed.items()
        ((_, cdf),) = apply_modular(f).keyed.items()
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
    None.  Comparisons are ``LoopVector.eq``/``Coefficient.eq``.  A negative
    ``max_len`` raises ``ValueError``.
    """
    if max_len < 0:
        raise ValueError("maximum loop length must be nonnegative")
    ctx = graph.context
    for n in range(max_len + 1):
        vecs = basis(graph, n)
        if n <= max_len - 2:
            detail = None
            ok_zig = True
            for v in vecs:
                (key,) = v.keyed
                for i in range(n + 1):
                    up = cup(graph, v, i)
                    anchor_sum = Coefficient.zero(ctx)
                    for e in graph.out_edges(_anchor(v, key, i)):
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
                    (key,) = vecs[i].keyed
                    t = vecs[i].table
                    s = t.sqrt_weight(tuple(map(t.conj.__getitem__, reversed(key))))
                    want_l = Coefficient.one(ctx)
                    want_r = s * s
                else:
                    want_l = want_r = Coefficient.zero(ctx)
                ok_gram = ok_gram and lhs.eq(want_l) and right.eq(want_r)
                ok_mod = ok_mod and lhs.eq(rhs)
            yield "gram", n, ok_gram, None
            yield "modular-relation", n, ok_mod, None
