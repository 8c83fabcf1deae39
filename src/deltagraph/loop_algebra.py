"""The loop-space model: vectors over based loops, cup/cap maps, star,
concatenation, the two inner products, the modular spectrum (read from walk
counts, verified by trie walks), and the TLJ relation suite behind
``tl-check``.

Vectors of length n are finitely supported linear combinations, with real
coefficients, of the loops of length n based at the graph's basepoint, on
which the TLJ(delta) maps act; so a vector stores no start vertex.  Cup
inserts a conjugate edge pair after position i (0 <= i <= n, position 0
anchoring at the basepoint) with coefficient w(e)^(1/2); cap contracts
positions i, i+1 (1 <= i <= n-1) when they are a conjugate pair, with
coefficient w(e_i)^(1/2).  With these conventions cap_(i+1) o cup_i =
delta * id and both zig-zag composites are the identity.

Since w(e) w(e-bar) = 1, cup and cap leave a loop's weight unchanged, so a
loop is its edges and its weight is read off them only where an output asks
for it.  Every vector belongs to one graph: it keys each loop by the tuple of
its edges' int indices in that graph's edge table (:class:`_EdgeTable`), and
each term carries a monomial, an id the table gives each exact
:class:`Weight` it meets, with a scalar.  Vectors of different graphs do not
combine.  The maps multiply monomials through the table's product rows,
exact for any exponent, and multiply scalars, and a loop's weight (star, the
modular operator, the Gram check) is read one way: the product of its edges'
w(e)^(1/2), over the conjugate-reversed loop for w(l)^(-1/2).  A :class:`Coefficient`, a plain
sum of weights, is interned where it scales a vector and built only where a
value leaves one; on a table that has met a float, every loop reads as the
float coefficient of its value.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .graph import (Edge, Path, VertexId, check_based_loop, enumerate_loops,
                    loop_weight_counts, unfair_log_sum, vid_key)
from .weights import Coefficient, Weight, group_weights
from .weights import _exact_coefficient, _real, _require_same_context


class _Row(dict):
    """Monomial a's products in one table: ``row[b]`` is the id of
    ``weights[a] * weights[b]``, interned on first use."""

    __slots__ = ("table", "a")

    def __init__(self, table: "_EdgeTable", a: int):
        self.table, self.a = table, a

    def __missing__(self, b: int) -> int:
        t = self.table
        got = self[b] = t.intern(t.weights[self.a] * t.weights[b])
        return got


class _EdgeTable:
    """The edges of one graph that its loop vectors key their terms by, and
    the monomials those terms carry.

    Each edge gets an int index when first seen, kept for the table's
    lifetime, and its conjugate, found by ``graph.conjugate_edge`` (the one
    conjugate rule, which raises ``GraphConstructionError``), is indexed
    with it; ``edges``, ``conj`` and ``sqrt`` hold, per index, the
    :class:`Edge`, the index of its conjugate and w(e)^(1/2) as ``(monomial
    id, scalar)``: ``(id, 1)`` for an exact weight, ``(0, value)`` for a
    float one.  ``weights`` holds the exact :class:`Weight` of each monomial
    id, id 0 the identity, and ``prod`` its product :class:`_Row`.
    ``floats`` records whether a float scalar has entered the table or its
    vectors.  An edge id that names two different edges raises
    ``ValueError``.  The table also memoizes the cup rows of each anchor off
    the frontier.
    """

    __slots__ = ("graph", "edges", "conj", "sqrt", "floats", "weights", "prod",
                 "_index", "_ids", "_rows")

    def __init__(self, graph):
        self.graph = graph
        self.edges: list[Edge] = []
        self.conj: list[int] = []
        self.sqrt: list[tuple] = []
        self.floats = False
        one = graph.context.identity()
        self.weights: list[Weight] = [one]
        self.prod: list[_Row] = [_Row(self, 0)]
        self._index: dict = {}  # edge id -> index
        self._ids: dict = {one: 0}  # Weight -> monomial id
        self._rows: dict = {}  # anchor -> cup rows

    def intern(self, w: Weight) -> int:
        """The monomial id of the exact weight w, a new one if w is new."""
        got = self._ids.get(w)
        if got is None:
            got = self._ids[w] = len(self.weights)
            self.weights.append(w)
            self.prod.append(_Row(self, got))
        return got

    def _add(self, e: Edge) -> int:
        k = self._index[e.eid] = len(self.edges)
        self.edges.append(e)
        self.conj.append(k)
        r = e.weight.sqrt()
        if r.is_exact:
            self.sqrt.append((self.intern(r), 1))
        else:
            self.sqrt.append((0, r.value))
            self.floats = True
        return k

    def index(self, e: Edge) -> int:
        k = self._index.get(e.eid)
        if k is None:
            ebar = self.graph.conjugate_edge(e)
            # a pair is indexed together, so a new edge's conjugate is new too
            k = self._add(e)
            j = k if ebar.eid == e.eid else self._add(ebar)
            self.conj[k], self.conj[j] = j, k
        elif self.edges[k] is not e and self.edges[k] != e:
            raise ValueError("edge id %r names two different edges" % (e.eid,))
        return k

    def rows(self, at: VertexId) -> tuple:
        """``(e, e-bar) + sqrt[e]`` for each edge e out of ``at``; memoized,
        except that a frontier anchor raises every time."""
        got = self._rows.get(at)
        if got is None:
            if self.graph.is_frontier(at):
                raise ValueError(
                    "cup anchored at %r, whose adjacency is truncated; enlarge the ball" % (at,)
                )
            ks = [self.index(e) for e in self.graph.out_edges(at)]
            got = self._rows[at] = tuple((k, self.conj[k]) + self.sqrt[k] for k in ks)
        return got

    def loop_sqrt(self, key: tuple[int, ...]) -> tuple:
        """w(l)^(1/2) of the path l with these edges, as in ``sqrt``.  Over
        the conjugate-reversed key it is w(l)^(-1/2)."""
        prod, sqrt = self.prod, self.sqrt
        m, f = 0, 1
        for k in key:
            mk, fk = sqrt[k]
            m = prod[m][mk]
            f = f * fk
        return m, f


def _table(graph) -> _EdgeTable:
    """The graph's edge table, made on first use and kept with the graph as
    its ``_edge_table`` attribute."""
    t = getattr(graph, "_edge_table", None)
    if t is None:
        t = graph._edge_table = _EdgeTable(graph)
    return t


def _one_table(table: _EdgeTable, v: "LoopVector") -> _EdgeTable:
    """``table``, once the vector ``v`` is seen to be keyed by it."""
    if v.table is not table:
        raise ValueError("loop vectors of different graphs do not combine")
    return table


class LoopVector:
    """Finitely supported linear combination of one graph's based loops of
    one length.

    A vector holds its ``length``, its graph's edge table and ``keyed``, a
    dict from ``(loop key, monomial id)`` to a nonzero scalar, the loop key
    being the tuple of the loop's edge indices into that table; each loop
    starts at ``table.graph.basepoint``.  The constructor drops the zero
    scalars of the dict it is given and, once the table has met a float,
    raises ``OverflowError`` for a scalar outside the float range; every
    map here ends in it.  :func:`loop_vector`, :func:`zero_vector` and
    :func:`basis` make a graph's vectors, and every map keeps its operands'
    table; operands of different graphs' tables raise ``ValueError``.
    ``terms`` reads a vector back as a dict from based :class:`Path` to
    coefficient, built on the first read.
    """

    __slots__ = ("length", "table", "keyed", "_terms")
    __hash__ = None  # mapping-valued; never used as a key

    def __init__(self, length: int, table: _EdgeTable, keyed: dict):
        if table.floats:
            for s in keyed.values():
                if type(s) is float and not -inf < s < inf:
                    raise OverflowError("coefficient %r is outside the float range" % s)
        if not all(keyed.values()):
            keyed = {k: s for k, s in keyed.items() if s}
        self.length, self.table, self.keyed = length, table, keyed
        self._terms = None

    @property
    def terms(self) -> dict[Path, Coefficient]:
        got = self._terms
        if got is None:
            t = self.table
            got = self._terms = {
                Path(t.graph.basepoint, tuple(t.edges[k] for k in key), t.graph.context): c
                for key, c in _loop_coefficients(self).items()
            }
        return got

    def is_zero(self) -> bool:
        return not self.keyed

    def __add__(self, other: "LoopVector") -> "LoopVector":
        if other.length != self.length:
            raise ValueError("length mismatch")
        acc = dict(self.keyed)
        for k, s in other.keyed.items():
            acc[k] = acc.get(k, 0) + s
        return LoopVector(self.length, _one_table(self.table, other), acc)

    def scaled(self, c: Coefficient) -> "LoopVector":
        """``c`` times the vector; a coefficient of another generator
        context raises ``ContextMismatchError``."""
        t = self.table
        if c.context is not t.graph.context:
            _require_same_context(t.graph.context, c.context)
        if c.terms is None:
            t.floats = True
            pairs = ((0, c.fvalue),)
        else:
            p = c._packed
            if p is None or p[0] is not t:
                p = c._packed = (t, tuple((t.intern(w), s) for w, s in c.terms))
            pairs = p[1]
        prod = t.prod
        acc: dict = {}
        get = acc.get
        for (key, mono), s in self.keyed.items():
            row = prod[mono]
            for m, r in pairs:
                k = (key, row[m])
                got = get(k)
                acc[k] = s * r if got is None else got + s * r
        return LoopVector(self.length, t, acc)

    def eq(self, other: "LoopVector") -> bool:
        """Loop-wise ``Coefficient.eq``, an absent loop counting as zero."""
        _one_table(self.table, other)
        if self.length != other.length:
            return False
        if self.keyed == other.keyed:
            return True
        a, b = _loop_coefficients(self), _loop_coefficients(other)
        zero = Coefficient.zero(self.table.graph.context)
        return all(a.get(key, zero).eq(b.get(key, zero)) for key in a.keys() | b.keys())

    def __eq__(self, other):
        if not isinstance(other, LoopVector):
            return NotImplemented
        _one_table(self.table, other)
        return self.length == other.length and self.keyed == other.keyed

    def __repr__(self):
        return "LoopVector(%d, %r)" % (self.length, self.terms)


def _coefficient(t: _EdgeTable, pairs) -> Coefficient:
    """The coefficient ``sum(s * m)`` of ``(monomial id m, scalar s)`` pairs
    with distinct ids.  Once the table has met a float, pairs read as the
    float coefficient of their value, summed in order of
    ``Weight.exponents``, so a loop whose float terms cancelled reads as the
    value of what is left; no pairs read as the exact zero."""
    ws = t.weights
    if t.floats and pairs:
        total = 0.0
        for m, s in sorted(pairs, key=lambda p: ws[p[0]].exponents):
            total += s * ws[m].value
        return _real(t.graph.context, total)
    return _exact_coefficient(t.graph.context, {ws[m]: s for m, s in pairs})


def _loop_coefficients(v: LoopVector) -> dict:
    """Each loop key of ``v`` with its coefficient, in order of first term."""
    groups: dict = {}
    for (key, m), s in v.keyed.items():
        groups.setdefault(key, []).append((m, s))
    return {key: _coefficient(v.table, pairs) for key, pairs in groups.items()}


def zero_vector(graph, length: int) -> LoopVector:
    """The zero vector of the graph's loops of this length."""
    return LoopVector(length, _table(graph), {})


def loop_vector(graph, l: Path, coeff: Coefficient | None = None) -> LoopVector:
    """``coeff`` (by default one) times the graph's loop l at the basepoint;
    any other path raises ``ValueError`` (:func:`graph.check_based_loop`)."""
    check_based_loop(graph, l)
    t = _table(graph)
    key = tuple(map(t.index, l.edges))
    one = LoopVector(len(l), t, {(key, 0): 1})
    return one if coeff is None else one.scaled(coeff)


def basis(graph, n: int) -> tuple[LoopVector, ...]:
    """The one-term vector of each of the graph's loops of length n."""
    t = _table(graph)
    index = t.index
    return tuple(LoopVector(n, t, {(tuple(map(index, l.edges)), 0): 1})
                 for l in enumerate_loops(graph, n))


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
    return v.table.edges[key[i - 1]].target if i else v.table.graph.basepoint


def cup(graph, v: LoopVector, i: int) -> LoopVector:
    """Insert a summed conjugate pair after edge i, weighted by w(e)^(1/2)."""
    if not 0 <= i <= v.length:
        raise IndexError("cup index %d out of range 0..%d" % (i, v.length))
    t = _one_table(_table(graph), v)
    prod = t.prod
    # no two terms share an entry: dropping the pair at i gives the old loop
    # key back, and multiplying by a fixed monomial is injective on ids
    acc: dict = {}
    for (key, mono), s in v.keyed.items():
        row, head, tail = prod[mono], key[:i], key[i:]
        for e, ebar, m, f in t.rows(_anchor(v, key, i)):
            acc[head + (e, ebar) + tail, row[m]] = s * f
    return LoopVector(v.length + 2, t, acc)


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
    t = v.table
    prod = t.prod
    acc: dict = {}
    get = acc.get
    for (key, mono), s in v.keyed.items():
        sq = _contraction(key[i - 1], key[i], t)
        if sq is not None:
            k = (key[: i - 1] + key[i + 1 :], prod[mono][sq[0]])
            got = get(k)
            acc[k] = s * sq[1] if got is None else got + s * sq[1]
    return LoopVector(v.length - 2, t, acc)


def star(graph, v: LoopVector) -> LoopVector:
    """The involution l -> w(l-bar)^(1/2) l-bar, with w(l-bar) = w(l)^-1; it
    is conjugate-linear, and coefficients are real."""
    t = _one_table(_table(graph), v)
    conj, prod = t.conj.__getitem__, t.prod
    # no two terms share an entry: reversal is injective on loop keys, and
    # multiplying by a fixed monomial is injective on ids
    acc: dict = {}
    for (key, mono), s in v.keyed.items():
        rev = tuple(map(conj, reversed(key)))
        m, f = t.loop_sqrt(rev)
        acc[rev, prod[mono][m]] = s * f
    return LoopVector(v.length, t, acc)


def concat(u: LoopVector, v: LoopVector) -> LoopVector:
    """Bilinear extension of loop concatenation (based loops always compose)."""
    t = _one_table(u.table, v)
    prod = t.prod
    acc: dict = {}
    for (k1, m1), s1 in u.keyed.items():
        for (k2, m2), s2 in v.keyed.items():
            k = (k1 + k2, prod[m1][m2])
            acc[k] = acc.get(k, 0) + s1 * s2
    return LoopVector(u.length + v.length, t, acc)


def inner(graph, f: LoopVector, g: LoopVector, side: str) -> Coefficient:
    """Left/right inner product by literal nested-cap evaluation.

    Both sides are linear in f and conjugate-linear in g; ``left`` evaluates
    caps on f * star(g), ``right`` on star(g) * f.  Returns the coefficient
    of the empty loop the caps leave.  The trie walks of ``_inner_pairs``
    give the same values on a whole basis at once; this is their reference.
    """
    if f.length != g.length:
        raise ValueError("length mismatch: %d vs %d" % (f.length, g.length))
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    n = f.length
    word = concat(f, star(graph, g)) if side == "left" else concat(star(graph, g), f)
    for k in range(n, 0, -1):
        word = cap(word, k)
    return _loop_coefficients(word).get((), Coefficient.zero(graph.context))


def apply_modular(v: LoopVector) -> LoopVector:
    """The diagonal modular operator: l -> w(l) * l."""
    t = v.table
    prod = t.prod
    acc: dict = {}
    for (key, mono), s in v.keyed.items():
        m, f = t.loop_sqrt(key)
        acc[key, prod[mono][prod[m][m]]] = s * (f * f)
    return LoopVector(v.length, t, acc)


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


def _capped(t: _EdgeTable, m: int, s, factors) -> Coefficient:
    """The term ``(m, s)`` times each cap coefficient in turn, as nested caps
    multiply it, as a coefficient (zero when ``cap`` would drop it)."""
    prod = t.prod
    for mk, fk in factors:
        m = prod[m][mk]
        s = s * fk
    return _coefficient(t, ((m, s),) if s else ())


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
    prod = t.prod
    zero = Coefficient.zero(graph.context)
    stars = [star(graph, h) for h in vecs]
    deltas = [apply_modular(f) for f in vecs]
    terms = []
    root = [{}, None]  # node: [edge index -> child node, basis index of a word's end]
    for j, h in enumerate(stars):
        (((word, mj), sj),) = h.keyed.items()
        terms.append((mj, sj))
        node = root
        for e in word:
            got = node[0].get(e)
            if got is None:
                got = node[0][e] = [{}, None]
            node = got
        node[1] = j
    for i, f in enumerate(vecs):
        (((key, mf), sf),) = f.keyed.items()
        (((_, mdf), sdf),) = deltas[i].keyed.items()
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
                zero if lsq is None else _capped(t, prod[mf][mj], sf * sj, lsq),
                zero if rsq is None else _capped(t, prod[mj][mf], sj * sf, rsq[::-1]),
                zero if rsq is None else _capped(t, prod[mj][mdf], sj * sdf, rsq[::-1]),
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
    """The outgoing weight sum at a cup anchor (never a frontier vertex),
    which cap_(i+1) o cup_i multiplies by, and the detail naming the anchor
    when the sum is not delta by ``validate``'s rule, :func:`unfair_log_sum`."""
    es = graph.out_edges(at)
    total = Coefficient.zero(graph.context)
    for e in es:
        total = total + Coefficient.of_weight(e.weight)
    if unfair_log_sum(graph, es) is None:
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
                    (s,) = _loop_coefficients(star(graph, vecs[i])).values()  # w(l)^(-1/2)
                    want_l = Coefficient.one(ctx)
                    want_r = s * s
                else:
                    want_l = want_r = Coefficient.zero(ctx)
                ok_gram = ok_gram and lhs.eq(want_l) and right.eq(want_r)
                ok_mod = ok_mod and lhs.eq(rhs)
            yield "gram", n, ok_gram, None
            yield "modular-relation", n, ok_mod, None
