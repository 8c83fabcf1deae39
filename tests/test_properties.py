"""Structural claims as properties over drawn builder graphs and radii.

    - the tracial cover is tracial, and its vertex weighting is ``nu``
    - recovering a graph from its cover reproduces the ball on interiors
    - the cover of a shift quotient reproduces the ball on interiors
    - serialize(parse(text)) == text for balls and for weighted covers
    - ``parse_graph`` on a mutated document raises only ``GraphFormatError``
    - on integer combinations of basis loops of length n <= 4: delooping
      scales each loop by its anchor's out-sum, both zig-zags and star o star
      are the identity, and ``inner`` equals the trie rows of ``_inner_pairs``
    - on the same combinations over every oracle graph, cup, cap, star,
      concat, scaled, the modular operator and both inner products read back
      as a reference model that multiplies ``Coefficient``s over ``Path``s,
      also when scaled by coefficients whose exponents pass 2^31 and 2^63
    - ``iso_check`` and ``partial_automorphisms`` give the mappings, in the
      order, of a reference model that matches edges weight by weight with a
      greedy scan, on every oracle graph's balls, on float read-backs and
      where a boundary vertex's edges inject without matching onto
    - the tolerance classes of one set of weights (``weights._Classes``) are
      its complete blocks in every order of adding, else every order raises,
      as a brute-force model says; ``group_weights`` agrees
"""

from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from deltagraph import (
    Coefficient,
    apply_modular,
    ball,
    basis,
    cap,
    chain_shift_action,
    concat,
    cayley,
    cup,
    cycle,
    deformed_chain,
    double_chain,
    grid,
    inner,
    iso_check,
    lattice_shift_action,
    parse_graph,
    partial_automorphisms,
    quotient,
    recover,
    serialize_graph,
    single_chain,
    star,
    tracial_cover,
    vertex_weighting,
    zero_vector,
)
from deltagraph.graph import Path, bfs_tree
from deltagraph.io import GraphFormatError
from deltagraph.loop_algebra import _inner_pairs
from deltagraph.weights import GeneratorContext, _Classes, group_weights
from test_exact_core import bound_exponent, rationals
from test_isomorphism import _float_ball
from test_loop_algebra import ORACLE_GRAPHS

WEIGHTS = st.sampled_from([2, 3, 0.5, 1.5])
graphs = st.one_of(
    st.builds(single_chain, WEIGHTS),
    st.builds(double_chain, WEIGHTS, WEIGHTS),
    st.builds(grid, WEIGHTS, st.sampled_from([1, 2, 3])),
    st.builds(cycle, st.integers(1, 5), st.sampled_from([1, 2, 3])),
    st.builds(cayley, st.lists(st.sampled_from([1, 2, 3, 0.5]), min_size=1, max_size=3)),
    st.builds(deformed_chain, st.sampled_from([1.05, 1.5, 2]), st.sampled_from([0, 0.3])),
)
radii = st.integers(0, 5)
PROPERTY = settings(max_examples=30, deadline=None)


@PROPERTY
@given(graphs, radii)
def test_cover_is_tracial(g, r):
    cov, nu = tracial_cover(g, r)
    wr = vertex_weighting(cov)
    assert wr, wr.witness
    assert set(wr.weighting) == set(cov.vertices) == set(nu)
    for cv in cov.vertices:
        assert wr.weighting[cv].eq(nu[cv])


@settings(PROPERTY, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graphs, st.integers(1, 5))
def test_recover_matches_ball_on_interiors(assert_carries_edges, g, r):
    rec = recover(g, r)
    b = ball(g, r)
    m = iso_check(rec, b, interior_only=True)
    assert m is not None
    assert_carries_edges(rec, b, m)


def _chain_shift(q, k):
    g = single_chain(q)
    return g, chain_shift_action(g, k)


def _grid_shift(a, b, vec):
    g = grid(a, b)
    return g, lattice_shift_action(g, vec)


shifts = st.one_of(
    st.builds(_chain_shift, WEIGHTS, st.integers(1, 4)),
    st.builds(
        _grid_shift, WEIGHTS, st.sampled_from([2, 3]),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any),
    ),
)


@settings(PROPERTY, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shifts, st.integers(1, 5))
def test_quotient_cover_roundtrip(assert_carries_edges, shifted, r):
    g, action = shifted
    cov, _ = tracial_cover(quotient(g, action, r), r)
    b = ball(g, r)
    m = iso_check(cov, b, interior_only=True)
    assert m is not None
    assert_carries_edges(cov, b, m)


@PROPERTY
@given(graphs, radii)
def test_serialize_parse_identity(g, r):
    text = serialize_graph(g, r)
    assert serialize_graph(parse_graph(text).graph, r) == text
    cov, nu = tracial_cover(g, r)
    text = serialize_graph(cov, weighting=nu)
    doc = parse_graph(text)
    assert serialize_graph(doc.graph, r, weighting=doc.vertex_weights) == text


def _documents():
    chain = single_chain(2)
    cov, nu = tracial_cover(double_chain(2, 3), 1)
    return (
        serialize_graph(chain, 2, actions=chain_shift_action(chain, 1)),
        serialize_graph(chain, 1) + "action t weight q^1\nshift 1\n",
        serialize_graph(double_chain(2, 3), 1),
        serialize_graph(deformed_chain(1.05, 0.3), 2),
        serialize_graph(cov, weighting=nu),
    )


DOCUMENTS = _documents()
tokens = st.one_of(
    st.sampled_from(
        ["x", "two", "1.5", "0", "-1", "nan", "inf", "1e400", "q^1", "q^-1/2", "z^1",
         "1/0", "^", "*", "v0", "e0", "weight", "conjugate", "(1,2)", "#"]
    ),
    st.text(alphabet="0123456789qabv^-*/.e(),x", min_size=1, max_size=6),
)


@st.composite
def mutated_documents(draw):
    lines = draw(st.sampled_from(DOCUMENTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "replace", "delete", "insert"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif lines[i].split():
            toks = lines[i].split()
            k = draw(st.integers(0, len(toks) - 1))
            if op == "replace":
                toks[k] = draw(tokens)
            elif op == "delete":
                del toks[k]
            else:
                toks.insert(k, draw(tokens))
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_parse_raises_only_format_errors(text):
    try:
        parse_graph(text)
    except GraphFormatError:
        pass


def _scalar(g, k):
    return Coefficient.of_weight(g.context.identity(), k)


def _combination(g, n, vecs, ks):
    v = zero_vector(g, n)
    for b, k in zip(vecs, ks):
        v = v + b.scaled(_scalar(g, k))
    return v


def _out_sum(g, v):
    total = Coefficient.zero(g.context)
    for e in g.out_edges(v):
        total = total + Coefficient.of_weight(e.weight)
    return total


def _draw_combination(data, g, n, vecs):
    ks = data.draw(st.lists(st.integers(-3, 3), min_size=len(vecs), max_size=len(vecs)))
    return ks, _combination(g, n, vecs, ks)


@PROPERTY
@given(graphs, st.integers(0, 4), st.data())
def test_cup_cap_relations_on_combinations(g, n, data):
    vecs = basis(g, n)
    ks, v = _draw_combination(data, g, n, vecs)
    for i in range(n + 1):
        up = cup(g, v, i)
        want = zero_vector(g, n)
        for b, k in zip(vecs, ks):
            (l,) = b.terms
            at = l.edges[i - 1].target if i else l.start
            want = want + b.scaled(_scalar(g, k) * _out_sum(g, at))
        assert cap(up, i + 1).eq(want)
        if i >= 1:
            assert cap(up, i).eq(v)
        if i <= n - 1:
            assert cap(up, i + 2).eq(v)
    assert star(g, star(g, v)).eq(v)


@PROPERTY
@given(graphs, st.integers(0, 4), st.data())
def test_inner_matches_trie_rows_on_combinations(g, n, data):
    vecs = basis(g, n)
    xs, f = _draw_combination(data, g, n, vecs)
    ys, h = _draw_combination(data, g, n, vecs)
    want = [Coefficient.zero(g.context)] * 3
    for i, j, *row in _inner_pairs(g, vecs):
        xy = _scalar(g, xs[i] * ys[j])
        want = [w + c * xy for w, c in zip(want, row)]
    assert inner(g, f, h, "left").eq(want[0])
    assert inner(g, f, h, "right").eq(want[1])
    assert inner(g, apply_modular(f), h, "right").eq(want[2])


# ------------------------------------------------- differential loop algebra
# A reference model of the loop algebra: a vector is a dict from Path to a
# nonzero Coefficient, and every map multiplies the Coefficients of the
# edges' w(e)^(1/2) and adds them, loop by loop.


def _model_add(acc, l, c):
    c = acc[l] + c if l in acc else c
    if c.is_zero():
        acc.pop(l, None)
    else:
        acc[l] = c


def _root(e):
    return Coefficient.of_weight(e.weight.sqrt())


def _model_cup(g, m, i):
    out = {}
    for l, c in m.items():
        at = l.edges[i - 1].target if i else l.start
        for e in g.out_edges(at):
            edges = l.edges[:i] + (e, g.conjugate_edge(e)) + l.edges[i:]
            _model_add(out, Path(l.start, edges, g.context), c * _root(e))
    return out


def _model_cap(m, i):
    out = {}
    for l, c in m.items():
        e1, e2 = l.edges[i - 1], l.edges[i]
        if e1.conjugate == e2.eid and e2.conjugate == e1.eid:
            _model_add(out, Path(l.start, l.edges[: i - 1] + l.edges[i + 1 :], l.context),
                       c * _root(e1))
    return out


def _model_star(g, m):
    out = {}
    for l, c in m.items():
        lbar = l.reversed_in(g)
        for e in lbar.edges:
            c = c * _root(e)
        _model_add(out, lbar, c)
    return out


def _model_concat(m1, m2):
    out = {}
    for l1, c1 in m1.items():
        for l2, c2 in m2.items():
            _model_add(out, l1 * l2, c1 * c2)
    return out


def _model_scaled(m, k):
    out = {}
    for l, c in m.items():
        _model_add(out, l, c * k)
    return out


def _model_modular(m):
    return {l: c * Coefficient.of_weight(l.weight) for l, c in m.items()}


def _model_inner(g, f, h, side):
    word = _model_concat(f, _model_star(g, h)) if side == "left" else _model_concat(
        _model_star(g, h), f)
    n = max((len(l) for l in f), default=0)
    for k in range(n, 0, -1):
        word = _model_cap(word, k)
    return word.get(Path.empty(g.context, g.basepoint), Coefficient.zero(g.context))


def _same(got, want, exact):
    return got == want if exact else got.isclose(want)


def _assert_models(v, want, exact):
    got = v.terms
    assert len(got) == len(want)
    assert got.keys() == want.keys()
    assert all(_same(got[l], want[l], exact) for l in want), (got, want)


DIFFERENTIAL_GRAPHS = sorted(ORACLE_GRAPHS)
FLOAT_GRAPHS = {"deformed_chain", "mixed_file"}


@PROPERTY
@given(st.sampled_from(DIFFERENTIAL_GRAPHS), st.integers(0, 4), st.data())
def test_kernel_matches_coefficient_model(name, n, data):
    # float sums cancel to zero or not by the order they are taken in, so on
    # float weights the combinations have no negative scalar, and no loop
    # is dropped by a cancellation
    g, exact = ORACLE_GRAPHS[name](), name not in FLOAT_GRAPHS
    scalars = st.integers(-3 if exact else 0, 3)
    vecs = basis(g, n)
    loops = [next(iter(b.terms)) for b in vecs]
    models = []
    for _ in range(2):
        ks = data.draw(st.lists(scalars, min_size=len(vecs), max_size=len(vecs)))
        v = _combination(g, n, vecs, ks)
        want = {l: _scalar(g, k) for l, k in zip(loops, ks) if k}
        _assert_models(v, want, exact)
        models.append((v, want))
    (v, mv), (h, mh) = models
    for i in range(n + 1):
        _assert_models(cup(g, v, i), _model_cup(g, mv, i), exact)
    for i in range(1, n):
        _assert_models(cap(v, i), _model_cap(mv, i), exact)
    _assert_models(star(g, v), _model_star(g, mv), exact)
    _assert_models(concat(v, h), _model_concat(mv, mh), exact)
    e = g.out_edges(g.basepoint)[0]
    k = Coefficient.of_weight(e.weight, data.draw(scalars))
    k = k + Coefficient.of_weight(g.context.identity(), data.draw(scalars))
    _assert_models(v.scaled(k), _model_scaled(mv, k), exact)
    _assert_models(apply_modular(v), _model_modular(mv), exact)
    for side in ("left", "right"):
        assert _same(inner(g, v, h, side), _model_inner(g, mv, mh, side), exact)


@settings(PROPERTY, max_examples=100)
@given(st.sampled_from((0, 2)), st.data())
def test_kernel_packs_exponents_near_the_digit_bound(n, data):
    # vectors scaled, once and twice, by a coefficient whose exponents lie
    # near and past 2^31 and 2^63: products in the maps stay exact
    g = double_chain(2, 3)  # loops have weights other than 1
    names = g.context.names
    exponents = st.lists(bound_exponent, min_size=len(names), max_size=len(names))
    k = Coefficient.zero(g.context)
    for es, s in data.draw(st.lists(st.tuples(exponents, rationals), min_size=1, max_size=3)):
        k = k + Coefficient.of_weight(g.context.exact(dict(zip(names, es))), s)
    vecs = basis(g, n)
    ks = data.draw(st.lists(st.integers(-2, 2), min_size=len(vecs), max_size=len(vecs)))
    v = _combination(g, n, vecs, ks)
    mv = {next(iter(b.terms)): _scalar(g, c) for b, c in zip(vecs, ks) if c}
    for _ in range(2):
        v, mv = v.scaled(k), _model_scaled(mv, k)
        _assert_models(v, mv, True)
        _assert_models(star(g, v), _model_star(g, mv), True)
        _assert_models(apply_modular(v), _model_modular(mv), True)
        for i in range(n + 1):
            _assert_models(cap(cup(g, v, i), i + 1), _model_cap(_model_cup(g, mv, i), i + 1), True)


def _model_weq(w1, w2):
    if w1.context == w2.context:
        return w1.eq(w2)
    tol = min(w1.context.tolerance, w2.context.tolerance)
    return abs(w1.value - w2.value) <= tol * max(w1.value, w2.value)


def _model_inject(small, big, onto):
    """Greedy: each small edge takes the first remaining big edge of an
    equal weight and the same self-conjugacy."""
    if len(small) > len(big) or (onto and len(small) != len(big)):
        return False
    remaining = list(big)
    for e in small:
        for i, f in enumerate(remaining):
            if _model_weq(e.weight, f.weight) and (e.conjugate == e.eid) == (f.conjugate == f.eid):
                del remaining[i]
                break
        else:
            return False
    return True


def _model_matchings(g1, g2, roots, bijective):
    """The backtracking matcher, rescanning edge lists at every pair."""
    parent = bfs_tree(g1.out_edges, g1.basepoint)
    order = list(parent)

    def nbrs(t, v):
        return {e.target for e in t.out_edges(v)} | {
            u for u in t.vertices for e in t.out_edges(u) if e.target == v}

    def between(t, u, m):
        return [e for e in t.out_edges(u) if e.target == m]

    def compatible(u, v):
        if bijective and (u in g1.boundary) != (v in g2.boundary):
            return False
        onto = bijective or u not in g1.boundary
        if onto and not _model_inject(g1.out_edges(u), g2.out_edges(v), True):
            return False
        near = {m for m in nbrs(g1, u) if m in mapping}
        near.update(inverse[w] for w in nbrs(g2, v) if w in inverse)
        return _model_inject(between(g1, u, u), between(g2, v, v), onto) and all(
            _model_inject(between(g1, u, m), between(g2, v, mapping[m]), onto) for m in near)

    def candidates(i):
        if i == 0:
            return iter(roots)
        e = parent[order[i]]
        return iter(dict.fromkeys(f.target for f in g2.out_edges(mapping[e.source])
                                  if f.target not in inverse and _model_weq(f.weight, e.weight)))

    mapping, inverse = {}, {}
    stack = [candidates(0)]
    while stack:
        i = len(stack) - 1
        u = order[i]
        if u in mapping:
            del inverse[mapping.pop(u)]
        v = next((v for v in stack[-1] if compatible(u, v)), None)
        if v is None:
            stack.pop()
            continue
        mapping[u], inverse[v] = v, u
        if i + 1 == len(order):
            yield dict(mapping)
        else:
            stack.append(candidates(i + 1))


def _items(m):
    return None if m is None else list(m.items())


def _model_iso(g1, g2):
    if len(g1.vertices) != len(g2.vertices) or g1.edge_count() != g2.edge_count():
        return None
    return _items(next(_model_matchings(g1, g2, [g2.basepoint], True), None))


@settings(PROPERTY, max_examples=60)
@given(st.sampled_from(DIFFERENTIAL_GRAPHS), st.integers(0, 3), st.integers(0, 2))
def test_matcher_matches_greedy_model(name, r, s):
    g = ORACLE_GRAPHS[name]()
    b, big = ball(g, r), ball(g, r + s)
    assert _items(iso_check(b, b)) == _model_iso(b, b)
    if not vertex_weighting(big):
        return  # partial automorphisms need a tracial graph
    roots = [v for v in big.vertices if big.distance[v] <= s]
    want = [_items(m) for m in _model_matchings(b, big, roots, False)]
    assert [_items(a.mapping) for a in partial_automorphisms(g, r, s)] == want


def test_partial_automorphisms_keep_the_candidate_filter_order():
    # the mappings, in order, are those of the model, whose candidates are a
    # dict.fromkeys filter over g2's stored out-edges at every level
    g = grid(2, 3)
    b, big = ball(g, 3), ball(g, 5)
    roots = [v for v in big.vertices if big.distance[v] <= 2]
    want = [_items(m) for m in _model_matchings(b, big, roots, False)]
    got = [_items(a.mapping) for a in partial_automorphisms(g, 3, 2)]
    assert len(got) == len(roots) == 13 and got == want


def test_partial_automorphisms_inject_at_the_boundary():
    # K4 with its perfect matching {0-1, 2-3} doubled, unit weights, delta 4:
    # boundary vertices of the radius-1 ball are not matched onto, so where
    # a doubled pair meets a single edge in the image the matcher tests a
    # partial injection of edge multisets, not their equality
    pairs = [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)]
    lines = ["delta-graph v1", "delta 4"] + ["vertex %d" % v for v in range(4)]
    for i, (u, v) in enumerate(pairs):
        lines += ["edge f%d %d %d weight 1 conjugate b%d" % (i, u, v, i),
                  "edge b%d %d %d weight 1 conjugate f%d" % (i, v, u, i)]
    g = parse_graph("\n".join(lines + ["basepoint 0"]) + "\n").graph
    b, big = ball(g, 1), ball(g, 2)
    roots = [v for v in big.vertices if big.distance[v] <= 1]
    want = [_items(m) for m in _model_matchings(b, big, roots, False)]
    got = [_items(a.mapping) for a in partial_automorphisms(g, 1, 1)]
    assert len(got) == 8 and got == want


@pytest.mark.parametrize("make, radius", [
    (lambda: double_chain(2, 2), 1), (lambda: double_chain(2, 2), 3), (lambda: grid(2, 2), 3),
], ids=["double_chain-r1", "double_chain-r3", "grid-r3"])
def test_float_read_backs_match_greedy_model(make, radius):
    # a = b, so a float read-back joins the a and b edges in one class
    b, f = ball(make(), radius), _float_ball(make(), radius)
    for g1, g2 in ((b, b), (b, f), (f, b), (f, f)):
        got = _items(iso_check(g1, g2))
        assert got is not None and got == _model_iso(g1, g2)


# a = b, so distinct exact weights share values; floats a step of 0.6e-9 in
# log apart chain x ~ y ~ z with x and z apart at the tolerance 1e-9
CLASS_CTX = GeneratorContext((("a", 2.0), ("b", 2.0)), 1e-9)
CLASS_POOL = [CLASS_CTX.exact(a=i, b=j)
              for i, j in ((0, 0), (1, 0), (0, 1), (-1, 1), (2, 0), (1, 1))]
CLASS_POOL += [CLASS_CTX.float_weight(base * (1 + k * 0.6e-9))
               for base in (1.0, 2.0, 4.0) for k in range(4)]


def _built_classes(order):
    """The partition ``_Classes`` makes adding ``order``, or None if it raises."""
    classes, by_item = _Classes(CLASS_CTX.tolerance), {}
    try:
        for w in order:
            by_item.setdefault(classes.add(w), set()).add(w)
    except ValueError:
        return None
    return frozenset(map(frozenset, by_item.values()))


def _model_blocks(ws):
    """The connected components of the tolerance relation when each is a
    complete block (every pair related), else None."""
    def near(x, y):
        if x.is_exact and y.is_exact:
            return x == y
        return abs(x.log_value - y.log_value) <= CLASS_CTX.tolerance

    blocks: list[set] = []
    for w in ws:
        hit = [b for b in blocks if any(near(w, x) for x in b)]
        blocks = [b for b in blocks if not any(b is h for h in hit)] + [{w}.union(*hit)]
    if any(not near(x, y) for b in blocks for x in b for y in b):
        return None
    return frozenset(map(frozenset, blocks))


@given(st.lists(st.sampled_from(CLASS_POOL), min_size=1, max_size=5, unique=True))
def test_weight_classes_are_complete_blocks_in_every_order(ws):
    want = _model_blocks(ws)
    for order in permutations(ws):
        assert _built_classes(order) == want
    counts = [(w, 1) for w in ws]
    if want is None:
        with pytest.raises(ValueError, match="is within tolerance of the distinct"):
            group_weights(counts)
    else:
        key = lambda w: (w.log_value, w.key())
        reps = [(min(b, key=key), len(b)) for b in want]
        assert list(group_weights(counts)) == sorted(reps, key=lambda p: key(p[0]))
