import pytest

from deltagraph import builders


@pytest.fixture
def chain():
    return builders.single_chain(2)


@pytest.fixture
def dchain():
    return builders.double_chain(2, 3)


@pytest.fixture
def grid23():
    return builders.grid(2, 3)


@pytest.fixture
def cycle3():
    return builders.cycle(3, 2)


@pytest.fixture
def cycle4_flat():
    return builders.cycle(4, 1)


@pytest.fixture
def deformed():
    return builders.deformed_chain(1.05, 0.3)


def _carries_edges(g1, g2, mapping):
    """Independent O(E) check of a returned mapping: every g1 edge between
    mapped vertices lands on its own g2 edge, joining the images, with an
    equal weight; and where the matcher matches a vertex exactly, its
    image's out-edges are exactly the images of its out-edges (the same
    weight multiset, every target inside the image).

    A vertex is matched exactly when it is interior, and every vertex is
    when the mapping is a bijection of vertices and edges.  A mapping of the
    interiors only (``iso_check(..., interior_only=True)``) is a bijection
    of the interior-induced subgraphs, so those are compared."""
    image = set(mapping.values())
    if len(mapping) < len(g1.vertices):
        edges1 = [e for e in g1.edges() if e.source in mapping and e.target in mapping]
        edges2 = [f for f in g2.edges() if f.source in image and f.target in image]
        bijective = True
    else:
        edges1, edges2 = g1.edges(), g2.edges()
        bijective = len(image) == len(g2.vertices) and len(edges1) == len(edges2)
    pending = {}
    unmatched = {}  # g2 vertex -> out-edges not yet the image of a g1 edge
    for f in edges2:
        pending.setdefault((f.source, f.target), []).append(f.weight)
        unmatched[f.source] = unmatched.get(f.source, 0) + 1
    for e in edges1:
        ws = pending.get((mapping[e.source], mapping[e.target]), [])
        hit = next((i for i, w in enumerate(ws) if w.eq(e.weight)), None)
        assert hit is not None, "edge %r is not carried by the mapping" % (e,)
        del ws[hit]
        unmatched[mapping[e.source]] -= 1
    for u, v in mapping.items():
        if bijective or u not in g1.boundary:
            assert not unmatched.get(v), "%r -> %r: the image has out-edges of no edge" % (u, v)


@pytest.fixture
def assert_carries_edges():
    return _carries_edges
