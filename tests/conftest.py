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
    equal weight."""
    pending = {}
    for f in g2.edges():
        pending.setdefault((f.source, f.target), []).append(f.weight)
    for e in g1.edges():
        if e.source not in mapping or e.target not in mapping:
            continue
        ws = pending.get((mapping[e.source], mapping[e.target]), [])
        hit = next((i for i, w in enumerate(ws) if w.eq(e.weight)), None)
        assert hit is not None, "edge %r is not carried by the mapping" % (e,)
        del ws[hit]


@pytest.fixture
def assert_carries_edges():
    return _carries_edges
