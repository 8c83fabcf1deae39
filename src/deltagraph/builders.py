"""Constructors for the standard example graphs and their built-in actions.

Chains, grids and Cayley graphs of free abelian groups are procedural
(infinite, materialized on demand); cycles are finite.  The deformed chain
carries float weights and is the one family where all comparisons are
tolerance-based.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .actions import GraphAction, shift_generator
from .graph import DeltaGraph, Edge
from .weights import GeneratorContext

DEFAULT_TOLERANCE = 1e-9


def _integral(x, builder: str, name: str) -> int:
    """``x`` as an int; ``ValueError`` unless it is integral (2.0 is)."""
    if not isinstance(x, int) and not float(x).is_integer():
        raise ValueError("%s needs an integral %s, got %r" % (builder, name, x))
    return int(x)


def single_chain(q: float, *, tolerance: float = DEFAULT_TOLERANCE) -> DeltaGraph:
    """Bi-infinite chain on the integers: weight q rightward, 1/q leftward."""
    q = float(q)
    if q <= 0 or q == 1.0:
        raise ValueError("single_chain needs q > 0, q != 1 (so that delta > 2)")
    ctx = GeneratorContext((("q", q),), tolerance)
    wq = ctx.gen("q")
    wqi = wq.inverse()

    def out(m: int):
        return (
            Edge(("l", m), m, m - 1, wqi, ("r", m - 1)),
            Edge(("r", m), m, m + 1, wq, ("l", m + 1)),
        )

    return DeltaGraph(q + 1 / q, ctx, 0, out, label="single_chain(q=%g)" % q)


def double_chain(a: float, b: float, *, tolerance: float = DEFAULT_TOLERANCE) -> DeltaGraph:
    """Chain on the integers with two parallel edge families of weights a, b."""
    a, b = float(a), float(b)
    delta = a + 1 / a + b + 1 / b
    if a <= 0 or b <= 0 or delta <= 4:
        raise ValueError("double_chain needs a, b > 0 with a + 1/a + b + 1/b > 4")
    ctx = GeneratorContext((("a", a), ("b", b)), tolerance)
    wa, wb = ctx.gen("a"), ctx.gen("b")
    wai, wbi = wa.inverse(), wb.inverse()

    def out(m: int):
        return (
            Edge(("a-", m), m, m - 1, wai, ("a+", m - 1)),
            Edge(("a+", m), m, m + 1, wa, ("a-", m + 1)),
            Edge(("b-", m), m, m - 1, wbi, ("b+", m - 1)),
            Edge(("b+", m), m, m + 1, wb, ("b-", m + 1)),
        )

    return DeltaGraph(delta, ctx, 0, out, label="double_chain(a=%g,b=%g)" % (a, b))


def cayley(
    weights: Sequence[float],
    *,
    names: Sequence[str] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    label: str | None = None,
) -> DeltaGraph:
    """Cayley graph of Z^k with one generator per weight.

    Vertices are integer k-tuples; the edge along +e_i carries weight
    phi_i, its conjugate 1/phi_i, so the weighting is constant on each
    generator's edge class.
    """
    phis = tuple(float(w) for w in weights)
    if not phis or any(w <= 0 for w in phis):
        raise ValueError("cayley needs at least one positive generator weight")
    k = len(phis)
    if names is None:
        names = tuple("g%d" % (i + 1) for i in range(k))
    names = tuple(names)
    ctx = GeneratorContext(tuple(zip(names, phis)), tolerance)
    gens = [ctx.gen(n) for n in names]
    invs = [w.inverse() for w in gens]
    ms, ps = ["m%d" % i for i in range(k)], ["p%d" % i for i in range(k)]

    def out(v: tuple):
        edges = []
        for i in range(k):
            up = v[:i] + (v[i] + 1,) + v[i + 1 :]
            dn = v[:i] + (v[i] - 1,) + v[i + 1 :]
            edges.append(Edge((ms[i], v), v, dn, invs[i], (ps[i], dn)))
            edges.append(Edge((ps[i], v), v, up, gens[i], (ms[i], up)))
        return tuple(edges)

    delta = sum(w + 1 / w for w in phis)
    return DeltaGraph(
        delta, ctx, (0,) * k, out, label=label or "cayley(%s)" % ",".join("%g" % w for w in phis)
    )


def grid(a: float, b: float, *, tolerance: float = DEFAULT_TOLERANCE) -> DeltaGraph:
    """Z^2 lattice with horizontal weight a and vertical weight b."""
    return cayley(
        (a, b), names=("a", "b"), tolerance=tolerance, label="grid(a=%g,b=%g)" % (a, b)
    )


def cycle(n: int, q: float, *, tolerance: float = DEFAULT_TOLERANCE) -> DeltaGraph:
    """Finite n-cycle, weight q forward and 1/q backward.

    With q = 1 all weights are the unit weight (the graph is tracial).
    """
    n = _integral(n, "cycle", "n")
    q = float(q)
    if n < 1 or q <= 0:
        raise ValueError("cycle needs n >= 1 and q > 0")
    if q == 1.0:
        ctx = GeneratorContext((), tolerance)
        wq = ctx.identity()
    else:
        ctx = GeneratorContext((("q", q),), tolerance)
        wq = ctx.gen("q")
    wqi = wq.inverse()

    def out(i: int):
        return (
            Edge(("b", i), i, (i - 1) % n, wqi, ("f", (i - 1) % n)),
            Edge(("f", i), i, (i + 1) % n, wq, ("b", (i + 1) % n)),
        )

    return DeltaGraph(
        q + 1 / q,
        ctx,
        0,
        out,
        declared_vertices=range(n),
        label="cycle(n=%d,q=%g)" % (n, q),
    )


def deformed_chain(q: float, x: float, *, tolerance: float = DEFAULT_TOLERANCE) -> DeltaGraph:
    """Chain with site-dependent float weights f(m+1)/f(m), f(m) = q^(x+m) + q^-(x+m).

    The outgoing sums telescope to q + 1/q at every vertex, so the graph is
    fair within floating-point tolerance; all equality here is approximate.
    """
    q, x = float(q), float(x)
    if q <= 0 or q == 1.0:
        raise ValueError("deformed_chain needs q > 0, q != 1")
    ctx = GeneratorContext((), tolerance)

    def f(m: int) -> float:
        return q ** (x + m) + q ** -(x + m)

    def out(m: int):
        fm = f(m)
        return (
            Edge(("l", m), m, m - 1, ctx.float_weight(f(m - 1) / fm), ("r", m - 1)),
            Edge(("r", m), m, m + 1, ctx.float_weight(f(m + 1) / fm), ("l", m + 1)),
        )

    return DeltaGraph(q + 1 / q, ctx, 0, out, label="deformed_chain(q=%g,x=%g)" % (q, x))


def chain_shift_action(g: DeltaGraph, steps: int) -> GraphAction:
    """Translation ``s`` by ``steps`` on an integer chain; weight q^steps for the
    first generator q.  Raises ``ValueError`` unless the basepoint is an
    integer and the graph has a generator, or ``steps`` is not integral."""
    steps = _integral(steps, "a chain shift", "step count")
    if not isinstance(g.basepoint, int) or not g.context.names:
        raise ValueError("a chain shift needs an integer basepoint and a generator")
    h = g.context.gen(g.context.names[0], steps)
    return GraphAction((shift_generator("s", h, (steps,)),))


def lattice_shift_action(g: DeltaGraph, vec: Sequence[int]) -> GraphAction:
    """Translation ``t`` by an integer vector on a Cayley/grid graph; weight
    is the product of generator weights along the vector, coordinate i
    pairing with generator i.  Raises ``ValueError`` unless the basepoint is
    a tuple of the vector's length with a generator per coordinate, and
    every coordinate is integral."""
    vec = tuple(_integral(c, "a lattice shift", "coordinate") for c in vec)
    k = len(vec)
    if not (isinstance(g.basepoint, tuple) and len(g.basepoint) == k <= len(g.context.names)):
        raise ValueError("a %d-coordinate shift needs a %d-tuple basepoint and %d generators"
                         % (k, k, k))
    h = g.context.exact({n: c for n, c in zip(g.context.names, vec)})
    return GraphAction((shift_generator("t", h, vec),))


@dataclass(frozen=True)
class GraphSpec:
    """A builder name with parameters, the CLI's notion of a graph source."""

    variant: str
    params: Mapping[str, float] = field(default_factory=dict)


# each builder with the names of its positional parameters (cayley's are k, w1..wk)
_BUILDERS = {
    "single_chain": (single_chain, ("q",)),
    "double_chain": (double_chain, ("a", "b")),
    "grid": (grid, ("a", "b")),
    "cycle": (cycle, ("n", "q")),
    "cayley": (cayley, None),
    "deformed_chain": (deformed_chain, ("q", "x")),
}
_VARIANTS = tuple(_BUILDERS)


def build(spec: GraphSpec) -> DeltaGraph:
    """Instantiate a builder from a spec; raises ``ValueError`` on a missing,
    unknown or out-of-domain parameter."""
    v = spec.variant
    if v not in _BUILDERS:
        raise ValueError("unknown builder %r (have: %s)" % (v, ", ".join(_VARIANTS)))
    fn, names = _BUILDERS[v]
    p = dict(spec.params)
    try:
        if names is None:
            args = ([p.pop("w%d" % (i + 1)) for i in range(_integral(p.pop("k"), v, "k"))],)
        else:
            args = tuple(p.pop(name) for name in names)
    except KeyError as exc:
        raise ValueError("builder %s is missing parameter %s" % (v, exc)) from exc
    tolerance = p.pop("tolerance", DEFAULT_TOLERANCE)
    if p:
        raise ValueError("builder %s has no parameter %s" % (v, ", ".join(sorted(p))))
    return fn(*args, tolerance=tolerance)


def spec_from_text(text: str) -> GraphSpec:
    """Parse ``name:key=value,key=value`` into a GraphSpec."""
    variant, _, rest = text.partition(":")
    variant = variant.strip()
    if variant not in _VARIANTS:
        raise ValueError("unknown builder %r (have: %s)" % (variant, ", ".join(_VARIANTS)))
    params = {}
    if rest.strip():
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise ValueError("bad builder parameter %r (want key=value)" % item)
            params[key.strip()] = float(val)
    return GraphSpec(variant, params)
