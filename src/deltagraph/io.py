"""The ``delta-graph v1`` text format and DOT export.

Line-oriented UTF-8: header, ``delta``, ``generator`` and ``tolerance``
lines, then ``vertex``/``edge`` records, ``basepoint``, and optional
``action`` blocks (map tables, or a ``shift`` for integer-tuple vertices).
Serialization renames vertices/edges to v0.., e0.. in BFS discovery order,
so serialize(parse(doc)) is the identity on canonical documents.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .actions import ActionGenerator, GraphAction, shift_generator
from .graph import DeltaGraph, Edge, TruncatedGraph, VertexId, bfs_distances, window
from .weights import DEFAULT_TOLERANCE, GeneratorContext, Weight, WeightFormatError, parse_weight

HEADER = "delta-graph v1"


class GraphFormatError(ValueError):
    """Malformed graph document; message carries the offending line."""


def _fmt(x: float) -> str:
    return repr(float(x))


def idtext(x) -> str:
    """Compact stable rendering of a vertex/edge id (no whitespace)."""
    if isinstance(x, tuple):
        return "(%s)" % ",".join(idtext(p) for p in x)
    return repr(x).replace(" ", "") if not isinstance(x, (int, str)) else str(x)


def _bfs_names(t: TruncatedGraph):
    """v0.., e0.. in BFS discovery order, following the stored edge order;
    disconnected leftovers, if any, come last."""
    order = list(bfs_distances(t.out_edges, t.basepoint, t.vertices))
    vname = {v: "v%d" % i for i, v in enumerate(order)}
    ename: dict = {}
    for v in order:
        for e in t.out_edges(v):
            ename[e.eid] = "e%d" % len(ename)
    return order, vname, ename


def serialize_graph(
    g: DeltaGraph,
    radius: int | None = None,
    *,
    weighting: Mapping[VertexId, Weight] | None = None,
    actions: GraphAction | None = None,
) -> str:
    """Materialize a ball and write it in the v1 format.

    ``weighting`` adds per-vertex weight fields; ``actions`` append map-table
    blocks restricted to the serialized ball.
    """
    t = window(g, radius)
    order, vname, ename = _bfs_names(t)
    texts: dict[Weight, str] = {}  # each distinct weight is rendered once
    lines = [HEADER, "delta %s" % _fmt(t.delta)]
    for name, value in t.context.generators:
        lines.append("generator %s %s" % (name, _fmt(value)))
    lines.append("tolerance %s" % _fmt(t.context.tolerance))
    for v in order:
        if weighting is not None and v in weighting:
            lines.append("vertex %s weight %s" % (vname[v], weighting[v].text()))
        else:
            lines.append("vertex %s" % vname[v])
    for v in order:
        for e in t.out_edges(v):
            lines.append(
                "edge %s %s %s weight %s conjugate %s"
                % (ename[e.eid], vname[v], vname[e.target],
                   texts.get(e.weight) or texts.setdefault(e.weight, e.weight.text()),
                   ename[t.conjugate_edge(e).eid])
            )
    lines.append("basepoint %s" % vname[t.basepoint])
    if actions is not None:
        for gen in actions.generators:
            lines.append("action %s weight %s" % (gen.label, gen.weight.text()))
            for v in order:
                img = gen.act(v)
                if img is not None and img in t:
                    lines.append("map %s %s" % (vname[v], vname[img]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GraphDocument:
    """A parsed graph plus whatever optional records the file carried."""

    graph: DeltaGraph
    action: GraphAction | None
    vertex_weights: dict | None


def _vid_from_token(tok: str):
    """Integers and integer tuples parse to themselves so built-in shift
    actions can be written against hand-named vertices."""
    try:
        return int(tok)
    except ValueError:
        pass
    if tok.startswith("(") and tok.endswith(")"):
        try:
            return tuple(int(p) for p in tok[1:-1].split(","))
        except ValueError:
            pass
    return tok


def parse_graph(text: str) -> GraphDocument:
    """Parse a v1 document; errors in the text carry line numbers.

    The parser checks the text only: syntax, numbers, weight texts, declared
    vertices, duplicate ids, the basepoint and action rows.  Every graph
    axiom is left to the graph: :class:`DeltaGraph` rejects a delta out of
    range (reported at the ``delta`` line), and conjugation, conjugate
    weights and fairness are judged by ``validate``
    (:meth:`DeltaGraph.conjugate_edge` for the conjugates).
    """
    raw_lines = text.splitlines()
    entries = []
    for i, line in enumerate(raw_lines, 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        entries.append((i, s))
    if not entries or entries[0][1] != HEADER:
        raise GraphFormatError("line 1: expected header %r" % HEADER)

    delta = None
    tolerance = DEFAULT_TOLERANCE
    gens: list[tuple[str, float]] = []
    vertex_rows: list[tuple[int, str, str | None]] = []
    edge_rows: list[tuple[int, str, str, str, str, str]] = []
    basepoint_tok = None
    action_rows: list[dict] = []

    def fail(ln, msg):
        raise GraphFormatError("line %d: %s" % (ln, msg))

    def number(ln, tok, what):
        try:
            return float(tok)
        except ValueError:
            fail(ln, "bad %s %r (want a number)" % (what, tok))

    for ln, s in entries[1:]:
        toks = s.split()
        kind = toks[0]
        if kind == "delta" and len(toks) == 2:
            delta_ln, delta = ln, number(ln, toks[1], "delta")
        elif kind == "tolerance" and len(toks) == 2:
            tolerance = number(ln, toks[1], "tolerance")
        elif kind == "generator" and len(toks) == 3:
            gens.append((toks[1], number(ln, toks[2], "generator value")))
        elif kind == "vertex":
            if len(toks) == 2:
                vertex_rows.append((ln, toks[1], None))
            elif len(toks) >= 4 and toks[2] == "weight":
                vertex_rows.append((ln, toks[1], " ".join(toks[3:])))
            else:
                fail(ln, "vertex line should be 'vertex <id> [weight <text>]'")
        elif kind == "edge":
            if len(toks) < 7 or toks[4] != "weight" or toks[-2] != "conjugate":
                fail(
                    ln,
                    "edge %s: expected 'edge <id> <src> <dst> weight <text> conjugate <id>'"
                    % (toks[1] if len(toks) > 1 else "?"),
                )
            wtext = " ".join(toks[5:-2])
            edge_rows.append((ln, toks[1], toks[2], toks[3], wtext, toks[-1]))
        elif kind == "basepoint" and len(toks) == 2:
            basepoint_tok = toks[1]
        elif kind == "action":
            if len(toks) < 4 or toks[2] != "weight":
                fail(ln, "action line should be 'action <label> weight <text>'")
            action_rows.append(
                {"ln": ln, "label": toks[1], "wtext": " ".join(toks[3:]), "maps": [], "shift": None}
            )
        elif kind == "map" and len(toks) == 3:
            if not action_rows:
                fail(ln, "map line before any action line")
            action_rows[-1]["maps"].append((ln, toks[1], toks[2]))
        elif kind == "shift" and len(toks) == 2:
            if not action_rows:
                fail(ln, "shift line before any action line")
            action_rows[-1]["shift"] = (ln, toks[1])
        else:
            fail(ln, "unrecognized record %r" % kind)

    if delta is None:
        raise GraphFormatError("missing 'delta' line")
    if basepoint_tok is None:
        raise GraphFormatError("missing 'basepoint' line")
    try:
        ctx = GeneratorContext(tuple(gens), tolerance)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc

    parsed: dict[str, Weight] = {}  # each distinct weight text is parsed once

    def weight_at(ln, text):
        if text not in parsed:
            try:
                parsed[text] = parse_weight(text, ctx)
            except WeightFormatError as exc:
                fail(ln, str(exc))
        return parsed[text]

    vertices = []
    vertex_weights = {}
    seen_v = set()
    declared: dict[str, VertexId] = {}  # each declared token is parsed once
    for ln, tok, wtext in vertex_rows:
        vid = _vid_from_token(tok)
        if vid in seen_v:
            fail(ln, "duplicate vertex %s" % tok)
        seen_v.add(vid)
        vertices.append(vid)
        declared[tok] = vid
        if wtext is not None:
            vertex_weights[vid] = weight_at(ln, wtext)

    out: dict = {v: [] for v in vertices}
    seen_e = set()
    for ln, eid, src, dst, wtext, conj in edge_rows:
        if eid in seen_e:
            fail(ln, "duplicate edge %s" % eid)
        seen_e.add(eid)
        # another spelling of a declared id, such as 007 for 7, parses to it
        s = declared[src] if src in declared else _vid_from_token(src)
        d = declared[dst] if dst in declared else _vid_from_token(dst)
        if s not in seen_v:
            fail(ln, "edge %s references undeclared vertex %s" % (eid, src))
        if d not in seen_v:
            fail(ln, "edge %s references undeclared vertex %s" % (eid, dst))
        out[s].append(Edge(eid, s, d, weight_at(ln, wtext), conj))

    bp = _vid_from_token(basepoint_tok)
    if bp not in seen_v:
        raise GraphFormatError("basepoint %s is not a declared vertex" % basepoint_tok)

    try:
        graph = DeltaGraph(delta, ctx, bp, out.__getitem__, declared_vertices=vertices, label="file")
    except ValueError as exc:
        fail(delta_ln, str(exc))

    generators = []
    for row in action_rows:
        w = weight_at(row["ln"], row["wtext"])
        if row["shift"] is not None:
            ln, spec = row["shift"]
            try:
                vec = tuple(int(p) for p in spec.split(","))
            except ValueError:
                fail(ln, "bad shift %r (want comma-joined integers)" % spec)
            generators.append(shift_generator(row["label"], w, vec))
        else:
            table = {}
            for ln, a, b in row["maps"]:
                va, vb = _vid_from_token(a), _vid_from_token(b)
                if va not in seen_v or vb not in seen_v:
                    fail(ln, "map references undeclared vertex")
                table[va] = vb
            generators.append(ActionGenerator(row["label"], w, table.get))
    action = GraphAction(tuple(generators)) if generators else None
    return GraphDocument(graph, action, vertex_weights or None)


def export_dot(t: TruncatedGraph, *, weighting: Mapping[VertexId, Weight] | None = None) -> str:
    """Deterministic DOT rendering: basepoint double-circled, boundary dashed,
    each directed edge labeled by its weight text."""
    order, vname, ename = _bfs_names(t)
    lines = ["digraph deltagraph {", "  rankdir=LR;"]
    for v in order:
        attrs = ['label="%s"' % idtext(v)]
        if v == t.basepoint:
            attrs.append("shape=doublecircle")
        if v in t.boundary:
            attrs.append("style=dashed")
        if weighting is not None and v in weighting:
            attrs[0] = 'label="%s | %s"' % (idtext(v), weighting[v].text())
        lines.append('  "%s" [%s];' % (vname[v], ", ".join(attrs)))
    for v in order:
        for e in t.out_edges(v):
            lines.append(
                '  "%s" -> "%s" [label="%s"];' % (vname[v], vname[e.target], e.weight.text())
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
