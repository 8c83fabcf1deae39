"""Command-line driver.

Every command reads either a ``delta-graph v1`` file or a builder spec like
``double_chain:a=2,b=3``, and writes deterministic output.  Exit codes:
0 success, 1 domain failure (reported as a ``FAIL <check> <detail>`` line),
2 usage or parse errors, 3 a weight that left the float range
(``OverflowError``); errors print one ``error: ...`` line to stderr.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import builders
from .actions import ActionError, GraphAction, quotient, recover
from .cover import tracial_cover
from .graph import (
    DeltaGraph,
    GraphConstructionError,
    NonTracialGraphError,
    ball,
    enumerate_loops,
    validate,
)
from .invariants import t0
from .io import GraphFormatError, export_dot, idtext, parse_graph, serialize_graph
from .loop_algebra import (
    Coefficient,
    _anchor,
    apply_modular,
    basis,
    cap,
    cup,
    format_vector,
    inner,
    modular_spectrum,
    star,
)
from .weights import WeightFormatError

DEFAULT_RADIUS = 4
DEFAULT_MAX_LEN = 6
DEFAULT_SHIFT_BOUND = 4


class _Failure(Exception):
    """Domain failure: printed as a FAIL line, exit status 1."""

    def __init__(self, check: str, detail: str):
        super().__init__("%s %s" % (check, detail))
        self.check = check
        self.detail = detail


def _load(text: str):
    """Input resolution: an existing file path, else a builder spec."""
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            doc = parse_graph(fh.read())
        return doc.graph, doc
    return builders.build(builders.spec_from_text(text)), None


def _emit(out_path, text):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _weight_text(w, as_float: bool) -> str:
    return format(w.value, ".17g") if as_float else w.text()


def _cmd_build(args) -> int:
    params = {}
    for item in args.params:
        key, sep, val = item.partition("=")
        if not sep:
            raise GraphFormatError("bad parameter %r (want key=value)" % item)
        params[key] = float(val)
    g = builders.build(builders.GraphSpec(args.variant, params))
    _emit(args.out, serialize_graph(g, args.radius))
    return 0


def _cmd_validate(args) -> int:
    g, _ = _load(args.input)
    report = validate(g, args.radius)
    for c in report.checks:
        if c.passed:
            print("PASS %s" % c.name)
        else:
            print("FAIL %s %s" % (c.name, c.details[0] if c.details else ""))
    return 0 if report.passed else 1


def _cmd_cover(args) -> int:
    g, _ = _load(args.input)
    cov, nu = tracial_cover(g, args.radius)
    if args.export_dot:
        _emit(args.out, export_dot(cov, weighting=nu))
    else:
        _emit(args.out, serialize_graph(cov, weighting=nu))
    return 0


def _resolve_action(args, g: DeltaGraph, doc) -> GraphAction:
    if args.shift:
        vec = tuple(int(p) for p in args.shift.split(","))
        if len(vec) == 1 and not isinstance(g.basepoint, tuple):
            return builders.chain_shift_action(g, vec[0])
        return builders.lattice_shift_action(g, vec)
    if doc is None or doc.action is None:
        raise _Failure("action", "no action: give --shift or a file with action blocks")
    action = doc.action
    if args.action:
        return GraphAction((action.generator(args.action),))
    return action


def _cmd_quotient(args) -> int:
    g, doc = _load(args.input)
    action = _resolve_action(args, g, doc)
    try:
        q = quotient(g, action, args.radius)
    except ActionError as exc:
        raise _Failure("action", str(exc)) from exc
    _emit(args.out, export_dot(q) if args.export_dot else serialize_graph(q))
    return 0


def _cmd_recover(args) -> int:
    g, _ = _load(args.input)
    rec = recover(g, args.radius)
    _emit(args.out, export_dot(rec) if args.export_dot else serialize_graph(rec))
    return 0


def _cmd_loops(args) -> int:
    g, _ = _load(args.input)
    for l in enumerate_loops(g, args.n):
        ids = " ".join(idtext(e) for e in l.edge_ids())
        print("%s weight %s" % (ids if ids else "-", _weight_text(l.weight, args.float)))
    return 0


def _cmd_spectrum(args) -> int:
    g, _ = _load(args.input)
    verify = True if args.verify_all else None
    spec = modular_spectrum(g, args.n, verify=verify)
    for w, m in spec.eigenvalues:
        print("%s:%d" % (_weight_text(w, args.float), m))
    return 0


def _anchor_sum(g, l, i):
    """Coefficient sum of outgoing weights at the cup anchor; fairness makes
    its value delta, and it is the exact delooping scalar at that vertex."""
    total = Coefficient.zero(g.context)
    for e in g.out_edges(_anchor(g, l, i)):
        total = total + Coefficient.of_weight(e.weight)
    return total


def _indicator(g, f, h, right_side: bool = False):
    """Closed-form Gram oracle for basis vectors: identity on the left,
    diagonal 1/w(l) on the right."""
    (lf,) = f.terms
    (lh,) = h.terms
    if lf != lh:
        return Coefficient.zero(g.context)
    if right_side:
        return Coefficient.of_weight(lf.weight.inverse())
    return Coefficient.one(g.context)


def _cmd_tl_check(args) -> int:
    g, _ = _load(args.input)
    failures = 0
    # comparison mode comes from the edge weights, not the loop weights: a
    # float-weighted graph still has exact-weight (empty or balanced) loops
    exact = all(
        e.weight.is_exact for e in ball(g, args.max_len // 2 + 1).edges()
    )

    def report(name, n, ok):
        nonlocal failures
        print("%s %s n=%d" % ("PASS" if ok else "FAIL", name, n))
        if not ok:
            failures += 1

    for n in range(0, args.max_len + 1):
        vecs = basis(g, n)
        if n <= args.max_len - 2:
            ok_deloop = ok_zig = True
            for v in vecs:
                (l,) = v.terms
                for i in range(0, n + 1):
                    up = cup(g, v, i)
                    dv = v.scaled(_anchor_sum(g, l, i))
                    got = cap(up, i + 1)
                    if not got.eq(dv, exact):
                        if ok_deloop:
                            print("  got:\n%s\n  want:\n%s" % (format_vector(got), format_vector(dv)))
                        ok_deloop = False
                    if i >= 1 and not cap(up, i).eq(v, exact):
                        ok_zig = False
                    if i <= n - 1 and not cap(up, i + 2).eq(v, exact):
                        ok_zig = False
            report("delooping", n, ok_deloop)
            report("zigzag", n, ok_zig)
        ok_star = all(star(g, star(g, v)).eq(v, exact) for v in vecs)
        report("star-involution", n, ok_star)
        if n <= max(2, args.max_len // 2) and vecs:
            ok_gram = True
            ok_mod = True
            for f in vecs:
                df = apply_modular(f)
                for h in vecs:
                    lhs = inner(g, f, h, "left")
                    checks = (
                        (lhs, _indicator(g, f, h)),
                        (inner(g, f, h, "right"), _indicator(g, f, h, right_side=True)),
                    )
                    for got, want in checks:
                        if (got != want) if exact else (not got.isclose(want)):
                            ok_gram = False
                    rhs = inner(g, df, h, "right")
                    if (lhs != rhs) if exact else (not lhs.isclose(rhs)):
                        ok_mod = False
            report("gram", n, ok_gram)
            report("modular-relation", n, ok_mod)
    if failures:
        raise _Failure("tl-check", "%d relation(s) failed" % failures)
    return 0


def _cmd_invariants(args) -> int:
    g, _ = _load(args.input)
    try:
        report = t0(g, args.radius, args.shift_bound)
    except NonTracialGraphError as exc:
        witness = exc.witness
        detail = "witness=%s" % ",".join(idtext(e) for e in witness.edge_ids()) if witness else ""
        raise _Failure("tracial", detail) from exc
    for w in report.generators:
        print("generator %s" % _weight_text(w, args.float))
    print("certified-weights %d" % len(report.certified_weights))
    print("certified-radius %d" % report.certified_radius)
    return 0


def _cmd_export_dot(args) -> int:
    g, _ = _load(args.input)
    _emit(args.out, export_dot(ball(g, args.radius)))
    return 0


def _add_common(p, radius=True, out=True):
    p.add_argument("input", help="graph file or builder spec like double_chain:a=2,b=3")
    if radius:
        p.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
    if out:
        p.add_argument("--out", help="output path (default stdout)")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="deltagraph",
        description="Computations on weighted delta graphs: covers, quotients, "
        "loop algebra, and automorphism invariants.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="write a builder's ball to a graph file")
    p.add_argument("variant", choices=builders._VARIANTS)
    p.add_argument("params", nargs="*", help="key=value parameters")
    p.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("validate", help="check the delta-graph axioms on a ball")
    _add_common(p, out=False)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("cover", help="tracial cover of the input graph")
    _add_common(p)
    p.add_argument("--export-dot", action="store_true")
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("quotient", help="quotient a tracial graph by an action")
    _add_common(p)
    p.add_argument("--action", help="label of the file action to use")
    p.add_argument("--shift", help="built-in translation, e.g. 3 or 1,-1")
    p.add_argument("--export-dot", action="store_true")
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("recover", help="rebuild a graph from its tracial cover")
    _add_common(p)
    p.add_argument("--export-dot", action="store_true")
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser("loops", help="list based loops of a given length")
    _add_common(p, radius=False, out=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--float", action="store_true")
    p.set_defaults(fn=_cmd_loops)

    p = sub.add_parser("spectrum", help="modular eigenvalues at length n")
    _add_common(p, radius=False, out=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--float", action="store_true")
    p.add_argument("--verify-all", action="store_true")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("tl-check", help="verify the cup/cap relations")
    _add_common(p, radius=False, out=False)
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN)
    p.set_defaults(fn=_cmd_tl_check)

    p = sub.add_parser("invariants", help="automorphism weight invariants")
    _add_common(p, out=False)
    p.add_argument("--shift-bound", type=int, default=DEFAULT_SHIFT_BOUND)
    p.add_argument("--float", action="store_true")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("export-dot", help="DOT rendering of a ball")
    _add_common(p)
    p.set_defaults(fn=_cmd_export_dot)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _Failure as exc:
        print("FAIL %s %s" % (exc.check, exc.detail))
        return 1
    except NonTracialGraphError as exc:
        witness = exc.witness
        detail = "witness=%s" % ",".join(idtext(e) for e in witness.edge_ids()) if witness else ""
        print("FAIL tracial %s" % detail)
        return 1
    except ActionError as exc:
        print("FAIL action %s" % exc)
        return 1
    except (GraphFormatError, WeightFormatError, GraphConstructionError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OverflowError as exc:
        print("error: float overflow: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
