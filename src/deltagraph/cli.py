"""Command-line driver.

Every command reads either a ``delta-graph v1`` file or a builder spec like
``double_chain:a=2,b=3``, and writes deterministic output.  Exit codes:
0 success, 1 domain failure (reported as a ``FAIL <check> <detail>`` line),
2 usage or parse errors, 3 a weight that left the float range
(``OverflowError``); errors print one ``error: ...`` line to stderr.  A
reader that closes stdout early (``deltagraph loops ... | head -1``) ends
the command quietly with status 0, also when it fails after the cut; a
broken pipe on an ``--out`` file is an error, status 2.
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
from .loop_algebra import ModularRelationError, modular_spectrum, relations
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
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except BrokenPipeError as exc:  # the reader of an --out FIFO, say: not stdout's
            raise OSError(str(exc)) from None
    else:
        sys.stdout.write(text)


def _weight_text(w, as_float: bool) -> str:
    return format(w.value, ".17g") if as_float else w.text()


def _cmd_build(args) -> int:
    g = builders.build(builders.spec_from_text("%s:%s" % (args.variant, ",".join(args.params))))
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
    q = quotient(g, action, args.radius)
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


def _cmd_tl_check(args) -> int:
    g, _ = _load(args.input)
    failures = 0
    for name, n, passed, detail in relations(g, args.max_len):
        if detail:
            print(detail)
        print("%s %s n=%d" % ("PASS" if passed else "FAIL", name, n))
        failures += not passed
    if failures:
        raise _Failure("tl-check", "%d relation(s) failed" % failures)
    return 0


def _cmd_invariants(args) -> int:
    g, _ = _load(args.input)
    report = t0(g, args.radius, args.shift_bound)
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


def _run(args) -> int:
    """``args.fn(args)``, its failures and errors reported as exit codes."""
    try:
        return args.fn(args)
    except BrokenPipeError:
        raise  # stdout's reader has gone: main ends quietly
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
    except ModularRelationError as exc:
        print("FAIL modular-relation %s" % exc)
        return 1
    except (GraphFormatError, WeightFormatError, GraphConstructionError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OverflowError as exc:
        print("error: float overflow: %s" % exc, file=sys.stderr)
        return 3


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # _emit reports an --out file's broken pipe as another OSError, so
        # stdout's reader has all it wants; the flush at shutdown goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


if __name__ == "__main__":
    sys.exit(main())
