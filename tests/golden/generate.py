"""The CLI golden corpus: one record per run of ``deltagraph.cli.main``.

Each record holds the run's ``argv``, its exit status, the sha256 of its
stdout and the first line of its stderr ("" when there is none).  Runs are
made in process, from this directory, so the file inputs named in ``argv``
are the ``.dg`` files kept here.  A run with ``--out NAME`` writes NAME in a
fresh temporary directory instead, and its record also holds the sha256 of
the written file (None when none was written).  An exception that escapes
``main`` is recorded as the console script would end: exit status 1 and the
first line of a traceback.

Regenerate the inputs and ``cli.json`` with::

    PYTHONPATH=src python tests/golden/generate.py

``tests/test_golden.py`` replays every record and compares.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RECORDS = os.path.join(HERE, "cli.json")

SPECS = (
    "single_chain:q=2",
    "double_chain:a=2,b=3",
    "double_chain:a=2,b=2",
    "grid:a=2,b=3",
    "cycle:n=3,q=2",
    "cycle:n=4,q=1",
    "cayley:k=2,w1=2,w2=3",
    "deformed_chain:q=1.05,x=0.3",
)

# the mixed file is written from the double_chain:a=2,b=3 ball of radius 4
# with every a^1 edge weight given as the float 2.0; the ambiguous file the
# same way from double_chain:a=2,b=2, where 2.0 is both a^1 and b^1
OVERFLOW = (
    "delta-graph v1\n"
    "delta 2.5\n"
    "vertex 0\nvertex 1\nvertex 2\n"
    "edge e0 0 1 weight 1e200 conjugate e2\n"
    "edge e1 1 2 weight 1e200 conjugate e3\n"
    "edge e2 1 0 weight 1e-200 conjugate e0\n"
    "edge e3 2 1 weight 1e-200 conjugate e1\n"
    "basepoint 0\n"
)
SELF_LOOP = (
    "delta-graph v1\n"
    "delta 2\n"
    "vertex 0\n"
    "edge e0 0 0 weight 1 conjugate e0\n"
    "basepoint 0\n"
)

INF_DELTA = SELF_LOOP.replace("delta 2\n", "delta inf\n")
HUGE_WEIGHT = OVERFLOW.replace("1e200 conjugate e2", "1e999 conjugate e2")
# w * w-bar underflows to 0.0, and so do the float scalars that the modular
# operator gives its loops from length 2 on and star from length 3 on
TINY_LOOP = SELF_LOOP.replace("weight 1 ", "weight 1e-300 ")
# a self-loop pair whose loop of length 2 weighs 1e310, past the float range,
# so the modular operator's scalar on it overflows
BIG_LOOP = (
    "delta-graph v1\n"
    "delta 1e155\n"
    "vertex 0\n"
    "edge e0 0 0 weight 1e155 conjugate e1\n"
    "edge e1 0 0 weight 1e-155 conjugate e0\n"
    "basepoint 0\n"
)
# a conjugate pair whose exact weights have values past the float range
HUGE_PAIR = (
    "delta-graph v1\n"
    "delta 2\n"
    "generator q 2.0\n"
    "vertex 0\nvertex 1\n"
    "edge e0 0 1 weight q^1100 conjugate e1\n"
    "edge e1 1 0 weight q^-1100 conjugate e0\n"
    "basepoint 0\n"
)
# exponents past 2^63 on a unit generator: every value is 1, and exact
# arithmetic keeps the exponents
BIG_EXPONENT = (
    "delta-graph v1\n"
    "delta 2\n"
    "generator q 1.0\n"
    "vertex 0\nvertex 1\n"
    "edge e0 0 1 weight q^9223372036854775808 conjugate e2\n"
    "edge e1 0 1 weight q^-9223372036854775808 conjugate e3\n"
    "edge e2 1 0 weight q^-9223372036854775808 conjugate e0\n"
    "edge e3 1 0 weight q^9223372036854775808 conjugate e1\n"
    "basepoint 0\n"
)


def _pairs(edges: str) -> str:
    """A two-vertex file at delta 2 with the given edge records; each of
    these parses, and fails validate."""
    return "delta-graph v1\ndelta 2\ngenerator q 2\nvertex 0\nvertex 1\n%sbasepoint 0\n" % edges


SELF_CONJUGATE = _pairs(
    "edge e0 0 1 weight 1 conjugate e0\nedge e1 1 0 weight 1 conjugate e1\n"
    "edge e2 0 1 weight 1 conjugate e3\nedge e3 1 0 weight 1 conjugate e2\n"
)
WRONG_ENDPOINTS = _pairs(
    "edge e0 0 1 weight 1 conjugate e1\nedge e1 0 1 weight 1 conjugate e0\n"
    "edge e2 1 0 weight 1 conjugate e3\nedge e3 1 0 weight 1 conjugate e2\n"
)
NON_INVERSE = _pairs(
    "edge e0 0 1 weight q^1 conjugate e1\nedge e1 1 0 weight q^1 conjugate e0\n"
)
BROKEN = ("self-conjugate.dg", "wrong-endpoints.dg", "non-inverse.dg")
# beside a fair pair e0/e1, the dangling file's e2 names no edge, and the
# non-mutual file's e3 names itself where e2 names e3; both parse, and
# validate's involution check fails them
DANGLING = _pairs(
    "edge e0 0 1 weight 1 conjugate e1\nedge e1 1 0 weight 1 conjugate e0\n"
    "edge e2 0 1 weight 1 conjugate nothere\nedge e3 1 0 weight 1 conjugate e2\n"
)
NON_MUTUAL = _pairs(
    "edge e0 0 1 weight 1 conjugate e1\nedge e1 1 0 weight 1 conjugate e0\n"
    "edge e2 0 1 weight 1 conjugate e3\nedge e3 1 0 weight 1 conjugate e3\n"
)
UNPAIRED = ("dangling.dg", "non-mutual.dg")

# e0: 0 -> 1 and e1: 1 -> 2 name each other as conjugates, so e0's conjugate
# does not lead back to 0 (vertex 1 is unfair too, with sum 3); the loops at 0
# of length 4 never reach 2, so pairing conjugates by id alone once certified
# a spectrum of 1:6
SKEW = (
    "delta-graph v1\n"
    "delta 2\n"
    "generator q 2\n"
    "vertex 0\nvertex 1\nvertex 2\n"
    "edge e0 0 1 weight 1 conjugate e1\n"
    "edge e1 1 2 weight 1 conjugate e0\n"
    "edge e2 0 1 weight 1 conjugate e3\n"
    "edge e3 1 0 weight 1 conjugate e2\n"
    "edge e4 1 1 weight 1 conjugate e4\n"
    "edge e5 2 2 weight 1 conjugate e5\n"
    "edge e6 2 2 weight 1 conjugate e6\n"
    "basepoint 0\n"
)

# the chain 0 - 1 - 2 with two self-conjugate unit loops at 0 and a conjugate
# pair of unit loops at 1; the action s maps 0 -> 1 -> 2, so it breaks the
# loops at 0 by their self-conjugacy and those at 1 by their count
LOOP_ACTION = (
    "delta-graph v1\n"
    "delta 4\n"
    "generator q 2\n"
    "vertex 0\nvertex 1\nvertex 2\n"
    "edge e0 0 1 weight q^1 conjugate e1\n"
    "edge e1 1 0 weight q^-1 conjugate e0\n"
    "edge e2 1 2 weight q^1 conjugate e3\n"
    "edge e3 2 1 weight q^-1 conjugate e2\n"
    "edge x0 0 0 weight 1 conjugate x0\n"
    "edge x1 0 0 weight 1 conjugate x1\n"
    "edge y0 1 1 weight 1 conjugate y1\n"
    "edge y1 1 1 weight 1 conjugate y0\n"
    "basepoint 0\n"
    "action s weight q^1\n"
    "map 0 1\nmap 1 2\n"
)

# parallel pairs q^1/3, q^-1/3 between two vertices: at q = 8 every outgoing
# sum is 2 + 1/2 = delta, and loop weights are monomials over denominator 3
THIRDS = (
    "delta-graph v1\n"
    "delta 2.5\n"
    "generator q 8\n"
    "vertex 0\nvertex 1\n"
    "edge e0 0 1 weight q^1/3 conjugate e1\n"
    "edge e1 1 0 weight q^-1/3 conjugate e0\n"
    "edge e2 0 1 weight q^-1/3 conjugate e3\n"
    "edge e3 1 0 weight q^1/3 conjugate e2\n"
    "basepoint 0\n"
)


def runs() -> list[list[str]]:
    out = []
    for g in SPECS + ("mixed.dg", "thirds.dg"):
        out += [
            ["tl-check", g, "--max-len", "4"],
            ["spectrum", g, "--n", "4", "--verify-all"],
            ["loops", g, "--n", "2"],
            ["invariants", g, "--radius", "1", "--shift-bound", "1"],
        ]
    out += [
        ["spectrum", "mixed.dg", "--n", "2", "--float"],
        ["loops", "overflow.dg", "--n", "4"],
        ["spectrum", "overflow.dg", "--n", "4"],
        ["spectrum", "double_chain:a=1e200,b=1e-200", "--n", "2", "--float"],
        ["tl-check", "single_chain:q=2", "--max-len", "-1"],
        ["invariants", "grid:a=2,b=3", "--shift-bound", "-1"],
        # a = b: every vertex has two neighbours of each weight, so the matcher backtracks
        ["invariants", "grid:a=2,b=2", "--radius", "3", "--shift-bound", "2"],
        ["invariants", "grid:a=2,b=2", "--radius", "3", "--shift-bound", "2", "--float"],
        ["invariants", "cayley:k=3,w1=2,w2=3,w3=5", "--radius", "3", "--shift-bound", "2"],
        ["validate", "single_chain:q=1"],
    ]
    for m in ("2", "3", "4", "5"):
        out.append(["tl-check", "overflow.dg", "--max-len", m])
    for n in ("3", "1500"):
        out += [["loops", "self-loop.dg", "--n", n], ["spectrum", "self-loop.dg", "--n", n]]
    out += [
        ["tl-check", "self-loop.dg", "--max-len", "4"],
        ["validate", "tiny-loop.dg"],
        ["tl-check", "tiny-loop.dg", "--max-len", "4"],
        ["tl-check", "tiny-loop.dg", "--max-len", "6"],
        ["tl-check", "big-loop.dg", "--max-len", "2"],
        ["loops", "tiny-loop.dg", "--n", "2"],
        ["spectrum", "tiny-loop.dg", "--n", "2"],
        ["cover", "tiny-loop.dg", "--radius", "2"],
        ["validate", "big-mixed.dg"],
        ["loops", "big-mixed.dg", "--n", "2"],
        ["validate", "huge-pair.dg"],
        ["tl-check", "big-exponent.dg", "--max-len", "4"],
        ["spectrum", "big-exponent.dg", "--n", "2", "--verify-all"],
        ["invariants", "self-loop.dg", "--radius", "1", "--shift-bound", "1"],
        ["build", "double_chain", "a=2", "b=3", "--radius", "2", "--out", "built.dg"],
        ["validate", "double_chain:a=2,b=3"],
        ["validate", "mixed.dg"],
        ["validate", "unfair.dg", "--radius", "3"],
        ["tl-check", "unfair.dg"],
    ]
    for name in BROKEN:
        out += [["validate", name], ["cover", name, "--radius", "2"]]
    for name in BROKEN:
        out += [["spectrum", name, "--n", "4", "--verify-all"], ["tl-check", name, "--max-len", "4"]]
    out += [
        ["validate", "skew.dg"],
        ["spectrum", "skew.dg", "--n", "4", "--verify-all"],
        ["tl-check", "skew.dg", "--max-len", "4"],
        ["cover", "skew.dg", "--radius", "2"],
        ["recover", "skew.dg", "--radius", "2"],
    ]
    for name in UNPAIRED:
        out += [
            ["validate", name],
            ["spectrum", name, "--n", "2", "--verify-all"],
            ["tl-check", name, "--max-len", "2"],
            ["cover", name, "--radius", "2"],
        ]
    out += [
        ["cover", "double_chain:a=2,b=3", "--radius", "2"],
        ["cover", "mixed.dg", "--radius", "2", "--out", "cover.dg"],
        ["cover", "single_chain:q=2", "--radius", "3", "--export-dot"],
        ["cover", "ambiguous.dg", "--radius", "3"],
        ["quotient", "single_chain:q=2", "--shift", "3", "--radius", "4"],
        ["quotient", "grid:a=2,b=3", "--shift", "1,-1", "--radius", "3"],
        ["quotient", "chain-action.dg", "--radius", "4"],
        ["quotient", "chain-action.dg", "--action", "s", "--radius", "4", "--export-dot"],
        ["quotient", "chain-action.dg", "--action", "zz"],
        ["quotient", "loop-action.dg", "--radius", "4"],
        ["recover", "cycle:n=3,q=2", "--radius", "4"],
        ["recover", "double_chain:a=2,b=3", "--radius", "3", "--export-dot"],
        ["recover", "grid:a=2,b=3", "--radius", "3"],
        ["recover", "mixed.dg", "--radius", "3"],
        ["recover", "chain-action.dg", "--radius", "3"],
        ["recover", "deformed_chain:q=1.05,x=0.3", "--radius", "3"],
        ["recover", "double_chain:a=2,b=3", "--radius", "0"],
        # the orbits of the ball's tips (0, ±5) have no interior member
        ["quotient", "grid:a=2,b=3", "--shift", "1,0", "--radius", "5"],
        ["export-dot", "double_chain:a=2,b=3", "--radius", "2"],
        ["validate", "inf-delta.dg"],
        ["loops", "huge-weight.dg", "--n", "2"],
        ["validate", "no_such:q=2"],
        ["validate", "cycle:n=2.5,q=2"],
        ["quotient", "cycle:n=4,q=1", "--shift", "1"],
        ["build", "single_chain", "q2", "--out", "unwritten.dg"],
        ["loops", "single_chain:q=2"],
    ]
    return out


def run(argv: list[str]) -> dict:
    """One record: ``argv`` run through ``cli.main`` from this directory."""
    from deltagraph.cli import main

    out, err = io.StringIO(), io.StringIO()
    call, written = list(argv), None
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        if "--out" in call:
            i = call.index("--out") + 1
            written = call[i] = os.path.join(tmp, call[i])
        os.chdir(HERE)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = main(call)
                except SystemExit as exc:
                    status = exc.code
                except Exception:
                    status = 1
                    print("Traceback (most recent call last):", file=err)
        finally:
            os.chdir(cwd)
        record = {
            "argv": list(argv),
            "exit": status,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue().partition("\n")[0],
        }
        if written is not None:
            record["out_sha256"] = None
            if os.path.exists(written):
                with open(written, "rb") as fh:
                    record["out_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    return record


def write_inputs():
    from deltagraph import builders, serialize_graph

    # two interior vertices made unfair by a unit self-loop each: v2 is
    # nearer the basepoint than v10, which sorts first by id
    unfair = serialize_graph(builders.grid(2, 3), 3).replace(
        "basepoint ",
        "edge x0 v2 v2 weight 1 conjugate x0\nedge x1 v10 v10 weight 1 conjugate x1\nbasepoint ",
    )
    mixed = serialize_graph(builders.double_chain(2, 3), 4).replace("weight a^1 ", "weight 2.0 ")
    # e0's exponent is past 2^63, so its value leaves the float range
    big_mixed = mixed.replace("e0 v0 v1 weight a^-1 ", "e0 v0 v1 weight a^9223372036854775808 ")
    ambiguous = serialize_graph(builders.double_chain(2, 2), 4).replace("weight a^1 ", "weight 2.0 ")
    chain = builders.single_chain(2)
    chain_action = serialize_graph(chain, 4, actions=builders.chain_shift_action(chain, 3))
    for name, text in (
        ("mixed.dg", mixed),
        ("thirds.dg", THIRDS),
        ("overflow.dg", OVERFLOW),
        ("self-loop.dg", SELF_LOOP),
        ("tiny-loop.dg", TINY_LOOP),
        ("big-loop.dg", BIG_LOOP),
        ("big-mixed.dg", big_mixed),
        ("huge-pair.dg", HUGE_PAIR),
        ("big-exponent.dg", BIG_EXPONENT),
        ("ambiguous.dg", ambiguous),
        ("chain-action.dg", chain_action),
        ("loop-action.dg", LOOP_ACTION),
        ("inf-delta.dg", INF_DELTA),
        ("huge-weight.dg", HUGE_WEIGHT),
        ("unfair.dg", unfair),
        *zip(BROKEN, (SELF_CONJUGATE, WRONG_ENDPOINTS, NON_INVERSE)),
        ("skew.dg", SKEW),
        *zip(UNPAIRED, (DANGLING, NON_MUTUAL)),
    ):
        with open(os.path.join(HERE, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def main():
    write_inputs()
    records = [run(argv) for argv in runs()]
    with open(RECORDS, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print("%d records -> %s" % (len(records), RECORDS), file=sys.stderr)


if __name__ == "__main__":
    main()
