"""The CLI golden corpus: one record per run of ``deltagraph.cli.main``.

Each record holds the run's ``argv``, its exit status, the sha256 of its
stdout and the first line of its stderr ("" when there is none).  Runs are
made in process, from this directory, so the file inputs named in ``argv``
are the ``.dg`` files kept here.  An exception that escapes ``main`` is
recorded as the console script would end: exit status 1 and the first line
of a traceback.

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
# with every a^1 edge weight given as the float 2.0
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


def runs() -> list[list[str]]:
    out = []
    for g in SPECS + ("mixed.dg",):
        out += [
            ["tl-check", g, "--max-len", "4"],
            ["spectrum", g, "--n", "4", "--verify-all"],
            ["loops", g, "--n", "2"],
            ["invariants", g, "--radius", "1", "--shift-bound", "1"],
        ]
    out += [
        ["tl-check", "mixed.dg", "--max-len", "4"],
        ["spectrum", "mixed.dg", "--n", "2", "--float"],
        ["loops", "overflow.dg", "--n", "4"],
        ["spectrum", "overflow.dg", "--n", "4"],
        ["spectrum", "double_chain:a=1e200,b=1e-200", "--n", "2", "--float"],
        ["tl-check", "single_chain:q=2", "--max-len", "-1"],
        ["invariants", "grid:a=2,b=3", "--shift-bound", "-1"],
        ["validate", "single_chain:q=1"],
    ]
    for m in ("2", "3", "4", "5"):
        out.append(["tl-check", "overflow.dg", "--max-len", m])
    for n in ("3", "1500"):
        out += [["loops", "self-loop.dg", "--n", n], ["spectrum", "self-loop.dg", "--n", n]]
    out += [
        ["tl-check", "self-loop.dg", "--max-len", "4"],
        ["invariants", "self-loop.dg", "--radius", "1", "--shift-bound", "1"],
    ]
    return out


def run(argv: list[str]) -> dict:
    """One record: ``argv`` run through ``cli.main`` from this directory."""
    from deltagraph.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(list(argv))
            except SystemExit as exc:
                status = exc.code
            except Exception:
                status = 1
                print("Traceback (most recent call last):", file=err)
    finally:
        os.chdir(cwd)
    return {
        "argv": list(argv),
        "exit": status,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue().partition("\n")[0],
    }


def write_inputs():
    from deltagraph import builders, serialize_graph

    mixed = serialize_graph(builders.double_chain(2, 3), 4).replace("weight a^1 ", "weight 2.0 ")
    for name, text in (("mixed.dg", mixed), ("overflow.dg", OVERFLOW), ("self-loop.dg", SELF_LOOP)):
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
