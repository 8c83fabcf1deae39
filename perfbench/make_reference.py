"""Record the CLI reference outputs that the workloads compare against.

Usage, from the root of the repository::

    python3 perfbench/make_reference.py [--seed N]

Runs each in-process CLI call of the workloads at one seed and writes its
stdout to ``perfbench/reference.json``, with the seed-dependent numbers (the
generator values and delta) replaced by ``${name}`` placeholders that the
workloads fill in from the seed's closed forms.  Run it only when the CLI's
output format changes on purpose, and review the diff.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as W  # noqa: E402

# which builder's delta each output carries, for the ``delta`` line
DELTA_OF = {"cli-cover": "double_chain", "cli-recover": "double_chain", "cli-quotient": "grid"}


def templatize(name: str, text: str, values: dict[str, str]) -> str:
    lines = []
    for line in text.splitlines(keepends=True):
        m = re.match(r"(generator (\w+) )(\S+)(\n?)$", line)
        if m and values.get(m.group(2)) == m.group(3):
            line = "%s${%s}%s" % (m.group(1), m.group(2), m.group(4))
        m = re.match(r"(delta )(\S+)(\n?)$", line)
        if m:
            key = "delta_" + DELTA_OF[name]
            if values[key] != m.group(2):
                raise SystemExit("%s: delta %s is not the closed form %s"
                                 % (name, m.group(2), values[key]))
            line = "%s${%s}%s" % (m.group(1), key, m.group(3))
        if "$" in line.replace("${", ""):
            raise SystemExit("%s: output contains a literal $" % name)
        lines.append(line)
    return "".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    workdir = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench")
    os.makedirs(workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        inp = W.make_inputs(args.seed, tmp)
        W.write_input_file(inp)
        values = W.reference_values(inp)
        out = {}
        for name, argv in W.cli_specs(inp).items():
            rc, text = W.run_cli(argv)
            if rc != 0:
                raise SystemExit("%s exited %d" % (name, rc))
            out[name] = templatize(name, text, values)
    with open(W.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
