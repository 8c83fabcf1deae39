"""Checks of the benchmark itself: run-to-run spread, and repeatable counts.

Usage, from the root of the repository::

    python3 perfbench/check.py spread --workload spectrum --seeds 1 2 3 4 5
    python3 perfbench/check.py counts --workload algebra --seeds 1 2

``spread`` runs one untraced run per seed and prints, for each end-to-end
metric, the median, the quartiles and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json.

``counts`` makes two traced runs of the first seed and one of the second.
Every count must repeat exactly between the two runs of one seed, and every
count except those in ``VALUE_DEPENDENT`` must also agree across the seeds,
because the seed changes only generator values and job order, and exact
arithmetic does not depend on the values.  Exits 1 if a check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts that legitimately move with the generator values, and why.
VALUE_DEPENDENT = {
    # the file format writes generator values and delta as decimals
    "io.bytes_out": "serialized decimals vary in length",
    "io.bytes_in": "serialized decimals vary in length",
    "cli.stdout_bytes": "serialized decimals vary in length",
}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        start = time.perf_counter()
        result = run(args.workload, seed, seconds, 0)
        print("seed %d (%.1f s): %s" % (seed, time.perf_counter() - start, " ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items())), flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    ok = True
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        within = share <= metric["bound"]
        ok = ok and within
        print("%-14s median %.6g  q1 %.6g  q3 %.6g  spread %.4f  bound %.2f  %s" % (
            metric["name"], med, q1, q3, share, metric["bound"], "ok" if within else "WIDE"))
    return 0 if ok else 1


def counts(args) -> int:
    def count_metrics(result):
        return {k: m["value"] for k, m in result["metrics"].items()
                if m["unit"] != "s" and k != "trace.overhead_ratio"}

    first, second = args.seeds
    a1 = count_metrics(run(args.workload, first, 0, 1))
    a2 = count_metrics(run(args.workload, first, 0, 1))
    b = count_metrics(run(args.workload, second, 0, 1))
    ok = True
    for k in sorted(a1):
        same_seed = a1[k] == a2[k]
        across = a1[k] == b[k] or k in VALUE_DEPENDENT
        ok = ok and same_seed and across
        if not (same_seed and a1[k] == b[k]):
            print("%s: seed %d gives %r then %r; seed %d gives %r%s" % (
                k, first, a1[k], a2[k], second, b[k],
                " (%s)" % VALUE_DEPENDENT[k] if same_seed and across else ""))
    print("%s: %d counts, %s" % (args.workload, len(a1), "ok" if ok else "MISMATCH"))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description="Checks of the benchmark itself.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--seconds", type=float)
    p.set_defaults(fn=spread)
    p = sub.add_parser("counts")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs=2, default=[1, 2])
    p.set_defaults(fn=counts)
    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
