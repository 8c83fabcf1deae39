"""Closed-loop benchmark of deltagraph: three workloads, one job at a time.

Usage, from the root of the repository::

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload search --seed 3 --seconds 40 --trace 0

One process runs one workload on one thread; each job starts after the
previous one finished.  ``--workload all`` (the default) runs each workload in
a fresh process in turn, since peak resident memory only ever grows.

With ``--trace 0`` a run makes as many passes over the workload's job list as
fit in ``--seconds`` (at least one).  Between jobs, at most once a second, it
times set-up in a fresh child process; it reports the end-to-end metrics.
``search`` runs its limit probes after each pass, in a child process.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics from the traced ones.  Metric names, units and the default
``--seconds`` come from BENCHMARK.json at the root of the repository.

For one workload the last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  With
``--workload all`` each workload's output is printed in turn, then a table,
and the last line is one JSON object that maps each workload to its result.
See README.md in this directory.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("algebra", "spectrum", "search")
SETUP_EVERY_S = 1.0  # at most one set-up sample per second, taken between jobs
SETUP_MIN_SAMPLES = 5


def _spec() -> dict:
    """BENCHMARK.json: the metric names and units, and ``run_seconds``."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise SystemExit("perfbench: no BENCHMARK.json at %s" % ROOT)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _units(kind: str) -> dict[str, str]:
    """Unit by metric name, for ``end_to_end`` or ``per_layer``, in file order."""
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def _import_program():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "deltagraph", "__init__.py")):
        raise SystemExit("perfbench: no deltagraph sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import deltagraph

    if os.path.dirname(os.path.dirname(os.path.abspath(deltagraph.__file__))) != SRC:
        raise SystemExit("perfbench: imported deltagraph from %s" % deltagraph.__file__)


def run_job(job) -> tuple[float, str, str]:
    """Time ``job.run`` and check its output: (seconds, outcome, detail).
    The outcome is ``ok``, ``WrongOutput`` or the class of the exception raised."""
    from workloads import WrongOutput

    start = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:  # a failed job is counted, and the pass goes on
        return time.perf_counter() - start, type(exc).__name__, str(exc)[:200]
    elapsed = time.perf_counter() - start
    try:
        job.check(result)
    except WrongOutput as exc:
        return elapsed, "WrongOutput", str(exc)
    return elapsed, "ok", ""


class Pass(NamedTuple):
    wall_s: float  # the jobs only: probes and output checks are excluded
    setup_s: list[float]  # set-up samples taken between the pass's jobs
    probe_s: dict[str, float]
    outcomes: list[tuple[str, str, str]]  # (job, outcome, detail)


def _child(mode: str, workload: str, seed: int) -> list[str]:
    return [sys.executable, os.path.abspath(__file__), mode, "--workload", workload,
            "--seed", str(seed)]


def run_pass(jobs, probes_argv=None, tracer=None, setup=None) -> Pass:
    """One pass over the job list, then the limit probes if ``probes_argv`` is
    given.  The probes run in a child process, on its main thread at the default
    recursion limit, so that their memory stays out of ``peak_rss_mb``.
    ``setup``, a ``SetupSampler``, may time set-up after each job, outside its
    time."""
    outcomes, setup_s = [], []
    wall_s = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for jid, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = jid
            # each job starts on a clean heap, as in a fresh process of a user
            gc.collect()
            elapsed, outcome, detail = run_job(job)
            wall_s += elapsed
            outcomes.append((job.name, outcome, detail))
            if setup is not None and setup.due():
                setup_s.append(setup.sample())
    finally:
        if tracer is not None:
            tracer.uninstall()
    probe_s = {}
    if probes_argv:
        proc = subprocess.run(probes_argv, stdout=subprocess.PIPE, text=True, check=True)
        for name, elapsed, outcome, detail in json.loads(proc.stdout):
            probe_s[name] = elapsed
            outcomes.append((name, outcome, detail))
    return Pass(wall_s, setup_s, probe_s, outcomes)


def run_probes(workload: str, seed: int) -> None:
    """The ``--probes`` child: run each probe once, print one JSON list."""
    import workloads as W

    rows = []
    if workload == "search":
        for job in W.search_probes(W.make_inputs(seed, WORKDIR)):
            rows.append((job.name,) + run_job(job))
    print(json.dumps(rows))


def time_setup(workload: str, seed: int) -> float:
    """Process start to ready, in a fresh interpreter: import, seeded inputs."""
    start = time.perf_counter()
    with subprocess.Popen(_child("--setup-only", workload, seed),
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit("perfbench: set-up child failed (%s)" % proc.returncode)
    return elapsed


class SetupSampler:
    """When to time set-up: at most once a second, between jobs, so that the
    samples cover the same stretch of time as the passes rather than one burst."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= SETUP_EVERY_S

    def sample(self) -> float:
        elapsed = time_setup(self.workload, self.seed)
        self.last = time.perf_counter()
        return elapsed


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads as W

    setup = None if trace else SetupSampler(workload, seed)
    rundir = os.path.join(WORKDIR, "run-%d" % os.getpid())
    os.makedirs(rundir, exist_ok=True)
    try:
        jobs = W.setup(workload, seed, rundir)
        probes_argv = _child("--probes", workload, seed) if workload == "search" else None
        plain: list[Pass] = []
        traced: list[tuple[Pass, object]] = []
        start = time.perf_counter()
        while True:
            begun = time.perf_counter()
            plain.append(run_pass(jobs, probes_argv, setup=setup))
            if trace:
                import tracing

                tr = tracing.Tracer()
                traced.append((run_pass(jobs, tracer=tr), tr))
            # stop before a round like the last one would run past ``seconds``
            now = time.perf_counter()
            if 2 * now - begun - start > seconds:
                break
        setup_s = [t for p in plain for t in p.setup_s]
        while setup is not None and len(setup_s) < SETUP_MIN_SAMPLES:
            setup_s.append(setup.sample())
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    passes = plain + [p for p, _ in traced]
    outcomes = [o for p in passes for o in p.outcomes]
    failures = Counter(outcome for _, outcome, _ in outcomes if outcome != "ok")
    wrong = [(name, detail) for name, outcome, detail in outcomes if outcome == "WrongOutput"]
    unexpected = sorted({(name, outcome, detail) for name, outcome, detail in outcomes
                         if outcome not in ("ok", "WrongOutput")
                         and W.PROBE_EXPECTED.get(name) != outcome})
    correct = not wrong and not unexpected  # the probes' known defects are failures only
    for name, detail in sorted(set(wrong)):
        print("WRONG %s: %s" % (name, detail))
    for name, outcome, detail in unexpected:
        print("FAILED %s: %s %s" % (name, outcome, detail))
    for i, p in enumerate(plain):
        probes_txt = "".join("  %s %.3f s" % kv for kv in sorted(p.probe_s.items()))
        print("pass %d: %.4f s%s" % (i + 1, p.wall_s, probes_txt))

    failed = sum(failures.values())
    fail_share = failed / len(outcomes)
    by_class = ", ".join("%s x%d" % kv for kv in sorted(failures.items()))
    print("%s: fail_share %.4f ratio (%d of %d jobs failed%s)" % (
        workload, fail_share, failed, len(outcomes), ": " + by_class if by_class else ""))

    if not trace:
        print("%s: %d set-up samples" % (workload, len(setup_s)))
        units = _units("end_to_end")
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in plain),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_share": 1 - fail_share,
        }
    else:
        units = _units("per_layer")
        metrics, consistent = traced_metrics(workload, seed, plain, traced, units)
        correct = correct and consistent
    if set(metrics) != set(units):
        raise SystemExit("perfbench: metrics %s differ from BENCHMARK.json" % sorted(
            set(metrics) ^ set(units)))
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print("%s.%s = %.6g %s" % (workload, name, value, units[name]))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_metrics(workload, seed, plain, traced, units):
    """Per-layer metrics: counts from the traced passes, which must all agree,
    and times as medians over them; limit probes timed in the untraced passes."""
    import tracing
    import workloads as W

    per_pass = [tracing.layer_metrics(tr) for _, tr in traced]
    counts = [{k: v for k, v in m.items() if units[k] != "s"} for m in per_pass]
    consistent = all(c == counts[0] for c in counts)
    if not consistent:
        print("INCONSISTENT: layer counts differ between traced passes")
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = statistics.median(values) if units[name] == "s" else values[0]
    for probe in W.PROBE_EXPECTED:
        times = [p.probe_s[probe] for p in plain if probe in p.probe_s]
        metrics["limits.%s_s" % probe] = statistics.median(times) if times else 0.0
    metrics["trace.overhead_ratio"] = (statistics.median(p.wall_s for p, _ in traced)
                                       / statistics.median(p.wall_s for p in plain))
    os.makedirs(WORKDIR, exist_ok=True)
    traced[-1][1].write(os.path.join(WORKDIR, "spans-%s-seed%d.bin" % (workload, seed)))
    return metrics, consistent


def run_all(args) -> int:
    """Each workload in a fresh process, then a table of the end-to-end metrics."""
    rows = {}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    for workload, result in rows.items():
        share = result["failed"] / result["attempted"]
        cells = ["%s %.6g %s" % (k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        print("%-9s fail_share %.4f ratio | %s | correct=%s" % (
            workload, share, " | ".join(cells), result["correct"]))
    print(json.dumps(rows))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="Closed-loop deltagraph benchmark.")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probes", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds is None and not (args.setup_only or args.probes):
        args.seconds = float(_spec()["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    _import_program()
    if args.probes:
        run_probes(args.workload, args.seed)
        return 0
    if args.setup_only:
        import workloads as W

        rundir = os.path.join(WORKDIR, "setup-%d" % os.getpid())
        os.makedirs(rundir, exist_ok=True)
        try:
            W.setup(args.workload, args.seed, rundir)
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        print("ready", flush=True)
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
