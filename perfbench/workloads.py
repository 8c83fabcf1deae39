"""Seeded inputs, job lists and output checks for the three workloads.

A job is a name, a function that builds its own graphs and computes a result,
and a check that raises ``WrongOutput`` unless the result is right.  Checks use
closed forms where they exist and otherwise compare byte for byte against the
reference outputs in ``reference.json``.

``deltagraph`` is called through module attributes (``dg.ball``, ``cli.main``)
at call time, so the tracer's patched bindings are the ones that run.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import string
from fractions import Fraction
from math import comb, factorial
from typing import Callable, NamedTuple

import deltagraph as dg
from deltagraph import cli

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Probes of known scale defects; the exception each raised when this benchmark was added.
PROBE_EXPECTED = {
    "iso_r24": "RecursionError",
    "t0_chain700": "RecursionError",
    "weighting_1030": "OverflowError",
    "cover_1030": "OverflowError",
}


class WrongOutput(Exception):
    """A job returned, but its output is not the expected one."""


class Job(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


class Inputs(NamedTuple):
    """Everything a seed decides.  Combinatorial sizes never depend on it."""

    a: float
    b: float
    c: float
    q: float
    deformed_q: float
    deformed_x: float
    file_path: str  # the graph file written by ``deltagraph build`` in set-up


def make_inputs(seed: int, workdir: str) -> Inputs:
    rng = random.Random(seed)
    # distinct integers from 2..9, so q^1030 overflows a float for every seed
    a, b, c, q = (float(v) for v in rng.sample(range(2, 10), 4))
    deformed_q = round(rng.uniform(1.02, 1.5), 6)
    deformed_x = round(rng.uniform(0.0, 1.0), 6)
    return Inputs(a, b, c, q, deformed_q, deformed_x,
                  os.path.join(workdir, "grid-%d.dg" % seed))


def write_input_file(inp: Inputs) -> None:
    """Set-up step of ``search``: the graph file its CLI jobs read."""
    rc, out = run_cli(["build", "grid", "a=%g" % inp.a, "b=%g" % inp.b, "--out", inp.file_path])
    if rc != 0:
        raise RuntimeError("deltagraph build failed (%d): %s" % (rc, out))


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def expect(ok: bool, what: str, *args) -> None:
    if not ok:
        raise WrongOutput(what % args if args else what)


# ---------------------------------------------------------------- closed forms

def _walks(m: int, d: int) -> int:
    """Walks of m +-1 steps on Z with net displacement d."""
    if abs(d) > m or (m + d) % 2:
        return 0
    return comb(m, (m + d) // 2)


def chain_loops(n: int) -> int:
    return _walks(n, 0)


def double_chain_spectrum(n: int) -> dict[int, int]:
    """Multiplicity of the loop weight (a/b)^j: k of the n steps are a-steps."""
    out: dict[int, int] = {}
    for j in range(-n, n + 1):
        m = sum(comb(n, k) * _walks(k, j) * _walks(n - k, -j) for k in range(n + 1))
        if m:
            out[j] = m
    return out


def lattice_loops(n: int, k: int) -> int:
    """Closed walks of length n on Z^k (unit steps along each axis)."""
    if n % 2:
        return 0
    h = n // 2

    def parts(left: int, slots: int):
        if slots == 1:
            yield (left,)
            return
        for i in range(left + 1):
            for rest in parts(left - i, slots - 1):
                yield (i,) + rest

    total = 0
    for p in parts(h, k):
        den = 1
        for i in p:
            den *= factorial(i) ** 2
        total += factorial(n) // den
    return total


def l1_ball(r: int) -> int:
    """Vertices of Z^2 within L1 distance r."""
    return 2 * r * r + 2 * r + 1


def _exps(w) -> dict[str, Fraction]:
    expect(w.is_exact, "expected an exact weight, got %r", w)
    return dict(w.exponents)


def _generator_set(report) -> set:
    return {tuple(sorted(_exps(w).items())) for w in report.generators}


def _unit(name: str) -> tuple:
    return ((name, Fraction(1)),)


# --------------------------------------------------------------- references

def _reference_texts() -> dict[str, str]:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(x: float) -> str:
    return repr(float(x))


def reference_values(inp: Inputs) -> dict[str, str]:
    """Values substituted into the reference templates: generator values and
    the closed-form delta of each builder, in the file format's rendering."""
    a, b = inp.a, inp.b
    return {
        "a": _fmt(a),
        "b": _fmt(b),
        "q": _fmt(inp.q),
        "delta_double_chain": _fmt(a + 1 / a + b + 1 / b),
        "delta_grid": _fmt(sum(w + 1 / w for w in (a, b))),
    }


def cli_specs(inp: Inputs) -> dict[str, list[str]]:
    """The in-process CLI calls of ``search`` and ``algebra``, by job name."""
    dch = "double_chain:a=%g,b=%g" % (inp.a, inp.b)
    gr = "grid:a=%g,b=%g" % (inp.a, inp.b)
    return {
        "cli-tl-check-single": ["tl-check", "single_chain:q=%g" % inp.q],
        "cli-tl-check-double": ["tl-check", dch],
        "cli-cover": ["cover", dch],
        "cli-quotient": ["quotient", gr, "--shift", "1,-1"],
        "cli-recover": ["recover", dch],
        "cli-invariants": ["invariants", gr],
        "cli-export-dot": ["export-dot", inp.file_path],
        "cli-validate": ["validate", inp.file_path],
    }


def _cli_job(name: str, argv: list[str], want: str) -> Job:
    def check(got):
        rc, out = got
        expect(rc == 0, "%s exited %d", name, rc)
        expect(out == want, "%s stdout differs from the reference", name)

    return Job(name, lambda: run_cli(argv), check)


def _cli_jobs(inp: Inputs, names: list[str]) -> list[Job]:
    refs = _reference_texts()
    values = reference_values(inp)
    specs = cli_specs(inp)
    return [
        _cli_job(n, specs[n], string.Template(refs[n]).substitute(values)) for n in names
    ]


# ----------------------------------------------------------------- algebra

def _relations_job(label: str, make, n: int, count: int) -> Job:
    """Acceptance 1: delooping and both zig-zags at every cup position."""

    def run():
        g = make()
        dv = dg.Coefficient.zero(g.context)
        for e in g.out_edges(g.basepoint):
            dv = dv + dg.Coefficient.of_weight(e.weight)
        vecs = dg.basis(g, n)
        checked = failed = 0
        for v in vecs:
            for i in range(n + 1):
                up = dg.cup(g, v, i)
                oks = [dg.cap(up, i + 1).eq(v.scaled(dv))]
                if i >= 1:
                    oks.append(dg.cap(up, i).eq(v))
                if i <= n - 1:
                    oks.append(dg.cap(up, i + 2).eq(v))
                checked += len(oks)
                failed += oks.count(False)
        return len(vecs), checked, failed

    def check(got):
        loops, checked, failed = got
        expect(loops == count, "%s n=%d: %d basis loops, want %d", label, n, loops, count)
        expect(checked == count * (3 * n + 1), "%s n=%d: %d relations checked", label, n, checked)
        expect(failed == 0, "%s n=%d: %d relations failed", label, n, failed)

    return Job("relations-%s-n%d" % (label, n), run, check)


def algebra_jobs(inp: Inputs) -> list[Job]:
    jobs = []
    for n in range(0, 7):
        jobs.append(_relations_job("single", lambda: dg.single_chain(inp.q), n, chain_loops(n)))
        jobs.append(_relations_job(
            "double", lambda: dg.double_chain(inp.a, inp.b), n, chain_loops(n) * 2 ** n))
    jobs += _cli_jobs(inp, ["cli-tl-check-single", "cli-tl-check-double"])
    return jobs


# ---------------------------------------------------------------- spectrum

def _spectrum_job(label: str, make, n: int, want: dict, exact: bool) -> Job:
    """``want`` maps an exponent key (exact) or the value 1.0 (float) to its
    multiplicity; eigenvalues must come sorted by value."""
    total = sum(want.values())

    def check(sp):
        expect(sp.total_multiplicity == total, "%s n=%d: %d loops, want %d",
               label, n, sp.total_multiplicity, total)
        expect(sp.verified == (total <= 256), "%s n=%d: verified=%s", label, n, sp.verified)
        values = [w.value for w, _ in sp.eigenvalues]
        expect(values == sorted(values), "%s n=%d: eigenvalues not sorted", label, n)
        if exact:
            got = {tuple(sorted(_exps(w).items())): m for w, m in sp.eigenvalues}
        else:
            expect(all(abs(v - 1.0) <= 1e-9 for v in values), "%s n=%d: non-unit weight", label, n)
            got = {1.0: sum(m for _, m in sp.eigenvalues)} if values else {}
            expect(len(values) <= 1, "%s n=%d: unit weights split into groups", label, n)
        expect(got == want, "%s n=%d: spectrum %r, want %r", label, n, got, want)

    return Job("spectrum-%s-n%d" % (label, n), lambda: dg.modular_spectrum(make(), n), check)


def _ab_key(j: int) -> tuple:
    if j == 0:
        return ()
    return (("a", Fraction(j)), ("b", Fraction(-j)))


def spectrum_jobs(inp: Inputs) -> list[Job]:
    a, b, c = inp.a, inp.b, inp.c
    jobs = []
    for n in range(0, 9, 2):
        jobs.append(_spectrum_job("grid", lambda: dg.grid(a, b), n,
                                  {(): chain_loops(n) ** 2}, True))
        jobs.append(_spectrum_job(
            "double_chain", lambda: dg.double_chain(a, b), n,
            {_ab_key(j): m for j, m in double_chain_spectrum(n).items()}, True))
        jobs.append(_spectrum_job(
            "deformed_chain", lambda: dg.deformed_chain(inp.deformed_q, inp.deformed_x), n,
            {1.0: chain_loops(n)}, False))
    for n in range(0, 7, 2):
        jobs.append(_spectrum_job("cayley3", lambda: dg.cayley((a, b, c)), n,
                                  {(): lattice_loops(n, 3)}, True))

    def check_group(got):
        expect(got.search_depth == 8, "loop_weight_group depth %d", got.search_depth)
        gens = _generator_set(got)
        ok = gens in ({_ab_key(1)}, {_ab_key(-1)})
        expect(ok, "loop_weight_group generators %r, want <a/b>", gens)

    jobs.append(Job("loop-weight-group", lambda: dg.loop_weight_group(dg.double_chain(a, b), 8),
                    check_group))
    return jobs


# ------------------------------------------------------------------ search

def _iso_identity(r: int, a: float, b: float):
    return dg.iso_check(dg.ball(dg.grid(a, b), r), dg.ball(dg.grid(a, b), r))


def _check_identity(m, r: int) -> None:
    expect(m is not None, "iso_check r=%d found no isomorphism", r)
    expect(len(m) == l1_ball(r), "iso_check r=%d mapped %d vertices", r, len(m))
    expect(all(u == v for u, v in m.items()), "iso_check r=%d: not the identity", r)


def _check_mapping(m, size: int, what: str) -> None:
    expect(m is not None, "%s: not isomorphic", what)
    expect(len(m) == size, "%s: mapping of %d vertices, want %d", what, len(m), size)


def search_jobs(inp: Inputs) -> list[Job]:
    a, b, c = inp.a, inp.b, inp.c
    jobs = []

    def cover_vs_grid():
        cov, _ = dg.tracial_cover(dg.double_chain(a, b), 12)
        return len(cov.vertices), dg.iso_check(cov, dg.ball(dg.grid(a, b), 12), interior_only=True)

    def check_cover(got):
        nv, m = got
        expect(nv == l1_ball(12), "cover has %d vertices, want %d", nv, l1_ball(12))
        _check_mapping(m, l1_ball(11), "cover(double_chain, 12) vs grid ball")

    jobs.append(Job("cover-double-chain-r12", cover_vs_grid, check_cover))

    def quotient_roundtrip():
        gr = dg.grid(a, b)
        qd = dg.quotient(gr, dg.lattice_shift_action(gr, (1, -1)), 10)
        cov, _ = dg.tracial_cover(qd, 10)
        return len(qd.vertices), dg.iso_check(cov, dg.ball(dg.grid(a, b), 10), interior_only=True)

    def check_quotient(got):
        nv, m = got
        expect(nv == 21, "quotient has %d vertices, want 21", nv)
        _check_mapping(m, l1_ball(9), "cover(quotient(grid, (1,-1), 10)) vs grid ball")

    jobs.append(Job("quotient-grid-r10", quotient_roundtrip, check_quotient))

    def recover_chain():
        rec = dg.recover(dg.double_chain(a, b), 16)
        return len(rec.vertices), dg.iso_check(
            rec, dg.ball(dg.double_chain(a, b), 16), interior_only=True)

    def check_recover(got):
        nv, m = got
        expect(nv == 33, "recovered graph has %d vertices, want 33", nv)
        _check_mapping(m, 31, "recover(double_chain, 16) vs ball")

    jobs.append(Job("recover-double-chain-r16", recover_chain, check_recover))

    for r in (16, 20):
        jobs.append(Job("iso-grid-r%d" % r, lambda r=r: _iso_identity(r, a, b),
                        lambda m, r=r: _check_identity(m, r)))

    def check_t0(want):
        def check(rep):
            expect(_generator_set(rep) == want, "t0 generators %r, want %r",
                   _generator_set(rep), want)
        return check

    jobs.append(Job("t0-grid-5-5", lambda: dg.t0(dg.grid(a, b), 5, 5),
                    check_t0({_unit("a"), _unit("b")})))
    jobs.append(Job("t0-cayley3-3-3", lambda: dg.t0(dg.cayley((a, b, c)), 3, 3),
                    check_t0({_unit("g1"), _unit("g2"), _unit("g3")})))

    def roundtrip():
        text = dg.serialize_graph(dg.grid(a, b), 20)
        return text, dg.serialize_graph(dg.parse_graph(text).graph, 20)

    def check_roundtrip(got):
        text, again = got
        expect(text == again, "serialize(parse(text)) differs from text")
        nv = sum(1 for line in text.splitlines() if line.startswith("vertex "))
        expect(nv == l1_ball(20), "serialized ball has %d vertices", nv)

    jobs.append(Job("serialize-parse-grid-r20", roundtrip, check_roundtrip))
    jobs += _cli_jobs(inp, ["cli-cover", "cli-quotient", "cli-recover", "cli-invariants",
                            "cli-export-dot", "cli-validate"])
    return jobs


def search_probes(inp: Inputs) -> list[Job]:
    """One job per known scale defect, named as in ``PROBE_EXPECTED``.  Each is
    expected to raise today; if it returns, its output is checked like any job."""
    a, b, q = inp.a, inp.b, inp.q

    def check_weighting(wr):
        expect(bool(wr), "single chain reported non-tracial")
        expect(_exps(wr.weighting[1030]) == {"q": 1030}, "w(1030) is not q^1030")

    def check_chain_t0(rep):
        expect(_generator_set(rep) == {_unit("q")}, "t0 generators %r", _generator_set(rep))

    def check_cover(got):
        expect(len(got.graph.vertices) == 2 * 1030 + 1, "cover has %d vertices",
               len(got.graph.vertices))

    return [
        Job("iso_r24", lambda: _iso_identity(24, a, b), lambda m: _check_identity(m, 24)),
        # q = 2 here: for q >= 3 the weights of ball(701) overflow first, which
        # would report the overflow defect in place of the recursion defect
        Job("t0_chain700", lambda: dg.t0(dg.single_chain(2), 700, 1), check_chain_t0),
        Job("weighting_1030", lambda: dg.vertex_weighting(dg.single_chain(q), 1030),
            check_weighting),
        Job("cover_1030", lambda: dg.tracial_cover(dg.single_chain(q), 1030), check_cover),
    ]


def setup(workload: str, seed: int, workdir: str) -> list[Job]:
    """The seeded inputs of one workload: its jobs, in seeded order."""
    inp = make_inputs(seed, workdir)
    if workload == "algebra":
        jobs = algebra_jobs(inp)
    elif workload == "spectrum":
        jobs = spectrum_jobs(inp)
    elif workload == "search":
        write_input_file(inp)
        jobs = search_jobs(inp)
    else:
        raise ValueError("unknown workload %r" % workload)
    random.Random(seed).shuffle(jobs)
    return jobs
