"""CLI behaviour: exit codes, FAIL lines, determinism, the build/cover
pipeline from the examples."""

import os
import select
import subprocess
import sys

import pytest

from deltagraph import (
    chain_shift_action,
    double_chain,
    loop_algebra,
    parse_graph,
    serialize_graph,
    single_chain,
    validate,
)
from deltagraph.cli import main


_OVERFLOW_CHAIN = (
    "delta-graph v1\n"
    "delta 2.5\n"
    "vertex 0\nvertex 1\nvertex 2\n"
    "edge e0 0 1 weight 1e200 conjugate e2\n"
    "edge e1 1 2 weight 1e200 conjugate e3\n"
    "edge e2 1 0 weight 1e-200 conjugate e0\n"
    "edge e3 2 1 weight 1e-200 conjugate e1\n"
    "basepoint 0\n"
)

# the same 1e200 / 1e-200 pairs on a 6-cycle, fair at delta 1e200 (the
# 1e-200 is lost in the float sum); a loop of length <= 4 cannot wrap, so
# its weight is 1
_OVERFLOW_CYCLE = "".join(
    ["delta-graph v1\ndelta 1e200\n"]
    + ["vertex %d\n" % i for i in range(6)]
    + ["edge r%d %d %d weight 1e200 conjugate l%d\nedge l%d %d %d weight 1e-200 conjugate r%d\n"
       % (i, i, (i + 1) % 6, i, i, (i + 1) % 6, i, i) for i in range(6)]
    + ["basepoint 0\n"]
)

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

_CHAIN_DOC = (
    "delta-graph v1\n"
    "delta 2.5\n"
    "generator q 2.0\n"
    "vertex 0\nvertex 1\n"
    "edge r0 0 1 weight q^1 conjugate l1\n"
    "edge l1 1 0 weight q^-1 conjugate r0\n"
    "basepoint 0\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasics:
    def test_validate_builder(self, capsys):
        code, out, _ = run(capsys, "validate", "single_chain:q=2", "--radius", "4")
        assert code == 0
        assert "PASS fairness" in out

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-verb"])
        assert exc.value.code == 2

    def test_bad_builder_exit_2(self, capsys):
        code, out, err = run(capsys, "validate", "single_chain:q=1")
        assert code == 2
        assert "error" in err

    def test_bad_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.dg"
        p.write_text("not a graph\n")
        code, out, err = run(capsys, "validate", str(p))
        assert code == 2

    def test_infinite_delta_exit_2(self, tmp_path, capsys):
        p = tmp_path / "inf.dg"
        p.write_text(
            "delta-graph v1\n"
            "delta inf\n"
            "vertex 0\n"
            "edge e0 0 0 weight 1 conjugate e0\n"
            "basepoint 0\n"
        )
        code, out, err = run(capsys, "validate", str(p))
        assert code == 2
        assert out == ""
        assert err == "error: line 2: delta must be finite, got inf\n"

    def test_overflowing_out_sum_fails_fairness(self, tmp_path, capsys):
        p = tmp_path / "big.dg"
        p.write_text(
            "delta-graph v1\n"
            "delta 5.0\n"
            "vertex 0\nvertex 1\nvertex 2\n"
            "edge e0 0 1 weight 1e308 conjugate e2\n"
            "edge e1 0 2 weight 1e308 conjugate e3\n"
            "edge e2 1 0 weight 1e-308 conjugate e0\n"
            "edge e3 2 0 weight 1e-308 conjugate e1\n"
            "basepoint 0\n"
        )
        code, out, _ = run(capsys, "validate", str(p), "--radius", "1")
        assert code == 1
        assert "FAIL fairness vertex 0: outgoing sum inf != delta 5" in out.splitlines()
        # the delooping check sums the same out-weights as a coefficient
        code, out, err = run(capsys, "tl-check", str(p), "--max-len", "2")
        assert code == 3
        assert out == ""
        assert err == "error: float overflow: coefficient inf is outside the float range\n"

    @pytest.mark.parametrize(
        "name, old, new, line",
        [
            # the self-conjugate loop's product 1e-600 underflows
            ("self-loop.dg", "weight 1 ", "weight 1e-300 ",
             "FAIL conjugate-weights w('e0') * w('e0') = exp(-1381.5510558) != 1"),
            # 2.0 ** (2 ** 63) overflows, and the conjugate e5 is the float 2.0
            ("mixed.dg", "e0 v0 v1 weight a^-1 ", "e0 v0 v1 weight a^9223372036854775808 ",
             "FAIL conjugate-weights w('e0') * w('e5') = exp(6.3931543226e+18) != 1"),
        ],
        ids=["underflow", "overflow"],
    )
    def test_conjugate_product_past_the_float_range_fails(self, tmp_path, capsys, name, old,
                                                          new, line):
        with open(os.path.join(_GOLDEN, name), encoding="utf-8") as fh:
            text = fh.read()
        assert old in text
        p = tmp_path / name
        p.write_text(text.replace(old, new))
        code, out, err = run(capsys, "validate", str(p))
        assert (code, err) == (1, "")
        assert line in out.splitlines()

    @pytest.mark.parametrize(
        "argv", [["loops", "--n", "4"], ["spectrum", "--n", "4"], ["cover", "--radius", "2"]]
    )
    def test_float_weight_product_overflow_exit_3(self, tmp_path, capsys, argv):
        # every weight is finite, but the loop e0 e1 e3 e2 and the cover
        # vertex two steps out multiply 1e200 by 1e200
        p = tmp_path / "chain.dg"
        p.write_text(_OVERFLOW_CHAIN)
        code, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert code == 3
        assert out == ""
        assert err == ("error: float overflow: weight exp(921.034037198) is outside the float"
                       " range\n")

    def test_overflowing_factors_of_a_unit_weight_loop(self, tmp_path, capsys):
        # star, the modular operator and the Gram check multiply w(e)^(1/2),
        # at most 1e100 here, so the loops of weight 1 stay in range
        p = tmp_path / "cycle.dg"
        p.write_text(_OVERFLOW_CYCLE)
        code, out, err = run(capsys, "tl-check", str(p), "--max-len", "4")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines and all(l.startswith("PASS ") for l in lines)
        assert "PASS star-involution n=4" in lines

    def test_tl_check_checks_delooping_against_delta(self, capsys):
        # unfair.dg is a grid(2, 3) ball with a unit self-loop at v2 and v10;
        # cap o cup at v2 is its own outgoing sum, which is not delta, and
        # every length from 2 has a cup anchored at v2
        code, out, err = run(capsys, "tl-check", os.path.join(_GOLDEN, "unfair.dg"),
                             "--max-len", "6")
        assert code == 1 and err == ""
        lines = out.splitlines()
        fails = [l for l in lines if l.startswith("FAIL ")]
        assert fails == ["FAIL delooping n=%d" % n for n in (2, 3, 4)] + [
            "FAIL tl-check 3 relation(s) failed"]
        assert lines[lines.index("FAIL delooping n=2") - 1] == (
            "  anchor 'v2': outgoing sum 1 + a^-1 + a^1 + b^-1 + b^1 != delta 5.833333333333334")
        assert "PASS delooping n=1" in lines and "PASS zigzag n=2" in lines

    @pytest.mark.parametrize("cmd", ["loops", "spectrum"])
    def test_loops_past_the_recursion_limit(self, tmp_path, capsys, cmd):
        p = tmp_path / "self-loop.dg"
        p.write_text(
            "delta-graph v1\n"
            "delta 2\n"
            "vertex 0\n"
            "edge e0 0 0 weight 1 conjugate e0\n"
            "basepoint 0\n"
        )
        code, out, err = run(capsys, cmd, str(p), "--n", "1500")
        assert code == 0 and err == ""
        want = "e0 " * 1500 + "weight 1" if cmd == "loops" else "1:1"
        assert out.splitlines() == [want]

    _SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

    def _spawn(self, *argv):
        env = dict(os.environ, PYTHONPATH=self._SRC)
        env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is block-buffered
        return subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )

    def test_closed_stdout_pipe_exits_quietly(self):
        # a reader that stops after one line, as ``| head -1`` does, ends
        # the command with status 0 and nothing on stderr; the loops of
        # length 8 fill far more than a pipe's buffer, so a write meets the
        # closed pipe
        proc = self._spawn("-m", "deltagraph.cli", "loops", "double_chain:a=2,b=3", "--n", "8")
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert first.endswith(b" weight 1\n")
        assert proc.returncode == 0 and err == b""

    @pytest.mark.parametrize("size", [10, 100000])
    def test_failure_after_closed_stdout_exits_quietly(self, size):
        # the command fails once the reader has gone: a short FAIL line
        # waits in stdout's buffer until the final flush, a long one meets
        # the closed pipe as it is printed
        script = (
            "import sys\n"
            "from deltagraph import cli\n"
            "def cut(args):\n"
            "    print('first', flush=True)\n"
            "    sys.stdin.readline()\n"
            "    raise cli._Failure('cut', 'x' * %d)\n"
            "cli._cmd_loops = cut\n"
            "sys.exit(cli.main(['loops', 'double_chain:a=2,b=2', '--n', '2']))\n" % size
        )
        proc = self._spawn("-c", script)
        assert proc.stdout.readline() == b"first\n"
        proc.stdout.close()
        _, err = proc.communicate(b"\n", timeout=60)
        assert proc.returncode == 0 and err == b""

    def test_closed_out_fifo_is_an_error(self, tmp_path):
        # a broken pipe on an --out file is not a closed stdout: exit 2
        fifo = str(tmp_path / "out.fifo")
        os.mkfifo(fifo)
        script = (
            "import sys\n"
            "from deltagraph import cli\n"
            "def emit(args):\n"
            "    cli._emit(args.out, 'x\\n' * 100000)\n"
            "    return 0\n"
            "cli._cmd_build = emit\n"
            "sys.exit(cli.main(['build', 'double_chain', 'a=2', 'b=2', '--out', %r]))\n" % fifo
        )
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        proc = self._spawn("-c", script)
        try:
            assert select.select([reader], [], [], 60)[0]
            assert os.read(reader, 1) == b"x"
        finally:
            os.close(reader)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2 and out == b""
        assert err == b"error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("literal", ["1e400", "0"])
    def test_out_of_range_weight_literal_exit_2(self, tmp_path, capsys, literal):
        p = tmp_path / "chain.dg"
        p.write_text(_OVERFLOW_CHAIN.replace("1e200 conjugate e2", literal + " conjugate e2"))
        code, out, err = run(capsys, "loops", str(p), "--n", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 6: weights must be positive finite reals")

    def test_unknown_builder_parameter_exit_2(self, capsys):
        code, out, err = run(capsys, "validate", "grid:a=2,b=3,tolerence=1e-6")
        assert code == 2
        assert out == ""
        assert err == "error: builder grid has no parameter tolerence\n"

    @pytest.mark.parametrize("spec, err", [
        ("cycle:n=2.5,q=2", "cycle needs an integral n, got 2.5"),
        ("cayley:k=2.5,w1=2,w2=3", "cayley needs an integral k, got 2.5"),
    ])
    def test_non_integral_count_exit_2(self, capsys, spec, err):
        code, out, got = run(capsys, "validate", spec)
        assert code == 2
        assert out == ""
        assert got == "error: %s\n" % err

    def test_build_non_integral_count_exit_2(self, tmp_path, capsys):
        out_file = tmp_path / "c.dg"
        code, out, err = run(capsys, "build", "cycle", "n=2.5", "q=2", "--out", str(out_file))
        assert code == 2
        assert err == "error: cycle needs an integral n, got 2.5\n"
        assert not out_file.exists()

    def test_build_unknown_parameter_exit_2(self, tmp_path, capsys):
        out_file = tmp_path / "g.dg"
        code, out, err = run(
            capsys, "build", "grid", "a=2", "b=3", "zz=1", "--out", str(out_file)
        )
        assert code == 2
        assert err == "error: builder grid has no parameter zz\n"
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "spec, shift",
        [
            ("cycle:n=4,q=1", "1"),  # no generator
            ("deformed_chain:q=1.05,x=0.3", "1"),  # no generator
            ("single_chain:q=2", "1,-1"),  # integer vertices
            ("grid:a=2,b=3", "1"),  # too short for the grid
            ("grid:a=2,b=3", "1,0,0"),  # too long for the grid
        ],
    )
    def test_shift_that_does_not_fit_exit_2(self, capsys, spec, shift):
        code, out, err = run(capsys, "quotient", spec, "--shift", shift)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "shift needs" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["tl-check", "single_chain:q=2", "--max-len", "-1"], "maximum loop length"),
            (["invariants", "grid:a=2,b=3", "--shift-bound", "-1"], "shift bound"),
        ],
    )
    def test_negative_bound_exit_2(self, capsys, argv, what):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: %s must be nonnegative\n" % what

    @pytest.mark.parametrize(
        "old, new, line, message",
        [
            ("", "action s weight q^1\nshift 1,x\n", 10, "bad shift '1,x'"),
            ("", "action s weight q^1\nmap 0 7\n", 10, "map references undeclared vertex"),
            ("", "action s q^1\n", 9, "action line should be 'action <label> weight <text>'"),
            ("", "map 0 1\n", 9, "map line before any action line"),
            ("", "shift 1\n", 9, "shift line before any action line"),
        ],
        ids=["bad-shift", "map-to-undeclared", "malformed-action", "map-before-action",
             "shift-before-action"],
    )
    def test_parse_error_names_its_line_exit_2(self, tmp_path, capsys, old, new, line, message):
        text = _CHAIN_DOC.replace(old, new) if old else _CHAIN_DOC + new
        p = tmp_path / "bad.dg"
        p.write_text(text)
        code, out, err = run(capsys, "validate", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line %d: %s" % (line, message)) and err.count("\n") == 1

    def test_non_mutual_conjugate_fails_validate(self, tmp_path, capsys):
        # r0 names l1, but l1 names itself: the file parses, and validate's
        # involution check reports both edges, l1 first by id
        p = tmp_path / "bad.dg"
        p.write_text(_CHAIN_DOC.replace("conjugate r0", "conjugate l1"))
        code, out, err = run(capsys, "validate", str(p))
        assert (code, err) == (1, "")
        assert out.splitlines()[0] == "FAIL involution conjugate 'l1' of edge 'l1' not found at 0"
        assert validate(parse_graph(p.read_text()).graph, 4).check("involution").details == (
            "conjugate 'l1' of edge 'l1' not found at 0",
            "edges 'r0' / 'l1' are not a conjugate pair",
        )

    def test_float_overflow_exit_3(self, capsys):
        # --float prints the smallest eigenvalue b/a = 1e-400 first, and it
        # leaves the float range
        code, out, err = run(
            capsys, "spectrum", "double_chain:a=1e200,b=1e-200", "--n", "2", "--float"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_exact_spectrum_past_float_range(self, capsys):
        # exact eigenvalues are ordered by log value, never by float value
        code, out, _ = run(capsys, "spectrum", "double_chain:a=1e200,b=1e-200", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["a^-1 * b^1:2", "1:4", "a^1 * b^-1:2"]

    def test_exact_quotient_past_float_range(self, capsys):
        # orbit labels are minimal-weight members, q^-400 among them
        code, out, _ = run(
            capsys, "quotient", "single_chain:q=9", "--shift", "1", "--radius", "400"
        )
        assert code == 0
        assert out.splitlines()[4:] == [
            "vertex v0",
            "edge e0 v0 v0 weight q^-1 conjugate e1",
            "edge e1 v0 v0 weight q^1 conjugate e0",
            "basepoint v0",
        ]

    def test_exact_weights_past_float_range(self, capsys):
        # 9^k leaves the float range past k = 323, inside the searched ball;
        # exact weights never evaluate it
        code, out, _ = run(capsys, "invariants", "single_chain:q=9", "--radius", "330")
        assert code == 0
        assert "generator q^1" in out.splitlines()

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "spectrum", "double_chain:a=2,b=3", "--n", "2")
        _, out2, _ = run(capsys, "spectrum", "double_chain:a=2,b=3", "--n", "2")
        assert out1 == out2


class TestPipeline:
    def test_build_then_cover_dot(self, tmp_path, capsys):
        out_file = tmp_path / "g.dg"
        code, _, _ = run(
            capsys, "build", "double_chain", "a=2", "b=3", "--radius", "2",
            "--out", str(out_file),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "cover", str(out_file), "--radius", "2", "--export-dot"
        )
        assert code == 0
        assert out.startswith("digraph")
        # the radius-2 cover of the double chain is the grid ball: 13 vertices
        assert out.count('label="[') == 13

    def test_cover_of_mixed_exact_float_file(self, tmp_path, capsys):
        out_file = tmp_path / "g.dg"
        run(capsys, "build", "double_chain", "a=2", "b=3", "--radius", "4",
            "--out", str(out_file))
        out_file.write_text(out_file.read_text().replace("weight a^1 ", "weight 2.0 "))
        code, out, _ = run(capsys, "validate", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, "cover", str(out_file), "--radius", "2")
        assert code == 0
        assert out.count("\nvertex ") == 13

    def test_cover_of_ambiguous_mixed_file_exit_2(self, tmp_path, capsys):
        # a = b = 2: the float 2.0 is within tolerance of a^1 and of b^1
        out_file = tmp_path / "g.dg"
        run(capsys, "build", "double_chain", "a=2", "b=2", "--radius", "4",
            "--out", str(out_file))
        out_file.write_text(out_file.read_text().replace("weight a^1 ", "weight 2.0 "))
        code, out, _ = run(capsys, "validate", str(out_file))
        assert code == 0
        code, out, err = run(capsys, "cover", str(out_file), "--radius", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "within tolerance of the distinct exact weights" in err

    @pytest.mark.parametrize(
        "edges, err",
        [
            (["e0 0 1 weight 1 conjugate e0", "e1 1 0 weight 1 conjugate e1",
              "e2 0 1 weight 1 conjugate e3", "e3 1 0 weight 1 conjugate e2"],
             "error: conjugate ([1, 1], 'e0') of edge ([1, 0], 'e0') not found at [1, 1]\n"),
            (["e0 0 1 weight 1 conjugate e1", "e1 0 1 weight 1 conjugate e0",
              "e2 1 0 weight 1 conjugate e3", "e3 1 0 weight 1 conjugate e2"],
             "error: conjugate ([1, 1], 'e1') of edge ([1, 0], 'e0') not found at [1, 1]\n"),
            (["e0 0 1 weight q^1 conjugate e1", "e1 1 0 weight q^1 conjugate e0"],
             "error: edges ([1, 0], 'e0') / ([q^1, 1], 'e1') are not a conjugate pair\n"),
        ],
        ids=["self-conjugate", "wrong-endpoints", "non-inverse"],
    )
    def test_cover_of_broken_conjugation_exit_2(self, tmp_path, capsys, edges, err):
        # each file parses but fails validate; its cover pairs an edge with a
        # conjugate that is not an edge back
        p = tmp_path / "g.dg"
        p.write_text("\n".join(
            ["delta-graph v1", "delta 2", "generator q 2", "vertex 0", "vertex 1"]
            + ["edge " + e for e in edges] + ["basepoint 0", ""]
        ))
        code, out, _ = run(capsys, "validate", str(p))
        assert code == 1 and "FAIL " in out
        assert run(capsys, "cover", str(p), "--radius", "2") == (2, "", err)

    def test_no_input_mutation(self, tmp_path, capsys):
        out_file = tmp_path / "g.dg"
        run(capsys, "build", "single_chain", "q=2", "--radius", "3", "--out", str(out_file))
        before = out_file.read_text()
        run(capsys, "cover", str(out_file), "--radius", "2")
        run(capsys, "validate", str(out_file), "--radius", "2")
        assert out_file.read_text() == before

    def test_quotient_shift(self, capsys):
        code, out, _ = run(
            capsys, "quotient", "single_chain:q=2", "--shift", "3", "--radius", "4"
        )
        assert code == 0
        assert out.count("vertex") == 3

    def test_quotient_grid_shift(self, capsys):
        code, out, _ = run(
            capsys, "quotient", "grid:a=2,b=3", "--shift", "1,-1", "--radius", "3"
        )
        assert code == 0

    def test_quotient_from_file_action(self, tmp_path, capsys):
        from deltagraph import chain_shift_action, serialize_graph, single_chain

        ch = single_chain(2)
        p = tmp_path / "chain.dg"
        p.write_text(serialize_graph(ch, 4, actions=chain_shift_action(ch, 3)))
        code, out, _ = run(capsys, "quotient", str(p), "--action", "s", "--radius", "4")
        assert code == 0
        assert out.count("vertex") == 3

    def test_quotient_file_action_check_fails(self, tmp_path, capsys):
        # the file claims weight q^2 for a three-step shift
        ch = single_chain(2)
        text = serialize_graph(ch, 4, actions=chain_shift_action(ch, 3))
        p = tmp_path / "chain.dg"
        p.write_text(text.replace("action s weight q^3", "action s weight q^2"))
        code, out, _ = run(capsys, "quotient", str(p), "--radius", "4")
        assert code == 1
        assert out.startswith("FAIL action action check failed: generator s: w(")
        assert out.count("\n") == 1

    def test_quotient_unknown_action_label_exit_2(self, tmp_path, capsys):
        ch = single_chain(2)
        p = tmp_path / "chain.dg"
        p.write_text(serialize_graph(ch, 4, actions=chain_shift_action(ch, 3)))
        code, out, err = run(capsys, "quotient", str(p), "--action", "zz")
        assert code == 2
        assert out == ""
        assert err == "error: no action labelled 'zz' (have: s)\n"

    def test_quotient_without_action_fails(self, capsys):
        code, out, _ = run(capsys, "quotient", "grid:a=2,b=3", "--radius", "3")
        assert code == 1
        assert out.startswith("FAIL action")

    def test_recover(self, capsys):
        code, out, _ = run(capsys, "recover", "cycle:n=3,q=2", "--radius", "4")
        assert code == 0
        assert out.count("vertex") == 3


class TestOutputs:
    def test_spectrum_exact_and_float(self, capsys):
        code, out, _ = run(capsys, "spectrum", "double_chain:a=2,b=3", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["a^1 * b^-1:2", "1:4", "a^-1 * b^1:2"]
        code, out, _ = run(
            capsys, "spectrum", "double_chain:a=2,b=3", "--n", "2", "--float"
        )
        assert out.splitlines() == ["0.66666666666666663:2", "1:4", "1.5:2"]

    def test_loops(self, capsys):
        code, out, _ = run(capsys, "loops", "single_chain:q=2", "--n", "2")
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_invariants_generators(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "grid:a=2,b=3", "--radius", "2", "--shift-bound", "2"
        )
        assert code == 0
        assert "generator a^1" in out and "generator b^1" in out
        assert "certified-radius 2" in out

    def test_invariants_nontracial_gate(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "double_chain:a=2,b=3", "--radius", "2",
            "--shift-bound", "2",
        )
        assert code == 1
        assert out.startswith("FAIL tracial witness=")

    def test_validate_failure_line(self, tmp_path, capsys):
        p = tmp_path / "unfair.dg"
        p.write_text(
            "delta-graph v1\n"
            "delta 3.0\n"
            "generator q 2.0\n"
            "tolerance 1e-09\n"
            "vertex 0\nvertex 1\n"
            "edge r0 0 1 weight q^1 conjugate l1\n"
            "edge l1 1 0 weight q^-1 conjugate r0\n"
            "basepoint 0\n"
        )
        code, out, _ = run(capsys, "validate", str(p), "--radius", "1")
        assert code == 1
        assert any(line.startswith("FAIL fairness") for line in out.splitlines())

    def test_tl_check(self, capsys):
        code, out, _ = run(capsys, "tl-check", "single_chain:q=2", "--max-len", "4")
        assert code == 0
        lines = out.splitlines()
        assert all(l.startswith("PASS") for l in lines)
        assert any("delooping" in l for l in lines)
        assert any("gram" in l for l in lines)

    def test_tl_check_float_mode(self, capsys):
        # float-weighted graph: relations hold within tolerance, not exactly
        code, out, _ = run(
            capsys, "tl-check", "deformed_chain:q=1.05,x=0.3", "--max-len", "4"
        )
        assert code == 0
        assert all(l.startswith("PASS") for l in out.splitlines())

    def test_tl_check_failure(self, capsys, monkeypatch):
        # a contraction rule that doubles every cap coefficient breaks
        # delooping and the Gram matrix; cap and the trie walk share it
        contraction = loop_algebra._contraction

        def doubled(e1, e2, memo):
            got = contraction(e1, e2, memo)
            return got and (got[0], got[1] + got[1])

        monkeypatch.setattr(loop_algebra, "_contraction", doubled)
        code, out, _ = run(capsys, "tl-check", "single_chain:q=2", "--max-len", "2")
        assert code == 1
        assert out.splitlines() == [
            "  got:",
            "(2 q^-1 + 2 q^1) -",
            "  want:",
            "(q^-1 + q^1) -",
            "FAIL delooping n=0",
            "PASS zigzag n=0",
            "PASS star-involution n=0",
            "PASS gram n=0",
            "PASS modular-relation n=0",
            "PASS star-involution n=1",
            "PASS star-involution n=2",
            "FAIL gram n=2",
            "PASS modular-relation n=2",
            "FAIL tl-check 2 relation(s) failed",
        ]

    def test_modular_relation_failure(self, capsys, monkeypatch):
        # contracting with w(e2)^(1/2) in place of w(e1)^(1/2) breaks the
        # modular relation on loops of non-unit weight, in cap and in the
        # trie walk alike
        contraction = loop_algebra._contraction
        monkeypatch.setattr(
            loop_algebra, "_contraction", lambda e1, e2, memo: contraction(e2, e1, memo)
        )
        with pytest.raises(loop_algebra.ModularRelationError):
            loop_algebra.modular_spectrum(double_chain(2, 3), 2, verify=True)
        code, out, err = run(
            capsys, "spectrum", "double_chain:a=2,b=3", "--n", "2", "--verify-all"
        )
        assert code == 1
        assert out.startswith("FAIL modular-relation n=2: ") and out.count("\n") == 1
        assert err == ""
        code, out, _ = run(capsys, "tl-check", "double_chain:a=2,b=3", "--max-len", "4")
        assert code == 1
        assert "FAIL modular-relation n=2" in out.splitlines()

    def test_export_dot(self, capsys):
        code, out, _ = run(capsys, "export-dot", "cycle:n=3,q=2", "--radius", "2")
        assert code == 0
        assert out.startswith("digraph") and out.strip().endswith("}")
