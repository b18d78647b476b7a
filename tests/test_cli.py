import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import permuted_sl2_3_file, reference_parser
from solvgraph import cli, graph, solv
from solvgraph.cli import main, parse_args, parse_spec
from solvgraph.liealg import LieAlgebra, make_gl, make_sl, to_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_ALL_27 = " ".join(map(str, range(27)))

# Stdout byte for byte, as the field-dict printer must reproduce it.
GOLDEN = {
    ("info", "sl2@3"): (
        "algebra=sl2@3\np=3\ndim=3\norder=27\nsolvable=false\nsol_size=1\n"
        "radical_dim=0\nradical_size=1\ns_lie=false\n",
        '{"algebra":"sl2@3","p":3,"dim":3,"order":27,"solvable":false,"sol_size":1,'
        '"radical_dim":0,"radical_size":1,"s_lie":false}\n'),
    ("info", "w3"): (
        "algebra=w3\np=2\ndim=3\norder=8\nsolvable=false\nsol_size=2\n"
        "radical_dim=0\nradical_size=1\ns_lie=true\n",
        '{"algebra":"w3","p":2,"dim":3,"order":8,"solvable":false,"sol_size":2,'
        '"radical_dim":0,"radical_size":1,"s_lie":true}\n'),
    ("info", "t2@3"): (
        "algebra=t2@3\np=3\ndim=3\norder=27\nsolvable=true\nsol_size=27\n"
        "radical_dim=3\nradical_size=27\ns_lie=true\n",
        '{"algebra":"t2@3","p":3,"dim":3,"order":27,"solvable":true,"sol_size":27,'
        '"radical_dim":3,"radical_size":27,"s_lie":true}\n'),
    ("solvabilizer", "sl2@3", "--element", "0,0,1"): (
        "element=(0,0,1)\nsize=15\nmembers=0 1 2 3 6 9 10 11 12 15 18 19 20 21 24\n"
        "p_divides=true\nsol_size=1\nsol_divides=true\ncentralizer_size=3\n"
        "centralizer_divides=n/a\ncoset_closed=true\n",
        '{"element":[0,0,1],"size":15,"members":[0,1,2,3,6,9,10,11,12,15,18,19,20,21,24],'
        '"p_divides":true,"sol_size":1,"sol_divides":true,"centralizer_size":3,'
        '"centralizer_divides":null,"coset_closed":true}\n'),
    ("solvabilizer", "sl2@3", "--element", "0,0,0"): (
        f"element=(0,0,0)\nsize=27\nmembers={_ALL_27}\n"
        "p_divides=true\nsol_size=1\nsol_divides=true\ncentralizer_size=27\n"
        "centralizer_divides=n/a\ncoset_closed=true\n",
        f'{{"element":[0,0,0],"size":27,"members":[{_ALL_27.replace(" ", ",")}],'
        '"p_divides":true,"sol_size":1,"sol_divides":true,"centralizer_size":27,'
        '"centralizer_divides":null,"coset_closed":true}\n'),
    ("solvabilizer", "w3", "--element", "0,1,0"): (
        "element=(0,1,0)\nsize=4\nmembers=0 1 2 3\n"
        "p_divides=true\nsol_size=2\nsol_divides=true\ncentralizer_size=2\n"
        "centralizer_divides=true\ncoset_closed=true\n",
        '{"element":[0,1,0],"size":4,"members":[0,1,2,3],'
        '"p_divides":true,"sol_size":2,"sol_divides":true,"centralizer_size":2,'
        '"centralizer_divides":true,"coset_closed":true}\n'),
    ("solvabilizer", "t2@3", "--element", "1,0,0"): (
        f"element=(1,0,0)\nsize=27\nmembers={_ALL_27}\n"
        "p_divides=true\nsol_size=27\nsol_divides=true\ncentralizer_size=9\n"
        "centralizer_divides=true\ncoset_closed=true\n",
        f'{{"element":[1,0,0],"size":27,"members":[{_ALL_27.replace(" ", ",")}],'
        '"p_divides":true,"sol_size":27,"sol_divides":true,"centralizer_size":9,'
        '"centralizer_divides":true,"coset_closed":true}\n'),
    ("graph", "sl2@3"): (
        "vertices=26 edges=109 components=4\n",
        '{"vertices":26,"edges":109,"components":4}\n'),
    ("complement", "sl2@3"): ("components=1\n", '{"components":1}\n'),
    # so4@3 classifies its own planes, with derived series on closures of
    # dimensions 3 to 5
    ("conjecture", "so4@3"): (
        "sum=88209 order=729 divisible=yes quotient=121\n",
        '{"sum":88209,"order":729,"divisible":true,"quotient":"121"}\n'),
    # an empty --element is the empty coordinate tuple, sl1's one element
    ("solvabilizer", "sl1@3", "--element="): (
        "element=()\nsize=1\nmembers=0\np_divides=false\nsol_size=1\n"
        "sol_divides=true\ncentralizer_size=1\ncentralizer_divides=true\n"
        "coset_closed=true\n",
        '{"element":[],"size":1,"members":[0],"p_divides":false,"sol_size":1,'
        '"sol_divides":true,"centralizer_size":1,"centralizer_divides":true,'
        '"coset_closed":true}\n'),
}


@pytest.mark.usefixtures("main_loads_once")
@pytest.mark.parametrize("argv", list(GOLDEN))
def test_info_and_solvabilizer_stdout_is_golden(capsys, argv):
    # every command the table holds, in both formats
    text, js = GOLDEN[argv]
    assert run_cli(capsys, *argv) == (0, text, "")
    assert run_cli(capsys, *argv, "--format", "json") == (0, js, "")


# the 13 commands of the benchmark's four workloads
_PERFBENCH_ARGVS = [
    ("verify", "gl2@5"), ("verify", "gl2@7"), ("verify", "sl2@13"), ("verify", "sl2@17"),
    ("conjecture", "gl2@5"), ("conjecture", "sl2@11"), ("info", "gl2@7"),
    ("solvabilizer", "gl2@7", "--element", "1,2,3,4"),
    ("graph", "sl2@13", "--json", "s.json", "--dot", "s.dot", "--csv", "s.csv"),
    ("graph", "gl2@5", "--json", "g.json", "--dot", "g.dot"),
    ("complement", "sl2@13"), ("complement", "gl2@5"), ("info", "t3@3"),
]

_EDGE_ARGVS = [
    # --opt=value, options before the algebra, a repeated option
    ("info", "t3@3", "--format=json"), ("graph", "sl2@3", "--dot=a.dot", "--json=b=c"),
    ("info", "--force", "--format", "json", "t3@3"), ("solvabilizer", "--element", "0,0,1", "sl2@3"),
    ("info", "t3@3", "--format", "json", "--format", "text"), ("graph", "w3", "--dot", "a", "--dot", "b"),
    ("info", "t3@3", "--force", "--force"),
    # unique prefixes, and ambiguous ones, which are refused before -h is read
    ("info", "t3@3", "--forc"), ("info", "t3@3", "--form", "json"), ("info", "t3@3", "--form=json"),
    ("solvabilizer", "sl2@3", "--e", "1,0,0"), ("graph", "sl2@3", "--d", "x", "--j", "y", "--c", "z"),
    ("info", "t3@3", "--f"), ("info", "t3@3", "--f=json"), ("info", "-h", "--fo"),
    # --element= and values that start with '-'
    ("solvabilizer", "sl1@3", "--element="), ("solvabilizer", "sl2@3", "--element", "-1,0,0"),
    ("solvabilizer", "sl2@3", "--element=-1,0,0"), ("solvabilizer", "sl2@3", "--element", "-1"),
    ("solvabilizer", "sl2@3", "--element", " -1,0,0"), ("solvabilizer", "sl2@3", "--element"),
    # '--' next to the algebra, and what follows it
    ("info", "--", "t3@3"), ("info", "t3@3", "--"), ("info", "--force", "--", "t3@3"),
    ("info", "--", "--force"), ("info", "--", "t3@3", "x"), ("info", "--force", "--"),
    # options a command does not take, and bad values
    ("info", "t3@3", "--dot", "x"), ("info", "t3@3", "--format", "csv"),
    ("degrees", "sl2@3", "--format", "csv"), ("info", "t3@3", "--format", "xml"),
    ("info", "t3@3", "--format"), ("info", "t3@3", "--format", "--force"),
    ("info", "--force=1", "t3@3"), ("info", "t3@3", "--force="), ("info", "t3@3", "--help=x"),
    ("degrees", "sl2@3", "--threads", "4"), ("--threads", "4", "info", "t3@3"),
    ("info", "t3@3", "-x"),
    # extra or missing positionals, and positionals that look like options
    ("info", "t3@3", "x"), ("info",), ("info", "--force"), ("solvabilizer", "sl2@3"), ("graph",),
    ("info", "-1"), ("info", "-"), ("info", ""), ("info", "-x y"),
    # unknown commands and no command
    ("nope", "t3@3"), ("inf", "t3@3"), ("-1", "t3@3"), ("--force",), (),
    # help at the top and after a command, and what precedes it
    ("-h",), ("--help",), ("--he",), ("-h", "info"), ("-h", "nope"), ("nope", "-h"),
    ("info", "-h"), ("info", "t3@3", "--help"), ("solvabilizer", "-h"), ("info", "--bogus", "-h"),
    ("info", "t3@3", "x", "-h"), ("info", "t3@3", "--format", "xml", "-h"),
    ("info", "-h", "--format", "xml"), ("--bogus", "info", "-h"),
    # repeated short flags, an empty option name or value
    ("-hh",), ("info", "-hh"), ("info", "t3@3", "-hx"), ("info", "--=x", "t3@3"),
    ("info", "t3@3", "--format="),
]

_FIELDS = ("command", "algebra", "force", "format", "dot", "json", "csv", "element",
           "func", "render")


def _parse_outcome(parse, argv):
    """(None, fields) when argv parses, else (exit code, last stderr line)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            ns = parse(list(argv))
        except SystemExit as exc:
            lines = err.getvalue().splitlines()
            return exc.code, lines[-1] if lines else ""
    return None, {f: getattr(ns, f, None) for f in _FIELDS}


def _assert_parsed_alike(argv):
    expected = _parse_outcome(reference_parser().parse_args, argv)
    got = _parse_outcome(parse_args, argv)
    if expected[0] is None:
        assert got == expected, argv
    elif expected[0] == 0:
        assert got[0] == 0, argv
    else:
        assert (expected[0], got[0]) == (2, 2), argv
        assert ": error: " in expected[1] and ": error: " in got[1], argv


@pytest.mark.parametrize("argv", [*GOLDEN, *_PERFBENCH_ARGVS, *_EDGE_ARGVS])
def test_parse_args_reads_argv_as_argparse(argv):
    # a parse gives the same fields, a usage error exits 2 and help 0
    _assert_parsed_alike(argv)


_TOKENS = ("info", "graph", "solvabilizer", "degrees", "t3@3", "x", "-1", "-1,0,0", "-", "",
           "--force", "--forc", "--f", "--format", "--form=json", "json", "csv", "xml",
           "--dot", "--d=p", "--json", "--csv", "--element", "--element=", "--e=1",
           "-h", "--help", "--he", "--bogus", "-x", "a b", "-hh", "--=x", "-1.5")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=6))
def test_parse_args_reads_random_argv_as_argparse(argv):
    _assert_parsed_alike(argv)


# GOLDEN's argvs in both formats, less the --opt=value form argparse reads
_PLAIN_ARGVS = [(*argv, *fmt) for argv in GOLDEN for fmt in ((), ("--format", "json"))
                if not any(a.startswith("-") and "=" in a for a in argv)]


@pytest.mark.parametrize("argv", [*_PLAIN_ARGVS, *_PERFBENCH_ARGVS])
def test_plain_argv_is_read_without_argparse(monkeypatch, argv):
    # the benchmark's and the golden commands never fall back to argparse
    def refuse():
        raise AssertionError(f"{argv} fell back to argparse")
    monkeypatch.setattr(cli, "_argparse_parser", refuse)
    expected = _parse_outcome(reference_parser().parse_args, argv)
    assert expected[0] is None and _parse_outcome(parse_args, argv) == expected


class TestSpecParsing:
    def test_builtins(self):
        spec = parse_spec("sl2@3")
        assert (spec.kind, spec.n, spec.p) == ("sl", 2, 3)
        spec = parse_spec("so3@5")
        assert (spec.kind, spec.n, spec.p) == ("so", 3, 5)
        spec = parse_spec("t3@2")
        assert (spec.kind, spec.n, spec.p) == ("t", 3, 2)

    def test_w3_and_file(self):
        assert parse_spec("w3").kind == "w3"
        spec = parse_spec("file:/tmp/x.txt")
        assert spec.kind == "file" and spec.path == "/tmp/x.txt"

    def test_garbage_rejected(self):
        for bad in ("sl2", "sl@3", "zz2@3", "sl2@", "w4", "file:", "sl2@3\n", "gl2@5\n"):
            with pytest.raises(ValueError):
                parse_spec(bad)
        with pytest.raises(ValueError, match="matrix size must be positive"):
            parse_spec("sl0@3")

    def test_digits_are_ascii(self):
        # the regex \d and int() read every Unicode digit, and int() '_'
        for bad in ("sl\u0662@\u0663", "sl2@\u0663", "gl\u0662@5", "sl2@1_1", "sl1_0@3",
                    "sl2@+3", "sl 2@3"):
            with pytest.raises(ValueError, match="cannot parse algebra spec"):
                parse_spec(bad)


class TestInfo:
    def test_sl2_f3(self, capsys):
        code, out, _ = run_cli(capsys, "info", "sl2@3")
        assert code == 0
        assert "order=27" in out
        assert "sol_size=1" in out
        assert "radical_dim=0" in out
        assert "s_lie=false" in out
        assert "solvable=false" in out

    def test_t2_f3(self, capsys):
        code, out, _ = run_cli(capsys, "info", "t2@3")
        assert code == 0
        assert "solvable=true" in out
        assert "s_lie=true" in out

    def test_w3(self, capsys):
        code, out, _ = run_cli(capsys, "info", "w3")
        assert code == 0
        assert "order=8" in out
        assert "radical_dim=0" in out
        assert "s_lie=true" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "info", "sl2@3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 27
        assert data["s_lie"] is False


class TestGraphCommand:
    def test_summary_line(self, capsys, tmp_path):
        dot = tmp_path / "g.dot"
        code, out, _ = run_cli(capsys, "graph", "sl2@3", "--dot", str(dot))
        assert code == 0
        assert out == "vertices=26 edges=109 components=4\n"
        assert dot.exists()

    def test_empty_graph(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "sl2@2")
        assert code == 0
        assert out == "vertices=0 edges=0 components=0\n"

    def test_gl2_f3(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "gl2@3")
        assert code == 0
        assert out.startswith("vertices=78 ")

    def test_all_exports(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "graph", "w3",
                             "--dot", str(tmp_path / "g.dot"),
                             "--json", str(tmp_path / "g.json"),
                             "--csv", str(tmp_path / "g.csv"))
        assert code == 0
        assert (tmp_path / "g.dot").exists()
        assert json.loads((tmp_path / "g.json").read_text())["algebra"] == "w3"
        assert (tmp_path / "g.csv").read_text() == "degree,multiplicity\n1,6\n"


class TestDegreesCommand:
    def test_sl2_f5(self, capsys):
        code, out, _ = run_cli(capsys, "degrees", "sl2@5")
        assert code == 0
        assert out == "43,60\n23,24\n3,40\n"

    def test_gl2_f5(self, capsys):
        code, out, _ = run_cli(capsys, "degrees", "gl2@5")
        assert code == 0
        assert out == "219,300\n119,120\n19,200\n"

    def test_empty_table(self, capsys):
        code, out, _ = run_cli(capsys, "degrees", "sl2@2")
        assert code == 0
        assert out == ""

    def test_csv_format_alias(self, capsys):
        code, out, _ = run_cli(capsys, "degrees", "sl2@3", "--format", "csv")
        assert code == 0
        assert out == "13,12\n7,8\n1,6\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "degrees", "sl2@3", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"degrees": [[13, 12], [7, 8], [1, 6]]}


class TestConjectureCommand:
    def test_published_rows(self, capsys):
        for spec, line in (
            ("sl2@3", "sum=297 order=27 divisible=yes quotient=11\n"),
            ("gl2@3", "sum=2673 order=81 divisible=yes quotient=33\n"),
            ("sl2@5", "sum=3625 order=125 divisible=yes quotient=29\n"),
        ):
            code, out, _ = run_cli(capsys, "conjecture", spec)
            assert code == 0
            assert out == line

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "w3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["divisible"] is True
        # x = 0 and x = a contribute 8 each; the other six elements 4 each
        assert data["sum"] == 8 + 8 + 6 * 4
        assert data["quotient"] == "5"

    def test_sum_not_divisible(self, capsys, monkeypatch):
        # only gl3@3 reaches this branch among the named algebras, too slow
        # to run here: one row of sl2@3 gains one line, which adds
        # (p - 1)^2 = 4 to the sum 297, and 301 = 11 * 27 + 4
        real = solv.plane_table

        def one_more_line(L, force=False):
            nbr = list(real(L, force))
            full = (1 << len(nbr)) - 1
            l = next(l for l, row in enumerate(nbr) if row != full)
            missing = full & ~nbr[l]
            nbr[l] |= missing & -missing
            return tuple(nbr)
        monkeypatch.setattr(solv, "plane_table", one_more_line)
        assert solv.conjecture_sum(make_sl(2, 3)) == {
            "sum": 301, "order": 27, "divisible": False, "quotient": Fraction(301, 27)}
        code, out, _ = run_cli(capsys, "conjecture", "sl2@3")
        assert code == 0
        assert out == "sum=301 order=27 divisible=no quotient=301/27\n"
        code, out, _ = run_cli(capsys, "conjecture", "sl2@3", "--format", "json")
        assert code == 0
        assert out == '{"sum":301,"order":27,"divisible":false,"quotient":"301/27"}\n'

class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "sl2@7")
        assert code == 0
        assert out.endswith("result=PASS\n")

    def test_gl2(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "gl2@3")
        assert code == 0
        assert "result=PASS" in out

    def test_unsupported_family(self, capsys):
        code, _, err = run_cli(capsys, "verify", "t2@3")
        assert code == 2
        assert "error:" in err

    def test_file_copies_verify(self, capsys, tmp_path):
        # verify checks the algebra it is given: a file: copy of sl2@5 or
        # gl2@3 passes, and sl2@3 in the basis h, e, f is not the family
        for L in (make_sl(2, 5), make_gl(2, 3)):
            to_file(L, tmp_path / f"{L.name}.txt")
            code, out, _ = run_cli(capsys, "verify", f"file:{tmp_path / L.name}.txt")
            assert code == 0 and out.endswith("result=PASS\n")
        code, out, err = run_cli(capsys, "verify", f"file:{permuted_sl2_3_file(tmp_path)}")
        assert (code, out) == (2, "")
        assert err == "error: verify supports only the sl2@q and gl2@q families\n"

    def test_huge_q_rejected_at_once(self, capsys):
        # in a child with a timeout: trial division up to sqrt(q) would
        # not finish before the size bound is checked
        proc = subprocess.run([sys.executable, "-m", "solvgraph", "verify",
                               "sl2@2305843009213693951"],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: p must be at most 2^31 - 1\n"
        # past the 4,300 digits int() converts, too
        for spec in ("sl2@" + "7" * 5000, "sl2@" + "0" * 5000 + "3" * 11):
            code, out, err = run_cli(capsys, "verify", spec)
            assert (code, out, err) == (2, "", "error: p must be at most 2^31 - 1\n")


class TestComplementCommand:
    def test_sl2_f3(self, capsys):
        code, out, _ = run_cli(capsys, "complement", "sl2@3")
        assert code == 0
        assert out == "components=1\n"


class TestSolvabilizerCommand:
    def test_w3_b(self, capsys):
        code, out, _ = run_cli(capsys, "solvabilizer", "w3", "--element", "0,1,0")
        assert code == 0
        assert "size=4\n" in out
        assert "members=0 1 2 3\n" in out
        assert "p_divides=true" in out
        assert "centralizer_divides=true" in out

    def test_sl2_f3_h(self, capsys):
        code, out, _ = run_cli(capsys, "solvabilizer", "sl2@3",
                               "--element", "0,0,1")
        assert code == 0
        assert "size=15\n" in out
        assert "centralizer_divides=n/a" in out

    def test_wrong_arity(self, capsys):
        code, _, err = run_cli(capsys, "solvabilizer", "sl2@3", "--element", "1,2")
        assert code == 2
        assert "expected 3 coordinates" in err
        # an empty or blank element is the empty coordinate tuple
        for blank, fmt in (("", "text"), ("", "json"), (" ", "text")):
            assert run_cli(capsys, "solvabilizer", "sl2@3", f"--element={blank}",
                           "--format", fmt) == (2, "", "error: expected 3 coordinates, got 0\n")

    def test_bad_coordinates(self, capsys):
        code, _, err = run_cli(capsys, "solvabilizer", "sl2@3", "--element", "a,b,c")
        assert code == 2
        assert "error:" in err

    def test_coordinates_are_ascii_decimals(self, capsys):
        # int() reads '1_0' as 10 and an Arabic-Indic digit as its value
        for bad in ("1_0,0,0", "\u0661,0,0", "0,0,\u00b2", "--1,0,0", "1,,0"):
            assert run_cli(capsys, "solvabilizer", "sl2@3", f"--element={bad}") == (
                2, "", f"error: cannot parse element coordinates {bad!r}\n")
        # a sign and whitespace around a coordinate are read as before
        code, out, _ = run_cli(capsys, "solvabilizer", "sl2@3", "--element= -1, +0,0 ")
        assert code == 0 and out.startswith("element=(2,0,0)\n")


class TestSlieCommand:
    def test_w3_true(self, capsys):
        code, out, _ = run_cli(capsys, "slie", "w3")
        assert code == 0
        assert out == "s_lie=true\n"

    def test_sl2_f3_witness(self, capsys):
        code, out, _ = run_cli(capsys, "slie", "sl2@3")
        assert code == 0
        assert out.splitlines() == [
            "s_lie=false",
            "witness_x=(1,1,0)",
            "witness_a=(1,0,1)",
            "witness_b=(2,0,1)",
        ]

    @pytest.mark.parametrize("spec,witness", [
        ("gl2@5", ("(1,0,0,0)", "(0,1,0,0)", "(0,0,1,0)")),
        ("gl2@7", ("(1,0,0,0)", "(0,1,0,0)", "(0,0,1,0)")),
        ("sl3@2", ("(1,0,0,0,0,0,0,0)", "(0,1,0,0,0,0,0,0)", "(0,1,1,1,1,0,0,0)")),
    ])
    @pytest.mark.usefixtures("main_loads_once")
    def test_first_witness_is_pinned(self, spec, witness, capsys):
        # a faster witness search must still return this first witness
        code, out, _ = run_cli(capsys, "slie", spec)
        assert code == 0
        assert out.splitlines() == ["s_lie=false"] + [
            f"witness_{k}={v}" for k, v in zip("xab", witness)]

    def test_json_witness(self, capsys):
        code, out, _ = run_cli(capsys, "slie", "sl2@3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["s_lie"] is False
        assert data["witness"]["x"] == [1, 1, 0]


class TestOnePassPerFact:
    @pytest.mark.parametrize("spec,element,vertex_lines",
                             [("gl2@5", "1,2,3,4", 155), ("sl2@5", "1,2,3", 31)])
    def test_each_command_computes_each_table_fact_once(self, spec, element, vertex_lines,
                                                        capsys, monkeypatch, tmp_path):
        # the row-size multiset, a line's elements, sol(L) and the S-verdict
        # are each computed at most once per command, and the multiset
        # counts every vertex line: gl2@5 has a lifted table, sl2@5 a
        # classified one
        calls = {name: [] for name in ("row_sizes", "line_members", "sol_lines", "_failing_line")}
        for owner, name in ((solv, "row_sizes"), (graph, "row_sizes"), (LieAlgebra, "line_members"),
                            (solv, "sol_lines"), (graph, "sol_lines"), (solv, "_failing_line")):
            f = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, f=f, log=calls[name].append, **k:
                                log(a[-1]) or f(*a, **k))
        exports = [f"--{k}={tmp_path / k}" for k in ("json", "dot", "csv")]
        for argv, counts in ((["info"], False), (["graph", *exports], True),
                             (["complement"], False), (["degrees"], True), (["verify"], False),
                             (["conjecture"], True), (["solvabilizer", "--element", element], False),
                             (["slie"], False)):
            for log in calls.values():
                log.clear()
            assert main([argv[0], spec, *argv[1:]]) == 0, argv
            capsys.readouterr()
            assert [sum(row != (1 << len(nbr)) - 1 for row in nbr)
                    for nbr in calls["row_sizes"]] == ([vertex_lines] if counts else []), argv
            assert len(calls["line_members"]) == len(set(calls["line_members"])), argv
            assert len(calls["sol_lines"]) <= 1, argv
            assert len(calls["_failing_line"]) <= 1, argv


class TestFileSpecs:
    def test_info_on_file_algebra(self, capsys, tmp_path):
        path = tmp_path / "w3.txt"
        path.write_text("p 2\ndim 3\nlabels a b c\n0 1 1 1\n0 2 2 1\n1 2 0 1\n")
        code, out, _ = run_cli(capsys, "info", f"file:{path}")
        assert code == 0
        assert "order=8" in out

    def test_missing_file_reports_error(self, capsys):
        code, _, err = run_cli(capsys, "info", "file:/nonexistent/xyz.txt")
        assert code == 2
        assert "error:" in err

    def test_invalid_table_reports_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p 3\ndim 2\n0 0 1 1\n")
        code, _, err = run_cli(capsys, "info", f"file:{path}")
        assert code == 2
        assert "itself" in err

    def test_file_that_is_not_utf8_is_named(self, capsys, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"p 3\n\xff\xfe\n")
        code, out, err = run_cli(capsys, "info", f"file:{path}")
        assert (code, out) == (2, "")
        assert err.startswith("error: binary.txt: not UTF-8 text") and "byte 4" in err

    def test_absurd_dim_rejected_before_allocation(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("p 2\ndim 1000000\n")
        code, _, err = run_cli(capsys, "info", f"file:{path}")
        assert code == 2
        assert "dim 1000000" in err and "limit 64" in err


class TestErrorsAndCap:
    def test_bad_spec_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "info", "nope@4")
        assert code == 2
        assert "error:" in err

    def test_absurd_builtin_dimension_rejected(self, capsys):
        # in a child with a timeout: building gl100@2 would never finish
        for spec, dim in (("gl100@2", 10000), ("sl9@2", 80), ("t12@3", 78), ("so12@5", 66)):
            proc = subprocess.run([sys.executable, "-m", "solvgraph", "info", spec],
                                  capture_output=True, text=True, timeout=30)
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr == f"error: dimension {dim} exceeds the limit 64\n"
        # an n past the 4,300 digits int() converts is not formatted
        code, out, err = run_cli(capsys, "info", "sl" + "7" * 5000 + "@3")
        assert (code, out, err) == (2, "", "error: dimension exceeds the limit 64\n")

    def test_w3_at_odd_p_rejected(self, capsys):
        code, _, err = run_cli(capsys, "info", "w3@3")
        assert code == 2

    def test_cap_without_force(self, capsys, monkeypatch):
        monkeypatch.setenv("SOLVGRAPH_CAP", "100")
        code, _, err = run_cli(capsys, "graph", "sl2@5")
        assert code == 2
        assert "cap" in err
        code, out, _ = run_cli(capsys, "graph", "sl2@5", "--force")
        assert code == 0
        assert out.startswith("vertices=124 ")

    def test_invalid_cap_rejected(self, capsys, monkeypatch):
        for bad in ("lots", "0", "-5", "²", "0" * 5000):
            monkeypatch.setenv("SOLVGRAPH_CAP", bad)
            code, _, err = run_cli(capsys, "degrees", "sl2@3")
            assert code == 2
            assert "SOLVGRAPH_CAP" in err and repr(bad) in err
        # a positive cap of any length is valid, also past the 4,300 digits
        # int() converts; one of 5,000 digits exceeds every |L|
        for good in ("7" * 5000, "0" * 5000 + "27"):
            monkeypatch.setenv("SOLVGRAPH_CAP", good)
            assert run_cli(capsys, "degrees", "sl2@3") == (0, "13,12\n7,8\n1,6\n", "")
        code, _, err = run_cli(capsys, "degrees", "sl2@5")
        assert code == 2 and "exceeds the enumeration cap 27;" in err

    def test_cap_digits_are_ascii(self, capsys, monkeypatch):
        for bad in ("\u0661\u0660\u0660", "1_000", "+100"):
            monkeypatch.setenv("SOLVGRAPH_CAP", bad)
            assert run_cli(capsys, "degrees", "sl2@3") == (
                2, "", f"error: SOLVGRAPH_CAP must be a positive integer, got {bad!r}\n")
        monkeypatch.setenv("SOLVGRAPH_CAP", " 100\n")
        assert run_cli(capsys, "degrees", "sl2@3")[0] == 0

    def test_threads_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["degrees", "sl2@3", "--threads", "4"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "solvgraph: error: unrecognized arguments: --threads 4\n")


class TestDeterminism:
    def test_stdout_identical_across_runs(self):
        cmd = [sys.executable, "-m", "solvgraph", "graph", "sl2@3"]
        outs = set()
        for _ in range(3):
            proc = subprocess.run(cmd, capture_output=True, check=True)
            outs.add(proc.stdout)
        assert len(outs) == 1


class TestStartup:
    def test_cli_import_leaves_out_dataclasses_and_inspect(self):
        # -S keeps site hooks, which may import more modules, out of the child
        code = ("import solvgraph.cli, sys; "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stdout == "[]\n"

    def test_commands_load_no_argparse_or_json(self, tmp_path):
        # argv is read from cli's command table, and export_json quotes a
        # plain algebra name itself: argparse, with the gettext and locale
        # it imports, and json stay out of the child
        graph_argv = ["graph", "sl2@3", "--json", str(tmp_path / "g.json"),
                      "--dot", str(tmp_path / "g.dot")]
        code = ("import sys\n"
                "from solvgraph import cli\n"
                f"for argv in (['info', 't3@3'], ['verify', 'sl2@5'], {graph_argv!r}):\n"
                "    assert cli.main(argv) == 0\n"
                "print(sorted({'argparse', 'gettext', 'locale', 'json'} & set(sys.modules)))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stdout.splitlines()[-1] == "[]"
        assert json.loads((tmp_path / "g.json").read_text())["algebra"] == "sl2@3"

    def test_text_output_loads_no_json_or_fractions(self):
        # imports are per process, so the commands run in a child of their own
        code = ("import sys\n"
                "from solvgraph import cli\n"
                "for argv in (['info', 't3@3'], ['verify', 'sl2@5'],\n"
                "             ['conjecture', 'gl2@5'], ['complement', 'gl2@5']):\n"
                "    assert cli.main(argv) == 0\n"
                "print(sorted({'json', 'fractions', 'decimal'} & set(sys.modules)))\n"
                "assert cli.main(['info', 't3@3', '--format', 'json']) == 0\n"
                "print('json' in sys.modules)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
        loaded, json_line, json_loaded = proc.stdout.splitlines()[-3:]
        assert loaded == "[]"
        assert json.loads(json_line)["s_lie"] is True
        assert json_loaded == "True"


class TestProcessEntry:
    """`python -m solvgraph` and the console script end through cli.run,
    which skips interpreter teardown; what a user sees must not change."""

    SRC = Path(__file__).resolve().parent.parent / "src"
    # a block-buffered stdout, as a pipe is without PYTHONUNBUFFERED
    ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    REFERENCE = "import sys\nfrom solvgraph.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    ENTRY = "import runpy\nrunpy.run_module('solvgraph', run_name='__main__', alter_sys=True)\n"
    # verify's expected degrees shifted by one, so every verify is a FAIL
    FAIL = ("from solvgraph import formulas\n"
            "real = formulas._class_table\n"
            "formulas._class_table = lambda family, q: {\n"
            "    cls: (d + 1, n) for cls, (d, n) in real(family, q).items()}\n")

    def child(self, args, **kw):
        kw.setdefault("stdout", subprocess.PIPE)
        proc = subprocess.run([sys.executable, *args], stderr=subprocess.PIPE, env=self.ENV,
                              stdin=subprocess.DEVNULL, timeout=60, **kw)
        return proc.returncode, proc.stdout, proc.stderr

    @pytest.mark.parametrize("argv,code", [
        (["info", "t3@3"], 0),
        (["info", "t3@3", "--format", "json"], 0),
        (["verify", "gl2@5"], 0),
        (["info", "sl2@4"], 2),
        (["degrees", "sl2@3", "--threads", "4"], 2),
        (["--help"], 0),
        (["info", "-h"], 0),
        (["info"], 2),
        ([], 2),
        (["info", "t3@3", "--format=json"], 0),
        (["-hh"], 0),
        (["info", "-hh"], 0),
    ])
    def test_output_and_code_match_the_normal_exit(self, argv, code):
        entry = self.child(["-m", "solvgraph", *argv])
        assert entry == self.child(["-c", self.REFERENCE, *argv])
        assert entry[0] == code and entry[1 if code == 0 else 2]

    def test_a_fail_report_matches_the_normal_exit(self):
        entry = self.child(["-c", self.FAIL + self.ENTRY, "verify", "sl2@5"])
        assert entry == self.child(["-c", self.FAIL + self.REFERENCE, "verify", "sl2@5"])
        assert entry[0] == 1 and entry[1].endswith(b"result=FAIL\n")

    def test_a_closed_pipe_is_reported_as_before(self):
        # the reader is gone before the child writes: the flush fails, and
        # the normal exit reports it (status 120, "Exception ignored")
        def closed_pipe(args):
            read, write = os.pipe()
            os.close(read)
            try:
                return self.child(args, stdout=write)
            finally:
                os.close(write)
        entry = closed_pipe(["-m", "solvgraph", "info", "t3@3"])
        assert entry == closed_pipe(["-c", self.REFERENCE, "info", "t3@3"])
        assert entry[0] == 120 and b"BrokenPipeError" in entry[2]

    def test_a_closed_stdout_matches_the_normal_exit(self):
        # with fd 1 closed at start, sys.stdout is None: print writes
        # nothing, and stdout.flush() raises AttributeError
        entry = self.child(["-m", "solvgraph", "info", "t3@3"], stdout=None,
                           preexec_fn=lambda: os.close(1))
        assert entry == self.child(["-c", self.REFERENCE, "info", "t3@3"], stdout=None,
                                   preexec_fn=lambda: os.close(1))
        assert entry == (0, None, b"")

    def test_a_profiler_keeps_its_report(self):
        code, out, _ = self.child(["-m", "cProfile", "-m", "solvgraph", "info", "t3@3"])
        assert code == 0
        assert out.startswith(b"algebra=t3@3\n") and b"function calls" in out

    def test_atexit_handlers_run_after_the_output(self):
        code, out, err = self.child(
            ["-c", "import atexit\natexit.register(print, 'handler ran')\n" + self.ENTRY,
             "info", "t3@3"])
        assert (code, err) == (0, b"")
        assert out.endswith(b"s_lie=true\nhandler ran\n")

    def test_teardown_is_skipped(self):
        # a finalizer that only the interpreter's teardown runs: the normal
        # exit runs it, the entry does not
        probe = ("import os, solvgraph\n"
                 "class Probe:\n"
                 "    def __del__(self, write=os.write):\n"
                 "        write(2, b'torn down\\n')\n"
                 "solvgraph.probe = Probe()\n")
        code, out, err = self.child(["-c", probe + self.REFERENCE, "info", "t3@3"])
        assert (code, err) == (0, b"torn down\n")
        assert self.child(["-c", probe + self.ENTRY, "info", "t3@3"]) == (0, out, b"")
