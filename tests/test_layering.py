"""Layering rules, read from the package sources with ``ast``, so nothing
is imported.

Only ffalg builds Subspace objects: a Subspace holds a canonical RREF basis,
and ``ffalg._echelon`` is the one place that makes one; every other module
asks ffalg for its spaces.  Only liealg's solvability verdict runs a
derived series, and only liealg's radical builds a quotient.  Every
linear system is solved by ``ffalg.solve``, and every JSON line a command
prints is written by ``cli``, whose ``main`` alone loads the algebra,
reads --format, and prints a command's fields; every command, verify
included, returns data.  The commands
reach the other modules through public names only, and no module imports
a private name of another, except liealg's ``_echelon``, ffalg's one
elimination.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "solvgraph"


def _nodes(path, match):
    """(innermost enclosing function or None, line) of every node match accepts."""
    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if match(child):
                yield fn, child.lineno
            yield from visit(child, fn)
    yield from visit(ast.parse(path.read_text()), None)


def _calls(path, callee):
    """(innermost enclosing function or None, line) of every call to callee."""
    def is_call(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == callee
    return _nodes(path, is_call)


def test_only_ffalg_constructs_subspaces():
    modules = sorted(PACKAGE.glob("*.py"))
    assert any(m.name == "ffalg.py" for m in modules)
    offenders = [f"{m.name}:{line}" for m in modules if m.name != "ffalg.py"
                 for _, line in _calls(m, "Subspace")]
    assert offenders == []


def test_only_the_verdicts_run_derived_series():
    # is_solvable is the one solvability verdict, and the radical's finder
    # reads L's own verdict from it; a classification loop that ran a
    # series itself would decide solvability by a route of its own
    callers = {(m.name, fn) for m in sorted(PACKAGE.glob("*.py"))
               for fn, _ in _calls(m, "derived_series")}
    assert callers == {("liealg.py", "is_solvable")}


def test_only_the_radical_builds_a_quotient():
    # L/N is built once, for N = rad(L), and kept on L; a second quotient
    # would be a second route to the lifted table
    callers = {(m.name, fn) for m in sorted(PACKAGE.glob("*.py"))
               for fn, _ in _calls(m, "quotient")}
    assert callers == {("liealg.py", "radical")}


def test_cli_reads_no_private_name_of_another_module():
    # each answer a command prints has one public home; a private helper
    # that cli reached into would be a second, unreviewed entry point
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    modules = {"formulas", "graph", "liealg", "solv"}
    private = [f"{node.value.id}.{node.attr}:{node.lineno}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules and node.attr.startswith("_")]
    assert private == []


def test_cli_loads_the_algebra_once_in_main():
    # commands take the loaded algebra; main is the one place that loads it
    assert [fn for fn, _ in _calls(PACKAGE / "cli.py", "load_algebra")] == ["main"]


def test_only_main_and_verify_print_in_cli():
    # commands return their fields and main prints them, verify's report
    # included: no command prints, however it exits; help and usage errors
    # are argparse's
    cli = PACKAGE / "cli.py"
    printers = {fn for callee in ("print", "_print_json") for fn, _ in _calls(cli, callee)}
    assert printers == {"main", "_print_json"}


def test_only_main_reads_the_format():
    # a command returns the same data for every --format; main alone picks
    # JSON or the command's text renderer
    readers = {fn for fn, _ in _nodes(
        PACKAGE / "cli.py", lambda node: isinstance(node, ast.Attribute) and node.attr == "format"
        and isinstance(node.value, ast.Name) and node.value.id == "args")}
    assert readers == {"main"}


def test_cli_calls_the_public_line_level_queries():
    called = {f"{node.func.value.id}.{node.func.attr}"
              for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)}
    assert {"solv.sol_of_algebra", "solv.is_s_lie", "solv.s_lie_witness", "solv.row_size",
            "graph.components", "graph.complement_components"} <= called


def test_no_module_imports_a_private_name_of_another():
    # a private helper shared across modules is a second, unreviewed entry
    # point; liealg builds its closures on ffalg._echelon, which ffalg calls
    # the one elimination, and solves its linear systems with ffalg.solve
    allowed = {("liealg.py", "ffalg", "_echelon")}
    imported = {(m.name, node.module, alias.name) for m in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(m.read_text()))
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names if alias.name.startswith("_")}
    assert imported <= allowed


def test_formulas_imports_no_json():
    # cli._print_json is the one --format json writer: formulas returns
    # reports, and the command prints them
    tree = ast.parse((PACKAGE / "formulas.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and not node.level}
    assert not any(m.split(".")[0] == "json" for m in modules)
