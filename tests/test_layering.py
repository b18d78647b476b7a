"""Layering rules, read from the package sources with ``ast``, so nothing
is imported.

Only ffalg builds Subspace objects: a Subspace holds a canonical RREF basis,
and ``ffalg._echelon`` is the one place that makes one; every other module
asks ffalg for its spaces.  Only the two solvability verdicts of liealg run
a derived series.  The commands reach the other modules through public
names only.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "solvgraph"


def _calls(path, callee):
    """(innermost enclosing function or None, line) of every call to callee."""
    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    yield fn, child.lineno
            yield from visit(child, fn)
    yield from visit(ast.parse(path.read_text()), None)


def test_only_ffalg_constructs_subspaces():
    modules = sorted(PACKAGE.glob("*.py"))
    assert any(m.name == "ffalg.py" for m in modules)
    offenders = [f"{m.name}:{line}" for m in modules if m.name != "ffalg.py"
                 for _, line in _calls(m, "Subspace")]
    assert offenders == []


def test_only_the_verdicts_run_derived_series():
    # is_solvable is the one solvability verdict, and solvable_ideal derives
    # L's own series once per algebra; a classification loop that ran a
    # series itself would decide solvability by a route of its own
    callers = {(m.name, fn) for m in sorted(PACKAGE.glob("*.py"))
               for fn, _ in _calls(m, "derived_series")}
    assert callers == {("liealg.py", "is_solvable"), ("liealg.py", "solvable_ideal")}


def test_cli_reads_no_private_name_of_another_module():
    # each answer a command prints has one public home; a private helper
    # that cli reached into would be a second, unreviewed entry point
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    modules = {"formulas", "graph", "liealg", "solv"}
    private = [f"{node.value.id}.{node.attr}:{node.lineno}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules and node.attr.startswith("_")]
    assert private == []


def test_cli_calls_the_public_line_level_queries():
    called = {f"{node.func.value.id}.{node.func.attr}"
              for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)}
    assert {"solv.sol_of_algebra", "solv.is_s_lie", "solv.s_lie_witness", "solv.row_size",
            "graph.components", "graph.complement_components"} <= called
