"""The benchmark tracer patches solvgraph names that it lists in TARGETS.

A rename in the package would crash ``perfbench/run.py --trace 1``; these
tests catch it in the suite.  TARGETS is read with ``ast`` so that nothing
under ``perfbench/`` is imported or written.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

from solvgraph.graph import build

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS list")


def test_every_target_resolves():
    targets = _targets()
    assert targets
    for mod_name, attr, _ in targets:
        home = importlib.import_module(f"solvgraph.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer patches the method in the class's own namespace
            assert callable(vars(getattr(home, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(home, attr, None)), f"{mod_name}.{attr}"


def test_build_result_has_what_the_tracer_reads(sl2_3):
    # its build hook counts line pairs from len(lines), the vertex lines'
    # table numbers, and bytes from rows, one neighbor bitmask over element
    # indices per vertex
    G = build(sl2_3)
    assert len(G.lines) == 13
    assert len(G.rows) == G.vertex_count and all(isinstance(r, int) for r in G.rows)


def test_cli_import_loads_every_module_the_tracer_patches():
    # Tracer.install looks each target's module up in sys.modules after an
    # in-process pass that imported solvgraph.cli alone, so a module that a
    # command imports lazily would be missing there
    modules = sorted({f"solvgraph.{mod_name}" for mod_name, _, _ in _targets()})
    code = ("import sys; from solvgraph import cli; "
            f"print([m for m in {modules!r} if m not in sys.modules])")
    src = TRACER.parent.parent / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout == "[]\n"
