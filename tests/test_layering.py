"""Only ffalg builds Subspace objects.

A Subspace holds a canonical RREF basis, and ``ffalg._echelon`` is the one
place that makes one; every other module asks ffalg for its spaces.  The
package sources are read with ``ast``, so nothing is imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "solvgraph"


def _subspace_calls(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Subspace":
                yield node.lineno


def test_only_ffalg_constructs_subspaces():
    modules = sorted(PACKAGE.glob("*.py"))
    assert any(m.name == "ffalg.py" for m in modules)
    offenders = [f"{m.name}:{line}" for m in modules if m.name != "ffalg.py"
                 for line in _subspace_calls(m)]
    assert offenders == []
