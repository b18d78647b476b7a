"""In-process tracer for the per-layer metrics.

The tracer wraps the public entry points of each solvgraph module and
records one span per call: name, start, end and the enclosing span.  A
function is replaced in every module namespace that bound it, because
modules import each other's functions by name (``graph`` does
``from .solv import pair_solvable``, ``solv`` does ``from .ffalg import
rref``); patching only the defining module would miss most calls.

Spans stay in memory, in flat arrays, until the run ends.  The package
runs single-threaded at its default ``--threads 1``, so spans nest
strictly and a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); "Class.method" patches a method.
TARGETS = [
    ("ffalg", "rref", "ffalg.rref"),
    ("ffalg", "kernel", "ffalg.kernel"),
    ("liealg", "make_sl", "liealg.make"),
    ("liealg", "make_gl", "liealg.make"),
    ("liealg", "make_t", "liealg.make"),
    ("liealg", "make_so", "liealg.make"),
    ("liealg", "make_w3", "liealg.make"),
    ("liealg", "from_file", "liealg.make"),
    ("liealg", "LieAlgebra.lines", "liealg.lines"),
    ("liealg", "subalgebra_closure", "liealg.closure"),
    ("liealg", "derived_series", "liealg.derived"),
    ("liealg", "radical", "liealg.radical"),
    ("liealg", "centralizer", "liealg.centralizer"),
    ("liealg", "ideal_closure", "liealg.ideal_closure"),
    ("solv", "pair_solvable", "solv.pair"),
    ("solv", "solvabilizer", "solv.solvabilizer"),
    ("solv", "sol_of_algebra", "solv.sol_of_algebra"),
    ("solv", "is_s_lie", "solv.s_lie"),
    ("solv", "conjecture_sum", "solv.conjecture_sum"),
    ("solv", "divisibility_report", "solv.divisibility_report"),
    ("graph", "build", "graph.build"),
    ("graph", "degree_sequence", "graph.degree_sequence"),
    ("graph", "components", "graph.components"),
    ("graph", "complement_components", "graph.complement"),
    ("graph", "export_dot", "graph.export"),
    ("graph", "export_json", "graph.export"),
    ("graph", "export_degrees_csv", "graph.export"),
    ("formulas", "verify", "formulas.verify"),
    ("cli", "main", "cli.main"),
    ("cli", "parse_spec", "cli.parse_spec"),
    ("cli", "load_algebra", "cli.load_algebra"),
]

# Per-layer metrics: name -> (unit, better).  BENCHMARK.json lists the same.
PER_LAYER = {
    "ffalg.rref_calls": ("count", "lower"),
    "ffalg.rref_s": ("s", "lower"),
    "liealg.construct_s": ("s", "lower"),
    "liealg.closure_calls": ("count", "lower"),
    "liealg.closure_s": ("s", "lower"),
    "liealg.derived_calls": ("count", "lower"),
    "liealg.derived_s": ("s", "lower"),
    "liealg.radical_s": ("s", "lower"),
    "solv.pair_calls": ("count", "lower"),
    "solv.pair_s": ("s", "lower"),
    "solv.planes": ("count", "lower"),
    "solv.new_plane_ratio": ("planes/call", "higher"),
    "solv.sol_of_algebra_s": ("s", "lower"),
    "solv.s_lie_s": ("s", "lower"),
    "solv.solvabilizer_calls": ("count", "lower"),
    "solv.solvabilizer_s": ("s", "lower"),
    "solv.memo_entries": ("count", "lower"),
    "graph.build_s": ("s", "lower"),
    "graph.build_self_s": ("s", "lower"),
    "graph.line_pairs": ("count", "lower"),
    "graph.row_bytes": ("bytes", "lower"),
    "graph.components_s": ("s", "lower"),
    "graph.complement_s": ("s", "lower"),
    "graph.export_s": ("s", "lower"),
    "graph.export_bytes": ("bytes", "lower"),
    "formulas.verify_self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.memos: dict[int, object] = {}  # id -> memo table, held until the end
        self.line_pairs = 0
        self.row_bytes = 0
        self.export_bytes = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, on_return):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    # Counters read at the span boundaries.
    def _after_pair(self, args, kwargs, result):
        memo = args[3] if len(args) > 3 else kwargs.get("cache")  # pair_solvable(L, x, y, cache)
        if memo is not None:
            self.memos[id(memo)] = memo

    def _after_build(self, args, kwargs, G):
        n = len(G.lines)
        self.line_pairs += n * (n - 1) // 2
        self.row_bytes += sum((r.bit_length() + 7) // 8 for r in G.rows)

    def _after_export(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.export_bytes += os.path.getsize(path)

    def install(self, package: str = "solvgraph"):
        """Wrap every target in every loaded module of the package."""
        hooks = {"solv.pair": self._after_pair, "graph.build": self._after_build,
                 "graph.export": self._after_export}
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for mod_name, attr, name in TARGETS:
            home = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original, hooks.get(name)))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, obj, key, value):
        self._patches.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            par = self.span_parent[i]
            if par >= 0:
                child[par] += dur[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        own = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            incl[name] += dur[i]
            own[name] += dur[i] - child[i]
        return calls, incl, own

    def metrics(self, overhead_s: float) -> dict[str, float]:
        calls, incl, own = self.totals()
        planes = sum(len(m) for m in self.memos.values())
        pair_calls = calls["solv.pair"]
        return {
            "ffalg.rref_calls": calls["ffalg.rref"],
            "ffalg.rref_s": incl["ffalg.rref"],
            "liealg.construct_s": incl["liealg.make"] + incl["liealg.lines"],
            "liealg.closure_calls": calls["liealg.closure"],
            "liealg.closure_s": incl["liealg.closure"],
            "liealg.derived_calls": calls["liealg.derived"],
            "liealg.derived_s": incl["liealg.derived"],
            "liealg.radical_s": incl["liealg.radical"],
            "solv.pair_calls": pair_calls,
            "solv.pair_s": incl["solv.pair"],
            "solv.planes": planes,
            "solv.new_plane_ratio": planes / pair_calls if pair_calls else 0.0,
            "solv.sol_of_algebra_s": incl["solv.sol_of_algebra"],
            "solv.s_lie_s": incl["solv.s_lie"],
            "solv.solvabilizer_calls": calls["solv.solvabilizer"],
            "solv.solvabilizer_s": incl["solv.solvabilizer"],
            "solv.memo_entries": max((len(m) for m in self.memos.values()), default=0),
            "graph.build_s": incl["graph.build"],
            "graph.build_self_s": own["graph.build"],
            "graph.line_pairs": self.line_pairs,
            "graph.row_bytes": self.row_bytes,
            "graph.components_s": incl["graph.components"],
            "graph.complement_s": incl["graph.complement"],
            "graph.export_s": incl["graph.export"],
            "graph.export_bytes": self.export_bytes,
            "formulas.verify_self_s": own["formulas.verify"],
            "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
            "trace.overhead_s": overhead_s,
        }

    def profile(self) -> list[dict]:
        """Per span name totals, largest inclusive time first."""
        calls, incl, own = self.totals()
        rows = [{"name": k, "calls": calls[k], "incl_s": incl[k], "self_s": own[k]}
                for k in calls]
        return sorted(rows, key=lambda r: -r["incl_s"])
