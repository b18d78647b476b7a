"""Command-line interface.

Algebras are named by compact specs: sl2@3, gl2@5, t3@2, so3@5, w3, or
file:PATH for a structure-constants file.  All commands are deterministic;
identical invocations produce byte-identical output.  Every solvability
query a command makes reads the loaded algebra's plane table (see solv).
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import NamedTuple

from . import formulas, graph, liealg, solv

_SPEC_RE = re.compile(r"^(sl|gl|t|so)(\d+)@(\d+)$")


class AlgebraSpec(NamedTuple):
    kind: str
    n: int | None
    p: int | None
    path: str | None


def parse_spec(text: str) -> AlgebraSpec:
    if text == "w3":
        return AlgebraSpec("w3", None, 2, None)
    if text.startswith("file:"):
        path = text[5:]
        if not path:
            raise ValueError("empty path in file: spec")
        return AlgebraSpec("file", None, None, path)
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(
            f"cannot parse algebra spec {text!r}; expected forms like "
            "sl2@3, gl2@5, t3@2, so3@5, w3, file:PATH")
    n = liealg.bounded_int(m.group(2), 2**31 - 1, f"dimension exceeds the limit {liealg.MAX_DIM}")
    p = liealg.bounded_int(m.group(3), 2**31 - 1, "p must be at most 2^31 - 1")
    if n < 1:
        raise ValueError(f"matrix size must be positive in {text!r}")
    return AlgebraSpec(m.group(1), n, p, None)


_BUILTINS = {
    "sl": liealg.make_sl,
    "gl": liealg.make_gl,
    "t": liealg.make_t,
    "so": liealg.make_so,
}


def load_algebra(spec: AlgebraSpec) -> liealg.LieAlgebra:
    if spec.kind == "w3":
        return liealg.make_w3(2)
    if spec.kind == "file":
        return liealg.from_file(spec.path)
    return _BUILTINS[spec.kind](spec.n, spec.p)


def _print_json(obj):
    """Print obj as compact JSON, the one --format json writer."""
    import json  # here, so text output never loads json
    print(json.dumps(obj, separators=(",", ":")))


def _text(v) -> str:
    """A field value as text: true/false, n/a for None, a tuple as
    coordinates, a list space-separated, anything else as str."""
    if v is None:
        return "n/a"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return "(" + ",".join(map(str, v)) + ")"
    return " ".join(map(str, v)) if isinstance(v, list) else str(v)


def _print_fields(fields: dict, fmt: str, sep: str = "\n"):
    """Print a command's fields as compact JSON, or as key=value pairs
    joined by sep: one per line by default, one line with sep=" "."""
    if fmt == "json":
        _print_json(fields)
    else:
        print(sep.join(f"{k}={_text(v)}" for k, v in fields.items()))


def cmd_info(args) -> int:
    L = load_algebra(parse_spec(args.algebra))
    sol = solv.sol_of_algebra(L, force=args.force)
    rad = liealg.radical(L, force=args.force)
    s_lie = solv.is_s_lie(L, force=args.force)
    _print_fields({
        "algebra": L.name, "p": L.field.p, "dim": L.dim, "order": L.size,
        "solvable": liealg.is_solvable(L), "sol_size": solv.row_size(L, sol),
        "radical_dim": rad.dim, "radical_size": rad.size, "s_lie": s_lie,
    }, args.format)
    return 0


def cmd_graph(args) -> int:
    L = load_algebra(parse_spec(args.algebra))
    G = graph.build(L, force=args.force)
    if args.dot:
        graph.export_dot(G, args.dot)
    if args.json:
        graph.export_json(G, args.json)
    if args.csv:
        graph.export_degrees_csv(G, args.csv)
    _print_fields({"vertices": G.vertex_count, "edges": G.edge_count,
                   "components": len(graph.components(G))}, args.format, sep=" ")
    return 0


def cmd_degrees(args) -> int:
    L = load_algebra(parse_spec(args.algebra))
    G = graph.build(L, force=args.force)
    seq = graph.degree_sequence(G)
    if args.format == "json":
        _print_json({"degrees": [[d, m] for d, m in seq.items()]})
    else:
        for d, m in seq.items():
            print(f"{d},{m}")
    return 0


def cmd_conjecture(args) -> int:
    L = load_algebra(parse_spec(args.algebra))
    res = solv.conjecture_sum(L, force=args.force)
    divisible = res.divisible if args.format == "json" else "yes" if res.divisible else "no"
    _print_fields({"sum": res.total, "order": res.order, "divisible": divisible,
                   "quotient": str(res.quotient)}, args.format, sep=" ")
    return 0


def cmd_verify(args) -> int:
    spec = parse_spec(args.algebra)
    if spec.kind not in ("sl", "gl") or spec.n != 2:
        raise ValueError("verify supports only the sl2@q and gl2@q families")
    report = formulas.verify(f"{spec.kind}2", spec.p, force=args.force)
    print(report.to_json() if args.format == "json" else report.text())
    return 0 if report.passed else 1


def cmd_complement(args) -> int:
    L = load_algebra(parse_spec(args.algebra))
    G = graph.build(L, force=args.force)
    _print_fields({"components": len(graph.complement_components(G))}, args.format, sep=" ")
    return 0


def cmd_solvabilizer(args) -> int:
    L = load_algebra(parse_spec(args.algebra))
    try:
        coords = tuple(int(c) for c in args.element.split(","))
    except ValueError:
        raise ValueError(f"cannot parse element coordinates {args.element!r}") from None
    x = L.element(coords)
    members = solv.solvabilizer(L, x, force=args.force)
    rep = solv.divisibility_report(L, x, force=args.force)
    _print_fields({
        "element": x, "size": rep.sol_size, "members": list(members),
        "p_divides": rep.p_divides, "sol_size": rep.sol_of_algebra_size,
        "sol_divides": rep.sol_divides,
        "centralizer_size": rep.centralizer_size,
        "centralizer_divides": rep.centralizer_divides,
        "coset_closed": rep.coset_closed,
    }, args.format)
    return 0


def cmd_slie(args) -> int:
    L = load_algebra(parse_spec(args.algebra))
    witness = solv.s_lie_witness(L, force=args.force)
    fields = {"s_lie": witness is None}
    if witness is not None and args.format == "json":
        fields["witness"] = dict(zip("xab", map(list, witness)))
    elif witness is not None:
        fields.update(zip(("witness_x", "witness_a", "witness_b"), witness))
    _print_fields(fields, args.format)
    return 0


def _add_common(sub, formats=("text", "json")):
    sub.add_argument("algebra", help="algebra spec, e.g. sl2@3, gl2@5, w3, file:PATH")
    sub.add_argument("--force", action="store_true",
                     help="override the enumeration size cap")
    sub.add_argument("--format", choices=formats, default="text")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvgraph",
        description="Solvable graphs and solvabilizers of Lie algebras over F_p.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("info", help="order, solvability, sol(L), radical, S-property")
    _add_common(s)
    s.set_defaults(func=cmd_info)

    s = subs.add_parser("graph", help="build the solvable graph and export it")
    _add_common(s)
    s.add_argument("--dot", metavar="PATH", help="write a Graphviz DOT file")
    s.add_argument("--json", metavar="PATH", help="write a JSON graph file")
    s.add_argument("--csv", metavar="PATH", help="write a degree,multiplicity CSV")
    s.set_defaults(func=cmd_graph)

    s = subs.add_parser("degrees", help="print the degree sequence as CSV rows")
    # text output is already CSV rows; accept the explicit spelling too
    _add_common(s, formats=("text", "json", "csv"))
    s.set_defaults(func=cmd_degrees)

    s = subs.add_parser("conjecture", help="sum of solvabilizer sizes and divisibility")
    _add_common(s)
    s.set_defaults(func=cmd_conjecture)

    s = subs.add_parser("verify", help="check a built graph against the closed forms")
    _add_common(s)
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("complement", help="component count of the complement graph")
    _add_common(s)
    s.set_defaults(func=cmd_complement)

    s = subs.add_parser("solvabilizer", help="solvabilizer of one element")
    _add_common(s)
    s.add_argument("--element", required=True,
                   help="comma-separated coordinates in constructor basis order")
    s.set_defaults(func=cmd_solvabilizer)

    s = subs.add_parser("slie", help="is every solvabilizer a subalgebra?")
    _add_common(s)
    s.set_defaults(func=cmd_slie)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, liealg.CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
