"""Command-line interface.

Algebras are named by compact specs: sl2@3, gl2@5, t3@2, so3@5, w3, or
file:PATH for a structure-constants file.  All commands are deterministic;
identical invocations produce byte-identical output.  Every solvability
query a command makes reads the loaded algebra's plane table (see solv).

Commands compute, and main loads, renders and exits: each command is a
function cmd_x(L, args) that takes the algebra main loaded and returns
its fields as data.  main alone reads --format: it prints the fields as
compact JSON or as the text of the command's renderer in _COMMANDS
(nothing when that text is empty), and exits 1 exactly when the fields
say passed is false, as a FAIL report of verify does.

The same table names each command's options beyond the shared --force
and --format.  parse_args reads a plain argv (the command, exact options
with their values and the algebra) from it in one loop, and hands every
other argv to an argparse parser built from it, which alone prints help
and usage errors.  So a plain argv never imports argparse, which with
the gettext and locale it imports cost every command a few milliseconds
of start-up.
"""

from __future__ import annotations

import atexit
import os
import re
import sys
from types import SimpleNamespace
from typing import NamedTuple

from . import formulas, graph, liealg, solv

_SPEC_RE = re.compile(r"(sl|gl|t|so)([0-9]+)@([0-9]+)")


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
    m = _SPEC_RE.fullmatch(text)
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


def cmd_info(L, args) -> dict:
    sol = solv.sol_of_algebra(L, force=args.force)
    rad = liealg.radical(L, force=args.force)
    s_lie = solv.is_s_lie(L, force=args.force)
    return {
        "algebra": L.name, "p": L.field.p, "dim": L.dim, "order": L.size,
        "solvable": rad.dim == L.dim, "sol_size": solv.row_size(L, sol),
        "radical_dim": rad.dim, "radical_size": rad.size, "s_lie": s_lie,
    }


def cmd_graph(L, args) -> dict:
    G = graph.build(L, force=args.force)
    if args.dot:
        graph.export_dot(G, args.dot)
    if args.json:
        graph.export_json(G, args.json)
    if args.csv:
        graph.export_degrees_csv(G, args.csv)
    return {"vertices": G.vertex_count, "edges": G.edge_count,
            "components": len(graph.components(G))}


def cmd_degrees(L, args) -> dict:
    seq = graph.degree_sequence(graph.build(L, force=args.force))
    return {"degrees": [[d, m] for d, m in seq.items()]}


def cmd_conjecture(L, args) -> dict:
    fields = solv.conjecture_sum(L, force=args.force)
    return {**fields, "quotient": str(fields["quotient"])}


def cmd_verify(L, args) -> dict:
    return formulas.verify(L, force=args.force)


def cmd_complement(L, args) -> dict:
    return {"components": len(graph.complement_components(graph.build(L, force=args.force)))}


def cmd_solvabilizer(L, args) -> dict:
    parts = args.element.split(",") if args.element.strip() else []  # blank: dim 0
    try:
        if not all(liealg.is_decimal(c, signed=True) for c in parts):
            raise ValueError
        coords = tuple(map(int, parts))  # ValueError past 4,300 digits too
    except ValueError:
        raise ValueError(f"cannot parse element coordinates {args.element!r}") from None
    members = solv.solvabilizer(L, coords, force=args.force)
    # divisibility_report's fields, with members after element and size
    element, size, *rest = solv.divisibility_report(L, coords, force=args.force).items()
    return dict([element, size, ("members", list(members)), *rest])


def cmd_slie(L, args) -> dict:
    witness = solv.s_lie_witness(L, force=args.force)
    if witness is None:
        return {"s_lie": True}
    return {"s_lie": False, "witness": dict(zip("xab", map(list, witness)))}


def _pairs(sep):
    """The renderer of a command's fields as key=value pairs joined by sep."""
    return lambda fields: sep.join(f"{k}={_text(v)}" for k, v in fields.items())


def _degrees_text(fields) -> str:
    return "\n".join(f"{d},{m}" for d, m in fields["degrees"])


def _conjecture_text(fields) -> str:
    return _pairs(" ")({**fields, "divisible": "yes" if fields["divisible"] else "no"})


def _slie_text(fields) -> str:
    witness = {f"witness_{k}": tuple(v) for k, v in fields.get("witness", {}).items()}
    return _pairs("\n")({"s_lie": fields["s_lie"], **witness})


def _verify_text(report) -> str:
    expected, computed = dict(report["expected"]), dict(report["computed"])
    lines = [f"family={report['family']} q={report['q']}", "degree,expected,computed"]
    lines += [f"{d},{expected.get(d, 0)},{computed.get(d, 0)}"
              for d in sorted(set(expected) | set(computed), reverse=True)]
    lines.append("class,expected,computed")
    lines += [f"{cls},{n},{report['class_counts'][cls]}"
              for cls, n in report["expected_class_counts"].items()]
    if report["first_mismatch"]:
        lines.append(f"mismatch={report['first_mismatch']}")
    return "\n".join(lines + [f"result={'PASS' if report['passed'] else 'FAIL'}"])


_TEXT_JSON = ("text", "json")

# name, help, command, the renderer of its fields as text, its --format
# choices, and the options it takes beyond --force and --format as
# (flag, metavar, help, required)
_COMMANDS = (
    ("info", "order, solvability, sol(L), radical, S-property", cmd_info, _pairs("\n"),
     _TEXT_JSON, ()),
    ("graph", "build the solvable graph and export it", cmd_graph, _pairs(" "), _TEXT_JSON, (
        ("--dot", "PATH", "write a Graphviz DOT file", False),
        ("--json", "PATH", "write a JSON graph file", False),
        ("--csv", "PATH", "write a degree,multiplicity CSV", False))),
    # degrees' text output is already CSV rows; it accepts the explicit spelling too
    ("degrees", "print the degree sequence as CSV rows", cmd_degrees, _degrees_text,
     ("text", "json", "csv"), ()),
    ("conjecture", "sum of solvabilizer sizes and divisibility", cmd_conjecture,
     _conjecture_text, _TEXT_JSON, ()),
    ("verify", "check a built graph against the closed forms", cmd_verify, _verify_text,
     _TEXT_JSON, ()),
    ("complement", "component count of the complement graph", cmd_complement, _pairs(" "),
     _TEXT_JSON, ()),
    ("solvabilizer", "solvabilizer of one element", cmd_solvabilizer, _pairs("\n"), _TEXT_JSON, (
        ("--element", "ELEMENT", "comma-separated coordinates in constructor basis order",
         True),)),
    ("slie", "is every solvabilizer a subalgebra?", cmd_slie, _slie_text, _TEXT_JSON, ()),
)

def _argparse_parser():
    """The command line as an argparse parser of the same table.  It reads
    every argv that parse_args' own loop does not: help, usage errors,
    --opt=value, prefixes, '--' and values that start with '-'."""
    import argparse  # here, so a plain argv never loads it
    parser = argparse.ArgumentParser(
        prog="solvgraph",
        description="Solvable graphs and solvabilizers of Lie algebras over F_p.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, render, formats, options in _COMMANDS:
        s = subs.add_parser(name, help=help_text, description=help_text)
        s.add_argument("algebra", help="algebra spec, e.g. sl2@3, gl2@5, w3, file:PATH")
        s.add_argument("--force", action="store_true", help="override the enumeration size cap")
        s.add_argument("--format", default="text", choices=formats,
                       help="output format (default: text)")
        for flag, metavar, text, required in options:
            s.add_argument(flag, metavar=metavar, help=text, required=required)
        s.set_defaults(func=func, render=render)
    return parser


def parse_args(argv=None):
    """Read argv into the fields argparse gives for it.

    A plain argv is read here, from _COMMANDS: the exact command name,
    then in any order --force, exact options of that command each with a
    value that does not start with '-' (for --format, one of its
    choices), and one algebra that does not start with '-'; the algebra
    and every required option present.  Every other argv is read by
    _argparse_parser(), which prints help or a usage error and exits.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    for name, _, func, render, formats, options in _COMMANDS:
        if argv[:1] != [name]:
            continue
        args = {"command": name, "algebra": None, "force": False, "format": "text",
                **{flag[2:]: None for flag, *_ in options}, "func": func, "render": render}
        choices = {"--format": formats, **{flag: None for flag, *_ in options}}
        rest = iter(argv[1:])
        for arg in rest:
            if arg == "--force":
                args["force"] = True
            elif arg in choices:
                value = next(rest, "-")  # a missing value reads as an option
                if value[:1] == "-" or choices[arg] and value not in choices[arg]:
                    break
                args[arg[2:]] = value
            elif arg[:1] != "-" and args["algebra"] is None:
                args["algebra"] = arg
            else:
                break
        else:
            if args["algebra"] is not None and all(
                    args[flag[2:]] is not None for flag, *_, required in options if required):
                return SimpleNamespace(**args)
    return _argparse_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        fields = args.func(load_algebra(parse_spec(args.algebra)), args)
        if args.format == "json":
            _print_json(fields)
        elif text := args.render(fields):
            print(text)
        return 0 if fields.get("passed", True) else 1
    except (ValueError, liealg.CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    """The process entry of `python -m solvgraph` and the console script:
    run main() and end the process with its exit code.

    Once main has returned, every file a command wrote is closed by its
    with block, and solvgraph starts no threads.  So the interpreter's
    teardown, which frees every module and object the command built, is
    skipped: the atexit handlers run, stdout and stderr are flushed, and
    os._exit ends the process.  The normal exit is kept when main raises
    (usage errors, --help, tracebacks), when a profiler, tracer or
    debugger watches the process or -i asks for a prompt, since each acts
    at exit, and when a flush fails, so that a closed pipe is reported as
    before.
    """
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # 3.12+, tool ids 0-5; cProfile registers here
    if (sys.getprofile() or sys.gettrace() or sys.flags.inspect
            or monitoring and any(map(monitoring.get_tool, range(6)))):
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # OSError, or AttributeError when fd 1 was closed and stdout is None
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
