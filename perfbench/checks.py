"""Output checks for the benchmark commands.

Every expected value is derived here from the closed forms for the 2x2
families over F_q (q an odd prime), not from the package under test:

- a vertex's degree is fixed by the eigenvalue class of its matrix
  (no eigenvalue in F_q, one, or two), and each class has a known size;
- |sol(L)| = |L| - (number of vertices), which is 1 for sl2 and q (the
  scalar matrices) for gl2;
- |sol_L(x)| = |sol(L)| + 1 + deg(x) for a vertex x, so the conjecture
  sum is |sol(L)|*|L| + sum over vertices v of (|sol(L)| + 1 + deg v).

The only recorded values are those no closed form gives: the sha256 of
each export file and the component counts, taken at the commit that
introduced the benchmark (see expected.json).

Each check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

CLASSES = ("none", "one", "two")


def parse_spec(spec: str) -> tuple[str, int]:
    """'sl2@13' -> ('sl2', 13)."""
    family, q = spec.split("@")
    return family, int(q)


def class_degrees(family: str, q: int) -> dict[str, int]:
    """Degree of a vertex of each eigenvalue class."""
    if family == "sl2":
        return {"none": q - 2, "one": q * q - 2, "two": 2 * q * q - q - 2}
    if family == "gl2":
        return {"none": q * q - q - 1, "one": q**3 - q - 1,
                "two": 2 * q**3 - q * q - q - 1}
    raise ValueError(f"no closed form for {family}")


def class_counts(family: str, q: int) -> dict[str, int]:
    """Number of vertices in each eigenvalue class."""
    base = {"none": q * (q - 1) ** 2 // 2, "one": q * q - 1,
            "two": q * (q * q - 1) // 2}
    scale = {"sl2": 1, "gl2": q}[family]
    return {c: scale * n for c, n in base.items()}


def order(family: str, q: int) -> int:
    return q ** {"sl2": 3, "gl2": 4}[family]


def degree_multiset(family: str, q: int) -> dict[int, int]:
    """{degree: multiplicity}, largest degree first."""
    deg, cnt = class_degrees(family, q), class_counts(family, q)
    return dict(sorted(((deg[c], cnt[c]) for c in CLASSES), reverse=True))


def sol_size(family: str, q: int) -> int:
    return order(family, q) - sum(class_counts(family, q).values())


def conjecture_total(family: str, q: int) -> int:
    s = sol_size(family, q)
    return s * order(family, q) + sum(m * (s + 1 + d)
                                      for d, m in degree_multiset(family, q).items())


def gl2_class(x, q: int) -> str:
    """Eigenvalue class of the 2x2 matrix with coordinates (E00, E01, E10, E11).

    The class is that of the traceless part [[a, b], [c, -a]], decided by
    the discriminant a^2 + bc: zero, a nonzero square, or a non-square.
    """
    a = (x[0] - (x[0] + x[3]) * pow(2, q - 2, q)) % q
    disc = (a * a + x[1] * x[2]) % q
    if disc == 0:
        return "one"
    return "two" if pow(disc, (q - 1) // 2, q) == 1 else "none"


def gl2_index(x, q: int) -> int:
    """Element index: base-q digits, least significant first."""
    return sum(c * q**i for i, c in enumerate(x))


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _mismatch(what: str, got: str, want: str) -> str | None:
    if got == want:
        return None
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"{what}: line {i + 1} is {g[:80]!r}, expected {w[:80]!r}"
    return f"{what}: {len(got_lines)} lines, expected {len(want_lines)}"


def _kv(pairs) -> str:
    return "\n".join(f"{k}={v}" for k, v in pairs)


def expected_verify(family: str, q: int) -> str:
    lines = [f"family={family} q={q}", "degree,expected,computed"]
    lines += [f"{d},{m},{m}" for d, m in degree_multiset(family, q).items()]
    lines.append("class,expected,computed")
    lines += [f"{c},{n},{n}" for c, n in class_counts(family, q).items()]
    lines.append("result=PASS")
    return "\n".join(lines)


def expected_conjecture(family: str, q: int) -> str:
    total, n = conjecture_total(family, q), order(family, q)
    quot, rem = divmod(total, n)
    div = "yes" if rem == 0 else "no"
    return f"sum={total} order={n} divisible={div} quotient={quot if rem == 0 else Fraction(total, n)}"


def expected_info(spec: str) -> str:
    family, p = parse_spec(spec)
    if family == "gl2":
        # sol(L) is the scalar matrices, a solvable ideal, so it is also the
        # radical.  A vertex with two eigenvalues has |sol_L(x)| = 2q^3 - q^2,
        # not a power of q, so that solvabilizer is no subalgebra.
        s = sol_size(family, p)
        return _kv([("algebra", spec), ("p", p), ("dim", 4), ("order", p**4),
                    ("solvable", "false"), ("sol_size", s), ("radical_dim", 1),
                    ("radical_size", s), ("s_lie", "false")])
    if family.startswith("t"):
        # Upper triangular matrices are solvable: sol(L) = radical = L, and
        # every solvabilizer is L itself.
        n = int(family[1:])
        dim = n * (n + 1) // 2
        return _kv([("algebra", spec), ("p", p), ("dim", dim), ("order", p**dim),
                    ("solvable", "true"), ("sol_size", p**dim), ("radical_dim", dim),
                    ("radical_size", p**dim), ("s_lie", "true")])
    raise ValueError(f"no expectation for info {spec}")


def check_solvabilizer(spec: str, element: str, out: str) -> str | None:
    family, q = parse_spec(spec)
    if family != "gl2":
        raise ValueError(f"no expectation for solvabilizer on {spec}")
    x = tuple(int(c) % q for c in element.split(","))
    s = sol_size(family, q)
    size = s + 1 + class_degrees(family, q)[gl2_class(x, q)]
    lines = out.split("\n")
    if len(lines) != 9 or not lines[2].startswith("members="):
        return f"solvabilizer: unexpected layout {out[:80]!r}"
    # Every solvabilizer size is a multiple of q and contains sol(L); the
    # centralizer of a non-scalar 2x2 matrix is F_q[x], of size q^2.
    want = _kv([("element", "(" + ",".join(map(str, x)) + ")"), ("size", size)])
    want += "\n" + _kv([("p_divides", "true"), ("sol_size", s), ("sol_divides", "true"),
                        ("centralizer_size", q * q), ("centralizer_divides", "n/a"),
                        ("coset_closed", "true")])
    bad = _mismatch("solvabilizer", "\n".join(lines[:2] + lines[3:]), want)
    if bad:
        return bad
    try:
        members = [int(m) for m in lines[2][len("members="):].split()]
    except ValueError:
        return "solvabilizer: non-integer member"
    if len(members) != size or members != sorted(set(members)):
        return f"solvabilizer: {len(members)} members, expected {size} ascending"
    if members[0] < 0 or members[-1] >= q**4:
        return "solvabilizer: member index out of range"
    mset = set(members)
    scalars = {gl2_index((a, 0, 0, a), q) for a in range(q)}
    multiples = {gl2_index(tuple(t * c % q for c in x), q) for t in range(1, q)}
    if not scalars | multiples <= mset:
        return "solvabilizer: misses sol(L) or a multiple of the element"
    # sol_L(x) is a union of subalgebras containing x, so y + x stays inside.
    for m in members:
        y = [(m // q**i) % q for i in range(4)]
        if gl2_index([(a + b) % q for a, b in zip(y, x)], q) not in mset:
            return f"solvabilizer: member {m} plus the element is not a member"
    return None


def check_graph(spec: str, out: str, files: dict[str, Path]) -> str | None:
    family, q = parse_spec(spec)
    rec = EXPECTED["graph"][spec]
    degs = degree_multiset(family, q)
    edges, odd = divmod(sum(d * m for d, m in degs.items()), 2)
    if odd:
        raise ValueError("closed-form degree sum is odd")
    want = f"vertices={sum(degs.values())} edges={edges} components={rec['components']}"
    bad = _mismatch("graph", out, want)
    if bad:
        return bad
    for kind, path in files.items():
        if not Path(path).is_file():
            return f"graph: {kind} export missing"
        if kind == "csv":
            text = Path(path).read_text()
            rows = "\n".join(f"{d},{m}" for d, m in degs.items())
            bad = _mismatch("graph csv", text, f"degree,multiplicity\n{rows}\n")
            if bad:
                return bad
        if sha256_file(path) != rec["sha256"][kind]:
            return f"graph: {kind} export differs from the recorded sha256"
    return None


def check(argv, returncode: int, out: str, files: dict[str, Path]) -> str | None:
    """Check one command's exit code, stdout and export files."""
    if returncode != 0:
        return f"exit code {returncode}"
    out = out.rstrip("\n")
    cmd, spec = argv[0], argv[1]
    if cmd == "verify":
        return _mismatch("verify", out, expected_verify(*parse_spec(spec)))
    if cmd == "conjecture":
        return _mismatch("conjecture", out, expected_conjecture(*parse_spec(spec)))
    if cmd == "info":
        return _mismatch("info", out, expected_info(spec))
    if cmd == "solvabilizer":
        return check_solvabilizer(spec, argv[argv.index("--element") + 1], out)
    if cmd == "graph":
        return check_graph(spec, out, files)
    if cmd == "complement":
        return _mismatch("complement", out, f"components={EXPECTED['complement'][spec]}")
    raise ValueError(f"no check for command {cmd}")
