"""Closed-form degree sequences for the 2x2 matrix families over F_q.

The degree of a vertex is decided by how many eigenvalues its matrix has
over F_q: none, one, or two.  For q odd that is read off the discriminant
(m00 - m11)^2 + 4 m01 m10 of the characteristic polynomial: zero, a nonzero
square, or a non-square.  A scalar shift leaves it unchanged, so a full
matrix has the class of its traceless part [[a, b], [c, -a]], whose
discriminant is 4(a^2 + bc).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .ffalg import PrimeField
from .graph import build, degree_sequence
from .liealg import LieAlgebra, make_gl, make_sl


class SpectralClass(enum.Enum):
    NO_EIGENVALUE = "none"
    ONE_EIGENVALUE = "one"
    TWO_EIGENVALUES = "two"


def _require_odd_prime(q: int):
    PrimeField(q)  # bounds q before the primality test, so a huge q fails at once
    if q == 2:
        raise ValueError("q must be an odd prime")


def _class_table(family: str, q: int) -> dict[SpectralClass, tuple[int, int]]:
    """(degree, vertex count) of each spectral class, largest degree first.

    A full matrix is a traceless one plus one of q scalars, and the scalars
    lie in sol(L); so each gl2 class holds q times as many vertices, and
    each vertex sees q(d + 1) - 1 others where its traceless part sees d.
    """
    _require_odd_prime(q)
    if family not in ("sl2", "gl2"):
        raise ValueError(f"unknown family {family!r}; expected 'sl2' or 'gl2'")
    table = {
        SpectralClass.TWO_EIGENVALUES: (2 * q * q - q - 2, q * (q * q - 1) // 2),
        SpectralClass.ONE_EIGENVALUE: (q * q - 2, q * q - 1),
        SpectralClass.NO_EIGENVALUE: (q - 2, q * (q - 1) ** 2 // 2),
    }
    if family == "gl2":
        table = {cls: (q * (d + 1) - 1, q * n) for cls, (d, n) in table.items()}
    return table


def sl2_expected(q: int) -> dict[int, int]:
    """Predicted degree multiset for the traceless 2x2 family over F_q, q odd.

    {2q^2-q-2: q(q^2-1)/2,  q^2-2: q^2-1,  q-2: q(q-1)^2/2}
    """
    return dict(_class_table("sl2", q).values())


def gl2_expected(q: int) -> dict[int, int]:
    """Predicted degree multiset for the full 2x2 matrix family over F_q, q odd.

    {2q^3-q^2-q-1: q^2(q^2-1)/2,  q^3-q-1: q^3-q,  q^2-q-1: q^2(q-1)^2/2}
    """
    return dict(_class_table("gl2", q).values())


def is_quadratic_residue(t: int, q: int) -> bool:
    """Euler's criterion: nonzero t is a square mod q iff t^((q-1)/2) = 1."""
    t %= q
    if t == 0:
        raise ValueError("quadratic-residue test needs a nonzero argument")
    return pow(t, (q - 1) // 2, q) == 1


def _discriminant_class(m, q: int) -> SpectralClass:
    """Eigenvalue count over F_q, q odd, of the 2x2 matrix m = ((m00, m01), (m10, m11))."""
    (m00, m01), (m10, m11) = m
    disc = ((m00 - m11) ** 2 + 4 * m01 * m10) % q
    if disc == 0:
        return SpectralClass.ONE_EIGENVALUE
    if is_quadratic_residue(disc, q):
        return SpectralClass.TWO_EIGENVALUES
    return SpectralClass.NO_EIGENVALUE


def _matrix(family: str, x):
    """The 2x2 matrix with coordinates x in the constructor basis: (e, f, h)
    for sl2, (E00, E01, E10, E11) for gl2."""
    if family == "sl2":
        e, f, h = x
        return (h, e), (f, -h)
    return x[:2], x[2:]


def spectral_class_sl2(L: LieAlgebra, x) -> SpectralClass:
    """Eigenvalue count of the traceless 2x2 matrix with coordinates x.

    Coordinates follow the constructor basis (e, f, h), so the matrix is
    [[h, e], [f, -h]].  No command calls it (verify classifies one
    discriminant per line); it is public as the paper's spectral type of
    one matrix.
    """
    q = L.field.p
    _require_odd_prime(q)
    if L.dim != 3:
        raise ValueError("expected a 3-dimensional traceless 2x2 algebra")
    x = L.element(x)
    if not any(x):
        raise ValueError("the zero element has no spectral class")
    return _discriminant_class(_matrix("sl2", x), q)


def spectral_counts(q: int) -> tuple[int, int, int]:
    """Vertex counts (no eigenvalue, one, two) for the traceless family.
    No command calls it; it is public as the paper's count of matrices of
    each spectral type in sl2(F_q)."""
    table = _class_table("sl2", q)
    return tuple(table[cls][1] for cls in SpectralClass)


class VerificationReport(NamedTuple):
    """Outcome of checking a built graph against the closed forms."""
    family: str
    q: int
    passed: bool
    expected: dict[int, int]
    computed: dict[int, int]
    class_counts: dict[str, int]
    expected_class_counts: dict[str, int]
    first_mismatch: str | None

    def text(self) -> str:
        lines = [f"family={self.family} q={self.q}"]
        lines.append("degree,expected,computed")
        degrees = sorted(set(self.expected) | set(self.computed), reverse=True)
        for d in degrees:
            lines.append(f"{d},{self.expected.get(d, 0)},{self.computed.get(d, 0)}")
        lines.append("class,expected,computed")
        for cls in SpectralClass:
            lines.append(f"{cls.value},{self.expected_class_counts[cls.value]},"
                         f"{self.class_counts[cls.value]}")
        if self.first_mismatch:
            lines.append(f"mismatch={self.first_mismatch}")
        lines.append(f"result={'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        import json  # here, so text output never loads json
        return json.dumps({**self._asdict(),
                           "expected": [[d, m] for d, m in self.expected.items()],
                           "computed": [[d, m] for d, m in self.computed.items()]},
                          separators=(",", ":"))


def verify(family: str, q: int, force: bool = False) -> VerificationReport:
    """Build the graph for sl2 or gl2 over F_q and compare with the closed forms.

    Checks the degree multiset, then that the eigenvalue class of every
    vertex determines its degree exactly; the per-class counts are tallied
    in the same pass and always reported.

    Lemma: the counts need no check of their own.  The three class degrees
    are distinct for odd q (they differ by q^2 - q, or q times that for
    gl2), so once every vertex has its class's degree, the count of each
    class is the multiplicity of that degree, which the matching degree
    multiset fixes at the expected count.

    Lemma: for t != 0, disc(tx) = t^2 disc(x) and tx shares x's plane-table
    row, so tx has the class and degree of x.  Hence one representative per
    vertex line, its smallest member, is checked and counted q - 1 times;
    lines ascend by that member, so the first mismatch is the smallest
    failing vertex, as a per-vertex scan would find it.
    """
    table = _class_table(family, q)
    L = make_sl(2, q) if family == "sl2" else make_gl(2, q)
    expected = dict(table.values())

    G = build(L, force=force)
    computed = degree_sequence(G)
    mismatch = None
    if computed != expected:
        mismatch = f"degree sequence {computed} != expected {expected}"

    observed_counts = {cls: 0 for cls in SpectralClass}
    for l, deg in zip(G.lines, G.degrees):
        m = L.line_rep(l)
        cls = _discriminant_class(_matrix(family, L.vector(m)), q)
        observed_counts[cls] += q - 1
        if mismatch is None and deg != table[cls][0]:
            mismatch = (f"vertex {m} of class {cls.value} has degree {deg}, "
                        f"expected {table[cls][0]}")

    return VerificationReport(
        family=family,
        q=q,
        passed=mismatch is None,
        expected=expected,
        computed=computed,
        class_counts={cls.value: n for cls, n in observed_counts.items()},
        expected_class_counts={cls.value: table[cls][1] for cls in SpectralClass},
        first_mismatch=mismatch,
    )
