"""Finite-dimensional Lie algebras over F_p, given by structure constants.

An algebra of dimension n over F_p has p**n elements; element number m has
the base-p digits of m as coordinates, least significant digit first.  The
constant table is validated at construction: the bracket of a basis vector
with itself vanishes, the table is antisymmetric, and the Jacobi identity
holds on all basis triples.

The projective lines are numbered in order of their smallest members: a
vector scaled so that its last nonzero coordinate k is 1 is its line's
smallest member and lies on line (p**k - 1)/(p - 1) plus the base-p value
of its coordinates below k.
"""

from __future__ import annotations

import os
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

from .ffalg import PrimeField, Subspace, _echelon, full_space, kernel, rref, solve, zero_space

DEFAULT_ELEMENT_CAP = 1 << 24
MAX_DIM = 64  # checked before a builtin or a file allocates its dim**3 table


class ValidationError(ValueError):
    """A structure-constant table violates a Lie algebra axiom."""


class CapExceeded(RuntimeError):
    """p**n exceeds the exhaustive-enumeration cap."""


def is_decimal(text: str, signed: bool = False) -> bool:
    """Whether text spells an integer in ASCII decimal: a sign where signed
    allows one, then the digits 0-9, with whitespace around.  int() also
    reads '_' separators and every Unicode digit, so '1_0' as 10 and an
    Arabic-Indic one as 1, and str.isdecimal() and the regex \\d take those
    digits too."""
    body = text.strip()
    if signed and body[:1] in ("+", "-"):
        body = body[1:]
    return body.isascii() and body.isdecimal()


def element_cap() -> int:
    """Cap on |L| for whole-algebra enumerations; override via SOLVGRAPH_CAP."""
    raw = os.environ.get("SOLVGRAPH_CAP")
    if raw is None:
        return DEFAULT_ELEMENT_CAP
    digits = raw.strip().lstrip("0")
    if not is_decimal(digits) or int(digits[:600]) < 1:
        raise ValueError(f"SOLVGRAPH_CAP must be a positive integer, got {raw!r}")
    # int() refuses over 4,300 digits, and every |L| = p**dim is below
    # 2^1984 < 10^600 (p < 2^31, dim <= 64): a longer cap never binds
    return int(digits) if len(digits) <= 600 else 10 ** 600


def bounded_int(text: str, bound: int, message: str) -> int:
    """int(text) for an ASCII decimal text, or ValueError(message) when its
    digits past leading zeros outnumber bound's: int() refuses more than
    4,300 digits, and the callers reject every value over bound anyway."""
    digits = text.lstrip("0")
    if len(digits) > len(str(bound)):
        raise ValueError(message)
    return int(digits or "0")


def require_enumerable(L: "LieAlgebra", force: bool = False):
    cap = element_cap()
    if not force and L.size > cap:
        raise CapExceeded(
            f"|L| = {L.size} exceeds the enumeration cap {cap}; "
            "use force to override")


class LieAlgebra:
    """A Lie algebra over F_p with a dense n**3 structure-constant table.

    ``constants[i][j][k]`` is the coefficient of basis vector k in the
    bracket of basis vectors i and j.  The table, field and labels are
    fixed after validation; the three slots below are caches of answers
    derived from them, filled on first use and never changed after.
    """

    # Filled on first use: _radical, rad(L), by radical or is_solvable;
    # _quotient, L/rad(L) with its projection, by radical alone, and only
    # when 0 < dim rad(L) < dim L; _plane_table by solv.plane_table.
    __slots__ = ("field", "dim", "constants", "labels", "name",
                 "basis_matrices", "_radical", "_quotient", "_plane_table")

    def __init__(self, field: PrimeField, constants, labels=None, name="L",
                 basis_matrices=None):
        p = field.p
        self.field = field
        self.constants = tuple(
            tuple(tuple(int(v) % p for v in row) for row in plane)
            for plane in constants)
        self.dim = len(self.constants)
        if labels is None:
            labels = [f"b{i}" for i in range(self.dim)]
        if len(labels) != self.dim:
            raise ValidationError(f"expected {self.dim} labels, got {len(labels)}")
        self.labels = tuple(str(x) for x in labels)
        self.name = name
        self.basis_matrices = basis_matrices
        self._radical = self._quotient = self._plane_table = None
        self._validate()

    def _validate(self):
        n, p, c = self.dim, self.field.p, self.constants
        for i, plane in enumerate(c):
            if len(plane) != n or any(len(row) != n for row in plane):
                raise ValidationError(f"constant table is not {n}x{n}x{n} at plane {i}")
        for i in range(n):
            for k in range(n):
                if c[i][i][k]:
                    raise ValidationError(
                        f"bracket of basis vector {i} with itself is nonzero: "
                        f"c[{i}][{i}][{k}] = {c[i][i][k]}")
            for j in range(i + 1, n):
                for k in range(n):
                    if (c[i][j][k] + c[j][i][k]) % p:
                        raise ValidationError(
                            f"antisymmetry fails at (i,j,k) = ({i},{j},{k}): "
                            f"{c[i][j][k]} != -{c[j][i][k]} mod {p}")
        # Jacobi on strictly increasing triples; repeated indices cancel
        # automatically once the table is alternating and antisymmetric.
        # [e_a, [e_b, e_cc]] is the bracket of e_a with the table entry c[b][cc].
        e = full_space(n, self.field).basis
        for i, j, k in combinations(range(n), 3):
            terms = [self.bracket(e[a], c[b][cc]) for a, b, cc in ((i, j, k), (j, k, i), (k, i, j))]
            if any(sum(col) % p for col in zip(*terms)):
                raise ValidationError(f"Jacobi identity fails on basis triple ({i},{j},{k})")

    @property
    def size(self) -> int:
        """Number of elements, p**dim."""
        return self.field.p ** self.dim

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.dim

    def basis_vector(self, i: int) -> tuple[int, ...]:
        """Coordinates of the i-th basis vector; ValueError unless 0 <= i < dim."""
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} is outside 0..{self.dim - 1}")
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def vector(self, index: int) -> tuple[int, ...]:
        """Coordinates of element ``index`` (base-p digits, least significant
        first); ValueError unless 0 <= index < size."""
        p, m = self.field.p, index
        coords = []
        for _ in range(self.dim):
            m, r = divmod(m, p)
            coords.append(r)
        if m:  # digits left over, or a negative index's -1
            raise ValueError(f"element index {index} is outside 0..{self.size - 1}")
        return tuple(coords)

    def element(self, x) -> tuple[int, ...]:
        """The coordinates x reduced mod p; ValueError unless there are dim of them."""
        if len(x) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(x)}")
        return tuple(v % self.field.p for v in x)

    def index(self, v) -> int:
        p = self.field.p
        m = 0
        for x in reversed(v):
            m = m * p + (x % p)
        return m

    def bracket(self, x, y) -> tuple[int, ...]:
        """Bracket of two coordinate vectors, via the constant table."""
        n, p, c = self.dim, self.field.p, self.constants
        out = [0] * n
        for i, xi in enumerate(x):
            if not xi:
                continue
            ci = c[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                f = xi * yj
                row = ci[j]
                for k, v in enumerate(row):
                    if v:
                        out[k] = (out[k] + f * v) % p
        return tuple(out)

    @property
    def line_count(self) -> int:
        """Number of projective lines, (p**dim - 1)/(p - 1)."""
        p = self.field.p
        return (p ** self.dim - 1) // (p - 1)

    def line(self, v) -> int:
        """Number of the line through the nonzero coordinate vector v;
        ValueError unless v has dim coordinates."""
        if len(v) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(v)}")
        p = self.field.p
        for k in range(len(v) - 1, -1, -1):
            if v[k] % p:
                inv = pow(v[k], -1, p)
                return (p ** k - 1) // (p - 1) + self.index([x * inv for x in v[:k]])
        raise ValueError("the zero vector lies on no line")

    def line_rep(self, l: int) -> int:
        """Index of the smallest member of line l: the p**k lines whose last
        nonzero coordinate is k have the smallest members p**k onwards.
        ValueError unless 0 <= l < line_count."""
        p, block, k = self.field.p, 1, l
        for _ in range(self.dim):
            if 0 <= k < block:
                return block + k
            k -= block
            block *= p
        raise ValueError(f"line {l} is outside 0..{self.line_count - 1}")

    def line_members(self, l: int) -> tuple[int, ...]:
        """Sorted indices of the p - 1 members of line l; ValueError unless
        0 <= l < line_count."""
        v = self.vector(self.line_rep(l))
        return tuple(sorted(self.index([t * x for x in v]) for t in range(1, self.field.p)))

    def lines(self) -> tuple[tuple[int, ...], ...]:
        """Members of every line, in line-number order.  No command calls
        it; it is public because the benchmark's setup_s probe and tracer
        call it."""
        return tuple(map(self.line_members, range(self.line_count)))

    def full_space(self) -> Subspace:
        return full_space(self.dim, self.field)

    def zero_space(self) -> Subspace:
        return zero_space(self.dim, self.field)

    def __eq__(self, other):
        return (isinstance(other, LieAlgebra) and self.field == other.field
                and self.constants == other.constants)

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, p={self.field.p}, dim={self.dim})"


# ---------------------------------------------------------------------------
# Matrix scaffolding for the builtin families.

def _unit_matrix(n, i, j):
    return tuple(tuple(1 if (r, c) == (i, j) else 0 for c in range(n)) for r in range(n))


def _mat_add(a, b, p, sign=1):
    return tuple(tuple((x + sign * y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_mul(a, b, p):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols)
                 for row in a)


def _mat_bracket(a, b, p):
    return _mat_add(_mat_mul(a, b, p), _mat_mul(b, a, p), p, sign=-1)


def _flatten(m):
    return tuple(x for row in m for x in row)


def _unit_basis(n, keep):
    """The unit matrices E_ij with keep(i, j), in row-major order, and their labels."""
    ij = [(i, j) for i in range(n) for j in range(n) if keep(i, j)]
    return [_unit_matrix(n, i, j) for i, j in ij], [f"E{i}{j}" for i, j in ij]


def _from_matrix_basis(mats, labels, field, name):
    flats = [_flatten(m) for m in mats]
    n = len(mats)
    brackets = [_flatten(_mat_bracket(a, b, field.p)) for a in mats for b in mats]
    coeffs = solve(flats, brackets, field)
    if None in coeffs:
        i, j = divmod(coeffs.index(None), n)
        raise ValidationError(
            f"bracket [{labels[i]}, {labels[j]}] falls outside the basis span")
    constants = [coeffs[i * n:(i + 1) * n] for i in range(n)]
    return LieAlgebra(field, constants, labels=labels, name=name, basis_matrices=tuple(mats))


def _family_field(n: int, p: int, dim: int) -> PrimeField:
    """F_p for a builtin n-by-n family of dimension dim, checked before any matrix."""
    if n < 1:
        raise ValueError("n must be at least 1")
    field = PrimeField(p)
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the limit {MAX_DIM}")
    return field


def make_gl(n: int, p: int) -> LieAlgebra:
    """All n-by-n matrices with bracket xy - yx; basis E_ij in row-major order."""
    field = _family_field(n, p, n * n)
    mats, labels = _unit_basis(n, lambda i, j: True)
    return _from_matrix_basis(mats, labels, field, f"gl{n}@{p}")


def make_sl(n: int, p: int) -> LieAlgebra:
    """Traceless n-by-n matrices, dimension n**2 - 1.

    Basis: off-diagonal units E_ij in row-major order, then the diagonal
    differences E_ii - E_(i+1)(i+1).  For n = 2 this is e, f, h with
    [h,e] = 2e, [h,f] = -2f, [e,f] = h.
    """
    field = _family_field(n, p, n * n - 1)
    mats, labels = _unit_basis(n, lambda i, j: i != j)
    for i in range(n - 1):
        m = _mat_add(_unit_matrix(n, i, i), _unit_matrix(n, i + 1, i + 1), p, sign=-1)
        mats.append(m)
        labels.append(f"H{i}")
    if n == 2:
        labels = ["e", "f", "h"]
    return _from_matrix_basis(mats, labels, field, f"sl{n}@{p}")


def make_t(n: int, p: int) -> LieAlgebra:
    """Upper triangular n-by-n matrices, dimension n(n+1)/2."""
    field = _family_field(n, p, n * (n + 1) // 2)
    mats, labels = _unit_basis(n, lambda i, j: i <= j)
    return _from_matrix_basis(mats, labels, field, f"t{n}@{p}")


def make_so(n: int, p: int) -> LieAlgebra:
    """Antisymmetric n-by-n matrices with zero diagonal, dimension n(n-1)/2.

    Basis A_ij = E_ij - E_ji for i < j.  For p = 2 this coincides with the
    symmetric matrices with zero diagonal, and the family is still closed
    under the bracket.
    """
    field = _family_field(n, p, n * (n - 1) // 2)
    mats, labels = [], []
    for i in range(n):
        for j in range(i + 1, n):
            m = _mat_add(_unit_matrix(n, i, j), _unit_matrix(n, j, i), p, sign=-1)
            mats.append(m)
            labels.append(f"A{i}{j}")
    return _from_matrix_basis(mats, labels, field, f"so{n}@{p}")


def make_w3(p: int) -> LieAlgebra:
    """The simple 3-dimensional algebra over F_2 with [a,b]=b, [a,c]=c, [b,c]=a.

    The Jacobi identity for these brackets needs 2a = 0, so p = 2 is required.
    """
    if p != 2:
        raise ValueError("this algebra only satisfies the Jacobi identity for p = 2")
    field = PrimeField(2)
    a = ((0, 0, 0), (0, 1, 0), (0, 0, 1))
    b = ((0, 1, 0), (0, 0, 0), (1, 0, 0))
    c = ((0, 0, 1), (1, 0, 0), (0, 0, 0))
    return _from_matrix_basis([a, b, c], ["a", "b", "c"], field, "w3")


# ---------------------------------------------------------------------------
# Structure-constant files.

def from_file(path) -> LieAlgebra:
    """Load an algebra from a structure-constants text file.

    Grammar (see README for the full description): a ``p`` line and a ``dim``
    line, an optional ``labels`` line, then ``i j k v`` entry lines meaning
    constants[i][j][k] = v.  Omitted entries are zero; the antisymmetric
    counterpart of every entry is filled in automatically and cross-checked
    when both orientations are present.  ``#`` starts a comment.  Each
    header line may appear once, and an entry may repeat only with the same
    value mod p; either repeat is otherwise an error naming its line.
    """
    path = Path(path)
    field = dim = labels = None
    seen: dict[str, int] = {}  # the line of each header keyword met
    entries: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            # a leading BOM is dropped here, not by the utf-8-sig codec, whose
            # error offsets would not count the BOM's three bytes
            text = fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path.name}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        where = f"{path.name}:{lineno}"
        if parts[0] in ("p", "dim", "labels") and seen.setdefault(parts[0], lineno) < lineno:
            raise ValueError(f"{where}: repeated '{parts[0]}' line, first at line {seen[parts[0]]}")
        if parts[0] == "p":
            if len(parts) != 2 or not is_decimal(parts[1].removeprefix("-")):
                raise ValueError(f"{where}: expected 'p <prime>'")
            if parts[1].startswith("-"):  # not prime, however long
                raise ValueError(f"{where}: {parts[1]} is not prime")
            try:
                field = PrimeField(bounded_int(parts[1], 2**31 - 1, "p must be at most 2^31 - 1"))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
        elif parts[0] == "dim":
            if len(parts) != 2 or not is_decimal(parts[1]):
                raise ValueError(f"{where}: expected 'dim <n>'")
            dim = bounded_int(parts[1], 2**31 - 1, f"{where}: dim exceeds the limit {MAX_DIM}")
            if dim > MAX_DIM:
                raise ValueError(f"{where}: dim {dim} exceeds the limit {MAX_DIM}")
        elif parts[0] == "labels":
            labels = parts[1:]
        else:
            if len(parts) != 4:
                raise ValueError(f"{where}: expected 'i j k v', got {line!r}")
            try:
                if not all(is_decimal(x, signed=True) for x in parts):
                    raise ValueError
                i, j, k, v = map(int, parts)  # ValueError past 4,300 digits too
            except ValueError:
                raise ValueError(f"{where}: expected four integers, got {line!r}") from None
            entries.setdefault((i, j, k), []).append((v, lineno))
    if field is None:
        raise ValueError(f"{path.name}: missing 'p' line")
    if dim is None:
        raise ValueError(f"{path.name}: missing 'dim' line")
    p = field.p
    if labels is not None and len(labels) != dim:
        raise ValueError(f"{path.name}: expected {dim} labels, got {len(labels)}")

    constants = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), ((v, lineno), *repeats) in entries.items():
        where = f"{path.name}:{lineno}"
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValueError(f"{where}: indices ({i},{j},{k}) out of range for dim {dim}")
        for w, other in repeats:
            if (w - v) % p:
                raise ValueError(f"{path.name}:{other}: entry ({i},{j},{k}) conflicts with "
                                 f"line {lineno}: {w} vs {v} mod {p}")
        if i == j and v % p:
            raise ValidationError(
                f"{where}: bracket of basis vector {i} with itself must be zero")
        constants[i][j][k] = v % p
        mirror = entries.get((j, i, k))
        if mirror is not None:
            if (mirror[0][0] + v) % p:
                raise ValidationError(
                    f"{where}: entries ({i},{j},{k}) and ({j},{i},{k}) are not "
                    f"antisymmetric: {v} vs {mirror[0][0]} mod {p}")
        else:
            constants[j][i][k] = -v % p
    return LieAlgebra(field, constants, labels=labels, name=path.stem)


def to_file(L: LieAlgebra, path):
    """Write an algebra in the structure-constants format read by from_file.
    No command calls it; it is public as the writer of the file format
    that file: specs name, and from_file(to_file(L)) gives L back.  A label
    that is empty, holds whitespace or holds '#' would not read back as
    one label, so it raises ValueError before the file is opened."""
    for label in L.labels:
        if not label or "#" in label or any(map(str.isspace, label)):
            raise ValueError(f"label {label!r} cannot be written: it is empty or holds "
                             "whitespace or '#'")
    lines = [f"p {L.field.p}", f"dim {L.dim}", "labels " + " ".join(L.labels)]
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k, v in enumerate(L.constants[i][j]):
                if v:
                    lines.append(f"{i} {j} {k} {v}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Structural computations.

class SeriesReport(NamedTuple):
    """Derived series of a bracket-closed subspace."""
    terms: tuple[Subspace, ...]
    terminated: bool


def _bracket_closure(L: LieAlgebra, vectors, partners=None) -> Subspace:
    """Smallest subspace holding the vectors and closed under brackets with
    its own members (partners None) or with every partner.

    By bilinearity it is enough to bracket each vector that enlarges the
    span once: with the basis it joins, or with the partners.  That is
    ``ffalg._echelon``'s grow rule, so the basis stays canonical RREF
    without being reduced again, and a closure that reaches dim L (all of
    L) stops there.
    """
    def grow(v, rows):
        return [L.bracket(u, v) for u in (rows if partners is None else partners)]
    return _echelon(L.field, L.dim, vectors, grow)


def subalgebra_closure(L: LieAlgebra, generators) -> Subspace:
    """Smallest bracket-closed subspace containing the generators, in RREF."""
    return _bracket_closure(L, generators)


def derived_series(L: LieAlgebra, space: Subspace) -> SeriesReport:
    """Derived series of a bracket-closed subspace, down to stabilization."""
    terms = [space]
    for _ in range(2 * L.dim + 2):
        cur = terms[-1]
        if cur.dim == 0:
            break
        basis = cur.basis
        brackets = [L.bracket(u, v)
                    for i, u in enumerate(basis) for v in basis[i + 1:]]
        nxt = rref(brackets, L.field, ambient=L.dim)
        if nxt == cur:
            break
        terms.append(nxt)
    return SeriesReport(tuple(terms), terms[-1].dim == 0)


def is_solvable(L: LieAlgebra, space: Subspace | None = None) -> bool:
    """True iff the derived series of the subspace reaches 0: the one
    solvability verdict, so its callers pass any closure with no dimension
    test of their own.

    Only a space of dimension strictly between 2 and dim L runs a series.
    One of dimension at most 2, spanned by u and v, has [u, v] or nothing
    as its derived subspace, and 0 next, closed or not.  One of dimension
    dim L (or space None) is L, whose verdict is read off rad(L), kept on
    L, which is L exactly when L is solvable.  While rad(L) is unknown,
    the verdict is one derived series of L, and no line is enumerated.
    That series settles rad(L) when it decides it, and rad(L) is kept: L
    when L is solvable, and 0 when L is not and has dimension 3, as a
    non-solvable L has a radical of codimension at least 3 (L/rad(L) is
    not solvable, and every algebra of dimension at most 2 is).
    """
    if space is None or space.dim == L.dim:
        if L._radical is None:
            solvable = derived_series(L, L.full_space()).terminated
            if solvable or L.dim == 3:
                L._radical = L.full_space() if solvable else L.zero_space()
            return solvable
        return L._radical.dim == L.dim
    return space.dim <= 2 or derived_series(L, space).terminated


def centralizer(L: LieAlgebra, x) -> Subspace:
    """Kernel of ad x: all y with [x, y] = 0."""
    n, x = L.dim, L.element(x)
    images = [L.bracket(x, L.basis_vector(j)) for j in range(n)]
    rows = [tuple(images[j][k] for j in range(n)) for k in range(n)]
    return kernel(rows, L.field, ncols=n)


def center(L: LieAlgebra) -> Subspace:
    """Elements whose bracket with every basis vector vanishes: the kernel
    of the rows c[i][.][k], one per basis vector i and coordinate k."""
    n, c = L.dim, L.constants
    return kernel([[c[i][j][k] for j in range(n)] for i in range(n) for k in range(n)],
                  L.field, ncols=n)


def ideal_closure(L: LieAlgebra, x) -> Subspace:
    """Smallest ad-invariant subspace containing x, in RREF."""
    return _bracket_closure(L, [x], [L.basis_vector(i) for i in range(L.dim)])


def is_ideal(L: LieAlgebra, space: Subspace) -> bool:
    """True iff the subspace absorbs brackets with all of L."""
    return all(space.contains(L.bracket(L.basis_vector(i), v))
               for i in range(L.dim) for v in space.basis)


def radical(L: LieAlgebra, force: bool = False) -> Subspace:
    """rad(L), the maximal solvable ideal, found once and kept on L, where
    is_solvable(L) and solv.plane_table read it.

    The sum of two solvable ideals is a solvable ideal, so rad(L) holds
    every solvable ideal N and is the preimage of rad(L/N).  The route:
    L itself when one derived series shows L solvable, and 0 when L is not
    and has dimension 3 (both settled by is_solvable(L)); else, with a
    nonzero center Z, the preimage of rad(L/Z); else L is searched for the
    elements whose ideal closure is solvable, one per line.  rad(L) has
    codimension at least 3 (see is_solvable) and holds x, [x, L] and the
    ideal closure of each of its members x.  So an x whose span with
    [x, L] has dimension over dim L - 3 is ruled out with one bracket per
    basis vector and no closure, and one whose closure has is ruled out
    with no verdict; a closure of dimension at most 2 is solvable with no
    derived series.

    When 0 < dim rad(L) < dim L, the route that finds rad(L) also keeps
    L/rad(L) on L, as (Q, projection), with rad(Q) = 0 marked on Q, for
    solv.plane_table to lift from: the center route keeps L/Z when rad(L/Z)
    is 0, and else the quotient that radical kept on L/Z, reached through
    both projections, so no level is built twice; the line search builds
    quotient(L, rad(L)).
    """
    require_enumerable(L, force)
    if L._radical is None:
        is_solvable(L)  # settles rad(L) when L is solvable or of dimension 3
    if L._radical is None:
        Z = center(L)
        if Z.dim:
            Q, project, section = quotient(L, Z)
            R = radical(Q, force=True)
            if R.dim:  # L/rad(L) is (L/Z)/rad(L/Z), kept on L/Z
                top, project_top = Q._quotient
                L._quotient = top, lambda v: project_top(project(v))
            else:  # L/Z is L/rad(L)
                L._quotient = Q, project
            space = rref(Z.basis + tuple(map(section, R.basis)), L.field, ambient=L.dim)
            size = Z.size * R.size
        else:
            e = L.full_space().basis
            good_reps = [rep for rep in map(L.vector, map(L.line_rep, range(L.line_count)))
                         if rref([rep] + [L.bracket(rep, b) for b in e], L.field).dim <= L.dim - 3
                         and (C := ideal_closure(L, rep)).dim <= L.dim - 3 and is_solvable(L, C)]
            space = rref(good_reps, L.field, ambient=L.dim)
            size = 1 + (L.field.p - 1) * len(good_reps)
        if space.size != size:
            raise AssertionError(
                f"radical candidate spans {space.size} elements, expected {size}")
        if not is_ideal(L, space) or not is_solvable(L, space):
            raise AssertionError("collected radical candidate is not a solvable ideal")
        if space.dim and not Z.dim:  # the line search found rad(L)
            Q, project, _ = quotient(L, space)
            Q._radical = Q.zero_space()
            L._quotient = Q, project
        L._radical = space
    return L._radical


def quotient(L: LieAlgebra, ideal: Subspace):
    """Quotient algebra by an ideal, with projection and section maps.

    The quotient keeps the coordinates of L at the non-pivot columns of the
    ideal's RREF basis.  The section places quotient coordinates at those
    columns (zeros elsewhere); the projection reduces modulo the ideal and
    reads the kept columns, so project(section(w)) == w.
    """
    if ideal.ambient != L.dim:
        raise ValueError("ideal lives in a different ambient space")
    if not is_ideal(L, ideal):
        raise ValueError("subspace is not an ideal")
    p = L.field.p
    keep = [c for c in range(L.dim) if c not in set(ideal.pivots)]

    def project(v):
        reduced = ideal.reduce(v)
        return tuple(reduced[c] for c in keep)

    def section(w):
        v = [0] * L.dim
        for c, x in zip(keep, w):
            v[c] = x % p
        return tuple(v)

    m = len(keep)
    basis = [section(tuple(1 if j == i else 0 for j in range(m))) for i in range(m)]
    constants = [[project(L.bracket(basis[i], basis[j])) for j in range(m)]
                 for i in range(m)]
    labels = [L.labels[c] for c in keep]
    Q = LieAlgebra(L.field, constants, labels=labels, name=f"{L.name}/I{ideal.dim}")
    return Q, project, section


class LinearMap:
    """Linear map on coordinate vectors; row i is the image of basis vector i."""

    __slots__ = ("field", "matrix")

    def __init__(self, field: PrimeField, matrix):
        self.field = field
        self.matrix = tuple(tuple(int(x) % field.p for x in row) for row in matrix)

    def apply(self, v) -> tuple[int, ...]:
        if len(v) != len(self.matrix):
            raise ValueError(f"expected a vector of length {len(self.matrix)}, got {len(v)}")
        p = self.field.p
        n = len(self.matrix[0]) if self.matrix else 0
        out = [0] * n
        for xi, row in zip(v, self.matrix):
            if xi:
                out = [(a + xi * b) % p for a, b in zip(out, row)]
        return tuple(out)


def is_lie_automorphism(L: LieAlgebra, phi: LinearMap) -> bool:
    """True iff phi is bijective and preserves brackets on all basis pairs;
    False for a matrix that is not dim x dim."""
    if len(phi.matrix) != L.dim or any(len(row) != L.dim for row in phi.matrix):
        return False
    if rref(phi.matrix, L.field, ambient=L.dim).dim != L.dim:
        return False
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = phi.apply(L.constants[i][j])
            rhs = L.bracket(phi.matrix[i], phi.matrix[j])
            if lhs != rhs:
                return False
    return True


def conjugation_automorphism(L: LieAlgebra, g) -> LinearMap:
    """The map x -> g x g^(-1) on a matrix-built algebra, in basis coordinates.

    Requires an algebra produced by one of the matrix constructors, an
    invertible g, and conjugation to keep every basis matrix inside the
    basis span (automatic for gl and sl; for the triangular family g must
    itself be upper triangular).  g is as large as the basis matrices; the
    zero algebra has none, and any invertible g gives its empty map.
    """
    if L.basis_matrices is None:
        raise ValueError("algebra was not built from a matrix basis")
    p = L.field.p
    g = tuple(tuple(int(x) % p for x in row) for row in g)
    n = len(L.basis_matrices[0]) if L.basis_matrices else len(g)
    if len(g) != n or any(len(row) != n for row in g):
        raise ValueError(f"g must be a {n}x{n} matrix")
    ginv = solve(g, full_space(n, L.field).basis, L.field)
    if None in ginv:
        raise ValueError("matrix is not invertible")
    flats = [_flatten(m) for m in L.basis_matrices]
    conjs = [_flatten(_mat_mul(_mat_mul(g, m, p), ginv, p)) for m in L.basis_matrices]
    rows = solve(flats, conjs, L.field)
    if None in rows:
        raise ValueError("conjugation does not preserve the basis span")
    phi = LinearMap(L.field, rows)
    if not is_lie_automorphism(L, phi):
        raise ValueError("conjugation map fails the bracket-preservation check")
    return phi
