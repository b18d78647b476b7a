"""Exact linear algebra over prime fields F_p.

Vectors are tuples of residues in ``range(p)``.  A :class:`Subspace` keeps
its basis in reduced row-echelon form; that RREF matrix is the canonical
representation, so subspace equality and hashing are bit-exact comparisons
of the basis rows.  Every arithmetic step reduces mod p immediately.

There is one elimination, :func:`_echelon`: it inserts vectors one at a
time into a canonical RREF basis, optionally queueing more vectors each
time one enlarges the span (the bracket closures of ``liealg`` use this).
Every other answer is read from a block of such an echelon form:
:func:`rref` is the routine itself, :func:`kernel` the zero-left rows of
[M^T | I], :meth:`Subspace.intersect` the zero-left rows of [u | u] and
[w | 0], and ``liealg`` reads coordinates, and inverses with them, from
[rows | I].  :func:`_reduce` is the one reduction against such a form.

All objects are immutable after construction and all operations are pure
functions.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


class PrimeField:
    """Arithmetic context for the integers modulo a prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise TypeError("p must be an integer")
        if p > 2**31 - 1:
            raise ValueError("p must be at most 2^31 - 1")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class Subspace:
    """Row space of an RREF matrix over F_p.

    Construct through :func:`rref` or :func:`kernel`; the basis rows are
    already reduced and the pivot entries are 1.  Equality and hashing use
    the basis rows verbatim, so two Subspaces are equal iff they span the
    same space.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: PrimeField, ambient: int,
                 basis: tuple[tuple[int, ...], ...], pivots: tuple[int, ...]):
        self.field = field
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        """Number of member vectors, p**dim."""
        return self.field.p ** len(self.basis)

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field or self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambient spaces")

    def reduce(self, v) -> tuple[int, ...]:
        """Canonical representative of v modulo this subspace."""
        return tuple(_reduce(v, self.basis, self.pivots, self.field.p, self.ambient))

    def contains(self, v) -> bool:
        """True iff v lies in the row span."""
        return not any(self.reduce(v))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection, by Zassenhaus: the echelon of [u | u] for u in self
        and [w | 0] for w in other spans {[u + w | u]}, whose members with a
        zero left block have u = -w in both spaces.
        """
        self._check_compatible(other)
        zero = (0,) * self.ambient
        stacked = [u + u for u in self.basis] + [w + zero for w in other.basis]
        return _tail(_echelon(self.field, 2 * self.ambient, stacked), self.ambient)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field.p, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, p={self.field.p})"


def _reduce(v, rows, pivots, p: int, ambient: int) -> list[int]:
    """v mod p, reduced against RREF rows with the given pivot columns: the
    one reduction, shared by Subspace.reduce and _echelon."""
    if len(v) != ambient:
        raise ValueError(f"expected a vector of length {ambient}, got {len(v)}")
    v = [x % p for x in v]
    for row, col in zip(rows, pivots):
        if f := v[col]:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return v


def _echelon(field: PrimeField, ambient: int, vectors, grow=None) -> Subspace:
    """Canonical RREF subspace spanned by the vectors: the one elimination.

    Each vector, reduced against the basis so far, is dropped if nothing is
    left; otherwise it is scaled to a leading 1, cleared from the pivot
    column of every other row and inserted in pivot order, so the basis is
    canonical RREF after every insertion and is never reduced again.  When
    ``grow`` is given, ``grow(v, rows)`` is called with each such vector
    before it joins the rows, and the vectors it returns are queued too.  A
    span of dimension ``ambient`` is everything, so the routine stops there.
    """
    p = field.p
    rows, pivots = [], []
    stack = list(vectors)
    while stack and len(rows) < ambient:
        v = _reduce(stack.pop(), rows, pivots, p, ambient)
        c = next((c for c, x in enumerate(v) if x), None)
        if c is None:
            continue
        if grow is not None:
            stack.extend(grow(v, rows))
        if v[c] != 1:
            k = pow(v[c], -1, p)
            v = [k * x % p for x in v]
        for i, row in enumerate(rows):
            if f := row[c]:
                rows[i] = [(x - f * y) % p for x, y in zip(row, v)]
        at = bisect_left(pivots, c)
        rows.insert(at, v)
        pivots.insert(at, c)
    return Subspace(field, ambient, tuple(map(tuple, rows)), tuple(pivots))


def _tail(space: Subspace, start: int) -> Subspace:
    """The rows of an echelon form that are zero before column ``start``,
    cut to the columns from there on: again a canonical RREF basis."""
    k = bisect_left(space.pivots, start)
    return Subspace(space.field, space.ambient - start,
                    tuple(row[start:] for row in space.basis[k:]),
                    tuple(c - start for c in space.pivots[k:]))


def _beside_identity(rows, width: int, field: PrimeField) -> Subspace:
    """Echelon form of [rows | I] for rows of the given width."""
    eye = full_space(len(rows), field).basis
    return _echelon(field, width + len(rows), [tuple(r) + e for r, e in zip(rows, eye)])


def rref(rows, field: PrimeField, ambient: int | None = None) -> Subspace:
    """Canonical RREF subspace spanned by the given rows.

    ``ambient`` is only needed when ``rows`` is empty; otherwise it is
    inferred and cross-checked against every row.
    """
    rows = list(rows)
    if rows:
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("rows have unequal lengths")
        if ambient is not None and ambient != n:
            raise ValueError(f"rows have length {n}, expected {ambient}")
        ambient = n
    elif ambient is None:
        raise ValueError("ambient dimension required for an empty row list")
    return _echelon(field, ambient, rows)


def kernel(matrix, field: PrimeField, ncols: int | None = None) -> Subspace:
    """Null space {v : M v = 0} of an a-by-b matrix, as a Subspace of F_p^b.

    The echelon of [M^T | I] spans {[v M^T | v]}; its rows with a zero left
    block are [0 | v] for v in the kernel.
    """
    rows = list(matrix)
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("rows have unequal lengths")
        if ncols is not None and ncols != width:
            raise ValueError(f"matrix has {width} columns, expected {ncols}")
    elif ncols is None:
        raise ValueError("ncols required for an empty matrix")
    else:
        width = ncols
    columns = [tuple(row[j] for row in rows) for j in range(width)]
    return _tail(_beside_identity(columns, len(rows), field), len(rows))


def zero_space(n: int, field: PrimeField) -> Subspace:
    return Subspace(field, n, (), ())


def full_space(n: int, field: PrimeField) -> Subspace:
    basis = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return Subspace(field, n, basis, tuple(range(n)))
