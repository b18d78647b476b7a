"""Exact linear algebra over prime fields F_p.

Vectors are tuples of residues in ``range(p)``.  A :class:`Subspace` keeps
its basis in reduced row-echelon form; that RREF matrix is the canonical
representation, so subspace equality and hashing are bit-exact comparisons
of the basis rows.  Every arithmetic step reduces mod p immediately.

All objects are immutable after construction and all operations are pure
functions.
"""

from __future__ import annotations

from itertools import product
from math import isqrt


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, isqrt(p) + 1):
        if p % d == 0:
            return False
    return True


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

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse; ZeroDivisionError for a multiple of p."""
        if a % self.p == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def _rref_raw(rows: list[list[int]], field: PrimeField):
    """In-place Gauss-Jordan elimination; returns (rref rows, pivot columns)."""
    p = field.p
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        head = rows[r][c]
        if head != 1:
            k = field.inv(head)
            rows[r] = [(k * x) % p for x in rows[r]]
        lead = rows[r]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


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

    def is_zero(self) -> bool:
        return not self.basis

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field or self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambient spaces")

    def reduce(self, v) -> tuple[int, ...]:
        """Canonical representative of v modulo this subspace."""
        if len(v) != self.ambient:
            raise ValueError(f"expected a vector of length {self.ambient}, got {len(v)}")
        p = self.field.p
        out = [x % p for x in v]
        for row, c in zip(self.basis, self.pivots):
            f = out[c]
            if f:
                out = [(x - f * y) % p for x, y in zip(out, row)]
        return tuple(out)

    def contains(self, v) -> bool:
        """True iff v lies in the row span."""
        return not any(self.reduce(v))

    def sum(self, other: "Subspace") -> "Subspace":
        """Smallest subspace containing both operands."""
        self._check_compatible(other)
        return rref(self.basis + other.basis, self.field, ambient=self.ambient)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection, via the kernel of the stacked bases.

        A combination sum(u_i a_i) = -sum(w_j b_j) lies in both row spaces,
        and every intersection vector arises this way.
        """
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return zero_space(self.ambient, self.field)
        stacked = self.basis + other.basis
        transposed = [tuple(row[c] for row in stacked) for c in range(self.ambient)]
        ker = kernel(transposed, self.field, ncols=len(stacked))
        p = self.field.p
        r1 = len(self.basis)
        vecs = []
        for z in ker.basis:
            v = [0] * self.ambient
            for cf, row in zip(z[:r1], self.basis):
                if cf:
                    v = [(x + cf * y) % p for x, y in zip(v, row)]
            vecs.append(tuple(v))
        return rref(vecs, self.field, ambient=self.ambient)

    def elements(self):
        """Yield all p**dim member vectors (coefficient order, deterministic)."""
        p = self.field.p
        for coeffs in product(range(p), repeat=len(self.basis)):
            v = [0] * self.ambient
            for cf, row in zip(coeffs, self.basis):
                if cf:
                    v = [(x + cf * y) % p for x, y in zip(v, row)]
            yield tuple(v)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field.p, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, p={self.field.p})"


def rref(rows, field: PrimeField, ambient: int | None = None) -> Subspace:
    """Canonical RREF subspace spanned by the given rows.

    ``ambient`` is only needed when ``rows`` is empty; otherwise it is
    inferred and cross-checked against every row.
    """
    rows = [list(int(x) % field.p for x in row) for row in rows]
    if rows:
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("rows have unequal lengths")
        if ambient is not None and ambient != n:
            raise ValueError(f"rows have length {n}, expected {ambient}")
        ambient = n
    elif ambient is None:
        raise ValueError("ambient dimension required for an empty row list")
    basis, pivots = _rref_raw(rows, field)
    return Subspace(field, ambient, tuple(tuple(r) for r in basis), tuple(pivots))


def kernel(matrix, field: PrimeField, ncols: int | None = None) -> Subspace:
    """Null space {v : M v = 0} of an a-by-b matrix, as a Subspace of F_p^b."""
    rows = [list(int(x) % field.p for x in row) for row in matrix]
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
    basis, pivots = _rref_raw(rows, field)
    pivot_set = set(pivots)
    p = field.p
    vecs = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = [0] * width
        v[free] = 1
        for row, pc in zip(basis, pivots):
            v[pc] = (-row[free]) % p
        vecs.append(tuple(v))
    return rref(vecs, field, ambient=width)


def zero_space(n: int, field: PrimeField) -> Subspace:
    return Subspace(field, n, (), ())


def full_space(n: int, field: PrimeField) -> Subspace:
    basis = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return Subspace(field, n, basis, tuple(range(n)))
