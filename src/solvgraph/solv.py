"""Solvabilizer machinery over one plane table per algebra.

The subalgebra generated by x and y depends only on the plane span{x, y}.
plane_table() records, per projective line, which lines share a solvable
plane with it: the line's row.  sol_L(x) is 0 and the lines of x's row, so
sol(L), every solvabilizer's size, the conjecture sum, the S-property and
the solvable graph are read off rows; elements() expands a row to element
indices only where a query returns them.

Coset decomposition: let N be a solvable ideal and pi: L -> Q = L/N the
projection.  For a subalgebra K, K meet N is solvable and
K/(K meet N) is isomorphic to pi(K), so K is solvable iff pi(K) is.  As
pi<x, y> = <pi x, pi y>, the pair x, y generates a solvable subalgebra iff
pi x, pi y do in Q.  So plane_table() classifies the planes of Q, not of L:
it takes N = liealg.solvable_ideal(L), which is L when L is solvable and
the center otherwise, and lifts Q's table to L's lines.  Only an algebra
with zero center that is not solvable has its own planes enumerated, each
once, directly in reduced row-echelon form, and classified by their
closures with the verdict of pair_solvable.  A closure that reaches dim L
is not solvable and one of dimension at most 2 is, neither with a derived
series; a solvable closure marks all of its lines pairwise adjacent, and a
later plane whose two RREF rows' lines are already adjacent lies inside it
and runs no closure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .ffalg import Subspace, rref
from .liealg import (
    LieAlgebra,
    LinearMap,
    centralizer,
    is_ideal,
    is_lie_automorphism,
    is_solvable,
    quotient,
    require_enumerable,
    solvable_ideal,
    subalgebra_closure,
)


def pair_solvable(L: LieAlgebra, x, y) -> bool:
    """True iff the subalgebra generated by x and y is solvable."""
    return is_solvable(L, subalgebra_closure(L, [x, y]))


def _rref_planes(n: int, p: int):
    """Every two-dimensional subspace of F_p^n once, as its RREF rows (r1, r2).

    The leading ones sit at columns c1 < c2; r1 is zero at c2, and the
    entries after each leading one are otherwise free.  That gives the
    Gaussian binomial [n 2]_p pairs.
    """
    for c1 in range(n):
        for c2 in range(c1 + 1, n):
            cut = c2 - c1 - 1
            for v1 in product(range(p), repeat=n - 2 - c1):
                r1 = (0,) * c1 + (1,) + v1[:cut] + (0,) + v1[cut:]
                for v2 in product(range(p), repeat=n - 1 - c2):
                    yield r1, (0,) * c2 + (1,) + v2


def plane_table(L: LieAlgebra, force: bool = False) -> tuple[int, ...]:
    """The plane table nbr of L, built on first use and kept on L.

    nbr[l] is the neighbor bitset of line l, in the line numbering of
    LieAlgebra.line: bit m is set iff lines l and m lie in a solvable
    plane, and every line sees itself.  Every call checks the enumeration
    cap, also when the table is already built, so each query that reads the
    table is refused over the cap unless forced.

    The table is lifted from the one of Q = L/N, with N =
    liealg.solvable_ideal(L) (see the module docstring).  A line inside N
    sees every line.  Any other line l sees the lines of N and every line
    over a Q-line that sees pi(l); that includes the lines over pi(l)
    itself, as two dependent projections generate a subalgebra of
    dimension at most 1, which is solvable.  Q's table is built the same
    way, so the recursion ends at an algebra with zero center that is not
    solvable, whose planes are classified directly.
    """
    require_enumerable(L, force)
    if L._plane_table is None:
        N = solvable_ideal(L)
        L._plane_table = tuple(_lifted_rows(L, N) if N.dim else _classified_rows(L))
    return L._plane_table


def _classified_rows(L: LieAlgebra) -> list[int]:
    """Neighbor bitsets of L's lines, from the closures of L's planes.

    plane_table calls this only when solvable_ideal(L) is 0, so L is not
    solvable (or L = 0, which has no planes).  A plane is solvable iff its
    closure S is, and S needs no derived series at either end: S = L is
    not solvable, and a closure of dimension at most 2 is.  The closure
    stops as soon as it reaches dim L.

    When S is solvable, so is every subalgebra of S, and with it the plane
    of every pair of S's lines: all of S's lines are marked pairwise
    adjacent.  Two lines span one plane, so a plane whose RREF rows' lines
    are already adjacent lies in an S found earlier: it is solvable and its
    lines are marked, and it is skipped without a closure.
    """
    nbr = [1 << l for l in range(L.line_count)]
    for r1, r2 in _rref_planes(L.dim, L.field.p):
        if nbr[L.line(r1)] >> L.line(r2) & 1:
            continue
        S = subalgebra_closure(L, (r1, r2))
        if S.dim < L.dim and (S.dim <= 2 or is_solvable(L, S)):
            mask = _span_lines(L, S.basis)
            for l in bits(mask):
                nbr[l] |= mask
    return nbr


def _span_lines(L: LieAlgebra, basis) -> int:
    """Bitset of the lines of span(basis), one vector per line: b_k plus a
    combination of the b_i before it (coefficients whose last nonzero entry
    is 1), so the span's own elements are never listed."""
    p, below, reps = L.field.p, [L.zero()], []
    for k, b in enumerate(basis):
        if k:
            prev = basis[k - 1]
            below = [[(x + t * y) % p for x, y in zip(u, prev)] for u in below for t in range(p)]
        reps += [[x + y for x, y in zip(u, b)] for u in below]
    return _lines_through(L, reps)


def _lifted_rows(L: LieAlgebra, N: Subspace) -> list[int]:
    """Neighbor bitsets of L's lines, lifted from the table of L/N."""
    Q, project, _ = quotient(L, N)
    q_nbr = plane_table(Q, force=True)
    in_n = 0
    over = [0] * len(q_nbr)  # the L-lines over each Q-line
    q_lines = []
    for l in range(L.line_count):
        w = project(L.vector(L.line_rep(l)))
        ql = Q.line(w) if any(w) else -1  # -1: the line lies in N
        q_lines.append(ql)
        if ql < 0:
            in_n |= 1 << l
        else:
            over[ql] |= 1 << l
    full = (1 << len(q_lines)) - 1
    lifted = [in_n | sum(over[k] for k in bits(row)) for row in q_nbr]
    return [full if ql < 0 else lifted[ql] for ql in q_lines]


def bits(mask: int):
    """Yield the positions of the set bits of a nonnegative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def elements(L: LieAlgebra, mask: int) -> list[int]:
    """Sorted indices of the elements on the lines of a line bitset (0 is on none)."""
    return sorted(m for l in bits(mask) for m in L.line_members(l))


def _row(L: LieAlgebra, x, force: bool = False) -> int:
    """x's row: the lines y with <x, y> solvable, all of them at x = 0."""
    x = L.element(x)
    nbr = plane_table(L, force)
    return nbr[L.line(x)] if any(x) else (1 << len(nbr)) - 1


def _size(L: LieAlgebra, row: int) -> int:
    """Number of elements in 0 and the lines of a row, p - 1 per line."""
    return 1 + (L.field.p - 1) * row.bit_count()


def _reps(L: LieAlgebra, row: int) -> list[tuple[int, ...]]:
    """One vector per line of a row: the line's smallest member."""
    return [L.vector(L.line_rep(l)) for l in bits(row)]


def _lines_through(L: LieAlgebra, vectors) -> int:
    """Bitset of the lines through those vectors that are nonzero mod p."""
    return sum(1 << l for l in {L.line(v) for v in vectors if L.index(v)})


def _is_subspace(L: LieAlgebra, row: int) -> tuple[bool, Subspace]:
    """Whether 0 and the lines of a row form a subspace, and their span.  The
    span of one vector per line holds the set: they are equal iff
    p^dim = 1 + (p - 1)|row|."""
    span = rref(_reps(L, row), L.field, ambient=L.dim)
    return span.size == _size(L, row), span


def solvabilizer(L: LieAlgebra, x, force: bool = False) -> tuple[int, ...]:
    """Sorted indices of all y in L with <x, y> solvable: 0 and the lines of x's row."""
    return (0, *elements(L, _row(L, x, force)))


def solvabilizer_set(L: LieAlgebra, A, B) -> tuple[int, ...]:
    """Members of A that generate a solvable subalgebra with every member of B.

    A and B are iterables of element indices; one outside 0 .. |L| - 1
    raises ValueError.  An empty A gives the empty set; an empty B imposes
    no constraint and gives all of A.
    """
    nbr = plane_table(L)

    def line(m):
        if not 0 <= m < L.size:
            raise ValueError(f"element index {m} is outside 0 .. |L| - 1, |L| = {L.size}")
        return L.line(L.vector(m))
    need = sum(1 << l for l in {line(b) for b in B if b})
    return tuple(a for a in sorted(set(A)) if a == 0 or nbr[line(a)] & need == need)


def sol_of_algebra(L: LieAlgebra, force: bool = False) -> tuple[int, ...]:
    """Sorted indices of the elements generating a solvable subalgebra with
    all of L: 0 and the lines whose row holds every line."""
    return (0, *elements(L, sol_lines(plane_table(L, force))))


def sol_lines(nbr) -> int:
    """Bitset of the lines whose plane-table row holds every line: sol(L)."""
    full = (1 << len(nbr)) - 1
    return sum(1 << l for l, row in enumerate(nbr) if row == full)


def _failing_line(L: LieAlgebra, force: bool = False) -> int | None:
    """The first line whose solvabilizer is not a subalgebra, or None: the
    S-verdict alone.  A solvabilizer is fixed by its line's row, so each
    distinct row is examined once, by _is_subspace and the span's closure.
    """
    passed = set()
    for l, row in enumerate(plane_table(L, force)):
        if row in passed:
            continue
        closed, span = _is_subspace(L, row)
        if not (closed and subalgebra_closure(L, span.basis) == span):
            return l
        passed.add(row)
    return None


def is_s_lie(L: LieAlgebra, force: bool = False):
    """Test whether every per-element solvabilizer is a subalgebra.

    Returns (True, None), or (False, (x, a, b)) where a and b both lie in
    the solvabilizer of x but a + b or [a, b] does not: x is the smallest
    member of _failing_line, and (a, b) the first failing pair in
    element-index order.  The witness is read off that line's row: v lies
    in x's solvabilizer iff v = 0 or the row holds L.line(v).

    The row is closed under nonzero scaling, so whether a member a fails
    with some member depends only on a's line, and a is the smallest
    member of the lowest failing line of the row.  A member s r, with r
    its line's smallest member, fails with a iff [a, r] or a + s r lies
    outside; s r ascends in index with s, so each line offers s r at its
    smallest failing s, and b is the one of these with the smallest index.
    """
    l = _failing_line(L, force)
    if l is None:
        return True, None
    p, row = L.field.p, plane_table(L, force)[l]

    def outside(v):
        return any(v) and not row >> L.line(v) & 1

    def first_failing(a, r):
        if outside(L.bracket(a, r)):
            return 1
        return next((s for s in range(1, p)
                     if outside(L.element([x + s * y for x, y in zip(a, r)]))), None)

    reps = _reps(L, row)
    for a in reps:
        failing = [L.element([s * y for y in r]) for r in reps if (s := first_failing(a, r))]
        if failing:
            return False, (L.vector(L.line_rep(l)), a, min(failing, key=L.index))
    raise AssertionError("subspace test failed but no witness pair found")


class ConjectureResult(NamedTuple):
    total: int
    order: int
    divisible: bool
    quotient: int | Fraction


def conjecture_sum(L: LieAlgebra, force: bool = False) -> ConjectureResult:
    """Sum of |sol_L(x)| over all x of L, and its divisibility by |L|.

    The summand is |L| at x = 0, and the size of line l's row at each of
    the p - 1 elements of l.
    """
    total = L.size + (L.field.p - 1) * sum(_size(L, row) for row in plane_table(L, force))
    q, r = divmod(total, L.size)
    return ConjectureResult(total, L.size, r == 0,
                            q if r == 0 else Fraction(total, L.size))


class DivisibilityReport(NamedTuple):
    """Size and coset facts about one solvabilizer.

    sol_divides is None when sol(L) is not additively closed, and
    centralizer_divides is None when some solvabilizer of L fails to be a
    subalgebra; both divisibility statements need those hypotheses.
    """
    element_index: int
    sol_size: int
    p_divides: bool
    sol_of_algebra_size: int
    sol_divides: bool | None
    centralizer_size: int
    centralizer_divides: bool | None
    coset_closed: bool


def divisibility_report(L: LieAlgebra, x, force: bool = False) -> DivisibilityReport:
    """Compute |sol_L(x)| and check the divisibility and coset properties.

    All of it is read off x's row and the row of sol(L).  The coset test
    (sol_L(x) + t x = sol_L(x) for t != 0) checks r + t x for one vector r
    per line of the row: a multiple s r gives s r + t x = s (r + (t/s) x),
    0 or on the line of a checked sum, and 0 + t x is 0 or on x's line.
    """
    p, x = L.field.p, L.element(x)
    row = _row(L, x, force)
    size = _size(L, row)
    sol = sol_lines(plane_table(L, force))
    sol_divides = (size % _size(L, sol) == 0) if _is_subspace(L, sol)[0] else None
    cent_size = centralizer(L, x).size
    cent_divides = (size % cent_size == 0) if _failing_line(L, force) is None else None
    sums = [[a + t * b for a, b in zip(r, x)] for r in _reps(L, row) for t in range(1, p)]
    return DivisibilityReport(
        element_index=L.index(x),
        sol_size=size,
        p_divides=size % p == 0,
        sol_of_algebra_size=_size(L, sol),
        sol_divides=sol_divides,
        centralizer_size=cent_size,
        centralizer_divides=cent_divides,
        coset_closed=_lines_through(L, sums) | row == row,
    )


def equivariance_check(L: LieAlgebra, phi: LinearMap, x,
                       force: bool = False) -> bool:
    """True iff the phi-image of sol_L(x) equals sol_L(phi(x)) as a set.  As
    phi is linear and bijective, that image is 0 and the lines through the
    images of one vector per line of x's row."""
    if not is_lie_automorphism(L, phi):
        raise ValueError("map is not a Lie algebra automorphism")
    row = _row(L, x, force)
    return _lines_through(L, map(phi.apply, _reps(L, row))) == _row(L, phi.apply(x), force)


def quotient_compatibility_check(L: LieAlgebra, N: Subspace,
                                 force: bool = False) -> bool:
    """Check that solvabilizers project onto those of L/N, with matching sizes.

    N must be a solvable ideal contained in sol(L).  Verifies, for every
    element x, that the projection of sol_L(x) equals the solvabilizer of
    the projection of x, that |sol_L(x)| = |N| * |sol_(L/N)(pi(x))|, and
    that L and L/N agree on whether every solvabilizer is a subalgebra.
    As sol_L(tx) = sol_L(x) and pi(tx) = t pi(x), 0 and one element per
    line stand for all; pi(sol_L(x)) is 0 and the lines through the
    projections of one vector per line of x's row.
    """
    if not is_ideal(L, N):
        raise ValueError("N is not an ideal")
    if not is_solvable(L, N):
        raise ValueError("N is not solvable")
    if _span_lines(L, N.basis) & ~sol_lines(plane_table(L, force)):
        raise ValueError("N is not contained in sol(L)")

    Q, project, _ = quotient(L, N)
    for x in [L.zero()] + _reps(L, (1 << L.line_count) - 1):
        row, q_row = _row(L, x, force), _row(Q, project(x), force)
        if (_lines_through(Q, map(project, _reps(L, row))) != q_row
                or _size(L, row) != N.size * _size(Q, q_row)):
            return False
    return (_failing_line(L, force) is None) == (_failing_line(Q, force) is None)
