"""Solvabilizer machinery over one plane table per algebra.

The subalgebra generated by x and y depends only on the plane span{x, y}.
plane_table() records, per projective line, which lines share a solvable
plane with it: the line's row.  sol_L(x) is 0 and the lines of x's row, so
sol(L), every solvabilizer's size, the conjecture sum, the S-property and
the solvable graph are read off rows.  sol_of_algebra answers with a line
bitset and is_s_lie with a verdict; elements() expands a row to element
indices only for solvabilizer, the one query that returns them.

Coset decomposition: let N be a solvable ideal and pi: L -> Q = L/N the
projection.  For a subalgebra K, K meet N is solvable and
K/(K meet N) is isomorphic to pi(K), so K is solvable iff pi(K) is.  As
pi<x, y> = <pi x, pi y>, the pair x, y generates a solvable subalgebra iff
pi x, pi y do in Q.  So plane_table() classifies the planes of Q, not of L:
it takes N = liealg.solvable_ideal(L), which is L when L is solvable and
the center otherwise, and lifts Q's table to L's lines; N and Q are kept on
L, and N = L makes every row full with no Q at all.  Only an algebra
with zero center that is not solvable has its own planes enumerated, each
once, directly in reduced row-echelon form, and classified by
liealg.is_solvable on their closures, the verdict pair_solvable reads too;
a solvable closure marks all of its lines pairwise adjacent, and a later
plane whose two RREF rows' lines are already adjacent lies inside it and
runs no closure.  A row's S-verdict, whether 0 and its lines form a
subalgebra, is one closure of its lines (see _failing_line).
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from .ffalg import Subspace, rref
from .liealg import (
    LieAlgebra,
    LinearMap,
    _ideal_quotient,
    centralizer,
    is_ideal,
    is_lie_automorphism,
    is_solvable,
    quotient,
    require_enumerable,
    solvable_ideal,
    subalgebra_closure,
)

if TYPE_CHECKING:
    from fractions import Fraction


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
    solvable, whose planes are classified directly.  N and L/N are the ones
    kept on L (liealg.solvable_ideal), and when N = L every row is full,
    with no L/N built and no line projected.
    """
    require_enumerable(L, force)
    if L._plane_table is None:
        N = solvable_ideal(L)
        if N.dim == L.dim:
            L._plane_table = ((1 << L.line_count) - 1,) * L.line_count
        else:
            L._plane_table = tuple(_lifted_rows(L) if N.dim else _classified_rows(L))
    return L._plane_table


def _classified_rows(L: LieAlgebra) -> list[int]:
    """Neighbor bitsets of L's lines, from the closures of L's planes.

    plane_table calls this only when solvable_ideal(L) is 0, so L is not
    solvable (or L = 0, which has no planes).  A plane is solvable iff its
    closure S is, and S goes to is_solvable as it is: that verdict runs no
    derived series when S is L (known not to be solvable) or of dimension
    at most 2.  The closure stops as soon as it reaches dim L.

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
        if is_solvable(L, S):
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


def _lifted_rows(L: LieAlgebra) -> list[int]:
    """Neighbor bitsets of L's lines, lifted from the table of L/N."""
    Q, project, _ = _ideal_quotient(L)
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


def row_size(L: LieAlgebra, row: int) -> int:
    """Number of elements in 0 and the lines of a row, p - 1 per line."""
    return 1 + (L.field.p - 1) * row.bit_count()


def _reps(L: LieAlgebra, row: int) -> list[tuple[int, ...]]:
    """One vector per line of a row: the line's smallest member."""
    return [L.vector(L.line_rep(l)) for l in bits(row)]


def _lines_through(L: LieAlgebra, vectors) -> int:
    """Bitset of the lines through those vectors that are nonzero mod p."""
    return sum(1 << l for l in {L.line(v) for v in vectors if L.index(v)})


def solvabilizer(L: LieAlgebra, x, force: bool = False) -> tuple[int, ...]:
    """Sorted indices of all y in L with <x, y> solvable: 0 and the lines of x's row."""
    return (0, *elements(L, _row(L, x, force)))


def solvabilizer_set(L: LieAlgebra, A, B) -> tuple[int, ...]:
    """Members of A that generate a solvable subalgebra with every member of B.

    No command calls it; it is public as the paper's solvabilizer of a
    set, whose set identities the acceptance tests check.  A and B are
    iterables of element indices; one outside 0 .. |L| - 1 raises
    ValueError.  An empty A gives the empty set; an empty B imposes
    no constraint and gives all of A.
    """
    nbr = plane_table(L)

    def line(m):
        if not 0 <= m < L.size:
            raise ValueError(f"element index {m} is outside 0 .. |L| - 1, |L| = {L.size}")
        return L.line(L.vector(m))
    need = sum(1 << l for l in {line(b) for b in B if b})
    return tuple(a for a in sorted(set(A)) if a == 0 or nbr[line(a)] & need == need)


def sol_of_algebra(L: LieAlgebra, force: bool = False) -> int:
    """sol(L), the elements generating a solvable subalgebra with all of L,
    as a line bitset: 0 and the lines whose row holds every line.
    row_size gives |sol(L)|, and elements its members."""
    return sol_lines(plane_table(L, force))


def sol_lines(nbr) -> int:
    """Bitset of the lines whose plane-table row holds every line: sol(L)."""
    full = (1 << len(nbr)) - 1
    return sum(1 << l for l, row in enumerate(nbr) if row == full)


def _failing_line(L: LieAlgebra, force: bool = False) -> int | None:
    """The first line whose solvabilizer is not a subalgebra, or None: the
    S-verdict alone.  A solvabilizer is fixed by its line's row, so each
    distinct row is examined once, by one closure of its lines: the set X,
    0 and the row's lines, lies in the subalgebra that one vector per line
    generates, so X is a subalgebra iff the two have the same size.  A full
    row's set is L, a subalgebra, and passes with no closure.
    """
    passed = {(1 << L.line_count) - 1}
    for l, row in enumerate(plane_table(L, force)):
        if row in passed:
            continue
        if subalgebra_closure(L, _reps(L, row)).size != row_size(L, row):
            return l
        passed.add(row)
    return None


def is_s_lie(L: LieAlgebra, force: bool = False) -> bool:
    """True iff every per-element solvabilizer is a subalgebra: the
    S-verdict alone, with no witness search (see _failing_line)."""
    return _failing_line(L, force) is None


def s_lie_witness(L: LieAlgebra, force: bool = False):
    """A witness that L is not an S-Lie algebra, or None when it is.

    The witness is (x, a, b), where a and b both lie in the solvabilizer of
    x but a + b or [a, b] does not: x is the smallest member of
    _failing_line, and (a, b) the first failing pair in element-index
    order.  It is read off that line's row: v lies in x's solvabilizer iff
    v = 0 or the row holds L.line(v).

    The row is closed under nonzero scaling, so whether a member a fails
    with some member depends only on a's line, and a is the smallest
    member of the lowest failing line of the row.  A member s r, with r
    its line's smallest member, fails with a iff [a, r] or a + s r lies
    outside; s r ascends in index with s, so each line offers s r at its
    smallest failing s, and b is the one of these with the smallest index.
    """
    l = _failing_line(L, force)
    if l is None:
        return None
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
            return L.vector(L.line_rep(l)), a, min(failing, key=L.index)
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
    total = L.size + (L.field.p - 1) * sum(row_size(L, row) for row in plane_table(L, force))
    q, r = divmod(total, L.size)
    if r == 0:
        return ConjectureResult(total, L.size, True, q)
    from fractions import Fraction  # here, so a divisible sum never loads fractions and decimal
    return ConjectureResult(total, L.size, False, Fraction(total, L.size))


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
    sol(L) is a subspace iff the span of one vector per line holds no more
    than its 1 + (p - 1)|sol| elements.  A row of every line is L itself,
    a subspace closed under any coset, so sol(L) = L is not spanned and a
    full row forms no sums.
    """
    p, x = L.field.p, L.element(x)
    full = (1 << L.line_count) - 1
    row = _row(L, x, force)
    size = row_size(L, row)
    sol = sol_of_algebra(L, force)
    sol_closed = sol == full or rref(_reps(L, sol), L.field, ambient=L.dim).size == row_size(L, sol)
    sol_divides = (size % row_size(L, sol) == 0) if sol_closed else None
    cent_size = centralizer(L, x).size
    cent_divides = (size % cent_size == 0) if is_s_lie(L, force) else None
    coset_closed = row == full
    if not coset_closed:
        sums = [[a + t * b for a, b in zip(r, x)] for r in _reps(L, row) for t in range(1, p)]
        coset_closed = _lines_through(L, sums) | row == row
    return DivisibilityReport(
        element_index=L.index(x),
        sol_size=size,
        p_divides=size % p == 0,
        sol_of_algebra_size=row_size(L, sol),
        sol_divides=sol_divides,
        centralizer_size=cent_size,
        centralizer_divides=cent_divides,
        coset_closed=coset_closed,
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

    N must be a solvable ideal.  It then lies in sol(L) with no check of
    its own: N lies in rad(L), and rad(L) lies in sol(L), for with r in
    rad(L) and any x, F x + rad(L) is a subalgebra whose solvable ideal
    rad(L) has an abelian quotient of dimension at most 1, so it is a
    solvable subalgebra holding x and r.  Verifies, for every
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

    Q, project, _ = quotient(L, N)
    for x in [L.zero()] + _reps(L, (1 << L.line_count) - 1):
        row, q_row = _row(L, x, force), _row(Q, project(x), force)
        if (_lines_through(Q, map(project, _reps(L, row))) != q_row
                or row_size(L, row) != N.size * row_size(Q, q_row)):
            return False
    return is_s_lie(L, force) == is_s_lie(Q, force)
