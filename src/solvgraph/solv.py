"""Solvabilizer machinery over one plane table per algebra.

The subalgebra generated by x and y depends only on the plane span{x, y}.
plane_table() records, per projective line, which lines share a solvable
plane with it: the line's row.  sol_L(x) is 0 and the lines of x's row, so
sol(L), the S-property and the solvable graph are read off rows, a
solvabilizer's size off its row's size, and the conjecture sum and the
graph's degrees off the multiset of row sizes (see row_sizes).
sol_of_algebra answers with a line bitset and is_s_lie with a verdict;
elements() expands a row to element indices only for solvabilizer, the
one query that returns them.

Coset decomposition: for a solvable ideal N, L's table is the lift of the
table of Q = L/N (the lift lemma, see _lift).  So plane_table() classifies
the planes of Q, not of L: it takes the largest solvable ideal,
N = rad(L) = liealg.radical(L), and lifts Q's table to L's lines, once.
rad(Q) is 0, as an extension of a solvable algebra by a solvable one is
solvable, so Q's planes are classified directly and nothing recurses.
radical finds N and keeps N and Q on L, and N = L makes every row full
with no Q at all.  Only an algebra whose radical is 0 has its own planes
enumerated, each once, directly in reduced row-echelon form.  In
dimension 3 a plane is solvable iff it is closed under its one bracket; in
higher dimension it is classified by liealg.is_solvable on its closure,
the verdict pair_solvable reads too, a solvable closure marks all of its
lines pairwise adjacent, and a later plane whose two RREF rows' lines are
already adjacent lies inside it and runs no closure.  A row's S-verdict,
whether 0 and its lines form a subalgebra, is one closure of its lines
(see _failing_line).
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .ffalg import rref
from .liealg import (
    LieAlgebra,
    LinearMap,
    centralizer,
    is_lie_automorphism,
    is_solvable,
    radical,
    require_enumerable,
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

    The table is lifted once from the one of Q = L/rad(L), with rad(L)
    and Q the ones liealg.radical found and kept on L (see the module
    docstring).  When rad(L) = L every row is full, with no Q built and no
    line projected; when rad(L) = 0, L's planes are classified directly.
    """
    require_enumerable(L, force)
    if L._plane_table is None:
        N = radical(L, force=True)
        if N.dim == L.dim:
            L._plane_table = ((1 << L.line_count) - 1,) * L.line_count
        else:
            L._plane_table = tuple(_lift(L, *L._quotient) if N.dim else _classified_rows(L))
    return L._plane_table


def _classified_rows(L: LieAlgebra) -> list[int]:
    """Neighbor bitsets of L's lines, from the verdicts on L's planes.

    plane_table calls this only when rad(L) is 0, so L is not solvable (or
    L = 0, which has no planes), and its verdict is kept on L.

    When dim L = 3, a plane (r1, r2) is classified by one bracket: if
    [r1, r2] reduces to 0 against the two rows, the plane is a subalgebra,
    its own closure, and solvable, as every algebra of dimension 2 is;
    otherwise r1, r2 and [r1, r2] span L, so the closure is L, which is
    not solvable, as rad(L) = 0.  No closure, verdict or line lookup runs.

    In higher dimension a plane is solvable iff its closure S is, and S
    goes to is_solvable as it is: that verdict runs no derived series when
    S is L (read off rad(L)) or of dimension at most 2.  The closure stops
    as soon as it reaches dim L.  When S is solvable, so is every
    subalgebra of S, and with it the plane of every pair of S's lines: all
    of S's lines are marked pairwise adjacent.  Two lines span one plane,
    so a plane whose RREF rows' lines are already adjacent lies in an S
    found earlier: it is solvable and its lines are marked, and it is
    skipped without a closure.
    """
    nbr = [1 << l for l in range(L.line_count)]

    def mark(basis):
        mask = _span_lines(L, basis)
        for l in bits(mask):
            nbr[l] |= mask

    p = L.field.p
    for r1, r2 in _rref_planes(L.dim, p):
        if L.dim == 3:
            # r1 is 0 at r2's pivot and r2 at r1's, so [r1, r2] lies in the
            # plane iff it is its entry at r1's pivot times r1 plus its
            # entry at r2's pivot times r2
            b = L.bracket(r1, r2)
            f1, f2 = b[r1.index(1)], b[r2.index(1)]
            if all((f1 * x + f2 * y) % p == z for x, y, z in zip(r1, r2, b)):
                mark((r1, r2))
        elif not nbr[L.line(r1)] >> L.line(r2) & 1:
            S = subalgebra_closure(L, (r1, r2))
            if is_solvable(L, S):
                mark(S.basis)
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


def _lift(L: LieAlgebra, Q: LieAlgebra, project) -> list[int]:
    """Neighbor bitsets of L's lines, lifted from the table of Q = L/N for
    a solvable ideal N, with project the projection pi: L -> Q.

    The lift lemma: x and y generate a solvable subalgebra of L iff pi x
    and pi y generate one of Q.  For a subalgebra K, K meet N is solvable
    and K/(K meet N) is isomorphic to pi(K), so K is solvable iff pi(K)
    is, and pi<x, y> = <pi x, pi y>.  So a line inside N sees every line,
    and any other line l sees the lines of N and every line over a Q-line
    that sees pi(l); that includes the lines over pi(l) itself, as two
    dependent projections generate a subalgebra of dimension at most 1,
    which is solvable.  x's row is the full preimage of pi x's row.
    """
    q_nbr = plane_table(Q, force=True)
    over = [0] * (len(q_nbr) + 1)  # the L-lines over each Q-line, then those in N
    q_lines = []
    for l in range(L.line_count):
        w = project(L.vector(L.line_rep(l)))
        ql = Q.line(w) if any(w) else -1  # -1: the line lies in N
        q_lines.append(ql)
        over[ql] |= 1 << l
    lifted = [over[-1] | sum(over[k] for k in bits(row)) for row in q_nbr]
    lifted.append((1 << L.line_count) - 1)  # a line in N sees every line
    return [lifted[ql] for ql in q_lines]


def bits(mask: int):
    """Yield the positions of the set bits of a nonnegative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _line_bitset(L: LieAlgebra, mask: int) -> int:
    """mask itself; ValueError if it is negative or holds a bit past the
    last line."""
    if mask < 0 or mask >> L.line_count:
        raise ValueError(f"line bitset holds bits outside lines 0..{L.line_count - 1}")
    return mask


def elements(L: LieAlgebra, mask: int) -> list[int]:
    """Sorted indices of the elements on the lines of a line bitset (0 is on
    none); ValueError as _line_bitset."""
    return sorted(m for l in bits(_line_bitset(L, mask)) for m in L.line_members(l))


def _row(L: LieAlgebra, x, force: bool = False) -> int:
    """x's row: the lines y with <x, y> solvable, all of them at x = 0."""
    x = L.element(x)
    nbr = plane_table(L, force)
    return nbr[L.line(x)] if any(x) else (1 << len(nbr)) - 1


def row_size(L: LieAlgebra, row: int) -> int:
    """Number of elements in 0 and the lines of a row, p - 1 per line;
    ValueError as _line_bitset."""
    return 1 + (L.field.p - 1) * _line_bitset(L, row).bit_count()


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
    need = sum(1 << l for l in {L.line(L.vector(b)) for b in B if b})
    return tuple(a for a in sorted(set(A)) if a == 0 or nbr[L.line(L.vector(a))] & need == need)


def sol_of_algebra(L: LieAlgebra, force: bool = False) -> int:
    """sol(L), the elements generating a solvable subalgebra with all of L,
    as a line bitset: 0 and the lines whose row holds every line.
    row_size gives |sol(L)|, and elements its members."""
    return sol_lines(plane_table(L, force))


def sol_lines(nbr) -> int:
    """Bitset of the lines whose plane-table row holds every line: sol(L)."""
    full = (1 << len(nbr)) - 1
    return sum(1 << l for l, row in enumerate(nbr) if row == full)


def row_sizes(nbr) -> Counter:
    """The row-size multiset of a plane table: {k: n_k}, with n_k the
    number of lines whose row holds k lines.  The conjecture sum and the
    graph's degree sequence and edge count are read off it.

    Lemma: the table is symmetric, and the lines of sol(L) have full rows,
    so every row holds them; let s be their number, so |sol(L)| is
    1 + (p - 1)s.  Then a vertex on a line whose row holds k lines has
    degree (p - 1)(k - s) - 1: the vertices on the row's k - s lines
    outside sol(L), itself excluded (see graph.SolvGraph.degree).  The
    edge count is half the sum of the degrees, and the conjecture sum is
    |L| + (p - 1) sum_k n_k (1 + (p - 1)k), as |sol_L(x)| = 1 + (p - 1)k
    at each of the p - 1 elements of such a line.
    """
    return Counter(map(int.bit_count, nbr))


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


def conjecture_sum(L: LieAlgebra, force: bool = False) -> dict:
    """Sum of |sol_L(x)| over all x of L, and its divisibility by |L|: the
    fields sum, order, divisible and quotient that the conjecture command
    prints.  quotient is an int when |L| divides the sum, else a Fraction.

    The summand is |L| at x = 0, and 1 + (p - 1)k at each of the p - 1
    elements of a line whose row holds k lines (see row_sizes).
    """
    p, sizes = L.field.p, row_sizes(plane_table(L, force))
    total = L.size + (p - 1) * sum(n * (1 + (p - 1) * k) for k, n in sizes.items())
    q, r = divmod(total, L.size)
    if r:
        from fractions import Fraction  # here, so a divisible sum never loads fractions and decimal
        q = Fraction(total, L.size)
    return {"sum": total, "order": L.size, "divisible": not r, "quotient": q}


def divisibility_report(L: LieAlgebra, x, force: bool = False) -> dict:
    """|sol_L(x)| and its divisibility and coset properties: the fields,
    but members, that the solvabilizer command prints.

    element is x reduced mod p, size is |sol_L(x)| and sol_size is
    |sol(L)|.  sol_divides is None when sol(L) is not additively closed,
    and centralizer_divides is None when some solvabilizer of L fails to
    be a subalgebra; both divisibility statements need those hypotheses.

    All of it is read off x's row and the row of sol(L).  The coset
    property, sol_L(x) + t x = sol_L(x) for every t, holds by construction
    of the table, so coset_closed is True for every x: for y off x's line,
    span{x, y + t x} = span{x, y}, and the table stores one verdict per
    plane, so y + t x lies in the row iff y does; for y = 0 or on x's
    line, y + t x is 0 or on that line, which the row holds.  sol(L) is a
    subspace iff the span of one vector per line holds no more than its
    1 + (p - 1)|sol| elements.  A row of every line is L itself, so
    sol(L) = L is not spanned.
    """
    p, x = L.field.p, L.element(x)
    size = row_size(L, _row(L, x, force))
    sol, full = sol_of_algebra(L, force), (1 << L.line_count) - 1
    sol_size = row_size(L, sol)
    sol_closed = sol == full or rref(_reps(L, sol), L.field, ambient=L.dim).size == sol_size
    cent_size = centralizer(L, x).size
    return {
        "element": x,
        "size": size,
        "p_divides": size % p == 0,
        "sol_size": sol_size,
        "sol_divides": size % sol_size == 0 if sol_closed else None,
        "centralizer_size": cent_size,
        "centralizer_divides": size % cent_size == 0 if is_s_lie(L, force) else None,
        "coset_closed": True,
    }


def equivariance_check(L: LieAlgebra, phi: LinearMap, x,
                       force: bool = False) -> bool:
    """True iff the phi-image of sol_L(x) equals sol_L(phi(x)) as a set.  As
    phi is linear and bijective, that image is 0 and the lines through the
    images of one vector per line of x's row."""
    if not is_lie_automorphism(L, phi):
        raise ValueError("map is not a Lie algebra automorphism")
    row = _row(L, x, force)
    return _lines_through(L, map(phi.apply, _reps(L, row))) == _row(L, phi.apply(x), force)
