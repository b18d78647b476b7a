"""Independent brute-force reference computations for the test suite.

Everything here deliberately avoids the production shortcuts: no caching,
no projective-line collapsing, no bitmask expansion.  Solvability of a pair
is recomputed every time from a round-based closure of its own, the
subspace lattice is enumerated outright for radicals, and graphs are
assembled from the raw quadratic pair loop.
"""

from solvgraph.ffalg import rref
from solvgraph.liealg import derived_series, is_ideal


def subalgebra_closure_rounds(L, generators):
    """Reference subalgebra closure: span, adjoin every pairwise basis
    bracket, and repeat until the rank stabilizes."""
    space = rref(list(generators), L.field, ambient=L.dim)
    while True:
        basis = space.basis
        new = [L.bracket(u, v)
               for i, u in enumerate(basis) for v in basis[i + 1:]]
        bigger = rref(list(basis) + new, L.field, ambient=L.dim)
        if bigger.dim == space.dim:
            return space
        space = bigger


def ideal_closure_rounds(L, x):
    """Reference ideal closure: adjoin the brackets of every basis vector
    of L with the whole span, and repeat until the rank stabilizes."""
    space = rref([x], L.field, ambient=L.dim)
    while True:
        new = [L.bracket(L.basis_vector(i), v)
               for i in range(L.dim) for v in space.basis]
        bigger = rref(list(space.basis) + new, L.field, ambient=L.dim)
        if bigger.dim == space.dim:
            return space
        space = bigger


def is_subalgebra(L, space):
    """Direct check that every pairwise basis bracket stays in the span."""
    return all(space.contains(L.bracket(u, v))
               for u in space.basis for v in space.basis)


def direct_pair_solvable(L, x, y):
    """Fresh reference closure and derived series, bypassing all memoization."""
    return derived_series(L, subalgebra_closure_rounds(L, [x, y])).terminated


def direct_solvabilizer(L, x):
    """Elementwise solvabilizer, one fresh closure per element."""
    return tuple(m for m in range(L.size)
                 if direct_pair_solvable(L, x, L.vector(m)))


def direct_sol_of_algebra(L):
    """Elementwise global solvabilizer via the full quadratic loop."""
    out = []
    for m in range(L.size):
        y = L.vector(m)
        if all(direct_pair_solvable(L, L.vector(h), y) for h in range(L.size)):
            out.append(m)
    return tuple(out)


def all_subspaces(L):
    """Every subspace of the coordinate space, by closing under line extensions."""
    zero = rref([], L.field, ambient=L.dim)
    found = {zero}
    frontier = [zero]
    vectors = [L.vector(m) for m in range(1, L.size)]
    while frontier:
        nxt = []
        for space in frontier:
            for v in vectors:
                if space.contains(v):
                    continue
                bigger = rref(list(space.basis) + [v], L.field, ambient=L.dim)
                if bigger not in found:
                    found.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return found


def radical_bruteforce(L):
    """Maximal solvable ideal by scanning the whole subspace lattice.

    Also checks that every solvable ideal is contained in the winner, so the
    maximum is unique.
    """
    solvable_ideals = [s for s in all_subspaces(L)
                       if is_ideal(L, s) and derived_series(L, s).terminated]
    best = max(solvable_ideals, key=lambda s: s.dim)
    for s in solvable_ideals:
        assert all(best.contains(v) for v in s.basis), \
            "solvable ideals are not all contained in the maximal one"
    return best


def build_bruteforce(L):
    """Reference solvable graph: vertex tuple, edge set, degree dict.

    Vertices come straight from the elementwise global solvabilizer and
    edges from the raw pair loop, one fresh closure per pair.
    """
    sol = set(direct_sol_of_algebra(L))
    vertices = tuple(m for m in range(L.size) if m not in sol)
    edges = set()
    degrees = {m: 0 for m in vertices}
    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            if direct_pair_solvable(L, L.vector(u), L.vector(v)):
                edges.add(frozenset((u, v)))
                degrees[u] += 1
                degrees[v] += 1
    return vertices, edges, degrees


def components_bruteforce(vertices, edges):
    """Components of the graph and of its complement, by union-find.

    Unions run over the raw pair loop: adjacent pairs for the graph, the
    remaining pairs for the complement.  Each result lists sorted element
    lists, largest first, ties broken by smallest element.
    """
    def parts(joined):
        parent = {m: m for m in vertices}

        def find(m):
            while parent[m] != m:
                parent[m] = parent[parent[m]]
                m = parent[m]
            return m

        for i, u in enumerate(vertices):
            for v in vertices[i + 1:]:
                if joined(frozenset((u, v))):
                    parent[find(u)] = find(v)
        groups = {}
        for m in vertices:
            groups.setdefault(find(m), []).append(m)
        return sorted(groups.values(), key=lambda c: (-len(c), c[0]))

    return parts(edges.__contains__), parts(lambda e: e not in edges)


def eigenvalue_count(disc, q):
    """Number of roots of lambda**2 = disc over F_q, by scanning all lambda."""
    return sum(1 for lam in range(q) if (lam * lam - disc) % q == 0)


def span_of_indices(L, members):
    return rref([L.vector(m) for m in members], L.field, ambient=L.dim)


def is_additively_closed_indices(L, members):
    """Direct pairwise check that an index set is closed under addition."""
    p = L.field.p
    mset = set(members)
    vecs = [L.vector(m) for m in members]
    return all(L.index(tuple((a + b) % p for a, b in zip(u, v))) in mset
               for u in vecs for v in vecs)
