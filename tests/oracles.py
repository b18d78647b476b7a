"""Independent brute-force reference computations for the test suite.

Everything here deliberately avoids the production shortcuts: no caching,
no projective-line collapsing, no bitmask expansion.  Solvability of a pair
is recomputed every time from a round-based closure of its own, the
subspace lattice is enumerated outright for radicals, and graphs are
assembled from the raw quadratic pair loop.  It also holds the per-element
views that no command needs: a subspace's elements, a graph's vertices,
degrees and edges, and the S-witness by the element-pair loop, and the
command line's argparse parser.
"""

import argparse
import json
from bisect import bisect_right
from itertools import product
from pathlib import Path

from solvgraph.ffalg import PrimeField, rref
from solvgraph.liealg import (
    LieAlgebra,
    _from_matrix_basis,
    centralizer,
    derived_series,
    is_ideal,
    make_sl,
    quotient,
    to_file,
)
from solvgraph.solv import (
    _failing_line, bits, elements, plane_table, sol_lines, sol_of_algebra, solvabilizer,
)


def subspace_elements(space):
    """Yield all p**dim member vectors of a Subspace, in coefficient order."""
    p = space.field.p
    for coeffs in product(range(p), repeat=len(space.basis)):
        v = [0] * space.ambient
        for cf, row in zip(coeffs, space.basis):
            if cf:
                v = [(x + cf * y) % p for x, y in zip(v, row)]
        yield tuple(v)


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


def direct_sum(A, B):
    """The Lie algebra A + B: A's basis first, B's after, and every bracket
    between the two summands zero."""
    if A.field != B.field:
        raise ValueError("summands live over different fields")
    n = A.dim + B.dim
    zero = (0,) * n
    constants = [[A.constants[i][j] + (0,) * B.dim if j < A.dim else zero
                  for j in range(n)] for i in range(A.dim)]
    constants += [[zero if j < A.dim else (0,) * A.dim + B.constants[i][j - A.dim]
                   for j in range(n)] for i in range(B.dim)]
    return LieAlgebra(A.field, constants, labels=A.labels + B.labels,
                      name=f"{A.name}+{B.name}")


# sl2_semidirect(7) as a structure-constants file, written by liealg.to_file
SL2_MODULE_F7 = Path(__file__).resolve().parent / "data" / "sl2_module_f7.txt"


def sl2_semidirect(p):
    """sl2 acting on its natural module F_p^2, as the 3x3 matrices
    [[A, v], [0, 0]] with A traceless: basis e, f, h of sl2, then u, w
    spanning the module.  Its center is 0 and its radical the module, an
    ideal of dimension 2."""
    def unit(i, j):
        return tuple(tuple(int((r, c) == (i, j)) for c in range(3)) for r in range(3))
    h = tuple(tuple(x - y for x, y in zip(a, b)) for a, b in zip(unit(0, 0), unit(1, 1)))
    return _from_matrix_basis([unit(0, 1), unit(1, 0), h, unit(0, 2), unit(1, 2)],
                              ["e", "f", "h", "u", "w"], PrimeField(p), f"sl2x{p}^2")


def permuted_sl2_3_file(directory):
    """The path of sl2@3 with its basis e, f, h reordered as h, e, f,
    written by to_file: an algebra isomorphic to sl2@3 that is not sl2@3
    in the constructor's basis."""
    sl2, order = make_sl(2, 3), (2, 0, 1)
    constants = [[[sl2.constants[i][j][k] for k in order] for j in order] for i in order]
    L = LieAlgebra(sl2.field, constants, labels=[sl2.labels[i] for i in order], name="hef")
    assert L.bracket(L.basis_vector(1), L.basis_vector(2)) == L.basis_vector(0)  # [e, f] = h
    path = Path(directory) / "hef.txt"
    to_file(L, path)
    return path


def closed_subalgebra(L, generators):
    """The subalgebra generated by the generators, as an algebra of its own.

    Brackets of the RREF basis of the reference closure lie in the span,
    so their coordinates in that basis are their entries at the pivot
    columns.
    """
    S = subalgebra_closure_rounds(L, generators)
    basis = S.basis
    constants = [[[L.bracket(u, v)[c] for c in S.pivots] for v in basis]
                 for u in basis]
    return LieAlgebra(L.field, constants, name=f"<generators> in {L.name}")


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


def center_by_intersection(L):
    """Center as the intersection of the centralizers of the basis vectors,
    each one met by intersect_reference."""
    basis, p = L.full_space().basis, L.field.p
    for i in range(L.dim):
        basis = intersect_reference(basis, centralizer(L, L.basis_vector(i)).basis, L.dim, p)[0]
    return rref(basis, L.field, ambient=L.dim)


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


def lines_by_scan(L):
    """Projective lines of nonzero elements by a scan over every element.

    Each line is the sorted tuple of indices of the nonzero multiples of
    one element, and lines are listed in order of their smallest member.
    """
    p = L.field.p
    seen = bytearray(L.size)
    out = []
    for m in range(1, L.size):
        if seen[m]:
            continue
        v = L.vector(m)
        members = sorted(L.index(tuple(a * x % p for x in v)) for a in range(1, p))
        for idx in members:
            seen[idx] = 1
        out.append(tuple(members))
    return tuple(out)


def radical_by_lines(L):
    """Maximal solvable ideal by a search over every line of L.

    The radical consists exactly of the elements whose ideal closure is
    solvable; the closure does not change under scaling, so one member
    decides each line.
    """
    members = {0}
    good_reps = []
    for line in lines_by_scan(L):
        rep = L.vector(line[0])
        if derived_series(L, ideal_closure_rounds(L, rep)).terminated:
            members.update(line)
            good_reps.append(rep)
    space = rref(good_reps, L.field, ambient=L.dim)
    assert space.size == len(members), \
        "elements with solvable ideal closure do not form a subspace"
    return space


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


def sol_members(L):
    """Sorted element indices of sol(L): 0 and the elements on the lines of
    the bitset sol_of_algebra returns."""
    return (0, *elements(L, sol_of_algebra(L)))


def component_lists(L, parts):
    """Components given as line bitsets, as sorted element-index lists."""
    return [elements(L, c) for c in parts]


# Element loops over solvabilizer lists, for the queries that solv answers
# from plane-table rows.  solvabilizer itself is checked against
# direct_solvabilizer; these loops check what the queries do with it.

def _by_row(L, expand):
    """expand(x) memoized by x's plane-table row, with x = 0 keyed apart:
    solvabilizer(L, x) reads nothing else of x, so what expand derives from
    that list alone is computed once per distinct row."""
    nbr, memo = plane_table(L), {}

    def get(x):
        key = nbr[L.line(x)] if any(x) else -1
        if key not in memo:
            memo[key] = expand(x)
        return memo[key]
    return get


def solvabilizer_lengths(L):
    """len(solvabilizer(L, x)) for every element x, in index order."""
    length = _by_row(L, lambda x: len(solvabilizer(L, x)))
    return [length(L.vector(m)) for m in range(L.size)]


def s_lie_by_elements(L):
    """Whether every distinct solvabilizer list fills its span and the span
    is a subalgebra."""
    sol = _by_row(L, lambda x: solvabilizer(L, x))
    sols = {sol(L.vector(m)) for m in range(L.size)}
    return all(span_of_indices(L, s).size == len(s) and is_subalgebra(L, span_of_indices(L, s))
               for s in sols)


def first_failing_pair(L, l):
    """The first pair (a, b) of the solvabilizer of line l's members, in
    element-index order, whose sum or bracket leaves it, or None."""
    members = {0, *elements(L, plane_table(L)[l])}
    vecs = [L.vector(m) for m in sorted(members)]
    for a, b in product(vecs, repeat=2):
        if not {L.index([u + v for u, v in zip(a, b)]), L.index(L.bracket(a, b))} <= members:
            return a, b
    return None


def s_lie_witness_by_pairs(L):
    """s_lie_witness's answer by the element-pair loop: None, or (x, a, b)
    with x the smallest member of the first failing line and (a, b) its
    first failing pair."""
    l = _failing_line(L)
    if l is None:
        return None
    pair = first_failing_pair(L, l)
    if pair is None:
        raise AssertionError("subspace test failed but no witness pair found")
    return L.vector(L.line_rep(l)), *pair


def divisibility_by_elements(L, xs):
    """divisibility_report's dict for each x in xs, in order: sizes
    are list lengths, the subspace test spans every member of sol(L), and
    the coset test adds t x to every member of sol_L(x)."""
    p = L.field.p
    sol_all = sol_members(L)
    sol_closed = span_of_indices(L, sol_all).size == len(sol_all)
    s_lie = s_lie_by_elements(L)
    out = []
    for x in xs:
        x = tuple(v % p for v in x)
        sol_x = solvabilizer(L, x)
        members = set(sol_x)
        cent = centralizer(L, x).size
        coset = all(L.index(tuple((a + t * b) % p for a, b in zip(L.vector(m), x))) in members
                    for m in sol_x for t in range(1, p))
        out.append({"element": x, "size": len(sol_x), "p_divides": len(sol_x) % p == 0,
                    "sol_size": len(sol_all),
                    "sol_divides": len(sol_x) % len(sol_all) == 0 if sol_closed else None,
                    "centralizer_size": cent,
                    "centralizer_divides": len(sol_x) % cent == 0 if s_lie else None,
                    "coset_closed": coset})
    return out


def equivariance_by_elements(L, phi, x):
    """Whether phi maps sol_L(x), element by element, onto sol_L(phi(x))."""
    image = sorted(L.index(phi.apply(L.vector(m))) for m in solvabilizer(L, x))
    return tuple(image) == solvabilizer(L, phi.apply(x))


def quotient_compatibility_by_elements(L, N):
    """Whether solvabilizers project onto those of Q = L/N, by a loop over
    every element of L, for a solvable ideal N inside sol(L): pi(sol_L(x))
    is sol_Q(pi(x)) with |sol_L(x)| = |N| * |sol_Q(pi(x))| for every x, and
    L and Q agree on the S-property."""
    Q, project, _ = quotient(L, N)

    def with_image(x):
        sol_x = solvabilizer(L, x)
        return sol_x, tuple(sorted({Q.index(project(L.vector(a))) for a in sol_x}))
    sol_l, sol_q = _by_row(L, with_image), _by_row(Q, lambda y: solvabilizer(Q, y))
    for m in range(L.size):
        x = L.vector(m)
        (sol_x, image), sol_y = sol_l(x), sol_q(project(x))
        if image != sol_y or len(sol_x) != N.size * len(sol_y):
            return False
    return s_lie_by_elements(L) == s_lie_by_elements(Q)


# Per-element views of a SolvGraph that no command needs: the vertices
# expanded from the vertex lines, one vertex's degree, and the edges read
# from the per-row lists the exports share.

def vertices_by_lines(G):
    """Ascending element indices of L minus sol(L), from the vertex lines."""
    return tuple(elements(G.algebra, G.vertex_lines))


def vertex_degree(G, element_index):
    """Degree of a vertex, counted from its own row: the p - 1 vertices on
    each vertex line the row holds, itself excluded.  KeyError for 0,
    members of sol(L) and non-elements."""
    m, L = element_index, G.algebra
    if not (0 < m < L.size and G.vertex_lines >> (l := L.line(L.vector(m))) & 1):
        raise KeyError(m)
    return (L.field.p - 1) * (G.nbr[l] & G.vertex_lines).bit_count() - 1


def edges_by_lists(G):
    """Yield element-index pairs (m, m'), m < m', in lexicographic order."""
    for m, ns in G._neighbor_lists():
        for n in ns[bisect_right(ns, m):]:
            yield m, n


# The graph's element expansion and exports as they were before the per-row
# lists: per-vertex bitmasks summed from line masks, one generator step per
# edge, and one formatted line per edge.  The views above, SolvGraph.rows
# and the two writers are checked against these.

def vertices_by_scan(G):
    """Ascending element indices of L minus sol(L), by a scan over all of L."""
    L = G.algebra
    sol = {m for l in bits(sol_lines(G.nbr)) for m in L.line_members(l)}
    return tuple(m for m in range(1, L.size) if m not in sol)


def vertex_masks(G):
    """(m, bitmask of m and its neighbors over element indices) per vertex,
    ascending by m, from per-line member masks."""
    members = {l: G.algebra.line_members(l) for l in G.lines}
    line_masks = {l: sum(1 << m for m in ms) for l, ms in members.items()}
    row_masks = {row: sum(line_masks[k] for k in bits(row & G.vertex_lines))
                 for row in {G.nbr[l] for l in G.lines}}
    return sorted((m, row_masks[G.nbr[l]]) for l, ms in members.items() for m in ms)


def rows_by_masks(G):
    return [mask ^ (1 << m) for m, mask in vertex_masks(G)]


def edges_by_masks(G):
    """Element-index pairs (m, m'), m < m', in lexicographic order."""
    return [(m, n) for m, mask in vertex_masks(G) for n in bits(mask >> (m + 1) << (m + 1))]


def export_dot_per_edge(G, path):
    """DOT file written one formatted line per node and per edge."""
    labels = {m: "(" + ",".join(str(c) for c in G.algebra.vector(m)) + ")"
              for m in vertices_by_scan(G)}
    name = G.algebra.name.replace("\\", "\\\\").replace('"', '\\"')
    with open(path, "w") as fh:
        fh.write(f'graph "{name}" {{\n')
        fh.writelines(f'  "{label}";\n' for label in labels.values())
        fh.writelines(f'  "{labels[m]}" -- "{labels[n]}";\n' for m, n in edges_by_masks(G))
        fh.write("}\n")


def export_json_per_edge(G, path):
    """JSON file with the edge list written one formatted pair per edge."""
    head = json.dumps({
        "algebra": G.algebra.name,
        "p": G.algebra.field.p,
        "dim": G.algebra.dim,
        "vertices": [[m, list(G.algebra.vector(m))] for m in vertices_by_scan(G)],
    }, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(head[:-1] + ',"edges":[')
        fh.writelines(f"{',' if k else ''}[{m},{n}]"
                      for k, (m, n) in enumerate(edges_by_masks(G)))
        fh.write("]}\n")


# Batch linear algebra over F_p, column by column, returning plain
# (basis, pivots) tuples: the references for ffalg's one incremental echelon.

def rref_reference(rows, p):
    """Batch Gauss-Jordan elimination: pick each column's pivot among the
    rows still unused, then clear that column from every other row."""
    rows = [[x % p for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        k = pow(rows[r][c], -1, p)
        lead = rows[r] = [k * x % p for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
    return tuple(map(tuple, rows[:r])), tuple(pivots)


def kernel_reference(matrix, p, ncols):
    """Null space of M from its RREF: one vector per free column, that
    column set to 1 and each pivot column to minus the row's free entry."""
    basis, pivots = rref_reference(matrix, p)
    vecs = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for row, pc in zip(basis, pivots):
            v[pc] = -row[free] % p
        vecs.append(v)
    return rref_reference(vecs, p)


def intersect_reference(a, b, ambient, p):
    """span(a) ∩ span(b) for independent rows a and b: a combination
    sum(x_i a_i) = -sum(y_j b_j) is a kernel vector of the transposed stack."""
    if not a or not b:
        return (), ()
    stacked = list(a) + list(b)
    transposed = [[row[c] for row in stacked] for c in range(ambient)]
    vecs = []
    for z in kernel_reference(transposed, p, len(stacked))[0]:
        v = [0] * ambient
        for cf, row in zip(z, a):
            v = [(x + cf * y) % p for x, y in zip(v, row)]
        vecs.append(v)
    return rref_reference(vecs, p)


def solve_combination_reference(rows, target, p):
    """x with sum(x_i rows_i) = target, or None: for independent rows the
    kernel of the transposed [rows | target] is at most a line, and its
    generator ends in a nonzero entry exactly when target is in the span."""
    aug = list(rows) + [target]
    transposed = [[row[c] for row in aug] for c in range(len(target))]
    for z in kernel_reference(transposed, p, len(aug))[0]:
        if z[-1]:
            f = -pow(z[-1], -1, p)
            return tuple(f * x % p for x in z[:-1])
    return None


def mat_inv_reference(g, p):
    """Right block of the batch RREF of [g | I], or None when g is singular."""
    n = len(g)
    basis, pivots = rref_reference(
        [list(row) + [int(c == r) for c in range(n)] for r, row in enumerate(g)], p)
    return tuple(row[n:] for row in basis) if pivots == tuple(range(n)) else None


def reference_parser():
    """The command line as an argparse parser, built the way the CLI built
    it before cli.parse_args read its tables; parse_args must read every
    argv as this parser does."""
    from solvgraph.cli import _COMMANDS
    parser = argparse.ArgumentParser(
        prog="solvgraph",
        description="Solvable graphs and solvabilizers of Lie algebras over F_p.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, render, *_ in _COMMANDS:
        s = subs.add_parser(name, help=help_text)
        s.add_argument("algebra", help="algebra spec, e.g. sl2@3, gl2@5, w3, file:PATH")
        s.add_argument("--force", action="store_true",
                       help="override the enumeration size cap")
        s.add_argument("--format", default="text",
                       choices=("text", "json", "csv") if name == "degrees" else ("text", "json"))
        s.set_defaults(func=func, render=render)
    s = subs.choices["graph"]
    s.add_argument("--dot", metavar="PATH", help="write a Graphviz DOT file")
    s.add_argument("--json", metavar="PATH", help="write a JSON graph file")
    s.add_argument("--csv", metavar="PATH", help="write a degree,multiplicity CSV")
    subs.choices["solvabilizer"].add_argument(
        "--element", required=True,
        help="comma-separated coordinates in constructor basis order")
    return parser
