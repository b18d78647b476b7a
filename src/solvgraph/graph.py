"""The solvable graph of a Lie algebra and its complement.

Vertices are the elements outside the global solvabilizer; two vertices are
adjacent when they generate a solvable subalgebra.  Adjacency only depends
on the plane the pair spans, so the graph is a view of the algebra's plane
table (see solv): it holds the table's rows, indexed by line number (see
liealg), reads its degree sequence and edge count off the multiset of row
sizes (solv.row_sizes), counted once per graph, and the components of the
graph and of its complement, as line bitsets, off the rows of the vertex
lines.  Nothing is kept per vertex.  Edges are pairs of element indices,
expanded only by the exports and the rows property, which share one
expansion per graph: each distinct row once, into a sorted list of the
elements on its vertex lines, which every vertex with that row shares.
A row is shared by at least the p - 1 vertices of one line, so the lists
hold at most (2E + |V|)/(p - 1) entries for E edges and |V| vertices.
Each export formats each distinct list into its neighbor strings once,
and every vertex with that row joins the strings past itself.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, product
from pathlib import Path

from .liealg import LieAlgebra
from .solv import bits, plane_table, row_sizes, sol_lines


class SolvGraph:
    """Solvable graph held as the plane table's rows.  Its degrees and
    edge count are read off the table's row sizes, through one degree
    formula (see degree and degree_sequence), not per line.

    nbr:     the plane table of the algebra (see solv.plane_table), shared,
             not copied.  A vertex on line l is adjacent to every vertex on
             the vertex lines in nbr[l] but itself.
    lines:   ascending numbers of the vertex lines, whose rows are not
             full (full rows are sol(L)); vertex_lines as a bitmask.
    _sizes:  solv.row_sizes of nbr, counted on first use, or None.
    _lists:  the one expansion of the rows (see _neighbor_lists), or None.
    """

    __slots__ = ("algebra", "nbr", "lines", "vertex_lines", "_sizes", "_lists")

    def __init__(self, algebra, nbr):
        self.algebra = algebra
        self.nbr = nbr
        full = (1 << len(nbr)) - 1
        self.vertex_lines = full ^ sol_lines(nbr)
        self.lines = tuple(l for l, row in enumerate(nbr) if row != full)
        self._sizes = self._lists = None

    @property
    def vertex_count(self) -> int:
        return (self.algebra.field.p - 1) * len(self.lines)

    def degree(self, k: int) -> int:
        """Degree of each vertex on a line whose row holds k lines: p - 1
        vertices on each of the row's k - s lines outside sol(L), itself
        excluded, where s = len(nbr) - len(lines) counts sol(L)'s lines,
        which every row holds (see solv.row_sizes)."""
        return (self.algebra.field.p - 1) * (k - len(self.nbr) + len(self.lines)) - 1

    @property
    def edge_count(self) -> int:
        """Half the degree sum; AssertionError if the sum is odd, which
        a symmetric table never gives."""
        total = sum(d * n for d, n in degree_sequence(self).items())
        if total % 2:
            raise AssertionError("line rows are not symmetric")
        return total // 2

    def _neighbor_lists(self) -> list[tuple[int, list[int]]]:
        """(m, sorted element indices on the vertex lines of m's row) per
        vertex m, ascending by m: m itself and its neighbors.  Each distinct
        row is expanded once, and its list is shared by every vertex with
        that row; lifted tables share a row per quotient line.  Built on
        first use and kept, so the exports and rows share it."""
        if self._lists is None:
            members = {l: self.algebra.line_members(l) for l in self.lines}
            lists = {row: sorted(chain.from_iterable(map(members.__getitem__, bits(
                row & self.vertex_lines)))) for row in {self.nbr[l] for l in self.lines}}
            self._lists = sorted((m, lists[self.nbr[l]]) for l, ms in members.items() for m in ms)
        return self._lists

    @property
    def rows(self) -> list[int]:
        """Neighbor bitmask of each vertex over element indices, vertices
        in ascending index order: bit m' of rows[i] is set iff the i-th
        vertex is adjacent to m'.  No command reads it; it is public because
        the benchmark's tracer sums its bytes (perfbench's graph.row_bytes)."""
        pairs = self._neighbor_lists()
        distinct = {id(ns): ns for _, ns in pairs}
        masks = {key: sum(1 << n for n in ns) for key, ns in distinct.items()}
        return [masks[id(ns)] ^ (1 << m) for m, ns in pairs]


def build(L: LieAlgebra, force: bool = False) -> SolvGraph:
    """Build the solvable graph of L as a view of its plane table."""
    return SolvGraph(L, plane_table(L, force))


def degree_sequence(G: SolvGraph) -> dict[int, int]:
    """Multiset of vertex degrees as {degree: multiplicity}, largest first:
    p - 1 vertices of degree G.degree(k) per vertex line whose row holds k
    lines.  Full rows are sol(L)'s lines, which hold no vertex."""
    if G._sizes is None:
        G._sizes = row_sizes(G.nbr)
    per_line, full = G.algebra.field.p - 1, len(G.nbr)
    return {G.degree(k): per_line * n for k, n in sorted(G._sizes.items(), reverse=True) if k < full}


def _line_walk(G: SolvGraph, flip: int) -> list[int]:
    """Components as line bitsets, by a walk over lines.

    Line l's neighbors are the unvisited lines in nbr[l] ^ flip: flip = 0
    walks the graph and flip = -1 its complement.  The walk shrinks an
    unvisited line set, so memory stays linear in the line count even though
    the complement is dense.  All vertices of a line share one component: in
    the graph they are mutually adjacent, and in the complement every vertex
    line l has a neighbor line.  nbr[l] is not full, since otherwise l would
    lie in sol(L), and a line missing from nbr[l] is itself outside sol(L),
    whose lines see every line.

    Sorted largest first, ties by smallest element: each line holds p - 1
    elements, and lines are numbered in the order of their smallest
    members, so the lowest line c & -c holds c's smallest element.
    """
    unvisited = G.vertex_lines
    comps = []
    while unvisited:
        frontier = unvisited & -unvisited
        unvisited ^= frontier
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            for l in bits(frontier):
                nxt |= G.nbr[l] ^ flip
            frontier = nxt & unvisited
            unvisited ^= frontier
        comps.append(comp)
    comps.sort(key=lambda c: (-c.bit_count(), c & -c))
    return comps


def components(G: SolvGraph) -> list[int]:
    """Connected components as line bitsets, largest first (see _line_walk);
    solv.elements expands one to its element indices."""
    return _line_walk(G, 0)


def complement_components(G: SolvGraph) -> list[int]:
    """Components of the complement graph as line bitsets, largest first,
    without materializing its edges."""
    return _line_walk(G, -1)


# ---------------------------------------------------------------------------
# Exports.  All outputs are deterministic: vertices ascend by element index
# and edges are emitted in lexicographic element-index order.  DOT and JSON
# files go through a 128 KiB buffer, 16 times fewer write calls than the
# default 8 KiB: writing sl2@13's 5.4 MB of DOT in-process on a 2-core
# machine, that saved about 4 ms of 22.

_WRITE_BUFFER = 1 << 17


def _edge_chunks(pairs, head, tail):
    """One string per vertex m with a neighbor above it, in ascending order:
    head(m) + tail[n] for each such neighbor n, ascending, concatenated.
    pairs are G._neighbor_lists(); the neighbors above m are the end of m's
    list after bisect_right.  Each distinct list is turned into its tail
    strings once, on first use, and every vertex sharing it joins a slice of
    them: one tail lookup per list entry, not one per edge."""
    formatted = {}
    for m, ns in pairs:
        k = bisect_right(ns, m)
        if k < len(ns):
            strs = formatted.get(id(ns))
            if strs is None:
                strs = formatted[id(ns)] = list(map(tail.__getitem__, ns))
            h = head(m)
            yield h + h.join(strs[k:])


def _coordinates(G: SolvGraph) -> list[tuple]:
    """Coordinates of every element as a tuple of digit strings, indexed by
    element index, as algebra.vector gives them (least significant first):
    one product enumeration instead of a vector call per vertex.  Empty when
    G has no vertices, so an empty graph builds no table."""
    if not G.lines:
        return []
    digits = [str(c) for c in range(G.algebra.field.p)]
    return [t[::-1] for t in product(digits, repeat=G.algebra.dim)]


def export_dot(G: SolvGraph, path):
    """Graphviz DOT file; nodes are labeled by coordinate tuples.

    Edges are written one vertex at a time from the shared per-row lists
    (see SolvGraph._neighbor_lists); the edge list is never held.
    """
    pairs = G._neighbor_lists()
    coords = _coordinates(G)
    labels = {m: "(" + ",".join(coords[m]) + ")" for m, _ in pairs}
    name = G.algebra.name.replace("\\", "\\\\").replace('"', '\\"')
    with open(path, "w", buffering=_WRITE_BUFFER) as fh:
        fh.write(f'graph "{name}" {{\n')
        fh.writelines(f'  "{label}";\n' for label in labels.values())
        fh.writelines(_edge_chunks(pairs, lambda m: f'  "{labels[m]}" -- "',
                                   {m: f'{label}";\n' for m, label in labels.items()}))
        fh.write("}\n")


def export_json(G: SolvGraph, path):
    """JSON with algebra metadata, vertex coordinates and the edge list,
    in the bytes json.dumps with separators (",", ":") would give.

    The header is formatted from the digit strings of _coordinates, as
    DOT's labels are; json.dumps quotes the algebra name alone.  Edges are
    written one vertex at a time from the shared per-row lists (see
    SolvGraph._neighbor_lists).
    """
    import json  # here, so commands without a JSON export never load json
    L, pairs = G.algebra, G._neighbor_lists()
    coords = _coordinates(G)
    vertices = ",".join(f"[{m},[" + ",".join(coords[m]) + "]]" for m, _ in pairs)
    head = f'{{"algebra":{json.dumps(L.name)},"p":{L.field.p},"dim":{L.dim},"vertices":[{vertices}]'
    chunks = _edge_chunks(pairs, lambda m: f",[{m},", {m: f"{m}]" for m, _ in pairs})
    with open(path, "w", buffering=_WRITE_BUFFER) as fh:
        fh.write(head + ',"edges":[' + next(chunks, ",")[1:])
        fh.writelines(chunks)
        fh.write("]}\n")


def export_degrees_csv(G: SolvGraph, path):
    """CSV of degree,multiplicity rows, largest degree first."""
    lines = ["degree,multiplicity"]
    for d, mult in degree_sequence(G).items():
        lines.append(f"{d},{mult}")
    Path(path).write_text("\n".join(lines) + "\n")
