"""The solvable graph of a Lie algebra and its complement.

Vertices are the elements outside the global solvabilizer; two vertices are
adjacent when they generate a solvable subalgebra.  Adjacency only depends
on the plane the pair spans, so the build reads the algebra's plane table
(see solv): the neighbor bitset of each vertex line, restricted to vertex
lines, is expanded into per-vertex bitmask rows.  The expansion is
cross-checked against directly computed pairs in the test suite.

Adjacency rows are Python ints used as bitsets over vertex positions: bit j
of rows[i] is set iff vertices i and j are adjacent.
"""

from __future__ import annotations

import json
from pathlib import Path

from .liealg import LieAlgebra, require_enumerable
from .solv import plane_table, sol_of_algebra


class SolvGraph:
    """Solvable graph with bitmask adjacency rows.

    vertices: ascending element indices of L minus sol(L).
    rows[i]:  neighbor bitmask of the vertex at position i.
    lines:    vertex positions grouped by projective line.
    """

    __slots__ = ("algebra", "vertices", "rows", "lines", "edge_count", "_pos")

    def __init__(self, algebra, vertices, rows, lines, edge_count):
        self.algebra = algebra
        self.vertices = vertices
        self.rows = rows
        self.lines = lines
        self.edge_count = edge_count
        self._pos = {m: i for i, m in enumerate(vertices)}

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def position(self, element_index: int) -> int:
        return self._pos[element_index]

    def degree(self, element_index: int) -> int:
        return self.rows[self._pos[element_index]].bit_count()

    def adjacent(self, u: int, v: int) -> bool:
        """Adjacency by element index."""
        return bool(self.rows[self._pos[u]] >> self._pos[v] & 1)

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def edges(self):
        """Yield position pairs (i, j), i < j, in lexicographic order."""
        for i, row in enumerate(self.rows):
            m = row >> (i + 1) << (i + 1)
            while m:
                b = m & -m
                yield i, b.bit_length() - 1
                m ^= b


def build(L: LieAlgebra, force: bool = False) -> SolvGraph:
    """Build the solvable graph of L from its plane table."""
    require_enumerable(L, force)
    sol = set(sol_of_algebra(L, force=force))
    vertices = tuple(m for m in range(L.size) if m not in sol)
    pos = {m: i for i, m in enumerate(vertices)}
    _, nbr = plane_table(L)

    vlines = {}  # line id -> vertex positions, for the lines outside sol(L)
    masks = [0] * len(nbr)  # vertex-position bitmask of each vertex line
    for l, line in enumerate(L.lines()):
        if line[0] not in sol:
            vlines[l] = tuple(pos[m] for m in line)
            masks[l] = sum(1 << q for q in vlines[l])
    vertex_mask = sum(1 << l for l in vlines)

    rows = [0] * len(vertices)
    for l, vline in vlines.items():
        acc = 0
        adj = nbr[l] & vertex_mask
        while adj:
            b = adj & -adj
            acc |= masks[b.bit_length() - 1]
            adj ^= b
        for q in vline:
            rows[q] = acc & ~(1 << q)

    total_degree = sum(r.bit_count() for r in rows)
    if total_degree % 2:
        raise AssertionError("adjacency rows are not symmetric")
    return SolvGraph(L, vertices, rows, tuple(vlines.values()), total_degree // 2)


def degree_sequence(G: SolvGraph) -> dict[int, int]:
    """Multiset of vertex degrees as {degree: multiplicity}, largest first."""
    counts: dict[int, int] = {}
    for r in G.rows:
        d = r.bit_count()
        counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items(), reverse=True))


def _bits_to_elements(G: SolvGraph, mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(G.vertices[b.bit_length() - 1])
        mask ^= b
    return out


def _sorted_parts(parts: list[list[int]]) -> list[list[int]]:
    parts.sort(key=lambda c: (-len(c), c[0]))
    return parts


def components(G: SolvGraph) -> list[list[int]]:
    """Connected components as element-index lists, largest first."""
    n = len(G.vertices)
    seen = 0
    out = []
    for s in range(n):
        if seen >> s & 1:
            continue
        comp = 0
        frontier = 1 << s
        while frontier:
            comp |= frontier
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                nxt |= G.rows[b.bit_length() - 1]
                m ^= b
            frontier = nxt & ~comp
        seen |= comp
        out.append(_bits_to_elements(G, comp))
    return _sorted_parts(out)


def complement_components(G: SolvGraph) -> list[list[int]]:
    """Components of the complement graph, without materializing its edges.

    Walks a shrinking unvisited set: the complement neighbors of vertex i
    are the unvisited vertices absent from rows[i].  Memory stays linear in
    the vertex count even though the complement is dense.
    """
    n = len(G.vertices)
    unvisited = (1 << n) - 1 if n else 0
    out = []
    while unvisited:
        b = unvisited & -unvisited
        unvisited ^= b
        comp = 0
        frontier = b
        while frontier:
            comp |= frontier
            nxt = 0
            m = frontier
            while m:
                bb = m & -m
                m ^= bb
                gain = unvisited & ~G.rows[bb.bit_length() - 1]
                nxt |= gain
                unvisited &= ~gain
            frontier = nxt
        out.append(_bits_to_elements(G, comp))
    return _sorted_parts(out)


# ---------------------------------------------------------------------------
# Exports.  All outputs are deterministic: vertices ascend by element index
# and edges are emitted in lexicographic position order.

def _label(G: SolvGraph, element_index: int) -> str:
    coords = G.algebra.vector(element_index)
    return "(" + ",".join(str(c) for c in coords) + ")"


def export_dot(G: SolvGraph, path):
    """Graphviz DOT file; nodes are labeled by coordinate tuples."""
    lines = [f'graph "{G.algebra.name}" {{']
    for m in G.vertices:
        lines.append(f'  "{_label(G, m)}";')
    for i, j in G.edges():
        lines.append(f'  "{_label(G, G.vertices[i])}" -- "{_label(G, G.vertices[j])}";')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


def export_json(G: SolvGraph, path):
    """JSON with algebra metadata, vertex coordinates and the edge list."""
    payload = {
        "algebra": G.algebra.name,
        "p": G.algebra.field.p,
        "dim": G.algebra.dim,
        "vertices": [[m, list(G.algebra.vector(m))] for m in G.vertices],
        "edges": [[G.vertices[i], G.vertices[j]] for i, j in G.edges()],
    }
    Path(path).write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def export_degrees_csv(G: SolvGraph, path):
    """CSV of degree,multiplicity rows, largest degree first."""
    lines = ["degree,multiplicity"]
    for d, mult in degree_sequence(G).items():
        lines.append(f"{d},{mult}")
    Path(path).write_text("\n".join(lines) + "\n")
