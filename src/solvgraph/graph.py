"""The solvable graph of a Lie algebra and its complement.

Vertices are the elements outside the global solvabilizer; two vertices are
adjacent when they generate a solvable subalgebra.  Adjacency only depends
on the plane the pair spans, so the graph is a view of the algebra's plane
table (see solv): it keeps one row per vertex line, the line's neighbor
bitset restricted to vertex lines.  Degrees, edge counts and the components
of the graph and of its complement are read off those rows.  Per-vertex
bitmask rows are expanded only by edges() and the rows property.
"""

from __future__ import annotations

import json
from pathlib import Path

from .liealg import LieAlgebra
from .solv import bits, plane_table


class SolvGraph:
    """Solvable graph held as per-line rows.

    vertices:     ascending element indices of L minus sol(L).
    lines:        vertex positions grouped by projective line; line k holds
                  p - 1 vertices.
    line_rows[k]: bitset over line numbers k' of the lines adjacent to
                  line k, including k itself.  A vertex on line k is
                  adjacent to every vertex on those lines but itself.
    """

    __slots__ = ("algebra", "vertices", "lines", "line_rows", "edge_count",
                 "_pos", "_line_at")

    def __init__(self, algebra, vertices, lines, line_rows):
        self.algebra = algebra
        self.vertices = vertices
        self.lines = lines
        self.line_rows = line_rows
        self._pos = {m: i for i, m in enumerate(vertices)}
        self._line_at = [0] * len(vertices)
        for k, line in enumerate(lines):
            for q in line:
                self._line_at[q] = k
        total_degree = sum(len(line) * self._line_degree(k)
                           for k, line in enumerate(lines))
        if total_degree % 2:
            raise AssertionError("line rows are not symmetric")
        self.edge_count = total_degree // 2

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def position(self, element_index: int) -> int:
        return self._pos[element_index]

    def _line_degree(self, k: int) -> int:
        return (self.algebra.field.p - 1) * self.line_rows[k].bit_count() - 1

    def degree(self, element_index: int) -> int:
        return self._line_degree(self._line_at[self._pos[element_index]])

    def degrees(self) -> list[int]:
        return [self._line_degree(k) for k in self._line_at]

    def _line_masks(self) -> list[int]:
        """For each line row, the vertex positions on its lines as one bitmask."""
        masks = [sum(1 << q for q in line) for line in self.lines]
        return [sum(masks[k] for k in bits(row)) for row in self.line_rows]

    @property
    def rows(self) -> list[int]:
        """Per-vertex neighbor bitmasks: bit j of rows[i] is set iff i ~ j."""
        masks = self._line_masks()
        return [masks[k] & ~(1 << i) for i, k in enumerate(self._line_at)]

    def edges(self):
        """Yield position pairs (i, j), i < j, in lexicographic order."""
        masks = self._line_masks()
        for i, k in enumerate(self._line_at):
            for j in bits(masks[k] >> (i + 1) << (i + 1)):
                yield i, j


def build(L: LieAlgebra, force: bool = False) -> SolvGraph:
    """Build the solvable graph of L from its plane table.

    The vertex lines are the lines whose row is not full; full rows are sol(L).
    """
    _, nbr = plane_table(L, force)
    full = (1 << len(nbr)) - 1
    ids = [l for l, row in enumerate(nbr) if row != full]
    all_lines = L.lines()
    vertices = tuple(sorted(m for l in ids for m in all_lines[l]))
    pos = {m: i for i, m in enumerate(vertices)}
    number = {l: k for k, l in enumerate(ids)}  # plane-table line -> row
    vertex_mask = sum(1 << l for l in ids)
    line_rows = tuple(sum(1 << number[m] for m in bits(nbr[l] & vertex_mask))
                      for l in ids)
    lines = tuple(tuple(pos[m] for m in all_lines[l]) for l in ids)
    return SolvGraph(L, vertices, lines, line_rows)


def degree_sequence(G: SolvGraph) -> dict[int, int]:
    """Multiset of vertex degrees as {degree: multiplicity}, largest first."""
    counts: dict[int, int] = {}
    for k, line in enumerate(G.lines):
        d = G._line_degree(k)
        counts[d] = counts.get(d, 0) + len(line)
    return dict(sorted(counts.items(), reverse=True))


def _line_walk(G: SolvGraph, flip: int) -> list[list[int]]:
    """Components as element-index lists, largest first, by a walk over lines.

    Line k's neighbors are the lines in line_rows[k] ^ flip: flip = 0 walks
    the graph and flip = -1 its complement.  The walk shrinks an unvisited
    line set, so memory stays linear in the line count even though the
    complement is dense.  All vertices of a line share one component: in the
    graph they are mutually adjacent, and in the complement every vertex
    line l has a neighbor line.  nbr[l] is not full, since otherwise l would
    lie in sol(L), and a line missing from nbr[l] is itself outside sol(L),
    whose lines see every line.
    """
    unvisited = (1 << len(G.lines)) - 1
    out = []
    while unvisited:
        frontier = unvisited & -unvisited
        unvisited ^= frontier
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            for k in bits(frontier):
                nxt |= G.line_rows[k] ^ flip
            frontier = nxt & unvisited
            unvisited ^= frontier
        out.append(sorted(G.vertices[q] for k in bits(comp) for q in G.lines[k]))
    out.sort(key=lambda c: (-len(c), c[0]))
    return out


def components(G: SolvGraph) -> list[list[int]]:
    """Connected components as element-index lists, largest first."""
    return _line_walk(G, 0)


def complement_components(G: SolvGraph) -> list[list[int]]:
    """Components of the complement graph, without materializing its edges."""
    return _line_walk(G, -1)


# ---------------------------------------------------------------------------
# Exports.  All outputs are deterministic: vertices ascend by element index
# and edges are emitted in lexicographic position order.

def export_dot(G: SolvGraph, path):
    """Graphviz DOT file; nodes are labeled by coordinate tuples.

    Lines are written as they are produced; the edge list is never held.
    """
    labels = ["(" + ",".join(str(c) for c in G.algebra.vector(m)) + ")"
              for m in G.vertices]
    with open(path, "w") as fh:
        fh.write(f'graph "{G.algebra.name}" {{\n')
        fh.writelines(f'  "{label}";\n' for label in labels)
        fh.writelines(f'  "{labels[i]}" -- "{labels[j]}";\n' for i, j in G.edges())
        fh.write("}\n")


def export_json(G: SolvGraph, path):
    """JSON with algebra metadata, vertex coordinates and the edge list.

    Edges are written pair by pair, in the bytes json.dumps would give.
    """
    head = json.dumps({
        "algebra": G.algebra.name,
        "p": G.algebra.field.p,
        "dim": G.algebra.dim,
        "vertices": [[m, list(G.algebra.vector(m))] for m in G.vertices],
    }, separators=(",", ":"))
    vs = G.vertices
    with open(path, "w") as fh:
        fh.write(head[:-1] + ',"edges":[')
        fh.writelines(f"{',' if n else ''}[{vs[i]},{vs[j]}]"
                      for n, (i, j) in enumerate(G.edges()))
        fh.write("]}\n")


def export_degrees_csv(G: SolvGraph, path):
    """CSV of degree,multiplicity rows, largest degree first."""
    lines = ["degree,multiplicity"]
    for d, mult in degree_sequence(G).items():
        lines.append(f"{d},{mult}")
    Path(path).write_text("\n".join(lines) + "\n")
