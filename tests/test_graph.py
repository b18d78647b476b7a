import json

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import build_bruteforce, components_bruteforce
from solvgraph.graph import (
    build,
    complement_components,
    components,
    degree_sequence,
    export_degrees_csv,
    export_dot,
    export_json,
)
from solvgraph.liealg import CapExceeded, LieAlgebra, make_gl, subalgebra_closure
from solvgraph.solv import sol_of_algebra, solvabilizer


def _assert_matches_bruteforce(L):
    G = build(L)
    vertices, edges, degrees = build_bruteforce(L)
    assert G.vertices == vertices
    got_edges = {frozenset((G.vertices[i], G.vertices[j])) for i, j in G.edges()}
    assert got_edges == edges
    assert G.edge_count == len(edges)
    assert G.degrees() == [G.degree(m) for m in vertices] == \
        [degrees[m] for m in vertices]
    assert (components(G), complement_components(G)) == \
        components_bruteforce(vertices, edges)


def _closed_subalgebra(L, x, y):
    """The subalgebra generated by x and y as an algebra of its own.

    Brackets of the RREF basis lie in the span, so their coordinates in
    that basis are their entries at the pivot columns.
    """
    S = subalgebra_closure(L, [x, y])
    basis = S.basis
    constants = [[[L.bracket(u, v)[c] for c in S.pivots] for v in basis]
                 for u in basis]
    return LieAlgebra(L.field, constants, name=f"<x,y> in {L.name}")


_HOSTS = (make_gl(2, 3), make_gl(3, 2))


@st.composite
def _generated_subalgebras(draw):
    L = draw(st.sampled_from(_HOSTS))
    coords = st.tuples(*[st.integers(0, L.field.p - 1)] * L.dim)
    S = _closed_subalgebra(L, draw(coords), draw(coords))
    assume(S.dim <= 4)
    return S


class TestRandomSubalgebras:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(_generated_subalgebras())
    def test_build_matches_bruteforce(self, S):
        _assert_matches_bruteforce(S)


class TestBuild:
    def test_sl2_f2_empty(self, sl2_2):
        G = build(sl2_2)
        assert G.vertex_count == 0
        assert G.edge_count == 0

    def test_sl2_f3_counts(self, sl2_3):
        G = build(sl2_3)
        assert G.vertex_count == 26
        assert G.edge_count == 109

    def test_gl2_f3_vertex_count(self, gl2_3):
        G = build(gl2_3)
        assert G.vertex_count == 78  # 81 elements minus 3 scalars

    def test_vertices_exclude_sol(self, sl2_3, gl2_3, w3):
        for L in (sl2_3, gl2_3, w3):
            G = build(L)
            sol = set(sol_of_algebra(L))
            assert sol.isdisjoint(G.vertices)
            assert len(G.vertices) == L.size - len(sol)

    def test_no_self_loops_and_symmetry(self, sl2_3):
        G = build(sl2_3)
        for i, row in enumerate(G.rows):
            assert not row >> i & 1
            for j in range(G.vertex_count):
                assert (row >> j & 1) == (G.rows[j] >> i & 1)

    def test_line_expansion_matches_bruteforce(self, sl2_2, sl2_3, w3, t2_3, gl2_3):
        # the production graph is read off the plane table's line bitsets;
        # compare against the raw quadratic loop with fresh closures
        for L in (sl2_2, w3, sl2_3, t2_3, gl2_3):
            _assert_matches_bruteforce(L)
            # the complement walk relies on every vertex line having a
            # complement neighbor line
            G = build(L)
            full = (1 << len(G.lines)) - 1
            assert all(row != full for row in G.line_rows)

    def test_cap_enforced(self, sl2_5, monkeypatch):
        monkeypatch.setenv("SOLVGRAPH_CAP", "100")
        with pytest.raises(CapExceeded):
            build(sl2_5)
        assert build(sl2_5, force=True).vertex_count == 124

    def test_zero_dimensional_algebra(self, t2_3):
        # quotient by the full space leaves the one-element algebra
        from solvgraph.liealg import quotient
        Q, _, _ = quotient(t2_3, t2_3.full_space())
        G = build(Q)
        assert G.vertex_count == 0
        assert components(G) == []
        assert complement_components(G) == []


class TestDegrees:
    def test_sl2_f3_sequence(self, sl2_3):
        assert degree_sequence(build(sl2_3)) == {13: 12, 7: 8, 1: 6}

    def test_sl2_f5_sequence(self, sl2_5):
        assert degree_sequence(build(sl2_5)) == {43: 60, 23: 24, 3: 40}

    def test_gl2_f7_sequence_slow_values(self):
        # spot value from the closed form; full sweep lives in the
        # acceptance suite
        from solvgraph.liealg import make_gl
        G = build(make_gl(2, 5))
        assert degree_sequence(G) == {219: 300, 119: 120, 19: 200}

    def test_degree_identity_against_solvabilizer(self, sl2_3, w3, gl2_3):
        # deg(x) = |sol_L(x)| - |sol(L)| - 1 for every vertex
        for L in (sl2_3, w3, gl2_3):
            G = build(L)
            sol_size = len(sol_of_algebra(L))
            for m in G.vertices:
                expected = len(solvabilizer(L, L.vector(m))) - sol_size - 1
                assert G.degree(m) == expected

    def test_degree_sum_is_twice_edges(self, sl2_3, gl2_3):
        for L in (sl2_3, gl2_3):
            G = build(L)
            assert sum(G.degrees()) == 2 * G.edge_count

    def test_empty_graph_sequence(self, sl2_2):
        assert degree_sequence(build(sl2_2)) == {}


class TestComponents:
    def test_sl2_f3_component_sizes(self, sl2_3):
        parts = components(build(sl2_3))
        assert [len(c) for c in parts] == [20, 2, 2, 2]

    def test_empty_graph_has_no_components(self, sl2_2):
        assert components(build(sl2_2)) == []

    def test_parts_partition_vertices(self, sl2_3, gl2_3, w3):
        for L in (sl2_3, gl2_3, w3):
            G = build(L)
            parts = components(G)
            flat = sorted(m for part in parts for m in part)
            assert flat == sorted(G.vertices)

    def test_no_edges_between_parts(self, sl2_3):
        G = build(sl2_3)
        part_of = {}
        for k, part in enumerate(components(G)):
            for m in part:
                part_of[m] = k
        for i, j in G.edges():
            assert part_of[G.vertices[i]] == part_of[G.vertices[j]]

    def test_sl2_f5_no_eigenvalue_components(self, sl2_5):
        # elements whose matrix has no eigenvalues sit in components of
        # size q - 1 = 4 made of their own nonzero multiples
        from solvgraph.formulas import SpectralClass, spectral_class_sl2
        G = build(sl2_5)
        part_of = {}
        parts = components(G)
        for k, part in enumerate(parts):
            for m in part:
                part_of[m] = k
        for m in G.vertices:
            x = sl2_5.vector(m)
            if spectral_class_sl2(sl2_5, x) is SpectralClass.NO_EIGENVALUE:
                part = parts[part_of[m]]
                multiples = sorted(sl2_5.index(tuple(t * v % 5 for v in x))
                                   for t in range(1, 5))
                assert sorted(part) == multiples

    def test_w3_graph_is_three_disjoint_edges(self, w3):
        G = build(w3)
        assert G.vertex_count == 6
        assert G.edge_count == 3
        assert [len(c) for c in components(G)] == [2, 2, 2]

    def test_component_count_law_small_q(self, sl2_3, sl2_5, gl2_3):
        # the no-eigenvalue classes contribute q(q-1)/2 small components
        # next to one large component
        for L, q in ((sl2_3, 3), (sl2_5, 5), (gl2_3, 3)):
            assert len(components(build(L))) == q * (q - 1) // 2 + 1

    @pytest.mark.slow
    def test_gl2_f11_structure(self):
        from solvgraph.formulas import gl2_expected
        from solvgraph.liealg import make_gl
        G = build(make_gl(2, 11))
        assert degree_sequence(G) == gl2_expected(11)
        assert len(components(G)) == 11 * 10 // 2 + 1


class TestComplement:
    def test_sl2_f3_complement_connected(self, sl2_3):
        assert len(complement_components(build(sl2_3))) == 1

    def test_gl2_f3_complement_connected(self, gl2_3):
        assert len(complement_components(build(gl2_3))) == 1

    def test_single_vertex_graph(self, w3):
        # no algebra produces exactly one vertex (vertices come in pairs at
        # minimum), so exercise the function contract on a synthetic graph
        from solvgraph.graph import SolvGraph
        G = SolvGraph(w3, (2,), ((0,),), (1,))
        assert complement_components(G) == [[2]]
        assert components(G) == [[2]]

    def test_w3_complement_connected(self, w3):
        assert len(complement_components(build(w3))) == 1

    def test_complement_matches_materialized(self, sl2_3, w3):
        # reference: union-find over the explicitly materialized complement
        for L in (sl2_3, w3):
            G = build(L)
            n = G.vertex_count
            parent = list(range(n))

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for i in range(n):
                for j in range(i + 1, n):
                    if not G.rows[i] >> j & 1:
                        parent[find(i)] = find(j)
            expected = len({find(i) for i in range(n)})
            assert len(complement_components(G)) == expected


class TestExports:
    def test_dot_line_counts(self, sl2_3, tmp_path):
        path = tmp_path / "g.dot"
        export_dot(build(sl2_3), path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == 'graph "sl2@3" {'
        assert lines[-1] == "}"
        node_lines = [l for l in lines if l.endswith(";") and " -- " not in l]
        edge_lines = [l for l in lines if " -- " in l]
        assert len(node_lines) == 26
        assert len(edge_lines) == 109

    def test_dot_empty_graph(self, sl2_2, tmp_path):
        path = tmp_path / "g.dot"
        export_dot(build(sl2_2), path)
        assert path.read_text() == 'graph "sl2@2" {\n}\n'

    def test_json_empty_graph(self, sl2_2, tmp_path):
        path = tmp_path / "g.json"
        export_json(build(sl2_2), path)
        assert path.read_bytes() == \
            b'{"algebra":"sl2@2","p":2,"dim":3,"vertices":[],"edges":[]}\n'

    def test_dot_labels_are_coordinates(self, w3, tmp_path):
        path = tmp_path / "g.dot"
        export_dot(build(w3), path)
        assert '"(0,1,0)" -- "(1,1,0)";' in path.read_text()

    def test_json_round_trip_preserves_degrees(self, sl2_3, tmp_path):
        path = tmp_path / "g.json"
        G = build(sl2_3)
        export_json(G, path)
        data = json.loads(path.read_text())
        assert data["algebra"] == "sl2@3"
        assert data["p"] == 3 and data["dim"] == 3
        assert len(data["vertices"]) == 26
        assert len(data["edges"]) == 109
        degs = {m: 0 for m, _ in data["vertices"]}
        for u, v in data["edges"]:
            degs[u] += 1
            degs[v] += 1
        seq = {}
        for d in degs.values():
            seq[d] = seq.get(d, 0) + 1
        assert seq == degree_sequence(G)

    def test_json_vertices_carry_coordinates(self, sl2_3, tmp_path):
        path = tmp_path / "g.json"
        export_json(build(sl2_3), path)
        data = json.loads(path.read_text())
        for m, coords in data["vertices"]:
            assert sl2_3.vector(m) == tuple(coords)
        edge_list = data["edges"]
        assert edge_list == sorted(edge_list)

    def test_degrees_csv(self, sl2_3, tmp_path):
        path = tmp_path / "d.csv"
        export_degrees_csv(build(sl2_3), path)
        assert path.read_text() == "degree,multiplicity\n13,12\n7,8\n1,6\n"
