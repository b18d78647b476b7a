import json
from collections import Counter

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    SL2_MODULE_F7,
    build_bruteforce,
    closed_subalgebra,
    component_lists,
    components_bruteforce,
    edges_by_lists,
    edges_by_masks,
    export_dot_per_edge,
    export_json_per_edge,
    radical_by_lines,
    rows_by_masks,
    s_lie_by_elements,
    s_lie_witness_by_pairs,
    sol_members,
    solvabilizer_lengths,
    vertex_degree,
    vertices_by_lines,
    vertices_by_scan,
)
from solvgraph import graph
from solvgraph.cli import main, parse_spec
from solvgraph.graph import (
    SolvGraph,
    _edge_chunks,
    build,
    complement_components,
    components,
    degree_sequence,
    export_degrees_csv,
    export_dot,
    export_json,
)
from solvgraph.liealg import CapExceeded, from_file, make_gl, make_sl, make_so, make_t, radical
from solvgraph.solv import (
    bits,
    conjecture_sum,
    is_s_lie,
    plane_table,
    row_size,
    row_sizes,
    s_lie_witness,
    sol_of_algebra,
    solvabilizer,
)


def _assert_matches_bruteforce(L):
    G = build(L)
    vertices, edges, degrees = build_bruteforce(L)
    assert vertices_by_lines(G) == vertices
    got_edges = list(edges_by_lists(G))
    assert got_edges == sorted(got_edges) and all(m < n for m, n in got_edges)
    assert set(map(frozenset, got_edges)) == edges
    assert G.edge_count == len(edges)
    assert [vertex_degree(G, m) for m in vertices] == [degrees[m] for m in vertices]
    assert (component_lists(L, components(G)), component_lists(L, complement_components(G))) == \
        components_bruteforce(vertices, edges)


_HOSTS = (make_gl(2, 3), make_gl(3, 2))


@st.composite
def _generated_subalgebras(draw):
    L = draw(st.sampled_from(_HOSTS))
    coords = st.tuples(*[st.integers(0, L.field.p - 1)] * L.dim)
    S = closed_subalgebra(L, [draw(coords), draw(coords)])
    assume(S.dim <= 4)
    return S


def _assert_counts_match_per_element(L):
    # every count read off the row-size multiset by its lemma (see
    # solv.row_sizes), and the library's own, against counts taken per
    # element: each vertex's degree from its row, and each solvabilizer's
    # length
    G, p, N = build(L), L.field.p, L.line_count
    sizes = row_sizes(plane_table(L))
    s = sizes[N]  # sol(L)'s lines, whose rows are full
    degrees = Counter(vertex_degree(G, m) for m in vertices_by_lines(G))
    lengths = solvabilizer_lengths(L)
    by_lemma = [((p - 1) * (k - s) - 1, (p - 1) * n)
                for k, n in sorted(sizes.items(), reverse=True) if k < N]
    assert list(degree_sequence(G).items()) == by_lemma == sorted(degrees.items(), reverse=True)
    assert 2 * G.edge_count == sum(d * n for d, n in degrees.items())
    assert conjecture_sum(L)["sum"] == sum(lengths) == L.size + (p - 1) * sum(
        n * (1 + (p - 1) * k) for k, n in sizes.items())
    assert lengths.count(L.size) == 1 + (p - 1) * s == row_size(L, sol_of_algebra(L))


def _assert_matches_per_edge_writers(G, out_dir):
    # the per-row lists give the same vertices, edges and rows as per-vertex
    # masks, and the exports the same bytes as one formatted line per edge
    assert vertices_by_lines(G) == vertices_by_scan(G)
    assert list(edges_by_lists(G)) == edges_by_masks(G)
    assert G.rows == rows_by_masks(G)
    for kind, write, oracle in (("dot", export_dot, export_dot_per_edge),
                                ("json", export_json, export_json_per_edge)):
        write(G, out_dir / f"new.{kind}")
        oracle(G, out_dir / f"old.{kind}")
        assert (out_dir / f"new.{kind}").read_bytes() == (out_dir / f"old.{kind}").read_bytes()
    text = (out_dir / "new.json").read_text()
    assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"
    # one chunk per vertex with a neighbor above it, so none for the
    # highest-index vertex, whose neighbors all lie below it
    pairs = G._neighbor_lists()
    heads = []
    chunks = list(_edge_chunks(pairs, lambda m: heads.append(m) or f"{m}:",
                               {m: f"{m}," for m, _ in pairs}))
    assert heads == [m for m, ns in pairs if ns[-1] > m] and len(chunks) == len(heads)
    assert not pairs or pairs[-1][0] not in heads


class TestRandomSubalgebras:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(_generated_subalgebras())
    def test_build_matches_bruteforce(self, S):
        _assert_matches_bruteforce(S)
        assert radical(S) == radical_by_lines(S)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(_generated_subalgebras())
    def test_exports_match_per_edge_writers(self, tmp_path_factory, S):
        _assert_matches_per_edge_writers(build(S), tmp_path_factory.mktemp("exports"))

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(_generated_subalgebras())
    def test_counts_from_row_sizes_match_per_element(self, S):
        _assert_counts_match_per_element(S)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(_generated_subalgebras())
    def test_s_lie_witness_matches_pair_loop(self, S):
        # the line-bit witness search against the element-pair loop, and
        # the verdict against every solvabilizer list's span
        assert s_lie_witness(S) == s_lie_witness_by_pairs(S)
        assert is_s_lie(S) == s_lie_by_elements(S)


class TestBuild:
    def test_sl2_f2_empty(self, sl2_2):
        G = build(sl2_2)
        assert G.vertex_count == 0
        assert G.edge_count == 0

    def test_holds_the_plane_table_itself(self, sl2_3, gl2_3):
        # rows indexed by line number, shared with the algebra, not copied
        for L in (sl2_3, gl2_3):
            G = build(L)
            assert G.nbr is plane_table(L) and len(G.nbr) == L.line_count
            assert all(isinstance(row, int) for row in G.nbr)
            assert G.vertex_count == len(vertices_by_lines(G))

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
            sol = set(sol_members(L))
            assert sol.isdisjoint(vertices_by_lines(G))
            assert len(vertices_by_lines(G)) == L.size - len(sol)

    def test_no_self_loops_and_symmetry(self, sl2_3):
        G = build(sl2_3)
        rows = dict(zip(vertices_by_lines(G), G.rows))
        for m, row in rows.items():
            assert not row >> m & 1
            assert set(bits(row)) <= rows.keys()
            for n in rows:
                assert (row >> n & 1) == (rows[n] >> m & 1)

    def test_line_expansion_matches_bruteforce(self, sl2_2, sl2_3, w3, t2_3, gl2_3,
                                               zero_file, abelian_file):
        # the production graph is read off the plane table's line bitsets;
        # compare against the raw quadratic loop with fresh closures
        for L in (sl2_2, w3, sl2_3, t2_3, make_t(3, 2), gl2_3, zero_file, abelian_file):
            _assert_matches_bruteforce(L)
            # the complement walk relies on every vertex line having a
            # complement neighbor line
            G = build(L)
            assert all(G.nbr[l] & G.vertex_lines != G.vertex_lines for l in G.lines)

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
            sol_size = len(sol_members(L))
            for m in vertices_by_lines(G):
                expected = len(solvabilizer(L, L.vector(m))) - sol_size - 1
                assert vertex_degree(G, m) == expected

    def test_non_vertices_raise(self, sl2_3, gl2_3):
        # 0 and members of sol(L) are not vertices: 0 lies on no line and
        # sol(L)'s rows are full, which must not read as a degree
        scalar = gl2_3.index((1, 0, 0, 1))
        for L, missing in ((sl2_3, (0,)), (gl2_3, (0, scalar))):
            G = build(L)
            for m in missing + (-1, L.size):
                with pytest.raises(KeyError):
                    vertex_degree(G, m)

    def test_degree_sum_is_twice_edges(self, sl2_3, gl2_3):
        for L in (sl2_3, gl2_3):
            G = build(L)
            assert sum(vertex_degree(G, m) for m in vertices_by_lines(G)) == 2 * G.edge_count

    def test_empty_graph_sequence(self, sl2_2):
        assert degree_sequence(build(sl2_2)) == {}

    def test_one_line_degree_pass_per_graph(self, capsys, monkeypatch):
        # the graph's table is read in whole passes, at most three (sol(L),
        # the vertex lines and the row sizes), and a row by its line at
        # most once: verify reads each vertex line's row size once in its
        # class pass, and degrees reads the row-size multiset alone (gl2@q
        # has (q^4 - 1)/(q - 1) - 1 vertex lines)
        passes, reads = [], []

        class CountingTable(tuple):
            def __iter__(self):
                passes.append(1)
                return super().__iter__()

            def __getitem__(self, l):
                reads.append(l)
                return super().__getitem__(l)
        table = graph.plane_table
        monkeypatch.setattr(graph, "plane_table", lambda L, force=False:
                            CountingTable(table(L, force)))
        for argv, count in ((["verify", "gl2@31"], 30_783), (["verify", "gl2@5"], 155),
                            (["degrees", "gl2@5"], 0)):
            passes.clear()
            reads.clear()
            assert main(argv) == 0
            assert len(passes) <= 3, argv
            assert len(reads) == len(set(reads)) == count, argv


class TestRowSizes:
    @pytest.mark.parametrize("spec", [
        "sl2@2", "sl2@3", "sl2@7", "gl2@2", "gl2@5", "gl2@7", "t3@3", "t2@3", "w3", "so3@5",
        "gl3@2", "sl3@2", "so4@3",
        pytest.param(f"file:{SL2_MODULE_F7}", id="file:sl2_module_f7")])
    def test_counts_match_per_element(self, spec, load_once):
        _assert_counts_match_per_element(load_once(parse_spec(spec)))


class TestComponents:
    def test_sl2_f3_component_sizes(self, sl2_3):
        parts = component_lists(sl2_3, components(build(sl2_3)))
        assert [len(c) for c in parts] == [20, 2, 2, 2]

    def test_empty_graph_has_no_components(self, sl2_2):
        assert components(build(sl2_2)) == []

    def test_parts_partition_vertices(self, sl2_3, gl2_3, w3):
        for L in (sl2_3, gl2_3, w3):
            G = build(L)
            parts = component_lists(L, components(G))
            flat = sorted(m for part in parts for m in part)
            assert flat == sorted(vertices_by_lines(G))

    def test_no_edges_between_parts(self, sl2_3):
        G = build(sl2_3)
        part_of = {}
        for k, part in enumerate(component_lists(sl2_3, components(G))):
            for m in part:
                part_of[m] = k
        for m, n in edges_by_lists(G):
            assert part_of[m] == part_of[n]

    def test_sl2_f5_no_eigenvalue_components(self, sl2_5):
        # elements whose matrix has no eigenvalues sit in components of
        # size q - 1 = 4 made of their own nonzero multiples
        from solvgraph.formulas import SpectralClass, spectral_class_sl2
        G = build(sl2_5)
        part_of = {}
        parts = component_lists(sl2_5, components(G))
        for k, part in enumerate(parts):
            for m in part:
                part_of[m] = k
        for m in vertices_by_lines(G):
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
        assert [len(c) for c in component_lists(w3, components(G))] == [2, 2, 2]

    def test_component_count_law_small_q(self, sl2_3, sl2_5, gl2_3):
        # the no-eigenvalue classes contribute q(q-1)/2 small components
        # next to one large component
        for L, q in ((sl2_3, 3), (sl2_5, 5), (gl2_3, 3)):
            assert len(components(build(L))) == q * (q - 1) // 2 + 1

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

    def test_single_vertex_graph(self):
        # no algebra produces exactly one vertex (vertices come in pairs at
        # minimum), so exercise the function contract on a synthetic table
        # over the 2-dimensional abelian algebra over F_2, whose lines 0, 1
        # and 2 are the elements 1, 2 and 3: element 2's row misses line 0,
        # and the rows of elements 1 and 3 are full
        from solvgraph.ffalg import PrimeField
        from solvgraph.graph import SolvGraph
        from solvgraph.liealg import LieAlgebra
        L = LieAlgebra(PrimeField(2), [[[0, 0]] * 2] * 2)
        G = SolvGraph(L, (0b111, 0b110, 0b111))
        assert complement_components(G) == components(G) == [0b010]
        assert component_lists(L, complement_components(G)) == [[2]]
        assert component_lists(L, components(G)) == [[2]]

    def test_w3_complement_connected(self, w3):
        assert len(complement_components(build(w3))) == 1

    def test_complement_matches_materialized(self, sl2_3, w3):
        # reference: union-find over the explicitly materialized complement
        for L in (sl2_3, w3):
            G = build(L)
            n = G.vertex_count
            rows, vertices = G.rows, vertices_by_lines(G)
            parent = list(range(n))

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for i in range(n):
                for j in range(i + 1, n):
                    if not rows[i] >> vertices[j] & 1:
                        parent[find(i)] = find(j)
            expected = len({find(i) for i in range(n)})
            assert len(complement_components(G)) == expected


class _CountingDict(dict):
    """A dict that counts its item reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestExports:
    def test_match_per_edge_writers(self, sl2_2, w3, gl2_3, tmp_path):
        # sl2@2 has no vertices, nor has t3@3, whose rows are all full; w3
        # and so3@2 have p = 2, one element per line; gl2@3's and gl2@5's
        # tables are lifted, so lines share rows (q(q - 1) vertices each at
        # gl2@5); sl3@2 is classified directly; the file algebra's name needs
        # escaping, and JSON writes its non-ASCII letter as \u00e9
        table = tmp_path / 'a"b\\c\u00e9.txt'
        table.write_text("p 2\ndim 3\n0 1 1 1\n0 2 2 1\n1 2 0 1\n")
        named = from_file(table)
        assert '"' in named.name and "\\" in named.name and "\u00e9" in named.name
        for L in (sl2_2, make_t(3, 3), w3, make_so(3, 2), gl2_3, make_gl(2, 5),
                  make_sl(3, 2), named):
            _assert_matches_per_edge_writers(build(L), tmp_path)

    @pytest.mark.parametrize("make, q, entries, edges", [(make_sl, 13, 32772, 195534),
                                                         (make_gl, 5, 4220, 41890)])
    def test_one_tail_lookup_per_list_entry(self, make, q, entries, edges):
        # each distinct row's list is formatted once and shared by every
        # vertex with that row; one lookup per edge read `edges` of them
        G = build(make(2, q))
        pairs = G._neighbor_lists()
        distinct = {id(ns): ns for _, ns in pairs}
        assert sum(map(len, distinct.values())) == entries
        assert G.edge_count == edges
        tail = _CountingDict((m, str(m)) for m, _ in pairs)
        for _ in _edge_chunks(pairs, str, tail):
            pass
        assert tail.reads == entries

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

    def test_dot_header_escapes_the_name(self, tmp_path):
        for stem, header in (('w"3', 'graph "w\\"3" {'), ("a\\b", 'graph "a\\\\b" {')):
            table = tmp_path / f"{stem}.txt"
            table.write_text("p 2\ndim 3\n0 1 1 1\n0 2 2 1\n1 2 0 1\n")
            export_dot(build(from_file(table)), tmp_path / "g.dot")
            assert (tmp_path / "g.dot").read_text().splitlines()[0] == header

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
