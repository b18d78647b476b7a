"""End-to-end acceptance checks.

Each test prints one PASS line on success so a verbose run doubles as a
checklist; exact integer equality everywhere, no tolerances.  The
largest sweeps, sl2@11 and gl2@7, take milliseconds against budgets of
five minutes and one minute, so none of them carries the ``slow`` marker.
"""

import random
import subprocess
import sys
import time

from solvgraph.ffalg import rref
from solvgraph.formulas import (
    SpectralClass,
    gl2_expected,
    sl2_expected,
    spectral_class_sl2,
    spectral_counts,
)
from solvgraph.graph import build, complement_components, components, degree_sequence
from solvgraph.liealg import (
    center,
    centralizer,
    conjugation_automorphism,
    is_ideal,
    make_gl,
    make_sl,
    make_t,
    make_w3,
    radical,
    subalgebra_closure,
)
from solvgraph.solv import (
    conjecture_sum,
    divisibility_report,
    equivariance_check,
    is_s_lie,
    pair_solvable,
    s_lie_witness,
    solvabilizer,
    solvabilizer_set,
)

from oracles import (
    SL2_MODULE_F7,
    component_lists,
    direct_pair_solvable,
    quotient_compatibility_by_elements,
    sol_members,
    subspace_elements,
    vertex_degree,
    vertices_by_lines,
)


def _ok(label):
    print(f"ACCEPTANCE {label}: PASS")


def test_conjecture_sums_match_published_table():
    t0 = time.perf_counter()
    cases = (
        (make_sl(2, 3), (297, 27, 11)),
        (make_sl(2, 5), (3625, 125, 29)),
        (make_gl(2, 3), (2673, 81, 33)),
    )
    for L, expected in cases:
        res = conjecture_sum(L)
        assert res["divisible"]
        assert (res["sum"], res["order"], res["quotient"]) == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    _ok(f"divisibility sums sl2@3, sl2@5, gl2@3 ({elapsed:.2f}s)")


def test_sl2_degree_sequences_small_q():
    for q in (3, 5, 7):
        G = build(make_sl(2, q))
        assert degree_sequence(G) == sl2_expected(q)
    _ok("sl2 degree sequences, q in {3, 5, 7}")


def test_sl2_degree_sequence_q11():
    t0 = time.perf_counter()
    G = build(make_sl(2, 11))
    assert degree_sequence(G) == sl2_expected(11)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    _ok(f"sl2 degree sequence, q = 11 ({elapsed:.2f}s)")


def test_gl2_degree_sequences_small_q():
    for q in (3, 5):
        G = build(make_gl(2, q))
        assert degree_sequence(G) == gl2_expected(q)
    _ok("gl2 degree sequences, q in {3, 5}")


def test_gl2_degree_sequence_q7():
    t0 = time.perf_counter()
    G = build(make_gl(2, 7))
    assert degree_sequence(G) == gl2_expected(7)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    _ok(f"gl2 degree sequence, q = 7 ({elapsed:.2f}s)")


def test_sl2_f3_graph_structure():
    L = make_sl(2, 3)
    G = build(L)
    assert G.vertex_count == 26
    assert G.edge_count == 109
    parts = component_lists(L, components(G))
    assert [len(c) for c in parts] == [20, 2, 2, 2]
    assert vertex_degree(G, L.index((0, 0, 1))) == 13   # h
    assert vertex_degree(G, L.index((0, 1, 0))) == 7    # f
    s = L.index((1, 1, 1))                      # e + f + h
    assert vertex_degree(G, s) == 1
    row = G.rows[vertices_by_lines(G).index(s)]
    only = row & -row
    assert row == only
    assert only.bit_length() - 1 == L.index((2, 2, 2))  # 2(e + f + h)
    _ok("sl2@3 graph structure (26 vertices, 109 edges, {20,2,2,2}, degrees)")


def test_sl2_complement_connected():
    for q in (3, 5, 7):
        G = build(make_sl(2, q))
        assert len(complement_components(G)) == 1
    _ok("complement of sl2 graph connected, q in {3, 5, 7}")


def test_char2_graphs_empty():
    for L in (make_sl(2, 2), make_gl(2, 2)):
        G = build(L)
        assert G.vertex_count == 0
        assert G.edge_count == 0
    _ok("sl2@2 and gl2@2 graphs empty")


def test_char2_simple_algebra_suite():
    from oracles import all_subspaces
    L = make_w3(2)
    a, b, c = (L.basis_vector(i) for i in range(3))
    assert radical(L).dim == 0
    # simple: the only ideals in the whole subspace lattice are 0 and L
    ideal_dims = sorted(s.dim for s in all_subspaces(L) if is_ideal(L, s))
    assert ideal_dims == [0, 3]
    assert solvabilizer(L, a) == tuple(range(8))
    assert solvabilizer(L, b) == (0, 1, 2, 3)  # 0, a, b, a+b
    closure_bc = subalgebra_closure(L, [b, c])
    assert closure_bc.dim == 3
    assert not pair_solvable(L, b, c)
    verdict, witness = is_s_lie(L), s_lie_witness(L)
    assert verdict and witness is None
    sol = sol_members(L)
    assert L.index(a) in sol
    sol_span = rref([L.vector(m) for m in sol], L.field, ambient=3)
    assert not is_ideal(L, sol_span)
    _ok("char-2 simple algebra: simple, solvabilizers, S-property, sol not ideal")


def test_pair_symmetry_and_scale_invariance():
    # exhaustive at q = 2 and q = 3 with fresh closures, seeded at q = 5
    for L in (make_sl(2, 2), make_w3(2)):
        for i in range(L.size):
            for j in range(i + 1, L.size):
                x, y = L.vector(i), L.vector(j)
                assert direct_pair_solvable(L, x, y) == direct_pair_solvable(L, y, x)
    L = make_sl(2, 3)
    for i in range(L.size):
        x = L.vector(i)
        for j in range(i, L.size):
            y = L.vector(j)
            base = direct_pair_solvable(L, x, y)
            assert base == direct_pair_solvable(L, y, x)
            for al in (1, 2):
                for be in (1, 2):
                    xs = tuple(al * v % 3 for v in x)
                    ys = tuple(be * v % 3 for v in y)
                    assert direct_pair_solvable(L, xs, ys) == base
    L = make_sl(2, 5)
    rng = random.Random(100)
    for _ in range(300):
        x = tuple(rng.randrange(5) for _ in range(3))
        y = tuple(rng.randrange(5) for _ in range(3))
        base = pair_solvable(L, x, y)
        assert pair_solvable(L, y, x) == base
        al, be = rng.randrange(1, 5), rng.randrange(1, 5)
        assert pair_solvable(L, tuple(al * v % 5 for v in x),
                             tuple(be * v % 5 for v in y)) == base
    _ok("pair symmetry and scale invariance (exhaustive q=2,3; random q=5)")


def _coset_closed(L, x):
    """Whether sol_L(x) + t x lies in sol_L(x) for every t, element by element."""
    p, members = L.field.p, set(solvabilizer(L, x))
    return all(L.index(tuple((a + t * b) % p for a, b in zip(L.vector(m), x))) in members
               for m in members for t in range(1, p))


def test_divisibility_and_coset_properties():
    rng = random.Random(101)
    for L in (make_sl(2, 2), make_w3(2), make_sl(2, 3), make_gl(2, 3)):
        p = L.field.p
        for line in L.lines():
            rep = divisibility_report(L, L.vector(line[0]))
            assert rep["size"] % p == 0
            assert _coset_closed(L, L.vector(line[0]))
            if rep["sol_divides"] is not None:
                assert rep["sol_divides"]
            if rep["centralizer_divides"] is not None:
                assert rep["centralizer_divides"]
    L = make_sl(2, 5)
    for _ in range(12):
        x = tuple(rng.randrange(5) for _ in range(3))
        rep = divisibility_report(L, x)
        assert rep["size"] % 5 == 0
        assert _coset_closed(L, x)
    _ok("q | |sol_L(x)| and coset property (exhaustive q=2,3; random q=5)")


def test_centralizer_and_radical_containments():
    for L in (make_sl(2, 2), make_w3(2), make_sl(2, 3), make_gl(2, 3), make_t(2, 3)):
        sol = set(sol_members(L))
        for v in subspace_elements(radical(L)):
            assert L.index(v) in sol
        for line in L.lines():
            x = L.vector(line[0])
            members = set(solvabilizer(L, x))
            for cvec in subspace_elements(centralizer(L, x)):
                assert L.index(cvec) in members
    # randomized spot checks at q = 5
    L = make_sl(2, 5)
    rng = random.Random(104)
    for _ in range(10):
        x = tuple(rng.randrange(5) for _ in range(3))
        members = set(solvabilizer(L, x))
        for cvec in subspace_elements(centralizer(L, x)):
            assert L.index(cvec) in members
    _ok("C_L(x) inside sol_L(x) and R(L) inside sol(L)")


def test_degree_identity_everywhere():
    for L in (make_sl(2, 3), make_gl(2, 3), make_w3(2)):
        G = build(L)
        base = len(sol_members(L))
        for m in vertices_by_lines(G):
            assert vertex_degree(G, m) == len(solvabilizer(L, L.vector(m))) - base - 1
    _ok("deg(x) = |sol_L(x)| - |sol(L)| - 1 on every vertex")


def test_solvabilizer_set_identities():
    # the five set identities, with the reflexivity one reported not assumed
    violations = []
    for L in (make_sl(2, 3), make_w3(2)):
        rng = random.Random(102)
        universe = list(range(L.size))
        for _ in range(25):
            B = rng.sample(universe, rng.randrange(1, 8))
            A = rng.sample(B, rng.randrange(1, len(B) + 1))
            C = rng.sample(universe, rng.randrange(1, 8))
            sol_a_c = set(solvabilizer_set(L, A, C))
            sol_b_c = set(solvabilizer_set(L, B, C))
            assert sol_a_c <= sol_b_c
            assert set(solvabilizer_set(L, C, B)) \
                <= set(solvabilizer_set(L, C, A))
            assert sol_a_c == set(A) & sol_b_c
            assert set(solvabilizer_set(L, B, set(A) | set(C))) == \
                set(solvabilizer_set(L, B, A)) & set(solvabilizer_set(L, B, C))
            assert set(solvabilizer_set(L, B, set(A) & set(C))) >= \
                set(solvabilizer_set(L, B, A)) | set(solvabilizer_set(L, B, C))
            inner = solvabilizer_set(L, B, A)
            if set(solvabilizer_set(L, A, inner)) != set(A):
                violations.append((L.name, sorted(A), sorted(B)))
        # pointwise intersection identity and the global solvabilizer
        expected = set(range(L.size))
        for m in range(L.size):
            expected &= set(solvabilizer(L, L.vector(m)))
        assert set(sol_members(L)) == expected
    assert not violations, f"reflexivity identity violated: {violations}"
    _ok("solvabilizer set identities (monotonicity, restriction, unions, reflexivity)")


def test_sol_absorption():
    for L in (make_sl(2, 3), make_w3(2), make_gl(2, 3)):
        p = L.field.p
        sol_l = [L.vector(m) for m in sol_members(L)]
        for line in L.lines():
            x = L.vector(line[0])
            members = set(solvabilizer(L, x))
            assert all(
                L.index(tuple((u + v) % p for u, v in zip(L.vector(m), s))) in members
                for m in members for s in sol_l)
    _ok("sol(L) + sol_L(x) = sol_L(x)")


def test_automorphism_equivariance_ten_conjugations():
    L = make_sl(2, 3)
    rng = random.Random(103)
    done = 0
    while done < 10:
        g = tuple(tuple(rng.randrange(3) for _ in range(2)) for _ in range(2))
        if (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % 3 == 0:
            continue
        phi = conjugation_automorphism(L, g)
        for x in ((1, 0, 0), (0, 0, 1), (1, 1, 0)):
            assert equivariance_check(L, phi, x)
        done += 1
    _ok("solvabilizer equivariance under 10 conjugation automorphisms of sl2@3")


def test_quotient_compatibility_gl2_mod_center():
    L = make_gl(2, 3)
    N = center(L)
    assert N.size == 3
    assert quotient_compatibility_by_elements(L, N)
    # sizes divide by |N| = 3 throughout, checked against the quotient
    from solvgraph.liealg import quotient
    Q, project, _ = quotient(L, N)
    for m in range(L.size):
        x = L.vector(m)
        big = len(solvabilizer(L, x))
        small = len(solvabilizer(Q, project(x)))
        assert big == 3 * small
    _ok("quotient compatibility for gl2@3 mod its center (sizes divide by 3)")


# Linux carries the peak RSS of the process that spawns a command into the
# command's ru_maxrss at exec.  So a bare interpreter spawns it and reports
# its exit code and ru_maxrss; spawned from the test process, the figure
# could not fall below the test process's own peak.
_SPAWN_AND_WAIT = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


def _child_peak(*args):
    """Run solvgraph in a child; return its exit code, stdout and peak RSS in MB."""
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWN_AND_WAIT, "-m", "solvgraph", *args],
        capture_output=True, text=True, check=True)
    code, kib = proc.stderr.split()[-2:]
    return int(code), proc.stdout, int(kib) / 1024  # ru_maxrss is in KiB on Linux


def test_verify_sl2_f31_peak_memory():
    # the graph keeps one row per line; per-vertex rows would need ~140 MB
    code, out, peak_mb = _child_peak("verify", "sl2@31")
    assert code == 0
    assert out.splitlines()[-1] == "result=PASS"
    assert peak_mb < 60
    _ok(f"verify sl2@31 in a child with peak RSS {peak_mb:.1f} MB")


def test_verify_gl2_f17_time():
    # only the planes of gl2/center are classified (all of gl2's took ~15 s),
    # and the graph reads the table's rows as they are (renumbering them
    # took ~2.5 s)
    t0 = time.perf_counter()
    code, out, _ = _child_peak("verify", "gl2@17")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert out.splitlines()[-1] == "result=PASS"
    assert elapsed < 2
    _ok(f"verify gl2@17 in a child in {elapsed:.2f}s")


def test_verify_sl2_f61_peak_memory():
    # the graph holds the plane table's rows and verify reads one element
    # per line; per-vertex maps and loops took ~78 MB, and the |L|-long
    # line map and vertex tuple ~38 MB
    code, out, peak_mb = _child_peak("verify", "sl2@61")
    assert code == 0
    assert out.splitlines()[-1] == "result=PASS"
    assert peak_mb < 30
    _ok(f"verify sl2@61 in a child with peak RSS {peak_mb:.1f} MB")


def test_verify_sl2_f101_peak_memory():
    # lines are numbered by arithmetic, so nothing verify runs is |L|-long;
    # the materialized lines, line map and vertex tuple took ~124 MB
    code, out, peak_mb = _child_peak("verify", "sl2@101")
    assert code == 0
    assert out.splitlines()[-1] == "result=PASS"
    assert peak_mb < 45
    _ok(f"verify sl2@101 in a child with peak RSS {peak_mb:.1f} MB")


def test_graph_exports_stream(tmp_path):
    # the edge list is written as it is produced; held whole, it took ~44 MB
    code, out, peak_mb = _child_peak("graph", "sl2@13", "--json", str(tmp_path / "g.json"),
                                     "--dot", str(tmp_path / "g.dot"))
    assert code == 0
    assert out == "vertices=2196 edges=195534 components=79\n"
    assert peak_mb < 30
    _ok(f"graph sl2@13 --json --dot in a child with peak RSS {peak_mb:.1f} MB")


def test_graph_exports_sl2_f17_time(tmp_path):
    # edges are written one vertex at a time, each as one str.join over the
    # neighbors in its row's sorted list; one generator step and one
    # formatted line per edge took ~0.95 s
    t0 = time.perf_counter()
    code, out, peak_mb = _child_peak("graph", "sl2@17", "--json", str(tmp_path / "g.json"),
                                     "--dot", str(tmp_path / "g.dot"))
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert out == "vertices=4912 edges=741864 components=137\n"
    assert elapsed < 0.5
    assert peak_mb < 30
    _ok(f"graph sl2@17 --json --dot in a child in {elapsed:.2f}s with peak RSS {peak_mb:.1f} MB")


def test_complement_gl2_f31_peak_memory():
    # the complement's components are counted as line bitsets; expanded to
    # element lists they took ~64 MB
    code, out, peak_mb = _child_peak("complement", "gl2@31")
    assert code == 0
    assert out == "components=1\n"
    assert peak_mb < 40
    _ok(f"complement gl2@31 in a child with peak RSS {peak_mb:.1f} MB")


def test_conjecture_sl3_f2_time():
    # sl3@2 has zero center and is not solvable, so all 10,795 of its planes
    # are classified; re-reducing the closure's basis per new vector, a
    # derived series per plane and no skip of planes inside a solvable
    # closure already found took ~4.4 s
    t0 = time.perf_counter()
    code, out, _ = _child_peak("conjecture", "sl3@2")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert out == "sum=33280 order=256 divisible=yes quotient=130\n"
    assert elapsed < 3
    _ok(f"conjecture sl3@2 in a child in {elapsed:.2f}s")


def test_conjecture_sl2_module_f7_time():
    # sl2 acting on F_7^2 has zero center and the module as its radical, so
    # the table is lifted from L/rad(L) = sl2@7; factoring out the center,
    # which is 0 here, left all 140,050 of L's own planes to enumerate and
    # took ~8 s
    t0 = time.perf_counter()
    code, out, _ = _child_peak("conjecture", f"file:{SL2_MODULE_F7}")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert out == "sum=45294865 order=16807 divisible=yes quotient=2695\n"
    assert elapsed < 1
    _ok(f"conjecture on sl2 + F_7^2 in a child in {elapsed:.2f}s")


def test_slie_gl2_f31_time():
    # the witness is read off the failing row's line bits, one bracket and
    # p - 1 sums per line of the row; expanding the row to elements and
    # looping over its element pairs took ~8.8 s
    t0 = time.perf_counter()
    code, out, _ = _child_peak("slie", "gl2@31")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert out.splitlines() == ["s_lie=false", "witness_x=(1,0,0,0)",
                                "witness_a=(0,1,0,0)", "witness_b=(0,0,1,0)"]
    assert elapsed < 3
    _ok(f"slie gl2@31 in a child in {elapsed:.2f}s")


def test_spectral_correspondence():
    degree_of = {
        SpectralClass.NO_EIGENVALUE: lambda q: q - 2,
        SpectralClass.ONE_EIGENVALUE: lambda q: q * q - 2,
        SpectralClass.TWO_EIGENVALUES: lambda q: 2 * q * q - q - 2,
    }
    for q in (3, 5, 7):
        L = make_sl(2, q)
        G = build(L)
        tally = {cls: 0 for cls in SpectralClass}
        for m, row in zip(vertices_by_lines(G), G.rows):
            cls = spectral_class_sl2(L, L.vector(m))
            tally[cls] += 1
            assert row.bit_count() == degree_of[cls](q)
        none_n, one_n, two_n = spectral_counts(q)
        assert tally[SpectralClass.NO_EIGENVALUE] == none_n
        assert tally[SpectralClass.ONE_EIGENVALUE] == one_n
        assert tally[SpectralClass.TWO_EIGENVALUES] == two_n
    _ok("spectral class <-> degree bijection and class counts, q in {3, 5, 7}")


def test_export_determinism_across_runs(tmp_path):
    outputs = {}
    for tag in ("a", "b", "c"):
        dot = tmp_path / f"{tag}.dot"
        jsn = tmp_path / f"{tag}.json"
        csv = tmp_path / f"{tag}.csv"
        cmd = [sys.executable, "-m", "solvgraph", "graph", "sl2@3",
               "--dot", str(dot), "--json", str(jsn), "--csv", str(csv)]
        proc = subprocess.run(cmd, capture_output=True, check=True)
        outputs[tag] = (proc.stdout, dot.read_bytes(), jsn.read_bytes(),
                        csv.read_bytes())
    assert outputs["a"] == outputs["b"] == outputs["c"]
    _ok("byte-identical DOT/JSON/CSV over 3 runs")
