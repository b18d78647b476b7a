import random
import tempfile
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    center_by_intersection,
    closed_subalgebra,
    direct_pair_solvable,
    direct_sol_of_algebra,
    direct_solvabilizer,
    direct_sum,
    divisibility_by_elements,
    equivariance_by_elements,
    is_additively_closed_indices,
    lines_by_scan,
    permuted_sl2_3_file,
    quotient_compatibility_by_elements,
    first_failing_pair,
    radical_by_lines,
    s_lie_by_elements,
    s_lie_witness_by_pairs,
    sl2_semidirect,
    sol_members,
    subspace_elements,
)
from solvgraph import liealg, solv
from solvgraph.cli import main, parse_spec
from solvgraph.ffalg import rref
from solvgraph.graph import build, complement_components, components
from solvgraph.formulas import spectral_class_sl2
from solvgraph.liealg import (
    CapExceeded,
    LieAlgebra,
    LinearMap,
    center,
    centralizer,
    conjugation_automorphism,
    from_file,
    is_solvable,
    make_gl,
    make_sl,
    make_so,
    make_t,
    make_w3,
    quotient,
    radical,
    to_file,
)
from solvgraph.solv import (
    _rref_planes,
    bits,
    conjecture_sum,
    divisibility_report,
    elements,
    equivariance_check,
    is_s_lie,
    pair_solvable,
    plane_table,
    row_size,
    s_lie_witness,
    sol_lines,
    sol_of_algebra,
    solvabilizer,
    solvabilizer_set,
)

# frozen by the elementwise oracle: indices of sol_L(h) in sl2(F_3)
SL2_3_SOL_H = (0, 1, 2, 3, 6, 9, 10, 11, 12, 15, 18, 19, 20, 21, 24)

# frozen lexicographically smallest failing triple in sl2(F_3): the first
# solvabilizer that is not additively closed belongs to e+f (index 4)
SL2_3_WITNESS = ((1, 1, 0), (1, 0, 1), (2, 0, 1))


class TestPairSolvable:
    def test_h_with_e(self, sl2_3):
        assert pair_solvable(sl2_3, (0, 0, 1), (1, 0, 0))

    def test_h_with_e_plus_f(self, sl2_3):
        assert not pair_solvable(sl2_3, (0, 0, 1), (1, 1, 0))

    def test_anything_with_zero(self, sl2_3, w3):
        for L in (sl2_3, w3):
            for m in range(L.size):
                assert pair_solvable(L, L.vector(m), L.zero())

    def test_b_with_c_in_w3(self, w3):
        assert not pair_solvable(w3, (0, 1, 0), (0, 0, 1))

    def test_cache_agrees_with_direct_computation(self, sl2_3, w3):
        # the plane table assumes the generated subalgebra only depends on
        # the span of the pair; check its bit for every pair against fresh
        # closures
        for L in (sl2_3, w3):
            nbr = plane_table(L)
            for i in range(L.size):
                for j in range(L.size):
                    bit = i == 0 or j == 0 or bool(
                        nbr[L.line(L.vector(i))] >> L.line(L.vector(j)) & 1)
                    assert bit == direct_pair_solvable(L, L.vector(i), L.vector(j))

    def test_symmetry_exhaustive_small_fields(self, sl2_2, sl2_3, w3):
        for L in (sl2_2, w3, sl2_3):
            for i in range(L.size):
                x = L.vector(i)
                for j in range(i + 1, L.size):
                    y = L.vector(j)
                    assert direct_pair_solvable(L, x, y) == \
                        direct_pair_solvable(L, y, x)

    def test_scale_invariance_exhaustive_f3(self, sl2_3):
        L = sl2_3
        for i in range(L.size):
            x = L.vector(i)
            for j in range(i, L.size):
                y = L.vector(j)
                base = direct_pair_solvable(L, x, y)
                for a in (1, 2):
                    for b in (1, 2):
                        xs = tuple(a * v % 3 for v in x)
                        ys = tuple(b * v % 3 for v in y)
                        assert direct_pair_solvable(L, xs, ys) == base

    def test_scale_invariance_randomized_f5(self, sl2_5):
        L = sl2_5
        rng = random.Random(20)
        for _ in range(200):
            x = tuple(rng.randrange(5) for _ in range(3))
            y = tuple(rng.randrange(5) for _ in range(3))
            base = pair_solvable(L, x, y)
            a, b = rng.randrange(1, 5), rng.randrange(1, 5)
            xs = tuple(a * v % 5 for v in x)
            ys = tuple(b * v % 5 for v in y)
            assert pair_solvable(L, xs, ys) == base
            assert pair_solvable(L, y, x) == base


def gaussian_binomial_2(n, p):
    """Number of two-dimensional subspaces of F_p^n."""
    return (p**n - 1) * (p**(n - 1) - 1) // ((p * p - 1) * (p - 1))


def _count_table_work(monkeypatch):
    """Patch solv and LieAlgebra so that every closure and every bracket run
    inside _classified_rows are appended, as the closure's generators and
    the bracket's operands, to the two returned lists."""
    from solvgraph import solv
    closures, brackets, inside = [], [], []
    real_rows, real_closure = solv._classified_rows, solv.subalgebra_closure
    real_bracket = LieAlgebra.bracket

    def rows(L):
        inside.append(L)
        try:
            return real_rows(L)
        finally:
            inside.pop()

    def closure(L, generators):
        if inside:
            closures.append(generators)
        return real_closure(L, generators)

    def bracket(L, x, y):
        if inside:
            brackets.append((x, y))
        return real_bracket(L, x, y)

    monkeypatch.setattr(solv, "_classified_rows", rows)
    monkeypatch.setattr(solv, "subalgebra_closure", closure)
    monkeypatch.setattr(LieAlgebra, "bracket", bracket)
    return closures, brackets


class TestPlaneTable:
    def test_plane_count_is_gaussian_binomial(self, sl2_2, sl2_3, w3, t2_3, gl2_3):
        # each yielded pair is an RREF basis of a distinct plane, and there
        # are [n 2]_p of them, so every plane is visited exactly once
        for L in (sl2_2, sl2_3, w3, t2_3, make_t(3, 2), gl2_3):
            planes = list(_rref_planes(L.dim, L.field.p))
            assert len(planes) == gaussian_binomial_2(L.dim, L.field.p)
            spans = [rref(pair, L.field, ambient=L.dim) for pair in planes]
            assert [span.basis for span in spans] == planes
            assert len(set(spans)) == len(planes)

    @staticmethod
    def _classifications(monkeypatch, capsys, argv):
        """Run the CLI once; return its stdout and the numbers of closures
        and brackets the table ran."""
        from solvgraph import cli
        closures, brackets = _count_table_work(monkeypatch)
        assert cli.main(argv) == 0
        return capsys.readouterr().out, len(closures), len(brackets)

    def test_each_plane_classified_once_per_conjecture_run(self, monkeypatch, capsys):
        # sl2 has dimension 3 and radical 0, so each plane is classified by
        # its one bracket, with no closure
        out, closures, brackets = self._classifications(monkeypatch, capsys, ["conjecture", "sl2@5"])
        assert out == "sum=3625 order=125 divisible=yes quotient=29\n"
        assert (closures, brackets) == (0, gaussian_binomial_2(3, 5))

    def test_only_planes_of_the_quotient_classified(self, monkeypatch, capsys):
        # gl2 has center the scalars, and gl2/center (pgl2, of dimension 3)
        # has [3 2]_5 planes, each classified by one bracket
        out, closures, brackets = self._classifications(monkeypatch, capsys, ["conjecture", "gl2@5"])
        assert out == "sum=90625 order=625 divisible=yes quotient=145\n"
        assert (closures, brackets) == (0, gaussian_binomial_2(3, 5))

    def test_solvable_algebra_classifies_no_plane(self, monkeypatch, capsys):
        # t3 is solvable, so every verdict is known in advance
        out, closures, brackets = self._classifications(monkeypatch, capsys, ["info", "t3@3"])
        assert out == ("algebra=t3@3\np=3\ndim=6\norder=729\nsolvable=true\n"
                       "sol_size=729\nradical_dim=6\nradical_size=729\ns_lie=true\n")
        assert (closures, brackets) == (0, 0)

    def test_conjecture_sl3_f2_brackets(self, monkeypatch, capsys):
        # sl3@2 has dimension 8, so its planes run closures; a closure that
        # bracketed the vector completing L as well ran 127,563 brackets
        from solvgraph import cli
        brackets = _count_calls(monkeypatch, LieAlgebra, "bracket")
        assert cli.main(["conjecture", "sl3@2"]) == 0
        assert capsys.readouterr().out == "sum=33280 order=256 divisible=yes quotient=130\n"
        assert len(brackets) <= 111_491


class TestThreeDimensionalRule:
    """A plane of an algebra of dimension 3 with radical 0 is solvable iff
    it is closed under its one bracket; the tables it gives against the
    reference closure of every plane."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda tmp: make_sl(2, 3), id="sl2@3"),
        pytest.param(lambda tmp: make_sl(2, 5), id="sl2@5"),
        pytest.param(lambda tmp: make_sl(2, 7), id="sl2@7"),
        pytest.param(lambda tmp: make_so(3, 5), id="so3@5"),
        pytest.param(lambda tmp: make_w3(2), id="w3"),
        pytest.param(lambda tmp: make_gl(2, 3), id="gl2@3"),
        pytest.param(lambda tmp: make_gl(2, 5), id="gl2@5"),
        pytest.param(lambda tmp: from_file(permuted_sl2_3_file(tmp)),
                     id="file:sl2@3-permuted")])
    def test_table_matches_oracle(self, build, tmp_path, monkeypatch):
        # gl2's table is lifted from gl2/center, pgl2, of dimension 3; every
        # other algebra here is classified itself
        closures, brackets = _count_table_work(monkeypatch)
        L = build(tmp_path)
        _assert_table_matches_oracle(L)
        Q = L._quotient[0] if L._quotient else L
        assert (Q.dim, Q._radical.dim) == (3, 0)
        assert (len(closures), len(brackets)) == (0, gaussian_binomial_2(3, L.field.p))


def _lines_and_edges(G):
    return G.lines, G.edge_count


class TestPlaneTableGate:
    def test_every_query_checks_the_cap_with_the_table_built(self, sl2_5, monkeypatch):
        x = (1, 0, 0)
        queries = {
            "solvabilizer of 0": lambda **kw: solvabilizer(sl2_5, sl2_5.zero(), **kw),
            "solvabilizer": lambda **kw: solvabilizer(sl2_5, x, **kw),
            "sol_of_algebra": lambda **kw: sol_of_algebra(sl2_5, **kw),
            "is_s_lie": lambda **kw: is_s_lie(sl2_5, **kw),
            "s_lie_witness": lambda **kw: s_lie_witness(sl2_5, **kw),
            "conjecture_sum": lambda **kw: conjecture_sum(sl2_5, **kw),
            "divisibility_report": lambda **kw: divisibility_report(sl2_5, x, **kw),
            "build": lambda **kw: _lines_and_edges(build(sl2_5, **kw)),
        }
        answers = {name: query() for name, query in queries.items()}  # builds the table
        monkeypatch.setenv("SOLVGRAPH_CAP", "100")  # |sl2@5| = 125
        for name, query in queries.items():
            with pytest.raises(CapExceeded):
                query()
            assert query(force=True) == answers[name], name
        with pytest.raises(CapExceeded):
            solvabilizer_set(sl2_5, [1], [2])


class TestBits:
    @settings(derandomize=True)
    @given(st.integers(min_value=0, max_value=2**200))
    def test_lists_set_bit_positions_ascending(self, m):
        assert list(bits(m)) == [i for i in range(m.bit_length()) if m >> i & 1]


class TestSolvabilizer:
    def test_w3_a_sees_everything(self, w3):
        assert solvabilizer(w3, (1, 0, 0)) == tuple(range(8))

    def test_w3_b(self, w3):
        # 0, a, b, a+b
        assert solvabilizer(w3, (0, 1, 0)) == (0, 1, 2, 3)

    def test_sl2_3_h(self, sl2_3):
        sol = solvabilizer(sl2_3, (0, 0, 1))
        assert len(sol) == 15
        assert sol == SL2_3_SOL_H

    def test_zero_sees_everything(self, sl2_3, w3, gl2_3, t2_3):
        point, _, _ = quotient(t2_3, t2_3.full_space())  # zero-dimensional
        for L in (sl2_3, w3, gl2_3, t2_3, point):
            assert solvabilizer(L, L.zero()) == tuple(range(L.size))

    def test_matches_elementwise_oracle(self, sl2_2, sl2_3, w3, t2_3, gl2_3):
        for L in (sl2_2, w3, sl2_3, t2_3, gl2_3):
            for line in L.lines()[:6]:
                x = L.vector(line[0])
                assert solvabilizer(L, x) == direct_solvabilizer(L, x)

    def test_wrong_length_element_rejected(self, sl2_3):
        # L.index takes any length, so a wrong one would name another element
        eye = LinearMap(sl2_3.field, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        queries = (solvabilizer, divisibility_report, centralizer, spectral_class_sl2,
                   lambda L, x: equivariance_check(L, eye, x))
        for x, n in (((1,), 1), ((0, 1), 2), ((1, 0, 0, 0), 4), ((0, 0, 0, 1), 4)):
            for query in queries:
                with pytest.raises(ValueError, match=f"^expected 3 coordinates, got {n}$"):
                    query(sl2_3, x)

    def test_elements_rejects_bits_past_the_last_line(self, sl2_3):
        # 0 is on no line, so a bit past the last one must not read as 0
        for mask in (1 << 13, -1, (1 << 14) - 1):
            with pytest.raises(ValueError, match="outside lines 0..12$"):
                elements(sl2_3, mask)
        assert elements(sl2_3, (1 << 13) - 1) == list(range(1, 27))

    def test_row_size_rejects_bits_past_the_last_line(self, sl2_3):
        # a bit past the last line, or a negative bitset, counts no line
        for mask in (1 << 20, -1, (1 << 14) - 1):
            with pytest.raises(ValueError, match="outside lines 0..12$"):
                row_size(sl2_3, mask)
        assert row_size(sl2_3, (1 << 13) - 1) == 27

    def test_own_multiples_always_present(self, sl2_3, w3):
        for L in (sl2_3, w3):
            p = L.field.p
            for line in L.lines():
                x = L.vector(line[0])
                members = set(solvabilizer(L, x))
                for t in range(p):
                    assert L.index(tuple(t * v % p for v in x)) in members


class TestSolvabilizerSet:
    def test_empty_a_gives_empty(self, w3):
        assert solvabilizer_set(w3, [], [1, 2]) == ()

    def test_empty_b_gives_a(self, w3):
        assert solvabilizer_set(w3, [3, 1, 2], []) == (1, 2, 3)

    def test_w3_whole_algebra_against_b(self, w3):
        assert solvabilizer_set(w3, range(8), [2]) == (0, 1, 2, 3)

    def test_out_of_range_index_rejected(self, w3, sl2_3):
        # without the check, -1 and |L| + 1 would name elements |L| - 1 and
        # 1; the one check is LieAlgebra.vector's, in A and in B
        for L in (w3, sl2_3):
            for bad in (-1, L.size, L.size + 1):
                for A, B in (([1, bad], [2]), ([1], [2, bad])):
                    message = rf"^element index {bad} is outside 0\.\.{L.size - 1}$"
                    with pytest.raises(ValueError, match=message):
                        solvabilizer_set(L, A, B)

    def test_monotonicity_and_intersection_identities(self, sl2_3, w3):
        # for A subset of B: sol_A(C) = A n sol_B(C) and the two
        # inclusion directions; plus the union/intersection laws
        for L in (sl2_3, w3):
            rng = random.Random(21)
            universe = list(range(L.size))
            for _ in range(20):
                B = rng.sample(universe, rng.randrange(1, 8))
                A = rng.sample(B, rng.randrange(1, len(B) + 1))
                C = rng.sample(universe, rng.randrange(1, 8))
                sol_a_c = set(solvabilizer_set(L, A, C))
                sol_b_c = set(solvabilizer_set(L, B, C))
                assert sol_a_c <= sol_b_c
                assert set(solvabilizer_set(L, C, B)) <= set(solvabilizer_set(L, C, A))
                assert sol_a_c == set(A) & sol_b_c
                union = set(A) | set(C)
                inter = set(A) & set(C)
                sol_c_union = set(solvabilizer_set(L, B, union))
                assert sol_c_union == (set(solvabilizer_set(L, B, A))
                                       & set(solvabilizer_set(L, B, C)))
                sol_c_inter = set(solvabilizer_set(L, B, inter))
                assert sol_c_inter >= (set(solvabilizer_set(L, B, A))
                                       | set(solvabilizer_set(L, B, C)))

    def test_reflexivity_identity_reported(self, sl2_3, w3):
        # sol_A(sol_B(A)) should give back A; collect violations instead of
        # asserting pair by pair so a failure names the offending sets
        violations = []
        for L in (sl2_3, w3):
            rng = random.Random(22)
            universe = list(range(L.size))
            for _ in range(25):
                A = rng.sample(universe, rng.randrange(1, 8))
                B = rng.sample(universe, rng.randrange(1, 8))
                inner = solvabilizer_set(L, B, A)
                outer = solvabilizer_set(L, A, inner)
                if set(outer) != set(A):
                    violations.append((L.name, sorted(A), sorted(B), outer))
        assert not violations, f"reflexivity identity failed: {violations}"

    def test_pointwise_intersection_identity(self, w3):
        # sol_A(B) = intersection over b of sol_A({b})
        universe = list(range(8))
        rng = random.Random(23)
        for _ in range(20):
            A = rng.sample(universe, rng.randrange(1, 8))
            B = rng.sample(universe, rng.randrange(1, 8))
            expected = set(A)
            for b in B:
                expected &= set(solvabilizer_set(w3, A, [b]))
            assert set(solvabilizer_set(w3, A, B)) == expected


class TestSolOfAlgebra:
    def test_sl2_f3_trivial(self, sl2_3):
        assert sol_of_algebra(sl2_3) == 0
        assert sol_members(sl2_3) == (0,)

    def test_sl2_f2_everything(self, sl2_2):
        assert sol_members(sl2_2) == tuple(range(8))

    def test_gl2_f3_scalars(self, gl2_3):
        got = sol_members(gl2_3)
        scalars = sorted(gl2_3.index((t, 0, 0, t)) for t in range(3))
        assert got == tuple(scalars)

    def test_agrees_with_elementwise_oracle(self, sl2_2, sl2_3, w3, gl2_3, t2_3):
        for L in (sl2_2, w3, sl2_3, gl2_3, t2_3):
            assert sol_members(L) == direct_sol_of_algebra(L)

    def test_sol_lines_are_the_full_rows(self, sl2_2, sl2_3, gl2_3):
        assert sol_lines(plane_table(sl2_2)) == (1 << sl2_2.line_count) - 1
        assert sol_lines(plane_table(sl2_3)) == 0
        assert sol_lines(plane_table(gl2_3)) == 1 << gl2_3.line((1, 0, 0, 1))
        assert sol_lines((0b111, 0b011, 0b101)) == 0b001

    def test_equals_intersection_of_solvabilizers(self, sl2_3, w3):
        for L in (sl2_3, w3):
            expected = set(range(L.size))
            for m in range(L.size):
                expected &= set(solvabilizer(L, L.vector(m)))
            assert set(sol_members(L)) == expected

    def test_absorbed_by_every_solvabilizer(self, sl2_3, w3, gl2_3):
        # sol(L) + sol_L(x) = sol_L(x), elementwise
        for L in (sl2_3, w3, gl2_3):
            p = L.field.p
            sol_l = [L.vector(m) for m in sol_members(L)]
            for line in L.lines()[:8]:
                x = L.vector(line[0])
                members = set(solvabilizer(L, x))
                for a in list(members):
                    av = L.vector(a)
                    for s in sol_l:
                        shifted = tuple((u + v) % p for u, v in zip(av, s))
                        assert L.index(shifted) in members


class TestSLie:
    def test_w3_is_s_lie(self, w3):
        assert (is_s_lie(w3), s_lie_witness(w3)) == (True, None)

    def test_solvable_algebra_is_s_lie(self, t2_3):
        verdict, witness = is_s_lie(t2_3), s_lie_witness(t2_3)
        assert verdict and witness is None

    def test_sl2_f3_fails_with_smallest_witness(self, sl2_3):
        verdict, witness = is_s_lie(sl2_3), s_lie_witness(sl2_3)
        assert not verdict
        assert witness == SL2_3_WITNESS

    def test_witness_is_valid(self, sl2_3):
        x, a, b = s_lie_witness(sl2_3)
        members = set(solvabilizer(sl2_3, x))
        assert sl2_3.index(a) in members
        assert sl2_3.index(b) in members
        total = tuple((u + v) % 3 for u, v in zip(a, b))
        assert (sl2_3.index(total) not in members
                or sl2_3.index(sl2_3.bracket(a, b)) not in members)

    def test_classic_sum_escape_from_h(self, sl2_3):
        # e and f both pair solvably with h, yet e+f does not: the standard
        # demonstration that a solvabilizer need not be closed under addition
        sol_h = set(solvabilizer(sl2_3, (0, 0, 1)))
        assert sl2_3.index((1, 0, 0)) in sol_h
        assert sl2_3.index((0, 1, 0)) in sol_h
        assert sl2_3.index((1, 1, 0)) not in sol_h

    def test_verdict_matches_elementwise_oracle(self, sl2_2, sl2_3, w3, t2_3, gl2_3,
                                                zero_file, abelian_file):
        # S-Lie iff every direct solvabilizer is additively and bracket closed
        for L in (sl2_2, sl2_3, w3, t2_3, make_t(3, 2), gl2_3, zero_file, abelian_file):
            expected = True
            for m in range(L.size):
                sol = direct_solvabilizer(L, L.vector(m))
                members = set(sol)
                if not (is_additively_closed_indices(L, sol) and all(
                        L.index(L.bracket(L.vector(a), L.vector(b))) in members
                        for a in sol for b in sol)):
                    expected = False
                    break
            assert is_s_lie(L) == expected, L.name
        # too large for the direct loop: every solvabilizer list's span
        # against the list, with the full rows of t3 and of gl2's center
        for L in (make_t(3, 3), make_gl(2, 5)):
            assert is_s_lie(L) == s_lie_by_elements(L), L.name

    def test_s_lie_example_solvabilizers_are_subalgebras(self, w3):
        # every solvabilizer of the char-2 simple algebra is a subalgebra:
        # they are spans of (a and one other line), checked additively here
        for line in w3.lines():
            x = w3.vector(line[0])
            sol = solvabilizer(w3, x)
            assert is_additively_closed_indices(w3, sol)


class TestConjectureSum:
    def test_published_values(self, sl2_3, sl2_5, gl2_3):
        assert conjecture_sum(sl2_3) == {"sum": 297, "order": 27, "divisible": True, "quotient": 11}
        assert conjecture_sum(sl2_5) == {"sum": 3625, "order": 125, "divisible": True, "quotient": 29}
        assert conjecture_sum(gl2_3) == {"sum": 2673, "order": 81, "divisible": True, "quotient": 33}
        # the fields the conjecture command prints, in its order
        assert list(conjecture_sum(sl2_3)) == ["sum", "order", "divisible", "quotient"]

    def test_line_shortcut_matches_direct_sum(self, sl2_2, sl2_3, w3, t2_3, gl2_3):
        for L in (sl2_2, sl2_3, w3, t2_3, make_t(3, 2), gl2_3):
            direct = sum(len(direct_solvabilizer(L, L.vector(m)))
                         for m in range(L.size))
            assert conjecture_sum(L)["sum"] == direct

    def test_solvable_algebra_distribution(self, t2_3):
        res = conjecture_sum(t2_3)
        # every solvabilizer is the whole algebra
        assert res["sum"] == t2_3.size ** 2
        assert res["divisible"] and res["quotient"] == t2_3.size

    def test_quotient_exact_type(self, sl2_3):
        res = conjecture_sum(sl2_3)
        assert isinstance(res["quotient"], int)
        assert Fraction(res["sum"], res["order"]) == res["quotient"]


def _count_series_and_quotients(monkeypatch):
    """Patch liealg and solv so that every derived series and every quotient
    is counted in the returned dict."""
    counts = {"derived_series": 0, "quotient": 0}
    for name in counts:
        real = getattr(liealg, name)

        def counted(*args, name=name, real=real, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        for module in (liealg, solv):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return counts


def _count_calls(monkeypatch, owner, name):
    """Patch owner.name so that its calls are counted in the returned list."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


class TestOneSolvableIdealPerAlgebra:
    """rad(L), the one solvable ideal, and L/rad(L) are derived once per
    algebra and kept on L; fresh algebras each time, as fixtures may carry
    them already."""

    def test_radical_of_a_simple_algebra_runs_one_series(self, monkeypatch):
        # one series of sl2, which shows it is not solvable and so, at
        # dimension 3, settles its radical as 0 with no ideal closure
        counts = _count_series_and_quotients(monkeypatch)
        assert radical(make_sl(2, 11)).dim == 0
        assert counts["derived_series"] <= 1

    @pytest.mark.parametrize("build", [lambda: make_sl(2, 13), lambda: make_gl(2, 7),
                                       lambda: make_so(3, 5)],
                             ids=["sl2@13", "gl2@7", "so3@5"])
    def test_no_line_search_where_a_series_decides(self, build, monkeypatch):
        # sl2 and so3 are not solvable and of dimension 3, and gl2's radical
        # is its center, as pgl2's is 0: the radical enumerates no line, and
        # neither it nor the table runs an ideal closure
        L = build()
        closures = _count_calls(monkeypatch, liealg, "ideal_closure")
        reps = _count_calls(monkeypatch, LieAlgebra, "line_rep")
        radical(L)
        assert reps == []
        plane_table(L)
        assert closures == []

    def test_info_gl2_runs_no_ideal_closure(self, monkeypatch, capsys):
        closures = _count_calls(monkeypatch, liealg, "ideal_closure")
        assert main(["info", "gl2@7"]) == 0
        assert "radical_dim=1" in capsys.readouterr().out
        assert closures == []

    def test_verdict_over_the_cap_enumerates_no_line(self, monkeypatch):
        # so5@101 has zero center and |L| far over the cap: its verdict is
        # one derived series, with no radical search
        L = make_so(5, 101)
        reps = _count_calls(monkeypatch, LieAlgebra, "line_rep")
        assert is_solvable(L) is False
        assert reps == [] and L._radical is None

    def test_pair_sweep_runs_one_series(self, monkeypatch):
        # every closure <e, y> in sl2 has dimension at most 2 or is all of
        # sl2; only the verdict on sl2 itself runs a series, once
        L = make_sl(2, 5)
        counts = _count_series_and_quotients(monkeypatch)
        verdicts = [pair_solvable(L, (1, 0, 0), L.vector(m)) for m in range(L.size)]
        assert verdicts.count(True) == len(solvabilizer(L, (1, 0, 0)))
        assert counts["derived_series"] <= 1

    @pytest.mark.parametrize("spec", ["sl2@11", "gl2@7", "so4@3"])
    def test_s_verdict_is_one_closure_per_row(self, spec, monkeypatch, load_once):
        # each distinct row that is not full is examined by one closure of
        # its lines, with no span first; the table is built before the
        # count starts, so it may be one that other tests built
        L = load_once(parse_spec(spec))
        nbr = plane_table(L)
        closures = []

        def refuse(*args, **kwargs):
            raise AssertionError("a row was spanned")
        real = solv.subalgebra_closure
        monkeypatch.setattr(solv, "rref", refuse)
        monkeypatch.setattr(solv, "subalgebra_closure",
                            lambda *args: closures.append(1) or real(*args))
        l = solv._failing_line(L)
        examined = set(nbr if l is None else nbr[:l + 1]) - {(1 << L.line_count) - 1}
        assert len(closures) == len(examined) > 0

    @pytest.mark.parametrize("spec,most", [("gl2@7", 2), ("t3@3", 1)])
    def test_info_derives_each_ideal_once(self, spec, most, monkeypatch, capsys):
        counts = _count_series_and_quotients(monkeypatch)
        assert main(["info", spec]) == 0
        capsys.readouterr()
        assert counts["derived_series"] <= most

    def test_solvable_algebra_table_builds_no_quotient(self, monkeypatch):
        counts = _count_series_and_quotients(monkeypatch)
        for L in (make_t(2, 3), make_t(3, 3)):
            full = (1 << L.line_count) - 1
            assert plane_table(L) == (full,) * L.line_count
        assert counts["quotient"] == 0

    def test_full_rows_need_no_span_or_closure(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a full row was spanned or closed")
        monkeypatch.setattr(solv, "rref", refuse)
        monkeypatch.setattr(solv, "subalgebra_closure", refuse)
        assert solv._failing_line(make_t(3, 3)) is None

    def test_table_radical_and_verdict_share_one_ideal(self, monkeypatch):
        L = make_gl(2, 5)
        counts = _count_series_and_quotients(monkeypatch)
        plane_table(L)
        radical(L)
        series = counts["derived_series"]
        assert liealg.is_solvable(L) is False
        assert counts == {"derived_series": series, "quotient": 1}


class TestDivisibilityReport:
    def test_sl2_3_h(self, sl2_3):
        rep = divisibility_report(sl2_3, (3, 0, -2))
        # the fields the solvabilizer command prints, in its order, but members
        assert list(rep) == ["element", "size", "p_divides", "sol_size", "sol_divides",
                             "centralizer_size", "centralizer_divides", "coset_closed"]
        assert rep["element"] == (0, 0, 1)  # reduced mod p
        assert rep["size"] == 15
        assert rep["p_divides"]
        assert rep["sol_size"] == 1
        assert rep["sol_divides"] is True
        assert rep["centralizer_size"] == 3
        assert rep["centralizer_divides"] is None  # not an S-Lie algebra
        assert rep["coset_closed"]

    def test_w3_b(self, w3):
        rep = divisibility_report(w3, (0, 1, 0))
        assert rep["size"] == 4
        assert rep["p_divides"]
        assert rep["sol_size"] == 2
        assert rep["sol_divides"] is True
        assert rep["centralizer_size"] == 2
        assert rep["centralizer_divides"] is True
        assert rep["coset_closed"]

    def test_zero_element(self, w3):
        rep = divisibility_report(w3, (0, 0, 0))
        assert rep["size"] == 8
        assert rep["p_divides"] and rep["sol_divides"] and rep["centralizer_divides"]
        assert rep["coset_closed"]

    def test_p_divides_and_coset_everywhere_small(self, sl2_2, sl2_3, w3, gl2_3):
        for L in (sl2_2, w3, sl2_3, gl2_3):
            p = L.field.p
            for line in L.lines():
                rep = divisibility_report(L, L.vector(line[0]))
                assert rep["size"] % p == 0
                assert rep["coset_closed"]

    def test_full_rows_form_no_span_and_no_sums(self, monkeypatch):
        # t3 is solvable, so x's row and sol(L) both hold every line: each
        # is L, a subspace, so neither is spanned nor expanded to vectors
        calls = []

        def counted(name):
            real = getattr(solv, name)
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)
        for name in ("rref", "_reps", "_lines_through"):
            monkeypatch.setattr(solv, name, counted(name))
        for L in (make_t(3, 3), make_t(3, 5)):
            rep = divisibility_report(L, (1, 0, 0, 0, 0, 0))
            assert (rep["size"], rep["sol_size"]) == (L.size, L.size), L.name
            assert rep["sol_divides"] and rep["centralizer_divides"] and rep["coset_closed"], L.name
        assert calls == []

    @pytest.mark.parametrize("build,x", [(lambda: make_sl(2, 5), (1, 0, 0)),
                                         (lambda: make_gl(2, 7), (1, 2, 3, 4))],
                             ids=["sl2@5", "gl2@7"])
    def test_coset_property_forms_no_sums(self, build, x, monkeypatch):
        # sol_L(x) + t x = sol_L(x) holds by construction of the table, which
        # stores one verdict per plane: with the table built, a report on a
        # row that is not full projects no coset sum onto a line
        L = build()
        assert plane_table(L)[L.line(x)] != (1 << L.line_count) - 1
        calls = _count_calls(monkeypatch, solv, "_lines_through")
        assert divisibility_report(L, x)["coset_closed"]
        assert calls == []

    def test_centralizer_inside_solvabilizer(self, sl2_3, w3, gl2_3):
        for L in (sl2_3, w3, gl2_3):
            for line in L.lines():
                x = L.vector(line[0])
                members = set(solvabilizer(L, x))
                for c in subspace_elements(centralizer(L, x)):
                    assert L.index(c) in members

    def test_radical_inside_sol(self, sl2_3, w3, gl2_3, t2_3):
        for L in (sl2_3, w3, gl2_3, t2_3):
            members = set(sol_members(L))
            for v in subspace_elements(radical(L)):
                assert L.index(v) in members


class TestEquivariance:
    def test_identity_map(self, sl2_3):
        eye = LinearMap(sl2_3.field, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert equivariance_check(sl2_3, eye, (1, 0, 0))

    def test_swap_conjugation_on_e(self, sl2_3):
        phi = conjugation_automorphism(sl2_3, ((0, 1), (1, 0)))
        assert equivariance_check(sl2_3, phi, (1, 0, 0))
        # and directly: sol_L(f) is the image of sol_L(e)
        sol_e = solvabilizer(sl2_3, (1, 0, 0))
        image = sorted(sl2_3.index(phi.apply(sl2_3.vector(m))) for m in sol_e)
        assert tuple(image) == solvabilizer(sl2_3, (0, 1, 0))

    def test_scaling_leaves_solvabilizer_alone(self, sl2_3):
        assert solvabilizer(sl2_3, (0, 0, 2)) == solvabilizer(sl2_3, (0, 0, 1))

    def test_invalid_map_rejected(self, sl2_3):
        broken = LinearMap(sl2_3.field, ((1, 0, 0), (0, 1, 0), (0, 1, 0)))
        with pytest.raises(ValueError, match="automorphism"):
            equivariance_check(sl2_3, broken, (1, 0, 0))


def _assert_table_matches_oracle(L):
    """The table bits of every pair of distinct lines, both ways, equal a
    fresh reference closure of the plane the pair spans.

    The verdict depends only on the plane, so the reference runs once per
    plane of _rref_planes, and the plane's p + 1 lines, r1 and r2 + t r1,
    are checked pairwise.  Two lines span one plane, so the pairs checked
    number C(lines, 2) only when no plane is missed.
    """
    nbr, p = plane_table(L), L.field.p
    for i, line in enumerate(lines_by_scan(L)):
        assert L.line(L.vector(line[0])) == i
    checked = set()
    for r1, r2 in _rref_planes(L.dim, p):
        verdict = direct_pair_solvable(L, r1, r2)
        lines = [L.line(r1)] + [L.line([(b + t * a) % p for a, b in zip(r1, r2)])
                                for t in range(p)]
        for k, i in enumerate(lines):
            for j in lines[k + 1:]:
                assert bool(nbr[i] >> j & 1) == verdict == bool(nbr[j] >> i & 1)
                checked.add((min(i, j), max(i, j)))
    assert len(checked) == comb(L.line_count, 2)


def _assert_table_lifts_from(L, N):
    """L's table against the reference on the planes of Q = L/N alone, for
    a solvable ideal N, and against the lift lemma on every pair of L's
    lines.

    Q is built here, apart from the L/rad(L) that radical keeps, and its
    table is checked by _assert_table_matches_oracle.  The lemma: <x, y> is
    solvable iff <x + N, y + N> is, so lines l and m see each other iff one
    of them lies in N, or their images in Q lie on one line or see each
    other.  Each of L's rows is compared whole, so every pair is checked.
    """
    Q, project, _ = quotient(L, N)
    _assert_table_matches_oracle(Q)
    nbr, q_nbr = plane_table(L), plane_table(Q)
    images = [project(L.vector(L.line_rep(l))) for l in range(L.line_count)]
    in_n = sum(1 << l for l, y in enumerate(images) if not any(y))
    over = [0] * Q.line_count  # the lines of L over each line of Q
    for l, y in enumerate(images):
        if any(y):
            over[Q.line(y)] |= 1 << l
    for l, y in enumerate(images):
        if any(y):
            k = Q.line(y)
            want = in_n | over[k] | sum(over[j] for j in bits(q_nbr[k] & ~(1 << k)))
        else:
            want = (1 << L.line_count) - 1
        assert nbr[l] == want, l


# gl2@3 + sl2@3, with basis E00, E01, E10, E11 of gl2, then e, f, h of sl2
_GL2_SL2 = direct_sum(make_gl(2, 3), make_sl(2, 3))

# generator pairs of subalgebras that are not solvable and have a nonzero
# center, so their tables are lifted from a quotient (I is gl2's identity):
# (e + I, e), (f, f) generate the diagonal sl2 plus the scalars of gl2
# (dim 4, center dim 1); (e, e), (f + I, 0) generate gl2 plus the e of sl2
# (dim 5, center dim 2)
_LIFTED_PAIRS = (
    ((1, 1, 0, 1, 1, 0, 0), (0, 0, 1, 0, 0, 1, 0)),
    ((0, 1, 0, 0, 1, 0, 0), (1, 0, 1, 1, 0, 0, 0)),
)


# w3 + Heisenberg over F_2, with basis a, b, c of w3, then x, y, z with
# [x, y] = z: L's center is z, and L/center = w3 + F_2^2 has a
# 2-dimensional center, so the radical recurses twice, to Heisenberg
_HEISENBERG_2 = LieAlgebra(
    make_w3(2).field,
    [[(0, 0, 0), (0, 0, 1), (0, 0, 0)], [(0, 0, -1), (0, 0, 0), (0, 0, 0)], [(0, 0, 0)] * 3],
    labels=["x", "y", "z"], name="heis@2")
_W3_HEIS = direct_sum(make_w3(2), _HEISENBERG_2)

# sl2 acting on F_3^2: zero center and the module as its radical
_SL2_F3_2 = sl2_semidirect(3)


class TestQuotientPath:
    def test_two_quotient_levels(self):
        # rad(L) is the Heisenberg summand, found through two centers; the
        # table is lifted once, from L/rad(L) = w3, whose radical is 0
        L = _W3_HEIS
        assert (L.dim, L.line_count) == (6, 63)
        assert radical(L) == radical_by_lines(L) and radical(L).dim == 3
        assert radical(L).basis == ((0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
        Q = L._quotient[0]  # the L/rad(L) that radical kept
        assert Q == make_w3(2) and Q._radical.dim == 0 and not is_solvable(Q)
        _assert_table_matches_oracle(L)
        assert is_s_lie(L) == s_lie_by_elements(L)
        assert conjecture_sum(L) == {"sum": 2560, "order": 64, "divisible": True, "quotient": 40}

    def test_table_builds_one_quotient(self, monkeypatch):
        # the radical passes through L/Z and (L/Z)/Z(L/Z) = w3, whose radical
        # is 0, and keeps w3 as L/rad(L) through both projections; the table
        # builds no quotient of its own and classifies w3 with no derived series
        expected = plane_table(_W3_HEIS)
        L = direct_sum(make_w3(2), _HEISENBERG_2)
        counts = _count_series_and_quotients(monkeypatch)
        assert radical(L).dim == 3
        assert counts["quotient"] == 2
        series = counts["derived_series"]
        assert plane_table(L) == expected
        assert counts == {"derived_series": series, "quotient": 2}

    @pytest.mark.parametrize("build, by_quotient", [
        pytest.param(lambda: sl2_semidirect(3), False, id="sl2+F_3^2"),
        pytest.param(lambda: sl2_semidirect(5), True, id="sl2+F_5^2"),
        pytest.param(lambda: make_so(4, 2), False, id="so4@2")])
    def test_non_central_radical(self, build, by_quotient):
        # zero center, nonzero radical: the line search keeps L/rad(L), with
        # its radical marked 0, and the table is lifted from it; sl2 + F_3^2
        # and so4@2 are checked against the reference on every plane of L,
        # sl2 + F_5^2 on the planes of L/rad(L) and by the lift lemma
        L = build()
        rad = radical_by_lines(L)
        assert center(L).dim == 0 < radical(L).dim < L.dim
        assert radical(L) == rad
        Q = L._quotient[0]
        assert Q.dim == L.dim - radical(L).dim and Q._radical.dim == 0
        if by_quotient:
            _assert_table_lifts_from(L, rad)
        else:
            _assert_table_matches_oracle(L)

    def test_table_matches_oracle(self, sl2_2, gl2_3, t2_3, w3, zero_file, abelian_file):
        # the solvable ones (t2, t3, the file algebras) have every row full
        for L in (sl2_2, w3, t2_3, make_t(3, 2), make_t(3, 3), gl2_3, make_gl(2, 5),
                  zero_file, abelian_file):
            _assert_table_matches_oracle(L)

    @pytest.mark.slow
    def test_table_matches_oracle_gl3_f2(self, monkeypatch):
        # the table is classified on gl3/center, whose solvable closures of
        # dimension 3 and more hold planes met later, which skip the closure;
        # the reference runs on the planes of gl3/center, and the lift
        # lemma checks the rest
        closures, _ = _count_table_work(monkeypatch)
        L = make_gl(3, 2)
        plane_table(L)
        assert 0 < len(closures) < gaussian_binomial_2(8, 2)
        _assert_table_lifts_from(L, center(L))

    def test_fixed_pairs_take_the_lift(self):
        for x, y in _LIFTED_PAIRS:
            S = closed_subalgebra(_GL2_SL2, [x, y])
            assert center(S).dim > 0 and not is_solvable(S)

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 2)] * _GL2_SL2.dim), min_size=2, max_size=2))
    @example(list(_LIFTED_PAIRS[0]))
    @example(list(_LIFTED_PAIRS[1]))
    def test_random_subalgebras_of_a_direct_sum(self, generators):
        S = closed_subalgebra(_GL2_SL2, generators)
        assume(S.dim <= 5)
        _assert_table_matches_oracle(S)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.txt"
            to_file(S, path)
            T = from_file(path)
        assert T == S and plane_table(T) == plane_table(S)

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 2)] * _SL2_F3_2.dim), min_size=1, max_size=3))
    @example([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 0)])
    @example([(0, 0, 1, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 0, 1)])
    def test_random_subalgebras_of_sl2_on_its_module(self, generators):
        # over F_3 two elements generate at most 3 dimensions here, so up
        # to three generators; the examples generate all of L (e, f, u) and
        # the Borel subalgebra plus the module (h, e, w)
        S = closed_subalgebra(_SL2_F3_2, generators)
        assert radical(S) == radical_by_lines(S)
        _assert_table_matches_oracle(S)

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 2)] * _GL2_SL2.dim), min_size=2, max_size=2))
    @example(list(_LIFTED_PAIRS[0]))
    @example(list(_LIFTED_PAIRS[1]))
    def test_radical_of_random_subalgebras_matches_line_search(self, generators):
        S = closed_subalgebra(_GL2_SL2, generators)
        assume(S.dim <= 5)
        assert radical(S) == radical_by_lines(S)
        assert center(S) == center_by_intersection(S)


class TestQuotientCompatibility:
    """The lift lemma on fixed solvable ideals, by _assert_table_lifts_from."""

    def test_gl2_mod_center(self, gl2_3):
        _assert_table_lifts_from(gl2_3, center(gl2_3))

    def test_gl2_f5_mod_center(self):
        L = make_gl(2, 5)
        _assert_table_lifts_from(L, center(L))

    def test_zero_ideal_trivial(self, sl2_3):
        _assert_table_lifts_from(sl2_3, sl2_3.zero_space())

    def test_solvable_algebra_mod_itself(self, t2_3):
        _assert_table_lifts_from(t2_3, t2_3.full_space())

    def test_table_that_is_not_the_lift_fails(self):
        # gl2@3 with one symmetric pair of bits cleared: two lines that
        # share a solvable plane no longer see each other
        L = make_gl(2, 3)
        nbr = list(plane_table(L))
        l, m = next((l, m) for l, row in enumerate(nbr) for m in bits(row) if m != l)
        nbr[l] &= ~(1 << m)
        nbr[m] &= ~(1 << l)
        L._plane_table = tuple(nbr)
        with pytest.raises(AssertionError):
            _assert_table_lifts_from(L, center(L))


class TestSolvableFamily:
    def test_every_solvabilizer_is_everything(self):
        for L in (make_t(2, 3), make_t(3, 2)):
            for line in L.lines():
                x = L.vector(line[0])
                assert len(solvabilizer(L, x)) == L.size


def _conjugations(L, count, seed):
    """count conjugation automorphisms of the 2x2 algebra L by invertible
    matrices drawn from random.Random(seed)."""
    p, rng, out = L.field.p, random.Random(seed), []
    while len(out) < count:
        g = tuple(tuple(rng.randrange(p) for _ in range(2)) for _ in range(2))
        if (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % p:
            out.append(conjugation_automorphism(L, g))
    return out


class TestRowQueriesMatchElementLoops:
    """The queries that read plane-table rows against element loops over
    solvabilizer lists (tests/oracles.py)."""

    def test_divisibility_report_every_element(self, sl2_2, sl2_3, w3, t2_3, gl2_3):
        for L in (sl2_2, sl2_3, w3, t2_3, make_t(3, 2), gl2_3):
            p = L.field.p
            xs = [L.vector(m) for m in range(L.size)]
            xs += [tuple(v + p for v in x) for x in xs]  # unreduced coordinates
            assert [divisibility_report(L, x) for x in xs] == \
                divisibility_by_elements(L, xs), L.name

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 2)] * _GL2_SL2.dim), min_size=2, max_size=2))
    @example(list(_LIFTED_PAIRS[0]))
    @example(list(_LIFTED_PAIRS[1]))
    def test_divisibility_report_on_random_subalgebras(self, generators):
        S = closed_subalgebra(_GL2_SL2, generators)
        assume(S.dim <= 5)
        xs = [S.zero()] + [S.vector(line[0]) for line in lines_by_scan(S)]
        assert [divisibility_report(S, x) for x in xs] == divisibility_by_elements(S, xs)

    def test_equivariance_every_element_ten_conjugations(self, sl2_3):
        # the automorphisms of test_automorphism_equivariance_ten_conjugations
        for phi in _conjugations(sl2_3, 10, 103):
            for m in range(sl2_3.size):
                x = sl2_3.vector(m)
                assert equivariance_check(sl2_3, phi, x) == equivariance_by_elements(sl2_3, phi, x)

    def test_quotient_compatibility(self, sl2_3, gl2_3, t2_3):
        # solvabilizers project onto those of L/N, element by element
        gl2_5, gl2_7 = make_gl(2, 5), make_gl(2, 7)
        for L, N in ((gl2_3, center(gl2_3)), (gl2_5, center(gl2_5)), (gl2_7, center(gl2_7)),
                     (t2_3, t2_3.full_space()), (sl2_3, sl2_3.zero_space())):
            assert quotient_compatibility_by_elements(L, N), L.name


# generators of a subalgebra of gl3@2 (dim 4) whose first failing pair has
# its sum inside x's solvabilizer and its bracket outside
BRACKET_ONLY_GENERATORS = ((0, 0, 1, 1, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 0, 1, 1, 1))


def _witness_escapes(L):
    """s_lie_witness of L, and whether its sum and its bracket leave x's
    solvabilizer, checked on the element list."""
    x, a, b = s_lie_witness(L)
    members = set(solvabilizer(L, x))
    assert L.index(a) in members and L.index(b) in members
    return (x, a, b), (L.index([u + v for u, v in zip(a, b)]) not in members,
                       L.index(L.bracket(a, b)) not in members)


class TestSLieWitness:
    """The witness read off the failing row's line bits against the
    element-pair loop over the row's members (tests/oracles.py)."""

    def test_matches_pair_loop(self, sl2_2, sl2_3, w3, t2_3, gl2_3):
        for L in (sl2_2, sl2_3, w3, t2_3, make_t(3, 2), gl2_3, make_gl(2, 5),
                  make_gl(2, 7), make_so(3, 3), make_so(4, 3), make_sl(3, 2)):
            assert s_lie_witness(L) == s_lie_witness_by_pairs(L), L.name

    def test_matches_pair_loop_on_every_failing_line(self, sl2_3, sl2_5, gl2_3, monkeypatch):
        # the rule holds for the row of any line whose solvabilizer fails,
        # not only for the first such line's
        for L in (sl2_3, sl2_5, gl2_3, make_so(3, 5)):
            count = 0
            for l in range(L.line_count):
                pair = first_failing_pair(L, l)
                if pair:
                    count += 1
                    monkeypatch.setattr(solv, "_failing_line", lambda L, force=False: l)
                    assert s_lie_witness(L) == (L.vector(L.line_rep(l)), *pair), (L.name, l)
            assert count > 0, L.name

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 2)] * _GL2_SL2.dim), min_size=2, max_size=2))
    @example(list(_LIFTED_PAIRS[0]))
    @example(list(_LIFTED_PAIRS[1]))
    def test_matches_pair_loop_on_random_subalgebras(self, generators):
        S = closed_subalgebra(_GL2_SL2, generators)
        assume(S.dim <= 5)
        assert s_lie_witness(S) == s_lie_witness_by_pairs(S)
        assert is_s_lie(S) == s_lie_by_elements(S)

    def test_first_pair_fails_by_the_sum(self, gl2_3):
        # E01 and E10 both pair solvably with E00, and so does their bracket
        # E00 - E11, but not their sum
        assert _witness_escapes(gl2_3) == (
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)), (True, False))

    def test_first_pair_fails_by_the_bracket(self):
        S = closed_subalgebra(make_gl(3, 2), BRACKET_ONLY_GENERATORS)
        assert _witness_escapes(S) == (
            ((1, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 1)), (False, True))
        assert s_lie_witness_by_pairs(S) == s_lie_witness(S)

    def test_no_witness_is_an_error(self, w3, monkeypatch):
        # a failing line whose row is a subalgebra yields no pair: the
        # search says so instead of returning a witness
        monkeypatch.setattr(solv, "_failing_line", lambda L, force=False: 0)
        with pytest.raises(AssertionError, match="no witness pair found"):
            s_lie_witness(w3)


class TestExpansionBoundary:
    def test_row_queries_expand_no_line(self, sl2_5, w3, capsys, monkeypatch):
        # only queries that return element lists expand rows to elements;
        # verdicts, counts and the S-witness, also the ones commands print,
        # read lines
        t3_2, t3_3, gl2_5 = make_t(3, 2), make_t(3, 3), make_gl(2, 5)
        swap = conjugation_automorphism(sl2_5, ((0, 1), (1, 0)))
        queries = {
            "info gl2@5": lambda: main(["info", "gl2@5"]),
            "info t3@3": lambda: main(["info", "t3@3"]),
            "graph sl2@5": lambda: main(["graph", "sl2@5"]),
            "complement gl2@3": lambda: main(["complement", "gl2@3"]),
            "divisibility_report gl2@5": lambda: divisibility_report(gl2_5, (1, 2, 3, 4)),
            "divisibility_report sl2@5": lambda: divisibility_report(sl2_5, (1, 0, 0)),
            "is_s_lie t3@2": lambda: is_s_lie(t3_2),
            "is_s_lie t3@3": lambda: is_s_lie(t3_3),
            "is_s_lie w3": lambda: is_s_lie(w3),
            "is_s_lie sl2@5": lambda: is_s_lie(sl2_5),
            "s_lie_witness sl2@5": lambda: s_lie_witness(sl2_5),
            "sol_of_algebra gl2@5": lambda: sol_of_algebra(gl2_5),
            "components sl2@5": lambda: components(build(sl2_5)),
            "complement_components gl2@5": lambda: complement_components(build(gl2_5)),
            "slie gl2@5": lambda: main(["slie", "gl2@5"]),
            "divisibility_report w3": lambda: divisibility_report(w3, (0, 1, 0)),
            "divisibility_report t3@3": lambda: divisibility_report(t3_3, (1, 0, 0, 0, 0, 0)),
            "conjecture_sum sl2@5": lambda: conjecture_sum(sl2_5),
            "equivariance_check sl2@5": lambda: equivariance_check(sl2_5, swap, (1, 0, 0)),
        }
        calls = []
        line_members = LieAlgebra.line_members
        monkeypatch.setattr(LieAlgebra, "line_members",
                            lambda L, l: calls.append(l) or line_members(L, l))
        for name, query in queries.items():
            calls.clear()
            query()
            assert len(calls) == 0, name
