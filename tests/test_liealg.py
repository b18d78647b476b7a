import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_subspaces,
    center_by_intersection,
    ideal_closure_rounds,
    is_subalgebra,
    lines_by_scan,
    radical_bruteforce,
    radical_by_lines,
    subalgebra_closure_rounds,
    subspace_elements,
)
from solvgraph import liealg
from solvgraph.ffalg import PrimeField, rref
from solvgraph.liealg import (
    CapExceeded,
    LieAlgebra,
    LinearMap,
    ValidationError,
    center,
    centralizer,
    conjugation_automorphism,
    derived_series,
    from_file,
    ideal_closure,
    is_ideal,
    is_lie_automorphism,
    is_solvable,
    make_gl,
    make_sl,
    make_so,
    make_t,
    make_w3,
    quotient,
    radical,
    require_enumerable,
    solvable_ideal,
    subalgebra_closure,
    to_file,
)
from solvgraph.solv import _rref_planes


class TestConstructors:
    def test_sl2_f3(self, sl2_3):
        assert sl2_3.dim == 3
        assert sl2_3.size == 27
        assert sl2_3.labels == ("e", "f", "h")

    def test_gl2_f3(self, gl2_3):
        assert gl2_3.dim == 4
        assert gl2_3.size == 81

    def test_family_dimensions(self):
        assert make_sl(3, 5).dim == 8
        assert make_gl(3, 2).dim == 9
        assert make_t(3, 3).dim == 6
        assert make_so(3, 3).dim == 3
        assert make_so(4, 2).dim == 6

    def test_w3_brackets(self, w3):
        a, b, c = (w3.basis_vector(i) for i in range(3))
        assert w3.bracket(a, b) == b
        assert w3.bracket(a, c) == c
        assert w3.bracket(b, c) == a

    def test_w3_rejects_odd_characteristic(self):
        with pytest.raises(ValueError):
            make_w3(3)
        with pytest.raises(ValueError):
            make_w3(5)

    def test_sl_defined_when_p_divides_n(self):
        # the diagonal part degenerates but the construction still validates
        L = make_sl(2, 2)
        assert L.dim == 3
        assert center(L).dim == 1  # h is central in characteristic 2

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            make_sl(2, 6)

    def test_dimension_capped_before_any_matrix(self, monkeypatch):
        def no_matrices(*args):
            raise AssertionError("a basis matrix was built")
        monkeypatch.setattr(liealg, "_unit_matrix", no_matrices)
        for make, n in ((make_gl, 9), (make_sl, 9), (make_t, 11), (make_so, 12)):
            with pytest.raises(ValueError, match="limit 64"):
                make(n, 2)
        with pytest.raises(ValueError, match="n must be at least 1"):
            make_sl(0, 3)
        # gl8 has dimension 64, the limit itself, so it gets to the matrices
        with pytest.raises(AssertionError, match="basis matrix"):
            make_gl(8, 5)

    def test_matrix_basis_must_be_closed(self):
        # [e, f] = h lies outside span(e, f); it is the first bad bracket
        e, f = ((0, 1), (0, 0)), ((0, 0), (1, 0))
        with pytest.raises(ValidationError, match=r"\[e, f\] falls outside"):
            liealg._from_matrix_basis([e, f], ["e", "f"], PrimeField(3), "ef", 2)

    def test_validation_catches_bad_table(self):
        fld = PrimeField(3)
        # c[0][0][1] = 1 violates the alternating axiom
        bad = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
        with pytest.raises(ValidationError):
            LieAlgebra(fld, bad)
        # a label per basis vector, and an n x n x n table
        with pytest.raises(ValidationError, match="expected 2 labels, got 1"):
            LieAlgebra(fld, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], labels=["a"])
        with pytest.raises(ValidationError, match="not 2x2x2 at plane 1"):
            LieAlgebra(fld, [[[0, 0], [0, 0]], [[0, 0], [0]]])

    def test_validation_catches_antisymmetry(self):
        fld = PrimeField(3)
        bad = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]  # c[0][1] = c[1][0]
        with pytest.raises(ValidationError):
            LieAlgebra(fld, bad)

    def test_validation_catches_jacobi(self):
        # same table as the char-2 simple algebra but over F_3, where the
        # Jacobi sum on (a, b, c) is 2a != 0
        fld = PrimeField(3)
        n = 3
        c = [[[0] * n for _ in range(n)] for _ in range(n)]
        c[0][1][1] = 1
        c[1][0][1] = 2
        c[0][2][2] = 1
        c[2][0][2] = 2
        c[1][2][0] = 1
        c[2][1][0] = 2
        with pytest.raises(ValidationError, match="Jacobi"):
            LieAlgebra(fld, c)


class TestElementIndexing:
    def test_base_p_digits_least_significant_first(self, sl2_3):
        assert sl2_3.vector(0) == (0, 0, 0)
        assert sl2_3.vector(1) == (1, 0, 0)
        assert sl2_3.vector(3) == (0, 1, 0)
        assert sl2_3.vector(9) == (0, 0, 1)
        assert sl2_3.vector(13) == (1, 1, 1)

    def test_round_trip(self, gl2_3):
        for m in range(gl2_3.size):
            assert gl2_3.index(gl2_3.vector(m)) == m

    def test_lines_partition_nonzero_elements(self, sl2_3):
        lines = sl2_3.lines()
        assert len(lines) == 13
        seen = sorted(m for line in lines for m in line)
        assert seen == list(range(1, 27))
        for line in lines:
            assert line[0] == min(line)


class TestStructureFile:
    W3_TEXT = """\
# three-dimensional simple algebra in characteristic two
p 2
dim 3
labels a b c
0 1 1 1
0 2 2 1
1 2 0 1
"""

    def test_round_trip_w3(self, tmp_path, w3):
        path = tmp_path / "w3.txt"
        path.write_text(self.W3_TEXT)
        L = from_file(path)
        assert L == w3
        assert L.labels == ("a", "b", "c")

    def test_writer_round_trip(self, tmp_path, gl2_3):
        path = tmp_path / "gl2.txt"
        to_file(gl2_3, path)
        assert from_file(path) == gl2_3

    def test_alternating_violation_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p 3\ndim 2\n0 0 1 1\n")
        with pytest.raises(ValidationError, match="itself"):
            from_file(path)

    def test_antisymmetry_cross_check(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p 3\ndim 2\n0 1 0 1\n1 0 0 1\n")
        with pytest.raises(ValidationError, match="antisymmetric"):
            from_file(path)

    def test_jacobi_violation_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        # the char-2 table over F_3 breaks Jacobi on (0, 1, 2)
        path.write_text("p 3\ndim 3\n0 1 1 1\n0 2 2 1\n1 2 0 1\n")
        with pytest.raises(ValidationError, match=r"\(0,1,2\)"):
            from_file(path)

    def test_nonprime_p_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        for p, message in (("4", "4 is not prime"), ("--3", "expected 'p <prime>'"),
                           ("4294967311", r"p must be at most 2\^31 - 1"),
                           ("-5", "-5 is not prime"), ("-12345678901", "-12345678901 is not prime"),
                           ("-" + "7" * 5000, "-7{5000} is not prime$")):
            path.write_text(f"p {p}\ndim 1\n")
            with pytest.raises(ValueError, match=f"^bad.txt:1: {message}"):
                from_file(path)

    def test_missing_headers(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dim 2\n")
        with pytest.raises(ValueError, match="missing 'p'"):
            from_file(path)
        path.write_text("p 3\n")
        with pytest.raises(ValueError, match="missing 'dim'"):
            from_file(path)

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p 3\ndim 2\n0 1 0\n")
        with pytest.raises(ValueError, match="bad.txt:3"):
            from_file(path)
        path = tmp_path / "nonint.txt"
        path.write_text("p 3\ndim 2\n0 1 x 1\n")
        with pytest.raises(ValueError) as exc:
            from_file(path)
        assert str(exc.value) == "nonint.txt:3: expected four integers, got '0 1 x 1'"
        path = tmp_path / "labels.txt"
        path.write_text("p 3\ndim 2\nlabels a b c\n")
        with pytest.raises(ValueError) as exc:
            from_file(path)
        assert str(exc.value) == "labels.txt: expected 2 labels, got 3"
        # past the 4,300 digits int() converts, the limits still name the line
        huge = "7" * 5000
        for text, message in ((f"p {huge}\ndim 2\n", "huge.txt:1: p must be at most 2^31 - 1"),
                              (f"p 3\ndim {huge}\n", "huge.txt:2: dim exceeds the limit 64")):
            path = tmp_path / "huge.txt"
            path.write_text(text)
            with pytest.raises(ValueError) as exc:
                from_file(path)
            assert str(exc.value) == message

    def test_non_decimal_digits_name_the_line(self, tmp_path):
        # superscript digits pass str.isdigit() but not int()
        path = tmp_path / "bad.txt"
        path.write_text("p 3\ndim ²\n")
        with pytest.raises(ValueError, match="bad.txt:2: expected 'dim"):
            from_file(path)
        path.write_text("p ³\ndim 2\n")
        with pytest.raises(ValueError, match="bad.txt:1: expected 'p"):
            from_file(path)

    def test_out_of_range_indices(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p 3\ndim 2\n0 1 5 1\n")
        with pytest.raises(ValueError, match="out of range"):
            from_file(path)

    def test_negative_values_reduced(self, tmp_path):
        path = tmp_path / "sl2.txt"
        path.write_text("p 3\ndim 3\nlabels e f h\n0 1 2 1\n2 0 0 2\n2 1 1 -2\n")
        L = from_file(path)
        assert L == make_sl(2, 3)


class TestBracket:
    def test_sl2_relations(self, sl2_3):
        e, f, h = (sl2_3.basis_vector(i) for i in range(3))
        assert sl2_3.bracket(e, f) == h
        assert sl2_3.bracket(h, e) == (2, 0, 0)
        assert sl2_3.bracket(h, f) == (0, 1, 0)  # -2f = f mod 3

    def test_alternating(self, gl2_3):
        rng = random.Random(7)
        for _ in range(30):
            x = tuple(rng.randrange(3) for _ in range(4))
            assert gl2_3.bracket(x, x) == (0, 0, 0, 0)

    def test_bilinear(self, sl2_3):
        rng = random.Random(8)
        p = 3
        for _ in range(30):
            x = tuple(rng.randrange(p) for _ in range(3))
            y = tuple(rng.randrange(p) for _ in range(3))
            z = tuple(rng.randrange(p) for _ in range(3))
            lhs = sl2_3.bracket(x, tuple((a + b) % p for a, b in zip(y, z)))
            rhs = tuple((a + b) % p for a, b in
                        zip(sl2_3.bracket(x, y), sl2_3.bracket(x, z)))
            assert lhs == rhs


class TestClosure:
    def test_h_e_is_two_dimensional(self, sl2_3):
        h, e = sl2_3.basis_vector(2), sl2_3.basis_vector(0)
        assert subalgebra_closure(sl2_3, [h, e]).dim == 2

    def test_h_and_e_plus_f_generate_everything(self, sl2_3):
        h = sl2_3.basis_vector(2)
        s = (1, 1, 0)
        assert subalgebra_closure(sl2_3, [h, s]).dim == 3

    def test_zero_generators(self, sl2_3):
        assert subalgebra_closure(sl2_3, [(0, 0, 0)]).dim == 0
        assert subalgebra_closure(sl2_3, []).dim == 0

    def test_monotone_and_idempotent(self, gl2_3):
        rng = random.Random(9)
        for _ in range(15):
            gens = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(2)]
            extra = tuple(rng.randrange(3) for _ in range(4))
            small = subalgebra_closure(gl2_3, gens)
            big = subalgebra_closure(gl2_3, gens + [extra])
            assert all(big.contains(v) for v in small.basis)
            again = subalgebra_closure(gl2_3, small.basis)
            assert again == small


_CLOSURE_HOSTS = (make_gl(2, 3), make_gl(3, 2), make_sl(3, 2), make_t(3, 3), make_so(4, 3))


@st.composite
def _host_and_vectors(draw):
    L = draw(st.sampled_from(_CLOSURE_HOSTS))
    coords = st.tuples(*[st.integers(0, L.field.p - 1)] * L.dim)
    return L, draw(st.lists(coords, max_size=3)), draw(coords)


def _smallest_containing(L, spaces, vectors):
    """The least-dimensional space in the list holding every vector."""
    idx = {L.index(v) for v in vectors}
    return min((s for s, members in spaces if idx <= members), key=lambda s: s.dim)


class TestClosureAgainstReferences:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_host_and_vectors())
    def test_matches_round_based_closure(self, case):
        L, gens, x = case
        assert subalgebra_closure(L, gens) == subalgebra_closure_rounds(L, gens)
        assert ideal_closure(L, x) == ideal_closure_rounds(L, x)

    def test_smallest_in_subspace_lattice(self, sl2_3, w3, t2_3, gl2_3):
        # subalgebras and ideals are closed under intersection, so the
        # least-dimensional one holding the generators is the closure
        for L in (sl2_3, w3, t2_3, gl2_3):
            lattice = [(s, {L.index(v) for v in subspace_elements(s)}) for s in all_subspaces(L)]
            subalgebras = [(s, m) for s, m in lattice if is_subalgebra(L, s)]
            ideals = [(s, m) for s, m in lattice if is_ideal(L, s)]
            reps = [L.vector(line[0]) for line in L.lines()]
            assert subalgebra_closure(L, []) == _smallest_containing(L, subalgebras, [])
            for i, x in enumerate(reps):
                assert ideal_closure(L, x) == _smallest_containing(L, ideals, [x])
                for y in reps[i:]:
                    assert subalgebra_closure(L, [x, y]) == \
                        _smallest_containing(L, subalgebras, [x, y])


class TestDerivedSeries:
    def test_sl2_f3_not_solvable(self, sl2_3):
        report = derived_series(sl2_3, sl2_3.full_space())
        assert not report.terminated
        assert not is_solvable(sl2_3)

    def test_t2_solvable(self, t2_3):
        report = derived_series(t2_3, t2_3.full_space())
        assert report.terminated
        dims = [t.dim for t in report.terms]
        assert dims == sorted(dims, reverse=True)
        assert len(set(dims)) == len(dims)  # strictly decreasing
        assert is_solvable(t2_3)

    def test_sl2_f2_solvable(self, sl2_2):
        # [e,f] = h and [h,-] = 0 in characteristic 2, so the first derived
        # term is the h-axis and the second vanishes
        report = derived_series(sl2_2, sl2_2.full_space())
        assert [t.dim for t in report.terms] == [3, 1, 0]
        assert report.terminated

    def test_gl2_f2_solvable(self, gl2_2):
        assert is_solvable(gl2_2)

    def test_subalgebra_series(self, sl2_3):
        # <h, e> is two-dimensional with derived series dims 2, 1, 0
        space = subalgebra_closure(sl2_3, [(0, 0, 1), (1, 0, 0)])
        report = derived_series(sl2_3, space)
        assert [t.dim for t in report.terms] == [2, 1, 0]
        assert report.terminated

    def test_so_family_solvability(self):
        assert is_solvable(make_so(2, 5))  # one-dimensional, abelian
        for p in (2, 3, 5):
            assert not is_solvable(make_so(3, p))
        assert not is_solvable(make_so(4, 3))

    def test_zero_space_terminates(self, sl2_3):
        report = derived_series(sl2_3, sl2_3.zero_space())
        assert report.terminated
        assert len(report.terms) == 1

    @pytest.mark.parametrize("build", [lambda: make_sl(2, 3), lambda: make_gl(2, 3),
                                       lambda: make_t(2, 3), lambda: make_so(3, 3),
                                       lambda: make_w3(2)],
                             ids=["sl2@3", "gl2@3", "t2@3", "so3@3", "w3"])
    def test_verdict_matches_the_series(self, build):
        # is_solvable skips the series at dimension at most 2 and at dim L;
        # 0, every line, every plane (closed or not), every plane closure,
        # every line's ideal closure and L itself must still get the
        # verdict the series gives
        L = build()
        reps = [L.vector(line[0]) for line in lines_by_scan(L)]
        planes = list(_rref_planes(L.dim, L.field.p))
        spaces = [L.zero_space()] + [rref([x], L.field, ambient=L.dim) for x in reps]
        spaces += [rref(plane, L.field, ambient=L.dim) for plane in planes]
        spaces += [subalgebra_closure(L, plane) for plane in planes]
        spaces += [ideal_closure(L, x) for x in reps]
        spaces.append(L.full_space())
        assert {S.dim for S in spaces} == set(range(L.dim + 1)), L.name
        assert any(subalgebra_closure(L, S.basis) != S for S in spaces), L.name
        for S in spaces:
            assert is_solvable(L, S) == derived_series(L, S).terminated, (L.name, S.basis)
        assert is_solvable(L) == derived_series(L, L.full_space()).terminated


class TestCentralizer:
    def test_h_centralizer_is_its_own_line(self, sl2_3):
        c = centralizer(sl2_3, sl2_3.basis_vector(2))
        assert c.basis == ((0, 0, 1),)
        assert c.size == 3

    def test_zero_centralizes_everything(self, sl2_3):
        assert centralizer(sl2_3, (0, 0, 0)).dim == 3

    def test_identity_matrix_is_central(self, gl2_3):
        eye = (1, 0, 0, 1)  # E00 + E11
        assert centralizer(gl2_3, eye).dim == 4

    def test_pairs_with_centralizer_are_abelian(self, sl2_3, w3):
        # the subalgebra generated by x and a centralizing element has all
        # pairwise basis brackets zero
        for L in (sl2_3, w3):
            for line in L.lines():
                x = L.vector(line[0])
                for c in subspace_elements(centralizer(L, x)):
                    space = subalgebra_closure(L, [x, c])
                    for i, u in enumerate(space.basis):
                        for v in space.basis[i + 1:]:
                            assert L.bracket(u, v) == L.zero()


class TestCenter:
    def test_gl2_center_is_scalars(self, gl2_3):
        z = center(gl2_3)
        assert z.dim == 1
        assert z.contains((1, 0, 0, 1))

    def test_sl2_f3_centerless(self, sl2_3):
        assert center(sl2_3).dim == 0

    def test_abelian_center_is_everything(self, tmp_path):
        path = tmp_path / "ab.txt"
        path.write_text("p 3\ndim 2\n")
        L = from_file(path)
        assert center(L).dim == 2

    def test_matches_intersection_of_centralizers(self, sl2_2, sl2_3, gl2_2, gl2_3, t2_3, w3):
        for L in (sl2_2, sl2_3, gl2_2, gl2_3, t2_3, w3, make_sl(2, 17), make_gl(2, 17),
                  make_t(3, 3), make_gl(3, 2), make_sl(3, 2), make_so(4, 3)):
            assert center(L) == center_by_intersection(L)


class TestIdeals:
    def test_ideal_closure_of_e_is_everything(self, sl2_3):
        assert ideal_closure(sl2_3, sl2_3.basis_vector(0)).dim == 3

    def test_zero_space_is_ideal(self, sl2_3):
        assert is_ideal(sl2_3, sl2_3.zero_space())

    def test_a_line_not_ideal_in_w3(self, w3):
        span_a = rref([w3.basis_vector(0)], w3.field, ambient=3)
        assert not is_ideal(w3, span_a)

    def test_ideal_closure_scale_invariant(self, gl2_3):
        for line in gl2_3.lines()[:10]:
            reps = [gl2_3.vector(m) for m in line]
            closures = {ideal_closure(gl2_3, v) for v in reps}
            assert len(closures) == 1


class TestLineNumbers:
    def test_lines_match_scan(self, w3):
        for L in (make_sl(2, 2), make_sl(2, 7), make_gl(2, 3), make_gl(2, 5),
                  make_t(2, 5), make_t(3, 2), make_so(3, 5), make_so(4, 3),
                  make_sl(3, 2), w3):
            lines = L.lines()
            assert lines == lines_by_scan(L)
            assert len(lines) == L.line_count

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 4))
    def test_line_is_constant_on_multiples(self, p, n):
        L = LieAlgebra(PrimeField(p), [[[0] * n] * n] * n)  # abelian
        for m in range(1, L.size):
            v = L.vector(m)
            multiples = [L.index(tuple(t * x % p for x in v)) for t in range(1, p)]
            l = L.line(v)
            assert all(L.line(L.vector(k)) == l for k in multiples)
            assert L.line_rep(l) == min(multiples)
            assert L.line_members(l) == tuple(sorted(multiples))

    def test_zero_vector_has_no_line(self, sl2_3, w3):
        for L in (sl2_3, w3):
            with pytest.raises(ValueError, match="zero vector"):
                L.line(L.zero())


class TestRadical:
    def test_matches_subspace_lattice_bruteforce(self, sl2_3, w3, t2_3, gl2_3,
                                                 zero_file, abelian_file):
        # solvable algebras, the 0-dimensional ones included, are their own
        # radical without a quotient
        zero = quotient(t2_3, t2_3.full_space())[0]
        for L in (sl2_3, w3, t2_3, gl2_3, make_t(3, 2), zero, zero_file, abelian_file):
            assert radical(L) == radical_bruteforce(L)

    def test_matches_line_search(self):
        for L in (make_gl(2, 3), make_gl(2, 5), make_t(3, 3), make_gl(3, 2), make_so(4, 3)):
            assert radical(L) == radical_by_lines(L)

    def test_simple_algebras_have_zero_radical(self, sl2_3, w3):
        assert radical(sl2_3).dim == 0
        assert radical(w3).dim == 0

    def test_solvable_algebra_is_its_own_radical(self, t2_3):
        assert radical(t2_3).dim == t2_3.dim

    def test_gl2_radical_is_center(self, gl2_3):
        assert radical(gl2_3) == center(gl2_3)

    def test_solvable_ideal_is_l_when_solvable_else_the_center(self, sl2_3, t2_3, gl2_3):
        assert solvable_ideal(t2_3) == t2_3.full_space()
        assert solvable_ideal(gl2_3) == center(gl2_3)
        assert solvable_ideal(sl2_3).dim == 0


class TestQuotient:
    def test_gl2_mod_center(self, gl2_3):
        Q, project, section = quotient(gl2_3, center(gl2_3))
        assert Q.dim == 3
        for m in range(Q.size):
            w = Q.vector(m)
            assert project(section(w)) == w

    def test_quotient_by_zero_is_identity_copy(self, sl2_3):
        Q, project, section = quotient(sl2_3, sl2_3.zero_space())
        assert Q.constants == sl2_3.constants
        assert project((1, 2, 0)) == (1, 2, 0)

    def test_t2_mod_derived_is_abelian(self, t2_3):
        derived = derived_series(t2_3, t2_3.full_space()).terms[1]
        Q, _, _ = quotient(t2_3, derived)
        assert Q.dim == 2
        assert all(v == 0 for plane in Q.constants for row in plane for v in row)

    def test_projection_is_homomorphism(self, gl2_3):
        ideal = center(gl2_3)
        Q, project, _ = quotient(gl2_3, ideal)
        rng = random.Random(10)
        for _ in range(40):
            x = tuple(rng.randrange(3) for _ in range(4))
            y = tuple(rng.randrange(3) for _ in range(4))
            assert project(gl2_3.bracket(x, y)) == Q.bracket(project(x), project(y))

    def test_non_ideal_rejected(self, w3):
        span_a = rref([w3.basis_vector(0)], w3.field, ambient=3)
        with pytest.raises(ValueError, match="not an ideal"):
            quotient(w3, span_a)
        with pytest.raises(ValueError, match="different ambient space"):
            quotient(w3, rref([(1, 0)], w3.field))

    def test_quotient_by_full_space_is_zero_algebra(self, t2_3):
        Q, project, _ = quotient(t2_3, t2_3.full_space())
        assert Q.dim == 0
        assert Q.size == 1
        assert project((1, 2, 0)) == ()


class TestConjugation:
    def test_identity_matrix_gives_identity_map(self, sl2_3):
        phi = conjugation_automorphism(sl2_3, ((1, 0), (0, 1)))
        assert phi.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_swap_exchanges_e_and_f(self, sl2_3):
        phi = conjugation_automorphism(sl2_3, ((0, 1), (1, 0)))
        assert phi.apply((1, 0, 0)) == (0, 1, 0)  # e -> f
        assert phi.apply((0, 1, 0)) == (1, 0, 0)  # f -> e
        assert phi.apply((0, 0, 1)) == (0, 0, 2)  # h -> -h

    def test_bracket_preservation_validated(self, sl2_3, gl2_3):
        rng = random.Random(11)
        count = 0
        while count < 10:
            g = tuple(tuple(rng.randrange(3) for _ in range(2)) for _ in range(2))
            det = (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % 3
            if det == 0:
                continue
            for L in (sl2_3, gl2_3):
                phi = conjugation_automorphism(L, g)
                assert is_lie_automorphism(L, phi)
            count += 1

    def test_non_automorphisms_rejected(self, sl2_3, sl2_5):
        # e -> 2e is bijective but breaks [e, f] = h
        double_e = LinearMap(sl2_5.field, ((2, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert not is_lie_automorphism(sl2_5, double_e)
        # a 2x2 matrix does not map a 3-dimensional algebra, nor do three
        # rows of width 2 or 4, or ragged rows
        for rows in (((1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1)),
                     ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)), ((1, 0, 0), (0, 1), (0, 0, 1))):
            assert not is_lie_automorphism(sl2_3, LinearMap(sl2_3.field, rows)), rows

    def test_singular_matrix_rejected(self, sl2_3):
        with pytest.raises(ValueError, match="invertible"):
            conjugation_automorphism(sl2_3, ((1, 1), (1, 1)))
        for g in (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0), (0,))):
            with pytest.raises(ValueError, match="must be a 2x2 matrix"):
                conjugation_automorphism(sl2_3, g)

    def test_non_triangular_conjugation_rejected_for_t(self):
        L = make_t(2, 3)
        with pytest.raises(ValueError, match="span"):
            conjugation_automorphism(L, ((0, 1), (1, 0)))
        # upper triangular g stays inside the family
        phi = conjugation_automorphism(L, ((1, 1), (0, 1)))
        assert is_lie_automorphism(L, phi)

    def test_linear_map_rejects_wrong_length(self):
        eye = LinearMap(PrimeField(3), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert eye.apply((1, 2, 5)) == (1, 2, 2)
        for v in ((1, 2), (1, 2, 0, 0)):
            with pytest.raises(ValueError, match=f"length 3, got {len(v)}"):
                eye.apply(v)

    def test_file_algebra_has_no_matrix_basis(self, tmp_path):
        path = tmp_path / "ab.txt"
        path.write_text("p 3\ndim 2\n")
        L = from_file(path)
        with pytest.raises(ValueError, match="matrix basis"):
            conjugation_automorphism(L, ((1, 0), (0, 1)))


class TestEnumerationCap:
    def test_cap_blocks_large_algebras(self, monkeypatch):
        monkeypatch.setenv("SOLVGRAPH_CAP", "100")
        L = make_sl(2, 5)  # 125 elements
        with pytest.raises(CapExceeded):
            require_enumerable(L)
        require_enumerable(L, force=True)

    def test_env_override_raises_cap(self, monkeypatch):
        monkeypatch.setenv("SOLVGRAPH_CAP", "1000")
        require_enumerable(make_sl(2, 5))
