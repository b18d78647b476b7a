import json

import pytest

from oracles import eigenvalue_count, permuted_sl2_3_file, vertex_degree, vertices_by_lines
from solvgraph import formulas
from solvgraph.cli import main
from solvgraph.formulas import (
    SpectralClass,
    gl2_expected,
    is_quadratic_residue,
    sl2_expected,
    spectral_class_sl2,
    spectral_counts,
    verify,
)
from solvgraph.graph import SolvGraph, build
from solvgraph.liealg import center, from_file, make_gl, make_sl, make_so, make_t, quotient, to_file
from solvgraph.solv import bits, plane_table

_CLASS_OF_ROOT_COUNT = {0: SpectralClass.NO_EIGENVALUE,
                        1: SpectralClass.ONE_EIGENVALUE,
                        2: SpectralClass.TWO_EIGENVALUES}


def _root_class(family, x, q):
    """Spectral class of the 2x2 matrix with coordinates x, by scanning every
    lambda for a root of its characteristic polynomial."""
    if family == "sl2":
        b, c, a = x
        x = (a, b, c, -a)
    a, b, c, d = x
    roots = sum(1 for lam in range(q) if ((lam - a) * (lam - d) - b * c) % q == 0)
    return _CLASS_OF_ROOT_COUNT[roots]


class TestExpectedSequences:
    def test_sl2_small(self):
        assert sl2_expected(3) == {13: 12, 7: 8, 1: 6}
        assert sl2_expected(5) == {43: 60, 23: 24, 3: 40}
        assert sl2_expected(7) == {89: 168, 47: 48, 5: 126}
        assert sl2_expected(11) == {229: 660, 119: 120, 9: 550}

    def test_gl2_small(self):
        assert gl2_expected(3) == {41: 36, 23: 24, 5: 18}
        assert gl2_expected(5) == {219: 300, 119: 120, 19: 200}
        assert gl2_expected(7) == {629: 1176, 335: 336, 41: 882}
        assert gl2_expected(11) == {2529: 7260, 1319: 1320, 109: 6050}

    def test_multiplicities_sum_to_vertex_count(self):
        for q in (3, 5, 7, 11, 13):
            assert sum(sl2_expected(q).values()) == q**3 - 1
            assert sum(gl2_expected(q).values()) == q**4 - q

    def test_degree_sum_even(self):
        # a graphical degree sequence needs an even total
        for q in (3, 5, 7, 11, 13):
            for seq in (sl2_expected(q), gl2_expected(q)):
                assert sum(d * m for d, m in seq.items()) % 2 == 0

    def test_rejects_q_two_and_composites(self):
        for fn in (sl2_expected, gl2_expected, spectral_counts):
            with pytest.raises(ValueError):
                fn(2)
            with pytest.raises(ValueError):
                fn(9)


class TestQuadraticResidue:
    def test_euler_criterion_matches_square_table(self):
        for q in (3, 5, 7, 11, 13, 17):
            squares = {(t * t) % q for t in range(1, q)}
            for t in range(1, q):
                assert is_quadratic_residue(t, q) == (t in squares)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_quadratic_residue(0, 7)


class TestSpectralClass:
    def test_h_has_two_eigenvalues(self, sl2_3):
        assert spectral_class_sl2(sl2_3, (0, 0, 1)) is SpectralClass.TWO_EIGENVALUES

    def test_f_has_one_eigenvalue(self, sl2_3):
        assert spectral_class_sl2(sl2_3, (0, 1, 0)) is SpectralClass.ONE_EIGENVALUE

    def test_e_plus_f_plus_h_has_none(self, sl2_3):
        assert spectral_class_sl2(sl2_3, (1, 1, 1)) is SpectralClass.NO_EIGENVALUE

    def test_zero_rejected(self, sl2_3):
        with pytest.raises(ValueError):
            spectral_class_sl2(sl2_3, (0, 0, 0))

    def test_char_two_rejected(self, sl2_2, gl2_3):
        with pytest.raises(ValueError):
            spectral_class_sl2(sl2_2, (1, 0, 0))
        with pytest.raises(ValueError, match="3-dimensional"):
            spectral_class_sl2(gl2_3, (1, 0, 0, 0))

    @pytest.mark.parametrize("build", [
        pytest.param(lambda tmp: make_so(3, 5), id="so3@5"),
        pytest.param(lambda tmp: make_t(2, 5), id="t2@5"),
        pytest.param(lambda tmp: quotient(make_gl(2, 5), center(make_gl(2, 5)))[0],
                     id="gl2@5/center"),
        pytest.param(lambda tmp: from_file(permuted_sl2_3_file(tmp)),
                     id="file:sl2@3-permuted")])
    def test_refuses_other_algebras_of_dimension_3(self, build, tmp_path):
        # their coordinates are not those of [[h, e], [f, -h]]: so3@5's A01
        # would read as e, of class one, yet its degree is that of class two
        L = build(tmp_path)
        assert L.dim == 3
        with pytest.raises(ValueError, match="3-dimensional"):
            spectral_class_sl2(L, (1, 0, 0))

    def test_accepts_a_file_copy_of_sl2(self, tmp_path):
        to_file(make_sl(2, 5), tmp_path / "sl2.txt")
        L = from_file(tmp_path / "sl2.txt")
        for m in range(1, L.size):
            x = L.vector(m)
            assert spectral_class_sl2(L, x) is _root_class("sl2", x, 5)

    def test_matches_root_scan(self, sl2_5):
        # independent check: literally count the roots of the characteristic
        # polynomial lambda^2 - (a^2 + bc)
        for m in range(1, sl2_5.size):
            x = sl2_5.vector(m)
            disc = (x[2] * x[2] + x[0] * x[1]) % 5
            assert spectral_class_sl2(sl2_5, x) is \
                _CLASS_OF_ROOT_COUNT[eigenvalue_count(disc, 5)]

    def test_class_counts(self):
        assert spectral_counts(3) == (6, 8, 12)
        assert spectral_counts(5) == (40, 24, 60)
        assert spectral_counts(7) == (126, 48, 168)

    def test_counts_match_enumeration(self, sl2_3, sl2_5):
        for L, q in ((sl2_3, 3), (sl2_5, 5)):
            tally = {cls: 0 for cls in SpectralClass}
            for m in range(1, L.size):
                tally[spectral_class_sl2(L, L.vector(m))] += 1
            none_n, one_n, two_n = spectral_counts(q)
            assert tally[SpectralClass.NO_EIGENVALUE] == none_n
            assert tally[SpectralClass.ONE_EIGENVALUE] == one_n
            assert tally[SpectralClass.TWO_EIGENVALUES] == two_n


class TestVerify:
    def test_sl2_q3_passes(self):
        report = verify(make_sl(2, 3))
        assert report["passed"]
        assert report["first_mismatch"] is None
        assert report["computed"] == report["expected"]

    def test_gl2_q3_passes(self):
        report = verify(make_gl(2, 3))
        assert report["passed"]
        assert report["class_counts"] == report["expected_class_counts"]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="families"):
            verify(make_so(3, 3))

    def test_q_two_rejected(self):
        with pytest.raises(ValueError):
            verify(make_sl(2, 2))

    def test_report_text_and_json(self, capsys):
        report = verify(make_sl(2, 3))
        assert main(["verify", "sl2@3"]) == 0
        text = capsys.readouterr().out
        assert "result=PASS" in text
        assert "family=sl2 q=3" in text
        assert main(["verify", "sl2@3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["family"] == "sl2"
        assert payload["expected"] == report["expected"]
        assert payload["computed"] == report["computed"]

    @pytest.mark.parametrize("family", ["sl2", "gl2"])
    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_one_element_per_line_stands_for_the_line(self, family, q):
        # verify checks each vertex line's smallest member and counts it
        # q - 1 times; every member must share its class and degree, that
        # degree must be the degree formula's at the line's row size, and
        # the counts must be those of a per-vertex scan
        L = make_sl(2, q) if family == "sl2" else make_gl(2, q)
        G = build(L)
        members = L.lines()
        tally = {cls.value: 0 for cls in SpectralClass}
        for l in G.lines:
            rep = members[l][0]
            cls = _root_class(family, L.vector(rep), q)
            for m in members[l]:
                assert _root_class(family, L.vector(m), q) is cls
                assert vertex_degree(G, m) == vertex_degree(G, rep) == G.degree(G.nbr[l].bit_count())
                tally[cls.value] += 1
        assert sum(tally.values()) == G.vertex_count
        assert verify(L)["class_counts"] == tally

    def test_fail_names_the_smallest_failing_vertex(self, monkeypatch, capsys):
        # every vertex reads as two-eigenvalue, so the first mismatch is the
        # smallest vertex whose true class differs, and the counts are whole;
        # main renders the FAIL report and exits 1, in text and in JSON
        for family, q in (("sl2", 5), ("gl2", 3)):
            L = make_sl(2, q) if family == "sl2" else make_gl(2, q)
            G = build(L)
            first = next(m for m in vertices_by_lines(G)
                         if _root_class(family, L.vector(m), q) is not SpectralClass.TWO_EIGENVALUES)
            with monkeypatch.context() as patch:
                patch.setattr(formulas, "_discriminant_class",
                              lambda *args: SpectralClass.TWO_EIGENVALUES)
                report = verify(L)
                assert main(["verify", f"{family}@{q}"]) == 1
                text = capsys.readouterr().out
                assert main(["verify", f"{family}@{q}", "--format", "json"]) == 1
                payload = json.loads(capsys.readouterr().out)
            assert not report["passed"]
            assert report["first_mismatch"] == (
                f"vertex {first} of class two has degree {vertex_degree(G, first)}, "
                f"expected {report['expected'][0][0]}")
            assert report["class_counts"] == {"none": 0, "one": 0, "two": G.vertex_count}
            assert text.endswith("mismatch=" + report["first_mismatch"] + "\nresult=FAIL\n")
            assert (payload["passed"], payload["first_mismatch"]) == (False, report["first_mismatch"])

    @pytest.mark.parametrize("fail", [False, True], ids=["pass", "forced-fail"])
    @pytest.mark.parametrize("spec", ["sl2@5", "gl2@3"])
    def test_json_is_the_return_value(self, spec, fail, monkeypatch, capsys):
        # the command prints verify's result as it is, a FAIL report too
        # (forced as in test_fail_names_the_smallest_failing_vertex)
        if fail:
            monkeypatch.setattr(formulas, "_discriminant_class",
                                lambda *args: SpectralClass.TWO_EIGENVALUES)
        family, q = spec.split("@")
        L = make_sl(2, int(q)) if family == "sl2" else make_gl(2, int(q))
        assert main(["verify", spec, "--format", "json"]) == (1 if fail else 0)
        assert json.loads(capsys.readouterr().out) == verify(L)

    def test_fail_on_degree_sequence_still_counts_classes(self, monkeypatch):
        # a table with one symmetric pair of bits cleared gives the two
        # lines of that pair a degree q - 1 lower: the sequence check fails
        # first, ahead of those lines' own mismatch, and the class counts
        # are still whole, not zeros
        L = make_sl(2, 5)
        nbr = list(plane_table(L))
        m = next(bits(nbr[0] ^ 1))  # the lowest line adjacent to line 0
        nbr[0] ^= 1 << m
        nbr[m] ^= 1
        monkeypatch.setattr(formulas, "build", lambda L, force=False: SolvGraph(L, tuple(nbr)))
        report = verify(L)
        assert not report["passed"]
        computed, expected = dict(report["computed"]), dict(report["expected"])
        assert set(computed) - set(expected) and sum(computed.values()) == L.size - 1
        assert report["first_mismatch"].startswith("degree sequence ")
        assert report["class_counts"] == report["expected_class_counts"] == {
            "none": 40, "one": 24, "two": 60}
