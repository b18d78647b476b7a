import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    intersect_reference,
    kernel_reference,
    mat_inv_reference,
    rref_reference,
    solve_combination_reference,
    subspace_elements,
)
from solvgraph.ffalg import PrimeField, full_space, kernel, rref, zero_space
from solvgraph.liealg import _mat_inv, _solve_combination


F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


class TestPrimeField:
    def test_rejects_composites_and_small(self):
        for bad in (-1, 0, 1, 4, 6, 9, 15, 2**20):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            PrimeField(3.0)

    def test_accepts_large_prime(self):
        PrimeField(2**31 - 1)  # Mersenne prime


class TestRref:
    def test_already_reduced_rows_unchanged(self):
        s = rref([(1, 0, 0), (0, 1, 0)], F3)
        assert s.basis == ((1, 0, 0), (0, 1, 0))
        assert s.dim == 2
        assert s.pivots == (0, 1)

    def test_scalar_row_normalized(self):
        s = rref([(2, 2, 2)], F3)
        assert s.basis == ((1, 1, 1),)
        assert s.dim == 1

    def test_dependent_rows_collapse(self):
        # hand elimination: row2 = 2*row1, so rank 2 with pivots 0 and 2
        s = rref([(1, 1, 0), (2, 2, 0), (0, 0, 1)], F3)
        assert s.dim == 2
        assert s.basis == ((1, 1, 0), (0, 0, 1))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            rref([(1, 0), (1, 0, 0)], F3)
        with pytest.raises(ValueError, match="rows have length 2, expected 3"):
            rref([(1, 0)], F3, ambient=3)

    def test_empty_needs_ambient(self):
        with pytest.raises(ValueError):
            rref([], F3)
        assert rref([], F3, ambient=4).dim == 0


class TestContains:
    def test_scalar_multiple(self):
        s = rref([(1, 0, 0)], F3)
        assert s.contains((2, 0, 0))

    def test_outside(self):
        s = rref([(1, 0, 0)], F3)
        assert not s.contains((0, 1, 0))

    def test_zero_in_everything(self):
        for s in (zero_space(3, F3), rref([(1, 2, 0)], F3), full_space(3, F3)):
            assert s.contains((0, 0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rref([(1, 0, 0)], F3).contains((1, 0))


class TestKernel:
    def test_identity_has_zero_kernel(self):
        eye = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert kernel(eye, F3).dim == 0

    def test_zero_matrix_has_full_kernel(self):
        zero = [(0, 0, 0)] * 3
        k = kernel(zero, F3)
        assert k.dim == 3
        assert k == full_space(3, F3)

    def test_ad_h_kernel_in_sl2(self):
        # the map y -> [h, y] in basis (e, f, h) sends e -> 2e, f -> f, h -> 0,
        # so its matrix kills exactly the h-axis
        m = [(2, 0, 0), (0, 1, 0), (0, 0, 0)]
        mt = [tuple(row[c] for row in m) for c in range(3)]
        k = kernel(mt, F3)
        assert k.basis == ((0, 0, 1),)

    def test_empty_matrix_needs_ncols(self):
        with pytest.raises(ValueError):
            kernel([], F3)
        assert kernel([], F3, ncols=2).dim == 2
        # a nonempty matrix is checked against ncols, and for ragged rows
        with pytest.raises(ValueError, match="rows have unequal lengths"):
            kernel([(1, 0), (1, 0, 0)], F3)
        with pytest.raises(ValueError, match="matrix has 2 columns, expected 3"):
            kernel([(1, 0)], F3, ncols=3)


class TestSumIntersect:
    def test_intersect_idempotent(self):
        s = rref([(1, 2, 0), (0, 0, 1)], F3)
        assert s.intersect(s) == s

    def test_plane_intersection(self):
        a = rref([(1, 0, 0), (0, 1, 0)], F3)
        b = rref([(0, 1, 0), (0, 0, 1)], F3)
        got = a.intersect(b)
        assert got.basis == ((0, 1, 0),)

    def test_mismatched_ambient_rejected(self):
        with pytest.raises(ValueError):
            rref([(1, 0)], F3).intersect(rref([(1, 0, 0)], F3))
        with pytest.raises(ValueError):
            rref([(1, 0)], F3).intersect(rref([(1, 0)], F5))


def _random_matrix(rng, p, rows, cols):
    return [tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows)]


class TestRandomizedProperties:
    """Seeded sweeps over p in {2, 3, 5} and ambient dimension up to 5."""

    def test_rref_idempotent(self):
        rng = random.Random(1)
        for fld in (F2, F3, F5):
            for n in range(1, 6):
                for _ in range(20):
                    s = rref(_random_matrix(rng, fld.p, rng.randrange(1, 6), n), fld)
                    again = rref(s.basis, fld, ambient=n)
                    assert again == s

    def test_span_invariant_under_row_operations(self):
        rng = random.Random(2)
        for fld in (F2, F3, F5):
            p = fld.p
            for n in range(2, 6):
                for _ in range(20):
                    rows = _random_matrix(rng, p, 3, n)
                    s = rref(rows, fld)
                    # scale one row, add a multiple of another onto a third
                    i, j = rng.randrange(3), rng.randrange(3)
                    a = rng.randrange(1, p)
                    b = rng.randrange(p)
                    mangled = [list(r) for r in rows]
                    mangled[i] = [a * x % p for x in mangled[i]]
                    if i != j:
                        mangled[j] = [(x + b * y) % p
                                      for x, y in zip(mangled[j], mangled[i])]
                    assert rref(mangled, fld) == s

    def test_dimension_formula(self):
        rng = random.Random(3)
        for fld in (F2, F3, F5):
            for n in range(1, 6):
                for _ in range(20):
                    a = rref(_random_matrix(rng, fld.p, rng.randrange(1, 5), n), fld)
                    b = rref(_random_matrix(rng, fld.p, rng.randrange(1, 5), n), fld)
                    total = rref(a.basis + b.basis, fld, ambient=n)
                    assert a.dim + b.dim == total.dim + a.intersect(b).dim

    def test_kernel_vectors_map_to_zero(self):
        rng = random.Random(4)
        for fld in (F2, F3, F5):
            p = fld.p
            for rows in range(1, 5):
                for cols in range(1, 6):
                    m = _random_matrix(rng, p, rows, cols)
                    k = kernel(m, fld)
                    basis_pivots = rref(m, fld)
                    assert k.dim == cols - basis_pivots.dim
                    for v in k.basis:
                        assert all(sum(x * y for x, y in zip(row, v)) % p == 0
                                   for row in m)

    def test_membership_after_sum(self):
        rng = random.Random(5)
        for fld in (F2, F3, F5):
            p = fld.p
            for _ in range(30):
                n = rng.randrange(2, 6)
                a = rref(_random_matrix(rng, p, 2, n), fld)
                b = rref(_random_matrix(rng, p, 2, n), fld)
                total = rref(a.basis + b.basis, fld, ambient=n)
                for v in list(a.basis) + list(b.basis):
                    assert total.contains(v)


class TestSubspaceElements:
    def test_element_count(self):
        s = rref([(1, 0, 0), (0, 1, 0)], F3)
        elems = list(subspace_elements(s))
        assert len(elems) == 9 == s.size
        assert len(set(elems)) == 9
        assert all(s.contains(v) for v in elems)

    def test_hashable_canonical_keys(self):
        a = rref([(1, 1, 0), (0, 0, 1)], F3)
        b = rref([(2, 2, 0), (1, 1, 1)], F3)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@st.composite
def _matrices(draw, width=None):
    """(p, width, rows) over p in {2, 3, 5, 7}: unreduced and negative
    entries, zero rows, combinations of earlier rows, and sometimes the
    identity rows too, so the rows span everything; 0 rows or 0 columns
    included."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    if width is None:
        width = draw(st.integers(0, 5))
    entry = st.integers(-2 * p, 3 * p)
    rows = draw(st.lists(st.tuples(*[entry] * width), max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        if rows and draw(st.booleans()):
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entry), draw(entry)
            rows.append(tuple(s * x + t * y for x, y in zip(u, v)))
        else:
            rows.append((0,) * width)
    if draw(st.booleans()):
        rows += full_space(width, PrimeField(p)).basis
    return p, width, draw(st.permutations(rows))


def _independent(rows, p):
    """The rows that raise the rank of those kept before them."""
    kept = []
    for row in rows:
        if len(rref_reference(kept + [row], p)[0]) > len(kept):
            kept.append(row)
    return kept


class TestEchelonAgainstBatchReferences:
    """Every answer read from ffalg's one echelon routine equals the batch
    column-by-column elimination it replaced."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_matrices())
    def test_rref_and_kernel(self, case):
        p, width, rows = case
        s = rref(rows, PrimeField(p), ambient=width)
        assert (s.basis, s.pivots) == rref_reference(rows, p)
        k = kernel(rows, PrimeField(p), ncols=width)
        assert (k.basis, k.pivots) == kernel_reference(rows, p, width)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(0, 5).flatmap(
        lambda n: st.tuples(_matrices(width=n), st.lists(st.tuples(*[st.integers(-9, 9)] * n),
                                                         max_size=4))))
    def test_intersect(self, case):
        (p, width, rows), others = case
        fld = PrimeField(p)
        a, b = rref(rows, fld, ambient=width), rref(others, fld, ambient=width)
        got = a.intersect(b)
        assert (got.basis, got.pivots) == intersect_reference(a.basis, b.basis, width, p)
        assert b.intersect(a) == got

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_matrices(), st.data())
    def test_solve_combination(self, case, data):
        p, width, rows = case
        targets = data.draw(st.lists(st.tuples(*[st.integers(-9, 9)] * width), max_size=3))
        targets += [tuple(3 * x - y for x, y in zip(rows[0], rows[-1]))] if rows else []
        fld = PrimeField(p)
        indep = _independent(rows, p)
        assert _solve_combination(indep, targets, fld) == [
            solve_combination_reference(indep, t, p) for t in targets]
        # dependent rows: any solution will do, and one exists iff t is in the span
        for t, x in zip(targets, _solve_combination(rows, targets, fld)):
            if x is None:
                assert solve_combination_reference(indep, t, p) is None
            else:
                assert all((sum(c * row[j] for c, row in zip(x, rows)) - t[j]) % p == 0
                           for j in range(width))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: _matrices(width=n)), st.data())
    def test_mat_inv(self, case, data):
        p, n, rows = case
        if len(rows) < n:
            return
        g = data.draw(st.permutations(rows))[:n]
        want = mat_inv_reference(g, p)
        if want is None:
            with pytest.raises(ValueError, match="invertible"):
                _mat_inv(g, PrimeField(p))
        else:
            assert _mat_inv(g, PrimeField(p)) == want
