"""Tests for exact sparse linear algebra and chain-complex homology.

Ranks are cross-checked against an independent dense Gaussian
elimination over Fraction (``reference.dense_rank``), written from
scratch so the two implementations share no code.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from operadkit.qlinalg import (
    ChainComplex,
    ComplexError,
    SparseMatrix,
    add_scaled,
    addmul,
    as_exact,
    format_vector,
    in_span,
    nullspace,
    rank,
    rref,
    solve_in_span,
    span_basis,
    span_rank,
)
from reference import dense_rank, from_rows, identity, mat_vec, to_dense


def scale_row_swap_variant(m: SparseMatrix, scalings, swaps) -> SparseMatrix:
    """A copy of m with rows rescaled and then swapped."""
    perm = list(range(m.rows))
    for a, b in swaps:
        perm[a], perm[b] = perm[b], perm[a]
    entries = []
    for r, c, v in m.entries():
        s = scalings.get(r, Fraction(1))
        if s == 0:
            raise ValueError("row scaling must be nonzero")
        entries.append((perm[r], c, v * s))
    return SparseMatrix(m.rows, m.cols, entries)


fraction_entries = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=7),
)

# (cols, dense rows), so that a shape with no rows keeps its columns
small_dense = st.integers(min_value=0, max_value=6).flatmap(
    lambda r: st.integers(min_value=0, max_value=6).flatmap(
        lambda c: st.tuples(st.just(c), st.lists(
            st.lists(fraction_entries, min_size=c, max_size=c),
            min_size=r, max_size=r,
        ))
    )
)

small_matrix = small_dense.map(
    lambda dense: from_rows(dense[1], cols=dense[0]))


# mostly zeros, so that products and sums cancel often
sparse_entries = st.sampled_from(
    [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
sparse_vectors = st.dictionaries(st.integers(0, 5), sparse_entries,
                                 max_size=6).map(
    lambda v: {k: Fraction(x) for k, x in v.items() if x})


def sparse_matrix(rows: int, cols: int):
    return st.lists(st.lists(sparse_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda data: from_rows(data, cols=cols))


# ints and fractions, with non-unit values so that pivots are not +-1
mixed_entries = st.sampled_from(
    [0, 0, 0, 1, -1, 2, -3, 4, 6, Fraction(1, 2), Fraction(-2, 3),
     Fraction(4, 2)])


@st.composite
def rank_test_matrix(draw):
    """Rows from a few random base rows: copies, integer combinations
    of two (which cancel to zero in elimination), zero rows, shuffled.
    Shapes include 0 x c and r x 0."""
    cols = draw(st.integers(0, 6))
    base = draw(st.lists(st.lists(mixed_entries, min_size=cols,
                                  max_size=cols), max_size=5))
    rows = list(base)
    for _ in range(draw(st.integers(0, 4)) if base else 0):
        i = draw(st.integers(0, len(base) - 1))
        j = draw(st.integers(0, len(base) - 1))
        s = draw(st.sampled_from([1, -1, 2, -3]))
        t = draw(st.sampled_from([0, 1, -2]))
        rows.append([s * x + t * y for x, y in zip(base[i], base[j])])
    rows += [[0] * cols] * draw(st.integers(0, 2))
    rows = draw(st.permutations(rows))
    return from_rows(rows, cols=cols)


@st.composite
def chain_complex_data(draw):
    """(spaces, boundaries) with d.d = 0.  The first boundary is a
    ``rank_test_matrix``; each next one has as columns random
    combinations, with int and Fraction coefficients, of a kernel basis
    of the one before, so its rank often falls short of that kernel and
    the complex is not acyclic."""
    boundaries = [draw(rank_test_matrix())]
    for _ in range(draw(st.integers(1, 3))):
        kernel = nullspace(boundaries[-1])
        cols = draw(st.integers(0, 5))
        entries = []
        for c in range(cols):
            vec: dict = {}
            for k in kernel:
                add_scaled(vec, k, draw(mixed_entries))
            entries += [(r, c, v) for r, v in vec.items()]
        boundaries.append(SparseMatrix(boundaries[-1].cols, cols, entries))
    spaces = [b.rows for b in boundaries] + [boundaries[-1].cols]
    return spaces, boundaries


def dense_matmul(a: list[list[Fraction]], b: list[list[Fraction]],
                 inner: int) -> list[list[Fraction]]:
    """Reference product of dense row lists; ``inner`` = cols of a."""
    ncols = len(b[0]) if b else 0
    return [[sum((row[k] * b[k][c] for k in range(inner)), Fraction(0))
             for c in range(ncols)] for row in a]


def as_dict(dense_vec: list[Fraction]) -> dict[int, Fraction]:
    return {i: x for i, x in enumerate(dense_vec) if x}


class TestAccumulator:
    @settings(max_examples=200, deadline=None)
    @given(sparse_vectors, sparse_vectors, sparse_entries)
    def test_add_scaled_matches_dense(self, acc, vec, coeff):
        ref = [acc.get(i, 0) + coeff * vec.get(i, 0) for i in range(6)]
        add_scaled(acc, vec, coeff)
        assert acc == as_dict(ref)
        assert all(acc.values())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), sparse_entries), max_size=12),
           st.data())
    def test_addmul_matches_dense_and_never_holds_zero(self, ops, data):
        # replay some terms negated so that entries cancel and come back
        undo = data.draw(st.lists(st.sampled_from(ops), max_size=len(ops))
                         if ops else st.just([]))
        ops = ops + [(k, -c) for k, c in undo] + undo
        acc: dict = {}
        ref = [Fraction(0)] * 4
        for key, coeff in ops:
            addmul(acc, key, coeff)
            ref[key] += coeff
            assert all(acc.values())
        assert acc == as_dict(ref)


class TestSparseMatrix:
    def test_construction_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [(2, 0, 1)])

    def test_construction_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [(0, 0, 1), (0, 0, 2)])

    def test_zeros_are_dropped(self):
        m = SparseMatrix(2, 2, [(0, 0, 0), (1, 1, 3)])
        assert m.nnz() == 1
        assert m[(0, 0)] == 0 and m[(1, 1)] == 3

    def test_identity_matmul(self):
        m = from_rows([[1, 2], [3, 4]])
        assert m.matmul(identity(2)) == m
        assert identity(2).matmul(m) == m

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            identity(2).matmul(identity(3))

    def test_transpose_involution(self):
        m = from_rows([[1, 0, 2], [0, 5, 0]])
        assert m.transpose().transpose() == m

    @settings(max_examples=100, deadline=None)
    @given(small_dense, st.data())
    def test_rows_and_transpose_agree_with_entries(self, dense, data):
        cols, rows = dense
        m = from_rows(rows, cols=cols)
        nonzero = [(r, c, v) for r, row in enumerate(rows)
                   for c, v in enumerate(row) if v]
        # entries and the transpose's rows are sorted whatever order the
        # entries were given in; a row view keeps its row's order
        shuffled = data.draw(st.permutations(nonzero))
        for m in (m, SparseMatrix(m.rows, m.cols, shuffled)):
            entries = list(m.entries())
            assert entries == nonzero
            assert m.nnz() == len(nonzero)
            for r in range(m.rows):
                for c in range(m.cols):
                    assert m[(r, c)] == rows[r][c]
            for r in range(m.rows):
                row = m.row(r)
                assert dict(row) == {c: v for rr, c, v in entries if rr == r}
                assert m.row(r) is row
            mt = m.transpose()
            for c in range(m.cols):
                assert list(mt.row(c).items()) == [
                    (r, v) for r, cc, v in entries if cc == c]
            if entries:
                r, c, _ = entries[0]
                with pytest.raises(TypeError):
                    m.row(r)[c] = Fraction(0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 5), st.integers(0, 5),
           sparse_entries, st.data())
    def test_matmul_matches_dense_with_cancelling_rows(self, k, r, c, s,
                                                       data):
        # b's last row is s times its first, and a's last row is
        # (s, 0, .., 0, -1), so that row of the product cancels to zero
        b = data.draw(sparse_matrix(k, c))
        b_rows = to_dense(b) + [[s * x for x in to_dense(b)[0]]]
        b = from_rows(b_rows, cols=c)
        a_rows = to_dense(data.draw(sparse_matrix(r, k + 1)))
        a_rows.append([s] + [0] * (k - 1) + [-1])
        a = from_rows(a_rows, cols=k + 1)
        prod = a.matmul(b)
        assert to_dense(prod) == dense_matmul(a_rows, b_rows, k + 1)
        assert not prod.row(len(a_rows) - 1)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), sparse_entries, st.data())
    def test_transpose_rows_times_vector_match_dense(self, rows, k, s, data):
        # the last column is s times the first, so (s, 0, .., 0, -1) is
        # killed by cancellation
        m = data.draw(sparse_matrix(rows, k + 1))
        dense = [row[:-1] + [s * row[0]] for row in to_dense(m)]
        m = from_rows(dense, cols=k + 1)
        for vec in (data.draw(sparse_vectors.map(
                        lambda v: {i: x for i, x in v.items() if i <= k})),
                    {0: Fraction(s), k: Fraction(-1)}):
            ref = dense_matmul(dense, [[vec.get(i, Fraction(0))]
                                       for i in range(k + 1)], k + 1)
            assert mat_vec(m, vec) == as_dict([x for x, in ref])
        assert not mat_vec(m, {0: Fraction(s), k: Fraction(-1)})


class TestExactStorage:
    @settings(max_examples=100, deadline=None)
    @given(rank_test_matrix())
    def test_integral_values_stored_as_int(self, m):
        for _, _, v in m.entries():
            assert type(v) is (int if v.denominator == 1 else Fraction)
        as_fractions = SparseMatrix(m.rows, m.cols, [
            (r, c, Fraction(v)) for r, c, v in m.entries()])
        assert as_fractions == m and hash(as_fractions) == hash(m)
        for _, _, v in as_fractions.entries():
            assert type(v) is (int if v.denominator == 1 else Fraction)

    def test_products_of_int_matrices_stay_int(self):
        m = from_rows([[Fraction(2), -1], [Fraction(6, 3), 0]])
        assert all(type(v) is int for _, _, v in m.matmul(m).entries())
        assert all(type(v) is int for v in mat_vec(m, {0: 1, 1: 3}).values())
        assert type(m[(1, 1)]) is int and m[(1, 1)] == 0

    def test_format_vector_prints_exact_values(self):
        assert format_vector({2: Fraction(1, 2), 0: Fraction(-1), 1: 3}) \
            == "{0: -1, 1: 3, 2: 1/2}"
        assert format_vector({(1, 0): 2, (0, 1): -1}) == \
            "{(0, 1): -1, (1, 0): 2}"
        assert format_vector({}) == "{}"

    def test_normaliser(self):
        assert type(as_exact(Fraction(4, 2))) is int
        assert as_exact(Fraction(4, 2)) == 2
        assert type(as_exact(True)) is int
        assert as_exact(Fraction(1, 3)) == Fraction(1, 3)
        for bad in (0.5, 1.0, "1", None):
            with pytest.raises(TypeError):
                as_exact(bad)
            with pytest.raises(TypeError):
                SparseMatrix(1, 1, [(0, 0, bad)])


class TestRank:
    def test_zero_matrix(self):
        assert rank(SparseMatrix.zero(3, 4)) == 0

    def test_identity(self):
        assert rank(identity(5)) == 5

    def test_fill_in_is_not_lost(self):
        # Elimination creates entries in columns absent from the
        # eliminated row; this matrix has rank 2 only if they survive.
        m = from_rows([
            [1, 1, 0],
            [1, 0, 1],
        ])
        assert rank(m) == 2

    def test_dependent_rows_vanish(self):
        # Rows 2 and 4 eliminate to zero; the rows that replace eliminated
        # ones must still be chosen as pivots.
        m = from_rows([
            [1, 2, 0],
            [2, 4, 0],
            [0, 1, 1],
            [1, 3, 1],
        ])
        assert rank(m) == dense_rank(to_dense(m)) == 2

    def test_rational_entries(self):
        m = from_rows([
            [Fraction(1, 2), Fraction(1, 3)],
            [Fraction(3, 2), Fraction(1, 1)],
        ])
        assert rank(m) == dense_rank(to_dense(m)) == 1

    def test_non_unit_pivot_divides_by_the_row_gcd(self):
        # Row 0 is kept with pivot 4 at column 1.  Row 1 meets it there:
        # 1 * (6, 4) - 1 * (2, 4) = (4, 0), divided by its gcd to (1, 0),
        # kept at column 0.  Row 2: (8, 8) - 2 * (2, 4) = (4, 0), then
        # (1, 0), which the unit pivot of row 1 reduces to zero.
        m = from_rows([[2, 4], [6, 4], [8, 8]])
        pivots: list[int] = []
        assert rank(m, pivots=pivots) == dense_rank(to_dense(m)) == 2
        assert pivots == [1, 0]

    @settings(max_examples=150, deadline=None)
    @given(small_matrix)
    def test_matches_dense_reference(self, m):
        assert rank(m) == dense_rank(to_dense(m))

    @settings(max_examples=300, deadline=None)
    @given(rank_test_matrix())
    def test_matches_dense_reference_on_cancelling_rows(self, m):
        # int and Fraction entries, non-unit pivots, duplicate and
        # dependent rows, zero rows, empty shapes
        assert rank(m) == dense_rank(to_dense(m))
        assert rank(m.transpose()) == rank(m)

    @settings(max_examples=200, deadline=None)
    @given(rank_test_matrix(), st.data())
    def test_skipped_rows_are_deleted_rows(self, m, data):
        skip = data.draw(st.sets(st.integers(0, max(m.rows - 1, 0))))
        kept = SparseMatrix(m.rows, m.cols, [
            (r, c, v) for r, c, v in m.entries() if r not in skip])
        assert rank(m, skip) == rank(kept) == dense_rank(to_dense(kept))

    @settings(max_examples=200, deadline=None)
    @given(rank_test_matrix(), st.data())
    def test_pivots_are_independent_columns(self, m, data):
        skip = data.draw(st.sets(st.integers(0, max(m.rows - 1, 0))))
        pivots: list[int] = []
        rk = rank(m, skip, pivots)
        assert rk == len(pivots) == len(set(pivots))
        assert all(0 <= c < m.cols for c in pivots)
        cols = {c: j for j, c in enumerate(pivots)}
        sub = SparseMatrix(m.rows, rk, [(r, cols[c], v)
                                        for r, c, v in m.entries()
                                        if c in cols and r not in skip])
        assert dense_rank(to_dense(sub)) == rk

    @settings(max_examples=100, deadline=None)
    @given(small_matrix)
    def test_transpose_invariant(self, m):
        assert rank(m) == rank(m.transpose())

    @settings(max_examples=100, deadline=None)
    @given(small_matrix, st.data())
    def test_row_scaling_and_swap_invariant(self, m, data):
        if m.rows == 0:
            return
        scalings = {
            r: data.draw(st.sampled_from(
                [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3)]))
            for r in range(m.rows)
        }
        swaps = data.draw(st.lists(
            st.tuples(st.integers(0, m.rows - 1), st.integers(0, m.rows - 1)),
            max_size=4))
        assert rank(scale_row_swap_variant(m, scalings, swaps)) == rank(m)


class TestRrefAndNullspace:
    def test_rref_pivots_are_unit(self):
        m = from_rows([[2, 4], [1, 2], [0, 3]])
        rows, pivots = rref(m)
        assert pivots == [0, 1]
        for row, pc in zip(rows, pivots):
            assert row[pc] == 1

    def test_integral_results_are_int(self):
        rows, pivots = rref(from_rows([[2, 4, 6], [1, 3, 5]]))
        assert rows == [{0: 1, 2: -1}, {1: 1, 2: 2}] and pivots == [0, 1]
        basis = nullspace(from_rows([[1, 2, 3]]))
        assert basis == [{1: 1, 0: -2}, {2: 1, 0: -3}]
        values = [v for vec in rows + basis for v in vec.values()]
        assert {type(v) for v in values} == {int}
        (half,), _ = rref(from_rows([[2, 1]]))
        assert half == {0: 1, 1: Fraction(1, 2)} and type(half[0]) is int
        # back-substitution: clearing row 0's column 1 gives
        # 0 - 2 * (-3/2) = 3, an int, not Fraction(3, 1)
        m = from_rows([[1, 2, 0], [1, 0, 3]])
        rows, _ = rref(m)
        (vec,) = nullspace(m)
        assert rows == [{0: 1, 2: 3}, {1: 1, 2: Fraction(-3, 2)}]
        assert vec == {2: 1, 0: -3, 1: Fraction(3, 2)}
        assert type(rows[0][2]) is int and type(vec[0]) is int

    @settings(max_examples=200, deadline=None)
    @given(rank_test_matrix())
    def test_rref_is_reduced_and_integral_values_are_int(self, m):
        rows, pivots = rref(m)
        assert pivots == sorted(pivots) and len(pivots) == rank(m)
        for row, pc in zip(rows, pivots):
            assert min(row) == pc and row[pc] == 1
            assert all(c not in row for c in pivots if c != pc)
        # the rows span m's row space
        both = SparseMatrix(m.rows + len(rows), m.cols, [
            *m.entries(), *((m.rows + i, c, v) for i, row in enumerate(rows)
                            for c, v in row.items())])
        assert rank(both) == len(pivots)
        for vec in rows + nullspace(m):
            for v in vec.values():
                assert v and type(v) is (int if v.denominator == 1
                                         else Fraction)

    def test_nullspace_vectors_are_killed(self):
        m = from_rows([[1, 2, 3], [4, 5, 6]])
        basis = nullspace(m)
        assert len(basis) == m.cols - rank(m) == 1
        for vec in basis:
            assert not mat_vec(m, vec)

    @settings(max_examples=100, deadline=None)
    @given(small_matrix)
    def test_nullspace_dimension_and_independence(self, m):
        basis = nullspace(m)
        assert len(basis) == m.cols - rank(m)
        assert span_rank(basis) == len(basis)
        for vec in basis:
            assert not mat_vec(m, vec)


class TestNoFloats:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.data())
    def test_integer_input_gives_no_float(self, r, c, data):
        ints = st.sampled_from([0, 0, 1, -1, 2, 3, -4])
        rows = data.draw(st.lists(st.lists(ints, min_size=c, max_size=c),
                                  min_size=r, max_size=r))
        m = from_rows(rows, cols=c)
        reduced, _ = rref(m)
        values = [v for row in reduced for v in row.values()]
        values += [v for vec in nullspace(m) for v in vec.values()]
        span = [{k: v for k, v in enumerate(row) if v} for row in rows]
        if span:
            target = {k: 3 * v for k, v in span[0].items()}
            values += solve_in_span(span, target)
        assert all(type(v) in (int, Fraction) for v in values)


class TestSolveInSpan:
    def test_inside(self):
        span = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
        coeffs = solve_in_span(span, {0: Fraction(2), 1: Fraction(5)})
        assert coeffs == [Fraction(2), Fraction(3)]

    def test_outside(self):
        span = [{0: Fraction(1)}]
        assert solve_in_span(span, {1: Fraction(1)}) is None

    def test_empty_span(self):
        assert solve_in_span([], {}) == []
        assert solve_in_span([], {0: Fraction(1)}) is None


class TestSpanMembership:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(sparse_vectors, max_size=5), st.data())
    def test_in_span_agrees_with_solve_in_span(self, vectors, data):
        inside = bool(vectors) and data.draw(st.booleans())
        if inside:
            v: dict = {}
            for u in vectors:
                add_scaled(v, u, data.draw(st.sampled_from(
                    [0, 1, -1, 3, Fraction(-1, 2)])))
        else:
            v = data.draw(sparse_vectors)
        basis = span_basis(vectors)
        assert len(basis) == span_rank(vectors)
        solvable = solve_in_span(vectors, v) is not None
        assert in_span(basis, v) == solvable
        assert solvable or not inside

    def test_basis_rows_are_left_unchanged(self):
        basis = span_basis([{0: 2, 1: 4}, {0: 1}])
        before = {pc: dict(row) for pc, row in basis.items()}
        assert in_span(basis, {0: 3, 1: 1})
        assert not in_span(basis, {2: Fraction(1, 3)})
        assert in_span(basis, {}) and basis == before


class TestStoredRowsOnly:
    """Eliminations walk only the rows a matrix stores, ascending, so a
    matrix costs what its entries cost however many rows it has."""

    def test_a_billion_rows_with_three_entries(self):
        m = SparseMatrix(10**9, 3, [(10**9 - 1, 0, 3), (5, 0, 1),
                                    (10**8, 1, 2)])
        assert rank(m) == 2
        assert rref(m) == ([{0: 1}, {1: 1}], [0, 1])
        assert nullspace(m) == [{2: 1}]

    def test_matmul_walks_only_stored_rows(self):
        m = SparseMatrix(10**9, 3, [(10**9 - 1, 0, 3), (5, 0, 1),
                                    (10**8, 1, 2)])
        prod = m.matmul(identity(3))
        assert (prod.rows, prod.cols) == (10**9, 3)
        assert list(prod.entries()) == [(5, 0, 1), (10**8, 1, 2),
                                         (10**9 - 1, 0, 3)]

    def test_span_helpers_take_large_coordinates(self):
        big = 10**9
        span = [{0: 1, big: 2}, {big: 1}]
        assert span_rank(span) == 2
        assert span_rank([{big: 2}, {big: Fraction(1, 2)}]) == 1
        assert span_rank([{}, {}]) == span_rank([]) == 0
        assert solve_in_span(span, {0: 1, big: 5}) == [1, 3]
        assert solve_in_span(span, {1: 1}) is None


class TestChainComplex:
    def triangle(self) -> ChainComplex:
        """Simplicial chains of a hollow triangle: 3 vertices, 3 edges."""
        d1 = from_rows([
            [-1, -1, 0],
            [1, 0, -1],
            [0, 1, 1],
        ])
        return ChainComplex([3, 3], [d1])

    def test_triangle_homology(self):
        c = self.triangle()
        assert c.homology() == [1, 1]

    def test_two_simplex_homology(self):
        # Fill the triangle with one 2-cell: contractible.
        d1 = self.triangle().boundaries[0]
        d2 = from_rows([[1], [-1], [1]])
        c = ChainComplex([3, 3, 1], [d1, d2])
        assert c.homology() == [1, 0, 0]

    def test_square_of_differential_is_checked(self):
        d1 = from_rows([[1, 0], [0, 1]])
        d2 = from_rows([[1], [0]])
        with pytest.raises(ComplexError) as exc:
            ChainComplex([2, 2, 1], [d1, d2])
        # the witness names a nonzero entry of d.d
        assert "d.d != 0" in str(exc.value)
        assert "(0,0)" in str(exc.value)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ChainComplex([2, 3], [SparseMatrix.zero(3, 2)])
        with pytest.raises(ValueError):
            ChainComplex([2, 3], [])

    @settings(max_examples=300, deadline=None)
    @given(chain_complex_data(), st.data())
    def test_cleared_homology_matches_per_boundary_ranks(self, cx, data):
        # the clearing in ``ranks`` is exact only on a complex; an entry
        # changed so that d.d != 0 must be refused at construction
        spaces, boundaries = cx
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, len(boundaries) - 1))
            b = boundaries[k]
            if b.rows and b.cols:
                r = data.draw(st.integers(0, b.rows - 1))
                c = data.draw(st.integers(0, b.cols - 1))
                dense = to_dense(b)
                dense[r][c] += data.draw(
                    st.sampled_from([1, -2, Fraction(1, 3)]))
                boundaries = list(boundaries)
                boundaries[k] = from_rows(dense, cols=b.cols)
        square_zero = all(
            not any(any(row) for row in dense_matmul(
                to_dense(a), to_dense(b), a.cols))
            for a, b in zip(boundaries, boundaries[1:]))
        if not square_zero:
            with pytest.raises(ComplexError):
                ChainComplex(spaces, boundaries)
            return
        cc = ChainComplex(spaces, boundaries)
        reference = [rank(b) for b in boundaries]
        assert reference == [dense_rank(to_dense(b)) for b in boundaries]
        assert cc.ranks() == reference
        padded = [0, *reference, 0]
        assert cc.homology() == [dim - padded[i] - padded[i + 1]
                                 for i, dim in enumerate(spaces)]

    def test_boundaries_cannot_be_changed_after_the_check(self):
        cc = ChainComplex([1, 1], [identity(1)])
        assert isinstance(cc.spaces, tuple)
        assert isinstance(cc.boundaries, tuple)

    @settings(max_examples=60, deadline=None)
    @given(small_matrix)
    def test_euler_characteristic_equals_alternating_betti(self, m):
        c = ChainComplex([m.rows, m.cols], [m])
        betti = c.homology()
        assert sum((-1) ** i * b for i, b in enumerate(betti)) == \
            m.rows - m.cols
