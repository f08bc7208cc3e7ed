"""Tests for cooperads, shuffles and the cobar construction.

Chain-group dimensions are cross-checked against a product-over-trees
count, the quotient-by-shuffles model gives an independent dimension
oracle for the bracket cooperad, and homology values are frozen from
independent runs.  A deliberately unsigned differential must be caught
by the d.d = 0 check.
"""

import hashlib
import itertools
import re
from fractions import Fraction
from math import factorial

import pytest

from operadkit.cobar import (
    CobarComplex,
    CobarError,
    Cooperad,
    asc_cooperad,
    cobar_dims,
    cobar_homology,
    cobar_operad,
    commc_cooperad,
    liec_cooperad,
)
from operadkit.operads import (
    OperadError,
    assoc_operad,
    check_axioms,
    comm_operad,
    lie_operad,
    perm_inverse,
    shuffles,
)
from operadkit.qlinalg import ChainComplex, ComplexError, SparseMatrix, rank
from operadkit.treegraph import Tree, decode_tree, enumerate_trees_all
from reference import (boundary_entries, dense_rank, liec_component_dim,
                       multilinear_shuffle_relations, shuffle_sum, to_dense)


def expected_chain_dims(cooperad, n):
    """Independent count: sum over trees of the product of component
    dimensions at the vertex arities."""
    out = {}
    for e, trees in enumerate_trees_all(n).items():
        total = 0
        for t in trees:
            prod = 1
            for m in t.vertex_arities():
                prod *= cooperad.dim(m)
            total += prod
        out[e] = total
    return out


class TestCooperad:
    def test_requires_degree_zero(self):
        from operadkit.operads import EndOperad, GradedSpace
        V = GradedSpace(("x", "y"), (0, 1))
        with pytest.raises(CobarError):
            Cooperad(EndOperad(V, 2))

    @pytest.mark.parametrize("factory,cofactory", [
        (lie_operad, liec_cooperad),
        (assoc_operad, asc_cooperad),
        (comm_operad, commc_cooperad),
    ])
    def test_cocompose_is_transpose_of_compose(self, factory, cofactory):
        # a contiguous block needs no reordering of inputs, so splitting
        # it off is the plain transpose of composing at its first slot
        O, C = factory(4), cofactory(4)
        for s in (2, 3):
            n = 4
            m = n - s + 1
            for i in range(1, m + 1):
                table = C.cocompose(n, tuple(range(i, i + s)))
                for a0, co in table.items():
                    for (a, b), coeff in co.items():
                        assert O.compose_basis(m, i, s, a, b)[a0] == coeff
                # completeness: every operad structure constant appears
                for a in range(O.dim(m)):
                    for b in range(O.dim(s)):
                        for out, c in O.compose_basis(m, i, s, a, b).items():
                            assert table[out][(a, b)] == c

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_asc_cocompose_splits_off_consecutive_letters(self, m):
        # oracle read off the word basis alone: the functional of a word w
        # splits off the letters of S iff they stand next to each other
        # in w, into (w with the block collapsed to the letter min S, the
        # block's own order), with coefficient 1
        C = asc_cooperad(m)

        def words(n):
            return [tuple(map(int, name)) for name in C.space(n).names]

        for k in range(2, m):
            outer = {w: a for a, w in enumerate(words(m - k + 1))}
            inner = {w: b for b, w in enumerate(words(k))}
            for S in itertools.combinations(range(1, m + 1), k):
                table = C.cocompose(m, S)
                kept = [x for x in range(1, m + 1) if x not in S[1:]]
                rename = {x: j for j, x in enumerate(kept, start=1)}
                for a0, w in enumerate(words(m)):
                    at = [p for p, x in enumerate(w) if x in S]
                    start = at[0]
                    if at != list(range(start, start + k)):
                        assert a0 not in table, (S, w)
                        continue
                    collapsed = w[:start] + (S[0],) + w[start + k:]
                    a = outer[tuple(rename[x] for x in collapsed)]
                    b = inner[tuple(S.index(x) + 1 for x in w[start:start + k])]
                    assert table[a0] == {(a, b): 1}, (S, w)

    @pytest.mark.parametrize("S", [(3, 1), (2, 2), (1, 5), ()])
    def test_a_malformed_subset_is_refused(self, S):
        # the places must ascend strictly within 1..m, at least one
        message = re.escape(f"along {S} in arity 4")
        with pytest.raises(OperadError, match=message):
            asc_cooperad(4).cocompose(4, S)
        with pytest.raises(OperadError, match=message):
            assoc_operad(4).compose_along(4, S)

    # SHA-256 of every cocomposition table (m, S), 1 <= |S| <= m <= 7,
    # each as its sorted rows and entries, written down before the
    # tables were read off composition along S
    TABLE_DIGESTS = [
        (liec_cooperad, "15f9b01c000ed6abd07637a6de7cb8dd"
                        "a5b6b5f469a89183830edca86b0e604d"),
        (asc_cooperad, "e119c9f081e8f5941e66b87cdd22c1fa"
                       "18baf42720d3da79b349bd6307fdf0d3"),
        (commc_cooperad, "54176e18f1c21079d5127138cf814c3d"
                         "59e002d702b958f937c19cd9e4394fc6"),
    ]

    @pytest.mark.parametrize("cofactory, digest", TABLE_DIGESTS)
    def test_cocomposition_tables_are_pinned(self, cofactory, digest):
        C, h = cofactory(7), hashlib.sha256()
        for m in range(2, 8):
            for k in range(1, m + 1):
                for S in itertools.combinations(range(1, m + 1), k):
                    table = C.cocompose(m, S)
                    h.update(repr((m, S, sorted(
                        (a0, sorted(co.items()))
                        for a0, co in table.items()))).encode())
        assert h.hexdigest() == digest

    def test_dual_action_preserves_pairing(self):
        O, C = lie_operad(4), liec_cooperad(4)
        n = 3
        for sigma in itertools.permutations(range(1, n + 1)):
            for a0 in range(C.dim(n)):
                row = C.act(n, sigma, a0)
                # <f.sigma, x> = <f, x.sigma^{-1}>
                for x in range(O.dim(n)):
                    lhs = row.get(x, 0)
                    rhs = O.act_basis(n, perm_inverse(sigma), x).get(a0, 0)
                    assert lhs == rhs


class TestShuffles:
    def test_shuffle_count(self):
        from math import comb
        for p, q in [(1, 1), (2, 2), (2, 3)]:
            assert len(list(shuffles(p, q))) == comb(p + q, p)

    def test_unsigned_shuffle_sum(self):
        assert shuffle_sum((1,), (2,)) == {(1, 2): 1, (2, 1): 1}

    def test_signed_shuffle_sum_with_odd_letters(self):
        assert shuffle_sum((1,), (2,), degrees=(1, 1)) == \
            {(1, 2): 1, (2, 1): -1}

    def test_disjointness_required(self):
        with pytest.raises(ValueError):
            shuffle_sum((1, 2), (2, 3))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_quotient_dimension_matches_dual_model(self, n):
        assert liec_component_dim(n) == factorial(n - 1)
        assert liec_component_dim(n) == liec_cooperad(n).dim(n)

    def test_relation_count(self):
        rels = multilinear_shuffle_relations(3)
        assert all(rel for rel in rels)
        # every relation is supported on length-3 words
        for rel in rels:
            assert all(len(w) == 3 for w in rel)


class TestCobarComplex:
    @pytest.mark.parametrize("cofactory", [
        liec_cooperad, asc_cooperad, commc_cooperad])
    @pytest.mark.parametrize("n", range(2, 6))
    def test_chain_dims_match_tree_census(self, cofactory, n):
        co = cofactory(n)
        assert cobar_dims(co, n) == expected_chain_dims(co, n)

    @pytest.mark.parametrize("cofactory", [
        liec_cooperad, asc_cooperad, commc_cooperad])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_counted_dims_match_the_decorated_basis(self, cofactory, n):
        co = cofactory(n)
        assert cobar_dims(co, n) == CobarComplex(co, n).dims()

    def test_counted_dims_reject_what_the_complex_rejects(self):
        for n in (1, 4):
            with pytest.raises(CobarError):
                cobar_dims(liec_cooperad(3), n)

    def test_frozen_chain_dims(self):
        assert cobar_dims(liec_cooperad(5), 5) == \
            {0: 24, 1: 130, 2: 210, 3: 105}
        assert cobar_dims(asc_cooperad(4), 4) == {0: 24, 1: 120, 2: 120}
        assert cobar_dims(commc_cooperad(4), 4) == {0: 1, 1: 10, 2: 15}

    @pytest.mark.parametrize("n", range(2, 6))
    def test_bracket_dual_homology_is_one_dimensional_at_top(self, n):
        hom = cobar_homology(liec_cooperad(n), n)
        assert hom[n - 2] == 1
        assert all(b == 0 for e, b in hom.items() if e != n - 2)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_associative_dual_homology_is_factorial_at_top(self, n):
        hom = cobar_homology(asc_cooperad(n), n)
        assert hom[n - 2] == factorial(n)
        assert all(b == 0 for e, b in hom.items() if e != n - 2)

    @pytest.mark.parametrize("n", range(3, 6))
    def test_commutative_dual_homology_matches_bracket_dimensions(self, n):
        hom = cobar_homology(commc_cooperad(n), n)
        assert hom[n - 2] == factorial(n - 1)
        assert all(b == 0 for e, b in hom.items() if e != n - 2)

    @pytest.mark.parametrize("cofactory, n, ranks", [
        (liec_cooperad, 6, [120, 804, 1576, 944]),
        (asc_cooperad, 5, [120, 960, 1560]),
    ])
    def test_boundary_ranks_pinned(self, cofactory, n, ranks):
        # the dual in edge order: boundaries[e] maps degree e + 1 to e
        cc = CobarComplex(cofactory(n), n).chain_complex()
        assert [rank(b) for b in cc.boundaries] == ranks
        assert all(type(v) is int for b in cc.boundaries
                   for _, _, v in b.entries())

    @pytest.mark.parametrize("cofactory, top", [
        (liec_cooperad, 6), (asc_cooperad, 5), (commc_cooperad, 5)])
    def test_dual_has_the_betti_numbers_of_d(self, cofactory, top):
        # d itself from the same entries, graded by operadic degree
        # p = n - 2 - e: boundaries[p] maps degree p + 1 to p, its rows
        # are targets, and each is ranked on its own, with no clearing
        for n in range(2, top + 1):
            cx = CobarComplex(cofactory(n), n)
            dims = cx.dims()
            d = [SparseMatrix(dims[e + 1], dims[e],
                              [(c, r, v) for r, c, v in cx.boundary_from(e)])
                 for e in range(n - 2)]
            cc = ChainComplex([dims[n - 2 - p] for p in range(n - 1)],
                              d[::-1])
            ranks = [0, *map(rank, cc.boundaries), 0]
            betti = {n - 2 - p: dim - ranks[p] - ranks[p + 1]
                     for p, dim in enumerate(cc.spaces)}
            assert cx.homology() == betti, n

    @pytest.mark.parametrize("cofactory, top", [
        # asc 5's 2520 x 1680 boundary is beyond the dense reference
        (liec_cooperad, 5), (asc_cooperad, 4), (commc_cooperad, 5)])
    def test_boundary_ranks_match_the_dense_reference(self, cofactory, top):
        for n in range(2, top + 1):
            cc = CobarComplex(cofactory(n), n).chain_complex()
            dense = [dense_rank(to_dense(b)) for b in cc.boundaries]
            assert [rank(b) for b in cc.boundaries] == dense, n
            assert cc.ranks() == dense, n

    @pytest.mark.parametrize("sign_mode", ["standard", "unsigned"])
    @pytest.mark.parametrize("cofactory", [
        liec_cooperad, asc_cooperad, commc_cooperad])
    def test_each_boundary_entry_arises_once(self, cofactory, sign_mode):
        # boundary_matrix stores boundary_from's entries as they come, so
        # none of them may share a (row, col) or be zero
        for n in range(2, 6):
            cx = CobarComplex(cofactory(n), n, sign_mode=sign_mode)
            for e in range(n - 2):
                assert cx.boundary_matrix(e).nnz() == len(cx.boundary_from(e))

    @pytest.mark.parametrize("sign_mode", ["standard", "unsigned"])
    @pytest.mark.parametrize("cofactory, top", [
        (liec_cooperad, 6), (asc_cooperad, 5), (commc_cooperad, 5)])
    def test_boundary_entries_match_the_per_tree_reference(
            self, cofactory, top, sign_mode):
        # skeleton expansions placed by arithmetic, against each tree
        # expanded itself and placed by a (shape, decoration) dict
        for n in range(2, top + 1):
            cx = CobarComplex(cofactory(n), n, sign_mode=sign_mode)
            for e in range(n - 2):
                assert sorted(cx.boundary_from(e)) == \
                    sorted(boundary_entries(cx, e)), (n, e)

    def test_differential_squares_to_zero_explicitly(self):
        cc = CobarComplex(liec_cooperad(5), 5).chain_complex()
        for i in range(len(cc.boundaries) - 1):
            assert cc.boundaries[i].matmul(cc.boundaries[i + 1]).is_zero()

    def test_unsigned_differential_is_rejected(self):
        cx = CobarComplex(liec_cooperad(4), 4, sign_mode="unsigned")
        with pytest.raises(ComplexError) as exc:
            cx.homology()
        message = str(exc.value)
        assert "d.d != 0" in message
        # the witness: the corolla's only skeleton tree, with its only
        # decoration
        assert "from edge degree 0 to 2" in message
        assert "skeleton tree (1,2,3,4) with decoration (0,)" in message
        # the full check of chain_complex() fails too
        with pytest.raises(ComplexError, match=r"d\.d != 0"):
            cx.chain_complex()

    def test_bad_sign_mode(self):
        with pytest.raises(CobarError):
            CobarComplex(liec_cooperad(3), 3, sign_mode="sloppy")

    def test_arity_bounds(self):
        with pytest.raises(CobarError):
            CobarComplex(liec_cooperad(3), 1)
        with pytest.raises(CobarError):
            CobarComplex(liec_cooperad(3), 4)

    @pytest.mark.parametrize("cofactory, top", [
        (liec_cooperad, 5), (asc_cooperad, 4), (commc_cooperad, 5)])
    def test_position_inverts_the_basis(self, cofactory, top):
        for n in range(2, top + 1):
            cx = CobarComplex(cofactory(n), n)
            assert [cx.position(t, d) for t, d in cx.basis] == \
                list(range(len(cx.basis))), n

    def test_position_refuses_a_bad_decoration(self):
        cx = CobarComplex(liec_cooperad(5), 5)
        # a tree whose two vertices have arity 3, so dims (2, 2)
        t = next(t for t, _ in cx.basis if t.vertex_arities() == [3, 3])
        good = {d: cx.position(t, d)
                for d in itertools.product(range(2), repeat=2)}
        first = good[(0, 0)]
        assert list(good.values()) == list(range(first, first + 4))
        # too short or too long, an entry at its vertex's dim or below
        # zero: (0, 2) and (1, -1) would land on (1, 0) and (0, 1)
        for bad in [(), (0,), (0, 0, 0), (0, 2), (2, 0), (1, -1), (-1, 3)]:
            with pytest.raises(KeyError):
                cx.position(t, bad)
        assert {d: cx.position(t, d) for d in good} == good
        corolla = cx.basis[0][0]
        assert cx.position(corolla, (23,)) == 23
        for bad in [(24,), (-1,), (0, 0)]:
            with pytest.raises(KeyError):
                cx.position(corolla, bad)

    @pytest.mark.parametrize("cofactory, top", [
        (liec_cooperad, 5), (asc_cooperad, 4), (commc_cooperad, 5)])
    def test_differential_places_the_boundary_entries(self, cofactory, top):
        # the basis runs by edge count, so degree e starts after the
        # dimensions below it; rows are targets, in degree e + 1
        for n in range(2, top + 1):
            cx = CobarComplex(cofactory(n), n)
            dims = cx.dims()
            start = [sum(dims[k] for k in range(e)) for e in range(n)]
            size = len(cx.basis)
            want = SparseMatrix(size, size, [
                (start[e + 1] + c, start[e] + r, v)
                for e in range(n - 2) for r, c, v in cx.boundary_from(e)])
            d = cx.differential()
            assert d == want, n
            assert d.matmul(d).is_zero(), n

    def test_euler_characteristic_consistency(self):
        # alternating sums of chain dims and of homology agree
        for n in range(2, 6):
            co = liec_cooperad(n)
            dims = cobar_dims(co, n)
            hom = cobar_homology(co, n)
            chi_c = sum((-1) ** e * d for e, d in dims.items())
            chi_h = sum((-1) ** e * b for e, b in hom.items())
            assert chi_c == chi_h


class TestSkeletonCheck:
    """``homology`` checks d.d = 0 on the rows of one tree per skeleton
    and ranks each boundary as it is built; ``chain_complex`` multiplies
    every pair of boundaries in full.  The two must agree."""

    CASES = [(liec_cooperad, 6), (asc_cooperad, 5), (commc_cooperad, 6)]

    @pytest.mark.parametrize("sign_mode", ["standard", "unsigned"])
    @pytest.mark.parametrize("cofactory, top", CASES)
    def test_the_skeleton_rows_decide_as_the_full_product(
            self, cofactory, top, sign_mode):
        for n in range(2, top + 1):
            cx = CobarComplex(cofactory(n), n, sign_mode=sign_mode)
            for e in range(n - 3):
                d0, d1 = cx.boundary_matrix(e), cx.boundary_matrix(e + 1)
                full = d0.matmul(d1).is_zero()
                try:
                    cx._check_square(e, cx._skeleton_rows(e, d0), d1)
                    skeletons = True
                except ComplexError:
                    skeletons = False
                assert skeletons == full, (n, e)
                # the unsigned differential fails on every pair
                assert full == (sign_mode == "standard"), (n, e)

    @pytest.mark.parametrize("sign_mode", ["standard", "unsigned"])
    @pytest.mark.parametrize("cofactory, top", CASES)
    def test_streamed_homology_is_the_chain_complex_homology(
            self, cofactory, top, sign_mode):
        for n in range(2, top + 1):
            cx = CobarComplex(cofactory(n), n, sign_mode=sign_mode)
            try:
                full = dict(enumerate(cx.chain_complex().homology()))
            except ComplexError:
                full = ComplexError
            try:
                streamed = cx.homology()
            except ComplexError:
                streamed = ComplexError
            assert streamed == full, n

    def test_the_witness_is_the_basis_element_at_its_row(self, monkeypatch):
        # the boundary of the last decoration of each two-edge skeleton
        # with vertex arities (2, 2, 3) flips its sign, so d.d vanishes
        # from edge degree 0 and fails first from degree 1, past the
        # first tree; the error unranks its row, and the basis built
        # afterwards holds the element it names at that row
        boundary = CobarComplex._skeleton_boundary

        def faulty(self, sid):
            targets, rows = boundary(self, sid)
            if self._layout[sid][1] == [2, 2, 3]:
                rows = rows[:-1] + [[(x, col, -c) for x, col, c in rows[-1]]]
            return targets, rows

        monkeypatch.setattr(CobarComplex, "_skeleton_boundary", faulty)
        cx = CobarComplex(liec_cooperad(5), 5)
        with pytest.raises(ComplexError) as err:
            cx.homology()
        found = re.fullmatch(
            r"d\.d != 0 from edge degree 1 to 3: skeleton tree (\S+) with "
            r"decoration (\(.*\)) has entry \((\d+),\d+\) = -?\d+",
            str(err.value))
        assert found, str(err.value)
        tree, decor, row = found.groups()
        assert int(row) > 0 and cx._basis is None
        assert cx.basis[cx.dims()[0] + int(row)] == \
            (decode_tree(tree), tuple(map(int, re.findall(r"\d+", decor))))
        assert decode_tree(tree).internal_edges == 1

    def test_homology_lists_no_basis_and_builds_no_tree(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("homology read a basis element")

        monkeypatch.setattr(CobarComplex, "basis", property(refuse))
        monkeypatch.setattr(Tree, "__init__", refuse)
        monkeypatch.setattr(Tree, "_from_canonical", classmethod(refuse))
        assert cobar_homology(liec_cooperad(5), 5) == {0: 0, 1: 0, 2: 0, 3: 1}

    @pytest.mark.parametrize("cofactory, top", CASES)
    def test_every_skeleton_is_a_basis_tree(self, cofactory, top):
        for n in range(2, top + 1):
            cx = CobarComplex(cofactory(n), n)
            labels = tuple(range(1, n + 1))
            for e, index in enumerate(cx._index):
                sids = {key[0] for key in index}
                assert all((sid, *labels) in index for sid in sids), (n, e)
                if e == n - 2:
                    continue
                # the kept rows are the boundary's at those trees
                b = cx.boundary_matrix(e)
                places = [index[(sid, *labels)] + rel for sid in sids
                          for rel in range(len(cx._layout[sid][3]))]
                kept = cx._skeleton_rows(e, b)
                assert kept.rows == b.rows and kept.cols == b.cols
                assert kept._rows == {r: b.row(r) for r in places
                                      if b.row(r)}, (n, e)


class TestStreamedRows:
    """``homology`` builds of each boundary only the rows off the previous
    boundary's pivots, the skeleton rows and the rows its d.d check
    reads, each equal to that row of ``boundary_matrix``."""

    @pytest.mark.parametrize("cofactory, top", [
        (liec_cooperad, 6), (asc_cooperad, 5), (commc_cooperad, 5)])
    def test_only_the_rows_read_are_built(self, cofactory, top,
                                          monkeypatch):
        left_out = 0
        for n in range(2, top + 1):
            cx = CobarComplex(cofactory(n), n)
            built = []
            boundary = CobarComplex._boundary

            def recorded(self, e, skip=()):
                b = boundary(self, e, skip)
                built.append(b)
                return b

            with monkeypatch.context() as patch:
                patch.setattr(CobarComplex, "_boundary", recorded)
                cx.homology()
            assert len(built) == n - 2, n
            labels = tuple(range(1, n + 1))
            cleared, read = [], set()
            for e, b in enumerate(built):
                full = cx.boundary_matrix(e)
                index = cx._index[e]
                skeleton = {index[(sid, *labels)] + rel
                            for sid in {key[0] for key in index}
                            for rel in range(len(cx._layout[sid][3]))}
                wanted = {r for r, _, _ in full.entries()
                          if r not in cleared or r in skeleton or r in read}
                rows = {r for r, _, _ in b.entries()}
                assert rows == wanted, (n, e)
                assert all(b.row(r) == full.row(r) for r in rows), (n, e)
                left_out += len({r for r, _, _ in full.entries()} - rows)
                read = {c for r, c, _ in full.entries() if r in skeleton}
                pivots = []
                rank(full, cleared, pivots)
                cleared = pivots
        assert left_out > 0

    @pytest.mark.parametrize("cofactory, n", [
        (liec_cooperad, 5), (asc_cooperad, 5), (commc_cooperad, 5)])
    def test_the_skeleton_rows_are_never_left_out(self, cofactory, n):
        cx = CobarComplex(cofactory(n), n)
        for e in range(n - 2):
            full = cx.boundary_matrix(e)
            assert cx._boundary(e, set(range(full.rows))) == \
                cx._skeleton_rows(e, full), e

    def test_a_repeated_column_is_refused(self, monkeypatch):
        # an expansion listed twice puts two entries of a skeleton row at
        # one column, which the builder refuses
        from operadkit import cobar
        expansions = cobar.skeleton_expansions
        monkeypatch.setattr(cobar, "skeleton_expansions",
                            lambda skel: [*expansions(skel)][:1]
                            + [*expansions(skel)])
        cx = CobarComplex(liec_cooperad(4), 4)
        with pytest.raises(ValueError, match="names a column twice"):
            cx.homology()


class TestCobarOperad:
    @pytest.mark.parametrize("cofactory", [liec_cooperad, commc_cooperad])
    def test_operad_axioms(self, cofactory):
        B = cobar_operad(cofactory(4), 4)
        report = check_axioms(B, 4)
        assert report.ok, report.violations[:3]

    @pytest.mark.parametrize("max_arity, checked", [(3, 143), (4, 1814)])
    def test_liec_checked_counts_pinned(self, max_arity, checked):
        B = cobar_operad(liec_cooperad(max_arity), max_arity)
        report = check_axioms(B, max_arity)
        assert report.ok and report.checked == checked

    @pytest.mark.parametrize("cofactory, n", [
        (liec_cooperad, 3), (liec_cooperad, 4), (asc_cooperad, 3),
        (commc_cooperad, 4)])
    def test_action_is_a_group_action(self, cofactory, n):
        # x.(g h) = (x.h).g, as for the word operads; a vertex decoration
        # acted on by its slot map rather than that map's inverse broke
        # this on every corolla with three or more inputs
        B = cobar_operad(cofactory(n), n)
        perms = list(itertools.permutations(range(1, n + 1)))
        for g, h in itertools.product(perms, perms):
            gh = tuple(g[j - 1] for j in h)
            for a in range(B.dim(n)):
                want = B.act(n, g, B.act_basis(n, h, a))
                assert B.act_basis(n, gh, a) == \
                    {k: v for k, v in want.items() if v}, (g, h, a)

    def test_component_dims_match_complex(self):
        B = cobar_operad(liec_cooperad(4), 4)
        for n in range(2, 5):
            assert B.dim(n) == sum(cobar_dims(liec_cooperad(4), n).values())

    def test_degrees_count_missing_edges(self):
        B = cobar_operad(liec_cooperad(4), 4)
        for n in range(2, 5):
            for a in range(B.dim(n)):
                t, _ = B.complexes[n].basis[a]
                assert B.degree(n, a) == n - 2 - t.internal_edges

    def test_assembled_differentials_square_to_zero(self):
        B = cobar_operad(asc_cooperad(4), 4)
        for n, d in B.differentials.items():
            assert d.matmul(d).is_zero()

    def test_unit_component(self):
        B = cobar_operad(liec_cooperad(3), 3)
        assert B.dim(1) == 1
        assert B.unit_vector == {0: Fraction(1)}
