"""Tests for stratification first-page tables and Betti predictions.

Predicted compactified Betti numbers are checked against the
independent intersection-ring rank in degree 2, against palindromicity,
and against a stratum-by-stratum Euler characteristic; table ingestion
is exercised including conflicting and malformed input.
"""

import re
from math import comb

import pytest

from operadkit.strata import (
    BettiTable,
    E1Table,
    StrataError,
    dual_e1_table,
    dual_euler_check,
    e1_table,
    genus0_valence_census,
    keel_h2_rank,
    middle_row,
    open_betti,
    predict_compactified_betti,
    verify_vanishing,
)
from operadkit.treegraph import enumerate_trees
from reference import strata_euler_characteristic


def euler(table) -> int:
    return sum((-1) ** (p + q) * d for (p, q), d in table.entries.items())


class TestOpenBetti:
    def test_small_values(self):
        assert open_betti(3) == (1,)
        assert open_betti(4) == (1, 2)
        assert open_betti(5) == (1, 5, 6)
        assert open_betti(6) == (1, 9, 26, 24)

    def test_stirling_structure(self):
        # coefficients of prod (1 + k t), k = 2..n-2: top one is (n-2)!/1
        from math import factorial
        for n in range(4, 9):
            row = open_betti(n)
            assert row[0] == 1
            assert row[1] == (n - 1) * (n - 2) // 2 - 1
            assert row[-1] == factorial(n - 2)

    def test_needs_three_punctures(self):
        with pytest.raises(StrataError):
            open_betti(2)


class TestBettiTable:
    def test_shipped_higher_genus_entry(self):
        t = BettiTable()
        assert t.get(1, 1) == (1,)

    def test_genus_zero_always_available(self):
        assert BettiTable().get(0, 7) == open_betti(7)

    def test_missing_entry_raises(self):
        with pytest.raises(StrataError):
            BettiTable().get(2, 1)

    def test_csv_round_trip(self):
        back = BettiTable.from_csv("g,n,k,dim\n1,2,2,1\n1,2,0,1\n")
        assert back.get(1, 2) == (1, 0, 1)

    def test_csv_rejects_a_repeated_row(self):
        # the last of two rows for one (g, n, k) used to win silently
        with pytest.raises(StrataError, match=r"repeated.*'1,2,0,5'"):
            BettiTable.from_csv("g,n,k,dim\n1,2,0,1\n1,2,0,5\n1,2,2,1\n")

    def test_csv_rejects_bad_header_and_rows(self):
        with pytest.raises(StrataError):
            BettiTable.from_csv("a,b,c\n")
        with pytest.raises(StrataError):
            BettiTable.from_csv("g,n,k,dim\n1,1,0\n")
        with pytest.raises(StrataError):
            BettiTable.from_csv("g,n,k,dim\n1,1,zero,1\n")

    @pytest.mark.parametrize("field", ["1_0", "+3", "\u0662", "1.0", ""])
    def test_csv_fields_are_ascii_digits(self, field):
        # int() reads "1_0" as 10 and "\u0662" (Arabic-Indic two) as 2
        with pytest.raises(StrataError, match=re.escape(f"field {field!r} in row")):
            BettiTable.from_csv(f"g,n,k,dim\n1,2,0,{field}\n")

    def test_csv_fields_may_carry_spaces(self):
        back = BettiTable.from_csv("g,n,k,dim\n 1, 2 ,2,1\n1,2,0 , 1\n")
        assert back.get(1, 2) == (1, 0, 1)

    def test_negative_dimension_rejected(self):
        with pytest.raises(StrataError, match="negative value"):
            BettiTable.from_csv("g,n,k,dim\n1,2,0, -1\n")
        with pytest.raises(StrataError):
            BettiTable.from_csv("g,n,k,dim\n1,2,0,-1\n")

    def test_genus_zero_conflict_rejected(self):
        with pytest.raises(StrataError):
            BettiTable({(0, 5): (1, 4, 6)})

    def test_genus_zero_consistent_ingestion_allowed(self):
        t = BettiTable({(0, 5): (1, 5, 6)})
        assert t.get(0, 5) == (1, 5, 6)

    def test_unstable_pair_rejected(self):
        with pytest.raises(StrataError):
            BettiTable({(0, 2): (1,)})


class TestCensus:
    def test_counts_sum_to_tree_counts(self):
        for n in range(4, 8):
            census = genus0_valence_census(n)
            for e, counts in census.items():
                assert sum(counts.values()) == len(enumerate_trees(n - 1, e))

    def test_corolla_entry(self):
        census = genus0_valence_census(6)
        assert census[0] == {(6,): 1}

    def test_puncture_count_identity(self):
        # sum over vertices of (n(v) - 2) = n - 2 on every tree
        for n in range(4, 8):
            for e, counts in genus0_valence_census(n).items():
                for punctures in counts:
                    assert sum(nv - 2 for nv in punctures) == n - 2
                    assert len(punctures) == e + 1

    @pytest.mark.parametrize("n", range(3, 9))
    def test_counted_census_equals_enumerated_census(self, n):
        enumerated = {}
        for e in range(n - 2):
            counts = enumerated.setdefault(e, {})
            for t in enumerate_trees(n - 1, e):
                key = tuple(sorted(m + 1 for m in t.vertex_arities()))
                counts[key] = counts.get(key, 0) + 1
        assert genus0_valence_census(n) == enumerated

    def test_totals_are_the_tree_counts_of_oeis_a000311(self):
        # rooted trees on 2..11 labelled leaves, every vertex with
        # at least two children
        a000311 = [1, 4, 26, 236, 2752, 39208, 660032, 12818912,
                   282137824, 6939897856]
        totals = [sum(sum(c.values()) for c in
                      genus0_valence_census(leaves + 1).values())
                  for leaves in range(2, 12)]
        assert totals == a000311


class TestE1Table:
    def test_five_puncture_table_frozen(self):
        t = e1_table(0, 5)
        assert t.entries == {
            (0, 0): 15, (1, 0): 20, (1, 1): 10,
            (2, 0): 6, (2, 1): 5, (2, 2): 1,
        }
        assert euler(t) == 7

    def test_genus_one_one_leg(self):
        t = e1_table(1, 1)
        assert t.entries == {(0, 0): 1, (1, 1): 1}

    # Pinned higher-genus pages, computed by the per-graph product over
    # Betti rows before the pages went through the census fold.  A
    # missing row is reported for the first graph, in census order, that
    # has a vertex without one; under "degree0" a graph with automorphisms
    # whose rows carry a class above degree 0 raises first if it comes
    # first.
    ROWS = {(1, 2): (1, 0, 1), (1, 3): (1, 1, 2)}
    AUT = ("graph with nontrivial automorphisms carries classes above "
           "degree 0 at (g, n) = ({}, {}); the invariant computation is "
           "unsupported")
    MISSING = "no Betti data for (g, n) = ({}, {}); ingest a table"

    @pytest.mark.parametrize("g, n, rows, degree0, ignore", [
        (1, 1, ROWS, {(0, 0): 1, (1, 1): 1}, {(0, 0): 1, (1, 1): 1}),
        (1, 2, ROWS, AUT.format(1, 2),
         {(0, 0): 2, (1, 0): 2, (1, 1): 2, (2, 0): 1, (2, 2): 1}),
        (1, 3, ROWS, AUT.format(1, 3),
         {(0, 0): 7, (1, 0): 14, (1, 1): 10, (2, 0): 9, (2, 1): 7,
          (2, 2): 5, (3, 1): 2, (3, 2): 1, (3, 3): 1}),
        (2, 0, ROWS, MISSING.format(2, 0), MISSING.format(2, 0)),
        (1, 3, {(1, 3): (1, 1, 2)}, AUT.format(1, 3), MISSING.format(1, 2)),
        (1, 3, {(1, 2): (1, 0, 0), (1, 3): (1, 0, 0)}, AUT.format(1, 3),
         {(0, 0): 7, (1, 0): 14, (1, 1): 10, (2, 0): 6, (2, 1): 7,
          (2, 2): 5, (3, 3): 1}),
    ])
    def test_higher_genus_pages_pinned(self, g, n, rows, degree0, ignore):
        for mode, expected in (("degree0", degree0), ("ignore", ignore)):
            if isinstance(expected, str):
                with pytest.raises(StrataError) as exc:
                    e1_table(g, n, BettiTable(rows), aut_mode=mode)
                assert str(exc.value) == expected, mode
            else:
                table = e1_table(g, n, BettiTable(rows), aut_mode=mode)
                assert table.entries == expected, mode

    def test_aut_mode_validation(self):
        with pytest.raises(StrataError):
            e1_table(0, 5, aut_mode="whatever")

    @pytest.mark.parametrize("n", range(4, 13))
    def test_vanishing_bounds(self, n):
        assert verify_vanishing(0, n, e1_table(0, n))

    def test_vanishing_rejects_out_of_range_entry(self):
        t = e1_table(0, 5)
        t.entries[(1, 2)] = 3  # q > p
        assert not verify_vanishing(0, 5, t)

    def test_json_shape(self):
        import json
        doc = json.loads(e1_table(0, 4).render("json"))
        assert doc["format"] == "operadkit-e1"
        assert doc["g"] == 0 and doc["n"] == 4


class TestPredictions:
    def test_small_predictions(self):
        assert predict_compactified_betti(4) == (1, 1)
        assert predict_compactified_betti(5) == (1, 5, 1)
        assert predict_compactified_betti(6) == (1, 16, 16, 1)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_palindromic(self, n):
        row = predict_compactified_betti(n)
        assert row == row[::-1]

    @pytest.mark.parametrize("n", range(5, 9))
    def test_degree_two_matches_intersection_ring_rank(self, n):
        assert predict_compactified_betti(n)[1] == keel_h2_rank(n)

    def test_keel_recursion_through_fifteen_punctures(self):
        # Keel's recursion for the Poincare polynomials in q = t^2:
        # P_{n+1} = (1 + q) P_n
        #           + (q/2) sum_{j=2}^{n-2} C(n, j) P_{j+1} P_{n-j+1}
        def mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        def add(a, b):
            width = max(len(a), len(b))
            return [x + y for x, y in zip(a + [0] * (width - len(a)),
                                          b + [0] * (width - len(b)))]

        poly = {3: [1]}
        for n in range(3, 15):
            pairs = [0]
            for j in range(2, n - 1):
                pairs = add(pairs, [comb(n, j) * c for c in
                                    mul(poly[j + 1], poly[n - j + 1])])
            assert all(c % 2 == 0 for c in pairs)
            poly[n + 1] = add(mul([1, 1], poly[n]),
                              [0] + [c // 2 for c in pairs])
        for n in range(3, 16):
            assert list(predict_compactified_betti(n)) == poly[n], n

    def test_keel_values(self):
        assert [keel_h2_rank(n) for n in range(4, 9)] == [1, 5, 16, 42, 99]

    @pytest.mark.parametrize("n", range(4, 8))
    def test_total_matches_stratumwise_euler_characteristic(self, n):
        # odd Betti numbers vanish, so the prediction sums to chi
        assert sum(predict_compactified_betti(n)) == \
            strata_euler_characteristic(n)

    @pytest.mark.parametrize("n", range(4, 8))
    def test_e1_euler_matches_stratumwise_euler(self, n):
        assert euler(e1_table(0, n)) == strata_euler_characteristic(n)


class TestMiddleRow:
    @pytest.mark.parametrize("arity", range(2, 6))
    def test_matches_cobar_dimensions(self, arity):
        report = middle_row(arity)
        assert report.equal
        assert report.e1_dims == report.cobar_dims

    def test_arity_bound(self):
        with pytest.raises(StrataError):
            middle_row(1)


class TestDualTable:
    def test_five_puncture_dual_frozen(self):
        d = dual_e1_table(0, 5)
        assert d.entries == {
            (-2, 4): 15, (-1, 2): 10, (-1, 4): 10,
            (0, 0): 1, (0, 2): 5, (0, 4): 1,
        }

    @pytest.mark.parametrize("n", range(4, 13))
    def test_column_euler_matches_open_betti(self, n):
        assert dual_euler_check(dual_e1_table(0, n), n)

    def test_corrupted_dual_fails_check(self):
        d = dual_e1_table(0, 5)
        d.entries[(0, 2)] += 1
        assert not dual_euler_check(d, 5)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_matches_per_tree_sum(self, n):
        # every n-leg tree contributes the product of its vertices'
        # compactified Betti polynomials, shifted to column -e
        cbetti = {}
        for m in range(3, n + 1):
            row = []
            for h in predict_compactified_betti(m):
                row.extend([h, 0])
            cbetti[m] = row[:-1]
        expected = {}
        for e in range(n - 2):
            for t in enumerate_trees(n - 1, e):
                poly = [1]
                for arity in t.vertex_arities():
                    factor = cbetti[arity + 1]
                    prod = [0] * (len(poly) + len(factor) - 1)
                    for i, x in enumerate(poly):
                        for j, y in enumerate(factor):
                            prod[i + j] += x * y
                    poly = prod
                for k, d in enumerate(poly):
                    if d:
                        key = (-e, k + 2 * e)
                        expected[key] = expected.get(key, 0) + d
        assert dual_e1_table(0, n).entries == expected

    def test_higher_genus_unsupported(self):
        with pytest.raises(StrataError):
            dual_e1_table(1, 2)


class TestTextRendering:
    def test_grid_contains_all_dimensions(self):
        t = e1_table(0, 5)
        text = t.render("text")
        for d in t.entries.values():
            assert str(d) in text
        assert "q/p" in text

    def test_empty_table(self):
        assert "empty" in E1Table(0, 3, {}).render("text")
