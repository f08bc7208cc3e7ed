"""Tests for the homotopy-associativity and shuffle-vanishing checkers.

The arity-2 relation is compared against an independently written
graded Leibniz rule, associativity faults are injected and must be
reported with a usable witness, and a family that is homotopy
associative but not shuffle-vanishing separates the two checkers.
"""

import itertools
from fractions import Fraction

import pytest

from operadkit.hoalg import (
    AinfResidual,
    HoalgError,
    MapFamily,
    ainf_defect,
    check_ainf,
    check_cinf,
    extract_mn,
    map_family_from_json,
    map_family_to_json,
    shuffle_defects,
    truncated_polynomial_family,
)
from operadkit.operads import GradedSpace
from operadkit.qlinalg import SparseMatrix


def two_term_complex() -> tuple[GradedSpace, SparseMatrix]:
    """V = <e0 (degree 0), e1 (degree 1)> with Q e1 = e0."""
    space = GradedSpace(("e0", "e1"), (0, 1))
    q = SparseMatrix.from_dict(2, 2, {(0, 1): Fraction(1)})
    return space, q


class TestMapFamilyValidation:
    def test_q_must_square_to_zero(self):
        space = GradedSpace(("a", "b", "c"), (0, 1, 2))
        q = SparseMatrix.from_dict(3, 3, {(0, 1): Fraction(1),
                                          (1, 2): Fraction(1)})
        with pytest.raises(HoalgError):
            MapFamily(space, q, {})

    def test_q_degree_checked(self):
        space = GradedSpace(("a", "b"), (0, 0))
        q = SparseMatrix.from_dict(2, 2, {(0, 1): Fraction(1)})
        with pytest.raises(HoalgError):
            MapFamily(space, q, {})

    def test_operation_degree_checked(self):
        space, q = two_term_complex()
        # m_2 must have degree 0; this entry has degree 1
        with pytest.raises(HoalgError):
            MapFamily(space, q, {2: {(1, (0, 0)): Fraction(1)}})

    def test_operations_start_at_arity_two(self):
        space, q = two_term_complex()
        with pytest.raises(HoalgError):
            MapFamily(space, q, {1: {}})

    @pytest.mark.parametrize("key", [(-2, (0, 0)), (5, (0, 0)), (0, (0, 7))])
    def test_indices_must_lie_in_v(self, key):
        space, q = two_term_complex()
        with pytest.raises(HoalgError):
            MapFamily(space, q, {2: {key: Fraction(1)}})

    def test_apply_lists_outputs_in_ascending_order(self):
        space = GradedSpace(("a", "b", "c"), (0, 0, 0))
        m2 = {(2, (0, 1)): Fraction(3), (0, (0, 1)): Fraction(1),
              (1, (1, 1)): Fraction(2), (1, (0, 1)): Fraction(-1)}
        f = MapFamily(space, SparseMatrix.zero(3, 3), {2: m2})
        assert list(f.apply(2, (0, 1)).items()) == [
            (0, Fraction(1)), (1, Fraction(-1)), (2, Fraction(3))]
        assert f.apply(2, (1, 0)) == {} and f.apply(3, (0, 0, 0)) == {}

    def test_coefficients_normalised_exactly(self):
        space = GradedSpace(("a", "b"), (0, 0))
        m2 = {(0, (0, 0)): Fraction(4, 2), (1, (0, 1)): Fraction(1, 3),
              (1, (1, 0)): 5}
        f = MapFamily(space, SparseMatrix.zero(2, 2), {2: m2})
        assert [type(c) for c in f.apply(2, (0, 0)).values()] == [int]
        assert f.apply(2, (0, 1)) == {1: Fraction(1, 3)}
        with pytest.raises(TypeError):
            MapFamily(space, SparseMatrix.zero(2, 2), {2: {(0, (0, 0)): 0.5}})


class TestArityTwoIsLeibniz:
    def independent_leibniz(self, f, a, b):
        """Q m2(a,b) - m2(Qa, b) - (-1)^{|a|} m2(a, Qb), written from
        the textbook formula rather than the general relation."""
        degs = f.space.degrees
        out = {}

        def add(vec, c):
            for k, v in vec.items():
                s = out.get(k, Fraction(0)) + c * v
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]

        add(f.apply_q(f.apply(2, (a, b))), Fraction(1))
        for qa, v in [(r, val) for r, c, val in f.q.entries() if c == a]:
            add(f.apply(2, (qa, b)), -v)
        sign = Fraction(-1 if degs[a] % 2 else 1)
        for qb, v in [(r, val) for r, c, val in f.q.entries() if c == b]:
            add(f.apply(2, (a, qb)), -sign * v)
        return out

    def test_relation_equals_leibniz_on_every_pair(self):
        space, q = two_term_complex()
        # a generic degree-0 product, deliberately not a chain map
        m2 = {
            (0, (0, 0)): Fraction(1),
            (1, (0, 1)): Fraction(2),
            (1, (1, 0)): Fraction(-3),
        }
        f = MapFamily(space, q, {2: m2})
        for a, b in itertools.product(range(2), repeat=2):
            assert ainf_defect(f, 2, (a, b)) == \
                self.independent_leibniz(f, a, b)

    def test_chain_map_product_has_no_arity_two_defect(self):
        space, q = two_term_complex()
        # e0 acts as a unit-like idempotent; Q is a derivation for it
        m2 = {
            (0, (0, 0)): Fraction(1),
            (1, (0, 1)): Fraction(1),
            (1, (1, 0)): Fraction(1),
        }
        f = MapFamily(space, q, {2: m2})
        assert check_ainf(f, 2) == []


class TestAssociativityFaults:
    def degree_zero_family(self, m2) -> MapFamily:
        space = GradedSpace(("u", "v"), (0, 0))
        return MapFamily(space, SparseMatrix.zero(2, 2), {2: m2})

    def test_associative_product_passes(self):
        f = truncated_polynomial_family(3)
        assert check_ainf(f, 3) == []
        assert check_cinf(f, 3).ok

    def test_nonassociative_product_is_reported_with_witness(self):
        # u*u = v, v*anything = 0: (uu)u = vu = 0 but u(uu) = uv = 0 ...
        # make it asymmetric instead: u*u = u + v, u*v = v, v*u = 0
        m2 = {
            (0, (0, 0)): Fraction(1), (1, (0, 0)): Fraction(1),
            (1, (0, 1)): Fraction(1),
        }
        f = self.degree_zero_family(m2)
        residuals = check_ainf(f, 3)
        assert residuals
        r = residuals[0]
        assert r.n == 3
        assert r.defect
        # the witness reproduces: the defect is the associator up to sign
        a, b, c = r.inputs
        lhs = {}
        for mid, co in f.apply(2, (a, b)).items():
            for out, co2 in f.apply(2, (mid, c)).items():
                lhs[out] = lhs.get(out, Fraction(0)) + co * co2
        rhs = {}
        for mid, co in f.apply(2, (b, c)).items():
            for out, co2 in f.apply(2, (a, mid)).items():
                rhs[out] = rhs.get(out, Fraction(0)) + co * co2
        associator = {k: lhs.get(k, Fraction(0)) - rhs.get(k, Fraction(0))
                      for k in set(lhs) | set(rhs)}
        associator = {k: v for k, v in associator.items() if v}
        assert associator in (r.defect,
                              {k: -v for k, v in r.defect.items()})

    def test_residual_message_prints_exact_values(self):
        r = AinfResidual(3, (0, 1, 1), {2: Fraction(1, 2), 0: Fraction(-1)})
        assert str(r) == ("arity 3 relation fails on (0, 1, 1): "
                          "defect {0: -1, 2: 1/2}")

    def test_sign_fault_is_detected(self):
        f = truncated_polynomial_family(3)
        bad_maps = dict(f.maps)
        bad_m2 = dict(bad_maps[2])
        bad_m2[(1, (0, 1))] = -bad_m2[(1, (0, 1))]
        g = MapFamily(f.space, f.q, {2: bad_m2})
        assert check_ainf(g, 3)


class TestShuffleVanishing:
    def test_commutative_even_product_passes(self):
        report = check_cinf(truncated_polynomial_family(4), 4)
        assert report.ok

    def test_noncommutative_product_fails_shuffles_only(self):
        space = GradedSpace(("u", "v", "w"), (0, 0, 0))
        # strictly associative but not commutative: left projection
        m2 = {(a, (a, b)): Fraction(1)
              for a in range(3) for b in range(3)}
        f = MapFamily(space, SparseMatrix.zero(3, 3), {2: m2})
        assert check_ainf(f, 2) == []
        report = check_cinf(f, 2)
        assert not report.ok
        assert report.shuffle_violations and not report.ainf_residuals
        n, p, q, ins, acc = report.shuffle_violations[0]
        assert (n, p, q) == (2, 1, 1)

    def test_homotopy_associative_but_not_shuffle_vanishing(self):
        # m2 = 0 and a single chain-map m3: every relation through
        # arity 4 holds, but the (1,2)-shuffle sum of m3 does not vanish
        space, q = two_term_complex()
        m3 = {(1, (0, 0, 0)): Fraction(1)}
        f = MapFamily(space, SparseMatrix.zero(2, 2), {3: m3})
        assert check_ainf(f, 4) == []
        assert shuffle_defects(f, 3)
        assert not check_cinf(f, 4).ok


class TestExtractAndJson:
    def test_extract_identity_word_operation(self):
        tensor = {(0, (0, 0)): Fraction(1)}
        structure = {2: {(1, 2): tensor, (2, 1): {}}}
        assert extract_mn(structure, 2) == tensor
        with pytest.raises(HoalgError):
            extract_mn(structure, 3)
        with pytest.raises(HoalgError):
            extract_mn({2: {(2, 1): tensor}}, 2)

    def test_json_round_trip(self):
        space, q = two_term_complex()
        f = MapFamily(space, q, {
            2: {(0, (0, 0)): Fraction(1, 3), (1, (0, 1)): Fraction(-2)}})
        g = map_family_from_json(map_family_to_json(f))
        assert g.space == f.space
        assert g.q == f.q
        assert g.maps == f.maps

    def test_json_rejects_other_documents(self):
        with pytest.raises(HoalgError):
            map_family_from_json('{"format": "something"}')
