"""Tests for the homotopy-associativity and shuffle-vanishing checkers.

The arity-2 relation is compared against an independently written
graded Leibniz rule, associativity faults are injected and must be
reported with a usable witness, and a family that is homotopy
associative but not shuffle-vanishing separates the two checkers.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from operadkit import hoalg
from operadkit.hoalg import (
    AinfResidual,
    HoalgError,
    MapFamily,
    check_ainf,
    check_cinf,
    map_family_from_json,
    map_family_to_json,
    shuffle_defects,
    truncated_polynomial_family,
)
from operadkit.operads import GradedSpace, end_compose, end_differential
from operadkit.qlinalg import SparseMatrix
from reference import BarCoderivation, mat_vec


def m2_on(f: MapFamily, ins: tuple[int, int]) -> dict:
    """m2 on one pair of basis vectors, read off its tensor."""
    return {o: c for (o, w), c in f.maps[2].items() if w == ins}


def unital_algebra(names, degrees, products) -> MapFamily:
    """Q = 0 and m2 = ``products`` {(a, b): (out, coeff)} on the basis
    after the unit, basis vector 0."""
    m2 = {(a, (0, a)): 1 for a in range(len(names))}
    m2.update({(a, (a, 0)): 1 for a in range(1, len(names))})
    m2.update({(o, ab): c for ab, (o, c) in products.items()})
    dim = len(names)
    return MapFamily(GradedSpace(names, degrees), SparseMatrix.zero(dim, dim),
                     {2: m2})


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

    def test_coefficients_normalised_exactly(self):
        space = GradedSpace(("a", "b"), (0, 0))
        m2 = {(0, (0, 0)): Fraction(4, 2), (1, (0, 1)): Fraction(1, 3),
              (1, (1, 0)): 5}
        f = MapFamily(space, SparseMatrix.zero(2, 2), {2: m2})
        assert type(f.maps[2][(0, (0, 0))]) is int
        assert m2_on(f, (0, 1)) == {1: Fraction(1, 3)}
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

        add(mat_vec(f.q, m2_on(f, (a, b))), Fraction(1))
        for qa, v in [(r, val) for r, c, val in f.q.entries() if c == a]:
            add(m2_on(f, (qa, b)), -v)
        sign = Fraction(-1 if degs[a] % 2 else 1)
        for qb, v in [(r, val) for r, c, val in f.q.entries() if c == b]:
            add(m2_on(f, (a, qb)), -sign * v)
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
        defects = {r.inputs: r.defect for r in check_ainf(f, 2)}
        for a, b in itertools.product(range(2), repeat=2):
            assert defects.get((a, b), {}) == \
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
        for mid, co in m2_on(f, (a, b)).items():
            for out, co2 in m2_on(f, (mid, c)).items():
                lhs[out] = lhs.get(out, Fraction(0)) + co * co2
        rhs = {}
        for mid, co in m2_on(f, (b, c)).items():
            for out, co2 in m2_on(f, (a, mid)).items():
                rhs[out] = rhs.get(out, Fraction(0)) + co * co2
        associator = {k: lhs.get(k, Fraction(0)) - rhs.get(k, Fraction(0))
                      for k in set(lhs) | set(rhs)}
        associator = {k: v for k, v in associator.items() if v}
        assert associator in (r.defect,
                              {k: -v for k, v in r.defect.items()})

    def test_default_arity_reaches_every_relation(self):
        # commutative, not associative: (uu)v = 0 but u(uv) = v.  Only
        # the arity-3 relation holds m2 twice, so a default that stopped
        # at the top arity 2 passed this product
        f = self.degree_zero_family({(1, (0, 1)): 1, (1, (1, 0)): 1})
        assert check_ainf(f) == check_ainf(f, 3) != []
        # above 2 * 2 - 1 no relation has a nonzero term
        assert {r.n for r in check_ainf(f, 6)} == {3}
        report = check_cinf(f)
        assert report.ainf_residuals and not report.shuffle_violations

    def test_walks_stop_at_the_last_relation(self, monkeypatch):
        # H*(S^1) = Lambda(x), x odd, and a commutative product that is
        # not associative, both m2 alone.  No relation above 2 * 2 - 1
        # has a term, and a pair (r, s) without m_r or m_s adds nothing,
        # so a cap of 10**6 walks what the default does: a composite
        # with a missing operation is never formed
        compose = hoalg.end_compose

        def counted(f, i, g, degrees):
            assert f and g, "composed a missing operation"
            return compose(f, i, g, degrees)
        monkeypatch.setattr(hoalg, "end_compose", counted)
        circle = MapFamily(GradedSpace(("1", "x"), (0, -1)),
                           SparseMatrix.zero(2, 2),
                           {2: {(0, (0, 0)): 1, (1, (0, 1)): 1,
                                (1, (1, 0)): 1}})
        product = self.degree_zero_family({(1, (0, 1)): 1, (1, (1, 0)): 1})
        assert check_ainf(circle, 10 ** 6) == check_ainf(circle) == []
        assert check_cinf(circle, 10 ** 6) == check_cinf(circle)
        assert check_cinf(circle, 10 ** 6).ok
        assert check_ainf(product, 10 ** 6) == check_ainf(product) != []
        assert check_cinf(product, 10 ** 6) == check_cinf(product)

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
        # every decalage sign is +1 in degree 0
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

    def test_arities_without_an_operation_walk_no_shuffles(self, monkeypatch):
        # m_n = 0 for n >= 3, and a sum of zero maps is zero: walking the
        # 2^n shuffles of each arity up to 30 would take hours
        f = truncated_polynomial_family(3)
        walk = hoalg.shuffles

        def shuffles(p, q):
            assert p + q in f.maps, f"walked the shuffles of arity {p + q}"
            return walk(p, q)
        monkeypatch.setattr(hoalg, "shuffles", shuffles)
        assert check_cinf(f, 30).ok


class TestOddShuffleSigns:
    """Strict graded-commutative algebras with odd elements, Q = 0.

    m2(a, b) = (-1)^(|a||b|) m2(b, a) must pass: the shuffle sums live
    on the suspension, so the check weights m_n at (a_1..a_n) by
    (-1)^(sum_i (n - i)|a_i|) before it forms them.
    """

    def test_cohomology_of_the_circle_passes(self):
        # Lambda(x) = H*(S^1): 1 in degree 0, x in degree -1
        f = unital_algebra(("1", "x"), (0, -1), {})
        report = check_cinf(f, 4)
        assert report.ok, report.shuffle_violations

    def test_anticommuting_unit_fails_the_shuffles(self):
        # m2(x, 1) = -x: 1 is even, so this m2 is not graded-commutative
        f = unital_algebra(("1", "x"), (0, -1), {(1, 0): (1, -1)})
        assert check_cinf(f, 4).shuffle_violations == [
            (2, 1, 1, (0, 1), {1: 2}), (2, 1, 1, (1, 0), {1: 2})]

    def test_exterior_algebra_on_two_odd_generators_passes(self):
        # Lambda(x, y): x, y in degree -1 and xy = -yx in degree -2
        f = unital_algebra(("1", "x", "y", "xy"), (0, -1, -1, -2),
                           {(1, 2): (3, 1), (2, 1): (3, -1)})
        report = check_cinf(f, 4)
        assert report.ok, report.shuffle_violations

    def test_even_and_odd_generators_pass(self):
        # k[t]/(t^2) (x) Lambda(x): t even and x odd commute
        f = unital_algebra(("1", "t", "x", "tx"), (0, 0, -1, -1),
                           {(1, 2): (3, 1), (2, 1): (3, 1)})
        report = check_cinf(f, 4)
        assert report.ok, report.shuffle_violations


class TestExtractAndJson:
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
        with pytest.raises(HoalgError):
            map_family_from_json("{not json")


# ---------------------------------------------------------------------------
# End_V tensor routines against a per-tuple reference


def _at(tensor, ins):
    """A multilinear map tensor evaluated on one basis tuple."""
    return {out: c for (out, key), c in tensor.items() if key == ins}


def _tensor_degree(tensor, degs):
    (out, ins), _ = next(iter(tensor.items()))
    return degs[out] - sum(degs[x] for x in ins)


def reference_compose(f, n, i, g, m, degs):
    """f o_i g on every basis tuple: g fills slot i of f, and the sign
    is (-1)^{|g| (|v_1| + .. + |v_{i-1}|)}."""
    out = {}
    if not f or not g:
        return out
    gdeg = _tensor_degree(g, degs)
    for ins in itertools.product(range(len(degs)), repeat=n + m - 1):
        sign = (-1) ** (gdeg * sum(degs[x] for x in ins[: i - 1]))
        for mid, cg in _at(g, ins[i - 1: i - 1 + m]).items():
            outer = ins[: i - 1] + (mid,) + ins[i - 1 + m:]
            for o, cf in _at(f, outer).items():
                out[(o, ins)] = out.get((o, ins), 0) + sign * cf * cg
    return {k: v for k, v in out.items() if v}


def reference_differential(f, n, q, degs):
    """Q(f(v)) - (-1)^{|f|} sum_k (-1)^{|v_1|+..+|v_{k-1}|}
    f(v_1, .., Q v_k, .., v_n) on every basis tuple."""
    out = {}
    if not f:
        return out
    fdeg = _tensor_degree(f, degs)
    qt = q.transpose()  # row c is q's column c
    for ins in itertools.product(range(len(degs)), repeat=n):
        for mid, c in _at(f, ins).items():
            for r, v in qt.row(mid).items():
                out[(r, ins)] = out.get((r, ins), 0) + v * c
        for k in range(n):
            sign = -(-1) ** (fdeg + sum(degs[x] for x in ins[:k]))
            for b, v in qt.row(ins[k]).items():
                moved = ins[:k] + (b,) + ins[k + 1:]
                for o, c in _at(f, moved).items():
                    out[(o, ins)] = out.get((o, ins), 0) + sign * v * c
    return {k: v for k, v in out.items() if v}


def reference_ainf(f, N):
    """The relation of the module docstring evaluated tuple by tuple:
    [(n, inputs, {out: defect})] for every failing basis tuple."""
    degs = f.space.degrees
    lhs = {n: reference_differential(f.maps.get(n, {}), n, f.q, degs)
           for n in range(2, N + 1)}
    out = []
    for n in range(2, N + 1):
        total = dict(lhs[n])
        for r in range(2, n):
            s = n + 1 - r
            for k in range(1, r + 1):
                sign = (-1) ** (k * (s - 1) + s * n)
                comp = reference_compose(f.maps.get(r, {}), r, k,
                                         f.maps.get(s, {}), s, degs)
                for key, c in comp.items():
                    total[key] = total.get(key, 0) - sign * c
        for ins in itertools.product(range(len(degs)), repeat=n):
            defect = {o: c for o, c in _at(total, ins).items() if c}
            if defect:
                out.append((n, ins, defect))
    return out


coefficients = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                         st.integers(1, 3))


@st.composite
def graded_families(draw):
    """A random graded V with a differential Q and homogeneous m2
    (degree 0) and m3 (degree 1) with Fraction coefficients."""
    dim = draw(st.integers(2, 3))
    degs = tuple(draw(st.lists(st.integers(0, 2), min_size=dim,
                               max_size=dim)))
    space = GradedSpace(tuple(f"v{k}" for k in range(dim)), degs)

    def entries(keys, max_size):
        if not keys:
            return {}
        chosen = draw(st.lists(st.sampled_from(keys), unique=True,
                               max_size=max_size))
        return {key: draw(coefficients) for key in chosen}

    q_keys = [(r, c) for r in range(dim) for c in range(dim)
              if degs[r] == degs[c] - 1]
    q = SparseMatrix.from_dict(dim, dim, entries(q_keys, 3))
    if not q.matmul(q).is_zero():
        # keep the degree 1 -> 0 part, which squares to zero
        q = SparseMatrix(dim, dim, [(r, c, v) for r, c, v in q.entries()
                                    if degs[c] == 1])
    maps = {}
    for n in (2, 3):
        keys = [(out, ins) for ins in itertools.product(range(dim), repeat=n)
                for out in range(dim)
                if degs[out] - sum(degs[x] for x in ins) == n - 2]
        maps[n] = entries(keys, 6)
    return MapFamily(space, q, maps)


class TestTensorRoutinesAgreeWithReference:
    @settings(max_examples=60, deadline=None)
    @given(graded_families(), st.data())
    def test_end_compose(self, f, data):
        n, m = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
        i = data.draw(st.integers(1, n))
        degs = f.space.degrees
        assert end_compose(f.maps[n], i, f.maps[m], degs) == \
            reference_compose(f.maps[n], n, i, f.maps[m], m, degs)

    @settings(max_examples=60, deadline=None)
    @given(graded_families())
    def test_end_differential(self, f):
        for n in (2, 3):
            assert end_differential(f.maps[n], f.q, f.space.degrees) == \
                reference_differential(f.maps[n], n, f.q, f.space.degrees)

    @settings(max_examples=40, deadline=None)
    @given(graded_families())
    def test_check_ainf(self, f):
        got = [(r.n, r.inputs, r.defect) for r in check_ainf(f, 4)]
        assert got == reference_ainf(f, 4)
        for n, ins, defect in got[:5]:
            assert {r.inputs: r.defect for r in check_ainf(f, n)
                    if r.n == n}[ins] == defect


# ---------------------------------------------------------------------------
# The checkers against the bar construction


@st.composite
def bar_families(draw):
    """dim V <= 3 in degrees 0 to -3, m2, m3 and m4 with small integer
    coefficients, and optionally a Q whose entries all leave one degree,
    so that Q^2 = 0."""
    dim = draw(st.integers(1, 3))
    degs = tuple(draw(st.lists(st.integers(-3, 0), min_size=dim,
                               max_size=dim)))
    space = GradedSpace(tuple(f"v{k}" for k in range(dim)), degs)
    small = st.integers(-2, 2).filter(bool)

    def entries(keys, max_size):
        chosen = draw(st.lists(st.sampled_from(keys), unique=True,
                               max_size=max_size)) if keys else []
        return {key: draw(small) for key in chosen}

    q = {}
    sources = sorted({d for d in degs if d - 1 in degs})
    if sources and draw(st.booleans()):
        d = draw(st.sampled_from(sources))
        q = entries([(r, c) for r in range(dim) for c in range(dim)
                     if degs[c] == d and degs[r] == d - 1], 3)
    maps = {n: entries([(out, ins) for ins in itertools.product(
        range(dim), repeat=n) for out in range(dim)
        if degs[out] - sum(degs[x] for x in ins) == n - 2], 5)
        for n in (2, 3, 4)}
    return MapFamily(space, SparseMatrix.from_dict(dim, dim, q), maps)


class TestCheckersAgainstTheBarConstruction:
    """``check_ainf`` and ``check_cinf`` through arity 5 against the
    word-length-1 part of b o b and b_n on shuffle products."""

    @settings(max_examples=80, deadline=None)
    @given(bar_families())
    def test_failing_sets_and_values_agree(self, f):
        bar = BarCoderivation(f.space.degrees, f.q.entries(), f.maps)
        report = check_cinf(f, 5)
        relations = bar.relations(5)
        assert set(relations) == {(r.n, r.inputs)
                                  for r in report.ainf_residuals}
        assert relations == {(r.n, r.inputs): r.defect
                             for r in report.ainf_residuals}
        shuffled = bar.shuffle_values(5)
        assert set(shuffled) == {(n, p, ins) for n, p, _, ins, _
                                 in report.shuffle_violations}
        assert shuffled == {(n, p, ins): defect for n, p, _, ins, defect
                            in report.shuffle_violations}
