"""Tests for symmetric operads: axioms, actions, free-algebra dimensions.

Free-algebra dimensions are checked against independent closed forms
(necklace/Moebius counts for the bracket operad, powers and binomials
for the other two) and against an explicit symmetrization projector.
"""

import hashlib
import itertools
import json
import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from operadkit.cobar import cobar_operad, liec_cooperad
from operadkit.operads import (
    AssocOperad,
    AxiomViolation,
    CommOperad,
    EndOperad,
    GradedOperad,
    GradedSpace,
    LieOperad,
    OperadError,
    TableOperad,
    adjacent_transpositions,
    assoc_operad,
    check_axioms,
    class_representative,
    comm_operad,
    cycle_types,
    decalage_sign,
    expand_perm,
    free_algebra_dims,
    identity_perm,
    koszul_sign,
    lie_basis_words,
    lie_expand,
    lie_operad,
    operad_from_json,
    operad_to_json,
    parse_coefficient,
    perm_inverse,
    relabel_word,
)
from operadkit.qlinalg import SparseMatrix, addmul, rank
from reference import compose_then_act, identity, substitute_word


def perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a o b)(i) = a(b(i))."""
    return tuple(a[j - 1] for j in b)


# --------------------------------------------------------------------------
# Independent dimension oracles


def mobius(n: int) -> int:
    if n == 1:
        return 1
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def witt_dim(d: int, n: int) -> int:
    """Dimension of the degree-n piece of a free bracket algebra."""
    return sum(mobius(k) * d ** (n // k) for k in range(1, n + 1)
               if n % k == 0) // n


def symmetrization_projector_rank(O, d: int, n: int) -> int:
    """Explicit projector rank on O(n) (x) V^n (tiny cases only).

    Independent of the trace shortcut in free_algebra_dims; used to
    cross-check it.
    """
    dim_o = O.dim(n)
    dim = dim_o * d ** n
    if dim > 600:
        raise OperadError("explicit projector only at desk scale")
    acc: dict[tuple[int, int], Fraction] = {}
    tuples = list(itertools.product(range(d), repeat=n))
    tindex = {t: k for k, t in enumerate(tuples)}
    for sigma in itertools.permutations(range(1, n + 1)):
        mats = {a: O.act_basis(n, sigma, a) for a in range(dim_o)}
        for a in range(dim_o):
            for t in tuples:
                col = a * len(tuples) + tindex[t]
                # diagonal action: sigma on O(n) tensor permutation on V^n
                tt = [0] * n
                for k in range(1, n + 1):
                    tt[sigma[k - 1] - 1] = t[k - 1]
                trow = tindex[tuple(tt)]
                for out, c in mats[a].items():
                    addmul(acc, (out * len(tuples) + trow, col), c)
    acc = {k: Fraction(v, factorial(n)) for k, v in acc.items()}
    return rank(SparseMatrix.from_dict(dim, dim, acc))


def action_matrix(O, n: int, sigma: tuple[int, ...]) -> SparseMatrix:
    """The matrix of sigma on O(n): column a is act_basis(n, sigma, a)."""
    dim = O.dim(n)
    return SparseMatrix(dim, dim, [(out, a, c) for a in range(dim)
                                   for out, c in O.act_basis(n, sigma, a).items()])


def rho_coeff(u: tuple[int, ...], w: tuple[int, ...]) -> int:
    """Coefficient of the word u in the expansion of the left-normed
    bracket of w (both multilinear of the same length)."""
    if len(w) == 1:
        return 1 if u == w else 0
    last = w[-1]
    total = 0
    if u[-1] == last:
        total += rho_coeff(u[:-1], w[:-1])
    if u[0] == last:
        total -= rho_coeff(u[1:], w[:-1])
    return total


class TestPermHelpers:
    def test_compose_inverse(self):
        a = (2, 3, 1)
        assert perm_compose(a, perm_inverse(a)) == identity_perm(3)
        assert perm_compose(perm_inverse(a), a) == identity_perm(3)

    @given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
    def test_compose_is_associative_with_inverse(self, a, b):
        a, b = tuple(a), tuple(b)
        ab = perm_compose(a, b)
        assert perm_compose(ab, perm_inverse(b)) == a

    def test_koszul_sign_even_degrees_trivial(self):
        assert koszul_sign((2, 1, 3), (2, 4, 0)) == 1

    def test_koszul_sign_odd_degrees_is_parity(self):
        assert koszul_sign((2, 1), (1, 1)) == -1
        assert koszul_sign((2, 3, 1), (1, 1, 1)) == 1  # 3-cycle is even

    def test_koszul_sign_mixed(self):
        # swapping an even past an odd costs nothing
        assert koszul_sign((2, 1), (2, 1)) == 1

    def test_decalage_sign_counts_the_suspensions_passed(self):
        # input i is passed by the n - i suspensions after it
        assert decalage_sign((-1, 0)) == -1 and decalage_sign((0, -1)) == 1
        assert decalage_sign((1, 1, 1)) == -1 and decalage_sign((1, 0, 0)) == 1
        assert decalage_sign((0, 1, 0)) == -1
        assert all(type(decalage_sign(d)) is int
                   for d in itertools.product((-2, -1, 0, 1), repeat=3))

    def test_expand_perm_is_a_permutation(self):
        sigma = (2, 1, 3)
        big = expand_perm(sigma, 1, 2)
        assert sorted(big) == list(range(1, 5))

    def test_adjacent_transpositions(self):
        assert adjacent_transpositions(1) == []
        assert adjacent_transpositions(3) == [(2, 1, 3), (1, 3, 2)]


# Violations of check_axioms on assoc at arity 4 with one composition entry
# negated, sorted, as (axiom, arities, witness, lhs, rhs).
ARITY4_FAULTS = {
    (2, 1, 2, 0, 0): [
        ("1", (2, 2, 2), (1, 2, 0, 0, 0), {0: -1}, {0: 1}),
        ("1", (2, 2, 2), (1, 2, 0, 0, 1), {1: -1}, {1: 1}),
        ("2", (2, 2, 2), (1, 1, 0, 0, 1), {6: -1}, {6: 1}),
        ("2", (2, 2, 2), (1, 1, 1, 0, 0), {18: 1}, {18: -1}),
        ("2", (2, 2, 2), (1, 2, 0, 0, 0), {0: -1}, {0: 1}),
        ("2", (2, 2, 2), (1, 2, 0, 0, 1), {2: -1}, {2: 1}),
        ("2", (2, 2, 2), (2, 1, 0, 0, 0), {0: 1}, {0: -1}),
        ("2", (2, 2, 2), (2, 1, 1, 0, 0), {9: 1}, {9: -1}),
        ("3a", (2, 2), ((2, 1), 1, 1, 0), {0: -1}, {0: 1}),
        ("3a", (2, 2), ((2, 1), 2, 0, 0), {3: 1}, {3: -1}),
        ("3b", (2, 2), ((2, 1), 1, 0, 0), {2: 1}, {2: -1}),
        ("3b", (2, 2), ((2, 1), 1, 0, 1), {0: -1}, {0: 1}),
    ],
    (3, 1, 2, 0, 0): [
        ("1", (2, 2, 2), (1, 2, 0, 0, 0), {0: 1}, {0: -1}),
        ("2", (2, 2, 2), (1, 1, 0, 0, 0), {0: -1}, {0: 1}),
        ("3a", (3, 2), ((1, 3, 2), 1, 0, 0), {1: 1}, {1: -1}),
        ("3a", (3, 2), ((1, 3, 2), 1, 1, 0), {0: -1}, {0: 1}),
        ("3a", (3, 2), ((2, 1, 3), 1, 2, 0), {0: -1}, {0: 1}),
        ("3a", (3, 2), ((2, 1, 3), 2, 0, 0), {8: 1}, {8: -1}),
        ("3b", (3, 2), ((2, 1), 1, 0, 0), {6: 1}, {6: -1}),
        ("3b", (3, 2), ((2, 1), 1, 0, 1), {0: -1}, {0: 1}),
    ],
    (2, 2, 3, 0, 0): [
        ("2", (2, 2, 2), (2, 1, 0, 0, 0), {0: 1}, {0: -1}),
        ("2", (2, 2, 2), (2, 2, 0, 0, 0), {0: 1}, {0: -1}),
        ("3a", (2, 3), ((2, 1), 1, 0, 0), {18: 1}, {18: -1}),
        ("3a", (2, 3), ((2, 1), 2, 1, 0), {0: -1}, {0: 1}),
        ("3b", (2, 3), ((1, 3, 2), 2, 0, 0), {1: 1}, {1: -1}),
        ("3b", (2, 3), ((1, 3, 2), 2, 0, 1), {0: -1}, {0: 1}),
        ("3b", (2, 3), ((2, 1, 3), 2, 0, 0), {2: 1}, {2: -1}),
        ("3b", (2, 3), ((2, 1, 3), 2, 0, 2), {0: -1}, {0: 1}),
    ],
}

# Violations of check_axioms, in report order, with one composition entry
# rescaled by -1: (operad, arity, entry, max_violations) -> (checked,
# violations).  max_violations keeps a prefix of this order, so the order
# is pinned and not only the set; the last case is such a prefix.
ORDERED_FAULTS = {
    ("assoc", 5, (3, 1, 3, 0, 0), None): (12635, [
        ("2", (2, 2, 3), (1, 1, 0, 0, 0), {0: -1}, {0: 1}),
        ("1", (2, 3, 2), (1, 2, 0, 0, 0), {0: 1}, {0: -1}),
        ("2", (3, 2, 2), (1, 1, 0, 0, 0), {0: 1}, {0: -1}),
        ("2", (3, 2, 2), (1, 2, 0, 0, 0), {0: 1}, {0: -1}),
        ("3a", (3, 3), ((2, 1, 3), 1, 2, 0), {0: -1}, {0: 1}),
        ("3a", (3, 3), ((2, 1, 3), 2, 0, 0), {32: 1}, {32: -1}),
        ("3a", (3, 3), ((1, 3, 2), 1, 0, 0), {1: 1}, {1: -1}),
        ("3a", (3, 3), ((1, 3, 2), 1, 1, 0), {0: -1}, {0: 1}),
        ("3b", (3, 3), ((2, 1, 3), 1, 0, 0), {24: 1}, {24: -1}),
        ("3b", (3, 3), ((2, 1, 3), 1, 0, 2), {0: -1}, {0: 1}),
        ("3b", (3, 3), ((1, 3, 2), 1, 0, 0), {6: 1}, {6: -1}),
        ("3b", (3, 3), ((1, 3, 2), 1, 0, 1), {0: -1}, {0: 1}),
    ]),
    ("lie", 5, (4, 3, 2, 0, 0), None): (2192, [
        ("2", (2, 3, 2), (1, 3, 0, 0, 0), {0: -1, 2: 1}, {0: 1, 2: -1}),
        ("2", (2, 3, 2), (2, 2, 0, 0, 0),
         {0: -1, 2: 1, 8: -1, 14: 1, 18: -1, 19: 1, 21: 1, 23: -1},
         {0: 1, 2: -1, 8: -1, 14: 1, 18: -1, 19: 1, 21: 1, 23: -1}),
        ("1", (3, 2, 2), (1, 2, 0, 0, 0), {0: -1, 2: 1}, {0: 1, 2: -1}),
        ("2", (3, 2, 2), (2, 2, 0, 0, 0),
         {0: -1, 2: 1, 8: -1, 14: 1}, {0: 1, 2: -1, 8: -1, 14: 1}),
        ("2", (3, 2, 2), (3, 1, 0, 0, 0),
         {0: -1, 2: 1, 4: -1, 5: 1}, {0: 1, 2: -1, 4: -1, 5: 1}),
        ("3a", (4, 2), ((2, 1, 3, 4), 3, 2, 0),
         {0: 1, 2: -1, 8: 1, 14: -1}, {0: -1, 2: 1, 8: 1, 14: -1}),
        ("3a", (4, 2), ((2, 1, 3, 4), 3, 3, 0),
         {0: 1, 2: -1, 8: 1, 14: -1, 18: 1, 19: -1, 21: -1, 23: 1},
         {0: -1, 2: 1, 8: 1, 14: -1, 18: 1, 19: -1, 21: -1, 23: 1}),
        ("3a", (4, 2), ((1, 3, 2, 4), 2, 0, 0), {12: 1, 14: -1},
         {12: -1, 14: 1}),
        ("3a", (4, 2), ((1, 3, 2, 4), 3, 2, 0), {0: -1, 2: 1}, {0: 1, 2: -1}),
        ("3a", (4, 2), ((1, 2, 4, 3), 3, 1, 0), {0: -1, 2: 1}, {0: 1, 2: -1}),
        ("3a", (4, 2), ((1, 2, 4, 3), 4, 0, 0), {3: 1, 5: -1}, {3: -1, 5: 1}),
    ]),
    ("cobar-liec", 4, (2, 1, 3, 0, 0), None): (1814, [
        ("3a", (2, 3), ((2, 1), 1, 0, 0), {16: 1}, {16: -1}),
        ("3a", (2, 3), ((2, 1), 2, 0, 0), {10: -1}, {10: 1}),
        ("3b", (2, 3), ((2, 1, 3), 1, 0, 0), {16: 1, 17: -1}, {16: 1, 17: 1}),
        ("3b", (2, 3), ((1, 3, 2), 1, 0, 0), {17: 1}, {17: -1}),
        ("3b", (2, 3), ((1, 3, 2), 1, 0, 1), {16: -1}, {16: 1}),
    ]),
    ("assoc", 5, (2, 1, 2, 0, 0), 3): (12635, [
        ("2", (2, 2, 2), (1, 1, 0, 0, 1), {6: -1}, {6: 1}),
        ("2", (2, 2, 2), (1, 2, 0, 0, 0), {0: -1}, {0: 1}),
        ("2", (2, 2, 2), (1, 2, 0, 0, 1), {2: -1}, {2: 1}),
    ]),
}

FAULT_OPERADS = {"assoc": assoc_operad, "lie": lie_operad,
                 "cobar-liec": lambda k: cobar_operad(liec_cooperad(k), k)}


def action_fault_operad():
    """Assoc to arity 3, read from its document with the action of
    (2, 1) on arity 2 doubled, as in
    ``TestAxioms::test_action_fault_breaks_group_relations``."""
    doc = json.loads(operad_to_json(assoc_operad(3), 3))
    for rec in doc["actions"]:
        if rec["n"] == 2 and rec["sigma"] == [2, 1]:
            for entry in rec["entries"]:
                entry[2] = str(2 * Fraction(entry[2]))
    return operad_from_json(json.dumps(doc))


def report_digest(reports) -> str:
    """SHA-256 of each report's count and violations in order, as
    (axiom, arities, witness, lhs, rhs), each side written out exactly
    with its entries sorted."""
    def exact(x):
        if isinstance(x, SparseMatrix):
            return x.rows, x.cols, sorted((r, c, str(v))
                                          for r, c, v in x.entries())
        return sorted((k, str(v)) for k, v in x.items())
    body = [(r.checked, [(v.axiom, v.arities, v.witness, exact(v.lhs),
                          exact(v.rhs)) for v in r.violations])
            for r in reports]
    return hashlib.sha256(repr(body).encode()).hexdigest()


class TestAxioms:
    @pytest.mark.parametrize("factory, max_arity, checked", [
        (comm_operad, 3, 55), (comm_operad, 4, 146), (comm_operad, 5, 327),
        (comm_operad, 6, 650), (assoc_operad, 3, 219), (assoc_operad, 4, 1645),
        (assoc_operad, 5, 12635), (assoc_operad, 6, 102698),
        (lie_operad, 3, 77), (lie_operad, 4, 388), (lie_operad, 5, 2192),
        (lie_operad, 6, 14163), (FAULT_OPERADS["cobar-liec"], 4, 1814),
    ])
    def test_checked_counts_pinned(self, factory, max_arity, checked):
        report = check_axioms(factory(max_arity), max_arity)
        assert report.ok and report.checked == checked

    @pytest.mark.parametrize("entry", sorted(ARITY4_FAULTS))
    def test_arity_four_faults_reach_associativity(self, entry):
        table = TableOperad.from_operad(assoc_operad(4), 4)
        bad = table.with_corrupted_composition(*entry)
        report = check_axioms(bad, 4, max_violations=10 ** 6)
        assert report.checked == 1645
        found = sorted(((v.axiom, v.arities, v.witness, v.lhs, v.rhs)
                        for v in report.violations), key=lambda v: v[:3])
        assert found == ARITY4_FAULTS[entry]

    @pytest.mark.parametrize("case", list(ORDERED_FAULTS),
                             ids=lambda c: f"{c[0]}-{c[1]}-cap{c[3]}")
    def test_fault_violations_keep_their_order(self, case):
        name, arity, entry, cap = case
        table = TableOperad.from_operad(FAULT_OPERADS[name](arity), arity)
        report = check_axioms(table.with_corrupted_composition(*entry), arity,
                              max_violations=cap or 10 ** 6)
        found = [(v.axiom, v.arities, v.witness, v.lhs, v.rhs)
                 for v in report.violations]
        assert (report.checked, found) == ORDERED_FAULTS[case]

    @pytest.mark.parametrize("name, max_arity", [
        ("comm", 5), ("assoc", 5), ("lie", 5), ("cobar-liec", 4)])
    def test_each_basis_action_is_asked_once(self, name, max_arity,
                                             monkeypatch):
        O = dict(FAULT_OPERADS, comm=comm_operad)[name](max_arity)
        asked = []
        act_basis = type(O).act_basis

        def counted(self, n, sigma, a):
            asked.append((n, sigma, a))
            return act_basis(self, n, sigma, a)

        monkeypatch.setattr(type(O), "act_basis", counted)
        assert check_axioms(O, max_arity).ok
        assert asked and len(asked) == len(set(asked))

    @pytest.mark.parametrize("name, max_arity", [
        ("comm", 5), ("assoc", 5), ("lie", 5), ("cobar-liec", 4)])
    def test_each_basis_composite_is_asked_once(self, name, max_arity,
                                                monkeypatch):
        # the slabs come from compose_along, which the word operads
        # answer themselves and the others from compose_basis
        O = dict(FAULT_OPERADS, comm=comm_operad)[name](max_arity)
        tables, asked = [], []
        compose_along = type(O).compose_along
        compose_basis = type(O).compose_basis

        def along(self, m, S):
            tables.append((m, S))
            return compose_along(self, m, S)

        def counted(self, n, i, m, a, b):
            asked.append((n, i, m, a, b))
            return compose_basis(self, n, i, m, a, b)

        monkeypatch.setattr(type(O), "compose_along", along)
        monkeypatch.setattr(type(O), "compose_basis", counted)
        assert check_axioms(O, max_arity).ok
        assert tables and len(tables) == len(set(tables))
        assert len(asked) == len(set(asked))
        assert bool(asked) == (name in ("comm", "cobar-liec"))

    @pytest.mark.parametrize("name, count, digest", [
        ("assoc", 219, "8ed3a82f373a476a84fff94b494cdd3bf5"
                       "67aa5eea8c5ad564f210adc9431077"),
        ("lie", 54, "6b45d59a8aee012953de1ef14d2feb3984"
                    "970efbc8dab7b0a93ba4c250238525"),
        ("action", 1, "01b20b29aa353388e3fe9fa737715cc510"
                      "c29291a09d833c6678183c9b84eab7"),
    ])
    def test_whole_fault_reports_are_pinned(self, name, count, digest):
        # assoc and lie: each composition entry of the arity-4 table
        # negated in turn; action: the document of the test below
        if name == "action":
            reports = [check_axioms(action_fault_operad(), 3,
                                    max_violations=10 ** 6)]
        else:
            table = TableOperad.from_operad(FAULT_OPERADS[name](4), 4)
            reports = [check_axioms(
                table.with_corrupted_composition(*key, a, b), 4,
                max_violations=10 ** 6)
                for key in sorted(table._comp)
                for a, b in sorted(table._comp[key])]
        assert len(reports) == count
        assert report_digest(reports) == digest

    def test_action_fault_breaks_group_relations(self):
        doc = json.loads(operad_to_json(assoc_operad(3), 3))
        for rec in doc["actions"]:
            if rec["n"] == 2 and rec["sigma"] == [2, 1]:
                for entry in rec["entries"]:
                    entry[2] = str(2 * Fraction(entry[2]))
        report = check_axioms(operad_from_json(json.dumps(doc)), 3,
                              max_violations=10 ** 6)
        group = [v for v in report.violations if v.axiom == "3-group"]
        assert [(v.arities, v.witness) for v in group] == [((2,), ("s1^2",))]
        assert group[0].lhs == SparseMatrix(2, 2, [(0, 0, 4), (1, 1, 4)])
        assert group[0].rhs == identity(2)

    @pytest.mark.parametrize("factory", [comm_operad, assoc_operad, lie_operad])
    def test_axioms_hold_arity_four(self, factory):
        report = check_axioms(factory(4), 4)
        assert report.ok, report.violations[:3]
        assert report.checked > 0

    @pytest.mark.parametrize("make, n", [
        (comm_operad, 4), (assoc_operad, 4), (lie_operad, 4),
        (lambda k: EndOperad(GradedSpace(("e0", "e1"), (0, 1)), k,
                             q=SparseMatrix.from_dict(2, 2, {(0, 1): 1})), 3),
    ], ids=["comm", "assoc", "lie", "end"])
    def test_action_is_a_group_action(self, make, n):
        # check_axioms certifies the adjacent transpositions; these
        # operads act by every other permutation directly, so
        # x.(g h) = (x.h).g is checked on all of S_n here
        O = make(n)
        perms = list(itertools.permutations(range(1, n + 1)))
        for g, h in itertools.product(perms, perms):
            gh = perm_compose(g, h)
            for a in range(O.dim(n)):
                want = O.act(n, g, O.act_basis(n, h, a))
                got = O.act_basis(n, gh, a)
                assert {k: v for k, v in got.items() if v} == \
                    {k: v for k, v in want.items() if v}, (g, h, a)

    def test_end_operad_axioms_graded(self):
        V = GradedSpace(("x", "y"), (0, 1))
        report = check_axioms(EndOperad(V, 3), 3)
        assert report.ok, report.violations[:3]
        assert report.checked == 6916

    @pytest.mark.parametrize("factory", [comm_operad, assoc_operad,
                                         lie_operad])
    def test_tables_equal_the_pair_by_pair_composites(self, factory):
        O = factory(4)
        want = {(n, i, m): {(a, b): v for a in range(O.dim(n))
                            for b in range(O.dim(m))
                            if (v := O.compose_basis(n, i, m, a, b))}
                for n in O.arities() for m in O.arities()
                if n + m - 1 <= 4 for i in range(1, n + 1)}
        assert TableOperad.from_operad(O, 4)._comp == want

    def test_corrupted_composition_is_detected(self):
        table = TableOperad.from_operad(assoc_operad(3), 3)
        assert check_axioms(table, 3).ok
        bad = table.with_corrupted_composition(2, 1, 2, 0, 0)
        report = check_axioms(bad, 3)
        assert not report.ok
        v = report.violations[0]
        assert v.axiom in {"1", "2", "3a", "3b", "4"}
        assert "witness" in str(v)

    def test_corrupted_action_breaks_equivariance(self):
        table = TableOperad.from_operad(lie_operad(3), 3)
        bad = table.with_corrupted_composition(2, 2, 2, 0, 0,
                                               scale=Fraction(2))
        report = check_axioms(bad, 3)
        assert not report.ok

    def test_violation_cap(self):
        table = TableOperad.from_operad(assoc_operad(3), 3)
        bad = table.with_corrupted_composition(2, 1, 2, 0, 0)
        report = check_axioms(bad, 3, max_violations=2)
        assert len(report.violations) == 2

    def test_violation_message_prints_exact_values(self):
        table = TableOperad.from_operad(assoc_operad(3), 3)
        bad = table.with_corrupted_composition(2, 1, 2, 0, 0)
        v = check_axioms(bad, 3).violations[0]
        assert str(v) == ("axiom 3a fails at arities (2, 2), witness "
                          "((2, 1), 1, 1, 0): {0: -1} != {0: 1}")
        half = AxiomViolation("2", (2, 2, 2), (1, 1, 0, 0, 0),
                              {3: Fraction(1, 2), 0: Fraction(-1)}, {0: 1})
        assert str(half) == ("axiom 2 fails at arities (2, 2, 2), witness "
                             "(1, 1, 0, 0, 0): {0: -1, 3: 1/2} != {0: 1}")


def fraction_table(O, max_arity: int) -> TableOperad:
    """O as a table with every structure constant a Fraction: the
    reference path the integer structure constants must agree with."""
    T = TableOperad.from_operad(O, max_arity)

    def frac(vec):
        return {k: Fraction(c) for k, c in vec.items()}

    comp = {key: {ab: frac(v) for ab, v in tab.items()}
            for key, tab in T._comp.items()}
    act = {key: {a: frac(v) for a, v in tab.items()}
           for key, tab in T._act.items()}
    return TableOperad(T.components, frac(T.unit_vector), comp, act,
                       T.differentials)


class TestIntegerStructureConstants:
    @pytest.mark.parametrize("make, max_arity", [
        (comm_operad, 4), (assoc_operad, 4), (lie_operad, 4),
        (lambda k: cobar_operad(liec_cooperad(k), k), 3),
        (lambda k: EndOperad(GradedSpace(("x", "y"), (0, 1)), k), 3),
    ], ids=["comm", "assoc", "lie", "cobar-liec", "end"])
    def test_every_structure_constant_is_int(self, make, max_arity):
        O = make(max_arity)
        values = list(O.unit_vector.values())
        arities = O.arities()
        for n, m in itertools.product(arities, arities):
            if n + m - 1 > max_arity:
                continue
            for i, a, b in itertools.product(range(1, n + 1), range(O.dim(n)),
                                             range(O.dim(m))):
                values += O.compose_basis(n, i, m, a, b).values()
        for n in arities:
            for sigma in itertools.permutations(range(1, n + 1)):
                for a in range(O.dim(n)):
                    values += O.act_basis(n, sigma, a).values()
        assert values and {type(v) for v in values} == {int}

    @pytest.mark.parametrize("factory", [comm_operad, assoc_operad,
                                         lie_operad])
    def test_axioms_agree_with_the_fraction_reference(self, factory):
        O = factory(4)
        reference = check_axioms(fraction_table(O, 4), 4)
        report = check_axioms(O, 4)
        assert report.ok and reference.ok
        assert report.checked == reference.checked

    @pytest.mark.parametrize("entry", sorted(ARITY4_FAULTS))
    def test_faults_agree_with_the_fraction_reference(self, entry):
        def found(T):
            report = check_axioms(T.with_corrupted_composition(*entry), 4,
                                  max_violations=10 ** 6)
            return report.checked, [(v.axiom, v.arities, v.witness)
                                    for v in report.violations]

        O = assoc_operad(4)
        fast = found(TableOperad.from_operad(O, 4))
        assert fast == found(fraction_table(O, 4))
        assert fast[0] == 1645 and sorted(fast[1]) == sorted(
            v[:3] for v in ARITY4_FAULTS[entry])


class TestComponentSizes:
    def test_dims(self):
        assert [comm_operad(4).dim(n) for n in range(1, 5)] == [1, 1, 1, 1]
        assert [assoc_operad(4).dim(n) for n in range(1, 5)] == [1, 2, 6, 24]
        assert [lie_operad(5).dim(n) for n in range(1, 6)] == [1, 1, 2, 6, 24]

    def test_lie_basis_words_start_with_one(self):
        words = lie_basis_words(4)
        assert len(words) == 6
        assert all(w[0] == 1 for w in words)

    def test_lie_expand_bracket(self):
        assert dict(lie_expand((1, 2))) == {(1, 2): 1, (2, 1): -1}

    def test_lie_antisymmetry_via_action(self):
        L = lie_operad(3)
        swapped = L.act_basis(2, (2, 1), 0)
        assert swapped == {0: Fraction(-1)}

    def test_jacobi_via_rho_coeff(self):
        # [[1,2],3] + [[2,3],1] + [[3,1],2] = 0 in every left-normed word
        for u in lie_basis_words(3):
            total = 0
            for w in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
                total += rho_coeff(u, w)
            # rho_coeff(u, w) is the coefficient of u in the left-normed
            # expansion of [[w1,w2],w3]
            assert total == 0


class TestComposeAlong:
    """Composition along a subset is the word operads' one substitution
    and every other operad's o_i followed by the action; both must be
    composing and then acting, done the long way in the reference."""

    @staticmethod
    @lru_cache(maxsize=None)
    def operad(name, table):
        O = {"comm": comm_operad, "assoc": assoc_operad,
             "lie": lie_operad}[name](6)
        return TableOperad.from_operad(O, 6) if table else O

    @pytest.mark.parametrize("table", [False, True], ids=["own", "table"])
    @pytest.mark.parametrize("name", ["comm", "assoc", "lie"])
    def test_equals_compose_then_act(self, name, table):
        O = self.operad(name, table)
        for m in range(1, 7):
            for k in range(1, m + 1):
                for S in itertools.combinations(range(1, m + 1), k):
                    assert O.compose_along(m, S) == \
                        compose_then_act(O, m, S), (m, S)

    @pytest.mark.parametrize("name", ["comm", "assoc", "lie"])
    def test_consecutive_places_are_partial_composition(self, name):
        O = self.operad(name, False)
        for n, m in itertools.product(range(1, 6), repeat=2):
            if n + m - 1 > 6:
                continue
            for i in range(1, n + 1):
                assert O.compose_along(n + m - 1, tuple(range(i, i + m))) \
                    == [O.compose_basis(n, i, m, a, b)
                        for a in range(O.dim(n)) for b in range(O.dim(m))]


class TestLieReadOff:
    """compose_basis and act_basis expand only the terms that give words
    starting with 1; expanding everything must give the same vectors."""

    @staticmethod
    def read_off(n, terms):
        index = {w: k for k, w in enumerate(lie_basis_words(n))}
        return {index[w]: Fraction(c) for w, c in terms.items()
                if w[0] == 1 and c}

    def test_compose_matches_full_expansion(self):
        L = lie_operad(5)
        for n, m in itertools.product(range(1, 5), repeat=2):
            if n + m - 1 > 5:
                continue
            for i, a, b in itertools.product(range(1, n + 1), range(L.dim(n)),
                                             range(L.dim(m))):
                terms = {}
                for wa, ca in lie_expand(lie_basis_words(n)[a]):
                    for wb, cb in lie_expand(lie_basis_words(m)[b]):
                        w = substitute_word(wa, i, wb)
                        terms[w] = terms.get(w, 0) + ca * cb
                assert L.compose_basis(n, i, m, a, b) == \
                    self.read_off(n + m - 1, terms)

    def test_act_reads_one_run_of_the_expansion(self):
        # the run of terms whose first letter sigma sends to 1 gives the
        # same dict, in the same order, as filtering the whole expansion
        L = lie_operad(5)
        for n in range(1, 6):
            index = {w: k for k, w in enumerate(lie_basis_words(n))}
            for sigma in itertools.permutations(range(1, n + 1)):
                for a, word in enumerate(lie_basis_words(n)):
                    old = {index[relabel_word(w, sigma)]: c
                           for w, c in lie_expand(word)
                           if sigma[w[0] - 1] == 1}
                    new = L.act_basis(n, sigma, a)
                    assert list(new.items()) == list(old.items())

    def test_act_matches_full_expansion(self):
        L = lie_operad(5)
        for n in range(1, 6):
            for sigma in itertools.permutations(range(1, n + 1)):
                for a in range(L.dim(n)):
                    terms = {relabel_word(w, sigma): c
                             for w, c in lie_expand(lie_basis_words(n)[a])}
                    assert L.act_basis(n, sigma, a) == self.read_off(n, terms)


class TestEndOperad:
    def test_evaluate_composition(self):
        V = GradedSpace(("x", "y"), (0, 0))
        E = EndOperad(V, 3)
        # f(a,b) = x when (a,b) == (x,y); g(a) = y when a == x
        f = {E.space(2).names.index("f[x|x,y]"): Fraction(1)}
        g = {E.space(1).names.index("f[y|x]"): Fraction(1)}
        h = E.compose(2, 2, 1, f, g)   # h(a,b) = f(a, g(b))
        assert h == {E.space(2).names.index("f[x|x,x]"): Fraction(1)}

    def test_composition_sign_from_sliding(self):
        V = GradedSpace(("x", "y"), (0, 1))
        E = EndOperad(V, 3)
        # g of odd total degree slides past the odd first input of f
        f = {E.space(2).names.index("f[x|y,x]"): Fraction(1)}
        g = {E.space(1).names.index("f[x|y]"): Fraction(1)}  # degree -1
        h = E.compose(2, 2, 1, f, g)
        assert h == {E.space(2).names.index("f[x|y,y]"): Fraction(-1)}

    def test_differential_squares_to_zero(self):
        V = GradedSpace(("x", "y"), (0, 1))
        q = SparseMatrix.from_dict(2, 2, {(0, 1): Fraction(1)})
        E = EndOperad(V, 3, q=q)
        for n in range(1, 4):
            d = E.differentials[n]
            assert d.matmul(d).is_zero()

    def test_differential_degree_validation(self):
        V = GradedSpace(("x", "y"), (0, 0))
        q = SparseMatrix.from_dict(2, 2, {(0, 1): Fraction(1)})
        with pytest.raises(OperadError):
            EndOperad(V, 2, q=q)

    def test_dimension_cap(self):
        # 4^8 = 65,536 basis elements at arity 7, above the 20,000 cap
        V = GradedSpace(("a", "b", "c", "d"), (0, 0, 0, 0))
        with pytest.raises(OperadError):
            EndOperad(V, 7)


class TestFreeAlgebraDims:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bracket_operad_matches_necklace_counts(self, d):
        dims = free_algebra_dims(lie_operad(6), d, 6)
        assert dims == [witt_dim(d, n) for n in range(1, 7)]

    def test_bracket_d2_frozen(self):
        assert free_algebra_dims(lie_operad(6), 2, 6) == [2, 1, 2, 3, 6, 9]

    def test_bracket_operad_frozen_to_arity_eight(self):
        dims = [free_algebra_dims(lie_operad(8), d, 8) for d in (1, 2, 3)]
        assert dims == [[1, 0, 0, 0, 0, 0, 0, 0],
                        [2, 1, 2, 3, 6, 9, 18, 30],
                        [3, 3, 8, 18, 48, 116, 312, 810]]
        assert dims == [[witt_dim(d, n) for n in range(1, 9)]
                        for d in (1, 2, 3)]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_associative_matches_powers(self, d):
        assert free_algebra_dims(assoc_operad(5), d, 5) == \
            [d ** n for n in range(1, 6)]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_commutative_matches_binomials(self, d):
        assert free_algebra_dims(comm_operad(6), d, 6) == \
            [comb(d + n - 1, n) for n in range(1, 7)]

    @pytest.mark.parametrize("factory,d,n", [
        (comm_operad, 2, 3), (assoc_operad, 2, 3), (lie_operad, 2, 4),
        (lie_operad, 3, 3),
    ])
    def test_trace_shortcut_matches_explicit_projector(self, factory, d, n):
        O = factory(n)
        assert free_algebra_dims(O, d, n)[n - 1] == \
            symmetrization_projector_rank(O, d, n)

    def test_negative_dimension_rejected(self):
        with pytest.raises(OperadError):
            free_algebra_dims(comm_operad(3), -1, 3)


class TestActionMatrices:
    @pytest.mark.parametrize("factory", [assoc_operad, lie_operad])
    def test_trace_matches_matrix_trace(self, factory):
        O = factory(4)
        for sigma in itertools.permutations(range(1, 5)):
            m = action_matrix(O, 4, sigma)
            tr = sum(m[(k, k)] for k in range(O.dim(4)))
            assert O.action_trace(4, sigma) == tr

    @pytest.mark.parametrize("n", range(1, 8))
    def test_lie_trace_is_the_diagonal_on_every_cycle_type(self, n):
        O = lie_operad(n)
        for lam in cycle_types(n):
            sigma = class_representative(lam)
            assert O.action_trace(n, sigma) == \
                GradedOperad.action_trace(O, n, sigma)

    def test_lie_trace_is_the_diagonal_on_all_of_s5(self):
        O = lie_operad(5)
        for sigma in itertools.permutations(range(1, 6)):
            assert O.action_trace(5, sigma) == \
                GradedOperad.action_trace(O, 5, sigma)

    def test_action_matrices_form_a_homomorphism(self):
        O = lie_operad(4)
        for a, b in itertools.product(
                itertools.permutations(range(1, 4)), repeat=2):
            lhs = action_matrix(O, 3, perm_compose(a, b))
            rhs = action_matrix(O, 3, a).matmul(action_matrix(O, 3, b))
            assert lhs == rhs


class TestJsonRoundTrip:
    def test_round_trip_preserves_tables(self):
        O = lie_operad(3)
        text = operad_to_json(O, 3)
        back = operad_from_json(text)
        assert check_axioms(back, 3).ok
        for n in range(1, 4):
            assert back.dim(n) == O.dim(n)
            for sigma in itertools.permutations(range(1, n + 1)):
                for a in range(O.dim(n)):
                    assert back.act_basis(n, sigma, a) == \
                        dict(O.act_basis(n, sigma, a))
        for (n, i, m) in [(2, 1, 2), (2, 2, 2)]:
            for a in range(O.dim(n)):
                for b in range(O.dim(m)):
                    assert back.compose_basis(n, i, m, a, b) == \
                        dict(O.compose_basis(n, i, m, a, b))

    @staticmethod
    def full_document(O, top):
        """O's document through arity top with a record appended for each
        permutation that is no adjacent transposition, from O's own
        ``act_basis``: a document as earlier versions wrote it."""
        doc = json.loads(operad_to_json(O, top))
        for n in (n for n in O.arities() if n <= top):
            gens = adjacent_transpositions(n)
            doc["actions"] += [
                {"n": n, "sigma": list(sigma), "entries": [
                    [a, out, str(c)] for a in range(O.dim(n))
                    for out, c in sorted(O.act_basis(n, sigma, a).items())]}
                for sigma in itertools.permutations(range(1, n + 1))
                if sigma not in gens]
        return doc

    @classmethod
    def documents(cls, factory, top):
        """factory(top) read back from its full document and from the one
        written, which keeps only each arity's adjacent-transposition
        records."""
        O = factory(top)
        doc, full = json.loads(operad_to_json(O, top)), cls.full_document(O, top)
        assert len(doc["actions"]) < len(full["actions"])
        return (operad_from_json(json.dumps(d)) for d in (full, doc))

    @pytest.mark.parametrize("factory", [assoc_operad, lie_operad,
                                         comm_operad])
    @pytest.mark.parametrize("top", [3, 4])
    def test_generator_records_give_the_whole_action(self, factory, top):
        full, reduced = self.documents(factory, top)
        for n in range(1, top + 1):
            for sigma in itertools.permutations(range(1, n + 1)):
                for a in range(full.dim(n)):
                    assert reduced.act_basis(n, sigma, a) == \
                        full.act_basis(n, sigma, a), (n, sigma, a)

    @pytest.mark.parametrize("factory", [assoc_operad, lie_operad,
                                         comm_operad])
    @pytest.mark.parametrize("top", [3, 4])
    def test_a_minimal_document_passes_the_same_checks(self, factory, top):
        full, reduced = self.documents(factory, top)
        for corrupt in (False, True):
            if corrupt:
                full, reduced = (T.with_corrupted_composition(2, 1, 2, 0, 0)
                                 for T in (full, reduced))
            want, got = check_axioms(full, top), check_axioms(reduced, top)
            assert got.checked == want.checked
            assert got.violations == want.violations
            assert bool(got.violations) == corrupt

    def test_the_document_holds_one_record_per_generator(self):
        doc = json.loads(operad_to_json(lie_operad(6), 6))
        assert sorted((r["n"], tuple(r["sigma"])) for r in doc["actions"]) \
            == sorted((n, s) for n in range(1, 7)
                      for s in adjacent_transpositions(n))
        assert len(doc["actions"]) == 15

    def test_a_disagreeing_record_is_refused_and_named(self):
        # before, this document passed check_axioms, which reads only
        # the generators' records, and the bad record served (2,4,1,3)
        doc = self.full_document(assoc_operad(4), 4)
        rec = next(r for r in doc["actions"]
                   if (r["n"], r["sigma"]) == (4, [2, 4, 1, 3]))
        rec["entries"][0][2] = "-1"
        with pytest.raises(OperadError, match=re.escape(
                "action record (n, sigma) = (4, [2, 4, 1, 3]) disagrees with "
                "its adjacent transpositions at basis element 0: {")):
            operad_from_json(json.dumps(doc))

    def test_a_consistent_record_is_read_and_not_stored(self):
        O = assoc_operad(4)
        doc = json.loads(operad_to_json(O, 4))
        rec = next(r for r in self.full_document(O, 4)["actions"]
                   if r["sigma"] == [2, 4, 1, 3])
        # an explicit zero is no disagreement
        rec["entries"].append([0, rec["entries"][0][1] + 1, "0"])
        doc["actions"].append(rec)
        back = operad_from_json(json.dumps(doc))
        assert sorted(back._act) == sorted(
            (n, s) for n in range(1, 5) for s in adjacent_transpositions(n))
        for a in range(O.dim(4)):
            assert back.act_basis(4, (2, 4, 1, 3), a) == \
                dict(O.act_basis(4, (2, 4, 1, 3), a))

    @pytest.mark.parametrize("factory, top", [
        (comm_operad, 5), (assoc_operad, 5), (lie_operad, 5),
        (lambda top: cobar_operad(liec_cooperad(top), top), 4),
        (lambda top: EndOperad(GradedSpace(("e0", "e1"), (0, 1)), top,
                               q=SparseMatrix.from_dict(2, 2, {(0, 1): 1})),
         3)], ids=["comm", "assoc", "lie", "cobar-liec", "end"])
    def test_round_trip_serves_the_source_operad(self, factory, top):
        O = factory(top)
        back = operad_from_json(operad_to_json(O, top))
        arities = [n for n in O.arities() if n <= top]
        assert back.arities() == arities
        for n in arities:
            for sigma in itertools.permutations(range(1, n + 1)):
                for a in range(O.dim(n)):
                    assert back.act_basis(n, sigma, a) == \
                        {k: v for k, v in O.act_basis(n, sigma, a).items()
                         if v}, (n, sigma, a)
        for n, m in itertools.product(arities, arities):
            if n + m - 1 <= top:
                for i, a, b in itertools.product(range(1, n + 1),
                                                 range(O.dim(n)),
                                                 range(O.dim(m))):
                    assert back.compose_basis(n, i, m, a, b) == \
                        {k: v for k, v in O.compose_basis(n, i, m, a, b)
                         .items() if v}
        # the same reports as a table holding every permutation's record
        every = TableOperad(back.components, back.unit_vector, back._comp, {
            (n, sigma): {a: dict(O.act_basis(n, sigma, a))
                         for a in range(O.dim(n))}
            for n in arities
            for sigma in itertools.permutations(range(1, n + 1))},
            back.differentials)
        for T, U in ((back, every), (
                back.with_corrupted_composition(2, 1, 2, 0, 0),
                every.with_corrupted_composition(2, 1, 2, 0, 0))):
            got, want = check_axioms(T, top), check_axioms(U, top)
            assert (got.checked, got.violations) == \
                (want.checked, want.violations)

    def test_round_trip_preserves_differentials(self):
        V = GradedSpace(("x", "y"), (0, 1))
        q = SparseMatrix.from_dict(2, 2, {(0, 1): Fraction(1)})
        E = EndOperad(V, 2, q=q)
        back = operad_from_json(operad_to_json(E, 2))
        for n in (1, 2):
            assert back.differentials[n] == E.differentials[n]

    def test_rejects_wrong_format(self):
        with pytest.raises((OperadError, ValueError, KeyError)):
            operad_from_json(json.dumps({"format": "something-else"}))

    def test_round_trip_yields_int_and_keeps_fractions(self):
        doc = json.loads(operad_to_json(lie_operad(3), 3))
        doc["unit"] = {"0": "1/2"}
        back = operad_from_json(json.dumps(doc))
        assert back.unit_vector == {0: Fraction(1, 2)}
        values = [c for (n, i, m) in [(2, 1, 2), (2, 2, 2)]
                  for a in range(back.dim(n)) for b in range(back.dim(m))
                  for c in back.compose_basis(n, i, m, a, b).values()]
        assert values and {type(c) for c in values} == {int}

    def test_coefficient_is_an_int_or_a_string(self):
        assert parse_coefficient(-3) == -3
        assert parse_coefficient("-3/2") == Fraction(-3, 2)
        assert type(parse_coefficient("4/2")) is int
        for bad in ([1], 0.5, True, None, "x"):
            with pytest.raises(ValueError):
                parse_coefficient(bad)

    @pytest.mark.parametrize("fault, message", [
        ("unit index", "index 5 outside the arity-1 component"),
        ("action index", "index -1 outside the arity-2 component"),
        ("coefficient", "coefficient [1] is neither an int nor a string"),
        ("missing key", "lacks the key 'compositions'"),
        ("no action tables", "no action table for [2, 1] at arity 2"),
        ("sigma", "sigma [1, 1, 3] is not a permutation of 1..3"),
    ])
    def test_malformed_documents_raise_operad_error(self, fault, message):
        doc = json.loads(operad_to_json(lie_operad(3), 3))
        if fault == "unit index":
            doc["unit"] = {"5": "1"}
        elif fault == "action index":
            next(r for r in doc["actions"] if r["n"] == 2)["entries"][0][0] = -1
        elif fault == "coefficient":
            doc["actions"][0]["entries"][0][2] = [1]
        elif fault == "no action tables":
            doc["actions"] = []
        elif fault == "sigma":
            next(r for r in doc["actions"] if r["n"] == 3)["sigma"] = [1, 1, 3]
        else:
            del doc["compositions"]
        with pytest.raises(OperadError, match=re.escape(message)):
            operad_from_json(json.dumps(doc))

    def test_not_json_is_an_operad_error(self):
        with pytest.raises(OperadError):
            operad_from_json("{not json")

    def test_coefficients_stay_exact(self):
        O = lie_operad(3)
        data = json.loads(operad_to_json(O, 3))
        text = json.dumps(data)
        assert "0.3" not in text and "e-" not in text
