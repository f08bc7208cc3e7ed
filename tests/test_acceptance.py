"""Acceptance suite: ten end-to-end criteria, one per test.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
on failure) and asserts the same condition, so the suite doubles as a
human-readable report of the package's headline guarantees.
"""

from fractions import Fraction
from math import comb, factorial

import pytest

import test_treegraph as tg_oracles
from reference import component_homology, mat_vec


def report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_operad_axioms():
    from operadkit.operads import (assoc_operad, comm_operad, lie_operad,
                                   check_axioms, TableOperad)
    from operadkit.cobar import cobar_operad, liec_cooperad

    ok = True
    # instance counts pin the arity-6 walk of every axiom
    for factory, checked in ((comm_operad, 650), (assoc_operad, 102698),
                             (lie_operad, 14163)):
        axioms = check_axioms(factory(6), 6)
        ok &= axioms.ok and axioms.checked == checked
    ok &= check_axioms(cobar_operad(liec_cooperad(4), 4), 4).ok
    # injected faults must each produce at least one violation
    for factory in (comm_operad, assoc_operad, lie_operad):
        table = TableOperad.from_operad(factory(3), 3)
        bad = table.with_corrupted_composition(2, 1, 2, 0, 0)
        ok &= not check_axioms(bad, 3).ok
    report(1, "operad axioms with fault injection", ok)
    assert ok


def test_criterion_2_cobar_homology_totals():
    from operadkit.cobar import (cobar_homology, liec_cooperad, asc_cooperad)

    ok = True
    for n in range(2, 7):
        hom = cobar_homology(liec_cooperad(n), n)
        ok &= sum(hom.values()) == 1 and hom[n - 2] == 1
    for n in range(2, 6):
        hom = cobar_homology(asc_cooperad(n), n)
        ok &= sum(hom.values()) == factorial(n) and hom[n - 2] == factorial(n)
    report(2, "cobar homology totals", ok)
    assert ok


def test_criterion_3_squared_differential():
    from operadkit.cobar import CobarComplex, liec_cooperad, asc_cooperad
    from operadkit.qlinalg import ComplexError

    ok = True
    for cofactory, top in ((liec_cooperad, 6), (asc_cooperad, 5)):
        for n in range(2, top + 1):
            cc = CobarComplex(cofactory(top), n).chain_complex()
            for i in range(len(cc.boundaries) - 1):
                ok &= cc.boundaries[i].matmul(cc.boundaries[i + 1]).is_zero()
    try:
        CobarComplex(liec_cooperad(4), 4, sign_mode="unsigned").chain_complex()
        ok = False
    except ComplexError:
        pass
    report(3, "d.d = 0 plus wrong-sign detection", ok)
    assert ok


def test_criterion_4_middle_row():
    from operadkit.strata import middle_row

    ok = True
    for arity in range(2, 8):
        ok &= middle_row(arity).equal
    rep = middle_row(4)
    ok &= rep.e1_dims == {2: 6, 1: 20, 0: 15}
    report(4, "middle-row dimensions match the cobar complex", ok)
    assert ok


def test_criterion_5_diagonal_degeneration():
    from operadkit.strata import predict_compactified_betti, keel_h2_rank

    ok = True
    ok &= predict_compactified_betti(4) == (1, 1)
    ok &= predict_compactified_betti(5) == (1, 5, 1)
    ok &= predict_compactified_betti(6) == (1, 16, 16, 1)
    for n in range(4, 9):
        row = predict_compactified_betti(n)
        ok &= row == row[::-1] and all(h >= 0 for h in row)
    for n in range(5, 9):
        ok &= predict_compactified_betti(n)[1] == keel_h2_rank(n)
    report(5, "predicted compactified Betti numbers", ok)
    assert ok


def test_criterion_6_vanishing_bounds():
    from operadkit.strata import e1_table, verify_vanishing

    ok = True
    for n in range(4, 9):
        table = e1_table(0, n)
        ok &= verify_vanishing(0, n, table)
        top = n - 3
        ok &= all(-p <= q <= p <= top
                  for (p, q), d in table.entries.items() if d)
    report(6, "first-page vanishing bounds", ok)
    assert ok


def test_criterion_7_census_oracles():
    from operadkit.treegraph import (enumerate_trees, enumerate_stable_graphs,
                                     automorphism_group)

    ok = True
    for n in range(2, 8):
        for e in range(n - 1):
            ok &= len(enumerate_trees(n, e)) == tg_oracles.tree_count(n, e + 1)
    for g, n in ((1, 1), (1, 2), (0, 4), (0, 5)):
        ours = enumerate_stable_graphs(g, n, 2)
        oracle = tg_oracles.oracle_stable_graphs(g, n, 2)
        ok &= len(ours) == len(oracle)
    one_edge = enumerate_stable_graphs(1, 1, 1)
    ok &= len(one_edge) == 2
    loop = [G for G in one_edge if G.edges]
    ok &= len(loop) == 1 and len(automorphism_group(loop[0])) == 2
    report(7, "census against brute-force oracles", ok)
    assert ok


def test_criterion_8_homotopy_checkers():
    from operadkit.hoalg import (MapFamily, check_ainf, check_cinf,
                                 truncated_polynomial_family)
    from operadkit.operads import GradedSpace
    from operadkit.qlinalg import SparseMatrix

    ok = True
    poly = truncated_polynomial_family(3)
    ok &= check_ainf(poly, 3) == []
    ok &= check_cinf(poly, 3).ok
    # non-associative fault fails at arity 3
    bad = dict(poly.maps[2])
    bad[(1, (0, 1))] = -bad[(1, (0, 1))]
    faulty = MapFamily(poly.space, poly.q, {2: bad})
    residuals = check_ainf(faulty, 3)
    ok &= bool(residuals) and all(r.n == 3 for r in residuals)
    # noncommutative algebra fails the (1,1)-shuffle
    space = GradedSpace(("u", "v"), (0, 0))
    left = MapFamily(space, SparseMatrix.zero(2, 2),
                     {2: {(a, (a, b)): Fraction(1)
                          for a in range(2) for b in range(2)}})
    rep = check_cinf(left, 2)
    ok &= not rep.ainf_residuals
    ok &= any(p == 1 and q == 1 for (_, p, q, _, _) in rep.shuffle_violations)
    # the arity-2 relation is the graded Leibniz rule: with generic
    # (distinct-prime) coefficients the two linear forms must agree on
    # every basis pair, twice over, which pins them symbolically
    V = GradedSpace(("e0", "e1"), (0, 1))
    Q = SparseMatrix.from_dict(2, 2, {(0, 1): Fraction(1)})
    for primes in ((2, 3, 5), (7, 11, 13)):
        m2 = {(0, (0, 0)): Fraction(primes[0]),
              (1, (0, 1)): Fraction(primes[1]),
              (1, (1, 0)): Fraction(primes[2])}
        fam = MapFamily(V, Q, {2: m2})
        defects = {r.inputs: r.defect for r in check_ainf(fam, 2)}

        def apply(ins):  # m2 on one basis pair
            return {o: c for (o, w), c in fam.maps[2].items() if w == ins}

        for a in range(2):
            for b in range(2):
                defect = defects.get((a, b), {})
                leib: dict = {}

                def add(vec, c):
                    for kk, v in vec.items():
                        s = leib.get(kk, Fraction(0)) + c * v
                        if s:
                            leib[kk] = s
                        elif kk in leib:
                            del leib[kk]

                add(mat_vec(fam.q, apply((a, b))), Fraction(1))
                for qa, v in [(r, val) for r, c, val in Q.entries() if c == a]:
                    add(apply((qa, b)), -v)
                sgn = Fraction(-1 if V.degrees[a] % 2 else 1)
                for qb, v in [(r, val) for r, c, val in Q.entries() if c == b]:
                    add(apply((a, qb)), -sgn * v)
                ok &= defect == leib
    report(8, "homotopy-associativity and shuffle checkers", ok)
    assert ok


def test_criterion_9_pages_and_pipeline():
    from operadkit.filtration import (degree_filtration, er_term,
                                      suboperad_dk,
                                      er_closure_certificate,
                                      moduli_chain_standin,
                                      commutative_toy_algebra, induce_cinf)
    from operadkit.hoalg import truncated_polynomial_family
    from operadkit.operads import EndOperad, GradedSpace
    from operadkit.qlinalg import SparseMatrix

    ok = True
    V = GradedSpace(("e0", "e1", "e2"), (0, 1, 0))
    q = SparseMatrix.from_dict(3, 3, {(0, 1): Fraction(1)})
    E = EndOperad(V, 3, q=q)
    F = degree_filtration(E)
    one = er_term(F, 1)
    two = er_term(F, 2)
    for n in range(1, 4):
        ok &= one.total_dim(n) == E.dim(n)
        ok &= {p: d for (p, _), d in two.dims(n).items()} == \
            component_homology(E, n)
    ok &= er_closure_certificate(one, 3)[0]
    standin = moduli_chain_standin(4)
    slices = suboperad_dk(er_term(standin, 1), 0)
    ok &= slices.certificate
    ok &= {n: sum(sel.values()) for n, sel in slices.slices.items()} == \
        {1: 1, 2: 1, 3: 5, 4: 41}
    poly = truncated_polynomial_family(3)
    A = commutative_toy_algebra(standin, poly.space, poly.q, poly.maps[2])
    ok &= induce_cinf(standin, A, 4).ok
    report(9, "page formalism and the end-to-end pipeline", ok)
    assert ok


def test_criterion_10_free_algebra_dimensions():
    from operadkit.operads import (assoc_operad, comm_operad, lie_operad,
                                   free_algebra_dims)

    ok = True
    for d in (1, 2, 3):
        dims = free_algebra_dims(lie_operad(8), d, 8)
        ok &= dims == [tg_witt(d, n) for n in range(1, 9)]
        ok &= free_algebra_dims(assoc_operad(5), d, 5) == \
            [d ** n for n in range(1, 6)]
        ok &= free_algebra_dims(comm_operad(6), d, 6) == \
            [comb(d + n - 1, n) for n in range(1, 7)]
    report(10, "free-algebra dimension formulas", ok)
    assert ok


def tg_witt(d: int, n: int) -> int:
    import test_operads
    return test_operads.witt_dim(d, n)
