"""Tests for filtered operads, page computations and the induced
homotopy-commutative structure.

The degree filtration of an endomorphism operad provides exact
reference pages: the first page is the operad itself and the second is
its homology, which stabilizes.  Fault injections cover filtration
violations in both the operad and the algebra-over-it direction.
"""

import itertools
from fractions import Fraction

import pytest

from operadkit import filtration
from operadkit.cobar import cobar_dims, cobar_operad, liec_cooperad
from operadkit.filtration import (
    FilteredAlgebraData,
    FilteredOperad,
    FiltrationError,
    check_filtered_algebra,
    commutative_toy_algebra,
    degree_filtration,
    ErPiece,
    ErTerm,
    er_closure_certificate,
    er_term,
    filtered_operad_from_json,
    filtered_operad_to_json,
    induce_cinf,
    moduli_chain_standin,
    suboperad_dk,
)
from operadkit.hoalg import check_cinf, truncated_polynomial_family
from operadkit.operads import EndOperad, GradedSpace, assoc_operad
from operadkit.qlinalg import SparseMatrix, addmul, solve_in_span, span_rank
from reference import component_homology, mat_vec


def end_with_homology() -> EndOperad:
    """End_V for V = <e0, e1, e2>, Q e1 = e0: H(V) = <e2> in degree 0."""
    V = GradedSpace(("e0", "e1", "e2"), (0, 1, 0))
    q = SparseMatrix.from_dict(3, 3, {(0, 1): Fraction(1)})
    return EndOperad(V, 3, q=q)


class TestFilteredOperad:
    def test_levels_must_cover_every_arity(self):
        base = cobar_operad(liec_cooperad(3), 3)
        with pytest.raises(FiltrationError):
            FilteredOperad(base, {1: (0,)})

    def test_standin_validates(self):
        moduli_chain_standin(4).validate()

    def test_composition_raising_filtration_is_caught(self):
        base = cobar_operad(liec_cooperad(3), 3)
        levels = {n: tuple(base.space(n).degrees) for n in base.arities()}
        levels[3] = tuple(d + 5 for d in levels[3])
        bad = FilteredOperad(base, levels)
        with pytest.raises(FiltrationError) as exc:
            bad.validate()
        assert "composition" in str(exc.value)

    def test_differential_raising_filtration_is_caught(self):
        base = cobar_operad(liec_cooperad(3), 3)
        levels = {n: tuple(base.space(n).degrees) for n in base.arities()}
        # flip the arity-3 levels so the differential climbs the flag
        lo, hi = min(levels[3]), max(levels[3])
        levels[3] = tuple(lo + hi - d for d in levels[3])
        bad = FilteredOperad(base, levels)
        with pytest.raises(FiltrationError) as exc:
            bad.validate()
        assert "differential" in str(exc.value)

    def test_flag_basis(self):
        F = moduli_chain_standin(4)
        sp = F.base.space(3)
        assert F.flag_basis(3, 0) == \
            [a for a in range(sp.dim) if sp.degrees[a] <= 0]
        assert F.flag_basis(3, 10) == list(range(sp.dim))


class TestPages:
    def test_first_page_is_the_operad_itself(self):
        E = end_with_homology()
        F = degree_filtration(E)
        term = er_term(F, 1)
        for n in range(1, 4):
            degrees = E.space(n).degrees
            expected = {}
            for d in degrees:
                expected[(d, 0)] = expected.get((d, 0), 0) + 1
            assert term.dims(n) == expected
            assert term.total_dim(n) == E.dim(n)

    def test_second_page_is_the_homology(self):
        E = end_with_homology()
        F = degree_filtration(E)
        term = er_term(F, 2)
        for n in range(1, 4):
            hom = component_homology(E, n)
            assert {p: d for (p, q), d in term.dims(n).items()} == hom

    def test_pages_stabilize(self):
        E = end_with_homology()
        F = degree_filtration(E)
        d3 = {n: er_term(F, 3).dims(n) for n in range(1, 4)}
        d4 = {n: er_term(F, 4).dims(n) for n in range(1, 4)}
        assert d3 == d4

    def test_two_step_toy_by_hand(self):
        # V = <a (level 0), b (level 1)>, d b = a, filtration by level:
        # E1 has one class per level; E2 cancels both.
        V = GradedSpace(("a", "b"), (0, 1))
        q = SparseMatrix.from_dict(2, 2, {(0, 1): Fraction(1)})
        E = EndOperad(V, 1, q=q)
        F = degree_filtration(E)
        one = er_term(F, 1)
        assert one.total_dim(1) == E.dim(1) == 4
        two = er_term(F, 2)
        # H(V) = 0, so H(End V) = 0
        assert two.total_dim(1) == 0

    @pytest.mark.parametrize("make", [
        lambda: degree_filtration(end_with_homology()),
        lambda: degree_filtration(EndOperad(
            GradedSpace(("e0", "e1"), (0, 1)), 3,
            q=SparseMatrix.from_dict(2, 2, {(0, 1): 1}))),
        lambda: moduli_chain_standin(4),
    ], ids=["end-with-homology", "end", "standin"])
    def test_zeroth_page_is_the_associated_graded(self, make):
        # E0_{p,q} = F_p / F_{p-1} in degree p + q: one class per basis
        # element of level p and degree p + q, so the page sums to O(n)
        F = make()
        term = er_term(F, 0)
        for n in F.arities():
            expected = {}
            for level, degree in zip(F.levels[n], F.base.space(n).degrees):
                pq = (level, degree - level)
                expected[pq] = expected.get(pq, 0) + 1
            assert term.dims(n) == expected
            assert term.total_dim(n) == F.base.dim(n)

    def test_negative_page_rejected(self):
        with pytest.raises(FiltrationError):
            er_term(moduli_chain_standin(3), -1)

    def test_closure_certificate_on_standin(self):
        F = moduli_chain_standin(3)
        ok, witnesses = er_closure_certificate(er_term(F, 1), 3)
        assert ok, witnesses[:3]

    def test_closure_certificate_on_endomorphisms(self):
        F = degree_filtration(end_with_homology())
        for r in (1, 2):
            ok, witnesses = er_closure_certificate(er_term(F, r), 3)
            assert ok, witnesses[:3]


def reference_certificate(term, max_arity):
    """The closure certificate with membership decided by solve_in_span
    on the whole target span, one composite at a time."""
    F = term.filtered
    witnesses = []
    arities = [n for n in F.arities() if n <= max_arity]
    for n in arities:
        for m in arities:
            if n + m - 1 > max_arity or n + m - 1 not in term.pieces:
                continue
            for (p, q), piece in term.pieces[n].items():
                for (pp, qq), piece2 in term.pieces[m].items():
                    tgt = term.pieces[n + m - 1].get((p + pp, q + qq))
                    tgt_z = tgt.z_basis if tgt else []
                    tgt_b = tgt.b_basis if tgt else []
                    for i in range(1, n + 1):
                        for x in piece.z_basis:
                            for y in piece2.z_basis:
                                out = F.base.compose(n, i, m, x, y)
                                if out and solve_in_span(
                                        tgt_z + tgt_b, out) is None:
                                    witnesses.append(
                                        ("numerator", n, m, i, (p, q), (pp, qq)))
                            for y in piece2.b_basis:
                                out = F.base.compose(n, i, m, x, y)
                                if out and solve_in_span(tgt_b, out) is None:
                                    witnesses.append(
                                        ("denominator", n, m, i, (p, q), (pp, qq)))
                        for x in piece.b_basis:
                            for y in piece2.z_basis + piece2.b_basis:
                                out = F.base.compose(n, i, m, x, y)
                                if out and solve_in_span(tgt_b, out) is None:
                                    witnesses.append(
                                        ("denominator", n, m, i, (p, q), (pp, qq)))
    return (not witnesses, witnesses)


class TestClosureCertificateReference:
    @pytest.mark.parametrize("r", [1, 2])
    def test_agrees_on_endomorphism_pages(self, r):
        term = er_term(degree_filtration(end_with_homology()), r)
        assert er_closure_certificate(term, 3) == \
            reference_certificate(term, 3)

    @pytest.mark.parametrize("r, drop, kind", [
        (1, "z", "numerator"), (2, "b", "denominator")])
    def test_agrees_when_a_target_span_is_cut(self, r, drop, kind):
        # cut every arity-3 piece (its first numerator vector, or all its
        # denominator vectors), so some composites land outside the spans
        term = er_term(degree_filtration(end_with_homology()), r)
        for pq, piece in term.pieces[3].items():
            z, b = piece.z_basis, piece.b_basis
            if drop == "z":
                z = z[1:]
            else:
                b = []
            term.pieces[3][pq] = ErPiece(piece.p, piece.q, z, b,
                                         len(z) - span_rank(b))
        ok, witnesses = er_closure_certificate(term, 3)
        assert not ok and {w[0] for w in witnesses} == {kind}
        assert (ok, witnesses) == reference_certificate(term, 3)

    def test_a_numerator_around_a_denominator_is_checked(self):
        # Assoc, arity 2: x1x2 a numerator at (0, 0), x2x1 a denominator
        # at (1, 0).  The arity-3 denominator at (1, 0) holds only the
        # composites (x2x1) o_i (x1x2), so every other loop passes and
        # only (x1x2) o_i (x2x1), which lands elsewhere, can fail.
        O = assoc_operad(3)
        F = FilteredOperad(O, {n: (0,) * O.dim(n) for n in O.arities()})
        mu, op = {0: 1}, {1: 1}
        every = [{a: 1} for a in range(F.base.dim(3))]
        cut = [F.base.compose(2, i, 2, op, mu) for i in (1, 2)]
        term = ErTerm(0, F, {
            1: {},
            2: {(0, 0): ErPiece(0, 0, [mu], [], 1),
                (1, 0): ErPiece(1, 0, [], [op], 0)},
            3: {(0, 0): ErPiece(0, 0, every, [], 6),
                (1, 0): ErPiece(1, 0, cut, cut, 0),
                (2, 0): ErPiece(2, 0, every, every, 0)}})
        ok, witnesses = er_closure_certificate(term, 3)
        assert witnesses == [("denominator", 2, 2, i, (0, 0), (1, 0))
                             for i in (1, 2)]
        assert (ok, witnesses) == reference_certificate(term, 3)


class TestPageDimensions:
    @pytest.mark.parametrize("make, r", [
        (lambda: moduli_chain_standin(4), 1),
        (lambda: degree_filtration(end_with_homology()), 2)],
        ids=["standin", "end"])
    def test_span_rank_runs_once_per_candidate_piece(self, monkeypatch,
                                                     make, r):
        F = make()
        seen = []

        def counted(vectors):
            seen.append(vectors)
            return span_rank(vectors)
        monkeypatch.setattr(filtration, "span_rank", counted)
        term = er_term(F, r)
        kept = [piece for by_pq in term.pieces.values()
                for piece in by_pq.values()]
        # each call ranks a fresh candidate's denominators, the kept
        # pieces' among them
        assert len({id(b) for b in seen}) == len(seen) >= len(kept) > 0
        assert {id(piece.b_basis) for piece in kept} <= {id(b) for b in seen}
        calls = len(seen)
        for n in F.arities():
            assert sum(term.dims(n).values()) == term.total_dim(n)
        for k in (-1, 0, 1):
            suboperad_dk(term, k)
        assert len(seen) == calls


    @pytest.mark.parametrize("make, r", [
        (lambda: moduli_chain_standin(4), 1),
        (lambda: degree_filtration(end_with_homology()), 2)],
        ids=["standin", "end"])
    def test_each_page_kernel_is_computed_once(self, monkeypatch, make, r):
        F = make()
        calls = {}
        z_space = filtration._z_space

        def counted(F, n, dt, rr, p, q):
            key = (n, rr, p, p + q)
            calls[key] = calls.get(key, 0) + 1
            return z_space(F, n, dt, rr, p, q)
        monkeypatch.setattr(filtration, "_z_space", counted)
        term = er_term(F, r)
        assert any(term.dims(n) for n in F.arities())
        # the numerators of page r and the lower kernels both ran
        assert {rr for _, rr, _, _ in calls} == {r, r - 1}
        assert set(calls.values()) == {1}


class TestDkSlices:
    def test_middle_slice_of_the_standin(self):
        F = moduli_chain_standin(4)
        slices = suboperad_dk(er_term(F, 1), 0)
        assert slices.certificate
        totals = {n: sum(sel.values()) for n, sel in slices.slices.items()}
        assert totals == {1: 1, 2: 1, 3: 5, 4: 41}
        # matches the decorated-tree dimensions arity by arity
        assert totals[3] == sum(cobar_dims(liec_cooperad(4), 3).values())
        assert totals[4] == sum(cobar_dims(liec_cooperad(4), 4).values())

    def test_off_slice_is_empty_except_identity(self):
        F = moduli_chain_standin(3)
        slices = suboperad_dk(er_term(F, 1), 1)
        assert all(not sel for n, sel in slices.slices.items() if n > 1)


class TestLeibniz:
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: CobarOperad.compose_basis signs come from "
        "reordering vertex generators, CobarComplex.boundary_from signs "
        "from edge orientations; an arity-3 corolla o_i the arity-2 "
        "corolla breaks the Leibniz rule"))
    def test_differential_is_a_derivation_of_composition(self):
        # d(x o_i y) = dx o_i y + (-1)^|x| x o_i dy on every basis pair
        O = moduli_chain_standin(4).base

        def d(n, x):
            D = O.differentials.get(n)
            return mat_vec(D, x) if D is not None else {}

        instances, failures = 0, []
        for n, m in itertools.product(O.arities(), repeat=2):
            if n + m - 1 > 4:
                continue
            for i, a, b in itertools.product(range(1, n + 1),
                                             range(O.dim(n)), range(O.dim(m))):
                x, y = {a: 1}, {b: 1}
                lhs = d(n + m - 1, O.compose(n, i, m, x, y))
                rhs = O.compose(n, i, m, d(n, x), y)
                sign = (-1) ** O.degree(n, a)
                for k, v in O.compose(n, i, m, x, d(m, y)).items():
                    addmul(rhs, k, sign * v)
                instances += 1
                if lhs != rhs:
                    failures.append((n, i, m, a, b))
        assert (instances, failures) == (256, [])


class TestJsonRoundTrip:
    def test_round_trip(self):
        F = degree_filtration(end_with_homology())
        text = filtered_operad_to_json(F, 2)
        back = filtered_operad_from_json(text)
        for n in (1, 2):
            assert back.levels[n] == F.levels[n]
            assert back.base.dim(n) == F.base.dim(n)
            assert back.base.differentials[n] == F.base.differentials[n]

    def test_text_is_parsed_once(self, monkeypatch):
        import json
        text = filtered_operad_to_json(degree_filtration(end_with_homology()), 2)
        calls = []

        def loads(text, **kwargs):
            calls.append(text)
            return json.JSONDecoder(**kwargs).decode(text)
        monkeypatch.setattr(json, "loads", loads)
        filtered_operad_from_json(text)
        assert len(calls) == 1

    def test_missing_levels_rejected(self):
        from operadkit.operads import operad_to_json
        text = operad_to_json(end_with_homology(), 2)
        with pytest.raises(FiltrationError):
            filtered_operad_from_json(text)


class TestFilteredAlgebra:
    def standin_with_toy(self, max_arity=3):
        F = moduli_chain_standin(max_arity)
        poly = truncated_polynomial_family(3)
        A = commutative_toy_algebra(F, poly.space, poly.q, poly.maps[2])
        return F, A

    def test_toy_algebra_passes(self):
        F, A = self.standin_with_toy()
        report = check_filtered_algebra(F, A, max_arity=3)
        assert report.ok, report.witnesses[:3]

    def test_toy_tensors_evaluate_the_tree_on_every_tuple(self):
        # a non-commutative product, so the slot order by leaf label shows
        F = moduli_chain_standin(4)
        space = GradedSpace(("u", "v"), (0, 0))
        m2 = {(0, (0, 0)): 1, (1, (0, 1)): 2, (0, (1, 0)): -1}
        A = commutative_toy_algebra(F, space, SparseMatrix.zero(2, 2), m2)

        def evaluate(shape, assign):
            if isinstance(shape, int):
                return {assign[shape]: 1}
            left, right = (evaluate(c, assign) for c in shape)
            out = {}
            for (j, (x, y)), c in m2.items():
                v = c * left.get(x, 0) * right.get(y, 0)
                if v:
                    out[j] = out.get(j, 0) + v
            return out

        binary = 0
        for n in (2, 3, 4):
            for a in range(F.base.dim(n)):
                t, _ = F.base.complexes[n].basis[a]
                if any(m != 2 for m in t.vertex_arities()):
                    assert A.tensor(n, a) == {}
                    continue
                binary += 1
                want = {}
                for ins in itertools.product(range(2), repeat=n):
                    for j, c in evaluate(t.shape, dict(enumerate(ins, 1))).items():
                        want[(j, ins)] = c
                assert A.tensor(n, a) == want
        assert binary == 1 + 3 + 15

    def test_vanishing_predicate_fault(self):
        F, A = self.standin_with_toy()
        # push the flag below the degrees: nonzero mu on an element whose
        # degree now exceeds its level must be flagged
        levels = {n: tuple(l - 1 for l in F.levels[n]) for n in F.levels}
        squashed = FilteredOperad(F.base, levels)
        report = check_filtered_algebra(squashed, A, max_arity=3)
        assert not report.filtration_ok
        assert any(w[0] == "filtration" for w in report.witnesses)

    def test_morphism_fault(self):
        F, A = self.standin_with_toy()
        A.mu[(2, 0)] = {k: 2 * v for k, v in A.mu[(2, 0)].items()}
        report = check_filtered_algebra(F, A, max_arity=3)
        assert not report.morphism_ok
        assert any(w[0] == "morphism" for w in report.witnesses)

    def test_mu_coefficients_normalised_exactly(self):
        F, A = self.standin_with_toy()
        values = [c for tensor in A.mu.values() for c in tensor.values()]
        assert values and {type(c) for c in values} == {int}
        half = FilteredAlgebraData(A.space, A.q,
                                   {(2, 0): {(0, (0, 0)): Fraction(2, 4)}})
        assert half.tensor(2, 0) == {(0, (0, 0)): Fraction(1, 2)}
        with pytest.raises(TypeError):
            FilteredAlgebraData(A.space, A.q, {(2, 0): {(0, (0, 0)): 0.5}})

    def test_unit_fault(self):
        F, A = self.standin_with_toy()
        del A.mu[(1, 0)]
        report = check_filtered_algebra(F, A, max_arity=3)
        assert any(w[0] == "unit" for w in report.witnesses)


class TestPipeline:
    def test_commutative_toy_induces_valid_structure(self):
        F = moduli_chain_standin(4)
        poly = truncated_polynomial_family(3)
        A = commutative_toy_algebra(F, poly.space, poly.q, poly.maps[2])
        result = induce_cinf(F, A, 4)
        assert result.ok
        assert set(result.family.maps) == {2}

    def test_relations_are_checked_past_max_arity(self):
        # m(x0, x1) = m(x1, x0) = x1 is commutative, not associative; its
        # relation first fails at arity 3, above max_arity = 2
        F = moduli_chain_standin(2)
        space = GradedSpace(("x0", "x1"), (0, 0))
        m2 = {(1, (0, 1)): 1, (1, (1, 0)): 1}
        A = commutative_toy_algebra(F, space, SparseMatrix.zero(2, 2), m2)
        result = induce_cinf(F, A, 2)
        assert result.report.ok and not result.ok
        assert len(result.cinf_report.ainf_residuals) == 2
        assert result.cinf_report == check_cinf(result.family)

    def test_morphism_fault_fails_pipeline(self):
        F = moduli_chain_standin(3)
        poly = truncated_polynomial_family(3)
        A = commutative_toy_algebra(F, poly.space, poly.q, poly.maps[2])
        # double one arity-3 binary-tree tensor: m_2 is unchanged, but mu
        # is no longer an operad morphism
        key = next(k for k in A.mu if k[0] == 3)
        A.mu[key] = {k: 2 * v for k, v in A.mu[key].items()}
        result = induce_cinf(F, A, 3)
        assert not result.ok
        assert result.report.filtration_ok and not result.report.morphism_ok
        assert result.cinf_report.ok

    def test_arity_four_morphism_fault_fails_pipeline(self):
        F = moduli_chain_standin(4)
        poly = truncated_polynomial_family(3)
        A = commutative_toy_algebra(F, poly.space, poly.q, poly.maps[2])
        # double one arity-4 binary-tree tensor: a check capped at arity 3
        # cannot see it, the pipeline's check through arity 4 must
        key = next(k for k in A.mu if k[0] == 4)
        A.mu[key] = {k: 2 * v for k, v in A.mu[key].items()}
        assert check_filtered_algebra(F, A, max_arity=3).ok
        result = induce_cinf(F, A, 4)
        assert result.report.filtration_ok and not result.report.morphism_ok
        assert not result.ok
        assert result.cinf_report.ok

    def test_filtration_violation_aborts_pipeline(self):
        F = moduli_chain_standin(3)
        poly = truncated_polynomial_family(2)
        A = commutative_toy_algebra(F, poly.space, poly.q, poly.maps[2])
        levels = {n: tuple(l - 1 for l in F.levels[n]) for n in F.levels}
        squashed = FilteredOperad(F.base, levels)
        with pytest.raises(FiltrationError):
            induce_cinf(squashed, A, 3)

    def test_pipeline_requires_decorated_tree_base(self):
        E = end_with_homology()
        F = degree_filtration(E)
        poly = truncated_polynomial_family(3)
        A = FilteredAlgebraData(poly.space, poly.q, {})
        with pytest.raises(FiltrationError):
            induce_cinf(F, A, 3)
