"""Filtered operads, spectral-sequence pages, and the induced homotopy
structure pipeline.

A filtration is a basis-spanned flag per arity: each basis element
carries an integer level, F_p is spanned by levels <= p, the
differential preserves each F_p and compositions add levels.  The r-th
page at bigrade (p, q) is

  E^r_{p,q} = Z^r_{p,q} / (dZ^{r-1}_{p+r-1, q-r+2} + Z^{r-1}_{p-1, q+1}),
  Z^r_{p,q} = {x in F_p, deg p+q : dx in F_{p-r}},

computed by exact linear algebra on the flags.  Each kernel Z^r_{p,q}
is a nullspace of d on the flag basis, taken in d's own row indices,
and a page computes each one once per arity, for the levels the arity
carries.  The slices with
(r-1)p + rq = k(n-1) should close under composition and form
suboperads; the page's closure certificate, run on a slice, checks it.

The pipeline at the end feeds a filtered algebra over the decorated-tree
operad of the Lie cooperad through the q = 0 slice of the first page,
reads off the n-ary operations from identity-word corollas, and verifies
the homotopy-commutative relations on the result.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, partial

from . import InputError
from .qlinalg import (SparseMatrix, add_scaled, as_exact, in_span, nullspace,
                      span_basis, span_rank)
from .operads import (GradedOperad, GradedSpace, adjacent_transpositions,
                      check_differential, end_compose, int_keyed,
                      perm_inverse, read_document)
from .hoalg import MapFamily, check_cinf


class FiltrationError(InputError):
    pass


class FilteredOperad:
    """A graded operad of complexes with a basis-spanned filtration."""

    def __init__(self, base: GradedOperad, levels: dict[int, tuple[int, ...]]):
        for n in base.arities():
            if n not in levels or len(levels[n]) != base.dim(n):
                raise FiltrationError(f"levels missing or wrong size at arity {n}")
        stray = sorted(levels.keys() - base.components)
        if stray:
            raise FiltrationError(f"filtration levels at arity {stray[0]}: "
                                  f"no arity-{stray[0]} component")
        self.base = base
        self.levels = {n: tuple(lv) for n, lv in levels.items()}

    def arities(self):
        return self.base.arities()

    def flag_basis(self, n: int, p: int, degree: int | None = None) -> list[int]:
        """Basis indices in F_p, optionally of one total degree."""
        sp = self.base.space(n)
        return [a for a in range(sp.dim)
                if self.levels[n][a] <= p
                and (degree is None or sp.degrees[a] == degree)]

    def composable(self, max_arity: int | None = None) -> list:
        """The arity pairs (n, m) whose composite arity n + m - 1 is a
        component, all three at most max_arity."""
        arities = [n for n in self.arities()
                   if max_arity is None or n <= max_arity]
        return [(n, m) for n in arities for m in arities
                if n + m - 1 in arities]

    def validate(self) -> None:
        """Each differential is one (degree -1, d.d = 0) and keeps the
        flags, and so do composition and action, checked exhaustively on
        basis elements."""
        for n in self.arities():
            d = self.base.differentials.get(n)
            if d is not None:
                check_differential(self.base.space(n), d, FiltrationError,
                                   f"the arity-{n} differential")
                for r, c, v in d.entries():
                    if v and self.levels[n][r] > self.levels[n][c]:
                        raise FiltrationError(
                            f"differential raises filtration at arity {n}: "
                            f"{c} -> {r}")
        for n, m in self.composable():
            for i in range(1, n + 1):
                for a in range(self.base.dim(n)):
                    for b in range(self.base.dim(m)):
                        out = self.base.compose_basis(n, i, m, a, b)
                        bound = self.levels[n][a] + self.levels[m][b]
                        for o, v in out.items():
                            if v and self.levels[n + m - 1][o] > bound:
                                raise FiltrationError(
                                    "composition raises filtration at "
                                    f"arities ({n},{m}) slot {i}")
        for n in self.arities():
            for sigma in adjacent_transpositions(n):
                for a in range(self.base.dim(n)):
                    for o, v in self.base.act_basis(n, sigma, a).items():
                        if v and self.levels[n][o] != self.levels[n][a]:
                            raise FiltrationError(
                                f"action changes filtration at arity {n}")


def degree_filtration(base: GradedOperad) -> FilteredOperad:
    """Filtration by the complex degree itself."""
    return FilteredOperad(
        base, {n: tuple(base.space(n).degrees) for n in base.arities()})


# ---------------------------------------------------------------------------
# Spectral-sequence pages


# One bigraded slot: numerator and denominator spans (sparse column
# vectors over the ambient component basis) and the dimension of their
# quotient.
ErPiece = namedtuple("ErPiece", "p q z_basis b_basis dim")


class ErTerm(namedtuple("ErTerm", "r filtered pieces")):
    """The r-th page of a filtered operad; ``pieces`` maps each arity n
    to {(p, q): ErPiece}."""

    __slots__ = ()

    def dims(self, n: int) -> dict[tuple[int, int], int]:
        return {pq: piece.dim for pq, piece in self.pieces.get(n, {}).items()
                if piece.dim}

    def total_dim(self, n: int) -> int:
        return sum(self.dims(n).values())


def _z_space(F: FilteredOperad, n: int, dt: SparseMatrix | None,
             r: int, p: int, q: int) -> list:
    """Basis of Z^r_{p,q}(n) as sparse coordinate vectors: the kernel of
    d on the flag basis of F_p in degree p + q, taken in d's own row
    indices, where only the rows of level > p - r hold entries; row a
    of ``dt``, d's transpose (None for no d), is d's column a."""
    cols = F.flag_basis(n, p, p + q)
    if not cols:
        return []
    if dt is None:
        return [{a: 1} for a in cols]
    lv = F.levels[n]
    m = SparseMatrix(dt.cols, len(cols),
                     [(rr, j, v) for j, a in enumerate(cols)
                      for rr, v in dt.row(a).items() if lv[rr] > p - r])
    return [{cols[j]: v for j, v in vec.items()} for vec in nullspace(m)]


def er_term(F: FilteredOperad, r: int) -> ErTerm:
    """The r-th page with numerator/denominator spans per bigrade.  Each
    kernel Z^{r'}_{p,q} of an arity is computed once, whether it is a
    numerator or part of a denominator.  Pages read d by columns, from
    its transpose, made once per arity and kept only while it is paged."""
    if r < 0:
        raise FiltrationError("page index must be >= 0")
    pieces = {}
    for n in F.arities():
        sp = F.base.space(n)
        by_pq = pieces[n] = {}
        if sp.dim == 0:
            continue
        d = F.base.differentials.get(n)
        dt = None if d is None else d.transpose()
        z_space = cache(partial(_z_space, F, n, dt))
        degrees = sorted(set(sp.degrees))
        for p in range(min(F.levels[n]), max(F.levels[n]) + 1):
            for degree in degrees:
                q = degree - p
                z = z_space(r, p, q)
                if not z:
                    continue
                b = []
                if dt is not None:
                    for vec in z_space(r - 1, p + r - 1, q - r + 2):
                        dv: dict = {}
                        for a, x in vec.items():
                            add_scaled(dv, dt.row(a), x)
                        if dv:
                            b.append(dv)
                b.extend(z_space(r - 1, p - 1, q + 1))
                dim = len(z) - span_rank(b)
                if dim:
                    by_pq[(p, q)] = ErPiece(p, q, z, b, dim)
    return ErTerm(r, F, pieces)


def er_closure_certificate(term: ErTerm, max_arity: int) -> tuple[bool, list]:
    """Verify the numerators compose into numerators and a denominator
    on either side of a composite absorbs it into the denominators, the
    exactness content of the page being an operad.  Each target span is
    given an echelon basis once (``span_basis``), and a composite lies
    in it when ``in_span`` reduces it to zero.  Returns (ok, witnesses)."""
    F = term.filtered
    witnesses = []
    spans = {}  # (arity, p, q) -> echelon bases of (z + b, b)

    def target_spans(arity, p, q):
        key = (arity, p, q)
        if key not in spans:
            tgt = term.pieces[arity].get((p, q))
            z, b = (tgt.z_basis, tgt.b_basis) if tgt else ([], [])
            spans[key] = (span_basis(z + b), span_basis(b))
        return spans[key]

    def tagged(piece):  # (vector, is a numerator), numerators first
        return ([(x, True) for x in piece.z_basis]
                + [(x, False) for x in piece.b_basis])

    for n, m in F.composable(max_arity):
        for (p, q), piece in term.pieces[n].items():
            xs = tagged(piece)
            for (pp, qq), piece2 in term.pieces[m].items():
                tgt_zb, tgt_b = target_spans(n + m - 1, p + pp, q + qq)
                ys = tagged(piece2)
                for i in range(1, n + 1):
                    for x, x_num in xs:
                        for y, y_num in ys:
                            both = x_num and y_num
                            out = F.base.compose(n, i, m, x, y)
                            if not in_span(tgt_zb if both else tgt_b, out):
                                witnesses.append(
                                    ("numerator" if both else "denominator",
                                     n, m, i, (p, q), (pp, qq)))
    return (not witnesses, witnesses)


class DkSlices(namedtuple("DkSlices", "r k slices witnesses")):
    """``slices`` maps n to {(p, q): dim}; ``witnesses`` are those of
    ``er_closure_certificate`` on the slices."""

    __slots__ = ()

    @property
    def certificate(self) -> bool:
        return not self.witnesses


def suboperad_dk(term: ErTerm, k: int) -> DkSlices:
    """The bigraded slices with (r-1)p + rq = k(arity - 1), with the
    closure certificate of ``er_closure_certificate`` run on the slices'
    pieces alone: compositions of slice elements must land in the slice
    spans."""
    r = term.r
    pieces = {n: {(p, q): piece for (p, q), piece in by_pq.items()
                  if (r - 1) * p + r * q == k * (n - 1)}
              for n, by_pq in term.pieces.items()}
    _, witnesses = er_closure_certificate(
        ErTerm(r, term.filtered, pieces), max(pieces, default=0))
    slices = {n: {pq: piece.dim for pq, piece in sel.items()}
              for n, sel in pieces.items()}
    return DkSlices(r, k, slices, witnesses)


def filtered_operad_to_json(F: FilteredOperad, max_arity: int) -> str:
    """Operad JSON document extended with a filtration_level table."""
    import json
    from .endtable import operad_document
    doc = operad_document(F.base, max_arity)
    doc["filtration_level"] = {str(n): list(F.levels[n])
                               for n in F.arities() if n <= max_arity}
    return json.dumps(doc, indent=1)


def filtered_operad_from_json(text: str) -> FilteredOperad:
    from .endtable import operad_from_doc

    def parse(doc):
        raw = doc.get("filtration_level")
        if raw is None:
            raise FiltrationError("document lacks a filtration_level table")
        levels = {n: tuple(lv) for n, lv in
                  int_keyed(raw, "filtration_level: arity").items()}
        if not all(type(x) is int for lv in levels.values() for x in lv):
            raise FiltrationError("filtration levels must be integers")
        return FilteredOperad(operad_from_doc(doc), levels)
    return read_document(text, "operadkit-operad", FiltrationError, parse)


# ---------------------------------------------------------------------------
# Filtered algebras and the induced homotopy structure


class FilteredAlgebraData:
    """A morphism candidate from a filtered operad into End_V.

    ``mu`` maps (arity, basis index) to a multilinear tensor
    {(out, in_tuple): coeff} on the basis of V; missing keys are zero.
    V is filtered by its complex degree.
    """

    def __init__(self, space: GradedSpace, q: SparseMatrix, mu: dict):
        self.space = space
        self.q = q
        self.mu = {key: {t: as_exact(c) for t, c in tensor.items() if c}
                   for key, tensor in mu.items()}

    def tensor(self, n: int, a: int) -> dict:
        return self.mu.get((n, a), {})


class FilteredAlgebraReport(namedtuple(
        "FilteredAlgebraReport", "filtration_ok morphism_ok witnesses")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.filtration_ok and self.morphism_ok


def check_filtered_algebra(F: FilteredOperad, A: FilteredAlgebraData,
                           max_arity: int | None = None) -> FilteredAlgebraReport:
    """Filtration predicate plus composition/unit morphism check.

    The filtration predicate is the vanishing hypothesis: mu must kill
    every basis element whose complex degree exceeds its level (V being
    filtered by degree).  Morphism failures are reported separately.
    """
    witnesses = []
    arities = [n for n in F.arities()
               if max_arity is None or n <= max_arity]
    for n in arities:
        sp = F.base.space(n)
        for a in range(sp.dim):
            if sp.degrees[a] > F.levels[n][a] and A.tensor(n, a):
                witnesses.append(("filtration", n, a, sp.degrees[a],
                                  F.levels[n][a]))
    filtration_ok = not witnesses
    degrees = A.space.degrees
    for n, m in F.composable(max_arity):
        for i in range(1, n + 1):
            for a in range(F.base.dim(n)):
                fa = A.tensor(n, a)
                for b in range(F.base.dim(m)):
                    lhs: dict = {}
                    for o, c in F.base.compose_basis(n, i, m, a, b).items():
                        add_scaled(lhs, A.tensor(n + m - 1, o), c)
                    rhs = end_compose(fa, i, A.tensor(m, b), degrees)
                    if lhs != rhs:
                        witnesses.append(("morphism", n, i, m, a, b))
    if 1 in F.levels:
        ident = {(j, (j,)): 1 for j in range(A.space.dim)}
        img: dict = {}
        for a, c in F.base.unit_vector.items():
            add_scaled(img, A.tensor(1, a), c)
        if img != ident:
            witnesses.append(("unit",))
    morphism_ok = all(w[0] == "filtration" for w in witnesses)
    return FilteredAlgebraReport(filtration_ok, morphism_ok, witnesses)


# ---------------------------------------------------------------------------
# Moduli stand-in and the end-to-end pipeline


def moduli_chain_standin(max_arity: int) -> FilteredOperad:
    """Decorated-tree stand-in for the stratified chain operad.

    The component of arity n is the cobar construction on the Lie
    cooperad; a basis tree with e internal edges models a stratum of
    dimension n - 2 - e, which is both its complex degree and its
    filtration level.  Its q = 0 first-page slice is the middle row.
    """
    from .cobar import liec_cooperad, cobar_operad
    base = cobar_operad(liec_cooperad(max_arity), max_arity)
    return degree_filtration(base)


def commutative_toy_algebra(F: FilteredOperad,
                            space: GradedSpace, q: SparseMatrix,
                            m2: dict) -> FilteredAlgebraData:
    """mu for the stand-in: binary trees act by iterated products of a
    commutative associative m2 killed by no filtration constraint; all
    other decorated trees act by zero."""
    from .cobar import CobarOperad
    base = F.base
    if not isinstance(base, CobarOperad):
        raise FiltrationError("toy algebra expects the decorated-tree base")
    ident = {(j, (j,)): 1 for j in range(space.dim)}
    mu: dict = {}
    if 1 in base.components:
        mu[(1, 0)] = ident
    for n in base.arities():
        if n == 1:
            continue
        for a, (t, _) in enumerate(base.complexes[n].basis):
            if any(m != 2 for m in t.vertex_arities()):
                continue
            planar, leaves = _planar_product(t.shape, m2, ident, space.degrees)
            order = perm_inverse(leaves)  # slots by leaf label
            mu[(n, a)] = {(j, tuple(ins[p - 1] for p in order)): c
                          for (j, ins), c in planar.items()}
    return FilteredAlgebraData(space, q, mu)


def _planar_product(shape, m2: dict, ident: dict, degrees) -> tuple:
    """The iterated product m2 along a binary tree shape, children in
    their stored (min-leaf) order: its tensor, with slots in planar leaf
    order, and those leaves."""
    if isinstance(shape, int):
        return ident, (shape,)
    (left, ll), (right, rl) = (_planar_product(c, m2, ident, degrees)
                               for c in shape)
    return (end_compose(end_compose(m2, 2, right, degrees), 1, left, degrees),
            ll + rl)


class PipelineResult(namedtuple("PipelineResult",
                                "report family cinf_report")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.report.ok and self.cinf_report.ok


def induce_cinf(F: FilteredOperad, A: FilteredAlgebraData,
                max_arity: int) -> PipelineResult:
    """Check mu (filtration predicate and operad morphism, through
    max_arity), restrict the induced first-page algebra to the q = 0
    slice, read off m_n from identity-word corollas, and verify the
    relations through every arity where one can fail.

    A filtration violation raises FiltrationError; a failed morphism
    check or relation makes the result not ok."""
    from .cobar import CobarOperad
    from .treegraph import Tree
    base = F.base
    if not isinstance(base, CobarOperad):
        raise FiltrationError(
            "the pipeline needs the decorated-tree stand-in (middle-row "
            "identification unavailable otherwise)")
    report = check_filtered_algebra(F, A, max_arity=max_arity)
    if not report.filtration_ok:
        raise FiltrationError(
            f"mu violates the filtration: {report.witnesses[:3]}")
    maps = {}
    for n in range(2, max_arity + 1):
        # the corolla decorated by the identity word x_1..x_n
        word = tuple(range(1, n + 1))
        ident = base.cooperad.space(n).names.index("".join(map(str, word)))
        tensor = A.tensor(n, base.complexes[n].position(Tree(word), (ident,)))
        if tensor:
            maps[n] = tensor
    family = MapFamily(A.space, A.q, maps)
    return PipelineResult(report, family, check_cinf(family))
