"""The operad axiom checker: exhaustive verification on basis elements.

``check_axioms`` walks the associativity, equivariance and unit axioms
of any ``GradedOperad`` and reports each failure with its witness.  It
lives apart from ``operads`` so that only the callers that check axioms
compile it; ``operads`` still exports its names.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .operads import (GradedOperad, Vector, adjacent_transpositions,
                      expand_perm, perm_inverse)
from .qlinalg import SparseMatrix, addmul, format_vector


class AxiomViolation(namedtuple("AxiomViolation",
                                "axiom arities witness lhs rhs")):
    __slots__ = ()

    def __str__(self):
        lhs, rhs = (format_vector(x) if isinstance(x, dict) else str(x)
                    for x in (self.lhs, self.rhs))
        return (f"axiom {self.axiom} fails at arities {self.arities}, "
                f"witness {self.witness}: {lhs} != {rhs}")


class AxiomReport(namedtuple("AxiomReport", "max_arity checked violations")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def check_axioms(O: GradedOperad, max_arity: int,
                 max_violations: int = 100) -> AxiomReport:
    """Exhaustively verify the operad axioms on basis elements.

    Checks, for all arities whose composites stay within max_arity, the
    two associativity axioms of partial composition, both equivariance
    identities and the unit laws.  Violations are report entries, not
    exceptions, listed axiom by axiom: associativity, group relations,
    equivariance, units.

    The associativity axioms are one walk.  For each f o_i f' (arities
    n, n') the element f'' goes into every slot k = i..n+n'-1 of the
    composite.  A slot k < i+n' lies in f' (axiom "2", nested):
    (f o_i f') o_k f'' = f o_i (f' o_j f'') with j = k-i+1.  A later slot
    came from slot j = k-n'+1 > i of f (axiom "1", disjoint):
    (f o_i f') o_k f'' = (-1)^{|f'||f''|} (f o_j f'') o_i f'.

    Each basis composite is computed once per call.  The walk at n = 1
    already reads every composite, so a table kept for less than the
    call would only compute them again.  The table holds one slot per
    (a, b) for each (n, i, m), and a composite as its (index, coeff)
    pairs.  Basis actions are kept the same way, one table for the
    call, read by the group relations and by both sides of both
    equivariance checks: each generator action is asked of the operad
    once, and the outer check's relabelling is the same for most slots
    i.  In the inner check, s_t of S_s acting on the block at slot i is
    the generator s_{i-1+t} of the composite's arity.
    """
    arities = [n for n in O.arities() if n <= max_arity]
    dims = {n: O.dim(n) for n in arities}
    checked = 0
    # e[a] is the basis element a as (index, coeff) pairs
    e = [((x, 1),) for x in range(max(dims.values(), default=0))]
    slabs: dict = {}    # (n, i, m) -> (dim O(m), slots), slot a*dim+b
    actions: dict = {}  # sigma -> slots over the basis of O(len(sigma))

    def composite(n, i, m, a, b):
        """O.compose_basis(n, i, m, a, b) as (index, coeff) pairs."""
        slab = slabs.get((n, i, m))
        if slab is None:
            slab = slabs[n, i, m] = (O.dim(m), [None] * (O.dim(n) * O.dim(m)))
        dm, slots = slab
        v = slots[a * dm + b]
        if v is None:
            v = O.compose_basis(n, i, m, a, b)
            v = slots[a * dm + b] = tuple(v.items())
        return v

    def compose(n, i, m, xs, ys):
        """x o_i y for x, y given as (basis index, coeff) pairs."""
        acc: Vector = {}
        for a, ca in xs:
            for b, cb in ys:
                for out, c in composite(n, i, m, a, b):
                    addmul(acc, out, ca * cb * c)
        return acc

    def action(sigma, a):
        """O.act_basis(len(sigma), sigma, a) as (index, coeff) pairs."""
        slots = actions.get(sigma)
        if slots is None:
            slots = actions[sigma] = [None] * O.dim(len(sigma))
        v = slots[a]
        if v is None:
            v = slots[a] = tuple(O.act_basis(len(sigma), sigma, a).items())
        return v

    def act(sigma, xs):
        """x.sigma for x given as (basis index, coeff) pairs."""
        acc: Vector = {}
        for a, ca in xs:
            for out, c in action(sigma, a):
                addmul(acc, out, ca * c)
        return acc

    def check(found, axiom, ar, witness, lhs, rhs):
        nonlocal checked
        checked += 1
        if lhs != rhs and len(found) < max_violations:
            found.append(AxiomViolation(axiom, ar, witness, lhs, rhs))

    # (3) group action: adjacent transpositions satisfy the Coxeter
    # relations on each component, so checking both equivariance
    # identities on those generators certifies them for all of S_n.
    # Checked first, one arity per call.  A relation is compared on one
    # basis vector at a time; its matrices are built only for a report.
    group: list[AxiomViolation] = []

    def check_group(n):
        dim = dims[n]
        gens = adjacent_transpositions(n)

        def image(word, a):
            """e_a times the product of the generators in word."""
            xs = e[a]
            for t in reversed(word):
                xs = act(gens[t], xs).items()
            return dict(xs)

        def relation(witness, word, word2=()):
            lhs = rhs = None
            if any(image(word, a) != image(word2, a) for a in range(dim)):
                lhs, rhs = (SparseMatrix(dim, dim, [
                    (out, a, c) for a in range(dim)
                    for out, c in image(w, a).items()]) for w in (word, word2))
            check(group, "3-group", (n,), witness, lhs, rhs)

        for t in range(1, len(gens) + 1):
            relation(("s%d^2" % t,), (t - 1, t - 1))
            if t < len(gens):
                relation(("braid", t), (t - 1, t) * 3)
            for u in range(t + 1, len(gens)):
                relation(("commute", t, u + 1), (t - 1, u), (u, t - 1))

    for n in arities:
        check_group(n)

    # (1) disjoint and (2) nested slots, one walk per f o_i f'
    walk: list[AxiomViolation] = []
    for n, np in itertools.product(arities, arities):
        npps = [p for p in arities if n + np + p - 2 <= max_arity]
        if not npps:
            continue
        for i, a, b in itertools.product(range(1, n + 1), range(dims[n]),
                                         range(dims[np])):
            fb = composite(n, i, np, a, b)
            for npp, k in itertools.product(npps, range(i, n + np)):
                for c in range(dims[npp]):
                    lhs = compose(n + np - 1, k, npp, fb, e[c])
                    if k < i + np:
                        axiom, j = "2", k - i + 1
                        rhs = compose(n, i, np + npp - 1, e[a],
                                      composite(np, j, npp, b, c))
                    else:
                        axiom, j = "1", k - np + 1
                        odd = O.degree(np, b) * O.degree(npp, c) % 2
                        rhs = compose(n + npp - 1, i, np,
                                      composite(n, j, npp, a, c),
                                      ((b, -1 if odd else 1),))
                    check(walk, axiom, (n, np, npp), (i, j, a, b, c),
                          lhs, rhs)

    # (3a) outer: (f.sigma) o_i g = (f o_k g).sigma' with k = sigma^-1(i);
    # (3b) inner: f o_i (g.tau) = (f o_i g).tau', tau' = s_{i-1+t} for
    # tau = s_t
    equivariance: list[AxiomViolation] = []
    for n, s in itertools.product(arities, arities):
        if n + s - 1 > max_arity:
            continue
        pairs = list(itertools.product(range(dims[n]), range(dims[s])))
        for sig in adjacent_transpositions(n):
            for i in range(1, n + 1):
                k = perm_inverse(sig)[i - 1]
                big = expand_perm(sig, k, s)
                for a, b in pairs:
                    rhs = act(big, composite(n, k, s, a, b))
                    check(equivariance, "3a", (n, s), (sig, i, a, b),
                          compose(n, i, s, action(sig, a), e[b]), rhs)
        gens = adjacent_transpositions(n + s - 1)
        for t, tau in enumerate(adjacent_transpositions(s), 1):
            for i in range(1, n + 1):
                for a, b in pairs:
                    rhs = act(gens[i + t - 2], composite(n, i, s, a, b))
                    check(equivariance, "3b", (n, s), (tau, i, a, b),
                          compose(n, i, s, e[a], action(tau, b)), rhs)

    # (4) unit laws
    units: list[AxiomViolation] = []
    if 1 in dims:
        unit = O.unit_vector.items()
        for n in arities:
            for a in range(dims[n]):
                ea = {a: 1}
                check(units, "4", (n,), ("I o f", a),
                      compose(1, 1, n, unit, e[a]), ea)
                for i in range(1, n + 1):
                    check(units, "4", (n,), ("f o_i I", a, i),
                          compose(n, i, 1, e[a], unit), ea)
    violations = (walk + group + equivariance + units)[:max_violations]
    return AxiomReport(max_arity, checked, violations)
