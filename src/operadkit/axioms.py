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


class _Slots(dict):
    """A table whose slot is filled by ``fill(slot)`` on its first read."""
    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, slot):
        v = self[slot] = self.fill(slot)
        return v


def _stored(v: Vector, shared: dict) -> tuple:
    """A sparse vector as its (index, coeff) pairs, sorted, zeros
    dropped: the tuple in ``shared`` equal to it, put there if none is."""
    t = tuple(sorted((k, c) for k, c in v.items() if c))
    return shared.setdefault(t, t)


def _spread(xs, table, stride, off, sign=1):
    """The sum of sign * cx * table[x * stride + off] over the terms
    (x, cx) of xs, as sorted (index, coeff) pairs.  One term that scales
    by 1 is the table's tuple itself: nothing is copied."""
    if len(xs) == 1 and xs[0][1] * sign == 1:
        return table[xs[0][0] * stride + off]
    acc: Vector = {}
    for x, cx in xs:
        for out, c in table[x * stride + off]:
            addmul(acc, out, sign * cx * c)
    return tuple(sorted(acc.items()))


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

    Each basis composite is asked of the operad once per call: the
    first read of (n, i, m) fills its slab, slot a*dim O(m)+b, all of
    which the walk reads, from one ``compose_along`` table along
    (i, ..., i+m-1).  Each basis action is asked once, on first
    read, into one table per permutation, which the Coxeter relations
    and both equivariance checks share.  A slot holds its vector as
    sorted (index, coeff) pairs without zeros, one tuple for all equal
    slots.  A basis element times a basis element with coefficient 1 is
    that very tuple; only a sum of several terms, or a scaled one, is
    added up and sorted anew.  Loops fetch their slabs and tables once,
    compare the two sides as tuples and build a witness and its
    violation, sides as dicts, only when the sides differ.
    """
    arities = [n for n in O.arities() if n <= max_arity]
    dims = {n: O.dim(n) for n in arities}
    checked, shared = 0, {}  # shared: each distinct slot vector once
    slabs = _Slots(lambda key: [_stored(v, shared) for v in O.compose_along(
        key[0] + key[2] - 1, tuple(range(key[1], key[1] + key[2])))])
    actions = _Slots(lambda sigma: _Slots(
        lambda a: _stored(O.act_basis(len(sigma), sigma, a), shared)))

    def fail(found, *violation):
        if len(found) < max_violations:
            found.append(AxiomViolation(*violation))

    # (3) group action: adjacent transpositions satisfy the Coxeter
    # relations on each component, so checking both equivariance
    # identities on those generators certifies them for all of S_n.
    # Checked first, one arity at a time.  A relation is compared on one
    # basis vector at a time; its matrices are built only for a report.
    group: list[AxiomViolation] = []
    for n in arities:
        dim, gens = dims[n], [actions[g] for g in adjacent_transpositions(n)]

        def image(word, a):
            """e_a times the product of the generators in word."""
            xs = ((a, 1),)
            for t in reversed(word):
                xs = _spread(xs, gens[t], 1, 0)
            return xs

        def relation(witness, word, word2=()):
            nonlocal checked
            checked += 1
            if any(image(word, a) != image(word2, a) for a in range(dim)):
                fail(group, "3-group", (n,), witness, *(SparseMatrix(
                    dim, dim, [(out, a, c) for a in range(dim)
                               for out, c in image(w, a)])
                    for w in (word, word2)))

        for t in range(1, len(gens) + 1):
            relation(("s%d^2" % t,), (t - 1, t - 1))
            if t < len(gens):
                relation(("braid", t), (t - 1, t) * 3)
            for u in range(t + 1, len(gens)):
                relation(("commute", t, u + 1), (t - 1, u), (u, t - 1))

    # (1) disjoint and (2) nested slots, one walk per f o_i f'.  A right
    # side spreads f' o_j f'' over row a of slab (n, i, n'+n''-1), or
    # f o_j f'' over column b of slab (n+n''-1, i, n'), signed.
    walk: list[AxiomViolation] = []
    signs = {m: [-1 if O.degree(m, c) % 2 else 1 for c in range(dims[m])]
             for m in arities}
    for n, np in itertools.product(arities, arities):
        npps = [p for p in arities if n + np + p - 2 <= max_arity]
        if not npps:
            continue
        dnp = dims[np]
        for i in range(1, n + 1):
            first = slabs[n, i, np]
            for a, b in itertools.product(range(dims[n]), range(dnp)):
                fb, odd = first[a * dnp + b], O.degree(np, b) % 2
                for npp, k in itertools.product(npps, range(i, n + np)):
                    dpp, left = dims[npp], slabs[n + np - 1, k, npp]
                    if k < i + np:
                        axiom, j, sg, stride = "2", k - i + 1, [1] * dpp, 1
                        src, dst = slabs[np, j, npp], slabs[n, i, np + npp - 1]
                        base, off = b * dpp, a * dims[np + npp - 1]
                    else:
                        axiom, j, stride = "1", k - np + 1, dnp
                        sg = signs[npp] if odd else [1] * dpp
                        src, dst = slabs[n, j, npp], slabs[n + npp - 1, i, np]
                        base, off = a * dpp, b
                    for c in range(dpp):
                        lhs = _spread(fb, left, dpp, c)
                        rhs = _spread(src[base + c], dst, stride, off, sg[c])
                        if lhs != rhs:
                            fail(walk, axiom, (n, np, npp), (i, j, a, b, c),
                                 dict(lhs), dict(rhs))
                    checked += dpp

    # (3a) outer: (f.sigma) o_i g = (f o_k g).sigma' with k = sigma^-1(i);
    # (3b) inner: f o_i (g.tau) = (f o_i g).tau', where s_t of S_s acting
    # on the block at slot i is the generator tau' = s_{i-1+t}
    equivariance: list[AxiomViolation] = []
    for n, s in itertools.product(arities, arities):
        if n + s - 1 > max_arity:
            continue
        ds = dims[s]
        pairs = list(itertools.product(range(dims[n]), range(ds)))
        for sig in adjacent_transpositions(n):
            for i in range(1, n + 1):
                k = perm_inverse(sig)[i - 1]
                act, big = actions[sig], actions[expand_perm(sig, k, s)]
                at_i, at_k = slabs[n, i, s], slabs[n, k, s]
                for a, b in pairs:
                    lhs = _spread(act[a], at_i, ds, b)
                    rhs = _spread(at_k[a * ds + b], big, 1, 0)
                    if lhs != rhs:
                        fail(equivariance, "3a", (n, s), (sig, i, a, b),
                             dict(lhs), dict(rhs))
                checked += len(pairs)
        gens = adjacent_transpositions(n + s - 1)
        for t, tau in enumerate(adjacent_transpositions(s), 1):
            for i in range(1, n + 1):
                act, block = actions[tau], actions[gens[i + t - 2]]
                at_i = slabs[n, i, s]
                for a, b in pairs:
                    lhs = _spread(act[b], at_i, 1, a * ds)
                    rhs = _spread(at_i[a * ds + b], block, 1, 0)
                    if lhs != rhs:
                        fail(equivariance, "3b", (n, s), (tau, i, a, b),
                             dict(lhs), dict(rhs))
                checked += len(pairs)

    # (4) unit laws
    units: list[AxiomViolation] = []
    unit = _stored(O.unit_vector, shared)
    for n in arities if 1 in dims else ():
        dn = dims[n]
        for a in range(dn):
            ea = ((a, 1),)
            lhs = _spread(unit, slabs[1, 1, n], dn, a)
            if lhs != ea:
                fail(units, "4", (n,), ("I o f", a), dict(lhs), {a: 1})
            for i in range(1, n + 1):
                lhs = _spread(unit, slabs[n, i, 1], 1, a * dims[1])
                if lhs != ea:
                    fail(units, "4", (n,), ("f o_i I", a, i), dict(lhs),
                         {a: 1})
        checked += dn * (n + 1)
    violations = (walk + group + equivariance + units)[:max_violations]
    return AxiomReport(max_arity, checked, violations)
