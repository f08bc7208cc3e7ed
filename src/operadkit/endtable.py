"""End_V operads, table operads and the operad JSON document, kept out
of ``operads`` (which exports their names) so that only the commands
that use them compile them.

A table operad and its document hold the S_n action of each arity as
n - 1 records, one per adjacent transposition; every other permutation
acts through them.  The reader still takes a record for any other
permutation, as older documents hold one for each, but refuses one that
disagrees with its generators and does not keep one that agrees."""

from __future__ import annotations

import itertools

from .operads import (GradedOperad, GradedSpace, OperadError,
                      adjacent_transpositions, check_differential,
                      end_compose, end_differential, int_keyed, koszul_sign,
                      parse_coefficient, perm_inverse, put_once,
                      read_document)
from .qlinalg import SparseMatrix, add_scaled, format_vector


class EndOperad(GradedOperad):
    """End_V(n) = Hom(V^n, V) for a small graded space V.

    Basis elements are (output, input tuple) pairs, composed by
    ``end_compose``; the action permutes inputs with Koszul signs.  When
    a differential Q on V is supplied, each component carries
    ``end_differential``.  Components hold at most 20,000 basis elements.
    """

    def __init__(self, V: GradedSpace, max_arity: int,
                 q: SparseMatrix | None = None):
        if V.dim > 4:
            raise OperadError("endomorphism operads are desk scale: dim V <= 4")
        self.V = V
        self.q = q
        if q is not None:
            check_differential(V, q, OperadError)
        self._basis = {}
        self._bindex = {}
        components = {}
        d = V.dim
        for n in range(1, max_arity + 1):
            if d ** (n + 1) > 20000:
                raise OperadError(
                    f"End component at arity {n} exceeds dimension cap")
            basis = [(j, ins) for j in range(d)
                     for ins in itertools.product(range(d), repeat=n)]
            self._basis[n] = basis
            self._bindex[n] = {b: k for k, b in enumerate(basis)}
            names = tuple(
                f"f[{V.names[j]}|{','.join(V.names[i] for i in ins)}]"
                for j, ins in basis)
            degrees = tuple(
                V.degrees[j] - sum(V.degrees[i] for i in ins)
                for j, ins in basis)
            components[n] = GradedSpace(names, degrees)
        unit = {self._bindex[1][(j, (j,))]: 1 for j in range(d)}
        diffs = {}
        if q is not None:
            for n, basis in self._basis.items():
                index = self._bindex[n]
                diffs[n] = SparseMatrix(len(basis), len(basis), [
                    (index[key], col, c) for col, b in enumerate(basis)
                    for key, c in end_differential({b: 1}, q,
                                                   V.degrees).items()])
        super().__init__(components, unit, diffs)

    def compose_basis(self, n, i, m, a, b):
        index = self._bindex[n + m - 1]
        return {index[key]: c for key, c in end_compose(
            {self._basis[n][a]: 1}, i, {self._basis[m][b]: 1},
            self.V.degrees).items()}

    def act_basis(self, n, sigma, a):
        j, ins = self._basis[n][a]
        # (f.sigma) is supported on the tuple c with c_{sigma(t)} = ins_t
        c = tuple(ins[t - 1] for t in perm_inverse(sigma))
        degs = tuple(self.V.degrees[x] for x in c)
        sign = koszul_sign(sigma, degs)
        return {self._bindex[n][(j, c)]: sign}


class TableOperad(GradedOperad):
    """An operad given by explicit sparse tables: a composition table for
    every (n, i, m) and an action record for each adjacent transposition
    s_1..s_{n-1} of each arity, from which ``act`` derives the rest of
    S_n.  ``check_axioms`` certifies those records through the Coxeter
    relations, so every action served follows from checked data."""

    def __init__(self, components, unit_vector, compositions, actions,
                 differentials=None):
        super().__init__(components, unit_vector, differentials)
        self._comp = compositions  # (n, i, m) -> {(a, b): {out: coeff}}
        self._act = actions        # (n, sigma) -> {a: {out: coeff}}
        self._words = {}           # (n, sigma) -> the records it acts by

    @classmethod
    def from_operad(cls, O: GradedOperad, max_arity: int) -> "TableOperad":
        components = {n: O.space(n) for n in O.arities() if n <= max_arity}
        comp = {}
        for n in components:
            for m in components:
                if n + m - 1 not in components:
                    continue
                for i in range(1, n + 1):
                    # o_i is composition along i..i + m - 1, a-major
                    out = O.compose_along(n + m - 1, tuple(range(i, i + m)))
                    comp[(n, i, m)] = {divmod(k, O.dim(m)): dict(v)
                                       for k, v in enumerate(out) if v}
        act = {(n, sigma): {a: dict(O.act_basis(n, sigma, a))
                            for a in range(O.dim(n))}
               for n in components for sigma in adjacent_transpositions(n)}
        diffs = {n: O.differentials[n] for n in O.differentials
                 if n <= max_arity}
        return cls(components, dict(O.unit_vector), comp, act, diffs)

    def compose_basis(self, n, i, m, a, b):
        return self._comp.get((n, i, m), {}).get((a, b), {})

    def act_basis(self, n, sigma, a):
        """a.sigma, which is ``act`` on the basis vector of a."""
        return self.act(n, sigma, {a: 1})

    def act(self, n, sigma, x):
        """x.sigma from the action records, which for a table operad are
        those of the adjacent transpositions alone.  A permutation with no
        record peels: at a descent t of sigma, x acts by s_t and then by
        sigma with entries t and t + 1 swapped, which has one inversion
        fewer; the identity acts trivially.  Each (n, sigma) is peeled
        once, into the word of records it acts by, at most one per
        inversion of sigma."""
        word = self._words.get((n, sigma))
        if word is None:
            word = self._words[(n, sigma)] = []
            while (n, sigma) not in self._act:
                t = next((t for t in range(1, n)
                          if sigma[t - 1] > sigma[t]), 0)
                if not t:
                    break
                word.append((n, adjacent_transpositions(n)[t - 1]))
                sigma = sigma[:t - 1] + (sigma[t], sigma[t - 1]) + sigma[t + 1:]
            else:
                word.append((n, sigma))
        for key in word:
            table, acc = self._act[key], {}
            for b, cb in x.items():
                add_scaled(acc, table.get(b, {}), cb)
            x = acc
        return x if word else dict(x)

    def with_corrupted_composition(self, n, i, m, a, b,
                                   scale=-1) -> "TableOperad":
        """Return a copy with one composition entry rescaled (fault
        injection for axiom-checker tests)."""
        comp = {key: {k: dict(v) for k, v in tab.items()}
                for key, tab in self._comp.items()}
        entry = comp[(n, i, m)][(a, b)]
        comp[(n, i, m)][(a, b)] = {k: v * scale for k, v in entry.items()}
        return TableOperad(self.components, self.unit_vector, comp, self._act,
                           self.differentials)


def operad_document(O: GradedOperad, max_arity: int) -> dict:
    """The JSON document of components, compositions and actions, as a
    dict.

    Coefficients are encoded as "p/q" strings; compositions are sparse
    triples (a, b, out, coeff).
    """
    T = O if isinstance(O, TableOperad) else TableOperad.from_operad(O, max_arity)
    return {
        "format": "operadkit-operad",
        "version": 1,
        "components": {
            str(n): {"names": list(sp.names), "degrees": list(sp.degrees)}
            for n, sp in T.components.items()},
        "unit": {str(k): str(v) for k, v in T.unit_vector.items()},
        "compositions": [
            {"n": n, "i": i, "m": m,
             "entries": [[a, b, out, str(c)]
                         for (a, b), vec in sorted(tab.items())
                         for out, c in sorted(vec.items())]}
            for (n, i, m), tab in sorted(T._comp.items())],
        "actions": [
            {"n": n, "sigma": list(sigma),
             "entries": [[a, out, str(c)]
                         for a, vec in sorted(tab.items())
                         for out, c in sorted(vec.items())]}
            for (n, sigma), tab in sorted(T._act.items())],
        "differentials": {
            str(n): [[r, c, str(v)] for r, c, v in d.entries()]
            for n, d in sorted(T.differentials.items())},
    }


def operad_to_json(O: GradedOperad, max_arity: int) -> str:
    """The operad's JSON document (``operad_document``) as text."""
    import json
    return json.dumps(operad_document(O, max_arity), indent=1)


def operad_from_doc(doc: dict) -> TableOperad:
    """The table operad of a parsed operad document; every table index
    must lie in its component, every arity needs the action of each
    adjacent transposition, and a missing table entry is zero.  A
    composition record must name components and a slot in 1..n, and no
    composition or action record, table cell or arity key may repeat
    one read before it.  An action or differential record must name a
    component.  Only the adjacent transpositions' action records are
    kept; a record for any other permutation must equal, zeros dropped,
    the action its generators give, and is then dropped."""
    components = {
        n: GradedSpace(tuple(sp["names"]), tuple(sp["degrees"]))
        for n, sp in int_keyed(doc["components"], "components: arity").items()}
    dims = {n: sp.dim for n, sp in components.items()}

    def index(n, x):
        if type(x) is not int or not 0 <= x < dims.get(n, 0):
            raise OperadError(f"index {x!r} outside the arity-{n} component")
        return x

    unit = {index(1, k): parse_coefficient(v)
            for k, v in int_keyed(doc["unit"], "unit: index").items()}
    comp = {}
    for rec in doc["compositions"]:
        key = n, i, m = rec["n"], rec["i"], rec["m"]
        name = f"composition record (n, i, m) = {key}"
        for k in (n, m, n + m - 1):
            if k not in dims:
                raise OperadError(f"{name}: no arity-{k} component")
        if not 1 <= i <= n:
            raise OperadError(f"{name}: slot {i} outside 1..{n}")
        if key in comp:
            raise OperadError(f"{name} appears twice")
        tab = {}
        for a, b, out, c in rec["entries"]:
            put_once(tab.setdefault((index(n, a), index(m, b)), {}),
                     index(n + m - 1, out), parse_coefficient(c),
                     f"{name}: cell ({a}, {b}) ->")
        comp[key] = tab
    act = {}
    for rec in doc["actions"]:
        n = rec["n"]
        if n not in dims:
            raise OperadError(f"action record (n, sigma) = ({n}, "
                              f"{rec['sigma']}): no arity-{n} component")
        if sorted(rec["sigma"]) != list(range(1, n + 1)):
            raise OperadError(f"sigma {rec['sigma']!r} is not a permutation "
                              f"of 1..{n}")
        key = (n, tuple(rec["sigma"]))
        if key in act:
            raise OperadError(f"action record (n, sigma) = ({n}, "
                              f"{rec['sigma']}) appears twice")
        tab = {}
        for a, out, c in rec["entries"]:
            put_once(tab.setdefault(index(n, a), {}), index(n, out),
                     parse_coefficient(c), f"action record (n, sigma) = "
                     f"({n}, {rec['sigma']}): cell {a} ->")
        act[key] = tab
    gens = {}
    for n in components:
        for sigma in adjacent_transpositions(n):
            if (n, sigma) not in act:
                raise OperadError(f"no action table for {list(sigma)} "
                                  f"at arity {n}")
            gens[(n, sigma)] = act.pop((n, sigma))
    diffs = {}
    for n, entries in int_keyed(doc.get("differentials", {}),
                                "differentials: arity").items():
        if n not in dims:
            raise OperadError(f"differential record n = {n}: no arity-{n} "
                              "component")
        size = dims[n]
        diffs[n] = SparseMatrix(
            size, size, [(r, c, parse_coefficient(v)) for r, c, v in entries])
    # Any other record is checked, then dropped.  Undoing sigma's first
    # descent gives a permutation that sorts before sigma, so each record
    # is compared with one generator followed by a record checked before.
    checked = TableOperad(components, unit, comp, dict(gens))
    for (n, sigma), tab in sorted(act.items()):
        for a in range(dims[n]):
            got = {k: v for k, v in tab.get(a, {}).items() if v}
            want = checked.act_basis(n, sigma, a)
            if got != want:
                raise OperadError(
                    f"action record (n, sigma) = ({n}, {list(sigma)}) "
                    f"disagrees with its adjacent transpositions at basis "
                    f"element {a}: {format_vector(got)} against "
                    f"{format_vector(want)}")
        checked._act[(n, sigma)] = tab
    return TableOperad(components, unit, comp, gens, diffs)


def operad_from_json(text: str) -> TableOperad:
    return read_document(text, "operadkit-operad", OperadError,
                         operad_from_doc)
