"""Homotopy-associative and homotopy-commutative structure checking.

A MapFamily packages a finite-dimensional complex (V, Q) with n-ary
operations m_n of degree n - 2, each a multilinear map tensor in End_V.
The arity-n relation is

  D(m_n) = sum_{r+s=n+1, 1<=k<=r, 2<=r<n} (-1)^{k(s-1)+sn} m_r o_k m_s

with D the Hom differential Q o f - (-1)^{|f|} sum_k f o_k Q and o_k the
partial composition of End_V; ``operads.end_differential`` and
``operads.end_compose`` carry every sign.  The checker forms the defect,
left side minus right side, as one tensor per arity and reports its
nonzero values grouped by input tuple.  The commutative refinement
additionally requires each m_n to kill every (p, q)-shuffle sum, with
shuffle signs computed from degrees shifted by one.  Those sums live on
the suspension sV, so m_n is first suspended: its entry at the input
word (a_1, ..., a_n) is weighted by the decalage sign
(-1)^(sum_i (n - i)|a_i|) (``operads.decalage_sign``).  On a strict
graded-commutative algebra, such as H*(S^1) = Lambda(x) with x odd, the
suspended product kills the (1, 1)-shuffles exactly because
m2(a, b) = (-1)^(|a||b|) m2(b, a).

In bar terms, the family is A-infinity iff the coderivation b of the
tensor coalgebra on sV with b_1 = s Q s^-1 and

  b_n = eps_n s m_n (s^-1)^(tensor n),  eps_n = (-1)^(n(n-1)/2),

squares to zero.  With this eps_n, s^-1 (b o b) s^(tensor n) on words
of length n is the arity-n defect above, value for value, and b_n on a
shuffle product is the suspended m_n on the shuffle sum; a transferred
structure must meet the same convention.  The tests build b from the
m_n alone and check both against it through arity 5.
"""

from __future__ import annotations

from collections import namedtuple

from . import InputError
from .qlinalg import (SparseMatrix, add_scaled, addmul, as_exact,
                      format_vector)
from .operads import (GradedSpace, check_differential, decalage_sign,
                      end_compose, end_differential, int_keyed,
                      koszul_sign, parse_coefficient, perm_inverse,
                      put_once, read_document, shuffles)


class HoalgError(InputError):
    pass


Tensor = dict  # (out, in_tuple) -> int | Fraction (int when integral)


class MapFamily:
    """A complex with multilinear operations m_n of degree n - 2."""

    def __init__(self, space: GradedSpace, q: SparseMatrix,
                 maps: dict[int, Tensor]):
        check_differential(space, q, HoalgError)
        for n, tensor in maps.items():
            if n < 2:
                raise HoalgError("operations start at arity 2")
            for (out, ins), coeff in tensor.items():
                if len(ins) != n:
                    raise HoalgError(f"m_{n} entry with {len(ins)} inputs")
                if not coeff:
                    continue
                if not all(0 <= i < space.dim for i in (out, *ins)):
                    raise HoalgError(
                        f"m_{n} entry {out, ins} indexes outside V")
                deg = space.degrees[out] - sum(space.degrees[i] for i in ins)
                if deg != n - 2:
                    raise HoalgError(
                        f"m_{n} entry {out, ins} has degree {deg}, "
                        f"expected {n - 2}")
        self.space = space
        self.q = q
        self.maps = {n: {k: as_exact(v) for k, v in t.items() if v}
                     for n, t in maps.items()}

    @property
    def last_relation(self) -> int:
        """2 top - 1, top the highest arity of an operation: the terms
        m_r o m_s of the arity-n relation have r + s = n + 1, so above
        this arity every term is zero and no relation can fail."""
        return 2 * max(self.maps, default=1) - 1


class AinfResidual(namedtuple("AinfResidual", "n inputs defect")):
    """One failing instance of the homotopy-associativity relation: the
    arity, the input tuple and the defect {out: coeff}."""

    __slots__ = ()

    def __str__(self):
        return (f"arity {self.n} relation fails on {self.inputs}: "
                f"defect {format_vector(self.defect)}")


class CinfReport(namedtuple("CinfReport", "ainf_residuals shuffle_violations")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.ainf_residuals and not self.shuffle_violations


def _defect_tensor(f: MapFamily, n: int) -> Tensor:
    """Left side minus right side of the arity-n relation, as a tensor;
    only the pairs (r, s) with both m_r and m_s are walked."""
    degs, m = f.space.degrees, f.maps
    defect = end_differential(m.get(n, {}), f.q, degs)
    for r in range(2, n):
        s = n + 1 - r
        if m.get(r) and m.get(s):
            for k in range(1, r + 1):
                add_scaled(defect, end_compose(m[r], k, m[s], degs),
                           -(-1) ** (k * (s - 1) + s * n))
    return defect


def _group_by_input(tensor: Tensor) -> dict[tuple[int, ...], dict]:
    """A tensor as {in_tuple: {out: coeff}}, both keys ascending."""
    out: dict = {}
    for (o, ins), c in sorted(tensor.items(), key=lambda e: (e[0][1], e[0][0])):
        out.setdefault(ins, {})[o] = c
    return out


def check_ainf(f: MapFamily, N: int | None = None) -> list[AinfResidual]:
    """All failing relation instances for 2 <= n <= N, by arity and then
    by input tuple; empty iff the family is homotopy associative through
    arity N.  Only arities through ``f.last_relation``, the last that
    can fail, are walked, which is also the default N."""
    N = f.last_relation if N is None else min(N, f.last_relation)
    return [AinfResidual(n, ins, defect) for n in range(2, N + 1)
            for ins, defect in _group_by_input(_defect_tensor(f, n)).items()]


def shuffle_defects(f: MapFamily, n: int) -> list:
    """The suspended m_n applied to every (p, q)-shuffle sum of basis
    tuples, with shuffle signs from degrees shifted by one: (n, p, q,
    ins, {out: coeff}) for each nonzero sum, by p and then by input
    tuple.  An arity with no operation has none: a sum of zero maps
    is zero, so its shuffles are not walked."""
    mn = f.maps.get(n)
    if not mn:
        return []
    degs = f.space.degrees
    suspended = {(o, word): decalage_sign(tuple(degs[x] for x in word)) * c
                 for (o, word), c in mn.items()}
    out = []
    for p in range(1, n):
        acc: Tensor = {}
        for sh in shuffles(p, n - p):
            inv = perm_inverse(sh)
            for (o, word), c in suspended.items():
                # word is ins shuffled: word[k] = ins[sh[k] - 1]
                ins = tuple(word[j - 1] for j in inv)
                shifted = tuple(degs[x] + 1 for x in ins)
                addmul(acc, (o, ins), koszul_sign(sh, shifted) * c)
        out.extend((n, p, n - p, ins, defect)
                   for ins, defect in _group_by_input(acc).items())
    return out


def check_cinf(f: MapFamily, N: int | None = None) -> CinfReport:
    """Homotopy associativity plus vanishing on all shuffle sums, through
    arity N; as in ``check_ainf``, no arity past ``f.last_relation`` is
    walked."""
    N = f.last_relation if N is None else min(N, f.last_relation)
    return CinfReport(check_ainf(f, N), [v for n in range(2, N + 1)
                                         for v in shuffle_defects(f, n)])


# ---------------------------------------------------------------------------
# JSON ingestion


def map_family_to_json(f: MapFamily) -> str:
    import json
    return json.dumps({
        "format": "operadkit-mapfamily",
        "version": 1,
        "names": list(f.space.names),
        "degrees": list(f.space.degrees),
        "q": [[r, c, str(v)] for r, c, v in f.q.entries()],
        "maps": {str(n): [[out, list(ins), str(c)]
                          for (out, ins), c in sorted(t.items())]
                 for n, t in f.maps.items()},
    }, indent=1)


def map_family_from_json(text: str) -> MapFamily:
    def parse(doc):
        space = GradedSpace(tuple(doc["names"]), tuple(doc["degrees"]))
        q = SparseMatrix(space.dim, space.dim,
                         [(r, c, parse_coefficient(v)) for r, c, v in doc["q"]])
        maps: dict = {}
        for n, entries in int_keyed(doc["maps"], "maps: arity").items():
            tensor = maps[n] = {}
            for out, ins, c in entries:
                put_once(tensor, (out, tuple(ins)), parse_coefficient(c),
                         f"m_{n} entry")
        return MapFamily(space, q, maps)
    return read_document(text, "operadkit-mapfamily", HoalgError, parse)


def truncated_polynomial_family(dim: int = 3) -> MapFamily:
    """k[x]/(x^dim) in degree 0 with the product: associative and
    commutative, hence passes every check."""
    names = tuple(f"x{k}" for k in range(dim))
    space = GradedSpace(names, (0,) * dim)
    q = SparseMatrix.zero(dim, dim)
    m2 = {(a + b, (a, b)): 1 for a in range(dim) for b in range(dim - a)}
    return MapFamily(space, q, {2: m2})
