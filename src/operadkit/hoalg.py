"""Homotopy-associative and homotopy-commutative structure checking.

A MapFamily packages a finite-dimensional complex (V, Q) with n-ary
operations m_n of degree n - 2.  The checker evaluates the relation

  Q(m_n(v)) - (-1)^n sum_k (-1)^{eps(k)} m_n(v_1,..,Q v_k,..,v_n)
    = sum_{r+s=n+1, 1<=k<=r, 2<=r<n} (-1)^{k(s-1)+sn} (m_r o_k m_s)(v)

on every basis tuple; eps(k) is the Koszul sign of sliding Q (degree 1
in the shifted sense) through v_1..v_{k-1}, and m_r o_k m_s slides m_s
(degree s - 2) the same way.  The commutative refinement additionally
requires each m_n to kill every (p, q)-shuffle sum, with shuffle signs
computed from degrees shifted by one.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .qlinalg import SparseMatrix, add_scaled, as_exact, format_vector
from .operads import GradedSpace, koszul_sign
from .cobar import shuffles


class HoalgError(ValueError):
    pass


Tensor = dict  # (out, in_tuple) -> int | Fraction (int when integral)


class MapFamily:
    """A complex with multilinear operations m_n of degree n - 2."""

    def __init__(self, space: GradedSpace, q: SparseMatrix,
                 maps: dict[int, Tensor]):
        if q.rows != space.dim or q.cols != space.dim:
            raise HoalgError("Q must be square of size dim V")
        for r, c, v in q.entries():
            if space.degrees[r] != space.degrees[c] - 1:
                raise HoalgError(
                    f"Q entry ({r},{c}) violates degree -1")
        if not q.matmul(q).is_zero():
            raise HoalgError("Q squared is nonzero")
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
        # m_n by input tuple, outputs ascending: {n: {ins: {out: coeff}}}
        self._by_input = {}
        for n, t in self.maps.items():
            by_input = self._by_input[n] = {}
            for (out, ins), c in sorted(t.items()):
                by_input.setdefault(ins, {})[out] = c

    def arity_bound(self) -> int:
        return max(self.maps, default=1)

    def apply(self, n: int, ins: tuple[int, ...]) -> dict[int, Fraction]:
        """m_n on a tuple of basis vectors, by ascending output index."""
        return dict(self._by_input.get(n, {}).get(ins, {}))

    def apply_q(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        return self.q.apply(vec)


@dataclass
class AinfResidual:
    """One failing instance of the homotopy-associativity relation."""

    n: int
    inputs: tuple[int, ...]
    defect: dict[int, Fraction]

    def __str__(self):
        return (f"arity {self.n} relation fails on {self.inputs}: "
                f"defect {format_vector(self.defect)}")


@dataclass
class CinfReport:
    ainf_residuals: list = field(default_factory=list)
    shuffle_violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.ainf_residuals and not self.shuffle_violations


def _inner_composite(f: MapFamily, r: int, s: int, k: int,
                     ins: tuple[int, ...]) -> dict[int, Fraction]:
    """(m_r o_k m_s)(basis tuple), with the sliding sign of m_s."""
    degs = f.space.degrees
    slide = sum(degs[i] for i in ins[: k - 1])
    sign = -1 if ((s - 2) % 2 and slide % 2) else 1
    inner = f.apply(s, ins[k - 1: k - 1 + s])
    out: dict[int, Fraction] = {}
    for mid, c in inner.items():
        outer_ins = ins[: k - 1] + (mid,) + ins[k - 1 + s:]
        add_scaled(out, f.apply(r, outer_ins), sign * c)
    return out


def ainf_defect(f: MapFamily, n: int,
                ins: tuple[int, ...]) -> dict[int, Fraction]:
    """LHS minus RHS of the arity-n relation on one basis tuple."""
    degs = f.space.degrees
    lhs = f.apply_q(f.apply(n, ins))
    outer = (-1) ** n
    for k in range(1, n + 1):
        eps = sum(degs[i] for i in ins[: k - 1])
        sign = outer * (-1 if eps % 2 else 1)
        for b, qc in f.q.col(ins[k - 1]).items():
            new_ins = ins[: k - 1] + (b,) + ins[k:]
            add_scaled(lhs, f.apply(n, new_ins), -sign * qc)
    rhs: dict[int, Fraction] = {}
    for r in range(2, n):
        s = n + 1 - r
        for k in range(1, r + 1):
            sign = (-1) ** (k * (s - 1) + s * n)
            add_scaled(rhs, _inner_composite(f, r, s, k, ins), sign)
    add_scaled(lhs, rhs, -1)
    return lhs


def check_ainf(f: MapFamily, N: int | None = None) -> list[AinfResidual]:
    """All failing relation instances for 2 <= n <= N; empty iff the
    family is homotopy associative through arity N."""
    if N is None:
        N = f.arity_bound()
    dim = f.space.dim
    out = []
    for n in range(2, N + 1):
        for ins in itertools.product(range(dim), repeat=n):
            defect = ainf_defect(f, n, ins)
            if defect:
                out.append(AinfResidual(n, ins, defect))
    return out


def shuffle_defects(f: MapFamily, n: int) -> list:
    """m_n applied to every (p, q)-shuffle sum of basis tuples, with
    shuffle signs from degrees shifted by one."""
    dim = f.space.dim
    degs = f.space.degrees
    out = []
    for p in range(1, n):
        q = n - p
        shs = list(shuffles(p, q))
        for ins in itertools.product(range(dim), repeat=n):
            shifted = tuple(degs[i] + 1 for i in ins)
            acc: dict[int, Fraction] = {}
            for sh in shs:
                word = tuple(ins[sh[k] - 1] for k in range(n))
                sign = koszul_sign(sh, shifted)
                add_scaled(acc, f.apply(n, word), sign)
            if acc:
                out.append((n, p, q, ins, acc))
    return out


def check_cinf(f: MapFamily, N: int | None = None) -> CinfReport:
    """Homotopy associativity plus vanishing on all shuffle sums."""
    if N is None:
        N = f.arity_bound()
    report = CinfReport()
    report.ainf_residuals = check_ainf(f, N)
    for n in range(2, N + 1):
        report.shuffle_violations.extend(shuffle_defects(f, n))
    return report


def extract_mn(structure: dict[int, dict[tuple[int, ...], Tensor]],
               n: int, words=None) -> Tensor:
    """Operation attached to the class of the identity word x_1..x_n.

    ``structure`` maps arity to {basis word: multilinear map tensor} over
    the shuffle-quotient section (words starting with the letter 1); the
    representative of the identity word is the identity word itself.
    """
    ident = tuple(range(1, n + 1))
    try:
        per_word = structure[n]
    except KeyError:
        raise HoalgError(f"no arity-{n} data supplied") from None
    if ident not in per_word:
        raise HoalgError(
            "identity-word representative missing from the section")
    return per_word[ident]


# ---------------------------------------------------------------------------
# JSON ingestion


def map_family_to_json(f: MapFamily) -> str:
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
    doc = json.loads(text)
    if doc.get("format") != "operadkit-mapfamily":
        raise HoalgError("not a map-family document")
    space = GradedSpace(tuple(doc["names"]), tuple(doc["degrees"]))
    q = SparseMatrix(space.dim, space.dim,
                     [(r, c, Fraction(v)) for r, c, v in doc["q"]])
    maps = {}
    for n, entries in doc["maps"].items():
        maps[int(n)] = {(out, tuple(ins)): Fraction(c)
                        for out, ins, c in entries}
    return MapFamily(space, q, maps)


def truncated_polynomial_family(dim: int = 3) -> MapFamily:
    """k[x]/(x^dim) in degree 0 with the product: associative and
    commutative, hence passes every check."""
    names = tuple(f"x{k}" for k in range(dim))
    space = GradedSpace(names, (0,) * dim)
    q = SparseMatrix.zero(dim, dim)
    m2 = {}
    for a in range(dim):
        for b in range(dim):
            if a + b < dim:
                m2[(a + b, (a, b))] = 1
    return MapFamily(space, q, {2: m2})
