"""Stratification spectral-sequence tables for moduli of stable curves.

The first-page table assigns to each (p, q) the dimension of the sum,
over stable graphs G of genus g with n legs and 3g - 3 + n - p internal
edges, of the Aut(G)-invariant part of the tensor product over vertices
of degree-k(v) cohomology of the open moduli space at that vertex, where
the k(v) sum to p - q.  Genus-0 graphs are trees and carry no
automorphisms; their open Betti numbers come from the product formula
prod_{k=2}^{n-2} (1 + k t).

The dual (logarithmic) first page uses compactified Betti numbers, edge
count -p and vertex degrees summing to 2p + q.  For genus 0 the
compactified numbers are predicted from the first table by alternating
row sums, which is the degeneration statement being exercised.

A genus-0 page depends on a tree only through its edge count and the
multiset of its vertex valences, so genus-0 pages read a census of
those multisets, which ``genus0_valence_census`` counts without
building a tree.  An n-leg tree is a rooted tree on n - 1 labelled
leaves, and the rooted trees T satisfy the exponential formula
T = x + sum_{k>=2} y_{k+1} T^k / k!: a tree is its root, with k >= 2
children and k + 1 punctures, over the unordered set of its subtrees,
one per block of a set partition of the leaves.  Counting the block
that holds the least label first visits each partition once, so the
recursion stays in integers.  Only higher-genus pages load
``stablegraphs``, and only the cobar side of ``middle_row`` loads
``treegraph``; the tests keep an enumerated stratum-by-stratum Euler
characteristic as an independent oracle for the census.
Every page is one fold of a census {edge count: {sorted vertex keys:
count}}, keyed by valence in genus 0 and by (genus, valence) above.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from math import comb

from . import InputError


class StrataError(InputError):
    pass


def open_betti(n: int) -> tuple[int, ...]:
    """Betti numbers of the open genus-0 moduli space with n punctures:
    coefficients of prod_{k=2}^{n-2} (1 + k t)."""
    if n < 3:
        raise StrataError("need at least 3 punctures")
    poly = [1]
    for k in range(2, n - 1):
        poly = _poly_mul(poly, [1, k])
    return tuple(poly)


class BettiTable:
    """Open-moduli Betti numbers: genus 0 computed, others ingested.

    Ships with the single verified higher-genus entry (1, 1) -> (1).
    """

    SHIPPED = {(1, 1): (1,)}

    def __init__(self, entries: dict | None = None):
        self.entries = dict(self.SHIPPED)
        if entries:
            for (g, n), betti in entries.items():
                self._validate(g, n, tuple(betti))
                self.entries[(g, n)] = tuple(betti)

    @staticmethod
    def _validate(g, n, betti):
        if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
            raise StrataError(f"unstable pair (g, n) = ({g}, {n})")
        if any(b < 0 for b in betti):
            raise StrataError("negative Betti number")
        if g == 0:
            expected = open_betti(n)
            padded = betti + (0,) * max(0, len(expected) - len(betti))
            if padded[:len(expected)] != expected or any(padded[len(expected):]):
                raise StrataError(
                    f"genus-0 entry for n = {n} conflicts with the "
                    f"internal product formula {expected}")

    def get(self, g: int, n: int) -> tuple[int, ...]:
        if g == 0:
            return open_betti(n)
        try:
            return self.entries[(g, n)]
        except KeyError:
            raise StrataError(
                f"no Betti data for (g, n) = ({g}, {n}); ingest a table"
            ) from None

    @classmethod
    def from_csv(cls, text: str) -> "BettiTable":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].replace(" ", "") != "g,n,k,dim":
            raise StrataError("expected header 'g,n,k,dim'")
        rows: dict[tuple[int, int], dict[int, int]] = {}
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 4:
                raise StrataError(f"malformed row: {ln!r}")
            try:
                g, n, k, dim = (int(x) for x in parts)
            except ValueError:
                raise StrataError(f"non-integer field in row: {ln!r}") from None
            if dim < 0 or k < 0:
                raise StrataError(f"negative value in row: {ln!r}")
            by_k = rows.setdefault((g, n), {})
            if k in by_k:
                raise StrataError(f"repeated (g, n, k) in row: {ln!r}")
            by_k[k] = dim
        return cls({gn: tuple(by_k.get(k, 0) for k in range(max(by_k) + 1))
                    for gn, by_k in rows.items()})


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


class E1Table(namedtuple("E1Table", "g n entries format",
                          defaults=("operadkit-e1",))):
    """A page, ``entries`` mapping (p, q) -> dim; ``format`` names it in
    the JSON document ("operadkit-e1" for the first page,
    "operadkit-dual-e1" for the dual)."""

    __slots__ = ()

    def render(self, fmt: str) -> str:
        """The page as a JSON document, as p,q,dim CSV rows, or ("text")
        as an aligned grid of rows q by columns p; newline-terminated."""
        entries = self.entries
        if fmt == "json":
            import json
            return json.dumps({
                "format": self.format,
                "g": self.g, "n": self.n,
                "entries": [[p, q, d] for (p, q), d in sorted(entries.items())],
            }, indent=1) + "\n"
        if fmt == "csv":
            return "p,q,dim\n" + "".join(
                f"{p},{q},{d}\n" for (p, q), d in sorted(entries.items()))
        if not entries:
            return "(empty table)\n"
        ps = sorted({p for (p, _) in entries})
        qs = sorted({q for (_, q) in entries}, reverse=True)
        width = max(len(str(d)) for d in entries.values())
        width = max(width, *(len(str(p)) for p in ps)) + 1
        head = f"{'q/p':>{width + 2}}" + "".join(f"{p:>{width}}" for p in ps)
        lines = [head]
        for q in qs:
            cells = "".join(
                f"{entries.get((p, q), 0):>{width}}" for p in ps)
            lines.append(f"{q:>{width + 2}}" + cells)
        return "\n".join(lines) + "\n"


def _add_tensor(out: dict, a: dict, b: dict, scale: int = 1) -> None:
    """Add to ``out`` scale times the census of the disjoint unions of
    an ``a`` forest and a ``b`` forest: puncture tuples merged, counts
    multiplied."""
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(sorted(ka + kb))
            out[key] = out.get(key, 0) + scale * ca * cb


def genus0_valence_census(n: int) -> dict[int, dict[tuple[int, ...], int]]:
    """For n punctures: count of trees per (edge count, sorted vertex
    puncture multiset).  Rooted trees on n - 1 leaves model the unrooted
    n-leg trees with the root as the n-th leg.

    Counted, not enumerated.  With F_L the census of rooted trees on L
    labelled leaves and G(L, k) that of forests of k such trees over a
    set partition of the L leaves:

    - F_1 = {(): 1}, the bare leaf, and G(L, 1) = F_L;
    - G(L, k) = sum_s C(L - 1, s - 1) F_s (x) G(L - s, k - 1), where s
      is the size of the block holding the least label;
    - F_L = sum_{k>=2} G(L, k) (x) (k + 1): the root has k children and
      k + 1 punctures,

    where (x) merges puncture tuples and multiplies counts.  A rooted
    tree is its root over the unordered set of its subtrees, and taking
    the least label's block first counts each set partition once, so
    every tree is counted exactly once and no division happens.
    """
    if n < 3:
        raise StrataError("need at least 3 punctures")
    leaves = n - 1
    forests: dict[tuple[int, int], dict] = {(1, 1): {(): 1}}
    for total in range(2, leaves + 1):
        trees: dict[tuple[int, ...], int] = {}
        for k in range(2, total + 1):
            grown: dict[tuple[int, ...], int] = {}
            for s in range(1, total - k + 2):
                _add_tensor(grown, forests[(s, 1)],
                            forests[(total - s, k - 1)], comb(total - 1, s - 1))
            forests[(total, k)] = grown
            _add_tensor(trees, grown, {(k + 1,): 1})
        forests[(total, 1)] = trees
    census: dict[int, dict[tuple[int, ...], int]] = {
        e: {} for e in range(n - 2)}
    for key, count in forests[(leaves, 1)].items():
        census[len(key) - 1][key] = count
    return census


def _fold(census: dict, betti_of, bigrade) -> dict:
    """(p, q) -> dim over a census {edge count: {sorted vertex keys:
    graph count}}: each graph adds the product of its vertices' Betti
    lists ``betti_of(key)``, one call per distinct key, with degree k of
    a graph with e edges at ``bigrade(e, k)``."""
    keys = {key for counts in census.values() for vertices in counts
            for key in vertices}
    lists = {key: betti_of(key) for key in sorted(keys)}
    entries: dict[tuple[int, int], int] = {}
    for e, counts in census.items():
        for vertices, count in counts.items():
            poly = [1]
            for key in vertices:
                poly = _poly_mul(poly, lists[key])
            for total_k, dim in enumerate(poly):
                if dim:
                    at = bigrade(e, total_k)
                    entries[at] = entries.get(at, 0) + count * dim
    return entries


def e1_table(g: int, n: int, betti: BettiTable | None = None,
             aut_mode: str = "degree0") -> E1Table:
    """First-page dimension table of the stratification sequence.

    For genus 0 all graphs are leg-labeled trees with trivial
    automorphisms.  For g >= 1, graphs with automorphisms contribute
    their degree-0 classes only; any higher-degree class on such a graph
    is unsupported (aut_mode="degree0" raises) or counted without taking
    invariants (aut_mode="ignore").  Those counts can exceed the
    invariant ones, so an "ignore" page is no Euler-characteristic
    check: on M-bar_{1,2}, with the true open classes, its alternating
    sum is 3, not chi = 4.
    """
    if aut_mode not in ("degree0", "ignore"):
        raise StrataError(f"unknown aut_mode {aut_mode!r}")
    if betti is None:
        betti = BettiTable()
    top = 3 * g - 3 + n
    if g == 0:
        census = genus0_valence_census(n)
        betti_of = functools.partial(betti.get, 0)
    else:
        if 2 * g - 2 + n <= 0:
            raise StrataError("unstable (g, n)")
        from .stablegraphs import enumerate_stable_graphs, automorphism_order
        census = {}
        for G in enumerate_stable_graphs(g, n, top):
            vertices = [(gv, G.valence(v)) for v, gv in enumerate(G.genera)]
            rows = [betti.get(*key) for key in vertices]  # in vertex order
            # Betti numbers are >= 0, so the product of the rows has a
            # class above degree 0 iff no row is zero and one has such a class
            if (aut_mode == "degree0" and all(map(any, rows))
                    and any(any(r[1:]) for r in rows)
                    and automorphism_order(G) > 1):
                raise StrataError(
                    "graph with nontrivial automorphisms carries classes "
                    f"above degree 0 at (g, n) = ({g}, {n}); the invariant "
                    "computation is unsupported")
            counts = census.setdefault(len(G.edges), {})
            key = tuple(sorted(vertices))
            counts[key] = counts.get(key, 0) + 1
        betti_of = lambda key: betti.get(*key)
    entries = _fold(census, betti_of, lambda e, k: (top - e, top - e - k))
    return E1Table(g, n, entries)


def verify_vanishing(g: int, n: int, table: E1Table) -> bool:
    """Bounds -p <= q <= p <= 3g - 3 + n on every entry, plus the
    per-graph identity sum_v (n(v) - 3) = 2 ed(G) + n - 3 v(G) that
    forces q >= 0 in genus 0, checked once per census entry since it
    depends on a tree only through its edge count and punctures."""
    top = 3 * g - 3 + n
    for (p, q), d in table.entries.items():
        if d and not (-p <= q <= p <= top):
            return False
    if g == 0:
        for e, counts in genus0_valence_census(n).items():
            for punctures in counts:
                v = len(punctures)
                lhs = sum(nv - 3 for nv in punctures)
                if lhs != 2 * e + n - 3 * v:
                    return False
    return True


def predict_compactified_betti(n: int) -> tuple[int, ...]:
    """Even Betti numbers of the genus-0 compactification by alternating
    row sums of the first page (diagonal degeneration)."""
    table = e1_table(0, n)
    out = []
    for q in range(0, n - 2):
        h = (-1) ** q * sum((-1) ** p * d for (p, qq), d in
                            table.entries.items() if qq == q)
        if h < 0:
            raise StrataError(
                f"negative predicted Betti number h_{2 * q} = {h}")
        out.append(h)
    return tuple(out)


def keel_h2_rank(n: int) -> int:
    """Independent rank of H^2 of the genus-0 compactification from the
    intersection-ring presentation: 2^(n-1) - n(n-1)/2 - 1."""
    return 2 ** (n - 1) - n * (n - 1) // 2 - 1


# e1_dims maps p to dim E1_{p,0}, cobar_dims p to the cobar dimension at
# edge count arity - 2 - p
MiddleRowReport = namedtuple("MiddleRowReport",
                             "arity e1_dims cobar_dims equal")


def middle_row(arity: int) -> MiddleRowReport:
    """Compare the q = 0 row for arity + 1 punctures against the cobar
    complex of the Lie cooperad at the same arity."""
    if arity < 2:
        raise StrataError("arity must be >= 2")
    from .cobar import liec_cooperad, cobar_dims
    table = e1_table(0, arity + 1)
    e1_row = {p: d for (p, q), d in table.entries.items() if q == 0 and d}
    cdims = cobar_dims(liec_cooperad(arity), arity)
    cobar_by_p = {arity - 2 - e: d for e, d in cdims.items() if d}
    return MiddleRowReport(arity, e1_row, cobar_by_p, e1_row == cobar_by_p)


def dual_e1_table(g: int, n: int) -> E1Table:
    """First page of the dual (logarithmic) sequence, from the predicted
    even Betti numbers of the genus-0 compactifications (odd ones vanish).
    """
    if g != 0:
        raise StrataError(
            "dual tables require compactified Betti data; only genus 0 "
            "is supported internally")

    def cbetti(nv: int) -> list[int]:
        out = [x for h in predict_compactified_betti(nv) for x in (h, 0)]
        return out[:-1] if out else [1]

    # edge count e sits at p = -e, and degree k at q = k - 2p
    entries = _fold(genus0_valence_census(n), cbetti,
                    lambda e, k: (-e, k + 2 * e))
    return E1Table(g, n, entries, "operadkit-dual-e1")


def dual_euler_check(table: E1Table, n: int) -> bool:
    """Column Euler characteristics of the dual page against the open
    Betti numbers: sum_p (-1)^p dim at column q equals (-1)^(q/2) times
    the open Betti number in degree q/2 (odd columns vanish)."""
    ob = open_betti(n)
    qs = {q for (_, q) in table.entries} | {2 * k for k in range(len(ob))}
    for q in qs:
        chi = sum((-1) ** p * d for (p, qq), d in table.entries.items()
                  if qq == q)
        if q % 2:
            expected = 0
        else:
            k = q // 2
            expected = (-1) ** k * (ob[k] if k < len(ob) else 0)
        if chi != expected:
            return False
    return True
