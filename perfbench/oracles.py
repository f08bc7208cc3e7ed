"""Closed forms and constants the benchmark checks operadkit against.

Nothing here imports operadkit: every expected value is derived from a
generating function, a textbook formula or a published constant, so a
bug in the package cannot also bend its own oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def _mul(a: list[dict], b: list[dict], top: int) -> list[dict]:
    """Product of two power series in x, truncated above x^top, whose
    coefficients are polynomials in y stored as {power: Fraction}."""
    out = [dict() for _ in range(top + 1)]
    for i, pa in enumerate(a):
        if not pa:
            continue
        for j in range(top + 1 - i):
            pb = b[j]
            for ka, va in pa.items():
                for kb, vb in pb.items():
                    acc = out[i + j]
                    acc[ka + kb] = acc.get(ka + kb, 0) + va * vb
    return out


def _weighted_tree_series(weight, top: int) -> list[dict]:
    """EGF of rooted leaf-labelled trees with every internal vertex of
    k >= 2 children weighted by weight(k), y marking internal vertices:
    A = x + y * sum_k weight(k) A^k / k!."""
    a = [dict() for _ in range(top + 1)]
    a[1] = {0: Fraction(1)}
    for _ in range(top):
        nxt = [dict() for _ in range(top + 1)]
        nxt[1] = {0: Fraction(1)}
        power = a
        for k in range(2, top + 1):
            power = _mul(power, a, top)
            scale = Fraction(weight(k), factorial(k))
            for n, poly in enumerate(power):
                for v, c in poly.items():
                    if c:
                        nxt[n][v + 1] = nxt[n].get(v + 1, 0) + scale * c
        a = nxt
    return a


def _by_edges(weight, n: int) -> dict[int, int]:
    series = _weighted_tree_series(weight, n)
    return {v - 1: int(c * factorial(n))
            for v, c in sorted(series[n].items()) if c}


def tree_counts(n: int) -> dict[int, int]:
    """Leaf-labelled rooted trees with n leaves by internal edge count."""
    return _by_edges(lambda k: 1, n)


def liec_cobar_dims(n: int) -> dict[int, int]:
    """Cobar complex of the Lie cooperad: a vertex of k inputs carries
    dim Lie(k) = (k - 1)! decorations."""
    return _by_edges(lambda k: factorial(k - 1), n)


def asc_cobar_dims(n: int) -> dict[int, int]:
    """Cobar complex of the associative cooperad: k! per vertex."""
    return _by_edges(factorial, n)


def witt(d: int, n: int) -> int:
    """Dimension of the degree-n part of the free Lie algebra on d
    generators (Witt's necklace formula)."""
    total = 0
    for k in range(1, n + 1):
        if n % k == 0:
            total += _mobius(k) * d ** (n // k)
    return total // n


def _mobius(k: int) -> int:
    sign, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if k > 1 else sign


def free_assoc(d: int, n: int) -> int:
    return d ** n


def free_comm(d: int, n: int) -> int:
    return comb(d + n - 1, n)


# Even Betti numbers of the genus-0 compactification with n marked
# points (Keel 1992); the odd ones vanish.
COMPACT_BETTI = {
    3: (1,),
    4: (1, 1),
    5: (1, 5, 1),
    6: (1, 16, 16, 1),
    7: (1, 42, 127, 42, 1),
    8: (1, 99, 715, 715, 99, 1),
}


def keel_h2(n: int) -> int:
    """Rank of H^2 of the genus-0 compactification: 2^(n-1) - C(n,2) - 1."""
    return 2 ** (n - 1) - comb(n, 2) - 1


def open_betti(n: int) -> list[int]:
    """Betti numbers of the open genus-0 moduli space with n points:
    the Poincare polynomial is prod_{k=2}^{n-2} (1 + k t)."""
    poly = [1]
    for k in range(2, n - 1):
        poly = [a + k * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


# Stable graphs of type (g, n) with 3g - 3 + n <= 3, all edge counts:
# number per edge count and the multiset of automorphism-group orders.
# Genus 0 reproduces the tree counts; the rest agree with the exhaustive
# brute-force oracle in tests/test_treegraph.py and with the classical
# strata counts (5 for M_{1,2}, 7 for M_2).
GRAPH_CENSUS = {
    (0, 3): ({0: 1}, {1: 1}),
    (0, 4): ({0: 1, 1: 3}, {1: 4}),
    (0, 5): ({0: 1, 1: 10, 2: 15}, {1: 26}),
    (0, 6): ({0: 1, 1: 25, 2: 105, 3: 105}, {1: 236}),
    (1, 1): ({0: 1, 1: 1}, {1: 1, 2: 1}),
    (1, 2): ({0: 1, 1: 2, 2: 2}, {1: 2, 2: 3}),
    (1, 3): ({0: 1, 1: 5, 2: 10, 3: 7}, {1: 9, 2: 14}),
    (2, 0): ({0: 1, 1: 2, 2: 2, 3: 2}, {1: 1, 2: 3, 8: 2, 12: 1}),
}

# The q = 0 row of the first page at arity 4, keyed by p.
MIDDLE_ROW_4 = {2: 6, 1: 20, 0: 15}
