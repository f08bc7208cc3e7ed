"""Free-algebra dimensions: dim (O(n) (x) V^n)_{S_n} from characters.

Kept apart from ``operads`` so that only ``free-dims`` compiles it;
``operads`` still exports its names.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .operads import GradedOperad, OperadError


def cycle_types(n: int):
    """Partitions of n as sorted tuples (cycle types of S_n)."""

    def gen(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for p in range(min(remaining, maxpart), 0, -1):
            for rest in gen(remaining - p, p):
                yield (p,) + rest

    return list(gen(n, n))


def class_size(lam: tuple[int, ...]) -> int:
    n = sum(lam)
    z = 1
    for k in set(lam):
        m = lam.count(k)
        z *= k ** m * factorial(m)
    return factorial(n) // z


def class_representative(lam: tuple[int, ...]) -> tuple[int, ...]:
    """A permutation with the given cycle type."""
    out: list[int] = []
    for p in lam:
        start = len(out) + 1
        out += [*range(start + 1, start + p), start]
    return tuple(out)


def free_algebra_dims(O: GradedOperad, d: int, max_arity: int) -> list[int]:
    """dim (O(n) (x) V^n)_{S_n} for dim V = d, n = 1..max_arity.

    The coinvariants have the same dimension as the image of the
    symmetrization projector (1/n!) sum_sigma sigma; since the projector
    is idempotent its rank equals its trace, which is evaluated exactly
    per conjugacy class: tr(sigma on O(n)) . d^{cycles(sigma)}.
    """
    if d < 0:
        raise OperadError("generator dimension must be nonnegative")
    out = []
    for n in range(1, max_arity + 1):
        total = Fraction(0)
        for lam in cycle_types(n):
            rep = class_representative(lam)
            chi = O.action_trace(n, rep)
            total += class_size(lam) * chi * Fraction(d) ** len(lam)
        total /= factorial(n)
        if total.denominator != 1 or total < 0:
            raise OperadError(
                f"projector trace is not a nonnegative integer at arity {n}: "
                f"{total}")
        out.append(int(total))
    return out
