"""Graded rational operads: composition, symmetric actions, axiom checks.

Ships the word operads Comm, Assoc and Lie (the latter in the
left-normed Lyndon-word basis), the End_V composition and differential
and the one JSON document reader, ``read_document``.  Composition along
a subset, ``compose_along``, is the primitive the cooperads transpose:
the word operads substitute once, any other operad composes and acts.
The axiom verifier lives in ``axioms``; endomorphism operads of small
graded spaces, table-backed operads and the operad JSON document live
in ``endtable``; free-algebra dimensions live in ``freealg``.  All are
exported from here too, loaded on first use.

Structure constants are exact rationals stored as in ``qlinalg``: an
``int`` when integral, a ``Fraction`` otherwise (``as_exact`` is the
one normaliser).  The shipped operads are all integral, so composing
and acting run on ``int``; ``Fraction`` enters only where a division
happens (the symmetrization projector and ``action_trace``).

Conventions.  Degrees are homological (differentials lower degree by
one).  Permutations are tuples ``sigma`` of length n with 1-based
values, ``sigma[i-1]`` the image of i.  The symmetric action is the
right action (f.sigma)(v_1,...,v_n) = +-f(v_{sigma(1)},...,v_{sigma(n)})
with the Koszul sign of the rearrangement; on words it relabels letters.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import InputError, load_on_first_use
from .qlinalg import SparseMatrix, add_scaled, addmul, as_exact

Vector = dict  # basis index -> int | Fraction (int when integral)


class OperadError(InputError):
    pass


class GradedSpace(namedtuple("GradedSpace", "names degrees")):
    """A finite-dimensional graded space with a named basis."""

    __slots__ = ()

    def __new__(cls, names, degrees):
        if len(names) != len(degrees):
            raise ValueError("names and degrees must have equal length")
        if len(set(names)) != len(names):
            raise ValueError("basis names must be unique")
        if not all(type(d) is int for d in degrees):
            raise ValueError("degrees must be integers")
        return super().__new__(cls, names, degrees)

    @property
    def dim(self) -> int:
        return len(self.names)


# ---------------------------------------------------------------------------
# Permutation helpers


def perm_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v - 1] = i + 1
    return tuple(inv)


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def expand_perm(sigma: tuple[int, ...], k: int, s: int) -> tuple[int, ...]:
    """Blow up domain slot k of sigma into a block of s slots.

    sigma(k) = i becomes the block i..i+s-1 in order; all other values
    above i shift up by s-1.  Used in the equivariance axiom
    (f.sigma) o_i g = (f o_k g).expand_perm(sigma, k, s) with k the slot
    sigma sends to i.
    """
    i = sigma[k - 1]
    shifted = [v if v < i else v + s - 1 for v in sigma]
    return (*shifted[:k - 1], *range(i, i + s), *shifted[k:])


def adjacent_transpositions(n: int) -> list[tuple[int, ...]]:
    """The Coxeter generators s_1..s_{n-1} of S_n; s_t swaps t and t+1."""
    return [(*range(1, t), t + 1, t, *range(t + 2, n + 1))
            for t in range(1, n)]


def shuffles(p: int, q: int):
    """(p, q)-shuffles as permutations of 1..p+q in one-line notation:
    1..p at the chosen positions, p+1..p+q at the rest, both in order."""
    for positions in itertools.combinations(range(p + q), p):
        rest = [k for k in range(p + q) if k not in positions]
        out = [0] * (p + q)
        for j, pos in enumerate((*positions, *rest), 1):
            out[pos] = j
        yield tuple(out)


def koszul_sign(perm: tuple[int, ...], degrees: tuple[int, ...]) -> int:
    """Sign of rearranging graded letters: (v_1..v_n) -> (v_{perm(1)}..).

    ``degrees[j-1]`` is the degree of v_j.  The sign is -1 to the number
    of transposed odd-odd pairs.
    """
    sign = 1
    n = len(perm)
    for a in range(n):
        for b in range(a + 1, n):
            if perm[a] > perm[b]:
                if degrees[perm[a] - 1] % 2 and degrees[perm[b] - 1] % 2:
                    sign = -sign
    return sign


def decalage_sign(degrees: tuple[int, ...]) -> int:
    """(-1)^(sum_i (n - i)|a_i|) for inputs a_1..a_n of these degrees: the
    sign that moves the n suspensions of a multilinear map past them."""
    n = len(degrees)
    return -1 if sum((n - i) * d for i, d in enumerate(degrees, 1)) % 2 else 1


@lru_cache(maxsize=None)
def _along(m: int, S: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(outer, inner) for composition along S in arity m: input x of the
    outer element goes to outer[x] (x = min S unused), input y of the
    inner to inner[y].  OperadError unless S ascends strictly in 1..m."""
    if not (S and all(x < y for x, y in zip((0, *S), (*S, m + 1)))):
        raise OperadError(f"cannot compose along {S} in arity {m}: the "
                          f"places must ascend strictly within 1..{m}")
    rest, i = [x for x in range(1, m + 1) if x not in S], S[0]
    return (0, *rest[:i - 1], 0, *rest[i - 1:]), (0, *S)


# ---------------------------------------------------------------------------
# Operad base class


class GradedOperad:
    """Base class: finite-type graded operad with partial compositions.

    Subclasses implement ``compose_basis`` and ``act_basis`` on basis
    elements, and may answer ``compose_along`` faster than its default;
    linear extensions, the unit and axiom-facing helpers live here.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, components: dict[int, GradedSpace],
                 unit_vector: Vector,
                 differentials: dict[int, SparseMatrix] | None = None):
        self.components = dict(components)
        self.unit_vector = dict(unit_vector)
        self.differentials = dict(differentials or {})
        for n, d in self.differentials.items():
            dim = self.components[n].dim
            if d.rows != dim or d.cols != dim:
                raise OperadError(f"differential shape mismatch at arity {n}")

    # -- interface ----------------------------------------------------------

    def compose_basis(self, n: int, i: int, m: int, a: int, b: int) -> Vector:
        raise NotImplementedError

    def act_basis(self, n: int, sigma: tuple[int, ...], a: int) -> Vector:
        raise NotImplementedError

    # -- derived operations --------------------------------------------------

    def arities(self) -> list[int]:
        return sorted(self.components)

    @property
    def max_arity(self) -> int:
        return max(self.components)

    def space(self, n: int) -> GradedSpace:
        try:
            return self.components[n]
        except KeyError:
            raise OperadError(f"no component of arity {n}") from None

    def dim(self, n: int) -> int:
        return self.space(n).dim

    def degree(self, n: int, a: int) -> int:
        return self.space(n).degrees[a]

    def compose(self, n: int, i: int, m: int, x: Vector, y: Vector) -> Vector:
        if not (1 <= i <= n):
            raise OperadError(f"slot {i} out of range for arity {n}")
        acc: Vector = {}
        for a, ca in x.items():
            for b, cb in y.items():
                add_scaled(acc, self.compose_basis(n, i, m, a, b), ca * cb)
        return acc

    def compose_along(self, m: int, S: tuple[int, ...]) -> list[Vector]:
        """e_a o_S e_b for every basis a of arity m - |S| + 1 and b of
        arity |S|, a-major (entry a * dim O(|S|) + b): b fills a's slot
        min S, its inputs go to the places S and a's others to the rest
        of 1..m, each in order; o_i is S = (i, ..., i + |S| - 1).  Here
        each o_{min S} composite is moved into place by the action; the
        word operads substitute once."""
        outer, inner = _along(m, S)
        k, i = len(S), S[0]
        out = [self.compose_basis(m - k + 1, i, k, a, b)
               for a in range(self.dim(m - k + 1)) for b in range(self.dim(k))]
        if S[-1] - i == k - 1:  # o_i itself
            return out
        sigma = (*outer[1:i], *inner[1:], *outer[i + 1:])
        return [self.act(m, sigma, v) for v in out]

    def act(self, n: int, sigma: tuple[int, ...], x: Vector) -> Vector:
        acc: Vector = {}
        for a, ca in x.items():
            add_scaled(acc, self.act_basis(n, sigma, a), ca)
        return acc

    def action_trace(self, n: int, sigma: tuple[int, ...]) -> Fraction:
        total = Fraction(0)
        for a in range(self.dim(n)):
            total += self.act_basis(n, sigma, a).get(a, 0)
        return total


# ---------------------------------------------------------------------------
# Word helpers (Assoc / Lie)


def relabel_word(w: tuple[int, ...], sigma: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sigma[x - 1] for x in w)


@lru_cache(maxsize=None)
def lie_expand(w: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Expansion of the left-normed bracket of w into associative words.

    rho(w_1..w_n) = [..[[x_{w_1}, x_{w_2}], x_{w_3}]..], expanded via
    [a, b] = ab - ba; returns ((word, coeff), ...) sorted by word, which
    ``LieOperad.act_basis`` relies on.
    """
    if len(w) == 1:
        return ((w, 1),)
    inner = lie_expand(w[:-1])
    last = w[-1]
    acc: dict[tuple[int, ...], int] = {}
    for word, c in inner:
        addmul(acc, word + (last,), c)
        addmul(acc, (last,) + word, -c)
    return tuple(sorted(acc.items()))


def multilinear_words(n: int) -> list[tuple[int, ...]]:
    return sorted(itertools.permutations(range(1, n + 1)))


def lie_basis_words(n: int) -> list[tuple[int, ...]]:
    """Multilinear left-normed basis labels: words starting with 1."""
    return sorted((1,) + p for p in itertools.permutations(range(2, n + 1)))


class CommOperad(GradedOperad):
    """One-dimensional components in degree 0, trivial action."""

    def __init__(self, max_arity: int):
        if max_arity < 1:
            raise OperadError("max_arity must be >= 1")
        components = {n: GradedSpace((f"c{n}",), (0,))
                      for n in range(1, max_arity + 1)}
        super().__init__(components, {0: 1})

    def compose_basis(self, n, i, m, a, b):
        return {0: 1}

    def act_basis(self, n, sigma, a):
        return {a: 1}


class _WordOperad(GradedOperad):
    """Degree-zero components spanned by the words ``basis_words(n)``,
    each named by its letters; ``_words[n]`` lists them and ``_index[n]``
    maps a word to its basis index.  Composition along S, o_i included,
    is one substitution of words."""

    def __init__(self, max_arity: int):
        if max_arity < 1:
            raise OperadError("max_arity must be >= 1")
        self._words = {n: self.basis_words(n) for n in range(1, max_arity + 1)}
        self._index = {n: {w: k for k, w in enumerate(ws)}
                       for n, ws in self._words.items()}
        components = {
            n: GradedSpace(tuple("".join(map(str, w)) for w in ws),
                           (0,) * len(ws))
            for n, ws in self._words.items()}
        super().__init__(components, {0: 1})

    def compose_basis(self, n, i, m, a, b):
        return self._substituted(n + m - 1, tuple(range(i, i + m)),
                                 (self._words[n][a],), (self._words[m][b],))[0]

    def compose_along(self, m, S):
        _along(m, S)  # refuse a malformed S before any word is read
        return self._substituted(m, S, self._words[m - len(S) + 1],
                                 self._words[len(S)])

    def _substituted(self, m, S, was, wbs) -> list[Vector]:
        """e_a o_S e_b for the words wa in was and wb in wbs, a-major, by
        one substitution: each word of ``_block(wb, min S)`` goes to the
        places S and wa's other letters to the rest of 1..m."""
        (outer, inner), index, i = _along(m, S), self._index[m], S[0]
        blocks = [[(tuple([inner[y] for y in w]), c)
                   for w, c in self._block(wb, i)] for wb in wbs]
        out = []
        for wa in was:
            p = wa.index(i)
            head, tail = (tuple([outer[x] for x in part])
                          for part in (wa[:p], wa[p + 1:]))
            out += [{index[head + w + tail]: c for w, c in block}
                    for block in blocks]
        return out

    @staticmethod
    def _block(wb, i):
        return ((wb, 1),)


class AssocOperad(_WordOperad):
    """Components k[S_n] in degree 0; composition substitutes words."""

    basis_words = staticmethod(multilinear_words)

    def act_basis(self, n, sigma, a):
        w = relabel_word(self._words[n][a], sigma)
        return {self._index[n][w]: 1}

    def action_trace(self, n, sigma):
        # relabeling fixes a word iff sigma is the identity
        if sigma == identity_perm(n):
            return Fraction(factorial(n))
        return Fraction(0)


class LieOperad(_WordOperad):
    """Multilinear free Lie components in the left-normed word basis.

    A basis label w (a word starting with 1) stands for the left-normed
    bracket rho(w).  Composition and the action are computed in the
    associative expansion; coordinates are read off the words starting
    with the letter 1, which recovers the basis coefficients exactly,
    and only the terms that give such words are expanded.
    """

    basis_words = staticmethod(lie_basis_words)

    @staticmethod
    def _block(wb, i):
        # Only words starting with 1 are read off, and in the expansion of
        # rho(w) only w starts with w's first letter.  The composite's 1
        # is the outer word's unless i = min S = 1, and substitution is
        # injective, so the words read off hold all of rho(wb) for i > 1
        # and wb alone for i = 1.
        return lie_expand(wb) if i > 1 else ((wb, 1),)

    def act_basis(self, n, sigma, a):
        # The words read off start with x = sigma^-1(1), which relabels to
        # 1.  The expansion is sorted by word, so they are one run of it.
        index, terms = self._index[n], lie_expand(self._words[n][a])
        x = sigma.index(1) + 1
        lo = bisect_left(terms, ((x,),))
        return {index[relabel_word(w, sigma)]: c
                for w, c in terms[lo:bisect_left(terms, ((x + 1,),), lo)]}

    def action_trace(self, n, sigma):
        # Lie(n) is induced from a faithful character of the cyclic
        # group C_n (Klyachko 1974), so the trace vanishes unless every
        # cycle of sigma has one length d; for its k = n / d cycles it
        # is then mu(d) d^(k-1) (k-1)! (Brandt 1944).
        lengths = set()
        for x in range(1, n + 1):
            y, length = sigma[x - 1], 1
            while y != x:
                y, length = sigma[y - 1], length + 1
            lengths.add(length)
        if len(lengths) != 1:
            return Fraction(0)
        d = lengths.pop()
        k = n // d
        mu, rest = 1, d  # mu(d), the Moebius function, by trial division
        for p in range(2, d + 1):
            if rest % p == 0:
                rest //= p
                if rest % p == 0:
                    return Fraction(0)
                mu = -mu
        return Fraction(mu * d ** (k - 1) * factorial(k - 1))


comm_operad, assoc_operad, lie_operad = CommOperad, AssocOperad, LieOperad


# ---------------------------------------------------------------------------
# Endomorphism operads

# A multilinear map V^n -> V on the basis of a graded V is a tensor
# {(out, in_tuple): coeff}.  These routines hold the one convention for
# composing such maps and for the differential on them.


def check_differential(V: GradedSpace, q: SparseMatrix,
                       error: type[ValueError], name: str = "Q") -> None:
    """Raise ``error``, naming q by ``name``, unless q is a differential
    on V: square of size dim V, of degree -1, squaring to zero."""
    if q.rows != V.dim or q.cols != V.dim:
        raise error(f"{name} must be square of size dim V")
    for r, c, _ in q.entries():
        if V.degrees[r] != V.degrees[c] - 1:
            raise error(f"{name} entry ({r},{c}) violates degree -1")
    if not q.matmul(q).is_zero():
        raise error(f"{name} squared is nonzero")


def end_compose(f: dict, i: int, g: dict, degrees: tuple[int, ...]) -> dict:
    """f o_i g: g fills input slot i of f.

    Each entry of g slides past the inputs before slot i with the sign
    (-1)^{|g|(|v_1| + .. + |v_{i-1}|)}, |g| that entry's degree.
    """
    out: dict = {}
    for (k, bins), cg in g.items():
        g_odd = (degrees[k] - sum(degrees[x] for x in bins)) % 2
        for (j, ins), cf in f.items():
            if ins[i - 1] != k:
                continue
            if g_odd and sum(degrees[x] for x in ins[: i - 1]) % 2:
                cf = -cf
            addmul(out, (j, ins[: i - 1] + bins + ins[i:]), cf * cg)
    return out


def end_differential(f: dict, q: SparseMatrix,
                     degrees: tuple[int, ...]) -> dict:
    """The Hom differential Q o f - (-1)^{|f|} sum_k f o_k Q, for a
    differential q on V."""
    qt = {(r, (c,)): v for r, c, v in q.entries()}
    out = end_compose(qt, 1, f, degrees)
    for (j, ins), c in f.items():
        sign = 1 if (degrees[j] - sum(degrees[x] for x in ins)) % 2 else -1
        for k in range(1, len(ins) + 1):
            add_scaled(out, end_compose({(j, ins): c}, k, qt, degrees), sign)
    return out


# ---------------------------------------------------------------------------
# JSON documents: the one reader of input files


def parse_coefficient(c) -> int | Fraction:
    """A coefficient read from JSON: an int, or a string of an optional
    sign, digits and optionally "/" and a nonzero denominator ("-3/2")."""
    if type(c) is int:
        return c
    if not isinstance(c, str):
        raise ValueError(f"coefficient {c!r} is neither an int nor a string")
    if not re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", c):
        raise ValueError(f"coefficient {c!r} is not of the form -3 or -3/2 "
                         "(a nonzero denominator)")
    return as_exact(Fraction(c))


def put_once(table: dict, key, value, what: str) -> None:
    """table[key] = value for a table read from a document, which names
    each key once: a repeat raises ValueError naming it."""
    if key in table:
        raise ValueError(f"{what} {key!r} appears twice")
    table[key] = value


def int_keyed(obj: dict, what: str) -> dict:
    """A JSON object whose keys are runs of the ASCII digits 0-9, as
    {int: value}.  A key of any other form (a sign, a space, another
    script's digits) and two keys naming one integer ("2" and "02") are
    refused."""
    out: dict = {}
    for key, value in obj.items():
        if not re.fullmatch(r"[0-9]+", key):
            raise ValueError(f"{what} {key!r} is not written in the digits "
                             "0-9")
        put_once(out, int(key), value, what)
    return out


def read_document(text: str, fmt: str, error: type[ValueError], parse):
    """parse(doc) for the JSON object in text whose "format" is fmt.

    Text that is not JSON (an object that repeats a key, an integer
    past the digit limit or nesting past the recursion limit included),
    a document of another format, and one that parse cannot read (a
    missing key, a value of the wrong type or out of range, a repeated
    key or table cell) all raise ``error``.
    """
    import json

    def unique_keys(pairs):
        obj: dict = {}
        for key, value in pairs:
            put_once(obj, key, value, "JSON object key")
        return obj
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as ex:
        raise error(str(ex)) from None
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise error(f"not an {fmt} document")
    try:
        return parse(doc)
    except error:
        raise
    except KeyError as ex:
        raise error(f"{fmt} document lacks the key {ex}") from None
    except (TypeError, ValueError, AttributeError, RecursionError) as ex:
        raise error(f"malformed {fmt} document: {ex}") from None


# ---------------------------------------------------------------------------
# Loaded on first use: most commands check no axioms, build no End_V and
# count no free algebra

__getattr__ = load_on_first_use(globals(), {
    "axioms": ("AxiomReport", "AxiomViolation", "check_axioms"),
    "freealg": ("class_representative", "class_size", "cycle_types",
                "free_algebra_dims"),
    "endtable": ("EndOperad", "TableOperad", "operad_document",
                 "operad_to_json", "operad_from_doc", "operad_from_json")})

