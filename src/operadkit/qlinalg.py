"""Exact rational sparse linear algebra and chain-complex homology.

Everything here works over the rationals, with no floating point
anywhere.  A value is stored as an ``int`` when it is integral and as a
``fractions.Fraction`` otherwise (``as_exact`` is the one normaliser),
so the integer matrices of the cobar complexes are multiplied and
reduced at machine-integer speed by the same code that handles
fractions.  A true division goes through ``Fraction``, never ``/`` on
two ints, which would give a float.

All elimination is one step, ``_reduced``, on rows cleared of
denominators.  While a row r is nonzero and a kept row p has r's
``pick`` column pc as its pivot, r becomes pv * r - a * p (pv and a
the entries of p and r at pc): with a unit pivot, r - a * pv * p, one
pass over p; only a non-unit pivot divides the new row by its gcd.
``_reduce`` reads rows in turn and keeps each nonzero residual with pc
as its pivot.  Every step scales by nonzero integers, so the kept rows
are an echelon basis of the rows' span over the rationals.  ``rank``
counts them with pc the largest column, the rule whose fill-in under
clearing (below) was measured; ``span_basis`` keeps the same rows, and
``in_span`` reduces a vector against them to nothing or not.  ``rref``
takes the least column, the echelon convention ``nullspace`` and
``solve_in_span`` read, then from the last pivot back clears later
pivot columns and divides each row by its pivot through ``Fraction``,
``as_exact`` keeping integral values ``int``; reduced echelon form is
unique, so how the rows were reduced does not show.

``cleared_ranks`` ranks boundaries in order by clearing (Chen and
Kerber, "Persistent homology computation with a twist", EuroCG 2011).
Take B' and B, consecutive boundaries; B'.B = 0, so each row of B' is a
relation among the rows of B.  If the reduction of B' keeps rows with
pivots P (row indices of B), B'[:, P] has full column rank, as the kept
rows are triangular on P; so each row of B in P is a combination of B's
other rows, and rank(B) is the rank of B without them.  Those rows need
never be built: ``cleared_ranks`` hands P to the builder of B, which may
leave them out, and ``rank`` skips any it holds.  Rows of B' left out
are still relations, so the argument holds for a cleared B'.  It is
exact once each product B'.B was checked to vanish before B is ranked,
and then B needs only P, not B': ``ChainComplex`` checks every product
at construction, and the cobar complex the rows of one tree per
skeleton (``cobar.CobarComplex.homology`` gives the argument).  Where
the complex is acyclic no remaining row is reduced to zero, which is
where elimination makes most of its fill-in, so the pivot choice has
little left to decide.  Clearing helps only from the second boundary
on, so a complex is ranked small end first: the cobar complex as its
dual, graded by edge count, whose first boundary leaves the corolla (de
Silva, Morozov and Vejdemo-Johansson, "Dualities in persistent
(co)homology", Inverse Problems 2011; Bauer, "Ripser", J. Appl. Comput.
Topol. 2021).

A ``SparseMatrix`` stores each entry once, row-major, and ``row`` hands
out the stored row; ``from_rows`` stores row dicts a caller built, each
checked whole, and shares another matrix's stored rows.  Elimination
copies the rows it reduces, the only other copy of the entries the
module makes.  A caller that reads columns transposes the matrix and
owns that copy while it needs it.  ``rank`` and ``rref`` walk only the
stored rows, ascending, so empty rows cost nothing: ``span_rank`` and
``solve_in_span`` index their matrices by the vectors' own basis
indices.

Matrices are immutable after construction, so they are safe to share
between threads; rank and homology are pure functions.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType


class ComplexError(ValueError):
    """Raised when a chain complex fails d.d = 0."""


def as_exact(x) -> int | Fraction:
    """x as an int when integral, else as a Fraction; anything but an
    int or a Fraction (a float, say) is rejected."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def addmul(acc: dict, key, coeff) -> None:
    """acc[key] += coeff, dropping the entry when it becomes zero.

    With ``add_scaled`` this is the one sparse accumulator of the
    package: sparse vectors never hold an explicit zero.
    """
    s = acc.get(key, 0) + coeff
    if s:
        acc[key] = s
    elif key in acc:
        del acc[key]


def add_scaled(acc: dict, vec: Mapping, coeff) -> None:
    """acc += coeff * vec on sparse vectors, dropping entries that
    become zero."""
    for key, v in vec.items():
        addmul(acc, key, coeff * v)


def format_vector(vec: Mapping) -> str:
    """A sparse vector as ``{key: value}``, keys ascending, each value
    printed exactly whatever its type: ``{0: -1, 2: 1/2}``."""
    return "{" + ", ".join(f"{k!r}: {v}" for k, v in sorted(vec.items())) + "}"


_EMPTY: Mapping = MappingProxyType({})


class SparseMatrix:
    """An immutable sparse matrix over the rationals.

    The one store is row-major, ``{row: read-only {col: value}}`` with
    each row's columns in the order given, zeros and empty rows dropped
    and values normalised by ``as_exact``; ``row`` returns a stored row,
    and everything else reads them.  ``entries`` lists each row's
    columns ascending.  Out-of-range and duplicate (row, col) entries
    are rejected.
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int,
                 entries: Iterable[tuple[int, int, object]] = ()):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data: dict[int, dict[int, int | Fraction]] = {}
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) out of range {rows}x{cols}")
            line = data.get(r)
            if line is None:
                line = data[r] = {}
            elif c in line:
                raise ValueError(f"duplicate entry at ({r},{c})")
            if type(v) is not int:
                v = as_exact(v)
            if v:
                line[c] = v
        self.rows = rows
        self.cols = cols
        self._rows = {r: MappingProxyType(line)
                      for r, line in data.items() if line}

    @classmethod
    def from_rows(cls, rows: int, cols: int,
                  lines: Iterable[tuple[int, dict]]) -> "SparseMatrix":
        """A matrix from (row, {col: value}) pairs whose dicts are stored
        as they are: each row named once, its values exact and nonzero.
        A read-only row, such as another matrix's ``row``, is shared.
        Each row is checked whole: its index, and its least and greatest
        columns, in range."""
        m = cls(rows, cols)
        for r, line in lines:
            if r in m._rows or not 0 <= r < rows or line and not (
                    0 <= min(line) and max(line) < cols):
                raise ValueError(f"row {r} repeats or leaves {rows}x{cols}")
            if line:
                m._rows[r] = (line if type(line) is MappingProxyType
                              else MappingProxyType(line))
        return m

    @classmethod
    def from_dict(cls, rows: int, cols: int,
                  data: Mapping[tuple[int, int], object]) -> "SparseMatrix":
        return cls(rows, cols, [(r, c, v) for (r, c), v in data.items()])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols)

    def entries(self):
        """Iterate (row, col, value) over nonzero entries, sorted."""
        for r in sorted(self._rows):
            row = self._rows[r]
            for c in sorted(row):
                yield r, c, row[c]

    def __getitem__(self, key: tuple[int, int]) -> int | Fraction:
        r, c = key
        return self._rows.get(r, _EMPTY).get(c, 0)

    def nnz(self) -> int:
        return sum(map(len, self._rows.values()))

    def is_zero(self) -> bool:
        return not self._rows

    def transpose(self) -> "SparseMatrix":
        """The transpose, a new matrix: its row c is column c of this
        one, rows ascending."""
        return SparseMatrix(self.cols, self.rows,
                            ((c, r, v) for r, c, v in self.entries()))

    def row(self, r: int) -> Mapping[int, Fraction]:
        """Row r as a read-only sparse vector {col: value}."""
        return self._rows.get(r, _EMPTY)

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        # one dict.get per product term; entries that cancelled to zero
        # are left out, so a vanishing product costs no construction
        entries = []
        for r in sorted(self._rows):
            acc: dict[int, Fraction] = {}
            get = acc.get
            for k, v in self._rows[r].items():
                for c, w in other.row(k).items():
                    acc[c] = get(c, 0) + v * w
            entries.extend((r, c, w) for c, w in acc.items() if w)
        return SparseMatrix(self.rows, other.cols, entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries())))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


def _int_row(row: Mapping) -> dict[int, int]:
    """A new {col: int} copy of a sparse vector, scaled by the lcm of its
    denominators (a span is invariant under row scaling)."""
    row = dict(row)
    for v in row.values():
        if type(v) is not int:
            denom = lcm(*(v.denominator for v in row.values()))
            return {c: int(v * denom) for c, v in row.items()}
    return row


def _int_rows(m: SparseMatrix, skip: Iterable[int] = ()) -> list[dict]:
    """The stored rows of m not in ``skip``, ascending, as int rows."""
    return [_int_row(m._rows[r]) for r in sorted(m._rows.keys() - skip)]


def _reduced(row: dict[int, int], kept: dict, pick) -> tuple[dict, int]:
    """The elimination step: ``row`` reduced against the kept rows
    {pivot: row} until it is zero or its ``pick`` column is no pivot;
    returns what is left and that column (None for a zero row)."""
    while row:
        pc = pick(row)
        p = kept.get(pc)
        if p is None:
            return row, pc
        pv, a = p[pc], row[pc]
        if pv == 1 or pv == -1:
            add_scaled(row, p, -a * pv)
        else:
            g = gcd(pv, a)
            row = {c: v * (pv // g) for c, v in row.items()}
            add_scaled(row, p, -(a // g))
            g = gcd(*row.values())
            if g > 1:
                row = {c: v // g for c, v in row.items()}
    return row, None


def _reduce(rows: Iterable[dict[int, int]], pick,
            pivots: list[int] | None = None) -> dict[int, dict[int, int]]:
    """Each nonzero residual kept under its ``pick`` column, which is
    appended to ``pivots`` if given: an echelon basis {pivot: row}."""
    kept: dict[int, dict[int, int]] = {}
    for row in rows:
        row, pc = _reduced(row, kept, pick)
        if row:
            kept[pc] = row
            if pivots is not None:
                pivots.append(pc)
    return kept


def rank(m: SparseMatrix, skip: Iterable[int] = (),
         pivots: list[int] | None = None) -> int:
    """Exact rank over the rationals by the standard reduction (see the
    module docstring).  Deterministic.

    The rows whose indices are in ``skip`` are left out, so this is the
    rank of m with those rows deleted.  Given a list ``pivots``, the
    pivot column of each kept row is appended to it, in row order; m
    restricted to them has full column rank.
    """
    return len(_reduce(_int_rows(m, skip), max, pivots))


def rref(m: SparseMatrix) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form over the rationals: (rows, pivot_cols),
    pivots ascending, each row a sparse dict with 1 at its pivot and 0
    at every other pivot (see the module docstring).  Used where
    explicit bases are needed.
    """
    kept = _reduce(_int_rows(m), min)
    done: dict[int, dict] = {}
    for pc in sorted(kept, reverse=True):
        row = kept[pc]
        # a done row is 0 at the other done pivots, so each clearing
        # leaves the row's entries there alone
        for c, a in [(c, a) for c, a in row.items() if c in done]:
            add_scaled(row, done[c], -a)
        inv = 1 / Fraction(row[pc])  # exact: never int / int
        done[pc] = {c: as_exact(v * inv) for c, v in row.items()}
    pivots = sorted(done)
    return [done[pc] for pc in pivots], pivots


def nullspace(m: SparseMatrix) -> list[dict[int, int | Fraction]]:
    """A basis of the right kernel, one sparse dict per basis vector."""
    rows, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = {f: 1}
        for row, pc in zip(rows, pivots):
            a = row.get(f)
            if a:
                vec[pc] = -a
        basis.append(vec)
    return basis


def solve_in_span(span: list[dict[int, Fraction]],
                  target: dict[int, Fraction]) -> list[Fraction] | None:
    """Express ``target`` as a combination of ``span`` vectors.

    Returns coefficients or None when target is outside the span.
    Vectors are sparse dicts index -> Fraction over nonnegative basis
    indices, which serve as the matrix's own row indices.
    """
    n = len(span)
    if n == 0:
        return [] if not any(target.values()) else None
    # solve A^T c = t by eliminating on the augmented transpose
    entries = [(i, j, x) for j, v in enumerate(span) for i, x in v.items()]
    entries += [(i, n, x) for i, x in target.items()]
    rows = 1 + max((i for i, _, _ in entries), default=-1)
    rrows, pivots = rref(SparseMatrix(rows, n + 1, entries))
    if n in pivots:
        return None
    coeffs = [Fraction(0)] * n
    for row, pc in zip(rrows, pivots):
        coeffs[pc] = row.get(n, Fraction(0))
    # verify (cheap at desk scale, guards against bad input)
    check: dict[int, Fraction] = {}
    for c, v in zip(coeffs, span):
        if c:
            add_scaled(check, v, c)
    tgt = {i: as_exact(x) for i, x in target.items() if x}
    if check != tgt:
        return None
    return coeffs


def span_rank(vectors: list[dict[int, Fraction]]) -> int:
    """Rank of the span of sparse vectors over nonnegative basis
    indices, which serve as the matrix's own column indices."""
    if not vectors:
        return 0
    entries = [(r, i, x) for r, v in enumerate(vectors) for i, x in v.items()]
    cols = 1 + max((i for _, i, _ in entries), default=-1)
    return rank(SparseMatrix(len(vectors), cols, entries))


def span_basis(vectors: Iterable[Mapping]) -> dict[int, dict[int, int]]:
    """An echelon basis of the span of sparse vectors, {pivot: row}: the
    rows ``rank`` keeps, for ``in_span`` to reduce against."""
    return _reduce(map(_int_row, vectors), max)


def in_span(basis: dict[int, dict[int, int]], vector: Mapping) -> bool:
    """Whether a sparse vector lies in the span ``span_basis`` gave:
    whether reducing it against the basis rows leaves nothing."""
    return not _reduced(_int_row(vector), basis, max)[0]


def cleared_ranks(count: int, boundary) -> list[int]:
    """The rank of ``boundary(k, cleared)`` for k = 0, ..., count - 1 by
    clearing: ``cleared`` lists the previous one's pivot columns, rows
    it need not hold and that are left out of its rank (see the module
    docstring).  Exact only if each boundary's product with the next is
    known to vanish before the next is ranked.  Only the pivots are
    kept, so a boundary is dropped once it is ranked."""
    out, cleared = [], []
    for k in range(count):
        pivots: list[int] = []
        out.append(rank(boundary(k, cleared), cleared, pivots))
        cleared = pivots
    return out


class ChainComplex:
    """A finite chain complex of rational vector spaces.

    ``spaces[i]`` is the dimension in degree i and ``boundaries[i]``
    maps degree i+1 to degree i (differentials lower degree by one).
    The composite of consecutive boundaries must vanish; construction
    checks it, and both are kept as tuples so that nothing changes a
    boundary after the check.
    """

    def __init__(self, spaces: list[int], boundaries: list[SparseMatrix]):
        if len(boundaries) != max(len(spaces) - 1, 0):
            raise ValueError("need one boundary per adjacent degree pair")
        for i, b in enumerate(boundaries):
            if b.rows != spaces[i] or b.cols != spaces[i + 1]:
                raise ValueError(
                    f"boundary {i} has shape {b.rows}x{b.cols}, "
                    f"expected {spaces[i]}x{spaces[i + 1]}")
        for i in range(len(boundaries) - 1):
            prod = boundaries[i].matmul(boundaries[i + 1])
            if not prod.is_zero():
                r, c, v = next(prod.entries())
                raise ComplexError(
                    f"d.d != 0 at degree {i + 2}: entry ({r},{c}) = {v}")
        self.spaces = tuple(spaces)
        self.boundaries = tuple(boundaries)

    def ranks(self) -> list[int]:
        """Rank of each boundary by ``cleared_ranks``, exact because
        construction checked every product before any rank."""
        return cleared_ranks(len(self.boundaries),
                             lambda k, _: self.boundaries[k])

    def homology(self) -> list[int]:
        """Betti number per degree; zero maps off both ends.  The ranks
        come from ``ranks``, so they rely on construction's d.d = 0
        check."""
        ranks = [0, *self.ranks(), 0]
        return [dim - ranks[i] - ranks[i + 1]
                for i, dim in enumerate(self.spaces)]
