"""Cooperads and the cobar construction on decorated trees.

A cooperad here is the linear dual of a finite-type operad in degree
zero; the cobar complex of its reduced part is spanned by rooted trees
whose internal vertices carry cooperad basis functionals.  The
differential expands one vertex at a time and is graded by internal
edge count, which it raises by one; equivalently it lowers the operadic
degree (arity - 2 - edges) by one.

``Cooperad.cocompose``, the transpose of composition along a subset, is
the one cocomposition.  The basis is indexed per tree shape, with no
``Tree`` built: a tree's decorations follow one another in mixed-radix
order, so a place is the tree's first place plus arithmetic.  Expanding
a vertex compares no leaf label, so the boundary is computed once per tree skeleton, each
tree looks up where its targets start, and its rows go as dicts
straight into one ``SparseMatrix``.  The same fact lets d.d = 0 be
checked on one tree per skeleton, so ``homology`` streams, building of
each boundary only the rows that its rank and its checks read (it gives
the argument); ``chain_complex`` builds every boundary whole and
multiplies each adjacent pair in full, and the tests check that the two
agree.

The decorated trees also assemble into a graded operad under grafting,
with Koszul signs from reordering the vertex generators (a vertex of
arity m is a generator of degree m - 2); ``graft`` and ``relabel_tree``
say where each vertex went, so no vertex is matched here.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import itemgetter, mul

from . import InputError
from .qlinalg import (ChainComplex, ComplexError, SparseMatrix, addmul,
                      as_exact, cleared_ranks)
from .operads import (GradedOperad, GradedSpace, Vector, koszul_sign,
                      perm_inverse)
from .treegraph import (Tree, encode_tree, enumerate_trees, graft,
                        relabel_tree, skeleton, skeleton_expansions,
                        tree_shapes, vertex_arities)


class CobarError(InputError):
    pass


# ---------------------------------------------------------------------------
# Cooperads as duals of operads


class Cooperad:
    """Linear dual of a degree-zero finite-type operad, on its arities.

    Cocompositions and the right symmetric action are transposes of the
    operad structure maps; tables are built lazily and cached.
    """

    def __init__(self, operad: GradedOperad):
        if any(d for n in operad.arities() for d in operad.space(n).degrees):
            raise CobarError("dual cooperads require degree-zero operads")
        self.operad = operad
        self.components = operad.components
        self._cotables: dict = {}
        self._act_rows: dict = {}

    def dim(self, n: int) -> int:
        return self.components[n].dim

    def space(self, n: int) -> GradedSpace:
        return self.components[n]

    def check_arity(self, n: int) -> None:
        """Refuse an arity with no cobar piece."""
        if n < 2:
            raise CobarError("cobar pieces start at arity 2")
        top = self.operad.max_arity
        if n > top:
            raise CobarError(f"cooperad only has components up to arity {top}")

    def cocompose(self, m: int, positions: tuple[int, ...]) -> dict:
        """{a0: {(a, b): coeff}} splitting the children at ``positions``
        (k ascending slots) off a vertex of arity m: the transpose of
        composing b (arity k) into a along ``positions``
        (``GradedOperad.compose_along``).  Integral coefficients are
        ints."""
        key = (m, positions)
        table = self._cotables.get(key)
        if table is None:
            composites = self.operad.compose_along(m, positions)
            table, db = {}, self.operad.dim(len(positions))
            for ab, v in enumerate(composites):
                for out, c in v.items():
                    table.setdefault(out, {})[divmod(ab, db)] = as_exact(c)
            self._cotables[key] = table
        return table

    def act(self, n: int, sigma: tuple[int, ...], a0: int) -> dict:
        """Right action on functionals: inverse transpose of the operad
        action, so that pairing with the operad is invariant."""
        key = (n, sigma)
        if key not in self._act_rows:
            inv = perm_inverse(sigma)
            rows: dict[int, dict] = {}
            for c in range(self.dim(n)):
                for out, v in self.operad.act_basis(n, inv, c).items():
                    rows.setdefault(out, {})[c] = v
            self._act_rows[key] = rows
        return self._act_rows[key].get(a0, {})


@lru_cache(maxsize=None)
def liec_cooperad(max_arity: int) -> Cooperad:
    from .operads import lie_operad
    return Cooperad(lie_operad(max_arity))


@lru_cache(maxsize=None)
def asc_cooperad(max_arity: int) -> Cooperad:
    from .operads import assoc_operad
    return Cooperad(assoc_operad(max_arity))


@lru_cache(maxsize=None)
def commc_cooperad(max_arity: int) -> Cooperad:
    from .operads import comm_operad
    return Cooperad(comm_operad(max_arity))


# ---------------------------------------------------------------------------
# Cobar complex on decorated trees


class CobarComplex:
    """The arity-n cobar complex of a cooperad, graded by edge count.

    ``basis`` lists the pairs (tree, decoration) by edge count, each
    tree's decorations in ``itertools.product`` order; it is built on
    first read, and ``homology`` reads only the layout, indexed from
    ``treegraph.tree_shapes``.  The layout is private, read through
    ``position`` and ``differential()``: count e starts at
    ``_offsets[e]``, and ``_index[e]`` maps each tree's flat key
    (skeleton id, *labels) (see ``treegraph.skeleton``), in enumeration
    order, to the place of its first decoration within its count, its
    first boundary row or column.  The product order is mixed radix, so
    a decoration's place is that plus its digits times its skeleton's
    strides, for ``position`` and the boundary alike.  Trees with one
    skeleton share its ``_layout[id]``: the skeleton, its vertex
    arities, its strides and its decorations."""

    def __init__(self, cooperad: Cooperad, n: int, sign_mode: str = "standard"):
        cooperad.check_arity(n)
        if sign_mode not in ("standard", "unsigned"):
            raise CobarError(f"unknown sign mode {sign_mode!r}")
        self.cooperad = cooperad
        self.n = n
        self.sign_mode = sign_mode
        self._basis = None  # built by ``basis`` on first read
        self._ids: dict = {}  # skeleton -> id
        # id -> (skeleton, vertex arities, strides, decorations)
        layout = self._layout = []
        self._index: list[dict] = []
        o = self._offsets = [0]
        for e in range(n - 1):
            index, size = {}, 0
            for shape in tree_shapes(n, e):
                skel, labels = skeleton(shape)
                sid = self._ids.setdefault(skel, len(layout))
                if sid == len(layout):
                    arities = vertex_arities(skel)
                    dims = [cooperad.dim(m) for m in arities]
                    # product order is mixed radix, the last vertex fastest
                    strides = [math.prod(dims[j + 1:])
                               for j in range(len(dims))]
                    layout.append((skel, arities, strides, list(
                        itertools.product(*map(range, dims)))))
                index[(sid, *labels)] = size
                size += len(layout[sid][3])
            self._index.append(index)
            o.append(o[-1] + size)

    @property
    def basis(self) -> list:
        """``enumerate_trees`` lists each count's trees in the order of
        ``_index``'s keys."""
        if self._basis is None:
            self._basis = [(t, decor) for e, index in enumerate(self._index)
                           for t, key in zip(enumerate_trees(self.n, e), index)
                           for decor in self._layout[key[0]][3]]
        return self._basis

    def position(self, tree, decor: tuple[int, ...]) -> int:
        """The place of (tree, decor) in ``basis``; KeyError if it is
        not a basis element (a digit out of range may reach another
        decoration, so the one at the computed place must be decor)."""
        skel, labels = skeleton(tree.shape)
        sid = self._ids[skel]
        _, _, strides, decorations = self._layout[sid]
        rel = sum(map(mul, decor, strides))
        if not 0 <= rel < len(decorations) or decorations[rel] != decor:
            raise KeyError(decor)
        e = tree.internal_edges
        return self._offsets[e] + self._index[e][(sid, *labels)] + rel

    def dims(self) -> dict[int, int]:
        o = self._offsets
        return {e: o[e + 1] - o[e] for e in range(self.n - 1)}

    def _skeleton_boundary(self, sid: int) -> tuple[list, list]:
        """The boundary shared by every tree with skeleton ``sid``: per
        expansion (target skeleton id, getter of the target's labels
        from a source's flat key), and per decoration in basis order its
        entries (expansion, column less the target tree's first column,
        value)."""
        skel, arities, _, decorations = self._layout[sid]
        nv = len(arities)  # the source's vertices; the new one is number nv
        targets = []
        rows = [[] for _ in decorations]
        for x, (vi, subset, target, places, order) in enumerate(
                skeleton_expansions(skel)):
            tsid = self._ids[target]
            tstrides = self._layout[tsid][2]
            # a flat key (id, *labels) holds the label at preorder
            # place p at index p
            targets.append((tsid, itemgetter(*places)))
            sign = 1
            if self.sign_mode == "standard":
                # orientation transport: sign of the shuffle taking
                # (source edges, new edge) to the target's canonical
                # edge order.  A non-root vertex stands for the edge
                # above it and the root heads both preorders, so
                # order[1:] is that shuffle or its inverse, which has
                # the same sign
                sign = koszul_sign(tuple(order[1:]), (1,) * nv)
            # the stride in the target of each source vertex, of a (the
            # decoration split off at vi) and of b (at the new vertex)
            at = {j: tstrides[k] for k, j in enumerate(order)}
            strides = [0 if j == vi else at[j] for j in range(nv)]
            sa, sb = at[vi], at[nv]
            table = self.cooperad.cocompose(arities[vi], subset)
            for row, decor in zip(rows, decorations):
                split = table.get(decor[vi])
                if split:
                    rest = sum(map(mul, decor, strides))
                    for (a, b), c in split.items():
                        row.append((x, rest + a * sa + b * sb, sign * c))
        return targets, rows

    def _rows(self, e: int, skip=()):
        """(row, {col: value}) for the rows of d on edge degree e, one per
        basis element x of degree e, holding d(x) in degree e + 1, rows
        ascending; the rows in ``skip`` are left out but at the skeleton
        trees (id, 1, ..., n).  Each tree places its skeleton's boundary
        through one index lookup per expansion.  Two entries of a row at
        one column raise ValueError."""
        sources, index = self._index[e:e + 2]
        labels = tuple(range(1, self.n + 1))
        # one int per column, shared by every row that names it
        cols = list(range(self._offsets[e + 2] - self._offsets[e + 1]))
        skeletons = {}
        for key, first in sources.items():
            sk = skeletons.get(key[0])
            if sk is None:
                sk = skeletons[key[0]] = self._skeleton_boundary(key[0])
            targets, rows = sk
            bases = [index[(tsid, *get(key))] for tsid, get in targets]
            left_out = skip if key[1:] != labels else ()
            for row, out in enumerate(rows, first):
                if row in left_out:
                    continue
                line = {cols[bases[x] + d]: c for x, d, c in out}
                if len(line) < len(out):
                    raise ValueError(f"row {row} of d on edge degree {e} "
                                     "names a column twice")
                yield row, line

    def _boundary(self, e: int, skip=()) -> SparseMatrix:
        """``boundary_matrix(e)`` without the rows in ``skip`` but the
        skeleton rows, its rows put straight into the store."""
        dims = self.dims()
        return SparseMatrix.from_rows(dims[e], dims[e + 1], self._rows(e, skip))

    def boundary_from(self, e: int) -> list[tuple[int, int, int]]:
        """Sparse entries (row, col, value) of ``boundary_matrix(e)``."""
        return list(self._boundary(e).entries())

    def boundary_matrix(self, e: int) -> SparseMatrix:
        """Transposed matrix of d from edge degree e to e + 1, one row
        per source.  Each (row, col) arises once: distinct expansions of
        a tree give distinct target trees, and the (a, b) keys of a
        cocomposition are distinct; ``_rows`` checks it row by row."""
        return self._boundary(e)

    def chain_complex(self) -> ChainComplex:
        """The dual complex, graded by edge count: ``boundaries[e]`` is
        ``boundary_matrix(e)``, mapping degree e + 1 to e, so the small
        corolla end is ranked first and every larger boundary is cleared
        (see ``qlinalg``).  Over the rationals it has the Betti numbers
        of d; construction validates d . d = 0, transposed, on every
        row.  ``homology`` ranks the same boundaries without it."""
        return ChainComplex(list(self.dims().values()),
                            [self.boundary_matrix(e)
                             for e in range(self.n - 2)])

    def differential(self) -> SparseMatrix:
        """d on the whole basis, rows as targets: ``boundary_from``'s
        entries, transposed and placed at their edge counts."""
        o = self._offsets
        return SparseMatrix(o[-1], o[-1], [
            (o[e + 1] + c, o[e] + r, v)
            for e in range(self.n - 2) for r, c, v in self.boundary_from(e)])

    def _skeleton_places(self, e: int):
        """The rows of edge degree e at the trees (id, 1, ..., n), the
        skeletons; each is a basis tree, so no KeyError is skipped."""
        index, labels = self._index[e], tuple(range(1, self.n + 1))
        for sid, (_, arities, _, decorations) in enumerate(self._layout):
            if len(arities) == e + 1:
                first = index[(sid, *labels)]
                yield from range(first, first + len(decorations))

    def _skeleton_rows(self, e: int, b: SparseMatrix) -> SparseMatrix:
        """The rows of ``b`` = ``boundary_matrix(e)`` at the skeleton
        trees (``_skeleton_places``), in place, its stored rows shared;
        every other row is left out."""
        return SparseMatrix.from_rows(b.rows, b.cols, (
            (r, b.row(r)) for r in self._skeleton_places(e)))

    def _check_square(self, e: int, kept: SparseMatrix,
                      b: SparseMatrix) -> None:
        """Raise ComplexError unless ``kept``, the skeleton rows of
        ``boundary_matrix(e)``, times ``b`` = ``boundary_matrix(e + 1)``
        vanishes; the error names the first skeleton tree and
        decoration whose d.d is not zero, found from its row alone."""
        prod = kept.matmul(b)
        if not prod.is_zero():
            r, c, v = next(prod.entries())
            index, labels = self._index[e], tuple(range(1, self.n + 1))
            for sid, (skel, _, _, decorations) in enumerate(self._layout):
                rel = r - index.get((sid, *labels), r + 1)
                if 0 <= rel < len(decorations):
                    break
            raise ComplexError(
                f"d.d != 0 from edge degree {e} to {e + 2}: skeleton tree "
                f"{encode_tree(Tree(skel))} with decoration "
                f"{decorations[rel]} has entry ({r},{c}) = {v}")

    def homology(self) -> dict[int, int]:
        """Betti numbers keyed by edge count, of the complex
        ``chain_complex()`` builds, streamed: ``qlinalg.cleared_ranks``
        hands each boundary the previous one's pivots, and it is built,
        checked, ranked and dropped.  Raises ComplexError if d.d != 0.

        A boundary builds three kinds of row: those off the previous
        pivots, which ``rank`` reads (the rows at them are combinations of
        the others: clearing, see ``qlinalg``); the skeleton rows, of the
        trees (id, 1, ..., n), kept for the next check; and those at the
        columns of the previous skeleton rows, which this check reads.

        The check is exact.  ``_rows`` writes the row of a tree
        (id, lambda) as the row of (id, 1, ..., n) with each target key
        (t, mu) replaced by (t, lambda o mu) at the same offset (the
        ``itemgetter(*places)`` lookup).  The row of (t, lambda o mu) is
        in turn the row of (t, mu) so relabelled, so d.d of (id, lambda)
        with decoration a is d.d of (id, 1, ..., n) with decoration a, each
        key (t', nu) replaced by (t', lambda o nu).  That relabelling is
        injective, so no terms cancel in one and not in the other: d.d = 0
        on the whole complex iff on the skeleton rows.  So too a row names
        a column twice or out of range iff its skeleton tree's row does;
        ``_rows`` and ``SparseMatrix.from_rows`` check each row whole."""
        kept = SparseMatrix(0, self.dims()[0])  # nothing before the first
        read = set()

        def boundary(e, cleared):
            nonlocal kept, read
            b = self._boundary(e, set(cleared) - read)
            self._check_square(e - 1, kept, b)
            kept = self._skeleton_rows(e, b)
            read = set().union(*map(kept.row, self._skeleton_places(e)))
            return b

        ranks = [0, *cleared_ranks(self.n - 2, boundary), 0]
        return {e: dim - ranks[e] - ranks[e + 1]
                for e, dim in self.dims().items()}


def cobar_dims(cooperad: Cooperad, n: int) -> dict[int, int]:
    """Dimension of each edge-graded piece of the arity-n cobar complex,
    counted without its basis: a tree whose vertices have arities m_1,
    m_2, ... carries prod dim C(m_i) decorations.  The trees are still
    enumerated, as shapes, so `strata.middle_row`, which compares these
    numbers with the counted genus-0 census, checks a count against an
    enumeration."""
    cooperad.check_arity(n)
    return {e: sum(math.prod(map(cooperad.dim, vertex_arities(s)))
                   for s in tree_shapes(n, e))
            for e in range(n - 1)}


def cobar_homology(cooperad: Cooperad, n: int) -> dict[int, int]:
    """Betti numbers of the arity-n cobar complex, keyed by edge count.

    Raises ComplexError if the differential does not square to zero
    (which is how a wrong sign convention announces itself).
    """
    return CobarComplex(cooperad, n).homology()


# ---------------------------------------------------------------------------
# The cobar construction as a graded operad


class CobarOperad(GradedOperad):
    """Decorated trees under grafting, with the cobar differential.

    The arity-n component is spanned by trees with n leaves and cooperad
    basis decorations; a basis element with e internal edges sits in
    degree n - 2 - e.  Composition grafts trees (one new edge appears,
    and the degree is additive); the action relabels leaves, reorders
    each vertex's inputs through the cooperad action and picks up the
    Koszul sign of reordering the vertex generators.
    """

    def __init__(self, cooperad: Cooperad, max_arity: int):
        self.cooperad = cooperad
        # the complexes own each arity's basis and refuse a bad arity
        self.complexes = {}
        components = {}
        diffs = {}
        for n in range(2, max_arity + 1):
            cx = self.complexes[n] = CobarComplex(cooperad, n)
            names = []
            degrees = []
            for t, decor in cx.basis:
                sp_names = [cooperad.space(m).names[d]
                            for d, m in zip(decor, t.vertex_arities())]
                names.append(f"{encode_tree(t)}[{';'.join(sp_names)}]")
                degrees.append(n - 2 - t.internal_edges)
            components[n] = GradedSpace(tuple(names), tuple(degrees))
            diffs[n] = cx.differential()
        # arity 1: the bare leaf, in degree 0
        components[1] = GradedSpace(("|",), (0,))
        super().__init__(components, {0: 1}, diffs)

    def compose_basis(self, n, i, m, a, b) -> Vector:
        if m == 1:
            return {a: 1}
        if n == 1:
            return {b: 1}
        t, dt = self.complexes[n].basis[a]
        s, ds = self.complexes[m].basis[b]
        grafted, verts = graft(t, i, s)
        sign = _reorder_sign(verts, t.vertex_arities() + s.vertex_arities())
        decor = dt + ds
        decor = tuple(decor[src] for src, _ in verts)
        return {self.complexes[n + m - 1].position(grafted, decor): sign}

    def act_basis(self, n, sigma, a) -> Vector:
        if n == 1:
            return {a: 1}
        cx = self.complexes[n]
        t, dt = cx.basis[a]
        new_tree, verts = relabel_tree(
            t, {j: sigma[j - 1] for j in range(1, n + 1)})
        sign = _reorder_sign(verts, t.vertex_arities())
        # each vertex's decoration is acted on by the inverse of tau,
        # which maps its new child slots to its old ones, so that the
        # action is one of S_n: x.(g h) = (x.h).g
        slots = [self.cooperad.act(len(tau), perm_inverse(tau), dt[src])
                 for src, tau in verts]
        out: Vector = {}
        for combo in itertools.product(*(f.items() for f in slots)):
            decor = tuple(c for c, _ in combo)
            coeff = sign
            for _, v in combo:
                coeff *= v
            addmul(out, cx.position(new_tree, decor), coeff)
        return out


def _reorder_sign(verts, arities) -> int:
    """Koszul sign of reordering the vertex generators (a vertex of
    arity m has degree m - 2), listed in source order with the given
    arities, into the rebuilt tree's preorder ``verts``."""
    return koszul_sign(tuple(src + 1 for src, _ in verts),
                       tuple(m - 2 for m in arities))


cobar_operad = CobarOperad
