"""Cooperads and the cobar construction on decorated trees.

A cooperad here is the linear dual of a finite-type operad in degree
zero; the cobar complex of its reduced part is spanned by rooted trees
whose internal vertices carry cooperad basis functionals.  The
differential expands one vertex at a time and is graded by internal
edge count, which it raises by one; equivalently it lowers the operadic
degree (arity - 2 - edges) by one.

``Cooperad.cocompose`` is the one cocomposition; ``boundary_from`` reads
it, and its entries go straight into one ``SparseMatrix`` per boundary.
The basis is indexed per tree, not per decorated tree: a tree's
decorations follow one another in mixed-radix order, so a place is the
tree's first place plus arithmetic.  Expanding a vertex compares no
leaf label, so the boundary is computed once per tree skeleton and
each tree only looks up where its targets start.

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
from .qlinalg import SparseMatrix, ChainComplex, addmul, as_exact
from .operads import (GradedOperad, GradedSpace, Vector, koszul_sign,
                      perm_inverse)
from .treegraph import (encode_tree, enumerate_trees, graft, relabel_tree,
                        skeleton, skeleton_expansions)


class CobarError(InputError):
    pass


# ---------------------------------------------------------------------------
# Cooperads as duals of operads


def _block_insertion_perm(m: int, positions: tuple[int, ...]) -> tuple[int, ...]:
    """Permutation aligning standard composition slots with a child
    subset.  Slots 1..i*-1 stay put (i* = min position), the inner block
    goes to the chosen positions, remaining slots fill the complement."""
    i_star = positions[0]
    rest = [p for p in range(1, m + 1) if p not in positions and p > i_star]
    sigma = list(range(1, i_star))
    sigma.extend(positions)
    sigma.extend(rest)
    return tuple(sigma)


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
        composing b (arity k) into a at slot min(positions), then moving
        the block's inputs to ``positions``.  Integral coefficients are
        ints."""
        key = (m, positions)
        table = self._cotables.get(key)
        if table is None:
            k = len(positions)
            sigma = _block_insertion_perm(m, positions)
            O = self.operad
            table = {}
            for a in range(O.dim(m - k + 1)):
                for b in range(O.dim(k)):
                    composed = O.compose_basis(m - k + 1, positions[0], k, a, b)
                    for out, c in O.act(m, sigma, composed).items():
                        table.setdefault(out, {})[(a, b)] = as_exact(c)
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
    tree's decorations in ``itertools.product`` order.  Its layout is
    private, read through ``position`` and ``differential()``: count e
    starts at ``_offsets[e]``, and ``_index[e]`` maps each tree's flat
    key (skeleton id, *labels) (see ``treegraph.skeleton``) to the place
    of its first decoration within its count, its first boundary row or
    column.  The product order is mixed radix, so a decoration's place
    is that plus its digits times its skeleton's strides, for
    ``position`` and the boundary alike.  Trees with one skeleton share
    its ``_layout[id]``: the skeleton, its vertex arities, its strides
    and its decorations."""

    def __init__(self, cooperad: Cooperad, n: int, sign_mode: str = "standard"):
        cooperad.check_arity(n)
        if sign_mode not in ("standard", "unsigned"):
            raise CobarError(f"unknown sign mode {sign_mode!r}")
        self.cooperad = cooperad
        self.n = n
        self.sign_mode = sign_mode
        self.basis: list = []
        self._ids: dict = {}  # skeleton -> id
        # id -> (skeleton, vertex arities, strides, decorations)
        layout = self._layout = []
        self._index: list[dict] = []
        o = self._offsets = [0]
        for e in range(n - 1):
            index = {}
            for t in enumerate_trees(n, e):
                skel, labels = skeleton(t.shape)
                sid = self._ids.setdefault(skel, len(layout))
                if sid == len(layout):
                    arities = t.vertex_arities()
                    dims = [cooperad.dim(m) for m in arities]
                    # product order is mixed radix, the last vertex fastest
                    strides = [math.prod(dims[j + 1:])
                               for j in range(len(dims))]
                    layout.append((skel, arities, strides, list(
                        itertools.product(*map(range, dims)))))
                index[(sid, *labels)] = len(self.basis) - o[e]
                self.basis.extend(zip(itertools.repeat(t), layout[sid][3]))
            self._index.append(index)
            o.append(len(self.basis))

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

    def boundary_from(self, e: int) -> list[tuple[int, int, int]]:
        """Sparse entries (row, col, value) of d on edge degree e: one row
        per basis element x of edge degree e, holding d(x), whose columns
        live in degree e + 1.  Each tree reads its skeleton's boundary
        and places it through one index lookup per expansion."""
        entries = []
        append = entries.append
        sources, index = self._index[e:e + 2]
        # one int per column, shared by every entry that names it
        cols = list(range(self._offsets[e + 2] - self._offsets[e + 1]))
        skeletons = {}
        for key, first in sources.items():
            sk = skeletons.get(key[0])
            if sk is None:
                sk = skeletons[key[0]] = self._skeleton_boundary(key[0])
            targets, rows = sk
            bases = [index[(tsid, *labels(key))] for tsid, labels in targets]
            for row, out in enumerate(rows, first):
                for x, d, c in out:
                    append((row, cols[bases[x] + d], c))
        return entries

    def boundary_matrix(self, e: int) -> SparseMatrix:
        """Transposed matrix of d from edge degree e to e + 1, one row
        per source.  Each (row, col) arises once: distinct expansions of
        a tree give distinct target trees, and the (a, b) keys of a
        cocomposition are distinct; the constructor rejects a duplicate,
        so this is checked."""
        dims = self.dims()
        return SparseMatrix(dims[e], dims[e + 1], self.boundary_from(e))

    def chain_complex(self) -> ChainComplex:
        """The dual complex, graded by edge count: ``boundaries[e]`` is
        ``boundary_matrix(e)``, mapping degree e + 1 to e, so the small
        corolla end is ranked first and every larger boundary is cleared
        (see ``qlinalg``).  Over the rationals it has the Betti numbers
        of d; construction validates d . d = 0, transposed."""
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

    def homology(self) -> dict[int, int]:
        """Betti numbers keyed by edge count."""
        return dict(enumerate(self.chain_complex().homology()))


def cobar_dims(cooperad: Cooperad, n: int) -> dict[int, int]:
    """Dimension of each edge-graded piece of the arity-n cobar complex,
    counted without its basis: a tree whose vertices have arities m_1,
    m_2, ... carries prod dim C(m_i) decorations.  The trees are still
    enumerated, so `strata.middle_row`, which compares these numbers
    with the counted genus-0 census, checks a count against an
    enumeration."""
    cooperad.check_arity(n)
    return {e: sum(math.prod(map(cooperad.dim, t.vertex_arities()))
                   for t in enumerate_trees(n, e))
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
        # each vertex's decoration is acted on by tau, which maps its
        # new child slots to its old ones
        slots = [self.cooperad.act(len(tau), tau, dt[src])
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


def cobar_operad(cooperad: Cooperad, max_arity: int) -> CobarOperad:
    return CobarOperad(cooperad, max_arity)
