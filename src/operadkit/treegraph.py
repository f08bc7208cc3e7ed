"""Trees indexing genus-0 strata.

Trees are rooted, with leaves labeled 1..n and every internal vertex
having at least two children.  Equality is up to reordering of inputs,
so each tree is stored in a canonical form: children sorted by the
minimal leaf label of their subtree.  A tree of arity n corresponds to
an (n+1)-leg genus-0 stable graph with the root as leg n+1.

Enumeration builds each canonical shape exactly once.  The shapes on a
label set are the set partitions of it into at least two blocks, one
child per block (a leaf, or recursively a shape on the block).
Partitions grown by restricted growth list their blocks in order of
least label, so every product of child shapes is already canonical and
no two partitions give the same shape.  A shape's internal edge count
is the sum over its children (a subtree child adds one plus its own), so
shapes are grouped by edge count as they are built.  Within a group the
order is by children in turn: a leaf before a subtree, leaves by label,
subtrees recursively by their children, and a vertex whose children run
out first before one with more.  The generator is memoised per label
set and keeps the shapes alone (a group's order tokens live only while
it is sorted); `enumerate_trees` and `enumerate_trees_all` look into
it, and `tree_shapes` hands out its shapes with no `Tree` built.  A
vertex is named by its preorder index, the one vertex naming here.
Every rebuilt tree comes from one of two walks over a shape whose
vertices are tagged with that index.  `_rebuild` sorts children
back into canonical order for `Tree(...)`, `graft` and `relabel_tree`,
reporting where each vertex and its children came from.  A tree's
skeleton is its canonical shape with the leaves numbered in preorder
(a planar tree, or associahedron cell: 197 of them against 2,752 trees
at n = 6); ``skeleton`` splits a shape into its skeleton and its labels
in preorder.  The cobar boundary expands skeletons, not trees, by the
walk that keeps order: ``skeleton_expansions`` walks the tagged
skeleton once per expansion, in the target's preorder.  It compares no
label, so every tree with that skeleton expands the same way with its
labels carried along.  Stable graphs live in ``stablegraphs``, whose
names this module exports too, loaded on first use.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache
from operator import itemgetter

from . import InputError, load_on_first_use


class TreeError(InputError):
    pass


# A tree shape is a leaf label (int) or a tuple of >= 2 child shapes.

_TOO_DEEP = "tree nested too deep: its walks pass the recursion limit"


class Tree:
    """A rooted tree with numbered leaves, canonical under input reordering."""

    __slots__ = ("shape", "arity", "internal_edges")

    def __init__(self, shape):
        """Validate outside input: ``_tagged`` refuses an item that is
        neither an int leaf nor a tuple or list of children, ``_rebuild``
        sorts children by least leaf and refuses unary vertices, and the
        leaves must be exactly 1..n.  Both walks recurse once per
        level, so a tree nested past the recursion limit is a
        TreeError."""
        if type(shape) is int:
            raise TreeError("a tree must have at least one internal vertex")
        leaves: list[int] = []
        try:
            self.shape, verts = _rebuild(_tagged(
                shape, lambda x: leaves.append(x) or x, itertools.count()))
        except RecursionError:
            raise TreeError(_TOO_DEEP) from None
        n = len(leaves)
        leaves.sort()
        if leaves != list(range(1, n + 1)):
            raise TreeError(f"leaves must be exactly 1..{n}, got {leaves}")
        self.arity, self.internal_edges = n, len(verts) - 1

    @classmethod
    def _from_canonical(cls, shape, arity: int, internal_edges: int) -> Tree:
        """Wrap a shape the generator built canonical, with its known
        arity and edge count, without checking them again."""
        t = object.__new__(cls)
        t.shape, t.arity, t.internal_edges = shape, arity, internal_edges
        return t

    def __eq__(self, other):
        return isinstance(other, Tree) and self.shape == other.shape

    def __hash__(self):
        return hash(self.shape)

    def __repr__(self):
        return f"Tree({encode_tree(self)!r})"

    def vertex_arities(self) -> list[int]:
        """Number of children of each internal vertex, preorder."""
        return vertex_arities(self.shape)


def vertex_arities(shape) -> list[int]:
    """Number of children of each internal vertex of a shape, preorder."""
    return _arities(shape, [])


def _arities(shape, out: list) -> list:
    out.append(len(shape))
    for c in shape:
        if type(c) is not int:
            _arities(c, out)
    return out


# Order tokens: a subtree is _OPEN, its children's tokens, _CLOSE, and
# a leaf is its label.  As _CLOSE < every label < _OPEN and no shape's
# tokens are a proper prefix of another's, comparing token lists
# compares shapes in enumeration order.
_OPEN, _CLOSE = sys.maxsize, 0


def _tokens(shape, out: list) -> list:
    out.append(_OPEN)
    for c in shape:
        if type(c) is int:
            out.append(c)
        else:
            _tokens(c, out)
    out.append(_CLOSE)
    return out


def _set_partitions(labels: tuple[int, ...]) -> list[tuple]:
    """Partitions of the labels into at least two blocks, each block
    ascending and the blocks in order of least label."""
    parts = [((labels[0],),)]
    for x in labels[1:]:
        parts = ([p[:i] + (p[i] + (x,),) + p[i + 1:]
                  for p in parts for i in range(len(p))]
                 + [p + ((x,),) for p in parts])
    return [p for p in parts if len(p) >= 2]


@lru_cache(maxsize=None)
def _shapes(labels: tuple[int, ...]) -> tuple[tuple, ...]:
    """Canonical shapes on the ascending labels (at least two): entry e
    holds the shapes with e internal edges in enumeration order.  Their
    order tokens live only while a group is sorted, so the memo holds
    shapes alone."""
    by_edges: list[list] = [[] for _ in range(len(labels) - 1)]
    for blocks in _set_partitions(labels):
        # per block and edge count: (edges added, child shapes)
        options = [((0, b),) if len(b) == 1 else
                   tuple((e + 1, kids) for e, kids in enumerate(_shapes(b)))
                   for b in blocks]
        for choice in itertools.product(*options):
            by_edges[sum(c[0] for c in choice)].extend(
                itertools.product(*(c[1] for c in choice)))
    return tuple(tuple(sorted(bucket, key=lambda s: _tokens(s, [])))
                 for bucket in by_edges)


def _generated(n: int) -> tuple[tuple, ...]:
    if n < 2:
        raise TreeError("arity must be >= 2")
    return _shapes(tuple(range(1, n + 1)))


def tree_shapes(n: int, e: int) -> tuple:
    """The memoised shapes of ``enumerate_trees(n, e)``, in its order;
    out-of-range e gives an empty tuple."""
    groups = _generated(n)
    return groups[e] if 0 <= e < len(groups) else ()


def enumerate_trees(n: int, e: int) -> list[Tree]:
    """All isomorphism classes of n-trees with exactly e internal edges.

    Each is built once, canonical, by the memoised generator (see the
    module docstring for how, and for the order).  Out-of-range e gives
    an empty list.
    """
    return [Tree._from_canonical(s, n, e) for s in tree_shapes(n, e)]


def enumerate_trees_all(n: int) -> dict[int, list[Tree]]:
    """Trees of arity n grouped by internal edge count."""
    return {e: [Tree._from_canonical(s, n, e) for s in shapes]
            for e, shapes in enumerate(_generated(n))}


def _rebuild(tagged) -> tuple[tuple, list]:
    """The walk that sorts: canonicalize a tagged shape (leaves are
    labels, a vertex is (tag, children)), refusing a vertex with fewer
    than two children.  Returns the canonical shape and per vertex in
    preorder (tag, positions): the 1-based input positions of its
    children in canonical order."""

    def walk(s):  # -> (canonical shape, least leaf, vertices in preorder)
        if type(s) is int:
            return s, s, ()
        tag, children = s
        if len(children) < 2:
            raise TreeError("internal vertices need at least two inputs")
        kids = sorted(((p, *walk(c)) for p, c in enumerate(children, 1)),
                      key=itemgetter(2))
        verts = [(tag, tuple(k[0] for k in kids))]
        for k in kids:
            verts.extend(k[3])
        return tuple(k[1] for k in kids), kids[0][2], verts

    shape, _, verts = walk(tagged)
    return shape, verts


def _tagged(shape, leaf, tags):
    """shape with each vertex as (next preorder tag, children) and each
    leaf label x as leaf(x).  An item that is neither an int leaf nor a
    tuple or list of children is a TreeError."""
    if type(shape) is int:
        return leaf(shape)
    if not isinstance(shape, (tuple, list)):
        raise TreeError(f"bad tree item {shape!r}: a leaf is an int and a "
                        "vertex a tuple or list of children")
    return next(tags), tuple(_tagged(c, leaf, tags) for c in shape)


def relabel_tree(t: Tree, mapping: dict[int, int]) -> tuple[Tree, list]:
    """Relabel leaves through a bijection of 1..n and recanonicalize.

    Returns the tree and its vertices in preorder as (t's vertex
    preorder index, positions): positions[p - 1] is the old child slot
    of the vertex's new child p.
    """
    leaves = set(range(1, t.arity + 1))
    if set(mapping) != leaves or set(mapping.values()) != leaves:
        raise TreeError(f"relabelling must be a bijection of 1..{t.arity}")
    shape, verts = _rebuild(_tagged(t.shape, mapping.__getitem__,
                                    itertools.count()))
    return Tree._from_canonical(shape, t.arity, t.internal_edges), verts


def graft(t: Tree, i: int, s: Tree) -> tuple[Tree, list]:
    """Operadic grafting: plug s into leaf i of t.

    Leaves follow the usual composition convention: t's leaves below i
    keep their labels, s's leaves shift to i..i+arity(s)-1, and t's
    leaves above i shift up by arity(s)-1.  Returns the tree and its
    vertices in preorder as (source, positions), as for relabel_tree: a
    source below t's vertex count is t's vertex preorder index, and t's
    vertex count plus j is s's vertex j.
    """
    n, m = t.arity, s.arity
    if not (1 <= i <= n):
        raise TreeError(f"graft index {i} out of range 1..{n}")
    inner = _tagged(s.shape, lambda j: j + i - 1,
                    itertools.count(t.internal_edges + 1))
    outer = _tagged(t.shape, lambda j: inner if j == i
                    else j if j < i else j + m - 1, itertools.count())
    shape, verts = _rebuild(outer)
    return Tree._from_canonical(shape, n + m - 1, len(verts) - 1), verts


def _skeleton(shape, labels: list):
    out = []
    for c in shape:
        if type(c) is int:
            labels.append(c)
            out.append(len(labels))
        else:
            out.append(_skeleton(c, labels))
    return tuple(out)


def skeleton(shape) -> tuple[tuple, tuple[int, ...]]:
    """Split a canonical shape into its skeleton and its labels.

    The skeleton numbers the leaves 1..n in preorder, which keeps it
    canonical; the labels are the leaf labels in preorder, so the shape
    is the skeleton with leaf p replaced by labels[p - 1]."""
    labels: list[int] = []
    return _skeleton(shape, labels), tuple(labels)


def skeleton_expansions(skel):
    """Every tree that contracts to the skeleton along one edge, as a
    skeleton and where its leaves come from.

    Yields (vertex, positions, target, places, order) for each internal
    vertex (its preorder index) and each ascending tuple of at least
    two, not all, of its 1-based child positions.  The expansion groups
    those children under a new vertex; ``target`` is its skeleton,
    ``places`` the source preorder place of each of its leaves in
    preorder, and ``order`` lists its vertices in preorder by their
    index in the source (the new vertex is one past the last).  The
    new vertex takes the place of its first child, whose least leaf it
    shares, so no vertex's leaf set and no order changes: each expansion
    is one walk over the tagged skeleton, sorting nothing and comparing
    no label.  So a tree with this skeleton and labels L expands, at the
    same vertex and positions, to ``target`` with labels L[p - 1] for p
    in ``places``, with the same ``order``.
    """
    arities = vertex_arities(skel)
    tagged = _tagged(skel, int, itertools.count())  # leaves: their places
    new = len(arities)

    def walk(s):  # -> s's part of the target, for j and positions
        if type(s) is int:
            places.append(s)
            return len(places)
        tag, children = s
        order.append(tag)
        if tag != j:
            return tuple(map(walk, children))
        out = []
        for p, c in enumerate(children, 1):
            if p == positions[0]:
                order.append(new)
                out.append(tuple(walk(children[q - 1]) for q in positions))
            elif p not in positions:
                out.append(walk(c))
        return tuple(out)

    for j, m in enumerate(arities):
        for k in range(2, m):
            for positions in itertools.combinations(range(1, m + 1), k):
                places, order = [], []
                target = walk(tagged)
                yield j, positions, target, tuple(places), order


def encode_tree(t: Tree) -> str:
    """Canonical text encoding: nested parenthesized leaf lists, which is
    the shape's tuple repr without spaces (no vertex has one child, so
    no repr has a trailing comma)."""
    return repr(t.shape).replace(" ", "")


def decode_tree(text: str) -> Tree:
    """Parse the nested parenthesized encoding back into a Tree; a leaf
    label is a run of the ASCII digits 0-9."""
    pos = 0

    def parse():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            children = [parse()]
            while text[pos] == ",":
                pos += 1
                children.append(parse())
            if text[pos] != ")":
                raise TreeError(f"expected ')' at position {pos}")
            pos += 1
            return tuple(children)
        start = pos
        while pos < len(text) and "0" <= text[pos] <= "9":
            pos += 1
        if start == pos:
            raise TreeError(f"expected a leaf label (digits 0-9) at "
                            f"position {pos}, found {text[pos]!r}")
        return int(text[start:pos])

    try:
        shape = parse()
    except IndexError:
        raise TreeError("unexpected end of input") from None
    except RecursionError:
        raise TreeError(_TOO_DEEP) from None
    if pos != len(text):
        raise TreeError(f"trailing characters at position {pos}")
    return Tree(shape)


__getattr__ = load_on_first_use(globals(), {"stablegraphs": (
    "GraphError", "GraphAutomorphism", "StableGraph",
    "enumerate_stable_graphs", "automorphism_group", "automorphism_order",
    "encode_graph", "decode_graph")})
