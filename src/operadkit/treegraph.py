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
it.  A vertex is named by its preorder index, the one vertex naming
here.  Trees are rebuilt by one walk, `_rebuild`: `graft` and
`relabel_tree` tag each vertex with its preorder index, and the walk
sorts children back into canonical order, reporting where each vertex
and its children came from.  A tree's skeleton is its canonical shape
with the leaves numbered in preorder (a planar tree, or associahedron
cell: 197 of them against 2,752 trees at n = 6); ``skeleton`` splits a
shape into its skeleton and its labels in preorder.  The cobar
boundary expands skeletons, not trees: ``skeleton_expansions`` splices
instead of sorting, since the new vertex takes the place of its least
child and no other vertex's leaf set, so no other order, changes.  It
compares no label, so every tree with that skeleton expands the same
way with its labels carried along.  Stable graphs live in
``stablegraphs``, whose names this module exports too, loaded on first
use.
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


class Tree:
    """A rooted tree with numbered leaves, canonical under input reordering."""

    __slots__ = ("shape", "arity", "internal_edges")

    def __init__(self, shape):
        """Validate outside input in one walk: sort children by least
        leaf, reject unary vertices, collect leaves, count vertices."""
        if isinstance(shape, int):
            raise TreeError("a tree must have at least one internal vertex")
        leaves: list[int] = []

        def walk(s):  # -> (canonical shape, least leaf, internal vertices)
            if isinstance(s, int):
                leaves.append(s)
                return s, s, 0
            kids = sorted(map(walk, s), key=itemgetter(1))
            if len(kids) < 2:
                raise TreeError("internal vertices need at least two inputs")
            return (tuple(k[0] for k in kids), kids[0][1],
                    1 + sum(k[2] for k in kids))

        shape, _, vertices = walk(shape)
        n = len(leaves)
        leaves.sort()
        if leaves != list(range(1, n + 1)):
            raise TreeError(f"leaves must be exactly 1..{n}, got {leaves}")
        self.shape, self.arity, self.internal_edges = shape, n, vertices - 1

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
        out = []

        def walk(shape):
            out.append(len(shape))
            for c in shape:
                if not isinstance(c, int):
                    walk(c)

        walk(self.shape)
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


def enumerate_trees(n: int, e: int) -> list[Tree]:
    """All isomorphism classes of n-trees with exactly e internal edges.

    Each is built once, canonical, by the memoised generator (see the
    module docstring for how, and for the order).  Out-of-range e gives
    an empty list.
    """
    groups = _generated(n)
    if not 0 <= e < len(groups):
        return []
    return [Tree._from_canonical(s, n, e) for s in groups[e]]


def enumerate_trees_all(n: int) -> dict[int, list[Tree]]:
    """Trees of arity n grouped by internal edge count."""
    return {e: [Tree._from_canonical(s, n, e) for s in shapes]
            for e, shapes in enumerate(_generated(n))}


def _rebuild(tagged, arity: int) -> tuple[Tree, list]:
    """Canonicalize a tagged shape (leaves are labels, a vertex is (tag,
    children)) whose leaves the caller vouches are 1..arity.  Returns
    the tree and per vertex in preorder (tag, positions): the 1-based
    input positions of its children in canonical order."""

    def walk(s):  # -> (canonical shape, least leaf, vertices in preorder)
        if type(s) is int:
            return s, s, ()
        tag, children = s
        kids = sorted(((p, *walk(c)) for p, c in enumerate(children, 1)),
                      key=itemgetter(2))
        verts = [(tag, tuple(k[0] for k in kids))]
        for k in kids:
            verts.extend(k[3])
        return tuple(k[1] for k in kids), kids[0][2], verts

    shape, _, verts = walk(tagged)
    return Tree._from_canonical(shape, arity, len(verts) - 1), verts


def _tagged(shape, leaf, tags):
    """shape with each vertex as (next preorder tag, children) and each
    leaf label x as leaf(x)."""
    if type(shape) is int:
        return leaf(shape)
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
    return _rebuild(_tagged(t.shape, mapping.__getitem__, itertools.count()),
                    t.arity)


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
    return _rebuild(outer, n + m - 1)


def _frame(shape) -> list[tuple]:
    """Per internal vertex in preorder: (shape, parent's index or -1,
    position among the parent's children, and per child the preorder
    index range of its subtree's vertices)."""
    frame: list = []

    def walk(shape, parent, slot):
        j = len(frame)
        frame.append(None)
        spans = []
        for p, c in enumerate(shape):
            start = len(frame)
            if type(c) is not int:
                walk(c, j, p)
            spans.append((start, len(frame)))
        frame[j] = (shape, parent, slot, spans)

    walk(shape, -1, 0)
    return frame


def _expand(frame, j: int, positions: tuple[int, ...]):
    """The canonical shape with the children of vertex j at the
    ascending 1-based positions grouped under a new vertex, and its
    vertices in preorder as indices into frame (the new one is
    len(frame)).  No leaf label is compared."""
    shape, parent, slot, spans = frame[j]
    chosen = [p - 1 for p in positions]
    later = [p for p in range(chosen[0] + 1, len(shape)) if p not in chosen]
    # the new child's least leaf is its first child's, so it takes that
    # child's place; no vertex's leaf set changes, so no other order does
    new = (shape[:chosen[0]] + (tuple(shape[p] for p in chosen),)
           + tuple(shape[p] for p in later))
    while parent >= 0:
        up, parent, slot_up, _ = frame[parent]
        new = up[:slot] + (new,) + up[slot + 1:]
        slot = slot_up
    order = [*range(spans[chosen[0]][0]), len(frame)]
    for p in chosen + later:
        order.extend(range(*spans[p]))
    order.extend(range(spans[-1][1], len(frame)))
    return new, order


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
    expansion compares no label, so a tree with this skeleton and labels
    L expands, at the same vertex and positions, to ``target`` with
    labels L[p - 1] for p in ``places``, with the same ``order``.
    """
    frame = _frame(skel)
    for j, (shape, _, _, _) in enumerate(frame):
        m = len(shape)
        for k in range(2, m):
            for positions in itertools.combinations(range(1, m + 1), k):
                expanded, order = _expand(frame, j, positions)
                yield (j, positions, *skeleton(expanded), order)


def encode_tree(t: Tree) -> str:
    """Canonical text encoding: nested parenthesized leaf lists, which is
    the shape's tuple repr without spaces (no vertex has one child, so
    no repr has a trailing comma)."""
    return repr(t.shape).replace(" ", "")


def decode_tree(text: str) -> Tree:
    """Parse the nested parenthesized encoding back into a Tree."""
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
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if start == pos:
            raise TreeError(f"expected a leaf label at position {pos}")
        return int(text[start:pos])

    try:
        shape = parse()
    except IndexError:
        raise TreeError("unexpected end of input") from None
    if pos != len(text):
        raise TreeError(f"trailing characters at position {pos}")
    return Tree(shape)


__getattr__ = load_on_first_use(globals(), {"stablegraphs": (
    "GraphError", "GraphAutomorphism", "StableGraph",
    "enumerate_stable_graphs", "automorphism_group", "encode_graph",
    "decode_graph")})
