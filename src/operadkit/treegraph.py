"""Trees indexing genus-0 strata and stable graphs indexing higher genus.

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
and its children came from.  `vertex_expansions`, the boundary's fast
path, splices instead of sorting: the new vertex takes the place of its
least child, and no other vertex's leaf set, so no other order,
changes.

Stable graphs carry genus labels, edges (loops allowed) and enumerated
legs.  An isomorphism class is stored as its lex-least (genera, edges,
legs) over vertex relabellings; that triple lists the genera sorted, so
only relabellings within each genus class are searched (desk scale).
The same search yields the vertex permutations that keep the minimum,
so `automorphism_group` only adds edge bijections and loop flips.
Graphs are grown by edge count from the smooth graph by uncontraction
(a loop at a vertex that gives up one genus, or a vertex split in two
along a new edge), which reaches all of them: contracting any edge of a
stable graph keeps it stable.  Uncontraction keeps a graph connected,
so its candidates are checked by the valence rule alone and
canonicalized without the constructor's other checks.
"""

from __future__ import annotations

import itertools
import sys
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from . import InputError


class TreeError(InputError):
    pass


class GraphError(InputError):
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


def _frame(t: Tree) -> list[tuple]:
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

    walk(t.shape, -1, 0)
    return frame


def _expand(frame, j: int, positions: tuple[int, ...]):
    """The canonical shape with the children of vertex j at the
    ascending 1-based positions grouped under a new vertex, and its
    vertices in preorder as indices into frame (the new one is
    len(frame))."""
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


def vertex_expansions(t: Tree):
    """Every tree that contracts to t along one edge, each built
    canonical once from one walk of t.

    Yields (vertex, positions, tree, order) for each internal vertex
    (its preorder index in t) and each ascending tuple of at least two,
    not all, of its 1-based child positions.  ``order`` lists the
    expanded tree's vertices in preorder by their preorder index in t;
    the new vertex is t.internal_edges + 1.
    """
    frame = _frame(t)
    for j, (shape, _, _, _) in enumerate(frame):
        m = len(shape)
        for k in range(2, m):
            for positions in itertools.combinations(range(1, m + 1), k):
                new, order = _expand(frame, j, positions)
                yield (j, positions, Tree._from_canonical(
                    new, t.arity, t.internal_edges + 1), order)


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


# ---------------------------------------------------------------------------
# Stable graphs


# An automorphism: a vertex permutation plus a half-edge bijection, as
# (half-edge, image) pairs.  Half-edges are ('leg', label) or
# ('e', edge_index, side); legs are always fixed.  The map preserves
# incidence and genus labels.
GraphAutomorphism = namedtuple("GraphAutomorphism",
                               "vertex_perm half_edge_map")


class StableGraph:
    """A connected genus-labeled graph with legs, edges and loops.

    Stability (`_is_stable`): every genus-0 vertex has valence >= 3 and
    every genus-1 vertex has valence >= 1; a loop contributes 2 to the
    valence of its vertex.  Stored in canonical form, the lex-least
    (genera, edges, legs) over vertex relabellings, so equal graphs
    compare equal.
    """

    __slots__ = ("genera", "edges", "legs", "_vertex_perms")

    def __init__(self, genera, edges, legs):
        genera = tuple(int(g) for g in genera)
        edges = tuple(tuple(sorted((int(a), int(b)))) for a, b in edges)
        legs = tuple(int(v) for v in legs)
        nv = len(genera)
        if nv == 0:
            raise GraphError("a stable graph needs at least one vertex")
        if any(g < 0 for g in genera):
            raise GraphError("genus labels must be nonnegative")
        for a, b in edges:
            if not (0 <= a < nv and 0 <= b < nv):
                raise GraphError(f"edge ({a},{b}) out of vertex range")
        for v in legs:
            if not (0 <= v < nv):
                raise GraphError(f"leg vertex {v} out of range")
        if not _is_connected(nv, edges):
            raise GraphError("graph must be connected")
        if not _is_stable(genera, edges, legs):
            v, val = next((v, val) for v, val in enumerate(
                _valences(nv, edges, legs)) if 2 * genera[v] + val < 3)
            raise GraphError(f"genus-{genera[v]} vertex {v} has valence "
                             f"{val} < {3 - 2 * genera[v]}")
        (self.genera, self.edges, self.legs,
         self._vertex_perms) = _canonical_graph(genera, edges, legs)

    @classmethod
    def _canonical(cls, genera, edges, legs) -> StableGraph:
        """Canonicalize a candidate that uncontraction built connected
        and stable, without checking it again."""
        G = object.__new__(cls)
        (G.genera, G.edges, G.legs,
         G._vertex_perms) = _canonical_graph(genera, edges, legs)
        return G

    @property
    def num_vertices(self) -> int:
        return len(self.genera)

    @property
    def num_legs(self) -> int:
        return len(self.legs)

    def valence(self, v: int) -> int:
        return _valences(self.num_vertices, self.edges, self.legs)[v]

    def __eq__(self, other):
        return (isinstance(other, StableGraph)
                and self.genera == other.genera
                and self.edges == other.edges
                and self.legs == other.legs)

    def __hash__(self):
        return hash((self.genera, self.edges, self.legs))

    def __repr__(self):
        return f"StableGraph({encode_graph(self)!r})"


def _valences(nv, edges, legs):
    val = [0] * nv
    for v in legs:
        val[v] += 1
    for a, b in edges:
        val[a] += 1
        val[b] += 1
    return val


def _is_stable(genera, edges, legs):
    """The valence rule, 2g - 2 + valence > 0 at every vertex: valence
    >= 3 at genus 0 and >= 1 at genus 1 (a loop counts twice)."""
    return all(2 * g + val >= 3 for g, val in
               zip(genera, _valences(len(genera), edges, legs)))


def _is_connected(nv, edges):
    if nv == 1:
        return True
    adj = {v: set() for v in range(nv)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == nv


def _canonical_graph(genera, edges, legs):
    """The lex-least (genera, edges, legs) over vertex relabellings, and
    the sorted vertex permutations that keep it.

    Its genera are sorted, so a minimizing relabelling sends each genus
    class onto its block of the sorted order, and only those are tried,
    comparing (edges, legs).  Minimizing relabellings r0, r give each
    such permutation once, as p = r r0^-1 (r = p r0 minimizes too)."""
    order = sorted(range(len(genera)), key=genera.__getitem__)
    blocks = [tuple(vs) for _, vs in
              itertools.groupby(order, key=genera.__getitem__)]
    new = [0] * len(genera)  # old vertex -> new index
    best, ties = None, []
    for arrangement in itertools.product(
            *map(itertools.permutations, blocks)):
        for i, v in enumerate(itertools.chain.from_iterable(arrangement)):
            new[v] = i
        pe = []
        for a, b in edges:
            a, b = new[a], new[b]
            pe.append((a, b) if a <= b else (b, a))
        pe.sort()
        code = (tuple(pe), tuple([new[v] for v in legs]))
        if best is not None and code > best:
            continue
        if code == best:
            ties.append(new[:])
        else:
            best, ties = code, [new[:]]
    first = sorted(range(len(genera)), key=ties[0].__getitem__)  # r0^-1
    perms = sorted(tuple(r[v] for v in first) for r in ties)
    return (tuple(sorted(genera)), *best, tuple(perms))


def enumerate_stable_graphs(g: int, n: int, max_edges: int) -> list[StableGraph]:
    """All isomorphism classes with total genus g, n legs, <= max_edges edges.

    The graphs with e + 1 edges are the `_uncontractions` of those with
    e, starting from the smooth graph; none is missed, since each
    contracts along any edge to a stable graph with e edges.  They are
    connected and stable by construction, so `StableGraph._canonical`
    canonicalizes them without the constructor's checks.  Sorted by
    vertex count, edge count, genera, edges, then legs.  Raises GraphError
    for unstable (g, n), i.e. 2g - 2 + n <= 0, and for negative g.
    """
    if 2 * g - 2 + n <= 0:
        raise GraphError(f"(g, n) = ({g}, {n}) violates 2g-2+n > 0")
    levels = [{StableGraph([g], [], [0] * n)}]
    while len(levels) <= max_edges and levels[-1]:
        level = set()
        for G in levels[-1]:
            for data in _uncontractions(G):
                level.add(StableGraph._canonical(*data))
        levels.append(level)
    return sorted(set().union(*levels[:max_edges + 1]),
                  key=lambda G: (len(G.genera), len(G.edges),
                                 G.genera, G.edges, G.legs))


def _uncontractions(G: StableGraph):
    """The stable graphs (genera, edges, legs), not yet canonical, with
    one more edge that contract back to G: a loop at a vertex of
    positive genus, which loses one, or a vertex v split into v and a
    new w along a new edge, v's genus shared out and each half-edge at v
    kept or moved.  Both keep the graph connected.  Each split is
    yielded once, not once per side."""
    n, w = G.num_legs, G.num_vertices
    ends = G.legs + sum(G.edges, ())  # legs' vertices, then edge ends
    for v, gv in enumerate(G.genera):
        head, tail = G.genera[:v], G.genera[v + 1:]
        if gv:
            # stable as G is: 2(gv - 1) plus the loop's 2 is 2gv
            yield head + (gv - 1,) + tail, G.edges + ((v, v),), G.legs
        at_v = [i for i, u in enumerate(ends) if u == v]
        # a split and its complement with the genera swapped are one
        # graph: keep the first half-edge at v, or with none, g1 <= gv - g1
        for moved in itertools.product((v, w), repeat=max(len(at_v) - 1, 0)):
            new = list(ends)
            for i, u in zip(at_v[1:], moved):
                new[i] = u
            edges = list(zip(new[n::2], new[n + 1::2])) + [(v, w)]
            legs = new[:n]
            for g1 in range(gv + 1 if at_v else gv // 2 + 1):
                genera = head + (g1,) + tail + (gv - g1,)
                if _is_stable(genera, edges, legs):
                    yield genera, edges, legs


def automorphism_group(G: StableGraph) -> list[GraphAutomorphism]:
    """The full automorphism group as an explicit list (desk scale).

    Automorphisms fix every leg, permute vertices preserving genus
    labels, and permute half-edges preserving incidence; a loop may have
    its two half-edges swapped.  Listed by vertex permutation (as the
    canonical search found them), then edge bijection (permutations of
    each endpoint group in turn), then flips.
    """
    # edges are sorted, so the groups of equal endpoints are consecutive
    groups: dict[tuple[int, int], list[int]] = {}
    for j, ends in enumerate(G.edges):
        groups.setdefault(ends, []).append(j)
    legs = tuple((("leg", i), ("leg", i)) for i in range(1, G.num_legs + 1))
    autos = []
    for p in G._vertex_perms:
        targets = [groups[(a, b) if a <= b else (b, a)]
                   for a, b in ((p[a], p[b]) for a, b in groups)]
        for perms in itertools.product(*map(itertools.permutations, targets)):
            image = list(itertools.chain(*perms))
            # a loop may be flipped; a non-loop edge lands in its sorted
            # endpoint group, so exactly one orientation matches its image
            sides = [(0, 1) if a == b else (int((p[a], p[b]) != G.edges[k]),)
                     for (a, b), k in zip(G.edges, image)]
            for flip in itertools.product(*sides):
                half = [h for j, (k, f) in enumerate(zip(image, flip))
                        for h in ((("e", j, 0), ("e", k, f)),
                                  (("e", j, 1), ("e", k, 1 - f)))]
                autos.append(GraphAutomorphism(p, legs + tuple(half)))
    return autos


def encode_graph(G: StableGraph) -> str:
    """Canonical text encoding: genera; edge list; leg assignment."""
    genera = ",".join(str(g) for g in G.genera)
    edges = " ".join(f"{a}-{b}" for a, b in G.edges)
    legs = ",".join(str(v) for v in G.legs)
    return f"V[{genera}] E[{edges}] L[{legs}]"


def decode_graph(text: str) -> StableGraph:
    """Parse the canonical graph encoding."""
    import re

    m = re.fullmatch(r"V\[([^]]*)\] E\[([^]]*)\] L\[([^]]*)\]", text.strip())
    if not m:
        raise GraphError(f"bad graph encoding: {text!r}")
    genera = [int(x) for x in m.group(1).split(",") if x != ""]
    edges = []
    if m.group(2).strip():
        for tok in m.group(2).split():
            a, b = tok.split("-")
            edges.append((int(a), int(b)))
    legs = [int(x) for x in m.group(3).split(",") if x != ""]
    return StableGraph(genera, edges, legs)
