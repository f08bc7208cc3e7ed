"""Stable graphs indexing the strata of higher genus.

Stable graphs carry genus labels, edges (loops allowed) and enumerated
legs.  An isomorphism class is stored as its lex-least (genera, edges,
legs) over vertex relabellings; that triple lists the genera sorted, so
only relabellings within each genus class are searched (desk scale).
The same search yields the vertex permutations that keep the minimum,
so `automorphism_group` only adds edge bijections and loop flips, and
`automorphism_order` counts them without listing any.
Graphs are grown by edge count from the smooth graph by uncontraction
(a loop at a vertex that gives up one genus, or a vertex split in two
along a new edge), which reaches all of them: contracting any edge of a
stable graph keeps it stable.  Uncontraction keeps a graph connected,
so its candidates are checked by the valence rule alone and
canonicalized without the constructor's other checks.  Kept out of
``treegraph``, which exports these names, so that only graph censuses
and higher-genus pages load it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple

from . import InputError


class GraphError(InputError):
    pass


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


def automorphism_order(G: StableGraph) -> int:
    """The order of ``automorphism_group(G)`` without listing it: each
    vertex permutation the canonical search kept, times every bijection
    of each endpoint group of edges, times a flip of each loop."""
    loops = sum(a == b for a, b in G.edges)
    return len(G._vertex_perms) * math.prod(
        map(math.factorial, Counter(G.edges).values())) * 2 ** loops


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
