"""Reference computations the tests check the library against.

Nothing in the package calls these; each one reaches a number or an
object the library also produces, by a different road:

- linear algebra: the rank of a dense matrix by plain Gaussian
  elimination over Fraction, against the sparse integer reduction;
- shuffles: the Lie cooperad's component dimension as multilinear
  words modulo shuffle products, against the dual-operad model;
- strata: the genus-0 Euler characteristic summed over enumerated
  trees, against the counted valence census;
- filtration: the homology of one operad component split by degree;
- trees: vertices named by the set of leaves below them, and edge
  contraction and vertex expansion on those names, each rebuilt through
  the validating ``Tree(shape)`` constructor, against the library's
  preorder indices and its order-keeping walk over tagged skeletons;
- cobar boundaries: every expansion of each tree itself, its target
  found by its (shape, decoration) in a dict of the whole degree,
  against the library's expansions of skeletons placed by arithmetic;
- stable graphs: edge contraction and the genus b_1(G) + sum of vertex
  genera, through the validating ``StableGraph`` constructor;
- homotopy algebras: the coderivation b of the bar construction, built
  from Q and the m_n with its own sign counting, its b o b and its b_n
  on shuffle products, against ``check_ainf`` and ``check_cinf``.
"""

import itertools
from fractions import Fraction
from operator import itemgetter

from operadkit.operads import koszul_sign, shuffles
from operadkit.qlinalg import ChainComplex, SparseMatrix, addmul, span_rank
from operadkit.treegraph import GraphError, StableGraph, Tree, TreeError

# ---------------------------------------------------------------------------
# Dense linear algebra


def dense_rank(rows: list[list[Fraction]]) -> int:
    """Reference rank: plain dense elimination over Fraction."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rk = 0
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        rk += 1
        r += 1
        col += 1
    return rk


def to_dense(m: SparseMatrix) -> list[list[Fraction]]:
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for r, c, v in m.entries():
        out[r][c] = v
    return out


# ---------------------------------------------------------------------------
# Shuffles and the quotient model of the Lie cooperad


def shuffle_sum(u: tuple[int, ...], v: tuple[int, ...],
                degrees: tuple[int, ...] | None = None) -> dict:
    """Sum of all interleavings of the words u and v.

    Letters must be disjoint.  With ``degrees`` (one per letter of the
    concatenation u + v, in that order) each interleaving carries the
    Koszul sign of the rearrangement.
    """
    if set(u) & set(v):
        raise ValueError("shuffle factors must use disjoint letters")
    cat = u + v
    acc: dict[tuple[int, ...], int] = {}
    for sh in shuffles(len(u), len(v)):
        # interleaving: position k receives letter number sh[k] of cat
        word = tuple(cat[j - 1] for j in sh)
        addmul(acc, word, 1 if degrees is None else koszul_sign(sh, degrees))
    return acc


def multilinear_shuffle_relations(n: int) -> list[dict]:
    """Spanning set of multilinear shuffle products in n letters: the
    shuffle of an ordering of a proper nonempty subset with an ordering
    of its complement, as a sparse vector over words."""
    letters = tuple(range(1, n + 1))
    out = []
    for k in range(1, n // 2 + 1):  # (u, v) and (v, u) shuffle alike
        for subset in itertools.combinations(letters, k):
            rest = tuple(x for x in letters if x not in subset)
            for u in itertools.permutations(subset):
                for v in itertools.permutations(rest):
                    out.append(shuffle_sum(u, v))
    return out


def liec_component_dim(n: int) -> int:
    """Dimension of multilinear words modulo shuffles, by explicit rank;
    the answer is (n-1)!."""
    if n == 1:
        return 1
    words = sorted(itertools.permutations(range(1, n + 1)))
    index = {w: k for k, w in enumerate(words)}
    rels = [{index[w]: Fraction(c) for w, c in r.items()}
            for r in multilinear_shuffle_relations(n)]
    return len(words) - span_rank(rels)


# ---------------------------------------------------------------------------
# Strata


def strata_euler_characteristic(n: int) -> int:
    """Euler characteristic of the genus-0 compactification summed
    stratum by stratum: sum over enumerated trees of prod_v chi(open M
    at v)."""
    from operadkit.strata import open_betti
    from operadkit.treegraph import enumerate_trees
    chi = {m: sum((-1) ** k * b for k, b in enumerate(open_betti(m)))
           for m in range(3, n + 1)}
    total = 0
    for e in range(n - 2):
        for t in enumerate_trees(n - 1, e):
            prod = 1
            for m in t.vertex_arities():
                prod *= chi[m + 1]
            total += prod
    return total


# ---------------------------------------------------------------------------
# Filtration


def component_homology(O, n: int) -> dict[int, int]:
    """Betti numbers of one operad component split by degree."""
    sp = O.space(n)
    d = O.differentials.get(n)
    lo, hi = min(sp.degrees), max(sp.degrees)
    by_deg = {g: [a for a in range(sp.dim) if sp.degrees[a] == g]
              for g in range(lo, hi + 1)}
    boundaries = []
    for g in range(lo, hi):
        rows = {a: k for k, a in enumerate(by_deg[g])}
        entries = []
        if d is not None:
            for k, c in enumerate(by_deg[g + 1]):
                for r, v in d.col(c).items():
                    if r in rows:
                        entries.append((rows[r], k, v))
        boundaries.append(
            SparseMatrix(len(rows), len(by_deg[g + 1]), entries))
    spaces = [len(by_deg[g]) for g in range(lo, hi + 1)]
    betti = ChainComplex(spaces, boundaries).homology()
    return {lo + k: b for k, b in enumerate(betti) if b}


# ---------------------------------------------------------------------------
# Trees named by leaf sets


def leaves(shape) -> frozenset[int]:
    if isinstance(shape, int):
        return frozenset((shape,))
    return frozenset().union(*map(leaves, shape))


def vertices(t: Tree) -> list[tuple[frozenset[int],
                                    tuple[frozenset[int], ...], int]]:
    """Internal vertices in preorder as (leaf set, child leaf sets, arity).

    A vertex is named by the set of leaves below it, which determines it
    since every vertex has at least two children; a leaf child is
    {label}, and children follow the canonical order.
    """
    out = []

    def walk(shape):
        if isinstance(shape, int):
            return
        out.append((leaves(shape), tuple(map(leaves, shape)), len(shape)))
        for c in shape:
            walk(c)

    walk(t.shape)
    return out


def edges(t: Tree) -> list[frozenset[int]]:
    """Internal edges in preorder of their lower vertex, each named by
    that vertex's leaf set."""
    return [key for key, _, _ in vertices(t)[1:]]


def contract_edge(t: Tree, edge: frozenset[int]) -> Tree:
    """Contract the internal edge named by the leaf set below it: its
    lower vertex's children move up to the vertex above."""
    if edge not in edges(t):
        raise TreeError(f"no internal edge with leaf set {sorted(edge)}")

    def walk(shape):  # what shape adds to its parent's children
        if isinstance(shape, int):
            return (shape,)
        kids = tuple(x for c in shape for x in walk(c))
        return kids if leaves(shape) == edge else (kids,)

    return Tree(walk(t.shape)[0])


def expand_vertex(t: Tree, vertex: frozenset[int],
                  positions: tuple[int, ...]) -> tuple[Tree, frozenset[int]]:
    """Group the children of the vertex with leaf set ``vertex`` at the
    1-based positions (canonical order) under a new vertex.  Returns the
    tree and the leaf set of the new edge.  A grouping that leaves a
    vertex one child, or repeats a child (position 0 reads the last
    one), fails in ``Tree``."""
    kids = next((kids for key, kids, _ in vertices(t) if key == vertex), None)
    if kids is None:
        raise TreeError(f"no internal vertex with leaf set {sorted(vertex)}")

    def walk(shape):
        if isinstance(shape, int):
            return shape
        below = [walk(c) for c in shape]
        if leaves(shape) == vertex:
            below = ([c for p, c in enumerate(below, 1) if p not in positions]
                     + [tuple(below[p - 1] for p in positions)])
        return tuple(below)

    return (Tree(walk(t.shape)),
            frozenset().union(*(kids[p - 1] for p in positions)))


def vertex_expansions(t: Tree):
    """Every tree that contracts to t along one edge, expanded from t
    itself rather than from its skeleton, by ``expand_vertex``.

    Yields (vertex, positions, shape, order) for each internal vertex
    (its preorder index in t) and each ascending tuple of at least two,
    not all, of its 1-based child positions.  ``shape`` is the expanded
    tree's canonical shape, and ``order`` lists its vertices in preorder
    by their preorder index in t, matched by leaf set; the new vertex,
    named by the new edge's leaf set, is t.internal_edges + 1.
    """
    verts = vertices(t)
    index = {key: j for j, (key, _, _) in enumerate(verts)}
    for j, (key, _, m) in enumerate(verts):
        for k in range(2, m):
            for positions in itertools.combinations(range(1, m + 1), k):
                s, edge = expand_vertex(t, key, positions)
                names = {**index, edge: t.internal_edges + 1}
                yield (j, positions, s.shape,
                       [names[v] for v, _, _ in vertices(s)])


def substitute(skel, labels: tuple[int, ...]):
    """The skeleton with leaf p replaced by labels[p - 1]."""
    if isinstance(skel, int):
        return labels[skel - 1]
    return tuple(substitute(c, labels) for c in skel)


def expansion_sign(order) -> int:
    """The cobar differential's orientation sign for an expansion whose
    vertices, in the target's preorder, are ``order`` by source index."""
    return koszul_sign(tuple(order[1:]), (1,) * (len(order) - 1))


# ---------------------------------------------------------------------------
# Cobar boundaries, one tree at a time


def boundary_entries(cx, e: int) -> list[tuple[int, int, int]]:
    """The (row, col, value) entries of cx's differential on edge
    degree e: each tree's own expansions, each target decoration
    gathered in the target's preorder and placed by a (shape,
    decoration) dict of degree e + 1."""
    dims = cx.dims()
    start = sum(dims[k] for k in range(e))
    sources = cx.basis[start:start + dims[e]]
    targets = cx.basis[start + dims[e]:start + dims[e] + dims[e + 1]]
    index = {(t.shape, d): k for k, (t, d) in enumerate(targets)}
    entries = []
    row = 0
    for t, group in itertools.groupby(sources, key=itemgetter(0)):
        arities = t.vertex_arities()
        nv = len(arities)
        expansions = []
        for vi, subset, shape, order in vertex_expansions(t):
            sign = expansion_sign(order) if cx.sign_mode == "standard" else 1
            # target decoration = (source decoration, a, b) read off in
            # the target's preorder: a at vertex vi, b at the new one
            gather = itemgetter(*(nv if j == vi else nv + 1 if j == nv
                                  else j for j in order))
            table = cx.cooperad.cocompose(arities[vi], subset)
            expansions.append((vi, table, shape, gather, sign))
        for _, decor in group:
            for vi, table, shape, gather, sign in expansions:
                for (a, b), c in table.get(decor[vi], {}).items():
                    col = index[(shape, gather(decor + (a, b)))]
                    entries.append((row, col, sign * c))
            row += 1
    return entries


# ---------------------------------------------------------------------------
# Stable graphs


def genus_invariant(G: StableGraph) -> int:
    """g(G) = b_1(G) + sum of vertex genera."""
    return len(G.edges) - len(G.genera) + 1 + sum(G.genera)


def contract_graph_edge(G: StableGraph, edge_index: int) -> StableGraph:
    """Contract an interior edge or loop.

    Non-loop: merge the endpoints, adding their genera.  Loop: delete it
    and increment the vertex genus.  Legs are untouched.
    """
    if not 0 <= edge_index < len(G.edges):
        raise GraphError(f"edge index {edge_index} out of range")
    a, b = G.edges[edge_index]
    rest = [e for j, e in enumerate(G.edges) if j != edge_index]
    genera = list(G.genera)
    if a == b:
        genera[a] += 1
        return StableGraph(genera, rest, G.legs)

    def remap(v):  # merge b into a, shift indices above b down
        if v == b:
            v = a
        return v - 1 if v > b else v

    genera[a] += genera.pop(b)
    return StableGraph(genera, [(remap(x), remap(y)) for x, y in rest],
                       [remap(v) for v in G.legs])


# ---------------------------------------------------------------------------
# The bar construction: an A-infinity and C-infinity oracle
#
# A family (V, Q, m_n) is read on the suspension sV, a letter s a of
# degree |a| + 1 for each basis vector a, with the same index.  Every
# sign below is counted here, pass by pass: an odd map moving past odd
# letters, or two odd letters moving past each other.


def _odd_passes(degrees) -> int:
    """The sign of an odd map moving past letters of these degrees: -1
    to the number of odd ones."""
    return -1 if sum(d % 2 for d in degrees) % 2 else 1


class BarCoderivation:
    """The coderivation b of T^c(sV) built from Q and the m_n alone:
    b_1 = s Q s^-1 and b_n = eps_n s m_n (s^-1)^n, eps_n = (-1)^(n(n-1)/2).
    Q and the m_n hold the A-infinity relations iff b o b = 0, and b o b
    is a coderivation, so its word-length-1 part decides."""

    def __init__(self, degrees, q_entries, maps):
        self.degrees = degrees
        self.shifted = [d + 1 for d in degrees]  # |s a| = |a| + 1
        self.b = {1: {}}  # n -> {word: {out: coeff}}
        for r, c, v in q_entries:  # Q e_c = v e_r, so b_1(s c) = v s r
            self.b[1].setdefault((c,), {})[r] = v
        for n, tensor in maps.items():
            eps = -1 if n * (n - 1) // 2 % 2 else 1
            part = self.b[n] = {}
            for (out, word), c in tensor.items():
                # the j-th s^-1 moves past the letters before it
                sign = eps
                for j in range(n):
                    sign *= _odd_passes([self.shifted[x] for x in word[:j]])
                part.setdefault(word, {})[out] = sign * c

    def apply(self, word: tuple[int, ...]) -> dict:
        """b on a word of sV: each b_n in turn on each run of n letters,
        after moving past the letters before the run."""
        out: dict = {}
        for n, part in self.b.items():
            for j in range(len(word) - n + 1):
                sign = _odd_passes([self.shifted[x] for x in word[:j]])
                for x, c in part.get(word[j:j + n], {}).items():
                    addmul(out, word[:j] + (x,) + word[j + n:], sign * c)
        return out

    def corestricted(self, vector: dict) -> dict:
        """The word-length-1 part of b on a sum of words."""
        out: dict = {}
        for word, c in vector.items():
            for x, v in self.b.get(len(word), {}).get(word, {}).items():
                addmul(out, x, c * v)
        return out

    def suspend(self, ins: tuple[int, ...]) -> int:
        """s^n on a_1..a_n: the sign of the j-th s moving past a_1..a_(j-1)."""
        sign = 1
        for j in range(len(ins)):
            sign *= _odd_passes([self.degrees[x] for x in ins[:j]])
        return sign

    def relations(self, N: int) -> dict:
        """{(n, inputs): {out: value}} for 2 <= n <= N and each basis
        tuple where s^-1 (b o b)_1 s^n is nonzero: the arity-n relation
        read back on V."""
        dim = len(self.shifted)
        out = {}
        for n in range(2, N + 1):
            for ins in itertools.product(range(dim), repeat=n):
                value = self.corestricted(self.apply(ins))
                if value:
                    sign = self.suspend(ins)
                    out[(n, ins)] = {x: sign * c for x, c in value.items()}
        return out

    def shuffle_values(self, N: int) -> dict:
        """{(n, p, inputs): {out: value}} for each 2 <= n <= N, 1 <= p < n
        and basis tuple (u, v), u of length p, where b_n on the shuffle
        product su * sv is nonzero."""
        dim = len(self.shifted)
        out = {}
        for n in range(2, N + 1):
            part = self.b.get(n, {})
            for p in range(1, n):
                for ins in itertools.product(range(dim), repeat=n):
                    value: dict = {}
                    for slots in itertools.combinations(range(n), p):
                        word, sign = self._interleave(ins, p, slots)
                        for x, c in part.get(word, {}).items():
                            addmul(value, x, sign * c)
                    if value:
                        out[(n, p, ins)] = value
        return out

    def _interleave(self, ins, p, slots):
        """The word with u = ins[:p] at ``slots`` and v = ins[p:] in the
        other places, and its Koszul sign: -1 for each odd letter of v
        moved before an odd letter of u."""
        rest = [q for q in range(len(ins)) if q not in slots]
        word = [0] * len(ins)
        for q, x in zip([*slots, *rest], ins):
            word[q] = x
        sign = 1
        for q, x in zip(slots, ins[:p]):
            for r, y in zip(rest, ins[p:]):
                if r < q and self.shifted[x] % 2 and self.shifted[y] % 2:
                    sign = -sign
        return tuple(word), sign
