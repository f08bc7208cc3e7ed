"""Tests for trees and stable graphs.

Tree counts are checked against an independent leaf-insertion
recurrence and the trees themselves against leaf insertion on unordered
trees; stable-graph class counts against an independent exhaustive
enumeration deduplicated by pairwise isomorphism testing, and
automorphism orders against orbifold Euler characteristics.  Canonical
forms and automorphism lists are checked against brute force over all
vertex orderings, and the stability rule against the valence
conditions written out.  No oracle shares code with the library.  The enumeration order is pinned by
literal values recorded before the generator built shapes in order.
"""

import hashlib
import itertools
import math
import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from operadkit.treegraph import (
    GraphAutomorphism,
    GraphError,
    StableGraph,
    Tree,
    TreeError,
    automorphism_group,
    automorphism_order,
    decode_graph,
    decode_tree,
    encode_graph,
    encode_tree,
    enumerate_stable_graphs,
    enumerate_trees,
    enumerate_trees_all,
    graft,
    relabel_tree,
    skeleton,
    skeleton_expansions,
)
from operadkit import stablegraphs
from operadkit.stablegraphs import _is_stable, _uncontractions
from reference import (contract_edge, contract_graph_edge, edges,
                       expand_vertex, expansion_sign, genus_invariant,
                       stable_graph_levels, strata_euler_characteristic,
                       substitute, unfiltered_uncontractions,
                       vertex_expansions, vertices)


# --------------------------------------------------------------------------
# Oracle 1: leaf-insertion recurrence for tree counts.
#
# t(n, k) = number of rooted trees with n labeled leaves and k internal
# vertices (every internal vertex has >= 2 children).  Inserting leaf n
# into a tree on n-1 leaves either attaches it to one of the k internal
# vertices, or subdivides one of the n+k-2 edge positions (n-1 leaf
# edges, k-2 internal edges, 1 above the root) with a new vertex.


@lru_cache(maxsize=None)
def tree_count(n: int, k: int) -> int:
    if n == 2:
        return 1 if k == 1 else 0
    if k < 1 or k > n - 1:
        return 0
    return k * tree_count(n - 1, k) + (n + k - 2) * tree_count(n - 1, k - 1)


# Oracle 2: the trees themselves by leaf insertion, as nested frozensets
# (children unordered), so no canonical form is shared with the library.


def as_unordered(shape):
    if isinstance(shape, int):
        return shape
    return frozenset(as_unordered(c) for c in shape)


def internal_vertices(s) -> int:
    if isinstance(s, int):
        return 0
    return 1 + sum(internal_vertices(c) for c in s)


@lru_cache(maxsize=None)
def inserted_trees(n: int) -> frozenset:
    """Every tree on leaves 1..n: put leaf n on each tree on n - 1
    leaves, as a new child of a vertex or on a new vertex that
    subdivides an edge (the root edge included)."""
    if n == 2:
        return frozenset({frozenset({1, 2})})

    def insert(s):
        yield frozenset({s, n})  # the edge above s
        if isinstance(s, int):
            return
        yield s | {n}
        for c in s:
            for d in insert(c):
                yield (s - {c}) | {d}

    return frozenset(t for s in inserted_trees(n - 1) for t in insert(s))


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


class TestTreeBasics:
    def test_canonicalization_sorts_children_by_min_leaf(self):
        a = Tree(((3, 2), 1, 4))
        b = Tree((1, (2, 3), 4))
        assert a == b
        assert encode_tree(a) == "(1,(2,3),4)"

    def test_leaves_must_be_a_full_range(self):
        with pytest.raises(TreeError):
            Tree((1, 3))
        with pytest.raises(TreeError):
            Tree((1, 2, 2))

    def test_unary_vertices_rejected(self):
        with pytest.raises(TreeError):
            Tree(((1,), 2))

    @pytest.mark.parametrize("shape, item", [
        ("12", "'12'"), ((1, 2.0), "2.0"), ((1, True), "True"),
        ((1, (2, None)), "None")])
    def test_a_bad_item_is_a_tree_error_naming_it(self, shape, item):
        # neither an int leaf nor a tuple or list of children
        with pytest.raises(TreeError,
                           match=f"^bad tree item {re.escape(item)}:"):
            Tree(shape)

    def test_a_deep_tree_is_a_tree_error(self):
        # a valid caterpillar: leaf k beside the rest at depth k
        depth = 1200
        shape = (depth + 1, depth + 2)
        for leaf in range(depth, 0, -1):
            shape = (leaf, shape)
        with pytest.raises(TreeError, match="nested too deep"):
            Tree(shape)

    def test_a_deep_encoding_is_a_tree_error(self):
        depth = 1200
        text = ("".join(f"({leaf}," for leaf in range(1, depth + 1))
                + f"{depth + 1},{depth + 2}" + ")" * depth)
        with pytest.raises(TreeError, match="nested too deep"):
            decode_tree(text)

    def test_vertex_arities_preorder(self):
        t = decode_tree("((1,2),(3,(4,5)))")
        assert t.vertex_arities() == [2, 2, 2, 2]
        assert decode_tree("(1,(2,3,4),5)").vertex_arities() == [3, 3]


class TestTreeEnumeration:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_counts_by_edges_match_recurrence(self, n):
        by_edges = enumerate_trees_all(n)
        for e in range(n - 1):
            assert len(by_edges[e]) == tree_count(n, e + 1)
            assert by_edges[e] == enumerate_trees(n, e)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_total_counts(self, n):
        totals = {2: 1, 3: 4, 4: 26, 5: 236, 6: 2752, 7: 39208}
        assert sum(len(v) for v in enumerate_trees_all(n).values()) == totals[n]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_binary_trees_are_odd_double_factorial(self, n):
        assert len(enumerate_trees(n, n - 2)) == double_factorial(2 * n - 3)

    def test_no_duplicates(self):
        trees = [t for ts in enumerate_trees_all(6).values() for t in ts]
        assert len(set(trees)) == len(trees)

    def test_out_of_range_edges_empty(self):
        assert enumerate_trees(4, 3) == []
        assert enumerate_trees(4, -1) == []

    def test_deterministic_order(self):
        assert enumerate_trees(5, 2) == enumerate_trees(5, 2)

    def test_order_pinned_at_arity_4(self):
        groups = enumerate_trees_all(4)
        assert [encode_tree(t) for e in sorted(groups) for t in groups[e]] == [
            "(1,2,3,4)",
            "(1,2,(3,4))", "(1,(2,3),4)", "(1,(2,3,4))", "(1,(2,4),3)",
            "((1,2),3,4)", "((1,2,3),4)", "((1,2,4),3)", "((1,3),2,4)",
            "((1,3,4),2)", "((1,4),2,3)",
            "(1,(2,(3,4)))", "(1,((2,3),4))", "(1,((2,4),3))",
            "((1,2),(3,4))", "((1,3),(2,4))", "((1,4),(2,3))",
            "((1,(2,3)),4)", "((1,(2,4)),3)", "((1,(3,4)),2)",
            "(((1,2),3),4)", "(((1,2),4),3)", "(((1,3),2),4)",
            "(((1,3),4),2)", "(((1,4),2),3)", "(((1,4),3),2)",
        ]

    def test_order_pinned_at_arity_7(self, cli):
        # SHA-256 of `operadkit trees --n 7` before shapes were generated
        # in order (they were canonicalised, deduplicated and sorted)
        res = cli(["trees", "--n", "7"])
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
            "425aa808fa8029ca2ebadee16b8e1da83b944ebacbb5c7cb3fb444f58dc9a39d")

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 7), st.data())
    def test_generated_trees_pass_validation_unchanged(self, n, data):
        trees = enumerate_trees(n, data.draw(st.integers(0, n - 2)))
        t = data.draw(st.sampled_from(trees))
        checked = Tree(t.shape)
        assert checked == t and checked.shape == t.shape
        assert (checked.arity, checked.internal_edges) == (
            t.arity, t.internal_edges)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_sets_match_leaf_insertion(self, n):
        for e, trees in enumerate_trees_all(n).items():
            ours = [as_unordered(t.shape) for t in trees]
            assert len(set(ours)) == len(ours)
            assert set(ours) == {s for s in inserted_trees(n)
                                 if internal_vertices(s) == e + 1}


class TestTreeOperations:
    def test_graft_labels(self):
        g, verts = graft(Tree((1, 2, 3)), 2, Tree((1, 2)))
        assert g == decode_tree("(1,(2,3),4)")
        assert g.arity == 4 and g.internal_edges == 1
        assert verts == [(0, (1, 2, 3)), (1, (1, 2))]

    def test_graft_arity_and_edges_add(self):
        t = decode_tree("((1,2),3)")
        s = decode_tree("(1,(2,3))")
        g, verts = graft(t, 1, s)
        assert g.arity == t.arity + s.arity - 1
        assert len(verts) == g.internal_edges + 1
        assert g.internal_edges == t.internal_edges + s.internal_edges + 1

    def test_graft_index_range(self):
        with pytest.raises(TreeError):
            graft(Tree((1, 2, 3)), 4, Tree((1, 2)))

    def test_contract_inverts_graft_edge(self):
        t = decode_tree("((1,2),(3,(4,5)))")
        c = contract_edge(t, frozenset({4, 5}))
        assert c == decode_tree("((1,2),(3,4,5))")
        assert c.internal_edges == t.internal_edges - 1
        with pytest.raises(TreeError):
            contract_edge(t, frozenset({1, 3}))

    def test_expand_vertex_inverts_contract(self):
        t = decode_tree("((1,2),(3,4,5))")
        s, edge = expand_vertex(t, frozenset({3, 4, 5}), (2, 3))
        assert s == decode_tree("((1,2),(3,(4,5)))")
        assert edge == frozenset({4, 5})
        assert contract_edge(s, edge) == t

    @pytest.mark.parametrize("vertex,positions", [
        (frozenset({1, 2, 3}), (1, 2, 3)),  # all children
        (frozenset({1, 2, 3}), (2,)),       # one child
        (frozenset({1, 2, 3}), (0, 1)),     # position out of range
        (frozenset({1, 2}), (1, 2)),        # not a vertex
    ])
    def test_expand_vertex_rejects_bad_input(self, vertex, positions):
        with pytest.raises(TreeError):
            expand_vertex(Tree((1, 2, 3)), vertex, positions)

    def test_relabel(self):
        t = decode_tree("((1,2),3)")
        s, verts = relabel_tree(t, {1: 3, 2: 1, 3: 2})
        assert s == decode_tree("((1,3),2)")
        # the root keeps its child order; the cherry's children, now
        # leaves 3 and 1, swap
        assert verts == [(0, (1, 2)), (1, (2, 1))]

    @pytest.mark.parametrize("mapping", [
        {1: 1, 2: 1, 3: 2},        # not injective
        {1: 2, 2: 3, 3: 4},        # image is not 1..3
        {1: 2, 2: 1},              # leaf 3 unmapped
        {1: 1, 2: 2, 3: 3, 4: 4},  # a label that is not a leaf
    ])
    def test_relabel_rejects_a_non_bijection(self, mapping):
        with pytest.raises(TreeError):
            relabel_tree(decode_tree("((1,2),3)"), mapping)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_relabel_preserves_edge_count(self, n, data):
        trees = [t for ts in enumerate_trees_all(n).values() for t in ts]
        t = data.draw(st.sampled_from(trees))
        perm = data.draw(st.permutations(list(range(1, n + 1))))
        mapping = {i + 1: perm[i] for i in range(n)}
        s, _ = relabel_tree(t, mapping)
        assert s.arity == n
        assert s.internal_edges == t.internal_edges
        assert sorted(s.vertex_arities()) == sorted(t.vertex_arities())

    # The vertex correspondence against leaf sets: a vertex is named by
    # the leaves below it, so where each one went can be read off by
    # moving leaf sets (the bookkeeping the cobar operad once did).

    @staticmethod
    def _matches(target, source, move):
        """Each target vertex (key, kids) against its (source vertex,
        positions): the moved source key is the key, and the moved
        source child at positions[p - 1] is target child p."""
        (key, kids, _), ((skey, skids, _), positions) = target, source
        return (move(skey) == key
                and [move(skids[q - 1]) for q in positions] == list(kids))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_graft_reports_where_each_vertex_went(self, n, data):
        t = data.draw(st.sampled_from(
            [t for ts in enumerate_trees_all(n).values() for t in ts]))
        m = data.draw(st.integers(2, 6))
        s = data.draw(st.sampled_from(
            [s for ss in enumerate_trees_all(m).values() for s in ss]))
        i = data.draw(st.integers(1, n))
        g, verts = graft(t, i, s)
        assert g == Tree(g.shape)
        assert (g.arity, g.internal_edges) == (
            n + m - 1, t.internal_edges + s.internal_edges + 1)

        def outer(key):
            return frozenset(y for x in key for y in (
                range(i, i + m) if x == i else (x if x < i else x + m - 1,)))

        def inner(key):
            return frozenset(x + i - 1 for x in key)

        sources = ([(v, outer) for v in vertices(t)]
                   + [(v, inner) for v in vertices(s)])
        assert sorted(src for src, _ in verts) == list(range(len(sources)))
        for target, (src, positions) in zip(vertices(g), verts, strict=True):
            vertex, move = sources[src]
            assert self._matches(target, (vertex, positions), move)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_relabel_reports_where_each_vertex_went(self, n, data):
        t = data.draw(st.sampled_from(
            [t for ts in enumerate_trees_all(n).values() for t in ts]))
        perm = data.draw(st.permutations(list(range(1, n + 1))))
        mapping = {j: perm[j - 1] for j in range(1, n + 1)}
        s, verts = relabel_tree(t, mapping)
        assert s == Tree(s.shape)

        def move(key):
            return frozenset(mapping[x] for x in key)

        old = vertices(t)
        assert sorted(src for src, _ in verts) == list(range(len(old)))
        for target, (src, positions) in zip(vertices(s), verts, strict=True):
            assert self._matches(target, (old[src], positions), move)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 6), st.data())
    def test_every_edge_contracts_to_a_valid_tree(self, n, data):
        trees = [t for t in enumerate_trees(n, data.draw(st.integers(1, n - 2)))]
        if not trees:
            return
        t = data.draw(st.sampled_from(trees))
        for edge in edges(t):
            c = contract_edge(t, edge)
            assert c.arity == n
            assert c.internal_edges == t.internal_edges - 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_vertices_are_subtree_leaf_sets(self, n, data):
        # the leaf-set names: one per vertex, each vertex's children
        # partition its leaves, and preorder agrees with vertex_arities
        trees = [t for ts in enumerate_trees_all(n).values() for t in ts]
        t = data.draw(st.sampled_from(trees))
        verts = vertices(t)
        assert verts[0][0] == frozenset(range(1, n + 1))
        assert len({key for key, _, _ in verts}) == len(verts) == (
            t.internal_edges + 1)
        for key, kids, m in verts:
            assert len(kids) == m and sum(map(len, kids)) == len(key)
            assert frozenset().union(*kids) == key
            assert [min(k) for k in kids] == sorted(min(k) for k in kids)
        assert t.vertex_arities() == [m for _, _, m in verts]
        assert edges(t) == [key for key, _, _ in verts[1:]]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 6), st.data())
    def test_expand_vertex_adds_one_edge_that_contracts_back(self, n, data):
        trees = [t for ts in enumerate_trees_all(n).values() for t in ts]
        t = data.draw(st.sampled_from(trees))
        for key, kids, m in vertices(t):
            for k in range(2, m):
                for subset in itertools.combinations(range(1, m + 1), k):
                    s, edge = expand_vertex(t, key, subset)
                    assert edge == frozenset().union(
                        *(kids[p - 1] for p in subset))
                    assert s.internal_edges == t.internal_edges + 1
                    assert set(edges(s)) == set(edges(t)) | {edge}
                    assert contract_edge(s, edge) == t

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7), st.data())
    def test_skeleton_expansions_are_canonical_and_ordered(self, n, data):
        trees = [t for ts in enumerate_trees_all(n).values() for t in ts]
        t = data.draw(st.sampled_from(trees))
        skel, labels = skeleton(t.shape)
        # the skeleton numbers the leaves in preorder and stays canonical
        assert Tree(skel).shape == skel and skeleton(skel) == (
            skel, tuple(range(1, n + 1)))
        assert substitute(skel, labels) == t.shape
        verts = vertices(Tree(skel))
        seen = []
        for vi, positions, target, places, order in skeleton_expansions(skel):
            key, kids, m = verts[vi]
            assert skeleton(target)[0] == target
            assert sorted(places) == list(range(1, n + 1))
            s = Tree(substitute(target, places))
            assert s.shape == substitute(target, places)
            assert s == expand_vertex(Tree(skel), key, positions)[0]
            assert (s.arity, s.internal_edges) == (n, t.internal_edges + 1)
            new_key = frozenset().union(*(kids[p - 1] for p in positions))
            keys = [k for k, _, _ in verts] + [new_key]
            assert [keys[j] for j in order] == [k for k, _, _ in vertices(s)]
            seen.append((vi, positions))
        assert seen == [(vi, p) for vi, (_, _, m) in enumerate(verts)
                        for k in range(2, m)
                        for p in itertools.combinations(range(1, m + 1), k)]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 7), st.data())
    def test_a_tree_expands_as_its_skeleton(self, n, data):
        # the skeleton lemma: expanding a tree never compares its labels,
        # so its expansions are its skeleton's with the labels put back
        trees = [t for ts in enumerate_trees_all(n).values() for t in ts]
        t = data.draw(st.sampled_from(trees))
        skel, labels = skeleton(t.shape)
        verts = vertices(t)
        own = list(vertex_expansions(t))
        via = list(skeleton_expansions(skel))
        assert len(own) == len(via)
        for (vi, positions, shape, order), (vj, subset, target, places,
                                            sorder) in zip(own, via):
            assert (vi, positions, order) == (vj, subset, sorder)
            assert expansion_sign(order) == expansion_sign(sorder)
            assert shape == substitute(
                target, tuple(labels[p - 1] for p in places))
            assert Tree(shape) == expand_vertex(t, verts[vi][0], positions)[0]

    def test_expansions_at_arity_7_are_pinned(self):
        # every skeleton's expansions in yield order, as the boundary
        # reads them, so a rewrite of the walk cannot reorder them
        skels = dict.fromkeys(skeleton(t.shape)[0]
                              for ts in enumerate_trees_all(7).values()
                              for t in ts)
        out = [(j, positions, target, places, tuple(order))
               for skel in skels for j, positions, target, places, order
               in skeleton_expansions(skel)]
        assert (len(skels), len(out)) == (903, 6085)
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "39af099a36d0fbb465e426aec8bccbd8ec03851ad296a4f69814449f6bb4dd3d")

    def test_encode_decode_round_trip(self):
        for e, ts in enumerate_trees_all(5).items():
            for t in ts:
                assert decode_tree(encode_tree(t)) == t

    def test_decode_rejects_garbage(self):
        for bad in ["", "(1,2", "(1,2))", "(1,,2)", "(x,y)"]:
            with pytest.raises(TreeError):
                decode_tree(bad)


# --------------------------------------------------------------------------
# Oracle 3: exhaustive stable-graph enumeration with pairwise
# isomorphism dedup, written independently of the library.


def _oracle_valence(v, edges, legs):
    return sum(1 for w in legs if w == v) + \
        sum((a == v) + (b == v) for a, b in edges)


def _oracle_connected(nv, edges):
    adj = {v: set() for v in range(nv)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for w in adj[v] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == nv


def _oracle_isomorphic(g1, g2):
    genera1, edges1, legs1 = g1
    genera2, edges2, legs2 = g2
    nv = len(genera1)
    if len(genera2) != nv or len(edges1) != len(edges2):
        return False
    for p in itertools.permutations(range(nv)):
        if any(genera2[p[v]] != genera1[v] for v in range(nv)):
            continue
        if any(p[legs1[i]] != legs2[i] for i in range(len(legs1))):
            continue
        mapped = sorted(tuple(sorted((p[a], p[b]))) for a, b in edges1)
        if mapped == sorted(edges2):
            return True
    return False


def oracle_stable_graphs(g, n, max_edges):
    """Isomorphism classes of stable graphs, counted the slow way."""
    classes = []
    for nv in range(1, max_edges + 2):
        pairs = list(itertools.combinations_with_replacement(range(nv), 2))
        for ne in range(nv - 1, max_edges + 1):
            b1 = ne - nv + 1
            if b1 < 0 or b1 > g:
                continue
            for edges in itertools.combinations_with_replacement(pairs, ne):
                if not _oracle_connected(nv, edges):
                    continue
                for genera in itertools.product(range(g - b1 + 1), repeat=nv):
                    if sum(genera) != g - b1:
                        continue
                    for legs in itertools.product(range(nv), repeat=n):
                        ok = True
                        for v in range(nv):
                            val = _oracle_valence(v, edges, legs)
                            if genera[v] == 0 and val < 3:
                                ok = False
                            if genera[v] == 1 and val < 1:
                                ok = False
                        if not ok:
                            continue
                        cand = (tuple(genera),
                                [tuple(sorted(e)) for e in edges],
                                tuple(legs))
                        if not any(_oracle_isomorphic(cand, c)
                                   for c in classes):
                            classes.append(cand)
    return classes


# Oracle 4: orbifold Euler characteristics.  chi of the compactified
# moduli space is the sum over stable graphs G of prod_v chi(M_{g_v,n_v})
# / |Aut G| (n_v the valence), with chi of the open spaces from
# Harer-Zagier: chi(M_{g,1}) = -B_{2g}/(2g), chi(M_{g,n+1}) =
# (2-2g-n) chi(M_{g,n}), chi(M_{g,0}) = chi(M_{g,1})/(2-2g), and in genus 0
# chi(M_{0,n}) = (-1)^(n-3) (n-3)!.


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """B_m with B_1 = -1/2, from sum_{k<=m} C(m+1, k) B_k = 0."""
    if m == 0:
        return Fraction(1)
    return -sum(math.comb(m + 1, k) * bernoulli(k)
                for k in range(m)) / (m + 1)


def open_chi(g: int, n: int) -> Fraction:
    if g == 0:
        return Fraction((-1) ** (n - 3) * math.factorial(n - 3))
    chi = -bernoulli(2 * g) / (2 * g)  # n = 1
    if n == 0:
        return chi / (2 - 2 * g)
    for m in range(1, n):
        chi *= 2 - 2 * g - m
    return chi


# the stable (g, n) within the `graphs` command's cap 3g - 3 + n <= 3
DESK_PAIRS = [(0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (2, 0)]

# every stable (g, n) with 3g - 3 + n <= 4, and (3, 0), which has graphs
# whose vertices differ only in genus (V[1,2] E[0-1])
ORACLE_PAIRS = DESK_PAIRS + [(0, 7), (1, 4), (2, 1), (3, 0)]


# Oracle 5: the canonical form as the lex-least (genera, edges, legs)
# over all nv! vertex orderings, and the automorphism group by trying
# every vertex permutation in full, as the library did before it
# searched within genus classes and read the automorphisms' vertex
# permutations off that search.


def _oracle_graph_code(genera, edges, legs, perm):
    pg = tuple(genera[perm.index(v)] for v in range(len(genera)))
    # perm maps old index -> new index
    pe = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
    pl = tuple(perm[v] for v in legs)
    return (pg, pe, pl)


def oracle_canonical_graph(genera, edges, legs):
    return min(_oracle_graph_code(genera, edges, legs, p)
               for p in itertools.permutations(range(len(genera))))


def oracle_automorphism_group(G):
    groups = {}
    for j, ends in enumerate(G.edges):
        groups.setdefault(ends, []).append(j)
    legs = tuple((("leg", i), ("leg", i)) for i in range(1, G.num_legs + 1))
    autos = []
    for p in itertools.permutations(range(G.num_vertices)):
        targets = [groups.get(tuple(sorted((p[a], p[b]))), [])
                   for a, b in groups]
        if (any(G.genera[q] != G.genera[v] for v, q in enumerate(p))
                or any(p[v] != v for v in G.legs)
                or any(len(ks) != len(js)
                       for ks, js in zip(targets, groups.values()))):
            continue
        for perms in itertools.product(*map(itertools.permutations, targets)):
            image = list(itertools.chain(*perms))
            sides = [(0, 1) if a == b else (int((p[a], p[b]) != G.edges[k]),)
                     for (a, b), k in zip(G.edges, image)]
            for flip in itertools.product(*sides):
                half = [h for j, (k, f) in enumerate(zip(image, flip))
                        for h in ((("e", j, 0), ("e", k, f)),
                                  (("e", j, 1), ("e", k, 1 - f)))]
                autos.append(GraphAutomorphism(p, legs + tuple(half)))
    return autos


def oracle_is_stable(genera, edges, legs):
    return all(not (g == 0 and _oracle_valence(v, edges, legs) < 3)
               and not (g == 1 and _oracle_valence(v, edges, legs) < 1)
               for v, g in enumerate(genera))


@lru_cache(maxsize=None)
def census_with_oracle(g, n):
    """Each graph of the full (g, n) census with the oracle's triple."""
    return [(G, oracle_canonical_graph(G.genera, G.edges, G.legs))
            for G in enumerate_stable_graphs(g, n, 3 * g - 3 + n)]


@st.composite
def raw_connected_graphs(draw):
    """A connected (genera, edges, legs) in no particular form: a random
    spanning tree plus extra edges and loops, endpoints in either order."""
    nv = draw(st.integers(1, 4))
    genera = draw(st.lists(st.integers(0, 2), min_size=nv, max_size=nv))
    vertex = st.integers(0, nv - 1)
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    edges = [e[::-1] if draw(st.booleans()) else e
             for e in draw(st.permutations(edges))]
    legs = draw(st.lists(vertex, max_size=5))
    return genera, edges, legs


class TestStableGraphs:
    def test_validation(self):
        with pytest.raises(GraphError):
            StableGraph([0], [], [0])          # valence 0 < 3 at genus 0
        with pytest.raises(GraphError):
            StableGraph([1], [], [])           # valence 0 < 1 at genus 1
        with pytest.raises(GraphError):
            StableGraph([1, 1], [], [0, 1])    # disconnected
        with pytest.raises(GraphError):
            StableGraph([-1], [], [0])
        StableGraph([1], [], [0])              # smooth genus-1 with a leg

    def test_genus_invariant(self):
        G = StableGraph([0], [(0, 0)], [0])
        assert genus_invariant(G) == 1
        H = StableGraph([1, 0], [(0, 1)], [1, 1])
        assert genus_invariant(H) == 1

    @pytest.mark.parametrize("g,n,max_edges", [
        (1, 1, 1), (1, 1, 2), (1, 2, 2), (0, 4, 2), (0, 5, 2),
        (1, 2, -1), (1, 2, 0), (0, 4, 4), (1, 1, 3),
    ])
    def test_counts_match_exhaustive_oracle(self, g, n, max_edges):
        ours = enumerate_stable_graphs(g, n, max_edges)
        assert len(set(ours)) == len(ours)
        assert len(ours) == len(oracle_stable_graphs(g, n, max_edges))

    def test_one_edge_census_frozen_values(self):
        assert len(enumerate_stable_graphs(1, 1, 1)) == 2
        assert len(enumerate_stable_graphs(0, 4, 1)) == 4
        assert len(enumerate_stable_graphs(0, 5, 1)) == 11

    def test_unstable_pairs_rejected(self):
        for g, n, max_edges in [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 1),
                                (0, 2, -1), (1, 0, 0), (0, 1, 5),
                                (-1, 5, 2)]:  # the last: negative genus
            with pytest.raises(GraphError):
                enumerate_stable_graphs(g, n, max_edges)

    def test_loop_graph_has_automorphism_of_order_two(self):
        G = StableGraph([0], [(0, 0)], [0])
        autos = automorphism_group(G)
        assert len(autos) == 2
        nontrivial = [a for a in autos
                      if any(src != dst for src, dst in a.half_edge_map)]
        assert len(nontrivial) == 1

    def test_smooth_vertex_trivial_automorphisms(self):
        G = StableGraph([1], [], [0])
        assert len(automorphism_group(G)) == 1

    def test_parallel_edges_automorphisms(self):
        # two vertices joined by two edges: swap the edges
        G = StableGraph([1, 1], [(0, 1), (0, 1)], [])
        assert len(automorphism_group(G)) >= 2

    # orders: (graphs per edge count, graphs per |Aut|); the last three
    # are past the CLI cap and were recorded with the generator that
    # tried every edge multiset, genus composition and leg assignment
    @pytest.mark.parametrize("g, n, orders", [
        (1, 2, ({0: 1, 1: 2, 2: 2}, {1: 2, 2: 3})),
        (1, 3, ({0: 1, 1: 5, 2: 10, 3: 7}, {1: 9, 2: 14})),
        (2, 0, ({0: 1, 1: 2, 2: 2, 3: 2}, {1: 1, 2: 3, 8: 2, 12: 1})),
        (2, 1, ({0: 1, 1: 2, 2: 5, 3: 5, 4: 3},
                {1: 2, 2: 7, 4: 4, 6: 1, 8: 2})),
        (1, 4, ({0: 1, 1: 12, 2: 43, 3: 68, 4: 39}, {1: 67, 2: 96})),
        (3, 0, ({0: 1, 1: 2, 2: 5, 3: 9, 4: 12, 5: 8, 6: 5},
                {1: 2, 2: 6, 4: 12, 6: 3, 8: 8, 12: 2, 16: 5, 24: 1, 48: 3})),
    ])
    def test_automorphism_order_histograms(self, g, n, orders):
        by_edges: dict[int, int] = {}
        hist: dict[int, int] = {}
        for G in enumerate_stable_graphs(g, n, 3 * g - 3 + n):
            by_edges[len(G.edges)] = by_edges.get(len(G.edges), 0) + 1
            k = len(automorphism_group(G))
            hist[k] = hist.get(k, 0) + 1
        assert (by_edges, hist) == orders

    def test_automorphism_order_counts_the_group(self):
        # 595 graphs in all, every census whole
        census = [G for g, n in [(0, 5), (0, 6), (1, 1), (1, 2), (1, 3),
                                 (1, 4), (2, 0), (2, 1), (2, 2), (3, 0)]
                  for G in enumerate_stable_graphs(g, n, 3 * g - 3 + n)]
        assert len(census) == 595
        assert [automorphism_order(G) for G in census] == \
            [len(automorphism_group(G)) for G in census]

    @pytest.mark.parametrize("g, n", DESK_PAIRS)
    def test_contractions_land_one_level_down(self, g, n):
        census = enumerate_stable_graphs(g, n, 3 * g - 3 + n)
        for G in census:
            below = {H for H in census if len(H.edges) == len(G.edges) - 1}
            for j in range(len(G.edges)):
                assert contract_graph_edge(G, j) in below

    @pytest.mark.parametrize("g, n, chi", [
        (0, 3, 1), (0, 4, 2), (0, 5, 7), (0, 6, 34),
        (1, 1, Fraction(5, 12)), (1, 2, Fraction(1, 2)),
        (1, 3, Fraction(17, 12)), (2, 0, Fraction(119, 1440)),
    ])
    def test_orbifold_euler_characteristic(self, g, n, chi):
        total = sum(Fraction(math.prod(open_chi(G.genera[v], G.valence(v))
                                       for v in range(G.num_vertices)),
                             len(automorphism_group(G)))
                    for G in enumerate_stable_graphs(g, n, 3 * g - 3 + n))
        assert total == chi
        if g == 0:
            assert total == strata_euler_characteristic(n)

    def test_contract_nonloop_merges_genera(self):
        G = StableGraph([1, 2], [(0, 1)], [0])
        H = contract_graph_edge(G, 0)
        assert H.genera == (3,) and H.edges == ()
        assert genus_invariant(H) == genus_invariant(G)

    def test_contract_loop_raises_genus(self):
        G = StableGraph([0], [(0, 0)], [0, 0, 0])
        H = contract_graph_edge(G, 0)
        assert H.genera == (1,) and H.edges == ()
        assert genus_invariant(H) == genus_invariant(G)

    def test_contract_rejects_bad_index(self):
        G = StableGraph([1], [], [0])
        with pytest.raises(GraphError):
            contract_graph_edge(G, 0)

    def test_encode_decode_round_trip(self):
        for G in enumerate_stable_graphs(1, 2, 2):
            assert decode_graph(encode_graph(G)) == G
        with pytest.raises(GraphError):
            decode_graph("not a graph")

    @pytest.mark.parametrize("text, token", [
        ("V[0] E[0-1-2] L[0,0,0]", "'0-1-2'"),
        ("V[0,x] E[0-1] L[0,0,1,1]", "'x'"),
        ("V[0] E[0-] L[0,0,0]", "'0-'"),
        ("V[0,,0] E[0-1] L[0,0,1,1]", "''"),
        ("V[0] E[] L[0,0,\u0662]", "'\u0662'"),  # an Arabic-Indic two
    ])
    def test_decode_names_the_bad_token(self, text, token):
        with pytest.raises(GraphError, match=re.escape(token)):
            decode_graph(text)

    def test_canonical_form_identifies_isomorphic_presentations(self):
        a = StableGraph([0, 1], [(0, 1), (0, 1)], [0])
        b = StableGraph([1, 0], [(1, 0), (0, 1)], [1])
        assert a == b and hash(a) == hash(b)


class TestStableGraphOracles:
    @pytest.mark.parametrize("g, n", ORACLE_PAIRS)
    def test_canonical_form_is_the_brute_force_minimum(self, g, n):
        for G, triple in census_with_oracle(g, n):
            assert (G.genera, G.edges, G.legs) == triple

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @pytest.mark.parametrize("g, n", ORACLE_PAIRS)
    def test_relabelled_graphs_canonicalize_to_the_oracle(self, g, n, seed):
        # one seeded relabelling and edge shuffle per graph of the census
        rng = random.Random(seed)
        for G, triple in census_with_oracle(g, n):
            new = list(range(G.num_vertices))  # old vertex -> new
            rng.shuffle(new)
            genera = [0] * len(new)
            for v, gv in enumerate(G.genera):
                genera[new[v]] = gv
            edges = [(new[b], new[a]) if rng.random() < 0.5
                     else (new[a], new[b]) for a, b in G.edges]
            rng.shuffle(edges)
            H = StableGraph(genera, edges, [new[v] for v in G.legs])
            assert (H.genera, H.edges, H.legs) == triple
            # the vertex permutations are read off this input's search
            assert automorphism_group(H) == oracle_automorphism_group(H)

    @pytest.mark.parametrize("g, n", ORACLE_PAIRS)
    def test_automorphism_lists_match_brute_force(self, g, n):
        for G, _ in census_with_oracle(g, n):
            assert automorphism_group(G) == oracle_automorphism_group(G)

    @settings(max_examples=300, deadline=None)
    @given(raw=raw_connected_graphs())
    def test_stability_rule_agrees_with_the_validating_constructor(self, raw):
        genera, edges, legs = raw
        try:
            StableGraph(genera, edges, legs)
            accepted = True
        except GraphError:
            accepted = False
        assert _is_stable(genera, edges, legs) == accepted \
            == oracle_is_stable(genera, edges, legs)


def _graph_data(graphs):
    return [(G.genera, G.edges, G.legs, G._vertex_perms) for G in graphs]


class TestCensusFilter:
    """The generator canonicalizes only the candidates whose new edge has
    the largest key, and checks stability only at the split vertices;
    the reference grows every census without either shortcut."""

    @pytest.mark.parametrize("g, n", ORACLE_PAIRS)
    def test_census_equals_the_unfiltered_generator(self, g, n):
        levels = stable_graph_levels(g, n)
        for max_edges in range(-1, 3 * g - 3 + n + 1):
            want = sorted(set().union(*levels[:max_edges + 1]),
                          key=lambda G: (len(G.genera), len(G.edges),
                                         G.genera, G.edges, G.legs))
            assert _graph_data(enumerate_stable_graphs(g, n, max_edges)) \
                == _graph_data(want)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_genus_zero_canonicalizes_each_graph_once(self, n, monkeypatch):
        calls = []

        def counted(*data):
            calls.append(data)
            return canonical(*data)

        canonical = stablegraphs._canonical_graph
        monkeypatch.setattr(stablegraphs, "_canonical_graph", counted)
        census = enumerate_stable_graphs(0, n, n - 3)
        # the smooth graph is canonicalized by the validating constructor
        assert len(calls) == 1 + sum(1 for G in census if G.edges)

    @pytest.mark.parametrize("g, n", ORACLE_PAIRS)
    def test_local_stability_keeps_exactly_the_stable_splits(self, g, n):
        for G in enumerate_stable_graphs(g, n, 3 * g - 3 + n):
            candidates = list(_uncontractions(G))
            assert all(_is_stable(*data) for data in candidates)
            assert candidates == list(unfiltered_uncontractions(G))
