import itertools
import random

import pytest

from incrtree.graphs import (Graph, NotConnectedError, connected_graphs,
                             random_graph)
from incrtree.skeleton import (attachments_cover, enumerate_fiber,
                               fiber_edge_sets, fiber_members, fiber_size,
                               skeleton, skeleton_forest, splits_match)
from incrtree.trees import RootedForest, RootedTree, increasing_trees


def K(n):
    return Graph.complete(n)


def path_tree(*vertices):
    return RootedTree(vertices[0], {b: a for a, b in zip(vertices, vertices[1:])})


def skeleton_reference(g):
    """Oracle: the straight recursive reading of the collapsing procedure."""
    parent = {}

    def walk(subset):
        r = min(subset)
        for block in g.restrict(subset - {r}).components().blocks:
            parent[min(block)] = r
            if len(block) > 1:
                walk(frozenset(block))

    walk(frozenset(g.vertices))
    return RootedTree(min(g.vertices), parent)


def brute_fibers(g):
    """Oracle: map every connected spanning subgraph to its skeleton."""
    out = {}
    es = sorted(g.edges)
    for k in range(len(es) + 1):
        for combo in itertools.combinations(es, k):
            q = g.spanning(combo)
            if q.is_connected():
                out.setdefault(skeleton(q), set()).add(q)
    return out


# --- skeleton -----------------------------------------------------------------------

def test_skeleton_examples():
    assert skeleton(K(3)) == path_tree(1, 2, 3)
    assert skeleton(Graph(3, [(1, 2), (1, 3)])) == RootedTree(1, {2: 1, 3: 1})
    assert skeleton(Graph(1)) == RootedTree(1)


def test_skeleton_rejects_disconnected():
    """The refusal names the components, in the words of exit code 3."""
    with pytest.raises(NotConnectedError) as info:
        skeleton(Graph(3, [(2, 3)]))
    assert str(info.value) == "graph is not connected (2 components: 1 | 2 3)"


def test_skeleton_of_no_vertices_is_a_value_error():
    with pytest.raises(ValueError) as info:
        skeleton(Graph(()))
    assert type(info.value) is ValueError


def test_skeleton_matches_recursive_reference():
    for n in range(1, 5):
        for g in connected_graphs(n):
            assert skeleton(g) == skeleton_reference(g)


def test_skeleton_is_increasing_and_supported():
    for g in connected_graphs(4):
        t = skeleton(g)
        assert t.is_increasing()
        assert t.is_supported_by(g)


def test_skeleton_need_not_be_subgraph():
    g = Graph(3, [(1, 3), (2, 3)])
    t = skeleton(g)
    assert t == path_tree(1, 2, 3)
    assert not t.edges <= g.edges
    # and such graphs exist at n=4 as well
    witnesses = [g for g in connected_graphs(4)
                 if not skeleton(g).edges <= g.edges]
    assert witnesses


def test_skeleton_of_restriction_uses_original_ids():
    g = Graph(5, [(2, 4), (4, 5), (2, 5)])
    t = skeleton(g.restrict({2, 4, 5}))
    assert t.root == 2
    assert t.vertices == {2, 4, 5}


def random_sparse_graph(n, extra, rng, connected=True):
    """A random tree (or forest) on 1..n plus extra edges, labels shuffled."""
    label = list(range(1, n + 1))
    rng.shuffle(label)
    edges = set()
    for i in range(1, n):
        if connected or rng.random() < 0.8:
            edges.add((i, rng.randrange(i)))
    while extra:
        u, v = rng.sample(range(n), 2)
        extra -= (u, v) not in edges and (v, u) not in edges
        edges.add((u, v))
    return Graph(n, ((label[u], label[v]) for u, v in edges))


def test_skeleton_matches_reference_on_sparse_random_graphs():
    rng = random.Random(2005)
    for _ in range(60):
        n = rng.randint(20, 80)
        g = random_sparse_graph(n, rng.randint(0, n // 2), rng)
        assert skeleton(g) == skeleton_reference(g)


def test_skeleton_matches_reference_on_families():
    for n in (1, 2, 7, 60):
        natural = Graph(n, [(i, i + 1) for i in range(1, n)])
        reversed_labels = Graph(n, [(n + 1 - i, n - i) for i in range(1, n)])
        for g in (natural, reversed_labels, Graph(n, [(1, v) for v in range(2, n + 1)]),
                  Graph(n, [(v, n) for v in range(1, n)]), K(min(n, 12))):
            assert skeleton(g) == skeleton_reference(g)


def test_skeleton_forest_matches_per_component_skeletons():
    rng = random.Random(1990)
    for _ in range(60):
        n = rng.randint(5, 40)
        g = random_sparse_graph(n, rng.randint(0, 3), rng, connected=False)
        expected = RootedForest(skeleton(g.restrict(b)) for b in g.components())
        forest = skeleton_forest(g)
        assert forest == expected
    assert skeleton_forest(Graph(1)) == RootedForest([RootedTree(1)])
    assert skeleton_forest(Graph(())) == RootedForest(())


def test_skeleton_rejects_isolated_vertex_and_two_components():
    for g in (Graph(4, [(1, 2), (2, 3)]), Graph(4, [(1, 2), (3, 4)]),
              Graph(6, [(1, 3), (2, 5), (4, 6), (3, 5)])):
        with pytest.raises(NotConnectedError):
            skeleton(g)


def test_skeleton_does_not_restrict_or_split(monkeypatch):
    """One pass over the edges: no per-vertex restrict-and-split route."""
    n = 2000
    g = Graph(n, [(i, i + 1) for i in range(1, n)])

    def refuse(*_):
        raise AssertionError("skeleton must not restrict or split the graph")

    monkeypatch.setattr(Graph, "restrict", refuse)
    monkeypatch.setattr(Graph, "components", refuse)
    assert skeleton(g) == RootedTree(1, {v: v - 1 for v in range(2, n + 1)})


# --- fibers ----------------------------------------------------------------------------

def test_fiber_edge_sets_examples():
    k3 = K(3)
    assert fiber_edge_sets(k3, path_tree(1, 2, 3)) == {
        2: frozenset({(1, 2), (1, 3)}),
        3: frozenset({(2, 3)}),
    }
    star = RootedTree(1, {2: 1, 3: 1})
    assert fiber_edge_sets(k3, star) == {
        2: frozenset({(1, 2)}),
        3: frozenset({(1, 3)}),
    }
    p3 = Graph(3, [(1, 2), (2, 3)])
    assert fiber_edge_sets(p3, star) == {
        2: frozenset({(1, 2)}),
        3: frozenset(),
    }


def test_fiber_edge_sets_match_the_per_vertex_definition():
    """The one walk down the tree gives every vertex's attachment_edges in g,
    keyed in ascending order, on every small connected graph and tree and
    on random graphs, connected or not, with random trees and skeletons."""
    def definition(g, t):
        return [(v, t.attachment_edges(v) & g.edges) for v in sorted(t.parent)]

    pairs = [(g, t) for n in range(1, 6) for g in connected_graphs(n)
             for t in increasing_trees(g.vertices)]
    assert len(pairs) == 17_710
    rng = random.Random(2605)
    for _ in range(300):
        n = rng.randint(6, 40)
        g = (random_graph(n, rng) if rng.random() < 0.3 else
             random_sparse_graph(n, rng.randint(0, n), rng, connected=rng.random() < 0.5))
        pairs.append((g, RootedTree(1, {v: rng.randint(1, v - 1) for v in range(2, n + 1)})))
        if g.is_connected():
            pairs.append((g, skeleton(g)))
    for g, t in pairs:
        assert list(fiber_edge_sets(g, t).items()) == definition(g, t)


def test_fiber_edge_sets_vertex_mismatch():
    with pytest.raises(ValueError):
        fiber_edge_sets(K(3), path_tree(1, 2))


def test_fiber_size_examples():
    k3 = K(3)
    assert fiber_size(k3, path_tree(1, 2, 3)) == 3
    assert fiber_size(k3, RootedTree(1, {2: 1, 3: 1})) == 1


def test_fiber_size_matches_brute_force():
    for g in [K(3), K(4), Graph(4, [(1, 2), (2, 3), (3, 4)]),
              Graph(4, [(1, 3), (2, 3), (2, 4), (3, 4)])]:
        fibers = brute_fibers(g)
        for t in increasing_trees(g.vertices):
            assert fiber_size(g, t) == len(fibers.get(t, ()))


def test_k4_fiber_sizes():
    k4 = K(4)
    sizes = sorted((fiber_size(k4, t) for t in increasing_trees(k4.vertices)),
                   reverse=True)
    assert sizes == [21, 7, 3, 3, 3, 1]
    assert sum(sizes) == 38


def test_unsupported_tree_fiber_conventions():
    p3 = Graph(3, [(1, 2), (2, 3)])
    star = RootedTree(1, {2: 1, 3: 1})
    assert fiber_size(p3, star) == 0
    assert list(enumerate_fiber(p3, star)) == []


def test_enumerate_fiber_examples():
    k3 = K(3)
    # golden order: binary counter per vertex, largest vertex fastest
    assert [sorted(q.edges) for q in enumerate_fiber(k3, path_tree(1, 2, 3))] == [
        [(1, 2), (2, 3)],
        [(1, 3), (2, 3)],
        [(1, 2), (1, 3), (2, 3)],
    ]
    star_fiber = list(enumerate_fiber(k3, RootedTree(1, {2: 1, 3: 1})))
    assert [sorted(q.edges) for q in star_fiber] == [[(1, 2), (1, 3)]]
    # the trees take one edge per vertex, listed in vertex order
    assert list(fiber_members(k3, path_tree(1, 2, 3), True)) == [
        ((1, 2), (2, 3)), ((1, 3), (2, 3))]


def test_enumerate_fiber_matches_brute_force_and_is_deterministic():
    for g in [K(4), Graph(4, [(1, 2), (1, 3), (1, 4), (3, 4)])]:
        fibers = brute_fibers(g)
        total = 0
        for t in increasing_trees(g.vertices):
            members = list(enumerate_fiber(g, t))
            assert len(members) == len(set(members)) == fiber_size(g, t)
            assert set(members) == fibers.get(t, set())
            assert members == list(enumerate_fiber(g, t))
            total += len(members)
        assert total == sum(len(v) for v in fibers.values())


def test_fiber_members_collapse_back():
    g = Graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    t = skeleton(g)
    for q in enumerate_fiber(g, t):
        assert skeleton(q) == t


def test_single_vertex_fiber():
    g = Graph(1)
    t = RootedTree(1)
    assert fiber_size(g, t) == 1
    assert [q.edges for q in enumerate_fiber(g, t)] == [frozenset()]


# --- the three-way characterization ------------------------------------------------------

def test_splits_match_examples():
    k3 = K(3)
    assert splits_match(k3, path_tree(1, 2, 3))
    assert not splits_match(k3, RootedTree(1, {2: 1, 3: 1}))
    assert splits_match(Graph(3, [(1, 2), (1, 3)]), RootedTree(1, {2: 1, 3: 1}))


def test_splits_match_refuses_a_disconnected_subtree():
    """Only the root's subtree can fail the connectivity test: a passing
    parent check makes each child's subtree a component of g."""
    assert not splits_match(Graph(3, [(2, 3)]), path_tree(1, 2, 3))


def test_three_conditions_agree():
    for n in range(1, 5):
        for g in connected_graphs(n):
            t0 = skeleton(g)
            for t in increasing_trees(g.vertices):
                direct = t == t0
                assert splits_match(g, t) == direct
                assert attachments_cover(g, t) == direct


def test_unsupported_tree_fails_all_three():
    p3 = Graph(3, [(1, 2), (2, 3)])
    star = RootedTree(1, {2: 1, 3: 1})
    assert not star.is_supported_by(p3)
    assert skeleton(p3) != star
    assert not splits_match(p3, star)
    assert not attachments_cover(p3, star)
