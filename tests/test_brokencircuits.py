import itertools
import random

import pytest

from incrtree.brokencircuits import (bcf_subforests, breaks_by_circuits,
                                     breaks_by_skeleton, is_broken_circuit_free,
                                     min_attachment_tree, spanning_subtrees)
from incrtree.checks import _bcf_by_subsets
from incrtree.graphs import (Graph, connected_graphs, random_connected_graph,
                             random_graph)
from incrtree.invariants import chromatic_poly_by_subsets
from incrtree.skeleton import skeleton
from incrtree.trees import RootedTree, increasing_trees


def K(n):
    return Graph.complete(n)


def path_tree(*vertices):
    return RootedTree(vertices[0], {b: a for a, b in zip(vertices, vertices[1:])})


def is_circuit(edges):
    """A nonempty edge set forming one simple cycle: connected support with
    every vertex of degree two."""
    if not edges:
        return False
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    return Graph(deg.keys(), edges).is_connected()


def bcf_by_definition(h, g):
    """Oracle: literally search for a subset B of h and a smaller edge of g
    completing it to a circuit."""
    hs = sorted(h.edges)
    for k in range(1, len(hs) + 1):
        for combo in itertools.combinations(hs, k):
            for e in g.edges:
                if e not in combo and e < min(combo) and is_circuit(set(combo) | {e}):
                    return False
    return True


def breaks_by_definition(t, g):
    """Oracle: an outside edge e is a break when it is smaller than every
    edge of C, the t-edges that complete e to a circuit."""
    ts = sorted(t.edges)
    out = set()
    for e in g.edges - t.edges:
        (closed,) = [c for k in range(1, len(ts) + 1)
                     for c in itertools.combinations(ts, k)
                     if is_circuit(set(c) | {e})]
        if e < min(closed):
            out.add(e)
    return out


# --- breaks ----------------------------------------------------------------------

def test_breaks_examples_k3():
    k3 = K(3)
    assert breaks_by_circuits(k3.spanning([(1, 2), (2, 3)]), k3) == frozenset()
    assert breaks_by_circuits(k3.spanning([(1, 3), (2, 3)]), k3) == {(1, 2)}
    assert breaks_by_circuits(k3.spanning([(1, 2), (1, 3)]), k3) == frozenset()


def test_breaks_by_skeleton_example():
    k3 = K(3)
    t = k3.spanning([(1, 3), (2, 3)])
    assert skeleton(t) == path_tree(1, 2, 3)
    assert breaks_by_skeleton(t, k3) == {(1, 2)}
    assert breaks_by_skeleton(k3.spanning([(1, 2), (2, 3)]), k3) == frozenset()


def test_breaks_routes_agree_everywhere_small():
    for n in range(2, 5):
        for g in connected_graphs(n):
            for t in spanning_subtrees(g):
                assert breaks_by_skeleton(t, g) == breaks_by_circuits(t, g)


def test_breaks_match_definition():
    for n in range(2, 6):
        for g in connected_graphs(n):
            for t in spanning_subtrees(g):
                assert breaks_by_circuits(t, g) == breaks_by_definition(t, g)


def test_breaks_requires_spanning_subtree():
    k3 = K(3)
    for breaks in (breaks_by_circuits, breaks_by_skeleton):
        with pytest.raises(ValueError):
            breaks(k3.spanning([(1, 2)]), k3)                  # not spanning tree
        with pytest.raises(ValueError):
            breaks(Graph(3, [(1, 2), (2, 3)]),
                   Graph(3, [(1, 2), (1, 3)]))                 # not a subgraph


def test_exactly_one_tree_edge_per_attachment_set():
    for g in connected_graphs(4):
        for t in spanning_subtrees(g):
            collapsed = skeleton(t)
            for v in collapsed.parent:
                assert len(collapsed.attachment_edges(v) & t.edges) == 1


# --- broken circuit freeness ----------------------------------------------------------

def test_is_bcf_examples():
    k3 = K(3)
    assert is_broken_circuit_free(k3.spanning([(1, 2), (1, 3)]), k3)
    assert not is_broken_circuit_free(k3.spanning([(1, 3), (2, 3)]), k3)
    assert is_broken_circuit_free(k3.spanning([]), k3)


def test_is_bcf_rejects_circuits():
    k3 = K(3)
    assert not is_broken_circuit_free(k3, k3)


@pytest.mark.parametrize("h", [Graph(3, [(1, 2)]).restrict({1, 2}), Graph(3, [(1, 2)])],
                         ids=["fewer vertices", "foreign edge"])
def test_is_bcf_needs_a_spanning_subgraph(h):
    with pytest.raises(ValueError, match="expected a spanning subgraph"):
        is_broken_circuit_free(h, Graph(3, [(1, 3), (2, 3)]))


def test_is_bcf_matches_literal_definition():
    for n in range(2, 5):
        for g in connected_graphs(n):
            es = sorted(g.edges)
            for k in range(len(es) + 1):
                for combo in itertools.combinations(es, k):
                    h = g.spanning(combo)
                    assert is_broken_circuit_free(h, g) == bcf_by_definition(h, g)


def test_bcf_implies_forest():
    for g in connected_graphs(4):
        for h in bcf_subforests(g):
            assert len(h.edges) == len(h.vertices) - len(h.components())


# --- the bijection -----------------------------------------------------------------------

def test_min_attachment_examples():
    k3 = K(3)
    assert min_attachment_tree(path_tree(1, 2, 3), k3).edges == {(1, 2), (2, 3)}
    assert min_attachment_tree(RootedTree(1, {2: 1, 3: 1}), k3).edges == \
        {(1, 2), (1, 3)}


def test_min_attachment_unsupported_conventions():
    p3 = Graph(3, [(1, 2), (2, 3)])
    star = RootedTree(1, {2: 1, 3: 1})
    assert min_attachment_tree(star, p3) is None
    with pytest.raises(ValueError, match="^tree and graph have different vertex sets$"):
        min_attachment_tree(star, Graph(4, [(1, 2), (2, 3), (3, 4)]))
    with pytest.raises(ValueError, match="^tree must be increasing$"):
        min_attachment_tree(RootedTree(2, {1: 2, 3: 2}), p3)


def test_min_attachment_images_have_no_breaks():
    for n in (4, 5):
        kn = K(n)
        for t in increasing_trees(kn.vertices):
            image = min_attachment_tree(t, kn)
            assert breaks_by_circuits(image, kn) == frozenset()


def test_bijection_small():
    for n in range(1, 5):
        for g in connected_graphs(n):
            supported = [t for t in increasing_trees(g.vertices)
                         if t.is_supported_by(g)]
            images = [min_attachment_tree(t, g) for t in supported]
            bcf = list(bcf_subforests(g, q=1))
            assert len(set(images)) == len(images)
            assert set(images) == set(bcf)
            for t, im in zip(supported, images):
                assert skeleton(im) == t
            for h in bcf:
                assert min_attachment_tree(skeleton(h), g) == h


# --- enumeration -------------------------------------------------------------------------------

def test_bcf_subforest_examples():
    k3 = K(3)
    assert [sorted(h.edges) for h in bcf_subforests(k3, q=1)] == [
        [(1, 2), (1, 3)],
        [(1, 2), (2, 3)],
    ]
    assert [h.edges for h in bcf_subforests(k3, q=3)] == [frozenset()]
    assert len(list(bcf_subforests(K(4), q=1))) == 6


def test_bcf_counts_match_chromatic_coefficients():
    for n in range(1, 5):
        for g in connected_graphs(n):
            chi = chromatic_poly_by_subsets(g)
            for q in range(1, n + 1):
                count = sum(1 for _ in bcf_subforests(g, q=q))
                assert count == abs(chi.coefficient(q))


def test_bcf_stream_lexicographic():
    g = K(3)
    streamed = [h.sorted_edges() for h in bcf_subforests(g)]
    assert streamed == sorted(streamed)
    assert streamed == [h.sorted_edges() for h in bcf_subforests(g)]


def test_bcf_fixed_q_is_the_filtered_full_stream():
    """A given q yields exactly the full stream filtered by edge count, in
    the same order; q outside 0..n yields nothing."""
    rng = random.Random(11)
    graphs = list(connected_graphs(4)) + [random_connected_graph(6, rng)
                                          for _ in range(5)]
    for g in graphs:
        n = len(g.vertices)
        full = [h.sorted_edges() for h in bcf_subforests(g)]
        for q in range(-1, n + 3):
            assert [h.sorted_edges() for h in bcf_subforests(g, q=q)] == \
                [es for es in full if len(es) == n - q]


def test_bcf_stream_matches_the_subset_walk():
    """The bijection stream equals the oracle that walks edge subsets and
    keeps the broken circuit free ones, order included, for every q and for
    connected and disconnected graphs alike."""
    rng = random.Random(1483)
    graphs = [Graph(1), Graph(2), Graph(4, [(1, 2), (3, 4)])]
    graphs += [random_graph(n, rng) for n in (3, 4, 5, 5, 6, 6, 6)]
    graphs += [random_connected_graph(n, rng) for n in (5, 6, 7)]
    for g in graphs:
        n = len(g.vertices)
        for q in [None, *range(-1, n + 3)]:
            assert list(bcf_subforests(g, q)) == list(_bcf_by_subsets(g, q))
