"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its runtime.
"""

import itertools
import random
import time
from contextlib import contextmanager
from math import factorial

from incrtree.brokencircuits import (bcf_subforests, breaks_by_circuits,
                                     breaks_by_skeleton, min_attachment_tree,
                                     spanning_subtrees)
from incrtree.checks import DEFAULT_SEED
from incrtree.graphs import (Graph, all_graphs, connected_graphs,
                             random_connected_graph, random_graph)
from incrtree.invariants import (chromatic_poly_by_independent_sets,
                                 chromatic_poly_by_subsets,
                                 chromatic_poly_from_forests, collapse_by_shape,
                                 connected_subgraph_poly,
                                 connected_subgraph_poly_from_trees,
                                 csf_x_from_forests, csf_y_by_subsets,
                                 csf_y_from_forests)
from incrtree.skeleton import (attachments_cover, enumerate_fiber, fiber_size,
                               skeleton, splits_match)
from incrtree.trees import increasing_trees


@contextmanager
def criterion(num, description, budget):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < budget, f"exceeded the {budget}s budget ({elapsed:.2f}s)"
    except Exception:
        print(f"\nACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {num}: PASS ({elapsed:.2f}s) - {description}")


def edge_subsets(g):
    es = g.sorted_edges()
    for k in range(len(es) + 1):
        yield from itertools.combinations(es, k)


def test_criterion_1_k4_golden():
    with criterion(1, "K4 golden: 6 trees, tree fibers {6,3,2,2,2,1}, "
                      "38 connected subgraphs", budget=1.0):
        k4 = Graph.complete(4)
        trees = list(increasing_trees(k4.vertices))
        assert len(trees) == 6

        spanning = [k4.spanning(c) for c in edge_subsets(k4)]
        connected = [q for q in spanning if q.is_connected()]
        assert len(connected) == 38

        tree_members = [q for q in connected if len(q.edges) == 3]
        assert len(tree_members) == 16
        assert len(connected) - len(tree_members) == 22

        by_skeleton = {}
        for t in tree_members:
            by_skeleton.setdefault(skeleton(t), []).append(t)
        assert set(by_skeleton) == set(trees)
        assert sorted((len(v) for v in by_skeleton.values()), reverse=True) == \
            [6, 3, 2, 2, 2, 1]
        # per-tree spanning-tree counts, pinned
        from incrtree.trees import RootedTree
        assert {t: len(v) for t, v in by_skeleton.items()} == {
            RootedTree(1, {2: 1, 3: 2, 4: 3}): 6,
            RootedTree(1, {2: 1, 3: 2, 4: 2}): 3,
            RootedTree(1, {2: 1, 3: 1, 4: 3}): 2,
            RootedTree(1, {2: 1, 3: 1, 4: 2}): 2,
            RootedTree(1, {2: 1, 3: 2, 4: 1}): 2,
            RootedTree(1, {2: 1, 3: 1, 4: 1}): 1,
        }

        # the full fibers partition all 38 connected spanning subgraphs
        assert sorted((fiber_size(k4, t) for t in trees), reverse=True) == \
            [21, 7, 3, 3, 3, 1]


def test_criterion_2_eta_routes():
    with criterion(2, "connected-subgraph polynomial: tree route equals "
                      "brute force, n<=5 exhaustive plus 100 sampled at n=6",
                   budget=120.0):
        seen_at_5 = 0
        for n in range(1, 6):
            for g in connected_graphs(n):
                seen_at_5 += n == 5
                assert connected_subgraph_poly_from_trees(g) == \
                    connected_subgraph_poly(g)
        assert seen_at_5 == 728

        rng = random.Random(DEFAULT_SEED + 6)
        for _ in range(100):
            g = random_connected_graph(6, rng)
            assert connected_subgraph_poly_from_trees(g) == \
                connected_subgraph_poly(g)


def test_criterion_3_chromatic_routes():
    with criterion(3, "chromatic polynomial: forest route equals both "
                      "oracles, all graphs n<=5 plus 100 sampled at n=6",
                   budget=300.0):
        def check(g):
            by_subsets = chromatic_poly_by_subsets(g)
            assert by_subsets == chromatic_poly_by_independent_sets(g)
            assert by_subsets == chromatic_poly_from_forests(g)

        for n in range(1, 6):
            for g in all_graphs(n):
                check(g)

        rng = random.Random(DEFAULT_SEED)
        for _ in range(100):
            check(random_graph(6, rng))


def test_criterion_4_csf_routes():
    with criterion(4, "power-sum coefficients: forest routes equal the "
                      "subgraph-expansion oracle, all graphs n<=5",
                   budget=300.0):
        for n in range(1, 6):
            for g in all_graphs(n):
                oracle = csf_y_by_subsets(g)
                assert csf_y_from_forests(g) == oracle
                assert csf_x_from_forests(g) == collapse_by_shape(oracle)


def test_criterion_5_bijection():
    with criterion(5, "minimum-attachment bijection between supported trees "
                      "and BCF subtrees, connected n<=5", budget=120.0):
        for n in range(1, 6):
            for g in connected_graphs(n):
                supported = [t for t in increasing_trees(g.vertices)
                             if t.is_supported_by(g)]
                images = [min_attachment_tree(t, g) for t in supported]
                assert len(set(images)) == len(images)
                bcf = list(bcf_subforests(g, q=1))
                assert set(images) == set(bcf)
                for t, im in zip(supported, images):
                    assert skeleton(im) == t
                for h in bcf:
                    assert min_attachment_tree(skeleton(h), g) == h
                chi = chromatic_poly_by_independent_sets(g)
                assert len(bcf) == abs(chi.coefficient(1)) == len(supported)


def test_criterion_6_breaks():
    with criterion(6, "break sets: skeleton route equals circuit route on "
                      "every spanning subtree, connected n<=5", budget=120.0):
        for n in range(1, 6):
            for g in connected_graphs(n):
                for t in spanning_subtrees(g):
                    assert breaks_by_skeleton(t, g) == breaks_by_circuits(t, g)


def test_criterion_7_counting():
    with criterion(7, "counts: (n-1)! increasing trees for n<=8, fiber sizes "
                      "match brute-force fibers for connected n<=5",
                   budget=120.0):
        for n in range(1, 9):
            assert sum(1 for _ in increasing_trees(range(1, n + 1))) == \
                factorial(n - 1)

        for n in range(1, 6):
            for g in connected_graphs(n):
                brute = {}
                for combo in edge_subsets(g):
                    q = g.spanning(combo)
                    if q.is_connected():
                        brute[skeleton(q)] = brute.get(skeleton(q), 0) + 1
                for t in increasing_trees(g.vertices):
                    assert fiber_size(g, t) == brute.get(t, 0)
                assert sum(brute.values()) == \
                    sum(fiber_size(g, t) for t in increasing_trees(g.vertices))


def test_criterion_8_three_way_characterization():
    with criterion(8, "three-way characterization agrees over all increasing "
                      "trees, connected n<=4, unsupported trees fail all",
                   budget=60.0):
        for n in range(1, 5):
            for g in connected_graphs(n):
                t0 = skeleton(g)
                for t in increasing_trees(g.vertices):
                    conditions = (t == t0, splits_match(g, t),
                                  attachments_cover(g, t))
                    assert len(set(conditions)) == 1
                    if not t.is_supported_by(g):
                        assert conditions == (False, False, False)
                    fiber = list(enumerate_fiber(g, t))
                    if conditions[0]:
                        assert g in fiber
                    else:
                        assert g not in fiber
