import itertools
import random
from math import comb, factorial

import pytest

from incrtree.brokencircuits import bcf_subforests, spanning_subtrees
from incrtree.checks import (_bcf_by_subsets, _edge_subsets,
                             check_eta_definition)

from incrtree.graphs import (EXHAUSTIVE_LIMIT, BoundExceededError, Graph,
                             NotConnectedError, SetPartition, all_graphs,
                             connected_graphs, random_connected_graph,
                             random_graph, set_partitions_of)
from incrtree.invariants import (IntPoly, chromatic_poly_by_independent_sets,
                                 chromatic_poly_by_subsets,
                                 chromatic_poly_from_forests, collapse_by_shape,
                                 connected_subgraph_poly,
                                 connected_subgraph_poly_from_trees,
                                 csf_x_by_subsets, csf_x_from_forests,
                                 csf_y_by_subsets, csf_y_from_forests,
                                 supported_forest_counts)
from incrtree.invariants import _csf_y_subset_terms, _csf_y_terms
from incrtree.trees import (count_supported_trees, increasing_trees,
                            supported_increasing_forests, supported_tree_sums)


def K(n):
    return Graph.complete(n)


def small_graphs(max_n=4):
    for n in range(1, max_n + 1):
        yield from all_graphs(n)


# --- IntPoly -------------------------------------------------------------------

def test_intpoly_canonical_form():
    assert IntPoly([0, 1, 0, 0]).coeffs == (0, 1)
    assert IntPoly([]).coeffs == ()
    assert IntPoly([0, 0]) == IntPoly.zero()


def test_intpoly_arithmetic():
    x = IntPoly((0, 1))
    p = (x + IntPoly.one()) ** 2
    assert p == IntPoly([1, 2, 1])
    assert p - p == IntPoly.zero()
    assert (p * x).coeffs == (0, 1, 2, 1)
    assert 3 * x == IntPoly([0, 3])
    assert p(5) == 36
    assert p.coefficient(1) == 2 and p.coefficient(9) == 0


def test_intpoly_pow_edge_cases():
    assert IntPoly([1, 1]) ** 0 == IntPoly.one()
    with pytest.raises(ValueError):
        IntPoly((0, 1)) ** -1


# --- connected-subgraph polynomial ------------------------------------------------

def test_connected_subgraph_poly_examples():
    assert connected_subgraph_poly(Graph(2, [(1, 2)])) == IntPoly([0, 1])
    assert connected_subgraph_poly(K(3)) == IntPoly([0, 0, 3, 1])
    assert connected_subgraph_poly(K(4)) == IntPoly([0, 0, 0, 16, 15, 6, 1])
    assert connected_subgraph_poly(Graph(1)) == IntPoly.one()


def test_connected_subgraph_poly_requires_connected():
    """Both routes refuse with the component message of exit code 3."""
    for route in (connected_subgraph_poly, connected_subgraph_poly_from_trees):
        with pytest.raises(NotConnectedError) as info:
            route(Graph(3, [(2, 3)]))
        assert str(info.value) == "graph is not connected (2 components: 1 | 2 3)"


def test_connected_subgraph_poly_respects_limit():
    with pytest.raises(BoundExceededError):
        connected_subgraph_poly(K(EXHAUSTIVE_LIMIT + 1))


def test_subset_oracles_respect_limit():
    big = Graph(17)
    with pytest.raises(BoundExceededError):
        chromatic_poly_by_subsets(big)
    with pytest.raises(BoundExceededError):
        csf_y_by_subsets(big)
    with pytest.raises(BoundExceededError):
        csf_x_by_subsets(big)


def test_forest_routes_respect_limit():
    """Every exhaustive route refuses one vertex past EXHAUSTIVE_LIMIT."""
    n = EXHAUSTIVE_LIMIT + 1
    big = Graph(n, [(v, v + 1) for v in range(1, n)])  # connected, for eta
    for route in (chromatic_poly_from_forests, supported_forest_counts,
                  csf_x_from_forests, csf_y_from_forests,
                  lambda g: list(set_partitions_of(g.vertices)),
                  lambda g: list(all_graphs(g.n)),
                  lambda g: list(connected_graphs(g.n)),
                  lambda g: list(increasing_trees(g.vertices)),
                  lambda g: supported_tree_sums(g, lambda c: 1),
                  lambda g: list(supported_increasing_forests(g)),
                  connected_subgraph_poly, connected_subgraph_poly_from_trees,
                  chromatic_poly_by_subsets, chromatic_poly_by_independent_sets,
                  csf_y_by_subsets, csf_x_by_subsets,
                  lambda g: list(bcf_subforests(g)),
                  lambda g: list(spanning_subtrees(g)),
                  lambda g: next(_edge_subsets(g)),
                  lambda g: next(_bcf_by_subsets(g, 1))):
        with pytest.raises(BoundExceededError):
            route(big)


def test_tree_route_matches_brute_force():
    for n in range(1, 5):
        for g in connected_graphs(n):
            assert connected_subgraph_poly_from_trees(g) == \
                connected_subgraph_poly(g)


def test_tree_route_matches_per_tree_definition():
    for n in range(1, 6):
        for g in connected_graphs(n):
            check_eta_definition(g)
    rng = random.Random(7)
    for _ in range(3):
        check_eta_definition(random_connected_graph(7, rng))


def test_tree_route_single_vertex_is_one():
    assert connected_subgraph_poly_from_trees(Graph(1)) == IntPoly.one()


def test_eta_at_minus_one_counts_trees():
    for g in connected_graphs(4):
        count = count_supported_trees(g)
        assert connected_subgraph_poly(g)(-1) == -count  # (-1)^(4-1) * count


# --- chromatic polynomial ------------------------------------------------------------

def test_chromatic_examples():
    assert chromatic_poly_by_subsets(Graph(3)) == IntPoly([0, 0, 0, 1])
    assert chromatic_poly_by_subsets(K(3)) == IntPoly([0, 2, -3, 1])
    assert chromatic_poly_by_subsets(K(4)) == IntPoly([0, -6, 11, -6, 1])


def test_chromatic_oracles_agree():
    for g in small_graphs():
        assert chromatic_poly_by_subsets(g) == \
            chromatic_poly_by_independent_sets(g)


def test_chromatic_forest_route():
    p3 = Graph(3, [(1, 2), (2, 3)])
    assert chromatic_poly_from_forests(p3).coefficient(1) == 1
    assert chromatic_poly_from_forests(K(4)).coefficient(1) == -6
    for g in small_graphs():
        chi = chromatic_poly_from_forests(g)
        assert chi == chromatic_poly_by_subsets(g)
        assert chi.coefficient(len(g.vertices)) == 1


def test_chromatic_forest_route_random_n5():
    rng = random.Random(99)
    for _ in range(10):
        g = random_connected_graph(5, rng)
        assert chromatic_poly_from_forests(g) == \
            chromatic_poly_by_independent_sets(g)


def test_chromatic_forest_route_dense_n13_n14():
    """Past the subset oracle's desk range, the independent-set oracle still
    pins the forest route on dense graphs."""
    rng = random.Random(4)
    for n, m in ((13, 50), (14, 70)):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        g = Graph(n, rng.sample(pairs, m))
        while not g.is_connected():
            g = Graph(n, rng.sample(pairs, m))
        assert chromatic_poly_from_forests(g) == \
            chromatic_poly_by_independent_sets(g)


def test_chromatic_coefficient_signs():
    for g in small_graphs():
        n = len(g.vertices)
        chi = chromatic_poly_by_subsets(g)
        for q in range(n + 1):
            c = chi.coefficient(q)
            assert c == 0 or (c > 0) == ((n - q) % 2 == 0)


def test_forest_counts_disconnected():
    g = Graph(4, [(1, 2), (3, 4)])
    counts = supported_forest_counts(g)
    assert counts.get(1, 0) == 0           # no spanning tree support
    assert counts[2] == 1                  # the two edges
    assert counts[4] == 1                  # all singletons


# --- chromatic symmetric function -----------------------------------------------------

def test_csf_y_golden_k3():
    got = csf_y_from_forests(K(3))
    assert got == {
        SetPartition([[1, 2, 3]]): 2,
        SetPartition([[1, 2], [3]]): -1,
        SetPartition([[1, 3], [2]]): -1,
        SetPartition([[1], [2, 3]]): -1,
        SetPartition([[1], [2], [3]]): 1,
    }


def test_csf_y_trivial_cases():
    assert csf_y_by_subsets(Graph(2)) == {SetPartition([[1], [2]]): 1}
    assert csf_y_by_subsets(Graph(2, [(1, 2)])) == {
        SetPartition([[1], [2]]): 1,
        SetPartition([[1, 2]]): -1,
    }
    assert csf_y_from_forests(Graph(1)) == {SetPartition([[1]]): 1}


def test_csf_y_edge_free_block_vanishes():
    g = Graph(3, [(1, 2)])
    got = csf_y_from_forests(g)
    assert SetPartition([[1, 3], [2]]) not in got
    assert SetPartition([[1], [2, 3]]) not in got


def test_csf_y_routes_agree():
    for g in small_graphs():
        assert csf_y_from_forests(g) == csf_y_by_subsets(g)


def test_csf_y_terms_come_in_canonical_order():
    """The oracle hands out its block-mask terms in SetPartition order, and
    they are the tree route's terms, blocks, coefficients and order alike,
    on connected and disconnected graphs and on other labels than 1..n."""
    rng = random.Random(1313)
    graphs = []
    for n in range(1, 9):
        labels = rng.sample(range(1, 40), n)
        relabel = dict(zip(range(1, n + 1), labels)).__getitem__
        for g in (random_connected_graph(n, rng), random_graph(n, rng)):
            graphs += [g, Graph(labels, (map(relabel, e) for e in g.edges))]
    assert sum(not g.is_connected() for g in graphs) >= 4
    for g in graphs:
        vertices, terms = _csf_y_subset_terms(g)
        assert [(SetPartition(map(vertices.__getitem__, blocks)), c)
                for blocks, c in terms] == sorted(csf_y_by_subsets(g).items())
        assert terms == list(_csf_y_terms(g)[1])


def test_csf_x_golden():
    assert csf_x_from_forests(K(3)) == {(1, 1, 1): 1, (2, 1): -3, (3,): 2}
    assert csf_x_from_forests(K(4))[(4,)] == -6
    assert csf_x_from_forests(Graph(3)) == {(1, 1, 1): 1}


def test_csf_x_is_shape_collapse():
    for g in small_graphs():
        assert csf_x_from_forests(g) == collapse_by_shape(csf_y_from_forests(g))
        assert csf_x_from_forests(g) == csf_x_by_subsets(g)


def test_csf_y_specializes_to_chromatic():
    for g in small_graphs():
        spec = IntPoly.zero()
        for part, coeff in csf_y_from_forests(g).items():
            spec = spec + IntPoly.x_power(len(part), coeff)
        assert spec == chromatic_poly_from_forests(g)


# --- past the factorial wall: closed forms, no second route -----------------------------

def test_tree_count_k12_is_factorial():
    assert count_supported_trees(K(12)) == factorial(11)


def test_chromatic_k12_is_falling_factorial():
    falling = IntPoly.one()
    for k in range(12):
        falling = falling * IntPoly((-k, 1))
    assert chromatic_poly_from_forests(K(12)) == falling


def test_eta_c12():
    c12 = Graph(12, [(i, i % 12 + 1) for i in range(1, 13)])
    assert connected_subgraph_poly_from_trees(c12) == \
        IntPoly.x_power(12) + IntPoly.x_power(11, 12)


def test_eta_complete_graphs_closed_form():
    """eta(K_n) for n <= 12 by the exponential formula: the k-edge graphs on
    n labelled vertices split by the j-vertex component holding vertex 1,

        C(N_n, k) = sum over j <= n of C(n-1, j-1) sum over i of
                    c(j, i) * C(N_(n-j), k-i),  N_m = C(m, 2),

    solved for c(n, k).  K12's coefficients reach 63 bits, which tests the
    packed slots of the tree route near their width."""
    edges = [comb(m, 2) for m in range(13)]
    c = {}
    for n in range(1, 13):
        c[n] = [comb(edges[n], k) - sum(
            comb(n - 1, j - 1) * c[j][i] * comb(edges[n - j], k - i)
            for j in range(1, n) for i in range(min(k, edges[j]) + 1))
            for k in range(edges[n] + 1)]
        assert connected_subgraph_poly_from_trees(K(n)) == IntPoly(c[n])
    assert max(c[12]).bit_length() == 63


def test_csf_x_k10_is_shape_collapse():
    assert csf_x_from_forests(K(10)) == collapse_by_shape(csf_y_from_forests(K(10)))


# --- the edge-subset table behind the oracle routes ------------------------------------

def literal_subset_sums(g):
    """eta, chromatic, csf-y and csf-x summed one edge subset at a time, with
    the components of each spanning subgraph found by Graph.components()."""
    eta = [0] * (len(g.edges) + 1)
    chi = [0] * (len(g.vertices) + 1)
    y, x = {}, {}
    for subset in _edge_subsets(g):
        parts = g.spanning(subset).components()
        sign = -1 if len(subset) % 2 else 1
        if len(parts) == 1:
            eta[len(subset)] += 1
        chi[len(parts)] += sign
        y[parts] = y.get(parts, 0) + sign
        x[parts.shape()] = x.get(parts.shape(), 0) + sign
    return (IntPoly(eta), IntPoly(chi), {p: c for p, c in y.items() if c},
            {s: c for s, c in x.items() if c})


def test_subset_oracles_match_literal_sum():
    rng = random.Random(2024)
    graphs = [g for n in range(1, 6) for g in connected_graphs(n)]
    graphs += [random_connected_graph(n, rng) for n in (6, 6, 7, 7, 8)]
    for g in graphs:
        assert (connected_subgraph_poly(g), chromatic_poly_by_subsets(g),
                csf_y_by_subsets(g), csf_x_by_subsets(g)) == literal_subset_sums(g)


def test_subset_oracles_past_the_subset_wall():
    """Closed forms where the literal sum would visit 2^28 (K8) or 2^15
    (P16) edge subsets per route."""
    falling = IntPoly.one()
    for k in range(8):
        falling = falling * IntPoly((-k, 1))
    assert chromatic_poly_by_subsets(K(8)) == falling
    p16 = Graph(16, [(v, v + 1) for v in range(1, 16)])
    assert connected_subgraph_poly(p16) == IntPoly.x_power(15)
    assert chromatic_poly_by_subsets(p16) == IntPoly((0, 1)) * IntPoly((-1, 1)) ** 15
    c12 = Graph(12, [(i, i % 12 + 1) for i in range(1, 13)])
    assert connected_subgraph_poly(c12) == \
        IntPoly.x_power(12) + IntPoly.x_power(11, 12)
