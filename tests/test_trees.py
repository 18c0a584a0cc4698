import itertools
import random
import time
from math import factorial

import pytest
from hypothesis import given, strategies as st

from incrtree.brokencircuits import (bcf_subforests, breaks_by_circuits,
                                     breaks_by_skeleton, is_broken_circuit_free,
                                     min_attachment_tree)
from incrtree.graphs import (EXHAUSTIVE_LIMIT, BoundExceededError, Graph,
                             SetPartition, connected_graphs,
                             random_connected_graph, random_graph,
                             set_partitions_of)
from incrtree.checks import _bcf_by_subsets, check_tree_stream
from incrtree.skeleton import (attachments_cover, fiber_edge_sets, fiber_size,
                               skeleton, skeleton_forest)
from incrtree.trees import (RootedForest, RootedTree, _attachment_ranks,
                            _rooted_tree, _supported_forests,
                            count_supported_trees, increasing_trees,
                            supported_increasing_forests, supported_tree_sums)
from test_skeleton import random_sparse_graph


def path_tree(*vertices):
    """Rooted path v0 -> v1 -> ... -> vk."""
    return RootedTree(vertices[0], {b: a for a, b in zip(vertices, vertices[1:])})


# --- construction ------------------------------------------------------------

def test_tree_validation():
    with pytest.raises(ValueError, match="the root cannot have a parent"):
        RootedTree(1, {1: 2})
    for cyclic in ({2: 3, 3: 2},                # a 2-cycle and nothing else
                   {2: 1, 3: 4, 4: 3},          # a 2-cycle beside a valid branch
                   {2: 2},                      # a vertex that is its own parent
                   {2: 1, 3: 5, 4: 3, 5: 4}):   # a 3-cycle beside a valid branch
        with pytest.raises(ValueError, match="parent map contains a cycle"):
            RootedTree(1, cyclic)
    with pytest.raises(ValueError, match="parent 9 of 2 is not a vertex"):
        RootedTree(1, {2: 9})
    # a parent outside the vertex set is named before a cycle
    with pytest.raises(ValueError, match="parent 9 of 5 is not a vertex"):
        RootedTree(1, {3: 4, 4: 3, 5: 9})


def timed(f, *args):
    """f(*args), which must return within a second."""
    start = time.perf_counter()
    out = f(*args)
    assert time.perf_counter() - start < 1, f"{f.__qualname__} took over 1 s"
    return out


def test_deep_trees_build_in_linear_time():
    """A path inserted deepest vertex first, as the elimination pass builds
    the skeleton of a naturally labelled path, checks in one walk, and each
    reader of its attachment sets takes one walk down it.  So does each on
    the skeleton of a shuffled sparse graph, where the paper's
    characterization certifies k."""
    n = 30_000
    t = timed(RootedTree, 1, {v: v - 1 for v in range(n, 1, -1)})
    g = Graph(n, [(v, v + 1) for v in range(1, n)])
    assert timed(skeleton, g) == t
    assert timed(fiber_edge_sets, g, t) == {v: {(v - 1, v)} for v in range(2, n + 1)}
    assert timed(fiber_size, g, t) == 1
    assert timed(attachments_cover, g, t)
    assert timed(min_attachment_tree, t, g) == g
    assert timed(t.is_supported_by, g)
    assert timed(lambda: skeleton_forest(g).is_supported_by(g))

    g = random_sparse_graph(20_000, 10_000, random.Random(2005))
    t = timed(skeleton, g)
    assert timed(attachments_cover, g, t)
    v = next(v for v in sorted(t.parent) if t.parent[v] != t.root)
    assert not timed(attachments_cover, g, RootedTree(t.root, {**t.parent, v: t.root}))
    h = timed(min_attachment_tree, t, g)
    assert timed(is_broken_circuit_free, h, g) and timed(skeleton, h) == t
    assert timed(breaks_by_skeleton, h, g) == timed(breaks_by_circuits, h, g)


def test_single_vertex_tree():
    t = RootedTree(4)
    assert t.vertices == {4}
    assert t.is_increasing()
    assert t.descendants(4) == {4}


# --- descendants / parent / join ----------------------------------------------

def test_descendants():
    t = path_tree(1, 2, 3, 4)
    assert t.descendants(4) == {4}                      # leaf
    assert t.descendants(1) == {1, 2, 3, 4}             # root
    assert t.descendants(2) == {2, 3, 4}

    # oracle: transitive closure of the child relation
    closure = {2}
    grew = True
    while grew:
        grew = False
        for v, p in t.parent.items():
            if p in closure and v not in closure:
                closure.add(v)
                grew = True
    assert t.descendants(2) == closure


def test_parent_of():
    assert path_tree(1, 2, 3).parent_of(3) == 2
    star = RootedTree(1, {2: 1, 3: 1})
    assert star.parent_of(3) == 1
    assert path_tree(1, 2, 3, 4).parent_of(4) == 3
    with pytest.raises(ValueError):
        star.parent_of(1)


# --- increasing ----------------------------------------------------------------

def test_is_increasing_examples():
    assert path_tree(1, 2, 3).is_increasing()
    assert not RootedTree(1, {2: 3, 3: 1}).is_increasing()


@st.composite
def rooted_trees(draw):
    """Any rooted tree: insert vertices in a random order, each picking a
    parent among the vertices already present."""
    order = draw(st.permutations(list(range(1, draw(st.integers(1, 7)) + 1))))
    parent = {}
    for i, v in enumerate(order[1:], start=1):
        parent[v] = order[draw(st.integers(0, i - 1))]
    return RootedTree(order[0], parent)


@given(rooted_trees())
def test_is_increasing_matches_descendant_scan(t):
    definitional = all(
        v <= w for v in t.vertices for w in t.descendants(v)
    )
    assert t.is_increasing() == definitional


# --- attachment edges ------------------------------------------------------------

def test_attachment_edges():
    t = path_tree(1, 2, 3)
    assert t.attachment_edges(2) == {(1, 2), (1, 3)}
    assert t.attachment_edges(3) == {(2, 3)}
    star = RootedTree(1, {2: 1, 3: 1})
    assert star.attachment_edges(3) == {(1, 3)}          # leaf: parent-leaf edge
    with pytest.raises(ValueError):
        t.attachment_edges(1)


def test_attachment_edges_disjoint():
    for t in increasing_trees(range(1, 6)):
        seen = set()
        for v in t.parent:
            es = t.attachment_edges(v)
            assert not (es & seen)
            seen |= es


# --- support ------------------------------------------------------------------------

def test_supported_examples():
    p3 = Graph(3, [(1, 2), (2, 3)])
    star = RootedTree(1, {2: 1, 3: 1})
    path = path_tree(1, 2, 3)
    assert not star.is_supported_by(p3)
    assert path.is_supported_by(p3)
    k3 = Graph.complete(3)
    assert star.is_supported_by(k3) and path.is_supported_by(k3)


def test_supported_tree_need_not_be_subgraph():
    g = Graph(3, [(1, 3), (2, 3)])
    path = path_tree(1, 2, 3)
    assert path.is_supported_by(g)
    assert not path.edges <= g.edges


def test_support_needs_connected_graph():
    from incrtree.graphs import all_graphs
    for n in range(2, 5):
        for g in all_graphs(n):
            if g.is_connected():
                continue
            for t in increasing_trees(g.vertices):
                assert not t.is_supported_by(g)


def test_support_of_non_increasing_trees():
    """An edge lies in an attachment set whichever of its ends is the ancestor."""
    p3 = Graph(3, [(1, 2), (2, 3)])
    assert RootedTree(2, {1: 2, 3: 2}).is_supported_by(p3)
    assert RootedTree(3, {1: 3, 2: 1}).is_supported_by(p3)
    assert not RootedTree(3, {1: 3, 2: 1}).is_supported_by(Graph(3, [(1, 3), (2, 3)]))
    assert not RootedTree(2, {1: 2, 3: 2}).is_supported_by(Graph(3, [(1, 2)]))


@given(rooted_trees(), st.data())
def test_support_matches_the_per_vertex_definition(t, data):
    """Any rooted tree against any graph on its vertices, connected or not."""
    pairs = list(itertools.combinations(sorted(t.vertices), 2))
    mask = data.draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph(t.vertices, (e for i, e in enumerate(pairs) if mask >> i & 1))
    assert t.is_supported_by(g) == all(t.attachment_edges(v) & g.edges for v in t.parent)


def test_forest_support_is_per_component_support():
    """Edges between components lie in no attachment set."""
    rng = random.Random(1990)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 9)
        order = rng.sample(range(1, n + 1), n)
        parent, top = {}, {order[0]: order[0]}
        for i, v in enumerate(order[1:], start=1):
            if rng.random() < 0.3:
                top[v] = v
            else:
                parent[v] = order[rng.randrange(i)]
                top[v] = top[parent[v]]
        forest = RootedForest(RootedTree(r, {v: p for v, p in parent.items() if top[v] == r})
                              for r in set(top.values()))
        g = random_graph(n, rng)
        want = all(t.is_supported_by(g.restrict(t.vertices)) for t in forest.components)
        assert forest.is_supported_by(g) == want
        seen.add(want)
    assert seen == {True, False}


def test_support_vertex_mismatch():
    with pytest.raises(ValueError):
        path_tree(1, 2).is_supported_by(Graph.complete(3))


# --- enumeration -----------------------------------------------------------------------

def test_increasing_tree_counts():
    assert len(list(increasing_trees({1}))) == 1
    assert len(list(increasing_trees({1, 2, 3, 4}))) == 6
    assert len(list(increasing_trees(range(1, 6)))) == 24
    for n in range(1, 7):
        assert len(list(increasing_trees(range(1, n + 1)))) == factorial(n - 1)


def test_increasing_tree_stream_properties():
    trees = list(increasing_trees(range(1, 6)))
    assert len(set(trees)) == len(trees)
    assert all(t.is_increasing() for t in trees)
    assert trees == list(increasing_trees(range(1, 6)))  # deterministic


def test_increasing_trees_on_sparse_labels():
    trees = list(increasing_trees({2, 5, 7}))
    assert len(trees) == 2
    assert all(t.root == 2 for t in trees)


def test_increasing_trees_respects_limit():
    with pytest.raises(BoundExceededError):
        list(increasing_trees(range(1, EXHAUSTIVE_LIMIT + 2)))


def test_count_supported_trees_matches_filtering():
    for g in [Graph.complete(4), Graph(4, [(1, 2), (2, 3), (3, 4)]),
              Graph(4, [(1, 3), (2, 3), (2, 4), (1, 4)]), Graph(4)]:
        by_filter = sum(
            1 for t in increasing_trees(g.vertices) if t.is_supported_by(g)
        )
        assert count_supported_trees(g) == by_filter


def test_count_supported_trees_on_restriction():
    g = Graph(5, [(2, 4), (4, 5), (2, 5)])
    sub = g.restrict({2, 4, 5})
    assert count_supported_trees(sub) == 2


# --- forests ------------------------------------------------------------------------------

def test_forest_canonical_order_and_partition():
    f = RootedForest([RootedTree(3, {4: 3}), RootedTree(1, {2: 1})])
    assert [t.root for t in f.components] == [1, 3]
    assert SetPartition(t.vertices for t in f.components).blocks == ((1, 2), (3, 4))


def test_forest_rejects_overlap():
    with pytest.raises(ValueError):
        RootedForest([RootedTree(1, {2: 1}), RootedTree(2, {3: 2})])


def all_increasing_forests(vertices):
    """Oracle: every map v -> smaller parent or none is an increasing forest."""
    vs = sorted(vertices)
    options = [[None] + vs[:i] for i in range(len(vs))]
    for picks in itertools.product(*options):
        parent = {v: p for v, p in zip(vs, picks) if p is not None}
        roots = [v for v in vs if v not in parent]
        comp_of = {}
        for v in vs:
            w = v
            while w in parent:
                w = parent[w]
            comp_of[v] = w
        trees = []
        for r in roots:
            members = {v for v in vs if comp_of[v] == r}
            trees.append(RootedTree(r, {v: parent[v] for v in members if v != r}))
        yield RootedForest(trees)


def forests_by_definition(g, q=None):
    """Oracle: filter every increasing forest by per-component support."""
    out = []
    for f in all_increasing_forests(g.vertices):
        if q is not None and f.component_count() != q:
            continue
        if all(t.is_supported_by(g.restrict(t.vertices)) for t in f.components):
            out.append(f)
    return out


def test_forest_examples():
    k3 = Graph.complete(3)
    assert len(list(supported_increasing_forests(k3, q=3))) == 1
    assert len(list(supported_increasing_forests(k3, q=2))) == 3
    k4 = Graph.complete(4)
    assert len(list(supported_increasing_forests(k4, q=1))) == 6


def test_forests_match_definition_oracle():
    for g in [Graph.complete(4), Graph(4, [(1, 2), (2, 3), (3, 4)]),
              Graph(4, [(1, 3), (2, 3)]), Graph(3)]:
        got = list(supported_increasing_forests(g))
        assert set(got) == set(forests_by_definition(g))
        assert len(set(got)) == len(got)


def test_forest_q_filter_concatenates():
    g = Graph(4, [(1, 2), (1, 3), (3, 4)])
    whole = list(supported_increasing_forests(g))
    by_q = [f for q in range(1, 5)
            for f in supported_increasing_forests(g, q=q)]
    def blocks(f):
        return SetPartition(t.vertices for t in f.components).blocks

    assert sorted(whole, key=blocks) == sorted(by_q, key=blocks)
    assert len(whole) == len(by_q)


def test_forest_stream_deterministic():
    g = Graph(4, [(1, 2), (2, 3), (2, 4)])
    assert list(supported_increasing_forests(g)) == \
        list(supported_increasing_forests(g))


# --- the stream off the count table -------------------------------------------------

def relabel(g, labels):
    """g with vertex i renamed labels[i - 1]."""
    return Graph(labels, ((labels[u - 1], labels[v - 1]) for u, v in g.edges))


def test_tree_stream_on_every_small_connected_graph():
    """The tree stream lists the supported increasing trees in
    increasing_trees order, each non-root vertex with its attachment count
    in g, its smallest attachment edge and its attachment set as
    _attachment_ranks reads it off the parent column, on every tree
    (checks.check_tree_stream)."""
    for n in range(1, 6):
        for g in connected_graphs(n):
            check_tree_stream(g)


def test_tree_stream_on_seeded_and_relabelled_graphs():
    rng = random.Random(606)
    for n in (6, 6, 7, 7):
        check_tree_stream(random_connected_graph(n, rng))
    for n in (4, 5, 6):
        g = random_connected_graph(n, rng)
        check_tree_stream(relabel(g, sorted(rng.sample(range(1, 40), n))))
        check_tree_stream(relabel(g, rng.sample(range(1, 40), n)))
    check_tree_stream(Graph.complete(9).restrict({2, 5, 7, 9}))
    check_tree_stream(random_connected_graph(9, rng).restrict({2, 5, 7, 9}))


def check_attachment_ranks(g, most=None):
    """_attachment_ranks of each streamed tree's parent column is that tree's
    fiber_edge_sets, each set ranked in g.sorted_edges(); with most given,
    only every k-th tree, about that many spread over the whole stream.
    On small graphs check_tree_stream makes the same comparison."""
    sums, ranks = supported_tree_sums(g, lambda c: 1), _attachment_ranks(g)
    vs, rank = sorted(g.vertices), {e: r for r, e in enumerate(g.sorted_edges())}
    step = 1 if most is None else max(1, sums[-1] // most)
    for (block,), parents, _, _ in itertools.islice(_supported_forests(g, sums, 1),
                                                    0, None, step):
        sets = fiber_edge_sets(g, _rooted_tree(vs, block, parents))
        assert ranks(parents) == [sorted(map(rank.get, es)) for es in sets.values()]


def test_attachment_ranks_on_seeded_graphs_with_gaps():
    """Seeded random connected graphs with 6 to 12 vertices, relabelled
    with gaps so positions and labels differ."""
    rng = random.Random(2905)
    for n in range(6, 13):
        g = random_connected_graph(n, rng)
        check_attachment_ranks(relabel(g, sorted(rng.sample(range(1, 40), n))), most=1500)


def test_attachment_ranks_on_the_16_vertex_fan():
    """Every one of the 2^14 trees of the fan (vertex 1 joined to 2..16
    plus the path 2-3-...-16), whose positions reach EXHAUSTIVE_LIMIT - 1."""
    n = EXHAUSTIVE_LIMIT
    check_attachment_ranks(Graph(n, [(1, v) for v in range(2, n + 1)]
                                 + [(v, v + 1) for v in range(2, n)]))


def forests_in_stream_order(g, q=None):
    """Oracle: canonical partitions, each block's supported trees filtered
    from increasing_trees, the last block advancing fastest."""
    out = []
    for part in sorted(set_partitions_of(g.vertices)):
        if q is None or len(part) == q:
            per_block = [[t for t in increasing_trees(b)
                          if t.is_supported_by(g.restrict(b))] for b in part]
            out += [RootedForest(combo) for combo in itertools.product(*per_block)]
    return out


def test_forest_stream_order_matches_filtered_partitions():
    rng = random.Random(707)
    graphs = [Graph(1), Graph(3), Graph(4, [(1, 2), (3, 4)]), Graph.complete(4)]
    graphs += [random_graph(n, rng) for n in (5, 5, 6, 6)]
    graphs += [relabel(random_graph(5, rng), [3, 4, 8, 11, 12])]
    for g in graphs:
        for q in (None, 0, 1, 2, 3, len(g.vertices) + 1):
            assert list(supported_increasing_forests(g, q)) == \
                forests_in_stream_order(g, q)


def test_streams_on_a_vertex_set_with_gaps():
    """Where positions and vertex labels differ, the packed streams still
    read back as the filter oracles: trees, forests in order, and the BCF
    forests of the subset walk."""
    rng = random.Random(1105)
    for g in (Graph.complete(12), random_graph(12, rng), random_connected_graph(12, rng)):
        h = g.restrict({2, 5, 7, 9, 11})
        check_tree_stream(h)
        for q in (None, 1, 2, 3):
            assert list(supported_increasing_forests(h, q)) == forests_in_stream_order(h, q)
            assert list(bcf_subforests(h, q)) == list(_bcf_by_subsets(h, q))


def test_bcf_order_on_a_relabelled_grid_with_gaps():
    """On ten vertices with gaps in their labels (a 2x5 grid, relabelled by a
    seeded draw from 2-59), the BCF stream equals the subset walk over all
    8,192 edge subsets, order included, at every q."""
    rng = random.Random(2024)
    label = rng.sample(range(2, 60), 10)
    grid = [(i, i + 1) for i in range(10) if i % 5 != 4] + [(i, i + 5) for i in range(5)]
    h = Graph(label, [(label[a], label[b]) for a, b in grid])
    assert len(h.edges) == 13 and sorted(label) != list(range(2, 12))
    for q in (None, *range(1, 11)):
        assert list(bcf_subforests(h, q)) == list(_bcf_by_subsets(h, q))


def test_any_positive_weight_gives_the_same_stream():
    """The stream reads only whether a count-table entry is nonzero, so the
    tables weighted by c (spanning trees) and by 2^c - 1 (connected spanning
    subgraphs), which the listings check their bounds against, give the unit
    table's stream at every q."""
    rng = random.Random(1606)
    for _ in range(30):
        g = random_graph(rng.randint(1, 8), rng)
        unit = supported_tree_sums(g, lambda c: 1)
        for weight in (lambda c: c, lambda c: (1 << c) - 1):
            sums = supported_tree_sums(g, weight)
            for q in (None, *range(1, g.n + 1)):
                assert list(_supported_forests(g, sums, q)) == \
                    list(_supported_forests(g, unit, q))


def test_vertex_positions_fit_in_a_byte():
    """The packed trees and the oracle table's keys hold a vertex position
    or an attachment count in one byte."""
    assert EXHAUSTIVE_LIMIT <= 256


def test_packed_fields_fit_positions_and_counts():
    """Every position and count below EXHAUSTIVE_LIMIT reads back from the
    byte columns.  On the 16-vertex fan (vertex 1 joined to 2..16 plus the
    path 2-3-...-16) the stream starts at the star and ends at the path.
    Both read back with the root's items zero and every smallest attachment
    edge ending at the vertex itself, position 15 included; the star has a
    count of 1 everywhere, and the path a count of 15 below vertex 2."""
    n = EXHAUSTIVE_LIMIT
    fan = Graph(n, [(1, v) for v in range(2, n + 1)] + [(v, v + 1) for v in range(2, n)])
    stream = list(_supported_forests(fan, supported_tree_sums(fan, lambda c: 1), 1))
    assert len(stream) == 2 ** (n - 2)
    (blocks, *star), (_, *path) = stream[0], stream[-1]
    assert blocks == ((1 << n) - 1,)
    assert star == [bytes(n), bytes([0] + [1] * (n - 1)), bytes(range(n))]
    assert path == [bytes([0, 0, *range(1, n - 1)]), bytes([0, n - 1] + [1] * (n - 2)),
                    bytes(range(n))]
