import itertools
import random

import pytest
from hypothesis import given, strategies as st

from incrtree import graphs
from incrtree.graphs import (EXHAUSTIVE_LIMIT, MAX_VERTICES, BoundExceededError,
                             Graph, GraphFormatError, NotConnectedError,
                             SetPartition, all_graphs, connected_graphs,
                             edge, format_graph, link, parse_graph,
                             set_partitions_of)
from incrtree.skeleton import skeleton, skeleton_forest


def K(n):
    return Graph.complete(n)


# --- link ----------------------------------------------------------------

def test_link_unfolds_definition():
    assert link(1, {2, 3}) == {(1, 2), (1, 3)}
    assert link(2, {2}) == frozenset()
    assert link(1, {2, 3, 4}) == {(1, 2), (1, 3), (1, 4)}


def test_link_empty_targets():
    assert link(5, set()) == frozenset()


@given(st.integers(1, 12), st.sets(st.integers(1, 12), max_size=8))
def test_link_size(v, targets):
    assert len(link(v, targets)) == len(targets - {v})


# --- edges and graph construction ----------------------------------------

def test_edge_canonical_and_loopless():
    assert edge(3, 1) == (1, 3)
    with pytest.raises(ValueError):
        edge(2, 2)


def test_graph_dedupes_and_validates():
    g = Graph(3, [(1, 2), (2, 1)])
    assert g.edges == {(1, 2)}
    with pytest.raises(ValueError):
        Graph(2, [(1, 3)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])


def test_graph_on_explicit_vertex_set():
    g = Graph({2, 5, 7}, [(2, 5)])
    assert g.n == 3
    assert g.vertices == {2, 5, 7}


# --- restrict --------------------------------------------------------------

def test_restrict_examples():
    assert K(3).restrict({2, 3}).edges == {(2, 3)}
    p4 = Graph(4, [(1, 2), (2, 3), (3, 4)])
    sub = p4.restrict({2, 3, 4})
    # oracle: filter the edge list by membership of both endpoints
    assert sub.edges == {e for e in p4.edges if set(e) <= {2, 3, 4}}
    assert sub.edges == {(2, 3), (3, 4)}
    assert sub.vertices == {2, 3, 4}
    empty = p4.restrict(set())
    assert empty.n == 0 and not empty.edges


def test_restrict_keeps_original_ids():
    g = Graph(5, [(2, 4), (4, 5)])
    assert g.restrict({2, 4}).edges == {(2, 4)}


def test_restrict_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        K(3).restrict({1, 4})


# --- components / connectivity ---------------------------------------------

def test_components_examples():
    p4 = Graph(4, [(1, 2), (2, 3), (3, 4)])
    assert p4.components() == SetPartition([[1, 2, 3, 4]])
    g = Graph(3, [(1, 2)])
    assert g.components() == SetPartition([[1, 2], [3]])
    assert Graph(4).components() == SetPartition([[1], [2], [3], [4]])


def test_is_connected():
    assert K(3).is_connected()
    assert not Graph(2).is_connected()
    assert Graph(1).is_connected()
    with pytest.raises(ValueError):
        Graph(0).is_connected()


def test_require_connected_returns_the_elimination_parents():
    g = Graph(4, [(1, 3), (2, 3), (3, 4)])
    assert g._require_connected() == g._elimination_forest()[0] == {2: 1, 3: 2, 4: 3}
    assert Graph(1)._require_connected() == {}
    with pytest.raises(ValueError) as info:
        Graph(0)._require_connected()
    assert type(info.value) is ValueError


def test_component_blocks_are_connected():
    g = Graph(6, [(1, 2), (2, 3), (4, 5)])
    for block in g.components():
        assert g.restrict(block).is_connected()


def components_by_search(g):
    """Oracle: depth-first search from each unseen vertex, ascending; each
    block is sorted and starts at its minimum."""
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, blocks = set(), []
    for start in sorted(g.vertices):
        if start not in seen:
            seen.add(start)
            block, stack = [], [start]
            while stack:
                v = stack.pop()
                block.append(v)
                for w in adj[v] - seen:
                    seen.add(w)
                    stack.append(w)
            blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def test_components_match_search_oracle():
    """The union-find components, the connectivity test and the vertex sets
    of the skeleton forest's trees all agree with a graph search, block
    order and all, on random graphs with sparse labels and edge densities
    from empty to complete."""
    rng = random.Random(77)
    for _ in range(300):
        labels = rng.sample(range(1, 60), rng.randrange(1, 16))
        pairs = list(itertools.combinations(labels, 2))
        edges = rng.sample(pairs, rng.randrange(len(pairs) + 1))
        g = Graph(labels, edges)
        blocks = components_by_search(g)
        assert g.components().blocks == blocks
        assert g.is_connected() == (len(blocks) == 1)
        assert tuple(tuple(sorted(t.vertices))
                     for t in skeleton_forest(g).components) == blocks


def test_disconnected_message_matches_search_oracle():
    """The exit-3 message, which Graph._require_connected and skeleton
    raise, gives the component count and the first ten components by
    minimum, ten vertices each, as a graph search finds them, on
    disconnected graphs with sparse labels: each a union of 2 to 15 random
    trees on 2 to 59 scattered vertices."""
    rng = random.Random(78)
    many = large = 0
    for _ in range(200):
        labels = rng.sample(range(1, 500), rng.randrange(2, 60))
        cuts = sorted(rng.sample(range(1, len(labels)),
                                 rng.randrange(1, min(len(labels), 15))))
        edges = []
        for i, j in zip([0] + cuts, cuts + [len(labels)]):
            part = labels[i:j]
            edges += [(v, rng.choice(part[:k])) for k, v in enumerate(part) if k]
        g = Graph(labels, edges)
        blocks = components_by_search(g)
        text = [" ".join(map(str, b[:10])) + (" ..." if len(b) > 10 else "")
                for b in blocks[:10]] + (["..."] if len(blocks) > 10 else [])
        want = f"graph is not connected ({len(blocks)} components: {' | '.join(text)})"
        for refuse in (g._require_connected, lambda: skeleton(g)):
            with pytest.raises(NotConnectedError) as info:
                refuse()
            assert str(info.value) == want
        many += len(blocks) > 10
        large += any(len(b) > 10 for b in blocks[:10])
    assert many >= 20 and large >= 20


# --- set partitions ----------------------------------------------------------

def test_partition_canonical_form():
    p = SetPartition([[3, 1], [2]])
    assert p.blocks == ((1, 3), (2,))
    assert p == SetPartition([(2,), (1, 3)])


def test_partition_rejects_bad_blocks():
    with pytest.raises(ValueError):
        SetPartition([[1], []])
    with pytest.raises(ValueError):
        SetPartition([[1, 2], [2, 3]])


def test_refines_examples():
    fine = SetPartition([[1], [2], [3]])
    mid = SetPartition([[1, 2], [3]])
    other = SetPartition([[1], [2, 3]])
    assert fine.refines(mid)
    assert not mid.refines(other)
    assert mid.refines(mid)


def test_refines_ground_mismatch():
    with pytest.raises(ValueError):
        SetPartition([[1, 2]]).refines(SetPartition([[1, 2], [3]]))


def test_shape_examples():
    assert SetPartition([[1, 3], [2]]).shape() == (2, 1)
    assert SetPartition([[1, 2, 3, 4]]).shape() == (4,)
    assert SetPartition([[1], [2], [3]]).shape() == (1, 1, 1)


@st.composite
def partitions(draw):
    n = draw(st.integers(1, 7))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for v, b in enumerate(labels, start=1):
        blocks.setdefault(b, []).append(v)
    return SetPartition(blocks.values())


@given(partitions())
def test_refines_bounds(p):
    finest = SetPartition([v] for v in p.ground)
    coarsest = SetPartition([p.ground])
    assert finest.refines(p)
    assert p.refines(coarsest)


def test_set_partitions_of_counts_are_bell_numbers():
    # oracle: Bell numbers via the standard recurrence
    bell = [1]
    for n in range(1, 7):
        from math import comb
        bell.append(sum(comb(n - 1, k) * bell[k] for k in range(n)))
    for n in range(0, 7):
        parts = list(set_partitions_of(range(1, n + 1)))
        assert len(parts) == bell[n]
        assert len(set(parts)) == len(parts)


def test_components_partition_refines_bounds():
    for g in connected_graphs(3):
        s = g.components()
        assert SetPartition([v] for v in g.vertices).refines(s)
        assert s.refines(SetPartition([g.vertices]))


# --- enumeration and bounds ---------------------------------------------------

def test_graph_family_counts():
    assert sum(1 for _ in all_graphs(3)) == 8
    assert sum(1 for _ in connected_graphs(3)) == 4
    assert sum(1 for _ in connected_graphs(4)) == 38


def test_limit_refusal():
    with pytest.raises(BoundExceededError):
        list(all_graphs(EXHAUSTIVE_LIMIT + 1))
    with pytest.raises(BoundExceededError):
        list(set_partitions_of(range(1, 20)))


# --- text format ---------------------------------------------------------------

GOOD = """\
# triangle plus isolated vertex
n 4
1 2
1 3   # trailing comment
2 3
"""


def test_parse_graph():
    g = parse_graph(GOOD)
    assert g.vertices == {1, 2, 3, 4}
    assert g.edges == {(1, 2), (1, 3), (2, 3)}


def test_format_roundtrip():
    g = parse_graph(GOOD)
    assert parse_graph(format_graph(g)) == g


@pytest.mark.parametrize("text", [
    "",                       # no header
    "n 0\n",                  # empty vertex set
    "m 3\n",                  # bad header keyword
    "n 3\n1 2\n1 2\n",        # duplicate edge
    "n 3\n2 1\n",             # endpoints out of order
    "n 3\n1 1\n",             # loop
    "n 3\n1 4\n",             # vertex out of range
    "n 3\n1 2 3\n",           # too many fields
    "n 3\n1 x\n",             # non-integer
])
def test_parse_errors(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


@pytest.mark.parametrize("text", [
    "n ²\n",                  # superscript digit passes str.isdigit
    "n ３\n",                 # fullwidth digit
    "n 2\n1 ٢\n",            # Arabic-Indic digit that int() reads as 2
    "n 10\n1 1_0\n",         # underscore that int() skips
    "n 3\n+1 3\n",           # sign that int() accepts
    "n 3\n-1 3\n",
    "n 3\n1\u00a02\n",       # no-break space that str.split() splits on
])
def test_parse_accepts_only_ascii_numerals(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


@pytest.mark.parametrize("sep", [
    "\u2028", "\u2029", "\x85",          # Unicode line and paragraph separators
    "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",  # ASCII, no line end either
])
def test_parse_breaks_lines_at_newline_only(sep):
    with pytest.raises(GraphFormatError):
        parse_graph(f"n 3{sep}1 2{sep}2 3\n")


def test_parse_strips_carriage_returns():
    assert parse_graph("n 3\r\n1 2\r\n2 3\r\n") == Graph(3, [(1, 2), (2, 3)])


@pytest.mark.parametrize("sep", [
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",  # str.split() blanks
    "\x00", "\x7f",
])
def test_parse_separates_fields_by_space_and_tab_only(sep):
    with pytest.raises(GraphFormatError):
        parse_graph(f"n 2\n1{sep}2\n")
    with pytest.raises(GraphFormatError):
        parse_graph(f"n 2\n1 2{sep}\n")     # str.strip() blanks too
    with pytest.raises(GraphFormatError):
        parse_graph(f"n 2\n{sep}\n1 2\n")  # not a blank line either


def test_parse_accepts_spaces_and_tabs():
    assert parse_graph("n\t3\n 1 \t 2\t\n\t\n2  3 # c\x0b\r\n") == \
        Graph(3, [(1, 2), (2, 3)])


@pytest.mark.parametrize("text", [
    pytest.param("n " + "1" * 4301 + "\n", id="4301-digit-count"),
    pytest.param("n 3\n1 " + "2" * 4301 + "\n", id="4301-digit-endpoint"),
])
def test_parse_refuses_numbers_int_cannot_read(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_parse_refuses_large_count_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(graphs, "Graph", lambda n, edges: built.append(n))
    parse_graph(f"n {MAX_VERTICES}\n")
    with pytest.raises(GraphFormatError):
        parse_graph(f"n {MAX_VERTICES + 1}\n")
    with pytest.raises(GraphFormatError):
        parse_graph("n 100000000\n")
    assert built == [MAX_VERTICES]


def test_format_requires_contiguous_labels():
    with pytest.raises(ValueError):
        format_graph(Graph({2, 3}, [(2, 3)]))
