"""Broken circuits, breaks of spanning subtrees, and the minimum-attachment
bijection.

Edges inherit the vertex order lexicographically.  A broken circuit of a
spanning subgraph H inside G is a circuit of G with its smallest edge
removed, all of whose remaining edges lie in H; H is broken circuit free
(BCF) when it contains none.  For a spanning subtree T, an outside edge is
a *break* when it is the smallest edge of the circuit it closes, and the
breaks of T are in bijection with the broken circuits inside T.

``min_attachment_tree`` picks, below every vertex of an increasing
supported tree, the smallest attachment edge present in G.  The resulting
subtree is BCF, and collapsing it with ``skeleton`` returns the original
tree, which makes the map a bijection between increasing supported trees
and BCF spanning subtrees, and block by block between supported increasing
forests and BCF spanning subforests.  ``bcf_subforests`` lists the BCF
forests through that bijection, off the supported-tree count table, with no
edge subset walked; the subset walk stays in ``checks`` as its oracle.
"""

from __future__ import annotations

import itertools

from .graphs import Graph, _eliminate, check_limit
from .skeleton import fiber_edge_sets, skeleton
from .trees import RootedTree, _supported_forests, supported_tree_sums


def _check_spanning_subtree(t: Graph, g: Graph) -> None:
    if t.vertices != g.vertices or not t.edges <= g.edges:
        raise ValueError("expected a spanning subgraph of the host graph")
    if len(t.edges) != len(t.vertices) - 1 or not t.is_connected():
        raise ValueError("expected a spanning tree")


def breaks_by_circuits(t: Graph, g: Graph) -> frozenset:
    """Edges of g outside the spanning subtree t that are the smallest edge
    of the circuit they close: the closers of the elimination pass over g
    that joins only t-edges (``graphs._eliminate``), whose endpoints larger
    t-edges join.  No t-edge qualifies, since t holds no circuit."""
    _check_spanning_subtree(t, g)
    return frozenset(_eliminate(g.vertices, g.edges, t.edges)[1])


def breaks_by_skeleton(t: Graph, g: Graph) -> frozenset:
    """The same break set computed through the collapsed tree.

    Collapse t; below each vertex exactly one attachment edge of t survives,
    and every strictly smaller attachment edge available in g is a break.
    Always equals breaks_by_circuits.
    """
    _check_spanning_subtree(t, g)
    out = set()
    for attach in fiber_edge_sets(g, skeleton(t)).values():
        (kept,) = attach & t.edges
        out.update(e for e in attach if e < kept)
    return frozenset(out)


def is_broken_circuit_free(h: Graph, g: Graph) -> bool:
    """True iff the spanning subgraph h contains no broken circuit of g.

    h holds a broken circuit exactly when some edge of g has its endpoints
    joined by a path of larger h-edges: when the elimination pass over g
    that joins only h-edges (``graphs._eliminate``) finds a closer.  An
    edge inside h closing such a path makes h contain a circuit, so a BCF
    subgraph is always a forest.
    """
    if h.vertices != g.vertices or not h.edges <= g.edges:
        raise ValueError("expected a spanning subgraph of the host graph")
    return not _eliminate(g.vertices, g.edges, h.edges)[1]


def min_attachment_tree(tree: RootedTree, g: Graph):
    """The spanning subtree of g picking the smallest available attachment
    edge below every vertex of an increasing supported tree.

    The result is broken circuit free and collapses back to the input tree.
    For an unsupported tree this returns None.
    """
    sets = fiber_edge_sets(g, tree).values()
    return g.spanning(map(min, sets)) if all(sets) else None


def spanning_subtrees(g: Graph):
    """All spanning subtrees of g, lexicographic on sorted edge lists, by a
    walk over the (n-1)-edge subsets: the oracle for ``bcf --breaks-all``,
    which lists them as products of attachment sets."""
    check_limit(len(g.vertices))
    want = len(g.vertices) - 1
    for combo in itertools.combinations(sorted(g.edges), want):
        t = g.spanning(combo)
        if t.is_connected():
            yield t


def _bcf_forests(g: Graph, q: int | None = None) -> list:
    """The broken-circuit-free spanning subforests of g, in ``bcf_subforests``
    order, as triples (ranks, blocks, parents): the ranks of its edges in
    ``g.sorted_edges()``, ascending, and the block masks and parent column
    (``_supported_forests``) of the supported increasing forest whose
    ``min_attachment_tree`` image it is.  By the bijection that forest is also
    the image's skeleton forest.  Ranks sort as the edge lists they name."""
    vs = sorted(g.vertices)
    check_limit(len(vs))
    if q is not None and not 1 <= q <= len(vs):
        return []  # no forest has fewer than 1 or more than n blocks
    index = {e: r for r, e in enumerate(g.sorted_edges())}
    rank = [[index.get((u, v)) for v in vs] for u in vs]  # by the positions of its ends
    sums = supported_tree_sums(g, lambda c: 1)
    return sorted((tuple(sorted(rank[p][e] for p, c, e in zip(parents, counts, ends) if c)),
                   blocks, parents)
                  for blocks, parents, counts, ends in _supported_forests(g, sums, q))


def bcf_subforests(g: Graph, q: int | None = None):
    """Stream the broken-circuit-free spanning subforests of g.

    Order is lexicographic on sorted edge lists; q filters by component
    count (q=1 gives the BCF spanning subtrees of a connected graph; a
    forest on n >= 1 vertices has 1 to n components).  No edge subset is
    walked: the BCF forests are the ``min_attachment_tree`` images, block
    by block, of the supported increasing forests with the same blocks, so
    each comes off the subset table as the smallest attachment edge below
    every non-root vertex.
    """
    edges = g.sorted_edges()
    for ranks, _, _ in _bcf_forests(g, q):
        yield g.spanning(map(edges.__getitem__, ranks))
