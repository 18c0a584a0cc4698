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

from .graphs import Graph
from .skeleton import skeleton
from .trees import RootedTree, _supported_forests


def _check_spanning_subtree(t: Graph, g: Graph) -> None:
    if t.vertices != g.vertices or not t.edges <= g.edges:
        raise ValueError("expected a spanning subgraph of the host graph")
    if len(t.edges) != len(t.vertices) - 1 or not t.is_connected():
        raise ValueError("expected a spanning tree")


def _path_edges(h: Graph, start: int, goal: int) -> tuple:
    """Edges of the unique path between two vertices of a forest."""
    adj = h.adjacency()
    prev = {start: None}
    stack = [start]
    while stack:
        v = stack.pop()
        if v == goal:
            break
        for w in adj[v]:
            if w not in prev:
                prev[w] = v
                stack.append(w)
    if goal not in prev:
        raise ValueError(f"no path between {start} and {goal}")
    out = []
    v = goal
    while prev[v] is not None:
        p = prev[v]
        out.append((p, v) if p < v else (v, p))
        v = p
    return tuple(out)


def circuit_closed_by(t: Graph, e) -> frozenset:
    """Edge set of the unique circuit in a spanning tree plus one extra edge.

    The extra edge is included in the result.
    """
    u, v = e
    ee = (u, v) if u < v else (v, u)
    if ee in t.edges:
        raise ValueError(f"edge {ee} already belongs to the tree")
    if u not in t.vertices or v not in t.vertices:
        raise ValueError(f"edge {ee} leaves the vertex set")
    return frozenset(_path_edges(t, ee[0], ee[1])) | {ee}


def breaks_by_circuits(t: Graph, g: Graph) -> frozenset:
    """Edges of g outside the spanning subtree t that are the smallest edge
    of the circuit they close."""
    _check_spanning_subtree(t, g)
    out = set()
    for e in sorted(g.edges - t.edges):
        if min(circuit_closed_by(t, e)) == e:
            out.add(e)
    return frozenset(out)


def breaks_by_skeleton(t: Graph, g: Graph) -> frozenset:
    """The same break set computed through the collapsed tree.

    Collapse t; below each vertex exactly one attachment edge of t survives,
    and every strictly smaller attachment edge available in g is a break.
    Always equals breaks_by_circuits.
    """
    _check_spanning_subtree(t, g)
    collapsed = skeleton(t)
    out = set()
    for v in sorted(collapsed.parent):
        attach = collapsed.attachment_edges(v)
        (kept,) = attach & t.edges
        out.update(e for e in attach & g.edges if e < kept)
    return frozenset(out)


def is_broken_circuit_free(h: Graph, g: Graph) -> bool:
    """True iff the spanning subgraph h contains no broken circuit of g.

    h holds a broken circuit exactly when some edge e of g has its endpoints
    joined by a path of h-edges all larger than e: e closes a circuit in
    which it is minimal, and the path is the broken circuit.  One union-find
    pass over g's edges from the largest down tests every e against the
    h-edges above it; an e inside h closing such a path makes h contain a
    circuit, so a BCF subgraph is always a forest.
    """
    if h.vertices != g.vertices or not h.edges <= g.edges:
        raise ValueError("expected a spanning subgraph of the host graph")
    rep = {v: v for v in g.vertices}
    for e in sorted(g.edges, reverse=True):
        u, v = (_find(rep, w) for w in e)
        if u == v:
            return False
        if e in h.edges:
            rep[u] = v
    return True


def _find(rep: dict, v: int) -> int:
    """Union-find root of v, halving the path on the way."""
    while rep[v] != v:
        rep[v] = rep[rep[v]]
        v = rep[v]
    return v


def min_attachment_tree(tree: RootedTree, g: Graph):
    """The spanning subtree of g picking the smallest available attachment
    edge below every vertex of an increasing supported tree.

    The result is broken circuit free and collapses back to the input tree.
    For an unsupported tree this returns None.
    """
    if g.vertices != tree.vertices:
        raise ValueError("tree and graph have different vertex sets")
    if not tree.is_increasing():
        raise ValueError("tree must be increasing")
    chosen = []
    for v in sorted(tree.parent):
        available = tree.attachment_edges(v) & g.edges
        if not available:
            return None
        chosen.append(min(available))
    return g.spanning(chosen)


def spanning_subtrees(g: Graph):
    """All spanning subtrees of g, lexicographic on sorted edge lists, by a
    walk over the (n-1)-edge subsets: the oracle for ``bcf --breaks-all``,
    which lists them as products of attachment sets."""
    want = len(g.vertices) - 1
    for combo in itertools.combinations(sorted(g.edges), want):
        t = g.spanning(combo)
        if t.is_connected():
            yield t


def _bcf_forests(g: Graph, q: int | None = None) -> list:
    """The broken-circuit-free spanning subforests of g, in ``bcf_subforests``
    order, as triples (edges, blocks, parents): the sorted edge list, and
    the block masks and parent column (``_supported_forests``) of the
    supported increasing forest whose ``min_attachment_tree`` image it is.
    By the bijection that forest is also the image's skeleton forest."""
    vs = sorted(g.vertices)
    images = []
    for blocks, parents, counts, ends in _supported_forests(g, q):
        edges = [(vs[p], vs[e]) for p, c, e in zip(parents, counts, ends) if c]
        edges.sort()
        images.append((edges, blocks, parents))
    images.sort()
    return images


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
    for edges, _, _ in _bcf_forests(g, q):
        yield g.spanning(edges)
