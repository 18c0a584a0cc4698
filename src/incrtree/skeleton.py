"""Collapsing a connected graph to its increasing skeleton tree.

``skeleton`` sends every connected graph on an ordered vertex set to an
increasing tree: root at the minimum vertex, split the remaining vertices
into connected components, attach each component at its minimum vertex, and
repeat inside every component.  That is the elimination tree of the
reversed vertex order (J. W. H. Liu, SIAM J. Matrix Anal. Appl. 11, 1990),
which one union-find pass over the edges (``graphs._eliminate``) builds in
O(|E| log |V|), which bounds ``skeleton`` as a whole.  The skeleton is
always supported by the graph but need not be one of its subgraphs.

The preimage (fiber) of a tree R among the connected spanning subgraphs of
G has product structure: a subgraph collapses to R exactly when it is the
union of one nonempty subset of each per-vertex attachment set
``attachment_edges(v) & G.edges``.  That makes fibers enumerable and their
sizes a product of (2^size - 1) factors, which is what the invariant
formulas elsewhere in this package exploit.

Every edge of G lies in at most one attachment set: {a, b} lies in the set
of the child of a on b's root path when a is a proper ancestor of b, and in
none otherwise.  So one walk down the tree, with the root path in hand,
finds all the sets in O(|V| + |E|) (``trees._attachment_sets``), and every
function here that reads attachment sets costs that much.  The walk shares
nothing with the elimination pass, so ``attachments_cover``, the paper's
characterization of skeleton(G) == R, certifies the paper's collapse k
(``skeleton``) at any size.
"""

from __future__ import annotations

import itertools

from .graphs import Graph
from .trees import RootedForest, RootedTree, _attachment_sets


def skeleton_forest(g: Graph) -> RootedForest:
    """The skeleton tree of every connected component of g: the parent map
    of the elimination pass (``graphs._eliminate``), grouped into trees by
    component minimum.  Ascending, each root comes before its descendants.
    """
    parent, low = g._elimination_forest()
    trees: dict[int, dict[int, int]] = {}
    for v, r in low.items():
        if v == r:
            trees[v] = {}
        else:
            trees[r][v] = parent[v]
    return RootedForest(RootedTree(r, ps) for r, ps in trees.items())


def skeleton(g: Graph) -> RootedTree:
    """Collapse a connected graph to an increasing tree.

    This is the elimination tree of the reversed vertex order (Liu 1990):
    the parent map of one elimination pass (``graphs._eliminate``), which
    links all but one vertex exactly when g is connected, or NotConnectedError
    naming the components.
    """
    parent = g._require_connected()  # first, so an empty g is a ValueError
    return RootedTree(min(g.vertices), parent)


def fiber_edge_sets(g: Graph, tree: RootedTree) -> dict[int, frozenset]:
    """Per-vertex attachment edges actually present in g, keyed by vertex.

    The keys run over the non-root vertices in ascending order.  One walk
    down the tree finds every set, O(|V| + |E|): an edge of g joining a
    vertex to one of its proper ancestors a lies in the set of a's child on
    the way down, and any other edge in none.
    """
    if g.vertices != tree.vertices:
        raise ValueError("tree and graph have different vertex sets")
    if not tree.is_increasing():
        raise ValueError("tree must be increasing")
    sets = _attachment_sets((tree,), g)
    return {v: frozenset(sets[v]) for v in sorted(sets)}


def fiber_size(g: Graph, tree: RootedTree) -> int:
    """Number of connected spanning subgraphs of g collapsing to the tree.

    Equals the product over non-root vertices of (2^choices - 1), which is 0
    whenever some vertex has no attachment edge in g (the tree is not
    supported).
    """
    out = 1
    for es in fiber_edge_sets(g, tree).values():
        out *= (1 << len(es)) - 1
    return out


def fiber_members(g: Graph, tree: RootedTree, trees_only: bool = False):
    """Stream the edge tuples of the connected spanning subgraphs of g that
    collapse to tree, or with trees_only of the spanning trees among them.

    Each member is one nonempty subset of each vertex's available attachment
    edges, a tree one edge of each.  Per vertex the subsets run in
    binary-counter order (bit i for the i-th smallest edge), which puts the
    trees' one-edge subsets in edge order; choices combine in vertex order
    with the largest vertex advancing fastest, and a member lists its edges
    in that vertex order.  An unsupported tree yields an empty stream.
    """
    pools = []
    for es in fiber_edge_sets(g, tree).values():
        es = sorted(es)
        pools.append(es if trees_only else
                     [tuple(e for i, e in enumerate(es) if mask >> i & 1)
                      for mask in range(1, 1 << len(es))])
    members = itertools.product(*pools)
    return members if trees_only else map(tuple, map(itertools.chain.from_iterable, members))


def enumerate_fiber(g: Graph, tree: RootedTree):
    """Stream every connected spanning subgraph of g that collapses to tree,
    as a Graph, in ``fiber_members`` order."""
    return map(g.spanning, fiber_members(g, tree))


def splits_match(g: Graph, tree: RootedTree) -> bool:
    """Check that the tree records exactly g's recursive min-rooted splits.

    For every vertex v: g restricted to v's subtree must be connected and,
    with v removed, must fall apart into the same components as the subtree
    does.  For an increasing tree on a connected graph this holds exactly
    when skeleton(g) equals the tree; an unsupported tree always fails.
    """
    if g.vertices != tree.vertices:
        raise ValueError("tree and graph have different vertex sets")
    tree_graph = tree.as_graph()
    for v in sorted(tree.vertices):
        des = tree.descendants(v)
        if not g.restrict(des).is_connected():
            return False
        rest = des - {v}
        if not rest:
            continue
        if g.restrict(rest).components() != tree_graph.restrict(rest).components():
            return False
    return True


def attachments_cover(g: Graph, tree: RootedTree) -> bool:
    """True iff every attachment set meets g and together they exhaust g.

    This is the paper's characterization of skeleton(g) == tree: the
    per-vertex available attachment sets must all be nonempty and their
    union must be the whole edge set of g.  The sets come from one walk
    down the tree (``fiber_edge_sets``) and are joined once, so the check
    costs O(|V| + |E|) and shares nothing with the elimination pass that
    builds the skeleton: it is a linear certificate for k (``skeleton``).
    """
    sets = fiber_edge_sets(g, tree).values()
    return all(sets) and frozenset().union(*sets) == g.edges
