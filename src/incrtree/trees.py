"""Rooted trees and forests on integer vertex sets in their natural order.

A rooted tree is a parent map plus a root.  A tree is increasing when every
vertex precedes all of its descendants; over integer vertices that is the
same as every non-root vertex having a smaller parent, so increasing trees
on m vertices are exactly the (m-1)! parent maps that always point downward.

The central relation here: below each non-root vertex v sits the set of
*attachment edges*, all possible edges from v's parent into v's subtree.  A
tree is supported by a graph G when every attachment set meets G; supported
trees exist only for connected G, and a supported tree need not be a
subgraph of G.

Counting never walks the (m-1)! trees: a vertex's attachment set depends
only on its parent and its subtree's vertex set, so a sum over supported
trees of the product of int weight(c) over non-root vertices, each with
c attachment edges in G, is one subset recursion (``supported_tree_sums``)
of about 3^m/4 terms; forests split off the minimum vertex's block.  Every
such recursion takes its blocks from one enumerator, ``_blocks``.

Listing does not walk them either.  The supported trees and forests are
read off the nonzero entries of the count table, each with its attachment
counts and smallest attachment edges, so past the table the cost is in
proportion to the output; the fibers and the broken-circuit-free forests
come from the same stream.  Inside this module each tree is one int of
one-byte fields: every non-root vertex's parent position in the high
fields, lower positions more significant, and its attachment count and the
far end of its smallest attachment edge in fields below.  Joining trees is
an OR, a forest is the OR of its trees, and as the trees on one vertex set
differ first in a parent, sorting their ints sorts them by parent vector,
the ``increasing_trees`` order.  The stream hands each forest out as three
byte columns, one item per vertex position; the listings read whole
attachment sets off a tree's parent column (``_attachment_ranks``).
"""

from __future__ import annotations

import itertools

from .graphs import Graph, check_limit, edge, link

# Bits in one field of a packed tree: a byte holds any vertex position or
# attachment count (see EXHAUSTIVE_LIMIT).
_FIELD_BITS = 8


def _below(children: dict[int, list[int]], v: int) -> list[int]:
    """v and every vertex below it in the child lists."""
    out = [v]
    for w in out:  # the list grows as it is read, level by level
        out.extend(children[w])
    return out


def _attachment_sets(trees, g: Graph) -> dict[int, list]:
    """The edges of g in every attachment set of the disjoint trees, keyed by
    non-root vertex, from one walk down each tree: O(|V| + |E|) in all.

    The walk keeps the current root path, each vertex at its depth.  An edge
    {a, b} of g lies in the set of the child of a on b's root path when a is
    a proper ancestor of b, whichever of the two is smaller, and in no set
    otherwise: an edge between two branches or two trees lies in none.
    """
    near: dict[int, list] = {v: [] for v in g.vertices}
    for e in g.edges:
        near[e[0]].append(e)
        near[e[1]].append(e)
    sets: dict[int, list] = {v: [] for t in trees for v in t.parent}
    depth: dict[int, int] = {}
    path: list[int] = []
    for t in trees:
        todo = [(t.root, 0)]
        while todo:
            b, d = todo.pop()
            depth[b] = d
            del path[d:]
            path.append(b)
            for e in near[b]:
                a = e[0] + e[1] - b  # the other end
                i = depth.get(a, d)  # the path's first d entries are b's ancestors
                if i < d and path[i] == a:
                    sets[path[i + 1]].append(e)
            todo += [(c, d + 1) for c in t._children[b]]
    return sets


class RootedTree:
    """Immutable rooted tree stored as a parent map.

    ``parent`` maps every non-root vertex to its parent; the vertex set is
    the root together with the map's keys.
    """

    __slots__ = ("root", "parent", "_children", "_vertices", "_key")

    def __init__(self, root: int, parent=()):
        parent = dict(parent)
        if root in parent:
            raise ValueError("the root cannot have a parent")
        vertices = frozenset(parent) | {root}
        children: dict[int, list[int]] = {v: [] for v in vertices}
        for v, p in parent.items():
            if p not in vertices:
                raise ValueError(f"parent {p} of {v} is not a vertex")
            children[p].append(v)
        # each non-root vertex has one parent, a vertex, so the walk down from
        # the root meets every vertex exactly when none lies on or below a cycle
        if len(_below(children, root)) < len(vertices):
            raise ValueError("parent map contains a cycle")
        self.root = root
        self.parent = parent
        self._children = children
        self._vertices = vertices
        self._key = (root, tuple(sorted(parent.items())))

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    def descendants(self, v: int) -> frozenset[int]:
        """The set of descendants of v, including v itself."""
        if v not in self._vertices:
            raise ValueError(f"unknown vertex {v}")
        return frozenset(_below(self._children, v))

    def parent_of(self, v: int) -> int:
        if v == self.root:
            raise ValueError("the root has no parent")
        try:
            return self.parent[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v}")

    def is_increasing(self) -> bool:
        """True iff every vertex precedes all of its descendants.

        For a tree this is the same as every non-root vertex having a
        smaller parent, which is what gets checked.
        """
        return all(p < v for v, p in self.parent.items())

    def attachment_edges(self, v: int) -> frozenset[tuple[int, int]]:
        """All possible edges joining v's parent to a descendant of v."""
        return link(self.parent_of(v), self.descendants(v))

    def is_supported_by(self, g: Graph) -> bool:
        """True iff every non-root vertex has an attachment edge present in g."""
        if g.vertices != self._vertices:
            raise ValueError("tree and graph have different vertex sets")
        return all(_attachment_sets((self,), g).values())

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(edge(v, p) for v, p in self.parent.items())

    def as_graph(self) -> Graph:
        return Graph(self._vertices, self.edges)

    def to_json_obj(self) -> dict:
        return {
            "root": self.root,
            "parent": {str(v): self.parent[v] for v in sorted(self.parent)},
        }

    def __eq__(self, other):
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"RootedTree({self.root}, {dict(sorted(self.parent.items()))})"


class RootedForest:
    """Disjoint rooted trees, kept in canonical order by minimum vertex."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = sorted(components, key=lambda t: min(t.vertices))
        seen: set[int] = set()
        for t in comps:
            if seen & t.vertices:
                raise ValueError("component vertex sets overlap")
            seen |= t.vertices
        self.components = tuple(comps)

    @property
    def ground(self) -> frozenset[int]:
        return frozenset(v for t in self.components for v in t.vertices)

    def component_count(self) -> int:
        return len(self.components)

    def is_increasing(self) -> bool:
        return all(t.is_increasing() for t in self.components)

    def is_supported_by(self, g: Graph) -> bool:
        """True iff every component is supported by g restricted to it."""
        if g.vertices != self.ground:
            raise ValueError("forest and graph have different vertex sets")
        return all(_attachment_sets(self.components, g).values())

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(e for t in self.components for e in t.edges)

    def __eq__(self, other):
        if not isinstance(other, RootedForest):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"RootedForest({list(self.components)})"


def increasing_trees(vertices):
    """Stream every increasing tree on the given vertices exactly once.

    Each non-minimum vertex chooses a parent among the smaller vertices;
    choice vectors run lexicographically (indexed by vertex ascending, the
    choice for the largest vertex advancing fastest), giving (m-1)! trees.
    """
    vs = sorted(set(vertices))
    if not vs:
        raise ValueError("need at least one vertex")
    check_limit(len(vs))
    for picks in itertools.product(*(vs[:i] for i in range(1, len(vs)))):
        yield RootedTree(vs[0], dict(zip(vs[1:], picks)))


def _blocks(mask: int):
    """The sub-masks of a nonzero mask that hold its lowest bit, from mask
    itself down to that bit alone.  A step takes the next smaller sub-mask
    of the rest, whose borrow passes through the lowest bit and so sets it."""
    low = mask & -mask
    b = mask
    while b != low:
        yield b
        b = (b - low - 1) & mask
    yield low


def _adjacency_masks(g: Graph) -> tuple[list[int], list[int]]:
    """The sorted vertices vs of g and, for each position i, the mask of
    vs[i]'s neighbours; bit i of a mask stands for vs[i]."""
    vs = sorted(g.vertices)
    check_limit(len(vs))
    pos = {v: i for i, v in enumerate(vs)}
    adj = [0] * len(vs)
    for u, v in g.edges:
        adj[pos[u]] |= 1 << pos[v]
        adj[pos[v]] |= 1 << pos[u]
    return vs, adj


def supported_tree_sums(g: Graph, weight) -> list[int]:
    """Weighted sums over supported increasing trees, for every vertex subset.

    Bit i of a mask stands for the i-th smallest vertex of g.  Entry S is
    the sum over the increasing trees on S supported by g restricted to S
    of the product, over non-root vertices v, of the int weight(c), where
    c >= 1 counts v's attachment edges present in g; the empty mask holds
    0.  As v's weight depends only on its parent and its subtree's vertex
    set, splitting off the subtree B that holds the smallest non-root
    vertex of S gives, with r = min S,

        T(S) = sum over B of weight(|N(r) & B|) * T(B) * T(S - B),

    two smaller masks each, so one ascending pass costs about 3^n/4 terms.
    """
    adj = _adjacency_masks(g)[1]
    n = len(adj)
    weights = [0] + [weight(c) for c in range(1, n)]
    sums = [0] * (1 << n)
    for s in range(1, 1 << n):
        root = s & -s
        below = s ^ root
        if not below:
            sums[s] = 1
            continue
        near = adj[root.bit_length() - 1]
        acc = 0
        for b in _blocks(below):
            c = (near & b).bit_count()
            if c and sums[b] and sums[s ^ b]:
                acc += weights[c] * sums[b] * sums[s ^ b]
        sums[s] = acc
    return sums


def count_supported_trees(g: Graph) -> int:
    """Number of increasing trees on g's vertex set supported by g.

    The full-set entry of ``supported_tree_sums`` with every weight 1; it
    agrees with filtering increasing_trees by is_supported_by.
    """
    return supported_tree_sums(g, lambda c: 1)[-1]


def mask_vertices(vs) -> list[tuple[int, ...]]:
    """Table from each mask over the sorted vertices vs to its vertex tuple."""
    table = [()]
    for v in vs:
        table += [b + (v,) for b in table]
    return table


def supported_partitions(sums, vertices, mask: int, head: tuple = (),
                         q: int | None = None):
    """Yield the set partitions of mask whose blocks all have a nonzero entry
    in sums, as tuples of block masks after ``head``, in canonical
    SetPartition order (``vertices`` is the ``mask_vertices`` table).  With
    q given, only those with q blocks in all, ``head`` included.

    The block holding the minimum is split off first, its candidates in
    vertex-tuple order; a block with no supported tree is never expanded.
    Without q every remainder has at least its all-singletons partition, so
    no branch comes up empty; with q the last block is the whole remainder.
    """
    if not mask:
        if q is None or len(head) == q:
            yield head
        return
    if q is not None:
        left = q - len(head)  # blocks still to split off
        if not 1 <= left <= mask.bit_count():
            return
        if left == 1:
            if sums[mask]:
                yield head + (mask,)
            return
    for block in sorted(_blocks(mask), key=vertices.__getitem__):
        if sums[block]:
            yield from supported_partitions(sums, vertices, mask ^ block,
                                            head + (block,), q)


def _supported_forests(g: Graph, sums, q: int | None = None):
    """Stream the supported increasing forests of g off its count table sums,
    a ``supported_tree_sums`` table of g of which only whether an entry is
    nonzero is read, so any positive weight gives the same stream.  They come
    in ``supported_increasing_forests`` order, as tuples (blocks, parents,
    counts, ends): the block masks by ascending minimum, then three columns
    of type bytes with one item per vertex position (vertex order).  Item i of
    each is position i's parent position, its attachment count c >= 1 in g
    and the position of the far end of its smallest attachment edge, the
    edge ``min_attachment_tree`` keeps; a root holds zero in all three, so
    a nonzero count marks a non-root vertex.

    Inside, a tree is one int of _FIELD_BITS-bit fields in three sections
    of n fields (parents, counts, ends), position i in field n-1-i of each,
    so lower positions are more significant and one ``to_bytes`` call
    splits a forest into its columns.  Trees on disjoint blocks fill
    disjoint fields, so a forest is the sum (the OR) of its block ints.

    The trees on a mask S follow the ``supported_tree_sums`` recursion: with
    r = min S and low = min(S - r), each subtree B of low with an edge from
    r and nonzero counts on B and S - B hangs B's trees under r beside the
    trees of S - B, each new tree ``tb | ts | made`` with ``made`` the
    fields of low.  Every branch yields, so past the table the cost is in
    proportion to the output.  All trees on one block share their non-root
    positions and differ in some parent, so comparing their ints compares
    their parent vectors, first vertex first: sorting a block's list in
    place gives the ``increasing_trees`` order.
    """
    vs, adj = _adjacency_masks(g)
    n = len(vs)
    grown: dict[int, list[int]] = {}

    def grow(s):
        # the packed trees on s, in the order made until s is a block
        if s in grown:
            return grown[s]
        root = s & -s
        below = s ^ root
        if not below:
            return [0]
        low = below & -below
        near = adj[root.bit_length() - 1]
        at = (n - low.bit_length()) * _FIELD_BITS  # low's field in the bottom section
        parent = (root.bit_length() - 1) << (at + 2 * n * _FIELD_BITS)
        out = []
        for b in _blocks(below):
            hits = near & b
            if hits and sums[b] and sums[s ^ b]:
                made = (parent | hits.bit_count() << (at + n * _FIELD_BITS)
                        | ((hits & -hits).bit_length() - 1) << at)
                rest = grow(s ^ b)
                out += [tb | ts | made for tb in grow(b) for ts in rest]
        grown[s] = out
        return out

    vertices = None if q == 1 else mask_vertices(vs)  # q = 1 yields the full mask, unsorted
    for blocks in supported_partitions(sums, vertices, (1 << n) - 1, q=q):
        for b in blocks:  # increasing_trees order, with no second list kept
            grow(b).sort()
        for packed in map(sum, itertools.product(*map(grow, blocks))):
            columns = packed.to_bytes(3 * n, "big")
            yield blocks, columns[:n], columns[n:2 * n], columns[2 * n:]


def _rooted_tree(vs, block: int, parents) -> RootedTree:
    """The tree on one block of a streamed forest (``_supported_forests``), a
    mask over the sorted vertices vs, with the forest's parent column."""
    at = [i for i in range(len(vs)) if block >> i & 1]
    return RootedTree(vs[at[0]], [(vs[i], vs[parents[i]]) for i in at[1:]])


def _attachment_ranks(g: Graph):
    """The function from the parent column of a tree of g streamed with q = 1
    to its non-root positions' attachment edges in g, as ascending ranks in
    ``g.sorted_edges()``: one pass from the largest position down gathers the
    subtree masks sub, and position i's set is N(parent[i]) & sub[i]."""
    adj = _adjacency_masks(g)[1]
    n, r = len(adj), itertools.count()
    rank = [[next(r) if x > p and adj[p] >> x & 1 else None for x in range(n)] for p in range(n)]

    def ranks(parents):
        sub = [1 << i for i in range(n)]
        for i in range(n - 1, 0, -1):
            sub[parents[i]] |= sub[i]
        return [[rank[p][x] for x in range(i, n) if (adj[p] & sub[i]) >> x & 1]
                for i, p in enumerate(parents) if i]
    return ranks


def supported_increasing_forests(g: Graph, q: int | None = None):
    """Stream the increasing forests whose components are supported by g.

    A forest qualifies when, for every component, the restriction of g to
    that component's vertex set supports the component tree.  With q given,
    only forests with exactly q components are yielded.  Order: canonical
    order of the underlying partition, then per-block ``increasing_trees``
    order, the last block advancing fastest.  Every block's trees come off
    one count table of g, so past the table the cost is in proportion to
    the output.
    """
    vs = sorted(g.vertices)
    sums = supported_tree_sums(g, lambda c: 1)
    for blocks, parents, _, _ in _supported_forests(g, sums, q):
        yield RootedForest(_rooted_tree(vs, b, parents) for b in blocks)
