"""Graph invariants organized by increasing supported trees and forests.

Three families, each with a brute-force route (the defining sum over edge
subsets) and a structured route (sums over increasing supported trees or
forests), kept deliberately independent so they can cross-check each other:

* the connected-subgraph polynomial: one term t^edges per connected
  spanning subgraph,
* the chromatic polynomial, via the signed spanning-subgraph expansion,
  via partitions into independent sets, and via forest counts,
* power-sum coefficient maps of the chromatic symmetric function, keyed by
  integer partition (shape form) or by set partition of the vertex set
  (refined form).

The edge-subset routes read one table of subsets by component partition,
costing |E| times the partitions reached instead of one pass per subset.
All arithmetic is exact; coefficients are plain Python integers.
"""

from __future__ import annotations

import functools
import math

from .graphs import Graph, SetPartition, check_limit
from .trees import (_adjacency_masks, _blocks, mask_vertices,
                    supported_partitions, supported_tree_sums)


class IntPoly:
    """Exact-integer polynomial in one variable, lowest degree first: what
    the polynomial routes return, and the oracles' arithmetic.  Canonical
    form never has trailing zero coefficients, so equality of coefficient
    tuples is equality of polynomials.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls()

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def x_power(cls, k: int, coeff: int = 1) -> "IntPoly":
        return cls((0,) * k + (coeff,))

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self):
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = IntPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, value: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def to_list(self) -> list[int]:
        return list(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"


# ---------------------------------------------------------------------------
# edge-subset table shared by the oracle routes

# One-byte strings for bytes.replace, one per vertex position.
_BYTE = [bytes((i,)) for i in range(256)]


def _edge_subset_table(g: Graph) -> dict[bytes, int]:
    """Count the edge subsets of g by component partition and edge count.

    A key holds one label per vertex (in sorted order): the smallest
    position in its component.  A value packs the count of k-edge subsets at
    bit k*w, w = |E| + 1, which no count (at most 2^|E|) overflows.  Each
    edge in sorted order keeps every state (edge left out) and adds its
    counts, one edge up, under the merged key (edge taken): the state
    merging of Sekine, Imai and Tani (ISAAC 1995), |E| times at most
    min(2^|E|, Bell(n)) states.
    """
    n = len(g.vertices)
    check_limit(n)
    pos = {v: i for i, v in enumerate(sorted(g.vertices))}
    w = len(g.edges) + 1
    table = {bytes(range(n)): 1}
    for u, v in sorted(g.edges):
        a, b = pos[u], pos[v]
        grown = dict(table)
        for key, counts in table.items():
            la, lb = key[a], key[b]
            if la < lb:
                key = key.replace(_BYTE[lb], _BYTE[la])
            elif lb < la:
                key = key.replace(_BYTE[la], _BYTE[lb])
            grown[key] = grown.get(key, 0) + (counts << w)
        table = grown
    return table


def _poly(counts: int, g: Graph) -> IntPoly:
    """The polynomial of counts packed at bit k*w, w = |E| + 1, each < 2^w."""
    w = len(g.edges) + 1
    return IntPoly((counts >> k * w) & ((1 << w) - 1) for k in range(w))


def _signed(counts: int, g: Graph) -> int:
    """Sum over k of (-1)^k count_k for packed counts P(2^w), P(t) = sum of
    count_k t^k: as 2^w = -1 mod 2^w + 1, that is P(-1) mod 2^w + 1, and
    |P(-1)| <= 2^(w-1) pins the representative."""
    m = (1 << (len(g.edges) + 1)) + 1
    r = counts % m
    return r - m if r > m >> 1 else r


# ---------------------------------------------------------------------------
# connected-subgraph polynomial


def connected_subgraph_poly(g: Graph) -> IntPoly:
    """Edge-count generating polynomial of the connected spanning subgraphs.

    Defining sum: one t^k term per connected spanning subgraph with k
    edges, read from the one-block entry of the edge-subset table.
    """
    g._require_connected()
    return _poly(_edge_subset_table(g)[bytes(len(g.vertices))], g)


def connected_subgraph_poly_from_trees(g: Graph) -> IntPoly:
    """Same polynomial assembled from increasing supported trees.

    Each supported tree contributes the product over its non-root vertices
    of (1+t)^choices - 1, where choices counts the attachment edges present
    in g; the products telescope exactly over the fibers of ``skeleton``.
    The sum is the full-set entry of ``supported_tree_sums`` at t = 2^w,
    packed as in the edge-subset table.  No slot carries: a coefficient of
    any weight(c) * T(B) * T(S - B) counts distinct k-edge subsets of g,
    at most C(|E|, k) < 2^w.  ``checks`` keeps the per-tree sum in IntPoly.
    """
    g._require_connected()
    t = 1 << (len(g.edges) + 1)
    return _poly(supported_tree_sums(g, lambda c: (1 + t) ** c - 1)[-1], g)


# ---------------------------------------------------------------------------
# chromatic polynomial


def chromatic_poly_by_subsets(g: Graph) -> IntPoly:
    """Chromatic polynomial via the signed spanning-subgraph expansion.

    Every edge subset contributes (-1)^edges x^components, summed per entry
    of the edge-subset table.  Works for disconnected graphs.
    """
    coeffs = [0] * (len(g.vertices) + 1)
    for key, counts in _edge_subset_table(g).items():
        coeffs[len(set(key))] += _signed(counts, g)
    return IntPoly(coeffs)


def chromatic_poly_by_independent_sets(g: Graph) -> IntPoly:
    """Chromatic polynomial via partitions into independent sets.

    The colour classes of a proper x-colouring are the blocks of a
    partition of the vertices into k independent sets, coloured in
    x(x-1)...(x-k+1) ways, so chi(x) = sum over k of a_k x(x-1)...(x-k+1),
    a_k counting those partitions (R. C. Read, J. Combin. Theory 4, 1968;
    Bjorklund, Husfeldt and Koivisto, SIAM J. Comput. 39, 2009).  One pass
    over vertex masks in increasing order splits off the independent block
    that holds the minimum of the mask, and packs a_k at bit k*w; no count
    (at most Bell(n) <= n^n) reaches 2^w.  Works for disconnected graphs;
    shares no table with the other two routes.
    """
    vs, adj = _adjacency_masks(g)
    n = len(vs)
    w = n * n.bit_length() + 1
    independent = [True] * (1 << n)
    parts = [1] * (1 << n)  # entry 0: the empty partition, k = 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        nbrs = adj[low.bit_length() - 1]
        independent[mask] = independent[mask ^ low] and not nbrs & mask
        choices = (mask ^ low) & ~nbrs
        parts[mask] = sum(parts[mask ^ b] for b in _blocks(low | choices)
                          if independent[b]) << w
    out, falling = IntPoly.zero(), IntPoly.one()
    for k in range(n + 1):
        out = out + falling * ((parts[-1] >> k * w) & ((1 << w) - 1))
        falling = falling * IntPoly((-k, 1))
    return out


def chromatic_poly_from_forests(g: Graph) -> IntPoly:
    """Chromatic polynomial from increasing supported forest counts.

    The coefficient of x^q is (-1)^(n-q) times the number of increasing
    supported forests with q components.
    """
    n = len(g.vertices)
    coeffs = [0] * (n + 1)
    for q, count in supported_forest_counts(g).items():
        coeffs[q] = count if (n - q) % 2 == 0 else -count
    return IntPoly(coeffs)


def supported_forest_counts(g: Graph) -> dict[int, int]:
    """Map q -> number of increasing supported forests with q components."""
    return _forest_counts(g, lambda q, size: q + 1, 0)


def _forest_counts(g: Graph, grow, empty) -> dict:
    """Count the increasing supported forests of g by a key of their blocks.

    A forest's key starts at ``empty`` and takes ``grow(key, size)`` for each
    block.  Splits off the block containing the minimum vertex and recurses
    over the rest, with supported-tree counts read from one subset table,
    so the whole table costs about 3^n block choices.
    """
    n = len(g.vertices)
    trees = supported_tree_sums(g, lambda c: 1)

    @functools.cache
    def split(mask: int) -> dict:
        if not mask:
            return {empty: 1}
        out: dict = {}
        for block in _blocks(mask):
            ways = trees[block]
            if ways:
                size = block.bit_count()
                for key, c in split(mask ^ block).items():
                    key = grow(key, size)
                    out[key] = out.get(key, 0) + ways * c
        return out

    return split((1 << n) - 1)


# ---------------------------------------------------------------------------
# chromatic symmetric function, power-sum coefficients


def csf_y_from_forests(g: Graph) -> dict[SetPartition, int]:
    """Refined power-sum coefficients keyed by set partition of the vertices.

    The coefficient at a partition pi is (-1)^(n - blocks) times the number
    of increasing supported forests splitting the vertex set exactly as pi;
    zero coefficients are omitted.  Only partitions whose blocks all carry
    a supported tree are visited, in canonical order.
    """
    return _by_set_partition(*_csf_y_terms(g))


def csf_y_by_subsets(g: Graph) -> dict[SetPartition, int]:
    """Oracle route: signed sum over all edge subsets grouped by component
    partition, one entry of the edge-subset table per partition."""
    return _by_set_partition(*_csf_y_subset_terms(g))


def _by_set_partition(vertices, terms) -> dict[SetPartition, int]:
    """The csf-y map of terms over the ``mask_vertices`` table vertices."""
    return {SetPartition(map(vertices.__getitem__, blocks)): c for blocks, c in terms}


def _csf_y_terms(g: Graph):
    """The ``mask_vertices`` table of g and the nonzero terms of
    ``csf_y_from_forests``, as (block masks, coefficient) pairs in canonical
    order."""
    n = len(g.vertices)
    trees = supported_tree_sums(g, lambda c: 1)
    vertices = mask_vertices(sorted(g.vertices))

    def terms():
        for blocks in supported_partitions(trees, vertices, (1 << n) - 1):
            ways = math.prod(map(trees.__getitem__, blocks))
            yield blocks, ways if (n - len(blocks)) % 2 == 0 else -ways

    return vertices, terms()


def _csf_y_subset_terms(g: Graph):
    """The ``mask_vertices`` table of g and the nonzero terms of
    ``csf_y_by_subsets``, in the form and order of ``_csf_y_terms``.

    A table key's label is its block's smallest position, so the labels in
    order of first sight give the blocks by ascending minimum, and one sort
    on the blocks' vertex tuples gives canonical SetPartition order.
    """
    terms = []
    for key, counts in _edge_subset_table(g).items():
        c = _signed(counts, g)
        if c:
            blocks: dict[int, int] = {}
            for i, label in enumerate(key):
                blocks[label] = blocks.get(label, 0) | 1 << i
            terms.append((tuple(blocks.values()), c))
    vertices = mask_vertices(sorted(g.vertices))
    terms.sort(key=lambda term: tuple(map(vertices.__getitem__, term[0])))
    return vertices, terms


def csf_x_from_forests(g: Graph) -> dict[tuple[int, ...], int]:
    """Power-sum coefficients keyed by block-size partition.

    The coefficient at a shape lambda is (-1)^(n - parts) times the number
    of increasing supported forests whose component sizes are lambda.
    """
    n = len(g.vertices)
    counts = _forest_counts(
        g, lambda shape, size: tuple(sorted(shape + (size,), reverse=True)), ())
    return {shape: c if (n - len(shape)) % 2 == 0 else -c
            for shape, c in counts.items()}


def collapse_by_shape(terms: dict[SetPartition, int]) -> dict[tuple[int, ...], int]:
    """Collapse set-partition-keyed coefficients onto their shapes."""
    out: dict[tuple[int, ...], int] = {}
    for part, coeff in terms.items():
        shape = part.shape()
        out[shape] = out.get(shape, 0) + coeff
    return {shape: c for shape, c in out.items() if c}


def csf_x_by_subsets(g: Graph) -> dict[tuple[int, ...], int]:
    """Oracle route: the signed edge-subset sum grouped by partition shape,
    the label multiplicities of each table key."""
    out: dict[tuple[int, ...], int] = {}
    for key, counts in _edge_subset_table(g).items():
        shape = tuple(sorted(map(key.count, set(key)), reverse=True))
        out[shape] = out.get(shape, 0) + _signed(counts, g)
    return {shape: c for shape, c in out.items() if c}
