"""Ordered graphs, set partitions, and the shared text format.

Vertices are positive integers carrying their natural total order.  A graph
is identified with its edge set over an explicit vertex set; spanning
subgraphs share the vertex set.  Restrictions keep the original vertex ids
(they are never relabeled), so partitions and trees computed over nested
subsets stay directly comparable.

Everything here is an immutable value; operations are pure functions.
"""

from __future__ import annotations

import itertools

# Exhaustive enumerations refuse vertex sets larger than this instead of
# silently running forever.  At most 256, so that a vertex position or an
# attachment count fits in a byte: the oracle table's keys and the packed
# trees rely on it.
EXHAUSTIVE_LIMIT = 16

# parse_graph refuses larger vertex counts before building the vertex set.
MAX_VERTICES = 1_000_000


class GraphFormatError(ValueError):
    """Graph text input does not follow the file format."""


class NotConnectedError(ValueError):
    """An operation required a connected graph."""


class BoundExceededError(ValueError):
    """An exhaustive enumeration would exceed the configured size bound."""


def check_limit(n: int) -> None:
    if n > EXHAUSTIVE_LIMIT:
        raise BoundExceededError(
            f"{n} vertices exceeds the exhaustive enumeration bound of {EXHAUSTIVE_LIMIT}"
        )


def edge(u: int, v: int) -> tuple[int, int]:
    """Canonical undirected edge: the pair (lo, hi) with lo < hi."""
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def link(v: int, targets) -> frozenset[tuple[int, int]]:
    """All possible edges joining v to a member of targets.

    v itself is skipped, so the result has |targets - {v}| elements whether
    or not v belongs to targets.
    """
    return frozenset(edge(v, w) for w in targets if w != v)


def _eliminate(vertices, edges, joins) -> tuple[dict[int, int], list]:
    """One union-find pass over edges from the largest down, linking the
    ones in joins: the paper's algorithm k.

    Every root is its component's minimum, and every joined vertex is at
    least v, so when (v, w) arrives v is a root and only w's root r needs a
    find.  If r == v, larger joins already connect v and w, and the edge,
    the smallest of the circuit it closes, goes to closers.  Otherwise a
    join hangs r below v.  With joins = edges, parent is the elimination
    forest of the reversed vertex order (Liu 1990), every parent smaller
    than its child; with joins a subgraph's edges, closers are the edges
    whose endpoints a path of larger subgraph edges joins.
    """
    rep = {v: v for v in vertices}
    parent: dict[int, int] = {}
    closers = []
    for e in sorted(edges, reverse=True):
        v, r = e
        while rep[r] != r:
            rep[r] = r = rep[rep[r]]
        if r == v:
            closers.append(e)
        elif e in joins:
            parent[r] = rep[r] = v
    return parent, closers


class Graph:
    """Simple undirected graph on an explicit set of positive integer vertices.

    Construct with a vertex count (meaning vertices 1..n) or any iterable of
    vertex ids.  Edges are stored canonically as (lo, hi) pairs, duplicates
    collapse, loops are rejected.  Instances are immutable and hashable.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges=()):
        if isinstance(vertices, int):
            vertices = range(1, vertices + 1)
        vs = frozenset(vertices)
        for v in vs:
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"vertices must be positive integers, got {v!r}")
        es = set()
        for u, v in edges:
            e = edge(u, v)
            if e[0] not in vs or e[1] not in vs:
                raise ValueError(f"edge {e} leaves the vertex set")
            es.add(e)
        self.vertices = vs
        self.edges = frozenset(es)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, itertools.combinations(range(1, n + 1), 2))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges in lexicographic order."""
        return tuple(sorted(self.edges))

    def spanning(self, edges) -> "Graph":
        """Spanning subgraph: same vertex set, the given edges."""
        return Graph(self.vertices, edges)

    def restrict(self, subset) -> "Graph":
        """The graph on the given vertex subset with every edge inside it."""
        vs = frozenset(subset)
        if not vs <= self.vertices:
            raise ValueError("restriction outside the vertex set")
        return Graph(vs, (e for e in self.edges if e[0] in vs and e[1] in vs))

    def _elimination_forest(self) -> tuple[dict[int, int], dict[int, int]]:
        """The parent map of ``_eliminate`` over all edges, and each vertex's
        component minimum (its forest root), keyed in ascending order.
        Ascending, a parent, always the smaller, is resolved before its child."""
        parent, _ = _eliminate(self.vertices, self.edges, self.edges)
        low: dict[int, int] = {}
        for v in sorted(self.vertices):
            low[v] = low[parent[v]] if v in parent else v
        return parent, low

    def components(self) -> "SetPartition":
        """The maximal partition of the vertex set into connected blocks,
        from one union-find pass that builds no adjacency sets."""
        blocks: dict[int, list[int]] = {}
        for v, r in self._elimination_forest()[1].items():
            blocks.setdefault(r, []).append(v)
        return SetPartition(blocks.values())

    def is_connected(self) -> bool:
        """True iff the union-find pass links all but one vertex."""
        if not self.vertices:
            raise ValueError("connectivity is undefined for an empty vertex set")
        parent, _ = _eliminate(self.vertices, self.edges, self.edges)
        return len(parent) == len(self.vertices) - 1

    def _require_connected(self) -> dict[int, int]:
        """The parent map of one ``_eliminate`` pass when it links all but one
        vertex, else NotConnectedError naming the components (exit code 3)."""
        if not self.vertices:
            raise ValueError("connectivity is undefined for an empty vertex set")
        parent, _ = _eliminate(self.vertices, self.edges, self.edges)
        count = len(self.vertices) - len(parent)
        if count == 1:
            return parent
        # ten components of at most ten vertices each keep the message short;
        # ascending, the vertices meet the components in order of their minimum
        shown = {}  # minimum -> the first eleven vertices of its component
        for v, r in self._elimination_forest()[1].items():
            if r in shown:
                if len(shown[r]) <= 10:
                    shown[r].append(v)
            elif len(shown) < 10:
                shown[r] = [v]
        text = [" ".join(map(str, b[:10])) + (" ..." if len(b) > 10 else "")
                for b in shown.values()] + (["..."] if count > 10 else [])
        raise NotConnectedError(
            f"graph is not connected ({count} components: {' | '.join(text)})")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph({sorted(self.vertices)}, {sorted(self.edges)})"


class SetPartition:
    """Partition of a finite vertex set into disjoint nonempty blocks.

    Canonical form: each block sorted ascending and the blocks ordered by
    their minimum element.  Instances are immutable, hashable, and totally
    ordered by the canonical form, so they work as map keys and sort keys.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        canon = sorted(tuple(sorted(b)) for b in blocks)
        seen: set[int] = set()
        for b in canon:
            if not b:
                raise ValueError("blocks must be nonempty")
            for v in b:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two blocks")
                seen.add(v)
        self.blocks = tuple(canon)

    @property
    def ground(self) -> frozenset[int]:
        return frozenset(v for b in self.blocks for v in b)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def refines(self, other: "SetPartition") -> bool:
        """True iff every block here lies inside a single block of other."""
        if self.ground != other.ground:
            raise ValueError("partitions have different ground sets")
        where = {}
        for i, b in enumerate(other.blocks):
            for v in b:
                where[v] = i
        return all(len({where[v] for v in b}) == 1 for b in self.blocks)

    def shape(self) -> tuple[int, ...]:
        """Block sizes as a weakly decreasing integer partition."""
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def __eq__(self, other):
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def __lt__(self, other):
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.blocks < other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"SetPartition({[list(b) for b in self.blocks]})"


def set_partitions_of(vertices):
    """Yield every set partition of the given vertices, deterministically.

    Order: elements are placed in ascending order; each element first joins
    the existing blocks in creation order, then opens a new block.
    """
    vs = sorted(set(vertices))
    check_limit(len(vs))
    if not vs:
        yield SetPartition(())
        return

    blocks: list[list[int]] = []

    def place(i):
        if i == len(vs):
            yield SetPartition(blocks)
            return
        v = vs[i]
        for b in blocks:
            b.append(v)
            yield from place(i + 1)
            b.pop()
        blocks.append([v])
        yield from place(i + 1)
        blocks.pop()

    yield from place(0)


def all_graphs(n: int):
    """Every labeled graph on vertices 1..n, by ascending edge-subset mask."""
    check_limit(n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))


def connected_graphs(n: int):
    """Every connected labeled graph on vertices 1..n, in all_graphs order."""
    for g in all_graphs(n):
        if g.is_connected():
            yield g


def random_graph(n: int, rng) -> Graph:
    """One uniformly random edge subset of K_n."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    mask = rng.getrandbits(len(pairs))
    return Graph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))


def random_connected_graph(n: int, rng) -> Graph:
    """One uniformly random edge subset of K_n, redrawn until connected."""
    while True:
        g = random_graph(n, rng)
        if g.is_connected():
            return g


def parse_graph(text: str) -> Graph:
    r"""Parse the graph text format.

    The first non-comment line is ``n <count>``; every further non-comment
    line is ``u v`` with 1 <= u < v <= n.  ``#`` starts a comment anywhere in
    a line; blank lines are skipped; duplicate edges are an error.  Outside
    comments a line is ASCII, so the count and the endpoints match [0-9]+:
    isdigit() alone would pass '²', and int() alone reads '٢', '+1', '1_0'.
    Lines end at '\n' only (a trailing '\r' is stripped): splitlines() would
    also break at U+2028, U+0085 and other separators the ASCII rule refuses.
    Fields are separated by spaces and tabs; other control characters, which
    split() and strip() also take for blanks, are errors.  The count runs
    from 1 to MAX_VERTICES.
    """
    n = None
    seen = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.removesuffix("\r").split("#", 1)[0].strip(" \t")
        if not line:
            continue
        if not line.isascii():
            raise GraphFormatError(f"line {lineno}: non-ASCII text in {raw.strip()!r}")
        # tab is the one control character allowed
        if not line.isprintable() and not line.replace("\t", " ").isprintable():
            raise GraphFormatError(f"line {lineno}: control character in {raw!r}")
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n" or not parts[1].isdigit():
                raise GraphFormatError(
                    f"line {lineno}: expected 'n <count>', got {raw.strip()!r}"
                )
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: count too long") from None
            if not 1 <= n <= MAX_VERTICES:
                raise GraphFormatError(
                    f"line {lineno}: vertex count must be 1 to {MAX_VERTICES}"
                )
            continue
        if len(parts) != 2 or not (parts[0].isdigit() and parts[1].isdigit()):
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        try:  # on ASCII digits int() fails only past its digit limit (4300)
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: endpoint too long") from None
        if not 1 <= u < v <= n:
            raise GraphFormatError(f"line {lineno}: need 1 <= u < v <= {n}, got {u} {v}")
        if (u, v) in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add((u, v))
    if n is None:
        raise GraphFormatError("missing 'n <count>' header line")
    return Graph(n, seen)


def format_graph(g: Graph) -> str:
    """Render a graph in the text format parse_graph reads."""
    vs = sorted(g.vertices)
    if vs != list(range(1, len(vs) + 1)):
        raise ValueError("only graphs on vertices 1..n can be formatted")
    lines = [f"n {len(vs)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
