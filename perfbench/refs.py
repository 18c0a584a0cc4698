"""Reference answers for the benchmark, computed without the incrtree library.

Graphs here are pairs ``(n, edges)``: vertices 1..n and a sorted list of
``(u, v)`` tuples with u < v.  Each function either computes an invariant by
a route the library does not use (vertex-subset dynamic programs, Kirchhoff's
theorem, a union-find elimination tree) or rebuilds a CLI output from its
definition.  ``dumps`` turns a reference into the exact bytes the CLI must
print, and every builder cross-checks its result against an independent
count before handing it out.

Run ``python3 perfbench/refs.py`` to compare the dynamic programs with
networkx (when installed) on small random graphs.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb


class ReferenceMismatch(AssertionError):
    """A reference builder disagreed with its independent cross-check."""


def _require(cond, msg):
    if not cond:
        raise ReferenceMismatch(msg)


def dumps(obj) -> bytes:
    """The CLI's compact JSON line."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def adjacency(n, edges):
    """Adjacency bitmasks; bit i stands for vertex i + 1."""
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return adj


def _proper_submasks(mask):
    """Every submask of mask except mask itself, largest first."""
    if not mask:
        return
    sub = (mask - 1) & mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _submasks(mask):
    yield mask
    yield from _proper_submasks(mask)


def _vertices(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


class SubsetTables:
    """Per-vertex-subset tables of one small graph (n <= 12 or so).

    ``independent[S]``: S spans no edge.  ``inner_edges[S]``: edges inside S.
    ``signed_connected[S]``: sum of (-1)^|F| over the edge sets F of G[S]
    that connect S, so |signed_connected[S]| is the number of increasing
    trees on S that G[S] supports.
    """

    def __init__(self, n, edges):
        self.n = n
        self.edges = list(edges)
        self.adj = adjacency(n, edges)
        size = 1 << n
        independent = [True] * size
        inner = [0] * size
        for s in range(1, size):
            low = s & -s
            i = low.bit_length() - 1
            rest = s ^ low
            independent[s] = independent[rest] and not self.adj[i] & s
            inner[s] = inner[rest] + bin(self.adj[i] & rest).count("1")
        self.independent = independent
        self.inner_edges = inner
        # all(S) = sum over T ∋ min S of connected(T) * all(S \ T), where
        # all(S) = [S independent] for the signed count
        sc = [0] * size
        for s in range(1, size):
            low = s & -s
            rest = s ^ low
            total = 1 if independent[s] else 0
            for sub in _proper_submasks(rest):
                if independent[rest ^ sub]:
                    total -= sc[low | sub]
            sc[s] = total
        self.signed_connected = sc
        self.full = size - 1

    def supported_tree_count(self, mask=None) -> int:
        mask = self.full if mask is None else mask
        return abs(self.signed_connected[mask])

    def eta(self) -> list[int]:
        """Connected spanning subgraphs counted by edge number, lowest first.

        Same recursion with all(S) = (1+t)^inner(S), evaluated at t = 2^B
        (Kronecker substitution): every coefficient of every term is below
        2^|E| < 2^B, so the digits of the result are the coefficients.
        """
        m = len(self.edges)
        bits = m + 2
        powers = [((1 << bits) + 1) ** k for k in range(m + 1)]
        inner = self.inner_edges
        c = [0] * (self.full + 1)
        for s in range(1, self.full + 1):
            low = s & -s
            rest = s ^ low
            total = powers[inner[s]]
            for sub in _proper_submasks(rest):
                total -= c[low | sub] * powers[inner[rest ^ sub]]
            c[s] = total
        value = c[self.full]
        digit = (1 << bits) - 1
        coeffs = [(value >> (bits * k)) & digit for k in range(m + 1)]
        _require(value >> (bits * (m + 1)) == 0, "eta digits overflow")
        return _strip(coeffs)

    def chromatic(self) -> list[int]:
        """Chromatic polynomial from partitions into independent sets.

        a_q counts partitions of V into q independent blocks, and
        chi(x) = sum_q a_q x(x-1)...(x-q+1).  The block count rides in the
        digits of y = 2^64.
        """
        y_bits = 64
        ind = self.independent
        p = [0] * (self.full + 1)
        p[0] = 1
        for s in range(1, self.full + 1):
            low = s & -s
            rest = s ^ low
            total = 0
            for sub in _submasks(rest):
                if ind[low | sub]:
                    total += p[rest ^ sub]
            p[s] = total << y_bits
        value = p[self.full]
        mask = (1 << y_bits) - 1
        counts = [(value >> (y_bits * q)) & mask for q in range(self.n + 1)]
        chi = [0] * (self.n + 1)
        falling = [1]
        for q in range(self.n + 1):
            for k, c in enumerate(falling):
                chi[k] += counts[q] * c
            # falling *= (x - q)
            nxt = [0] * (len(falling) + 1)
            for k, c in enumerate(falling):
                nxt[k + 1] += c
                nxt[k] -= q * c
            falling = nxt
        return _strip(chi)

    def csf_y(self) -> list[tuple[list[list[int]], int]]:
        """Refined power-sum terms: (blocks, coefficient), canonical order.

        The coefficient at a set partition is the product over its blocks of
        signed_connected; partitions with a zero factor are left out.
        """
        sc = self.signed_connected
        out = []

        def place(s, blocks, coeff):
            if not s:
                out.append((blocks, coeff))
                return
            low = s & -s
            rest = s ^ low
            for sub in _submasks(rest):
                c = sc[low | sub]
                if c:
                    place(rest ^ sub, blocks + [low | sub], coeff * c)

        place(self.full, [], 1)
        terms = [([_vertices(b) for b in blocks], c) for blocks, c in out]
        terms.sort()
        return terms


def csf_x_from_terms(terms) -> list[tuple[tuple[int, ...], int]]:
    """Collapse refined terms onto block-size shapes, reverse-lex order."""
    acc: dict[tuple[int, ...], int] = {}
    for blocks, c in terms:
        shape = tuple(sorted((len(b) for b in blocks), reverse=True))
        acc[shape] = acc.get(shape, 0) + c
    return sorted(((s, c) for s, c in acc.items() if c), reverse=True)


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def tree_chromatic(n) -> list[int]:
    """x (x-1)^(n-1), the chromatic polynomial of every tree on n vertices."""
    return [0] + [comb(n - 1, k) * (-1) ** (n - 1 - k) for k in range(n)]


def connected_graph_counts(upto) -> list[int]:
    """Connected labelled graphs on 1..n vertices (index n), by the
    standard inclusion-exclusion on the component of vertex 1."""
    c = [0] * (upto + 1)
    for n in range(1, upto + 1):
        c[n] = 2 ** comb(n, 2) - sum(
            comb(n - 1, k - 1) * c[k] * 2 ** comb(n - k, 2) for k in range(1, n))
    return c


def bell(n) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def spanning_tree_count(n, edges) -> int:
    """Kirchhoff: the determinant of the Laplacian with vertex n removed."""
    if n == 1:
        return 1
    lap = [[Fraction(0)] * (n - 1) for _ in range(n - 1)]
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            if a < n:
                lap[a - 1][a - 1] += 1
                if b < n:
                    lap[a - 1][b - 1] -= 1
    det = Fraction(1)
    size = n - 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if lap[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            lap[col], lap[pivot] = lap[pivot], lap[col]
            det = -det
        det *= lap[col][col]
        for r in range(col + 1, size):
            f = lap[r][col] / lap[col][col]
            if f:
                for k in range(col, size):
                    lap[r][k] -= f * lap[col][k]
    _require(det.denominator == 1, "Kirchhoff determinant is not an integer")
    return int(det)


# --- skeletons ---------------------------------------------------------------


def skeleton_parents(n, edges) -> dict[int, int]:
    """Parent map of the collapse of every component of (n, edges).

    Elimination tree for the reversed vertex order: add vertices from n down
    to 1 with union-find; each component of G[> v] adjacent to v hangs its
    minimum under v.  Component minima are the roots.
    """
    higher = [[] for _ in range(n + 1)]
    for u, v in edges:
        higher[u].append(v)
    uf = list(range(n + 1))
    parent = {}

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    # a set's root is its minimum: roots only ever move to the vertex added
    for v in range(n, 0, -1):
        for w in higher[v]:
            r = find(w)
            if r != v:
                parent[r] = v
                uf[r] = v
    return parent


def tree_json(root, parent, members=None):
    keys = sorted(parent if members is None else (v for v in members if v != root))
    return {"root": root, "parent": {str(v): parent[v] for v in keys}}


def skeleton_json(n, edges):
    """Skeleton of a connected graph, as ``incrtree k`` prints it."""
    return tree_json(1, skeleton_parents(n, edges))


def forest_json(n, edges):
    """Skeletons of the components, ordered by minimum vertex."""
    parent = skeleton_parents(n, edges)
    comp = {}
    for v in range(1, n + 1):
        r = v
        while r in parent:
            r = parent[r]
        comp.setdefault(r, []).append(v)
    return [tree_json(r, parent, comp[r]) for r in sorted(comp)]


# --- fibers -----------------------------------------------------------------


def fibers_records(n, edges, list_members, trees_only, tables: SubsetTables):
    """Rebuild ``incrtree fibers`` from the definition.

    Increasing trees in parent-vector order (largest vertex fastest); for
    each supported one, the attachment edges present in G below every
    vertex, the fiber size and optionally the members.  Checked against the
    supported-tree count and eta(1) or the spanning-tree count.
    """
    adj = adjacency(n, edges)
    records = []
    size_sum = 0
    member_count = 0
    seen_members = set()
    below = range(n, 1, -1)
    for picks in itertools.product(*(range(1, v) for v in range(2, n + 1))):
        parent = dict(zip(range(2, n + 1), picks))
        sub = [0] + [1 << (v - 1) for v in range(1, n + 1)]
        for v in below:
            sub[parent[v]] |= sub[v]
        # attachment edges present in G below v: parent(v) to v's subtree
        avail = {v: adj[parent[v] - 1] & sub[v] for v in range(2, n + 1)}
        choices = {v: mask.bit_count() for v, mask in avail.items()}
        if not all(choices.values()):
            continue
        size = 1
        for k in choices.values():
            size *= k if trees_only else (1 << k) - 1
        size_sum += size
        record = {
            "tree": tree_json(1, parent),
            "fiber_size": str(size),
            "edge_choices": {str(v): k for v, k in choices.items()},
        }
        if list_members:
            members = []
            edge_lists = [sorted((min(parent[v], w), max(parent[v], w))
                                 for w in _vertices(avail[v])) for v in avail]
            pools = [[tuple(es[i] for i in range(len(es)) if mask >> i & 1)
                      for mask in range(1, 1 << len(es))] for es in edge_lists]
            for combo in itertools.product(*pools):
                chosen = sorted(itertools.chain.from_iterable(combo))
                if trees_only and len(chosen) != n - 1:
                    continue
                _require(skeleton_parents(n, chosen) == parent,
                         "fiber member does not collapse to its tree")
                seen_members.add(tuple(chosen))
                members.append([list(e) for e in chosen])
            member_count += len(members)
            record["members"] = members
        records.append(record)
    _require(len(records) == tables.supported_tree_count(),
             "fiber records differ from the supported-tree count")
    want = spanning_tree_count(n, edges) if trees_only else sum(tables.eta())
    _require(size_sum == want, "fiber sizes do not add up")
    if list_members:
        _require(member_count == want == len(seen_members),
                 "fiber members are missing or repeated")
    return records


# --- broken circuits -----------------------------------------------------------


def _forest_path(n, chosen, a, b):
    """Edges on the path from a to b in a forest, or None."""
    nbrs = {v: [] for v in range(1, n + 1)}
    for u, v in chosen:
        nbrs[u].append(v)
        nbrs[v].append(u)
    prev = {a: None}
    stack = [a]
    while stack:
        x = stack.pop()
        for y in nbrs[x]:
            if y not in prev:
                prev[y] = x
                stack.append(y)
    if b not in prev:
        return None
    out = []
    while prev[b] is not None:
        p = prev[b]
        out.append((min(p, b), max(p, b)))
        b = p
    return out


def _is_forest(n, chosen):
    uf = list(range(n + 1))

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    for u, v in chosen:
        a, b = find(u), find(v)
        if a == b:
            return False
        uf[a] = b
    return True


def _breaks(n, edges, chosen):
    """Outside edges that are the smallest edge of the circuit they close."""
    inside = set(chosen)
    out = []
    for e in edges:
        if e in inside:
            continue
        path = _forest_path(n, chosen, *e)
        if path is not None and all(e < f for f in path):
            out.append(e)
    return out


def bcf_records(n, edges, q, breaks_all, chromatic, tree_total):
    """Rebuild ``incrtree bcf`` from the definition of broken circuits.

    BCF forests with q components, or every spanning tree with its breaks,
    in lexicographic order of sorted edge lists.  Counts are checked
    against |[x^q] chi| and Kirchhoff's spanning-tree count.
    """
    records = []
    size = n - 1 if breaks_all else n - q
    bcf_trees = 0
    for chosen in itertools.combinations(edges, size):
        if not _is_forest(n, chosen):
            continue
        brk = _breaks(n, edges, chosen)
        if breaks_all:
            bcf_trees += not brk
            records.append({
                "edges": [list(e) for e in chosen],
                "breaks": [list(e) for e in brk],
                "skeleton": skeleton_json(n, chosen),
            })
        elif not brk:
            records.append({
                "edges": [list(e) for e in chosen],
                "skeleton": (skeleton_json(n, chosen) if q == 1
                             else forest_json(n, chosen)),
            })
    coeff = [abs(c) for c in chromatic] + [0] * (n + 1 - len(chromatic))
    if breaks_all:
        _require(len(records) == tree_total, "spanning subtree count mismatch")
        _require(bcf_trees == coeff[1], "break-free trees differ from |[x] chi|")
    else:
        _require(len(records) == coeff[q], f"BCF forest count differs from |[x^{q}] chi|")
    return records


# --- self-test against a third-party oracle ---------------------------------------


def _selftest(trials=30, seed=7):  # pragma: no cover - manual check
    import random

    import networkx as nx
    import sympy

    rng = random.Random(seed)
    x = sympy.Symbol("x")
    for _ in range(trials):
        n = rng.randint(1, 6)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = sorted(p for p in pairs if rng.random() < 0.6)
        g = nx.Graph()
        g.add_nodes_from(range(1, n + 1))
        g.add_edges_from(edges)
        t = SubsetTables(n, edges)
        chi = sympy.Poly(nx.chromatic_polynomial(g), x).all_coeffs()[::-1]
        assert _strip(int(c) for c in chi) == t.chromatic(), edges
        trees = sum(1 for c in itertools.combinations(edges, n - 1) if _is_forest(n, c))
        assert spanning_tree_count(n, edges) == trees, edges
        if nx.is_connected(g):
            xs, ys = sympy.symbols("x y")
            tutte = sympy.Poly(nx.tutte_polynomial(g), xs, ys)
            tv = sympy.Symbol("t")
            eta = sympy.expand(tv ** (n - 1) * tutte.as_expr().subs({xs: 1, ys: 1 + tv}))
            want = sympy.Poly(eta, tv).all_coeffs()[::-1] if eta != 0 else []
            assert _strip(int(c) for c in want) == t.eta(), edges
    print(f"refs self-test passed on {trials} random graphs")


if __name__ == "__main__":
    _selftest()
