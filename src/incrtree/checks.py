"""Self-check property suite: every identity this package rests on, run
against brute force over small connected graphs.

Sizes up to five are swept exhaustively; size six is covered by a seeded
random sample, since the full sweep there is out of desk range.  Each
property carries the largest size it is checked at, matching the range at
which confronting the identity with its brute-force side stays feasible.
"""

from __future__ import annotations

import itertools
import random
from math import factorial

from .brokencircuits import (bcf_subforests, breaks_by_circuits,
                             breaks_by_skeleton, is_broken_circuit_free,
                             min_attachment_tree, spanning_subtrees)
from .graphs import (BoundExceededError, check_limit, connected_graphs,
                     format_graph, random_connected_graph)
from .invariants import (IntPoly, chromatic_poly_by_independent_sets,
                         chromatic_poly_by_subsets, chromatic_poly_from_forests,
                         collapse_by_shape, connected_subgraph_poly,
                         connected_subgraph_poly_from_trees, csf_x_from_forests,
                         csf_y_by_subsets, csf_y_from_forests,
                         supported_forest_counts)
from .skeleton import (attachments_cover, enumerate_fiber, fiber_edge_sets,
                       fiber_members, fiber_size, skeleton, splits_match)
from .trees import (_attachment_ranks, _rooted_tree, _supported_forests, increasing_trees,
                    count_supported_trees, supported_increasing_forests, supported_tree_sums)

SELFCHECK_LIMIT = 6
DEFAULT_SEED = 1729
SAMPLE_SIZE = 100


class CheckFailure(Exception):
    """A self-check property failed on a specific graph."""


def _fail(msg):
    raise CheckFailure(msg)


# --- per-graph properties -----------------------------------------------------

def check_skeleton_shape(g):
    t = skeleton(g)
    if not t.is_increasing():
        _fail("skeleton is not increasing")
    if not t.is_supported_by(g):
        _fail("skeleton is not supported")
    if not splits_match(g, t):
        _fail("skeleton fails the recursive-split check")
    if not attachments_cover(g, t):
        _fail("skeleton attachments do not cover the graph")


def check_three_way(g):
    t0 = skeleton(g)
    for t in increasing_trees(g.vertices):
        want = t == t0
        if splits_match(g, t) != want:
            _fail(f"split check disagrees with skeleton on {t!r}")
        if attachments_cover(g, t) != want:
            _fail(f"cover check disagrees with skeleton on {t!r}")
        if want and not t.is_supported_by(g):
            _fail(f"unsupported tree claimed as skeleton: {t!r}")


def check_fiber_partition(g):
    brute = {}
    for subset in _edge_subsets(g):
        q = g.spanning(subset)
        if q.is_connected():
            brute.setdefault(skeleton(q), set()).add(q)
    total = 0
    for t in increasing_trees(g.vertices):
        members = set(enumerate_fiber(g, t))
        size = fiber_size(g, t)
        if len(members) != size:
            _fail(f"fiber stream length mismatch at {t!r}")
        if members != brute.get(t, set()):
            _fail(f"fiber mismatch at {t!r}")
        trees = {q for q in members if len(q.edges) == len(g.vertices) - 1}
        if trees != set(map(g.spanning, fiber_members(g, t, True))):
            _fail(f"fiber tree stream mismatch at {t!r}")
        total += size
    if total != sum(len(v) for v in brute.values()):
        _fail("fiber sizes do not add up to the connected subgraph count")


def check_eta_routes(g):
    brute = connected_subgraph_poly(g)
    if brute != connected_subgraph_poly_from_trees(g):
        _fail("connected-subgraph polynomial routes disagree")
    n = len(g.vertices)
    sign = 1 if (n - 1) % 2 == 0 else -1
    if brute(-1) != sign * count_supported_trees(g):
        _fail("evaluation at -1 does not count supported trees")


def check_eta_definition(g):
    """The tree route equals its defining per-tree sum: over the supported
    increasing trees, the product of (1+t)^c - 1 over the non-root vertices,
    c counting the attachment edges present in g."""
    one = IntPoly.one()
    one_plus_t = IntPoly((1, 1))
    total = IntPoly.zero()
    for tree in increasing_trees(g.vertices):
        if tree.is_supported_by(g):
            term = one
            for es in fiber_edge_sets(g, tree).values():
                term = term * (one_plus_t ** len(es) - one)
            total = total + term
    if total != connected_subgraph_poly_from_trees(g):
        _fail("tree route differs from the per-tree sum over supported trees")


def check_chromatic_routes(g):
    oracle = chromatic_poly_by_subsets(g)
    if oracle != chromatic_poly_by_independent_sets(g):
        _fail("chromatic oracles disagree")
    if oracle != chromatic_poly_from_forests(g):
        _fail("forest route disagrees with the chromatic oracles")


def check_csf_oracle(g):
    if csf_y_from_forests(g) != csf_y_by_subsets(g):
        _fail("refined power-sum routes disagree")


def check_csf_structure(g):
    y = csf_y_from_forests(g)
    if csf_x_from_forests(g) != collapse_by_shape(y):
        _fail("shape collapse mismatch")
    specialized = IntPoly.zero()
    for part, coeff in y.items():
        specialized = specialized + IntPoly.x_power(len(part), coeff)
    if specialized != chromatic_poly_from_forests(g):
        _fail("specializing block counts does not give the chromatic polynomial")


def check_break_routes(g):
    for t in spanning_subtrees(g):
        for v, es in fiber_edge_sets(t, skeleton(t)).items():
            if len(es) != 1:
                _fail(f"attachment set of {v} keeps != 1 tree edge")
        if breaks_by_skeleton(t, g) != breaks_by_circuits(t, g):
            _fail(f"break routes disagree on tree {sorted(t.edges)}")


def check_bcf_bijection(g):
    supported = [t for t in increasing_trees(g.vertices) if t.is_supported_by(g)]
    images = [min_attachment_tree(t, g) for t in supported]
    if len(set(images)) != len(images):
        _fail("minimum-attachment map is not injective")
    bcf = set(_bcf_by_subsets(g, q=1))
    if set(images) != bcf:
        _fail("image set differs from the BCF subtrees")
    for t, im in zip(supported, images):
        if skeleton(im) != t:
            _fail("collapsing the image does not return the tree")
    for h in bcf:
        if min_attachment_tree(skeleton(h), g) != h:
            _fail("round trip through the skeleton moves a BCF subtree")
    chi = chromatic_poly_by_independent_sets(g)
    if len(bcf) != abs(chi.coefficient(1)):
        _fail("BCF subtree count differs from the linear chromatic coefficient")


def check_bcf_counts(g):
    chi = chromatic_poly_by_independent_sets(g)
    forest_counts = supported_forest_counts(g)
    oracle = list(_bcf_by_subsets(g))
    if list(bcf_subforests(g)) != oracle:
        _fail("BCF stream differs from the edge-subset walk")
    per_q = {}
    for h in oracle:
        if len(h.edges) != len(h.vertices) - len(h.components()):
            _fail("a BCF subgraph contains a circuit")
        q = len(h.components())
        per_q[q] = per_q.get(q, 0) + 1
    for q in range(1, len(g.vertices) + 1):
        count = per_q.get(q, 0)
        if count != abs(chi.coefficient(q)):
            _fail(f"BCF forest count at q={q} differs from the chromatic coefficient")
        if count != forest_counts.get(q, 0):
            _fail(f"BCF forest count at q={q} differs from the increasing-forest count")


def check_tree_stream(g):
    """The trees streamed off the count table are the supported increasing
    trees in increasing_trees order, each vertex with its attachment count,
    smallest attachment edge and attachment ranks in g; root fields are zero."""
    want = [t for t in increasing_trees(g.vertices) if t.is_supported_by(g)]
    vs, edges, ranks = sorted(g.vertices), g.sorted_edges(), _attachment_ranks(g)
    got = []
    for (block,), *columns in _supported_forests(g, supported_tree_sums(g, lambda c: 1), 1):
        if any(column[0] for column in columns):
            _fail("tree stream sets a field of the root")
        got.append((_rooted_tree(vs, block, columns[0]), columns[0],
                    [(c, vs[e]) for c, e in zip(*columns[1:])][1:]))
    if [tree for tree, *_ in got] != want:
        _fail("tree stream differs from filtering increasing_trees")
    for t, parents, fields in got:  # each set joins v's parent to v's subtree
        sets = [[edges.index(e) for e in sorted(es)] for es in fiber_edge_sets(g, t).values()]
        if fields != [(len(rs), edges[rs[0]][1]) for rs in sets] or ranks(parents) != sets:
            _fail(f"tree stream attachment sets differ at {t!r}")


def check_forest_enumeration(g):
    whole = list(supported_increasing_forests(g))
    if len(set(whole)) != len(whole):
        _fail("duplicate forests in the stream")
    by_q = [f for q in range(1, len(g.vertices) + 1)
            for f in supported_increasing_forests(g, q=q)]
    if set(whole) != set(by_q) or len(whole) != len(by_q):
        _fail("component-count filter loses or invents forests")
    for f in whole:
        if not f.is_increasing():
            _fail("non-increasing forest emitted")
        if not f.is_supported_by(g):
            _fail("unsupported forest emitted")


PER_GRAPH_CHECKS = [
    ("skeleton-shape", SELFCHECK_LIMIT, check_skeleton_shape),
    ("three-way-characterization", 5, check_three_way),
    ("fiber-partition", 5, check_fiber_partition),
    ("eta-routes", SELFCHECK_LIMIT, check_eta_routes),
    ("eta-definition", SELFCHECK_LIMIT, check_eta_definition),
    ("chromatic-routes", SELFCHECK_LIMIT, check_chromatic_routes),
    ("csf-oracle", 5, check_csf_oracle),
    ("csf-structure", SELFCHECK_LIMIT, check_csf_structure),
    ("break-routes", 5, check_break_routes),
    ("bcf-bijection", 5, check_bcf_bijection),
    ("bcf-counts", 5, check_bcf_counts),
    ("tree-stream", SELFCHECK_LIMIT, check_tree_stream),
    ("forest-enumeration", 5, check_forest_enumeration),
]


# --- per-size properties ----------------------------------------------------------

def check_tree_count(n):
    count = sum(1 for _ in increasing_trees(range(1, n + 1)))
    if count != factorial(n - 1):
        raise CheckFailure(f"increasing-tree count at n={n} is {count}")


def check_nonsubgraph_witness(n):
    # only meaningful on exhaustive sweeps
    if not 3 <= n <= 5:
        return
    for g in connected_graphs(n):
        if not skeleton(g).edges <= g.edges:
            return
    raise CheckFailure(f"no connected graph at n={n} has a non-subgraph skeleton")


PER_SIZE_CHECKS = [
    ("tree-count-factorial", check_tree_count),
    ("non-subgraph-witness", check_nonsubgraph_witness),
]


def _edge_subsets(g):
    """Every edge subset of g, lexicographic on sorted edge lists."""
    check_limit(len(g.vertices))

    def extend(head, rest):
        yield head
        for i, e in enumerate(rest):
            yield from extend(head + (e,), rest[i + 1:])

    return extend((), g.sorted_edges())


def _bcf_by_subsets(g, q=None):
    """Oracle for bcf_subforests: walk the edge subsets, lexicographic on
    sorted edge lists, and keep the broken circuit free ones.  A BCF
    subgraph is a forest, so it has q components exactly when it has n - q
    edges; combinations() walks just those, in the same order."""
    n = len(g.vertices)
    check_limit(n)
    es = g.sorted_edges()
    if q is None:
        subsets = _edge_subsets(g)
    else:  # no forest has more components than vertices
        subsets = itertools.combinations(es, n - q) if q <= n else ()
    for subset in subsets:
        h = g.spanning(subset)
        if is_broken_circuit_free(h, g):
            yield h


def graphs_to_check(n: int, seed: int):
    """Exhaustive below six vertices, a seeded random sample at six."""
    if n <= 5:
        yield from connected_graphs(n)
    else:
        rng = random.Random(seed + n)
        for _ in range(SAMPLE_SIZE):
            yield random_connected_graph(n, rng)


def run_selfcheck(max_n: int, seed: int = DEFAULT_SEED, report=print) -> bool:
    """Run every property on every checked graph up to max_n vertices.

    Reports one line per size plus a final summary.  On the first failure,
    reports the property and the failing graph in the text input format,
    then returns False.
    """
    if not 1 <= max_n <= SELFCHECK_LIMIT:
        raise BoundExceededError("max-n must be at least 1" if max_n < 1 else
            f"selfcheck supports at most {SELFCHECK_LIMIT} vertices (requested {max_n})")
    total_graphs = 0
    total_checks = 0
    for n in range(1, max_n + 1):
        for name, fn in PER_SIZE_CHECKS:
            try:
                fn(n)
            except CheckFailure as exc:
                report(f"FAIL {name} at n={n}: {exc}")
                return False
            total_checks += 1
        graphs = 0
        for g in graphs_to_check(n, seed):
            graphs += 1
            for name, limit, fn in PER_GRAPH_CHECKS:
                if n > limit:
                    continue
                try:
                    fn(g)
                except CheckFailure as exc:
                    report(f"FAIL {name}: {exc}")
                    report("counterexample graph:")
                    report(format_graph(g).rstrip("\n"))
                    return False
                total_checks += 1
        total_graphs += graphs
        mode = "exhaustive" if n <= 5 else f"sampled, seed {seed}"
        report(f"n={n}: {graphs} connected graphs checked ({mode})")
    report(f"selfcheck passed: {total_graphs} graphs, {total_checks} property checks")
    return True
