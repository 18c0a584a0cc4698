"""Command line interface.

Subcommands: ``k`` collapses a connected graph to its skeleton tree,
``invariants`` computes the polynomial and power-sum invariants by either
route, ``fibers`` lists the per-tree fiber data, ``bcf`` lists broken
circuit free subtrees with their collapsed trees, and ``selfcheck`` runs
the identity suite over small graphs.

Exit codes: 0 success, 1 self-check failure, 2 unreadable input (a parse
error, a missing file or a closed stdin), 3 connectivity precondition, 4 size
bound exceeded, 5 stdout unwritable (a write error other than a closed pipe),
141 stdout closed, at the start or by its reader.  All JSON output is
compact and byte deterministic for a fixed input and flags.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import os
import sys
from pathlib import Path

from .brokencircuits import _bcf_forests
from .graphs import (BoundExceededError, Graph, GraphFormatError,
                     NotConnectedError, parse_graph)
from .invariants import (_csf_y_subset_terms, _csf_y_terms,
                         chromatic_poly_by_subsets, chromatic_poly_from_forests,
                         connected_subgraph_poly, connected_subgraph_poly_from_trees,
                         csf_x_by_subsets, csf_x_from_forests)
from .skeleton import fiber_edge_sets, fiber_members, skeleton
from .trees import _rooted_tree, _supported_forests, supported_tree_sums

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_BOUND = 4
EXIT_WRITE = 5
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
_REFUSALS = {GraphFormatError: EXIT_PARSE, NotConnectedError: EXIT_DISCONNECTED,
             BoundExceededError: EXIT_BOUND}  # main alone turns a refusal into its code

# fibers --list and bcf --breaks-all refuse with EXIT_BOUND to list more items than this.
# On a 2-core Xeon with Python 3.11, past the count table, bcf --breaks-all lists 90k to
# 140k spanning trees a second on K7 and 51k on the 3x5 grid, fibers --list 370k to 400k
# members a second on K6 and 63k trees (--trees-only) on the grid.  A run at the limit
# ends within about 0.7 s on K7, but takes about 1.7 s on the grid, 0.46 s of it the table.
LISTING_LIMIT = 60_000


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _emit_json(obj):
    print(_json(obj))


def _write_joined(texts, opening: str, separator: str, closing: str):
    """Write opening, then texts with separator between each two, then closing,
    4096 texts to a write: a listing is never held whole, yet few writes."""
    write, texts, sep = sys.stdout.write, iter(texts), ""
    write(opening)
    while chunk := list(itertools.islice(texts, 4096)):
        write(sep + separator.join(chunk))
        sep = separator
    write(closing)


def _load_graph(path) -> Graph:
    if path == "-" and sys.stdin is None:
        raise GraphFormatError("cannot read -: standard input is closed")
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}")
    try:
        return parse_graph(data.decode("utf-8"))
    except (UnicodeDecodeError, GraphFormatError) as exc:
        raise GraphFormatError(f"parse error: {exc}")


def _edges_text(g: Graph) -> list:
    """The JSON text of each edge of g, by its rank in ``g.sorted_edges()``."""
    return ["[%d,%d]" % e for e in g.sorted_edges()]


def _ranked(g: Graph):
    """The function sorting edges of g into their ranks in ``g.sorted_edges()``."""
    rank = {e: r for r, e in enumerate(g.sorted_edges())}
    return lambda edges: sorted(map(rank.__getitem__, edges))


def _forest_text(g: Graph):
    """The function giving the JSON text of a streamed forest of g
    (``_supported_forests``) from its block masks and parent column: a
    rooted tree for one block, else the list of its trees.  It holds n^2
    entry texts, so make it once the count table has bounded n."""
    vs = sorted(g.vertices)
    # a vertex's entry by its parent's position: first in its tree, or later
    first = [[f'"{v}":{u}' for u in vs] for v in vs]
    later = [["," + e for e in es] for es in first]
    templates = {}  # blocks -> text tables and the positions that index them

    def write(blocks, parents):
        # positions run block by block, each root first with its opening text, then 0
        # again with the closing: roots hold parent 0, and 2+ positions gather a tuple
        if blocks not in templates:
            tables, order, opening = [], [], "" if len(blocks) == 1 else "["
            for b in blocks:
                at = [i for i in range(len(vs)) if b >> i & 1]
                tables.append([opening + '{"root":%d,"parent":{' % vs[at[0]]])
                tables += [(later if k else first)[i] for k, i in enumerate(at[1:])]
                order += at
                opening = "}},"
            tables.append(["}}" if len(blocks) == 1 else "}}]"])
            templates[blocks] = tables, operator.itemgetter(*order, 0)
        tables, gather = templates[blocks]
        return "".join(map(list.__getitem__, tables, gather(parents)))
    return write


# --- k ------------------------------------------------------------------------

def cmd_k(args) -> int:
    g = _load_graph(args.graphfile)
    tree = skeleton(g)  # one elimination pass, which also tests connectivity
    if args.table:
        for v in sorted(tree.parent):
            print(f"{tree.parent[v]} -> {v}")
        if not tree.parent:
            print(f"single vertex {tree.root}")
    else:
        _emit_json(tree.to_json_obj())
    return EXIT_OK


# --- invariants ------------------------------------------------------------------

def _poly_json(poly):
    return _json(poly.to_list())


def _csf_x_json(terms):
    return _json([{"lambda": list(shape), "coeff": str(terms[shape])}
                  for shape in sorted(terms, reverse=True)])


def _csf_y_text(value) -> str:
    """JSON text of refined power-sum terms: value is the ``mask_vertices``
    table and the (block masks, coeff) pairs over it, in canonical order."""
    vertices, terms = value
    block_text = ["[" + ",".join(map(str, block)) + "]" for block in vertices]
    return "[" + ",".join(
        '{"blocks":[%s],"coeff":"%d"}' % (",".join(map(block_text.__getitem__, blocks)), c)
        for blocks, c in terms) + "]"


# which -> (trees route, oracle route, JSON text writer of their value).
# chromatic: the subset expansion is the oracle route; the independent-set
# partition oracle stays available for cross-checks in the library and tests
_INVARIANTS = {
    "eta": (connected_subgraph_poly_from_trees, connected_subgraph_poly, _poly_json),
    "chromatic": (chromatic_poly_from_forests, chromatic_poly_by_subsets, _poly_json),
    "csf-x": (csf_x_from_forests, csf_x_by_subsets, _csf_x_json),
    "csf-y": (_csf_y_terms, _csf_y_subset_terms, _csf_y_text),
}


def cmd_invariants(args) -> int:
    g = _load_graph(args.graphfile)
    trees_route, oracle_route, text = _INVARIANTS[args.which]
    key = "coefficients" if args.which in ("eta", "chromatic") else "terms"
    # every value is compared and printed as its JSON text
    if args.method == "both":
        values = {"trees": text(trees_route(g)), "oracle": text(oracle_route(g))}
        agree = values["trees"] == values["oracle"]
        if agree:
            values = {key: values["trees"]}
    else:
        agree = None
        values = {key: text((trees_route if args.method == "trees" else oracle_route)(g))}
    if args.table:  # the Python form of each value, as --table always printed
        print(f"{args.which} ({args.method})")
        if key in values:
            print(json.loads(values[key]))
        else:
            print("trees :", json.loads(values["trees"]))
            print("oracle:", json.loads(values["oracle"]))
        if agree is not None:
            print("agree:", agree)
    else:
        head = f'{{"which":"{args.which}","method":"{args.method}"'
        if agree is not None:
            head += f',"agree":{_json(agree)}'
        print(head + "".join(f',"{k}":{v}' for k, v in values.items()) + "}")
    return EXIT_OK


# --- fibers ---------------------------------------------------------------------------

def _check_listing(what: str, count: int):
    """Refuse, before anything is written, a listing of more than
    LISTING_LIMIT items; what names the command and its items."""
    if count > LISTING_LIMIT:
        raise BoundExceededError(
            f"{what}: {count}, more than the listing limit of {LISTING_LIMIT}")


def cmd_fibers(args) -> int:
    g = _load_graph(args.graphfile)
    g._require_connected()
    vs = sorted(g.vertices)
    n = len(vs)
    # A record is a tree's text, then its fiber size and edge choices, which
    # the count column alone fixes, so each distinct column fills them once.
    tail = ',"fiber_size":"%s","edge_choices":{' + ",".join(f'"{v}":%s' for v in vs[1:]) + "}"
    # one edge per vertex gives the trees; any nonempty subset, all members
    factor = [c if args.trees_only else (1 << c) - 1 for c in range(n)]
    sums = supported_tree_sums(g, factor.__getitem__)  # full entry: what --list prints
    tree_text = _forest_text(g)
    listing = args.list and not args.table  # --table prints no members
    if listing:
        _check_listing("fibers --list members", sums[-1])
        edges_text, ranked = _edges_text(g), _ranked(g)

    def records():
        by_counts = {}  # count column -> fiber size, record text from the size on
        for blocks, parents, counts, _ in _supported_forests(g, sums, 1):
            if counts not in by_counts:
                size = math.prod(map(factor.__getitem__, counts[1:]))
                by_counts[counts] = size, tail % (size, *counts[1:])
            size, rest = by_counts[counts]
            if args.table:
                tree = _rooted_tree(vs, blocks[0], parents)
                yield f"tree {tree.to_json_obj()}  fiber_size {size}"
                continue
            record = '{"tree":' + tree_text(blocks, parents) + rest
            if listing:
                record += ',"members":[' + ",".join(
                    "[" + ",".join(map(edges_text.__getitem__, ranked(m))) + "]" for m in
                    fiber_members(g, _rooted_tree(vs, blocks[0], parents), args.trees_only)) + "]"
            yield record + "}"
    # --table prints its lines as print("\n".join(...)) would
    _write_joined(records(), *(("", "\n", "\n") if args.table else ("[", ",", "]\n")))
    return EXIT_OK


# --- bcf -------------------------------------------------------------------------------

def cmd_bcf(args) -> int:
    g = _load_graph(args.graphfile)
    g._require_connected()
    # a record is (edge ranks, break ranks, blocks, parents), ranks ascending in
    # g.sorted_edges(), None for --q breaks, blocks and parents those of its skeleton
    records = [] if args.breaks_all else (  # a --q listing is in edge order already
        (ranks, None, blocks, parents) for ranks, blocks, parents in _bcf_forests(g, args.q))
    if args.breaks_all:
        sums = supported_tree_sums(g, lambda c: c)  # full entry: tau(G), the trees listed
        _check_listing("bcf --breaks-all spanning trees", sums[-1])
        # a spanning tree takes one edge of each attachment set of its
        # skeleton, and the smaller edges of each set are its breaks
        vs, ranked = sorted(g.vertices), _ranked(g)
        for blocks, parents, _, _ in _supported_forests(g, sums, 1):
            tree = _rooted_tree(vs, blocks[0], parents)
            sets = [ranked(es) for es in fiber_edge_sets(g, tree).values()]
            for picks in itertools.product(*sets):
                breaks = sorted(r for rs, kept in zip(sets, picks) for r in rs if r < kept)
                records.append((tuple(sorted(picks)), tuple(breaks), blocks, parents))
        records.sort()  # the edges tell any two apart
    if args.table:  # Python's text of each edge list, as --table always printed
        edges = g.sorted_edges()
        for ranks, breaks, _, _ in records:
            more = "" if breaks is None else "  breaks %s" % [list(edges[r]) for r in breaks]
            print("edges %s%s" % ([list(edges[r]) for r in ranks], more))
        return EXIT_OK
    text, skeleton_text = _edges_text(g), _forest_text(g)
    _write_joined(('{"edges":[%s]%s,"skeleton":%s}' % (
        ",".join(map(text.__getitem__, ranks)),
        "" if breaks is None else ',"breaks":[%s]' % ",".join(map(text.__getitem__, breaks)),
        skeleton_text(blocks, parents)) for ranks, breaks, blocks, parents in records),
        "[", ",", "]\n")
    return EXIT_OK


# --- selfcheck ----------------------------------------------------------------------------

def cmd_selfcheck(args) -> int:
    # imported here so that no other command loads, or without a bytecode
    # cache compiles, the self-check suite at start
    from .checks import DEFAULT_SEED, run_selfcheck
    ok = run_selfcheck(args.max_n, seed=DEFAULT_SEED if args.seed is None else args.seed)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# --- argument parsing ------------------------------------------------------------------------

def _add_output_flags(sub):
    sub.add_argument("--table", action="store_true",
                     help="plain text output instead of JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incrtree",
        description="increasing skeleton trees of connected graphs "
                    "and the invariants they organize",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_k = sub.add_parser("k", help="collapse the graph to its skeleton tree")
    p_k.add_argument("graphfile")
    _add_output_flags(p_k)
    p_k.set_defaults(fn=cmd_k)

    p_inv = sub.add_parser("invariants", help="compute a graph invariant")
    p_inv.add_argument("which", choices=["eta", "chromatic", "csf-x", "csf-y"])
    p_inv.add_argument("graphfile")
    p_inv.add_argument("--method", choices=["trees", "oracle", "both"],
                       default="both")
    _add_output_flags(p_inv)
    p_inv.set_defaults(fn=cmd_invariants)

    p_fib = sub.add_parser("fibers", help="per-tree fiber sizes and members")
    p_fib.add_argument("graphfile")
    p_fib.add_argument("--list", action="store_true",
                       help="also list the members of each fiber")
    p_fib.add_argument("--trees-only", action="store_true",
                       help="count and list only the spanning-tree members")
    _add_output_flags(p_fib)
    p_fib.set_defaults(fn=cmd_fibers)

    p_bcf = sub.add_parser("bcf", help="broken circuit free subtrees")
    p_bcf.add_argument("graphfile")
    how = p_bcf.add_mutually_exclusive_group()
    # a str default, which type converts, lets an explicit --q 1 conflict too
    how.add_argument("--q", type=int, default="1",
                     help="list BCF subforests with q components (default 1)")
    how.add_argument("--breaks-all", action="store_true",
                     help="list every spanning subtree with its breaks")
    _add_output_flags(p_bcf)
    p_bcf.set_defaults(fn=cmd_bcf)

    p_chk = sub.add_parser("selfcheck", help="run the identity suite")
    p_chk.add_argument("--max-n", type=int, default=4, dest="max_n")
    p_chk.add_argument("--seed", type=int)
    p_chk.set_defaults(fn=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(_REFUSALS) as exc:
        print(str(exc), file=sys.stderr)
        return _REFUSALS[type(exc)]


def entry():
    if sys.stdout is None:  # started with stdout closed: no output can be written
        raise SystemExit(EXIT_PIPE)
    try:
        code = main()
        sys.stdout.flush()  # a write error raises here at the latest, not at exit
    except OSError as exc:  # a closed pipe, or another write error such as a full disk
        # point fd 1 at devnull so the flush at exit stays quiet; a reader that
        # left early, as `| head` does, gets the exit SIGPIPE would give
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE if isinstance(exc, BrokenPipeError) else EXIT_WRITE
        if code == EXIT_WRITE:
            print(f"cannot write to stdout: {exc}", file=sys.stderr)
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
