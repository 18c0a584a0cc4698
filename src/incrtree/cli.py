"""Command line interface.

Subcommands: ``k`` collapses a connected graph to its skeleton tree,
``invariants`` computes the polynomial and power-sum invariants by either
route, ``fibers`` lists the per-tree fiber data, ``bcf`` lists broken
circuit free subtrees with their collapsed trees, and ``selfcheck`` runs
the identity suite over small graphs.

Exit codes: 0 success, 1 self-check failure, 2 parse error, 3 connectivity
precondition, 4 size bound exceeded.  All JSON output is compact and byte
deterministic for a fixed input and flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .brokencircuits import (bcf_subforests, breaks_by_circuits,
                             spanning_subtrees)
from .checks import DEFAULT_SEED, SELFCHECK_LIMIT, run_selfcheck
from .graphs import (BoundExceededError, Graph, GraphFormatError,
                     NotConnectedError, parse_graph)
from .invariants import (chromatic_poly_by_subsets,
                         chromatic_poly_from_forests, connected_subgraph_poly,
                         connected_subgraph_poly_from_trees, csf_x_by_subsets,
                         csf_x_from_forests, csf_y_by_subsets,
                         csf_y_from_forests)
from .skeleton import enumerate_fiber, skeleton, skeleton_forest
from .trees import RootedTree, _supported_forests

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_BOUND = 4


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _emit_json(obj):
    print(json.dumps(obj, separators=(",", ":")))


def _load_graph(path) -> Graph:
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    try:
        return parse_graph(data.decode("utf-8"))
    except (UnicodeDecodeError, GraphFormatError) as exc:
        raise CliError(EXIT_PARSE, f"parse error: {exc}")


def _require_connected(g: Graph):
    blocks = g.components().blocks
    if len(blocks) > 1:
        # ten components of at most ten vertices each keep the message short
        shown = [" ".join(map(str, b[:10])) + (" ..." if len(b) > 10 else "")
                 for b in blocks[:10]] + (["..."] if len(blocks) > 10 else [])
        raise CliError(
            EXIT_DISCONNECTED,
            f"graph is not connected ({len(blocks)} components: {' | '.join(shown)})",
        )


def _edges_list(edges):
    return [[u, v] for u, v in sorted(edges)]


# --- k ------------------------------------------------------------------------

def cmd_k(args) -> int:
    g = _load_graph(args.graphfile)
    _require_connected(g)
    tree = skeleton(g)
    if args.table:
        for v in sorted(tree.parent):
            print(f"{tree.parent[v]} -> {v}")
        if not tree.parent:
            print(f"single vertex {tree.root}")
    else:
        _emit_json(tree.to_json_obj())
    return EXIT_OK


# --- invariants ------------------------------------------------------------------

def _poly_routes(which, g):
    if which == "eta":
        _require_connected(g)
        return (lambda: connected_subgraph_poly_from_trees(g).to_list(),
                lambda: connected_subgraph_poly(g).to_list())
    # chromatic: the subset expansion is the oracle route; deletion and
    # contraction stays available for cross-checks in the library and tests
    return (lambda: chromatic_poly_from_forests(g).to_list(),
            lambda: chromatic_poly_by_subsets(g).to_list())


def _csf_x_json(terms):
    return [{"lambda": list(shape), "coeff": str(terms[shape])}
            for shape in sorted(terms, reverse=True)]


def _csf_y_json(terms):
    return [{"blocks": [list(b) for b in part.blocks], "coeff": str(terms[part])}
            for part in sorted(terms)]


def _csf_routes(which, g):
    if which == "csf-x":
        return (lambda: _csf_x_json(csf_x_from_forests(g)),
                lambda: _csf_x_json(csf_x_by_subsets(g)))
    return (lambda: _csf_y_json(csf_y_from_forests(g)),
            lambda: _csf_y_json(csf_y_by_subsets(g)))


def cmd_invariants(args) -> int:
    g = _load_graph(args.graphfile)
    polyish = args.which in ("eta", "chromatic")
    trees_route, oracle_route = (_poly_routes if polyish else _csf_routes)(args.which, g)
    out = {"which": args.which, "method": args.method}
    key = "coefficients" if polyish else "terms"
    try:
        if args.method == "trees":
            out[key] = trees_route()
        elif args.method == "oracle":
            out[key] = oracle_route()
        else:
            a, b = trees_route(), oracle_route()
            out["agree"] = a == b
            if a == b:
                out[key] = a
            else:
                out["trees"] = a
                out["oracle"] = b
    except BoundExceededError as exc:
        raise CliError(EXIT_BOUND, str(exc))
    if args.table:
        print(f"{args.which} ({args.method})")
        if key in out:
            print(out[key])
        else:
            print("trees :", out["trees"])
            print("oracle:", out["oracle"])
        if "agree" in out:
            print("agree:", out["agree"])
    else:
        _emit_json(out)
    return EXIT_OK


# --- fibers ---------------------------------------------------------------------------

def cmd_fibers(args) -> int:
    g = _load_graph(args.graphfile)
    _require_connected(g)
    n = len(g.vertices)
    # the keys of every record: the non-root vertices, ascending
    keys = [str(v) for v in sorted(g.vertices)[1:]]
    # one edge per vertex gives the trees; any nonempty subset, all members
    factor = [c if args.trees_only else (1 << c) - 1 for c in range(n)]
    records = []
    for ((root, vertices, parents, counts, _),) in _supported_forests(g, 1):
        record = {
            "tree": {"root": root, "parent": dict(zip(keys, parents))},
            "fiber_size": str(math.prod(map(factor.__getitem__, counts))),
            "edge_choices": dict(zip(keys, counts)),
        }
        if args.list:
            members = enumerate_fiber(g, RootedTree(root, zip(vertices, parents)))
            record["members"] = [
                _edges_list(q.edges) for q in members
                if not args.trees_only or len(q.edges) == n - 1
            ]
        records.append(record)
    if args.table:
        for r in records:
            print(f"tree {r['tree']}  fiber_size {r['fiber_size']}")
    else:
        _emit_json(records)
    return EXIT_OK


# --- bcf -------------------------------------------------------------------------------

def cmd_bcf(args) -> int:
    g = _load_graph(args.graphfile)
    _require_connected(g)
    records = []
    if args.breaks_all:
        for t in spanning_subtrees(g):
            records.append({
                "edges": _edges_list(t.edges),
                "breaks": _edges_list(breaks_by_circuits(t, g)),
                "skeleton": skeleton(t).to_json_obj(),
            })
    else:
        for h in bcf_subforests(g, q=args.q):
            forest = skeleton_forest(h)
            records.append({
                "edges": _edges_list(h.edges),
                "skeleton": (forest.components[0] if args.q == 1 else forest).to_json_obj(),
            })
    if args.table:
        for r in records:
            line = f"edges {r['edges']}"
            if "breaks" in r:
                line += f"  breaks {r['breaks']}"
            print(line)
    else:
        _emit_json(records)
    return EXIT_OK


# --- selfcheck ----------------------------------------------------------------------------

def cmd_selfcheck(args) -> int:
    if args.max_n > SELFCHECK_LIMIT:
        print(
            f"selfcheck supports at most {SELFCHECK_LIMIT} vertices "
            f"(requested {args.max_n})",
            file=sys.stderr,
        )
        return EXIT_BOUND
    if args.max_n < 1:
        print("max-n must be at least 1", file=sys.stderr)
        return EXIT_BOUND
    ok = run_selfcheck(args.max_n, seed=args.seed)
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
    p_bcf.add_argument("--q", type=int, default=1,
                       help="list BCF subforests with q components (default 1)")
    p_bcf.add_argument("--breaks-all", action="store_true",
                       help="list every spanning subtree with its breaks")
    _add_output_flags(p_bcf)
    p_bcf.set_defaults(fn=cmd_bcf)

    p_chk = sub.add_parser("selfcheck", help="run the identity suite")
    p_chk.add_argument("--max-n", type=int, default=4, dest="max_n")
    p_chk.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_chk.set_defaults(fn=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except NotConnectedError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DISCONNECTED
    except BoundExceededError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BOUND


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
