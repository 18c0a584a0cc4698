"""Seeded case corpus of the four workloads, with a reference for every case.

``build(workload, seed, workdir)`` draws the graphs from ``seed``, writes
each graph file into ``workdir`` and returns the cases.  K_n and paths in
natural label order are fixed; every random draw comes from one
``random.Random`` seeded by the workload name and the seed, so the same
seed gives the same files byte for byte.  Random graphs have a fixed edge
count (connected G(n, m) instead of G(n, p)), so a case's cost moves little
from seed to seed.

Every case carries the exit codes it may end with and, for each, the
sha256 of the stdout it must print (or a pattern, or ``None`` when stdout is
not checked), plus the source of that answer.  None of the answers come
from the incrtree library.  ``write_refs`` stores the answers of a corpus;
``build(..., stored=load_refs(path))`` then draws the same corpus and takes
the answers from the file instead of computing them again.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path

import refs

WORKLOADS = ("dense-trees", "edge-scan", "sparse-skeleton", "fiber-streams")
INVARIANTS = ("eta", "chromatic", "csf-x", "csf-y")
FOREST_PREFIX = 7    # the traced run streams supported forests of G[1..7]


@dataclass
class Case:
    id: str
    args: list            # argv after ``python -m incrtree.cli``
    expected: dict        # exit code -> sha256 hex | compiled pattern | None
    source: str           # where the expected answer comes from
    work: dict = field(default_factory=dict)   # machine-independent counts
    graph: tuple | None = None                 # (n, edges) when well formed
    text: bytes | None = None                  # graph file contents

    def accepts(self, code: int, out: bytes, err: bytes) -> bool:
        """Exit code documented for this input, matching stdout, no traceback."""
        if b"Traceback" in err or code not in self.expected:
            return False
        want = self.expected[code]
        if want is None:
            return True
        if isinstance(want, str):
            return hashlib.sha256(out).hexdigest() == want
        return want.fullmatch(out) is not None


def graph_text(n, edges) -> bytes:
    return (f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)).encode()


# --- graph families ------------------------------------------------------------


def complete(n):
    return n, list(itertools.combinations(range(1, n + 1), 2))


def path(n, labels=None):
    labels = labels or list(range(1, n + 1))
    return n, sorted(tuple(sorted(labels[i:i + 2])) for i in range(n - 1))


def shuffled_path(n, rng):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return path(n, labels)


def _connected(n, edges):
    return sum(1 for v in range(1, n + 1)
               if v not in refs.skeleton_parents(n, edges)) == 1


def connected_gnm(n, m, rng):
    """Uniform m-edge graph on 1..n, redrawn until connected."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    while True:
        edges = sorted(rng.sample(pairs, m))
        if _connected(n, edges):
            return n, edges


def recursive_tree(n, rng):
    """Random recursive tree: vertex v joins a uniform earlier vertex."""
    return n, sorted((rng.randrange(1, v), v) for v in range(2, n + 1))


def sparse_connected(n, rng):
    """Random recursive tree on shuffled labels plus n/2 uniform extra
    edges: a connected graph of average degree about 3."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    edges = {tuple(sorted((labels[rng.randrange(v)], labels[v]))) for v in range(1, n)}
    while len(edges) < n - 1 + n // 2:
        edges.add(tuple(sorted(rng.sample(labels, 2))))
    return n, sorted(edges)


# --- references ---------------------------------------------------------------


def _digest(obj) -> str:
    return hashlib.sha256(refs.dumps(obj)).hexdigest()


class _Refs:
    """Reference outputs of one corpus, sharing per-graph tables.

    With ``stored`` (case id -> (expected, work), from ``load_refs``) a case's
    answer is looked up instead of computed.
    """

    def __init__(self, stored=None):
        self._tables = {}
        self.stored = stored

    def tables(self, g):
        key = (g[0], tuple(g[1]))
        if key not in self._tables:
            self._tables[key] = refs.SubsetTables(*g)
        return self._tables[key]

    def invariant(self, which, method, g):
        t = self.tables(g)
        out = {"which": which, "method": method}
        if which == "eta":
            out["coefficients"] = t.eta()
        elif which == "chromatic":
            out["coefficients"] = t.chromatic()
        else:
            terms = t.csf_y()
            if which == "csf-y":
                out["terms"] = [{"blocks": b, "coeff": str(c)} for b, c in terms]
            else:
                out["terms"] = [{"lambda": list(s), "coeff": str(c)}
                                for s, c in refs.csf_x_from_terms(terms)]
        key = "coefficients" if which in ("eta", "chromatic") else "terms"
        return out, len(out[key])

    def case(self, cid, args, g, source, answer):
        """Case on graph g whose stdout is ``answer() -> (obj, items, work)``."""
        if self.stored is not None:
            expected, work = self.stored[cid]
        else:
            obj, items, work = answer()
            data = refs.dumps(obj)
            work = {"n": g[0], "edges": len(g[1]), **work,
                    "items": items, "stdout_bytes": len(data)}
            expected = {0: hashlib.sha256(data).hexdigest()}
        return Case(cid, args, expected, source, work, g, graph_text(*g))


def floor_case(r: _Refs) -> Case:
    """Trivial ``k`` call on the path 1-2-3: interpreter start plus import."""
    g = path(3)
    return r.case("floor-k-P3", ["k", "{graph}"], g, "union-find elimination tree",
                  lambda: (refs.skeleton_json(*g), 2, {}))


def _dense_trees(rng, r: _Refs):
    # Nine cases, so the median case is one case: chromatic on K9.  The
    # random draws cost either clearly less or clearly more than it.
    g7 = connected_gnm(7, 10, rng)
    g8 = connected_gnm(8, 14, rng)
    g10 = connected_gnm(10, 22, rng)
    plan = [("eta", "K8", complete(8)), ("eta", "G7", g7),
            ("chromatic", "K9", complete(9)), ("chromatic", "G10", g10),
            ("chromatic", "G8", g8),
            ("csf-x", "K9", complete(9)), ("csf-x", "G8", g8),
            ("csf-y", "K9", complete(9)), ("csf-y", "G8", g8)]

    def answer(which, g):
        obj, items = r.invariant(which, "trees", g)
        n, edges = g
        head = min(n, FOREST_PREFIX)
        forests = sum(map(abs, r.tables((head, [e for e in edges if e[1] <= head]))
                               .chromatic()))
        return obj, items, {"trees": factorial(n - 1), "partitions": refs.bell(n),
                            "supported_trees": r.tables(g).supported_tree_count(),
                            "prefix_forests": forests}

    for which, name, g in plan:
        yield r.case(f"{which}-{name}-trees",
                     ["invariants", which, "{graph}", "--method", "trees"], g,
                     "vertex-subset DP (eta, csf) / independent-set partitions "
                     "(chromatic)", lambda which=which, g=g: answer(which, g))


def _edge_scan(rng, r: _Refs):
    # same edge count, so the same 2^|E| scan, on a sparse and a dense
    # graph; a ninth case in between makes the median case one case
    sparse = connected_gnm(10, 16, rng)
    dense = connected_gnm(7, 16, rng)
    middle = connected_gnm(8, 16, rng)
    for name, g, kinds in (("S10", sparse, INVARIANTS), ("D7", dense, INVARIANTS),
                           ("M8", middle, ("chromatic",))):
        for which in kinds:
            yield r.case(f"{which}-{name}-oracle",
                         ["invariants", which, "{graph}", "--method", "oracle"], g,
                         "vertex-subset DP (eta, csf) / independent-set partitions "
                         "(chromatic)",
                         lambda which=which, g=g: (*r.invariant(which, "oracle", g),
                                                   {"subsets": 2 ** len(g[1])}))


def _sparse_skeleton(rng, r: _Refs):
    graphs = [("path-natural", path(n)) for n in (400, 800, 1200)]
    graphs += [("path-shuffled", shuffled_path(n, rng)) for n in (800, 1500)]
    graphs += [("recursive-tree", recursive_tree(n, rng)) for n in (500, 1500)]
    graphs += [("sparse", sparse_connected(n, rng)) for n in (400, 1000)]
    for name, g in graphs:
        yield r.case(f"k-{name}-{g[0]}", ["k", "{graph}"], g, "union-find elimination tree",
                     lambda g=g: (refs.skeleton_json(*g), g[0] - 1, {"vertices": g[0]}))


def robustness_probes():
    """Inputs with a documented exit code (2 parse, 3 disconnected, 4 bound).

    An answer is never a traceback, and a run past the per-case time limit
    is a failure.  Some of these fail at the seed commit on purpose.
    """
    p17 = path(17)
    k17 = complete(17)
    probes = [
        ("probe-disconnected", ["k", "{graph}"], graph_text(4, [(1, 2), (3, 4)]),
         {3: None}),
        ("probe-k17-oracle", ["invariants", "chromatic", "{graph}", "--method", "oracle"],
         graph_text(*k17), {4: None}),
        ("probe-superscript-count", ["k", "{graph}"], "n ²\n".encode(), {2: None}),
        ("probe-not-utf8", ["k", "{graph}"], b"n 3\n1 2\n2 \xff3\n", {2: None}),
        ("probe-arabic-digit", ["k", "{graph}"], "n 2\n1 ٢\n".encode(), {2: None}),
        # no bound guards this route: either the answer or exit 4 in time
        ("probe-p17-chromatic-trees", ["invariants", "chromatic", "{graph}",
                                       "--method", "trees"], graph_text(*p17),
         {0: _digest({"which": "chromatic", "method": "trees",
                      "coefficients": refs.tree_chromatic(17)}), 4: None}),
    ]
    return [Case(cid, args, expected, "documented exit code", text=text)
            for cid, args, text, expected in probes]


def _fiber_streams(rng, r: _Refs):
    a = connected_gnm(8, 13, rng)
    b = connected_gnm(7, 12, rng)
    c = connected_gnm(9, 14, rng)
    k9 = complete(9)

    def fibers(g, flags):
        n, edges = g
        recs = refs.fibers_records(n, edges, "--list" in flags, "--trees-only" in flags,
                                   r.tables(g))
        return recs, len(recs), {"trees": factorial(n - 1),
                                 "connected_subgraphs": sum(r.tables(g).eta())}

    def bcf(g, flags):
        n, edges = g
        q = int(flags[1]) if flags[0] == "--q" else 1
        recs = refs.bcf_records(n, edges, q, flags[0] == "--breaks-all",
                                r.tables(g).chromatic(), refs.spanning_tree_count(n, edges))
        return recs, len(recs), {"subsets": 2 ** len(edges)}

    for name, g, flags in (("K9", k9, ["--trees-only"]), ("A8", a, []),
                           ("A8", a, ["--list"]), ("B7", b, ["--list", "--trees-only"])):
        yield r.case("-".join(["fibers", name] + [f[2:] for f in flags]),
                     ["fibers", "{graph}"] + flags, g,
                     "definition, checked against the vertex-subset DP and Kirchhoff",
                     lambda g=g, flags=flags: fibers(g, flags))
    for name, g, flags in (("A8", a, ["--q", "1"]), ("A8", a, ["--q", "2"]),
                           ("C9", c, ["--q", "1"]), ("B7", b, ["--breaks-all"])):
        yield r.case("-".join(["bcf", name] + [f.lstrip("-") for f in flags]),
                     ["bcf", "{graph}"] + flags, g,
                     "definition, checked against chromatic coefficients and Kirchhoff",
                     lambda g=g, flags=flags: bcf(g, flags))
    counts = refs.connected_graph_counts(4)
    lines = "".join(f"n={n}: {counts[n]} connected graphs checked \\(exhaustive\\)\n"
                    for n in range(1, 5))
    pattern = re.compile(
        f"{lines}selfcheck passed: {sum(counts)} graphs, [0-9]+ property checks\n".encode())
    yield Case("selfcheck-4", ["selfcheck", "--max-n", "4"], {0: pattern},
               "connected labelled graph counts", {"graphs": sum(counts)})


_BUILDERS = {"dense-trees": _dense_trees, "edge-scan": _edge_scan,
             "sparse-skeleton": _sparse_skeleton, "fiber-streams": _fiber_streams}


def build(workload: str, seed: int, workdir: Path, stored=None):
    """Cases, robustness probes and the floor case, graph files written.

    ``stored`` (from ``load_refs``) supplies the answers of the cases drawn
    from the seed; the probes and the selfcheck case carry fixed answers.
    """
    rng = random.Random(f"{workload}/{seed}")
    r = _Refs(stored)
    cases = list(_BUILDERS[workload](rng, r))
    probes = robustness_probes() if workload == "sparse-skeleton" else []
    floor = floor_case(r)
    for case in cases + probes + [floor]:
        if case.text is not None:
            target = workdir / f"{case.id}.txt"
            target.write_bytes(case.text)
            case.args = [str(target) if a == "{graph}" else a for a in case.args]
    return cases, probes, floor


def write_refs(target, workload, seed, cases):
    """Store each case's command, accepted exit codes, stdout sha256 (or
    pattern), source and work counts, with the command that regenerates them."""
    rows = [{"id": c.id, "command": ["python", "-m", "incrtree.cli", *c.args],
             "expected": {str(k): (v if v is None or isinstance(v, str) else v.pattern.decode())
                          for k, v in c.expected.items()},
             "source": c.source, "work": c.work}
            for c in cases]
    Path(target).write_text(json.dumps({
        "workload": workload, "seed": seed,
        "regenerate": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                      f"--dump-refs {target}",
        "cases": rows}, indent=1) + "\n")


def load_refs(path):
    """Case id -> (expected, work) from a file ``write_refs`` wrote."""
    rows = json.loads(Path(path).read_text())["cases"]
    return {row["id"]: ({int(k): v for k, v in row["expected"].items()}, row["work"])
            for row in rows}
