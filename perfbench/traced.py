"""Traced in-process run: per-layer times next to exact work counts.

For every case of the corpus the tracer records one span around
``incrtree.cli.main(argv)`` (stdout captured) and one span around each
public function the subcommand reaches, called directly on the parsed
graph.  Spans (name, start, end, parent, case) stay in memory and are
written once, at the end, to ``.perfbench-out/spans-<workload>-seed<n>.jsonl``.
Layer spans sit under their case span; the case span's self time is the
harness between the calls.  Two public functions call another public
function of their module: ``chromatic_poly_from_forests`` calls
``supported_forest_counts`` and ``csf_x_from_forests`` calls
``csf_y_from_forests``.  The outer one is called directly and the module
attribute of the inner one is wrapped while it runs, so each inner call is
a span under the outer span and each function's self time is its own.

Work counts are either definitions on the input ((n-1)!, 2^|E|) or values
the library returned (items yielded, trees counted, bytes printed); the
latter must repeat exactly from cycle to cycle, over at least two cycles.
One cycle is a traced pass, an untraced in-process pass (its summed
``main`` time, subtracted from the traced one, is the tracing overhead) and
three interpreter start-ups.  A public function the library no longer has
ends the run with an ``AttributeError``.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import signal
import sys
import time
from math import factorial

import corpus
import refs
from harness import OUT_DIR, SRC, child_env, keep_going, spawn, spread

# metric -> (unit, better), in report order
PER_LAYER = {
    "trees.count_supported_trees.s": ("s", "lower"),
    "trees.count_supported_trees.visited": ("count", "lower"),
    "trees.count_supported_trees.yield_ratio": ("ratio", "higher"),
    "trees.increasing_trees.s": ("s", "lower"),
    "trees.increasing_trees.items": ("count", "lower"),
    "trees.supported_increasing_forests.s": ("s", "lower"),
    "trees.supported_increasing_forests.items": ("count", "lower"),
    "graphs.set_partitions_of.s": ("s", "lower"),
    "graphs.set_partitions_of.items": ("count", "lower"),
    "graphs.parse_graph.s": ("s", "lower"),
    "graphs.parse_graph.bytes": ("bytes", "lower"),
    "graphs.components.s": ("s", "lower"),
    "invariants.connected_subgraph_poly_from_trees.s": ("s", "lower"),
    "invariants.supported_forest_counts.s": ("s", "lower"),
    "invariants.chromatic_poly_from_forests.s": ("s", "lower"),
    "invariants.csf_x_from_forests.s": ("s", "lower"),
    "invariants.csf_y_from_forests.s": ("s", "lower"),
    "invariants.connected_subgraph_poly.s": ("s", "lower"),
    "invariants.chromatic_poly_by_subsets.s": ("s", "lower"),
    "invariants.csf_x_by_subsets.s": ("s", "lower"),
    "invariants.csf_y_by_subsets.s": ("s", "lower"),
    "invariants.subsets_scanned": ("count", "lower"),
    "invariants.subsets_per_s": ("1/s", "higher"),
    "skeleton.skeleton.s": ("s", "lower"),
    "skeleton.skeleton.vertices": ("count", "lower"),
    "skeleton.enumerate_fiber.s": ("s", "lower"),
    "skeleton.enumerate_fiber.items": ("count", "lower"),
    "skeleton.fiber_size.s": ("s", "lower"),
    "skeleton.fiber_size.supported_ratio": ("ratio", "higher"),
    "brokencircuits.bcf_subforests.s": ("s", "lower"),
    "brokencircuits.bcf_subforests.subsets_scanned": ("count", "lower"),
    "brokencircuits.bcf_subforests.yield_ratio": ("ratio", "higher"),
    "brokencircuits.spanning_subtrees.s": ("s", "lower"),
    "brokencircuits.breaks_by_circuits.s": ("s", "lower"),
    "brokencircuits.min_attachment_tree.s": ("s", "lower"),
    "checks.run_selfcheck.s": ("s", "lower"),
    "cli.emit.s": ("s", "lower"),
    "cli.emit.bytes": ("bytes", "lower"),
    "cli.startup.s": ("s", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.trace_overhead_s": ("s", "lower"),
}
EXACT_UNITS = ("count", "bytes", "ratio")
ORACLES = {"eta": "connected_subgraph_poly", "chromatic": "chromatic_poly_by_subsets",
           "csf-x": "csf_x_by_subsets", "csf-y": "csf_y_by_subsets"}
MODULES = ("graphs", "trees", "skeleton", "invariants", "brokencircuits", "checks", "cli")
TIME_LIMIT_S = 170       # in-process calls cannot be killed; stay under 180 s
MIN_CYCLES = 2           # so that every count is seen to repeat


def run_main(main, args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue().encode(), err.getvalue().encode()


def _count(items):
    return sum(1 for _ in items)


def _ratio(a, b):
    return a / b if b else 0.0


class Tracer:
    def __init__(self):
        self.spans = []      # [name, case, parent, start, end]

    def open(self, name, case, parent=None):
        self.spans.append([name, case, parent, time.perf_counter(), None])
        return len(self.spans) - 1

    def close(self, idx):
        self.spans[idx][4] = time.perf_counter()

    def call(self, name, case, parent, fn):
        idx = self.open(name, case, parent)
        try:
            return fn()
        finally:
            self.close(idx)

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_, _, _, start, end) in enumerate(self.spans)]


class TracedPass:
    """One traced pass over the corpus, with its work counts."""

    def __init__(self, lib, cases):
        self.lib = lib
        self.cases = cases
        self.tracer = Tracer()
        self.failed = []
        self.counts = dict.fromkeys(
            ("visited", "yielded", "increasing", "forests", "partitions", "parse_bytes",
             "scanned", "skeleton_vertices", "fiber_items", "fiber_trees", "supported",
             "bcf_scanned", "bcf_yielded", "emit_bytes"), 0)

    def layer(self, mod, fn, body, inner=None):
        """Time body(f) for the library's public function f = mod.fn.

        While it runs, each call of mod.inner is a span under it.
        """
        f = getattr(self.lib[mod], fn)
        idx = self.tracer.open(f"{mod}.{fn}", self.case.id, self.root)
        try:
            if inner is None:
                return body(f)
            with self._spans_of(mod, inner, idx):
                return body(f)
        finally:
            self.tracer.close(idx)

    @contextlib.contextmanager
    def _spans_of(self, mod, inner, parent):
        module = self.lib[mod]
        f = getattr(module, inner)

        def traced(*args, **kwargs):
            return self.tracer.call(f"{mod}.{inner}", self.case.id, parent,
                                    lambda: f(*args, **kwargs))

        setattr(module, inner, traced)
        try:
            yield
        finally:
            setattr(module, inner, f)

    def expect(self, got, want, what):
        if got != want:
            self.failed.append(f"{self.case.id}: {what} gave {got!r}, expected {want!r}")

    def run(self):
        emit = self.lib["cli"]._emit_json
        for case in self.cases:
            self.case = case
            self.root = self.tracer.open("case", case.id)
            code, out, err = self.layer("cli", "main", lambda f: run_main(f, case.args))
            if not case.accepts(code, out, err):
                self.failed.append(f"{case.id}: cli.main output")
            if case.graph is None:
                self._selfcheck(case)
            else:
                self.counts["parse_bytes"] += len(case.text)
                g = self.layer("graphs", "parse_graph", lambda f: f(case.text.decode()))
                self.tracer.call("graphs.components", case.id, self.root, g.components)
                getattr(self, "_" + case.args[0])(case, g, *case.graph)
                obj = json.loads(out)
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    self.tracer.call("cli.emit", case.id, self.root, lambda: emit(obj))
                self.counts["emit_bytes"] += len(printed.getvalue().encode())
            self.tracer.close(self.root)
        return self

    def _selfcheck(self, case):
        ok = self.layer("checks", "run_selfcheck",
                        lambda f: f(int(case.args[2]), report=lambda *_: None))
        self.expect(ok, True, "run_selfcheck")

    def _k(self, case, g, n, edges):
        tree = self.layer("skeleton", "skeleton", lambda f: f(g))
        self.counts["skeleton_vertices"] += len(tree.vertices)

    def _invariants(self, case, g, n, edges):
        c = self.counts
        which, method = case.args[1], case.args[4]
        if method == "oracle":
            self.layer("invariants", ORACLES[which], lambda f: f(g))
            c["scanned"] += 2 ** len(edges)
            return
        got = self.layer("trees", "count_supported_trees", lambda f: f(g))
        self.expect(got, case.work["supported_trees"], "count_supported_trees")
        c["visited"] += factorial(n - 1)
        c["yielded"] += got
        if which == "eta":
            k = self.layer("trees", "increasing_trees", lambda f: _count(f(g.vertices)))
            self.expect(k, factorial(n - 1), "increasing_trees")
            c["increasing"] += k
            self.layer("invariants", "connected_subgraph_poly_from_trees", lambda f: f(g))
        elif which == "chromatic":
            self.layer("invariants", "chromatic_poly_from_forests", lambda f: f(g),
                       inner="supported_forest_counts")
            head = g.restrict(range(1, min(n, corpus.FOREST_PREFIX) + 1))
            k = self.layer("trees", "supported_increasing_forests", lambda f: _count(f(head)))
            self.expect(k, case.work["prefix_forests"], "supported_increasing_forests")
            c["forests"] += k
        else:
            k = self.layer("graphs", "set_partitions_of", lambda f: _count(f(g.vertices)))
            self.expect(k, refs.bell(n), "set_partitions_of")
            c["partitions"] += k
            if which == "csf-x":
                self.layer("invariants", "csf_x_from_forests", lambda f: f(g),
                           inner="csf_y_from_forests")
            else:
                self.layer("invariants", "csf_y_from_forests", lambda f: f(g))

    def _trees(self, g, n):
        trees = self.layer("trees", "increasing_trees", lambda f: list(f(g.vertices)))
        self.expect(len(trees), factorial(n - 1), "increasing_trees")
        self.counts["increasing"] += len(trees)
        return trees

    def _fibers(self, case, g, n, edges):
        c = self.counts
        trees = self._trees(g, n)
        sizes = self.layer("skeleton", "fiber_size", lambda f: [f(g, t) for t in trees])
        supported = [t for t, s in zip(trees, sizes) if s]
        self.expect(len(supported), case.work["items"], "fiber_size")
        c["fiber_trees"] += len(trees)
        c["supported"] += len(supported)
        if "--list" in case.args:
            k = self.layer("skeleton", "enumerate_fiber",
                           lambda f: sum(_count(f(g, t)) for t in supported))
            self.expect(k, case.work["connected_subgraphs"], "enumerate_fiber")
            c["fiber_items"] += k

    def _bcf(self, case, g, n, edges):
        c = self.counts
        if "--breaks-all" in case.args:
            ts = self.layer("brokencircuits", "spanning_subtrees", lambda f: list(f(g)))
            self.expect(len(ts), case.work["items"], "spanning_subtrees")
            self.layer("brokencircuits", "breaks_by_circuits",
                       lambda f: [f(t, g) for t in ts])
            trees = self.layer("skeleton", "skeleton", lambda f: [f(t) for t in ts])
            c["skeleton_vertices"] += sum(len(t.vertices) for t in trees)
            return
        q = int(case.args[case.args.index("--q") + 1])
        hs = self.layer("brokencircuits", "bcf_subforests", lambda f: list(f(g, q=q)))
        self.expect(len(hs), case.work["items"], "bcf_subforests")
        c["bcf_scanned"] += 2 ** len(edges)
        c["bcf_yielded"] += len(hs)
        if q == 1:
            # off the CLI route: each BCF tree is the image of one supported tree
            trees = self._trees(g, n)
            images = self.layer("brokencircuits", "min_attachment_tree",
                                lambda f: [f(t, g) for t in trees])
            self.expect(sum(im is not None for im in images), len(hs),
                        "min_attachment_tree")
            skels = self.layer("skeleton", "skeleton", lambda f: [f(h) for h in hs])
            c["skeleton_vertices"] += sum(len(t.vertices) for t in skels)
        else:
            self.tracer.call("graphs.components", case.id, self.root,
                             lambda: [h.components() for h in hs])

    def metrics(self):
        """Per-layer values of this pass."""
        c = self.counts
        times = dict.fromkeys((k[:-2] for k in PER_LAYER if k.endswith(".s")), 0.0)
        for (name, *_), s in zip(self.tracer.spans, self.tracer.self_times()):
            if name in times:
                times[name] += s
        oracle_s = sum(times[f"invariants.{f}"] for f in ORACLES.values())
        m = {f"{k}.s": v for k, v in times.items()}
        m.update({
            "trees.count_supported_trees.visited": c["visited"],
            "trees.count_supported_trees.yield_ratio": _ratio(c["yielded"], c["visited"]),
            "trees.increasing_trees.items": c["increasing"],
            "trees.supported_increasing_forests.items": c["forests"],
            "graphs.set_partitions_of.items": c["partitions"],
            "graphs.parse_graph.bytes": c["parse_bytes"],
            "invariants.subsets_scanned": c["scanned"],
            "invariants.subsets_per_s": _ratio(c["scanned"], oracle_s),
            "skeleton.skeleton.vertices": c["skeleton_vertices"],
            "skeleton.enumerate_fiber.items": c["fiber_items"],
            "skeleton.fiber_size.supported_ratio": _ratio(c["supported"], c["fiber_trees"]),
            "brokencircuits.bcf_subforests.subsets_scanned": c["bcf_scanned"],
            "brokencircuits.bcf_subforests.yield_ratio": _ratio(c["bcf_yielded"],
                                                                c["bcf_scanned"]),
            "cli.emit.bytes": c["emit_bytes"],
        })
        return m

    def harness_s(self):
        return sum(s for (name, *_), s in zip(self.tracer.spans, self.tracer.self_times())
                   if name == "case")


def untraced_main_s(lib, cases):
    """Summed ``main`` time of an in-process pass with no spans."""
    total = 0.0
    failed = []
    for case in cases:
        start = time.perf_counter()
        code, out, err = run_main(lib["cli"].main, case.args)
        total += time.perf_counter() - start
        if not case.accepts(code, out, err):
            failed.append(f"{case.id}: untraced cli.main output")
    return total, failed


def _on_alarm(signum, frame):
    raise TimeoutError(f"traced run exceeded {TIME_LIMIT_S} s")


def traced_run(workload, seed, seconds, workdir):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIME_LIMIT_S)
    try:
        return _traced_run(workload, seed, seconds, workdir)
    finally:
        signal.alarm(0)


def _traced_run(workload, seed, seconds, workdir):
    sys.path.insert(0, str(SRC))
    lib = {m: importlib.import_module(f"incrtree.{m}") for m in MODULES}
    env = child_env()
    cases, _, floor = corpus.build(workload, seed, workdir)
    # in-process warm-up, so lazy set-up is not charged to the first case
    failed = [] if floor.accepts(*run_main(lib["cli"].main, floor.args)) else [
        "floor: warm-up output"]
    attempted = 1
    passes, cycles, startup = [], [], []
    begin = time.perf_counter()
    while True:
        gc.collect()
        traced = TracedPass(lib, cases).run()
        gc.collect()
        plain_s, plain_failed = untraced_main_s(lib, cases)
        for _ in range(3):
            res = spawn(["-c", "import incrtree.cli"], env)
            startup.append(res.wall_s)
            failed += [] if res.code == 0 else ["startup: import failed"]
        attempted += 2 * len(cases) + 3
        failed += traced.failed + plain_failed
        m = traced.metrics()
        m["cli.trace_overhead_s"] = m["cli.main.s"] - plain_s
        passes.append(traced)
        cycles.append(m)
        if len(cycles) >= MIN_CYCLES and not keep_going(begin, len(cycles), seconds):
            break

    stats, unstable = {}, []
    for name, (unit, _) in PER_LAYER.items():
        series = startup if name == "cli.startup.s" else [m[name] for m in cycles]
        if unit in EXACT_UNITS and len(set(series)) > 1:
            unstable.append(name)
        stats[name] = spread(series)
    _dump_spans(workload, seed, passes)
    report = {"cycles": len(cycles), "stats": stats, "failed": failed,
              "unstable_counts": unstable,
              "harness_self_s": spread([p.harness_s() for p in passes])}
    result = {"correct": not failed and not unstable, "attempted": attempted,
              "failed": len(failed),
              "metrics": {k: {"value": stats[k]["median"], "unit": PER_LAYER[k][0]}
                          for k in PER_LAYER}}
    return result, report


def _dump_spans(workload, seed, passes):
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for cycle, p in enumerate(passes):
            for i, ((name, case, parent, start, end), self_s) in enumerate(
                    zip(p.tracer.spans, p.tracer.self_times())):
                fh.write(json.dumps({"cycle": cycle, "id": i, "name": name, "case": case,
                                     "parent": parent, "start": start, "end": end,
                                     "self_s": self_s}) + "\n")
