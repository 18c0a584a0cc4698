#!/usr/bin/env python3
"""incrtree benchmark: seeded CLI workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the CLI runs from ``src`` with
no install step.  ``--trace 0`` times ``python -m incrtree.cli`` subprocesses
in a closed loop (one client, one case at a time, no threads) and prints the
end-to-end metrics.  ``--trace 1`` is a separate in-process pass that times
each module's public functions from outside the library and prints the
per-layer metrics.  Either way every output is checked against a reference
that does not come from the library.  The last stdout line is the JSON
result; the lines before it are a readable report with quartiles and sample
counts.  Graph files, span dumps and full reports go to ``.perfbench-out/``.

``--dump-refs FILE`` writes every case of the seed with its command, the
exit codes it may end with, the sha256 of the stdout it must print, where
that answer comes from and its work counts, then exits without measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import corpus
from harness import (OUT_DIR, PROBE_TIMEOUT_S, SRC, child_env, keep_going, spawn,
                     spread)

SETUP_REPEATS = 9
END_TO_END = {"wall_s": "s", "case_p50_s": "s", "cli_floor_s": "s",
              "peak_rss_mb": "MB", "ok_ratio": "ratio", "setup_s": "s"}


def cli(case):
    return ["-m", "incrtree.cli", *case.args]


class Tally:
    """Attempted and failed runs; a case is ok when every run of it was."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ok = {}
        self.outputs = {}

    def add(self, case, code, out, err, counted=True):
        good = code is not None and case.accepts(code, out, err)
        # work counts must repeat exactly: the same stdout on every run
        self.outputs.setdefault(case.id, set()).add(hash(out))
        if counted:
            self.attempted += 1
            self.failed += not good
        self.ok[case.id] = self.ok.get(case.id, True) and good
        return good

    def repeatable(self):
        return all(len(v) == 1 for v in self.outputs.values())


def timed_run(workload, seed, seconds, workdir):
    env = child_env()
    # the references are computed once, untimed; each set-up loads them
    stored = workdir / "refs.json"
    cases, probes, floor = corpus.build(workload, seed, workdir)
    corpus.write_refs(stored, workload, seed, cases + probes + [floor])
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cases, probes, floor = corpus.build(workload, seed, workdir,
                                            corpus.load_refs(stored))
        warm = spawn(cli(floor), env)
        setup.append(time.perf_counter() - start)
    tally = Tally()
    tally.add(floor, warm.code, warm.out, warm.err)
    probe_rows = []
    for probe in probes:
        res = spawn(cli(probe), env, PROBE_TIMEOUT_S)
        good = tally.add(probe, res.code, res.out, res.err, counted=False)
        probe_rows.append({"id": probe.id, "accepts": sorted(probe.expected),
                           "exit": res.code, "ok": good, "wall_s": res.wall_s})

    # a floor call before every other case and at the end of every pass
    order = [c for i, case in enumerate(cases)
             for c in ([floor, case] if i % 2 == 0 else [case])] + [floor]
    walls = {c.id: [] for c in cases + [floor]}
    pass_walls, pass_rss = [], []
    begin = time.perf_counter()
    while True:
        total, rss = 0.0, 0
        for case in order:
            res = spawn(cli(case), env)
            tally.add(case, res.code, res.out, res.err)
            rss = max(rss, res.rss_kib)
            if res.code is not None:
                walls[case.id].append(res.wall_s)
                total += res.wall_s if case is not floor else 0.0
        pass_walls.append(total)
        pass_rss.append(rss / 1024)
        if not keep_going(begin, len(pass_walls), seconds):
            break

    case_walls = [w for c in cases for w in walls[c.id]]
    everything = cases + probes + [floor]
    stats = {
        "wall_s": spread(pass_walls),
        "case_p50_s": spread(case_walls),
        "cli_floor_s": spread(walls[floor.id]),
        "peak_rss_mb": spread(pass_rss),
        "setup_s": spread(setup),
    }
    values = {k: v["median"] for k, v in stats.items()}
    values["ok_ratio"] = sum(tally.ok[c.id] for c in everything) / len(everything)
    stats["ok_ratio"] = {"median": values["ok_ratio"], "q1": values["ok_ratio"],
                         "q3": values["ok_ratio"], "n": len(everything)}
    rows = [{"id": c.id, "args": c.args, "ok": tally.ok[c.id], "source": c.source,
             "work": c.work, **(spread(walls[c.id]) if walls[c.id] else {})}
            for c in cases + [floor]]
    report = {"passes": len(pass_walls), "stats": stats, "cases": rows,
              "probes": probe_rows}
    result = {"correct": tally.failed == 0 and tally.repeatable(),
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": values[k], "unit": END_TO_END[k]}
                          for k in END_TO_END}}
    return result, report


def print_report(workload, seed, trace, report, result):
    print(f"incrtree benchmark: workload {workload}, seed {seed}, trace {trace}")
    for name, s in report["stats"].items():
        unit = result["metrics"].get(name, {}).get("unit", "")
        print(f"  {name:48s} {s['median']:14.6g} {unit:6s} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    for row in report.get("cases", []):
        timing = (f"{row['median']:.4f} s (q1 {row['q1']:.4f}, q3 {row['q3']:.4f}, "
                  f"n={row['n']})" if "median" in row else "no completed run")
        print(f"  case {row['id']:34s} {'ok ' if row['ok'] else 'BAD'} {timing}")
    for row in report.get("probes", []):
        print(f"  probe {row['id']:33s} {'ok ' if row['ok'] else 'BAD'} exit {row['exit']}"
              f" (documented {row['accepts']}) {row['wall_s']:.3f} s")
    for key in ("failed", "unstable_counts"):
        for item in report.get(key, []):
            print(f"  {key}: {item}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump-refs", metavar="FILE")
    args = parser.parse_args(argv)
    if not (SRC / "incrtree" / "cli.py").is_file():
        print(f"no incrtree sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.dump_refs:
            cases, probes, floor = corpus.build(args.workload, args.seed, workdir)
            corpus.write_refs(args.dump_refs, args.workload, args.seed,
                              cases + probes + [floor])
            return 0
        if args.trace:
            import traced
            result, report = traced.traced_run(args.workload, args.seed, args.seconds,
                                               workdir)
        else:
            result, report = timed_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"report-{name}.json").write_text(json.dumps(report, indent=1) + "\n")
    print_report(args.workload, args.seed, args.trace, report, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
