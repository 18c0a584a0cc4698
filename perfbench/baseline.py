#!/usr/bin/env python3
"""Run every workload over several seeds and summarize the runs as JSON.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload: one timed run per seed (``--trace 0``), then one traced
run on the first seed, each ``run_seconds`` long as ``BENCHMARK.json`` says.  Each end-to-end metric gets its median, quartiles
and spread (interquartile distance over the median) across the seeds; every
run must report ``correct``.  Runs go one at a time, so nothing else
competes with the measured processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import corpus
from harness import ROOT, spread

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    summary = {"commit": commit(), "python": platform.python_version(),
               "nproc": os.cpu_count(), "run_seconds": seconds,
               "seeds": [args.seeds[0], args.seeds[-1]], "workloads": {}}
    all_correct = True
    for workload in corpus.WORKLOADS:
        runs = [run_once(workload, s, seconds, 0) for s in args.seeds]
        traced = run_once(workload, args.seeds[0], seconds, 1)
        all_correct &= all(r["correct"] for r in runs) and traced["correct"]
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            s = spread(r["metrics"][name]["value"] for r in runs)
            s["spread"] = (s["q3"] - s["q1"]) / s["median"]
            metrics[name] = {"unit": first["unit"], **s}
            print(f"{workload:16s} {name:12s} median {s['median']:.6g} {first['unit']:5s}"
                  f" spread {s['spread']:.3f}", flush=True)
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
