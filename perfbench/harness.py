"""Process and statistics helpers shared by the timed and the traced run."""

from __future__ import annotations

import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
CASE_TIMEOUT_S = 8.0     # about 3x the slowest case, fibers on K9 at 2.5 s
PROBE_TIMEOUT_S = 3.0    # a probe either answers at once or would hang


class Outcome(NamedTuple):
    code: int | None      # None when the time limit killed the child
    out: bytes
    err: bytes
    wall_s: float
    rss_kib: int


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, env, timeout=CASE_TIMEOUT_S) -> Outcome:
    """Run ``python <argv>`` once, timed from spawn to reaped exit.

    Past the timeout the child is killed and its exit code reads None.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    out, err = bytearray(), bytearray()
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, out)
        sel.register(proc.stderr, selectors.EVENT_READ, err)
        while sel.get_map():
            left = start + timeout - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(left):
                chunk = os.read(key.fd, 1 << 20)
                if chunk:
                    key.data.extend(chunk)
                else:
                    sel.unregister(key.fileobj)
    # reap here instead of in Popen, to get this child's own rusage
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(None if timed_out else proc.returncode, bytes(out), bytes(err),
                   wall, usage.ru_maxrss)


def spread(values):
    """Median, quartiles and sample count."""
    values = list(values)
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def keep_going(begin, rounds, seconds):
    """Start another round only if a round of average length still fits."""
    elapsed = time.perf_counter() - begin
    return elapsed + elapsed / rounds <= seconds
