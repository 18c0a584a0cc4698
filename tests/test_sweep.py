"""Byte-identity sweep: every CLI command of a seeded graph corpus against a
committed manifest of its exit code, stdout sha256 and stderr sha256.

The corpus is 44 seeded graphs with 1 to 8 vertices, some of them
disconnected, plus K7, an edgeless ``n 17``, an edgeless ``n 30``, a
40-vertex path missing one edge, K17, a file that does not parse and a file
that does not exist.  On each graph it runs ``k``; every invariant under
every method; all eight ``fibers`` flag sets; ``bcf`` with ``--q`` omitted,
with ``--q`` from 0 to n + 1 and with ``--breaks-all``; each with and
without ``--table``, under the default ``LISTING_LIMIT`` and under 0.  Three
``selfcheck`` runs end the list.  Commands run in-process through
``cli.main``, in a temporary directory with relative file names, so the
missing-file message is the same everywhere.

Tier-1 runs a seeded fifth of the manifest.  To run all of it, or to rewrite
it after a change that alters output on purpose (list the changed commands
in CHANGES.md):

    PYTHONPATH=src python tests/test_sweep.py
    PYTHONPATH=src python tests/test_sweep.py --regenerate
"""

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

from incrtree import cli

MANIFEST = Path(__file__).with_name("sweep_manifest.txt")
CORPUS_SEED = 2005
FIFTH_SEED = 21
LIMIT_PREFIX = "LISTING_LIMIT=0 "


def _graph_text(n, edges):
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def corpus():
    """Map each file name to its text; None stands for a missing file."""
    rng = random.Random(CORPUS_SEED)
    files = {}
    for i in range(44):
        n = 1 + i % 8
        density = (0.3, 0.5, 0.7, 0.9, 0.4, 0.6)[i // 8]
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < density]
        rng.shuffle(edges)
        files[f"g{i:02}.txt"] = _graph_text(n, edges)
    files["k7.txt"] = _graph_text(7, [(u, v) for u in range(1, 8) for v in range(u + 1, 8)])
    files["n17.txt"] = "n 17\n"
    files["n30.txt"] = "n 30\n"
    files["p40gap.txt"] = _graph_text(40, [(v, v + 1) for v in range(1, 40) if v != 20])
    files["k17.txt"] = _graph_text(17, [(u, v) for u in range(1, 18) for v in range(u + 1, 18)])
    files["bad.txt"] = "n 3\n1 2\n2 x\n"
    files["missing.txt"] = None
    return files


def commands():
    """Every command of the sweep, as a string: arguments joined by spaces,
    with LIMIT_PREFIX when it runs under a listing limit of 0."""
    out = []
    for name, text in corpus().items():
        n = int(text.split()[1]) if text else 3  # every text starts "n <count>"
        runs = [["k", name]]
        runs += [["invariants", which, name, "--method", method]
                 for which in ("eta", "chromatic", "csf-x", "csf-y")
                 for method in ("trees", "oracle", "both")]
        runs += [["bcf", name]] + [["bcf", name, "--q", str(q)] for q in range(n + 2)]
        runs += [["bcf", name, "--breaks-all"]]
        runs = [r + table for r in runs for table in ([], ["--table"])]
        runs += [["fibers", name] + [flag for flag, on in zip(("--list", "--trees-only", "--table"), bits) if on]
                 for bits in ((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))]
        out += [prefix + " ".join(r) for prefix in ("", LIMIT_PREFIX) for r in runs]
    out += [f"selfcheck --max-n {n}" for n in (0, 2, 7)]
    return out


def run_command(command):
    """Exit code, stdout sha256 and stderr sha256 of one command, run in the
    current directory."""
    limit = cli.LISTING_LIMIT
    if command.startswith(LIMIT_PREFIX):
        cli.LISTING_LIMIT = 0
        command = command[len(LIMIT_PREFIX):]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(command.split())
            except SystemExit as exc:  # a usage error
                code = exc.code
    finally:
        cli.LISTING_LIMIT = limit
    return (code, *(hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)))


@contextlib.contextmanager
def corpus_dir():
    """Run inside a temporary directory holding the corpus files."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in corpus().items():
            if text is not None:
                Path(tmp, name).write_text(text)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def manifest_line(command, result):
    code, out, err = result
    return f"{code} {out} {err} {command}"


def read_manifest():
    """Map each command to its manifest line."""
    lines = MANIFEST.read_text().splitlines()
    return {line.split(" ", 3)[3]: line for line in lines}


def mismatches(commands_to_run):
    """The manifest lines that running their commands no longer gives, each
    with the line it gives now."""
    expected = read_manifest()
    with corpus_dir():
        got = [(expected[c], manifest_line(c, run_command(c))) for c in commands_to_run]
    return [(want, now) for want, now in got if want != now]


def test_manifest_lists_every_sweep_command_in_order():
    assert list(read_manifest()) == commands()


def test_seeded_fifth_of_the_sweep_matches_the_manifest():
    every = commands()
    fifth = random.Random(FIFTH_SEED).sample(every, len(every) // 5)
    assert mismatches(fifth) == []


def main(argv):
    if argv == ["--regenerate"]:
        with corpus_dir():
            lines = [manifest_line(c, run_command(c)) for c in commands()]
        MANIFEST.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} commands to {MANIFEST.name}")
        return 0
    if argv:
        print("usage: test_sweep.py [--regenerate]", file=sys.stderr)
        return 2
    bad = mismatches(commands())
    for want, now in bad:
        print(f"manifest: {want}\nnow:      {now}")
    print(f"{len(bad)} of {len(commands())} commands differ from the manifest")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
