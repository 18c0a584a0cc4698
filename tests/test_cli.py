import ast
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from incrtree import brokencircuits, checks, cli, trees
from incrtree.brokencircuits import breaks_by_circuits, spanning_subtrees
from incrtree.cli import LISTING_LIMIT, main
from incrtree.graphs import (MAX_VERTICES, Graph, SetPartition, _eliminate,
                             format_graph, random_connected_graph)
from incrtree.invariants import connected_subgraph_poly
from incrtree.skeleton import skeleton
from incrtree.trees import count_supported_trees, supported_tree_sums

K3 = "n 3\n1 2\n1 3\n2 3\n"
K4 = "n 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
P3 = "n 3\n1 2\n2 3\n"


@pytest.fixture
def graphfile(tmp_path):
    def write(text, name="g.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, fn):
    """Patch fn, in every incrtree module that holds it, with a wrapper that
    counts its calls; return the list of their arguments."""
    calls = []

    def counting(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("incrtree") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)
    return calls


# --- k ----------------------------------------------------------------------

def test_k_on_k3(graphfile, capsys):
    code, out, _ = run(capsys, "k", graphfile(K3))
    assert code == 0
    assert out == '{"root":1,"parent":{"2":1,"3":2}}\n'


def test_k_single_vertex(graphfile, capsys):
    code, out, _ = run(capsys, "k", graphfile("n 1\n"))
    assert code == 0
    assert out == '{"root":1,"parent":{}}\n'


def test_k_table_single_vertex(graphfile, capsys):
    assert run(capsys, "k", graphfile("n 1\n"), "--table") == (0, "single vertex 1\n", "")


def test_k_disconnected_names_components(graphfile, capsys):
    code, out, err = run(capsys, "k", graphfile("n 3\n2 3\n"))
    assert code == 3
    assert not out
    assert "1 | 2 3" in err


def test_k_disconnected_message_is_bounded(graphfile, capsys):
    """The exit-3 message names the component count and at most ten
    components of at most ten vertices each, however large the graph."""
    code, out, err = run(capsys, "k", graphfile("n 5000\n"))
    assert (code, out) == (3, "")
    assert "5000 components: 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | ...)" in err
    path = "".join(f"{v} {v + 1}\n" for v in range(2, 5000))
    code, out, err = run(capsys, "k", graphfile("n 5000\n" + path))
    assert (code, out) == (3, "")
    assert "2 components: 1 | 2 3 4 5 6 7 8 9 10 11 ...)" in err
    assert len(err) < 100


def test_connectivity_builds_no_set_partition(graphfile, capsys, monkeypatch):
    """The connectivity test and the exit-3 message come from the
    union-find roots, not from a canonical partition of every vertex."""
    def refuse(self, blocks):
        raise AssertionError("a SetPartition was built")

    monkeypatch.setattr(SetPartition, "__init__", refuse)
    assert not Graph(200_000).is_connected()
    code, out, err = run(capsys, "k", graphfile("n 200000\n"))
    assert (code, out) == (3, "")
    assert err == "graph is not connected (200000 components: " \
                  "1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | ...)\n"


def test_k_runs_one_elimination_pass(graphfile, capsys, monkeypatch):
    """On a connected graph the pass that builds the skeleton also tests
    connectivity; the exit-3 message is built only when it fails."""
    rng = random.Random(16)
    labels = list(range(1, 201))
    rng.shuffle(labels)
    g = Graph(200, zip(labels, labels[1:]))
    want = json.dumps(skeleton(g).to_json_obj(), separators=(",", ":")) + "\n"
    path = graphfile(format_graph(g))
    calls = count_calls(monkeypatch, _eliminate)
    assert run(capsys, "k", path)[:2] == (0, want)
    assert len(calls) == 1


def test_invariants_eta_runs_one_elimination_pass_per_route(graphfile, capsys, monkeypatch):
    """Each eta route tests connectivity with its own pass; the command
    makes no check of its own."""
    path = graphfile(K4)
    calls = count_calls(monkeypatch, _eliminate)
    assert run(capsys, "invariants", "eta", path)[0] == 0
    assert len(calls) == 2


def test_parse_error_exit_code(graphfile, capsys):
    code, _, err = run(capsys, "k", graphfile("n 3\n1 2\n1 2\n"))
    assert code == 2
    assert "duplicate edge" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "k", "/nonexistent/graph.txt")
    assert code == 2


LONG_COUNT = b"n " + b"1" * 4301 + b"\n"   # more digits than int() reads
LINE_SEPARATOR = "n 3\u20281 2\u20282 3\n".encode()

BAD_INPUTS = [
    "n ²\n".encode(),
    "n 2\n1 ٢\n".encode(),
    b"n 10\n1 1_0\n",
    b"n 3\n+1 3\n",
    b"n 3\n1 2\n2 \xff3\n",     # not UTF-8
    pytest.param(LINE_SEPARATOR, id="U+2028-line-separator"),
    pytest.param("n 3\x851 2\x852 3\n".encode(), id="U+0085-next-line"),
    pytest.param(LONG_COUNT, id="4301-digit-count"),
    pytest.param(b"n 3\n1 " + b"2" * 4301 + b"\n", id="4301-digit-endpoint"),
    pytest.param(f"n {MAX_VERTICES + 1}\n".encode(), id="count-above-MAX_VERTICES"),
    pytest.param(b"n 2\n1\x1f2\n", id="unit-separator-between-fields"),
    pytest.param(b"n 2\n1 2\x0c\n", id="form-feed-after-field"),
]


@pytest.mark.parametrize("data", BAD_INPUTS)
def test_bad_input_file_exits_2(tmp_path, capsys, data):
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    code, out, err = run(capsys, "k", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error") and "Traceback" not in err


@pytest.mark.parametrize("data", BAD_INPUTS)
def test_bad_input_stdin_exits_2(monkeypatch, capsys, data):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, err = run(capsys, "k", "-")
    assert (code, out) == (2, "")
    assert err.startswith("parse error") and "Traceback" not in err


def test_closed_stdin_exits_2(monkeypatch, capsys):
    """Started with stdin closed, Python sets sys.stdin to None: reading
    the graph from - is a refusal, not a traceback."""
    monkeypatch.setattr(sys, "stdin", None)
    assert run(capsys, "k", "-") == (2, "", "cannot read -: standard input is closed\n")


def test_k_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(K3.encode())))
    assert run(capsys, "k", "-") == (0, '{"root":1,"parent":{"2":1,"3":2}}\n', "")


# --- the exit-code contract ------------------------------------------------------------

# a mutation can grow the count by a few digits, never past a few thousand
MUTATION_CHARS = "0123456789 n#-+x\n\r\t\u2028\x85\u00b2\u0662"

COMMANDS = [  # None stands for the graph file or "-"
    ["k", None],
    ["invariants", "eta", None],
    ["invariants", "chromatic", None, "--method", "trees"],
    ["invariants", "csf-y", None],
    ["invariants", "csf-y", None, "--method", "trees"],
    ["fibers", None],
    ["fibers", None, "--trees-only"],
    ["fibers", None, "--list"],
    ["fibers", None, "--list", "--trees-only"],
    ["fibers", None, "--table"],
    ["bcf", None],
    ["bcf", None, "--q", "2"],
    ["bcf", None, "--q", "0"],
    ["bcf", None, "--breaks-all"],
]


@st.composite
def graph_texts(draw):
    """The text of a graph on at most five vertices, then up to three
    single-character insertions, deletions or replacements."""
    n = draw(st.integers(1, 5))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    text = format_graph(Graph(n, edges))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        put = draw(st.sampled_from(["", *MUTATION_CHARS]))
        cut = draw(st.sampled_from([0, 1]))  # cut 1: delete or replace text[i]
        text = text[:i] + put + text[i + cut:]
    return text.encode()


def run_contained(argv, data, via_stdin):
    """main() on the given input bytes, from stdin or a file; returns the
    exit code and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        path = Path(tmp) / "g.txt"
        path.write_bytes(data)
        source = "-" if via_stdin else str(path)
        stdin = io.TextIOWrapper(io.BytesIO(data))
        with mock.patch.object(sys, "stdin", stdin):
            code = main([source if a is None else a for a in argv])
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None)
@given(argv=st.sampled_from(COMMANDS),
       data=st.one_of(graph_texts(), st.binary(max_size=64)),
       via_stdin=st.booleans())
@example(argv=["k", None], data=LONG_COUNT, via_stdin=False)
@example(argv=["k", None], data=LONG_COUNT, via_stdin=True)
@example(argv=["k", None], data=LINE_SEPARATOR, via_stdin=False)
@example(argv=["k", None], data=LINE_SEPARATOR, via_stdin=True)
def test_cli_exit_code_contract(argv, data, via_stdin):
    code, out, err = run_contained(argv, data, via_stdin)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code == 0:
        if "--table" not in argv:
            # stdout written as text must be exactly what json.dumps writes
            assert json.dumps(json.loads(out), separators=(",", ":")) + "\n" == out
    else:
        assert not out


DISCONNECTED = "graph is not connected (2 components: 1 | 2 3)"
BOUND = "17 vertices exceeds the exhaustive enumeration bound of 16"
REFUSALS = [  # command (None: the graph file), input bytes, exit code, stderr
    (["k", "/nonexistent/graph.txt"], None, 2, "cannot read /nonexistent/graph.txt: "
     "[Errno 2] No such file or directory: '/nonexistent/graph.txt'"),
    (["k", None], b"n 3\n1 2\n2 \xff3\n", 2,
     "parse error: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
    (["k", None], b"n 3\n1 2\n1 2\n", 2, "parse error: line 3: duplicate edge 1 2"),
    (["k", None], b"n 3\n2 3\n", 3, DISCONNECTED),
    (["fibers", None], b"n 3\n2 3\n", 3, DISCONNECTED),
    (["bcf", None], b"n 3\n2 3\n", 3, DISCONNECTED),
    (["invariants", "eta", None], b"n 3\n2 3\n", 3, DISCONNECTED),
    # each eta route makes its own check
    (["invariants", "eta", None, "--method", "trees"], b"n 3\n2 3\n", 3, DISCONNECTED),
    (["invariants", "eta", None, "--method", "oracle"], b"n 3\n2 3\n", 3, DISCONNECTED),
    (["invariants", "chromatic", None], b"n 17\n", 4, BOUND),
    # the vertex bound comes before bcf answers an impossible q
    (["bcf", None, "--q", "0"], format_graph(Graph.complete(17)).encode(), 4, BOUND),
    (["selfcheck", "--max-n", "7"], None, 4, "selfcheck supports at most 6 vertices (requested 7)"),
    (["selfcheck", "--max-n", "0"], None, 4, "max-n must be at least 1"),
]


@pytest.mark.parametrize("argv, data, code, err", REFUSALS, ids=[
    "missing-file", "not-utf-8", "duplicate-edge", "k-disconnected", "fibers-disconnected",
    "bcf-disconnected", "eta-disconnected", "eta-trees-disconnected",
    "eta-oracle-disconnected", "chromatic-n17", "bcf-q0-on-K17",
    "selfcheck-max-n-7", "selfcheck-max-n-0"])
def test_every_refusal_through_main(tmp_path, capsys, argv, data, code, err):
    """main gives each refusal its exit code and prints only its message."""
    path = tmp_path / "g.txt"
    if data is not None:
        path.write_bytes(data)
    assert run(capsys, *[str(path) if a is None else a for a in argv]) == (code, "", err + "\n")


@pytest.mark.parametrize("q", ["0", "17"])
def test_bcf_impossible_q_builds_no_table(graphfile, capsys, monkeypatch, q):
    """No forest on K16 has 0 or 17 blocks: bcf answers [] at once."""
    def refuse(*_):
        raise AssertionError("a count table was built")

    monkeypatch.setattr(brokencircuits, "supported_tree_sums", refuse)
    monkeypatch.setattr(cli, "supported_tree_sums", refuse)
    path = graphfile(format_graph(Graph.complete(16)))
    assert run(capsys, "bcf", path, "--q", q) == (0, "[]\n", "")


@pytest.mark.parametrize("q", ["1", "2"])
def test_bcf_q_and_breaks_all_exclude_each_other(graphfile, capsys, q):
    with pytest.raises(SystemExit) as info:
        main(["bcf", graphfile(K3), "--q", q, "--breaks-all"])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert err.endswith("incrtree bcf: error: argument --breaks-all: "
                        "not allowed with argument --q\n")


# --- invariants --------------------------------------------------------------------

def test_invariants_chromatic_both(graphfile, capsys):
    code, out, _ = run(capsys, "invariants", "chromatic", graphfile(K4))
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["coefficients"] == [0, -6, 11, -6, 1]


def test_invariants_eta_both(graphfile, capsys):
    code, out, _ = run(capsys, "invariants", "eta", graphfile(K3))
    data = json.loads(out)
    assert code == 0
    assert data["agree"] is True
    assert data["coefficients"] == [0, 0, 3, 1]


def test_invariants_both_table_shows_a_disagreement(graphfile, capsys, monkeypatch):
    _, oracle, text = cli._INVARIANTS["chromatic"]
    monkeypatch.setitem(cli._INVARIANTS, "chromatic", (oracle, lambda g: oracle(g) * 2, text))
    code, out, _ = run(capsys, "invariants", "chromatic", graphfile(K3), "--table")
    assert code == 0
    assert out == ("chromatic (both)\ntrees : [0, 2, -3, 1]\n"
                   "oracle: [0, 4, -6, 2]\nagree: False\n")


def test_invariants_eta_disconnected(graphfile, capsys):
    code, _, err = run(capsys, "invariants", "eta", graphfile("n 2\n"))
    assert code == 3


def test_invariants_chromatic_allows_disconnected(graphfile, capsys):
    code, out, _ = run(capsys, "invariants", "chromatic", graphfile("n 2\n"))
    assert code == 0
    assert json.loads(out)["coefficients"] == [0, 0, 1]


def test_invariants_csf_x_trees(graphfile, capsys):
    code, out, _ = run(capsys, "invariants", "csf-x", graphfile(K3),
                       "--method", "trees")
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [
        {"lambda": [3], "coeff": "2"},
        {"lambda": [2, 1], "coeff": "-3"},
        {"lambda": [1, 1, 1], "coeff": "1"},
    ]


def test_invariants_csf_y_both(graphfile, capsys):
    code, out, _ = run(capsys, "invariants", "csf-y", graphfile(P3))
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    blocks = [t["blocks"] for t in data["terms"]]
    assert blocks == sorted(blocks)


def test_invariants_oracle_over_bound(graphfile, capsys):
    # eta needs a connected graph: on the edgeless n 17 it exits 3 first
    edgeless = graphfile("n 17\n")
    k17 = graphfile(format_graph(Graph.complete(17)), "k17.txt")
    for which, path in [("chromatic", edgeless), ("csf-x", edgeless),
                        ("csf-y", edgeless), ("eta", k17)]:
        for method in ["trees", "oracle", "both"]:
            assert run(capsys, "invariants", which, path, "--method", method) == (
                4, "", "17 vertices exceeds the exhaustive enumeration bound of 16\n")


# --- fibers --------------------------------------------------------------------------

def test_fibers_k3(graphfile, capsys):
    code, out, _ = run(capsys, "fibers", graphfile(K3))
    assert code == 0
    records = json.loads(out)
    assert sorted(int(r["fiber_size"]) for r in records) == [1, 3]


def test_fibers_p3_excludes_star(graphfile, capsys):
    code, out, _ = run(capsys, "fibers", graphfile(P3))
    records = json.loads(out)
    assert len(records) == 1
    assert records[0]["tree"] == {"root": 1, "parent": {"2": 1, "3": 2}}


def test_fibers_k4_trees_only(graphfile, capsys):
    code, out, _ = run(capsys, "fibers", graphfile(K4), "--trees-only")
    records = json.loads(out)
    assert len(records) == 6
    sizes = sorted((int(r["fiber_size"]) for r in records), reverse=True)
    assert sizes == [6, 3, 2, 2, 2, 1]


def test_fibers_list_members(graphfile, capsys):
    code, out, _ = run(capsys, "fibers", graphfile(K3), "--list")
    records = json.loads(out)
    total = sum(len(r["members"]) for r in records)
    assert total == 4  # all connected spanning subgraphs of K3
    code, out, _ = run(capsys, "fibers", graphfile(K3), "--list", "--trees-only")
    records = json.loads(out)
    assert sum(len(r["members"]) for r in records) == 3
    for r in records:
        assert len(r["members"]) == int(r["fiber_size"])


def test_fibers_list_trees_only_on_k7(graphfile, capsys):
    """The trees in a fiber are one edge of each vertex's attachment set;
    over all fibers of K7 they are its 7^5 spanning trees, the supported-tree
    sum with weight c."""
    g = Graph.complete(7)
    code, out, _ = run(capsys, "fibers", graphfile(format_graph(g)), "--list", "--trees-only")
    assert code == 0
    records = json.loads(out)
    for r in records:
        assert len(r["members"]) == int(r["fiber_size"])
        assert all(len(m) == 6 for m in r["members"])
    assert sum(len(r["members"]) for r in records) == \
        supported_tree_sums(g, lambda c: c)[-1] == 7 ** 5


LISTINGS = [  # command and flag, the items the message names, their count on K_n
    (("fibers", "--list"), "fibers --list members", lambda g: connected_subgraph_poly(g)(1)),
    # Cayley: K_n has n^(n-2) spanning trees
    (("bcf", "--breaks-all"), "bcf --breaks-all spanning trees", lambda g: g.n ** (g.n - 2)),
]


@pytest.mark.parametrize("argv, what, count", LISTINGS, ids=["fibers", "bcf"])
def test_listings_past_the_limit_exit_4_at_once(graphfile, capsys, argv, what, count):
    """K9 has about 6.6e10 connected spanning subgraphs and 9^7 spanning
    trees: both listings refuse, with nothing on stdout."""
    g = Graph.complete(9)
    path = graphfile(format_graph(g))
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert err == f"{what}: {count(g)}, more than the listing limit of {LISTING_LIMIT}\n"


def test_fibers_list_refuses_before_the_stream(graphfile, capsys, monkeypatch):
    """fibers --list reads its member count off the count table it streams
    from: K10's 34,496,488,594,816 connected spanning subgraphs (OEIS
    A001187) are refused before the first tree is streamed."""
    def refuse(*_):
        raise AssertionError("the stream started before the bound was checked")

    monkeypatch.setattr(cli, "_supported_forests", refuse)
    code, out, err = run(capsys, "fibers", graphfile(format_graph(Graph.complete(10))), "--list")
    assert (code, out) == (4, "")
    assert err == "fibers --list members: 34496488594816, more than the listing " \
                  f"limit of {LISTING_LIMIT}\n"


def test_bcf_breaks_all_builds_one_count_table(graphfile, capsys, monkeypatch):
    """bcf --breaks-all checks tau(G) and streams from the same weight-c
    table: one supported_tree_sums call for a graph with 20 edges whose
    C(20, 7) = 77,520 edge sets hold 16,717 spanning trees."""
    g = random_connected_graph(8, random.Random(3))
    calls = count_calls(monkeypatch, supported_tree_sums)
    code, out, _ = run(capsys, "bcf", graphfile(format_graph(g)), "--breaks-all")
    assert code == 0
    assert len(json.loads(out)) == 16_717
    assert len(calls) == 1


def test_fibers_table_ignores_list(graphfile, capsys, monkeypatch):
    """--table prints no members, so with --list it neither checks the
    listing limit nor prints anything but what --table alone prints."""
    path = graphfile(format_graph(Graph.complete(7)))
    monkeypatch.setattr(cli, "LISTING_LIMIT", 0)
    table = run(capsys, "fibers", path, "--table")
    assert table[0] == 0 and table[1].count("\n") == 720
    assert run(capsys, "fibers", path, "--list", "--table") == table


@pytest.mark.parametrize("argv, what, count", LISTINGS, ids=["fibers", "bcf"])
def test_listing_at_the_limit_runs(graphfile, capsys, monkeypatch, argv, what, count):
    """K4 lists 38 members or 16 spanning trees: a limit of exactly that
    many lets the listing run, one fewer refuses it."""
    path = graphfile(K4)
    monkeypatch.setattr(cli, "LISTING_LIMIT", count(Graph.complete(4)))
    assert run(capsys, argv[0], path, *argv[1:])[0] == 0
    monkeypatch.setattr(cli, "LISTING_LIMIT", count(Graph.complete(4)) - 1)
    assert run(capsys, argv[0], path, *argv[1:])[:2] == (4, "")


def cli_env():
    """The environment for running this checkout's CLI in a subprocess."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_closed_stdout_exits_141_without_a_traceback(graphfile):
    """A reader that stops early, as `| head -c 10` does, ends the run with
    128 + SIGPIPE and no traceback."""
    path = graphfile(format_graph(Graph.complete(9)))
    with subprocess.Popen(
            [sys.executable, "-m", "incrtree.cli", "fibers", path, "--trees-only"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env()) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["k", None], ["selfcheck", "--max-n", "2"]])
def test_full_stdout_exits_5_without_a_traceback(graphfile, argv):
    """A write error other than a closed pipe, here a full device, ends the
    run with exit 5 and one line on stderr; 1 stays a failed self-check."""
    argv = [graphfile(K4) if a is None else a for a in argv]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "incrtree.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, env=cli_env(), timeout=60)
    assert proc.returncode == 5
    assert proc.stderr == b"cannot write to stdout: [Errno 28] No space left on device\n"


def test_stdout_closed_at_start_exits_141(monkeypatch):
    """Started with stdout closed, Python sets sys.stdout to None: no
    output can be written, so the command does not run."""
    def refuse(argv=None):
        raise AssertionError("the command ran")

    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(cli, "main", refuse)
    with pytest.raises(SystemExit) as info:
        cli.entry()
    assert info.value.code == 141


def test_fibers_on_p14_skips_the_factorial_walk(graphfile, capsys):
    """P14 has one supported increasing tree among 13! (about 6.2e9)."""
    path = graphfile(format_graph(Graph(14, [(v, v + 1) for v in range(1, 14)])))
    start = time.perf_counter()
    code, out, _ = run(capsys, "fibers", path)
    assert time.perf_counter() - start < 5
    assert code == 0
    assert json.loads(out) == [{
        "tree": {"root": 1, "parent": {str(v + 1): v for v in range(1, 14)}},
        "fiber_size": "1",
        "edge_choices": {str(v): 1 for v in range(2, 15)},
    }]


def seeded_connected_graphs():
    rng = random.Random(4242)
    return [random_connected_graph(n, rng) for n in (3, 4, 5, 6, 6, 7, 7, 8)]


@pytest.mark.parametrize("g", seeded_connected_graphs(), ids=lambda g: f"n{g.n}")
def test_fiber_records_follow_the_paper(graphfile, capsys, g):
    """One record per supported increasing tree, and the fiber sizes add up
    to eta(1), the number of connected spanning subgraphs, by the
    edge-subset oracle."""
    path = graphfile(format_graph(g))
    records = json.loads(run(capsys, "fibers", path)[1])
    assert len(records) == count_supported_trees(g)
    assert sum(int(r["fiber_size"]) for r in records) == connected_subgraph_poly(g)(1)


# Stdout digests recorded from the implementation that walked every
# increasing tree and every edge subset; each covers the six graphs in order.
# The csf-y digests were recorded before the terms were written as text.
GOLDEN_GRAPHS = [(4, 1), (5, 2), (5, 3), (6, 4), (6, 5), (7, 6)]  # (n, seed)
GOLDEN_DIGESTS = {
    "fibers": "b52aae66a8cb378a0885e306a412fa08e0f6c8b9dc94a5f8c264e64e4966eaf0",
    "fibers --list": "21edfd6b1659871387f113de9bdf383b057068a00ee97a8329c71a67f47b7940",
    "fibers --trees-only":
        "710829b571b4d1fb1f3a35bb57b6366aae3562140cc03dac794633874270bf53",
    "fibers --table": "a04388934d622d8dc44f00432b3430c2b42acacf136b85bb50c3a85abe3dc0c2",
    "fibers --list --trees-only":
        "bf15ee6c4a952202abc1f69fb1d63b367d6877e7385f6cf8ad01ccf1c2a87084",
    "bcf --q 1": "fea97a186635bc5e4326f9b5e69f8cc22597a4225f4ebe3a9a57bda6a20aa3d5",
    "bcf --q 2": "c04d5ebaccd0ebf7ebd59a09eefb988a4bbb3144ad4d3d7ddd57eaa04a197ca0",
    "bcf --q 3": "a32f683e248fd1535b3e42696a54ec46ddb83a01b4a9f3579e9e550c3d78ef3c",
    "bcf --table": "72360bd6c386efd0d2973fb41caaf9dfe9202593ec7088115ee668e81a317699",
    "bcf --q 0": "b18664a06ed0bd101b25a7b58229152a46f6c4b013207f0721ed49960f9ec7a2",
    # recorded while --breaks-all walked every (n-1)-edge subset
    "bcf --breaks-all": "dcd640cfaba12c318fcabdac487937dd589e77c7da6ab27f63d11f1c2ae54ae3",
    "bcf --breaks-all --table":
        "9ca3d2d9746fc99dadc7ced571a0d636fd34629c588ff62ceaac016fe1d3c902",
    "invariants csf-y --method trees":
        "965c897057fbeff8c1e18b0587be033d7e2fd9da6f63ec71ac543b98fb623523",
    "invariants csf-y --method oracle":
        "d4a585e5e52e48754f8e7549f4f08b06a6b216fb0b5ad3ea13e16cd3680f3ad3",
    "invariants csf-y --method both":
        "b994c9544911561a697cdc7726e79a7108db2ad55e2b6260d84bf4c7ba64b5ac",
    "invariants csf-y --table":
        "d89f09662073fe28ed01706ccfddf0d40a694ec411777a29d054cc0e5bcd17ce",
}


@pytest.mark.parametrize("command", GOLDEN_DIGESTS)
def test_stream_output_matches_golden_digest(graphfile, capsys, command):
    # the words before the first flag come before the graph file
    words = command.split()
    at = next((i for i, w in enumerate(words) if w.startswith("--")), len(words))
    digest = hashlib.sha256()
    for n, seed in GOLDEN_GRAPHS:
        g = random_connected_graph(n, random.Random(seed))
        code, out, _ = run(capsys, *words[:at], graphfile(format_graph(g)), *words[at:])
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == GOLDEN_DIGESTS[command]


def test_fibers_on_the_16_vertex_fan_matches_golden_digest(graphfile, capsys):
    """Vertex 1 joined to 2..16 plus the path 2-3-...-16 fills every field
    of a packed tree: position 15, and an attachment count of 15 below
    vertex 2 on the path tree, whose fiber has 2^15 - 1 members.  Digest
    recorded before the trees were packed."""
    fan = Graph(16, [(1, v) for v in range(2, 17)] + [(v, v + 1) for v in range(2, 16)])
    code, out, _ = run(capsys, "fibers", graphfile(format_graph(fan)))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d8315b3bf16f1a0901df14bffd22b18f9931b0dae3e634fbd3b19c01bd880c86"
    records = json.loads(out)
    assert len(records) == count_supported_trees(fan) == 16384
    path = {"root": 1, "parent": {str(v + 1): v for v in range(1, 16)}}
    (on_path,) = [r for r in records if r["tree"] == path]
    assert on_path["fiber_size"] == "32767"
    assert on_path["edge_choices"] == {"2": 15, **{str(v): 1 for v in range(3, 17)}}


@pytest.mark.parametrize("argv, n, size, digest", [
    (["fibers", "--trees-only"], 9, 6_539_971,
     "cd741a263e3776be2db78c86fe1761ea1359aba6c8a36353630fc73ab775d297"),
    (["bcf", "--q", "2"], 8, 1_848_350,
     "1a0acf5133e0b7f4720845243fa0b777f387770cc6cd82c4a223f6f8e7460885"),
], ids=["fibers-K9-trees-only", "bcf-K8-q2"])
def test_listing_is_never_written_whole(graphfile, monkeypatch, argv, n, size, digest):
    """A listing goes out a chunk at a time, so its whole text is never held:
    the writes join to its bytes, recorded when each listing was one write,
    and none of them is longer than a million characters."""
    writes = []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
    assert main([argv[0], graphfile(format_graph(Graph.complete(n))), *argv[1:]]) == 0
    text = "".join(writes)
    assert len(text) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert max(map(len, writes)) <= 1_000_000


# --- bcf ------------------------------------------------------------------------------

def test_bcf_k3(graphfile, capsys):
    code, out, _ = run(capsys, "bcf", graphfile(K3))
    records = json.loads(out)
    assert [r["edges"] for r in records] == [
        [[1, 2], [1, 3]],
        [[1, 2], [2, 3]],
    ]
    assert records[0]["skeleton"] == {"root": 1, "parent": {"2": 1, "3": 1}}


def test_bcf_k4_count(graphfile, capsys):
    code, out, _ = run(capsys, "bcf", graphfile(K4))
    assert len(json.loads(out)) == 6


def test_bcf_breaks_all_k3(graphfile, capsys):
    code, out, _ = run(capsys, "bcf", graphfile(K3), "--breaks-all")
    records = json.loads(out)
    assert [r["breaks"] for r in records] == [[], [], [[1, 2]]]


# the 3x4 grid, labels 1-12 row by row, with its right and down edges
GRID_3X4 = Graph(12, [(v, v + 1) for v in range(1, 13) if v % 4] +
                 [(v, v + 4) for v in range(1, 9)])


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4),
                                     (6, 5), (7, 6), (7, 7), (12, "grid")])
def test_bcf_breaks_all_matches_the_subset_walk(graphfile, capsys, n, seed):
    """The product listing equals the route it replaced: every (n-1)-edge
    spanning tree, its breaks by circuits and the skeleton it collapses to,
    on seeded random graphs and on the 3x4 grid's 2,415 spanning trees."""
    g = GRID_3X4 if seed == "grid" else random_connected_graph(n, random.Random(seed))
    code, out, _ = run(capsys, "bcf", graphfile(format_graph(g)), "--breaks-all")
    assert code == 0
    assert json.loads(out) == [
        {"edges": [list(e) for e in sorted(t.edges)],
         "breaks": [list(e) for e in sorted(breaks_by_circuits(t, g))],
         "skeleton": skeleton(t).to_json_obj()}
        for t in spanning_subtrees(g)]


def test_q1_listings_build_no_mask_vertices_table(graphfile, capsys, monkeypatch):
    """A one-block stream is the full vertex mask alone, which no partition
    sort orders, so the listings that read one build no 2^n mask_vertices
    table: each prints the same bytes with that table refused."""
    path = graphfile(format_graph(Graph.complete(5)))
    argvs = [["fibers"], ["fibers", "--list"], ["bcf", "--q", "1"], ["bcf", "--breaks-all"]]
    want = [run(capsys, argv[0], path, *argv[1:]) for argv in argvs]

    def refuse(vs):
        raise AssertionError("mask_vertices table built")

    monkeypatch.setattr(trees, "mask_vertices", refuse)
    for argv, (code, out, err) in zip(argvs, want):
        assert code == 0 and out
        assert run(capsys, argv[0], path, *argv[1:]) == (code, out, err)


@pytest.mark.parametrize("flags", [["--q", "1"], ["--q", "2"], ["--q", "3"], ["--breaks-all"]])
def test_bcf_table_lists_the_json_records(graphfile, capsys, flags):
    """Both writers list the same records in the same order: each --table
    line reads back as the edges (and breaks) of the matching JSON record."""
    rng = random.Random(1017)
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 8):
        path = graphfile(format_graph(random_connected_graph(n, rng)))
        code, out, _ = run(capsys, "bcf", path, *flags)
        assert code == 0
        keys = ["edges", "breaks"] if flags == ["--breaks-all"] else ["edges"]
        want = [[r[k] for k in keys] for r in json.loads(out)]
        code, out, _ = run(capsys, "bcf", path, *flags, "--table")
        assert code == 0
        got = []
        for line in out.splitlines():
            fields = line.split("  ")
            assert [f.split(" ", 1)[0] for f in fields] == keys
            got.append([ast.literal_eval(f.split(" ", 1)[1]) for f in fields])
        assert got == want


def test_bcf_with_q(graphfile, capsys):
    code, out, _ = run(capsys, "bcf", graphfile(K3), "--q", "3")
    records = json.loads(out)
    assert len(records) == 1
    assert records[0]["edges"] == []
    assert records[0]["skeleton"] == [
        {"root": 1, "parent": {}},
        {"root": 2, "parent": {}},
        {"root": 3, "parent": {}},
    ]


# --- selfcheck -------------------------------------------------------------------------

def test_selfcheck_small(capsys):
    code, out, _ = run(capsys, "selfcheck", "--max-n", "3")
    assert code == 0
    assert "selfcheck passed" in out


def test_selfcheck_bound(capsys):
    code, _, err = run(capsys, "selfcheck", "--max-n", "7")
    assert code == 4


def test_selfcheck_reports_a_failing_graph_property(capsys, monkeypatch):
    def refute(g):
        if len(g.vertices) == 2:
            checks._fail("refuted")

    monkeypatch.setattr(checks, "PER_GRAPH_CHECKS", [("refuter", 6, refute)])
    lines = []
    assert checks.run_selfcheck(3, report=lines.append) is False
    assert lines == ["n=1: 1 connected graphs checked (exhaustive)",
                     "FAIL refuter: refuted", "counterexample graph:", "n 2\n1 2"]
    code, out, _ = run(capsys, "selfcheck", "--max-n", "3")
    assert (code, out) == (1, "\n".join(lines) + "\n")


def test_selfcheck_reports_a_failing_size_property(monkeypatch):
    def refute(n):
        if n == 2:
            checks._fail("no trees")

    monkeypatch.setattr(checks, "PER_SIZE_CHECKS", [("sizer", refute)])
    lines = []
    assert checks.run_selfcheck(3, report=lines.append) is False
    assert lines[-1] == "FAIL sizer at n=2: no trees"


def test_graphs_to_check_samples_100_connected_graphs_at_six():
    first = [g.edges for g in checks.graphs_to_check(6, 7)]
    assert len(first) == checks.SAMPLE_SIZE == 100
    assert all(g.vertices == frozenset(range(1, 7)) and g.is_connected()
               for g in checks.graphs_to_check(6, 7))
    assert [g.edges for g in checks.graphs_to_check(6, 7)] == first


# --- output determinism ----------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("k",),
    ("invariants", "chromatic"),
    ("invariants", "csf-y"),
    ("fibers", "--list"),
    ("bcf", "--breaks-all"),
])
def test_output_is_byte_deterministic(graphfile, capsys, argv):
    path = graphfile(K4)
    cmd = [argv[0]] + list(argv[1:])
    insert_at = 2 if argv[0] == "invariants" else 1
    cmd.insert(insert_at, path)
    first = run(capsys, *cmd)
    second = run(capsys, *cmd)
    assert first == second
    assert first[0] == 0


def test_table_output(graphfile, capsys):
    code, out, _ = run(capsys, "k", graphfile(K3), "--table")
    assert code == 0
    assert "1 -> 2" in out and "2 -> 3" in out
