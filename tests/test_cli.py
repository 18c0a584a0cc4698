import io
import json
import sys

import pytest

from incrtree.cli import main

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


# --- k ----------------------------------------------------------------------

def test_k_on_k3(graphfile, capsys):
    code, out, _ = run(capsys, "k", graphfile(K3))
    assert code == 0
    assert out == '{"root":1,"parent":{"2":1,"3":2}}\n'


def test_k_single_vertex(graphfile, capsys):
    code, out, _ = run(capsys, "k", graphfile("n 1\n"))
    assert code == 0
    assert out == '{"root":1,"parent":{}}\n'


def test_k_disconnected_names_components(graphfile, capsys):
    code, out, err = run(capsys, "k", graphfile("n 3\n2 3\n"))
    assert code == 3
    assert not out
    assert "1 | 2 3" in err


def test_parse_error_exit_code(graphfile, capsys):
    code, _, err = run(capsys, "k", graphfile("n 3\n1 2\n1 2\n"))
    assert code == 2
    assert "duplicate edge" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "k", "/nonexistent/graph.txt")
    assert code == 2


BAD_INPUTS = [
    "n ²\n".encode(),
    "n 2\n1 ٢\n".encode(),
    b"n 10\n1 1_0\n",
    b"n 3\n+1 3\n",
    b"n 3\n1 2\n2 \xff3\n",     # not UTF-8
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


def test_k_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(K3.encode())))
    assert run(capsys, "k", "-") == (0, '{"root":1,"parent":{"2":1,"3":2}}\n', "")


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
    big = "n 17\n"
    code, _, err = run(capsys, "invariants", "chromatic", graphfile(big),
                       "--method", "oracle")
    assert code == 4
    assert "bound" in err


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
