"""A third oracle written outside this package: networkx's chromatic and
Tutte polynomials against the forest and tree routes."""

import json
import random

import pytest

from incrtree.cli import main
from incrtree.graphs import Graph, format_graph, random_connected_graph
from incrtree.invariants import (chromatic_poly_from_forests,
                                 connected_subgraph_poly_from_trees)

nx = pytest.importorskip("networkx")
sympy = pytest.importorskip("sympy")

x, y, t = sympy.symbols("x y t")


def seeded_graphs():
    """K1, K4 minus an edge, then seeded connected G(n, 1/2) graphs, n <= 7."""
    yield Graph(1)
    yield Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
    rng = random.Random(2005)
    for n in range(3, 8):
        for _ in range(2):
            yield random_connected_graph(n, rng)


def graph_id(g):
    return f"n{g.n}-" + ",".join(f"{u}{v}" for u, v in g.sorted_edges())


def as_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


def ascending_coeffs(expr, var):
    """Integer coefficients of a sympy polynomial, lowest degree first."""
    return [int(c) for c in reversed(sympy.Poly(sympy.expand(expr), var).all_coeffs())]


@pytest.mark.parametrize("g", list(seeded_graphs()), ids=graph_id)
def test_chromatic_matches_networkx(g):
    want = ascending_coeffs(nx.chromatic_polynomial(as_networkx(g)), x)
    assert chromatic_poly_from_forests(g).to_list() == want


@pytest.mark.parametrize("g", list(seeded_graphs()), ids=graph_id)
def test_eta_matches_tutte_specialization(g):
    """eta(t) = t^(n-1) T(1, 1+t): T(1, y) sums (y-1)^(|A|-n+1) over the
    connected spanning edge sets A."""
    tutte = sympy.sympify(nx.tutte_polynomial(as_networkx(g)))
    eta = t ** (g.n - 1) * tutte.subs({x: 1, y: 1 + t}, simultaneous=True)
    assert connected_subgraph_poly_from_trees(g).to_list() == ascending_coeffs(eta, t)


@pytest.mark.parametrize("g", list(seeded_graphs()), ids=graph_id)
def test_trees_only_fibers_count_spanning_trees(g, tmp_path, capsys):
    """Every spanning tree collapses to one supported increasing tree, so
    the --trees-only fiber sizes add up to networkx's spanning-tree count."""
    path = tmp_path / "g.txt"
    path.write_text(format_graph(g))
    assert main(["fibers", str(path), "--trees-only"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert sum(int(r["fiber_size"]) for r in records) == \
        round(nx.number_of_spanning_trees(as_networkx(g)))
