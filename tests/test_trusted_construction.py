"""The library builds the graphs and colourings it generates itself without
validating them again; each direct path must give exactly what the
validating constructors give on the same data."""

import numpy as np
import pytest

from ramseykit import (
    AdversarySpec,
    ArrowQuery,
    EdgeColouring,
    OrderedGraph,
    WeightedGraph,
    arrows_mono,
    canonical_arrow_exhaustive,
    clean_subgraph,
    generate_colouring,
    gnp_generate,
    read_weighted,
    sample_graph_from_weights,
    verify_properness,
    write_weighted,
)
from ramseykit.adversaries import KINDS

# vertex counts on either side of the byte and 64-bit word boundaries of a
# bitset row (bits 0..n): rows of n = 127 fill two words, n = 128 starts a third
SIZES = (1, 2, 7, 8, 9, 63, 64, 65, 120, 127, 128, 129)

SPECS = {
    "RandomR": AdversarySpec("RandomR", r=3, seed=4),
    "Injective": AdversarySpec("Injective"),
    "MinOrder": AdversarySpec("MinOrder"),
    "MaxOrder": AdversarySpec("MaxOrder"),
    "GreedyProper": AdversarySpec("GreedyProper"),
    "BoundedRandom": AdversarySpec("BoundedRandom", r=2, lam=1, seed=4),
}


def assert_same_graph(graph):
    """``graph`` equals its validated rebuild, bitset row by row."""
    rebuilt = OrderedGraph(graph.n, graph.edges)
    assert graph == rebuilt
    assert graph._adj == rebuilt._adj
    assert graph._us.tolist() == rebuilt._us.tolist() and graph._vs.tolist() == rebuilt._vs.tolist()
    assert all(type(x) is int for edge in graph.edges for x in edge)


def greedy_reference(graph):
    """Least colour absent at both endpoints, with one colour set per vertex."""
    used = {v: set() for v in graph.vertices}
    colours = {}
    for u, v in graph.edges:
        c = 0
        while c in used[u] or c in used[v]:
            c += 1
        colours[(u, v)] = c
        used[u].add(c)
        used[v].add(c)
    return colours


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p", (0.0, 0.3, 1.0))
def test_gnp_matches_validated_graph(n, p):
    assert_same_graph(gnp_generate(n, p, 11).graph)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p", (0.0, 0.3, 1.0))
def test_weighted_sample_matches_validated_graph(n, p):
    # one probability per pair, spread around p and clipped to [0, 1]
    rng = np.random.default_rng(n)
    upper = np.triu(np.clip(p + rng.uniform(-0.3, 0.3, (n, n)), 0.0, 1.0), 1)
    assert_same_graph(sample_graph_from_weights(WeightedGraph(upper + upper.T), 11))


@pytest.mark.parametrize("n", SIZES)
def test_complete_matches_validated_graph(n):
    graph = OrderedGraph.complete(n)
    assert_same_graph(graph)
    assert graph.is_complete()


def test_complete_rejects_empty_vertex_set():
    with pytest.raises(ValueError):
        OrderedGraph.complete(0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n,p", [(1, 0.5), (9, 1.0), (40, 0.3), (65, 0.2)])
def test_adversary_matches_validated_colouring(kind, n, p):
    graph = gnp_generate(n, p, 3).graph
    phi = generate_colouring(graph, SPECS[kind])
    assert phi == EdgeColouring(graph, dict(phi.items()))
    assert all(type(c) is int and c >= 0 for _, c in phi.items())


# greedy colours K_70 and K_130 up to colours 126 and 254, past the first
# and second 64-bit word of a colour set; on K_n with n = 2^k + 1 it uses
# colour 2n - 4 = 2 Delta - 2, the most any greedy colouring on n vertices
# can use, so the bit table is read at its top
@pytest.mark.parametrize("n,p,seed", [(9, 1.0, 0), (30, 0.4, 1), (80, 0.25, 2), (120, 0.1, 3),
                                      (70, 1.0, 0), (130, 1.0, 0),
                                      (5, 1.0, 0), (17, 1.0, 0), (65, 1.0, 0), (129, 1.0, 0)])
def test_greedy_proper_matches_set_reference(n, p, seed):
    graph = gnp_generate(n, p, seed).graph
    phi = generate_colouring(graph, AdversarySpec("GreedyProper"))
    assert dict(phi.items()) == greedy_reference(graph)
    assert verify_properness(phi)
    if p == 1.0 and (n - 1) & (n - 2) == 0:
        assert max(phi.colours()) == 2 * n - 4


@pytest.mark.parametrize("ell", (4, 5))
@pytest.mark.parametrize("n,p,seed", [(7, 1.0, 0), (12, 0.8, 0), (15, 0.8, 1), (16, 0.7, 1),
                                      (30, 0.5, 2), (63, 0.4, 3), (64, 0.4, 4),
                                      (127, 0.4, 5), (128, 0.4, 6), (129, 0.4, 7)])
def test_clean_subgraph_rows_match_validated_graph(ell, n, p, seed):
    graph = gnp_generate(n, p, seed).graph
    cleaned = clean_subgraph(graph, ell)
    assert cleaned.edge_count < graph.edge_count  # the scan removed something
    assert_same_graph(cleaned)


def test_relabel_dense_matches_validated_colouring():
    graph = gnp_generate(20, 0.5, 6).graph
    dense = generate_colouring(graph, AdversarySpec("RandomR", r=50, seed=1)).relabel_dense()
    assert dense == EdgeColouring(graph, dict(dense.items()))
    firsts = list(dict.fromkeys(c for _, c in dense.items()))
    assert firsts == list(range(len(firsts)))


@pytest.mark.parametrize("graph", [OrderedGraph.complete(5), OrderedGraph(4, [(1, 2), (2, 3)])])
def test_arrow_certificate_matches_validated_colouring(graph):
    witness = arrows_mono(graph, ArrowQuery(3, 2)).witness
    assert witness == EdgeColouring(graph, dict(witness.items()))


def test_exhaustive_counterexample_matches_validated_colouring():
    graph = OrderedGraph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    outcome = canonical_arrow_exhaustive(graph, 3)
    assert not outcome.holds
    phi = outcome.counterexample
    assert phi == EdgeColouring(graph, dict(phi.items()))


def test_weighted_arithmetic_matches_validated_weights(tmp_path):
    rng = np.random.default_rng(3)
    upper = np.triu(rng.uniform(-1.0, 1.0, size=(9, 9)), 1)
    f = WeightedGraph(upper + upper.T)
    g = WeightedGraph.indicator(gnp_generate(9, 0.5, 2).graph, scale=0.5)
    path = tmp_path / "w.txt"
    write_weighted(f, str(path))
    for got in (g, f - g, f + g, f * 3.0, -2 * g, read_weighted(str(path))):
        rebuilt = WeightedGraph(got.w)
        assert got.n == rebuilt.n == 9
        assert got.w.dtype == np.float64 and np.array_equal(got.w, rebuilt.w)
