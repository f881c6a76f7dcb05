"""count_cliques and enumerate_cliques against networkx's clique enumeration."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import OrderedGraph, count_cliques, enumerate_cliques

nx = pytest.importorskip("networkx")


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    # OR-ing k uniform masks keeps each pair with probability 1 - 2^-k
    mask = 0
    for _ in range(draw(st.integers(1, 3))):
        mask |= draw(st.integers(0, 2 ** len(pairs) - 1))
    return OrderedGraph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


def networkx_cliques(graph, ell, within):
    g = nx.Graph()
    g.add_nodes_from(graph.vertices)
    g.add_edges_from(graph.edges)
    if within is not None:
        g = g.subgraph(within)
    return sorted(tuple(sorted(c)) for c in nx.enumerate_all_cliques(g) if len(c) == ell)


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.integers(2, 5), st.data())
def test_cliques_match_networkx(graph, ell, data):
    within = data.draw(st.none() | st.sets(st.integers(1, graph.n)))
    expected = networkx_cliques(graph, ell, within)
    assert list(enumerate_cliques(graph, ell, within)) == expected
    assert count_cliques(graph, ell, within) == len(expected) * math.factorial(ell)
