"""count_cliques and enumerate_cliques against networkx's clique enumeration."""

import functools
import itertools
import math
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseykit import OrderedGraph, count_cliques, enumerate_cliques

nx = pytest.importorskip("networkx")


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    # k uniform masks keep each pair with probability 1 - 2^-k when OR-ed
    # and 2^-k when AND-ed, so dense and sparse graphs are both drawn
    combine = draw(st.sampled_from([operator.or_, operator.and_]))
    masks = [draw(st.integers(0, 2 ** len(pairs) - 1)) for _ in range(draw(st.integers(1, 3)))]
    mask = functools.reduce(combine, masks)
    return OrderedGraph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


@st.composite
def graphs_and_vertex_sets(draw):
    graph = draw(small_graphs())
    return graph, draw(st.none() | st.sets(st.integers(1, graph.n)))


def networkx_cliques(graph, ell, within):
    g = nx.Graph()
    g.add_nodes_from(graph.vertices)
    g.add_edges_from(graph.edges)
    if within is not None:
        g = g.subgraph(within)
    return sorted(tuple(sorted(c)) for c in nx.enumerate_all_cliques(g) if len(c) == ell)


@settings(max_examples=200, deadline=None)
@given(graphs_and_vertex_sets(), st.integers(2, 5))
# a path, a star, a lone edge beside isolated vertices, and an edgeless graph
@example((OrderedGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]), None), 2)
@example((OrderedGraph(5, [(1, 2), (1, 3), (1, 4), (1, 5)]), {1, 2, 4}), 2)
@example((OrderedGraph(4, [(2, 3)]), None), 2)
@example((OrderedGraph(6), None), 2)
def test_cliques_match_networkx(case, ell):
    graph, within = case
    expected = networkx_cliques(graph, ell, within)
    assert list(enumerate_cliques(graph, ell, within)) == expected
    assert count_cliques(graph, ell, within) == len(expected) * math.factorial(ell)
