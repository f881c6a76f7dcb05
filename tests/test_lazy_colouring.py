"""GreedyProper is coloured on demand: reading row v colours the edge prefix
whose first endpoint is at most v, and a reader of the whole matrix colours
the rest.  Whatever is read, in whatever order, must equal the eager greedy
colouring, and the rainbow search must explore exactly the nodes it did
when it read rows from depth 0."""

import copy
import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseykit import (
    AdversarySpec,
    EdgeColouring,
    ErConstants,
    ExperimentConfig,
    OrderedGraph,
    build_sequence,
    clean_subgraph,
    enumerate_cliques,
    find_canonical_copy,
    find_rainbow_copy,
    generate_colouring,
    gnp_generate,
    max_colour_multiplicity,
    run_sweep,
    verify_corollary_mode,
    write_colouring,
)
from ramseykit.graphs import _extend_cliques, vertex_mask


def eager_greedy(graph):
    """The eager greedy loop: edge by edge, the least colour absent at both ends."""
    used = [0] * (graph.n + 1)
    colours = []
    for u, v in graph.edges:
        taken = used[u] | used[v]
        least = ~taken & (taken + 1)
        colours.append(least.bit_length() - 1)
        used[u] |= least
        used[v] |= least
    return colours


def colour_matrix(graph, colours):
    matrix = np.full((graph.n + 1, graph.n + 1), -1, dtype=np.int64)
    matrix[graph._us, graph._vs] = colours
    matrix[graph._vs, graph._us] = colours
    return matrix


def reference_rainbow(phi, ell, within=None):
    """find_rainbow_copy whose admit reads the prefix rows at every depth;
    returns the first rainbow tuple (or None) and the nodes explored."""
    rows = phi._rows
    nodes = 0
    used = [frozenset()] * (ell + 1)

    def admit(prefix, v):
        nonlocal nodes
        nodes += 1
        seen = used[len(prefix)]
        grown = seen.union([rows[u][v] for u in prefix])
        if len(grown) != len(seen) + len(prefix):
            return False
        used[len(prefix) + 1] = grown
        return True

    mask = vertex_mask(phi.host, within)
    return next(_extend_cliques(phi.host._adj, mask, ell, admit), None), nodes


def written(phi):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "phi.txt")
        write_colouring(phi, path)
        with open(path) as f:
            return f.read()


# each reader colours every remaining edge before it returns
READERS = {
    "items": lambda phi: list(phi.items()),
    "colours": lambda phi: phi.colours(),
    "eq": lambda phi: phi == EdgeColouring._trusted(phi.host, eager_greedy(phi.host)),
    "relabel_dense": lambda phi: list(phi.relabel_dense().items()),
    "build_sequence": lambda phi: build_sequence(phi, ErConstants.for_clique(3)),
    "max_colour_multiplicity": max_colour_multiplicity,
    "write_colouring": written,
    "pickle": lambda phi: list(pickle.loads(pickle.dumps(phi)).items()),
    "deepcopy": lambda phi: list(copy.deepcopy(phi).items()),
}

densities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def graphs(draw, max_n=40):
    return gnp_generate(draw(st.integers(1, max_n)), draw(densities),
                        draw(st.integers(0, 2**32))).graph


# a proper colouring gives a clique on three or more vertices no strict tag
# but rainbow, so both searches read the same rows of a GreedyProper colouring
SEARCHES = (find_rainbow_copy, find_canonical_copy)


def lazy_greedy(graph):
    return generate_colouring(graph, AdversarySpec("GreedyProper"))


class TestLazyGreedy:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), graph=graphs())
    @example(data=None, graph=OrderedGraph.complete(1))
    @example(data=None, graph=OrderedGraph.complete(40))
    @example(data=None, graph=OrderedGraph(40, []))
    def test_reads_match_eager_greedy(self, data, graph):
        n, m = graph.n, graph.edge_count
        colours = eager_greedy(graph)
        eager = EdgeColouring._trusted(graph, colours)
        matrix = colour_matrix(graph, colours)
        phi = lazy_greedy(graph)
        vertex = st.integers(-1, n + 1)
        reads = data.draw(st.lists(st.tuples(st.sampled_from(["row", "get", "colour"]),
                                             vertex, vertex), max_size=40)) if data else []
        deepest = 0  # the largest row index read so far
        for op, u, v in reads:
            if op == "row":
                if 0 <= u <= n:
                    assert phi._rows[u] == matrix[u].tolist()
                    deepest = max(deepest, u)
                continue
            if 1 <= u <= n and 1 <= v <= n:
                deepest = max(deepest, u)  # get and colour read row u
            if op == "get":
                assert phi.get(u, v) == eager.get(u, v)
            else:
                try:
                    expected = eager.colour(u, v)
                except (KeyError, ValueError) as exc:
                    expected = type(exc)
                try:
                    got = phi.colour(u, v)
                except (KeyError, ValueError) as exc:
                    got = type(exc)
                assert got == expected
            # only the prefix the rows read need is coloured
            assert phi._rows.filled == np.searchsorted(graph._us, deepest, "right")

        # build_sequence needs a complete host
        names = sorted(set(READERS) - (set() if graph.is_complete() else {"build_sequence"}))
        name = data.draw(st.sampled_from(names)) if data else "items"
        assert READERS[name](phi) == READERS[name](eager)
        assert phi._rows.source is None and phi._rows.filled == m
        assert np.array_equal(phi._matrix, matrix)
        assert all(phi._rows[v] == matrix[v].tolist() for v in range(n + 1))
        assert phi == eager

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), p=densities, seed=st.integers(0, 2**32),
           ell=st.sampled_from([None, 4, 5]))
    def test_same_colours_whether_or_not_edges_were_read(self, data, n, p, seed, ell):
        # ell None: G(n,p) itself; else its ell-clean subgraph
        def sample():
            graph = gnp_generate(n, p, seed).graph
            return graph if ell is None else clean_subgraph(graph, ell)

        unread, read = sample(), sample()
        edges = read.edges  # one graph's tuple is built before it is coloured
        assert read._edges is edges
        built = unread._edges is not None
        phi, psi = lazy_greedy(unread), lazy_greedy(read)
        for v in data.draw(st.lists(st.integers(0, n), max_size=n + 1)):
            assert phi._rows[v] == psi._rows[v]
        assert np.array_equal(phi._matrix, psi._matrix)
        assert np.array_equal(phi._matrix, colour_matrix(read, eager_greedy(read)))
        assert (unread._edges is not None) == built  # colouring built no tuple

    def test_rows_in_reverse_order_colour_once(self):
        graph = gnp_generate(30, 0.5, 7).graph
        phi = lazy_greedy(graph)
        matrix = colour_matrix(graph, eager_greedy(graph))
        assert phi._rows[graph.n] == matrix[graph.n].tolist()
        assert phi._rows.filled == graph.edge_count
        for v in range(graph.n - 1, 0, -1):
            assert phi._rows[v] == matrix[v].tolist()
        assert np.array_equal(phi._matrix, matrix)

    def test_vertex_outside_host_reads_no_row(self):
        graph = gnp_generate(60, 0.3, 1).graph
        phi = lazy_greedy(graph)
        for u, v in [(61, 2), (2, 61), (0, 2), (2, 0), (-1, 2), (2, -1)]:
            assert phi.get(u, v) is None
            with pytest.raises(KeyError):
                phi.colour(u, v)
        assert phi._rows.filled == 0 and not phi._rows

    def test_eager_colourings_have_no_source(self):
        graph = gnp_generate(12, 0.5, 1).graph
        phis = [generate_colouring(graph, spec)
                for spec in (AdversarySpec("RandomR", r=3), AdversarySpec("Injective"),
                             AdversarySpec("MinOrder"), AdversarySpec("MaxOrder"),
                             AdversarySpec("BoundedRandom", lam=2))]
        phis.append(EdgeColouring(graph, dict(phis[0].items())))
        for phi in phis:
            assert phi._rows.source is None and phi._rows.filled == graph.edge_count


class TestFlatFill:
    """The row store writes each slice through the flat matrix; the result
    is the 2-D fill at (u, v) and (v, u)."""

    @settings(max_examples=150, deadline=None)
    @given(graph=graphs(), seed=st.integers(0, 2**32),
           top=st.sampled_from([1, 5, 2**31, 2**63]))
    def test_matrix_matches_two_dimensional_fill(self, graph, seed, top):
        colours = np.random.default_rng(seed).integers(0, top, size=graph.edge_count,
                                                       dtype=np.int64)
        want = colour_matrix(graph, colours)
        for phi in (EdgeColouring._trusted(graph, colours),
                    EdgeColouring._trusted(graph, colours.tolist()),
                    EdgeColouring(graph, dict(zip(graph.edges, colours.tolist())))):
            assert np.array_equal(phi._matrix, want)
            assert list(phi.items()) == list(zip(graph.edges, colours.tolist()))
            assert phi.colours() == set(colours.tolist())
            back = pickle.loads(pickle.dumps(phi))
            assert back == phi and list(back.items()) == list(phi.items())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), graph=graphs())
    def test_rows_read_before_draining_are_final(self, data, graph):
        phi = lazy_greedy(graph)
        order = data.draw(st.lists(st.integers(0, graph.n), max_size=graph.n + 1))
        read = {v: list(phi._rows[v]) for v in order}
        phi._rows.drain()
        assert all(phi._matrix[v].tolist() == row for v, row in read.items())
        assert np.array_equal(phi._matrix, colour_matrix(graph, eager_greedy(graph)))


class TestRainbowSearchReads:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), graph=graphs(), ell=st.sampled_from([3, 4, 5]),
           r=st.one_of(st.none(), st.integers(1, 8)))
    @example(data=None, graph=OrderedGraph.complete(12), ell=4, r=None)
    @example(data=None, graph=OrderedGraph.complete(12), ell=5, r=3)
    @example(data=None, graph=OrderedGraph(12, []), ell=3, r=None)
    def test_same_witness_and_nodes_as_reading_every_depth(self, data, graph, ell, r):
        # r None: lazy GreedyProper; else RandomR with r colours, to prune often
        spec = AdversarySpec("GreedyProper") if r is None else AdversarySpec("RandomR", r=r, seed=5)
        within = None
        if data is not None and data.draw(st.booleans()):
            within = data.draw(st.sets(st.integers(1, graph.n)))
        if r is None:
            colours = eager_greedy(graph)
        else:
            colours = [c for _, c in generate_colouring(graph, spec).items()]
        eager = EdgeColouring._trusted(graph, colours)
        expected, nodes = reference_rainbow(eager, ell, within)
        outcome = find_rainbow_copy(generate_colouring(graph, spec), ell, within)
        assert outcome.nodes_explored == nodes
        assert outcome.found == (expected is not None)
        assert (outcome.witness.vertices if outcome.found else None) == expected

    def test_depth_below_two_reads_no_row(self):
        # a triangle-free graph gives the search no prefix of three vertices
        graph = OrderedGraph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
        for search in SEARCHES:
            phi = lazy_greedy(graph)
            outcome = search(phi, 3)
            assert not outcome.found and outcome.nodes_explored > 0
            assert phi._rows.filled == 0 and not phi._rows

    def test_triangles_in_no_k4_read_no_row(self):
        # the octahedron K_{2,2,2} has eight triangles and no K_4
        octahedron = OrderedGraph(6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)
                                      if (u, v) not in [(1, 2), (3, 4), (5, 6)]])
        assert list(enumerate_cliques(octahedron, 3)) and not list(enumerate_cliques(octahedron, 4))
        for search in SEARCHES:
            phi = lazy_greedy(octahedron)
            outcome = search(phi, 4)
            assert not outcome.found and outcome.nodes_explored > 0
            assert phi._rows.filled == 0 and not phi._rows

    def test_rows_read_only_up_to_the_k4s_third_vertex(self):
        # triangles below and above the only K_4, {9, 10, 11, 12}; greedy
        # colours it 0, 1, 2, 2, 1, 0, a pattern with no strict tag, so the
        # search goes on past it
        edges = [(1, 2), (1, 3), (2, 3), (3, 4), (2, 4), (5, 6), (5, 7), (6, 7),
                 (9, 10), (9, 11), (9, 12), (10, 11), (10, 12), (11, 12),
                 (12, 13), (12, 14), (12, 15), (13, 14), (13, 15), (14, 16), (15, 16)]
        graph = OrderedGraph(16, edges)
        assert list(enumerate_cliques(graph, 4)) == [(9, 10, 11, 12)]
        for search in SEARCHES:
            phi = lazy_greedy(graph)
            assert not search(phi, 4).found
            assert phi._rows.filled == sum(1 for u, _ in graph.edges if u <= 11)
            assert max(phi._rows) == 11


class TestSweepBuildsNoEdgeTuple:
    """A criterion-07 trial, rainbow or clean-mode canonical with its audit,
    reads the edges of its sampled and cleaned graphs only through their
    endpoint arrays; building the edge tuple as well would cost about 3% of
    a rainbow trial."""

    @pytest.mark.parametrize("seed", range(4))
    def test_search_leaves_the_tuple_unbuilt(self, seed):
        graph = gnp_generate(120, 2.5 * 120 ** (-2 / 5), seed).graph
        for search in SEARCHES:
            outcome = search(lazy_greedy(graph), 4)
            assert outcome.found
        assert graph._edges is None

    @pytest.mark.parametrize("mode", [{}, {"clean_mode": True, "predicate": "canonical"}],
                             ids=["rainbow", "clean-canonical"])
    def test_sweep_reads_no_edge_tuple(self, monkeypatch, mode):
        def refuse(graph):
            raise AssertionError("a sweep trial read the edge tuple")

        config = ExperimentConfig.from_json({
            "ell": 4, "n_grid": [60, 120], "c_grid": [1.0, 2.5],
            "adversary": {"kind": "GreedyProper"}, "trials": 5, "master_seed": 1, **mode})
        expected = run_sweep(config).records
        monkeypatch.setattr(OrderedGraph, "edges", property(refuse))
        records = run_sweep(config).records
        assert [r.witness for r in records] == [r.witness for r in expected]
        assert any(r.found for r in records)
        if mode:
            report = verify_corollary_mode(records)
            assert report.trials_checked == len(records)
