import hashlib
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseykit import (
    OrderedGraph,
    WeightedGraph,
    clean_subgraph,
    count_cliques,
    degree_into,
    edge_count_between,
    enumerate_cliques,
    gnp_generate,
    read_graph,
    sample_graph_from_weights,
    write_graph,
)
from ramseykit import graphs
from ramseykit.graphs import _pair_table


def brute_cliques(graph, ell):
    """Independent oracle: test all vertex subsets directly."""
    out = []
    for subset in itertools.combinations(graph.vertices, ell):
        if all(graph.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
            out.append(subset)
    return out


def brute_clean(graph, ell):
    """Independent oracle for the lexicographic cleaning scan: list every
    K_ell through the edge by testing vertex subsets directly; two of them
    share >= 3 vertices iff their parts outside the edge meet."""
    edges = set(graph.edges)

    def is_clique(vertices):
        return all(pair in edges for pair in itertools.combinations(sorted(vertices), 2))

    for u, v in graph.edges:
        others = [w for w in graph.vertices if w not in (u, v)]
        through = [set(rest) for rest in itertools.combinations(others, ell - 2)
                   if is_clique(rest + (u, v))]
        if any(a & b for a, b in itertools.combinations(through, 2)):
            edges.discard((u, v))
    return OrderedGraph(graph.n, edges)


@st.composite
def graphs_with_mask(draw):
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    # a uniform mask keeps each pair with probability 1/2; AND-ing (OR-ing)
    # j more masks into it lowers (raises) that to 2^-(j+1) (1 - 2^-(j+1))
    sparse = draw(st.booleans())
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    for _ in range(draw(st.integers(0, 2))):
        other = draw(st.integers(0, 2 ** len(pairs) - 1))
        mask = mask & other if sparse else mask | other
    graph = OrderedGraph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])
    return graph, draw(st.integers(0, 2 ** n - 1)) << 1


def under_first_edge(n, edges):
    """Graph on {1,...,n+2}: ``edges`` on {1,...,n} moved up to {3,...,n+2},
    plus the edge (1, 2) and every edge from 1 and from 2 to the moved
    vertices.  (1, 2) comes first in the cleaning scan, so its common
    neighbourhood there is exactly the moved graph."""
    moved = [(a + 2, b + 2) for a, b in edges]
    joins = [(a, w) for a in (1, 2) for w in range(3, n + 3)]
    return OrderedGraph(n + 2, [(1, 2), *moved, *joins])


class TestGnp:
    def test_p_zero_is_empty(self):
        assert gnp_generate(5, 0.0, 7).graph.edge_count == 0

    def test_p_one_is_complete(self):
        g = gnp_generate(5, 1.0, 7).graph
        assert g == OrderedGraph.complete(5)

    def test_determinism(self):
        a = gnp_generate(100, 0.3, 42).graph
        b = gnp_generate(100, 0.3, 42).graph
        assert a.edges == b.edges

    def test_seed_changes_sample(self):
        a = gnp_generate(50, 0.4, 1).graph
        b = gnp_generate(50, 0.4, 2).graph
        assert a.edges != b.edges

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            gnp_generate(5, 1.5, 0)

    def test_mean_k4_count_within_5_percent(self):
        # Monte Carlo mean of the labeled K4 count vs the expectation formula
        expected = 64 * 63 * 62 * 61 * 0.5**6
        total = sum(count_cliques(gnp_generate(64, 0.5, s).graph, 4) for s in range(200))
        assert abs(total / 200 - expected) <= 0.05 * expected


def reference_sample(n, probs, seed):
    """Independent oracle for the draw contract: one PCG64(seed).random()
    per pair in lexicographic order, the pair kept iff its draw is below its
    probability.  Returns the edge list and the bitset rows."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    probs = np.broadcast_to(probs, (len(pairs),)).tolist()
    edges = [pair for pair, q in zip(pairs, probs) if rng.random() < q]
    adj = [0] * (n + 1)
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return edges, adj


def assert_sampled(graph, n, probs, seed):
    edges, adj = reference_sample(n, probs, seed)
    assert graph.n == n
    assert type(graph.edges) is tuple and graph.edges == tuple(edges)
    assert graph._adj == adj
    assert graph._us.tolist() == [u for u, _ in edges]
    assert graph._vs.tolist() == [v for _, v in edges]


probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
seeds = st.integers(0, 2**63 - 1)


class TestPairSampling:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), probabilities, seeds)
    def test_gnp_matches_reference(self, n, p, seed):
        assert_sampled(gnp_generate(n, p, seed).graph, n, p, seed)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), seeds, seeds, probabilities)
    def test_weights_match_reference(self, n, seed, weight_seed, share):
        # per-pair probabilities: uniform values, with a share of them set to 0 or 1
        rng = np.random.default_rng(weight_seed)
        upper = np.triu(rng.random((n, n)), 1)
        upper[rng.random((n, n)) < share] = 0.0
        upper[np.triu(rng.random((n, n)) < share / 2, 1)] = 1.0
        probs = upper[np.triu_indices(n, 1)]
        graph = sample_graph_from_weights(WeightedGraph(upper + upper.T), seed)
        assert_sampled(graph, n, probs, seed)

    def test_pair_table_is_read_only_and_bounded(self, monkeypatch):
        monkeypatch.setattr(graphs, "_pair_tables", {})

        def held():
            return sum(len(us) for us, *_ in graphs._pair_tables.values())

        for n in (1000, 60, 120, 7):
            us, vs, pairs, slots = _pair_table(n)
            for table in (us, vs, pairs, slots):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0] = table[1]
            want = list(itertools.combinations(range(1, n + 1), 2))
            assert pairs.tolist() == want and list(zip(us.tolist(), vs.tolist())) == want
            # bit v of row u, then bit u of row v, in rows of whole 64-bit words
            rows, cols = np.divmod(slots, 64 * (n // 64 + 1))
            assert rows.tolist() == [[u, v] for u, v in want]
            assert cols.tolist() == [[v, u] for u, v in want]
            assert held() <= graphs._PAIR_CAP
        assert list(graphs._pair_tables) == [1000, 60, 120, 7]
        # a smaller cap drops the least recently used n first, and its bit
        # positions with it
        monkeypatch.setattr(graphs, "_pair_tables", {})
        monkeypatch.setattr(graphs, "_PAIR_CAP", 120)
        slots = weakref.ref(_pair_table(10)[3])
        for n, cached in [(10, [10]), (12, [10, 12]), (10, [12, 10]), (8, [10, 8]),
                          (16, [16]), (17, [])]:
            assert _pair_table(n)[2].tolist() == list(itertools.combinations(range(1, n + 1), 2))
            assert list(graphs._pair_tables) == cached
            assert (slots() is None) == (10 not in cached)
        for n in range(1, 30):
            _pair_table(n)
            assert held() <= 120

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_unchanged(self, n):
        graph = OrderedGraph.complete(n)
        expected = OrderedGraph(n, itertools.combinations(range(1, n + 1), 2))
        assert type(graph.edges) is tuple and graph.edges == expected.edges
        assert graph._adj == expected._adj
        assert graph._us.tolist() == expected._us.tolist()
        assert graph._vs.tolist() == expected._vs.tolist()


class TestCliques:
    def test_triangle_count_k3(self):
        assert count_cliques(OrderedGraph.complete(3), 3) == 6

    def test_triangle_count_k4(self):
        assert count_cliques(OrderedGraph.complete(4), 3) == 24

    def test_enumerate_k4(self):
        assert list(enumerate_cliques(OrderedGraph.complete(4), 4)) == [(1, 2, 3, 4)]

    def test_cycle_is_triangle_free(self):
        c5 = OrderedGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert list(enumerate_cliques(c5, 3)) == []

    def test_k5_minus_edge(self):
        edges = [e for e in OrderedGraph.complete(5).edges if e != (1, 2)]
        g = OrderedGraph(5, edges)
        assert list(enumerate_cliques(g, 4)) == [(1, 3, 4, 5), (2, 3, 4, 5)]

    def test_stream_matches_brute_force(self):
        for seed in range(5):
            g = gnp_generate(12, 0.5, seed).graph
            for ell in (3, 4):
                assert list(enumerate_cliques(g, ell)) == brute_cliques(g, ell)

    def test_count_is_factorial_times_stream(self):
        for seed in range(5):
            g = gnp_generate(14, 0.4, seed).graph
            for ell in (2, 3, 4):
                stream = sum(1 for _ in enumerate_cliques(g, ell))
                assert count_cliques(g, ell) == stream * math.factorial(ell)

    def test_lexicographic_order(self):
        g = gnp_generate(12, 0.6, 3).graph
        tuples = list(enumerate_cliques(g, 3))
        assert tuples == sorted(tuples)

    def test_within_restriction(self):
        g = OrderedGraph.complete(6)
        assert list(enumerate_cliques(g, 3, [2, 4, 5])) == [(2, 4, 5)]

    def test_within_matches_brute_force(self):
        g = gnp_generate(14, 0.5, 6).graph
        us = [1, 3, 5, 7, 9, 11, 13]
        got = list(enumerate_cliques(g, 3, us))
        expected = [t for t in brute_cliques(g, 3) if set(t) <= set(us)]
        assert got == expected
        assert count_cliques(g, 3, us) == 6 * len(expected)

    def test_rejects_small_ell(self):
        with pytest.raises(ValueError):
            count_cliques(OrderedGraph.complete(3), 1)

    @settings(max_examples=300, deadline=None)
    @given(graphs_with_mask(), st.integers(1, 5), st.integers(0, 2 ** 16))
    # a star K_{1,3}: at need 3 its centre has enough candidates by count,
    # so admit sees it although no triangle completes
    @example((OrderedGraph(4, [(1, 2), (1, 3), (1, 4)]), 0b11110), 3, 1)
    def test_admit_asked_only_where_the_count_can_complete(self, graph_and_mask, need, salt):
        graph, mask = graph_and_mask
        adj = graph._adj

        def refuses(prefix, v):  # deterministic pseudo-random refusals, about 1 in 3
            return hash((salt, *prefix, v)) % 3 == 0

        calls = []

        def admit(prefix, v):
            calls.append((*prefix, v))
            return not refuses(prefix, v)

        def admitted(tup, steps):  # were the first ``steps`` steps to tup admitted?
            return not any(refuses(tup[:j], tup[j]) for j in range(steps))

        plain = list(graphs._extend_cliques(adj, mask, need))
        got = list(graphs._extend_cliques(adj, mask, need, admit))
        assert got == [t for t in plain if admitted(t, need)]

        # admit sees prefix + [v] iff it is a clique in the mask whose earlier
        # steps were admitted and, below the last level, with at least the
        # missing number of common neighbours above v; pre-order is tuple order
        members = [v for v in graph.vertices if mask >> v & 1]
        expected = []
        for k in range(1, need + 1):
            for tup in itertools.combinations(members, k):
                if not all(adj[a] >> b & 1 for a, b in itertools.combinations(tup, 2)):
                    continue
                above = [w for w in members if w > tup[-1] and all(adj[u] >> w & 1 for u in tup)]
                if (k == need or len(above) >= need - k) and admitted(tup, k - 1):
                    expected.append(tup)
        assert calls == sorted(expected)
        # with at most one vertex left to add after v the count is exact:
        # every such call extends to a clique of the stream without admit
        for call in calls:
            if len(call) >= need - 1:
                assert any(t[:len(call)] == call for t in plain)


class TestEdgeCounts:
    def test_double_counting_inside_intersection(self):
        assert edge_count_between(OrderedGraph.complete(3), [1, 2, 3], [1, 2, 3]) == 6

    def test_empty_side(self):
        assert edge_count_between(OrderedGraph.complete(4), [], [1, 2, 3, 4]) == 0

    def test_path(self):
        path = OrderedGraph(3, [(1, 2), (2, 3)])
        assert edge_count_between(path, [1, 3], [2]) == 2

    def test_degree_into(self):
        k4 = OrderedGraph.complete(4)
        assert degree_into(k4, 1, [2, 3, 4]) == 3
        assert degree_into(k4, 1, [1]) == 0
        star = OrderedGraph(6, [(1, v) for v in range(2, 7)])
        assert degree_into(star, 1, [2, 3]) == 2


class TestCleanSubgraph:
    def test_ell_3_is_identity(self):
        for seed in range(3):
            g = gnp_generate(20, 0.4, seed).graph
            assert clean_subgraph(g, 3) == g

    def test_ell_3_returns_input(self):
        g = gnp_generate(20, 0.4, 0).graph
        assert clean_subgraph(g, 3) is g

    @settings(max_examples=300, deadline=None)
    @given(graphs_with_mask().map(lambda graph_and_common: graph_and_common[0]),
           st.sampled_from([4, 5, 6]))
    # the scan's conflict test at the first edge (1, 2).  At ell = 4 the
    # common neighbourhood induces a path (its middle vertex has two
    # neighbours there, each end one), one edge beside an isolated vertex,
    # or two disjoint edges.  At ell = 5 it induces a triangle, so each
    # vertex's link holds exactly one edge and (1, 2) is kept, or a vertex
    # joined to a path, whose link holds two edges, so (1, 2) is removed
    @example(under_first_edge(3, [(1, 2), (2, 3)]), 4)
    @example(under_first_edge(3, [(1, 3)]), 4)
    @example(under_first_edge(4, [(1, 2), (3, 4)]), 4)
    @example(under_first_edge(3, [(1, 2), (1, 3), (2, 3)]), 5)
    @example(under_first_edge(4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]), 5)
    def test_matches_brute_force_at_every_density(self, graph, ell):
        assert clean_subgraph(graph, ell) == brute_clean(graph, ell)

    def test_k5_ell4_regression(self):
        # frozen from a direct simulation of the lexicographic scan
        cleaned = clean_subgraph(OrderedGraph.complete(5), 4)
        dropped = set(OrderedGraph.complete(5).edges) - set(cleaned.edges)
        assert dropped == {(1, 2), (3, 4)}

    def test_triangle_free_unchanged(self):
        c7 = OrderedGraph(7, [(i, i + 1) for i in range(1, 7)] + [(1, 7)])
        assert clean_subgraph(c7, 4) == c7

    def test_monotone_and_idempotent(self):
        for seed in range(5):
            g = gnp_generate(40, 0.3, seed).graph
            cleaned = clean_subgraph(g, 4)
            assert set(cleaned.edges) <= set(g.edges)
            assert clean_subgraph(cleaned, 4) == cleaned
            assert clean_subgraph(g, 4) == cleaned

    @pytest.mark.parametrize("ell", [4, 5, 6])
    def test_matches_brute_force_scan(self, ell):
        for seed in range(6):
            g = gnp_generate(11 + seed % 3, 0.65 + 0.05 * seed, seed).graph
            assert clean_subgraph(g, ell) == brute_clean(g, ell), f"seed {seed}"

    @pytest.mark.parametrize("n", [20, 30, 40])
    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_ell_4_matches_brute_force_on_gnp(self, n, p):
        for seed in range(3):
            g = gnp_generate(n, p, seed).graph
            assert clean_subgraph(g, 4) == brute_clean(g, 4), f"seed {seed}"

    # sha256 of the cleaned edge tuples at seeds 0-2, per (ell, criterion-07
    # cell) at p = C n^(-2/(ell+1)): the order in which the scan walks a
    # common neighbourhood must not change which edges it removes, and
    # brute_clean cannot reach n = 120
    CELL_DIGESTS = {
        (4, 60, 0.3): "fba10a3d9fccbef2",
        (4, 60, 0.6): "f9e78fb475f3ff4e",
        (4, 60, 1.0): "2569ceb3408e7078",
        (4, 60, 1.5): "3a59c1c6f166011f",
        (4, 60, 2.5): "0dae6bc29a8a6665",
        (4, 120, 0.3): "51563b0537d49b32",
        (4, 120, 0.6): "866a80199cd5557d",
        (4, 120, 1.0): "3c61d092daf36c30",
        (4, 120, 1.5): "dee9a4a1acc4619d",
        (4, 120, 2.5): "e2de833ae90f3311",
        (5, 60, 0.3): "bb88d13dc11bc82d",
        (5, 60, 0.6): "f24dd75627a63adc",
        (5, 60, 1.0): "bb7928a293faf5c0",
        (5, 60, 1.5): "7852037e7efd62ad",
        (5, 60, 2.5): "cceb930a73ee1178",
        (5, 120, 0.3): "c301de6c2adf5e23",
        (5, 120, 0.6): "6177bfef0f5ff061",
        (5, 120, 1.0): "9cdbdd97adf3d2cc",
        (5, 120, 1.5): "d7d14594cf87dc06",
        (5, 120, 2.5): "79e46fb393c179f4",
        (6, 60, 0.3): "adefdec5e474b9db",
        (6, 60, 0.6): "e278b4c45b01e79a",
        (6, 60, 1.0): "7062cd8a86a75bf5",
        (6, 60, 1.5): "30e5028237fda0fc",
        (6, 60, 2.5): "30ff842169ec27d4",
        (6, 120, 0.3): "9794dc6007bf466f",
        (6, 120, 0.6): "365075f1e3ff6d1a",
        (6, 120, 1.0): "c94f961b366c6d48",
        (6, 120, 1.5): "4b742646402b926b",
        (6, 120, 2.5): "8fafcef8e8a06216",
    }

    @pytest.mark.parametrize("cell", sorted(CELL_DIGESTS))
    def test_criterion_07_cells_pinned(self, cell):
        ell, n, c = cell
        digest = hashlib.sha256()
        for seed in range(3):
            cleaned = clean_subgraph(gnp_generate(n, c * n ** (-2 / (ell + 1)), seed).graph, ell)
            digest.update(repr(cleaned.edges).encode())
        assert digest.hexdigest()[:16] == self.CELL_DIGESTS[cell]

    def test_structural_invariants(self):
        for seed in range(5):
            g = gnp_generate(35, 0.35, seed).graph
            cleaned = clean_subgraph(g, 4)
            assert count_cliques(cleaned, 5) == 0
            masks = []
            for tup in enumerate_cliques(cleaned, 4):
                mask = 0
                for v in tup:
                    mask |= 1 << v
                masks.append(mask)
            for a, b in itertools.combinations(masks, 2):
                assert (a & b).bit_count() < 3


class TestGraphIO:
    def test_round_trip(self, tmp_path):
        g = gnp_generate(15, 0.4, 9).graph
        path = tmp_path / "g.txt"
        write_graph(g, str(path))
        assert read_graph(str(path)) == g

    def test_writer_emits_sorted(self, tmp_path):
        g = OrderedGraph(4, [(3, 4), (1, 2)])
        path = tmp_path / "g.txt"
        write_graph(g, str(path))
        assert path.read_text() == "4 2\n1 2\n3 4\n"

    def test_reader_accepts_unsorted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 2\n3 4\n2 1\n")
        assert read_graph(str(path)).edges == ((1, 2), (3, 4))

    @pytest.mark.parametrize("order", ["shuffled", "reversed", "empty"])
    def test_reader_builds_what_the_constructor_builds(self, tmp_path, order):
        edges = list(gnp_generate(14, 0.5, 2).graph.edges)
        if order == "shuffled":
            np.random.default_rng(0).shuffle(edges)
        elif order == "reversed":
            edges = [(v, u) for u, v in reversed(edges)]
        else:
            edges = []
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in [(14, len(edges)), *edges]))
        got, want = read_graph(str(path)), OrderedGraph(14, edges)
        assert got == want
        assert got._adj == want._adj
        for name in ("_us", "_vs"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_reader_rejects_duplicate(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 2\n1 2\n2 1\n")
        with pytest.raises(ValueError, match="line 3"):
            read_graph(str(path))

    def test_reader_rejects_loop(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 1\n2 2\n")
        with pytest.raises(ValueError, match="loop"):
            read_graph(str(path))

    def test_reader_counts_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 1\n\n1 1\n")
        with pytest.raises(ValueError, match="line 3: loop"):
            read_graph(str(path))

    def test_reader_names_line_of_non_integer_token(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 1\n1 x\n")
        with pytest.raises(ValueError, match="line 2"):
            read_graph(str(path))

    def test_reader_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 1\n1 5\n")
        with pytest.raises(ValueError, match=r"^line 2: edge \(1, 5\) outside \{1,...,4\}$"):
            read_graph(str(path))

    def test_reader_rejects_header_mismatch(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 3\n1 2\n3 4\n")
        with pytest.raises(ValueError, match="announces"):
            read_graph(str(path))

    @pytest.mark.parametrize("text, line", [("0 0\n", 1), ("\n-1 0\n", 2)])
    def test_reader_names_line_of_empty_vertex_set(self, tmp_path, text, line):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}: vertex count must be >= 1"):
            read_graph(str(path))


class TestOrderedGraph:
    # the constructor and read_graph share one edge check: the same
    # messages, the reader's with a "line k: " prefix
    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="^loop at vertex 1$"):
            OrderedGraph(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
            OrderedGraph(3, [(1, 2), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"^edge \(1, 4\) outside \{1,...,3\}$"):
            OrderedGraph(3, [(4, 1)])

    def test_adjacency_masks(self):
        g = OrderedGraph(4, [(1, 2), (2, 4)])
        assert g.adjacency(2) == (1 << 1) | (1 << 4)
        assert g.degree(2) == 2
        assert g.has_edge(4, 2)
        assert not g.has_edge(1, 4)

    @pytest.mark.parametrize("u,v", [(-1, 2), (2, -1), (0, 1), (5, 1), (1, 5), (4, 4)])
    def test_has_edge_false_outside_vertex_set(self, u, v):
        # a negative index must not wrap around to vertex n
        assert not OrderedGraph.complete(3).has_edge(u, v)
