import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseykit import (
    AdversarySpec,
    ArrowQuery,
    EdgeColouring,
    OrderedGraph,
    PatternTag,
    ResourceLimitError,
    STRICT_TAGS,
    TooManyEdges,
    arrows_mono,
    canonical_arrow_exhaustive,
    classify_copy,
    enumerate_cliques,
    find_canonical_copy,
    find_rainbow_copy,
    generate_colouring,
    gnp_generate,
    restricted_growth_strings,
    witness_for,
)
from ramseykit.colouring import _TAG_SETS, _tags
from ramseykit.graphs import bits
from ramseykit.search import (
    DEFAULT_NODE_BUDGET,
    ArrowOutcome,
    ExhaustiveArrowOutcome,
    SearchOutcome,
    _clique_edges,
)


def brute_arrows(graph, ell, r):
    """Oracle: enumerate all r^|E| colourings directly."""
    edges = graph.edges
    cliques = [
        tuple(
            edges.index((t[i], t[j]))
            for i in range(len(t))
            for j in range(i + 1, len(t))
        )
        for t in enumerate_cliques(graph, ell)
    ]
    if not cliques:
        return False
    for assignment in itertools.product(range(r), repeat=len(edges)):
        if not any(len({assignment[e] for e in cl}) == 1 for cl in cliques):
            return False
    return True


class TestFindCanonical:
    def test_mono_clique_found(self):
        host = OrderedGraph.complete(5)
        phi = EdgeColouring(host, {e: 2 for e in host.edges})
        out = find_canonical_copy(phi, 4)
        assert out.found
        assert PatternTag.MONOCHROMATIC in out.witness.tags

    def test_triangle_free_not_found(self):
        c6 = OrderedGraph(6, [(i, i + 1) for i in range(1, 6)] + [(1, 6)])
        phi = generate_colouring(c6, AdversarySpec("Injective"))
        assert not find_canonical_copy(phi, 3).found

    def test_k4_mixed_fixture(self):
        host = OrderedGraph.complete(4)
        phi = EdgeColouring(host, {(1, 2): 1, (1, 3): 2, (2, 3): 1,
                                   (1, 4): 3, (2, 4): 4, (3, 4): 5})
        # oracle: classify all four triangles; (1,2,3) is the aba pattern,
        # (1,2,4) is rainbow, so the lexicographic scan lands on (1,2,4)
        canonical = [t for t in enumerate_cliques(host, 3)
                     if classify_copy(phi, t) & STRICT_TAGS]
        out = find_canonical_copy(phi, 3)
        assert out.found
        assert out.witness.vertices == canonical[0] == (1, 2, 4)

    def test_witness_round_trip(self):
        for seed in range(20):
            g = gnp_generate(16, 0.5, seed).graph
            phi = generate_colouring(g, AdversarySpec("RandomR", r=3, seed=seed))
            out = find_canonical_copy(phi, 3)
            if out.found:
                assert classify_copy(phi, out.witness.vertices) == out.witness.tags
                assert out.witness.is_canonical()

    def test_within_restriction(self):
        host = OrderedGraph.complete(8)
        phi = EdgeColouring(host, {e: 0 for e in host.edges})
        out = find_canonical_copy(phi, 3, within=[4, 5, 6])
        assert out.found
        assert set(out.witness.vertices) <= {4, 5, 6}


def reference_find_canonical_copy(phi, ell, within=None):
    """find_canonical_copy as it was: one witness per clique."""
    nodes = 0
    for tup in enumerate_cliques(phi.host, ell, within):
        nodes += 1
        witness = witness_for(phi, tup)
        if witness.is_canonical():
            return SearchOutcome(True, witness, nodes)
    return SearchOutcome(False, None, nodes)


class TestFindCanonicalReference:
    @pytest.mark.parametrize("spec", [AdversarySpec("RandomR", r=1), AdversarySpec("RandomR", r=2),
                                      AdversarySpec("RandomR", r=3), AdversarySpec("GreedyProper")],
                             ids=["r1", "r2", "r3", "greedy"])
    def test_matches_one_witness_per_clique(self, spec):
        for seed in range(30):
            n, ell = 8 + seed % 10, 3 + seed % 2
            g = gnp_generate(n, 0.6, seed).graph
            within = None if seed % 3 else range(2, n, 2)
            phis = [generate_colouring(g, spec.with_seed(seed)) for _ in range(2)]
            got = find_canonical_copy(phis[0], ell, within)
            expected = reference_find_canonical_copy(phis[1], ell, within)
            # the pruned search counts (prefix, v) pairs, not cliques
            assert (got.found, got.witness) == (expected.found, expected.witness)
            # at ell <= 4 a row is read only for a prefix of some K_ell
            assert set(phis[0]._rows) <= set(phis[1]._rows)
            if spec.kind == "GreedyProper":  # so a lazy colouring is coloured as far
                assert phis[0]._rows.filled == phis[1]._rows.filled


PREFIX_SPECS = [AdversarySpec("MinOrder"), AdversarySpec("MaxOrder"), AdversarySpec("Injective")] + [
    AdversarySpec("RandomR", r=r, seed=seed) for r in (1, 2, 3) for seed in range(40)]


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_each_prefix_keeps_every_strict_tag(ell):
    # the pattern-pruned search is exact because a strict tag of a K_ell is
    # a tag of each k-vertex prefix, 2 <= k < ell
    host = OrderedGraph.complete(ell)
    seen = set()
    for spec in PREFIX_SPECS:
        phi = generate_colouring(host, spec)
        strict = classify_copy(phi, range(1, ell + 1)) & STRICT_TAGS
        seen |= strict
        for k in range(2, ell):
            assert strict <= classify_copy(phi, range(1, k + 1)), (spec, k)
    assert seen == STRICT_TAGS


class TestFindRainbow:
    def test_injective_found(self):
        g = OrderedGraph.complete(6)
        phi = generate_colouring(g, AdversarySpec("Injective"))
        out = find_rainbow_copy(phi, 4)
        assert out.found and PatternTag.RAINBOW in out.witness.tags

    def test_mono_not_found(self):
        host = OrderedGraph.complete(7)
        phi = EdgeColouring(host, {e: 1 for e in host.edges})
        assert not find_rainbow_copy(phi, 3).found

    def test_greedy_proper_g60_fixture(self):
        # frozen outcome of one seeded run; witness re-verified independently
        g = gnp_generate(60, 0.5, 0).graph
        phi = generate_colouring(g, AdversarySpec("GreedyProper"))
        out = find_rainbow_copy(phi, 4)
        assert out.found
        assert out.witness.vertices == (1, 3, 4, 21)
        assert PatternTag.RAINBOW in classify_copy(phi, out.witness.vertices)

    def test_agrees_with_canonical_scan(self):
        # oracle: rainbow cliques found by the pruned search match a plain
        # scan that classifies every clique
        for seed in range(10):
            g = gnp_generate(14, 0.6, seed).graph
            phi = generate_colouring(g, AdversarySpec("RandomR", r=8, seed=seed))
            scan = [t for t in enumerate_cliques(g, 3)
                    if PatternTag.RAINBOW in classify_copy(phi, t)]
            out = find_rainbow_copy(phi, 3)
            assert out.found == bool(scan)
            if scan:
                assert out.witness.vertices == scan[0]


def reference_arrows_mono(graph, query, budget=DEFAULT_NODE_BUDGET):
    """arrows_mono as it was: each placement writes a tagged trail, one entry
    per colour set, clique count and forbidden colour, which undo replays."""
    m = graph.edge_count
    clique_edges = _clique_edges(graph, query.ell)
    if not clique_edges:
        return ArrowOutcome(False, EdgeColouring._trusted(graph, [0] * m), 0)
    edge_cliques = [[] for _ in range(m)]
    for k, idxs in enumerate(clique_edges):
        for e in idxs:
            edge_cliques[e].append(k)
    r = query.r
    colour = [-1] * m
    avail = [(1 << r) - 1] * m
    size = len(clique_edges[0])
    counts = [[0] * r for _ in clique_edges]
    coloured = [0] * len(clique_edges)
    nodes = 0

    def place(e, c, trail):
        colour[e] = c
        trail.append(("col", e))
        for k in edge_cliques[e]:
            counts[k][c] += 1
            coloured[k] += 1
            trail.append(("cnt", k, c))
            if counts[k][c] == size:
                return False
            if coloured[k] == size - 1 and counts[k][c] == size - 1:
                for f in clique_edges[k]:
                    if colour[f] == -1:
                        if avail[f] >> c & 1:
                            avail[f] &= ~(1 << c)
                            trail.append(("avail", f, c))
                            if avail[f] == 0:
                                return False
                        break
        return True

    def undo(trail):
        while trail:
            entry = trail.pop()
            if entry[0] == "col":
                colour[entry[1]] = -1
            elif entry[0] == "cnt":
                _, k, c = entry
                counts[k][c] -= 1
                coloured[k] -= 1
            else:
                _, f, c = entry
                avail[f] |= 1 << c

    def pick():
        best, best_width = -1, r + 1
        for e in range(m):
            if colour[e] == -1:
                width = avail[e].bit_count()
                if width < best_width:
                    best, best_width = e, width
                    if width <= 1:
                        break
        return best

    def solve(used):
        nonlocal nodes
        e = pick()
        if e == -1:
            return True
        for c in bits(avail[e] & ((1 << min(r, used + 1)) - 1)):
            nodes += 1
            if nodes > budget:
                raise ResourceLimitError(nodes)
            trail = []
            if place(e, c, trail) and solve(max(used, c + 1)):
                return True
            undo(trail)
        return False

    if solve(0):
        return ArrowOutcome(False, EdgeColouring._trusted(graph, colour), nodes)
    return ArrowOutcome(True, None, nodes)


def arrow_or_budget(solver, graph, query, budget):
    """The solver's outcome, or the node count at which it ran out of budget."""
    try:
        return solver(graph, query, budget)
    except ResourceLimitError as exc:
        return exc.nodes


def milp_arrows(graph, ell):
    """Independent oracle for the 2-colour arrow: one binary variable per edge
    (its colour) and, for each K_ell, 1 <= sum <= C(ell, 2) - 1, so that no
    K_ell is monochromatic; the graph arrows iff the program is infeasible."""
    optimize = pytest.importorskip("scipy.optimize")
    edges = graph.edges
    rows = [[edges.index(pair) for pair in itertools.combinations(verts, 2)]
            for verts in itertools.combinations(graph.vertices, ell)
            if all(graph.has_edge(*pair) for pair in itertools.combinations(verts, 2))]
    if not rows:
        return False
    a = np.zeros((len(rows), len(edges)))
    for k, idxs in enumerate(rows):
        a[k, idxs] = 1
    res = optimize.milp(np.zeros(len(edges)), integrality=np.ones(len(edges)),
                        bounds=optimize.Bounds(0, 1),
                        constraints=optimize.LinearConstraint(a, 1, math.comb(ell, 2) - 1))
    assert res.status in (0, 2), res.message  # solved, or proved infeasible
    return res.status == 2


class TestArrowsMono:
    def test_k6_arrows_two_colours(self):
        out = arrows_mono(OrderedGraph.complete(6), ArrowQuery(3, 2))
        assert out.arrows
        assert brute_arrows(OrderedGraph.complete(6), 3, 2)

    def test_k5_does_not_arrow(self):
        out = arrows_mono(OrderedGraph.complete(5), ArrowQuery(3, 2))
        assert not out.arrows
        # certificate is a 2-colouring of K5 with no monochromatic triangle
        phi = out.witness
        for t in enumerate_cliques(OrderedGraph.complete(5), 3):
            assert PatternTag.MONOCHROMATIC not in classify_copy(phi, t)
        assert not brute_arrows(OrderedGraph.complete(5), 3, 2)

    def test_triangle_free_never_arrows(self):
        c5 = OrderedGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert not arrows_mono(c5, ArrowQuery(3, 2)).arrows

    def test_matches_brute_force_on_corpus(self):
        for seed in range(30):
            g = gnp_generate(6, 0.55, seed).graph
            if g.edge_count > 12:
                continue
            got = arrows_mono(g, ArrowQuery(3, 2)).arrows
            assert got == brute_arrows(g, 3, 2)

    def test_matches_brute_force_three_colours(self):
        for seed in (0, 3, 5):
            g = gnp_generate(5, 0.7, seed).graph
            if g.edge_count > 8:
                continue
            assert arrows_mono(g, ArrowQuery(3, 3)).arrows == brute_arrows(g, 3, 3)

    def test_monotone_under_edge_addition(self):
        # K6 arrows; K6 plus a pendant vertex still arrows
        base = OrderedGraph.complete(6)
        bigger = OrderedGraph(7, list(base.edges) + [(1, 7)])
        assert arrows_mono(bigger, ArrowQuery(3, 2)).arrows

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ResourceLimitError):
            arrows_mono(OrderedGraph.complete(6), ArrowQuery(3, 2), budget=3)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            ArrowQuery(2, 2)
        with pytest.raises(ValueError):
            ArrowQuery(3, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(6, 12), st.floats(0.5, 0.85), st.integers(0, 2**32),
           st.sampled_from([3, 4]), st.sampled_from([2, 3]),
           st.sampled_from([5, 50, DEFAULT_NODE_BUDGET]))
    @example(6, 1.0, 0, 3, 2, DEFAULT_NODE_BUDGET)  # K_6 arrows (K_3, K_3)
    @example(9, 1.0, 0, 3, 2, 50)
    def test_matches_trail_solver(self, n, p, seed, ell, r, budget):
        # the decision, node count and certificate, or the node count at
        # which the budget ran out, are those of the trail-replaying solver;
        # above p = 0.85 a dense G(12, p) can take millions of nodes at ell = 4
        graph = gnp_generate(n, p, seed).graph
        query = ArrowQuery(ell, r)
        assert (arrow_or_budget(arrows_mono, graph, query, budget)
                == arrow_or_budget(reference_arrows_mono, graph, query, budget))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(5, 9), st.floats(0.7, 1.0), st.integers(0, 2**32),
           st.sampled_from([3, 4]))
    @example(6, 1.0, 0, 3)  # K_6 arrows (K_3, K_3), since R(3, 3) = 6
    @example(9, 1.0, 0, 4)  # K_9 does not arrow (K_4, K_4), since R(4, 4) = 18
    def test_decision_matches_milp(self, n, p, seed, ell):
        # decisions only: the solvers' node counts are not comparable
        graph = gnp_generate(n, p, seed).graph
        out = arrows_mono(graph, ArrowQuery(ell, 2))
        assert out.arrows == milp_arrows(graph, ell)
        if not out.arrows:
            assert out.witness.colours() <= {0, 1}
            for verts in enumerate_cliques(graph, ell):
                assert PatternTag.MONOCHROMATIC not in classify_copy(out.witness, verts)

    def test_paley_colouring_of_k17_has_no_monochromatic_k4(self):
        # uv is colour 1 iff v - u is a quadratic residue mod 17 (the Paley
        # graph, self-complementary), so R(4, 4) > 17
        residues = {x * x % 17 for x in range(1, 17)}
        host = OrderedGraph.complete(17)
        phi = EdgeColouring(host, {(u, v): int((v - u) % 17 in residues) for u, v in host.edges})
        k4s = list(enumerate_cliques(host, 4))
        assert len(k4s) == math.comb(17, 4) == 2380
        assert not any(PatternTag.MONOCHROMATIC in classify_copy(phi, t) for t in k4s)
        assert milp_arrows(host, 4) is False


BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


class TestRestrictedGrowth:
    def test_bell_counts(self):
        for m, bell in enumerate(BELL):
            assert sum(1 for _ in restricted_growth_strings(m)) == bell

    def test_strings_are_valid_and_unique(self):
        seen = set()
        for rgs in restricted_growth_strings(5):
            assert rgs[0] == 0
            for i in range(1, 5):
                assert rgs[i] <= max(rgs[:i]) + 1
            seen.add(rgs)
        assert len(seen) == BELL[5]


def reference_canonical_arrow_exhaustive(graph, ell):
    """canonical_arrow_exhaustive as it was: an edge dict rewritten for
    every partition and read through a lookup per clique edge."""
    edges = graph.edges
    cliques = [tuple(tup) for tup in enumerate_cliques(graph, ell)]
    assignment = {e: 0 for e in edges}

    def lookup(u, v):
        return assignment[u, v]

    checked = 0
    for rgs in restricted_growth_strings(len(edges)):
        checked += 1
        for e, c in zip(edges, rgs):
            assignment[e] = c
        hit = any(
            _TAG_SETS[_tags(tuple(lookup(u, w) for u, w in itertools.combinations(tup, 2)), ell)]
            & STRICT_TAGS
            for tup in cliques
        )
        if not hit:
            counterexample = EdgeColouring._trusted(graph, rgs)
            return ExhaustiveArrowOutcome(False, checked, counterexample)
    return ExhaustiveArrowOutcome(True, checked, None)


class TestCanonicalArrowExhaustive:
    @pytest.mark.parametrize("ell", [3, 4])
    @pytest.mark.parametrize("n, p", [(4, 0.7), (5, 0.7), (5, 0.9), (6, 0.5), (7, 0.4)])
    def test_matches_per_partition_dict(self, n, p, ell):
        # up to 10 edges: arrows that hold (every one of Bell(10) = 115975
        # partitions checked) and counterexamples found early or late
        for seed in range(5):
            g = gnp_generate(n, p, seed).graph
            if g.edge_count <= 10:
                assert (canonical_arrow_exhaustive(g, ell)
                        == reference_canonical_arrow_exhaustive(g, ell))
    def test_k4_arrows_triangle(self):
        out = canonical_arrow_exhaustive(OrderedGraph.complete(4), 3)
        assert out.holds
        assert out.partitions_checked == 203

    def test_k3_fails_with_counterexample(self):
        out = canonical_arrow_exhaustive(OrderedGraph.complete(3), 3)
        assert not out.holds
        phi = out.counterexample
        assert classify_copy(phi, (1, 2, 3)) & STRICT_TAGS == set()

    def test_empty_graph_fails(self):
        out = canonical_arrow_exhaustive(OrderedGraph.empty(3), 3)
        assert not out.holds

    def test_edge_guard(self):
        with pytest.raises(TooManyEdges):
            canonical_arrow_exhaustive(OrderedGraph.complete(6), 3)
