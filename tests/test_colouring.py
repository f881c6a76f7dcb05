import itertools
import math
from collections import Counter
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (
    AdversarySpec,
    CanonicalWitness,
    EdgeColouring,
    NotAClique,
    OrderedGraph,
    PatternTag,
    STRICT_TAGS,
    WeightExceedsCap,
    bounded_side_split,
    cherry_density,
    classify_copy,
    colour_degree,
    degree_into,
    directed_colour_degree,
    enumerate_cliques,
    generate_colouring,
    gnp_generate,
    greedy_colour_partition,
    is_delta_p_bounded,
    max_colour_multiplicity,
    nonrainbow_cherry_count,
    nonrainbow_matching_count,
    pair_density,
    rainbow_by_sampling,
    read_colouring,
    unbounded_condition_holds,
    unbounded_vertices,
    witness_for,
    write_colouring,
)
from ramseykit.colouring import _STRICT, _TAG_SETS, _tags
from ramseykit.search import _clique_edges, _first_clique


def triangle(c12, c13, c23):
    host = OrderedGraph.complete(3)
    return EdgeColouring(host, {(1, 2): c12, (1, 3): c13, (2, 3): c23})


def random_coloured(n, p, r, seed):
    g = gnp_generate(n, p, seed).graph
    return generate_colouring(g, AdversarySpec("RandomR", r=r, seed=seed))


class TestClassify:
    def test_min_triangle(self):
        tags = classify_copy(triangle(5, 5, 7), (1, 2, 3))
        assert tags == {PatternTag.MIN_COLOURED, PatternTag.NON_STRICT_MIN}

    def test_mono_triangle(self):
        tags = classify_copy(triangle(9, 9, 9), (1, 2, 3))
        assert tags == {PatternTag.MONOCHROMATIC,
                        PatternTag.NON_STRICT_MIN, PatternTag.NON_STRICT_MAX}

    def test_aba_triangle_not_canonical(self):
        # brute check of all four strict predicates by hand: none holds
        assert classify_copy(triangle(1, 2, 1), (1, 2, 3)) & STRICT_TAGS == set()

    def test_max_triangle(self):
        tags = classify_copy(triangle(1, 2, 2), (1, 2, 3))
        assert PatternTag.MAX_COLOURED in tags

    def test_rainbow_triangle(self):
        # rainbow excludes the min/max patterns for ell >= 3: rows/columns
        # with two edges cannot be colour-constant under an injective map
        assert classify_copy(triangle(1, 2, 3), (1, 2, 3)) == {PatternTag.RAINBOW}

    def test_missing_edge_raises(self):
        host = OrderedGraph(3, [(1, 2), (1, 3)])
        phi = EdgeColouring(host, {(1, 2): 0, (1, 3): 0})
        with pytest.raises(NotAClique):
            classify_copy(phi, (1, 2, 3))

    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            classify_copy(triangle(1, 2, 3), (2, 1, 3))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_mono_implies_non_strict_both(self, seed):
        phi = random_coloured(10, 0.6, 3, seed)
        for tup in itertools.islice(enumerate_cliques(phi.host, 3), 20):
            tags = classify_copy(phi, tup)
            if PatternTag.MONOCHROMATIC in tags:
                assert PatternTag.NON_STRICT_MIN in tags
                assert PatternTag.NON_STRICT_MAX in tags
            # rainbow and monochromatic exclude each other for ell >= 3
            assert not (PatternTag.MONOCHROMATIC in tags and PatternTag.RAINBOW in tags)

    def test_standard_colourings_classify_as_expected(self):
        g = OrderedGraph.complete(9)
        cases = [
            (AdversarySpec("Injective"), PatternTag.RAINBOW),
            (AdversarySpec("MinOrder"), PatternTag.MIN_COLOURED),
            (AdversarySpec("MaxOrder"), PatternTag.MAX_COLOURED),
        ]
        for spec, tag in cases:
            phi = generate_colouring(g, spec)
            for tup in itertools.islice(enumerate_cliques(g, 4), 30):
                assert tag in classify_copy(phi, tup)
        const = EdgeColouring(g, {e: 5 for e in g.edges})
        for tup in itertools.islice(enumerate_cliques(g, 4), 30):
            assert PatternTag.MONOCHROMATIC in classify_copy(const, tup)

    def test_witness_for_evidence(self):
        phi = triangle(1, 2, 3)
        w = witness_for(phi, (1, 2, 3))
        assert w.is_canonical()
        assert dict(w.evidence) == {(1, 2): 1, (1, 3): 2, (2, 3): 3}

    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 5), st.integers(1, 4), st.integers(0, 10**9))
    def test_matches_quantified_predicate_oracle(self, ell, r, seed):
        # oracle: evaluate the defining biconditionals over all edge pairs
        host = OrderedGraph.complete(ell)
        phi = generate_colouring(host, AdversarySpec("RandomR", r=r, seed=seed))
        verts = tuple(range(1, ell + 1))
        pairs = list(itertools.combinations(verts, 2))

        def predicate(selector, strict):
            for e in pairs:
                for f in pairs:
                    same_colour = phi.colour(*e) == phi.colour(*f)
                    same_end = selector(e) == selector(f)
                    if same_end and not same_colour:
                        return False
                    if strict and same_colour and not same_end:
                        return False
            return True

        expected = set()
        colours = [phi.colour(*e) for e in pairs]
        if len(set(colours)) == 1:
            expected.add(PatternTag.MONOCHROMATIC)
        if len(set(colours)) == len(colours):
            expected.add(PatternTag.RAINBOW)
        if predicate(min, strict=False):
            expected.add(PatternTag.NON_STRICT_MIN)
        if predicate(min, strict=True):
            expected.add(PatternTag.MIN_COLOURED)
        if predicate(max, strict=False):
            expected.add(PatternTag.NON_STRICT_MAX)
        if predicate(max, strict=True):
            expected.add(PatternTag.MAX_COLOURED)
        assert classify_copy(phi, verts) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(3, 6), st.sampled_from(["free", "min", "max"]))
    def test_at_most_one_strict_tag(self, data, ell, end):
        # the sweep labels a witness by its only strict tag; colours are drawn
        # freely, or from vertex labels by each edge's lower or upper end,
        # which makes min- and max-coloured cliques likely
        pairs = list(itertools.combinations(range(ell), 2))
        if end == "free":
            colours = data.draw(st.tuples(*[st.integers(0, 3)] * len(pairs)))
        else:
            labels = data.draw(st.tuples(*[st.integers(0, ell)] * ell))
            colours = tuple(labels[i if end == "min" else j] for i, j in pairs)
        assert len(_TAG_SETS[_tags(colours, ell)] & STRICT_TAGS) <= 1


def reference_classify(colour_of, vertices):
    """The grid loops that _classify replaced, kept as its oracle: fill the
    colour grid, then test each row and each column for one colour."""
    verts = tuple(vertices)
    if len(verts) < 2 or any(a >= b for a, b in zip(verts, verts[1:])):
        raise ValueError(f"vertices must be strictly increasing, got {verts}")
    ell = len(verts)
    grid = [[0] * ell for _ in range(ell)]
    all_colours = []
    for i in range(ell):
        for j in range(i + 1, ell):
            c = colour_of(verts[i], verts[j])
            if c is None:
                raise NotAClique(f"edge ({verts[i]},{verts[j]}) absent")
            grid[i][j] = c
            all_colours.append(c)
    tags = set()
    if len(set(all_colours)) == 1:
        tags.add(PatternTag.MONOCHROMATIC)
    if len(set(all_colours)) == len(all_colours):
        tags.add(PatternTag.RAINBOW)
    rows = [[grid[i][j] for j in range(i + 1, ell)] for i in range(ell - 1)]
    if all(len(set(row)) == 1 for row in rows):
        tags.add(PatternTag.NON_STRICT_MIN)
        if len({row[0] for row in rows}) == len(rows):
            tags.add(PatternTag.MIN_COLOURED)
    cols = [[grid[i][j] for i in range(j)] for j in range(1, ell)]
    if all(len(set(col)) == 1 for col in cols):
        tags.add(PatternTag.NON_STRICT_MAX)
        if len({col[0] for col in cols}) == len(cols):
            tags.add(PatternTag.MAX_COLOURED)
    return tags


def reference_witness_for(phi, vertices):
    """witness_for as it was: classify, then read every edge again."""
    verts = tuple(vertices)
    tags = reference_classify(phi.get, verts)
    evidence = tuple(((verts[i], verts[j]), phi.colour(verts[i], verts[j]))
                     for i in range(len(verts)) for j in range(i + 1, len(verts)))
    return CanonicalWitness(verts, frozenset(tags), evidence)


def outcome(f, *args):
    """f(*args), or the type and message of the contract error it raised."""
    try:
        return f(*args)
    except (NotAClique, ValueError) as exc:
        return type(exc), str(exc)


class TestClassifyOracle:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("palette", [1, 2, 3, 4, None])  # None: every colour distinct
    @pytest.mark.parametrize("complete", [True, False])
    def test_matches_grid_loops(self, n, palette, complete):
        vertices = range(1, n + 1)
        # every increasing tuple of size 2..n, and tuples that break the
        # contract: too short, not increasing, or with a vertex outside 1..n
        tuples = [tup for k in range(2, n + 1) for tup in itertools.combinations(vertices, k)]
        tuples += [(), (1,), (2, 1), (1, 1), (1, 3, 2), (0, 1), (1, n + 1), (-1, 1, 2),
                   (1, 2, n + 1), tuple(range(n + 1)), tuple(range(1, n + 2))]
        for seed in range(3):
            host = OrderedGraph.complete(n) if complete else gnp_generate(n, 0.6, seed).graph
            spec = (AdversarySpec("Injective") if palette is None
                    else AdversarySpec("RandomR", r=palette, seed=seed))
            phi = generate_colouring(host, spec)
            by_edge = dict(phi.items())
            colours = list(by_edge.values())  # in edge order, as the arrow search's strings
            # the exhaustive arrow search reads each K_k's colours off the
            # edge-colour string through one itemgetter over its edge positions
            for k in range(3, n + 1):
                cliques = list(enumerate_cliques(host, k))
                positions = _clique_edges(host, k)
                assert len(positions) == len(cliques)
                for tup, idxs in zip(cliques, positions):
                    assert _TAG_SETS[_tags(itemgetter(*idxs)(colours), k)] == reference_classify(
                        lambda u, v: by_edge.get((u, v)), tup)
            for tup in tuples:
                want = outcome(reference_classify, phi.get, tup)
                assert outcome(classify_copy, phi, tup) == want
                witness = outcome(witness_for, phi, tup)
                assert witness == outcome(reference_witness_for, phi, tup)
                if isinstance(witness, CanonicalWitness):
                    assert witness.tags == want
                    assert all(type(c) is int for _, c in witness.evidence)


    def test_mask_bits_follow_pattern_tag_order(self):
        assert [_TAG_SETS[1 << k] for k in range(6)] == [frozenset({t}) for t in PatternTag]
        assert _TAG_SETS[_STRICT] == STRICT_TAGS == {
            PatternTag.MONOCHROMATIC, PatternTag.RAINBOW,
            PatternTag.MIN_COLOURED, PatternTag.MAX_COLOURED}
        assert _TAG_SETS[0] == frozenset() and _TAG_SETS[63] == frozenset(PatternTag)
        assert all(_TAG_SETS[a | b] == _TAG_SETS[a] | _TAG_SETS[b]
                   for a in range(64) for b in range(64))

    @pytest.mark.parametrize("ell", [3, 4, 5])
    @pytest.mark.parametrize("palette", [1, 2, 3, 6])
    def test_masks_and_pruning_match_grid_loops(self, ell, palette):
        # the mask of every K_ell names the grid loops' tags, and a search
        # pruned by each wanted mask returns the first K_ell, in
        # lexicographic order, whose tags meet that mask
        for seed in range(4):
            host = gnp_generate(8, 0.8, seed).graph
            phi = generate_colouring(host, AdversarySpec("RandomR", r=palette, seed=seed))
            cliques = list(enumerate_cliques(host, ell))
            tags = [reference_classify(phi.get, tup) for tup in cliques]
            for tup, want in zip(cliques, tags):
                colours = tuple(phi.colour(u, w) for u, w in itertools.combinations(tup, 2))
                assert _TAG_SETS[_tags(colours, ell)] == want
            for wanted in range(1, 64):
                first = next((tup for tup, t in zip(cliques, tags) if t & _TAG_SETS[wanted]),
                             None)
                got = _first_clique(phi, ell, None, wanted)
                assert got.found == (first is not None)
                if first is not None:
                    assert got.witness.vertices == first
                    assert got.witness.tags == reference_classify(phi.get, first)


class TestColourDegrees:
    def test_mono_k5(self):
        host = OrderedGraph.complete(5)
        phi = EdgeColouring(host, {e: 3 for e in host.edges})
        assert colour_degree(phi, 1, [2, 3, 4, 5], 3) == 4
        assert colour_degree(phi, 1, [2, 3, 4, 5], 4) == 0

    def test_min_colouring_k6(self):
        phi = generate_colouring(OrderedGraph.complete(6), AdversarySpec("MinOrder"))
        assert colour_degree(phi, 2, [3, 4, 5, 6], 2) == 4

    def test_directed_min_colouring(self):
        phi = generate_colouring(OrderedGraph.complete(6), AdversarySpec("MinOrder"))
        rest = [1, 3, 4, 5, 6]
        assert directed_colour_degree(phi, 2, rest, 2, "<") == 4
        assert directed_colour_degree(phi, 2, rest, 2, ">") == 0

    @pytest.mark.parametrize("v", [0, 6, -1])
    def test_vertex_outside_host_is_refused(self, v):
        # v = 0 used to count nothing and v = n + 1 to raise IndexError
        phi = generate_colouring(OrderedGraph.complete(5), AdversarySpec("MinOrder"))
        with pytest.raises(ValueError, match=f"vertex {v} outside"):
            colour_degree(phi, v, [1, 2, 3], 1)
        with pytest.raises(ValueError, match=f"vertex {v} outside"):
            directed_colour_degree(phi, v, [1, 2, 3], 1, "<")

    def test_injective_at_most_one(self):
        phi = generate_colouring(OrderedGraph.complete(7), AdversarySpec("Injective"))
        for v in phi.host.vertices:
            for c in phi.colours():
                for d in ("<", ">"):
                    assert directed_colour_degree(phi, v, phi.host.vertices, c, d) <= 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 10), st.integers(1, 5))
    def test_degree_identities(self, seed, n, r):
        phi = random_coloured(n, 0.5, r, seed)
        us = [v for v in phi.host.vertices if (v + seed) % 3 != 0] or [1]
        for v in phi.host.vertices:
            total = sum(colour_degree(phi, v, us, c) for c in phi.colours())
            assert total == degree_into(phi.host, v, us)
            for c in phi.colours():
                split = (directed_colour_degree(phi, v, us, c, "<")
                         + directed_colour_degree(phi, v, us, c, ">"))
                assert split == colour_degree(phi, v, us, c)


class TestBoundedness:
    def test_injective_bounded(self):
        phi = generate_colouring(OrderedGraph.complete(8), AdversarySpec("Injective"))
        assert is_delta_p_bounded(phi, range(1, 9), delta=0.2, p=1.0)

    def test_min_colouring_unbounded_at_vertex_one(self):
        n = 20
        phi = generate_colouring(OrderedGraph.complete(n), AdversarySpec("MinOrder"))
        # vertex 1 sees n-1 edges of colour 1
        assert not is_delta_p_bounded(phi, range(1, n + 1), delta=0.5, p=1.0)

    def test_mono_k10_unbounded(self):
        host = OrderedGraph.complete(10)
        phi = EdgeColouring(host, {e: 0 for e in host.edges})
        assert not is_delta_p_bounded(phi, range(1, 11), delta=0.5, p=1.0)

    def test_unbounded_condition_mono(self):
        host = OrderedGraph.complete(12)
        phi = EdgeColouring(host, {e: 0 for e in host.edges})
        assert unbounded_condition_holds(phi, range(1, 13), delta=1 / 16, p=1.0)

    def test_unbounded_condition_injective(self):
        phi = generate_colouring(OrderedGraph.complete(8), AdversarySpec("Injective"))
        assert not unbounded_condition_holds(phi, range(1, 9), delta=0.5, p=1.0)

    def test_unbounded_condition_min_k100(self):
        # direct evaluation: threshold 25, vertices 1..75 qualify, 75 >= 50
        phi = generate_colouring(OrderedGraph.complete(100), AdversarySpec("MinOrder"))
        assert unbounded_condition_holds(phi, range(1, 101), delta=1 / 32, p=1.0)

    def test_unbounded_vertices_min_colouring(self):
        n, delta = 50, 1 / 100
        phi = generate_colouring(OrderedGraph.complete(n), AdversarySpec("MinOrder"))
        got = unbounded_vertices(phi, range(1, n + 1), delta, 1.0, "<")
        # d^<_v(v, U) = n - v, so membership means n - v >= 4 delta n
        assert got == tuple(v for v in range(1, n + 1) if n - v >= 4 * delta * n)

    def test_unbounded_vertices_injective_empty(self):
        phi = generate_colouring(OrderedGraph.complete(10), AdversarySpec("Injective"))
        assert unbounded_vertices(phi, range(1, 11), 0.2, 1.0, "<") == ()

    def test_split_injective(self):
        phi = generate_colouring(OrderedGraph.complete(9), AdversarySpec("Injective"))
        b, rest = bounded_side_split(phi, range(1, 10), delta=0.5, p=1.0)
        assert b == () and rest == tuple(range(1, 10))

    def test_split_mono(self):
        host = OrderedGraph.complete(10)
        phi = EdgeColouring(host, {e: 0 for e in host.edges})
        b, rest = bounded_side_split(phi, range(1, 11), delta=1 / 80, p=1.0)
        assert b == tuple(range(1, 11)) and rest == ()

    def test_split_mixed_fixture(self):
        # vertices 1..4 carry a heavy colour-0 star, the rest stays injective
        host = OrderedGraph.complete(12)
        mapping = {}
        next_c = 1
        for u, v in host.edges:
            if u <= 4:
                mapping[(u, v)] = 0
            else:
                mapping[(u, v)] = next_c
                next_c += 1
        phi = EdgeColouring(host, mapping)
        delta, p = 1 / 16, 1.0
        b, rest = bounded_side_split(phi, range(1, 13), delta, p)
        threshold = 8 * delta * p * 12  # = 6
        expected_b = []
        for u in range(1, 13):
            best = max(
                sum(1 for w in range(1, 13) if w != u and phi.colour(u, w) == c)
                for c in phi.colours()
            )
            (expected_b if best >= threshold else []).append(u)
        assert b == tuple(expected_b)
        assert set(b) | set(rest) == set(range(1, 13))
        assert not set(b) & set(rest)


def brute_max_degrees(phi, us, direction=None):
    """max_c d_c(u, U) for each u in U, from a Counter over every coloured edge."""
    counts = {u: Counter() for u in us}
    for (a, b), c in phi.items():
        if a in counts and b in counts:
            if direction != ">":  # a < b: b lies above a
                counts[a][c] += 1
            if direction != "<":
                counts[b][c] += 1
    return {u: max(counter.values(), default=0) for u, counter in sorted(counts.items())}


class TestColourDegreeOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9), st.sampled_from([0.3, 0.6, 1.0]), st.integers(0, 10**6),
           st.sampled_from([("RandomR", 1), ("RandomR", 2), ("RandomR", 4), ("GreedyProper", None)]),
           st.integers(1, 2**9 - 1), st.floats(0.0, 1.0), st.sampled_from([0.25, 0.5, 1.0]))
    def test_matches_brute_force(self, n, gp, seed, adversary, umask, delta, p):
        kind, r = adversary
        host = gnp_generate(n, gp, seed).graph
        us = [v for v in host.vertices if umask >> (v - 1) & 1] or [1]

        def coloured():  # a fresh colouring: GreedyProper's is coloured as read
            return generate_colouring(host, AdversarySpec(kind, r=r, seed=seed))

        size = len(us)
        best = brute_max_degrees(coloured(), us)
        assert is_delta_p_bounded(coloured(), us, delta, p) == all(
            d <= delta * p * size for d in best.values())
        for direction in "<>":
            directed = brute_max_degrees(coloured(), us, direction)
            assert unbounded_vertices(coloured(), us, delta, p, direction) == tuple(
                u for u, d in directed.items() if d >= 4.0 * delta * p * size)
        unbounded = tuple(u for u, d in best.items() if d >= 8.0 * delta * p * size)
        rest = tuple(u for u in best if u not in unbounded)
        assert bounded_side_split(coloured(), us, delta, p) == (unbounded, rest)
        assert unbounded_condition_holds(coloured(), us, delta, p) == (len(unbounded) >= len(rest))
        everyone = brute_max_degrees(coloured(), host.vertices)
        assert max_colour_multiplicity(coloured()) == max(everyone.values())

    def test_nan_delta_refused(self):
        # every comparison with NaN is false, so no vertex would reach a
        # threshold and none stay under a cap: the predicates contradicted
        # each other
        phi = generate_colouring(OrderedGraph.complete(6), AdversarySpec("RandomR", r=2, seed=1))
        us = range(1, 7)
        predicates = (is_delta_p_bounded, bounded_side_split, unbounded_condition_holds,
                      lambda phi, us, delta, p: unbounded_vertices(phi, us, delta, p, "<"),
                      lambda phi, us, delta, p: unbounded_vertices(phi, us, delta, p, ">"))
        for f in predicates:
            for delta, p, message in ((math.nan, 1.0, "delta must be finite"),
                                      (math.inf, 1.0, "delta must be finite"),
                                      (-0.1, 1.0, "delta must be >= 0"),
                                      (0.1, math.nan, "p must be finite"),
                                      (0.1, -0.5, r"p must lie in \[0, 1\]"),
                                      (0.1, 1.5, r"p must lie in \[0, 1\]")):
                with pytest.raises(ValueError, match=message):
                    f(phi, us, delta, p)
        # delta = 0 and p = 0 keep their answers: every threshold is 0
        for delta, p in ((0.0, 1.0), (0.1, 0.0)):
            assert bounded_side_split(phi, us, delta, p) == (tuple(us), ())
            assert not is_delta_p_bounded(phi, us, delta, p)

    @pytest.mark.parametrize("f", [
        is_delta_p_bounded, bounded_side_split, unbounded_condition_holds,
        lambda phi, us, delta, p: unbounded_vertices(phi, us, delta, p, "<"),
        lambda phi, us, delta, p: rainbow_by_sampling(phi, us, 3, delta, 0),
    ])
    def test_empty_set_refused(self, f):
        phi = generate_colouring(OrderedGraph.complete(4), AdversarySpec("Injective"))
        with pytest.raises(ValueError, match="U must be nonempty"):
            f(phi, [], 0.1, 1.0)


def brute_cherry(phi, classes):
    count = 0
    for tup in itertools.product(*classes):
        if all(phi.host.has_edge(a, b) for a, b in itertools.combinations(tup, 2)):
            if phi.colour(tup[0], tup[1]) == phi.colour(tup[0], tup[2]):
                count += 1
    return count


def brute_matching(phi, classes):
    count = 0
    for tup in itertools.product(*classes):
        if all(phi.host.has_edge(a, b) for a, b in itertools.combinations(tup, 2)):
            if phi.colour(tup[0], tup[1]) == phi.colour(tup[2], tup[3]):
                count += 1
    return count


CLASSES4 = ([1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [11, 12, 13, 14, 15], [16, 17, 18, 19, 20])


class TestNonRainbowCounters:
    def test_injective_zero(self):
        g = gnp_generate(20, 0.6, 3).graph
        phi = generate_colouring(g, AdversarySpec("Injective"))
        assert nonrainbow_cherry_count(phi, CLASSES4[:3]) == 0
        assert nonrainbow_matching_count(phi, CLASSES4) == 0

    def test_singleton_classes_mono(self):
        host = OrderedGraph.complete(4)
        phi = EdgeColouring(host, {e: 0 for e in host.edges})
        classes = ([1], [2], [3], [4])
        assert nonrainbow_cherry_count(phi, classes[:3]) == 1
        assert nonrainbow_cherry_count(phi, classes) == 1
        assert nonrainbow_matching_count(phi, classes) == 1

    def test_matches_brute_force(self):
        for seed in range(10):
            g = gnp_generate(20, 0.5, seed).graph
            phi = generate_colouring(g, AdversarySpec("RandomR", r=4, seed=seed))
            assert nonrainbow_cherry_count(phi, CLASSES4) == brute_cherry(phi, CLASSES4)
            assert nonrainbow_matching_count(phi, CLASSES4) == brute_matching(phi, CLASSES4)

    def test_rejects_overlapping_classes(self):
        g = OrderedGraph.complete(6)
        phi = generate_colouring(g, AdversarySpec("Injective"))
        with pytest.raises(ValueError):
            nonrainbow_cherry_count(phi, ([1, 2], [2, 3], [4, 5]))

    def test_five_classes(self):
        # positions stay 1,2,3 (cherry) and 1,2,3,4 (matching) at ell = 5
        g = gnp_generate(10, 0.9, 11).graph
        phi = generate_colouring(g, AdversarySpec("RandomR", r=2, seed=11))
        classes = ([1, 2], [3, 4], [5, 6], [7, 8], [9, 10])
        assert nonrainbow_cherry_count(phi, classes) == brute_cherry(phi, classes)
        assert nonrainbow_matching_count(phi, classes) == brute_matching(phi, classes)


class TestDensities:
    def test_complete_bipartite_density_one(self):
        g = OrderedGraph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert pair_density(g, [1, 2], [3, 4], 1.0) == 1.0

    def test_empty_bipartite(self):
        g = OrderedGraph.empty(4)
        assert pair_density(g, [1, 2], [3, 4], 0.5) == 0.0

    def test_fixture_ratio(self):
        g = OrderedGraph(5, [(1, 3), (1, 4), (2, 4), (2, 5), (4, 5)])
        # 3 cross edges between {1,2} and {3,4}: (1,3), (1,4), (2,4)
        assert pair_density(g, [1, 2], [3, 4], 0.5) == pytest.approx(3 / (0.5 * 4))

    def test_rejects_p_zero(self):
        g = OrderedGraph.complete(4)
        with pytest.raises(ValueError):
            pair_density(g, [1, 2], [3, 4], 0.0)

    def test_cherry_complete_tripartite(self):
        edges = [(u, v) for u in (1, 2) for v in (3, 4)]
        edges += [(u, w) for u in (1, 2) for w in (5, 6)]
        g = OrderedGraph(6, edges)
        assert cherry_density(g, [1, 2], [3, 4], [5, 6], 1.0) == 1.0

    def test_cherry_isolated_first_class(self):
        g = OrderedGraph(6, [(3, 5)])
        assert cherry_density(g, [1, 2], [3, 4], [5, 6], 1.0) == 0.0

    def test_cherry_fixture_direct_sum(self):
        g = gnp_generate(9, 0.7, 5).graph
        c1, c2, c3 = [1, 2, 3], [4, 5, 6], [7, 8, 9]
        direct = sum(
            degree_into(g, u, c2) * degree_into(g, u, c3) for u in c1
        )
        assert cherry_density(g, c1, c2, c3, 0.5) == pytest.approx(direct / (0.25 * 27))

    @pytest.mark.parametrize("classes", [
        ([], [3]), ([1, 2], [2, 3]), ([-1], [3]), ([0], [3]), ([1], [7]),
    ])
    def test_pair_density_rejects_bad_classes(self, classes):
        # -1 used to read vertex 6's row, and 0 the empty row
        with pytest.raises(ValueError):
            pair_density(OrderedGraph.complete(6), *classes, 0.5)

    @pytest.mark.parametrize("classes", [
        ([1], [], [5]), ([1], [3, 5], [5]), ([1], [1, 3], [5]), ([-1], [3], [5]), ([1], [3], [9]),
    ])
    def test_cherry_density_rejects_bad_classes(self, classes):
        with pytest.raises(ValueError):
            cherry_density(OrderedGraph.complete(6), *classes, 0.5)

    @pytest.mark.parametrize("p, message", [(math.nan, "p must be finite"),
                                            (math.inf, "p must be finite"),
                                            (1.5, r"p must lie in \[0, 1\]"),
                                            (-0.5, r"p must lie in \[0, 1\]"),
                                            (0.0, "p must be positive")])
    def test_densities_refuse_p_outside_unit_interval(self, p, message):
        # a NaN p made both densities NaN
        g = OrderedGraph.complete(6)
        with pytest.raises(ValueError, match=message):
            pair_density(g, [1, 2], [3, 4], p)
        with pytest.raises(ValueError, match=message):
            cherry_density(g, [1, 2], [3, 4], [5, 6], p)


class TestGreedyPartition:
    def test_two_small_weights_one_class(self):
        assert greedy_colour_partition({1: 3, 2: 3}, 6) == [[1, 2]]

    def test_two_heavy_weights_two_classes(self):
        assert greedy_colour_partition({1: 4, 2: 4}, 6) == [[1], [2]]

    def test_hundred_unit_weights(self):
        classes = greedy_colour_partition({c: 1 for c in range(100)}, 10)
        assert len(classes) == 10
        assert all(len(cl) == 10 for cl in classes)

    def test_cap_violation_raises(self):
        with pytest.raises(WeightExceedsCap):
            greedy_colour_partition({1: 7}, 6)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(0, 50), st.integers(0, 9), min_size=1),
           st.integers(9, 30))
    def test_partition_properties(self, weights, cap):
        classes = greedy_colour_partition(weights, cap)
        # classes respect the cap and exactly cover the colour set
        assert all(sum(weights[c] for c in cl) <= cap for cl in classes)
        flat = [c for cl in classes for c in cl]
        assert sorted(flat) == sorted(weights)
        total = sum(weights.values())
        assert len(classes) <= -(-2 * total // cap) + 1


class TestColouringObject:
    def test_domain_must_match(self):
        host = OrderedGraph.complete(3)
        with pytest.raises(ValueError):
            EdgeColouring(host, {(1, 2): 0, (1, 3): 0})

    def test_refuses_both_orientations_of_an_edge(self):
        # (1,2) and (2,1) name one edge; keeping the later colour would hide the clash
        host = OrderedGraph.complete(3)
        with pytest.raises(ValueError, match=r"duplicate edge \(1, 2\)"):
            EdgeColouring(host, {(1, 2): 0, (2, 1): 5, (1, 3): 1, (2, 3): 2})

    def test_relabel_dense(self):
        host = OrderedGraph.complete(3)
        phi = EdgeColouring(host, {(1, 2): 17, (1, 3): 90, (2, 3): 17})
        dense = phi.relabel_dense()
        assert [dense.colour(u, v) for u, v in host.edges] == [0, 1, 0]

    def test_io_round_trip(self, tmp_path):
        g = gnp_generate(12, 0.5, 2).graph
        phi = generate_colouring(g, AdversarySpec("RandomR", r=5, seed=2))
        path = tmp_path / "c.txt"
        write_colouring(phi, str(path))
        assert read_colouring(str(path), g) == phi

    def test_io_reports_offending_line(self, tmp_path):
        g = OrderedGraph.complete(3)
        path = tmp_path / "c.txt"
        path.write_text("3 3\n1 2 0\n1 3 0\n3 2 1\n")
        with pytest.raises(ValueError, match="line 4"):
            read_colouring(str(path), g)

    def test_io_rejects_endpoint_outside_host(self, tmp_path):
        g = OrderedGraph.complete(3)
        path = tmp_path / "c.txt"
        path.write_text("3 3\n1 2 0\n1 3 0\n4 5 1\n")
        with pytest.raises(ValueError, match="line 4"):
            read_colouring(str(path), g)

    def test_io_rejects_negative_endpoint(self, tmp_path):
        g = OrderedGraph.complete(3)
        path = tmp_path / "c.txt"
        path.write_text("3 3\n1 2 0\n-1 3 0\n2 3 1\n")
        with pytest.raises(ValueError, match="line 3"):
            read_colouring(str(path), g)

    def test_io_rejects_incomplete_cover(self, tmp_path):
        g = OrderedGraph.complete(3)
        path = tmp_path / "c.txt"
        path.write_text("3 2\n1 2 0\n1 3 0\n")
        with pytest.raises(ValueError, match="header m"):
            read_colouring(str(path), g)

    @pytest.mark.parametrize("colour", [-1, 2**63, 2**64, 2.0, 2.5, "3", True, None])
    def test_validating_constructor_refuses_bad_colour_ids(self, colour):
        host = OrderedGraph.complete(3)
        with pytest.raises(ValueError, match="not an integer in"):
            EdgeColouring(host, {(1, 2): 0, (1, 3): colour, (2, 3): 1})

    def test_validating_constructor_takes_ids_up_to_int64_max(self):
        host = OrderedGraph.complete(3)
        top = 2**63 - 1
        phi = EdgeColouring(host, {(1, 2): top, (3, 1): np.int64(top - 1), (2, 3): 0})
        assert list(phi.items()) == [((1, 2), top), ((1, 3), top - 1), ((2, 3), 0)]
        assert phi.colour(3, 1) == top - 1 and type(phi.colour(3, 1)) is int

    @pytest.mark.parametrize("colour", [-1, 2**63])
    def test_io_rejects_colour_outside_int64(self, tmp_path, colour):
        g = OrderedGraph.complete(3)
        path = tmp_path / "c.txt"
        path.write_text(f"3 3\n1 2 0\n\n1 3 {colour}\n2 3 1\n")
        with pytest.raises(ValueError, match=f"line 4: colour {colour} outside"):
            read_colouring(str(path), g)

    def test_io_reads_int64_max_colour(self, tmp_path):
        g = OrderedGraph.complete(3)
        path = tmp_path / "c.txt"
        path.write_text(f"3 3\n1 2 0\n1 3 {2**63 - 1}\n2 3 1\n")
        assert read_colouring(str(path), g).colour(1, 3) == 2**63 - 1


# a path 1-2-3 plus the edges 1-4 and 3-5: vertex 5's row is what a
# wrapped-around index -1 would read
LOOKUP_HOST = OrderedGraph(5, [(1, 2), (2, 3), (1, 4), (3, 5)])
LOOKUP_COLOURS = [7, 0, 2**63 - 1, 7]  # in host.edges order: 12, 14, 23, 35
LOOKUP_BUILDS = {
    "validated": lambda: EdgeColouring(LOOKUP_HOST, dict(zip(LOOKUP_HOST.edges, LOOKUP_COLOURS))),
    "trusted list": lambda: EdgeColouring._trusted(LOOKUP_HOST, LOOKUP_COLOURS),
    "trusted ndarray": lambda: EdgeColouring._trusted(LOOKUP_HOST, np.array(LOOKUP_COLOURS)),
}
NON_EDGES = [(1, 3), (3, 1), (4, 5), (0, 1), (1, 0), (0, 2), (-1, 3), (3, -1), (-2, 1),
             (1, -2), (-1, -2), (6, 1), (1, 6), (6, 7), (100, 2), (-100, 2)]
LOOPS = [(1, 1), (5, 5), (0, 0), (-1, -1), (6, 6)]


@pytest.mark.parametrize("build", sorted(LOOKUP_BUILDS))
class TestLookupContract:
    def test_edges_read_in_both_orders(self, build):
        phi = LOOKUP_BUILDS[build]()
        assert LOOKUP_HOST.edges == ((1, 2), (1, 4), (2, 3), (3, 5))
        for (u, v), c in zip(LOOKUP_HOST.edges, LOOKUP_COLOURS):
            assert phi.colour(u, v) == phi.colour(v, u) == phi.get(v, u) == c
        assert list(phi.items()) == list(zip(LOOKUP_HOST.edges, LOOKUP_COLOURS))

    @pytest.mark.parametrize("u,v", NON_EDGES)
    def test_non_edge_raises_key_error(self, build, u, v):
        phi = LOOKUP_BUILDS[build]()
        with pytest.raises(KeyError):
            phi.colour(u, v)
        assert phi.get(u, v) is None

    @pytest.mark.parametrize("u,v", LOOPS)
    def test_loop_raises_value_error(self, build, u, v):
        phi = LOOKUP_BUILDS[build]()
        with pytest.raises(ValueError):
            phi.colour(u, v)
        assert phi.get(u, v) is None
