import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (
    AdversarySpec,
    BoundedSubsetSignal,
    EdgeColouring,
    EmptyFinalSet,
    ErConstants,
    ErResult,
    NeighbourhoodSequence,
    NoWitness,
    NotBounded,
    NotComplete,
    OrderedGraph,
    PatternTag,
    STRICT_TAGS,
    SequenceStep,
    SequenceTooShort,
    build_sequence,
    classify_copy,
    er_find,
    extract_canonical,
    find_canonical_copy,
    generate_colouring,
    rainbow_by_sampling,
    restricted_growth_strings,
)
from ramseykit.erdos_rado import _key_base, _sequence


def mono_colouring(n, colour=0):
    host = OrderedGraph.complete(n)
    return EdgeColouring(host, {e: colour for e in host.edges})


def vertex_min_colouring(n, colour_of):
    """phi(uv) = colour_of[min(u,v)]; non-strictly min by construction."""
    host = OrderedGraph.complete(n)
    return EdgeColouring(host, {(u, v): colour_of[u] for u, v in host.edges})


def reference_build_sequence(phi, consts):
    """The per-vertex dict loop that build_sequence replaced, kept as its
    oracle: count (colour, direction) for every survivor and take the
    largest count, then the smallest (v, c, "<" before ">")."""
    n = phi.host.n
    delta = consts.delta
    colour_of = dict(phi.items())
    surviving = list(range(1, n + 1))
    steps, trace = [], []
    for _ in range(consts.length):
        threshold = delta * len(surviving) / 2.0
        best = None  # (-count, v, colour, dir_rank)
        for v in surviving:
            for rank, side in enumerate("<>"):
                counts = {}
                for w in surviving:
                    if w != v and (v < w) == (side == "<"):
                        c = colour_of[min(v, w), max(v, w)]
                        counts[c] = counts.get(c, 0) + 1
                for c, d in counts.items():
                    if d > threshold and (best is None or (-d, v, c, rank) < best):
                        best = (-d, v, c, rank)
        if best is None:
            return BoundedSubsetSignal(tuple(surviving), delta)
        _, v, c, rank = best
        direction = "<>"[rank]
        surviving = [w for w in surviving if w != v and colour_of[min(v, w), max(v, w)] == c
                     and (v < w) == (direction == "<")]
        steps.append(SequenceStep(v, c, direction))
        trace.append(tuple(surviving))
    return NeighbourhoodSequence(tuple(steps), tuple(trace), delta, n, phi)


def reference_er_find(phi, ell, seed=0):
    """The er_find driver that ran the whole sequence before it chose a
    branch, kept as its oracle."""
    if ell < 3:
        raise ValueError("ell must be >= 3")
    outcome = build_sequence(phi, ErConstants.for_clique(ell))
    if isinstance(outcome, NeighbourhoodSequence):
        witness = extract_canonical(outcome, ell)
        return ErResult(witness, "sequence", outcome)
    if len(outcome.surviving) >= ell:
        witness = rainbow_by_sampling(phi, outcome.surviving, ell, outcome.delta, seed)
        if witness is not None:
            return ErResult(witness, "sampling", None)
    fallback = find_canonical_copy(phi, ell)
    if fallback.found:
        return ErResult(fallback.witness, "exhaustive", None)
    raise NoWitness(f"no canonical K_{ell} under this colouring")


def er_outcome(find, phi, ell, seed):
    """The branch, witness and sequence of find(phi, ell, seed), or the
    NoWitness message."""
    try:
        res = find(phi, ell, seed)
    except NoWitness as exc:
        return str(exc)
    seq = res.sequence
    return res.branch, res.witness, seq and (seq.steps, seq.survivors, seq.delta, seq.n)


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, BoundedSubsetSignal):
        assert got == want
        assert all(type(v) is int for v in got.surviving)
    else:
        assert got.steps == want.steps and got.survivors == want.survivors
        assert all(type(x) is int for s in got.steps for x in (s.vertex, s.colour))
        assert all(type(v) is int for s in got.survivors for v in s)


# ids small, near n^2, sparse, and near the int64 limit
COLOUR_IDS = st.one_of(st.integers(0, 3), st.integers(150, 250),
                       st.integers(0, 2**63 - 1), st.integers(2**63 - 5, 2**63 - 1))


@st.composite
def complete_colourings(draw):
    """K_n, n <= 14, coloured by an adversary or by a user mapping, as
    (host, colour list in edge order)."""
    n = draw(st.integers(1, 14))
    host = OrderedGraph.complete(n)
    m = host.edge_count
    kind = draw(st.sampled_from(["RandomR", "Injective", "MinOrder", "MaxOrder",
                                 "BoundedRandom", "mapping"]))
    if kind == "mapping":
        palette = draw(st.lists(COLOUR_IDS, min_size=1, max_size=6, unique=True))
        colours = draw(st.lists(st.sampled_from(palette), min_size=m, max_size=m))
        return host, colours
    seed = draw(st.integers(0, 2**32))
    if kind == "RandomR":
        spec = AdversarySpec(kind, r=draw(st.integers(1, max(m, 1))), seed=seed)
    elif kind == "BoundedRandom":
        spec = AdversarySpec(kind, r=draw(st.integers(1, n)), lam=draw(st.integers(1, 3)),
                             seed=seed)
    else:
        spec = AdversarySpec(kind)
    return host, [c for _, c in generate_colouring(host, spec).items()]


ER_CONSTANTS = st.one_of(
    st.builds(ErConstants.for_clique, st.integers(3, 5)),
    st.builds(ErConstants, ell=st.just(3), length=st.integers(1, 40),
              delta=st.sampled_from([1 / 108, 1 / 256, 0.05, 0.2, 0.6])),
)


class TestBuildSequenceOracle:
    @settings(max_examples=300, deadline=None)
    @given(complete_colourings(), ER_CONSTANTS)
    def test_matches_dict_loop(self, coloured, consts):
        host, colours = coloured
        validated = EdgeColouring(host, dict(zip(host.edges, colours)))
        from_list = EdgeColouring._trusted(host, colours)
        from_array = EdgeColouring._trusted(host, np.array(colours, dtype=np.int64))
        for phi in (from_list, from_array):
            assert phi == validated
            assert list(phi.items()) == list(validated.items())
            assert phi.colours() == validated.colours() == set(colours)
            assert phi.relabel_dense() == validated.relabel_dense()
            assert list(phi.relabel_dense().items()) == list(validated.relabel_dense().items())
        want = reference_build_sequence(validated, consts)
        for phi in (validated, from_list, from_array):
            assert_same_outcome(build_sequence(phi, consts), want)

    @pytest.mark.parametrize("seed", range(4))
    def test_ids_near_int64_limit_are_relabelled_in_order(self, seed):
        # shifting every id up to 2^63 - 5.. keeps their order, so the run is
        # the same with every colour shifted
        host = OrderedGraph.complete(30)
        small = generate_colouring(host, AdversarySpec("RandomR", r=3, seed=seed))
        shift = 2**63 - 5
        huge = EdgeColouring(host, {e: c + shift for e, c in small.items()})
        consts = ErConstants.for_clique(3)
        want = build_sequence(small, consts)
        got = build_sequence(huge, consts)
        assert_same_outcome(got, reference_build_sequence(huge, consts))
        assert isinstance(want, NeighbourhoodSequence)
        assert got.survivors == want.survivors
        assert [(s.vertex, s.colour - shift, s.direction) for s in got.steps] == [
            (s.vertex, s.colour, s.direction) for s in want.steps]

    # (n, colours by edge, the one step taken or None for a bounded signal)
    RUN_EDGES = {
        "K1 only the diagonal": (1, {}, None),
        "K2 tie goes to (1, c, <)": (2, {(1, 2): 4}, ((1, 4, "<"), (2,))),
        "K3 largest run is the last key": (
            3, {(1, 2): 0, (1, 3): 1, (2, 3): 1}, ((3, 1, ">"), (1, 2))),
        "tie between two rows": (
            4, {(1, 2): 1, (1, 3): 2, (1, 4): 0, (2, 3): 7, (2, 4): 7, (3, 4): 0},
            ((2, 7, "<"), (3, 4))),
    }

    @pytest.mark.parametrize("shift", [0, 2**63 - 9])
    @pytest.mark.parametrize("case", RUN_EDGES)
    def test_run_count_edge_cases(self, case, shift):
        n, colours, want = self.RUN_EDGES[case]
        phi = EdgeColouring(OrderedGraph.complete(n), {e: c + shift for e, c in colours.items()})
        consts = ErConstants(ell=3, delta=0.05, length=1)
        got = build_sequence(phi, consts)
        assert_same_outcome(got, reference_build_sequence(phi, consts))
        if want is None:
            assert got == BoundedSubsetSignal((1,), consts.delta)
        else:
            (v, c, direction), survivors = want
            assert got.steps == (SequenceStep(v, c + shift, direction),)
            assert got.survivors == (survivors,)


@st.composite
def random_r_hosts(draw):
    """K_n, 3 <= n <= 40, under RandomR with r in {1, 2, 5, n^2}, its ids
    shifted to 2^62 and above (the dense-rank path) or not."""
    n = draw(st.integers(3, 40))
    host = OrderedGraph.complete(n)
    r = draw(st.sampled_from([1, 2, 5, n * n]))
    phi = generate_colouring(host, AdversarySpec("RandomR", r=r, seed=draw(st.integers(0, 2**32))))
    if draw(st.booleans()):
        phi = EdgeColouring._trusted(host, [c + 2**62 for _, c in phi.items()])
    return phi


class TestErFindOracle:
    @settings(max_examples=150, deadline=None)
    @given(random_r_hosts(), st.sampled_from([3, 4, 5]), st.integers(0, 2**32))
    def test_matches_full_sequence_driver(self, phi, ell, seed):
        want = er_outcome(reference_er_find, phi, ell, seed)
        assert er_outcome(er_find, phi, ell, seed) == want
        if not isinstance(want, str):
            assert all(type(v) is int for v in want[1].vertices)

    @settings(max_examples=150, deadline=None)
    @given(complete_colourings(), st.sampled_from([3, 4, 5]), st.integers(0, 2**32))
    def test_matches_full_sequence_driver_on_any_ids(self, coloured, ell, seed):
        host, colours = coloured
        phi = EdgeColouring._trusted(host, colours)
        assert er_outcome(er_find, phi, ell, seed) == er_outcome(reference_er_find, phi, ell, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_k30_r435_stops_early(self, seed):
        # the sequence cannot reach 4 steps, and what survives is below 3
        # vertices, so the run goes to exhaustive search before it ends
        phi = generate_colouring(OrderedGraph.complete(30), AdversarySpec("RandomR", r=435, seed=seed))
        consts = ErConstants.for_clique(3)
        full = build_sequence(phi, consts)
        assert isinstance(full, BoundedSubsetSignal) and len(full.surviving) < 3
        assert _sequence(phi, consts, 3) is None
        got = er_outcome(er_find, phi, 3, seed)
        assert got[0] == "exhaustive"
        assert got == er_outcome(reference_er_find, phi, 3, seed)

    def test_key_base_is_read_only(self):
        base = _key_base(4)
        assert _key_base(4) is base
        with pytest.raises(ValueError):
            base[1, 2] = 0

    @pytest.mark.parametrize("n", [215, 216])
    def test_injective_sampling_boundary(self, n):
        phi = generate_colouring(OrderedGraph.complete(n), AdversarySpec("Injective"))
        for seed in (0, 7):
            assert er_outcome(er_find, phi, 3, seed) == er_outcome(reference_er_find, phi, 3, seed)


class TestConstants:
    def test_defaults(self):
        c = ErConstants.for_clique(4)
        assert c.delta == 1 / 256
        assert c.length == 10
        assert ErConstants.for_clique(3).length == 4

    def test_recorded_size_bound_is_astronomical(self):
        assert ErConstants.for_clique(3).min_n_log2 > 100

    # the delta cases keep their ids from before ell and length were checked
    @pytest.mark.parametrize("ell, delta, length, message", [
        (3, math.nan, 5, "delta must be finite"),
        (3, math.inf, 5, "delta must be finite"),
        (3, -1.0, 5, "delta must be >= 0"),
        (2, 0.1, 5, "ell must be >= 3"),
        (1, 0.1, -3, "ell must be >= 3"),
        (3, 0.1, 0, "length must be >= 1"),
        (3, 0.1, -3, "length must be >= 1"),
    ], ids=["nan-delta must be finite", "inf-delta must be finite", "-1.0-delta must be >= 0",
            "ell 2", "ell 1 length -3", "length 0", "length -3"])
    def test_refuses_negative_or_non_finite_delta(self, ell, delta, length, message):
        with pytest.raises(ValueError, match=message):
            ErConstants(ell=ell, delta=delta, length=length)


class TestBuildSequence:
    def test_requires_complete_host(self):
        g = OrderedGraph(4, [(1, 2)])
        phi = EdgeColouring(g, {(1, 2): 0})
        with pytest.raises(NotComplete):
            build_sequence(phi, ErConstants.for_clique(3))

    def test_mono_host_runs_full_length(self):
        phi = mono_colouring(12, colour=5)
        seq = build_sequence(phi, ErConstants.for_clique(3))
        assert isinstance(seq, NeighbourhoodSequence)
        assert [s.vertex for s in seq.steps] == [1, 2, 3, 4]
        assert all(s.colour == 5 and s.direction == "<" for s in seq.steps)

    def test_injective_large_host_signals_immediately(self):
        # directed colour degrees are at most 1 < delta n / 2 once n > 2/delta
        n = 300
        phi = generate_colouring(OrderedGraph.complete(n), AdversarySpec("Injective"))
        consts = ErConstants.for_clique(3)
        assert n > 2 / consts.delta
        out = build_sequence(phi, consts)
        assert isinstance(out, BoundedSubsetSignal)
        assert out.surviving == tuple(range(1, n + 1))

    def test_min_colouring_k50(self):
        phi = generate_colouring(OrderedGraph.complete(50), AdversarySpec("MinOrder"))
        seq = build_sequence(phi, ErConstants.for_clique(3))
        assert [(s.vertex, s.colour, s.direction) for s in seq.steps] == [
            (1, 1, "<"), (2, 2, "<"), (3, 3, "<"), (4, 4, "<")
        ]

    def test_size_invariant_along_trace(self):
        for seed in range(5):
            phi = generate_colouring(
                OrderedGraph.complete(30), AdversarySpec("RandomR", r=2, seed=seed)
            )
            out = build_sequence(phi, ErConstants.for_clique(3))
            if isinstance(out, NeighbourhoodSequence):
                for i, survivors in enumerate(out.survivors, start=1):
                    assert len(survivors) > (out.delta / 2) ** i * out.n

    def test_survivors_nested_and_consistent(self):
        phi = generate_colouring(OrderedGraph.complete(25), AdversarySpec("RandomR", r=2, seed=1))
        out = build_sequence(phi, ErConstants.for_clique(3))
        assert isinstance(out, NeighbourhoodSequence)
        previous = set(range(1, 26))
        for step, survivors in zip(out.steps, out.survivors):
            current = set(survivors)
            assert step.vertex in previous
            assert current <= previous - {step.vertex}
            for w in current:
                assert phi.colour(step.vertex, w) == step.colour
                assert (step.vertex < w) == (step.direction == "<")
            previous = current

    def test_determinism(self):
        phi = generate_colouring(OrderedGraph.complete(20), AdversarySpec("RandomR", r=3, seed=3))
        a = build_sequence(phi, ErConstants.for_clique(3))
        b = build_sequence(phi, ErConstants.for_clique(3))
        assert a.steps == b.steps and a.survivors == b.survivors


class TestExtract:
    def test_mono_sequence_gives_mono_witness(self):
        seq = build_sequence(mono_colouring(12), ErConstants.for_clique(3))
        w = extract_canonical(seq, 3)
        assert PatternTag.MONOCHROMATIC in w.tags

    def test_min_sequence_gives_min_witness(self):
        phi = generate_colouring(OrderedGraph.complete(50), AdversarySpec("MinOrder"))
        seq = build_sequence(phi, ErConstants.for_clique(3))
        w = extract_canonical(seq, 3)
        assert PatternTag.MIN_COLOURED in w.tags
        assert w.vertices == (1, 2, 5)

    def test_max_sequence_gives_max_witness(self):
        # mirror case: all steps point downwards and colours are the maxima
        phi = generate_colouring(OrderedGraph.complete(50), AdversarySpec("MaxOrder"))
        seq = build_sequence(phi, ErConstants.for_clique(3))
        assert [(s.vertex, s.colour, s.direction) for s in seq.steps] == [
            (50, 50, ">"), (49, 49, ">"), (48, 48, ">"), (47, 47, ">")
        ]
        w = extract_canonical(seq, 3)
        assert PatternTag.MAX_COLOURED in w.tags
        assert w.vertices == (1, 49, 50)

    def test_branches_both_exercised_at_ell4(self):
        # colour map with exactly ell-2 = 2 repeats: distinct-colour branch
        n = 24
        colours = {v: v for v in range(1, n + 1)}
        colours[2] = 1
        seq = build_sequence(vertex_min_colouring(n, colours), ErConstants.for_clique(4))
        w = extract_canonical(seq, 4)
        assert PatternTag.MIN_COLOURED in w.tags
        assert w.vertices == (1, 3, 4, 11)
        # ell-1 = 3 repeats: monochromatic branch
        colours2 = {v: v for v in range(1, n + 1)}
        colours2[2] = colours2[3] = 1
        seq2 = build_sequence(vertex_min_colouring(n, colours2), ErConstants.for_clique(4))
        w2 = extract_canonical(seq2, 4)
        assert PatternTag.MONOCHROMATIC in w2.tags
        assert w2.vertices == (1, 2, 3, 11)

    def test_short_sequence_rejected(self):
        seq = build_sequence(mono_colouring(12), ErConstants.for_clique(3))
        with pytest.raises(SequenceTooShort):
            extract_canonical(seq, 4)

    def test_empty_final_set_rejected(self):
        seq = build_sequence(mono_colouring(12), ErConstants.for_clique(3))
        broken = NeighbourhoodSequence(
            seq.steps, seq.survivors[:-1] + ((),), seq.delta, seq.n, seq.colouring
        )
        with pytest.raises(EmptyFinalSet):
            extract_canonical(broken, 3)


class TestRainbowSampling:
    def test_injective_succeeds_quickly(self):
        n = 40
        phi = generate_colouring(OrderedGraph.complete(n), AdversarySpec("Injective"))
        w = rainbow_by_sampling(phi, range(1, n + 1), 4, delta=0.1, seed=5)
        assert w is not None and PatternTag.RAINBOW in w.tags

    def test_mono_not_bounded(self):
        phi = mono_colouring(10)
        with pytest.raises(NotBounded):
            rainbow_by_sampling(phi, range(1, 11), 3, delta=0.5, seed=0)

    @pytest.mark.parametrize("delta, message", [(math.nan, "delta must be finite"),
                                                (-1.0, "delta must be >= 0")])
    def test_refuses_negative_or_non_finite_delta(self, delta, message):
        # NaN passed every colour-degree cap, so the sampler ran and returned
        # None where delta = 0.1 raises NotBounded
        phi = generate_colouring(OrderedGraph.complete(12), AdversarySpec("MinOrder"))
        with pytest.raises(NotBounded):
            rainbow_by_sampling(phi, range(1, 13), 3, delta=0.1, seed=0)
        with pytest.raises(ValueError, match=message):
            rainbow_by_sampling(phi, range(1, 13), 3, delta=delta, seed=0)

    def test_bounded_fixture_success_rate(self):
        # delta-bounded colouring on a large set: BoundedRandom(lam=3) keeps
        # every colour degree <= 3 <= delta |U| for delta = 1/256, |U| = 800
        n, ell = 800, 4
        delta = ErConstants.for_clique(ell).delta
        host = OrderedGraph.complete(n)
        phi = generate_colouring(host, AdversarySpec("BoundedRandom", r=n, lam=3, seed=2))
        assert 3 <= delta * n
        successes = 0
        for seed in range(10):
            w = rainbow_by_sampling(phi, range(1, n + 1), ell, delta, seed=seed)
            if w is not None:
                assert PatternTag.RAINBOW in w.tags
                successes += 1
        assert successes == 10

    def test_witness_colours_pairwise_distinct(self):
        n = 60
        phi = generate_colouring(OrderedGraph.complete(n), AdversarySpec("Injective"))
        w = rainbow_by_sampling(phi, range(1, n + 1), 4, delta=0.05, seed=9)
        colours = [c for _, c in w.evidence]
        assert len(set(colours)) == len(colours)


class TestDriver:
    def test_mono_k10(self):
        res = er_find(mono_colouring(10), 3)
        assert res.branch == "sequence"
        assert PatternTag.MONOCHROMATIC in res.witness.tags

    def test_injective_k10(self):
        phi = generate_colouring(OrderedGraph.complete(10), AdversarySpec("Injective"))
        res = er_find(phi, 3)
        assert PatternTag.RAINBOW in res.witness.tags

    def test_all_203_partitions_of_k4(self):
        host = OrderedGraph.complete(4)
        edges = host.edges
        count = 0
        for rgs in restricted_growth_strings(6):
            phi = EdgeColouring(host, dict(zip(edges, rgs)))
            res = er_find(phi, 3)
            assert classify_copy(phi, res.witness.vertices) & STRICT_TAGS
            count += 1
        assert count == 203

    @pytest.mark.parametrize("n, branch", [(215, "exhaustive"), (216, "sampling")])
    def test_injective_sampling_branch_boundary(self, n, branch):
        # Injective colour degrees are 1, and a set S with >= 2 vertices is
        # delta-bounded iff 1 <= delta |S| / 2: from n = 2/delta = 8 ell^3 = 216
        # the whole vertex set is bounded, below it the sequence shrinks to 1.
        phi = generate_colouring(OrderedGraph.complete(n), AdversarySpec("Injective"))
        res = er_find(phi, 3)
        assert res.branch == branch
        assert PatternTag.RAINBOW in classify_copy(phi, res.witness.vertices)

    def test_no_witness_on_k3_aba(self):
        host = OrderedGraph.complete(3)
        phi = EdgeColouring(host, {(1, 2): 0, (1, 3): 1, (2, 3): 0})
        with pytest.raises(NoWitness):
            er_find(phi, 3)

    def test_round_trip_on_random_colourings(self):
        host = OrderedGraph.complete(30)
        for seed, r in [(s, r) for s in range(25) for r in (2, 5, 30, 435)]:
            phi = generate_colouring(host, AdversarySpec("RandomR", r=r, seed=seed))
            res = er_find(phi, 3, seed=seed)
            tags = classify_copy(phi, res.witness.vertices)
            assert frozenset(tags) == res.witness.tags
            assert tags & STRICT_TAGS
