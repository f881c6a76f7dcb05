import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseykit import (
    EXACT_CUTNORM_GUARD,
    HypothesisViolated,
    OrderedGraph,
    PatternGraph,
    RangeViolation,
    TooFewVertices,
    TooLarge,
    WeightedGraph,
    count_cliques,
    counting_lemma_check,
    cutnorm_exact,
    cutnorm_heuristic,
    degree_lemma_check,
    eval_e,
    gnp_generate,
    hom_density,
    is_strictly_balanced,
    read_weighted,
    sample_graph_from_weights,
    two_density,
    write_weighted,
)
from ramseykit.cutnorm import (_DIRECT_SUM_TERMS, _chunk_bounds, _hom_plan, _pair_max,
                               _separable_bounds, _subset_bits, _subset_sums)

K3 = PatternGraph.complete(3)
C4 = PatternGraph.cycle(4)
FIVE = PatternGraph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (2, 5)])
# patterns of at most 5 vertices with at least one edge
SMALL_PATTERNS = st.integers(2, 5).flatmap(lambda ell: st.builds(
    PatternGraph, st.just(ell),
    st.sets(st.sampled_from(list(itertools.combinations(range(1, ell + 1), 2))), min_size=1)))


def random_weights(n, rng, lo=0.0, hi=1.0):
    a = rng.uniform(lo, hi, size=(n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return WeightedGraph(a)


def brute_cutnorm(f):
    """Oracle: iterate both subsets explicitly."""
    verts = list(range(1, f.n + 1))
    best = 0.0
    for ru in range(f.n + 1):
        for us in itertools.combinations(verts, ru):
            for rw in range(f.n + 1):
                for ws in itertools.combinations(verts, rw):
                    best = max(best, abs(eval_e(f, us, ws)))
    return best / f.n**2


def single_block_cutnorm(f):
    """Reference: column sums of every U from one membership matmul per chunk,
    maximising sum max(s, 0) and sum max(-s, 0) separately."""
    n = f.n
    best = 0.0
    for start in range(0, 1 << n, 1 << 14):
        idx = np.arange(start, min(start + (1 << 14), 1 << n))
        sums = ((idx[:, None] >> np.arange(n)) & 1).astype(np.float64) @ f.w
        best = max(best, np.maximum(sums, 0.0).sum(axis=1).max(),
                   np.maximum(-sums, 0.0).sum(axis=1).max())
    return best / n**2


def reference_subset_sums(rows):
    k = rows.shape[0]
    bits = (np.arange(1 << k) >> np.arange(k)[:, None]) & 1
    return rows.T @ bits.astype(np.float64)


def split(n):
    """The kernel's split: (low-block rows, high-block columns per chunk)."""
    lo = 12 if n > 16 else (n + 1) // 2
    return lo, min(1 << (n - lo), (1 << 13) >> lo)


def reference_chunks(f):
    """Reference: the split kernel run over every chunk of high-block columns,
    in plain order, with a fresh bit table per call; yields each chunk's
    float64 max(pos, neg) of every column pair, unnormalised, one row per
    high-block column."""
    n = f.n
    lo, chunk = split(n)
    s_lo = reference_subset_sums(f.w[:lo])
    s_hi = reference_subset_sums(f.w[lo:])
    t_lo = s_lo.sum(axis=0)
    t_hi = s_hi.sum(axis=0)
    buf = np.empty((n, chunk, 1 << lo))
    for h0 in range(0, s_hi.shape[1], chunk):
        hs = slice(h0, h0 + chunk)
        np.add(s_lo[:, None, :], s_hi[:, hs, None], out=buf)
        np.maximum(buf, 0.0, out=buf)
        pos = buf.sum(axis=0)
        yield np.maximum(pos, pos - (t_lo + t_hi[hs, None]))


def reference_chunk_maxima(f):
    return [float(values.max()) for values in reference_chunks(f)]


def reference_pair_values(f):
    """max(pos, neg) of every (high-block column, low-block column) pair."""
    return np.concatenate(list(reference_chunks(f)))


def reference_exact(f):
    """Reference: the exact cut norm with every chunk computed in float64."""
    return max(0.0, *reference_chunk_maxima(f)) / (f.n * f.n)


MAGNITUDES = ("dyadic", "uniform", "zero", "huge", "subnormal", "mixed", "planted", "sbm")


def magnitude_weights(n, kind, seed):
    """Symmetric zero-diagonal weights of one magnitude or structure class:
    +-1/2 as in G(n, 1/2) - 1/2, uniform in [-1, 1], zero, uniform times
    1e300, uniform times 1e-320 (subnormal), uniform times 2^k for k in
    [-300, 300], a planted two-block +-1/2 matrix plus noise uniform in
    [-0.3, 0.3], or a two-community SBM adjacency (0.7 inside, 0.3 across)
    minus its density.  The last two have a few subsets U far above the
    rest, where the separable bound of ``cutnorm_exact`` prunes least."""
    rng = np.random.default_rng(seed)
    if kind in ("planted", "sbm"):
        side = rng.random(n) < 0.5
        same = side[:, None] == side
        if kind == "planted":
            return symmetric(np.where(same, 0.5, -0.5) + rng.uniform(-0.3, 0.3, size=(n, n)))
        adjacency = np.triu(rng.random((n, n)) < np.where(same, 0.7, 0.3), 1)
        return symmetric(adjacency - adjacency.sum() / (n * (n - 1) / 2))
    if kind == "dyadic":
        a = np.where(rng.random((n, n)) < 0.5, 0.5, -0.5)
    else:
        a = rng.uniform(-1.0, 1.0, size=(n, n)) * {
            "uniform": 1.0, "zero": 0.0, "huge": 1e300, "subnormal": 1e-320,
        }.get(kind, 1.0)
        if kind == "mixed":
            a = np.ldexp(a, rng.integers(-300, 301, size=(n, n)))
    return symmetric(a)


def reference_heuristic(f, restarts=20, seed=0):
    """Reference: one scalar sign ascent per restart and sign, drawing each
    start with its own random(n) call."""
    n = f.n
    M = f.w
    rng = np.random.Generator(np.random.PCG64(seed))
    best = 0.0
    for restart in range(restarts):
        w0 = rng.random(n) < 0.5
        if not w0.any():
            w0[restart % n] = True
        for sign in (1.0, -1.0):
            wsel = w0.astype(np.float64)
            value = 0.0
            for _ in range(200):
                col = M @ wsel
                usel = (sign * col > 0.0).astype(np.float64)
                row = usel @ M
                wsel = (sign * row > 0.0).astype(np.float64)
                new_value = sign * float(usel @ M @ wsel)
                if new_value <= value + 1e-15:
                    value = max(value, new_value)
                    break
                value = new_value
            if value > best:
                best = value
    return best / (n * n)


def symmetric(a):
    a = np.triu(a, 1)
    return WeightedGraph(a + a.T)


def brute_hom_density(f, pattern):
    """Oracle: sum the defining formula over all tuples."""
    n, ell = f.n, pattern.ell
    total = 0.0
    for tup in itertools.product(range(1, n + 1), repeat=ell):
        prod = 1.0
        for u, v in pattern.edges:
            prod *= f.entry(tup[u - 1], tup[v - 1])
        total += prod
    return total / n**ell


class TestEvalE:
    def test_constant_full(self):
        f = WeightedGraph.constant(6, 1.0)
        assert eval_e(f, range(1, 7), range(1, 7)) == 6 * 5

    def test_empty_side(self):
        f = random_weights(5, np.random.default_rng(0))
        assert eval_e(f, [], range(1, 6)) == 0.0

    def test_k3_indicator_overlap(self):
        f = WeightedGraph.indicator(OrderedGraph.complete(3))
        assert eval_e(f, [1, 2], [2, 3]) == 3.0


class TestCutnormExact:
    def test_zero(self):
        assert cutnorm_exact(WeightedGraph.zeros(8)) == 0.0

    def test_difference_with_self(self):
        f = WeightedGraph.indicator(gnp_generate(10, 0.5, 1).graph)
        assert cutnorm_exact(f - f) == 0.0

    def test_all_ones(self):
        assert cutnorm_exact(WeightedGraph.constant(10, 1.0)) == pytest.approx(0.9)

    def test_guard(self):
        with pytest.raises(TooLarge):
            cutnorm_exact(WeightedGraph.zeros(23))

    def test_matches_double_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = random_weights(7, rng, lo=-1.0, hi=1.0)
            assert cutnorm_exact(f) == pytest.approx(brute_cutnorm(f))

    def test_seminorm_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = random_weights(9, rng, lo=-1.0, hi=1.0)
            g = random_weights(9, rng, lo=-1.0, hi=1.0)
            alpha = rng.uniform(-2.0, 2.0)
            assert cutnorm_exact(f) >= 0.0
            assert cutnorm_exact(alpha * f) == pytest.approx(abs(alpha) * cutnorm_exact(f))
            assert cutnorm_exact(f + g) <= cutnorm_exact(f) + cutnorm_exact(g) + 1e-12


class TestCutnormBlockSplit:
    """The low/high block split against the single-block reference, with
    halved blocks up to n = 16 and a 12-row low block from n = 17."""

    @pytest.mark.parametrize("kind", ["signed", "unit", "half"])
    @pytest.mark.parametrize("n", [1, 2, 11, 12, 13, 14, 16, 17])
    def test_matches_single_block_reference(self, n, kind):
        rng = np.random.default_rng(n)
        if kind == "signed":
            f = random_weights(n, rng, lo=-1.0, hi=1.0)
        elif kind == "unit":
            f = random_weights(n, rng)
        else:
            upper = np.triu(np.where(rng.random((n, n)) < 0.5, 0.5, -0.5), 1)
            f = WeightedGraph(upper + upper.T)
        assert cutnorm_exact(f) == pytest.approx(single_block_cutnorm(f), rel=1e-12)

    @pytest.mark.parametrize("value", [1.0, -1.0])
    def test_constant_at_guard(self, value):
        n = EXACT_CUTNORM_GUARD
        assert cutnorm_exact(WeightedGraph.constant(n, value)) == pytest.approx((n - 1) / n)


def tables(f):
    """The kernel's subset-sum tables and their column sums."""
    lo, _ = split(f.n)
    s_lo, s_hi = _subset_sums(f.w[:lo]), _subset_sums(f.w[lo:])
    return s_lo, s_hi, s_lo.sum(axis=0), s_hi.sum(axis=0)


class TestCutnormBestFirst:
    """Past one chunk of high-block columns (n >= 14) the kernel drops every
    pair whose separable bound cannot beat a seeded best, bounds what is
    left of each chunk in float32 and computes in float64 only the chunks
    that can still hold the maximum; the result must not change by a single
    bit."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(14, 19), kind=st.sampled_from(MAGNITUDES),
           seed=st.integers(0, 2**32 - 1))
    @example(n=19, kind="dyadic", seed=0)
    @example(n=14, kind="zero", seed=0)
    @example(n=19, kind="huge", seed=1)
    @example(n=19, kind="subnormal", seed=2)
    @example(n=17, kind="mixed", seed=3)
    @example(n=19, kind="mixed", seed=1)  # a pairwise sum of the rows rounds differently here
    @example(n=19, kind="planted", seed=0)
    @example(n=19, kind="sbm", seed=0)
    @example(n=22, kind="dyadic", seed=0)
    def test_bit_identical_to_every_chunk_reference(self, n, kind, seed):
        f = magnitude_weights(n, kind, seed)
        assert cutnorm_exact(f) == reference_exact(f)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(14, 19), kind=st.sampled_from(MAGNITUDES),
           seed=st.integers(0, 2**32 - 1))
    @example(n=19, kind="dyadic", seed=0)
    @example(n=16, kind="huge", seed=1)
    @example(n=15, kind="subnormal", seed=2)
    @example(n=18, kind="mixed", seed=3)
    @example(n=19, kind="sbm", seed=4)
    def test_separable_bound_holds_for_every_pair(self, n, kind, seed):
        # dropping the pairs past a chunk's prefix is safe only because of this
        f = magnitude_weights(n, kind, seed)
        s_lo, s_hi, t_lo, t_hi = tables(f)
        a, c, slack, shift = _separable_bounds(s_lo, s_hi, t_lo, t_hi,
                                               np.empty(s_lo.size + s_hi.size))
        values = reference_pair_values(f)
        assert values.shape == (c.size, a.size)
        assert np.all(np.ldexp(values, shift) <= c[:, None] + a + slack)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(14, 19), kind=st.sampled_from(MAGNITUDES),
           seed=st.integers(0, 2**32 - 1))
    @example(n=19, kind="uniform", seed=0)
    @example(n=16, kind="huge", seed=1)
    @example(n=15, kind="subnormal", seed=2)
    @example(n=18, kind="mixed", seed=3)
    @example(n=19, kind="planted", seed=4)
    def test_no_bound_below_its_chunk_maximum(self, n, kind, seed):
        # skipping a chunk is safe only because of this; chunk i is bounded
        # over the first prefix[i] columns of a shuffled table: mostly few,
        # so that narrow chunks share a pass, and all of them for one chunk
        f = magnitude_weights(n, kind, seed)
        s_lo, s_hi, t_lo, t_hi = tables(f)
        lo, chunk = split(n)
        rng = np.random.default_rng(seed)
        prefix = ((1 << lo) * rng.random(s_hi.shape[1] // chunk) ** 3).astype(np.intp)
        prefix[rng.integers(prefix.size)] = 1 << lo
        cols = rng.permutation(1 << lo)
        bounds, shift = _chunk_bounds(s_lo[:, cols], s_hi, t_lo[cols], t_hi, prefix, chunk,
                                      np.empty((n, chunk, 1 << lo)))
        values = reference_pair_values(f)[:, cols]
        assert len(bounds) == len(prefix)
        for i, (bound, width) in enumerate(zip(bounds, prefix)):
            top = values[i * chunk:(i + 1) * chunk, :width].max(initial=0.0)
            assert math.ldexp(top, shift) <= bound
            assert width or bound == 0.0

    @pytest.mark.parametrize("n", [16, 20])
    def test_maximum_at_the_empty_high_block_set(self, n):
        # weight 1 inside the low block and -0.1 from the high block to it:
        # U = W = the low block wins, paired with the empty high-block set,
        # whose separable sum is 0, so the seed's high-block columns miss it
        # (past 2^7 of them) while its low-block column leads the seed
        lo, _ = split(n)
        w = np.zeros((n, n))
        w[:lo, :lo] = 1.0
        w[lo:, :lo] = w[:lo, lo:] = -0.1
        np.fill_diagonal(w, 0.0)
        f = WeightedGraph(w)
        assert cutnorm_exact(f) == reference_exact(f) == lo * (lo - 1) / n**2

    def test_single_pair_blocks_add_rows_in_order(self):
        # on a one-pair block numpy's sum(axis=0) adds the rows pairwise,
        # which gives another float here than the reference's slab by slab
        f = magnitude_weights(19, "mixed", 1)
        s_lo, s_hi, t_lo, t_hi = tables(f)
        values = reference_pair_values(f)
        rng = np.random.default_rng(0)
        for h, b in zip(rng.integers(0, s_hi.shape[1], 200), rng.integers(0, s_lo.shape[1], 200)):
            x = s_hi[:, [h], None] + s_lo[:, None, [b]]
            assert _pair_max(x, t_lo[[b]], t_hi[[h]]) == values[h, b]

    def test_bit_table_is_cached_read_only(self):
        bits = _subset_bits(5)
        assert _subset_bits(5) is bits
        with pytest.raises(ValueError):
            bits[0, 0] = 2.0

    @pytest.mark.parametrize("n", [14, 19, EXACT_CUTNORM_GUARD])
    def test_constant_near_overflow(self, n):
        assert cutnorm_exact(WeightedGraph.constant(n, 1e300)) == pytest.approx((n - 1) / n * 1e300)

    def test_refuses_absolute_total_that_overflows(self):
        # 19 * 18 * 1e307 overflows, though every weight is finite
        big = WeightedGraph.constant(19, 1e307)
        with pytest.raises(ValueError, match="finite total"):
            cutnorm_exact(big)
        with pytest.raises(ValueError, match="finite total"):
            cutnorm_heuristic(big, restarts=2)
        with pytest.raises(ValueError, match="finite total"):
            cutnorm_heuristic(WeightedGraph.constant(3, 1.5e308), restarts=2)

    def test_accepts_one_huge_weight_whose_total_is_finite(self):
        # 19^2 * 1e307 overflows, but the absolute total is only 2e307
        w = np.zeros((19, 19))
        w[0, 1] = w[1, 0] = 1e307
        f = WeightedGraph(w)
        # U = W = {1, 2} counts the weight twice
        assert cutnorm_exact(f) == pytest.approx(2e307 / 19**2)
        assert cutnorm_heuristic(f, restarts=2) == pytest.approx(2e307 / 19**2)


class TestCutnormHeuristic:
    def test_zero(self):
        assert cutnorm_heuristic(WeightedGraph.zeros(6), restarts=2, seed=0) == 0.0

    def test_all_ones_reaches_full_sets(self):
        for restarts in (1, 3):
            got = cutnorm_heuristic(WeightedGraph.constant(12, 1.0), restarts=restarts, seed=4)
            assert got == pytest.approx(11 / 12)

    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(11)
        equal = 0
        for i in range(200):
            n = int(rng.integers(4, 13))
            f = random_weights(n, rng, lo=-1.0, hi=1.0)
            he = cutnorm_heuristic(f, restarts=10, seed=i)
            ex = cutnorm_exact(f)
            assert he <= ex + 1e-12
            if math.isclose(he, ex, rel_tol=1e-9, abs_tol=1e-12):
                equal += 1
        assert equal > 0  # informational: ascent usually reaches the optimum

    def test_deterministic_per_seed(self):
        f = random_weights(10, np.random.default_rng(5), lo=-1.0, hi=1.0)
        assert cutnorm_heuristic(f, 5, 9) == cutnorm_heuristic(f, 5, 9)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 14), st.integers(1, 25), st.integers(0, 2**64 - 1),
           st.integers(0, 2**32 - 1))
    @example(n=1, restarts=3, seed=0, data_seed=0)  # start row 0 is all false
    @example(n=2, restarts=25, seed=0, data_seed=1)  # rows 3, 11, 13 repair vertex 2
    def test_batched_matches_scalar_reference(self, n, restarts, seed, data_seed):
        rng = np.random.default_rng(data_seed)
        # halves and units: every sum is exact, so rounding cannot differ
        exact = symmetric(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n, n)))
        assert cutnorm_heuristic(exact, restarts, seed) == reference_heuristic(exact, restarts, seed)
        f = symmetric(rng.uniform(-1.0, 1.0, size=(n, n)))
        got = cutnorm_heuristic(f, restarts, seed)
        assert got == pytest.approx(reference_heuristic(f, restarts, seed), rel=1e-12)
        assert got <= cutnorm_exact(f) + 1e-12

    def test_empty_start_row_is_repaired(self):
        # PCG64(0) draws 0.637 first, so the only start of n = 1 is all false
        assert not np.random.Generator(np.random.PCG64(0)).random(1) < 0.5
        f = WeightedGraph.zeros(1)
        assert cutnorm_heuristic(f, 1, 0) == reference_heuristic(f, 1, 0) == 0.0


class TestHomDensity:
    def test_constant_k3(self):
        assert hom_density(WeightedGraph.constant(5, 1.0), K3) == pytest.approx(0.48)

    def test_zero_weights(self):
        assert hom_density(WeightedGraph.zeros(6), K3) == 0.0

    def test_k4_indicator(self):
        f = WeightedGraph.indicator(OrderedGraph.complete(4))
        assert hom_density(f, K3) == pytest.approx(0.375)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        patterns = [K3, PatternGraph.path(3), PatternGraph.cycle(4),
                    PatternGraph.from_edges(4, [(1, 2)])]
        for pattern in patterns:
            f = random_weights(6, rng)
            assert hom_density(f, pattern) == pytest.approx(brute_hom_density(f, pattern))

    def test_edgeless_pattern(self):
        f = random_weights(5, np.random.default_rng(2))
        assert hom_density(f, PatternGraph.from_edges(3, [])) == 1.0

    def test_pattern_from_a_list_is_a_set(self):
        # a repeated edge in a list must not count twice: this is the path
        # 1-2-3, not a triangle, and its density on the path 1-2-3-4 is
        # sum(deg^2) / 4^3 = 10 / 64
        pattern = PatternGraph(3, [(1, 2), (1, 2), (2, 3)])
        assert pattern == PatternGraph.path(3)
        assert hash(pattern) == hash(PatternGraph.path(3))
        assert pattern.edge_count == 2 and not pattern.is_complete()
        f = WeightedGraph.indicator(OrderedGraph(4, [(1, 2), (2, 3), (3, 4)]))
        assert hom_density(f, pattern) == pytest.approx(0.15625)

    def test_scaling_multiplicativity(self):
        rng = np.random.default_rng(4)
        f = random_weights(8, rng)
        for alpha in (0.5, 0.25, 2.0):
            got = hom_density(alpha * f, K3)
            assert got == pytest.approx(alpha**3 * hom_density(f, K3))

    def test_cross_module_clique_identity(self):
        # both the indicator fast path and the direct-summation path must
        # reproduce the exact labeled clique count
        for seed in range(5):
            g = gnp_generate(12, 0.5, seed).graph
            ind = WeightedGraph.indicator(g)
            ell = 3
            assert hom_density(ind, K3) * 12**ell == pytest.approx(count_cliques(g, ell))
            scaled = hom_density(0.5 * ind, K3) * 2**3 * 12**ell
            assert scaled == pytest.approx(count_cliques(g, ell))

    def test_pattern_guard(self):
        f = random_weights(8, np.random.default_rng(0))
        with pytest.raises(TooLarge):
            hom_density(f, PatternGraph.path(6))

    @pytest.mark.parametrize("pattern", [K3, C4, PatternGraph.path(3), FIVE])
    @pytest.mark.parametrize("n", [3, 10, 30])
    def test_cached_path_is_bit_identical(self, pattern, n):
        # pinned to one uncached einsum call along the route the plan picks:
        # a direct sum up to _DIRECT_SUM_TERMS operand terms, else the path
        # optimize=True finds (every pattern here touches all its vertices)
        f = random_weights(n, np.random.default_rng(n))
        spec = ",".join(chr(96 + u) + chr(96 + v) for u, v in sorted(pattern.edges))
        terms = pattern.edge_count * n**pattern.ell
        uncached = float(np.einsum(spec + "->", *([f.w] * pattern.edge_count),
                                   optimize=terms > _DIRECT_SUM_TERMS))
        for _ in range(2):  # the second call reads the cached plan
            assert hom_density(f, pattern) == uncached / n**pattern.ell

    @pytest.mark.parametrize("pattern, n, direct", [(K3, 10, True), (K3, 22, True), (K3, 30, False),
                                                    (C4, 8, True), (C4, 10, False), (FIVE, 10, False)])
    def test_plan_route(self, pattern, n, direct):
        spec, count, optimize, _, _ = _hom_plan(pattern, n)
        if direct:
            assert optimize is False
        else:
            assert list(optimize) == np.einsum_path(spec, *([np.empty((n, n))] * count), optimize=True)[0]

    @settings(max_examples=40, deadline=None)
    @given(SMALL_PATTERNS, st.integers(3, 24), st.integers(0, 2**32 - 1))
    @example(K3, 22, 0)  # the last n that K3 sums directly
    @example(K3, 23, 0)
    def test_routes_agree(self, pattern, n, seed):
        # nonnegative weights, so neither sum cancels
        f = random_weights(n, np.random.default_rng(seed))
        spec, count, _, lift, volume = _hom_plan(pattern, n)
        direct = float(np.einsum(spec, *([f.w] * count)))
        path = float(np.einsum(spec, *([f.w] * count), optimize=True))
        assert math.isclose(direct, path, rel_tol=1e-12)
        assert math.isclose(hom_density(f, pattern), direct * lift / volume, rel_tol=1e-12)

    def test_patterns_do_not_share_a_path(self):
        # the same n and edge count, different contractions
        paw = PatternGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
        f = random_weights(10, np.random.default_rng(6))
        _hom_plan.cache_clear()
        assert hom_density(f, C4) == pytest.approx(brute_hom_density(f, C4))
        assert hom_density(f, paw) == pytest.approx(brute_hom_density(f, paw))
        assert _hom_plan.cache_info().currsize == 2
        assert _hom_plan(C4, 10)[2] != _hom_plan(paw, 10)[2]


class TestCountingLemma:
    def test_equal_inputs(self):
        f = random_weights(8, np.random.default_rng(3))
        lhs, rhs, holds = counting_lemma_check(f, f, K3)
        assert lhs == 0.0 and rhs == 0.0 and holds

    def test_complete_vs_zero(self):
        f = WeightedGraph.indicator(OrderedGraph.complete(10))
        g = WeightedGraph.zeros(10)
        lhs, rhs, holds = counting_lemma_check(f, g, K3)
        assert lhs == pytest.approx(0.72)
        assert rhs == pytest.approx(5.4)
        assert holds

    def test_zero_violations_random(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            f = random_weights(10, rng)
            g = random_weights(10, rng)
            _, _, holds = counting_lemma_check(f, g, K3)
            assert holds

    def test_range_violation(self):
        f = WeightedGraph.constant(6, 1.5)
        with pytest.raises(RangeViolation):
            counting_lemma_check(f, WeightedGraph.zeros(6), K3)


class TestSampling:
    def test_degenerate_probabilities(self):
        assert sample_graph_from_weights(WeightedGraph.zeros(6), 1).edge_count == 0
        assert sample_graph_from_weights(WeightedGraph.constant(6, 1.0), 1) == OrderedGraph.complete(6)

    def test_deterministic(self):
        d = WeightedGraph.constant(10, 0.5)
        assert sample_graph_from_weights(d, 3) == sample_graph_from_weights(d, 3)

    def test_half_weights_concentrate(self):
        # empirical cut-norm distance of samples from their density matrix;
        # asymptotic statement, so only the observed maximum is asserted loosely
        d = WeightedGraph.constant(18, 0.5)
        worst = 0.0
        for seed in range(10):
            sampled = WeightedGraph.indicator(sample_graph_from_weights(d, seed))
            worst = max(worst, cutnorm_exact(sampled - d))
        assert worst <= 0.3

    def test_range_check(self):
        with pytest.raises(RangeViolation):
            sample_graph_from_weights(WeightedGraph.constant(4, 1.2), 0)


class TestDegreeLemma:
    def test_equal_inputs_no_violations(self):
        f = random_weights(12, np.random.default_rng(0))
        assert degree_lemma_check(f, f, range(1, 13), eps=0.001) == 0

    def test_equal_degree_functionals(self):
        n = 12
        f = WeightedGraph.indicator(OrderedGraph.complete(n))
        g = WeightedGraph.constant(n, 1.0)
        assert degree_lemma_check(f, g, range(1, n + 1), eps=0.01) == 0

    def test_bound_over_random_instances(self):
        rng = np.random.default_rng(12)
        n = 12
        for _ in range(100):
            f = random_weights(n, rng)
            noise = rng.uniform(-0.08, 0.08, size=(n, n))
            noise = (noise + noise.T) / 2
            np.fill_diagonal(noise, 0.0)
            g = WeightedGraph(np.clip(f.w + noise, 0.0, 1.0))
            eps = cutnorm_exact(f - g)
            count = degree_lemma_check(f, g, range(1, n + 1), eps)
            assert count <= eps ** (1 / 3) * n

    def test_small_u_rejected(self):
        f = random_weights(12, np.random.default_rng(1))
        g = random_weights(12, np.random.default_rng(2))
        with pytest.raises(HypothesisViolated):
            degree_lemma_check(f, g, [1, 2], eps=0.5)

    def test_cutnorm_hypothesis_enforced(self):
        f = WeightedGraph.indicator(OrderedGraph.complete(12))
        g = WeightedGraph.zeros(12)
        with pytest.raises(HypothesisViolated):
            degree_lemma_check(f, g, range(1, 13), eps=1e-6)

    @pytest.mark.parametrize("eps, message", [(-0.1, "eps must be >= 0"),
                                              (float("nan"), "eps must be finite")])
    def test_negative_or_nan_eps_refused(self, eps, message):
        # eps^(1/3) is complex below 0, and NaN compares false with every
        # cut norm, so either would skip or break the hypothesis checks
        f, g = WeightedGraph.constant(6, 0.5), WeightedGraph.constant(6, 0.4)
        with pytest.raises(HypothesisViolated):
            degree_lemma_check(f, g, range(1, 7), eps=0.01)
        with pytest.raises(ValueError, match=message):
            degree_lemma_check(f, g, range(1, 7), eps=eps)


class TestTwoDensity:
    def test_triangle(self):
        assert two_density(K3) == 2

    def test_cliques(self):
        for ell in range(3, 9):
            assert two_density(PatternGraph.complete(ell)) == Fraction(ell + 1, 2)

    def test_c4(self):
        assert two_density(PatternGraph.cycle(4)) == Fraction(3, 2)

    def test_threshold_exponent_identity(self):
        for ell in range(3, 9):
            m2 = two_density(PatternGraph.complete(ell))
            assert Fraction(1, 1) / m2 == Fraction(2, ell + 1)

    def test_too_few_vertices(self):
        with pytest.raises(TooFewVertices):
            two_density(PatternGraph.from_edges(2, [(1, 2)]))


class TestStrictlyBalanced:
    def test_cliques_balanced(self):
        for ell in range(3, 9):
            assert is_strictly_balanced(PatternGraph.complete(ell))

    def test_k4_plus_pendant_not_balanced(self):
        pend = PatternGraph.from_edges(
            5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)]
        )
        assert not is_strictly_balanced(pend)

    def test_c5_balanced(self):
        assert is_strictly_balanced(PatternGraph.cycle(5))

    def test_guard(self):
        with pytest.raises(TooLarge):
            is_strictly_balanced(PatternGraph.complete(9))


class TestWeightedGraphObject:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedGraph(np.ones((3, 3)))  # nonzero diagonal
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            WeightedGraph(bad)  # asymmetric

    @pytest.mark.parametrize("make", [
        lambda: WeightedGraph.zeros(0),
        lambda: WeightedGraph.constant(0, 1.0),
        lambda: WeightedGraph(np.zeros((0, 0))),
    ], ids=["zeros", "constant", "matrix"])
    def test_rejects_no_vertices(self, make):
        with pytest.raises(ValueError, match="vertex count must be >= 1"):
            make()

    @pytest.mark.parametrize("header", ["0", "-1"])
    def test_io_rejects_vertex_count_below_one(self, tmp_path, header):
        path = tmp_path / "w.txt"
        path.write_text(f"\n{header}\n")
        with pytest.raises(ValueError, match="line 2: vertex count must be >= 1"):
            read_weighted(str(path))

    def test_io_round_trip(self, tmp_path):
        f = random_weights(7, np.random.default_rng(6))
        path = tmp_path / "w.txt"
        write_weighted(f, str(path))
        back = read_weighted(str(path))
        assert back.n == 7
        assert np.array_equal(back.w, f.w)

    def test_io_names_line_of_non_numeric_weight(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("3\n1 2 0.5\n1 3 x\n2 3 0.25\n")
        with pytest.raises(ValueError, match="line 3"):
            read_weighted(str(path))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_io_names_line_of_non_finite_weight(self, tmp_path, token):
        path = tmp_path / "w.txt"
        path.write_text(f"3\n1 2 0.5\n\n1 3 {token}\n2 3 0.25\n")
        with pytest.raises(ValueError, match=f"^line 4: weight {float(token)!r} is not finite$"):
            read_weighted(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_constant_refuses_non_finite_value(self, value):
        with pytest.raises(ValueError, match="weights must be finite"):
            WeightedGraph.constant(4, value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_arithmetic_refuses_non_finite_scalar(self, value):
        # the product would hold nan weights, which the constructor refuses
        with pytest.raises(ValueError, match="scalar must be finite"):
            WeightedGraph.zeros(3) * value
        with pytest.raises(ValueError, match="scalar must be finite"):
            value * WeightedGraph.zeros(3)
        with pytest.raises(ValueError, match="scale must be finite"):
            WeightedGraph.indicator(OrderedGraph.complete(3), scale=value)

    def test_arithmetic_refuses_overflow(self):
        # finite operands whose result overflows to +-inf, which the
        # constructor would refuse
        big = WeightedGraph.constant(3, 1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=r"^WeightedGraph \+ overflows"):
                big + big
            with pytest.raises(ValueError, match="^WeightedGraph - overflows"):
                big - WeightedGraph.constant(3, -1e308)
            with pytest.raises(ValueError, match=r"^WeightedGraph \* overflows"):
                big * 10
            with pytest.raises(ValueError, match=r"^WeightedGraph \* overflows"):
                -10 * big

    def test_arithmetic_keeps_finite_scalars(self):
        assert np.array_equal((WeightedGraph.constant(3, 1.0) * 2).w,
                              WeightedGraph.constant(3, 2.0).w)
        assert np.array_equal(WeightedGraph.indicator(OrderedGraph.complete(3), scale=-0.5).w,
                              WeightedGraph.constant(3, -0.5).w)

    def test_io_rejects_wrong_pair_order(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("3\n1 2 0.5\n2 3 0.25\n1 3 0.75\n")
        with pytest.raises(ValueError, match="line 3"):
            read_weighted(str(path))
