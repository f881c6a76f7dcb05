"""The three input rules: an integer size, count or seed, a vertex of
{1,...,n}, and an edge colouring, each checked where it enters.

Every public function and constructor that takes a size refuses 3.5, 3.0 and
True with a ValueError naming the parameter, and gives the same result for a
numpy integer as for the int it equals; so does every one that takes a seed.
The scalar lookups answer a non-vertex with no edge."""

import json
import re
from itertools import combinations

import numpy as np
import pytest

from ramseykit import (
    AdversarySpec,
    ArrowQuery,
    EdgeColouring,
    ErConstants,
    ExperimentConfig,
    OrderedGraph,
    PatternGraph,
    WeightedGraph,
    arrows_mono,
    build_sequence,
    canonical_arrow_exhaustive,
    classify_copy,
    clean_subgraph,
    count_cliques,
    cutnorm_heuristic,
    derive_seed,
    enumerate_cliques,
    er_find,
    extract_canonical,
    find_canonical_copy,
    find_rainbow_copy,
    generate_colouring,
    gnp_generate,
    greedy_colour_partition,
    rainbow_by_sampling,
    read_colouring,
    restricted_growth_strings,
    sample_graph_from_weights,
    wilson_interval,
    witness_for,
)

K5 = OrderedGraph.complete(5)
K6 = OrderedGraph.complete(6)
INJECTIVE_K5 = generate_colouring(K5, AdversarySpec("Injective"))
INJECTIVE_K12 = generate_colouring(OrderedGraph.complete(12), AdversarySpec("Injective"))
TWO_COLOURED_K30 = generate_colouring(OrderedGraph.complete(30), AdversarySpec("RandomR", r=2, seed=1))
SEQUENCE = build_sequence(TWO_COLOURED_K30, ErConstants.for_clique(3))
_UPPER = np.triu(np.random.default_rng(0).uniform(-1.0, 1.0, (8, 8)), 1)
SIGNED_8 = WeightedGraph(_UPPER + _UPPER.T)


def _config(**kwargs) -> ExperimentConfig:
    fields = dict(ell=4, n_grid=(12,), c_grid=(1.0,), adversary=AdversarySpec("GreedyProper"),
                  trials=2, master_seed=1)
    return ExperimentConfig(**{**fields, **kwargs})


# (parameter name in the message, a valid value, the call)
SIZES = [
    pytest.param("vertex count", 5, lambda n: OrderedGraph(n, [(1, 2)]), id="OrderedGraph"),
    pytest.param("vertex count", 5, OrderedGraph.complete, id="OrderedGraph.complete"),
    pytest.param("vertex count", 5, OrderedGraph.empty, id="OrderedGraph.empty"),
    pytest.param("n", 12, lambda n: gnp_generate(n, 0.5, 1).graph, id="gnp_generate"),
    pytest.param("ell", 3, lambda ell: count_cliques(K5, ell), id="count_cliques"),
    pytest.param("ell", 3, lambda ell: list(enumerate_cliques(K5, ell)), id="enumerate_cliques"),
    pytest.param("ell", 4, lambda ell: clean_subgraph(K5, ell), id="clean_subgraph"),
    pytest.param("ell", 3, lambda ell: find_canonical_copy(INJECTIVE_K5, ell), id="find_canonical_copy"),
    pytest.param("ell", 3, lambda ell: find_rainbow_copy(INJECTIVE_K5, ell), id="find_rainbow_copy"),
    pytest.param("ell", 3, lambda ell: arrows_mono(K6, ArrowQuery(ell, 2)), id="ArrowQuery.ell"),
    pytest.param("r", 2, lambda r: arrows_mono(K6, ArrowQuery(3, r)), id="ArrowQuery.r"),
    pytest.param("ell", 3, lambda ell: canonical_arrow_exhaustive(OrderedGraph.complete(4), ell),
                 id="canonical_arrow_exhaustive"),
    pytest.param("m", 4, lambda m: list(restricted_growth_strings(m)), id="restricted_growth_strings"),
    pytest.param("ell", 3, lambda ell: ErConstants(ell, 0.1, 5), id="ErConstants.ell"),
    pytest.param("length", 5, lambda length: ErConstants(3, 0.1, length), id="ErConstants.length"),
    pytest.param("ell", 3, ErConstants.for_clique, id="ErConstants.for_clique"),
    pytest.param("ell", 3, lambda ell: extract_canonical(SEQUENCE, ell), id="extract_canonical"),
    pytest.param("ell", 3, lambda ell: rainbow_by_sampling(INJECTIVE_K12, range(1, 13), ell, 0.5, 0),
                 id="rainbow_by_sampling"),
    pytest.param("ell", 3, lambda ell: er_find(TWO_COLOURED_K30, ell), id="er_find"),
    pytest.param("r", 3, lambda r: AdversarySpec("RandomR", r=r), id="AdversarySpec.r"),
    pytest.param("lambda", 2, lambda lam: AdversarySpec("BoundedRandom", lam=lam), id="AdversarySpec.lam"),
    pytest.param("seed", 3, lambda seed: AdversarySpec("Injective", seed=seed), id="AdversarySpec.seed"),
    pytest.param("ell", 4, lambda ell: _config(ell=ell), id="ExperimentConfig.ell"),
    pytest.param("n_grid", 12, lambda n: _config(n_grid=[n]), id="ExperimentConfig.n_grid"),
    pytest.param("trials", 2, lambda trials: _config(trials=trials), id="ExperimentConfig.trials"),
    pytest.param("master_seed", 1, lambda seed: _config(master_seed=seed),
                 id="ExperimentConfig.master_seed"),
    pytest.param("budget", 10, lambda budget: _config(budget=budget), id="ExperimentConfig.budget"),
    pytest.param("trials", 10, lambda trials: wilson_interval(3, trials), id="wilson_interval.trials"),
    pytest.param("successes", 3, lambda k: wilson_interval(k, 10), id="wilson_interval.successes"),
    pytest.param("vertex count", 4, lambda n: WeightedGraph.zeros(n).w.tolist(), id="WeightedGraph.zeros"),
    pytest.param("vertex count", 4, lambda n: WeightedGraph.constant(n, 0.5).w.tolist(),
                 id="WeightedGraph.constant"),
    pytest.param("ell", 3, lambda ell: PatternGraph(ell, [(1, 2)]), id="PatternGraph"),
    pytest.param("ell", 4, PatternGraph.complete, id="PatternGraph.complete"),
    pytest.param("ell", 4, PatternGraph.cycle, id="PatternGraph.cycle"),
    pytest.param("ell", 4, PatternGraph.path, id="PatternGraph.path"),
    pytest.param("restarts", 5, lambda k: cutnorm_heuristic(WeightedGraph.constant(6, 0.5), k),
                 id="cutnorm_heuristic"),
    pytest.param("cap", 6, lambda cap: greedy_colour_partition({1: 3, 2: 3, 5: 4}, cap),
                 id="greedy_colour_partition"),
]


@pytest.mark.parametrize("key, valid, call", SIZES)
def test_size_is_an_integer_and_numpy_integers_match_ints(key, valid, call):
    # 3.5 ran as a fractional size (K_6 "does not arrow" K_3.5), 3.0 passed
    # every comparison, and True ran as 1
    for bad in (3.5, 3.0, True):
        with pytest.raises(ValueError, match=f"^{re.escape(key)} must be an integer, got {bad!r}$"):
            call(bad)
    assert call(np.int64(valid)) == call(valid)


def test_frozen_parameters_store_python_ints():
    query = ArrowQuery(np.int64(3), np.int64(2))
    consts = ErConstants(np.int64(3), 0.1, np.int64(5))
    spec = AdversarySpec("BoundedRandom", r=np.int64(4), lam=np.int64(2), seed=np.uint64(7))
    config = _config(ell=np.int64(4), n_grid=[np.int64(12)], trials=np.int64(2),
                     master_seed=np.int64(1), budget=np.int64(10), adversary=spec)
    values = [query.ell, query.r, consts.ell, consts.length, spec.r, spec.lam, spec.seed,
              config.ell, *config.n_grid, config.trials, config.master_seed, config.budget,
              PatternGraph(np.int64(3), [(np.int64(1), np.int64(2))]).ell,
              OrderedGraph(np.int64(3)).n]
    assert all(type(value) is int for value in values)
    assert ExperimentConfig.from_json(json.loads(json.dumps(config.to_json()))) == config


@pytest.mark.parametrize("key, low, make", [
    ("vertex count", 1, OrderedGraph), ("n", 1, lambda n: gnp_generate(n, 0.5, 1)),
    ("ell", 2, lambda ell: count_cliques(K5, ell)), ("ell", 3, lambda ell: clean_subgraph(K5, ell)),
    ("ell", 3, lambda ell: find_rainbow_copy(INJECTIVE_K5, ell)), ("r", 2, lambda r: ArrowQuery(3, r)),
    ("m", 0, lambda m: list(restricted_growth_strings(m))), ("restarts", 1,
     lambda k: cutnorm_heuristic(WeightedGraph.zeros(3), k)),
    ("ell", 3, lambda ell: PatternGraph.cycle(ell)), ("cap", 1, lambda cap: greedy_colour_partition({}, cap)),
])
def test_size_below_its_bound_names_the_value(key, low, make):
    with pytest.raises(ValueError, match=f"^{key} must be >= {low}, got {low - 1}$"):
        make(low - 1)


def test_k6_arrows_k3_and_a_fractional_ell_is_refused():
    # R(3,3) = 6; ell = 3.5 used to answer "does not arrow"
    assert arrows_mono(K6, ArrowQuery(3, 2)).arrows
    with pytest.raises(ValueError, match="^ell must be an integer, got 3.5$"):
        ArrowQuery(3.5, 2)


def test_numpy_vertex_count_past_one_word():
    # an np.int64 n overflowed the bit masks: count_cliques(g, 2) gave 0
    g = OrderedGraph(np.int64(70), [(1, 2), (69, 70)])
    assert type(g.n) is int
    assert count_cliques(g, 2) == 4
    assert OrderedGraph.complete(np.int64(70)) == OrderedGraph.complete(70)
    # numpy endpoints are kept as Python ints
    g = OrderedGraph(4, [(np.int64(3), np.int64(1)), (np.int32(2), 4)])
    assert g.edges == ((1, 3), (2, 4))
    assert all(type(v) is int for edge in g.edges for v in edge)


@pytest.mark.parametrize("edge, message", [((1.5, 2), r"edge \(1.5, 2\)"),
                                           ((1.0, 2), r"edge \(1.0, 2\)"),
                                           ((2, True), r"edge \(2, True\)"),
                                           (("1", 2), r"edge \(1, 2\)")])
def test_edge_endpoints_are_integers(edge, message):
    # int() kept (1.5, 2) as the edge (1, 2)
    with pytest.raises(ValueError, match=f"^{message} outside \\{{1,...,3\\}}$"):
        OrderedGraph(3, [edge])
    with pytest.raises(ValueError, match=message):
        EdgeColouring(OrderedGraph(3, [(1, 2)]), {edge: 0})


@pytest.mark.parametrize("read", [lambda g, v: g.degree(v), lambda g, v: g.adjacency(v)])
@pytest.mark.parametrize("v", [-1, 0, 6, 2.0, True])
def test_degree_and_adjacency_refuse_a_non_vertex(read, v):
    # degree(-1) and adjacency(-1) read vertex n, adjacency(0) the empty row 0
    with pytest.raises(ValueError, match=f"^vertex {re.escape(str(v))} outside \\{{1,...,5\\}}$"):
        read(K5, v)


@pytest.mark.parametrize("u, v", [(0, 1), (1, 0), (4, 1), (1, 4), (-1, 2), (1.5, 2)])
def test_weighted_entry_refuses_a_non_vertex(u, v):
    # entry(0, 1) read w[n - 1, 0]; entry(n + 1, 1) raised IndexError
    f = WeightedGraph.constant(3, 0.5)
    with pytest.raises(ValueError, match="outside {1,...,3}"):
        f.entry(u, v)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
def test_complete_matches_the_validating_constructor(n):
    # rows cross a 64-bit word boundary at n = 63, 64 and 65
    want = OrderedGraph(n, combinations(range(1, n + 1), 2))
    got = OrderedGraph.complete(n)
    assert got == want
    assert got._adj == want._adj
    for name in ("_us", "_vs"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_colouring_check_is_shared_by_constructor_and_reader(tmp_path):
    host = OrderedGraph.complete(3)
    cases = [({(1, 2): 0, (1, 3): 1, (3, 2): 2, (2, 3): 3}, "3 4\n1 2 0\n1 3 1\n2 3 2\n2 3 3\n",
              r"duplicate edge \(2, 3\)"),
             ({(1, 2): 0, (1, 3): 7.0, (2, 3): 2}, None, r"colour 7.0 outside the colour ids on edge \(1, 3\)"),
             ({(1, 2): 0, (1, 3): 1, (2, 4): 2}, "3 3\n1 2 0\n1 3 1\n2 4 2\n", r"edge \(2, 4\) outside"),
             ({(1, 2): 0, (1, 3): 1}, "3 3\n1 2 0\n1 3 1\n", r"missing \[\(2, 3\)\]")]
    for mapping, text, message in cases:
        with pytest.raises(ValueError, match=message):
            EdgeColouring(host, mapping)
        if text is not None:
            path = tmp_path / "c.txt"
            path.write_text(text.replace("3 4\n", "3 3\n"))
            with pytest.raises(ValueError, match=message):
                read_colouring(str(path), host)


@pytest.mark.parametrize("call", [
    pytest.param(lambda seed: gnp_generate(12, 0.5, seed).graph, id="gnp_generate"),
    pytest.param(lambda seed: sample_graph_from_weights(WeightedGraph.constant(12, 0.5), seed),
                 id="sample_graph_from_weights"),
    pytest.param(lambda seed: cutnorm_heuristic(SIGNED_8, 2, seed), id="cutnorm_heuristic"),
    pytest.param(lambda seed: rainbow_by_sampling(INJECTIVE_K12, range(1, 13), 3, 0.5, seed),
                 id="rainbow_by_sampling"),
    pytest.param(lambda seed: er_find(TWO_COLOURED_K30, 3, seed).witness, id="er_find"),
])
def test_seed_is_a_nonnegative_integer(call):
    # numpy's SeedSequence raised a TypeError that did not name the seed, and
    # er_find took any seed on the branches that do not sample
    for bad in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(bad))}$"):
            call(bad)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        call(-1)
    assert call(np.uint64(7)) == call(7)


def test_derive_seed_parts_are_integers():
    # int() rounded each part: derive_seed(1.5) == derive_seed(1)
    for bad in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match=f"^seed part must be an integer, got {re.escape(repr(bad))}$"):
            derive_seed(1, bad)
    assert derive_seed(np.int64(1), np.uint64(60), 0, 0) == derive_seed(1, 60, 0, 0)
    assert derive_seed(-1) == derive_seed(2**64 - 1)


@pytest.mark.parametrize("u, v", [(1.5, 2), (2, 1.5), (2.0, 3), (3, np.float64(2.0)),
                                  (True, 2), (2, True)])
def test_scalar_lookups_answer_a_non_vertex_with_no_edge(u, v):
    # has_edge(1.5, 2) raised TypeError and has_edge(True, 2) read vertex 1;
    # get(1.5, 2) and get(True, 2) raised IndexError
    assert K5.has_edge(u, v) is False
    assert INJECTIVE_K5.get(u, v) is None
    assert K5.has_edge(np.int64(2), np.int32(3)) is True
    assert INJECTIVE_K5.get(np.int64(2), np.int32(3)) == INJECTIVE_K5.get(2, 3)


@pytest.mark.parametrize("verts, bad", [((1, 2.0, 3), 2.0), ((1.0, 2, 3), 1.0), ((1, 2, 3.5), 3.5),
                                        ((True, 2, 3), True)])
def test_copies_refuse_a_non_integer_vertex(verts, bad):
    # (1, 2.0, 3) raised TypeError, and (True, 2, 3) was read as (1, 2, 3)
    for check in (classify_copy, witness_for):
        with pytest.raises(ValueError, match=f"^vertex {re.escape(str(bad))} outside \\{{1,...,5\\}}$"):
            check(INJECTIVE_K5, verts)
    assert witness_for(INJECTIVE_K5, (np.int64(1), 2, 3)) == witness_for(INJECTIVE_K5, (1, 2, 3))
