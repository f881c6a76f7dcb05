import pytest

from ramseykit import (
    AdversarySpec,
    OrderedGraph,
    generate_colouring,
    gnp_generate,
    is_delta_p_bounded,
    max_colour_multiplicity,
    verify_properness,
)


class TestSpecs:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            AdversarySpec("Chaotic")
        with pytest.raises(ValueError, match="unknown adversary kind 'Chaotic'"):
            AdversarySpec.from_json({"kind": "Chaotic"})

    def test_randomr_needs_r(self):
        with pytest.raises(ValueError):
            AdversarySpec("RandomR")
        with pytest.raises(ValueError, match="RandomR needs r >= 1"):
            AdversarySpec.from_json({"kind": "RandomR"})

    def test_bounded_needs_lambda(self):
        with pytest.raises(ValueError):
            AdversarySpec("BoundedRandom")
        with pytest.raises(ValueError, match="BoundedRandom needs lambda >= 1"):
            AdversarySpec.from_json({"kind": "BoundedRandom"})

    def test_json_round_trip(self):
        spec = AdversarySpec("BoundedRandom", r=7, lam=2, seed=11)
        assert AdversarySpec.from_json(spec.to_json()) == spec
        assert spec.to_json()["lambda"] == 2

    def test_from_json_rejects_unknown_keys(self):
        # "lam" is the attribute name; the JSON key is "lambda"
        with pytest.raises(ValueError, match="unknown adversary keys: lam, rr"):
            AdversarySpec.from_json({"kind": "BoundedRandom", "lam": 2, "rr": 3})


    @pytest.mark.parametrize("data", [
        {"kind": "RandomR", "r": 2.5},
        {"kind": "RandomR", "r": "3"},
        {"kind": "BoundedRandom", "lambda": 1.5},
        {"kind": "BoundedRandom", "lambda": True},
        {"kind": "Injective", "seed": 3.0},
        {"kind": "Injective", "seed": "7"},
        {"kind": "Injective", "seed": None},  # an absent seed is 0, a null one is refused
    ])
    def test_from_json_refuses_non_integer_numbers(self, data):
        key = next(k for k in data if k != "kind")
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            AdversarySpec.from_json(data)
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            AdversarySpec(**{"lam" if k == "lambda" else k: v for k, v in data.items()})

    @pytest.mark.parametrize("key, kwargs", [
        ("r", {"kind": "RandomR", "r": 2.5}),
        ("r", {"kind": "RandomR", "r": True}),
        ("r", {"kind": "BoundedRandom", "r": 4.0, "lam": 2}),
        ("lambda", {"kind": "BoundedRandom", "lam": 1.5}),
        ("lambda", {"kind": "BoundedRandom", "lam": True}),
    ])
    def test_constructor_refuses_non_integer_numbers(self, key, kwargs):
        # r=2.5 would make RandomR draw from {0, 1}
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            AdversarySpec(**kwargs)
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            AdversarySpec.from_json({"lambda" if k == "lam" else k: v for k, v in kwargs.items()})

    @pytest.mark.parametrize("kind, kwargs", [("RandomR", {"r": 2}), ("Injective", {}),
                                              ("BoundedRandom", {"lam": 1})])
    def test_refuses_negative_seed(self, kind, kwargs):
        # numpy's PCG64 would fail later with a message naming no key
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            AdversarySpec(kind, seed=-1, **kwargs)
        data = {"kind": kind, "seed": -1,
                **{"lambda" if k == "lam" else k: v for k, v in kwargs.items()}}
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            AdversarySpec.from_json(data)
        assert AdversarySpec(kind, seed=0, **kwargs).seed == 0

    def test_from_json_names_missing_kind(self):
        with pytest.raises(ValueError, match="^missing adversary keys: kind$"):
            AdversarySpec.from_json({"r": 3, "seed": 1})

    @pytest.mark.parametrize("data", [["MinOrder"], "MinOrder", None])
    def test_from_json_refuses_non_object(self, data):
        with pytest.raises(ValueError, match="adversary must be a JSON object"):
            AdversarySpec.from_json(data)

    def test_from_json_keeps_absent_and_null_numbers(self):
        spec = AdversarySpec.from_json({"kind": "BoundedRandom", "r": None, "lambda": 2})
        assert spec == AdversarySpec("BoundedRandom", lam=2, seed=0)


class TestKinds:
    def test_min_order_k3(self):
        phi = generate_colouring(OrderedGraph.complete(3), AdversarySpec("MinOrder"))
        assert [phi.colour(1, 2), phi.colour(1, 3), phi.colour(2, 3)] == [1, 1, 2]

    def test_max_order_k3(self):
        phi = generate_colouring(OrderedGraph.complete(3), AdversarySpec("MaxOrder"))
        assert [phi.colour(1, 2), phi.colour(1, 3), phi.colour(2, 3)] == [2, 3, 3]

    def test_injective_k4(self):
        phi = generate_colouring(OrderedGraph.complete(4), AdversarySpec("Injective"))
        assert len(phi.colours()) == 6

    def test_greedy_proper_is_proper_k3(self):
        phi = generate_colouring(OrderedGraph.complete(3), AdversarySpec("GreedyProper"))
        assert verify_properness(phi)

    def test_randomr_palette(self):
        g = gnp_generate(20, 0.5, 4).graph
        phi = generate_colouring(g, AdversarySpec("RandomR", r=3, seed=4))
        assert phi.colours() <= {0, 1, 2}

    def test_determinism(self):
        g = gnp_generate(15, 0.5, 8).graph
        for spec in (AdversarySpec("RandomR", r=4, seed=9),
                     AdversarySpec("GreedyProper"),
                     AdversarySpec("BoundedRandom", lam=2, seed=9)):
            assert generate_colouring(g, spec) == generate_colouring(g, spec)


class TestProperness:
    def test_min_order_not_proper(self):
        phi = generate_colouring(OrderedGraph.complete(3), AdversarySpec("MinOrder"))
        assert not verify_properness(phi)

    def test_injective_proper(self):
        phi = generate_colouring(OrderedGraph.complete(6), AdversarySpec("Injective"))
        assert verify_properness(phi)

    def test_greedy_proper_on_100_random_graphs(self):
        for seed in range(100):
            g = gnp_generate(14, 0.5, seed).graph
            assert verify_properness(generate_colouring(g, AdversarySpec("GreedyProper")))


class TestMultiplicity:
    def test_injective_is_one(self):
        phi = generate_colouring(OrderedGraph.complete(5), AdversarySpec("Injective"))
        assert max_colour_multiplicity(phi) == 1

    def test_mono_k5_is_four(self):
        from ramseykit import EdgeColouring

        host = OrderedGraph.complete(5)
        phi = EdgeColouring(host, {e: 0 for e in host.edges})
        assert max_colour_multiplicity(phi) == 4

    def test_empty_graph_is_zero(self):
        phi = generate_colouring(OrderedGraph.empty(4), AdversarySpec("Injective"))
        assert max_colour_multiplicity(phi) == 0

    def test_bounded_random_respects_lambda(self):
        for seed in range(25):
            g = gnp_generate(18, 0.6, seed).graph
            for lam in (1, 3):
                phi = generate_colouring(g, AdversarySpec("BoundedRandom", lam=lam, seed=seed))
                assert max_colour_multiplicity(phi) <= lam

    def test_bounded_random_small_palette_uses_repairs(self):
        # palette 1 with lam 1 forces a fresh colour on nearly every edge
        g = OrderedGraph.complete(6)
        phi = generate_colouring(g, AdversarySpec("BoundedRandom", r=1, lam=1, seed=0))
        assert max_colour_multiplicity(phi) == 1


class TestBridge:
    def test_min_order_unbounded_on_full_set(self):
        # vertex 1 has colour degree n-1, so delta p n < n-1 breaks boundedness
        n = 30
        phi = generate_colouring(OrderedGraph.complete(n), AdversarySpec("MinOrder"))
        delta, p = 0.5, 1.0
        assert delta * p * n < n - 1
        assert not is_delta_p_bounded(phi, range(1, n + 1), delta, p)
