import dataclasses
import itertools
import json
import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (
    AdversarySpec,
    ExperimentConfig,
    InvariantBreach,
    OrderedGraph,
    TrialRecord,
    clean_subgraph,
    derive_seed,
    run_sweep,
    verify_corollary_mode,
    wilson_interval,
    write_json,
    write_records_csv,
    write_summary_csv,
)
from ramseykit import harness
from ramseykit.harness import RECORD_COLUMNS, SUMMARY_COLUMNS


def small_config(**overrides):
    base = dict(
        ell=4,
        n_grid=(24, 30),
        c_grid=(0.5, 1.5),
        adversary=AdversarySpec("GreedyProper"),
        trials=6,
        master_seed=5,
        predicate="rainbow",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def assert_refused(data, match):
    """``from_json`` and the constructor both refuse the config ``data``."""
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_json(data)
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(**{**data, "adversary": AdversarySpec.from_json(data["adversary"])})


class TestWilson:
    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert hi == pytest.approx(0.037, abs=1e-3)

    def test_all_successes(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0
        assert lo == pytest.approx(0.963, abs=1e-3)

    def test_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo + hi == pytest.approx(1.0)
        assert lo < 0.5 < hi

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)
        # a negative z would give lo > hi, and a NaN z the whole of [0, 1]
        for z in (-1.96, -math.inf, math.inf, math.nan):
            with pytest.raises(ValueError, match="^z must"):
                wilson_interval(3, 10, z=z)
        assert wilson_interval(3, 10, z=0) == (0.3, 0.3)


class TestDeriveSeed:
    def test_frozen_values(self):
        # pinned so seed derivation stays portable across platforms/releases
        assert derive_seed(1, 60, 0, 0) == 14777433356209523075
        assert derive_seed(7) == 7191089600892374487
        assert derive_seed(2**63, 5) == 1083902114974056470

    def test_field_order_matters(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)


class TestConfig:
    def test_json_round_trip(self):
        cfg = small_config(clean_mode=True, exponent_mode="upper_window")
        assert ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg

    def test_exponents(self):
        assert small_config().exponent == pytest.approx(-2 / 5)
        assert small_config(exponent_mode="upper_window").exponent == pytest.approx(-6 / 16)

    def test_p_clamps_with_warning(self, caplog):
        cfg = small_config(c_grid=(1000.0,))
        with caplog.at_level(logging.WARNING, logger="ramseykit.harness"):
            assert cfg.p_for(24, 1000.0) == 1.0
        assert any("clamped" in rec.message for rec in caplog.records)

    def test_p_clamp_logged_once_per_cell(self, caplog):
        cfg = small_config(n_grid=(24,), c_grid=(1000.0,), trials=5,
                           adversary=AdversarySpec("Injective"))
        with caplog.at_level(logging.WARNING, logger="ramseykit.harness"):
            res = run_sweep(cfg)
        assert len(res.records) == 5
        assert sum("clamped" in rec.message for rec in caplog.records) == 1

    def test_validation(self):
        for key, value, match in (("trials", 0, "trials must be >= 1"),
                                  ("budget", 0, "budget must be >= 1"),
                                  ("budget", -5, "budget must be >= 1"),
                                  ("c_grid", [-1.0], "c_grid must list positive reals"),
                                  # NaN reached gnp_generate as p = NaN, and inf
                                  # ran as a cell clamped to p = 1
                                  ("c_grid", [0.5, math.nan], "c_grid must list positive reals"),
                                  ("c_grid", [0.5, math.inf], "c_grid must list positive reals"),
                                  ("predicate", "weird", "predicate must be one of")):
            assert_refused({**small_config().to_json(), key: value}, match)

    def test_from_json_rejects_unknown_keys(self):
        # a misspelt key would otherwise run a non-clean rainbow sweep silently
        data = {**small_config().to_json(), "predicte": "canonical", "clean": True}
        with pytest.raises(ValueError, match="unknown sweep config keys: clean, predicte"):
            ExperimentConfig.from_json(data)
        # unknown keys are named before missing ones
        with pytest.raises(ValueError, match="^unknown sweep config keys: color$"):
            ExperimentConfig.from_json({"ell": 4, "color": 1})

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_from_json_requires_boolean_clean_mode(self, value):
        data = {**small_config().to_json(), "clean_mode": value}
        assert_refused(data, "clean_mode must be true or false")

    @pytest.mark.parametrize("value", [4.7, 4.0, "4", True])
    @pytest.mark.parametrize("key", ["ell", "n_grid", "trials", "master_seed", "budget"])
    def test_from_json_refuses_non_integer_numbers(self, key, value):
        # int() would run "ell": 4.7 as 4 and "trials": "3" as 3
        data = small_config().to_json()
        data[key] = [value] if key == "n_grid" else value
        assert_refused(data, f"{key} must be an integer")

    @pytest.mark.parametrize("value", [2.5, "2", False])
    @pytest.mark.parametrize("key", ["r", "lambda", "seed"])
    def test_from_json_refuses_non_integer_adversary_numbers(self, key, value):
        data = small_config().to_json()
        data["adversary"] = {"kind": "BoundedRandom", "r": 5, "lambda": 2, key: value}
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            ExperimentConfig.from_json(data)
        attribute = "lam" if key == "lambda" else key
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            small_config(adversary=AdversarySpec(**{"kind": "BoundedRandom", "r": 5, "lam": 2,
                                                    attribute: value}))

    @pytest.mark.parametrize("value", ["1.5", True])
    def test_from_json_refuses_non_numeric_c(self, value):
        # float() would run "c_grid": ["1.5", true] as (1.5, 1.0)
        data = {**small_config().to_json(), "c_grid": [0.5, value]}
        assert_refused(data, "c_grid must list numbers")

    def test_from_json_accepts_integer_c(self):
        data = {**small_config().to_json(), "c_grid": [1, 2.5]}
        assert ExperimentConfig.from_json(data).c_grid == (1.0, 2.5)

    @pytest.mark.parametrize("grid", [{"n_grid": (30, 30)}, {"c_grid": (1.0, 1)}])
    def test_rejects_duplicate_grid_values(self, grid):
        # a repeated value would merge two cells and count seed-identical trials twice
        assert_refused({**small_config().to_json(), **grid}, "distinct")

    @pytest.mark.parametrize("value", [30, "30", None, {"30": 1}])
    @pytest.mark.parametrize("key", ["n_grid", "c_grid"])
    def test_refuses_grid_that_is_not_a_list(self, key, value):
        assert_refused({**small_config().to_json(), key: value}, f"{key} must be a list")

    def test_constructor_refuses_adversary_that_is_not_a_spec(self):
        with pytest.raises(ValueError, match="adversary must be an AdversarySpec"):
            small_config(adversary={"kind": "GreedyProper"})

    @pytest.mark.parametrize("absent, names", [
        (("ell",), "ell"),
        (("trials", "n_grid"), "n_grid, trials"),
        (("adversary",), "adversary"),
    ])
    def test_from_json_names_missing_keys(self, absent, names):
        data = {k: v for k, v in small_config().to_json().items() if k not in absent}
        with pytest.raises(ValueError, match=f"^missing sweep config keys: {names}$"):
            ExperimentConfig.from_json(data)

    @pytest.mark.parametrize("data", [[4, 30], "config", 4, None])
    def test_from_json_refuses_non_object(self, data):
        with pytest.raises(ValueError, match="sweep config must be a JSON object"):
            ExperimentConfig.from_json(data)

    def test_from_json_refuses_adversary_without_kind(self):
        data = {**small_config().to_json(), "adversary": {"seed": 3}}
        with pytest.raises(ValueError, match="missing adversary keys: kind"):
            ExperimentConfig.from_json(data)


class TestSweep:
    def test_records_sorted_and_reproducible(self):
        cfg = small_config()
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        keys = [(r.n, r.c, r.trial) for r in a.records]
        assert keys == sorted(keys)
        strip = lambda recs: [r.csv_row().rsplit(",", 1)[0] for r in recs]
        assert strip(a.records) == strip(b.records)

    def test_csv_outputs(self, tmp_path):
        res = run_sweep(small_config())
        out = tmp_path / "r.csv"
        summary = tmp_path / "s.csv"
        jpath = tmp_path / "r.json"
        write_records_csv(res.records, str(out))
        write_summary_csv(res.summaries, str(summary))
        write_json(res, str(jpath))
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(RECORD_COLUMNS)
        assert len(lines) == 1 + len(res.records)
        assert summary.read_text().splitlines()[0] == ",".join(SUMMARY_COLUMNS)
        payload = json.loads(jpath.read_text())
        assert len(payload["records"]) == len(res.records)
        assert payload["config"]["master_seed"] == 5
        assert "note" in payload

    def test_rerun_byte_identical_modulo_elapsed(self, tmp_path):
        cfg = small_config()
        paths = []
        for tag in ("a", "b"):
            res = run_sweep(cfg)
            path = tmp_path / f"{tag}.csv"
            write_records_csv(res.records, str(path))
            paths.append(path)

        def strip_elapsed(path):
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        assert strip_elapsed(paths[0]) == strip_elapsed(paths[1])

    def test_parallel_matches_serial(self):
        cfg = small_config(trials=4)
        serial = run_sweep(cfg, threads=1)
        parallel = run_sweep(cfg, threads=2)
        strip = lambda recs: [r.csv_row().rsplit(",", 1)[0] for r in recs]
        assert strip(serial.records) == strip(parallel.records)
        assert serial.summaries == parallel.summaries

    def test_summary_counts(self):
        res = run_sweep(small_config())
        for s in res.summaries:
            cell = [r for r in res.records if r.n == s.n and r.c == s.c]
            assert s.trials == len(cell)
            assert s.successes == sum(1 for r in cell if r.found)
            assert s.p_hat == pytest.approx(s.successes / s.trials)

    def test_adversary_refinement_monotone(self):
        # same graph seeds: a rainbow clique under GreedyProper implies one
        # under Injective (any clique is rainbow there)
        inj = run_sweep(small_config(adversary=AdversarySpec("Injective")))
        greedy = run_sweep(small_config(adversary=AdversarySpec("GreedyProper")))
        for a, b in zip(greedy.records, inj.records):
            assert (a.n, a.c, a.trial, a.seed) == (b.n, b.c, b.trial, b.seed)
            if a.found:
                assert b.found

    def test_mono_after_2colour_predicate(self):
        cfg = ExperimentConfig(
            ell=3, n_grid=(6,), c_grid=(50.0,), adversary=AdversarySpec("Injective"),
            trials=2, master_seed=1, predicate="mono_after_2colour",
        )
        res = run_sweep(cfg)
        # p clamps to 1, the graph is K6, and K6 -> (K3)_2 holds
        assert all(r.p == 1.0 and r.found for r in res.records)

    def test_arrow_predicate_builds_no_colouring(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the arrow predicate read a colouring")
        monkeypatch.setattr(harness, "generate_colouring", refuse)
        cfg = ExperimentConfig(
            ell=3, n_grid=(6, 8), c_grid=(0.5, 50.0), adversary=AdversarySpec("GreedyProper"),
            trials=3, master_seed=2, predicate="mono_after_2colour",
        )
        assert len(run_sweep(cfg).records) == 12

    def test_clamped_injective_cell_always_succeeds(self):
        cfg = small_config(n_grid=(20,), c_grid=(10**6,), trials=4,
                           adversary=AdversarySpec("Injective"))
        res = run_sweep(cfg)
        assert res.summaries[0].p_hat == 1.0
        assert all(r.p == 1.0 for r in res.records)

    def test_vanishing_c_never_succeeds(self):
        cfg = small_config(n_grid=(20,), c_grid=(1e-9,), trials=4)
        res = run_sweep(cfg)
        assert res.summaries[0].p_hat == 0.0

    def test_upper_window_exponent_sweep(self):
        cfg = small_config(exponent_mode="upper_window", n_grid=(24,),
                           c_grid=(1.0,), trials=3)
        res = run_sweep(cfg)
        assert res.records[0].p == pytest.approx(24 ** (-6 / 16))

    def test_frozen_sweep_fixture(self):
        # pins the whole seeding/sampling pipeline across sessions
        cfg = ExperimentConfig(
            ell=4, n_grid=(30,), c_grid=(1.0,), trials=20, master_seed=1,
            adversary=AdversarySpec("GreedyProper"), predicate="rainbow",
        )
        res = run_sweep(cfg)
        assert res.summaries[0].successes == 19
        assert res.records[0].p == pytest.approx(0.2565378780242026)
        assert [r.seed for r in res.records[:3]] == [
            14903944053423676287, 12676731342320680066, 9708996996986176222,
        ]


def unfound_clean_record(ell):
    """A clean-mode trial record with no witness, for auditing a stand-in
    cleaned graph."""
    return TrialRecord(ell=ell, n=6, c=1.0, p=0.5, adversary="GreedyProper", clean=True,
                       trial=0, seed=7, found=False, pattern="", elapsed_ms=0)


class TestCorollaryMode:
    def test_clean_sweep_verifies(self):
        cfg = small_config(clean_mode=True, n_grid=(24,), c_grid=(1.5,), trials=5,
                           adversary=AdversarySpec("Injective"))
        res = run_sweep(cfg)
        report = verify_corollary_mode(res.records)
        assert report.trials_checked == 5
        found = sum(1 for r in res.records if r.found)
        assert report.witnesses_checked == found

    def test_clean_sweep_at_n60_no_breaches(self):
        cfg = small_config(clean_mode=True, n_grid=(60,), c_grid=(1.5,), trials=4,
                           adversary=AdversarySpec("GreedyProper"))
        res = run_sweep(cfg)
        report = verify_corollary_mode(res.records)
        assert report.trials_checked == 4

    def test_refuses_non_clean(self):
        res = run_sweep(small_config(trials=2))
        with pytest.raises(ValueError):
            verify_corollary_mode(res.records)

    def test_empty_stream(self):
        report = verify_corollary_mode([])
        assert report.trials_checked == 0

    def test_breach_detection(self):
        # a forged witness outside the cleaned graph must be caught
        cfg = small_config(clean_mode=True, n_grid=(24,), c_grid=(1.5,), trials=1,
                           adversary=AdversarySpec("Injective"))
        rec = run_sweep(cfg).records[0]
        forged = TrialRecord(
            ell=rec.ell, n=rec.n, c=rec.c, p=rec.p, adversary=rec.adversary,
            clean=rec.clean, trial=rec.trial, seed=rec.seed, found=True,
            pattern=rec.pattern, elapsed_ms=rec.elapsed_ms,
            witness=(1, 2, 3, 4),
        )
        from ramseykit import gnp_generate

        cleaned = clean_subgraph(gnp_generate(rec.n, rec.p, rec.seed).graph, rec.ell)
        is_clique = all(
            cleaned.has_edge(u, v)
            for i, u in enumerate((1, 2, 3, 4))
            for v in (1, 2, 3, 4)[i + 1:]
        )
        if not is_clique:
            with pytest.raises(InvariantBreach):
                verify_corollary_mode([forged])
        else:
            verify_corollary_mode([forged])

    def test_ell_3_sweep_verifies(self):
        # cleaning at ell = 3 removes nothing, so the audit must not demand "no K_4"
        cfg = ExperimentConfig(ell=3, n_grid=(30,), c_grid=(2.0,), clean_mode=True,
                               adversary=AdversarySpec("GreedyProper"), trials=2, master_seed=1)
        report = verify_corollary_mode(run_sweep(cfg).records)
        assert report.trials_checked == 2

    @pytest.mark.parametrize("edges, message", [
        # K_5 also holds K_4's sharing a triangle: the K_5 check comes first
        (list(itertools.combinations(range(1, 6), 2)), "K_5 present after cleaning"),
        # K_5 minus the edge 45: the K_4's 1234 and 1235 share the triangle 123
        ([e for e in itertools.combinations(range(1, 6), 2) if e != (4, 5)],
         "two K_4 share >= 3 vertices"),
        # both again on 131..135, where the bitset rows run into a third word
        (list(itertools.combinations(range(131, 136), 2)), "K_5 present after cleaning"),
        ([e for e in itertools.combinations(range(131, 136), 2) if e != (134, 135)],
         "two K_4 share >= 3 vertices"),
    ])
    def test_audit_reports_each_breach(self, monkeypatch, edges, message):
        graph = OrderedGraph(edges[-1][1] + 5, edges)  # n = 10, or 140 above vertex 128
        rec = unfound_clean_record(4)
        monkeypatch.setattr(harness, "clean_subgraph", lambda g, ell: graph)
        with pytest.raises(InvariantBreach, match=f"{message} \\(seed {rec.seed}\\)"):
            verify_corollary_mode([rec])

    @pytest.mark.parametrize("ell", [4, 5, 6])
    def test_clique_found_after_an_earlier_shared_triangle(self, monkeypatch, ell):
        # K_{ell+1} minus one edge on {1,...,ell+1} holds two K_ell sharing a
        # triangle that the scan meets first; a K_{ell+1} on the next ell+1
        # vertices must still be the breach reported
        low = [e for e in itertools.combinations(range(1, ell + 2), 2) if e != (ell, ell + 1)]
        high = list(itertools.combinations(range(ell + 2, 2 * ell + 3), 2))
        graph = OrderedGraph(2 * ell + 2, low + high)
        rec = unfound_clean_record(ell)
        monkeypatch.setattr(harness, "clean_subgraph", lambda g, k: graph)
        with pytest.raises(InvariantBreach, match=f"K_{ell + 1} present after cleaning"):
            verify_corollary_mode([rec])

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from([4, 5, 6]))
    def test_audit_matches_brute_force(self, data, ell):
        # graphs the audit could be handed, against a subset-by-subset oracle;
        # OR-ing masks makes the dense graphs that hold K_5 to K_7 likely
        n = data.draw(st.integers(1, 9))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        mask = 0
        for _ in range(data.draw(st.integers(1, 4))):
            mask |= data.draw(st.integers(0, 2 ** len(pairs) - 1))
        graph = OrderedGraph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])

        def cliques(k):
            return [set(c) for c in itertools.combinations(graph.vertices, k)
                    if all(graph.has_edge(a, b) for a, b in itertools.combinations(c, 2))]

        if cliques(ell + 1):
            expected = f"K_{ell + 1} present"
        elif any(len(a & b) >= 3 for a, b in itertools.combinations(cliques(ell), 2)):
            expected = f"two K_{ell} share"
        else:
            expected = None
        # cleaning and the audit share one rule: cleaning leaves a graph as
        # it is exactly when the audit finds nothing to report
        assert (clean_subgraph(graph, ell) is graph) == (expected is None)
        rec = unfound_clean_record(ell)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "clean_subgraph", lambda g, k: graph)
            if expected is None:
                assert verify_corollary_mode([rec]).trials_checked == 1
            else:
                with pytest.raises(InvariantBreach, match=expected):
                    verify_corollary_mode([rec])

    @pytest.mark.parametrize("shift", [-25, 25])
    def test_out_of_range_witness_is_a_breach(self, shift):
        # the real witness with its last vertex moved outside {1,...,24} and
        # put first: a negative index must not wrap back onto that vertex
        cfg = small_config(clean_mode=True, n_grid=(24,), c_grid=(1.5,), trials=5,
                           adversary=AdversarySpec("Injective"))
        rec = next(r for r in run_sweep(cfg).records if r.found)
        verify_corollary_mode([rec])
        *rest, last = rec.witness
        forged = TrialRecord(
            ell=rec.ell, n=rec.n, c=rec.c, p=rec.p, adversary=rec.adversary,
            clean=rec.clean, trial=rec.trial, seed=rec.seed, found=True,
            pattern=rec.pattern, elapsed_ms=rec.elapsed_ms,
            witness=(last + shift, *rest),
        )
        with pytest.raises(InvariantBreach):
            verify_corollary_mode([forged])

    @pytest.mark.parametrize("witness", [
        lambda w: w[:3], lambda w: w[:2], lambda w: w[:1], lambda w: (),
        lambda w: w[::-1], lambda w: (w[0], *w[:3]), lambda w: (*w, w[-1] + 1),
    ], ids=["cut-3", "cut-2", "cut-1", "empty", "reversed", "repeated", "extended"])
    def test_witness_must_be_ell_increasing_vertices(self, witness):
        # pairwise adjacent vertices are not enough: a recorded K_ell witness
        # has exactly ell strictly increasing vertices
        cfg = small_config(clean_mode=True, n_grid=(24,), c_grid=(1.5,), trials=5,
                           adversary=AdversarySpec("Injective"))
        rec = next(r for r in run_sweep(cfg).records if r.found)
        assert verify_corollary_mode([rec]).witnesses_checked == 1
        forged = dataclasses.replace(rec, witness=witness(rec.witness))
        with pytest.raises(InvariantBreach, match=f"is not {rec.ell} increasing vertices"):
            verify_corollary_mode([forged])
