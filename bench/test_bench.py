"""The benchmark's own tests; run with ``python3 -m pytest bench -q``.

They are not part of the library's test suite: they check the benchmark's
gates (recorded digests, exact counts under tracing, refusing to run without
the sources) and keep the known arrow-decider defect reproducible.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import json  # noqa: E402

import pytest  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
from ramseykit import harness  # noqa: E402

RECORDED = json.loads((BENCH / "digests.json").read_text())
PREFIX = {"sweep_rainbow": 20, "sweep_clean_verify": 20, "er_k30": 40, "cutnorm_lemmas": 40}


def _traced_counts(wl, trials):
    t = tracer.Tracer()
    with t.installed():
        for i in trials:
            with t.trial(i):
                wl.run(i)
    return tracer.exact_counts(t), t


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_exact_counts_repeat_across_traced_runs(name):
    wl = workloads.make(name, 1)
    trials = range(PREFIX[name])
    first, t = _traced_counts(wl, trials)
    second, _ = _traced_counts(wl, trials)
    assert first == second
    assert all(s.trial in trials for s in t.spans)
    if name.startswith("sweep"):
        assert first["graphs.edges"] > 0 and first["search.nodes_explored"] > 0
    if name == "er_k30":
        assert first["colouring.colour.calls"] > 0
        assert sum(first[f"erdos_rado.branch.{b}"]
                   for b in ("sequence", "sampling", "exhaustive")) == len(trials)
        assert first["graphs.edges"] == 0
    if name == "cutnorm_lemmas":
        assert first["cutnorm.exact_flops"] > 0


def test_tracer_restores_the_library():
    original = harness.run_sweep
    with tracer.Tracer().installed():
        assert harness.run_sweep is not original
    assert harness.run_sweep is original


@pytest.mark.parametrize("seed", sorted(RECORDED["seeds"].values()))
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_recorded_digests(name, seed):
    wl = workloads.make(name, seed)
    recorded = {k: v.split() for k, v in RECORDED["workloads"][name][str(seed)].items()}
    for i in range(PREFIX[name]):
        out = wl.run(i)
        wl.verify(i, out)
        assert workloads.digest(wl.line(i, out)) == recorded["inputs"][i], f"trial {i}"
    if "grid" in recorded:
        lines, _, out = wl.grid_pass(2)
        wl.verify_grid(out)
        assert [workloads.digest(line) for line in lines] == recorded["grid"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_rainbow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# Known defect, kept out of the timed workloads (see meta.json): the arrow
# decider recurses once per edge, so the sweep dies once a sampled graph has
# more than about 1000 edges.  When the fix lands these cases pass, strict
# xfail turns them into failures, and the entry in meta.json should go.
@pytest.mark.xfail(raises=RecursionError, strict=True)
@pytest.mark.parametrize("clean", [False, True])
@pytest.mark.parametrize("c", [1.0, 1.5, 2.5])
def test_known_failure_arrow_recursion(c, clean):
    harness.run_sweep(workloads.sweep_config((120,), (c,), 1, 1, clean, "mono_after_2colour"))
