"""Exact text of every file format the library writes.

The sweep fixtures in ``tests/golden`` hold the trial CSV, the summary CSV
and the JSON of two small sweeps with ``elapsed_ms`` masked to 0: rainbow
search under GreedyProper and canonical search under RandomR(3), on
n in {12, 20} and C in {0.6, 3.0}; the (12, 3.0) cell is clamped to p = 1.

The fixtures in ``tests/golden/cli`` hold what ``ramseykit`` commands print
and write, run in a working directory holding copies of the inputs in
``tests/golden/cli/input``: ``<case>.out`` is the exit status line and then
stdout, and ``<case>.<name>`` is the file ``<name>`` the command wrote.
"""

import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from ramseykit import (
    AdversarySpec,
    EdgeColouring,
    ExperimentConfig,
    OrderedGraph,
    WeightedGraph,
    read_colouring,
    read_graph,
    read_weighted,
    run_sweep,
    write_colouring,
    write_graph,
    write_json,
    write_records_csv,
    write_summary_csv,
    write_weighted,
)
from ramseykit.cli import main

GOLDEN = Path(__file__).parent / "golden"
CLI = GOLDEN / "cli"

SWEEPS = {
    "rainbow": AdversarySpec("GreedyProper"),
    "canonical": AdversarySpec("RandomR", r=3),
}


def _masked(path: Path) -> str:
    """The file's text with every ``elapsed_ms`` value set to 0."""
    text = path.read_text()
    if path.name.endswith(".summary.csv"):
        return text
    if path.suffix == ".json":
        return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)
    return re.sub(r",\d+$", ",0", text, flags=re.M)


@pytest.mark.parametrize("predicate", sorted(SWEEPS))
def test_sweep_outputs_match_golden_text(predicate, tmp_path):
    cfg = ExperimentConfig(ell=4, n_grid=(12, 20), c_grid=(0.6, 3.0), trials=2,
                           master_seed=2, adversary=SWEEPS[predicate],
                           predicate=predicate)
    res = run_sweep(cfg)
    write_records_csv(res.records, tmp_path / f"{predicate}.csv")
    write_summary_csv(res.summaries, tmp_path / f"{predicate}.summary.csv")
    write_json(res, tmp_path / f"{predicate}.json")
    for name in (f"{predicate}.csv", f"{predicate}.summary.csv", f"{predicate}.json"):
        assert _masked(tmp_path / name) == (GOLDEN / name).read_text(), name


GRAPH_TEXT = "4 3\n1 2\n1 4\n3 4\n"
COLOURING_TEXT = "4 3\n1 2 5\n1 4 0\n3 4 5\n"
WEIGHTED_TEXT = "3\n1 2 0.5\n1 3 -0.25\n2 3 0.1\n"


def test_file_formats_match_literal_text(tmp_path):
    graph = OrderedGraph(4, [(3, 4), (1, 2), (4, 1)])
    phi = EdgeColouring(graph, {(1, 2): 5, (1, 4): 0, (3, 4): 5})
    f = WeightedGraph(np.array([[0.0, 0.5, -0.25], [0.5, 0.0, 0.1], [-0.25, 0.1, 0.0]]))
    paths = {name: tmp_path / name for name in ("g.txt", "c.txt", "w.txt")}
    write_graph(graph, paths["g.txt"])
    write_colouring(phi, paths["c.txt"])
    write_weighted(f, paths["w.txt"])
    assert paths["g.txt"].read_text() == GRAPH_TEXT
    assert paths["c.txt"].read_text() == COLOURING_TEXT
    assert paths["w.txt"].read_text() == WEIGHTED_TEXT
    assert read_graph(paths["g.txt"]) == graph
    assert read_colouring(paths["c.txt"], graph) == phi
    assert np.array_equal(read_weighted(paths["w.txt"]).w, f.w)


CLI_CASES = {
    "find_canonical": "find --graph g12.txt --colouring g12.col --ell 4 --witness-out witness.json",
    "find_rainbow": "find --graph g12.txt --colouring g12.col --ell 3 --rainbow",
    "find_set": "find --graph g12.txt --colouring g12.col --ell 3 --set 2,4,6,8,10,12",
    "find_not_found": "find --graph g12.txt --colouring g12.col --ell 5 --rainbow",
    "arrow_k6": "arrow --graph k6.txt --ell 3 --colours 2",
    "arrow_refuted": "arrow --graph k5.txt --ell 3 --colours 2 --witness-out certificate.txt",
    "arrow_budget": "arrow --graph k6.txt --ell 3 --colours 2 --budget 1",
    # K30 ends in the sequence branch under two colours and in exhaustive
    # search under 435; K_216 injective is delta-bounded, so it samples
    "er_k30_r2": """er-demo --n 30 --ell 3 --adversary '{"kind": "RandomR", "r": 2, "seed": 1}'""",
    "er_k30_r435": """er-demo --n 30 --ell 3 --adversary '{"kind": "RandomR", "r": 435, "seed": 1}'""",
    "er_k216_injective": """er-demo --n 216 --ell 3 --adversary '{"kind": "Injective"}'""",
    "er_k40_greedy": """er-demo --n 40 --ell 4 --adversary '{"kind": "GreedyProper"}'""",
    "sweep_clean_verify": "sweep --config clean.json --out trials.csv --verify",
    # 40 nodes decide every clamped K_6 and K_9 and run out on one n = 9
    # graph at C = 2.0, so a resource_limit row is written
    "sweep_mono_budget": "sweep --config mono.json --out trials.csv",
    # an output path in a missing directory: exit 2 before any trial, the
    # error on stderr, and no file or directory made
    "sweep_nodir": "sweep --config clean.json --out nodir/trials.csv",
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_matches_golden_text(case, tmp_path, monkeypatch, capsys):
    shutil.copytree(CLI / "input", tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    try:
        status = main(shlex.split(CLI_CASES[case]))
    except SystemExit as exc:  # input errors leave through argparse
        status = exc.code
    assert f"exit {status}\n" + capsys.readouterr().out == (CLI / f"{case}.out").read_text()
    written = {path.name: _masked(path) for path in tmp_path.iterdir()
               if not (CLI / "input" / path.name).exists()}
    expected = {path.name[len(case) + 1:]: path.read_text()
                for path in CLI.glob(f"{case}.*") if path.suffix != ".out"}
    assert written == expected
