"""Exact text of every file format the library writes.

The sweep fixtures in ``tests/golden`` hold the trial CSV, the summary CSV
and the JSON of two small sweeps with ``elapsed_ms`` masked to 0: rainbow
search under GreedyProper and canonical search under RandomR(3), on
n in {12, 20} and C in {0.6, 3.0}; the (12, 3.0) cell is clamped to p = 1.
"""

import re
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

GOLDEN = Path(__file__).parent / "golden"

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
