import json

import pytest

from ramseykit import (
    AdversarySpec,
    OrderedGraph,
    generate_colouring,
    gnp_generate,
    read_colouring,
    read_graph,
    write_colouring,
    write_graph,
)
from ramseykit.cli import main


@pytest.fixture
def coloured_files(tmp_path):
    g = gnp_generate(12, 0.6, 3).graph
    phi = generate_colouring(g, AdversarySpec("RandomR", r=4, seed=3))
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "c.txt"
    write_graph(g, str(gpath))
    write_colouring(phi, str(cpath))
    return gpath, cpath


def test_find_subcommand(coloured_files, tmp_path, capsys):
    gpath, cpath = coloured_files
    wpath = tmp_path / "wit.json"
    code = main(["find", "--graph", str(gpath), "--colouring", str(cpath),
                 "--ell", "3", "--witness-out", str(wpath)])
    assert code == 0
    out = capsys.readouterr().out
    assert "found K_3" in out
    payload = json.loads(wpath.read_text())
    assert len(payload["vertices"]) == 3


def test_find_rainbow_flag(coloured_files, capsys):
    gpath, cpath = coloured_files
    code = main(["find", "--graph", str(gpath), "--colouring", str(cpath),
                 "--ell", "3", "--rainbow"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert "K_3" in out


def test_arrow_subcommand(tmp_path, capsys):
    gpath = tmp_path / "k6.txt"
    write_graph(OrderedGraph.complete(6), str(gpath))
    code = main(["arrow", "--graph", str(gpath), "--ell", "3", "--colours", "2"])
    assert code == 0
    assert "arrows" in capsys.readouterr().out


def test_arrow_witness_is_valid_colouring(tmp_path, capsys):
    gpath = tmp_path / "k5.txt"
    wpath = tmp_path / "wit.txt"
    write_graph(OrderedGraph.complete(5), str(gpath))
    code = main(["arrow", "--graph", str(gpath), "--ell", "3", "--colours", "2",
                 "--witness-out", str(wpath)])
    assert code == 0
    phi = read_colouring(str(wpath), read_graph(str(gpath)))
    assert phi.colours() <= {0, 1}


def test_er_demo_subcommand(capsys):
    code = main(["er-demo", "--n", "10", "--ell", "3",
                 "--adversary", '{"kind": "MinOrder"}'])
    assert code == 0
    out = capsys.readouterr().out
    assert "branch: sequence" in out
    assert "witness K_3" in out


def test_er_demo_non_sequence_branch(capsys):
    # injective colours on a host large enough that no step qualifies
    code = main(["er-demo", "--n", "230", "--ell", "3",
                 "--adversary", '{"kind": "Injective"}'])
    assert code == 0
    out = capsys.readouterr().out
    assert "branch: sampling" in out or "branch: exhaustive" in out
    assert "Rainbow" in out


def test_sweep_subcommand(tmp_path, capsys):
    config = {
        "ell": 4,
        "n_grid": [20],
        "c_grid": [0.5, 1.5],
        "adversary": {"kind": "Injective"},
        "trials": 3,
        "master_seed": 2,
        "predicate": "rainbow",
    }
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    jpath = tmp_path / "out.json"
    code = main(["sweep", "--config", str(cpath), "--out", str(out),
                 "--json", str(jpath)])
    assert code == 0
    assert out.exists() and jpath.exists()
    assert (tmp_path / "out.summary.csv").exists()
    assert len(out.read_text().splitlines()) == 1 + 6


def test_sweep_clean_mode_with_verify(tmp_path, capsys):
    config = {
        "ell": 4,
        "n_grid": [24],
        "c_grid": [1.5],
        "adversary": {"kind": "Injective"},
        "trials": 3,
        "master_seed": 4,
        "clean_mode": True,
        "predicate": "rainbow",
    }
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    code = main(["sweep", "--config", str(cpath), "--out", str(out), "--verify"])
    assert code == 0
    assert "clean-mode audit: 3 trials re-checked" in capsys.readouterr().out


MIN_ORDER = '{"kind": "MinOrder"}'


@pytest.mark.parametrize("argv, flag", [
    (["er-demo", "--n", "0", "--ell", "3", "--adversary", MIN_ORDER], "--n"),
    (["er-demo", "--n", "5", "--ell", "2", "--adversary", MIN_ORDER], "--ell"),
    (["er-demo", "--n", "5", "--ell", "3", "--adversary", "notjson"], "--adversary"),
    (["find", "--graph", "g", "--colouring", "c", "--ell", "2"], "--ell"),
    (["find", "--graph", "g", "--colouring", "c", "--ell", "3", "--set", "1,x"], "--set"),
    (["arrow", "--graph", "g", "--ell", "3", "--colours", "1"], "--colours"),
])
def test_bad_argument_exits_2_naming_the_flag(argv, flag, capsys):
    # checked at parse time, before any file is read
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert message.startswith(f"ramseykit {argv[0]}: error: argument {flag}: ")
