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
from ramseykit import cli
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
    # the summary sits beside the trial CSV, also when only a directory
    # name holds a dot
    (tmp_path / "run.d").mkdir()
    for name, summary in [("out.csv", "out.summary.csv"),
                          ("run.d/trials", "run.d/trials.summary.csv")]:
        out = tmp_path / name
        jpath = tmp_path / "out.json"
        code = main(["sweep", "--config", str(cpath), "--out", str(out),
                     "--json", str(jpath)])
        assert code == 0
        assert out.exists() and jpath.exists()
        assert (tmp_path / summary).exists()
        assert f"summary -> {tmp_path / summary}" in capsys.readouterr().out
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
    (["arrow", "--graph", "g", "--ell", "3", "--colours", "2", "--budget", "-1"], "--budget"),
    (["arrow", "--graph", "g", "--ell", "3", "--colours", "2", "--budget", "0"], "--budget"),
    (["sweep", "--config", "c", "--out", "o", "--threads", "0"], "--threads"),
    (["sweep", "--config", "c", "--out", "o", "--threads", "-3"], "--threads"),
    # a negative seed: on the sampling branch (n = 216, Injective) and on another
    (["er-demo", "--n", "5", "--ell", "3", "--adversary", MIN_ORDER, "--seed", "-1"], "--seed"),
    (["er-demo", "--n", "216", "--ell", "3", "--adversary", '{"kind": "Injective"}',
      "--seed", "-1"], "--seed"),
])
def test_bad_argument_exits_2_naming_the_flag(argv, flag, capsys):
    # checked at parse time, before any file is read
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert message.startswith(f"ramseykit {argv[0]}: error: argument {flag}: ")


def _input_error(argv, capsys):
    """Run argv, expect exit status 2, return its only stderr line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    return line


def test_set_vertex_outside_graph_exits_2(coloured_files, capsys):
    gpath, cpath = coloured_files
    line = _input_error(["find", "--graph", str(gpath), "--colouring", str(cpath),
                         "--ell", "3", "--set", "1,99"], capsys)
    assert line == "ramseykit find: error: argument --set: vertex 99 outside {1,...,12}"


@pytest.mark.parametrize("flag", ["--graph", "--colouring"])
def test_missing_find_input_exits_2(flag, coloured_files, tmp_path, capsys):
    gpath, cpath = coloured_files
    missing = str(tmp_path / "missing.txt")
    files = {"--graph": str(gpath), "--colouring": str(cpath), flag: missing}
    line = _input_error(["find", "--graph", files["--graph"], "--colouring", files["--colouring"],
                         "--ell", "3"], capsys)
    assert line == (f"ramseykit find: error: argument {flag}: "
                    f"cannot read {missing!r}: No such file or directory")


def test_missing_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    line = _input_error(["sweep", "--config", missing, "--out", str(tmp_path / "o.csv")], capsys)
    assert line == (f"ramseykit sweep: error: argument --config: "
                    f"cannot read {missing!r}: No such file or directory")
    assert not (tmp_path / "o.csv").exists()


def _refused_output(command, flag, target, coloured_files, tmp_path, monkeypatch, capsys):
    """Run ``command`` with ``flag`` set to ``target`` and return its one
    error line, checking that no trial or search ran and no file was
    written."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    for name in ("run_sweep", "find_canonical_copy", "arrows_mono"):
        monkeypatch.setattr(cli, name, no_work)
    gpath, cpath = coloured_files
    config = tmp_path / "sweep.json"
    config.write_text('{"ell": 4, "n_grid": [12], "c_grid": [1.0], "trials": 2, '
                      '"master_seed": 1, "adversary": {"kind": "GreedyProper"}}')
    argv = {  # a repeated flag keeps its last value, so --out may be given twice
        "sweep": ["sweep", "--config", str(config), "--out", str(tmp_path / "trials.csv")],
        "find": ["find", "--graph", str(gpath), "--colouring", str(cpath), "--ell", "3"],
        "arrow": ["arrow", "--graph", str(gpath), "--ell", "3", "--colours", "2"],
    }[command] + [flag, target]

    def listing():  # every path under tmp_path, one level into directories
        return {path: path.is_dir() and list(path.iterdir()) for path in tmp_path.iterdir()}

    before = listing()
    line = _input_error(argv, capsys)
    assert listing() == before
    return line


OUTPUT_FLAGS = [
    ("sweep", "--out"),
    ("sweep", "--json"),
    ("find", "--witness-out"),
    ("arrow", "--witness-out"),
]


@pytest.mark.parametrize("command, flag", OUTPUT_FLAGS)
def test_output_in_missing_directory_exits_2(command, flag, coloured_files, tmp_path,
                                            monkeypatch, capsys):
    # refused before any input is read or any trial or search runs
    missing = str(tmp_path / "nodir" / "out.txt")
    line = _refused_output(command, flag, missing, coloured_files, tmp_path, monkeypatch, capsys)
    assert line == (f"ramseykit {command}: error: argument {flag}: "
                    f"cannot write {missing!r}: no such directory")


@pytest.mark.parametrize("command, flag", OUTPUT_FLAGS)
def test_output_that_is_a_directory_exits_2(command, flag, coloured_files, tmp_path,
                                            monkeypatch, capsys):
    (tmp_path / "out.d").mkdir()
    target = str(tmp_path / "out.d")
    line = _refused_output(command, flag, target, coloured_files, tmp_path, monkeypatch, capsys)
    assert line == (f"ramseykit {command}: error: argument {flag}: "
                    f"cannot write {target!r}: is a directory")


def test_summary_path_that_is_a_directory_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
    (tmp_path / "trials.summary.csv").mkdir()
    summary = str(tmp_path / "trials.summary.csv")
    line = _input_error(["sweep", "--config", str(tmp_path / "missing.json"),
                         "--out", str(tmp_path / "trials.csv")], capsys)
    assert line == (f"ramseykit sweep: error: argument --out: "
                    f"cannot write {summary!r}: is a directory")


@pytest.mark.parametrize("flag, text, message", [
    ("--graph", "4 2\n1 2\n2 1\n", "line 3: duplicate edge (1, 2)"),
    ("--colouring", "12 1\n1 2 x\n", "line 2: expected 'u v c', got '1 2 x'"),
    ("--config", '{"ell": 4', "line 1 column 10 (char 9)"),  # json's wording varies
    ("--config", '{"ell": 4, "color": 1}', "unknown sweep config keys: color"),
    ("--config", '{"n_grid": [12], "c_grid": [1.0], "adversary": {"kind": "GreedyProper"}, '
                 '"trials": 2, "master_seed": 1}', "missing sweep config keys: ell"),
    ("--config", '[4, [12]]', "sweep config must be a JSON object, got list"),
    ("--config", '{"ell": 4, "n_grid": [12], "c_grid": [1.0], "trials": 2, "master_seed": 1, '
                 '"adversary": {"kind": "RandomR", "r": 2, "seed": -1}}',
     "seed must be >= 0, got -1"),
    ("--config", '{"ell": 4, "n_grid": [12], "c_grid": [1.0], "trials": 2, "master_seed": 1, '
                 '"adversary": {"kind": "GreedyProper"}, "budget": 0}', "budget must be >= 1, got 0"),
    ("--config", '{"ell": 4, "n_grid": [12], "c_grid": [NaN], "trials": 2, "master_seed": 1, '
                 '"adversary": {"kind": "GreedyProper"}}', "c_grid must list positive reals, got [nan]"),
    ("--config", '{"ell": 4, "n_grid": [12], "c_grid": [Infinity], "trials": 2, "master_seed": 1, '
                 '"adversary": {"kind": "GreedyProper"}}', "c_grid must list positive reals, got [inf]"),
])
def test_malformed_input_file_exits_2(flag, text, message, coloured_files, tmp_path, capsys):
    gpath, cpath = coloured_files
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    if flag == "--config":
        command = "sweep"
        argv = ["sweep", "--config", str(bad), "--out", str(tmp_path / "o.csv")]
    else:
        command = "find"
        files = {"--graph": str(gpath), "--colouring": str(cpath), flag: str(bad)}
        argv = ["find", "--graph", files["--graph"], "--colouring", files["--colouring"],
                "--ell", "3"]
    line = _input_error(argv, capsys)
    assert line.startswith(f"ramseykit {command}: error: argument {flag}: {str(bad)!r}: ")
    assert line.endswith(message)
