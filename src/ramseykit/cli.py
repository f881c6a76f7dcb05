"""Command-line entry points: canonical/rainbow search, arrow decisions,
the constructive procedure demo, and Monte Carlo sweeps."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Callable, Optional, Sequence

from .adversaries import AdversarySpec, generate_colouring
from .colouring import CanonicalWitness, read_colouring, write_colouring
from .erdos_rado import NoWitness, er_find
from .graphs import OrderedGraph, _integer, _write_lines, read_graph, vertex_mask
from .harness import (
    ExperimentConfig,
    run_sweep,
    verify_corollary_mode,
    write_json,
    write_records_csv,
    write_summary_csv,
)
from .search import (
    ArrowQuery,
    DEFAULT_NODE_BUDGET,
    ResourceLimitError,
    arrows_mono,
    find_canonical_copy,
    find_rainbow_copy,
)

__all__ = ["main"]


# argparse types: a bad value exits with status 2 and names its flag

def _int_at_least(low: int) -> Callable[[str], int]:
    def convert(text: str) -> int:
        try:
            return _integer("value", int(text), low)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}") from None
    return convert


def _vertices(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected vertices like '1,2,5', got {text!r}") from None


def _adversary(text: str) -> AdversarySpec:
    try:
        return AdversarySpec.from_json(json.loads(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a spec such as '{{\"kind\": \"MinOrder\"}}', got {text!r} ({exc})") from None


class _InputError(Exception):
    """A flag whose value parses but names an unreadable or malformed file or
    an output path it cannot write, or does not fit its input; ``main``
    prints it as one line and exits with status 2."""


def _read(flag: str, reader: Callable, path: str, *args):
    try:
        return reader(path, *args)
    except OSError as exc:
        raise _InputError(f"argument {flag}: cannot read {path!r}: {exc.strerror}") from None
    except ValueError as exc:  # malformed content; the readers name the line
        raise _InputError(f"argument {flag}: {path!r}: {exc}") from None


def _check_out_dir(flag: str, path: Optional[str]) -> None:
    """Refuse an output path that is a directory or in a missing one, before any work."""
    if path is not None and os.path.isdir(path):
        raise _InputError(f"argument {flag}: cannot write {path!r}: is a directory")
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise _InputError(f"argument {flag}: cannot write {path!r}: no such directory")


def _read_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_json(json.load(fh))


def _print_witness(label: str, ell: int, witness: CanonicalWitness) -> None:
    tags = ", ".join(sorted(t.value for t in witness.tags))
    print(f"{label} K_{ell} on {witness.vertices} with tags: {tags}")
    for (u, v), c in witness.evidence:
        print(f"  edge {u} {v} colour {c}")


def _cmd_find(args: argparse.Namespace) -> int:
    _check_out_dir("--witness-out", args.witness_out)
    graph = _read("--graph", read_graph, args.graph)
    phi = _read("--colouring", read_colouring, args.colouring, graph)
    try:
        vertex_mask(graph, args.set)
    except ValueError as exc:
        raise _InputError(f"argument --set: {exc}") from None
    if args.rainbow:
        outcome = find_rainbow_copy(phi, args.ell, args.set)
    else:
        outcome = find_canonical_copy(phi, args.ell, args.set)
    if not outcome.found:
        print(f"no {'rainbow' if args.rainbow else 'canonical'} K_{args.ell} "
              f"({outcome.nodes_explored} nodes explored)")
        return 1
    witness = outcome.witness
    _print_witness("found", args.ell, witness)
    if args.witness_out:
        payload = {
            "vertices": list(witness.vertices),
            "tags": sorted(t.value for t in witness.tags),
            "evidence": [[u, v, c] for (u, v), c in witness.evidence],
        }
        _write_lines(args.witness_out, [json.dumps(payload, indent=2)])
        print(f"witness written to {args.witness_out}")
    return 0


def _cmd_arrow(args: argparse.Namespace) -> int:
    _check_out_dir("--witness-out", args.witness_out)
    graph = _read("--graph", read_graph, args.graph)
    query = ArrowQuery(ell=args.ell, r=args.colours)
    try:
        outcome = arrows_mono(graph, query, budget=args.budget)
    except ResourceLimitError as exc:
        print(f"undecided: {exc}")
        return 2
    if outcome.arrows:
        print(f"arrows: every {args.colours}-colouring of this graph has a "
              f"monochromatic K_{args.ell} ({outcome.nodes} nodes)")
        return 0
    print(f"does not arrow: certificate colouring with no monochromatic "
          f"K_{args.ell} found ({outcome.nodes} nodes)")
    if args.witness_out:
        write_colouring(outcome.witness, args.witness_out)
        print(f"certificate written to {args.witness_out}")
    return 0


def _cmd_er_demo(args: argparse.Namespace) -> int:
    phi = generate_colouring(OrderedGraph.complete(args.n), args.adversary)
    try:
        result = er_find(phi, args.ell, seed=args.seed)
    except NoWitness as exc:
        print(f"no witness: {exc}")
        return 1
    print(f"branch: {result.branch}")
    if result.sequence is not None:
        print("sequence trace (vertex, colour, direction, survivors):")
        for step, survivors in zip(result.sequence.steps, result.sequence.survivors):
            shown = list(survivors[:8])
            suffix = "..." if len(survivors) > 8 else ""
            print(f"  v={step.vertex} c={step.colour} {step.direction} "
                  f"|S|={len(survivors)} S={shown}{suffix}")
    _print_witness("witness", args.ell, result.witness)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    summary_path = os.path.splitext(args.out)[0] + ".summary.csv"
    for flag, path in (("--out", args.out), ("--out", summary_path), ("--json", args.json)):
        _check_out_dir(flag, path)
    config = _read("--config", _read_config, args.config)
    result = run_sweep(config, threads=args.threads)
    write_records_csv(result.records, args.out)
    write_summary_csv(result.summaries, summary_path)
    if args.json:
        write_json(result, args.json)
    if config.clean_mode and args.verify:
        report = verify_corollary_mode(result.records)
        print(f"clean-mode audit: {report.trials_checked} trials re-checked, "
              f"{report.witnesses_checked} witnesses verified")
    print(f"{len(result.records)} trials -> {args.out}")
    print(f"summary -> {summary_path}")
    for s in result.summaries:
        print(f"  n={s.n} C={s.c} p={s.p:.5f}: {s.successes}/{s.trials} "
              f"p_hat={s.p_hat:.3f} CI=({s.ci_lo:.3f}, {s.ci_hi:.3f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseykit",
        description="Canonical Ramsey patterns in (random) graphs: search, "
                    "arrow decisions, and threshold experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_find = sub.add_parser("find", help="search a coloured graph for a canonical or rainbow clique")
    p_find.add_argument("--graph", required=True)
    p_find.add_argument("--colouring", required=True)
    p_find.add_argument("--ell", type=_int_at_least(3), required=True)
    p_find.add_argument("--rainbow", action="store_true", help="search for rainbow copies only")
    p_find.add_argument("--set", type=_vertices, default=None,
                        help="restrict to these vertices, e.g. '1,2,5'")
    p_find.add_argument("--witness-out", default=None)
    p_find.set_defaults(func=_cmd_find)

    p_arrow = sub.add_parser("arrow", help="decide whether every r-colouring has a monochromatic clique")
    p_arrow.add_argument("--graph", required=True)
    p_arrow.add_argument("--ell", type=_int_at_least(3), required=True)
    p_arrow.add_argument("--colours", type=_int_at_least(2), required=True)
    p_arrow.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_NODE_BUDGET)
    p_arrow.add_argument("--witness-out", default=None)
    p_arrow.set_defaults(func=_cmd_arrow)

    p_demo = sub.add_parser("er-demo", help="run the constructive procedure on a coloured complete graph")
    p_demo.add_argument("--n", type=_int_at_least(1), required=True)
    p_demo.add_argument("--ell", type=_int_at_least(3), required=True)
    p_demo.add_argument("--adversary", type=_adversary, required=True,
                        help='JSON, e.g. \'{"kind": "MinOrder"}\' or \'{"kind": "RandomR", "r": 5, "seed": 3}\'')
    p_demo.add_argument("--seed", type=_int_at_least(0), default=0)
    p_demo.set_defaults(func=_cmd_er_demo)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo threshold sweep from a JSON config")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--json", default=None)
    p_sweep.add_argument("--threads", type=_int_at_least(1), default=1)
    p_sweep.add_argument("--verify", action="store_true",
                         help="re-audit clean-mode invariants after the sweep")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
