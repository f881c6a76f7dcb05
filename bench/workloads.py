"""The benchmark's seeded workloads.

A workload turns ``--seed`` into a fixed list of ``size`` distinct trial
inputs during set-up.  ``run(i)`` performs trial ``i`` through ramseykit's
public API and is the only part that is timed.  ``line(i, out)`` checks the
output and reduces it to one canonical text line; the digest of that line is
the seeded-output gate.  ``verify(i, out)`` re-derives what the trial claims
from scratch and runs once per distinct input, outside the timed region.
A traced pass covers the first ``trace_pass`` inputs.

Library calls go through module attributes (``harness.run_sweep``) so the
tracer's wrappers are picked up when they are installed.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is recorded in ``meta.json`` next to this file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ramseykit import adversaries, colouring, cutnorm, erdos_rado, graphs, harness

WORKLOADS = ("sweep_rainbow", "er_k30", "sweep_clean_verify", "cutnorm_lemmas")

# criterion-07 grid
ELL = 4
N_GRID = (60, 120)
C_GRID = (0.3, 0.6, 1.0, 1.5, 2.5)
CELLS = tuple((n, c) for n in N_GRID for c in C_GRID)

# criterion-08 palettes
ER_PALETTES = (2, 5, 30, 435)
ER_HOST_N = 30
ER_ELL = 3

_SEED_SPACE = 1 << 63

META = json.loads((Path(__file__).resolve().parent / "meta.json").read_text())


class TrialFailure(Exception):
    """A trial's output failed a correctness check."""


def digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:12]


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, _SEED_SPACE, size=count)]


def _fmt(x: float) -> str:
    """Cut-norm values rounded so BLAS summation order cannot flip the digest."""
    return format(float(x), ".9g")


def sweep_config(n_grid, c_grid, trials: int, master_seed: int,
                  clean: bool, predicate: str) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        ell=ELL, n_grid=n_grid, c_grid=c_grid,
        adversary=adversaries.AdversarySpec("GreedyProper"),
        trials=trials, master_seed=master_seed,
        clean_mode=clean, predicate=predicate,
    )


def sweep_cell_lines(result, report) -> list[str]:
    """One line per grid cell: its summary row, its trial rows without
    ``elapsed_ms``, their witnesses, and the clean-mode audit report."""
    n_rank = {n: i for i, n in enumerate(result.config.n_grid)}
    cells: dict[tuple[int, int], list[str]] = {}
    for rec in result.records:
        key = (n_rank[rec.n], result.config.c_grid.index(rec.c))
        cells.setdefault(key, []).append(
            rec.csv_row().rsplit(",", 1)[0] + ";" + repr(rec.witness))
    audit = "" if report is None else f"|{report.trials_checked},{report.witnesses_checked}"
    lines = []
    for key, summary in zip(sorted(cells), result.summaries):
        lines.append(summary.csv_row() + "|" + "|".join(cells[key]) + audit)
    if len(lines) != len(result.summaries) or len(cells) != len(result.summaries):
        raise TrialFailure("summary rows do not match trial cells")
    return lines


def check_sweep_record(rec, config: harness.ExperimentConfig) -> None:
    """Regenerate the trial's coloured graph and re-classify its witness."""
    if rec.found != (rec.witness is not None):
        raise TrialFailure(f"found={rec.found} but witness={rec.witness}")
    if not rec.found:
        return
    if config.predicate == "rainbow" and rec.pattern != colouring.PatternTag.RAINBOW.value:
        raise TrialFailure(f"rainbow search reported pattern {rec.pattern!r}")
    graph = graphs.gnp_generate(rec.n, rec.p, rec.seed).graph
    if rec.clean:
        graph = graphs.clean_subgraph(graph, rec.ell)
    spec = config.adversary.with_seed(harness.derive_seed(rec.seed, 1))
    phi = adversaries.generate_colouring(graph, spec)
    tags = colouring.classify_copy(phi, rec.witness)
    if colouring.PatternTag(rec.pattern) not in tags:
        raise TrialFailure(f"witness {rec.witness} does not re-classify as {rec.pattern}")


class SweepWorkload:
    """Criterion-07 sweep trials, each one ``run_sweep`` call on one cell.

    Trial ``i`` samples cell ``i mod 10`` with its own master seed, so every
    trial is timed on its own.  ``grid_config`` is the whole grid with
    ``grid_trials`` per cell; ``run_sweep`` runs it with one and with two
    workers for the scaling figure.
    """

    block = 50  # five trials of each cell

    def __init__(self, seed: int, clean: bool, predicate: str,
                 size: int, trace_pass: int, grid_trials: int) -> None:
        rng = np.random.default_rng(seed)
        self.clean = clean
        self.configs = [
            sweep_config((CELLS[i % len(CELLS)][0],), (CELLS[i % len(CELLS)][1],),
                         1, master, clean, predicate)
            for i, master in enumerate(_seeds(rng, size))
        ]
        self.size = size
        self.trace_pass = trace_pass
        self.grid_config = sweep_config(N_GRID, C_GRID, grid_trials,
                                        _seeds(rng, 1)[0], clean, predicate)

    def _sweep(self, config, threads: int = 1):
        result = harness.run_sweep(config, threads=threads)
        report = harness.verify_corollary_mode(result.records) if self.clean else None
        return result, report

    def run(self, i: int):
        return self._sweep(self.configs[i])

    def kernel_share(self, i: int) -> float:
        """No sweep trial reaches the cut-norm kernel."""
        return 0.0

    def line(self, i: int, out) -> str:
        (line,) = sweep_cell_lines(*out)
        return line

    def verify(self, i: int, out) -> None:
        for rec in out[0].records:
            check_sweep_record(rec, self.configs[i])

    def grid_pass(self, threads: int):
        """The whole grid through one ``run_sweep`` call; returns per-cell
        lines, the number of trials in each cell and the sweep output."""
        out = self._sweep(self.grid_config, threads=threads)
        return sweep_cell_lines(*out), self.grid_config.trials, out

    def verify_grid(self, out) -> None:
        for rec in out[0].records:
            check_sweep_record(rec, self.grid_config)


class ErWorkload:
    """Criterion-08 round trips: RandomR colouring of K30, ``er_find`` at
    ell = 3, then ``classify_copy`` of the witness."""

    block = 200  # fifty colourings per palette
    trace_pass = 800

    def __init__(self, seed: int, size: int = 2000) -> None:
        rng = np.random.default_rng(seed)
        self.host = graphs.OrderedGraph.complete(ER_HOST_N)
        self.specs = [
            adversaries.AdversarySpec("RandomR", r=ER_PALETTES[i % len(ER_PALETTES)], seed=s)
            for i, s in enumerate(_seeds(rng, size))
        ]
        self.er_seeds = _seeds(rng, size)
        self.size = size

    def kernel_share(self, i: int) -> float:
        """No ER trial reaches the cut-norm kernel."""
        return 0.0

    def run(self, i: int):
        phi = adversaries.generate_colouring(self.host, self.specs[i])
        res = erdos_rado.er_find(phi, ER_ELL, seed=self.er_seeds[i])
        return res, colouring.classify_copy(phi, res.witness.vertices)

    def line(self, i: int, out) -> str:
        res, tags = out
        if frozenset(tags) != res.witness.tags or not tags & colouring.STRICT_TAGS:
            raise TrialFailure(f"witness {res.witness.vertices} re-classifies as {tags}")
        steps = ""
        if res.sequence is not None:
            seq = res.sequence
            for k, survivors in enumerate(seq.survivors, start=1):
                if not len(survivors) > (seq.delta / 2) ** k * ER_HOST_N:
                    raise TrialFailure(f"survivor bound fails at step {k}")
            steps = ",".join(f"{s.vertex}{s.direction}{s.colour}" for s in seq.steps)
        tag_names = ",".join(sorted(t.value for t in tags))
        return f"{res.branch}|{res.witness.vertices}|{tag_names}|{steps}"

    def verify(self, i: int, out) -> None:
        """``line`` already re-classifies the witness against the colouring."""


def _symmetric(a: np.ndarray) -> np.ndarray:
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return a


class CutnormWorkload:
    """Lemma checks in the shape of criteria 04, 05 and 09, plus exact vs
    heuristic cut norm of G(n, 1/2) - 1/2 at n = 19.

    Trial ``i`` is kind ``KINDS[i mod 40]``: 13 counting-lemma checks at
    n = 10, 13 degree-lemma checks at n = 12, 13 heuristic-soundness checks
    at n = 4..12, and one near-guard exact/heuristic comparison.
    """

    block = 80  # two cycles of KINDS
    trace_pass = 200
    GUARD_N = 19
    HEURISTIC_RESTARTS = 8
    KINDS = ("counting",) * 13 + ("degree",) * 13 + ("soundness",) * 13 + ("guard",)
    KERNEL_SHARE = META["workloads"]["cutnorm_lemmas"]["kernel_share"]

    def __init__(self, seed: int, size: int = 400) -> None:
        rng = np.random.default_rng(seed)
        self.k3 = cutnorm.PatternGraph.complete(3)
        self.inputs = [self._make(self.KINDS[i % len(self.KINDS)], rng)
                       for i in range(size)]
        self.size = size

    def _make(self, kind: str, rng: np.random.Generator):
        WG = cutnorm.WeightedGraph
        if kind == "counting":
            return kind, WG(_symmetric(rng.random((10, 10)))), WG(_symmetric(rng.random((10, 10))))
        if kind == "degree":
            f = _symmetric(rng.random((12, 12)))
            noise = _symmetric(rng.uniform(-0.08, 0.08, size=(12, 12)))
            return kind, WG(f), WG(np.clip(f + noise, 0.0, 1.0))
        if kind == "soundness":
            n = int(rng.integers(4, 13))
            return kind, WG(_symmetric(rng.uniform(-1.0, 1.0, size=(n, n)))), _seeds(rng, 1)[0]
        n = self.GUARD_N
        upper = np.triu(rng.random((n, n)) < 0.5, 1).astype(np.float64)
        a = upper + upper.T - 0.5
        np.fill_diagonal(a, 0.0)
        return kind, WG(a), _seeds(rng, 1)[0]

    def kernel_share(self, i: int) -> float:
        """Measured share of trial ``i``'s time spent in ``cutnorm_exact``,
        by trial kind (see meta.json)."""
        return self.KERNEL_SHARE[self.KINDS[i % len(self.KINDS)]]

    def run(self, i: int):
        kind, a, b = self.inputs[i]
        if kind == "counting":
            return cutnorm.counting_lemma_check(a, b, self.k3)
        if kind == "degree":
            eps = cutnorm.cutnorm_exact(a - b)
            return eps, cutnorm.degree_lemma_check(a, b, range(1, a.n + 1), eps,
                                                   verify_cutnorm=False)
        heuristic = cutnorm.cutnorm_heuristic(a, restarts=self.HEURISTIC_RESTARTS, seed=b)
        return heuristic, cutnorm.cutnorm_exact(a)

    def line(self, i: int, out) -> str:
        kind, a, _ = self.inputs[i]
        if kind == "counting":
            lhs, rhs, holds = out
            if not holds:
                raise TrialFailure(f"counting lemma fails: {lhs} > {rhs}")
            return f"{kind}|{_fmt(lhs)}|{_fmt(rhs)}"
        if kind == "degree":
            eps, bad = out
            if bad > eps ** (1 / 3) * a.n:
                raise TrialFailure(f"degree lemma fails: {bad} bad vertices at eps={eps}")
            return f"{kind}|{_fmt(eps)}|{bad}"
        heuristic, exact = out
        if heuristic > exact + 1e-12:
            raise TrialFailure(f"heuristic {heuristic} exceeds exact {exact}")
        return f"{kind}|{a.n}|{_fmt(heuristic)}|{_fmt(exact)}"

    def verify(self, i: int, out) -> None:
        """``line`` already checks each lemma's inequality."""


def make(name: str, seed: int):
    if name == "sweep_rainbow":
        return SweepWorkload(seed, clean=False, predicate="rainbow",
                             size=1000, trace_pass=400, grid_trials=20)
    if name == "sweep_clean_verify":
        return SweepWorkload(seed, clean=True, predicate="canonical",
                             size=1000, trace_pass=200, grid_trials=5)
    if name == "er_k30":
        return ErWorkload(seed)
    if name == "cutnorm_lemmas":
        return CutnormWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
