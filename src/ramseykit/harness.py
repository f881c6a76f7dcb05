"""Seeded Monte Carlo experiment driver: threshold sweeps over (n, C,
adversary) grids at p = C * n^exponent, optional clean-subgraph mode,
Wilson-interval summaries, and deterministic CSV/JSON emission."""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .adversaries import AdversarySpec, generate_colouring
from .colouring import PatternTag
from .graphs import OrderedGraph, clean_subgraph, count_cliques, enumerate_cliques, gnp_generate
from .search import (
    ArrowQuery,
    DEFAULT_NODE_BUDGET,
    ResourceLimitError,
    arrows_mono,
    find_canonical_copy,
    find_rainbow_copy,
)

__all__ = [
    "EXPONENT_MODES",
    "PREDICATES",
    "ExperimentConfig",
    "TrialRecord",
    "CellSummary",
    "SweepResult",
    "CorollaryReport",
    "InvariantBreach",
    "derive_seed",
    "run_sweep",
    "wilson_interval",
    "write_records_csv",
    "write_summary_csv",
    "write_json",
    "verify_corollary_mode",
]

logger = logging.getLogger(__name__)

EXPONENT_MODES = ("canonical", "upper_window")
PREDICATES = ("rainbow", "canonical", "mono_after_2colour")

RECORD_COLUMNS = ("ell", "n", "C", "p", "adversary", "clean", "trial",
                  "seed", "found", "pattern", "elapsed_ms")
SUMMARY_COLUMNS = ("ell", "n", "C", "p", "adversary", "trials", "successes",
                   "p_hat", "ci_lo", "ci_hi")

_MASK64 = (1 << 64) - 1

# Strict-tag precedence used when one label must summarise a witness.
_TAG_PRECEDENCE = (PatternTag.MONOCHROMATIC, PatternTag.RAINBOW,
                   PatternTag.MIN_COLOURED, PatternTag.MAX_COLOURED)


class InvariantBreach(Exception):
    """A structural re-check failed; this indicates a bug, not bad luck."""


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Stable 64-bit mix of integer fields; identical on every platform.

    Feeding (master_seed, n, C-index, trial) makes every cell independently
    reproducible; the C grid index is mixed instead of the float C so the
    derivation never touches float hashing.
    """
    h = 0
    for part in parts:
        h = _splitmix64(h ^ (int(part) & _MASK64))
    return h


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative sweep description; see the README for the JSON schema."""

    ell: int
    n_grid: tuple[int, ...]
    c_grid: tuple[float, ...]
    adversary: AdversarySpec
    trials: int
    master_seed: int
    exponent_mode: str = "canonical"
    clean_mode: bool = False
    predicate: str = "rainbow"
    budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_grid", tuple(self.n_grid))
        object.__setattr__(self, "c_grid", tuple(float(c) for c in self.c_grid))
        if self.ell < 3:
            raise ValueError("ell must be >= 3")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ValueError("n_grid must list positive vertex counts")
        if not self.c_grid or any(c <= 0 for c in self.c_grid):
            raise ValueError("c_grid must list positive reals")
        if len(set(self.n_grid)) != len(self.n_grid) or len(set(self.c_grid)) != len(self.c_grid):
            raise ValueError("n_grid and c_grid values must be distinct")
        if self.exponent_mode not in EXPONENT_MODES:
            raise ValueError(f"exponent_mode must be one of {EXPONENT_MODES}")
        if self.predicate not in PREDICATES:
            raise ValueError(f"predicate must be one of {PREDICATES}")

    @property
    def exponent(self) -> float:
        ell = self.ell
        if self.exponent_mode == "canonical":
            return -2.0 / (ell + 1)
        return -(2.0 * ell - 2.0) / (ell * ell + ell - 4.0)

    def p_for(self, n: int, c: float) -> float:
        p = c * n**self.exponent
        if p > 1.0:
            logger.warning("p = %s clamped to 1.0 at (n=%d, C=%s)", p, n, c)
            return 1.0
        return p

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "n_grid": list(self.n_grid),
            "c_grid": list(self.c_grid),
            "exponent_mode": self.exponent_mode,
            "adversary": self.adversary.to_json(),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "clean_mode": self.clean_mode,
            "predicate": self.predicate,
            "budget": self.budget,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        return cls(
            ell=int(data["ell"]),
            n_grid=tuple(int(n) for n in data["n_grid"]),
            c_grid=tuple(float(c) for c in data["c_grid"]),
            adversary=AdversarySpec.from_json(data["adversary"]),
            trials=int(data["trials"]),
            master_seed=int(data["master_seed"]),
            exponent_mode=data.get("exponent_mode", "canonical"),
            clean_mode=bool(data.get("clean_mode", False)),
            predicate=data.get("predicate", "rainbow"),
            budget=int(data.get("budget", DEFAULT_NODE_BUDGET)),
        )


@dataclass(frozen=True)
class TrialRecord:
    """One Monte Carlo trial; ``seed`` regenerates its graph exactly.

    ``elapsed_ms`` is excluded from the determinism contract.  The witness
    vertices ride along (JSON and in-memory only, never the CSV) so clean
    sweeps can be re-audited without re-searching.
    """

    ell: int
    n: int
    c: float
    p: float
    adversary: str
    clean: bool
    trial: int
    seed: int
    found: bool
    pattern: str
    elapsed_ms: int
    witness: Optional[tuple[int, ...]] = None

    def csv_row(self) -> str:
        return ",".join([
            str(self.ell), str(self.n), repr(self.c), repr(self.p),
            self.adversary, "true" if self.clean else "false",
            str(self.trial), str(self.seed),
            "true" if self.found else "false", self.pattern,
            str(self.elapsed_ms),
        ])


@dataclass(frozen=True)
class CellSummary:
    ell: int
    n: int
    c: float
    p: float
    adversary: str
    trials: int
    successes: int
    p_hat: float
    ci_lo: float
    ci_hi: float

    def csv_row(self) -> str:
        return ",".join([
            str(self.ell), str(self.n), repr(self.c), repr(self.p),
            self.adversary, str(self.trials), str(self.successes),
            repr(self.p_hat), repr(self.ci_lo), repr(self.ci_hi),
        ])


@dataclass
class SweepResult:
    config: ExperimentConfig
    records: list[TrialRecord] = field(default_factory=list)
    summaries: list[CellSummary] = field(default_factory=list)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials)) / denom
    # the endpoints are exactly 0 resp. 1 at the boundary proportions
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return lo, hi


def _run_trial(config: ExperimentConfig, n: int, c_index: int, p: float,
               trial: int) -> TrialRecord:
    c = config.c_grid[c_index]
    seed = derive_seed(config.master_seed, n, c_index, trial)
    graph = gnp_generate(n, p, seed).graph
    if config.clean_mode:
        graph = clean_subgraph(graph, config.ell)
    phi = generate_colouring(graph, config.adversary.with_seed(derive_seed(seed, 1)))

    start = time.perf_counter()
    found = False
    pattern = ""
    witness = None
    if config.predicate == "rainbow":
        outcome = find_rainbow_copy(phi, config.ell)
        found = outcome.found
        if outcome.found:
            pattern = PatternTag.RAINBOW.value
            witness = outcome.witness.vertices
    elif config.predicate == "canonical":
        outcome = find_canonical_copy(phi, config.ell)
        found = outcome.found
        if outcome.found:
            for tag in _TAG_PRECEDENCE:
                if tag in outcome.witness.tags:
                    pattern = tag.value
                    break
            witness = outcome.witness.vertices
    else:  # mono_after_2colour
        try:
            arrow = arrows_mono(graph, ArrowQuery(config.ell, 2), config.budget)
            found = arrow.arrows
        except ResourceLimitError:
            found = False
            pattern = "resource_limit"
    elapsed_ms = int(round((time.perf_counter() - start) * 1000))

    return TrialRecord(
        ell=config.ell, n=n, c=c, p=p, adversary=config.adversary.kind,
        clean=config.clean_mode, trial=trial, seed=seed, found=found,
        pattern=pattern, elapsed_ms=elapsed_ms, witness=witness,
    )


def _trial_args(config: ExperimentConfig):
    for n in config.n_grid:
        for c_index, c in enumerate(config.c_grid):
            p = config.p_for(n, c)  # once per cell, so a clamp is logged once
            for trial in range(config.trials):
                yield (config, n, c_index, p, trial)


def _run_trial_star(args) -> TrialRecord:
    return _run_trial(*args)


def run_sweep(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Run every grid cell for ``trials`` independent trials.

    Trials are embarrassingly parallel; results are gathered and sorted by
    (n-index, C-index, trial) before emission, so scheduling never changes
    the output.  Per-trial resource limits are recorded in the row, never
    abort the sweep.
    """
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_run_trial_star, _trial_args(config), chunksize=8))
    else:
        records = [_run_trial(*args) for args in _trial_args(config)]

    n_rank = {n: i for i, n in enumerate(config.n_grid)}
    records.sort(key=lambda r: (n_rank[r.n], config.c_grid.index(r.c), r.trial))

    summaries = []
    per_cell: dict[tuple[int, int], list[TrialRecord]] = {}
    for rec in records:
        per_cell.setdefault((n_rank[rec.n], config.c_grid.index(rec.c)), []).append(rec)
    for (ni, ci) in sorted(per_cell):
        cell = per_cell[(ni, ci)]
        successes = sum(1 for r in cell if r.found)
        lo, hi = wilson_interval(successes, len(cell))
        summaries.append(CellSummary(
            ell=config.ell, n=cell[0].n, c=cell[0].c, p=cell[0].p,
            adversary=config.adversary.kind, trials=len(cell),
            successes=successes, p_hat=successes / len(cell), ci_lo=lo, ci_hi=hi,
        ))
    return SweepResult(config, records, summaries)


def write_records_csv(records: Sequence[TrialRecord], path: str) -> None:
    lines = [",".join(RECORD_COLUMNS)]
    lines.extend(rec.csv_row() for rec in records)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_csv(summaries: Sequence[CellSummary], path: str) -> None:
    lines = [",".join(SUMMARY_COLUMNS)]
    lines.extend(s.csv_row() for s in summaries)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(result: SweepResult, path: str) -> None:
    """JSON mirror of the CSV outputs, plus config and scope note."""
    payload = {
        "note": (
            "Success fractions are adversary-specific probes; deciding the "
            "full unbounded-palette arrow for sampled graphs is out of reach."
        ),
        "config": result.config.to_json(),
        "records": [
            {
                "ell": r.ell, "n": r.n, "C": r.c, "p": r.p,
                "adversary": r.adversary, "clean": r.clean, "trial": r.trial,
                "seed": r.seed, "found": r.found, "pattern": r.pattern,
                "elapsed_ms": r.elapsed_ms,
                "witness": list(r.witness) if r.witness else None,
            }
            for r in result.records
        ],
        "summaries": [
            {
                "ell": s.ell, "n": s.n, "C": s.c, "p": s.p,
                "adversary": s.adversary, "trials": s.trials,
                "successes": s.successes, "p_hat": s.p_hat,
                "ci_lo": s.ci_lo, "ci_hi": s.ci_hi,
            }
            for s in result.summaries
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class CorollaryReport:
    trials_checked: int
    witnesses_checked: int


def _clique_masks(graph: OrderedGraph, ell: int) -> list[int]:
    masks = []
    for tup in enumerate_cliques(graph, ell):
        mask = 0
        for v in tup:
            mask |= 1 << v
        masks.append(mask)
    return masks


def verify_corollary_mode(records: Iterable[TrialRecord]) -> CorollaryReport:
    """Re-audit a clean-mode sweep from its seeds.

    For every trial the cleaned graph is regenerated and re-checked: no
    K_{ell+1}, no two K_ell sharing >= 3 vertices (exhaustive pair check),
    and any recorded witness must induce a clique of the cleaned graph.
    A failure raises InvariantBreach and indicates a bug.
    """
    recs = list(records)
    witnesses = 0
    for rec in recs:
        if not rec.clean:
            raise ValueError("verify_corollary_mode requires a clean_mode sweep")
        graph = gnp_generate(rec.n, rec.p, rec.seed).graph
        cleaned = clean_subgraph(graph, rec.ell)
        if count_cliques(cleaned, rec.ell + 1) != 0:
            raise InvariantBreach(f"K_{rec.ell + 1} present after cleaning (seed {rec.seed})")
        masks = _clique_masks(cleaned, rec.ell)
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                if (masks[i] & masks[j]).bit_count() >= 3:
                    raise InvariantBreach(
                        f"two K_{rec.ell} share >= 3 vertices (seed {rec.seed})"
                    )
        if rec.found and rec.witness:
            verts = rec.witness
            for a in range(len(verts)):
                for b in range(a + 1, len(verts)):
                    if not cleaned.has_edge(verts[a], verts[b]):
                        raise InvariantBreach(
                            f"witness {verts} leaves the cleaned graph (seed {rec.seed})"
                        )
            witnesses += 1
    return CorollaryReport(trials_checked=len(recs), witnesses_checked=witnesses)
