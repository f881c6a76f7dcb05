"""Seeded Monte Carlo experiment driver: threshold sweeps over (n, C,
adversary) grids at p = C * n^exponent, optional clean-subgraph mode,
Wilson-interval summaries, and deterministic CSV/JSON emission."""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import MISSING, dataclass, field, fields
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .adversaries import AdversarySpec, _check_json_keys, generate_colouring
from .colouring import STRICT_TAGS
from .graphs import (OrderedGraph, _clean_scan, _finite, _integer, _write_lines, clean_subgraph,
                     enumerate_cliques, gnp_generate)
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
    derivation never touches float hashing.  A part that is not an integer
    (a float, bool or string) is refused with ValueError.
    """
    h = 0
    for part in parts:
        if type(part) is not int:  # one type test per part; numpy integers pass _integer
            part = _integer("seed part", part)
        h = _splitmix64(h ^ (part & _MASK64))
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
        for key in ("n_grid", "c_grid"):
            if not isinstance(getattr(self, key), (list, tuple)):
                raise ValueError(f"{key} must be a list, got {getattr(self, key)!r}")
        object.__setattr__(self, "n_grid", tuple(_integer("n_grid", n, 1) for n in self.n_grid))
        if any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in self.c_grid):
            raise ValueError(f"c_grid must list numbers, got {list(self.c_grid)!r}")
        object.__setattr__(self, "c_grid", tuple(float(c) for c in self.c_grid))
        for key, low in (("ell", 3), ("trials", 1), ("master_seed", -math.inf), ("budget", 1)):
            object.__setattr__(self, key, _integer(key, getattr(self, key), low))
        if not isinstance(self.clean_mode, bool):
            raise ValueError(f"clean_mode must be true or false, got {self.clean_mode!r}")
        if not isinstance(self.adversary, AdversarySpec):
            raise ValueError(f"adversary must be an AdversarySpec, got {self.adversary!r}")
        if not self.n_grid:
            raise ValueError("n_grid must list positive vertex counts")
        if not self.c_grid or not all(0 < c < math.inf for c in self.c_grid):
            raise ValueError(f"c_grid must list positive reals, got {list(self.c_grid)!r}")
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
        _check_json_keys("sweep config", data, [f.name for f in fields(cls)],
                         [f.name for f in fields(cls) if f.default is MISSING])
        return cls(**{**data, "adversary": AdversarySpec.from_json(data["adversary"])})


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
        return _csv_row(self, RECORD_COLUMNS)


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
        return _csv_row(self, SUMMARY_COLUMNS)


def _values(row, columns: Sequence[str]) -> list:
    """The fields of a record or summary in column order; column C reads
    the attribute c."""
    return [getattr(row, "c" if col == "C" else col) for col in columns]


def _csv_row(row, columns: Sequence[str]) -> str:
    return ",".join(
        ("true" if v else "false") if isinstance(v, bool)
        else repr(v) if isinstance(v, float) else str(v)
        for v in _values(row, columns)
    )


@dataclass
class SweepResult:
    config: ExperimentConfig
    records: list[TrialRecord] = field(default_factory=list)
    summaries: list[CellSummary] = field(default_factory=list)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; ``z`` must be finite
    and >= 0."""
    z = _finite("z", z, 0)
    trials = _integer("trials", trials, 1)
    if not _integer("successes", successes, 0) <= trials:
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


def _run_trial(args: tuple[ExperimentConfig, int, int, float, int]) -> TrialRecord:
    config, n, c_index, p, trial = args
    c = config.c_grid[c_index]
    seed = derive_seed(config.master_seed, n, c_index, trial)
    graph = gnp_generate(n, p, seed).graph
    if config.clean_mode:
        graph = clean_subgraph(graph, config.ell)
    arrow = config.predicate == "mono_after_2colour"
    if not arrow:  # the arrow predicate never reads a colouring
        phi = generate_colouring(graph, config.adversary.with_seed(derive_seed(seed, 1)))

    start = time.perf_counter()
    found = False
    pattern = ""
    witness = None
    if arrow:
        try:
            found = arrows_mono(graph, ArrowQuery(config.ell, 2), config.budget).arrows
        except ResourceLimitError:
            pattern = "resource_limit"
    else:
        search = find_rainbow_copy if config.predicate == "rainbow" else find_canonical_copy
        outcome = search(phi, config.ell)
        found = outcome.found
        if found:
            # a K_ell (ell >= 3) carries at most one strict tag
            pattern = next(iter(outcome.witness.tags & STRICT_TAGS)).value
            witness = outcome.witness.vertices
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


def run_sweep(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Run every grid cell for ``trials`` independent trials.

    Trials are embarrassingly parallel.  Both maps keep input order, so the
    records arrive cell by cell in grid order (n, then C, then trial) and
    scheduling never changes the output.  Per-trial resource limits are
    recorded in the row, never abort the sweep.
    """
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_run_trial, _trial_args(config), chunksize=8))
    else:
        records = list(map(_run_trial, _trial_args(config)))

    summaries = []
    k = config.trials
    for start in range(0, len(records), k):
        cell = records[start:start + k]
        successes = sum(r.found for r in cell)
        lo, hi = wilson_interval(successes, k)
        summaries.append(CellSummary(
            ell=config.ell, n=cell[0].n, c=cell[0].c, p=cell[0].p,
            adversary=config.adversary.kind, trials=k,
            successes=successes, p_hat=successes / k, ci_lo=lo, ci_hi=hi,
        ))
    return SweepResult(config, records, summaries)


def write_records_csv(records: Sequence[TrialRecord], path: str) -> None:
    _write_lines(path, [",".join(RECORD_COLUMNS), *(r.csv_row() for r in records)])


def write_summary_csv(summaries: Sequence[CellSummary], path: str) -> None:
    _write_lines(path, [",".join(SUMMARY_COLUMNS), *(s.csv_row() for s in summaries)])


def write_json(result: SweepResult, path: str) -> None:
    """JSON mirror of the CSV outputs, plus config and scope note; each
    record also carries its witness."""
    payload = {
        "note": (
            "Success fractions are adversary-specific probes; deciding the "
            "full unbounded-palette arrow for sampled graphs is out of reach."
        ),
        "config": result.config.to_json(),
        "records": [
            {**dict(zip(RECORD_COLUMNS, _values(r, RECORD_COLUMNS))),
             "witness": list(r.witness) if r.witness else None}
            for r in result.records
        ],
        "summaries": [dict(zip(SUMMARY_COLUMNS, _values(s, SUMMARY_COLUMNS)))
                      for s in result.summaries],
    }
    _write_lines(path, [json.dumps(payload, indent=2)])


@dataclass(frozen=True)
class CorollaryReport:
    trials_checked: int
    witnesses_checked: int


def _clean_breach(graph: OrderedGraph, ell: int) -> Optional[str]:
    """The invariant of an ell-clean graph that ``graph`` breaks, a K_{ell+1}
    before two K_ell sharing three vertices, or None.

    The graph is clean iff the cleaning scan deletes none of its edges.  A
    K_{ell+1} holds two K_ell sharing ell-1 >= 3 vertices, so it makes the
    scan delete an edge too, and only then is the graph searched for one.
    """
    if not _clean_scan(list(graph._adj), graph.edges, ell):
        return None
    if next(enumerate_cliques(graph, ell + 1), None) is not None:
        return f"K_{ell + 1} present after cleaning"
    return f"two K_{ell} share >= 3 vertices"


def verify_corollary_mode(records: Iterable[TrialRecord]) -> CorollaryReport:
    """Re-audit a clean-mode sweep from its seeds.

    For every trial the cleaned graph is regenerated and re-checked: the
    cleaning scan ``_clean_scan`` must delete none of its edges, so it holds
    no K_{ell+1} and no two K_ell sharing >= 3 vertices.  As that scan also
    cleaned the graph, this checks its fixed point and does not re-derive the
    rule, which ``test_audit_matches_brute_force`` and the ``brute_clean``
    tests in ``tests/test_graphs.py`` pin.  A recorded witness must be ell
    strictly increasing vertices, pairwise adjacent in the cleaned graph.  A
    failure raises InvariantBreach and indicates a bug.
    """
    recs = list(records)
    witnesses = 0
    for rec in recs:
        if not rec.clean:
            raise ValueError("verify_corollary_mode requires a clean_mode sweep")
        graph = gnp_generate(rec.n, rec.p, rec.seed).graph
        cleaned = clean_subgraph(graph, rec.ell)
        breach = _clean_breach(cleaned, rec.ell)
        if breach is not None:
            raise InvariantBreach(f"{breach} (seed {rec.seed})")
        if rec.found and rec.witness is not None:
            verts = rec.witness
            if len(verts) != rec.ell or any(a >= b for a, b in zip(verts, verts[1:])):
                raise InvariantBreach(f"witness {verts} is not {rec.ell} increasing "
                                      f"vertices (seed {rec.seed})")
            if not all(cleaned.has_edge(a, b) for a, b in combinations(verts, 2)):
                raise InvariantBreach(f"witness {verts} leaves the cleaned graph (seed {rec.seed})")
            witnesses += 1
    return CorollaryReport(trials_checked=len(recs), witnesses_checked=witnesses)
