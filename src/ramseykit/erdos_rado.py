"""The constructive Erdős–Rado procedure on complete graphs.

Two branches: iterated monochromatic directed neighbourhoods (leading, via
pigeonhole, to a monochromatic or strictly min/max-coloured clique), and a
vertex-sampling rainbow extraction for colourings that are delta-bounded on
the surviving set.  Both produce witnesses that re-verify under
classify_copy; a driver falls back to exhaustive search below the regime
where the quantitative guarantees kick in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .colouring import (
    CanonicalWitness,
    EdgeColouring,
    PatternTag,
    _max_degrees,
    witness_for,
)
from .graphs import _finite, _integer
from .search import SearchOutcome, find_canonical_copy

__all__ = [
    "ErConstants",
    "SequenceStep",
    "NeighbourhoodSequence",
    "BoundedSubsetSignal",
    "ErResult",
    "NotComplete",
    "SequenceTooShort",
    "EmptyFinalSet",
    "NotBounded",
    "NoWitness",
    "build_sequence",
    "extract_canonical",
    "rainbow_by_sampling",
    "er_find",
]

_SAMPLING_ROUNDS = 50  # vertex samples rainbow_by_sampling draws before it gives up


class NotComplete(Exception):
    """The procedure requires the host graph to be complete."""


class SequenceTooShort(Exception):
    """Fewer steps than the pigeonhole extraction needs."""


class EmptyFinalSet(Exception):
    """No vertex survived the final step, so no apex can be chosen."""


class NotBounded(Exception):
    """The colouring violates the delta-boundedness the sampler assumes."""


class NoWitness(Exception):
    """Even exhaustive search found no canonical clique (tiny hosts only)."""


@dataclass(frozen=True)
class ErConstants:
    """Parameters of the procedure for a target clique size.

    Defaults: delta = 1/(4 ell^3) and length = 2(ell-2)^2 + 2 steps.  The
    regime where the full guarantee applies needs log2(n) >= min_n_log2,
    which is astronomically large; it is recorded for reference, never
    enforced.  An ell below 3, a negative or non-finite delta and a length
    below 1 are refused with ValueError.
    """

    ell: int
    delta: float
    length: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ell", _integer("ell", self.ell, 3))
        object.__setattr__(self, "delta", _finite("delta", self.delta, 0))
        object.__setattr__(self, "length", _integer("length", self.length, 1))

    @classmethod
    @lru_cache(maxsize=16, typed=True)  # one frozen instance per ell; 3.0 is not 3
    def for_clique(cls, ell: int) -> "ErConstants":
        return cls(ell=ell, delta=1.0 / (4 * ell**3), length=2 * (ell - 2) ** 2 + 2)

    @property
    def min_n_log2(self) -> float:
        return 6 * self.ell**2 * (math.log2(self.ell) + 1)


@dataclass(frozen=True)
class SequenceStep:
    vertex: int
    colour: int
    direction: str  # "<" or ">"


@dataclass(frozen=True)
class NeighbourhoodSequence:
    """Steps (v_i, c_i, dir_i) with the surviving intersection after each.

    Invariants maintained by construction: survivor sets are nested, each
    step's vertex is dir-related to (and joined in its colour to) everything
    surviving after the step, and |surviving_i| > (delta/2)^i * n.
    """

    steps: tuple[SequenceStep, ...]
    survivors: tuple[tuple[int, ...], ...]
    delta: float
    n: int
    colouring: EdgeColouring


@dataclass(frozen=True)
class BoundedSubsetSignal:
    """No step qualified: on ``surviving`` every colour degree is at most
    delta * |surviving|, which is what the rainbow sampler needs."""

    surviving: tuple[int, ...]
    delta: float


@dataclass(frozen=True)
class ErResult:
    witness: CanonicalWitness
    branch: str  # "sequence" | "sampling" | "exhaustive"
    sequence: Optional[NeighbourhoodSequence]


def _require_complete(phi: EdgeColouring) -> None:
    if not phi.host.is_complete():
        raise NotComplete("host graph must be complete")


def build_sequence(phi: EdgeColouring,
                   consts: ErConstants) -> Union[NeighbourhoodSequence, BoundedSubsetSignal]:
    """Greedily extend the directed monochromatic-neighbourhood sequence.

    Each step picks (v, c, dir) inside the current surviving set S with
    d^dir_c(v, S) > delta |S| / 2, maximising the degree and tie-breaking by
    smaller vertex, then smaller colour, then "<" before ">".  If no step
    qualifies, the colouring is delta-bounded on S and that set is returned
    as a BoundedSubsetSignal.
    """
    _require_complete(phi)
    return _sequence(phi, consts)


@lru_cache(maxsize=4)
def _key_base(n: int) -> np.ndarray:
    """The read-only (n+1) x (n+1) base of the step keys on K_n.

    The key of vw with label L, -1 <= L <= n^2, is 2 L + base[v, w], where
    base[v, w] = v span + 2 + (w < v) and span = 2(n^2 + 2): keys order like
    (v, L, "<" before ">"), never collide across rows and decode with
    divmod.  Where L is -1, the diagonal's keys are -1 and those of row and
    column 0 a sentinel (n + 1) span above every other key.
    """
    span = 2 * (n * n + 2)
    index = np.arange(n + 1)
    base = index[:, None] * span + (index < index[:, None]) + 2
    base[0] = base[:, 0] = (n + 1) * span + 2
    np.fill_diagonal(base, 1)
    base.flags.writeable = False
    return base


def _sequence(phi: EdgeColouring, consts: ErConstants,
              ell: int = 0) -> Union[NeighbourhoodSequence, BoundedSubsetSignal, None]:
    """build_sequence, or None as soon as fewer than ell vertices survive and
    fewer than the steps left + 1.  Each step drops its own vertex and keeps
    at least one, so the run can then only end in a bounded set of fewer
    than ell vertices, which er_find hands to exhaustive search.  Each step
    sorts its block's keys in place (the first a copy of the whole key
    matrix) and decodes the best run with Python ints."""
    n, delta, matrix = phi.host.n, consts.delta, phi._matrix
    # label phi(vw) in colour order, with -1 off the edges: by its colour
    # up to n^2, else by its dense rank - 1, so palette[label + 1] is phi(vw)
    palette, labels = None, matrix
    if int(matrix.max()) > n * n:
        palette, labels = np.unique(matrix, return_inverse=True)
        labels = labels.reshape(matrix.shape) - 1
    keys = labels * 2 + _key_base(n)
    span = 2 * (n * n + 2)
    block = np.arange(n + 1)  # 0, then the survivors
    steps: list[SequenceStep] = []
    trace: list[tuple[int, ...]] = []
    while len(steps) < consts.length:
        # the block's keys sorted: the diagonal's -1s, then one run of equal
        # keys per (v, c, dir) degree, then row and column 0's sentinels
        flat = keys.take(block, 0).take(block, 1).ravel() if steps else keys.flatten()
        flat.sort()
        s = len(block) - 1
        ends = (flat[1:] != flat[:-1]).nonzero()[0]
        counts = ends[1:] - ends[:-1]  # the runs after the diagonal's: none if s = 1
        best = int(counts.argmax()) if s > 1 else -1  # the first maximum has the smallest key
        if best < 0 or not int(counts[best]) > delta * s / 2.0:
            return BoundedSubsetSignal(tuple(block[1:].tolist()), delta)
        key = int(flat[ends[best + 1]])
        v, rest = divmod(key, span)
        colour = rest // 2 - 1 if palette is None else int(palette[rest // 2])
        kept = keys[v].take(block) == key
        kept[0] = True
        block = block[kept]
        surviving = tuple(block[1:].tolist())
        steps.append(SequenceStep(v, colour, ">" if rest % 2 else "<"))
        trace.append(surviving)
        # nested-neighbourhood size bound, relative to the original n
        assert len(surviving) > (delta / 2.0) ** len(steps) * n
        if len(surviving) < ell and len(surviving) <= consts.length - len(steps):
            return None
    return NeighbourhoodSequence(tuple(steps), tuple(trace), delta, n, phi)


def extract_canonical(seq: NeighbourhoodSequence, ell: int) -> CanonicalWitness:
    """Pigeonhole a canonical K_ell out of a completed sequence.

    Picks (ell-2)^2 + 1 steps sharing one comparator plus an apex from the
    final surviving set.  If a colour repeats ell-1 times among the picked
    steps the witness is monochromatic; otherwise ell-1 pairwise distinct
    colours exist and the witness is strictly min- or max-coloured.
    """
    ell = _integer("ell", ell, 3)
    needed_steps = ErConstants.for_clique(ell).length
    take = (ell - 2) ** 2 + 1
    if len(seq.steps) < needed_steps:
        raise SequenceTooShort(f"have {len(seq.steps)} steps, need {needed_steps}")
    final = seq.survivors[-1]
    if not final:
        raise EmptyFinalSet("final surviving set is empty")

    by_dir = {"<": [], ">": []}
    for idx, step in enumerate(seq.steps):
        by_dir[step.direction].append(idx)
    direction = "<" if len(by_dir["<"]) >= take else ">"
    picked = by_dir[direction][:take]
    apex = min(final)

    multiplicity: dict[int, list[int]] = {}  # the picked steps by colour, in first-seen order
    for idx in picked:
        multiplicity.setdefault(seq.steps[idx].colour, []).append(idx)

    mono_colour = next((c for c, idxs in multiplicity.items()
                        if len(idxs) >= ell - 1), None)
    if mono_colour is not None:
        chosen = multiplicity[mono_colour][: ell - 1]
        claimed = PatternTag.MONOCHROMATIC
    else:
        chosen = [idxs[0] for idxs in multiplicity.values()][: ell - 1]
        if len(chosen) < ell - 1:
            # <= ell-2 repeats per colour over (ell-2)^2+1 steps forces this
            raise SequenceTooShort("fewer distinct colours than the pigeonhole promises")
        claimed = PatternTag.MIN_COLOURED if direction == "<" else PatternTag.MAX_COLOURED

    vertices = tuple(sorted([seq.steps[i].vertex for i in chosen] + [apex]))
    witness = witness_for(seq.colouring, vertices)
    if claimed not in witness.tags:
        raise AssertionError(f"extraction promised {claimed} but got {witness.tags}")
    return witness


def _first_colour_collision(phi: EdgeColouring,
                            sample: list[int]) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """Lexicographically first pair of equal-coloured edges in the sample."""
    by_colour: dict[int, list[tuple[int, int]]] = {}
    for a, u in enumerate(sample):  # the sample is sorted: edges in order
        row = phi._rows[u]
        for w in sample[a + 1:]:
            by_colour.setdefault(row[w], []).append((u, w))
    return min(((es[0], es[1]) for es in by_colour.values() if len(es) > 1), default=None)


def rainbow_by_sampling(phi: EdgeColouring, us, ell: int, delta: float,
                        seed: int) -> Optional[CanonicalWitness]:
    """Rainbow K_ell by sparse vertex sampling and conflict deletion.

    Requires the colouring restricted to U to be delta-bounded (every colour
    degree at most delta |U|); raises NotBounded otherwise, and ValueError
    for a negative or non-finite delta.  Each round keeps
    every vertex of U independently with probability 2 ell / |U|, then
    repeatedly locates the lexicographically first pair of equal-coloured
    edges in the kept set and deletes the largest vertex it spans.  When at
    least ell vertices survive, every remaining edge colour is distinct, and
    the smallest ell survivors are returned as a verified rainbow witness.
    Returns None after _SAMPLING_ROUNDS unsuccessful rounds.
    """
    _require_complete(phi)
    ell = _integer("ell", ell, 3)
    seed = _integer("seed", seed, 0)
    u_sorted = tuple(sorted(set(us)))
    size, degrees = _max_degrees(phi, u_sorted)
    cap = _finite("delta", delta, 0) * size
    for v, degree in degrees:
        if degree > cap:
            raise NotBounded(f"colour degree {degree} at vertex {v} exceeds delta|U| = {cap}")
    keep_p = min(1.0, 2.0 * ell / len(u_sorted))
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(_SAMPLING_ROUNDS):
        draws = rng.random(len(u_sorted))
        sample = [v for v, x in zip(u_sorted, draws) if x < keep_p]
        while True:
            collision = _first_colour_collision(phi, sample)
            if collision is None:
                break
            doomed = max(collision[0] + collision[1])
            sample.remove(doomed)
        if len(sample) >= ell:
            witness = witness_for(phi, tuple(sample[:ell]))
            assert PatternTag.RAINBOW in witness.tags
            return witness
    return None


def er_find(phi: EdgeColouring, ell: int, seed: int = 0) -> ErResult:
    """Run the full procedure and report which branch produced the witness.

    The sequence branch is taken when build_sequence completes all
    2(ell-2)^2 + 2 steps; extract_canonical then pigeonholes the witness.
    Otherwise the colouring is delta-bounded on the surviving set, and the
    sampling branch is taken when that set has at least ell vertices and
    rainbow_by_sampling finds a rainbow K_ell on it.  Every other run ends
    in exhaustive canonical search: below the (astronomical) size where the
    quantitative bounds hold, both branches may fail.  The sequence is cut
    short, straight to exhaustive search, once fewer than ell vertices
    survive and too few are left to finish it, since neither branch can
    then succeed.  NoWitness is raised only when exhaustive search also
    finds nothing (tiny hosts such as K_3 under a bad colouring).
    """
    _require_complete(phi)
    seed = _integer("seed", seed, 0)
    outcome = _sequence(phi, ErConstants.for_clique(ell), ell)
    if isinstance(outcome, NeighbourhoodSequence):
        witness = extract_canonical(outcome, ell)
        return ErResult(witness, "sequence", outcome)
    if outcome is not None and len(outcome.surviving) >= ell:
        witness = rainbow_by_sampling(phi, outcome.surviving, ell, outcome.delta, seed)
        if witness is not None:
            return ErResult(witness, "sampling", None)
    fallback: SearchOutcome = find_canonical_copy(phi, ell)
    if fallback.found:
        return ErResult(fallback.witness, "exhaustive", None)
    raise NoWitness(f"no canonical K_{ell} under this colouring")
