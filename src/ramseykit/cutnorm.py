"""Weighted graphs with cut-norm and homomorphism-density machinery:
exact and heuristic cut norms, pattern densities, executable forms of the
edge-sampling / counting / degree lemmata, 2-density, and strict balance."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable

import numpy as np

from .graphs import (Edge, OrderedGraph, _finite, _graph_from_pairs, _integer, _pair_table,
                     _read_records, _sample_pairs, _vertex, _write_lines, count_cliques,
                     normalise_edge)

__all__ = [
    "WeightedGraph",
    "PatternGraph",
    "TooLarge",
    "TooFewVertices",
    "RangeViolation",
    "HypothesisViolated",
    "EXACT_CUTNORM_GUARD",
    "eval_e",
    "cutnorm_exact",
    "cutnorm_heuristic",
    "hom_density",
    "counting_lemma_check",
    "sample_graph_from_weights",
    "degree_lemma_check",
    "two_density",
    "is_strictly_balanced",
    "read_weighted",
    "write_weighted",
]

EXACT_CUTNORM_GUARD = 22

_BALANCE_GUARD = 8

_LEMMA_SLACK = 1e-9


class TooLarge(Exception):
    """Instance exceeds a hard exhaustive-computation guard."""


class TooFewVertices(Exception):
    """2-density needs at least three vertices."""


class RangeViolation(Exception):
    """Weights leave the [0,1] range a lemma hypothesis requires."""


class HypothesisViolated(Exception):
    """A lemma hypothesis (set size or cut-norm bound) fails."""


class WeightedGraph:
    """Symmetric real weights on vertex pairs of {1,...,n}, zero diagonal."""

    __slots__ = ("n", "w")

    def __init__(self, matrix) -> None:
        w = np.asarray(matrix, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        _integer("vertex count", w.shape[0], 1)
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be symmetric")
        if np.any(np.diagonal(w) != 0.0):
            raise ValueError("diagonal must be zero")
        self.n, self.w = int(w.shape[0]), w

    @classmethod
    def _trusted(cls, w: np.ndarray) -> "WeightedGraph":
        """Wrap a symmetric zero-diagonal float matrix the library computed, unchecked."""
        f = cls.__new__(cls)
        f.n, f.w = int(w.shape[0]), w
        return f

    @classmethod
    def zeros(cls, n: int) -> "WeightedGraph":
        n = _integer("vertex count", n, 1)
        return cls(np.zeros((n, n)))

    @classmethod
    def constant(cls, n: int, value: float) -> "WeightedGraph":
        n = _integer("vertex count", n, 1)
        w = np.full((n, n), float(value))
        np.fill_diagonal(w, 0.0)
        return cls(w)

    @classmethod
    def indicator(cls, graph: OrderedGraph, scale: float = 1.0) -> "WeightedGraph":
        """The (optionally scaled) 0/1 edge indicator of an ordered graph."""
        scale = _finite("scale", scale)
        w = np.zeros((graph.n, graph.n))
        w[graph._us - 1, graph._vs - 1] = scale
        w[graph._vs - 1, graph._us - 1] = scale
        return cls._trusted(w)

    def entry(self, u: int, v: int) -> float:
        u, v = _vertex(self.n, u), _vertex(self.n, v)
        return 0.0 if u == v else float(self.w[u - 1, v - 1])

    def is_indicator(self) -> bool:
        return bool(np.all((self.w == 0.0) | (self.w == 1.0)))

    def in_unit_range(self) -> bool:
        return bool(np.all(self.w >= 0.0) and np.all(self.w <= 1.0))

    def __sub__(self, other: "WeightedGraph") -> "WeightedGraph":
        self._check_compatible(other)
        return WeightedGraph._result("-", self.w - other.w)

    def __add__(self, other: "WeightedGraph") -> "WeightedGraph":
        self._check_compatible(other)
        return WeightedGraph._result("+", self.w + other.w)

    def __mul__(self, scalar: float) -> "WeightedGraph":
        return WeightedGraph._result("*", self.w * _finite("scalar", scalar))

    @classmethod
    def _result(cls, op: str, w: np.ndarray) -> "WeightedGraph":
        """Wrap the weights operator ``op`` computed, refusing any that overflowed."""
        if not np.isfinite(w).all():
            raise ValueError(f"WeightedGraph {op} overflows: weights must be finite")
        return cls._trusted(w)

    __rmul__ = __mul__

    def _check_compatible(self, other: "WeightedGraph") -> None:
        if self.n != other.n:
            raise ValueError("vertex counts differ")

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n})"


@dataclass(frozen=True)
class PatternGraph:
    """A fixed small simple graph on {1,...,ell} used as a counting pattern."""

    ell: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        ell = _integer("ell", self.ell, 1)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "edges", frozenset(normalise_edge(ell, u, v) for u, v in self.edges))

    @classmethod
    def from_edges(cls, ell: int, edges: Iterable[Edge]) -> "PatternGraph":
        return cls(ell, edges)

    @classmethod
    def complete(cls, ell: int) -> "PatternGraph":
        return cls(ell, combinations(range(1, _integer("ell", ell, 1) + 1), 2))

    @classmethod
    def cycle(cls, ell: int) -> "PatternGraph":
        ell = _integer("ell", ell, 3)
        return cls(ell, [(i, i + 1) for i in range(1, ell)] + [(1, ell)])

    @classmethod
    def path(cls, ell: int) -> "PatternGraph":
        return cls(ell, [(i, i + 1) for i in range(1, _integer("ell", ell, 1))])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_complete(self) -> bool:
        return self.edge_count == self.ell * (self.ell - 1) // 2


def _indices(n: int, us: Iterable[int]) -> np.ndarray:
    return np.array(sorted({_vertex(n, v) for v in us}), dtype=np.intp) - 1


def eval_e(f: WeightedGraph, us: Iterable[int], ws: Iterable[int]) -> float:
    """Sum of f over the ordered pairs U x W (diagonal terms are zero)."""
    ui = _indices(f.n, us)
    wi = _indices(f.n, ws)
    if ui.size == 0 or wi.size == 0:
        return 0.0
    return float(f.w[np.ix_(ui, wi)].sum())


def _refuse_overflow(f: WeightedGraph) -> None:
    """Refuse weights whose absolute total, with room for rounding, is not
    finite: every sum the cut-norm kernels form is at most that total."""
    w = np.abs(f.w)
    if math.isfinite(float(w.max()) * w.size * (1.0 + 2.0**-20)):
        return  # the total is at most size * max
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if not math.isfinite(total * (1.0 + 2.0**-20)):
        raise ValueError("cut norm overflows: the absolute weights must have a finite total")


@lru_cache(maxsize=16)
def _subset_bits(k: int) -> np.ndarray:
    """The read-only k x 2^k 0/1 float table: column b holds the bits of b."""
    bits = ((np.arange(1 << k) >> np.arange(k)[:, None]) & 1).astype(np.float64)
    bits.flags.writeable = False
    return bits


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """The n x 2^k table of k rows of length n: column b sums ``rows[i]``
    over the set bits i of b."""
    return rows.T @ _subset_bits(rows.shape[0])


# the seed block: up to 128 high-block columns with the largest separable
# sums, against as many of the low-block ones as make 64 x 128 pairs
_SEED_HI = 128
_SEED_PAIRS = 64 * _SEED_HI


def _block(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The first prod(shape) entries of ``buf`` as a C-order array of that shape."""
    return buf.reshape(-1)[:math.prod(shape)].reshape(shape)


def _tail(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The last prod(shape) entries of ``buf`` as a C-order array of that shape."""
    return buf.reshape(-1)[buf.size - math.prod(shape):].reshape(shape)


def _pair_max(x: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray) -> float:
    """max(pos, neg) over the n x |h| x |b| block ``x`` of column sums
    s_lo[w, b] + s_hi[w, h], in float64; ``x`` is overwritten.

    Each pair adds its n rows one by one, in order, as the single-chunk
    ``sum(axis=0)`` over n contiguous slabs does; on a small block numpy's
    sum may add the rows pairwise, which rounds differently.
    """
    np.maximum(x, 0.0, out=x)
    pos = x[0]
    for row in x[1:]:
        pos += row
    neg = pos - (t_lo + t_hi[:, None])
    return max(0.0, float(pos.max()), float(neg.max()))


def _separable_bounds(s_lo: np.ndarray, s_hi: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray,
                      buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Per-column terms of a bound on every column pair: returns (a, c, slack,
    shift) with 2^shift max(pos, neg) <= a[b] + c[h] + slack for every
    low-block column b and high-block column h; ``buf`` is float64 scratch
    at least as large as either table.

    With t as one more table row, 2 max(pos, neg) = sum |s_lo[w, b] + s_hi[w, h]|
    over the n + 1 rows, at most A[b] + C[h], where A[b] = sum_w |s_lo[w, b]|
    + |t_lo[b]| and C[h] is alike.  a and c are A and C scaled by 2^e
    (e = shift - 1), so that the largest sum over w lies in [2^99, 2^100):
    no a[b] + c[h] overflows, and no normal table entry scales to a subnormal.

    Why the slack covers every rounding (u = 2^-53, n <= 22).  By the
    float64 bound in ``_chunk_bounds``, 2 max(pos, neg) <= (1 + 8(n+1)u)
    (A[b] + C[h]).  Each sum over w is at least (1 - nu) times its exact
    value, each ldexp is exact or, below 2^-1022, off by at most 2^-1075,
    and the add of the tail loses a factor (1 + u).  So 2^shift max(pos, neg)
    <= (1 + 2^-45)(a[b] + c[h]) + 2^-1070, and slack = 2^-40 (max a + max c)
    + 2^-100 leaves room for the two roundings of the threshold
    2^shift best - (max c over a chunk + slack) that ``_best_first`` forms:
    best is one pair's value, so 2^shift best is below (1 + 2^-45)
    (max a + max c).  ldexp(best, shift) is exact when it is a normal
    float; otherwise it is below 2^-1022 < slack, the threshold is negative
    and every column stays.
    """
    sums = [np.abs(s, out=_block(buf, *s.shape)).sum(axis=0) for s in (s_lo, s_hi)]
    e = 100 - math.frexp(max(float(s.max()) for s in sums))[1]
    a, c = (np.ldexp(s, e) + np.ldexp(np.abs(t), e) for s, t in zip(sums, (t_lo, t_hi)))
    return a, c, 2.0**-40 * (float(a.max()) + float(c.max())) + 2.0**-100, e + 1


def _chunk_bounds(s_lo: np.ndarray, s_hi: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray,
                  prefix: np.ndarray, chunk: int, buf: np.ndarray) -> tuple[np.ndarray, int]:
    """Upper bounds on what ``cutnorm_exact`` finds in each chunk of ``chunk``
    high-block columns against the first ``prefix[i]`` low-block columns of
    ``s_lo``, from one float32 pass; returns (bounds, shift), each bound at
    least 2^shift * max(pos, neg) over its pairs (0 for an empty prefix).

    With t as one more table row, sum_w |s_lo[w, b] + s_hi[w, h]| over the
    n + 1 rows is sum |s| + |sum s| = 2 max(pos, neg).  The tables are scaled
    by 2^e (e = shift - 1) before the float32 cast, so the largest entry lies
    in [2^99, 2^100).  ``buf`` is the kernel's n x chunk x 2^lo float64
    buffer, reused as float32 scratch: chunks go longest prefix first, as
    many at a time as fill one chunk's chunk x 2^lo pairs, so that narrow
    prefixes share one pass.  ``s_lo`` may lie in ``buf``: it is read in
    full before ``buf`` is written.

    Why the slack covers every rounding.  Work in units of 2^-e (relative
    errors do not depend on the scale).  For one column pair (b, h) let
    x_w = a_w + c_w be the exact sum of the two table entries of row w, R
    the sum of |a_w| + |c_w| over all n + 1 rows, S >= R the sum of every
    row's largest |entry| in both tables, B = sum_{w<n} |x_w| + |t_lo + t_hi|,
    u = 2^-53 and v = 2^-24.
    - The float64 kernel: pos <= (1+u)^n P with P = sum max(x_w, 0); t_lo
      and t_hi each miss the exact sum of their column by at most (n-1)u
      times its absolute sum, so neg <= (1+u)(N + 3nuR) with
      N = sum max(-x_w, 0).  As 2 max(P, N) = sum |x_w| + |sum x_w|,
      2 max(pos, neg) <= B + 8(n+1)uR.
    - The float32 pass: each cast is off by at most v|entry| + 2^-149 (the
      float64 ldexp may first round a subnormal, by at most 2^-1075); each
      of the n + 1 additions keeps a factor (1-v) of its magnitude, and the
      sum of the n + 1 absolute values, in whatever order the BLAS adds
      them, a factor (1-v)^n.  So its value F satisfies
      B <= F + 1.1(n+2)vR + 2(n+1)2^-149.
    Together 2 max(pos, neg) <= F + 1.2(n+2)vS + 2(n+1)2^-149, well below
    F + (n+4)(2^-22 S + 2^-100) = F + (n+4)(4vS + 2^-100).  The margin covers
    the float64 rounding of S, of the slack and of its addition to F, and a
    BLAS that flushes subnormal float32 values to zero (each below 2^-126).
    The kernel skips a chunk only when its bound is at most 2^shift * best,
    and the absolute term keeps every nonzero bound above 2^-1022, so that
    comparison only succeeds where ldexp(best, shift) is a normal float,
    hence exact, or the bound is 0.  All-zero tables skip the pass: every
    bound is then 0.
    """
    n = s_lo.shape[0]
    peaks = [np.maximum(s.max(axis=-1), -s.min(axis=-1)) for s in (s_lo, t_lo, s_hi, t_hi)]
    peak = max(float(p.max()) for p in peaks)
    bounds = np.zeros(prefix.size)
    if peak == 0.0:
        return bounds, 0  # zero tables: every chunk's maximum is 0
    # the largest scaled entry lies in [2^99, 2^100), so float32 sums of
    # 2(n + 1) <= 46 of them stay far below 2^128
    e = 100 - math.frexp(peak)[1]
    slack = (n + 4) * (2.0**-22 * math.ldexp(float(sum(p.sum() for p in peaks)), e) + 2.0**-100)
    a = np.empty((n + 1, s_lo.shape[1]), np.float32)
    c = np.empty((n + 1, s_hi.shape[1]), np.float32)
    for table, s, t in ((a, s_lo, t_lo), (c, s_hi, t_hi)):
        np.ldexp(s, e, out=table[:n])
        np.ldexp(t, e, out=table[n])
    ones = np.ones(n + 1, np.float32)
    by_length = np.argsort(-prefix, kind="stable")[:np.count_nonzero(prefix)]
    k = 0
    while k < by_length.size:
        width = int(prefix[by_length[k]])
        ids = by_length[k:k + max(1, buf[0].size // (chunk * width))]
        k += ids.size
        hs = (ids[:, None] * chunk + np.arange(chunk)).ravel()
        # n float64 slabs hold n + 1 float32 ones with room to spare
        work = _block(buf.reshape(-1).view(np.float32), n + 1, hs.size, width)
        np.add(a[:, None, :width], c[:, hs, None], out=work)
        np.abs(work, out=work)
        total = (ones @ work.reshape(n + 1, -1)).reshape(ids.size, chunk, width)
        # a chunk's columns past its own prefix only pad the batch
        total = np.where(np.arange(width) < prefix[ids, None, None], total, 0.0)
        bounds[ids] = total.max(axis=(1, 2))
        bounds[ids] += slack  # in float64
    return bounds, e + 1


def _best_first(s_lo: np.ndarray, s_hi: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray,
                buf: np.ndarray) -> float:
    """max(pos, neg) over every column pair, when the high-block columns
    span more than one chunk of ``buf``'s n x chunk x 2^lo; see
    ``cutnorm_exact``."""
    n, chunk = buf.shape[:2]
    a, c, slack, shift = _separable_bounds(s_lo, s_hi, t_lo, t_hi, buf)
    order = np.argsort(-a)
    top = np.argsort(-c)[:_SEED_HI]
    if a[order[0]] == c[top[0]] == 0.0:
        return 0.0  # zero tables
    seed = order[:_SEED_PAIRS // top.size]
    x = np.add(s_lo.take(seed, axis=1)[:, None, :], s_hi.take(top, axis=1)[:, :, None],
               out=_block(buf, n, top.size, seed.size))
    best = _pair_max(x, t_lo[seed], t_hi[top])
    # in chunk i, low-block column b can beat best only if
    # a[b] > 2^shift best - reach[i]; a[order] falls, so those b are a prefix.
    # When the seed took every high-block column, its low-block ones are done.
    reach = c.reshape(-1, chunk).max(axis=1) + slack
    falling = -a[order]
    done = seed.size if top.size == c.size else 0
    prefix = np.maximum(np.searchsorted(falling, reach - math.ldexp(best, shift)) - done, 0)
    width = int(prefix.max())
    if not width:
        return best
    # the prefix's columns, gathered into the tail of buf: "clip" lets take
    # write in place, and every index is in range
    cols = order[done:done + width]
    prefix_lo = np.take(s_lo, cols, axis=1, out=_tail(buf, n, width), mode="clip")
    bounds, screen = _chunk_bounds(prefix_lo, s_hi, t_lo[cols], t_hi, prefix, chunk, buf)
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] <= math.ldexp(best, screen):
            break
        stop = int(np.searchsorted(falling, reach[i] - math.ldexp(best, shift)))
        hs = slice(i * chunk, (i + 1) * chunk)
        # at most half the low-block columns at a time, so that the block and
        # the gathered columns both fit in buf
        for start in range(done, stop, s_lo.shape[1] // 2):
            cols = order[start:min(stop, start + s_lo.shape[1] // 2)]
            part = np.take(s_lo, cols, axis=1, out=_tail(buf, n, cols.size), mode="clip")
            x = np.add(part[:, None, :], s_hi[:, hs, None], out=_block(buf, n, chunk, cols.size))
            best = max(best, _pair_max(x, t_lo[cols], t_hi[hs]))
    return best


def cutnorm_exact(f: WeightedGraph) -> float:
    """(1/n^2) * max over U, W of |e_f(U, W)|, by exhaustive U-enumeration.

    For each of the 2^n choices of U the optimal W follows the signs of the
    column sums, taken in both directions; guarded at n = 22.
    Split: U's column sums are s_lo[:, b] + s_hi[:, h], tables of two row blocks.
    Negative side: neg = pos - total, since sum max(s,0) - sum max(-s,0) = sum s.
    Past one chunk of high-block columns (n >= 14), pairs are pruned by the
    separable bound 2 max(pos, neg) <= A[b] + C[h], where A[b] sums |s_lo|
    down column b and adds |t_lo[b]|, and C[h] is alike (``_separable_bounds``).
    - Seed: the low-block columns are sorted by A, largest first; a float64
      pass over 64 x 128 pairs, the high-block columns of largest C (at most
      128) against as many of the first sorted columns, gives a first best.
    - Prefix: in a chunk, only the low-block columns with A[b] + max C over
      the chunk + slack > 2 best can still beat it; in A order they are a
      prefix of the sorted columns.
    - Screen: one float32 pass bounds each chunk over its prefix
      (``_chunk_bounds``), and the chunks run in float64 over their prefixes,
      best bound first, stopping at the first bound that cannot beat the
      best so far.
    The result is the same, bit for bit, as running every chunk in full.
    Raises ValueError when the absolute weights have no finite total.
    """
    n = f.n
    if n > EXACT_CUTNORM_GUARD:
        raise TooLarge(f"n={n} exceeds the exact guard of {EXACT_CUTNORM_GUARD}")
    _refuse_overflow(f)
    # halves keep both tables small; past n = 16 a 12-row low block keeps the
    # contiguous runs of the main pass long
    lo = 12 if n > 16 else (n + 1) // 2
    s_lo = _subset_sums(f.w[:lo])
    s_hi = _subset_sums(f.w[lo:])
    t_lo = s_lo.sum(axis=0)
    t_hi = s_hi.sum(axis=0)
    n_hi = s_hi.shape[1]
    chunk = min(n_hi, (1 << 13) >> lo)  # both powers of two, so chunks tile n_hi
    # vertex axis first, so the sum over it adds n contiguous slabs
    buf = np.empty((n, chunk, 1 << lo))
    if n_hi > chunk:
        return _best_first(s_lo, s_hi, t_lo, t_hi, buf) / (n * n)
    np.add(s_lo[:, None, :], s_hi[:, :, None], out=buf)
    np.maximum(buf, 0.0, out=buf)
    pos = buf.sum(axis=0)
    neg = pos - (t_lo + t_hi[:, None])
    return max(0.0, float(pos.max()), float(neg.max())) / (n * n)


def cutnorm_heuristic(f: WeightedGraph, restarts: int = 20, seed: int = 0) -> float:
    """Alternating sign-ascent lower bound on the exact cut norm.

    Fixing one side, the best other side keeps exactly the vertices whose
    partial sums help; alternating reaches a fixed point.  The best value
    over random restarts (both sign directions) is returned; every evaluated
    pair is feasible, so the result never exceeds cutnorm_exact.
    Raises ValueError when the absolute weights have no finite total.
    """
    restarts = _integer("restarts", restarts, 1)
    seed = _integer("seed", seed, 0)
    _refuse_overflow(f)
    n = f.n
    M = f.w
    # one row per restart, drawn in the order of per-restart random(n) calls
    starts = np.random.Generator(np.random.PCG64(seed)).random((restarts, n)) < 0.5
    empty = np.flatnonzero(~starts.any(axis=1))
    starts[empty, empty % n] = True
    # every restart in both sign directions ascends at once, one row each;
    # negating a sum is exact, so sign * (W @ M) is the ascent of sign * M
    sign = np.repeat([[1.0], [-1.0]], restarts, axis=0)
    wsel = np.vstack([starts, starts]).astype(np.float64)
    value = np.zeros(2 * restarts)
    live = np.arange(2 * restarts)  # rows still ascending, in wsel's row order
    for _ in range(200):
        usel = (sign * (wsel @ M.T) > 0.0).astype(np.float64)
        row = sign * (usel @ M)
        wsel = (row > 0.0).astype(np.float64)
        new_value = np.einsum("ij,ij->i", row, wsel)
        old = value[live]
        done = new_value <= old + 1e-15
        value[live] = np.where(done, np.maximum(old, new_value), new_value)
        if done.any():
            keep = ~done
            live, wsel, sign = live[keep], wsel[keep], sign[keep]
            if not live.size:
                break
    return float(value.max()) / (n * n)


_LETTERS = "abcdefghijklmnopqrstuvwxyz"

_DIRECT_PATTERN_GUARD = 5


# A sum of count * n^k operand terms over the k touched pattern vertices is
# summed directly up to this many terms; above it numpy's optimized contraction
# path is faster (K3 goes direct up to n = 22, C4 up to n = 9).
_DIRECT_SUM_TERMS = 1 << 15


@lru_cache(maxsize=64)
def _hom_plan(pattern: PatternGraph, n: int) -> tuple[str, int, bool | tuple, int, int]:
    """How ``hom_density`` sums ``pattern`` over n x n weights: the einsum
    spec, the operand count, the ``optimize`` argument (False for one direct
    sum, else the path ``optimize=True`` picks, which depends on the shapes
    only) and the factors n^isolated and n^ell."""
    spec = ",".join(_LETTERS[u - 1] + _LETTERS[v - 1] for u, v in sorted(pattern.edges)) + "->"
    count = pattern.edge_count
    touched = len({v for e in pattern.edges for v in e})
    optimize = False
    if count * n**touched > _DIRECT_SUM_TERMS:
        optimize = tuple(np.einsum_path(spec, *([np.empty((n, n))] * count), optimize=True)[0])
    return spec, count, optimize, n ** (pattern.ell - touched), n**pattern.ell


def hom_density(f: WeightedGraph, pattern: PatternGraph) -> float:
    """n^{-ell} * sum over all vertex ell-tuples of the product of f over the
    pattern's edges, with f(v,v) = 0 killing adjacent repeats.

    Indicator weights with complete patterns route through exact clique
    counting; other inputs are summed by einsum (guarded at 5 pattern
    vertices) along a plan cached per (pattern, n): one direct sum while it
    has at most ``_DIRECT_SUM_TERMS`` operand terms, else numpy's optimized
    contraction path, found once.
    """
    n = f.n
    ell = pattern.ell
    if not pattern.edges:
        return 1.0
    if f.is_indicator() and pattern.is_complete():
        us, vs, _, _ = _pair_table(n)
        host = _graph_from_pairs(n, np.flatnonzero(f.w[us - 1, vs - 1]))
        return count_cliques(host, ell) / n**ell
    if ell > _DIRECT_PATTERN_GUARD:
        raise TooLarge(f"direct summation guarded at {_DIRECT_PATTERN_GUARD} pattern vertices")
    spec, count, optimize, lift, volume = _hom_plan(pattern, n)
    return float(np.einsum(spec, *([f.w] * count), optimize=optimize)) * lift / volume


def counting_lemma_check(f: WeightedGraph, g: WeightedGraph,
                         pattern: PatternGraph) -> tuple[float, float, bool]:
    """Evaluate |Lambda(f) - Lambda(g)| against 2 e(H) ||f - g||_cut.

    Both weight functions must map into [0,1]; returns (lhs, rhs, holds)
    with numerical slack 1e-9 on the comparison.
    """
    if not f.in_unit_range() or not g.in_unit_range():
        raise RangeViolation("weights must lie in [0,1]")
    lhs = abs(hom_density(f, pattern) - hom_density(g, pattern))
    rhs = 2.0 * pattern.edge_count * cutnorm_exact(f - g)
    return lhs, rhs, lhs <= rhs + _LEMMA_SLACK


def sample_graph_from_weights(d: WeightedGraph, seed: int) -> OrderedGraph:
    """Include each pair independently with probability d(u,v).

    Draws are consumed in lexicographic pair order from PCG64(seed), so the
    output is reproducible.
    """
    if not d.in_unit_range():
        raise RangeViolation("edge probabilities must lie in [0,1]")
    seed = _integer("seed", seed, 0)
    us, vs, _, _ = _pair_table(d.n)
    return _sample_pairs(d.n, d.w[us - 1, vs - 1], seed)


def degree_lemma_check(f: WeightedGraph, g: WeightedGraph, us: Iterable[int],
                       eps: float, verify_cutnorm: bool = True) -> int:
    """Count vertices whose degree into U differs by more than eps^(1/3)|U|.

    Hypotheses checked: |U| > 2 eps^(1/3) n, and (when the exact guard
    permits and ``verify_cutnorm`` is set) ||f - g||_cut <= eps.  The
    returned count is at most eps^(1/3) n whenever the hypotheses hold.
    A negative or non-finite eps is refused with ValueError.
    """
    _finite("eps", eps, 0)
    f._check_compatible(g)
    n = f.n
    ui = _indices(n, us)
    root = eps ** (1.0 / 3.0)
    if ui.size <= 2.0 * root * n:
        raise HypothesisViolated(f"|U|={ui.size} is not above 2 eps^(1/3) n")
    if verify_cutnorm and n <= EXACT_CUTNORM_GUARD:
        actual = cutnorm_exact(f - g)
        if actual > eps + 1e-12:
            raise HypothesisViolated(f"cut norm {actual} exceeds eps={eps}")
    df = f.w[:, ui].sum(axis=1)
    dg = g.w[:, ui].sum(axis=1)
    return int(np.count_nonzero(np.abs(df - dg) > root * ui.size))


def two_density(pattern: PatternGraph) -> Fraction:
    """(|E| - 1) / (|V| - 2) as an exact rational."""
    if pattern.ell < 3:
        raise TooFewVertices("2-density needs at least three vertices")
    return Fraction(pattern.edge_count - 1, pattern.ell - 2)


def is_strictly_balanced(pattern: PatternGraph) -> bool:
    """Every proper subgraph on >= 3 vertices has strictly smaller 2-density.

    Checked by scanning induced proper vertex subsets: deleting edges at a
    fixed vertex set only lowers the ratio, so induced subgraphs dominate.
    Guarded at 8 pattern vertices.
    """
    if pattern.ell < 3:
        raise TooFewVertices("strict balance needs at least three vertices")
    if pattern.ell > _BALANCE_GUARD:
        raise TooLarge(f"subgraph scan guarded at {_BALANCE_GUARD} vertices")
    m2 = two_density(pattern)
    verts = range(1, pattern.ell + 1)
    for size in range(3, pattern.ell):
        for subset in combinations(verts, size):
            inside = set(subset)
            edges = sum(1 for u, v in pattern.edges if u in inside and v in inside)
            if Fraction(edges - 1, size - 2) >= m2:
                return False
    return True


def write_weighted(f: WeightedGraph, path: str) -> None:
    """Write "n" then n(n-1)/2 lines "u v w" in lexicographic pair order."""
    _write_lines(path, [str(f.n), *(f"{u} {v} {float(f.w[u - 1, v - 1])!r}"
                                    for u in range(1, f.n) for v in range(u + 1, f.n + 1))])


def read_weighted(path: str) -> WeightedGraph:
    (top, (n,)), *records = _read_records(path, "weighted-graph", "n", "u v w")
    n = _integer(f"line {top}: vertex count", n, 1)
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    if len(records) != len(pairs):
        raise ValueError(f"expected {len(pairs)} weight lines, found {len(records)}")
    w = np.zeros((n, n))
    for (idx, (a, b, x)), (u, v) in zip(records, pairs):
        if (a, b) != (u, v):
            raise ValueError(f"line {idx}: expected pair ({u},{v})")
        if not np.isfinite(x):
            raise ValueError(f"line {idx}: weight {x!r} is not finite")
        w[u - 1, v - 1] = w[v - 1, u - 1] = x
    return WeightedGraph._trusted(w)
