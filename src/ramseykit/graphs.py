"""Ordered simple graphs on {1,...,n}: bitset adjacency, seeded G(n,p)
sampling, clique streams and counts, and the clean-subgraph construction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice
from threading import Lock
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

Edge = tuple[int, int]

__all__ = [
    "Edge",
    "OrderedGraph",
    "GnpSample",
    "gnp_generate",
    "count_cliques",
    "enumerate_cliques",
    "edge_count_between",
    "degree_into",
    "clean_subgraph",
    "vertex_mask",
    "bits",
    "read_graph",
    "write_graph",
]


def _checked_graph(n: int, records: Iterable[tuple[str, object, object]]
                   ) -> tuple[list[int], tuple[Edge, ...], np.ndarray, np.ndarray]:
    """Bitset rows, sorted edges and endpoint arrays of the edges given as
    (where, u, v) records, refusing what ``normalise_edge`` refuses and a
    repeated edge with a message that starts with the record's ``where``."""
    seen: set[Edge] = set()
    for where, u, v in records:
        edge = normalise_edge(n, u, v, where)
        if edge in seen:
            raise ValueError(f"{where}duplicate edge {edge}")
        seen.add(edge)
    edges = tuple(sorted(seen))
    adj = [0] * (n + 1)
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    us, vs = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    return adj, edges, us, vs


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _finite(key: str, value: float, low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a float, refused with a ValueError naming ``key`` when it
    is not finite or lies outside [low, high]: NaN compares false with every
    bound, so a check written as a comparison would let it through."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{key} must be finite, got {value!r}")
    if not low <= x <= high:
        bound = f"be >= {low:g}" if high == math.inf else f"lie in [{low:g}, {high:g}]"
        raise ValueError(f"{key} must {bound}, got {value!r}")
    return x


def _is_int(value: object) -> bool:
    """Is ``value`` a Python or numpy integer?  A bool is not, nor is a float
    with an integer value."""
    return type(value) is int or isinstance(value, np.integer)


def _integer(key: str, value: object, low: float = -math.inf) -> int:
    """``value`` as a Python int, refused with a ValueError naming ``key``
    unless it is an integer (``_is_int``) at least ``low``: the one rule for
    every size, count and seed that enters the library."""
    if not _is_int(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{key} must be >= {low}, got {value!r}")
    return int(value)


def _is_vertex(n: int, v: object) -> bool:
    """Is ``v`` a vertex of a graph on {1,...,n}: an integer (``_is_int``) in
    that range?  The one vertex rule."""
    return _is_int(v) and 1 <= v <= n


def _vertex(n: int, v: object) -> int:
    """``v`` as a Python int, refused unless it is a vertex of {1,...,n}."""
    if not _is_vertex(n, v):
        raise ValueError(f"vertex {v} outside {{1,...,{n}}}")
    return int(v)


def normalise_edge(n: int, u: object, v: object, where: str = "") -> Edge:
    """The edge uv of a graph on {1,...,n} as (min, max) Python ints,
    refusing a loop and an endpoint that is not a vertex with a message that
    starts with ``where``."""
    if u != v and _is_vertex(n, u) and _is_vertex(n, v):
        return (int(u), int(v)) if u < v else (int(v), int(u))
    if u == v:
        raise ValueError(f"{where}loop at vertex {u}")
    low, high = sorted((u, v)) if _is_int(u) and _is_int(v) else (u, v)
    raise ValueError(f"{where}edge ({low}, {high}) outside {{1,...,{n}}}")


class OrderedGraph:
    """Simple graph on the ordered vertex set {1,...,n}.

    Adjacency is one Python-int bitmask per vertex (bit v of ``adjacency(u)``
    is set iff uv is an edge), so neighbourhood intersections cost one word
    operation per 64 vertices.  The sorted edges are also kept as two
    endpoint arrays ``_us``, ``_vs`` for numpy work on whole edge sets.
    Instances are immutable after construction and safe to share read-only
    across parallel workers.
    """

    __slots__ = ("n", "_adj", "_edges", "_us", "_vs")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        self.n = n = _integer("vertex count", n, 1)
        self._adj, self._edges, self._us, self._vs = _checked_graph(
            n, (("", u, v) for u, v in edges))

    @classmethod
    def _trusted(cls, n: int, adj: list[int], edges: tuple[Edge, ...],
                 us: np.ndarray, vs: np.ndarray) -> "OrderedGraph":
        """Wrap bitset rows, their lexicographically sorted edge tuple and its
        endpoint arrays as computed by the library itself, without checking
        them again."""
        graph = cls.__new__(cls)
        graph.n = n
        graph._adj = adj
        graph._edges = edges
        graph._us, graph._vs = us, vs
        return graph

    @classmethod
    def complete(cls, n: int) -> "OrderedGraph":
        n = _integer("vertex count", n, 1)
        return _graph_from_pairs(n, np.arange(n * (n - 1) // 2))

    @classmethod
    def empty(cls, n: int) -> "OrderedGraph":
        return cls(n, ())

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges as (u,v) with u < v, lexicographically sorted."""
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def vertex_bitmask(self) -> int:
        """Bitmask with bits 1..n set."""
        return ((1 << (self.n + 1)) - 1) & ~1

    def adjacency(self, v: int) -> int:
        """Neighbourhood of v as a bitmask."""
        return self._adj[_vertex(self.n, v)]

    def has_edge(self, u: int, v: int) -> bool:
        """Is uv an edge?  False whenever an endpoint is not a vertex: outside
        {1,...,n}, or a float or bool inside it."""
        n = self.n
        # the range first, then one type test per endpoint (a Python int
        # passes the first half of _is_int without the call)
        return (0 < u <= n and 0 < v <= n and (type(u) is int or _is_int(u))
                and (type(v) is int or _is_int(v)) and bool(self._adj[u] >> v & 1))

    def degree(self, v: int) -> int:
        return self._adj[_vertex(self.n, v)].bit_count()

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderedGraph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"OrderedGraph(n={self.n}, m={self.edge_count})"


def vertex_mask(graph: OrderedGraph, vertices: Optional[Iterable[int]]) -> int:
    """Bitmask for a vertex subset (defaults to all vertices)."""
    if vertices is None:
        return graph.vertex_bitmask
    mask = 0
    for v in vertices:
        mask |= 1 << _vertex(graph.n, v)
    return mask


@dataclass(frozen=True)
class GnpSample:
    """A binomial random graph together with the parameters that produced it.

    Regenerating with the same (n, p, seed) reproduces the identical edge
    set bit for bit.
    """

    graph: OrderedGraph
    p: float
    seed: int


def gnp_generate(n: int, p: float, seed: int) -> GnpSample:
    """Sample G(n,p) with a fixed, portable randomness contract.

    The generator is numpy's PCG64 keyed by ``seed``; one uniform draw is
    consumed per vertex pair in lexicographic order (1,2), (1,3), ...,
    (n-1,n), and the pair is an edge iff its draw is < p.
    """
    p = _finite("p", p, 0, 1)
    n = _integer("n", n, 1)
    seed = _integer("seed", seed, 0)
    return GnpSample(_sample_pairs(n, p, seed), p, seed)


_PAIR_CAP = 1 << 20  # pairs cached over every n together
_pair_tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
_pair_lock = Lock()


def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every pair (u, v), 1 <= u < v <= n, in lexicographic order, as two
    read-only endpoint arrays, a read-only object array of the (u, v) tuples
    and a read-only (pairs, 2) array of the pair's two bits in the bitset
    rows of an n-vertex graph laid out back to back, each row a whole number
    of 64-bit words: bit v of row u, then bit u of row v.  Shared by all
    graphs on n vertices.  The most recently used n stay cached while they
    hold at most _PAIR_CAP pairs together."""
    with _pair_lock:
        table = _pair_tables.pop(n, None)
        if table is None:
            us, vs = np.add(np.triu_indices(n, k=1), 1)
            pairs = np.fromiter(zip(us.tolist(), vs.tolist()), dtype=object, count=len(us))
            row = _row_words(n) * 64
            slots = np.stack((us * row + vs, vs * row + us), axis=1)
            for array in (us, vs, pairs, slots):
                array.flags.writeable = False
            table = us, vs, pairs, slots
        _pair_tables[n] = table  # insertion order is use order, oldest first
        while sum(len(t[0]) for t in _pair_tables.values()) > _PAIR_CAP:
            del _pair_tables[next(iter(_pair_tables))]
    return table


def _row_words(n: int) -> int:
    """64-bit words in one bitset row of an n-vertex graph (bits 0..n)."""
    return n // 64 + 1


def _sample_pairs(n: int, probs: float | np.ndarray, seed: int) -> OrderedGraph:
    """Keep each pair whose draw falls below its probability.

    One PCG64(seed) uniform draw is consumed per vertex pair in lexicographic
    order; ``probs`` is one probability for every pair or an array giving
    one per pair in that order.
    """
    draws = np.random.Generator(np.random.PCG64(seed)).random(n * (n - 1) // 2)
    return _graph_from_pairs(n, np.flatnonzero(draws < probs))


def _graph_from_pairs(n: int, idx: np.ndarray) -> OrderedGraph:
    """The graph on {1,...,n} whose edges are the pairs at the increasing
    positions ``idx`` of the lexicographic pair order, unchecked: the
    library computed them."""
    iu, iv, pairs, slots = _pair_table(n)
    words = _row_words(n)
    flat = np.zeros((n + 1) * words * 64, dtype=bool)
    flat[slots.take(idx, axis=0)] = True
    packed = np.packbits(flat, bitorder="little").view("<u8").tolist()
    adj = packed[::words]
    for j in range(1, words):  # word j of every row, above the words before it
        adj = [row | word << 64 * j for row, word in zip(adj, packed[j::words])]
    return OrderedGraph._trusted(n, adj, tuple(pairs[idx].tolist()), iu[idx], iv[idx])


@lru_cache(maxsize=4)
def _bit_table(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``bit[x] = 1 << x`` for x < 2n + 2 and ``above[v] = -(2 << v)``, the
    bits above v, for v <= n.  The bit-level loops read these instead of
    building a multi-digit int at each use; 2n + 2 bits also cover every
    colour of a greedy proper edge colouring of a graph on n vertices."""
    return tuple(1 << x for x in range(2 * n + 2)), tuple(-(2 << v) for v in range(n + 1))


def _extend_cliques(adj: Sequence[int], cand: int, need: int,
                    admit: Optional[Callable[[list[int], int], bool]] = None,
                    prefix: Optional[list[int]] = None) -> Iterator[tuple[int, ...]]:
    """Stream ``prefix`` + c for every increasing ``need``-tuple c of pairwise
    adjacent vertices in ``cand``, in lexicographic order.

    ``admit(prefix, v)``, when given, is asked only where prefix + [v] can
    still complete by count: v is the last vertex (``need == 1``), or at
    least need - 1 candidates above v are adjacent to v.  At need <= 2 the
    count is exact, so admit sees only prefixes of streamed tuples.  A
    refusal prunes every tuple through prefix + [v].  ``prefix`` is shared
    scratch space: it holds the current partial tuple during each call.
    """
    if prefix is None:
        prefix = []
    rest = cand
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        if rest.bit_count() + 1 < need:
            return
        if need == 1:
            if admit is None or admit(prefix, v):
                yield (*prefix, v)
            continue
        sub = rest & adj[v]
        if sub.bit_count() < need - 1 or (admit is not None and not admit(prefix, v)):
            continue
        prefix.append(v)
        yield from _extend_cliques(adj, sub, need - 1, admit, prefix)
        prefix.pop()


def count_cliques(graph: OrderedGraph, ell: int,
                  within: Optional[Iterable[int]] = None) -> int:
    """Labeled K_ell count: (number of ell-sets inducing cliques) * ell!.

    Counts are exact Python integers, so there is no word-size overflow to
    detect; results of any magnitude are returned faithfully.
    """
    ell = _integer("ell", ell, 2)
    mask = vertex_mask(graph, within)
    if mask.bit_count() < ell:
        return 0
    found = sum(1 for _ in _extend_cliques(graph._adj, mask, ell))
    return found * math.factorial(ell)


def enumerate_cliques(graph: OrderedGraph, ell: int,
                      within: Optional[Iterable[int]] = None) -> Iterator[tuple[int, ...]]:
    """Stream the increasing ell-tuples inducing K_ell, in lexicographic order.

    Restricting to ``within`` streams only cliques inside that vertex set.
    The stream supports early termination (it is a generator).
    """
    ell = _integer("ell", ell, 2)
    return _extend_cliques(graph._adj, vertex_mask(graph, within), ell)


def edge_count_between(graph: OrderedGraph, xs: Iterable[int], ys: Iterable[int]) -> int:
    """|{(x,y) in X x Y : xy is an edge}|; edges inside X∩Y count twice."""
    ymask = vertex_mask(graph, ys)
    total = 0
    for x in bits(vertex_mask(graph, xs)):
        total += (graph._adj[x] & ymask).bit_count()
    return total


def degree_into(graph: OrderedGraph, v: int, us: Iterable[int]) -> int:
    """|N(v) ∩ U|; v itself never contributes (no loops)."""
    return (graph._adj[_vertex(graph.n, v)] & vertex_mask(graph, us)).bit_count()


def _clean_scan(adj: list[int], edges: Sequence[Edge], ell: int) -> list[int]:
    """Delete from the bitset rows ``adj``, in place, each edge uv of
    ``edges`` (walked in order) that still lies in two distinct K_ell sharing
    at least three vertices, and return the positions in ``edges`` deleted.

    Two K_ell through uv share a third vertex w iff the link adj[w] & common
    of some w in common, the common neighbourhood of u and v, holds two
    distinct K_{ell-3} (two vertices at ell = 4).  Only a w above v can: for
    w < v the edge uw came earlier in the scan with v and both cliques in its
    common neighbourhood, so it was deleted.  Those w are walked from the
    top.  At ell = 3 nothing is deleted, since two distinct triangles share
    at most two vertices.
    """
    if ell == 3:
        return []
    bit, above = _bit_table(len(adj) - 1)
    size = ell - 2  # vertices that two distinct K_{ell-3} span at least
    removed = []
    for i, (u, v) in enumerate(edges):
        common = adj[u] & adj[v]
        if common.bit_count() <= size:
            continue
        rest = common & above[v]
        while rest:
            w = rest.bit_length() - 1
            rest ^= bit[w]
            if (adj[w] & common).bit_count() >= size and (
                    size == 2 or any(islice(_extend_cliques(adj, adj[w] & common, ell - 3), 1, None))):
                break
        else:
            continue
        adj[u] ^= bit[v]  # uv is still an edge, so its bits are set
        adj[v] ^= bit[u]
        removed.append(i)
    return removed


def clean_subgraph(graph: OrderedGraph, ell: int) -> OrderedGraph:
    """Scan edges lexicographically, dropping any edge that currently lies in
    two distinct K_ell's sharing at least three vertices.

    The scan order makes the result unique and deterministic.  For ell = 3
    the removal condition is vacuous (two distinct triangles share at most
    two vertices); whenever no edge is removed the graph itself is returned.
    For ell >= 4 the result contains no K_{ell+1} and no two K_ell's sharing
    >= 3 vertices, and the operation is idempotent.
    """
    ell = _integer("ell", ell, 3)
    adj = list(graph._adj)
    removed = _clean_scan(adj, graph.edges, ell)
    if not removed:
        return graph
    keep = np.ones(graph.edge_count, dtype=bool)
    keep[removed] = False
    edges = tuple(compress(graph.edges, keep.tolist()))
    return OrderedGraph._trusted(graph.n, adj, edges, graph._us[keep], graph._vs[keep])


def write_graph(graph: OrderedGraph, path: str) -> None:
    """Write the text format: header "n m", then sorted lines "u v"."""
    _write_lines(path, [f"{graph.n} {graph.edge_count}", *(f"{u} {v}" for u, v in graph.edges)])


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write a text file: the lines, each ended by a newline."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_records(path: str, what: str, header: str,
                  row: str) -> list[tuple[int, tuple]]:
    """Read a text file of whitespace-separated numbers: one header line,
    then one record per line.

    ``header`` and ``row`` name the fields, e.g. "n m" and "u v c"; every
    field is an integer except a weight ``w``, which is a float.  Blank lines
    are skipped but counted, so every error names the physical line.
    Returns (line number, values) for the header and then for each record.
    """
    with open(path) as fh:
        lines = [(idx, line.strip()) for idx, line in enumerate(fh, start=1)]
    lines = [(idx, line) for idx, line in lines if line]
    if not lines:
        raise ValueError(f"empty {what} file")
    out = []
    for idx, line in lines:
        fields = row if out else header
        names, tokens = fields.split(), line.split()
        try:
            if len(tokens) != len(names):
                raise ValueError
            values = tuple(float(tok) if name == "w" else int(tok)
                           for name, tok in zip(names, tokens))
        except ValueError:
            raise ValueError(f"line {idx}: expected {fields!r}, got {line!r}") from None
        out.append((idx, values))
    return out


def read_graph(path: str) -> OrderedGraph:
    """Read the graph text format.

    Lines may appear in any order but duplicate edges, loops, and endpoints
    outside {1,...,n} are rejected with the offending line number.
    """
    (top, (n, m)), *records = _read_records(path, "graph", "n m", "u v")
    n = _integer(f"line {top}: vertex count", n, 1)
    if len(records) != m:
        raise ValueError(f"header announces {m} edges, file has {len(records)}")
    return OrderedGraph._trusted(
        n, *_checked_graph(n, ((f"line {idx}: ", u, v) for idx, (u, v) in records)))
