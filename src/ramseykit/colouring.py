"""Edge colourings and their statistics: canonical-pattern classification,
(directed) colour degrees, boundedness predicates, non-rainbow copy counters,
pair/cherry densities, and greedy colour partitioning."""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import ge, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .graphs import (Edge, OrderedGraph, _extend_cliques, _finite, _read_records, _write_lines,
                     bits, normalise_edge, vertex_mask)

__all__ = [
    "EdgeColouring",
    "PatternTag",
    "STRICT_TAGS",
    "CanonicalWitness",
    "NotAClique",
    "WeightExceedsCap",
    "classify_copy",
    "witness_for",
    "colour_degree",
    "directed_colour_degree",
    "is_delta_p_bounded",
    "unbounded_condition_holds",
    "unbounded_vertices",
    "bounded_side_split",
    "nonrainbow_cherry_count",
    "nonrainbow_matching_count",
    "pair_density",
    "cherry_density",
    "greedy_colour_partition",
    "read_colouring",
    "write_colouring",
]


_COLOUR_LIMIT = 2**63  # colour ids lie in [0, 2^63), so int64 holds them exactly


class NotAClique(Exception):
    """A required edge of the candidate copy is absent from the host graph."""


class WeightExceedsCap(Exception):
    """A single colour's weight already exceeds the class capacity."""


class PatternTag(enum.Enum):
    MONOCHROMATIC = "Monochromatic"
    RAINBOW = "Rainbow"
    MIN_COLOURED = "MinColoured"
    MAX_COLOURED = "MaxColoured"
    NON_STRICT_MIN = "NonStrictMin"
    NON_STRICT_MAX = "NonStrictMax"


#: The four canonical patterns proper; non-strict variants are bookkeeping.
STRICT_TAGS = frozenset(
    {PatternTag.MONOCHROMATIC, PatternTag.RAINBOW,
     PatternTag.MIN_COLOURED, PatternTag.MAX_COLOURED}
)


class EdgeColouring:
    """A total map from the host graph's edge set to colour ids.

    Colour ids are opaque integers in [0, 2^63) and need not be contiguous;
    ``relabel_dense`` produces an equivalent colouring with ids 0..k-1.
    Stored as a symmetric (n+1) x (n+1) int64 matrix, -1 off the edges, for
    numpy work, and as its rows of Python ints, each made on first use, for
    scalar lookups.  A colouring made from a colour source (GreedyProper) is
    coloured on demand: reading row v colours the edges whose first endpoint
    is at most v, and reading the matrix colours the rest.
    """

    __slots__ = ("host", "_rows")

    def __init__(self, host: OrderedGraph, mapping: Mapping[Edge, int]) -> None:
        norm: dict[Edge, int] = {}
        for (u, v), c in mapping.items():
            edge = normalise_edge(u, v)
            if edge in norm:
                raise ValueError(f"duplicate edge {edge}")
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or not 0 <= c < _COLOUR_LIMIT:
                raise ValueError(f"colour {c!r} on edge {edge} is not an integer in [0, 2^63)")
            norm[edge] = int(c)
        missing, extra = set(host.edges) - set(norm), set(norm) - set(host.edges)
        if missing or extra:
            raise ValueError(f"colouring domain mismatch: missing {sorted(missing)[:3]}, "
                             f"extraneous {sorted(extra)[:3]}")
        self.host = host
        self._rows = _Rows(host, [norm[edge] for edge in host.edges])

    @classmethod
    def _trusted(cls, host: OrderedGraph,
                 colours: Sequence[int] | np.ndarray | _Source) -> "EdgeColouring":
        """Colour ``host.edges[i]`` with ``colours[i]``, as the library computed it, unchecked.

        ``colours`` may also be a colour source: ``colours(start, end)`` gives
        the colours of ``host.edges[start:end]``, asked for consecutive slices
        only as far as the rows read need.
        """
        phi = cls.__new__(cls)
        phi.host = host
        phi._rows = _Rows(host, colours)
        return phi

    @property
    def _matrix(self) -> np.ndarray:
        """The colour matrix, after colouring every edge a source has not yet coloured."""
        return self._rows.drain()

    def __reduce__(self):
        return EdgeColouring._trusted, (self.host, self._matrix[self.host._us, self.host._vs])

    def colour(self, u: int, v: int) -> int:
        """The colour of edge uv; KeyError if uv is not an edge, ValueError if u == v."""
        c = self.get(u, v)
        if c is None:
            raise ValueError(f"loop at vertex {u}") if u == v else KeyError((u, v))
        return c

    def get(self, u: int, v: int) -> Optional[int]:
        """The colour of edge uv, or None if uv is not an edge."""
        n = self.host.n
        if not (0 < u <= n and 0 < v <= n):  # read no row for a vertex outside the host
            return None
        c = self._rows[u][v]
        return c if c >= 0 else None

    def items(self) -> Iterator[tuple[Edge, int]]:
        host = self.host
        return zip(host.edges, self._matrix[host._us, host._vs].tolist())

    def colours(self) -> set[int]:
        return set(self._matrix[self.host._us, self.host._vs].tolist())

    def relabel_dense(self) -> "EdgeColouring":
        """Relabel colours to 0..k-1 by first appearance in edge order."""
        table: dict[int, int] = {}
        return EdgeColouring._trusted(
            self.host, [table.setdefault(c, len(table)) for _, c in self.items()])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColouring):
            return NotImplemented
        return self.host == other.host and np.array_equal(self._matrix, other._matrix)

    def __repr__(self) -> str:
        return f"EdgeColouring(n={self.host.n}, m={self.host.edge_count}, colours={len(self.colours())})"


_Source = Callable[[int, int], Sequence[int]]


class _Rows(dict):
    """``rows[v]``: row v of a colour matrix as Python ints, made on first use.

    The matrix is filled from a colour source in edge-prefix order.  Edges
    come in lexicographic order, so row v holds only edges of the prefix
    whose first endpoint is at most v; a source whose colour for an edge
    depends only on earlier edges (greedy) is final on that prefix.  A
    colour list is taken whole, as one slice, at construction.
    """

    def __init__(self, host: OrderedGraph, colours: Sequence[int] | np.ndarray | _Source) -> None:
        self.matrix = np.full((host.n + 1, host.n + 1), -1, dtype=np.int64)
        self.host = host
        self.filled = 0  # host.edges[:filled] are coloured
        if callable(colours):
            self.source: Optional[_Source] = colours
        else:
            self.source = lambda start, end: colours[start:end]
            self.drain()

    def _advance(self, end: int) -> None:
        start, host = self.filled, self.host
        if end > start:
            us, vs = host._us[start:end], host._vs[start:end]
            colours = np.asarray(self.source(start, end), dtype=np.int64)
            self.matrix[us, vs] = colours
            self.matrix[vs, us] = colours
            self.filled = end

    def drain(self) -> np.ndarray:
        """The matrix with every edge coloured; the source is dropped."""
        if self.source is not None:
            self._advance(self.host.edge_count)
            self.source = None
        return self.matrix

    def __missing__(self, v: int) -> list[int]:
        if self.source is not None:
            self._advance(int(np.searchsorted(self.host._us, v, "right")))
        row = self[v] = self.matrix[v].tolist()
        return row


@dataclass(frozen=True)
class CanonicalWitness:
    """An increasing clique tuple, the pattern tags it realises, and the
    (edge, colour) evidence backing them."""

    vertices: tuple[int, ...]
    tags: frozenset[PatternTag]
    evidence: tuple[tuple[Edge, int], ...]

    def is_canonical(self) -> bool:
        return bool(self.tags & STRICT_TAGS)


def _clique_colours(phi: EdgeColouring, verts: tuple[int, ...]) -> tuple[int, ...]:
    """The colours of the clique's edges (v_i, v_j), i < j, row by row."""
    if len(verts) < 2 or any(map(ge, verts, verts[1:])):
        raise ValueError(f"vertices must be strictly increasing, got {verts}")
    colours = []
    for u, w in combinations(verts, 2):
        try:
            colours.append(phi.colour(u, w))
        except KeyError:
            raise NotAClique(f"edge ({u},{w}) absent") from None
    return tuple(colours)


@lru_cache(maxsize=16)
def _heads(ell: int) -> tuple[Callable, Callable, Callable]:
    """For a K_ell's colours listed row by row: the getters of each colour's
    row head (i, i+1), of each colour's column head (0, j), and of the row
    heads.  At ell = 2 each gets the one colour, and ``tuple`` is that getter."""
    pairs = [(i, j) for i in range(ell) for j in range(i + 1, ell)]
    at = {pair: k for k, pair in enumerate(pairs)}
    row_head = [at[i, i + 1] for i, _ in pairs]
    heads = [at[i, i + 1] for i in range(ell - 1)]
    return tuple(itemgetter(*index) if ell > 2 else tuple
                 for index in (row_head, [j - 1 for _, j in pairs], heads))


def _tags(colours: tuple[int, ...], ell: int) -> set[PatternTag]:
    """The pattern tags of a K_ell with these colours, listed row by row."""
    by_row, by_column, row_heads = _heads(ell)
    tags: set[PatternTag] = set()
    distinct = len(set(colours))
    if distinct == 1:
        tags.add(PatternTag.MONOCHROMATIC)
    if distinct == len(colours):
        tags.add(PatternTag.RAINBOW)
    # min pattern: the colour of {v_i, v_j} (i<j) may depend only on i
    if by_row(colours) == colours:
        tags.add(PatternTag.NON_STRICT_MIN)
        if len(set(row_heads(colours))) == ell - 1:
            tags.add(PatternTag.MIN_COLOURED)
    # max pattern: colour may depend only on j; row 0 lists the column heads
    if by_column(colours) == colours:
        tags.add(PatternTag.NON_STRICT_MAX)
        if len(set(colours[:ell - 1])) == ell - 1:
            tags.add(PatternTag.MAX_COLOURED)
    return tags


def classify_copy(phi: EdgeColouring, vertices: Sequence[int]) -> set[PatternTag]:
    """All pattern tags realised by the given increasing clique tuple.

    Strict min/max test the full biconditional (colours agree exactly when
    the min resp. max endpoints agree); the non-strict variants test only
    the backward implication.  Raises NotAClique if an edge is missing.
    """
    verts = tuple(vertices)
    return _tags(_clique_colours(phi, verts), len(verts))


def witness_for(phi: EdgeColouring, vertices: Sequence[int]) -> CanonicalWitness:
    """Package a clique tuple with its tags and edge-colour evidence."""
    verts = tuple(vertices)
    colours = _clique_colours(phi, verts)
    return CanonicalWitness(verts, frozenset(_tags(colours, len(verts))),
                            tuple(zip(combinations(verts, 2), colours)))


def _colour_counts(phi: EdgeColouring, v: int, umask: int,
                   direction: Optional[str] = None) -> dict[int, int]:
    """Colour degrees d_c(v, U) of v into the vertex bitmask U, by colour c.

    Direction "<" counts only neighbours w > v, ">" only w < v.
    """
    if not 1 <= v <= phi.host.n:
        raise ValueError(f"vertex {v} outside {{1,...,{phi.host.n}}}")
    lower = (1 << v) - 1
    rest = phi.host._adj[v] & umask
    if direction == "<":
        rest &= ~lower
    elif direction == ">":
        rest &= lower
    elif direction is not None:
        raise ValueError("direction must be '<' or '>'")
    row = phi._rows[v]
    return Counter(row[w] for w in bits(rest))


def _max_degrees(phi: EdgeColouring, us: Optional[Iterable[int]],
                 direction: Optional[str] = None) -> tuple[int, Iterator[tuple[int, int]]]:
    """|U| and, for each u in U in increasing order, (u, max_c d_c(u, U)),
    the maximum 0 when u has no neighbour in U; U defaults to every vertex."""
    umask = vertex_mask(phi.host, us)
    if not umask:
        raise ValueError("U must be nonempty")
    degrees = ((u, max(_colour_counts(phi, u, umask, direction).values(), default=0))
               for u in bits(umask))
    return umask.bit_count(), degrees


def colour_degree(phi: EdgeColouring, v: int, us: Iterable[int], c: int) -> int:
    """|{w in U : vw is an edge and phi(vw) = c}|."""
    return _colour_counts(phi, v, vertex_mask(phi.host, us)).get(c, 0)


def directed_colour_degree(phi: EdgeColouring, v: int, us: Iterable[int],
                           c: int, direction: str) -> int:
    """Colour degree restricted to neighbours w with v < w or v > w."""
    return _colour_counts(phi, v, vertex_mask(phi.host, us), direction).get(c, 0)


def _threshold(factor: float, delta: float, p: float, size: int) -> float:
    """factor * delta * p * size, multiplied in that order, refusing a
    negative or non-finite delta and a p outside [0, 1] with a ValueError
    naming the parameter."""
    return factor * _finite("delta", delta, 0) * _finite("p", p, 0, 1) * size


def is_delta_p_bounded(phi: EdgeColouring, us: Iterable[int],
                       delta: float, p: float) -> bool:
    """Every colour degree into U stays <= delta * p * |U|, for every u in U."""
    size, degrees = _max_degrees(phi, us)
    cap = _threshold(1.0, delta, p, size)
    return all(degree <= cap for _, degree in degrees)


def unbounded_condition_holds(phi: EdgeColouring, us: Iterable[int],
                              delta: float, p: float) -> bool:
    """At least half of U has some colour degree >= 8 * delta * p * |U|.

    The half-of-U comparison is exact (|B(U)| >= |U'| in integers), avoiding
    floating-point ties.
    """
    unbounded, rest = bounded_side_split(phi, us, delta, p)
    return len(unbounded) >= len(rest)


def unbounded_vertices(phi: EdgeColouring, us: Iterable[int], delta: float,
                       p: float, direction: str) -> tuple[int, ...]:
    """The set of u in U with some directed colour degree >= 4 * delta * p * |U|."""
    size, degrees = _max_degrees(phi, us, direction)
    threshold = _threshold(4.0, delta, p, size)
    return tuple(u for u, degree in degrees if degree >= threshold)


def bounded_side_split(phi: EdgeColouring, us: Iterable[int], delta: float,
                       p: float) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Partition U into its unbounded part B(U) (some colour degree
    >= 8 * delta * p * |U|) and the bounded remainder U'."""
    size, degrees = _max_degrees(phi, us)
    threshold = _threshold(8.0, delta, p, size)
    unbounded, rest = [], []
    for u, degree in degrees:
        (unbounded if degree >= threshold else rest).append(u)
    return tuple(unbounded), tuple(rest)


def _partite_cliques(host: OrderedGraph,
                     classes: Sequence[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """Stream tuples (u_1,...,u_ell), u_i in class i, inducing a clique."""
    class_of = {v: i for i, cl in enumerate(classes) for v in cl}
    cliques = _extend_cliques(host._adj, vertex_mask(host, class_of), len(classes),
                              lambda prefix, v: all(class_of[u] != class_of[v] for u in prefix))
    return (tuple(sorted(clique, key=class_of.__getitem__)) for clique in cliques)


def _check_classes(host: OrderedGraph, classes: Sequence[Iterable[int]],
                   minimum: int) -> list[tuple[int, ...]]:
    norm = [tuple(sorted(set(cl))) for cl in classes]
    if len(norm) < minimum:
        raise ValueError(f"need at least {minimum} classes")
    seen: set[int] = set()
    for cl in norm:
        if not cl:
            raise ValueError("classes must be nonempty")
        for v in cl:
            if not 1 <= v <= host.n:
                raise ValueError(f"vertex {v} outside host")
            if v in seen:
                raise ValueError(f"classes are not disjoint at vertex {v}")
            seen.add(v)
    return norm


def nonrainbow_cherry_count(phi: EdgeColouring,
                            classes: Sequence[Iterable[int]]) -> int:
    """Cross-class K_ell copies whose edges into classes 2 and 3 from the
    class-1 vertex repeat a colour: phi(u1 u2) = phi(u1 u3)."""
    norm = _check_classes(phi.host, classes, 3)
    count = 0
    for tup in _partite_cliques(phi.host, norm):
        if phi.colour(tup[0], tup[1]) == phi.colour(tup[0], tup[2]):
            count += 1
    return count


def nonrainbow_matching_count(phi: EdgeColouring,
                              classes: Sequence[Iterable[int]]) -> int:
    """Cross-class K_ell copies with a repeated colour on the disjoint pair
    (u1 u2) and (u3 u4)."""
    norm = _check_classes(phi.host, classes, 4)
    count = 0
    for tup in _partite_cliques(phi.host, norm):
        if phi.colour(tup[0], tup[1]) == phi.colour(tup[2], tup[3]):
            count += 1
    return count


def pair_density(graph: OrderedGraph, ui: Iterable[int], uj: Iterable[int],
                 p: float) -> float:
    """e(U_i, U_j) / (p |U_i| |U_j|) for disjoint classes (edges counted once)."""
    if _finite("p", p, 0, 1) == 0:
        raise ValueError("p must be positive")
    a, b = _check_classes(graph, (ui, uj), 2)
    bmask = vertex_mask(graph, b)
    edges = sum((graph.adjacency(u) & bmask).bit_count() for u in a)
    return edges / (p * len(a) * len(b))


def cherry_density(graph: OrderedGraph, u1: Iterable[int], u2: Iterable[int],
                   u3: Iterable[int], p: float) -> float:
    """sum_{u in U1} d(u,U2) d(u,U3) / (p^2 |U1| |U2| |U3|)."""
    if _finite("p", p, 0, 1) == 0:
        raise ValueError("p must be positive")
    a, b, c = _check_classes(graph, (u1, u2, u3), 3)
    bmask = vertex_mask(graph, b)
    cmask = vertex_mask(graph, c)
    total = sum(
        (graph.adjacency(u) & bmask).bit_count() * (graph.adjacency(u) & cmask).bit_count()
        for u in a
    )
    return total / (p * p * len(a) * len(b) * len(c))


def greedy_colour_partition(weights: Mapping[int, int], cap: int) -> list[list[int]]:
    """Partition colour ids into classes of total weight <= cap.

    Colours are taken in ascending id order and appended to the current
    class while it still fits, so the output is deterministic.  The class
    count never exceeds ceil(2 * total / cap) + 1.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    for colour, weight in weights.items():
        if weight < 0:
            raise ValueError(f"negative weight for colour {colour}")
        if weight > cap:
            raise WeightExceedsCap(f"colour {colour} has weight {weight} > cap {cap}")
    classes: list[list[int]] = []
    load = 0
    current: list[int] = []
    for colour in sorted(weights):
        w = weights[colour]
        if current and load + w > cap:
            classes.append(current)
            current, load = [], 0
        current.append(colour)
        load += w
    if current:
        classes.append(current)
    return classes


def write_colouring(phi: EdgeColouring, path: str) -> None:
    """Write the text format: header "n m", then sorted lines "u v c"."""
    rows = (f"{u} {v} {c}" for (u, v), c in phi.items())
    _write_lines(path, [f"{phi.host.n} {phi.host.edge_count}", *rows])


def read_colouring(path: str, host: OrderedGraph) -> EdgeColouring:
    """Read a colouring and validate it bijectively covers the host edges.

    The first offending line is reported on failure.
    """
    (top, (n, m)), *records = _read_records(path, "colouring", "n m", "u v c")
    if n != host.n:
        raise ValueError(f"line {top}: header n={n} does not match host n={host.n}")
    if m != host.edge_count:
        raise ValueError(f"line {top}: header m={m} does not match host m={host.edge_count}")
    mapping: dict[Edge, int] = {}
    for idx, (u, v, c) in records:
        if not u < v:
            raise ValueError(f"line {idx}: endpoints must satisfy u < v")
        if not host.has_edge(u, v):
            raise ValueError(f"line {idx}: ({u},{v}) is not an edge of the host")
        if (u, v) in mapping:
            raise ValueError(f"line {idx}: duplicate edge ({u},{v})")
        if not 0 <= c < _COLOUR_LIMIT:
            raise ValueError(f"line {idx}: colour {c} outside [0, 2^63)")
        mapping[(u, v)] = c
    if len(mapping) != host.edge_count:
        raise ValueError("colouring does not cover every host edge")
    return EdgeColouring._trusted(host, [mapping[edge] for edge in host.edges])
