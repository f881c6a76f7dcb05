"""Decision and witness-finding procedures: canonical/rainbow copy search,
the classical arrow property via backtracking, and exhaustive canonical
certification for tiny graphs via set-partition enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .colouring import (
    STRICT_TAGS,
    CanonicalWitness,
    EdgeColouring,
    PatternTag,
    _tags,
    witness_for,
)
from .graphs import OrderedGraph, _extend_cliques, bits, enumerate_cliques, vertex_mask

__all__ = [
    "ArrowQuery",
    "SearchOutcome",
    "ArrowOutcome",
    "ExhaustiveArrowOutcome",
    "ResourceLimitError",
    "TooManyEdges",
    "DEFAULT_NODE_BUDGET",
    "find_canonical_copy",
    "find_rainbow_copy",
    "arrows_mono",
    "canonical_arrow_exhaustive",
    "restricted_growth_strings",
]

DEFAULT_NODE_BUDGET = 10**8

_EXHAUSTIVE_EDGE_GUARD = 12


class ResourceLimitError(Exception):
    """The backtracking node budget was exhausted before a decision."""

    def __init__(self, nodes: int) -> None:
        super().__init__(f"node budget exhausted after {nodes} nodes")
        self.nodes = nodes


class TooManyEdges(Exception):
    """The exhaustive certifier is guarded at 12 edges (Bell-number growth)."""


@dataclass(frozen=True)
class ArrowQuery:
    """Parameters of the relation "every r-colouring has a monochromatic K_ell"."""

    ell: int
    r: int

    def __post_init__(self) -> None:
        if self.ell < 3:
            raise ValueError("ell must be >= 3")
        if self.r < 2:
            raise ValueError("r must be >= 2")


@dataclass(frozen=True)
class SearchOutcome:
    """The first clique found, if any, and the work done: ``nodes_explored``
    counts the (prefix, v) pairs the search tested, in both modes."""

    found: bool
    witness: Optional[CanonicalWitness]
    nodes_explored: int


@dataclass(frozen=True)
class ArrowOutcome:
    """Decision plus certificate: when ``arrows`` is False the witness is a
    colouring with no monochromatic K_ell."""

    arrows: bool
    witness: Optional[EdgeColouring]
    nodes: int


@dataclass(frozen=True)
class ExhaustiveArrowOutcome:
    """Decision of the unbounded-palette arrow over all colour partitions."""

    holds: bool
    partitions_checked: int
    counterexample: Optional[EdgeColouring]


def _first_clique(phi: EdgeColouring, ell: int, within: Optional[Iterable[int]],
                  wanted: frozenset[PatternTag]) -> SearchOutcome:
    """First clique (lexicographic order) with a tag in ``wanted``.

    Every strict tag of a K_ell is a tag of each k-vertex prefix, k >= 2, so
    a prefix with no wanted tag is abandoned and the first streamed tuple is
    the witness.  ``nodes_explored`` counts the (prefix, v) pairs tested,
    which are only those that can still complete by count: v closes the
    clique, or at least the missing number of common neighbours lie above v.
    """
    if ell < 3:
        raise ValueError("ell must be >= 3")
    rows = phi._rows
    nodes = 0

    def admit(prefix: list[int], v: int) -> bool:
        nonlocal nodes
        nodes += 1
        if len(prefix) < 2:  # one edge has every strict tag, so read no row
            return True
        verts = (*prefix, v)
        return bool(_tags(tuple([rows[u][w] for u, w in combinations(verts, 2)]), len(verts))
                    & wanted)

    mask = vertex_mask(phi.host, within)
    tup = next(_extend_cliques(phi.host._adj, mask, ell, admit), None)
    if tup is None:
        return SearchOutcome(False, None, nodes)
    return SearchOutcome(True, witness_for(phi, tup), nodes)


def find_canonical_copy(phi: EdgeColouring, ell: int,
                        within: Optional[Iterable[int]] = None) -> SearchOutcome:
    """First clique (lexicographic order) classifying with a strict canonical
    tag: monochromatic, rainbow, min-coloured, or max-coloured."""
    return _first_clique(phi, ell, within, STRICT_TAGS)


def find_rainbow_copy(phi: EdgeColouring, ell: int,
                      within: Optional[Iterable[int]] = None) -> SearchOutcome:
    """First rainbow clique (lexicographic order); a prefix whose edges
    repeat a colour is abandoned."""
    return _first_clique(phi, ell, within, frozenset({PatternTag.RAINBOW}))


def _clique_edges(graph: OrderedGraph, ell: int) -> list[list[int]]:
    """Each K_ell of the graph, in lexicographic order, as the positions in
    ``graph.edges`` of its edges (v_i, v_j), i < j, row by row, which is
    edge order."""
    at = {edge: k for k, edge in enumerate(graph.edges)}
    return [[at[edge] for edge in combinations(tup, 2)]
            for tup in enumerate_cliques(graph, ell)]


def arrows_mono(graph: OrderedGraph, query: ArrowQuery,
                budget: int = DEFAULT_NODE_BUDGET) -> ArrowOutcome:
    """Decide whether every r-colouring of the edges yields a monochromatic
    K_ell.

    Runs a backtracking search for a colouring with no monochromatic clique:
    cliques with all but one edge in a single colour forbid that colour on
    the last edge, and the next edge to branch on is the one with fewest
    colours left.  Exhaustion proves the arrow; a completed colouring
    refutes it and is returned as the certificate.  Exceeding ``budget``
    raises ResourceLimitError rather than guessing.
    """
    m = graph.edge_count
    clique_edges = _clique_edges(graph, query.ell)
    if not clique_edges:
        witness = EdgeColouring._trusted(graph, [0] * m)
        return ArrowOutcome(False, witness, 0)

    edge_cliques: list[list[int]] = [[] for _ in range(m)]
    for k, idxs in enumerate(clique_edges):
        for e in idxs:
            edge_cliques[e].append(k)

    r = query.r
    full = (1 << r) - 1
    colour = [-1] * m
    avail = [full] * m
    size = len(clique_edges[0])
    counts = [[0] * r for _ in clique_edges]
    coloured = [0] * len(clique_edges)
    nodes = 0

    def place(e: int, c: int, trail: list) -> bool:
        colour[e] = c
        trail.append(("col", e))
        for k in edge_cliques[e]:
            counts[k][c] += 1
            coloured[k] += 1
            trail.append(("cnt", k, c))
            if counts[k][c] == size:
                return False
            if coloured[k] == size - 1 and counts[k][c] == size - 1:
                # one edge left and every coloured edge is c: forbid c there
                for f in clique_edges[k]:
                    if colour[f] == -1:
                        if avail[f] >> c & 1:
                            avail[f] &= ~(1 << c)
                            trail.append(("avail", f, c))
                            if avail[f] == 0:
                                return False
                        break
        return True

    def undo(trail: list) -> None:
        while trail:
            entry = trail.pop()
            if entry[0] == "col":
                colour[entry[1]] = -1
            elif entry[0] == "cnt":
                _, k, c = entry
                counts[k][c] -= 1
                coloured[k] -= 1
            else:
                _, f, c = entry
                avail[f] |= 1 << c

    def pick() -> int:
        best, best_width = -1, r + 1
        for e in range(m):
            if colour[e] == -1:
                width = avail[e].bit_count()
                if width < best_width:
                    best, best_width = e, width
                    if width <= 1:
                        break
        return best

    def solve(used: int) -> bool:
        # colours beyond the first unused one are interchangeable, so branch
        # on at most one fresh colour (sound for any label-invariant target)
        nonlocal nodes
        e = pick()
        if e == -1:
            return True
        cap = min(r, used + 1)
        for c in bits(avail[e] & ((1 << cap) - 1)):
            nodes += 1
            if nodes > budget:
                raise ResourceLimitError(nodes)
            trail: list = []
            if place(e, c, trail) and solve(max(used, c + 1)):
                return True
            undo(trail)
        return False

    if solve(0):
        witness = EdgeColouring._trusted(graph, colour)
        return ArrowOutcome(False, witness, nodes)
    return ArrowOutcome(True, None, nodes)


def restricted_growth_strings(m: int) -> Iterator[tuple[int, ...]]:
    """Every restricted-growth string of length m, i.e. every set partition
    of m items encoded by block indices, in lexicographic order."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        yield ()
        return
    a = [0] * m
    # b[i] caps position i at 1 + max of the prefix
    b = [1] * m
    while True:
        yield tuple(a)
        i = m - 1
        while i > 0 and a[i] >= b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        cap = b[i] if a[i] < b[i] else a[i] + 1
        for j in range(i + 1, m):
            a[j] = 0
            b[j] = cap


def canonical_arrow_exhaustive(graph: OrderedGraph, ell: int) -> ExhaustiveArrowOutcome:
    """Decide the unbounded-palette arrow by checking every edge colouring up
    to colour renaming, i.e. every partition of the edge set.

    Guarded at 12 edges; the partition count is the Bell number of |E|.
    """
    if ell < 3:
        raise ValueError("ell must be >= 3")
    m = graph.edge_count
    if m > _EXHAUSTIVE_EDGE_GUARD:
        raise TooManyEdges(f"{m} edges exceeds the guard of {_EXHAUSTIVE_EDGE_GUARD}")
    # each clique's colours, row by row, read off a string of edge colours
    getters = [itemgetter(*idxs) for idxs in _clique_edges(graph, ell)]
    for checked, rgs in enumerate(restricted_growth_strings(m), 1):  # at least one string
        if not any(_tags(get(rgs), ell) & STRICT_TAGS for get in getters):
            return ExhaustiveArrowOutcome(False, checked, EdgeColouring._trusted(graph, rgs))
    return ExhaustiveArrowOutcome(True, checked, None)
