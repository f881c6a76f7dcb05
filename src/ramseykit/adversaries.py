"""Structured edge-colouring generators used as adversaries in experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .colouring import EdgeColouring, _max_degrees
from .graphs import OrderedGraph, _bit_table, _integer

__all__ = [
    "KINDS",
    "AdversarySpec",
    "generate_colouring",
    "verify_properness",
    "max_colour_multiplicity",
]

KINDS = ("RandomR", "Injective", "MinOrder", "MaxOrder", "GreedyProper", "BoundedRandom")

_REDRAW_LIMIT = 100


@dataclass(frozen=True)
class AdversarySpec:
    """Declarative description of a colouring adversary.

    kind semantics:
      RandomR        -- i.i.d. uniform colours from {0,...,r-1}
      Injective      -- fresh colour per edge in lexicographic order
      MinOrder       -- phi(uv) = min(u, v)
      MaxOrder       -- phi(uv) = max(u, v)
      GreedyProper   -- greedy proper colouring, lexicographic edge scan,
                        least colour absent at both endpoints
      BoundedRandom  -- uniform colours from {0,...,r-1}, redrawn per edge
                        until no vertex sees > lam edges of one colour;
                        after 100 failed draws the edge gets a fresh colour
                        id beyond the palette (deterministic repair)

    The palette size r defaults to the host's vertex count for
    BoundedRandom, where the multiplicity constraint is the point.
    """

    kind: str
    r: Optional[int] = None
    lam: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if self.kind == "RandomR" and self.r is None:
            raise ValueError("RandomR needs r >= 1")
        if self.kind == "BoundedRandom" and self.lam is None:
            raise ValueError("BoundedRandom needs lambda >= 1")
        # r and lambda bound the kinds that draw colours; the others ignore them
        low = 1 if self.kind in ("RandomR", "BoundedRandom") else -math.inf
        for key, attr in (("r", "r"), ("lambda", "lam")):
            value = getattr(self, attr)
            if value is not None:
                object.__setattr__(self, attr, _integer(key, value, low))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))

    def with_seed(self, seed: int) -> "AdversarySpec":
        return replace(self, seed=seed)

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "seed": self.seed}
        if self.r is not None:
            out["r"] = self.r
        if self.lam is not None:
            out["lambda"] = self.lam
        return out

    @classmethod
    def from_json(cls, data: dict) -> "AdversarySpec":
        _check_json_keys("adversary", data, ("kind", "r", "lambda", "seed"), ("kind",))
        return cls(**{"lam" if key == "lambda" else key: value for key, value in data.items()})


def _check_json_keys(what: str, data: object, known: Sequence[str],
                     required: Sequence[str]) -> None:
    """Refuse a JSON value that is not an object, then one with a key
    outside ``known``, then one missing a ``required`` key, naming the keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"missing {what} keys: {', '.join(missing)}")


def _greedy_proper(graph: OrderedGraph) -> Callable[[int, int], list[int]]:
    """The greedy colouring as a colour source: ``source(start, end)`` colours
    ``graph.edges[start:end]``, called on consecutive slices from 0."""
    used = [0] * (graph.n + 1)  # bitmask of the colours at each vertex
    edges = graph.edges
    bit = _bit_table(graph.n)[0]

    def source(start: int, end: int) -> list[int]:
        colours = []
        for u, v in edges[start:end]:
            taken = used[u] | used[v]
            c = (taken ^ (taken + 1)).bit_length() - 1  # lowest colour absent at both ends
            colours.append(c)
            used[u] |= bit[c]
            used[v] |= bit[c]
        return colours

    return source


def _bounded_random(graph: OrderedGraph, spec: AdversarySpec) -> list[int]:
    palette = spec.r if spec.r is not None else graph.n
    lam = spec.lam
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    # multiplicity[v][c] = edges of colour c already incident to v
    multiplicity: list[dict[int, int]] = [dict() for _ in range(graph.n + 1)]
    fresh = palette
    colours = []
    for u, v in graph.edges:
        chosen = None
        for _ in range(_REDRAW_LIMIT):
            c = int(rng.integers(0, palette))
            if multiplicity[u].get(c, 0) < lam and multiplicity[v].get(c, 0) < lam:
                chosen = c
                break
        if chosen is None:
            chosen = fresh  # fresh id: multiplicity 1 at both ends
            fresh += 1
        colours.append(chosen)
        multiplicity[u][chosen] = multiplicity[u].get(chosen, 0) + 1
        multiplicity[v][chosen] = multiplicity[v].get(chosen, 0) + 1
    return colours


def generate_colouring(graph: OrderedGraph, spec: AdversarySpec) -> EdgeColouring:
    """Produce the colouring described by ``spec``; same inputs, same output."""
    if spec.kind == "RandomR":
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        colours = rng.integers(0, spec.r, size=graph.edge_count)
    elif spec.kind == "Injective":
        colours = np.arange(graph.edge_count)
    elif spec.kind == "MinOrder":
        colours = graph._us
    elif spec.kind == "MaxOrder":
        colours = graph._vs
    elif spec.kind == "GreedyProper":  # coloured as far as rows are read
        colours = _greedy_proper(graph)
    elif spec.kind == "BoundedRandom":
        colours = _bounded_random(graph, spec)
    else:  # pragma: no cover - guarded by AdversarySpec
        raise ValueError(f"unknown adversary kind {spec.kind!r}")
    return EdgeColouring._trusted(graph, colours)


def verify_properness(phi: EdgeColouring) -> bool:
    """True iff no two incident edges share a colour."""
    return max_colour_multiplicity(phi) <= 1


def max_colour_multiplicity(phi: EdgeColouring) -> int:
    """max over vertices v and colours c of the colour degree d_c(v, V)."""
    phi._rows.drain()  # colour a lazy source in one pass, not one slice per row
    return max(degree for _, degree in _max_degrees(phi, None)[1])
