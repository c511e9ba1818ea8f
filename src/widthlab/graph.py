"""Undirected graphs, vertex orderings, prefix cuts, bipartite matching and covers.

Vertices are dense integer ids 0..n-1.  Cut graphs are bipartite by
construction (prefix side vs. suffix side of an ordering), so maximum
matching and minimum vertex cover are computed with augmenting paths and
the alternating-reachability construction.  All tie-breaking is by
ascending vertex id so results are reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import FormatError, InputError, InvariantViolationError, int_token


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def make(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise InputError(f"vertex count must be non-negative, got {n}")
        normed = set()
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            e = _norm_edge(u, v)
            if e in normed:
                raise InputError(f"duplicate edge {e}")
            normed.add(e)
        return Graph(n, frozenset(normed))

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> set[int]:
        return {b if a == v else a for a, b in self.edges if v in (a, b)}

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@functools.lru_cache(maxsize=None)
def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Per-vertex neighbor bitmasks (bit v set iff v adjacent)."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


@dataclass(frozen=True)
class Ordering:
    """A permutation of a graph's vertices."""

    seq: tuple[int, ...]

    @staticmethod
    def make(seq: Iterable[int]) -> "Ordering":
        t = tuple(seq)
        if sorted(t) != list(range(len(t))):
            raise InputError(f"not a permutation of 0..{len(t) - 1}: {t}")
        return Ordering(t)

    def __len__(self) -> int:
        return len(self.seq)

    def prefix(self, i: int) -> frozenset[int]:
        return frozenset(self.seq[:i])

    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.seq)}


@dataclass(frozen=True)
class CutGraph:
    """Bipartite graph of the edges crossing a prefix/suffix partition.

    Edges are stored oriented (left endpoint, right endpoint).
    """

    left: frozenset[int]
    right: frozenset[int]
    edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges, oriented like the host cut."""

    pairs: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class VertexCover:
    verts: frozenset[int]

    def __len__(self) -> int:
        return len(self.verts)


def cut_graph(g: Graph, sv: Ordering, i: int) -> CutGraph:
    """Crossing edges between the first i vertices of sv and the rest."""
    n = g.n
    if len(sv) != n:
        raise InputError("ordering length does not match graph")
    if not 1 <= i <= n - 1:
        raise InputError(f"prefix length {i} outside 1..{n - 1}")
    left = sv.prefix(i)
    right = frozenset(sv.seq[i:])
    crossing = set()
    for u, v in g.edges:
        if (u in left) != (v in left):
            crossing.add((u, v) if u in left else (v, u))
    return CutGraph(left, right, frozenset(crossing))


def _left_adjacency(c: CutGraph) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in c.edges:
        adj.setdefault(u, []).append(v)
    for nbrs in adj.values():
        nbrs.sort()
    return adj


def max_bipartite_matching(c: CutGraph) -> Matching:
    """Maximum matching of a cut graph.

    Augmenting paths are explored in ascending vertex-id order, so the
    result is deterministic for a fixed input.
    """
    adj = _left_adjacency(c)
    match_right: dict[int, int] = {}

    def augment(u: int, visited: set[int]) -> bool:
        for v in adj.get(u, ()):
            if v in visited:
                continue
            visited.add(v)
            if v not in match_right or augment(match_right[v], visited):
                match_right[v] = u
                return True
        return False

    for u in sorted(adj):
        augment(u, set())
    return Matching(frozenset((u, v) for v, u in match_right.items()))


def min_vertex_cover_bipartite(c: CutGraph, m: Matching) -> VertexCover:
    """Minimum vertex cover from a maximum matching (alternating reachability).

    Starts from unmatched left vertices, walks non-matching edges left to
    right and matching edges right to left; the cover is the unreached
    left vertices plus the reached right vertices.
    """
    adj = _left_adjacency(c)
    match_left = {u: v for u, v in m.pairs}
    match_right = {v: u for u, v in m.pairs}
    reach_left = {u for u in adj if u not in match_left}
    reach_right: set[int] = set()
    frontier = sorted(reach_left)
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if match_left.get(u) == v or v in reach_right:
                    continue
                reach_right.add(v)
                w = match_right.get(v)
                if w is not None and w not in reach_left:
                    reach_left.add(w)
                    nxt.append(w)
        frontier = sorted(nxt)
    cover = frozenset(u for u in adj if u not in reach_left) | frozenset(reach_right)
    for u, v in c.edges:
        if u not in cover and v not in cover:
            raise InvariantViolationError(f"edge ({u},{v}) left uncovered")
    if len(cover) != len(m):
        raise InvariantViolationError(
            f"cover size {len(cover)} != matching size {len(m)}; matching not maximum?"
        )
    return VertexCover(cover)


# --- DIMACS graph format ("p edge n m", "e u v", 1-based on disk) ---

DIMACS_GRAPH_HEADER = "c widthlab graph format v1 (DIMACS edge)"


def format_dimacs_graph(g: Graph, comments: Iterable[str] = ()) -> str:
    lines = [DIMACS_GRAPH_HEADER]
    lines.extend(f"c {c}" for c in comments)
    lines.append(f"p edge {g.n} {len(g.edges)}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_dimacs_graph(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise FormatError(f"line {lineno}: expected 'p edge n m'")
            n = int_token(parts[2], f"line {lineno}")
        elif parts[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'e u v'")
            edges.append((int_token(parts[1], f"line {lineno}") - 1,
                          int_token(parts[2], f"line {lineno}") - 1))
        else:
            raise FormatError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise FormatError("missing 'p edge' problem line")
    try:
        return Graph.make(n, edges)
    except InputError as exc:
        raise FormatError(str(exc)) from exc


def iter_bits(mask: int) -> Iterator[int]:
    """Set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
