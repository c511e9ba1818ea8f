"""Undirected graphs, orderings, prefix cuts, matching and covers.

Vertices are dense integer ids 0..n-1.  A graph stores each edge once, as
(u, v) with u < v, in one ascending tuple: the edge order that the DIMACS
writer, the CNF's edge variables and the decompositions all follow.  Cut
graphs are bipartite by construction (prefix side vs. suffix side of an
ordering) and live on bitmasks: each side is a vertex mask, and each left
vertex with a crossing edge keeps its right neighbours' mask, read off the
graph's cached adjacency masks.  Maximum matching (Kuhn's augmenting paths)
returns the matched (left, right) pairs, and minimum vertex cover (König's
alternating reachability) returns a vertex mask.  All tie-breaking is by
ascending vertex id (lowest bit first) so results are reproducible.  This
matching covers the residual cuts of the settled covers and serves
`lbound.witness_cut`; no cut size is read from it.  `width.cut_sizes` takes
each prefix cut's size from one bitmask matching (`width._CutMatching`)
repaired as each vertex crosses the cut, `matching_width_exact` sizes each
cut it reaches from scratch with `_CutMatching.size_of`, and pathwidth uses
no matching at all.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import FormatError, InputError, InvariantViolationError, int_token, read_records


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1; `edges` holds each edge
    as (u, v) with u < v, sorted ascending."""

    n: int
    edges: tuple[tuple[int, int], ...]

    # Hashed once: every `adjacency_masks` lookup, one per cut in `cut_graph`,
    # would otherwise rehash the whole edge tuple.
    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.n, self.edges))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def make(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise InputError(f"vertex count must be non-negative, got {n}")
        normed = {}  # insertion-ordered, so already sorted input sorts in one pass
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            e = (u, v) if u < v else (v, u)
            if e in normed:
                raise InputError(f"duplicate edge {e}")
            normed[e] = None
        return Graph(n, tuple(sorted(normed)))

    def vertices(self) -> range:
        return range(self.n)


# Every CLI command works on one graph, so a few entries serve it; a bound
# keeps a long-lived process that sees many graphs from holding them all.
# `cut_graph` looks the masks up once per cut; a graph hashes its edges only
# once (`Graph._hash`), so a lookup costs no pass over them.
@functools.lru_cache(maxsize=8)
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


@dataclass(frozen=True)
class CutGraph:
    """Bipartite graph of the edges crossing a prefix/suffix partition.

    `left` and `right` are the two sides as vertex bitmasks; `nbrs` maps
    each left vertex with a crossing edge to its right neighbours' bitmask.
    """

    left: int
    right: int
    nbrs: dict[int, int]


def cut_graph(g: Graph, sv: Ordering, i: int) -> CutGraph:
    """Crossing edges between the first i vertices of sv and the rest."""
    n = g.n
    if len(sv) != n:
        raise InputError("ordering length does not match graph")
    if not 1 <= i <= n - 1:
        raise InputError(f"prefix length {i} outside 1..{n - 1}")
    adj = adjacency_masks(g)
    prefix = sv.seq[:i]
    # The left mask in binary, highest bit first, so bit u is digit ~u: one
    # parse of n digits instead of a fresh n-bit int per prefix vertex.
    digits = bytearray(b"0") * n
    for u in prefix:
        digits[~u] = 49  # ord("1")
    left = int(digits, 2)
    right = ((1 << n) - 1) ^ left
    return CutGraph(left, right, {u: a for u in prefix if (a := adj[u] & right)})


def max_bipartite_matching(c: CutGraph) -> frozenset[tuple[int, int]]:
    """Maximum matching of a cut graph, as its (left, right) pairs.

    Kuhn's augmenting paths from the left vertices in ascending order, each
    explored depth-first with an explicit stack, so the result is
    deterministic for a fixed input and path length is not bounded by the
    recursion limit.  A path vertex tries its lowest unvisited neighbour bit
    next; every tried neighbour is marked visited, so that is the next one
    in ascending order.  A failed search changes nothing and its visited
    right vertices reach no free one, so they stay visited until the next
    augmentation.
    """
    adj = c.nbrs
    everything = unvisited = c.right
    match_right: dict[int, int] = {}
    for u in sorted(adj):
        # The path's left vertices, and the right ones between and after them.
        path, via = [u], []
        while path:
            free = adj[path[-1]] & unvisited
            if not free:
                path.pop()
                del via[-1:]
                continue
            low = free & -free
            unvisited ^= low
            v = low.bit_length() - 1
            via.append(v)
            x = match_right.get(v)
            if x is None:  # augment: each via vertex takes the left one before it
                match_right.update(zip(via, path))
                unvisited = everything
                break
            path.append(x)
    return frozenset((u, v) for v, u in match_right.items())


def min_vertex_cover_bipartite(c: CutGraph, m: frozenset[tuple[int, int]]) -> int:
    """Minimum vertex cover, as a bitmask, from a maximum matching
    (alternating reachability).

    Starts from unmatched left vertices, walks non-matching edges left to
    right and matching edges right to left; the cover is the unreached
    left vertices plus the reached right vertices.  A reached left vertex
    is free or was entered through its matching edge, whose right end is
    already reached, so each step adds its unreached neighbour bits whole.
    """
    adj = c.nbrs
    match_right = {v: u for u, v in m}
    matched = {u for u, _ in m}
    frontier = [u for u in adj if u not in matched]
    reach_left = sum(1 << u for u in frontier)
    reach_right = 0
    while frontier:
        fresh = adj[frontier.pop()] & ~reach_right
        reach_right |= fresh
        for v in iter_bits(fresh):
            w = match_right.get(v)
            if w is not None and not reach_left >> w & 1:
                reach_left |= 1 << w
                frontier.append(w)
    cover = reach_right | sum(1 << u for u in adj if not reach_left >> u & 1)
    for u, nbrs in adj.items():
        bare = nbrs & ~reach_right
        if bare and not cover >> u & 1:
            raise InvariantViolationError(
                f"edge ({u},{(bare & -bare).bit_length() - 1}) left uncovered"
            )
    if cover.bit_count() != len(m):
        raise InvariantViolationError(
            f"cover size {cover.bit_count()} != matching size {len(m)}; matching not maximum?"
        )
    return cover


# --- DIMACS graph format ("p edge n m", "e u v", 1-based on disk) ---

DIMACS_GRAPH_HEADER = "c widthlab graph format v1 (DIMACS edge)"


def format_dimacs_graph(g: Graph, comments: Iterable[str] = ()) -> str:
    lines = [DIMACS_GRAPH_HEADER]
    lines.extend(f"c {c}" for c in comments)
    lines.append(f"p edge {g.n} {len(g.edges)}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_dimacs_graph(text: str) -> Graph:
    p_line, (n, declared), records = read_records(text, "p edge", "n m")
    if n < 0:
        raise FormatError(f"{p_line}: negative vertex count {n}")
    if declared < 0:
        raise FormatError(f"{p_line}: negative edge count {declared}")
    edges: dict[tuple[int, int], None] = {}  # in file order, so a sorted file sorts in one pass
    for where, parts in records:
        if parts[0] != "e":
            raise FormatError(f"{where}: unrecognized line {' '.join(parts)!r}")
        if len(parts) != 3:
            raise FormatError(f"{where}: expected 'e u v'")
        u, v = int_token(parts[1], where), int_token(parts[2], where)
        if not (0 < u <= n and 0 < v <= n):
            raise FormatError(f"{where}: vertex {v if 0 < u <= n else u} outside 1..{n}")
        if u == v:
            raise FormatError(f"{where}: self-loop at vertex {u}")
        e = (u - 1, v - 1) if u < v else (v - 1, u - 1)
        if e in edges:
            raise FormatError(f"{where}: duplicate edge '{u} {v}'")
        edges[e] = None
    if len(edges) != declared:
        raise FormatError(f"{p_line}: declares {declared} edges, found {len(edges)}")
    return Graph(n, tuple(sorted(edges)))


def iter_bits(mask: int) -> Iterator[int]:
    """Set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
