"""Matching width, pathwidth and settled vertex-cover chains.

Matching width of an ordering is the maximum, over proper nonempty
prefixes, of the maximum matching size of the prefix cut.  The
graph-level value minimizes over all orderings; because the cut value
depends only on the prefix *set*, the minimization is the prefix-set DP
`graph.prefix_set_dp` (max of costs) rather than a factorial enumeration.
Pathwidth is computed the same way via vertex separation (the cost of a
prefix set is the number of its vertices with a neighbor outside).

Cut matchings are never rebuilt.  `_CutMatching` keeps one maximum matching
on bitmasks while vertices cross the cut one at a time, and repairs it after
each move with at most two iterative alternating searches, so its size moves
by at most 1 per step.  `mw_of_ordering` moves the ordering's vertices in
turn.  `matching_width_exact` fills all 2^n cut sizes with a Gray-code walk
over the 2^(n-1) masks that leave vertex n-1 on the suffix side: a cut and
its complement have the same matching, so each step fills both entries.  The
vertex-separation costs of all masks come from one numpy pass per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, InvariantViolationError
from .graph import (
    CutGraph,
    Graph,
    Ordering,
    VertexCover,
    adjacency_masks,
    cut_graph,
    iter_bits,
    max_bipartite_matching,
    min_vertex_cover_bipartite,
    prefix_set_dp,
)

DEFAULT_SUBSET_DP_CAP = 20


@dataclass(frozen=True)
class WidthReport:
    value: int
    witness_ordering: Ordering | None = None
    witness_prefix: int | None = None


@dataclass(frozen=True)
class SettledChain:
    """Minimum covers VC_1..VC_{n-1} of the successive cuts of an ordering,
    where each cover's suffix-side vertices carry over into the next cover."""

    covers: tuple[VertexCover, ...]


@dataclass(frozen=True)
class MinVcResult:
    cover: VertexCover
    is_minimum: bool


class _CutMatching:
    """One maximum matching of the cut (mask, full ^ mask), kept maximum while
    vertices change sides one at a time.

    Moving v drops v's matched pair, if any; v and its former mate w then sit
    on the same side.  Every augmenting path of the rest of the old (maximum)
    matching ends at v or at w, and a vertex without an augmenting path keeps
    none after an augmentation (Berge; Kuhn's one-pass argument), so one
    alternating search from w and one from v restore a maximum matching.  The
    size therefore moves by at most 1 per step.
    """

    __slots__ = ("adj", "full", "mask", "mate", "parent", "size")

    def __init__(self, adj: tuple[int, ...]) -> None:
        self.adj = adj
        self.full = (1 << len(adj)) - 1
        self.mask = 0
        self.mate = [-1] * len(adj)
        self.parent = [-1] * len(adj)
        self.size = 0

    def move(self, v: int) -> int:
        """Move v to the other side of the cut; returns the repaired matching's size."""
        self.mask ^= 1 << v
        mate = self.mate
        w = mate[v]
        if w >= 0:
            mate[v] = mate[w] = -1
            self.size -= 1
            self._augment(w)
        self._augment(v)
        return self.size

    def _augment(self, x: int) -> None:
        """Augment along one alternating path from the free vertex x, if any."""
        adj, mate, parent = self.adj, self.mate, self.parent
        other = self.full ^ self.mask if self.mask >> x & 1 else self.mask
        visited = 0
        stack = [x]
        while stack:
            u = stack.pop()
            fresh = adj[u] & other & ~visited
            visited |= fresh
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                y = low.bit_length() - 1
                parent[y] = u
                z = mate[y]
                if z >= 0:
                    stack.append(z)
                    continue
                while True:  # flip the path y, parent[y], mate[parent[y]], ...
                    u = parent[y]
                    nxt = mate[u]
                    mate[u], mate[y] = y, u
                    if u == x:
                        self.size += 1
                        return
                    y = nxt


def mw_of_ordering(g: Graph, sv: Ordering) -> WidthReport:
    """Max over prefixes 1..n-1 of the cut's maximum matching size."""
    if len(sv) != g.n:
        raise InputError("ordering length does not match graph")
    cut = _CutMatching(adjacency_masks(g))
    best, best_i = 0, None
    for i, v in enumerate(sv.seq[: g.n - 1], 1):
        nu = cut.move(v)
        if best_i is None or nu > best:
            best, best_i = nu, i
    return WidthReport(value=best, witness_ordering=sv, witness_prefix=best_i)


def _separation_boundary(adj: tuple[int, ...], mask: int) -> int:
    """Vertices of mask with a neighbor outside it, as a bitmask."""
    out = 0
    for v in iter_bits(mask):
        if adj[v] & ~mask:
            out |= 1 << v
    return out


def _matching_costs(adj: tuple[int, ...]) -> list[int]:
    """Maximum matching size of every cut (s, full ^ s), s over all 2^n masks.

    A Gray-code walk over the 2^(n-1) masks that keep vertex n-1 on the
    suffix side moves one vertex per step, so the matching is repaired, not
    rebuilt; a cut and its complement share their matching, so each step
    fills cost[s] and cost[full ^ s].
    """
    n = len(adj)
    cost = [0] * (1 << n)
    if n < 2:
        return cost
    full = (1 << n) - 1
    cut = _CutMatching(adj)
    mask = 0
    for i in range(1, 1 << (n - 1)):
        v = (i & -i).bit_length() - 1
        mask ^= 1 << v
        cost[mask] = cost[full ^ mask] = cut.move(v)
    return cost


def _separation_costs(adj: tuple[int, ...]) -> np.ndarray:
    """Vertex-separation boundary size of every mask s over all 2^n masks:
    the sum over v of [v in s] * [adj[v] & ~s != 0], one numpy pass per v."""
    s = np.arange(1 << len(adj), dtype=np.int64)
    cost = np.zeros_like(s)
    for v, nbrs in enumerate(adj):
        cost += (s >> v & 1) & ((nbrs & ~s) != 0)
    return cost


def _exact_width(g: Graph, cost_table, cap: int, what: str) -> WidthReport:
    """Minimize, over orderings, the max of cost over proper nonempty prefixes,
    with the lexicographically smallest optimal ordering as witness."""
    n = g.n
    if n > cap:
        raise CapacityError(f"{what}: n={n} exceeds subset DP cap {cap}")
    cost = cost_table(adjacency_masks(g))
    value, seq = prefix_set_dp(cost, np.maximum)
    prefix = None
    mask = 0
    for i in range(1, n):
        mask |= 1 << seq[i - 1]
        if cost[mask] == value:
            prefix = i
            break
    return WidthReport(value=value, witness_ordering=Ordering(seq), witness_prefix=prefix)


def matching_width_exact(g: Graph, cap: int = DEFAULT_SUBSET_DP_CAP) -> WidthReport:
    """Exact matching width with a witness ordering (prefix-set DP over the
    Gray-walk cut matching sizes)."""
    return _exact_width(g, _matching_costs, cap, "matching width")


def pathwidth_exact(g: Graph, cap: int = DEFAULT_SUBSET_DP_CAP) -> WidthReport:
    """Exact pathwidth via vertex separation: the cost of a prefix set is the
    number of its vertices with a neighbor outside it."""
    return _exact_width(g, _separation_costs, cap, "pathwidth")


def _drop_vertices(c: CutGraph, x: frozenset[int]) -> CutGraph:
    return CutGraph(
        left=c.left - x,
        right=c.right - x,
        edges=frozenset(e for e in c.edges if e[0] not in x and e[1] not in x),
    )


def min_vc_containing(c: CutGraph, x: frozenset[int]) -> MinVcResult:
    """x united with a minimum cover of the cut minus x.

    The result is a cover of c; it is a *minimum* one exactly when its size
    equals the cut's maximum matching size, reported via is_minimum.
    """
    if not x <= (c.left | c.right):
        raise InputError("required set contains vertices outside the cut graph")
    residual = _drop_vertices(c, x)
    sub_cover = min_vertex_cover_bipartite(residual, max_bipartite_matching(residual))
    cover = VertexCover(x | sub_cover.verts)
    tau = len(max_bipartite_matching(c))
    return MinVcResult(cover=cover, is_minimum=len(cover) == tau)


def settled_vertex_covers(g: Graph, sv: Ordering) -> SettledChain:
    """Chain of minimum covers of the successive cuts in which each cover's
    suffix-side part is carried into the next cover.

    Each step extends the carried-over set to a minimum cover of the next
    cut; extendability is guaranteed, so a failed minimality check is an
    implementation bug.
    """
    if len(sv) != g.n:
        raise InputError("ordering length does not match graph")
    n = g.n
    covers: list[VertexCover] = []
    for i in range(1, n):
        ci = cut_graph(g, sv, i)
        if i == 1:
            vc = min_vertex_cover_bipartite(ci, max_bipartite_matching(ci))
        else:
            carry = covers[-1].verts & frozenset(sv.seq[i:])
            res = min_vc_containing(ci, carry)
            if not res.is_minimum:
                raise InvariantViolationError(
                    f"carried-over cover not extendable to a minimum cover at prefix {i}"
                )
            vc = res.cover
        covers.append(vc)
    return SettledChain(covers=tuple(covers))
