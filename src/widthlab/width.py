"""Matching width, pathwidth and settled vertex-cover chains.

Matching width of an ordering is the maximum, over proper nonempty
prefixes, of the maximum matching size of the prefix cut.  The
graph-level value minimizes over all orderings; because the cut value
depends only on the prefix *set*, the minimization is the prefix-set DP
`graph.prefix_set_dp` (max of costs) rather than a factorial enumeration.
Pathwidth is computed the same way via vertex separation (the cost of a
prefix set is the number of its vertices with a neighbor outside).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, InputError, InvariantViolationError
from .graph import (
    CutGraph,
    Graph,
    Matching,
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


def _cut_matching_size(adj: tuple[int, ...], left_mask: int) -> int:
    """Maximum matching size of the cut between left_mask and its complement."""
    match_right: dict[int, int] = {}

    def augment(u: int, visited: set[int]) -> bool:
        for v in iter_bits(adj[u] & ~left_mask):
            if v in visited:
                continue
            visited.add(v)
            if v not in match_right or augment(match_right[v], visited):
                match_right[v] = u
                return True
        return False

    size = 0
    for u in iter_bits(left_mask):
        if adj[u] & ~left_mask and augment(u, set()):
            size += 1
    return size


def mw_of_ordering(g: Graph, sv: Ordering) -> WidthReport:
    """Max over prefixes 1..n-1 of the cut's maximum matching size."""
    if len(sv) != g.n:
        raise InputError("ordering length does not match graph")
    adj = adjacency_masks(g)
    best, best_i = 0, None
    mask = 0
    for i in range(1, g.n):
        mask |= 1 << sv.seq[i - 1]
        nu = _cut_matching_size(adj, mask)
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


def _exact_width(g: Graph, cost_of_mask, cap: int, what: str) -> WidthReport:
    """Minimize, over orderings, the max of cost over proper nonempty prefixes,
    with the lexicographically smallest optimal ordering as witness."""
    n = g.n
    if n > cap:
        raise CapacityError(f"{what}: n={n} exceeds subset DP cap {cap}")
    cost = [cost_of_mask(mask) for mask in range(1 << n)]
    value, seq = prefix_set_dp(cost, max)
    prefix = None
    mask = 0
    for i in range(1, n):
        mask |= 1 << seq[i - 1]
        if cost[mask] == value:
            prefix = i
            break
    return WidthReport(value=value, witness_ordering=Ordering(seq), witness_prefix=prefix)


def matching_width_exact(g: Graph, cap: int = DEFAULT_SUBSET_DP_CAP) -> WidthReport:
    """Exact matching width with a witness ordering (prefix-set DP)."""
    adj = adjacency_masks(g)
    return _exact_width(g, lambda m: _cut_matching_size(adj, m), cap, "matching width")


def pathwidth_exact(g: Graph, cap: int = DEFAULT_SUBSET_DP_CAP) -> WidthReport:
    """Exact pathwidth via vertex separation: the cost of a prefix set is the
    number of its vertices with a neighbor outside it."""
    adj = adjacency_masks(g)
    return _exact_width(
        g, lambda m: _separation_boundary(adj, m).bit_count(), cap, "pathwidth"
    )


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
