"""Matching width, pathwidth and settled vertex-cover chains.

Both widths minimise, over orderings, the maximum cost of the proper
prefixes: the maximum matching size of the prefix cut for matching width,
the number of the prefix's vertices with a neighbour outside it (vertex
separation) for pathwidth.  The cost depends only on the prefix *set*, so
one minimax search over prefix sets, `_minimax_search`, serves both; it
costs only the sets it reaches.  On sparse graphs that is few of them:
pathwidth takes 8-10 ms on the 4x5 grid, against 0.41-0.48 s for a numpy
table of all 2^n costs.  On dense graphs nearly every set is reached and
the table is faster: 0.36-0.44 s against the search's 1.7-2.1 s on
`random_graph(20, .6, 1)` (Python 3.11, shared 2-vCPU Xeon VM).

Cut matchings live on bitmasks in one class, `_CutMatching`.  It keeps one
maximum matching while vertices cross the cut one at a time, repairing it
after each move with at most two iterative alternating searches, so its size
moves by at most 1 per step; `cut_sizes` moves an ordering's vertices in
turn for `mw_of_ordering`, `lbound.witness_cut` and `settled_vertex_covers`,
which checks each cover against its cut's size τ.  It also sizes a given
cut from scratch, which is how `matching_width_exact` reads its costs.

A settled cover is a vertex bitmask: the carried-over vertices plus the
König cover of the rest of the cut, whose `graph.CutGraph` is built afresh
for each cut by one pass over the prefix's cached adjacency masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import CapacityError, InputError, InvariantViolationError
from .graph import (
    CutGraph,
    Graph,
    Ordering,
    adjacency_masks,
    cut_graph,
    max_bipartite_matching,
    min_vertex_cover_bipartite,
)

DEFAULT_SUBSET_DP_CAP = 20


@dataclass(frozen=True)
class WidthReport:
    value: int
    witness_ordering: Ordering | None = None
    witness_prefix: int | None = None


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

    def size_of(self, mask: int) -> int:
        """Maximum matching size of the cut (mask, full ^ mask), from scratch:
        a greedy pass over the smaller side, then one alternating search from
        each of its vertices left free (one pass suffices, as in `move`)."""
        adj, full = self.adj, self.full
        self.mask = mask
        self.mate = mate = [-1] * len(adj)
        small = mask if mask.bit_count() * 2 <= len(adj) else full ^ mask
        free = full ^ small
        size = 0
        unmatched = []
        while small:
            low = small & -small
            small ^= low
            u = low.bit_length() - 1
            nbrs = adj[u] & free
            if nbrs:
                y = nbrs & -nbrs
                free ^= y
                w = y.bit_length() - 1
                mate[u] = w
                mate[w] = u
                size += 1
            else:
                unmatched.append(u)
        self.size = size
        for u in unmatched:
            self._augment(u)
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


def cut_sizes(g: Graph, sv: Ordering) -> tuple[int, ...]:
    """The matching sizes of sv's prefix cuts 1..n-1, from one `_CutMatching`."""
    if len(sv) != g.n:
        raise InputError("ordering length does not match graph")
    cut = _CutMatching(adjacency_masks(g))
    return tuple(cut.move(v) for v in sv.seq[: g.n - 1])


def mw_of_ordering(g: Graph, sv: Ordering) -> WidthReport:
    """Max over prefixes 1..n-1 of the cut's maximum matching size."""
    sizes = cut_sizes(g, sv)
    best = max(sizes, default=0)
    return WidthReport(best, sv, sizes.index(best) + 1 if sizes else None)


def _boundary(adj: tuple[int, ...]) -> Callable[[int], int]:
    """boundary(t): the vertices of t with a neighbour outside t, as a bitmask.

    It is t & nbr(full ^ t), where nbr(x), the union of the neighbourhoods
    of x's vertices, is read from two tables of about 2^(n/2) entries: one
    over the subsets of the low half of the vertices, one over the high half.
    """
    h = len(adj) // 2
    full, low = (1 << len(adj)) - 1, (1 << h) - 1
    lo, hi = [0], [0]
    for a in adj[:h]:
        lo += [x | a for x in lo]
    for a in adj[h:]:
        hi += [x | a for x in hi]

    def boundary(t: int) -> int:
        x = full ^ t
        return t & (lo[x & low] | hi[x >> h])

    return boundary


def _minimax_search(
    n: int, cost: Callable[[int], int], k: int, bound: Sequence[int]
) -> WidthReport:
    """Min over orderings of n items of the max cost of their proper prefix
    sets, with the lexicographically smallest optimal ordering as witness and
    its first prefix whose set attains the value.

    k starts at a lower bound on the value; bound[i] bounds the cost of every
    set of i items, and cost(full) is 0.  A positive-instance-driven search
    (Tamaki, ESA 2017) grows the sets reachable from the empty set through
    sets of cost at most k, and keeps each costlier set waiting under its
    cost; when nothing more is reachable, k rises to the smallest waiting
    cost.  The first k at which the full set is reached is the value.  A DFS
    at that k, smallest item first, marking sets that cannot complete as
    dead, then finds the witness the table DP over all 2^n costs would take.
    The search passes a set whose bound is at most k without costing it,
    and no set is costed twice.
    """
    full = (1 << n) - 1
    costed = bytearray(1 << n)  # cost + 1 of each set costed so far, else 0
    seen = bytearray(1 << n)
    seen[0] = 1
    stack = [0]
    waiting: dict[int, list[int]] = {}
    while not seen[full]:
        if not stack:
            k = min(waiting)
            stack = waiting.pop(k)
        s = stack.pop()
        rest = full ^ s
        while rest:
            low = rest & -rest
            rest ^= low
            t = s | low
            if seen[t]:
                continue
            seen[t] = 1
            if bound[t.bit_count()] <= k:
                stack.append(t)
                continue
            c = cost(t)
            costed[t] = c + 1
            if c <= k:
                stack.append(t)
            else:
                waiting.setdefault(c, []).append(t)

    dead = bytearray(1 << n)
    path = [0]
    untried = [full]  # per depth, the items not yet tried as the next one
    while path[-1] != full:
        s = path[-1]
        rest = untried[-1]
        while rest:
            low = rest & -rest
            rest ^= low
            t = s | low
            if dead[t]:
                continue
            if not costed[t]:
                costed[t] = cost(t) + 1
            if costed[t] <= k + 1:
                break
        else:
            dead[s] = 1
            path.pop()
            untried.pop()
            continue
        untried[-1] = rest
        path.append(t)
        untried.append(full ^ t)
    seq = tuple((t ^ s).bit_length() - 1 for s, t in zip(path, path[1:]))
    prefix = next((i for i in range(1, n) if costed[path[i]] == k + 1), None)
    return WidthReport(value=k, witness_ordering=Ordering(seq), witness_prefix=prefix)


def matching_width_exact(g: Graph, cap: int = DEFAULT_SUBSET_DP_CAP) -> WidthReport:
    """Exact matching width by `_minimax_search` over cut matching sizes.

    (min degree + 1) // 2 is a lower bound: a prefix P of that size leaves
    each of its vertices at least as many neighbours outside P, so a maximal
    matching of the cut covers P or has at least that many edges.  A cut of
    a set of i vertices has at most min(i, n - i) edges in a matching.
    """
    n = g.n
    if n > cap:
        raise CapacityError(f"matching width: n={n} exceeds subset DP cap {cap}")
    adj = adjacency_masks(g)
    k = (min(map(int.bit_count, adj), default=0) + 1) // 2
    return _minimax_search(
        n, _CutMatching(adj).size_of, k, [min(i, n - i) for i in range(n + 1)]
    )


def pathwidth_exact(g: Graph, cap: int = DEFAULT_SUBSET_DP_CAP) -> WidthReport:
    """Exact pathwidth by `_minimax_search` over vertex-separation boundary
    sizes.  The minimum degree is a lower bound (pathwidth is at least
    treewidth, which is at least the minimum degree), and a set of i
    vertices has at most i in its boundary."""
    n = g.n
    if n > cap:
        raise CapacityError(f"pathwidth: n={n} exceeds subset DP cap {cap}")
    adj = adjacency_masks(g)
    boundary = _boundary(adj)
    k = min(map(int.bit_count, adj), default=0)
    return _minimax_search(n, lambda t: boundary(t).bit_count(), k, range(n + 1))


def min_vc_containing(c: CutGraph, x: int) -> int:
    """The vertex mask x united with a minimum cover of the cut minus x.

    The result is a cover of c; it is a *minimum* one exactly when its size
    equals the cut's maximum matching size, which the caller knows.
    """
    if x & ~(c.left | c.right):
        raise InputError("required set contains vertices outside the cut graph")
    keep = ~x
    residual = CutGraph(
        c.left & keep,
        c.right & keep,
        {u: a for u, nbrs in c.nbrs.items() if not x >> u & 1 and (a := nbrs & keep)},
    )
    return x | min_vertex_cover_bipartite(residual, max_bipartite_matching(residual))


def settled_vertex_covers(g: Graph, sv: Ordering) -> tuple[int, ...]:
    """Minimum covers VC_1..VC_{n-1} of the successive cuts of an ordering,
    as vertex bitmasks, in which each cover's suffix-side part is carried
    into the next cover.

    `cut_sizes` gives each cut's minimum cover size τ.  Each step extends the
    carried-over set to a cover of the next cut; extendability to a minimum
    one is guaranteed, so a cover larger than τ is an implementation bug.
    """
    covers = []
    vc = 0
    for i, tau in enumerate(cut_sizes(g, sv), 1):
        ci = cut_graph(g, sv, i)
        vc = min_vc_containing(ci, vc & ci.right)
        if vc.bit_count() != tau:
            raise InvariantViolationError(
                f"carried-over cover not extendable to a minimum cover at prefix {i}"
            )
        covers.append(vc)
    return tuple(covers)
