"""Brute-force reference implementations used only by the tests.

Everything here is deliberately naive: enumeration over edge subsets,
vertex subsets, whole permutations or all root-leaf edge sequences, a
minimax table DP over all 2^n prefix-set costs, and OBDD levels keyed by
whole truth-table rows.  None of it shares code with the library beyond
the Graph, CutGraph, TreeDecomposition and BranchingProgram containers and
Cnf.evaluate, except two functions: `matching_costs` fills the table of all
cut sizes by walking `width._CutMatching.move` along a Gray code, a path
apart from the from-scratch sizing the search uses, and
`optimal_path_decomposition` takes its layout from `pathwidth_exact` but
builds its bags by neighbour scans.  Paths are tuples of indices into a
program's edge arrays, which the container keeps in canonical order, so
plain tuple comparison orders them.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

import numpy as np

from widthlab.bprog import BranchingProgram
from widthlab.decomposition import TreeDecomposition
from widthlab.graph import Graph, adjacency_masks
from widthlab.width import _CutMatching, pathwidth_exact


def neighbours(g: Graph, v: int) -> set[int]:
    """The vertices sharing an edge with v, by a scan over all edges."""
    return {b if a == v else a for a, b in g.edges if v in (a, b)}


def brute_max_matching(edges) -> int:
    """Maximum matching size by branching over every edge."""
    edges = list(edges)

    def go(i: int, used: frozenset) -> int:
        if i == len(edges):
            return 0
        best = go(i + 1, used)
        u, v = edges[i]
        if u not in used and v not in used:
            best = max(best, 1 + go(i + 1, used | {u, v}))
        return best

    return go(0, frozenset())


def brute_min_vertex_cover(edges) -> int:
    """Minimum vertex cover size by enumerating subsets ascending by size."""
    edges = list(edges)
    verts = sorted({v for e in edges for v in e})
    for size in range(len(verts) + 1):
        for sub in combinations(verts, size):
            s = set(sub)
            if all(u in s or v in s for u, v in edges):
                return size
    return 0


def crossing_edges(g: Graph, left: set[int]) -> list[tuple[int, int]]:
    return [e for e in g.edges if (e[0] in left) != (e[1] in left)]


def cut_edges(c) -> frozenset:
    """The crossing (left, right) pairs of a cut graph, read bit by bit off
    its neighbour masks, for the frozenset oracles."""
    return frozenset(
        (u, v) for u, nbrs in c.nbrs.items() for v in range(nbrs.bit_length()) if nbrs >> v & 1
    )


def matching_costs(g: Graph) -> list[int]:
    """Maximum matching size of every cut (s, full ^ s), s over all 2^n masks.

    A Gray-code walk over the 2^(n-1) masks that keep vertex n-1 on the
    suffix side moves one vertex per step, so the matching is repaired, not
    rebuilt; a cut and its complement share their matching, so each step
    fills cost[s] and cost[full ^ s].
    """
    n = g.n
    cost = [0] * (1 << n)
    if n < 2:
        return cost
    full = (1 << n) - 1
    cut = _CutMatching(adjacency_masks(g))
    mask = 0
    for i in range(1, 1 << (n - 1)):
        v = (i & -i).bit_length() - 1
        mask ^= 1 << v
        cost[mask] = cost[full ^ mask] = cut.move(v)
    return cost


def separation_costs(g: Graph) -> list[int]:
    """Number of vertices of s with a neighbour outside s, for all 2^n masks
    s, by a scan over s's vertices."""
    nbrs = [sum(1 << w for w in neighbours(g, v)) for v in range(g.n)]
    return [
        sum(1 for v in range(g.n) if s >> v & 1 and nbrs[v] & ~s) for s in range(1 << g.n)
    ]


def optimal_path_decomposition(g: Graph) -> TreeDecomposition:
    """A minimum-width path decomposition from `pathwidth_exact`'s optimal
    vertex separation layout: bag i holds the i-th vertex plus the earlier
    vertices with a neighbour outside the first i, found by a scan per vertex."""
    seq = pathwidth_exact(g).witness_ordering
    bags = []
    for i, v in enumerate(seq):
        before = set(seq[:i])
        bags.append(frozenset({v} | {u for u in before if neighbours(g, u) - before}))
    return TreeDecomposition.path(bags)


def brute_matching_width(g: Graph) -> tuple[int, tuple[int, ...]]:
    """min over all n! orderings of max over prefixes of the cut matching,
    with the lexicographically smallest optimal ordering."""
    n = g.n
    nu: dict[frozenset, int] = {}

    def cut_nu(left: frozenset) -> int:
        if left not in nu:
            nu[left] = brute_max_matching(crossing_edges(g, left))
        return nu[left]

    best = None
    for perm in permutations(range(n)):
        worst = 0
        for i in range(1, n):
            worst = max(worst, cut_nu(frozenset(perm[:i])))
            if best is not None and worst >= best[0]:
                break
        if best is None or worst < best[0]:
            best = (worst, perm)
    return best


def brute_pathwidth(g: Graph) -> tuple[int, tuple[int, ...]]:
    """min over all n! layouts of the max vertex-separation boundary, with
    the lexicographically smallest optimal layout."""
    best = None
    for perm in permutations(range(g.n)):
        worst = 0
        placed: set[int] = set()
        for v in perm:
            placed.add(v)
            boundary = sum(
                1 for u in placed if any(w not in placed for w in neighbours(g, u))
            )
            worst = max(worst, boundary)
        if best is None or worst < best[0]:
            best = (worst, perm)
    # Boundary of the full set is 0 but every bag also holds the new vertex,
    # so pathwidth is the max boundary taken just before each placement.
    return best


def brute_prefix_set_dp(cost, combine) -> tuple[int, tuple[int, ...]]:
    """min over all n! orderings of cost folded by combine (max or +) over
    the ordering's prefix sets 1..n, starting from 0, with the
    lexicographically smallest optimal ordering; len(cost) == 2^n."""
    n = (len(cost) - 1).bit_length()
    best = None
    for perm in permutations(range(n)):
        total, placed = 0, 0
        for v in perm:
            placed |= 1 << v
            total = combine(total, cost[placed])
        if best is None or total < best[0]:
            best = (total, perm)
    return best


def table_minimax(cost) -> tuple[int, tuple[int, ...]]:
    """min over orderings of the max cost over their prefix sets, by the table
    DP over all 2^n sets (Bodlaender, Fomin, Koster, Kratsch & Thilikos, ToCS
    2012), with the lexicographically smallest optimal ordering; len(cost) ==
    2^n and cost[2^n - 1] == 0.

    h[s] = min over v outside s of max(cost[s|v], h[s|v]), filled for s
    descending, as s|v > s.  The witness adds, from the empty set, the
    smallest v whose set t keeps max(acc, cost[t], h[t]) at the optimum.
    """
    full = len(cost) - 1
    n = full.bit_length()
    h = [0] * (full + 1)
    for s in range(full - 1, -1, -1):
        h[s] = min(
            max(cost[s | 1 << v], h[s | 1 << v]) for v in range(n) if not s >> v & 1
        )
    order: list[int] = []
    s = acc = 0
    while s != full:
        v = next(
            v for v in range(n)
            if not s >> v & 1 and max(acc, cost[s | 1 << v], h[s | 1 << v]) <= h[0]
        )
        order.append(v)
        s |= 1 << v
        acc = max(acc, cost[s])
    return h[0], tuple(order)


def brute_min_segments(positions) -> int:
    """Minimum partition into contiguous strictly-increasing runs (DP)."""
    n = len(positions)
    if n == 0:
        return 1
    INF = n + 1
    best = [INF] * (n + 1)
    best[0] = 0
    for end in range(1, n + 1):
        for start in range(end):
            run = positions[start:end]
            if all(run[j] < run[j + 1] for j in range(len(run) - 1)):
                best[end] = min(best[end], best[start] + 1)
    return best[n]


def clause_scan_satisfies(f, assignment) -> bool:
    """Literal-by-literal clause scan, written independently of Cnf.evaluate."""
    for clause in f.clauses:
        hit = False
        for s in clause:
            val = assignment[abs(s) - 1]
            if (val and s > 0) or (not val and s < 0):
                hit = True
                break
        if not hit:
            return False
    return True


def brute_subfunction_count(f, subset) -> int:
    """Distinct non-constant residuals of f over the assignments of subset,
    each residual tabulated by evaluating f on every completion."""
    subset = list(subset)
    rest = [v for v in range(f.num_vars) if v not in subset]
    residuals = set()
    for fixed in product((False, True), repeat=len(subset)):
        table = []
        for free in product((False, True), repeat=len(rest)):
            assignment = [False] * f.num_vars
            for v, value in zip(subset, fixed):
                assignment[v] = value
            for v, value in zip(rest, free):
                assignment[v] = value
            table.append(f.evaluate(assignment))
        if any(table) and not all(table):
            residuals.add(tuple(table))
    return len(residuals)


def brute_min_obdd(f) -> tuple[int, tuple[int, ...]]:
    """Minimum OBDD size over all m! variable orders, with the
    lexicographically smallest optimal order.  An order's size is the two
    terminals plus, per level, the residual count of the variables before it."""
    counts: dict[frozenset, int] = {}

    def count(prefix) -> int:
        key = frozenset(prefix)
        if key not in counts:
            counts[key] = brute_subfunction_count(f, sorted(key))
        return counts[key]

    best = None
    for perm in permutations(range(f.num_vars)):
        size = 2 + sum(count(perm[:i]) for i in range(f.num_vars))
        if best is None or size < best[0]:
            best = (size, perm)
    return best


def brute_truth_table(f, order) -> list[bool]:
    """f evaluated on every assignment; in entry i, order[j] takes bit j of
    i counted from the most significant of len(order) bits."""
    m = len(order)
    table = []
    for i in range(1 << m):
        assignment = [False] * f.num_vars
        for j, v in enumerate(order):
            assignment[v] = bool((i >> (m - 1 - j)) & 1)
        table.append(f.evaluate(assignment))
    return table


def recursive_kuhn_pairs(edges) -> frozenset:
    """Kuhn's augmenting-path matching of oriented (left, right) edges, by
    plain recursion: left vertices ascending, each search trying neighbours
    in ascending order with a fresh visited set."""
    adj: dict = {}
    for u, v in sorted(edges):
        adj.setdefault(u, []).append(v)
    match_right: dict = {}

    def augment(u, visited) -> bool:
        for v in adj[u]:
            if v not in visited:
                visited.add(v)
                if v not in match_right or augment(match_right[v], visited):
                    match_right[v] = u
                    return True
        return False

    for u in sorted(adj):
        augment(u, set())
    return frozenset((u, v) for v, u in match_right.items())


def per_prefix_witness(g: Graph, sv, t: int):
    """(prefix length, pairs) of the first prefix cut of sv whose
    `recursive_kuhn_pairs` matching has at least t edges, each cut rebuilt
    by a scan over all edges, with the t smallest pairs; (0, ()) for t = 0,
    and None when no prefix cut qualifies."""
    if t == 0:
        return 0, ()
    for i in range(1, g.n):
        left = set(sv[:i])
        pairs = recursive_kuhn_pairs(
            [(u, v) if u in left else (v, u) for u, v in crossing_edges(g, left)])
        if len(pairs) >= t:
            return i, tuple(sorted(pairs))[:t]
    return None


def konig_cover(edges) -> frozenset:
    """Minimum vertex cover of oriented (left, right) edges by König's
    alternating reachability from the left vertices `recursive_kuhn_pairs`
    leaves free.  The reached set is the same for every maximum matching,
    so the cover is too."""
    pairs = recursive_kuhn_pairs(edges)
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
    match_left = dict(pairs)
    match_right = {v: u for u, v in pairs}
    reach_left = {u for u in adj if u not in match_left}
    reach_right: set = set()
    frontier = list(reach_left)
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v != match_left.get(u) and v not in reach_right:
                reach_right.add(v)
                w = match_right.get(v)
                if w is not None and w not in reach_left:
                    reach_left.add(w)
                    frontier.append(w)
    return frozenset(set(adj) - reach_left) | frozenset(reach_right)


def frozenset_settled_covers(g: Graph, sv) -> list[frozenset]:
    """The settled cover chain on frozensets: each cut's crossing edges by a
    scan over all edges, the previous cover's suffix-side part carried over,
    the residual cut covered by `konig_cover`, and the result checked to be
    minimum against a second matching of the whole cut."""
    covers: list[frozenset] = []
    for i in range(1, g.n):
        left = set(sv[:i])
        cut = [(u, v) if u in left else (v, u) for u, v in crossing_edges(g, left)]
        carry = covers[-1] & frozenset(sv[i:]) if covers else frozenset()
        cover = carry | konig_cover(
            [(u, v) for u, v in cut if u not in carry and v not in carry]
        )
        assert len(cover) == len(recursive_kuhn_pairs(cut)), f"not minimum at prefix {i}"
        covers.append(cover)
    return covers


def brute_validate_decomposition(g: Graph, bags, tree_edges) -> tuple:
    """(valid, failed_property, witness) of a well-formed tree decomposition,
    scanning every bag once per vertex and once per edge: union and
    connectedness by ascending vertex, containment in sorted edge order."""
    nbrs: list[list[int]] = [[] for _ in bags]
    for a, b in tree_edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    covered = set().union(*bags) if bags else set()
    for v in range(g.n):
        if v not in covered:
            return (False, "union", (v,))
    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in bags):
            return (False, "containment", (u, v))
    for v in range(g.n):
        holding = [i for i, bag in enumerate(bags) if v in bag]
        seen = {holding[0]}
        stack = [holding[0]]
        holding_set = set(holding)
        while stack:
            for b in nbrs[stack.pop()]:
                if b in holding_set and b not in seen:
                    seen.add(b)
                    stack.append(b)
        if seen != holding_set:
            return (False, "connectedness", (v,))
    return (True, None, None)


def path_labels(z, path) -> frozenset:
    """The literal set of a path of edge indices: its edges' nonzero labels,
    as signed ints."""
    return frozenset(z.lits[i] for i in path if z.lits[i])


def brute_computational_paths(z) -> list[tuple[tuple, frozenset]]:
    """(edge indices, literal set) of every root-leaf edge sequence that
    reads no variable with both signs, by plain recursion over a scan of all
    edges; a sequence ends when it first reaches the leaf.  The literal set
    is the edges' labels, and the list is sorted by plain comparison of the
    index tuples."""
    found = []

    def walk(node: int, path: tuple) -> None:
        if node == z.leaf:
            labels = path_labels(z, path)
            if len({abs(s) for s in labels}) == len(labels):
                found.append(path)
            return
        for i, tail in enumerate(z.tails):
            if tail == node:
                walk(z.heads[i], path + (i,))

    walk(z.root, ())
    found.sort()
    return [(path, path_labels(z, path)) for path in found]


def brute_check_c_nsobdd(z, sv, c) -> tuple:
    """(ok, violating path, segments needed) of the segmentation check:
    the first consistent root-leaf path, in brute_computational_paths
    order, whose labelled variables need more than c increasing runs of sv
    positions."""
    pos = {v: i for i, v in enumerate(sv)}
    for path, _ in brute_computational_paths(z):
        k = brute_min_segments([pos[abs(z.lits[i]) - 1] for i in path if z.lits[i]])
        if k > c:
            return (False, path, k)
    return (True, None, None)


def row_keyed_obdd(f, order) -> BranchingProgram:
    """Reduced OBDD of f along order, one level at a time: each node is
    keyed by the bytes of its residual truth-table row (a numpy bool
    array, first half the variable's 0 branch), numbered when first
    reached level by level, with the true and false terminals last."""
    order = tuple(order)
    tbl = np.array(brute_truth_table(f, order), dtype=bool)
    if tbl.all() or not tbl.any():
        edges = ((0, 1, 0),) if tbl.all() else ()
        return BranchingProgram(2, edges, root=0, leaf=1)
    raw_edges = []
    rows, first = [tbl], 0  # this level's rows; rows[j] is node first + j
    for var in order:
        index = {}  # the next level's rows, in id order
        for j, row in enumerate(rows):
            half = len(row) // 2
            for positive, child in ((False, row[:half]), (True, row[half:])):
                if child.all():
                    head = -2
                elif not child.any():
                    head = -1
                else:
                    head = index.setdefault(child.tobytes(), first + len(rows) + len(index))
                raw_edges.append((first + j, head, var + 1 if positive else -var - 1))
        rows, first = [np.frombuffer(key, dtype=bool) for key in index], first + len(rows)
    size = first + 2
    edges = tuple((tail, head % size, signed) for tail, head, signed in raw_edges)
    return BranchingProgram(size, edges, root=0, leaf=size - 2)
